"""Main-loop tests (Algorithm 1 end to end)."""

import pytest

from repro.analysis.conflicts import ConflictChecker
from repro.analysis.ipa import run_ipa
from repro.errors import UnsolvableConflictError
from repro.spec import SpecBuilder

from tests.conftest import make_mini_tournament_spec


class TestMiniTournament:
    def test_loop_resolves_all_conflicts(self):
        spec = make_mini_tournament_spec()
        result = run_ipa(spec)
        assert result.is_invariant_preserving
        assert not result.flagged
        assert len(result.applied) == 1
        # The modified spec has no conflicts left.
        checker = ConflictChecker(result.modified)
        assert checker.find_conflicts() == []

    def test_original_spec_untouched(self):
        spec = make_mini_tournament_spec()
        before = {
            name: op.effects for name, op in spec.operations.items()
        }
        run_ipa(spec)
        after = {name: op.effects for name, op in spec.operations.items()}
        assert before == after

    def test_default_policy_picks_figure2b(self):
        spec = make_mini_tournament_spec()
        result = run_ipa(spec)
        applied = result.applied[0]
        assert applied.resolution.modified_op.original_name == "enroll"
        assert applied.alternatives == 2

    def test_i_confluent_spec_is_noop(self):
        b = SpecBuilder("adds-only")
        b.predicate("player", "Player")
        b.invariant("forall(Player: p) :- player(p) => player(p)")
        b.operation("add_player", "Player: p", true=["player(p)"])
        result = run_ipa(b.build())
        assert not result.applied
        assert not result.flagged
        assert "already I-Confluent" in result.describe()


class TestCompensationPath:
    def capacity_spec(self):
        b = SpecBuilder("capacity")
        b.predicate("enrolled", "Player", "Tournament")
        b.parameter("Capacity", 1)
        b.invariant(
            "forall(Tournament: t) :- #enrolled(*, t) <= Capacity"
        )
        b.operation(
            "enroll", "Player: p, Tournament: t", true=["enrolled(p, t)"]
        )
        return b.build()

    def test_capacity_flagged_with_compensation(self):
        result = run_ipa(self.capacity_spec())
        assert result.is_invariant_preserving
        assert len(result.flagged) == 1
        (compensation,) = result.compensations
        assert compensation.kind == "trim-collection"
        assert compensation.predicate == "enrolled"
        assert compensation.trigger_ops == ("enroll",)

    def test_compensations_deduplicated(self):
        spec = self.capacity_spec()
        b = spec  # add a second offending op to create two flagged pairs
        from repro.spec.operations import Operation

        enroll = spec.operation("enroll")
        spec.add_operation(
            Operation(
                "enroll_vip",
                enroll.params,
                enroll.effects,
            )
        )
        result = run_ipa(spec)
        kinds = [(c.kind, c.predicate) for c in result.compensations]
        assert kinds == [("trim-collection", "enrolled")]
        (compensation,) = result.compensations
        assert set(compensation.trigger_ops) == {"enroll", "enroll_vip"}


class TestStrictMode:
    def test_strict_raises_on_uncoverable_conflict(self):
        # A disjunction-free mutual exclusion with LWW rules cannot be
        # repaired (no winner) nor compensated (not numeric).
        b = SpecBuilder("mutex")
        b.predicate("active", "Tournament")
        b.predicate("finished", "Tournament")
        b.invariant(
            "forall(Tournament: t) :- not (active(t) and finished(t))"
        )
        b.operation("begin", "Tournament: t", true=["active(t)"])
        b.operation("finish", "Tournament: t", true=["finished(t)"])
        spec = b.build(default_rule="lww")
        with pytest.raises(UnsolvableConflictError):
            run_ipa(spec, allow_rule_changes=False, strict=True)

    def test_non_strict_flags_instead(self):
        b = SpecBuilder("mutex2")
        b.predicate("active", "Tournament")
        b.predicate("finished", "Tournament")
        b.invariant(
            "forall(Tournament: t) :- not (active(t) and finished(t))"
        )
        b.operation("begin", "Tournament: t", true=["active(t)"])
        b.operation("finish", "Tournament: t", true=["finished(t)"])
        spec = b.build(default_rule="lww")
        result = run_ipa(spec, allow_rule_changes=False)
        assert not result.is_invariant_preserving
        assert any(f.needs_coordination for f in result.flagged)
        assert "coordination" in result.describe()


class TestRuleChangesRepairMutex:
    def test_mutex_repaired_with_rule_change(self):
        """With rule changes allowed, begin/finish is repairable: one
        side's status predicate becomes rem-wins and the other clears
        it (the Figure 3 ensureBegin/ensureEnd pattern)."""
        b = SpecBuilder("mutex3")
        b.predicate("active", "Tournament")
        b.predicate("finished", "Tournament")
        b.invariant(
            "forall(Tournament: t) :- not (active(t) and finished(t))"
        )
        b.operation("begin", "Tournament: t", true=["active(t)"])
        b.operation(
            "finish", "Tournament: t",
            true=["finished(t)"], false=["active(t)"],
        )
        result = run_ipa(b.build())
        assert result.is_invariant_preserving
        assert not result.flagged
        assert result.applied
