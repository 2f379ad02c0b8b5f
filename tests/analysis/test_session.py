"""The programmer's choice, through ``run_ipa(pick=...)``.

The paper's tool asks the programmer to choose the preferred semantics
for each conflicting pair.  Here that choice is the ``pick(witness,
solutions)`` callable: it returns one of the verified resolutions, or
``None`` to flag the pair.
"""

from repro.analysis.conflicts import ConflictChecker
from repro.analysis.ipa import run_ipa
from repro.spec import SpecBuilder
from repro.spec.effects import ConvergencePolicy

from tests.conftest import make_mini_tournament_spec


def pick_side(name, calls=None):
    """A pick choosing the repair that modifies operation ``name``."""

    def pick(witness, solutions):
        if calls is not None:
            calls.append((witness, list(solutions)))
        return next(
            r for r in solutions if r.modified_op.original_name == name
        )

    return pick


class TestSessionFlow:
    def test_choose_figure2b(self):
        calls = []
        result = run_ipa(
            make_mini_tournament_spec(), pick=pick_side("enroll", calls)
        )
        assert len(calls) == 1
        assert len(calls[0][1]) == 2
        (applied,) = result.applied
        assert applied.resolution.modified_op.original_name == "enroll"
        assert not result.flagged
        assert ConflictChecker(result.modified).find_conflicts() == []

    def test_choose_figure2c_instead(self):
        """The programmer may prefer the other semantics."""
        result = run_ipa(
            make_mini_tournament_spec(), pick=pick_side("rem_tourn")
        )
        (applied,) = result.applied
        assert applied.resolution.modified_op.original_name == "rem_tourn"
        assert result.modified.rules.policy("enrolled") is (
            ConvergencePolicy.REM_WINS
        )
        assert not result.flagged
        assert ConflictChecker(result.modified).find_conflicts() == []

    def test_flag_generates_compensation(self):
        b = SpecBuilder("cap")
        b.predicate("enrolled", "Player", "Tournament")
        b.parameter("Capacity", 1)
        b.invariant(
            "forall(Tournament: t) :- #enrolled(*, t) <= Capacity"
        )
        b.operation(
            "enroll", "Player: p, Tournament: t", true=["enrolled(p, t)"]
        )
        result = run_ipa(b.build(), pick=lambda witness, solutions: None)
        assert not result.applied
        (flagged,) = result.flagged
        assert (flagged.witness.op1.name, flagged.witness.op2.name) == (
            "enroll", "enroll",
        )
        compensations = flagged.compensations
        assert compensations and compensations[0].kind == "trim-collection"
        assert result.compensations == compensations
        assert result.is_invariant_preserving

    def test_log_records_decisions(self):
        calls = []

        def pick(witness, solutions):
            calls.append((witness, solutions))
            return solutions[0]

        result = run_ipa(make_mini_tournament_spec(), pick=pick)
        assert len(calls) == len(result.applied) == 1
        witness, solutions = calls[0]
        applied = result.applied[0]
        assert applied.witness is witness
        assert applied.resolution is solutions[0]
        assert applied.alternatives == len(solutions)

    def test_original_spec_untouched(self):
        spec = make_mini_tournament_spec()
        before = dict(spec.operations)
        rules = dict(spec.rules.policies)
        result = run_ipa(spec, pick=pick_side("rem_tourn"))
        assert result.applied
        assert spec.operations == before
        assert dict(spec.rules.policies) == rules
