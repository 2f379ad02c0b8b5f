"""Repair-search tests (Algorithm 1's ``repairConflicts``)."""

import pytest

from repro.analysis.conflicts import ConflictChecker
from repro.analysis.repair import (
    default_policy,
    first_resolution,
    repair_conflict,
)
from repro.logic.ast import Wildcard
from repro.spec.effects import BoolEffect, ConvergencePolicy

from tests.conftest import make_mini_tournament_spec


@pytest.fixture
def setup():
    spec = make_mini_tournament_spec()
    checker = ConflictChecker(spec)
    witness = checker.is_conflicting(
        spec.operation("rem_tourn"), spec.operation("enroll")
    )
    assert witness is not None
    return spec, checker, witness


class TestRepairSearch:
    def test_finds_both_paper_resolutions(self, setup):
        spec, checker, witness = setup
        solutions = repair_conflict(spec, checker, witness)
        assert len(solutions) == 2
        modified = {
            (r.modified_op.original_name, r.clears_with_wildcard)
            for r in solutions
        }
        # Figure 2b: enroll restores the tournament (no wildcard);
        # Figure 2c: rem_tourn clears enrolments (wildcard).
        assert modified == {("enroll", False), ("rem_tourn", True)}

    def test_figure2b_solution_shape(self, setup):
        spec, checker, witness = setup
        solutions = repair_conflict(spec, checker, witness)
        enroll_fix = next(
            r for r in solutions
            if r.modified_op.original_name == "enroll"
        )
        tournament = spec.schema.pred("tournament")
        enroll = spec.operation("enroll")
        assert enroll_fix.candidate.extra_effects == (
            BoolEffect(tournament, (enroll.params[1],), value=True),
        )
        # Add-wins is the default rule, so no change is required.
        assert enroll_fix.rule_changes == ()

    def test_figure2c_solution_shape(self, setup):
        spec, checker, witness = setup
        solutions = repair_conflict(spec, checker, witness)
        rem_fix = next(
            r for r in solutions
            if r.modified_op.original_name == "rem_tourn"
        )
        (effect,) = rem_fix.candidate.extra_effects
        assert effect.has_wildcard and effect.value is False
        assert effect.pred.name == "enrolled"
        assert rem_fix.rule_changes == (
            ("enrolled", ConvergencePolicy.REM_WINS),
        )

    def test_repaired_pairs_verified_clean(self, setup):
        spec, checker, witness = setup
        for resolution in repair_conflict(spec, checker, witness):
            rules = spec.rules.copy()
            for name, policy in resolution.rule_changes:
                rules.set(name, policy)
            assert checker.is_conflicting(
                resolution.new_op1, resolution.new_op2, rules
            ) is None

    def test_minimality_no_superset_solutions(self, setup):
        spec, checker, witness = setup
        solutions = repair_conflict(spec, checker, witness, max_effects=2)
        for a in solutions:
            for b in solutions:
                if a is not b:
                    assert not a.candidate.is_superset_of(b.candidate)

    def test_stop_after_limits_solutions(self, setup):
        spec, checker, witness = setup
        solutions = repair_conflict(
            spec, checker, witness, stop_after=1
        )
        assert len(solutions) == 1

    def test_without_semantics_preservation_more_solutions(self, setup):
        spec, checker, witness = setup
        strict = repair_conflict(spec, checker, witness)
        loose = repair_conflict(
            spec, checker, witness, require_semantics_preserving=False
        )
        assert len(loose) >= len(strict)


class TestPolicies:
    def test_first_resolution(self, setup):
        spec, checker, witness = setup
        solutions = repair_conflict(spec, checker, witness)
        assert first_resolution(witness, solutions) is solutions[0]
        assert first_resolution(witness, []) is None

    def test_default_policy_avoids_wildcards(self, setup):
        spec, checker, witness = setup
        solutions = repair_conflict(spec, checker, witness)
        chosen = default_policy(witness, solutions)
        assert not chosen.clears_with_wildcard
