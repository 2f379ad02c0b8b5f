"""Conflict repair (function ``repairConflicts`` of Algorithm 1).

For a conflicting pair, candidate modifications are generated
(:mod:`repro.analysis.generation`), tested with the extended conflict
checker, and the surviving ones are returned as :class:`Resolution`
objects.  ``pickResolution`` is a pluggable policy: the paper has the
programmer choose interactively; the library ships sensible automatic
policies and applications may pass their own callables.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable

from repro.logic.ast import Cmp, Exists, ForAll, Formula, Wildcard
from repro.spec.application import ApplicationSpec
from repro.spec.effects import BoolEffect, ConvergencePolicy
from repro.spec.operations import Operation

from repro.analysis.conflicts import (
    ConflictChecker,
    ConflictWitness,
    SolverSessions,
)
from repro.analysis.generation import CandidateRepair, generate_candidates


@dataclass(frozen=True)
class Resolution:
    """A repair that was verified to remove the conflict.

    ``new_op1``/``new_op2`` are the pair with the candidate applied (one
    of them is unchanged); ``rule_changes`` are the convergence rules
    that must be installed for the repair to work.
    """

    candidate: CandidateRepair
    new_op1: Operation
    new_op2: Operation
    rule_changes: tuple[tuple[str, ConvergencePolicy], ...]

    @property
    def modified_op(self) -> Operation:
        return self.new_op1 if self.candidate.side == 1 else self.new_op2

    @property
    def clears_with_wildcard(self) -> bool:
        """Does the repair clear a predicate with a wildcard effect?

        Wildcard-clearing repairs change semantics more aggressively
        (e.g. "enrolling cancels every other enrolment"); policies use
        this to rank or reject them.
        """
        return any(
            isinstance(e, BoolEffect) and e.has_wildcard and not e.value
            for e in self.candidate.extra_effects
        )

    def describe(self) -> str:
        target = self.modified_op
        lines = [f"modify {target.original_name}: {self.candidate.describe()}"]
        return "\n".join(lines)


PickPolicy = Callable[[ConflictWitness, list[Resolution]], "Resolution | None"]


def repair_conflict(
    spec: ApplicationSpec,
    checker: ConflictChecker,
    witness: ConflictWitness,
    max_effects: int = 2,
    allow_rule_changes: bool = True,
    stop_after: int | None = None,
    require_semantics_preserving: bool = True,
) -> list[Resolution]:
    """All minimal verified repairs for one conflicting pair.

    Candidates are tested in size order; any candidate that is a
    superset of an already-found solution is skipped (minimality,
    Algorithm 1 line 18).  Two side conditions reject degenerate
    candidates: the modified operation must stay *executable* (its
    weakest precondition satisfiable), and -- unless
    ``require_semantics_preserving`` is off -- the added effects must be
    no-ops in conflict-free executions, which is the paper's
    "preserving the original semantics of operations when no conflicts
    occur".  ``stop_after`` caps the number of solutions collected
    (None = exhaustive).
    """
    op1, op2 = witness.op1, witness.op2
    solutions: list[Resolution] = []
    found_candidates: list[CandidateRepair] = []
    # Candidate verification only needs yes/no answers, and the many
    # candidates of one conflict share their invariants, preconditions
    # and bindings: route every check through incremental solver
    # sessions so each shared base is encoded once and learned clauses
    # are reused.
    sessions = SolverSessions()
    for candidate in generate_candidates(
        spec, op1, op2, max_effects=max_effects,
        allow_rule_changes=allow_rule_changes,
    ):
        if any(candidate.is_superset_of(prev) for prev in found_candidates):
            continue
        new_op1, new_op2 = _apply_candidate(op1, op2, candidate)
        modified = new_op1 if candidate.side == 1 else new_op2
        original = op1 if candidate.side == 1 else op2
        if not checker.is_executable(modified, sessions=sessions):
            continue
        if require_semantics_preserving and not (
            checker.preserves_solo_semantics(
                original, modified, sessions=sessions
            )
        ):
            continue
        rules = spec.rules.copy()
        for name, policy in candidate.rule_requirements:
            rules.set(name, policy)
        if not checker.has_conflict(
            new_op1, new_op2, rules,
            try_first=witness.binding, sessions=sessions,
        ):
            found_candidates.append(candidate)
            solutions.append(
                Resolution(
                    candidate=candidate,
                    new_op1=new_op1,
                    new_op2=new_op2,
                    rule_changes=candidate.rule_requirements,
                )
            )
            if stop_after is not None and len(solutions) >= stop_after:
                break
    return solutions


def _apply_candidate(
    op1: Operation, op2: Operation, candidate: CandidateRepair
) -> tuple[Operation, Operation]:
    if candidate.side == 1:
        return op1.with_extra_effects(candidate.extra_effects), op2
    return op1, op2.with_extra_effects(candidate.extra_effects)


# ---------------------------------------------------------------------------
# pickResolution policies
# ---------------------------------------------------------------------------


def first_resolution(
    witness: ConflictWitness, solutions: list[Resolution]
) -> Resolution | None:
    """Pick the first (fewest-effects) resolution."""
    return solutions[0] if solutions else None


def _is_numeric_violation(witness: ConflictWitness) -> bool:
    return bool(witness.violated) and all(
        _is_numeric_invariant(inv.formula) for inv in witness.violated
    )


def _is_numeric_invariant(formula: Formula) -> bool:
    while isinstance(formula, (ForAll, Exists)):
        formula = formula.body
    return isinstance(formula, Cmp)


def default_policy(
    witness: ConflictWitness, solutions: list[Resolution]
) -> Resolution | None:
    """The library's default ``pickResolution``.

    Numeric and aggregation-bound violations are left unresolved
    (returning None flags the pair), because their eager repairs --
    e.g. disenrolling a player whenever someone enrols -- "would render
    the application unusable" (§3.4); the main loop then generates a
    compensation instead.  For all other conflicts, prefer resolutions
    that do not clear predicates with wildcards, then fewest effects.
    """
    if _is_numeric_violation(witness):
        return None
    ranked = sorted(
        solutions,
        key=lambda r: (r.clears_with_wildcard, r.candidate.size),
    )
    return ranked[0] if ranked else None
