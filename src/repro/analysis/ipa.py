"""The IPA main loop (Algorithm 1).

``run_ipa`` iterates: find a conflicting pair, generate and verify
repairs, let the pick policy choose one, install it (replacing the
operations and convergence rules), and continue until no unflagged
conflicts remain.  Pairs with no acceptable repair are *flagged*; when
the violated invariant is a numeric/aggregation bound, a compensation
is synthesised for it (§3.4), otherwise the pair is reported as needing
coordination (the escape hatch of Step 3 of the recipe).
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass, field

from repro.errors import AnalysisError, UnsolvableConflictError
from repro.obs import TRACER, monotonic
from repro.solver.dpll import SolverCounters
from repro.spec.application import ApplicationSpec

from repro.analysis.cache import SolverCache
from repro.analysis.compensation import Compensation, generate_compensations
from repro.analysis.conflicts import ConflictChecker, ConflictWitness
from repro.analysis.repair import (
    PickPolicy,
    Resolution,
    default_policy,
    repair_conflict,
)


@dataclass
class AnalysisStats:
    """Per-stage instrumentation of one ``run_ipa`` call.

    Everything here is *observational* -- wall-clock, cache traffic --
    and explicitly excluded from :meth:`IpaResult.fingerprint`, which
    covers only the deterministic outcome.
    """

    scan_seconds: float = 0.0
    repair_seconds: float = 0.0
    compensation_seconds: float = 0.0
    scan_queries: int = 0
    repair_queries: int = 0
    solver_solves: int = 0
    cache_memory_hits: int = 0
    cache_disk_hits: int = 0
    cache_misses: int = 0
    cache_rejected: int = 0
    #: CDCL search effort (decisions, propagations, conflicts, restarts,
    #: learned clauses) summed over every solver the analysis ran.
    solver: SolverCounters = field(default_factory=SolverCounters)

    @property
    def cache_hits(self) -> int:
        return self.cache_memory_hits + self.cache_disk_hits

    def snapshot_cache(self, cache: SolverCache | None) -> None:
        if cache is None:
            return
        stats = cache.stats
        self.cache_memory_hits = stats.memory_hits
        self.cache_disk_hits = stats.disk_hits
        self.cache_misses = stats.misses
        self.cache_rejected = stats.rejected

    def describe(self) -> str:
        lines = [
            "stage timings:",
            f"  scan         : {self.scan_seconds:.3f}s "
            f"({self.scan_queries} queries)",
            f"  repair       : {self.repair_seconds:.3f}s "
            f"({self.repair_queries} queries)",
            f"  compensation : {self.compensation_seconds:.3f}s",
            f"solver: {self.solver_solves} solve(s), "
            f"cache {self.cache_hits} hit(s) "
            f"({self.cache_memory_hits} memory / {self.cache_disk_hits} disk), "
            f"{self.cache_misses} miss(es)",
            f"solver effort: {self.solver.decisions} decision(s), "
            f"{self.solver.propagations} propagation(s), "
            f"{self.solver.conflicts} conflict(s), "
            f"{self.solver.restarts} restart(s), "
            f"{self.solver.learned_clauses} learned clause(s)",
        ]
        if self.cache_rejected:
            lines.append(
                f"cache entries rejected (corrupt/stale): "
                f"{self.cache_rejected}"
            )
        return "\n".join(lines)


@dataclass
class AppliedResolution:
    """One repair the loop installed, kept for the final report."""

    witness: ConflictWitness
    resolution: Resolution
    alternatives: int

    def describe(self) -> str:
        return (
            f"{self.witness.op1.name} || {self.witness.op2.name}: "
            f"{self.resolution.describe()} "
            f"({self.alternatives} candidate resolution(s))"
        )


@dataclass
class FlaggedConflict:
    """A conflict no acceptable repair exists for."""

    witness: ConflictWitness
    compensations: list[Compensation] = field(default_factory=list)

    @property
    def needs_coordination(self) -> bool:
        """True when not even a compensation covers this conflict."""
        return not self.compensations


@dataclass
class IpaResult:
    """Everything ``run_ipa`` produced."""

    original: ApplicationSpec
    modified: ApplicationSpec
    applied: list[AppliedResolution]
    flagged: list[FlaggedConflict]
    rounds: int
    elapsed_seconds: float
    solver_queries: int
    stats: AnalysisStats = field(default_factory=AnalysisStats)

    @property
    def compensations(self) -> list[Compensation]:
        """Distinct compensations, with trigger operations merged.

        The same capacity invariant is typically flagged once per
        offending pair (``enroll || enroll``, ``enroll || do_match``,
        ...); the runtime only needs one compensation with the union of
        their triggers.
        """
        merged: dict[tuple[str, str, str], Compensation] = {}
        for flagged in self.flagged:
            for comp in flagged.compensations:
                key = (comp.kind, comp.predicate, comp.invariant.describe())
                existing = merged.get(key)
                if existing is None:
                    merged[key] = comp
                else:
                    triggers = tuple(
                        sorted(set(existing.trigger_ops) | set(comp.trigger_ops))
                    )
                    merged[key] = Compensation(
                        invariant=existing.invariant,
                        kind=existing.kind,
                        predicate=existing.predicate,
                        trigger_ops=triggers,
                        bound_param=existing.bound_param,
                        bound_value=existing.bound_value,
                    )
        return list(merged.values())

    @property
    def is_invariant_preserving(self) -> bool:
        """True when every conflict was repaired or compensated."""
        return all(not f.needs_coordination for f in self.flagged)

    def describe(self) -> str:
        lines = [
            f"IPA analysis of {self.original.name!r}: "
            f"{self.rounds} round(s), {self.solver_queries} solver "
            f"queries, {self.elapsed_seconds:.2f}s"
        ]
        if self.applied:
            lines.append("repairs applied:")
            for applied in self.applied:
                lines.append(f"  - {applied.describe()}")
        if self.compensations:
            lines.append("compensations generated:")
            for compensation in self.compensations:
                lines.append(f"  - {compensation.describe()}")
        coordination = [f for f in self.flagged if f.needs_coordination]
        if coordination:
            lines.append("conflicts requiring coordination:")
            for flagged in coordination:
                lines.append(
                    f"  - {flagged.witness.op1.name} || "
                    f"{flagged.witness.op2.name}"
                )
        if not self.applied and not self.flagged:
            lines.append("specification is already I-Confluent")
        return "\n".join(lines)

    def fingerprint(self) -> str:
        """Content hash of the deterministic outcome of the analysis.

        Cold and cache-warmed runs of the same specification produce
        the same fingerprint; timings and cache counters (which
        legitimately differ between runs) are excluded.
        The repair search is exhaustive and pair order is fixed, so this
        covers the modified spec, every applied repair with its witness,
        every flagged conflict with its compensations, the round count
        and the logical query count.
        """
        parts = [
            self.original.describe(),
            self.modified.describe(),
            "rules:" + ";".join(
                f"{pred}={policy.value}"
                for pred, policy in sorted(self.modified.rules.policies.items())
            ),
            f"rounds={self.rounds}",
            f"queries={self.solver_queries}",
        ]
        for applied in self.applied:
            parts.append(applied.witness.describe())
            parts.append(applied.resolution.describe())
            parts.append(f"alternatives={applied.alternatives}")
        for flagged in self.flagged:
            parts.append(flagged.witness.describe())
            for compensation in flagged.compensations:
                parts.append(compensation.describe())
        text = "\n--\n".join(parts)
        return hashlib.sha256(text.encode("utf-8")).hexdigest()


#: Rounds after which ``run_ipa`` gives up with an ``AnalysisError``.
MAX_ROUNDS = 100


def run_ipa(
    spec: ApplicationSpec,
    pick: PickPolicy = default_policy,
    max_effects: int = 2,
    allow_rule_changes: bool = True,
    strict: bool = False,
    checker: ConflictChecker | None = None,
    jobs: int = 1,
    cache: SolverCache | bool | None = None,
    cache_dir: str | os.PathLike | None = None,
) -> IpaResult:
    """Make ``spec`` invariant-preserving (Algorithm 1).

    The input spec is not mutated; the returned result carries the
    modified copy.  ``pick(witness, solutions)`` is the programmer's
    choice for each conflict: it returns one of the verified
    ``solutions`` to install, or ``None`` to flag the pair (which then
    gets a compensation where its invariant allows one).
    ``strict=True`` raises :class:`~repro.errors.UnsolvableConflictError`
    instead of flagging a pair that not even a compensation covers.

    The solver cache (the outcome is identical with or without it, see
    :meth:`IpaResult.fingerprint`):

    - ``cache``: a :class:`~repro.analysis.cache.SolverCache` to share,
      ``False`` to disable caching, or ``None``/``True`` to create one
      (with a persistent tier under ``cache_dir`` if given).
    - ``cache_dir``: directory for the on-disk cache tier.  The run's
      new entries reach it as one segment, written when the run returns
      or raises (see :meth:`~repro.analysis.cache.SolverCache.flush`).

    ``jobs`` accepts only ``1``: ``benchmarks/ledger`` still passes it
    by keyword; a later benchmark-only PR drops the argument and then
    the parameter.
    """
    if jobs != 1:
        raise AnalysisError(
            f"run_ipa scans sequentially: jobs must be 1, got {jobs!r}"
        )
    started = monotonic()
    run_span = TRACER.start("analysis.run", spec=spec.name)
    work = spec.copy()
    if cache is False:
        cache = None
    elif cache is None or cache is True:
        cache = SolverCache(cache_dir)
    if checker is None:
        checker = ConflictChecker(work, cache=cache)
    if checker.spec is not work:
        checker = checker.rebind(work, cache)
    stats = AnalysisStats()
    applied: list[AppliedResolution] = []
    flagged: list[FlaggedConflict] = []
    skip: set[tuple[str, str]] = set()
    # Pairs already verified non-conflicting under the current
    # operations and rules: re-checked only when an involved operation
    # is replaced (any rule change clears the whole set).
    clean: set[tuple[str, str]] = set()
    rounds = 0
    try:
        while rounds < MAX_ROUNDS:
            rounds += 1
            scan_started = monotonic()
            scan_span = TRACER.start("analysis.scan", round=rounds)
            queries_before = checker.queries_issued
            witness = checker.find_first(skip, clean)
            stats.scan_seconds += monotonic() - scan_started
            stats.scan_queries += checker.queries_issued - queries_before
            TRACER.end(
                scan_span,
                queries=checker.queries_issued - queries_before,
                conflict=witness is not None,
            )
            if witness is None:
                break
            repair_started = monotonic()
            repair_span = TRACER.start(
                "analysis.repair",
                round=rounds,
                op1=witness.op1.name,
                op2=witness.op2.name,
            )
            queries_before = checker.queries_issued
            solutions = repair_conflict(
                work,
                checker,
                witness,
                max_effects=max_effects,
                allow_rule_changes=allow_rule_changes,
            )
            stats.repair_seconds += monotonic() - repair_started
            stats.repair_queries += checker.queries_issued - queries_before
            TRACER.end(repair_span, candidates=len(solutions))
            chosen = pick(witness, solutions)
            if chosen is None:
                comp_started = monotonic()
                comp_span = TRACER.start(
                    "analysis.compensation",
                    op1=witness.op1.name,
                    op2=witness.op2.name,
                )
                compensations = generate_compensations(work, witness)
                stats.compensation_seconds += monotonic() - comp_started
                TRACER.end(comp_span, compensations=len(compensations))
                entry = FlaggedConflict(witness, compensations)
                if strict and entry.needs_coordination:
                    raise UnsolvableConflictError(
                        f"no repair or compensation for "
                        f"{witness.op1.name} || {witness.op2.name}"
                    )
                flagged.append(entry)
                skip.add((witness.op1.name, witness.op2.name))
                continue
            if chosen.rule_changes:
                clean.clear()
            for name, policy in chosen.rule_changes:
                work.rules.set(name, policy)
            if chosen.new_op1 is not witness.op1:
                work.replace_operation(witness.op1.name, chosen.new_op1)
                clean = {
                    pair for pair in clean if witness.op1.name not in pair
                }
            if chosen.new_op2 is not witness.op2:
                work.replace_operation(witness.op2.name, chosen.new_op2)
                clean = {
                    pair for pair in clean if witness.op2.name not in pair
                }
            applied.append(
                AppliedResolution(
                    witness=witness,
                    resolution=chosen,
                    alternatives=len(solutions),
                )
            )
        else:
            raise AnalysisError(
                f"IPA did not converge within {MAX_ROUNDS} rounds"
            )
        stats.solver_solves = checker.solver_solves
        stats.solver.add(checker.solver_counters)
        stats.snapshot_cache(checker.cache)
        TRACER.end(
            run_span,
            rounds=rounds,
            queries=checker.queries_issued,
            applied=len(applied),
            flagged=len(flagged),
        )
        return IpaResult(
            original=spec,
            modified=work,
            applied=applied,
            flagged=flagged,
            rounds=rounds,
            elapsed_seconds=monotonic() - started,
            solver_queries=checker.queries_issued,
            stats=stats,
        )
    finally:
        # One segment per run, written even when the run raises.
        if checker.cache is not None:
            checker.cache.flush()

