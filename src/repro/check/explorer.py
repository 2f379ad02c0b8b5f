"""Seeded schedule exploration: fan trials out until something breaks.

The explorer is the falsification engine on top of
:func:`repro.check.harness.run_trial`: within a trial/wall-clock
budget it enumerates deterministic trials over (root seed x fault-plan
kind x generated workload), judging each with the runtime oracles.
Every trial is fully described by its :class:`TrialSpec`, so any
failure the sweep finds is immediately replayable and shrinkable.

The fault portfolio cycles through five schedule families per seed:

- ``clean``: no faults -- pure replication-interleaving races (the
  Figure 1/2 conflicts fire from trace timing alone);
- ``lossy``: probabilistic drop/duplicate/reorder, anti-entropy heals;
- ``partition``: one bidirectional partition across the middle of the
  trace (concurrent windows grow to the partition length);
- ``partition-crash``: the partition plus a replica crash/recovery;
- ``heavy``: high loss and reordering plus a partition.

Counters ``check.trials.explored`` / ``check.trials.violating`` land
in the shared obs registry; wall-clock budgeting uses
:func:`repro.obs.monotonic`, the repo's sanctioned clock.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.check.apps import ADAPTERS, CONFIG_NAMES
from repro.check.harness import TrialResult, TrialSpec, run_trial
from repro.errors import CheckError
from repro.obs import REGISTRY, monotonic
from repro.sim.faults import CrashWindow, FaultPlan, PartitionWindow
from repro.sim.latency import REGIONS

PLAN_KINDS = ("clean", "lossy", "partition", "partition-crash", "heavy")

#: Mixes seeds apart without ``hash()`` (which is salted per process).
_SEED_STRIDE = 1_000_003


def make_plan(
    kind: str,
    seed: int,
    regions: tuple[str, ...],
    horizon_ms: float,
) -> FaultPlan:
    """One deterministic fault plan of the given family.

    Windows are trace-relative (the harness shifts them past setup)
    and always end before the trace does, so the post-trace
    convergence wait runs on a healed cluster.
    """
    window = (0.25 * horizon_ms, 0.65 * horizon_ms)
    split = (tuple(regions[:1]), tuple(regions[1:]))
    if kind == "clean":
        return FaultPlan(seed=seed)
    if kind == "lossy":
        return FaultPlan(seed=seed, drop=0.04, duplicate=0.03, reorder=0.2)
    if kind == "partition":
        return FaultPlan(
            seed=seed,
            partitions=(PartitionWindow(window[0], window[1], *split),),
        )
    if kind == "partition-crash":
        return FaultPlan(
            seed=seed,
            partitions=(PartitionWindow(window[0], window[1], *split),),
            crashes=(
                CrashWindow(
                    regions[-1], 0.70 * horizon_ms, 0.85 * horizon_ms
                ),
            ),
        )
    if kind == "heavy":
        return FaultPlan(
            seed=seed,
            drop=0.10,
            duplicate=0.05,
            reorder=0.30,
            partitions=(
                PartitionWindow(
                    0.40 * horizon_ms, 0.60 * horizon_ms, *split
                ),
            ),
        )
    raise CheckError(
        f"unknown plan kind {kind!r} (one of: {', '.join(PLAN_KINDS)})"
    )


@dataclass(frozen=True)
class TrialSummary:
    """One line of the exploration log."""

    index: int
    seed: int
    plan_kind: str
    n_ops: int
    n_violations: int
    converged: bool
    wall_s: float


@dataclass
class ExploreResult:
    """Outcome of one exploration sweep."""

    app: str
    config: str
    root_seed: int
    trials: list[TrialSummary] = field(default_factory=list)
    failures: list[TrialResult] = field(default_factory=list)
    elapsed_s: float = 0.0
    budget_exhausted: bool = False

    @property
    def explored(self) -> int:
        return len(self.trials)

    @property
    def violating(self) -> int:
        return sum(1 for t in self.trials if t.n_violations)

    def summary(self) -> str:
        head = (
            f"{self.app}/{self.config} seed={self.root_seed}: "
            f"{self.explored} trial(s), {self.violating} violating, "
            f"{self.elapsed_s:.1f}s"
        )
        if self.budget_exhausted:
            head += " (budget exhausted)"
        return head


def build_trial(
    app: str,
    config: str,
    root_seed: int,
    index: int,
    regions: tuple[str, ...] = REGIONS,
    n_ops: int = 40,
    params: dict | None = None,
) -> TrialSpec:
    """The ``index``-th deterministic trial of a sweep (pure function)."""
    adapter = ADAPTERS.get(app)
    if adapter is None:
        raise CheckError(
            f"unknown application {app!r} (one of: "
            + ", ".join(sorted(ADAPTERS))
            + ")"
        )
    merged = {**adapter.defaults(), **(params or {})}
    trial_seed = root_seed * _SEED_STRIDE + index
    ops = adapter.generate(trial_seed, regions, n_ops, merged)
    horizon = max((op.at_ms for op in ops), default=0.0)
    kind = PLAN_KINDS[index % len(PLAN_KINDS)]
    plan = make_plan(kind, trial_seed + 7, regions, horizon)
    return TrialSpec(
        app=app,
        config=config,
        seed=trial_seed,
        regions=regions,
        ops=tuple(ops),
        plan=plan,
        params=dict(params or {}),
    )


def explore(
    app: str,
    config: str,
    trials: int = 15,
    budget_s: float = 60.0,
    seed: int = 11,
    n_ops: int = 40,
    regions: tuple[str, ...] = REGIONS,
    params: dict | None = None,
) -> ExploreResult:
    """Run up to ``trials`` deterministic trials within ``budget_s``.

    The trial sequence is a pure function of (app, seed, n_ops,
    regions, params): the wall-clock budget only decides how far down
    the sequence the sweep gets, never what any trial contains.
    """
    if config not in CONFIG_NAMES:
        raise CheckError(
            f"unknown checker config {config!r} (one of: "
            + ", ".join(CONFIG_NAMES)
            + ")"
        )
    explored_counter = REGISTRY.counter("check.trials.explored")
    violating_counter = REGISTRY.counter("check.trials.violating")
    result = ExploreResult(app=app, config=config, root_seed=seed)
    started = monotonic()
    for index in range(trials):
        elapsed = monotonic() - started
        if elapsed > budget_s:
            result.budget_exhausted = True
            break
        spec = build_trial(
            app, config, seed, index,
            regions=regions, n_ops=n_ops, params=params,
        )
        trial_started = monotonic()
        trial = run_trial(spec)
        explored_counter.inc()
        result.trials.append(
            TrialSummary(
                index=index,
                seed=spec.seed,
                plan_kind=PLAN_KINDS[index % len(PLAN_KINDS)],
                n_ops=len(spec.ops),
                n_violations=len(trial.violations),
                converged=trial.converged_ms is not None,
                wall_s=monotonic() - trial_started,
            )
        )
        if trial.violations:
            violating_counter.inc()
            result.failures.append(trial)
    result.elapsed_s = monotonic() - started
    return result
