"""Experiment drivers, one per table/figure of the evaluation (§5.2).

Every function returns plain data structures; the pytest files under
``benchmarks/`` print them with :mod:`repro.bench.tables` and assert the
paper's qualitative shape (who wins, by roughly what factor, where the
crossovers fall).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.classification import table1_rows
from repro.apps.common import Variant
from repro.apps.ticket import ticket_spec
from repro.apps.tournament import tournament_spec
from repro.apps.tpcw import tpcw_spec
from repro.apps.twitter import twitter_spec
from repro.bench.configs import (
    CONFIGS,
    ExperimentConfig,
    build_ticket,
    build_tournament,
    build_twitter,
)
from repro.crdts import AWSet
from repro.sim.events import Simulator
from repro.sim.latency import REGIONS
from repro.sim.runner import run_closed_loop
from repro.store.cluster import Cluster, ConsistencyMode
from repro.store.registry import TypeRegistry
from repro.obs import monotonic

# ---------------------------------------------------------------------------
# Table 1
# ---------------------------------------------------------------------------


def table1_invariant_classes() -> list[dict[str, str]]:
    """Invariant classes per application (Table 1)."""
    return table1_rows(
        {
            "TPC": tpcw_spec(),
            "Tour": tournament_spec(),
            "Ticket": ticket_spec(),
            "Twitter": twitter_spec(),
        }
    )


# ---------------------------------------------------------------------------
# Figure 4 -- Tournament peak throughput / latency
# ---------------------------------------------------------------------------


def fig4_tournament_scalability(
    client_counts: tuple[int, ...] = (4, 8, 16, 32, 64, 128),
    duration_ms: float = 20_000.0,
    warmup_ms: float = 2_000.0,
    think_ms: float = 100.0,
) -> dict[str, list[tuple[int, float, float]]]:
    """Throughput/latency per configuration as client load grows.

    Clients carry think time (the paper ramps client *threads* until
    peak throughput), so slow configurations are not under-sampled by
    fast local clients.  Returns ``{config: [(clients_per_region,
    throughput_tps, mean_latency_ms)]}``.
    """
    series: dict[str, list[tuple[int, float, float]]] = {}
    for config in CONFIGS:
        points = []
        for clients in client_counts:
            sim, app, workload = build_tournament(config)
            result = run_closed_loop(
                sim,
                workload.issue,
                {region: clients for region in REGIONS},
                duration_ms=duration_ms,
                warmup_ms=warmup_ms,
                think_ms=think_ms,
            )
            stats = result.stats()
            points.append((clients, result.throughput, stats.mean))
        series[config.name] = points
    return series


# ---------------------------------------------------------------------------
# Figure 5 -- Tournament per-operation latency
# ---------------------------------------------------------------------------

FIG5_OPS = (
    "begin", "finish", "remove", "do_match", "enroll", "disenroll", "status",
)


def fig5_tournament_op_latency(
    clients_per_region: int = 8,
    duration_ms: float = 30_000.0,
    think_ms: float = 100.0,
) -> dict[str, dict[str, tuple[float, float]]]:
    """Mean latency (and stddev) per operation for Indigo/IPA/Causal.

    Returns ``{config: {op: (mean_ms, stddev_ms)}}``.
    """
    out: dict[str, dict[str, tuple[float, float]]] = {}
    for config in CONFIGS:
        if config.name == "Strong":
            continue  # the paper omits the Strong column in Figure 5
        sim, app, workload = build_tournament(config)
        result = run_closed_loop(
            sim,
            workload.issue,
            {region: clients_per_region for region in REGIONS},
            duration_ms=duration_ms,
            think_ms=think_ms,
        )
        out[config.name] = {
            op: (result.stats(op).mean, result.stats(op).stddev)
            for op in FIG5_OPS
        }
    return out


# ---------------------------------------------------------------------------
# Figure 6 -- Twitter strategies
# ---------------------------------------------------------------------------

FIG6_OPS = (
    "tweet", "retweet", "del_tweet", "follow", "unfollow",
    "add_user", "rem_user", "timeline",
)

FIG6_VARIANTS = (Variant.CAUSAL, Variant.ADD_WINS, Variant.REM_WINS)


def fig6_twitter_strategies(
    clients_per_region: int = 4,
    duration_ms: float = 30_000.0,
) -> dict[str, dict[str, float]]:
    """Mean per-operation latency per strategy.

    Returns ``{strategy: {op: mean_ms}}``.
    """
    out: dict[str, dict[str, float]] = {}
    for variant in FIG6_VARIANTS:
        sim, app, workload = build_twitter(variant)
        result = run_closed_loop(
            sim,
            workload.issue,
            {region: clients_per_region for region in REGIONS},
            duration_ms=duration_ms,
            think_ms=50.0,
        )
        out[variant.value] = {
            op: result.stats(op).mean for op in FIG6_OPS
        }
    return out


# ---------------------------------------------------------------------------
# Figure 7 -- Ticket compensations under contention
# ---------------------------------------------------------------------------


def fig7_ticket_compensations(
    client_counts: tuple[int, ...] = (4, 8, 16, 32, 64),
    duration_ms: float = 20_000.0,
    warmup_ms: float = 2_000.0,
    sample_every_ms: float = 1_000.0,
    think_ms: float = 50.0,
) -> dict[str, list[tuple[int, float, float, float]]]:
    """Latency vs throughput, with observed invariant violations.

    Returns ``{variant: [(clients, throughput, mean_latency,
    avg_violations)]}`` -- the violations column is the red-dot series
    of Figure 7 (always ~0 for IPA).
    """
    out: dict[str, list[tuple[int, float, float, float]]] = {}
    for variant in (Variant.CAUSAL, Variant.IPA):
        points = []
        for clients in client_counts:
            sim, app, workload = build_ticket(variant)
            samples: list[float] = []

            def sample() -> None:
                total = sum(
                    app.count_violations(region) for region in REGIONS
                ) / len(REGIONS)
                samples.append(total)
                sim.schedule(sample_every_ms, sample)

            sim.schedule(warmup_ms, sample)
            result = run_closed_loop(
                sim,
                workload.issue,
                {region: clients for region in REGIONS},
                duration_ms=duration_ms,
                warmup_ms=warmup_ms,
                think_ms=think_ms,
            )
            window = samples[: max(1, int(duration_ms // sample_every_ms))]
            avg_violations = sum(window) / len(window) if window else 0.0
            points.append(
                (clients, result.throughput, result.stats().mean,
                 avg_violations)
            )
        out[variant.value] = points
    return out


# ---------------------------------------------------------------------------
# Figure 8 -- microbenchmarks: IPA/Strong speed-ups
# ---------------------------------------------------------------------------


def _measure_latency(
    mode: ConsistencyMode,
    reads: int,
    writes: list[tuple[str, int]],
    repetitions: int = 20,
) -> float:
    """Mean client latency of one synthetic operation, averaged over
    the three client regions (which is what makes Strong pay the
    forwarding round trip for two thirds of clients)."""
    registry = TypeRegistry()
    registry.register_prefix("obj:", AWSet)
    sim = Simulator()
    cluster = Cluster(sim, registry, mode=mode)
    latencies: list[float] = []
    sequence = [0]

    def body(txn) -> str:
        for _ in range(reads):
            txn.get("obj:read")
        for key, updates in writes:
            for index in range(updates):
                sequence[0] += 1
                txn.update(
                    f"obj:{key}",
                    lambda s, n=sequence[0]: s.prepare_add(n),
                )
        return "micro"

    for _ in range(repetitions):
        for region in REGIONS:
            start = sim.now

            def finish(_op, s=start):
                latencies.append(sim.now - s)

            cluster.submit(region, body, finish)
            sim.run(until=sim.now + 2_000.0)
    return sum(latencies) / len(latencies)


def fig8_micro_speedups(
    single_key_counts: tuple[int, ...] = (1, 2, 64, 128, 512, 1024, 2048),
    multi_key_counts: tuple[int, ...] = (1, 2, 4, 8, 16, 32, 64),
) -> dict[str, list[tuple[int, float]]]:
    """Speed-up of IPA (causal + extra updates) over Strong.

    Top plot: ``k`` updates on one key vs the original single-update
    operation on Strong.  Bottom plot: the original operation reads
    ``k`` objects and writes one (Strong); the modified one writes all
    ``k`` (IPA).  Returns ``{"single_key"|"multi_key": [(k, speedup)]}``.
    """
    strong_baseline = _measure_latency(
        ConsistencyMode.STRONG, reads=0, writes=[("k0", 1)]
    )
    single = []
    for count in single_key_counts:
        ipa = _measure_latency(
            ConsistencyMode.CAUSAL, reads=0, writes=[("k0", count)]
        )
        single.append((count, strong_baseline / ipa))
    multi = []
    for count in multi_key_counts:
        strong = _measure_latency(
            ConsistencyMode.STRONG, reads=count, writes=[("k0", 1)]
        )
        ipa = _measure_latency(
            ConsistencyMode.CAUSAL,
            reads=count,
            writes=[(f"k{i}", 1) for i in range(count)],
        )
        multi.append((count, strong / ipa))
    return {"single_key": single, "multi_key": multi}


# ---------------------------------------------------------------------------
# Figure 9 -- reservation contention
# ---------------------------------------------------------------------------


def fig9_reservation_contention(
    contention_percentages: tuple[int | None, ...] = (
        None, 0, 2, 5, 10, 20, 50,
    ),
    operations: int = 300,
) -> dict[str, list[tuple[str, float]]]:
    """Mean operation latency as reservation contention grows.

    The paper varies "the percentage of operations that compete to
    acquire some reservations": most operations take a *shared* grant
    of the object's reservation (held everywhere after a one-time
    exchange, so they execute locally), while the contending fraction
    needs the grant *exclusively* -- revoking it from every other
    replica, which must re-acquire afterwards.  ``None`` is the paper's
    "N/A" point: no reservations at all.  IPA runs the same operation
    with its extra updates and no reservations at every level.
    Returns ``{"IPA"|"Indigo": [(label, mean_latency_ms)]}``.
    """
    import random as _random

    out: dict[str, list[tuple[str, float]]] = {"IPA": [], "Indigo": []}
    for percentage in contention_percentages:
        label = "N/A" if percentage is None else str(percentage)
        for system in ("IPA", "Indigo"):
            registry = TypeRegistry()
            registry.register_prefix("obj:", AWSet)
            sim = Simulator()
            mode = (
                ConsistencyMode.INDIGO
                if system == "Indigo" and percentage is not None
                else ConsistencyMode.CAUSAL
            )
            cluster = Cluster(sim, registry, mode=mode)
            cluster.reservations.register("res:obj", REGIONS[0])
            rng = _random.Random(41)
            latencies: list[float] = []
            counter = [0]
            for index in range(operations):
                region = REGIONS[index % len(REGIONS)]
                exclusive = (
                    percentage is not None
                    and rng.random() * 100.0 < percentage
                )
                reservation: tuple[str, ...] = (
                    ("res:obj",)
                    if mode is ConsistencyMode.INDIGO
                    else ()
                )

                def body(txn) -> str:
                    counter[0] += 1
                    txn.update(
                        "obj:x",
                        lambda s, n=counter[0]: s.prepare_add(n),
                    )
                    if system == "IPA":
                        # The IPA operation pays for its extra updates
                        # instead of reservations.
                        counter[0] += 1
                        txn.update(
                            "obj:extra",
                            lambda s, n=counter[0]: s.prepare_add(n),
                        )
                    return "op"

                start = sim.now

                def finish(_op, s=start):
                    latencies.append(sim.now - s)

                cluster.submit(
                    region, body, finish,
                    reservations=reservation,
                    exclusive_reservations=exclusive,
                )
                sim.run(until=sim.now + 500.0)
            out[system].append(
                (label, sum(latencies) / len(latencies))
            )
    return out


# ---------------------------------------------------------------------------
# §5.1.3 -- analysis interactivity
# ---------------------------------------------------------------------------


@dataclass
class AnalysisTiming:
    application: str
    seconds: float
    rounds: int
    queries: int
    repaired: int
    compensations: int
    fully_resolved: bool
    solver_solves: int = 0
    cache_hits: int = 0
    fingerprint: str = ""


def analysis_speed(
    cache: "object | None" = None,
    cache_dir: "str | None" = None,
) -> list[AnalysisTiming]:
    """Wall-clock of the full IPA analysis per application (§5.1.3).

    ``cache``/``cache_dir`` are forwarded to
    :func:`~repro.analysis.run_ipa`; the returned timings carry each
    result's :meth:`~repro.analysis.IpaResult.fingerprint` so callers
    can assert that differently-configured runs agree.
    """
    from repro.analysis import run_ipa

    timings = []
    for name, spec in (
        ("tournament", tournament_spec()),
        ("ticket", ticket_spec()),
        ("twitter", twitter_spec()),
        ("tpcw", tpcw_spec()),
    ):
        started = monotonic()
        result = run_ipa(spec, cache=cache, cache_dir=cache_dir)
        timings.append(
            AnalysisTiming(
                application=name,
                seconds=monotonic() - started,
                rounds=result.rounds,
                queries=result.solver_queries,
                repaired=len(result.applied),
                compensations=len(result.compensations),
                fully_resolved=result.is_invariant_preserving,
                solver_solves=result.stats.solver_solves,
                cache_hits=result.stats.cache_hits,
                fingerprint=result.fingerprint(),
            )
        )
    return timings
