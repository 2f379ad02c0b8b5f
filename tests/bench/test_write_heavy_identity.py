"""Identity pin for the write-heavy tournament run (ISSUE 16).

Rem-wins reads answer from pruned state on the promise that nothing
observable moved.  This rebuilds the ledger benchmark's
``sim-write-heavy`` *smoke* recipe -- ``build_tournament`` with the
write mix at seed 23, 16 clients per region for 3 simulated seconds,
stability compaction driven by hand with the 150 ms lag ROADMAP gap (d)
forces -- and holds op count, simulator event count, replication
messages and the one converged state digest to the values recorded at
commit ee834ab, where reads still scanned.  The recipe is restated
here on purpose: ``benchmarks/`` is not importable from tier-1.
"""

from __future__ import annotations

import pytest

from repro.bench.configs import CONFIGS, build_tournament
from repro.sim.latency import REGIONS
from repro.sim.metrics import MetricsCollector
from repro.sim.runner import run_closed_loop

WRITE_MIX = {
    "status": 10.0, "enroll": 25.0, "disenroll": 20.0, "begin": 10.0,
    "finish": 10.0, "do_match": 20.0, "remove": 5.0,
}
STABILITY_MS = 1_000.0
STABILITY_LAG_MS = 150.0
SIM_MS = 3_000.0
CLIENTS = 16

#: config -> (ops, sim._seq, replication messages, digest), at ee834ab.
RECORDED = {
    "Causal": (
        1415, 6468, 368,
        "c6ac738023e26cdb3a9768f157cccbe7d44ab6556b911b9be810d5281714556f",
    ),
    "IPA": (
        1389, 6644, 510,
        "3fc81bd128a0db63e14b0c29734e7c46b1951d9d6262814076b1192c82d1cc28",
    ),
}


def run_write_heavy(config_name: str) -> tuple[int, int, int, str]:
    config = next(c for c in CONFIGS if c.name == config_name)
    sim, app, workload = build_tournament(
        config,
        n_players=500,
        n_tournaments=100,
        capacity=32,
        seed=23,
        jitter=0.0,
        batch_ms=25.0,
        mix=dict(WRITE_MIX),
        stability_interval_ms=None,
    )
    cluster = app.cluster
    replicas = [cluster.replica(region) for region in cluster.regions]

    def observe() -> None:
        sim.schedule(STABILITY_LAG_MS, compact, cluster.stable_vector())

    def compact(stable) -> None:
        for replica in replicas:
            replica.compact(stable)
            replica.compact_log(stable, min_records=1024)
        sim.schedule(STABILITY_MS - STABILITY_LAG_MS, observe)

    sim.schedule(STABILITY_MS - STABILITY_LAG_MS, observe)
    metrics = MetricsCollector(warmup_ms=sim.now, window_ms=SIM_MS)
    run_closed_loop(
        sim,
        workload.issue,
        {region: CLIENTS for region in REGIONS},
        duration_ms=SIM_MS,
        warmup_ms=0.0,
        think_ms=100.0,
        metrics=metrics,
    )
    assert cluster.run_until_converged() is not None
    (digest,) = set(cluster.state_digest().values())
    return (
        metrics.total_operations(),
        sim._seq,
        cluster.replication_messages,
        digest,
    )


@pytest.mark.parametrize("config_name", sorted(RECORDED))
def test_write_heavy_smoke_is_bit_identical(config_name):
    assert run_write_heavy(config_name) == RECORDED[config_name]
