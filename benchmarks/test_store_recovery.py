"""Crash recovery cost: snapshot + tail replay vs full log replay.

PR-3 made recovery two-phase -- restore the last in-memory snapshot,
then replay only the log tail beyond its vector.  The property that keeps
long-lived replicas restartable is that recovery cost tracks the
*tail*, not the whole history: with a checkpoint covering all but a
few percent of the log, ``rebuild_from_log`` must beat the full replay
by a clear factor.  This benchmark measures both paths on the same
workload and records ``store.recovery_speedup``, which
``check_regression.py --min-recovery-speedup`` gates in CI.

Shape asserted here:

- both recovery paths land on the byte-identical state digest;
- snapshot + tail is sublinear: the measured speedup clears the gate's
  default threshold with margin.
"""

from dataclasses import replace

from repro.bench.configs import CONFIGS, build_tournament
from repro.crdts.clock import VersionVector
from repro.obs import monotonic
from repro.sim.runner import run_closed_loop
from repro.store.cluster import replica_state_digest

SEED = 61
DURATION_MS = 20_000.0
CLIENTS_PER_REGION = 8
THINK_MS = 25.0
#: Fraction of each origin's commits left beyond the checkpoint.
TAIL_FRACTION = 0.05
ROUNDS = 3


def _build_loaded_replica():
    """One converged replica with a full, uncompacted commit log."""
    config = next(c for c in CONFIGS if c.name == "Causal")
    sim, app, workload = build_tournament(
        config,
        seed=SEED,
        jitter=0.0,
        stability_interval_ms=None,  # keep every record in the log
    )
    cluster = app.cluster
    clients = {region: CLIENTS_PER_REGION for region in cluster.regions}
    run_closed_loop(
        sim,
        workload.issue,
        clients,
        duration_ms=DURATION_MS,
        warmup_ms=0.0,
        think_ms=THINK_MS,
    )
    cluster.flush_replication()
    cluster.run_until_converged()
    return cluster, cluster.replica(sorted(cluster.regions)[0])


def _time_rebuild(replica) -> float:
    """Best-of-N wall ms for one ``rebuild_from_log`` recovery."""
    best = float("inf")
    for _ in range(ROUNDS):
        started = monotonic()
        replica.rebuild_from_log()
        elapsed = (monotonic() - started) * 1000.0
        best = min(best, elapsed)
    return best


def _tail_vector(replica) -> VersionVector:
    """A stable vector leaving ~TAIL_FRACTION of each origin's log."""
    entries = {}
    for origin, counter in replica.vv.entries.items():
        tail = max(1, int(counter * TAIL_FRACTION))
        entries[origin] = max(0, counter - tail)
    return VersionVector(entries)


def test_recovery_snapshot_vs_full_replay(record_bench):
    cluster, replica = _build_loaded_replica()
    digest_before = replica_state_digest(replica)
    full_log = len(replica.log)
    assert full_log > 500, "workload produced too few commits to time"

    # Phase 1: no snapshot exists, so recovery replays the whole log.
    full_ms = _time_rebuild(replica)
    assert replica_state_digest(replica) == digest_before

    # Phase 2: checkpoint everything but a small tail, then recover
    # again -- snapshot restore + tail replay.
    truncated = replica.compact_log(_tail_vector(replica), min_records=1)
    assert truncated > 0
    tail_log = len(replica.log)
    assert 0 < tail_log < full_log // 4
    tail_ms = _time_rebuild(replica)
    assert replica_state_digest(replica) == digest_before

    # wall_ms is the recovery cost under test, not the workload build
    # around it -- the build dominates total test time and is pure
    # noise on a loaded machine.
    speedup = full_ms / tail_ms if tail_ms > 0 else float("inf")
    record_bench(
        "store_recovery",
        wall_ms=full_ms,
        params={
            "seed": SEED,
            "commits": full_log,
            "tail_commits": tail_log,
        },
        observability={
            "store": {
                "full_replay_ms": round(full_ms, 3),
                "tail_replay_ms": round(tail_ms, 3),
                "recovery_speedup": round(speedup, 2),
            }
        },
    )

    print()
    print("Crash recovery -- %d commits, %d-record tail" % (full_log, tail_log))
    print(
        "  full replay %.1f ms | snapshot+tail %.1f ms | speedup x%.1f"
        % (full_ms, tail_ms, speedup)
    )

    # Sublinear recovery: the tail path must clearly beat full replay.
    # (The CI gate re-checks this figure from the JSON summary.)
    assert speedup > 1.5, (full_ms, tail_ms)
