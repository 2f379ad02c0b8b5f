"""Self-healing under combined failure: MTTR and 100%-repair proof.

The robustness tentpole's acceptance scenario, end to end: one live
3-region run in which

- the partition-crash plan SIGKILLs a replica mid-run (the supervisor,
  not the harness, detects and restarts it),
- the killed replica's commit log is bit-flipped *mid-file* while it
  is down (recovery must salvage-truncate and regenerate the suffix:
  own commits re-execute from the deployment spec, remote records
  re-arrive via broadcast and anti-entropy), and
- a small op parking-lot bound keeps the backpressure path armed (any
  shed is acked ``overloaded`` and retried by the fleet).

The run must still converge to the simulator's digests byte-for-byte.
The recorded MTTR (kill -> detected -> restarted -> schedule
converged) lands in ``BENCH_self_healing.json`` under
``observability.selfheal.mttr_s`` and is gated by
``check_regression.py --max-mttr-s``: supervised recovery that stops
converging within seconds of a kill is a regression, not noise.
"""

import asyncio

from repro.check.explorer import PLAN_KINDS, build_trial
from repro.net.harness import run_live
from repro.net.oracle import record_trial

SEED = 11
INDEX = 3  # partition-crash: one replica is SIGKILLed mid-run
N_OPS = 25
TIME_SCALE = 0.05
OVERLOAD_LIMIT = 2
MAX_MTTR_S = 15.0  # the local twin of check_regression --max-mttr-s


def test_self_healing_mttr(tmp_path, record_bench):
    assert PLAN_KINDS[INDEX % len(PLAN_KINDS)] == "partition-crash"
    spec = build_trial("tournament", "Causal", SEED, INDEX, n_ops=N_OPS)
    _, deployment = record_trial(spec)
    crashes = deployment["trial"]["plan"]["crashes"]
    assert len(crashes) == 1
    killed = crashes[0]["region"]

    report = asyncio.run(
        run_live(
            deployment,
            str(tmp_path),
            time_scale=TIME_SCALE,
            deadline_s=90.0,
            corrupt_regions=(killed,),
            overload_limit=OVERLOAD_LIMIT,
        )
    )
    assert report.ok, report.reason
    assert report.digest_match
    assert report.crashes == 1

    supervisor = report.supervisor
    assert supervisor["failure"] is None
    assert supervisor["restarts"] >= 1
    files = supervisor["corrupted_files"]
    assert any(path.endswith(".commitlog") for path in files), files
    incident = supervisor["incidents"][0]
    mttr_s = supervisor["mttr_s"]
    assert mttr_s is not None and mttr_s > 0

    killed_stats = report.servers[killed]
    # The killed replica restarted into a bit-flipped log: recovery
    # must have salvage-truncated instead of refusing to start.
    assert killed_stats.get("net.commitlog.salvaged") == 1

    sheds = report.client.get("client.sheds", 0)
    print()
    print(
        "Self-healing -- tournament Causal, %d ops, kill=%s"
        % (N_OPS, killed)
    )
    print(
        "  MTTR %6.2f s (detect %5.3f s, restart %5.3f s) | "
        "%d restart(s) | %d corrupted file(s) | "
        "%d salvage re-exec | %.0f shed(s)"
        % (
            mttr_s,
            incident["detect_s"],
            incident["restart_s"],
            supervisor["restarts"],
            len(files),
            killed_stats.get("net.ops.salvage_reexecuted", 0),
            sheds,
        )
    )

    record_bench(
        "serve_self_healing",
        wall_ms=report.wall_s * 1000.0,
        params={
            "app": "tournament",
            "variant": "Causal",
            "n_ops": N_OPS,
            "time_scale": TIME_SCALE,
            "plan_index": INDEX,
            "overload_limit": OVERLOAD_LIMIT,
        },
        observability={
            "selfheal": {
                "mttr_s": round(mttr_s, 4),
                "detect_s": round(incident["detect_s"], 4),
                "restart_s": round(incident["restart_s"], 4),
                "restarts": int(supervisor["restarts"]),
                "corrupted_files": len(files),
                "salvage_reexecuted": int(
                    killed_stats.get("net.ops.salvage_reexecuted", 0)
                ),
                "client_sheds": float(sheds),
            }
        },
    )

    assert mttr_s < MAX_MTTR_S
