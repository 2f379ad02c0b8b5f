"""The ledger's metric catalogue: every name, unit and bound in one place.

Three tables, all plain data:

- :data:`CONTRACT` -- the end-to-end metrics ``BENCHMARK.json``
  declares.  The driver requires *every* workload to report *every*
  declared metric, so these are role-named: each workload measures two
  passes over one set of inputs and reports each pass as work units
  per wall second.
- :data:`NAMED` -- the twelve workload-specific end-to-end metrics
  (``analyze_cold_s``, ``live_ack_p99_ms``, ...) the report prints by
  name; :data:`PASSES` says which named measurement fills which
  contract slot on which workload.
- :data:`PER_LAYER` -- the traced run's per-layer metrics.

``run.py`` prints from these tables, the smoke test checks
``BENCHMARK.json`` against them, and nothing else defines a name.
"""

from __future__ import annotations

WORKLOAD_NAMES = (
    "analyze",
    "sim-paper-mix",
    "sim-write-heavy",
    "check-sweep",
    "live-replay",
)

#: (name, unit, better, bound): what BENCHMARK.json's ``end_to_end``
#: holds.  ``bound`` is the share of the parent's median by which the
#: metric may worsen before a change counts as a regression.
CONTRACT = (
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.10),
    ("pass1_per_s", "1/s", "higher", 0.25),
    ("pass2_per_s", "1/s", "higher", 0.25),
)

#: workload -> the named measurements that fill ``pass1_per_s`` and
#: ``pass2_per_s``: both passes run over one set of inputs, and each
#: is reported as units of work per wall second.
PASSES = {
    "analyze": ("analyze_cold_queries_per_s", "analyze_warm_queries_per_s"),
    "sim-paper-mix": ("sim_causal_ops_per_s", "sim_ipa_ops_per_s"),
    "sim-write-heavy": ("sim_causal_ops_per_s", "sim_ipa_ops_per_s"),
    "check-sweep": ("check_causal_trials_per_s", "check_ipa_trials_per_s"),
    "live-replay": ("live_ops_per_s", "live_recovery_records_per_s"),
}

_SIMS = ("sim-paper-mix", "sim-write-heavy")

#: (name, unit, better, bound, workloads): the twelve named end-to-end
#: metrics of the report.  Bounds are three times the widest spread
#: measured over two sets of ten seeds (README), capped at 25 %: the
#: sandbox's own drift is wider than the 10 % the issue hoped for.
#: Disk bytes are compared on one seed, where they repeat to 0.01 %.
NAMED = (
    ("setup_s", "s", "lower", 0.25, WORKLOAD_NAMES),
    ("peak_rss_mb", "MB", "lower", 0.10, WORKLOAD_NAMES),
    ("analyze_cold_s", "s", "lower", 0.25, ("analyze",)),
    ("analyze_warm_s", "s", "lower", 0.25, ("analyze",)),
    ("sim_causal_ops_per_s", "1/s", "higher", 0.25, _SIMS),
    ("sim_ipa_ops_per_s", "1/s", "higher", 0.25, _SIMS),
    ("check_trials_per_s", "1/s", "higher", 0.25, ("check-sweep",)),
    ("live_ops_per_s", "1/s", "higher", 0.25, ("live-replay",)),
    ("live_ack_p50_ms", "ms", "lower", 0.25, ("live-replay",)),
    ("live_ack_p99_ms", "ms", "lower", 0.25, ("live-replay",)),
    ("live_recovery_s", "s", "lower", 0.25, ("live-replay",)),
    ("live_disk_bytes_per_op", "B", "lower", 0.01, ("live-replay",)),
)

_CRDT_TYPES = ("awset", "rwset", "counter", "bcounter", "compset", "lww")

#: (name, unit, better): the traced run's per-layer metrics.  Counts
#: marked exact in the README repeat bit-for-bit on one seed.
PER_LAYER = (
    # analysis + solver -> analyze_cold_s / analyze_warm_s
    ("solver.check.calls", "count", "lower"),
    ("solver.check.busy_s", "s", "lower"),
    ("analysis.scan.busy_s", "s", "lower"),
    ("analysis.repair.busy_s", "s", "lower"),
    ("analysis.compensation.busy_s", "s", "lower"),
    ("analysis.cache.hits", "count", "higher"),
    ("analysis.cache.misses", "count", "lower"),
    ("analysis.cache.busy_s", "s", "lower"),
    ("analysis.encoding.busy_s", "s", "lower"),
    # simulator + store -> sim_*_ops_per_s
    ("sim.events.count", "count", "lower"),
    ("sim.events.self_us_per_event", "us", "lower"),
    ("sim.network.messages", "count", "lower"),
    ("store.cluster.replication_messages", "count", "lower"),
    ("store.cluster.submit.self_us_per_op", "us", "lower"),
    ("apps.tournament.op.self_us_per_op", "us", "lower"),
    ("store.transaction.commit.us_per_txn", "us", "lower"),
    ("store.replica.apply.us_per_record", "us", "lower"),
    ("store.replication.receive.us_per_record", "us", "lower"),
    ("store.replication.pending_max", "count", "lower"),
    ("store.replica.compact.busy_s", "s", "lower"),
    ("store.engine.checkpoint.busy_s", "s", "lower"),
    # CRDT microbench, weighted by the traced effect counts
    *(
        (f"crdts.{kind}.{part}", unit, "lower")
        for kind in _CRDT_TYPES
        for part, unit in (
            ("prepare.us_per_call", "us"),
            ("effect.us_per_call", "us"),
            ("effects", "count"),
        )
    ),
    ("crdts.read.us_per_call", "us", "lower"),
    # checker -> check_trials_per_s (first three also live_ops_per_s)
    ("check.oracles.invariant.calls", "count", "lower"),
    ("check.oracles.invariant.us_per_call", "us", "lower"),
    ("check.apps.extract.us_per_call", "us", "lower"),
    ("check.formula.evals", "count", "lower"),
    ("compile.cache.hits", "count", "higher"),
    ("compile.cache.misses", "count", "lower"),
    ("compile.build_ms", "ms", "lower"),
    ("check.harness.trial.self_us", "us", "lower"),
    ("store.antientropy.rounds", "count", "lower"),
    ("store.antientropy.busy_s", "s", "lower"),
    # live fleet -> live_*
    ("store.conflicts.check.calls", "count", "lower"),
    ("store.conflicts.check.us_per_call", "us", "lower"),
    ("store.conflicts.ledger.appends", "count", "lower"),
    ("store.conflicts.ledger.us_per_append", "us", "lower"),
    ("net.wire.frames", "count", "lower"),
    ("net.wire.encode.us_per_frame", "us", "lower"),
    ("net.wire.decode.us_per_frame", "us", "lower"),
    ("net.wire.bytes_per_frame", "B", "lower"),
    ("net.commitlog.append.us_per_record", "us", "lower"),
    ("net.commitlog.bytes_per_record", "B", "lower"),
    ("net.commitlog.replay.us_per_record", "us", "lower"),
    ("store.engine.get.us_per_call", "us", "lower"),
    ("store.engine.put.us_per_call", "us", "lower"),
    ("store.engine.sync.calls", "count", "lower"),
    ("store.engine.sync.us_per_call", "us", "lower"),
    ("store.engine.bytes_per_put", "B", "lower"),
    ("net.server.op.self_us", "us", "lower"),
    ("net.server.apply.self_us", "us", "lower"),
    ("net.server.gate_wait_p50_ms", "ms", "lower"),
    ("net.proxy.frames", "count", "lower"),
    ("net.proxy.us_per_frame", "us", "lower"),
    ("net.client.op.attempts", "count", "lower"),
    # the tracing plane itself
    ("obs.tracer.disabled_span_ns", "ns", "lower"),
    ("trace_overhead_pct", "%", "lower"),
    ("unattributed_share", "1", "lower"),
)


def benchmark_json(command: list[str], run_seconds: int, whys: dict) -> dict:
    """The BENCHMARK.json document these tables describe."""
    return {
        "command": command,
        "paths": ["benchmarks/ledger"],
        "run_seconds": run_seconds,
        "workloads": [
            {"name": name, "why": whys[name]} for name in WORKLOAD_NAMES
        ],
        "end_to_end": [
            {"name": name, "unit": unit, "better": better, "bound": bound}
            for name, unit, better, bound in CONTRACT
        ],
        "per_layer": [
            {"name": name, "unit": unit, "better": better}
            for name, unit, better in PER_LAYER
        ],
    }
