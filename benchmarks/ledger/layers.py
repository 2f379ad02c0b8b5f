"""Per-layer metrics: read a traced run's ledger, plus two microbenches.

:func:`layer_metrics` turns one :class:`~shims.Ledger` (and the few
facts only the workload knows -- simulator event counts, bytes on
disk) into every name of :data:`metrics.PER_LAYER`.  A layer the
workload never entered reads 0; that is the point of the table -- the
layers separate by workload.

The CRDT numbers are an *isolated* microbench: prepare and effect are
timed on clones of objects harvested from the finished cluster (fresh
instances where the workload built no cluster), and the traced run's
per-type effect counts say how much each cost weighs.
"""

from __future__ import annotations

from repro import obs
from repro.crdts import (
    AWSet,
    BoundedCounter,
    CompensationSet,
    Dot,
    EventContext,
    LWWRegister,
    PNCounter,
    RWSet,
    VersionVector,
)
from repro.obs import monotonic, quantile
from repro.sim.latency import REGIONS

from metrics import PER_LAYER

#: kind -> (class, fresh instance, prepare given (obj, i)).
_CRDTS = {
    "awset": (AWSet, AWSet, lambda o, i: o.prepare_add(("bench", i))),
    "rwset": (RWSet, RWSet, lambda o, i: o.prepare_add(("bench", i))),
    "counter": (PNCounter, PNCounter, lambda o, i: o.prepare_add(1)),
    "bcounter": (
        BoundedCounter,
        BoundedCounter,
        lambda o, i: o.prepare_increment("bench", 1),
    ),
    "compset": (
        CompensationSet,
        lambda: CompensationSet(max_size=32),
        lambda o, i: o.prepare_add(("bench", i)),
    ),
    "lww": (LWWRegister, LWWRegister, lambda o, i: o.prepare_write(i)),
}

_MICRO_CALLS = 2_000
_MICRO_OBJECTS = 8


def _harvest(replica) -> dict[str, list]:
    """The replica's live objects, grouped by CRDT kind."""
    found: dict[str, list] = {kind: [] for kind in _CRDTS}
    if replica is None:
        return found
    for obj in replica.storage.objects():
        for kind, (cls, _fresh, _prepare) in _CRDTS.items():
            if type(obj) is cls:
                found[kind].append(obj)
    return found


def crdt_microbench(replica) -> dict[str, float]:
    """us per prepare / effect / read over harvested (or fresh) objects."""
    out: dict[str, float] = {}
    base = VersionVector(dict(replica.vv.entries)) if replica else (
        VersionVector()
    )
    read_s = 0.0
    reads = 0
    for kind, objects in _harvest(replica).items():
        _cls, fresh, prepare = _CRDTS[kind]
        targets = [obj.clone() for obj in objects[:_MICRO_OBJECTS]] or [
            fresh()
        ]
        per_object = max(1, _MICRO_CALLS // len(targets))
        prepare_s = effect_s = 0.0
        calls = 0
        for obj in targets:
            payloads = []
            started = monotonic()
            for i in range(per_object):
                payloads.append(prepare(obj, i))
            prepare_s += monotonic() - started
            contexts = []
            for i in range(per_object):
                vv = base.copy()
                vv.entries["bench"] = i + 1
                contexts.append(EventContext(Dot("bench", i + 1), vv))
            started = monotonic()
            for payload, ctx in zip(payloads, contexts):
                obj.effect(payload, ctx)
            effect_s += monotonic() - started
            calls += per_object
        out[f"crdts.{kind}.prepare.us_per_call"] = prepare_s / calls * 1e6
        out[f"crdts.{kind}.effect.us_per_call"] = effect_s / calls * 1e6
        for obj in objects[:_MICRO_OBJECTS]:
            started = monotonic()
            for _ in range(50):
                obj.value()
            read_s += monotonic() - started
            reads += 50
    out["crdts.read.us_per_call"] = read_s / reads * 1e6 if reads else 0.0
    return out


def disabled_span_ns(calls: int = 200_000) -> float:
    """Cost of one ``TRACER.span`` entry while tracing is off."""
    tracer = obs.Tracer(enabled=False)
    started = monotonic()
    for _ in range(calls):
        with tracer.span("bench.disabled"):
            pass
    spanned = monotonic() - started
    started = monotonic()
    for _ in range(calls):
        pass
    return max(0.0, spanned - (monotonic() - started)) / calls * 1e9


def _effect_counts(ledger) -> dict[str, int]:
    """Effects applied per CRDT kind: commits' updates x replicas.

    Every workload replicates to the same three regions, and every
    checked run converged, so each committed update was applied once
    per region.
    """
    return {
        kind: int(ledger.counts.get(f"effects:{cls.__name__}", 0))
        * len(REGIONS)
        for kind, (cls, _fresh, _prepare) in _CRDTS.items()
    }


def layer_metrics(
    ledger,
    extras: dict,
    registry_delta: dict[str, float],
    traced_wall_s: float,
    untraced_wall_s: float,
) -> dict[str, float]:
    """Every per-layer metric of one traced workload run.

    The two walls are the measured regions of the traced pass and of
    the untraced pass over the same inputs.
    """

    def per(name: str, divisor: float, self_time: bool = False) -> float:
        """Microseconds of ``name`` (total or self) per ``divisor``."""
        seconds = ledger.self_s(name) if self_time else ledger.total_s(name)
        return seconds / divisor * 1e6 if divisor else 0.0

    def per_call(name: str, self_time: bool = False) -> float:
        return per(name, ledger.calls(name), self_time=self_time)

    cluster = extras.get("cluster")
    replica = (
        cluster.replica(cluster.regions[0]) if cluster is not None else None
    )
    submits = ledger.calls("store.cluster.submit")
    app_ops = ledger.calls("apps.tournament.op")
    events = extras.get("sim_events", 0)
    frames = ledger.calls("net.wire.encode")
    appends = ledger.calls("net.commitlog.append")
    puts = ledger.calls("store.engine.put")
    proxy = ledger.elapsed.get("net.proxy.frame", (0, 0.0))
    gate_waits = ledger.samples.get("net.server.gate_wait_s", [])
    antientropy = (
        "store.antientropy.request",
        "store.antientropy.respond",
        "store.antientropy.apply",
    )
    wall = traced_wall_s
    out = {
        "solver.check.calls": ledger.calls("solver.check"),
        "solver.check.busy_s": ledger.total_s("solver.check"),
        "analysis.scan.busy_s": ledger.total_s("analysis.scan"),
        "analysis.repair.busy_s": ledger.total_s("analysis.repair"),
        "analysis.compensation.busy_s": ledger.total_s(
            "analysis.compensation"
        ),
        "analysis.cache.hits": registry_delta.get(
            "analysis.cache.memory_hits", 0
        ) + registry_delta.get("analysis.cache.disk_hits", 0),
        "analysis.cache.misses": registry_delta.get(
            "analysis.cache.misses", 0
        ),
        "analysis.cache.busy_s": ledger.total_s("analysis.cache"),
        "analysis.encoding.busy_s": ledger.total_s("analysis.encoding"),
        "sim.events.count": events,
        "sim.events.self_us_per_event": per(
            "sim.events", events, self_time=True
        ),
        "sim.network.messages": ledger.counts.get(
            "sim.network.messages", 0
        ),
        "store.cluster.replication_messages": extras.get(
            "replication_messages", 0
        ),
        "store.cluster.submit.self_us_per_op": (
            (ledger.self_s("store.cluster.submit")
             + ledger.self_s("store.txn")) / submits * 1e6
            if submits else 0.0
        ),
        "apps.tournament.op.self_us_per_op": per(
            "apps.tournament.op", app_ops, self_time=True
        ),
        "store.transaction.commit.us_per_txn": per_call(
            "store.transaction.commit"
        ),
        "store.replica.apply.us_per_record": per_call("store.replica.apply"),
        "store.replication.receive.us_per_record": per(
            "store.replication.receive", ledger.calls("store.replica.apply")
        ),
        "store.replication.pending_max": extras.get("pending_max", 0),
        "store.replica.compact.busy_s": ledger.total_s(
            "store.replica.compact"
        ),
        "store.engine.checkpoint.busy_s": ledger.total_s(
            "store.engine.checkpoint"
        ),
        "check.oracles.invariant.calls": ledger.calls(
            "check.oracles.invariant"
        ),
        "check.oracles.invariant.us_per_call": per_call(
            "check.oracles.invariant"
        ),
        "check.apps.extract.us_per_call": per_call("check.apps.extract"),
        "check.formula.evals": registry_delta.get("check.formula.evals", 0),
        "compile.cache.hits": registry_delta.get("compile.cache.hit", 0),
        "compile.cache.misses": registry_delta.get("compile.cache.miss", 0),
        "compile.build_ms": registry_delta.get("compile.build_ms", 0),
        "check.harness.trial.self_us": per_call(
            "check.harness.trial", self_time=True
        ),
        "store.antientropy.rounds": ledger.calls("store.antientropy.request"),
        "store.antientropy.busy_s": sum(
            ledger.total_s(name) for name in antientropy
        ),
        "store.conflicts.check.calls": ledger.calls("store.conflicts.check"),
        "store.conflicts.check.us_per_call": per_call(
            "store.conflicts.check"
        ),
        "store.conflicts.ledger.appends": ledger.calls(
            "store.conflicts.ledger"
        ),
        "store.conflicts.ledger.us_per_append": per_call(
            "store.conflicts.ledger"
        ),
        "net.wire.frames": frames,
        "net.wire.encode.us_per_frame": per_call("net.wire.encode"),
        "net.wire.decode.us_per_frame": per_call("net.wire.decode"),
        "net.wire.bytes_per_frame": (
            ledger.counts.get("net.wire.bytes", 0) / frames if frames else 0.0
        ),
        "net.commitlog.append.us_per_record": per_call(
            "net.commitlog.append"
        ),
        "net.commitlog.bytes_per_record": (
            extras.get("log_bytes", 0) / appends if appends else 0.0
        ),
        "net.commitlog.replay.us_per_record": per(
            "net.commitlog.replay",
            ledger.counts.get("net.commitlog.replayed_records", 0),
        ),
        "store.engine.get.us_per_call": per_call("store.engine.get"),
        "store.engine.put.us_per_call": per_call("store.engine.put"),
        "store.engine.sync.calls": ledger.calls("store.engine.sync"),
        "store.engine.sync.us_per_call": per_call("store.engine.sync"),
        "store.engine.bytes_per_put": (
            extras.get("store_bytes", 0) / puts if puts else 0.0
        ),
        "net.server.op.self_us": per_call("net.op", self_time=True),
        "net.server.apply.self_us": per_call("net.apply", self_time=True),
        "net.server.gate_wait_p50_ms": (
            quantile(sorted(gate_waits), 0.5) * 1000.0 if gate_waits else 0.0
        ),
        "net.proxy.frames": proxy[0],
        "net.proxy.us_per_frame": (
            proxy[1] / proxy[0] * 1e6 if proxy[0] else 0.0
        ),
        "net.client.op.attempts": extras.get("client_frames", 0),
        "obs.tracer.disabled_span_ns": disabled_span_ns(),
        "trace_overhead_pct": (
            (wall - untraced_wall_s) / untraced_wall_s * 100.0
            if untraced_wall_s else 0.0
        ),
        "unattributed_share": (
            1.0 - ledger.attributed_s() / wall if wall else 0.0
        ),
    }
    out.update(crdt_microbench(replica))
    for kind, n in _effect_counts(ledger).items():
        out[f"crdts.{kind}.effects"] = n
    missing = [name for name, _u, _b in PER_LAYER if name not in out]
    if missing:
        raise KeyError(f"per-layer metrics never computed: {missing}")
    return out
