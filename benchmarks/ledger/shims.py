"""Benchmark-side tracing: a span ledger plus class-level timing shims.

The traced run measures layers *from outside*: every shim wraps a
public entry point of one layer (``wire.encode_body``,
``CommitLog.append``, ``Replica.commit``, ...) at class or module
level, so nothing under ``src/`` changes.  Wrappers are installed
before any object of the workload is built -- hot loops hoist bound
methods (``Replica._store_get``, the receiver's ``apply_ready``), and
a hoisted reference taken before the patch would bypass it -- and
removed on exit, restoring the exact original attribute objects.

All spans, the shims' and the program's own ``repro.obs`` spans
alike, land in one :class:`Ledger`: a stack of open frames gives each
span its parent, and a span's *self time* is its duration minus the
time its children covered.  Self times therefore partition the traced
wall clock; whatever no span covers is reported as unattributed.

Only :func:`repro.obs.monotonic` is used as a clock.
"""

from __future__ import annotations

import importlib
from contextlib import contextmanager

from repro import obs
from repro.obs import monotonic

#: ``repro.obs`` spans that stay open across an ``await``: other tasks
#: run inside them, so they cannot sit on the self-time stack and are
#: kept as plain elapsed totals instead.
ASYNC_SPANS = frozenset({"net.client.op", "net.sync.round"})


class Ledger:
    """In-memory spans with on-the-fly self-time accounting.

    ``totals[name]`` is ``[calls, total_s, self_s]``.  The first
    ``keep`` closed spans are also retained whole -- ``(id, parent id,
    name, start, end, op)`` -- and written out when the workload ends;
    aggregation never depends on the retained sample.  ``on`` gates
    recording to the measured regions (the workload's ``Run`` flips
    it), so set-up work under an installed shim costs one branch and
    records nothing.
    """

    def __init__(self, keep: int = 100_000) -> None:
        self.on = False
        self.keep = keep
        self.totals: dict[str, list] = {}
        self.elapsed: dict[str, list] = {}  # name -> [calls, total_s]
        self.counts: dict[str, float] = {}
        self.samples: dict[str, list[float]] = {}
        self.marks: dict = {}
        self.spans: list[tuple] = []
        self._stack: list[list] = []
        self._open_obs: dict[int, list] = {}
        self._next_id = 0

    # -- spans ---------------------------------------------------------------

    def enter(self, name: str, op: str | None = None) -> list:
        stack = self._stack
        if op is None and stack:
            op = stack[-1][4]
        frame = [name, monotonic(), 0.0, self._next_id, op]
        self._next_id += 1
        stack.append(frame)
        return frame

    def exit(self, frame: list) -> None:
        end = monotonic()
        stack = self._stack
        # A start()/end() span abandoned by an exception never closes;
        # close anything still open above ``frame`` with it.
        while stack:
            top = stack.pop()
            self._close(top, end)
            if top is frame:
                return

    def _close(self, frame: list, end: float) -> None:
        name, start, child_s, span_id, op = frame
        duration = end - start
        total = self.totals.get(name)
        if total is None:
            total = self.totals[name] = [0, 0.0, 0.0]
        total[0] += 1
        total[1] += duration
        total[2] += duration - child_s
        stack = self._stack
        parent_id = -1
        if stack:
            parent = stack[-1]
            parent[2] += duration
            parent_id = parent[3]
        if len(self.spans) < self.keep:
            self.spans.append((span_id, parent_id, name, start, end, op))

    @contextmanager
    def span(self, name: str, op: str | None = None):
        """A benchmark-side span around a call the benchmark makes."""
        if not self.on:
            yield
            return
        frame = self.enter(name, op)
        try:
            yield
        finally:
            self.exit(frame)

    # -- plain counters ------------------------------------------------------

    def add(self, name: str, amount: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def add_elapsed(self, name: str, seconds: float) -> None:
        entry = self.elapsed.get(name)
        if entry is None:
            entry = self.elapsed[name] = [0, 0.0]
        entry[0] += 1
        entry[1] += seconds

    # -- reading -------------------------------------------------------------

    def calls(self, name: str) -> int:
        return self.totals.get(name, (0, 0.0, 0.0))[0]

    def total_s(self, name: str) -> float:
        return self.totals.get(name, (0, 0.0, 0.0))[1]

    def self_s(self, name: str) -> float:
        return self.totals.get(name, (0, 0.0, 0.0))[2]

    def attributed_s(self) -> float:
        return sum(total[2] for total in self.totals.values())

    def layer_table(self, wall_s: float) -> list[dict]:
        """Per-span rows sorted by self-time share of the traced wall."""
        wall = wall_s or 1.0
        rows = [
            {
                "span": name,
                "calls": calls,
                "total_s": total_s,
                "self_s": self_s,
                "self_share": self_s / wall,
            }
            for name, (calls, total_s, self_s) in self.totals.items()
        ]
        rows.sort(key=lambda row: (-row["self_s"], row["span"]))
        return rows


# -- wrappers ----------------------------------------------------------------


def _timed(ledger: Ledger, name: str, fn, note=None):
    """``fn`` as a span on the ledger's stack; ``note(ledger, args, result)``
    runs after a successful call (byte counts, tallies)."""

    def wrapper(*args, **kwargs):
        if not ledger.on:
            return fn(*args, **kwargs)
        frame = ledger.enter(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            ledger.exit(frame)
        if note is not None:
            note(ledger, args, result)
        return result

    wrapper.__wrapped__ = fn
    return wrapper


def _counted(ledger: Ledger, name: str, fn, note=None):
    """Count calls without timing them (too hot to time honestly)."""

    def wrapper(*args, **kwargs):
        if ledger.on:
            ledger.add(name)
        return fn(*args, **kwargs)

    wrapper.__wrapped__ = fn
    return wrapper


def _elapsed_async(ledger: Ledger, name: str, fn, note=None):
    """A coroutine function's elapsed time (awaits included).

    Other tasks run while it is suspended, so it cannot be a frame on
    the self-time stack; it is reported as elapsed per call only.
    """

    async def wrapper(*args, **kwargs):
        if not ledger.on:
            return await fn(*args, **kwargs)
        if note is not None:
            note(ledger, args, None)
        started = monotonic()
        try:
            return await fn(*args, **kwargs)
        finally:
            ledger.add_elapsed(name, monotonic() - started)

    wrapper.__wrapped__ = fn
    return wrapper


def _with_timed_body(ledger: Ledger, name: str, fn, note=None):
    """``submit(self, region, body, done, ...)`` with ``body`` timed too.

    The transaction body is application code that the store runs
    later (inside ``store.txn`` / ``net.op``); wrapping it here is what
    separates ``apps.<app>.op`` self time from the store's.
    """
    span_names: dict[str, str] = {}

    def wrapper(self, region, body, done, *args, **kwargs):
        if not ledger.on:
            return fn(self, region, body, done, *args, **kwargs)
        module = getattr(body, "__module__", None) or "unknown"
        body_span = span_names.get(module)
        if body_span is None:
            body_span = span_names[module] = (
                f"apps.{module.rsplit('.', 1)[-1]}.op"
            )
        frame = ledger.enter(name)
        try:
            return fn(
                self, region, _timed(ledger, body_span, body), done,
                *args, **kwargs,
            )
        finally:
            ledger.exit(frame)

    wrapper.__wrapped__ = fn
    return wrapper


def _note_wire_bytes(ledger: Ledger, args, result) -> None:
    ledger.add("net.wire.bytes", len(result))


def _note_commit_updates(ledger: Ledger, args, result) -> None:
    # Effects per CRDT class: args[0] is the committing replica, and
    # the object is read straight from its shard map (not through
    # ``ShardedStore.get``, which is itself a measured layer).
    store = args[0].storage
    counts = ledger.counts
    for key, _payload in result.updates:
        shard = store.ring.shard_of(key) if store.n_shards > 1 else 0
        tag = "effects:" + type(store.maps[shard].get(key)).__name__
        counts[tag] = counts.get(tag, 0) + 1


def _note_replayed(ledger: Ledger, args, result) -> None:
    ledger.add("net.commitlog.replayed_records", len(result))


def _note_op_offered(ledger: Ledger, args, result) -> None:
    # args = (engine, index, respond): first arrival of a client op at
    # its server; the matching net.op span start closes the gate wait.
    ledger.marks.setdefault(args[1], monotonic())


#: (owner, attribute, span or counter name, wrapper, note).  ``owner``
#: is ``module`` or ``module:Class``.  A name imported *by value* into
#: another module is patched where it is looked up (the
#: ``repro.analysis.conflicts`` rows).
SHIMS = (
    ("repro.sim.events:Simulator", "run", "sim.events", _timed, None),
    ("repro.sim.network:Network", "send", "sim.network.messages",
     _counted, None),
    ("repro.store.cluster:Cluster", "submit", "store.cluster.submit",
     _with_timed_body, None),
    ("repro.store.transaction:Transaction", "commit",
     "store.transaction.commit", _timed, None),
    ("repro.store.replica:Replica", "commit", "store.replica.commit",
     _timed, _note_commit_updates),
    ("repro.store.replica:Replica", "apply_ready", "store.replica.apply",
     _timed, None),
    ("repro.store.replica:Replica", "apply_remote", "store.replica.apply",
     _timed, None),
    ("repro.store.replica:Replica", "compact", "store.replica.compact",
     _timed, None),
    ("repro.store.replica:Replica", "compact_log", "store.replica.compact",
     _timed, None),
    ("repro.store.replication:CausalReceiver", "receive",
     "store.replication.receive", _timed, None),
    ("repro.store.replication:CausalReceiver", "receive_batch",
     "store.replication.receive", _timed, None),
    ("repro.store.antientropy:AntiEntropyEngine", "_send_request",
     "store.antientropy.request", _timed, None),
    ("repro.store.engine:ShardedStore", "get", "store.engine.get",
     _timed, None),
    ("repro.store.engine:ShardedStore", "sync", "store.engine.sync",
     _timed, None),
    ("repro.store.engine:ShardedStore", "checkpoint",
     "store.engine.checkpoint", _timed, None),
    ("repro.store.engine:MemoryEngine", "put", "store.engine.put",
     _timed, None),
    ("repro.store.engine:FileEngine", "put", "store.engine.put",
     _timed, None),
    ("repro.store.engine:SqliteEngine", "put", "store.engine.put",
     _timed, None),
    ("repro.store.conflicts:ConflictDetector", "check",
     "store.conflicts.check", _timed, None),
    ("repro.store.conflicts:ConflictLedger", "append",
     "store.conflicts.ledger", _timed, None),
    ("repro.check.oracles:InvariantOracle", "check",
     "check.oracles.invariant", _timed, None),
    ("repro.check.apps:TournamentAdapter", "extract",
     "check.apps.extract", _timed, None),
    ("repro.check.apps:TicketAdapter", "extract",
     "check.apps.extract", _timed, None),
    ("repro.check.apps:TpcwAdapter", "extract",
     "check.apps.extract", _timed, None),
    ("repro.check.apps:TwitterAdapter", "extract",
     "check.apps.extract", _timed, None),
    ("repro.net.wire", "encode_body", "net.wire.encode",
     _timed, _note_wire_bytes),
    ("repro.net.wire", "load_frame", "net.wire.decode", _timed, None),
    ("repro.net.commitlog:CommitLog", "append", "net.commitlog.append",
     _timed, None),
    ("repro.net.commitlog:ShardedCommitLog", "replay",
     "net.commitlog.replay", _timed, _note_replayed),
    ("repro.net.server:LiveNode", "submit", "net.server.submit",
     _with_timed_body, None),
    ("repro.net.server:ScheduleEngine", "offer_op", "net.server.offer_op",
     _elapsed_async, _note_op_offered),
    ("repro.net.proxy:ChaosLink", "_judge", "net.proxy.frame",
     _elapsed_async, None),
    ("repro.analysis.cache:SolverCache", "get", "analysis.cache",
     _timed, None),
    ("repro.analysis.cache:SolverCache", "put", "analysis.cache",
     _timed, None),
    ("repro.analysis.encoding:GroundEffects", "from_effects",
     "analysis.encoding", _timed, None),
    ("repro.analysis.conflicts", "single_state_constraints",
     "analysis.encoding", _timed, None),
    ("repro.analysis.conflicts", "merged_state_constraints",
     "analysis.encoding", _timed, None),
    ("repro.analysis.conflicts", "rename_formula",
     "analysis.encoding", _timed, None),
)


def _resolve(owner: str):
    module_name, _, class_name = owner.partition(":")
    target = importlib.import_module(module_name)
    return getattr(target, class_name) if class_name else target


def _obs_hooks(ledger: Ledger):
    """Route the program's own ``repro.obs`` spans into the ledger.

    ``Span.__init__`` opens a frame, ``Tracer._close`` closes it, and
    ``Tracer._record`` (now reached by instants only) just counts: the
    ledger is the one in-memory sink, so a half-million-op simulation
    does not also grow the tracer's span list.
    """
    span_init = obs.Span.__init__

    def init(self, tracer, name, attrs):
        span_init(self, tracer, name, attrs)
        if not ledger.on or name in ASYNC_SPANS:
            return
        op = attrs.get("flow_in") or attrs.get("flow_out")
        ledger._open_obs[id(self)] = ledger.enter(name, op)
        if name == "net.op":
            offered = ledger.marks.pop(attrs.get("index"), None)
            if offered is not None:
                ledger.samples.setdefault(
                    "net.server.gate_wait_s", []
                ).append(monotonic() - offered)

    def close(self, span):
        frame = ledger._open_obs.pop(id(span), None)
        if frame is not None:
            ledger.exit(frame)
        elif ledger.on:
            ledger.add_elapsed(span.name, monotonic() - span._start)

    def record(self, record):
        if ledger.on:
            ledger.add("instant:" + record.name)

    return (
        (obs.Span, "__init__", init),
        (obs.Tracer, "_close", close),
        (obs.Tracer, "_record", record),
    )


def install(ledger: Ledger) -> list[tuple]:
    """Patch every shim in; returns what :func:`remove` needs."""
    saved: list[tuple] = []
    for owner_name, attr, name, make, note in SHIMS:
        owner = _resolve(owner_name)
        original = vars(owner)[attr]
        if isinstance(original, classmethod):
            patched = classmethod(
                make(ledger, name, original.__func__, note)
            )
        else:
            patched = make(ledger, name, original, note)
        saved.append((owner, attr, original))
        setattr(owner, attr, patched)
    for owner, attr, patched in _obs_hooks(ledger):
        saved.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, patched)
    return saved


def remove(saved: list[tuple]) -> None:
    """Restore the exact attribute objects :func:`install` replaced."""
    for owner, attr, original in reversed(saved):
        setattr(owner, attr, original)


@contextmanager
def tracing(ledger: Ledger, spool_dir: str):
    """Shims in and ``repro.obs`` enabled for the duration of the block."""
    saved = install(ledger)
    obs.configure(enabled=True, spool_dir=spool_dir)
    try:
        yield ledger
    finally:
        obs.configure(enabled=False)
        remove(saved)
