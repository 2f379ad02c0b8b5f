"""The asyncio replica server: one live process per region.

A :class:`ReplicaServer` wraps the simulator's
:class:`~repro.store.replica.Replica` behind real TCP listeners: a
*peer* port receiving replication broadcasts and anti-entropy frames
from the other regions (normally through a chaos proxy,
:mod:`repro.net.proxy`), and a *client* port receiving operations from
the closed-loop fleet (:mod:`repro.net.client`).  Every record the
replica applies -- its own commits and remote records alike -- is
appended to a durable :mod:`commit log <repro.net.commitlog>` before
anything is acknowledged, so a SIGKILL'd server restarts into exactly
the state durability promised.

Execution is gated on the simulator-recorded schedule
(:mod:`repro.net.oracle`): the :class:`ScheduleEngine` walks its
replica's recorded event order and *waits*, at each step, for the live
world to produce what the simulation produced -- the next remote
record (delivered by sockets under chaos, retransmitted by
anti-entropy) or the next client operation (delivered by the fleet
with retries).  The simulator's :class:`~repro.store.replication.CausalReceiver`
applies records *eagerly* as they become causally ready; the live
engine deliberately replaces that policy with the gate, because an
eager apply squeezed between two operations would change what the
operations' prepares observe and break byte-equivalence with the
recorded run.  Causality still holds -- the recorded order is a causal
order, asserted by :meth:`~repro.store.replica.Replica.apply_remote`
on every application.

Operations the simulation executed without committing are nil-effect
by construction; the engine re-executes them from the deployment spec
itself rather than waiting for a client send, so a crash between
"executed" and "acknowledged" can never deadlock a restart (the repeat
execution is deterministic and changes nothing).
"""

from __future__ import annotations

import asyncio
import os
import time
import weakref
import zlib
from typing import Any, Callable

from repro.check.apps import ADAPTERS, resolve_config
from repro.check.harness import TrialSpec
from repro.errors import ReproError, StoreError
from repro.net import commitlog, wire
from repro.net.health import CircuitBreaker, FailureDetector, HintQueue
from repro.net.retry import RetryPolicy
from repro.obs import REGISTRY, TRACER
from repro.store.cluster import replica_state_digest
from repro.store.conflicts import ConflictDetector, ConflictLedger
from repro.store.replica import Replica
from repro.store.transaction import CommitRecord


class ServeError(ReproError):
    """A live server cannot follow its recorded schedule."""


#: Cap on records per anti-entropy response frame (bounds frame size;
#: the requester's next round fetches the rest).
SYNC_BATCH_LIMIT = 512

#: Hinted-handoff records kept per down peer.
HINT_LIMIT = 512

#: Base interval of each peer's anti-entropy pull, before back-off.
ANTIENTROPY_MS = 50.0

#: Heartbeat cadence feeding each server's failure detector.
HEARTBEAT_MS = 25.0

_handoff_queued = REGISTRY.counter("net.handoff.queued")
_handoff_replayed = REGISTRY.counter("net.handoff.replayed")
_handoff_dropped = REGISTRY.counter("net.handoff.dropped")
_overload_ops = REGISTRY.counter("net.overload.shed_ops")


class Broadcast:
    """One message queued for every peer, encoded on first send only.

    A commit's replication message is the same for each peer, so the
    first outbound link to send it lowers it through the codec and
    every other link writes those bytes.  ``message`` stays available
    for whatever needs the dict itself -- a hint for a down peer.
    """

    __slots__ = ("message", "_frame")

    def __init__(self, message: dict) -> None:
        self.message = message
        self._frame: bytes | None = None

    def frame(self) -> bytes:
        if self._frame is None:
            self._frame = wire.dump_frame(self.message)
        return self._frame


async def send(writer, item: "dict | Broadcast") -> None:
    """Write one outbound queue item as a frame and drain."""
    if type(item) is Broadcast:
        writer.write(item.frame())
        await writer.drain()
    else:
        await wire.write_frame(writer, item)


def epoch_clock(epoch_unix_ms: float) -> Callable[[], float]:
    """Milliseconds since a deployment's shared epoch.

    Cross-process comparable (all servers share the epoch via the
    topology file), which is what the convergence-lag gauge needs.  A
    plain closure rather than a server method, so the replica that
    stamps commits with it holds no reference back to its server.
    """

    def now_ms() -> float:
        return time.time() * 1000.0 - epoch_unix_ms

    return now_ms


class LiveNode:
    """The cluster-shaped surface one live replica offers its app.

    Applications are written against :class:`~repro.store.cluster.Cluster`
    (``submit`` / ``replica`` / ``settle``); a live region serves the
    same surface from a single local replica.  ``submit`` runs the
    transaction synchronously -- the schedule engine already did the
    waiting -- then hands the commit record to the server for durable
    append + broadcast before the ``done`` callback fires.

    ``setup_skip`` supports crash-during-setup recovery: the first N
    setup submits are skipped (their commits are already durable and
    were replayed from the log), and the remainder re-execute exactly
    as first time -- setup submits are deterministic and strictly
    ordered.
    """

    sim = None  # apps never touch it; the attribute mirrors Cluster

    def __init__(
        self,
        region,
        registry,
        now_ms,
        on_commit,
    ) -> None:
        self.region_id = region
        self.store = Replica(region, registry, now=now_ms)
        self._on_commit = on_commit
        self.setup_skip = 0

    def submit(
        self,
        region,
        body,
        done,
        is_update: bool = True,
        reservations: tuple[str, ...] = (),
        exclusive_reservations: bool = True,
    ) -> None:
        if region != self.region_id:
            raise StoreError(
                f"live node {self.region_id!r} cannot execute for "
                f"{region!r}"
            )
        # ``reservations`` mirrors Cluster.submit's signature; under
        # causal mode the cluster ignores them (they only matter to
        # Indigo, which live replay rejects at record time), so the
        # live node ignores them too.
        if self.setup_skip > 0:
            self.setup_skip -= 1
            done("setup")
            return
        txn = self.store.begin()
        label = body(txn)
        record = txn.commit()
        if record is not None:
            self._on_commit(record)
        done(label)

    def replica(self, region) -> Replica:
        if region != self.region_id:
            raise StoreError(
                f"live node {self.region_id!r} has no replica for "
                f"{region!r}"
            )
        return self.store

    def settle(self, slack_ms: float = 0.0) -> None:
        """No-op: live replication is push-based and gated downstream."""


def resume_position(schedule: list[dict], replica: Replica) -> int:
    """First schedule step not provably durable after log replay.

    Applies, commits and setup are provable from the version vector;
    non-committing operations are not, but re-executing one is a
    deterministic nil-effect, so resuming after the *last* provable
    step is always safe.
    """
    vv = replica.vv
    own = replica.replica_id
    last_done = -1
    for index, step in enumerate(schedule):
        kind = step["kind"]
        if kind == "apply":
            if vv.get(step["origin"]) >= step["counter"]:
                last_done = index
        elif kind == "setup":
            if vv.get(own) >= step["commits"]:
                last_done = index
        elif step["commits"]:
            if vv.get(own) >= step["counter"]:
                last_done = index
    return last_done + 1


class ScheduleEngine:
    """Walks one replica's recorded schedule, gating on live inputs."""

    def __init__(
        self,
        server: "ReplicaServer",
        schedule: list[dict],
        ops: list[dict],
        salvaged: bool = False,
    ) -> None:
        self._server = server
        self.schedule = schedule
        self._ops = ops
        #: Recovery truncated *acknowledged* history out of the log.
        #: The fleet never resends an op it already saw acked, so
        #: committing op steps may never be offered again -- the gate
        #: must self-execute them from the deployment spec instead of
        #: deadlocking (see :meth:`_run_op`).
        self.salvaged = salvaged
        self._cond = asyncio.Condition()
        self._records: dict[tuple[str, int], CommitRecord] = {}
        self._op_waiting: dict[int, Any] = {}  # index -> respond callable
        self._op_results: dict[int, str | None] = {}
        self.position = resume_position(schedule, server.node.store)
        self.digest: str | None = None

    @property
    def done(self) -> bool:
        return self.position >= len(self.schedule)

    @property
    def gating_op_index(self) -> int | None:
        """The op index the gate is (or will next be) blocked on.

        Load shedding must never turn away the one operation the
        schedule cannot advance without, or an overloaded replica
        livelocks against its own clients.
        """
        if self.position < len(self.schedule):
            step = self.schedule[self.position]
            if step["kind"] not in ("setup", "apply") and step["commits"]:
                return step["index"]
        return None

    @property
    def parked_ops(self) -> int:
        return len(self._op_waiting)

    def drop_parked_ops(self) -> None:
        """Forget parked acks: their connections are going away."""
        self._op_waiting.clear()

    # -- live inputs ----------------------------------------------------------

    async def offer_record(self, record: CommitRecord) -> None:
        """A record arrived from a peer (broadcast or anti-entropy)."""
        replica = self._server.node.store
        if record.origin == replica.replica_id:
            return
        if replica.vv.get(record.origin) >= record.dot.counter:
            self._server.stats["net.records.duplicates"] += 1
            return
        key = (record.origin, record.dot.counter)
        async with self._cond:
            if key in self._records:
                self._server.stats["net.records.duplicates"] += 1
                return
            self._records[key] = record
            self._server.stats["net.records.buffered"] += 1
            self._cond.notify_all()

    async def offer_op(self, index: int, respond) -> bool:
        """A client (re)sent operation ``index``; True if acked here.

        Already-executed operations are re-acknowledged immediately
        (the retry path); otherwise the respond callable is parked for
        the engine to call after execution.
        """
        if index in self._op_results:
            await respond("dup", self._op_results[index])
            return True
        async with self._cond:
            first = index not in self._op_waiting
            self._op_waiting[index] = respond
            if first:
                self._cond.notify_all()
        return False

    # -- the gate loop --------------------------------------------------------

    async def run(self) -> None:
        server = self._server
        while self.position < len(self.schedule):
            step = self.schedule[self.position]
            kind = step["kind"]
            if kind == "setup":
                self._run_setup(step)
            elif kind == "apply":
                await self._run_apply(step)
            else:
                await self._run_op(step)
            self.position += 1
        self.digest = replica_state_digest(server.node.store)
        server.stats["net.schedule.completed"] = 1
        async with self._cond:
            self._cond.notify_all()

    def _run_setup(self, step: dict) -> None:
        server = self._server
        replica = server.node.store
        durable = replica.vv.get(replica.replica_id)
        server.node.setup_skip = min(durable, step["commits"])
        span = TRACER.start("net.setup", region=server.region)
        server.adapter.setup(server.app, server.params, server.region)
        TRACER.end(span, commits=step["commits"], replayed=durable)
        if replica.vv.get(replica.replica_id) != step["commits"]:
            raise ServeError(
                f"{server.region}: setup produced "
                f"{replica.vv.get(replica.replica_id)} commits, schedule "
                f"recorded {step['commits']}"
            )

    async def _run_apply(self, step: dict) -> None:
        server = self._server
        key = (step["origin"], step["counter"])
        async with self._cond:
            while key not in self._records:
                await self._cond.wait()
            record = self._records.pop(key)
        span = TRACER.start(
            "net.apply",
            region=server.region,
            origin=record.origin,
            # The committing replica's span carries the matching
            # flow_out; Perfetto draws the cross-process arrow.
            flow_in=f"rec:{record.origin}:{record.dot.counter}",
        )
        server.node.store.apply_remote(record)
        server.log.append(record)
        server.stats["net.records.applied"] += 1
        lag = server.now_ms() - record.committed_at
        server.lag_gauge.set(lag)
        TRACER.end(span, counter=record.dot.counter, lag_ms=lag)
        if server.detector is not None:
            server.detector.note_apply(record)
            server.detector.check()

    async def _run_op(self, step: dict) -> None:
        server = self._server
        index = step["index"]
        call = self._ops[index]
        respond = None
        if step["commits"]:
            if self.salvaged and index not in self._op_waiting:
                # Salvage truncated acknowledged commits: the client
                # that sent this op may have its ack already and will
                # never resend.  Re-execute from the deployment spec
                # (deterministic, same record) instead of waiting; a
                # late resend collects the dup ack from _op_results.
                server.stats["net.ops.salvage_reexecuted"] += 1
            else:
                async with self._cond:
                    while index not in self._op_waiting:
                        await self._cond.wait()
                    respond = self._op_waiting.pop(index)
        result: dict[str, Any] = {"label": None}

        def done(label: str) -> None:
            result["label"] = label

        replica = server.node.store
        before = replica.vv.get(replica.replica_id)
        attrs: dict[str, Any] = {}
        if step["commits"]:
            # Links the client's send slice to this execution, and this
            # execution to every remote apply of the commit it produces.
            attrs["flow_in"] = f"op:{index}"
            attrs["flow_out"] = f"rec:{server.region}:{step['counter']}"
        span = TRACER.start(
            "net.op", region=server.region, op=call["op"], index=index,
            **attrs,
        )
        server.adapter.dispatch(
            server.app,
            server.region,
            call["op"],
            tuple(call["args"]),
            done,
        )
        TRACER.end(span, committed=step["commits"])
        own = replica.vv.get(replica.replica_id)
        if step["commits"]:
            if own != step["counter"]:
                raise ServeError(
                    f"{server.region}: op {index} ({call['op']}) produced "
                    f"counter {own}, schedule recorded {step['counter']}"
                )
        elif own != before:
            raise ServeError(
                f"{server.region}: op {index} ({call['op']}) committed "
                "live but not in the recorded run -- state diverged"
            )
        self._op_results[index] = result["label"]
        server.stats["net.ops.executed"] += 1
        if step["commits"] and server.detector is not None:
            server.detector.check()
        if respond is not None:
            await respond("done", result["label"])


class ReplicaServer:
    """One live region: listeners, schedule engine, anti-entropy."""

    def __init__(
        self,
        deployment: dict,
        topology: dict,
        region: str,
        data_dir: str,
    ) -> None:
        if region not in deployment["schedules"]:
            raise ServeError(f"deployment has no schedule for {region!r}")
        self.deployment = deployment
        self.topology = topology
        self.region = region
        self.spec = TrialSpec.from_dict(deployment["trial"])
        adapter = ADAPTERS.get(self.spec.app)
        if adapter is None:
            raise ServeError(f"unknown application {self.spec.app!r}")
        self.adapter = adapter
        mode, self.variant = resolve_config(self.spec.app, self.spec.config)
        if mode.value != "causal":
            raise ServeError(
                f"live serving supports causal-mode trials only, not "
                f"{mode.value} (config {self.spec.config!r})"
            )
        self.params = {**adapter.defaults(), **self.spec.params}
        self.peers = tuple(r for r in self.spec.regions if r != region)
        self.now_ms = epoch_clock(
            float(topology.get("epoch_unix_ms") or time.time() * 1000.0)
        )
        self.stats: dict[str, float] = {
            "net.records.applied": 0,
            "net.records.buffered": 0,
            "net.records.duplicates": 0,
            "net.ops.executed": 0,
            "net.ops.salvage_reexecuted": 0,
            "net.sync.requests": 0,
            "net.sync.responses": 0,
            "net.sync.timeouts": 0,
            "net.peer.reconnects": 0,
            "net.frames.in": 0,
            "net.frames.out": 0,
            "net.schedule.completed": 0,
            "net.health.heartbeats": 0,
            "net.health.suspects": 0,
            "net.health.recoveries": 0,
            "net.handoff.queued": 0,
            "net.handoff.replayed": 0,
            "net.handoff.dropped": 0,
            "net.breaker.opened": 0,
            "net.overload.shed_ops": 0,
        }
        self.lag_gauge = REGISTRY.gauge("store.convergence.lag_ms")

        # Cluster-wide settings, all via the topology file so every
        # process agrees: the parked-op bound (0 = unbounded, the
        # historical behaviour) and whether the files this replica
        # needs back -- commit log and conflict ledger -- are fsync'd.
        # Hints are not: anti-entropy regenerates them.
        self.overload_limit = int(topology.get("overload_limit", 0))
        fsync = bool(topology.get("fsync", False))

        os.makedirs(data_dir, exist_ok=True)
        self.data_dir = data_dir
        self.log = commitlog.CommitLog(
            os.path.join(data_dir, f"{region}.commitlog"), fsync=fsync
        )
        # Salvage mode: mid-log damage (bit rot while the process was
        # dead) truncates to the intact prefix instead of refusing to
        # start.  Safe *here* because the schedule gate regenerates the
        # truncated suffix deterministically -- own commits re-execute,
        # remote records re-arrive via broadcast or anti-entropy.
        salvage_counter = REGISTRY.counter("net.commitlog.salvaged")
        salvaged_before = salvage_counter.value
        recovered = self.log.replay(salvage=True)
        salvaged = salvage_counter.value > salvaged_before
        if salvaged:
            self.stats["net.commitlog.salvaged"] = 1
        registry = adapter.registry(self.variant, self.params)
        # The node, the schedule engine and the conflict detector reach
        # back to this server through a weak proxy.  The server owns
        # them, so a strong back-reference would make a stopped server
        # -- with all its replica state -- garbage only the cycle
        # collector can free; this way refcounting frees it at once.
        me = weakref.proxy(self)
        self.node = LiveNode(
            region,
            registry,
            self.now_ms,
            lambda record: me._commit_local(record),
        )
        if recovered:
            self.node.store.adopt_log(recovered)
            self.stats["net.recovered_records"] = len(recovered)
        self.log.open()
        self.app = adapter.make_app(self.node, self.variant, self.params)
        self.engine = ScheduleEngine(
            me,
            deployment["schedules"][region],
            deployment["ops"],
            salvaged=salvaged,
        )

        # Reopening after a crash reloads identities so re-detections
        # append nothing.
        self.ledger = ConflictLedger(
            os.path.join(data_dir, f"{region}-conflicts"), fsync=fsync
        )
        self.detector: ConflictDetector | None = ConflictDetector(me)

        self._out: dict[str, asyncio.Queue] = {}
        self._sync_events: dict[int, asyncio.Event] = {}
        self._next_rid = 0
        self._tasks: list[asyncio.Task] = []
        self._servers: list[asyncio.base_events.Server] = []
        self._conns: set[asyncio.StreamWriter] = set()
        self._running = False
        self.engine_error: str | None = None
        self.health = FailureDetector(
            self.peers, interval_ms=HEARTBEAT_MS,
            start_ms=self.now_ms(),
        )
        self._breakers: dict[str, CircuitBreaker] = {}
        self._hints: dict[str, HintQueue] = {}
        for peer in self.peers:
            self._breakers[peer] = CircuitBreaker(
                RetryPolicy(
                    base_ms=100.0,
                    cap_ms=2_000.0,
                    seed=zlib.crc32(f"brk:{region}->{peer}".encode()),
                )
            )
            self._hints[peer] = HintQueue(
                os.path.join(data_dir, f"{region}-hints-{peer}.log"),
                limit=HINT_LIMIT,
            )
            self._count_dropped_hints(self._hints[peer].dropped)

    # -- self-healing bookkeeping ---------------------------------------------

    def _note_peer_alive(self, source: str) -> None:
        """Any inbound peer frame is proof of life for its sender.

        A down->up edge closes the outbound circuit breaker
        immediately -- inbound traffic proves the process is back, so
        redelivery of hinted payloads should not wait out a cooldown.
        """
        recovered = self.health.note_alive(source, self.now_ms())
        if recovered:
            breaker = self._breakers.get(source)
            if breaker is not None:
                breaker.record_success()
            TRACER.instant(
                "net.health.recovery", region=self.region, peer=source
            )

    # -- commit path ----------------------------------------------------------

    def _commit_local(self, record: CommitRecord) -> None:
        """Durable-then-broadcast, before any acknowledgement."""
        self.log.append(record)
        if self.detector is not None:
            self.detector.note_commit(record)
        broadcast = Broadcast(
            {
                "type": "records",
                "source": self.region,
                "records": (record,),
                "tc": f"rec:{self.region}:{record.dot.counter}",
            }
        )
        for peer in self.peers:
            queue = self._out.get(peer)
            if queue is not None:
                queue.put_nowait(broadcast)

    # -- lifecycle ------------------------------------------------------------

    async def start(self) -> None:
        regions = self.topology["regions"]
        me = regions[self.region]
        self._running = True
        for peer in self.peers:
            self._out[peer] = asyncio.Queue()
        peer_server = await asyncio.start_server(
            self._serve_peer, me.get("host", "127.0.0.1"), me["peer_port"]
        )
        client_server = await asyncio.start_server(
            self._serve_client, me.get("host", "127.0.0.1"),
            me["client_port"],
        )
        self._servers = [peer_server, client_server]
        self._tasks.append(asyncio.ensure_future(self._engine_main()))
        self._tasks.append(asyncio.ensure_future(self._health_main()))
        for peer in self.peers:
            self._tasks.append(
                asyncio.ensure_future(self._outbound_main(peer))
            )
            self._tasks.append(
                asyncio.ensure_future(self._antientropy_main(peer))
            )

    async def stop(self) -> None:
        """Graceful shutdown (SIGTERM / end of run)."""
        self._running = False
        for task in self._tasks:
            task.cancel()
        for task in self._tasks:
            try:
                await task
            except (asyncio.CancelledError, Exception):
                pass
        for server in self._servers:
            server.close()
            try:
                await server.wait_closed()
            except Exception:
                pass
        self._release()
        for writer in list(self._conns):
            writer.close()
        self.log.close()
        self.ledger.close()
        for hints in self._hints.values():
            hints.close()

    def kill(self) -> None:
        """Abrupt in-process crash: no flushes, no goodbyes.

        The durable commit log is already flushed per append, so this
        models SIGKILL for the in-process harness and tests; the
        subprocess harness uses a real SIGKILL instead.  Open
        connections are aborted, not closed: a SIGKILL'd process's
        sockets RST, and a lingering accepted connection would
        otherwise keep swallowing peer frames meant for the restarted
        server.
        """
        self._running = False
        for task in self._tasks:
            task.cancel()
        for server in self._servers:
            server.close()
        self._release()
        for writer in list(self._conns):
            try:
                writer.transport.abort()
            except Exception:
                pass
        self.log.close()
        # Every ledger append already synced; close releases handles
        # without adding a flush SIGKILL would not have given us.
        self.ledger.close()
        # Hints are write-through like the ledger: closing loses none.
        for hints in self._hints.values():
            hints.close()

    def _release(self) -> None:
        """Drop everything that holds one of this server's handlers.

        A listener holds its connection handler, a task its coroutine,
        and a parked op's ack callable its connection, whose protocol
        holds the handler; the server holds them all.  Left in place
        they would make a stopped server -- replica state included --
        garbage only the cycle collector can free.
        """
        self._servers.clear()
        self._tasks.clear()
        self.engine.drop_parked_ops()

    # -- engine wrapper -------------------------------------------------------

    async def _engine_main(self) -> None:
        """Run the gate loop, surfacing any failure via status frames.

        A silently-dead engine would present as an indistinguishable
        stall; recording the error lets the orchestrator and operators
        see *why* a schedule stopped advancing.
        """
        try:
            await self.engine.run()
        except asyncio.CancelledError:
            raise
        except Exception as exc:
            self.engine_error = f"{type(exc).__name__}: {exc}"
            REGISTRY.counter("net.engine.errors").inc()

    # -- self-healing loops ---------------------------------------------------

    async def _health_main(self) -> None:
        """Send heartbeats to every peer; evaluate suspicion each beat.

        Heartbeats ride the ordinary outbound queues, through the
        chaos proxy like all peer traffic -- a partitioned link drops
        them and the detector suspects the peer, which is exactly the
        verdict handoff needs even when the peer *process* is healthy.
        """
        while self._running:
            now = self.now_ms()
            for peer in self.peers:
                self._out[peer].put_nowait(
                    {"type": "heartbeat", "source": self.region}
                )
            before = self.health.suspects
            self.health.up_count(now)  # edge-evaluates every peer
            if self.health.suspects > before:
                for peer in self.peers:
                    if not self.health.is_up(peer, now):
                        TRACER.instant(
                            "net.health.suspect",
                            region=self.region,
                            peer=peer,
                            phi=round(self.health.phi(peer, now), 2),
                        )
            self.stats["net.health.heartbeats"] = self.health.heartbeats
            self.stats["net.health.suspects"] = self.health.suspects
            self.stats["net.health.recoveries"] = self.health.recoveries
            await asyncio.sleep(HEARTBEAT_MS / 1000.0)

    # -- peer plumbing --------------------------------------------------------

    async def _serve_peer(self, reader, writer) -> None:
        self._conns.add(writer)
        try:
            while True:
                frame = await wire.read_frame(reader)
                if frame is None:
                    break
                self.stats["net.frames.in"] += 1
                source = frame.get("source")
                if isinstance(source, str):
                    self._note_peer_alive(source)
                await self._on_peer_frame(frame)
        except (wire.WireError, ConnectionError, OSError):
            pass
        except asyncio.CancelledError:
            pass  # shutdown while mid-read; exit the handler cleanly
        finally:
            self._conns.discard(writer)
            writer.close()

    async def _on_peer_frame(self, frame: dict) -> None:
        kind = frame.get("type")
        if kind == "heartbeat":
            pass  # _serve_peer already noted the sender alive
        elif kind == "records":
            for record in frame["records"]:
                await self.engine.offer_record(record)
        elif kind == "sync_req":
            self.stats["net.sync.requests"] += 1
            span = TRACER.start(
                "net.sync.serve",
                region=self.region,
                peer=frame["source"],
                flow_in=frame.get("tc"),
            )
            records = self.node.store.records_since(frame["vv"])
            queue = self._out.get(frame["source"])
            if queue is not None:
                queue.put_nowait(
                    {
                        "type": "sync_resp",
                        "source": self.region,
                        "rid": frame["rid"],
                        "records": tuple(records[:SYNC_BATCH_LIMIT]),
                        "tc": frame.get("tc"),
                    }
                )
            TRACER.end(span, records=len(records))
        elif kind == "sync_resp":
            self.stats["net.sync.responses"] += 1
            for record in frame["records"]:
                await self.engine.offer_record(record)
            event = self._sync_events.pop(frame["rid"], None)
            if event is not None:
                event.set()

    def _hint(self, peer: str, message: "dict | Broadcast") -> None:
        """Park an undeliverable message in the peer's durable hints.

        Only replication payloads are worth keeping: heartbeats are
        regenerated every beat and sync requests/responses go stale
        with their round.  The queue's bound evicts oldest-first;
        anything evicted is anti-entropy's problem (counted, so an
        operator can see the backstop being leaned on).
        """
        if type(message) is Broadcast:
            message = message.message
        if message.get("type") != "records":
            return
        hints = self._hints[peer]
        before = hints.dropped
        hints.append(message)
        self.stats["net.handoff.queued"] += 1
        _handoff_queued.inc()
        self._count_dropped_hints(hints.dropped - before)

    def _count_dropped_hints(self, count: int) -> None:
        if count:
            self.stats["net.handoff.dropped"] += count
            _handoff_dropped.inc(count)

    async def _park_outbound(self, peer: str, queue, breaker) -> None:
        """Hold the link while its circuit is open, hinting payloads.

        Returns once the breaker half-opens (cooldown elapsed) or an
        inbound sign of life closed it early; the caller's next
        connect attempt is the probe.
        """
        while self._running:
            now = self.now_ms()
            if breaker.allow(now):
                return
            wait_ms = min(
                max(breaker.cooldown_remaining_ms(now), 5.0),
                HEARTBEAT_MS,
            )
            try:
                message = await asyncio.wait_for(
                    queue.get(), timeout=wait_ms / 1000.0
                )
            except asyncio.TimeoutError:
                continue
            self._hint(peer, message)

    async def _outbound_main(self, peer: str) -> None:
        """Own the self->peer link: connect, pump, reconnect.

        A circuit breaker guards the connect path: a persistently
        unreachable peer stops being hammered with SYNs and its
        replication payloads are parked in a durable hint queue
        instead (hinted handoff).  On reconnect the hints are
        redelivered *before* live traffic, so convergence after a
        recovery does not wait for a full anti-entropy cycle.
        """
        link = self.topology["links"][f"{self.region}->{peer}"]
        queue = self._out[peer]
        breaker = self._breakers[peer]
        hints = self._hints[peer]
        policy = RetryPolicy(
            base_ms=25.0,
            cap_ms=1_000.0,
            seed=zlib.crc32(f"out:{self.region}->{peer}".encode()),
        )
        while self._running:
            if not breaker.allow(self.now_ms()):
                await self._park_outbound(peer, queue, breaker)
                if not self._running:
                    break
            try:
                reader, writer = await asyncio.open_connection(
                    link.get("host", "127.0.0.1"), link["port"]
                )
            except (ConnectionError, OSError):
                self.stats["net.peer.reconnects"] += 1
                breaker.record_failure(self.now_ms())
                await asyncio.sleep(policy.next_delay_ms() / 1000.0)
                continue
            policy.reset()
            breaker.record_success()
            self._conns.add(writer)
            pending = hints.drain()
            message: dict | Broadcast | None = None
            try:
                while pending:
                    await wire.write_frame(writer, pending[0])
                    pending.pop(0)
                    self.stats["net.frames.out"] += 1
                    self.stats["net.handoff.replayed"] += 1
                    _handoff_replayed.inc()
                while True:
                    message = await queue.get()
                    await send(writer, message)
                    self.stats["net.frames.out"] += 1
                    message = None
            except (ConnectionError, OSError):
                self.stats["net.peer.reconnects"] += 1
                breaker.record_failure(self.now_ms())
                # Nothing already handed off may be lost to the broken
                # pipe: re-park undelivered hints and the in-flight
                # message (write-through, so a crash loses none).
                for left in pending:
                    self._hint(peer, left)
                if message is not None:
                    self._hint(peer, message)
                writer.close()
            finally:
                self._conns.discard(writer)

    async def _antientropy_main(self, peer: str) -> None:
        """Periodic pull: "send me everything my vector is missing".

        The live counterpart of the simulator's digest exchange, and
        the retransmission path that makes chaos drops recoverable.
        Unanswered rounds back off with the shared
        :class:`~repro.net.retry.RetryPolicy`.
        """
        interval_ms = ANTIENTROPY_MS
        policy = RetryPolicy(
            base_ms=interval_ms,
            cap_ms=max(interval_ms * 20.0, 1_000.0),
            seed=zlib.crc32(f"sync:{self.region}->{peer}".encode()),
        )
        queue = self._out[peer]
        while self._running:
            self._next_rid += 1
            rid = self._next_rid
            event = asyncio.Event()
            self._sync_events[rid] = event
            # A minted (process-unique) flow id, not the rid: rids
            # restart at 0 after a crash+recovery and would collide.
            flow = TRACER.new_flow("sync")
            span = TRACER.start(
                "net.sync.round", region=self.region, peer=peer,
                flow_out=flow,
            )
            queue.put_nowait(
                {
                    "type": "sync_req",
                    "source": self.region,
                    "rid": rid,
                    "vv": self.node.store.vv.copy(),
                    "tc": flow,
                }
            )
            try:
                await asyncio.wait_for(
                    event.wait(), timeout=interval_ms * 4.0 / 1000.0
                )
            except asyncio.TimeoutError:
                self.stats["net.sync.timeouts"] += 1
                self._sync_events.pop(rid, None)
                TRACER.end(span, timeout=True)
                await asyncio.sleep(policy.next_delay_ms() / 1000.0)
                continue
            policy.reset()
            TRACER.end(span, timeout=False)
            await asyncio.sleep(interval_ms / 1000.0)

    # -- client plumbing ------------------------------------------------------

    async def _serve_client(self, reader, writer) -> None:
        self._conns.add(writer)
        try:
            while True:
                frame = await wire.read_frame(reader)
                if frame is None:
                    break
                self.stats["net.frames.in"] += 1
                kind = frame.get("type")
                if kind == "op":
                    await self._on_op_frame(frame, writer)
                elif kind == "status":
                    await wire.write_frame(writer, self._status_frame())
                elif kind == "metrics":
                    await wire.write_frame(writer, self._metrics_frame())
                else:
                    await wire.write_frame(
                        writer,
                        {"type": "error", "detail": f"bad frame {kind!r}"},
                    )
        except (wire.WireError, ConnectionError, OSError):
            pass
        except asyncio.CancelledError:
            pass  # shutdown while mid-read; exit the handler cleanly
        finally:
            self._conns.discard(writer)
            writer.close()

    async def _on_op_frame(self, frame: dict, writer) -> None:
        index = frame["index"]

        async def respond(status: str, label: str | None) -> None:
            try:
                await wire.write_frame(
                    writer,
                    {
                        "type": "op_ack",
                        "index": index,
                        "status": status,
                        "label": label,
                    },
                )
            except (ConnectionError, OSError):
                pass  # the client went away; its retry re-acks

        if (
            self.overload_limit
            and self.engine.parked_ops >= self.overload_limit
            and index != self.engine.gating_op_index
        ):
            # Bounded parking lot: shed with an explicit retryable
            # verdict rather than holding unbounded per-op state.  The
            # one op the gate needs is always admitted (no livelock).
            self.stats["net.overload.shed_ops"] += 1
            _overload_ops.inc()
            await respond("overloaded", None)
            return
        await self.engine.offer_op(index, respond)

    def _status_frame(self) -> dict:
        now = self.now_ms()
        self.stats["net.health.heartbeats"] = self.health.heartbeats
        self.stats["net.health.suspects"] = self.health.suspects
        self.stats["net.health.recoveries"] = self.health.recoveries
        self.stats["net.breaker.opened"] = float(
            sum(b.opened for b in self._breakers.values())
        )
        return {
            "type": "status_ack",
            "region": self.region,
            "position": self.engine.position,
            "steps": len(self.engine.schedule),
            "done": self.engine.done,
            "digest": self.engine.digest,
            "error": self.engine_error,
            "stats": dict(self.stats),
            "store": self.node.store.storage.stats(),
            "health": self.health.snapshot(now),
            "handoff": {
                peer: len(hints) for peer, hints in self._hints.items()
            },
            "vv": dict(self.node.store.vv.entries),
        }

    def _metrics_frame(self) -> dict:
        """The live-introspection superset of the status frame.

        Everything ``repro top`` renders for one replica: schedule
        progress, transport counters, store stats, the
        process-global registry snapshot (convergence lag, retries),
        and the conflict ledger's per-kind counts.  Served on the
        client listener so pollers need no extra port.
        """
        frame = self._status_frame()
        frame["type"] = "metrics_ack"
        frame["now_ms"] = self.now_ms()
        frame["registry"] = REGISTRY.snapshot()
        frame["conflicts"] = self.ledger.counts()
        return frame
