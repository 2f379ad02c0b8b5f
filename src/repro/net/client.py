"""The closed-loop client fleet driving a live cluster.

One asyncio task per session (``{region}#{k}``), sending that
session's operations in trace order over a persistent connection to
the region's client port.  Closed-loop means an operation is not sent
before its predecessor is acknowledged; pacing additionally respects
the trace's issue times scaled by the deployment time scale, so chaos
windows overlap the load the way they did in the simulation.

Failure handling is the tentpole's client story: every send carries a
deadline; a timeout or connection error (a crashed server refuses
connections outright) closes the connection, backs off with the shared
decorrelated-jitter :class:`~repro.net.retry.RetryPolicy`, reconnects
and resends.  Servers deduplicate by operation index, so a retry of an
executed-but-unacknowledged operation gets a ``dup`` acknowledgement
rather than a double execution.  Timeout/retry counters feed
``BENCH_serve.json``.

Only operations that committed in the recorded run are sent at all:
non-committing operations are the server's to self-execute (see
:mod:`repro.net.server`), and operations the simulation refused or
lost are nobody's -- the fleet counts them as skipped, mirroring the
simulator's refused/lost accounting.
"""

from __future__ import annotations

import asyncio
import time
import zlib
from collections import defaultdict

from repro.errors import ReproError
from repro.net import wire
from repro.net.retry import RetryPolicy
from repro.obs import REGISTRY, TRACER


#: Per-attempt wait for a connection or an ack.
ACK_TIMEOUT_MS = 1_000.0

#: The decorrelated-jitter back-off between attempts.
RETRY_BASE_MS = 40.0
RETRY_CAP_MS = 2_000.0

#: Wall-clock budget of one operation, every attempt included.
OP_DEADLINE_S = 60.0


class ClientError(ReproError):
    """A client op that exhausted its retry budget."""


def session_region(session: str) -> str:
    return session.split("#", 1)[0]


async def fetch_status(host: str, port: int, timeout_s: float = 2.0) -> dict:
    """One status round-trip to a live server."""
    reader, writer = await asyncio.open_connection(host, port)
    try:
        await wire.write_frame(writer, {"type": "status"})
        frame = await asyncio.wait_for(
            wire.read_frame(reader), timeout=timeout_s
        )
        if frame is None or frame.get("type") != "status_ack":
            raise ClientError(f"bad status reply from {host}:{port}")
        return frame
    finally:
        writer.close()


async def fetch_metrics(host: str, port: int, timeout_s: float = 2.0) -> dict:
    """One metrics round-trip: status + registry + conflict counts.

    What ``repro top`` polls and the harness embeds into
    ``BENCH_serve.json`` at the end of a run.
    """
    reader, writer = await asyncio.open_connection(host, port)
    try:
        await wire.write_frame(writer, {"type": "metrics"})
        frame = await asyncio.wait_for(
            wire.read_frame(reader), timeout=timeout_s
        )
        if frame is None or frame.get("type") != "metrics_ack":
            raise ClientError(f"bad metrics reply from {host}:{port}")
        return frame
    finally:
        writer.close()


class ClientFleet:
    """All sessions of one deployment's trace."""

    def __init__(
        self,
        deployment: dict,
        topology: dict,
        time_scale: float = 1.0,
    ) -> None:
        self._topology = topology
        self._time_scale = time_scale
        self._sessions: dict[str, list[dict]] = defaultdict(list)
        for op in deployment["ops"]:
            self._sessions[op["session"]].append(op)
        for ops in self._sessions.values():
            ops.sort(key=lambda o: (o["at_ms"], o["index"]))
        self.stats: dict[str, float] = {
            "client.ops_acked": 0,
            "client.ops_skipped": 0,
            "client.frames_sent": 0,
            "client.retries": 0,
            "client.timeouts": 0,
            "client.reconnects": 0,
            "client.sheds": 0,
        }
        self._retries_counter = REGISTRY.counter("client.retries")
        self._timeouts_counter = REGISTRY.counter("client.timeouts")
        self._sheds_counter = REGISTRY.counter("client.sheds")

    async def run(self) -> dict:
        """Drive every session to completion; returns the stats dict.

        Raises :class:`ClientError` if any operation exhausts its
        per-op deadline -- a stuck gate upstream (diagnosed by the
        orchestrator via server status).
        """
        start = time.time()
        await asyncio.gather(
            *(
                self._session_main(session, ops, start)
                for session, ops in sorted(self._sessions.items())
            )
        )
        wall_s = time.time() - start
        self.stats["client.wall_s"] = wall_s
        self.stats["client.ops_per_s"] = (
            self.stats["client.ops_acked"] / wall_s if wall_s > 0 else 0.0
        )
        return self.stats

    async def _session_main(
        self, session: str, ops: list[dict], epoch_s: float
    ) -> None:
        region = session_region(session)
        entry = self._topology["regions"][region]
        addr = (entry.get("host", "127.0.0.1"), entry["client_port"])
        policy = RetryPolicy(
            base_ms=RETRY_BASE_MS,
            cap_ms=RETRY_CAP_MS,
            seed=zlib.crc32(f"client:{session}".encode()),
        )
        reader = writer = None
        try:
            for op in ops:
                if not op["send"]:
                    self.stats["client.ops_skipped"] += 1
                    continue
                target_s = epoch_s + op["at_ms"] * self._time_scale / 1000.0
                delay = target_s - time.time()
                if delay > 0:
                    await asyncio.sleep(delay)
                reader, writer = await self._send_op(
                    op, addr, policy, reader, writer
                )
                self.stats["client.ops_acked"] += 1
        finally:
            if writer is not None:
                writer.close()

    async def _send_op(self, op, addr, policy, reader, writer):
        deadline = time.time() + OP_DEADLINE_S
        span = TRACER.start(
            "net.client.op",
            session=op["session"],
            index=op["index"],
            # Deterministic flow id shared with the server's net.op
            # span; retries reuse it (same op, same arrow).
            flow_out=f"op:{op['index']}",
        )
        attempts = 0
        while True:
            if time.time() > deadline:
                TRACER.end(span, gave_up=True, attempts=attempts)
                raise ClientError(
                    f"op {op['index']} ({op['op']}) for {op['session']} "
                    f"got no ack in {OP_DEADLINE_S:.0f}s "
                    f"({attempts} attempts)"
                )
            attempts += 1
            try:
                if writer is None or writer.is_closing():
                    reader, writer = await asyncio.wait_for(
                        asyncio.open_connection(*addr),
                        timeout=ACK_TIMEOUT_MS / 1000.0,
                    )
                await wire.write_frame(
                    writer,
                    {
                        "type": "op",
                        "index": op["index"],
                        "op": op["op"],
                        "session": op["session"],
                        "tc": f"op:{op['index']}",
                    },
                )
                self.stats["client.frames_sent"] += 1
                ack = await asyncio.wait_for(
                    self._read_ack(reader, op["index"]),
                    timeout=ACK_TIMEOUT_MS / 1000.0,
                )
                if ack["status"] == "overloaded":
                    # An explicit retryable shed: the server is alive
                    # but its op parking lot is full.  Keep the healthy
                    # connection, back off, resend.
                    self.stats["client.sheds"] += 1
                    self._sheds_counter.inc()
                    self.stats["client.retries"] += 1
                    self._retries_counter.inc()
                    await asyncio.sleep(policy.next_delay_ms() / 1000.0)
                    continue
                policy.reset()
                TRACER.end(span, status=ack["status"], attempts=attempts)
                return reader, writer
            except (asyncio.TimeoutError, ConnectionError, OSError) as exc:
                # Deadline or dead server: drop the connection (a
                # cancelled mid-frame read may have consumed bytes, so
                # the stream is unusable), back off, resend.
                if isinstance(exc, asyncio.TimeoutError):
                    self.stats["client.timeouts"] += 1
                    self._timeouts_counter.inc()
                else:
                    self.stats["client.reconnects"] += 1
                self.stats["client.retries"] += 1
                self._retries_counter.inc()
                if writer is not None:
                    writer.close()
                reader = writer = None
                await asyncio.sleep(policy.next_delay_ms() / 1000.0)

    async def _read_ack(self, reader, index: int) -> dict:
        """Next acknowledgement for ``index``, skipping stale re-acks."""
        while True:
            frame = await wire.read_frame(reader)
            if frame is None:
                raise ConnectionError("server closed the connection")
            if frame.get("type") == "op_ack" and frame.get("index") == index:
                return frame
