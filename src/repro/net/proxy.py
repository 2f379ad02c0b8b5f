"""The chaos proxy: PR-1 fault plans interpreted against live traffic.

Every directed inter-replica link ``A -> B`` gets its own
:class:`ChaosLink`: a TCP listener that ``A``'s server dials instead of
``B``, reading length-prefixed frames off the wire and asking a
:class:`~repro.sim.faults.FaultInjector` for a per-frame verdict --
exactly the verdict machinery the simulator uses, pointed at real
sockets.  Dropped frames vanish, duplicated frames are re-sent after a
delay, reordered frames lose their FIFO position (delayed copies race
the in-order stream), and partition windows silently drop everything
on blocked links while the TCP connections stay up -- matching the
simulator's semantics, where a partition loses messages rather than
resetting transports.

Determinism: a single shared injector would interleave verdict draws
nondeterministically under live concurrency, so each link derives its
own seed from the plan seed and the link name.  Per-link verdict
streams are then reproducible run to run; the *interleaving* across
links is not, and does not need to be -- the schedule gates absorb it.

Crash windows are not the proxy's job: killing and restarting replica
processes is the orchestrator's (:mod:`repro.net.harness`).  Frames
relayed toward a dead replica fail to connect and are counted as
``down_drops`` -- the live analogue of the cluster's
``dropped_at_crashed``.

Partition windows are time-based: the proxy converts wall time to
trace-relative milliseconds via the shared epoch and time scale
(``trace_ms = (unix_ms - epoch_unix_ms) / time_scale``).  Until the
orchestrator sets the epoch, trace time is pinned to just before zero
so pre-run boot traffic flows (fault plans place windows at >= 0).
"""

from __future__ import annotations

import asyncio
import time
import zlib
from dataclasses import replace

from repro.net import wire
from repro.net.retry import RetryPolicy
from repro.obs import REGISTRY, TRACER
from repro.sim.faults import FaultInjector, FaultPlan


#: Trace time reported before the epoch is set: just under zero, so
#: windows starting at 0 are not yet active during boot traffic.
_PRE_EPOCH_MS = -1e-3


def link_plan(plan: FaultPlan, source: str, target: str) -> FaultPlan:
    """The per-link variant of a plan: same faults, derived seed."""
    derived = (
        plan.seed * 1_000_003 + zlib.crc32(f"{source}->{target}".encode())
    ) & 0x7FFFFFFF
    return replace(plan, seed=derived, crashes=())


class ChaosLink:
    """One directed link's listener, injector, and forwarder."""

    def __init__(
        self,
        source: str,
        target: str,
        target_host: str,
        target_port: int,
        plan: FaultPlan,
        time_scale: float = 1.0,
        host: str = "127.0.0.1",
    ) -> None:
        self.source = source
        self.target = target
        self._target_addr = (target_host, target_port)
        self._host = host
        self.injector = FaultInjector(link_plan(plan, source, target))
        self._time_scale = time_scale
        self._epoch_unix_ms: float | None = None
        self.port: int | None = None
        self._server: asyncio.base_events.Server | None = None
        self._writer: asyncio.StreamWriter | None = None
        self._send_lock = asyncio.Lock()
        self._copy_tasks: set[asyncio.Task] = set()
        # Connect backoff toward a down target: without it, every
        # frame bound for a dead replica (heartbeats arrive every few
        # ms under a small time scale) would cost a fresh SYN.
        self._connect_policy = RetryPolicy(
            base_ms=20.0,
            cap_ms=500.0,
            seed=zlib.crc32(f"link:{source}->{target}".encode()),
        )
        self._connect_retry_at = 0.0  # monotonic ms
        prefix = f"net.link.{source}->{target}"
        self._delivered = REGISTRY.counter(f"{prefix}.delivered")
        self._down_drops = REGISTRY.counter(f"{prefix}.down_drops")
        self.down_drops = 0
        self.delivered = 0

    # -- clock ---------------------------------------------------------------

    def set_epoch(self, epoch_unix_ms: float) -> None:
        self._epoch_unix_ms = epoch_unix_ms

    def _trace_now_ms(self) -> float:
        if self._epoch_unix_ms is None:
            return _PRE_EPOCH_MS
        return (time.time() * 1000.0 - self._epoch_unix_ms) / self._time_scale

    # -- lifecycle -----------------------------------------------------------

    async def start(self, port: int = 0) -> int:
        self._server = await asyncio.start_server(
            self._serve, self._host, port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        return self.port

    async def stop(self) -> None:
        for task in list(self._copy_tasks):
            task.cancel()
        if self._server is not None:
            self._server.close()
            try:
                await self._server.wait_closed()
            except Exception:
                pass
        if self._writer is not None:
            self._writer.close()
            self._writer = None

    # -- relay ---------------------------------------------------------------

    async def _serve(self, reader, writer) -> None:
        try:
            while True:
                frame = await wire.read_raw_frame(reader)
                if frame is None:
                    break
                await self._judge(frame)
        except (wire.WireError, ConnectionError, OSError):
            pass
        except asyncio.CancelledError:
            pass  # shutdown while mid-read; exit the handler cleanly
        finally:
            writer.close()

    async def _judge(self, frame: bytes) -> None:
        verdict = self.injector.on_send(
            self.source, self.target, self._trace_now_ms()
        )
        if TRACER.enabled:
            # Annotate injected faults as trace instants.  The proxy
            # never rewrites the frames it relays; it *peeks* the
            # untagged trace context so a dropped replication record
            # shows up in the stitched trace with the flow id it would
            # have completed.
            fault = None
            if not verdict.copies:
                fault = "drop"
            elif len(verdict.copies) > 1:
                fault = "duplicate"
            elif any(not fifo for _, fifo in verdict.copies):
                fault = "reorder"
            if fault is not None:
                kind, tc = wire.peek_trace_context(frame)
                TRACER.instant(
                    f"net.chaos.{fault}",
                    link=f"{self.source}->{self.target}",
                    frame=kind,
                    tc=tc,
                )
        for extra_delay_ms, fifo in verdict.copies:
            if extra_delay_ms <= 0.0 and fifo:
                await self._forward(frame)
            else:
                task = asyncio.ensure_future(
                    self._forward_later(frame, extra_delay_ms)
                )
                self._copy_tasks.add(task)
                task.add_done_callback(self._copy_tasks.discard)

    async def _forward_later(self, frame: bytes, extra_delay_ms: float) -> None:
        await asyncio.sleep(extra_delay_ms * self._time_scale / 1000.0)
        await self._forward(frame)

    async def _forward(self, frame: bytes) -> None:
        async with self._send_lock:
            writer = self._writer
            if writer is None or writer.is_closing():
                now_ms = time.monotonic() * 1000.0
                if now_ms < self._connect_retry_at:
                    # Still inside the connect cooldown: the target
                    # was down moments ago; drop without a SYN.
                    self.down_drops += 1
                    self._down_drops.inc()
                    return
                try:
                    _, writer = await asyncio.open_connection(
                        *self._target_addr
                    )
                    self._writer = writer
                    self._connect_policy.reset()
                except (ConnectionError, OSError):
                    # The target is down (crash window): live frames
                    # die exactly like sim messages at a crashed
                    # replica, and the next attempts back off.
                    self._connect_retry_at = (
                        now_ms + self._connect_policy.next_delay_ms()
                    )
                    self.down_drops += 1
                    self._down_drops.inc()
                    return
            try:
                writer.write(frame)
                await writer.drain()
            except (ConnectionError, OSError):
                self.down_drops += 1
                self._down_drops.inc()
                self._writer = None
                return
            self.delivered += 1
            self._delivered.inc()

    # -- reporting -----------------------------------------------------------

    def stats(self) -> dict[str, int]:
        injector = self.injector
        return {
            "delivered": self.delivered,
            "dropped": injector.dropped,
            "duplicated": injector.duplicated,
            "reordered": injector.reordered,
            "partition_drops": injector.partition_drops,
            "down_drops": self.down_drops,
        }


class ChaosProxy:
    """All directed links of one deployment, under one fault plan."""

    def __init__(
        self,
        regions: tuple[str, ...],
        plan: FaultPlan,
        topology: dict,
        time_scale: float = 1.0,
    ) -> None:
        self.links: dict[str, ChaosLink] = {}
        self._topology = topology
        self._admin: asyncio.base_events.Server | None = None
        for source in regions:
            for target in regions:
                if source == target:
                    continue
                entry = topology["regions"][target]
                self.links[f"{source}->{target}"] = ChaosLink(
                    source,
                    target,
                    entry.get("host", "127.0.0.1"),
                    entry["peer_port"],
                    plan,
                    time_scale=time_scale,
                )

    async def start(self) -> None:
        """Open every listener on the port the topology reserved for it.

        Also opens the *admin* listener (``proxy_admin``) -- a metrics
        endpoint serving per-link fault counters, so ``repro top`` can
        show chaos rates alongside replica metrics.  No listener binds
        port 0: the kernel could hand it a server port that
        :func:`~repro.net.harness.build_topology` reserved and released.
        """
        for name, link in self.links.items():
            await link.start(self._topology["links"][name]["port"])
        admin = self._topology["proxy_admin"]
        self._admin = await asyncio.start_server(
            self._serve_admin, admin["host"], admin["port"]
        )

    async def _serve_admin(self, reader, writer) -> None:
        try:
            while True:
                frame = await wire.read_frame(reader)
                if frame is None:
                    break
                await wire.write_frame(
                    writer,
                    {"type": "proxy_metrics_ack", "links": self.stats()},
                )
        except (wire.WireError, ConnectionError, OSError):
            pass
        except asyncio.CancelledError:
            pass
        finally:
            writer.close()

    async def stop(self) -> None:
        for link in self.links.values():
            await link.stop()
        if self._admin is not None:
            self._admin.close()
            try:
                await self._admin.wait_closed()
            except Exception:
                pass
            self._admin = None

    def set_epoch(self, epoch_unix_ms: float) -> None:
        for link in self.links.values():
            link.set_epoch(epoch_unix_ms)

    def stats(self) -> dict[str, dict[str, int]]:
        return {name: link.stats() for name, link in self.links.items()}
