"""The live-run orchestrator: boot, chaos, load, verdict.

:func:`run_live` takes a recorded deployment (:mod:`repro.net.oracle`)
and drives the whole live experiment:

1. allocate ports and build the topology;
2. start a :class:`~repro.net.proxy.ChaosProxy` on every directed
   inter-replica link;
3. boot one replica server per region -- as asyncio tasks in this
   process (fast, used by most tests) or as real subprocesses
   (``python -m repro serve``, used by the CLI and the CI smoke job,
   where a crash window is a literal SIGKILL);
4. set the shared epoch, schedule the fault plan's crash windows
   against it, and release the closed-loop client fleet;
5. wait for every server to finish its schedule, collect digests and
   counters, and compare the digests byte-for-byte against the
   simulator's.

The deadline is part of the oracle: a gate that never opens (a record
the live stack failed to deliver) stalls a schedule, and the stuck
positions are reported region by region instead of hanging forever.
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
import socket
import sys
import time
import zlib
from dataclasses import dataclass, field

from repro import obs
from repro.errors import ReproError
from repro.net.client import (
    ClientError,
    ClientFleet,
    fetch_metrics,
    fetch_status,
)
from repro.net.proxy import ChaosProxy
from repro.net.retry import RetryPolicy
from repro.net.server import ReplicaServer
from repro.sim.faults import FaultPlan
from repro.store import framedlog


#: Supervised restart attempts per incident before a replica is
#: declared permanently dead.
MAX_RESTART_ATTEMPTS = 5

#: How often the supervisor looks for dead nodes.
SUPERVISOR_POLL_MS = 40.0


class HarnessError(ReproError):
    """A live run that could not be orchestrated to a verdict."""


def free_ports(count: int, host: str = "127.0.0.1") -> list[int]:
    """Ask the kernel for ``count`` distinct free TCP ports.

    All ``count`` sockets are bound at once, so the ports differ from
    each other; they are closed before returning.  A listener that
    binds port 0 afterwards may be handed one of the released ports,
    so a run takes every port it listens on from one call.  The
    listeners are opened shortly after, so the usual close-then-rebind
    race with other processes is tolerable for a local harness.
    """
    sockets = []
    try:
        for _ in range(count):
            sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            sock.bind((host, 0))
            sockets.append(sock)
        return [sock.getsockname()[1] for sock in sockets]
    finally:
        for sock in sockets:
            sock.close()


def build_topology(
    regions: tuple[str, ...],
    host: str = "127.0.0.1",
    overload_limit: int = 0,
    scrub_ms: float = 0.0,
    fsync: bool = False,
) -> dict:
    """The cluster-wide settings file every server and client reads.

    Every port the run listens on is reserved here, in one
    :func:`free_ports` call: each region's client and peer port, one
    port per directed chaos link (``links``) and the proxy's admin
    port (``proxy_admin``).  ``fsync`` makes every server fsync its
    commit log, conflict ledger and store checkpoints.
    """
    links = [
        f"{source}->{target}"
        for source in regions
        for target in regions
        if source != target
    ]
    ports = free_ports(2 * len(regions) + len(links) + 1, host)
    topology: dict = {
        "epoch_unix_ms": time.time() * 1000.0,
        "overload_limit": overload_limit,
        "scrub_ms": scrub_ms,
        "fsync": fsync,
        "regions": {},
        "links": {},
        "proxy_admin": {"host": host, "port": ports[-1]},
    }
    for index, region in enumerate(regions):
        topology["regions"][region] = {
            "host": host,
            "client_port": ports[2 * index],
            "peer_port": ports[2 * index + 1],
        }
    for index, name in enumerate(links, start=2 * len(regions)):
        topology["links"][name] = {"host": host, "port": ports[index]}
    return topology


@dataclass
class LiveReport:
    """Everything one live run produced, plus the digest verdict."""

    ok: bool
    reason: str
    digests_live: dict[str, str]
    digests_sim: dict[str, str]
    wall_s: float
    client: dict = field(default_factory=dict)
    servers: dict = field(default_factory=dict)
    proxy: dict = field(default_factory=dict)
    crashes: int = 0
    mode: str = "inprocess"
    #: per-region metrics_ack frames (registry snapshot + store stats)
    metrics: dict = field(default_factory=dict)
    #: per-region conflict-ledger counts ({kind: n})
    conflicts: dict = field(default_factory=dict)
    #: stitched Perfetto trace path, when the run traced
    trace: str | None = None
    #: supervised-recovery summary: incidents (with MTTR timestamps),
    #: restart count, injected corruptions, and any permanent failure
    supervisor: dict = field(default_factory=dict)

    @property
    def digest_match(self) -> bool:
        return bool(self.digests_live) and self.digests_live == {
            region: self.digests_sim.get(region)
            for region in self.digests_live
        }

    def bench(self, deployment: dict, time_scale: float) -> dict:
        trial = deployment["trial"]
        return {
            "benchmark": "serve",
            "app": trial["app"],
            "config": trial["config"],
            "seed": trial["seed"],
            "regions": trial["regions"],
            "n_ops": len(deployment["ops"]),
            "mode": self.mode,
            "time_scale": time_scale,
            "ok": self.ok,
            "digest_match": self.digest_match,
            "reason": self.reason,
            "wall_s": self.wall_s,
            "throughput_ops_per_s": self.client.get("client.ops_per_s", 0.0),
            "client": dict(self.client),
            "servers": self.servers,
            "proxy": self.proxy,
            "crashes": self.crashes,
            "registry": {
                region: frame.get("registry", {})
                for region, frame in self.metrics.items()
            },
            "conflicts": self.conflicts,
            "trace": self.trace,
            "supervisor": dict(self.supervisor),
        }


class _InprocessNode:
    """One region's server lifecycle, in this process."""

    def __init__(self, deployment, topology, region, data_dir):
        self._args = (deployment, topology, region, data_dir)
        self.server: ReplicaServer | None = None

    @property
    def alive(self) -> bool:
        return self.server is not None

    async def start(self) -> None:
        self.server = ReplicaServer(*self._args)
        await self.server.start()

    async def crash(self) -> None:
        if self.server is not None:
            self.server.kill()
            self.server = None

    async def restart(self) -> None:
        await self.start()

    async def stop(self) -> None:
        if self.server is not None:
            await self.server.stop()
            self.server = None


class _SubprocessNode:
    """One region's server lifecycle, as a real OS process."""

    def __init__(
        self, deployment_path, topology_path, region, data_dir,
        trace_dir=None,
    ):
        self._argv = [
            sys.executable,
            "-m",
            "repro",
            "serve",
            "--deployment",
            deployment_path,
            "--topology",
            topology_path,
            "--region",
            region,
            "--data-dir",
            data_dir,
        ]
        if trace_dir is not None:
            self._argv += ["--trace-dir", trace_dir]
        self._env = dict(os.environ)
        package_root = os.path.dirname(
            os.path.dirname(os.path.abspath(__file__))
        )
        existing = self._env.get("PYTHONPATH")
        self._env["PYTHONPATH"] = (
            f"{package_root}{os.pathsep}{existing}"
            if existing
            else package_root
        )
        self.proc: asyncio.subprocess.Process | None = None

    @property
    def alive(self) -> bool:
        return self.proc is not None and self.proc.returncode is None

    async def start(self) -> None:
        self.proc = await asyncio.create_subprocess_exec(
            *self._argv, env=self._env
        )

    async def crash(self) -> None:
        """A crash window opens: SIGKILL, no warning."""
        if self.proc is not None and self.proc.returncode is None:
            self.proc.send_signal(signal.SIGKILL)
            await self.proc.wait()
        self.proc = None

    async def restart(self) -> None:
        await self.start()

    async def stop(self) -> None:
        if self.proc is not None and self.proc.returncode is None:
            self.proc.terminate()
            try:
                await asyncio.wait_for(self.proc.wait(), timeout=5.0)
            except asyncio.TimeoutError:
                self.proc.kill()
                await self.proc.wait()
        self.proc = None


def corrupt_region_files(
    data_dir: str, region: str, seed: int = 11
) -> list[str]:
    """Seed mid-file bit rot into a (dead) region's durable state.

    Flips one bit in a *non-final* record of the region's commit log
    and of the first engine object log found -- damage past the
    torn-tail repair, exercising salvage (commit log) and the startup
    scrub (object log) on the next boot.  Only meaningful while the
    region's process is down; returns the files touched.
    """
    corrupted: list[str] = []
    log_path = os.path.join(data_dir, f"{region}.commitlog")
    if framedlog.flip_bit(log_path, seed=seed) is not None:
        corrupted.append(log_path)
    store_dir = os.path.join(data_dir, f"{region}-store")
    if os.path.isdir(store_dir):
        for name in sorted(os.listdir(store_dir)):
            if name.endswith(".objlog"):
                path = os.path.join(store_dir, name)
                if framedlog.flip_bit(path, seed=seed) is not None:
                    corrupted.append(path)
                    break
    return corrupted


async def _rot_live_region(
    data_dir: str, region: str, deadline_unix_s: float, seed: int = 13
) -> str | None:
    """Bit-flip ``region``'s object log while its server keeps running.

    The live-replica counterpart of :func:`corrupt_region_files`: waits
    until the region's periodic scrub loop has checkpointed at least
    two object frames (the scrub cadence doubles as the live checkpoint
    cadence), then rots a non-final frame.  The *next* scrub pass must
    detect the damage and repair it from the live map -- no restart
    involved.  Returns the path touched, or None if nothing durable
    appeared before the deadline.
    """
    store_dir = os.path.join(data_dir, f"{region}-store")
    while time.time() < deadline_unix_s:
        if os.path.isdir(store_dir):
            for name in sorted(os.listdir(store_dir)):
                if not name.endswith(".objlog"):
                    continue
                path = os.path.join(store_dir, name)
                if framedlog.flip_bit(path, seed=seed) is not None:
                    obs.TRACER.instant(
                        "supervisor.corrupted", region=region, live=True
                    )
                    return path
        await asyncio.sleep(0.05)
    return None


class Supervisor:
    """Watches the fleet's nodes; restarts the dead, gives up loudly.

    The harness half of the self-healing tentpole: crash windows only
    *kill* -- bringing the replica back is this class's job, with
    capped decorrelated-jitter backoff between attempts.  Every
    incident records its MTTR timestamps
    (killed -> detected -> restarted-and-ready); a replica that cannot
    be revived within the attempt budget flips ``failed_event`` with a
    diagnostic instead of letting the run stall to the deadline.
    """

    def __init__(
        self,
        nodes: dict[str, object],
        topology: dict,
        data_dir: str,
        corrupt_regions: tuple[str, ...] = (),
    ) -> None:
        self._nodes = nodes
        self._topology = topology
        self._data_dir = data_dir
        self._corrupt_pending = set(corrupt_regions)
        self._kill_times: dict[str, float] = {}
        self.incidents: list[dict] = []
        self.restarts = 0
        self.corrupted_files: list[str] = []
        self.failure: str | None = None
        self.failed_event = asyncio.Event()

    def note_kill(self, region: str) -> None:
        """A crash window reports its kill (anchors that incident's MTTR)."""
        self._kill_times[region] = time.time()

    def summary(self) -> dict:
        return {
            "incidents": list(self.incidents),
            "restarts": self.restarts,
            "corrupted_files": list(self.corrupted_files),
            "failure": self.failure,
        }

    async def run(self) -> None:
        while not self.failed_event.is_set():
            await asyncio.sleep(SUPERVISOR_POLL_MS / 1000.0)
            for region, node in self._nodes.items():
                if not node.alive:
                    await self._recover(region, node)
                    if self.failed_event.is_set():
                        return

    async def _recover(self, region: str, node) -> None:
        detected = time.time()
        killed = self._kill_times.pop(region, None)
        obs.TRACER.instant("supervisor.detected", region=region)
        if region in self._corrupt_pending:
            # The chaos scenario's disk rot: seeded while the process
            # is provably down, healed by salvage + scrub on restart.
            self._corrupt_pending.discard(region)
            touched = corrupt_region_files(self._data_dir, region)
            self.corrupted_files.extend(touched)
            obs.TRACER.instant(
                "supervisor.corrupted", region=region, files=len(touched)
            )
        policy = RetryPolicy(
            base_ms=50.0,
            cap_ms=2_000.0,
            max_attempts=MAX_RESTART_ATTEMPTS,
            seed=zlib.crc32(f"supervisor:{region}".encode()),
        )
        attempts = 0
        while not policy.exhausted():
            attempts += 1
            try:
                await node.restart()
                await self._await_node_ready(region, node)
            except Exception:
                await node.crash()  # a half-started node must not linger
                await asyncio.sleep(policy.next_delay_ms() / 1000.0)
                continue
            self.restarts += 1
            restarted = time.time()
            obs.TRACER.instant(
                "supervisor.restarted", region=region, attempts=attempts
            )
            self.incidents.append(
                {
                    "region": region,
                    "killed_unix_s": killed,
                    "detected_unix_s": detected,
                    "restarted_unix_s": restarted,
                    "attempts": attempts,
                    "detect_s": (
                        detected - killed if killed is not None else None
                    ),
                    "restart_s": restarted - detected,
                }
            )
            return
        position = await self._last_position(region)
        self.failure = (
            f"replica {region} died permanently: {attempts} restart "
            f"attempts exhausted; last position {position}"
        )
        self.incidents.append(
            {
                "region": region,
                "killed_unix_s": killed,
                "detected_unix_s": detected,
                "restarted_unix_s": None,
                "attempts": attempts,
                "gave_up": True,
            }
        )
        obs.TRACER.instant(
            "supervisor.gave_up", region=region, attempts=attempts
        )
        self.failed_event.set()

    async def _await_node_ready(
        self, region: str, node, timeout_s: float = 5.0
    ) -> None:
        """A restart only counts once the server answers status."""
        entry = self._topology["regions"][region]
        deadline = time.time() + timeout_s
        while True:
            if not node.alive:
                raise HarnessError(f"{region} died again while starting")
            try:
                await fetch_status(entry["host"], entry["client_port"])
                return
            except (ConnectionError, OSError, asyncio.TimeoutError):
                if time.time() > deadline:
                    raise HarnessError(
                        f"{region} restarted but never became ready"
                    ) from None
                await asyncio.sleep(0.02)

    async def _last_position(self, region: str) -> str:
        entry = self._topology["regions"][region]
        try:
            status = await fetch_status(entry["host"], entry["client_port"])
            return f"{status['position']}/{status['steps']}"
        except (ConnectionError, OSError, asyncio.TimeoutError):
            return "unreachable"


async def run_live(
    deployment: dict,
    workdir: str,
    time_scale: float = 0.05,
    deadline_s: float = 60.0,
    subprocess_servers: bool = False,
    fsync: bool = False,
    trace_dir: str | None = None,
    corrupt_regions: tuple[str, ...] = (),
    overload_limit: int = 0,
    scrub_ms: float = 0.0,
) -> LiveReport:
    """Execute one recorded deployment live and judge the digests.

    With ``trace_dir`` set the whole fleet traces: subprocess servers
    spool spans write-through (``serve --trace-dir``), the orchestrator
    (client fleet, proxy, in-process servers) records in memory and
    dumps at the end, and everything is stitched into one
    Perfetto-loadable ``trace.json`` under ``trace_dir``.

    Crash windows only *kill*; detection and restart belong to the
    :class:`Supervisor`, whose incident log (MTTR timestamps, restart
    attempts) lands in ``report.supervisor``.  ``corrupt_regions``
    seeds mid-file bit rot
    into those regions' durable state while they are down -- combined
    with a crash window this is the full self-healing scenario: kill,
    corrupt, detect, restart, salvage, scrub, converge.
    """
    if not time_scale > 0:
        # Every live clock (proxy trace time, client pacing, fault
        # windows) multiplies or divides by it.
        raise HarnessError(
            f"time_scale must be > 0 (live seconds per simulated "
            f"second), got {time_scale!r}"
        )
    trial = deployment["trial"]
    regions = tuple(trial["regions"])
    plan = FaultPlan.from_dict(trial.get("plan", {}))
    os.makedirs(workdir, exist_ok=True)
    if trace_dir is not None:
        os.makedirs(trace_dir, exist_ok=True)
        if not obs.TRACER.enabled:
            obs.configure(enabled=True)
        obs.TRACER.process_name = "harness"
    topology = build_topology(
        regions,
        overload_limit=overload_limit,
        scrub_ms=scrub_ms,
        fsync=fsync,
    )

    proxy = ChaosProxy(regions, plan, topology, time_scale=time_scale)
    await proxy.start()

    deployment_path = os.path.join(workdir, "deployment.json")
    topology_path = os.path.join(workdir, "topology.json")
    # One json.dumps call each: json.dump streams through the
    # pure-Python encoder, four times slower on the deployment.
    with open(deployment_path, "w", encoding="utf-8") as handle:
        handle.write(json.dumps(deployment))
    with open(topology_path, "w", encoding="utf-8") as handle:
        handle.write(json.dumps(topology))

    nodes: dict[str, object] = {}
    data_dir = os.path.join(workdir, "data")
    for region in regions:
        if subprocess_servers:
            nodes[region] = _SubprocessNode(
                deployment_path, topology_path, region, data_dir,
                trace_dir=trace_dir,
            )
        else:
            nodes[region] = _InprocessNode(
                deployment, topology, region, data_dir
            )
    mode = "subprocess" if subprocess_servers else "inprocess"

    crash_tasks: list[asyncio.Task] = []
    rot_tasks: list[asyncio.Task] = []
    supervisor_task: asyncio.Task | None = None
    started = time.time()
    try:
        for node in nodes.values():
            await node.start()
        await _await_ready(topology, regions, deadline_s)

        supervisor = Supervisor(
            nodes,
            topology,
            data_dir,
            corrupt_regions=corrupt_regions,
        )
        supervisor_task = asyncio.ensure_future(supervisor.run())

        epoch_unix_ms = time.time() * 1000.0
        proxy.set_epoch(epoch_unix_ms)
        for window in plan.crashes:
            crash_tasks.append(
                asyncio.ensure_future(
                    _crash_window(
                        nodes[window.region], window, epoch_unix_ms,
                        time_scale, supervisor,
                    )
                )
            )
        # Regions asked to rot that never crash get live bit rot: the
        # supervisor injects into *down* regions (salvage + startup
        # scrub heal it); running regions are the periodic scrub
        # loop's to heal, with no restart in the story.
        crashing = {window.region for window in plan.crashes}
        for region in corrupt_regions:
            if region in crashing:
                continue
            rot_tasks.append(
                asyncio.ensure_future(
                    _rot_live_region(
                        data_dir, region, started + deadline_s
                    )
                )
            )

        fleet = ClientFleet(deployment, topology, time_scale=time_scale)
        remaining = deadline_s - (time.time() - started)
        fleet_task = asyncio.ensure_future(fleet.run())
        failed_task = asyncio.ensure_future(supervisor.failed_event.wait())
        try:
            done, _pending = await asyncio.wait(
                {fleet_task, failed_task},
                timeout=max(remaining, 1.0),
                return_when=asyncio.FIRST_COMPLETED,
            )
            if failed_task in done:
                # A replica died for good: fail fast with the
                # supervisor's diagnosis instead of stalling the fleet
                # against its op deadlines.
                fleet_task.cancel()
                stuck = await _positions(topology, regions)
                return LiveReport(
                    ok=False,
                    reason=(
                        f"{supervisor.failure}; server positions: {stuck}"
                    ),
                    digests_live={},
                    digests_sim=dict(deployment["digests"]),
                    wall_s=time.time() - started,
                    client=dict(fleet.stats),
                    proxy=proxy.stats(),
                    crashes=len(plan.crashes),
                    mode=mode,
                    supervisor=supervisor.summary(),
                )
            if not done:
                fleet_task.cancel()
                raise asyncio.TimeoutError
            client_stats = fleet_task.result()
        except (asyncio.TimeoutError, ClientError) as exc:
            detail = (
                "client fleet deadline"
                if isinstance(exc, asyncio.TimeoutError)
                else str(exc)
            )
            stuck = await _positions(topology, regions)
            return LiveReport(
                ok=False,
                reason=f"{detail}; server positions: {stuck}",
                digests_live={},
                digests_sim=dict(deployment["digests"]),
                wall_s=time.time() - started,
                client=dict(fleet.stats),
                proxy=proxy.stats(),
                crashes=len(plan.crashes),
                mode=mode,
                supervisor=supervisor.summary(),
            )
        finally:
            failed_task.cancel()

        # The fleet is done; let every crash window play out (a restart
        # may still be pending) and every schedule drain.
        if crash_tasks:
            await asyncio.gather(*crash_tasks, return_exceptions=True)
        rotted: list[str] = []
        if rot_tasks:
            # Give live rot a bounded grace period (the flip waits for
            # the scrub loop's first durability point), then one full
            # scrub cycle past the flip so the repair is visible in
            # the statuses collected below.
            grace = min(
                max(scrub_ms * 4.0 / 1000.0, 1.0),
                max(started + deadline_s - time.time(), 0.1),
            )
            await asyncio.wait(rot_tasks, timeout=grace)
            for task in rot_tasks:
                if not task.done():
                    task.cancel()
                try:
                    path = await task
                except (asyncio.CancelledError, Exception):
                    path = None
                if path is not None:
                    rotted.append(path)
            if rotted and scrub_ms > 0:
                await asyncio.sleep(scrub_ms * 2.0 / 1000.0 + 0.1)
        statuses = await _await_schedules(
            topology,
            regions,
            deadline=started + deadline_s,
        )
        metrics = await _collect_metrics(topology, regions)
        wall_s = time.time() - started
        digests_live = {
            region: status["digest"] for region, status in statuses.items()
        }
        digests_sim = dict(deployment["digests"])
        ok = all(
            digests_live.get(region) == digests_sim.get(region)
            for region in regions
        )
        supervisor_summary = supervisor.summary()
        # MTTR closes at convergence: the revived replica's own
        # schedule draining means it caught back up with the run.
        mttrs = []
        for incident in supervisor_summary["incidents"]:
            completed = statuses.get(incident["region"], {}).get(
                "_completed_unix_s"
            )
            anchor = (
                incident.get("killed_unix_s")
                or incident["detected_unix_s"]
            )
            if completed is not None and anchor is not None:
                incident["mttr_s"] = completed - anchor
                mttrs.append(incident["mttr_s"])
        if mttrs:
            supervisor_summary["mttr_s"] = max(mttrs)
        if rotted:
            supervisor_summary.setdefault("corrupted_files", []).extend(
                rotted
            )
        return LiveReport(
            ok=ok,
            reason="" if ok else "digest mismatch",
            digests_live=digests_live,
            digests_sim=digests_sim,
            wall_s=wall_s,
            client=client_stats,
            servers={
                region: status["stats"]
                for region, status in statuses.items()
            },
            proxy=proxy.stats(),
            crashes=len(plan.crashes),
            mode=mode,
            metrics=metrics,
            conflicts={
                region: frame.get("conflicts", {})
                for region, frame in metrics.items()
            },
            trace=(
                os.path.join(trace_dir, "trace.json")
                if trace_dir is not None
                else None
            ),
            supervisor=supervisor_summary,
        )
    finally:
        if supervisor_task is not None:
            supervisor_task.cancel()
            try:
                await supervisor_task
            except (asyncio.CancelledError, Exception):
                pass
        for task in crash_tasks:
            task.cancel()
        for task in rot_tasks:
            task.cancel()
        for node in nodes.values():
            try:
                await node.stop()
            except Exception:
                pass
        await proxy.stop()
        if trace_dir is not None:
            # Subprocess spools are complete (write-through, and the
            # servers have exited); add this process's spans and stitch
            # the fleet into one Perfetto-loadable trace.
            obs.dump_process(trace_dir, name="harness")
            obs.write_stitched(
                trace_dir, os.path.join(trace_dir, "trace.json")
            )


async def _crash_window(
    node, window, epoch_unix_ms, time_scale, supervisor
) -> None:
    """Kill at the window's open, and nothing else.

    Recovery is the :class:`Supervisor`'s job, which is the point: the
    fleet heals with zero restart intervention from the harness.
    """
    now_ms = time.time() * 1000.0 - epoch_unix_ms
    await asyncio.sleep(
        max(0.0, (window.start_ms * time_scale - now_ms) / 1000.0)
    )
    await node.crash()
    supervisor.note_kill(window.region)


async def _await_ready(topology, regions, deadline_s: float) -> None:
    deadline = time.time() + deadline_s
    for region in regions:
        entry = topology["regions"][region]
        while True:
            try:
                await fetch_status(entry["host"], entry["client_port"])
                break
            except (ConnectionError, OSError, asyncio.TimeoutError):
                if time.time() > deadline:
                    raise HarnessError(
                        f"server for {region} never became ready"
                    ) from None
                await asyncio.sleep(0.05)


async def _collect_metrics(topology, regions) -> dict:
    """One end-of-run metrics frame per region (best effort)."""
    metrics: dict[str, dict] = {}
    for region in regions:
        entry = topology["regions"][region]
        try:
            metrics[region] = await fetch_metrics(
                entry["host"], entry["client_port"]
            )
        except (ClientError, ConnectionError, OSError, asyncio.TimeoutError):
            pass
    return metrics


async def _positions(topology, regions) -> dict:
    positions = {}
    for region in regions:
        entry = topology["regions"][region]
        try:
            status = await fetch_status(entry["host"], entry["client_port"])
            positions[region] = f"{status['position']}/{status['steps']}"
            if status.get("error"):
                positions[region] += f" (engine error: {status['error']})"
        except (ConnectionError, OSError, asyncio.TimeoutError):
            positions[region] = "unreachable"
    return positions


async def _await_schedules(topology, regions, deadline: float) -> dict:
    """Every server's final status, or a diagnostic HarnessError."""
    statuses: dict[str, dict] = {}
    for region in regions:
        entry = topology["regions"][region]
        while True:
            try:
                status = await fetch_status(
                    entry["host"], entry["client_port"]
                )
                if status["done"]:
                    status["_completed_unix_s"] = time.time()
                    statuses[region] = status
                    break
            except (ConnectionError, OSError, asyncio.TimeoutError):
                status = None
            if time.time() > deadline:
                stuck = await _positions(topology, regions)
                raise HarnessError(
                    f"schedules did not drain by the deadline; "
                    f"positions: {stuck}"
                )
            await asyncio.sleep(0.05)
    return statuses
