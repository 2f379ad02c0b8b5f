"""The five ledger workloads: inputs from a seed, a measured run, checks.

Every workload is two functions over plain data:

- ``setup(seed, size)`` derives every input from the seed (a list of
  ``TrialSpec``, a deployment dict, an operation mix) and returns it;
  its wall time is part of ``setup_s``;
- ``measure(inputs, size, run)`` drives the program with those inputs
  ``run.reps`` times, times the measured regions, checks the outputs
  and returns an :class:`Outcome`.

Load comes from this one process and thread; live servers run
in-process on the one asyncio loop.  The program only ever sees the
generated inputs -- no workload name or seed reaches it.
"""

from __future__ import annotations

import asyncio
import dataclasses
import hashlib
import json
import os
import random
import tempfile
import traceback
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from statistics import median

from repro.analysis import run_ipa
from repro.apps.ticket import ticket_spec
from repro.apps.tournament import tournament_spec
from repro.apps.tpcw import tpcw_spec
from repro.apps.twitter import twitter_spec
from repro.bench.configs import CONFIGS, build_tournament
from repro.check.explorer import PLAN_KINDS, build_trial
from repro.check.harness import run_trial
from repro.net import harness as net_harness
from repro.net.client import ClientFleet
from repro.net.oracle import record_trial
from repro.net.server import ReplicaServer
from repro.obs import monotonic, quantile
from repro.sim.latency import REGIONS
from repro.sim.metrics import MetricsCollector
from repro.sim.runner import run_closed_loop
from repro.store.cluster import replica_state_digest

# -- known gaps ---------------------------------------------------------------

#: Defects found while sizing the workloads.  They are recorded, not
#: worked around under ``src/``; each says which workload parameter it
#: forced.  Printed under ``gaps`` in the JSON report and in the README.
GAPS = {
    "a": (
        "net/wire.py::_build_registry never scans crdts/pattern.py, so "
        "every IPA live replay of tournament/twitter/tpcw dies with "
        "'WireError: unregistered wire class Pattern' and stalls to "
        "the deadline -- live-replay therefore runs the Causal config"
    ),
    "b": (
        "FileEngine.restore pickles compset objects holding the "
        "max_size_constraint.<locals>.check closure, so IPA tournament "
        "on engine=file crashes at its first checkpoint (>= 1024 log "
        "records) -- the sim workloads therefore use memory x 1"
    ),
    "c": (
        "run_live(time_scale=0) divides by zero in "
        "net/proxy.py::_trace_now_ms -- live-replay uses 0.0005"
    ),
    "d": (
        "Cluster.start_stability_service compacts with the "
        "instantaneous pointwise-min vector while replication is still "
        "in flight, so RWSet.compact can drop a tombstone a concurrent "
        "add has yet to meet: at the sim-write-heavy size, "
        "build_tournament(seed=5 or 23) with the stock service leaves "
        "the IPA 'finished' set different in one region (vectors "
        "equal, digests not) -- the sim workloads therefore drive "
        "Replica.compact/compact_log themselves, on the same 1 s "
        "cadence, with a stable vector observed 150 ms earlier (longer "
        "than batch window + widest one-way delay)"
    ),
    "e": (
        "the IPA tournament strands a match when finish(t) races "
        "begin(t) after the racing disenroll was refused by a crashed "
        "region: rem-wins clears both active(t) and finished(t) "
        "(build_trial('tournament', 'IPA', 23, 8 or 23, n_ops=300) on "
        "the enlarged universe, partition-crash plans) -- check-sweep "
        "reports such trials "
        "under known_gap_hits instead of failing on them; any other "
        "IPA violation fails the run"
    ),
}

#: Gap (e)'s signature: (app, invariant-name prefix).
_KNOWN_IPA_VIOLATION = (
    "tournament",
    "forall(Player: p, q, Tournament: t) :- inMatch(p, q, t) =>",
)


# -- shared plumbing ----------------------------------------------------------


@dataclass
class Outcome:
    """What one measured workload produced."""

    named: dict[str, float]
    exact: dict[str, object]
    attempted: int
    failed: int
    checks: list[tuple[str, bool, str]]
    #: seconds of set-up that can only happen inside ``measure``
    #: (live server start-up); added to ``setup_s``
    setup_extra_s: float = 0.0
    #: raw material for the per-layer metrics of a traced run
    extras: dict = field(default_factory=dict)

    @property
    def correct(self) -> bool:
        return self.failed == 0 and all(ok for _n, ok, _d in self.checks)


class Run:
    """One measured pass: repetitions, scratch space, optional ledger."""

    def __init__(self, workdir: str, reps: int, ledger=None) -> None:
        self.workdir = workdir
        self.reps = reps
        self.ledger = ledger
        #: wall seconds spent inside :meth:`measuring` blocks
        self.measured_s = 0.0

    def fresh_dir(self, label: str) -> str:
        return tempfile.mkdtemp(prefix=f"{label}-", dir=self.workdir)

    @contextmanager
    def measuring(self):
        """The measured region; a traced run records only inside it."""
        ledger = self.ledger
        started = monotonic()
        if ledger is not None:
            ledger.on = True
        try:
            yield
        finally:
            if ledger is not None:
                ledger.on = False
            self.measured_s += monotonic() - started

    def span(self, name: str, op: str | None = None):
        if self.ledger is None:
            return nullcontext()
        return self.ledger.span(name, op)


def _sha(parts) -> str:
    digest = hashlib.sha256()
    for part in parts:
        digest.update(str(part).encode())
        digest.update(b"\n")
    return digest.hexdigest()[:16]


def _slice_rate(points: list[tuple[float, int]]) -> float:
    """Median work-per-second over the slices between probe points.

    ``points`` are ``(wall clock, work done so far)``.  The sandbox's
    clock speed wanders by several percent from one second to the
    next; the median slice is what a run typically sustains and is far
    steadier across runs than total work over total time.
    """
    rates = [
        (done - before) / (now - then)
        for (then, before), (now, done) in zip(points, points[1:])
        if now > then and done > before
    ]
    return median(rates)


# -- analyze ------------------------------------------------------------------

_SPECS = {
    "tournament": tournament_spec,
    "ticket": ticket_spec,
    "twitter": twitter_spec,
    "tpcw": tpcw_spec,
}


def analyze_setup(seed: int, size: dict) -> dict:
    # The analysis is a pure function of the specs; the seed only
    # orders them (each app is analysed independently).
    apps = list(size["apps"])
    random.Random(seed).shuffle(apps)
    return {"specs": [(name, _SPECS[name]()) for name in apps]}


def _analyze_pass(specs, cache_dir: str) -> tuple[float, list[dict]]:
    """One ``bench.figures.analysis_speed(jobs=1, cache_dir=...)`` pass.

    Same calls, with the app list taken from the size table so the
    smoke size can leave out the 9 s tournament analysis.
    """
    rows = []
    started = monotonic()
    for name, spec in specs:
        result = run_ipa(spec, jobs=1, cache_dir=cache_dir)
        rows.append(
            {
                "app": name,
                "queries": result.solver_queries,
                "solves": result.stats.solver_solves,
                "cache_hits": result.stats.cache_hits,
                "resolved": result.is_invariant_preserving,
                "fingerprint": result.fingerprint(),
            }
        )
    return monotonic() - started, rows


def analyze_measure(inputs: dict, size: dict, run: Run) -> Outcome:
    specs = inputs["specs"]
    cold_s, warm_s = [], []
    checks: list[tuple[str, bool, str]] = []
    attempted = failed = 0
    exact: dict[str, object] = {}
    for _rep in range(run.reps):
        cache_dir = run.fresh_dir("ipa-cache")
        with run.measuring():
            seconds, cold = _analyze_pass(specs, cache_dir)
            cold_s.append(seconds)
            warm_passes = []
            for _ in range(size["warm_passes"]):
                seconds, warm = _analyze_pass(specs, cache_dir)
                warm_s.append(seconds)
                warm_passes.append(warm)
        attempted += len(specs) * (1 + len(warm_passes))
        for row in cold:
            if not row["resolved"]:
                failed += 1
        for warm in warm_passes:
            for before, after in zip(cold, warm):
                same = (
                    before["fingerprint"] == after["fingerprint"]
                    and before["queries"] == after["queries"]
                    and after["solves"] == 0
                    and after["resolved"]
                )
                if not same:
                    failed += 1
        exact = {
            "solver_queries": sum(row["queries"] for row in cold),
            "solver_solves_cold": sum(row["solves"] for row in cold),
            "solver_solves_warm": sum(
                row["solves"] for warm in warm_passes for row in warm
            ),
            "analysis_fingerprint": _sha(
                sorted((row["app"], row["fingerprint"]) for row in cold)
            ),
        }
    checks.append(
        ("every app fully resolved; cold and warm fingerprints and "
         "query counts equal; warm passes solve nothing",
         failed == 0, f"{failed} of {attempted} analyses"),
    )
    return Outcome(
        named={
            "analyze_cold_s": median(cold_s),
            "analyze_warm_s": median(warm_s),
            "analyze_cold_queries_per_s": (
                exact["solver_queries"] / median(cold_s)
            ),
            "analyze_warm_queries_per_s": (
                exact["solver_queries"] / median(warm_s)
            ),
        },
        exact=exact,
        attempted=attempted,
        failed=failed,
        checks=checks,
    )


# -- sim-paper-mix / sim-write-heavy ------------------------------------------

_CONFIG = {config.name: config for config in CONFIGS}

#: Stability cadence of ``build_tournament`` and the lag gap (d) forces:
#: batch window (25 ms) + widest one-way delay (80 ms) < 150 ms.
_STABILITY_MS = 1_000.0
_STABILITY_LAG_MS = 150.0


def _deploy_tournament(config_name: str, recipe: dict):
    """One fresh simulated tournament deployment, stability included.

    Returns ``(sim, cluster, workload, watch)``; ``watch`` collects
    what the once-a-simulated-second tick sees: the deepest causal
    buffer, and ``(wall clock, ops done)`` probe points once the
    caller sets ``watch["ops_done"]``.
    """
    sim, app, workload = build_tournament(
        _CONFIG[config_name],
        n_players=recipe["n_players"],
        n_tournaments=recipe["n_tournaments"],
        capacity=recipe["capacity"],
        seed=recipe["seed"],
        jitter=0.0,
        batch_ms=25.0,
        mix=recipe["mix"],
        engine="memory",
        shards=1,
        stability_interval_ms=None,  # gap (d): driven below instead
    )
    cluster = app.cluster
    replicas = [cluster.replica(region) for region in cluster.regions]
    receivers = [cluster.receiver(region) for region in cluster.regions]
    watch = {"pending_max": 0, "ops_done": None, "probes": []}

    def observe() -> None:
        pending = max(receiver.pending_count for receiver in receivers)
        if pending > watch["pending_max"]:
            watch["pending_max"] = pending
        if watch["ops_done"] is not None:
            watch["probes"].append((monotonic(), watch["ops_done"]()))
        sim.schedule(_STABILITY_LAG_MS, compact, cluster.stable_vector())

    def compact(stable) -> None:
        for replica in replicas:
            replica.compact(stable)
            replica.compact_log(stable, min_records=1024)
        sim.schedule(_STABILITY_MS - _STABILITY_LAG_MS, observe)

    sim.schedule(_STABILITY_MS - _STABILITY_LAG_MS, observe)
    return sim, cluster, workload, watch


def sim_setup(seed: int, size: dict) -> dict:
    recipe = {
        "seed": seed,
        "mix": dict(size["mix"]) if size["mix"] else None,
        "n_players": size["n_players"],
        "n_tournaments": size["n_tournaments"],
        "capacity": size["capacity"],
    }
    # Building the deployments (population + initial replication) is
    # set-up; measure() builds its own fresh pair the same way.
    for config_name in ("Causal", "IPA"):
        _deploy_tournament(config_name, recipe)
    return recipe


def sim_measure(recipe: dict, size: dict, run: Run) -> Outcome:
    rates: dict[str, list[float]] = {"Causal": [], "IPA": []}
    walls: dict[str, list[float]] = {"Causal": [], "IPA": []}
    exact: dict[str, object] = {}
    extras: dict = {"sim_events": 0, "replication_messages": 0,
                    "pending_max": 0}
    checks: list[tuple[str, bool, str]] = []
    attempted = failed = 0
    duration_ms = size["sim_s"] * 1000.0
    for _rep in range(run.reps):
        for config_name in ("Causal", "IPA"):
            sim, cluster, workload, watch = _deploy_tournament(
                config_name, recipe
            )
            metrics = MetricsCollector(
                warmup_ms=sim.now, window_ms=duration_ms
            )
            with run.measuring():
                started = monotonic()
                watch["ops_done"] = metrics.total_operations
                watch["probes"].append((started, 0))
                run_closed_loop(
                    sim,
                    workload.issue,
                    {region: size["clients"] for region in REGIONS},
                    duration_ms=duration_ms,
                    warmup_ms=0.0,
                    think_ms=100.0,
                    metrics=metrics,
                )
                converged_ms = cluster.run_until_converged()
                walls[config_name].append(monotonic() - started)
            watch["ops_done"] = None
            rates[config_name].append(_slice_rate(watch["probes"]))
            ops = metrics.total_operations()
            digests = cluster.state_digest()
            retried = metrics.counter("client.retries") + metrics.counter(
                "client.timeouts"
            )
            agreed = (
                converged_ms is not None
                and cluster.converged()
                and len(set(digests.values())) == 1
            )
            attempted += ops
            failed += retried + (0 if agreed else ops)
            checks.append(
                (f"{config_name}: converged, one state digest across "
                 "regions, no retried op",
                 agreed and retried == 0,
                 f"converged_ms={converged_ms} "
                 f"digests={len(set(digests.values()))} retried={retried}"),
            )
            key = config_name.lower()
            exact[f"sim_{key}_ops"] = ops
            exact[f"sim_{key}_events"] = sim._seq
            exact[f"sim_{key}_replication_messages"] = (
                cluster.replication_messages
            )
            exact[f"sim_{key}_digest"] = _sha(sorted(digests.items()))
            extras["sim_events"] += sim._seq
            extras["replication_messages"] += cluster.replication_messages
            extras["pending_max"] = max(
                extras["pending_max"], watch["pending_max"]
            )
            extras["cluster"] = cluster  # the IPA one ends up harvested
    return Outcome(
        named={
            "sim_causal_ops_per_s": median(rates["Causal"]),
            "sim_ipa_ops_per_s": median(rates["IPA"]),
            # run + run_until_converged, whole: for the record
            "sim_causal_wall_s": median(walls["Causal"]),
            "sim_ipa_wall_s": median(walls["IPA"]),
        },
        exact=exact,
        attempted=attempted,
        failed=failed,
        checks=checks,
        extras=extras,
    )


# -- check-sweep --------------------------------------------------------------

_CHECK_APPS = ("tournament", "twitter", "tpcw", "ticket")


def check_setup(seed: int, size: dict) -> dict:
    """``{config: [(app, trial index, spec), ...]}``, index-major.

    Trials of one (app, fault-plan kind) group are spread across the
    pass rather than run back to back, so a slow stretch of the
    sandbox cannot land on a whole group (see :func:`_typical_s`).
    """
    specs: dict[str, list] = {"Causal": [], "IPA": []}
    for config in specs:
        for index in range(size["trials"]):
            for app in _CHECK_APPS:
                spec = build_trial(
                    app, config, seed, index,
                    n_ops=size["n_ops"], params=size["params"][app],
                )
                specs[config].append(
                    (app, index,
                     dataclasses.replace(spec, engine="memory", shards=1))
                )
    return specs


def _typical_s(times: dict[tuple, list[float]]) -> float:
    """Seconds one pass typically takes: per-group medians, summed.

    A group is the trials of one app under one fault-plan kind (equal
    work to within the seed); its median trial time, times its size,
    is steadier than the group's sum when the clock speed wanders.
    """
    return sum(len(group) * median(group) for group in times.values())


def check_measure(specs: dict, size: dict, run: Run) -> Outcome:
    times: dict[str, dict[tuple, list[float]]] = {"Causal": {}, "IPA": {}}
    fingerprints: list[str] = []
    violating: dict[tuple[str, str], int] = {}
    errors: list[str] = []
    counts = {"issued": 0, "refused": 0, "not_converged": 0,
              "unexpected_ipa": 0, "known_gap_hits": 0}
    attempted = 0
    for _rep in range(run.reps):
        fingerprints.clear()
        for config, trials in specs.items():
            results = []
            with run.measuring():
                for app, index, spec in trials:
                    started = monotonic()
                    try:
                        with run.span(
                            "check.harness.trial",
                            op=f"trial:{app}:{config}:{index}",
                        ):
                            results.append(run_trial(spec))
                    except Exception:
                        # A trial must not take the sweep down with it;
                        # it counts as failed, with its traceback.
                        results.append(None)
                        errors.append(
                            f"{app}/{config}#{index}: "
                            + traceback.format_exc(limit=3)
                        )
                    times[config].setdefault(
                        (app, index % len(PLAN_KINDS)), []
                    ).append(monotonic() - started)
            attempted += len(trials)
            for (app, _index, _spec), result in zip(trials, results):
                if result is None:
                    continue
                fingerprints.append(result.fingerprint)
                counts["issued"] += result.issued
                counts["refused"] += result.refused
                if result.converged_ms is None:
                    counts["not_converged"] += 1
                if not result.violations:
                    continue
                violating[app, config] = violating.get((app, config), 0) + 1
                if config == "IPA":
                    known = all(
                        app == _KNOWN_IPA_VIOLATION[0]
                        and v.oracle == "invariant"
                        and v.name.startswith(_KNOWN_IPA_VIOLATION[1])
                        for v in result.violations
                    )
                    counts[
                        "known_gap_hits" if known else "unexpected_ipa"
                    ] += 1
    falsified = [
        app for app in _CHECK_APPS if violating.get((app, "Causal"), 0) > 0
    ]
    failed = len(errors) + counts["not_converged"] + counts["unexpected_ipa"]
    checks = [
        ("every app has a violating Causal trial",
         len(falsified) == len(_CHECK_APPS), f"falsified={falsified}"),
        ("no IPA trial violates (known gap (e) hits listed apart)",
         counts["unexpected_ipa"] == 0,
         f"unexpected={counts['unexpected_ipa']} "
         f"known_gap_hits={counts['known_gap_hits']}"),
        ("every trial converged and none raised",
         counts["not_converged"] == 0 and not errors,
         f"not_converged={counts['not_converged']} errors={errors[:2]}"),
    ]
    n_causal, n_ipa = len(specs["Causal"]), len(specs["IPA"])
    causal_s = _typical_s(times["Causal"]) / run.reps
    ipa_s = _typical_s(times["IPA"]) / run.reps
    return Outcome(
        named={
            "check_trials_per_s": (n_causal + n_ipa) / (causal_s + ipa_s),
            "check_causal_trials_per_s": n_causal / causal_s,
            "check_ipa_trials_per_s": n_ipa / ipa_s,
        },
        exact={
            "causal_trials": n_causal,
            "ipa_trials": n_ipa,
            "trial_fingerprint": _sha(fingerprints),
            "ops_issued": counts["issued"] // run.reps,
            "ops_refused_by_crashed_region": counts["refused"] // run.reps,
            "violating_causal_trials": sum(
                n for (_a, config), n in violating.items()
                if config == "Causal"
            ) // run.reps,
            "known_gap_hits": counts["known_gap_hits"] // run.reps,
        },
        attempted=attempted,
        failed=failed,
        checks=checks,
    )


# -- live-replay --------------------------------------------------------------


@contextmanager
def _timed_fleet():
    """Substitute a latency-timing fleet into ``repro.net.harness``.

    The stock fleet, timing each op from first send to its ack (every
    retry included, tracing off); ``run`` notes when load starts so
    server start-up can be told from the replay.  Yields the two lists
    it fills: ``(acked at, latency in s)`` per op, and load-start
    instants.
    """
    acks: list[tuple[float, float]] = []
    started_at: list[float] = []

    class TimedFleet(ClientFleet):
        async def run(self) -> dict:
            started_at.append(monotonic())
            return await super().run()

        async def _send_op(self, op, addr, policy, reader, writer):
            sent = monotonic()
            result = await super()._send_op(op, addr, policy, reader, writer)
            acked_at = monotonic()
            acks.append((acked_at, acked_at - sent))
            return result

    stock = net_harness.ClientFleet
    net_harness.ClientFleet = TimedFleet
    try:
        yield acks, started_at
    finally:
        net_harness.ClientFleet = stock


def live_setup(seed: int, size: dict) -> dict:
    spec = dataclasses.replace(
        build_trial("twitter", "Causal", seed, 0, n_ops=size["n_ops"]),
        engine="file",
        shards=4,
    )
    _result, deployment = record_trial(spec)
    return deployment


def _disk_bytes(data_dir: str) -> tuple[int, int]:
    """(commit-log bytes, store bytes) under one replay's data dir."""
    log_bytes = store_bytes = 0
    for root, _dirs, files in os.walk(data_dir):
        in_store = os.path.basename(root).endswith("-store") or (
            "-store" + os.sep in root + os.sep
        )
        for name in files:
            size = os.path.getsize(os.path.join(root, name))
            if name.endswith(".commitlog"):
                log_bytes += size
            elif in_store:
                store_bytes += size
    return log_bytes, store_bytes


def _recover(deployment, topology, data_dir, regions, run: Run):
    """Construct every region's server over the finished replay's files.

    Construction *is* recovery: commit-log replay, ``adopt_log`` and
    the startup scrub all run in ``ReplicaServer.__init__``.  Returns
    ({region: seconds}, records recovered, digests).
    """
    seconds = {}
    records = 0
    digests = {}
    for region in regions:
        with run.measuring():
            started = monotonic()
            server = ReplicaServer(deployment, topology, region, data_dir)
            seconds[region] = monotonic() - started
        records += len(server.node.store.log)
        digests[region] = replica_state_digest(server.node.store)
        server.kill()  # releases log, ledger and hint handles
        server.node.store.storage.close()
    return seconds, records, digests


def live_measure(deployment: dict, size: dict, run: Run) -> Outcome:
    regions = tuple(deployment["trial"]["regions"])
    sessions = {op["session"] for op in deployment["ops"]}
    committing = sum(1 for op in deployment["ops"] if op["send"])
    acked = 0
    start_s: list[float] = []
    replay_rates: list[float] = []
    recovery_s: dict[str, list[float]] = {region: [] for region in regions}
    recovered_records = 0
    disk = {"log": 0, "store": 0}
    client_frames = 0
    checks: list[tuple[str, bool, str]] = []
    attempted = failed = 0
    bad_replays: list[str] = []
    bad_recoveries: list[dict] = []
    with _timed_fleet() as (acks, load_started):
        for _replay in range(run.reps * size["replays"]):
            workdir = run.fresh_dir("replay")
            with run.measuring():
                called = monotonic()
                report = asyncio.run(
                    net_harness.run_live(
                        deployment,
                        workdir,
                        time_scale=size["time_scale"],
                        subprocess_servers=False,
                        fsync=False,
                    )
                )
            if len(load_started) > len(start_s):
                start_s.append(load_started[-1] - called)
            client = report.client
            done = int(client.get("client.ops_acked", 0))
            acked += done
            if client.get("client.wall_s"):
                replay_rates.append(done / client["client.wall_s"])
            client_frames += int(client.get("client.frames_sent", 0))
            shed = int(
                client.get("client.timeouts", 0)
                + client.get("client.sheds", 0)
            )
            attempted += committing
            failed += (committing - done) + shed
            if not (report.ok and report.digest_match):
                bad_replays.append(report.reason or "digest mismatch")
            data_dir = os.path.join(workdir, "data")
            log_bytes, store_bytes = _disk_bytes(data_dir)
            disk["log"] += log_bytes
            disk["store"] += store_bytes
            with open(
                os.path.join(workdir, "topology.json"), encoding="utf-8"
            ) as handle:
                topology = json.load(handle)
            for _ in range(size["recoveries"]):
                seconds, records, digests = _recover(
                    deployment, topology, data_dir, regions, run
                )
                for region, spent in seconds.items():
                    recovery_s[region].append(spent)
                recovered_records = records
                if digests != report.digests_live:
                    failed += 1
                    bad_recoveries.append(digests)
    checks.append(
        ("every replay ok, digests equal the simulator's",
         not bad_replays, f"{bad_replays[:1]}" if bad_replays else ""),
    )
    checks.append(
        ("every recovery digests like the live replicas",
         not bad_recoveries, f"{bad_recoveries[:1]}" if bad_recoveries else ""),
    )
    latencies_ms = sorted(latency * 1000.0 for _at, latency in acks)
    beyond_p99 = len(latencies_ms) - int(len(latencies_ms) * 0.99)
    # Each region's median over the recoveries, summed over regions.
    recovery_total_s = sum(median(spent) for spent in recovery_s.values())
    return Outcome(
        named={
            # The replay slows steadily as the state the conflict
            # detector grounds grows (from ~520 to ~90 ops/s over 1 500
            # ops), so there is no typical slice to take a median of;
            # what noise there is only ever slows a replay, so the
            # fastest replay is the steadiest whole-replay figure.
            "live_ops_per_s": max(replay_rates, default=0.0),
            "live_ack_p50_ms": quantile(latencies_ms, 0.50),
            "live_ack_p99_ms": quantile(latencies_ms, 0.99),
            "live_recovery_s": recovery_total_s,
            "live_recovery_records_per_s": (
                recovered_records / recovery_total_s
            ),
            "live_disk_bytes_per_op": (
                (disk["log"] + disk["store"]) / (acked * len(regions))
                if acked
                else 0.0
            ),
            "live_median_replay_ops_per_s": (
                median(replay_rates) if replay_rates else 0.0
            ),
        },
        exact={
            "committing_ops": committing,
            "acked_ops": acked // (run.reps * size["replays"]),
            "sessions": len(sessions),
            "recovered_records": recovered_records,
            "ack_samples": len(latencies_ms),
            "ack_samples_beyond_p99": beyond_p99,
        },
        attempted=attempted,
        failed=failed,
        checks=checks,
        setup_extra_s=median(start_s) if start_s else 0.0,
        extras={
            "log_bytes": disk["log"],
            "store_bytes": disk["store"],
            "client_frames": client_frames,
        },
    )


# -- the one table ------------------------------------------------------------

_PAPER_MIX = None  # build_tournament's default: the paper's 65 % status
_WRITE_MIX = {
    "status": 10.0, "enroll": 25.0, "disenroll": 20.0, "begin": 10.0,
    "finish": 10.0, "do_match": 20.0, "remove": 5.0,
}
_CHECK_PARAMS = {
    "tournament": {"n_players": 150, "n_tournaments": 40},
    "twitter": {"n_users": 40},
    "tpcw": {"n_products": 40},
    "ticket": {"n_events": 30},
}


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    setup: object
    measure: object
    full: dict
    smoke: dict
    #: how many times set-up runs for the ``setup_s`` median
    setup_reps: int = 3


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "analyze",
            "the paper's tool itself: solver, analysis and logic do all "
            "the work and no store or net code runs, so it bypasses "
            "every runtime optimisation",
            analyze_setup,
            analyze_measure,
            full={"apps": ("tournament", "ticket", "twitter", "tpcw"),
                  "warm_passes": 3},
            smoke={"apps": ("ticket", "tpcw"), "warm_passes": 1},
        ),
        Workload(
            "sim-paper-mix",
            "Figure 4/5's read-dominated mix on a tiny working set: "
            "sim.events, store.cluster and CRDT reads dominate; net, "
            "engines and oracles do nothing",
            sim_setup,
            sim_measure,
            full={"mix": _PAPER_MIX, "n_players": 60, "n_tournaments": 12,
                  "capacity": 8, "clients": 128, "sim_s": 100.0},
            smoke={"mix": _PAPER_MIX, "n_players": 60, "n_tournaments": 12,
                   "capacity": 8, "clients": 16, "sim_s": 5.0},
        ),
        Workload(
            "sim-write-heavy",
            "the same store and CRDT layers the other way round: "
            "prepare/effect, causal delivery, rem-wins tombstones and "
            "compaction dominate on a working set eight times larger",
            sim_setup,
            sim_measure,
            full={"mix": _WRITE_MIX, "n_players": 500,
                  "n_tournaments": 100, "capacity": 32, "clients": 128,
                  "sim_s": 30.0},
            smoke={"mix": _WRITE_MIX, "n_players": 500,
                   "n_tournaments": 100, "capacity": 32, "clients": 16,
                   "sim_s": 3.0},
        ),
        Workload(
            "check-sweep",
            "the checker's oracle-bound regime: check.oracles, compile "
            "and extract dominate, plus sim.faults and anti-entropy "
            "that no other workload touches",
            check_setup,
            check_measure,
            full={"trials": 25, "n_ops": 300, "params": _CHECK_PARAMS},
            smoke={"trials": 5, "n_ops": 100, "params": _CHECK_PARAMS},
        ),
        Workload(
            "live-replay",
            "the only workload where net.wire, net.commitlog, engine "
            "sync, store.conflicts and sockets run: everything the "
            "simulated workloads bypass",
            live_setup,
            live_measure,
            full={"n_ops": 1500, "time_scale": 0.0005, "replays": 2,
                  "recoveries": 3},
            smoke={"n_ops": 120, "time_scale": 0.0005, "replays": 1,
                   "recoveries": 2},
            setup_reps=1,  # record_trial alone takes 3 s
        ),
    )
}
