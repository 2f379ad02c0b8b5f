"""Live-cluster end-to-end: real sockets, chaos proxy, crash recovery.

Each test records a simulated trial and replays it against a real
3-region asyncio cluster (one server per region, a chaos link per
directed pair), then asserts the final state digests are byte-identical
to the simulator's.  ``time_scale`` compresses the trace clock so a
multi-second simulated trace replays in tens of milliseconds; the
``timeout`` marks are enforced by pytest-timeout in CI so a stuck gate
fails the job instead of hanging it.
"""

import asyncio
import gc
import json
import os
from pathlib import Path

import pytest

from repro.check.explorer import PLAN_KINDS, build_trial
from repro.check.oracles import InvariantOracle, reference_check
from repro.net.harness import HarnessError, run_live
from repro.net.oracle import record_trial
from repro.net.server import resume_position
from repro.store.conflicts import ConflictDetector, open_ledgers

FIXTURES = Path(__file__).parent / "fixtures"


def run(
    tmp_path, index, n_ops=25, time_scale=0.02, app="tournament",
    config="Causal", **kwargs
):
    spec = build_trial(app, config, 11, index, n_ops=n_ops)
    _, deployment = record_trial(spec)
    report = asyncio.run(
        run_live(
            deployment,
            str(tmp_path),
            time_scale=time_scale,
            deadline_s=kwargs.pop("deadline_s", 60.0),
            **kwargs,
        )
    )
    return deployment, report


@pytest.mark.timeout(90)
class TestLiveDigestEquality:
    def test_clean_plan(self, tmp_path):
        assert PLAN_KINDS[0] == "clean"
        _, report = run(tmp_path, index=0)
        assert report.ok, report.reason
        assert report.digest_match
        assert report.client["client.ops_acked"] > 0

    def test_lossy_plan(self, tmp_path):
        assert PLAN_KINDS[1] == "lossy"
        _, report = run(tmp_path, index=1)
        assert report.ok, report.reason
        assert report.digest_match

    def test_partition_plan(self, tmp_path):
        assert PLAN_KINDS[2] == "partition"
        _, report = run(tmp_path, index=2)
        assert report.ok, report.reason
        assert report.digest_match

    def test_partition_crash_plan_kills_and_recovers(self, tmp_path):
        """The tentpole: a replica is killed mid-run, restarts from its
        durable commit log, and the cluster still converges to the
        simulator's exact digests."""
        assert PLAN_KINDS[3] == "partition-crash"
        deployment, report = run(
            tmp_path, index=3, time_scale=0.05, deadline_s=90.0
        )
        assert report.crashes == 1
        assert report.ok, report.reason
        assert report.digest_match

    def test_heavy_plan(self, tmp_path):
        assert PLAN_KINDS[4] == "heavy"
        _, report = run(tmp_path, index=4, time_scale=0.05)
        assert report.ok, report.reason
        assert report.digest_match


    def test_ipa_twitter_replays_wildcard_removes(self, tmp_path, monkeypatch):
        """IPA configs ship ``Pattern`` payloads (unregistered on the
        wire until PR 13), and rem-wins Twitter is the one live run
        that drives the detector's reference-hiding view: every check's
        violations must equal a full evaluation."""
        checks = _assert_full_evaluation(monkeypatch)
        _, report = run(
            tmp_path, index=2, n_ops=60, app="twitter", config="IPA"
        )
        assert report.ok, report.reason
        assert report.digest_match
        assert len({region for region, _ in checks}) == 3
        assert len(checks) > 60

    @pytest.mark.parametrize("app", ["tournament", "tpcw"])
    def test_ipa_views_match_full_evaluation(self, tmp_path, monkeypatch, app):
        """The other IPA views on the live path: tournament's capacity
        trims and TPC-W's numeric stock cells."""
        checks = _assert_full_evaluation(monkeypatch)
        _, report = run(tmp_path, index=2, n_ops=60, app=app, config="IPA")
        assert report.ok, report.reason
        assert report.digest_match
        assert len({region for region, _ in checks}) == 3
        assert len(checks) > 60

    def test_nonpositive_time_scale_is_rejected_up_front(self, tmp_path):
        for bad in (0, 0.0, -1.0, float("nan")):
            with pytest.raises(HarnessError, match="time_scale must be > 0"):
                run(tmp_path / "never", index=0, time_scale=bad)
        assert not (tmp_path / "never").exists()  # before any side effect

    def test_corrupting_a_region_without_a_crash_window_is_rejected(self, tmp_path):
        """Rot is seeded into a commit log while its region is down, so
        a region that never goes down cannot be corrupted: loud, and
        before any side effect."""
        assert PLAN_KINDS[0] == "clean"  # no crash windows at all
        with pytest.raises(HarnessError, match="cannot corrupt us-east"):
            run(tmp_path / "never", index=0, corrupt_regions=("us-east",))
        assert not (tmp_path / "never").exists()


def _assert_full_evaluation(monkeypatch) -> list:
    """Patch every live check to assert its violations equal the
    product loop's full evaluation of a fresh ``extract``; returns the
    list of (region, violations) it fills."""
    checks = []
    incremental = ConflictDetector.violations

    def violations(detector):
        found = incremental(detector)
        server = detector._server
        full = reference_check(
            InvariantOracle(server.adapter.spec(server.params)),
            server.adapter.extract(
                server.node.store, server.variant, server.params
            ),
            server.region,
        )
        assert found == full
        checks.append((server.region, found))
        return found

    monkeypatch.setattr(ConflictDetector, "violations", violations)
    return checks


def _ledger_rows(data_dir: str) -> list[dict]:
    """Every region ledger's records, in order, minus the wall clock."""
    rows = []
    for _region, ledger in sorted(open_ledgers(data_dir).items()):
        for record in ledger.records():
            blob = record.to_dict()
            del blob["detected_at_ms"]
            rows.append(blob)
        ledger.close()
    # Through JSON, as the fixtures went: tuples become lists.
    return json.loads(json.dumps(rows))


@pytest.mark.timeout(90)
class TestConflictLedgerPinned:
    """The ledger's records are the detector's contract: the delta
    detector (PR 13) must write what the full-extract one wrote.  The
    fixture rows were taken with this exact recipe (at a74d154; their
    shas are the ones pinned since b71872e); everything but
    ``detected_at_ms`` is schedule-determined, and a mismatch names the
    first record that differs."""

    @pytest.mark.parametrize(
        "app, index, expected",
        [
            ("twitter", 3, FIXTURES / "ledger_twitter_3.json"),
            ("tournament", 1, FIXTURES / "ledger_tournament_1.json"),
        ],
    )
    def test_records_match_the_parent_commit(
        self, tmp_path, app, index, expected
    ):
        _, report = run(
            tmp_path, index=index, n_ops=80, time_scale=0.002, app=app
        )
        assert report.ok, report.reason
        assert report.digest_match
        rows = _ledger_rows(os.path.join(str(tmp_path), "data"))
        want = json.loads(expected.read_text(encoding="utf-8"))
        for position, (got, pinned) in enumerate(zip(rows, want)):
            assert got == pinned, f"record {position} differs"
        assert len(rows) == len(want)


@pytest.mark.timeout(90)
class TestLiveObservability:
    def test_server_stats_and_bench_payload(self, tmp_path):
        deployment, report = run(tmp_path, index=1)
        assert report.ok, report.reason
        for stats in report.servers.values():
            assert stats["net.schedule.completed"] == 1
            assert stats["net.records.applied"] > 0
        payload = report.bench(deployment, 0.02)
        assert payload["benchmark"] == "serve"
        assert payload["digest_match"] is True
        assert payload["throughput_ops_per_s"] > 0
        assert payload["n_ops"] == len(deployment["ops"])

    def test_chaos_proxy_reports_injected_faults(self, tmp_path):
        _, report = run(tmp_path, index=1)  # lossy: drop/dup/reorder
        assert report.ok, report.reason
        totals = {
            key: sum(link[key] for link in report.proxy.values())
            for key in ("delivered", "dropped", "duplicated", "reordered")
        }
        assert totals["delivered"] > 0
        # The lossy plan's probabilities are high enough that a run
        # exercising retransmission injects at least one fault.
        assert totals["dropped"] + totals["duplicated"] + totals["reordered"] > 0


@pytest.mark.timeout(90)
class TestFailureDiagnostics:
    def test_tampered_schedule_surfaces_engine_error(self, tmp_path):
        """A live commit that disagrees with the recorded schedule must
        be reported as an engine error, not a silent stall."""
        spec = build_trial("tournament", "Causal", 11, 0, n_ops=15)
        _, deployment = record_trial(spec)
        tampered = False
        for steps in deployment["schedules"].values():
            for step in steps:
                if step["kind"] == "op" and step["commits"]:
                    step["counter"] = 999
                    tampered = True
                    break
            if tampered:
                break
        assert tampered
        report = asyncio.run(
            run_live(
                deployment, str(tmp_path), time_scale=0.02, deadline_s=6.0
            )
        )
        assert not report.ok
        assert "engine error" in report.reason
        assert "schedule recorded 999" in report.reason


@pytest.mark.timeout(90)
def test_a_finished_fleet_is_freed_without_the_cycle_collector(tmp_path):
    """Node, schedule engine and detector reach their server weakly, and
    stop/kill drop the listeners, tasks and parked acks that hold its
    handlers: once ``run_live`` returns -- a killed and restarted
    replica included -- refcounting alone has freed every replica's
    state, so a cycle collection finds none of it."""
    from repro.net.server import ReplicaServer
    from repro.store.replica import Replica
    from repro.store.transaction import CommitRecord

    _, deployment = record_trial(build_trial("tournament", "Causal", 11, 3, n_ops=25))
    gc.collect()
    gc.disable()
    try:
        report = asyncio.run(
            run_live(deployment, str(tmp_path), time_scale=0.05, deadline_s=60.0)
        )
        gc.set_debug(gc.DEBUG_SAVEALL)
        gc.collect()
        left = [
            type(obj).__name__
            for obj in gc.garbage
            if isinstance(obj, (ReplicaServer, Replica, CommitRecord))
        ]
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()
    assert report.ok, report.reason
    assert report.crashes == 1
    assert left == []


@pytest.mark.timeout(90)
def test_no_listener_binds_a_port_the_topology_released(
    tmp_path, monkeypatch
):
    """``free_ports`` releases the ports it reserves, and the kernel may
    hand a later port-0 listener one of them -- a server then fails to
    bind with EADDRINUSE.  The stub allocator here does that every
    time: each port-0 listener gets the next released port.  The run
    survives only if no listener binds port 0."""
    from repro.net import harness

    released: list[int] = []
    reserve = harness.free_ports
    start_server = asyncio.start_server

    def recording_free_ports(count, host="127.0.0.1"):
        ports = reserve(count, host)
        released.extend(ports)
        return ports

    async def recycling_start_server(callback, host=None, port=None, **kw):
        if not port and released:
            port = released.pop(0)
        return await start_server(callback, host, port, **kw)

    monkeypatch.setattr(harness, "free_ports", recording_free_ports)
    monkeypatch.setattr(asyncio, "start_server", recycling_start_server)
    _, report = run(tmp_path, index=0)
    assert report.ok, report.reason
    assert report.digest_match


class TestResumePosition:
    def test_resume_scans_to_last_provable_step(self):
        from repro.crdts import AWSet
        from repro.store.registry import TypeRegistry
        from repro.store.replica import Replica

        registry = TypeRegistry()
        registry.register_prefix("", AWSet)
        replica = Replica("us-east", registry)
        txn = replica.begin()
        txn.update("s", lambda s: s.prepare_add("a"))
        txn.commit()  # own counter 1
        schedule = [
            {"kind": "setup", "commits": 1},
            {"kind": "op", "index": 0, "commits": False, "counter": None},
            {"kind": "apply", "origin": "eu-west", "counter": 1},
            {"kind": "op", "index": 1, "commits": True, "counter": 2},
        ]
        # Setup commit is durable; the non-committing op after it is
        # not provable but is safely re-executed, so resume lands on
        # the op following the last *provable* step.
        assert resume_position(schedule, replica) == 1

    def test_fresh_replica_resumes_at_zero(self):
        from repro.crdts import AWSet
        from repro.store.registry import TypeRegistry
        from repro.store.replica import Replica

        registry = TypeRegistry()
        registry.register_prefix("", AWSet)
        replica = Replica("us-east", registry)
        schedule = [{"kind": "setup", "commits": 1}]
        assert resume_position(schedule, replica) == 0
