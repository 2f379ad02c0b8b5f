"""The version-vector digest and the idle anti-entropy round.

The contract of :meth:`repro.store.replica.Replica.vv_digest`, in four
parts: (i) its representation invariant, site by site; (ii) a
differential over lossy three-region schedules against a fresh
``vv.copy()``; (iii) an operation-count guard on what an idle round
may do; (iv) schedule identity with the commit before the digest
existed (a74d154) -- the fixture is rewritten by running this file as a
script against that commit's ``src``::

    PYTHONPATH=<a74d154>/src python tests/store/test_antientropy_digest.py
"""

import dataclasses
import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.check import harness
from repro.check.explorer import PLAN_KINDS, build_trial
from repro.crdts import AWSet
from repro.crdts.clock import VersionVector
from repro.sim.events import Simulator
from repro.sim.faults import CrashWindow, FaultPlan
from repro.sim.latency import EU_WEST, REGIONS, US_EAST, US_WEST
from repro.store import antientropy
from repro.store.cluster import Cluster
from repro.store.registry import TypeRegistry
from repro.store.replica import Replica

FIXTURE = Path(__file__).parent / "fixtures" / "schedule_identity_seed11.json"
APPS = ("tournament", "twitter", "tpcw", "ticket")


def set_registry():
    reg = TypeRegistry()
    reg.register_prefix("", AWSet)
    return reg


def commit_add(replica, element):
    txn = replica.begin()
    txn.update("s", lambda s: s.prepare_add(element))
    return txn.commit()


def assert_invariant(replica):
    cached = replica._vv_digest
    assert cached is None or cached.entries == replica.vv.entries
    digest = replica.vv_digest()
    assert digest is not replica.vv
    assert digest.entries is not replica.vv.entries
    assert digest.entries == replica.vv.copy().entries
    assert replica.vv_digest() is digest  # cached until the next write


class TestRepresentationInvariant:
    """One test per way ``vv`` is written: each must drop the digest,
    and the digest it dropped must stay what it was."""

    def test_apply_drops_it(self):
        a, b = Replica("A", set_registry()), Replica("B", set_registry())
        empty = a.vv_digest()
        record = commit_add(a, "x")
        assert_invariant(a)
        after_one = a.vv_digest()
        b.apply_remote(record)
        assert_invariant(b)
        commit_add(a, "y")
        assert_invariant(a)
        assert empty.entries == {}
        assert after_one.entries == {"A": 1}

    def test_rebuild_without_a_snapshot_drops_it(self):
        a = Replica("A", set_registry())
        commit_add(a, "x")
        held = a.vv_digest()
        # A restart that found nothing on disk: the log the replica
        # rebuilds from is not the one its state came from.
        a.adopt_log([])
        assert_invariant(a)
        assert a.vv_digest().entries == {}
        assert held.entries == {"A": 1}

    def test_rebuild_from_a_snapshot_drops_it(self):
        a = Replica("A", set_registry())
        for element in "xy":
            commit_add(a, element)
        assert a.compact_log(a.vv, min_records=1) == 2
        commit_add(a, "z")
        held = a.vv_digest()
        # The crash tore the unsynced log tail off: recovery lands on
        # the snapshot's vector, not the pre-crash one.
        a.log.pop()
        a.rebuild_from_log()
        assert_invariant(a)
        assert a.vv_digest().entries == {"A": 2}
        assert held.entries == {"A": 3}

    def test_install_snapshot_drops_it(self):
        a, late = Replica("A", set_registry()), Replica("B", set_registry())
        for element in "xy":
            commit_add(a, element)
        held = late.vv_digest()
        assert late.install_snapshot(a._take_snapshot())
        assert_invariant(late)
        assert late.vv_digest().entries == {"A": 2}
        assert held.entries == {}


class DigestWatch:
    """Checks the invariant after every write to any replica's vector
    and remembers every digest it saw, with what it then held."""

    WRITERS = ("_apply_state", "rebuild_from_log", "install_snapshot")

    def __init__(self, monkeypatch):
        self.captured: list[tuple[VersionVector, dict]] = []
        self.calls = dict.fromkeys(self.WRITERS, 0)
        for name in self.WRITERS:
            monkeypatch.setattr(
                Replica, name, self._wrap(name, getattr(Replica, name))
            )

    def _wrap(self, name, method):
        def watched(replica, *args, **kwargs):
            result = method(replica, *args, **kwargs)
            self.calls[name] += 1
            self.check(replica)
            return result

        return watched

    def check(self, replica):
        assert_invariant(replica)
        digest = replica.vv_digest()
        self.captured.append((digest, dict(digest.entries)))

    def assert_nothing_moved(self):
        for digest, then in self.captured:
            assert digest.entries == then


class TestDigestAgainstFreshCopies:
    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        drop=st.sampled_from([0.0, 0.2, 0.5]),
        adds=st.lists(
            st.tuples(st.sampled_from(REGIONS), st.integers(0, 2_000)),
            min_size=1,
            max_size=25,
        ),
        crash=st.booleans(),
    )
    def test_lossy_three_region_schedules(self, seed, drop, adds, crash):
        with pytest.MonkeyPatch.context() as monkeypatch:
            watch = DigestWatch(monkeypatch)
            crashes = (
                (CrashWindow(EU_WEST, 600.0, 1_400.0),) if crash else ()
            )
            sim = Simulator()
            cluster = Cluster(
                sim,
                set_registry(),
                faults=FaultPlan(
                    seed=seed, drop=drop, reorder=0.2, crashes=crashes
                ),
            )
            cluster.start_antientropy(interval_ms=100.0, seed=seed + 1)

            submitted = []

            def add(region, element):
                if not cluster.is_crashed(region):
                    submitted.append(element)
                    cluster.submit(
                        region,
                        lambda txn: (
                            txn.update(
                                "s", lambda s: s.prepare_add(element)
                            ),
                            "add",
                        )[1],
                        lambda _op: None,
                    )

            for index, (region, at_ms) in enumerate(adds):
                sim.at(float(at_ms), add, region, index)
            sim.run(until=2_500.0)
            assert cluster.run_until_converged(timeout_ms=120_000.0)
            # An operator-restored empty replica adopts a peer snapshot.
            late = Replica(US_WEST, set_registry())
            watch.check(late)
            assert late.install_snapshot(
                cluster.replica(US_EAST)._take_snapshot()
            )
            watch.assert_nothing_moved()
            assert watch.calls["_apply_state"] >= len(REGIONS) * len(submitted)
            assert watch.calls["install_snapshot"] == 1
            assert watch.calls["rebuild_from_log"] == (1 if crash else 0)


class Unread(dict):
    """A log index that must not be consulted."""

    def items(self):
        raise AssertionError("records_since read the log index")

    __iter__ = values = keys = items


class TestIdleRoundDoesNoWork:
    def test_converged_cluster_rounds_copy_batch_and_scan_nothing(
        self, monkeypatch
    ):
        sim = Simulator()
        cluster = Cluster(sim, set_registry())
        engine = cluster.start_antientropy(interval_ms=100.0, seed=17)
        for region in REGIONS:
            cluster.submit(
                region,
                lambda txn, e=region: (
                    txn.update("s", lambda s: s.prepare_add(e)),
                    "add",
                )[1],
                lambda _op: None,
            )
        assert cluster.run_until_converged() is not None
        sim.run(until=sim.now + 1_000.0)  # every replica's digest is built

        def forbidden(what):
            def raiser(*args, **kwargs):
                raise AssertionError(f"an idle round {what}")

            return raiser

        monkeypatch.setattr(VersionVector, "copy", forbidden("copied a vector"))
        monkeypatch.setattr(
            antientropy, "ReplicationBatch", forbidden("built a batch")
        )
        for region in REGIONS:
            replica = cluster.replica(region)
            replica._log_by_origin = Unread(replica._log_by_origin)
        digests = {r: cluster.replica(r).vv_digest() for r in REGIONS}

        before = (engine.digests_sent, engine.responses_received)
        sim.run(until=sim.now + 5_000.0)
        assert cluster.converged()
        rounds = engine.responses_received - before[1]
        assert rounds >= 200 and engine.digests_sent - before[0] >= rounds
        # (Packing went with ClockDomain: nothing is left to call.)
        for region in REGIONS:
            assert cluster.replica(region).vv_digest() is digests[region]


def observed_schedule(app: str, config: str, index: int) -> dict:
    """Everything a trial's schedule determines, simulator included."""
    sims = []

    class Capturing(Simulator):
        def __init__(self):
            super().__init__()
            sims.append(self)

    spec = dataclasses.replace(
        build_trial(app, config, 11, index), engine="memory", shards=1
    )
    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(harness, "Simulator", Capturing)
        result = harness.run_trial(spec)
    (sim,) = sims
    return {
        "fingerprint": result.fingerprint,
        "fault_stats": result.fault_stats,
        "sim_seq": sim._seq,
    }


class TestScheduleIdentity:
    """The digest removes work per event, never an event, a message or
    an RNG draw: fingerprint, every ``fault_stats()`` counter and the
    simulator's event count equal the values recorded at a74d154."""

    @pytest.mark.parametrize("config", ["Causal", "IPA"])
    @pytest.mark.parametrize("app", APPS)
    def test_every_plan_kind_matches_the_parent_commit(self, app, config):
        pinned = json.loads(FIXTURE.read_text(encoding="utf-8"))
        for index, kind in enumerate(PLAN_KINDS):
            assert (
                observed_schedule(app, config, index)
                == pinned[f"{app}/{config}/{kind}"]
            ), f"{app}/{config}/{kind}"


if __name__ == "__main__":
    FIXTURE.write_text(
        json.dumps(
            {
                f"{app}/{config}/{kind}": observed_schedule(app, config, index)
                for app in APPS
                for config in ("Causal", "IPA")
                for index, kind in enumerate(PLAN_KINDS)
            },
            indent=1,
            sort_keys=True,
        )
        + "\n",
        encoding="utf-8",
    )
