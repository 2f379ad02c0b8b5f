"""The live detector's delta contract: incremental model == fresh extract.

:class:`~repro.store.conflicts.ConflictDetector` keeps the rows every
object contributes and re-reads only the keys named in the records it
is told about.  That is admissible only if, at every check, the model
it grounds equals the adapter's full ``extract`` over the same replica
-- for every application and variant the checker runs, under any
interleaving of local commits and remote applies -- and if every state
change that does *not* arrive as a record forces a full re-read.

Schedules come from real simulated runs (lossy links plus
anti-entropy, seeds drawn by hypothesis): each region's log is its
commit/apply order, replayed here record by record into an observer
replica with a detector attached.
"""

from __future__ import annotations

from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.check.apps import ADAPTERS, resolve_config
from repro.check.harness import session_region
from repro.crdts.clock import VersionVector
from repro.errors import StoreError
from repro.obs import REGISTRY
from repro.sim import FaultPlan, Simulator
from repro.store import Cluster
from repro.store.conflicts import ConflictDetector
from repro.store.replica import Replica

REGIONS = ("us-east", "us-west", "eu-west")
APPS = ("tournament", "ticket", "tpcw", "twitter")
CONFIGS = ("Causal", "IPA")  # IPA is rem-wins for Twitter

REBUILDS = REGISTRY.counter("store.conflicts.full_rebuilds")
RESCANNED = REGISTRY.counter("store.conflicts.keys_rescanned")

#: A key per app that a *read* can materialise with no record naming
#: it; TPC-W's starts from the registry's configured stock level, so it
#: changes the model the moment it exists.
READ_ONLY_KEYS = {
    "tournament": "capacity:never-written",
    "ticket": "sold:never-written",
    "tpcw": "stock:never-written",
    "twitter": "timeline:never-written",
}


def region_log(app: str, config: str, seed: int, n_ops: int = 100):
    """One region's applied records, in its application order."""
    adapter = ADAPTERS[app]
    mode, variant = resolve_config(app, config)
    params = adapter.defaults()
    sim = Simulator()
    cluster = Cluster(
        sim,
        adapter.registry(variant, params),
        regions=REGIONS,
        mode=mode,
        faults=FaultPlan(seed=seed, drop=0.15, duplicate=0.05),
    )
    cluster.start_antientropy(interval_ms=150, seed=seed + 1)
    driver = adapter.make_app(cluster, variant, params)
    adapter.setup(driver, params, REGIONS[0])
    start = sim.now

    def issue(op) -> None:
        try:
            adapter.dispatch(
                driver, session_region(op.session), op.op, op.args,
                lambda _label: None,
            )
        except StoreError:
            pass

    for op in adapter.generate(seed, REGIONS, n_ops, params):
        sim.at(start + op.at_ms, issue, op)
    sim.run(until=start + 60_000)
    cluster.flush_replication()
    assert cluster.run_until_converged() is not None
    return list(cluster.replica(REGIONS[seed % len(REGIONS)]).log)


class Observer:
    """A replica + detector pair standing in for a live server."""

    def __init__(self, app: str, config: str, name: str = "observer"):
        self.adapter = ADAPTERS[app]
        _mode, self.variant = resolve_config(app, config)
        self.params = self.adapter.defaults()
        self.region = name
        self.replica = Replica(
            name, self.adapter.registry(self.variant, self.params)
        )
        self.node = SimpleNamespace(store=self.replica)
        self.detector = ConflictDetector(self)

    def apply(self, record) -> None:
        self.replica.apply_remote(record)
        self.detector.note_apply(record)

    def fresh(self):
        return self.adapter.extract(self.replica, self.variant, self.params)

    def assert_model_is_fresh_extract(self) -> None:
        assert self.detector.model() == self.fresh()


@pytest.mark.parametrize("config", CONFIGS)
@pytest.mark.parametrize("app", APPS)
class TestIncrementalModel:
    @given(seed=st.integers(0, 10_000), stride=st.integers(1, 4))
    @settings(max_examples=8, deadline=None)
    def test_equals_fresh_extract_after_every_record(
        self, app, config, seed, stride
    ) -> None:
        records = region_log(app, config, seed)
        assert records  # set-up alone commits
        observer = Observer(app, config)
        rebuilds = REBUILDS.value
        for index, record in enumerate(records):
            observer.apply(record)
            # stride > 1: several records' keys accumulate per check,
            # as after ``adapter.setup`` on a live server.
            if index % stride == 0:
                observer.assert_model_is_fresh_extract()
            if index == len(records) // 2:
                # A read materialises an object no record names.
                observer.replica.get_object(READ_ONLY_KEYS[app])
                observer.assert_model_is_fresh_extract()
        observer.assert_model_is_fresh_extract()
        # One full read at the first check, deltas ever after.
        assert REBUILDS.value == rebuilds + 1

    def test_a_check_rereads_only_the_touched_keys(self, app, config):
        records = region_log(app, config, seed=5)
        observer = Observer(app, config)
        for record in records[:-1]:
            observer.apply(record)
        observer.detector.model()
        last = records[-1]
        observer.apply(last)
        before = RESCANNED.value
        observer.assert_model_is_fresh_extract()
        touched = {key for key, _payload in last.updates}
        assert RESCANNED.value - before == len(touched)
        assert len(touched) < len(observer.replica.keys())


class TestInvalidation:
    """State that changed without a record drops the kept rows."""

    APP, CONFIG = "twitter", "IPA"

    def observers(self):
        records = region_log(self.APP, self.CONFIG, seed=3)
        behind = Observer(self.APP, self.CONFIG, "behind")
        ahead = Observer(self.APP, self.CONFIG, "ahead")
        for record in records[: len(records) // 2]:
            behind.apply(record)
        for record in records:
            ahead.apply(record)
        behind.assert_model_is_fresh_extract()
        ahead.assert_model_is_fresh_extract()
        return records, behind, ahead

    def test_snapshot_install_forces_a_rebuild(self):
        _records, behind, ahead = self.observers()
        stale = behind.detector.model()
        assert ahead.replica.compact_log(ahead.replica.vv, min_records=1) > 0
        _tail, snapshot = ahead.replica.sync_answer(VersionVector())
        rebuilds = REBUILDS.value
        assert behind.replica.install_snapshot(snapshot)
        behind.assert_model_is_fresh_extract()
        assert REBUILDS.value == rebuilds + 1
        assert behind.detector.model() == ahead.detector.model() != stale

    def test_recovery_forces_a_rebuild(self):
        records, _behind, ahead = self.observers()
        # Salvage recovery: the replica restarts from a truncated log.
        rebuilds = REBUILDS.value
        ahead.replica.adopt_log(records[: len(records) // 3])
        ahead.assert_model_is_fresh_extract()
        assert REBUILDS.value == rebuilds + 1
        # A restarted process builds a new detector: nothing kept.
        restarted = ConflictDetector(ahead)
        assert restarted.model() == ahead.fresh()
        assert REBUILDS.value == rebuilds + 2

    def test_scrub_heal_invalidation_forces_a_rebuild(self):
        # The server calls ``invalidate`` after a scrub repaired
        # something; the next check re-reads every key.
        _records, _behind, ahead = self.observers()
        rebuilds, rescanned = REBUILDS.value, RESCANNED.value
        ahead.detector.invalidate()
        ahead.assert_model_is_fresh_extract()
        assert REBUILDS.value == rebuilds + 1
        assert RESCANNED.value - rescanned == len(ahead.replica.keys())
