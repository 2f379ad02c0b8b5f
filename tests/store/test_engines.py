"""Ledger engine contract and object-store unit tests.

The conflict ledger's one engine, :class:`~repro.store.engine.FileEngine`,
implements a durability contract (append puts, make them durable on
sync, reload after a process death).  The
:class:`~repro.store.engine.ShardedStore` is a replica's one live
object map and holds nothing durable.  These tests pin the engine
contract and the store's snapshot/restore behaviour.
"""

import pickle

import pytest

from repro.crdts import AWSet, Dot, EventContext
from repro.crdts.clock import VersionVector
from repro.errors import StoreError
from repro.store import framedlog
from repro.store.engine import FileEngine, ShardedStore


def make_set(*elements, origin="r"):
    """An AWSet holding ``elements``, built from real effect calls."""
    obj = AWSet()
    vv = VersionVector()
    for counter, element in enumerate(elements, start=1):
        vv.entries[origin] = counter
        ctx = EventContext(dot=Dot(origin, counter), vv=vv.copy())
        obj.effect(obj.prepare_add(element), ctx)
    return obj


@pytest.fixture
def engine(tmp_path):
    built = FileEngine(str(tmp_path / "ledger.objlog"))
    yield built
    built.close()


def reopen(engine):
    """A fresh engine instance on the same storage (process restart)."""
    engine.close()
    return type(engine)(engine.path)


class TestEngineContract:
    def test_put_sync_load_roundtrip(self, engine):
        a, b = make_set("x", "y"), make_set("z")
        engine.put("ka", a)
        engine.put("kb", b)
        engine.sync()
        loaded = engine.load()
        assert set(loaded) == {"ka", "kb"}
        assert loaded["ka"].value() == {"x", "y"}
        assert loaded["kb"].value() == {"z"}

    def test_last_put_wins(self, engine):
        engine.put("k", make_set("old"))
        engine.put("k", make_set("new", "er"))
        engine.sync()
        assert engine.load()["k"].value() == {"new", "er"}

    def test_survives_reopen_iff_durable(self, engine):
        # Every ledger engine is durable: a synced put outlives the handle.
        engine.put("k", make_set("v"))
        engine.sync()
        again = reopen(engine)
        try:
            assert again.load()["k"].value() == {"v"}
        finally:
            again.close()


class TestFileEngine:
    def test_unsynced_tail_frame_is_repaired(self, tmp_path):
        engine = FileEngine(str(tmp_path / "s.objlog"))
        engine.put("k", make_set("v"))
        engine.sync()
        engine.close()
        # A crash mid-append leaves a torn final frame.
        with open(engine.path, "ab") as fh:
            fh.write(framedlog.frame(pickle.dumps(("k2", 1)))[:-3])
        loaded = engine.load()
        assert set(loaded) == {"k"}
        # Repaired in place: a second load sees a clean log.
        assert set(engine.load()) == {"k"}
        engine.close()

    def test_unpicklable_final_body_is_skipped(self, tmp_path):
        engine = FileEngine(str(tmp_path / "s.objlog"))
        engine.put("k", make_set("v"))
        engine.sync()
        engine.close()
        with open(engine.path, "ab") as fh:
            fh.write(framedlog.frame(b"not a pickle"))
        assert set(engine.load()) == {"k"}
        engine.close()

    def test_unreadable_mid_log_body_raises(self, tmp_path):
        engine = FileEngine(str(tmp_path / "s.objlog"))
        engine.close()
        with open(engine.path, "wb") as fh:
            fh.write(framedlog.frame(b"not a pickle"))
            fh.write(framedlog.frame(pickle.dumps(("k", make_set("v")))))
        with pytest.raises(StoreError, match="unreadable object"):
            engine.load()
        engine.close()


class TestShardedStore:
    def test_the_hot_path_is_the_dict(self):
        store = ShardedStore()
        assert store.n_shards == 1
        assert store.get == store.maps[0].get
        store.set("k", make_set("v"))
        assert store.contains("k")
        assert store.get("k").value() == {"v"}

    def test_writes_read_back_sorted(self):
        store = ShardedStore()
        keys = [f"key-{i}" for i in range(100)]
        for key in reversed(keys):
            store.set(key, make_set(key))
        assert store.keys() == sorted(keys)
        assert store.key_count() == 100
        assert all(store.contains(key) for key in keys)
        assert all(store.get(key).value() == {key} for key in keys)
        assert sorted(obj.value().pop() for obj in store.objects()) == sorted(keys)

    def test_snapshot_is_a_clone(self):
        store = ShardedStore()
        store.set("k", make_set("old"))
        snap = store.snapshot()
        store.get("k").effect(
            store.get("k").prepare_add("new"),
            EventContext(dot=Dot("r", 9), vv=VersionVector({"r": 9})),
        )
        assert snap["k"].value() == {"old"}

    def test_restore_and_clear_refill_the_live_dict(self):
        """A ``get`` hoisted before a restore or clear (as ``Replica``
        hoists it) keeps reading the live objects after it."""
        source = ShardedStore()
        keys = [f"key-{i}" for i in range(60)]
        for key in keys:
            source.set(key, make_set(key))
        target = ShardedStore()
        target.set("stale", make_set("x"))
        hoisted_get = target.get
        live = target.maps[0]
        target.restore(source.snapshot())
        assert target.maps[0] is live
        assert target.keys() == sorted(keys)
        assert all(hoisted_get(key).value() == {key} for key in keys)
        assert hoisted_get("stale") is None
        assert all(hoisted_get(key) is not source.get(key) for key in keys)
        target.clear()
        assert target.keys() == [] and hoisted_get(keys[0]) is None

    def test_stats_shape(self):
        store = ShardedStore()
        store.set("k", make_set("v"))
        assert store.stats() == {"store.keys_total": 1, "store.keys_max": 1}
