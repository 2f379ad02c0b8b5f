"""Storage engine contract and sharded-store unit tests.

Every engine implements one durability contract (stage puts, make them
durable on sync, reload after a process death, replace wholesale on
restore); the :class:`~repro.store.engine.ShardedStore` splits a
replica's keyspace over N of them with deterministic consistent
hashing.  These tests pin the contract per engine, the ring's
cross-process stability, and the store's routing/snapshot/durability
behaviour -- the equivalence suites then show the digests cannot tell
any configuration apart.
"""

import pickle
import subprocess
import sys

import pytest

from repro.crdts import AWSet, Dot, EventContext
from repro.crdts.clock import VersionVector
from repro.errors import StoreError
from repro.store import framedlog
from repro.store.engine import (
    ENGINE_NAMES,
    FileEngine,
    HashRing,
    MemoryEngine,
    ShardedStore,
    SqliteEngine,
    default_engine,
    default_shards,
    make_engine,
    shard_map_digest,
)
from repro.store.registry import TypeRegistry


def make_registry() -> TypeRegistry:
    registry = TypeRegistry()
    registry.register_prefix("", AWSet)
    return registry


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
def engine(request, tmp_path):
    name = request.param
    built = make_engine(name, path=str(tmp_path / "shard-00"))
    yield built
    built.close()


def reopen(engine):
    """A fresh engine instance on the same storage (process restart)."""
    if isinstance(engine, MemoryEngine):
        return engine
    engine.close()
    cls = type(engine)
    return cls(engine.path)


class TestHashRing:
    def test_single_shard_routes_everything_to_zero(self):
        ring = HashRing(1)
        assert all(ring.shard_of(f"k{i}") == 0 for i in range(100))

    def test_deterministic_across_instances(self):
        a, b = HashRing(4), HashRing(4)
        keys = [f"key-{i}" for i in range(200)]
        assert [a.shard_of(k) for k in keys] == [b.shard_of(k) for k in keys]

    def test_every_shard_owns_a_fair_slice(self):
        ring = HashRing(4)
        counts = [0, 0, 0, 0]
        for i in range(2000):
            counts[ring.shard_of(f"key-{i}")] += 1
        assert all(count > 2000 * 0.10 for count in counts), counts

    def test_routing_survives_hash_randomisation(self):
        """blake2b, not builtin hash(): placement must be identical in
        a process with a different PYTHONHASHSEED, or recovery would
        look for keys in the wrong shard's log."""
        script = (
            "from repro.store.engine import HashRing\n"
            "ring = HashRing(8)\n"
            "print([ring.shard_of(f'key-{i}') for i in range(64)])\n"
        )
        import os

        import repro

        src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        outs = set()
        for hashseed in ("0", "12345"):
            proc = subprocess.run(
                [sys.executable, "-c", script],
                capture_output=True,
                text=True,
                env={**os.environ, "PYTHONHASHSEED": hashseed, "PYTHONPATH": src},
                check=True,
            )
            outs.add(proc.stdout)
        assert len(outs) == 1
        local = HashRing(8)
        assert outs.pop().strip() == str([local.shard_of(f"key-{i}") for i in range(64)])

    def test_rejects_zero_shards(self):
        with pytest.raises(StoreError):
            HashRing(0)


@pytest.mark.parametrize("engine", ENGINE_NAMES, indirect=True)
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
        assert engine.get("ka").value() == {"x", "y"}
        assert engine.get("missing") is None
        assert dict(engine.iterate()).keys() == {"ka", "kb"}

    def test_last_put_wins(self, engine):
        engine.put("k", make_set("old"))
        engine.put("k", make_set("new", "er"))
        engine.sync()
        assert engine.load()["k"].value() == {"new", "er"}

    def test_restore_replaces_wholesale(self, engine):
        engine.put("stale", make_set("gone"))
        engine.sync()
        engine.restore({"fresh": make_set("kept")})
        loaded = engine.load()
        assert set(loaded) == {"fresh"}
        assert loaded["fresh"].value() == {"kept"}

    def test_digest_matches_shard_map_digest(self, engine):
        objects = {"ka": make_set("x"), "kb": make_set("y", "z")}
        engine.restore(objects)
        registry = make_registry()
        assert engine.digest(registry) == shard_map_digest(objects, registry)

    def test_survives_reopen_iff_durable(self, engine):
        engine.put("k", make_set("v"))
        engine.sync()
        again = reopen(engine)
        try:
            if engine.durable:
                assert again.load()["k"].value() == {"v"}
            else:
                assert again.load()["k"].value() == {"v"}  # same process
        finally:
            if again is not engine:
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

    def test_restore_compacts_superseded_frames(self, tmp_path):
        import os

        engine = FileEngine(str(tmp_path / "s.objlog"))
        obj = make_set("v")
        for _ in range(50):
            engine.put("k", obj)
        engine.sync()
        grown = os.path.getsize(engine.path)
        engine.restore({"k": obj})
        assert os.path.getsize(engine.path) < grown
        assert set(engine.load()) == {"k"}
        engine.close()


class TestSqliteEngine:
    def test_puts_invisible_until_sync(self, tmp_path):
        """A crash before sync loses staged puts: the durability point
        is the transaction commit, exactly like the store's."""
        import sqlite3

        engine = SqliteEngine(str(tmp_path / "s.db"))
        engine.put("k", make_set("v"))
        other = sqlite3.connect(engine.path)
        assert other.execute("SELECT COUNT(*) FROM kv").fetchone()[0] == 0
        engine.sync()
        assert other.execute("SELECT COUNT(*) FROM kv").fetchone()[0] == 1
        other.close()
        engine.close()

    @pytest.mark.parametrize("fsync, level", [(False, 0), (True, 2)])
    def test_fsync_picks_the_synchronous_level(self, tmp_path, fsync, level):
        """OFF survives process death and FULL host death too: the
        file engine's contract, passed through the factory."""
        engine = make_engine("sqlite", path=str(tmp_path / "shard-00"), fsync=fsync)
        assert engine._conn.execute("PRAGMA synchronous").fetchone()[0] == level
        engine.close()


class TestEngineFactory:
    def test_durable_engines_need_a_path(self):
        for name in ("file", "sqlite"):
            with pytest.raises(StoreError, match="data path"):
                make_engine(name)

    def test_unknown_engine_rejected(self, tmp_path):
        with pytest.raises(StoreError, match="unknown storage engine"):
            make_engine("rocksdb", path=str(tmp_path / "x"))


class TestEnvDefaults:
    def test_engine_and_shards_from_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_ENGINE", "sqlite")
        monkeypatch.setenv("REPRO_SHARDS", "5")
        assert default_engine() == "sqlite"
        assert default_shards() == 5
        store = ShardedStore("r", make_registry())
        try:
            assert store.engine_name == "sqlite"
            assert store.n_shards == 5
        finally:
            store.close()

    def test_defaults_without_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_ENGINE", raising=False)
        monkeypatch.delenv("REPRO_SHARDS", raising=False)
        assert default_engine() == "memory"
        assert default_shards() == 1

    def test_invalid_env_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_ENGINE", "leveldb")
        with pytest.raises(StoreError):
            default_engine()
        monkeypatch.setenv("REPRO_SHARDS", "zero")
        with pytest.raises(StoreError):
            default_shards()
        monkeypatch.setenv("REPRO_SHARDS", "0")
        with pytest.raises(StoreError):
            default_shards()


class TestShardedStore:
    def make(self, shards, engine="memory", **kwargs):
        return ShardedStore("r", make_registry(), engine=engine, shards=shards, **kwargs)

    def test_single_shard_hot_path_is_the_dict(self):
        store = self.make(1)
        assert store.get == store.maps[0].get
        store.set("k", make_set("v"))
        assert store.contains("k")
        assert store.get("k").value() == {"v"}
        store.close()

    def test_routing_spreads_and_reads_back(self):
        store = self.make(4)
        keys = [f"key-{i}" for i in range(100)]
        for key in keys:
            store.set(key, make_set(key))
        assert store.keys() == sorted(keys)
        assert store.key_count() == 100
        assert all(store.contains(key) for key in keys)
        assert all(store.get(key).value() == {key} for key in keys)
        assert sum(1 for m in store.maps if m) == 4  # all shards used
        store.close()

    def test_snapshot_shards_are_clones(self):
        store = self.make(3)
        store.set("k", make_set("old"))
        snap = store.snapshot_shards()
        store.get("k").effect(
            store.get("k").prepare_add("new"),
            EventContext(dot=Dot("r", 9), vv=VersionVector({"r": 9})),
        )
        merged = {}
        for shard_map in snap:
            merged.update(shard_map)
        assert merged["k"].value() == {"old"}
        store.close()

    def test_restore_reroutes_across_shard_counts(self):
        source = self.make(3)
        keys = [f"key-{i}" for i in range(60)]
        for key in keys:
            source.set(key, make_set(key))
        target = self.make(5)
        target.restore_shards(source.snapshot_shards())
        assert target.keys() == sorted(keys)
        assert all(target.get(key).value() == {key} for key in keys)
        # Same content, different placement: the flat key -> value
        # mapping is identical.
        source.close()
        target.close()

    @pytest.mark.parametrize("engine", ["file", "sqlite"])
    def test_sync_persists_exactly_the_live_map(self, engine, tmp_path):
        store = self.make(2, engine=engine, data_dir=str(tmp_path))

        def persisted():
            merged = {}
            for shard_map in store.load_persisted():
                merged.update(shard_map)
            return {k: o.value() for k, o in merged.items()}

        store.set("k1", make_set("a"))
        store.set("k2", make_set("b"))
        store.sync()
        assert persisted() == {"k1": {"a"}, "k2": {"b"}}
        # An in-place mutation needs no notice: every durability point
        # hands each engine its shard's whole live map.
        store.get("k1").effect(
            store.get("k1").prepare_add("z"),
            EventContext(dot=Dot("r", 7), vv=VersionVector({"r": 7})),
        )
        store.sync()
        assert persisted() == {"k1": {"a", "z"}, "k2": {"b"}}
        # Keys the live maps dropped leave the engines too.
        store.clear()
        store.set("k3", make_set("c"))
        store.sync()
        assert persisted() == {"k3": {"c"}}
        assert store.stats()["store.shard.checkpoints"] == 3
        store.close()

    @pytest.mark.parametrize("engine", ["file", "sqlite"])
    def test_checkpoint_survives_restart(self, engine, tmp_path):
        store = self.make(3, engine=engine, data_dir=str(tmp_path))
        keys = [f"key-{i}" for i in range(30)]
        for key in keys:
            store.set(key, make_set(key))
        store.checkpoint()
        store.close()
        revived = self.make(3, engine=engine, data_dir=str(tmp_path))
        merged = {}
        for shard_map in revived.load_persisted():
            merged.update(shard_map)
        assert {k: o.value() for k, o in merged.items()} == {key: {key} for key in keys}
        revived.close()

    @pytest.mark.parametrize("engine", ["file", "sqlite"])
    def test_ipa_tournament_checkpoint_survives_restart(
        self, engine, tmp_path
    ):
        """The IPA tournament's capacity objects are Compensation Sets
        with a bound and a victim rule attached: they must persist."""
        from repro.apps.common import Variant
        from repro.apps.tournament import TournamentApp, tournament_registry
        from repro.crdts import CompensationSet
        from repro.sim import Simulator
        from repro.store import Cluster

        sim = Simulator()
        registry = tournament_registry(Variant.IPA, capacity=2)
        cluster = Cluster(
            sim, registry, engine=engine, data_dir=str(tmp_path)
        )
        app = TournamentApp(cluster, Variant.IPA, capacity=2)
        app.setup(["p0", "p1", "p2"], ["t1"], region="us-east")
        for player in ("p0", "p1"):
            app.enroll("us-east", player, "t1", lambda _op: None)
        assert cluster.run_until_converged() is not None
        storage = cluster.replica("us-east").storage
        live = storage.get("capacity:t1")
        assert isinstance(live, CompensationSet)
        storage.checkpoint()
        storage.close()
        revived = ShardedStore(
            "us-east", registry, engine=engine,
            data_dir=str(tmp_path / "us-east"),
        )
        merged = {}
        for shard_map in revived.load_persisted():
            merged.update(shard_map)
        assert sorted(merged) == storage.keys()
        stored = merged["capacity:t1"]
        assert stored.value() == live.value() == {"p0", "p1"}
        # The reloaded object still enforces its bound.
        stored.effect(
            stored.prepare_add("p2"),
            EventContext(dot=Dot("r", 99), vv=VersionVector({"r": 99})),
        )
        assert stored.read().victims == ("p2",)
        revived.close()

    def test_stats_shape(self):
        store = self.make(2)
        store.set("k", make_set("v"))
        stats = store.stats()
        assert stats["store.shard.count"] == 2
        assert stats["store.shard.keys_total"] == 1
        assert stats["store.shard.keys_max"] == 1
        assert stats["store.shard.checkpoints"] == 0
        store.close()

    def test_durable_store_without_data_dir_owns_scratch(self):
        store = self.make(2, engine="sqlite")
        tmpdir = store._tmpdir
        assert tmpdir is not None
        store.set("k", make_set("v"))
        store.sync()
        store.close()
        import os

        assert not os.path.exists(tmpdir.name)
