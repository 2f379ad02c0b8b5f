"""Ledger engine contract and sharded-store unit tests.

The conflict ledger's engines implement one durability contract (stage
puts, make them durable on sync, reload after a process death); each
``REPRO_ENGINE`` name is tested through the engine a ledger picks for
it (``memory`` selects ``file``).  The
:class:`~repro.store.engine.ShardedStore` splits a replica's live
keyspace over N maps with deterministic consistent hashing and holds
nothing durable.  These tests pin the engine contract, the ring's
cross-process stability, and the store's routing/snapshot behaviour --
the equivalence suites then show the digests cannot tell any shard
count apart.
"""

import pickle
import subprocess
import sys

import pytest

from repro.crdts import AWSet, Dot, EventContext
from repro.crdts.clock import VersionVector
from repro.errors import StoreError
from repro.store import framedlog
from repro.store.conflicts import ConflictLedger, ledger_engine_name
from repro.store.engine import (
    ENGINE_NAMES,
    FileEngine,
    HashRing,
    ShardedStore,
    SqliteEngine,
    default_engine,
    default_shards,
    make_engine,
)


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
    built = make_engine(ledger_engine_name(request.param), path=str(tmp_path / "ledger"))
    yield built
    built.close()


def reopen(engine):
    """A fresh engine instance on the same storage (process restart)."""
    engine.close()
    return type(engine)(engine.path)


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
        engine = make_engine("sqlite", path=str(tmp_path / "ledger"), fsync=fsync)
        assert engine._conn.execute("PRAGMA synchronous").fetchone()[0] == level
        engine.close()

    def test_a_rotted_ledger_row_refuses_to_load(self, tmp_path):
        """Each row's CRC is checked on load: a flipped byte in a
        committed blob raises naming the key, like mid-log damage in
        the file engine, instead of loading the wrong record."""
        import sqlite3

        path = str(tmp_path / "us-east-conflicts")
        ledger = ConflictLedger(path, engine="sqlite")
        ledger.append(kind="violation", oracle="invariant", invariant="cap", region="us-east")
        ledger.close()
        conn = sqlite3.connect(path + ".db")
        key, blob = conn.execute("SELECT key, obj FROM kv").fetchone()
        rotted = bytearray(blob)
        rotted[len(rotted) // 2] ^= 0x01
        conn.execute("UPDATE kv SET obj = ? WHERE key = ?", (bytes(rotted), key))
        conn.commit()
        conn.close()
        with pytest.raises(StoreError, match=key):
            ConflictLedger(path, engine="sqlite")


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
        assert ShardedStore().n_shards == 5

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
    def make(self, shards):
        return ShardedStore(shards)

    def test_single_shard_hot_path_is_the_dict(self):
        store = self.make(1)
        assert store.get == store.maps[0].get
        store.set("k", make_set("v"))
        assert store.contains("k")
        assert store.get("k").value() == {"v"}

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

    def test_stats_shape(self):
        store = self.make(2)
        store.set("k", make_set("v"))
        stats = store.stats()
        assert stats["store.shard.count"] == 2
        assert stats["store.shard.keys_total"] == 1
        assert stats["store.shard.keys_max"] == 1
