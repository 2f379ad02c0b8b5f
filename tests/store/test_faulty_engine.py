"""Durability under injected storage faults: the never-ack pin.

The robustness satellite: a durability point that *fails* -- fsync
raising, the disk filling mid-write, a torn write -- must never be
treated as durable.  Every durability point of a
:class:`~repro.store.engine.ShardedStore` is a checkpoint of its whole
live maps, so a failed one must raise, leave the shard's previous
checkpoint whole, and the next one must persist exactly the live maps;
these tests pin that for both durable engines, at the engine contract
level and through the store.
"""

import pytest

from repro.crdts import AWSet, Dot, EventContext
from repro.crdts.clock import VersionVector
from repro.errors import StoreError
from repro.store.engine import FaultyEngine, ShardedStore, make_engine
from repro.store.registry import TypeRegistry

DURABLE = ("file", "sqlite")


def make_registry():
    registry = TypeRegistry()
    registry.register_prefix("", AWSet)
    return registry


def make_set(*elements, origin="r"):
    obj = AWSet()
    vv = VersionVector()
    for counter, element in enumerate(elements, start=1):
        vv.entries[origin] = counter
        ctx = EventContext(dot=Dot(origin, counter), vv=vv.copy())
        obj.effect(obj.prepare_add(element), ctx)
    return obj


@pytest.fixture(params=DURABLE)
def faulty(request, tmp_path):
    inner = make_engine(request.param, path=str(tmp_path / "shard-00"))
    engine = FaultyEngine(inner)
    yield engine
    engine.close()


def reopened(engine):
    """A fresh inner-engine instance on the same storage."""
    inner = engine.inner
    inner.close()
    return type(inner)(inner.path)


def values(objects):
    return {key: obj.value() for key, obj in objects.items()}


def make_store(name, tmp_path, shards=1):
    """A store whose every shard engine is wrapped for injection."""
    store = ShardedStore(
        "A",
        make_registry(),
        engine=name,
        shards=shards,
        data_dir=str(tmp_path / "data"),
    )
    store.engines = [FaultyEngine(engine) for engine in store.engines]
    return store


def persisted(store):
    """Each shard's state as a second engine instance on its storage reads it."""
    shards = []
    for engine in store.engines:
        other = type(engine.inner)(engine.inner.path)
        shards.append(values(other.load()))
        other.close()
    return shards


def live(store):
    return [values(shard_map) for shard_map in store.maps]


class TestEngineContract:
    def test_fsync_failure_surfaces_then_retry_heals(self, faulty):
        faulty.put("k", make_set("x"))
        faulty.inject_fsync_failure()
        with pytest.raises(StoreError):
            faulty.sync()
        assert faulty.injected["fsync_failures"] == 1
        # The fault was one-shot; the retry reaches the medium.
        faulty.sync()
        assert set(reopened(faulty).load()) == {"k"}

    def test_enospc_rejects_the_put(self, faulty):
        faulty.put("kept", make_set("x"))
        faulty.sync()
        faulty.inject_enospc()
        with pytest.raises(StoreError):
            faulty.put("lost", make_set("y"))
        faulty.sync()
        # Prior durable state is intact; the rejected put left nothing.
        assert set(reopened(faulty).load()) == {"kept"}


def arm(engine, fault):
    if fault == "fsync":
        engine.inject_fsync_failure()
    elif fault == "enospc":
        engine.inject_enospc()
    else:
        engine.inject_torn_write()


def checkpoint_fails_then_retry_heals(name, fault, tmp_path):
    store = make_store(name, tmp_path)
    store.set("kept", make_set("x"))
    store.sync()
    store.set("new", make_set("y"))
    store.maps[0].pop("kept")
    (engine,) = store.engines
    arm(engine, fault)
    with pytest.raises(StoreError):
        store.sync()
    # The durability point failed: nothing of it may be on disk, and the
    # writes since the last checkpoint are still unpersisted (dirty).
    assert persisted(store) == [{"kept": {"x"}}]
    # The retry persists exactly the live map, the drop included.
    store.sync()
    assert persisted(store) == live(store) == [{"new": {"y"}}]
    store.close()


class TestStoreNeverAcks:
    @pytest.mark.parametrize("name", DURABLE)
    def test_fsync_failure_keeps_keys_dirty(self, name, tmp_path):
        checkpoint_fails_then_retry_heals(name, "fsync", tmp_path)

    @pytest.mark.parametrize("name", DURABLE)
    def test_enospc_keeps_keys_dirty(self, name, tmp_path):
        checkpoint_fails_then_retry_heals(name, "enospc", tmp_path)

    @pytest.mark.parametrize("name", DURABLE)
    def test_torn_checkpoint_keeps_the_previous_shard(self, name, tmp_path):
        checkpoint_fails_then_retry_heals(name, "torn", tmp_path)

    @pytest.mark.parametrize("name", DURABLE)
    def test_mid_batch_failure_retries_whole_batch(self, name, tmp_path):
        store = make_store(name, tmp_path, shards=4)
        for key in [f"key-{i}" for i in range(40)]:
            store.set(key, make_set(key))
        store.sync()
        before = persisted(store)
        for key in [f"key-{i}" for i in range(40, 80)]:
            store.set(key, make_set(key))
        assert all(after != then for after, then in zip(live(store), before))
        # The third shard's checkpoint hits the wall: the shards before
        # it are written, the failed one and those after are not.
        store.engines[2].inject_enospc()
        with pytest.raises(StoreError):
            store.sync()
        assert persisted(store)[:2] == live(store)[:2]
        assert persisted(store)[2:] == before[2:]
        store.sync()
        assert persisted(store) == live(store)
        store.close()

    def test_torn_write_repairs_to_prior_state(self, tmp_path):
        store = make_store("file", tmp_path)
        store.set("kept", make_set("x"))
        store.sync()
        (engine,) = store.engines
        # A torn put (the ledger's write path) hits the disk silently.
        engine.inject_torn_write()
        engine.put("torn", make_set("y"))
        engine.sync()
        assert engine.injected["torn_writes"] == 1
        # Reload repairs the tail exactly like crash-mid-append: the
        # torn frame is gone, the prior state is whole.
        assert persisted(store) == [{"kept": {"x"}}]
        store.close()
