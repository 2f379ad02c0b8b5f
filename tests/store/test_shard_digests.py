"""Incremental per-shard digests against their from-scratch value.

:meth:`~repro.store.engine.ShardedStore.shard_digests` keeps each
shard's multiset hash up to date by re-hashing only the keys written
since its last call.  Two guards: a Hypothesis differential that, after
every step of a random multi-replica history, compares it with
:func:`~repro.store.engine.shard_map_digest` of each live shard map
(and checks that equal content digests equally across replicas); and
an operation-count guard on the keys a call re-hashes, read from the
``store.shard.digest_keys`` counter.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.crdts import AWSet, PNCounter, RWSet
from repro.crdts.clock import VersionVector
from repro.obs import REGISTRY
from repro.store.engine import ShardedStore, canonical_value, shard_map_digest
from repro.store.registry import TypeRegistry
from repro.store.replica import Replica

KEYS = ("set:a", "set:b", "set:c", "rw:a", "rw:b", "ctr:a", "ctr:b", "lvl:a")
ELEMENTS = ("x", "y", "z")


def make_registry() -> TypeRegistry:
    registry = TypeRegistry()
    registry.register_prefix("set:", AWSet)
    registry.register_prefix("rw:", RWSet)
    registry.register_prefix("ctr:", PNCounter)
    # A non-zero registry default: a level back at 5 adds nothing.
    registry.register_prefix("lvl:", lambda: PNCounter(5))
    registry.register_prefix("new:", AWSet)
    return registry


def digest_keys() -> int:
    return REGISTRY.counter_value("store.shard.digest_keys")


def prepare(obj, op: int, element: str):
    if isinstance(obj, PNCounter):
        return obj.prepare_add((-1, 1, 2)[op])
    if op == 0:
        return obj.prepare_remove(element)
    return obj.prepare_add(element)


def commit(replica: Replica, key: str, op: int, element: str) -> None:
    txn = replica.begin()
    txn.update(key, lambda obj: prepare(obj, op, element))
    txn.commit()


def deliver(target: Replica, source: Replica) -> None:
    """One anti-entropy exchange: ``source`` answers ``target``'s digest."""
    records, snapshot = source.sync_answer(target.vv, target.shard_digests())
    if snapshot is not None and not target.install_snapshot(snapshot):
        return
    pending = [r for r in records if r.origin != target.replica_id]
    progress = True
    while pending and progress:
        progress = False
        for record in list(pending):
            if record.dot.counter <= target.vv.get(record.origin):
                pending.remove(record)
            elif target.can_apply(record):
                target.apply_remote(record)
                pending.remove(record)
                progress = True


def stable_vector(replicas: list[Replica]) -> VersionVector:
    origins = {origin for r in replicas for origin in r.vv.entries}
    return VersionVector({o: min(r.vv.get(o) for r in replicas) for o in origins})


def resplit(shards: tuple[dict, ...], count: int) -> tuple[dict, ...]:
    """The same objects dealt over ``count`` maps (a foreign sharding)."""
    merged = {key: obj for shard in shards for key, obj in shard.items()}
    out: list[dict] = [{} for _ in range(count)]
    for index, key in enumerate(sorted(merged)):
        out[index % count][key] = merged[key]
    return tuple(out)


def shard_content(replica: Replica, registry: TypeRegistry) -> list[dict[str, str]]:
    """Per shard, what the digest covers: non-default canonical reads."""
    content = []
    for shard_map in replica.storage.maps:
        kept = {}
        for key, obj in shard_map.items():
            value = canonical_value(obj.value())
            if value not in ("", canonical_value(registry.create(key).value())):
                kept[key] = value
        content.append(kept)
    return content


def check(replicas: list[Replica], registry: TypeRegistry) -> None:
    digests = []
    for replica in replicas:
        incremental = replica.shard_digests()
        scratch = tuple(shard_map_digest(m, registry, {}) for m in replica.storage.maps)
        assert incremental == scratch
        digests.append(incremental)
    contents = [shard_content(r, registry) for r in replicas]
    for i in range(len(replicas)):
        for j in range(i + 1, len(replicas)):
            for shard, (ours, theirs) in enumerate(zip(contents[i], contents[j])):
                assert (ours == theirs) == (digests[i][shard] == digests[j][shard])


REPLICA = st.integers(0, 2)
COMMIT = st.tuples(
    st.just("commit"),
    REPLICA,
    st.sampled_from(KEYS),
    st.integers(0, 2),
    st.sampled_from(ELEMENTS),
)
DELIVER = st.tuples(st.just("deliver"), REPLICA, REPLICA)
# Listed twice and thrice: histories need writes and exchanges to reach
# log truncation and the snapshot fallback.
STEPS = st.one_of(
    COMMIT,
    COMMIT,
    COMMIT,
    DELIVER,
    DELIVER,
    st.tuples(st.just("read"), REPLICA, st.integers(0, 3)),
    st.tuples(st.just("compact"), REPLICA, st.booleans()),
    st.tuples(st.just("restore"), REPLICA, REPLICA, st.integers(0, 255)),
    st.tuples(st.just("reshard"), REPLICA, REPLICA, st.sampled_from((1, 3, 16))),
    st.tuples(st.just("rebuild"), REPLICA),
)


class TestIncrementalEqualsFromScratch:
    @settings(
        max_examples=200,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        shards=st.sampled_from((2, 4, 8)),
        n_replicas=st.integers(2, 3),
        steps=st.lists(STEPS, min_size=15, max_size=40),
    )
    def test_every_step(self, shards, n_replicas, steps):
        registry = make_registry()
        ids = ("r0", "r1", "r2")[:n_replicas]
        # Digests never read an engine: memory keeps every matrix cell fast.
        replicas = [Replica(rid, registry, engine="memory", shards=shards) for rid in ids]
        try:
            for step in steps:
                kind, who = step[0], replicas[step[1] % n_replicas]
                if kind == "commit":
                    commit(who, *step[2:])
                elif kind == "deliver":
                    source = replicas[step[2] % n_replicas]
                    if source is not who:
                        deliver(who, source)
                elif kind == "read":
                    who.get_object(f"new:{step[2]}")
                elif kind == "compact":
                    stable = stable_vector(replicas)
                    who.compact(stable)
                    # Truncating at its own vector forces peers behind
                    # it onto the (pruned) snapshot fallback.
                    who.compact_log(who.vv if step[2] else stable, min_records=1)
                elif kind == "restore":
                    # Shards whose mask bit is set keep the local map.
                    peer = replicas[step[2] % n_replicas].storage.snapshot_shards()
                    mask = step[3]
                    who.storage.restore_shards(
                        tuple(None if mask >> i & 1 else m for i, m in enumerate(peer))
                    )
                elif kind == "reshard":
                    peer = replicas[step[2] % n_replicas].storage.snapshot_shards()
                    who.storage.restore_shards(resplit(peer, step[3]))
                else:
                    who.rebuild_from_log()
                check(replicas, registry)
        finally:
            for replica in replicas:
                replica.storage.close()


class TestRehashCount:
    def make(self, shards=4) -> ShardedStore:
        return ShardedStore("r", make_registry(), engine="memory", shards=shards)

    def fill(self, store: ShardedStore, count: int) -> None:
        for i in range(count):
            store.set(f"ctr:{i}", PNCounter(i + 1))

    def test_k_writes_rehash_at_most_k_keys(self):
        store = self.make()
        self.fill(store, 40)
        store.shard_digests()
        before = digest_keys()
        store.note_write("ctr:3")
        store.note_write("ctr:17")
        store.set("ctr:29", PNCounter(-4))
        store.note_write("ctr:3")  # a key written twice counts once
        store.shard_digests()
        assert digest_keys() - before <= 3
        store.close()

    def test_no_writes_rehash_nothing(self):
        store = self.make()
        self.fill(store, 40)
        first = store.shard_digests()
        before = digest_keys()
        assert store.shard_digests() == first
        assert digest_keys() == before
        store.close()

    def test_restore_rehashes_each_shard_once(self):
        source, store = self.make(), self.make()
        self.fill(source, 40)
        self.fill(store, 10)
        store.shard_digests()
        before = digest_keys()
        store.restore_shards(source.snapshot_shards())
        store.shard_digests()
        assert digest_keys() - before == 40
        store.shard_digests()
        assert digest_keys() - before == 40
        source.close()
        store.close()
