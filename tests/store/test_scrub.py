"""Scrubbing: mid-log corruption detected, repaired, or quarantined.

The robustness satellite, per engine: flip a bit in a *non-final*
persisted record and the scrubber must find it (tail repair alone
cannot -- that only covers crash-mid-append damage at the very end),
then heal from the cheapest trustworthy source.  With the object live
in memory the repair is a re-persist; with the object gone locally it
is a clone from a peer whose version vector dominates ours -- and the
repaired engine's digest must come back *byte-identical* to the
donor's.  With no trustworthy source at all the key is quarantined,
loudly, never silently resurrected.

File-engine damage here flips a bit of a frame's stored *CRC*: the
body stays readable, so attribution is deterministic (a body flip may
or may not survive unpickling, depending on which byte rots).  The
body-flip path -- unattributable damage widening the quarantine -- is
pinned separately by :class:`TestUnattributedDamage`.
"""

import pickle

import pytest

from repro.crdts import AWSet
from repro.obs import REGISTRY
from repro.store import framedlog
from repro.store.engine import ENGINE_NAMES, FaultyEngine, FileEngine
from repro.store.registry import TypeRegistry
from repro.store.replica import Replica
from repro.store.scrub import scrub_replica

KEYS = ("alpha", "beta", "gamma")
TARGET = "beta"  # always damaged at a non-final persisted record


def make_registry():
    registry = TypeRegistry()
    registry.register_prefix("", AWSet)
    return registry


def persist(replica):
    """Feed the engines at a durability point, whatever the engine.

    The memory engine is volatile redundancy: the store's checkpoints
    skip it, so corruption tests hand it objects directly.
    """
    store = replica.storage
    if store.durable:
        store.sync()
    else:
        for key, obj in store.maps[0].items():
            store.engines[0].put(key, obj)


def build_pair(name, tmp_path):
    """Replica A plus peer B holding identical, fully persisted state.

    Two durability rounds, the second after ``TARGET`` and ``gamma``
    changed.  Each rewrites the file engine's log with one frame per
    key in key order, so ``TARGET``'s frame sits mid-log (gamma's
    follows it).
    """
    registry = make_registry()
    a = Replica(
        "A", registry, engine=name, shards=1,
        data_dir=str(tmp_path / "a"),
    )
    b = Replica(
        "B", registry, engine=name, shards=1,
        data_dir=str(tmp_path / "b"),
    )

    def commit(key, element):
        txn = a.begin()
        txn.update(key, lambda s: s.prepare_add(element))
        b.apply_remote(txn.commit())

    for i, key in enumerate(KEYS):
        commit(key, f"e{i}")
    persist(a)
    persist(b)
    commit(TARGET, "second")
    commit("gamma", "third")
    persist(a)
    persist(b)
    return a, b, registry


def newest_frame_offset(path, key):
    frames, _damage = framedlog.scan(path)
    target = None
    for offset, _end, body in frames:
        frame_key, _obj = pickle.loads(body)
        if frame_key == key:
            target = offset
    assert target is not None, f"no frame for {key!r}"
    return target, frames[-1][0]


def corrupt(replica, key):
    """Rot ``key``'s newest persisted copy, deterministically."""
    engine = replica.storage.engines[0]
    if isinstance(engine, FileEngine):
        engine.sync()
        offset, final = newest_frame_offset(engine.path, key)
        assert offset < final, f"{key!r} must not be the final record"
        with open(engine.path, "r+b") as fh:
            fh.seek(offset + 4)  # the frame's stored-CRC field
            byte = fh.read(1)[0]
            fh.seek(offset + 4)
            fh.write(bytes([byte ^ 1]))
    else:
        FaultyEngine(engine).corrupt(key, seed=5)


def drop_live(replica, key):
    """Lose the live copy (a recovery that rebuilt without the key)."""
    replica.storage.maps[0].pop(key)


@pytest.fixture(params=ENGINE_NAMES)
def engine_name(request):
    return request.param


class TestScrub:
    def test_clean_store_scrubs_clean(self, engine_name, tmp_path):
        a, _b, _registry = build_pair(engine_name, tmp_path)
        report = scrub_replica(a)
        assert report.clean
        assert report.healed
        assert report.keys_checked >= len(KEYS)

    def test_midlog_corruption_repaired_from_live(
        self, engine_name, tmp_path
    ):
        a, _b, registry = build_pair(engine_name, tmp_path)
        before = a.storage.engines[0].digest(registry)
        corrupt(a, TARGET)
        report = scrub_replica(a)
        assert TARGET in report.corrupt
        assert TARGET in report.repaired_live
        assert report.healed
        assert not report.quarantined
        # Repair rewrote the shard: physically clean, logically equal.
        assert a.storage.engines[0].verify().clean
        assert a.storage.engines[0].digest(registry) == before

    def test_repair_from_peer_restores_identical_digest(
        self, engine_name, tmp_path
    ):
        a, b, registry = build_pair(engine_name, tmp_path)
        corrupt(a, TARGET)
        drop_live(a, TARGET)
        report = scrub_replica(a, peers=[b])
        assert TARGET in report.repaired_peer
        assert report.healed
        assert a.storage.engines[0].verify().clean
        # Byte-identical persisted fingerprints: the clone restored
        # exactly what the donor holds.
        assert (
            a.storage.engines[0].digest(registry)
            == b.storage.engines[0].digest(registry)
        )
        # Engine-only repair: the live map must NOT get the clone --
        # anti-entropy will redeliver those effects as records.
        assert a.storage.get(TARGET) is None

    def test_no_source_quarantines_loudly(self, engine_name, tmp_path):
        a, _b, _registry = build_pair(engine_name, tmp_path)
        quarantined_before = REGISTRY.counter(
            "store.scrub.quarantined"
        ).value
        corrupt(a, TARGET)
        drop_live(a, TARGET)
        report = scrub_replica(a)
        assert TARGET in report.quarantined
        assert not report.healed
        assert (
            REGISTRY.counter("store.scrub.quarantined").value
            > quarantined_before
        )
        # The damage itself is still gone: quarantine drops the rotten
        # copy from the persisted state instead of serving it.
        survey = a.storage.engines[0].verify()
        assert survey.clean
        assert TARGET not in survey.objects

    def test_non_dominating_peer_is_not_trusted(
        self, engine_name, tmp_path
    ):
        a, b, _registry = build_pair(engine_name, tmp_path)
        # A commits past B: B's copy may miss updates; cloning it
        # could silently lose state, so quarantine must win.
        txn = a.begin()
        txn.update("delta", lambda s: s.prepare_add("late"))
        txn.commit()
        persist(a)
        corrupt(a, TARGET)
        drop_live(a, TARGET)
        report = scrub_replica(a, peers=[b])
        assert TARGET in report.quarantined
        assert not report.repaired_peer


class TestUnattributedDamage:
    def test_garbage_body_widens_and_still_heals(self, tmp_path):
        """A body that cannot even name its key repairs via widening.

        The damaged frame might have superseded *any* key whose newest
        good frame precedes it, so every such key is re-verified
        against a trustworthy source -- here the live map.
        """
        a, _b, registry = build_pair("file", tmp_path)
        engine = a.storage.engines[0]
        before = engine.digest(registry)
        engine.sync()
        offset, final = newest_frame_offset(engine.path, TARGET)
        assert offset < final
        frames, _damage = framedlog.scan(engine.path)
        body_len = next(
            len(body) for off, _end, body in frames if off == offset
        )
        with open(engine.path, "r+b") as fh:
            fh.seek(offset + 8)  # past length + CRC: the body itself
            fh.write(b"\xff" * body_len)
        report = scrub_replica(a)
        assert report.unattributed >= 1
        # TARGET and every earlier-framed key fell under suspicion;
        # all of them healed from the live map.
        assert TARGET in report.corrupt
        assert report.corrupt == report.repaired_live
        assert report.healed
        assert engine.verify().clean
        assert engine.digest(registry) == before
