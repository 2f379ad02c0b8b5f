"""Sharded commit log: routed appends, seq-merged parallel replay.

The sharded log must be indistinguishable from a single-file log at
the record level: replay returns the exact append order whatever the
shard count (one shard is simply N = 1), and the crash contract
(damaged final frame per shard file) carries over unchanged.
"""

import os

import pytest

from repro.crdts import AWSet
from repro.net import commitlog
from repro.store.engine import HashRing
from repro.store.registry import TypeRegistry
from repro.store.replica import Replica


def make_records(n, keys=("s0", "s1", "s2", "s3", "s4")):
    """n commit records spread over several keys (route targets)."""
    registry = TypeRegistry()
    registry.register_prefix("", AWSet)
    replica = Replica("A", registry)
    records = []
    for i in range(n):
        txn = replica.begin()
        txn.update(keys[i % len(keys)], lambda s, i=i: s.prepare_add(f"e{i}"))
        records.append(txn.commit())
    return records


@pytest.mark.parametrize("shards", [1, 2, 4, 8])
class TestShardedReplay:
    def test_replay_merges_back_to_append_order(self, tmp_path, shards):
        records = make_records(40)
        with commitlog.ShardedCommitLog(str(tmp_path), "A", shards=shards) as log:
            for record in records:
                log.append(record)
            used = [path for path in log.paths if os.path.getsize(path)]
            assert len(used) > 1 or shards == 1, "workload never spread across shards"
        fresh = commitlog.ShardedCommitLog(str(tmp_path), "A", shards=shards)
        assert fresh.replay() == records
        fresh.close()

    def test_seq_resumes_after_restart(self, tmp_path, shards):
        records = make_records(20)
        with commitlog.ShardedCommitLog(str(tmp_path), "A", shards=shards) as log:
            for record in records[:12]:
                log.append(record)
        revived = commitlog.ShardedCommitLog(str(tmp_path), "A", shards=shards)
        assert revived.replay() == records[:12]
        for record in records[12:]:
            revived.append(record)
        revived.close()
        final = commitlog.ShardedCommitLog(str(tmp_path), "A", shards=shards)
        assert final.replay() == records
        final.close()

    def test_tail_damage_per_shard_file(self, tmp_path, shards):
        """A torn final frame in one shard file loses that record only;
        the merged replay keeps every other record in order."""
        records = make_records(30)
        with commitlog.ShardedCommitLog(str(tmp_path), "A", shards=shards) as log:
            for record in records:
                log.append(record)
        victim = next(path for path in log.paths if os.path.getsize(path) > 0)
        lost = commitlog.replay(victim)[-1]
        with open(victim, "r+b") as fh:
            fh.truncate(os.path.getsize(victim) - 3)
        fresh = commitlog.ShardedCommitLog(str(tmp_path), "A", shards=shards)
        replayed = fresh.replay()
        fresh.close()
        assert replayed == [r for r in records if r != lost]

    def test_routing_matches_store_ring(self, tmp_path, shards):
        """Log routing and store routing share the HashRing: a record
        lands in the shard file owning its first updated key."""
        records = make_records(25)
        with commitlog.ShardedCommitLog(str(tmp_path), "A", shards=shards) as log:
            for record in records:
                log.append(record)
        ring = HashRing(shards)
        by_shard = {
            index: [r for _s, r in commitlog.replay_indexed(path)]
            for index, path in enumerate(log.paths)
        }
        for record in records:
            owner = ring.shard_of(record.updates[0][0])
            assert record in by_shard[owner]


class TestShardedLogErrors:
    def test_untagged_record_in_sharded_log_raises(self, tmp_path):
        records = make_records(1)
        path = commitlog.shard_log_paths(str(tmp_path), "A", 2)[0]
        with commitlog.CommitLog(path) as log:
            log.append(records[0])  # no seq tag
        sharded = commitlog.ShardedCommitLog(str(tmp_path), "A", shards=2)
        with pytest.raises(commitlog.CommitLogError, match="sequence tag"):
            sharded.replay()
        sharded.close()

    def test_zero_shards_rejected(self, tmp_path):
        with pytest.raises(commitlog.CommitLogError, match=">= 1"):
            commitlog.ShardedCommitLog(str(tmp_path), "A", shards=0)

    def test_empty_dir_replays_empty(self, tmp_path):
        sharded = commitlog.ShardedCommitLog(str(tmp_path), "A", shards=4)
        assert sharded.replay() == []
        sharded.append(make_records(1)[0])
        sharded.close()
