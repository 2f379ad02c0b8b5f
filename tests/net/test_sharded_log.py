"""One commit log per replica, whatever shard count a deployment pins.

A replica's store is one object map.  Deployments and replay files
written when the store was sharded still carry a ``shards`` count in
their trial spec; it is accepted and ignored.  At every pinned count a
live server keeps exactly one ``{region}.commitlog`` file, a
kill-and-replay of it rebuilds the same state digest, and mid-file
damage under salvage keeps a prefix of the application order.
"""

import os

import pytest

from repro.check.explorer import build_trial
from repro.net import commitlog
from repro.net.oracle import record_trial
from repro.net.server import ReplicaServer
from repro.store import framedlog
from repro.store.cluster import replica_state_digest

SHARDS = [1, 2, 4, 8]


@pytest.fixture(scope="module")
def deployment():
    _, deployment = record_trial(build_trial("tournament", "Causal", 11, 0, n_ops=10))
    return deployment


def boot(deployment, data_dir, shards):
    """Construct a region's server with ``shards`` pinned in its trial spec.

    Construction replays its log.
    """
    pinned = {**deployment, "trial": {**deployment["trial"], "shards": shards}}
    region = pinned["trial"]["regions"][0]
    return ReplicaServer(pinned, {}, region, str(data_dir))


def drive(server, n=12):
    """Commit through the app: ``n`` enrolments over ``n`` tournaments."""
    players = [f"p{i}" for i in range(n)]
    tournaments = [f"t{i}" for i in range(n)]
    server.app.setup(players, tournaments, region=server.region)
    for player, tournament in zip(players, tournaments):
        server.app.enroll(server.region, player, tournament, lambda _op: None)


def kill(server):
    server.kill()
    server.node.store.storage.close()


@pytest.mark.parametrize("shards", SHARDS)
class TestOneLog:
    def test_one_log_file_whatever_the_store_shard_count(self, tmp_path, deployment, shards):
        server = boot(deployment, tmp_path, shards)
        drive(server)
        storage = server.node.store.storage
        assert storage.n_shards == 1
        assert len(storage.maps) == 1 and sorted(storage.maps[0]) == storage.keys()
        logs = sorted(name for name in os.listdir(tmp_path) if name.endswith(".commitlog"))
        assert logs == [f"{server.region}.commitlog"]
        assert commitlog.replay(tmp_path / logs[0]) == server.node.store.log
        kill(server)

    def test_kill_and_replay_rebuilds_the_same_state(self, tmp_path, deployment, shards):
        server = boot(deployment, tmp_path, shards)
        drive(server)
        digest = replica_state_digest(server.node.store)
        records = list(server.node.store.log)
        kill(server)
        revived = boot(deployment, tmp_path, shards)
        assert revived.stats["net.recovered_records"] == len(records)
        assert revived.node.store.log == records
        assert replica_state_digest(revived.node.store) == digest
        kill(revived)

    def test_mid_file_damage_under_salvage_keeps_a_prefix(self, tmp_path, deployment, shards):
        server = boot(deployment, tmp_path, shards)
        drive(server)
        records = list(server.node.store.log)
        path = server.log.path
        kill(server)
        middle = len(records) // 2
        assert framedlog.flip_bit(path, middle) is not None
        revived = boot(deployment, tmp_path, shards)
        assert revived.stats["net.commitlog.salvaged"] == 1
        assert revived.node.store.log == records[:middle]
        assert commitlog.replay(path) == records[:middle]
        kill(revived)
