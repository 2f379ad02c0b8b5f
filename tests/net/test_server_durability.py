"""What a live server persists, and when.

The topology file is the one place a fleet's durability is set: a
server built from ``build_topology(fsync=True)`` fsyncs every file it
writes -- commit-log appends, conflict-ledger appends and store
checkpoints -- whichever way it was started.  The periodic scrub
verifies the engines before it checkpoints them, so rot that landed
since the last checkpoint is seen rather than overwritten.
"""

import asyncio
import os
import time

import pytest

from repro.check.explorer import build_trial
from repro.net.harness import build_topology
from repro.net.oracle import record_trial
from repro.net.server import ReplicaServer
from repro.store import framedlog


@pytest.fixture(scope="module")
def deployment():
    _, deployment = record_trial(build_trial("tournament", "Causal", 11, 0, n_ops=10))
    return deployment


def boot(deployment, topology, data_dir, engine):
    """A region's server over a store pinned to ``engine`` x 1 shard."""
    trial = {**deployment["trial"], "engine": engine, "shards": 1}
    pinned = {**deployment, "trial": trial}
    return ReplicaServer(pinned, topology, trial["regions"][0], str(data_dir))


def drive(server, n=4):
    """Commit through the app: ``n`` enrolments over ``n`` tournaments."""
    players = [f"p{i}" for i in range(n)]
    tournaments = [f"t{i}" for i in range(n)]
    server.app.setup(players, tournaments, region=server.region)
    for player, tournament in zip(players, tournaments):
        server.app.enroll(server.region, player, tournament, lambda _op: None)


def shut(server):
    server.kill()
    server.node.store.storage.close()


@pytest.mark.parametrize("fsync", [False, True])
def test_topology_fsync_reaches_log_ledger_and_store(tmp_path, monkeypatch, deployment, fsync):
    synced = []
    real_fsync = os.fsync

    def spy(fd):
        synced.append(os.fstat(fd).st_ino)
        real_fsync(fd)

    monkeypatch.setattr(os, "fsync", spy)
    topology = build_topology(tuple(deployment["trial"]["regions"]), fsync=fsync)
    server = boot(deployment, topology, tmp_path, "file")
    region = server.region
    drive(server)
    server.ledger.append(kind="violation", oracle="invariant", invariant="cap", region=region)
    server.node.store.storage.sync()
    files = {
        "commit log": tmp_path / f"{region}.commitlog",
        "ledger": tmp_path / f"{region}-conflicts.objlog",
        "store": tmp_path / f"{region}-store" / "shard-00.objlog",
    }
    fsynced = {name for name, path in files.items() if path.stat().st_ino in synced}
    assert fsynced == (set(files) if fsync else set())
    shut(server)


@pytest.mark.parametrize("fsync, level", [(False, 0), (True, 2)])
def test_topology_fsync_sets_the_sqlite_store_level(tmp_path, deployment, fsync, level):
    topology = build_topology(tuple(deployment["trial"]["regions"]), fsync=fsync)
    server = boot(deployment, topology, tmp_path, "sqlite")
    (engine,) = server.node.store.storage.engines
    assert engine._conn.execute("PRAGMA synchronous").fetchone()[0] == level
    shut(server)


@pytest.mark.timeout(30)
def test_scrub_loop_sees_rot_landed_since_the_last_checkpoint(tmp_path, deployment):
    server = boot(deployment, {"scrub_ms": 5.0}, tmp_path, "file")
    drive(server)
    path = str(tmp_path / f"{server.region}-store" / "shard-00.objlog")

    async def scenario():
        server._running = True
        loop = asyncio.ensure_future(server._scrub_main())
        deadline = time.monotonic() + 20.0
        # The first pass verifies an empty engine, then checkpoints.
        while framedlog.flip_bit(path, seed=5) is None:
            assert time.monotonic() < deadline, "the scrub loop never checkpointed"
            await asyncio.sleep(0.005)
        while not server.stats["store.scrub.corrupt"]:
            assert time.monotonic() < deadline, "the scrub loop never saw the rot"
            await asyncio.sleep(0.005)
        server._running = False
        loop.cancel()

    asyncio.run(scenario())
    assert server.stats["store.scrub.repaired"] == server.stats["store.scrub.corrupt"]
    assert server.stats["store.scrub.quarantined"] == 0
    # The next checkpoint left the engine holding exactly the live map.
    (engine,) = server.node.store.storage.engines
    assert engine.verify().clean
    assert sorted(engine.load()) == server.node.store.keys()
    shut(server)
