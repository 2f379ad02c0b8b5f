"""What a live server persists, and when.

The topology file is the one place a fleet's durability is set: a
server built from ``build_topology(fsync=True)`` fsyncs every file it
needs back -- commit-log appends and conflict-ledger appends --
whichever way it was started.  The store itself writes nothing.
"""

import os

import pytest

from repro.check.explorer import build_trial
from repro.net.harness import build_topology
from repro.net.oracle import record_trial
from repro.net.server import ReplicaServer


@pytest.fixture(scope="module")
def deployment():
    _, deployment = record_trial(build_trial("tournament", "Causal", 11, 0, n_ops=10))
    return deployment


def boot(deployment, topology, data_dir):
    """A region's server built over ``data_dir``."""
    region = deployment["trial"]["regions"][0]
    return ReplicaServer(deployment, topology, region, str(data_dir))


def drive(server, n=4):
    """Commit through the app: ``n`` enrolments over ``n`` tournaments."""
    players = [f"p{i}" for i in range(n)]
    tournaments = [f"t{i}" for i in range(n)]
    server.app.setup(players, tournaments, region=server.region)
    for player, tournament in zip(players, tournaments):
        server.app.enroll(server.region, player, tournament, lambda _op: None)


def shut(server):
    server.kill()


@pytest.mark.parametrize("fsync", [False, True])
def test_topology_fsync_reaches_log_ledger_and_store(tmp_path, monkeypatch, deployment, fsync):
    synced = []
    real_fsync = os.fsync

    def spy(fd):
        synced.append(os.fstat(fd).st_ino)
        real_fsync(fd)

    monkeypatch.setattr(os, "fsync", spy)
    topology = build_topology(tuple(deployment["trial"]["regions"]), fsync=fsync)
    server = boot(deployment, topology, tmp_path)
    region = server.region
    drive(server)
    server.ledger.append(kind="violation", oracle="invariant", invariant="cap", region=region)
    files = {
        "commit log": tmp_path / f"{region}.commitlog",
        "ledger": tmp_path / f"{region}-conflicts.objlog",
    }
    fsynced = {name for name, path in files.items() if path.stat().st_ino in synced}
    assert fsynced == (set(files) if fsync else set())
    # The store has no file to sync: the commit log is its durable state.
    assert not (tmp_path / f"{region}-store").exists()
    shut(server)
