"""What a live replica recovers from: its commit log, nothing else.

A restarted server replays ``{region}.commitlog`` (``Replica.adopt_log``)
and rebuilds its maps from the records.  This test is the evidence
that nothing else under the data dir is a recovery input: a copy of a
finished run's data dir *without* the region's ``{region}-store/``
directory recovers the same records and the same state digest as the
full copy, and both equal the digest the live replica ended the run
with.  A checkpoint that became a recovery base (ROADMAP item 21(a))
would have to change this test on purpose.
"""

import asyncio
import json
import shutil

import pytest

from repro.check.explorer import build_trial
from repro.net.harness import run_live
from repro.net.oracle import record_trial
from repro.net.server import ReplicaServer
from repro.store.cluster import replica_state_digest


def recover(deployment, topology, region, data_dir):
    """(records recovered, state digest) of a server built over ``data_dir``."""
    server = ReplicaServer(deployment, topology, region, str(data_dir))
    try:
        return len(server.node.store.log), replica_state_digest(server.node.store)
    finally:
        server.kill()
        server.node.store.storage.close()


@pytest.mark.timeout(90)
def test_recovery_reads_only_the_commit_log(tmp_path):
    _, deployment = record_trial(build_trial("tournament", "Causal", 11, 0, n_ops=25))
    workdir = tmp_path / "run"
    report = asyncio.run(run_live(deployment, str(workdir), time_scale=0.02, deadline_s=60.0))
    assert report.ok, report.reason
    topology = json.loads((workdir / "topology.json").read_text())
    for region in deployment["trial"]["regions"]:
        whole = tmp_path / f"{region}-whole"
        bare = tmp_path / f"{region}-bare"
        shutil.copytree(workdir / "data", whole)
        shutil.copytree(
            workdir / "data",
            bare,
            ignore=lambda _dir, names, region=region: [n for n in names if n == f"{region}-store"],
        )
        assert not (bare / f"{region}-store").exists()
        from_whole = recover(deployment, topology, region, whole)
        from_bare = recover(deployment, topology, region, bare)
        assert from_whole[0] > 0
        assert from_bare == from_whole
        assert from_whole[1] == report.digests_live[region]
