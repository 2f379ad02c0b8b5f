"""Process-level deployment: subprocess servers and the CLI entry points.

These spawn real ``python -m repro serve`` processes (one per region),
SIGKILL one mid-run, and check the restarted process recovers from its
commit log to the simulator's exact digests.
"""

import asyncio
import json
import sys

import pytest

from repro.check.explorer import PLAN_KINDS, build_trial
from repro.net.harness import run_live
from repro.net.oracle import record_trial


@pytest.mark.timeout(120)
class TestSubprocessServers:
    def test_crash_plan_with_real_processes(self, tmp_path):
        assert PLAN_KINDS[3] == "partition-crash"
        spec = build_trial("tournament", "Causal", 11, 3, n_ops=25)
        _, deployment = record_trial(spec)
        report = asyncio.run(
            run_live(
                deployment,
                str(tmp_path),
                time_scale=0.05,
                deadline_s=90.0,
                subprocess_servers=True,
            )
        )
        assert report.crashes == 1
        assert report.ok, report.reason
        assert report.digest_match


@pytest.mark.timeout(120)
class TestLoadCommand:
    def test_load_writes_bench_report_and_exits_zero(self, tmp_path, capsys):
        from repro.__main__ import main

        out = tmp_path / "BENCH_serve.json"
        code = main(
            [
                "load",
                "tournament",
                "--config",
                "Causal",
                "--seed",
                "11",
                "--index",
                "0",
                "--n-ops",
                "15",
                "--time-scale",
                "0.02",
                "--workdir",
                str(tmp_path / "cluster"),
                "--out",
                str(out),
            ]
        )
        assert code == 0
        text = capsys.readouterr().out
        assert "digests byte-identical to the simulation" in text
        payload = json.loads(out.read_text())
        assert payload["benchmark"] == "serve"
        assert payload["digest_match"] is True
        assert payload["n_ops"] == 15
        assert payload["throughput_ops_per_s"] > 0

    def test_load_json_output(self, tmp_path, capsys):
        from repro.__main__ import main

        code = main(
            [
                "load",
                "tournament",
                "--index",
                "0",
                "--n-ops",
                "10",
                "--time-scale",
                "0.02",
                "--workdir",
                str(tmp_path / "cluster"),
                "--json",
            ]
        )
        assert code == 0
        # --json prints the payload between human-readable status lines.
        out = capsys.readouterr().out
        payload = json.loads(out[out.index("{") : out.rindex("}") + 1])
        assert payload["digest_match"] is True


    def test_load_rejects_corrupting_a_region_that_never_crashes(self, tmp_path, capsys):
        from repro.__main__ import main

        code = main(
            [
                "load",
                "tournament",
                "--index",
                "0",
                "--n-ops",
                "10",
                "--workdir",
                str(tmp_path / "cluster"),
                "--corrupt",
                "eu-west",
            ]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot corrupt eu-west")
        assert not (tmp_path / "cluster").exists()


class TestServeCommandValidation:
    def test_serve_rejects_unknown_region(self, tmp_path, capsys):
        from repro.__main__ import main
        from repro.net.harness import build_topology
        from repro.net.oracle import write_deployment

        spec = build_trial("tournament", "Causal", 11, 0, n_ops=5)
        _, deployment = record_trial(spec)
        dep_path = tmp_path / "deployment.json"
        write_deployment(dep_path, deployment)
        topology = build_topology(tuple(sorted(deployment["schedules"])))
        topo_path = tmp_path / "topology.json"
        topo_path.write_text(json.dumps(topology))
        code = main(
            [
                "serve",
                "--deployment",
                str(dep_path),
                "--topology",
                str(topo_path),
                "--region",
                "mars-1",
                "--data-dir",
                str(tmp_path / "data"),
            ]
        )
        assert code == 2
        assert "mars-1" in capsys.readouterr().err

    def test_serve_smoke_over_real_sockets(self, tmp_path):
        """`repro serve` as a real child process: starts, reports status
        over its client socket, and shuts down cleanly on SIGTERM."""
        import signal
        import subprocess
        import time

        from repro.net.client import fetch_status
        from repro.net.harness import build_topology
        from repro.net.oracle import write_deployment

        spec = build_trial("tournament", "Causal", 11, 0, n_ops=5)
        _, deployment = record_trial(spec)
        dep_path = tmp_path / "deployment.json"
        write_deployment(dep_path, deployment)
        regions = tuple(sorted(deployment["schedules"]))
        topology = build_topology(regions)
        topo_path = tmp_path / "topology.json"
        topo_path.write_text(json.dumps(topology))
        region = regions[0]
        proc = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro",
                "serve",
                "--deployment",
                str(dep_path),
                "--topology",
                str(topo_path),
                "--region",
                region,
                "--data-dir",
                str(tmp_path / "data"),
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
        )
        try:
            status = None
            deadline = time.monotonic() + 30.0
            while time.monotonic() < deadline:
                try:
                    status = asyncio.run(
                        fetch_status(
                            "127.0.0.1",
                            topology["regions"][region]["client_port"],
                        )
                    )
                    break
                except OSError:
                    time.sleep(0.1)
            assert status is not None, "server never answered status"
            assert status["region"] == region
            assert status["position"] == 0
            proc.send_signal(signal.SIGTERM)
            output, _ = proc.communicate(timeout=15)
            assert proc.returncode == 0
            assert f"serving {region}" in output
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
