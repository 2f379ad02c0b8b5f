"""Smoke test of the layer ledger (``pytest benchmarks/ledger -q``).

Outside tier-1 ``testpaths``: every workload runs at its smoke size
from the one ``WORKLOADS`` table, through the real command line, and
the output schema, every metric name and unit, and all correctness
checks are asserted.  Run with ``PYTHONPATH=src`` like the rest of
``benchmarks/``.
"""

import json
import os
import shutil
import subprocess
import sys
from types import SimpleNamespace

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
sys.path.insert(0, HERE)

import metrics  # noqa: E402
import run as ledger_run  # noqa: E402
import shims  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

RUN = [sys.executable, os.path.join(HERE, "run.py")]
SIMS = ("sim-paper-mix", "sim-write-heavy")


def run_ledger(*argv, cwd=ROOT):
    done = subprocess.run(
        [*RUN, *argv], cwd=cwd, stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, timeout=170, check=False,
    )
    lines = done.stdout.decode().strip().splitlines()
    return done.returncode, lines


def test_benchmark_json_is_the_tables():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        committed = json.load(fh)
    assert committed == metrics.benchmark_json(
        committed["command"],
        committed["run_seconds"],
        {name: WORKLOADS[name].why for name in metrics.WORKLOAD_NAMES},
    )
    assert tuple(WORKLOADS) == metrics.WORKLOAD_NAMES
    assert committed["run_seconds"] == ledger_run.REP_SECONDS
    assert len(metrics.NAMED) == 12


@pytest.mark.parametrize("workload", metrics.WORKLOAD_NAMES)
def test_untraced_smoke(workload, tmp_path):
    report = tmp_path / "report.json"
    code, lines = run_ledger(
        "--workload", workload, "--smoke", "--seed", "7",
        "--json", str(report),
    )
    last = json.loads(lines[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert code == 0 and last["correct"] is True
    assert last["attempted"] >= 1 and last["failed"] == 0
    assert {
        name: value["unit"] for name, value in last["metrics"].items()
    } == {name: unit for name, unit, _b, _bound in metrics.CONTRACT}
    assert all(value["value"] > 0 for value in last["metrics"].values())

    (document,) = json.loads(report.read_text())["workloads"]
    for name, _unit, _better, _bound, workloads in metrics.NAMED:
        assert (name in document["named"]) or workload not in workloads
    assert all(check["ok"] for check in document["checks"])
    assert set(document["gaps"]) == set("abcde")
    printed = "\n".join(lines)
    for name, unit, _better, _bound, workloads in metrics.NAMED:
        if workload in workloads:
            assert name in printed and unit in printed


@pytest.mark.parametrize("workload", metrics.WORKLOAD_NAMES)
def test_traced_smoke(workload):
    code, lines = run_ledger("--workload", workload, "--smoke", "--trace", "1")
    last = json.loads(lines[-1])
    assert code == 0 and last["correct"] is True
    assert {
        name: value["unit"] for name, value in last["metrics"].items()
    } == {name: unit for name, unit, _better in metrics.PER_LAYER}
    layer = {name: v["value"] for name, v in last["metrics"].items()}
    # The layers separate as designed.
    assert (layer["solver.check.calls"] > 0) == (workload == "analyze")
    if workload in SIMS:
        assert layer["net.wire.frames"] == 0
        assert layer["store.conflicts.check.calls"] == 0
        assert layer["sim.events.count"] > 0
        assert layer["crdts.awset.effects"] > 0
    if workload == "live-replay":
        assert layer["net.wire.frames"] > 0
        assert layer["store.conflicts.check.calls"] > 0
        assert layer["net.commitlog.replay.us_per_record"] > 0
    if workload == "check-sweep":
        assert layer["check.oracles.invariant.calls"] > 0
        assert layer["store.antientropy.rounds"] > 0
    assert -0.01 <= layer["unattributed_share"] <= 1.0


def _patched_attributes():
    targets = [
        (shims._resolve(owner), attr) for owner, attr, *_ in shims.SHIMS
    ]
    targets += [
        (owner, attr) for owner, attr, _ in shims._obs_hooks(shims.Ledger())
    ]
    return targets


def test_shims_restore_the_exact_originals():
    targets = _patched_attributes()
    before = [vars(owner)[attr] for owner, attr in targets]
    saved = shims.install(shims.Ledger())
    try:
        during = [vars(owner)[attr] for owner, attr in targets]
        assert all(a is not b for a, b in zip(before, during))
    finally:
        shims.remove(saved)
    after = [vars(owner)[attr] for owner, attr in targets]
    assert all(a is b for a, b in zip(before, after))


def test_untraced_run_installs_no_shim(monkeypatch, tmp_path):
    def refuse(_ledger):
        raise AssertionError("an untraced run installed the shims")

    monkeypatch.setattr(shims, "install", refuse)
    targets = _patched_attributes()
    before = [vars(owner)[attr] for owner, attr in targets]
    document = ledger_run.run_child(
        SimpleNamespace(
            workload="sim-paper-mix", smoke=True, seconds=10, seed=7,
            trace=0, workdir=str(tmp_path), spans_out=None,
            spawned_at=ledger_run.monotonic(),
        )
    )
    assert document["correct"]
    assert all(
        vars(owner)[attr] is original
        for (owner, attr), original in zip(targets, before)
    )


def test_bare_directory_fails_without_a_result(tmp_path):
    # The driver also runs the command where only BENCHMARK.json and
    # the benchmark's own files exist: it must fail, printing no result.
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(
        HERE, tmp_path / "benchmarks" / "ledger",
        ignore=shutil.ignore_patterns("__pycache__", ".work"),
    )
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    done = subprocess.run(
        [sys.executable, "benchmarks/ledger/run.py", "--workload",
         "analyze", "--seed", "1", "--seconds", "10", "--trace", "0"],
        cwd=tmp_path, env=env, stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, timeout=60, check=False,
    )
    assert done.returncode != 0
    assert done.stdout.decode().strip() == ""
