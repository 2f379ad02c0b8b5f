#!/usr/bin/env python3
"""The layer ledger: one command, five workloads, every metric by name.

::

    python benchmarks/ledger/run.py [--workload NAME] [--seed S]
        [--seconds N] [--trace {0,1} | --traced] [--json OUT] [--smoke]

Without ``--workload`` all five run, one after another.  Each runs in
its own child process (so ``peak_rss_mb`` is per workload) over
scratch space under ``benchmarks/ledger/.work/`` that is removed
afterwards.  The report prints every end-to-end metric by name and
unit, the exact counts two runs on one seed must agree on, and each
correctness check; ``--trace 1`` reruns the same inputs with
``repro.obs`` enabled and the timing shims in, and prints the
per-layer metrics and the layer table instead.  The last line of
standard output is one JSON object -- ``correct``, ``attempted``,
``failed``, ``metrics`` -- and the exit code is non-zero if any check
failed.

``--seconds`` buys repetitions: every workload is a fixed amount of
work per repetition (sized for about ten seconds here), so N seconds
means ``max(1, N // 10)`` repetitions, medians reported.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import subprocess
import sys
import tempfile
from statistics import median

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

from repro.obs import REGISTRY, monotonic  # noqa: E402

from metrics import (  # noqa: E402
    CONTRACT,
    NAMED,
    PASSES,
    PER_LAYER,
    WORKLOAD_NAMES,
)

DEFAULT_SEED = 23
#: Nominal seconds one repetition of any workload takes on the 2-core
#: sandbox; ``--seconds`` is divided by it.
REP_SECONDS = 10
WORK_ROOT = os.path.join(HERE, ".work")
#: A child still running by then is killed (the driver's own cap on
#: one run is 180 s).
CHILD_TIMEOUT_S = 170.0


def seed_for(workload: str, seed: int) -> int:
    """Every workload's seed derives from the one ``--seed``.

    The table position is mixed in so that no two workloads share
    generated inputs; kept small so trial seeds stay readable.
    """
    return seed * 8 + WORKLOAD_NAMES.index(workload)


# -- child: one workload in this process --------------------------------------


def _counters() -> dict[str, float]:
    return dict(REGISTRY.snapshot().get("counters", {}))


def run_child(args) -> dict:
    """Set up, measure (and, traced, measure again); one JSON document."""
    # Imported here so only the child pays for them: import time is
    # taken from the parent's spawn instant (one system-wide monotonic
    # clock), interpreter start-up included.
    from layers import layer_metrics
    from shims import Ledger, tracing
    from workloads import GAPS, WORKLOADS, Run

    import_s = monotonic() - args.spawned_at
    workload = WORKLOADS[args.workload]
    size = workload.smoke if args.smoke else workload.full
    reps = max(1, args.seconds // REP_SECONDS)
    seed = seed_for(workload.name, args.seed)
    setup_s = []
    inputs = None
    for _ in range(workload.setup_reps):
        started = monotonic()
        inputs = workload.setup(seed, size)
        setup_s.append(monotonic() - started)
    inputs_s = median(setup_s)

    plain = Run(args.workdir, reps)
    outcome = workload.measure(inputs, size, plain)
    document = {
        "workload": workload.name,
        "why": workload.why,
        "seed": args.seed,
        "workload_seed": seed,
        "size": "smoke" if args.smoke else "full",
        "repetitions": reps,
        "measured_s": plain.measured_s,
        "gaps": GAPS,
    }
    named = dict(outcome.named)
    named["setup_s"] = import_s + inputs_s + outcome.setup_extra_s
    named["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    )
    document["setup_parts_s"] = {
        "imports": import_s,
        "inputs_median": inputs_s,
        "inside_measure": outcome.setup_extra_s,
    }
    correct = outcome.correct
    if args.trace:
        # The same inputs again, obs enabled and shims in; the
        # plain pass above is what trace_overhead_pct compares to.
        ledger = Ledger()
        traced_run = Run(args.workdir, reps, ledger)
        before = _counters()
        with tracing(ledger, os.path.join(args.workdir, "obs-spool")):
            outcome = workload.measure(inputs, size, traced_run)
        delta = {
            name: value - before.get(name, 0)
            for name, value in _counters().items()
        }
        correct = correct and outcome.correct
        document["layers"] = layer_metrics(
            ledger, outcome.extras, delta,
            traced_run.measured_s, plain.measured_s,
        )
        document["layer_table"] = ledger.layer_table(
            traced_run.measured_s
        )
        document["traced_s"] = traced_run.measured_s
        document["attributed_s"] = ledger.attributed_s()
        if args.spans_out:
            _write_spans(args.spans_out, ledger)
    document["named"] = named
    document["exact"] = outcome.exact
    document["attempted"] = outcome.attempted
    document["failed"] = outcome.failed
    document["correct"] = correct
    document["checks"] = [
        {"check": name, "ok": ok, "detail": detail}
        for name, ok, detail in outcome.checks
    ]
    return document


def _write_spans(path: str, ledger) -> None:
    """The retained spans as JSONL: id, parent, name, start, end, op."""
    with open(path, "w", encoding="utf-8") as handle:
        for span_id, parent, name, start, end, op in ledger.spans:
            handle.write(
                json.dumps(
                    {"id": span_id, "parent": parent, "name": name,
                     "start_s": start, "end_s": end, "op": op}
                )
                + "\n"
            )


# -- parent: spawn, collect, print --------------------------------------------


def spawn(workload: str, args) -> dict:
    """Run one workload in a child process; its document, or a failure."""
    os.makedirs(WORK_ROOT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{workload}-", dir=WORK_ROOT)
    # The child must not inherit knobs that change what runs, and its
    # temporary files must stay inside the checkout.
    env = {
        key: value
        for key, value in os.environ.items()
        if not key.startswith("REPRO_")
    }
    env["TMPDIR"] = workdir
    command = [
        sys.executable, os.path.abspath(__file__),
        "--child", "--workdir", workdir, "--workload", workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ]
    if args.smoke:
        command.append("--smoke")
    if args.json and args.trace:
        command += ["--spans-out", f"{args.json}.{workload}.spans.jsonl"]
    command += ["--spawned-at", repr(monotonic())]
    try:
        done = subprocess.run(
            command, env=env, stdout=subprocess.PIPE,
            timeout=CHILD_TIMEOUT_S, check=False,
        )
    except subprocess.TimeoutExpired:
        return _failure(workload, f"no result in {CHILD_TIMEOUT_S:.0f} s")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    lines = done.stdout.decode("utf-8", "replace").strip().splitlines()
    if done.returncode != 0 or not lines:
        return _failure(workload, f"child exited {done.returncode}")
    return json.loads(lines[-1])


def _failure(workload: str, reason: str) -> dict:
    return {
        "workload": workload, "correct": False, "attempted": 1, "failed": 1,
        "named": {}, "exact": {}, "layers": {},
        "checks": [{"check": "workload ran", "ok": False, "detail": reason}],
    }


def contract_metrics(document: dict, trace: int) -> dict:
    """The metrics object of the driver's last line, for one workload."""
    if trace:
        layers = document.get("layers", {})
        return {
            name: {"value": layers[name], "unit": unit}
            for name, unit, _better in PER_LAYER
            if name in layers
        }
    named = document["named"]
    if not named:
        return {}
    pass1, pass2 = PASSES[document["workload"]]
    values = {
        "setup_s": named["setup_s"],
        "peak_rss_mb": named["peak_rss_mb"],
        "pass1_per_s": named[pass1],
        "pass2_per_s": named[pass2],
    }
    return {
        name: {"value": values[name], "unit": unit}
        for name, unit, _better, _bound in CONTRACT
    }


def print_report(document: dict, trace: int) -> None:
    name = document["workload"]
    print(f"== {name}  (seed {document.get('seed')}, "
          f"{document.get('size')} size, "
          f"{document.get('repetitions')} repetition(s))")
    if trace:
        print(f"   traced {document.get('traced_s', 0.0):.3f} s vs "
              f"{document.get('measured_s', 0.0):.3f} s untraced; "
              f"attributed {document.get('attributed_s', 0.0):.3f} s")
        layers = document.get("layers", {})
        for metric, unit, _better in PER_LAYER:
            if metric in layers:
                print(f"   {metric:<44} {layers[metric]:>16.4f} {unit}")
        print("   layer table (self-time share of the traced wall):")
        for row in document.get("layer_table", [])[:12]:
            print(f"     {row['span']:<32} {row['self_share']:>7.2%} "
                  f"self {row['self_s']:>9.4f} s  calls {row['calls']}")
    else:
        named = document["named"]
        for metric, unit, _better, bound, workloads in NAMED:
            if name in workloads and metric in named:
                print(f"   {metric:<28} {named[metric]:>14.4f} {unit:<5}"
                      f" (bound {bound:.0%})")
        for metric, value in contract_metrics(document, 0).items():
            if metric.startswith("pass"):
                print(f"   {metric:<28} {value['value']:>14.4f} "
                      f"{value['unit']}")
    for key, value in document["exact"].items():
        print(f"   exact {key:<34} {value}")
    print(f"   attempted {document['attempted']}  "
          f"failed {document['failed']}")
    for check in document["checks"]:
        verdict = "ok  " if check["ok"] else "FAIL"
        print(f"   [{verdict}] {check['check']}  {check['detail']}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=REP_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--traced", dest="trace", action="store_const",
                        const=1, help="same as --trace 1")
    parser.add_argument("--json", metavar="OUT",
                        help="also write the full report as JSON")
    parser.add_argument("--smoke", action="store_true",
                        help="each workload at its smoke size")
    parser.add_argument("--child", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--spawned-at", type=float, help=argparse.SUPPRESS)
    parser.add_argument("--workdir", help=argparse.SUPPRESS)
    parser.add_argument("--spans-out", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.child:
        print(json.dumps(run_child(args)))
        return 0

    names = (args.workload,) if args.workload else WORKLOAD_NAMES
    documents = []
    for name in names:
        document = spawn(name, args)
        documents.append(document)
        print_report(document, args.trace)
    try:
        os.rmdir(WORK_ROOT)  # unless another run is using it
    except OSError:
        pass
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump({"workloads": documents}, handle, indent=2)
            handle.write("\n")
    metrics = {}
    for document in documents:
        values = contract_metrics(document, args.trace)
        if len(documents) == 1:
            metrics = values
        else:
            metrics.update(
                {f"{document['workload']}.{key}": value
                 for key, value in values.items()}
            )
    correct = all(document["correct"] for document in documents)
    print(json.dumps({
        "correct": correct,
        "attempted": sum(d["attempted"] for d in documents),
        "failed": sum(d["failed"] for d in documents),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
