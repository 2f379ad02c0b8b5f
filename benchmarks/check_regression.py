#!/usr/bin/env python
"""Benchmark regression gate.

Compares a ``--bench-json`` summary produced by the current run against
the committed baseline (``benchmarks/BENCH_baseline.json``) and exits
non-zero when any benchmark's wall-time regressed by more than the
threshold (default 25%).

Two guards keep the gate honest on noisy CI runners:

- benchmarks faster than ``--min-ms`` in the baseline are only checked
  against ``threshold * min_ms`` (sub-100ms timings are mostly noise);
- a benchmark present in the baseline but missing from the current run
  fails the gate (silently dropping a benchmark is how regressions
  hide).

The gate also enforces the observability contract: any current entry
carrying ``observability.tracing_overhead_pct`` (the tracing-overhead
benchmark) must stay under ``--max-overhead-pct`` -- tracing that is
*disabled* may not cost more than a few percent of throughput.

Entries carrying ``observability.store.recovery_speedup`` (the crash
recovery benchmark) must stay above ``--min-recovery-speedup``:
snapshot + tail-replay recovery has to beat a full log replay by a
clear factor, or checkpointing has silently stopped paying for itself.

Entries carrying ``observability.selfheal.mttr_s`` (the self-healing
benchmark) must stay under ``--max-mttr-s``: a supervised kill must be
detected, restarted and reconverged promptly.

Usage::

    python benchmarks/check_regression.py BENCH_analysis.json \
        [BENCH_sim.json ...] \
        [--baseline benchmarks/BENCH_baseline.json] \
        [--threshold 1.25] [--min-ms 500] [--max-overhead-pct 5]

Several current summaries (one per benchmark shard) are unioned before
comparison; a benchmark name appearing in two shards is an error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

EXPECTED_SCHEMA = 1


def load_summary(path: Path) -> dict[str, dict]:
    with open(path, encoding="utf-8") as handle:
        document = json.load(handle)
    if document.get("schema") != EXPECTED_SCHEMA:
        raise SystemExit(
            f"{path}: unsupported bench-json schema "
            f"{document.get('schema')!r} (expected {EXPECTED_SCHEMA})"
        )
    return {entry["name"]: entry for entry in document["benchmarks"]}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "current",
        type=Path,
        nargs="+",
        help="summaries of this run (unioned across shards)",
    )
    parser.add_argument(
        "--baseline",
        type=Path,
        default=Path(__file__).parent / "BENCH_baseline.json",
    )
    parser.add_argument(
        "--threshold",
        type=float,
        default=1.25,
        help="max allowed wall-time ratio current/baseline (default 1.25)",
    )
    parser.add_argument(
        "--min-ms",
        type=float,
        default=500.0,
        help="baselines below this are compared against the floor itself",
    )
    parser.add_argument(
        "--max-overhead-pct",
        type=float,
        default=5.0,
        help="max allowed disabled-tracing overhead percentage for "
        "entries reporting observability.tracing_overhead_pct "
        "(default 5; the design target is <3)",
    )
    parser.add_argument(
        "--max-live-overhead-pct",
        type=float,
        default=3.0,
        help="max allowed tracing-disabled live-path hook cost "
        "percentage for entries reporting "
        "observability.live.tracing_overhead_pct (default 3; the "
        "PR-9 acceptance bar)",
    )
    parser.add_argument(
        "--min-recovery-speedup",
        type=float,
        default=1.5,
        help="min allowed snapshot+tail vs full-replay speedup for "
        "entries reporting observability.store.recovery_speedup "
        "(default 1.5; measured figures are an order of magnitude up)",
    )
    parser.add_argument(
        "--max-mttr-s",
        type=float,
        default=15.0,
        help="max allowed supervised mean-time-to-recovery in seconds "
        "for entries reporting observability.selfheal.mttr_s "
        "(default 15; measured figures are well under a second)",
    )
    args = parser.parse_args(argv)

    baseline = load_summary(args.baseline)
    current: dict[str, dict] = {}
    for path in args.current:
        for name, entry in load_summary(path).items():
            if name in current:
                raise SystemExit(
                    f"{path}: benchmark {name!r} appears in more than "
                    f"one current summary"
                )
            current[name] = entry

    failures: list[str] = []
    for name, base in sorted(baseline.items()):
        entry = current.get(name)
        if entry is None:
            failures.append(f"{name}: missing from current run")
            continue
        reference = max(base["wall_ms"], args.min_ms)
        limit = args.threshold * reference
        ratio = entry["wall_ms"] / reference
        verdict = "FAIL" if entry["wall_ms"] > limit else "ok"
        print(
            f"{verdict:4} {name}: {entry['wall_ms']:.0f} ms "
            f"vs baseline {base['wall_ms']:.0f} ms "
            f"(x{ratio:.2f}, limit x{args.threshold:.2f})"
        )
        if entry["wall_ms"] > limit:
            failures.append(
                f"{name}: {entry['wall_ms']:.0f} ms exceeds "
                f"{limit:.0f} ms ({args.threshold:.2f}x of "
                f"max(baseline, {args.min_ms:.0f} ms))"
            )
    extra = sorted(set(current) - set(baseline))
    for name in extra:
        print(f"new  {name}: {current[name]['wall_ms']:.0f} ms (no baseline)")

    # Observability contract: disabled tracing must stay ~free.
    for name, entry in sorted(current.items()):
        overhead = entry.get("observability", {}).get(
            "tracing_overhead_pct"
        )
        if overhead is None:
            continue
        verdict = "FAIL" if overhead > args.max_overhead_pct else "ok"
        print(
            f"{verdict:4} {name}: disabled-tracing overhead "
            f"{overhead:+.2f}% (limit {args.max_overhead_pct:.1f}%)"
        )
        if overhead > args.max_overhead_pct:
            failures.append(
                f"{name}: disabled-tracing overhead {overhead:.2f}% "
                f"exceeds {args.max_overhead_pct:.1f}%"
            )

    # Live-path contract: the serve-path instrumentation (spans, flow
    # annotations, conflict detection hooks) must stay ~free while
    # tracing is disabled -- live throughput within a few percent of
    # the pre-observability baseline.
    for name, entry in sorted(current.items()):
        live = entry.get("observability", {}).get("live", {})
        overhead = live.get("tracing_overhead_pct")
        if overhead is None:
            continue
        verdict = "FAIL" if overhead > args.max_live_overhead_pct else "ok"
        print(
            f"{verdict:4} {name}: live disabled-tracing overhead "
            f"{overhead:+.2f}% (enabled "
            f"{live.get('enabled_overhead_pct', 0.0):+.1f}%, "
            f"limit {args.max_live_overhead_pct:.1f}%)"
        )
        if overhead > args.max_live_overhead_pct:
            failures.append(
                f"{name}: live disabled-tracing overhead "
                f"{overhead:.2f}% exceeds "
                f"{args.max_live_overhead_pct:.1f}% (the live path is "
                f"no longer free with tracing off)"
            )

    # Recovery contract: checkpoint + tail replay must stay sublinear.
    for name, entry in sorted(current.items()):
        store = entry.get("observability", {}).get("store", {})
        speedup = store.get("recovery_speedup")
        if speedup is None:
            continue
        verdict = "FAIL" if speedup < args.min_recovery_speedup else "ok"
        print(
            f"{verdict:4} {name}: recovery speedup x{speedup:.1f} "
            f"(full {store.get('full_replay_ms', 0.0):.1f} ms vs tail "
            f"{store.get('tail_replay_ms', 0.0):.1f} ms, "
            f"floor x{args.min_recovery_speedup:.1f})"
        )
        if speedup < args.min_recovery_speedup:
            failures.append(
                f"{name}: recovery speedup x{speedup:.1f} below "
                f"x{args.min_recovery_speedup:.1f} (snapshot+tail "
                f"recovery is no longer sublinear)"
            )

    # Self-healing contract: a killed replica must be detected,
    # restarted and reconverged fast -- a creeping MTTR means the
    # recovery path quietly degraded.
    for name, entry in sorted(current.items()):
        selfheal = entry.get("observability", {}).get("selfheal", {})
        mttr = selfheal.get("mttr_s")
        if mttr is None:
            continue
        bad = mttr > args.max_mttr_s
        verdict = "FAIL" if bad else "ok"
        print(
            f"{verdict:4} {name}: MTTR {mttr:.2f} s "
            f"(detect {selfheal.get('detect_s', 0.0):.3f} s, "
            f"restart {selfheal.get('restart_s', 0.0):.3f} s, "
            f"limit {args.max_mttr_s:.1f} s)"
        )
        if bad:
            failures.append(
                f"{name}: MTTR {mttr:.2f} s exceeds "
                f"{args.max_mttr_s:.1f} s (supervised recovery is no "
                f"longer converging promptly)"
            )

    if failures:
        print()
        print("benchmark regressions detected:")
        for failure in failures:
            print(f"  - {failure}")
        return 1
    print()
    print(f"all {len(baseline)} baselined benchmark(s) within threshold")
    return 0


if __name__ == "__main__":
    sys.exit(main())
