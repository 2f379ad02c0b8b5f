"""Command-line interface: ``python -m repro <command>``.

The executable counterpart of the paper's IPA tool:

- ``analyze SPECFILE``  -- run the full IPA analysis on a spec file and
  print the report (conflicts, chosen repairs, compensations, patch);
- ``conflicts SPECFILE`` -- only detect and print conflicting pairs
  with their Figure 2-style counterexamples; with ``--ledger DIR`` it
  instead queries the durable *runtime* conflict ledger a live run
  left behind (violations, repairs, compensations, with lineage);
- ``classify SPECFILE`` -- print the Table 1 classification of the
  specification's invariants;
- ``simulate`` -- run one closed-loop Tournament experiment on the
  simulated geo-replicated store and print throughput/latency (the
  quickest way to see the effect of ``--batch-ms`` or client load);
  with ``--fail-on-violation`` the run is judged by the runtime
  oracles and the exit status is nonzero when one fires;
- ``check APP`` -- explore deterministic fault schedules against APP
  with the runtime oracles, shrink the first counterexample found,
  and optionally write a replayable repro file; ``check --replay
  FILE`` re-executes a repro file and verifies the same verdict;
- ``trace SPECFILE`` -- run the IPA analysis plus a short simulation
  with tracing on and write one Chrome-trace JSON covering all three
  layers (open it at https://ui.perfetto.dev);
- ``serve`` -- run one region's live replica server (TCP listeners,
  durable commit log, schedule-gated execution) against a recorded
  deployment; normally launched per region by ``load --subprocess``
  or the quickstart recipe in the README;
- ``load`` -- record a simulated trial, then execute it against a
  *live* 3-region cluster over real sockets with a chaos proxy on
  every link, and compare the final state digests byte-for-byte
  against the simulator's; ``--trace-dir DIR`` traces the whole fleet
  and stitches one Perfetto-loadable ``trace.json``;
- ``top`` -- poll a live fleet's metrics endpoints (replicas via the
  topology file, chaos proxy via its admin port) and render schedule
  progress, convergence lag, store counters and fault rates.

``analyze`` and ``simulate`` accept ``--trace`` (print a span summary
table) and ``--trace-out FILE`` (write the Chrome trace); ``simulate``
then also runs the IPA analysis of the application first, so the trace
carries analysis, solver and store spans end to end.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from repro import obs
from repro.analysis import ConflictChecker, run_ipa
from repro.analysis.classification import classify_spec
from repro.analysis.report import render_result, render_witness
from repro.errors import ReproError
from repro.specfile import load_specfile


def _tracing_requested(args: argparse.Namespace) -> bool:
    return bool(
        getattr(args, "trace", False) or getattr(args, "trace_out", None)
    )


def _start_tracing(args: argparse.Namespace) -> None:
    if _tracing_requested(args):
        obs.configure(enabled=True)


def _finish_tracing(args: argparse.Namespace) -> None:
    """Export and/or summarise the collected trace, then stop tracing."""
    if not _tracing_requested(args):
        return
    spans = obs.TRACER.spans()
    out = getattr(args, "trace_out", None)
    if out:
        obs.write_chrome_trace(spans, out)
        print(
            f"trace: {len(spans)} span(s) -> {out} "
            f"(load in https://ui.perfetto.dev)"
        )
    if getattr(args, "trace", False):
        print()
        print(obs.summarize(spans))
    obs.TRACER.disable()


def _add_trace_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--trace", action="store_true",
        help="collect spans and print a per-span summary table",
    )
    parser.add_argument(
        "--trace-out", metavar="FILE", default=None,
        help="write the collected spans as Chrome trace-event JSON "
        "(Perfetto-loadable)",
    )


def _ms(value: float | None) -> str:
    """None-safe fixed-width millisecond figure."""
    return f"{value:6.2f}" if value is not None else "   n/a"


def _cmd_analyze(args: argparse.Namespace) -> int:
    spec = load_specfile(args.specfile)
    _start_tracing(args)
    result = run_ipa(
        spec,
        max_effects=args.max_effects,
        allow_rule_changes=not args.no_rule_changes,
        cache=not args.no_cache,
        cache_dir=None if args.no_cache else args.cache_dir,
    )
    print(render_result(result))
    _finish_tracing(args)
    return 0 if result.is_invariant_preserving else 1


def _cmd_conflicts(args: argparse.Namespace) -> int:
    if args.ledger is not None:
        return _conflicts_ledger(args)
    if args.specfile is None:
        print(
            "error: SPECFILE is required unless --ledger is given",
            file=sys.stderr,
        )
        return 2
    spec = load_specfile(args.specfile)
    checker = ConflictChecker(spec)
    witnesses = checker.find_conflicts()
    if not witnesses:
        print("no conflicting pairs: the specification is I-Confluent")
        return 0
    for witness in witnesses:
        print(render_witness(witness))
        print()
    print(f"{len(witnesses)} conflicting pair(s)")
    return 1


def _conflicts_ledger(args: argparse.Namespace) -> int:
    """Query the durable runtime conflict ledgers under a data dir."""
    from repro.store.conflicts import open_ledgers

    ledgers = open_ledgers(args.ledger)
    if not ledgers:
        # Every live server creates its ledger at start, clean run or
        # not: finding none means the path is wrong.
        print(f"error: no conflict ledgers under {args.ledger}", file=sys.stderr)
        return 2
    records = [
        record
        for ledger in ledgers.values()
        for record in ledger.records()
    ]
    records.sort(key=lambda r: (r.detected_at_ms, r.region, r.seq))
    if args.kind:
        records = [r for r in records if r.kind == args.kind]
    if args.json:
        print(
            json.dumps(
                {
                    "ledger": args.ledger,
                    "regions": sorted(ledgers),
                    "records": [r.to_dict() for r in records],
                },
                indent=2,
                sort_keys=True,
            )
        )
    else:
        for record in records:
            print(record.describe())
        totals: dict[str, int] = {}
        for ledger in ledgers.values():
            for kind, count in ledger.counts().items():
                totals[kind] = totals.get(kind, 0) + count
        summary = ", ".join(
            f"{count} {kind}(s)" for kind, count in sorted(totals.items())
        )
        print(
            f"{len(records)} record(s) across {len(ledgers)} region "
            f"ledger(s){': ' + summary if summary else ''}"
        )
    for ledger in ledgers.values():
        ledger.close()
    return 0


def _cmd_classify(args: argparse.Namespace) -> int:
    spec = load_specfile(args.specfile)
    grouped = classify_spec(spec)
    for cls, invariants in sorted(grouped.items(), key=lambda kv: kv[0].value):
        verdict = (
            "I-Confluent"
            if cls.i_confluent
            else f"IPA: {cls.ipa_treatment}"
        )
        print(f"{cls.label} ({verdict})")
        for invariant in invariants:
            print(f"  - {invariant.describe()}")
    return 0


def _simulate_violations(cluster, config, sessions, caps: dict) -> list:
    """Judge a finished ``simulate`` run with the runtime oracles."""
    from repro.check.apps import TournamentAdapter
    from repro.check.oracles import ConvergenceOracle, InvariantOracle

    adapter = TournamentAdapter()
    digests = cluster.state_digest()
    violations = list(ConvergenceOracle().check(cluster, digests=digests))
    # Converged replicas share digests: ground the invariants once per
    # distinct digest.
    representatives: dict[str, str] = {}
    for region in sorted(cluster.regions):
        representatives.setdefault(digests[region], region)
    oracle = InvariantOracle(adapter.spec(caps))
    for region in sorted(representatives.values()):
        interp = adapter.extract(
            cluster.replica(region), config.variant, caps
        )
        violations.extend(oracle.check(interp, region))
    violations.extend(sessions.check())
    return violations


def _cmd_simulate(args: argparse.Namespace) -> int:
    # Imported here: the simulator stack is not needed by the
    # analysis-only commands.
    from repro.bench.configs import CONFIGS, build_tournament
    from repro.sim.runner import run_closed_loop
    from repro.store.cluster import ConsistencyMode

    config = next((c for c in CONFIGS if c.name == args.config), None)
    if config is None:
        names = ", ".join(c.name for c in CONFIGS)
        print(
            f"error: unknown config {args.config!r} (one of: {names})",
            file=sys.stderr,
        )
        return 2
    _start_tracing(args)
    if _tracing_requested(args):
        # Analysis provenance: a traced run documents the whole IPA
        # pipeline, so derive the application's repairs/compensations
        # first -- the trace then carries analysis, solver and store
        # spans end to end.
        from repro.apps.tournament import tournament_spec

        run_ipa(tournament_spec(), cache=False)
    caps = {"capacity": 8, "n_players": 60, "n_tournaments": 12}
    sim, app, workload = build_tournament(
        config,
        n_players=caps["n_players"],
        n_tournaments=caps["n_tournaments"],
        capacity=caps["capacity"],
        seed=args.seed,
        n_regions=args.regions,
        batch_ms=args.batch_ms,
    )
    cluster = app.cluster
    observer = None
    sessions = None
    if args.fail_on_violation:
        from repro.check.oracles import SessionTracker

        sessions = SessionTracker()
        strong = config.mode is ConsistencyMode.STRONG

        def observer(client, op_name):
            serving = cluster.primary if strong else client.region
            sessions.observe(
                f"{client.region}#{client.client_id}",
                serving,
                cluster.replica(serving).vv_digest().entries,
            )

    clients = {region: args.clients for region in cluster.regions}
    with obs.TRACER.span(
        "sim.run", config=config.name, clients=args.clients
    ):
        result = run_closed_loop(
            sim,
            workload.issue,
            clients,
            duration_ms=args.duration_ms,
            warmup_ms=args.warmup_ms,
            think_ms=args.think_ms,
            observer=observer,
        )
        cluster.run_until_converged()
    stats = result.stats()
    print(
        f"{config.name}: {args.regions} regions x {args.clients} "
        f"clients, batch_ms={args.batch_ms:g}"
    )
    print(
        f"  throughput {result.throughput:8.1f} op/s   "
        f"latency mean {_ms(stats.mean)} ms  "
        f"p95 {_ms(stats.p95)} ms  p99 {_ms(stats.p99)} ms"
    )
    print(
        f"  {result.metrics.total_operations()} operations, "
        f"{cluster.replication_messages} replication messages"
    )
    exit_code = 0
    if args.fail_on_violation:
        violations = _simulate_violations(cluster, config, sessions, caps)
        if violations:
            print(f"  ORACLE VIOLATIONS ({len(violations)}):")
            for violation in violations[:10]:
                print(f"    - {violation.describe()}")
            if len(violations) > 10:
                print(f"    ... and {len(violations) - 10} more")
            exit_code = 1
        else:
            print("  oracles: clean (convergence, invariants, sessions)")
    _finish_tracing(args)
    return exit_code


def _check_replay(args: argparse.Namespace) -> int:
    """Re-execute a repro file and verify its recorded verdict."""
    from repro.check import load_repro, run_trial

    spec, expected = load_repro(args.replay)
    result = run_trial(spec)
    reproduced = result.verdict_keys == expected
    if args.json:
        print(
            json.dumps(
                {
                    "mode": "replay",
                    "app": spec.app,
                    "config": spec.config,
                    "seed": spec.seed,
                    "fingerprint": result.fingerprint,
                    "verdict": [list(k) for k in sorted(result.verdict_keys)],
                    "expected": [list(k) for k in sorted(expected)],
                    "reproduced": reproduced,
                    "violations": [v.to_dict() for v in result.violations],
                },
                indent=2,
                sort_keys=True,
            )
        )
        return 0 if reproduced else 1
    print(result.summary())
    for violation in result.violations:
        print(f"  - {violation.describe()}")
    if reproduced:
        print("verdict reproduced")
        return 0
    print(
        "VERDICT MISMATCH: expected "
        f"{sorted(expected)}, got {sorted(result.verdict_keys)}"
    )
    return 1


def _format_ops(ops) -> list[str]:
    return [
        f"t={op.at_ms:7.1f} ms  {op.session:>12s}  "
        f"{op.op}({', '.join(op.args)})"
        for op in ops
    ]


def _cmd_check(args: argparse.Namespace) -> int:
    if args.replay:
        return _check_replay(args)
    if not args.app:
        print(
            "error: APP is required unless --replay is given",
            file=sys.stderr,
        )
        return 2
    from repro.check import explore, shrink, write_repro

    result = explore(
        args.app,
        args.config,
        trials=args.trials,
        budget_s=args.budget_s,
        seed=args.seed,
        n_ops=args.n_ops,
    )
    report: dict = {
        "mode": "explore",
        "app": result.app,
        "config": result.config,
        "seed": result.root_seed,
        "explored": result.explored,
        "violating": result.violating,
        "budget_exhausted": result.budget_exhausted,
        "trials": [
            {
                "index": t.index,
                "seed": t.seed,
                "plan_kind": t.plan_kind,
                "n_ops": t.n_ops,
                "n_violations": t.n_violations,
                "converged": t.converged,
            }
            for t in result.trials
        ],
    }
    if not args.json:
        for t in result.trials:
            status = (
                f"{t.n_violations} violation(s)" if t.n_violations else "ok"
            )
            print(
                f"  trial {t.index:2d} [{t.plan_kind:>15s}] "
                f"seed={t.seed} ops={t.n_ops} {status}"
            )
        print(result.summary())
    if result.failures:
        first = result.failures[0]
        report["failure"] = {
            "seed": first.spec.seed,
            "verdict": [list(k) for k in sorted(first.verdict_keys)],
            "fingerprint": first.fingerprint,
            "violations": [v.to_dict() for v in first.violations],
        }
        final_spec, final_result = first.spec, first
        if not args.no_shrink:
            shrunk = shrink(first.spec)
            final_spec, final_result = shrunk.shrunk, shrunk.result
            report["shrink"] = {
                "original_ops": shrunk.original_ops,
                "shrunk_ops": shrunk.shrunk_ops,
                "op_reduction": round(shrunk.op_reduction, 4),
                "regions": list(shrunk.shrunk.regions),
                "runs": shrunk.runs,
                "ops": _format_ops(shrunk.shrunk.ops),
            }
            if not args.json:
                print()
                print(f"shrink: {shrunk.summary()}")
                print("minimal counterexample:")
                for line in _format_ops(shrunk.shrunk.ops):
                    print(f"    {line}")
                for violation in final_result.violations:
                    print(f"  - {violation.describe()}")
        if args.out:
            os.makedirs(args.out, exist_ok=True)
            path = os.path.join(
                args.out,
                f"{args.app}-{args.config}-seed{args.seed}.json",
            )
            write_repro(
                path,
                final_spec,
                final_result,
                meta={
                    "root_seed": args.seed,
                    "explored": result.explored,
                    "shrunk": not args.no_shrink,
                },
            )
            report["repro_file"] = path
            if not args.json:
                print(f"repro written to {path}")
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True))
    violating = result.violating > 0
    if args.expect == "violation":
        return 0 if violating else 1
    if args.expect == "clean":
        return 0 if not violating else 1
    return 1 if violating else 0


def _cmd_trace(args: argparse.Namespace) -> int:
    """One traced end-to-end run: IPA analysis + a short simulation."""
    from repro.bench.configs import CONFIGS, build_tournament
    from repro.sim.runner import run_closed_loop

    spec = load_specfile(args.specfile)
    obs.configure(enabled=True)
    result = run_ipa(spec, cache=False)
    print(
        f"analysis: {result.rounds} round(s), "
        f"{result.solver_queries} solver queries, "
        f"{len(result.applied)} repair(s), "
        f"{len(result.flagged)} flagged conflict(s)"
    )
    config = next(c for c in CONFIGS if c.name == "Causal")
    sim, app, workload = build_tournament(config, seed=args.seed)
    cluster = app.cluster
    clients = {region: args.clients for region in cluster.regions}
    with obs.TRACER.span("sim.run", config=config.name, clients=args.clients):
        run = run_closed_loop(
            sim,
            workload.issue,
            clients,
            duration_ms=args.duration_ms,
            warmup_ms=500.0,
        )
        cluster.run_until_converged()
    print(
        f"simulation: {run.metrics.total_operations()} operation(s) at "
        f"{run.throughput:.1f} op/s over {args.duration_ms:g} ms"
    )
    spans = obs.TRACER.spans()
    obs.write_chrome_trace(spans, args.trace_out)
    print(
        f"trace: {len(spans)} span(s) -> {args.trace_out} "
        f"(load in https://ui.perfetto.dev)"
    )
    print()
    print(obs.summarize(spans))
    obs.TRACER.disable()
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    """One region's live replica server, until SIGTERM."""
    import asyncio
    import signal

    from repro.net.oracle import load_deployment
    from repro.net.server import ReplicaServer

    deployment = load_deployment(args.deployment)
    with open(args.topology, encoding="utf-8") as handle:
        topology = json.load(handle)
    if args.trace_dir:
        # Write-through spooling: every span hits the process's spool
        # file as it ends, so a SIGKILL mid-run loses at most the span
        # being written -- the stitcher tolerates the torn tail.
        obs.configure(
            enabled=True,
            spool_dir=args.trace_dir,
            spool=True,
            process=f"serve-{args.region}",
        )

    async def serve() -> int:
        server = ReplicaServer(
            deployment,
            topology,
            args.region,
            args.data_dir,
        )
        await server.start()
        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGTERM, signal.SIGINT):
            loop.add_signal_handler(signum, stop.set)
        print(
            f"serving {args.region}: client port "
            f"{topology['regions'][args.region]['client_port']}, peer port "
            f"{topology['regions'][args.region]['peer_port']}, "
            f"{len(server.engine.schedule)} schedule step(s), resuming at "
            f"{server.engine.position}",
            flush=True,
        )
        # Monitor loop rather than a bare stop.wait(): a permanent
        # engine failure (schedule divergence, unrecoverable storage
        # fault) must exit nonzero with a diagnosis, not serve a stuck
        # schedule until some harness deadline gives up on us.
        while not stop.is_set():
            try:
                await asyncio.wait_for(stop.wait(), timeout=0.5)
            except asyncio.TimeoutError:
                pass
            if server.engine_error is not None:
                print(
                    f"replica {args.region} failed permanently: "
                    f"{server.engine_error} (schedule position "
                    f"{server.engine.position}/"
                    f"{len(server.engine.schedule)})",
                    file=sys.stderr,
                    flush=True,
                )
                await server.stop()
                return 3
        await server.stop()
        return 0

    return asyncio.run(serve())


def _cmd_load(args: argparse.Namespace) -> int:
    """Record a trial, run it live under chaos, judge the digests."""
    import asyncio
    import tempfile

    from repro.check.explorer import build_trial
    from repro.net.harness import run_live
    from repro.net.oracle import record_trial

    spec = build_trial(
        args.app,
        args.config,
        args.seed,
        args.index,
        n_ops=args.n_ops,
    )
    _, deployment = record_trial(spec)
    plan = deployment["trial"].get("plan", {})
    print(
        f"recorded {args.app}/{args.config} seed={spec.seed} "
        f"({len(deployment['ops'])} ops, "
        f"{len(plan.get('partitions', []))} partition window(s), "
        f"{len(plan.get('crashes', []))} crash window(s))"
    )
    workdir = args.workdir or tempfile.mkdtemp(prefix="repro-live-")
    report = asyncio.run(
        run_live(
            deployment,
            workdir,
            time_scale=args.time_scale,
            deadline_s=args.deadline_s,
            subprocess_servers=args.subprocess,
            fsync=args.fsync,
            trace_dir=args.trace_dir,
            corrupt_regions=tuple(args.corrupt or ()),
            overload_limit=args.overload_limit,
        )
    )
    if report.trace:
        print(
            f"stitched trace -> {report.trace} "
            f"(load in https://ui.perfetto.dev)"
        )
    payload = report.bench(deployment, args.time_scale)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"report written to {args.out}")
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        mode = "subprocess" if args.subprocess else "in-process"
        print(
            f"live run ({mode} servers): {report.client.get('client.ops_acked', 0):.0f} "
            f"ops acked in {report.wall_s:.2f}s "
            f"({report.client.get('client.ops_per_s', 0.0):.1f} op/s), "
            f"{report.client.get('client.retries', 0):.0f} retries, "
            f"{report.crashes} crash window(s)"
        )
        for region in sorted(report.digests_sim):
            live = report.digests_live.get(region, "<missing>")
            verdict = "==" if live == report.digests_sim[region] else "!="
            print(f"  {region}: live {live[:16]} {verdict} sim "
                  f"{report.digests_sim[region][:16]}")
        supervisor = report.supervisor or {}
        if supervisor.get("restarts") or supervisor.get("corrupted_files"):
            mttr = supervisor.get("mttr_s")
            print(
                f"self-healing: {supervisor.get('restarts', 0)} supervised "
                f"restart(s), "
                f"{len(supervisor.get('corrupted_files', []))} corrupted "
                f"file(s) injected"
                + (f", MTTR {mttr:.2f}s" if mttr is not None else "")
            )
    if report.ok:
        print("digests byte-identical to the simulation")
        return 0
    print(f"LIVE RUN FAILED: {report.reason}", file=sys.stderr)
    for incident in (report.supervisor or {}).get("incidents", []):
        region = incident.get("region", "?")
        attempts = incident.get("attempts", 0)
        if incident.get("gave_up"):
            print(
                f"  supervisor: {region} permanently dead after "
                f"{attempts} restart attempt(s)",
                file=sys.stderr,
            )
        else:
            print(
                f"  supervisor: restarted {region} "
                f"(attempt(s)={attempts}, "
                f"detect {incident.get('detect_s', 0.0):.2f}s, "
                f"restart {incident.get('restart_s', 0.0):.2f}s)",
                file=sys.stderr,
            )
    return 1


async def _top_snapshot(topology: dict, timeout_s: float = 2.0) -> dict:
    """One poll of every live endpoint: replicas + proxy admin."""
    import asyncio

    from repro.net import wire
    from repro.net.client import fetch_metrics

    snapshot: dict = {"regions": {}, "proxy": None}
    for region, entry in sorted(topology.get("regions", {}).items()):
        try:
            snapshot["regions"][region] = await fetch_metrics(
                entry.get("host", "127.0.0.1"),
                entry["client_port"],
                timeout_s=timeout_s,
            )
        except (ReproError, ConnectionError, OSError, asyncio.TimeoutError):
            snapshot["regions"][region] = None
    admin = topology.get("proxy_admin")
    if admin:
        try:
            reader, writer = await asyncio.open_connection(
                admin.get("host", "127.0.0.1"), admin["port"]
            )
            try:
                await wire.write_frame(writer, {"type": "metrics"})
                frame = await asyncio.wait_for(
                    wire.read_frame(reader), timeout=timeout_s
                )
                if frame and frame.get("type") == "proxy_metrics_ack":
                    snapshot["proxy"] = frame.get("links", {})
            finally:
                writer.close()
        except (ReproError, ConnectionError, OSError, asyncio.TimeoutError):
            pass
    return snapshot


def _render_top(snapshot: dict) -> str:
    """The fleet table: one row per replica, one per chaos link."""
    header = (
        f"{'region':<12} {'schedule':>9} {'ops':>5} {'applied':>7} "
        f"{'dups':>5} {'sync t/o':>8} {'lag ms':>8} {'keys':>6} "
        f"{'conflicts':>18} {'rescan/rebuild':>15} "
        f"{'instances':>9}"
    )
    lines = [header, "-" * len(header)]
    for region, frame in sorted(snapshot["regions"].items()):
        if frame is None:
            lines.append(f"{region:<12} {'unreachable':>9}")
            continue
        stats = frame.get("stats", {})
        store = frame.get("store", {})
        registry = frame.get("registry", {})
        lag = registry.get("gauges", {}).get("store.convergence.lag_ms")
        counters = registry.get("counters", {})
        # The detector's work: keys re-read / whole-replica re-reads,
        # and invariant instances re-evaluated (process-global like the
        # client counters below).
        detector_txt = (
            f"{counters.get('store.conflicts.keys_rescanned', 0)}/"
            f"{counters.get('store.conflicts.full_rebuilds', 0)}"
        )
        instances = counters.get("store.conflicts.instances_evaluated", 0)
        conflicts = frame.get("conflicts", {})
        conflict_txt = (
            " ".join(
                f"{kind[0]}:{count}"
                for kind, count in sorted(conflicts.items())
            )
            or "-"
        )
        lines.append(
            f"{region:<12} "
            f"{frame.get('position', 0):>4}/{frame.get('steps', 0):<4} "
            f"{stats.get('net.ops.executed', 0):>5.0f} "
            f"{stats.get('net.records.applied', 0):>7.0f} "
            f"{stats.get('net.records.duplicates', 0):>5.0f} "
            f"{stats.get('net.sync.timeouts', 0):>8.0f} "
            f"{lag if lag is not None else float('nan'):>8.1f} "
            f"{store.get('store.keys_total', 0):>6} "
            f"{conflict_txt:>18} "
            f"{detector_txt:>15} "
            f"{instances:>9}"
        )
    lines.append("")
    health_header = (
        f"{'region':<12} {'hbeats':>7} {'susp':>5} {'recov':>5} "
        f"{'hints q/r/d':>12} {'brk':>4} {'shed':>5} "
        f"{'retries':>7} {'t/o':>5}"
    )
    lines.append(health_header)
    lines.append("-" * len(health_header))
    for region, frame in sorted(snapshot["regions"].items()):
        if frame is None:
            lines.append(f"{region:<12} {'unreachable':>7}")
            continue
        stats = frame.get("stats", {})
        counters = frame.get("registry", {}).get("counters", {})
        hints = (
            f"{stats.get('net.handoff.queued', 0):.0f}/"
            f"{stats.get('net.handoff.replayed', 0):.0f}/"
            f"{stats.get('net.handoff.dropped', 0):.0f}"
        )
        shed = stats.get("net.overload.shed_ops", 0)
        lines.append(
            f"{region:<12} "
            f"{stats.get('net.health.heartbeats', 0):>7.0f} "
            f"{stats.get('net.health.suspects', 0):>5.0f} "
            f"{stats.get('net.health.recoveries', 0):>5.0f} "
            f"{hints:>12} "
            f"{stats.get('net.breaker.opened', 0):>4.0f} "
            f"{shed:>5.0f} "
            # Client counters live in the process-global registry: they
            # are populated when the fleet shares the server process
            # (in-process mode) and stay 0 under --subprocess.
            f"{counters.get('client.retries', 0):>7} "
            f"{counters.get('client.timeouts', 0):>5}"
        )
    if snapshot.get("proxy"):
        lines.append("")
        lines.append(
            f"{'link':<20} {'delivered':>9} {'dropped':>8} {'dup':>5} "
            f"{'reorder':>7} {'partition':>9} {'down':>5}"
        )
        for name, link in sorted(snapshot["proxy"].items()):
            lines.append(
                f"{name:<20} {link.get('delivered', 0):>9} "
                f"{link.get('dropped', 0):>8} "
                f"{link.get('duplicated', 0):>5} "
                f"{link.get('reordered', 0):>7} "
                f"{link.get('partition_drops', 0):>9} "
                f"{link.get('down_drops', 0):>5}"
            )
    return "\n".join(lines)


def _cmd_top(args: argparse.Namespace) -> int:
    """Live fleet metrics: poll, render, repeat."""
    import asyncio
    import time as _time

    with open(args.topology, encoding="utf-8") as handle:
        topology = json.load(handle)

    iteration = 0
    try:
        while True:
            iteration += 1
            snapshot = asyncio.run(_top_snapshot(topology))
            if args.json:
                print(json.dumps(snapshot, sort_keys=True))
            else:
                if iteration > 1:
                    print()
                print(_render_top(snapshot))
            reachable = any(
                frame is not None
                for frame in snapshot["regions"].values()
            )
            if args.iterations and iteration >= args.iterations:
                return 0 if reachable else 1
            _time.sleep(args.interval_s)
    except KeyboardInterrupt:
        return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="IPA: make applications invariant-preserving "
        "under weak consistency",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    analyze = sub.add_parser(
        "analyze", help="run the full IPA analysis and print the patch"
    )
    analyze.add_argument("specfile")
    analyze.add_argument(
        "--max-effects", type=int, default=2,
        help="max extra effects per repair (default 2)",
    )
    analyze.add_argument(
        "--no-rule-changes", action="store_true",
        help="only repair under the declared convergence rules",
    )
    analyze.add_argument(
        "--no-cache", action="store_true",
        help="disable the solver-query cache",
    )
    analyze.add_argument(
        "--cache-dir", default=".ipa-cache", metavar="DIR",
        help="persistent solver-cache directory (default .ipa-cache)",
    )
    _add_trace_flags(analyze)
    analyze.set_defaults(func=_cmd_analyze)

    conflicts = sub.add_parser(
        "conflicts",
        help="detect conflicting operation pairs (static analysis), "
        "or query a live run's durable conflict ledger (--ledger)",
    )
    conflicts.add_argument(
        "specfile", nargs="?", default=None,
        help="specification to analyse (omit with --ledger)",
    )
    conflicts.add_argument(
        "--ledger", metavar="DIR", default=None,
        help="query the runtime conflict ledgers under a live run's "
        "data directory (e.g. <workdir>/data) instead of analysing "
        "a spec",
    )
    conflicts.add_argument(
        "--kind", choices=("violation", "repair", "compensation"),
        default=None,
        help="with --ledger: only show records of this kind",
    )
    conflicts.add_argument(
        "--json", action="store_true",
        help="with --ledger: print records as JSON",
    )
    conflicts.set_defaults(func=_cmd_conflicts)

    classify = sub.add_parser(
        "classify", help="classify invariants (Table 1 taxonomy)"
    )
    classify.add_argument("specfile")
    classify.set_defaults(func=_cmd_classify)

    simulate = sub.add_parser(
        "simulate",
        help="run one closed-loop Tournament simulation",
    )
    simulate.add_argument(
        "--config", default="Causal",
        help="system configuration: Strong, Indigo, IPA or Causal "
        "(default Causal)",
    )
    simulate.add_argument(
        "--regions", type=int, default=3,
        help="number of geo-replicated regions (default 3)",
    )
    simulate.add_argument(
        "--clients", type=int, default=32, metavar="N",
        help="closed-loop clients per region (default 32)",
    )
    simulate.add_argument(
        "--batch-ms", type=float, default=0.0, metavar="MS",
        help="replication coalescing window in simulated ms; 0 ships "
        "one message per commit record (default 0)",
    )
    simulate.add_argument(
        "--duration-ms", type=float, default=10_000.0, metavar="MS",
        help="measurement window in simulated ms (default 10000)",
    )
    simulate.add_argument(
        "--warmup-ms", type=float, default=1_000.0, metavar="MS",
        help="warm-up before the window (default 1000)",
    )
    simulate.add_argument(
        "--think-ms", type=float, default=100.0, metavar="MS",
        help="per-client think time between operations (default 100)",
    )
    simulate.add_argument(
        "--seed", type=int, default=23,
        help="workload seed (default 23)",
    )
    simulate.add_argument(
        "--fail-on-violation", action="store_true",
        help="judge the run with the runtime oracles (convergence, "
        "invariants, session monotonicity) and exit nonzero if any "
        "fires",
    )
    _add_trace_flags(simulate)
    simulate.set_defaults(func=_cmd_simulate)

    check = sub.add_parser(
        "check",
        help="explore fault schedules against an application with "
        "runtime oracles; shrink and save counterexamples",
    )
    check.add_argument(
        "app", nargs="?", default=None, metavar="APP",
        help="application to check: tournament, ticket, tpcw or "
        "twitter (omit with --replay)",
    )
    check.add_argument(
        "--config", default="Causal",
        help="checker configuration: Causal, IPA or Strong "
        "(default Causal)",
    )
    check.add_argument(
        "--trials", type=int, default=15, metavar="N",
        help="maximum trials to explore (default 15)",
    )
    check.add_argument(
        "--budget-s", type=float, default=60.0, metavar="S",
        help="wall-clock budget in seconds (default 60)",
    )
    check.add_argument(
        "--seed", type=int, default=11,
        help="root exploration seed (default 11)",
    )
    check.add_argument(
        "--n-ops", type=int, default=40, metavar="N",
        help="client operations per generated trace (default 40)",
    )
    check.add_argument(
        "--out", metavar="DIR", default=None,
        help="write a replayable repro file for the first "
        "counterexample into DIR",
    )
    check.add_argument(
        "--no-shrink", action="store_true",
        help="skip delta-debugging minimisation of the first "
        "counterexample",
    )
    check.add_argument(
        "--expect", choices=("violation", "clean"), default=None,
        help="CI mode: exit 0 iff the sweep found a violation "
        "('violation') or none ('clean')",
    )
    check.add_argument(
        "--replay", metavar="FILE", default=None,
        help="re-execute a repro file and verify the recorded verdict",
    )
    check.add_argument(
        "--json", action="store_true",
        help="print a machine-readable JSON report",
    )
    check.set_defaults(func=_cmd_check)

    trace = sub.add_parser(
        "trace",
        help="run analysis + a short simulation with tracing on and "
        "export a Chrome trace",
    )
    trace.add_argument("specfile")
    trace.add_argument(
        "--trace-out", metavar="FILE", default="trace.json",
        help="output Chrome trace-event JSON (default trace.json)",
    )
    trace.add_argument(
        "--clients", type=int, default=8, metavar="N",
        help="closed-loop clients per region (default 8)",
    )
    trace.add_argument(
        "--duration-ms", type=float, default=2_000.0, metavar="MS",
        help="simulation measurement window (default 2000)",
    )
    trace.add_argument(
        "--seed", type=int, default=23,
        help="workload seed (default 23)",
    )
    trace.set_defaults(func=_cmd_trace)

    serve = sub.add_parser(
        "serve",
        help="run one region's live replica server against a recorded "
        "deployment (see 'load' and the README quickstart)",
    )
    serve.add_argument(
        "--deployment", required=True, metavar="FILE",
        help="deployment JSON recorded from a simulated trial",
    )
    serve.add_argument(
        "--topology", required=True, metavar="FILE",
        help="topology JSON: ports per region, proxy link ports, epoch",
    )
    serve.add_argument(
        "--region", required=True,
        help="which region this server is (must be in the deployment)",
    )
    serve.add_argument(
        "--data-dir", required=True, metavar="DIR",
        help="directory for the durable commit log (survives crashes)",
    )
    serve.add_argument(
        "--trace-dir", metavar="DIR", default=None,
        help="spool spans write-through into DIR for fleet stitching "
        "(survives SIGKILL; see 'load --trace-dir')",
    )
    serve.set_defaults(func=_cmd_serve)

    load = sub.add_parser(
        "load",
        help="record a simulated trial, run it against a live cluster "
        "under chaos, and compare state digests byte-for-byte",
    )
    load.add_argument(
        "app", nargs="?", default="tournament", metavar="APP",
        help="application to run: tournament, ticket, tpcw or twitter "
        "(default tournament)",
    )
    load.add_argument(
        "--config", default="Causal",
        help="configuration: Causal or IPA (default Causal; live "
        "serving is causal-mode only)",
    )
    load.add_argument(
        "--seed", type=int, default=11,
        help="trial seed (default 11)",
    )
    load.add_argument(
        "--index", type=int, default=3, metavar="N",
        help="trial index; selects the fault-plan kind "
        "(index %% 5: clean, lossy, partition, partition-crash, "
        "heavy; default 3 = partition-crash)",
    )
    load.add_argument(
        "--n-ops", type=int, default=40, metavar="N",
        help="client operations in the trace (default 40)",
    )
    load.add_argument(
        "--time-scale", type=float, default=0.05, metavar="X",
        help="live seconds per simulated second (default 0.05: a "
        "20x-compressed replay)",
    )
    load.add_argument(
        "--deadline-s", type=float, default=120.0, metavar="S",
        help="overall wall-clock deadline (default 120)",
    )
    load.add_argument(
        "--subprocess", action="store_true",
        help="run each region as a real OS process ('python -m repro "
        "serve'); crash windows then SIGKILL the process",
    )
    load.add_argument(
        "--fsync", action="store_true",
        help="fsync every commit-log and conflict-ledger append",
    )
    load.add_argument(
        "--workdir", metavar="DIR", default=None,
        help="working directory for logs and spec files (default: a "
        "fresh temp dir)",
    )
    load.add_argument(
        "--out", metavar="FILE", default=None,
        help="write the live-run report JSON (BENCH_serve.json shape)",
    )
    load.add_argument(
        "--json", action="store_true",
        help="print the full report as JSON",
    )
    load.add_argument(
        "--trace-dir", metavar="DIR", default=None,
        help="trace the whole fleet into DIR and stitch one "
        "Perfetto-loadable trace.json (per-replica tracks, "
        "cross-process flow arrows)",
    )
    load.add_argument(
        "--corrupt", action="append", metavar="REGION", default=None,
        help="seed mid-file bit rot into REGION's commit log while it "
        "is down in a crash window; the salvage path must heal it. "
        "REGION must have a crash window (repeatable)",
    )
    load.add_argument(
        "--overload-limit", type=int, default=0, metavar="N",
        help="max parked ops per replica before new ops are shed "
        "with a retryable 'overloaded' ack (default 0: unlimited)",
    )
    load.set_defaults(func=_cmd_load)

    top = sub.add_parser(
        "top",
        help="poll a live fleet's metrics (replicas + chaos proxy) "
        "and render a refreshing status table",
    )
    top.add_argument(
        "--topology", required=True, metavar="FILE",
        help="topology JSON of the running fleet (written by 'load' "
        "into its workdir)",
    )
    top.add_argument(
        "--interval-s", type=float, default=1.0, metavar="S",
        help="seconds between polls (default 1.0)",
    )
    top.add_argument(
        "--iterations", type=int, default=0, metavar="N",
        help="stop after N polls (default 0: poll until Ctrl-C)",
    )
    top.add_argument(
        "--json", action="store_true",
        help="print one JSON snapshot per poll instead of the table",
    )
    top.set_defaults(func=_cmd_top)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except FileNotFoundError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
