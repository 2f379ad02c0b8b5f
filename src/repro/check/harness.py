"""One checker trial: a serializable spec in, an oracle verdict out.

A :class:`TrialSpec` captures *everything* that determines a run --
application, checker configuration, root seed, region set, the full
client-operation trace (:class:`OpCall` list with absolute issue
times), and the :class:`~repro.sim.faults.FaultPlan` -- so a trial can
be re-executed bit-for-bit from its JSON form (``repro check
--replay``).  :func:`run_trial` executes the spec on a fresh simulator
and evaluates the four oracles from :mod:`repro.check.oracles` at
quiescence, returning a :class:`TrialResult` whose ``fingerprint`` is
a digest of every observable outcome: two runs of the same spec must
produce identical fingerprints (the determinism audit asserts this).

Timeline: the synchronous setup phase owns ``[0, SETUP_MS)``; every
trace timestamp and fault window in the spec is relative to
``SETUP_MS`` so specs stay independent of how long population takes.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, replace

from repro.apps.common import Variant
from repro.check.apps import ADAPTERS, TraceOp, resolve_config
from repro.check.oracles import (
    CompensationDebtOracle,
    ConvergenceOracle,
    InvariantOracle,
    SessionTracker,
    Violation,
)
from repro.errors import CheckError, StoreError
from repro.sim.events import Simulator
from repro.sim.faults import FaultPlan
from repro.sim.latency import REGIONS
from repro.store.cluster import Cluster, ConsistencyMode

#: The documented name for one serialized client operation.
OpCall = TraceOp

#: Simulated milliseconds reserved for the setup phase (entity
#: population + initial replication).  Trace/fault times are relative
#: to this base.
SETUP_MS = 6_000.0

#: Slack after the last scheduled operation before the convergence
#: wait starts (lets responses and fan-out replication drain).
TRAIL_MS = 1_500.0

SPEC_SCHEMA = 1


def op_to_dict(op: OpCall) -> dict:
    return {
        "at_ms": op.at_ms,
        "session": op.session,
        "op": op.op,
        "args": list(op.args),
    }


def op_from_dict(data: dict) -> OpCall:
    return OpCall(
        at_ms=data["at_ms"],
        session=data["session"],
        op=data["op"],
        args=tuple(data["args"]),
    )


def session_region(session: str) -> str:
    """Sessions are named ``{region}#{k}``; the region serves them."""
    return session.split("#", 1)[0]


@dataclass(frozen=True)
class TrialSpec:
    """A fully deterministic description of one checker trial."""

    app: str
    config: str  # one of check.apps.CONFIG_NAMES
    seed: int
    regions: tuple[str, ...] = REGIONS
    ops: tuple[OpCall, ...] = ()
    plan: FaultPlan = FaultPlan()
    params: dict = field(default_factory=dict)
    antientropy_ms: float = 200.0
    converge_timeout_ms: float = 60_000.0
    #: Ignored, neither written nor read: they stay only because
    #: ``benchmarks/ledger/workloads.py`` passes them to
    #: ``dataclasses.replace`` (ROADMAP item 16(b)).
    engine: str | None = None
    shards: int | None = None

    def to_dict(self) -> dict:
        return {
            "schema": SPEC_SCHEMA,
            "app": self.app,
            "config": self.config,
            "seed": self.seed,
            "regions": list(self.regions),
            "ops": [op_to_dict(op) for op in self.ops],
            "plan": self.plan.to_dict(),
            "params": dict(self.params),
            "antientropy_ms": self.antientropy_ms,
            "converge_timeout_ms": self.converge_timeout_ms,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "TrialSpec":
        schema = data.get("schema", SPEC_SCHEMA)
        if schema != SPEC_SCHEMA:
            raise CheckError(
                f"unsupported repro schema {schema!r} "
                f"(this build reads schema {SPEC_SCHEMA})"
            )
        return cls(
            app=data["app"],
            config=data["config"],
            seed=data["seed"],
            regions=tuple(data.get("regions", REGIONS)),
            ops=tuple(op_from_dict(o) for o in data.get("ops", ())),
            plan=FaultPlan.from_dict(data.get("plan", {})),
            params=dict(data.get("params", {})),
            antientropy_ms=data.get("antientropy_ms", 200.0),
            converge_timeout_ms=data.get("converge_timeout_ms", 60_000.0),
        )

    def horizon_ms(self) -> float:
        """Last scheduled activity, relative to the trace base."""
        last_op = max((op.at_ms for op in self.ops), default=0.0)
        last_fault = max(
            [w.end_ms for w in self.plan.partitions]
            + [w.end_ms for w in self.plan.crashes]
            + [0.0]
        )
        return max(last_op, last_fault)


def _shifted_plan(plan: FaultPlan, base: float) -> FaultPlan:
    """The spec's trace-relative plan, in absolute simulator time."""
    return replace(
        plan,
        partitions=tuple(
            replace(w, start_ms=w.start_ms + base, end_ms=w.end_ms + base)
            for w in plan.partitions
        ),
        crashes=tuple(
            replace(w, start_ms=w.start_ms + base, end_ms=w.end_ms + base)
            for w in plan.crashes
        ),
    )


@dataclass
class TrialResult:
    """Everything one trial observed, plus the oracle verdict."""

    spec: TrialSpec
    violations: tuple[Violation, ...]
    digests: dict[str, str]
    converged_ms: float | None
    completions: dict[str, int]
    issued: int
    refused: int  # submits refused synchronously (region down)
    fault_stats: dict

    @property
    def ok(self) -> bool:
        return not self.violations

    @property
    def verdict_keys(self) -> frozenset[tuple[str, str]]:
        """The (oracle, name) pairs that fired -- shrink targets."""
        return frozenset((v.oracle, v.name) for v in self.violations)

    @property
    def fingerprint(self) -> str:
        """Digest of every observable outcome (determinism audit)."""
        payload = repr(
            (
                sorted(self.digests.items()),
                self.converged_ms,
                sorted(self.completions.items()),
                self.issued,
                self.refused,
                [v.to_dict() for v in self.violations],
            )
        )
        return hashlib.sha256(payload.encode()).hexdigest()

    def summary(self) -> str:
        verdict = (
            "ok"
            if self.ok
            else f"{len(self.violations)} violation(s)"
        )
        converged = (
            f"converged in {self.converged_ms:.0f} ms"
            if self.converged_ms is not None
            else "DID NOT CONVERGE"
        )
        return (
            f"{self.spec.app}/{self.spec.config} seed={self.spec.seed}: "
            f"{verdict}, {self.issued} op(s) issued, {converged}"
        )


def run_trial(spec: TrialSpec, recorder=None, ledger=None) -> TrialResult:
    """Execute one spec deterministically and judge it.

    ``recorder`` (a :class:`repro.net.oracle.TrialRecorder`) observes
    the run without perturbing it: it wraps ``cluster.submit`` to note
    where in each replica's event order every operation executed, which
    the live deployment replays as its gating schedule.  The simulation
    itself is identical with or without one.

    ``ledger`` (a :class:`repro.store.conflicts.ConflictLedger`)
    likewise only observes: after the oracles judge the quiesced run,
    every violation -- and every raw overdraft the compensation
    machinery paid for -- is appended as a durable conflict record with
    per-region commit lineage.  The returned result (and therefore the
    trial fingerprint) is identical with or without one.
    """
    adapter = ADAPTERS.get(spec.app)
    if adapter is None:
        raise CheckError(
            f"unknown application {spec.app!r} (one of: "
            + ", ".join(sorted(ADAPTERS))
            + ")"
        )
    if len(spec.regions) < 2:
        raise CheckError("a trial needs at least two regions")
    mode, variant = resolve_config(spec.app, spec.config)
    params = {**adapter.defaults(), **spec.params}

    sim = Simulator()
    cluster = Cluster(
        sim,
        adapter.registry(variant, params),
        regions=spec.regions,
        mode=mode,
        faults=_shifted_plan(spec.plan, SETUP_MS),
    )
    cluster.start_antientropy(
        interval_ms=spec.antientropy_ms, seed=spec.seed + 1
    )
    if recorder is not None:
        recorder.attach(cluster)
        recorder.begin_setup()
    app = adapter.make_app(cluster, variant, params)
    adapter.setup(app, params, spec.regions[0])
    if recorder is not None:
        recorder.end_setup()
    if sim.now > SETUP_MS:
        raise CheckError(
            f"setup overran its window ({sim.now:.0f} > {SETUP_MS:.0f} ms)"
        )

    sessions = SessionTracker()
    completions: dict[str, int] = {}
    counts = {"issued": 0, "refused": 0}
    strong = mode is ConsistencyMode.STRONG
    dispatch = adapter.dispatch  # bound once; called per issued op

    def issue(call: OpCall, index: int) -> None:
        region = session_region(call.session)

        def done(label: str) -> None:
            completions[label] = completions.get(label, 0) + 1
            serving = cluster.primary if strong else region
            sessions.observe(
                call.session,
                serving,
                cluster.replica(serving).vv_digest().entries,
            )

        counts["issued"] += 1
        if recorder is not None:
            recorder.note_issue(index)
        try:
            dispatch(app, region, call.op, tuple(call.args), done)
        except StoreError:
            # The region (or the primary) is down: an open-loop client
            # simply loses this request.
            counts["refused"] += 1

    for index, call in enumerate(spec.ops):
        sim.at(SETUP_MS + call.at_ms, issue, call, index)

    sim.run(until=SETUP_MS + spec.horizon_ms() + TRAIL_MS)
    cluster.flush_replication()
    converged_ms = cluster.run_until_converged(
        timeout_ms=spec.converge_timeout_ms
    )

    digests = cluster.state_digest()
    violations: list[Violation] = []
    violations.extend(ConvergenceOracle().check(cluster, digests))

    # Converged replicas are observably identical: ground the invariant
    # and debt oracles once per distinct digest (the representative is
    # the lexicographically first region with that digest).
    representatives: dict[str, str] = {}
    for region in sorted(spec.regions):
        representatives.setdefault(digests[region], region)
    invariant_oracle = InvariantOracle(adapter.spec(params))
    debt_oracle = CompensationDebtOracle()
    compensated = spec.config == "IPA" and variant is Variant.IPA
    for region in sorted(representatives.values()):
        replica = cluster.replica(region)
        interp = adapter.extract(replica, variant, params)
        violations.extend(invariant_oracle.check(interp, region))
        violations.extend(
            debt_oracle.check(
                adapter.probes(replica, variant, params),
                region,
                compensated,
            )
        )
    violations.extend(sessions.check())
    violations.sort(
        key=lambda v: (v.oracle, v.region, v.name, v.witness, v.detail)
    )

    if ledger is not None:
        from repro.store.conflicts import (
            record_compensations,
            record_trial_violations,
        )

        lineage = {
            region: tuple(
                (rec.origin, rec.dot.counter)
                for rec in cluster.replica(region).log
            )
            for region in spec.regions
        }
        record_trial_violations(
            ledger, violations, lineage, detected_at_ms=sim.now
        )
        if compensated:
            record_compensations(
                ledger,
                {
                    region: adapter.probes(
                        cluster.replica(region), variant, params
                    )
                    for region in sorted(representatives.values())
                },
                lineage,
                detected_at_ms=sim.now,
            )

    return TrialResult(
        spec=spec,
        violations=tuple(violations),
        digests=digests,
        converged_ms=converged_ms,
        completions=completions,
        issued=counts["issued"],
        refused=counts["refused"],
        fault_stats=cluster.fault_stats(),
    )


# ---------------------------------------------------------------------------
# Repro files (the replayable counterexample format)
# ---------------------------------------------------------------------------


def write_repro(
    path: str, spec: TrialSpec, result: TrialResult, meta: dict | None = None
) -> None:
    """Persist a replayable counterexample with its expected verdict."""
    payload = {
        "schema": SPEC_SCHEMA,
        "spec": spec.to_dict(),
        "expected": {
            "verdict": sorted(list(k) for k in result.verdict_keys),
            "violations": [v.to_dict() for v in result.violations],
            "fingerprint": result.fingerprint,
        },
    }
    if meta:
        payload["meta"] = meta
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")


def load_repro(path: str) -> tuple[TrialSpec, frozenset[tuple[str, str]]]:
    """Read a repro file back: (spec, expected verdict keys)."""
    with open(path, encoding="utf-8") as handle:
        payload = json.load(handle)
    if "spec" not in payload:
        raise CheckError(f"{path} is not a repro file (no 'spec' entry)")
    spec = TrialSpec.from_dict(payload["spec"])
    expected = frozenset(
        (oracle, name)
        for oracle, name in payload.get("expected", {}).get("verdict", ())
    )
    return spec, expected
