"""Differential soundness: analysis verdicts vs. runtime behaviour.

The central claim of the paper is that an application whose analysis
reports no unresolved conflicts evolves only through invariant-valid
states under *any* weakly-consistent execution.  These tests check that
claim end to end: random concurrent schedules of specification
operations run through the generic executor on the replicated store,
and every replica's state is audited against the very invariant
formulas the analysis reasoned about.

For specs IPA repaired eagerly: zero violations, always.  For specs it
flagged for a trim compensation: zero violations after the trimming
read.  Trims are the only compensations covered here: the generic
executor refuses every other kind (TPC-W's ``replenish-counter``
among them, ROADMAP item 18(e)) rather than run it as a no-op.
And as a sanity check on the tests themselves, the *unmodified* specs
do produce violations under the same schedules.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import run_ipa
from repro.runtime import SpecExecutor, registry_for_spec
from repro.sim import Simulator
from repro.sim.latency import REGIONS
from repro.spec import SpecBuilder
from repro.store import Cluster

from tests.conftest import make_mini_tournament_spec

PLAYERS = ("p1", "p2", "p3")
TOURNAMENTS = ("t1", "t2")


def mini_schedule_ops(rng: random.Random, count: int):
    """A random schedule for the mini-tournament spec."""
    ops = []
    for _ in range(count):
        kind = rng.choice(
            ["add_player", "add_tourn", "rem_tourn", "enroll", "enroll"]
        )
        args = {}
        if kind in ("add_player", "enroll"):
            args["p"] = rng.choice(PLAYERS)
        if kind in ("add_tourn", "rem_tourn", "enroll"):
            args["t"] = rng.choice(TOURNAMENTS)
        ops.append((rng.choice(REGIONS), kind, args, rng.uniform(0, 120)))
    return ops


def run_schedule(spec, ops, compensations=()):
    sim = Simulator()
    cluster = Cluster(sim, registry_for_spec(spec))
    executor = SpecExecutor(spec, cluster, compensations=compensations)
    # Seed a base population so interesting races can happen.
    if "add_player" in spec.operations:
        for player in PLAYERS:
            executor.execute(REGIONS[0], "add_player", {"p": player})
    if "add_tourn" in spec.operations:
        for tournament in TOURNAMENTS:
            executor.execute(REGIONS[0], "add_tourn", {"t": tournament})
    sim.run(until=sim.now + 2_000.0)
    for region, op_name, args, offset in ops:
        sim.at(
            sim.now + offset,
            lambda r=region, o=op_name, a=args: executor.execute(r, o, a),
        )
    sim.run(until=sim.now + 5_000.0)
    assert cluster.converged()
    return cluster, executor


class TestMiniTournamentSoundness:
    @given(st.integers(min_value=0, max_value=2**31), st.integers(4, 12))
    @settings(max_examples=25, deadline=None)
    def test_repaired_spec_never_violates(self, seed, count):
        rng = random.Random(seed)
        ops = mini_schedule_ops(rng, count)
        spec = make_mini_tournament_spec()
        result = run_ipa(spec)
        assert result.is_invariant_preserving
        _cluster, executor = run_schedule(result.modified, ops)
        for region in REGIONS:
            assert executor.audit(region) == [], (seed, count)

    def test_unmodified_spec_violates_under_some_schedule(self):
        """Sanity: the audit actually catches violations."""
        spec = make_mini_tournament_spec()
        violating_runs = 0
        for seed in range(12):
            rng = random.Random(seed)
            ops = mini_schedule_ops(rng, 10)
            _cluster, executor = run_schedule(spec, ops)
            if any(executor.audit(region) for region in REGIONS):
                violating_runs += 1
        assert violating_runs > 0


def capacity_spec():
    b = SpecBuilder("capacity")
    b.predicate("enrolled", "Player", "Tournament")
    b.parameter("Capacity", 2)
    b.invariant("forall(Tournament: t) :- #enrolled(*, t) <= Capacity")
    b.operation(
        "enroll", "Player: p, Tournament: t", true=["enrolled(p, t)"]
    )
    b.operation(
        "disenroll", "Player: p, Tournament: t", false=["enrolled(p, t)"]
    )
    return b.build()


class TestCompensationSoundness:
    @given(st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=15, deadline=None)
    def test_compensated_spec_valid_after_repairing_read(self, seed):
        rng = random.Random(seed)
        spec = capacity_spec()
        result = run_ipa(spec)
        assert result.compensations
        ops = []
        for _ in range(10):
            kind = rng.choice(["enroll", "enroll", "enroll", "disenroll"])
            ops.append(
                (
                    rng.choice(REGIONS),
                    kind,
                    {
                        "p": rng.choice(PLAYERS),
                        "t": rng.choice(TOURNAMENTS),
                    },
                    rng.uniform(0, 100),
                )
            )
        cluster, executor = run_schedule(
            result.modified, ops, compensations=result.compensations
        )
        # The compensating read repairs whatever the merge oversold.
        executor.apply_compensations(REGIONS[0])
        cluster.sim.run(until=cluster.sim.now + 2_000.0)
        for region in REGIONS:
            assert executor.audit(region) == [], seed


def mutex_spec():
    b = SpecBuilder("mutex")
    b.predicate("active", "Tournament")
    b.predicate("finished", "Tournament")
    b.invariant("forall(Tournament: t) :- not (active(t) and finished(t))")
    b.operation("begin", "Tournament: t", true=["active(t)"])
    b.operation(
        "finish", "Tournament: t",
        true=["finished(t)"], false=["active(t)"],
    )
    return b.build()


class TestMutexSoundness:
    @given(st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=15, deadline=None)
    def test_repaired_mutex_never_violates(self, seed):
        rng = random.Random(seed)
        spec = mutex_spec()
        result = run_ipa(spec)
        assert result.is_invariant_preserving and not result.flagged
        sim = Simulator()
        cluster = Cluster(sim, registry_for_spec(result.modified))
        executor = SpecExecutor(result.modified, cluster)
        for _ in range(10):
            op = rng.choice(["begin", "finish"])
            region = rng.choice(REGIONS)
            sim.at(
                sim.now + rng.uniform(0, 100),
                lambda r=region, o=op: executor.execute(
                    r, o, {"t": rng.choice(TOURNAMENTS)}
                ),
            )
        sim.run(until=sim.now + 5_000.0)
        assert cluster.converged()
        for region in REGIONS:
            assert executor.audit(region) == [], seed
