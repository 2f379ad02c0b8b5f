"""Unit tests for the runtime oracles (repro.check.oracles)."""

from __future__ import annotations

import pytest

from repro.apps.common import Variant
from repro.apps.tournament import tournament_spec
from repro.check.apps import ADAPTERS, TournamentAdapter, resolve_config
from repro.check.explorer import build_trial
from repro.check.oracles import (
    BoundProbe,
    CompensationDebtOracle,
    ConvergenceOracle,
    Interpretation,
    InvariantOracle,
    SessionTracker,
    instance_index,
)
from repro.logic.ast import TrueF
from repro.obs import REGISTRY
from repro.sim.events import Simulator
from repro.sim.latency import REGIONS
from repro.store.cluster import Cluster, ConsistencyMode


def _interp(**overrides) -> Interpretation:
    """A consistent little tournament model, overridable per test."""
    relations = {
        "player": {("p0",), ("p1",)},
        "tournament": {("t0",)},
        "enrolled": {("p0", "t0")},
        "active": set(),
        "finished": set(),
        "inMatch": set(),
    }
    relations.update(overrides)
    return Interpretation(relations=relations)


class TestInvariantOracle:
    def setup_method(self) -> None:
        self.oracle = InvariantOracle(tournament_spec(capacity=3))

    def test_consistent_state_is_clean(self) -> None:
        assert self.oracle.check(_interp(), "us-east") == []

    def test_dangling_enrollment_fires_with_witness(self) -> None:
        interp = _interp(enrolled={("p0", "t0"), ("p9", "t0")})
        found = self.oracle.check(interp, "us-east")
        assert len(found) == 1
        violation = found[0]
        assert violation.oracle == "invariant"
        assert violation.region == "us-east"
        assert ("p", "p9") in violation.witness
        assert ("t", "t0") in violation.witness

    def test_capacity_burst_fires(self) -> None:
        players = {(f"p{i}",) for i in range(5)}
        interp = _interp(
            player=players,
            enrolled={(f"p{i}", "t0") for i in range(5)},
        )
        found = self.oracle.check(interp, "eu-west")
        assert any("Capacity" in v.name for v in found)

    def test_active_and_finished_is_contradictory(self) -> None:
        interp = _interp(active={("t0",)}, finished={("t0",)})
        found = self.oracle.check(interp, "us-east")
        assert any("active" in v.name and "finished" in v.name for v in found)


#: ``check-sweep``'s enlarged universes (benchmarks/ledger/workloads.py).
ENLARGED = {
    "tournament": {"n_players": 150, "n_tournaments": 40},
    "twitter": {"n_users": 40},
    "tpcw": {"n_products": 40},
    "ticket": {"n_events": 30},
}


@pytest.mark.parametrize("sizes", ("default", "enlarged"))
@pytest.mark.parametrize("config", ("Causal", "IPA"))
@pytest.mark.parametrize("app", sorted(ADAPTERS))
def test_shipped_invariants_never_run_the_product_loop(app, config, sizes):
    """Every shipped invariant is judged per instance: none falls back
    to enumerating its domain product, and a check still counts one
    formula evaluation per invariant."""
    resolve_config(app, config)
    adapter = ADAPTERS[app]
    trial = build_trial(
        app, config, 0, 0, n_ops=1,
        params=ENLARGED[app] if sizes == "enlarged" else None,
    )
    spec = adapter.spec({**adapter.defaults(), **trial.params})
    checked = [
        invariant
        for invariant in spec.invariants
        if not isinstance(invariant.formula, TrueF)
    ]
    assert checked
    for invariant in checked:
        assert instance_index(invariant.formula, spec.schema) is not None, (
            invariant.describe()
        )
    evals = REGISTRY.counter("check.formula.evals")
    before = evals.value
    InvariantOracle(spec).check(Interpretation(), "us-east")
    assert evals.value - before == len(checked)


class TestSessionTracker:
    def test_monotonic_chain_is_clean(self) -> None:
        tracker = SessionTracker()
        tracker.observe("us-east#0", "us-east", {"us-east": 1})
        tracker.observe("us-east#0", "us-east", {"us-east": 2, "eu-west": 1})
        assert tracker.check() == []

    def test_vector_regression_fires(self) -> None:
        tracker = SessionTracker()
        tracker.observe("us-east#0", "us-east", {"us-east": 3})
        tracker.observe("us-east#0", "us-east", {"us-east": 1})
        found = tracker.check()
        assert len(found) == 1
        assert found[0].oracle == "session"
        assert found[0].name == "us-east#0"
        assert "us-east" in found[0].detail

    def test_sessions_are_independent(self) -> None:
        tracker = SessionTracker()
        tracker.observe("us-east#0", "us-east", {"us-east": 3})
        # A different session starting from scratch is not a regression.
        tracker.observe("us-west#0", "us-west", {"us-east": 1})
        assert tracker.check() == []


class TestCompensationDebtOracle:
    def test_observed_breach_fires_regardless_of_mode(self) -> None:
        probe = BoundProbe(
            key="capacity:t0", raw=5, observed=5, bound=3, op="<="
        )
        for compensated in (False, True):
            found = CompensationDebtOracle().check(
                [probe], "us-east", compensated
            )
            assert len(found) == 1
            assert found[0].oracle == "compensation-debt"

    def test_covered_overdraft_is_clean(self) -> None:
        probe = BoundProbe(
            key="capacity:t0", raw=5, observed=3, bound=3, op="<=", covered=2
        )
        assert CompensationDebtOracle().check([probe], "us-east", True) == []

    def test_uncovered_overdraft_fires_under_compensation(self) -> None:
        probe = BoundProbe(
            key="capacity:t0", raw=5, observed=3, bound=3, op="<=", covered=1
        )
        found = CompensationDebtOracle().check([probe], "us-east", True)
        assert len(found) == 1
        assert "overdraft" in found[0].detail
        # The Causal configuration only judges the observed view.
        assert CompensationDebtOracle().check([probe], "us-east", False) == []

    def test_floor_bound_direction(self) -> None:
        probe = BoundProbe(
            key="stock:i0", raw=-1, observed=-1, bound=0, op=">="
        )
        found = CompensationDebtOracle().check([probe], "us-east", False)
        assert len(found) == 1


class TestConvergenceOracle:
    def _cluster(self):
        adapter = TournamentAdapter()
        params = adapter.defaults()
        sim = Simulator()
        cluster = Cluster(
            sim,
            adapter.registry(Variant.CAUSAL, params),
            regions=REGIONS,
            mode=ConsistencyMode.CAUSAL,
        )
        app = adapter.make_app(cluster, Variant.CAUSAL, params)
        adapter.setup(app, params, REGIONS[0])
        cluster.flush_replication()
        assert cluster.run_until_converged() is not None
        return sim, cluster, adapter, app

    def test_converged_cluster_is_clean(self) -> None:
        _, cluster, _, _ = self._cluster()
        assert ConvergenceOracle().check(cluster) == []

    def test_divergence_fires(self) -> None:
        sim, cluster, adapter, app = self._cluster()
        # eu-west sleeps through a commit; without anti-entropy the
        # lost replication message is never healed.
        cluster.crash_region("eu-west")
        adapter.dispatch(app, "us-east", "enroll", ("p0", "t0"), lambda _: None)
        sim.run(until=sim.now + 500.0)
        cluster.flush_replication()
        sim.run(until=sim.now + 500.0)
        cluster.recover_region("eu-west")
        found = ConvergenceOracle().check(cluster)
        assert any(v.name == "state-digest" for v in found)
        assert any(v.name == "version-vectors" for v in found)
