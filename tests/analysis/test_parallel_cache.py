"""Determinism and safety of the analysis cache.

The contract of ``run_ipa``'s ``cache`` knobs is that they are a *pure*
acceleration: uncached, cold-cache and cache-warmed runs of the same
specification must produce identical results -- same repairs, same
witnesses, same compensations, same logical query counts.  And the
on-disk cache tier must never trust a corrupted, tampered or stale
entry: anything that fails validation is recomputed.

The three modes agreeing is not enough: a solver change that moved
every mode's witnesses the same way would pass.  So the outcome is also
pinned to ``fixtures/analysis_outcome.json``; run this file as a script
to regenerate that fixture from the current ``src/``.
"""

import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.cache import (
    CACHE_SCHEMA,
    SolverCache,
    deserialize_model,
    serialize_model,
)
from repro.analysis.ipa import run_ipa
from repro.apps.ticket import ticket_spec
from repro.apps.tournament import tournament_spec
from repro.apps.tpcw import tpcw_spec
from repro.apps.twitter import twitter_spec
from repro.errors import AnalysisError
from repro.logic.ast import Atom, Const, NumPred, PredicateDecl, Sort
from repro.logic.grounding import Domain
from repro.solver.models import Model

SPECS = {
    "ticket": ticket_spec,
    "tpcw": tpcw_spec,
    "twitter": twitter_spec,
    "tournament": tournament_spec,
}
ALL_APPS = [pytest.param(build, id=name) for name, build in SPECS.items()]

OUTCOME = Path(__file__).parent / "fixtures" / "analysis_outcome.json"


def _outcome(result) -> dict:
    """The pinned part of a cold-cache analysis."""
    return {
        "fingerprint": result.fingerprint(),
        "solver_queries": result.solver_queries,
        "solver_solves": result.stats.solver_solves,
    }


@pytest.mark.parametrize("build", ALL_APPS)
def test_sequential_cached_parallel_agree(build, tmp_path):
    """Uncached, cold-cache and warm-cache runs are identical, and the
    cold run matches the pinned outcome."""
    cache_dir = tmp_path / "cache"
    sequential = run_ipa(build(), cache=False)
    cold = run_ipa(build(), cache_dir=cache_dir)  # fills the disk tier
    warm = run_ipa(build(), cache_dir=cache_dir)

    pinned = json.loads(OUTCOME.read_text(encoding="utf-8"))["apps"]
    assert _outcome(cold) == pinned[cold.original.name]

    reference = sequential.fingerprint()
    assert cold.fingerprint() == reference
    assert warm.fingerprint() == reference
    # The logical query count is part of the determinism contract.
    assert cold.solver_queries == sequential.solver_queries
    assert warm.solver_queries == sequential.solver_queries
    # A warm cache answers everything without running the solver.
    assert sequential.stats.solver_solves > 0
    assert warm.stats.solver_solves == 0
    # ... and the rendered artefacts agree too.
    assert cold.modified.describe() == sequential.modified.describe()
    assert warm.modified.describe() == sequential.modified.describe()


def test_jobs_accepts_only_one():
    """The parallel scan is gone; the keyword survives for the ledger
    benchmark, which passes ``jobs=1``."""
    with pytest.raises(AnalysisError, match="jobs"):
        run_ipa(ticket_spec(), jobs=2, cache=False)
    assert run_ipa(ticket_spec(), jobs=1, cache=False).fingerprint() == (
        run_ipa(ticket_spec(), cache=False).fingerprint()
    )


def _cache_files(cache_dir: Path) -> list[Path]:
    return sorted(cache_dir.rglob("*.json"))


def test_corrupted_disk_entries_are_recomputed(tmp_path):
    cache_dir = tmp_path / "cache"
    reference = run_ipa(ticket_spec(), cache_dir=cache_dir)
    files = _cache_files(cache_dir)
    assert files, "cold run should have populated the disk tier"
    for path in files:
        path.write_text("{ not json", encoding="utf-8")

    rerun = run_ipa(ticket_spec(), cache_dir=cache_dir)
    assert rerun.fingerprint() == reference.fingerprint()
    assert rerun.stats.cache_rejected > 0
    assert rerun.stats.solver_solves > 0  # recomputed, not trusted


def test_tampered_payload_fails_checksum(tmp_path):
    cache_dir = tmp_path / "cache"
    reference = run_ipa(ticket_spec(), cache_dir=cache_dir)
    tampered = 0
    for path in _cache_files(cache_dir):
        document = json.loads(path.read_text(encoding="utf-8"))
        # Flip the verdict but keep the stale checksum: a lying entry.
        document["result"]["sat"] = not document["result"]["sat"]
        path.write_text(json.dumps(document), encoding="utf-8")
        tampered += 1
    assert tampered > 0

    rerun = run_ipa(ticket_spec(), cache_dir=cache_dir)
    assert rerun.fingerprint() == reference.fingerprint()
    assert rerun.stats.cache_rejected > 0


def test_stale_schema_entries_are_recomputed(tmp_path):
    cache_dir = tmp_path / "cache"
    reference = run_ipa(ticket_spec(), cache_dir=cache_dir)
    for path in _cache_files(cache_dir):
        document = json.loads(path.read_text(encoding="utf-8"))
        document["schema"] = CACHE_SCHEMA - 1
        path.write_text(json.dumps(document), encoding="utf-8")

    rerun = run_ipa(ticket_spec(), cache_dir=cache_dir)
    assert rerun.fingerprint() == reference.fingerprint()
    assert rerun.stats.cache_rejected > 0


def test_rejected_entries_are_dropped_from_disk(tmp_path):
    cache = SolverCache(tmp_path / "cache")
    cache.put("ab" * 32, True, model=None)
    (path,) = _cache_files(tmp_path / "cache")
    path.write_text("garbage", encoding="utf-8")

    fresh = SolverCache(tmp_path / "cache")  # no memory tier for the key
    assert fresh.get("ab" * 32) is None
    assert fresh.stats.rejected == 1
    assert not path.exists()


def test_disk_tier_shares_between_instances(tmp_path):
    writer = SolverCache(tmp_path / "cache")
    writer.put("cd" * 32, False)
    reader = SolverCache(tmp_path / "cache")
    entry = reader.get("cd" * 32)
    assert entry is not None and entry.sat is False
    assert reader.stats.disk_hits == 1


def test_need_model_rejects_model_less_sat_entries():
    cache = SolverCache()
    cache.put("ef" * 32, True, model=None)
    assert cache.get("ef" * 32) is not None
    assert cache.get("ef" * 32, need_model=True) is None
    # UNSAT entries never need a model.
    cache.put("01" * 32, False)
    assert cache.get("01" * 32, need_model=True) is not None


# -- model serialisation round-trip -----------------------------------------

_PLAYER = Sort("P")
_TOURN = Sort("T")
_ENROLLED = PredicateDecl("enrolled", (_PLAYER, _TOURN), numeric=False)
_BUDGET = PredicateDecl("budget", (_PLAYER,), numeric=True)
_PLAYERS = [Const(f"p{i}", _PLAYER) for i in range(3)]
_TOURNS = [Const(f"t{i}", _TOURN) for i in range(2)]


@st.composite
def models(draw):
    domain = Domain({_PLAYER: tuple(_PLAYERS), _TOURN: tuple(_TOURNS)})
    model = Model(domain=domain, params={"K": draw(st.integers(0, 4))})
    for player in _PLAYERS:
        for tourn in _TOURNS:
            if draw(st.booleans()):
                model.atoms[Atom(_ENROLLED, (player, tourn))] = draw(
                    st.booleans()
                )
        if draw(st.booleans()):
            model.numerics[NumPred(_BUDGET, (player,))] = draw(
                st.integers(0, 7)
            )
    return model


@given(models())
@settings(max_examples=50, deadline=None)
def test_model_serialization_round_trip(model):
    blob = serialize_model(model)
    json.dumps(blob)  # must be JSON-safe
    restored = deserialize_model(blob, model.domain, model.params)
    assert restored.atoms == model.atoms
    assert restored.numerics == model.numerics
    assert restored.params == model.params


if __name__ == "__main__":
    # Regenerate the pinned outcome: PYTHONPATH=src python <this file>
    apps = {}
    for name, build in SPECS.items():
        with tempfile.TemporaryDirectory() as cache_dir:
            apps[name] = _outcome(run_ipa(build(), cache_dir=cache_dir))
    document = {
        "regenerate": (
            "PYTHONPATH=src python tests/analysis/test_parallel_cache.py"
        ),
        "apps": apps,
    }
    OUTCOME.parent.mkdir(exist_ok=True)
    OUTCOME.write_text(
        json.dumps(document, indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )
