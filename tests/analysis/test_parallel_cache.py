"""Determinism and safety of the analysis cache.

The contract of ``run_ipa``'s ``cache`` knobs is that they are a *pure*
acceleration: uncached, cold-cache and cache-warmed runs of the same
specification must produce identical results -- same repairs, same
witnesses, same compensations, same logical query counts.  And the
on-disk cache tier must never trust a corrupted, tampered or stale
entry: anything that fails validation is recomputed.  The disk tier is
one segment file per run that missed (``seg-<content hash>.json``), so
the layout tests below corrupt, tamper with and race segments.

The three modes agreeing is not enough: a solver change that moved
every mode's witnesses the same way would pass.  So the outcome is also
pinned to ``fixtures/analysis_outcome.json``; run this file as a script
to regenerate that fixture from the current ``src/``.  The pin includes
a digest of every cache key a cold run writes: a change to how queries
are built or rendered that moves a key moves the digest, and would
leave every existing ``.ipa-cache/`` unserved under an unchanged
``CACHE_SCHEMA``.
"""

import errno
import hashlib
import json
import tempfile
import threading
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
from repro.errors import AnalysisError, UnsolvableConflictError
from repro.logic.ast import Atom, Const, NumPred, PredicateDecl, Sort
from repro.logic.grounding import Domain
from repro.obs import REGISTRY
from repro.solver.models import Model
from repro.solver.smt import BoundedModelFinder
from repro.spec import SpecBuilder

SPECS = {
    "ticket": ticket_spec,
    "tpcw": tpcw_spec,
    "twitter": twitter_spec,
    "tournament": tournament_spec,
}
ALL_APPS = [pytest.param(build, id=name) for name, build in SPECS.items()]

OUTCOME = Path(__file__).parent / "fixtures" / "analysis_outcome.json"


def _outcome(result, cache_dir: Path) -> dict:
    """The pinned part of a cold-cache analysis that wrote ``cache_dir``."""
    keys = sorted(
        row["key"]
        for segment in _segments(cache_dir)
        for row in json.loads(segment.read_text(encoding="utf-8"))["entries"]
    )
    return {
        "fingerprint": result.fingerprint(),
        "query_keys": hashlib.sha256(
            "\n".join(keys).encode("utf-8")
        ).hexdigest(),
        "solver_queries": result.solver_queries,
        "solver_solves": result.stats.solver_solves,
    }


#: One-shot solvers a cold run builds: one per scan round that ends on a
#: conflict, the only queries whose model is reported (16 in all).
ONE_SHOT_SOLVERS = {"tournament": 9, "ticket": 1, "twitter": 4, "tpcw": 2}


def _cache_files(cache_dir: Path) -> list[Path]:
    """Every file under the cache directory, hidden ones included."""
    return sorted(path for path in cache_dir.rglob("*") if path.is_file())


def _segments(cache_dir: Path) -> list[Path]:
    return sorted(cache_dir.glob("seg-*.json"))


@pytest.mark.parametrize("build", ALL_APPS)
def test_sequential_cached_parallel_agree(build, tmp_path, monkeypatch):
    """Uncached, cold-cache and warm-cache runs are identical, and the
    cold run matches the pinned outcome.

    Also an operation-count guard, with no wall clock: the cold run
    builds one one-shot solver per scan round that ends on a conflict
    and writes exactly one segment; the warm run writes none.
    """
    cache_dir = tmp_path / "cache"
    sequential = run_ipa(build(), cache=False)
    one_shots = []
    check_ground = BoundedModelFinder.check_ground

    def counted(self, *formulas):
        one_shots.append(len(formulas))
        return check_ground(self, *formulas)

    monkeypatch.setattr(BoundedModelFinder, "check_ground", counted)
    cold = run_ipa(build(), cache_dir=cache_dir)  # fills the disk tier
    monkeypatch.undo()
    assert _cache_files(cache_dir) == _segments(cache_dir)
    assert len(_segments(cache_dir)) == 1
    warm = run_ipa(build(), cache_dir=cache_dir)
    assert len(_cache_files(cache_dir)) == 1

    pinned = json.loads(OUTCOME.read_text(encoding="utf-8"))["apps"]
    assert _outcome(cold, cache_dir) == pinned[cold.original.name]
    assert len(one_shots) == ONE_SHOT_SOLVERS[cold.original.name]

    reference = sequential.fingerprint()
    assert cold.fingerprint() == reference
    assert warm.fingerprint() == reference
    # The logical query count is part of the determinism contract.
    assert cold.solver_queries == sequential.solver_queries
    assert warm.solver_queries == sequential.solver_queries
    # A warm cache answers everything without running the solver.
    assert sequential.stats.solver_solves > 0
    assert warm.stats.solver_solves == 0
    assert warm.stats.cache_disk_hits == cold.stats.solver_solves
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


def _rewrite_rows(segment: Path, edit) -> int:
    document = json.loads(segment.read_text(encoding="utf-8"))
    for row in document["entries"]:
        edit(row)
    segment.write_text(json.dumps(document), encoding="utf-8")
    return len(document["entries"])


def test_corrupted_disk_entries_are_recomputed(tmp_path):
    """A segment that does not parse is rejected whole and deleted."""
    cache_dir = tmp_path / "cache"
    reference = run_ipa(ticket_spec(), cache_dir=cache_dir)
    (segment,) = _segments(cache_dir)
    segment.write_text("{ not json", encoding="utf-8")

    rerun = run_ipa(ticket_spec(), cache_dir=cache_dir)
    assert rerun.fingerprint() == reference.fingerprint()
    assert rerun.stats.cache_rejected == 1
    assert rerun.stats.solver_solves == reference.stats.solver_solves
    # Deleted, then rewritten by the recomputed run: same content, so
    # the same content-addressed name.
    assert _segments(cache_dir) == [segment]
    assert json.loads(segment.read_text(encoding="utf-8"))["entries"]


def test_tampered_payload_fails_checksum(tmp_path):
    cache_dir = tmp_path / "cache"
    reference = run_ipa(ticket_spec(), cache_dir=cache_dir)
    (segment,) = _segments(cache_dir)

    def flip(row):
        # Flip the verdict but keep the stale checksum: a lying entry.
        row["result"]["sat"] = not row["result"]["sat"]

    tampered = _rewrite_rows(segment, flip)
    assert tampered == reference.stats.solver_solves

    rerun = run_ipa(ticket_spec(), cache_dir=cache_dir)
    assert rerun.fingerprint() == reference.fingerprint()
    assert rerun.stats.cache_rejected == tampered
    assert rerun.stats.solver_solves == reference.stats.solver_solves


def test_swapped_keys_answer_neither_query(tmp_path):
    """The checksum covers the key: an entry moved to another key
    answers neither the old key nor the new one."""
    cache_dir = tmp_path / "cache"
    reference = run_ipa(ticket_spec(), cache_dir=cache_dir)
    (segment,) = _segments(cache_dir)
    keys = []

    def rotate(row):
        keys.append(row["key"])
        row["key"] = row["key"][1:] + row["key"][0]

    _rewrite_rows(segment, rotate)
    probe = SolverCache(cache_dir)
    for key in keys:
        assert probe.get(key[1:] + key[0]) is None
        assert probe.get(key) is None
    assert probe.stats.rejected == len(keys)

    rerun = run_ipa(ticket_spec(), cache_dir=cache_dir)
    assert rerun.fingerprint() == reference.fingerprint()
    assert rerun.stats.solver_solves == reference.stats.solver_solves


def test_stale_schema_entries_are_recomputed(tmp_path):
    """A segment of another schema version is rejected whole, and left
    for the version that wrote it."""
    cache_dir = tmp_path / "cache"
    reference = run_ipa(ticket_spec(), cache_dir=cache_dir)
    (segment,) = _segments(cache_dir)
    document = json.loads(segment.read_text(encoding="utf-8"))
    document["schema"] = CACHE_SCHEMA - 1
    stale = cache_dir / "seg-stale.json"
    stale.write_text(json.dumps(document), encoding="utf-8")
    segment.unlink()

    rerun = run_ipa(ticket_spec(), cache_dir=cache_dir)
    assert rerun.fingerprint() == reference.fingerprint()
    assert rerun.stats.cache_rejected == 1
    assert rerun.stats.solver_solves == reference.stats.solver_solves
    assert stale.exists()
    assert _segments(cache_dir) == sorted([segment, stale])


def test_schema_one_key_files_are_never_read(tmp_path):
    """The old layout (one JSON file per key, under a prefix
    directory) is neither served nor counted nor touched."""
    key = "ab" * 32
    old = tmp_path / "cache" / key[:2] / f"{key}.json"
    old.parent.mkdir(parents=True)
    old.write_text(
        json.dumps({"schema": 1, "key": key, "checksum": "x",
                    "result": {"sat": True, "model": None}}),
        encoding="utf-8",
    )
    cache = SolverCache(tmp_path / "cache")
    assert cache.get(key) is None
    assert cache.stats.as_dict()["rejected"] == 0
    assert old.exists()


def test_rejected_entries_are_dropped_from_disk(tmp_path):
    cache = SolverCache(tmp_path / "cache")
    cache.put("ab" * 32, True, model=None)
    cache.flush()
    (path,) = _cache_files(tmp_path / "cache")
    path.write_text("garbage", encoding="utf-8")

    fresh = SolverCache(tmp_path / "cache")  # no memory tier for the key
    assert fresh.get("ab" * 32) is None
    assert fresh.stats.rejected == 1
    assert not path.exists()


def test_disk_tier_shares_between_instances(tmp_path):
    """Live sharing: a reader built before the writer flushed finds the
    entry on its next miss."""
    reader = SolverCache(tmp_path / "cache")
    writer = SolverCache(tmp_path / "cache")
    writer.put("cd" * 32, False)
    assert reader.get("cd" * 32) is None  # not flushed yet
    writer.flush()
    entry = reader.get("cd" * 32)
    assert entry is not None and entry.sat is False
    assert reader.stats.disk_hits == 1
    assert reader.get("cd" * 32) is entry
    assert reader.stats.memory_hits == 1


def test_flush_writes_nothing_when_nothing_missed(tmp_path):
    cache = SolverCache(tmp_path / "cache")
    cache.flush()
    assert not (tmp_path / "cache").exists()
    cache.put("12" * 32, True)
    cache.flush()
    cache.flush()
    assert len(_segments(tmp_path / "cache")) == 1


def test_leftover_tmp_file_is_ignored(tmp_path):
    """A crash mid-flush leaves a ``.tmp-*`` file, never a torn
    segment; readers do not look at it."""
    cache_dir = tmp_path / "cache"
    writer = SolverCache(cache_dir)
    writer.put("ef" * 32, False)
    writer.flush()
    leftover = cache_dir / ".tmp-crashed.json"
    leftover.write_text('{"schema": 2, "entries": [', encoding="utf-8")

    reader = SolverCache(cache_dir)
    assert reader.get("ef" * 32).sat is False
    assert reader.get("01" * 32) is None
    assert reader.stats.rejected == 0
    assert leftover.exists()


def test_concurrent_flushes_are_seen_as_their_union(tmp_path):
    """More writers than cores flush at once; a later reader sees every
    entry of every writer, and nothing torn."""
    cache_dir = tmp_path / "cache"
    writers = [SolverCache(cache_dir) for _ in range(4)]
    keys = [[f"{w}{i:063x}" for i in range(100)] for w in range(4)]
    for writer, own in zip(writers, keys):
        for index, key in enumerate(own):
            writer.put(key, index % 2 == 0)
    barrier = threading.Barrier(len(writers))

    def flush(writer):
        barrier.wait(timeout=10)
        writer.flush()

    threads = [
        threading.Thread(target=flush, args=(writer,)) for writer in writers
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=10)
        assert not thread.is_alive()

    assert len(_segments(cache_dir)) == len(writers)
    assert all(writer.stats.write_errors == 0 for writer in writers)
    reader = SolverCache(cache_dir)
    for own in keys:
        for index, key in enumerate(own):
            assert reader.get(key).sat is (index % 2 == 0)
    assert reader.stats.misses == 0
    assert reader.stats.rejected == 0


def test_strict_run_flushes_when_it_raises(tmp_path):
    builder = SpecBuilder("mutex")
    builder.predicate("active", "Tournament")
    builder.predicate("finished", "Tournament")
    builder.invariant(
        "forall(Tournament: t) :- not (active(t) and finished(t))"
    )
    builder.operation("begin", "Tournament: t", true=["active(t)"])
    builder.operation("finish", "Tournament: t", true=["finished(t)"])
    spec = builder.build(default_rule="lww")
    cache_dir = tmp_path / "cache"
    with pytest.raises(UnsolvableConflictError):
        run_ipa(
            spec, allow_rule_changes=False, strict=True, cache_dir=cache_dir
        )
    (segment,) = _segments(cache_dir)
    assert json.loads(segment.read_text(encoding="utf-8"))["entries"]


def test_failed_write_is_counted_and_retried(tmp_path, monkeypatch):
    """A directory that refuses the write degrades to memory-only
    caching, counted in ``analysis.cache.write_errors``; the entries
    stay pending for the next flush."""
    cache = SolverCache(tmp_path / "cache")
    cache.put("0f" * 32, True)
    errors = REGISTRY.counter_value("analysis.cache.write_errors")

    def read_only(*_args, **_kwargs):
        raise PermissionError(errno.EACCES, "read-only directory")

    monkeypatch.setattr(tempfile, "mkstemp", read_only)
    cache.flush()
    monkeypatch.undo()
    assert REGISTRY.counter_value("analysis.cache.write_errors") == errors + 1
    assert cache.stats.write_errors == 1
    assert _segments(tmp_path / "cache") == []
    assert cache.get("0f" * 32).sat is True  # still served from memory

    cache.flush()
    assert len(_segments(tmp_path / "cache")) == 1
    assert SolverCache(tmp_path / "cache").get("0f" * 32).sat is True


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
            result = run_ipa(build(), cache_dir=cache_dir)
            apps[name] = _outcome(result, Path(cache_dir))
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
