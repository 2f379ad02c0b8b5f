"""Content-addressed cache of bounded solver queries.

The IPA analysis is dominated by small satisfiability queries whose
inputs -- ground formulas over a finite domain, a parameter valuation
and an integer bound -- are *values*: two queries with the same inputs
have the same answer forever.  That makes them perfect candidates for
content addressing.  :class:`SolverCache` keys every query by the
SHA-256 of a canonical serialisation of the grounded constraints plus
the theory configuration (domain constants, parameter values, integer
bound), and stores the outcome in two tiers:

- an **in-memory** dictionary, shared by every query issued through one
  cache instance (a single ``run_ipa`` call, or a long-lived checker);
- an optional **on-disk** store (``.ipa-cache/`` by default) of
  *segments*, so repeated analyses of the same specifications across
  processes are near-instant.

A segment is one JSON file, ``seg-<SHA-256 of its content>.json``,
holding every entry a cache instance put since its last
:meth:`SolverCache.flush`; ``run_ipa`` flushes once when it returns or
raises.  It is written to a temporary file and renamed into place, so
no reader ever sees one half-written.  The directory therefore grows by
at most one segment per ``run_ipa`` that missed (a warm run writes
nothing); delete it to reclaim the space.  On a memory miss the cache
reads every segment it has not read yet -- one directory scan per miss
-- so processes sharing a directory see each other's results.

A segment carries its schema version; each entry carries the key it
answers and a checksum over key and payload.  A corrupted, tampered or
stale entry never produces a wrong answer: it is rejected on load,
counted, and recomputed.  A segment that does not parse is rejected
whole and deleted; one of another schema version is rejected whole and
left alone.

SAT results may carry the satisfying model so a cache hit reproduces the
*byte-identical* counterexample a fresh solver run would have found.
Results produced by the incremental sessions are stored without a
model (their models are path-dependent); a later query that needs the
model recomputes it and upgrades the entry.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping

from repro.logic.ast import Atom, Const, Formula, NumPred, PredicateDecl, Sort
from repro.logic.grounding import Domain
from repro.obs import REGISTRY
from repro.solver.models import Model

#: Bump when the segment or entry layout (or anything that affects the
#: meaning of a stored result) changes; older segments become stale and
#: are recomputed.  Version 1 stored one file per key in prefix
#: subdirectories, which version 2 never reads.
CACHE_SCHEMA = 2


def canonical_query_text(
    domain: Domain,
    params: Mapping[str, int],
    int_bound: int,
    formulas: Iterable[Formula],
) -> str:
    """A deterministic textual form of one solver query.

    Every AST node renders itself deterministically through ``str``
    (predicate and constant names are globally meaningful), so the
    concatenation of the domain layout, the parameter valuation, the
    integer bound and the constraint conjunction identifies the query
    up to logical identity.
    """
    lines = [f"schema {CACHE_SCHEMA}"]
    for sort, consts in sorted(
        domain.constants.items(), key=lambda kv: kv[0].name
    ):
        lines.append(
            f"sort {sort.name}: {','.join(c.name for c in consts)}"
        )
    lines.append(
        "params " + ";".join(
            f"{name}={value}" for name, value in sorted(params.items())
        )
    )
    lines.append(f"int_bound {int_bound}")
    for formula in formulas:
        lines.append(str(formula))
    return "\n".join(lines)


def query_key(
    domain: Domain,
    params: Mapping[str, int],
    int_bound: int,
    formulas: Iterable[Formula],
) -> str:
    """The content address (hex SHA-256) of one solver query."""
    text = canonical_query_text(domain, params, int_bound, formulas)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# Model (de)serialisation
# ---------------------------------------------------------------------------


def _serialize_args(args) -> list[list[str]]:
    return [[const.name, const.sort.name] for const in args]


def _deserialize_args(blob) -> tuple[Const, ...]:
    return tuple(Const(name, Sort(sort)) for name, sort in blob)


def serialize_model(model: Model) -> dict:
    """Model -> JSON-safe dict (domain is reattached on load)."""
    atoms = [
        [atom.pred.name, _serialize_args(atom.args), bool(value)]
        for atom, value in sorted(model.atoms.items(), key=lambda kv: str(kv[0]))
    ]
    numerics = [
        [np.pred.name, _serialize_args(np.args), int(value)]
        for np, value in sorted(model.numerics.items(), key=lambda kv: str(kv[0]))
    ]
    return {"atoms": atoms, "numerics": numerics}


def deserialize_model(
    blob: dict, domain: Domain, params: Mapping[str, int]
) -> Model:
    """Rebuild a :class:`Model` from :func:`serialize_model` output.

    Predicate declarations are reconstructed structurally (name,
    argument sorts, kind); frozen-dataclass equality makes them
    indistinguishable from the originals.
    """
    model = Model(domain=domain, params=dict(params))
    for name, args_blob, value in blob["atoms"]:
        args = _deserialize_args(args_blob)
        pred = PredicateDecl(name, tuple(a.sort for a in args), numeric=False)
        model.atoms[Atom(pred, args)] = bool(value)
    for name, args_blob, value in blob["numerics"]:
        args = _deserialize_args(args_blob)
        pred = PredicateDecl(name, tuple(a.sort for a in args), numeric=True)
        model.numerics[NumPred(pred, args)] = int(value)
    return model


# ---------------------------------------------------------------------------
# Entries and the cache proper
# ---------------------------------------------------------------------------


@dataclass
class CacheEntry:
    """One stored query outcome."""

    sat: bool
    model_blob: dict | None = None

    @property
    def has_model(self) -> bool:
        return self.model_blob is not None


@dataclass
class CacheStats:
    """Hit/miss counters, surfaced in analysis reports and benchmarks."""

    memory_hits: int = 0
    disk_hits: int = 0
    misses: int = 0
    writes: int = 0
    rejected: int = 0  # corrupted / stale / tampered entries discarded
    write_errors: int = 0  # flushes the disk refused

    @property
    def hits(self) -> int:
        return self.memory_hits + self.disk_hits

    def as_dict(self) -> dict:
        return {
            "memory_hits": self.memory_hits,
            "disk_hits": self.disk_hits,
            "misses": self.misses,
            "writes": self.writes,
            "rejected": self.rejected,
            "write_errors": self.write_errors,
        }


def _entry_checksum(key: str, payload: dict) -> str:
    body = json.dumps(
        [key, payload], sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(body.encode("utf-8")).hexdigest()


def _parse_entry(key: str, row: dict) -> CacheEntry:
    """The entry a segment row holds for ``key``; raises if not valid."""
    payload = row["result"]
    if row.get("checksum") != _entry_checksum(key, payload):
        raise ValueError("checksum mismatch")
    sat = payload["sat"]
    if not isinstance(sat, bool):
        raise ValueError("malformed verdict")
    model_blob = payload.get("model")
    if model_blob is not None and (
        not isinstance(model_blob, dict)
        or "atoms" not in model_blob
        or "numerics" not in model_blob
    ):
        raise ValueError("malformed model")
    return CacheEntry(sat=sat, model_blob=model_blob)


class SolverCache:
    """Two-tier (memory + disk) store of solver query outcomes.

    ``directory=None`` keeps the cache purely in memory.  A directory
    enables the persistent tier; it is created lazily on the first
    :meth:`flush` that has entries to write.  One instance may be
    shared by any number of checkers; instances in other processes
    pointed at the same directory share results through the disk tier.
    """

    def __init__(self, directory: str | os.PathLike | None = None) -> None:
        self._dir = Path(directory) if directory is not None else None
        self._memory: dict[str, CacheEntry] = {}
        # Keys put since the last flush: the next segment's content.
        self._pending: set[str] = set()
        # Segment file names already read (or written from memory).
        self._segments: set[str] = set()
        # Rows read from segments, by key; a row is validated when its
        # key is first looked up, so a run pays only for what it uses.
        self._unverified: dict[str, list[dict]] = {}
        self.stats = CacheStats()
        # Process-wide counterparts of ``stats`` under the dotted metric
        # namespace; instruments are held directly so the hot lookup
        # path pays one attribute increment, not a registry lookup.
        self._hits_memory = REGISTRY.counter("analysis.cache.memory_hits")
        self._hits_disk = REGISTRY.counter("analysis.cache.disk_hits")
        self._misses = REGISTRY.counter("analysis.cache.misses")
        self._writes = REGISTRY.counter("analysis.cache.writes")
        self._rejects = REGISTRY.counter("analysis.cache.rejected")
        self._write_errors = REGISTRY.counter("analysis.cache.write_errors")

    def key(
        self,
        domain: Domain,
        params: Mapping[str, int],
        int_bound: int,
        formulas: Iterable[Formula],
    ) -> str:
        return query_key(domain, params, int_bound, formulas)

    # -- lookup -------------------------------------------------------------

    def get(self, key: str, need_model: bool = False) -> CacheEntry | None:
        """The stored entry, or None on miss.

        ``need_model=True`` rejects SAT entries stored without their
        model (the caller will recompute and upgrade the entry).
        """
        entry = self._memory.get(key)
        if entry is not None and self._usable(entry, need_model):
            self.stats.memory_hits += 1
            self._hits_memory.value += 1
            return entry
        if self._dir is not None:
            disk = self._from_disk(key)
            # Another process may have upgraded the entry with a model;
            # keep the richer of the two copies.
            if disk is not None and (
                entry is None or (disk.has_model and not entry.has_model)
            ):
                self._memory[key] = disk
                if self._usable(disk, need_model):
                    self.stats.disk_hits += 1
                    self._hits_disk.value += 1
                    return disk
        self.stats.misses += 1
        self._misses.value += 1
        return None

    @staticmethod
    def _usable(entry: CacheEntry, need_model: bool) -> bool:
        return not (need_model and entry.sat and not entry.has_model)

    # -- store --------------------------------------------------------------

    def put(self, key: str, sat: bool, model: Model | None = None) -> None:
        """Record an outcome in memory; :meth:`flush` persists it."""
        previous = self._memory.get(key)
        if previous is not None and previous.sat == sat and (
            previous.has_model or model is None
        ):
            return  # nothing new: same verdict, no model upgrade
        self._memory[key] = CacheEntry(
            sat=sat,
            model_blob=serialize_model(model) if model is not None else None,
        )
        if self._dir is not None:
            self._pending.add(key)
        self.stats.writes += 1
        self._writes.value += 1

    def flush(self) -> None:
        """Write every entry put since the last flush as one segment.

        A write the disk refuses (read-only or full) degrades to
        memory-only caching: it is counted in ``write_errors`` and the
        entries stay pending for the next flush.
        """
        if self._dir is None or not self._pending:
            return
        rows = []
        for key in sorted(self._pending):
            entry = self._memory[key]
            payload = {"sat": entry.sat, "model": entry.model_blob}
            rows.append(
                {
                    "key": key,
                    "checksum": _entry_checksum(key, payload),
                    "result": payload,
                }
            )
        body = json.dumps(
            {"schema": CACHE_SCHEMA, "entries": rows},
            sort_keys=True,
            separators=(",", ":"),
        )
        name = f"seg-{hashlib.sha256(body.encode('utf-8')).hexdigest()}.json"
        try:
            self._dir.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(
                dir=self._dir, prefix=".tmp-", suffix=".json"
            )
            try:
                with os.fdopen(fd, "w", encoding="utf-8") as handle:
                    handle.write(body)
                os.replace(tmp, self._dir / name)
            except BaseException:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass
                raise
        except OSError:
            self.stats.write_errors += 1
            self._write_errors.value += 1
            return
        self._segments.add(name)
        self._pending.clear()

    # -- disk tier ----------------------------------------------------------

    def _from_disk(self, key: str) -> CacheEntry | None:
        """The richest valid entry the segments hold for ``key``."""
        rows = self._unverified.pop(key, None)
        if rows is None and self._load_segments():
            rows = self._unverified.pop(key, None)
        best = None
        for row in rows or ():
            try:
                entry = _parse_entry(key, row)
            except (KeyError, ValueError, TypeError):
                self._reject()
                continue
            if best is None or (entry.has_model and not best.has_model):
                best = entry
        return best

    def _load_segments(self) -> bool:
        """Read every segment not read yet; True if there was one."""
        try:
            names = sorted(
                item.name
                for item in os.scandir(self._dir)
                if item.name.startswith("seg-")
                and item.name.endswith(".json")
                and item.name not in self._segments
            )
        except OSError:
            return False
        for name in names:
            self._segments.add(name)
            for row in self._read_segment(self._dir / name):
                key = row.get("key") if isinstance(row, dict) else None
                if isinstance(key, str):
                    self._unverified.setdefault(key, []).append(row)
                else:
                    self._reject()
        return bool(names)

    def _read_segment(self, path: Path) -> list:
        """A segment's rows, or none if the segment is unusable."""
        try:
            raw = path.read_bytes()
        except OSError:
            return []  # deleted by another reader since the scan
        try:
            document = json.loads(raw)
        except ValueError:
            document = None
        rows = None
        if isinstance(document, dict):
            if document.get("schema") != CACHE_SCHEMA:
                # Another layout version's: not ours to read or delete.
                self._reject()
                return []
            rows = document.get("entries")
        if not isinstance(rows, list):
            # Unreadable as a whole: never trust any of it, and drop it
            # so no later reader pays for it again.
            self._reject()
            try:
                path.unlink()
            except OSError:
                pass
            return []
        return rows

    def _reject(self) -> None:
        self.stats.rejected += 1
        self._rejects.value += 1
