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
- an optional **on-disk** store (``.ipa-cache/`` by default), sharded by
  key prefix, so repeated analyses of the same specifications across
  processes are near-instant.

Disk entries are JSON documents carrying their own schema version, the
key they claim to answer, and a checksum over the payload.  A corrupted,
truncated, tampered or stale (old schema) entry never produces a wrong
answer: it is detected on load, treated as a miss, and overwritten by
the recomputed result.

SAT results may carry the satisfying model so a cache hit reproduces the
*byte-identical* counterexample a fresh solver run would have found.
Results produced by the incremental repair sessions are stored without a
model (their models are path-dependent); a later query that needs the
model recomputes it and upgrades the entry.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Mapping

from repro.logic.ast import Atom, Const, Formula, NumPred, PredicateDecl, Sort
from repro.logic.grounding import Domain
from repro.obs import REGISTRY
from repro.solver.models import Model

#: Bump when the serialised entry layout (or anything that affects the
#: meaning of a stored result) changes; older entries become stale and
#: are recomputed.
CACHE_SCHEMA = 1


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
        }


def _payload_checksum(payload: dict) -> str:
    body = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(body.encode("utf-8")).hexdigest()


class SolverCache:
    """Two-tier (memory + disk) store of solver query outcomes.

    ``directory=None`` keeps the cache purely in memory.  A directory
    enables the persistent tier; it is created lazily on first write.
    One instance may be shared by any number of checkers; instances in
    other processes pointed at the same directory share results through
    the disk tier.
    """

    def __init__(self, directory: str | os.PathLike | None = None) -> None:
        self._dir = Path(directory) if directory is not None else None
        self._memory: dict[str, CacheEntry] = {}
        self.stats = CacheStats()
        # Process-wide counterparts of ``stats`` under the dotted metric
        # namespace; instruments are held directly so the hot lookup
        # path pays one attribute increment, not a registry lookup.
        self._hits_memory = REGISTRY.counter("analysis.cache.memory_hits")
        self._hits_disk = REGISTRY.counter("analysis.cache.disk_hits")
        self._misses = REGISTRY.counter("analysis.cache.misses")
        self._writes = REGISTRY.counter("analysis.cache.writes")
        self._rejects = REGISTRY.counter("analysis.cache.rejected")

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
            disk = self._load_disk(key)
            if disk is not None:
                # Another process may have upgraded the entry with a
                # model; prefer the richer of the two copies.
                if entry is None or (disk.has_model and not entry.has_model):
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
        entry = CacheEntry(
            sat=sat,
            model_blob=serialize_model(model) if model is not None else None,
        )
        previous = self._memory.get(key)
        self._memory[key] = entry
        if self._dir is not None:
            # Skip the disk write when it would not add information
            # (same verdict, and no model upgrade).
            if (
                previous is not None
                and previous.sat == sat
                and not (entry.has_model and not previous.has_model)
            ):
                return
            self._write_disk(key, entry)
        self.stats.writes += 1
        self._writes.value += 1

    # -- disk tier ----------------------------------------------------------

    def _path(self, key: str) -> Path:
        assert self._dir is not None
        return self._dir / key[:2] / f"{key}.json"

    def _load_disk(self, key: str) -> CacheEntry | None:
        path = self._path(key)
        try:
            raw = path.read_text(encoding="utf-8")
        except OSError:
            return None
        try:
            document = json.loads(raw)
            if not isinstance(document, dict):
                raise ValueError("not an object")
            if document.get("schema") != CACHE_SCHEMA:
                raise ValueError("stale schema")
            if document.get("key") != key:
                raise ValueError("key mismatch")
            payload = document["result"]
            if document.get("checksum") != _payload_checksum(payload):
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
        except (KeyError, ValueError, TypeError):
            # Corrupted, tampered or stale: never trust it.  Drop the
            # file so the recomputed result replaces it cleanly.
            self.stats.rejected += 1
            self._rejects.value += 1
            try:
                path.unlink()
            except OSError:
                pass
            return None

    def _write_disk(self, key: str, entry: CacheEntry) -> None:
        path = self._path(key)
        payload = {"sat": entry.sat, "model": entry.model_blob}
        document = {
            "schema": CACHE_SCHEMA,
            "key": key,
            "checksum": _payload_checksum(payload),
            "result": payload,
        }
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(
                dir=path.parent, prefix=".tmp-", suffix=".json"
            )
            try:
                with os.fdopen(fd, "w", encoding="utf-8") as handle:
                    json.dump(document, handle)
                os.replace(tmp, path)
            except BaseException:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass
                raise
        except OSError:
            # A read-only or full disk degrades to memory-only caching.
            pass
