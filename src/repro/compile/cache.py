"""Content-addressed cache of compiled spec artifacts.

Compiling a spec is cheap (a few milliseconds) but the checker builds
oracles by the thousand -- one per trial, several per explorer sweep --
and every one of those used to pay the full AST walk.  Like the solver
cache (:mod:`repro.analysis.cache`, the template for this module), the
compiled artifact is a pure function of its inputs: the schema's sorts,
predicates and parameters plus the invariant formulas fully determine
the generated source.  So artifacts are content-addressed by the
SHA-256 of a canonical serialisation of the spec and stored in two
tiers:

- an **in-memory** map from key to ready :class:`CompiledSpec` (closures
  included), shared process-wide through :func:`default_cache`;
- an optional **on-disk** tier holding the generated *sources*, sharded
  by key prefix.  A disk hit skips codegen and goes straight to
  ``compile()``/``exec`` -- the sources are byte-identical to what a
  fresh walk would emit, so cache hits cannot change behaviour.

Disk entries carry their schema version, the key they claim to answer,
and a checksum; corrupted or stale entries are rejected, deleted, and
recomputed.  Specs the code generator cannot handle are remembered as
negative entries so the interpreter fallback is chosen once, not
re-attempted per trial.

The ``REPRO_NO_COMPILE`` environment variable (or the ``--no-compile``
CLI flag, which calls :func:`set_compilation`) disables compilation
globally: :func:`maybe_compile_spec` then returns ``None`` and every
oracle runs the pure interpreter.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from pathlib import Path

from repro.compile.formula import (
    CompiledSpec,
    Uncompilable,
    build_domain_extractor,
    generate_spec_sources,
    load_invariant,
)
from repro.obs import REGISTRY, monotonic
from repro.spec.application import ApplicationSpec

#: Bump when the code generator's output (or anything affecting the
#: meaning of a cached source) changes; older entries become stale.
CACHE_SCHEMA = 2  # 2: guard-driven enumeration of `forall x :- P(x) => Q`

_ENABLED: bool | None = None


def compilation_enabled() -> bool:
    """Whether specs should be compiled (CLI flag, then environment)."""
    if _ENABLED is not None:
        return _ENABLED
    return os.environ.get("REPRO_NO_COMPILE", "") in ("", "0")


def set_compilation(enabled: bool | None) -> None:
    """Force compilation on/off (``None`` restores the env default)."""
    global _ENABLED
    _ENABLED = enabled


def canonical_spec_text(spec: ApplicationSpec) -> str:
    """A deterministic textual form of everything codegen depends on.

    Invariants are listed in declaration order (the compiled check
    preserves it); sorts and predicates are sorted by name.  The
    invariant's reported name is included because it is baked into the
    generated ``Violation`` constructor calls.
    """
    schema = spec.schema
    lines = [f"schema {CACHE_SCHEMA}", f"app {schema.name}"]
    for name in sorted(schema.sorts):
        lines.append(f"sort {name}")
    for name, decl in sorted(schema.predicates.items()):
        kind = "num" if decl.numeric else "bool"
        args = ",".join(s.name for s in decl.arg_sorts)
        lines.append(f"pred {name}({args}):{kind}")
    for name, value in sorted(schema.params.items()):
        lines.append(f"param {name}={value}")
    for invariant in spec.invariants:
        label = invariant.name or invariant.describe()
        lines.append(f"inv {label!r} {invariant.formula}")
    return "\n".join(lines)


def spec_cache_key(spec: ApplicationSpec) -> str:
    """The content address (hex SHA-256) of one spec's compiled form."""
    text = canonical_spec_text(spec)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _sources_checksum(sources: list) -> str:
    body = json.dumps(sources, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(body.encode("utf-8")).hexdigest()


class SpecCache:
    """Two-tier (memory + disk) store of compiled spec artifacts.

    ``directory=None`` keeps compiled specs purely in memory; pass a
    directory (or set ``REPRO_COMPILE_CACHE_DIR``) to persist generated
    sources across processes.
    """

    def __init__(self, directory: str | os.PathLike | None = None) -> None:
        if directory is None:
            directory = os.environ.get("REPRO_COMPILE_CACHE_DIR") or None
        self._dir = Path(directory) if directory is not None else None
        # key -> CompiledSpec, or None for specs codegen rejected.
        self._memory: dict[str, CompiledSpec | None] = {}
        self._hits = REGISTRY.counter("compile.cache.hit")
        self._misses = REGISTRY.counter("compile.cache.miss")
        self._build_ms = REGISTRY.counter("compile.build_ms")

    @property
    def directory(self) -> Path | None:
        return self._dir

    def get_or_build(
        self, spec: ApplicationSpec, strict: bool = False
    ) -> CompiledSpec | None:
        """The compiled spec, building (and caching) it on first use.

        Returns ``None`` when the spec is uncompilable -- callers fall
        back to the interpreter -- unless ``strict`` is set, in which
        case the original :class:`Uncompilable` propagates.
        """
        key = spec_cache_key(spec)
        if key in self._memory:
            compiled = self._memory[key]
            if compiled is None and strict:
                return self._build(spec, key, strict=True)
            self._hits.value += 1
            return compiled
        sources = self._load_disk(key)
        if sources is not None:
            started = monotonic()
            compiled = CompiledSpec(
                key,
                tuple(load_invariant(name, src) for name, src in sources),
                build_domain_extractor(spec.schema),
            )
            self._build_ms.value += (monotonic() - started) * 1000.0
            self._memory[key] = compiled
            self._hits.value += 1
            return compiled
        self._misses.value += 1
        return self._build(spec, key, strict=strict)

    def _build(
        self, spec: ApplicationSpec, key: str, strict: bool
    ) -> CompiledSpec | None:
        started = monotonic()
        try:
            sources = generate_spec_sources(spec)
        except Uncompilable:
            self._memory[key] = None
            if strict:
                raise
            return None
        compiled = CompiledSpec(
            key,
            tuple(load_invariant(name, src) for name, src in sources),
            build_domain_extractor(spec.schema),
        )
        self._build_ms.value += (monotonic() - started) * 1000.0
        self._memory[key] = compiled
        if self._dir is not None:
            self._write_disk(key, sources)
        return compiled

    # -- disk tier ----------------------------------------------------------

    def _path(self, key: str) -> Path:
        assert self._dir is not None
        return self._dir / key[:2] / f"{key}.json"

    def _load_disk(self, key: str) -> list[tuple[str, str]] | None:
        if self._dir is None:
            return None
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
            sources = document["sources"]
            if document.get("checksum") != _sources_checksum(sources):
                raise ValueError("checksum mismatch")
            out: list[tuple[str, str]] = []
            for item in sources:
                name, source = item
                if not isinstance(name, str) or not isinstance(source, str):
                    raise ValueError("malformed source entry")
                out.append((name, source))
            return out
        except (KeyError, ValueError, TypeError):
            # Corrupted, tampered or stale: recompute and replace.
            try:
                path.unlink()
            except OSError:
                pass
            return None

    def _write_disk(self, key: str, sources: list[tuple[str, str]]) -> None:
        path = self._path(key)
        blob = [[name, source] for name, source in sources]
        document = {
            "schema": CACHE_SCHEMA,
            "key": key,
            "checksum": _sources_checksum(blob),
            "sources": blob,
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
            # Read-only or full disk degrades to memory-only caching.
            pass


_DEFAULT: SpecCache | None = None


def default_cache() -> SpecCache:
    """The process-wide cache every oracle shares by default."""
    global _DEFAULT
    if _DEFAULT is None:
        _DEFAULT = SpecCache()
    return _DEFAULT


def maybe_compile_spec(spec: ApplicationSpec) -> CompiledSpec | None:
    """Compile through the default cache, or ``None`` when disabled
    (``--no-compile`` / ``REPRO_NO_COMPILE``) or uncompilable."""
    if not compilation_enabled():
        return None
    return default_cache().get_or_build(spec)


def require_compiled_spec(spec: ApplicationSpec) -> CompiledSpec:
    """Compile unconditionally; :class:`Uncompilable` propagates."""
    compiled = default_cache().get_or_build(spec, strict=True)
    assert compiled is not None
    return compiled
