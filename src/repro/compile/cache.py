"""Process-wide memo of compiled spec artifacts.

Compiling a spec is cheap (a few milliseconds) but the checker builds
oracles by the thousand -- one per trial, several per explorer sweep --
and every one of those used to pay the full AST walk.  The compiled
artifact is a pure function of its inputs: the schema's sorts,
predicates and parameters plus the invariant formulas fully determine
the generated source.  So artifacts are keyed by the SHA-256 of a
canonical serialisation of the spec and kept in an in-memory map from
key to ready :class:`CompiledSpec` (closures included), shared
process-wide through :func:`default_cache`.  Nothing is persisted:
``compile()``/``exec`` of the generated source, not codegen, is the cost
of a build, so a stored source saves nothing (EXPERIMENTS.md, "Three
accelerations nobody measured").

Specs the code generator cannot handle are remembered as negative
entries so the interpreter fallback is chosen once, not re-attempted
per trial.

The ``REPRO_NO_COMPILE`` environment variable (or the ``--no-compile``
CLI flag, which calls :func:`set_compilation`) disables compilation
globally: :func:`maybe_compile_spec` then returns ``None`` and every
oracle runs the pure interpreter.
"""

from __future__ import annotations

import hashlib
import os

from repro.compile.formula import (
    CompiledSpec,
    Uncompilable,
    build_domain_extractor,
    generate_spec_sources,
    load_invariant,
)
from repro.obs import REGISTRY, monotonic
from repro.spec.application import ApplicationSpec

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
    lines = [f"app {schema.name}"]
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


class SpecCache:
    """Compiled spec artifacts by content key, held in memory."""

    def __init__(self) -> None:
        # key -> CompiledSpec, or None for specs codegen rejected.
        self._memory: dict[str, CompiledSpec | None] = {}
        self._hits = REGISTRY.counter("compile.cache.hit")
        self._misses = REGISTRY.counter("compile.cache.miss")
        self._build_ms = REGISTRY.counter("compile.build_ms")

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
        return compiled


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
