"""Spec compilation: invariants and effects as closures.

One-time, per-spec compilation of the checker's hot paths.  Invariant
formulas become specialized Python closures (:mod:`.formula`), memoised
process-wide by spec content (:mod:`.cache`).  The companion fast
path -- CRDT effect dispatch tables (:mod:`repro.crdts.base`) -- lives
next to the types it specializes.

``--no-compile`` / ``REPRO_NO_COMPILE=1`` disables formula compilation
and falls back to the pure interpreter in :mod:`repro.check.oracles`;
both paths are differential-tested to produce bit-identical verdicts,
witnesses and trial fingerprints.
"""

from repro.compile.cache import (
    SpecCache,
    canonical_spec_text,
    compilation_enabled,
    default_cache,
    maybe_compile_spec,
    require_compiled_spec,
    set_compilation,
    spec_cache_key,
)
from repro.compile.formula import (
    CompiledInvariant,
    CompiledSpec,
    Uncompilable,
    build_domain_extractor,
    compile_invariant,
    compile_spec,
    generate_invariant_source,
)

__all__ = [
    "CompiledInvariant",
    "CompiledSpec",
    "SpecCache",
    "Uncompilable",
    "build_domain_extractor",
    "canonical_spec_text",
    "compilation_enabled",
    "compile_invariant",
    "compile_spec",
    "default_cache",
    "generate_invariant_source",
    "maybe_compile_spec",
    "require_compiled_spec",
    "set_compilation",
    "spec_cache_key",
]
