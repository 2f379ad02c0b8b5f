"""The IPA static analysis: the paper's primary contribution.

Given an :class:`~repro.spec.application.ApplicationSpec`, this package

1. detects pairs of operations whose concurrent execution can violate an
   invariant (:mod:`repro.analysis.conflicts`, the extended
   ``isConflicting`` of Algorithm 1);
2. generates candidate repairs -- extra effects plus the convergence
   rules that make them win (:mod:`repro.analysis.generation`);
3. runs the main repair loop (:mod:`repro.analysis.ipa`), replacing
   operations until the application is I-Confluent or the remaining
   conflicts are flagged;
4. synthesises compensations for numeric/aggregation invariants that
   cannot be repaired eagerly (:mod:`repro.analysis.compensation`);
5. classifies invariants into the paper's Table 1 taxonomy
   (:mod:`repro.analysis.classification`).
"""

from repro.analysis.bindings import PairBinding, enumerate_pair_bindings
from repro.analysis.cache import SolverCache
from repro.analysis.classification import (
    InvariantClass,
    classify_invariant,
    classify_spec,
)
from repro.analysis.compensation import Compensation, generate_compensations
from repro.analysis.conflicts import (
    ConflictChecker,
    ConflictWitness,
    opposing_effects,
)
from repro.analysis.generation import CandidateRepair, generate_candidates
from repro.analysis.ipa import AnalysisStats, IpaResult, run_ipa
from repro.analysis.repair import Resolution, first_resolution, repair_conflict

__all__ = [
    "AnalysisStats",
    "CandidateRepair",
    "Compensation",
    "ConflictChecker",
    "ConflictWitness",
    "InvariantClass",
    "IpaResult",
    "PairBinding",
    "Resolution",
    "SolverCache",
    "classify_invariant",
    "classify_spec",
    "enumerate_pair_bindings",
    "first_resolution",
    "generate_candidates",
    "generate_compensations",
    "opposing_effects",
    "repair_conflict",
    "run_ipa",
]
