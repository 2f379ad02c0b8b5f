"""Conflict-free replicated data types (the paper's §4.2).

Operation-based CRDTs designed for a store with causal delivery and
exactly-once application (which :mod:`repro.store` provides).  Each type
follows a *prepare/effect* split: ``prepare_*`` runs at the origin
replica and captures whatever context the update needs (fresh dots,
observed tombstones); the resulting payload is applied with ``effect``
at every replica, the origin included.

Beyond the textbook types, this package implements the extensions IPA
needs (§4.2.1-§4.2.2):

- wildcard (predicate-scoped) adds/removes on both set flavours,
  implementing effects such as ``enrolled(*, t) = false``;
- the *touch* operation: a flag on set adds (``AWAdd.touch``,
  ``RWAdd.touch``) with the visibility of a plain add; no app carries
  per-element payloads, so nothing else reads it;
- the *Compensation Set*: a bounded set that detects constraint
  violations on read and emits deterministic, idempotent compensating
  updates (:mod:`repro.crdts.compset`);
- a compensated counter with replenish/cancel semantics for numeric
  invariants.

Indigo is modelled by :mod:`repro.store.reservations`, not by a CRDT:
the escrow-style :class:`~repro.crdts.bcounter.BoundedCounter` is only
the numeric-strategy ablation's comparison point.  Unique identifiers
need no type either: the workloads mint them inline, prefixed with the
issuing region.
"""

from repro.crdts.base import CRDT, Dot, EventContext
from repro.crdts.awset import AWSet
from repro.crdts.bcounter import BoundedCounter
from repro.crdts.clock import VersionVector
from repro.crdts.compset import CompensationSet
from repro.crdts.counter import CompensatedCounter, PNCounter
from repro.crdts.lww import LWWRegister
from repro.crdts.pattern import Pattern
from repro.crdts.rwset import RWSet

__all__ = [
    "AWSet",
    "BoundedCounter",
    "CRDT",
    "CompensatedCounter",
    "CompensationSet",
    "Dot",
    "EventContext",
    "LWWRegister",
    "PNCounter",
    "Pattern",
    "RWSet",
    "VersionVector",
]
