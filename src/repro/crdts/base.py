"""CRDT base machinery: dots, event contexts, the CRDT interface."""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import Any, Hashable

from repro.errors import CRDTError
from repro.crdts.clock import VersionVector


@dataclass(frozen=True, order=True, slots=True)
class Dot:
    """A globally unique event identifier: (origin replica, counter)."""

    replica: str
    counter: int

    def __str__(self) -> str:  # pragma: no cover - debug aid
        return f"{self.replica}:{self.counter}"


@dataclass(slots=True)
class EventContext:
    """Causal context of one update event.

    ``dot`` identifies the event; ``vv`` is the origin replica's version
    vector *including* the dot, so ``a`` causally precedes ``b`` iff
    ``b.vv.contains_dot(a.dot.replica, a.dot.counter)`` (equivalently
    ``b.vv.dominates(a.vv)`` under causal delivery).

    The ``vv`` attached to a context handed to ``effect`` belongs to the
    context: CRDTs may retain it (remove-wins sets keep add contexts
    alive indefinitely), so producers must hand each context its own
    vector, never a shared mutable one.  Contexts are immutable by
    contract once applied; the dataclass is deliberately not ``frozen``
    because one is constructed per applied record on the hot path and
    frozen-dataclass initialisation costs measurably more.
    """

    dot: Dot
    vv: VersionVector


class CRDT:
    """Base class of every replicated type.

    Subclasses implement ``effect(payload, ctx)`` -- the deterministic,
    exactly-once application of a prepared update -- plus type-specific
    ``prepare_*`` methods that run at the origin and build payloads.
    ``value()`` exposes the query model.

    ``compact(stable)`` may discard metadata for events that are
    *causally stable* (delivered at every replica): the store calls it
    with the stable version vector as stability advances.
    """

    #: Short type tag used by the store's type registry.
    type_name: str = "crdt"

    #: Declarative payload dispatch: payload class -> handler method
    #: name.  ``__init_subclass__`` folds declarations over the MRO
    #: into ``_effect_table`` (payload class -> function), so applying
    #: an effect costs one dict lookup instead of an ``isinstance``
    #: chain -- and the replication hot loop can fetch the handler
    #: directly (see ``Replica._apply_state``).  Payload classes are
    #: looked up by exact type: payloads are plain frozen dataclasses
    #: and are never subclassed.
    EFFECTS: dict = {}
    _effect_table: dict = {}

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        declared: dict = {}
        for klass in reversed(cls.__mro__):
            table = vars(klass).get("EFFECTS")
            if table:
                declared.update(table)
        cls._effect_table = {
            payload_type: getattr(cls, handler_name)
            for payload_type, handler_name in declared.items()
        }

    def effect(self, payload: Any, ctx: EventContext) -> None:
        handler = self._effect_table.get(payload.__class__)
        if handler is None:
            self._reject(payload)
        else:
            handler(self, payload, ctx)

    def _reject(self, payload: Any) -> None:
        if not self._effect_table:
            # Abstract base (or a subclass that declared no effects).
            raise NotImplementedError
        raise CRDTError(f"{self.type_name} cannot apply {payload!r}")

    def value(self) -> Any:
        raise NotImplementedError

    def compact(self, stable: VersionVector) -> None:
        """Garbage-collect metadata covered by the stable vector."""

    def clone(self) -> "CRDT":
        """An independent copy of this object's current state.

        Used by replica checkpointing (log compaction snapshots).  The
        default is a full deep copy; types whose retained metadata is
        immutable (dots, event contexts) override this to share it and
        copy only the mutable containers.
        """
        return copy.deepcopy(self)
