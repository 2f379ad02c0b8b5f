"""The Compensation Set CRDT (§4.2.2).

A set with an attached constraint (typically a size bound) whose
violation is repaired *on read*: whenever the application reads the
object and the constraint does not hold, the set deterministically
selects excess elements and emits a compensating remove, which the
reading transaction commits alongside its own effects.  The reader
meanwhile observes the already-compensated view, so "any observed state
is consistent".

Convergence: victims are chosen by a deterministic rule over the
observed state (lexicographically largest elements go first), and the
compensating payload removes *observed add-dots* (add-wins removal), so
replicas that detect the same violation independently remove the same
elements and the duplicate removes are idempotent.  As the paper notes,
this does not guarantee that no more elements than necessary are ever
removed (two replicas may trim different concurrent views), but all
replicas converge and the bound holds in every observed state.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Any, Callable, Hashable, Iterable

from repro.errors import CRDTError
from repro.crdts.awset import AWAdd, AWRemove, AWSet
from repro.crdts.base import CRDT, EventContext
from repro.crdts.clock import VersionVector
from repro.crdts.pattern import Pattern


@dataclass
class CompensatedRead:
    """Result of reading a compensation set.

    ``visible`` is the post-compensation view the application should
    use; ``compensation`` is the payload the reading transaction must
    commit (None when the constraint held); ``victims`` lists what the
    compensation removes.
    """

    visible: set
    compensation: Any
    victims: tuple


# The default rules are module-level functions bound with ``partial``,
# not closures: a capacity object must pickle for the durable engines.


def _within_limit(limit: int, elements: set) -> bool:
    return len(elements) <= limit


def _beyond_smallest(limit: int, elements: set) -> tuple:
    try:
        ordered = sorted(elements)
    except TypeError:  # mixed types: fall back to a stable string key
        ordered = sorted(elements, key=lambda e: (str(type(e)), str(e)))
    return tuple(ordered[limit:])


def max_size_constraint(limit: int) -> Callable[[set], bool]:
    """The aggregation bound of the paper's examples: ``|S| <= limit``."""
    return partial(_within_limit, limit)


def keep_smallest(limit: int) -> Callable[[set], tuple]:
    """Victim rule: keep the ``limit`` smallest elements, trim the rest.

    Sorting gives the determinism convergence needs; smallest-first
    keeps the earliest identifiers, which matches "cancel the most
    recent oversold tickets" when ids are ordered by issue time.
    """
    return partial(_beyond_smallest, limit)


class CompensationSet(CRDT):
    """An add-wins set with a read-time compensation loop."""

    type_name = "compensation-set"

    def __init__(
        self,
        max_size: int | None = None,
        constraint: Callable[[set], bool] | None = None,
        select_victims: Callable[[set], tuple] | None = None,
    ) -> None:
        if constraint is None:
            if max_size is None:
                raise CRDTError(
                    "compensation set needs max_size or an explicit "
                    "constraint"
                )
            constraint = max_size_constraint(max_size)
            select_victims = select_victims or keep_smallest(max_size)
        if select_victims is None:
            raise CRDTError(
                "an explicit constraint needs an explicit victim rule"
            )
        self._set = AWSet()
        self._constraint = constraint
        self._select_victims = select_victims
        self._violations_observed = 0

    # -- delegated set API --------------------------------------------------------

    def prepare_add(self, element: Hashable):
        return self._set.prepare_add(element)

    def prepare_touch(self, element: Hashable):
        return self._set.prepare_touch(element)

    def prepare_remove(self, element: Hashable):
        return self._set.prepare_remove(element)

    def prepare_remove_where(self, pattern: Pattern):
        return self._set.prepare_remove_where(pattern)

    EFFECTS = {AWAdd: "_apply_inner", AWRemove: "_apply_inner"}

    def _apply_inner(self, payload: Any, ctx: EventContext) -> None:
        self._set.effect(payload, ctx)

    def compact(self, stable: VersionVector) -> None:
        self._set.compact(stable)

    def clone(self) -> "CompensationSet":
        copied = CompensationSet(
            constraint=self._constraint,
            select_victims=self._select_victims,
        )
        copied._set = self._set.clone()
        copied._violations_observed = self._violations_observed
        return copied

    # -- the compensating read ------------------------------------------------------

    def read(self) -> CompensatedRead:
        """Read the set, compensating if the constraint is violated."""
        elements = self._set.value()
        if self._constraint(elements):
            return CompensatedRead(
                visible=elements, compensation=None, victims=()
            )
        self._violations_observed += 1
        victims = self._select_victims(elements)
        entries = tuple(
            (victim, tuple(sorted(self._set.dots_of(victim))))
            for victim in victims
        )
        compensation = AWRemove(dots=entries)
        return CompensatedRead(
            visible=elements - set(victims),
            compensation=compensation,
            victims=victims,
        )

    def value(self) -> set:
        """The compensated view (without emitting the repair)."""
        return self.read().visible

    def raw_value(self) -> set:
        """The uncompensated view (used to count violations in benches)."""
        return self._set.value()

    @property
    def violations_observed(self) -> int:
        """How many reads found the constraint violated."""
        return self._violations_observed

    def __len__(self) -> int:
        return len(self.value())

    def __contains__(self, element: Hashable) -> bool:
        return element in self.value()
