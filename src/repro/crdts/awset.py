"""Add-wins (observed-remove) set with touch and wildcard support.

The classic OR-set under causal delivery: an add creates a unique dot
for the element; a remove deletes only the dots the *origin* replica had
observed.  An add concurrent with a remove therefore survives -- the
add wins.

Extensions for IPA (§4.2.1):

- ``prepare_remove_where(pattern)``: a predicate-scoped remove.  It
  still only covers observed dots (add-wins semantics), so a concurrent
  add of a matching element survives -- which is exactly why IPA pairs
  wildcard *clears* with the rem-wins set instead; the add-wins variant
  is provided because "clear what I can see" is the right semantics for
  compensations (deterministic trims must not cancel adds they did not
  observe).
- ``prepare_touch(element)``: identical visibility effect to an add,
  flagged as a touch (the paper's add that keeps an entity's payload;
  no app here attaches payloads to elements).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Hashable, Iterable

from repro.crdts.base import CRDT, Dot, EventContext
from repro.crdts.clock import VersionVector
from repro.crdts.pattern import Pattern


@dataclass(frozen=True)
class AWAdd:
    element: Hashable
    touch: bool = False


@dataclass(frozen=True)
class AWRemove:
    """Removes the listed observed dots of each element."""

    dots: tuple[tuple[Hashable, tuple[Dot, ...]], ...]


class AWSet(CRDT):
    """Observed-remove set (add-wins)."""

    type_name = "aw-set"

    def __init__(self) -> None:
        self._dots: dict[Hashable, set[Dot]] = {}

    # -- prepare (origin side) -------------------------------------------------

    def prepare_add(self, element: Hashable) -> AWAdd:
        return AWAdd(element)

    def prepare_touch(self, element: Hashable) -> AWAdd:
        return AWAdd(element, touch=True)

    def prepare_remove(self, element: Hashable) -> AWRemove:
        observed = tuple(sorted(self._dots.get(element, ())))
        return AWRemove(dots=((element, observed),))

    def prepare_remove_where(self, pattern: Pattern) -> AWRemove:
        matching = [e for e in self._dots if pattern.matches(e)]
        matching.sort(key=str)
        return AWRemove(
            dots=tuple((e, tuple(sorted(self._dots[e]))) for e in matching)
        )

    # -- effect (all replicas) ---------------------------------------------------

    EFFECTS = {AWAdd: "_apply_add", AWRemove: "_apply_remove"}

    def _apply_add(self, payload: AWAdd, ctx: EventContext) -> None:
        dots = self._dots.get(payload.element)
        if dots is None:
            dots = self._dots[payload.element] = set()
        dots.add(ctx.dot)

    def _apply_remove(self, payload: AWRemove, ctx: EventContext) -> None:
        for element, dots in payload.dots:
            alive = self._dots.get(element)
            if alive is None:
                continue
            alive.difference_update(dots)
            if not alive:
                del self._dots[element]

    # -- queries -------------------------------------------------------------------

    def value(self) -> set:
        return set(self._dots)

    def __contains__(self, element: Hashable) -> bool:
        return element in self._dots

    def __len__(self) -> int:
        return len(self._dots)

    def elements_matching(self, pattern: Pattern) -> set:
        return {e for e in self._dots if pattern.matches(e)}

    def dots_of(self, element: Hashable) -> frozenset[Dot]:
        """The alive add-dots of an element."""
        return frozenset(self._dots.get(element, ()))

    def clone(self) -> "AWSet":
        copied = AWSet()
        # Dots are immutable; only the per-element sets are mutable.
        copied._dots = {
            element: set(dots) for element, dots in self._dots.items()
        }
        return copied
