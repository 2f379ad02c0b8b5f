"""Remove-wins set with wildcard (predicate-scoped) tombstones.

Under remove-wins semantics an element is in the set iff some add of it
causally follows *every* remove that covers it: a remove kills both the
adds it observed and any add concurrent with it.  This is the
convergence rule IPA leans on for clearing effects -- e.g.
``enrolled(*, t) = false`` in ``rem_tourn`` guarantees no player stays
enrolled in a removed tournament even if an ``enroll`` raced with it
(Figure 2c).

State: per element, the add contexts still alive and one merged version
vector of its targeted removes; per wildcard pattern, one merged vector
of the removes shipped with it.  A pointwise-max vector stands for every
remove folded into it because, under causal delivery, "add follows
remove r" is ``add.vv >= r.vv`` and dominating the max dominates each.
An element's *cover* is every remove vector applying to it: its targeted
one and each matching pattern's.

Representation invariant: after every effect, ``clone`` and ``compact``,
every stored add context dominates all of its element's cover (and no
element is stored without a context).  So ``_adds`` holds exactly the
visible elements and reads are lookups: no tombstone is consulted,
however many are live.  Effects keep the invariant by checking only
what they changed -- an arriving add is tested once against its cover,
a remove re-tests the contexts it covers against its own vector alone --
and :meth:`RWSet.compact` only deletes tombstones, which shrinks covers.

The invariant is about the state as stored, not about that state being
right.  ROADMAP gap (d), compaction under an instantaneous stability
vector, loses the tombstone itself, so an in-flight concurrent add
finds no cover and is stored; reads that scanned tombstones saw the
same missing tombstone.  Answering from ``_adds`` neither fixes nor
hides it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable

from repro.crdts.base import CRDT, EventContext
from repro.crdts.clock import VersionVector
from repro.crdts.pattern import Pattern


@dataclass(frozen=True)
class RWAdd:
    element: Hashable
    touch: bool = False


@dataclass(frozen=True)
class RWRemove:
    element: Hashable


@dataclass(frozen=True)
class RWRemoveWhere:
    pattern: Pattern


class RWSet(CRDT):
    """Remove-wins set."""

    type_name = "rw-set"

    def __init__(self) -> None:
        # element -> list of alive add contexts.
        self._adds: dict[Hashable, list[EventContext]] = {}
        # element -> merged vv of targeted removes.
        self._removes: dict[Hashable, VersionVector] = {}
        # pattern -> merged vv of removes shipped with that pattern.
        self._pattern_tombstones: dict[Pattern, VersionVector] = {}

    # -- prepare (origin side) -------------------------------------------------

    def prepare_add(self, element: Hashable) -> RWAdd:
        return RWAdd(element)

    def prepare_touch(self, element: Hashable) -> RWAdd:
        return RWAdd(element, touch=True)

    def prepare_remove(self, element: Hashable) -> RWRemove:
        return RWRemove(element)

    def prepare_remove_where(self, pattern: Pattern) -> RWRemoveWhere:
        return RWRemoveWhere(pattern)

    # -- effect (all replicas) ---------------------------------------------------

    EFFECTS = {
        RWAdd: "_apply_add",
        RWRemove: "_apply_remove",
        RWRemoveWhere: "_apply_remove_where",
    }

    def _apply_add(self, payload: RWAdd, ctx: EventContext) -> None:
        # The one moment a context meets removes it was never tested
        # against: store it only if it follows its whole cover.
        element, vv = payload.element, ctx.vv
        removed = self._removes.get(element)
        if removed is not None and not vv.dominates(removed):
            return
        for pattern, tombstone in self._pattern_tombstones.items():
            if pattern.matches(element) and not vv.dominates(tombstone):
                return
        adds = self._adds.get(element)
        if adds is None:
            self._adds[element] = [ctx]
        else:
            adds.append(ctx)

    def _apply_remove(self, payload: RWRemove, ctx: EventContext) -> None:
        merged = self._removes.get(payload.element)
        if merged is None:
            self._removes[payload.element] = ctx.vv.copy()
        else:
            merged.merge(ctx.vv)
        self._kill(payload.element, ctx.vv)

    def _apply_remove_where(
        self, payload: RWRemoveWhere, ctx: EventContext
    ) -> None:
        merged = self._pattern_tombstones.get(payload.pattern)
        if merged is None:
            self._pattern_tombstones[payload.pattern] = ctx.vv.copy()
        else:
            merged.merge(ctx.vv)
        matches = payload.pattern.matches
        for element in [e for e in self._adds if matches(e)]:
            self._kill(element, ctx.vv)

    def _kill(self, element: Hashable, removed: VersionVector) -> None:
        """Drop ``element``'s adds that do not follow the new remove.

        One comparison each restores the invariant: they dominated the
        rest of their cover already.  A remove's vector only grows, so a
        dropped add could never have become visible again.
        """
        adds = self._adds.get(element)
        if adds is None:
            return
        alive = [add for add in adds if add.vv.dominates(removed)]
        if not alive:
            del self._adds[element]
        elif len(alive) < len(adds):
            self._adds[element] = alive

    # -- queries: lookups, by the module invariant ---------------------------------

    def value(self) -> set:
        return set(self._adds)

    def __contains__(self, element: Hashable) -> bool:
        return element in self._adds

    def __len__(self) -> int:
        return len(self._adds)

    def elements_matching(self, pattern: Pattern) -> set:
        return {e for e in self._adds if pattern.matches(e)}

    # -- maintenance ---------------------------------------------------------------

    def clone(self) -> "RWSet":
        copied = RWSet()
        # Event contexts (and their vectors) are immutable once applied;
        # only the containers and the merged remove vectors are mutable.
        copied._adds = {
            element: list(contexts)
            for element, contexts in self._adds.items()
        }
        copied._removes = {
            element: vv.copy() for element, vv in self._removes.items()
        }
        copied._pattern_tombstones = {
            pattern: vv.copy()
            for pattern, vv in self._pattern_tombstones.items()
        }
        return copied

    def compact(self, stable: VersionVector) -> None:
        """Drop causally-stable tombstones, pattern and targeted alike.

        A tombstone whose vector is dominated by the stable vector has
        been delivered everywhere; no future add can be concurrent with
        it, so its effect is fully captured by the adds it already
        dropped.  Covers only shrink here, so every stored add still
        dominates its cover.  Most calls find nothing stable and leave
        both dicts untouched.
        """
        for tombstones in (self._pattern_tombstones, self._removes):
            stale = [
                key for key, vv in tombstones.items() if stable.dominates(vv)
            ]
            for key in stale:
                del tombstones[key]
