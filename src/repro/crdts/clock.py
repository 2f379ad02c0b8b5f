"""Version vectors: the causality metadata under every CRDT here.

This type sits on the replication hot path -- every commit, every
causal-delivery check and every CRDT concurrency judgement goes through
it -- so the comparison methods are written as early-exit loops over
the raw entry dicts (no per-entry method calls) and instances carry
``__slots__`` via ``dataclass(slots=True)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, Mapping


@dataclass(slots=True)
class VersionVector:
    """A mapping replica-id -> events-seen counter.

    Missing entries are zero.  Instances are mutable; use :meth:`copy`
    before stashing one in a payload.
    """

    entries: dict[str, int] = field(default_factory=dict)

    def get(self, replica: str) -> int:
        return self.entries.get(replica, 0)

    def increment(self, replica: str) -> int:
        """Advance ``replica``'s component; returns the new counter."""
        value = self.entries.get(replica, 0) + 1
        self.entries[replica] = value
        return value

    def merge(self, other: "VersionVector") -> None:
        """Pointwise maximum, in place."""
        mine = self.entries
        for replica, counter in other.entries.items():
            if counter > mine.get(replica, 0):
                mine[replica] = counter

    def merged(self, other: "VersionVector") -> "VersionVector":
        result = self.copy()
        result.merge(other)
        return result

    def apply_delta(self, delta: Iterable[tuple[str, int]]) -> None:
        """Pointwise maximum against ``(replica, counter)`` pairs.

        The delta-dependency decoding path: commit records ship only
        the vector entries that changed since the origin's previous
        commit, and receivers fold them in with this method.
        """
        mine = self.entries
        for replica, counter in delta:
            if counter > mine.get(replica, 0):
                mine[replica] = counter

    def dominates(self, other: "VersionVector") -> bool:
        """``self >= other`` pointwise."""
        mine = self.entries
        theirs = other.entries
        if mine is theirs:
            return True
        get = mine.get
        for replica, counter in theirs.items():
            if counter > get(replica, 0):
                return False
        return True

    def dominates_items(self, items: Iterable[tuple[str, int]]) -> bool:
        """``self >= {items}`` pointwise -- O(len(items)).

        Used by the causal-delivery check on delta-encoded records: the
        unchanged entries are covered by the per-origin FIFO condition,
        so only the shipped (changed) entries need comparing.
        """
        get = self.entries.get
        for replica, counter in items:
            if counter > get(replica, 0):
                return False
        return True

    def strictly_dominates(self, other: "VersionVector") -> bool:
        return self.dominates(other) and self != other

    def concurrent(self, other: "VersionVector") -> bool:
        return not self.dominates(other) and not other.dominates(self)

    def contains_dot(self, replica: str, counter: int) -> bool:
        """Has the event ``(replica, counter)`` been seen?"""
        return self.entries.get(replica, 0) >= counter

    def copy(self) -> "VersionVector":
        return VersionVector(dict(self.entries))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, VersionVector):
            return NotImplemented
        return self._normalised() == other._normalised()

    def _normalised(self) -> dict[str, int]:
        return {r: c for r, c in self.entries.items() if c}

    def __iter__(self) -> Iterator[tuple[str, int]]:
        return iter(self.entries.items())

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        inner = ", ".join(
            f"{replica}:{counter}"
            for replica, counter in sorted(self.entries.items())
        )
        return f"VV({inner})"

    @classmethod
    def of(cls, entries: Mapping[str, int]) -> "VersionVector":
        return cls(dict(entries))

