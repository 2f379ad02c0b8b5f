"""Deterministic fault injection for the simulated network.

The paper's claim -- IPA-modified applications preserve their
invariants on *any* causally consistent store -- is only interesting
when the store actually misbehaves.  This module supplies the
misbehaviour: a :class:`FaultPlan` describes message drops,
duplication, reordering (a per-message FIFO override), scheduled
bidirectional partitions and replica crash/restart windows; a
:class:`FaultInjector` executes the plan with a dedicated seeded RNG so
a chaos run is bit-for-bit reproducible given the same seed.

Faults apply to *inter-region* messages only: a client and its
co-located server share a rack, and modelling their link as lossy
would only test the client retry loop, not replication.  Crash windows
are interpreted by the cluster (a crashed replica loses its volatile
state and recovers by replaying its durable commit log, see
:mod:`repro.store.antientropy`); the injector merely answers
"is this region down at time t".
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.errors import SimulationError


@dataclass(frozen=True)
class PartitionWindow:
    """A bidirectional partition between two region groups.

    Messages between ``side_a`` and ``side_b`` are dropped while
    ``start_ms <= now < end_ms``; traffic within a side is unaffected.
    """

    start_ms: float
    end_ms: float
    side_a: tuple[str, ...]
    side_b: tuple[str, ...]

    def __post_init__(self) -> None:
        if self.end_ms <= self.start_ms:
            raise SimulationError(
                f"partition heals before it starts: {self}"
            )
        if set(self.side_a) & set(self.side_b):
            raise SimulationError(f"region on both sides: {self}")


@dataclass(frozen=True)
class CrashWindow:
    """One replica is down (volatile state lost) during a window."""

    region: str
    start_ms: float
    end_ms: float

    def __post_init__(self) -> None:
        if self.end_ms <= self.start_ms:
            raise SimulationError(f"crash recovers before it starts: {self}")

    def covers(self, region: str, now: float) -> bool:
        return region == self.region and self.start_ms <= now < self.end_ms


@dataclass(frozen=True)
class FaultPlan:
    """Everything that may go wrong during one run, seeded.

    Probabilities are per inter-region message: ``drop`` loses it,
    ``duplicate`` schedules a second delayed copy, ``reorder`` exempts
    it from the per-edge FIFO clamp and adds up to
    ``reorder_delay_ms`` of extra latency so it can overtake or lag its
    neighbours.
    """

    seed: int = 0
    drop: float = 0.0
    duplicate: float = 0.0
    reorder: float = 0.0
    reorder_delay_ms: float = 80.0
    duplicate_delay_ms: float = 40.0
    partitions: tuple[PartitionWindow, ...] = ()
    crashes: tuple[CrashWindow, ...] = ()

    def __post_init__(self) -> None:
        for name in ("drop", "duplicate", "reorder"):
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise SimulationError(f"{name} probability {p} not in [0, 1]")

    # -- JSON round-trip (repro files, ``repro check --replay``) -------------

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "drop": self.drop,
            "duplicate": self.duplicate,
            "reorder": self.reorder,
            "reorder_delay_ms": self.reorder_delay_ms,
            "duplicate_delay_ms": self.duplicate_delay_ms,
            "partitions": [
                {
                    "start_ms": w.start_ms,
                    "end_ms": w.end_ms,
                    "side_a": list(w.side_a),
                    "side_b": list(w.side_b),
                }
                for w in self.partitions
            ],
            "crashes": [
                {
                    "region": w.region,
                    "start_ms": w.start_ms,
                    "end_ms": w.end_ms,
                }
                for w in self.crashes
            ],
        }

    @classmethod
    def from_dict(cls, data: dict) -> FaultPlan:
        return cls(
            seed=data.get("seed", 0),
            drop=data.get("drop", 0.0),
            duplicate=data.get("duplicate", 0.0),
            reorder=data.get("reorder", 0.0),
            reorder_delay_ms=data.get("reorder_delay_ms", 80.0),
            duplicate_delay_ms=data.get("duplicate_delay_ms", 40.0),
            partitions=tuple(
                PartitionWindow(
                    w["start_ms"],
                    w["end_ms"],
                    tuple(w["side_a"]),
                    tuple(w["side_b"]),
                )
                for w in data.get("partitions", ())
            ),
            crashes=tuple(
                CrashWindow(w["region"], w["start_ms"], w["end_ms"])
                for w in data.get("crashes", ())
            ),
        )


@dataclass(frozen=True)
class Delivery:
    """The injector's verdict for one message.

    ``copies`` holds one ``(extra_delay_ms, fifo)`` entry per scheduled
    delivery (empty when dropped); ``fifo=False`` means the copy skips
    the per-edge FIFO clamp (reordering / duplicate copies).
    """

    copies: tuple[tuple[float, bool], ...]
    partitioned: bool = False

    @property
    def dropped(self) -> bool:
        return not self.copies


#: The verdict for a message on a fault-free network.
CLEAN = Delivery(copies=((0.0, True),))


class FaultInjector:
    """Executes a :class:`FaultPlan` with its own deterministic RNG.

    One RNG draw sequence per injector: given the same plan (seed
    included) and the same sequence of ``on_send`` calls -- which the
    deterministic simulator guarantees -- every verdict is identical
    across runs and Python versions.
    """

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        self._rng = random.Random(plan.seed)
        self.dropped = 0
        self.duplicated = 0
        self.reordered = 0
        self.partition_drops = 0
        # Fast-path flags: a plan with no partitions / no message-level
        # probabilities answers ``on_send`` without scanning windows or
        # touching the RNG.  Both are plan constants, so skipping draws
        # keeps the verdict stream deterministic for a given plan.
        # One (start, end, blocked directed edges) row per partition
        # window: the per-message partition test is an interval check
        # and a set lookup.
        self._blocked = [
            (
                w.start_ms,
                w.end_ms,
                frozenset(
                    edge
                    for a in w.side_a
                    for b in w.side_b
                    for edge in ((a, b), (b, a))
                ),
            )
            for w in plan.partitions
        ]
        self._passive = not (plan.drop or plan.duplicate or plan.reorder)

    # -- queries the cluster/network make ------------------------------------

    def partitioned(self, source: str, target: str, now: float) -> bool:
        for start, end, edges in self._blocked:
            if start <= now < end and (source, target) in edges:
                return True
        return False

    def crashed(self, region: str, now: float) -> bool:
        return any(w.covers(region, now) for w in self.plan.crashes)

    # -- the per-message verdict ---------------------------------------------

    def on_send(self, source: str, target: str, now: float) -> Delivery:
        """Decide the fate of one inter-region message at send time."""
        if source == target:
            return CLEAN
        if self._blocked and self.partitioned(source, target, now):
            self.partition_drops += 1
            self.dropped += 1
            return Delivery(copies=(), partitioned=True)
        if self._passive:
            return CLEAN
        rng = self._rng
        # Draw every fault in a fixed order so the RNG stream stays
        # aligned across runs regardless of which faults fire.
        drop = rng.random() < self.plan.drop
        duplicate = rng.random() < self.plan.duplicate
        reorder = rng.random() < self.plan.reorder
        reorder_extra = rng.uniform(0.0, self.plan.reorder_delay_ms)
        duplicate_extra = rng.uniform(0.0, self.plan.duplicate_delay_ms)
        if drop:
            self.dropped += 1
            return Delivery(copies=())
        if not (reorder or duplicate):
            # No fault fired: the shared verdict keeps ``Network.send``
            # on its fast path.
            return CLEAN
        copies: list[tuple[float, bool]] = []
        if reorder:
            self.reordered += 1
            copies.append((reorder_extra, False))
        else:
            copies.append((0.0, True))
        if duplicate:
            self.duplicated += 1
            copies.append((duplicate_extra, False))
        return Delivery(copies=tuple(copies))
