"""Geo latency model matching the paper's deployment (§5.2.1).

Three regions with mean round-trip times of ~80 ms between US-EAST and
each of the others and ~160 ms between US-WEST and EU-WEST.  One-way
latency is half the RTT, with configurable multiplicative jitter drawn
from a seeded RNG so runs are reproducible.  Clients are co-located
with their region's server (sub-millisecond RTT).
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.errors import SimulationError

US_EAST = "us-east"
US_WEST = "us-west"
EU_WEST = "eu-west"

REGIONS = (US_EAST, US_WEST, EU_WEST)

#: Mean round-trip times in milliseconds, as reported in the paper.
DEFAULT_RTT = {
    frozenset((US_EAST, US_WEST)): 80.0,
    frozenset((US_EAST, EU_WEST)): 80.0,
    frozenset((US_WEST, EU_WEST)): 160.0,
}

#: RTT between a client and its co-located server.
LOCAL_RTT = 0.6

#: :func:`synthetic_topology` draws its extra region pairs' RTTs from a
#: ``SYNTHETIC_SEED``-seeded RNG, in ``SYNTHETIC_RTT_MS +/-
#: SYNTHETIC_SPREAD_MS / 2``.
SYNTHETIC_SEED = 11
SYNTHETIC_RTT_MS = 110.0
SYNTHETIC_SPREAD_MS = 80.0


def synthetic_topology(n_regions: int) -> tuple[tuple[str, ...], dict[frozenset, float]]:
    """A deterministic ``n``-region topology extending the paper's three.

    The first three regions keep their measured RTTs; additional
    regions are named ``region-<i>`` and every new pair gets a seeded
    RTT (see ``SYNTHETIC_RTT_MS``).  Used by the scale benchmarks to
    run the tournament at 5 and 8 regions.
    """
    if n_regions < 1:
        raise SimulationError(f"need at least one region, got {n_regions}")
    names = list(REGIONS[:n_regions])
    for index in range(len(names), n_regions):
        names.append(f"region-{index}")
    rng = random.Random(SYNTHETIC_SEED)
    rtt: dict[frozenset, float] = {}
    for i in range(n_regions):
        for j in range(i + 1, n_regions):
            key = frozenset((names[i], names[j]))
            known = DEFAULT_RTT.get(key)
            if known is not None:
                rtt[key] = known
            else:
                rtt[key] = SYNTHETIC_RTT_MS + rng.uniform(
                    -SYNTHETIC_SPREAD_MS / 2.0, SYNTHETIC_SPREAD_MS / 2.0
                )
    return tuple(names), rtt


@dataclass
class GeoLatencyModel:
    """One-way latency samples over the 3-region topology."""

    rtt: dict[frozenset, float] | None = None
    jitter: float = 0.05
    seed: int = 7

    def __post_init__(self) -> None:
        if self.rtt is None:
            self.rtt = dict(DEFAULT_RTT)
        self._rng = random.Random(self.seed)
        # (a, b) -> one-way mean, filled on first use.  ``one_way`` runs
        # once per simulated message, so avoid rebuilding a frozenset
        # key and halving the RTT every call.
        self._one_way_mean: dict[tuple[str, str], float] = {}

    def rtt_between(self, a: str, b: str) -> float:
        """Mean round-trip time between two regions."""
        if a == b:
            return LOCAL_RTT
        key = frozenset((a, b))
        try:
            return self.rtt[key]
        except KeyError:
            raise SimulationError(f"no RTT configured for {a} <-> {b}") from None

    def one_way(self, a: str, b: str) -> float:
        """A jittered one-way latency sample."""
        mean = self._one_way_mean.get((a, b))
        if mean is None:
            mean = self.rtt_between(a, b) / 2.0
            self._one_way_mean[(a, b)] = mean
        if self.jitter <= 0:
            return mean
        factor = max(0.0, self._rng.gauss(1.0, self.jitter))
        return mean * factor
