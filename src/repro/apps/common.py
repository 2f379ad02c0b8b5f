"""Shared pieces of the evaluation applications."""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable

from repro.store.cluster import Cluster


class Variant(enum.Enum):
    """Which version of an application runs."""

    #: The unmodified application over causal consistency; conflicting
    #: concurrent operations can violate invariants.
    CAUSAL = "causal"
    #: The IPA-modified application: extra effects/compensations, same
    #: causal store.
    IPA = "ipa"
    #: Twitter-only strategy variants (§5.2.3).
    ADD_WINS = "add-wins"
    REM_WINS = "rem-wins"


@dataclass
class AppHarness:
    """Base for application drivers bound to one cluster."""

    cluster: Cluster
    variant: Variant = Variant.IPA

    @property
    def sim(self):
        return self.cluster.sim
