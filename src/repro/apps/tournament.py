"""The Tournament application (Figure 1, §5.2.2).

Players enrol in tournaments; tournaments open, run matches, finish and
may be removed.  The specification carries the six invariants of
Figure 1; the IPA variant applies the repairs the analysis proposes
(run ``examples/tournament_analysis.py`` to re-derive them live):

- ``enroll``      += touch ``tournament(t)``             (add-wins)
- ``do_match``    += touch ``enrolled(p,t)``/``enrolled(q,t)``
  plus touch ``tournament(t)`` (the Figure 3 ``ensureDoMatch``)
- ``finish_tourn``+= touch ``tournament(t)``             (Figure 3 ``ensureEnd``)
- ``rem_tourn``   += clear ``enrolled(*,t)``, ``active(t)``,
  ``finished(t)``, ``inMatch(*,*,t)`` with rem-wins tombstones
- the capacity bound becomes a Compensation Set trim.

State layout (one CRDT per predicate, as §4.1 describes):
``players``/``tournaments`` entity sets, ``enrolled`` pair set,
``active``/``finished`` status sets, ``inMatch`` triple set.

Every operation checks its *sequential precondition* against the local
replica state and refuses when it fails (the paper's baseline: the
application is correct under serialisability).  The IPA variant skips
the guards its extra effects make redundant -- ``rem_tourn``'s rem-wins
cascade, for example, is the sequential cleanup and the concurrent
repair at once.  Under causal consistency the guards only see the local
replica, so concurrent gaps remain -- which is exactly what the
``repro check`` explorer hunts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.crdts import AWSet, CompensationSet, Pattern, RWSet
from repro.spec import ApplicationSpec, SpecBuilder
from repro.store.cluster import Cluster
from repro.store.registry import TypeRegistry
from repro.store.transaction import Transaction

from repro.apps.common import AppHarness, Variant

#: Operations shown individually in Figure 5.
WRITE_OPS = (
    "begin", "finish", "remove", "do_match", "enroll", "disenroll",
)
READ_OPS = ("status",)
DEFAULT_CAPACITY = 8


def tournament_spec(capacity: int = DEFAULT_CAPACITY) -> ApplicationSpec:
    """The annotated specification of Figure 1."""
    b = SpecBuilder("tournament")
    b.predicate("player", "Player")
    b.predicate("tournament", "Tournament")
    b.predicate("enrolled", "Player", "Tournament")
    b.predicate("active", "Tournament")
    b.predicate("finished", "Tournament")
    b.predicate("inMatch", "Player", "Player", "Tournament")
    b.parameter("Capacity", capacity)
    b.invariant(
        "forall(Player: p, Tournament: t) :- "
        "enrolled(p, t) => player(p) and tournament(t)"
    )
    b.invariant(
        "forall(Player: p, q, Tournament: t) :- inMatch(p, q, t) => "
        "enrolled(p, t) and enrolled(q, t) and (active(t) or finished(t))"
    )
    b.invariant("forall(Tournament: t) :- #enrolled(*, t) <= Capacity")
    b.invariant("forall(Tournament: t) :- active(t) => tournament(t)")
    b.invariant("forall(Tournament: t) :- finished(t) => tournament(t)")
    b.invariant("forall(Tournament: t) :- not (active(t) and finished(t))")
    # Identifier discipline (not expressible in the FOL fragment; the
    # runtime uses partitioned unique ids -- Table 1's "Unique id" row).
    b.invariant("true", name="unique-player-ids", category="unique-id")
    # The per-tournament capacity index must (eventually) mirror the
    # enrolled relation -- an aggregation-inclusion property maintained
    # by construction: both collections are updated by the same
    # operations (I-Confluent; Table 1's "Aggreg. incl." row).
    b.invariant(
        "true",
        name="capacity-index-inclusion",
        category="aggregation-inclusion",
    )
    b.operation("add_player", "Player: p", true=["player(p)"])
    b.operation("add_tourn", "Tournament: t", true=["tournament(t)"])
    b.operation("rem_tourn", "Tournament: t", false=["tournament(t)"])
    b.operation(
        "enroll", "Player: p, Tournament: t", true=["enrolled(p, t)"]
    )
    b.operation(
        "disenroll", "Player: p, Tournament: t", false=["enrolled(p, t)"]
    )
    b.operation("begin_tourn", "Tournament: t", true=["active(t)"])
    b.operation(
        "finish_tourn", "Tournament: t",
        true=["finished(t)"], false=["active(t)"],
    )
    b.operation(
        "do_match", "Player: p, Player: q, Tournament: t",
        true=["inMatch(p, q, t)"],
    )
    return b.build()


def tournament_registry(
    variant: Variant, capacity: int = DEFAULT_CAPACITY
) -> TypeRegistry:
    """CRDT choices per predicate, per variant.

    The IPA variant installs the convergence rules the analysis chose:
    ``tournaments`` stays add-wins (so touches restore it), while
    ``enrolled``/``active``/``finished``/``inMatch`` become rem-wins so
    ``rem_tourn``'s wildcard clears win; the capacity bound rides on a
    Compensation Set per tournament.
    """
    registry = TypeRegistry()
    registry.register("players", AWSet)
    registry.register("tournaments", AWSet)
    if variant is Variant.IPA:
        registry.register("enrolled", RWSet)
        registry.register("active", RWSet)
        registry.register("finished", RWSet)
        registry.register("inMatch", RWSet)
        registry.register_prefix(
            "capacity:", lambda: CompensationSet(max_size=capacity)
        )
    else:
        registry.register("enrolled", AWSet)
        registry.register("active", AWSet)
        registry.register("finished", AWSet)
        registry.register("inMatch", AWSet)
        registry.register_prefix("capacity:", AWSet)
    return registry


def _causal_status_body(txn: Transaction) -> str:
    txn.get("tournaments")
    txn.get("enrolled")
    txn.get("active")
    return "status"


@dataclass
class TournamentApp(AppHarness):
    """Operation layer of the Tournament application."""

    capacity: int = DEFAULT_CAPACITY

    # -- population -----------------------------------------------------------

    def setup(
        self, players: list[str], tournaments: list[str], region: str
    ) -> None:
        """Synchronously seed entities (run before measurement)."""

        def body(txn: Transaction) -> str:
            for player in players:
                txn.update("players", lambda s, p=player: s.prepare_add(p))
            for tournament in tournaments:
                txn.update(
                    "tournaments",
                    lambda s, t=tournament: s.prepare_add(t),
                )
            return "setup"

        self.cluster.submit(region, body, lambda _op: None)
        self.cluster.settle()

    # -- operations ------------------------------------------------------------

    def add_player(self, region, p, done) -> None:
        def body(txn: Transaction) -> str:
            txn.update("players", lambda s: s.prepare_add(p))
            return "add_player"

        self.cluster.submit(region, body, done)

    def add_tourn(self, region, t, done) -> None:
        def body(txn: Transaction) -> str:
            txn.update("tournaments", lambda s: s.prepare_add(t))
            return "add_tourn"

        self.cluster.submit(region, body, done)

    def _capacity_used(self, txn: Transaction, t) -> int:
        """Locally visible enrolment count of ``t`` (compensated view)."""
        obj = txn.get(f"capacity:{t}")
        if isinstance(obj, CompensationSet):
            return len(obj.read().visible)
        return len(obj.value())

    def enroll(self, region, p, t, done) -> None:
        def body(txn: Transaction) -> str:
            if (
                t not in txn.get("tournaments")
                or p not in txn.get("players")
                or self._capacity_used(txn, t) >= self.capacity
            ):
                return "enroll"
            txn.update("enrolled", lambda s: s.prepare_add((p, t)))
            txn.update(f"capacity:{t}", lambda s: s.prepare_add(p))
            if self.variant is Variant.IPA:
                # Restore the referenced entities (Figure 2b).
                txn.update("tournaments", lambda s: s.prepare_touch(t))
                txn.update("players", lambda s: s.prepare_touch(p))
                self._apply_capacity_compensation(txn, t)
            return "enroll"

        self.cluster.submit(
            region, body, done, reservations=(f"tourn:{t}",)
        )

    def disenroll(self, region, p, t, done) -> None:
        def body(txn: Transaction) -> str:
            if self.variant is not Variant.IPA and any(
                t == mt and p in (a, b)
                for a, b, mt in txn.get("inMatch").value()
            ):
                # Sequentially, dropping an enrolment under a standing
                # match breaks invariant 2; the IPA variant clears the
                # matches itself below.
                return "disenroll"
            txn.update("enrolled", lambda s: s.prepare_remove((p, t)))
            txn.update(f"capacity:{t}", lambda s: s.prepare_remove(p))
            if self.variant is Variant.IPA:
                # Clear the matches that referenced the enrolment.
                txn.update(
                    "inMatch",
                    lambda s: s.prepare_remove_where(Pattern.of(p, "*", t)),
                )
                txn.update(
                    "inMatch",
                    lambda s: s.prepare_remove_where(Pattern.of("*", p, t)),
                )
            return "disenroll"

        self.cluster.submit(
            region, body, done, reservations=(f"tourn:{t}",)
        )

    def rem_tourn(self, region, t, done) -> None:
        def body(txn: Transaction) -> str:
            if self.variant is not Variant.IPA and (
                any(t == mt for _p, mt in txn.get("enrolled").value())
                or t in txn.get("active")
                or t in txn.get("finished")
            ):
                # A referenced tournament cannot be removed without the
                # IPA cascade that clears the references with it.
                return "remove"
            txn.update("tournaments", lambda s: s.prepare_remove(t))
            if self.variant is Variant.IPA:
                # Figure 2c: nothing may keep referencing t.
                txn.update(
                    "enrolled",
                    lambda s: s.prepare_remove_where(Pattern.of("*", t)),
                )
                txn.update(
                    "inMatch",
                    lambda s: s.prepare_remove_where(
                        Pattern.of("*", "*", t)
                    ),
                )
                txn.update("active", lambda s: s.prepare_remove(t))
                txn.update("finished", lambda s: s.prepare_remove(t))
            return "remove"

        self.cluster.submit(
            region, body, done, reservations=(f"tourn:{t}",)
        )

    def begin_tourn(self, region, t, done) -> None:
        def body(txn: Transaction) -> str:
            if self.variant is not Variant.IPA and (
                t not in txn.get("tournaments")
                or t in txn.get("finished")
            ):
                # The IPA variant restores the tournament and retracts
                # ``finished`` itself; without those effects, beginning
                # a missing or finished tournament is a sequential bug.
                return "begin"
            txn.update("active", lambda s: s.prepare_add(t))
            if self.variant is Variant.IPA:
                # Figure 3 ensureBegin: restore the tournament.
                txn.update("tournaments", lambda s: s.prepare_touch(t))
                txn.update("finished", lambda s: s.prepare_remove(t))
            return "begin"

        self.cluster.submit(
            region, body, done, reservations=(f"tourn:{t}",)
        )

    def finish_tourn(self, region, t, done) -> None:
        def body(txn: Transaction) -> str:
            if (
                self.variant is not Variant.IPA
                and t not in txn.get("active")
            ):
                return "finish"
            txn.update("finished", lambda s: s.prepare_add(t))
            txn.update("active", lambda s: s.prepare_remove(t))
            if self.variant is Variant.IPA:
                # Figure 3 ensureEnd: restore the tournament.
                txn.update("tournaments", lambda s: s.prepare_touch(t))
            return "finish"

        self.cluster.submit(
            region, body, done, reservations=(f"tourn:{t}",)
        )

    def do_match(self, region, p, q, t, done) -> None:
        def body(txn: Transaction) -> str:
            enrolled = txn.get("enrolled")
            if (
                p == q
                or (p, t) not in enrolled
                or (q, t) not in enrolled
                or t not in txn.get("active")
            ):
                # Guarded in every variant: the IPA touches restore the
                # enrolments but nothing restores ``active(t)``, so a
                # match in a never-begun tournament stays a bug.
                return "do_match"
            txn.update("inMatch", lambda s: s.prepare_add((p, q, t)))
            if self.variant is Variant.IPA:
                # Figure 3 ensureDoMatch: restore both enrolments (and
                # transitively the entities they reference).
                txn.update("enrolled", lambda s: s.prepare_touch((p, t)))
                txn.update("enrolled", lambda s: s.prepare_touch((q, t)))
                txn.update("tournaments", lambda s: s.prepare_touch(t))
                txn.update("players", lambda s: s.prepare_touch(p))
                txn.update("players", lambda s: s.prepare_touch(q))
            return "do_match"

        self.cluster.submit(
            region, body, done, reservations=(f"tourn:{t}",)
        )

    def status(self, region, t, done) -> None:
        if self.variant is not Variant.IPA:
            # The causal-variant status body is stateless (fixed keys,
            # no compensation), so one shared function serves every
            # call of the workload's most frequent operation.
            self.cluster.submit(
                region, _causal_status_body, done, is_update=False
            )
            return

        def body(txn: Transaction) -> str:
            txn.get("tournaments")
            txn.get("enrolled")
            txn.get("active")
            self._apply_capacity_compensation(txn, t)
            return "status"

        self.cluster.submit(region, body, done, is_update=False)

    def _apply_capacity_compensation(self, txn: Transaction, t) -> None:
        """Read the capacity set through its compensation loop."""
        obj = txn.get(f"capacity:{t}")
        if isinstance(obj, CompensationSet):
            outcome = obj.read()
            if outcome.compensation is not None:
                txn.add_prepared(f"capacity:{t}", outcome.compensation)
                for victim in outcome.victims:
                    txn.update(
                        "enrolled",
                        lambda s, v=victim: s.prepare_remove((v, t)),
                    )
                    # The trim cascades like a disenrolment: matches of
                    # a trimmed player would dangle otherwise.
                    txn.update(
                        "inMatch",
                        lambda s, v=victim: s.prepare_remove_where(
                            Pattern.of(v, "*", t)
                        ),
                    )
                    txn.update(
                        "inMatch",
                        lambda s, v=victim: s.prepare_remove_where(
                            Pattern.of("*", v, t)
                        ),
                    )

    # -- invariant audit ----------------------------------------------------------

    def count_violations(self, region: str) -> int:
        """Violated invariant instances at one replica (Figure 7 metric)."""
        replica = self.cluster.replica(region)
        players = replica.get_object("players").value()
        tournaments = replica.get_object("tournaments").value()
        enrolled = replica.get_object("enrolled").value()
        active = replica.get_object("active").value()
        finished = replica.get_object("finished").value()
        in_match = replica.get_object("inMatch").value()
        violations = 0
        for p, t in enrolled:
            if p not in players or t not in tournaments:
                violations += 1
        for p, q, t in in_match:
            if (p, t) not in enrolled or (q, t) not in enrolled:
                violations += 1
            if t not in active and t not in finished:
                violations += 1
        per_tournament: dict[str, int] = {}
        for _p, t in enrolled:
            per_tournament[t] = per_tournament.get(t, 0) + 1
        for t, count in per_tournament.items():
            if count > self.capacity:
                violations += 1
        for t in active:
            if t not in tournaments:
                violations += 1
            if t in finished:
                violations += 1
        for t in finished:
            if t not in tournaments:
                violations += 1
        return violations
