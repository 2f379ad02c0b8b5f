"""The Ticket application (FusionTicket-style, §5.1.2, Figure 7).

The main invariant: events must not be oversold.  The violation cannot
be prevented eagerly with acceptable semantics (§3.4), so the IPA
variant uses the Compensation Set CRDT: each event's sold-tickets set
carries its capacity bound, and any read that observes an oversold
state cancels the excess tickets deterministically and reimburses the
buyers.  The CAUSAL variant sells on a plain add-wins set, so the bench
can count the invariant violations the paper plots as red dots.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.crdts import AWSet, CompensationSet, PNCounter
from repro.spec import ApplicationSpec, SpecBuilder
from repro.store.registry import TypeRegistry
from repro.store.transaction import Transaction

from repro.apps.common import AppHarness, Variant

WRITE_OPS = ("buy_ticket", "create_event")
READ_OPS = ("view_event",)
DEFAULT_CAPACITY = 10


def ticket_spec(capacity: int = DEFAULT_CAPACITY) -> ApplicationSpec:
    b = SpecBuilder("ticket")
    b.predicate("event", "Event")
    b.predicate("sold", "Ticket", "Event")
    b.parameter("EventCapacity", capacity)
    b.invariant(
        "forall(Ticket: k, Event: e) :- sold(k, e) => event(e)"
    )
    b.invariant(
        "forall(Event: e) :- #sold(*, e) <= EventCapacity"
    )
    b.invariant("true", name="unique-ticket-ids", category="unique-id")
    b.operation("create_event", "Event: e", true=["event(e)"])
    b.operation(
        "buy_ticket", "Ticket: k, Event: e", true=["sold(k, e)"]
    )
    b.operation(
        "return_ticket", "Ticket: k, Event: e", false=["sold(k, e)"]
    )
    return b.build()


def ticket_registry(
    variant: Variant, capacity: int = DEFAULT_CAPACITY
) -> TypeRegistry:
    registry = TypeRegistry()
    registry.register("events", AWSet)
    registry.register("reimbursements", PNCounter)
    if variant is Variant.IPA:
        registry.register_prefix(
            "sold:", lambda: CompensationSet(max_size=capacity)
        )
    else:
        registry.register_prefix("sold:", AWSet)
    return registry


@dataclass
class TicketApp(AppHarness):
    """Operation layer of the Ticket application."""

    capacity: int = DEFAULT_CAPACITY

    def setup(self, events: list[str], region: str) -> None:
        def body(txn: Transaction) -> str:
            for event in events:
                txn.update("events", lambda s, e=event: s.prepare_add(e))
            return "setup"

        self.cluster.submit(region, body, lambda _op: None)
        self.cluster.settle()

    # -- operations ------------------------------------------------------------

    def create_event(self, region, event, done) -> None:
        def body(txn: Transaction) -> str:
            txn.update("events", lambda s: s.prepare_add(event))
            return "create_event"

        self.cluster.submit(region, body, done)

    def buy_ticket(self, region, ticket_id, event, done) -> None:
        """Sell one ticket (the contended operation of Figure 7)."""

        def body(txn: Transaction) -> str:
            if event not in txn.get("events"):
                # Sequential precondition: no sale without an event.
                return "buy_rejected"
            sold = txn.get(f"sold:{event}")
            if self.variant is Variant.IPA:
                outcome = sold.read()
                # Origin-side precondition: locally sold out -> refuse.
                if len(outcome.visible) >= self.capacity:
                    return "buy_rejected"
                txn.update(
                    f"sold:{event}", lambda s: s.prepare_add(ticket_id)
                )
                self._commit_compensation(txn, event, outcome)
            else:
                if len(sold.value()) >= self.capacity:
                    return "buy_rejected"
                txn.update(
                    f"sold:{event}", lambda s: s.prepare_add(ticket_id)
                )
            return "buy_ticket"

        self.cluster.submit(region, body, done)

    def view_event(self, region, event, done) -> None:
        """Read an event's sales; in IPA mode this repairs oversells."""

        def body(txn: Transaction) -> str:
            sold = txn.get(f"sold:{event}")
            if self.variant is Variant.IPA:
                outcome = sold.read()
                self._commit_compensation(txn, event, outcome)
            else:
                sold.value()
            return "view_event"

        self.cluster.submit(region, body, done, is_update=False)

    def _commit_compensation(self, txn: Transaction, event, outcome) -> None:
        if outcome.compensation is None:
            return
        txn.add_prepared(f"sold:{event}", outcome.compensation)
        # Reimburse the cancelled buyers.  The money transfer "crosses
        # the boundaries of the system" (§5.1.2): modelled as a counter
        # the external payment processor drains.
        txn.update(
            "reimbursements",
            lambda c: c.prepare_add(len(outcome.victims)),
        )

    # -- audit -------------------------------------------------------------------

    def count_violations(self, region: str) -> int:
        """Events oversold in the replica's *observed* state.

        For the IPA variant the observed state is the compensated view
        -- always within bounds, which is the paper's point ("any
        observed state is consistent"); the Causal variant has no
        compensation, so its raw oversells are what users see.
        """
        replica = self.cluster.replica(region)
        violations = 0
        for key in replica.keys():
            if not key.startswith("sold:"):
                continue
            if len(replica.get_object(key).value()) > self.capacity:
                violations += 1
        return violations

    def count_raw_oversells(self, region: str) -> int:
        """Oversold events in the raw (pre-compensation) state."""
        replica = self.cluster.replica(region)
        count = 0
        for key in replica.keys():
            if not key.startswith("sold:"):
                continue
            obj = replica.get_object(key)
            raw = (
                obj.raw_value()
                if isinstance(obj, CompensationSet)
                else obj.value()
            )
            if len(raw) > self.capacity:
                count += 1
        return count

    def reimbursements(self, region: str) -> int:
        return self.cluster.replica(region).get_object(
            "reimbursements"
        ).value()
