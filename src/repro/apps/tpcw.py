"""A TPC-W/TPC-C-flavoured storefront (§5.1.2).

The standard benchmarks are extended -- as the paper does -- with
product-listing management operations, which introduce referential
integrity between orders and products; stock is the canonical numeric
invariant (``stock(i) >= 0``), repaired with the restock compensation
the TPC specification itself prescribes (new order with insufficient
stock triggers a delivery of fresh units).  Sequential order
identifiers are replaced with partitioned unique ids (Table 1's
recommendation).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.crdts import AWSet, CompensatedCounter, PNCounter, RWSet
from repro.spec import ApplicationSpec, SpecBuilder
from repro.store.registry import TypeRegistry
from repro.store.transaction import Transaction

from repro.apps.common import AppHarness, Variant

WRITE_OPS = ("new_order", "add_product", "rem_product", "restock")
READ_OPS = ("browse",)
DEFAULT_RESTOCK_LEVEL = 20


def tpcw_spec() -> ApplicationSpec:
    b = SpecBuilder("tpcw")
    b.predicate("product", "Product")
    b.predicate("order", "Order")
    b.predicate("orderOf", "Order", "Product")
    b.predicate("stock", "Product", numeric=True)
    b.invariant(
        "forall(Order: o, Product: i) :- orderOf(o, i) => "
        "order(o) and product(i)"
    )
    b.invariant("forall(Product: i) :- stock(i) >= 0")
    b.invariant("true", name="unique-order-ids", category="unique-id")
    b.invariant(
        "true", name="sequential-order-ids", category="sequential-id"
    )
    b.operation("add_product", "Product: i", true=["product(i)"])
    b.operation("rem_product", "Product: i", false=["product(i)"])
    b.operation(
        "new_order", "Order: o, Product: i",
        true=["order(o)", "orderOf(o, i)"], decr=["stock(i)"],
    )
    b.operation("restock", "Product: i", incr=["stock(i) 10"])
    return b.build()


def tpcw_registry(
    variant: Variant, level: int = DEFAULT_RESTOCK_LEVEL
) -> TypeRegistry:
    """CRDT choices per predicate; ``level`` is the initial stock."""
    registry = TypeRegistry()
    registry.register("orders", AWSet)
    registry.register("orderOf", AWSet if variant is Variant.CAUSAL else RWSet)
    registry.register("products", AWSet)
    if variant is Variant.IPA:
        registry.register_prefix(
            "stock:",
            lambda: CompensatedCounter(
                initial=level,
                lower_bound=0,
                replenish_to=level,
            ),
        )
    else:
        registry.register_prefix(
            "stock:", lambda: PNCounter(initial=level)
        )
    return registry


@dataclass
class TpcwApp(AppHarness):
    """Operation layer of the storefront."""

    def setup(self, products: list[str], region: str) -> None:
        def body(txn: Transaction) -> str:
            for product in products:
                txn.update(
                    "products", lambda s, i=product: s.prepare_add(i)
                )
            return "setup"

        self.cluster.submit(region, body, lambda _op: None)
        self.cluster.settle()

    # -- catalogue management -----------------------------------------------------

    def add_product(self, region, product, done) -> None:
        def body(txn: Transaction) -> str:
            txn.update("products", lambda s: s.prepare_add(product))
            return "add_product"

        self.cluster.submit(region, body, done)

    def rem_product(self, region, product, done) -> None:
        def body(txn: Transaction) -> str:
            if self.variant is not Variant.IPA and any(
                p == product
                for _o, p in txn.get("orderOf").value()
            ):
                # Sequential precondition: a listed product with
                # standing orders cannot be delisted.  The IPA variant
                # needs no guard -- its rem-wins cascade below clears
                # the references, sequentially and concurrently alike.
                return "rem_product"
            txn.update("products", lambda s: s.prepare_remove(product))
            if self.variant is Variant.IPA:
                # Clear order references (rem-wins), the Figure 2c shape.
                from repro.crdts import Pattern

                txn.update(
                    "orderOf",
                    lambda s: s.prepare_remove_where(
                        Pattern.of("*", product)
                    ),
                )
            return "rem_product"

        self.cluster.submit(region, body, done)

    # -- ordering -------------------------------------------------------------------

    def new_order(self, region, order_id, product, done) -> None:
        def body(txn: Transaction) -> str:
            if product not in txn.get("products"):
                # Sequential precondition: no order for an unlisted
                # product.  (The IPA touch below only defends against
                # *concurrent* removals.)
                return "order_rejected"
            stock = txn.get(f"stock:{product}")
            if stock.value() <= 0:
                return "order_rejected"
            txn.update("orders", lambda s: s.prepare_add(order_id))
            txn.update(
                "orderOf", lambda s: s.prepare_add((order_id, product))
            )
            txn.update(f"stock:{product}", lambda c: c.prepare_add(-1))
            if self.variant is Variant.IPA:
                # Restore the product against a concurrent rem_product.
                txn.update("products", lambda s: s.prepare_touch(product))
                self._apply_stock_compensation(txn, product)
            return "new_order"

        self.cluster.submit(region, body, done)

    def restock(self, region, product, amount, done) -> None:
        def body(txn: Transaction) -> str:
            txn.update(
                f"stock:{product}", lambda c: c.prepare_add(amount)
            )
            return "restock"

        self.cluster.submit(region, body, done)

    def browse(self, region, product, done) -> None:
        def body(txn: Transaction) -> str:
            txn.get("products")
            txn.get(f"stock:{product}")
            if self.variant is Variant.IPA:
                self._apply_stock_compensation(txn, product)
            return "browse"

        self.cluster.submit(region, body, done, is_update=False)

    def _apply_stock_compensation(self, txn: Transaction, product) -> None:
        stock = txn.get(f"stock:{product}")
        if isinstance(stock, CompensatedCounter):
            correction = stock.check_violation()
            if correction is not None:
                txn.add_prepared(f"stock:{product}", correction)

    # -- audit ------------------------------------------------------------------------

    def count_violations(self, region: str) -> int:
        """Negative stock or dangling order references at one replica."""
        replica = self.cluster.replica(region)
        products = replica.get_object("products").value()
        violations = 0
        for key in replica.keys():
            if key.startswith("stock:"):
                if replica.get_object(key).value() < 0:
                    violations += 1
        for _order, product in replica.get_object("orderOf").value():
            if product not in products:
                violations += 1
        return violations
