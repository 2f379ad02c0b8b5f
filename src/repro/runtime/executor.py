"""The generic specification executor.

Runs the operations of an :class:`~repro.spec.application.ApplicationSpec`
against a :class:`~repro.store.cluster.Cluster` by interpreting their
effects -- no hand-written application code.  The IPA workflow becomes
fully mechanical: analyse the spec, take ``result.modified``, build a
registry and executor from it, and the patched application is running.
"""

from __future__ import annotations

import itertools
from typing import Callable, Iterable

from repro.errors import SpecError
from repro.analysis.compensation import Compensation
from repro.logic.ast import (
    Card,
    Cmp,
    Const,
    Exists,
    ForAll,
    Var,
    Wildcard,
)
from repro.crdts import AWSet, Pattern, PNCounter, RWSet
from repro.solver.models import evaluate
from repro.spec.application import ApplicationSpec
from repro.spec.effects import BoolEffect, ConvergencePolicy, NumEffect
from repro.store.cluster import Cluster
from repro.store.registry import TypeRegistry
from repro.store.transaction import Transaction

from repro.analysis.encoding import GroundEffects
from repro.runtime.state import (
    counter_key,
    domain_of_values,
    materialize,
    predicate_key,
)


def registry_for_spec(spec: ApplicationSpec) -> TypeRegistry:
    """CRDT choices derived from the spec's convergence rules.

    Rem-wins predicates get :class:`~repro.crdts.rwset.RWSet`;
    everything else (add-wins, and LWW which has no set counterpart)
    gets :class:`~repro.crdts.awset.AWSet`.  Numeric predicates get one
    PN-counter per ground instance.
    """
    registry = TypeRegistry()
    for pred in spec.schema.predicates.values():
        if pred.numeric:
            registry.register_prefix(f"count:{pred.name}:", PNCounter)
            continue
        policy = spec.rules.policy(pred)
        factory = RWSet if policy is ConvergencePolicy.REM_WINS else AWSet
        registry.register(predicate_key(pred.name), factory)
    return registry


class SpecExecutor:
    """Interprets spec operations as store transactions."""

    def __init__(
        self,
        spec: ApplicationSpec,
        cluster: Cluster,
        check_preconditions: bool = True,
        compensations: Iterable[Compensation] = (),
        original_spec: ApplicationSpec | None = None,
    ) -> None:
        self._spec = spec
        self._cluster = cluster
        self._check_preconditions = check_preconditions
        self._compensations = list(compensations)
        # Preconditions are the ORIGINAL operations' weakest
        # preconditions: IPA's extra effects weaken the patched op's own
        # precondition by design (enroll + tournament(t)=true could
        # "create" a tournament), but the application code still guards
        # the original check (§2.2) -- the repairs only matter for
        # effects arriving at REMOTE replicas.
        self._precondition_spec = original_spec or spec
        # The entity universe grows as operations mention new names;
        # it scopes precondition checks and audits.
        self._entities: dict[str, set[str]] = {
            name: set() for name in spec.schema.sorts
        }
        self.rejected = 0

    @property
    def spec(self) -> ApplicationSpec:
        return self._spec

    @property
    def cluster(self) -> Cluster:
        return self._cluster

    # -- execution -------------------------------------------------------------

    def execute(
        self,
        region: str,
        op_name: str,
        args: dict[str, str],
        done: Callable[[str], None] | None = None,
        reservations: tuple[str, ...] = (),
    ) -> None:
        """Run one operation issued by a client in ``region``.

        ``args`` maps parameter names to entity names.  ``done``
        receives the operation name, or ``"<op>_rejected"`` when the
        origin-side precondition check refuses it.
        """
        operation = self._spec.operation(op_name)
        binding: dict[Var, str] = {}
        for param in operation.params:
            try:
                binding[param] = args[param.name]
            except KeyError:
                raise SpecError(
                    f"operation {op_name}: missing argument "
                    f"{param.name!r}"
                ) from None
            self._entities[param.sort.name].add(args[param.name])

        guard = operation
        guard_name = operation.original_name
        if guard_name in self._precondition_spec.operations:
            guard = self._precondition_spec.operations[guard_name]

        def body(txn: Transaction) -> str:
            if self._check_preconditions and not self._locally_valid(
                txn, guard, binding
            ):
                self.rejected += 1
                return f"{op_name}_rejected"
            for effect in operation.effects:
                self._apply_effect(txn, effect, binding)
            return op_name

        self._cluster.submit(
            region,
            body,
            done or (lambda _op: None),
            is_update=bool(operation.effects),
            reservations=reservations,
        )

    def _apply_effect(self, txn, effect, binding) -> None:
        if isinstance(effect, NumEffect):
            parts = tuple(
                binding[a] if isinstance(a, Var) else a.name
                for a in effect.args
            )
            txn.update(
                counter_key(effect.pred.name, parts),
                lambda c: c.prepare_add(effect.delta),
            )
            return
        assert isinstance(effect, BoolEffect)
        key = predicate_key(effect.pred.name)
        parts = tuple(
            "*" if isinstance(a, Wildcard)
            else (binding[a] if isinstance(a, Var) else a.name)
            for a in effect.args
        )
        scalar = parts[0] if len(parts) == 1 else parts
        if effect.value:
            if effect.touch:
                txn.update(key, lambda s: s.prepare_touch(scalar))
            else:
                txn.update(key, lambda s: s.prepare_add(scalar))
        elif "*" in parts:
            pattern = Pattern.of(*parts)
            txn.update(key, lambda s: s.prepare_remove_where(pattern))
        else:
            txn.update(key, lambda s: s.prepare_remove(scalar))

    # -- origin-side precondition check -----------------------------------------

    def _domain(self):
        values = {
            name: sorted(entities) or [f"_{name.lower()}_dummy"]
            for name, entities in self._entities.items()
        }
        return domain_of_values(self._spec, values)

    def _locally_valid(self, txn, operation, binding) -> bool:
        """Would the local post-state satisfy the invariant?  (§2.2:
        'the code of the operation verifies that the local database
        state satisfies the operation preconditions'.)"""
        domain = self._domain()
        model = materialize(txn.replica, self._spec, domain)
        by_sort = {
            sort: {c.name: c for c in domain.of(sort)}
            for sort in self._spec.schema.sorts.values()
        }
        const_binding = {
            param: by_sort[param.sort][value]
            for param, value in binding.items()
        }
        effects = GroundEffects.from_effects(
            operation.instantiate(const_binding), domain
        )
        post = materialize(txn.replica, self._spec, domain)
        for atom, value in effects.bool_assigns.items():
            post.atoms[atom] = value
        for numpred, delta in effects.num_deltas.items():
            post.numerics[numpred] = post.value(numpred) + delta
        return evaluate(self._spec.invariant_formula(), post)

    # -- compensations ------------------------------------------------------------

    def apply_compensations(
        self, region: str, done: Callable[[str], None] | None = None
    ) -> None:
        """Run the read-side repairs of every trim compensation."""
        trims = [
            comp for comp in self._compensations
            if comp.kind == "trim-collection"
        ]
        if not trims:
            if done is not None:
                done("compensate")
            return

        def body(txn: Transaction) -> str:
            for comp in trims:
                self._trim(txn, comp)
            return "compensate"

        self._cluster.submit(
            region, body, done or (lambda _op: None)
        )

    def _bound_of(self, comp: Compensation) -> int:
        if comp.bound_param is not None:
            return self._spec.schema.params[comp.bound_param]
        return comp.bound_value or 0

    def _group_positions(self, comp: Compensation) -> list[int]:
        """Positions of the cardinality pattern that group elements
        (the quantified, non-wildcard arguments)."""
        formula = comp.invariant.formula
        while isinstance(formula, (ForAll, Exists)):
            formula = formula.body
        if isinstance(formula, Cmp):
            for side in (formula.lhs, formula.rhs):
                if isinstance(side, Card) and side.pred.name == comp.predicate:
                    return [
                        index
                        for index, arg in enumerate(side.args)
                        if not isinstance(arg, Wildcard)
                    ]
        return []

    def _trim(self, txn: Transaction, comp: Compensation) -> None:
        bound = self._bound_of(comp)
        positions = self._group_positions(comp)
        obj = txn.get(predicate_key(comp.predicate))
        elements = obj.value()
        groups: dict[tuple, list] = {}
        for element in elements:
            parts = element if isinstance(element, tuple) else (element,)
            key = tuple(parts[i] for i in positions)
            groups.setdefault(key, []).append(element)
        for members in groups.values():
            if len(members) <= bound:
                continue
            victims = sorted(members)[bound:]
            for victim in victims:
                txn.update(
                    predicate_key(comp.predicate),
                    lambda s, v=victim: s.prepare_remove(v),
                )

    # -- auditing -----------------------------------------------------------------

    def audit(self, region: str) -> list[str]:
        """Invariants violated in the replica's current state."""
        replica = self._cluster.replica(region)
        domain = self._domain()
        model = materialize(replica, self._spec, domain)
        violated = []
        for invariant in self._spec.invariants:
            if not evaluate(invariant.formula, model):
                violated.append(invariant.describe())
        return violated
