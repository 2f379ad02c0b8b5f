"""Runtime correctness oracles (the checker's judgement layer).

Four oracles, in the spirit of Jepsen's checkers, evaluated against a
finished (or paused) simulated run:

- :class:`InvariantOracle` -- grounds the application's first-order
  invariants (the same :mod:`repro.logic` formulas the static analysis
  reasons about) against the *observed* state of each replica and
  reports every falsifying assignment as a witness.  "Observed" means
  the compensated view: a Compensation Set contributes its visible
  members, a Compensated Counter its value net of pending corrections
  -- the paper's claim is about what clients can read, not about raw
  CRDT internals.
- :class:`ConvergenceOracle` -- after quiescence, every replica must
  report an identical canonical state digest (and version vector).
- :class:`SessionTracker` -- per client session, the serving replica's
  version vector sampled at each completion must grow monotonically
  (read-your-writes / monotonic-reads for a session pinned to one
  replica; a recovery that lost durable state would show up here as a
  vector regression).
- :class:`CompensationDebtOracle` -- for numeric-bound invariants, the
  raw overdraft beyond the bound must be covered by the compensation
  machinery (executed plus pending corrections); an uncovered debt
  means a violation a client could observe.

All oracles return plain :class:`Violation` records so the explorer,
shrinker and CLI can treat them uniformly.
"""

from __future__ import annotations

import heapq
import itertools
import operator
from dataclasses import dataclass, field
from typing import Callable

from repro.logic.ast import (
    Add,
    And,
    Atom,
    Card,
    Cmp,
    Const,
    Exists,
    FalseF,
    ForAll,
    Formula,
    Iff,
    Implies,
    IntConst,
    Not,
    NumPred,
    NumTerm,
    Or,
    Param,
    Sort,
    TrueF,
    Var,
    Wildcard,
)
from repro.logic.grounding import Domain
from repro.obs import REGISTRY
from repro.spec.application import ApplicationSpec
from repro.spec.invariants import Invariant
from repro.spec.predicates import Schema


@dataclass(frozen=True)
class Violation:
    """One oracle finding, uniform across oracle kinds."""

    oracle: str  # invariant | convergence | session | compensation-debt
    region: str
    name: str  # invariant name/text, session id, or bound key
    witness: tuple[tuple[str, str], ...] = ()  # sorted (var, value) pairs
    detail: str = ""

    def describe(self) -> str:
        binding = ", ".join(f"{var}={val}" for var, val in self.witness)
        head = f"[{self.oracle}] {self.region}: {self.name}"
        if binding:
            head += f" with {binding}"
        if self.detail:
            head += f" ({self.detail})"
        return head

    def to_dict(self) -> dict:
        return {
            "oracle": self.oracle,
            "region": self.region,
            "name": self.name,
            "witness": [list(pair) for pair in self.witness],
            "detail": self.detail,
        }


# ---------------------------------------------------------------------------
# Interpretation: a finite model extracted from one replica
# ---------------------------------------------------------------------------


@dataclass
class Interpretation:
    """A finite first-order model of one replica's observed state.

    ``relations`` maps boolean predicate names to sets of constant-name
    tuples; ``numerics`` maps numeric predicate names to dictionaries
    from argument tuples to integers (absent arguments read as 0, the
    registry default for untouched counters); ``params`` binds the
    schema's symbolic parameters.
    """

    relations: dict[str, set[tuple[str, ...]]] = field(default_factory=dict)
    numerics: dict[str, dict[tuple[str, ...], int]] = field(
        default_factory=dict
    )
    params: dict[str, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        # Cardinality memo (not a dataclass field: excluded from
        # equality/repr).  Keyed by (predicate, fixed positions); see
        # :meth:`card_group`.
        self._card_groups: dict[tuple[str, tuple[int, ...]], dict] = {}

    def card_group(
        self, pred_name: str, fixed: tuple[int, ...]
    ) -> dict[tuple[str, ...], int]:
        """Row counts of ``pred_name`` grouped by the ``fixed`` columns.

        A ``#p(a, *, b)`` cardinality term asks, for concrete values at
        the non-wildcard positions, how many rows match.  Grouping the
        relation once by those positions answers *every* such query
        with one dict lookup instead of re-filtering the rows per
        ``eval_num`` call.  Memoized per interpretation: a model that
        changes after checking starts must change through
        :meth:`insert`/:meth:`remove`, which keep the groups current.
        """
        groups = self._card_groups
        group = groups.get((pred_name, fixed))
        if group is None:
            group = {}
            for row in self.relations.get(pred_name, ()):
                key = tuple(row[i] for i in fixed)
                group[key] = group.get(key, 0) + 1
            groups[(pred_name, fixed)] = group
        return group

    def insert(self, pred_name: str, row: tuple[str, ...]) -> None:
        """Add one row that is not yet present, keeping groups current."""
        self.relations[pred_name].add(row)
        self._count(pred_name, row, 1)

    def remove(self, pred_name: str, row: tuple[str, ...]) -> None:
        """Drop one present row, keeping groups current."""
        self.relations[pred_name].remove(row)
        self._count(pred_name, row, -1)

    def _count(self, pred_name: str, row: tuple, step: int) -> None:
        for (name, fixed), group in self._card_groups.items():
            if name != pred_name:
                continue
            key = tuple(row[i] for i in fixed)
            count = group.get(key, 0) + step
            if count:
                group[key] = count
            else:
                del group[key]

    def domain(self, spec: ApplicationSpec) -> Domain:
        """The finite universe: every constant the state mentions."""
        # Seed with every schema sort so quantifiers over a sort with
        # no observed entities range over the empty tuple (vacuously
        # true) instead of raising.
        per_sort: dict[Sort, list[Const]] = {
            sort: [] for sort in spec.schema.sorts.values()
        }

        def note(sort: Sort, name: str) -> None:
            consts = per_sort.setdefault(sort, [])
            const = Const(name, sort)
            if const not in consts:
                consts.append(const)

        for pred_name, tuples in self.relations.items():
            decl = spec.schema.predicates.get(pred_name)
            if decl is None:
                continue
            for row in tuples:
                for sort, value in zip(decl.arg_sorts, row):
                    note(sort, str(value))
        for pred_name, cells in self.numerics.items():
            decl = spec.schema.predicates.get(pred_name)
            if decl is None:
                continue
            for row in cells:
                for sort, value in zip(decl.arg_sorts, row):
                    note(sort, str(value))
        # Deterministic order regardless of extraction order.
        return Domain(
            {
                sort: tuple(sorted(consts, key=lambda c: c.name))
                for sort, consts in per_sort.items()
            }
        )


_CMP = {
    "<=": operator.le,
    "<": operator.lt,
    ">=": operator.ge,
    ">": operator.gt,
    "==": operator.eq,
    "!=": operator.ne,
}


#: Top-level formula evaluations (one per invariant per replica check).
_FORMULA_EVALS = REGISTRY.counter("check.formula.evals")


def _term_name(term, env: dict[Var, str]) -> str:
    if isinstance(term, Const):
        return term.name
    if isinstance(term, Var):
        name = env.get(term)
        if name is not None:
            return name
    raise TypeError(f"non-constant term {term!r} in ground evaluation")


def eval_num(
    term: NumTerm, interp: Interpretation, env: dict[Var, str] | None = None
) -> int:
    if env is None:
        env = {}
    if isinstance(term, IntConst):
        return term.value
    if isinstance(term, Param):
        return interp.params[term.name]
    if isinstance(term, Card):
        fixed = tuple(
            i for i, a in enumerate(term.args) if not isinstance(a, Wildcard)
        )
        key = tuple(_term_name(term.args[i], env) for i in fixed)
        return interp.card_group(term.pred.name, fixed).get(key, 0)
    if isinstance(term, NumPred):
        key = tuple(_term_name(a, env) for a in term.args)
        return interp.numerics.get(term.pred.name, {}).get(key, 0)
    if isinstance(term, Add):
        return sum(eval_num(t, interp, env) for t in term.terms)
    raise TypeError(f"unknown numeric term {term!r}")


def eval_formula(
    formula: Formula,
    interp: Interpretation,
    domain: Domain,
    env: dict[Var, str] | None = None,
) -> bool:
    """Evaluate a (possibly quantified) formula in the finite model."""
    _FORMULA_EVALS.value += 1
    return _eval(formula, interp, domain, {} if env is None else dict(env))


def _eval(
    formula: Formula,
    interp: Interpretation,
    domain: Domain,
    env: dict[Var, str],
) -> bool:
    if isinstance(formula, TrueF):
        return True
    if isinstance(formula, FalseF):
        return False
    if isinstance(formula, Atom):
        row = tuple(_term_name(a, env) for a in formula.args)
        return row in interp.relations.get(formula.pred.name, ())
    if isinstance(formula, Cmp):
        return _CMP[formula.op](
            eval_num(formula.lhs, interp, env),
            eval_num(formula.rhs, interp, env),
        )
    if isinstance(formula, Not):
        return not _eval(formula.arg, interp, domain, env)
    if isinstance(formula, And):
        return all(_eval(a, interp, domain, env) for a in formula.args)
    if isinstance(formula, Or):
        return any(_eval(a, interp, domain, env) for a in formula.args)
    if isinstance(formula, Implies):
        return not _eval(formula.lhs, interp, domain, env) or _eval(
            formula.rhs, interp, domain, env
        )
    if isinstance(formula, Iff):
        return _eval(formula.lhs, interp, domain, env) == _eval(
            formula.rhs, interp, domain, env
        )
    if isinstance(formula, (ForAll, Exists)):
        # One shared binding environment, bound in place per combo over
        # the pre-materialised (sorted) domain pools, restored after
        # the loop -- inner binders shadow outer ones exactly like the
        # capture-aware ``substitute`` the interpreter used to call,
        # without rebuilding candidate lists per nesting level.  The
        # all()/any() short-circuit stops enumeration at the first
        # falsifying / satisfying combo.
        vars_ = formula.vars
        body = formula.body
        pools = [domain.of(v.sort) for v in vars_]
        saved = [(v, env.get(v)) for v in vars_]

        def evaluations():
            for combo in itertools.product(*pools):
                for var, const in zip(vars_, combo):
                    env[var] = const.name
                yield _eval(body, interp, domain, env)

        try:
            if isinstance(formula, ForAll):
                return all(evaluations())
            return any(evaluations())
        finally:
            for var, previous in saved:
                if previous is None:
                    env.pop(var, None)
                else:
                    env[var] = previous
    raise TypeError(f"unknown formula node {formula!r}")


# ---------------------------------------------------------------------------
# The invariant oracle
# ---------------------------------------------------------------------------


class InvariantOracle:
    """Grounds the spec's invariants against an interpretation.

    One evaluator: :meth:`check` loads an :class:`InvariantWatch` over
    the model and returns its violations.  Each indexed invariant is
    judged one instance at a time (:func:`instance_index`); the rest
    run the product loop whole.  :func:`reference_check` is that
    product loop over every invariant, the reference the watch is
    differential-tested against.
    """

    def __init__(self, spec: ApplicationSpec, max_witnesses: int = 5):
        self.spec = spec
        self.max_witnesses = max_witnesses
        self._watched: list[WatchedInvariant] | None = None

    def check(self, interp: Interpretation, region: str) -> list[Violation]:
        watch = InvariantWatch(self, interp, region)
        _FORMULA_EVALS.value += len(self.watched())
        watch.load()
        return watch.violations()

    def watched(self) -> list[WatchedInvariant]:
        """Each checked invariant, in spec order, as a watch evaluates it."""
        if self._watched is None:
            schema = self.spec.schema
            self._watched = [
                WatchedInvariant(
                    invariant=invariant,
                    name=invariant.name or invariant.describe(),
                    index=instance_index(invariant.formula, schema),
                )
                for invariant in self.spec.invariants
                if not isinstance(invariant.formula, TrueF)
            ]
        return self._watched


def reference_check(
    oracle: InvariantOracle, interp: Interpretation, region: str
) -> list[Violation]:
    """What ``oracle.check`` must report, by the product loop alone.

    Every invariant enumerates its whole domain product, with no
    instance index: the reference the watch is tested against, and
    the loop unindexed invariants run inside it.
    """
    if not interp.params:
        interp.params = dict(oracle.spec.schema.params)
    domain = interp.domain(oracle.spec)
    found: list[Violation] = []
    for invariant in oracle.spec.invariants:
        if isinstance(invariant.formula, TrueF):
            continue  # declared-category invariants (unique ids)
        _FORMULA_EVALS.value += 1
        _interpret(
            invariant, interp, domain, region, oracle.max_witnesses, found
        )
    return found


def _interpret(invariant, interp, domain, region, max_witnesses, out) -> None:
    """The product loop's check of one invariant, appending to ``out``."""
    formula = invariant.formula
    name = invariant.name or invariant.describe()
    # Fresh environment per invariant: a variable bound here must never
    # leak into another invariant's evaluation.
    env: dict[Var, str] = {}
    if isinstance(formula, ForAll):
        # Enumerate bindings so each failure carries a witness.
        count = 0
        vars_ = formula.vars
        pools = [domain.of(v.sort) for v in vars_]
        for combo in itertools.product(*pools):
            for var, const in zip(vars_, combo):
                env[var] = const.name
            if _eval(formula.body, interp, domain, env):
                continue
            witness = tuple(
                sorted(
                    (var.name, const.name)
                    for var, const in dict(zip(vars_, combo)).items()
                )
            )
            out.append(Violation("invariant", region, name, witness))
            count += 1
            if count >= max_witnesses:
                break
    elif not _eval(formula, interp, domain, env):
        out.append(Violation("invariant", region, name))


# ---------------------------------------------------------------------------
# Instance index: which instances a changed fact reaches
# ---------------------------------------------------------------------------


def _guard_atom(formula: ForAll, schema: Schema) -> Atom | None:
    """The atom that can drive enumeration of ``formula``, if any.

    ``forall x̄ :- P(x̄) => Q`` qualifies when ``P``'s arguments are
    exactly the quantified variables, each once, and the schema
    declares this very ``P``.  Every binding the product loop could
    falsify then satisfies ``P``, so it is one of ``P``'s rows -- and
    each row's constants sit in the binders' domain pools (an atom is
    well-sorted against its own declaration, and the pools are filled
    from the schema's), which is what makes the two enumerations visit
    the same bindings.  A constant, a repeated variable, a binder the
    guard leaves out or a declaration the schema does not share breaks
    that bijection: those keep the product loop.
    """
    body = formula.body
    if not isinstance(body, Implies) or not isinstance(body.lhs, Atom):
        return None
    guard = body.lhs
    if schema.predicates.get(guard.pred.name) != guard.pred:
        return None
    # ``formula.vars`` are distinct, so equal length + equal sets means
    # a permutation (a constant argument makes the sets differ).
    if len(guard.args) != len(formula.vars) or set(guard.args) != set(
        formula.vars
    ):
        return None
    return guard


@dataclass(frozen=True)
class InstanceIndex:
    """Which instances of ``forall x̄ :- body`` a changed fact reaches.

    An instance is one binding of the binders, a tuple in binder order.
    The body has no nested quantifier, so an instance's truth reads
    only the facts its atoms, cardinality terms and numeric terms name
    under that binding, and a changed fact ``pred(row)`` can flip only
    the instances some occurrence of ``pred`` matches.  ``reads[pred]``
    lists, per occurrence, the ``(position, constant)`` pairs a row
    must carry and the ``(position, binder)`` pairs it binds (a
    cardinality's wildcard positions bind nothing).  An occurrence that
    binds only some binders reaches the guard's rows agreeing with it;
    ``guard`` is the guard's predicate and the binder at each argument
    (:func:`_guard_atom`).  Without a guard the loop has one binder,
    whose domain pool (``sorts``) enumerates it: a constant entering or
    leaving the pool reaches its instance too.
    """

    names: tuple[str, ...]
    sorts: tuple[str, ...]
    guard: tuple[str, tuple[int, ...]] | None
    reads: dict[str, tuple[tuple[tuple, tuple], ...]]


def instance_index(formula: Formula, schema: Schema) -> InstanceIndex | None:
    """``formula``'s instance index, or ``None`` to re-evaluate it whole.

    Whole re-evaluation is kept for what an instance cannot answer from
    its own facts -- a nested quantifier, a read naming no binder (or a
    top-level formula with no binders at all) -- for a product loop over
    more than one binder, which no shipped invariant is, and for what the
    interpreter rejects at runtime (free variables, misplaced wildcards,
    undeclared sorts), so the error surfaces as it always did.
    """
    if not isinstance(formula, ForAll) or not formula.vars:
        return None
    binders = {var: i for i, var in enumerate(formula.vars)}
    if len(binders) != len(formula.vars) or any(
        var.sort.name not in schema.sorts for var in formula.vars
    ):
        return None
    guard = _guard_atom(formula, schema)
    if guard is None and len(binders) > 1:
        return None
    reads: dict[str, list] = {}
    if not _collect_reads(formula.body, binders, reads):
        return None
    return InstanceIndex(
        names=tuple(var.name for var in formula.vars),
        sorts=tuple(var.sort.name for var in formula.vars),
        guard=(
            None
            if guard is None
            else (guard.pred.name, tuple(binders[a] for a in guard.args))
        ),
        reads={pred: tuple(found) for pred, found in reads.items()},
    )


def _collect_reads(node, binders: dict[Var, int], reads: dict) -> bool:
    """Add every fact read under ``node`` to ``reads``; ``False`` when
    an instance's truth depends on more than its own facts."""
    if isinstance(node, (Atom, Card, NumPred)):
        consts, binds = [], []
        for position, arg in enumerate(node.args):
            if isinstance(arg, Var):
                if arg not in binders:
                    return False
                binds.append((position, binders[arg]))
            elif isinstance(arg, Const):
                consts.append((position, arg.name))
            elif not (isinstance(arg, Wildcard) and isinstance(node, Card)):
                return False
        if not binds:
            return False
        reads.setdefault(node.pred.name, []).append(
            (tuple(consts), tuple(binds))
        )
        return True
    if isinstance(node, (TrueF, FalseF, IntConst, Param)):
        return True
    if isinstance(node, Not):
        return _collect_reads(node.arg, binders, reads)
    if isinstance(node, (And, Or)):
        children = node.args
    elif isinstance(node, (Implies, Iff, Cmp)):
        children = (node.lhs, node.rhs)
    elif isinstance(node, Add):
        children = node.terms
    else:
        return False  # a nested quantifier (or an unknown node)
    return all(_collect_reads(child, binders, reads) for child in children)


@dataclass(frozen=True)
class WatchedInvariant:
    """One invariant as :class:`InvariantWatch` evaluates it.

    ``index`` (``None``: re-evaluate whole) says which instances a
    changed fact reaches, and :meth:`holds` judges one instance.
    """

    invariant: Invariant
    name: str
    index: InstanceIndex | None

    def holds(self, interp: Interpretation, binding: tuple) -> bool:
        """The body's truth under ``binding`` (binder order)."""
        formula = self.invariant.formula
        # No nested quantifier in an indexed body: no domain is read.
        return _eval(formula.body, interp, None, dict(zip(formula.vars, binding)))


def _picker(positions: tuple[int, ...]) -> Callable[[tuple], tuple]:
    """``row -> tuple(row[p] for p in positions)`` in one C call."""
    if len(positions) == 1:
        (position,) = positions
        return lambda row: (row[position],)
    return operator.itemgetter(*positions)


class InvariantWatch:
    """Every invariant's falsified instances, kept across model changes.

    :meth:`InvariantOracle.check` is one :meth:`load` of a fresh watch;
    the live detector keeps one across model changes.  After the model
    moves, :meth:`apply` takes its net fact changes ``(pred, row,
    step)`` -- ``step`` +1 for a row or numeric cell that appeared, -1
    for one that went, 0 for a cell whose value moved -- and
    re-evaluates only the instances they reach through each
    invariant's :class:`InstanceIndex`: the instances an occurrence of
    the changed predicate matches (completed from the guard's rows),
    and for a product loop, which has one binder, the instance of a
    constant that entered its sort's pool.  A constant that left the
    pool drops its instance, since no enumeration reaches it any more.
    An instance is falsified iff the enumeration visits it (its guard
    row is present, or its value is in its pool) and ``holds`` is
    false.  Invariants without an index run the product loop whole
    after any change.

    :meth:`violations` equals :func:`reference_check` over the same
    model: per invariant, in spec order,
    ``sorted(falsified)[:max(max_witnesses, 1)]`` -- the product loop's
    first witnesses, in its own order.  The model must change through
    ``Interpretation.insert``/``remove`` so its cardinality groups
    stay current.
    """

    def __init__(
        self, oracle: InvariantOracle, model: Interpretation, region: str
    ) -> None:
        if not model.params:
            model.params = dict(oracle.spec.schema.params)
        self.model = model
        self.region = region
        self._spec = oracle.spec
        self._limit = max(oracle.max_witnesses, 1)
        self._watched = oracle.watched()
        self._bad: list[set[tuple]] = [set() for _ in self._watched]
        #: per invariant, its current violations; ``None`` when stale
        self._out: list[list[Violation] | None] = [None] * len(self._watched)
        #: per indexed invariant, the bindings its violations report
        self._top: list[list[tuple]] = [[] for _ in self._watched]
        #: predicate -> per distinct occurrence: (invariant, constants,
        #: repeated-binder position pairs, picker of the bound binders'
        #: values, their guard groups or ``None`` when they bind all)
        self._readers: dict[str, list] = {}
        #: guard predicate -> per invariant it drives: the binder at each
        #: argument, and bound binders -> their values -> guard bindings
        self._guard_rows: dict[str, list[tuple[tuple, dict]]] = {}
        #: sort -> the product loops over it (one binder each)
        self._pooled: dict[str, list[int]] = {}
        #: the invariants re-evaluated whole
        self._whole = [
            k for k, watched in enumerate(self._watched) if watched.index is None
        ]
        for k, watched in enumerate(self._watched):
            index = watched.index
            if index is None:
                continue
            by_bound = None
            for pred, reads in index.reads.items():
                for consts, binds in set(reads):
                    first: dict[int, int] = {}
                    same = []
                    for pos, i in binds:
                        if first.setdefault(i, pos) != pos:
                            same.append((first[i], pos))
                    bound = tuple(sorted(first))
                    groups = None
                    if len(bound) < len(index.names):
                        if by_bound is None:
                            guard_pred, guard_binders = index.guard
                            by_bound = {}
                            self._guard_rows.setdefault(guard_pred, []).append(
                                (guard_binders, by_bound)
                            )
                        groups = by_bound.setdefault(bound, {})
                    self._readers.setdefault(pred, []).append(
                        (
                            k,
                            consts,
                            tuple(same),
                            _picker(tuple(first[i] for i in bound)),
                            groups,
                        )
                    )
            if index.guard is None:
                (sort,) = index.sorts
                self._pooled.setdefault(sort, []).append(k)
        #: pooled sort -> constant -> fact positions naming it
        self._domain: dict[str, dict[str, int]] = {
            sort: {} for sort in self._pooled
        }
        #: predicate -> its (position, sort) pairs of a pooled sort
        self._pool_positions: dict[str, tuple[tuple[int, str], ...]] = {}
        for name, decl in oracle.spec.schema.predicates.items():
            positions = tuple(
                (pos, sort.name)
                for pos, sort in enumerate(decl.arg_sorts)
                if sort.name in self._pooled
            )
            if positions:
                self._pool_positions[name] = positions

    def load(self) -> int:
        """Evaluate the whole model; returns the instances evaluated."""
        model = self.model
        facts = [
            (name, row, 1)
            for name, rows in model.relations.items()
            for row in rows
        ]
        facts.extend(
            (name, key, 1)
            for name, cells in model.numerics.items()
            for key in cells
        )
        return self.apply(facts)

    def apply(self, changes) -> int:
        """Follow the model's net ``changes``; returns the instances
        evaluated."""
        if not changes:
            return 0
        for k in self._whole:
            self._out[k] = None
        entered, left = self._move_domain(changes)
        by_pred: dict[str, list] = {}
        for change in changes:
            by_pred.setdefault(change[0], []).append(change)
        self._move_guards(by_pred)
        todo: dict[int, set[tuple]] = {}
        for pred, group in by_pred.items():
            readers = self._readers.get(pred)
            if readers is None:
                continue
            for _pred, row, _step in group:
                for k, consts, same, pick, groups in readers:
                    if consts and any(row[pos] != const for pos, const in consts):
                        continue
                    if same and any(row[a] != row[b] for a, b in same):
                        continue  # a repeated binder, two values
                    if groups is None:
                        todo.setdefault(k, set()).add(pick(row))
                    else:
                        # Partly bound: complete from the guard's rows.
                        todo.setdefault(k, set()).update(
                            groups.get(pick(row), ())
                        )
        for sort, value in entered:
            for k in self._pooled.get(sort, ()):
                todo.setdefault(k, set()).add((value,))
        for sort, value in left:
            for k in self._pooled.get(sort, ()):
                bad = self._bad[k]
                if (value,) in bad:
                    bad.discard((value,))
                    self._out[k] = None
        return self._evaluate(todo)

    def _evaluate(self, todo: dict[int, set[tuple]]) -> int:
        model = self.model
        domain = self._domain
        evaluated = 0
        for k, bindings in todo.items():
            watched = self._watched[k]
            index = watched.index
            holds = watched.holds
            bad = self._bad[k]
            if index.guard is not None:
                guard_pred, guard_binders = index.guard
                rows = model.relations.get(guard_pred, ())
            else:
                pool = domain[index.sorts[0]]
            for binding in bindings:
                if index.guard is not None:
                    shown = tuple(binding[i] for i in guard_binders) in rows
                else:
                    shown = binding[0] in pool
                was = binding in bad
                if not (shown or was):
                    continue  # unvisited before and after
                evaluated += 1
                if (shown and not holds(model, binding)) == was:
                    continue
                top = self._top[k]
                if was:
                    bad.discard(binding)
                    # Only a reported witness leaving moves the report.
                    if top and binding <= top[-1]:
                        self._out[k] = None
                else:
                    bad.add(binding)
                    if len(top) < self._limit or binding < top[-1]:
                        self._out[k] = None
        return evaluated

    def _move_domain(self, changes) -> tuple[list, list]:
        """Recount the domain pools; the (sort, constant) pairs that
        entered and left them."""
        domain = self._domain
        before: dict[tuple[str, str], bool] = {}
        for pred, row, step in changes:
            positions = self._pool_positions.get(pred) if step else None
            if positions is None:
                continue
            for pos, sort in positions:
                value = row[pos]
                pool = domain[sort]
                count = pool.get(value, 0)
                before.setdefault((sort, value), count > 0)
                count += step
                if count:
                    pool[value] = count
                else:
                    del pool[value]
        entered, left = [], []
        for (sort, value), was in before.items():
            if (value in domain[sort]) != was:
                (left if was else entered).append((sort, value))
        return entered, left

    def _move_guards(self, by_pred: dict[str, list]) -> None:
        for guard_pred, guarded in self._guard_rows.items():
            changes = by_pred.get(guard_pred)
            if changes is None:
                continue
            for guard_binders, groups in guarded:
                for _pred, row, step in changes:
                    if not step:
                        continue
                    binding = [""] * len(guard_binders)
                    for pos, i in enumerate(guard_binders):
                        binding[i] = row[pos]
                    binding = tuple(binding)
                    for bound, by_values in groups.items():
                        key = tuple(binding[i] for i in bound)
                        if step > 0:
                            by_values.setdefault(key, set()).add(binding)
                        else:
                            rows = by_values[key]
                            rows.discard(binding)
                            if not rows:
                                del by_values[key]

    def violations(self) -> list[Violation]:
        """What :meth:`InvariantOracle.check` reports on the model."""
        found: list[Violation] = []
        domain = None
        for k, watched in enumerate(self._watched):
            out = self._out[k]
            if out is None:
                out = []
                if watched.index is None:
                    if domain is None:
                        domain = self.model.domain(self._spec)
                    _interpret(
                        watched.invariant, self.model, domain, self.region,
                        self._limit, out,
                    )
                else:
                    names = watched.index.names
                    top = heapq.nsmallest(self._limit, self._bad[k])
                    self._top[k] = top
                    for binding in top:
                        out.append(
                            Violation(
                                "invariant",
                                self.region,
                                watched.name,
                                tuple(sorted(zip(names, binding))),
                            )
                        )
                self._out[k] = out
            found.extend(out)
        return found


# ---------------------------------------------------------------------------
# Convergence, sessions, compensation debt
# ---------------------------------------------------------------------------


class ConvergenceOracle:
    """Digest and vector equality across replicas after quiescence."""

    def check(
        self, cluster, digests: dict[str, str] | None = None
    ) -> list[Violation]:
        """Judge ``cluster``; ``digests`` is its ``state_digest()`` when
        the caller already holds one (hashing every replica is the
        expensive half of this check)."""
        if digests is None:
            digests = cluster.state_digest()
        found: list[Violation] = []
        reference_region = min(digests)
        reference = digests[reference_region]
        for region in sorted(digests):
            if digests[region] != reference:
                found.append(
                    Violation(
                        "convergence",
                        region,
                        "state-digest",
                        detail=f"{digests[region][:12]} != "
                        f"{reference[:12]} ({reference_region})",
                    )
                )
        if not cluster.converged():
            found.append(
                Violation(
                    "convergence",
                    "*",
                    "version-vectors",
                    detail="replicas disagree on applied commits",
                )
            )
        return found


class SessionTracker:
    """Monotonic session guarantees, one chain per client session.

    ``observe`` is called at each operation completion with the serving
    replica's version vector; a later observation that fails to
    dominate an earlier one breaks monotonic reads for that session.
    """

    def __init__(self) -> None:
        self._last: dict[str, dict[str, int]] = {}
        self.violations: list[Violation] = []

    def observe(
        self, session: str, region: str, vv_entries: dict[str, int]
    ) -> None:
        previous = self._last.get(session)
        if previous is not None:
            regressed = sorted(
                origin
                for origin, counter in previous.items()
                if vv_entries.get(origin, 0) < counter
            )
            if regressed:
                self.violations.append(
                    Violation(
                        "session",
                        region,
                        session,
                        detail="vector regressed for origin(s) "
                        + ", ".join(regressed),
                    )
                )
        self._last[session] = dict(vv_entries)

    def check(self) -> list[Violation]:
        return list(self.violations)


@dataclass(frozen=True)
class BoundProbe:
    """One numeric-bound data point reported by an application adapter.

    ``raw`` is the uncompensated quantity, ``observed`` the compensated
    view a client reads, ``bound``/``op`` the invariant's limit (e.g.
    ``observed <= bound`` for a capacity, ``observed >= bound`` for a
    stock floor), and ``covered`` how much the compensation machinery
    has absorbed (executed plus pending corrections/trims).
    """

    key: str
    raw: int
    observed: int
    bound: int
    op: str  # "<=" or ">="
    covered: int = 0


class CompensationDebtOracle:
    """Raw overdraft must be paid for by compensations (IPA configs).

    On an unrepaired (Causal) run the oracle instead degenerates to the
    plain bound check on the observed state, which is what a client
    sees.
    """

    def check(
        self, probes: list[BoundProbe], region: str, compensated: bool
    ) -> list[Violation]:
        found: list[Violation] = []
        for probe in probes:
            ok = _CMP[probe.op](probe.observed, probe.bound)
            if not ok:
                found.append(
                    Violation(
                        "compensation-debt",
                        region,
                        probe.key,
                        detail=f"observed {probe.observed} violates "
                        f"{probe.op} {probe.bound}",
                    )
                )
                continue
            if not compensated:
                continue
            overdraft = (
                probe.raw - probe.bound
                if probe.op == "<="
                else probe.bound - probe.raw
            )
            if overdraft > 0 and probe.covered < overdraft:
                found.append(
                    Violation(
                        "compensation-debt",
                        region,
                        probe.key,
                        detail=f"raw overdraft {overdraft} but only "
                        f"{probe.covered} compensated",
                    )
                )
        return found
