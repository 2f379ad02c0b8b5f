"""Bounded integer arithmetic for the model finder.

Numeric state in IPA specifications comes in two shapes:

- *numeric predicates* such as ``stock(i)`` -- integer-valued functions
  that effects increment and decrement;
- *cardinality terms* such as ``#enrolled(*, t)`` -- the number of true
  ground atoms matching a pattern.

Both are bounded in any grounded query (a cardinality is at most the
domain product; a counter only needs to stray a few units past the
invariant's threshold for a violation to be representable), so we use an
*order encoding*: an integer ``x`` with range ``[lo, hi]`` is represented
by literals ``x >= k`` for each ``k`` in ``(lo, hi]``, chained so that
``x >= k+1`` implies ``x >= k``.  Sums (for cardinalities and for merged
concurrent increments) are built structurally:
``(x + y) >= k  iff  exists i: x >= i and y >= k - i``.

The encoder rewrites every :class:`~repro.logic.ast.Cmp` node of a
ground formula into plain boolean structure over
:class:`~repro.solver.cnf.RawLit` leaves, which the Tseitin pass then
turns into clauses.
"""

from __future__ import annotations

from repro.errors import SolverError
from repro.logic.ast import (
    Add,
    And,
    Atom,
    Card,
    Cmp,
    FalseF,
    Formula,
    Iff,
    Implies,
    IntConst,
    Not,
    NumPred,
    NumTerm,
    Or,
    Param,
    TrueF,
    conj,
)
from repro.logic.grounding import Domain, expand_card
from repro.solver.cnf import CnfBuilder, RawLit
from repro.solver.dpll import FALSE_LIT, TRUE_LIT

#: Default half-range for numeric predicates: values live in
#: ``[-DEFAULT_INT_BOUND, DEFAULT_INT_BOUND]``.
DEFAULT_INT_BOUND = 8


class IntExpr:
    """An order-encoded bounded integer.

    ``ge_lit(k)`` returns a literal equivalent to ``value >= k`` --
    :data:`TRUE_LIT` when ``k <= lo`` and :data:`FALSE_LIT` when
    ``k > hi``.
    """

    lo: int
    hi: int

    def ge_lit(self, k: int) -> int:
        raise NotImplementedError

    def ge(self, k: int) -> Formula:
        return RawLit(self.ge_lit(k))


class ConstInt(IntExpr):
    """A known integer."""

    def __init__(self, value: int) -> None:
        self.lo = self.hi = value
        self.value = value

    def ge_lit(self, k: int) -> int:
        return TRUE_LIT if self.value >= k else FALSE_LIT


class OrderInt(IntExpr):
    """A fresh integer variable with range ``[lo, hi]``."""

    def __init__(self, builder: CnfBuilder, lo: int, hi: int) -> None:
        if lo > hi:
            raise SolverError(f"empty integer range [{lo}, {hi}]")
        self.lo = lo
        self.hi = hi
        self._lits: dict[int, int] = {}
        solver = builder.solver
        previous: int | None = None
        for k in range(lo + 1, hi + 1):
            lit = solver.new_var()
            self._lits[k] = lit
            if previous is not None:
                # x >= k implies x >= k-1.
                solver.add_clause([-lit, previous])
            previous = lit

    def ge_lit(self, k: int) -> int:
        if k <= self.lo:
            return TRUE_LIT
        if k > self.hi:
            return FALSE_LIT
        return self._lits[k]

    def decode(self, value_of) -> int:
        """Read the integer value out of a SAT model.

        ``value_of`` maps a literal to a bool (the solver's ``value``).
        """
        result = self.lo
        for k in range(self.lo + 1, self.hi + 1):
            if value_of(self._lits[k]):
                result = k
            else:
                break
        return result


class SumOfBools(IntExpr):
    """Count of true literals, built with a sequential counter."""

    def __init__(self, builder: CnfBuilder, lits: list[int]) -> None:
        self.lo = 0
        self.hi = len(lits)
        # prefix[j] is a literal for "count of processed inputs >= j".
        prefix: list[int] = [TRUE_LIT]
        for lit in lits:
            updated: list[int] = [TRUE_LIT]
            for j in range(1, len(prefix) + 1):
                carried = prefix[j] if j < len(prefix) else FALSE_LIT
                took = builder.and_gate([lit, prefix[j - 1]])
                updated.append(builder.or_gate([carried, took]))
            prefix = updated
        self._bits = prefix

    def ge_lit(self, k: int) -> int:
        if k <= 0:
            return TRUE_LIT
        if k > self.hi:
            return FALSE_LIT
        return self._bits[k]


class AddExpr(IntExpr):
    """Sum of two order-encoded integers.

    ``(x + y) >= k  iff  exists i in [lo_x, hi_x]: x >= i and
    y >= k - i``.  Bits are memoised lazily; only thresholds that a
    comparison actually queries get encoded.
    """

    def __init__(self, builder: CnfBuilder, x: IntExpr, y: IntExpr) -> None:
        self._builder = builder
        self._x = x
        self._y = y
        self.lo = x.lo + y.lo
        self.hi = x.hi + y.hi
        self._cache: dict[int, int] = {}

    def ge_lit(self, k: int) -> int:
        if k <= self.lo:
            return TRUE_LIT
        if k > self.hi:
            return FALSE_LIT
        cached = self._cache.get(k)
        if cached is not None:
            return cached
        x, y, builder = self._x, self._y, self._builder
        lit = builder.or_gate(
            [
                builder.and_gate([x.ge_lit(i), y.ge_lit(k - i)])
                for i in range(x.lo, x.hi + 1)
            ]
        )
        self._cache[k] = lit
        return lit


class TheoryEncoder:
    """Rewrites comparisons of a ground formula into boolean structure.

    One encoder instance owns the integer variables for a single solver;
    numeric predicate applications are shared across all formulas encoded
    through the same instance, which is what lets a query constrain the
    same counter from several formulas (invariant, preconditions,
    post-state).
    """

    def __init__(
        self,
        builder: CnfBuilder,
        domain: Domain,
        params: dict[str, int] | None = None,
        int_bound: int = DEFAULT_INT_BOUND,
    ) -> None:
        self._builder = builder
        self._domain = domain
        self._params = dict(params or {})
        self._int_bound = int_bound
        self._numpred_vars: dict[NumPred, OrderInt] = {}
        self._card_cache: dict[Card, SumOfBools] = {}

    @property
    def numpred_vars(self) -> dict[NumPred, OrderInt]:
        return self._numpred_vars

    def param_value(self, name: str) -> int:
        try:
            return self._params[name]
        except KeyError:
            raise SolverError(
                f"no value bound for parameter {name!r}; pass it in the "
                "params mapping of the model finder"
            ) from None

    def int_for(self, numpred: NumPred) -> OrderInt:
        """The shared integer variable for a ground numeric predicate."""
        var = self._numpred_vars.get(numpred)
        if var is None:
            var = OrderInt(
                self._builder, -self._int_bound, self._int_bound
            )
            self._numpred_vars[numpred] = var
        return var

    def expr_for(self, term: NumTerm) -> IntExpr:
        """Order-encoded integer expression for a ground numeric term."""
        kind = type(term)
        if kind is IntConst:
            return ConstInt(term.value)
        if kind is Param:
            return ConstInt(self.param_value(term.name))
        if kind is NumPred:
            return self.int_for(term)
        if kind is Card:
            cached = self._card_cache.get(term)
            if cached is None:
                atoms = expand_card(term, self._domain)
                lits = [self._builder.lit_for_atom(a) for a in atoms]
                cached = SumOfBools(self._builder, lits)
                self._card_cache[term] = cached
            return cached
        if kind is Add:
            exprs = [self.expr_for(t) for t in term.terms]
            result = exprs[0]
            for nxt in exprs[1:]:
                result = AddExpr(self._builder, result, nxt)
            return result
        raise SolverError(f"unknown numeric term {term!r}")

    def encode(self, formula: Formula) -> Formula:
        """Replace every comparison with boolean structure.

        A subtree that holds no comparison comes back as the very
        object it was given, so comparison-free formulas cost a walk
        and no allocation.
        """
        kind = type(formula)
        if kind is Atom or kind is RawLit or kind is TrueF or kind is FalseF:
            return formula
        if kind is Cmp:
            return self._encode_cmp(formula)
        if kind is And or kind is Or:
            args = formula.args
            encode = self.encode
            for index, arg in enumerate(args):
                encoded = encode(arg)
                if encoded is not arg:
                    return kind(
                        args[:index]
                        + (encoded,)
                        + tuple(encode(a) for a in args[index + 1 :])
                    )
            return formula
        if kind is Not:
            arg = self.encode(formula.arg)
            return formula if arg is formula.arg else Not(arg)
        if kind is Implies or kind is Iff:
            lhs = self.encode(formula.lhs)
            rhs = self.encode(formula.rhs)
            if lhs is formula.lhs and rhs is formula.rhs:
                return formula
            return kind(lhs, rhs)
        raise SolverError(f"formula is not ground: {formula!r}")

    def _encode_cmp(self, cmp: Cmp) -> Formula:
        lhs = self.expr_for(cmp.lhs)
        rhs = self.expr_for(cmp.rhs)
        if cmp.op == "<=":
            return self._le(lhs, rhs)
        if cmp.op == "<":
            return self._lt(lhs, rhs)
        if cmp.op == ">=":
            return self._le(rhs, lhs)
        if cmp.op == ">":
            return self._lt(rhs, lhs)
        if cmp.op == "==":
            return conj((self._le(lhs, rhs), self._le(rhs, lhs)))
        if cmp.op == "!=":
            return Not(
                conj((self._le(lhs, rhs), self._le(rhs, lhs)))
            )
        raise SolverError(f"unknown comparison operator {cmp.op!r}")

    @staticmethod
    def _le(x: IntExpr, y: IntExpr) -> Formula:
        # x <= y  iff  for every k: x >= k implies y >= k.
        # Only k in (max(x.lo, y.lo), x.hi] can be violated.
        parts: list[Formula] = []
        start = max(x.lo, y.lo + 1)
        for k in range(start, x.hi + 1):
            parts.append(Or((Not(x.ge(k)), y.ge(k))))
        if x.lo > y.hi:
            return FalseF()
        return conj(parts)

    @staticmethod
    def _lt(x: IntExpr, y: IntExpr) -> Formula:
        # x < y  iff  for every k: x >= k implies y >= k + 1.
        parts: list[Formula] = []
        start = max(x.lo, y.lo)
        for k in range(start, x.hi + 1):
            parts.append(Or((Not(x.ge(k)), y.ge(k + 1))))
        if x.lo > y.hi - 1:
            return FalseF()
        return conj(parts)
