"""Abstract syntax for the IPA specification logic.

The language is many-sorted first-order logic with two predicate kinds:

- *boolean* predicates over entity sorts (``enrolled(p, t)``), and
- *numeric* predicates, integer-valued functions of entity arguments
  (``stock(i)``), plus cardinality terms over boolean predicates
  (``#enrolled(*, t)``).

This is exactly the fragment used by the paper's annotations (Figure 1):
universally quantified clauses whose bodies combine boolean atoms with
``and``/``or``/``not``/``=>`` and compare numeric terms against constants
or symbolic parameters such as ``Capacity``.

All nodes are immutable (frozen dataclasses) so they can be used as
dictionary keys and set members, which the grounding and analysis layers
rely on heavily.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Union

from repro.errors import ArityError, SortError


def hash_once(cls):
    """Memoise a frozen dataclass's field hash on each instance.

    The generated ``__hash__`` re-hashes every field on every call, and
    a ground atom's fields nest its predicate declaration and sorts, so
    the solver's atom table and the analysis's operation-keyed caches
    paid for the whole tree at each look-up.  Instances are immutable,
    so the first hash is kept as ``_hash`` in the instance ``__dict__``
    (beside ``_str``; neither is a field, so equality, ordering and
    ``repr`` are unchanged).

    ``str`` hashes are salted per process, so the memo must not travel:
    ``__getstate__`` leaves ``_hash`` out of pickles and copies, and the
    receiving process hashes afresh.
    """
    field_hash = cls.__hash__

    def __hash__(self):
        value = self._hash
        if value is None:
            value = field_hash(self)
            object.__setattr__(self, "_hash", value)
        return value

    def __getstate__(self):
        state = self.__dict__
        if "_hash" in state:
            state = dict(state)
            del state["_hash"]
        return state

    cls._hash = None  # until an instance's first hash shadows it
    cls.__hash__ = __hash__
    cls.__getstate__ = __getstate__
    return cls

# ---------------------------------------------------------------------------
# Sorts and terms
# ---------------------------------------------------------------------------


@hash_once
@dataclass(frozen=True, order=True)
class Sort:
    """An entity sort (type), e.g. ``Player`` or ``Tournament``."""

    name: str

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.name


@hash_once
@dataclass(frozen=True, order=True)
class Var:
    """A sorted first-order variable, e.g. ``p : Player``."""

    name: str
    sort: Sort

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.name


@hash_once
@dataclass(frozen=True, order=True)
class Const:
    """A sorted domain constant, e.g. a concrete player ``p0``."""

    name: str
    sort: Sort

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.name


@hash_once
@dataclass(frozen=True, order=True)
class Wildcard:
    """The ``*`` argument used in effects and cardinality terms.

    ``enrolled(*, t) = False`` means: for every value of the first
    argument.  ``#enrolled(*, t)`` counts over every value of the first
    argument.  A wildcard carries its sort so grounding knows which domain
    to expand it over.
    """

    sort: Sort

    def __str__(self) -> str:  # pragma: no cover - trivial
        return "*"


Term = Union[Var, Const, Wildcard]


# ---------------------------------------------------------------------------
# Predicate declarations
# ---------------------------------------------------------------------------


@hash_once
@dataclass(frozen=True, order=True)
class PredicateDecl:
    """Declaration of a predicate: name, argument sorts and kind.

    ``numeric=False`` declares a boolean predicate (a relation);
    ``numeric=True`` declares an integer-valued function (a counter-like
    predicate such as ``stock``).
    """

    name: str
    arg_sorts: tuple[Sort, ...]
    numeric: bool = False

    @property
    def arity(self) -> int:
        return len(self.arg_sorts)

    def __call__(self, *args: Term) -> "Atom | NumPred":
        """Apply the predicate to terms, returning an atom.

        Boolean predicates produce :class:`Atom`; numeric ones produce a
        :class:`NumPred` term that must be wrapped in a comparison.
        """
        self.check_args(args)
        if self.numeric:
            return NumPred(self, tuple(args))
        return Atom(self, tuple(args))

    def check_args(self, args: Iterable[Term]) -> None:
        args = tuple(args)
        if len(args) != self.arity:
            raise ArityError(
                f"predicate {self.name}/{self.arity} applied to "
                f"{len(args)} arguments"
            )
        for expected, term in zip(self.arg_sorts, args):
            if term.sort != expected:
                raise SortError(
                    f"predicate {self.name}: argument {term} has sort "
                    f"{term.sort.name}, expected {expected.name}"
                )

    def __str__(self) -> str:  # pragma: no cover - trivial
        kind = "num" if self.numeric else "bool"
        sorts = ", ".join(s.name for s in self.arg_sorts)
        return f"{self.name}({sorts}) : {kind}"


# ---------------------------------------------------------------------------
# Numeric terms
# ---------------------------------------------------------------------------


@hash_once
@dataclass(frozen=True)
class IntConst:
    """An integer literal appearing in a comparison."""

    value: int

    def __str__(self) -> str:  # pragma: no cover - trivial
        return str(self.value)


@hash_once
@dataclass(frozen=True)
class Param:
    """A symbolic integer parameter, e.g. ``Capacity``.

    Parameters are bound to concrete values at analysis time via the
    solver's parameter environment.
    """

    name: str

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.name


@hash_once
@dataclass(frozen=True)
class NumPred:
    """Application of a numeric predicate, e.g. ``stock(i)``."""

    pred: PredicateDecl
    args: tuple[Term, ...]

    def __post_init__(self) -> None:
        if not self.pred.numeric:
            raise SortError(
                f"predicate {self.pred.name} is boolean; use Atom instead"
            )
        self.pred.check_args(self.args)

    def __str__(self) -> str:  # pragma: no cover - trivial
        return f"{self.pred.name}({', '.join(map(str, self.args))})"


@hash_once
@dataclass(frozen=True)
class Card:
    """Cardinality of a boolean predicate, e.g. ``#enrolled(*, t)``.

    Counts the tuples matching the argument pattern; ``Wildcard``
    positions range over their whole domain.
    """

    pred: PredicateDecl
    args: tuple[Term, ...]

    def __post_init__(self) -> None:
        if self.pred.numeric:
            raise SortError(
                f"cannot take cardinality of numeric predicate "
                f"{self.pred.name}"
            )
        self.pred.check_args(self.args)

    def __str__(self) -> str:  # pragma: no cover - trivial
        return f"#{self.pred.name}({', '.join(map(str, self.args))})"


@hash_once
@dataclass(frozen=True)
class Add:
    """Sum of numeric terms (used rarely; kept linear and flat)."""

    terms: tuple["NumTerm", ...]

    def __str__(self) -> str:  # pragma: no cover - trivial
        return " + ".join(map(str, self.terms))


NumTerm = Union[IntConst, Param, NumPred, Card, Add]


# ---------------------------------------------------------------------------
# Formulas
# ---------------------------------------------------------------------------


class Formula:
    """Base class for formula nodes.

    Provides operator sugar so specs can be written in Python:
    ``a & b``, ``a | b``, ``~a``, ``a >> b`` (implies).
    """

    __slots__ = ()

    def __and__(self, other: "Formula") -> "And":
        return And((self, other))

    def __or__(self, other: "Formula") -> "Or":
        return Or((self, other))

    def __invert__(self) -> "Not":
        return Not(self)

    def __rshift__(self, other: "Formula") -> "Implies":
        return Implies(self, other)


def _memo_str(node: "Formula", text: str) -> str:
    """Cache ``text`` as ``node``'s rendering and return it.

    Composite nodes memoise their ``str`` form: nodes are immutable and
    shared heavily (ground invariants are reused by thousands of solver
    queries), and the solver cache addresses queries by this rendering,
    so re-deriving it dominates warm-cache analysis time otherwise.
    Frozen dataclasses still carry a ``__dict__``, which keeps the memo
    out of field-based equality, hashing and ``repr``.
    """
    object.__setattr__(node, "_str", text)
    return text


@hash_once
@dataclass(frozen=True)
class TrueF(Formula):
    """The constant ``true``."""

    def __str__(self) -> str:  # pragma: no cover - trivial
        return "true"


@hash_once
@dataclass(frozen=True)
class FalseF(Formula):
    """The constant ``false``."""

    def __str__(self) -> str:  # pragma: no cover - trivial
        return "false"


@hash_once
@dataclass(frozen=True)
class Atom(Formula):
    """A boolean predicate applied to terms, e.g. ``enrolled(p, t)``."""

    pred: PredicateDecl
    args: tuple[Term, ...]

    def __post_init__(self) -> None:
        if self.pred.numeric:
            raise SortError(
                f"predicate {self.pred.name} is numeric; "
                "wrap it in a comparison"
            )
        self.pred.check_args(self.args)

    def __str__(self) -> str:  # pragma: no cover - trivial
        return f"{self.pred.name}({', '.join(map(str, self.args))})"


# Comparison operators accepted by Cmp.
CMP_OPS = ("<=", "<", ">=", ">", "==", "!=")


@hash_once
@dataclass(frozen=True)
class Cmp(Formula):
    """Comparison between two numeric terms, e.g. ``#enrolled(*, t) <= C``."""

    op: str
    lhs: NumTerm
    rhs: NumTerm

    def __post_init__(self) -> None:
        if self.op not in CMP_OPS:
            raise SortError(f"unknown comparison operator {self.op!r}")

    def __str__(self) -> str:  # pragma: no cover - trivial
        return f"{self.lhs} {self.op} {self.rhs}"


@hash_once
@dataclass(frozen=True)
class Not(Formula):
    arg: Formula

    def __str__(self) -> str:
        return self.__dict__.get("_str") or _memo_str(
            self, f"not ({self.arg})"
        )


@hash_once
@dataclass(frozen=True)
class And(Formula):
    args: tuple[Formula, ...]

    def __str__(self) -> str:
        return self.__dict__.get("_str") or _memo_str(
            self, " and ".join(f"({a})" for a in self.args)
        )


@hash_once
@dataclass(frozen=True)
class Or(Formula):
    args: tuple[Formula, ...]

    def __str__(self) -> str:
        return self.__dict__.get("_str") or _memo_str(
            self, " or ".join(f"({a})" for a in self.args)
        )


@hash_once
@dataclass(frozen=True)
class Implies(Formula):
    lhs: Formula
    rhs: Formula

    def __str__(self) -> str:
        return self.__dict__.get("_str") or _memo_str(
            self, f"({self.lhs}) => ({self.rhs})"
        )


@hash_once
@dataclass(frozen=True)
class Iff(Formula):
    lhs: Formula
    rhs: Formula

    def __str__(self) -> str:
        return self.__dict__.get("_str") or _memo_str(
            self, f"({self.lhs}) <=> ({self.rhs})"
        )


def _binders(variables: tuple[Var, ...]) -> str:
    return ", ".join(f"{v.sort.name}: {v.name}" for v in variables)


@hash_once
@dataclass(frozen=True)
class ForAll(Formula):
    vars: tuple[Var, ...]
    body: Formula

    def __str__(self) -> str:
        return self.__dict__.get("_str") or _memo_str(
            self, f"forall({_binders(self.vars)}) :- {self.body}"
        )


@hash_once
@dataclass(frozen=True)
class Exists(Formula):
    vars: tuple[Var, ...]
    body: Formula

    def __str__(self) -> str:
        return self.__dict__.get("_str") or _memo_str(
            self, f"exists({_binders(self.vars)}) :- {self.body}"
        )


def conj(formulas: Iterable[Formula]) -> Formula:
    """Conjoin a sequence of formulas, flattening trivial cases."""
    items = [f for f in formulas if not isinstance(f, TrueF)]
    if any(isinstance(f, FalseF) for f in items):
        return FalseF()
    if not items:
        return TrueF()
    if len(items) == 1:
        return items[0]
    return And(tuple(items))


def disj(formulas: Iterable[Formula]) -> Formula:
    """Disjoin a sequence of formulas, flattening trivial cases."""
    items = [f for f in formulas if not isinstance(f, FalseF)]
    if any(isinstance(f, TrueF) for f in items):
        return TrueF()
    if not items:
        return FalseF()
    if len(items) == 1:
        return items[0]
    return Or(tuple(items))
