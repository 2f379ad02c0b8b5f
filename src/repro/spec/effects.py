"""Operation effects and per-predicate convergence rules.

An *effect* is an assignment to a predicate, exactly as in the paper's
annotations: ``@True("enrolled(p, t)")`` sets a boolean predicate true,
``@False`` sets it false, and numeric predicates are incremented or
decremented.  Boolean effect arguments may be wildcards
(``enrolled(*, t) = false`` clears the predicate for every first
argument), which is how IPA expresses "no player remains enrolled".

A *convergence rule* picks the CRDT semantics of a predicate: under
Add-wins, concurrent opposing assignments converge to *true*; under
Rem-wins, to *false*.  The analysis consults these rules when merging
the effects of concurrent operations (function ``isConflicting``,
Algorithm 1).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Union

from repro.errors import SpecError
from repro.logic.ast import Const, PredicateDecl, Term, Var, Wildcard, hash_once


class ConvergencePolicy(enum.Enum):
    """Conflict-resolution semantics of a predicate's backing CRDT."""

    ADD_WINS = "add-wins"
    REM_WINS = "rem-wins"
    #: Last-writer-wins: concurrent opposing assignments converge to an
    #: arbitrary but deterministic winner.  The analysis treats LWW
    #: pessimistically (either value may win), so it cannot be used to
    #: restore preconditions.
    LWW = "lww"

    @property
    def winning_value(self) -> bool | None:
        """The value opposing concurrent assignments converge to."""
        if self is ConvergencePolicy.ADD_WINS:
            return True
        if self is ConvergencePolicy.REM_WINS:
            return False
        return None


@hash_once
@dataclass(frozen=True)
class BoolEffect:
    """Assignment of a truth value to a boolean predicate.

    ``args`` are the operation's parameters (:class:`Var`), constants, or
    wildcards.  ``touch=True`` marks the effect as a *touch* (§4.2.1):
    semantically an add for visibility purposes, but implementations must
    preserve any payload associated with the element.
    """

    pred: PredicateDecl
    args: tuple[Term, ...]
    value: bool
    touch: bool = False

    def __post_init__(self) -> None:
        if self.pred.numeric:
            raise SpecError(
                f"boolean effect on numeric predicate {self.pred.name}"
            )
        self.pred.check_args(self.args)
        if self.touch and not self.value:
            raise SpecError("touch effects must assign true")

    def rename(self, mapping: Mapping[Var, Term]) -> "BoolEffect":
        return BoolEffect(
            self.pred,
            tuple(
                mapping.get(a, a) if isinstance(a, Var) else a
                for a in self.args
            ),
            self.value,
            self.touch,
        )

    @property
    def has_wildcard(self) -> bool:
        return any(isinstance(a, Wildcard) for a in self.args)

    def opposes(self, other: "Effect") -> bool:
        """Could this effect and ``other`` assign opposing values to a
        common ground atom?  (Wildcards overlap everything in their
        position; distinct variables may alias.)"""
        if not isinstance(other, BoolEffect):
            return False
        if self.pred != other.pred or self.value == other.value:
            return False
        for mine, theirs in zip(self.args, other.args):
            if isinstance(mine, Wildcard) or isinstance(theirs, Wildcard):
                continue
            if isinstance(mine, Const) and isinstance(theirs, Const):
                if mine != theirs:
                    return False
        return True

    def __str__(self) -> str:
        head = "touch" if self.touch else str(self.value).lower()
        args = ", ".join(str(a) for a in self.args)
        return f"{self.pred.name}({args}) = {head}"


@hash_once
@dataclass(frozen=True)
class NumEffect:
    """Increment (positive delta) or decrement of a numeric predicate."""

    pred: PredicateDecl
    args: tuple[Term, ...]
    delta: int

    def __post_init__(self) -> None:
        if not self.pred.numeric:
            raise SpecError(
                f"numeric effect on boolean predicate {self.pred.name}"
            )
        self.pred.check_args(self.args)
        if self.delta == 0:
            raise SpecError("numeric effect with zero delta")

    def rename(self, mapping: Mapping[Var, Term]) -> "NumEffect":
        return NumEffect(
            self.pred,
            tuple(
                mapping.get(a, a) if isinstance(a, Var) else a
                for a in self.args
            ),
            self.delta,
        )

    @property
    def has_wildcard(self) -> bool:
        return any(isinstance(a, Wildcard) for a in self.args)

    def opposes(self, other: "Effect") -> bool:
        return False  # counter increments commute; they never oppose

    def __str__(self) -> str:
        args = ", ".join(str(a) for a in self.args)
        sign = "+" if self.delta > 0 else ""
        return f"{self.pred.name}({args}) {sign}{self.delta}"


Effect = Union[BoolEffect, NumEffect]


@dataclass
class ConvergenceRules:
    """Per-predicate convergence policies, with a default.

    The paper's programmer supplies these (input ``CR`` of Algorithm 1).
    """

    policies: dict[str, ConvergencePolicy] = field(default_factory=dict)
    default: ConvergencePolicy = ConvergencePolicy.ADD_WINS

    def policy(self, pred: PredicateDecl | str) -> ConvergencePolicy:
        name = pred if isinstance(pred, str) else pred.name
        return self.policies.get(name, self.default)

    def set(self, pred: PredicateDecl | str, policy: ConvergencePolicy) -> None:
        name = pred if isinstance(pred, str) else pred.name
        self.policies[name] = policy

    def merged_value(self, pred: PredicateDecl | str) -> bool | None:
        """Value opposing concurrent assignments converge to, or None."""
        return self.policy(pred).winning_value

    def copy(self) -> "ConvergenceRules":
        return ConvergenceRules(dict(self.policies), self.default)

    @classmethod
    def from_mapping(
        cls,
        policies: Mapping[str, ConvergencePolicy | str],
        default: ConvergencePolicy = ConvergencePolicy.ADD_WINS,
    ) -> "ConvergenceRules":
        normalised = {
            name: (
                policy
                if isinstance(policy, ConvergencePolicy)
                else ConvergencePolicy(policy)
            )
            for name, policy in policies.items()
        }
        return cls(normalised, default)
