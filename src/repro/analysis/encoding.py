"""Encoding of operation effects as state-transition constraints.

The conflict query (Figure 2 of the paper) involves four database
states: the common initial state ``S``, the two single-operation states
``S1 = op1(S)`` and ``S2 = op2(S)``, and the merged state
``Sm = merge(S1, S2)``.  We encode each state as a *family* of renamed
predicates (``enrolled@1``, ``enrolled@m``, ...) and constrain the
families with assignment and frame axioms:

- an atom assigned by an operation's effects is pinned to the assigned
  value;
- an atom assigned opposing values by *both* operations is pinned to the
  value chosen by the predicate's convergence rule (Add-wins: true,
  Rem-wins: false; LWW: left unconstrained, i.e. either replica's value
  may survive, which is the sound pessimistic treatment);
- every other atom keeps its initial value (frame);
- a numeric predicate's merged value is the initial value plus the sum
  of both operations' deltas (counter CRDT semantics).

Most atoms of a state are frame: an operation assigns a handful.  The
frame of a family over a domain shape is therefore built once, as a
:class:`StateFrame`, and encoding a state copies it and overwrites the
positions its effects assign.  The result is the same formula, node for
node, as a per-atom walk over every ground atom would build, so its
rendering -- and every solver-cache key over it -- does not depend on
which of the two built it.  An effect on a term outside the frame raises
:class:`~repro.errors.AnalysisError` rather than being dropped.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterable, Mapping

from repro.errors import AnalysisError
from repro.logic.ast import (
    Add,
    And,
    Atom,
    Card,
    Cmp,
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
    PredicateDecl,
    TrueF,
    conj,
)
from repro.logic.grounding import Domain, expand_wildcard_args
from repro.spec.effects import BoolEffect, ConvergenceRules, Effect, NumEffect


def family(pred: PredicateDecl, tag: str) -> PredicateDecl:
    """The renamed copy of ``pred`` for state family ``tag``."""
    if not tag:
        return pred
    return PredicateDecl(f"{pred.name}@{tag}", pred.arg_sorts, pred.numeric)


def rename_formula(formula: Formula, tag: str) -> Formula:
    """Rewrite every predicate of ``formula`` into family ``tag``."""
    if not tag:
        return formula
    if isinstance(formula, (TrueF, FalseF)):
        return formula
    if isinstance(formula, Atom):
        return Atom(family(formula.pred, tag), formula.args)
    if isinstance(formula, Cmp):
        return Cmp(
            formula.op,
            _rename_num(formula.lhs, tag),
            _rename_num(formula.rhs, tag),
        )
    if isinstance(formula, Not):
        return Not(rename_formula(formula.arg, tag))
    if isinstance(formula, And):
        return And(tuple(rename_formula(a, tag) for a in formula.args))
    if isinstance(formula, Or):
        return Or(tuple(rename_formula(a, tag) for a in formula.args))
    if isinstance(formula, Implies):
        return Implies(
            rename_formula(formula.lhs, tag), rename_formula(formula.rhs, tag)
        )
    if isinstance(formula, Iff):
        return Iff(
            rename_formula(formula.lhs, tag), rename_formula(formula.rhs, tag)
        )
    if isinstance(formula, (ForAll, Exists)):
        return type(formula)(
            formula.vars, rename_formula(formula.body, tag)
        )
    raise AnalysisError(f"cannot rename formula node {formula!r}")


def _rename_num(term: NumTerm, tag: str) -> NumTerm:
    if isinstance(term, (IntConst, Param)):
        return term
    if isinstance(term, NumPred):
        return NumPred(family(term.pred, tag), term.args)
    if isinstance(term, Card):
        return Card(family(term.pred, tag), term.args)
    if isinstance(term, Add):
        return Add(tuple(_rename_num(t, tag) for t in term.terms))
    raise AnalysisError(f"cannot rename numeric term {term!r}")


@dataclass
class GroundEffects:
    """Ground effect maps of one instantiated operation.

    ``bool_assigns`` maps each affected ground atom to its assigned
    value; wildcard effects have been expanded over the domain.
    Specific (non-wildcard) assignments take precedence over wildcard
    ones, matching the runtime where a targeted add/remove is issued
    after a predicate-scoped one inside the same transaction.
    """

    bool_assigns: dict[Atom, bool] = field(default_factory=dict)
    num_deltas: dict[NumPred, int] = field(default_factory=dict)

    @classmethod
    def from_effects(
        cls, effects: Iterable[Effect], domain: Domain
    ) -> "GroundEffects":
        ground = cls()
        specific: dict[Atom, bool] = {}
        wildcard: dict[Atom, bool] = {}
        for effect in effects:
            if isinstance(effect, BoolEffect):
                target = wildcard if effect.has_wildcard else specific
                for args in expand_wildcard_args(
                    effect.pred, effect.args, domain
                ):
                    atom = Atom(effect.pred, args)
                    if target is specific and atom in specific and (
                        specific[atom] != effect.value
                    ):
                        raise AnalysisError(
                            f"operation assigns both values to {atom}"
                        )
                    target[atom] = effect.value
            elif isinstance(effect, NumEffect):
                for args in expand_wildcard_args(
                    effect.pred, effect.args, domain
                ):
                    numpred = NumPred(effect.pred, args)
                    ground.num_deltas[numpred] = (
                        ground.num_deltas.get(numpred, 0) + effect.delta
                    )
            else:  # pragma: no cover - exhaustive over Effect
                raise AnalysisError(f"unknown effect {effect!r}")
        ground.bool_assigns = {**wildcard, **specific}
        return ground


def _all_ground_atoms(
    preds: Iterable[PredicateDecl], domain: Domain
) -> Iterable[Atom]:
    for pred in preds:
        if pred.numeric:
            continue
        pools = [domain.of(sort) for sort in pred.arg_sorts]
        for combo in itertools.product(*pools):
            yield Atom(pred, combo)


def _all_ground_numpreds(
    preds: Iterable[PredicateDecl], domain: Domain
) -> Iterable[NumPred]:
    for pred in preds:
        if not pred.numeric:
            continue
        pools = [domain.of(sort) for sort in pred.arg_sorts]
        for combo in itertools.product(*pools):
            yield NumPred(pred, combo)


#: Stands in for a constraint left out: :func:`conj` drops it.
_UNCONSTRAINED = TrueF()


class StateFrame:
    """The constraints of state family ``tag`` when no effect applies.

    ``frame`` holds ``renamed <=> atom`` per ground atom, then
    ``renamed_num == numpred`` per ground numeric term, in
    :func:`_all_ground_atoms` / :func:`_all_ground_numpreds` order.
    ``atom_index`` and ``num_index`` give each term's position, and
    ``pinned[i]`` is ``(not renamed, renamed)`` for boolean position
    ``i``, indexed by the value an effect assigns.  The frame depends
    only on the tag, the predicates and the domain's constants, so one
    is built per (tag, domain shape) and every query over that shape
    copies it.
    """

    __slots__ = ("tag", "frame", "atom_index", "num_index", "pinned")

    def __init__(
        self, tag: str, preds: Iterable[PredicateDecl], domain: Domain
    ) -> None:
        preds = list(preds)
        self.tag = tag
        self.frame: list[Formula] = []
        self.atom_index: dict[Atom, int] = {}
        self.num_index: dict[NumPred, int] = {}
        self.pinned: list[tuple[Formula, Formula]] = []
        for atom in _all_ground_atoms(preds, domain):
            renamed = Atom(family(atom.pred, tag), atom.args)
            self.atom_index[atom] = len(self.frame)
            self.frame.append(Iff(renamed, atom))
            self.pinned.append((Not(renamed), renamed))
        for numpred in _all_ground_numpreds(preds, domain):
            renamed_num = NumPred(family(numpred.pred, tag), numpred.args)
            self.num_index[numpred] = len(self.frame)
            self.frame.append(Cmp("==", renamed_num, numpred))

    def _position(self, index: Mapping, term) -> int:
        position = index.get(term)
        if position is None:
            raise AnalysisError(
                f"an effect assigns {term}, which is not a ground term "
                f"of state family {self.tag!r}"
            )
        return position

    def pin(self, parts: list[Formula], atom: Atom, value: bool) -> None:
        """Constrain ``atom``'s renamed copy in ``parts`` to ``value``."""
        position = self._position(self.atom_index, atom)
        parts[position] = self.pinned[position][value]

    def leave_out(self, parts: list[Formula], atom: Atom) -> None:
        """Drop ``atom``'s renamed copy from ``parts``: it is free."""
        parts[self._position(self.atom_index, atom)] = _UNCONSTRAINED

    def shift(
        self, parts: list[Formula], deltas: Mapping[NumPred, int]
    ) -> None:
        """Constrain each numeric copy in ``parts`` to base + delta."""
        for numpred, delta in deltas.items():
            position = self._position(self.num_index, numpred)
            if delta:
                same = self.frame[position]
                parts[position] = Cmp(
                    "==", same.lhs, Add((same.rhs, IntConst(delta)))
                )


def single_state_constraints(
    frame: StateFrame, effects: GroundEffects
) -> Formula:
    """Constraints defining state ``frame.tag``: the base after ``effects``."""
    parts = list(frame.frame)
    for atom, value in effects.bool_assigns.items():
        frame.pin(parts, atom, value)
    frame.shift(parts, effects.num_deltas)
    return conj(parts)


def merged_state_constraints(
    frame: StateFrame,
    effects1: GroundEffects,
    effects2: GroundEffects,
    rules: ConvergenceRules,
) -> Formula:
    """Constraints defining the merged state of two concurrent operations."""
    parts = list(frame.frame)
    assigns2 = effects2.bool_assigns
    for atom, v1 in effects1.bool_assigns.items():
        v2 = assigns2.get(atom, v1)
        value = v1 if v1 == v2 else rules.merged_value(atom.pred)
        if value is None:
            frame.leave_out(parts, atom)  # LWW: either value may win
        else:
            frame.pin(parts, atom, value)
    for atom, v2 in assigns2.items():
        if atom not in effects1.bool_assigns:
            frame.pin(parts, atom, v2)
    deltas = dict(effects1.num_deltas)
    for numpred, delta in effects2.num_deltas.items():
        deltas[numpred] = deltas.get(numpred, 0) + delta
    frame.shift(parts, deltas)
    return conj(parts)
