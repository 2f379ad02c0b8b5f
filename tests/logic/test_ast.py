"""Unit tests for the formula AST."""

import pytest

from repro.errors import ArityError, SortError
from repro.logic.ast import (
    And,
    Atom,
    Card,
    Cmp,
    Const,
    Exists,
    FalseF,
    ForAll,
    Implies,
    IntConst,
    Not,
    NumPred,
    Or,
    Param,
    PredicateDecl,
    Sort,
    TrueF,
    Var,
    Wildcard,
    conj,
    disj,
)

PLAYER = Sort("Player")
TOURN = Sort("Tournament")
player = PredicateDecl("player", (PLAYER,))
enrolled = PredicateDecl("enrolled", (PLAYER, TOURN))
stock = PredicateDecl("stock", (PLAYER,), numeric=True)
p = Var("p", PLAYER)
t = Var("t", TOURN)


class TestPredicateDecl:
    def test_call_builds_atom(self):
        atom = player(p)
        assert isinstance(atom, Atom)
        assert atom.pred is player
        assert atom.args == (p,)

    def test_call_numeric_builds_numpred(self):
        term = stock(p)
        assert isinstance(term, NumPred)

    def test_arity_checked(self):
        with pytest.raises(ArityError):
            enrolled(p)

    def test_sort_checked(self):
        with pytest.raises(SortError):
            player(t)

    def test_wildcard_sort_checked(self):
        with pytest.raises(SortError):
            enrolled(Wildcard(TOURN), Wildcard(TOURN))


class TestAtomValidation:
    def test_atom_rejects_numeric_pred(self):
        with pytest.raises(SortError):
            Atom(stock, (p,))

    def test_numpred_rejects_boolean_pred(self):
        with pytest.raises(SortError):
            NumPred(player, (p,))

    def test_card_rejects_numeric_pred(self):
        with pytest.raises(SortError):
            Card(stock, (p,))


class TestOperatorSugar:
    def test_and(self):
        formula = player(p) & enrolled(p, t)
        assert isinstance(formula, And)
        assert len(formula.args) == 2

    def test_or(self):
        formula = player(p) | enrolled(p, t)
        assert isinstance(formula, Or)

    def test_not(self):
        formula = ~player(p)
        assert isinstance(formula, Not)
        assert formula.arg == player(p)

    def test_implies(self):
        formula = enrolled(p, t) >> player(p)
        assert isinstance(formula, Implies)
        assert formula.lhs == enrolled(p, t)


class TestCmp:
    def test_valid_ops(self):
        for op in ("<=", "<", ">=", ">", "==", "!="):
            Cmp(op, stock(p), IntConst(3))

    def test_invalid_op(self):
        with pytest.raises(SortError):
            Cmp("===", stock(p), IntConst(3))

    def test_param_side(self):
        cmp = Cmp("<=", Card(enrolled, (Wildcard(PLAYER), t)), Param("Cap"))
        assert isinstance(cmp.rhs, Param)


class TestConjDisj:
    def test_conj_empty_is_true(self):
        assert isinstance(conj([]), TrueF)

    def test_conj_singleton_unwrapped(self):
        assert conj([player(p)]) == player(p)

    def test_conj_false_annihilates(self):
        assert isinstance(conj([player(p), FalseF()]), FalseF)

    def test_conj_drops_true(self):
        assert conj([TrueF(), player(p)]) == player(p)

    def test_disj_empty_is_false(self):
        assert isinstance(disj([]), FalseF)

    def test_disj_true_annihilates(self):
        assert isinstance(disj([player(p), TrueF()]), TrueF)

    def test_disj_drops_false(self):
        assert disj([FalseF(), player(p)]) == player(p)


class TestEquality:
    def test_atoms_structural_equality(self):
        assert player(p) == Atom(player, (p,))
        assert player(p) != player(Var("q", PLAYER))

    def test_atoms_hashable(self):
        c0 = Const("p0", PLAYER)
        assert len({Atom(player, (c0,)), Atom(player, (c0,))}) == 1

    def test_formula_nesting_equality(self):
        f1 = enrolled(p, t) >> (player(p) & Atom(player, (p,)))
        f2 = enrolled(p, t) >> (player(p) & Atom(player, (p,)))
        assert f1 == f2


class TestRendering:
    @pytest.mark.parametrize(
        "quantifier, text",
        [
            (ForAll, "forall(Player: p, Tournament: t) :- "
                     "(enrolled(p, t)) => (player(p))"),
            (Exists, "exists(Player: p, Tournament: t) :- "
                     "(enrolled(p, t)) => (player(p))"),
        ],
    )
    def test_quantifier_render_is_memoised(
        self, quantifier, text, monkeypatch
    ):
        """A rendered quantifier answers from its memo: the binder list is
        not rebuilt, and the text is what the first render produced."""
        formula = quantifier((p, t), enrolled(p, t) >> player(p))
        assert str(formula) == text

        def rebuilt(_variables):
            raise AssertionError("binder list rebuilt")

        monkeypatch.setattr("repro.logic.ast._binders", rebuilt)
        assert str(formula) == text
