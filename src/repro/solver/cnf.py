"""Tseitin transformation of ground formulas into CNF.

:class:`CnfBuilder` wraps a :class:`~repro.solver.dpll.SatSolver` and
converts arbitrary ground boolean structure into clauses, allocating one
propositional variable per distinct ground atom and one auxiliary
variable per distinct connective node (structural hashing keeps the
encoding linear in formula size).

The encoding is polarity-aware (Plaisted and Greenbaum, J. Symb.
Comput. 1986).  A gate ``z`` for a node ``f`` needs the direction
``z -> f`` only where ``f`` occurs positively and ``f -> z`` only where
it occurs negatively; a verdict-only caller encodes at the formula's own
polarity (:data:`POS` for an assertion) and gets equisatisfiable CNF
with fewer clauses.  Each gate records the directions it has emitted,
so a later formula meeting it in the other polarity adds exactly the
missing clauses, once.  :data:`BOTH` emits full equivalences, in the
same clause order as a plain Tseitin pass; it is what
:meth:`CnfBuilder.tseitin` and every model-producing caller use.

Numeric comparisons are not handled here: the theory layer
(:mod:`repro.solver.theory`) rewrites each :class:`~repro.logic.ast.Cmp`
node into boolean structure whose leaves are :class:`RawLit` wrappers
around already-allocated solver literals.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import SolverError
from repro.logic.ast import (
    And,
    Atom,
    Cmp,
    FalseF,
    Formula,
    Iff,
    Implies,
    Not,
    Or,
    TrueF,
)
from repro.solver.dpll import FALSE_LIT, TRUE_LIT, SatSolver

#: Polarities, as bit sets of gate directions: :data:`POS` needs
#: ``z -> f``, :data:`NEG` needs ``f -> z``, :data:`BOTH` needs both.
POS = 1
NEG = 2
BOTH = POS | NEG
#: The polarity a child inherits under negation.
_FLIP = (0, NEG, POS, BOTH)


@dataclass(frozen=True)
class RawLit(Formula):
    """A formula leaf that is already a solver literal.

    The theory encoder produces these when rewriting comparisons; the
    Tseitin pass treats them like atoms whose variable is pre-allocated.
    """

    lit: int

    def __str__(self) -> str:  # pragma: no cover - debug aid
        return f"<lit {self.lit}>"


class CnfBuilder:
    """Incrementally encode formulas into a shared SAT solver."""

    def __init__(self, solver: SatSolver) -> None:
        self._solver = solver
        self._atom_vars: dict[Atom, int] = {}
        # Gate key -> (variable, directions emitted so far).
        self._node_cache: dict[tuple, tuple[int, int]] = {}

    @property
    def solver(self) -> SatSolver:
        return self._solver

    @property
    def atom_vars(self) -> dict[Atom, int]:
        """Mapping from ground atom to its propositional variable."""
        return self._atom_vars

    def lit_for_atom(self, atom: Atom) -> int:
        """The (positive) literal representing a ground atom."""
        var = self._atom_vars.get(atom)
        if var is None:
            var = self._solver.new_var()
            self._atom_vars[atom] = var
        return var

    def assert_formula(self, formula: Formula) -> None:
        """Constrain the solver so every model satisfies ``formula``."""
        self._solver.add_clause([self.tseitin(formula)])

    def tseitin(self, formula: Formula) -> int:
        """Return a literal equivalent to ``formula`` (adding clauses)."""
        return self.encode(formula, BOTH)

    def encode(self, formula: Formula, polarity: int) -> int:
        """Return a literal for ``formula`` at ``polarity`` (adding clauses).

        The literal implies ``formula`` if ``polarity`` has :data:`POS`,
        and is implied by it if ``polarity`` has :data:`NEG`.
        """
        kind = type(formula)
        if kind is Atom:
            return self.lit_for_atom(formula)
        if kind is RawLit:
            return formula.lit
        if kind is Not:
            return -self.encode(formula.arg, _FLIP[polarity])
        if kind is And or kind is Or:
            encode = self.encode
            return self._gate(
                kind is And,
                [encode(arg, polarity) for arg in formula.args],
                polarity,
            )
        if kind is Implies:
            return self._gate(
                False,
                [
                    -self.encode(formula.lhs, _FLIP[polarity]),
                    self.encode(formula.rhs, polarity),
                ],
                polarity,
            )
        if kind is Iff:
            return self._iff(
                self.encode(formula.lhs, BOTH),
                self.encode(formula.rhs, BOTH),
                polarity,
            )
        if kind is TrueF:
            return TRUE_LIT
        if kind is FalseF:
            return FALSE_LIT
        if kind is Cmp:
            raise SolverError(
                "comparison reached the CNF layer; run the theory encoder "
                f"first: {formula}"
            )
        raise SolverError(f"cannot encode formula node {formula!r}")

    # -- gates ---------------------------------------------------------------

    def and_gate(self, lits: list[int]) -> int:
        """A literal equivalent to the conjunction of ``lits``."""
        return self._gate(True, lits, BOTH)

    def or_gate(self, lits: list[int]) -> int:
        """A literal equivalent to the disjunction of ``lits``."""
        return self._gate(False, lits, BOTH)

    def _gate(self, is_and: bool, lits: list[int], polarity: int) -> int:
        # Constant folding keeps the clause database small.
        if is_and:
            if FALSE_LIT in lits:
                return FALSE_LIT
            if TRUE_LIT in lits:
                lits = [l for l in lits if l != TRUE_LIT]
            if not lits:
                return TRUE_LIT
        else:
            if TRUE_LIT in lits:
                return TRUE_LIT
            if FALSE_LIT in lits:
                lits = [l for l in lits if l != FALSE_LIT]
            if not lits:
                return FALSE_LIT
        if len(lits) == 1:
            return lits[0]
        key = ("and" if is_and else "or",) + tuple(sorted(lits))
        z, missing = self._directions(key, polarity)
        add = self._solver.add_clause
        if is_and:
            if missing & POS:
                for lit in lits:
                    add([-z, lit])
            if missing & NEG:
                add([z] + [-lit for lit in lits])
        else:
            if missing & NEG:
                for lit in lits:
                    add([z, -lit])
            if missing & POS:
                add([-z] + lits)
        return z

    def _iff(self, a: int, b: int, polarity: int) -> int:
        if a == TRUE_LIT:
            return b
        if b == TRUE_LIT:
            return a
        if a == FALSE_LIT:
            return -b
        if b == FALSE_LIT:
            return -a
        if a == b:
            return TRUE_LIT
        if a == -b:
            return FALSE_LIT
        key = ("iff",) + tuple(sorted((a, b), key=abs))
        z, missing = self._directions(key, polarity)
        add = self._solver.add_clause
        if missing & POS:
            add([-z, -a, b])
            add([-z, a, -b])
        if missing & NEG:
            add([z, a, b])
            add([z, -a, -b])
        return z

    def _directions(self, key: tuple, polarity: int) -> tuple[int, int]:
        """The gate variable for ``key`` and the directions of
        ``polarity`` it has not emitted yet (recorded as emitted: the
        caller adds their clauses)."""
        cached = self._node_cache.get(key)
        if cached is None:
            z = self._solver.new_var()
            self._node_cache[key] = (z, polarity)
            return z, polarity
        z, done = cached
        missing = polarity & ~done
        if missing:
            self._node_cache[key] = (z, done | polarity)
        return z, missing
