"""The bounded model finder: the analysis-facing solver façade.

A :class:`BoundedModelFinder` answers the single question the IPA
analysis needs: *is there a small database state satisfying this set of
first-order constraints?*  It grounds each formula over a finite domain
(:mod:`repro.logic.grounding`), rewrites numeric comparisons with the
order-encoding theory (:mod:`repro.solver.theory`), converts the result
to CNF (:mod:`repro.solver.cnf`) and runs the CDCL solver
(:mod:`repro.solver.dpll`).  On SAT, the witness is decoded into a
:class:`~repro.solver.models.Model` -- the concrete counterexample
state shown in conflict reports.

:class:`IncrementalSession` keeps one solver alive across a family of
queries that share a common base (the conflict scan probing many pairs
against the same invariant copies, the repair loop probing many
candidate operations against the same invariants and preconditions),
asserting per-query constraints under activation literals and solving
with ``assumptions`` so the CNF and learned clauses are built once.

Every query's verdict comes from a session.  The finder is the witness
path: it re-solves a query only once a session has found it SAT and
its model is about to be reported.  Sessions therefore encode each
formula at its own polarity (fewer clauses, same verdict), while the
finder encodes full equivalences, so its clause stream -- and every
witness it decodes -- is that of a plain Tseitin pass.  (Whole-query
memoisation lives one layer up, in :mod:`repro.analysis.cache`.)
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.logic.ast import Formula
from repro.logic.grounding import Domain, ground
from repro.obs import TRACER
from repro.solver.cnf import POS, CnfBuilder
from repro.solver.dpll import SatSolver, SolverCounters
from repro.solver.models import Model
from repro.solver.theory import DEFAULT_INT_BOUND, TheoryEncoder


@dataclass
class SmtResult:
    """Outcome of a satisfiability query."""

    sat: bool
    model: Model | None = None

    def __bool__(self) -> bool:
        return self.sat


class BoundedModelFinder:
    """One-shot satisfiability over a finite domain.

    Example::

        finder = BoundedModelFinder(domain, params={"Capacity": 2})
        result = finder.check(invariant, precondition, Not(post_invariant))
        if result.sat:
            print(result.model.describe())

    Each :meth:`check` call builds a fresh solver, which keeps the
    witness fully deterministic: the same query always decodes into the
    same model, which is what lets cached and uncached analysis runs
    produce byte-identical reports.
    """

    def __init__(
        self,
        domain: Domain,
        params: dict[str, int] | None = None,
        int_bound: int = DEFAULT_INT_BOUND,
    ) -> None:
        self._domain = domain
        self._params = dict(params or {})
        self._int_bound = int_bound
        #: Search-effort totals over every solver this finder ran
        #: (decisions, propagations, conflicts, ...).
        self.counters = SolverCounters()

    @property
    def domain(self) -> Domain:
        return self._domain

    @property
    def params(self) -> dict[str, int]:
        return dict(self._params)

    def check(self, *formulas: Formula) -> SmtResult:
        """Satisfiability of the conjunction of ``formulas``."""
        return self.check_ground(
            *(ground(formula, self._domain) for formula in formulas)
        )

    def check_ground(self, *formulas: Formula) -> SmtResult:
        """Like :meth:`check`, for formulas already ground.

        Callers that build (or cache) ground formulas themselves --
        the conflict checker grounds the invariant once per domain
        shape, and state-transition constraints are ground by
        construction -- use this entry point to skip re-grounding.
        """
        span = TRACER.start("solver.check", formulas=len(formulas))
        solver = SatSolver()
        builder = CnfBuilder(solver)
        encoder = TheoryEncoder(
            builder, self._domain, self._params, self._int_bound
        )
        for formula in formulas:
            builder.assert_formula(encoder.encode(formula))
        sat = solver.solve()
        self.counters.add_solver(solver)
        if span is not None:
            TRACER.end(
                span,
                sat=sat,
                decisions=solver.decisions,
                propagations=solver.propagations,
                conflicts=solver.conflicts,
                restarts=solver.restarts,
                learned_clauses=solver.learned_clauses,
            )
        if not sat:
            return SmtResult(sat=False)
        model = Model(domain=self._domain, params=dict(self._params))
        for atom, var in builder.atom_vars.items():
            model.atoms[atom] = bool(solver.value(var))
        for numpred, order_int in encoder.numpred_vars.items():
            model.numerics[numpred] = order_int.decode(
                lambda lit: bool(solver.value(lit))
            )
        return SmtResult(sat=True, model=model)

    def is_valid(self, formula: Formula, *assumptions: Formula) -> bool:
        """Is ``formula`` true in every state satisfying ``assumptions``?"""
        from repro.logic.transform import negate

        return not self.check(*assumptions, negate(formula)).sat


class IncrementalSession:
    """One solver shared by a family of queries with a common base.

    The repair loop verifies dozens of candidate operations against the
    *same* invariants, preconditions and violation target, and checks
    each candidate's side conditions against the same invariants and
    original operation; only a few constraints differ per candidate.  A session
    encodes the shared base once (:meth:`assert_base`), then runs each
    candidate's extra constraints under a fresh *activation literal*
    (:meth:`check_under`): the top-level assertion of each extra formula
    becomes ``act -> formula``, and the query solves with
    ``assumptions=[act]``.  Every formula is encoded at its own
    polarity (:data:`~repro.solver.cnf.POS`), so each gate carries only
    the implications its occurrences need, and gains the other
    direction, once, when a later formula meets it negated.  Those
    definitional clauses, and the theory encoding's integer chains and
    counters (full equivalences), constrain only fresh variables, so
    they are sound to add unguarded; learned clauses carry over between
    candidates, which is where the speed-up comes from.

    After each query the activation literal is permanently falsified, so
    a candidate's constraints can never leak into later queries.

    Satisfiability verdicts are exactly those of a fresh solver; the
    *models* of SAT answers are path-dependent (they depend on learned
    clauses from earlier queries, and one-way gates leave gate variables
    free), so callers that need deterministic witnesses must use
    :class:`BoundedModelFinder` instead.
    """

    def __init__(
        self,
        domain: Domain,
        params: dict[str, int] | None = None,
        int_bound: int = DEFAULT_INT_BOUND,
    ) -> None:
        self._domain = domain
        self._params = dict(params or {})
        self._int_bound = int_bound
        self._solver = SatSolver()
        self._builder = CnfBuilder(self._solver)
        self._encoder = TheoryEncoder(
            self._builder, self._domain, self._params, self._int_bound
        )
        self.solves = 0
        #: Per-session search-effort totals; updated after every
        #: :meth:`check_under` (the underlying solver persists, so its
        #: own attrs are already cumulative -- this mirrors them into
        #: the shared :class:`SolverCounters` shape).
        self.counters = SolverCounters()
        #: Effort of the most recent :meth:`check_under` alone; callers
        #: aggregating across many sessions fold this per call.
        self.last_delta = SolverCounters()

    @property
    def domain(self) -> Domain:
        return self._domain

    def assert_base(self, *formulas: Formula) -> None:
        """Permanently assert the constraints shared by every query."""
        for formula in formulas:
            root = self._builder.encode(self._encoder.encode(formula), POS)
            self._solver.add_clause([root])

    def check_under(self, *formulas: Formula) -> bool:
        """Satisfiability of base + ``formulas`` (verdict only)."""
        self.solves += 1
        span = TRACER.start(
            "solver.check", formulas=len(formulas), incremental=True
        )
        act = self._solver.new_var()
        for formula in formulas:
            root = self._builder.encode(self._encoder.encode(formula), POS)
            self._solver.add_clause([-act, root])
        before = SolverCounters()
        before.add_solver(self._solver)
        sat = self._solver.solve(assumptions=[act])
        # Retire the activation literal: the candidate's constraints are
        # disabled for good, and the solver may simplify around it.
        self._solver.add_clause([-act])
        self.counters = SolverCounters()
        self.counters.add_solver(self._solver)
        self.last_delta = SolverCounters(
            decisions=self._solver.decisions - before.decisions,
            propagations=self._solver.propagations - before.propagations,
            conflicts=self._solver.conflicts - before.conflicts,
            restarts=self._solver.restarts - before.restarts,
            learned_clauses=(
                self._solver.learned_clauses - before.learned_clauses
            ),
        )
        if span is not None:
            TRACER.end(
                span,
                sat=sat,
                decisions=self.last_delta.decisions,
                propagations=self.last_delta.propagations,
                conflicts=self.last_delta.conflicts,
            )
        return sat
