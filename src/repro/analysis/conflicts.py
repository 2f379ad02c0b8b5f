"""Pairwise conflict detection (the paper's extended ``isConflicting``).

An operation pair *conflicts* when there is a reachable initial state in
which both operations can execute (the invariant and both weakest
preconditions hold) yet the merge of their concurrent effects -- with
the predicates' convergence rules applied to opposing assignments --
violates the invariant.  Checking pairs is sound (Gotsman et al.), and
the bounded model finder explores all parameter-aliasing patterns, so a
returned *no conflict* means none exists within the analysis bounds.

The counterexample returned on conflict is a :class:`ConflictWitness`
carrying the four states of Figure 2 (initial, each operation applied
alone, and the merge), which the report generator renders.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from repro.logic.ast import Atom, NumPred, disj
from repro.logic.transform import substitute
from repro.obs import TRACER
from repro.solver.dpll import SolverCounters
from repro.solver.models import Model, evaluate
from repro.solver.smt import BoundedModelFinder, IncrementalSession, SmtResult
from repro.spec.application import ApplicationSpec
from repro.spec.effects import ConvergenceRules
from repro.spec.invariants import Invariant
from repro.spec.operations import Operation

from repro.analysis.cache import SolverCache, deserialize_model

from repro.analysis.bindings import (
    PairBinding,
    enumerate_pair_bindings,
    enumerate_single_bindings,
)
from repro.analysis.encoding import (
    GroundEffects,
    StateFrame,
    family,
    merged_state_constraints,
    rename_formula,
    single_state_constraints,
)

#: Analysis-time cap on numeric parameters such as ``Capacity``: a
#: violation of a bound only needs the bound to be *representable* in
#: the small grounding domain, so large application defaults are clipped.
ANALYSIS_PARAM_CAP = 2


def opposing_effects(op1: Operation, op2: Operation) -> bool:
    """Do the two operations assign opposing values to some predicate?

    This is the guard on line 8 of Algorithm 1: only for opposing pairs
    do convergence rules change the merged state.
    """
    return any(
        e1.opposes(e2) for e1 in op1.effects for e2 in op2.effects
    )


@dataclass
class ConflictWitness:
    """Concrete evidence that a pair of operations conflicts."""

    op1: Operation
    op2: Operation
    binding: PairBinding
    initial: Model
    after_op1: Model
    after_op2: Model
    merged: Model
    violated: list[Invariant]

    @property
    def pair(self) -> tuple[str, str]:
        return (self.op1.name, self.op2.name)

    def describe(self) -> str:
        lines = [
            f"conflict: {self.op1} || {self.op2}  "
            f"with {self.binding.describe()}",
            f"  initial state : {self.initial.describe()}",
            f"  after {self.op1.name:<12}: {self.after_op1.describe()}",
            f"  after {self.op2.name:<12}: {self.after_op2.describe()}",
            f"  merged state  : {self.merged.describe()}",
        ]
        for invariant in self.violated:
            lines.append(f"  violates      : {invariant.describe()}")
        return "\n".join(lines)


class ConflictChecker:
    """Runs conflict queries against one application specification.

    ``params`` overrides the analysis values of numeric parameters
    (defaults: schema values clipped to :data:`ANALYSIS_PARAM_CAP`).
    ``extra`` is the number of spare constants per sort in the grounding
    domain (entities the operations do not mention but invariant
    quantifiers may range over).
    """

    def __init__(
        self,
        spec: ApplicationSpec,
        extra: int = 1,
        int_bound: int | None = None,
        params: dict[str, int] | None = None,
        cache: SolverCache | None = None,
    ) -> None:
        self._spec = spec
        self._extra = extra
        self._cache = cache
        self._solves = 0
        #: CDCL search effort issued through this checker (all query
        #: kinds); :class:`~repro.analysis.ipa.AnalysisStats` reads it.
        self.solver_counters = SolverCounters()
        if int_bound is None:
            # Numeric state must be able to represent: the analysis
            # parameter values, one violation past any bound, and the
            # merged effect of two concurrent deltas.
            max_delta = max(
                (
                    abs(effect.delta)
                    for op in spec.operations.values()
                    for effect in op.num_effects()
                ),
                default=0,
            )
            max_param = max(
                (min(v, ANALYSIS_PARAM_CAP) for v in spec.schema.params.values()),
                default=0,
            )
            int_bound = max(8, 2 * max_delta + max_param + 4)
        self._int_bound = int_bound
        defaults = {
            name: min(value, ANALYSIS_PARAM_CAP)
            for name, value in spec.schema.params.items()
        }
        defaults.update(params or {})
        self._params = defaults
        self._queries = 0
        self._executable_cache: dict[Operation, bool] = {}
        self._preserving_cache: dict[tuple[Operation, Operation], bool] = {}
        # The invariant conjunction and the predicate list are snapshot
        # once: the repair loop changes operations and rules, never
        # invariants or the schema.  Ground invariant copies and state
        # frames are cached per (state family, domain shape) -- the
        # dominant cost of a query otherwise -- and so is the scan's
        # session, whose base is built from those copies alone.
        self._invariant = spec.invariant_formula()
        self._renamed = {
            tag: rename_formula(self._invariant, tag)
            for tag in ("", "1", "2", "m")
        }
        self._preds = list(spec.schema.predicates.values())
        self._ground_cache: dict[tuple[str, tuple], object] = {}
        self._frames: dict[tuple[str, tuple], StateFrame] = {}
        self._witness_sessions = SolverSessions()

    @staticmethod
    def _domain_key(domain) -> tuple:
        """The domain's shape: its constant names per sort."""
        return tuple(
            sorted(
                (sort.name, tuple(c.name for c in consts))
                for sort, consts in domain.constants.items()
            )
        )

    def _ground_invariant(self, tag: str, domain, shape: tuple):
        """The invariant over family ``tag``; ``shape`` is the domain's
        :meth:`_domain_key`."""
        from repro.logic.grounding import ground

        key = (tag, shape)
        cached = self._ground_cache.get(key)
        if cached is None:
            cached = ground(self._renamed[tag], domain)
            self._ground_cache[key] = cached
        return cached

    def _frame(self, tag: str, domain, shape: tuple) -> StateFrame:
        """The frame of family ``tag``; ``shape`` as for
        :meth:`_ground_invariant`."""
        key = (tag, shape)
        frame = self._frames.get(key)
        if frame is None:
            frame = self._frames[key] = StateFrame(tag, self._preds, domain)
        return frame

    @property
    def spec(self) -> ApplicationSpec:
        return self._spec

    def rebind(self, spec: ApplicationSpec, cache: SolverCache | None = None) -> "ConflictChecker":
        """A fresh checker over ``spec`` with this one's settings.

        ``extra``, ``int_bound`` and ``params`` carry over; so does the
        cache, falling back to ``cache`` when this checker has none.
        """
        return ConflictChecker(
            spec,
            extra=self._extra,
            int_bound=self._int_bound,
            params=self._params,
            cache=self._cache or cache,
        )

    @property
    def params(self) -> dict[str, int]:
        return dict(self._params)

    @property
    def queries_issued(self) -> int:
        """Number of solver queries issued so far (for the speed bench).

        Queries are counted *logically*: a query answered from the cache
        still counts, so the number is identical between cold and warm
        runs of the same analysis.
        """
        return self._queries

    @property
    def solver_solves(self) -> int:
        """Queries that actually reached the CDCL solver (cache misses).

        One per miss: a scan query that a session finds SAT is re-solved
        by a fresh solver for its witness model, and that re-solve
        belongs to the same solve.
        """
        return self._solves

    @property
    def cache(self) -> SolverCache | None:
        return self._cache

    # -- the core query -----------------------------------------------------

    def _pair_queries(
        self,
        op1: Operation,
        op2: Operation,
        rules: ConvergenceRules | None,
        try_first: PairBinding | None,
    ):
        """Yield ``(binding, shape, query)`` for every aliasing pattern.

        The query is the Figure 2 constraint list in a fixed order;
        cache keys are computed over exactly this sequence, so the
        one-shot scan path and the incremental repair path address the
        same logical query identically.
        """
        rules = rules or self._spec.rules
        sorts = list(self._spec.schema.sorts.values())
        bindings = list(
            enumerate_pair_bindings(op1, op2, sorts, extra=self._extra)
        )
        if try_first is not None and try_first in bindings:
            bindings.remove(try_first)
            bindings.insert(0, try_first)
        for binding in bindings:
            domain = binding.domain
            shape = self._domain_key(domain)
            effects1 = GroundEffects.from_effects(
                op1.instantiate(binding.binding1), domain
            )
            effects2 = GroundEffects.from_effects(
                op2.instantiate(binding.binding2), domain
            )
            query = [
                self._ground_invariant("", domain, shape),
                self._ground_precondition(op1, binding.binding1, domain),
                self._ground_precondition(op2, binding.binding2, domain),
                single_state_constraints(
                    self._frame("1", domain, shape), effects1
                ),
                single_state_constraints(
                    self._frame("2", domain, shape), effects2
                ),
                self._ground_invariant("1", domain, shape),
                self._ground_invariant("2", domain, shape),
                merged_state_constraints(
                    self._frame("m", domain, shape), effects1, effects2, rules
                ),
                # The merged state must violate the invariant.
                ~self._ground_invariant("m", domain, shape),
            ]
            yield binding, shape, query

    # The slots of each query kind that every candidate shares: a
    # session asserts them once (see :meth:`_verdict`).  The scan's
    # session serves every pair over one domain shape, so its base is
    # what the shape alone determines: the invariant copies ``""``,
    # ``"1"``, ``"2"`` and the violation target.
    _SCAN_BASE = (0, 5, 6, 8)
    _PAIR_BASE = (0, 1, 2, 5, 6, 8)
    _EXECUTABLE_BASE = (0, 1, 3)
    _SOLO_BASE = (0, 1, 2, 3)

    def is_conflicting(
        self,
        op1: Operation,
        op2: Operation,
        rules: ConvergenceRules | None = None,
        try_first: PairBinding | None = None,
    ) -> ConflictWitness | None:
        """Check one pair under (possibly overridden) convergence rules.

        ``try_first`` reorders the aliasing patterns so a previously
        conflicting one is tested first -- the repair search uses the
        witness's binding, which rejects failing candidates in one
        query.

        Each aliasing pattern is decided in the checker's session for
        its domain shape (see :meth:`_verdict`); only a conflict pays
        for a fresh solver, whose model becomes the witness.
        """
        with TRACER.span(
            "analysis.pair", op1=op1.name, op2=op2.name
        ) as span:
            bindings = 0
            for binding, shape, query in self._pair_queries(
                op1, op2, rules, try_first
            ):
                bindings += 1
                result = self._verdict(
                    binding.domain, query, self._SCAN_BASE,
                    self._witness_sessions, shape, need_model=True,
                )
                if result.sat:
                    span.set(bindings=bindings, conflict=True)
                    return self._witness(op1, op2, binding, result.model)
            span.set(bindings=bindings, conflict=False)
        return None

    def has_conflict(
        self,
        op1: Operation,
        op2: Operation,
        rules: ConvergenceRules | None = None,
        try_first: PairBinding | None = None,
        sessions: "SolverSessions | None" = None,
    ) -> bool:
        """Verdict-only :meth:`is_conflicting` (no witness decoding).

        Candidates probed through the same ``sessions`` share one
        incremental solver per aliasing pattern, whose base is the
        invariants, preconditions and violation target.
        """
        return any(
            self._verdict(
                binding.domain, query, self._PAIR_BASE,
                sessions, ("conflict", binding),
            ).sat
            for binding, _shape, query in self._pair_queries(
                op1, op2, rules, try_first
            )
        )

    def _verdict(
        self,
        domain,
        query: list,
        base_slots: tuple[int, ...],
        sessions: "SolverSessions | None",
        key: tuple,
        need_model: bool = False,
    ) -> SmtResult:
        """Satisfiability of ``query``, with a model if ``need_model``.

        The cache is probed over the whole list.  A miss runs in the
        session ``sessions`` holds under ``key`` (which must determine
        the ``base_slots`` formulas, asserted once when it is built);
        the other slots run under a retired-after-use activation
        literal.  Without ``sessions`` the session is throwaway.

        Session models are path-dependent, so a SAT verdict whose model
        is needed is re-derived by a fresh deterministic one-shot
        solver over the same list in the same order, and cached with
        that model.  Every other answer is cached verdict-only.
        """
        self._queries += 1
        cache_key = None
        if self._cache is not None:
            cache_key = self._cache.key(
                domain, self._params, self._int_bound, query
            )
            entry = self._cache.get(cache_key, need_model=need_model)
            if entry is not None:
                model = None
                if need_model and entry.sat:
                    model = deserialize_model(
                        entry.model_blob, domain, self._params
                    )
                return SmtResult(sat=entry.sat, model=model)
        session = sessions.get(key) if sessions is not None else None
        if session is None:
            session = IncrementalSession(
                domain, self._params, self._int_bound
            )
            session.assert_base(*(query[i] for i in base_slots))
            if sessions is not None:
                sessions.put(key, session)
        result = SmtResult(
            sat=session.check_under(
                *(f for i, f in enumerate(query) if i not in base_slots)
            )
        )
        self._solves += 1
        self.solver_counters.add(session.last_delta)
        if result.sat and need_model:
            finder = BoundedModelFinder(
                domain, params=self._params, int_bound=self._int_bound
            )
            result = finder.check_ground(*query)
            self.solver_counters.add(finder.counters)
        if cache_key is not None:
            self._cache.put(cache_key, result.sat, model=result.model)
        return result

    def _ground_precondition(self, operation, binding, domain):
        from repro.logic.ast import TrueF
        from repro.logic.grounding import ground

        pre = operation.precondition
        if isinstance(pre, TrueF):
            return pre
        return ground(substitute(pre, binding), domain)

    # -- side conditions on repaired operations --------------------------------

    def is_executable(
        self,
        operation: Operation,
        sessions: "SolverSessions | None" = None,
    ) -> bool:
        """Can the operation run at all in some invariant-valid state?

        Augmenting an operation with self-contradictory effects (e.g.
        ``rem_tourn`` that also sets ``active(t)``) would make its
        weakest precondition unsatisfiable -- conflicts involving it
        vanish trivially because the operation can never execute.  Such
        degenerate repairs are rejected with this check.

        With ``sessions``, only the frame constraints change per
        candidate (modified copies keep the original's precondition).
        """
        cached = self._executable_cache.get(operation)
        if cached is not None:
            return cached
        sorts = list(self._spec.schema.sorts.values())
        executable = False
        for single in enumerate_single_bindings(
            operation, sorts, extra=self._extra
        ):
            domain = single.domain
            shape = self._domain_key(domain)
            effects = GroundEffects.from_effects(
                operation.instantiate(single.binding), domain
            )
            query = [
                self._ground_invariant("", domain, shape),
                self._ground_precondition(operation, single.binding, domain),
                single_state_constraints(
                    self._frame("1", domain, shape), effects
                ),
                self._ground_invariant("1", domain, shape),
            ]
            key = (
                "executable", operation.original_name,
                operation.precondition, single,
            )
            if self._verdict(
                domain, query, self._EXECUTABLE_BASE, sessions, key
            ).sat:
                executable = True
                break
        self._executable_cache[operation] = executable
        return executable

    def preserves_solo_semantics(
        self,
        original: Operation,
        modified: Operation,
        sessions: "SolverSessions | None" = None,
    ) -> bool:
        """Are the added effects no-ops when no concurrent conflict occurs?

        The paper requires modified operations to keep their original
        semantics in conflict-free executions: every extra boolean
        assignment must already hold in the state the *original*
        operation produces (whenever the original is executable).  Extra
        numeric effects always change the state, so they never pass.

        With ``sessions``, only the mismatch disjunction changes per
        candidate.
        """
        key = (original, modified)
        cached = self._preserving_cache.get(key)
        if cached is not None:
            return cached
        if modified.num_effects() != original.num_effects():
            self._preserving_cache[key] = False
            return False
        sorts = list(self._spec.schema.sorts.values())
        preserving = True
        for single in enumerate_single_bindings(
            modified, sorts, extra=self._extra
        ):
            domain = single.domain
            effects_orig = GroundEffects.from_effects(
                original.instantiate(single.binding), domain
            )
            effects_mod = GroundEffects.from_effects(
                modified.instantiate(single.binding), domain
            )
            mismatches = []
            for atom, value in effects_mod.bool_assigns.items():
                if effects_orig.bool_assigns.get(atom) == value:
                    continue
                post_atom = Atom(family(atom.pred, "1"), atom.args)
                mismatches.append(
                    ~post_atom if value else post_atom
                )
            if not mismatches:
                continue
            shape = self._domain_key(domain)
            query = [
                self._ground_invariant("", domain, shape),
                self._ground_precondition(original, single.binding, domain),
                single_state_constraints(
                    self._frame("1", domain, shape), effects_orig
                ),
                self._ground_invariant("1", domain, shape),
                disj(mismatches),
            ]
            if self._verdict(
                domain, query, self._SOLO_BASE, sessions,
                ("solo", original, single),
            ).sat:
                preserving = False
                break
        self._preserving_cache[key] = preserving
        return preserving

    # -- pair enumeration ----------------------------------------------------

    def pairs(
        self, operations: list[Operation] | None = None
    ) -> list[tuple[Operation, Operation]]:
        """All unordered pairs, including self-pairs."""
        ops = operations or list(self._spec.operations.values())
        return list(
            itertools.combinations_with_replacement(ops, 2)
        )

    def find_conflicts(
        self,
        operations: list[Operation] | None = None,
        rules: ConvergenceRules | None = None,
    ) -> list[ConflictWitness]:
        """All conflicting pairs of the specification."""
        witnesses = []
        for op1, op2 in self.pairs(operations):
            witness = self.is_conflicting(op1, op2, rules)
            if witness is not None:
                witnesses.append(witness)
        return witnesses

    def find_first(
        self,
        operations: list[Operation] | None = None,
        rules: ConvergenceRules | None = None,
        skip: set[tuple[str, str]] | None = None,
    ) -> ConflictWitness | None:
        """The first conflicting pair, skipping flagged ones.

        This is ``findConflictingPair`` of Algorithm 1; ``skip`` holds
        the pairs already flagged unsolvable.
        """
        skip = skip or set()
        for op1, op2 in self.pairs(operations):
            if (op1.name, op2.name) in skip or (op2.name, op1.name) in skip:
                continue
            witness = self.is_conflicting(op1, op2, rules)
            if witness is not None:
                return witness
        return None

    # -- witness decoding -----------------------------------------------------

    def _witness(
        self,
        op1: Operation,
        op2: Operation,
        binding: PairBinding,
        model: Model,
    ) -> ConflictWitness:
        states = {
            tag: self._project(model, tag) for tag in ("", "1", "2", "m")
        }
        merged = states["m"]
        violated = [
            invariant
            for invariant in self._spec.invariants
            if not evaluate(invariant.formula, merged)
        ]
        return ConflictWitness(
            op1=op1,
            op2=op2,
            binding=binding,
            initial=states[""],
            after_op1=states["1"],
            after_op2=states["2"],
            merged=merged,
            violated=violated,
        )

    def _project(self, model: Model, tag: str) -> Model:
        """Extract the state of family ``tag`` as a plain model."""
        projected = Model(
            domain=model.domain, params=dict(model.params)
        )
        for pred in self._spec.schema.predicates.values():
            renamed = family(pred, tag)
            pools = [model.domain.of(sort) for sort in pred.arg_sorts]
            for combo in itertools.product(*pools):
                if pred.numeric:
                    value = model.numerics.get(NumPred(renamed, combo))
                    if value is not None:
                        projected.numerics[NumPred(pred, combo)] = value
                else:
                    projected.atoms[Atom(pred, combo)] = model.holds(
                        Atom(renamed, combo)
                    )
        return projected


class SolverSessions:
    """Incremental solver sessions, by key.

    A repair search holds one per conflict: one
    :class:`~repro.solver.smt.IncrementalSession` per (query kind,
    original operation, aliasing pattern), dropped wholesale when the
    search for that pair finishes (candidate counts per pair are small,
    so the clause databases stay bounded).  A checker holds one for its
    scan queries, keyed by domain shape, for as long as it holds its
    ground invariant copies.
    """

    def __init__(self) -> None:
        self._sessions: dict[tuple, IncrementalSession] = {}

    def get(self, key: tuple) -> IncrementalSession | None:
        return self._sessions.get(key)

    def put(self, key: tuple, session: IncrementalSession) -> None:
        self._sessions[key] = session

    def __len__(self) -> int:
        return len(self._sessions)
