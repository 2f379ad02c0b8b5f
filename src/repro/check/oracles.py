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

import itertools
import operator
from dataclasses import dataclass, field

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
        ``eval_num`` call.  Memoized per interpretation: the model is
        immutable once checking starts, so groups never go stale.
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


#: Top-level formula evaluations (one per invariant per replica check,
#: on both the interpreter and compiled paths).
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

    By default the invariants are compiled once per spec into
    specialized closures (:mod:`repro.compile`) shared through the
    process-wide artifact cache; ``compiled=False`` (or the global
    ``--no-compile`` / ``REPRO_NO_COMPILE`` switch) forces the pure
    interpreter, ``compiled=True`` demands compilation and lets
    :class:`~repro.compile.Uncompilable` propagate.  Both paths produce
    identical violations, witnesses and ordering.
    """

    def __init__(
        self,
        spec: ApplicationSpec,
        max_witnesses: int = 5,
        compiled: bool | None = None,
    ):
        self.spec = spec
        self.max_witnesses = max_witnesses
        if compiled is False:
            self._compiled = None
        elif compiled is True:
            from repro.compile import require_compiled_spec

            self._compiled = require_compiled_spec(spec)
        else:
            from repro.compile import maybe_compile_spec

            self._compiled = maybe_compile_spec(spec)

    @property
    def is_compiled(self) -> bool:
        return self._compiled is not None

    def check(self, interp: Interpretation, region: str) -> list[Violation]:
        if not interp.params:
            interp.params = dict(self.spec.schema.params)
        if self._compiled is not None:
            return self._compiled.check(interp, region, self.max_witnesses)
        domain = interp.domain(self.spec)
        found: list[Violation] = []
        for invariant in self.spec.invariants:
            formula = invariant.formula
            if isinstance(formula, TrueF):
                continue  # declared-category invariants (unique ids)
            name = invariant.name or invariant.describe()
            _FORMULA_EVALS.value += 1
            # Fresh environment per invariant: a variable bound here
            # must never leak into another invariant's evaluation.
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
                    found.append(
                        Violation("invariant", region, name, witness)
                    )
                    count += 1
                    if count >= self.max_witnesses:
                        break
            elif not _eval(formula, interp, domain, env):
                found.append(Violation("invariant", region, name))
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
