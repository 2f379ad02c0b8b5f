"""Compile invariant formulas into specialized Python closures.

The checker's invariant oracle evaluates first-order formulas against a
finite model thousands of times per trial.  The pure interpreter
(:func:`repro.check.oracles.eval_formula`) walks the AST per
evaluation; this module walks it **once per spec** and emits plain
Python source -- quantifier loops unrolled into ``for``/``all``/``any``
over the finite domain, relation lookups bound to local variables,
numeric terms flattened into dict lookups -- which is then ``compile()``d
and ``exec``'d into one closure per invariant.

The generated code reproduces the interpreter bit for bit:

- quantifier enumeration order is the ``itertools.product`` order over
  per-sort constant pools sorted by name (nested ``for`` loops in
  binder order are exactly that product);
- witness bindings are the ``sorted((var.name, const.name))`` pairs the
  interpreter emits, truncated at the same ``max_witnesses`` count;
- shadowing follows :func:`repro.logic.transform.substitute` (bound
  variables shadow outer bindings), which fresh Python locals per
  binder give for free;
- absent relations/numerics read as empty, absent cells as 0, exactly
  like the interpreter's ``dict.get`` defaults.

Anything the interpreter would reject at runtime (free variables,
wildcards outside cardinalities, sorts unknown to the schema) raises
:class:`Uncompilable` at build time and the caller falls back to the
interpreter, preserving the original error behaviour.

For the live detector, which keeps each invariant's falsified
instances across model deltas, :func:`instance_index` maps every fact
an invariant body reads to the instances it reaches, and the source
gains a per-instance ``holds(interp, binding)`` beside ``check``.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType
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
    TrueF,
    Var,
    Wildcard,
)
from repro.obs import REGISTRY
from repro.spec.application import ApplicationSpec
from repro.spec.predicates import Schema


class Uncompilable(Exception):
    """The formula cannot be compiled; use the interpreter instead."""


def _tuple_literal(parts: list[str]) -> str:
    """A Python tuple literal over already-rendered element sources."""
    if not parts:
        return "()"
    if len(parts) == 1:
        return f"({parts[0]},)"
    return "(" + ", ".join(parts) + ")"


class _Codegen:
    """Shared prologue bindings + expression emitter for one invariant.

    The prologue hoists every relation/numeric/parameter/cardinality
    lookup out of the quantifier loops: the generated body touches only
    local variables and tuple membership/dict ``get`` calls.
    """

    def __init__(self, schema: Schema) -> None:
        self.schema = schema
        self.prologue: list[str] = []
        self._relations: dict[str, str] = {}
        self._numerics: dict[str, str] = {}
        self._params: dict[str, str] = {}
        self._groups: dict[tuple[str, tuple[int, ...]], str] = {}
        self.domains: dict[str, str] = {}
        self._header_done: set[str] = set()
        self._n_vars = 0

    # -- prologue bindings ---------------------------------------------------

    def _header(self, line: str) -> None:
        if line not in self._header_done:
            self._header_done.add(line)
            self.prologue.insert(len(self._header_done) - 1, line)

    def relation_local(self, name: str) -> str:
        local = self._relations.get(name)
        if local is None:
            self._header("_relations = interp.relations")
            local = f"r{len(self._relations)}"
            self._relations[name] = local
            self.prologue.append(
                f"{local} = _relations.get({name!r}) or _EMPTY_SET"
            )
        return local

    def numeric_local(self, name: str) -> str:
        local = self._numerics.get(name)
        if local is None:
            self._header("_numerics = interp.numerics")
            local = f"n{len(self._numerics)}"
            self._numerics[name] = local
            self.prologue.append(
                f"{local} = _numerics.get({name!r}) or _EMPTY_MAP"
            )
        return local

    def param_local(self, name: str) -> str:
        local = self._params.get(name)
        if local is None:
            local = f"p{len(self._params)}"
            self._params[name] = local
            self.prologue.append(f"{local} = interp.params[{name!r}]")
        return local

    def group_local(self, pred: str, fixed: tuple[int, ...]) -> str:
        local = self._groups.get((pred, fixed))
        if local is None:
            local = f"g{len(self._groups)}"
            self._groups[(pred, fixed)] = local
            self.prologue.append(
                f"{local} = interp.card_group({pred!r}, {fixed!r})"
            )
        return local

    def domain_local(self, var: Var) -> str:
        name = var.sort.name
        if name not in self.schema.sorts:
            raise Uncompilable(
                f"quantified sort {name} is not declared in the schema"
            )
        local = self.domains.get(name)
        if local is None:
            local = f"d{len(self.domains)}"
            self.domains[name] = local
            self.prologue.append(f"{local} = doms[{name!r}]")
        return local

    def fresh_var(self) -> str:
        self._n_vars += 1
        return f"x{self._n_vars - 1}"

    # -- expression emission -------------------------------------------------

    def term(self, term, env: dict[Var, str]) -> str:
        if isinstance(term, Const):
            return repr(term.name)
        if isinstance(term, Var):
            local = env.get(term)
            if local is None:
                raise Uncompilable(f"free variable {term.name}")
            return local
        raise Uncompilable(f"unsupported term {term!r}")

    def num(self, term: NumTerm, env: dict[Var, str]) -> str:
        if isinstance(term, IntConst):
            return repr(term.value)
        if isinstance(term, Param):
            return self.param_local(term.name)
        if isinstance(term, NumPred):
            local = self.numeric_local(term.pred.name)
            key = _tuple_literal([self.term(a, env) for a in term.args])
            return f"{local}.get({key}, 0)"
        if isinstance(term, Card):
            fixed = tuple(
                i
                for i, arg in enumerate(term.args)
                if not isinstance(arg, Wildcard)
            )
            group = self.group_local(term.pred.name, fixed)
            key = _tuple_literal(
                [self.term(term.args[i], env) for i in fixed]
            )
            return f"{group}.get({key}, 0)"
        if isinstance(term, Add):
            if not term.terms:
                return "0"
            return "(" + " + ".join(self.num(t, env) for t in term.terms) + ")"
        raise Uncompilable(f"unknown numeric term {term!r}")

    def expr(self, formula: Formula, env: dict[Var, str]) -> str:
        if isinstance(formula, TrueF):
            return "True"
        if isinstance(formula, FalseF):
            return "False"
        if isinstance(formula, Atom):
            local = self.relation_local(formula.pred.name)
            row = _tuple_literal([self.term(a, env) for a in formula.args])
            return f"({row} in {local})"
        if isinstance(formula, Cmp):
            lhs = self.num(formula.lhs, env)
            rhs = self.num(formula.rhs, env)
            return f"({lhs} {formula.op} {rhs})"
        if isinstance(formula, Not):
            return f"(not {self.expr(formula.arg, env)})"
        if isinstance(formula, And):
            if not formula.args:
                return "True"
            return (
                "(" + " and ".join(self.expr(a, env) for a in formula.args) + ")"
            )
        if isinstance(formula, Or):
            if not formula.args:
                return "False"
            return (
                "(" + " or ".join(self.expr(a, env) for a in formula.args) + ")"
            )
        if isinstance(formula, Implies):
            lhs = self.expr(formula.lhs, env)
            rhs = self.expr(formula.rhs, env)
            return f"((not {lhs}) or {rhs})"
        if isinstance(formula, Iff):
            lhs = self.expr(formula.lhs, env)
            rhs = self.expr(formula.rhs, env)
            return f"({lhs} == {rhs})"
        if isinstance(formula, (ForAll, Exists)):
            return self._quantifier(formula, env)
        raise Uncompilable(f"unknown formula node {formula!r}")

    def _quantifier(self, formula: ForAll | Exists, env: dict[Var, str]) -> str:
        if not formula.vars:
            # product of zero pools yields exactly one (empty) binding.
            return self.expr(formula.body, env)
        inner = dict(env)
        generators = []
        for var in formula.vars:
            pool = self.domain_local(var)
            local = self.fresh_var()
            inner[var] = local  # later duplicate binders shadow earlier
            generators.append(f"for {local} in {pool}")
        body = self.expr(formula.body, inner)
        head = "all" if isinstance(formula, ForAll) else "any"
        return f"{head}({body} " + " ".join(generators) + ")"


# ---------------------------------------------------------------------------
# Invariant -> source -> closure
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CompiledInvariant:
    """One invariant's generated source plus its executable closures.

    ``fn(interp, doms, region, max_witnesses, out)`` appends
    :class:`~repro.check.oracles.Violation` records to ``out`` exactly
    as the interpreter's :class:`InvariantOracle` would.  ``doms`` is
    only read when ``uses_domains`` (the source's ``USES_DOMAINS``
    line): guard-driven invariants never enumerate a domain pool.
    ``holds(interp, binding)`` is the body's truth under one binding
    (binder order); it exists iff :func:`instance_index` indexes the
    invariant.
    """

    name: str
    source: str
    fn: Callable
    uses_domains: bool
    holds: Callable | None = None


def _witness_expr(formula: ForAll, env: dict[Var, str]) -> str:
    """Source for the interpreter-identical witness tuple.

    The interpreter sorts ``(var.name, const.name)`` pairs; with
    distinct variable names the order is fully determined at compile
    time, so the common case emits a pre-sorted literal.  Colliding
    names (distinct sorts) fall back to a runtime ``sorted``.
    """
    names = [v.name for v in formula.vars]
    pairs = [f"({v.name!r}, {env[v]})" for v in formula.vars]
    if len(set(names)) == len(names):
        order = sorted(range(len(names)), key=lambda i: names[i])
        return _tuple_literal([pairs[i] for i in order])
    return f"tuple(sorted({_tuple_literal(pairs)}))"


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
    evaluators reject at runtime (free variables, misplaced wildcards,
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


def _holds_source(formula: ForAll, schema: Schema) -> list[str]:
    """Source of ``holds(interp, binding)``: the body under one binding."""
    gen = _Codegen(schema)
    env = {var: gen.fresh_var() for var in formula.vars}
    condition = gen.expr(formula.body, env)
    binders = _tuple_literal([env[var] for var in formula.vars])
    return [
        "def holds(interp, binding):",
        *("    " + line for line in gen.prologue),
        f"    {binders} = binding",
        f"    return {condition}",
    ]


def generate_invariant_source(invariant, schema: Schema) -> str:
    """Emit the Python source of one invariant's ``check`` closure."""
    formula = invariant.formula
    name = invariant.name or invariant.describe()
    gen = _Codegen(schema)
    body: list[str] = []
    if isinstance(formula, ForAll) and formula.vars:
        if len(set(formula.vars)) != len(formula.vars):
            raise Uncompilable("duplicate bound variable in invariant")
        env = {var: gen.fresh_var() for var in formula.vars}
        witness = _witness_expr(formula, env)
        emit = f"_append(_Violation('invariant', region, {name!r}, {witness}))"
        guard = _guard_atom(formula, schema)
        if guard is not None:
            # Guard-driven enumeration: loop over the guard's rows, not
            # the domain product.  Falsifying bindings are collected as
            # tuples in binder order; sorting them gives the product's
            # own order (lexicographic over name-sorted pools), so
            # truncation keeps the same witnesses in the same order.
            rows = gen.relation_local(guard.pred.name)
            condition = gen.expr(formula.body.rhs, env)
            binders = _tuple_literal([env[var] for var in formula.vars])
            row = _tuple_literal([env[arg] for arg in guard.args])
            body.append("    bad = []")
            body.append(f"    for {row} in {rows}:")
            body.append(f"        if not {condition}:")
            body.append(f"            bad.append({binders})")
            body.append("    if bad:")
            body.append("        bad.sort()")
            body.append("        _append = out.append")
            # The product loop appends before it tests the count, so a
            # non-positive limit still yields one witness.
            body.append(
                f"        for {binders} in bad[:max(max_witnesses, 1)]:"
            )
            body.append(f"            {emit}")
        else:
            pools = [gen.domain_local(var) for var in formula.vars]
            condition = gen.expr(formula.body, env)
            body.append("    count = 0")
            body.append("    _append = out.append")
            indent = "    "
            for var, pool in zip(formula.vars, pools):
                body.append(f"{indent}for {env[var]} in {pool}:")
                indent += "    "
            body.append(f"{indent}if {condition}:")
            body.append(f"{indent}    continue")
            body.append(f"{indent}{emit}")
            body.append(f"{indent}count += 1")
            body.append(f"{indent}if count >= max_witnesses:")
            body.append(f"{indent}    return")
    else:
        condition = gen.expr(formula, {})
        body.append(f"    if not {condition}:")
        body.append(
            f"        out.append(_Violation('invariant', region, {name!r}))"
        )
    lines = [
        f"USES_DOMAINS = {bool(gen.domains)}",
        "def check(interp, doms, region, max_witnesses, out):",
    ]
    lines.extend("    " + p for p in gen.prologue)
    lines.extend(body)
    if instance_index(formula, schema) is not None:
        lines.extend(_holds_source(formula, schema))
    return "\n".join(lines) + "\n"


_BASE_NAMESPACE: dict | None = None


def _namespace() -> dict:
    # Imported lazily: check.oracles imports this package back for the
    # compiled fast path, so the dependency must not be module-level.
    global _BASE_NAMESPACE
    if _BASE_NAMESPACE is None:
        from repro.check.oracles import Violation

        _BASE_NAMESPACE = {
            "_Violation": Violation,
            "_EMPTY_SET": frozenset(),
            "_EMPTY_MAP": MappingProxyType({}),
        }
    return _BASE_NAMESPACE


def load_invariant(name: str, source: str) -> CompiledInvariant:
    """``compile()`` + ``exec`` one generated source into a closure.

    Shared by the fresh-codegen path and the disk-cache path: a cached
    source byte-identical to a generated one yields an identical
    closure, so cache hits cannot change behaviour.
    """
    code = compile(source, f"<compiled-invariant {name!r}>", "exec")
    namespace = dict(_namespace())
    exec(code, namespace)  # noqa: S102 - self-generated source only
    return CompiledInvariant(
        name=name,
        source=source,
        fn=namespace["check"],
        uses_domains=namespace["USES_DOMAINS"],
        holds=namespace.get("holds"),
    )


def compile_invariant(invariant, schema: Schema) -> CompiledInvariant:
    name = invariant.name or invariant.describe()
    return load_invariant(name, generate_invariant_source(invariant, schema))


# ---------------------------------------------------------------------------
# Spec-level artifacts
# ---------------------------------------------------------------------------


def build_domain_extractor(schema: Schema) -> Callable:
    """A closure computing the finite domain of an interpretation.

    Returns ``interp -> {sort_name: (const_name, ...)}`` replicating
    :meth:`repro.check.oracles.Interpretation.domain`: every schema
    sort is seeded (possibly empty), every constant mentioned by a
    declared predicate's rows/cells is noted under its argument sort,
    and pools are sorted by constant name.
    """
    sort_names = tuple(schema.sorts)
    pred_sorts = {
        name: tuple(s.name for s in decl.arg_sorts)
        for name, decl in schema.predicates.items()
    }

    def extract(interp) -> dict[str, tuple[str, ...]]:
        per: dict[str, set[str]] = {name: set() for name in sort_names}
        for source in (interp.relations, interp.numerics):
            for pred_name, rows in source.items():
                sorts = pred_sorts.get(pred_name)
                if sorts is None:
                    continue
                for row in rows:
                    for sort_name, value in zip(sorts, row):
                        pool = per.get(sort_name)
                        if pool is None:
                            pool = per[sort_name] = set()
                        pool.add(
                            value if type(value) is str else str(value)
                        )
        return {name: tuple(sorted(pool)) for name, pool in per.items()}

    return extract


_FORMULA_EVALS = REGISTRY.counter("check.formula.evals")


class CompiledSpec:
    """Every non-trivial invariant of one spec, compiled and ready.

    Drop-in for the interpreter loop in
    :meth:`repro.check.oracles.InvariantOracle.check`: same violations,
    same witnesses, same order.
    """

    __slots__ = ("key", "invariants", "_extract", "_uses_domains")

    def __init__(
        self,
        key: str,
        invariants: tuple[CompiledInvariant, ...],
        domain_extractor: Callable,
    ) -> None:
        self.key = key
        self.invariants = invariants
        self._extract = domain_extractor
        self._uses_domains = any(i.uses_domains for i in invariants)

    def domains(self, interp) -> dict[str, tuple[str, ...]]:
        return self._extract(interp)

    def check(self, interp, region: str, max_witnesses: int = 5) -> list:
        # Walking every row for the pools is the one O(state) step
        # left; a spec of guard-driven invariants skips it.
        doms = self._extract(interp) if self._uses_domains else None
        out: list = []
        for invariant in self.invariants:
            _FORMULA_EVALS.value += 1
            invariant.fn(interp, doms, region, max_witnesses, out)
        return out


def generate_spec_sources(spec: ApplicationSpec) -> list[tuple[str, str]]:
    """(name, source) per compilable invariant, in spec order.

    ``TrueF`` invariants (declared-category placeholders) are skipped
    exactly as the interpreter skips them.
    """
    sources: list[tuple[str, str]] = []
    for invariant in spec.invariants:
        if isinstance(invariant.formula, TrueF):
            continue
        name = invariant.name or invariant.describe()
        sources.append(
            (name, generate_invariant_source(invariant, spec.schema))
        )
    return sources


def compile_spec(spec: ApplicationSpec, key: str = "") -> CompiledSpec:
    """Compile every invariant of ``spec`` (raises :class:`Uncompilable`)."""
    compiled = tuple(
        load_invariant(name, source)
        for name, source in generate_spec_sources(spec)
    )
    return CompiledSpec(key, compiled, build_domain_extractor(spec.schema))
