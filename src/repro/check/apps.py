"""Application adapters for the checker.

One adapter per evaluation application bundles everything the harness
needs to run and judge a trial:

- ``spec``/``registry``/``make_app``: build the application under one
  of the checker configurations;
- ``setup``: seed initial entities (synchronously, before the trace);
- ``dispatch``: map a serialized :class:`~repro.check.harness.OpCall`
  onto the application driver;
- ``extract``: project one replica's *observed* state into the
  :class:`~repro.check.oracles.Interpretation` the invariant oracle
  evaluates.  Observed means compensated: Compensation Sets contribute
  their visible members, Compensated Counters their value net of
  pending corrections, and the rem-wins Twitter strategy filters every
  reference through existence (its reads hide dangling entries -- the
  read-side compensation of §5.1.2).  It is two steps, so the live
  conflict detector can redo both for only what a record touched:
  ``rows`` maps one object to the raw ``(relation, row)`` pairs it
  contributes (a function of that object alone), and ``view_rules``
  say, per raw relation, how one raw row shows in the observed model
  (rem-wins reference hiding, IPA capacity trims, numeric cells --
  whatever needs more than one object); one :class:`View` evaluates the
  rules for a fold from empty and for row deltas alike;
- ``probes``: numeric-bound data points for the compensation-debt
  oracle;
- ``generate``: a seeded, contention-heavy operation trace.  Traces
  are built from *conflict templates* -- the Figure 1/Figure 2 races
  (enroll vs rem_tourn, begin vs finish, oversell bursts, del_tweet vs
  retweet, new_order vs rem_product) issued from different regions
  within one round-trip time -- plus filler traffic, so a handful of
  trials suffices to falsify the unrepaired configurations.

Checker configurations (``CONFIG_NAMES``) map onto (store mode,
application variant) pairs exactly like the benchmark configs: Causal
is the unmodified application on the causal store, IPA the repaired one
(Twitter uses its rem-wins strategy), Strong the unmodified application
with every operation serialised at the primary.
"""

from __future__ import annotations

import operator
import random
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping

from repro.apps.common import Variant
from repro.apps.ticket import TicketApp, ticket_registry, ticket_spec
from repro.apps.tournament import (
    TournamentApp,
    tournament_registry,
    tournament_spec,
)
from repro.apps.tpcw import TpcwApp, tpcw_registry, tpcw_spec
from repro.apps.twitter import TwitterApp, twitter_registry, twitter_spec
from repro.check.oracles import BoundProbe, Interpretation
from repro.crdts import CompensatedCounter, CompensationSet
from repro.errors import CheckError
from repro.spec.application import ApplicationSpec
from repro.store.cluster import ConsistencyMode
from repro.store.replica import Replica

CONFIG_NAMES = ("Causal", "IPA", "Strong")

#: app name -> config name -> (consistency mode, application variant).
_CONFIG_MAP: dict[str, Variant] = {
    "tournament": Variant.IPA,
    "ticket": Variant.IPA,
    "tpcw": Variant.IPA,
    # Twitter's repaired strategy in the checker is rem-wins: removals
    # purge eagerly and reads hide lazily (§5.2.3).
    "twitter": Variant.REM_WINS,
}


def resolve_config(app: str, config: str) -> tuple[ConsistencyMode, Variant]:
    if config == "Causal":
        return ConsistencyMode.CAUSAL, Variant.CAUSAL
    if config == "Strong":
        return ConsistencyMode.STRONG, Variant.CAUSAL
    if config == "IPA":
        return ConsistencyMode.CAUSAL, _CONFIG_MAP[app]
    raise CheckError(
        f"unknown checker config {config!r} (one of: "
        + ", ".join(CONFIG_NAMES)
        + ")"
    )


@dataclass(frozen=True)
class TraceOp:
    """One generated operation before serialization."""

    at_ms: float
    session: str
    op: str
    args: tuple[str, ...]


def _session(region: str, k: int = 0) -> str:
    return f"{region}#{k}"


#: A view condition: (raw relation, positions of the row to project).
Condition = tuple[str, tuple[int, ...]]


def _projector(positions: tuple[int, ...]) -> Callable[[tuple], tuple]:
    if len(positions) == 1:
        (position,) = positions
        return lambda row: (row[position],)
    return operator.itemgetter(*positions)


@dataclass(frozen=True)
class ViewRule:
    """How one raw relation's rows show in the observed model.

    A raw row shows as the same row of relation ``target`` -- with
    ``numeric``, as the cell ``target[row[:-1]] = row[-1]`` -- while
    every ``needs`` projection of it is a row of its raw relation and
    no ``unless`` projection is; ``target=None`` never shows (a
    relation only other rules consult).  Each raw row shows as at most
    one model fact, and no two raw rows show as the same one.
    """

    target: str | None
    needs: tuple[Condition, ...] = ()
    unless: tuple[Condition, ...] = ()
    numeric: bool = False

    def __post_init__(self) -> None:
        # (needs, unless) with each projection as a callable.
        object.__setattr__(
            self,
            "tests",
            tuple(
                tuple((other, _projector(at)) for other, at in conditions)
                for conditions in (self.needs, self.unless)
            ),
        )


class View:
    """An observed model kept under one adapter's :class:`ViewRule` set.

    :meth:`fold` builds it from complete raw relations (``extract``);
    :meth:`apply` moves it by raw row deltas (the live detector) and
    returns the model's net fact changes.  Both judge a row with the
    same :meth:`_shows`, so there is one view definition.  A delta
    re-judges the rows it adds or removes plus, through a per-condition
    projection index built on first use, the rows of other relations
    whose condition projects onto a changed row.
    """

    def __init__(self, rules: Mapping[str, ViewRule], params: dict) -> None:
        self.rules = rules
        self.raw: dict[str, set[tuple]] = {name: set() for name in rules}
        self.model = Interpretation(
            relations={
                rule.target: set()
                for rule in rules.values()
                if rule.target is not None and not rule.numeric
            },
            numerics={
                rule.target: {}
                for rule in rules.values()
                if rule.target is not None and rule.numeric
            },
            params=dict(params),
        )
        #: condition relation -> (dependent, projection -> its rows)
        self._readers: dict[str, list[tuple[str, dict]]] | None = None
        #: dependent relation -> (projector, projection -> its rows)
        self._projections: dict[str, list[tuple[Callable, dict]]] = {}

    def _shows(self, name: str, row: tuple) -> bool:
        raw = self.raw
        needs, unless = self.rules[name].tests
        for other, project in needs:
            if project(row) not in raw[other]:
                return False
        for other, project in unless:
            if project(row) in raw[other]:
                return False
        return True

    def fold(self, raw: dict[str, set[tuple]]) -> Interpretation:
        """The model of complete raw relations (taken over, not copied)."""
        self.raw = raw
        model = self.model
        for name, rows in raw.items():
            rule = self.rules[name]
            if rule.target is None:
                continue
            needs, unless = rule.tests
            if needs or any(raw[other] for other, _ in unless):
                rows = [row for row in rows if self._shows(name, row)]
            # else nothing can hide a row: show them all at once
            if rule.numeric:
                model.numerics[rule.target].update(
                    (row[:-1], row[-1]) for row in rows
                )
            else:
                model.relations[rule.target].update(rows)
        return model

    def _index(self) -> dict[str, list[tuple[str, dict]]]:
        readers: dict[str, list[tuple[str, dict]]] = {}
        for name, rule in self.rules.items():
            needs, unless = rule.tests
            for other, project in needs + unless:
                by_projection: dict[tuple, set] = {}
                for row in self.raw[name]:
                    by_projection.setdefault(project(row), set()).add(row)
                self._projections.setdefault(name, []).append(
                    (project, by_projection)
                )
                readers.setdefault(other, []).append((name, by_projection))
        self._readers = readers
        return readers

    def apply(
        self, added: dict[str, set[tuple]], removed: dict[str, set[tuple]]
    ) -> list[tuple[str, tuple, int]]:
        """Move by raw rows that appeared / went (disjoint, net).

        Returns the model's net changes ``(pred, row, step)``: ``step``
        +1 for a row or cell that appeared, -1 for one that went, 0 for
        a cell whose value moved.
        """
        readers = self._readers if self._readers is not None else self._index()
        raw = self.raw
        touched: dict[str, set[tuple]] = {}
        for delta, step in ((removed, -1), (added, 1)):
            for name, rows in delta.items():
                if step < 0:
                    raw[name].difference_update(rows)
                else:
                    raw[name].update(rows)
                touched.setdefault(name, set()).update(rows)
                for project, by_projection in self._projections.get(name, ()):
                    for row in rows:
                        key = project(row)
                        if step > 0:
                            by_projection.setdefault(key, set()).add(row)
                        else:
                            bucket = by_projection[key]
                            bucket.discard(row)
                            if not bucket:
                                del by_projection[key]
        for delta in (removed, added):
            for name, rows in delta.items():
                for dependent, by_projection in readers.get(name, ()):
                    again = touched.setdefault(dependent, set())
                    for row in rows:
                        again.update(by_projection.get(row, ()))
        changes: list[tuple[str, tuple, int]] = []
        model = self.model
        for name, rows in touched.items():
            rule = self.rules[name]
            target = rule.target
            if target is None:
                continue
            present = raw[name]
            if rule.numeric:
                cells = model.numerics[target]
                values: dict[tuple, object] = {}
                for row in rows:
                    shown = row in present and self._shows(name, row)
                    if shown or row[:-1] not in values:
                        values[row[:-1]] = row[-1] if shown else None
                for key, value in values.items():
                    old = cells.get(key)
                    if value == old:
                        continue
                    if value is None:
                        del cells[key]
                    else:
                        cells[key] = value
                    changes.append(
                        (target, key, -1 if value is None else int(old is None))
                    )
                continue
            shown_rows = model.relations[target]
            for row in rows:
                shown = row in present and self._shows(name, row)
                if shown == (row in shown_rows):
                    continue
                if shown:
                    model.insert(target, row)
                else:
                    model.remove(target, row)
                changes.append((target, row, 1 if shown else -1))
        return changes


class AppAdapter:
    """Base adapter; subclasses fill in the application specifics."""

    name: str = ""

    #: Operation name -> bound-method dispatch table, built once per
    #: adapter class from its ``op_*`` methods: the trial loop calls
    #: ``dispatch`` for every issued op, and a precomputed dict lookup
    #: beats per-op ``getattr`` string formatting.
    _op_table: dict = {}
    _resolved: dict = {}

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        cls._resolved = {}  # variant -> one ViewRule per raw relation
        cls._op_table = {
            attr[3:]: getattr(cls, attr)
            for attr in dir(cls)
            if attr.startswith("op_")
        }

    def defaults(self) -> dict:
        return {}

    def spec(self, params: dict) -> ApplicationSpec:
        raise NotImplementedError

    def registry(self, variant: Variant, params: dict):
        raise NotImplementedError

    def make_app(self, cluster, variant: Variant, params: dict):
        raise NotImplementedError

    def setup(self, app, params: dict, region: str) -> None:
        raise NotImplementedError

    def dispatch(
        self, app, region: str, op: str, args: tuple[str, ...], done
    ) -> None:
        handler = self._op_table.get(op)
        if handler is None:
            raise CheckError(f"{self.name} has no operation {op!r}")
        handler(self, app, region, args, done)

    #: Every raw relation ``rows`` can emit; the fold seeds each empty.
    raw_relations: tuple[str, ...] = ()

    def rows(
        self, key: str, obj, variant: Variant
    ) -> Iterable[tuple[str, tuple]]:
        """The raw ``(relation, row)`` pairs the object at ``key`` adds.

        Must depend on nothing but ``obj`` (and the variant): the live
        detector re-runs it for the keys a commit record names and
        keeps every other key's rows.
        """
        raise NotImplementedError

    def row_of(
        self, key: str, element, variant: Variant
    ) -> tuple[tuple[str, tuple], ...]:
        """The raw pairs one member ``element`` of the set at ``key`` adds.

        For every key whose object's rows are one per member (an
        ``AWSet`` or ``RWSet``), ``rows`` is the union of ``row_of`` over
        its members, and distinct members give distinct pairs: the live
        detector re-judges only the elements a record names by asking
        whether each is still a member.
        """
        raise NotImplementedError

    def view_rules(self, variant: Variant) -> dict[str, ViewRule]:
        """The non-identity :class:`ViewRule` per raw relation; any
        relation left out shows as itself."""
        return {}

    def model_params(self, params: dict) -> dict[str, int]:
        """The observed model's parameter bindings."""
        return {}

    def new_view(self, variant: Variant, params: dict) -> View:
        """An empty :class:`View` under this adapter's rules."""
        rules = self._resolved.get(variant)
        if rules is None:
            given = self.view_rules(variant)
            rules = self._resolved[variant] = {
                name: given.get(name, ViewRule(name))
                for name in self.raw_relations
            }
        return View(rules, self.model_params(params))

    def extract(
        self, replica: Replica, variant: Variant, params: dict
    ) -> Interpretation:
        """The :class:`View` fold of ``rows`` across ``replica.keys()``."""
        raw: dict[str, set[tuple]] = {
            name: set() for name in self.raw_relations
        }
        get_object = replica.get_object
        for key in replica.keys():
            for name, row in self.rows(key, get_object(key), variant):
                raw[name].add(row)
        return self.new_view(variant, params).fold(raw)

    def probes(
        self, replica: Replica, variant: Variant, params: dict
    ) -> list[BoundProbe]:
        return []

    def generate(
        self,
        seed: int,
        regions: tuple[str, ...],
        n_ops: int,
        params: dict,
    ) -> list[TraceOp]:
        raise NotImplementedError


def _sorted_trace(ops: list[TraceOp]) -> list[TraceOp]:
    # Stable, fully deterministic order (ties broken by session/op).
    return sorted(ops, key=lambda o: (o.at_ms, o.session, o.op, o.args))


# ---------------------------------------------------------------------------
# Tournament
# ---------------------------------------------------------------------------


class TournamentAdapter(AppAdapter):
    name = "tournament"

    def defaults(self) -> dict:
        return {"capacity": 3, "n_players": 8, "n_tournaments": 3}

    def spec(self, params: dict) -> ApplicationSpec:
        return tournament_spec(capacity=params["capacity"])

    def registry(self, variant: Variant, params: dict):
        return tournament_registry(variant, capacity=params["capacity"])

    def make_app(self, cluster, variant: Variant, params: dict):
        return TournamentApp(cluster, variant, capacity=params["capacity"])

    def setup(self, app, params: dict, region: str) -> None:
        app.setup(
            [f"p{i}" for i in range(params["n_players"])],
            [f"t{i}" for i in range(params["n_tournaments"])],
            region,
        )

    # -- operation dispatch --------------------------------------------------

    def op_add_player(self, app, region, args, done):
        app.add_player(region, args[0], done)

    def op_add_tourn(self, app, region, args, done):
        app.add_tourn(region, args[0], done)

    def op_enroll(self, app, region, args, done):
        app.enroll(region, args[0], args[1], done)

    def op_disenroll(self, app, region, args, done):
        app.disenroll(region, args[0], args[1], done)

    def op_begin(self, app, region, args, done):
        app.begin_tourn(region, args[0], done)

    def op_finish(self, app, region, args, done):
        app.finish_tourn(region, args[0], done)

    def op_remove(self, app, region, args, done):
        app.rem_tourn(region, args[0], done)

    def op_do_match(self, app, region, args, done):
        app.do_match(region, args[0], args[1], args[2], done)

    def op_status(self, app, region, args, done):
        app.status(region, args[0], done)

    # -- state extraction ----------------------------------------------------

    raw_relations = (
        "player", "tournament", "enrolled", "active", "finished",
        "inMatch", "trimmed",
    )
    _UNARY = {
        "players": "player",
        "tournaments": "tournament",
        "active": "active",
        "finished": "finished",
    }

    def rows(self, key, obj, variant):
        name = self._UNARY.get(key)
        if name is not None:
            return [(name, (x,)) for x in obj.value()]
        if key in ("enrolled", "inMatch"):
            return [(key, row) for row in obj.value()]
        if (
            variant is Variant.IPA
            and key.startswith("capacity:")
            and isinstance(obj, CompensationSet)
        ):
            # Pending capacity trims: (victim, tournament) pairs the
            # view drops from enrolments and matches.
            t = key.split(":", 1)[1]
            return [("trimmed", (v, t)) for v in obj.raw_value() - obj.value()]
        return ()

    def row_of(self, key, element, variant):
        name = self._UNARY.get(key)
        if name is not None:
            return ((name, (element,)),)
        if key in ("enrolled", "inMatch"):
            return ((key, element),)
        return ()

    #: The observed view applies pending capacity trims exactly as a
    #: reading transaction would: trimmed players drop out of the
    #: tournament's enrolments and matches.
    _VIEW = {
        "enrolled": ViewRule("enrolled", unless=(("trimmed", (0, 1)),)),
        "inMatch": ViewRule(
            "inMatch", unless=(("trimmed", (0, 2)), ("trimmed", (1, 2)))
        ),
        "trimmed": ViewRule(None),
    }

    def view_rules(self, variant):
        return self._VIEW

    def model_params(self, params):
        return {"Capacity": params["capacity"]}

    extract = AppAdapter.extract  # own attribute: per-class timing shims

    def probes(
        self, replica: Replica, variant: Variant, params: dict
    ) -> list[BoundProbe]:
        out = []
        for key in sorted(replica.keys()):
            if not key.startswith("capacity:"):
                continue
            obj = replica.get_object(key)
            if isinstance(obj, CompensationSet):
                raw = len(obj.raw_value())
                observed = len(obj.value())
            else:
                raw = observed = len(obj.value())
            out.append(
                BoundProbe(
                    key=key,
                    raw=raw,
                    observed=observed,
                    bound=params["capacity"],
                    op="<=",
                    covered=raw - observed,
                )
            )
        return out

    # -- trace generation ----------------------------------------------------

    def generate(self, seed, regions, n_ops, params):
        rng = random.Random(seed)
        players = [f"p{i}" for i in range(params["n_players"])]
        tournaments = [f"t{i}" for i in range(params["n_tournaments"])]
        ops: list[TraceOp] = []
        now = 200.0

        def two_regions():
            return rng.sample(list(regions), 2)

        while len(ops) < n_ops:
            template = rng.choice(
                (
                    "enroll_remove",
                    "begin_finish",
                    "capacity_burst",
                    "match_disenroll",
                    "filler",
                    "filler",
                )
            )
            t = rng.choice(tournaments)
            if template == "enroll_remove":
                # Figure 2b/2c: a fresh enrolment races a removal.
                r1, r2 = two_regions()
                p = rng.choice(players)
                ops.append(TraceOp(now, _session(r1), "enroll", (p, t)))
                ops.append(
                    TraceOp(
                        now + rng.uniform(0.0, 30.0),
                        _session(r2),
                        "remove",
                        (t,),
                    )
                )
            elif template == "begin_finish":
                # Figure 1's begin/finish race: both sides act on an
                # already-active tournament within one RTT.
                r1, r2, r3 = (
                    rng.sample(list(regions), 3)
                    if len(regions) >= 3
                    else (regions[0], regions[-1], regions[0])
                )
                ops.append(TraceOp(now, _session(r1), "begin", (t,)))
                later = now + 900.0
                ops.append(TraceOp(later, _session(r2), "finish", (t,)))
                ops.append(
                    TraceOp(
                        later + rng.uniform(0.0, 25.0),
                        _session(r3),
                        "begin",
                        (t,),
                    )
                )
                now = later
            elif template == "capacity_burst":
                # Every region fills the last seats at the same time.
                burst = rng.sample(players, min(len(players), 6))
                for i, p in enumerate(burst):
                    region = regions[i % len(regions)]
                    ops.append(
                        TraceOp(
                            now + rng.uniform(0.0, 40.0),
                            _session(region, 1),
                            "enroll",
                            (p, t),
                        )
                    )
            elif template == "match_disenroll":
                p, q = rng.sample(players, 2)
                r1, r2 = two_regions()
                ops.append(TraceOp(now, _session(r1), "enroll", (p, t)))
                ops.append(TraceOp(now + 10.0, _session(r1), "enroll", (q, t)))
                ops.append(TraceOp(now + 20.0, _session(r1), "begin", (t,)))
                later = now + 900.0
                ops.append(
                    TraceOp(later, _session(r1), "do_match", (p, q, t))
                )
                ops.append(
                    TraceOp(
                        later + rng.uniform(0.0, 25.0),
                        _session(r2),
                        "disenroll",
                        (p, t),
                    )
                )
                now = later
            else:
                region = rng.choice(list(regions))
                ops.append(
                    TraceOp(now, _session(region, 1), "status", (t,))
                )
            now += rng.uniform(120.0, 400.0)
        return _sorted_trace(ops[:n_ops])


# ---------------------------------------------------------------------------
# Ticket
# ---------------------------------------------------------------------------


class TicketAdapter(AppAdapter):
    name = "ticket"

    def defaults(self) -> dict:
        return {"capacity": 3, "n_events": 2}

    def spec(self, params: dict) -> ApplicationSpec:
        return ticket_spec(capacity=params["capacity"])

    def registry(self, variant: Variant, params: dict):
        return ticket_registry(variant, capacity=params["capacity"])

    def make_app(self, cluster, variant: Variant, params: dict):
        return TicketApp(cluster, variant, capacity=params["capacity"])

    def setup(self, app, params: dict, region: str) -> None:
        app.setup([f"e{i}" for i in range(params["n_events"])], region)

    def op_create_event(self, app, region, args, done):
        app.create_event(region, args[0], done)

    def op_buy(self, app, region, args, done):
        app.buy_ticket(region, args[0], args[1], done)

    def op_view(self, app, region, args, done):
        app.view_event(region, args[0], done)

    raw_relations = ("event", "sold")

    def rows(self, key, obj, variant):
        if key == "events":
            return [("event", (e,)) for e in obj.value()]
        if key.startswith("sold:"):
            event = key.split(":", 1)[1]
            # CompensationSet.value() is already the compensated view.
            return [("sold", (ticket, event)) for ticket in obj.value()]
        return ()

    def row_of(self, key, element, variant):
        if key == "events":
            return (("event", (element,)),)
        if key.startswith("sold:"):
            return (("sold", (element, key.split(":", 1)[1])),)
        return ()

    def model_params(self, params):
        return {"EventCapacity": params["capacity"]}

    extract = AppAdapter.extract  # own attribute: per-class timing shims

    def probes(
        self, replica: Replica, variant: Variant, params: dict
    ) -> list[BoundProbe]:
        out = []
        for key in sorted(replica.keys()):
            if not key.startswith("sold:"):
                continue
            obj = replica.get_object(key)
            if isinstance(obj, CompensationSet):
                raw = len(obj.raw_value())
                observed = len(obj.value())
            else:
                raw = observed = len(obj.value())
            out.append(
                BoundProbe(
                    key=key,
                    raw=raw,
                    observed=observed,
                    bound=params["capacity"],
                    op="<=",
                    covered=raw - observed,
                )
            )
        return out

    def generate(self, seed, regions, n_ops, params):
        rng = random.Random(seed)
        events = [f"e{i}" for i in range(params["n_events"])]
        ops: list[TraceOp] = []
        now = 200.0
        serial = 0
        while len(ops) < n_ops:
            template = rng.choice(
                ("oversell_burst", "oversell_burst", "filler")
            )
            event = rng.choice(events)
            if template == "oversell_burst":
                # Every region grabs the remaining seats concurrently;
                # each local guard still sees free capacity.
                for i in range(2 * len(regions)):
                    region = regions[i % len(regions)]
                    serial += 1
                    ops.append(
                        TraceOp(
                            now + rng.uniform(0.0, 45.0),
                            _session(region),
                            "buy",
                            (f"k{region}-{serial}", event),
                        )
                    )
            else:
                region = rng.choice(list(regions))
                ops.append(
                    TraceOp(now, _session(region, 1), "view", (event,))
                )
            now += rng.uniform(250.0, 600.0)
        return _sorted_trace(ops[:n_ops])


# ---------------------------------------------------------------------------
# TPC-W storefront
# ---------------------------------------------------------------------------


class TpcwAdapter(AppAdapter):
    name = "tpcw"

    def defaults(self) -> dict:
        return {"level": 4, "n_products": 3}

    def spec(self, params: dict) -> ApplicationSpec:
        return tpcw_spec()

    def registry(self, variant: Variant, params: dict):
        return tpcw_registry(variant, level=params["level"])

    def make_app(self, cluster, variant: Variant, params: dict):
        return TpcwApp(cluster, variant)

    def setup(self, app, params: dict, region: str) -> None:
        app.setup([f"i{k}" for k in range(params["n_products"])], region)

    def op_add_product(self, app, region, args, done):
        app.add_product(region, args[0], done)

    def op_rem_product(self, app, region, args, done):
        app.rem_product(region, args[0], done)

    def op_new_order(self, app, region, args, done):
        app.new_order(region, args[0], args[1], done)

    def op_restock(self, app, region, args, done):
        app.restock(region, args[0], int(args[1]), done)

    def op_browse(self, app, region, args, done):
        app.browse(region, args[0], done)

    raw_relations = ("product", "order", "orderOf", "stock")
    _UNARY = {"products": "product", "orders": "order"}

    def rows(self, key, obj, variant):
        name = self._UNARY.get(key)
        if name is not None:
            return [(name, (x,)) for x in obj.value()]
        if key == "orderOf":
            return [("orderOf", row) for row in obj.value()]
        if key.startswith("stock:"):
            value = obj.value()
            if isinstance(obj, CompensatedCounter):
                # The observed stock includes the correction the next
                # reading transaction would commit.
                pending = obj.check_violation()
                if pending is not None:
                    value += pending.amount
            return [("stock", (key.split(":", 1)[1], value))]
        return ()

    def row_of(self, key, element, variant):
        name = self._UNARY.get(key)
        if name is not None:
            return ((name, (element,)),)
        if key == "orderOf":
            return (("orderOf", element),)
        return ()

    #: One (product, level) row per counter shows as the numeric
    #: predicate's cell.
    _VIEW = {"stock": ViewRule("stock", numeric=True)}

    def view_rules(self, variant):
        return self._VIEW

    extract = AppAdapter.extract  # own attribute: per-class timing shims

    def probes(
        self, replica: Replica, variant: Variant, params: dict
    ) -> list[BoundProbe]:
        out = []
        for key in sorted(replica.keys()):
            if not key.startswith("stock:"):
                continue
            obj = replica.get_object(key)
            if isinstance(obj, CompensatedCounter):
                raw = obj.raw_value()
                pending = obj.check_violation()
                observed = obj.value() + (
                    pending.amount if pending is not None else 0
                )
                covered = obj.corrections_total + (
                    pending.amount if pending is not None else 0
                )
            else:
                raw = observed = obj.value()
                covered = 0
            out.append(
                BoundProbe(
                    key=key,
                    raw=raw,
                    observed=observed,
                    bound=0,
                    op=">=",
                    covered=covered,
                )
            )
        return out

    def generate(self, seed, regions, n_ops, params):
        rng = random.Random(seed)
        products = [f"i{k}" for k in range(params["n_products"])]
        ops: list[TraceOp] = []
        now = 200.0
        serial = 0
        extra = 0
        while len(ops) < n_ops:
            template = rng.choice(
                (
                    "oversell_stock",
                    "oversell_stock",
                    "order_remove",
                    "filler",
                )
            )
            if template == "oversell_stock":
                # Concurrent orders drain the same product past zero;
                # each guard sees a positive local stock.
                product = rng.choice(products)
                for i in range(2 * len(regions)):
                    region = regions[i % len(regions)]
                    serial += 1
                    ops.append(
                        TraceOp(
                            now + rng.uniform(0.0, 45.0),
                            _session(region),
                            "new_order",
                            (f"o{region}-{serial}", product),
                        )
                    )
            elif template == "order_remove":
                # Referential race: an order lands while the product is
                # delisted elsewhere (Figure 2c's shape).
                extra += 1
                fresh = f"x{extra}"
                r1, r2 = rng.sample(list(regions), 2)
                ops.append(
                    TraceOp(now, _session(r1), "add_product", (fresh,))
                )
                later = now + 900.0
                serial += 1
                ops.append(
                    TraceOp(
                        later,
                        _session(r1),
                        "new_order",
                        (f"o{r1}-{serial}", fresh),
                    )
                )
                ops.append(
                    TraceOp(
                        later + rng.uniform(0.0, 25.0),
                        _session(r2),
                        "rem_product",
                        (fresh,),
                    )
                )
                now = later
            else:
                region = rng.choice(list(regions))
                ops.append(
                    TraceOp(
                        now,
                        _session(region, 1),
                        "browse",
                        (rng.choice(products),),
                    )
                )
            now += rng.uniform(250.0, 600.0)
        return _sorted_trace(ops[:n_ops])


# ---------------------------------------------------------------------------
# Twitter
# ---------------------------------------------------------------------------


class TwitterAdapter(AppAdapter):
    name = "twitter"

    def defaults(self) -> dict:
        return {"n_users": 6}

    def spec(self, params: dict) -> ApplicationSpec:
        return twitter_spec()

    def registry(self, variant: Variant, params: dict):
        return twitter_registry(variant)

    def make_app(self, cluster, variant: Variant, params: dict):
        return TwitterApp(cluster, variant)

    def setup(self, app, params: dict, region: str) -> None:
        app.setup([f"u{i}" for i in range(params["n_users"])], region)

    def op_add_user(self, app, region, args, done):
        app.add_user(region, args[0], done)

    def op_rem_user(self, app, region, args, done):
        app.rem_user(region, args[0], done)

    def op_follow(self, app, region, args, done):
        app.follow(region, args[0], args[1], done)

    def op_unfollow(self, app, region, args, done):
        app.unfollow(region, args[0], args[1], done)

    def op_tweet(self, app, region, args, done):
        app.tweet(region, args[0], args[1], done)

    def op_retweet(self, app, region, args, done):
        app.retweet(region, args[0], args[1], args[2], done)

    def op_del_tweet(self, app, region, args, done):
        app.del_tweet(region, args[0], args[1], done)

    def op_timeline(self, app, region, args, done):
        app.timeline(region, args[0], done)

    raw_relations = ("user", "tweet", "authored", "follows", "inTimeline")

    def rows(self, key, obj, variant):
        if key == "users":
            return [("user", (u,)) for u in obj.value()]
        if key == "tweets":
            return [("tweet", (w,)) for w in obj.value()]
        prefix, _, owner = key.partition(":")
        if prefix == "authored":
            return [("authored", (owner, w)) for w in obj.value()]
        if prefix == "followers":
            return [("follows", (u, owner)) for u in obj.value()]
        if prefix == "timeline":
            # (tweet, author) pairs: every follower's timeline holds the
            # same pair, so several keys contribute one row.
            return [("inTimeline", pair) for pair in obj.value()]
        return ()

    def row_of(self, key, element, variant):
        if key == "users":
            return (("user", (element,)),)
        if key == "tweets":
            return (("tweet", (element,)),)
        prefix, _, owner = key.partition(":")
        if prefix == "authored":
            return (("authored", (owner, element)),)
        if prefix == "followers":
            return (("follows", (element, owner)),)
        if prefix == "timeline":
            return (("inTimeline", element),)
        return ()

    #: The rem-wins strategy's reads hide references to removed
    #: entities (the lazy compensation the timeline read commits in
    #: §5.1.2) -- the observed state filters them the same way.
    _REM_WINS_VIEW = {
        "authored": ViewRule(
            "authored", needs=(("user", (0,)), ("tweet", (1,)))
        ),
        "follows": ViewRule("follows", needs=(("user", (0,)), ("user", (1,)))),
        "inTimeline": ViewRule(
            "inTimeline", needs=(("tweet", (0,)), ("user", (1,)))
        ),
    }

    def view_rules(self, variant):
        return self._REM_WINS_VIEW if variant is Variant.REM_WINS else {}

    extract = AppAdapter.extract  # own attribute: per-class timing shims

    def generate(self, seed, regions, n_ops, params):
        rng = random.Random(seed)
        users = [f"u{i}" for i in range(params["n_users"])]
        ops: list[TraceOp] = []
        # A deterministic follow graph first, so tweet fan-out has
        # somewhere to land.
        now = 100.0
        for i, u in enumerate(users):
            for j in (1, 2):
                v = users[(i + j) % len(users)]
                region = regions[i % len(regions)]
                ops.append(TraceOp(now, _session(region), "follow", (v, u)))
                now += 15.0
        now += 800.0  # let the graph replicate
        serial = 0
        extra = 0
        while len(ops) < n_ops:
            template = rng.choice(
                ("tweet_del", "tweet_del", "rem_user_tweet", "filler")
            )
            if template == "tweet_del":
                # A retweet races the tweet's deletion (Figure 2a's
                # dangling-reference shape on timelines).
                author = rng.choice(users)
                serial += 1
                w = f"w{serial}"
                r1, r2 = rng.sample(list(regions), 2)
                ops.append(
                    TraceOp(now, _session(r1), "tweet", (author, w))
                )
                later = now + 900.0
                retweeter = rng.choice(users)
                ops.append(
                    TraceOp(
                        later,
                        _session(r2),
                        "retweet",
                        (retweeter, w, author),
                    )
                )
                ops.append(
                    TraceOp(
                        later + rng.uniform(0.0, 25.0),
                        _session(r1),
                        "del_tweet",
                        (author, w),
                    )
                )
                now = later
            elif template == "rem_user_tweet":
                # A fresh user tweets while being removed elsewhere.
                extra += 1
                fresh = f"z{extra}"
                r1, r2 = rng.sample(list(regions), 2)
                ops.append(
                    TraceOp(now, _session(r1), "add_user", (fresh,))
                )
                later = now + 900.0
                serial += 1
                ops.append(
                    TraceOp(
                        later, _session(r1), "tweet", (fresh, f"w{serial}")
                    )
                )
                ops.append(
                    TraceOp(
                        later + rng.uniform(0.0, 25.0),
                        _session(r2),
                        "rem_user",
                        (fresh,),
                    )
                )
                now = later
            else:
                region = rng.choice(list(regions))
                ops.append(
                    TraceOp(
                        now,
                        _session(region, 1),
                        "timeline",
                        (rng.choice(users),),
                    )
                )
            now += rng.uniform(250.0, 600.0)
        return _sorted_trace(ops[:n_ops])


ADAPTERS: dict[str, AppAdapter] = {
    adapter.name: adapter
    for adapter in (
        TournamentAdapter(),
        TicketAdapter(),
        TpcwAdapter(),
        TwitterAdapter(),
    )
}
