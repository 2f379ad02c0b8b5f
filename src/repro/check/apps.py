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
  conflict detector can redo the first for only the keys a record
  touched: ``rows`` maps one object to the raw ``(relation, row)``
  pairs it contributes (a function of that object alone), and ``view``
  turns the folded rows into the observed model (rem-wins reference
  hiding, IPA capacity trims -- whatever needs more than one object);
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

import random
from dataclasses import dataclass
from typing import Iterable

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


class AppAdapter:
    """Base adapter; subclasses fill in the application specifics."""

    name: str = ""

    #: Operation name -> bound-method dispatch table, built once per
    #: adapter class from its ``op_*`` methods: the trial loop calls
    #: ``dispatch`` for every issued op, and a precomputed dict lookup
    #: beats per-op ``getattr`` string formatting.
    _op_table: dict = {}

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
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

    def view(
        self, raw: dict[str, set[tuple]], variant: Variant, params: dict
    ) -> Interpretation:
        """The observed model over the folded raw rows (``raw`` is not
        mutated; its sets may be shared into the result)."""
        raise NotImplementedError

    def extract(
        self, replica: Replica, variant: Variant, params: dict
    ) -> Interpretation:
        """``view`` over the fold of ``rows`` across ``replica.keys()``."""
        raw: dict[str, set[tuple]] = {
            name: set() for name in self.raw_relations
        }
        get_object = replica.get_object
        for key in replica.keys():
            for name, row in self.rows(key, get_object(key), variant):
                raw[name].add(row)
        return self.view(raw, variant, params)

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

    def view(self, raw, variant, params):
        enrolled = raw["enrolled"]
        in_match = raw["inMatch"]
        trimmed = raw["trimmed"]
        if trimmed:
            # The observed view applies pending capacity trims exactly
            # as a reading transaction would: trimmed players drop out
            # of the tournament's enrolments and matches.
            enrolled = enrolled - trimmed
            in_match = {
                (p, q, t)
                for p, q, t in in_match
                if (p, t) not in trimmed and (q, t) not in trimmed
            }
        return Interpretation(
            relations={
                "player": raw["player"],
                "tournament": raw["tournament"],
                "enrolled": enrolled,
                "active": raw["active"],
                "finished": raw["finished"],
                "inMatch": in_match,
            },
            params={"Capacity": params["capacity"]},
        )

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

    def view(self, raw, variant, params):
        return Interpretation(
            relations={"event": raw["event"], "sold": raw["sold"]},
            params={"EventCapacity": params["capacity"]},
        )

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
            # One (product, level) row per counter; the view turns the
            # rows into the numeric predicate's cells.
            return [("stock", (key.split(":", 1)[1], value))]
        return ()

    def view(self, raw, variant, params):
        return Interpretation(
            relations={
                "product": raw["product"],
                "order": raw["order"],
                "orderOf": raw["orderOf"],
            },
            numerics={
                "stock": {(product,): level for product, level in raw["stock"]}
            },
        )

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

    def view(self, raw, variant, params):
        users = raw["user"]
        tweets = raw["tweet"]
        authored = raw["authored"]
        follows = raw["follows"]
        in_timeline = raw["inTimeline"]
        if variant is Variant.REM_WINS:
            # The rem-wins strategy's reads hide references to removed
            # entities (the lazy compensation the timeline read commits
            # in §5.1.2) -- the observed state filters them the same
            # way.
            authored = {
                (u, w)
                for u, w in authored
                if (u,) in users and (w,) in tweets
            }
            follows = {
                (u, v)
                for u, v in follows
                if (u,) in users and (v,) in users
            }
            in_timeline = {
                (w, u)
                for w, u in in_timeline
                if (w,) in tweets and (u,) in users
            }
        return Interpretation(
            relations={
                "user": users,
                "tweet": tweets,
                "authored": authored,
                "follows": follows,
                "inTimeline": in_timeline,
            },
        )

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
