"""Experiment configurations and workload issuers.

The four system configurations of §5.2.1 -- Causal, IPA, Indigo,
Strong -- map onto (store mode, application variant) pairs; the
workload classes turn an application driver into the issuer callable
the closed-loop runner expects.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.apps.common import Variant
from repro.apps.ticket import TicketApp, ticket_registry
from repro.apps.tournament import TournamentApp, tournament_registry
from repro.apps.twitter import TwitterApp, twitter_registry
from repro.sim.events import Simulator
from repro.sim.latency import REGIONS, GeoLatencyModel, synthetic_topology
from repro.sim.runner import Client
from repro.sim.workload import OperationMix, ZipfGenerator
from repro.store.cluster import Cluster, ConsistencyMode


@dataclass(frozen=True)
class ExperimentConfig:
    """One line of the comparison plots."""

    name: str
    mode: ConsistencyMode
    variant: Variant


#: The four configurations of Figure 4, strongest first.
CONFIGS = (
    ExperimentConfig("Strong", ConsistencyMode.STRONG, Variant.CAUSAL),
    ExperimentConfig("Indigo", ConsistencyMode.INDIGO, Variant.CAUSAL),
    ExperimentConfig("IPA", ConsistencyMode.CAUSAL, Variant.IPA),
    ExperimentConfig("Causal", ConsistencyMode.CAUSAL, Variant.CAUSAL),
)


#: The Figure 5 / workload operation mix: 35% writes (§5.2.2), spread
#: evenly over the six write operations.
TOURNAMENT_MIX = {
    "status": 65.0,
    "enroll": 7.0,
    "disenroll": 7.0,
    "begin": 6.0,
    "finish": 6.0,
    "do_match": 6.0,
    "remove": 3.0,
}


def build_tournament(
    config: ExperimentConfig,
    n_players: int = 60,
    n_tournaments: int = 12,
    capacity: int = 8,
    seed: int = 23,
    n_regions: int | None = None,
    jitter: float | None = None,
    batch_ms: float = 0.0,
    full_vv: bool = False,
    stability_interval_ms: float | None = 1_000.0,
    mix: dict[str, float] | None = None,
    engine: str | None = None,
    shards: int | None = None,
) -> tuple[Simulator, TournamentApp, "TournamentWorkload"]:
    """A fresh simulated deployment of the Tournament application.

    ``n_regions`` beyond the paper's three uses
    :func:`synthetic_topology` (seeded RTTs for the extra pairs).
    ``jitter`` overrides the latency model's jitter (0 gives
    deterministic latencies regardless of message counts -- required
    for bit-for-bit digest comparisons across batching modes).
    ``batch_ms``/``full_vv`` pass through to the :class:`Cluster`;
    ``mix`` overrides the workload's operation mix (defaults to
    :data:`TOURNAMENT_MIX`).
    ``stability_interval_ms`` runs the causal-stability service, which
    garbage-collects CRDT tombstones and compacts commit logs --
    essential for long runs (each arriving rem-wins add scans the live
    tombstones, which only this collects); None disables.
    ``engine``/``shards`` select the per-replica storage backend and
    keyspace shard count (None defers to the REPRO_ENGINE /
    REPRO_SHARDS environment defaults).
    """
    sim = Simulator()
    registry = tournament_registry(config.variant, capacity=capacity)
    if n_regions is None or n_regions == len(REGIONS):
        regions: tuple[str, ...] = REGIONS
        rtt = None
    else:
        regions, rtt = synthetic_topology(n_regions)
    latency_kwargs = {} if jitter is None else {"jitter": jitter}
    latency = (
        GeoLatencyModel(rtt=rtt, **latency_kwargs)
        if rtt is not None or jitter is not None
        else None
    )
    cluster = Cluster(
        sim,
        registry,
        regions=regions,
        mode=config.mode,
        latency=latency,
        batch_ms=batch_ms,
        full_vv=full_vv,
        engine=engine,
        shards=shards,
    )
    app = TournamentApp(cluster, config.variant, capacity=capacity)
    players = [f"p{i}" for i in range(n_players)]
    tournaments = [f"t{i}" for i in range(n_tournaments)]
    app.setup(players, tournaments, regions[0])
    for index, tournament in enumerate(tournaments):
        cluster.reservations.register(
            f"tourn:{tournament}", regions[index % len(regions)]
        )
    if stability_interval_ms is not None:
        cluster.start_stability_service(interval_ms=stability_interval_ms)
    workload = TournamentWorkload(
        app, players, tournaments, seed=seed, mix=mix
    )
    return sim, app, workload


class TournamentWorkload:
    """Issues the §5.2.2 mix against a TournamentApp.

    ``locality`` is the probability a client targets a tournament whose
    reservation starts in its own region -- high locality is what makes
    Indigo's reservation exchanges "very infrequent" in Figure 4.
    """

    def __init__(
        self,
        app: TournamentApp,
        players: list[str],
        tournaments: list[str],
        seed: int = 23,
        locality: float = 0.95,
        mix: dict[str, float] | None = None,
    ) -> None:
        self._app = app
        self._players = players
        self._tournaments = tournaments
        self._locality = locality
        self._mix = OperationMix(mix or TOURNAMENT_MIX, seed=seed)
        self._rng = random.Random(seed * 31 + 7)
        # Bound-method aliases for the per-operation draws.
        self._random = self._rng.random
        self._choice = self._rng.choice
        regions = app.cluster.regions
        self._local: dict[str, list[str]] = {r: [] for r in regions}
        for index, tournament in enumerate(tournaments):
            self._local[regions[index % len(regions)]].append(tournament)

    def _pick_tournament(self, region: str) -> str:
        pool = self._local[region]
        if pool and self._random() < self._locality:
            return self._choice(pool)
        return self._choice(self._tournaments)

    def issue(self, client: Client, done) -> None:
        op = self._mix.sample()
        region = client.region
        t = self._pick_tournament(region)
        app = self._app
        # Players are drawn lazily: the dominant status/begin ops only
        # need a tournament, and the extra RNG draws show up in the
        # simulator's hot path.
        if op == "status":
            app.status(region, t, done)
        elif op == "enroll":
            app.enroll(region, self._choice(self._players), t, done)
        elif op == "disenroll":
            app.disenroll(region, self._choice(self._players), t, done)
        elif op == "begin":
            app.begin_tourn(region, t, done)
        elif op == "finish":
            app.finish_tourn(region, t, done)
        elif op == "do_match":
            p = self._choice(self._players)
            q = self._choice(self._players)
            app.do_match(region, p, q, t, done)
        elif op == "remove":
            app.rem_tourn(region, t, done)
        else:  # pragma: no cover - mix is closed
            raise ValueError(op)


TWITTER_MIX = {
    "timeline": 55.0,
    "tweet": 15.0,
    "retweet": 8.0,
    "del_tweet": 5.0,
    "follow": 10.0,
    "unfollow": 2.0,
    "add_user": 3.0,
    "rem_user": 2.0,
}


class TwitterWorkload:
    """Issues the Figure 6 mix against a TwitterApp."""

    def __init__(
        self,
        app: TwitterApp,
        users: list[str],
        seed: int = 29,
        mix: dict[str, float] | None = None,
    ) -> None:
        self._app = app
        self._users = users
        self._mix = OperationMix(mix or TWITTER_MIX, seed=seed)
        self._rng = random.Random(seed * 17 + 3)
        self._tweet_seq = 0
        self._recent_tweets: list[tuple[str, str]] = [("w0", users[0])]

    def _new_tweet_id(self, region: str) -> str:
        self._tweet_seq += 1
        return f"{region}-w{self._tweet_seq}"

    def issue(self, client: Client, done) -> None:
        op = self._mix.sample()
        region = client.region
        u = self._rng.choice(self._users)
        v = self._rng.choice(self._users)
        app = self._app
        if op == "timeline":
            app.timeline(region, u, done)
        elif op == "tweet":
            tweet_id = self._new_tweet_id(region)
            self._recent_tweets.append((tweet_id, u))
            if len(self._recent_tweets) > 64:
                self._recent_tweets.pop(0)
            app.tweet(region, u, tweet_id, done)
        elif op == "retweet":
            tweet_id, author = self._rng.choice(self._recent_tweets)
            app.retweet(region, u, tweet_id, author, done)
        elif op == "del_tweet":
            tweet_id, author = self._rng.choice(self._recent_tweets)
            app.del_tweet(region, author, tweet_id, done)
        elif op == "follow":
            app.follow(region, u, v, done)
        elif op == "unfollow":
            app.unfollow(region, u, v, done)
        elif op == "add_user":
            app.add_user(region, f"{region}-u{self._rng.random():.6f}", done)
        elif op == "rem_user":
            app.rem_user(region, u, done)
        else:  # pragma: no cover - mix is closed
            raise ValueError(op)


def build_twitter(
    variant: Variant, n_users: int = 40, seed: int = 29
) -> tuple[Simulator, TwitterApp, TwitterWorkload]:
    sim = Simulator()
    registry = twitter_registry(variant)
    cluster = Cluster(sim, registry, mode=ConsistencyMode.CAUSAL)
    app = TwitterApp(cluster, variant)
    users = [f"u{i}" for i in range(n_users)]
    app.setup(users, REGIONS[0])
    # Pre-build a modest follower graph so tweets fan out.
    rng = random.Random(seed)

    def follow_batch(txn):
        for user in users:
            for follower in rng.sample(users, k=min(8, len(users))):
                txn.update(
                    f"followers:{user}",
                    lambda s, f=follower: s.prepare_add(f),
                )
        return "seed-follows"

    cluster.submit(REGIONS[0], follow_batch, lambda _op: None)
    cluster.settle()
    workload = TwitterWorkload(app, users, seed=seed)
    return sim, app, workload


TICKET_MIX = {
    "buy_ticket": 70.0,
    "view_event": 25.0,
    "create_event": 5.0,
}


class TicketWorkload:
    """Issues the Figure 7 mix; event choice is zipf-skewed (contention)."""

    def __init__(
        self,
        app: TicketApp,
        events: list[str],
        seed: int = 37,
        theta: float = 0.8,
        mix: dict[str, float] | None = None,
    ) -> None:
        self._app = app
        self._events = list(events)
        self._mix = OperationMix(mix or TICKET_MIX, seed=seed)
        self._zipf = ZipfGenerator(max(1, len(events)), theta=theta, seed=seed)
        self._rng = random.Random(seed * 13 + 5)
        self._ticket_seq = 0
        self._event_seq = len(events)

    def issue(self, client: Client, done) -> None:
        op = self._mix.sample()
        region = client.region
        app = self._app
        if op == "buy_ticket":
            # Freshest events are hottest: index zipf from the end.
            index = len(self._events) - 1 - (
                self._zipf.sample() % len(self._events)
            )
            event = self._events[index]
            self._ticket_seq += 1
            app.buy_ticket(
                region, f"{region}-k{self._ticket_seq}", event, done
            )
        elif op == "view_event":
            event = self._rng.choice(self._events)
            app.view_event(region, event, done)
        elif op == "create_event":
            self._event_seq += 1
            event = f"e{self._event_seq}"
            self._events.append(event)
            if len(self._events) > 40:
                self._events.pop(0)
            app.create_event(region, event, done)
        else:  # pragma: no cover - mix is closed
            raise ValueError(op)


def build_ticket(
    variant: Variant,
    n_events: int = 10,
    capacity: int = 10,
    seed: int = 37,
) -> tuple[Simulator, TicketApp, TicketWorkload]:
    sim = Simulator()
    registry = ticket_registry(variant, capacity=capacity)
    cluster = Cluster(sim, registry, mode=ConsistencyMode.CAUSAL)
    app = TicketApp(cluster, variant, capacity=capacity)
    events = [f"e{i}" for i in range(n_events)]
    app.setup(events, REGIONS[0])
    workload = TicketWorkload(app, events, seed=seed)
    return sim, app, workload
