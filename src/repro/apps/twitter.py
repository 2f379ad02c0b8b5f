"""The Twitter clone (§5.1.2, §5.2.3).

Heavy on referential integrity: timelines are materialised on write
(when a user tweets, the tweet id is pushed to every follower's
timeline), so concurrent removals of tweets or users leave dangling
references under plain causal consistency.

Strategy variants (Figure 6):

- ``ADD_WINS``: tweet/retweet restore their author (touch on the users
  set), so a concurrent ``rem_user`` cannot orphan the tweet -- writes
  get costlier.
- ``REM_WINS``: removals win; ``rem_user`` purges the user's history
  with rem-wins wildcard tombstones, and removed tweets are *hidden
  lazily* when timelines are read (a compensation: the read commits
  removals of dangling timeline entries), trading slightly costlier
  reads for cheaper writes.
- ``CAUSAL``: neither; dangling references accumulate.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.crdts import AWSet, Pattern, RWSet
from repro.spec import ApplicationSpec, SpecBuilder
from repro.store.registry import TypeRegistry
from repro.store.transaction import Transaction

from repro.apps.common import AppHarness, Variant

WRITE_OPS = (
    "tweet", "retweet", "del_tweet", "follow", "unfollow",
    "add_user", "rem_user",
)
READ_OPS = ("timeline",)


def twitter_spec() -> ApplicationSpec:
    """Specification: users, follows, tweets, timeline references."""
    b = SpecBuilder("twitter")
    b.predicate("user", "User")
    b.predicate("tweet", "Tweet")
    b.predicate("authored", "User", "Tweet")
    b.predicate("follows", "User", "User")
    b.predicate("inTimeline", "Tweet", "User")
    b.invariant(
        "forall(User: u, Tweet: w) :- authored(u, w) => user(u) and tweet(w)"
    )
    b.invariant(
        "forall(User: u, v) :- follows(u, v) => user(u) and user(v)"
    )
    b.invariant(
        "forall(Tweet: w, User: u) :- inTimeline(w, u) => tweet(w) and user(u)"
    )
    b.invariant("true", name="unique-tweet-ids", category="unique-id")
    b.operation("add_user", "User: u", true=["user(u)"])
    b.operation("rem_user", "User: u", false=["user(u)"])
    b.operation("follow", "User: u, User: v", true=["follows(u, v)"])
    b.operation("unfollow", "User: u, User: v", false=["follows(u, v)"])
    b.operation(
        "tweet", "User: u, Tweet: w",
        true=["tweet(w)", "authored(u, w)", "inTimeline(w, u)"],
    )
    b.operation(
        "retweet", "User: u, Tweet: w", true=["inTimeline(w, u)"]
    )
    b.operation(
        "del_tweet", "Tweet: w",
        false=["tweet(w)", "inTimeline(w, *)"],
    )
    return b.build()


def twitter_registry(variant: Variant) -> TypeRegistry:
    registry = TypeRegistry()
    if variant is Variant.REM_WINS:
        registry.register("users", RWSet)
        registry.register("tweets", RWSet)
        registry.register_prefix("timeline:", RWSet)
        registry.register_prefix("followers:", RWSet)
        registry.register_prefix("authored:", RWSet)
        registry.register_prefix("copies:", RWSet)
    else:
        registry.register("users", AWSet)
        registry.register("tweets", AWSet)
        registry.register_prefix("timeline:", AWSet)
        registry.register_prefix("followers:", AWSet)
        registry.register_prefix("authored:", AWSet)
        # Reverse index tweet -> timeline owners, maintained by the
        # fan-out writes: the eager ``del_tweet`` cleanup reads it to
        # chase every materialised copy.
        registry.register_prefix("copies:", AWSet)
    return registry


@dataclass
class TwitterApp(AppHarness):
    """Operation layer of the Twitter clone."""

    fanout_cap: int = 16

    def setup(self, users: list[str], region: str) -> None:
        def body(txn: Transaction) -> str:
            for user in users:
                txn.update("users", lambda s, u=user: s.prepare_add(u))
            return "setup"

        self.cluster.submit(region, body, lambda _op: None)
        self.cluster.settle()

    # -- social graph ------------------------------------------------------------

    def add_user(self, region, u, done) -> None:
        def body(txn: Transaction) -> str:
            txn.update("users", lambda s: s.prepare_add(u))
            return "add_user"

        self.cluster.submit(region, body, done)

    def rem_user(self, region, u, done) -> None:
        def body(txn: Transaction) -> str:
            if self.variant is not Variant.REM_WINS:
                # Sequential precondition: only an unreferenced user may
                # go.  The rem-wins variant needs no guard -- its purge
                # below is the sequential cleanup and the concurrent
                # repair at once.
                if (
                    txn.get(f"followers:{u}").value()
                    or txn.get(f"authored:{u}").value()
                    or txn.get(f"timeline:{u}").value()
                    or any(
                        u in txn.get(key)
                        for key in txn.replica.keys()
                        if key.startswith("followers:")
                        and key != f"followers:{u}"
                    )
                ):
                    return "rem_user"
                txn.update("users", lambda s: s.prepare_remove(u))
                return "rem_user"
            txn.update("users", lambda s: s.prepare_remove(u))
            # Purge the user's whole history: rem-wins tombstones
            # also kill concurrent tweets/follows of u (§5.1.2).
            followers = txn.get(f"followers:{u}").value()
            txn.update(
                f"followers:{u}",
                lambda s: s.prepare_remove_where(Pattern.of("*")),
            )
            for follower in sorted(followers):
                txn.update(
                    f"timeline:{follower}",
                    lambda s: s.prepare_remove_where(Pattern.of("*", u)),
                )
            txn.update(
                f"timeline:{u}",
                lambda s: s.prepare_remove_where(Pattern.of("*", "*")),
            )
            # ... including the tweets u authored and u's own follow
            # edges: the wildcard tombstone on ``authored:u`` kills a
            # concurrent tweet's authorship record, and the per-set
            # removals kill concurrent follows into sets this replica
            # knows about.
            for tweet_id in sorted(txn.get(f"authored:{u}").value()):
                txn.update(
                    "tweets", lambda s, w=tweet_id: s.prepare_remove(w)
                )
            txn.update(
                f"authored:{u}",
                lambda s: s.prepare_remove_where(Pattern.of("*")),
            )
            for key in txn.replica.keys():
                if key.startswith("followers:") and key != f"followers:{u}":
                    txn.update(key, lambda s: s.prepare_remove(u))
            return "rem_user"

        self.cluster.submit(region, body, done)

    def follow(self, region, u, v, done) -> None:
        def body(txn: Transaction) -> str:
            users = txn.get("users")
            if u == v or u not in users or v not in users:
                return "follow"
            txn.update(f"followers:{v}", lambda s: s.prepare_add(u))
            if self.variant is Variant.ADD_WINS:
                txn.update("users", lambda s: s.prepare_touch(u))
                txn.update("users", lambda s: s.prepare_touch(v))
            return "follow"

        self.cluster.submit(region, body, done)

    def unfollow(self, region, u, v, done) -> None:
        def body(txn: Transaction) -> str:
            txn.update(f"followers:{v}", lambda s: s.prepare_remove(u))
            return "unfollow"

        self.cluster.submit(region, body, done)

    # -- tweeting -----------------------------------------------------------------

    def tweet(self, region, u, tweet_id, done) -> None:
        def body(txn: Transaction) -> str:
            if u not in txn.get("users"):
                return "tweet"
            txn.update("tweets", lambda s: s.prepare_add(tweet_id))
            txn.update(f"authored:{u}", lambda s: s.prepare_add(tweet_id))
            # Write-time fan-out to follower timelines.
            followers = sorted(txn.get(f"followers:{u}").value())
            for follower in followers[: self.fanout_cap]:
                txn.update(
                    f"timeline:{follower}",
                    lambda s, f=follower: s.prepare_add((tweet_id, u)),
                )
                txn.update(
                    f"copies:{tweet_id}",
                    lambda s, f=follower: s.prepare_add(f),
                )
            txn.update(
                f"timeline:{u}", lambda s: s.prepare_add((tweet_id, u))
            )
            txn.update(f"copies:{tweet_id}", lambda s: s.prepare_add(u))
            if self.variant is Variant.ADD_WINS:
                # The author must survive a concurrent rem_user.
                txn.update("users", lambda s: s.prepare_touch(u))
            return "tweet"

        self.cluster.submit(region, body, done)

    def retweet(self, region, u, tweet_id, author, done) -> None:
        def body(txn: Transaction) -> str:
            if (
                u not in txn.get("users")
                or tweet_id not in txn.get("tweets")
            ):
                return "retweet"
            followers = sorted(txn.get(f"followers:{u}").value())
            for follower in followers[: self.fanout_cap]:
                txn.update(
                    f"timeline:{follower}",
                    lambda s, f=follower: s.prepare_add((tweet_id, author)),
                )
                txn.update(
                    f"copies:{tweet_id}",
                    lambda s, f=follower: s.prepare_add(f),
                )
            if self.variant is Variant.ADD_WINS:
                # Restore the retweeted tweet and both users involved.
                txn.update("tweets", lambda s: s.prepare_touch(tweet_id))
                txn.update("users", lambda s: s.prepare_touch(u))
                txn.update("users", lambda s: s.prepare_touch(author))
            return "retweet"

        self.cluster.submit(region, body, done)

    def del_tweet(self, region, u, tweet_id, done) -> None:
        def body(txn: Transaction) -> str:
            if tweet_id not in txn.get("tweets"):
                return "del_tweet"
            txn.update("tweets", lambda s: s.prepare_remove(tweet_id))
            txn.update(
                f"authored:{u}", lambda s: s.prepare_remove(tweet_id)
            )
            # Under rem-wins, timelines are cleaned lazily on read; the
            # other variants chase every materialised copy through the
            # reverse index eagerly, which is exactly the trade-off
            # Figure 6 shows.
            if self.variant is not Variant.REM_WINS:
                for owner in sorted(txn.get(f"copies:{tweet_id}").value()):
                    txn.update(
                        f"timeline:{owner}",
                        lambda s, o=owner: s.prepare_remove((tweet_id, u)),
                    )
                txn.update(
                    f"copies:{tweet_id}",
                    lambda s: s.prepare_remove_where(Pattern.of("*")),
                )
            return "del_tweet"

        self.cluster.submit(region, body, done)

    # -- reading -----------------------------------------------------------------

    def timeline(self, region, u, done) -> None:
        def body(txn: Transaction) -> str:
            entries = txn.get(f"timeline:{u}").value()
            if self.variant is Variant.REM_WINS:
                # Compensation: hide (and clean up) entries whose tweet
                # was removed concurrently.  Checking every entry
                # against the tweets set is the read-side cost the
                # strategy trades for its cheap writes (Figure 6).
                tweets = txn.get("tweets")
                txn.charge_reads(len(entries))
                dangling = sorted(
                    entry for entry in entries if entry[0] not in tweets
                )
                for entry in dangling:
                    txn.update(
                        f"timeline:{u}",
                        lambda s, e=entry: s.prepare_remove(e),
                    )
            return "timeline"

        self.cluster.submit(region, body, done, is_update=False)

    # -- invariant audit ----------------------------------------------------------

    def count_violations(self, region: str) -> int:
        """Dangling references visible at one replica."""
        replica = self.cluster.replica(region)
        users = replica.get_object("users").value()
        tweets = replica.get_object("tweets").value()
        violations = 0
        for key in replica.keys():
            if key.startswith("timeline:"):
                for tweet_id, author in replica.get_object(key).value():
                    if tweet_id not in tweets or author not in users:
                        violations += 1
            elif key.startswith("followers:"):
                owner = key.split(":", 1)[1]
                if replica.get_object(key).value() and owner not in users:
                    violations += 1
        return violations
