"""Remove-wins set tests, including wildcard tombstones and GC."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crdts import Pattern, RWSet, VersionVector
from repro.crdts.rwset import RWAdd, RWRemove

from tests.conftest import ctx
from tests.crdts.test_convergence import (
    ELEMENTS,
    PATTERNS,
    REPLICAS,
    Harness,
    apply_set_op,
    script,
)


class TestSequential:
    def test_add_visible(self):
        s = RWSet()
        s.effect(s.prepare_add("x"), ctx("A", 1))
        assert "x" in s

    def test_remove_after_add(self):
        s = RWSet()
        s.effect(s.prepare_add("x"), ctx("A", 1))
        s.effect(s.prepare_remove("x"), ctx("A", 2, {"A": 1}))
        assert s.value() == set()

    def test_add_after_remove_visible(self):
        s = RWSet()
        s.effect(s.prepare_remove("x"), ctx("A", 1))
        s.effect(s.prepare_add("x"), ctx("A", 2, {"A": 1}))
        assert "x" in s

    def test_len_counts_visible(self):
        s = RWSet()
        s.effect(s.prepare_add("x"), ctx("A", 1))
        s.effect(s.prepare_add("y"), ctx("A", 2, {"A": 1}))
        s.effect(s.prepare_remove("x"), ctx("A", 3, {"A": 2}))
        assert len(s) == 1


class TestConcurrent:
    def test_remove_wins_over_concurrent_add(self):
        a, b = RWSet(), RWSet()
        seed = a.prepare_add("x")
        c_seed = ctx("A", 1)
        a.effect(seed, c_seed)
        b.effect(seed, c_seed)
        p_rem = a.prepare_remove("x")
        p_add = b.prepare_add("x")
        c_rem, c_add = ctx("A", 2, {"A": 1}), ctx("B", 1, {"A": 1})
        a.effect(p_rem, c_rem)
        a.effect(p_add, c_add)
        b.effect(p_add, c_add)
        b.effect(p_rem, c_rem)
        assert a.value() == b.value() == set()

    def test_add_after_remove_delivered_everywhere_survives(self):
        a, b = RWSet(), RWSet()
        p_rem = a.prepare_remove("x")
        c_rem = ctx("A", 1)
        a.effect(p_rem, c_rem)
        b.effect(p_rem, c_rem)
        # B adds having seen the remove: causally after -> visible.
        p_add = b.prepare_add("x")
        c_add = ctx("B", 1, {"A": 1})
        b.effect(p_add, c_add)
        a.effect(p_add, c_add)
        assert a.value() == b.value() == {"x"}

    def test_two_concurrent_removes_merge(self):
        a, b, c = RWSet(), RWSet(), RWSet()
        seed = a.prepare_add("x")
        c_seed = ctx("A", 1)
        for s in (a, b, c):
            s.effect(seed, c_seed)
        r1 = a.prepare_remove("x")
        r2 = b.prepare_remove("x")
        cr1, cr2 = ctx("A", 2, {"A": 1}), ctx("B", 1, {"A": 1})
        for s in (a, b, c):
            s.effect(r1, cr1)
            s.effect(r2, cr2)
        # An add concurrent with r2 but after r1 is still killed.
        p_add = c.prepare_add("x")
        c_add = ctx("C", 1, {"A": 2})
        for s in (a, b, c):
            s.effect(p_add, c_add)
        assert a.value() == b.value() == c.value() == set()


class TestWildcardTombstones:
    def test_pattern_kills_concurrent_matching_add(self):
        a, b = RWSet(), RWSet()
        p_clear = a.prepare_remove_where(Pattern.of("*", "t1"))
        p_add = b.prepare_add(("p1", "t1"))
        c_clear, c_add = ctx("A", 1), ctx("B", 1)
        a.effect(p_clear, c_clear)
        a.effect(p_add, c_add)
        b.effect(p_add, c_add)
        b.effect(p_clear, c_clear)
        assert a.value() == b.value() == set()

    def test_pattern_spares_non_matching(self):
        a = RWSet()
        a.effect(a.prepare_add(("p1", "t2")), ctx("A", 1))
        a.effect(
            a.prepare_remove_where(Pattern.of("*", "t1")),
            ctx("A", 2, {"A": 1}),
        )
        assert a.value() == {("p1", "t2")}

    def test_add_causally_after_pattern_survives(self):
        a = RWSet()
        a.effect(a.prepare_remove_where(Pattern.of("*", "t1")), ctx("A", 1))
        a.effect(a.prepare_add(("p1", "t1")), ctx("A", 2, {"A": 1}))
        assert a.value() == {("p1", "t1")}


class TestCompaction:
    def test_stable_tombstones_dropped(self):
        s = RWSet()
        s.effect(s.prepare_remove_where(Pattern.of("*", "t1")), ctx("A", 1))
        s.effect(s.prepare_remove("x"), ctx("A", 2, {"A": 1}))
        assert s._pattern_tombstones  # internal, pre-GC
        s.compact(VersionVector.of({"A": 2}))
        assert not s._pattern_tombstones
        assert not s._removes

    def test_unstable_tombstones_kept(self):
        s = RWSet()
        s.effect(s.prepare_remove_where(Pattern.of("*", "t1")), ctx("A", 2))
        s.compact(VersionVector.of({"A": 1}))
        assert s._pattern_tombstones

    def test_compaction_preserves_visibility(self):
        s = RWSet()
        s.effect(s.prepare_add("x"), ctx("A", 1))
        s.effect(s.prepare_remove("y"), ctx("A", 2, {"A": 1}))
        before = s.value()
        s.compact(VersionVector.of({"A": 2}))
        assert s.value() == before == {"x"}

    def test_post_compaction_add_visible(self):
        """After GC of a stable remove, later adds still work."""
        s = RWSet()
        s.effect(s.prepare_remove("x"), ctx("A", 1))
        s.compact(VersionVector.of({"A": 1}))
        s.effect(s.prepare_add("x"), ctx("B", 1, {"A": 1}))
        assert "x" in s


# -- reads against a scan-on-read reference model ------------------------------


class ScanModel:
    """Rem-wins by definition: nothing is pruned, every read scans.

    An element is visible iff some add of it dominates every delivered
    remove that covers it -- the definition ``RWSet``'s lookups over
    its pruned ``_adds`` must keep agreeing with.
    """

    def __init__(self) -> None:
        self.adds: list = []  # (element, vv)
        self.removes: list = []  # (covers(element) -> bool, vv)

    def effect(self, payload, ctx) -> None:
        if isinstance(payload, RWAdd):
            self.adds.append((payload.element, ctx.vv))
        elif isinstance(payload, RWRemove):
            self.removes.append((payload.element.__eq__, ctx.vv))
        else:
            self.removes.append((payload.pattern.matches, ctx.vv))

    def value(self) -> set:
        return {
            element
            for element, vv in self.adds
            if all(
                vv.dominates(removed)
                for covers, removed in self.removes
                if covers(element)
            )
        }


class Checked:
    """An ``RWSet`` and its model, compared after every effect."""

    def __init__(self) -> None:
        self.fast, self.model = RWSet(), ScanModel()

    def __getattr__(self, name):  # prepare_* run on the real set
        return getattr(self.fast, name)

    def effect(self, payload, ctx) -> None:
        self.fast.effect(payload, ctx)
        self.model.effect(payload, ctx)
        self.check()

    def check(self) -> None:
        expected = self.model.value()
        assert self.fast.value() == expected
        assert len(self.fast) == len(expected)
        for element in ELEMENTS:
            assert (element in self.fast) == (element in expected)
        for pattern in PATTERNS:
            assert self.fast.elements_matching(pattern) == {
                e for e in expected if pattern.matches(e)
            }


class TestReadsMatchScanModel:
    @given(script, script, st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=150, deadline=None)
    def test_reads_equal_model_after_every_effect(self, before, after, seed):
        rng = random.Random(seed)
        harness = Harness(Checked)
        for origin, op in before:
            apply_set_op(harness, origin, op)
        harness.deliver_all(rng)
        # Everything issued so far is delivered everywhere, and whatever
        # is issued from here on dominates it: this vector is stable by
        # acknowledgement, not by the instantaneous minimum of gap (d).
        stable = harness.seen[REPLICAS[0]].copy()
        harness.events.clear()
        for origin, op in after:
            apply_set_op(harness, origin, op)
        for checked in harness.replicas.values():
            checked.fast = checked.fast.clone()
            checked.check()
            checked.fast.compact(stable)
            checked.check()
        harness.deliver_all(rng)


# -- what each call is allowed to cost, counted, never timed ---------------------


class TestOperationCounts:
    TOMBSTONES, ELEMENTS = 50, 200

    def loaded(self) -> RWSet:
        """50 live wildcard tombstones under 200 visible elements, every
        fourth of them holding two add contexts."""
        s = RWSet()
        for j in range(self.TOMBSTONES):
            s.effect(
                s.prepare_remove_where(Pattern.of("*", f"t{j}")),
                ctx("A", j + 1, {"A": j}),
            )
        seen = {"A": self.TOMBSTONES}
        for i in range(self.ELEMENTS):
            element = (f"p{i}", f"t{i % self.TOMBSTONES}")
            s.effect(s.prepare_add(element), ctx("B", i + 1, seen))
            if i % 4 == 0:
                s.effect(s.prepare_touch(element), ctx("C", i + 1, seen))
        assert len(s._pattern_tombstones) == self.TOMBSTONES
        assert len(s._adds) == self.ELEMENTS
        return s

    @staticmethod
    def count(monkeypatch) -> dict:
        calls = {"matches": 0, "dominates": 0}
        for cls, name in ((Pattern, "matches"), (VersionVector, "dominates")):
            def counted(self, other, _real=getattr(cls, name), _name=name):
                calls[_name] += 1
                return _real(self, other)
            monkeypatch.setattr(cls, name, counted)
        return calls

    def test_reads_consult_no_tombstone(self, monkeypatch):
        s = self.loaded()
        calls = self.count(monkeypatch)
        assert len(s.value()) == len(s) == self.ELEMENTS
        assert ("p0", "t0") in s and ("p0", "t1") not in s
        assert calls == {"matches": 0, "dominates": 0}
        assert len(s.elements_matching(Pattern.of("*", "t0"))) == 4
        assert calls == {"matches": self.ELEMENTS, "dominates": 0}

    def test_wildcard_remove_tests_only_what_it_covers(self, monkeypatch):
        s = self.loaded()
        payload = s.prepare_remove_where(Pattern.of("*", "t0"))
        contexts = sum(len(s._adds[e]) for e in s._adds if e[1] == "t0")
        calls = self.count(monkeypatch)
        s.effect(payload, ctx("A", self.TOMBSTONES + 1, {"A": 50, "B": 150}))
        assert calls["matches"] == self.ELEMENTS
        assert 0 < calls["dominates"] <= contexts
        # Observed or concurrent, no add of a t0 element follows A:51.
        assert len(s) == self.ELEMENTS - 4

    def test_add_meets_each_tombstone_once(self, monkeypatch):
        s = self.loaded()
        calls = self.count(monkeypatch)
        s.effect(s.prepare_add(("late", "t7")), ctx("D", 1))
        assert calls["matches"] <= self.TOMBSTONES
        assert ("late", "t7") not in s  # concurrent with the t7 tombstone
