"""Compensation Set tests (§4.2.2)."""

import pytest

from repro.errors import CRDTError
from repro.crdts import CompensationSet, Pattern

from tests.conftest import ctx


def filled(limit=2, elements=("t1", "t2", "t3")):
    s = CompensationSet(max_size=limit)
    for index, element in enumerate(elements, start=1):
        s.effect(
            s.prepare_add(element), ctx("A", index, {"A": index - 1})
        )
    return s


class TestConstruction:
    def test_requires_bound_or_constraint(self):
        with pytest.raises(CRDTError):
            CompensationSet()

    def test_explicit_constraint_needs_victim_rule(self):
        with pytest.raises(CRDTError):
            CompensationSet(constraint=lambda s: True)

    def test_custom_constraint_and_rule(self):
        s = CompensationSet(
            constraint=lambda elems: "forbidden" not in elems,
            select_victims=lambda elems: ("forbidden",),
        )
        s.effect(s.prepare_add("forbidden"), ctx("A", 1))
        outcome = s.read()
        assert outcome.victims == ("forbidden",)


class TestPickle:
    def test_round_trip_keeps_bound_and_victim_rule(self):
        """The durable engines pickle every object they persist."""
        import pickle

        over = filled()
        clone = pickle.loads(pickle.dumps(over))
        assert clone.value() == over.value()
        assert clone.read().victims == over.read().victims == ("t3",)
        assert clone.read().visible == {"t1", "t2"}


class TestCompensatingRead:
    def test_within_bounds_no_compensation(self):
        s = filled(limit=3)
        outcome = s.read()
        assert outcome.compensation is None
        assert outcome.visible == {"t1", "t2", "t3"}
        assert s.violations_observed == 0

    def test_violation_trims_deterministically(self):
        s = filled(limit=2)
        outcome = s.read()
        assert outcome.victims == ("t3",)  # largest trimmed first
        assert outcome.visible == {"t1", "t2"}
        assert s.violations_observed == 1

    def test_compensation_payload_repairs_state(self):
        s = filled(limit=2)
        outcome = s.read()
        s.effect(outcome.compensation, ctx("A", 4, {"A": 3}))
        assert s.raw_value() == {"t1", "t2"}
        assert s.read().compensation is None

    def test_concurrent_identical_compensations_idempotent(self):
        a, b = filled(limit=2), filled(limit=2)
        out_a, out_b = a.read(), b.read()
        assert out_a.victims == out_b.victims
        for s in (a, b):
            s.effect(out_a.compensation, ctx("A", 4, {"A": 3}))
            s.effect(out_b.compensation, ctx("B", 1, {"A": 3}))
        assert a.raw_value() == b.raw_value() == {"t1", "t2"}

    def test_observed_view_always_consistent(self):
        """value() never exposes an out-of-bounds state."""
        s = filled(limit=1, elements=("a", "b", "c", "d"))
        assert len(s.value()) == 1
        assert len(s.raw_value()) == 4

    def test_compensation_only_covers_observed_adds(self):
        """A concurrent (unobserved) add survives the trim -- add-wins
        removal, as required for convergence."""
        a, b = CompensationSet(max_size=1), CompensationSet(max_size=1)
        seed1 = a.prepare_add("t1")
        c1 = ctx("A", 1)
        seed2 = a.prepare_add("t2")
        c2 = ctx("A", 2, {"A": 1})
        for s in (a, b):
            s.effect(seed1, c1)
            s.effect(seed2, c2)
        outcome = a.read()
        # Concurrent with the compensation, B adds t3.
        p3 = b.prepare_add("t3")
        c3 = ctx("B", 1, {"A": 2})
        comp_ctx = ctx("A", 3, {"A": 2})
        a.effect(outcome.compensation, comp_ctx)
        a.effect(p3, c3)
        b.effect(p3, c3)
        b.effect(outcome.compensation, comp_ctx)
        assert a.raw_value() == b.raw_value() == {"t1", "t3"}


class TestDelegation:
    def test_remove_where_delegates(self):
        s = CompensationSet(max_size=10)
        s.effect(s.prepare_add(("p1", "t1")), ctx("A", 1))
        s.effect(
            s.prepare_remove_where(Pattern.of("*", "t1")),
            ctx("A", 2, {"A": 1}),
        )
        assert s.raw_value() == set()

    def test_contains_and_len_use_compensated_view(self):
        s = filled(limit=2)
        assert len(s) == 2
        assert "t3" not in s
        assert "t1" in s
