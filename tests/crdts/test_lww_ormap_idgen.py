"""LWW register."""

from repro.crdts import LWWRegister
from repro.crdts.lww import LWWWrite

from tests.conftest import ctx


class TestLWWRegister:
    def test_initial(self):
        assert LWWRegister("unset").value() == "unset"

    def test_sequential_writes(self):
        reg = LWWRegister()
        reg.effect(reg.prepare_write("a"), ctx("A", 1))
        reg.effect(reg.prepare_write("b"), ctx("A", 2, {"A": 1}))
        assert reg.value() == "b"

    def test_concurrent_writes_deterministic(self):
        a, b = LWWRegister(), LWWRegister()
        pa, ca = a.prepare_write("from-a"), ctx("A", 1)
        pb, cb = b.prepare_write("from-b"), ctx("B", 1)
        a.effect(pa, ca)
        a.effect(pb, cb)
        b.effect(pb, cb)
        b.effect(pa, ca)
        assert a.value() == b.value()
        # Same stamp: the larger replica id wins.
        assert a.value() == "from-b"

    def test_later_stamp_wins_regardless_of_replica(self):
        reg = LWWRegister()
        reg.effect(LWWWrite("old", 1), ctx("Z", 1))
        reg.effect(LWWWrite("new", 2), ctx("A", 1))
        assert reg.value() == "new"

