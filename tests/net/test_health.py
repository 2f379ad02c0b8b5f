"""Failure-detection primitive units: detector, breaker, hint queue.

Every machine in :mod:`repro.net.health` is clock-free -- callers pass
``now_ms`` -- so these tests drive them with a fake clock and pin the
exact edges the live fleet depends on: when suspicion trips, when a
breaker half-opens, and what a hint queue preserves across a process
death of the *holding* replica.
"""

import pytest

from repro.net import wire
from repro.net.health import CircuitBreaker, FailureDetector, HintQueue
from repro.net.retry import RetryPolicy
from repro.store import framedlog


def make_detector(**kwargs):
    kwargs.setdefault("interval_ms", 100.0)
    return FailureDetector(("a", "b"), **kwargs)


class TestFailureDetector:
    def test_steady_heartbeats_stay_up(self):
        detector = make_detector()
        now = 0.0
        for _ in range(20):
            now += 100.0
            detector.note_alive("a", now)
        assert detector.is_up("a", now + 150.0)
        assert detector.phi("a", now) == 0.0
        assert detector.suspects == 0
        assert detector.heartbeats == 20

    def test_long_silence_trips_suspicion_once(self):
        detector = make_detector()
        now = 0.0
        for _ in range(5):
            now += 100.0
            detector.note_alive("a", now)
        # phi = log10(e) * elapsed / mean: threshold 8 needs ~18.4x
        # the 100ms mean interval of silence.
        assert detector.is_up("a", now + 1000.0)
        assert not detector.is_up("a", now + 3000.0)
        assert not detector.is_up("a", now + 4000.0)
        assert detector.suspects == 1  # edge-counted, not per poll

    def test_heartbeat_after_suspicion_is_a_recovery(self):
        detector = make_detector()
        assert not detector.is_up("a", 10_000.0)
        assert detector.note_alive("a", 10_001.0) is True
        assert detector.is_up("a", 10_002.0)
        assert detector.recoveries == 1

    def test_heartbeat_while_up_is_not_a_recovery(self):
        detector = make_detector()
        assert detector.note_alive("a", 100.0) is False
        assert detector.recoveries == 0

    def test_burst_cannot_make_detector_hair_triggered(self):
        detector = make_detector()
        now = 0.0
        for _ in range(32):  # fill the window with ~0ms gaps
            now += 0.001
            detector.note_alive("a", now)
        # The mean is floored at interval_ms: a silence that steady
        # heartbeats would tolerate must still be tolerated.
        assert detector.phi("a", now + 500.0) < detector.threshold
        assert detector.is_up("a", now + 500.0)

    def test_unknown_peer_is_ignored(self):
        detector = make_detector()
        assert detector.note_alive("stranger", 50.0) is False
        assert detector.heartbeats == 0

    def test_never_heard_peer_suspected_from_start_ms(self):
        detector = FailureDetector(("a",), 100.0, start_ms=5000.0)
        assert detector.is_up("a", 5100.0)
        assert not detector.is_up("a", 5000.0 + 3000.0)

    def test_snapshot_reports_per_peer_verdicts(self):
        detector = make_detector()
        detector.note_alive("a", 100.0)
        snap = detector.snapshot(200.0)
        assert set(snap["peers"]) == {"a", "b"}
        assert snap["peers"]["a"]["up"] is True
        assert snap["peers"]["a"]["silence_ms"] == 100.0
        assert snap["suspects"] == 0

    def test_up_count(self):
        detector = make_detector()
        detector.note_alive("a", 10_000.0)
        assert detector.up_count(10_001.0) == 1  # b silent since 0


def make_breaker(threshold=3):
    policy = RetryPolicy(base_ms=100.0, cap_ms=1000.0, seed=7)
    return CircuitBreaker(policy, failure_threshold=threshold)


class TestCircuitBreaker:
    def test_closed_allows_everything(self):
        breaker = make_breaker()
        assert breaker.allow(0.0)
        breaker.record_failure(0.0)
        breaker.record_failure(0.0)
        assert breaker.state == "closed"
        assert breaker.allow(0.0)

    def test_threshold_failures_open_the_circuit(self):
        breaker = make_breaker()
        for _ in range(3):
            breaker.record_failure(0.0)
        assert breaker.state == "open"
        assert breaker.opened == 1
        assert not breaker.allow(0.0)
        assert breaker.cooldown_remaining_ms(0.0) > 0.0

    def test_cooldown_half_opens_for_exactly_one_probe(self):
        breaker = make_breaker()
        for _ in range(3):
            breaker.record_failure(0.0)
        later = breaker.cooldown_remaining_ms(0.0) + 1.0
        assert breaker.allow(later)  # the single probe
        assert breaker.state == "half-open"
        assert not breaker.allow(later)  # held until the probe decides

    def test_probe_success_closes_and_resets(self):
        breaker = make_breaker()
        for _ in range(3):
            breaker.record_failure(0.0)
        later = breaker.cooldown_remaining_ms(0.0) + 1.0
        assert breaker.allow(later)
        breaker.record_success()
        assert breaker.state == "closed"
        assert breaker.allow(later)
        # The failure count reset too: reopening needs a full streak.
        breaker.record_failure(later)
        assert breaker.state == "closed"

    def test_probe_failure_reopens_immediately(self):
        breaker = make_breaker()
        for _ in range(3):
            breaker.record_failure(0.0)
        later = breaker.cooldown_remaining_ms(0.0) + 1.0
        assert breaker.allow(later)
        breaker.record_failure(later)  # one probe failure, not three
        assert breaker.state == "open"
        assert breaker.opened == 2
        assert not breaker.allow(later)

    def test_threshold_must_be_positive(self):
        with pytest.raises(ValueError):
            make_breaker(threshold=0)


def make_hint(n):
    return {"type": "record-batch", "seq": n, "records": []}


class TestHintQueue:
    def test_append_drain_preserves_order(self, tmp_path):
        queue = HintQueue(str(tmp_path / "peer.hints"))
        for n in range(5):
            queue.append(make_hint(n))
        assert len(queue) == 5
        assert [m["seq"] for m in queue.drain()] == [0, 1, 2, 3, 4]
        assert len(queue) == 0

    def test_hints_survive_holder_crash(self, tmp_path):
        path = str(tmp_path / "peer.hints")
        queue = HintQueue(path)
        for n in range(3):
            queue.append(make_hint(n))
        queue.close()  # process death: no drain
        reborn = HintQueue(path)
        assert [m["seq"] for m in reborn.drain()] == [0, 1, 2]

    def test_drain_truncates_the_file(self, tmp_path):
        path = str(tmp_path / "peer.hints")
        queue = HintQueue(path)
        queue.append(make_hint(0))
        queue.drain()
        queue.close()
        assert len(HintQueue(path)) == 0

    def test_bound_evicts_oldest_and_counts_drops(self, tmp_path):
        queue = HintQueue(str(tmp_path / "peer.hints"), limit=3)
        for n in range(5):
            queue.append(make_hint(n))
        assert queue.dropped == 2
        assert [m["seq"] for m in queue.drain()] == [2, 3, 4]

    def test_bound_applies_on_reload_too(self, tmp_path):
        path = str(tmp_path / "peer.hints")
        queue = HintQueue(path, limit=10)
        for n in range(5):
            queue.append(make_hint(n))
        queue.close()
        reborn = HintQueue(path, limit=2)
        assert reborn.dropped == 3
        assert [m["seq"] for m in reborn.drain()] == [3, 4]

    def test_mangled_hint_is_skipped_not_fatal(self, tmp_path):
        path = str(tmp_path / "peer.hints")
        queue = HintQueue(path)
        queue.append(make_hint(0))
        queue.close()
        with open(path, "ab") as fh:
            # CRC-valid frame whose body is not a wire message.
            fh.write(framedlog.frame(b"not json at all"))
        queue = HintQueue(path)
        queue.append(make_hint(1))
        assert [m["seq"] for m in queue.drain()] == [0, 1]

    @pytest.mark.parametrize(
        "body",
        [
            b'{"d":[["type","records"],["records",{"t":5}]]}',
            b'{"d":[["seq",{"c":"Dot","f":{"bogus":1}}]]}',
            b'{"d":[[1,2,3]]}',
        ],
    )
    def test_malformed_hint_is_dropped_and_counted(self, tmp_path, body):
        """CRC-valid JSON the codec refuses: the hint is lost, not the
        holding replica's start-up."""
        path = str(tmp_path / "peer.hints")
        queue = HintQueue(path)
        queue.append(make_hint(0))
        queue.close()
        with open(path, "ab") as fh:
            fh.write(framedlog.frame(body))
        reborn = HintQueue(path)
        assert reborn.dropped == 1
        reborn.append(make_hint(1))
        assert [m["seq"] for m in reborn.drain()] == [0, 1]

    def test_mid_file_bit_flip_is_salvaged_and_counted(self, tmp_path):
        """Hints are regenerable: rot in a non-final hint must cut the
        file there, not stop the holding replica from starting."""
        path = str(tmp_path / "peer.hints")
        queue = HintQueue(path)
        for n in range(4):
            queue.append(make_hint(n))
        queue.close()
        framedlog.flip_bit(path, 1)
        reborn = HintQueue(path)
        assert reborn.dropped == 3
        reborn.append(make_hint(9))
        reborn.close()
        again = HintQueue(path)
        assert again.dropped == 0
        assert [m["seq"] for m in again.drain()] == [0, 9]

    def test_refused_hint_mid_file_is_cut_once(self, tmp_path):
        """A CRC-valid hint the codec refuses, with a hint after it: the
        first boot cuts the file there and counts both hints it loses,
        so the next boot has nothing left to drop or count again."""
        path = str(tmp_path / "peer.hints")
        with open(path, "ab") as fh:
            for body in (
                wire.encode_body(make_hint(0)),
                b"not json at all",
                wire.encode_body(make_hint(1)),
            ):
                fh.write(framedlog.frame(body))
        first = HintQueue(path)
        assert first.dropped == 2
        assert len(first) == 1
        first.close()
        again = HintQueue(path)
        assert again.dropped == 0
        assert [m["seq"] for m in again.drain()] == [0]

    def test_limit_must_be_positive(self, tmp_path):
        with pytest.raises(ValueError):
            HintQueue(str(tmp_path / "peer.hints"), limit=0)
