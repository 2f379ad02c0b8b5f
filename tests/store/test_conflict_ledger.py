"""Satellite 4: the conflict ledger survives SIGKILL byte-identically.

The ledger is the durable record of every invariant violation, repair
and compensation a run observed.  Its contract mirrors the commit
log's: every acknowledged append survives SIGKILL, recovery loses and
duplicates nothing, and a recovered replica re-detecting the same
still-open conflict appends nothing -- the ledger file is
byte-identical across the crash+recovery+re-detection cycle.
"""

import os
import signal
import subprocess
import sys
import textwrap

from repro.__main__ import _render_top, main
from repro.check import build_trial, run_trial
from repro.check.oracles import BoundProbe, Violation
from repro.store.conflicts import (
    ConflictLedger,
    ConflictRecord,
    open_ledgers,
    record_compensations,
    record_trial_violations,
)


def sample_append(ledger, n, kind="violation"):
    records = []
    for i in range(n):
        records.append(
            ledger.append(
                kind=kind,
                oracle="invariant",
                invariant=f"cap_{i}",
                region="us-east",
                witness=(("p", f"x{i}"),),
                ops=(("us-west", i + 1),),
                replicas=("us-east", "us-west"),
                detail=f"burst {i}",
                detected_at_ms=float(i),
            )
        )
    return records


class TestRecord:
    def test_round_trips_through_dict(self):
        record = ConflictRecord(
            seq=3,
            kind="violation",
            oracle="invariant",
            invariant="forall p: enrolled(p) <= cap",
            region="eu-west",
            witness=(("p", "alice"),),
            ops=(("us-east", 4), ("us-west", 2)),
            replicas=("eu-west", "us-east", "us-west"),
            detail="cap exceeded",
            detected_at_ms=120.5,
        )
        assert ConflictRecord.from_dict(record.to_dict()) == record

    def test_identity_ignores_seq_time_and_lineage(self):
        base = dict(
            kind="violation",
            oracle="invariant",
            invariant="cap",
            region="us-east",
            witness=(("p", "a"),),
        )
        first = ConflictRecord(seq=0, ops=(("x", 1),), **base)
        redetected = ConflictRecord(seq=9, detected_at_ms=99.0, **base)
        assert first.identity() == redetected.identity()
        other = ConflictRecord(seq=1, **{**base, "witness": (("p", "b"),)})
        assert first.identity() != other.identity()

    def test_describe_names_the_conflict(self):
        record = ConflictRecord(
            seq=0,
            kind="repair",
            oracle="invariant",
            invariant="cap",
            region="us-east",
            witness=(("p", "a"),),
            resolution="converged",
        )
        text = record.describe()
        assert "repair" in text
        assert "p=a" in text
        assert "converged" in text


class TestLedgerDurability:
    def test_reopen_replays_every_acknowledged_append(self, tmp_path):
        path = str(tmp_path / "us-east-conflicts")
        ledger = ConflictLedger(path)
        written = sample_append(ledger, 5)
        assert all(r is not None for r in written)
        # Simulate SIGKILL: abandon the handle without close() -- every
        # append synced before returning.
        del ledger
        recovered = ConflictLedger(path)
        assert [r.to_dict() for r in recovered.records()] == [
            r.to_dict() for r in written
        ]
        assert recovered.counts() == {"violation": 5}
        recovered.close()

    def test_redetection_after_recovery_appends_nothing(self, tmp_path):
        path = str(tmp_path / "us-east-conflicts")
        ledger = ConflictLedger(path)
        sample_append(ledger, 4)
        ledger.close()
        recovered = ConflictLedger(path)
        duplicates = sample_append(recovered, 4)  # same identities
        assert duplicates == [None] * 4
        assert len(recovered) == 4
        # New identities still append with continuing seq numbers.
        fresh = recovered.append(
            kind="violation",
            oracle="invariant",
            invariant="cap_new",
            region="us-east",
        )
        assert fresh.seq == 4
        recovered.close()

    def test_sigkill_mid_burst_loses_nothing(self, tmp_path):
        """A real SIGKILL (not a clean exit) mid-append-burst: every
        append acknowledged on stdout must be present after recovery,
        unacknowledged ones may be absent, nothing is duplicated."""
        path = str(tmp_path / "us-east-conflicts")
        script = textwrap.dedent(
            f"""
            import os, sys
            from repro.store.conflicts import ConflictLedger
            ledger = ConflictLedger({path!r})
            for i in range(50):
                rec = ledger.append(
                    kind="violation", oracle="invariant",
                    invariant=f"cap_{{i}}", region="us-east",
                    witness=(("p", f"x{{i}}"),),
                    detected_at_ms=float(i),
                )
                print(rec.seq, flush=True)
                if i == 23:
                    os.kill(os.getpid(), {int(signal.SIGKILL)})
            """
        )
        env = dict(os.environ, PYTHONPATH="src")
        proc = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            env=env,
            cwd=os.path.dirname(os.path.dirname(os.path.dirname(__file__))),
            timeout=60,
        )
        assert proc.returncode == -signal.SIGKILL
        acked = [int(line) for line in proc.stdout.split()]
        assert len(acked) == 24, proc.stderr

        recovered = ConflictLedger(path)
        seqs = [r.seq for r in recovered.records()]
        assert seqs == acked  # no loss, no duplication, no reorder
        assert len(set(r.identity() for r in recovered.records())) == len(
            seqs
        )
        recovered.close()

    def test_recovery_plus_redetection_is_byte_identical(self, tmp_path):
        path = str(tmp_path / "us-east-conflicts")
        ledger = ConflictLedger(path)
        sample_append(ledger, 6)
        ledger.close()
        before = open(path + ".objlog", "rb").read()
        recovered = ConflictLedger(path)
        sample_append(recovered, 6)  # full re-detection, all dups
        recovered.close()
        after = open(path + ".objlog", "rb").read()
        assert before == after


class TestOpenLedgers:
    def test_discovers_every_region_ledger(self, tmp_path):
        for region in ("us-east", "eu-west"):
            ledger = ConflictLedger(str(tmp_path / f"{region}-conflicts"))
            sample_append(ledger, 2)
            ledger.close()
        ledgers = open_ledgers(str(tmp_path))
        assert sorted(ledgers) == ["eu-west", "us-east"]
        assert all(len(ledger) == 2 for ledger in ledgers.values())
        for ledger in ledgers.values():
            ledger.close()

    def test_missing_dir_yields_no_ledgers(self, tmp_path):
        assert open_ledgers(str(tmp_path / "absent")) == {}

    def test_a_clean_ledger_exists_before_any_record(self, tmp_path):
        """A run that detected nothing still leaves its ledger, so a
        clean run and a wrong path do not look alike."""
        ConflictLedger(str(tmp_path / "us-east-conflicts")).close()
        ledgers = open_ledgers(str(tmp_path))
        assert sorted(ledgers) == ["us-east"]
        assert len(ledgers["us-east"]) == 0
        ledgers["us-east"].close()

    def test_a_reader_of_an_empty_ledger_loses_no_record(
        self, tmp_path, monkeypatch
    ):
        """A query opening a live, still-empty ledger must not truncate,
        replace or delete what the writer appends while it opens."""
        path = str(tmp_path / "us-east-conflicts")
        writer = ConflictLedger(path)
        written: list = []
        engine_cls = type(writer._engine)
        load = engine_cls.load

        def load_then_writer_appends(self):
            # The writer's first records land right after the reader
            # found the ledger empty.
            loaded = load(self)
            if not written:
                written.extend(sample_append(writer, 2))
            return loaded

        monkeypatch.setattr(engine_cls, "load", load_then_writer_appends)
        reader = open_ledgers(str(tmp_path))["us-east"]
        assert len(reader) == 0
        reader.close()
        writer.close()
        monkeypatch.undo()
        assert ConflictLedger(path).records() == written


class TestConflictsCli:
    def test_no_ledger_exits_nonzero(self, tmp_path, capsys):
        for path in (tmp_path / "mistyped", tmp_path):
            assert main(["conflicts", "--ledger", str(path)]) == 2
            assert "no conflict ledgers" in capsys.readouterr().err

    def test_clean_ledgers_exit_zero(self, tmp_path, capsys):
        for region in ("eu-west", "us-east", "us-west"):
            ConflictLedger(str(tmp_path / f"{region}-conflicts")).close()
        assert main(["conflicts", "--ledger", str(tmp_path)]) == 0
        assert "0 record(s) across 3 region ledger(s)" in capsys.readouterr().out

    def test_top_shows_the_detector_work(self):
        counters = {
            "store.conflicts.keys_rescanned": 12,
            "store.conflicts.full_rebuilds": 1,
            "store.conflicts.instances_evaluated": 345,
        }
        frame = {"registry": {"counters": counters}}
        header, _rule, row = _render_top(
            {"regions": {"us-east": frame}, "proxy": None}
        ).splitlines()[:3]
        assert header.split()[-2:] == ["rescan/rebuild", "instances"]
        assert row.split()[-2:] == ["12/1", "345"]


class TestCheckerRecording:
    def test_trial_violations_land_with_lineage(self, tmp_path):
        ledger = ConflictLedger(str(tmp_path / "ledger"))
        violations = [
            Violation(
                oracle="invariant",
                region="us-east",
                name="cap",
                witness=(("p", "a"),),
                detail="over",
            ),
            Violation(
                oracle="invariant",
                region="us-east",
                name="cap",
                witness=(("p", "a"),),
                detail="over",
            ),  # duplicate finding
        ]
        lineage = {"us-east": tuple(("us-west", i) for i in range(40))}
        appended = record_trial_violations(
            ledger, violations, lineage, detected_at_ms=50.0
        )
        assert appended == 1
        record = ledger.records()[0]
        assert len(record.ops) == 32  # LINEAGE_CAP trims the window
        assert record.ops[-1] == ("us-west", 39)
        assert record.replicas == ("us-east", "us-west")
        ledger.close()

    def test_paid_debt_becomes_compensation_records(self, tmp_path):
        ledger = ConflictLedger(str(tmp_path / "ledger"))
        probes = {
            "us-east": [
                # Overdraft of 2, fully covered: the success case the
                # debt oracle never reports -- the ledger's job.
                BoundProbe(
                    key="budget", raw=12, observed=10, bound=10,
                    op="<=", covered=2,
                ),
                # No overdraft: nothing to record.
                BoundProbe(
                    key="stock", raw=5, observed=5, bound=0, op=">=",
                ),
                # Unpaid overdraft: that is a violation, not a
                # compensation.
                BoundProbe(
                    key="seats", raw=9, observed=9, bound=6, op="<=",
                    covered=1,
                ),
            ]
        }
        appended = record_compensations(
            ledger, probes, detected_at_ms=75.0
        )
        assert appended == 1
        record = ledger.records()[0]
        assert record.kind == "compensation"
        assert record.invariant == "budget"
        assert record.resolution == "compensated"
        assert "overdraft 2" in record.detail
        ledger.close()

    def test_run_trial_with_ledger_is_fingerprint_neutral(self, tmp_path):
        spec = build_trial("tournament", "Causal", 11, 0)
        bare = run_trial(spec)
        ledger = ConflictLedger(str(tmp_path / "ledger"))
        observed = run_trial(spec, ledger=ledger)
        assert [v.to_dict() for v in observed.violations] == [
            v.to_dict() for v in bare.violations
        ]
        assert observed.digests == bare.digests
        assert bare.violations  # the Causal config does violate
        assert ledger.counts()["violation"] == len(
            {
                (v.oracle, v.name, v.region, v.witness)
                for v in bare.violations
            }
        )
        ledger.close()
