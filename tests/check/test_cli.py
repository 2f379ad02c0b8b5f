"""The ``repro check`` / ``repro simulate --fail-on-violation`` CLI.

Exit-code contract: ``check`` exits 1 when the sweep finds a
violation (0 otherwise); ``--expect violation`` / ``--expect clean``
invert that for CI jobs; ``--replay`` exits 0 iff the recorded verdict
reproduces; ``simulate --fail-on-violation`` exits 1 iff an oracle
fires on the finished run.
"""

from __future__ import annotations

import json

import pytest

from repro.__main__ import main


def test_check_causal_finds_violations_and_exits_nonzero(capsys) -> None:
    code = main(["check", "tournament", "--trials", "2", "--seed", "11",
                 "--no-shrink"])
    out = capsys.readouterr().out
    assert code == 1
    assert "violating" in out


def test_check_expect_violation_inverts_exit_code() -> None:
    assert main(["check", "tournament", "--trials", "1", "--seed", "11",
                 "--no-shrink", "--expect", "violation"]) == 0


def test_check_ipa_expect_clean(capsys) -> None:
    assert main(["check", "tournament", "--config", "IPA", "--trials", "2",
                 "--seed", "11", "--expect", "clean"]) == 0


def test_check_shrinks_and_writes_replayable_repro(tmp_path, capsys) -> None:
    code = main(["check", "ticket", "--trials", "2", "--seed", "11",
                 "--out", str(tmp_path), "--json",
                 "--expect", "violation"])
    report = json.loads(capsys.readouterr().out)
    assert code == 0
    assert report["violating"] >= 1
    assert report["shrink"]["op_reduction"] >= 0.5
    repro_file = report["repro_file"]

    code = main(["check", "--replay", repro_file, "--json"])
    replay = json.loads(capsys.readouterr().out)
    assert code == 0
    assert replay["reproduced"] is True
    # The shrunk repro preserves (at least) the shrink target, which
    # is one of the original failure's verdict keys.
    assert replay["verdict"]
    original = [tuple(k) for k in report["failure"]["verdict"]]
    assert all(tuple(k) in original for k in replay["verdict"])


def test_check_requires_app_or_replay(capsys) -> None:
    assert main(["check"]) == 2
    assert "APP is required" in capsys.readouterr().err


def test_check_unknown_app_is_a_usage_error(capsys) -> None:
    assert main(["check", "nonesuch", "--trials", "1"]) == 2
    assert "unknown application" in capsys.readouterr().err


def test_replay_missing_file_is_a_usage_error(capsys) -> None:
    assert main(["check", "--replay", "/nonexistent/repro.json"]) == 2


@pytest.mark.parametrize(
    "config,seed,expected",
    [
        # Strong serialises every write at the primary: always clean.
        ("Strong", 23, 0),
        # This Causal run races a remove under load and leaves a
        # dangling finished-marker (found by seed probing; the run is
        # deterministic, so the verdict is stable).
        ("Causal", 7, 1),
    ],
)
def test_simulate_fail_on_violation_exit_codes(
    config: str, seed: int, expected: int, capsys
) -> None:
    code = main([
        "simulate", "--config", config, "--seed", str(seed),
        "--clients", "48" if config == "Causal" else "4",
        "--duration-ms", "4000" if config == "Causal" else "2000",
        "--think-ms", "0" if config == "Causal" else "100",
        "--fail-on-violation",
    ])
    out = capsys.readouterr().out
    assert code == expected
    if expected:
        assert "ORACLE VIOLATIONS" in out
    else:
        assert "oracles: clean" in out


def test_simulate_fail_on_violation_digests_each_replica_once(
    monkeypatch, capsys
) -> None:
    """The convergence oracle and the invariant pass share one digest."""
    from repro.store.cluster import Cluster

    calls = []
    original = Cluster.state_digest

    def counted(self):
        calls.append(self)
        return original(self)

    monkeypatch.setattr(Cluster, "state_digest", counted)
    code = main([
        "simulate", "--config", "Strong", "--seed", "23", "--clients", "4",
        "--duration-ms", "2000", "--think-ms", "100", "--fail-on-violation",
    ])
    assert code == 0
    assert "oracles: clean" in capsys.readouterr().out
    assert len(calls) == 1
