"""§5.1.3: the static analysis is fast enough to be interactive.

The paper reports that generating and checking repair candidates "was
fast enough to not hinder interactivity" on a laptop.  This bench runs
the full IPA loop on each application spec and reports wall-clock,
round and solver-query counts; it also ablates the analysis domain
bound (DESIGN.md decision 1).

``test_warm_cache_speedup`` is the acceptance benchmark of the solver
cache: the 4-app suite on a warm cache must run >=2x faster than the
uncached baseline, while producing byte-identical results
(fingerprints).
"""

import tempfile

import pytest

from repro.analysis import ConflictChecker
from repro.apps import tournament_spec
from repro.bench.figures import analysis_speed
from repro.bench.tables import format_table


def test_analysis_speed_all_apps(benchmark, record_bench):
    timings = benchmark.pedantic(analysis_speed, rounds=1, iterations=1)
    rows = [
        {
            "application": t.application,
            "seconds": round(t.seconds, 2),
            "rounds": t.rounds,
            "queries": t.queries,
            "repairs": t.repaired,
            "compens.": t.compensations,
            "resolved": t.fully_resolved,
        }
        for t in timings
    ]
    print()
    print(format_table(rows))
    record_bench(
        "analysis_all_apps",
        wall_ms=sum(t.seconds for t in timings) * 1000.0,
        params={"apps": len(timings)},
        solver_calls=sum(t.solver_solves for t in timings),
        cache_hits=sum(t.cache_hits for t in timings),
    )
    for timing in timings:
        # "Interactive": the whole app analyses within tens of seconds,
        # i.e. well under a second per solver query.
        assert timing.seconds < 120.0
        assert timing.fully_resolved, timing.application


def test_warm_cache_speedup(benchmark, record_bench):
    """4 apps on a warm solver cache: >=2x over the uncached run."""

    def suite():
        cold = analysis_speed(cache=False)
        with tempfile.TemporaryDirectory() as cache_dir:
            analysis_speed(cache_dir=cache_dir)  # fill the cache
            warm = analysis_speed(cache_dir=cache_dir)
        return cold, warm

    cold, warm = benchmark.pedantic(suite, rounds=1, iterations=1)
    cold_s = sum(t.seconds for t in cold)
    warm_s = sum(t.seconds for t in warm)
    speedup = cold_s / warm_s
    print()
    print(
        f"analysis suite: uncached {cold_s:.2f}s, "
        f"warm cache {warm_s:.2f}s -> {speedup:.2f}x"
    )
    record_bench(
        "analysis_cold_sequential",
        wall_ms=cold_s * 1000.0,
        params={"apps": len(cold), "cache": "off"},
        solver_calls=sum(t.solver_solves for t in cold),
        cache_hits=sum(t.cache_hits for t in cold),
    )
    record_bench(
        "analysis_warm",
        wall_ms=warm_s * 1000.0,
        params={"apps": len(warm), "cache": "warm"},
        solver_calls=sum(t.solver_solves for t in warm),
        cache_hits=sum(t.cache_hits for t in warm),
    )
    # Identical outcomes: same fingerprint, same logical query count.
    for t_cold, t_warm in zip(cold, warm):
        assert t_cold.fingerprint == t_warm.fingerprint, t_cold.application
        assert t_cold.queries == t_warm.queries, t_cold.application
    # A warm cache answers everything without running the solver.
    assert sum(t.solver_solves for t in warm) == 0
    assert speedup >= 2.0, f"only {speedup:.2f}x"


@pytest.mark.parametrize("extra", [1, 2])
def test_single_pair_query_latency(benchmark, extra):
    """One conflict query (the interactive unit) is milliseconds."""
    spec = tournament_spec()
    checker = ConflictChecker(spec, extra=extra)
    rem = spec.operation("rem_tourn")
    enroll = spec.operation("enroll")

    def one_query():
        return checker.is_conflicting(rem, enroll)

    witness = benchmark(one_query)
    assert witness is not None
