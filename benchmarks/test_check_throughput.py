"""Checker throughput: trials per wall second on an oracle-bound batch.

The explorer's cost model is ``trials/sec x trials``: every schedule
the checker can afford to explore is one more interleaving searched
for an invariant violation.  The batch uses entity counts large enough
that oracle evaluation would dominate if it enumerated the domain
product (quantifier loops are quadratic in the entity universe); at
the default 8x3 the sim dominates and the figure would measure noise.

``check_trial_loop`` records the batch's wall time, with
``trials_per_sec`` in params (regression-gated on wall time like every
entry), and asserts a throughput floor: on a 2-core machine the
instance-indexed check runs 15-29 trials/s, the product loop 0.27, so
falling under 5 means some invariant lost its index and the product
loop is back.
"""

from repro.check import build_trial, run_trial
from repro.obs import monotonic

SEED = 17
N_TRIALS = 5
N_OPS = 300
#: Entity universe for the oracle-bound batch: many entities, few
#: violations, the regime the paper's checker runs in.
PARAMS = {"n_players": 150, "n_tournaments": 40}


def _trial_specs():
    return [
        build_trial(
            "tournament",
            "Causal",
            SEED,
            index,
            n_ops=N_OPS,
            params=PARAMS,
        )
        for index in range(N_TRIALS)
    ]


def _run_loop(specs):
    started = monotonic()
    for spec in specs:
        run_trial(spec)
    return (monotonic() - started) * 1000.0


def test_check_trial_loop(record_bench):
    specs = _trial_specs()

    _run_loop(specs)  # warm import paths
    wall_ms = _run_loop(specs)

    trials_per_sec = N_TRIALS / (wall_ms / 1000.0)
    record_bench(
        "check_trial_loop",
        wall_ms=wall_ms,
        params={
            "seed": SEED,
            "trials": N_TRIALS,
            "n_ops": N_OPS,
            "trials_per_sec": round(trials_per_sec, 1),
            **PARAMS,
        },
    )

    print()
    print(
        "Check trial loop -- %d trials, %d ops, %d players x %d "
        "tournaments: %.0f ms (%.1f trials/sec)"
        % (
            N_TRIALS,
            N_OPS,
            PARAMS["n_players"],
            PARAMS["n_tournaments"],
            wall_ms,
            trials_per_sec,
        )
    )

    assert trials_per_sec >= 5, wall_ms
