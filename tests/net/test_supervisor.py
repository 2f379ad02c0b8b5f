"""The supervisor's give-up path: a replica that never comes back.

Crash windows only kill; the :class:`~repro.net.harness.Supervisor`
restarts with capped backoff and, once the attempt budget is spent,
flips ``failed_event`` with a diagnostic -- the last restart error
included -- instead of letting the run stall to its deadline.
"""

import asyncio

import pytest

from repro.net.harness import MAX_RESTART_ATTEMPTS, Supervisor, free_ports
from repro.obs import REGISTRY

#: Its seeded backoff sums to about 1.5 s over the five attempts.
REGION = "us-west"


class NeverRestarts:
    """A dead node whose every restart fails."""

    alive = False

    def __init__(self):
        self.calls = []

    async def restart(self):
        self.calls.append("restart")
        raise OSError("injected restart failure")

    async def crash(self):
        self.calls.append("crash")


@pytest.mark.timeout(10)
def test_a_replica_that_never_restarts_is_given_up_loudly():
    node = NeverRestarts()
    # Nothing listens on the status port: the last position is unknown.
    topology = {"regions": {REGION: {"host": "127.0.0.1", "client_port": free_ports(1)[0]}}}
    supervisor = Supervisor({REGION: node}, topology, data_dir="unused")
    supervisor.note_kill(REGION)
    errors = REGISTRY.counter("supervisor.restart_errors").value

    asyncio.run(asyncio.wait_for(supervisor.run(), timeout=8.0))

    assert supervisor.failed_event.is_set()
    assert node.calls == ["restart", "crash"] * MAX_RESTART_ATTEMPTS
    assert supervisor.restarts == 0
    assert supervisor.failure == (
        f"replica {REGION} died permanently: {MAX_RESTART_ATTEMPTS} restart "
        f"attempts exhausted (last error: OSError: injected restart failure); "
        f"last position unreachable"
    )
    assert REGISTRY.counter("supervisor.restart_errors").value - errors == MAX_RESTART_ATTEMPTS
    (incident,) = supervisor.incidents
    assert incident["region"] == REGION
    assert incident["gave_up"] is True
    assert incident["last_error"] == "OSError: injected restart failure"
    assert incident["attempts"] == MAX_RESTART_ATTEMPTS
    assert incident["restarted_unix_s"] is None
    assert incident["killed_unix_s"] is not None
