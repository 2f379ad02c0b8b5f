"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

from collections import defaultdict

import pytest

from repro.crdts.base import Dot, EventContext
from repro.crdts.clock import VersionVector
from repro.logic.ast import PredicateDecl, Sort
from repro.logic.parser import SymbolTable
from repro.spec import SpecBuilder


#: top-level ``tests/<dir>`` -> wall seconds of its tests' setup, call
#: and teardown phases.
_DIRECTORY_WALL: defaultdict[str, float] = defaultdict(float)


def pytest_runtest_logreport(report) -> None:
    path = report.nodeid.split("::", 1)[0].split("/")
    directory = "/".join(path[:2]) if len(path) > 2 else path[0]
    _DIRECTORY_WALL[directory] += report.duration


def pytest_terminal_summary(terminalreporter) -> None:
    """The tier-1 budget: wall seconds per top-level test directory."""
    if not _DIRECTORY_WALL:
        return
    terminalreporter.write_sep("-", "test wall seconds by directory")
    for directory, seconds in sorted(
        _DIRECTORY_WALL.items(), key=lambda item: -item[1]
    ):
        terminalreporter.write_line(f"{seconds:8.1f}  {directory}")
    total = sum(_DIRECTORY_WALL.values())
    terminalreporter.write_line(f"{total:8.1f}  total")


@pytest.fixture
def tournament_symbols() -> SymbolTable:
    """Sorts + predicates of the paper's running example."""
    player = Sort("Player")
    tournament = Sort("Tournament")
    predicates = {
        "player": PredicateDecl("player", (player,)),
        "tournament": PredicateDecl("tournament", (tournament,)),
        "enrolled": PredicateDecl("enrolled", (player, tournament)),
        "active": PredicateDecl("active", (tournament,)),
        "finished": PredicateDecl("finished", (tournament,)),
        "inMatch": PredicateDecl("inMatch", (player, player, tournament)),
        "budget": PredicateDecl("budget", (tournament,), numeric=True),
    }
    return SymbolTable(
        predicates=predicates,
        sorts={"Player": player, "Tournament": tournament},
    )


def make_mini_tournament_spec():
    """The three-operation core of the running example (fast to analyse)."""
    b = SpecBuilder("mini-tournament")
    b.predicate("player", "Player")
    b.predicate("tournament", "Tournament")
    b.predicate("enrolled", "Player", "Tournament")
    b.invariant(
        "forall(Player: p, Tournament: t) :- "
        "enrolled(p, t) => player(p) and tournament(t)"
    )
    b.operation("add_player", "Player: p", true=["player(p)"])
    b.operation("add_tourn", "Tournament: t", true=["tournament(t)"])
    b.operation("rem_tourn", "Tournament: t", false=["tournament(t)"])
    b.operation(
        "enroll", "Player: p, Tournament: t", true=["enrolled(p, t)"]
    )
    return b.build()


@pytest.fixture
def mini_tournament_spec():
    return make_mini_tournament_spec()


def ctx(replica: str, counter: int, seen: dict[str, int] | None = None):
    """Build an event context: ``seen`` is the causal past, the dot is
    appended automatically."""
    vv = VersionVector.of(seen or {})
    vv.entries[replica] = counter
    return EventContext(Dot(replica, counter), vv)
