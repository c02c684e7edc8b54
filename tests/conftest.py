from __future__ import annotations

import pytest

from permpuzzle import Board, Move
from permpuzzle.board import _TABLES

from oracles import exact_distances

LLOYD_TEXT = "1 2 3 4\n5 6 7 8\n9 10 11 12\n13 15 14 0"
FIG3_TEXT = "3 2 13 9\n6 7 12 5\n10 11 8 4\n15 14 1 0"
FIG3_CYCLES = "(1 3 13 15)(2)(4 9 10 11 8 5 6 7 12)(14)(16)"


@pytest.fixture(scope="session")
def deep_board() -> Board:
    """A 2x520 board whose blank went up 519 cells, left, and down 519:
    its Manhattan distance, 1039, passes Python's recursion limit."""
    moves = [Move.UP] * 519 + [Move.LEFT] + [Move.DOWN] * 519
    return Board.goal(2, 520).apply_sequence(moves)


@pytest.fixture
def lloyd_board() -> Board:
    return Board.parse(LLOYD_TEXT)


@pytest.fixture
def fig3_board() -> Board:
    return Board.parse(FIG3_TEXT)


@pytest.fixture(scope="session")
def dist_2x3() -> dict[tuple[int, ...], int]:
    return exact_distances(3, 2)


@pytest.fixture(scope="session")
def dist_3x3() -> dict[tuple[int, ...], int]:
    return exact_distances(3, 3)


@pytest.fixture(scope="session")
def solvable_3x3_states(dist_3x3) -> list[tuple[int, ...]]:
    """All reachable 3x3 states in a stable order, for seeded sampling."""
    return sorted(dist_3x3)


@pytest.fixture
def empty_store():
    """The per-shape table store, emptied for the test, so every table it
    reads is built again under its limits and ceilings; the tables stored
    before it are put back after."""
    kept = dict(_TABLES)
    _TABLES.clear()
    yield _TABLES
    _TABLES.clear()
    _TABLES.update(kept)
