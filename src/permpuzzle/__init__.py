"""Permutation algebra and a generalized sliding-tile puzzle engine.

Boards and moves live in the symmetric group: a board is the
position -> tile permutation, a move is a transposition of the blank
with the slid tile, and solvability is decided by comparing the
configuration's sign with the parity of the blank's distance home.
On top of that sit exact BFS oracles, optimal IDA* search with
admissible heuristics, and disjoint additive pattern databases.
"""

from .board import MOVE_ORDER, Board, Move, format_moves, parse_moves, scramble
from .errors import (
    IllegalMoveError,
    ParseError,
    PuzzleError,
    ResourceLimitError,
    UnsolvableError,
)
from .heuristics import linear_conflict, manhattan
from .pattern_db import (
    PatternDatabase,
    PatternHeuristic,
    load_pdb,
    pdb_heuristic,
    save_pdb,
)
from .pdb_build import build_pdb
from .perm import CycleDecomposition, Parity, Permutation
from .solvability import (
    EnumerationReport,
    ReplayReport,
    SolvabilityCertificate,
    certificate,
    is_solvable,
    reachable_states,
    verify_sequence,
)
from .solver import (
    HEURISTIC_NAMES,
    SearchLimits,
    SearchResult,
    bfs_optimal,
    ida_star,
)

__version__ = "0.1.0"

__all__ = [
    "Board",
    "CycleDecomposition",
    "EnumerationReport",
    "HEURISTIC_NAMES",
    "IllegalMoveError",
    "MOVE_ORDER",
    "Move",
    "Parity",
    "ParseError",
    "PatternDatabase",
    "PatternHeuristic",
    "Permutation",
    "PuzzleError",
    "ReplayReport",
    "ResourceLimitError",
    "SearchLimits",
    "SearchResult",
    "SolvabilityCertificate",
    "UnsolvableError",
    "bfs_optimal",
    "build_pdb",
    "certificate",
    "format_moves",
    "ida_star",
    "is_solvable",
    "linear_conflict",
    "load_pdb",
    "manhattan",
    "parse_moves",
    "pdb_heuristic",
    "reachable_states",
    "save_pdb",
    "scramble",
    "verify_sequence",
]
