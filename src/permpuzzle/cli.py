"""Command-line interface.

Board arguments name a file or ``-`` for standard input; move tokens
U/D/L/R give the direction the blank travels. Summary output is stable
``key=value`` text.

Exit codes: 0 success (or solvable), 1 unsolvable (or failed verify),
2 input error, 3 resource limit or out of memory. The group's handler,
:class:`_Commands`, maps the library's errors to them by type, for
every command:

- :class:`UnsolvableError`: its certificate's lines on stderr, exit 1;
- :class:`ResourceLimitError`: ``error: <msg>`` on stderr, then
  ``lower_bound=<n>`` when the limit error proved a bound, exit 3;
- ``MemoryError``, an allocation the interpreter could not make before
  any ceiling refused it: ``error: out of memory`` on stderr, exit 3;
- any other ``ValueError`` (:class:`ParseError`, :class:`IllegalMoveError`,
  the library's argument checks): ``error: <msg>`` on stderr, exit 2.

Errors that need a context the exception lacks are caught where they
happen, and exit 2 as well: ``cannot read PATH: ...`` for a board or move
file, ``cannot write PATH: ...``, ``invalid tile list ...``, and the bare
``OSError`` message of a ``--pdb`` file that cannot be opened. Click's own
usage errors also exit 2. A stdout closed early (``| head -1``) exits 1
through click, with nothing on stderr.
"""

from __future__ import annotations

import sys
from pathlib import Path

import click

from . import __version__
from .board import Board, format_moves, parse_moves, scramble
from .errors import ResourceLimitError, UnsolvableError
from .pattern_db import PatternHeuristic, load_pdb, save_pdb
from .pdb_build import build_pdb
from .solvability import certificate, reachable_states, verify_sequence
from .solver import HEURISTIC_NAMES, SearchLimits, ida_star

EXIT_UNSOLVABLE = 1
EXIT_INPUT = 2
EXIT_RESOURCE = 3


def _fail(message: str, code: int):
    click.echo(f"error: {message}", err=True)
    sys.exit(code)


def _read_board(source: str) -> Board:
    try:
        if source == "-":
            text = click.get_text_stream("stdin").read()
        else:
            text = Path(source).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        _fail(f"cannot read {source}: {exc}", EXIT_INPUT)
    return Board.parse(text)


def _dim_options(f):
    f = click.option("-w", "--width", type=int, default=4, show_default=True,
                     help="Board width.")(f)
    f = click.option("-h", "--height", type=int, default=4, show_default=True,
                     help="Board height.")(f)
    return f


class _Commands(click.Group):
    """Runs a command and maps its errors to exit codes by type."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except UnsolvableError as exc:
            for line in exc.certificate.lines():
                click.echo(line, err=True)
            sys.exit(EXIT_UNSOLVABLE)
        except ResourceLimitError as exc:
            click.echo(f"error: {exc}", err=True)
            if exc.lower_bound is not None:
                click.echo(f"lower_bound={exc.lower_bound}", err=True)
            sys.exit(EXIT_RESOURCE)
        except MemoryError:
            _fail("out of memory", EXIT_RESOURCE)
        except ValueError as exc:
            _fail(str(exc), EXIT_INPUT)


@click.group(cls=_Commands)
@click.version_option(__version__)
def main():
    """Sliding-tile puzzle toolkit: parity solvability, cycle notation,
    optimal solving, and pattern databases.

    Boards are read from a file or standard input (-); the blank is
    written as 0 or _. Move tokens U/D/L/R name the direction the blank
    travels. Exit codes: 0 success or solvable, 1 unsolvable or failed
    verify, 2 input error, 3 resource limit or out of memory.
    """


@main.command()
@click.argument("board", default="-")
def solvable(board):
    """Print the parity certificate; exit 0 if solvable, 1 if not."""
    b = _read_board(board)
    cert = certificate(b)
    for line in cert.lines():
        click.echo(line)
    sys.exit(0 if cert.solvable else EXIT_UNSOLVABLE)


@main.command()
@click.argument("board", default="-")
@click.option("--two-line", is_flag=True, help="Also print two-line notation.")
def cycles(board, two_line):
    """Print the board's permutation in cycle notation."""
    b = _read_board(board)
    p = b.to_permutation()
    click.echo(p.format("cycle"))
    if two_line:
        click.echo(p.format("two-line"))


@main.command()
@click.argument("board", default="-")
@click.option("--heuristic", type=click.Choice([*HEURISTIC_NAMES, "pdb"]),
              default="linear-conflict", show_default=True,
              help="Admissible bound driving the search.")
@click.option("--pdb", "pdb_paths", multiple=True, metavar="PATH",
              help="Pattern database file (repeatable; required with --heuristic pdb).")
@click.option("--max-nodes", type=int, default=None, help="Abort after this many expansions.")
@click.option("--max-time", type=float, default=None, help="Abort after this many seconds.")
def solve(board, heuristic, pdb_paths, max_nodes, max_time):
    """Print an optimal move sequence (U/D/L/R = blank travel) and a summary."""
    b = _read_board(board)
    if heuristic == "pdb":
        if not pdb_paths:
            _fail("--heuristic pdb requires at least one --pdb PATH", EXIT_INPUT)
        try:
            chosen = PatternHeuristic([load_pdb(p) for p in pdb_paths])
        except OSError as exc:
            _fail(str(exc), EXIT_INPUT)
    elif pdb_paths:
        _fail("--pdb requires --heuristic pdb", EXIT_INPUT)
    else:
        chosen = heuristic
    result = ida_star(b, chosen, SearchLimits(max_nodes=max_nodes, max_time=max_time))
    click.echo(format_moves(result.moves))
    click.echo(
        f"length={result.length} nodes={result.nodes_expanded} "
        f"time={result.elapsed:.3f}"
    )


@main.command("scramble")
@_dim_options
@click.option("--steps", type=int, default=0, show_default=True,
              help="Number of random legal moves from the goal.")
@click.option("--seed", type=int, default=0, show_default=True,
              help="RNG seed (fixed default keeps runs reproducible).")
def scramble_cmd(width, height, steps, seed):
    """Print a board scrambled by random moves; always solvable."""
    b, _ = scramble(width, height, steps, seed)
    click.echo(b.format())


@main.command()
@click.argument("board", default="-")
@click.option("--moves", "moves_path", required=True, metavar="PATH",
              help="File of whitespace-separated U/D/L/R tokens.")
def verify(board, moves_path):
    """Replay a move file against a board; exit 0 iff it reaches the goal."""
    b = _read_board(board)
    try:
        text = Path(moves_path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        _fail(f"cannot read {moves_path}: {exc}", EXIT_INPUT)
    report = verify_sequence(b, parse_moves(text))
    click.echo(f"solved={'true' if report.solved else 'false'}")
    if report.failed_index is not None:
        click.echo(f"failed_index={report.failed_index}")
    sys.exit(0 if report.solved else EXIT_UNSOLVABLE)


@main.command("enumerate")
@_dim_options
def enumerate_cmd(width, height):
    """Exhaustively count boards reachable from the goal (small sizes only)."""
    report = reachable_states(width, height)
    click.echo(f"count={report.count} max_depth={report.max_depth}")


def _echo_layer(distance: int, placements: int, states: int) -> None:
    click.echo(f"layer={distance} placements={placements} states={states}", err=True)


@main.command("pdb-build")
@_dim_options
@click.option("--tiles", required=True, metavar="LIST",
              help="Comma-separated pattern tile labels, e.g. 1,2,3,4.")
@click.option("--out", "out_path", required=True, metavar="PATH",
              help="Destination file.")
@click.option("--progress", is_flag=True,
              help="Print layer=D placements=P states=S on stderr after each BFS layer.")
def pdb_build(width, height, tiles, out_path, progress):
    """Build a pattern database and write it to disk."""
    tokens = tiles.replace(",", " ").split()
    try:
        # ASCII digits only, as Board.parse reads tiles: no sign, '_' or other scripts.
        if not all(tok.isascii() and tok.isdigit() for tok in tokens):
            raise ValueError(tiles)
        labels = [int(tok) for tok in tokens]
    except ValueError:
        _fail(f"invalid tile list {tiles!r}", EXIT_INPUT)
    db = build_pdb(width, height, labels, progress=_echo_layer if progress else None)
    try:
        save_pdb(db, out_path)
    except OSError as exc:
        _fail(f"cannot write {out_path}: {exc}", EXIT_INPUT)
    click.echo(f"entries={len(db.table)} out={out_path}")


if __name__ == "__main__":
    main()
