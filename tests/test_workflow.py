"""The CI workflow's cheap ``run:`` steps, replayed as CI runs them: each
step's script under ``bash -eo pipefail``, in a fresh directory that
links the repository's ``src`` and ``tests``, with ``python`` the
interpreter running these tests and ``permpuzzle`` a shell function for
``python -m permpuzzle.cli``, in place of the console script the
workflow installs. Every pin those steps hold is checked here too."""

from __future__ import annotations

import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
WORKFLOW = ROOT / ".github" / "workflows" / "tests.yml"

# Steps left out: the install needs the network, the two pytest steps
# would run these tests again, and the others take 3 s or more each on
# a 2-vCPU VM (every step replayed here takes under 2 s, about 3 s in
# all).
LEFT_OUT = {
    "Install",
    "Console script solve smoke test",
    "4x4 6-tile pattern database digests and progress (2-3 s each on a 2-vCPU VM)",
    "Exact oracle on every 3x3 state (about 8 s on a 2-vCPU VM)",
    "Criterion-8 node totals under Manhattan and 4-4-4-3 (about 10 s on a 2-vCPU VM)",
    "Tier-1 tests",
    "Benchmark harness tests",
}


def run_steps(text: str) -> dict[str, str]:
    """Each named step's ``run:`` script, by name, from the workflow's
    text: a one-line ``run:``, or a ``run: |`` block, whose lines sit 10
    spaces in."""
    steps: dict[str, str] = {}
    name, block = None, None
    for line in text.splitlines():
        if block is not None:
            if not line.strip() or line.startswith(" " * 10):
                block.append(line[10:])
                continue
            steps[name], block = "\n".join(block) + "\n", None
        if line.startswith("      - "):
            name = line.split("name: ", 1)[1] if "name: " in line else None
        elif line.startswith("        run: "):
            script = line[len("        run: "):]
            if script == "|":
                block = []
            else:
                steps[name] = script + "\n"
    if block is not None:
        steps[name] = "\n".join(block) + "\n"
    return steps


STEPS = run_steps(WORKFLOW.read_text(encoding="utf-8"))
CHEAP = [name for name in STEPS if name not in LEFT_OUT]
PRELUDE = f"""\
python() {{ {shlex.quote(sys.executable)} "$@"; }}
permpuzzle() {{ python -m permpuzzle.cli "$@"; }}
"""


def test_steps_found():
    assert None not in STEPS
    assert LEFT_OUT <= set(STEPS)
    assert len(CHEAP) >= 7


@pytest.mark.parametrize("name", CHEAP)
def test_step_passes(name, tmp_path):
    for linked in ("src", "tests"):
        (tmp_path / linked).symlink_to(ROOT / linked, target_is_directory=True)
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run(
        ["bash", "-eo", "pipefail", "-c", PRELUDE + STEPS[name]],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, f"{done.stdout}\n{done.stderr}"
