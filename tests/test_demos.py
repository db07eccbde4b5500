"""Byte-exact stdout of every script in ``demos/``.

Each demo runs in a child interpreter with ``PYTHONPATH`` set to the source
tree under test, and its stdout must equal ``tests/golden/demo-<name>.txt``.
A deliberate change of a demo's output rewrites these files with
``PYTHONPATH=src python tests/test_demos.py`` and says so.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).parents[1]
GOLDEN = Path(__file__).parent / "golden"
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def run_demo(path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run(
        [sys.executable, str(path)], capture_output=True, text=True, env=env, cwd=ROOT
    )


def test_every_demo_has_a_golden():
    assert DEMOS
    for path in DEMOS:
        assert (GOLDEN / f"demo-{path.stem}.txt").is_file(), path.name


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.stem)
def test_demo_output_matches_golden(path):
    done = run_demo(path)
    assert done.returncode == 0, done.stderr
    assert done.stderr == ""
    assert done.stdout == (GOLDEN / f"demo-{path.stem}.txt").read_text(encoding="utf-8")


if __name__ == "__main__":
    for path in DEMOS:
        done = run_demo(path)
        if done.returncode != 0:
            sys.exit(f"{path.name}: exit {done.returncode}: {done.stderr}")
        (GOLDEN / f"demo-{path.stem}.txt").write_text(done.stdout, encoding="utf-8")
