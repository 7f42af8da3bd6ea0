"""Narrative demos: each runs in a fresh interpreter against the source
tree, exits 0 and prints exactly the bytes pinned here."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))

# sha256 of each demo's stdout.  Every demo is deterministic; a change here
# must be a deliberate change to what the demo prints.
STDOUT_SHA256 = {
    "counting_routes.py": "49a827fde743055ccf182e6fe61459c2f10ea7e1a28e55d0276ae80f19e4bd7d",
    "graphs_and_weights.py": "08897a0b5e9db2014ddc39d35769c6332f612dca1a9159942e9cc17da42181d8",
    "periods_and_digits.py": "34da1eba677d1927cea54854627c8afb09e4a8bc29b253e1735f5dc20dbc2981",
    "valuation_patterns.py": "f801921133e9758b028e188041e58dd5d41ab3fb6913fe2601e10012eb989ee5",
}


def test_demos_found():
    assert DEMOS, "no demos/*.py found; the parametrized test would run nothing"


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_runs(demo):
    proc = subprocess.run(
        [sys.executable, str(demo)],
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr.decode()
    assert hashlib.sha256(proc.stdout).hexdigest() == STDOUT_SHA256[demo.name]
