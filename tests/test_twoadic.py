"""Bounded-memory 2-adic engine tests: both entry points pinned to the exact
big-integer routes, the precision-doubling restart, the refusals to guess,
and a fresh-interpreter check that the CLI routes never fill the exact
caches."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from involution_lab import twoadic
from involution_lab.algebra import odd_part
from involution_lab.conjecture import even_count_val2
from involution_lab.errors import ExactnessError, InconclusiveError, ResourceLimitError
from involution_lab.sequences import involution_count
from involution_lab.twoadic import even_count_val2_upto, odd_factor_residues

SRC = Path(__file__).resolve().parents[1] / "src"


class TestOddFactorResidues:
    @pytest.mark.parametrize("s", [1, 2, 3, 5, 8])
    @pytest.mark.parametrize("count", [0, 1, 2, 3, 600])
    def test_matches_exact_odd_parts(self, s, count):
        mask = (1 << s) - 1
        want = [odd_part(involution_count(n)) & mask for n in range(count)]
        assert odd_factor_residues(s, count) == want

    def test_validation(self):
        with pytest.raises(ValueError):
            odd_factor_residues(0, 10)

    def test_count_over_cap_refused_before_stepping(self, monkeypatch):
        monkeypatch.setattr(twoadic, "_recurrence_mod", None)
        with pytest.raises(ResourceLimitError, match="cap of 10000000"):
            odd_factor_residues(3, twoadic.STEP_CAP + 1)

    def test_short_precision_is_inconclusive(self, monkeypatch):
        # With h understated, K = 5 falls short at t(7) = 8 * 29, whose
        # residue 8 is nonzero; certification must refuse, not report 1.
        monkeypatch.setattr(twoadic, "involution_val2", lambda n: 0)
        with pytest.raises(InconclusiveError, match=r"beta\(7\)"):
            odd_factor_residues(3, 8)


class TestEvenCountVal2:
    def test_matches_exact_oracle(self):
        assert even_count_val2_upto(300) == [even_count_val2(k) for k in range(301)]

    def test_doubling_restart(self, monkeypatch):
        passes = []
        real_pass = twoadic._even_count_val2_pass

        def counted_pass(bits, k_max):
            passes.append(bits)
            return real_pass(bits, k_max)

        monkeypatch.setattr(twoadic, "_START_MARGIN", 0)
        monkeypatch.setattr(twoadic, "_even_count_val2_pass", counted_pass)
        assert even_count_val2_upto(300) == [even_count_val2(k) for k in range(301)]
        assert passes[:2] == [300, 600]

    def test_odd_sum_raises(self, monkeypatch):
        real = twoadic._recurrence_mod

        def corrupted(bits, sign):
            for value in real(bits, sign):
                yield value + (sign < 0)

        monkeypatch.setattr(twoadic, "_recurrence_mod", corrupted)
        with pytest.raises(ExactnessError):
            even_count_val2_upto(3)

    def test_validation(self):
        with pytest.raises(ValueError):
            even_count_val2_upto(-1)


def test_cli_routes_leave_exact_caches_empty():
    # A fresh interpreter: in this process other tests have filled the caches.
    script = (
        "import contextlib, io, json\n"
        "from involution_lab import cli, sequences\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    codes = [cli.main(['rho', '--k-max', '2000']),\n"
        "             cli.main(['period', '--beta-mod-2s', '8'])]\n"
        "print(json.dumps({'codes': codes,\n"
        "                  't': len(sequences._t_cache._values),\n"
        "                  'signed': len(sequences._signed_cache._values)}))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {"codes": [0, 0], "t": 0, "signed": 0}
