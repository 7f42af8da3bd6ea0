"""Bounded-memory 2-adic engine tests: every entry point pinned to the exact
big-integer routes, the precision-doubling restart, the refusals to guess,
and fresh-interpreter checks that the CLI routes never fill the exact
caches and that a large table stays small."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from involution_lab import twoadic, valuations
from involution_lab.algebra import odd_part
from involution_lab.cli import main
from involution_lab.errors import ExactnessError, InconclusiveError, ResourceLimitError
from involution_lab.sequences import involution_count
from involution_lab.twoadic import even_count_val2_upto, odd_factor_residues, valuation_columns
from involution_lab.valuations import REPORT_KINDS, valuation_report

SRC = Path(__file__).resolve().parents[1] / "src"


class TestOddFactorResidues:
    @pytest.mark.parametrize("s", [1, 2, 3, 5, 8])
    @pytest.mark.parametrize("count", [0, 1, 2, 3, 600])
    def test_matches_exact_odd_parts(self, s, count):
        mask = (1 << s) - 1
        want = [odd_part(involution_count(n)) & mask for n in range(count)]
        assert odd_factor_residues(s, count).tolist() == want

    def test_validation(self):
        with pytest.raises(ValueError):
            odd_factor_residues(0, 10)

    def test_count_over_cap_refused_before_stepping(self, monkeypatch):
        monkeypatch.setattr(twoadic, "removal_residues", None)
        with pytest.raises(ResourceLimitError, match="cap of 10000000"):
            odd_factor_residues(3, twoadic.STEP_CAP + 1)

    def test_bit_steps_over_cap_refused_before_stepping(self, monkeypatch):
        monkeypatch.setattr(twoadic, "removal_residues", None)
        monkeypatch.setattr(twoadic, "BIT_STEP_CAP", 10**4)
        # 600 steps on 3 + h(599) + 2 = 156-bit residues: 93,600 bit-steps.
        with pytest.raises(ResourceLimitError, match="600 odd factors on 156-bit residues"):
            odd_factor_residues(3, 600)

    def test_short_precision_is_inconclusive(self, monkeypatch):
        # With h understated, K = 5 falls short at t(7) = 8 * 29, whose
        # residue 8 is nonzero; certification must refuse, not report 1.
        monkeypatch.setattr(twoadic, "involution_val2", lambda n: 0)
        with pytest.raises(InconclusiveError, match=r"beta\(7\)"):
            odd_factor_residues(3, 8)


def _count_passes(monkeypatch) -> list[int]:
    """Start at K = k_max and record the precision of every pass."""
    passes = []
    real_pass = twoadic._columns_pass

    def counted_pass(bits, kinds, indices):
        passes.append(bits)
        return real_pass(bits, kinds, indices)

    monkeypatch.setattr(twoadic, "_START_MARGIN", 0)
    monkeypatch.setattr(twoadic, "_columns_pass", counted_pass)
    return passes


def _corrupt_signed_sums(monkeypatch) -> None:
    """Add one to every signed sum, so t + s and t - s are odd at n = 0."""
    real = twoadic.removal_residues

    def corrupted(m, y=1):
        for value in real(m, y):
            yield value + (y < 0)

    monkeypatch.setattr(twoadic, "removal_residues", corrupted)


def _exact_even_column(k_max):
    """The exact oracle for even_count_val2_upto: n = 4k + 1, k <= k_max."""
    return [valuation_report(4 * k + 1, "t_even").computed for k in range(k_max + 1)]


class TestEvenCountVal2:
    def test_matches_exact_oracle(self):
        assert even_count_val2_upto(300) == _exact_even_column(300)

    def test_doubling_restart(self, monkeypatch):
        passes = _count_passes(monkeypatch)
        assert even_count_val2_upto(300) == _exact_even_column(300)
        assert passes[:2] == [300, 600]

    def test_odd_sum_raises(self, monkeypatch):
        _corrupt_signed_sums(monkeypatch)
        with pytest.raises(ExactnessError):
            even_count_val2_upto(3)

    def test_validation(self):
        with pytest.raises(ValueError):
            even_count_val2_upto(-1)

    def test_bit_steps_over_cap_refused_before_the_pass(self, monkeypatch):
        # 1202 steps: the pass at K = 300 fits the budget and falls short,
        # the restart at K = 600 would not fit and is refused unstarted.
        passes = _count_passes(monkeypatch)
        monkeypatch.setattr(twoadic, "BIT_STEP_CAP", 1202 * 300)
        with pytest.raises(ResourceLimitError, match="1202 recurrence steps on 600-bit"):
            even_count_val2_upto(300)
        assert passes == [300]

    def test_window_over_cap_refused_before_stepping(self, monkeypatch):
        monkeypatch.setattr(twoadic, "removal_residues", None)
        # 4 * k_max + 2 steps: the largest k_max within the cap is 2499999.
        with pytest.raises(ResourceLimitError, match="10000002 recurrence steps"):
            even_count_val2_upto(2_500_000)


class TestValuationColumns:
    K_MAX = 300  # every n < 1204

    def test_matches_exact_reports(self):
        columns = valuation_columns(self.K_MAX)
        for kind in REPORT_KINDS:
            want = [valuation_report(n, kind).computed for n in range(4 * self.K_MAX + 4)]
            assert columns[kind] == want, kind

    def test_doubling_restart(self, monkeypatch):
        want = valuation_columns(self.K_MAX)
        passes = _count_passes(monkeypatch)
        assert valuation_columns(self.K_MAX) == want
        assert passes[:2] == [self.K_MAX, 2 * self.K_MAX]

    def test_odd_sum_raises(self, monkeypatch):
        _corrupt_signed_sums(monkeypatch)
        with pytest.raises(ExactnessError, match="signed sum is odd at n=0"):
            valuation_columns(3)

    def test_odd_sum_reads_the_same_from_the_exact_oracle(self, monkeypatch):
        real = valuations.signed_involution_count
        monkeypatch.setattr(valuations, "signed_involution_count", lambda n: real(n) + 1)
        with pytest.raises(ExactnessError) as exact:
            valuation_report(0, "t_even")
        _corrupt_signed_sums(monkeypatch)
        with pytest.raises(ExactnessError) as engine:
            valuation_columns(3)
        assert str(exact.value) == str(engine.value) == "count + signed sum is odd at n=0"
        with pytest.raises(ExactnessError, match="^count - signed sum is odd at n=0$"):
            valuation_report(0, "t_odd")

    def test_odd_sum_exits_1_from_the_cli(self, monkeypatch, capsys):
        _corrupt_signed_sums(monkeypatch)
        assert main(["table", "--k-max", "3"]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "involution-lab: count + signed sum is odd at n=0\n"

    def test_validation(self):
        with pytest.raises(ValueError):
            valuation_columns(-1)

    def test_window_over_cap_refused_before_stepping(self, monkeypatch):
        monkeypatch.setattr(twoadic, "removal_residues", None)
        # 4 * k_max + 4 steps: the largest k_max within the cap is 2499999.
        with pytest.raises(ResourceLimitError, match="10000004 recurrence steps"):
            valuation_columns(2_500_000)


def test_cli_routes_leave_exact_caches_empty():
    # A fresh interpreter: in this process other tests have filled the caches.
    script = (
        "import contextlib, io, json\n"
        "from involution_lab import cli, sequences\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    codes = [cli.main(['rho', '--k-max', '2000']),\n"
        "             cli.main(['period', '--beta-mod-2s', '8']),\n"
        "             cli.main(['table', '--k-max', '200']),\n"
        "             cli.main(['table', '--k-max', '20', '--format', 'json'])]\n"
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
    assert json.loads(proc.stdout) == {"codes": [0, 0, 0, 0], "t": 0, "signed": 0}


def test_large_table_stays_small(tmp_path):
    # A fresh wrapper interpreter whose only child is the CLI run, so its
    # children's ru_maxrss (kilobytes on Linux) is that run's peak RSS.
    out = tmp_path / "table.csv"
    script = (
        "import resource, subprocess, sys\n"
        "with open(sys.argv[1], 'wb') as fh:\n"
        "    code = subprocess.run([sys.executable, '-m', 'involution_lab.cli',\n"
        "                           'table', '--k-max', '8000'], stdout=fh).returncode\n"
        "print(code, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script, str(out)],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    code, peak_kb = map(int, proc.stdout.split())
    assert code == 0
    assert peak_kb < 60 * 1024
    # Recorded from the exact big-integer route, which peaks near 920 MB here.
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "31504dfad91f125ff689ab83176262416ec1db17870f6fe5098adeb8458eae2c"
    )
