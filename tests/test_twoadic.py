"""Bounded-memory 2-adic engine tests: every entry point pinned to the exact
big-integer routes, the precision-doubling restart, the refusals to guess,
and fresh-interpreter checks that the CLI routes never fill the exact
caches, that a large table and a large parity check stay small, and that a
parity range over the budget is refused before any stepping."""

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
from involution_lab.twoadic import certified_columns, odd_factor_residues
from involution_lab.valuations import REPORT_KINDS, table_rows, valuation_report

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


def _even_column(k_max):
    """The reader as the digit fit calls it: the even count at n = 4k + 1,
    k <= k_max."""
    (column,) = certified_columns(("t_even",), range(1, 4 * k_max + 2, 4))
    return column


def _table_columns(k_max):
    """The reader as the table calls it: the four columns, keyed by kind, at
    every n < 4 k_max + 4."""
    return dict(zip(REPORT_KINDS, certified_columns(REPORT_KINDS, range(4 * k_max + 4))))


def _exact_even_column(k_max):
    """The exact oracle for _even_column: n = 4k + 1, k <= k_max."""
    return [valuation_report(4 * k + 1, "t_even").computed for k in range(k_max + 1)]


class TestEvenCountVal2:
    def test_matches_exact_oracle(self):
        assert _even_column(300) == _exact_even_column(300)

    def test_doubling_restart(self, monkeypatch):
        passes = _count_passes(monkeypatch)
        assert _even_column(300) == _exact_even_column(300)
        assert passes[:2] == [300, 600]

    def test_odd_sum_raises(self, monkeypatch):
        _corrupt_signed_sums(monkeypatch)
        with pytest.raises(ExactnessError):
            _even_column(3)

    def test_validation(self):
        # k_max = -1 asks for range(1, -2, 4): a negative bound.
        with pytest.raises(ValueError, match="nonnegative"):
            _even_column(-1)

    def test_bit_steps_over_cap_refused_before_the_pass(self, monkeypatch):
        # 1202 steps: the pass at K = 300 fits the budget and falls short,
        # the restart at K = 600 would not fit and is refused unstarted.
        passes = _count_passes(monkeypatch)
        monkeypatch.setattr(twoadic, "BIT_STEP_CAP", 1202 * 300)
        with pytest.raises(ResourceLimitError, match="1202 recurrence steps on 600-bit"):
            _even_column(300)
        assert passes == [300]

    def test_window_over_cap_refused_before_stepping(self, monkeypatch):
        monkeypatch.setattr(twoadic, "removal_residues", None)
        # 4 * k_max + 2 steps: the largest k_max within the cap is 2499999.
        with pytest.raises(ResourceLimitError, match="10000002 recurrence steps"):
            _even_column(2_500_000)


class TestValuationColumns:
    K_MAX = 300  # every n < 1204

    def test_matches_exact_reports(self):
        columns = _table_columns(self.K_MAX)
        for kind in REPORT_KINDS:
            want = [valuation_report(n, kind).computed for n in range(4 * self.K_MAX + 4)]
            assert columns[kind] == want, kind

    def test_doubling_restart(self, monkeypatch):
        want = _table_columns(self.K_MAX)
        passes = _count_passes(monkeypatch)
        assert _table_columns(self.K_MAX) == want
        assert passes[:2] == [self.K_MAX, 2 * self.K_MAX]

    def test_odd_sum_raises(self, monkeypatch):
        _corrupt_signed_sums(monkeypatch)
        with pytest.raises(ExactnessError, match="signed sum is odd at n=0"):
            _table_columns(3)

    def test_odd_sum_reads_the_same_from_the_exact_oracle(self, monkeypatch):
        real = valuations.signed_involution_count
        monkeypatch.setattr(valuations, "signed_involution_count", lambda n: real(n) + 1)
        with pytest.raises(ExactnessError) as exact:
            valuation_report(0, "t_even")
        _corrupt_signed_sums(monkeypatch)
        with pytest.raises(ExactnessError) as engine:
            _table_columns(3)
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
        # k_max = -1 asks for the empty range(0): no cell, and no error; the
        # table, which takes k_max itself, refuses it.
        assert _table_columns(-1) == dict.fromkeys(REPORT_KINDS, [])
        with pytest.raises(ValueError):
            table_rows(-1)
        with pytest.raises(ValueError, match="increasing"):
            certified_columns(REPORT_KINDS, range(8, 0, -1))

    @pytest.mark.parametrize("call", [
        lambda: certified_columns(("t", "nope"), range(3)),
        lambda: twoadic.column_number("nope", 0, 1, 1),
        lambda: valuations.column_reports(("nope",), range(3)),
        lambda: valuation_report(3, "nope"),
    ], ids=["certified_columns", "column_number", "column_reports", "valuation_report"])
    def test_unknown_kind_is_a_value_error_before_any_step(self, monkeypatch, call):
        def no_stepping(*args):
            raise AssertionError("stepped before the kinds were checked")

        monkeypatch.setattr(twoadic, "removal_residues", no_stepping)
        with pytest.raises(ValueError, match="unknown kind 'nope'"):
            call()

    @pytest.mark.parametrize("kinds, opened", [
        (("t",), [1]), (("t_signed",), [-1]), (("t", "t_odd"), [1, -1]),
    ])
    def test_only_the_streams_a_column_reads_are_stepped(self, monkeypatch, kinds, opened):
        want = certified_columns(kinds, range(40))
        real = twoadic.removal_residues
        streams = []

        def recorded(m, y=1):
            streams.append(y)
            return real(m, y)

        monkeypatch.setattr(twoadic, "removal_residues", recorded)
        assert certified_columns(kinds, range(40)) == want
        assert streams == opened

    def test_window_over_cap_refused_before_stepping(self, monkeypatch):
        monkeypatch.setattr(twoadic, "removal_residues", None)
        # 4 * k_max + 4 steps: the largest k_max within the cap is 2499999.
        with pytest.raises(ResourceLimitError, match="10000004 recurrence steps"):
            _table_columns(2_500_000)


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
        "    codes += [cli.main(['verify', '--check', name])\n"
        "              for name in ('thm52', 'cor53', 'thm54', 'thm55')]\n"
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
    assert json.loads(proc.stdout) == {"codes": [0] * 8, "t": 0, "signed": 0}


def _fresh_cli_run(tmp_path, *argv) -> tuple[int, bytes, float, int]:
    """Run the CLI from a fresh wrapper interpreter whose only child is the
    CLI run, so its children's ru_maxrss (kilobytes on Linux) is that run's
    peak RSS.  Returns the exit code, stdout, wall seconds and peak KB."""
    out = tmp_path / "stdout"
    script = (
        "import resource, subprocess, sys, time\n"
        "start = time.perf_counter()\n"
        "with open(sys.argv[1], 'wb') as fh:\n"
        "    code = subprocess.run([sys.executable, '-m', 'involution_lab.cli',\n"
        "                           *sys.argv[2:]], stdout=fh).returncode\n"
        "print(code, time.perf_counter() - start,\n"
        "      resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script, str(out), *argv],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    code, seconds, peak_kb = proc.stdout.split()
    return int(code), out.read_bytes(), float(seconds), int(peak_kb)


def test_large_table_stays_small(tmp_path):
    code, out, _, peak_kb = _fresh_cli_run(tmp_path, "table", "--k-max", "8000")
    assert code == 0
    assert peak_kb < 60 * 1024
    # Recorded from the exact big-integer route, which peaks near 920 MB here.
    assert hashlib.sha256(out).hexdigest() == (
        "31504dfad91f125ff689ab83176262416ec1db17870f6fe5098adeb8458eae2c"
    )


def test_large_parity_check_stays_small(tmp_path):
    # The exact route took 1.5 s and 327 MB at k_max = 5000.
    code, out, seconds, peak_kb = _fresh_cli_run(
        tmp_path, "verify", "--check", "cor53", "--k-max", "10000")
    assert code == 0
    assert out == b"cor53: PASS: equal even/odd valuations verified for k<=10000\n"
    assert seconds < 2
    assert peak_kb < 30 * 1024


@pytest.mark.parametrize("argv, refusal", [
    # 800,004 steps on 200,064-bit residues: 1.6 * 10**11 bit-steps.
    ("thm52 --k-max 200000", "800004 recurrence steps on 200064-bit residues"),
    ("cor53 --k-max 2500000", "10000004 recurrence steps asked for"),
    ("thm33 --n-max 10000001", "10000002 recurrence steps asked for"),
], ids=["thm52", "cor53", "thm33"])
def test_parity_range_over_budget_exits_3_before_stepping(tmp_path, argv, refusal):
    # The exact route grew its caches here until memory ran out.
    code, out, seconds, _ = _fresh_cli_run(tmp_path, "verify", "--check", *argv.split())
    assert code == 3
    name = argv.split()[0]
    assert out.decode().startswith(f"{name}: INCONCLUSIVE: {refusal}")
    assert out.count(b"\n") == 1
    assert seconds < 1
