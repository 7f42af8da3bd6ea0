"""2-adic engine tests: every entry point pinned to the exact big-integer
routes and to the removal-recurrence reference below, the precision-doubling
restart, the refusals to guess, a check that the CLI routes never read the
exact counts, and fresh-interpreter checks that a large table and a large
parity check stay small, that the large `rho` and `period` scans stay fast,
and that a parity range over the budget is refused before any stepping."""

import contextlib
import io
from itertools import islice
from typing import Iterator

import pytest

from involution_lab import checks, sequences, twoadic, valuations
from involution_lab.algebra import INFINITY, odd_part, val2
from involution_lab.cli import main
from involution_lab.errors import ExactnessError, InconclusiveError, ResourceLimitError
from involution_lab.sequences import involution_count, involution_val2
from involution_lab.twoadic import COLUMNS, certified_columns, odd_factor_residues
from involution_lab.valuations import REPORT_KINDS, table_rows, valuation_report

from conftest import CLI, exact_numbers, fresh_run


def _removal_masked(bits: int, y: int) -> Iterator[int]:
    """t(n) (y = 1) or s(n) (y = -1) mod 2**bits for n = 0, 1, ..., stepped
    by the removal recurrence u(n) = u(n-1) + (n-1) y u(n-2) alone and
    reduced by a mask."""
    mask = (1 << bits) - 1
    # From u(-1) = 0, which the step to u(1) weighs by 0; c is (n - 1) y at u(n).
    prev, curr, c = 0, 1, -y
    while True:
        yield curr
        c += y
        prev, curr = curr, (curr + c * prev) & mask


def _reference_odd_factors(s: int, count: int) -> list[int]:
    """beta(n) mod 2**s for n < count from t(n) mod 2**K, stepped by the
    removal recurrence alone, with K = s + max h(n) + 2 over the window."""
    if count <= 0:
        return []
    bits = s + max(involution_val2(n) for n in range(max(count - 4, 0), count)) + 2
    out = []
    for n, residue in enumerate(islice(_removal_masked(bits, 1), count)):
        v = val2(residue)
        assert v is not INFINITY and v + s <= bits
        out.append((residue >> v) & ((1 << s) - 1))
    return out


def _reference_columns(kinds: tuple[str, ...], indices: range) -> list[list]:
    """The exponent columns from t(n) and s(n) mod 2**K, stepped by the
    removal recurrence alone, with K = k + 64 bits for 4k + r the last index,
    and every cell asserted certified at that precision."""
    bits = (indices.stop - 1) // 4 + 64
    mask = (1 << bits) - 1
    columns: list[list] = [[] for _ in kinds]
    steps = enumerate(zip(_removal_masked(bits, 1), _removal_masked(bits, -1)))
    for n, (t, s) in islice(steps, indices.start, indices.stop, indices.step):
        for column, kind in zip(columns, kinds):
            number_of, halved, _ = COLUMNS[kind]
            residue = number_of(t, s) & mask
            assert not residue & halved
            if residue:
                column.append(val2(residue) - halved)
            else:
                assert bits >= n * n.bit_length() + 2
                column.append(INFINITY)
    return columns


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
        monkeypatch.setattr(twoadic, "_graph_residues", None)
        with pytest.raises(ResourceLimitError, match="cap of 10000000"):
            odd_factor_residues(3, twoadic.STEP_CAP + 1)

    @pytest.mark.parametrize("s", range(1, 15))
    def test_matches_the_removal_reference(self, s):
        # The window odd_factor_period reads, up to 3 * 2**15 = 98,304 n.
        count = 3 << (s + 1 if s >= 3 else s + 3)
        assert odd_factor_residues(s, count).tolist() == _reference_odd_factors(s, count)

    def test_narrowest_word(self):
        assert [odd_factor_residues(s, 4).typecode for s in (8, 9, 16, 17)] == ["B", "H", "H", "I"]

    def test_short_precision_is_inconclusive(self, monkeypatch):
        # With g(7) one too large, F_3(1) = 58/3 becomes 20, of exponent 2
        # instead of [r == 3] = 1; certification must refuse, not report a
        # value for beta(7).
        real = twoadic._graph_residues

        def corrupted(y, bits):
            values = real(y, bits)
            values[7] += 1
            return values

        monkeypatch.setattr(twoadic, "_graph_residues", corrupted)
        assert odd_factor_residues(3, 7).tolist() == [odd_part(involution_count(n)) & 7 for n in range(7)]
        with pytest.raises(InconclusiveError, match=r"beta\(7\)"):
            odd_factor_residues(3, 8)


def _count_passes(monkeypatch, start: int = 2) -> list[int]:
    """Start at J = start bits and record the precision of every pass."""
    passes = []
    real_pass = twoadic._columns_pass

    def counted_pass(bits, kinds, indices):
        passes.append(bits)
        return real_pass(bits, kinds, indices)

    monkeypatch.setattr(twoadic, "_START_BITS", start)
    monkeypatch.setattr(twoadic, "_columns_pass", counted_pass)
    return passes


def _corrupt_signed_graphs(monkeypatch) -> None:
    """Add one to g(0, -1) and g(1, -1), so s(0) and s(1) read 2, and t + s
    and t - s are odd at n = 0 and 1."""
    real = twoadic._graph_residues

    def corrupted(y, bits):
        values = real(y, bits)
        if y < 0:
            values[0] += 1
            values[1] += 1
        return values

    monkeypatch.setattr(twoadic, "_graph_residues", corrupted)


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

    def test_matches_the_removal_reference(self):
        k_max = 20_000
        (want,) = _reference_columns(("t_even",), range(1, 4 * k_max + 2, 4))
        assert _even_column(k_max) == want

    def test_doubling_restart(self, monkeypatch):
        passes = _count_passes(monkeypatch)
        assert _even_column(300) == _exact_even_column(300)
        assert passes[:2] == [2, 4]

    def test_odd_sum_raises(self, monkeypatch):
        _corrupt_signed_graphs(monkeypatch)
        with pytest.raises(ExactnessError):
            _even_column(3)

    def test_validation(self):
        # k_max = -1 asks for range(1, -2, 4): a negative bound.
        with pytest.raises(ValueError, match="nonnegative"):
            _even_column(-1)

    def test_restart_over_max_bits_refused_before_the_pass(self, monkeypatch):
        # From J = 2 the passes at 2 and 4 bits fall short (the exponent of
        # F_1(1) is 4); the restart at 8 bits would pass _MAX_BITS and is
        # refused unstarted.
        passes = _count_passes(monkeypatch)
        monkeypatch.setattr(twoadic, "_MAX_BITS", 4)
        with pytest.raises(ResourceLimitError, match="more than 4 bits"):
            _even_column(300)
        assert passes == [2, 4]

    def test_window_over_cap_refused_before_stepping(self, monkeypatch):
        monkeypatch.setattr(twoadic, "_graph_residues", None)
        # One cell at k = 10**7 plans k + 1 series steps: the largest k
        # within the cap is 9999999.
        with pytest.raises(ResourceLimitError, match="^10000001 series steps asked for"):
            certified_columns(("t_even",), range(4 * 10**7 + 1, 4 * 10**7 + 2))



class TestValuationColumns:
    K_MAX = 300  # every n < 1204

    def test_matches_exact_reports(self):
        columns = _table_columns(self.K_MAX)
        numbers = [row for _, row in exact_numbers(4 * self.K_MAX + 4)]
        for kind in REPORT_KINDS:
            want = [val2(row[kind]) for row in numbers]
            assert columns[kind] == want, kind

    # Besides four reads of their own, each kind read alone and all four read
    # together on every start 0..3 of steps 1, 2 and 4: one pass reads a
    # kind's column the same whatever else it reads.
    @pytest.mark.parametrize("kinds, indices", [
        (REPORT_KINDS, range(4004)), (("t_odd", "t"), range(3, 4000, 7)),
        (("t_signed", "t_even"), range(2, 4002, 2)), (("t_odd",), range(0, 4000, 4)),
        *((kinds, range(start, 403, step)) for step in (1, 2, 4) for start in range(4)
          for kinds in (REPORT_KINDS, *((kind,) for kind in REPORT_KINDS))),
    ], ids=["table", "step7", "step2", "class0",
            *(f"{name}-from{start}-step{step}" for step in (1, 2, 4) for start in range(4)
              for name in ("all", *REPORT_KINDS))])
    def test_matches_the_removal_reference(self, kinds, indices):
        assert certified_columns(kinds, indices) == _reference_columns(kinds, indices)

    def test_doubling_restart(self, monkeypatch):
        want = _table_columns(self.K_MAX)
        passes = _count_passes(monkeypatch)
        assert _table_columns(self.K_MAX) == want
        assert passes[:2] == [2, 4]

    def test_odd_sum_raises(self, monkeypatch):
        _corrupt_signed_graphs(monkeypatch)
        with pytest.raises(ExactnessError, match="signed sum is odd at n=0"):
            _table_columns(3)

    def test_odd_sum_reads_the_same_from_the_exact_oracle(self, monkeypatch):
        real = valuations.signed_involution_count
        monkeypatch.setattr(valuations, "signed_involution_count", lambda n: real(n) + 1)
        with pytest.raises(ExactnessError) as exact:
            valuation_report(0, "t_even")
        _corrupt_signed_graphs(monkeypatch)
        with pytest.raises(ExactnessError) as engine:
            _table_columns(3)
        assert str(exact.value) == str(engine.value) == "count + signed sum is odd at n=0"
        with pytest.raises(ExactnessError, match="^count - signed sum is odd at n=0$"):
            valuation_report(0, "t_odd")
        with pytest.raises(ExactnessError, match="^count - signed sum is odd at n=0$"):
            certified_columns(("t_odd",), range(3))

    def test_odd_sum_exits_1_from_the_cli(self, monkeypatch, capsys):
        _corrupt_signed_graphs(monkeypatch)
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

        monkeypatch.setattr(twoadic, "_graph_residues", no_stepping)
        with pytest.raises(ValueError, match="unknown kind 'nope'"):
            call()

    def test_window_over_cap_refused_before_stepping(self, monkeypatch):
        monkeypatch.setattr(twoadic, "_graph_residues", None)
        # Four residue classes of k_max + 1 series steps each: the largest
        # k_max within the cap is 2499999.
        with pytest.raises(ResourceLimitError, match="^10000004 series steps asked for"):
            _table_columns(2_500_000)

    def test_cells_over_cap_refused_before_stepping(self, monkeypatch):
        monkeypatch.setattr(twoadic, "_graph_residues", None)
        # The largest window the earlier bit-step budget took stays in.
        assert 4 * (4 * 158_081 + 4) <= twoadic.CELL_CAP == 3_000_000
        with pytest.raises(ResourceLimitError, match="^3000001 cells asked for, more than"):
            certified_columns(("t",), range(3_000_001))
        with pytest.raises(ResourceLimitError, match="^12000000 cells asked for"):
            _table_columns(749_999)


class TestParityReads:
    @pytest.mark.parametrize("residues, kinds", [
        ((2, 3), ("t_even", "t_odd")), ((0, 1, 2, 3), ("t_signed",)), ((1,), ("t_odd",)),
    ])
    def test_counterexamples_in_kind_then_n_order(self, monkeypatch, residues, kinds):
        # Every prediction wrong: one message per cell of the checked classes.
        for kind in kinds:
            monkeypatch.setitem(valuations._PREDICTED, kind, lambda n: -1)
        want = [f"n={n} ({kind}): computed {valuation_report(n, kind).computed}, predicted -1"
                for kind in kinds for n in range(4 * 20 + 4) if n % 4 in residues]
        assert list(checks._parity(residues, kinds, 20)) == want

    def test_reads_only_the_checked_classes(self, monkeypatch):
        real = twoadic.certified_columns
        reads = []

        def recorded(kinds, indices):
            reads.append(indices)
            return real(kinds, indices)

        monkeypatch.setattr(valuations, "certified_columns", recorded)
        assert list(checks._parity((2, 3), ("t_even", "t_odd"), 10)) == []
        assert reads == [range(2, 43, 4), range(3, 44, 4)]

    def test_every_class_is_its_own_read(self, monkeypatch):
        # With all four residues checked, as thm52 does, still one read per
        # class: no whole-range read plan.
        real = twoadic.certified_columns
        reads = []
        monkeypatch.setattr(valuations, "certified_columns",
                            lambda kinds, indices: reads.append(indices) or real(kinds, indices))
        assert list(checks._parity((0, 1, 2, 3), ("t_signed",), 10)) == []
        assert reads == [range(r, 41 + r, 4) for r in range(4)]

    @pytest.mark.parametrize("residues, kinds, k_max, refusal", [
        # The whole range, as one read of it was refused.
        ((0, 1, 2, 3), ("t_signed",), 2_500_000, "10000004 series steps asked for"),
        # Two classes of 1,500,002 cells, each within the cap on its own.
        ((2, 3), ("t_even", "t_odd"), 750_000, "3000004 cells asked for"),
    ])
    def test_the_check_total_is_refused_before_the_first_read(
            self, monkeypatch, residues, kinds, k_max, refusal):
        reads = []
        monkeypatch.setattr(valuations, "certified_columns",
                            lambda kinds, indices: reads.append(indices))
        with pytest.raises(ResourceLimitError, match=f"^{refusal}, more than the cap"):
            next(checks._parity(residues, kinds, k_max))
        assert reads == []

    def test_a_check_of_exactly_the_cap_is_read(self, monkeypatch):
        # 4 * 750,000 cells: every class is read.
        reads = []
        monkeypatch.setattr(valuations, "certified_columns",
                            lambda kinds, indices: reads.append(indices) or [[]])
        assert list(checks._parity((0, 1, 2, 3), ("t_signed",), 749_999)) == []
        assert reads == [range(r, 2_999_997 + r, 4) for r in range(4)]


def test_cli_routes_never_read_exact_counts(monkeypatch):
    # Every read of t(n) or s(n) by value goes through one of these names.
    reads = []
    for module in (sequences, valuations):
        for name in ("involution_count", "signed_involution_count"):
            real = getattr(module, name)
            monkeypatch.setattr(module, name, lambda n, name=name, real=real:
                                reads.append((name, n)) or real(n))
    with contextlib.redirect_stdout(io.StringIO()):
        codes = [main(["rho", "--k-max", "2000"]),
                 main(["period", "--beta-mod-2s", "8"]),
                 main(["table", "--k-max", "200"]),
                 main(["table", "--k-max", "20", "--format", "json"])]
        codes += [main(["verify", "--check", name])
                  for name in ("thm52", "cor53", "thm54", "thm55")]
    assert (codes, reads) == ([0] * 8, [])


def test_large_table_stays_small():
    run = fresh_run(*CLI, "table", "--k-max", "8000")
    assert run.code == 0
    assert run.peak_kb < 60 * 1024
    # Recorded from the exact big-integer route, which peaks near 920 MB here.
    assert run.sha256 == "31504dfad91f125ff689ab83176262416ec1db17870f6fe5098adeb8458eae2c"


def test_large_parity_check_stays_small():
    # The exact route took 1.5 s and 327 MB at k_max = 5000.
    run = fresh_run(*CLI, "verify", "--check", "cor53", "--k-max", "10000", keep_stdout=True)
    assert run.code == 0
    assert run.stdout == b"cor53: PASS: equal even/odd valuations verified for k<=10000\n"
    assert run.seconds < 2
    assert run.peak_kb < 30 * 1024


def test_large_rho_is_fast():
    # The residue passes mod 2**K took 13.8 s here; the digest is theirs.
    run = fresh_run(*CLI, "rho", "--k-max", "100000")
    assert run.code == 0
    assert run.sha256 == "b249bfb66fff0f9cd2a47ad39a78222727e13872ab44cafedabe3f82942f29f0"
    assert run.cpu_seconds < 2


def test_beta_period_at_s_17_is_found():
    # The residue passes mod 2**K refused this scan: 786,432 odd factors on
    # 196,628-bit residues.
    run = fresh_run(*CLI, "period", "--beta-mod-2s", "17", keep_stdout=True)
    assert run.code == 0
    assert run.stdout == b"modulus,preperiod,period,window_checked\n131072,0,262144,786432\n"
    assert run.cpu_seconds < 15


@pytest.mark.parametrize("argv, refusal", [
    # Four residue classes of 750,001 cells each, refused on their total.
    ("thm52 --k-max 750000", "3000004 cells asked for, more than the cap of 3000000 cells"),
    # Two residue classes of 2,500,001 series steps each, and two kinds:
    # 10,000,004 cells over the check.
    ("cor53 --k-max 2500000", "10000004 cells asked for, more than the cap of 3000000 cells"),
    # Four residue classes of 2,500,001 or 2,500,000 series steps.
    ("thm33 --n-max 10000001", "10000002 series steps asked for"),
], ids=["thm52", "cor53", "thm33"])
def test_parity_range_over_budget_exits_3_before_stepping(argv, refusal):
    # The exact route grew its caches here until memory ran out.
    run = fresh_run(*CLI, "verify", "--check", *argv.split(), keep_stdout=True)
    assert run.code == 3
    name = argv.split()[0]
    assert run.stdout.decode().startswith(f"{name}: INCONCLUSIVE: {refusal}")
    assert run.stdout.count(b"\n") == 1
    assert run.seconds < 1
