"""Valuation closed forms against exact valuations of the sequence engines,
plus the report/table serialization contracts."""

import math
from functools import partial

import pytest

from involution_lab import checks, valuations
from involution_lab.algebra import INFINITY, val2, val_p
from involution_lab.enumeration import pth_roots
from involution_lab.sequences import (
    graph_count,
    involution_count,
    pth_root_count,
    pth_root_counts,
    signed_involution_count,
)
from involution_lab.valuations import (
    REPORT_KINDS,
    ValuationReport,
    binomial_shift_bound_holds,
    chi_even,
    chi_odd,
    column_reports,
    even_involution_count,
    even_val2_predicted,
    format_valuation,
    involution_val2,
    odd_involution_count,
    odd_val2_predicted,
    signed_val2_predicted,
    table_fieldnames,
    table_rows,
    tau_valuation_bound,
    valuation_report,
)

from conftest import CLI, exact_numbers, fresh_run


class TestBound:
    def test_examples(self):
        assert tau_valuation_bound(6, 3) == 2
        assert val_p(pth_root_count(6, 3), 3) == 4
        assert tau_valuation_bound(0, 2) == 0
        assert tau_valuation_bound(9, 3) == 2
        assert val_p(pth_root_count(9, 3), 3) == 2  # tight here

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_bound_holds(self, p):
        for n, count in zip(range(201), pth_root_counts(p)):
            assert val_p(count, p) >= tau_valuation_bound(n, p)

    def test_check_names_the_first_cell_over_the_valuation(self, monkeypatch):
        # val_3(tau_3(6)) = 4: a bound of 5 at that one cell must fail there.
        real = tau_valuation_bound
        monkeypatch.setattr("involution_lab.valuations.tau_valuation_bound",
                            lambda n, p: real(n, p) + 3 * ((n, p) == (6, 3)))
        assert checks.CHECKS["thm23"]({"n_max": 40}) == (False, "p=3, n=6: valuation 4 below bound 5")

    def test_large_check_stays_small_and_fast(self):
        # A fresh process: one stream per prime and one divisibility test per
        # cell; exact caches and repeated division took 10 s and 30 MB here.
        # CPU time, not wall time, so a busy host does not fail it.
        run = fresh_run(*CLI, "verify", "--check", "thm23", "--n-max", "3000")
        assert run.code == 0
        assert run.sha256 == "da2c77955700e105b01555223bcfbfd77bb9a22ec267193168cce87b59f0a25b"
        assert run.cpu_seconds < 2
        assert run.peak_kb < 22 * 1024


class TestCountValuation:
    def test_examples(self):
        assert involution_val2(7) == 3
        assert val2(involution_count(7)) == 3
        assert involution_val2(0) == 0
        assert involution_val2(10) == 3
        assert val2(involution_count(10)) == 3
        assert involution_val2(-1) == 1  # the floor form, which odd_factor_step reads

    def test_closed_form_shapes_agree(self):
        for n in range(500):
            k, r = divmod(n, 4)
            assert involution_val2(n) == k + r // 2 + (1 if r == 3 else 0)

    def test_matches_exact(self):
        for n in range(501):
            assert val2(involution_count(n)) == involution_val2(n)


def shifted_binomial_exponent(k, i):
    """val2(2**i C(k, i)), from the full binomial: the reference exponent."""
    return val2((1 << i) * math.comb(k, i))


class TestShiftedBinomialBound:
    def test_examples(self):
        assert binomial_shift_bound_holds(4, 2, shifted_binomial_exponent(4, 2))
        assert binomial_shift_bound_holds(1, 1, shifted_binomial_exponent(1, 1))
        assert binomial_shift_bound_holds(6, 5, shifted_binomial_exponent(6, 5))
        assert shifted_binomial_exponent(6, 5) == 6  # the i >= 5 specialization at k=6

    def test_range(self):
        for k in range(1, 257):
            for i in range(1, k + 2):  # C(k, k + 1) = 0: exponent INFINITY
                assert binomial_shift_bound_holds(k, i, shifted_binomial_exponent(k, i))

    def test_an_exponent_below_the_bound_fails(self):
        # val2(k) + i - val2(i) is the sharpest of the three bounds (i - val2(i)
        # is at least 1, and at least 3 from i = 5 on), so it decides.
        for k in range(1, 65):
            for i in range(1, k + 1):
                bound = val2(k) + i - val2(i)
                assert binomial_shift_bound_holds(k, i, bound)
                assert not binomial_shift_bound_holds(k, i, bound - 1)

    def test_domain(self):
        with pytest.raises(ValueError):
            binomial_shift_bound_holds(0, 1, 1)
        with pytest.raises(ValueError):
            binomial_shift_bound_holds(3, 0, 1)

    def test_stepped_row_matches_full_binomials(self):
        # verify --check lemma51 steps the exponent along each row.
        for k in range(1, 65):
            row = list(checks._shift_bound_row(k))
            assert [i for i, _, _ in row] == list(range(1, k + 1))
            for i, lhs, holds in row:
                assert lhs == shifted_binomial_exponent(k, i)
                assert holds == binomial_shift_bound_holds(k, i, lhs)


class TestSignedValuation:
    def test_examples(self):
        assert signed_val2_predicted(10) == 6
        assert val2(signed_involution_count(10)) == 6
        assert signed_val2_predicted(2) is INFINITY
        assert signed_involution_count(2) == 0
        assert signed_val2_predicted(7) == 2
        assert val2(-20) == 2

    def test_matches_exact(self):
        for n in range(501):
            assert val2(signed_involution_count(n)) == signed_val2_predicted(n)


class TestParityCounts:
    def test_examples(self):
        assert (even_involution_count(4), odd_involution_count(4)) == (4, 6)
        assert (even_involution_count(0), odd_involution_count(0)) == (1, 0)
        assert odd_involution_count(9) == 1296

    @pytest.mark.parametrize("n", range(10))
    def test_against_enumerated_involutions(self, n):
        # Independent of the column rules: every involution on n letters,
        # counted by the parity of its number of transpositions.
        by_parity = [0, 0]
        for pi in pth_roots(n, 2):
            moved = sum(image != i for i, image in enumerate(pi, 1))
            by_parity[moved // 2 % 2] += 1
        even, odd = by_parity
        assert (even_involution_count(n), odd_involution_count(n)) == (even, odd)
        assert signed_involution_count(n) == even - odd

    def test_sum_and_difference(self):
        for n in range(401):
            e, o = even_involution_count(n), odd_involution_count(n)
            assert e + o == involution_count(n)
            assert e - o == signed_involution_count(n)


class TestParityValuations:
    def test_examples(self):
        assert even_val2_predicted(8) == 2
        assert val2(even_involution_count(8)) == 2
        assert odd_val2_predicted(9) == 4
        assert val2(odd_involution_count(9)) == 4
        assert even_val2_predicted(6) == 1 and odd_val2_predicted(6) == 1
        assert even_involution_count(6) == 46
        assert odd_involution_count(6) == 30

    def test_unknown_cells_are_none(self):
        assert odd_val2_predicted(8) is None  # n = 4k
        assert even_val2_predicted(9) is None  # n = 4k + 1

    def test_zero_cases_absorb(self):
        assert odd_val2_predicted(1) is INFINITY  # k = 0: no odd involutions
        assert val2(odd_involution_count(1)) is INFINITY

    def test_proven_cells_match(self):
        for k in range(121):
            assert val2(even_involution_count(4 * k)) == k + chi_odd(k)
            assert val2(odd_involution_count(4 * k + 1)) == k + val2(k) + chi_even(k)
            for r in (2, 3):
                n = 4 * k + r
                assert val2(even_involution_count(n)) == k
                assert val2(odd_involution_count(n)) == k


class TestReports:
    def test_report_matches_flag(self):
        rep = valuation_report(6, "t")
        assert rep == ValuationReport(6, "t", 2, 2) and rep.matches
        rep = valuation_report(0, "t_odd")
        assert rep.computed is INFINITY
        assert rep.predicted is None and not rep.matches

    def test_engine_reports_match_exact_reports(self):
        # Every kind at every n <= 4 * 300 + 3: the cells the verify checks
        # read from the 2-adic engine, predictions and verdicts included.
        n_stop = 4 * 300 + 4
        numbers = [row for _, row in exact_numbers(n_stop)]
        want = [ValuationReport(n, kind, val2(numbers[n][kind]), valuations._PREDICTED[kind](n))
                for kind in REPORT_KINDS for n in range(n_stop)]
        assert list(column_reports(REPORT_KINDS, range(n_stop))) == want

    def test_row_n6(self):
        row = list(table_rows(1))[6]
        assert (row["ord_t"], row["ord_t_signed"], row["ord_t_even"], row["ord_t_odd"]) == (
            "2",
            "4",
            "1",
            "1",
        )
        assert row["match_t"] == "true"

    def test_row_n0_and_n13(self):
        rows = list(table_rows(3))
        assert rows[0]["ord_t_odd"] == "inf"
        assert rows[0]["predicted_t_odd"] == "unknown"
        assert rows[13]["ord_t_even"] == "5"
        assert rows[13]["predicted_t_even"] == "unknown"

    def test_table_shape(self):
        rows = list(table_rows(3))
        assert [row["n"] for row in rows] == [str(n) for n in range(16)]
        for row in rows:
            for kind in ("t", "t_signed", "t_even", "t_odd"):
                proven = row[f"predicted_{kind}"] != "unknown"
                assert row[f"match_{kind}"] == ("true" if proven else "false")

    def test_rows_match_reports(self):
        for row in table_rows(20):
            n = int(row["n"])
            for kind in ("t", "t_signed", "t_even", "t_odd"):
                rep = valuation_report(n, kind)
                assert row[f"ord_{kind}"] == format_valuation(rep.computed)
                assert row[f"predicted_{kind}"] == format_valuation(rep.predicted)
                assert row[f"match_{kind}"] == str(rep.matches).lower()

    def test_serialization(self):
        assert format_valuation(INFINITY) == "inf"
        assert format_valuation(None) == "unknown"
        assert format_valuation(17) == "17"
        assert all(set(row) == set(table_fieldnames()) for row in table_rows(1))


def test_exact_point_read_stays_small():
    # The exact caches kept every value up to the read: 85.7 MB for t(n) and
    # s(n) at n = 10000, 165 MB for the graph counts at n = 20000.
    for read in ("valuations.even_involution_count(10000)", "sequences.graph_count(20000)"):
        run = fresh_run("-c", f"from involution_lab import sequences, valuations; {read}")
        assert run.code == 0
        assert run.peak_kb < 30 * 1024, read


_NONNEGATIVE = "n must be nonnegative"


@pytest.mark.parametrize("read, n, message", [
    (signed_val2_predicted, -2, _NONNEGATIVE),
    (even_val2_predicted, -5, _NONNEGATIVE),
    (odd_val2_predicted, -1, _NONNEGATIVE),
    (partial(tau_valuation_bound, p=3), -5, _NONNEGATIVE),
    (involution_val2, -2, "n must be at least -1"),
    (involution_count, -1, _NONNEGATIVE),
    (signed_involution_count, -1, _NONNEGATIVE),
    (graph_count, -1, _NONNEGATIVE),
], ids=["signed_val2_predicted", "even_val2_predicted", "odd_val2_predicted",
        "tau_valuation_bound", "involution_val2", "involution_count",
        "signed_involution_count", "graph_count"])
def test_point_functions_refuse_n_outside_their_domain(read, n, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        read(n)
