"""Digit-fitting tests: exponents in the unproven column, single-constraint
fits, order independence, and monotone growth of the determined prefix."""

import json
import random

import pytest

from involution_lab import conjecture
from involution_lab.algebra import INFINITY, val2
from involution_lab.cli import main
from involution_lab.conjecture import Violation, fit_shift_digits
from involution_lab.valuations import even_involution_count, valuation_report

EXPECTED_PREFIX = (1, 1, 0, 1, 0, 0, 0, 0, 1, 0, 1)  # shift = 1291 mod 2**11


def even_count_exponent(k):
    """Exact exponent of two in the even-involution count at n = 4k + 1."""
    return valuation_report(4 * k + 1, "t_even").computed


class TestExponents:
    def test_examples(self):
        assert even_count_exponent(1) == 4  # sixteen even involutions on 5 letters
        assert even_involution_count(5) == 16
        assert even_count_exponent(2) == 2  # 1324 = 4 * 331
        assert even_count_exponent(3) == 5  # 272416 = 32 * 8513

    def test_even_k_exponent_is_k(self):
        for k in range(0, 60, 2):
            assert even_count_exponent(k) == k


class TestFit:
    def test_single_constraint(self):
        fit = fit_shift_digits(1)
        assert fit.digits == (1, 1, 0)  # shift = 3 mod 8
        assert fit.undetermined_from == 3
        assert fit.consistent
        assert fit.residue() == 3

    def test_bit_budget_one(self):
        fit = fit_shift_digits(1, bit_budget=1)
        assert fit.digits == (1,)
        assert fit.undetermined_from == 1

    def test_k_three_still_mod_eight(self):
        # k = 3 contributes only a mod-4 constraint, so three digits total.
        fit = fit_shift_digits(3)
        assert fit.digits == (1, 1, 0)

    def test_k_five_reaches_five_digits(self):
        # val2(5 + shift) = 4 pins the fit modulo 2**5.
        fit = fit_shift_digits(5)
        assert fit.digits == (1, 1, 0, 1, 0)
        assert fit.residue() == 11

    def test_thousand(self):
        fit = fit_shift_digits(1000, 11)
        assert fit.digits == EXPECTED_PREFIX
        assert fit.consistent
        assert fit.undetermined_from == 11
        assert fit.residue() == 1 + 2 + 2**3 + 2**8 + 2**10

    def test_monotone_prefix(self):
        digits_200 = fit_shift_digits(200).digits
        digits_1000 = fit_shift_digits(1000).digits
        assert digits_1000[: len(digits_200)] == digits_200

    def test_order_independent(self):
        # The fold is a congruence merge, so any processing order of the
        # same constraints yields the same digits; emulate by refitting the
        # residues from shuffled odd k by hand.
        rng = random.Random(7)
        ks = [k for k in range(1, 201, 2)]
        constraints = []
        for k in ks:
            v = even_count_exponent(k) - k - 1
            constraints.append((((1 << v) - k) % (1 << (v + 1)), v + 1))
        want = fit_shift_digits(200).digits
        for _ in range(5):
            rng.shuffle(constraints)
            residue, bits = 0, 0
            for r, b in constraints:
                assert (residue - r) % (1 << min(bits, b)) == 0
                if b > bits:
                    residue, bits = r, b
            got = tuple((residue >> i) & 1 for i in range(min(bits, len(want))))
            assert got == want[: len(got)]

    def test_violation_reporting(self):
        fit = fit_shift_digits(200)
        assert fit.violations == ()
        doc = fit.to_json_obj()
        assert doc["digits"] == list(fit.digits)
        assert doc["violations"] == []
        assert doc["undetermined_from"] == fit.undetermined_from

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            fit_shift_digits(-1)
        with pytest.raises(ValueError):
            fit_shift_digits(10, 0)
        with pytest.raises(ValueError):
            even_count_exponent(-2)


class TestConstraintSemantics:
    def test_k1_forces_three_mod_eight(self):
        # val2(t_even(5)) = 4 gives v = 2, so 1 + shift must have valuation
        # exactly 2: shift = 2**2 - 1 = 3 (mod 8).
        v = even_count_exponent(1) - 1 - 1
        assert v == 2
        assert (1 + 3) == 4 and val2(1 + 3) == 2
        assert (3 - (2**v - 1)) % 2 ** (v + 1) == 0

    def test_fit_satisfies_all_constraints(self):
        fit = fit_shift_digits(300, 11)
        rho = fit.residue()
        bits = len(fit.digits)
        for k in range(1, 301, 2):
            v = even_count_exponent(k) - k - 1
            if v + 1 <= bits:
                assert val2((k + rho) % (1 << (v + 1))) == v


# One planted fault per violation kind in the even-count column at k <= 9,
# whose true exponents are 0, 4, 2, 5, 4, 10, 6, 9, 8, 12 (digits 1, 1, 0, 1,
# 0): the violation it records, and the digits the fit keeps.
PLANTED = [
    (4, 5, Violation(4, "even_exponent", "exponent at even k=4 is 5, expected 4"),
     (1, 1, 0, 1, 0)),
    (3, INFINITY, Violation(3, "odd_exponent", "count at odd k=3 vanished"), (1, 1, 0, 1, 0)),
    (7, 7, Violation(7, "odd_exponent", "exponent at odd k=7 is 7, below the floor 8"),
     (1, 1, 0, 1, 0)),
    # v = 0 at k = 5 asks for rho = 1 - 5 = 0 (mod 2); k = 1 fixed rho = 3 (mod 8).
    (5, 6, Violation(5, "digit_conflict", "constraint at k=5 forces digit 0 to 0, "
                     "contradicting the digits fixed by smaller k"), (1, 1, 0)),
]


def _plant(monkeypatch, k, exponent):
    """Read the even-count column with the cell at k replaced by ``exponent``."""
    real = conjecture.certified_columns

    def planted(kinds, indices):
        (column,) = real(kinds, indices)
        column[k] = exponent
        return [column]

    monkeypatch.setattr(conjecture, "certified_columns", planted)


class TestPlantedViolations:
    def test_the_true_column(self):
        assert [even_count_exponent(k) for k in range(10)] == [0, 4, 2, 5, 4, 10, 6, 9, 8, 12]
        assert fit_shift_digits(9).digits == (1, 1, 0, 1, 0)

    @pytest.mark.parametrize("k, exponent, violation, digits", PLANTED,
                             ids=[v.kind + f"-k{v.k}" for _, _, v, _ in PLANTED])
    def test_each_fault_is_recorded_and_skipped(self, monkeypatch, k, exponent, violation,
                                                digits):
        _plant(monkeypatch, k, exponent)
        fit = fit_shift_digits(9)
        assert fit.violations == (violation,)
        assert fit.digits == digits
        assert not fit.consistent

    def test_rho_exits_1_and_lists_the_violation(self, monkeypatch, capsys):
        k, exponent, violation, digits = PLANTED[-1]
        _plant(monkeypatch, k, exponent)
        assert main(["rho", "--k-max", "9"]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["violations"] == [violation.to_json_obj()]
        assert doc["digits"] == list(digits)
