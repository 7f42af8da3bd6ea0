"""Acceptance gate: the eleven release criteria, each at its full range and
stated runtime budget, one pass/fail line per criterion (run with -s or
-rA to see the lines; every integer comparison is exact).

Criterion 1 certifies the published reference tables with two documented
errata: the g(1,1) reference rows 20 and 21 are misprints that hold the
n = 21 and n = 22 values (the true row 20, 19467494, was dropped), so those
two rows are compared with reference_tables.CORRECTED_G_AT_ONE, and the
errata are pinned so that they cannot absorb a regression.  The corrected
values are confirmed by the odd-index recurrence, by the involution-count
identity at n = 20 and 21 (criterion 11), and by the shift; the brute-force
graph oracle (criterion 2) stops at n = 16 under its default vertex cap, so
it does not reach these rows.  `verify --check table1` stays the verbatim
check and fails at the two misprinted cells.  See reference_tables and
tests/test_sequences.py.
"""

import time
from collections import Counter

from involution_lab import enumeration, periodicity, sequences, twoadic, valuations
from involution_lab.algebra import INFINITY, odd_part, val2, val_p
from involution_lab.conjecture import fit_shift_digits
from involution_lab.reference_tables import CORRECTED_G_AT_ONE, G_AT_MINUS_ONE, G_AT_ONE

from conftest import exact_numbers


class Criterion:
    """Collects cell failures, prints the one-line verdict, then asserts."""

    def __init__(self, number: int, title: str, budget_seconds: float):
        self.number = number
        self.title = title
        self.budget = budget_seconds
        self.failures: list[str] = []
        self.started = time.monotonic()

    def check(self, ok: bool, detail: str) -> None:
        if not ok:
            self.failures.append(detail)

    def equal(self, got, want, detail: str) -> None:
        if got != want:
            self.failures.append(f"{detail}: got {got}, want {want}")

    def conclude(self) -> None:
        elapsed = time.monotonic() - self.started
        status = "PASS" if not self.failures else "FAIL"
        print(f"criterion {self.number}: {status} ({elapsed:.2f}s): {self.title}")
        if elapsed >= self.budget:
            self.failures.append(f"runtime {elapsed:.2f}s exceeds {self.budget}s budget")
        assert not self.failures, (
            f"criterion {self.number} ({self.title}): "
            + "; ".join(self.failures[:6])
            + (f" … and {len(self.failures) - 6} more" if len(self.failures) > 6 else "")
        )


def test_criterion_01_reference_tables():
    crit = Criterion(
        1, "reference tables at (1,1) and (1,-1), n <= 21, with the two g(1,1) errata", 1.0
    )
    crit.equal(sorted(CORRECTED_G_AT_ONE), [20, 21], "g(1,1) errata rows")
    patched = {**G_AT_ONE, **CORRECTED_G_AT_ONE}
    for n in range(3, 22, 2):
        crit.equal(
            patched[n],
            patched[n - 1] + (n // 2) * patched[n - 2],
            f"patched g(1,1) table, odd-index recurrence at n={n}",
        )
    for n, corrected in sorted(CORRECTED_G_AT_ONE.items()):
        crit.check(
            corrected != G_AT_ONE[n],
            f"g(1,1) erratum n={n} equals its reference cell",
        )
        crit.equal(
            sequences.graph_count(n + 1),
            G_AT_ONE[n],
            f"g(1,1) misprinted row n={n} as the n={n + 1} value",
        )
    for n, want in sorted(patched.items()):
        crit.equal(sequences.graph_count(n), want, f"g(1,1) reference row n={n}")
    for n, want in sorted(G_AT_MINUS_ONE.items()):
        crit.equal(sequences.graph_count_signed(n), want, f"g(1,-1) reference row n={n}")
    crit.conclude()


def test_criterion_02_graph_poly_oracle():
    crit = Criterion(2, "graph polynomial equals brute-force weight sum, n <= 13", 120.0)
    for n in range(14):
        crit.check(
            sequences.graph_poly(n) == enumeration.graph_weight_sum_bruteforce(n),
            f"polynomial/oracle mismatch at n={n}",
        )
    crit.conclude()


def test_criterion_03_fiber_law():
    crit = Criterion(3, "class-size formula equals enumeration grouping", 120.0)
    for p, n_max in ((2, 10), (3, 9), (5, 7)):
        for n in range(n_max + 1):
            roots = enumeration.pth_roots(n, p)
            groups = Counter(enumeration.refined_class(pi, p) for pi in roots)
            for cls, actual in groups.items():
                crit.equal(
                    enumeration.class_size(cls, p, n),
                    actual,
                    f"p={p}, n={n}, class {cls.to_json_obj()}",
                )
            crit.equal(
                sum(groups.values()),
                sequences.pth_root_count(n, p),
                f"p={p}, n={n} class-size total",
            )
    crit.conclude()


def test_criterion_04_count_valuation_and_odd_factor():
    crit = Criterion(4, "val2 closed form (n <= 2000) and odd factor formula (n <= 400)", 30.0)
    for n, numbers in exact_numbers(2001):
        crit.equal(
            val2(numbers["t"]),
            n // 2 - 2 * (n // 4) + (n + 1) // 4,
            f"val2 at n={n}",
        )
    for n, numbers in exact_numbers(401):
        crit.equal(
            sequences.odd_factor_closed(n),
            odd_part(numbers["t"]),
            f"odd factor at n={n}",
        )
    crit.conclude()


def test_criterion_05_valuation_bound():
    crit = Criterion(5, "p-adic valuation bound for p in {2,3,5,7}, n <= 500", 30.0)
    for p in (2, 3, 5, 7):
        for n, count in zip(range(501), sequences.pth_root_counts(p)):
            v = val_p(count, p)
            bound = n // p - n // (p * p)
            crit.check(v >= bound, f"p={p}, n={n}: valuation {v} < bound {bound}")
    crit.conclude()


def test_criterion_06_polynomial_identity_and_coefficients():
    import math

    crit = Criterion(6, "graph-route polynomial identity and coefficient law, n <= 80", 30.0)
    for n, direct in zip(range(81), sequences.involution_polys()):
        crit.check(
            sequences.involution_poly_via_graphs(n) == direct,
            f"polynomial routes disagree at n={n}",
        )
        for i in range(n // 2 + 1):
            j = n - 2 * i
            want = math.factorial(n) // ((1 << i) * math.factorial(i) * math.factorial(j))
            crit.equal(direct.coefficient(j, i), want, f"coefficient ({j},{i}) of n={n}")
        crit.equal(len(direct), n // 2 + 1, f"term count of n={n}")
    crit.conclude()


def test_criterion_07_parity_valuations():
    crit = Criterion(7, "signed/even/odd valuation closed forms, k <= 500", 60.0)
    for n, numbers in exact_numbers(4 * 501):  # n = 4k + r for k <= 500
        crit.equal(
            val2(numbers["t_signed"]),
            valuations.signed_val2_predicted(n),
            f"signed valuation at n={n}",
        )
        even_pred = valuations.even_val2_predicted(n)
        if even_pred is not None:
            crit.equal(
                val2(numbers["t_even"]),
                even_pred,
                f"even valuation at n={n}",
            )
        odd_pred = valuations.odd_val2_predicted(n)
        if odd_pred is not None:
            crit.equal(
                val2(numbers["t_odd"]),
                odd_pred,
                f"odd valuation at n={n}",
            )
    crit.check(valuations.signed_val2_predicted(2) is INFINITY, "n=2 INFINITY prediction")
    crit.check(val2(sequences.signed_involution_count(2)) is INFINITY, "n=2 INFINITY computed")
    crit.conclude()


def test_criterion_08_periodicity():
    crit = Criterion(8, "periods: odd m <= 99, even m <= 96, odd factors s in 3..6", 120.0)
    for m in range(1, 100, 2):
        report = periodicity.involution_mod_period(m)
        crit.equal(
            (report.preperiod, report.period), (0, m), f"odd modulus {m}"
        )
    for m in range(2, 97, 2):
        k = val2(m)
        report = periodicity.involution_mod_period(m)
        crit.equal(
            (report.preperiod, report.period),
            (4 * k - 2, m >> k),
            f"even modulus {m}",
        )
    for s in (3, 4, 5, 6):
        report = periodicity.odd_factor_period(s)
        crit.equal(
            (report.preperiod, report.period), (0, 1 << (s + 1)), f"odd factors s={s}"
        )
        values = twoadic.odd_factor_residues(s, (1 << s) + 3)
        crit.check(
            values[(1 << s) + 2] != values[2],
            f"s={s}: half-period witness at index 2 vanished",
        )
    crit.conclude()


def test_criterion_09_odd_product_congruence():
    crit = Criterion(9, "odd-product congruence for 3 <= s <= 16", 5.0)
    for s in range(3, 17):
        crit.check(periodicity.odd_product_congruence(s), f"congruence fails at s={s}")
    crit.conclude()


def test_criterion_10_digit_fit():
    crit = Criterion(10, "2-adic digit fit at k_max=1000, 11 bits", 60.0)
    fit = fit_shift_digits(1000, 11)
    crit.equal(fit.digits, (1, 1, 0, 1, 0, 0, 0, 0, 1, 0, 1), "digit prefix")
    crit.equal(fit.violations, (), "violations")
    crit.equal(fit.residue(), 1 + 2 + 2**3 + 2**8 + 2**10, "residue mod 2**11")
    crit.conclude()


def test_criterion_11_cross_engine():
    crit = Criterion(11, "four count routes agree (n <= 400); fibers sum to counts (n <= 12)", 60.0)
    for n, poly in zip(range(401), sequences.involution_polys()):
        t = sequences.involution_count(n)
        crit.equal(sequences.involution_count_direct(n), t, f"direct sum at n={n}")
        crit.equal(poly.evaluate(1, 1), t, f"poly eval at n={n}")
        crit.equal(sequences.involution_count_via_graphs(n), t, f"graph route at n={n}")
    for n in range(13):
        total = sum(
            enumeration.fiber_size(g, n) for g in enumeration.multigraphs(n)
        )
        crit.equal(total, sequences.involution_count(n), f"fiber sum at n={n}")
    crit.conclude()
