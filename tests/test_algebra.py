"""Exact arithmetic kernel tests.

Valuations are checked against repeated exact division, binomial valuations
against an independent carry-counting oracle, and the polynomial
arithmetic against a Fraction oracle and round-trip properties on randomized
operands.
"""

import math
from fractions import Fraction
from itertools import islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from involution_lab import sequences
from involution_lab.algebra import (
    INFINITY,
    BivariatePoly,
    odd_part,
    val2,
    val_p,
)
from involution_lab.errors import ExactnessError
from involution_lab.sequences import graph_poly, involution_poly


def val_by_division(x: int, p: int) -> int:
    """Oracle: strip factors of p one exact division at a time."""
    x = abs(x)
    v = 0
    while x % p == 0:
        x //= p
        v += 1
    return v


def carry_count(a: int, b: int, p: int) -> int:
    """Oracle for val_p(C(a+b, a)): carries when adding a and b in base p."""
    carries = 0
    carry = 0
    while a or b or carry:
        s = a % p + b % p + carry
        carry = 1 if s >= p else 0
        carries += carry
        a //= p
        b //= p
    return carries


class TestValuations:
    def test_examples(self):
        assert val_p(232, 2) == 3
        assert val_p(0, 2) is INFINITY
        assert val_p(5769, 3) == 2

    def test_nonprime_rejected(self):
        with pytest.raises(ValueError):
            val_p(10, 4)
        with pytest.raises(ValueError):
            val_p(10, 1)

    @given(st.integers(min_value=-(10**18), max_value=10**18), st.sampled_from([2, 3, 5, 7, 11]))
    def test_matches_division_oracle(self, x, p):
        if x == 0:
            assert val_p(x, p) is INFINITY
        else:
            assert val_p(x, p) == val_by_division(x, p)

    @given(st.integers(min_value=-(10**30), max_value=10**30))
    def test_reconstruction(self, x):
        # x = p**val * m with p not dividing m
        for p in (2, 3, 5):
            v = val_p(x, p)
            if x == 0:
                assert v is INFINITY
            else:
                assert x % p**v == 0
                assert (x // p**v) % p != 0

    def test_val2_agrees_with_val_p(self):
        for x in range(-300, 300):
            assert val2(x) == val_p(x, 2)

    def test_infinity_absorbs(self):
        assert INFINITY + 5 is INFINITY
        assert 5 + INFINITY is INFINITY
        assert INFINITY + INFINITY is INFINITY
        assert INFINITY > 10**100
        assert not INFINITY < 3
        assert INFINITY >= INFINITY
        assert INFINITY != 7
        assert repr(INFINITY) == "INFINITY"

    @pytest.mark.parametrize("other", [-(10**100), -1, 0, 7, 10**100])
    def test_infinity_is_above_every_int(self, other):
        assert (INFINITY < other, INFINITY <= other, INFINITY > other, INFINITY >= other) == (
            False, False, True, True)
        assert (other < INFINITY, other <= INFINITY, other > INFINITY, other >= INFINITY) == (
            True, True, False, False)

    def test_infinity_compares_equal_only_to_itself(self):
        assert (INFINITY < INFINITY, INFINITY <= INFINITY, INFINITY > INFINITY,
                INFINITY >= INFINITY) == (False, True, False, True)
        assert INFINITY == INFINITY and INFINITY != float("inf")

    @pytest.mark.parametrize("compare", [
        lambda: INFINITY < 1.5, lambda: INFINITY <= 1.5, lambda: INFINITY > 1.5,
        lambda: INFINITY >= 1.5, lambda: 1.5 <= INFINITY, lambda: float("inf") > INFINITY,
    ], ids=["lt", "le", "gt", "ge", "float-le", "inf-gt"])
    def test_infinity_refuses_to_order_floats(self, compare):
        # Each derived comparison returns NotImplemented, so Python raises.
        with pytest.raises(TypeError):
            compare()


class TestOddPart:
    def test_examples(self):
        assert odd_part(232) == 29
        assert odd_part(1) == 1
        assert odd_part(-12440) == -1555

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            odd_part(0)

    @given(st.integers(min_value=-(10**24), max_value=10**24).filter(bool))
    def test_odd_and_reconstructs(self, x):
        m = odd_part(x)
        assert m % 2 == 1 or m % 2 == -1
        assert m * 2 ** val2(x) == x


def odd_product_ratio(lo: int, hi: int) -> int:
    """Reference: the product of the first hi odd integers over that of the
    first lo, as the explicit product (2*lo+1)(2*lo+3)...(2*hi-1).  The
    graph route never forms it for the count: ``sequences._graph_route_terms``
    yields one factor a term, which the int sum nests in Horner form and the
    polynomial sum steps."""
    if not 0 <= lo <= hi:
        raise ValueError(f"need 0 <= lo <= hi, got {lo}, {hi}")
    return math.prod(range(2 * lo + 1, 2 * hi, 2))


def odd_product(n: int) -> int:
    """Oracle: 1 * 3 * 5 * ... * (2n - 1), one factor at a time."""
    prod = 1
    for i in range(n):
        prod *= 2 * i + 1
    return prod


class TestProducts:
    def test_odd_product_examples(self):
        assert odd_product_ratio(0, 0) == 1
        assert odd_product_ratio(0, 4) == 105
        assert odd_product_ratio(0, 8) % 16 == 1

    def test_odd_product_is_always_odd(self):
        # full product once at the far end, parity at every prefix
        assert odd_product_ratio(0, 10**4) % 2 == 1
        for hi in range(200):
            assert odd_product_ratio(0, hi) % 2 == 1

    def test_ratio_is_exact_quotient(self):
        for lo in range(0, 12):
            for hi in range(lo, 14):
                assert odd_product_ratio(lo, hi) * odd_product(lo) == odd_product(hi)


class TestBinomial:
    """The binomials of the graph recurrence are math.comb, and those of the
    graph-route sum are stepped to the same values; these pin the convention
    and the valuations they rely on."""

    def test_examples(self):
        assert math.comb(4, 2) == 6
        assert math.comb(3, 5) == 0
        assert val2(math.comb(50, 25)) == 3

    def test_valuation_matches_carry_oracle(self):
        assert carry_count(25, 25, 2) == 3
        for n in range(0, 120):
            for k in range(0, n + 1):
                assert val2(math.comb(n, k)) == carry_count(k, n - k, 2)

    @given(st.integers(min_value=1, max_value=500), st.integers(min_value=1, max_value=500))
    @settings(max_examples=200)
    def test_pascal_rule(self, n, k):
        assert math.comb(n, k) == math.comb(n - 1, k) + math.comb(n - 1, k - 1)


monomials = st.tuples(st.integers(0, 6), st.integers(0, 6))
dyadic_fractions = st.builds(
    lambda num, k: Fraction(num, 1 << k), st.integers(-50, 50), st.integers(0, 8)
)
term_lists = st.lists(st.tuples(monomials, dyadic_fractions), max_size=8)


def value_of(terms) -> dict:
    """Oracle: the coefficient of each monomial, summed as Fractions."""
    acc = {}
    for key, c in terms:
        acc[key] = acc.get(key, 0) + Fraction(c)
    return {key: c for key, c in acc.items() if c}


def is_canonical(p: BivariatePoly) -> bool:
    nums = p._terms.values()
    return all(nums) and p._exp >= 0 and (p._exp == 0 or any(c % 2 for c in nums))


class TestBivariatePoly:
    def x2_plus_y(self) -> BivariatePoly:
        return BivariatePoly({(2, 0): 1, (0, 1): 1})

    def test_eval_examples(self):
        p = self.x2_plus_y()
        assert p.evaluate(1, 1) == 2
        assert p.evaluate(1, -1) == 0
        assert BivariatePoly.zero().evaluate(7, -3) == 0
        assert type(p.evaluate(1, 1)) is Fraction
        assert p.evaluate(Fraction(1, 3), 1) == Fraction(10, 9)

    def test_no_zero_terms_stored(self):
        p = BivariatePoly({(1, 0): 1}) - BivariatePoly({(1, 0): 1})
        assert len(p) == 0
        assert p == BivariatePoly.zero()

    def test_structural_equality(self):
        a = BivariatePoly({(2, 0): Fraction(1, 2), (0, 1): Fraction(1, 2)})
        b = BivariatePoly({(2, 0): 1, (0, 1): 1}) * Fraction(1, 2)
        c = BivariatePoly({(2, 0): 4, (0, 1): 4}, 3)
        assert a == b == c
        assert BivariatePoly({(0, 0): 6}, 2) == Fraction(3, 2)
        assert BivariatePoly.one() == 1
        assert BivariatePoly.one() != Fraction(1, 3)

    def test_product(self):
        x = BivariatePoly.monomial(1, 0)
        y = BivariatePoly.monomial(0, 1)
        assert (x + y) * (x - y) == x * x - y * y

    def test_shift(self):
        p = self.x2_plus_y().shift(1, 2)
        assert p == BivariatePoly({(3, 2): 1, (1, 3): 1})

    def test_is_integral(self):
        assert BivariatePoly({(1, 1): 4}).is_integral
        assert BivariatePoly({(1, 1): 4}, 2).is_integral
        assert not self.x2_plus_y().__mul__(Fraction(1, 2)).is_integral

    def test_coefficients_leave_as_fractions(self):
        p = BivariatePoly({(2, 0): 1, (0, 1): 3}, 1)
        assert p.coefficient(0, 1) == Fraction(3, 2)
        assert p.coefficient(5, 5) == 0
        assert list(p.items()) == [((0, 1), Fraction(3, 2)), ((2, 0), Fraction(1, 2))]
        assert all(type(c) is Fraction for _, c in p.items())

    def test_str(self):
        half = BivariatePoly({(2, 0): 1, (0, 1): 1}, 1)
        assert str(half * half + BivariatePoly.monomial(2, 1)) == "1/4*x^4 + 3/2*x^2*y + 1/4*y^2"
        assert str(BivariatePoly({(1, 0): -1, (0, 0): Fraction(-3, 2)})) == "-1*x + -3/2"
        assert str(BivariatePoly({(0, 0): 29})) == "29"
        assert str(BivariatePoly.zero()) == "0"

    def test_bad_input_rejected(self):
        with pytest.raises(ValueError):
            BivariatePoly({(-1, 0): 1})
        with pytest.raises(ValueError):
            BivariatePoly({(1, 0): 1}, -1)
        with pytest.raises(TypeError):
            BivariatePoly({(1, 0): 0.5})

    @given(term_lists, st.integers(0, 6))
    def test_spellings_of_one_value_are_equal(self, terms, extra):
        p = BivariatePoly(terms)
        assert is_canonical(p)
        assert dict(p.items()) == value_of(terms)
        exp = max((c.denominator.bit_length() - 1 for _, c in terms), default=0) + extra
        unit = Fraction(1, 1 << extra)
        spellings = [
            BivariatePoly(terms[::-1]),
            BivariatePoly([(key, int(c * (1 << exp))) for key, c in terms], exp),
            BivariatePoly([(key, part) for key, c in terms for part in (c - unit, unit)]),
            BivariatePoly(value_of(terms)),
        ]
        for q in spellings:
            assert q == p
            assert is_canonical(q)

    @given(term_lists, term_lists)
    def test_equality_is_value_equality(self, a, b):
        assert (BivariatePoly(a) == BivariatePoly(b)) == (value_of(a) == value_of(b))

    @given(st.fractions().filter(lambda c: c.denominator & (c.denominator - 1)))
    def test_non_dyadic_coefficient_raises(self, c):
        with pytest.raises(ExactnessError):
            BivariatePoly({(1, 0): c})
        with pytest.raises(ExactnessError):
            self.x2_plus_y() * c

    @given(term_lists, st.fractions(max_denominator=50), st.fractions(max_denominator=50))
    def test_eval_is_ring_homomorphism(self, terms, x, y):
        p = BivariatePoly(terms)
        q = self.x2_plus_y()
        lhs = (p * q + q).evaluate(x, y)
        rhs = p.evaluate(x, y) * q.evaluate(x, y) + q.evaluate(x, y)
        assert lhs == rhs
        assert p.evaluate(x, y) == sum(c * x**dx * y**dy for (dx, dy), c in value_of(terms).items())


polys = term_lists.map(BivariatePoly)


class TestKernelFastPaths:
    """Every operation builds its result without the checked constructor,
    through the normalizer or, where nothing can cancel, as it is; each must
    equal the naive term formula fed to the public constructor, and be
    canonical."""

    @given(polys, polys, st.integers(-40, 40), monomials, dyadic_fractions.filter(bool))
    def test_operations_match_the_constructor(self, a, b, c, mono, coeff):
        dx, dy = mono
        mono_poly = BivariatePoly.monomial(dx, dy, coeff)
        shifted = [((ax + dx, ay + dy), ac) for (ax, ay), ac in a.items()]
        scaled = BivariatePoly([(key, ac * c) for key, ac in a.items()])
        mono_product = BivariatePoly([(key, ac * coeff) for key, ac in shifted])
        # Integral operands: a one-term product over 2**0 skips the normalizer.
        whole = BivariatePoly([(key, ac.numerator) for key, ac in a.items()])
        whole_mono = BivariatePoly.monomial(dx, dy, coeff.numerator)
        whole_product = BivariatePoly([((wx + dx, wy + dy), wc * coeff.numerator)
                                       for (wx, wy), wc in whole.items()])
        cases = [
            (a + b, BivariatePoly([*a.items(), *b.items()])),
            (-a, BivariatePoly([(key, -ac) for key, ac in a.items()])),
            (a * b, BivariatePoly([((ax + bx, ay + by), ac * bc)
                                   for (ax, ay), ac in a.items() for (bx, by), bc in b.items()])),
            (a * c, scaled),
            (c * a, scaled),
            (a * mono_poly, mono_product),
            (mono_poly * a, mono_product),
            (whole * whole_mono, whole_product),
            (whole_mono * whole, whole_product),
            (a.shift(dx, dy), BivariatePoly(shifted)),
        ]
        for got, want in cases:
            assert got == want
            assert is_canonical(got)

    def test_negative_shift_is_still_checked(self):
        x2 = BivariatePoly.monomial(2, 0)
        assert x2.shift(-1, 0) == BivariatePoly.monomial(1, 0)
        with pytest.raises(ValueError):
            x2.shift(-3, 0)

    def test_recurrences_skip_the_checked_constructor(self, monkeypatch):
        # A work count, not a timing: stepping fresh involution and graph
        # polynomial streams must never go through the validating __init__.
        stream = sequences.involution_polys()  # each builds its one before the count
        graphs = sequences.graph_polys()
        calls = []
        checked_init = BivariatePoly.__init__

        def counted_init(self, *args, **kwargs):
            calls.append(args)
            checked_init(self, *args, **kwargs)

        monkeypatch.setattr(BivariatePoly, "__init__", counted_init)
        built = list(zip(islice(stream, 41), graphs))
        assert calls == []
        monkeypatch.undo()
        assert built == [(involution_poly(n), graph_poly(n)) for n in range(41)]
        assert all(is_canonical(p) for pair in built for p in pair)


class TestCanonicalFastPaths:
    """A product by an int is built canonical without the normalizer, and
    ``combination`` adds many terms before it normalizes once; each must
    equal the slow reading of the same terms and be canonical."""

    @given(polys, st.integers(-20, 20), st.integers(0, 10))
    def test_int_products_stay_canonical(self, a, odd, twos):
        # a * (1/2) is nonzero with exponent at least 1 whenever a is nonzero,
        # so even scalars meet a positive exponent here.
        for p in (a, a * Fraction(1, 2), a * Fraction(1, 256)):
            for c in (odd << twos, (2 * odd + 1) << twos, 0):
                want = BivariatePoly([(key, pc * c) for key, pc in p.items()])
                for got in (p * c, c * p):
                    assert got == want
                    assert is_canonical(got)

    @given(st.lists(st.tuples(st.integers(-9, 9), polys, monomials), max_size=6))
    def test_combination_is_the_sum_of_its_terms(self, terms):
        got = BivariatePoly.combination((c, p, dx, dy) for c, p, (dx, dy) in terms)
        want = BivariatePoly.zero()
        for c, p, (dx, dy) in terms:
            want = want + c * p.shift(dx, dy)
        assert got == want
        assert is_canonical(got)

    def test_combination_cancels_and_rejects_negative_shifts(self):
        x = BivariatePoly.monomial(1, 0)
        half = BivariatePoly({(2, 0): 1, (0, 1): 1}, 1)
        total = BivariatePoly.combination([(2, half, 0, 0), (-1, x, 1, 0)])
        assert total == BivariatePoly.monomial(0, 1)
        assert is_canonical(total)
        assert BivariatePoly.combination([]) == BivariatePoly.zero()
        assert BivariatePoly.combination([(1, x, 0, 0), (-1, x, 0, 0)])._exp == 0
        with pytest.raises(ValueError, match="negative shift"):
            BivariatePoly.combination([(1, x, -1, 0)])

    def test_whole_one_term_products_skip_the_normalizer(self, monkeypatch):
        x = BivariatePoly.monomial(1, 0)
        p = BivariatePoly({(2, 0): 3, (0, 1): -2})
        half = BivariatePoly({(2, 0): 1, (0, 1): 1}, 1)
        want = BivariatePoly({(3, 0): 3, (1, 1): -2})
        zero = BivariatePoly.zero()  # the constructor normalizes

        def no_normalizer(*args):
            raise AssertionError("normalizer called")

        monkeypatch.setattr(BivariatePoly, "_normalized", no_normalizer)
        got = [x * p, p * x, x * zero]
        with pytest.raises(AssertionError, match="normalizer called"):
            x * half  # over 2**1 the product still goes through the normalizer
        monkeypatch.undo()
        assert got == [want, want, zero]
        assert all(is_canonical(q) for q in got)

    @given(polys)
    def test_evaluate_at_one_matches_the_generic_path(self, p):
        # Fraction arguments take the power-table path even at (1, 1).
        fast = p.evaluate(1, 1)
        assert type(fast) is Fraction
        assert fast == p.evaluate(Fraction(1), Fraction(1))
        assert fast == sum((c for _, c in p.items()), Fraction(0))
