"""Exact arithmetic kernel tests.

Valuations are checked against repeated exact division, binomial valuations
against an independent carry-counting oracle, and the dyadic/polynomial
arithmetic against round-trip properties on randomized operands.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from involution_lab.algebra import (
    INFINITY,
    BivariatePoly,
    Dyadic,
    arithmetic_product,
    binomial,
    odd_part,
    odd_product,
    odd_product_ratio,
    val2,
    val_p,
)
from involution_lab.errors import ExactnessError


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


class TestProducts:
    def test_odd_product_examples(self):
        assert odd_product(0) == 1
        assert odd_product(4) == 105
        assert odd_product(8) % 16 == 1

    def test_odd_product_is_always_odd(self):
        # full product once at the far end, parity at every prefix
        assert odd_product(10**4) % 2 == 1
        prod = 1
        for i in range(2000):
            prod *= 1 + 2 * i
            assert prod % 2 == 1

    def test_ratio_is_exact_quotient(self):
        for lo in range(0, 12):
            for hi in range(lo, 14):
                assert odd_product_ratio(lo, hi) * odd_product(lo) == odd_product(hi)

    def test_arithmetic_product(self):
        assert arithmetic_product(1, 2, 3) == 15
        assert arithmetic_product(2, 3, 3) == 80
        assert arithmetic_product(1, 2, 0) == 1
        assert arithmetic_product(1, 2, 6) == odd_product(6)


class TestBinomial:
    def test_examples(self):
        assert binomial(4, 2) == 6
        assert binomial(3, 5) == 0
        assert val2(binomial(50, 25)) == 3

    def test_valuation_matches_carry_oracle(self):
        assert carry_count(25, 25, 2) == 3
        for n in range(0, 120):
            for k in range(0, n + 1):
                assert val2(binomial(n, k)) == carry_count(k, n - k, 2)

    @given(st.integers(min_value=1, max_value=500), st.integers(min_value=1, max_value=500))
    @settings(max_examples=200)
    def test_pascal_rule(self, n, k):
        assert binomial(n, k) == binomial(n - 1, k) + binomial(n - 1, k - 1)


dyadics = st.builds(
    Dyadic,
    st.integers(min_value=-(10**12), max_value=10**12),
    st.integers(min_value=0, max_value=40),
)


class TestDyadic:
    def test_canonical_form(self):
        assert Dyadic(12, 2) == Dyadic(3)
        assert Dyadic(12, 2).exp == 0
        assert Dyadic(6, 3) == Dyadic(3, 2)
        assert Dyadic(0, 7) == Dyadic(0)
        assert Dyadic(1, -3) == Dyadic(8)

    @given(dyadics)
    def test_canonical_invariant(self, d):
        assert d.exp >= 0
        assert d.exp == 0 or d.num % 2 != 0
        if d.num == 0:
            assert d.exp == 0

    @given(dyadics, dyadics)
    def test_addition_round_trip(self, a, b):
        assert (a + b) - b == a

    @given(dyadics, dyadics.filter(bool))
    def test_multiplication_round_trip(self, a, b):
        assert (a * b) / b == a

    def test_inexact_division_raises(self):
        with pytest.raises(ExactnessError):
            Dyadic(1) / Dyadic(3)
        with pytest.raises(ZeroDivisionError):
            Dyadic(1) / Dyadic(0)

    def test_pow2_scaling(self):
        assert Dyadic(5).mul_pow2(-3) == Dyadic(5, 3)
        assert Dyadic(5, 3).mul_pow2(3) == Dyadic(5)

    def test_comparisons(self):
        assert Dyadic(1, 1) < Dyadic(3, 2) < Dyadic(1)
        assert Dyadic(-1, 1) < 0 < Dyadic(1, 4)

    @given(
        st.integers(min_value=-(10**12), max_value=10**12),
        st.integers(min_value=-6, max_value=6),
        st.integers(min_value=0, max_value=6),
    )
    def test_equal_values_hash_equal(self, num, exp, extra):
        # a == b must imply hash(a) == hash(b) across Dyadic and int; build
        # several spellings of one value, the int among them when integral.
        d = Dyadic(num, exp)
        forms = [d, Dyadic(num << extra, exp + extra)]
        if d.exp == 0:
            forms.append(d.num)
        for a in forms:
            for b in forms:
                assert a == b
                assert hash(a) == hash(b)
        assert (d in {d.num}) == (d.exp == 0)

    def test_as_int(self):
        assert Dyadic(10, 1).as_int() == 5
        with pytest.raises(ExactnessError):
            Dyadic(5, 1).as_int()

    def test_str(self):
        assert str(Dyadic(29)) == "29"
        assert str(Dyadic(3, 2)) == "3/4"


class TestBivariatePoly:
    def x2_plus_y(self) -> BivariatePoly:
        return BivariatePoly({(2, 0): 1, (0, 1): 1})

    def test_eval_examples(self):
        p = self.x2_plus_y()
        assert p.evaluate(1, 1) == Dyadic(2)
        assert p.evaluate(1, -1) == Dyadic(0)
        assert BivariatePoly.zero().evaluate(7, -3) == Dyadic(0)

    def test_no_zero_terms_stored(self):
        p = BivariatePoly({(1, 0): 1}) - BivariatePoly({(1, 0): 1})
        assert len(p) == 0
        assert p == BivariatePoly.zero()

    def test_structural_equality(self):
        a = BivariatePoly({(2, 0): Dyadic(1, 1), (0, 1): Dyadic(1, 1)})
        b = (BivariatePoly({(2, 0): 1, (0, 1): 1}) * Dyadic(1, 1))
        assert a == b

    def test_product(self):
        x = BivariatePoly.monomial(1, 0)
        y = BivariatePoly.monomial(0, 1)
        assert (x + y) * (x - y) == x * x - y * y

    def test_shift(self):
        p = self.x2_plus_y().shift(1, 2)
        assert p == BivariatePoly({(3, 2): 1, (1, 3): 1})

    def test_json_round_trip(self):
        p = BivariatePoly({(2, 0): Dyadic(1, 1), (0, 1): Dyadic(-3, 2), (5, 4): 7})
        terms = p.to_json_terms()
        assert terms == sorted(terms)
        assert terms == [[0, 1, "-3", 2], [2, 0, "1", 1], [5, 4, "7", 0]]
        assert BivariatePoly.from_json_terms(terms) == p

    def test_is_integral(self):
        assert BivariatePoly({(1, 1): 4}).is_integral
        assert not self.x2_plus_y().__mul__(Dyadic(1, 1)).is_integral

    @given(
        st.lists(
            st.tuples(
                st.tuples(st.integers(0, 6), st.integers(0, 6)),
                st.integers(-50, 50),
            ),
            max_size=8,
        )
    )
    def test_eval_is_ring_homomorphism(self, terms):
        p = BivariatePoly(terms)
        q = self.x2_plus_y()
        x, y = Dyadic(3, 1), Dyadic(-5, 2)
        lhs = (p * q + q).evaluate(x, y)
        rhs = p.evaluate(x, y) * q.evaluate(x, y) + q.evaluate(x, y)
        assert lhs == rhs
