"""Exact arithmetic kernel: p-adic valuations and sparse bivariate
polynomials with dyadic coefficients.

Plain Python integers carry all arbitrary-precision work (they are exact,
round-trip through decimal strings, and compare correctly, which is the whole
contract).  ``BivariatePoly`` stores integer numerators over one shared power
of two, in a canonical form, so that equality of polynomials is structural
equality; coefficients and values leave it as ``fractions.Fraction``.  Every
result that can cancel (a sum, a product of two polynomials, a checked
input) ends in one normalizer, which drops zero numerators and takes out
their common power of two; the constructor is the checked entry for outside
input and hands its merged numerators to that same normalizer.  Results that
cannot cancel are built canonical as they are: a product by an int takes the
scalar's twos out against the exponent, a shift only moves keys, and
``evaluate(1, 1)`` is the numerator sum over the power of two.  Every value
here is immutable and every operation is a pure function, so results are
safe to share across threads.
"""

from __future__ import annotations

from functools import reduce, total_ordering
from operator import or_
from typing import TYPE_CHECKING, Iterable, Iterator, Union

from .errors import ExactnessError

if TYPE_CHECKING:
    from fractions import Fraction

__all__ = [
    "INFINITY",
    "Valuation",
    "is_prime",
    "require_at_least",
    "require_positive",
    "require_prime",
    "require_kind",
    "require_sign",
    "val_p",
    "val2",
    "odd_part",
    "BivariatePoly",
]


@total_ordering
class _Infinity:
    """Sentinel for the valuation of zero: larger than every integer, and
    absorbing under addition so degenerate inputs flow through closed forms
    without special-casing.  Equality is identity; the order is derived from ``<``."""

    __slots__ = ()
    _instance = None

    def __new__(cls) -> "_Infinity":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "INFINITY"

    def __add__(self, other: object) -> "_Infinity":
        if isinstance(other, (int, _Infinity)):
            return self
        return NotImplemented

    __radd__ = __add__

    def __lt__(self, other: object) -> bool:
        if isinstance(other, (int, _Infinity)):
            return False
        return NotImplemented


INFINITY = _Infinity()

#: A p-adic valuation: a nonnegative ``int``, or ``INFINITY`` for zero.
Valuation = Union[int, _Infinity]

#: An exact rational: an ``int``, or anything with ``numerator`` and
#: ``denominator`` such as ``fractions.Fraction``.
Rational = Union[int, "Fraction"]


def is_prime(p: int) -> bool:
    """Primality by trial division (arguments here are always small)."""
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


# The argument guards: each input rule is stated once, here, and called by
# every public entry that takes such an argument.  The permutation rule has
# one reader and is stated in its loop, ``enumeration.permutation_cycles``.

def require_at_least(value: int, low: int, name: str = "n", error: type = ValueError) -> None:
    """Refuse an integer argument below ``low``, as ``error``."""
    if value < low:
        raise error(f"{name} must be nonnegative" if low == 0 else
                    f"{name} must be at least {low}")


def require_positive(value: int, name: str) -> None:
    if value < 1:
        raise ValueError(f"{name} must be positive")


def require_prime(p: int) -> None:
    if not is_prime(p):
        raise ValueError(f"p must be prime, got {p}")


def require_kind(kind: str, kinds: Iterable[str]) -> None:
    if kind not in kinds:
        raise ValueError(f"unknown kind {kind!r}")


def require_sign(y: int) -> None:
    if y not in (1, -1):
        raise ValueError(f"y must be 1 or -1, got {y}")


def val_p(x: int, p: int) -> Valuation:
    """Largest k with p**k dividing x; INFINITY when x == 0."""
    require_prime(p)
    if x == 0:
        return INFINITY
    if p == 2:
        return val2(x)
    x = abs(x)
    v = 0
    while True:
        q, r = divmod(x, p)
        if r:
            return v
        x = q
        v += 1


def val2(x: int) -> Valuation:
    """2-adic valuation via the low-bit trick; INFINITY when x == 0."""
    if x == 0:
        return INFINITY
    x = abs(x)
    return (x & -x).bit_length() - 1


def odd_part(x: int) -> int:
    """x divided by its maximal power of two.  Sign is preserved; x must be
    nonzero."""
    if x == 0:
        raise ValueError("odd part of 0 is undefined")
    return x >> val2(x)


def _ratio(c: Rational) -> tuple[int, int]:
    if isinstance(c, int):
        return c, 1
    try:
        return c.numerator, c.denominator
    except AttributeError:
        raise TypeError(f"cannot interpret {c!r} as a rational") from None


def _dyadic(c: Rational) -> tuple[int, int]:
    """(num, k) with c == num / 2**k; c's denominator must be a power of
    two."""
    num, den = _ratio(c)
    if den & (den - 1):
        raise ExactnessError(f"{c} is not a dyadic rational")
    return num, den.bit_length() - 1


def _fraction(num: int, den: int) -> Fraction:
    # Imported only where a value leaves a polynomial: fractions pulls in
    # decimal, which would cost every CLI process about 0.5 MB and 4 ms.
    from fractions import Fraction

    return Fraction(num, den)


def _power_table(num: int, den: int, m: int) -> list[int]:
    """table[i] = num**i * den**(m - i): the powers of num/den up to m over
    the common denominator den**m."""
    table = [den**m]
    if den == 1:
        for _ in range(m):
            table.append(table[-1] * num)
    else:
        for _ in range(m):
            table.append(table[-1] * num // den)
    return table


class BivariatePoly:
    """Sparse polynomial in x and y with dyadic coefficients.

    Stored as integer numerators over one shared power of two: the value is
    the sum of terms[(i, j)] * x**i * y**j / 2**exp.  No numerator is zero,
    and exp == 0 or some numerator is odd, so two polynomials are equal
    exactly when their numerators and exponents are.  Coefficients and
    values leave a polynomial as ``fractions.Fraction``.

    The constructor is the checked entry for outside input: it validates
    every degree and coefficient.  Every operation already holds canonical
    int numerators and skips those checks.  A result that can cancel (``+``,
    ``-``, a product of polynomials, ``combination``) goes through the one
    normalizer, ``_normalized``; negation, a product by an int, a product
    by a one-term factor over 2**0 and a nonnegative ``shift`` are canonical
    by construction and go straight to ``_canonical``.
    """

    __slots__ = ("_terms", "_exp")

    def __init__(
        self,
        terms: "dict[tuple[int, int], Rational] | Iterable[tuple[tuple[int, int], Rational]] | None" = None,
        exp: int = 0,
    ):
        """Terms map (deg_x, deg_y) to an int or a dyadic rational; repeated
        monomials add up, and the whole sum is divided by 2**exp."""
        if exp < 0:
            raise ValueError(f"negative exponent {exp}")
        nums: dict[tuple[int, int], int] = {}
        if terms:
            scale = 0  # every numerator so far is over 2**(exp + scale)
            items = terms.items() if isinstance(terms, dict) else terms
            for (dx, dy), c in items:
                if dx < 0 or dy < 0:
                    raise ValueError(f"negative degree in monomial ({dx}, {dy})")
                if not isinstance(c, int):
                    c, k = _dyadic(c)
                    if k > scale:
                        nums = {key: v << (k - scale) for key, v in nums.items()}
                        scale = k
                    c <<= scale - k
                elif scale:
                    c <<= scale
                nums[dx, dy] = nums.get((dx, dy), 0) + c
            exp += scale
        canonical = BivariatePoly._normalized(nums, exp)
        object.__setattr__(self, "_terms", canonical._terms)
        object.__setattr__(self, "_exp", canonical._exp)

    @classmethod
    def _normalized(cls, nums: dict[tuple[int, int], int], exp: int) -> "BivariatePoly":
        """The polynomial sum nums[key] * x**i * y**j / 2**exp in canonical
        form.  ``nums`` maps nonnegative degrees to ints and is owned by the
        result from here on.  Zero numerators are dropped and the common
        power of two is taken out; nothing else is checked."""
        if 0 in nums.values():
            nums = {key: c for key, c in nums.items() if c}
        if not nums:
            exp = 0
        elif exp:
            low = reduce(or_, nums.values())
            # The lowest set bit of the OR is the least 2-adic valuation.
            shift = min(exp, (low & -low).bit_length() - 1)
            if shift:
                nums = {key: c >> shift for key, c in nums.items()}
                exp -= shift
        return cls._canonical(nums, exp)

    @classmethod
    def _canonical(cls, nums: dict[tuple[int, int], int], exp: int) -> "BivariatePoly":
        """The instance for numerators and an exponent already in canonical
        form (no zero numerator; exp == 0 or some numerator odd), taken as
        they are.  Apart from ``_normalized``, only operations whose result
        cannot cancel build through here."""
        poly = object.__new__(cls)
        object.__setattr__(poly, "_terms", nums)
        object.__setattr__(poly, "_exp", exp)
        return poly

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("BivariatePoly values are immutable")

    @classmethod
    def zero(cls) -> "BivariatePoly":
        return cls()

    @classmethod
    def one(cls) -> "BivariatePoly":
        return cls({(0, 0): 1})

    @classmethod
    def constant(cls, c: Rational) -> "BivariatePoly":
        return cls({(0, 0): c})

    @classmethod
    def monomial(cls, dx: int, dy: int, coeff: Rational = 1) -> "BivariatePoly":
        return cls({(dx, dy): coeff})

    def _lowest(self, c: int) -> tuple[int, int]:
        """The coefficient c / 2**exp in lowest terms, as (numerator, k)
        over 2**k."""
        k = min(self._exp, (c & -c).bit_length() - 1)
        return c >> k, self._exp - k

    def coefficient(self, dx: int, dy: int) -> Fraction:
        return _fraction(self._terms.get((dx, dy), 0), 1 << self._exp)

    def items(self) -> Iterator[tuple[tuple[int, int], Fraction]]:
        den = 1 << self._exp
        return iter([(key, _fraction(c, den)) for key, c in sorted(self._terms.items())])

    def __len__(self) -> int:
        return len(self._terms)

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BivariatePoly):
            try:
                other = BivariatePoly.constant(other)
            except (TypeError, ExactnessError):
                return NotImplemented
        return self._exp == other._exp and self._terms == other._terms

    def __add__(self, other: "BivariatePoly | Rational") -> "BivariatePoly":
        if not isinstance(other, BivariatePoly):
            other = BivariatePoly.constant(other)
        hi, lo = (self, other) if self._exp >= other._exp else (other, self)
        shift = hi._exp - lo._exp
        out = dict(hi._terms)
        for key, c in lo._terms.items():
            out[key] = out.get(key, 0) + (c << shift)
        return BivariatePoly._normalized(out, hi._exp)

    __radd__ = __add__

    def __neg__(self) -> "BivariatePoly":
        return BivariatePoly._canonical({k: -c for k, c in self._terms.items()}, self._exp)

    def __sub__(self, other: "BivariatePoly | Rational") -> "BivariatePoly":
        return self + (-other)

    def __mul__(self, other: "BivariatePoly | Rational") -> "BivariatePoly":
        if isinstance(other, int):
            if not other:
                return BivariatePoly._canonical({}, 0)
            # Take min(exp, v2(other)) out of the scalar: the rest of it is
            # odd, or the exponent drops to 0, so the product is canonical.
            shift = min(self._exp, (other & -other).bit_length() - 1)
            other >>= shift
            return BivariatePoly._canonical(
                {k: c * other for k, c in self._terms.items()}, self._exp - shift)
        if not isinstance(other, BivariatePoly):
            other = BivariatePoly.constant(other)
        exp = self._exp + other._exp
        a, b = self._terms, other._terms
        if len(a) == 1:
            a, b = b, a
        if len(b) == 1:
            # A one-term factor shifts the keys and scales, in one pass.  Over
            # 2**0 nothing can cancel: the shift is injective and every
            # numerator nonzero, so the product is canonical as it is.
            ((bx, by), bc), = b.items()
            out = {(ax + bx, ay + by): ac * bc for (ax, ay), ac in a.items()}
            if exp:
                return BivariatePoly._normalized(out, exp)
            return BivariatePoly._canonical(out, 0)
        out: dict[tuple[int, int], int] = {}
        for (ax, ay), ac in a.items():
            for (bx, by), bc in b.items():
                key = (ax + bx, ay + by)
                out[key] = out.get(key, 0) + ac * bc
        return BivariatePoly._normalized(out, exp)

    __rmul__ = __mul__

    def shift(self, dx: int, dy: int) -> "BivariatePoly":
        """Multiply by the monomial x**dx * y**dy.  A nonnegative shift only
        moves the keys; a negative one goes through the checked constructor,
        which rejects a negative degree."""
        out = {(a + dx, b + dy): c for (a, b), c in self._terms.items()}
        if dx < 0 or dy < 0:
            return BivariatePoly(out, self._exp)
        return BivariatePoly._canonical(out, self._exp)

    @classmethod
    def combination(
        cls, terms: "Iterable[tuple[int, BivariatePoly, int, int]]"
    ) -> "BivariatePoly":
        """The sum of c * x**dx * y**dy * poly over the (c, poly, dx, dy) in
        ``terms``, for int c and nonnegative dx, dy: every term is added
        over the largest exponent in one pass, and the sum is normalized
        once."""
        terms = list(terms)
        exp = max((poly._exp for _, poly, _, _ in terms), default=0)
        out: dict[tuple[int, int], int] = {}
        get = out.get
        for c, poly, dx, dy in terms:
            if dx < 0 or dy < 0:
                raise ValueError(f"negative shift ({dx}, {dy})")
            c <<= exp - poly._exp
            for (a, b), num in poly._terms.items():
                key = (a + dx, b + dy)
                out[key] = get(key, 0) + c * num
        return cls._normalized(out, exp)

    def evaluate(self, x: Rational, y: Rational) -> Fraction:
        """Exact value at a rational point, as a Fraction."""
        if type(x) is int and type(y) is int and x == y == 1:
            # At the int point (1, 1): the numerator sum over 2**exp.
            return _fraction(sum(self._terms.values()), 1 << self._exp)
        (xn, xd), (yn, yd) = _ratio(x), _ratio(y)
        xpow = _power_table(xn, xd, max((dx for dx, _ in self._terms), default=0))
        ypow = _power_table(yn, yd, max((dy for _, dy in self._terms), default=0))
        total = sum(c * xpow[dx] * ypow[dy] for (dx, dy), c in self._terms.items())
        return _fraction(total, (xpow[0] * ypow[0]) << self._exp)

    @property
    def is_integral(self) -> bool:
        """True when every coefficient is an integer (exponent 0)."""
        return self._exp == 0

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        parts = []
        for (dx, dy), c in sorted(self._terms.items(), reverse=True):
            num, k = self._lowest(c)
            text = str(num) if k == 0 else f"{num}/{1 << k}"
            factors = [] if text == "1" and (dx or dy) else [text]
            if dx:
                factors.append("x" if dx == 1 else f"x^{dx}")
            if dy:
                factors.append("y" if dy == 1 else f"y^{dy}")
            parts.append("*".join(factors))
        return " + ".join(parts)

    def __repr__(self) -> str:
        return f"BivariatePoly({self!s})"
