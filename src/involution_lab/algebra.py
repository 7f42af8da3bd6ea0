"""Exact arithmetic kernel: p-adic valuations, dyadic rationals, and sparse
bivariate polynomials.

Plain Python integers carry all arbitrary-precision work (they are exact,
round-trip through decimal strings, and compare correctly, which is the whole
contract).  ``Dyadic`` keeps denominators as explicit powers of two, and
``BivariatePoly`` stores only nonzero coefficients so that equality of
polynomials is structural equality.  Every value here is immutable and every
operation is a pure function, so results are safe to share across threads.
"""

from __future__ import annotations

import math
from typing import Iterable, Iterator, Union

from .errors import ExactnessError

__all__ = [
    "INFINITY",
    "Valuation",
    "is_prime",
    "val_p",
    "val2",
    "odd_part",
    "odd_product",
    "odd_product_ratio",
    "arithmetic_product",
    "binomial",
    "Dyadic",
    "BivariatePoly",
]


class _Infinity:
    """Sentinel for the valuation of zero: larger than every integer, and
    absorbing under addition so degenerate inputs flow through closed forms
    without special-casing."""

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

    def __le__(self, other: object) -> bool:
        if isinstance(other, (int, _Infinity)):
            return other is self
        return NotImplemented

    def __gt__(self, other: object) -> bool:
        if isinstance(other, (int, _Infinity)):
            return other is not self
        return NotImplemented

    def __ge__(self, other: object) -> bool:
        if isinstance(other, (int, _Infinity)):
            return True
        return NotImplemented


INFINITY = _Infinity()

#: A p-adic valuation: a nonnegative ``int``, or ``INFINITY`` for zero.
Valuation = Union[int, _Infinity]


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


def _require_prime(p: int) -> None:
    if not is_prime(p):
        raise ValueError(f"p must be prime, got {p}")


def val_p(x: int, p: int) -> Valuation:
    """Largest k with p**k dividing x; INFINITY when x == 0."""
    _require_prime(p)
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


def odd_product(n: int) -> int:
    """Product of the first n odd integers, 1*3*5*...*(2n-1); 1 for n = 0."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    return math.prod(range(1, 2 * n, 2))


def odd_product_ratio(lo: int, hi: int) -> int:
    """odd_product(hi) // odd_product(lo), computed as the explicit product
    (2*lo+1)(2*lo+3)...(2*hi-1) to avoid the giant intermediate factorials."""
    if not 0 <= lo <= hi:
        raise ValueError(f"need 0 <= lo <= hi, got {lo}, {hi}")
    return math.prod(range(2 * lo + 1, 2 * hi, 2))


def arithmetic_product(a: int, b: int, n: int) -> int:
    """The product a(a+b)(a+2b)...(a+(n-1)b); empty product 1 for n = 0."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    return math.prod(a + i * b for i in range(n))


def binomial(n: int, k: int) -> int:
    """C(n, k) with the counting convention C(n, k) = 0 for k > n."""
    return math.comb(n, k)


class Dyadic:
    """An exact rational with a power-of-two denominator, num / 2**exp.

    Canonical form: exp == 0, or num is odd.  A negative ``exp`` passed to
    the constructor means multiplication by 2**(-exp) and is folded into the
    numerator.  Arithmetic never rounds; division raises ExactnessError when
    the quotient is not itself dyadic.
    """

    __slots__ = ("num", "exp")

    def __init__(self, num: int, exp: int = 0):
        if num == 0:
            exp = 0
        elif exp < 0:
            num <<= -exp
            exp = 0
        else:
            shift = min(exp, val2(num))
            if shift:
                num >>= shift
                exp -= shift
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "exp", exp)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Dyadic values are immutable")

    @staticmethod
    def _coerce(value: "Dyadic | int") -> "Dyadic":
        if isinstance(value, Dyadic):
            return value
        if isinstance(value, int):
            return Dyadic(value)
        raise TypeError(f"cannot interpret {value!r} as a dyadic rational")

    def __add__(self, other: "Dyadic | int") -> "Dyadic":
        o = self._coerce(other)
        e = max(self.exp, o.exp)
        return Dyadic((self.num << (e - self.exp)) + (o.num << (e - o.exp)), e)

    __radd__ = __add__

    def __neg__(self) -> "Dyadic":
        return Dyadic(-self.num, self.exp)

    def __sub__(self, other: "Dyadic | int") -> "Dyadic":
        return self + (-self._coerce(other))

    def __rsub__(self, other: "Dyadic | int") -> "Dyadic":
        return self._coerce(other) + (-self)

    def __mul__(self, other: "Dyadic | int") -> "Dyadic":
        o = self._coerce(other)
        return Dyadic(self.num * o.num, self.exp + o.exp)

    __rmul__ = __mul__

    def __truediv__(self, other: "Dyadic | int") -> "Dyadic":
        o = self._coerce(other)
        if o.num == 0:
            raise ZeroDivisionError("dyadic division by zero")
        a = self.num << o.exp
        b_odd = odd_part(o.num) if o.num else 0
        twos = val2(o.num)
        if a % b_odd:
            raise ExactnessError(f"{self} / {o} is not a dyadic rational")
        return Dyadic(a // b_odd, self.exp + twos)

    def mul_pow2(self, k: int) -> "Dyadic":
        """Exact multiplication by 2**k (k may be negative)."""
        return Dyadic(self.num, self.exp - k)

    def as_int(self) -> int:
        if self.exp:
            raise ExactnessError(f"{self} is not an integer")
        return self.num

    def _cross(self, other: "Dyadic") -> tuple[int, int]:
        e = max(self.exp, other.exp)
        return self.num << (e - self.exp), other.num << (e - other.exp)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, int):
            other = Dyadic(other)
        if not isinstance(other, Dyadic):
            return NotImplemented
        return self.num == other.num and self.exp == other.exp

    def __hash__(self) -> int:
        # Equal to the int's hash on integers, since Dyadic(n) == n.
        return hash(self.num) if self.exp == 0 else hash((self.num, self.exp))

    def __lt__(self, other: "Dyadic | int") -> bool:
        a, b = self._cross(self._coerce(other))
        return a < b

    def __le__(self, other: "Dyadic | int") -> bool:
        a, b = self._cross(self._coerce(other))
        return a <= b

    def __gt__(self, other: "Dyadic | int") -> bool:
        a, b = self._cross(self._coerce(other))
        return a > b

    def __ge__(self, other: "Dyadic | int") -> bool:
        a, b = self._cross(self._coerce(other))
        return a >= b

    def __bool__(self) -> bool:
        return self.num != 0

    def __repr__(self) -> str:
        if self.exp == 0:
            return f"Dyadic({self.num})"
        return f"Dyadic({self.num}, {self.exp})"

    def __str__(self) -> str:
        if self.exp == 0:
            return str(self.num)
        return f"{self.num}/{1 << self.exp}"


DyadicLike = Union[Dyadic, int]


class BivariatePoly:
    """Sparse polynomial in x and y with dyadic coefficients.

    Terms map (deg_x, deg_y) to a nonzero Dyadic, so two polynomials are
    equal exactly when their term dictionaries are equal.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: "dict[tuple[int, int], DyadicLike] | Iterable[tuple[tuple[int, int], DyadicLike]] | None" = None):
        clean: dict[tuple[int, int], Dyadic] = {}
        if terms:
            items = terms.items() if isinstance(terms, dict) else terms
            for (dx, dy), coeff in items:
                if dx < 0 or dy < 0:
                    raise ValueError(f"negative degree in monomial ({dx}, {dy})")
                c = Dyadic._coerce(coeff)
                if c:
                    prev = clean.get((dx, dy))
                    c = c if prev is None else prev + c
                    if c:
                        clean[(dx, dy)] = c
                    else:
                        clean.pop((dx, dy), None)
        object.__setattr__(self, "_terms", clean)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("BivariatePoly values are immutable")

    @classmethod
    def zero(cls) -> "BivariatePoly":
        return cls()

    @classmethod
    def one(cls) -> "BivariatePoly":
        return cls({(0, 0): 1})

    @classmethod
    def constant(cls, c: DyadicLike) -> "BivariatePoly":
        return cls({(0, 0): c})

    @classmethod
    def monomial(cls, dx: int, dy: int, coeff: DyadicLike = 1) -> "BivariatePoly":
        return cls({(dx, dy): coeff})

    def coefficient(self, dx: int, dy: int) -> Dyadic:
        return self._terms.get((dx, dy), Dyadic(0))

    def items(self) -> Iterator[tuple[tuple[int, int], Dyadic]]:
        return iter(sorted(self._terms.items()))

    def __len__(self) -> int:
        return len(self._terms)

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Dyadic)):
            other = BivariatePoly.constant(other)
        if not isinstance(other, BivariatePoly):
            return NotImplemented
        return self._terms == other._terms

    def __add__(self, other: "BivariatePoly | DyadicLike") -> "BivariatePoly":
        if isinstance(other, (int, Dyadic)):
            other = BivariatePoly.constant(other)
        out = dict(self._terms)
        for key, coeff in other._terms.items():
            acc = out.get(key)
            acc = coeff if acc is None else acc + coeff
            if acc:
                out[key] = acc
            else:
                del out[key]
        return BivariatePoly(out)

    __radd__ = __add__

    def __neg__(self) -> "BivariatePoly":
        return BivariatePoly({k: -c for k, c in self._terms.items()})

    def __sub__(self, other: "BivariatePoly | DyadicLike") -> "BivariatePoly":
        if isinstance(other, (int, Dyadic)):
            other = BivariatePoly.constant(other)
        return self + (-other)

    def __mul__(self, other: "BivariatePoly | DyadicLike") -> "BivariatePoly":
        if isinstance(other, (int, Dyadic)):
            c = Dyadic._coerce(other)
            if not c:
                return BivariatePoly.zero()
            return BivariatePoly({k: v * c for k, v in self._terms.items()})
        out: dict[tuple[int, int], Dyadic] = {}
        for (ax, ay), ac in self._terms.items():
            for (bx, by), bc in other._terms.items():
                key = (ax + bx, ay + by)
                acc = out.get(key)
                prod = ac * bc
                acc = prod if acc is None else acc + prod
                if acc:
                    out[key] = acc
                else:
                    del out[key]
        return BivariatePoly(out)

    __rmul__ = __mul__

    def shift(self, dx: int, dy: int) -> "BivariatePoly":
        """Multiply by the monomial x**dx * y**dy."""
        return BivariatePoly({(a + dx, b + dy): c for (a, b), c in self._terms.items()})

    def evaluate(self, x: DyadicLike, y: DyadicLike) -> Dyadic:
        """Exact evaluation; powers of the points are cached per call."""
        xv, yv = Dyadic._coerce(x), Dyadic._coerce(y)
        xpow: dict[int, Dyadic] = {0: Dyadic(1)}
        ypow: dict[int, Dyadic] = {0: Dyadic(1)}

        def power(table: dict[int, Dyadic], base: Dyadic, e: int) -> Dyadic:
            while e not in table:
                m = max(table)
                table[m + 1] = table[m] * base
            return table[e]

        total = Dyadic(0)
        for (dx, dy), coeff in self._terms.items():
            total = total + coeff * power(xpow, xv, dx) * power(ypow, yv, dy)
        return total

    @property
    def is_integral(self) -> bool:
        """True when every coefficient is an integer (exponent 0)."""
        return all(c.exp == 0 for c in self._terms.values())

    def to_json_terms(self) -> list[list]:
        """Wire form: [deg_x, deg_y, numerator-string, exponent] quadruples,
        sorted lexicographically by degrees."""
        return [[dx, dy, str(c.num), c.exp] for (dx, dy), c in sorted(self._terms.items())]

    @classmethod
    def from_json_terms(cls, data: Iterable[Iterable]) -> "BivariatePoly":
        return cls({(int(dx), int(dy)): Dyadic(int(num), int(exp)) for dx, dy, num, exp in data})

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        parts = []
        for (dx, dy), c in sorted(self._terms.items(), reverse=True):
            factors = [] if c == 1 and (dx or dy) else [str(c)]
            if dx:
                factors.append("x" if dx == 1 else f"x^{dx}")
            if dy:
                factors.append("y" if dy == 1 else f"y^{dy}")
            parts.append("*".join(factors))
        return " + ".join(parts)

    def __repr__(self) -> str:
        return f"BivariatePoly({self!s})"
