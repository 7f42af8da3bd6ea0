"""Sequence engines: recurrences and closed forms for the involution counts
and their graph-side companions.

Each recurrence is written once, generic over the ring it runs in:

* the removal recurrence u(n) = x u(n-1) + (n-1)...(n-p+1) y u(n-p), only
  streamed, so a point read keeps nothing and costs O(n) steps: at (1, 1)
  it counts the p-th roots of the identity for a prime p (the involution
  count at p = 2), at (1, -1) the signed count, at (x, y) the involution
  polynomials; its residue stream mod m at (1, 1) for p = 2,
  ``removal_residues``, feeds the period scan mod m;
* the degree-and-collapse graph recurrence, also only streamed, gives the
  graph counts at (1, 1) and (1, -1) and the graph polynomial at (x, y);
  its counts masked to J bits feed the 2-adic engine of
  :mod:`involution_lab.twoadic`, which rests on the graph-route identity
  (``verify --check thm32`` and ``thm41``) instead of the removal recurrence.

The graph-route closed forms (the count, its odd factor and the polynomial)
share one term iterator, which steps the binomials and yields each term's odd
factor, and read the graph values of their residue class mod 4 in ascending
order: a point read slices them from a fresh stream, and the walks in n order
keep each class's values in their generator.  The int sum nests the terms in
Horner form, so a term costs one product of a binomial by a graph count and
one small multiply of the sum so far; the polynomial steps each term's
odd-product ratio, adds all its terms in one pass over their common power of
two (``BivariatePoly.combination``) and normalizes once.  Several quantities
are computed along two independent routes (a direct recurrence and a closed
form through the graph counts); the test suite pins the routes against each
other and against the enumeration oracles.
"""

from __future__ import annotations

import math
from itertools import count, islice
from typing import Callable, Iterable, Iterator

from .algebra import (
    BivariatePoly, odd_part, require_at_least, require_positive, require_prime, require_sign,
)
from .errors import ExactnessError

__all__ = [
    "removal_residues",
    "stepped",
    "removal_step",
    "graph_step",
    "involution_count",
    "involution_val2",
    "involution_count_direct",
    "transposition_counts",
    "signed_involution_count",
    "pth_root_counts",
    "pth_root_count",
    "involution_polys",
    "involution_poly",
    "graph_polys",
    "graph_poly",
    "graph_counts",
    "graph_count",
    "graph_count_signed",
    "involution_counts_via_graphs",
    "involution_count_via_graphs",
    "involution_polys_via_graphs",
    "involution_poly_via_graphs",
    "odd_factor",
    "odd_factors_closed",
    "odd_factor_closed",
    "odd_factor_step",
]


def _at(n: int, stream: Callable[..., Iterator], *args):
    """The value at n of ``stream(*args)``, a stream from 0, stepped to n; a
    negative n raises ValueError before the stream is made."""
    require_at_least(n, 0)
    return next(islice(stream(*args), n, None))


def stepped(step: Callable, window: int) -> Iterator:
    """The step's values from n = 0 on, holding only the last ``window``.  A
    step made by ``removal_step`` or ``graph_step`` carries its ``reach``,
    how far back it reads; a smaller window raises ValueError at the call."""
    reach = getattr(step, "reach", 0)
    if window < reach:
        raise ValueError(f"a window of {window} values is below the step's reach of {reach}")
    return _stepped(step, window)


def _stepped(step: Callable, window: int) -> Iterator:
    values: dict = {}
    for n in count():
        values[n] = value = step(n, values)
        values.pop(n - window, None)
        yield value


def removal_step(one, x, y, p: int = 2) -> Callable[[int, list], object]:
    """The step of u(n) = x u(n-1) + (n-1)...(n-p+1) y u(n-p), u(0) = one, in
    any ring holding one, x and y: remove the largest letter, a fixed point
    (weight x) or on a p-cycle with p - 1 of the n - 1 others (weight y).
    It reads back as far as u(n-p): its reach is p."""
    def step(n: int, values: list):
        if n < p:
            return x * values[n - 1] if n else one
        return x * values[n - 1] + math.perm(n - 1, p - 1) * y * values[n - p]

    step.reach = p
    return step


def removal_residues(m: int) -> Iterator[int]:
    """t(0) mod m, t(1) mod m, ... for the involution counts, t(n) = t(n-1)
    + (n-1) t(n-2) with t(0) = t(1) = 1, keeping only the last two
    residues.  A modulus below 1 raises ValueError at the call."""
    require_positive(m, "modulus")
    return _removal_residues(m)


def _removal_residues(m: int) -> Iterator[int]:
    # From t(-1) = 0, which the step to t(1) weighs by 0; c is n - 1 at t(n).
    prev, curr, c = 0, 1 % m, -1
    while True:
        yield curr
        c += 1
        prev, curr = curr, (curr + c * prev) % m


def involution_count(n: int) -> int:
    """Number of involutions on n letters, by the removal recurrence
    t(n) = t(n-1) + (n-1) t(n-2): ``pth_root_count(n, 2)``."""
    return pth_root_count(n, 2)


def involution_val2(n: int) -> int:
    """Exact exponent of two in the involution count:
    floor(n/2) - 2 floor(n/4) + floor((n+1)/4), i.e. k + r//2 + [r == 3].

    It holds down to n = -1, which odd_factor_step reads, and refuses a lower n.
    """
    require_at_least(n, -1)
    return n // 2 - 2 * (n // 4) + (n + 1) // 4


def transposition_counts(n: int) -> list[int]:
    """The involutions on n letters with i transpositions and j = n - 2i
    fixed points, n!/(2**i i! j!), for i = 0 .. n//2.  Each term is stepped
    from the one before it, by (j + 2)(j + 1)/(2i); a division that leaves a
    remainder raises ExactnessError."""
    require_at_least(n, 0)
    terms = [1]
    for i in range(1, n // 2 + 1):
        j = n - 2 * i
        term, rem = divmod(terms[-1] * ((j + 2) * (j + 1)), 2 * i)
        if rem:
            raise ExactnessError("cycle-type term is not an integer")
        terms.append(term)
    return terms


def involution_count_direct(n: int) -> int:
    """Same count as the explicit sum over cycle types,
    ``sum(transposition_counts(n))``."""
    return sum(transposition_counts(n))


def signed_involution_count(n: int) -> int:
    """Sum of signs over involutions (each involution contributes
    (-1)**transpositions), stepped from 0 by s(n) = s(n-1) - (n-1) s(n-2)."""
    return _at(n, stepped, removal_step(1, 1, -1), 2)


def pth_root_counts(p: int) -> Iterator[int]:
    """pth_root_count(n, p) for n = 0, 1, ..., holding only the last p.  A
    p that is not prime raises ValueError at the call, before a step is made."""
    require_prime(p)
    return stepped(removal_step(1, 1, 1, p), p)


def pth_root_count(n: int, p: int) -> int:
    """Number of permutations of n letters whose p-th power is the identity.

    Counted by removing the cycle through the largest letter: it is fixed, or
    lies on a p-cycle with p-1 of the remaining letters in any order; each
    call steps ``pth_root_counts(p)`` from 0.  A negative n raises ValueError.
    """
    return _at(n, pth_root_counts, p)


_X = BivariatePoly.monomial(1, 0)
_Y = BivariatePoly.monomial(0, 1)
_HALF_X2_PLUS_Y = BivariatePoly({(2, 0): 1, (0, 1): 1}, 1)


def involution_polys() -> Iterator[BivariatePoly]:
    """involution_poly(n) for n = 0, 1, ..., holding only the last two."""
    return stepped(removal_step(BivariatePoly.one(), _X, _Y), 2)


def involution_poly(n: int) -> BivariatePoly:
    """Generating polynomial of involutions by x**(fixed points) *
    y**(transpositions); the coefficient of x**(n-2i) y**i is
    n!/(2**i i! (n-2i)!).  Each call steps ``involution_polys()`` from 0;
    a negative n raises ValueError."""
    return _at(n, involution_polys)


def graph_step(one, x, y, half) -> Callable[[int, list], object]:
    """The step of the weight sum over the doubled-edge-free graphs, in any
    ring holding one, x, y and half = (x**2 + y)/2.  It reads back as far as
    n - 8: its reach is 8."""
    xy = x * y
    yy = y * y
    yyyy = yy * yy

    def step(n: int, values: list):
        if n < 2:
            return x if n else one
        m = n // 2
        if n % 2:
            return x * values[n - 1] + m * y * values[n - 2]
        out = half * values[n - 2]
        if m >= 2:
            out = out + (m - 1) * xy * values[n - 3]
            out = out + 2 * math.comb(m - 1, 2) * yy * values[n - 4]
            if n >= 8:
                out = out + 3 * math.comb(m - 1, 3) * yyyy * values[n - 8]
        return out

    step.reach = 8
    return step


def graph_polys() -> Iterator[BivariatePoly]:
    """graph_poly(n) for n = 0, 1, ..., holding only the last eight."""
    return stepped(graph_step(BivariatePoly.one(), _X, _Y, _HALF_X2_PLUS_Y), 8)


def graph_poly(n: int) -> BivariatePoly:
    """Weight sum over the admissible graphs without doubled edges, by the
    degree-and-collapse recurrence; zero for negative n.  Each call steps
    ``graph_polys()`` from 0."""
    return _at(n, graph_polys) if n >= 0 else BivariatePoly.zero()


def graph_counts(y: int = 1) -> Iterator[int]:
    """graph_poly(n) at (1, y) for n = 0, 1, ..., holding only the last
    eight.  A y other than 1 or -1 raises ValueError at the call."""
    require_sign(y)
    return stepped(graph_step(1, 1, y, (1 + y) // 2), 8)


def graph_count(n: int) -> int:
    """graph_poly(n) at (1, 1): the number of admissible graphs without
    doubled edges.  Each call steps ``graph_counts()`` from 0, and a negative
    n raises ValueError."""
    return _at(n, graph_counts)


def graph_count_signed(n: int) -> int:
    """graph_poly(n) at (1, -1).  Each call steps ``graph_counts(-1)`` from
    0, and a negative n raises ValueError."""
    return _at(n, graph_counts, -1)


def _graph_route_terms(n: int):
    """Terms of the graph-route sum: with n = 4k + r and f = r//2,

        S(n) = sum_i 2**i C(k, i) [oddprod(k + f) / oddprod(i + f)] g(4i + r)

    iterates (C(k, i), i, 2(i + f) - 1) for i = 0 up to k: the binomial, the
    power of two and the odd factor that every term below i picks up.  Term
    i reads the graph value at 4i + r and has k - i doubled edges.  The
    odd-product ratio of term i is the product of the factors of the terms
    above it, (2(i + f) + 1)(2(i + f) + 3)...(2(k + f) - 1), never a
    quotient of factorials, so the sum nests in Horner form in ascending i.
    The binomials are stepped up to i = k//2, C(k, i + 1) = C(k, i) (k - i)
    / (i + 1), a remainder raising ExactnessError, and mirrored above it.  A
    negative n raises ValueError at the call.
    """
    require_at_least(n, 0)
    k, r = divmod(n, 4)
    fl = r // 2
    binomials = [1]
    for i in range(k // 2):
        binom, rem = divmod(binomials[i] * (k - i), i + 1)
        if rem:
            raise ExactnessError(f"binomial C({k}, {i + 1}) is not an integer")
        binomials.append(binom)
    binomials.extend(reversed(binomials[:k - k // 2]))  # C(k, i) = C(k, k - i)
    return zip(binomials, range(k + 1), range(2 * fl - 1, 2 * (k + fl), 2))


def _by_class(value: Callable, graphs: Iterator) -> Iterator:
    """value(n, [g(r), g(r + 4), ..., g(n)]) for n = 0, 1, ..., r = n % 4,
    from a stream of g(0), g(1), ...: each residue class's values are kept
    in this generator, and go with it."""
    classes: tuple[list, ...] = ([], [], [], [])
    for n, g in enumerate(graphs):
        classes[n % 4].append(g)
        yield value(n, classes[n % 4])


def _count_via_graphs(n: int, graphs: Iterable[int]) -> int:
    # Horner in ascending i: each term is C(k, i) g(4i + r), shifted by i,
    # and the sum so far takes the term's odd factor before it is added.
    # The terms come first in the zip, so no graph value past g(n) is read.
    acc = 0
    for (binom, i, factor), g in zip(_graph_route_terms(n), graphs):
        acc = acc * factor + ((binom * g) << i)
    return acc << (n // 4 + n % 4 // 2)


def involution_count_via_graphs(n: int) -> int:
    """Involution count reassembled from the doubled-edge-free graph counts:
    t(n) = 2**(k + r//2) S(n) with n = 4k + r and S the graph-route sum.
    Each call steps ``graph_counts()`` from 0 to n, O(n) steps."""
    return _count_via_graphs(n, islice(graph_counts(), n % 4, None, 4))


def involution_counts_via_graphs() -> Iterator[int]:
    """involution_count_via_graphs(n) for n = 0, 1, ..., from one graph stream."""
    return _by_class(_count_via_graphs, graph_counts())


def _poly_via_graphs(n: int, graphs: Iterable[BivariatePoly]) -> BivariatePoly:
    k, r = divmod(n, 4)
    terms, ratio = [], 1
    for (binom, i, factor), poly in reversed(list(zip(_graph_route_terms(n), graphs))):
        terms.append(((binom * ratio) << (i + k + r // 2), poly, 0, 2 * (k - i)))
        ratio *= factor
    return BivariatePoly.combination(terms)


def involution_poly_via_graphs(n: int) -> BivariatePoly:
    """Polynomial analogue of involution_count_via_graphs: each graph term
    picks up y**(2k-2i) for its doubled edges.  The terms are read from
    i = k down, each coefficient times its odd-product ratio, stepped by one
    factor a term, with the power of two folded in, and summed in one pass.
    Each call steps ``graph_polys()`` from 0 to n."""
    return _poly_via_graphs(n, islice(graph_polys(), n % 4, None, 4))


def involution_polys_via_graphs() -> Iterator[BivariatePoly]:
    """involution_poly_via_graphs(n) for n = 0, 1, ..., from one graph stream."""
    return _by_class(_poly_via_graphs, graph_polys())


def odd_factor(n: int) -> int:
    """The involution count with its maximal power of two removed."""
    return odd_part(involution_count(n))


def _odd_factor_via_graphs(n: int, graphs: Iterable[int]) -> int:
    beta, rem = divmod(_count_via_graphs(n, graphs), 1 << involution_val2(n))
    if rem:
        raise ExactnessError(f"graph-route sum for beta({n}) is odd")
    return beta


def odd_factor_closed(n: int) -> int:
    """Odd factor by the graph-count formula: beta(n) = S(n) / 2**[r == 3]
    with n = 4k + r and S the graph-route sum.  For r = 3 the sum must be
    even; an odd sum raises ExactnessError.  Each call steps
    ``graph_counts()`` from 0 to n."""
    return _odd_factor_via_graphs(n, islice(graph_counts(), n % 4, None, 4))


def odd_factors_closed() -> Iterator[int]:
    """odd_factor_closed(n) for n = 0, 1, ..., from one graph stream."""
    return _by_class(_odd_factor_via_graphs, graph_counts())


def odd_factor_step(n: int, prev, curr):
    """Next odd factor from the two before it, in any ring holding them
    (ints, or exact Decimals): for n = 4k + r,

        beta(n+1) = 2**(h(r)-h(r+1)) beta(n) + 2**(h(r-1)-h(r+1)) n beta(n-1)

    with h = involution_val2.  Over the common denominator 2**e the sum must
    be an integer; a remainder raises ExactnessError (the inputs were not
    genuine consecutive odd factors).
    """
    require_at_least(n, 1)
    r = n % 4
    e1 = involution_val2(r) - involution_val2(r + 1)
    e2 = involution_val2(r - 1) - involution_val2(r + 1)
    e = max(-e1, -e2, 0)
    beta, rem = divmod(curr * (1 << (e + e1)) + n * prev * (1 << (e + e2)), 1 << e)
    if rem:
        raise ExactnessError(f"inputs {prev}, {curr} are not consecutive odd factors at n={n}")
    return beta
