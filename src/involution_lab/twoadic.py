"""Bounded-memory 2-adic engine: the involution counts and the signed sums
stepped modulo a power of two.

The odd factors modulo 2**s and the exponents of two in the even count only
depend on low bits of t(n) and of the signed sum s(n).  This module runs
their removal recurrences modulo 2**K and keeps only the last two residues,
so memory stays O(K) bits instead of the O(n**2 log n) bits of the exact
caches in :mod:`involution_lab.sequences`; those caches remain the oracle the
tests compare against.

Nothing is guessed.  A nonzero residue r of x modulo 2**K gives the exact
valuation v = val2(x) = val2(r) < K, and the odd part of x modulo
2**(K - v).  Whatever a residue does not certify raises instead.
"""

from __future__ import annotations

from itertools import islice
from typing import Iterator

from .algebra import INFINITY, Valuation, val2
from .errors import ExactnessError, InconclusiveError, ResourceLimitError
from .sequences import involution_val2

__all__ = ["STEP_CAP", "odd_factor_residues", "even_count_val2_upto"]

# Most steps a scan may plan: odd_factor_residues refuses a longer window,
# and it is the ceiling of the default state cap of the period scan mod m.
STEP_CAP = 10**7

# First precision of even_count_val2_upto, in bits above k_max.  The
# exponents observed at n = 4k + 1 exceed k by about log2(k), so one pass is
# the rule; a shortfall costs a restart at twice the precision, never a
# wrong answer.
_START_MARGIN = 64


def _recurrence_mod(bits: int, sign: int) -> Iterator[int]:
    """u(0), u(1), ... modulo 2**bits, for u(n) = u(n-1) + sign (n-1) u(n-2)
    with u(0) = u(1) = 1: the involution counts for sign = 1, the signed
    sums for sign = -1.  No division anywhere."""
    mask = (1 << bits) - 1
    prev = curr = 1
    yield prev
    n = 1
    while True:
        yield curr
        prev, curr = curr, (curr + sign * n * prev) & mask
        n += 1


def odd_factor_residues(s: int, count: int) -> list[int]:
    """beta(n) mod 2**s for 0 <= n < count, from t(n) mod 2**K.

    Precision rule: with h(n) = involution_val2(n), beta(n) mod 2**s is
    fixed by t(n) mod 2**(s + h(n)), so K = s + max h(n) + 2 over the window.
    Certification rule: h only sizes K.  At each n the valuation v of the
    residue is read, not assumed; the residue shifted right by v is beta(n)
    mod 2**(K - v).  A zero residue, or v + s > K, raises InconclusiveError.
    A count above STEP_CAP raises ResourceLimitError before any stepping.
    """
    if s < 1:
        raise ValueError("s must be positive")
    if count > STEP_CAP:
        raise ResourceLimitError(
            f"{count} odd factors asked for, more than the cap of {STEP_CAP} steps"
        )
    if count <= 0:
        return []
    # h(n + 4) = h(n) + 1, so the window's maximum is among its last four.
    bits = s + max(involution_val2(n) for n in range(max(count - 4, 0), count)) + 2
    mask = (1 << s) - 1
    out = []
    for n, residue in enumerate(islice(_recurrence_mod(bits, 1), count)):
        v = val2(residue)
        if v is INFINITY or v + s > bits:
            raise InconclusiveError(
                f"t({n}) mod 2**{bits} does not determine beta({n}) mod 2**{s}"
            )
        out.append((residue >> v) & mask)
    return out


def _even_count_val2_pass(bits: int, k_max: int) -> list[Valuation] | None:
    """One pass of even_count_val2_upto at precision 2**bits; None when a
    zero residue asks for more precision."""
    mask = (1 << bits) - 1
    steps = zip(_recurrence_mod(bits, 1), _recurrence_mod(bits, -1))
    out: list[Valuation] = []
    for n, (t, signed) in enumerate(islice(steps, 4 * k_max + 2)):
        if n % 4 != 1:
            continue
        residue = (t + signed) & mask
        if residue & 1:
            raise ExactnessError(f"count + signed sum is odd at n={n}")
        if residue:
            out.append(val2(residue) - 1)
        elif bits >= n * n.bit_length() + 2:
            # 0 <= t + s <= 2 n! < 2**(bits - 1): the residue is exact.
            out.append(INFINITY)
        else:
            return None
    return out


def even_count_val2_upto(k_max: int) -> list[Valuation]:
    """Exponent of two in the even-involution count (t + s)(n) / 2 at every
    n = 4k + 1 with 0 <= k <= k_max, indexed by k.

    t and s are stepped together modulo 2**K from K = k_max + a margin.  A
    nonzero residue of t + s gives its exact valuation; an odd one breaks
    the evenness of t + s and raises ExactnessError.  A zero residue doubles
    K and restarts, until K >= n * n.bit_length() + 2 exceeds log2(2 n!)
    and makes the residue exact: a zero is then a true zero and reads
    INFINITY.
    """
    if k_max < 0:
        raise ValueError("k_max must be nonnegative")
    bits = k_max + _START_MARGIN
    while (out := _even_count_val2_pass(bits, k_max)) is None:
        bits *= 2
    return out
