"""Bounded-memory 2-adic engine: the involution counts and the signed sums
stepped modulo a power of two.

The odd factors modulo 2**s, and the exponents of two in the count t(n), the
signed sum s(n) and the even and odd counts (t(n) +- s(n)) / 2, only depend
on low bits of t(n) and s(n).  This module runs their removal recurrences
modulo 2**K and keeps only the last two residues, so memory stays O(K) bits
per step instead of the O(n**2 log n) bits of the exact caches in
:mod:`involution_lab.sequences`; those caches remain the oracle the tests
compare against.

Two scans read the residues:

* ``odd_factor_residues`` reads beta(n) mod 2**s from t(n) mod 2**K, with K
  sized by the proven exponent of t(n), into an array of machine words;
* ``valuation_columns`` (the four columns of the valuation table) and
  ``even_count_val2_upto`` (the even count at n = 4k + 1, for the digit fit)
  read exponents of two through one pass, ``_columns_pass``, run by one
  doubling driver, ``_certified_columns``.  Each reads only the columns and
  the indices it reports.

Nothing is guessed.  A nonzero residue r of x modulo 2**K gives the exact
valuation v = val2(x) = val2(r) < K, and the odd part of x modulo
2**(K - v).  Whatever a residue does not certify raises, or asks for more
precision.
"""

from __future__ import annotations

from array import array
from itertools import islice
from typing import Iterator

from .algebra import INFINITY, Valuation, val2
from .errors import ExactnessError, InconclusiveError, ResourceLimitError
from .sequences import involution_val2

__all__ = [
    "STEP_CAP",
    "BIT_STEP_CAP",
    "odd_factor_residues",
    "valuation_columns",
    "even_count_val2_upto",
]

# Most steps a scan may plan: every scan here refuses a longer window, and
# it is the ceiling of the default state cap of the period scan mod m.
STEP_CAP = 10**7

# Most bit-steps (steps times the bits of each residue) one pass may plan.
# A step on K-bit residues costs time in proportion to K, so STEP_CAP alone
# does not bound a scan's time.  `rho --k-max 100000` plans 4.0 * 10**10 and
# `period --beta-mod-2s 16` 3.9 * 10**10, and each runs in under 20 s on a
# 2-vCPU host; the cap refuses passes a few times longer, such as
# `period --beta-mod-2s 17`.
BIT_STEP_CAP = 10**11

# First precision of the exponent columns, in bits above k_max.  The
# exponents observed up to n = 4k + 3 exceed k by about log2(k), so one pass
# is the rule; a shortfall costs a restart at twice the precision, never a
# wrong answer.
_START_MARGIN = 64

# How each exponent column reads the stepped pair (t(n), s(n)) mod 2**K:
# the residue of the number it takes the exponent of, whether the column is
# half that number, and the number's name for errors.
_COLUMNS = {
    "t": (lambda t, s: t, 0, "count"),
    "t_signed": (lambda t, s: s, 0, "signed sum"),
    "t_even": (lambda t, s: t + s, 1, "count + signed sum"),
    "t_odd": (lambda t, s: t - s, 1, "count - signed sum"),
}


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


def _residue_array(m: int) -> array:
    """An empty array of the narrowest machine word that holds 0..m-1."""
    for typecode in "BHIQ":
        if m <= 1 << (8 * array(typecode).itemsize):
            return array(typecode)
    raise ResourceLimitError(f"residues mod {m} do not fit in a machine word")


def _refuse_window(count: int, what: str) -> None:
    if count > STEP_CAP:
        raise ResourceLimitError(
            f"{count} {what} asked for, more than the cap of {STEP_CAP} steps"
        )


def _refuse_bits(count: int, bits: int, what: str) -> None:
    if count * bits > BIT_STEP_CAP:
        raise ResourceLimitError(
            f"{count} {what} on {bits}-bit residues asked for, more than the "
            f"cap of {BIT_STEP_CAP} bit-steps"
        )


def odd_factor_residues(s: int, count: int) -> array:
    """beta(n) mod 2**s for 0 <= n < count, from t(n) mod 2**K, in an array
    of the narrowest machine word that holds them.

    Precision rule: with h(n) = involution_val2(n), beta(n) mod 2**s is
    fixed by t(n) mod 2**(s + h(n)), so K = s + max h(n) + 2 over the window.
    Certification rule: h only sizes K.  At each n the valuation v of the
    residue is read, not assumed; the residue shifted right by v is beta(n)
    mod 2**(K - v).  A zero residue, or v + s > K, raises InconclusiveError.
    A count above STEP_CAP, or more than BIT_STEP_CAP bit-steps, raises
    ResourceLimitError before any stepping.
    """
    if s < 1:
        raise ValueError("s must be positive")
    _refuse_window(count, "odd factors")
    out = _residue_array(1 << s)
    if count <= 0:
        return out
    # h(n + 4) = h(n) + 1, so the window's maximum is among its last four.
    bits = s + max(involution_val2(n) for n in range(max(count - 4, 0), count)) + 2
    _refuse_bits(count, bits, "odd factors")
    mask = (1 << s) - 1
    for n, residue in enumerate(islice(_recurrence_mod(bits, 1), count)):
        v = val2(residue)
        if v is INFINITY or v + s > bits:
            raise InconclusiveError(
                f"t({n}) mod 2**{bits} does not determine beta({n}) mod 2**{s}"
            )
        out.append((residue >> v) & mask)
    return out


def _read_val2(residue: int, bits: int, n: int, halved: int, name: str) -> Valuation | None:
    """Exponent of two in x / 2**halved, from residue = x mod 2**bits, where
    0 <= |x| <= 2 n! (x is t(n), s(n) or t(n) +- s(n)).

    A nonzero residue gives the exact exponent.  A zero is a true zero, and
    reads INFINITY, once bits >= n * n.bit_length() + 2 exceeds log2(2 n!)
    and makes the residue exact; before that it reads None, asking for more
    precision.  An odd residue of a halved number breaks its evenness and
    raises ExactnessError.
    """
    if residue & halved:
        raise ExactnessError(f"{name} is odd at n={n}")
    if residue:
        return val2(residue) - halved
    if bits >= n * n.bit_length() + 2:
        return INFINITY
    return None


def _columns_pass(
    bits: int, kinds: tuple[str, ...], indices: slice
) -> list[list[Valuation]] | None:
    """One pass at precision 2**bits: for each kind, its exponent column at
    the n in ``indices``; None as soon as a cell asks for more precision."""
    mask = (1 << bits) - 1
    readers = [_COLUMNS[kind] for kind in kinds]
    columns: list[list[Valuation]] = [[] for _ in kinds]
    steps = enumerate(zip(_recurrence_mod(bits, 1), _recurrence_mod(bits, -1)))
    for n, (t, signed) in islice(steps, indices.start, indices.stop, indices.step):
        for column, (residue_of, halved, name) in zip(columns, readers):
            v = _read_val2(residue_of(t, signed) & mask, bits, n, halved, name)
            if v is None:
                return None
            column.append(v)
    return columns


def _certified_columns(
    k_max: int, kinds: tuple[str, ...], indices: slice
) -> list[list[Valuation]]:
    """The doubling driver: run passes from K = k_max + _START_MARGIN,
    doubling K until every cell is certified.  A window of more than
    STEP_CAP steps raises ResourceLimitError before any stepping, and a pass
    of more than BIT_STEP_CAP bit-steps before that pass."""
    _refuse_window(indices.stop, "recurrence steps")
    bits = k_max + _START_MARGIN
    while True:
        _refuse_bits(indices.stop, bits, "recurrence steps")
        if (columns := _columns_pass(bits, kinds, indices)) is not None:
            return columns
        bits *= 2


def valuation_columns(k_max: int) -> dict[str, list[Valuation]]:
    """Exponent of two in the count, the signed sum, and the even and odd
    counts, at every n < 4 * k_max + 4, keyed by "t", "t_signed", "t_even"
    and "t_odd" and indexed by n.

    t and s are stepped together modulo 2**K; see ``_read_val2`` for what a
    residue certifies.  The zeros are the odd count at n = 0 and 1 and the
    signed sum at n = 2.
    """
    if k_max < 0:
        raise ValueError("k_max must be nonnegative")
    kinds = tuple(_COLUMNS)
    columns = _certified_columns(k_max, kinds, slice(0, 4 * k_max + 4, 1))
    return dict(zip(kinds, columns))


def even_count_val2_upto(k_max: int) -> list[Valuation]:
    """Exponent of two in the even-involution count (t + s)(n) / 2 at every
    n = 4k + 1 with 0 <= k <= k_max, indexed by k.

    Only this column, and only at these n, is read from t and s stepped
    together modulo 2**K; see ``_read_val2`` for what a residue certifies.
    """
    if k_max < 0:
        raise ValueError("k_max must be nonnegative")
    (column,) = _certified_columns(k_max, ("t_even",), slice(1, 4 * k_max + 2, 4))
    return column
