"""Bounded-memory 2-adic engine: the involution counts and the signed sums
stepped modulo a power of two.

The odd factors modulo 2**s, and the exponents of two in the count t(n), the
signed sum s(n) and the even and odd counts (t(n) +- s(n)) / 2, only depend
on low bits of t(n) and s(n).  This module reads them from the removal
recurrence's residue stream modulo 2**K,
:func:`involution_lab.sequences.removal_residues` (at y = 1 for t, y = -1
for s), which keeps only the last two residues, so memory stays O(K) bits
per step instead of the O(n**2 log n) bits of the exact caches in
:mod:`involution_lab.sequences`; those caches remain the oracle the tests
compare against.

Two scans read the residues:

* ``odd_factor_residues`` reads beta(n) mod 2**s from t(n) mod 2**K, with K
  sized by the proven exponent of t(n), into an array of machine words;
* ``certified_columns`` reads exponents of two, for the column kinds and the
  index range its caller asks for, through one pass, ``_columns_pass``,
  restarted at twice the precision until every cell is certified.  It is
  the one exponent reader behind ``table``, ``rho`` and the ``verify``
  parity checks.

Nothing is guessed.  A nonzero residue r of x modulo 2**K gives the exact
valuation v = val2(x) = val2(r) < K, and the odd part of x modulo
2**(K - v).  Whatever a residue does not certify raises, or asks for more
precision.
"""

from __future__ import annotations

from array import array
from itertools import islice, repeat

from .algebra import INFINITY, Valuation, val2
from .errors import ExactnessError, InconclusiveError, ResourceLimitError
from .sequences import involution_val2, removal_residues

__all__ = [
    "COLUMNS",
    "column_number",
    "STEP_CAP",
    "BIT_STEP_CAP",
    "odd_factor_residues",
    "certified_columns",
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

# First precision of the exponent columns, in bits above k, where 4k + r is
# the last index read.  The exponents observed up to n = 4k + 3 exceed k by
# about log2(k), so one pass is the rule; a shortfall costs a restart at
# twice the precision, never a wrong answer.
_START_MARGIN = 64

# The four exponent columns, each described once: the number it takes the
# exponent of, built from the pair (t(n), s(n)) (exact integers, or residues
# mod 2**K); 1 when the column is half that number, else 0; and the number's
# name for errors.  The residue passes here and the exact oracle in
# :mod:`involution_lab.valuations` both read this table.
COLUMNS = {
    "t": (lambda t, s: t, 0, "count"),
    "t_signed": (lambda t, s: s, 0, "signed sum"),
    "t_even": (lambda t, s: t + s, 1, "count + signed sum"),
    "t_odd": (lambda t, s: t - s, 1, "count - signed sum"),
}


def _rule(kind: str) -> tuple:
    try:
        return COLUMNS[kind]
    except KeyError:
        raise ValueError(f"unknown kind {kind!r}") from None


def column_number(kind: str, n: int, t, s):
    """The number of column ``kind`` at n, exactly, from t(n) and s(n) in any
    ring (ints, or exact Decimals): its COLUMNS rule, halved where the rule
    says so.  An odd number where it must be halved raises ExactnessError."""
    number_of, halved, name = _rule(kind)
    number, odd = divmod(number_of(t, s), 1 << halved)
    if odd:
        raise ExactnessError(f"{name} is odd at n={n}")
    return number


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
    for n, residue in enumerate(islice(removal_residues(1 << bits), count)):
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
    bits: int, readers: list[tuple], indices: range
) -> list[list[Valuation]] | None:
    """One pass at precision 2**bits: each COLUMNS rule's exponent column at
    the n in ``indices``; None as soon as a cell asks for more precision."""
    mask = (1 << bits) - 1
    columns: list[list[Valuation]] = [[] for _ in readers]
    # A stream that no rule weighs (by its value at t = 1 or at s = 1) is not stepped.
    streams = (removal_residues(mask + 1, y) if any(rule(*unit) for rule, _, _ in readers)
               else repeat(0) for y, unit in ((1, (1, 0)), (-1, (0, 1))))
    steps = enumerate(zip(*streams))
    for n, (t, signed) in islice(steps, indices.start, indices.stop, indices.step):
        for column, (residue_of, halved, name) in zip(columns, readers):
            v = _read_val2(residue_of(t, signed) & mask, bits, n, halved, name)
            if v is None:
                return None
            column.append(v)
    return columns


def certified_columns(kinds: tuple[str, ...], indices: range) -> list[list[Valuation]]:
    """Exponent of two in each column of ``kinds`` (keys of COLUMNS) at every
    n in ``indices``, one list per kind, in the order given.

    t and s, each only if a kind reads it, are stepped modulo 2**K from K =
    k + _START_MARGIN, 4k + r the last index, doubling K until all certify;
    see ``_read_val2`` for what a residue certifies.  The zeros are the odd
    count at n = 0 and 1 and the signed sum at n = 2.  An unknown kind raises
    ValueError, and a window over STEP_CAP steps ResourceLimitError, before any
    stepping; a pass over BIT_STEP_CAP bit-steps raises it before that pass.
    """
    if min(indices.start, indices.stop) < 0 or indices.step < 1:
        raise ValueError("indices must be an increasing range of nonnegative n")
    readers = [_rule(kind) for kind in kinds]
    _refuse_window(indices.stop, "recurrence steps")
    bits = (indices.stop - 1) // 4 + _START_MARGIN
    while True:
        _refuse_bits(indices.stop, bits, "recurrence steps")
        if (columns := _columns_pass(bits, readers, indices)) is not None:
            return columns
        bits *= 2
