"""Fixed-width 2-adic engine: exponents of two and odd factors from the
graph-route series modulo 2**J.

Write n = 4k + r with 0 <= r < 4, f = r // 2 and D(m) = (2m - 1)!!, which is
odd.  The graph route of the paper (Theorems 3.2 and 4.1, checked by
``verify --check thm32`` and ``thm41``) gives

    t(n) = 2**(k + f) D(k + f) F_r(k),
    F_r(k) = sum_i C(k, i) a_i,   a_i = 2**i g(4i + r) / D(i + f),

and the signed sum s(n) the same way with g(1, -1) in place of g = g(1, 1).
This engine rests on that identity, not on the removal recurrence; the
exact counts of :func:`involution_lab.valuations.valuation_report` remain the
tests' oracle.

F_r is a Mahler series in k whose coefficient a_i is a multiple of 2**i, so
F_r(k) mod 2**J needs only the a_i with i < J, that is g(m) mod 2**J for
m < 4J + 4, read from ``sequences.graph_counts`` and masked to J bits.
The coefficients are the forward differences of F_r at k = 0.  Their table
sits in one int, one lane of J + 1 bits per difference, and one step of
every lane, F_r(k) to F_r(k + 1), is ``(table + (table >> (J + 1))) & lanes``.
So a scan to n costs O(n) steps on J**2-bit ints, whatever n is.

Two scans read the series:

* ``odd_factor_residues`` reads beta(n) mod 2**s = D(k + f) F_r(k) / 2**[r == 3]
  from F_r(k) mod 2**(s + 1), into an array of machine words;
* ``certified_columns`` reads exponents of two, for the column kinds and the
  index range its caller asks for, through one pass, ``_columns_pass``, from
  J = _START_BITS on, restarted at twice the precision until every cell is
  certified.  Each kind's rule, applied term by term to g and g', gives the
  numbers of its own series, however many kinds are read.  It is the one
  exponent reader behind ``table``, ``rho`` and the ``verify`` parity checks.

Nothing is guessed.  A nonzero residue of F_r(k) modulo 2**J gives its exact
exponent, below J, and so the exponent of t(n), of s(n) or of t(n) +- s(n).
Whatever a residue does not certify raises, or asks for more precision.
"""

from __future__ import annotations

import math
from array import array
from itertools import islice, repeat

from .algebra import INFINITY, Valuation, require_kind, require_positive, val2
from .errors import ExactnessError, InconclusiveError, ResourceLimitError
from .sequences import graph_counts

__all__ = [
    "COLUMNS",
    "column_number",
    "STEP_CAP",
    "CELL_CAP",
    "odd_factor_residues",
    "certified_columns",
]

# Most steps a scan may plan: every scan here refuses a longer window, and
# it is the ceiling of the default state cap of the period scan mod m.
STEP_CAP = 10**7

# Most cells (kinds times indices) one read of exponent columns may return,
# and one parity check of `verify` may read over all its residue classes.
# They are held in lists: at the cap, `rho --k-max 2999999` peaks at 176 MB
# (one process on a 2-vCPU host).  It takes `table --k-max 158081` (2,529,312
# cells, the largest window of the residue engine this one replaced) and
# refuses `table --k-max 2000000`, 32 million cells, at once.
CELL_CAP = 3 * 10**6

# First precision of the exponent columns, in bits of F_r(k).  The largest
# exponent of F_r(k) seen is 22 (the even count at n = 4k + 1, k <= 600000;
# 17 over all four columns at n < 80004), so one pass is the rule; a
# shortfall costs a restart at twice the precision, never a wrong answer.
# No pass is planned above _MAX_BITS, whose table of differences holds
# 512 * 513 bits.
_START_BITS = 64
_MAX_BITS = 512

# The four exponent columns, each described once: the number it takes the
# exponent of, built from the pair (t(n), s(n)); 1 when the column is half
# that number, else 0; and the number's name for errors.  Every rule is
# linear, so the series here apply it to (g, g') term by term, mod 2**J, and
# the exact oracle in :mod:`involution_lab.valuations` to the exact counts.
COLUMNS = {
    "t": (lambda t, s: t, 0, "count"),
    "t_signed": (lambda t, s: s, 0, "signed sum"),
    "t_even": (lambda t, s: t + s, 1, "count + signed sum"),
    "t_odd": (lambda t, s: t - s, 1, "count - signed sum"),
}


def column_number(kind: str, n: int, t, s):
    """The number of column ``kind`` at n, exactly, from t(n) and s(n) in any
    ring (ints, or exact Decimals): its COLUMNS rule, halved where the rule
    says so.  An odd number where it must be halved raises ExactnessError."""
    require_kind(kind, COLUMNS)
    number_of, halved, name = COLUMNS[kind]
    number, odd = divmod(number_of(t, s), 1 << halved)
    if odd:
        raise ExactnessError(f"{name} is odd at n={n}")
    return number


# (number of values a word holds, typecode) for the machine words, narrowest first.
_WORDS = tuple((1 << 8 * array(typecode).itemsize, typecode) for typecode in "BHIQ")


def _residue_array(m: int) -> array:
    """An empty array of the narrowest machine word that holds 0..m-1."""
    for values, typecode in _WORDS:
        if m <= values:
            return array(typecode)
    raise ResourceLimitError(f"residues mod {m} do not fit in a machine word")


def _refuse_window(count: int, what: str, cap: int = STEP_CAP, unit: str = "steps") -> None:
    if count > cap:
        raise ResourceLimitError(f"{count} {what} asked for, more than the cap of {cap} {unit}")


def _graph_residues(y: int, bits: int) -> list[int]:
    """g(m, y) mod 2**bits for m < 4 bits + 4, y = 1 or -1, from the exact
    stream :func:`sequences.graph_counts`: masking is a ring map."""
    mask = (1 << bits) - 1
    return [g & mask for g in islice(graph_counts(y), 4 * bits + 4)]


def _series_values(numbers: list[int], r: int, bits: int):
    """F(0), F(1), ... mod 2**bits for the Mahler series
    F(k) = sum_i C(k, i) 2**i numbers[4i + r] / D(i + r // 2).

    Terms from i = bits on vanish mod 2**bits, so lane i < bits of
    ``table`` holds the i-th forward difference at k, with a spare top bit
    for the carry, which the mask clears; the differences at k = 0 are the
    coefficients.  The inverses of D are stepped down from one ``pow``."""
    modulus, width, f = 1 << bits, bits + 1, r // 2
    inverse = pow(math.prod(range(1, 2 * (f + bits) - 2, 2)), -1, modulus)
    table = 0
    for i in range(bits - 1, -1, -1):  # inverse = 1 / D(i + f)
        table |= ((numbers[4 * i + r] << i) * inverse % modulus) << (i * width)
        inverse = inverse * (2 * (i + f) - 1) % modulus
    low = modulus - 1
    lanes = low * (((1 << width * bits) - 1) // ((1 << width) - 1))
    while True:
        yield table & low
        table = (table + (table >> width)) & lanes


def _at(numbers: list[int], ns: range, bits: int):
    """The series of ``_series_values`` at the n = 4k + r in ``ns``, a
    nonempty range inside one residue class r mod 4."""
    series = _series_values(numbers, ns.start % 4, bits)
    return islice(series, ns.start // 4, ns[-1] // 4 + 1, ns.step // 4)


def odd_factor_residues(s: int, count: int) -> array:
    """beta(n) mod 2**s for 0 <= n < count, in an array of the narrowest
    machine word that holds them.

    With n = 4k + r, beta(n) = D(k + f) F_r(k) / 2**[r == 3], so F_r(k) mod
    2**(s + 1) fixes it.  The exponent of F_r(k) is read, not assumed: a
    residue whose exponent is not [r == 3] raises InconclusiveError.  A
    count above STEP_CAP raises ResourceLimitError before any stepping.
    """
    require_positive(s, "s")
    _refuse_window(count, "odd factors")
    out = _residue_array(1 << s)
    if count <= 0:
        return out
    out.frombytes(bytes(count * out.itemsize))
    bits = s + 1
    mask = (1 << s) - 1
    numbers = _graph_residues(1, bits)
    for r in range(min(count, 4)):
        f, shift = r // 2, int(r == 3)
        low, want = (2 << shift) - 1, 1 << shift
        odd = math.prod(range(1, 2 * f, 2))  # D(k + f) mod 2**s, from k = 0
        column = _residue_array(1 << s)
        ns = range(r, count, 4)
        for n, residue in zip(ns, _at(numbers, ns, bits)):
            if residue & low != want:
                raise InconclusiveError(
                    f"F_{r}({n // 4}) mod 2**{bits} does not determine beta({n}) mod 2**{s}"
                )
            column.append(odd * (residue >> shift) & mask)
            odd = odd * (2 * (n // 4 + f) + 1) & mask
        out[r::4] = column
    return out


def _read_val2(residue: int, bits: int, n: int, halved: int, name: str) -> Valuation | None:
    """Exponent of two in x / 2**halved, from residue = F mod 2**bits, where
    x = 2**(k + f) D F with n = 4k + r, f = r // 2 and D odd, and
    0 <= |F| <= |x| <= 2 n! (x is t(n), s(n) or t(n) +- s(n)).

    A nonzero residue gives the exact exponent.  A zero is a true zero, and
    reads INFINITY, once bits >= n * n.bit_length() + 2 exceeds log2(2 n!)
    and makes the residue exact; before that it reads None, asking for more
    precision.  An odd x where it must be halved (k + f = 0 and an odd
    residue) raises ExactnessError.
    """
    shift = n // 4 + n % 4 // 2
    if residue & halved and not shift:
        raise ExactnessError(f"{name} is odd at n={n}")
    if residue:
        return shift + val2(residue) - halved
    if bits >= n * n.bit_length() + 2:
        return INFINITY
    return None


def _columns_pass(
    bits: int, readers: list[tuple], indices: range
) -> list[list[Valuation]] | None:
    """One pass at precision 2**bits: each COLUMNS rule's exponent column at
    the n in ``indices``; None as soon as a cell asks for more precision.

    Each rule's numbers are the rule applied term by term to g and g',
    built once per pass, and each residue class mod 4 of ``indices`` is
    read from the rule's own series over them."""
    graphs = [_graph_residues(y, bits) for y in (1, -1)]
    numbers = [list(map(number_of, *graphs)) for number_of, _, _ in readers]
    columns: list[list] = [[None] * len(indices) for _ in readers]
    period = 4 // math.gcd(indices.step, 4)
    for first in range(min(period, len(indices))):
        ns = indices[first::period]
        for column, own, (_, halved, name) in zip(columns, numbers, readers):
            cells = list(map(_read_val2, _at(own, ns, bits), repeat(bits), ns,
                             repeat(halved), repeat(name)))
            if None in cells:
                return None
            column[first::period] = cells
    return columns


def certified_columns(kinds: tuple[str, ...], indices: range) -> list[list[Valuation]]:
    """Exponent of two in each column of ``kinds`` (keys of COLUMNS) at every
    n in ``indices``, one list per kind, in the order given.

    Each kind's series is stepped modulo 2**J from J = _START_BITS, doubling
    J until every cell certifies; see ``_read_val2`` for what a residue
    certifies.  The zeros are the odd count at n = 0 and 1 and the signed
    sum at n = 2.  A kind not in COLUMNS raises ValueError, and a window over
    STEP_CAP series steps (k + 1 for the last n = 4k + r of each residue
    class) or over CELL_CAP cells ResourceLimitError, before any stepping,
    as a restart past _MAX_BITS does."""
    if min(indices.start, indices.stop) < 0 or indices.step < 1:
        raise ValueError("indices must be an increasing range of nonnegative n")
    for kind in kinds:
        require_kind(kind, COLUMNS)
    readers = [COLUMNS[kind] for kind in kinds]
    period = 4 // math.gcd(indices.step, 4)  # the last `period` n end the classes
    _refuse_window(sum(n // 4 + 1 for n in indices[-period:]), "series steps")
    _refuse_window(len(readers) * len(indices), "cells", CELL_CAP, "cells")
    bits = _START_BITS
    while (columns := _columns_pass(bits, readers, indices)) is None:
        bits *= 2
        if bits > _MAX_BITS:
            raise ResourceLimitError(
                f"a cell needs more than {_MAX_BITS} bits of the graph-route series"
            )
    return columns
