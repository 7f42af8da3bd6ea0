"""Eventual-period analysis of the involution counts modulo m and of their
odd factors modulo powers of two.

Soundness model.  Every report is certified along one path, ``_certify``:
it is given a window of values whose tail from an index lam_bound is known
to repeat with some period multiple.  The smallest period divides that
multiple, so only its divisors are tried, each across one stretch of the
multiple from lam_bound, and the first that holds is the period.  The
preperiod is then scanned backwards from lam_bound, the period is re-checked
across the whole window, and every proper divisor of it is rejected with a
concrete counterexample index.  Only a prefix of the window need be held,
at least lam_bound + multiple + 2 values; a read past the held values wraps
one multiple back, v[n] = v[n - multiple], which is what the tail's
repetition says.  The pairs (v[i], v[i + d]) a range compares then repeat
every multiple from the end of the held values, so a range is cut there and
its rest compared once, one multiple back: at most two slice compares.

For the counts mod m the bound and the multiple come from the deterministic
finite state (n mod m, t(n-1) mod m, t(n) mod m), whose values are read
from the removal recurrence's residue stream
:func:`involution_lab.sequences.removal_residues`: its first repeat bounds
the preperiod, and its cycle length is a multiple of the period.  The
repeat is read off the reduced state (n mod m/g, t(n-1) mod m, t(n) mod m),
g = gcd(m, t(n-1), t(n)).  The gcd lemma: g divides every later count, and
(n + m/g) t(n-1) = n t(n-1) mod m, so the reduced state fixes the next one
and g(n) divides g(n+1); g is then constant on the reduced cycle, whose
length c' is a multiple of m/g.  Every state repeat is a reduced repeat, and
from a reduced repeat on the pairs recur after every multiple of c', so the
state cycle is C = lcm(m, c'), and the state's first repeat ``first`` is
the reduced state's: the smallest n whose pair recurs c' later with
m/g(n) dividing c'.  For odd m, g stays 1 and c' = m; for m = 2**k * ell,
g is a multiple of 2**k past the preperiod, and c' is about ell.
The reduced repeat is found without a table of states, by a variant of
Brent's cycle detection (Brent, BIT 20, 1980).  Checkpoints sit at n = 1,
2, 4, ...; a checkpoint c can only recur a multiple of m/g(c) steps later,
so one below m/g(c) is compared with the state m/g(c) steps ahead only, and
one at or past it with the states m/g(c), 2m/g(c), ... up to c steps ahead.
A checkpoint whose g is below the g of the newest stepped pair is not on
the cycle, and its round gives up.  A round whose checkpoint lies on the
cycle and that looks at least c' ahead finds it, and the first hit is c'
itself.  Every stepped value is held, in an array of machine words, and
certified with bound first - 1 and multiple c': by the lemma, the values
from first - 1 on repeat every c', and they are held through the hit, for
at least first + c' + 1 values.  The report's ``window_checked`` is the
window a scan of the full state certifies, the preperiod bound plus two
state cycles, first + 2C + 1 values: it is computed, not held, and the
report is the same byte for byte.  The scan is inconclusive exactly when
more than the state cap of distinct states precede the first repeat
(first + C - 1 of them).

Only a prime power is scanned; any other m is composed from its prime-power
parts q, and the composition is exact.  By the Chinese remainder theorem the
counts mod m are the tuple of the counts mod each q, and so is the state.
The state mod m recurs between n and n' exactly when every part's does, so
its first repeat is the largest of the parts' ``first`` and its cycle C the
lcm of theirs; the window first + 2C + 1 and the refusal rule read those
two.  The counts mod m repeat with period d from an index exactly when every
part's do, and an eventually periodic sequence has one preperiod for every
multiple of its period, so the preperiod is the largest of the parts' and
the period the lcm of theirs: that lcm is minimal, since each part's minimal
period divides every period.  The counts mod m differ at i and i + dd
exactly when some part's do, and a part's do only if its period does not
divide dd, so a proper divisor dd's witness, the first mismatch from the
preperiod, is the smallest over those parts; a part's mismatches repeat
every one of its periods from its preperiod, so each is found within one.

For the odd factors mod 2**s, read from
:func:`involution_lab.twoadic.odd_factor_residues`, the bound is 0 and the
multiple is the proven period (see ``odd_factor_period``).

The periods the paper proves are stated here once: ``mod_period_law`` for
the counts mod m, and inside ``odd_factor_period`` for the odd factors.
"""

from __future__ import annotations

from array import array
from itertools import islice
from math import gcd, lcm
from typing import Iterable, NamedTuple, Sequence

from .algebra import require_at_least, require_positive, val2
from .errors import InconclusiveError, VerificationError
from .sequences import removal_residues
from .twoadic import STEP_CAP, _refuse_window, _residue_array, odd_factor_residues

__all__ = [
    "PeriodReport",
    "involution_mod_period",
    "joined_period",
    "mod_period_law",
    "odd_product_congruence",
    "odd_factor_shift_congruence",
    "odd_factor_period",
    "prime_power_parts",
]


class PeriodReport(NamedTuple):
    """Minimal preperiod and period of an examined window, with witnesses.

    ``rejected_divisors`` holds one (candidate, index) pair per proper
    divisor of the period, where the sequence differs between index and
    index + candidate.  The derived ``preperiod_witness`` (when the
    preperiod is positive) is the index just before the tail where the
    period fails, preperiod - 1.
    """

    modulus: int
    preperiod: int
    period: int
    window_checked: int
    rejected_divisors: tuple[tuple[int, int], ...]

    @property
    def preperiod_witness(self) -> int | None:
        return self.preperiod - 1 if self.preperiod else None

    def to_json_obj(self) -> dict:
        return {
            "modulus": self.modulus,
            "preperiod": self.preperiod,
            "period": self.period,
            "window_checked": self.window_checked,
            "witnesses": {
                "rejected_divisors": [list(w) for w in self.rejected_divisors],
                "preperiod_index": self.preperiod_witness,
            },
        }


def _divisors(d: int) -> list[int]:
    """The divisors of d in ascending order, by trial division up to sqrt(d)."""
    small, large = [], []
    x = 1
    while x * x <= d:
        if d % x == 0:
            small.append(x)
            if x * x != d:
                large.append(d // x)
        x += 1
    return small + large[::-1]


def _first_mismatch(values: Sequence[int], d: int, start: int, stop: int,
                    wrap: int) -> int | None:
    """Smallest i in [start, stop) with v[i] != v[i + d], or None, where v
    reads the values past their end one wrap back (d <= wrap <= len(values),
    and stop <= len(values) unless start <= len(values) - wrap).

    The range is cut where i + d leaves the values, and the rest up to their
    end is compared one wrap back, which at d = wrap is no compare; the pairs
    past it repeat those.  Each part is compared in C first (a memoryview
    slices without copying), and only one that fails is scanned by index.
    """
    held = len(values)
    cut = min(stop, held - d)
    if start < cut and values[start:cut] != values[start + d:cut + d]:
        return next(i for i in range(start, cut) if values[i] != values[i + d])
    lo, hi, back = max(start, cut), min(stop, held), d - wrap
    if back and lo < hi and values[lo:hi] != values[lo + back:hi + back]:
        return next(i for i in range(lo, hi) if values[i] != values[i + back])
    return None


def _finalize(values: Sequence[int], modulus: int, lam: int, d: int, window: int,
              wrap: int) -> PeriodReport:
    """Shrink the preperiod, re-verify periodicity across the window, and
    collect the minimality witnesses."""
    while lam > 0 and values[lam - 1] == values[lam - 1 + d]:
        lam -= 1
    i = _first_mismatch(values, d, lam, window - d, wrap)
    if i is not None:
        raise VerificationError(
            f"internal: period {d} fails at index {i} inside the window"
        )
    # The window is d-periodic from lam and dd divides d, so dd fails in it
    # exactly when it fails within [lam, lam + d - dd): no read wraps.
    rejected = []
    for dd in _divisors(d)[:-1]:
        i = _first_mismatch(values, dd, lam, lam + d - dd, wrap)
        if i is None:
            raise VerificationError(
                f"internal: divisor {dd} of {d} has no counterexample in window"
            )
        rejected.append((dd, i))
    return PeriodReport(modulus, lam, d, window, tuple(rejected))


def _certify(values: array, modulus: int, lam_bound: int, multiple: int,
             window: int) -> PeriodReport:
    """Report on a window of ``window`` values, at least lam_bound + 2 *
    multiple, whose tail from lam_bound repeats with period ``multiple``:
    the smallest divisor of it that holds across one stretch of
    ``multiple`` values from lam_bound is the period, and _finalize does
    the rest.  At least lam_bound + multiple + 2 of the values are held,
    and a read past them wraps one multiple back."""
    with memoryview(values) as view:
        for d in _divisors(multiple):
            if _first_mismatch(view, d, lam_bound, lam_bound + multiple, multiple) is None:
                return _finalize(view, modulus, lam_bound, d, window, multiple)
    raise VerificationError(
        f"{multiple} is not a period of the values mod {modulus} from index {lam_bound}"
    )


def _no_repeat(m: int, state_cap: int) -> InconclusiveError:
    # Made only when raised: most scans find their repeat.
    return InconclusiveError(f"no state repetition within {state_cap} steps for modulus {m}")


def _scan(m: int, state_cap: int) -> tuple[PeriodReport, array, int, int, int]:
    """The report mod m from a scan of the residues, m <= state_cap, with
    the certified values, their first repeat ``first``, the reduced cycle c'
    and the state cycle C.

    The driving state at n is (n mod m, t(n-1) mod m, t(n) mod m).  Its first
    repeat, state ``first`` seen again at ``again``, bounds the preperiod by
    first - 1, and its cycle C = again - first is a multiple of the period.
    Both are read off the cycle c' of the reduced state (n mod m/g, t(n-1)
    mod m, t(n) mod m), g = gcd(m, t(n-1), t(n)), by the gcd lemma in the
    module docstring: C = lcm(m, c'), and ``first`` is the smallest n whose
    pair recurs c' later with m/g(n) dividing c'.

    The reduced repeat is found by Brent's cycle detection with checkpoints
    at n = 1, 2, 4, ...  A checkpoint c is compared with the hare only every
    m/g(c) steps: once, m/g(c) steps ahead, below that distance, and up to
    its own distance ahead from there on.  A hit at checkpoint c puts c on
    the cycle, and the first hit in a round is c'.  A round gives up on a
    checkpoint whose g is below the g of the newest stepped pair, which is
    read once a stepped block; the blocks double from the odd part of m
    plus two, which covers an odd modulus's one round.  Every value the
    hare steps into is kept in an array of machine words (all are below m).

    Every stepped value, at least those through the hit, is held and
    certified, with bound first - 1 and multiple c' (by the gcd lemma in the
    module docstring).  ``window_checked`` is the full state's window, first
    + 2C + 1, computed and not held, so the report is the one a scan of the
    full state gives.  Memory is the stepped values in words, and no state
    table is kept.

    The scan is inconclusive, and raises, exactly when more than
    ``state_cap`` distinct states precede the first repeat (again - 1 >
    state_cap), which is checked before anything is certified.  If again - 1
    <= cap then both first and c' are at most cap, so the round at the first
    checkpoint of at least cap, with the hare going at most cap steps ahead,
    finds the reduced cycle; a miss there raises.
    """
    values = _residue_array(m)
    stream = removal_residues(m)
    block = m // (m & -m) + 2  # the odd part of m, plus two
    values.extend(islice(stream, block))
    newest = gcd(m, values[-2], values[-1])  # g of the newest stepped pair
    checkpoint, cycle = 1, 0
    while not cycle:
        if len(values) <= checkpoint:
            values.extend(islice(stream, checkpoint + 1 - len(values)))
            newest = gcd(m, values[-2], values[-1])
        g = gcd(m, values[checkpoint - 1], values[checkpoint])
        step = m // g
        for j in range(step, max(min(checkpoint, state_cap), step) + 1, step):
            hare = checkpoint + j
            while g >= newest and len(values) <= hare:
                block *= 2
                values.extend(islice(stream, min(block, hare + 1 - len(values))))
                newest = gcd(m, values[-2], values[-1])
            if g < newest:
                break  # g grows along the orbit, so this checkpoint is off the cycle
            if (values[hare] == values[checkpoint]
                    and values[hare - 1] == values[checkpoint - 1]):
                cycle = j
                break
        if not cycle:
            if checkpoint >= state_cap:
                raise _no_repeat(m, state_cap)
            checkpoint *= 2
    first = next(
        n for n in range(1, checkpoint + 1)
        if values[n - 1] == values[n - 1 + cycle] and values[n] == values[n + cycle]
        and cycle % (m // gcd(m, values[n - 1], values[n])) == 0
    )
    state_cycle = lcm(m, cycle)
    again = first + state_cycle
    if again - 1 > state_cap:
        raise _no_repeat(m, state_cap)
    report = _certify(values, m, first - 1, cycle, again + state_cycle + 1)
    return report, values, first, cycle, state_cycle


def prime_power_parts(m: int) -> tuple[int, ...]:
    """The prime-power parts of m, by trial division, in ascending order of
    their primes: (1,) for m = 1.  A modulus below 1 raises ValueError."""
    require_positive(m, "modulus")
    parts, p = [], 2
    while p * p <= m:
        if m % p == 0:
            part = 1
            while m % p == 0:
                m //= p
                part *= p
            parts.append(part)
        p += 1 if p == 2 else 2
    if m > 1 or not parts:
        parts.append(m)
    return tuple(parts)


def joined_period(parts: Iterable[PeriodReport]) -> tuple[int, int]:
    """(preperiod, period) of the counts mod m from the reports of m's
    prime-power parts: the largest of their preperiods and the lcm of their
    periods (the composition in the module docstring)."""
    preperiods, periods = zip(*((part.preperiod, part.period) for part in parts))
    return max(preperiods), lcm(*periods)


def _part_mismatch(values: array, report: PeriodReport, cycle: int, shift: int,
                   start: int) -> int:
    """Smallest i >= start, start at least the preperiod, with v[i] != v[i +
    shift] in one part's certified values, whose period does not divide
    ``shift``.  From the preperiod on, the mismatches repeat every period,
    so the one period after ``start`` is searched from its place in the
    period's first stretch: from there to the stretch's end, then from the
    stretch's start.  Reads past the held values wrap one c' back."""
    lam, d = report.preperiod, report.period
    shift %= d
    mid = lam + (start - lam) % d
    i = _first_mismatch(values, shift, mid, lam + d, cycle)
    if i is None:
        i = _first_mismatch(values, shift, lam, mid, cycle) + d
    return i + start - mid


def involution_mod_period(m: int, *, state_cap: int = STEP_CAP) -> PeriodReport:
    """Exact minimal preperiod and period of the involution counts mod m.

    A prime power m, and m = 1, is scanned by ``_scan``: the reduced state
    (n mod m/g, t(n-1) mod m, t(n) mod m), g = gcd(m, t(n-1), t(n)), is
    stepped to its first repeat by Brent's cycle detection, and the stepped
    residues are certified.  Any other m is composed from its prime-power
    parts, each scanned once (the composition in the module docstring): the
    preperiod is the largest of theirs, the period the lcm, and each
    proper divisor's witness the smallest part mismatch from the
    preperiod.  ``window_checked`` is the full state's window, first + 2C +
    1, for its first repeat ``first`` and state cycle C, so the report is
    the one a scan of m gives, byte for byte.

    The report is inconclusive, and raises, exactly when more than
    ``state_cap`` distinct states of m precede the first repeat (first + C -
    1 > state_cap).  A modulus above the cap raises at once, since the state
    cycle holds at least m states, and so does one that no machine word
    holds; a part's scan refuses only if m's does, and then m is named.
    """
    require_positive(m, "modulus")
    if m > state_cap:
        raise _no_repeat(m, state_cap)
    _residue_array(m)  # refuses a modulus past a machine word before it is factored
    parts = prime_power_parts(m)
    if len(parts) == 1:
        return _scan(m, state_cap)[0]
    try:
        scans = [_scan(q, state_cap) for q in parts]
    except InconclusiveError:
        raise _no_repeat(m, state_cap) from None
    reports, _, firsts, _, state_cycles = zip(*scans)
    first, state_cycle = max(firsts), lcm(*state_cycles)
    again = first + state_cycle
    if again - 1 > state_cap:
        raise _no_repeat(m, state_cap)
    lam, d = joined_period(reports)
    rejected = tuple(
        (dd, min(_part_mismatch(values, report, cycle, dd, lam)
                 for report, values, _, cycle, _ in scans if dd % report.period))
        for dd in _divisors(d)[:-1]
    )
    return PeriodReport(m, lam, d, again + state_cycle + 1, rejected)


def mod_period_law(m: int) -> tuple[int, int]:
    """(preperiod, period) the paper proves for the involution counts mod m:
    purely periodic with period m for odd m (Theorem 6.2), and preperiod
    4k - 2 with period ell for m = 2**k * ell, k >= 1 (Theorem 6.3)."""
    require_positive(m, "modulus")
    k = val2(m)
    return (4 * k - 2 if k else 0, m >> k)


def odd_product_congruence(s: int) -> bool:
    """Check that the product of the first 2**(s-1) odd integers is 1 modulo
    2**s (asserted only for s >= 3).  More than STEP_CAP factors raises
    ResourceLimitError before the first is multiplied."""
    require_at_least(s, 3, "s")
    _refuse_window(1 << (s - 1), f"odd factors of the product at s={s}")
    mod = 1 << s
    prod = 1
    for i in range(1 << (s - 1)):
        prod = prod * (2 * i + 1) % mod
    return prod == 1


def odd_factor_shift_congruence(s: int, n_max: int) -> bool:
    """Check beta(n + 2**(s+1)) = beta(n) modulo 2**s for all n <= n_max."""
    require_at_least(s, 3, "s")
    require_at_least(n_max, 0, "n_max")
    shift = 1 << (s + 1)
    vals = odd_factor_residues(s, n_max + shift + 1)
    return all(vals[n + shift] == vals[n] for n in range(n_max + 1))


def odd_factor_period(s: int) -> PeriodReport:
    """Minimal period of the odd factors mod 2**s, held to Theorem 6.6.

    For s >= 3 the odd factors mod 2**s are purely periodic with smallest
    period 2**(s+1) (Theorem 6.6); a report that says otherwise raises
    VerificationError.  Below s = 3 they are reductions of those mod 8, so
    16 is a period, and no law is asserted.  That proven multiple is
    certified from index 0 across 3 * 2**(s+1) values (12 * 2**(s+1) below
    s = 3).  An s below 1 raises ValueError.
    """
    require_positive(s, "s")
    multiple = 1 << (max(s, 3) + 1)
    values = odd_factor_residues(s, 3 << (s + 1 if s >= 3 else s + 3))
    report = _certify(values, 1 << s, 0, multiple, len(values))
    if s >= 3 and (report.preperiod, report.period) != (0, multiple):
        raise VerificationError(
            f"odd factors mod 2**{s}: expected pure period {multiple}, found "
            f"preperiod {report.preperiod} and period {report.period}"
        )
    return report
