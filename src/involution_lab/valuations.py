"""Closed-form 2-adic (and p-adic) valuations of the involution counts, and
the valuation table that holds them against computed exponents.

Writing n = 4k + r with 0 <= r < 4, the exponent of two is known exactly for
the involution count itself and for the signed sum at every n, and for the
even/odd counts at every n except two residue classes: the odd count at
r = 0 and the even count at r = 1 have no proven closed form.  Those two
predictions are reported as None, never guessed; the digit-fitting scanner
in :mod:`involution_lab.conjecture` consumes the computed column instead.

Computed exponents are read from :func:`twoadic.certified_columns`, in
memory that stays bounded as the range grows: ``table_rows`` reads all four
columns and builds each row with ``table_row``, and ``column_reports`` reads
the columns a ``verify`` check asks for.  ``valuation_report`` computes the
same cells from the exact counts; it is the tests' oracle.  Both routes
build each column's number from t(n) and s(n) by its rule in
:data:`twoadic.COLUMNS`.
"""

from __future__ import annotations

from typing import Iterator, NamedTuple, Sequence

from .algebra import INFINITY, Valuation, val2
from .sequences import involution_count, involution_val2, signed_involution_count
from .twoadic import COLUMNS, certified_columns, column_number

__all__ = [
    "chi_odd",
    "chi_even",
    "tau_valuation_bound",
    "involution_val2",
    "binomial_shift_bound_holds",
    "signed_val2_predicted",
    "even_involution_count",
    "odd_involution_count",
    "even_val2_predicted",
    "odd_val2_predicted",
    "ValuationReport",
    "REPORT_KINDS",
    "valuation_report",
    "column_reports",
    "format_valuation",
    "table_fieldnames",
    "table_row",
    "table_rows",
]


def chi_odd(n: int) -> int:
    """1 on odd n, 0 on even (0 included)."""
    return n & 1


def chi_even(n: int) -> int:
    return 1 - (n & 1)


def tau_valuation_bound(n: int, p: int) -> int:
    """Proven lower bound floor(n/p) - floor(n/p**2) for the p-adic valuation
    of the p-th-root count; a negative n raises ValueError."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    return n // p - n // (p * p)


def binomial_shift_bound_holds(k: int, i: int, exponent: Valuation) -> bool:
    """Whether ``exponent``, the exponent of two in 2**i C(k, i) for positive
    k and i, meets Lemma 5.1's bound val2(k) + i - val2(i) and its two
    working specializations (val2(k) + 1 always, and val2(k) + 3 once
    i >= 5).  Above i = k the binomial is zero and the exponent INFINITY
    meets every bound."""
    if k < 1 or i < 1:
        raise ValueError("k and i must be positive")
    vk = val2(k)
    return exponent >= vk + i - val2(i) and exponent >= vk + 1 and (i < 5 or exponent >= vk + 3)


def _quarter(n: int) -> tuple[int, int]:
    """(k, r) with n = 4k + r and 0 <= r < 4; a negative n raises ValueError."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    return divmod(n, 4)


def signed_val2_predicted(n: int) -> Valuation:
    """Predicted exponent of two in the signed involution sum: k + r//2 for
    r != 2, and k + 3 + val2(k) for r = 2 (INFINITY at n = 2, where the
    signed sum is zero)."""
    k, r = _quarter(n)
    if r == 2:
        return k + 3 + val2(k)
    return k + r // 2


def _exact_count(n: int, kind: str) -> int:
    """The number of column ``kind`` at n, exactly, by
    :func:`twoadic.column_number`.  Every COLUMNS rule is linear in (t, s),
    so a sequence it weighs by zero is not computed."""
    number_of = COLUMNS[kind][0]
    t = involution_count(n) if number_of(1, 0) else 0
    s = signed_involution_count(n) if number_of(0, 1) else 0
    return column_number(kind, n, t, s)


def even_involution_count(n: int) -> int:
    """(count + signed sum) / 2, exactly."""
    return _exact_count(n, "t_even")


def odd_involution_count(n: int) -> int:
    """(count - signed sum) / 2, exactly."""
    return _exact_count(n, "t_odd")


def even_val2_predicted(n: int) -> Valuation | None:
    """Predicted exponent of two in the even-involution count, or None on
    the residue class (r = 1) with no proven closed form."""
    k, r = _quarter(n)
    if r == 0:
        return k + chi_odd(k)
    if r == 1:
        return None
    return k


def odd_val2_predicted(n: int) -> Valuation | None:
    """Predicted exponent of two in the odd-involution count, or None on the
    residue class (r = 0) with no proven closed form.  At n = 1 the count is
    zero and the prediction is INFINITY (val2(0) absorbs the sum)."""
    k, r = _quarter(n)
    if r == 0:
        return None
    if r == 1:
        return k + val2(k) + chi_even(k)
    return k


def _matches(computed: Valuation, predicted: Valuation | None) -> bool:
    """Whether a computed exponent matches its prediction (never, where
    there is no prediction)."""
    return predicted is not None and computed == predicted


class ValuationReport(NamedTuple):
    """One computed-versus-predicted valuation cell; ``matches`` is derived
    from the two."""

    n: int
    kind: str
    computed: Valuation
    predicted: Valuation | None

    @property
    def matches(self) -> bool:
        return _matches(self.computed, self.predicted)


REPORT_KINDS = tuple(COLUMNS)

_PREDICTED = {
    "t": involution_val2,
    "t_signed": signed_val2_predicted,
    "t_even": even_val2_predicted,
    "t_odd": odd_val2_predicted,
}


def valuation_report(n: int, kind: str) -> ValuationReport:
    """The cell at n of one kind, computed from the exact counts."""
    if kind not in REPORT_KINDS:
        raise ValueError(f"unknown kind {kind!r}")
    return ValuationReport(n, kind, val2(_exact_count(n, kind)), _PREDICTED[kind](n))


def column_reports(kinds: tuple[str, ...], indices: range) -> Iterator[ValuationReport]:
    """The cells of ``kinds`` at the n in ``indices``, kind by kind and in n
    order, computed by :func:`twoadic.certified_columns`.  Every cell is
    certified before this returns; the reports are then built lazily."""
    columns = certified_columns(kinds, indices)
    return (ValuationReport(n, kind, computed, _PREDICTED[kind](n))
            for kind, column in zip(kinds, columns) for n, computed in zip(indices, column))


def format_valuation(v: "Valuation | None") -> str:
    """Serialize a valuation: INFINITY as 'inf', a missing prediction as
    'unknown'."""
    if v is None:
        return "unknown"
    if v is INFINITY:
        return "inf"
    return str(v)


_ORD_KEYS, _PREDICTED_KEYS, _MATCH_KEYS = (
    tuple(f"{column}_{kind}" for kind in REPORT_KINDS) for column in ("ord", "predicted", "match"))


def table_fieldnames() -> list[str]:
    return ["n", "k", "r", *_ORD_KEYS, *_PREDICTED_KEYS, *_MATCH_KEYS]


def table_row(n: int, computed: Sequence[Valuation]) -> dict[str, str]:
    """One flat table row for the CSV/JSON emitters, from the computed
    exponents at n in REPORT_KINDS order."""
    k, r = divmod(n, 4)
    row: dict[str, str] = {"n": str(n), "k": str(k), "r": str(r)}
    cells = zip(REPORT_KINDS, computed, _ORD_KEYS, _PREDICTED_KEYS, _MATCH_KEYS)
    for kind, value, ord_key, predicted_key, match_key in cells:
        predicted = _PREDICTED[kind](n)
        row[ord_key] = format_valuation(value)
        row[predicted_key] = format_valuation(predicted)
        row[match_key] = "true" if _matches(value, predicted) else "false"
    return row


def table_rows(k_max: int) -> Iterator[dict[str, str]]:
    """The table rows for every n = 4k + r with k <= k_max, in n order.

    Every computed column is certified before this returns, so a failure
    raises before the first row exists; the rows are then built lazily.
    """
    if k_max < 0:
        raise ValueError("k_max must be nonnegative")
    cells = zip(*certified_columns(REPORT_KINDS, range(4 * k_max + 4)))
    return (table_row(n, computed) for n, computed in enumerate(cells))
