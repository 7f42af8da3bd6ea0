"""Digit fitting for the even-involution valuation in the open residue
class.

For n = 4k + 1 the exponent of two in the even-involution count has no
proven closed form.  The observed pattern is ord(k) = k for even k, and
ord(k) = k + 1 + v(k) for odd k where v(k) behaves like the 2-adic
valuation of k + rho for a fixed 2-adic integer rho.  Each odd k with
observed v(k) therefore pins rho modulo 2**(v(k)+1):

    v(k) = val2(k + rho)  <=>  rho = 2**v(k) - k  (mod 2**(v(k)+1)).

The observed exponents are the even-count column of the 2-adic engine,
:func:`twoadic.certified_columns` at n = 4k + 1, read in memory that stays
bounded as k grows; the tests hold them to the exact counts.  The scanner
folds these congruences together, reports the digit prefix they determine
(never zero-filling beyond it), and records a structured violation instead
of asserting anything it did not observe.
"""

from __future__ import annotations

from typing import NamedTuple

from .algebra import require_at_least, require_positive, val2
from .twoadic import certified_columns

__all__ = [
    "Violation",
    "TwoAdicPrefix",
    "fit_shift_digits",
]


class Violation(NamedTuple):
    k: int
    kind: str
    message: str

    def to_json_obj(self) -> dict:
        return {"k": self.k, "kind": self.kind, "message": self.message}


class TwoAdicPrefix(NamedTuple):
    """Digit prefix of the fitted 2-adic shift.

    ``digits`` lists bits rho_0, rho_1, ... up to the smaller of the bit
    budget and what the constraints actually determine.  The derived
    ``undetermined_from`` is the first index with no digit information in
    this report, len(digits).
    """

    k_max: int
    bit_budget: int
    digits: tuple[int, ...]
    violations: tuple[Violation, ...]

    @property
    def undetermined_from(self) -> int:
        return len(self.digits)

    @property
    def consistent(self) -> bool:
        return not self.violations

    def residue(self) -> int:
        """The fitted shift modulo 2**len(digits)."""
        return sum(bit << i for i, bit in enumerate(self.digits))

    def to_json_obj(self) -> dict:
        return {
            "k_max": self.k_max,
            "bit_budget": self.bit_budget,
            "digits": list(self.digits),
            "undetermined_from": self.undetermined_from,
            "violations": [v.to_json_obj() for v in self.violations],
        }


def fit_shift_digits(k_max: int, bit_budget: int = 11) -> TwoAdicPrefix:
    """Fit the shift's digit prefix from all k <= k_max.

    Even k (where the pattern predicts exponent exactly k) are verified as a
    side condition.  Odd-k constraints are merged in increasing k, so a
    contradictory constraint system is reported with the smallest failing k
    and the first conflicting digit.  Inside the fold the full determined
    precision is kept; only the report is trimmed to the bit budget.
    """
    require_at_least(k_max, 0, "k_max")
    require_positive(bit_budget, "bit_budget")
    residue = 0
    bits = 0
    violations: list[Violation] = []
    (column,) = certified_columns(("t_even",), range(1, 4 * k_max + 2, 4))
    for k, ord_k in enumerate(column):
        if k % 2 == 0:
            if ord_k != k:
                violations.append(
                    Violation(
                        k,
                        "even_exponent",
                        f"exponent at even k={k} is {ord_k}, expected {k}",
                    )
                )
            continue
        if not isinstance(ord_k, int):
            violations.append(
                Violation(k, "odd_exponent", f"count at odd k={k} vanished")
            )
            continue
        v = ord_k - k - 1
        if v < 0:
            violations.append(
                Violation(
                    k,
                    "odd_exponent",
                    f"exponent at odd k={k} is {ord_k}, below the floor {k + 1}",
                )
            )
            continue
        new_bits = v + 1
        new_residue = ((1 << v) - k) % (1 << new_bits)
        common = min(bits, new_bits)
        if (residue - new_residue) % (1 << common):
            conflict = val2((residue - new_residue) % (1 << common))
            violations.append(
                Violation(
                    k,
                    "digit_conflict",
                    f"constraint at k={k} forces digit {conflict} to "
                    f"{(new_residue >> conflict) & 1}, contradicting the "
                    f"digits fixed by smaller k",
                )
            )
            continue
        if new_bits > bits:
            residue, bits = new_residue, new_bits
    digits = tuple((residue >> i) & 1 for i in range(min(bits, bit_budget)))
    return TwoAdicPrefix(
        k_max=k_max,
        bit_budget=bit_budget,
        digits=digits,
        violations=tuple(violations),
    )
