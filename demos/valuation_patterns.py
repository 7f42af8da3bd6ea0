#!/usr/bin/env python3
"""How many times does 2 divide the involution counts?

Writing n = 4k + r, the exponent of two in the count, in the signed sum,
and in the even/odd counts follows closed forms in k (and the 2-adic
valuation of k) on almost every residue class.  Two cells have no proven
formula; for one of them the exponents are governed, as far as anyone has
checked, by a single mysterious 2-adic constant whose binary digits the
library fits from the data.
"""

from itertools import islice

from involution_lab.conjecture import fit_shift_digits
from involution_lab.valuations import table_fieldnames, table_rows

FIELDS = ["n", "k", "r", "ord_t", "ord_t_signed", "ord_t_even", "ord_t_odd"]

print("Exponent of two in: count, signed sum, even count, odd count")
print("(predictions in brackets; 'unknown' = no proven closed form)")
header = " ".join(f"{f:>9s}" for f in FIELDS)
print(header)
for row in islice(table_rows(6), 25):
    cells = [row[f] for f in FIELDS[:3]]
    for kind in ("t", "t_signed", "t_even", "t_odd"):
        cells.append(f"{row['ord_' + kind]}[{row['predicted_' + kind]}]")
    print(" ".join(f"{c:>9s}" for c in cells))

print()
print("All table fields:", ", ".join(table_fieldnames()))

print()
print("Fitting the 2-adic constant behind the even-count column at n = 4k+1:")
fit = fit_shift_digits(1000, 11)
print(f"  constraints from k <= {fit.k_max} determine {len(fit.digits)} digits")
print(f"  digits (least significant first): {list(fit.digits)}")
print(f"  i.e. the constant is {fit.residue()} modulo 2^{len(fit.digits)}")
print(f"  violations: {list(fit.violations) or 'none'}")
