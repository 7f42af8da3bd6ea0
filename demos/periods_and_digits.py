#!/usr/bin/env python3
"""Periodicity of the involution counts modulo m.

Modulo an odd m the count sequence is purely periodic with smallest period
exactly m.  Modulo an even m = 2^k * ell it is only eventually periodic:
the preperiod is exactly 4k - 2 and the tail's smallest period is ell.
The odd factors (counts with all powers of two divided out) are purely
periodic mod 2^s with smallest period 2^(s+1).  Every report below carries
machine-checkable witnesses for the minimality claims.
"""

import json
from itertools import islice

from involution_lab.periodicity import involution_mod_period, mod_period_law, odd_factor_period
from involution_lab.sequences import removal_residues
from involution_lab.twoadic import odd_factor_residues

print("counts mod m:")
print("  m | preperiod | period | (for even m = 2^k ell: expect 4k-2, ell)")
for m in (3, 7, 15, 2, 4, 8, 12, 96):
    rep = involution_mod_period(m)
    note = f"expected {mod_period_law(m)}" if m % 2 == 0 else ""
    print(f"{m:3d} | {rep.preperiod:9d} | {rep.period:6d} | {note}")

print()
print("The first values mod 12 show the preperiod of 6 directly:")
print(" ", list(islice(removal_residues(12), 24)))

print()
print("Odd factors mod 8 repeat every 16 (and not every 8):")
print(" ", odd_factor_residues(3, 32).tolist())
report = odd_factor_period(3)
print("report:", json.dumps(report.to_json_obj(), sort_keys=True))
dd = dict(report.rejected_divisors)
print(f"e.g. period 8 is rejected: indices {dd[8]} and {dd[8] + 8} hold different values.")
