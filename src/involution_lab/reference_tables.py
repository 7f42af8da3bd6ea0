"""Reference values the verify commands certify against.

The two tables below reproduce the reference tabulation of the
doubled-edge-free graph counts at (1, 1) and (1, -1) for 0 <= n <= 21,
verbatim.  The (1, 1) table's rows 20 and 21 are known misprints in that
tabulation: they actually hold the n = 21 and n = 22 values (the true
n = 20 entry, 19467494, was dropped).  The printed rows fail the odd-index
recurrence g(2n+1) = g(2n) + n*g(2n-1) at n = 21, and they contradict the
involution-count identity (``sequences.involution_count_via_graphs``) at
n = 20 and 21; ``CORRECTED_G_AT_ONE`` satisfies both, and the printed cells
equal the computed values one row further on.  Under its default vertex
cap of 8 the brute-force graph oracle stops at n = 16; a raised cap
(``INVOLUTION_LAB_CAP``) reaches these rows, and
``enumeration.graph_count_bruteforce`` gives the corrected values at
n = 20 and 21 (timings in the README).  The misprinted rows are kept
verbatim because ``verify --check table1`` certifies reproduction of the
reference as given; its failure message points here.  The acceptance gate's
criterion 1 applies ``CORRECTED_G_AT_ONE`` as errata instead.
"""

from __future__ import annotations

__all__ = ["G_AT_ONE", "G_AT_MINUS_ONE", "CORRECTED_G_AT_ONE", "cell_name"]

#: Reference g(1,1) values by n (rows 20-21 misprinted; see module docstring).
G_AT_ONE = {
    0: 1,
    1: 1,
    2: 1,
    3: 2,
    4: 2,
    5: 6,
    6: 8,
    7: 26,
    8: 41,
    9: 145,
    10: 253,
    11: 978,
    12: 1858,
    13: 7726,
    14: 15796,
    15: 69878,
    16: 152219,
    17: 711243,
    18: 1638323,
    19: 8039510,
    20: 99862594,
    21: 252998224,
}

#: Reference g(1,-1) values by n (all rows consistent).
G_AT_MINUS_ONE = {
    0: 1,
    1: 1,
    2: 0,
    3: -1,
    4: -1,
    5: 1,
    6: 2,
    7: -1,
    8: -6,
    9: -2,
    10: 28,
    11: 38,
    12: -140,
    13: -368,
    14: 732,
    15: 3308,
    16: -3934,
    17: -30398,
    18: 19232,
    19: 292814,
    20: -44946,
    21: -2973086,
}

#: Recurrence- and identity-confirmed values for the two misprinted rows.
CORRECTED_G_AT_ONE = {20: 19467494, 21: 99862594}


def cell_name(table: str, n: int) -> str:
    """Human-readable coordinate of a reference cell, for failure messages."""
    return f"{table} reference table, row n={n}"
