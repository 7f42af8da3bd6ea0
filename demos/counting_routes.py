#!/usr/bin/env python3
"""Four independent ways to count involutions, agreeing to the last digit.

An involution is a permutation equal to its own inverse: a product of fixed
points and disjoint transpositions.  The library counts them by

  1. the removal recurrence      t(n) = t(n-1) + (n-1) t(n-2),
  2. the cycle-type sum          sum over i of n! / (2^i i! (n-2i)!),
  3. evaluating the bivariate generating polynomial at (1, 1),
  4. the graph formula: fibers of size 2^(n//2 - s) over constrained
     multigraphs, reorganized into a sum over doubled-edge-free graphs.

The same machinery counts p-th roots of the identity for any prime p, and
route 4's ingredients are exactly enumerable, so everything here can be
(and in the test suite, is) checked against brute force.
"""

from involution_lab.enumeration import pth_roots
from involution_lab.sequences import (
    involution_count,
    involution_count_direct,
    involution_count_via_graphs,
    involution_poly,
    pth_root_count,
)

print("n | recurrence | cycle sum | poly(1,1) | graph formula")
print("--+------------+-----------+-----------+--------------")
for n in range(13):
    routes = (
        involution_count(n),
        involution_count_direct(n),
        int(involution_poly(n).evaluate(1, 1)),
        involution_count_via_graphs(n),
    )
    assert len(set(routes)) == 1
    print(f"{n:2d} | {routes[0]:10d} | {routes[1]:9d} | {routes[2]:9d} | {routes[3]:13d}")

print()
print("Brute force agrees: involutions on 6 letters, enumerated:",
      len(pth_roots(6, 2)), "= t(6) =", involution_count(6))

print()
print("Cube roots of the identity (permutations with pi^3 = id):")
print("  counted:", [pth_root_count(n, 3) for n in range(10)])
print("  enumerated for n = 6:", len(pth_roots(6, 3)))

print()
print("The generating polynomial tracks fixed points (x) and")
print("transpositions (y); for n = 4:")
print("  t_4(x, y) =", involution_poly(4))
print("  at (1, 1)  ->", involution_poly(4).evaluate(1, 1), "involutions")
print("  at (1, -1) ->", involution_poly(4).evaluate(1, -1), "(signed count)")
