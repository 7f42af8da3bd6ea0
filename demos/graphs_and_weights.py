#!/usr/bin/env python3
"""The graph picture behind the involution counts.

Group the involutions on n letters by which pairs of adjacent blocks
{1,2}, {3,4}, ... their transpositions join.  Each group is drawn as a
multigraph: one vertex per block, one edge per joining transposition,
doubled edges allowed.  The group sizes are pure powers of two, and giving
each graph component an x/y weight turns the grouping into an identity
between the generating polynomial and a weighted graph sum.
"""

from involution_lab.enumeration import (
    fiber_size,
    graph_weight,
    graph_weight_sum_bruteforce,
    involution_weight,
    multigraphs,
    pth_roots,
    refined_class,
    class_graph,
)
from involution_lab.sequences import graph_count, graph_poly, involution_count

N = 6

print(f"All constrained multigraphs for n = {N} (vertices = n/2 = {N // 2}):")
total = 0
for g in multigraphs(N):
    size = fiber_size(g, N)
    total += size
    edges = ", ".join(f"{a}-{b}" + ("(x2)" if m == 2 else "") for a, b, m in g.edges) or "no edges"
    print(f"  {edges:24s} fiber 2^({N // 2}-{g.doubled_edge_count()}) = {size:3d}   weight {graph_weight(g, N)}")
print(f"Fibers sum to {total} = t({N}) = {involution_count(N)}")

print()
print("Weight identity on one fiber (the doubled edge 1-2, n = 4):")
members = [
    pi for pi in pth_roots(4, 2)
    if class_graph(refined_class(pi, 2), 4).doubled_edge_count() == 1
]
for pi in members:
    print(f"  involution {pi} has weight {involution_weight(pi)}")
g = class_graph(refined_class(members[0], 2), 4)
print(f"  sum = {fiber_size(g, 4)} x graph weight ({graph_weight(g, 4)})")

print()
print("Counting only the graphs without doubled edges gives the g-sequence;")
print("the recurrence and the brute-force enumeration agree:")
print("  recurrence :", [graph_count(n) for n in range(12)])
print("  brute force:", [int(graph_weight_sum_bruteforce(n).evaluate(1, 1)) for n in range(12)])

print()
print("Their weight sums match coefficientwise too, dyadic coefficients and all:")
print("  g_4(x,y) recurrence :", graph_poly(4))
print("  g_4(x,y) brute force:", graph_weight_sum_bruteforce(4))
