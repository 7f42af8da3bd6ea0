"""Brute-force ground truth: exhaustive permutation, class, and graph
enumeration.

This module is deliberately independent of the sequence engines in
:mod:`involution_lab.sequences`; everything here is built from first
principles so the two layers can be played against each other in tests.

The objects:

* p-th roots of the identity in the symmetric group on n letters, i.e.
  permutations whose disjoint cycles all have length 1 or p;
* the block-label image of such a permutation (element i gets label
  (i-1)//p + 1, applied entrywise to each cycle, cycles kept as least
  rotations so repeated entries are meaningful);
* the coarser "refined class" that forgets, for a fully-used block label,
  whether the block was one p-cycle or p fixed points -- such labels are
  collected into a bag, everything else stays as a cycle multiset;
* for p = 2, the loopless multigraph picture of a refined class: one edge
  per 2-cycle joining two distinct labels, edge multiplicity at most two,
  vertex degree at most two (the trailing odd vertex at most one).
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass
from typing import Callable

from .algebra import BivariatePoly, is_prime
from .errors import ExactnessError, ResourceLimitError

__all__ = [
    "DEFAULT_ROOT_CAP",
    "DEFAULT_VERTEX_CAP",
    "Permutation",
    "permutation_cycles",
    "is_pth_root",
    "pth_roots",
    "filtered_pth_roots",
    "least_rotation",
    "label_cycles",
    "RefinedClass",
    "refined_class",
    "class_size",
    "ConstrainedGraph",
    "class_graph",
    "graph_class",
    "multigraphs",
    "simple_graphs",
    "fiber_size",
    "involution_weight",
    "graph_weight",
    "graph_count_bruteforce",
    "graph_weight_sum_bruteforce",
]

DEFAULT_ROOT_CAP = 10**7
DEFAULT_VERTEX_CAP = 8

#: One-indexed image tuple: pi maps i to pi[i-1].
Permutation = tuple[int, ...]


def permutation_cycles(pi: Permutation) -> list[tuple[int, ...]]:
    """Disjoint cycles (fixed points included), each starting at its least
    element, listed by increasing least element."""
    n = len(pi)
    seen = [False] * (n + 1)
    out = []
    for start in range(1, n + 1):
        if seen[start]:
            continue
        cyc = [start]
        seen[start] = True
        j = pi[start - 1]
        while j != start:
            cyc.append(j)
            seen[j] = True
            j = pi[j - 1]
        out.append(tuple(cyc))
    return out


def is_pth_root(pi: Permutation, p: int) -> bool:
    """True when composing pi with itself p times gives the identity (for
    prime p: every cycle has length 1 or p)."""
    return all(p % len(c) == 0 for c in permutation_cycles(pi))


def _predicted_root_count(n: int, p: int) -> int:
    # Standard cycle-removal recurrence, kept local so the enumeration
    # oracle does not depend on the sequence engines it is meant to check.
    counts = [1] * min(n + 1, p)
    for m in range(p, n + 1):
        counts.append(counts[m - 1] + math.perm(m - 1, p - 1) * counts[m - p])
    return counts[n]


def pth_roots(n: int, p: int, *, cap: int = DEFAULT_ROOT_CAP) -> list[Permutation]:
    """All permutations of {1..n} whose p-th power is the identity, in
    lexicographic order of image tuples.

    The smallest unplaced element is either fixed or opens a p-cycle with
    p-1 of the remaining elements in any of their (p-1)! arrangements; this
    walks each root exactly once.  Raises ResourceLimitError (naming the
    predicted count) rather than starting a hopeless enumeration.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    if not is_prime(p):
        raise ValueError(f"p must be prime, got {p}")
    predicted = _predicted_root_count(n, p)
    if predicted > cap:
        raise ResourceLimitError(
            f"enumeration of {predicted} p-th roots exceeds the cap of {cap}"
        )
    images = list(range(n + 1))  # index 0 unused
    out: list[Permutation] = []

    def build(free: tuple[int, ...]) -> None:
        if not free:
            out.append(tuple(images[1:]))
            return
        e, rest = free[0], free[1:]
        images[e] = e
        build(rest)
        for chosen in itertools.combinations(rest, p - 1):
            remaining = tuple(x for x in rest if x not in chosen)
            for order in itertools.permutations(chosen):
                cycle = (e, *order)
                for i in range(p):
                    images[cycle[i]] = cycle[(i + 1) % p]
                build(remaining)
        images[e] = e

    build(tuple(range(1, n + 1)))
    out.sort()
    return out


def filtered_pth_roots(n: int, p: int) -> list[Permutation]:
    """Micro-oracle: filter all n! permutations.  Only sensible for n <= 7;
    exists to cross-check the recursive generator."""
    return [
        pi
        for pi in itertools.permutations(range(1, n + 1))
        if is_pth_root(pi, p)
    ]


def least_rotation(cycle: tuple[int, ...]) -> tuple[int, ...]:
    """Lexicographically least rotation; reflections are NOT identified, so
    (4,5,6) and (4,6,5) stay distinct."""
    return min(cycle[i:] + cycle[:i] for i in range(len(cycle)))


def _labeled_cycle_counts(pi: Permutation, p: int) -> dict[tuple[int, ...], int]:
    """One walk over the cycles of pi: each element is labeled as it is
    visited, the p-th-root check reads the cycle lengths of that same walk,
    and each labeled cycle is counted as its least rotation."""
    seen = [False] * (len(pi) + 1)
    counts: dict[tuple[int, ...], int] = {}
    for start in range(1, len(pi) + 1):
        if seen[start]:
            continue
        seen[start] = True
        labels = [(start - 1) // p + 1]
        j = pi[start - 1]
        while j != start:
            seen[j] = True
            labels.append((j - 1) // p + 1)
            j = pi[j - 1]
        if p % len(labels):
            raise ValueError("permutation is not a p-th root of the identity")
        # The walk starts at the least element, so labels[0] is the least
        # label and the least rotation is among those that start with it.
        low = labels[0]
        if labels.count(low) == 1:
            key = tuple(labels)
        else:
            key = min(
                tuple(labels[i:] + labels[:i])
                for i, label in enumerate(labels)
                if label == low
            )
        counts[key] = counts.get(key, 0) + 1
    return counts


def label_cycles(pi: Permutation, p: int) -> Counter:
    """Multiset of labeled cycles of pi: label (i-1)//p + 1 applied entrywise
    to each disjoint cycle, each result stored as its least rotation."""
    return Counter(_labeled_cycle_counts(pi, p))


@dataclass(frozen=True, order=True, slots=True)
class RefinedClass:
    """Key of a refined equivalence class.

    ``bag`` holds the block labels whose block is used up entirely by one
    all-equal p-cycle or by p fixed points (the two readings are not
    distinguished); ``cycles`` is the remaining labeled-cycle multiset as
    sorted (cycle, multiplicity) pairs.
    """

    bag: tuple[int, ...]
    cycles: tuple[tuple[tuple[int, ...], int], ...]

    def to_json_obj(self) -> dict:
        return {
            "bag": list(self.bag),
            "cycles": [[list(c), m] for c, m in self.cycles],
        }


def refined_class(pi: Permutation, p: int) -> RefinedClass:
    t = len(pi) // p
    bag = []
    rest = []
    for cyc, mult in _labeled_cycle_counts(pi, p).items():
        label = cyc[0]  # the least label: cycles are least rotations
        if label <= t and (
            (len(cyc) == 1 and mult == p)
            or (len(cyc) == p and max(cyc) == label)
        ):
            bag.append(label)
        else:
            rest.append((cyc, mult))
    return RefinedClass(tuple(sorted(bag)), tuple(sorted(rest)))


def _validate_refined_class(cls: RefinedClass, p: int, n: int) -> None:
    t, r = divmod(n, p)
    usage: Counter = Counter()
    for label in cls.bag:
        if not 1 <= label <= t:
            raise ValueError(f"bag label {label} outside 1..{t}")
        usage[label] += p
    for cyc, mult in cls.cycles:
        if len(cyc) not in (1, p):
            raise ValueError(f"cycle {cyc} has length {len(cyc)}, want 1 or {p}")
        if cyc != least_rotation(cyc):
            raise ValueError(f"cycle {cyc} is not canonically rotated")
        if len(cyc) == 1 and not 1 <= mult < p:
            raise ValueError(f"1-cycle {cyc} has multiplicity {mult}, want < {p}")
        if len(cyc) == p and not 1 <= mult <= p:
            raise ValueError(f"{p}-cycle {cyc} has multiplicity {mult}, want <= {p}")
        if len(cyc) == p and len(set(cyc)) == 1:
            raise ValueError(f"all-equal cycle {cyc} belongs in the bag")
        for label in cyc:
            if label in cls.bag:
                raise ValueError(f"bag label {label} also appears in cycle {cyc}")
            usage[label] += mult
    for label in range(1, t + 1):
        if usage[label] != p:
            raise ValueError(f"label {label} appears {usage[label]} times, want {p}")
    if usage[t + 1] != r:
        raise ValueError(f"label {t + 1} appears {usage[t + 1]} times, want {r}")
    if any(label > t + 1 for label in usage):
        raise ValueError("labels beyond the final block present")


def class_size(cls: RefinedClass, p: int, n: int) -> int:
    """Exact number of permutations whose refined class is ``cls``.

    Each bag label contributes 1 + (p-1)! (one all-equal p-cycle in any of
    its (p-1)! element orders, or p fixed points), every other block label
    contributes p! element placements, the trailing r elements r!, and
    repeated cycles are divided out by their multiplicity factorials.  The
    division is always exact; a remainder aborts with ExactnessError.
    """
    _validate_refined_class(cls, p, n)
    t, r = divmod(n, p)
    h = len(cls.bag)
    numerator = (
        (1 + math.factorial(p - 1)) ** h
        * math.factorial(p) ** (t - h)
        * math.factorial(r)
    )
    denominator = math.prod(math.factorial(m) for _, m in cls.cycles)
    size, rem = divmod(numerator, denominator)
    if rem:
        raise ExactnessError(
            f"class size {numerator}/{denominator} is not an integer for {cls}"
        )
    return size


@dataclass(frozen=True, order=True, slots=True)
class ConstrainedGraph:
    """Loopless multigraph on labeled vertices with max degree two, edge
    multiplicity at most two, and (when the vertex count came from an odd n)
    degree at most one on the last vertex.  Edges are (a, b, multiplicity)
    with a < b, sorted."""

    vertex_count: int
    edges: tuple[tuple[int, int, int], ...]

    def degree(self, v: int) -> int:
        return sum(m for a, b, m in self.edges if v in (a, b))

    def doubled_edge_count(self) -> int:
        return sum(1 for _, _, m in self.edges if m == 2)

    def edge_total(self) -> int:
        return sum(m for _, _, m in self.edges)

    def to_json_obj(self) -> dict:
        return {
            "vertices": self.vertex_count,
            "edges": [list(e) for e in self.edges],
        }


def _graph_vertex_count(n: int) -> int:
    return (n + 1) // 2  # one vertex per block of two letters, the last maybe short


def _validate_graph(g: ConstrainedGraph, n: int) -> None:
    v = (n + 1) // 2  # _graph_vertex_count, inlined on this hot path
    if g.vertex_count != v:
        raise ValueError(f"graph has {g.vertex_count} vertices, n={n} needs {v}")
    deg = [0] * (v + 1)
    prev_a = prev_b = 0
    for a, b, m in g.edges:
        if not (1 <= a < b <= v):
            raise ValueError(f"bad edge endpoints ({a}, {b})")
        if m != 1 and m != 2:
            raise ValueError(f"edge ({a}, {b}) has multiplicity {m}")
        if a < prev_a or (a == prev_a and b <= prev_b):
            raise ValueError("edges not sorted by endpoints / duplicate pair")
        prev_a, prev_b = a, b
        deg[a] += m
        deg[b] += m
    if max(deg, default=0) > 2 or (n % 2 and deg[v] > 1):
        for u in range(1, v + 1):
            limit = 1 if n % 2 and u == v else 2
            if deg[u] > limit:
                raise ValueError(f"vertex {u} has degree {deg[u]} > {limit}")


def class_graph(cls: RefinedClass, n: int) -> ConstrainedGraph:
    """Graph form of a refined class (p = 2 only): one edge per 2-cycle on
    two distinct labels; 1-cycles and the bag are dropped since they are
    recoverable from n via the degrees."""
    _validate_refined_class(cls, 2, n)
    edges = []
    for cyc, mult in cls.cycles:
        if len(cyc) == 2:
            a, b = cyc
            edges.append((min(a, b), max(a, b), mult))
    g = ConstrainedGraph(_graph_vertex_count(n), tuple(sorted(edges)))
    _validate_graph(g, n)
    return g


def graph_class(g: ConstrainedGraph, n: int) -> RefinedClass:
    """Inverse of class_graph: bag labels are the isolated interior
    vertices, a degree-one interior vertex keeps a single fixed point, and
    an isolated final vertex (odd n) keeps its one fixed point."""
    _validate_graph(g, n)
    t, r = divmod(n, 2)
    cycles: dict[tuple[int, ...], int] = {}
    for a, b, m in g.edges:
        cycles[(a, b)] = m
    bag = []
    for u in range(1, t + 1):
        d = g.degree(u)
        if d == 0:
            bag.append(u)
        elif d == 1:
            cycles[(u,)] = 1
    if r and g.degree(t + 1) == 0:
        cycles[(t + 1,)] = 1
    return RefinedClass(tuple(bag), tuple(sorted(cycles.items())))


def _walk_graphs(
    n: int, vertex_cap: int, max_mult: int, visit: Callable[[ConstrainedGraph], None]
) -> None:
    """Hand every admissible graph with edge multiplicity at most
    ``max_mult`` to ``visit``, once each, in sorted edge-tuple order.

    A depth-first walk over edge lists: each prefix is emitted before its
    extensions, and the next edge (a, b, m) is tried in increasing order
    after the last pair, skipping saturated vertices, so the preorder is the
    sorted order and one call of ``walk`` yields one graph.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    v = _graph_vertex_count(n)
    if v > vertex_cap:
        raise ResourceLimitError(
            f"{v} vertices exceed the vertex cap of {vertex_cap}"
        )
    free = [2] * (v + 1)  # degree each vertex may still take
    if n % 2:
        free[v] = 1
    # options[a][b][room]: the (multiplicity, edge) choices of the pair when
    # the smaller free degree of its ends is room.  Built once, so every
    # graph shares these edge tuples.
    options = [
        [
            [
                tuple((m, (a, b, m)) for m in range(1, min(room, max_mult) + 1))
                for room in range(3)
            ]
            for b in range(v + 1)
        ]
        for a in range(v + 1)
    ]
    edges: list[tuple[int, int, int]] = []

    def walk(a0: int, b0: int) -> None:
        visit(ConstrainedGraph(v, tuple(edges)))
        for a in range(a0, v + 1):
            free_a = free[a]
            if free_a:
                options_a = options[a]
                for b in range(b0 + 1 if a == a0 else a + 1, v + 1):
                    free_b = free[b]
                    if free_b:
                        for mult, edge in options_a[b][free_a if free_a < free_b else free_b]:
                            free[a] = free_a - mult
                            free[b] = free_b - mult
                            edges.append(edge)
                            walk(a, b)
                            edges.pop()
                        free[a] = free_a
                        free[b] = free_b

    walk(1, 1)


def multigraphs(
    n: int, *, vertex_cap: int = DEFAULT_VERTEX_CAP, doubled_edges: bool = True
) -> list[ConstrainedGraph]:
    """Every admissible multigraph for the given n, exactly once, sorted by
    edge tuple.  ``doubled_edges=False`` restricts to simple graphs."""
    out: list[ConstrainedGraph] = []
    _walk_graphs(n, vertex_cap, 2 if doubled_edges else 1, out.append)
    return out


def simple_graphs(n: int, *, vertex_cap: int = DEFAULT_VERTEX_CAP) -> list[ConstrainedGraph]:
    return multigraphs(n, vertex_cap=vertex_cap, doubled_edges=False)


def fiber_size(g: ConstrainedGraph, n: int) -> int:
    """Number of involutions mapping onto the graph: 2**(n//2 - s) where s
    counts doubled edges."""
    _validate_graph(g, n)
    return 2 ** (n // 2 - g.doubled_edge_count())


def involution_weight(pi: Permutation) -> BivariatePoly:
    """Monomial x**(fixed points) * y**(transpositions)."""
    lengths = [len(c) for c in permutation_cycles(pi)]
    if any(length > 2 for length in lengths):
        raise ValueError("permutation is not an involution")
    return BivariatePoly.monomial(lengths.count(1), lengths.count(2))


_HALF_X2_PLUS_Y = BivariatePoly({(2, 0): 1, (0, 1): 1}, 1)


def graph_weight(g: ConstrainedGraph, n: int) -> BivariatePoly:
    """Product of the vertex and edge weights.

    Edges weigh y each (a doubled edge contributes y**2).  An interior
    vertex weighs 1, x, or (x**2+y)/2 as its degree is 2, 1, or 0; the final
    vertex of an odd n weighs 1 at degree 1 and x at degree 0.  The result
    is the average weight of the involutions in the graph's fiber.
    """
    _validate_graph(g, n)
    t, r = divmod(n, 2)
    x_power = 0
    halves = 0
    for u in range(1, t + 1):
        d = g.degree(u)
        if d == 0:
            halves += 1
        elif d == 1:
            x_power += 1
    if r and g.degree(t + 1) == 0:
        x_power += 1
    out = BivariatePoly.monomial(x_power, g.edge_total())
    for _ in range(halves):
        out = out * _HALF_X2_PLUS_Y
    return out


def graph_count_bruteforce(n: int, *, vertex_cap: int = DEFAULT_VERTEX_CAP) -> int:
    """Number of admissible graphs with no doubled edge."""
    return len(simple_graphs(n, vertex_cap=vertex_cap))


def graph_weight_sum_bruteforce(
    n: int, *, vertex_cap: int = DEFAULT_VERTEX_CAP
) -> BivariatePoly:
    """Sum of graph_weight over the admissible graphs with no doubled edge,
    streamed: each graph is added as the walk reaches it, none is kept."""
    total = BivariatePoly.zero()

    def add(g: ConstrainedGraph) -> None:
        nonlocal total
        total = total + graph_weight(g, n)

    _walk_graphs(n, vertex_cap, 1, add)
    return total
