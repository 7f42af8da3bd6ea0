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

One walk at n_max serves every n <= n_max, so each root and each graph is
visited once.  The root walk places each cycle by one recursion from the
largest free letter, which is fixed or on a p-cycle opened at the least of the
letters chosen below it: the roots on n letters are those on n - 1 letters
with n fixed, plus that recursion's cycle branch over 1..n, the roots that
move n.  It tallies them inline by one int key for their labeled-cycle
multiset, for every n in turn: each distinct labeled cycle owns a bit slot,
and placing a cycle adds one to its slot (a key weight looked up once per
element tuple, a least rotation once per label tuple, both in memos local to
the walk).  The oracles decode each distinct key once per n, into the
labeled-cycle counts that give its class and its degrees.
The graph walk visits the graphs for n_max letters in sorted edge order,
trying only the vertices with free degree left (a bitmask), and tallies them
inline by their ``Signature`` packed into one int, with the least n each one
is a graph for above it; each n's tally is read from those tags, and each
distinct signature is unpacked once per n.  One graph is read the same way:
validating it yields its free degrees, which ``graph_signature`` and
``graph_class`` read through the walk's free-degree tables, the one statement
of the vertex rule; a ``Signature`` carries the fiber and weight laws.  Lists
of roots and graphs (``pth_roots``, ``multigraphs``) come from the same two
walks.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from typing import Callable, Iterator, NamedTuple

from .algebra import BivariatePoly, is_prime
from .errors import ExactnessError, ResourceLimitError

__all__ = [
    "DEFAULT_ROOT_CAP",
    "DEFAULT_VERTEX_CAP",
    "Permutation",
    "permutation_cycles",
    "is_pth_root",
    "pth_roots",
    "least_rotation",
    "RefinedClass",
    "refined_class",
    "class_size",
    "ConstrainedGraph",
    "class_graph",
    "graph_class",
    "Signature",
    "graph_signature",
    "multigraphs",
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


def _walk_roots(
    n_max: int, p: int, cap: int, roots: list[Permutation] | None = None
) -> tuple[list[tuple[int, ...]], Iterator[tuple[int, dict[int, int]]]]:
    """Tally the permutations of {1..n} whose p-th power is the identity by
    their cycle key, for every n <= n_max, in one walk of the roots on n_max
    letters.  Return the slot table that decodes the keys and an iterator of
    (n, tally) in ascending n; the walk runs as the iterator is read, and
    when ``roots`` is a list it also receives each root's image tuple on
    n_max letters (``images[i-1]`` is where i goes).

    One recursion, ``build``, places every cycle, from the largest free letter
    down: that letter is either fixed, or on a p-cycle opened at the least of
    p - 1 letters chosen below it, the rest of the cycle in any of its (p-1)!
    orders, with every root of the letters left; once fewer than p letters are
    free, they are all fixed.  The roots on n letters are the roots on n - 1
    letters with n fixed, plus the roots that move n, which are ``build``'s
    cycle branch over 1..n.  So each root on n_max letters is visited once,
    and a tally is the one before it with n's fixed point added to every key,
    plus the roots that move n.  Each distinct labeled cycle (its least
    rotation) owns a slot of ``n_max.bit_length()`` bits in the key, and
    placing a cycle adds one to its slot; a root has at most n_max cycles, so
    no slot carries into the next.  ``_slot_counts`` reads a key back as
    labeled-cycle counts.  Raises ResourceLimitError (naming the predicted
    count at n_max) at the call, before any root is walked.
    """
    if n_max < 0:
        raise ValueError("n must be nonnegative")
    if not is_prime(p):
        raise ValueError(f"p must be prime, got {p}")
    predicted = _predicted_root_count(n_max, p)
    if predicted > cap:
        raise ResourceLimitError(
            f"enumeration of {predicted} p-th roots exceeds the cap of {cap}"
        )
    width = n_max.bit_length()
    track = roots is not None
    images = list(range(1, n_max + 1))
    label = [(x - 1) // p + 1 for x in range(n_max + 1)]
    label_of = label.__getitem__
    slots: list[tuple[int, ...]] = []  # the labeled cycle of each slot
    slot_of: dict[tuple[int, ...], int] = {}

    def slot_weight(cycle: tuple[int, ...]) -> int:
        slot = slot_of.get(cycle)
        if slot is None:
            slot = slot_of[cycle] = len(slots)
            slots.append(cycle)
        return 1 << (width * slot)

    fixed = [slot_weight((label[x],)) if x else 0 for x in range(n_max + 1)]
    # Key weight by element tuple, and least rotation by label tuple, for this
    # walk only: bounded by the cycles the letters can form, not by the roots.
    # Below 2p letters a root has at most one p-cycle and fixes every other
    # letter, so no element tuple recurs and the weights are not kept.
    weights: dict[tuple[int, ...], int] = {}
    keep_weights = n_max >= 2 * p
    rotations: dict[tuple[int, ...], tuple[int, ...]] = {}

    def cycle_weight(cycle: tuple[int, ...]) -> int:
        # A cycle starts at its least element, so its first label is its least.
        labels = tuple(map(label_of, cycle))
        rotation = rotations.get(labels)
        if rotation is None:
            rotation = rotations[labels] = _least_labeled_rotation(labels)
        weight = slot_weight(rotation)
        if keep_weights:
            weights[cycle] = weight
        return weight

    # By the number s of free letters below the largest one: every choice of
    # p - 1 of them, in combinations order, as the position of the least
    # chosen, the mask of the others and the largest among all s + 1 free
    # letters, and the mask of the letters left, for itertools.compress.
    splits = [
        [
            (chosen[0], [i in chosen[1:] or i == s for i in range(s + 1)],
             [i not in chosen for i in range(s)])
            for chosen in itertools.combinations(range(s), p - 1)
        ]
        for s in range(n_max)
    ]
    by_key: dict[int, int] = {0: 1}  # the tally of the roots on n letters

    def build(free: tuple[int, ...], key: int, top_fixed: bool = True) -> None:
        if len(free) < p:
            # No p-cycle fits: the rest are fixed points, one root.
            if top_fixed:
                for x in free:
                    key += fixed[x]
                by_key[key] = by_key.get(key, 0) + 1
                if track:
                    for x in free:
                        images[x - 1] = x
                    roots.append(tuple(images))
            return
        rest, e = free[:-1], free[-1]
        if top_fixed:
            if track:
                images[e - 1] = e
            build(rest, key + fixed[e])
        # e on a p-cycle, opened at the least of the p - 1 letters chosen
        # below it, then every root of the letters left.
        for least, cycle_mask, remaining_mask in splits[len(rest)]:
            first = rest[least]
            remaining = tuple(itertools.compress(rest, remaining_mask))
            for order in itertools.permutations(itertools.compress(free, cycle_mask)):
                cycle = (first, *order)
                if track:
                    for x, y in zip(cycle, (*order, first)):
                        images[x - 1] = y
                build(remaining, key + (weights.get(cycle) or cycle_weight(cycle)))

    def tallies() -> Iterator[tuple[int, dict[int, int]]]:
        nonlocal by_key
        if track:
            roots.append(tuple(images))
        yield 0, by_key
        for n in range(1, n_max + 1):
            step = fixed[n]
            by_key = {key + step: count for key, count in by_key.items()}
            build(tuple(range(1, n + 1)), 0, top_fixed=False)  # the roots that move n
            yield n, by_key

    return slots, tallies()


def _slot_counts(key: int, slots: list[tuple[int, ...]], width: int) -> dict[tuple[int, ...], int]:
    """The labeled-cycle counts packed into ``key`` in slots of ``width``
    bits, read against the slot table of the walk that packed it."""
    mask = (1 << width) - 1
    counts = {}
    for slot, cycle in enumerate(slots):
        mult = key >> (width * slot) & mask
        if mult:
            counts[cycle] = mult
    return counts


def pth_roots(n: int, p: int, *, cap: int = DEFAULT_ROOT_CAP) -> list[Permutation]:
    """All permutations of {1..n} whose p-th power is the identity, in
    lexicographic order of image tuples."""
    out: list[Permutation] = []
    _, tallies = _walk_roots(n, p, cap, out)
    for _ in tallies:  # the walk lists the roots as its tallies are read
        pass
    out.sort()
    return out


def least_rotation(cycle: tuple[int, ...]) -> tuple[int, ...]:
    """Lexicographically least rotation; reflections are NOT identified, so
    (4,5,6) and (4,6,5) stay distinct."""
    return min(cycle[i:] + cycle[:i] for i in range(len(cycle)))


def _least_labeled_rotation(labels: "tuple[int, ...] | list[int]") -> tuple[int, ...]:
    """Least rotation of a labeled cycle whose first label is its least:
    only the rotations that start with that label compete."""
    low = labels[0]
    if labels.count(low) == 1:
        return tuple(labels)
    return min(
        tuple(labels[i:] + labels[:i]) for i, label in enumerate(labels) if label == low
    )


class RefinedClass(NamedTuple):
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


def _class_from_counts(counts: dict[tuple[int, ...], int], n: int, p: int) -> RefinedClass:
    """The refined class of the roots on n letters with these labeled-cycle
    counts: fully used block labels go to the bag, the rest stay cycles."""
    t = n // p
    bag = []
    rest = []
    for cyc, mult in counts.items():
        label = cyc[0]  # the least label: cycles are least rotations
        if label <= t and (
            (len(cyc) == 1 and mult == p)
            or (len(cyc) == p and max(cyc) == label)
        ):
            bag.append(label)
        else:
            rest.append((cyc, mult))
    return RefinedClass(tuple(sorted(bag)), tuple(sorted(rest)))


def refined_class(pi: Permutation, p: int) -> RefinedClass:
    cycles = permutation_cycles(pi)
    if any(p % len(cycle) for cycle in cycles):
        raise ValueError("permutation is not a p-th root of the identity")
    # Each cycle starts at its least element, so its first label is its least.
    labeled = (_least_labeled_rotation([(x - 1) // p + 1 for x in cycle]) for cycle in cycles)
    return _class_from_counts(Counter(labeled), len(pi), p)


def _classes(
    by_key: dict[int, int], slots: list, width: int, n: int, p: int,
    extra: Callable[[dict], object] | None,
) -> dict:
    # Each distinct key of a tally of the roots on n letters, decoded, classed
    # and read by ``extra`` once.
    counts: dict = {}
    for key, count in by_key.items():
        cycles = _slot_counts(key, slots, width)
        out = _class_from_counts(cycles, n, p)
        if extra is not None:
            out = (out, extra(cycles))
        counts[out] = counts.get(out, 0) + count
    return counts


def _class_tallies(
    n_max: int, p: int, cap: int, extra: Callable[[dict], object] | None = None
) -> Iterator[tuple[int, dict]]:
    """(n, the p-th roots on n letters counted by refined class) for n = 0 ..
    n_max in turn, or counted by (class, ``extra(counts)``) when ``extra`` is
    given, where ``counts`` are the roots' labeled-cycle counts.  One root
    walk at n_max serves every n, and runs as the tallies are read; the cap
    is checked at the call.  No root is kept."""
    slots, tallies = _walk_roots(n_max, p, cap)
    width = n_max.bit_length()
    return ((n, _classes(by_key, slots, width, n, p, extra)) for n, by_key in tallies)


def _validate_refined_class(cls: RefinedClass, p: int, n: int) -> None:
    if n < 0:
        raise ValueError("n must be nonnegative")
    if not is_prime(p):
        raise ValueError(f"p must be prime, got {p}")
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
    return _class_size(cls, p, n)


def _class_size(cls: RefinedClass, p: int, n: int) -> int:
    # class_size for a class already validated at (p, n).
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


class ConstrainedGraph(NamedTuple):
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


def _free_degrees(n: int) -> list[int]:
    """The degree each vertex for n letters may take, vertex u at index u
    (index 0, no vertex, holds 0): two, or one for the last vertex of an odd n."""
    free = [0] + [2] * _graph_vertex_count(n)
    if n % 2:
        free[-1] = 1
    return free


def _validate_graph(g: ConstrainedGraph, n: int) -> list[int]:
    """Check ``g`` against n and return its free degrees (as ``_free_degrees``
    lists them, less each vertex's degree in ``g``)."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    free = _free_degrees(n)
    v = len(free) - 1
    if g.vertex_count != v:
        raise ValueError(f"graph has {g.vertex_count} vertices, n={n} needs {v}")
    prev_a = prev_b = 0
    for a, b, m in g.edges:
        if not (1 <= a < b <= v):
            raise ValueError(f"bad edge endpoints ({a}, {b})")
        if m != 1 and m != 2:
            raise ValueError(f"edge ({a}, {b}) has multiplicity {m}")
        if a < prev_a or (a == prev_a and b <= prev_b):
            raise ValueError("edges not sorted by endpoints / duplicate pair")
        prev_a, prev_b = a, b
        free[a] -= m
        free[b] -= m
    if min(free) < 0:
        u, limit = next((u, limit) for u, limit in enumerate(_free_degrees(n)) if free[u] < 0)
        raise ValueError(f"vertex {u} has degree {limit - free[u]} > {limit}")
    return free


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


# The vertex rule, by free degree: a vertex with one left keeps a fixed point
# and weighs x (an interior vertex of degree one, or the final vertex of an
# odd n at degree zero), and an interior vertex with two left is isolated: a
# bag label, weighing (x**2 + y)/2.
_X_AT_FREE = (0, 1, 0)
_ISOLATED_AT_FREE = (0, 0, 1)


def graph_class(g: ConstrainedGraph, n: int) -> RefinedClass:
    """Inverse of class_graph: the edges are the 2-cycles, and the vertex
    rule (``_X_AT_FREE``, ``_ISOLATED_AT_FREE``) gives the fixed points and
    the bag."""
    free = _validate_graph(g, n)
    cycles = {(a, b): m for a, b, m in g.edges}
    cycles.update(((u,), 1) for u, f in enumerate(free) if _X_AT_FREE[f])
    bag = tuple(u for u, f in enumerate(free) if _ISOLATED_AT_FREE[f])
    return RefinedClass(bag, tuple(sorted(cycles.items())))


_HALF_X2_PLUS_Y = BivariatePoly({(2, 0): 1, (0, 1): 1}, 1)


class Signature(NamedTuple):
    """What a graph's fiber size and weight depend on: its doubled edges,
    the power of x its vertices carry, its isolated interior vertices, and
    its edge total."""

    doubled: int
    x_power: int
    isolated: int
    edge_total: int

    def fiber_size(self, n: int) -> int:
        """Involutions on n letters mapping onto a graph of this signature:
        2**(n//2 - doubled)."""
        return 1 << (n // 2 - self.doubled)

    def weight(self) -> BivariatePoly:
        """x**x_power * y**edge_total * ((x**2 + y)/2)**isolated: the average
        weight of the involutions in the fiber."""
        out = BivariatePoly.monomial(self.x_power, self.edge_total)
        for _ in range(self.isolated):
            out = out * _HALF_X2_PLUS_Y
        return out


def _vertex_fields(free: list[int]) -> tuple[int, int]:
    """(x power, isolated interior vertices) of a graph with these free degrees."""
    return sum(_X_AT_FREE[f] for f in free), sum(_ISOLATED_AT_FREE[f] for f in free)


def graph_signature(g: ConstrainedGraph, n: int) -> Signature:
    """The signature of ``g`` as a graph for n letters."""
    free = _validate_graph(g, n)
    mults = [m for _, _, m in g.edges]
    return Signature(mults.count(2), *_vertex_fields(free), sum(mults))


class _Members(dict):
    """Bitmask -> the set bits of it, in increasing order; each mask is
    split once, when it is first looked up."""

    def __missing__(self, mask: int) -> tuple[int, ...]:
        bits = self[mask] = tuple(u for u in range(mask.bit_length()) if mask >> u & 1)
        return bits


def _walk_graphs(
    n_max: int,
    vertex_cap: int,
    max_mult: int,
    graphs: list[tuple[int, tuple[tuple[int, int, int], ...]]] | None = None,
) -> dict[int, int]:
    """Count the admissible graphs for n_max letters with edge multiplicity
    at most ``max_mult`` by tagged signature, in one walk; when ``graphs`` is
    a list it also receives each graph's (tag, edge tuple), in sorted
    edge-tuple order.

    The graphs for n <= n_max letters are the graphs for n_max whose
    vertices above (n + 1)//2 are isolated and, for odd n, whose vertex
    (n + 1)//2 has degree at most one.  So each graph is tagged with the
    least n it is a graph for: 2u, or 2u - 1 when its highest touched vertex
    u has degree one (0 for the empty graph), and it is a graph for every n
    from its tag to n_max.  ``_signatures_at`` reads each n's tally from the
    tagged one.

    A depth-first walk over edge lists: each prefix is counted before its
    extensions, and the next edge (a, b, m) is tried in increasing order
    after the last pair, over only the vertices with free degree left (a
    bitmask), so the preorder is the sorted order and one call of ``walk``
    reaches one graph.  The signature is one int with the four fields of
    ``Signature`` (as a graph for n_max letters) in ``v.bit_length()``-bit
    fields, lowest first (each field is at most v), and the tag above them;
    from the empty graph's, the fields are updated edge by edge from each
    endpoint's free degree by one packed step, and the tag is the largest
    that an edge's upper end b would give as the highest touched vertex
    (its lower end a never raises it: 2a < 2b - 1), so no graph is re-read.
    Raises ResourceLimitError before walking when the graphs for n_max have
    more vertices than ``vertex_cap``.
    """
    if n_max < 0:
        raise ValueError("n must be nonnegative")
    v = _graph_vertex_count(n_max)
    if v > vertex_cap:
        raise ResourceLimitError(
            f"{v} vertices exceed the vertex cap of {vertex_cap}"
        )
    width = v.bit_length()
    shift = 4 * width  # the tag's place, above the four fields
    limit = _free_degrees(n_max)
    free = limit.copy()  # degree each vertex may still take
    track = graphs is not None

    def pair_options(a: int, b: int) -> list[list[tuple]]:
        """By [free_a][free_b]: the (multiplicity, edge, live mask to keep,
        packed signature step, tag with b the highest touched vertex) of
        each edge the pair can still take."""
        edges = [(a, b, m) for m in range(3)]  # shared by every graph
        return [
            [
                tuple(
                    (
                        m,
                        edges[m],
                        ~((free_a == m) << a | (free_b == m) << b),
                        _pack_signature(
                            width,
                            int(m == 2),
                            sum(_X_AT_FREE[f - m] - _X_AT_FREE[f] for f in (free_a, free_b)),
                            sum(_ISOLATED_AT_FREE[f - m] - _ISOLATED_AT_FREE[f]
                                for f in (free_a, free_b)),
                            m,
                        ),
                        2 * b - (limit[b] - free_b + m <= 1) << shift,
                    )
                    for m in range(1, min(free_a, free_b, max_mult) + 1)
                )
                for free_b in range(3)
            ]
            for free_a in range(3)
        ]

    # Built once per walk; only pairs a < b are ever tried.
    options = [[pair_options(a, b) if a < b else None for b in range(v + 1)] for a in range(v + 1)]
    edges: list[tuple[int, int, int]] = []
    counts: dict[int, int] = {}
    members = _Members()

    def walk(a0: int, b0: int, live: int, signature: int, tag: int) -> None:
        key = signature + tag
        counts[key] = counts.get(key, 0) + 1
        if track:
            graphs.append((tag >> shift, tuple(edges)))
        for a in members[live >> a0 << a0]:
            free_a = free[a]
            options_a = options[a]
            start = b0 + 1 if a == a0 else a + 1
            for b in members[live >> start << start]:
                free_b = free[b]
                for mult, edge, keep, step, tag_b in options_a[b][free_a][free_b]:
                    free[a] = free_a - mult
                    free[b] = free_b - mult
                    if track:
                        edges.append(edge)
                    walk(a, b, live & keep, signature + step, tag_b if tag_b > tag else tag)
                    if track:
                        edges.pop()
                free[a] = free_a
                free[b] = free_b

    walk(1, 1, (1 << (v + 1)) - 2, _pack_signature(width, 0, *_vertex_fields(free), 0), 0)
    return counts


def _pack_signature(width: int, *fields: int) -> int:
    """Signature fields (or signed steps of them) as one int, field i at bit
    ``width * i``; a sum of packed steps packs the summed fields as long as
    every field stays within 0 .. 2**width - 1."""
    return sum(f << (width * i) for i, f in enumerate(fields))


def _unpack_signature(signature: int, width: int) -> Signature:
    """The four fields of a signature packed in ``width``-bit fields."""
    mask = (1 << width) - 1
    return Signature(*(signature >> width * i & mask for i in range(3)), signature >> 3 * width)


def _signature_step(n: int, n_max: int, width: int, degree: int) -> int:
    """The packed step from a graph's signature for n_max letters to its
    signature for n letters, when vertex (n + 1)//2 has ``degree`` (so every
    vertex above it is isolated): those vertices go, and the last vertex of
    an odd n may take one degree less.  Read through the vertex rule."""
    free_max, free_n = _free_degrees(n_max), _free_degrees(n)
    last = len(free_n) - 1
    x_power, isolated = _vertex_fields([free_n[last] - degree])
    x_max, isolated_max = _vertex_fields([free_max[last] - degree, *free_max[last + 1:]])
    return _pack_signature(width, 0, x_power - x_max, isolated - isolated_max)


def _signatures_at(tagged: dict[int, int], n: int, n_max: int) -> dict[Signature, int]:
    """The graphs for n letters counted by signature, read from a tagged
    tally of the graphs for n_max: the ones tagged at most n.  Only a graph
    tagged n, for an odd n, touches vertex (n + 1)//2, at degree one."""
    width = _graph_vertex_count(n_max).bit_length()
    shift = 4 * width
    fields = (1 << shift) - 1
    untouched = _signature_step(n, n_max, width, 0)
    met = _signature_step(n, n_max, width, 1) if n % 2 else untouched
    counts: dict[int, int] = {}
    for key, count in tagged.items():
        tag = key >> shift
        if tag <= n:
            signature = (key & fields) + (met if tag == n else untouched)
            counts[signature] = counts.get(signature, 0) + count
    return {_unpack_signature(signature, width): count for signature, count in counts.items()}


def _graph_tallies(
    n_max: int, vertex_cap: int, max_mult: int
) -> Iterator[tuple[int, dict[Signature, int]]]:
    """(n, the admissible graphs for n letters counted by signature) for n =
    0 .. n_max in turn, from one graph walk at n_max, made at the call; no
    graph is built."""
    tagged = _walk_graphs(n_max, vertex_cap, max_mult)
    return ((n, _signatures_at(tagged, n, n_max)) for n in range(n_max + 1))


def _multigraphs_by_n(
    n_max: int, vertex_cap: int
) -> Iterator[tuple[int, list[ConstrainedGraph]]]:
    """(n, ``multigraphs(n)``) for n = 0 .. n_max in turn, from one graph
    walk at n_max, made at the call."""
    graphs: list = []
    _walk_graphs(n_max, vertex_cap, 2, graphs)
    return (
        (n, [ConstrainedGraph(_graph_vertex_count(n), edges) for tag, edges in graphs if tag <= n])
        for n in range(n_max + 1)
    )


def multigraphs(n: int, *, vertex_cap: int = DEFAULT_VERTEX_CAP) -> list[ConstrainedGraph]:
    """Every admissible multigraph for the given n, exactly once, sorted by
    edge tuple."""
    graphs: list = []
    _walk_graphs(n, vertex_cap, 2, graphs)
    v = _graph_vertex_count(n)
    return [ConstrainedGraph(v, edges) for _, edges in graphs]


def fiber_size(g: ConstrainedGraph, n: int) -> int:
    """Number of involutions mapping onto the graph (``Signature.fiber_size``)."""
    return graph_signature(g, n).fiber_size(n)


def _involution_degrees(pi: Permutation) -> tuple[int, int]:
    """(fixed points, transpositions) of an involution; anything else
    raises ValueError."""
    fixed = 0
    for i, j in enumerate(pi, 1):
        if j == i:
            fixed += 1
        elif pi[j - 1] != i:
            raise ValueError("permutation is not an involution")
    return fixed, (len(pi) - fixed) // 2


def involution_weight(pi: Permutation) -> BivariatePoly:
    """Monomial x**(fixed points) * y**(transpositions)."""
    return BivariatePoly.monomial(*_involution_degrees(pi))


def graph_weight(g: ConstrainedGraph, n: int) -> BivariatePoly:
    """Average weight of the involutions in the graph's fiber
    (``Signature.weight``)."""
    return graph_signature(g, n).weight()


def graph_count_bruteforce(n: int, *, vertex_cap: int = DEFAULT_VERTEX_CAP) -> int:
    """Number of admissible graphs with no doubled edge."""
    return sum(_walk_graphs(n, vertex_cap, 1).values())


def graph_weight_sum_bruteforce(
    n: int, *, vertex_cap: int = DEFAULT_VERTEX_CAP
) -> BivariatePoly:
    """Sum of graph_weight over the admissible graphs with no doubled edge."""
    *_, (_, tally) = _graph_tallies(n, vertex_cap, 1)
    return _weight_sum(tally)


def _weight_sum(tally: dict[Signature, int]) -> BivariatePoly:
    """Sum of the weights of the graphs in a tally: one weight per
    signature, times the number of graphs that carry it."""
    total = BivariatePoly.zero()
    for signature, count in tally.items():
        total = total + count * signature.weight()
    return total
