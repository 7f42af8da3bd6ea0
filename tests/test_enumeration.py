"""Oracle-layer tests: the enumerations themselves are validated against
filtering all of S_n, hand counts, and the published worked example, and the
counting formulas are validated against grouping the enumerations.
"""

import itertools
import re
import tracemalloc
from collections import Counter

import pytest

from involution_lab import checks, enumeration
from involution_lab.algebra import BivariatePoly
from involution_lab.checks import CHECKS
from involution_lab.enumeration import (
    ConstrainedGraph,
    RefinedClass,
    class_graph,
    class_size,
    fiber_size,
    graph_class,
    graph_count_bruteforce,
    graph_weight,
    graph_weight_sum_bruteforce,
    involution_weight,
    is_pth_root,
    least_rotation,
    multigraphs,
    permutation_cycles,
    pth_roots,
    refined_class,
)
from involution_lab.errors import ResourceLimitError
from involution_lab.sequences import graph_count, graph_poly, involution_count, pth_root_count

from conftest import CLI, fresh_run


def filtered_pth_roots(n, p):
    """Micro-oracle: filter all n! permutations.  Only sensible for n <= 7;
    exists to cross-check the enumeration walk."""
    return [
        pi
        for pi in itertools.permutations(range(1, n + 1))
        if is_pth_root(pi, p)
    ]


def last_class_tally(n, p, extra=None):
    """The roots on n letters counted by refined class (and ``extra``): the
    last tally of a walk at n."""
    *_, (_, tally) = enumeration._class_tallies(n, p, enumeration.DEFAULT_ROOT_CAP, extra)
    return tally


def last_graph_tally(n, max_mult):
    """The admissible graphs for n letters counted by signature: the last
    tally of a walk at n."""
    *_, (_, tally) = enumeration._graph_tallies(n, 8, max_mult)
    return tally


def label_cycles(pi, p):
    """Multiset of labeled cycles of pi, rebuilt from the cycle
    decomposition: check the root, then apply the label (i-1)//p + 1
    entrywise to each disjoint cycle and take its least rotation."""
    if not is_pth_root(pi, p):
        raise ValueError("permutation is not a p-th root of the identity")
    out = Counter()
    for cyc in permutation_cycles(pi):
        out[least_rotation(tuple((i - 1) // p + 1 for i in cyc))] += 1
    return out


def simple_graphs(n):
    """The admissible graphs with no doubled edge, from the multigraphs."""
    return [g for g in multigraphs(n) if g.doubled_edge_count() == 0]


def perm_from_cycles(n, cycles):
    """Build an image tuple from disjoint cycles (fixed points implicit)."""
    images = list(range(n + 1))
    for cyc in cycles:
        for i, e in enumerate(cyc):
            images[e] = cyc[(i + 1) % len(cyc)]
    return tuple(images[1:])


# The worked example: a 29-letter cube root of the identity.
EXAMPLE_PI = perm_from_cycles(
    29,
    [
        (1, 6, 8),
        (2, 4, 9),
        (3, 5, 7),
        (10, 15, 17),
        (12, 16, 14),
        (19, 20, 21),
        (27, 28, 29),
    ],
)


class TestPthRoots:
    def test_counts(self):
        assert len(pth_roots(4, 2)) == 10
        assert pth_roots(0, 2) == [()]
        assert len(pth_roots(6, 3)) == 81

    def test_sorted_unique_and_valid(self):
        roots = pth_roots(6, 3)
        assert roots == sorted(set(roots))
        assert all(is_pth_root(pi, 3) for pi in roots)

    @pytest.mark.parametrize("n,p", [(0, 2), (1, 2), (4, 2), (6, 2), (5, 3), (6, 3), (5, 5)])
    def test_matches_filter_oracle(self, n, p):
        assert pth_roots(n, p) == filtered_pth_roots(n, p)

    def test_cap_names_predicted_count(self):
        with pytest.raises(ResourceLimitError, match="9496"):
            pth_roots(10, 2, cap=9495)

    def test_nonprime_rejected(self):
        with pytest.raises(ValueError):
            pth_roots(4, 4)

    def test_cycles(self):
        assert permutation_cycles((2, 1, 3)) == [(1, 2), (3,)]
        assert permutation_cycles(EXAMPLE_PI)[0] == (1, 6, 8)


class TestLabelMap:
    def test_worked_example(self):
        labeled = label_cycles(EXAMPLE_PI, 3)
        assert refined_class(EXAMPLE_PI, 3) == reference_refined_class(EXAMPLE_PI, 3)
        assert dict(labeled) == {
            (1, 2, 3): 3,
            (4, 5, 6): 1,
            (4,): 1,
            (4, 6, 5): 1,
            (5,): 1,
            (6,): 1,
            (7, 7, 7): 1,
            (8,): 3,
            (9,): 2,
            (9, 10, 10): 1,
        }

    def test_identity_of_s2(self):
        assert dict(label_cycles((1, 2), 2)) == {(1,): 2}

    def test_double_transposition(self):
        pi = perm_from_cycles(4, [(1, 2), (3, 4)])
        assert dict(label_cycles(pi, 2)) == {(1, 1): 1, (2, 2): 1}

    def test_non_root_rejected(self):
        with pytest.raises(ValueError):
            label_cycles((2, 3, 1), 2)

    def test_least_rotation_keeps_orientation(self):
        assert least_rotation((4, 6, 5)) == (4, 6, 5)
        assert least_rotation((6, 5, 4)) == (4, 6, 5)
        assert least_rotation((4, 5, 6)) != (4, 6, 5)


class TestRefinedClass:
    def test_worked_example(self):
        cls = refined_class(EXAMPLE_PI, 3)
        assert cls.bag == (7, 8)
        assert dict(cls.cycles) == {
            (1, 2, 3): 3,
            (4, 5, 6): 1,
            (4, 6, 5): 1,
            (9, 10, 10): 1,
            (4,): 1,
            (5,): 1,
            (6,): 1,
            (9,): 2,
        }

    def test_identity_of_s4(self):
        cls = refined_class((1, 2, 3, 4), 2)
        assert cls == RefinedClass((1, 2), ())

    def test_crossing_double_transposition(self):
        pi = perm_from_cycles(4, [(1, 3), (2, 4)])
        assert refined_class(pi, 2) == RefinedClass((), (((1, 2), 2),))


def reference_refined_class(pi, p):
    t = len(pi) // p
    bag = []
    rest = {}
    for cyc, mult in label_cycles(pi, p).items():
        label = cyc[0]
        if len(cyc) == p and len(set(cyc)) == 1 and label <= t:
            bag.append(label)
        elif len(cyc) == 1 and mult == p and label <= t:
            bag.append(label)
        else:
            rest[cyc] = mult
    return RefinedClass(tuple(sorted(bag)), tuple(sorted(rest.items())))


class TestAgainstReference:
    @pytest.mark.parametrize("p,n_max", [(2, 9), (3, 9), (5, 7)])
    def test_every_root(self, p, n_max):
        for n in range(n_max + 1):
            for pi in pth_roots(n, p):
                assert refined_class(pi, p) == reference_refined_class(pi, p)

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_every_non_root_of_six_letters(self, p):
        non_roots = 0
        for pi in itertools.permutations(range(1, 7)):
            if is_pth_root(pi, p):
                continue
            non_roots += 1
            for f in (refined_class, label_cycles):
                with pytest.raises(ValueError) as exc:
                    f(pi, p)
                assert str(exc.value) == "permutation is not a p-th root of the identity"
        assert non_roots == 720 - len(pth_roots(6, p))


class TestClassSize:
    def test_worked_example(self):
        cls = refined_class(EXAMPLE_PI, 3)
        assert class_size(cls, 3, 29) == 419904

    def test_full_bag_class(self):
        # {1, 2; -} collects id, (12), (34), (12)(34): both blocks are either
        # a transposition or two fixed points.
        cls = RefinedClass((1, 2), ())
        assert class_size(cls, 2, 4) == 4
        members = [pi for pi in pth_roots(4, 2) if refined_class(pi, 2) == cls]
        assert len(members) == 4

    def test_doubled_pair_class(self):
        cls = RefinedClass((), (((1, 2), 2),))
        assert class_size(cls, 2, 4) == 2
        members = [pi for pi in pth_roots(4, 2) if refined_class(pi, 2) == cls]
        assert members == [
            perm_from_cycles(4, [(1, 3), (2, 4)]),
            perm_from_cycles(4, [(1, 4), (2, 3)]),
        ]

    def test_inconsistent_class_rejected(self):
        with pytest.raises(ValueError):
            class_size(RefinedClass((1,), ()), 2, 2 + 4)  # label 2 unused
        with pytest.raises(ValueError):
            class_size(RefinedClass((), (((1, 1), 1),)), 2, 2)  # type A in cycles

    def test_bad_p_or_n_rejected(self):
        empty = RefinedClass((), ())
        for p in (4, 1, 0):
            with pytest.raises(ValueError, match=f"p must be prime, got {p}"):
                class_size(empty, p, 0)
        half_block = RefinedClass((), (((0,), 1),))
        with pytest.raises(ValueError, match="n must be nonnegative"):
            class_size(half_block, 2, -1)
        with pytest.raises(ValueError, match="n must be nonnegative"):
            class_graph(half_block, -1)

    @pytest.mark.parametrize("p,n_max", [(2, 8), (3, 8), (5, 6)])
    def test_formula_equals_grouping(self, p, n_max):
        for n in range(n_max + 1):
            groups = {}
            for pi in pth_roots(n, p):
                groups.setdefault(refined_class(pi, p), []).append(pi)
            for cls, members in groups.items():
                assert class_size(cls, p, n) == len(members)
            assert sum(map(len, groups.values())) == len(pth_roots(n, p))


class TestGraphs:
    def test_class_graph_examples(self):
        double = class_graph(RefinedClass((), (((1, 2), 2),)), 4)
        assert double == ConstrainedGraph(2, ((1, 2, 2),))
        empty = class_graph(RefinedClass((1, 2), ()), 4)
        assert empty == ConstrainedGraph(2, ())
        single = class_graph(
            RefinedClass((), (((1, 2), 1), ((1,), 1), ((2,), 1), ((3,), 1))), 5
        )
        assert single == ConstrainedGraph(3, ((1, 2, 1),))

    def test_negative_n_rejected(self):
        # (n + 1)//2 is 0 at n = -1, so the vertex count alone let it through.
        empty = ConstrainedGraph(0, ())
        for read in (fiber_size, graph_weight, graph_class):
            with pytest.raises(ValueError, match="n must be nonnegative"):
                read(empty, -1)

    def test_degree_over_its_limit_names_the_vertex(self):
        with pytest.raises(ValueError, match=r"^vertex 2 has degree 3 > 2$"):
            graph_class(ConstrainedGraph(3, ((1, 2, 2), (2, 3, 1))), 6)
        with pytest.raises(ValueError, match=r"^vertex 3 has degree 2 > 1$"):
            enumeration.graph_signature(ConstrainedGraph(3, ((1, 3, 1), (2, 3, 1))), 5)

    def test_graph_class_round_trip(self):
        for n in range(10):
            for pi in pth_roots(n, 2):
                cls = refined_class(pi, 2)
                assert graph_class(class_graph(cls, n), n) == cls

    def test_enumeration_counts(self):
        assert len(multigraphs(4)) == 3
        assert len(multigraphs(1)) == 1
        assert len(multigraphs(0)) == 1
        assert multigraphs(0) == [ConstrainedGraph(0, ())]
        assert sum(last_graph_tally(7, 1).values()) == 26
        assert graph_count_bruteforce(8) == 41
        assert graph_count_bruteforce(0) == 1

    def test_enumeration_is_sorted_and_valid(self):
        graphs = multigraphs(9)
        assert graphs == sorted(graphs, key=lambda g: g.edges)
        assert len(set(graphs)) == len(graphs)
        for g in graphs:
            assert g.degree(5) <= 1  # final vertex of an odd n
            assert all(m in (1, 2) for _, _, m in g.edges)

    def test_vertex_cap(self):
        with pytest.raises(ResourceLimitError):
            multigraphs(40)
        # Nine vertices pass a cap of 9: stop at the first graph, rather
        # than walk all 2,313,638 of them.
        class FirstGraph(Exception):
            pass

        class Stop(list):
            def append(self, graph):
                raise FirstGraph

        with pytest.raises(FirstGraph):
            enumeration._walk_graphs(18, 9, 2, Stop())

    @pytest.mark.parametrize("n", range(11))
    def test_matches_filter_oracle(self, n):
        # Every assignment of a multiplicity to every vertex pair, kept when
        # the degrees are within their limits, then sorted: the graph twin of
        # filtered_pth_roots.
        v = (n + 1) // 2
        limit = [2] * (v + 1)
        if n % 2:
            limit[v] = 1
        pairs = list(itertools.combinations(range(1, v + 1), 2))
        for max_mult in (2, 1):
            graphs = []
            for mults in itertools.product(range(max_mult + 1), repeat=len(pairs)):
                deg = [0] * (v + 1)
                for (a, b), m in zip(pairs, mults):
                    deg[a] += m
                    deg[b] += m
                if all(d <= cap for d, cap in zip(deg, limit)):
                    edges = tuple((a, b, m) for (a, b), m in zip(pairs, mults) if m)
                    graphs.append(ConstrainedGraph(v, edges))
            if max_mult == 2:
                assert multigraphs(n) == sorted(graphs)
            else:  # the walk at multiplicity 1, by signature
                expected = Counter(reference_signature(g, n) for g in graphs)
                assert last_graph_tally(n, 1) == expected

    def test_classes_biject_with_graphs(self):
        for n in range(9):
            classes = {refined_class(pi, 2) for pi in pth_roots(n, 2)}
            assert sorted(class_graph(c, n) for c in classes) == sorted(multigraphs(n))

    def test_doubled_edge_count(self):
        assert ConstrainedGraph(2, ((1, 2, 2),)).doubled_edge_count() == 1
        assert ConstrainedGraph(2, ()).doubled_edge_count() == 0
        g = ConstrainedGraph(4, ((1, 2, 2), (3, 4, 2)))
        assert g.doubled_edge_count() == 2

    def test_fiber_sizes(self):
        assert fiber_size(ConstrainedGraph(2, ((1, 2, 2),)), 4) == 2
        assert fiber_size(ConstrainedGraph(2, ()), 4) == 4
        assert fiber_size(ConstrainedGraph(3, ((1, 2, 1),)), 5) == 4

    def test_fiber_size_agrees_with_class_size(self):
        for n in range(10):
            for g in multigraphs(n):
                assert fiber_size(g, n) == class_size(graph_class(g, n), 2, n)

    def test_fiber_sizes_sum_to_involution_count(self):
        for n in range(11):
            total = sum(fiber_size(g, n) for g in multigraphs(n))
            assert total == involution_count(n)


class TestJsonForms:
    def test_refined_class_golden(self):
        # Canonical JSON of the refined classes of the 10 involutions on 4
        # letters, frozen: sorted bags, sorted (cycle, multiplicity) pairs.
        classes = sorted(
            {refined_class(pi, 2) for pi in pth_roots(4, 2)},
            key=lambda c: (c.bag, c.cycles),
        )
        assert [c.to_json_obj() for c in classes] == [
            {"bag": [], "cycles": [[[1], 1], [[1, 2], 1], [[2], 1]]},
            {"bag": [], "cycles": [[[1, 2], 2]]},
            {"bag": [1, 2], "cycles": []},
        ]

    def test_graph_golden(self):
        # Note the absent {1,3},{2,3} pair: vertex 3 is the trailing vertex
        # of the odd n and only carries degree one.
        assert [g.to_json_obj() for g in multigraphs(5)] == [
            {"vertices": 3, "edges": []},
            {"vertices": 3, "edges": [[1, 2, 1]]},
            {"vertices": 3, "edges": [[1, 2, 1], [1, 3, 1]]},
            {"vertices": 3, "edges": [[1, 2, 1], [2, 3, 1]]},
            {"vertices": 3, "edges": [[1, 2, 2]]},
            {"vertices": 3, "edges": [[1, 3, 1]]},
            {"vertices": 3, "edges": [[2, 3, 1]]},
        ]


class TestWeights:
    def test_involution_weight_examples(self):
        assert involution_weight((1, 2, 3)) == BivariatePoly.monomial(3, 0)
        pi = perm_from_cycles(4, [(1, 2), (3, 4)])
        assert involution_weight(pi) == BivariatePoly.monomial(0, 2)
        pi = perm_from_cycles(5, [(1, 2)])
        assert involution_weight(pi) == BivariatePoly.monomial(3, 1)
        with pytest.raises(ValueError):
            involution_weight((2, 3, 1))

    def test_graph_weight_examples(self):
        x2_plus_y_half = BivariatePoly({(2, 0): 1, (0, 1): 1}, 1)
        assert graph_weight(ConstrainedGraph(1, ()), 2) == x2_plus_y_half
        assert graph_weight(ConstrainedGraph(2, ((1, 2, 1),)), 4) == BivariatePoly.monomial(2, 1)
        assert graph_weight(ConstrainedGraph(2, ()), 3) == x2_plus_y_half.shift(1, 0)

    def test_weight_identity(self):
        # Sum of involution weights over a fiber = fiber size * graph weight.
        for n in range(9):
            groups = {}
            for pi in pth_roots(n, 2):
                groups.setdefault(refined_class(pi, 2), []).append(pi)
            for cls, members in groups.items():
                g = class_graph(cls, n)
                total = BivariatePoly.zero()
                for pi in members:
                    total = total + involution_weight(pi)
                assert total == fiber_size(g, n) * graph_weight(g, n)

    @pytest.mark.parametrize("n", range(13))
    def test_streamed_weight_sum_matches_list(self, n):
        total = BivariatePoly.zero()
        for g in simple_graphs(n):
            total = total + graph_weight(g, n)
        assert graph_weight_sum_bruteforce(n) == total

    def test_bruteforce_weight_sums(self):
        assert graph_weight_sum_bruteforce(4).evaluate(1, -1) == -1
        for n in range(10):
            poly = graph_weight_sum_bruteforce(n)
            assert poly.evaluate(1, 1) == graph_count_bruteforce(n)


def reference_signature(g, n):
    """(doubled edges, x power, isolated interior vertices, edge total) read
    from the public per-graph functions."""
    t, r = divmod(n, 2)
    degrees = [g.degree(u) for u in range(1, t + 1)]
    x_power = degrees.count(1) + (1 if r and g.degree(t + 1) == 0 else 0)
    return (g.doubled_edge_count(), x_power, degrees.count(0), g.edge_total())


def edge_signature(edges, n):
    """reference_signature read straight off an edge list, by a degree table."""
    t, r = divmod(n, 2)
    degree = [0] * (t + 2)
    for a, b, m in edges:
        degree[a] += m
        degree[b] += m
    interior = degree[1:t + 1]
    x_power = interior.count(1) + (1 if r and degree[t + 1] == 0 else 0)
    doubled = sum(m == 2 for _, _, m in edges)
    return (doubled, x_power, interior.count(0), sum(m for _, _, m in edges))


def reference_graph_for(edges, n):
    """Whether the edges make an admissible graph for n letters: every
    endpoint within (n + 1)//2, every degree at most two, and at most one on
    the last vertex of an odd n."""
    v = (n + 1) // 2
    degree = Counter()
    for a, b, m in edges:
        degree[a] += m
        degree[b] += m
    return all(u <= v and d <= (1 if n % 2 and u == v else 2) for u, d in degree.items())


class TestStreamedWalks:
    @pytest.mark.parametrize("n", range(13))
    def test_every_enumerated_graph_is_valid(self, n):
        for g in multigraphs(n):
            enumeration._validate_graph(g, n)

    @pytest.mark.parametrize("n", range(13))
    def test_tally_matches_per_graph_signatures(self, n):
        for max_mult, graphs in ((2, multigraphs(n)), (1, simple_graphs(n))):
            expected = Counter(reference_signature(g, n) for g in graphs)
            assert last_graph_tally(n, max_mult) == expected

    @pytest.mark.parametrize("n", range(13))
    def test_graph_signature_matches_reference(self, n):
        for g in multigraphs(n):
            assert enumeration.graph_signature(g, n) == reference_signature(g, n)

    @pytest.mark.parametrize("n", range(11))
    def test_fiber_size_and_weight_follow_the_signature_laws(self, n):
        half_x2_plus_y = BivariatePoly({(2, 0): 1, (0, 1): 1}, 1)
        for g in multigraphs(n):
            doubled, x_power, isolated, edge_total = reference_signature(g, n)
            assert fiber_size(g, n) == 2 ** (n // 2 - doubled)
            weight = BivariatePoly.monomial(x_power, edge_total)
            for _ in range(isolated):
                weight = weight * half_x2_plus_y
            assert graph_weight(g, n) == weight

    @pytest.mark.parametrize("n,max_mult", [
        (7, 1), (7, 2), (8, 1), (8, 2), (15, 1), (15, 2), (16, 1), (16, 2)])
    def test_packed_signatures_at_field_width_boundaries(self, n, max_mult):
        # Fields are v.bit_length() bits wide; at v = 4 (n = 7, 8) and v = 8
        # (n = 15, 16) that is one bit more than v - 1 needs, and an even n
        # fills a field with v (the empty graph has v isolated vertices).
        v = (n + 1) // 2
        if v == 4:
            graphs = []
            enumeration._walk_graphs(n, 8, max_mult, graphs)
            tally = Counter(edge_signature(edges, n) for _, edges in graphs)
            assert last_graph_tally(n, max_mult) == tally
        elif max_mult == 1:
            # Too many graphs to re-derive each signature in Python: the
            # tallies are held to the graph polynomial here and, below, to the
            # involution count that the fibers sum to.
            assert graph_weight_sum_bruteforce(n, vertex_cap=8) == graph_poly(n)
            tally = last_graph_tally(n, 1)
        else:
            assert list(checks._fibersum(n, 8)) == []
            return
        assert max(max(signature) for signature in tally) == (v if n % 2 == 0 else v - 1)

    @pytest.mark.parametrize("n", range(13))
    def test_bruteforce_count_matches_list(self, n):
        assert graph_count_bruteforce(n) == len(simple_graphs(n))

    @pytest.mark.parametrize("p,n_max", [(2, 6), (3, 6), (5, 5)])
    def test_streamed_roots_sorted_equal_list(self, p, n_max):
        for n in range(n_max + 1):
            streamed = []
            for _ in enumeration._walk_roots(n, p, enumeration.DEFAULT_ROOT_CAP, streamed)[1]:
                pass
            assert len(set(streamed)) == len(streamed)
            assert sorted(streamed) == pth_roots(n, p) == filtered_pth_roots(n, p)

    def test_caps_fire_before_walking(self):
        # At the call: the root walk would run only when its tallies are read.
        with pytest.raises(ResourceLimitError, match="9496"):
            enumeration._walk_roots(10, 2, 9495)
        with pytest.raises(ResourceLimitError, match="9496"):
            enumeration._class_tallies(10, 2, 9495)
        with pytest.raises(ResourceLimitError, match="4 vertices"):
            enumeration._walk_graphs(8, 3, 2)


class TestClassTally:
    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_walk_cycles_give_each_roots_class(self, p):
        # Every key of the tally at n decodes to the labeled cycles of as many
        # roots on n letters as it counts, and classes them as each root is.
        n_max = 8
        slots, tallies = enumeration._walk_roots(n_max, p, enumeration.DEFAULT_ROOT_CAP)
        for n, by_key in tallies:
            roots = {}  # by labeled cycles, the roots on n letters
            for pi in filtered_pth_roots(n, p) if n <= 6 else pth_roots(n, p):
                roots.setdefault(frozenset(label_cycles(pi, p).items()), []).append(pi)
            decoded = {}
            for key, count in by_key.items():
                counts = enumeration._slot_counts(key, slots, n_max.bit_length())
                decoded[frozenset(counts.items())] = count
                pi = roots[frozenset(counts.items())][0]
                assert enumeration._class_from_counts(counts, n, p) == refined_class(pi, p)
            assert decoded == {cycles: len(members) for cycles, members in roots.items()}

    def test_one_class_build_per_cycle_multiset(self, monkeypatch):
        # A work count, not a timing: lemma21 at p = 3, n <= 9 classes each
        # distinct labeled-cycle multiset once and never re-reads a root.
        expected = {
            (n, tuple(sorted(label_cycles(pi, 3).elements())))
            for n in range(10) for pi in pth_roots(n, 3)
        }
        real = enumeration._class_from_counts
        built = []

        def counted(counts, n, p):
            built.append((n, tuple(sorted(Counter(counts).elements()))))
            return real(counts, n, p)

        def refused(pi, p):
            raise AssertionError("refined_class re-read a root")

        monkeypatch.setattr(enumeration, "_class_from_counts", counted)
        monkeypatch.setattr(enumeration, "refined_class", refused)
        assert CHECKS["lemma21"]({"p": 3, "n_max": 9}) == (
            True, "fiber law verified for p=3, n<=9")
        assert len(built) == len(set(built))
        assert set(built) == expected

    def test_one_rotation_per_label_tuple_per_walk(self, monkeypatch):
        # A work count, not a timing: the walk looks each cycle's least
        # rotation up by its label tuple, so no tuple is rotated twice.
        real = enumeration._least_labeled_rotation
        for n in range(11):
            rotated = []

            def counted(labels):
                rotated.append(tuple(labels))
                return real(labels)

            monkeypatch.setattr(enumeration, "_least_labeled_rotation", counted)
            for _ in enumeration._walk_roots(n, 3, enumeration.DEFAULT_ROOT_CAP)[1]:
                pass
            assert len(rotated) == len(set(rotated))
            if n >= 3:
                assert rotated

    def test_no_weight_memo_below_two_p(self):
        # Below 2p letters each cycle tuple is in one root only.  Keeping a
        # weight per tuple traced 0.95 MiB for the 5,761 roots at n = 8,
        # p = 7 (4.4 MiB at n = 9, which takes about a second to trace);
        # without it the walk peaks near 0.2 MiB.
        tracemalloc.start()
        try:
            for _ in enumeration._walk_roots(8, 7, enumeration.DEFAULT_ROOT_CAP)[1]:
                pass
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**19

    @pytest.mark.parametrize("n", [15, 16])
    def test_a_slot_holds_a_multiplicity_of_n(self, n):
        # At p = 17 every letter carries label 1 and only the identity is a
        # root, so one slot counts all n fixed points: 16 needs every one of
        # the 16.bit_length() = 5 bits a slot gets.
        seen = []
        slots, tallies = enumeration._walk_roots(n, 17, enumeration.DEFAULT_ROOT_CAP, seen)
        *_, (_, by_key) = tallies
        identity = tuple(range(1, n + 1))
        assert seen == [identity]
        [key] = by_key
        assert by_key[key] == 1
        assert enumeration._slot_counts(key, slots, n.bit_length()) == {(1,): n}
        cls = RefinedClass((), (((1,), n),))
        assert refined_class(identity, 17) == cls
        assert last_class_tally(n, 17) == {cls: 1}
        assert class_size(cls, 17, n) == 1

    def test_tally_holds_one_key_per_cycle_multiset(self, monkeypatch):
        # Keyed by placement order instead, p = 2, n = 10 held 2,018 keys.
        multisets = {
            tuple(sorted(
                enumeration._least_labeled_rotation([(x - 1) // 2 + 1 for x in cycle])
                for cycle in permutation_cycles(pi)))
            for pi in pth_roots(10, 2)
        }
        assert len(multisets) == 774
        real = enumeration._class_from_counts
        classed = []

        def counted(counts, n, p):
            if n == 10:
                classed.append(tuple(sorted(Counter(counts).elements())))
            return real(counts, n, p)

        monkeypatch.setattr(enumeration, "_class_from_counts", counted)
        last_class_tally(10, 2)
        assert len(classed) == 774
        assert set(classed) == multisets


class TestCycleDegrees:
    def test_per_key_degrees_match_every_root(self):
        # weights reads (fixed points, transpositions) once per cycle key,
        # from the decoded labeled-cycle counts: every root with those
        # labeled cycles has those degrees.
        n_max = 10
        slots, tallies = enumeration._walk_roots(n_max, 2, enumeration.DEFAULT_ROOT_CAP)
        for n, by_key in tallies:
            weights = {}
            for pi in pth_roots(n, 2):
                weights.setdefault(frozenset(label_cycles(pi, 2).items()), []).append(
                    involution_weight(pi))
            for key in by_key:
                counts = enumeration._slot_counts(key, slots, n_max.bit_length())
                want = BivariatePoly.monomial(*checks._cycle_degrees(counts))
                assert all(w == want for w in weights[frozenset(counts.items())])

    def test_planted_fault_turns_weights_red(self, monkeypatch):
        # One cell: the identity on four letters read as three fixed points.
        real = checks._cycle_degrees

        def faulty(counts):
            return (3, 0) if counts == {(1,): 2, (2,): 2} else real(counts)

        monkeypatch.setattr(checks, "_cycle_degrees", faulty)
        assert CHECKS["weights"]({}) == (
            False, "n=4, graph {'vertices': 2, 'edges': []}: weight identity fails")


def _fault_in_root_tally_at_n_3(real, count_shift):
    """``_walk_roots`` with one cell of the tally of the roots on 3 letters
    changed: its largest cycle key counts ``count_shift`` more roots, or is
    gone when ``count_shift`` is None."""
    def walk(*args, **kwargs):
        slots, tallies = real(*args, **kwargs)

        def planted():
            for n, by_key in tallies:
                if n == 3:
                    by_key = dict(by_key)
                    key = max(by_key)
                    if count_shift is None:
                        del by_key[key]
                    else:
                        by_key[key] += count_shift
                yield n, by_key

        return slots, planted()

    return walk


def _drop_a_graph_tagged_3(real):
    """``_walk_graphs`` with one graph tagged 3 (the first listed, or the one
    of least key) gone, from every n >= 3."""
    def walk(n_max, vertex_cap, max_mult, graphs=None):
        tagged = real(n_max, vertex_cap, max_mult, graphs)
        shift = 4 * ((n_max + 1) // 2).bit_length()
        key = min(key for key in tagged if key >> shift == 3)
        tagged[key] -= 1
        if graphs is not None:
            graphs.remove(next(graph for graph in graphs if graph[0] == 3))
        return tagged

    return walk


class TestAllNTallies:
    """One walk at n_max gives the tally of every n <= n_max."""

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_class_tallies_equal_the_per_n_tallies(self, p):
        cap = enumeration.DEFAULT_ROOT_CAP
        tallies = list(enumeration._class_tallies(10, p, cap))
        assert [n for n, _ in tallies] == list(range(11))
        for n, tally in tallies:
            assert tally == last_class_tally(n, p)
        if p == 2:
            degrees = enumeration._class_tallies(10, 2, cap, checks._cycle_degrees)
            for n, tally in degrees:
                assert tally == last_class_tally(n, 2, checks._cycle_degrees)

    @pytest.mark.parametrize("n_max", [7, 8, 15, 16])
    @pytest.mark.parametrize("max_mult", [1, 2])
    def test_graph_tallies_equal_the_per_n_tallies(self, n_max, max_mult):
        # Fields are v.bit_length() bits wide, one more than v - 1 needs at
        # v = 4 and v = 8, and the tag sits above them.  At n = n_max both
        # read the same walk, so the walks compared are the ones below it.
        tallies = list(enumeration._graph_tallies(n_max, 8, max_mult))
        assert [n for n, _ in tallies] == list(range(n_max + 1))
        for n, tally in tallies[:-1]:
            assert tally == last_graph_tally(n, max_mult)

    @pytest.mark.parametrize("n_max", [0, 1, 5, 8, 11])
    def test_graph_lists_equal_the_per_n_lists(self, n_max):
        listed = list(enumeration._multigraphs_by_n(n_max, 8))
        assert listed == [(n, multigraphs(n)) for n in range(n_max + 1)]

    @pytest.mark.parametrize("p,n_max", [(2, 10), (3, 10), (5, 10), (7, 9)])
    def test_root_walk_visits_each_root_on_n_max_letters_once(self, p, n_max):
        # A work count: asked for its roots, the walk lists one per root it
        # visits, and it gives every n's tally from that one visit of the
        # tau_p(n_max) roots, where walking each n afresh visited the sum
        # of tau_p(n) over n <= n_max.
        roots = []
        _, tallies = enumeration._walk_roots(n_max, p, enumeration.DEFAULT_ROOT_CAP, roots)
        sums = [sum(by_key.values()) for _, by_key in tallies]
        assert sums == [pth_root_count(n, p) for n in range(n_max + 1)]
        assert len(roots) == len(set(roots)) == pth_root_count(n_max, p)

    @pytest.mark.parametrize("n_max,max_mult", [(15, 1), (10, 2)])
    def test_graph_walk_visits_each_graph_for_n_max_once(self, n_max, max_mult):
        graphs = []
        tagged = enumeration._walk_graphs(n_max, 8, max_mult, graphs)
        if max_mult == 1:
            expected = graph_count(n_max)
        else:  # one graph per refined class (Corollary 3.1)
            expected = len(last_class_tally(n_max, 2))
        assert len(graphs) == len(set(graphs)) == sum(tagged.values()) == expected

    @pytest.mark.parametrize("n_max", [9, 10])
    def test_each_graph_is_tagged_with_the_least_n_it_is_a_graph_for(self, n_max):
        graphs = []
        enumeration._walk_graphs(n_max, 8, 2, graphs)
        for tag, edges in graphs:
            assert [n for n in range(n_max + 1) if reference_graph_for(edges, n)][0] == tag

    # A lost key shows where classes are read (lemma21's total, cor31's
    # correspondence, weights' class count); one root too many where the
    # roots are counted per class (lemma21, weights).
    @pytest.mark.parametrize("name,walk", [
        ("lemma21", "lost root key"), ("lemma21", "extra root"), ("cor31", "lost root key"),
        ("cor31", "lost graph"), ("weights", "lost root key"), ("weights", "extra root"),
        ("weights", "lost graph"), ("fibersum", "lost graph"), ("prop42", "lost graph"),
    ])
    def test_a_fault_at_n_3_is_named_first(self, monkeypatch, name, walk):
        if walk != "lost graph":
            count_shift = 1 if walk == "extra root" else None
            monkeypatch.setattr(enumeration, "_walk_roots", _fault_in_root_tally_at_n_3(
                enumeration._walk_roots, count_shift))
        else:
            monkeypatch.setattr(enumeration, "_walk_graphs",
                                _drop_a_graph_tagged_3(enumeration._walk_graphs))
        passed, detail = CHECKS[name]({})
        assert not passed
        assert re.match(r"(p=2, )?n=3\b", detail), detail


class TestStreamedMemory:
    # Traced allocations only, so nothing earlier in this process counts.
    # Built as full lists, these checks peaked at about 1.5 MiB and 0.98 MiB.
    @pytest.mark.parametrize("name,params,limit", [
        ("fibersum", {"n_max": 13}, 256 * 1024),
        ("lemma21", {"p": 3, "n_max": 9}, 384 * 1024),
    ])
    def test_oracle_peak_stays_small(self, name, params, limit):
        tracemalloc.start()
        try:
            passed, _ = CHECKS[name](params)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert passed
        assert peak < limit

    def test_fibersum_cli_peaks_near_import_floor(self):
        floor = fresh_run("-c", "import involution_lab.cli")
        run = fresh_run(*CLI, "verify", "--check", "fibersum", "--n-max", "15")
        assert floor.code == run.code == 0
        # Built as a list of every graph, the run sat about 13 MB above the floor.
        assert run.peak_kb - floor.peak_kb < 3 * 1024
