"""Oracle-layer tests: the enumerations themselves are validated against
filtering all of S_n, hand counts, and the published worked example, and the
counting formulas are validated against grouping the enumerations.
"""

import itertools
from collections import Counter

import pytest

from involution_lab.algebra import BivariatePoly
from involution_lab.enumeration import (
    ConstrainedGraph,
    RefinedClass,
    class_graph,
    class_size,
    fiber_size,
    filtered_pth_roots,
    graph_class,
    graph_count_bruteforce,
    graph_weight,
    graph_weight_sum_bruteforce,
    involution_weight,
    is_pth_root,
    label_cycles,
    least_rotation,
    multigraphs,
    permutation_cycles,
    pth_roots,
    refined_class,
    simple_graphs,
)
from involution_lab.errors import ResourceLimitError
from involution_lab.sequences import involution_count


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


def reference_label_cycles(pi, p):
    """label_cycles rebuilt from the cycle decomposition: check the root,
    then label each cycle entrywise and take its least rotation."""
    if not is_pth_root(pi, p):
        raise ValueError("permutation is not a p-th root of the identity")
    out = Counter()
    for cyc in permutation_cycles(pi):
        out[least_rotation(tuple((i - 1) // p + 1 for i in cyc))] += 1
    return out


def reference_refined_class(pi, p):
    t = len(pi) // p
    bag = []
    rest = {}
    for cyc, mult in reference_label_cycles(pi, p).items():
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
                labeled = label_cycles(pi, p)
                assert type(labeled) is Counter
                assert labeled == reference_label_cycles(pi, p)
                assert refined_class(pi, p) == reference_refined_class(pi, p)

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_every_non_root_of_six_letters(self, p):
        non_roots = 0
        for pi in itertools.permutations(range(1, 7)):
            if is_pth_root(pi, p):
                continue
            non_roots += 1
            for f in (label_cycles, refined_class, reference_label_cycles):
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
        assert len(simple_graphs(7)) == 26
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
        assert len(multigraphs(18, vertex_cap=9)) > 0

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
        for max_mult, enumerated in ((2, multigraphs(n)), (1, simple_graphs(n))):
            graphs = []
            for mults in itertools.product(range(max_mult + 1), repeat=len(pairs)):
                deg = [0] * (v + 1)
                for (a, b), m in zip(pairs, mults):
                    deg[a] += m
                    deg[b] += m
                if all(d <= cap for d, cap in zip(deg, limit)):
                    edges = tuple((a, b, m) for (a, b), m in zip(pairs, mults) if m)
                    graphs.append(ConstrainedGraph(v, edges))
            assert enumerated == sorted(graphs)

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
