"""Sequence-engine tests: recurrences against each other, against the
enumeration oracles, and against the reference tables (with the two
misprinted reference cells pinned to their recurrence-confirmed values).
"""

import math
import threading
import time
from itertools import islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from involution_lab import sequences
from involution_lab.algebra import BivariatePoly, val2
from involution_lab.errors import ExactnessError
from involution_lab.enumeration import graph_weight_sum_bruteforce, pth_roots
from involution_lab.reference_tables import CORRECTED_G_AT_ONE, G_AT_MINUS_ONE, G_AT_ONE
from involution_lab.sequences import (
    SequenceCache,
    graph_count,
    graph_count_signed,
    graph_poly,
    involution_count,
    involution_count_direct,
    transposition_counts,
    involution_count_via_graphs,
    involution_poly,
    involution_poly_via_graphs,
    involution_polys,
    odd_factor,
    odd_factor_closed,
    odd_factor_step,
    pth_root_count,
    pth_root_counts,
    removal_residues,
    signed_involution_count,
)

from conftest import CLI, fresh_run
from test_algebra import odd_product_ratio  # the explicit-product reference

T_PREFIX = [1, 1, 2, 4, 10, 26, 76, 232, 764, 2620, 9496, 35696, 140152, 568504]
SIGNED_PREFIX = [1, 1, 0, -2, -2, 6, 16, -20, -132, 28, 1216, 936, -12440, -23672]


class TestInvolutionCount:
    def test_prefix(self):
        assert [involution_count(n) for n in range(14)] == T_PREFIX

    def test_direct_examples(self):
        assert involution_count_direct(5) == 26
        assert involution_count_direct(1) == 1
        assert involution_count_direct(8) == 764

    def test_direct_matches_factorial_terms(self):
        # The direct sum steps each term from the one before; the reference
        # builds every term n!/(2**i i! (n-2i)!) from full factorials.
        for n in range(301):
            terms = [math.factorial(n) // ((1 << i) * math.factorial(i) * math.factorial(n - 2 * i))
                     for i in range(n // 2 + 1)]
            assert transposition_counts(n) == terms
            assert involution_count_direct(n) == sum(terms)

    def test_routes_agree(self):
        for n, poly in zip(range(201), involution_polys()):
            assert involution_count_direct(n) == involution_count(n)
            assert poly.evaluate(1, 1) == involution_count(n)

    def test_matches_enumeration(self):
        for n in range(9):
            assert involution_count(n) == len(pth_roots(n, 2))

    def test_signed_prefix(self):
        assert [signed_involution_count(n) for n in range(14)] == SIGNED_PREFIX

    def test_signed_matches_poly(self):
        for n, poly in zip(range(401), involution_polys()):
            assert poly.evaluate(1, -1) == signed_involution_count(n)


class TestPthRootCount:
    def test_examples(self):
        assert pth_root_count(6, 3) == 81
        assert pth_root_count(2, 5) == 1
        assert pth_root_count(9, 3) == 5769

    def test_reduces_to_involutions(self):
        for n in range(40):
            assert pth_root_count(n, 2) == involution_count(n)

    @pytest.mark.parametrize("p,n_max", [(2, 8), (3, 8), (5, 7), (7, 7)])
    def test_matches_enumeration(self, p, n_max):
        for n in range(n_max + 1):
            assert pth_root_count(n, p) == len(pth_roots(n, p))

    def test_nonprime_rejected(self):
        with pytest.raises(ValueError):
            pth_root_count(5, 6)

    def test_stream_rejects_nonprime_before_any_step(self, monkeypatch):
        def no_step(*args):
            raise AssertionError("a step was built for a non-prime p")

        monkeypatch.setattr(sequences, "removal_step", no_step)
        with pytest.raises(ValueError, match="p must be prime, got 4"):
            pth_root_counts(4)

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_point_is_the_stream_stepped_to_n(self, p):
        assert [pth_root_count(n, p) for n in range(41)] == list(islice(pth_root_counts(p), 41))
        with pytest.raises(ValueError):
            pth_root_count(-1, p)


@pytest.mark.parametrize("point", [
    lambda: pth_root_count(-1, 3),
    lambda: involution_poly(-1),
    lambda: graph_count_signed(-1),
    lambda: involution_count_via_graphs(-1),
    lambda: odd_factor_closed(-1),
], ids=["pth_root_count", "involution_poly", "graph_count_signed",
        "involution_count_via_graphs", "odd_factor_closed"])
def test_point_reads_name_a_negative_n(point):
    # Raised at the call, not from inside islice's or a cache's own argument check.
    with pytest.raises(ValueError, match="^n must be nonnegative$"):
        point()


class TestInvolutionPoly:
    def test_small(self):
        x = BivariatePoly.monomial(1, 0)
        y = BivariatePoly.monomial(0, 1)
        assert involution_poly(0) == BivariatePoly.one()
        assert involution_poly(1) == x
        assert involution_poly(2) == x * x + y

    def test_eval_examples(self):
        assert involution_poly(4).evaluate(1, 1) == 10
        assert involution_poly(6).evaluate(1, -1) == 16

    def test_coefficient_law(self):
        for n in range(41):
            poly = involution_poly(n)
            assert len(poly) == n // 2 + 1
            for i in range(n // 2 + 1):
                j = n - 2 * i
                want = math.factorial(n) // ((1 << i) * math.factorial(i) * math.factorial(j))
                assert poly.coefficient(j, i) == want

    def test_point_is_the_stream_stepped_to_n(self):
        assert [involution_poly(n) for n in range(41)] == list(islice(involution_polys(), 41))
        with pytest.raises(ValueError):
            involution_poly(-1)

    # Fresh processes: the stream holds two polynomials where a cache held
    # them all (67 MB and 23.5 MB at these sizes).  CPU time, not wall time,
    # so a busy host does not fail them.
    @pytest.mark.parametrize("check, n_max, peak_mb, cpu_seconds", [
        ("cross", 800, 30, 3), ("coeffs", 400, 20, 2),
    ], ids=["cross", "coeffs"])
    def test_walks_in_n_order_stay_small(self, check, n_max, peak_mb, cpu_seconds):
        run = fresh_run(*CLI, "verify", "--check", check, "--n-max", str(n_max), keep_stdout=True)
        assert run.code == 0
        assert run.stdout.startswith(f"{check}: PASS".encode())
        assert run.peak_kb < peak_mb * 1024
        assert run.cpu_seconds < cpu_seconds


class TestGraphPoly:
    def test_base_cases(self):
        assert graph_poly(0) == BivariatePoly.one()
        assert graph_poly(-3) == BivariatePoly.zero()
        assert graph_poly(1) == BivariatePoly.monomial(1, 0)

    def test_g4_by_hand(self):
        blob = BivariatePoly({(2, 0): 1, (0, 1): 1}, 1)
        assert graph_poly(4) == blob * blob + BivariatePoly.monomial(2, 1)

    def test_matches_bruteforce(self):
        for n in range(11):
            assert graph_poly(n) == graph_weight_sum_bruteforce(n)

    def test_scalar_routes_match_poly_eval(self):
        for n in range(60):
            assert graph_poly(n).evaluate(1, 1) == graph_count(n)
            assert graph_poly(n).evaluate(1, -1) == graph_count_signed(n)


def int_graph_cache(x, y):
    """The graph recurrence over the integers, at an (x, y) where 2 divides
    x**2 + y."""
    return SequenceCache(sequences.graph_step(1, x, y, (x * x + y) // 2))


class TestGenericRecurrences:
    @pytest.mark.parametrize("x, y", [(1, 1), (1, -1), (3, 1), (2, -2), (0, 4)])
    def test_int_instances_match_poly_eval(self, x, y):
        removal = SequenceCache(sequences.removal_step(1, x, y))
        graph = int_graph_cache(x, y)
        for n in range(25):
            assert removal.get(n) == involution_poly(n).evaluate(x, y)
            assert graph.get(n) == graph_poly(n).evaluate(x, y)

    @pytest.mark.parametrize("x, y", [(1, 1), (1, -1), (3, 1), (2, -2)])
    def test_streams_match_the_caches(self, x, y):
        removal = sequences.stepped(sequences.removal_step(1, x, y), 2)
        half = (x * x + y) // 2
        graph = sequences.stepped(sequences.graph_step(1, x, y, half), 8)
        cached_removal = SequenceCache(sequences.removal_step(1, x, y))
        cached_graph = int_graph_cache(x, y)
        assert list(islice(removal, 60)) == [cached_removal.get(n) for n in range(60)]
        assert list(islice(graph, 60)) == [cached_graph.get(n) for n in range(60)]

    @pytest.mark.parametrize("p", [2, 3, 7])
    def test_stream_holds_only_its_window(self, p):
        step = sequences.removal_step(1, 1, 1, p)
        held = []

        def watched(n, values):
            held.append(sorted(values))
            return step(n, values)

        stream = sequences.stepped(watched, p)
        assert list(islice(stream, 40)) == [pth_root_count(n, p) for n in range(40)]
        assert held[-1] == list(range(39 - p, 39))
        assert max(map(len, held)) == p

    def test_int_routes_build_no_dyadic(self, monkeypatch):
        # Dyadic values live only in polynomials; the int routes build none.
        # Outside input enters through __init__ and every operation's result
        # through _normalized, so both are closed.
        def no_poly(self, *args):
            raise AssertionError("BivariatePoly constructed on an int route")

        monkeypatch.setattr(BivariatePoly, "__init__", no_poly)
        monkeypatch.setattr(BivariatePoly, "_normalized", classmethod(no_poly))
        graph = int_graph_cache(1, 1)
        assert type(graph.get(200)) is int
        for n in range(120):
            assert type(graph_count(n)) is int
            assert type(graph_count_signed(n)) is int
            assert type(odd_factor_closed(n)) is int
            assert type(involution_count_via_graphs(n)) is int
            assert type(odd_factor_step(n + 1, odd_factor(n), odd_factor(n + 1))) is int


class TestGraphCounts:
    def test_reference_cells(self):
        assert graph_count(8) == 41
        assert graph_count_signed(12) == -140
        assert graph_count_signed(2) == 0
        assert graph_count_signed(20) == -44946
        assert graph_count_signed(21) == -2973086

    def test_reference_table_with_corrections(self):
        # The published count table is reproduced except at its two known
        # misprinted rows, which the odd-index recurrence and the
        # involution-count identity correct (the brute-force oracle stops
        # at n = 16 under its default vertex cap).
        for n, want in G_AT_ONE.items():
            got = graph_count(n)
            if n in CORRECTED_G_AT_ONE:
                assert got == CORRECTED_G_AT_ONE[n]
                assert got != want
            else:
                assert got == want
        for n, want in G_AT_MINUS_ONE.items():
            assert graph_count_signed(n) == want

    def test_misprinted_rows_are_the_shifted_values(self):
        # The reference's rows 20 and 21 hold the true n=21 and n=22 values.
        assert G_AT_ONE[20] == graph_count(21)
        assert G_AT_ONE[21] == graph_count(22)

    def test_odd_index_recurrence(self):
        for m in range(1, 201):
            assert graph_count(2 * m + 1) == graph_count(2 * m) + m * graph_count(2 * m - 1)


class TestGraphFormulas:
    def test_count_examples(self):
        assert involution_count_via_graphs(7) == 232
        assert involution_count_via_graphs(0) == 1
        assert involution_count_via_graphs(5) == 26

    def test_count_identity(self):
        for n in range(201):
            assert involution_count_via_graphs(n) == involution_count(n)

    def test_route_terms_match_explicit_products(self):
        # The terms come in ascending i, each with its binomial, power of two,
        # odd factor, graph index and doubled edges; the factors of the terms
        # above term i multiply to its explicit odd-product ratio.
        for n in range(201):
            k, r = divmod(n, 4)
            fl = r // 2
            terms = list(sequences._graph_route_terms(n))
            assert terms == [(math.comb(k, i), i, 2 * (i + fl) - 1, 4 * i + r, k - i)
                             for i in range(k + 1)]
            for i, (binom, shift, _, _, _) in enumerate(terms):
                ratio = math.prod(factor for _, _, factor, _, _ in terms[i + 1:])
                assert (binom << shift) * ratio == (
                    (1 << i) * math.comb(k, i) * odd_product_ratio(i + fl, k + fl))

    def test_count_sum_matches_explicit_products(self):
        for n in range(201):
            k, r = divmod(n, 4)
            fl = r // 2
            want = sum((1 << i) * math.comb(k, i) * odd_product_ratio(i + fl, k + fl)
                       * graph_count(4 * i + r) for i in range(k + 1))
            assert sequences._graph_count_sum(n) == want

    @pytest.mark.parametrize("n", [401, 1603])
    def test_count_identity_far_out(self, n):
        assert involution_count_via_graphs(n) == involution_count(n)
        assert odd_factor_closed(n) == odd_factor(n)

    def test_count_sum_steps_its_binomials(self, monkeypatch):
        # With the graph cache filled, the int route calls no math.comb.
        want = [(involution_count(n), odd_factor(n)) for n in (400, 401, 402, 403)]
        graph_count(403)

        def no_comb(*args):
            raise AssertionError("math.comb called")

        monkeypatch.setattr(sequences.math, "comb", no_comb)
        assert [(involution_count_via_graphs(n), odd_factor_closed(n))
                for n in (400, 401, 402, 403)] == want

    def test_count_sum_reads_its_cache_once(self, monkeypatch):
        # One cache read per sum, for its largest index, however many terms.
        want = involution_count(401), odd_factor(403)
        reads = []
        real_get = sequences.SequenceCache.get
        monkeypatch.setattr(sequences.SequenceCache, "get",
                            lambda cache, n: reads.append(n) or real_get(cache, n))
        assert (involution_count_via_graphs(401), odd_factor_closed(403)) == want
        assert reads == [401, 403]

    def test_poly_examples(self):
        assert involution_poly_via_graphs(2) == involution_poly(2)
        assert involution_poly_via_graphs(0) == BivariatePoly.one()
        assert involution_poly_via_graphs(6).evaluate(1, -1) == 16

    def test_poly_identity_and_integrality(self):
        for n in range(41):
            via = involution_poly_via_graphs(n)
            assert via == involution_poly(n)
            assert via.is_integral


class TestOddFactor:
    def test_examples(self):
        assert odd_factor(7) == 29
        assert odd_factor(0) == 1
        assert odd_factor(11) == 2231

    def test_closed_examples(self):
        assert odd_factor_closed(7) == 29
        assert odd_factor_closed(4) == 5
        assert odd_factor_closed(10) == 1187

    def test_closed_matches(self):
        for n in range(201):
            assert odd_factor_closed(n) == odd_factor(n)

    def test_reconstruction(self):
        for n in range(401):
            assert odd_factor(n) << val2(involution_count(n)) == involution_count(n)

    def test_step_examples(self):
        assert odd_factor_step(4, 1, 5) == 13
        assert odd_factor_step(5, 5, 13) == 19
        assert odd_factor_step(2, 1, 1) == 1

    def test_step_drives_the_sequence(self):
        prev, curr = odd_factor(0), odd_factor(1)
        for n in range(1, 201):
            nxt = odd_factor_step(n, prev, curr)
            assert nxt == odd_factor(n + 1)
            prev, curr = curr, nxt

    def test_step_rejects_fake_inputs(self):
        with pytest.raises(ExactnessError):
            odd_factor_step(5, 4, 13)  # beta(4) is 5, not 4
        with pytest.raises(ValueError):
            odd_factor_step(0, 1, 1)


class TestRemovalResidues:
    # Moduli from 1 to 2**200, powers of two among them; the stream is the
    # removal recurrence at y = 1, the involution counts.
    @pytest.mark.parametrize("m", [1, 2, 12, 1024, 1000003, 2**200])
    @pytest.mark.parametrize("y, exact", [(1, involution_count)])
    def test_matches_exact_counts(self, m, y, exact):
        stepped = sequences.stepped(sequences.removal_step(1, 1, y), 2)
        want = [exact(n) % m for n in range(300)]
        assert [u % m for u in islice(stepped, 300)] == want
        assert list(islice(removal_residues(m), 300)) == want

    def test_validation(self):
        with pytest.raises(ValueError):
            removal_residues(0)


class TestSequenceCache:
    def test_prefix_consistency(self):
        cache = SequenceCache(lambda n, v: 1 if n < 2 else v[n - 1] + (n - 1) * v[n - 2])
        assert cache.get(10) == 9496
        assert [cache.get(n) for n in range(6)] == [1, 1, 2, 4, 10, 26]

    def test_negative_index_rejected(self):
        cache = SequenceCache(lambda n, v: n)
        with pytest.raises(ValueError, match="^n must be nonnegative$"):
            cache.get(-1)

    def test_threads_extend_one_cache_as_one_thread_does(self):
        step = sequences.removal_step(1, 1, 1)

        def yielding_step(n, values):
            time.sleep(0)  # hand the interpreter to another thread mid-extension
            return step(n, values)

        cache = SequenceCache(yielding_step)
        _in_four_threads(lambda: [cache.get(n) for n in range(0, 301, 7)] + [cache.get(300)])
        alone = SequenceCache(step)
        assert cache._values == [alone.get(n) for n in range(301)]

    def test_threads_count_roots_as_one_thread_does(self):
        counts = []
        _in_four_threads(lambda: counts.append(pth_root_count(40, 13)))
        assert counts == [pth_root_count(40, 13)] * 4

    @given(st.integers(min_value=0, max_value=300))
    @settings(max_examples=30, deadline=None)
    def test_count_prefix_consistency_sampled(self, n):
        assert involution_count_direct(n) == involution_count(n)


def _in_four_threads(work):
    """Run ``work`` in four threads released together; fail on any error."""
    barrier = threading.Barrier(4)
    errors = []

    def run():
        try:
            barrier.wait(timeout=30)
            work()
        except Exception as exc:  # reported by the calling thread
            errors.append(exc)

    threads = [threading.Thread(target=run) for _ in range(4)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
