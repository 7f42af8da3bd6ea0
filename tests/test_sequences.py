"""Sequence-engine tests: recurrences against each other, against the
enumeration oracles, and against the reference tables (with the two
misprinted reference cells pinned to their recurrence-confirmed values).
"""

import math
import threading
from decimal import Decimal
from itertools import islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from involution_lab import checks, cli, periodicity, sequences
from involution_lab.algebra import BivariatePoly, val2
from involution_lab.errors import ExactnessError
from involution_lab.enumeration import graph_weight_sum_bruteforce, pth_roots
from involution_lab.reference_tables import CORRECTED_G_AT_ONE, G_AT_MINUS_ONE, G_AT_ONE
from involution_lab.sequences import (
    graph_count,
    graph_count_signed,
    graph_counts,
    graph_poly,
    graph_polys,
    involution_count,
    involution_count_direct,
    transposition_counts,
    involution_count_via_graphs,
    involution_counts_via_graphs,
    involution_poly,
    involution_poly_via_graphs,
    involution_polys,
    involution_polys_via_graphs,
    odd_factor,
    odd_factor_closed,
    odd_factors_closed,
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

    def test_points_are_the_streams_stepped_to_n(self):
        assert [graph_poly(n) for n in range(41)] == list(islice(graph_polys(), 41))
        assert [graph_count(n) for n in range(201)] == list(islice(graph_counts(), 201))
        assert [graph_count_signed(n) for n in range(201)] == list(islice(graph_counts(-1), 201))


def int_graph_step(x, y):
    """The graph recurrence over the integers, at an (x, y) where 2 divides
    x**2 + y."""
    return sequences.graph_step(1, x, y, (x * x + y) // 2)


def whole_prefix(step, count: int) -> list:
    """The step's first ``count`` values, each step handed every value before
    it: the reference for a stream that keeps only a window."""
    values: list = []
    for n in range(count):
        values.append(step(n, values))
    return values


class TestGenericRecurrences:
    @pytest.mark.parametrize("x, y", [(1, 1), (1, -1), (3, 1), (2, -2), (0, 4)])
    def test_int_instances_match_poly_eval(self, x, y):
        removal = sequences.stepped(sequences.removal_step(1, x, y), 2)
        graph = sequences.stepped(int_graph_step(x, y), 8)
        for n, u, g, t_poly, g_poly in zip(range(25), removal, graph,
                                           involution_polys(), graph_polys()):
            assert u == t_poly.evaluate(x, y)
            assert g == g_poly.evaluate(x, y)

    @pytest.mark.parametrize("x, y", [(1, 1), (1, -1), (3, 1), (2, -2)])
    def test_streams_match_the_caches(self, x, y):
        # The window drops no value a step reads.
        removal = sequences.stepped(sequences.removal_step(1, x, y), 2)
        graph = sequences.stepped(int_graph_step(x, y), 8)
        assert list(islice(removal, 60)) == whole_prefix(sequences.removal_step(1, x, y), 60)
        assert list(islice(graph, 60)) == whole_prefix(int_graph_step(x, y), 60)

    @pytest.mark.parametrize("stream, window, reach", [
        (lambda: sequences.stepped(sequences.removal_step(1, 1, 1), 0), 0, 2),
        (lambda: sequences.stepped(sequences.graph_step(1, 1, 1, 1), 4), 4, 8),
        (lambda: sequences.stepped(sequences.removal_step(1, 1, 1, 5), 4), 4, 5),
        (lambda: sequences.stepped(int_graph_step(1, -1), 7), 7, 8),
    ])
    def test_a_window_below_the_reach_is_refused_at_the_call(self, stream, window, reach):
        # It failed with KeyError: 0 from inside the stream, at the first
        # value past the window, when the stream was read.
        with pytest.raises(ValueError, match=f"^a window of {window} values is below "
                                             f"the step's reach of {reach}$"):
            stream()

    def test_the_reported_short_windows_raise_before_a_value_is_read(self):
        with pytest.raises(ValueError, match="window of 0 .* reach of 2"):
            list(islice(sequences.stepped(sequences.removal_step(1, 1, 1), 0), 4))
        with pytest.raises(ValueError, match="window of 4 .* reach of 8"):
            list(islice(sequences.stepped(sequences.graph_step(1, 1, 1, 1), 4), 10))

    def test_every_window_in_use_covers_its_step(self):
        # Each stream the library and ``seq`` build, read past its window.
        streams = [pth_root_counts(p) for p in (2, 3, 5, 7)]
        streams += [involution_polys(), graph_polys(), graph_counts(), graph_counts(-1)]
        streams += [cli._SEQ_VALUES[kind](Decimal(1), p)
                    for kind in cli._SEQ_VALUES for p in (2, 3, 7)]
        for stream in streams:
            assert len(list(islice(stream, 12))) == 12
        assert signed_involution_count(12) == whole_prefix(sequences.removal_step(1, 1, -1), 13)[12]

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
        assert {type(g) for g in islice(graph_counts(), 201)} == {int}
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
        # The terms come in ascending i, each with its binomial, power of two
        # and odd factor; the factors of the terms above term i multiply to
        # its explicit odd-product ratio.
        for n in range(201):
            k, r = divmod(n, 4)
            fl = r // 2
            terms = list(sequences._graph_route_terms(n))
            assert terms == [(math.comb(k, i), i, 2 * (i + fl) - 1) for i in range(k + 1)]
            for i, (binom, shift, _) in enumerate(terms):
                ratio = math.prod(factor for _, _, factor in terms[i + 1:])
                assert (binom << shift) * ratio == (
                    (1 << i) * math.comb(k, i) * odd_product_ratio(i + fl, k + fl))

    def test_count_sum_matches_explicit_products(self):
        counts = list(islice(graph_counts(), 201))
        for n in range(201):
            k, r = divmod(n, 4)
            fl = r // 2
            want = sum((1 << i) * math.comb(k, i) * odd_product_ratio(i + fl, k + fl)
                       * counts[4 * i + r] for i in range(k + 1))
            assert sequences._count_via_graphs(n, counts[r::4]) == want << (k + fl)

    @pytest.mark.parametrize("n", [401, 1603])
    def test_count_identity_far_out(self, n):
        assert involution_count_via_graphs(n) == involution_count(n)
        assert odd_factor_closed(n) == odd_factor(n)

    def test_count_sum_steps_its_binomials(self, monkeypatch):
        # The route terms call no math.comb (the graph step does, for its
        # own coefficients, so the patch covers the terms alone).
        want = [(involution_count(n), odd_factor(n)) for n in (400, 401, 402, 403)]
        real_terms = sequences._graph_route_terms

        def no_comb(*args):
            raise AssertionError("math.comb called")

        def terms_without_comb(n):
            with monkeypatch.context() as patch:
                patch.setattr(sequences.math, "comb", no_comb)
                return real_terms(n)

        monkeypatch.setattr(sequences, "_graph_route_terms", terms_without_comb)
        assert [(involution_count_via_graphs(n), odd_factor_closed(n))
                for n in (400, 401, 402, 403)] == want

    def test_point_read_steps_the_graph_recurrence_n_plus_one_times(self, monkeypatch):
        # g(0) to g(n), each once, however many terms the sum has.
        points = (involution_count_via_graphs, odd_factor_closed, graph_count)
        want = [point(403) for point in points]
        steps = []
        real_step = sequences.graph_step

        def counted_step(*ring):
            step = real_step(*ring)
            return lambda n, values: steps.append(n) or step(n, values)

        monkeypatch.setattr(sequences, "graph_step", counted_step)
        for point, value in zip(points, want):
            steps.clear()
            assert point(403) == value
            assert steps == list(range(404)), point.__name__

    def test_poly_examples(self):
        assert involution_poly_via_graphs(2) == involution_poly(2)
        assert involution_poly_via_graphs(0) == BivariatePoly.one()
        assert involution_poly_via_graphs(6).evaluate(1, -1) == 16

    def test_poly_identity_and_integrality(self):
        for n in range(41):
            via = involution_poly_via_graphs(n)
            assert via == involution_poly(n)
            assert via.is_integral

    @pytest.mark.parametrize("walk, point, n_max", [
        (involution_counts_via_graphs, involution_count_via_graphs, 200),
        (odd_factors_closed, odd_factor_closed, 200),
        (involution_polys_via_graphs, involution_poly_via_graphs, 40),
    ], ids=["count", "odd_factor", "poly"])
    def test_walks_are_their_points_in_n_order(self, walk, point, n_max):
        assert list(islice(walk(), n_max + 1)) == [point(n) for n in range(n_max + 1)]


# One planted fault at n = 13, in the graph counts g(1, 1) or in the graph
# polynomial, turns red exactly the rows that read that stream, each naming
# the cell first; table1 is red by design, and the count fault adds row 13
# to its message.
@pytest.mark.parametrize("stream, fault, first_messages", [
    ("graph_counts", 1, {"thm32": "n=13:", "cross": "n=13:", "thm33": "n=13:",
                         "table1": "g(1,1) reference table, row n=13:"}),
    ("graph_polys", BivariatePoly.one(), {"thm41": "n=13:", "prop42": "n=13:",
                                          "table1": "g(1,1) reference table, row n=20:"}),
], ids=["graph_counts", "graph_polys"])
def test_a_graph_fault_at_n_13_turns_exactly_its_readers_red(
        monkeypatch, stream, fault, first_messages):
    real = getattr(sequences, stream)

    def planted(*args):
        values = real(*args)
        if args in ((), (1,)):  # g(1, -1) is left whole
            values = (value + fault if n == 13 else value for n, value in enumerate(values))
        return values

    monkeypatch.setattr(sequences, stream, planted)
    _assert_red_rows(first_messages)


def _assert_red_rows(first_messages: dict[str, str]) -> None:
    """Run every verify row at its defaults: exactly the rows named go red,
    and each one's first message starts as given."""
    red = {}
    for name, check in checks.CHECKS.items():
        passed, detail = check({})
        if not passed:
            red[name] = detail
    assert set(red) == set(first_messages)
    for name, detail in red.items():
        assert detail.startswith(first_messages[name]), (name, detail)


_TABLE1 = "g(1,1) reference table, row n=20:"  # red by design: the misprinted rows


def test_a_count_fault_at_n_9_turns_exactly_its_readers_red(monkeypatch):
    # t(9) += 2 in the tau_2 stream, which t is read from wherever it is read
    # by value: 2622 has one factor of two less than 2620.  The period rows
    # hold their residue stream to it mod their largest modulus.
    real = sequences.pth_root_counts

    def planted(p):
        values = real(p)
        return (value + 2 if p == 2 and n == 9 else value for n, value in enumerate(values))

    monkeypatch.setattr(sequences, "pth_root_counts", planted)
    _assert_red_rows({
        "cross": "n=9: direct sum gives 2620, recurrence 2622",
        "fibersum": "n=9: fibers sum to 2620, count is 2622",
        "lemma21": "p=2, n=9: enumerated 2620 roots, recurrence says 2622",
        "thm23": "p=2, n=9: valuation 1 below bound 2",
        "thm32": "n=9: graph route 2620 != recurrence 2622",
        "thm33": "n=9: odd factor 1311 != graph formula 655",
        "thm62": "m=99: the residue stream gives 46 at n=9, the count is 48",
        "thm63": "m=96: the residue stream gives 28 at n=9, the count is 30",
        "weights": "n=9: fibers sum to 2620, count is 2622",
        "table1": _TABLE1,
    })


def test_a_residue_fault_at_n_5_turns_exactly_its_readers_red(monkeypatch):
    # t(5) mod m plus one, in the residue stream that the period scan mod m
    # reads: the first modulus whose window reaches n = 5 goes red.
    real = sequences.removal_residues

    def planted(m):
        return ((value + 1) % m if n == 5 else value for n, value in enumerate(real(m)))

    monkeypatch.setattr(periodicity, "removal_residues", planted)
    _assert_red_rows({"thm62": "m=5:", "thm63": "m=2:", "table1": _TABLE1})


@pytest.mark.parametrize("k", range(41))
def test_a_residue_fault_turns_a_period_row_red_with_m_named(monkeypatch, k):
    # t(k) mod m plus one in the residue stream that the period scan mod m
    # reads.  A certificate that fails on it turns its row red with the
    # modulus named; uncaught, it aborted verify in 25 of these 82 runs.
    real = sequences.removal_residues

    def planted(m):
        return ((value + 1) % m if n == k else value for n, value in enumerate(real(m)))

    monkeypatch.setattr(periodicity, "removal_residues", planted)
    verdicts = [checks.CHECKS[name]({}) for name in ("thm62", "thm63")]
    assert not all(passed for passed, _ in verdicts)
    for passed, detail in verdicts:
        assert passed or detail.startswith("m="), detail


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
    """Reads from several threads: every read steps a fresh stream, so
    threads share nothing."""

    def test_threads_count_roots_as_one_thread_does(self):
        counts = []
        _in_four_threads(lambda: counts.append(pth_root_count(40, 13)))
        assert counts == [pth_root_count(40, 13)] * 4

    @pytest.mark.parametrize("read", [
        lambda: involution_count_via_graphs(403),
        lambda: graph_poly(40),
        lambda: list(islice(involution_counts_via_graphs(), 101)),
    ], ids=["count_via_graphs", "graph_poly", "counts_via_graphs"])
    def test_threads_read_the_graph_route_as_one_thread_does(self, read):
        values = []
        _in_four_threads(lambda: values.append(read()))
        assert values == [read()] * 4

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
