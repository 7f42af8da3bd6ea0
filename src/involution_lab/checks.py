"""Named verification batches behind ``involution-lab verify``.

Each check is one row of ``ROWS``: a generator that recomputes a family of
identities and yields a message for every counterexample; the flags it reads
(a ``verify`` flag, or a ``*_cap`` enumeration cap), each mapped to its default
and the first cell of its range (None when it is not a range); and the
template of its pass verdict.  A default may be a function of the values
resolved before it.  ``CHECKS[name](params)`` returns (passed, detail); the
detail is the first counterexample on failure, so a red check always names
the cell that broke.
"""

from __future__ import annotations

from collections import Counter
from functools import partial
from itertools import chain
from typing import Callable, Iterator

from . import enumeration, periodicity, reference_tables, sequences, valuations
from .algebra import BivariatePoly, odd_part, val2, val_p
from .errors import VerificationError

__all__ = ["CHECKS", "ROWS", "EmptyRangeError", "option", "resolve"]

# thm33 checks the odd factor's graph formula this far; no flag moves it.
_BETA_MAX = 400


class EmptyRangeError(ValueError):
    """An explicit range bound is negative or leaves a check no cell to run."""


def option(key: str) -> str:
    return "--" + key.replace("_", "-")


def resolve(name: str, params: dict) -> dict:
    """Values of the flags check ``name`` reads: the explicit value when one
    is given (zero included), else the default.  An explicit range bound that
    is negative or below the range's first cell would make the check pass
    vacuously, so it raises."""
    values: dict = {}
    for key, (default, first) in ROWS[name][1].items():
        value = params.get(key)
        if value is None:
            value = default(values) if callable(default) else default
        elif first is not None and value < first:
            raise EmptyRangeError(
                f"{option(key)} must be nonnegative" if value < 0 else
                f"{option(key)} {value} leaves no cell to check; the range starts at {first}"
            )
        values[key] = value
    return values


def _check(name: str, params: dict) -> tuple[bool, str]:
    cells, _, passed = ROWS[name]
    values = resolve(name, params)
    try:
        return False, next(cells(**values))
    except StopIteration as done:  # a generator may return extra template fields
        return True, passed.format(**values, **(done.value or {}))


def _lemma21_n_max(values: dict) -> int:
    # From p = 7 on, n = p is the first n with a p-cycle to place.
    return {2: 10, 3: 9, 5: 7}.get(values["p"], values["p"])


def _lemma21(p: int, n_max: int, root_cap: int) -> Iterator[str]:
    """Grouping the enumerated p-th roots by refined class reproduces the
    class-size formula cell by cell, and the cells sum to the root count."""
    tallies = enumeration._class_tallies(n_max, p, root_cap)
    for (n, groups), count in zip(tallies, sequences.pth_root_counts(p)):
        for cls, actual in sorted(groups.items()):
            predicted = enumeration.class_size(cls, p, n)
            if predicted != actual:
                yield (f"p={p}, n={n}, class {cls.to_json_obj()}: formula gives "
                       f"{predicted}, enumeration gives {actual}")
        roots = sum(groups.values())
        if roots != count:
            yield f"p={p}, n={n}: enumerated {roots} roots, recurrence says {count}"


def _cor31(n_max: int, root_cap: int, vertex_cap: int) -> Iterator[str]:
    """For p = 2 the refined classes correspond one-to-one with the
    admissible graphs, and the power-of-two fiber size matches the general
    class-size formula on every class.  Both caps are checked before either
    walk starts."""
    classes_by_n = enumeration._class_tallies(n_max, 2, root_cap)
    graphs_by_n = enumeration._multigraphs_by_n(n_max, vertex_cap)
    for (n, tally), (_, walked) in zip(classes_by_n, graphs_by_n):
        classes = sorted(tally)
        graphs = [enumeration.class_graph(c, n) for c in classes]
        mapped = Counter(graphs)
        enumerated = Counter(walked)
        if mapped != enumerated:
            g = min((mapped - enumerated) | (enumerated - mapped))
            yield (f"n={n}: {mapped[g]} classes map to graph {g.to_json_obj()}, "
                   f"the enumeration gives it {enumerated[g]} times")
        for cls, g in zip(classes, graphs):
            if enumeration.graph_class(g, n) != cls:
                yield f"n={n}: graph round-trip broke on {cls.to_json_obj()}"
            lhs = enumeration.fiber_size(g, n)
            rhs = enumeration._class_size(cls, 2, n)
            if lhs != rhs:
                yield f"n={n}, graph {g.to_json_obj()}: fiber size {lhs} != class size {rhs}"


def _thm32(n_max: int) -> Iterator[str]:
    """Involution count reassembled from graph counts equals the recurrence."""
    for n, rhs in zip(range(n_max + 1), sequences.pth_root_counts(2)):
        lhs = sequences.involution_count_via_graphs(n)
        if lhs != rhs:
            yield f"n={n}: graph route {lhs} != recurrence {rhs}"


def _thm33(n_max: int) -> Iterator[str]:
    """Exponent-of-two closed form, read by the 2-adic engine, and the odd
    factor's graph formula, against the exact count."""
    for report in valuations.column_reports(("t",), range(n_max + 1)):
        if not report.matches:
            yield (f"n={report.n}: val2 of count is {report.computed}, "
                   f"closed form {report.predicted}")
    for n, count in zip(range(_BETA_MAX + 1), sequences.pth_root_counts(2)):
        lhs = odd_part(count)
        rhs = sequences.odd_factor_closed(n)
        if lhs != rhs:
            yield f"n={n}: odd factor {lhs} != graph formula {rhs}"


def _thm41(n_max: int) -> Iterator[str]:
    """Polynomial identity between the graph route and the recurrence."""
    for n, poly in zip(range(n_max + 1), sequences.involution_polys()):
        via = sequences.involution_poly_via_graphs(n)
        if via != poly:
            yield f"n={n}: polynomial routes disagree"
        if not via.is_integral:
            yield f"n={n}: graph route left a non-integer coefficient"


def _prop42(n_max: int, vertex_cap: int) -> Iterator[str]:
    """Graph-polynomial recurrence equals the brute-force weight sum."""
    for n, tally in enumeration._graph_tallies(n_max, vertex_cap, 1):
        if sequences.graph_poly(n) != enumeration._weight_sum(tally):
            yield f"n={n}: recurrence and graph enumeration disagree"


def _shift_bound_row(k: int) -> Iterator[tuple[int, int, bool]]:
    """(i, val2(2**i C(k, i)), bound holds) for i = 1..k, held to
    ``valuations.binomial_shift_bound_holds``.  The exponent is stepped along
    the row, val2(C(k, i)) = val2(C(k, i-1)) + val2(k - i + 1) - val2(i), so
    no binomial is built."""
    v = 0  # val2(C(k, i - 1))
    for i in range(1, k + 1):
        v += val2(k - i + 1) - val2(i)
        yield i, i + v, valuations.binomial_shift_bound_holds(k, i, i + v)


def _lemma51(k_max: int) -> Iterator[str]:
    for k in range(1, k_max + 1):
        for i, _, holds in _shift_bound_row(k):
            if not holds:
                yield f"bound fails at k={k}, i={i}"


def _parity(residues: tuple[int, ...], kinds: tuple[str, ...], k_max: int) -> Iterator[str]:
    """Column valuations against their closed forms on n = 4k + r, k <= k_max,
    for r in the ascending ``residues``; for the signed sum (r = 0..3) that is
    every n < 4 k_max + 4, zero case included.  The 2-adic engine reads only
    these kinds, in one read of every n when all four residues are checked,
    else one read of every fourth n per residue, merged back into n order."""
    reads = ([range(4 * k_max + 4)] if len(residues) == 4 else
             [range(r, 4 * k_max + r + 1, 4) for r in residues])
    reports = [valuations.column_reports(kinds, indices) for indices in reads]
    for report in chain.from_iterable(zip(*reports)):
        if report.predicted is None:
            yield f"n={report.n}: no closed form on this residue class"
        elif not report.matches:
            yield (f"n={report.n} ({report.kind}): computed {report.computed}, "
                   f"predicted {report.predicted}")


def _thm23(p: int | None, n_max: int) -> Iterator[str]:
    """Valuation lower bound for the p-th-root counts: p**bound divides each."""
    primes = (2, 3, 5, 7) if p is None else (p,)
    for q in primes:
        for n, count in zip(range(n_max + 1), sequences.pth_root_counts(q)):
            bound = valuations.tau_valuation_bound(n, q)
            if count % q**bound:
                yield f"p={q}, n={n}: valuation {val_p(count, q)} below bound {bound}"
    return {"primes": primes}


def _lemma64(s_max: int) -> Iterator[str]:
    for s in range(3, s_max + 1):
        if not periodicity.odd_product_congruence(s):
            yield f"odd product congruence fails at s={s}"


def _lemma65(s_max: int, n_max: int) -> Iterator[str]:
    for s in range(3, s_max + 1):
        if not periodicity.odd_factor_shift_congruence(s, n_max):
            yield f"odd factor shift congruence fails at s={s}"


def _mod_period(first: int, m_max: int) -> Iterator[str]:
    """The counts mod m, for m = first, first + 2, ... up to m_max, follow
    periodicity.mod_period_law: odd m from first = 1, even m from 2."""
    for m in range(first, m_max + 1, 2):
        report = periodicity.involution_mod_period(m)
        law = periodicity.mod_period_law(m)
        if (report.preperiod, report.period) != law:
            yield (f"m={m}: preperiod {report.preperiod}, period {report.period}; "
                   f"the law gives {law[0]}, {law[1]}")


def _thm66(s_max: int) -> Iterator[str]:
    """Odd factors mod 2**s: odd_factor_period holds each report to the law."""
    for s in range(3, s_max + 1):
        try:
            periodicity.odd_factor_period(s)
        except VerificationError as exc:
            yield str(exc)


def _fiber_sum(n: int, tally: dict) -> Iterator[str]:
    """The fibers of the admissible graphs for n letters, tallied by
    signature, sum to the involution count."""
    fibers = sum(count * signature.fiber_size(n) for signature, count in tally.items())
    count = sequences.involution_count(n)
    if fibers != count:
        yield f"n={n}: fibers sum to {fibers}, count is {count}"


def _cycle_degrees(counts: dict[tuple[int, ...], int]) -> tuple[int, int]:
    """(fixed points, transpositions) of the involutions with these
    labeled-cycle counts: the 1-cycles and the 2-cycles."""
    fixed = sum(mult for cycle, mult in counts.items() if len(cycle) == 1)
    return fixed, sum(counts.values()) - fixed


def _weights(n_max: int, root_cap: int, vertex_cap: int) -> Iterator[str]:
    """There are as many refined classes as graphs, summed involution weights
    over each fiber equal fiber size times the graph weight, and the fiber
    sizes sum to the involution count.  Both caps are checked before either
    walk starts."""
    classes_by_n = enumeration._class_tallies(n_max, 2, root_cap, _cycle_degrees)
    signatures_by_n = enumeration._graph_tallies(n_max, vertex_cap, 2)
    for (n, tally), (_, signatures) in zip(classes_by_n, signatures_by_n):
        # Per class, the involutions counted by (fixed points, transpositions).
        by_class: dict = {}
        for (cls, degrees), count in tally.items():
            by_class.setdefault(cls, {})[degrees] = count
        graphs = sum(signatures.values())
        if len(by_class) != graphs:
            yield f"n={n}: {len(by_class)} refined classes, {graphs} graphs"
        for cls, degrees in sorted(by_class.items()):
            g = enumeration.class_graph(cls, n)
            signature = enumeration.graph_signature(g, n)
            if BivariatePoly(degrees) != signature.fiber_size(n) * signature.weight():
                yield f"n={n}, graph {g.to_json_obj()}: weight identity fails"
        yield from _fiber_sum(n, signatures)


def _fibersum(n_max: int, vertex_cap: int) -> Iterator[str]:
    for n, tally in enumeration._graph_tallies(n_max, vertex_cap, 2):
        yield from _fiber_sum(n, tally)


def _coeffs(n_max: int) -> Iterator[str]:
    """Coefficient of x**(n-2i) y**i in the involution polynomial equals
    n!/(2**i i! (n-2i)!), stepped from term to term by
    ``sequences.transposition_counts``.  Polynomials are canonical, so they
    are compared whole; only a mismatch is read term by term."""
    for n, poly in zip(range(n_max + 1), sequences.involution_polys()):
        expected_terms = {
            (n - 2 * i, i): term for i, term in enumerate(sequences.transposition_counts(n))
        }
        if poly == BivariatePoly(expected_terms):
            continue
        for (dx, dy), coeff in poly.items():
            want = expected_terms.pop((dx, dy), None)
            if want is None or coeff != want:
                yield f"n={n}: coefficient at x^{dx} y^{dy} is {coeff}, want {want}"
        if expected_terms:
            yield f"n={n}: missing terms {sorted(expected_terms)}"


def _cross(n_max: int) -> Iterator[str]:
    """All four involution-count routes agree."""
    for n, poly, t in zip(range(n_max + 1), sequences.involution_polys(),
                          sequences.pth_root_counts(2)):
        routes = {
            "direct sum": sequences.involution_count_direct(n),
            "polynomial at (1,1)": poly.evaluate(1, 1),
            "graph formula": sequences.involution_count_via_graphs(n),
        }
        for name, value in routes.items():
            if value != t:
                yield f"n={n}: {name} gives {value}, recurrence {t}"


def _table(reference: dict, computed, table: str) -> Iterator[str]:
    """Every reference cell, reproduced verbatim; a failure names them all."""
    bad = [(n, got, want) for n, want in sorted(reference.items()) if (got := computed(n)) != want]
    if bad:
        cells = "; ".join(
            f"{reference_tables.cell_name(table, n)}: computed {got}, reference {want}"
            for n, got, want in bad
        )
        note = ""
        if table == "g(1,1)" and all(n in reference_tables.CORRECTED_G_AT_ONE for n, _, _ in bad):
            note = (
                " [reference rows 20-21 are known misprints; the computed "
                "values satisfy the odd-index recurrence and the involution-count "
                "identity, and the printed rows are the computed n=21 and n=22 "
                "values -- see reference_tables]"
            )
        yield cells + note


_ROOTS = {"root_cap": (enumeration.DEFAULT_ROOT_CAP, None)}
_VERTICES = {"vertex_cap": (enumeration.DEFAULT_VERTEX_CAP, None)}
_CAPS = {**_ROOTS, **_VERTICES}
_G1, _G2 = reference_tables.G_AT_ONE, reference_tables.G_AT_MINUS_ONE

ROWS: dict[str, tuple[Callable[..., Iterator[str]], dict[str, tuple], str]] = {
    "lemma21": (_lemma21, {"p": (2, None), "n_max": (_lemma21_n_max, 0), **_ROOTS}, "fiber law verified for p={p}, n<={n_max}"),
    "thm23": (_thm23, {"p": (None, None), "n_max": (500, 0)}, "valuation bound verified for p in {primes}, n<={n_max}"),
    "cor31": (_cor31, {"n_max": (10, 0), **_CAPS}, "graph correspondence verified for n<={n_max}"),
    "thm32": (_thm32, {"n_max": (400, 0)}, "count identity verified for n<={n_max}"),
    "thm33": (_thm33, {"n_max": (2000, 0)}, f"valuation closed form (n<={{n_max}}) and odd factor (n<={_BETA_MAX}) verified"),
    "thm41": (_thm41, {"n_max": (80, 0)}, "polynomial identity verified for n<={n_max}"),
    "prop42": (_prop42, {"n_max": (13, 0), **_VERTICES}, "graph polynomial verified against enumeration for n<={n_max}"),
    "lemma51": (_lemma51, {"k_max": (256, 1)}, "shifted binomial bound verified for k<={k_max}"),
    "thm52": (partial(_parity, (0, 1, 2, 3), ("t_signed",)), {"k_max": (500, 0)}, "signed valuations verified for k<={k_max}"),
    "cor53": (partial(_parity, (2, 3), ("t_even", "t_odd")), {"k_max": (500, 0)}, "equal even/odd valuations verified for k<={k_max}"),
    "thm54": (partial(_parity, (0,), ("t_even",)), {"k_max": (500, 0)}, "t_even valuations verified on residues (0,) for k<={k_max}"),
    "thm55": (partial(_parity, (1,), ("t_odd",)), {"k_max": (500, 0)}, "t_odd valuations verified on residues (1,) for k<={k_max}"),
    "thm62": (partial(_mod_period, 1), {"m_max": (99, 1)}, "odd moduli verified for m<={m_max}"),
    "thm63": (partial(_mod_period, 2), {"m_max": (96, 2)}, "even moduli verified for m<={m_max}"),
    "lemma64": (_lemma64, {"s_max": (16, 3)}, "odd product congruence verified for 3<=s<={s_max}"),
    "lemma65": (_lemma65, {"s_max": (6, 3), "n_max": (128, 0)}, "odd factor shift congruence verified for 3<=s<={s_max}, n<={n_max}"),
    "thm66": (_thm66, {"s_max": (6, 3)}, "odd factor periods verified for 3<=s<={s_max}"),
    "table1": (partial(_table, _G1, sequences.graph_count, "g(1,1)"), {}, f"all {len(_G1)} g(1,1) reference cells reproduced"),
    "table2": (partial(_table, _G2, sequences.graph_count_signed, "g(1,-1)"), {}, f"all {len(_G2)} g(1,-1) reference cells reproduced"),
    "weights": (_weights, {"n_max": (9, 0), **_CAPS}, "weight identity verified for n<={n_max}"),
    "fibersum": (_fibersum, {"n_max": (12, 0), **_VERTICES}, "fiber sums verified for n<={n_max}"),
    "coeffs": (_coeffs, {"n_max": (60, 0)}, "coefficient law verified for n<={n_max}"),
    "cross": (_cross, {"n_max": (400, 0)}, "cross-engine agreement verified for n<={n_max}"),
}

CHECKS: dict[str, Callable[[dict], tuple[bool, str]]] = {
    name: partial(_check, name) for name in ROWS
}
