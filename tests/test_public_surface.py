"""The package's public surface: every name a module lists in ``__all__``
and every name the package re-exports exists, and names removed from the
library stay gone, so ``from module import *`` cannot break on a stale
entry."""

import __future__
import ast
import importlib
import pkgutil
import re
import signal
import types
from contextlib import contextmanager
from pathlib import Path

import pytest

import involution_lab
from involution_lab import algebra, twoadic, valuations
from involution_lab.algebra import INFINITY, BivariatePoly
from involution_lab.conjecture import TwoAdicPrefix, Violation
from involution_lab.enumeration import (
    ConstrainedGraph, RefinedClass, Signature, involution_weight, is_pth_root, permutation_cycles,
    refined_class,
)
from involution_lab.periodicity import PeriodReport, odd_factor_period
from involution_lab.sequences import graph_counts
from involution_lab.valuations import ValuationReport

SRC = Path(involution_lab.__file__).parent

MODULES = sorted(
    f"involution_lab.{info.name}" for info in pkgutil.iter_modules(involution_lab.__path__)
)

# Names deleted because nothing in the library called them, with what
# replaces each one.
REMOVED = {
    "periodicity": [
        "detect_period",  # involution_mod_period / odd_factor_period
        "_prefix_function",
        "verify_report_witnesses",
        "verify_odd_modulus",  # verify --check thm62, or mod_period_law
        "verify_even_modulus",  # verify --check thm63, or mod_period_law
        "involution_mod_prefix",  # islice(sequences.removal_residues(m), count)
    ],
    "algebra": [
        "odd_product", "arithmetic_product", "binomial",  # math.prod, math.comb
        "odd_product_ratio",  # sequences._graph_route_terms yields its factors
    ],
    "conjecture": ["even_count_val2"],  # valuation_report(4 * k + 1, "t_even").computed
    "cli": ["_quotients", "_halves"],  # sequences.odd_factor_step, twoadic.column_number
    "enumeration": [
        "_labeled_cycle_counts",  # permutation_cycles, _least_labeled_rotation
        "_graph_class",  # graph_class, which reads the free degrees it validates
        "_fiber_size", "_signature_weight",  # Signature.fiber_size, Signature.weight
        "simple_graphs",  # multigraphs(n) filtered; graph_count_bruteforce(n) counts them
        "_class_tally",  # the last tally of _class_tallies(n, p, cap, extra)
        "_graph_tally",  # the last tally of _graph_tallies(n, vertex_cap, max_mult)
    ],
    "twoadic": [
        "valuation_columns",  # certified_columns(tuple(COLUMNS), range(4 * k_max + 4))
        "even_count_val2_upto",  # certified_columns(("t_even",), range(1, 4 * k_max + 2, 4))
        "BIT_STEP_CAP",  # CELL_CAP; a step no longer costs bits that grow with n
    ],
    "sequences": [
        "_t_poly_cache",  # involution_polys(), a stream in n order
        "_tau_caches", "_tau_lock",  # pth_root_counts(p), a stream in n order
        "_graph_at_minus_one",  # graph_count_signed(n) steps graph_step from 0
        "_int_graph_cache",  # stepped(graph_step(1, x, y, (x * x + y) // 2), 8)
        "_t_cache",  # pth_root_counts(2), a stream in n order; involution_count(n) steps it
        "_signed_cache",  # stepped(removal_step(1, 1, -1), 2), a stream in n order
        "SequenceCache",  # stepped(step, window); no sequence is cached
        "_graph_at_one",  # graph_counts(), a stream in n order; graph_count(n) steps it
        "_graph_poly_cache",  # graph_polys(), a stream in n order; graph_poly(n) steps it
    ],
    "valuations": ["_prediction"],  # _PREDICTED[kind](n), and ValuationReport.matches
}

# The only underscore names one module of the package reads from another,
# as (reading module, owner.name).  Any other shared helper goes public.
PRIVATE_CROSSINGS = {
    ("checks", "enumeration._class_size"),
    ("checks", "enumeration._class_tallies"),
    ("checks", "enumeration._graph_tallies"),
    ("checks", "enumeration._multigraphs_by_n"),
    ("checks", "enumeration._weight_sum"),
    ("periodicity", "twoadic._refuse_window"),
    ("periodicity", "twoadic._residue_array"),
    ("checks", "twoadic._refuse_window"),
}


@pytest.mark.parametrize("name", MODULES)
def test_all_names_exist(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert [attr for attr in exported if not hasattr(module, attr)] == []
    namespace: dict = {}
    exec(f"from {name} import *", namespace)


def test_package_reexports_exist():
    tree = ast.parse(Path(involution_lab.__file__).read_text(encoding="utf-8"))
    names = [alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
             for alias in node.names if node.module != "__future__"]
    assert names
    assert [name for name in names if not hasattr(involution_lab, name)] == []


def test_removed_names_are_gone():
    for module_name, names in REMOVED.items():
        module = importlib.import_module(f"involution_lab.{module_name}")
        for name in names:
            assert not hasattr(module, name), f"{module_name}.{name}"
            assert not hasattr(involution_lab, name), name
            with pytest.raises(ImportError):
                exec(f"from involution_lab import {name}", {})
    assert not hasattr(involution_lab.algebra.BivariatePoly, "to_json_terms")
    assert not hasattr(involution_lab.algebra.BivariatePoly, "from_json_terms")


# The only module-level values that are not immutable: constant tables,
# built at import and never written, as (module, name).  Anything else at
# module level is immutable, so no state is shared between calls or threads.
CONSTANT_TABLES = {
    ("checks", "ROWS"), ("checks", "CHECKS"),
    ("checks", "_ROOTS"), ("checks", "_VERTICES"), ("checks", "_CAPS"),
    ("checks", "_G1"), ("checks", "_G2"),
    ("cli", "_SEQ_VALUES"),
    ("reference_tables", "G_AT_ONE"), ("reference_tables", "G_AT_MINUS_ONE"),
    ("reference_tables", "CORRECTED_G_AT_ONE"),
    ("twoadic", "COLUMNS"), ("valuations", "COLUMNS"),
    ("valuations", "_PREDICTED"),
}

_IMMUTABLE = (int, float, str, BivariatePoly, types.FunctionType, types.BuiltinFunctionType,
              type, types.ModuleType, types.GenericAlias, __future__._Feature)


def _immutable(value) -> bool:
    if isinstance(value, tuple):
        return all(map(_immutable, value))
    # Type aliases and special forms (Iterator, Union[...], Callable) live in typing.
    return (isinstance(value, _IMMUTABLE) or value is INFINITY
            or type(value).__module__ == "typing")


def test_module_level_values_are_immutable_or_constant_tables():
    found = set()
    for name in MODULES:
        module = importlib.import_module(name)
        for attr, value in vars(module).items():
            if not (attr.startswith("__") and attr.endswith("__")) and not _immutable(value):
                found.add((name.rpartition(".")[2], attr))
    assert found == CONSTANT_TABLES


_VIOLATION = Violation(3, "odd_exponent", "count at odd k=3 vanished")

# One worked example of each record type, with its JSON form (None where the
# type has none).
RECORDS = [
    (_VIOLATION, {"k": 3, "kind": "odd_exponent", "message": "count at odd k=3 vanished"}),
    (TwoAdicPrefix(9, 4, (1, 1, 0), (_VIOLATION,)),
     {"k_max": 9, "bit_budget": 4, "digits": [1, 1, 0], "undetermined_from": 3,
      "violations": [_VIOLATION.to_json_obj()]}),
    (RefinedClass((1,), (((2,), 1),)), {"bag": [1], "cycles": [[[2], 1]]}),
    (ConstrainedGraph(3, ((1, 2, 2), (2, 3, 1))), {"vertices": 3, "edges": [[1, 2, 2], [2, 3, 1]]}),
    (Signature(1, 0, 0, 3), None),
    (PeriodReport(8, 2, 4, 12, ((1, 2), (2, 3))),
     {"modulus": 8, "preperiod": 2, "period": 4, "window_checked": 12,
      "witnesses": {"rejected_divisors": [[1, 2], [2, 3]], "preperiod_index": 1}}),
    (ValuationReport(5, "t", 1, 1), None),
]


def _fields(record) -> tuple:
    return tuple(getattr(record, name) for name in type(record).__match_args__)


@pytest.mark.parametrize("record, json_obj", RECORDS, ids=[type(r).__name__ for r, _ in RECORDS])
def test_records_are_frozen_hashable_values(record, json_obj):
    for name in type(record).__match_args__:
        with pytest.raises(AttributeError):
            setattr(record, name, None)
    twin = type(record)(*_fields(record))
    assert twin == record and hash(twin) == hash(record)
    assert repr(record).startswith(f"{type(record).__name__}(")
    if json_obj is not None:
        assert record.to_json_obj() == json_obj


@pytest.mark.parametrize("records", [
    [RefinedClass((2,), ()), RefinedClass((1,), (((2,), 1),)), RefinedClass((), (((1, 1), 2),)),
     RefinedClass((1,), (((1, 2), 1),))],
    [ConstrainedGraph(3, ((1, 2, 2),)), ConstrainedGraph(2, ((1, 2, 1),)),
     ConstrainedGraph(3, ((1, 2, 1), (2, 3, 1))), ConstrainedGraph(3, ())],
], ids=["RefinedClass", "ConstrainedGraph"])
def test_keys_sort_by_their_fields(records):
    assert [_fields(r) for r in sorted(records)] == sorted(_fields(r) for r in records)


def test_every_table_lists_the_same_columns():
    assert tuple(valuations._PREDICTED) == valuations.REPORT_KINDS == tuple(twoadic.COLUMNS)


def _private_crossings(path: Path) -> set[tuple[str, str]]:
    """Underscore names the module at ``path`` imports from, or reads as an
    attribute of, another module of the package."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    modules: dict[str, str] = {}  # local name -> package module
    names: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for alias in node.names:
                if node.module is None:
                    modules[alias.asname or alias.name] = alias.name
                elif alias.name.startswith("_"):
                    names.add(f"{node.module}.{alias.name}")
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules and node.attr.startswith("_")
                and not node.attr.startswith("__")):
            names.add(f"{modules[node.value.id]}.{node.attr}")
    return {(path.stem, name) for name in names}


def test_private_names_stay_inside_their_module():
    crossings = set().union(*(_private_crossings(path) for path in sorted(SRC.glob("*.py"))))
    assert crossings == PRIVATE_CROSSINGS


@contextmanager
def _within(seconds: float):
    """Raise TimeoutError in the body once ``seconds`` have passed: a call
    that loops forever fails instead of hanging the run."""
    def expire(signum, frame):
        raise TimeoutError(f"no answer within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


# Calls that once answered wrongly, looped forever or failed with another
# error, each with the message of the rule it breaks.
REFUSED = [
    (lambda: graph_counts(0), "y must be 1 or -1, got 0"),
    (lambda: graph_counts(2), "y must be 1 or -1, got 2"),
    (lambda: permutation_cycles((1, 1)), "(1, 1) is not a permutation of 1..2"),
    (lambda: permutation_cycles((0, 1)), "(0, 1) is not a permutation of 1..2"),
    (lambda: is_pth_root((2, 2), 2), "(2, 2) is not a permutation of 1..2"),
    (lambda: refined_class((1, 2, 3, 4), 4), "p must be prime, got 4"),
    (lambda: refined_class((1, 2), 0), "p must be prime, got 0"),
    (lambda: involution_weight((3, 1)), "(3, 1) is not a permutation of 1..2"),
    (lambda: valuations.tau_valuation_bound(5, 4), "p must be prime, got 4"),
    (lambda: odd_factor_period(-4), "s must be positive"),
]


@pytest.mark.parametrize("call, message", REFUSED, ids=[
    "graph_counts-0", "graph_counts-2", "permutation_cycles-repeat", "permutation_cycles-zero",
    "is_pth_root", "refined_class-4", "refined_class-0", "involution_weight",
    "tau_valuation_bound", "odd_factor_period"])
def test_bad_arguments_are_refused_at_the_call(call, message):
    with _within(1.0), pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


@pytest.mark.parametrize("text, source", [
    ("must be nonnegative", "algebra.py"), ("must be positive", "algebra.py"),
    ("must be prime", "algebra.py"), ("unknown kind", "algebra.py"),
    ("must be 1 or -1", "algebra.py"),
    # One reader each, so the rule is stated where it is read.
    ("is not a permutation of", "enumeration.py"),
    ("below the step's reach", "sequences.py"),
])
def test_each_rule_message_has_one_source(text, source):
    # The library's input rules are stated by the guards in ``algebra``; the
    # command line's usage messages are its own.
    sources = [path.name for path in sorted(SRC.glob("*.py"))
               if path.name != "cli.py" and text in path.read_text(encoding="utf-8")]
    assert sources == [source]


def test_the_guards_are_the_only_new_public_rules():
    assert [name for name in algebra.__all__ if name.startswith("require_")] == [
        "require_at_least", "require_positive", "require_prime", "require_kind", "require_sign"]
