"""The package's public surface: every name a module lists in ``__all__``
and every name the package re-exports exists, and names removed from the
library stay gone, so ``from module import *`` cannot break on a stale
entry."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import involution_lab

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
    "algebra": ["odd_product", "arithmetic_product", "binomial"],  # math.prod, math.comb
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
    assert not hasattr(involution_lab.sequences.SequenceCache, "prefix")
