"""Every exported name resolves: the ``__all__`` of each module and the
public names of the package namespace.  The package's public names are
pinned, and every ``bc.NAME`` the benchmark calls must be among them."""

import importlib
import pkgutil
import re
import types
from pathlib import Path

import pytest

import bruhatcells

MODULES = sorted(
    info.name
    for info in pkgutil.iter_modules(bruhatcells.__path__)
    if info.name != "__main__"
)


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    module = importlib.import_module(f"bruhatcells.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing


def test_star_imports_resolve():
    for name in ["bruhatcells"] + [f"bruhatcells.{m}" for m in MODULES]:
        exec(f"from {name} import *", {})



# Adding or removing a public name is an API change: update this list with it.
PUBLIC_NAMES = [
    "COMPLETE_PAIRS", "CartanType", "CheckResult", "ConjugacyClass",
    "DEFAULT_PAIRS", "GuardError", "IntersectionTable", "JordanClass",
    "MatrixFq", "MaximalSet", "Partition", "Permutation", "PrimeField",
    "Report", "RootSystem", "WeylElement", "abstract_jordan_classes",
    "all_permutations", "block_sum_partition", "bruhat_cell",
    "bruhat_factor", "bruhat_leq", "bruhat_leq_perm", "bruhat_lower_set",
    "build_root_system", "catalog_subsets", "cell_size_census",
    "classifying_subsets", "clear_caches", "closure_monotonicity",
    "conjugacy_class", "conjugacy_classes", "coset_product_report",
    "coxeter_elements", "cycle_type", "delta0_on_root", "delta0_permutation",
    "dense_cell_involution", "dominance_leq", "eigenspace_corank",
    "element_to_word_str", "enumerate_weyl_group",
    "exceedances", "field_classes", "fixed_simple_roots", "gl_order",
    "intersection_table", "involution_cell_meets", "involution_classes",
    "involutions", "is_spherical", "jordan_matrix", "longest_element",
    "nested_involution", "opposite_bruhat_cell", "partitions_of",
    "passes_corank_bound", "permutation_to_weyl", "property_one",
    "property_two", "reduced_word", "simple_reflection", "sl_order",
    "spherical_weyl_set", "subset_involution", "subsets_with_property_one",
    "twisted_class", "two_cycle_cap", "unique_max_involutions",
    "validate_class", "verify_ascent_classes", "verify_coxeter_bound",
    "verify_subset_conjugacy", "verify_twisted_minimum",
    "verify_unique_max_classification", "weyl_class_inside",
    "weyl_to_permutation", "word_to_element",
]


def test_public_names_are_pinned():
    public = sorted(
        name
        for name, value in vars(bruhatcells).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    )
    assert PUBLIC_NAMES == sorted(PUBLIC_NAMES)
    assert public == PUBLIC_NAMES


BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.mark.parametrize("script", ["workloads.py", "probes.py"])
def test_benchmark_calls_resolve(script):
    # read only: the benchmark's files are not edited here
    names = set(re.findall(r"\bbc\.(\w+)", (BENCH / script).read_text()))
    assert names
    assert not [n for n in sorted(names) if not hasattr(bruhatcells, n)]
