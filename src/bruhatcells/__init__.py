"""Conjugacy classes meeting Bruhat cells.

A library for deciding, at desk scale, when a conjugacy class of a
semi-simple group meets a Bruhat cell: Weyl group combinatorics (length,
Bruhat order, conjugacy and twisted conjugacy classes, the classification
of unique-maximal-length involutions), explicit criteria for SL(n+1) in
terms of Jordan data, and a brute-force oracle over small prime fields
that checks everything empirically.
"""

from .coxeter import (
    CartanType,
    RootSystem,
    WeylElement,
    bruhat_leq,
    build_root_system,
    coxeter_elements,
    delta0_on_root,
    delta0_permutation,
    element_to_word_str,
    longest_element,
    reduced_word,
    simple_reflection,
    word_to_element,
)
from .conjugacy import (
    ConjugacyClass,
    MaximalSet,
    catalog_subsets,
    classifying_subsets,
    conjugacy_class,
    conjugacy_classes,
    enumerate_weyl_group,
    fixed_simple_roots,
    involution_classes,
    property_one,
    property_two,
    subset_involution,
    subsets_with_property_one,
    twisted_class,
    unique_max_involutions,
    verify_ascent_classes,
    verify_coxeter_bound,
    verify_subset_conjugacy,
    verify_twisted_minimum,
    verify_unique_max_classification,
)
from .errors import GuardError
from .partitions import (
    Partition,
    cycle_type,
    dominance_leq,
    partitions_of,
)
from .permutations import (
    Permutation,
    all_permutations,
    bruhat_leq_perm,
    exceedances,
    involutions,
    permutation_to_weyl,
    weyl_to_permutation,
)
from .report import CheckResult, Report
from .sl_criteria import (
    JordanClass,
    abstract_jordan_classes,
    block_sum_partition,
    bruhat_lower_set,
    closure_monotonicity,
    dense_cell_involution,
    eigenspace_corank,
    involution_cell_meets,
    is_spherical,
    nested_involution,
    passes_corank_bound,
    spherical_weyl_set,
    two_cycle_cap,
    weyl_class_inside,
)
from .oracle import (
    COMPLETE_PAIRS,
    DEFAULT_PAIRS,
    IntersectionTable,
    MatrixFq,
    PrimeField,
    bruhat_cell,
    bruhat_factor,
    cell_size_census,
    coset_product_report,
    field_classes,
    gl_order,
    intersection_table,
    jordan_matrix,
    opposite_bruhat_cell,
    sl_order,
    validate_class,
)
from . import coxeter, oracle, sl_criteria

__version__ = "0.1.0"


def clear_caches() -> None:
    """Drop every cached result: the memo of each root system built so far
    (w0, the diagram map of -w0, the Bruhat pairs decided, the conjugacy and
    involution classes, the unique maxima, the Property-(1) subsets and the
    type-A root pairs), the cached root systems, the type-A lower sets, and
    the oracle's support plans and index maps (column reversals,
    off-diagonals, the n-cycle).  Later calls recompute what they need."""
    coxeter._clear_caches()
    sl_criteria._lower_set.cache_clear()
    oracle._support_plan.cache_clear()
    oracle._off_diagonal.cache_clear()
    oracle._cycle_conjugation.cache_clear()
    oracle._column_reversal.cache_clear()
