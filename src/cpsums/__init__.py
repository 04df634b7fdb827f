"""Exact invariants of connected sums of complex projective spaces.

Core layers:

- ``fgab``: exact arithmetic on finitely generated abelian groups
  (Smith normal form, kernels/cokernels, Ext, localization);
- ``extensions``: classification of middle terms of short exact
  sequences, with a brute-force oracle and splitting filters;
- ``tables``: citation-annotated input data (stable stems, single-copy
  cohomotopy and K-groups, Wall groups) and ``Result``, the record the
  group-valued invariants return;
- ``cohomotopy``, ``ktheory``, ``surgery``: the computed invariants of
  #_k CP^n (stable cohomotopy, K- and KO-groups, normal invariants,
  tangential structure sets and exotic-manifold counts);
- ``cli``: the ``cpsums`` command-line front end.
"""

from .fgab import (
    DimensionMismatch,
    FgAbGroup,
    Homomorphism,
    IntegerMatrix,
    direct_sum,
    ext1,
    group_from_relations,
    has_element_of_order,
    hom_cokernel,
    hom_image,
    hom_kernel,
    localize_at_prime,
    smith_normal_form,
)
from .extensions import (
    AmbiguousResult,
    EmptyAfterFiltering,
    ExtensionSizeError,
    ShortExactSequence,
    SplittingFilter,
    brute_force_middle_terms,
    middle_candidates,
    middle_candidates_between,
    resolve,
)
from .tables import GeneratorLabel, Result, TableEntry, UntabulatedDegree
from .cohomotopy import build_sequence, pi_s0_connected_sum
from .ktheory import complex_k0, complex_k_minus1, ko_group, verify_sandwich
from .surgery import (
    AmbiguousUpstream,
    StructureSetResult,
    f_over_o,
    f_over_pl,
    image_c_star_generators,
    kernel_f_star_rank,
    pl_over_o,
    structure_set,
    surgery_sequence_report,
)

__version__ = "0.1.0"

__all__ = [
    "AmbiguousResult",
    "AmbiguousUpstream",
    "DimensionMismatch",
    "EmptyAfterFiltering",
    "ExtensionSizeError",
    "FgAbGroup",
    "GeneratorLabel",
    "Homomorphism",
    "IntegerMatrix",
    "Result",
    "ShortExactSequence",
    "SplittingFilter",
    "StructureSetResult",
    "TableEntry",
    "UntabulatedDegree",
    "brute_force_middle_terms",
    "build_sequence",
    "complex_k0",
    "complex_k_minus1",
    "direct_sum",
    "ext1",
    "f_over_o",
    "f_over_pl",
    "group_from_relations",
    "has_element_of_order",
    "hom_cokernel",
    "hom_image",
    "hom_kernel",
    "image_c_star_generators",
    "kernel_f_star_rank",
    "ko_group",
    "localize_at_prime",
    "middle_candidates",
    "middle_candidates_between",
    "pi_s0_connected_sum",
    "pl_over_o",
    "resolve",
    "smith_normal_form",
    "structure_set",
    "surgery_sequence_report",
    "verify_sandwich",
]
