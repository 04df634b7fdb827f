"""Exact invariants of connected sums of complex projective spaces.

Core layers:

- ``fgab``: exact arithmetic on finitely generated abelian groups
  (Smith normal form, kernels/cokernels, localization);
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
    group_from_relations,
    hom_cokernel,
    hom_image,
    hom_kernel,
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
from .tables import GeneratorLabel, Result, UntabulatedDegree
from .cohomotopy import pi_s0_connected_sum
from .ktheory import complex_k0, complex_k_minus1, ko_group, verify_sandwich
from .surgery import (
    AmbiguousUpstream,
    StructureSetResult,
    f_over_o,
    f_over_pl,
    kernel_f_star_rank,
    pl_over_o,
    structure_set,
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
    "UntabulatedDegree",
    "brute_force_middle_terms",
    "complex_k0",
    "complex_k_minus1",
    "f_over_o",
    "f_over_pl",
    "group_from_relations",
    "hom_cokernel",
    "hom_image",
    "hom_kernel",
    "kernel_f_star_rank",
    "ko_group",
    "middle_candidates",
    "middle_candidates_between",
    "pi_s0_connected_sum",
    "pl_over_o",
    "resolve",
    "smith_normal_form",
    "structure_set",
    "verify_sandwich",
]
