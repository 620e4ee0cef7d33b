"""Exact computational algebra for binary multispinal self-similar groups.

Submodules:

    gf2n          GF(2^n) arithmetic from a primitive polynomial
    hyperplanes   index-2 subgroups, the 2-design, base blocks
    exact_linalg  inclusion matrix W, right-inverse T, exact ranks
    selfsim       nucleus automaton, action, bisimulation equality
    groupoid      inverse semigroup, germs, region searches, bounds
    certify       full pipeline emitting one certificate document
    cli           command-line frontend
"""

__version__ = "0.1.0"

from .gf2n import (
    DEFAULT_POLYS,
    FieldContext,
    PrimitivePolynomial,
    default_poly,
    field_context,
    is_primitive,
)
from .hyperplanes import (
    BaseBlock,
    DesignError,
    DesignParams,
    Hyperplane,
    build_hyperplanes,
    extract_base_block,
    pair_count,
    search_base_blocks,
    verify_design,
)
from .exact_linalg import (
    InclusionMatrix,
    RightInverse,
    build_T,
    build_W,
    build_W_general,
    check_R_conditions,
    rank_mod_p,
    rank_over_Q,
    verify_right_inverse,
)
from .selfsim import GroupElement, MultispinalGroup, NucleusReport
from .groupoid import (
    ONES,
    ZERO,
    GermPoint,
    MembershipMismatch,
    RegionPattern,
    RegionSearchError,
    SemigroupTriple,
    Tail,
    bound_check,
    germ_equal,
    intersect_witness,
    is_idempotent,
    membership_matrix,
    point_in_bisection,
    region_pattern,
    sample_bound_ratios,
    sg_equal,
    sg_multiply,
    sg_star,
    singular_system_certificate,
)
from . import certify  # the submodule; the pipeline is certify.certify

__all__ = [
    "DEFAULT_POLYS",
    "FieldContext",
    "PrimitivePolynomial",
    "default_poly",
    "field_context",
    "is_primitive",
    "BaseBlock",
    "DesignError",
    "DesignParams",
    "Hyperplane",
    "build_hyperplanes",
    "extract_base_block",
    "pair_count",
    "search_base_blocks",
    "verify_design",
    "InclusionMatrix",
    "RightInverse",
    "build_T",
    "build_W",
    "build_W_general",
    "check_R_conditions",
    "rank_mod_p",
    "rank_over_Q",
    "verify_right_inverse",
    "GroupElement",
    "MultispinalGroup",
    "NucleusReport",
    "ONES",
    "ZERO",
    "GermPoint",
    "MembershipMismatch",
    "RegionPattern",
    "RegionSearchError",
    "SemigroupTriple",
    "Tail",
    "bound_check",
    "germ_equal",
    "intersect_witness",
    "is_idempotent",
    "membership_matrix",
    "point_in_bisection",
    "region_pattern",
    "sample_bound_ratios",
    "sg_equal",
    "sg_multiply",
    "sg_star",
    "singular_system_certificate",
]
