"""Exact computational algebra for binary multispinal self-similar groups.

Submodules:

    gf2n          GF(2^n) arithmetic from a primitive polynomial
    hyperplanes   index-2 subgroups, the 2-design, base blocks
    exact_linalg  inclusion matrix W, right-inverse T, exact ranks
    selfsim       nucleus automaton, action, bisimulation equality
    groupoid      inverse semigroup, germs, region searches, bounds
    certify       full pipeline emitting one certificate document
    cli           command-line frontend

The exports below load on first use (PEP 562): `import multispinal`
imports no submodule, and `multispinal.X` imports only the module that
defines X.  `multispinal.certify` is the submodule; the pipeline is
`multispinal.certify.certify`.
"""

from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {
    "gf2n": (
        "DEFAULT_POLYS", "FieldContext", "PrimitivePolynomial", "default_poly", "field_context",
        "is_primitive",
    ),
    "hyperplanes": (
        "BaseBlock", "DesignError", "build_hyperplanes", "extract_base_block",
        "search_base_blocks", "verify_design",
    ),
    "exact_linalg": (
        "InclusionMatrix", "RightInverse", "build_T", "build_W", "build_W_general",
        "check_R_conditions", "rank_mod_p", "rank_over_Q", "verify_right_inverse",
    ),
    "selfsim": ("GroupElement", "MultispinalGroup"),
    "groupoid": (
        "ONES", "ZERO", "GermPoint", "MembershipMismatch", "RegionPattern", "RegionSearchError",
        "SemigroupTriple", "Tail", "bound_check", "germ_equal", "intersect_witness",
        "is_idempotent", "membership_matrix", "point_in_bisection", "region_pattern",
        "sample_bound_ratios", "sg_equal", "sg_multiply", "sg_star",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_HOME)


def __getattr__(name: str):
    if name == "certify":
        return import_module(".certify", __name__)
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f".{_HOME[name]}", __name__), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, "certify"})
