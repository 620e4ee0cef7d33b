"""End-to-end certificate assembly: field, design, matrices, nucleus,
groupoid regions and the magnitude bound, with one verdict per section
and a conjunction at the top.

Documents are reproducible byte for byte for fixed (n, polynomial):
the timestamp honors the SOURCE_DATE_EPOCH convention when that
environment variable is set.  The seed is echoed into the document and
selects nothing: every section runs in full at every degree.
"""

from __future__ import annotations

import os
import time
from fractions import Fraction

from . import __version__
from .exact_linalg import InclusionMatrix, RightInverse, build_T, build_W, check_R_conditions
from .exact_linalg import rank_mod_p, verify_right_inverse
from .gf2n import FieldContext, PrimitivePolynomial, field_context, field_section
from .groupoid import WITNESS_RULE, MembershipMismatch, check_germ_rows, singular_system_certificate
from .hyperplanes import DesignError, verify_design
from .selfsim import MultispinalGroup

CANDIDATE_PRIMES = (5, 7, 11, 13)


def _timestamp() -> str:
    epoch = os.environ.get("SOURCE_DATE_EPOCH")
    t = int(epoch) if epoch else int(time.time())
    return time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime(t))


def jsonable(value):
    """Recursively convert Fractions and tuples for json.dumps."""
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, dict):
        return {str(k): jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    return value


def design_section(W: InclusionMatrix, conditions: dict) -> dict:
    """The design of the field's hyperplanes, read from R5 of W.

    Row 1 of the field's W is the zero-trace mask rotated by one place
    (build_W), and rotation changes no shift count and no popcount, so
    R5 tests exactly what verify_design tests: bits inside Z_k, size
    q - 1 and every shift count q/2 - 1.  Only a failing R5 calls
    verify_design, for the DesignError that names the first bad pair.
    """
    expected = [W.k, W.q - 1, W.q // 2 - 1]
    if conditions["R5"]["pass"]:
        return {
            "params": list(expected),
            "expected": expected,
            "blocks": W.k,  # the k rotations of the mask, distinct once verified
            "pair_counts_verified": True,  # each pair count is one of the shift counts
            "pass": True,
        }
    try:
        verify_design(W.row1, W.q)
    except DesignError as err:
        return {"params": None, "expected": expected, "pair_counts_verified": False, "error": str(err), "pass": False}
    raise AssertionError("R5 failed on a mask that verify_design accepts")


def right_inverse_identity(W: InclusionMatrix, T: RightInverse, all_r: bool) -> bool:
    """W T = I, for the matrix section and the matrix subcommand.

    When R1-R9 pass (all_r) and T is build_T's T over this W, W T = I is
    read from them (the base-block theorem).  W is the circulant of its
    row 1 by construction (R1, R3, R4): row 0 is the k subgroup columns,
    and R2 and R5 make row 1 + r the base block B rotated by r
    with its complement mirrored, |B| = q - 1, where B meets each of its
    k - 1 rotations in c = q/2 - 1 bits.
    So every row has k ones, row 0 meets each other row in q - 1 ones,
    and two rows of B at shift d meet in c_d on the subgroup columns and
    k - 2(q - 1) + c_d on the complements, 2c_d + 1 = q - 1 in all.  With
    a = 1/k and b = -(q-1)/(kq), (W T)[i][l] = a|W_i & W_l| +
    b(k - |W_i & W_l|) is a k = 1 on the diagonal and a(q-1) + b q = 0
    off it.  Any other W or T goes through the Gram identity of
    verify_right_inverse, which is also the oracle of this reading.
    """
    q, k = W.q, W.k
    canonical = T.W is W and (T.a, T.b) == (Fraction(1, k), Fraction(1 - q, k * q))
    return (all_r and canonical) or verify_right_inverse(W, T)


def matrix_section(ctx: FieldContext, W: InclusionMatrix, T: RightInverse) -> dict:
    """R1-R9, the right-inverse identity (right_inverse_identity) and the
    ranks it decides.

    T's entries 1/k and -(q-1)/(kq) have denominators dividing kq, so
    W T = I gives rank 2q over Q and over GF(p) for every prime p not
    dividing kq; the primes that divide kq are reported as skipped.  The
    GF(2) rank, which W T = I leaves open, comes from elimination.
    """
    conditions = check_R_conditions(W)
    all_r = all(c["pass"] for c in conditions.values())
    wt = right_inverse_identity(W, T, all_r)
    section = {
        "shape": list(W.shape),
        "R_conditions": conditions,
        "all_R_pass": all_r,
        "right_inverse_identity": wt,
    }
    full = 2 * ctx.q if wt else None
    section["rank_over_Q"] = full
    r2 = rank_mod_p(W, 2)
    section["rank_mod_2"] = r2
    section["rank_mod_2_deficient"] = r2 < 2 * ctx.q
    section["rank_mod_p"] = {
        str(p): "skipped (divides k*q)" if (ctx.k * ctx.q) % p == 0 else full for p in CANDIDATE_PRIMES
    }
    section["pass"] = all_r and wt and r2 < 2 * ctx.q
    return section


def nucleus_section(group: MultispinalGroup) -> dict:
    """Contraction of the nucleus pairs, from the classes of the normal
    form (MultispinalGroup.verify_nucleus).  Every directed state b(x) has
    restriction period k along 1, since b(x)|1 = b(alpha x) and alpha has
    order k, which FieldContext asserts when it builds the power table."""
    section = group.verify_nucleus()
    section["restriction_periods_ok"] = True
    return section


def germ_row_verdict(group: MultispinalGroup, W: InclusionMatrix) -> dict:
    """The germ rows of all 2k regions checked against W by the 2q germ
    walks of check_germ_rows, for the groupoid section and the groupoid
    subcommand.  The rows do not depend on m, and the witness of each
    region at every m is the one tail of WITNESS_RULE, so the verdict
    states the rule once; error names the first mismatch."""
    try:
        check_germ_rows(group, W)
        error = {}
    except MembershipMismatch as err:
        error = {"error": str(err)}
    return {
        "germ_walks": 2 * group.ctx.q,
        "witness_rule": WITNESS_RULE,
        "matches_transpose": not error,
        **error,
    }


def groupoid_section(group: MultispinalGroup, W: InclusionMatrix, matrix: dict) -> dict:
    """The germ-row verdict (germ_row_verdict), then the singular
    certificate on the matrix section of W."""
    section = germ_row_verdict(group, W)
    cert = singular_system_certificate(group, matrix)
    cert["germ_verified"] = section["matches_transpose"]
    return {**section, "singular_certificate": cert, "pass": section["matches_transpose"] and cert["pass"]}


def bound_section(W: InclusionMatrix, T: RightInverse, matrix: dict) -> dict:
    """The sharp magnitude bound as an exact optimum: over every c with
    c_e != 0, the least value of max_K |kappa_K| / |c_e| is q/(2q-1).

    Lower bound: W T = I (the matrix section's right_inverse_identity)
    gives c_e = sum_K T[K][0] kappa_K, so |c_e| <= max|kappa| times the
    sum of |T[K][0]|, which column 0 of T must give as (2q-1)/q: it is
    k(|a| + |b|), since row 0 of any W has k ones and k zeros (R4).
    Attained: c* = (1, -1/k, ..., -1/k) has kappa_K = W[0][K] - (q -
    W[0][K])/k by the q ones of each column (R9), that is q/k on every
    subgroup and -q/k on every complement by row 0 (R1), so its ratio is
    q/k = q/(2q-1), the larger of kappa's two values.  The 2^n bound
    1/(2q) lies below the optimum.  Both certificates are exact closed
    forms in the W, T and R conditions the matrix section certified.
    """
    q, k = W.q, W.k
    optimum = Fraction(q, 2 * q - 1)
    t_sum = k * (abs(T.a) + abs(T.b))
    lower = matrix["right_inverse_identity"] and t_sum == 1 / optimum
    r_conditions = {name: matrix["R_conditions"][name]["pass"] for name in ("R1", "R9")}
    other = Fraction(-1, k)
    max_abs_kappa = max(abs(1 + other * (q - 1)), abs(other * q))
    attained = all(r_conditions.values()) and max_abs_kappa == optimum
    threshold = Fraction(1, 2 * q)
    return {
        "optimum": optimum,
        "threshold_2n": threshold,
        "lower_bound": {
            "t_column_0_abs_sum": t_sum,
            "right_inverse_identity": matrix["right_inverse_identity"],
            "pass": lower,
        },
        "attained": {
            "c_star": {"identity": Fraction(1), "other": other},
            "max_abs_kappa": max_abs_kappa,
            "R_conditions": r_conditions,
            "pass": attained,
        },
        "pass": lower and attained and optimum > threshold,
    }


def certify(n: int, poly: PrimitivePolynomial | int | str | None = None, seed: int = 0) -> dict:
    """Run the whole pipeline for one degree and assemble the document.
    seed is echoed into the document and selects nothing."""
    ctx = field_context(n, poly)
    group = MultispinalGroup(ctx)
    # W and T are built once, W as its base block and T as its two
    # values over W, and no section expands W; the matrix section's R5 is
    # the one pass over the k - 1 shift counts, whose verdict the design
    # section reads, and every later section reads the matrix verdicts
    W = build_W(ctx)
    T = build_T(W)
    matrix = matrix_section(ctx, W, T)
    sections = {
        "field": field_section(ctx),
        "design": design_section(W, matrix["R_conditions"]),
        "matrix": matrix,
        "nucleus": nucleus_section(group),
        "groupoid": groupoid_section(group, W, matrix),
        "bound": bound_section(W, T, matrix),
    }
    verdict = all(s["pass"] for s in sections.values())
    doc = {
        "tool": {"name": "multispinal", "version": __version__},
        "n": n,
        "polynomial": {"text": ctx.poly.text, "hex": hex(ctx.poly.mask)},
        "timestamp": _timestamp(),
        "seed": seed,
        "sections": sections,
        "verdict": "PASS" if verdict else "FAIL",
    }
    return jsonable(doc)
