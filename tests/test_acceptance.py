"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with `pytest tests/test_acceptance.py -s` to see the lines as they
pass; a failing criterion prints its FAIL line and then fails the test.
"""

import functools
import itertools
import random
import time
from fractions import Fraction

import pytest

from multispinal.certify import groupoid_section, matrix_section
from multispinal.exact_linalg import build_T, build_W, circulant_rows, rank_mod_p, rank_over_Q, verify_right_inverse
from multispinal.gf2n import field_context
from multispinal.groupoid import (
    SemigroupTriple,
    Tail,
    germ_equal,
    check_germ_rows,
    germ_row,
    intersect_witness,
    membership_matrix,
    sample_bound_ratios,
    sg_equal,
    sg_multiply,
    sg_star,
)
from multispinal.hyperplanes import extract_base_block, search_base_blocks, verify_design
from multispinal.selfsim import MultispinalGroup

from reference import RefAutomaton, RefField, ref_pair_count, ref_restriction_period


@functools.lru_cache(maxsize=None)
def ctx(n):
    return field_context(n)


@functools.lru_cache(maxsize=None)
def group(n):
    return MultispinalGroup(ctx(n))


def criterion(name):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"\nACCEPTANCE {name}: FAIL")
                raise
            print(f"\nACCEPTANCE {name}: PASS")

        return wrapper

    return deco


W2_GRID = [
    [1, 1, 1, 0, 0, 0],
    [0, 0, 1, 1, 1, 0],
    [0, 1, 0, 1, 0, 1],
    [1, 0, 0, 0, 1, 1],
]
A, B = Fraction(1, 3), Fraction(-1, 6)
T2_GRID = [
    [A, B, B, A],
    [A, B, A, B],
    [A, A, B, B],
    [B, A, A, B],
    [B, A, B, A],
    [B, B, A, A],
]


@criterion("C1 paper-matrix reproduction")
def test_c1_worked_matrices_exact():
    t0 = time.monotonic()
    W = build_W(ctx(2))
    T = build_T(W)
    assert W.to_lists() == W2_GRID
    assert [list(r) for r in T.rows] == T2_GRID
    assert verify_right_inverse(W, T)
    assert time.monotonic() - t0 < 1.0


@criterion("C2 full-rank lemma at scale")
def test_c2_right_inverse_and_elimination_rank():
    t0 = time.monotonic()
    for n in range(2, 11):
        W = build_W(ctx(n))
        T = build_T(W)
        assert verify_right_inverse(W, T), f"W T != I at n={n}"
    for n in range(2, 8):
        assert rank_over_Q(build_W(ctx(n))) == 2 ** n
    assert time.monotonic() - t0 < 120.0


@criterion("C3 pair-count lemma")
def test_c3_pair_counts():
    for n in range(2, 6):
        expected = 2 ** (n - 2) - 1
        k = ctx(n).k
        for l1, l2 in itertools.combinations(range(k), 2):
            assert ref_pair_count(ctx(n), l1, l2) == expected
    rng = random.Random(0)
    for n in range(6, 11):
        expected = 2 ** (n - 2) - 1
        k = ctx(n).k
        for _ in range(100):
            l1, l2 = rng.sample(range(k), 2)
            assert ref_pair_count(ctx(n), l1, l2) == expected


@criterion("C4 design identification")
def test_c4_design_parameters():
    for n in range(2, 7):
        params = verify_design(ctx(n).trace_zero_mask, ctx(n).q)
        assert params == (2 ** n - 1, 2 ** (n - 1) - 1, 2 ** (n - 2) - 1)
    assert verify_design(ctx(3).trace_zero_mask, ctx(3).q) == (7, 3, 1)


@criterion("C5 characteristic probe")
def test_c5_rank_mod_p():
    recorded = {}
    for n in range(2, 11):
        recorded[n] = rank_mod_p(build_W(ctx(n)), 2)
        assert recorded[n] == n + 1  # the row space mod 2 is RM(1, n)
    for n in range(2, 8):
        W = build_W(ctx(n))
        assert rank_mod_p(W.to_lists(), 2) == n + 1
        for p in (5, 7, 11, 13):
            if (ctx(n).k * ctx(n).q) % p == 0:
                continue  # reduction can differ when p divides k(k-q+1)
            assert rank_mod_p(W, p) == 2 ** n
    print(f"\n  observed GF(2) ranks by degree: {recorded}")


@criterion("C6 nucleus and recursion")
def test_c6_nucleus():
    for n in (2, 3, 4):
        report = group(n).verify_nucleus()
        assert report["pass"], report["failures"]
    g = group(2)
    b, c, d = g.iota(2), g.iota(3), g.iota(1)
    assert g.equal(g.restrict(b, "1"), c)
    assert g.equal(g.restrict(c, "1"), d)
    assert g.equal(g.restrict(d, "1"), b)
    assert g.equal(g.restrict(b, "0"), g.gen_a)
    assert g.equal(g.restrict(c, "0"), g.gen_a)
    assert g.equal(g.restrict(d, "0"), g.identity)
    for n in range(2, 9):
        auto = RefAutomaton(RefField(tuple((ctx(n).poly.mask >> i) & 1 for i in range(n + 1))))
        for s in group(n).nucleus_states:
            if s[0] == "b":
                assert ref_restriction_period(auto, s[1]) == 2 ** n - 1


@criterion("C7 groupoid structure")
def test_c7_membership_matrices():
    t0 = time.monotonic()
    for n in (2, 3):
        W = build_W(ctx(n))
        for m in range(1, 6):
            patterns = membership_matrix(group(n), W, m)
            stacked = tuple(p.membership_row for p in patterns)
            transpose = tuple(tuple(W.entry(i, col) for i in range(2 * ctx(n).q)) for col in range(2 * ctx(n).k))
            assert stacked == transpose
            for pattern in patterns:
                # the full row is one genuine germ check per nucleus
                # element, so K-misses were checked exhaustively
                assert sum(pattern.membership_row) == ctx(n).q
                assert germ_equal(
                    group(n),
                    group(n).iota(pattern.members[0]),
                    group(n).iota(pattern.members[-1]),
                    Tail(pattern.witness, "1"),
                )
            # the 2q-walk certificate gives the same stack
            rows = tuple(circulant_rows(germ_row(group(n))[1], ctx(n).k))
            assert stacked == tuple(tuple((r >> col) & 1 for r in rows) for col in range(2 * ctx(n).k))
        check_germ_rows(group(n), W)
    assert time.monotonic() - t0 < 60.0


@criterion("C8 singular-function certificate")
def test_c8_singular_system():
    for n in range(2, 8):
        W = build_W(ctx(n))
        matrix = matrix_section(ctx(n), W, build_T(W))
        section = groupoid_section(group(n), W, matrix)
        cert = section["singular_certificate"]
        assert section["pass"] and cert["germ_verified"]
        assert cert["pass"], cert
        assert cert["right_inverse_identity"]
        assert cert["rank_over_Q"] == 2 ** n == rank_over_Q(W)  # ties to criterion 2


@criterion("C9 magnitude bound")
def test_c9_bound_samples():
    for n in (2, 3, 4):
        report = sample_bound_ratios(build_W(ctx(n)), samples=10000, seed=0)
        assert report["all_pass_2n_bound"]
        assert report["all_pass_sharp_bound"]


@criterion("C10 inverse-semigroup axioms")
def test_c10_semigroup_axioms():
    for n in (2, 3):
        g = group(n)
        rng = random.Random(n)
        states = g.nucleus_states

        def word():
            return "".join(rng.choice("01") for _ in range(rng.randrange(0, 7)))

        def element():
            e = g.identity
            for _ in range(rng.randrange(0, 4)):
                e = g.multiply(e, g.element(rng.choice(states)))
            return e

        for _ in range(1000):
            s = SemigroupTriple(word(), element(), word())
            star = sg_star(g, s)
            assert sg_equal(g, sg_star(g, star), s)
            assert sg_equal(g, sg_multiply(g, sg_multiply(g, s, star), s), s)
            e1 = sg_multiply(g, s, star)
            t = SemigroupTriple(word(), element(), word())
            e2 = sg_multiply(g, t, sg_star(g, t))
            assert sg_equal(
                g, sg_multiply(g, e1, e2), sg_multiply(g, e2, e1)
            )
            # E(S) shape: idempotent iff (mu, e, mu) or Zero
            idem = sg_equal(g, sg_multiply(g, s, s), s)
            shape = s.eta == s.mu and g.equal(s.g, g.identity)
            assert idem == shape


@criterion("C11 difference-set search")
def test_c11_base_block_search():
    assert sorted(search_base_blocks(2)) == [0b001, 0b010, 0b100]  # the three singletons of Z_3
    blocks = search_base_blocks(4)
    assert blocks
    field_block = extract_base_block(ctx(3))
    shifts = {((field_block << r) | (field_block >> (7 - r))) & 0x7F for r in range(7)}  # rotations in Z_7
    assert any(b in shifts for b in blocks)
    with pytest.raises(ValueError):
        search_base_blocks(5)
