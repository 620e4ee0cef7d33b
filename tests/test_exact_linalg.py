import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from multispinal.certify import matrix_section
from multispinal.exact_linalg import (
    InclusionMatrix,
    RightInverse,
    _is_prime,
    build_T,
    build_W,
    build_W_general,
    check_R_conditions,
    circulant_rows,
    rank_mod_p,
    rank_over_Q,
    row_label,
    verify_right_inverse,
)
from multispinal.gf2n import _factor, field_context
from multispinal.hyperplanes import extract_base_block, search_base_blocks

from reference import (
    RefField,
    identity_rational,
    multiply_rational,
    ref_block_satisfies_r5,
    ref_check_R_conditions,
    ref_hyperplane_membership,
    ref_is_right_inverse,
    ref_rank_f2_rowspace,
    ref_rank_fractions,
    ref_right_inverse,
    t_first_column_abs_sum,
    transpose_rational,
)

# the worked 4x6 inclusion matrix and its two-valued right inverse
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


@pytest.fixture(scope="module")
def f4():
    return field_context(2)


@pytest.fixture(scope="module")
def f8():
    return field_context(3)


def test_W2_exact_reproduction(f4):
    W = build_W(f4)
    assert W.to_lists() == W2_GRID
    assert [row_label(i) for i in range(4)] == ["0", "a^1", "a^2", "a^3"]
    assert W.col_labels == ("H0", "H1", "H2", "H0c", "H1c", "H2c")


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_W_matches_the_trace_oracle_entry_by_entry(n):
    # the circulant rows of build_W against Tr(alpha^j x) = 0 computed in
    # the reference field, one entry at a time
    ctx = field_context(n)
    field = RefField(tuple((ctx.poly.mask >> i) & 1 for i in range(n + 1)))
    W = build_W(ctx)
    for i, x in enumerate(ctx.canonical_elements()):
        for j in range(ctx.k):
            inside = ref_hyperplane_membership(field, x, j)
            assert (W.entry(i, j), W.entry(i, j + ctx.k)) == (int(inside), int(not inside))


def test_circulant_rows_layout():
    # row 0 on the k subgroup columns, then row 1 rotated down by 0, 1, 2
    # places, each with its complement in the high k bits
    assert list(circulant_rows(0b001, 3)) == [0b000111, 0b110001, 0b011100, 0b101010]
    assert list(circulant_rows(0b110, 3)) == [0b000111, 0b001110, 0b100011, 0b010101]


@pytest.mark.parametrize("n", range(2, 11))
def test_build_W_reads_no_discrete_log(n, monkeypatch):
    # row 1 is the zero-trace mask rotated by one place: no log is built
    from multispinal.gf2n import FieldContext

    ctx = field_context(n)
    want = sum(1 << j for j in range(ctx.k) if ctx.trace(ctx.pow_alpha(j + 1)) == 0)

    def no_log(_):
        raise AssertionError("discrete log built")

    monkeypatch.setattr(FieldContext, "discrete_log", property(no_log))
    assert build_W(ctx).row1 == want


def test_T2_exact_reproduction(f4):
    T = build_T(build_W(f4))
    assert [list(r) for r in T.rows] == T2_GRID


def test_T_entry_identity():
    # (q-1) a + q b = 0 for the two entry values
    for q in (2, 4, 8, 16):
        k = 2 * q - 1
        a = Fraction(1, k)
        b = Fraction(-(q - 1), k * (k - q + 1))
        assert (q - 1) * a + q * b == 0


def test_first_row_shape(f8):
    W = build_W(f8)
    assert all(W.entry(0, j) == 1 for j in range(W.k))
    assert all(W.entry(0, j) == 0 for j in range(W.k, 2 * W.k))
    for i in range(2 * W.q):
        assert W.rows[i].bit_count() == W.k  # every row sums to k


def test_right_inverse(f4, f8):
    for ctx in (f4, f8):
        W = build_W(ctx)
        assert verify_right_inverse(W, build_T(W))


def test_right_inverse_detects_failure(f4):
    W = build_W(f4)
    T = build_T(W)
    assert not verify_right_inverse(W, RightInverse(W, T.a, Fraction(-1, 3)))


def test_right_inverse_shape_mismatch(f4, f8):
    with pytest.raises(ValueError):
        verify_right_inverse(build_W(f4), build_T(build_W(f8)))


def test_transpose_product_is_identity_small(f4, f8):
    # T^t W^t = I directly, with plain rational multiplication
    for ctx in (f4, f8):
        W = build_W(ctx)
        T = build_T(W)
        prod = multiply_rational(transpose_rational(T.rows), transpose_rational(W.to_lists()))
        assert prod == identity_rational(2 * ctx.q)


def _corrupt(W, rng):
    """W with seeded damage to the block it is built from, the only
    damage a circulant can take: one flip, several flips, or row 1
    replaced by random bits."""
    row1 = W.row1
    kind = rng.randrange(3)
    if kind == 0:
        row1 ^= 1 << rng.randrange(W.k)
    elif kind == 1:
        for _ in range(rng.randrange(2, 6)):
            row1 ^= 1 << rng.randrange(W.k)
    else:
        row1 = rng.getrandbits(W.k)
    return InclusionMatrix(W.q, row1)


def test_bitmask_checks_match_the_entry_oracles_on_corrupted_W():
    # R1-R9 in closed form and W T = I in popcounts must judge every damaged
    # W exactly as the entry loops and the dense product of ref_right_inverse
    # do, and the O(1) entry must read the expanded rows
    rng = random.Random(13)
    verdicts = set()
    failing = set()
    for n, cases in ((2, 300), (3, 300), (4, 200), (5, 120), (6, 80)):
        W = build_W(field_context(n))
        for _ in range(cases):
            bad = _corrupt(W, rng)
            grid = bad.to_lists()
            assert [[bad.entry(i, j) for j in range(2 * bad.k)] for i in range(2 * bad.q)] == grid
            report = check_R_conditions(bad)
            assert report == ref_check_R_conditions(bad)
            T = build_T(bad)
            dense = ref_right_inverse(bad)
            assert T.rows == dense
            verdict = verify_right_inverse(bad, T)
            assert verdict == ref_is_right_inverse(bad, dense)
            verdicts.add(verdict)
            failing.update(name for name, c in report.items() if not c["pass"])
    assert verdicts == {True, False}
    # R1, R3, R4 and R8 hold by construction; every other condition can fail
    assert failing == {"R2", "R5", "R6", "R7", "R9"}


def _masks(q):
    """Every k-bit mask at q = 2 and 4, and 3000 seeded ones at q = 8."""
    k = 2 * q - 1
    if q <= 4:
        return range(1 << k)
    rng = random.Random(q)
    return [rng.getrandbits(k) for _ in range(3000)]


@pytest.mark.parametrize("q", [2, 4, 8])
def test_R_conditions_equal_the_entry_oracle_on_every_mask(q):
    for mask in _masks(q):
        W = InclusionMatrix(q, mask)
        assert check_R_conditions(W) == ref_check_R_conditions(W), mask


def test_certify_builds_no_dense_T(monkeypatch):
    # past n = 4 nothing reads T entry by entry in bulk
    from multispinal.certify import certify

    def no_dense(_):
        raise AssertionError("dense T built")

    monkeypatch.setattr(RightInverse, "rows", property(no_dense))
    assert certify(7)["verdict"] == "PASS"


def test_certify_never_expands_W(monkeypatch):
    # past n = 4 every section reads W from its base block
    from multispinal.certify import certify

    def no_rows(_):
        raise AssertionError("W expanded")

    monkeypatch.setattr(InclusionMatrix, "rows", property(no_rows))
    assert certify(7)["verdict"] == "PASS"


def test_certify_15_fits_in_256_MiB():
    # the 2q x 2k bits of an expanded W at n = 15 are 2^28 bytes, the
    # whole limit: the certificate must fit without them
    limit = 256 << 20
    script = (
        "import resource; from multispinal.certify import certify; "
        f"resource.setrlimit(resource.RLIMIT_AS, ({limit}, {limit})); print(certify(15)['verdict'])"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.strip() == "PASS"


# general construction ----------------------------------------------------


def test_build_W_general_reproduces_W2():
    W = build_W_general(2, 0b100)
    assert W.to_lists() == W2_GRID


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_build_W_general_matches_field_matrix(n):
    ctx = field_context(n)
    general = build_W_general(ctx.q, extract_base_block(ctx))
    assert general.rows == build_W(ctx).rows


def test_build_W_general_first_row_block_independent():
    rows = {build_W_general(2, mask).rows[0] for mask in (0b001, 0b010, 0b100)}
    assert len(rows) == 1


def test_build_W_general_rejects_bad_block():
    with pytest.raises(ValueError):
        build_W_general(4, 0b111)
    # position 5 lies outside Z_3, though its shift counts read lambda = 0
    with pytest.raises(ValueError):
        build_W_general(2, 1 << 5)


def test_build_W_general_q4_passes_R(f8):
    W = build_W_general(4, extract_base_block(f8))
    assert W.shape == (8, 14)
    assert all(c["pass"] for c in check_R_conditions(W).values())


# ranks -------------------------------------------------------------------


def test_rank_examples(f4, f8):
    assert rank_over_Q(build_W(f4)) == 4
    assert rank_over_Q(build_W(f8)) == 8
    assert rank_over_Q([[0, 0], [0, 0]]) == 0


def test_bareiss_agrees_with_fraction_gauss_on_random_matrices():
    rng = random.Random(7)
    for _ in range(40):
        rows = rng.randrange(1, 7)
        cols = rng.randrange(1, 7)
        M = [[Fraction(rng.randrange(-4, 5), rng.randrange(1, 4)) for _ in range(cols)]
             for _ in range(rows)]
        assert rank_over_Q(M) == ref_rank_fractions(M)


def test_rank_mod_2_of_W2(f4):
    W = build_W(f4)
    r = rank_mod_p(W, 2)
    assert r == ref_rank_f2_rowspace(W.to_lists())
    assert r < 4  # paired columns sum to the all-ones vector mod 2


def test_rank_mod_large_prime(f4):
    assert rank_mod_p(build_W(f4), 5) == 4


def test_rank_mod_p_identity():
    I = [[1 if i == j else 0 for j in range(5)] for i in range(5)]
    for p in (2, 3, 7):
        assert rank_mod_p(I, p) == 5


def test_rank_mod_p_rejects_composite(f4):
    with pytest.raises(ValueError):
        rank_mod_p(build_W(f4), 6)


def test_primality_is_read_from_the_field_factorizer():
    # _is_prime reuses gf2n._factor; both agree with trial division by
    # every smaller number
    for p in range(-2, 500):
        want = p >= 2 and all(p % d for d in range(2, p))
        assert _is_prime(p) == want, p
        assert (p >= 2 and _factor(p) == [p]) == want, p


def test_rank_mod_p_agrees_with_rowspace_oracle():
    rng = random.Random(11)
    for _ in range(30):
        rows = rng.randrange(1, 6)
        cols = rng.randrange(1, 8)
        M = [[rng.randrange(2) for _ in range(cols)] for _ in range(rows)]
        assert rank_mod_p(M, 2) == ref_rank_f2_rowspace(M)


@pytest.mark.parametrize("n", range(2, 7))
def test_rational_rank_equals_mod_p_rank_for_coprime_primes(n):
    # the matrix section derives these ranks from W T = I; elimination
    # must find the same numbers
    ctx = field_context(n)
    W = build_W(ctx)
    rq = rank_over_Q(W)
    section = matrix_section(ctx, W, build_T(W))
    assert section["rank_over_Q"] == rq == 2 * ctx.q
    assert section["rank_mod_2"] == rank_mod_p(W, 2)
    for p in (5, 7, 11, 13):
        derived = section["rank_mod_p"][str(p)]
        if (ctx.k * ctx.q) % p == 0:
            assert derived == "skipped (divides k*q)"
            continue
        assert derived == rank_mod_p(W, p) == rq


def test_certify_runs_no_rational_or_odd_prime_elimination(monkeypatch):
    import sys

    from multispinal import exact_linalg
    from multispinal.certify import certify

    calls = []

    def recording(name, fn):
        def wrapper(M, *args):
            calls.append((name, *args))
            return fn(M, *args)

        return wrapper

    for name in ("rank_over_Q", "rank_mod_p"):
        original = getattr(exact_linalg, name)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name.startswith("multispinal") and vars(mod).get(name) is original:
                monkeypatch.setattr(mod, name, recording(name, original))
    doc = certify(5)
    assert doc["verdict"] == "PASS"
    assert calls == [("rank_mod_p", 2)]
    assert doc["sections"]["matrix"]["rank_mod_p"] == {"5": 32, "7": 32, "11": 32, "13": 32}


# W T = I from the base-block theorem ------------------------------------------


@pytest.mark.parametrize("n", range(2, 9))
def test_certify_reads_W_T_from_the_R_conditions(n, monkeypatch):
    # the certify path runs no Gram check: R1-R9 and build_T's T decide it
    import multispinal.certify as certify_module

    monkeypatch.setattr(certify_module, "verify_right_inverse", lambda W, T: pytest.fail("Gram check ran"))
    doc = certify_module.certify(n)
    assert doc["verdict"] == "PASS"
    assert doc["sections"]["matrix"]["right_inverse_identity"] is True


def _gram_spy(monkeypatch):
    import multispinal.certify as certify_module

    calls = []

    def spy(W, T):
        calls.append(W)
        return verify_right_inverse(W, T)

    monkeypatch.setattr(certify_module, "verify_right_inverse", spy)
    return calls


@pytest.mark.parametrize("n", range(2, 11))
def test_theorem_verdict_equals_the_gram_on_field_matrices(n):
    ctx = field_context(n)
    W = build_W(ctx)
    T = build_T(W)
    assert all(c["pass"] for c in check_R_conditions(W).values())
    assert verify_right_inverse(W, T) is True
    assert matrix_section(ctx, W, T)["right_inverse_identity"] is True


@pytest.mark.parametrize("q, count", [(2, 3), (4, 14), (6, 22), (8, 30)])
def test_theorem_premise_gives_the_gram_on_every_base_block(q, count):
    # every block the search finds passes R1-R9 and the reference shift
    # counts, and build_T's T is then a right inverse by the Gram
    # identity, as the theorem says
    blocks = search_base_blocks(q)
    assert len(blocks) == count
    for block in blocks:
        positions = [p for p in range(2 * q - 1) if block >> p & 1]
        assert ref_block_satisfies_r5(positions, 2 * q - 1, q // 2 - 1), block
        W = build_W_general(q, block)
        assert all(c["pass"] for c in check_R_conditions(W).values()), block
        assert verify_right_inverse(W, build_T(W)), block


def test_a_T_other_than_build_T_takes_the_gram_path(f8, monkeypatch):
    k, q = f8.k, f8.q
    W = build_W(f8)
    calls = _gram_spy(monkeypatch)
    # the right W with a wrong b is not a right inverse
    section = matrix_section(f8, W, RightInverse(W, Fraction(1, k), Fraction(-1, k * q)))
    assert section["all_R_pass"] is True and section["right_inverse_identity"] is False
    assert section["pass"] is False and section["rank_over_Q"] is None
    # build_T's values over an equal but distinct W: checked, and true
    assert matrix_section(f8, W, build_T(build_W(f8)))["right_inverse_identity"] is True
    assert len(calls) == 2
    # build_T's T over this very W: read from the R conditions
    assert matrix_section(f8, W, build_T(W))["right_inverse_identity"] is True
    assert len(calls) == 2


# R-condition report --------------------------------------------------------


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_R_conditions_pass_for_field_matrices(n):
    report = check_R_conditions(build_W(field_context(n)))
    assert all(c["pass"] for c in report.values()), report


@pytest.mark.parametrize("n", [3, 5])
def test_R9_names_the_first_off_column(n):
    # the closed-form column sums must name the column the entry oracle
    # names: |row 1| = q - 2 or q puts every column off, the first being 0
    W = build_W(field_context(n))
    outside = W.row1 ^ ((1 << W.k) - 1)
    for row1 in (W.row1 & (W.row1 - 1), W.row1 | (outside & -outside)):
        bad = InclusionMatrix(W.q, row1)
        report = check_R_conditions(bad)
        assert report["R9"]["counterexample"] == [0]
        assert report == ref_check_R_conditions(bad)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_column_sums_are_q(n):
    W = build_W(field_context(n))
    for j in range(2 * W.k):
        assert sum(W.entry(i, j) for i in range(2 * W.q)) == W.q


@pytest.mark.parametrize("n", range(2, 7))
def test_T_first_column_abs_sum(n):
    ctx = field_context(n)
    T = build_T(build_W(ctx))
    assert t_first_column_abs_sum(T.rows) == Fraction(2 * ctx.q - 1, ctx.q)


def test_other_primitive_polynomial_same_certificates():
    # the construction is parametrized by the polynomial; the degree-3
    # alternative x^3 + x^2 + 1 must yield the same design and ranks
    ctx = field_context(3, "x^3+x^2+1")
    W = build_W(ctx)
    assert all(c["pass"] for c in check_R_conditions(W).values())
    assert verify_right_inverse(W, build_T(W))
    assert rank_over_Q(W) == 8
    assert rank_mod_p(W, 2) == rank_mod_p(build_W(field_context(3)), 2)
