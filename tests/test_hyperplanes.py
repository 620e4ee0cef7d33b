import json
from itertools import combinations

import pytest

from multispinal import hyperplanes
from multispinal.certify import certify, design_section
from multispinal.exact_linalg import InclusionMatrix, check_R_conditions
from multispinal.gf2n import field_context
from multispinal.hyperplanes import (
    DesignError,
    block_satisfies_r5,
    build_hyperplanes,
    extract_base_block,
    membership_profile,
    search_base_blocks,
    shift_intersections,
    verify_design,
)

from reference import (
    REF_F8,
    RefField,
    ref_block_satisfies_r5,
    ref_hyperplane_membership,
    ref_pair_count,
    ref_profiles,
    ref_shift_counts,
    ref_verify_design,
)


@pytest.fixture(scope="module")
def f4():
    return field_context(2)


@pytest.fixture(scope="module")
def f8():
    return field_context(3)


def members(mask):
    return [x for x in range(mask.bit_length()) if (mask >> x) & 1]


def mask_of(positions):
    return sum(1 << p for p in positions)


def rotated(mask, r, k):
    """A block mask in Z_k shifted by r places: position p goes to p + r mod k."""
    return ((mask << r) | (mask >> (k - r))) & ((1 << k) - 1)


def test_degree2_subgroups_match_worked_example(f4):
    planes = build_hyperplanes(f4)
    # H_0 = {0, 1}, H_1 = {0, 1+alpha}, H_2 = {0, alpha}
    assert members(planes[0]) == [0, 1]
    assert members(planes[1]) == [0, 3]
    assert members(planes[2]) == [0, 2]


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_hyperplanes_distinct_half_size_contain_zero(n):
    ctx = field_context(n)
    planes = build_hyperplanes(ctx)
    assert len(planes) == ctx.k
    assert len(set(planes)) == ctx.k
    for h in planes:
        assert h.bit_count() == ctx.q
        assert h >> ctx.size == 0
        assert h & 1
        for x in members(h):  # closed under addition
            for y in members(h):
                assert (h >> ctx.add(x, y)) & 1


def test_membership_matches_reference_field(f8):
    planes = build_hyperplanes(f8)
    for x in range(8):
        for j in range(7):
            assert bool((planes[j] >> x) & 1) == ref_hyperplane_membership(REF_F8, x, j)


# pair counts -------------------------------------------------------------


def test_pair_count_degree2_always_zero(f4):
    for l1 in range(3):
        for l2 in range(3):
            if l1 != l2:
                assert ref_pair_count(f4, l1, l2) == 0


def test_pair_count_degree3_always_one(f8):
    for l1 in range(7):
        for l2 in range(l1 + 1, 7):
            assert ref_pair_count(f8, l1, l2) == 1


def test_pair_count_degree4_example_against_reference():
    ctx = field_context(4)
    assert ref_pair_count(ctx, 0, 5) == 3
    # independent count with the reference field
    ref = RefField((1, 1, 0, 0, 1))
    a0 = ref.pow(ref.alpha(), 0)
    a5 = ref.pow(ref.alpha(), 5)
    hits = 0
    for j in range(15):
        x0, x5 = a0, a5
        for _ in range(j):
            x0 = ref.mul(x0, ref.alpha())
            x5 = ref.mul(x5, ref.alpha())
        if ref.trace(x0) == 0 and ref.trace(x5) == 0:
            hits += 1
    assert hits == 3


def test_pair_count_rejects_equal_or_out_of_range(f4):
    with pytest.raises(ValueError):
        ref_pair_count(f4, 1, 1)
    with pytest.raises(ValueError):
        ref_pair_count(f4, 0, 3)


@pytest.mark.parametrize("n", range(2, 9))
def test_every_nonzero_point_in_q_minus_one_subgroups(n):
    ctx = field_context(n)
    for x in ctx.nonzero_elements():
        assert membership_profile(ctx, x).bit_count() == ctx.q - 1


@pytest.mark.parametrize("n", range(2, 6))
def test_membership_profile_matches_reference(n):
    ctx = field_context(n)
    field = RefField(tuple((ctx.poly.mask >> i) & 1 for i in range(n + 1)))
    for x in ctx.elements():
        want = sum(1 << j for j in range(ctx.k) if ref_hyperplane_membership(field, x, j))
        assert membership_profile(ctx, x) == want


@pytest.mark.parametrize("n", range(2, 7))
def test_profile_intersections_are_pair_counts(n):
    # the pair (alpha^l1, alpha^l2) lies in the shift count of d = l2 - l1,
    # which is what the design section and the design command read
    ctx = field_context(n)
    profiles = [membership_profile(ctx, ctx.pow_alpha(l)) for l in range(ctx.k)]
    shifts = list(shift_intersections(ctx.trace_zero_mask, ctx.k))
    for l1 in range(ctx.k):
        for l2 in range(l1 + 1, ctx.k):
            c = ref_pair_count(ctx, l1, l2)
            assert (profiles[l1] & profiles[l2]).bit_count() == c == shifts[l2 - l1 - 1]


@pytest.mark.parametrize("n", range(2, 7))
def test_shift_covariance(n):
    # x in H_j <=> phi(x) in H_(j-1 mod k)
    ctx = field_context(n)
    planes = build_hyperplanes(ctx)
    for x in ctx.elements():
        fx = ctx.mul_alpha(x)
        for j in range(ctx.k):
            assert (planes[j] >> x) & 1 == (planes[(j - 1) % ctx.k] >> fx) & 1


# design ------------------------------------------------------------------


@pytest.mark.parametrize(
    "n,expected",
    [(2, (3, 1, 0)), (3, (7, 3, 1)), (4, (15, 7, 3)), (5, (31, 15, 7)), (6, (63, 31, 15))],
)
def test_verify_design_parameters(n, expected):
    ctx = field_context(n)
    params = verify_design(ctx.trace_zero_mask, ctx.q)
    assert params == expected


@pytest.mark.parametrize("n", range(2, 9))
def test_shift_counts_match_the_pair_loop(n):
    # the k - 1 shift counts of one mask against the O(k^2) loop over the
    # explicit subgroup masks: same parameters, same pair histogram
    ctx = field_context(n)
    planes = build_hyperplanes(ctx)
    expected = (ctx.k, ctx.q - 1, ctx.q // 2 - 1)
    assert verify_design(ctx.trace_zero_mask, ctx.q) == expected
    assert ref_verify_design(planes, n) == expected
    from_shifts = {}
    for d, c in enumerate(shift_intersections(ctx.trace_zero_mask, ctx.k), 1):
        from_shifts[c] = from_shifts.get(c, 0) + ctx.k - d
    profiles = ref_profiles(planes, n)
    from_pairs = {}
    for x, y in combinations(range(1, ctx.size), 2):
        c = (profiles[x] & profiles[y]).bit_count()
        from_pairs[c] = from_pairs.get(c, 0) + 1
    assert from_shifts == from_pairs == {ctx.q // 2 - 1: ctx.k * (ctx.k - 1) // 2}


@pytest.mark.parametrize("q", [2, 4, 6])
def test_shift_counts_match_the_set_oracle_on_every_subset(q):
    k = 2 * q - 1
    lam = q // 2 - 1
    passed = 0
    for subset in combinations(range(k), q - 1):
        mask = mask_of(subset)
        counts = ref_shift_counts(subset, k)
        assert list(shift_intersections(mask, k)) == counts
        ok = ref_block_satisfies_r5(subset, k, lam)
        assert block_satisfies_r5(mask, q) == ok
        if ok:
            passed += 1
            assert verify_design(mask, q) == (k, q - 1, lam)
        else:
            with pytest.raises(DesignError) as err:
                verify_design(mask, q)
            first_bad = next(d for d, c in enumerate(counts, 1) if c != lam)
            assert err.value.offender == (0, first_bad)
    assert passed == {2: 3, 4: 14, 6: 22}[q]


def field_planes_of(ctx, z):
    # H_j = {0} and the alpha^l with bit (l + j) mod k of z set
    return [
        1 | sum(1 << ctx.pow_alpha(l) for l in range(ctx.k) if (z >> ((l + j) % ctx.k)) & 1)
        for j in range(ctx.k)
    ]


BAD_MASKS = {  # corrupted zero-trace masks at n = 3: positions -> first bad (0, d, count)
    "wrong_size": ((1, 2, 4, 6), (0, 2, 3)),  # Tr = 0 exponents {1, 2, 4} and one more
    "bad_shift": ((0, 1, 4), (0, 2, 0)),  # right size, shift 2 misses
}


@pytest.mark.parametrize("positions, first_bad", list(BAD_MASKS.values()), ids=list(BAD_MASKS))
def test_verify_design_names_first_bad_shift(f8, positions, first_bad):
    z = mask_of(positions)
    assert f8.trace_zero_mask == mask_of((1, 2, 4))
    with pytest.raises(DesignError, match=f"lies in {first_bad[2]} blocks") as err:
        verify_design(z, f8.q)
    assert err.value.offender == first_bad[:2]
    assert not block_satisfies_r5(z, f8.q)
    assert not ref_block_satisfies_r5(positions, 7, 1)
    with pytest.raises(DesignError):
        ref_verify_design(field_planes_of(f8, z), 3)


def _rotated_W(q, z):
    """An InclusionMatrix whose row 1 is z rotated by one place, the way
    build_W rotates the zero-trace mask."""
    k = 2 * q - 1
    row1 = ((z >> 1) | (z << (k - 1))) & ((1 << k) - 1)
    return InclusionMatrix(q, (1 << k) - 1, row1, tuple(str(i) for i in range(2 * q)))


@pytest.mark.parametrize(
    "n, positions, first_bad",
    [(3, *case) for case in BAD_MASKS.values()] + [(2, (), None)],  # q = 2: every count 0, size 0
    ids=[*BAD_MASKS, "empty"],
)
def test_design_section_fails_with_the_error_of_verify_design(n, positions, first_bad, monkeypatch, tmp_path):
    # R5 on row 1 is verify_design on the unrotated mask: the design section
    # fails with its error, and design --n scans the counts for the table
    from multispinal import cli, exact_linalg

    q = field_context(n).q
    z = mask_of(positions)
    W = _rotated_W(q, z)
    with pytest.raises(DesignError) as err:
        verify_design(z, q)
    section = design_section(W, check_R_conditions(W))
    assert (section["pass"], section["params"], section["error"]) == (False, None, str(err.value))
    monkeypatch.setattr(exact_linalg, "build_W", lambda ctx: W)
    out = tmp_path / "design.json"
    assert cli.main(["design", "--n", str(n), "--out", str(out)]) == 1
    doc = json.loads(out.read_text())
    assert doc["pass"] is False and doc["error"] == str(err.value)
    assert doc["pair_count_table"].get("first_violation") == (list(first_bad) if first_bad else None)


def _count_scans(monkeypatch) -> list[int]:
    """Record k for every shift_intersections scan started from now on."""
    scans = []
    real = hyperplanes.shift_intersections

    def counted(mask, k):
        scans.append(k)
        return real(mask, k)

    monkeypatch.setattr(hyperplanes, "shift_intersections", counted)
    return scans


@pytest.mark.parametrize("n", range(2, 11))
def test_certify_scans_the_shift_counts_once(n, monkeypatch):
    scans = _count_scans(monkeypatch)
    assert certify(n)["verdict"] == "PASS"
    assert scans == [2**n - 1]


def test_design_command_scans_the_shift_counts_once(monkeypatch, capsys):
    from multispinal import cli

    scans = _count_scans(monkeypatch)
    assert cli.main(["design", "--n", "6"]) == 0
    assert json.loads(capsys.readouterr().out)["pair_count_table"]["observed_counts"] == {"15": 63 * 62 // 2}
    assert scans == [63]


def test_verify_design_rejects_masks_the_shifts_cannot_see():
    # at q = 2 the empty mask has every shift count 0 = lambda
    with pytest.raises(DesignError, match="every point lies in 0 blocks") as err:
        verify_design(0, 2)
    assert err.value.offender == 0
    with pytest.raises(DesignError, match="outside Z_7"):
        verify_design(mask_of((1, 2, 4, 7)), 4)


@pytest.mark.parametrize("n", range(2, 7))
def test_field_planes_rebuilt_from_the_mask_are_the_hyperplanes(n):
    ctx = field_context(n)
    assert field_planes_of(ctx, ctx.trace_zero_mask) == build_hyperplanes(ctx)


# base blocks -------------------------------------------------------------


def test_extract_base_block_degree2(f4):
    assert extract_base_block(f4) == 0b100


def test_extract_base_block_degree3(f8):
    block = extract_base_block(f8)
    pos = members(block)
    assert len(pos) == 3
    for d in range(1, 7):
        hits = sum(1 for p in pos if block >> (p + d) % 7 & 1)
        assert hits == 1


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_extract_base_block_size(n):
    ctx = field_context(n)
    assert extract_base_block(ctx).bit_count() == ctx.q - 1


def test_search_q2_exactly_three_singletons():
    blocks = search_base_blocks(2)
    assert sorted(members(b) for b in blocks) == [[0], [1], [2]]


def test_search_odd_q_rejected():
    with pytest.raises(ValueError, match="even"):
        search_base_blocks(3)


def test_search_q4_contains_field_block_up_to_shift(f8):
    blocks = search_base_blocks(4)
    assert blocks
    field_block = extract_base_block(f8)
    shifts = {rotated(field_block, r, 7) for r in range(7)}
    assert any(b in shifts for b in blocks)


def test_search_results_closed_under_cyclic_shift():
    for q in (2, 4):
        k = 2 * q - 1
        found = set(search_base_blocks(q))
        for mask in found:
            for r in range(k):
                assert rotated(mask, r, k) in found


@pytest.mark.parametrize("p", [11, 19])
def test_search_finds_exactly_the_paley_blocks(p):
    # for a prime p = 3 mod 4 the quadratic residues and the non-residues
    # are (p, (p-1)/2, (p-3)/4) difference sets; at p = 11 and 19 they and
    # their translates are every base block
    residues = {x * x % p for x in range(1, p)}
    nonresidues = set(range(1, p)) - residues
    translates = {
        frozenset((x + r) % p for x in base) for base in (residues, nonresidues) for r in range(p)
    }
    blocks = search_base_blocks((p + 1) // 2)
    assert len(blocks) == len(translates) == 2 * p
    assert set(blocks) == {mask_of(t) for t in translates}
    assert [members(b) for b in blocks] == sorted(members(b) for b in blocks)


def test_search_cap():
    with pytest.raises(ValueError, match="cap"):
        search_base_blocks(12)


def test_block_satisfies_r5_strong_equals_weak():
    # the d and k-d intersection counts coincide, so checking shifts
    # 1..q-1 already decides the full range; verify on the q=4 results
    q, k, lam = 4, 7, 1
    for b in search_base_blocks(q):
        weak = all(sum(1 for p in members(b) if b >> (p + d) % k & 1) == lam for d in range(1, q))
        assert weak == block_satisfies_r5(b, q)
