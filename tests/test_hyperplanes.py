import pytest

from multispinal.gf2n import field_context
from multispinal.hyperplanes import (
    BaseBlock,
    DesignError,
    Hyperplane,
    block_satisfies_r5,
    build_hyperplanes,
    extract_base_block,
    membership_profile,
    pair_count,
    search_base_blocks,
    shift_block,
    verify_design,
)

from reference import REF_F8, RefField, ref_hyperplane_membership


@pytest.fixture(scope="module")
def f4():
    return field_context(2)


@pytest.fixture(scope="module")
def f8():
    return field_context(3)


def test_degree2_subgroups_match_worked_example(f4):
    planes = build_hyperplanes(f4)
    # H_0 = {0, 1}, H_1 = {0, 1+alpha}, H_2 = {0, alpha}
    assert sorted(planes[0].elements()) == [0, 1]
    assert sorted(planes[1].elements()) == [0, 3]
    assert sorted(planes[2].elements()) == [0, 2]


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_hyperplanes_distinct_half_size_contain_zero(n):
    ctx = field_context(n)
    planes = build_hyperplanes(ctx)
    assert len(planes) == ctx.k
    assert len({h.members for h in planes}) == ctx.k
    for h in planes:
        assert h.size == ctx.q
        assert 0 in h
        for x in h.elements():  # closed under addition
            for y in h.elements():
                assert ctx.add(x, y) in h


def test_membership_matches_reference_field(f8):
    planes = build_hyperplanes(f8)
    for x in range(8):
        for j in range(7):
            assert (x in planes[j]) == ref_hyperplane_membership(REF_F8, x, j)


# pair counts -------------------------------------------------------------


def test_pair_count_degree2_always_zero(f4):
    for l1 in range(3):
        for l2 in range(3):
            if l1 != l2:
                assert pair_count(f4, l1, l2) == 0


def test_pair_count_degree3_always_one(f8):
    for l1 in range(7):
        for l2 in range(l1 + 1, 7):
            assert pair_count(f8, l1, l2) == 1


def test_pair_count_degree4_example_against_reference():
    ctx = field_context(4)
    assert pair_count(ctx, 0, 5) == 3
    # independent count with the reference field
    from reference import RefField

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
        pair_count(f4, 1, 1)
    with pytest.raises(ValueError):
        pair_count(f4, 0, 3)


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
    # the design command counts pairs by intersecting profiles
    ctx = field_context(n)
    profiles = [membership_profile(ctx, ctx.pow_alpha(l)) for l in range(ctx.k)]
    for l1 in range(ctx.k):
        for l2 in range(l1 + 1, ctx.k):
            assert (profiles[l1] & profiles[l2]).bit_count() == pair_count(ctx, l1, l2)


@pytest.mark.parametrize("n", range(2, 7))
def test_shift_covariance(n):
    # x in H_j <=> phi(x) in H_(j-1 mod k)
    ctx = field_context(n)
    planes = build_hyperplanes(ctx)
    for x in ctx.elements():
        fx = ctx.mul_alpha(x)
        for j in range(ctx.k):
            assert (x in planes[j]) == (fx in planes[(j - 1) % ctx.k])


# design ------------------------------------------------------------------


@pytest.mark.parametrize(
    "n,expected",
    [(2, (3, 1, 0)), (3, (7, 3, 1)), (4, (15, 7, 3)), (5, (31, 15, 7)), (6, (63, 31, 15))],
)
def test_verify_design_parameters(n, expected):
    ctx = field_context(n)
    params = verify_design(build_hyperplanes(ctx))
    assert params.as_tuple() == expected


def test_verify_design_names_offending_block(f8):
    planes = build_hyperplanes(f8)
    # corrupt one block: drop a member, add another
    bad = planes[3].members ^ (1 << 5) ^ (1 << 6)
    corrupted = planes[:3] + [Hyperplane(3, bad, 3)] + planes[4:]
    with pytest.raises(DesignError) as err:
        verify_design(corrupted)
    assert err.value.offender == 5  # the point that lost a block


def test_verify_design_names_offending_pair(f8):
    # same sizes, but swap one block for a non-subgroup set of size q
    fake = (1 << 0) | (1 << 1) | (1 << 2) | (1 << 4)
    corrupted = build_hyperplanes(f8)
    corrupted[0] = Hyperplane(0, fake, 3)
    with pytest.raises(DesignError) as err:
        verify_design(corrupted)
    assert err.value.offender == 1  # the first point the fake block over-counts


# base blocks -------------------------------------------------------------


def test_extract_base_block_degree2(f4):
    assert extract_base_block(f4).sorted_positions() == (2,)


def test_extract_base_block_degree3(f8):
    block = extract_base_block(f8)
    pos = block.sorted_positions()
    assert len(pos) == 3
    for d in range(1, 7):
        hits = sum(1 for p in pos if (p + d) % 7 in block.positions)
        assert hits == 1


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_extract_base_block_size(n):
    ctx = field_context(n)
    assert len(extract_base_block(ctx).positions) == ctx.q - 1


def test_search_q2_exactly_three_singletons():
    blocks = search_base_blocks(2)
    assert sorted(b.sorted_positions() for b in blocks) == [(0,), (1,), (2,)]


def test_search_odd_q_rejected():
    with pytest.raises(ValueError, match="even"):
        search_base_blocks(3)


def test_search_q4_contains_field_block_up_to_shift(f8):
    blocks = search_base_blocks(4)
    assert blocks
    field_block = extract_base_block(f8)
    shifts = {shift_block(field_block, r).positions for r in range(7)}
    assert any(b.positions in shifts for b in blocks)


def test_search_results_closed_under_cyclic_shift():
    for q in (2, 4):
        found = {b.positions for b in search_base_blocks(q)}
        for positions in found:
            block = BaseBlock(q=q, positions=positions)
            for r in range(block.k):
                assert shift_block(block, r).positions in found


def test_search_cap():
    with pytest.raises(ValueError, match="cap"):
        search_base_blocks(12)


def test_block_satisfies_r5_strong_equals_weak():
    # the d and k-d intersection counts coincide, so checking shifts
    # 1..q-1 already decides the full range; verify on the q=4 results
    for b in search_base_blocks(4):
        k = b.k
        lam = b.q // 2 - 1
        weak = all(
            sum(1 for p in b.positions if (p + d) % k in b.positions) == lam
            for d in range(1, b.q)
        )
        assert weak == block_satisfies_r5(b.positions, k, lam)
