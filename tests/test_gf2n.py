import random

import pytest

from multispinal import gf2n
from multispinal.gf2n import (
    DEFAULT_POLYS,
    FieldContext,
    PrimitivePolynomial,
    default_poly,
    field_context,
    is_primitive,
)

from reference import (
    REF_F4,
    REF_F8,
    RefField,
    ref_is_primitive,
    ref_joint_kernel_is_trivial,
    ref_trace_zero_mask,
)

# the stock polynomials of degree 2..10 and every primitive polynomial of
# degree <= 6 (masks 0b100 .. 0b1111111)
JOINT_KERNEL_POLYS = sorted(
    {DEFAULT_POLYS[n] for n in range(2, 11)} | {m for m in range(4, 128) if is_primitive(PrimitivePolynomial(m))}
)


@pytest.fixture(scope="module")
def f4():
    return field_context(2)


@pytest.fixture(scope="module")
def f8():
    return field_context(3)


# parsing ----------------------------------------------------------------


def test_parse_text_and_hex_agree():
    assert PrimitivePolynomial.parse("x^3+x+1").mask == 0xB
    assert PrimitivePolynomial.parse("0xB").mask == 0xB
    assert PrimitivePolynomial.parse("x^3 + x + 1").mask == 0xB
    assert PrimitivePolynomial.parse("0b1011").mask == 0xB
    assert PrimitivePolynomial.parse("11").mask == 11


def test_parse_rejects_garbage():
    with pytest.raises(ValueError):
        PrimitivePolynomial.parse("x^3+y+1")
    with pytest.raises(ValueError):
        PrimitivePolynomial.parse("")
    with pytest.raises(ValueError):
        PrimitivePolynomial.parse("x+x")  # cancels to zero


def test_poly_text_roundtrip():
    p = PrimitivePolynomial(0x11D)
    assert p.text == "x^8 + x^4 + x^3 + x^2 + 1"
    assert PrimitivePolynomial.parse(p.text).mask == p.mask


# primitivity ------------------------------------------------------------


def test_known_primitive_polynomials():
    assert is_primitive(PrimitivePolynomial.parse("x^2+x+1"))
    assert is_primitive(PrimitivePolynomial.parse("x^3+x+1"))


def test_reducible_rejected():
    # x^2 + 1 = (x + 1)^2
    assert not is_primitive(PrimitivePolynomial.parse("x^2+1"))
    # x^4 + x^3 + x^2 + x + 1 is irreducible but has order 5, not 15
    assert not is_primitive(PrimitivePolynomial.parse("x^4+x^3+x^2+x+1"))


def test_degree_below_two_rejected():
    with pytest.raises(ValueError):
        is_primitive(PrimitivePolynomial(0b11))


def test_all_default_polys_primitive():
    for n, mask in DEFAULT_POLYS.items():
        p = PrimitivePolynomial(mask)
        assert p.degree == n
        assert is_primitive(p), f"default poly for n={n} not primitive"


@pytest.mark.parametrize("n", [17, 18, 19, 20])
def test_stock_poly_from_degree_17_is_the_least_primitive_mask(n):
    # the least odd mask of degree n that is_primitive accepts, and the
    # context it gives with no polynomial named
    least = next(m for m in range((1 << n) + 1, 1 << (n + 1), 2) if is_primitive(PrimitivePolynomial(m)))
    assert DEFAULT_POLYS[n] == least
    ctx = field_context(n)
    assert (ctx.n, ctx.poly.mask, len(ctx.power_table)) == (n, least, (1 << n) - 1)


@pytest.mark.parametrize("n", range(2, 13))
def test_order_test_alone_matches_the_trial_division_oracle(n):
    # every mask of degree n, reducible ones included: an order of 2^n - 1
    # already makes GF(2)[x]/(f) a field
    masks = range(1 << n, 1 << (n + 1))
    assert [m for m in masks if is_primitive(PrimitivePolynomial(m))] == [m for m in masks if ref_is_primitive(m)]


def test_context_rejects_non_primitive():
    with pytest.raises(ValueError):
        FieldContext(PrimitivePolynomial.parse("x^2+1"))


# arithmetic -------------------------------------------------------------


def test_add_is_xor_and_involutive(f4):
    for x in f4.elements():
        assert f4.add(x, x) == 0
        assert f4.add(x, 0) == x
    # alpha + alpha^2 = 1 since alpha^2 = 1 + alpha
    assert f4.add(2, f4.mul(2, 2)) == 1


def test_add_rejects_out_of_range(f4):
    with pytest.raises(ValueError):
        f4.add(4, 0)


def test_mul_alpha_degree3_shift_register_formula(f8):
    # (b0, b1, b2) -> (b2, b0 + b2, b1)
    for x in f8.elements():
        b0, b1, b2 = x & 1, (x >> 1) & 1, (x >> 2) & 1
        expected = b2 | ((b0 ^ b2) << 1) | (b1 << 2)
        assert f8.mul_alpha(x) == expected
    assert f8.mul_alpha(0) == 0


def test_mul_alpha_degree2(f4):
    assert f4.mul_alpha(2) == 3  # alpha -> 1 + alpha


def test_mul_examples(f4, f8):
    for x in f4.elements():
        assert f4.mul(x, 1) == x
    assert f4.mul(2, 2) == 3                    # alpha^2 = 1 + alpha
    assert f8.mul(2, f8.mul(2, 2)) == 3         # alpha^3 = alpha + 1


@pytest.mark.parametrize("n", [2, 3, 4])
def test_mul_matches_reference_field(n):
    ctx = field_context(n)
    ref = {2: REF_F4, 3: REF_F8}.get(n) or RefField((1, 1, 0, 0, 1))
    for x in ctx.elements():
        for y in ctx.elements():
            got = ctx.mul(x, y)
            want = ref.to_int(ref.mul(ref.from_int(x), ref.from_int(y)))
            assert got == want


@pytest.mark.parametrize("n", [2, 3, 4])
def test_mul_associative_commutative_distributive_exhaustive(n):
    ctx = field_context(n)
    elems = list(ctx.elements())
    for x in elems:
        for y in elems:
            assert ctx.mul(x, y) == ctx.mul(y, x)
            for z in elems:
                assert ctx.mul(ctx.mul(x, y), z) == ctx.mul(x, ctx.mul(y, z))
                assert ctx.mul(x, ctx.add(y, z)) == ctx.add(ctx.mul(x, y), ctx.mul(x, z))


@pytest.mark.parametrize("n", [8, 12, 16])
def test_mul_distributive_randomized(n):
    ctx = field_context(n)
    rng = random.Random(n)
    for _ in range(300):
        x, y, z = (rng.randrange(ctx.size) for _ in range(3))
        assert ctx.mul(x, ctx.add(y, z)) == ctx.add(ctx.mul(x, y), ctx.mul(x, z))
        assert ctx.mul(ctx.mul(x, y), z) == ctx.mul(x, ctx.mul(y, z))


@pytest.mark.parametrize("n", range(2, 9))
def test_mul_alpha_order(n):
    ctx = field_context(n)
    for x in ctx.elements():
        y = x
        for _ in range(ctx.k):
            y = ctx.mul_alpha(y)
        assert y == x


# trace ------------------------------------------------------------------


def test_trace_examples(f4):
    assert f4.trace(0) == 0
    assert f4.trace(1) == 0  # 1 + 1^2 = 0
    # trace(alpha) = alpha + alpha^2 = alpha + (1 + alpha) = 1, via the
    # reference field's defining sum
    assert REF_F4.trace(REF_F4.alpha()) == 1
    assert f4.trace(2) == 1


@pytest.mark.parametrize("n", range(2, 11))
def test_trace_matches_reference(n):
    ctx = field_context(n)
    ref = RefField(tuple((ctx.poly.mask >> i) & 1 for i in range(n + 1)))
    for x in ctx.elements():
        assert ctx.trace(x) == ref.trace(ref.from_int(x))


@pytest.mark.parametrize("n", range(2, 15))
def test_trace_table_is_the_parity_of_the_trace_mask(n):
    # the doubled table against Tr(x) = parity(x & tau), tau holding the
    # reference traces of the basis elements 2^i = alpha^i
    ctx = field_context(n)
    ref = RefField(tuple((ctx.poly.mask >> i) & 1 for i in range(n + 1)))
    tau = sum(ref.trace(ref.from_int(1 << i)) << i for i in range(n))
    table = ctx.trace_table
    assert type(table) is tuple and all(type(t) is int for t in table)
    assert table == tuple((x & tau).bit_count() & 1 for x in range(ctx.size))


@pytest.mark.parametrize("n", range(2, 9))
def test_trace_is_additive_surjection_with_half_kernel(n):
    ctx = field_context(n)
    kernel = [x for x in ctx.elements() if ctx.trace(x) == 0]
    assert len(kernel) == ctx.size // 2
    assert any(ctx.trace(x) == 1 for x in ctx.elements())
    ys = ctx.elements() if n <= 6 else (0, 1, 2, ctx.size - 1)
    for x in ctx.elements():
        for y in ys:
            assert ctx.trace(ctx.add(x, y)) == ctx.trace(x) ^ ctx.trace(y)


# tables -----------------------------------------------------------------


@pytest.mark.parametrize("n", range(2, 9))
def test_power_table_and_discrete_log(n):
    ctx = field_context(n)
    assert "discrete_log" not in vars(ctx)  # built on first use
    assert len(set(ctx.power_table)) == ctx.k
    assert 0 not in ctx.power_table
    assert type(ctx.discrete_log) is dict and len(ctx.discrete_log) == ctx.k
    for t, v in enumerate(ctx.power_table):
        assert ctx.discrete_log[v] == t
    assert ctx.mul_alpha(ctx.power_table[-1]) == 1


# the seeded polynomials of the benchmark's field documents
SWEEP_POLYS = (0x1EE3, 0x369B, 0x6F29)


@pytest.mark.parametrize("mask", [DEFAULT_POLYS[n] for n in range(2, 17)] + list(SWEEP_POLYS), ids=hex)
def test_doubled_power_table_matches_the_reference_powers(mask):
    ctx = FieldContext(mask)
    ref = RefField(tuple((mask >> i) & 1 for i in range(ctx.n + 1)))
    alpha, power = ref.alpha(), ref.from_int(1)
    want = []
    for _ in range(ctx.k):
        want.append(ref.to_int(power))
        power = ref.mul(power, alpha)
    assert type(ctx.power_table) is tuple and ctx.power_table == tuple(want)


@pytest.mark.parametrize("n", [17, 18, 19, 20])
def test_doubled_power_table_matches_the_shift_register_past_degree_16(n):
    ctx = field_context(n)
    x, want = 1, [1]
    for _ in range(ctx.k - 1):
        x = ctx.mul_alpha(x)
        want.append(x)
    assert ctx.power_table == tuple(want)


def test_context_rejects_a_power_table_with_a_repeated_entry(monkeypatch):
    def repeated(mask, n):
        table = list(build(mask, n))
        table[-1] = table[0]
        return tuple(table)

    build = gf2n._alpha_powers
    monkeypatch.setattr(gf2n, "_alpha_powers", repeated)
    with pytest.raises(AssertionError, match="power table entries are not distinct"):
        FieldContext(DEFAULT_POLYS[5])


@pytest.mark.parametrize("n", [2, 3, 4])
def test_joint_kernel_trivial(n):
    assert field_context(n).joint_kernel_is_trivial()


@pytest.mark.parametrize("mask", JOINT_KERNEL_POLYS, ids=hex)
def test_joint_kernel_identity_matches_the_exhaustive_loop(mask):
    ctx = FieldContext(mask)
    assert ctx.joint_kernel_is_trivial() is True
    assert ref_joint_kernel_is_trivial(ctx) is True


def test_every_primitive_polynomial_of_degree_at_most_6_is_cross_checked():
    # phi(2^n - 1) / n primitive polynomials of degree n: 1, 2, 2, 6, 6
    assert len([m for m in JOINT_KERNEL_POLYS if m < 128]) == 17


@pytest.mark.parametrize("one", [None, *range(1, 16)])
def test_joint_kernel_identity_and_loop_agree_on_damaged_trace_tables(one):
    # a table that vanishes on GF(16)^* leaves every x in the joint kernel;
    # a single 1 at any nonzero y already makes the kernel trivial
    ctx = field_context(4)
    ctx.__dict__["trace_table"] = tuple(int(x == one) for x in range(16))
    assert ctx.joint_kernel_is_trivial() is (one is not None)
    assert ref_joint_kernel_is_trivial(ctx) is (one is not None)


@pytest.mark.parametrize("n", range(2, 13))
def test_trace_zero_mask_matches_the_bit_sum(n):
    ctx = field_context(n)
    assert ctx.trace_zero_mask == ref_trace_zero_mask(ctx)
    assert ctx.trace_zero_mask.bit_count() == ctx.q - 1


def test_polynomial_is_an_immutable_value():
    import copy
    import pickle

    p = PrimitivePolynomial(0xB)
    assert p == PrimitivePolynomial.parse("x^3+x+1") and p != PrimitivePolynomial(0xD)
    assert p != 0xB and p != (0xB,)
    assert len({p, PrimitivePolynomial(0xB)}) == 1
    assert repr(p) == "PrimitivePolynomial(mask=11)"
    assert pickle.loads(pickle.dumps(p)) == copy.deepcopy(p) == p
    with pytest.raises(AttributeError):
        p.mask = 0xD
    with pytest.raises(AttributeError):
        del p.mask
    assert p.mask == 0xB


def test_joint_kernel_reference_cross_check(f8):
    # exhaustive over the reference field: every nonzero x escapes some kernel
    from reference import ref_hyperplane_membership

    for x in range(1, 8):
        assert any(not ref_hyperplane_membership(REF_F8, x, j) for j in range(7))


def test_field_context_caps_degree():
    with pytest.raises(ValueError):
        field_context(21, PrimitivePolynomial((1 << 21) | 0b101))


def test_default_poly_unknown_degree():
    with pytest.raises(ValueError):
        default_poly(40)
