import itertools
import random
from fractions import Fraction

import pytest

from multispinal import certify, exact_linalg, groupoid
from multispinal.certify import bound_section, groupoid_section, matrix_section
from multispinal.exact_linalg import (
    InclusionMatrix,
    RightInverse,
    build_T,
    build_W,
    check_R_conditions,
    rank_over_Q,
    row_label,
    verify_right_inverse,
)
from multispinal.gf2n import field_context
from multispinal.groupoid import (
    ONES,
    ZERO,
    GermPoint,
    MembershipMismatch,
    SemigroupTriple,
    Tail,
    bound_check,
    check_germ_rows,
    germ_equal,
    germ_rows,
    intersect_witness,
    is_idempotent,
    meet_set,
    membership_matrix,
    point_in_bisection,
    region_pattern,
    region_witnesses,
    sample_bound_ratios,
    sg_equal,
    sg_multiply,
    sg_star,
)
from multispinal.selfsim import STATE_A, MultispinalGroup

from reference import (
    RefAutomaton,
    RefField,
    ref_germ_equal,
    ref_hyperplane_membership,
    ref_ones_from,
    ref_region_witness,
    ref_sg_multiply,
    ref_sg_multiply_full_reduction,
    ref_bound_section,
    t_first_column_abs_sum,
)


@pytest.fixture(scope="module")
def g2():
    return MultispinalGroup(field_context(2))


@pytest.fixture(scope="module")
def g3():
    return MultispinalGroup(field_context(3))


@pytest.fixture(scope="module")
def w2(g2):
    return build_W(g2.ctx)


@pytest.fixture(scope="module")
def w3(g3):
    return build_W(g3.ctx)


def ref_field(ctx):
    return RefField(tuple((ctx.poly.mask >> i) & 1 for i in range(ctx.n + 1)))


def random_word(rng, max_len=6):
    return "".join(rng.choice("01") for _ in range(rng.randrange(0, max_len + 1)))


def random_element(group, rng, max_factors=3):
    states = group.nucleus_states
    g = group.identity
    for _ in range(rng.randrange(0, max_factors + 1)):
        g = group.multiply(g, group.element(rng.choice(states)))
    return g


def random_triple(group, rng):
    return SemigroupTriple(random_word(rng), random_element(group, rng), random_word(rng))


# inverse semigroup ---------------------------------------------------------


def test_product_empty_extension_case(g2):
    rng = random.Random(0)
    for _ in range(50):
        eta, mu, nu = (random_word(rng) for _ in range(3))
        g, h = random_element(g2, rng), random_element(g2, rng)
        prod = sg_multiply(g2, SemigroupTriple(eta, g, mu), SemigroupTriple(mu, h, nu))
        assert prod.eta == eta and prod.mu == nu
        assert g2.equal(prod.g, g2.multiply(g, h))


@pytest.mark.parametrize("n", [2, 3, 4])
def test_sg_multiply_matches_reference_product(n):
    # 500 seeded pairs: a third with t's eta extending s's mu, a third the
    # other way round, a third drawn freely (mostly zero products).  The
    # group parts have up to 5 factors and the extensions up to 2
    # letters, so that restrictions of length 2 or more, where the order
    # of the factors matters, are common
    group = MultispinalGroup(field_context(n))
    auto = RefAutomaton(ref_field(group.ctx))
    rng = random.Random(500 + n)
    branches = set()
    for case in range(500):
        s, t = (SemigroupTriple(random_word(rng), random_element(group, rng, 5), random_word(rng)) for _ in "st")
        if case % 3 == 0:
            t = SemigroupTriple(s.mu + random_word(rng, 2), t.g, t.mu)
        elif case % 3 == 1:
            s = SemigroupTriple(s.eta, s.g, t.eta + random_word(rng, 2))
        got = sg_multiply(group, s, t)
        want = ref_sg_multiply(auto, (s.eta, s.g, s.mu), (t.eta, t.g, t.mu))
        if want is None:
            assert got is ZERO, (s, t)
            branches.add("zero")
            continue
        assert (got.eta, got.mu) == (want[0], want[2]), (s, t)
        assert auto.equal(got.g, want[1]), (s, t)
        branches.add(len(t.eta) >= len(s.mu))
    assert branches == {"zero", True, False}


def _unreduced_element(group, rng, directed_only=False):
    """A hand-built word with the spellings normal forms never hold:
    e, b(0), a a and neighbouring directed states."""
    pool = [("b", x) for x in range(group.ctx.size)]
    if not directed_only:
        pool += [("e",), STATE_A, STATE_A]
    return tuple(rng.choice(pool) for _ in range(rng.randrange(0, 5)))


@pytest.mark.parametrize("n", [2, 3, 4])
def test_query_path_on_unreduced_words_matches_full_reduction(n):
    # the seam join and the one-factor closed forms on hand-built words:
    # products agree with the product reduced from scratch under sg_equal
    # and their group parts with the reference automaton, stars with the
    # reversed word, and witnesses and germs with the reference walk
    group = MultispinalGroup(field_context(n))
    auto = RefAutomaton(ref_field(group.ctx))
    rng = random.Random(2400 + n)
    for case in range(400):
        s, t = (SemigroupTriple(random_word(rng, 3), _unreduced_element(group, rng), random_word(rng, 3)) for _ in "st")
        if case % 3 == 0:
            t = SemigroupTriple(s.mu + random_word(rng, 2), t.g, t.mu)
        elif case % 3 == 1:
            s = SemigroupTriple(s.eta, s.g, t.eta + random_word(rng, 2))
        got, want = sg_multiply(group, s, t), ref_sg_multiply_full_reduction(group, s, t)
        assert sg_equal(group, got, want) and sg_equal(group, want, got), (s, t)
        if got is not ZERO:
            assert auto.equal(got.g, want.g), (s, t)
        star = sg_star(group, s)
        assert (star.eta, star.mu) == (s.mu, s.eta) and auto.equal(star.g, s.g[::-1]), s
        assert sg_equal(group, sg_star(group, star), s)
        g, h = _unreduced_element(group, rng, True), _unreduced_element(group, rng, True)
        m = rng.randrange(2 * group.ctx.k)
        if groupoid._directed_value(g) != groupoid._directed_value(h):
            w = intersect_witness(group, g, h, m)
            assert ref_germ_equal(auto, g, h, w, "1"), (g, h, m)
        tail = Tail(random_word(rng, 3), random_word(rng, 2) or "1")
        u, v = s.g, t.g
        assert germ_equal(group, u, v, tail) == ref_germ_equal(auto, u, v, tail.prefix, tail.period)


def test_product_zero_case(g2):
    s = SemigroupTriple("", g2.identity, "0")
    t = SemigroupTriple("1", g2.identity, "")
    assert sg_multiply(g2, s, t) is ZERO
    assert sg_multiply(g2, ZERO, s) is ZERO
    assert sg_multiply(g2, s, ZERO) is ZERO


def test_idempotents(g2):
    for mu in ("", "0", "10", "111"):
        s = SemigroupTriple(mu, g2.identity, mu)
        assert sg_equal(g2, sg_multiply(g2, s, s), s)
        assert sg_equal(g2, sg_star(g2, s), s)
    assert sg_star(g2, ZERO) is ZERO


def test_star_involution_and_sss(g2, g3):
    for group, seed in ((g2, 1), (g3, 2)):
        rng = random.Random(seed)
        for _ in range(200):
            s = random_triple(group, rng)
            assert sg_equal(group, sg_star(group, sg_star(group, s)), s)
            sss = sg_multiply(group, sg_multiply(group, s, sg_star(group, s)), s)
            assert sg_equal(group, sss, s)
            ss = sg_multiply(group, sg_star(group, s), s)
            assert sg_equal(group, ss, SemigroupTriple(s.mu, group.identity, s.mu))


def test_idempotents_commute_and_have_triple_shape(g2):
    rng = random.Random(3)
    for _ in range(100):
        s, t = random_triple(g2, rng), random_triple(g2, rng)
        e1 = sg_multiply(g2, s, sg_star(g2, s))
        e2 = sg_multiply(g2, t, sg_star(g2, t))
        a = sg_multiply(g2, e1, e2)
        b = sg_multiply(g2, e2, e1)
        assert sg_equal(g2, a, b)
        # computed idempotency matches the (mu, e, mu) / Zero shape
        assert is_idempotent(g2, e1)
        if e1 is not ZERO:
            assert e1.eta == e1.mu
            assert g2.equal(e1.g, g2.identity)


def test_random_triple_idempotency_matches_shape(g2):
    rng = random.Random(4)
    for _ in range(300):
        s = random_triple(g2, rng)
        shape = s.eta == s.mu and g2.equal(s.g, g2.identity)
        assert is_idempotent(g2, s) == shape


# tails and germ points -------------------------------------------------------


def test_tail_letters_and_validation():
    t = Tail("10", "01")
    assert [t.letter(i) for i in range(6)] == ["1", "0", "0", "1", "0", "1"]
    assert ONES.starts_with_ones(25)
    # _step reads any letter but "1" as "0" on a directed state, so a bad
    # letter would walk as a 0 instead of being refused
    for prefix, period in (("1", ""), ("2", "1"), ("0a", "1"), ("", "12"), ("0", "1 ")):
        with pytest.raises(ValueError, match="a tail is 0/1 words with a nonempty period"):
            Tail(prefix, period)


def test_tail_ones_from():
    t = Tail("1101", "110")
    assert [t.ones_from(i) for i in range(9)] == [2, 1, 0, 3, 2, 1, 0, 2, 1]
    assert Tail("111", "01").ones_from(0) == 3
    assert [Tail("0", "011").ones_from(i) for i in (2, 3, 5)] == [2, 1, 2]  # runs wrap the period
    assert Tail("0", "1").ones_from(1) is None
    assert ONES.ones_from(7) is None
    assert Tail("1" * 5, "11").ones_from(2) is None


def test_tail_ones_from_matches_the_slice_formula():
    # every tail with a prefix of up to 4 letters and a period of 1 to 4
    # letters, at every position up to two periods past the prefix
    words = ["".join(w) for r in range(5) for w in itertools.product("01", repeat=r)]
    for prefix in words:
        for period in words:
            if not period:
                continue
            tail = Tail(prefix, period)
            for pos in range(len(prefix) + 2 * len(period) + 1):
                assert tail.ones_from(pos) == ref_ones_from(prefix, period, pos), (prefix, period, pos)


def test_germ_point_requires_mu_prefix(g2):
    with pytest.raises(ValueError):
        GermPoint(SemigroupTriple("", g2.identity, "0"), ONES)
    GermPoint(SemigroupTriple("", g2.identity, "11"), ONES)


# germ equality ----------------------------------------------------------------


def test_germ_equal_reflexive(g2):
    for x in g2.ctx.elements():
        assert germ_equal(g2, g2.iota(x), g2.iota(x), ONES)


def test_germ_b_never_meets_e_on_all_ones(g2):
    b = g2.iota(2)
    # power-table oracle: restrictions along 1^t cycle through the three
    # nonzero directed states and never hit the identity
    seen = set()
    r = b
    for _ in range(6):
        assert not g2.equal(r, g2.identity)
        seen.add(r)
        r = g2.restrict(r, "1")
    assert len(seen) == 3
    assert not germ_equal(g2, b, g2.identity, ONES)


def test_germ_b_meets_c_after_escape(g2):
    b, c = g2.iota(2), g2.iota(3)
    assert germ_equal(g2, b, c, Tail("1110", "1"))
    assert not germ_equal(g2, b, c, ONES)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_z_e_only_in_its_own_neighborhoods(n):
    group = MultispinalGroup(field_context(n))
    for x in group.ctx.nonzero_elements():
        assert not germ_equal(group, group.iota(x), group.identity, ONES)


def random_tail(rng, k, kind):
    """Tails for the oracle: a long 1^s prefix with s up to 3k, followed
    by a period that holds a 0 (kind 0), is all 1s (kind 1), or is any
    random period (kind 2)."""
    prefix = random_word(rng, 3) + "1" * rng.randrange(0, 3 * k + 1) + random_word(rng, 2)
    if kind == 1:
        return Tail(prefix, "1" * rng.randrange(1, 4))
    period = random_word(rng, 3) or "1"
    if kind == 0:
        i = rng.randrange(len(period))
        period = period[:i] + "0" + period[i + 1:]
    return Tail(prefix, period)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_germ_equal_matches_reference_walk(n):
    # unreduced words of up to 4 factors, e included; every third pair is
    # purely directed, so that both sides jump runs of 1s
    ctx = field_context(n)
    group = MultispinalGroup(ctx)
    auto = RefAutomaton(ref_field(ctx))
    states = group.nucleus_states
    directed = [s for s in states if s != STATE_A]
    rng = random.Random(100 + n)
    verdicts = set()
    for case in range(300):
        pool = directed if case % 3 == 0 else states
        u, v = (tuple(rng.choice(pool) for _ in range(rng.randrange(0, 5))) for _ in range(2))
        tail = random_tail(rng, ctx.k, case % 3)
        got = germ_equal(group, u, v, tail)
        assert got == ref_germ_equal(auto, u, v, tail.prefix, tail.period), (u, v, tail)
        verdicts.add(got)
    assert verdicts == {True, False}


@pytest.mark.parametrize("n", [2, 3, 4])
def test_germ_equal_on_states_matches_reference_walk(n, monkeypatch):
    # the closed form of two single states: every pair of states and of
    # the unreduced spellings of e, and two-factor words that restrict to
    # states after one letter, against the letter-by-letter reference
    # walk; the tails make the state branch start inside the prefix,
    # inside the period, on a run that wraps the period, and on an all-1
    # period
    ctx = field_context(n)
    group = MultispinalGroup(ctx)
    auto = RefAutomaton(ref_field(ctx))
    states = group.nucleus_states
    singles = [(), (("b", 0),)] + [(s,) for s in states]
    rng = random.Random(400 + n)
    pairs = [(u, v) for u in singles for v in singles]
    for _ in range(150):
        u = (rng.choice(states), rng.choice(states))
        v = rng.choice([(rng.choice(states), rng.choice(states)), rng.choice(singles)])
        pairs.append((u, v) if rng.random() < 0.5 else (v, u))
    # b(x) a restricts along 0 to b(alpha x): two directed states at pos 1
    directed = [s for s in states if s[0] == "b"]
    products = list(itertools.product(directed, repeat=2))
    pairs += [((s, STATE_A), (t, STATE_A)) for s, t in (products if n <= 3 else rng.sample(products, 40))]
    tails = [
        Tail("110", "01"), Tail("1", "1"), Tail("", "1101"), Tail("0", "011"), Tail("", "0111"),
        Tail("0", "110"), Tail("", "11"), Tail("0", "1"), Tail("1" * (ctx.k + 1) + "0", "1"),
        Tail("", "1" * (ctx.k + 2) + "0"), Tail("10", "1011"),
    ]
    starts = set()
    real = Tail.ones_from

    def spy(tail, pos):
        i = tail.fold(pos) - len(tail.prefix)
        run = real(tail, pos)
        if i < 0:
            starts.add("prefix")
        elif "0" not in tail.period:
            starts.add("all-1 period")
        elif i + run >= len(tail.period):
            starts.add("wraps the period")
        else:
            starts.add("period")
        return run

    monkeypatch.setattr(Tail, "ones_from", spy)
    verdicts = set()
    for tail in tails:
        for u, v in pairs:
            got = germ_equal(group, u, v, tail)
            assert got == ref_germ_equal(auto, u, v, tail.prefix, tail.period), (u, v, tail)
            verdicts.add(got)
    assert verdicts == {True, False}
    assert starts == {"prefix", "period", "wraps the period", "all-1 period"}


# intersection witnesses ---------------------------------------------------------


def test_witness_bc_at_m1(g2):
    # b c^{-1} = d = iota(1), 1 lies in H_0, and 1 + 2 = 0 mod 3
    assert intersect_witness(g2, g2.iota(2), g2.iota(3), 1) == "1110"


def test_witness_bd_at_m0(g2):
    # b d^{-1} = iota(alpha + 1) = iota(alpha^2), which lies in H_1 only
    w = intersect_witness(g2, g2.iota(2), g2.iota(1), 0)
    assert w == "10"
    assert germ_equal(g2, g2.iota(2), g2.iota(1), Tail(w, "1"))


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_germ_equal_is_the_trace_identity(n):
    # iota(x) and iota(y) meet along 1^s 0 1^infinity iff Tr(alpha^s (x + y)) = 0
    ctx = field_context(n)
    group = MultispinalGroup(ctx)
    field = ref_field(ctx)
    rng = random.Random(200 + n)
    for s in range(2 * ctx.k + 2):
        tail = Tail("1" * s + "0", "1")
        for _ in range(12):
            x, y = rng.sample(range(ctx.size), 2)
            shifted = field.mul(field.pow(field.alpha(), s), field.from_int(x ^ y))
            want = field.trace(shifted) == 0
            assert germ_equal(group, group.iota(x), group.iota(y), tail) == want, (s, x, y)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_germ_equal_cancels_to_the_identity(n):
    # [iota(x), t] = [iota(y), t] iff [iota(x + y), t] = [e, t]: the germ
    # law with iota(y)^-1 iota(x) = b(x + y), over every pair x, y
    ctx = field_context(n)
    group = MultispinalGroup(ctx)
    rng = random.Random(300 + n)
    tails = [Tail("1" * s + "0", "1") for s in range(2 * ctx.k + 2)]
    tails += [random_tail(rng, ctx.k, kind % 3) for kind in range(12)]
    verdicts = set()
    for tail in tails:
        for x in ctx.elements():
            for y in ctx.elements():
                got = germ_equal(group, group.iota(x), group.iota(y), tail)
                assert got == germ_equal(group, group.iota(x ^ y), group.identity, tail), (x, y, tail)
                verdicts.add(got)
    assert verdicts == {True, False}


@pytest.mark.parametrize("n", [2, 3, 4])
def test_germ_equal_cancellation_cases_match_reference_walk(n):
    # the tails of the cancellation law above, both sides walked by the
    # reference automaton one letter per step: every pair x, y at n <= 3,
    # 24 seeded pairs per tail at n = 4
    ctx = field_context(n)
    group = MultispinalGroup(ctx)
    auto = RefAutomaton(ref_field(ctx))
    rng = random.Random(300 + n)
    tails = [Tail("1" * s + "0", "1") for s in range(2 * ctx.k + 2)]
    tails += [random_tail(rng, ctx.k, kind % 3) for kind in range(12)]
    pairs = list(itertools.product(ctx.elements(), repeat=2))
    verdicts = set()
    for tail in tails:
        for x, y in pairs if n <= 3 else rng.sample(pairs, 24):
            want = ref_germ_equal(auto, (("b", x),), (("b", y),), tail.prefix, tail.period)
            assert germ_equal(group, group.iota(x), group.iota(y), tail) == want, (x, y, tail)
            verdicts.add(want)
    assert verdicts == {True, False}


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_meet_set_matches_reference_walks(n):
    ctx = field_context(n)
    auto = RefAutomaton(ref_field(ctx))
    want = {w for w in ctx.elements() if ref_germ_equal(auto, (("b", w),), (), "0", "1")}
    assert meet_set(MultispinalGroup(ctx)) == want
    assert len(want) == ctx.q


def test_witness_rejects_equal_elements(g2):
    with pytest.raises(ValueError):
        intersect_witness(g2, g2.iota(2), g2.iota(2), 1)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_witness_exists_for_all_pairs_and_m(n):
    group = MultispinalGroup(field_context(n))
    elems = list(group.ctx.elements())
    for m in range(0, 7):
        for x, y in itertools.combinations(elems, 2):
            w = intersect_witness(group, group.iota(x), group.iota(y), m)
            assert w.endswith("0")
            assert len(w) - 1 >= m
            assert germ_equal(group, group.iota(x), group.iota(y), Tail(w, "1"))


# regions -------------------------------------------------------------------------


def test_region_pattern_subgroup_zero(g2, w2):
    p = region_pattern(g2, w2, 1, "H", 0)
    assert p.witness == "1110"  # prefix 1^(3t) 0 with 3t >= m
    assert p.membership_row == (1, 0, 0, 1)  # exactly {e, d}
    assert p.members == (0, 1)


def test_region_pattern_complement(g3, w3):
    p = region_pattern(g3, w3, 2, "Hc", 5)
    W = build_W(g3.ctx)
    col = 5 + g3.ctx.k
    assert p.membership_row == tuple(W.entry(i, col) for i in range(2 * g3.ctx.q))


def test_region_pattern_rejects_inadmissible_sets(g2, w2):
    with pytest.raises(ValueError):
        region_pattern(g2, w2, 1, "everything", 0)
    with pytest.raises(ValueError):
        region_pattern(g2, w2, 1, "H", 3)
    with pytest.raises(ValueError):
        region_pattern(g2, build_W(field_context(3)), 1, "H", 0)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_region_pattern_matches_reference_scan(n):
    ctx = field_context(n)
    group = MultispinalGroup(ctx)
    field = ref_field(ctx)
    W = build_W(ctx)
    k = ctx.k
    for m in sorted({0, 1, 2, 3, k, k + 1}):
        depth = m + 2 * k + 1  # one shift-register period past the congruence window, plus the 0
        for kind in ("H", "Hc"):
            for j in range(k):
                p = region_pattern(group, W, m, kind, j)
                assert (p.witness, p.membership_row) == ref_region_witness(field, m, kind, j, depth)


@pytest.mark.parametrize("n", range(2, 13))
def test_germ_rows_parse_row_1_as_the_bit_sum(n):
    # the parsed row of alpha against the sum of single bits, for the
    # meet set of the walks and for random sets with and without 0
    ctx = field_context(n)
    k = ctx.k
    rng = random.Random(n)
    meets = [meet_set(MultispinalGroup(ctx))]
    meets += [frozenset(x for x in ctx.elements() if rng.random() < 0.5) for _ in range(4)]
    for meet in meets:
        row1 = sum(1 << j for j in range(k) if ctx.power_table[(j + 1) % k] in meet)
        assert germ_rows(ctx, meet) == row1


@pytest.mark.parametrize("n", [2, 3, 4])
def test_germ_rows_and_witnesses_match_the_oracles(n):
    # the 2q-walk certificate against 2k region_pattern rows of 2q walks
    # each, and against the reference scan over tails
    ctx = field_context(n)
    group = MultispinalGroup(ctx)
    field = ref_field(ctx)
    W = build_W(ctx)
    k = ctx.k
    meet = meet_set(group)
    assert 0 in meet and germ_rows(ctx, meet) == W.row1
    rows = tuple(exact_linalg.circulant_rows(W.row1, k))
    assert rows == W.rows
    section = groupoid_section(group, W, matrix_section(ctx, W, build_T(W)))
    # the rule the section states is the one every region's oracle follows
    assert section["witness_rule"] == "H_j and H_j^c: 1^s 0 1^inf, s = m + (j - m) mod k, every m >= 0"
    assert section["matches_transpose"] is True
    assert section["singular_certificate"]["germ_verified"] is True
    for m in sorted({0, 1, 2, 3, k, k + 1}):
        patterns = membership_matrix(group, W, m)
        assert tuple(p.membership_row for p in patterns) == tuple(
            tuple((r >> col) & 1 for r in rows) for col in range(2 * k)
        )
        witnesses = region_witnesses(ctx, m)
        assert list(witnesses) == list(W.col_labels)
        depth = m + 2 * k + 1
        for p in patterns:
            s = len(p.witness) - 1
            assert s == m + (p.j - m) % k
            assert witnesses[p.label] == f"1^{s} 0"
            ref = ref_region_witness(field, m, p.kind, p.j, depth)
            assert ref == (p.witness, p.membership_row)


def test_negative_m_is_rejected(g2, w2):
    with pytest.raises(ValueError):
        region_pattern(g2, w2, -1, "H", 0)
    with pytest.raises(ValueError):
        region_witnesses(g2.ctx, -1)
    with pytest.raises(ValueError):
        membership_matrix(g2, w2, -2)
    with pytest.raises(ValueError):
        intersect_witness(g2, g2.iota(2), g2.iota(1), -1)


def test_region_pattern_names_first_wrong_column(g3, w3, monkeypatch):
    last = g3.iota(1)  # the last canonical column, alpha^7 = 1
    real = groupoid.germ_equal

    def faulty(group, g1, g2, tail):
        return real(group, g1, g2, tail) != (g2 == last)

    monkeypatch.setattr(groupoid, "germ_equal", faulty)
    with pytest.raises(MembershipMismatch) as err:
        region_pattern(g3, w3, 1, "Hc", 4)
    assert (err.value.row_label, err.value.col_label) == ("H4c", "a^7")


def _flip(W, i, col):
    """W with entry (i, col), i >= 1, flipped where it is generated: in the
    bit of row 1 that rotates into row i, so every entry that bit
    generates flips with it."""
    return InclusionMatrix(W.q, W.row1 ^ 1 << (col % W.k + i - 1) % W.k)


@pytest.mark.parametrize("i, kind, j", [(3, "H", 5), (7, "Hc", 4), (7, "H", 0)])
def test_flipped_W_entry_is_named(g3, w3, i, kind, j):
    # the germ rows are right and W is wrong from bit b of row 1 on: the
    # 2q-walk check names the lowest wrong bit of row 1, and the
    # per-region oracles name the first wrong entry of the columns they
    # read.  Column j's first wrong row is i.  A flip in row 1 reaches
    # every column, so the column-by-column sweep stops at H0, in row
    # b + 1
    k = g3.ctx.k
    col = j if kind == "H" else j + k
    bad = _flip(w3, i, col)
    assert bad.entry(i, col) != w3.entry(i, col)
    label = f"H{j}" + ("c" if kind == "Hc" else "")
    b = (j + i - 1) % k
    calls = (
        (lambda: check_germ_rows(g3, bad), (f"H{b}", row_label(1))),
        (lambda: region_pattern(g3, bad, 1, kind, j), (label, row_label(i))),
        (lambda: membership_matrix(g3, bad, 1), ("H0", row_label(b + 1))),
    )
    for call, named in calls:
        with pytest.raises(MembershipMismatch) as err:
            call()
        assert (err.value.row_label, err.value.col_label) == named
    section = groupoid_section(g3, bad, matrix_section(g3.ctx, bad, build_T(bad)))
    assert section["matches_transpose"] is False
    assert section["error"] == f"membership mismatch at row H{b}, column {row_label(1)}"
    assert section["pass"] is False


def test_check_germ_rows_rejects_W_of_another_degree(g3, w2, w3):
    # a degree-2 W must not pass on the bits it shares with the germ rows
    with pytest.raises(ValueError, match="W has q=2; the field has q=4"):
        check_germ_rows(g3, w2)
    check_germ_rows(g3, w3)


def test_check_germ_rows_names_0_outside_the_meet_set(g3, w3, monkeypatch):
    # the w = 0 walk fails, so G misses 0 and every subgroup misses it:
    # the first differing entry is row 0 (the element 0), column H0
    real = groupoid.germ_equal

    def faulty(group, g1, g2, tail):
        return g1 != group.iota(0) and real(group, g1, g2, tail)

    monkeypatch.setattr(groupoid, "germ_equal", faulty)
    with pytest.raises(MembershipMismatch) as err:
        check_germ_rows(g3, w3)
    assert (err.value.row_label, err.value.col_label) == ("H0", "0")


def test_W_row_1_must_fit_in_k_bits(w3):
    with pytest.raises(ValueError, match="must fit in 7 bits"):
        InclusionMatrix(w3.q, w3.row1 | 1 << 7)


@pytest.mark.parametrize("n", [3, 7, 8])
def test_negated_germ_equal_fails_every_m(n, monkeypatch):
    ctx = field_context(n)
    group = MultispinalGroup(ctx)
    W = build_W(ctx)
    matrix = matrix_section(ctx, W, build_T(W))
    real = groupoid.germ_equal
    monkeypatch.setattr(groupoid, "germ_equal", lambda group, g1, g2, tail: not real(group, g1, g2, tail))
    section = groupoid_section(group, W, matrix)
    assert section["pass"] is False
    assert section["singular_certificate"]["germ_verified"] is False
    # the rows do not depend on m, so one verdict holds at every m; 0
    # lies in every H_j, so row 0 is the first to differ
    assert section["matches_transpose"] is False
    assert section["error"] == "membership mismatch at row H0, column 0"


@pytest.mark.parametrize("n", range(2, 11))
def test_certify_lists_no_region_witnesses(n, monkeypatch):
    # the groupoid section states the witness rule once and lists none of
    # its instances
    def no_list(*_):
        raise AssertionError("region witnesses listed")

    monkeypatch.setattr(groupoid, "region_witnesses", no_list)
    monkeypatch.setattr(certify, "region_witnesses", no_list, raising=False)
    assert certify.certify(n)["verdict"] == "PASS"


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
def test_membership_matrix_equals_transpose_degree2(g2, w2, m):
    patterns = membership_matrix(g2, w2, m)
    assert [p.label for p in patterns] == list(w2.col_labels)
    W = build_W(g2.ctx)
    for r, p in enumerate(patterns):
        assert p.membership_row == tuple(W.entry(i, r) for i in range(4))


@pytest.mark.parametrize("m", [1, 3, 5])
def test_membership_matrix_equals_transpose_degree3(g3, w3, m):
    rows = tuple(p.membership_row for p in membership_matrix(g3, w3, m))
    assert rows == tuple(tuple(w3.entry(i, col) for i in range(8)) for col in range(14))


def test_membership_matrix_independent_of_m(g2, w2):
    rows1 = [p.membership_row for p in membership_matrix(g2, w2, 1)]
    rows4 = [p.membership_row for p in membership_matrix(g2, w2, 4)]
    assert rows1 == rows4


def test_monotone_neighborhoods(g3):
    # U_l(z_g) contained in U_m(z_g) for l >= m, on sampled germ points
    rng = random.Random(8)
    for _ in range(60):
        x = rng.randrange(8)
        h = rng.randrange(8)
        s = rng.randrange(0, 15)
        point = GermPoint(
            SemigroupTriple("", g3.iota(x), ""), Tail("1" * s + "0", "1")
        )
        for l, m in ((5, 2), (4, 1), (3, 3)):
            if point_in_bisection(g3, point, g3.iota(h), l):
                assert point_in_bisection(g3, point, g3.iota(h), m)


# singular system and bound --------------------------------------------------------


def _singular_certificate(group):
    W = build_W(group.ctx)
    matrix = matrix_section(group.ctx, W, build_T(W))
    return groupoid_section(group, W, matrix)["singular_certificate"], W


def test_singular_certificate_degree2(g2):
    cert, W = _singular_certificate(g2)
    assert cert["pass"]
    assert cert["rank_over_Q"] == 4 == rank_over_Q(W)
    assert cert["matrix_source"] == "inclusion-transpose"


def test_singular_certificate_reuses_given_matrices(g3, monkeypatch):
    W = build_W(g3.ctx)
    matrix = matrix_section(g3.ctx, W, build_T(W))

    def no_recheck(*_):
        raise AssertionError("the matrix section's certificates must not be rechecked")

    for name in ("rank_over_Q", "verify_right_inverse", "build_W", "build_T"):
        monkeypatch.setattr(exact_linalg, name, no_recheck)
    cert = groupoid_section(g3, W, matrix)["singular_certificate"]
    assert cert["pass"] and cert["rank_over_Q"] == 8
    section = groupoid_section(g3, W, {**matrix, "right_inverse_identity": False, "rank_over_Q": None})
    failed = section["singular_certificate"]
    assert failed["pass"] is False and failed["rank_over_Q"] is None
    assert failed["trivial_solution_only"] is False and failed["germ_verified"] is True
    assert section["pass"] is False


def test_singular_certificate_degree3(g3):
    cert, W = _singular_certificate(g3)
    assert cert["pass"]
    assert cert["rank_over_Q"] == 8 == rank_over_Q(W)


def test_bound_check_identity_indicator(w2):
    c = [Fraction(1), Fraction(0), Fraction(0), Fraction(0)]
    report = bound_check(w2, 1, c)
    for j in range(3):
        assert report["kappa"][f"H{j}"] == 1
        assert report["kappa"][f"H{j}c"] == 0
    assert report["max_abs_kappa"] == 1
    assert report["passes_2n_bound"] and report["passes_sharp_bound"]


def test_bound_check_all_ones(w2):
    report = bound_check(w2, 1, [Fraction(1)] * 4)
    assert report["max_abs_kappa"] == 2
    assert report["passes_2n_bound"] and report["passes_sharp_bound"]


def test_bound_check_rejects_zero_identity_coefficient(w2):
    with pytest.raises(ValueError):
        bound_check(w2, 1, [Fraction(0), Fraction(1), Fraction(1), Fraction(1)])


def test_bound_check_kappa_matches_transpose_product(g3, w3):
    # each region sum is the plain exact sum over the members of H_j (or
    # its complement), with membership decided by the reference field
    rng = random.Random(13)
    field = ref_field(g3.ctx)
    order = g3.ctx.canonical_elements()
    planes = [[ref_hyperplane_membership(field, x, j) for x in order] for j in range(7)]
    for _ in range(25):
        c = [Fraction(rng.randrange(-9, 10), rng.randrange(1, 10)) for _ in order]
        if c[0] == 0:
            c[0] = Fraction(1)
        report = bound_check(w3, 1, c)
        assert len(report["kappa"]) == 14
        for j, inside in enumerate(planes):
            assert report["kappa"][f"H{j}"] == sum((ci for ci, t in zip(c, inside) if t), start=Fraction(0))
            assert report["kappa"][f"H{j}c"] == sum((ci for ci, t in zip(c, inside) if not t), start=Fraction(0))


def test_sharp_bound_implies_stated_bound(w2):
    # q/(2q-1) > 1/2^n, so the sharp inequality forces the strict one
    rng = random.Random(17)
    for _ in range(200):
        c = [Fraction(rng.randrange(-9, 10), rng.randrange(1, 10)) for _ in range(4)]
        if c[0] == 0:
            c[0] = Fraction(-2, 3)
        report = bound_check(w2, 1, c)
        assert report["passes_sharp_bound"]
        assert report["passes_2n_bound"]


@pytest.mark.parametrize("n", [2, 3])
def test_sampler_matches_bound_check(n):
    report = sample_bound_ratios(build_W(field_context(n)), 1, 500, seed=42)
    assert report["all_pass_2n_bound"]
    assert report["all_pass_sharp_bound"]
    assert report["min_ratio"] >= report["sharp_threshold"]


def test_sampler_deterministic(w2):
    r1 = sample_bound_ratios(w2, 1, 300, seed=7)
    r2 = sample_bound_ratios(w2, 1, 300, seed=7)
    assert r1 == r2


# the bound section's closed form against the generic path ---------------------------


def _c_star(q):
    return [Fraction(1)] + [Fraction(-1, 2 * q - 1)] * (2 * q - 1)


@pytest.mark.parametrize("n", range(2, 8))
def test_bound_optimum_matches_generic_path(n):
    ctx = field_context(n)
    W = build_W(ctx)
    T = build_T(W)
    optimum = Fraction(ctx.q, 2 * ctx.q - 1)
    attained = bound_check(W, 1, _c_star(ctx.q))["max_abs_kappa"]
    assert attained == optimum
    assert t_first_column_abs_sum(T.rows) == 1 / optimum
    matrix = {"R_conditions": check_R_conditions(W), "right_inverse_identity": verify_right_inverse(W, T)}
    section = bound_section(W, T, matrix)
    assert section["pass"] is True
    assert section["optimum"] == optimum
    assert section["lower_bound"]["t_column_0_abs_sum"] == t_first_column_abs_sum(T.rows)
    assert section["attained"]["max_abs_kappa"] == attained
    assert section["attained"]["c_star"] == {"identity": 1, "other": Fraction(-1, ctx.k)}
    if n <= 4:
        assert sample_bound_ratios(W, 1, 10000, 0)["min_ratio"] >= optimum


@pytest.mark.parametrize("n", range(2, 9))
def test_bound_section_reads_no_entry(n, monkeypatch):
    # both certificates are closed forms in T's two values: the term-by-term
    # sums over row 0 of W and column 0 of T give the same document
    ctx = field_context(n)
    W = build_W(ctx)
    T = build_T(W)
    matrix = matrix_section(ctx, W, T)

    def refuse(*args):
        raise AssertionError("bound_section read a matrix entry")

    with monkeypatch.context() as m:
        m.setattr(InclusionMatrix, "entry", refuse)
        m.setattr(RightInverse, "rows", property(refuse))
        section = bound_section(W, T, matrix)
    assert section == ref_bound_section(W, T, matrix)
    assert section["pass"] is True


@pytest.mark.parametrize("i, col", [(1, 2), (2, 9), (5, 3), (7, 12)])
def test_flipped_W_entry_fails_the_bound_section(g3, w3, i, col):
    # one wrong generating entry breaks W T = I: no rank is claimed, and the
    # matrix and singular sections fail with the bound section
    bad = _flip(w3, i, col)
    T = build_T(bad)
    matrix = matrix_section(g3.ctx, bad, T)
    section = bound_section(bad, T, matrix)
    assert section == ref_bound_section(bad, T, matrix)
    assert section["pass"] is False
    assert section["lower_bound"]["pass"] is False or section["attained"]["pass"] is False
    assert matrix["right_inverse_identity"] is False and matrix["pass"] is False
    assert matrix["rank_over_Q"] is None
    assert all(r is None or r == "skipped (divides k*q)" for r in matrix["rank_mod_p"].values())
    cert = groupoid_section(g3, bad, matrix)["singular_certificate"]
    assert cert["pass"] is False and cert["trivial_solution_only"] is False


def test_bound_section_needs_the_right_inverse(w3):
    # the lower bound rests on W T = I: the T column sum alone is not enough
    T = build_T(w3)
    matrix = {"R_conditions": check_R_conditions(w3), "right_inverse_identity": False}
    section = bound_section(w3, T, matrix)
    assert section["lower_bound"]["pass"] is False and section["attained"]["pass"] is True
    assert section["pass"] is False


# value classes ----------------------------------------------------------------


def _values():
    """(value, an equal copy, a different value, repr text) for every value
    class of the package."""
    from multispinal.exact_linalg import RightInverse
    from multispinal.groupoid import RegionPattern

    e = ()
    W = InclusionMatrix(q=2, row1=4)
    W2 = InclusionMatrix(2, 4)
    return [
        (SemigroupTriple("0", e, "1"), SemigroupTriple(eta="0", g=(), mu="1"),
         SemigroupTriple("0", e, "0"), "SemigroupTriple(eta='0', g=(), mu='1')"),
        (Tail("10", "1"), Tail(prefix="10", period="1"), Tail("1", "10"), "Tail(prefix='10', period='1')"),
        (GermPoint(SemigroupTriple("", e, "1"), ONES), GermPoint(triple=SemigroupTriple("", e, "1"), tail=ONES),
         GermPoint(SemigroupTriple("", e, ""), ONES),
         "GermPoint(triple=SemigroupTriple(eta='', g=(), mu='1'), "
         "tail=Tail(prefix='', period='1'))"),
        (RegionPattern(kind="H", j=0, witness="10", membership_row=(1, 0), members=(0,)),
         RegionPattern("H", 0, "10", (1, 0), (0,)), RegionPattern("Hc", 0, "10", (1, 0), (0,)),
         "RegionPattern(kind='H', j=0, witness='10', membership_row=(1, 0), members=(0,))"),
        (W, W2, InclusionMatrix(2, 2), "InclusionMatrix(q=2, row1=4)"),
        (RightInverse(W, Fraction(1, 3), Fraction(-1, 6)), RightInverse(W=W2, a=Fraction(1, 3), b=Fraction(-1, 6)),
         RightInverse(W, Fraction(1, 3), Fraction(1, 6)), f"RightInverse(W={W!r}, a=Fraction(1, 3), b=Fraction(-1, 6))"),
    ]


@pytest.mark.parametrize("case", range(6))
def test_value_classes_compare_hash_and_print_by_field(case):
    import copy
    import pickle

    value, same, other, text = _values()[case]
    assert value == same and not value != same
    assert value != other and value != tuple(getattr(value, f) for f in type(value).__slots__)
    assert repr(value) == text
    assert pickle.loads(pickle.dumps(value)) == copy.deepcopy(value) == value
    assert hash(value) == hash(same)
    first = type(value).__slots__[0]
    for attempt in (
        lambda: setattr(value, first, None),
        lambda: delattr(value, first),
        lambda: setattr(value, "other", 1),
    ):
        with pytest.raises(AttributeError):
            attempt()
