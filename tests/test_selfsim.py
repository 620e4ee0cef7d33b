import itertools
import random

import pytest

from multispinal.gf2n import field_context
from multispinal.groupoid import (
    SemigroupTriple,
    Tail,
    germ_equal,
    intersect_witness,
    meet_set,
    sg_equal,
    sg_multiply,
    sg_star,
)
from multispinal.selfsim import STATE_A, STATE_E, MultispinalGroup, _join, _reduce

from reference import (
    GRIG_REST,
    GRIG_SWAPS,
    RefAutomaton,
    RefField,
    grig_act,
    ref_germ_equal,
    ref_restriction_period,
    ref_verify_nucleus,
)


@pytest.fixture(scope="module")
def g2():
    return MultispinalGroup(field_context(2))


@pytest.fixture(scope="module")
def g3():
    return MultispinalGroup(field_context(3))


def classic(group):
    """The degree-2 states under their classical one-letter names."""
    return {
        "e": group.identity,
        "a": group.gen_a,
        "b": group.iota(2),  # alpha
        "c": group.iota(3),  # alpha^2 = 1 + alpha
        "d": group.iota(1),  # alpha^3 = 1
    }


# action ------------------------------------------------------------------


def test_act_basics(g2):
    names = classic(g2)
    assert g2.act(names["a"], "0110") == "1110"
    assert g2.act(names["e"], "0110") == "0110"
    assert g2.act(names["b"], "00") == "01"  # b|_0 = a since Tr(alpha) = 1


def test_act_is_length_preserving_bijection(g2):
    names = classic(g2)
    for g in names.values():
        for length in (1, 2, 3, 4, 5):
            words = ["".join(w) for w in itertools.product("01", repeat=length)]
            images = {g2.act(g, w) for w in words}
            assert len(images) == len(words)
            assert all(len(w) == length for w in images)


def test_act_matches_classical_table(g2):
    names = classic(g2)
    words = ["".join(w) for l in range(1, 7) for w in itertools.product("01", repeat=l)]
    for name, g in names.items():
        for w in words:
            assert g2.act(g, w) == grig_act(name, w)


def test_act_of_products_composes(g2):
    # library product action == functional composition of table actions
    names = classic(g2)
    words = ["".join(w) for w in itertools.product("01", repeat=5)]
    for n1, n2 in itertools.product("abcde", repeat=2):
        g = g2.multiply(names[n1], names[n2])
        for w in words:
            assert g2.act(g, w) == grig_act(n1, grig_act(n2, w))


# restriction ---------------------------------------------------------------


def test_degree2_wreath_recursion(g2):
    names = classic(g2)
    b, c, d, a, e = (names[x] for x in "bcdae")
    assert g2.equal(g2.restrict(b, "1"), c)
    assert g2.equal(g2.restrict(c, "1"), d)
    assert g2.equal(g2.restrict(d, "1"), b)
    assert g2.equal(g2.restrict(b, "0"), a)
    assert g2.equal(g2.restrict(c, "0"), a)
    assert g2.equal(g2.restrict(d, "0"), e)


def test_restriction_table_matches_classical(g2):
    names = classic(g2)
    for name, (on0, on1) in GRIG_REST.items():
        assert g2.equal(g2.restrict(names[name], "0"), names[on0])
        assert g2.equal(g2.restrict(names[name], "1"), names[on1])
    for name, swaps in GRIG_SWAPS.items():
        assert (g2.act(names[name], "0") != "0") == swaps


@pytest.mark.parametrize("n", [2, 3, 4])
def test_directed_restriction_along_one_is_shift(n):
    group = MultispinalGroup(field_context(n))
    for x in group.ctx.nonzero_elements():
        got = group.restrict(group.iota(x), "1")
        assert g_equal_single(group, got, group.ctx.mul_alpha(x))


def g_equal_single(group, g, x):
    return group.equal(g, group.iota(x))


def test_a_restricts_to_identity(g2):
    assert g2.restrict(g2.gen_a, "0") == g2.identity
    assert g2.restrict(g2.gen_a, "1") == g2.identity


def test_iota_one_restriction_unwinds(g2):
    # phi^3(1) = 1, then Tr(1) = 0, so the restriction along 1110 dies
    d = g2.iota(1)
    assert g2.equal(g2.restrict(d, "1110"), g2.identity)


def test_self_similarity_law_degree2(g2):
    states = g2.nucleus_states
    products = [p for r in range(1, 4) for p in itertools.product(states, repeat=r)]
    words = ["".join(w) for l in range(0, 7) for w in itertools.product("01", repeat=l)]
    long_words = ["".join(w) for w in itertools.product("01", repeat=10)]
    for g in products:
        for x in "01":
            gx = g2.act(g, x)
            rest = g2.restrict(g, x)
            for w in words:
                assert g2.act(g, x + w) == gx + g2.act(rest, w)
    for s in states:  # full depth 10 for the generators themselves
        g = g2.element(s)
        for x in "01":
            gx = g2.act(g, x)
            rest = g2.restrict(g, x)
            for w in long_words:
                assert g2.act(g, x + w) == gx + g2.act(rest, w)


def test_self_similarity_law_degree3_sampled(g3):
    states = g3.nucleus_states
    rng = random.Random(3)
    products = list(itertools.product(states, repeat=2))
    products += [tuple(rng.choice(states) for _ in range(3)) for _ in range(60)]
    for g in products:
        for x in "01":
            gx = g3.act(g, x)
            rest = g3.restrict(g, x)
            for l in range(0, 11, 2):
                w = "".join(rng.choice("01") for _ in range(l))
                assert g3.act(g, x + w) == gx + g3.act(rest, w)


# equality -----------------------------------------------------------------


def test_equal_basics(g2):
    names = classic(g2)
    a, e = names["a"], names["e"]
    assert g2.equal(g2.multiply(a, a), e)
    assert not g2.equal(a, e)  # differ on the word 0
    assert g2.equal(g2.multiply(names["b"], names["c"]), names["d"])


def test_equal_cross_checked_by_field_addition(g2):
    # the directed part is the additive group: alpha + alpha^2 = 1
    assert g2.ctx.add(2, 3) == 1


@pytest.mark.parametrize("n", [2, 3, 4])
def test_directed_part_is_additive(n):
    group = MultispinalGroup(field_context(n))
    for x in group.ctx.elements():
        for y in group.ctx.elements():
            lhs = group.multiply(group.iota(x), group.iota(y))
            assert group.equal(lhs, group.iota(group.ctx.add(x, y)))


@pytest.mark.parametrize("n", [2, 3, 4])
def test_nucleus_states_are_involutions(n):
    group = MultispinalGroup(field_context(n))
    for s in group.nucleus_states:
        g = group.element(s)
        assert group.equal(group.multiply(g, g), group.identity)


def test_equal_agrees_with_finite_action_comparison(g2):
    # bisimulation verdicts match brute-force action comparison to depth 7
    states = g2.nucleus_states
    rng = random.Random(5)
    words = ["".join(w) for l in range(1, 8) for w in itertools.product("01", repeat=l)]
    for _ in range(40):
        g = tuple(rng.choice(states) for _ in range(rng.randrange(0, 4)))
        h = tuple(rng.choice(states) for _ in range(rng.randrange(0, 4)))
        same = all(g2.act(g, w) == g2.act(h, w) for w in words)
        if g2.equal(g, h):
            assert same
        else:
            assert not same  # depth 7 suffices to separate at degree 2


def test_inverse_is_reversed_word(g2):
    names = classic(g2)
    rng = random.Random(9)
    pool = list(names.values())
    for _ in range(30):
        g = g2.identity
        for _ in range(rng.randrange(0, 5)):
            g = g2.multiply(g, rng.choice(pool))
        assert g2.equal(g2.multiply(g, g2.inverse(g)), g2.identity)
        assert g2.equal(g2.multiply(g2.inverse(g), g), g2.identity)


# normal form ---------------------------------------------------------------


def is_normal(factors):
    """No e, no b(0), no a a and no two neighbouring directed states."""
    return all(s[0] in "ab" and s != ("b", 0) for s in factors) and all(
        s[0] != t[0] for s, t in zip(factors, factors[1:])
    )


def is_element(x):
    """A plain tuple in normal form, as every element-returning method of
    the group gives."""
    return type(x) is tuple and x == _reduce(x) and is_normal(x)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_normal_form_of_products_and_restrictions(n):
    group = MultispinalGroup(field_context(n))
    ctx = group.ctx
    auto = RefAutomaton(RefField(tuple((ctx.poly.mask >> i) & 1 for i in range(n + 1))))
    states = group.nucleus_states
    assert all(map(is_element, (group.identity, group.gen_a, *map(group.iota, ctx.elements()))))
    rng = random.Random(20 + n)
    words = ["".join(w) for l in range(1, 6) for w in itertools.product("01", repeat=l)]
    for _ in range(60):
        raw_g, raw_h = (tuple(rng.choice(states) for _ in range(rng.randrange(0, 7))) for _ in range(2))
        g, h = group.element(*raw_g), group.element(*raw_h)
        prod = group.multiply(g, h)
        for x in (g, h, prod, group.inverse(g), group.inverse(prod)):
            assert is_element(x)
        assert group.multiply(g, group.inverse(g)) == group.identity
        assert group.multiply(group.inverse(prod), prod) == group.identity
        raw = raw_g + raw_h
        assert group.equal(prod, raw)
        for w in rng.sample(words, 8):
            # the reduced product acts as the raw word does in the
            # reference automaton, which never reduces
            assert group.act(prod, w) == auto.act(raw, w)
            assert is_element(group.restrict(prod, w))
            assert is_element(group.restrict(raw, w))


# restriction period ---------------------------------------------------------


def _ref_automaton(ctx):
    return RefAutomaton(RefField(tuple((ctx.poly.mask >> i) & 1 for i in range(ctx.n + 1))))


def test_restriction_period_examples(g2, g3):
    # the oracle's periods: 3 at n = 2 and 7 at n = 3, 1 for the identity
    auto2, auto3 = _ref_automaton(g2.ctx), _ref_automaton(g3.ctx)
    assert ref_restriction_period(auto2, 2) == 3
    for x in range(1, 8):
        assert ref_restriction_period(auto3, x) == 7
    assert ref_restriction_period(auto2, 0) == 1


@pytest.mark.parametrize("n", range(2, 9))
def test_restriction_period_every_directed_state(n):
    # the nucleus section and subcommand read every period as k, from the
    # order of alpha; the oracle and the package's own restriction agree
    group = MultispinalGroup(field_context(n))
    auto = _ref_automaton(group.ctx)
    for s in group.nucleus_states:
        if s[0] == "b":
            assert ref_restriction_period(auto, s[1]) == group.ctx.k
            t, p = group.restrict_letter_state(s, "1"), 1
            while t != s:
                t, p = group.restrict_letter_state(t, "1"), p + 1
            assert p == group.ctx.k


# nucleus verification --------------------------------------------------------


def test_verify_nucleus_degree2(g2):
    report = g2.verify_nucleus()
    assert report["pass"]
    assert report["state_count"] == 5
    assert {g2.state_name(s) for s in g2.nucleus_states} == {"e", "a", "b1", "b2", "b3"}


def test_verify_nucleus_returns_the_contraction_fragment(g2, monkeypatch):
    # the dict is the certificate's contraction fragment, keys in document
    # order and "pass" last
    assert g2.verify_nucleus() == {
        "n": 2, "state_count": 5, "closure_ok": True, "pairs_checked": 25,
        "max_contraction_depth": 1, "failures": [], "pass": True,
    }
    assert list(g2.verify_nucleus()) == [
        "n", "state_count", "closure_ok", "pairs_checked", "max_contraction_depth", "failures", "pass",
    ]
    group = MultispinalGroup(g2.ctx)
    real = group.restrict_letter_state
    b1 = ("b", 2)  # alpha
    rogue = ("b", 0)  # b(0) is e, never a state of its own
    monkeypatch.setattr(group, "restrict_letter_state", lambda s, ch: rogue if s == b1 and ch == "1" else real(s, ch))
    report = group.verify_nucleus()
    # only the two class pairs of b1 leave the nucleus; the other b's still
    # contract at depth 1
    assert report["failures"] == [["b1", "a"], ["a", "b1"]]
    assert report["closure_ok"] is False and report["pass"] is False
    assert report["pairs_checked"] == 25 and report["max_contraction_depth"] == 1


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_verify_nucleus_matches_the_full_pair_search(n):
    # the class derivation against the (k + 2)^2 pair search on the
    # reference automaton's unreduced words, at two depth limits of the
    # search: every pair contracts by depth 1, so both agree with the classes
    group = MultispinalGroup(field_context(n))
    field = RefField(tuple((group.ctx.poly.mask >> i) & 1 for i in range(n + 1)))
    for depth in (1, 8):
        assert group.verify_nucleus() == ref_verify_nucleus(field, group.nucleus_states, depth)


@pytest.mark.parametrize("n", range(2, 10))
def test_verify_nucleus_and_meet_set_walk_no_word(n, monkeypatch):
    # the nucleus reads the classes; each of the 2^n germ walks of
    # meet_set starts on two single states and finishes in closed form
    group = MultispinalGroup(field_context(n))
    with monkeypatch.context() as m:
        for name in ("_step", "equal", "_trivial"):
            m.setattr(group, name, lambda *_: pytest.fail("verify_nucleus walked a word"))
        assert group.verify_nucleus()["pass"]
    with monkeypatch.context() as m:
        m.setattr(group, "_step", lambda *_: pytest.fail("meet_set walked a word"))
        meet_set(group)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_state_pairs_are_decided_in_closed_form(n, monkeypatch):
    # every pair of nucleus states, with the unreduced spellings ("e",),
    # ("b", 0) and a a, against the reference bisimulation; no pair of
    # single states is walked
    group = MultispinalGroup(field_context(n))
    auto = _ref_automaton(group.ctx)
    words = [(), (("b", 0),), (STATE_A, STATE_A)] + [(s,) for s in group.nucleus_states]
    monkeypatch.setattr(group, "_step", lambda *_: pytest.fail("a pair of states was walked"))
    for u in words:
        for v in words:
            want = auto.equal(u, v)
            assert group.equal(u, v) == want, (u, v)


def test_query_stream_matches_the_reference():
    # a seeded stream of semigroup products, comparisons, witnesses and
    # germ walks on one group: each equal and germ answer matches the
    # reference walk
    group = MultispinalGroup(field_context(5))
    auto = _ref_automaton(group.ctx)
    states = group.nucleus_states
    rng = random.Random(500)

    def word(max_len):
        return "".join(rng.choice("01") for _ in range(rng.randrange(0, max_len + 1)))

    def element():
        return group.element(*(rng.choice(states) for _ in range(rng.randrange(0, 5))))

    for _ in range(300):
        s, t = (SemigroupTriple(word(3), element(), word(3)) for _ in range(2))
        st = sg_multiply(group, s, t)
        sg_equal(group, st, sg_multiply(group, st, s))
        g, h = element(), element()
        assert group.equal(g, h) == auto.equal(g, h), (g, h)
        tail = Tail(word(4), word(3) or "1")
        assert germ_equal(group, g, h, tail) == ref_germ_equal(auto, g, h, tail.prefix, tail.period)
        x, y = rng.sample(range(group.ctx.size), 2)
        intersect_witness(group, group.iota(x), group.iota(y), rng.randrange(2 * group.ctx.k))


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_one_letter_restriction_at_most_halves_a_normal_form(n):
    # the contraction that bounds equal and germ_equal: a normal form of
    # L >= 2 factors has at most floor((L + 1) / 2) directed factors, and
    # only they survive a one-letter restriction
    group = MultispinalGroup(field_context(n))
    directed = [s for s in group.nucleus_states if s[0] == "b"]
    rng = random.Random(80 + n)
    for _ in range(400):
        length = rng.randrange(2, 12)
        first = rng.randrange(2)
        w = tuple(STATE_A if (i + first) % 2 else rng.choice(directed) for i in range(length))
        assert is_normal(w)
        for ch in "01":
            assert len(group._step(w, ch)[0]) <= (length + 1) // 2, (w, ch)


def _respell(rng, factors, directed, limit):
    """An unreduced word of at most limit factors for the same element:
    identities a a, b(x) b(x), e and b(0) inserted, and directed states
    split as b(y) b(x + y)."""
    out = list(factors)
    while len(out) + 2 <= limit and rng.randrange(4):
        i = rng.randrange(len(out) + 1)
        x = rng.choice(directed)
        move = rng.randrange(4)
        if move == 0:
            out[i:i] = [STATE_A, STATE_A]
        elif move == 1:
            out[i:i] = [x, x]
        elif move == 2:
            out[i:i] = [rng.choice([STATE_E, ("b", 0)])]
        elif i < len(out) and out[i][0] == "b":
            out[i : i + 1] = [x, ("b", x[1] ^ out[i][1])]
    return tuple(out)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_equal_and_germ_equal_match_the_reference_on_long_words(n):
    # unreduced words of up to 11 factors, half of the pairs two
    # spellings of one element, against the reference automaton, which
    # never reduces a word
    group = MultispinalGroup(field_context(n))
    auto = _ref_automaton(group.ctx)
    states = group.nucleus_states
    directed = [s for s in states if s[0] == "b"]
    rng = random.Random(90 + n)
    # with Tr x = 0 and Tr y = 1, w = (b(x) a b(y) a)^2 is (e, (b(alpha x) a)^2):
    # it fixes the first letter and only its restriction along 0 is
    # trivial, and a w a is the mirror; (a b(x))^4 = e, so the normal form
    # b(x) (a b(x))^3 is a, whose restrictions are both trivial.  Random
    # words seldom are any of these
    trace = group.ctx.trace
    x = next(s for s in directed if not trace(s[1]))
    y = next(s for s in directed if trace(s[1]))
    rigid = (x, STATE_A, y, STATE_A) * 2
    swap = (x, STATE_A) * 3 + (x,)
    pairs = [(rigid, ()), ((STATE_A,) + rigid + (STATE_A,), ()), (swap, ()), (swap, (STATE_A,))]
    for _ in range(600):
        u = tuple(rng.choice(states) for _ in range(rng.randrange(0, 12)))
        v = _respell(rng, u, directed, 11) if rng.randrange(2) else tuple(rng.choice(states) for _ in range(rng.randrange(0, 12)))
        pairs.append((u, v))
    for u, v in pairs:
        assert group.equal(u, v) == auto.equal(u, v), (u, v)
        prefix = "".join(rng.choice("01") for _ in range(rng.randrange(0, 5)))
        period = "".join(rng.choice("01") for _ in range(rng.randrange(1, 4)))
        assert germ_equal(group, u, v, Tail(prefix, period)) == ref_germ_equal(auto, u, v, prefix, period), (u, v)


def test_verify_nucleus_degree3(g3):
    report = g3.verify_nucleus()
    assert report["pass"]
    assert report["state_count"] == 9


def test_verify_nucleus_degree4():
    group = MultispinalGroup(field_context(4))
    report = group.verify_nucleus()
    assert report["pass"]
    assert report["state_count"] == 17


def test_identity_pair_contracts_at_depth_zero(g2):
    assert g2.in_nucleus(g2.multiply(g2.identity, g2.identity)) == STATE_E


@pytest.mark.parametrize("n", [2, 3])
def test_in_nucleus_matches_the_reference_search(n):
    # the semantic membership test, on every product of two states and a
    # few longer words, against every state in the reference automaton
    group = MultispinalGroup(field_context(n))
    auto = _ref_automaton(group.ctx)
    states = group.nucleus_states
    rng = random.Random(80 + n)
    words = [(g, h) for g in states for h in states]
    words += [tuple(rng.choice(states) for _ in range(rng.randrange(3, 7))) for _ in range(40)]
    for word in words:
        want = next((s for s in states if auto.equal(word, (s,))), None)
        assert group.in_nucleus(word) == want, word


def test_closure_check_sees_a_restriction_outside_the_nucleus(g2, monkeypatch):
    group = MultispinalGroup(g2.ctx)
    assert group.verify_nucleus()["closure_ok"]
    real = group.restrict_letter_state
    rogue = ("b", 0)  # b(0) is e, never a state of its own
    monkeypatch.setattr(group, "restrict_letter_state", lambda s, ch: rogue if s == STATE_A else real(s, ch))
    report = group.verify_nucleus()
    assert not report["closure_ok"]
    assert not report["pass"]


def test_nucleus_states_are_built_once(g3):
    assert g3.nucleus_states is g3.nucleus_states
    assert len(g3.nucleus_states) == g3.ctx.k + 2


# the closed-form walk ------------------------------------------------------------


@pytest.mark.parametrize("n", [2, 3, 4])
def test_step_matches_reference_automaton(n):
    # every word of up to 3 nucleus states, as built and in normal form
    group = MultispinalGroup(field_context(n))
    auto = _ref_automaton(group.ctx)
    states = group.nucleus_states
    raw = [w for r in range(4) for w in itertools.product(states, repeat=r)]
    words = dict.fromkeys(raw + [group.element(*w) for w in raw])
    for word in words:
        for ch in "01":
            first = group._step(word, ch)
            ref_rest, ref_out = auto.step(word, ch)
            assert first[1] == ref_out, (word, ch)
            assert is_normal(first[0]), (word, ch)
            assert auto.equal(first[0], ref_rest), (word, ch)
            assert group._step(word, ch) == first


@pytest.mark.parametrize("n", [2, 3, 4])
def test_one_factor_step_is_the_closed_form(n):
    # every state, with the unreduced spellings ("e",) and ("b", 0), and
    # the empty word, against the reference automaton
    group = MultispinalGroup(field_context(n))
    auto = _ref_automaton(group.ctx)
    for word in [(), (STATE_E,), (("b", 0),)] + [(s,) for s in group.nucleus_states]:
        for ch in "01":
            rest, out = group._step(word, ch)
            ref_rest, ref_out = auto.step(word, ch)
            assert out == ref_out, (word, ch)
            assert is_normal(rest) and len(rest) <= 1, (word, ch)
            assert auto.equal(rest, ref_rest), (word, ch)


@pytest.mark.parametrize("n", [2, 3])
def test_join_is_the_normal_form_of_the_product(n):
    # every pair of normal words of up to 4 factors
    group = MultispinalGroup(field_context(n))
    letters = [s for s in group.nucleus_states if s != STATE_E]
    normal = [w for r in range(5) for w in itertools.product(letters, repeat=r) if is_normal(w)]
    for u in normal:
        for v in normal:
            assert _join(u, v) == _reduce(u + v), (u, v)


def test_query_stream_on_one_group():
    # 2,000 requests at n = 7 of the kinds a long-lived group serves: an
    # inverse-semigroup axiom bundle, a witness and a germ walk
    group = MultispinalGroup(field_context(7))
    states = group.nucleus_states
    rng = random.Random(700)

    def word(max_len):
        return "".join(rng.choice("01") for _ in range(rng.randrange(0, max_len + 1)))

    def element():
        return group.element(*(rng.choice(states) for _ in range(rng.randrange(0, 3))))

    for _ in range(2000):
        s, t = (SemigroupTriple(word(6), element(), word(6)) for _ in range(2))
        star = sg_star(group, s)
        assert sg_equal(group, sg_star(group, star), s)
        assert sg_equal(group, sg_multiply(group, sg_multiply(group, s, star), s), s)
        e1, e2 = sg_multiply(group, s, star), sg_multiply(group, t, sg_star(group, t))
        assert sg_equal(group, sg_multiply(group, e1, e2), sg_multiply(group, e2, e1))
        x, y = rng.sample(range(group.ctx.size), 2)
        intersect_witness(group, group.iota(x), group.iota(y), rng.randrange(2 * group.ctx.k))
        germ_equal(group, element(), element(), Tail(word(6), word(3) or "1"))


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_closed_form_walk_matches_the_reference_automaton(n):
    # random words of up to 6 factors, with the unreduced spellings
    # ("e",), ("b", 0) and a a, along words of up to 10 letters: the image
    # exactly, and the restriction as an element and in normal form, for
    # _walk and for _step letter by letter
    group = MultispinalGroup(field_context(n))
    auto = _ref_automaton(group.ctx)
    states = group.nucleus_states + (STATE_E, ("b", 0))
    rng = random.Random(250 + n)
    for _ in range(400):
        factors = tuple(rng.choice(states) for _ in range(rng.randrange(0, 7)))
        if rng.random() < 0.25:
            i = rng.randrange(len(factors) + 1)
            factors = factors[:i] + (STATE_A, STATE_A) + factors[i:]
        word = "".join(rng.choice("01") for _ in range(rng.randrange(1, 11)))
        image, rest = group._walk(factors, word)
        assert image == auto.act(factors, word), (factors, word)
        assert is_normal(rest) and auto.equal(rest, auto.restrict(factors, word)), (factors, word)
        u, letters = factors, []
        for ch in word:
            want_rest, want_out = auto.step(u, ch)
            u, out = group._step(u, ch)
            assert out == want_out and is_normal(u) and auto.equal(u, want_rest), (factors, word, ch)
            letters.append(out)
        assert "".join(letters) == image and auto.equal(u, rest), (factors, word)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_fused_walk_is_act_and_restrict(n):
    group = MultispinalGroup(field_context(n))
    auto = _ref_automaton(group.ctx)
    states = group.nucleus_states
    rng = random.Random(40 + n)
    elements = [tuple(rng.choice(states) for _ in range(rng.randrange(0, 4))) for _ in range(25)]
    words = ["".join(w) for r in range(5) for w in itertools.product("01", repeat=r)]
    for g in elements:
        for w in words:
            image, rest = group._walk(g, w)
            assert (image, rest) == (group.act(g, w), group.restrict(g, w))
            assert image == auto.act(g, w)
            assert auto.equal(rest, auto.restrict(g, w)), (g, w)


def test_threads_sharing_one_group_get_its_answers():
    # the group keeps no mutable state: threads racing on one group get
    # the answers of a group of their own
    import sys
    import threading

    ctx = field_context(4)
    states = MultispinalGroup(ctx).nucleus_states
    rng = random.Random(60)
    words = [tuple(rng.choice(states) for _ in range(rng.randrange(0, 5))) for _ in range(150)]
    letters = ["".join(rng.choice("01") for _ in range(6)) for _ in words]

    def answers(group):
        return [(group._walk(u, w), group.equal(u, v))
                for u, v, w in zip(words, words[1:] + words[:1], letters)]

    want = answers(MultispinalGroup(ctx))
    shared = MultispinalGroup(ctx)
    got = [None] * 8
    threads = [threading.Thread(target=lambda i=i: got.__setitem__(i, answers(shared))) for i in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert got == [want] * 8
