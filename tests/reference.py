"""Independent oracles for cross-checking the package.

Deliberately different representations and algorithms from the library:
field elements are coefficient tuples reduced by schoolbook long
division, primitivity is trial division plus a walk over the powers of
x, the joint kernel is confirmed by a loop over every nonzero
element, the design is checked point by point and pair by pair over
explicit subgroup masks, the shift condition R5 by set membership, matrix
ranks come from plain Fraction row reduction or GF(2) row-space
enumeration, R1-R9 are read one matrix entry at a time, the bound
section sums its 2k terms from the expanded W and dense T, the
right-inverse is a dense Fraction matrix multiplied out entry by entry, the
degree-2 automaton is a hardcoded transition table, germ equality is
the plain letter-by-letter walk on unreduced words, runs of 1s in a tail
are read from a copied and stripped slice, restriction periods
come from stepping that automaton, and region witnesses come from a scan
over tails.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction

from multispinal.hyperplanes import DesignError


class RefField:
    """GF(2)[x]/(f) with elements as fixed-length coefficient tuples."""

    def __init__(self, coeffs):
        # coeffs c0..cn with cn = 1
        assert coeffs[-1] == 1
        self.f = tuple(coeffs)
        self.n = len(coeffs) - 1

    def from_int(self, v):
        return tuple((v >> i) & 1 for i in range(self.n))

    def to_int(self, a):
        return sum(bit << i for i, bit in enumerate(a))

    def add(self, a, b):
        return tuple(x ^ y for x, y in zip(a, b))

    def _reduce(self, poly):
        poly = list(poly)
        for d in range(len(poly) - 1, self.n - 1, -1):
            if poly[d]:
                for i, c in enumerate(self.f):
                    poly[d - self.n + i] ^= c
        return tuple(poly[: self.n])

    def mul(self, a, b):
        prod = [0] * (2 * self.n)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    prod[i + j] ^= y
        return self._reduce(prod)

    def alpha(self):
        return tuple(1 if i == 1 else 0 for i in range(self.n))

    def pow(self, a, e):
        r = tuple(1 if i == 0 else 0 for i in range(self.n))
        for _ in range(e):
            r = self.mul(r, a)
        return r

    def trace(self, a):
        acc = a
        t = a
        for _ in range(self.n - 1):
            t = self.mul(t, t)
            acc = self.add(acc, t)
        assert all(c == 0 for c in acc[1:])
        return acc[0]


def _ref_poly_mod(a: int, m: int) -> int:
    """Remainder of a modulo m in GF(2)[x], masks as coefficient vectors."""
    while a.bit_length() >= m.bit_length():
        a ^= m << (a.bit_length() - m.bit_length())
    return a


def ref_is_primitive(mask: int) -> bool:
    """Primitivity the long way: irreducible by trial division by every
    polynomial of degree 1 .. n/2, and then the order of x found by
    stepping x, x^2, x^3, ... until it returns to 1."""
    n = mask.bit_length() - 1
    if any(_ref_poly_mod(mask, d) == 0 for d in range(2, 1 << (n // 2 + 1))):
        return False
    x, order = 2, 1
    while x != 1:
        x = _ref_poly_mod(x << 1, mask)
        order += 1
    return order == (1 << n) - 1


REF_F4 = RefField((1, 1, 1))        # x^2 + x + 1
REF_F8 = RefField((1, 1, 0, 1))     # x^3 + x + 1
REF_F16 = RefField((1, 1, 0, 0, 1))  # x^4 + x + 1


def ref_joint_kernel_is_trivial(ctx) -> bool:
    """Exhaustively confirm that only 0 lies in every ker(Tr o phi^j): each
    nonzero x must have Tr(alpha^j x) = 1 for some j, read from the
    context's trace of powers by discrete log."""
    tp = ctx.trace_of_power
    for x in ctx.nonzero_elements():
        lx = ctx.discrete_log[x]
        if not any(tp[(lx + j) % ctx.k] for j in range(ctx.k)):
            return False
    return True


def ref_trace_zero_mask(ctx) -> int:
    """Bitmask of the exponents t with Tr(alpha^t) = 0, one bit at a time."""
    return sum(1 << t for t, v in enumerate(ctx.trace_of_power) if v == 0)


def ref_hyperplane_membership(field: RefField, x_int: int, j: int) -> bool:
    """x in ker(Tr o phi^j), computed entirely with the reference field."""
    x = field.from_int(x_int)
    a = field.alpha()
    for _ in range(j):
        x = field.mul(x, a)
    return field.trace(x) == 0


def ref_pair_count(ctx, l1: int, l2: int) -> int:
    """Number of j with both alpha^l1 and alpha^l2 in H_j, one j at a time.

    Always 2^(n-2) - 1 for distinct exponents; callers assert that.
    """
    if l1 == l2:
        raise ValueError("pair_count requires distinct exponents")
    for l in (l1, l2):
        if not 0 <= l <= ctx.k - 1:
            raise ValueError(f"exponent {l} outside 0..{ctx.k - 1}")
    tp = ctx.trace_of_power
    k = ctx.k
    return sum(1 for j in range(k) if tp[(l1 + j) % k] == 0 and tp[(l2 + j) % k] == 0)


def ref_shift_counts(positions, k: int) -> list[int]:
    """|B ∩ (B - d)| for d = 1 .. k - 1, by set membership."""
    pos = set(positions)
    return [sum(1 for p in pos if (p + d) % k in pos) for d in range(1, k)]


def ref_block_satisfies_r5(positions, k: int, lam: int) -> bool:
    """Check |B ∩ (B - d)| = lam for every shift d != 0 mod k, position by
    position; the size of B is the caller's to check."""
    return all(c == lam for c in ref_shift_counts(positions, k))


def ref_profiles(planes, n: int) -> list[int]:
    """Bitmask over j of the planes containing x, for every field element x,
    read one membership bit at a time."""
    return [
        sum(1 << j for j, members in enumerate(planes) if (members >> x) & 1)
        for x in range(1 << n)
    ]


def ref_verify_design(planes, n: int) -> tuple[int, int, int]:
    """The design parameters of the subgroup masks planes of GF(2^n),
    checked for every point and every pair of nonzero points.

    Raises DesignError naming the first bad block, point or pair.
    """
    size = 1 << n
    k = size - 1
    q = size // 2
    lam = q // 2 - 1
    if len(planes) != k:
        raise DesignError(f"expected {k} blocks, got {len(planes)}")
    for j, members in enumerate(planes):
        if members.bit_count() != q or not members & 1:
            raise DesignError(f"H_{j} is not a subgroup-sized set holding 0", j)
    if len(set(planes)) != k:
        raise DesignError("hyperplanes are not pairwise distinct")
    profiles = ref_profiles(planes, n)
    for x in range(1, size):
        c = profiles[x].bit_count()
        if c != q - 1:
            raise DesignError(f"point {x} lies in {c} blocks, expected {q - 1}", x)
    for x in range(1, size):
        for y in range(x + 1, size):
            c = (profiles[x] & profiles[y]).bit_count()
            if c != lam:
                raise DesignError(f"pair ({x}, {y}) lies in {c} blocks, expected {lam}", (x, y))
    return (k, q - 1, lam)


def ref_rank_fractions(rows) -> int:
    """Plain Fraction Gaussian elimination (no fraction-free tricks)."""
    mat = [[Fraction(v) for v in row] for row in rows]
    if not mat:
        return 0
    nrows, ncols = len(mat), len(mat[0])
    rank = 0
    for col in range(ncols):
        piv = next((i for i in range(rank, nrows) if mat[i][col] != 0), None)
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        inv = 1 / mat[rank][col]
        mat[rank] = [v * inv for v in mat[rank]]
        for i in range(nrows):
            if i != rank and mat[i][col] != 0:
                f = mat[i][col]
                mat[i] = [v - f * w for v, w in zip(mat[i], mat[rank])]
        rank += 1
        if rank == nrows:
            break
    return rank


def transpose_rational(rows) -> tuple[tuple[Fraction, ...], ...]:
    return tuple(tuple(Fraction(v) for v in col) for col in zip(*rows))


def identity_rational(n: int) -> tuple[tuple[Fraction, ...], ...]:
    return tuple(tuple(Fraction(1 if i == j else 0) for j in range(n)) for i in range(n))


def multiply_rational(A, B) -> tuple[tuple[Fraction, ...], ...]:
    """Plain exact product of two row lists; quadratic-cubic, fine for small shapes."""
    if len(A[0]) != len(B):
        raise ValueError(f"shape mismatch {len(A)}x{len(A[0])} x {len(B)}x{len(B[0])}")
    cols = list(zip(*B))
    return tuple(
        tuple(sum((Fraction(x) * y for x, y in zip(row, col)), start=Fraction(0)) for col in cols)
        for row in A
    )


def t_first_column_abs_sum(rows) -> Fraction:
    """Sum of |T[j][0]| over all rows; equals (2q-1)/q for a valid T."""
    return sum((abs(row[0]) for row in rows), start=Fraction(0))


def ref_bound_section(W, T, matrix) -> dict:
    """The bound section summed term by term: |T[K][0]| over the 2k rows of
    the dense T, and |kappa_K| of c* = (1, -1/k, ..., -1/k) over every
    column of the expanded row 0 of W, with the q ones of each column."""
    q, k = W.q, W.k
    optimum = Fraction(q, 2 * q - 1)
    t_sum = t_first_column_abs_sum(T.rows)
    lower = matrix["right_inverse_identity"] and t_sum == 1 / optimum
    r_conditions = {name: matrix["R_conditions"][name]["pass"] for name in ("R1", "R9")}
    other = Fraction(-1, k)
    max_abs_kappa = max(abs(w + other * (q - w)) for w in W.to_lists()[0])
    attained = all(r_conditions.values()) and max_abs_kappa == optimum
    return {
        "optimum": optimum,
        "threshold_2n": Fraction(1, 2 * q),
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
        "pass": lower and attained and optimum > Fraction(1, 2 * q),
    }


def ref_rank_f2_rowspace(rows) -> int:
    """GF(2) rank via row-space enumeration; only for small matrices."""
    masks = []
    for row in rows:
        m = 0
        for j, v in enumerate(row):
            if v % 2:
                m |= 1 << j
        masks.append(m)
    span = {0}
    for m in masks:
        span |= {s ^ m for s in span}
    size = len(span)
    rank = size.bit_length() - 1
    assert 1 << rank == size
    return rank


def ref_right_inverse(W) -> tuple[tuple[Fraction, ...], ...]:
    """Dense Fraction rows of the two-valued right-inverse of a 0/1 matrix
    W: entry (j, i) is 1/k where W[i][j] = 1, else -(q-1)/(kq)."""
    q, k = W.q, W.k
    a, b = Fraction(1, k), Fraction(-(q - 1), k * q)
    rows = W.to_lists()
    return tuple(tuple(a if row[j] else b for row in rows) for j in range(len(rows[0])))


def ref_is_right_inverse(W, T_rows) -> bool:
    """W T == I by the dense product, every entry summed in full over the
    least common denominator of all of T's entries."""
    rows = W.to_lists()
    if len(T_rows) != len(rows[0]) or len(T_rows[0]) != len(rows):
        raise ValueError("shape mismatch")
    d = math.lcm(*(x.denominator for row in T_rows for x in row))
    cols = [[x.numerator * (d // x.denominator) for x in col] for col in zip(*T_rows)]
    return all(
        sum(w * t for w, t in zip(row, col)) == (d if i == l else 0)
        for i, row in enumerate(rows)
        for l, col in enumerate(cols)
    )


def _ref_condition(passed, counterexample=None, note=""):
    entry = {"pass": passed}
    if counterexample is not None:
        entry["counterexample"] = list(counterexample)
    if note:
        entry["note"] = note
    return entry


def ref_check_R_conditions(W) -> dict:
    """Itemized pass/fail for R1-R9 with first-counterexample coordinates,
    reading the expanded rows of W one entry at a time, in the
    certificate's shape: name -> {"pass", "counterexample"?, "note"?}.

    Coordinates in counterexamples are 0-based (row, column).
    """
    q = W.q
    k = W.k
    grid = W.to_lists()
    rep = {}

    def entry(i, j):
        return grid[i][j]

    def first_fail(name, gen, note=""):
        for coords in gen:
            rep[name] = _ref_condition(False, coords, note)
            return
        rep[name] = _ref_condition(True, None, note)

    first_fail(
        "R1",
        (
            (0, j)
            for j in range(2 * k)
            if entry(0, j) != (1 if j < k else 0)
        ),
    )
    row2 = sum(entry(1, j) for j in range(k))
    rep["R2"] = _ref_condition(
        row2 == q - 1, None if row2 == q - 1 else (1, row2), f"row 2 supports {row2} ones"
    )
    first_fail(
        "R3",
        (
            (i + 1, j)
            for i in range(1, 2 * q - 1)
            for j in range(k)
            if entry(i + 1, j) != entry(i, (j + 1) % k)
        ),
    )
    first_fail(
        "R4",
        (
            (i, j + k)
            for i in range(1, 2 * q)
            for j in range(k)
            if entry(i, j + k) != 1 - entry(i, j)
        ),
    )
    positions = [j for j in range(k) if entry(1, j)]
    lam = q // 2 - 1
    r5_ok = len(positions) == q - 1 and ref_block_satisfies_r5(positions, k, lam)
    rep["R5"] = _ref_condition(
        r5_ok, None, "all nonzero shifts checked (strong reading)"
    )
    first_fail(
        "R6",
        (
            (i,)
            for i in range(2 * q)
            if sum(entry(i, j) for j in range(k)) != (k if i == 0 else q - 1)
        ),
    )
    first_fail(
        "R7",
        (
            (i,)
            for i in range(2 * q)
            if sum(entry(i, j) for j in range(k, 2 * k)) != (0 if i == 0 else q)
        ),
    )
    first_fail(
        "R8",
        ((i,) for i in range(2 * q) if sum(grid[i]) != k),
    )
    first_fail(
        "R9",
        (
            (j,)
            for j in range(2 * k)
            if sum(entry(i, j) for i in range(2 * q)) != q
        ),
    )
    return rep


# Classical degree-2 automaton: output permutation and restrictions per state.
GRIG_SWAPS = {"e": False, "a": True, "b": False, "c": False, "d": False}
GRIG_REST = {
    "e": ("e", "e"),
    "a": ("e", "e"),
    "b": ("a", "c"),
    "c": ("a", "d"),
    "d": ("e", "b"),
}


def grig_act(state: str, word: str) -> str:
    """Action of a single classical generator on a word, by the table."""
    out = []
    s = state
    for ch in word:
        if GRIG_SWAPS[s]:
            ch = "1" if ch == "0" else "0"
            out.append(ch)
            s = "e"
        else:
            out.append(ch)
            s = GRIG_REST[s][int(ch)]
    return "".join(out)


class RefAutomaton:
    """The nucleus automaton of a reference field, on unreduced words.

    Words are tuples of states ("e",), ("a",) and ("b", x) with x an int
    in the field's bit encoding; restriction under 1 multiplies by alpha
    and restriction under 0 takes the trace, both through RefField.  A
    restriction only drops identity factors: no b(x) b(y) merging and no
    a a cancellation.
    """

    def __init__(self, field: RefField):
        a = field.alpha()
        size = 1 << field.n
        self.shift = {x: field.to_int(field.mul(field.from_int(x), a)) for x in range(size)}
        self.trace = {x: field.trace(field.from_int(x)) for x in range(size)}

    def step(self, word, ch):
        """(restriction along ch, output letter); the rightmost factor
        reads the letter first."""
        out = []
        for s in reversed(word):
            if s[0] == "a":
                ch = "1" if ch == "0" else "0"
            elif s[0] == "b" and s[1]:
                if ch == "1":
                    out.append(("b", self.shift[s[1]]))
                elif self.trace[s[1]]:
                    out.append(("a",))
        out.reverse()
        return tuple(out), ch

    def act(self, word, letters: str) -> str:
        out = []
        for ch in letters:
            word, c = self.step(word, ch)
            out.append(c)
        return "".join(out)

    def restrict(self, word, letters: str):
        for ch in letters:
            word = self.step(word, ch)[0]
        return word

    def equal(self, u, v) -> bool:
        """Bisimulation over pairs of unreduced words, without memo."""
        seen = {(u, v)}
        todo = [(u, v)]
        while todo:
            u, v = todo.pop()
            for ch in "01":
                u2, cu = self.step(u, ch)
                v2, cv = self.step(v, ch)
                if cu != cv:
                    return False
                if (u2, v2) not in seen:
                    seen.add((u2, v2))
                    todo.append((u2, v2))
        return True


def ref_verify_nucleus(field: RefField, states, depth: int) -> dict:
    """The contraction fragment of MultispinalGroup.verify_nucleus by the
    full search over the (k + 2)^2 pairs, on the unreduced words of the
    reference automaton.  For each pair (g, h) of states, finds the least
    d <= depth such that every restriction of the word (g, h) at a word
    of length d equals a state, each equality by bisimulation; a pair
    with none is a failure.  The likely state is tried first (a for a
    word that swaps, else b of the XOR of the directed parts), then
    every state."""
    auto = _ref_automaton(field)
    names = {("e",): "e", ("a",): "a"}
    x = field.from_int(1)
    for j in range(1, 1 << field.n):
        x = field.mul(x, field.alpha())
        names[("b", field.to_int(x))] = f"b{j}"
    singles = {()} | {(s,) for s in states}
    closure_ok = all(auto.step((s,), ch)[0] in singles for s in states for ch in "01")

    def is_state(word):
        if auto.step(word, "0")[1] != "0":
            guess = ("a",)
        else:
            acc = 0
            for s in word:
                if s[0] == "b":
                    acc ^= s[1]
            guess = ("b", acc) if acc else ("e",)
        return any(auto.equal(word, (s,)) for s in (guess, *states))

    def contraction_depth(word):
        frontier = {word}
        for d in range(depth + 1):
            frontier = {w for w in frontier if not is_state(w)}
            if not frontier:
                return d
            frontier = {auto.step(w, ch)[0] for w in frontier for ch in "01"}
        return None

    depths, failures = [], []
    for g in states:
        for h in states:
            d = contraction_depth((g, h))
            if d is None:
                failures.append([names[g], names[h]])
            else:
                depths.append(d)
    return {
        "n": field.n,
        "state_count": len(states),
        "closure_ok": closure_ok,
        "pairs_checked": len(states) ** 2,
        "max_contraction_depth": max(depths, default=0),
        "failures": failures,
        "pass": closure_ok and not failures,
    }


def ref_sg_multiply(auto: RefAutomaton, s, t):
    """Product of triples (eta, word, mu) in the inverse semigroup, on the
    unreduced words of the reference automaton; None is the zero.  Walks
    eps twice, once for the image and once for the restriction, and
    inverts a word by reversing it (every state is an involution)."""
    if s is None or t is None:
        return None
    eta, g, mu = s
    gamma, h, nu = t
    if gamma.startswith(mu):
        eps = gamma[len(mu):]
        return (eta + auto.act(g, eps), auto.restrict(g, eps) + h, nu)
    if mu.startswith(gamma):
        eps = mu[len(gamma):]
        hinv = h[::-1]
        return (eta, g + auto.restrict(hinv, eps)[::-1], nu + auto.act(hinv, eps))
    return None


def ref_sg_multiply_full_reduction(group, s, t):
    """sg_multiply with the whole group part of the product brought to
    normal form: the restriction along eps is taken by the library's walk,
    then the word rest h (or g rest) is reduced from scratch by
    group.element, not joined at the seam.  Returns the library's
    SemigroupTriple or ZERO, to be compared under sg_equal."""
    from multispinal.groupoid import ZERO, SemigroupTriple

    if s is ZERO or t is ZERO:
        return ZERO
    if t.eta.startswith(s.mu):
        image, rest = group._walk(s.g.factors, t.eta[len(s.mu):])
        return SemigroupTriple(s.eta + image, group.element(*rest, *t.g.factors), t.mu)
    if s.mu.startswith(t.eta):
        image, rest = group._walk(t.g.factors[::-1], s.mu[len(t.eta):])
        return SemigroupTriple(s.eta, group.element(*s.g.factors, *rest[::-1]), t.mu + image)
    return ZERO


def ref_restriction_period(auto: RefAutomaton, x: int) -> int:
    """Least p >= 1 with b(x) restricted along 1^p equal to b(x), by
    single restriction steps of the reference automaton (the identity,
    x = 0, has period 1)."""
    start = (("b", x),) if x else ()
    word, p = auto.step(start, "1")[0], 1
    while word != start:
        word, p = auto.step(word, "1")[0], p + 1
    return p


def ref_germ_equal(auto: RefAutomaton, u, v, prefix: str, period: str) -> bool:
    """Whether [(empty, u, empty), prefix period period ...] and
    [(empty, v, empty), same tail] are one germ: one letter per step, no
    jump over runs of 1s, stopped by a revisited (u, v, position) state."""

    def fold(i):
        return i if i < len(prefix) else len(prefix) + (i - len(prefix)) % len(period)

    pos = 0
    seen = set()
    while True:
        if auto.equal(u, v):
            return True
        i = fold(pos)
        if (u, v, i) in seen:
            return False
        seen.add((u, v, i))
        ch = prefix[i] if i < len(prefix) else period[i - len(prefix)]
        u, cu = auto.step(u, ch)
        v, cv = auto.step(v, ch)
        if cu != cv:
            return False
        pos += 1


def ref_ones_from(prefix: str, period: str, pos: int) -> int | None:
    """Length of the run of 1s at position pos of prefix . period period
    ...; None if it never ends.  Copies the rest of the prefix and one
    whole period, or one whole period rotated to start at pos, and strips
    the leading 1s."""
    i = pos - len(prefix)
    if i >= 0:
        i %= len(period)
    ahead = prefix[i:] + period if i < 0 else period[i:] + period[:i]
    run = len(ahead) - len(ahead.lstrip("1"))
    return None if run == len(ahead) else run


@functools.cache
def _ref_meets(field: RefField, x0: int, x: int, s: int) -> bool:
    """ref_germ_equal of b(x0) and b(x) along 1^s 0 1^infinity, cached:
    the region scans of several m try the same tails."""
    return ref_germ_equal(_ref_automaton(field), (("b", x0),), (("b", x),), "1" * s + "0", "1")


@functools.cache
def _ref_automaton(field: RefField) -> RefAutomaton:
    return RefAutomaton(field)


def ref_region_witness(field: RefField, m: int, kind: str, j: int, depth: int):
    """(witness, membership row) of the region K = H_j or its complement,
    by scanning tails 1^s 0 1^infinity for s = m, m+1, ... below depth and
    keeping the first whose row of reference germ walks from the first
    member of K is exactly the indicator of K; None if no tail does.
    Columns run over [0, alpha, ..., alpha^(2^n - 1) = 1]."""
    order = [0]
    x = field.from_int(1)
    for _ in range((1 << field.n) - 1):
        x = field.mul(x, field.alpha())
        order.append(field.to_int(x))
    target = tuple(int(ref_hyperplane_membership(field, x, j) == (kind == "H")) for x in order)
    x0 = order[target.index(1)]
    for s in range(m, depth):
        if all(_ref_meets(field, x0, x, s) == want for x, want in zip(order, target)):
            return "1" * s + "0", target
    return None
