"""Inverse semigroup of tree symmetries, germ points, and region searches.

The semigroup consists of triples (eta, g, mu) with eta, mu finite binary
words and g a group element, plus an absorbing Zero.  Points of interest
in the groupoid of germs are classes [(empty, g, empty), tail] with an
eventually periodic tail; the basic neighborhoods are

    U_m(z_g) = the germs of (empty, g, empty) over the cylinder of 1^m.

Two such points with the same tail coincide exactly when the two group
elements act the same on some finite prefix of the tail and restrict to
equal elements there; this is decidable because restriction along
1-blocks cycles with period 2^n - 1 and collapses into {e, a} after a 0.

For each subgroup image K = iota(H_j) (or complement image) the
intersection of the U_m over K minus the union over the complement is
nonempty, witnessed by a tail 1^s 0 1^infinity with s = j mod (2^n - 1);
stacking the membership indicator rows of all 2k such regions over the
2q nucleus columns reproduces the transpose of the inclusion matrix.
By the germ law [g, xi] = [h, xi] iff [h^-1 g, xi] = [e, xi], every
entry of that stack is one question about b(w) against e along 0 1^inf,
so 2q germ walks, one per field element w, certify all 2k rows at every
degree (check_germ_rows).
That full-rank transpose forces any vanishing combination of region
indicators to have zero coefficients, and bounds from the explicit
right-inverse give |max region value| strictly above |c_e| / 2^n (and at
least |c_e| * q / (2q - 1)).
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from ._record import Record, slot_setters
from .exact_linalg import InclusionMatrix
from .gf2n import FieldContext
from .selfsim import STATE_A, MultispinalGroup, _join, _reduce


class _Zero:
    """Absorbing zero of the inverse semigroup."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "Zero"


ZERO = _Zero()


class SemigroupTriple(Record):
    __slots__ = ("eta", "g", "mu")

    def __init__(self, eta: str, g: tuple, mu: str) -> None:
        _set_eta(self, eta)
        _set_g(self, g)
        _set_mu(self, mu)


_set_eta, _set_g, _set_mu = slot_setters(SemigroupTriple)


class Tail(Record):
    """Eventually periodic infinite word prefix . period period ..."""

    __slots__ = ("prefix", "period")

    def __init__(self, prefix: str, period: str) -> None:
        # the bad letters are what is left after deleting each 0 and 1 (bytes: fast on long prefixes)
        if not period or (prefix + period).encode().translate(None, b"01"):
            raise ValueError(f"a tail is 0/1 words with a nonempty period, got {prefix!r}, {period!r}")
        _set_prefix(self, prefix)
        _set_period(self, period)

    def letter(self, i: int) -> str:
        if i < len(self.prefix):
            return self.prefix[i]
        return self.period[(i - len(self.prefix)) % len(self.period)]

    def fold(self, i: int) -> int:
        """Canonical position index: i within the prefix, else the
        prefix length plus i's offset into the period."""
        if i < len(self.prefix):
            return i
        return len(self.prefix) + (i - len(self.prefix)) % len(self.period)

    def starts_with_ones(self, m: int) -> bool:
        return all(self.letter(i) == "1" for i in range(m))

    def ones_from(self, pos: int) -> int | None:
        """Length of the run of 1s starting at pos; None if it never ends."""
        prefix, period = self.prefix, self.period
        i, run = self.fold(pos), 0
        if i < len(prefix):
            if (z := prefix.find("0", i)) >= 0:
                return z - i
            i, run = 0, len(prefix) - i
        else:
            i -= len(prefix)
        # from offset i of the period to its end, then wrapping to its start
        if (z := period.find("0", i)) >= 0:
            return run + z - i
        if (z := period.find("0", 0, i)) >= 0:
            return run + len(period) - i + z
        return None


_set_prefix, _set_period = slot_setters(Tail)
ONES = Tail("", "1")


class GermPoint(Record):
    __slots__ = ("triple", "tail")

    def __init__(self, triple: SemigroupTriple, tail: Tail) -> None:
        if any(tail.letter(i) != ch for i, ch in enumerate(triple.mu)):
            raise ValueError("mu must be a prefix of the tail")
        _set_triple(self, triple)
        _set_tail(self, tail)


_set_triple, _set_tail = slot_setters(GermPoint)


class RegionPattern(Record):
    """One disjointified region: its defining set, witness and indicator row.

    kind is "H" or "Hc"; the witness is a finite word after which the tail
    continues 1^infinity; membership_row runs over the canonical 2q
    nucleus columns, and members are the field elements of K in canonical
    order."""

    __slots__ = ("kind", "j", "witness", "membership_row", "members")

    def __init__(
        self, kind: str, j: int, witness: str, membership_row: tuple[int, ...], members: tuple[int, ...]
    ) -> None:
        _set_kind(self, kind)
        _set_j(self, j)
        _set_witness(self, witness)
        _set_membership_row(self, membership_row)
        _set_members(self, members)

    @property
    def label(self) -> str:
        return f"H{self.j}" + ("c" if self.kind == "Hc" else "")


_set_kind, _set_j, _set_witness, _set_membership_row, _set_members = slot_setters(RegionPattern)


class MembershipMismatch(AssertionError):
    """Germ-derived membership matrix disagrees with the inclusion transpose."""

    def __init__(self, row_label: str, col_label: str):
        super().__init__(f"membership mismatch at row {row_label}, column {col_label}")
        self.row_label = row_label
        self.col_label = col_label


class RegionSearchError(RuntimeError):
    """intersect_witness found no witness, or its witness failed the germ
    check: safety checks that no correct field context trips."""


# -- inverse semigroup --------------------------------------------------


def sg_multiply(group: MultispinalGroup, s, t):
    """Product in the inverse semigroup; Zero absorbs."""
    if s is ZERO or t is ZERO:
        return ZERO
    eta, g, mu = s.eta, s.g, s.mu
    gamma, h, nu = t.eta, t.g, t.mu
    # each branch walks eps once for both the image and the restriction;
    # the inverse of a word is the reversed word
    if gamma.startswith(mu):
        image, rest = group._walk(g, gamma[len(mu):])
        return SemigroupTriple(eta + image, _join(rest, h), nu)
    if mu.startswith(gamma):
        image, rest = group._walk(h[::-1], mu[len(gamma):])
        return SemigroupTriple(eta, _join(g, rest[::-1]), nu + image)
    return ZERO


def sg_star(group: MultispinalGroup, s):
    """Involution (eta, g, mu)* = (mu, g^{-1}, eta)."""
    if s is ZERO:
        return ZERO
    return SemigroupTriple(s.mu, group.inverse(s.g), s.eta)


def sg_equal(group: MultispinalGroup, s, t) -> bool:
    """Semantic equality: words match and group parts are the same word
    or equal elements."""
    if s is t:
        return True
    if s is ZERO or t is ZERO:
        return False
    g, h = s.g, t.g
    return s.eta == t.eta and s.mu == t.mu and (g == h or group.equal(g, h))


def is_idempotent(group: MultispinalGroup, s) -> bool:
    if s is ZERO:
        return True
    return sg_equal(group, sg_multiply(group, s, s), s)


# -- germs ---------------------------------------------------------------


def germ_equal(group: MultispinalGroup, g1: tuple, g2: tuple, tail: Tail) -> bool:
    """Whether [(empty, g1, empty), tail] and [(empty, g2, empty), tail]
    are the same germ.

    Walks the tail keeping the pair of restrictions while either has
    more than one factor, and fails at the first letter the two act on
    differently.  The walk terminates by contraction: each step cuts a
    word of L >= 2 factors to at most ceil(L / 2) (selfsim module
    docstring), so no pair recurs.
    Stopping only at single states loses no early success, because equal
    elements act alike and restrict to equal elements, so a pair that
    meets reaches equal single states.

    Once both restrictions are single states the walk finishes in one
    move.  Equal states meet.  If exactly one is a, they never meet: a
    swaps the letter at pos and the other state fixes it.  Otherwise both
    are e or directed, which fix every letter, and b(x) restricts to
    b(alpha^r x) along 1^r and then to a^Tr(alpha^r x) along 1^r 0.
    Distinct states stay distinct along the run, since b(x) b(y)^-1 =
    b(x + y) != e for x != y: that is the joint-kernel identity (only 0
    lies in every ker(Tr o alpha^j)), which holds for every FieldContext
    because the trace is onto.  So a run of 1s from pos that never ends
    means the germs never meet, and a run of length r means they meet
    iff Tr(alpha^r x) = Tr(alpha^r y), with 0 for e.
    """
    step = group._step
    u, v = g1, g2
    pos = 0
    while len(u) > 1 or len(v) > 1:
        ch = tail.letter(pos)
        u, cu = step(u, ch)
        v, cv = step(v, ch)
        if cu != cv:
            return False
        pos += 1
    u, v = _reduce(u), _reduce(v)
    if u == v:
        return True
    if STATE_A in u + v:
        return False
    run = tail.ones_from(pos)
    if run is None:
        return False
    ctx = group.ctx
    log, tp, k = ctx.discrete_log, ctx.trace_of_power, ctx.k
    tu = tp[(log[u[0][1]] + run) % k] if u else 0
    tv = tp[(log[v[0][1]] + run) % k] if v else 0
    return tu == tv


def point_in_bisection(group: MultispinalGroup, point: GermPoint, h: tuple, m: int) -> bool:
    """Whether a germ point lies in U_m(z_h).

    Supported for points carried by triples (empty, g, empty) - every
    witness in this package has that shape.
    """
    t = point.triple
    if t.eta or t.mu:
        raise ValueError("only (empty, g, empty) germ points are supported")
    if not point.tail.starts_with_ones(m):
        return False
    return germ_equal(group, t.g, h, point.tail)


def intersect_witness(group: MultispinalGroup, g1: tuple, g2: tuple, m: int) -> str:
    """A word 1^(m+m') 0 witnessing that U_m(z_g1) and U_m(z_g2) intersect.

    m' is the least shift making m + m' land on an index j with the
    difference of the two field elements in H_j; the result is validated
    by an actual germ-equality run before being returned.
    """
    ctx = group.ctx
    if m < 0:
        raise ValueError(f"neighbourhood index m must be >= 0, got {m}")
    x1 = _directed_value(g1)
    x2 = _directed_value(g2)
    if x1 == x2:
        raise ValueError("witness requires distinct elements")
    y = x1 ^ x2
    tp = ctx.trace_of_power
    ly = ctx.discrete_log[y]
    for mp in range(ctx.k):
        j = (m + mp) % ctx.k
        if tp[(ly + j) % ctx.k] == 0:  # y lies in H_j
            word = "1" * (m + mp) + "0"
            if not germ_equal(group, g1, g2, Tail(word, "1")):
                raise RegionSearchError(
                    f"congruence witness {word!r} failed germ validation"
                )
            return word
    raise RegionSearchError(f"no witness for elements {x1}, {x2} at m={m}")


def _directed_value(g: tuple) -> int:
    """Field element of a purely directed group element (no letter swaps)."""
    acc = 0
    for s in g:
        if s[0] != "b":
            raise ValueError(f"element contains the swap generator: {g}")
        acc ^= s[1]
    return acc


def _witness_length(ctx: FieldContext, m: int, j: int) -> int:
    """s of the witness 1^s 0 of H_j and of its complement: the least
    s >= m with s = j mod k."""
    if m < 0:
        raise ValueError(f"neighbourhood index m must be >= 0, got {m}")
    return m + (j - m) % ctx.k


def region_witnesses(ctx: FieldContext, m: int) -> dict[str, str]:
    """The witness of each of the 2k regions at m, keyed H0 .. H(k-1),
    H0c .. H(k-1)c and written "1^s 0" for the tail 1^s 0 1^infinity,
    s = m + (j - m) mod k.  The rows of these tails are certified by
    check_germ_rows, which holds at every m."""
    subgroups = {f"H{j}": f"1^{_witness_length(ctx, m, j)} 0" for j in range(ctx.k)}
    return subgroups | {f"{label}c": w for label, w in subgroups.items()}  # same tails as H_j


def meet_set(group: MultispinalGroup) -> frozenset[int]:
    """G = {w : [b(w), 0 1^infinity] = [e, 0 1^infinity]}, one germ walk
    per field element w."""
    tail = Tail("0", "1")
    e = group.identity
    return frozenset(w for w in group.ctx.elements() if germ_equal(group, group.iota(w), e, tail))


def germ_rows(ctx: FieldContext, meet: frozenset[int]) -> tuple[int, int]:
    """The germ membership of every region over every element, in the
    form InclusionMatrix holds W: the subgroup halves (k bits each) of
    the rows of 0 and of alpha, from which circulant_rows writes the row
    of every element (bit j for K = H_j, bit j + k for its complement).

    Region K with witness 1^s 0 holds x iff iota(x) meets iota(x0) along
    1^s 0 1^infinity, x0 the first member of K.  By the germ law that is
    [iota(x0)^-1 iota(x), tail] = [e, tail], and iota(x0)^-1 iota(x) =
    b(x0 + x) by the normal form b(x) b(y) = b(x + y).  b(z) fixes 1^s
    and restricts there to b(alpha^s z), and s = j mod k, so the entry is
    [alpha^j (x0 + x) in G].  For H_j, x0 = 0: the row of alpha^i is the
    exponent mask of G rotated by i, and the row of 0 is [0 in G] on
    every subgroup.  Once those match W, G is the hyperplane H_0, so for
    a complement (x0 outside H_j) the entry is 1 - [alpha^j x in G]: the
    complement columns mirror the subgroup columns.  So the rows of 0 and
    alpha fix the rest, as they fix W.
    """
    power = ctx.power_table
    # W's canonical order 0, alpha^1, ..., alpha^k = 1; bit j of the row
    # of alpha is [alpha^(j + 1) in G].  One base-2 parse of the digits,
    # highest bit (alpha^k = 1) first: linear in k, where a sum of k
    # single-bit ints would be quadratic
    digits = bytes([x in meet for x in power[:1] + power[:0:-1]])
    row1 = int(digits.translate(bytes.maketrans(b"\0\1", b"01")), 2)
    return ((1 << ctx.k) - 1 if 0 in meet else 0, row1)


def check_germ_rows(group: MultispinalGroup, W: InclusionMatrix) -> None:
    """Certify that the germ rows of all 2k regions stack into W's
    transpose, from the 2q walks of meet_set; the rows do not depend on
    m.  Both are circulants of their rows 0 and 1, so this compares the
    two pairs, and raises MembershipMismatch naming the region of the
    lowest differing bit of row 0, else of row 1, and that row's element:
    the first differing entry of the expanded rows."""
    q = group.ctx.q
    if W.q != q:
        raise ValueError(f"W has q={W.q}; the field has q={q}")
    for i, (got, want) in enumerate(zip(germ_rows(group.ctx, meet_set(group)), (W.row0, W.row1))):
        if diff := got ^ want:
            raise MembershipMismatch(W.col_labels[(diff & -diff).bit_length() - 1], W.row_labels[i])


def region_pattern(group: MultispinalGroup, W: InclusionMatrix, m: int, kind: str, j: int) -> RegionPattern:
    """The germ point separating one admissible K from the rest, by one
    germ walk per nucleus column: the one-region query, and the oracle
    that check_germ_rows is tested against.

    K is read from the inclusion matrix W of the same field: column j
    (H_j) or column j + k (its complement), members in canonical element
    order.  germ_equal(iota(x), iota(y), 1^s 0 1^infinity) holds exactly
    when Tr(alpha^s (x + y)) = 0, that is when x + y lies in H_(s mod k).
    So the tail with s the least integer >= m congruent to j mod 2^n - 1
    separates K = H_j (walked from iota(0)) and its complement (walked
    from iota of the first non-member, a coset representative); the k
    subgroups are distinct, so no other s below it does.  The formula
    only chooses the tail: the membership row is one genuine germ walk
    per nucleus column and must equal the column of W, otherwise
    MembershipMismatch names the region and the first differing row of
    W.  Sets other than the subgroup images and their complements are
    not admissible and are rejected.
    """
    ctx = group.ctx
    k = ctx.k
    if kind not in ("H", "Hc"):
        raise ValueError(f"kind must be 'H' or 'Hc', got {kind!r}")
    if not 0 <= j < k:
        raise ValueError(f"subgroup index {j} outside 0..{k - 1}")
    if W.q != ctx.q:
        raise ValueError(f"W has q={W.q}, the field has q={ctx.q}")
    label = f"H{j}" + ("c" if kind == "Hc" else "")
    s = _witness_length(ctx, m, j)
    order = ctx.canonical_elements()
    col = j if kind == "H" else j + k
    target = tuple(W.entry(i, col) for i in range(len(order)))
    members = tuple(x for x, t in zip(order, target) if t)

    g0 = group.iota(members[0])
    tail = Tail("1" * s + "0", "1")
    row = tuple(1 if germ_equal(group, g0, group.iota(x), tail) else 0 for x in order)
    if row != target:
        i = next(i for i, (got, want) in enumerate(zip(row, target)) if got != want)
        raise MembershipMismatch(label, W.row_labels[i])
    return RegionPattern(kind=kind, j=j, witness="1" * s + "0", membership_row=row, members=members)


def membership_matrix(group: MultispinalGroup, W: InclusionMatrix, m: int) -> tuple[RegionPattern, ...]:
    """The region_pattern of all 2k regions, in the column order of W;
    region_pattern checks each membership row against its column of W,
    so the rows stack into W's transpose.  Raises MembershipMismatch
    naming the offending (row, column) on disagreement.  4kq germ walks:
    the oracle of check_germ_rows, which needs 2q."""
    return tuple(region_pattern(group, W, m, kind, j) for kind in ("H", "Hc") for j in range(group.ctx.k))


# -- singular system and magnitude bound ---------------------------------


def singular_system_certificate(group: MultispinalGroup, m: int, matrix: dict) -> dict:
    """Certify that sum_{g in K} c_g = 0 over all 2k admissible K forces
    c = 0, via full column rank 2q of the membership matrix.

    The membership matrix is the transpose of W, whose germ rows the
    groupoid section checks; matrix is the matrix section of that W.  Its
    right-inverse identity W T = I is a complete rank certificate, and its
    rank_over_Q is the rank 2q that identity implies (None without it).
    germ_verified is left False here for the groupoid section to set.
    """
    ctx = group.ctx
    wt_ok = matrix["right_inverse_identity"]
    rank = matrix["rank_over_Q"]
    passed = wt_ok and rank == 2 * ctx.q
    return {
        "n": ctx.n,
        "m": m,
        "unknowns": 2 * ctx.q,
        "equations": 2 * ctx.k,
        "matrix_source": "inclusion-transpose",
        "germ_verified": False,
        "right_inverse_identity": wt_ok,
        "rank_over_Q": rank,
        "trivial_solution_only": passed,
        "pass": passed,
    }


def bound_check(W: InclusionMatrix, m: int, coeffs) -> dict:
    """Exact region sums for one coefficient vector and the two bounds.

    coeffs is indexed by the rows of W, the canonical element order [0,
    alpha, ..., alpha^(2^n-1) = 1]; entry 0 is the coefficient of the
    identity and must be nonzero.  The region sums kappa_K are the
    entries of W^t c, keyed by the column labels of W.  Verifies
    max_K |kappa_K| > |c_e| / 2^n (2^n = 2q) and the sharper
    max_K |kappa_K| >= |c_e| * q / (2q - 1) coming from the exact column
    sums of the right-inverse.
    """
    q = W.q
    coeffs = [Fraction(c) for c in coeffs]
    if len(coeffs) != 2 * q:
        raise ValueError(f"need {2 * q} coefficients, got {len(coeffs)}")
    c_e = coeffs[0]
    if c_e == 0:
        raise ValueError("coefficient of the identity must be nonzero")
    kappa = {
        label: sum((c for i, c in enumerate(coeffs) if W.entry(i, col)), start=Fraction(0))
        for col, label in enumerate(W.col_labels)
    }
    max_abs = max(abs(v) for v in kappa.values())
    threshold = abs(c_e) / (2 * q)
    sharp = abs(c_e) * Fraction(q, 2 * q - 1)
    return {
        "m": m,
        "kappa": kappa,
        "max_abs_kappa": max_abs,
        "threshold_2n": threshold,
        "sharp_threshold": sharp,
        "passes_2n_bound": max_abs > threshold,
        "passes_sharp_bound": max_abs >= sharp,
    }


def sample_bound_ratios(W: InclusionMatrix, m: int, samples: int, seed: int) -> dict:
    """Seeded random rational vectors, all checked exactly in bulk.

    Numerators are drawn from [-9, 9] (identity coefficient from
    +-[1, 9]), denominators from [1, 9]; scaling by the common
    denominator turns both bound comparisons into int64 comparisons, so
    the whole batch is exact.  The region sums of every sample are one
    product with the transpose of W.  Reports the minimum observed ratio
    max_K |kappa| / |c_e| as an exact fraction.
    """
    import numpy as np

    if samples < 1:
        raise ValueError("need at least one sample")
    q = W.q
    ncols = 2 * q
    M = np.array(W.to_lists(), dtype=np.int64).T  # (regions, elements)

    L = lcm(*range(1, 10))  # 2520
    rng = np.random.default_rng(seed)
    nums = rng.integers(-9, 10, size=(samples, ncols), dtype=np.int64)
    dens = rng.integers(1, 10, size=(samples, ncols), dtype=np.int64)
    ce_mag = rng.integers(1, 10, size=samples, dtype=np.int64)
    ce_sign = rng.integers(0, 2, size=samples, dtype=np.int64) * 2 - 1
    nums[:, 0] = ce_mag * ce_sign

    scaled = nums * (L // dens)  # |entries| <= 9 * 2520
    kappas = M @ scaled.T        # (regions, samples); sums stay far below 2^63
    max_abs = np.abs(kappas).max(axis=0)
    ce_abs = np.abs(scaled[:, 0])
    pass_2n = max_abs * (2 * q) > ce_abs
    pass_sharp = max_abs * (2 * q - 1) >= ce_abs * q

    # exact minimum of max_abs / ce_abs: start from the float minimum and
    # move to a sample whose ratio is strictly smaller by cross-multiplication
    # until none is; each move lowers the ratio, so this ends
    best = int(np.argmin(max_abs / ce_abs))
    while (lower := np.flatnonzero(max_abs * ce_abs[best] < max_abs[best] * ce_abs)).size:
        best = int(lower[0])
    min_ratio = Fraction(int(max_abs[best]), int(ce_abs[best]))
    return {
        "m": m,
        "samples": samples,
        "seed": seed,
        "all_pass_2n_bound": bool(pass_2n.all()),
        "all_pass_sharp_bound": bool(pass_sharp.all()),
        "min_ratio": min_ratio,
        "threshold_2n": Fraction(1, 2 * q),
        "sharp_threshold": Fraction(q, 2 * q - 1),
    }
