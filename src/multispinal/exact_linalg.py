"""Exact matrices: the inclusion matrix W, its right-inverse T, and ranks.

W is the 2q x 2k 0/1 matrix (q = 2^(n-1), k = 2q - 1) recording which
field elements lie in each subgroup H_j and each complement H_j^c, rows
ordered [0, alpha^1, ..., alpha^(2^n - 1) = 1] and columns
[H_0 .. H_(k-1), H_0^c .. H_(k-1)^c].  It satisfies nine structural
conditions:

    R1  first row: ones on the subgroup columns, zeros on the complements
    R2  second row restricted to the first k columns supports q-1 ones
    R3  each later row is the previous one cyclically shifted (circulant)
    R4  complement columns mirror subgroup columns (rows >= 2)
    R5  the row-2 support has constant shift-intersection q/2 - 1: its
        k - 1 rotations each meet it in q/2 - 1 bits
    R6  rows >= 2 have q-1 ones among the first k columns
    R7  rows >= 2 have q ones among the last k columns
    R8  every row sums to k
    R9  every column sums to q

The subgroups are the rotations of one cyclic difference set, so W is
a circulant, and InclusionMatrix holds it as the subgroup halves (k bits
each) of its rows 0 and 1; circulant_rows writes the 2q rows from them
by R3 and R4, and only on request.  R3, R4 and R8 hold by construction,
and check_R_conditions reads the rest as closed forms in the two rows,
into the certificate's R_conditions dict: R1 is row 0, R2, R6 and R7
are |row 1| (and row 0), R5 is the k - 1 shift counts of row 1, and
column j sums to [j in row 0] + |row 1| (R9).  R5 is certify's one
pass over the shift counts; its design section reads R5's verdict.

Any matrix built from a base block by R1-R4 has the exact right-inverse
T with entries a = 1/k where W is 1 and b = -(q-1)/(k(k-q+1)) where W is
0: every row has k ones and two distinct rows meet in q - 1, by the
block's size and shift counts.  T is held as those two values over W.
certify and the matrix subcommand read W T = I from R1-R9 by that
theorem (certify.right_inverse_identity); verify_right_inverse checks
it for any W and T as an integer Gram identity in popcounts of the
expanded rows, and is the theorem's oracle in the tests.  Since
k - q + 1 = q, every denominator of T divides kq, so W T = I certifies
full rank 2q over the rationals and over GF(p) for every prime p not
dividing kq.  The one rank it leaves open is the GF(2) rank, found by
elimination on the rows as circulant_rows streams them: the basis holds
at most rank-many rows, n + 1 for the field's W, so no 2q x 2k matrix is
held.  Rank over the rationals by fraction-free (Bareiss) elimination
and over GF(p) by ordinary elimination stay available as independent
checks; all arithmetic on any pass/fail path is exact.
"""

from __future__ import annotations

from collections.abc import Iterator
from fractions import Fraction
from math import lcm

from ._record import Record, slot_setters
from .gf2n import FieldContext, _factor
from .hyperplanes import block_satisfies_r5, membership_profile


class InclusionMatrix(Record):
    """The circulant 0/1 matrix W of a base block, held as q, the subgroup
    halves row0 and row1 (k bits each) of its rows 0 and 1, and one label
    per row.  Raises ValueError unless there are 2q row labels and both
    rows fit in k bits."""

    __slots__ = ("q", "row0", "row1", "row_labels")

    def __init__(self, q: int, row0: int, row1: int, row_labels: tuple[str, ...]) -> None:
        if len(row_labels) != 2 * q:
            raise ValueError(f"{2 * q} rows but {len(row_labels)} row labels")
        if (row0 | row1) >> (2 * q - 1):
            raise ValueError(f"rows 0 and 1 must fit in {2 * q - 1} bits")
        _set_q(self, q)
        _set_row0(self, row0)
        _set_row1(self, row1)
        _set_row_labels(self, row_labels)

    @property
    def k(self) -> int:
        return 2 * self.q - 1

    @property
    def shape(self) -> tuple[int, int]:
        return (2 * self.q, 2 * self.k)

    @property
    def col_labels(self) -> tuple[str, ...]:
        return _col_labels(self.k)

    @property
    def rows(self) -> tuple[int, ...]:
        """The 2q bitmask rows of 2k bits, built on each read."""
        return tuple(circulant_rows(self.row0, self.row1, self.k))

    def entry(self, i: int, j: int) -> int:
        """W[i][j] in O(1): bit j mod k of row 0, or of row 1 rotated down
        by i - 1 places, flipped on the complement columns."""
        k = self.k
        c = j % k
        bit = self.row0 >> c if i == 0 else self.row1 >> (c + i - 1) % k
        return (bit & 1) ^ (j >= k)

    def to_lists(self) -> list[list[int]]:
        width = 2 * self.k
        return [[(r >> j) & 1 for j in range(width)] for r in self.rows]


_set_q, _set_row0, _set_row1, _set_row_labels = slot_setters(InclusionMatrix)


def _col_labels(k: int) -> tuple[str, ...]:
    return tuple(f"H{j}" for j in range(k)) + tuple(f"H{j}c" for j in range(k))


def circulant_rows(row0: int, row1: int, k: int) -> Iterator[int]:
    """The rows of a matrix in W's layout from the subgroup halves (k bits
    each) of its rows 0 and 1: row 0, then row 1 rotated down by 0 .. k - 1
    places (R3), each with its complement mirrored into the high k bits
    (R4)."""
    full = (1 << k) - 1
    yield row0 | ((~row0 & full) << k)
    for r in range(k):
        first = ((row1 >> r) | (row1 << (k - r))) & full
        yield first | ((~first & full) << k)


def build_W(ctx: FieldContext) -> InclusionMatrix:
    """Inclusion matrix of the field's hyperplanes and their complements.

    0 lies in every subgroup, and alpha^i lies in H_j iff bit (i + j) mod k
    of the zero-trace mask is set, so the row of alpha^i is the row of
    alpha rotated down by i - 1 places."""
    k = ctx.k
    row_labels = ("0",) + tuple(f"a^{i}" for i in range(1, k + 1))
    return InclusionMatrix(ctx.q, (1 << k) - 1, membership_profile(ctx, ctx.pow_alpha(1)), row_labels)


def build_W_general(q: int, mask: int) -> InclusionMatrix:
    """Matrix built purely from a base block by the rules R1-R4: mask is
    the block in Z_k, k = 2q - 1 (bit p set iff p is in it), and becomes
    row 1.  Raises ValueError unless the block passes R5
    (block_satisfies_r5): q - 1 of the k bits, and every shift count
    q/2 - 1."""
    if not block_satisfies_r5(mask, q):
        raise ValueError("base block violates the shift-intersection condition (R5)")
    row_labels = ("0",) + tuple(f"r{i}" for i in range(1, 2 * q))
    return InclusionMatrix(q, (1 << (2 * q - 1)) - 1, mask, row_labels)  # R1: row 0 is in every subgroup


class RightInverse(Record):
    """The two-valued right-inverse of W, held as its two values over W.

    Entry (j, i) is a where W[i][j] = 1 and b elsewhere; shape 2k x 2q,
    the transpose of W's.
    """

    __slots__ = ("W", "a", "b")

    def __init__(self, W: InclusionMatrix, a: Fraction, b: Fraction) -> None:
        _set_W(self, W)
        _set_a(self, a)
        _set_b(self, b)

    @property
    def shape(self) -> tuple[int, int]:
        nrows, ncols = self.W.shape
        return (ncols, nrows)

    @property
    def rows(self) -> tuple[tuple[Fraction, ...], ...]:
        """Dense Fraction view, built on each read."""
        a, b, rows = self.a, self.b, self.W.rows
        return tuple(tuple(a if (r >> j) & 1 else b for r in rows) for j in range(self.shape[0]))

    def to_strings(self) -> list[list[str]]:
        return [[str(x) for x in row] for row in self.rows]


_set_W, _set_a, _set_b = slot_setters(RightInverse)


def build_T(q: int, W: InclusionMatrix) -> RightInverse:
    """Explicit right-inverse candidate: a = 1/k where W is 1, else
    b = -(q-1)/(k(k-q+1)); shape 2k x 2q."""
    k = 2 * q - 1
    nrows, ncols = W.shape
    if nrows != 2 * q or ncols != 2 * k:
        raise ValueError(f"W has shape {W.shape}, expected {(2 * q, 2 * k)}")
    return RightInverse(W, Fraction(1, k), Fraction(-(q - 1), k * (k - q + 1)))


def _as_fraction_rows(M) -> list[list[Fraction]]:
    if isinstance(M, InclusionMatrix):
        return [[Fraction(v) for v in row] for row in M.to_lists()]
    return [[Fraction(v) for v in row] for row in M]


def verify_right_inverse(W: InclusionMatrix, T: RightInverse) -> bool:
    """Exact check that W * T is the identity, as an integer Gram identity.

    Over the common denominator d of T's two values,
    (W T)[i][l] * d = a d |W_i & T.W_l| + b d (|W_i| - |W_i & T.W_l|),
    so the check is popcounts of bitmask rows.  Nothing about W is
    assumed beyond its shape.
    """
    inner = W.shape[1]
    if T.shape != (inner, W.shape[0]):
        raise ValueError(f"shape mismatch: W is {W.shape[0]}x{inner}, T is {T.shape[0]}x{T.shape[1]}")
    denom = lcm(T.a.denominator, T.b.denominator)
    a = T.a.numerator * (denom // T.a.denominator)
    b = T.b.numerator * (denom // T.b.denominator)
    full = (1 << inner) - 1
    tcols = [r & full for r in T.W.rows]
    for i, w in enumerate(W.rows):
        w &= full
        ones = w.bit_count()
        for l, t in enumerate(tcols):
            both = (w & t).bit_count()
            if a * both + b * (ones - both) != (denom if i == l else 0):
                return False
    return True


def rank_over_Q(M) -> int:
    """Exact rank over the rationals by fraction-free Bareiss elimination.

    Rows are cleared to integers by their denominator lcm first; all
    intermediate arithmetic is integer-exact.
    """
    rows = _as_fraction_rows(M)
    if not rows:
        return 0
    mat = []
    for r in rows:
        d = lcm(*(x.denominator for x in r)) if r else 1
        mat.append([int(x * d) for x in r])
    nrows, ncols = len(mat), len(mat[0])
    rank = 0
    prev = 1
    for col in range(ncols):
        piv = None
        for i in range(rank, nrows):
            if mat[i][col]:
                piv = i
                break
        if piv is None:
            continue
        if piv != rank:
            mat[rank], mat[piv] = mat[piv], mat[rank]
        pv = mat[rank][col]
        for i in range(rank + 1, nrows):
            f = mat[i][col]
            row_i = mat[i]
            row_p = mat[rank]
            if f:
                mat[i] = [(pv * row_i[j] - f * row_p[j]) // prev for j in range(ncols)]
            elif prev != 1:
                mat[i] = [(pv * v) // prev for v in row_i]
            else:
                mat[i] = [pv * v for v in row_i]
        prev = pv
        rank += 1
        if rank == nrows:
            break
    return rank


def _is_prime(p: int) -> bool:
    return p >= 2 and _factor(p) == [p]


def _rank_f2(masks) -> int:
    """Rank over GF(2) of rows given as bitmasks: each row is reduced by
    the basis rows that hold its leading bit until it is zero or opens a
    new leading bit."""
    basis: dict[int, int] = {}
    for row in masks:
        while row:
            top = row.bit_length() - 1
            if top not in basis:
                basis[top] = row
                break
            row ^= basis[top]
    return len(basis)


def rank_mod_p(M, p: int) -> int:
    """Rank of M reduced mod a prime p, by Gaussian elimination over GF(p).

    Non-integer rational entries are scaled row-wise; a row whose
    denominator vanishes mod p is rejected (the reduction is undefined).
    An InclusionMatrix is reduced mod 2 on its bitmask rows, streamed
    from circulant_rows.
    """
    if not _is_prime(p):
        raise ValueError(f"{p} is not prime")
    if p == 2 and isinstance(M, InclusionMatrix):
        return _rank_f2(circulant_rows(M.row0, M.row1, M.k))
    rows = _as_fraction_rows(M)
    if not rows:
        return 0
    mat = []
    for r in rows:
        d = lcm(*(x.denominator for x in r)) if r else 1
        if d % p == 0:
            raise ValueError(f"entry denominator divisible by {p}; reduction undefined")
        dinv = pow(d % p, -1, p)
        mat.append([int(x * d) * dinv % p for x in r])
    nrows, ncols = len(mat), len(mat[0])
    rank = 0
    for col in range(ncols):
        piv = None
        for i in range(rank, nrows):
            if mat[i][col]:
                piv = i
                break
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        inv = pow(mat[rank][col], -1, p)
        prow = mat[rank]
        for i in range(rank + 1, nrows):
            f = mat[i][col]
            if f:
                f = f * inv % p
                mat[i] = [(v - f * w) % p for v, w in zip(mat[i], prow)]
        rank += 1
        if rank == nrows:
            break
    return rank


def _condition(passed: bool, counterexample: list | None = None, note: str = "") -> dict:
    """One R_conditions entry: pass, then a counterexample and a note if given."""
    entry = {"pass": passed}
    if counterexample is not None:
        entry["counterexample"] = counterexample
    if note:
        entry["note"] = note
    return entry


def _low_bit(mask: int) -> int:
    return (mask & -mask).bit_length() - 1


def check_R_conditions(W: InclusionMatrix) -> dict[str, dict]:
    """Itemized pass/fail for R1-R9 with first-counterexample coordinates,
    as the certificate prints them: name -> {"pass", "counterexample"?,
    "note"?}.

    Coordinates in counterexamples are 0-based (row, column), the first
    in row-major order of the expanded W.  Each condition is a closed form
    in rows 0 and 1.  R3, R4 and R8 hold by construction.  Every row
    below row 0 has |row 1| subgroup ones and k - |row 1| complement
    ones, so R6 and R7 first fail at row 0 if it misses a subgroup, else
    at row 1 if |row 1| != q - 1.  Subgroup column j sums to
    [j in row 0] + |row 1| and its complement to 2q minus that, so the
    columns off q (R9) are those row 0 misses when |row 1| = q - 1, those
    it holds when |row 1| = q, and all of them otherwise.
    """
    q, k = W.q, W.k
    full = (1 << k) - 1
    miss0 = W.row0 ^ full
    ones = W.row1.bit_count()
    bad_row = [0] if miss0 else None if ones == q - 1 else [1]
    off = miss0 if ones == q - 1 else W.row0 if ones == q else full
    return {
        "R1": _condition(not miss0, [0, _low_bit(miss0)] if miss0 else None),
        "R2": _condition(ones == q - 1, None if ones == q - 1 else [1, ones], f"row 2 supports {ones} ones"),
        "R3": _condition(True),
        "R4": _condition(True),
        "R5": _condition(block_satisfies_r5(W.row1, q), None, "all nonzero shifts checked (strong reading)"),
        "R6": _condition(bad_row is None, bad_row),
        "R7": _condition(bad_row is None, bad_row),
        "R8": _condition(True),
        "R9": _condition(not off, [_low_bit(off)] if off else None),
    }
