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

circulant_rows writes W, and the W of a base block, from rows 0 and 1
by R3 and R4.  Any matrix built from a base block by R1-R4 has the
exact right-inverse T with entries a = 1/k where W is 1 and
b = -(q-1)/(k(k-q+1)) where W is 0: every row has k ones and two
distinct rows meet in q - 1, by the block's size and shift counts.  T
is held as those two values over W, and W as its bitmask rows, so R1-R9
are read from the rows by rotations and popcounts, into the
certificate's R_conditions dict.  certify and the matrix subcommand
read W T = I from R1-R9 by that theorem
(certify.right_inverse_identity); verify_right_inverse checks it
for any W and T as an integer Gram identity in popcounts, and is the
theorem's oracle in the tests.  Since k - q + 1 = q,
every denominator of T divides kq, so W T = I certifies full rank 2q
over the rationals and over GF(p) for every prime p not dividing kq.
The one rank it leaves open is the GF(2) rank, found by elimination on
the bitmask rows.  Rank over the rationals by fraction-free (Bareiss)
elimination and over an odd GF(p) by ordinary elimination stay available
as independent checks; all arithmetic on any pass/fail path is exact.
"""

from __future__ import annotations

from collections.abc import Iterator
from fractions import Fraction
from math import lcm

from ._record import Record, slot_setters
from .gf2n import FieldContext
from .hyperplanes import BaseBlock, block_satisfies_r5, membership_profile


class InclusionMatrix(Record):
    """0/1 matrix with labelled rows and columns; rows stored as bitmasks.
    Raises ValueError unless there is one row label per row."""

    __slots__ = ("q", "rows", "row_labels", "col_labels")

    def __init__(
        self, q: int, rows: tuple[int, ...], row_labels: tuple[str, ...], col_labels: tuple[str, ...]
    ) -> None:
        if len(row_labels) != len(rows):
            raise ValueError(f"{len(rows)} rows but {len(row_labels)} row labels")
        _set_q(self, q)
        _set_rows(self, rows)
        _set_row_labels(self, row_labels)
        _set_col_labels(self, col_labels)

    @property
    def k(self) -> int:
        return 2 * self.q - 1

    @property
    def shape(self) -> tuple[int, int]:
        return (len(self.rows), len(self.col_labels))

    def entry(self, i: int, j: int) -> int:
        return (self.rows[i] >> j) & 1

    def to_lists(self) -> list[list[int]]:
        ncols = len(self.col_labels)
        return [[(r >> j) & 1 for j in range(ncols)] for r in self.rows]


_set_q, _set_rows, _set_row_labels, _set_col_labels = slot_setters(InclusionMatrix)


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
    rows = tuple(circulant_rows((1 << k) - 1, membership_profile(ctx, ctx.pow_alpha(1)), k))
    row_labels = ("0",) + tuple(f"a^{i}" for i in range(1, k + 1))
    return InclusionMatrix(q=ctx.q, rows=rows, row_labels=row_labels, col_labels=_col_labels(k))


def build_W_general(block: BaseBlock) -> InclusionMatrix:
    """Matrix built purely from a base block by the rules R1-R4."""
    q = block.q
    k = block.k
    seed = sum(1 << p for p in block.positions)
    if not block_satisfies_r5(seed, q):
        raise ValueError("base block violates the shift-intersection condition (R5)")
    rows = tuple(circulant_rows((1 << k) - 1, seed, k))  # R1: row 0 is in every subgroup
    row_labels = ("0",) + tuple(f"r{i}" for i in range(1, 2 * q))
    return InclusionMatrix(q=q, rows=rows, row_labels=row_labels, col_labels=_col_labels(k))


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

    def entry(self, j: int, i: int) -> Fraction:
        return self.a if self.W.entry(i, j) else self.b

    @property
    def rows(self) -> tuple[tuple[Fraction, ...], ...]:
        """Dense Fraction view, built on each read."""
        a, b = self.a, self.b
        return tuple(tuple(a if (r >> j) & 1 else b for r in self.W.rows) for j in range(self.shape[0]))

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
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


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
    An InclusionMatrix is reduced mod 2 on its bitmask rows as stored.
    """
    if not _is_prime(p):
        raise ValueError(f"{p} is not prime")
    if p == 2 and isinstance(M, InclusionMatrix):
        return _rank_f2(M.rows)
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
    if p == 2:
        return _rank_f2(sum(1 << j for j, v in enumerate(r) if v) for r in mat)

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


def _first_fail(violations) -> dict:
    """The entry of a condition from its violations in order: the first is the counterexample."""
    first = next(violations, None)
    return _condition(first is None, first)


def check_R_conditions(W: InclusionMatrix) -> dict[str, dict]:
    """Itemized pass/fail for R1-R9 with first-counterexample coordinates,
    as the certificate prints them: name -> {"pass", "counterexample"?,
    "note"?}, or the single entry "shape" when W has the wrong shape.

    Coordinates in counterexamples are 0-based (row, column), the first
    in row-major order.  Every condition is read from the bitmask rows:
    a row's first k columns are its low k bits and the last k its next k.
    """
    q = W.q
    k = W.k
    if W.shape != (2 * q, 2 * k):
        return {"shape": _condition(False, list(W.shape), f"expected {2*q}x{2*k}")}

    low_k = (1 << k) - 1
    first = [r & low_k for r in W.rows]
    second = [(r >> k) & low_k for r in W.rows]
    r1 = (first[0] ^ low_k) | (second[0] << k)
    row2 = first[1].bit_count()
    # R9, bit-sliced: plane p holds bit p of every column's count, so a
    # row is added by one ripple-carry pass over the planes; the columns
    # whose count is off are those where some plane disagrees with q
    full = (1 << 2 * k) - 1
    planes = [0] * (2 * q).bit_length()
    for carry in W.rows:
        carry &= full
        for p, plane in enumerate(planes):
            planes[p], carry = plane ^ carry, plane & carry
            if not carry:
                break
    off = 0
    for p, plane in enumerate(planes):
        off |= plane ^ (full if (q >> p) & 1 else 0)
    return {
        "R1": _condition(not r1, [0, _low_bit(r1)] if r1 else None),
        "R2": _condition(
            row2 == q - 1, None if row2 == q - 1 else [1, row2], f"row 2 supports {row2} ones"
        ),
        # R3: row i+1 is row i rotated down one place, bit j <- bit (j+1) mod k
        "R3": _first_fail(
            [i + 1, _low_bit(d)]
            for i in range(1, 2 * q - 1)
            if (d := first[i + 1] ^ ((first[i] >> 1) | ((first[i] & 1) << (k - 1))))
        ),
        "R4": _first_fail(
            [i, _low_bit(d) + k] for i in range(1, 2 * q) if (d := second[i] ^ first[i] ^ low_k)
        ),
        "R5": _condition(
            block_satisfies_r5(first[1], q), None, "all nonzero shifts checked (strong reading)"
        ),
        "R6": _first_fail([i] for i in range(2 * q) if first[i].bit_count() != (k if i == 0 else q - 1)),
        "R7": _first_fail([i] for i in range(2 * q) if second[i].bit_count() != (0 if i == 0 else q)),
        "R8": _first_fail([i] for i in range(2 * q) if W.rows[i].bit_count() != k),
        "R9": _condition(not off, [_low_bit(off)] if off else None),
    }
