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

Any matrix built from a base block by R1-R4 has the exact right-inverse
T with entries a = 1/k where W is 1 and b = -(q-1)/(k(k-q+1)) where W is
0.  T is held as those two values over W, and W as its bitmask rows, so
R1-R9 are read from the rows by rotations and popcounts and W T = I is
an integer Gram identity in popcounts; no Fraction is made per entry.  Since k - q + 1 =
q, every denominator of T divides kq, so W T = I certifies full rank 2q
over the rationals and over GF(p) for every prime p not dividing kq.
The one rank it leaves open is the GF(2) rank, found by elimination on
the bitmask rows.  Rank over the rationals by fraction-free (Bareiss)
elimination and over an odd GF(p) by ordinary elimination stay available
as independent checks; all arithmetic on any pass/fail path is exact.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from ._record import FrozenRecord, Record
from .gf2n import FieldContext
from .hyperplanes import BaseBlock, block_satisfies_r5, membership_profile


class InclusionMatrix(FrozenRecord):
    """0/1 matrix with labelled rows and columns; rows stored as bitmasks."""

    __slots__ = ("q", "rows", "row_labels", "col_labels")

    def __init__(
        self, q: int, rows: tuple[int, ...], row_labels: tuple[str, ...], col_labels: tuple[str, ...]
    ) -> None:
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "row_labels", row_labels)
        object.__setattr__(self, "col_labels", col_labels)

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


def _row_labels(ctx: FieldContext) -> tuple[str, ...]:
    return ("0",) + tuple(f"a^{i}" for i in range(1, ctx.k + 1))


def _col_labels(k: int) -> tuple[str, ...]:
    return tuple(f"H{j}" for j in range(k)) + tuple(f"H{j}c" for j in range(k))


def build_W(ctx: FieldContext) -> InclusionMatrix:
    """Inclusion matrix of the field's hyperplanes and their complements."""
    k = ctx.k
    rows = []
    for x in ctx.canonical_elements():
        first = membership_profile(ctx, x)
        mirror = (~first) & ((1 << k) - 1)
        rows.append(first | (mirror << k))
    return InclusionMatrix(
        q=ctx.q,
        rows=tuple(rows),
        row_labels=_row_labels(ctx),
        col_labels=_col_labels(k),
    )


def build_W_general(block: BaseBlock) -> InclusionMatrix:
    """Matrix built purely from a base block by the rules R1-R4."""
    q = block.q
    k = block.k
    seed = sum(1 << p for p in block.positions)
    if not block_satisfies_r5(seed, q):
        raise ValueError("base block violates the shift-intersection condition (R5)")
    all_first = (1 << k) - 1
    rows = [all_first]  # R1: zero row is in every subgroup, no complement
    for shift in range(2 * q - 1):
        first = ((seed >> shift) | (seed << (k - shift))) & all_first  # R3: row 2 rotated
        mirror = (~first) & all_first  # R4
        rows.append(first | (mirror << k))
    row_labels = ("0",) + tuple(f"r{i}" for i in range(1, 2 * q))
    return InclusionMatrix(q=q, rows=tuple(rows), row_labels=row_labels, col_labels=_col_labels(k))


class RightInverse(FrozenRecord):
    """The two-valued right-inverse of W, held as its two values over W.

    Entry (j, i) is a where W[i][j] = 1 and b elsewhere; shape 2k x 2q,
    the transpose of W's.
    """

    __slots__ = ("W", "a", "b")

    def __init__(self, W: InclusionMatrix, a: Fraction, b: Fraction) -> None:
        object.__setattr__(self, "W", W)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

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


class ConditionResult(Record):
    __slots__ = ("passed", "counterexample", "note")

    def __init__(self, passed: bool, counterexample: tuple | None = None, note: str = "") -> None:
        self.passed = passed
        self.counterexample = counterexample
        self.note = note


class RConditionReport(Record):
    __slots__ = ("results",)

    def __init__(self, results: dict[str, ConditionResult] | None = None) -> None:
        self.results = {} if results is None else results

    @property
    def all_pass(self) -> bool:
        return all(r.passed for r in self.results.values())

    def failing(self) -> list[str]:
        return [name for name, r in self.results.items() if not r.passed]

    def as_dict(self) -> dict:
        return {
            name: {
                "pass": r.passed,
                **({"counterexample": list(r.counterexample)} if r.counterexample else {}),
                **({"note": r.note} if r.note else {}),
            }
            for name, r in self.results.items()
        }


def _low_bit(mask: int) -> int:
    return (mask & -mask).bit_length() - 1


def check_R_conditions(W: InclusionMatrix) -> RConditionReport:
    """Itemized pass/fail for R1-R9 with first-counterexample coordinates.

    Coordinates in counterexamples are 0-based (row, column), the first
    in row-major order.  Every condition is read from the bitmask rows:
    a row's first k columns are its low k bits and the last k its next k.
    """
    q = W.q
    k = W.k
    nrows, ncols = W.shape
    rep = RConditionReport()

    def first_fail(name, gen, note=""):
        for coords in gen:
            rep.results[name] = ConditionResult(False, coords, note)
            return
        rep.results[name] = ConditionResult(True, None, note)

    if nrows != 2 * q or ncols != 2 * k:
        rep.results["shape"] = ConditionResult(False, (nrows, ncols), f"expected {2*q}x{2*k}")
        return rep

    low_k = (1 << k) - 1
    first = [r & low_k for r in W.rows]
    second = [(r >> k) & low_k for r in W.rows]
    r1 = (first[0] ^ low_k) | (second[0] << k)
    rep.results["R1"] = ConditionResult(not r1, (0, _low_bit(r1)) if r1 else None)
    row2 = first[1].bit_count()
    rep.results["R2"] = ConditionResult(
        row2 == q - 1, None if row2 == q - 1 else (1, row2), f"row 2 supports {row2} ones"
    )
    # R3: row i+1 is row i rotated down one place, bit j <- bit (j+1) mod k
    first_fail(
        "R3",
        (
            (i + 1, _low_bit(d))
            for i in range(1, 2 * q - 1)
            if (d := first[i + 1] ^ ((first[i] >> 1) | ((first[i] & 1) << (k - 1))))
        ),
    )
    first_fail(
        "R4",
        ((i, _low_bit(d) + k) for i in range(1, 2 * q) if (d := second[i] ^ first[i] ^ low_k)),
    )
    rep.results["R5"] = ConditionResult(
        block_satisfies_r5(first[1], q), None, "all nonzero shifts checked (strong reading)"
    )
    first_fail(
        "R6",
        ((i,) for i in range(2 * q) if first[i].bit_count() != (k if i == 0 else q - 1)),
    )
    first_fail(
        "R7",
        ((i,) for i in range(2 * q) if second[i].bit_count() != (0 if i == 0 else q)),
    )
    first_fail(
        "R8",
        ((i,) for i in range(2 * q) if W.rows[i].bit_count() != k),
    )
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
    rep.results["R9"] = ConditionResult(not off, (_low_bit(off),) if off else None)
    return rep
