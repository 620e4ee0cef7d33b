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
    R5  the row-2 support has constant shift-intersection q/2 - 1
    R6  rows >= 2 have q-1 ones among the first k columns
    R7  rows >= 2 have q ones among the last k columns
    R8  every row sums to k
    R9  every column sums to q

Any matrix built from a base block by R1-R4 has the exact right-inverse
T with entries a = 1/k where W is 1 and b = -(q-1)/(k(k-q+1)) where W is
0.  Since k - q + 1 = q, every denominator of T divides kq, so W T = I
certifies full rank 2q over the rationals and over GF(p) for every prime
p not dividing kq.  The one rank it leaves open is the GF(2) rank, found
by elimination on the bitmask rows.  Rank over the rationals by
fraction-free (Bareiss) elimination and over an odd GF(p) by ordinary
elimination stay available as independent checks; all arithmetic on any
pass/fail path is exact.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm

from .gf2n import FieldContext
from .hyperplanes import BaseBlock, block_satisfies_r5, membership_profile


@dataclass(frozen=True)
class InclusionMatrix:
    """0/1 matrix with labelled rows and columns; rows stored as bitmasks."""

    q: int
    rows: tuple[int, ...]
    row_labels: tuple[str, ...]
    col_labels: tuple[str, ...]

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


class RationalMatrix:
    """Dense matrix of Fractions (arbitrary precision, always canonical)."""

    def __init__(self, rows):
        self.rows: tuple[tuple[Fraction, ...], ...] = tuple(
            tuple(Fraction(x) for x in row) for row in rows
        )
        if self.rows:
            width = len(self.rows[0])
            if any(len(r) != width for r in self.rows):
                raise ValueError("ragged rows")

    @property
    def shape(self) -> tuple[int, int]:
        return (len(self.rows), len(self.rows[0]) if self.rows else 0)

    def entry(self, i: int, j: int) -> Fraction:
        return self.rows[i][j]

    def to_strings(self) -> list[list[str]]:
        return [[str(x) for x in row] for row in self.rows]

    def __eq__(self, other) -> bool:
        return isinstance(other, RationalMatrix) and self.rows == other.rows


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
    lam = q // 2 - 1
    if len(block.positions) != q - 1 or not block_satisfies_r5(block.positions, k, lam):
        raise ValueError("base block violates the shift-intersection condition (R5)")
    all_first = (1 << k) - 1
    rows = [all_first]  # R1: zero row is in every subgroup, no complement
    seed = 0
    for p in block.positions:
        seed |= 1 << p
    for i in range(1, 2 * q):
        shift = i - 1
        first = 0
        for j in range(k):
            if (seed >> ((j + shift) % k)) & 1:  # R3: cyclic shift of row 2
                first |= 1 << j
        mirror = (~first) & all_first  # R4
        rows.append(first | (mirror << k))
    row_labels = ("0",) + tuple(f"r{i}" for i in range(1, 2 * q))
    return InclusionMatrix(q=q, rows=tuple(rows), row_labels=row_labels, col_labels=_col_labels(k))


def build_T(q: int, W: InclusionMatrix) -> RationalMatrix:
    """Explicit right-inverse candidate: transpose-shaped two-valued matrix.

    T[j][i] = 1/k where W[i][j] = 1, else -(q-1)/(k(k-q+1)); shape 2k x 2q.
    """
    k = 2 * q - 1
    a = Fraction(1, k)
    b = Fraction(-(q - 1), k * (k - q + 1))
    nrows, ncols = W.shape
    if nrows != 2 * q or ncols != 2 * k:
        raise ValueError(f"W has shape {W.shape}, expected {(2 * q, 2 * k)}")
    rows = []
    for j in range(2 * k):
        rows.append(tuple(a if W.entry(i, j) else b for i in range(2 * q)))
    return RationalMatrix(rows)


def _as_fraction_rows(M) -> list[list[Fraction]]:
    if isinstance(M, InclusionMatrix):
        return [[Fraction(v) for v in row] for row in M.to_lists()]
    if isinstance(M, RationalMatrix):
        return [list(row) for row in M.rows]
    return [[Fraction(v) for v in row] for row in M]


def verify_right_inverse(W, T: RationalMatrix) -> bool:
    """Exact check that W * T is the identity.

    W must be a 0/1 matrix (InclusionMatrix or nested lists); T any
    rational matrix with matching inner dimension.  Entries of the
    product are accumulated as integers over the least common
    denominator of T, grouping T's rows by value per column, so the check
    stays exact while running in popcount time.
    """
    if isinstance(W, InclusionMatrix):
        wrows = list(W.rows)
        inner = 2 * W.k
    else:
        lists = [list(r) for r in W]
        inner = len(lists[0]) if lists else 0
        wrows = []
        for r in lists:
            if any(v not in (0, 1) for v in r):
                raise ValueError("W must be a 0/1 matrix")
            mask = 0
            for j, v in enumerate(r):
                if v:
                    mask |= 1 << j
            wrows.append(mask)
    tn, tm = T.shape
    if tn != inner or tm != len(wrows):
        raise ValueError(f"shape mismatch: W is {len(wrows)}x{inner}, T is {tn}x{tm}")

    denom = lcm(*(x.denominator for row in T.rows for x in row)) if T.rows else 1
    # per column of T: bitmask of rows holding each distinct scaled value
    col_masks: list[dict[int, int]] = []
    for l in range(tm):
        masks: dict[int, int] = {}
        for j in range(tn):
            v = T.rows[j][l]
            scaled = v.numerator * (denom // v.denominator)
            masks[scaled] = masks.get(scaled, 0) | (1 << j)
        col_masks.append(masks)
    for i, wmask in enumerate(wrows):
        for l in range(tm):
            acc = 0
            for value, mask in col_masks[l].items():
                if value:
                    acc += value * (wmask & mask).bit_count()
            if acc != (denom if i == l else 0):
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


@dataclass
class ConditionResult:
    passed: bool
    counterexample: tuple | None = None
    note: str = ""


@dataclass
class RConditionReport:
    results: dict[str, ConditionResult] = field(default_factory=dict)

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


def check_R_conditions(W: InclusionMatrix) -> RConditionReport:
    """Itemized pass/fail for R1-R9 with first-counterexample coordinates.

    Coordinates in counterexamples are 0-based (row, column).
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

    first_fail(
        "R1",
        (
            (0, j)
            for j in range(2 * k)
            if W.entry(0, j) != (1 if j < k else 0)
        ),
    )
    row2 = sum(W.entry(1, j) for j in range(k))
    rep.results["R2"] = ConditionResult(
        row2 == q - 1, None if row2 == q - 1 else (1, row2), f"row 2 supports {row2} ones"
    )
    first_fail(
        "R3",
        (
            (i + 1, j)
            for i in range(1, 2 * q - 1)
            for j in range(k)
            if W.entry(i + 1, j) != W.entry(i, (j + 1) % k)
        ),
    )
    first_fail(
        "R4",
        (
            (i, j + k)
            for i in range(1, 2 * q)
            for j in range(k)
            if W.entry(i, j + k) != 1 - W.entry(i, j)
        ),
    )
    positions = [j for j in range(k) if W.entry(1, j)]
    lam = q // 2 - 1
    r5_ok = len(positions) == q - 1 and block_satisfies_r5(positions, k, lam)
    rep.results["R5"] = ConditionResult(
        r5_ok, None, "all nonzero shifts checked (strong reading)"
    )
    first_fail(
        "R6",
        (
            (i,)
            for i in range(2 * q)
            if sum(W.entry(i, j) for j in range(k)) != (k if i == 0 else q - 1)
        ),
    )
    first_fail(
        "R7",
        (
            (i,)
            for i in range(2 * q)
            if sum(W.entry(i, j) for j in range(k, 2 * k)) != (0 if i == 0 else q)
        ),
    )
    first_fail(
        "R8",
        ((i,) for i in range(2 * q) if W.rows[i].bit_count() != k),
    )
    first_fail(
        "R9",
        (
            (j,)
            for j in range(2 * k)
            if sum(W.entry(i, j) for i in range(2 * q)) != q
        ),
    )
    return rep
