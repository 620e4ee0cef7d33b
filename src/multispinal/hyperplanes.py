"""Index-2 subgroups of GF(2^n) and the 2-design they carry.

H_j = ker(Tr o phi^j) for j = 0 .. k - 1, k = 2^n - 1, are the k distinct
additive subgroups of order q = 2^(n-1).  Dropping the zero element, their
incidence structure on the nonzero field elements is a
2-(2q-1, q-1, q/2-1) design, and all of it is one cyclic difference set:
alpha^l lies in H_j iff bit (l + j) mod k of the zero-trace mask Z is
set, so every point's blocks and every block's points are a rotation of
Z, and the pair (alpha^l1, alpha^l2) lies in |Z ∩ (Z - d)| blocks,
d = l2 - l1.  The k - 1 shift counts of one mask (shift_intersections)
therefore certify the design: verify_design returns its parameters as
the tuple (v, block_size, lam).  They are also the shift condition R5
on a base block (block_satisfies_r5), and certify scans them once, in
R5 of W (certify.design_section says why).

A base block, a (q-1)-subset of Z_k whose k - 1 shift counts are all
q/2 - 1, is held as its k-bit mask, bit p set iff p is in the block:
alpha_block is the field's, the subgroups that hold alpha (the
zero-trace mask rotated by one place), and row 1 of the field's W;
extract_base_block returns it checked, search_base_blocks returns every
one for a given q, and exact_linalg.build_W_general builds W from one.
"""

from __future__ import annotations

from itertools import combinations

from .gf2n import FieldContext

SEARCH_Q_CAP = 10  # C(19, 9) ~ 92k subsets at q = 10, and about 15 times that at q = 12


class DesignError(ValueError):
    """A design count failed; carries the offending point or pair."""

    def __init__(self, message: str, offender=None):
        super().__init__(message)
        self.offender = offender


def shift_intersections(mask: int, k: int):
    """Yield |B ∩ (B - d)| for d = 1 .. k - 1, B the set bits of mask in Z_k.

    Each count is one rotation and one popcount.  The counts come lazily,
    so a caller that stops at the first bad one reads no further shift.
    """
    for d in range(1, k):
        yield (mask & ((mask >> d) | (mask << (k - d)))).bit_count()


def block_satisfies_r5(mask: int, q: int) -> bool:
    """Whether mask is a base block: q - 1 of the bits 0 .. k - 1, k = 2q - 1,
    with |B ∩ (B - d)| = q/2 - 1 for every shift d != 0 mod k.

    Checking every nonzero d is the strong reading of the shift condition;
    it is equivalent to the range d = 1..q-1 because the intersection
    counts for d and k-d coincide (x -> x - d is a bijection between the
    two index sets).
    """
    k = 2 * q - 1
    lam = q // 2 - 1
    return mask >> k == 0 and mask.bit_count() == q - 1 and all(
        c == lam for c in shift_intersections(mask, k)
    )


def build_hyperplanes(ctx: FieldContext) -> list[int]:
    """Member bitmask over the field elements of each H_j, indexed by j:
    the explicit subgroups, which no document lists and the tests read
    as the oracle of the difference-set rule.

    Tr(alpha^j x) is the parity of x & c_j, c_j the trace window l_j.  So
    H_j is the complement of the XOR, over the set bits i of c_j, of the
    mask of the x with bit i set.
    """
    size = 1 << ctx.n
    odd = [sum(1 << x for x in range(size) if x >> i & 1) for i in range(ctx.n)]
    full = (1 << size) - 1
    planes = []
    for j in range(ctx.k):
        members, c = full, ctx.trace_window(j)
        for i in range(ctx.n):
            if c >> i & 1:
                members ^= odd[i]
        planes.append(members)
    return planes


def verify_design(z: int, q: int) -> tuple[int, int, int]:
    """Certify the design of a zero-trace mask z and return its parameters
    (v, block_size, lam): v points, block_size points per block and lam
    blocks through each pair of points.

    As the module docstring derives, |z| = q - 1 is both the replication
    and the block size, and the k - 1 shift counts are every pair count.
    They also make the k blocks distinct, since H_i = H_j with i != j
    would give |Z ∩ (Z - (j - i))| = |z| = q - 1, more than q/2 - 1.

    The shift counts are read first, so a DesignError names the first
    bad exponent pair (0, d).  They sum to |z|(|z| - 1), so when all are
    lambda the size is already q - 1 except for the empty mask at q = 2,
    which the size check then rejects.
    """
    k = 2 * q - 1
    lam = q // 2 - 1
    if z >> k:
        raise DesignError(f"mask has bits outside Z_{k}")
    for d, c in enumerate(shift_intersections(z, k), 1):
        if c != lam:
            raise DesignError(
                f"pair (alpha^0, alpha^{d}) lies in {c} blocks, expected {lam}", (0, d)
            )
    if z.bit_count() != q - 1:
        raise DesignError(f"every point lies in {z.bit_count()} blocks, expected {q - 1}", 0)
    return (k, q - 1, lam)


def alpha_block(ctx: FieldContext) -> int:
    """The mask of the block {j : alpha in H_j} in Z_k: alpha lies in H_j
    iff bit (1 + j) mod k of the zero-trace mask is set, so it is that
    mask rotated down by one place."""
    z, k = ctx.trace_zero_mask, ctx.k
    return ((z >> 1) | (z << (k - 1))) & ((1 << k) - 1)


def extract_base_block(ctx: FieldContext) -> int:
    """alpha_block, checked to be a base block (block_satisfies_r5)."""
    block = alpha_block(ctx)
    if not block_satisfies_r5(block, ctx.q):
        raise AssertionError("field-derived block violates the shift condition")
    return block


def search_base_blocks(q: int) -> list[int]:
    """Exhaustive search for all valid base blocks of a given even q, as
    masks (bit p set iff position p is in the block).

    Scans every (q-1)-subset of Z_(2q-1); results come back in
    lexicographic order of sorted positions and are closed under cyclic
    shift.  Raises ValueError above SEARCH_Q_CAP.
    """
    if q < 2:
        raise ValueError("q must be at least 2")
    if q % 2 != 0:
        raise ValueError(f"q must be even: q={q} makes lambda = q/2 - 1 not integral")
    if q > SEARCH_Q_CAP:
        raise ValueError(f"q={q} exceeds search cap {SEARCH_Q_CAP}")
    # subsets of the bits 1 << p come in the order of subsets of the p
    bits = [1 << p for p in range(2 * q - 1)]
    return [mask for mask in map(sum, combinations(bits, q - 1)) if block_satisfies_r5(mask, q)]
