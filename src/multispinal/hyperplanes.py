"""Index-2 subgroups of GF(2^n) and the 2-design they carry.

H_j = ker(Tr o phi^j) for j = 0 .. 2^n - 2 are the 2^n - 1 distinct
additive subgroups of order 2^(n-1).  Dropping the zero element, their
incidence structure on the nonzero field elements is a
2-(2q-1, q-1, q/2-1) design with q = 2^(n-1).  The same combinatorics is
available abstractly through base blocks: (q-1)-subsets of Z_(2q-1)
whose cyclic shift-intersections all have size q/2 - 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .gf2n import FieldContext


@dataclass(frozen=True)
class Hyperplane:
    """One subgroup H_j, members stored as a bitmask over field elements."""

    index: int
    members: int
    n: int

    def __contains__(self, x: int) -> bool:
        return bool((self.members >> x) & 1)

    def elements(self):
        for x in range(1 << self.n):
            if (self.members >> x) & 1:
                yield x

    @property
    def size(self) -> int:
        return self.members.bit_count()


@dataclass(frozen=True)
class DesignParams:
    v: int           # number of points (nonzero field elements)
    block_size: int  # points per block (subgroup minus zero)
    lam: int         # blocks through each point pair

    def as_tuple(self) -> tuple[int, int, int]:
        return (self.v, self.block_size, self.lam)


@dataclass(frozen=True)
class BaseBlock:
    """A (q-1)-subset of Z_(2q-1) with constant shift-intersection q/2 - 1."""

    q: int
    positions: frozenset[int]

    @property
    def k(self) -> int:
        return 2 * self.q - 1

    def sorted_positions(self) -> tuple[int, ...]:
        return tuple(sorted(self.positions))


class DesignError(ValueError):
    """A design count failed; carries the offending point or pair."""

    def __init__(self, message: str, offender=None):
        super().__init__(message)
        self.offender = offender


def set_bits(mask: int):
    """Indices of the set bits of mask, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def block_satisfies_r5(positions, k: int, lam: int) -> bool:
    """Check |B ∩ (B - d)| = lam for every shift d != 0 mod k.

    Checking every nonzero d is the strong reading of the shift condition;
    it is equivalent to the range d = 1..q-1 because the intersection
    counts for d and k-d coincide (x -> x - d is a bijection between the
    two index sets).
    """
    pos = set(positions)
    for d in range(1, k):
        hits = sum(1 for p in pos if (p + d) % k in pos)
        if hits != lam:
            return False
    return True


def build_hyperplanes(ctx: FieldContext) -> list[Hyperplane]:
    """All 2^n - 1 subgroups ker(Tr o phi^j), indexed by j."""
    tp = ctx.trace_of_power
    k = ctx.k
    planes = []
    for j in range(k):
        mask = 1  # 0 lies in every kernel
        for x in ctx.nonzero_elements():
            if tp[(ctx.discrete_log[x] + j) % k] == 0:
                mask |= 1 << x
        planes.append(Hyperplane(index=j, members=mask, n=ctx.n))
    return planes


def membership_profile(ctx: FieldContext, x: int) -> int:
    """Bitmask over j of the subgroups containing x (bit j <=> x in H_j)."""
    full = (1 << ctx.k) - 1
    if x == 0:
        return full
    # bit j is bit (log x + j) mod k of the zero-trace mask: rotate it down
    lx = ctx.discrete_log[x]
    z = ctx.trace_zero_mask
    return ((z >> lx) | (z << (ctx.k - lx))) & full


def pair_count(ctx: FieldContext, l1: int, l2: int) -> int:
    """Number of j with both alpha^l1 and alpha^l2 in H_j.

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


def verify_design(hyperplanes: list[Hyperplane]) -> DesignParams:
    """Certify the 2-design on the nonzero points and return its parameters.

    Blocks are the subgroups with zero removed.  Raises DesignError naming
    the first offending point or pair if any replication or pair count is
    off.
    """
    if not hyperplanes:
        raise DesignError("empty hyperplane list")
    n = hyperplanes[0].n
    size = 1 << n
    k = size - 1
    q = size // 2
    lam = q // 2 - 1
    if len(hyperplanes) != k:
        raise DesignError(f"expected {k} blocks, got {len(hyperplanes)}")
    for h in hyperplanes:
        if h.size != q:
            raise DesignError(f"H_{h.index} has {h.size} members, expected {q}", h.index)
        if 0 not in h:
            raise DesignError(f"H_{h.index} does not contain 0", h.index)
    if len({h.members for h in hyperplanes}) != k:
        raise DesignError("hyperplanes are not pairwise distinct")

    # one pass over each plane's member bits builds every point's profile
    profiles = [0] * size
    points = (1 << size) - 2  # the nonzero field elements
    for j, h in enumerate(hyperplanes):
        for x in set_bits(h.members & points):
            profiles[x] |= 1 << j
    for x in range(1, size):
        c = profiles[x].bit_count()
        if c != q - 1:
            raise DesignError(f"point {x} lies in {c} blocks, expected {q - 1}", x)
    for x, y in combinations(range(1, size), 2):
        c = (profiles[x] & profiles[y]).bit_count()
        if c != lam:
            raise DesignError(
                f"pair ({x}, {y}) lies in {c} blocks, expected {lam}", (x, y)
            )
    return DesignParams(v=k, block_size=q - 1, lam=lam)


def extract_base_block(ctx: FieldContext) -> BaseBlock:
    """The block {j : alpha in H_j} as a subset of Z_k (0-based indices)."""
    prof = membership_profile(ctx, ctx.pow_alpha(1))
    positions = frozenset(j for j in range(ctx.k) if (prof >> j) & 1)
    block = BaseBlock(q=ctx.q, positions=positions)
    lam = ctx.q // 2 - 1
    if len(positions) != ctx.q - 1 or not block_satisfies_r5(positions, ctx.k, lam):
        raise AssertionError("field-derived block violates the shift condition")
    return block


def search_base_blocks(q: int, max_q: int = 10) -> list[BaseBlock]:
    """Exhaustive search for all valid base blocks of a given even q.

    Scans every (q-1)-subset of Z_(2q-1); results come back in
    lexicographic order of sorted positions and are closed under cyclic
    shift.  Capped at q = 10 by default (C(19,9) ~ 92k subsets).
    """
    if q < 2:
        raise ValueError("q must be at least 2")
    if q % 2 != 0:
        raise ValueError(f"q must be even: q={q} makes lambda = q/2 - 1 not integral")
    if q > max_q:
        raise ValueError(f"q={q} exceeds search cap {max_q}")
    k = 2 * q - 1
    lam = q // 2 - 1
    found = []
    for subset in combinations(range(k), q - 1):
        if block_satisfies_r5(subset, k, lam):
            found.append(BaseBlock(q=q, positions=frozenset(subset)))
    return found


def shift_block(block: BaseBlock, r: int) -> BaseBlock:
    """Cyclic shift of a base block by r positions."""
    k = block.k
    return BaseBlock(q=block.q, positions=frozenset((p + r) % k for p in block.positions))
