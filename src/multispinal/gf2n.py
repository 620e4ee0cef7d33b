"""Exact arithmetic in GF(2^n) presented by a primitive polynomial.

Field elements are plain ints: bit i holds the coordinate of alpha^i, so
0 is the zero element, 1 is the multiplicative identity and 2 (= 0b10) is
alpha itself.  Addition is XOR, multiplication by alpha is one feedback
shift register step, and general products are shift-and-add.  The trace
map Tr(x) = x + x^2 + ... + x^(2^(n-1)) is an additive surjection onto
{0, 1}.

A word-sized bitmask supports degrees up to 63; table-backed contexts
(power table, discrete log) are capped at degree 20.

DEFAULT_POLYS holds one stock primitive polynomial per degree 2..20
(bit k = coefficient of x^k; PrimitivePolynomial.text writes it out).
From n = 17 on, each is the least primitive mask of its degree.
"""

from __future__ import annotations

import re
import sys
from functools import cached_property

DEFAULT_POLYS: dict[int, int] = {
    2: 0x7,
    3: 0xB,
    4: 0x13,
    5: 0x25,
    6: 0x43,
    7: 0x89,
    8: 0x11D,
    9: 0x211,
    10: 0x409,
    11: 0x805,
    12: 0x1053,
    13: 0x201B,
    14: 0x4443,
    15: 0x8003,
    16: 0x1100B,
    17: 0x20009,
    18: 0x40027,
    19: 0x80027,
    20: 0x100009,
}

# Table-backed contexts keep 2^n - 1 powers plus a full trace table in
# memory; beyond this degree use the raw polynomial helpers instead.
MAX_CONTEXT_DEGREE = 20


class PrimitivePolynomial:
    """Monic polynomial over GF(2), encoded as a bitmask (bit k = coeff of x^k).

    The class itself only guarantees monic and degree >= 1; primitivity is
    checked by :func:`is_primitive` and enforced by :class:`FieldContext`.
    Immutable, compared and hashed by mask.  Written out rather than
    derived from multispinal._record.Record, so that the `field`
    subcommand loads no module but gf2n and cli.
    """

    __slots__ = ("mask",)

    def __init__(self, mask: int) -> None:
        if mask < 2:
            raise ValueError(f"polynomial mask {mask:#x} has degree < 1")
        object.__setattr__(self, "mask", mask)

    def __setattr__(self, name, value=None):
        raise AttributeError(f"PrimitivePolynomial is immutable: cannot set or delete {name!r}")

    __delattr__ = __setattr__

    def __reduce__(self):
        return (type(self), (self.mask,))

    def __eq__(self, other):
        return self.mask == other.mask if type(other) is type(self) else NotImplemented

    def __hash__(self) -> int:
        return hash(self.mask)

    def __repr__(self) -> str:
        return f"PrimitivePolynomial(mask={self.mask!r})"

    @property
    def degree(self) -> int:
        return self.mask.bit_length() - 1

    @property
    def text(self) -> str:
        terms = []
        for k in range(self.degree, -1, -1):
            if (self.mask >> k) & 1:
                terms.append("1" if k == 0 else ("x" if k == 1 else f"x^{k}"))
        return " + ".join(terms)

    @classmethod
    def parse(cls, spec: str) -> "PrimitivePolynomial":
        """Parse 'x^3+x+1' style text, or a 0x/0b bitmask, or a decimal mask."""
        s = spec.strip().replace(" ", "")
        if not s:
            raise ValueError("empty polynomial")
        if s.lower().startswith("0x"):
            return cls(int(s, 16))
        if s.lower().startswith("0b"):
            return cls(int(s, 2))
        if s.isdigit():
            return cls(int(s, 10))
        mask = 0
        for term in s.lower().split("+"):
            m = re.fullmatch(r"1|x|x\^(\d+)", term)
            if not m:
                raise ValueError(f"bad polynomial term {term!r} in {spec!r}")
            if term == "1":
                k = 0
            elif term == "x":
                k = 1
            else:
                k = int(m.group(1))
            mask ^= 1 << k  # repeated terms cancel over GF(2)
        if mask == 0:
            raise ValueError(f"polynomial {spec!r} is zero over GF(2)")
        return cls(mask)


def default_poly(n: int) -> PrimitivePolynomial:
    """Stock primitive polynomial of degree n (n = 2..20)."""
    if n not in DEFAULT_POLYS:
        raise ValueError(f"no default primitive polynomial for degree {n}")
    return PrimitivePolynomial(DEFAULT_POLYS[n])


# -- polynomial arithmetic over GF(2)[x], ints as coefficient masks --


def _pmul(a: int, b: int) -> int:
    """Carry-less product of two GF(2)[x] polynomials."""
    r = 0
    while b:
        if b & 1:
            r ^= a
        a <<= 1
        b >>= 1
    return r


def _pmod(a: int, m: int) -> int:
    """Remainder of a modulo m in GF(2)[x]."""
    dm = m.bit_length()
    while a.bit_length() >= dm:
        a ^= m << (a.bit_length() - dm)
    return a


def _pmulmod(a: int, b: int, m: int) -> int:
    return _pmod(_pmul(a, b), m)


def _ppowmod(a: int, e: int, m: int) -> int:
    r = 1
    a = _pmod(a, m)
    while e:
        if e & 1:
            r = _pmulmod(r, a, m)
        a = _pmulmod(a, a, m)
        e >>= 1
    return r


def _factor(m: int) -> list[int]:
    """Distinct prime factors by trial division."""
    primes = []
    d = 2
    while d * d <= m:
        if m % d == 0:
            primes.append(d)
            while m % d == 0:
                m //= d
        d += 1 if d == 2 else 2
    if m > 1:
        primes.append(m)
    return primes


def is_primitive(poly: PrimitivePolynomial) -> bool:
    """True iff the root x of poly generates GF(2^n)^*, k = 2^n - 1.

    Decided by the order test alone: x^k = 1 and x^(k/p) != 1 mod poly
    for every prime p dividing k (factored by trial division; fine up to
    n ~ 30).  That is enough: if x has order k, the ring GF(2)[x]/(poly)
    has 2^n elements of which k are units, so every nonzero element is
    a unit, the ring is a field and poly is irreducible.  Degrees below
    2 are rejected outright: the group construction needs n >= 2.
    """
    n = poly.degree
    if n < 2:
        raise ValueError(f"degree {n} < 2: primitivity check requires n >= 2")
    order = (1 << n) - 1
    if _ppowmod(2, order, poly.mask) != 1:
        return False
    return all(_ppowmod(2, order // p, poly.mask) != 1 for p in _factor(order))


def _alpha_powers(mask: int, n: int) -> tuple[int, ...]:
    """alpha^0 .. alpha^(2^n - 2) by bit-sliced doubling (see FieldContext)."""
    k = (1 << n) - 1
    width, fmt = (16, "H") if n <= 16 else (32, "I")
    # packed holds alpha^0 .. alpha^(length - 1), one per width-bit slot,
    # ones a 1 in bit 0 of each of those slots, last alpha^(length - 1)
    packed = ones = length = last = 1
    while length <= k:
        block, x = 0, last
        for i in range(n):
            x = (x << 1) ^ (mask if x >> (n - 1) else 0)  # alpha^(length + i)
            block ^= ((packed >> i) & ones) * x
        shift = length * width
        packed |= block << shift
        ones |= ones << shift
        last = block >> shift - width
        length *= 2
    # 2^n slots; the last one, alpha^k, is dropped
    words = memoryview(packed.to_bytes(length * width // 8, sys.byteorder)).cast(fmt)
    # big-endian bytes put the last slot first
    return tuple((words if sys.byteorder == "little" else words[::-1])[:k])


class FieldContext:
    """GF(2^n) with a fixed primitive polynomial.

    Carries the full power table alpha^0 .. alpha^(2^n - 2), and builds
    its inverse (the discrete log) and the trace table on first use.
    Immutable after construction; every operation is a pure function of
    its arguments, so a context may be shared freely across threads.

    The power table is built by doubling.  Multiplication by alpha^L is
    GF(2)-linear, so alpha^L x = XOR of alpha^(L+i) over the set bits
    x_i of x.  With alpha^0 .. alpha^(L-1) packed in one int, one per
    16-bit slot (32-bit past n = 16), the next L powers are the XOR over
    i < n of (bit i of every slot) * alpha^(L+i): n big-int steps per
    doubling and n doublings in all.  Construction still checks that the
    k entries are distinct and that alpha^k = 1.

    Raises ValueError if the polynomial is not primitive: every
    downstream construction in this package needs primitivity, so a
    non-primitive input is never silently accepted.
    """

    def __init__(self, poly: PrimitivePolynomial | int | str):
        if isinstance(poly, int):
            poly = PrimitivePolynomial(poly)
        elif isinstance(poly, str):
            poly = PrimitivePolynomial.parse(poly)
        n = poly.degree
        if n < 2:
            raise ValueError(f"field degree {n} < 2 is not supported")
        if n > MAX_CONTEXT_DEGREE:
            raise ValueError(
                f"degree {n} exceeds table cap {MAX_CONTEXT_DEGREE}; "
                "use the polynomial helpers directly"
            )
        if not is_primitive(poly):
            raise ValueError(f"{poly.text} (mask {poly.mask:#x}) is not primitive")
        self.poly = poly
        self.n = n
        self.size = 1 << n
        self.k = self.size - 1       # order of the multiplicative group
        self.q = 1 << (n - 1)        # hyperplane size, half the field
        self._mask = poly.mask
        self._top = 1 << n

        self.power_table: tuple[int, ...] = _alpha_powers(poly.mask, n)
        if len(set(self.power_table)) != self.k:
            raise AssertionError("power table entries are not distinct")
        if self.mul_alpha(self.power_table[-1]) != 1:
            raise AssertionError("alpha^(2^n - 1) != 1")

    # -- element operations -------------------------------------------

    def _check(self, x: int) -> None:
        if not 0 <= x < self.size:
            raise ValueError(f"{x} is not an element of GF(2^{self.n})")

    def add(self, x: int, y: int) -> int:
        """Characteristic-2 sum: coordinate-wise XOR."""
        self._check(x)
        self._check(y)
        return x ^ y

    def mul_alpha(self, x: int) -> int:
        """One feedback-shift-register step: x -> alpha * x."""
        x <<= 1
        if x & self._top:
            x ^= self._mask
        return x

    def mul(self, x: int, y: int) -> int:
        """Field product by shift-and-add; agrees with iterated mul_alpha."""
        self._check(x)
        self._check(y)
        acc = 0
        while y:
            if y & 1:
                acc ^= x
            x = self.mul_alpha(x)
            y >>= 1
        return acc

    def pow_alpha(self, j: int) -> int:
        """alpha^j for any integer j (reduced mod 2^n - 1)."""
        return self.power_table[j % self.k]

    def log(self, x: int) -> int:
        """Discrete log base alpha of a nonzero element."""
        if x == 0:
            raise ValueError("0 has no discrete log")
        return self.discrete_log[x]

    def trace(self, x: int) -> int:
        """Tr(x) = x + x^2 + ... + x^(2^(n-1)), a value in {0, 1}."""
        self._check(x)
        return self.trace_table[x]

    @cached_property
    def discrete_log(self) -> dict[int, int]:
        """The exponent t of each nonzero x = alpha^t."""
        return dict(zip(self.power_table, range(self.k)))

    @cached_property
    def trace_table(self) -> tuple[int, ...]:
        # The trace is GF(2)-linear, so only the n traces of the basis
        # elements 2^i = alpha^i are computed, by the defining sum of
        # squares read from the power table: (alpha^i)^(2^j) =
        # alpha^(i 2^j mod k).  The table of x < 2^(i+1) is the table of
        # x < 2^i followed by the same table with x + 2^i in place of x: a
        # copy, flipped where Tr(2^i) = 1.
        flip = bytes.maketrans(b"\0\1", b"\1\0")
        power, k = self.power_table, self.k
        table = b"\0"
        for i in range(self.n):
            acc = 0
            for j in range(self.n):
                acc ^= power[(i << j) % k]
            if acc not in (0, 1):
                raise AssertionError(f"trace of alpha^{i} fell outside the prime field")
            table += table.translate(flip) if acc else table
        return tuple(table)

    @cached_property
    def trace_of_power(self) -> tuple[int, ...]:
        """Tr(alpha^t) for t = 0 .. 2^n - 2."""
        return tuple(self.trace_table[v] for v in self.power_table)

    @cached_property
    def trace_zero_mask(self) -> int:
        """Bitmask over t = 0 .. 2^n - 2 of the exponents with Tr(alpha^t) = 0."""
        # one base-2 parse of the traces, highest exponent first, with
        # Tr = 0 read as the digit 1: linear in k, where a sum of k
        # single-bit ints would be quadratic
        digits = bytes(self.trace_of_power[::-1]).translate(bytes.maketrans(b"\0\1", b"10"))
        return int(digits, 2)

    # -- whole-field views --------------------------------------------

    def elements(self) -> range:
        return range(self.size)

    def nonzero_elements(self) -> range:
        return range(1, self.size)

    def canonical_elements(self) -> tuple[int, ...]:
        """Row/column element order shared by the inclusion matrix and the
        groupoid membership matrix: [0, alpha^1, ..., alpha^(2^n - 1) = 1].
        """
        return (0,) + tuple(self.power_table[i % self.k] for i in range(1, self.k + 1))

    def joint_kernel_is_trivial(self) -> bool:
        """True iff only 0 lies in every ker(Tr o phi^j), phi = mult. by alpha.

        For x != 0 the elements alpha^j x, j = 0 .. 2^n - 2, run over all
        of GF(2^n)^*, so x lies in every kernel iff Tr vanishes on every
        nonzero element.  The joint kernel is therefore trivial iff
        Tr(y) = 1 for some y, read from the trace table.
        """
        return 1 in self.trace_table

    def __repr__(self) -> str:
        return f"FieldContext(n={self.n}, poly={self.poly.text!r})"


def field_context(n: int, poly: PrimitivePolynomial | int | str | None = None) -> FieldContext:
    """Context for degree n, using the stock polynomial when none is given."""
    if poly is None:
        return FieldContext(default_poly(n))
    ctx = FieldContext(poly)
    if ctx.n != n:
        raise ValueError(f"polynomial degree {ctx.n} does not match requested n={n}")
    return ctx


def field_section(ctx: FieldContext) -> dict:
    """The field section of a certificate: the polynomial and the joint
    kernel check."""
    ok = ctx.joint_kernel_is_trivial()
    return {
        "n": ctx.n,
        "polynomial": {"text": ctx.poly.text, "hex": hex(ctx.poly.mask)},
        "primitive": True,  # FieldContext construction enforces this
        "joint_kernel_trivial": ok,
        "pass": ok,
    }
