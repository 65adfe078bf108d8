"""The union of the binary field tower as a direct limit.

A closure element is stored at its minimal level: the smallest m such
that the element lies in GF(2^m).  The compatible modulus table makes the
embedding GF(2^m) -> GF(2^n) for m | n canonical (send the level-m
generator to the level-n generator raised to (2^n - 1)/(2^m - 1)), so
equality, hashing, and printing of minimal representatives are all
well-defined.

Binary operations join both operands to the lcm of their levels, operate
there, and reduce the result back to minimal level.  Joins past N_MAX
fail loudly with the offending lcm named; the finite window is explicit,
never approximated.

Lifting and subfield membership are O(1) lookups in the field module's
per-level kernels where the target level has log tables: g_m^k lifts to
g_n^(k e), e = (2^n - 1)/(2^m - 1), and log k lies in the level-m
subfield exactly when e divides k, so reduction there reads the log once
and takes the least such subfield.  Other levels read the kernel's
byte-window tables of the lift and of the subfield preimage (``_unlift``),
one lookup per byte, and reduction descends through maximal subfields,
one membership test per prime factor of the level at each step.
"""

from __future__ import annotations

import math

from .errors import LevelOverflow, NotADivisor
from .gf2_field import (
    N_MAX,
    _LEVELS,
    FieldElt,
    _elt,
    _level,
    add,
    elt_order,
    inv,
    mul,
    parse_elt,
    power,
    sqrt,
)
from .gf2poly import factorize, linear_map
from .record import Record, _set


class ClosureElt(Record):
    """A closure element held by its minimal-level representative.

    Construct through ``reduce_elt`` (or ``celt``/``parse``); the raw
    constructor trusts that ``elt`` is already minimal.
    """

    __slots__ = ("elt",)

    def __init__(self, elt: FieldElt):
        _set(self, "elt", elt)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.elt == other.elt
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.elt,))

    @property
    def level(self) -> int:
        return self.elt.level

    @property
    def mask(self) -> int:
        return self.elt.mask

    @property
    def is_zero(self) -> bool:
        return self.elt.is_zero

    @property
    def is_one(self) -> bool:
        return self.elt.is_one

    def __str__(self) -> str:
        return str(self.elt)


ZERO = ClosureElt(FieldElt(1, 0))
ONE = ClosureElt(FieldElt(1, 1))


def lift(a: FieldElt, n: int) -> FieldElt:
    """Image of a under the canonical embedding into level n.

    Requires a.level | n and n <= N_MAX.  A ring homomorphism fixing 0, 1.
    """
    m = a.level
    if n > N_MAX or n < 1:
        raise LevelOverflow(f"lift target level {n} outside 1..{N_MAX}")
    if n % m != 0:
        raise NotADivisor(f"level {m} does not divide target level {n}")
    if m == n:
        return a
    x = a.mask
    if x <= 1:
        return _elt(n, x)
    t = _LEVELS.get(n) or _level(n)
    if t.log is not None:  # g_m^k -> g_n^(k e)
        return _elt(n, t.exp[_level(m).log[x] * (t.q1 // ((1 << m) - 1))])
    return _elt(n, linear_map(t._lifts.get(m) or t.lifts(m), x))


def _unlift(mask: int, m: int, n: int) -> int | None:
    """Preimage at level m | n of a level-n mask, or None when the mask
    lies outside the level-m subfield: one read of the kernel's preimage
    tables per byte of the mask, at any level."""
    t = _LEVELS.get(n) or _level(n)
    pre = linear_map(t._preimages.get(m) or t.preimages(m), mask)
    return None if pre >> m else pre


def reduce_elt(a: FieldElt) -> ClosureElt:
    """Canonicalize to the minimal level: the smallest divisor m of
    a.level whose subfield contains a.  On log tables that is one step:
    g^k lies in GF(2^d) exactly when e_d = (2^n - 1)/(2^d - 1) divides k,
    so m is the least such divisor d, and the preimage is g_d^(k / e_d).
    Without, for k | n, a lies in GF(2^k) exactly when m | k, so a
    descends through maximal subfields: it recurses on its preimage in
    the first GF(2^(n/p)), p a prime factor of n, that holds it, and a
    level none of them holds is minimal.  An element already minimal
    costs omega(n) tests.  The steps' preimages compose to the preimage
    under the direct embedding because the table is norm compatible,
    which ``conway.validate_table`` and c13 check."""
    n, x = a.level, a.mask
    if x <= 1:
        return ONE if x else ZERO
    t = _LEVELS.get(n) or _level(n)
    if t.log is not None:
        k = t.log[x]
        for d, e in t.subfields:
            if not k % e:
                return ClosureElt(_elt(d, _level(d).exp[k // e]))
        return ClosureElt(a)
    for p in factorize(n):
        pre = _unlift(x, n // p, n) if p < n else None  # GF(2) holds no x >= 2
        if pre is not None:
            return reduce_elt(_elt(n // p, pre))
    return ClosureElt(a)


def celt(level: int, mask: int) -> ClosureElt:
    return reduce_elt(FieldElt(level, mask))


def parse(text: str) -> ClosureElt:
    return reduce_elt(parse_elt(text))


def join(a: ClosureElt, b: ClosureElt) -> tuple[FieldElt, FieldElt]:
    """Both operands lifted to the lcm of their minimal levels."""
    x, y = a.elt, b.elt
    if x.level == y.level:
        return x, y
    n = math.lcm(x.level, y.level)
    if n > N_MAX:
        raise LevelOverflow(f"join needs level {n} = lcm({x.level}, {y.level}) > {N_MAX}")
    return lift(x, n), lift(y, n)


def cadd(a: ClosureElt, b: ClosureElt) -> ClosureElt:
    x, y = join(a, b)
    return reduce_elt(add(x, y))


def cmul(a: ClosureElt, b: ClosureElt) -> ClosureElt:
    x, y = join(a, b)
    return reduce_elt(mul(x, y))


def cinv(a: ClosureElt) -> ClosureElt:
    # inversion stays inside the subfield the element generates
    return ClosureElt(inv(a.elt))


def csqrt(a: ClosureElt) -> ClosureElt:
    # so does the unique square root (its square generates the same field)
    return ClosureElt(sqrt(a.elt))


def cpow(a: ClosureElt, e: int) -> ClosureElt:
    return reduce_elt(power(a.elt, e))


def corder(a: ClosureElt) -> int:
    return elt_order(a.elt)


__all__ = [
    "ZERO",
    "ONE",
    "ClosureElt",
    "cadd",
    "celt",
    "cinv",
    "cmul",
    "corder",
    "cpow",
    "csqrt",
    "join",
    "lift",
    "parse",
    "reduce_elt",
]
