"""Polynomials over the 2-element field, stored as integer bit-masks.

The polynomial b_n x^n + ... + b_1 x + b_0 is the integer with bit i equal
to b_i, so x is 0b10 and x^2+x+1 is 0b111.  Every nonzero polynomial is
monic (the leading coefficient is the top set bit).  Addition is XOR;
multiplication is carry-less.

The schoolbook product, power, inverse and Horner evaluation modulo a
mask (``pmulmod``, ``ppowmod``, ``pinvmod``, ``peval``) are the package's
only ones: the table validation and the field levels without log tables
share them.  Products run 4-bit windows of one factor over the comb of
the other, its 16 carry-less multiples; squares spread each byte through
a 256-entry table; and both fold back through ``pmod`` (Hankerson,
Menezes & Vanstone, Guide to Elliptic Curve Cryptography, 2004, sections
2.3.3 to 2.3.5).  The modulus of a field level without log tables folds
8 bits a step through its byte-window table, which ``register_fold``
builds for level moduli only; any other modulus folds one bit a step.
A GF(2)-linear map reads one table entry per byte of its input
(``linear_tables``, ``linear_map``).  Squaring by a modulus that has a
fold table is such a map, its tables built on the first square; every
other modulus keeps spread and fold.  A power, an evaluation and
``gf2_field.minimal_poly``'s chain of powers build the comb of their
fixed base once.
Besides raw mask arithmetic the module provides irreducibility and
primitivity tests (primitivity of degree n needs the factorization of
2^n - 1, obtained by memoized trial division) and small integer helpers
(factorize, totient, divisors) used throughout the package.
"""

from __future__ import annotations

from functools import lru_cache

from .record import Record, _set


def degree(f: int) -> int:
    """Degree of the mask f; the zero polynomial has degree -1."""
    return f.bit_length() - 1


def pmod(f: int, m: int) -> int:
    """Remainder of f modulo the nonzero mask m: the fold that every
    product below ends with.  An f already below m returns at once.  A
    field level's modulus has a fold table (``register_fold``), and each
    step clears the top 8 bits of f with one shifted entry (Hankerson,
    Menezes & Vanstone, Guide to Elliptic Curve Cryptography, 2004,
    section 2.3.5); any other modulus clears the top bit of f per step
    with a shifted m, read through ``int.bit_length`` rather than
    ``degree``."""
    dm = m.bit_length()
    if f.bit_length() < dm:  # never true for m = 0
        return f
    if not dm:
        raise ZeroDivisionError("polynomial modulus is zero")
    fold = _FOLDS.get(m)
    if fold is not None:
        n = dm - 1
        while (s := f.bit_length() - dm - 7) > 0:  # more than 8 bits at or above x^n
            f ^= fold[f >> (n + s)] << s
        return f ^ fold[f >> n]
    while (d := f.bit_length()) >= dm:
        f ^= m << (d - dm)
    return f


# _SPREAD[b] is b with a zero after each of its 8 bits: over GF(2) the
# square of a polynomial only interleaves zeros with its coefficients.
_SPREAD = tuple(sum((b >> i & 1) << 2 * i for i in range(8)) for b in range(256))


def _square(f: int) -> int:
    """The carry-less square of f, spread one byte at a time."""
    r = s = 0
    while f:
        r |= _SPREAD[f & 255] << s
        f >>= 8
        s += 16
    return r


def _comb(f: int) -> tuple[int, ...]:
    """The 16 carry-less multiples w*f, deg w < 4, indexed by w."""
    f2, f4, f8 = f << 1, f << 2, f << 3
    f3, f12 = f2 ^ f, f8 ^ f4
    return (0, f, f2, f3, f4, f4 ^ f, f4 ^ f2, f4 ^ f3,
            f8, f8 ^ f, f8 ^ f2, f8 ^ f3, f12, f12 ^ f, f12 ^ f2, f12 ^ f3)


def _times(comb: tuple[int, ...], g: int) -> int:
    """The carry-less product of g and the f whose ``_comb`` is given,
    one 4-bit window of g at a time."""
    r = s = 0
    while g:
        r ^= comb[g & 15] << s
        g >>= 4
        s += 4
    return r


# Byte-window fold tables of the field levels' moduli, m -> R with
# R[(q m) >> deg m] = q m for q < 256: a pure function of m, filled by
# ``register_fold`` for level moduli only, so it holds at most one table
# per level of each modulus table loaded.
_FOLDS: dict[int, tuple[int, ...]] = {}


def register_fold(m: int) -> None:
    """Give the modulus m of a field level its byte-window fold table: the
    256 multiples q m, deg q < 8, from the comb of m, each filed under its
    bits at and above x^(deg m).  Those bits are q XOR carries that stay
    below the top bit of q, so they tell the multiples apart."""
    if m not in _FOLDS:
        n, comb = m.bit_length() - 1, _comb(m)
        table = [0] * 256
        for hi in comb:
            for lo in comb:
                table[(hi << 4 ^ lo) >> n] = hi << 4 ^ lo
        _FOLDS[m] = tuple(table)


def linear_tables(images: list[int] | tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """Byte-window tables of the GF(2)-linear map that sends x^j to
    images[j]: table i holds the images of the masks b x^(8i), b below
    256 (below 2^r on a last window of r < 8 bits), each entry one XOR of
    an entry before it and one image (Hankerson et al., section 2.3.4)."""
    tables = []
    for i in range(0, len(images), 8):
        table = [0]
        for image in images[i:i + 8]:
            table += [v ^ image for v in table]
        tables.append(tuple(table))
    return tuple(tables)


def linear_map(tables: tuple[tuple[int, ...], ...], x: int) -> int:
    """The image of x, below 2^len(images), under the map whose
    ``linear_tables`` are given: one lookup per byte of x."""
    r = i = 0
    while x:
        r ^= tables[i][x & 255]
        x >>= 8
        i += 1
    return r


# Squaring tables of the field levels' moduli, m -> the ``linear_tables``
# of z -> z^2 mod m: built by ``_squaring`` on the first square by a
# modulus that has a fold table, so they too exist for level moduli only.
_SQUARES: dict[int, tuple[tuple[int, ...], ...]] = {}


def _squaring(m: int) -> tuple[tuple[int, ...], ...] | None:
    """The squaring tables of m, built from the reduced squares of x^j,
    j < deg m, when m has a fold table; None for any other modulus."""
    tables = _SQUARES.get(m)
    if tables is None and m in _FOLDS:
        tables = _SQUARES[m] = linear_tables([pmod(1 << 2 * j, m) for j in range(m.bit_length() - 1)])
    return tables


def pmulmod(f: int, g: int, m: int) -> int:
    """f*g modulo the nonzero mask m.  A square (f == g) of an f below
    x^(deg m) reads the squaring tables of a level modulus; any other
    square spreads the bits of f, any other product runs g's 4-bit windows
    over the comb of f, and ``pmod`` folds the result (Hankerson et al.,
    sections 2.3.3-2.3.4)."""
    if f == g:
        squares = _squaring(m)
        if squares is not None and f.bit_length() < m.bit_length():
            return linear_map(squares, f)
        return pmod(_square(f), m)
    return pmod(_times(_comb(f), g), m)


def ppowmod(f: int, e: int, m: int) -> int:
    """f**e modulo m, e >= 0, left to right from the leading bit of e:
    each further bit squares the result (through the squaring tables of
    a level modulus, else spread and folded by ``pmod``), and a set bit
    then multiplies it by f through the one comb of f built for the
    call."""
    if e < 0:
        raise ValueError("negative polynomial exponent")
    f = pmod(f, m)
    comb, r, squares = _comb(f), f if e else 1, _squaring(m)
    for bit in bin(e)[3:]:  # the bits after the leading one
        r = linear_map(squares, r) if squares else pmod(_square(r), m)
        if bit == "1":
            r = pmod(_times(comb, r), m)
    return r


def pinvmod(f: int, m: int) -> int:
    """The inverse of f modulo m by the extended Euclidean algorithm on
    masks (Hankerson, Menezes & Vanstone, Guide to Elliptic Curve
    Cryptography, 2004, Algorithm 2.48).  The invariants are
    g1 f = u and g2 f = v modulo m; each step cancels the leading term of
    the higher of u, v.  ZeroDivisionError when gcd(f, m) != 1."""
    u, v, g1, g2 = pmod(f, m), m, 1, 0
    while u != 1:
        if not u:
            raise ZeroDivisionError(f"{f:#x} is not invertible modulo {m:#x}")
        j = degree(u) - degree(v)
        if j < 0:
            u, v, g1, g2, j = v, u, g2, g1, -j
        u ^= v << j
        g1 ^= g2 << j
    return g1


def peval(f: int, x: int, m: int) -> int:
    """The polynomial f evaluated at the residue x modulo m, by Horner's
    rule, with the comb of x built once."""
    comb = _comb(pmod(x, m))
    acc = 0
    for i in range(degree(f), -1, -1):
        acc = pmod(_times(comb, acc), m) ^ (f >> i & 1)
    return acc


def pgcd(f: int, g: int) -> int:
    while g:
        f, g = g, pmod(f, g)
    return f


def is_irreducible(f: int) -> bool:
    """True iff the mask f is irreducible over the 2-element field.

    Uses the standard criterion: x^(2^n) = x mod f together with
    gcd(x^(2^(n/q)) - x, f) = 1 for every prime q dividing n = deg f.
    """
    n = degree(f)
    if n <= 0:
        return False
    if n == 1:
        return True
    if not f & 1:
        return False  # divisible by x
    checkpoints = {n // q for q in factorize(n)}
    t = 0b10
    for i in range(1, n + 1):
        t = pmod(_square(t), f)
        if i in checkpoints and pgcd(t ^ 0b10, f) != 1:
            return False
    return t == 0b10


def is_primitive(f: int) -> bool:
    """True iff f is irreducible of degree n and x generates the
    multiplicative group of the quotient field (order 2^n - 1)."""
    return is_irreducible(f) and x_generates(f)


def x_generates(f: int) -> bool:
    """For an irreducible f of degree n: true iff x has order 2^n - 1
    modulo f, that is, iff f is primitive."""
    n = degree(f)
    if n <= 0 or not f & 1:
        return False
    order = (1 << n) - 1
    return all(ppowmod(0b10, order // p, f) != 1 for p in factorize(order))


def poly_str(f: int) -> str:
    """Human-readable form, e.g. 0b111 -> 'x^2+x+1'."""
    if f == 0:
        return "0"
    terms = []
    for i in range(degree(f), -1, -1):
        if f >> i & 1:
            terms.append("1" if i == 0 else ("x" if i == 1 else f"x^{i}"))
    return "+".join(terms)


class Gf2Poly(Record):
    """A nonzero (hence monic) polynomial over the 2-element field."""

    __slots__ = ("mask",)

    def __init__(self, mask: int):
        if mask <= 0:
            raise ValueError("Gf2Poly mask must be a positive integer")
        _set(self, "mask", mask)

    @property
    def degree(self) -> int:
        return degree(self.mask)

    def is_irreducible(self) -> bool:
        return is_irreducible(self.mask)

    def __str__(self) -> str:
        return poly_str(self.mask)


# ---------------------------------------------------------------------------
# integer helpers


@lru_cache(maxsize=None)
def factorize(m: int) -> tuple[int, ...]:
    """Distinct prime factors of m >= 1 by trial division, ascending."""
    if m < 1:
        raise ValueError("factorize expects a positive integer")
    out = []
    d = 2
    while d * d <= m:
        if m % d == 0:
            out.append(d)
            while m % d == 0:
                m //= d
        d += 1 if d == 2 else 2
    if m > 1:
        out.append(m)
    return tuple(out)


def totient(m: int) -> int:
    """Euler totient of m >= 1."""
    t = m
    for p in factorize(m):
        t -= t // p
    return t


@lru_cache(maxsize=None)
def divisors(n: int) -> tuple[int, ...]:
    """All positive divisors of n, ascending."""
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    return tuple(small + large[::-1])
