"""Exact arithmetic in the binary fields GF(2^n) for 1 <= n <= N_MAX.

An element is a coefficient bit-mask relative to the level-n generator g,
the root x of the level-n modulus from the compatible table: bit i of the
mask is the coefficient of g^i.  Masks never have bits at positions >= n,
zero is the all-zero mask, and one is mask 0b1.  The printable literal is
``0x<hex>@<n>``, e.g. ``0x2@2`` for g at level 2.

All operations here are same-level; combining elements that live at
different levels is the job of the closure module.  Values are immutable
and every function is pure, so the module is safe to use concurrently.

All per-level data lives in one kernel per level, ``LevelTables``, in one
cache that one invalidation hook drops when the modulus table changes.
Its compact exp/log arrays (built by one pure-Python walk g^k -> g^(k+1))
make products, powers and orders lookups, give the maximal-order masks
by a sieve over the exponents, and yield the numpy tables of the
endomorphism scans and the cached product and inverse tables of the
group engine.  Only those numpy members import numpy, on first use, so
the scalar layers and every ``field`` and ``mat`` command run without it;
they read the arrays through zero-copy views and widen to int64 only the
values they gather, so every numpy result is int64.
Levels up to FIRST_TOUCH_MAX get them at first touch, levels up to
LOG_TABLE_MAX only on explicit demand (``ensure_log_table``, the
endomorphism scans); the rest multiply schoolbook through ``gf2poly``
(comb products folded by the modulus 8 bits a step, through the
byte-window table that the kernel registers, and squares read from the
modulus's squaring tables; ``power`` and ``elt_order`` go through
``ppowmod``, which builds one comb of its base per call).  Their kernels
hold byte-window tables of the other GF(2)-linear maps, built on first
use: lifts from and preimages in each subfield, and square roots.  The
preimage tables, and the ``z^2 + z = c`` solver's at every level, come
from one elimination of the unit vectors against an echelon form
(``_preimages``); minimal polynomials run its step, ``_insert``, on the
powers of an element, uncached.
"""

from __future__ import annotations

import math
import re
from array import array
from functools import cached_property
from itertools import compress
from typing import TYPE_CHECKING

from . import conway
from .errors import BoundExceeded, DivisionByZero, InvariantViolated, LevelMismatch, ParseError, TableInvalid
from .gf2poly import Gf2Poly, _comb, _times, divisors, factorize, is_irreducible, linear_map, linear_tables, pinvmod, pmod, pmulmod, ppowmod, register_fold
from .record import Record, _set

if TYPE_CHECKING:
    import numpy as np

N_MAX = conway.N_MAX

# Largest level for which discrete-log table construction is allowed.
LOG_TABLE_MAX = 20
FIRST_TOUCH_MAX = 16  # all log tables up to here take under a megabyte


def check_level(n: int) -> int:
    if not isinstance(n, int) or not 1 <= n <= N_MAX:
        raise BoundExceeded(f"level {n} outside the supported range 1..{N_MAX}")
    return n


class FieldElt(Record):
    """An element of GF(2^level) as a coefficient mask."""

    __slots__ = ("level", "mask")

    def __init__(self, level: int, mask: int):
        _set(self, "level", level)
        _set(self, "mask", mask)
        self.__post_init__()

    def __post_init__(self):  # a method of its own: perfbench's tracer counts checked constructions through it
        check_level(self.level)
        if not 0 <= self.mask < (1 << self.level):
            raise ValueError(f"mask {self.mask:#x} out of range for level {self.level}")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.level, self.mask) == (other.level, other.mask)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.level, self.mask))

    @property
    def is_zero(self) -> bool:
        return self.mask == 0

    @property
    def is_one(self) -> bool:
        return self.mask == 1

    def __str__(self) -> str:
        return f"0x{self.mask:x}@{self.level}"


_new_obj = object.__new__
_set_level = FieldElt.level.__set__
_set_mask = FieldElt.mask.__set__


def _elt(n: int, mask: int) -> FieldElt:
    """Internal constructor for a level and mask already known to be valid."""
    e = _new_obj(FieldElt)
    _set_level(e, n)
    _set_mask(e, mask)
    return e


def gen(n: int) -> FieldElt:
    """The level-n generator: the modulus root x, which is 1 at level 1."""
    return _elt(check_level(n), 2 if n > 1 else 1)


_ELT_RE = re.compile(r"0[xX]([0-9a-fA-F]+)@([0-9]+)\Z")


def parse_elt(text: str) -> FieldElt:
    """Parse an element literal ``0x<hex>@<n>``."""
    m = _ELT_RE.match(text.strip())
    if not m:
        raise ParseError(f"bad element literal {text!r}")
    mask = int(m.group(1), 16)
    try:
        level = int(m.group(2))
    except ValueError:  # more digits than int() converts
        raise ParseError(f"bad element literal {text!r}: level outside 1..{N_MAX}") from None
    if not 1 <= level <= N_MAX:
        raise ParseError(f"bad element literal {text!r}: level {level} outside 1..{N_MAX}")
    if mask >= 1 << level:
        raise ParseError(f"bad element literal {text!r}: mask too wide for level {level}")
    return FieldElt(level, mask)


# ---------------------------------------------------------------------------
# the GF(2) solver


def _insert(pivots: dict[int, tuple[int, int]], v: int, s: int) -> int:
    """One elimination step: reduce the vector v, whose selection of input
    rows is s, by the pivots.  If anything is left it joins them and the
    result is 0; else the result is the selection, now summing to zero."""
    while v:
        lead = v.bit_length() - 1
        p = pivots.get(lead)
        if p is None:
            pivots[lead] = (v, s)
            return 0
        v ^= p[0]
        s ^= p[1]
    return s


def _preimages(vectors: tuple[int, ...], n: int) -> tuple[tuple[int, ...], ...]:
    """``linear_tables`` of the GF(2)-linear map that sends a mask x below
    2^n to s | r << len(vectors): r is x with every pivot bit of the
    vectors' echelon form eliminated, and s selects vectors summing to
    x + r.  So x lies in their span exactly when its image is below
    2^len(vectors), and then s selects vectors that sum to x.  The images
    of the unit vectors x^j fix the map."""
    pivots: dict[int, tuple[int, int]] = {}
    for i, v in enumerate(vectors):
        _insert(pivots, v, 1 << i)
    images = []
    for j in range(n):
        v, s = 1 << j, 0
        for lead in range(j, -1, -1):  # a pivot at lead clears bit lead, touching only the bits below
            p = pivots.get(lead)
            if p is not None and v >> lead & 1:
                v ^= p[0]
                s ^= p[1]
        images.append(s | v << len(vectors))
    return linear_tables(images)


# ---------------------------------------------------------------------------
# the per-level kernel


def _log_arrays(n: int, mod: int) -> tuple[array, array]:
    """Compact exp (g^k, k < 2^n - 1) and log (its inverse) arrays, from
    the walk x -> x g: a shift and, when the degree reaches n, an XOR with
    the modulus.  TableInvalid unless g generates every nonzero mask."""
    q1 = (1 << n) - 1
    code = "H" if n <= 16 else "I"  # uint16 or uint32
    exp = array(code, [0]) * q1
    log = array(code, [0]) * (q1 + 1)
    top = 1 << n
    x = 1
    for k in range(q1):
        exp[k] = x
        log[x] = k
        x <<= 1
        if x & top:
            x ^= mod
    # A primitive walk visits every nonzero mask once and is back at 1 after
    # 2^n - 1 steps, leaving exactly log[0] and log[1] zero.  The count alone
    # would pass x^2 + 1 and x^2 at level 2.
    if x != 1 or log.count(0) != 2:
        raise TableInvalid(f"level {n} modulus {mod:#x} is not primitive")
    return exp, log


class LevelTables:
    """The kernel of one level: everything derived from its modulus.  With
    log tables it holds the compact exp/log arrays the vectorized methods
    read; without, only ``mod`` and the schoolbook path's byte-window
    tables of the linear maps (lifts from and preimages in each subfield,
    square roots), and it registers the modulus's byte-window fold table
    in ``gf2poly``."""

    def __init__(self, n: int, mod: int, logs: bool = False):
        self.n = n
        self.mod = mod
        self.q1 = (1 << n) - 1
        self.exp, self.log = _log_arrays(n, mod) if logs else (None, None)
        if not logs:
            register_fold(mod)
        # (d, (2^n - 1)/(2^d - 1)) for the divisors 1 < d < n, ascending: on
        # logs g^k lies in GF(2^d) exactly when the second divides k
        self.subfields = tuple((d, self.q1 // ((1 << d) - 1)) for d in divisors(n)[1:-1])
        # The scalar routes' tables are filled on first use into the members
        # set here, not through a cached_property: that turns the instance's
        # attributes into a plain dict, and slows every later read of log,
        # exp or mod by about 12 ns.
        self._lifts: dict[int, tuple[tuple[int, ...], ...]] = {}
        self._preimages: dict[int, tuple[tuple[int, ...], ...]] = {}
        self._roots = self._as_preimages = None

    def _np(self) -> tuple[np.ndarray, np.ndarray]:
        """Zero-copy numpy views of the exp and log arrays (uint16 or
        uint32); callers widen only the values they gather."""
        import numpy as np

        return tuple(np.frombuffer(a, dtype=a.typecode) for a in (self.exp, self.log))

    def mul_vec(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Elementwise products of two mask arrays, as int64."""
        import numpy as np

        exp, log = self._np()
        k = (log[x].astype(np.int64) + log[y]) % self.q1
        return np.where((x != 0) & (y != 0), exp[k].astype(np.int64), 0)

    def pow_vec(self, masks: np.ndarray, e: int) -> np.ndarray:
        """masks^e elementwise as int64, with 0^e = 0; on logs the
        Frobenius power x -> x^(2^j) is k -> 2^j k."""
        import numpy as np

        exp, log = self._np()
        k = (log[masks].astype(np.int64) * e) % self.q1
        return np.where(masks != 0, exp[k].astype(np.int64), 0)

    @cached_property
    def mul_table(self) -> np.ndarray:
        """The full product table, MUL[x, y] = x y over all mask pairs:
        4^n entries, built for the group engine's small levels (int64, the
        width its packed codes need)."""
        import numpy as np

        x = np.arange(self.q1 + 1)
        return self.mul_vec(x[:, None], x[None, :])

    @cached_property
    def inv_table(self) -> np.ndarray:
        """INV[x] = x^(-1) for every nonzero mask, and INV[0] = 0."""
        import numpy as np

        return self.pow_vec(np.arange(self.q1 + 1), -1)

    @cached_property
    def squares(self) -> np.ndarray:
        """The table mask -> mask^2, made without the log tables: squaring is
        GF(2)-linear, so the schoolbook squares of the masks g^i fix it."""
        import numpy as np

        x = np.arange(self.q1 + 1, dtype=np.int64)
        out = np.zeros_like(x)
        for i, image in enumerate(self.as_images()):
            out ^= ((x >> i) & 1) * (image ^ (1 << i))
        return out

    @cached_property
    def max_order(self) -> array:
        """The masks of multiplicative order 2^n - 1 in exponent order:
        exp[k] for the k coprime to 2^n - 1, kept by a sieve over k that
        clears the multiples of each prime factor of 2^n - 1."""
        keep = bytearray(b"\1") * self.q1
        for p in factorize(self.q1):
            keep[::p] = bytes(len(range(0, self.q1, p)))
        return array(self.exp.typecode, compress(self.exp, keep))

    def embed_basis(self, m: int) -> tuple[int, ...]:
        """Masks at this level of g_m^i, i < m, under the embedding
        g_m -> g_n^((2^n - 1)/(2^m - 1))."""
        img = ppowmod(2, self.q1 // ((1 << m) - 1), self.mod)
        out = [1]
        for _ in range(m - 1):
            out.append(pmulmod(out[-1], img, self.mod))
        return tuple(out)

    def lifts(self, m: int) -> tuple[tuple[int, ...], ...]:
        """``linear_tables`` of the embedding of level m | n, built once."""
        tables = self._lifts.get(m)
        if tables is None:
            tables = self._lifts[m] = linear_tables(self.embed_basis(m))
        return tables

    def preimages(self, m: int) -> tuple[tuple[int, ...], ...]:
        """``_preimages`` of level m's embedded basis, built once: a mask
        maps below 2^m exactly when it lies in GF(2^m), and then to its
        preimage."""
        tables = self._preimages.get(m)
        if tables is None:
            tables = self._preimages[m] = _preimages(self.embed_basis(m), self.n)
        return tables

    def roots(self) -> tuple[tuple[int, ...], ...]:
        """``linear_tables`` of the GF(2)-linear square root, built once:
        g^(2i) -> g^i and g^(2i+1) -> r g^i, with r = g^(2^(n-1)) the root
        of g."""
        if self._roots is None:
            r = ppowmod(2, 1 << (self.n - 1), self.mod)
            self._roots = linear_tables([pmulmod(r, 1 << (j >> 1), self.mod) if j & 1 else 1 << (j >> 1) for j in range(self.n)])
        return self._roots

    def as_images(self) -> tuple[int, ...]:
        """Schoolbook images of the basis masks g^i under the GF(2)-linear
        z -> z^2 + z."""
        return tuple(pmulmod(1 << i, 1 << i, self.mod) ^ (1 << i) for i in range(self.n))

    def as_preimages(self) -> tuple[tuple[int, ...], ...]:
        """``_preimages`` of the images of z -> z^2 + z, built once; its
        kernel is {0, 1}, so c maps below 2^n exactly when z^2 + z = c has
        a root, and then to one."""
        if self._as_preimages is None:
            self._as_preimages = _preimages(self.as_images(), self.n)
        return self._as_preimages


_LEVELS: dict[int, LevelTables] = {}
conway.register_invalidation_hook(_LEVELS.clear)


def _level(n: int) -> LevelTables:
    """The level-n kernel; first touch builds log tables up to FIRST_TOUCH_MAX."""
    t = _LEVELS.get(n)
    if t is None:
        mod = conway.get_active().poly(n)  # loads the table outside the build
        if n <= FIRST_TOUCH_MAX:
            return ensure_log_table(n)
        t = _LEVELS[n] = LevelTables(n, mod)
    return t


def ensure_log_table(n: int) -> LevelTables:
    """The level-n kernel with its log tables, built (idempotently) on
    demand for any level n <= LOG_TABLE_MAX."""
    if n > LOG_TABLE_MAX:
        raise BoundExceeded(f"log tables limited to levels <= {LOG_TABLE_MAX}, got {n}")
    t = _LEVELS.get(n)
    if t is None or t.log is None:
        t = _LEVELS[n] = LevelTables(n, conway.get_active().poly(n), logs=True)
    return t


# ---------------------------------------------------------------------------
# same-level arithmetic


def _level_mismatch(a: FieldElt, b: FieldElt) -> LevelMismatch:
    return LevelMismatch(f"levels {a.level} and {b.level} differ (join via the closure module)")


def add(a: FieldElt, b: FieldElt) -> FieldElt:
    n = a.level
    if n != b.level:
        raise _level_mismatch(a, b)
    return _elt(n, a.mask ^ b.mask)


def mul(a: FieldElt, b: FieldElt) -> FieldElt:
    n = a.level
    if n != b.level:
        raise _level_mismatch(a, b)
    x, y = a.mask, b.mask
    if not x or not y:
        return _elt(n, 0)
    t = _LEVELS.get(n) or _level(n)
    log = t.log
    if log is None:
        return _elt(n, pmulmod(x, y, t.mod))
    return _elt(n, t.exp[(log[x] + log[y]) % t.q1])


def power(a: FieldElt, e: int) -> FieldElt:
    """a**e; e may be negative only for nonzero a."""
    n, x = a.level, a.mask
    if not x:
        if e < 0:
            raise DivisionByZero("negative power of zero")
        return _elt(n, 1 if e == 0 else 0)
    t = _LEVELS.get(n) or _level(n)
    if t.log is not None:
        return _elt(n, t.exp[t.log[x] * e % t.q1])
    return _elt(n, ppowmod(x, e % t.q1, t.mod))


def inv(a: FieldElt) -> FieldElt:
    """Multiplicative inverse: a log lookup, or without log tables the
    extended Euclidean algorithm against the modulus."""
    n, x = a.level, a.mask
    if x == 0:
        raise DivisionByZero("inverse of zero")
    t = _LEVELS.get(n) or _level(n)
    if t.log is None:
        return _elt(n, pinvmod(x, t.mod))
    return _elt(n, t.exp[-t.log[x] % t.q1])


def frobenius(a: FieldElt) -> FieldElt:
    """The squaring automorphism x -> x^2."""
    return mul(a, a)


def sqrt(a: FieldElt) -> FieldElt:
    """The unique square root, a^(2^(n-1)); inverse of frobenius.  Without
    log tables it reads the root's byte-window tables: the root is
    GF(2)-linear."""
    n, x = a.level, a.mask
    t = _LEVELS.get(n) or _level(n)
    if t.log is not None:
        return power(a, 1 << (n - 1))
    return _elt(n, linear_map(t._roots or t.roots(), x))


def trace_abs(a: FieldElt) -> FieldElt:
    """Absolute trace a + a^2 + a^4 + ...; lands in {0, 1}."""
    acc = a
    t = a
    for _ in range(a.level - 1):
        t = frobenius(t)
        acc = add(acc, t)
    if acc.mask > 1:
        raise InvariantViolated(f"trace of {a} left the prime field: {acc}")
    return acc


def elt_order(a: FieldElt) -> int:
    """Multiplicative order of a nonzero element: (2^n - 1)/gcd(log a, 2^n - 1),
    or without log tables 2^n - 1 stripped of primes p keeping a^(d/p) = 1."""
    if a.mask == 0:
        raise DivisionByZero("order of zero")
    t = _level(a.level)
    d = t.q1
    if t.log is not None:
        return d // math.gcd(t.log[a.mask], d)
    for p in factorize(d):
        while d % p == 0 and power(a, d // p).is_one:
            d //= p
    return d


def minimal_poly(a: FieldElt) -> Gf2Poly:
    """The monic irreducible polynomial over GF(2) with a as a root: the
    first GF(2)-linear relation among 1, a, a^2, ..., found by inserting
    each power into one echelon form (Lidl & Niederreiter, Finite Fields,
    section 3.4).  Its selection of powers is the polynomial's mask."""
    if a.mask == 0:
        return Gf2Poly(0b10)  # x
    n, x = a.level, a.mask
    t = _LEVELS.get(n) or _level(n)
    pivots: dict[int, tuple[int, int]] = {}
    p, i = 1, 0
    comb = _comb(x) if t.log is None else ()  # above the log tables each power is p x, by one comb of x
    while not (f := _insert(pivots, p, 1 << i)):
        i += 1
        p = pmod(_times(comb, p), t.mod) if t.log is None else t.exp[t.log[x] * i % t.q1]
    if n % i or not is_irreducible(f):
        raise InvariantViolated(f"power relation {f:#x} of {a} is not an irreducible factor of x^(2^{n}) - x")
    return Gf2Poly(f)


def artin_schreier_solve(c: FieldElt) -> FieldElt | None:
    """Some z with z^2 + z = c at c's level, or None if there is none.

    The map z -> z^2 + z is linear over GF(2), so this is an n x n linear
    solve, read from the byte-window tables of its preimages; a solution
    exists iff trace_abs(c) = 0, and then the solution set is {z, z+1}.
    The returned solution has bit 0 clear.
    """
    n = c.level
    sel = linear_map(_level(n).as_preimages(), c.mask)
    if sel >> n:
        return None
    return _elt(n, sel & ~1)  # pick the solution with even constant coefficient


__all__ = [
    "N_MAX",
    "FieldElt",
    "LevelTables",
    "add",
    "artin_schreier_solve",
    "check_level",
    "divisors",
    "elt_order",
    "ensure_log_table",
    "frobenius",
    "gen",
    "inv",
    "minimal_poly",
    "mul",
    "parse_elt",
    "power",
    "sqrt",
    "trace_abs",
]
