"""Independent arithmetic in the GF(2^n) tower, used to check sl2bar's answers.

Nothing here imports sl2bar.  The modulus table is read from its text file,
products are carry-less multiplications reduced mod the table polynomial,
subfields embed by g_m -> g_n^((2^n - 1)/(2^m - 1)), and an element is
reduced to its minimal level by testing a^(2^m) = a for each divisor m and
solving the embedding's linear system.

An element is a ``(level, mask)`` pair at its minimal level; a matrix is a
4-tuple of elements in row-major order.  Cross-level operations return
``None`` when the join level would pass N_MAX, which is the case the
package reports as ``LevelOverflow``.
"""

from __future__ import annotations

import math

N_MAX = 30
ZERO = (1, 0)
ONE = (1, 1)


def load_moduli(path: str) -> dict[int, int]:
    out = {}
    with open(path, encoding="ascii") as fh:
        for raw in fh:
            line = raw.strip()
            if line and not line.startswith("#"):
                n, mask = line.split(":")
                out[int(n)] = int(mask, 16)
    return out


def prime_factors(m: int) -> list[int]:
    out, d = [], 2
    while d * d <= m:
        if m % d == 0:
            out.append(d)
            while m % d == 0:
                m //= d
        d += 1
    if m > 1:
        out.append(m)
    return out


def lit(e) -> str:
    return f"0x{e[1]:x}@{e[0]}"


def mat_lit(M) -> str:
    a, b, c, d = (lit(e) for e in M)
    return f"[[{a},{b}],[{c},{d}]]"


def poly_text(f: int) -> str:
    terms = []
    for i in range(f.bit_length() - 1, -1, -1):
        if f >> i & 1:
            terms.append("1" if i == 0 else "x" if i == 1 else f"x^{i}")
    return "+".join(terms)


class Tower:
    def __init__(self, moduli: dict[int, int]):
        self.moduli = moduli
        self._basis: dict[tuple[int, int], list[int]] = {}
        self._pivots: dict[tuple[int, int], dict[int, tuple[int, int]]] = {}
        self._q1_primes: dict[int, list[int]] = {}

    # -- same-level arithmetic on masks ------------------------------------

    def mul(self, n: int, x: int, y: int) -> int:
        prod = 0
        while y:
            low = y & -y
            prod ^= x << (low.bit_length() - 1)
            y ^= low
        mod = self.moduli[n]
        top = prod.bit_length() - 1
        while top >= n:  # clear the top bit until the degree is below n
            prod ^= mod << (top - n)
            top = prod.bit_length() - 1
        return prod

    def pow(self, n: int, x: int, e: int) -> int:
        if x == 0:
            return 1 if e == 0 else 0
        e %= (1 << n) - 1
        r = 1
        while e:
            if e & 1:
                r = self.mul(n, r, x)
            x = self.mul(n, x, x)
            e >>= 1
        return r

    def inv(self, n: int, x: int) -> int:
        return self.pow(n, x, (1 << n) - 2)

    def frob(self, n: int, x: int, k: int) -> int:
        for _ in range(k):
            x = self.mul(n, x, x)
        return x

    def abs_trace(self, n: int, x: int) -> int:
        acc, t = 0, x
        for _ in range(n):
            acc ^= t
            t = self.mul(n, t, t)
        return acc

    def q1_primes(self, n: int) -> list[int]:
        if n not in self._q1_primes:
            self._q1_primes[n] = prime_factors((1 << n) - 1)
        return self._q1_primes[n]

    # -- the tower ----------------------------------------------------------

    def basis(self, m: int, n: int) -> list[int]:
        """Level-n masks of g_m^i, i < m."""
        key = (m, n)
        if key not in self._basis:
            g = 2 if n > 1 else 1
            img = self.pow(n, g, ((1 << n) - 1) // ((1 << m) - 1))
            out, acc = [], 1
            for _ in range(m):
                out.append(acc)
                acc = self.mul(n, acc, img)
            self._basis[key] = out
        return self._basis[key]

    def lift(self, e, n: int) -> int:
        m, x = e
        if m == n:
            return x
        out = 0
        for i, b in enumerate(self.basis(m, n)):
            if x >> i & 1:
                out ^= b
        return out

    def _solve(self, m: int, n: int, x: int) -> int:
        key = (m, n)
        if key not in self._pivots:
            piv: dict[int, tuple[int, int]] = {}
            for i, v in enumerate(self.basis(m, n)):
                sel = 1 << i
                while v:
                    top = v.bit_length() - 1
                    if top not in piv:
                        piv[top] = (v, sel)
                        break
                    v ^= piv[top][0]
                    sel ^= piv[top][1]
            self._pivots[key] = piv
        piv = self._pivots[key]
        sel = 0
        while x:
            v, s = piv[x.bit_length() - 1]
            x ^= v
            sel ^= s
        return sel

    def reduce(self, n: int, x: int):
        """The minimal-level (level, mask) pair of a level-n mask."""
        if x in (0, 1):
            return (1, x)
        divisors = [m for m in range(1, n) if n % m == 0]
        y = x
        for m in range(1, divisors[-1] + 1 if divisors else 1):
            y = self.mul(n, y, y)  # y = x^(2^m)
            if n % m == 0 and y == x:
                return (m, self._solve(m, n, x))
        return (n, x)

    def join(self, a, b):
        n = math.lcm(a[0], b[0])
        if n > N_MAX:
            return None
        return n, self.lift(a, n), self.lift(b, n)

    def cmul(self, a, b):
        j = self.join(a, b)
        return None if j is None else self.reduce(j[0], self.mul(*j))

    def cadd(self, a, b):
        j = self.join(a, b)
        return None if j is None else self.reduce(j[0], j[1] ^ j[2])

    def cinv(self, a):
        return (a[0], self.inv(a[0], a[1]))

    def cpow(self, a, e: int):
        return self.reduce(a[0], self.pow(a[0], a[1], e))

    def order(self, a) -> int:
        n, x = a
        d = (1 << n) - 1
        for p in self.q1_primes(n):
            while d % p == 0 and self.pow(n, x, d // p) == 1:
                d //= p
        return d

    def orbit_size(self, a) -> int:
        n, x = a
        k, t = 1, self.mul(n, x, x)
        while t != x:
            k, t = k + 1, self.mul(n, t, t)
        return k

    def minpoly(self, a) -> int:
        """Mask of the minimal polynomial: the GF(2)-linear relation that
        writes a^k, k the orbit size, in terms of 1, a, ..., a^(k-1)."""
        n, x = a
        if x == 0:
            return 0b10
        k = self.orbit_size(a)
        piv: dict[int, tuple[int, int]] = {}
        p = 1
        for i in range(k + 1):
            v, sel = p, 1 << i
            while v and v.bit_length() - 1 in piv:
                pv, ps = piv[v.bit_length() - 1]
                v, sel = v ^ pv, sel ^ ps
            if not v:
                return sel
            piv[v.bit_length() - 1] = (v, sel)
            p = self.mul(n, p, x)
        raise ArithmeticError(f"no relation among the powers of {lit(a)}")

    def poly_at(self, f: int, a):
        """Horner evaluation of a GF(2) polynomial mask at a."""
        n, x = a
        acc = 0
        for i in range(f.bit_length() - 1, -1, -1):
            acc = self.mul(n, acc, x) ^ (f >> i & 1)
        return acc

    # -- 2x2 matrices -------------------------------------------------------

    def mmul(self, M, N):
        """Entrywise the same join sequence as sl2bar's mmul; None on overflow."""
        out = []
        for r, s, t, u in ((M[0], N[0], M[1], N[2]), (M[0], N[1], M[1], N[3]),
                           (M[2], N[0], M[3], N[2]), (M[2], N[1], M[3], N[3])):
            p, q = self.cmul(r, s), self.cmul(t, u)
            if p is None or q is None:
                return None
            v = self.cadd(p, q)
            if v is None:
                return None
            out.append(v)
        return tuple(out)

    def det(self, M):
        p, q = self.cmul(M[0], M[3]), self.cmul(M[1], M[2])
        return None if p is None or q is None else self.cadd(p, q)

    def trace(self, M):
        return self.cadd(M[0], M[3])

    def random_sl2(self, rng, n: int):
        """A uniformly random determinant-one matrix with level-n entries,
        each entry at its minimal level."""
        while True:
            a, b, c = (rng.randrange(1 << n) for _ in range(3))
            if a:
                d = self.mul(n, self.inv(n, a), 1 ^ self.mul(n, b, c))
                return tuple(self.reduce(n, v) for v in (a, b, c, d))

    @staticmethod
    def sl2_inv(M):
        """Inverse of a determinant-one matrix: the entry swap [[d,b],[c,a]]."""
        return (M[3], M[1], M[2], M[0])

    def conjugate_by(self, P, M):
        """P M P^(-1) for determinant-one P."""
        return self.mmul(self.mmul(P, M), self.sl2_inv(P))
