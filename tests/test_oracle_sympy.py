"""The modulus table and the field kernel against sympy's galoistools,
an implementation of GF(2)[x] arithmetic that shares no code with this
package.  sympy is a test-only dependency."""

import math
import random

import pytest

from sl2bar import conway, gf2_field as gf, gf2poly
from sl2bar.closure import cmul, lift, reduce_elt
from sl2bar.gf2_field import N_MAX, FieldElt, minimal_poly, mul
from sl2bar.gf2poly import divisors

gt = pytest.importorskip("sympy.polys.galoistools")
from sympy import factorint  # noqa: E402
from sympy.polys.domains import ZZ  # noqa: E402

X = [1, 0]  # the polynomial x, coefficients highest degree first


def to_poly(mask: int) -> list[int]:
    return [mask >> i & 1 for i in range(mask.bit_length() - 1, -1, -1)]


def to_mask(poly: list[int]) -> int:
    mask = 0
    for c in poly:
        mask = mask << 1 | int(c)
    return mask


def modulus(n: int) -> list[int]:
    return to_poly(conway.get_active().poly(n))


def embed(mask: int, m: int, n: int) -> list[int]:
    """Image of a level-m mask at level n: its polynomial evaluated at
    x^((2^n - 1)/(2^m - 1)) modulo the level-n modulus."""
    fn = modulus(n)
    root = gt.gf_pow_mod(X, ((1 << n) - 1) // ((1 << m) - 1), fn, 2, ZZ)
    return gt.gf_compose_mod(to_poly(mask), root, fn, 2, ZZ)


@pytest.mark.parametrize("n", range(1, N_MAX + 1))
def test_table_entry_irreducible_primitive_norm_compatible(n):
    f = modulus(n)
    assert len(f) == n + 1
    assert gt.gf_irreducible_p(f, 2, ZZ)
    order = (1 << n) - 1
    assert gt.gf_pow_mod(X, order, f, 2, ZZ) == [1]
    for p in factorint(order):
        assert gt.gf_pow_mod(X, order // p, f, 2, ZZ) != [1], (n, p)
    for m in divisors(n)[:-1]:
        root = gt.gf_pow_mod(X, order // ((1 << m) - 1), f, 2, ZZ)
        assert gt.gf_compose_mod(modulus(m), root, f, 2, ZZ) == [], (m, n)


def test_products_and_cross_level_products():
    rng = random.Random(90210)
    for n in range(1, N_MAX + 1):
        fn = modulus(n)
        for _ in range(25):
            x, y = rng.randrange(1 << n), rng.randrange(1 << n)
            want = to_mask(gt.gf_rem(gt.gf_mul(to_poly(x), to_poly(y), 2, ZZ), fn, 2, ZZ))
            assert mul(FieldElt(n, x), FieldElt(n, y)).mask == want, (n, x, y)
    for _ in range(300):
        m1, m2 = rng.randint(1, N_MAX), rng.randint(1, N_MAX)
        n = math.lcm(m1, m2)
        if n > N_MAX:
            continue
        x, y = rng.randrange(1, 1 << m1), rng.randrange(1, 1 << m2)
        got = cmul(reduce_elt(FieldElt(m1, x)), reduce_elt(FieldElt(m2, y)))
        want = gt.gf_rem(gt.gf_mul(embed(x, m1, n), embed(y, m2, n), 2, ZZ), modulus(n), 2, ZZ)
        assert to_poly(lift(got.elt, n).mask) == want, (m1, x, m2, y)


def test_one_wrong_fold_entry_fails_the_products(monkeypatch):
    # entry 0x80 of the level-25 fold table, which the products above read,
    # off by x^0; a fresh level-25 kernel keeps the faulty subfield tables
    # it builds out of the shared one, and the squaring tables are rebuilt
    # from the faulty fold, as a fault there from the start would leave them
    m = conway.get_active().poly(25)
    monkeypatch.setitem(gf._LEVELS, 25, gf.LevelTables(25, m))
    monkeypatch.delitem(gf2poly._SQUARES, m, raising=False)
    table = gf2poly._FOLDS[m]
    monkeypatch.setitem(gf2poly._FOLDS, m, table[:0x80] + (table[0x80] ^ 1,) + table[0x81:])
    with pytest.raises(AssertionError):
        test_products_and_cross_level_products()


def test_powers_orders_roots_and_traces_at_every_level():
    # the routes above the log tables square through byte-window tables;
    # every level's powers, orders, square roots and traces against
    # sympy's gf_pow_mod, on the generator, a mask with every bit set and
    # seeded masks
    rng = random.Random(2718)
    for n in range(1, N_MAX + 1):
        fn, q1 = modulus(n), (1 << n) - 1
        for x in [1 << (n > 1), q1, *(rng.randrange(1, 1 << n) for _ in range(4))]:
            a, p = FieldElt(n, x), to_poly(x)
            for e in (2, rng.randrange(q1 + 1), rng.randrange(1 << 40)):
                assert gf.power(a, e).mask == to_mask(gt.gf_pow_mod(p, e, fn, 2, ZZ)), (n, x, e)
            d = gf.elt_order(a)
            assert q1 % d == 0 and gt.gf_pow_mod(p, d, fn, 2, ZZ) == [1], (n, x)
            assert all(gt.gf_pow_mod(p, d // r, fn, 2, ZZ) != [1] for r in factorint(d)), (n, x)
            assert to_poly(gf.sqrt(a).mask) == gt.gf_pow_mod(p, 1 << (n - 1), fn, 2, ZZ), (n, x)
            trace, y = [], p
            for _ in range(n):
                trace, y = gt.gf_add(trace, y, 2, ZZ), gt.gf_pow_mod(y, 2, fn, 2, ZZ)
            assert gf.trace_abs(a).mask == to_mask(trace), (n, x)


def test_one_wrong_squaring_entry_fails_the_powers(monkeypatch):
    # entry 0xff of the second window of the level-25 squaring table, which
    # the mask with every bit set reads, off by x^0; a fresh level-25 kernel
    # keeps the faulty tables it builds out of the shared one
    m = conway.get_active().poly(25)
    monkeypatch.setitem(gf._LEVELS, 25, gf.LevelTables(25, m))
    gf2poly.pmulmod(2, 2, m)
    tables = gf2poly._SQUARES[m]
    faulty = tables[1][:0xff] + (tables[1][0xff] ^ 1,)
    monkeypatch.setitem(gf2poly._SQUARES, m, (tables[0], faulty, *tables[2:]))
    with pytest.raises(AssertionError):
        test_powers_orders_roots_and_traces_at_every_level()


def test_reported_minimal_level_is_minimal():
    rng = random.Random(31337)
    for n in range(2, N_MAX + 1):
        fn = modulus(n)
        samples = [rng.randrange(2, 1 << n) for _ in range(8)]
        for m in divisors(n)[1:-1]:
            samples += [to_mask(embed(rng.randrange(2, 1 << m), m, n)) for _ in range(4)]
        for x in samples:
            level = reduce_elt(FieldElt(n, x)).level
            for d in divisors(n):
                fixed = gt.gf_pow_mod(to_poly(x), 1 << d, fn, 2, ZZ) == to_poly(x)
                if d == level:
                    assert fixed, (n, x, d)
                elif d < level:
                    assert not fixed, (n, x, d)


def test_minimal_poly_at_every_level():
    rng = random.Random(4242)
    for n in range(1, N_MAX + 1):
        fn = modulus(n)
        for x in [0, 1, *(rng.randrange(1 << n) for _ in range(8))]:
            f = to_poly(minimal_poly(FieldElt(n, x)).mask)
            assert gt.gf_irreducible_p(f, 2, ZZ), (n, x)
            assert gt.gf_compose_mod(f, to_poly(x), fn, 2, ZZ) == [], (n, x)
            a = y = to_poly(x)
            orbit = 0
            while orbit == 0 or y != a:
                y = gt.gf_pow_mod(y, 2, fn, 2, ZZ)
                orbit += 1
            assert len(f) - 1 == orbit, (n, x)
