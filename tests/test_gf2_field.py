"""Field arithmetic against frozen small-field oracles and invariants."""

import random

import pytest
from hypothesis import given, strategies as st

from sl2bar import conway, gf2poly
from sl2bar.errors import BoundExceeded, DivisionByZero, LevelMismatch, ParseError
from sl2bar.gf2_field import (
    FieldElt,
    add,
    artin_schreier_solve,
    elt_order,
    ensure_log_table,
    frobenius,
    gen,
    inv,
    minimal_poly,
    mul,
    parse_elt,
    power,
    sqrt,
    trace_abs,
)
from sl2bar.gf2poly import totient


def oracle_mul(x, y, n):
    """Independent product: expand, then reduce by long division."""
    mod = conway.get_active().poly(n)
    prod = 0
    for i in range(n):
        if x >> i & 1:
            prod ^= y << i
    for d in range(2 * n - 2, n - 1, -1):
        if prod >> d & 1:
            prod ^= mod << (d - n)
    return prod


def orbit(a):
    """Distinct iterates a, a^2, a^4, ...: the conjugates of a."""
    out = [a]
    t = frobenius(a)
    while t != a:
        out.append(t)
        t = frobenius(t)
    return out


def conjugate_product(a):
    """The mask of the product of (x + r) over the conjugates r of a, the
    textbook definition of the minimal polynomial, multiplied out over
    the field; its coefficients must land in GF(2)."""
    n = a.level
    coeffs = [FieldElt(n, 1)]  # ascending
    for r in orbit(a):
        nxt = [FieldElt(n, 0)] * (len(coeffs) + 1)
        for i, c in enumerate(coeffs):
            nxt[i + 1] = add(nxt[i + 1], c)
            nxt[i] = add(nxt[i], mul(c, r))
        coeffs = nxt
    assert all(c.mask in (0, 1) for c in coeffs)
    return sum(c.mask << i for i, c in enumerate(coeffs))


def levels_strategy(levels=(1, 2, 3, 4, 6, 8)):
    return st.sampled_from(levels)


@st.composite
def field_elts(draw, levels=(1, 2, 3, 4, 6, 8)):
    n = draw(levels_strategy(levels))
    return FieldElt(n, draw(st.integers(0, (1 << n) - 1)))


# ---------------------------------------------------------------------------
# frozen examples


def test_add_examples():
    g = gen(2)
    assert add(g, g) == FieldElt(2, 0)
    assert add(g, FieldElt(2, 1)) == FieldElt(2, 0x3)
    assert add(FieldElt(2, 0x3), g) == FieldElt(2, 1)
    with pytest.raises(LevelMismatch):
        add(gen(2), gen(3))


def test_mul_examples():
    g = gen(2)
    assert mul(g, g) == FieldElt(2, 0x3)  # the only irreducible quadratic forces g^2 = g+1
    assert mul(g, FieldElt(2, 1)) == g
    assert mul(g, FieldElt(2, 0x3)) == FieldElt(2, 1)  # g^3 = 1 in the 3-element unit group


def test_inv_examples():
    assert inv(FieldElt(1, 1)) == FieldElt(1, 1)
    assert inv(gen(2)) == FieldElt(2, 0x3)
    got = inv(gen(3))
    assert mul(gen(3), got) == FieldElt(3, 1)
    # oracle: exhaustive search over the 8 elements
    brute = [m for m in range(8) if oracle_mul(2, m, 3) == 1]
    assert brute == [got.mask]
    with pytest.raises(DivisionByZero):
        inv(FieldElt(4, 0))


def test_frobenius_and_sqrt_examples():
    assert frobenius(FieldElt(3, 0)) == FieldElt(3, 0)
    assert frobenius(FieldElt(3, 1)) == FieldElt(3, 1)
    assert frobenius(gen(2)) == FieldElt(2, 0x3)
    assert sqrt(FieldElt(5, 1)) == FieldElt(5, 1)
    assert sqrt(gen(2)) == FieldElt(2, 0x3)  # (g+1)^2 = g by exhaustive squaring
    assert sqrt(gen(3)) == FieldElt(3, 0x6)


def test_power_examples():
    g = gen(2)
    assert power(g, 0) == FieldElt(2, 1)
    assert power(g, 3) == FieldElt(2, 1)
    assert power(g, 2) == frobenius(g)
    assert power(FieldElt(2, 0), 5) == FieldElt(2, 0)
    assert power(FieldElt(2, 0), 0) == FieldElt(2, 1)
    assert power(g, -1) == inv(g)
    with pytest.raises(DivisionByZero):
        power(FieldElt(2, 0), -1)


def test_elt_order_examples():
    assert elt_order(FieldElt(4, 1)) == 1
    assert elt_order(gen(2)) == 3
    with pytest.raises(DivisionByZero):
        elt_order(FieldElt(2, 0))
    # oracle: repeated multiplication
    for mask in range(1, 16):
        a = FieldElt(4, mask)
        acc, d = a, 1
        while not acc.is_one:
            acc = mul(acc, a)
            d += 1
        assert d == elt_order(a)


def test_minimal_poly_examples():
    assert minimal_poly(FieldElt(5, 0)).mask == 0b10  # x
    assert minimal_poly(FieldElt(5, 1)).mask == 0b11  # x+1
    assert minimal_poly(gen(2)).mask == 0b111


def test_frobenius_orbit_examples():
    assert orbit(FieldElt(6, 1)) == [FieldElt(6, 1)]
    assert [e.mask for e in orbit(gen(2))] == [0x2, 0x3]


def test_artin_schreier_examples():
    assert artin_schreier_solve(FieldElt(3, 0)) == FieldElt(3, 0)
    assert artin_schreier_solve(FieldElt(1, 1)) is None
    assert artin_schreier_solve(FieldElt(2, 1)) == gen(2)  # g^2+g = 1 over the 4 elements


def test_trace_examples():
    assert trace_abs(FieldElt(4, 0)).is_zero
    assert trace_abs(FieldElt(2, 1)).is_zero  # 1 + 1^2 = 0
    assert trace_abs(FieldElt(1, 1)).is_one


def test_elements_of_max_order_examples():
    assert ensure_log_table(2).max_order.tolist() == [0x2, 0x3]
    assert len(ensure_log_table(4).max_order) == 8 == totient(15)
    assert ensure_log_table(1).max_order.tolist() == [1]
    with pytest.raises(BoundExceeded):
        ensure_log_table(21)


def test_literals():
    assert str(FieldElt(2, 3)) == "0x3@2"
    assert parse_elt("0x3@2") == FieldElt(2, 3)
    assert parse_elt(" 0xA@5 ") == FieldElt(5, 10)
    for bad in ("0x4@2", "3@2", "0x3", "0x3@0", "0x3@99", "junk"):
        with pytest.raises(ParseError):
            parse_elt(bad)


# ---------------------------------------------------------------------------
# invariants


@given(field_elts(), field_elts())
def test_char2_and_frobenius_additivity(a, b):
    if a.level != b.level:
        return
    assert add(a, a).is_zero
    assert frobenius(add(a, b)) == add(frobenius(a), frobenius(b))


def test_char2_exhaustive_small_levels():
    for n in range(1, 9):
        for x in range(1 << n):
            a = FieldElt(n, x)
            assert add(a, a).is_zero
            assert sqrt(frobenius(a)) == a
            assert frobenius(sqrt(a)) == a
            t = a
            for _ in range(n):
                t = frobenius(t)
            assert t == a  # the squaring map has order dividing n


def test_randomized_high_levels():
    rng = random.Random(20260809)
    for n in (12, 17, 23, 30):
        seen = set()
        for _ in range(50):
            a = FieldElt(n, rng.randrange(1 << n))
            b = FieldElt(n, rng.randrange(1 << n))
            assert add(a, a).is_zero
            assert frobenius(add(a, b)) == add(frobenius(a), frobenius(b))
            assert sqrt(frobenius(a)) == a
            seen.add(frobenius(a).mask)
        assert len(seen) >= 45  # squaring keeps points apart: it is injective


@given(field_elts())
def test_mul_matches_oracle(a):
    b = FieldElt(a.level, (a.mask * 0x9E37 + 0x79B9) % (1 << a.level))
    assert mul(a, b).mask == oracle_mul(a.mask, b.mask, a.level)


@given(field_elts(levels=tuple(range(17, 31))))
def test_inv_and_sqrt_without_log_tables(a):
    # levels 21..30 never have log tables and 17..20 only on demand; there
    # inv runs the extended Euclid and sqrt the linear map, checked here
    # against the Fermat power and against squaring
    mod = conway.get_active().poly(a.level)
    if not a.is_zero:
        assert inv(a).mask == gf2poly.ppowmod(a.mask, (1 << a.level) - 2, mod)
    r = sqrt(a)
    assert mul(r, r) == a
    assert r.mask == gf2poly.ppowmod(a.mask, 1 << (a.level - 1), mod)


@given(field_elts())
def test_order_divides_group_order_and_is_odd(a):
    if a.is_zero:
        return
    d = elt_order(a)
    q1 = (1 << a.level) - 1
    assert q1 % d == 0
    assert d % 2 == 1
    assert power(a, q1).is_one


@given(field_elts())
def test_minimal_poly_properties(a):
    f = minimal_poly(a)
    conjugates = orbit(a)
    assert f.degree == len(conjugates)
    assert f.is_irreducible()
    for r in conjugates:
        assert gf2poly.peval(f.mask, r.mask, conway.get_active().poly(r.level)) == 0
    assert a.level % len(conjugates) == 0
    from sl2bar.closure import reduce_elt

    if not a.is_zero:
        assert f.degree == reduce_elt(a).level  # degree equals the minimal level


def test_minimal_poly_is_the_conjugate_product_exhaustive():
    for n in range(1, 9):
        for mask in range(1 << n):
            a = FieldElt(n, mask)
            assert minimal_poly(a).mask == conjugate_product(a), a


def test_artin_schreier_iff_trace_exhaustive():
    for n in range(1, 9):
        for mask in range(1 << n):
            c = FieldElt(n, mask)
            z = artin_schreier_solve(c)
            assert (z is not None) == trace_abs(c).is_zero
            if z is not None:
                assert add(frobenius(z), z) == c
                other = FieldElt(n, z.mask ^ 1)
                assert add(frobenius(other), other) == c
