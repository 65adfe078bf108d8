"""Mask polynomial arithmetic checked against naive reimplementations."""

import random

import pytest
from hypothesis import given, strategies as st

from sl2bar import conway, gf2_field as gf, gf2poly
from sl2bar.errors import TableInvalid

from sl2bar.gf2poly import (
    Gf2Poly,
    degree,
    divisors,
    factorize,
    is_irreducible,
    is_primitive,
    pgcd,
    peval,
    pinvmod,
    pmod,
    pmulmod,
    poly_str,
    _comb,
    _square,
    _times,
    ppowmod,
    totient,
)

masks = st.integers(min_value=0, max_value=(1 << 12) - 1)
# past the comb's second 4-bit window and the spread table's second byte
wide = st.integers(min_value=0, max_value=(1 << 40) - 1)
moduli = st.integers(min_value=1, max_value=(1 << 32) - 1)  # degree up to 31


def naive_mul(f, g):
    out = 0
    i = 0
    while f >> i:
        if f >> i & 1:
            out ^= g << i
        i += 1
    return out


def naive_mod(f, m):
    while degree(f) >= degree(m):
        f ^= m << (degree(f) - degree(m))
    return f


def naive_eval(f, x, m):
    """Sum of x^i mod m over the set bits i of f, powers by repeated naive products."""
    acc, power = 0, naive_mod(1, m)
    for i in range(degree(f) + 1):
        if f >> i & 1:
            acc ^= power
        power = naive_mod(naive_mul(power, x), m)
    return acc


def naive_irreducible(f):
    n = degree(f)
    if n < 1:
        return False
    for g in range(2, 1 << n):
        if 1 <= degree(g) < n and naive_mod(f, g) == 0:
            return False
    return True


@given(wide, wide, moduli)
def test_pmulmod_matches_naive(f, g, m):
    # f and g range past deg m, so unreduced operands are covered
    assert pmulmod(f, g, m) == naive_mod(naive_mul(f, g), m)
    assert pmulmod(f, f, m) == naive_mod(naive_mul(f, f), m)  # the spread square


@given(wide, wide, moduli.filter(lambda m: m >= 2))
def test_peval_matches_naive(f, x, m):
    # deg m >= 1, so the constant 1 is reduced; x may be unreduced
    assert peval(f, x, m) == naive_eval(f, x, m)


@given(wide, st.integers(min_value=0, max_value=(1 << 12) - 1), moduli)
def test_ppowmod_matches_repeated_naive_products(f, e, m):
    want = naive_mod(1, m)
    for _ in range(e):
        want = naive_mod(naive_mul(want, f), m)
    assert ppowmod(f, e, m) == (want if e else 1)  # f^0 is 1 even modulo 1
    assert ppowmod(f, 1, m) == naive_mod(f, m)
    assert ppowmod(f, 0, m) == 1


@pytest.mark.parametrize("byte", [1, 2, 0x80, 0xFF])
def test_one_wrong_spread_entry_fails_the_table_validation(monkeypatch, byte):
    # an odd power x^(2i+1) in the square of one byte value
    good = gf2poly._SPREAD
    monkeypatch.setattr(gf2poly, "_SPREAD", good[:byte] + (good[byte] ^ 2,) + good[byte + 1 :])
    with pytest.raises(TableInvalid):
        conway.validate_table(conway.get_active())


@given(st.integers(min_value=1, max_value=30), st.integers(min_value=1, max_value=(1 << 30) - 1))
def test_pinvmod_matches_the_fermat_power(n, x):
    # every table modulus is irreducible, so x^(2^n - 2) is the inverse of x mod m
    m = conway.get_active().poly(n)
    x %= 1 << n
    if x:
        assert pinvmod(x, m) == ppowmod(x, (1 << n) - 2, m)
        assert pmulmod(pinvmod(x, m), x, m) == 1


def test_pinvmod_rejects_a_common_factor():
    with pytest.raises(ZeroDivisionError):
        pinvmod(0, 0b111)
    with pytest.raises(ZeroDivisionError):
        pinvmod(0b11, 0b101)  # x^2 + 1 = (x + 1)^2


@given(masks, st.integers(min_value=1, max_value=(1 << 12) - 1))
def test_pmod_matches_naive(f, m):
    assert pmod(f, m) == naive_mod(f, m)


@pytest.mark.parametrize("n", range(gf.LOG_TABLE_MAX + 1, gf.N_MAX + 1))
def test_byte_window_fold_matches_the_bitwise_fold(n):
    # a level kernel without log tables gives its modulus a fold table; the
    # samples run past every window boundary: below m, 8 and 9 bits at and
    # above x^n, the widest product and square, and 8 bits past them
    m = conway.get_active().poly(n)
    assert gf.LevelTables(n, m).log is None
    assert len(gf2poly._FOLDS[m]) == 256
    rng = random.Random(n)
    samples = [0, 1, m, m ^ 1 << n, (1 << n) - 1, rng.getrandbits(n)]
    for _ in range(40):
        x, y = rng.getrandbits(n), rng.getrandbits(n)
        samples += [_times(_comb(x), y), _square(x), rng.getrandbits(2 * n + 9)]
    for d in (n, n + 7, n + 8, n + 9, 2 * n - 2, 2 * n + 8):
        samples += [1 << d | rng.getrandbits(d) for _ in range(8)]
    for f in samples:
        assert pmod(f, m) == naive_mod(f, m), (n, f)


def test_only_level_moduli_get_fold_tables():
    # minimal_poly's irreducibility test meets hundreds of other moduli,
    # and the table validation squares by the moduli of every level; they
    # keep the bitwise fold and the spread square and add no table
    for n in range(1, gf.N_MAX + 1):
        gf.mul(gf.gen(n), gf.gen(n))
    before, squares = dict(gf2poly._FOLDS), dict(gf2poly._SQUARES)
    rng = random.Random(37)
    for n in range(21, gf.N_MAX + 1):
        for _ in range(5):
            gf.minimal_poly(gf.FieldElt(n, rng.getrandbits(n)))
    conway.validate_table(conway.get_active())
    assert gf2poly._FOLDS == before and gf2poly._SQUARES == squares
    moduli = {conway.get_active().poly(n) for n in range(gf.LOG_TABLE_MAX + 1, gf.N_MAX + 1)}
    assert moduli <= set(squares) <= set(before)
    for m in moduli:
        n = m.bit_length() - 1  # ceil(n / 8) windows, the last one of 2^(n - 8 (windows - 1)) entries
        assert [len(t) for t in squares[m]] == [256] * ((n - 1) // 8) + [1 << ((n - 1) % 8 + 1)]


@given(masks, masks)
def test_pgcd_divides_both(f, g):
    d = pgcd(f, g)
    if d:
        assert pmod(f, d) == 0 and pmod(g, d) == 0


def test_degree():
    assert degree(0) == -1
    assert degree(1) == 0
    assert degree(0b111) == 2


def test_ppowmod():
    # x^3 mod x^2+x+1 = 1 because the quotient field has order 4
    assert ppowmod(0b10, 3, 0b111) == 1
    assert ppowmod(0b10, 0, 0b111) == 1


@pytest.mark.parametrize("deg_bound", [8])
def test_irreducible_matches_exhaustive_scan(deg_bound):
    for f in range(2, 1 << (deg_bound + 1)):
        assert is_irreducible(f) == naive_irreducible(f), f"{f:#b}"


def test_primitive_examples():
    assert is_primitive(0b111)  # x^2+x+1
    assert is_primitive(0b1011)  # x^3+x+1
    assert not is_primitive(0b11111)  # x^4+x^3+x^2+x+1 divides x^5-1: order 5 < 15
    assert not is_primitive(0b110)  # reducible
    assert is_primitive(0b11)  # x+1, the degree-1 generator polynomial


def test_primitive_implies_irreducible():
    for f in range(2, 1 << 9):
        if is_primitive(f):
            assert is_irreducible(f)


def test_factorize_and_totient():
    assert factorize(1) == ()
    assert factorize(12) == (2, 3)
    assert factorize(2**30 - 1) == (3, 7, 11, 31, 151, 331)
    for m in range(1, 200):
        assert totient(m) == sum(1 for k in range(1, m + 1) if __import__("math").gcd(k, m) == 1)


def test_divisors():
    assert divisors(1) == (1,)
    assert divisors(12) == (1, 2, 3, 4, 6, 12)
    assert divisors(30) == (1, 2, 3, 5, 6, 10, 15, 30)


def test_gf2poly_str_and_validation():
    assert str(Gf2Poly(0b111)) == "x^2+x+1"
    assert str(Gf2Poly(0b10)) == "x"
    assert Gf2Poly(0b1011).degree == 3
    assert poly_str(0) == "0"
    with pytest.raises(ValueError):
        Gf2Poly(0)
