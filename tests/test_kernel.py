"""The per-level field kernel against the loop definitions it replaced."""

import random

import pytest

from sl2bar import conway, finite_engine, gf2_field as gf, gf2poly
from sl2bar.closure import _unlift, lift, reduce_elt
from sl2bar.errors import BoundExceeded, TableInvalid
from sl2bar.gf2_field import FieldElt, artin_schreier_solve, elt_order, ensure_log_table, frobenius, inv, mul, power
from sl2bar.gf2poly import _square, divisors, pmod, pmulmod, ppowmod


@pytest.fixture(autouse=True)
def _fresh_tables():
    conway.set_active_path(None)
    yield
    conway.set_active_path(None)


def frobenius_min_level(a: FieldElt) -> int:
    """Reference: the smallest divisor m of the level with a^(2^m) = a."""
    for m in divisors(a.level):
        t = a
        for _ in range(m):
            t = frobenius(t)
        if t == a:
            return m
    raise AssertionError("a^(2^n) = a fails at the element's own level")


def _samples(rng, n, count=40):
    """Random masks at level n plus lifts of random subfield elements."""
    out = [FieldElt(n, rng.randrange(1 << n)) for _ in range(count)]
    for m in divisors(n)[:-1]:
        out += [lift(FieldElt(m, rng.randrange(1 << m)), n) for _ in range(count // 4)]
    return out


def test_minimal_level_matches_frobenius_loop():
    rng = random.Random(4242)
    for n in range(1, gf.N_MAX + 1):
        elts = [FieldElt(n, x) for x in range(1 << n)] if n <= 8 else _samples(rng, n)
        for a in elts:
            r = reduce_elt(a)
            assert r.level == frobenius_min_level(a), a
            assert lift(r.elt, n) == a


def test_lift_unlift_round_trip_every_divisor_pair():
    rng = random.Random(77)
    for n in range(2, gf.N_MAX + 1):
        for m in divisors(n)[:-1]:
            masks = range(1 << m) if m <= 8 else [rng.randrange(1 << m) for _ in range(64)]
            for x in masks:
                assert _unlift(lift(FieldElt(m, x), n).mask, m, n) == x, (m, n, x)
            # the level-n generator lies in no proper subfield
            assert _unlift(gf.gen(n).mask, m, n) is None, (m, n)


def _solve_gf2(vectors, target):
    """Reference solver: a selection s of the vectors summing to target,
    or None outside their span, by elimination on the leading bit."""
    pivots = {}
    for i, v in enumerate(vectors):
        s = 1 << i
        while v and v.bit_length() - 1 in pivots:
            pv, ps = pivots[v.bit_length() - 1]
            v, s = v ^ pv, s ^ ps
        if v:
            pivots[v.bit_length() - 1] = (v, s)
    sel = 0
    while target:
        if target.bit_length() - 1 not in pivots:
            return None
        pv, ps = pivots[target.bit_length() - 1]
        target, sel = target ^ pv, sel ^ ps
    return sel


def _embedded(t, m):
    """The level-n images of g_m^i, i < m, by spread squares and comb
    products folded through ``pmod``, none read from a squaring table."""
    img, e = 1, t.q1 // ((1 << m) - 1)
    for bit in bin(e)[2:]:
        img = pmod(_square(img), t.mod)
        if bit == "1":
            img = pmod(img << 1, t.mod)
    out = [1]
    for _ in range(m - 1):
        out.append(pmod(gf2poly._times(gf2poly._comb(out[-1]), img), t.mod))
    return out


def _combine(vectors, x):
    """The XOR of vectors[i] over the set bits i of x."""
    out = 0
    for i, v in enumerate(vectors):
        if x >> i & 1:
            out ^= v
    return out


@pytest.mark.parametrize("n", range(gf.FIRST_TOUCH_MAX + 1, gf.N_MAX + 1))
def test_byte_window_maps_match_their_references(n):
    # above the log tables squares, lifts, subfield preimages, square roots
    # and z^2 + z = c read byte-window tables; each equals the route it
    # replaced on every mask at level 17, and elsewhere on the basis
    # vectors, seeded samples and lifted subfield elements
    t = gf._level(n)
    assert t.log is None
    rng = random.Random(n)
    subs = divisors(n)[:-1]
    bases = {m: tuple(_embedded(t, m)) for m in subs}
    if n == gf.FIRST_TOUCH_MAX + 1:
        masks = range(1 << n)
    else:
        masks = [1 << j for j in range(n)] + [rng.getrandbits(n) for _ in range(64)]
        for m in subs:
            for x in [1 << i for i in range(m)] + [rng.getrandbits(m) for _ in range(8)]:
                image = lift(FieldElt(m, x), n).mask
                assert image == _combine(bases[m], x), (n, m, x)
                masks.append(image)
    for x in masks:
        want = pmod(_square(x), t.mod)
        assert pmulmod(x, x, t.mod) == want == ppowmod(x, 2, t.mod), (n, x)
        assert gf.sqrt(FieldElt(n, want)).mask == x, (n, x)
        for m in subs:
            assert _unlift(x, m, n) == _solve_gf2(bases[m], x), (n, m, x)
    assert t.mod in gf2poly._SQUARES
    images = tuple(pmod(_square(1 << i), t.mod) ^ 1 << i for i in range(n))
    for x in masks[:256]:
        sel = _solve_gf2(images, x)
        z = artin_schreier_solve(FieldElt(n, x))
        assert (z is None) == (sel is None), (n, x)
        if z is not None:
            assert z.mask == sel & ~1, (n, x)


def _arith(n, pairs):
    return [
        (mul(a, b).mask, power(a, 12345).mask, inv(a).mask if a.mask else None,
         elt_order(b) if b.mask else None, reduce_elt(a))
        for a, b in pairs
    ]


def test_tables_agree_with_schoolbook_at_the_build_boundaries():
    rng = random.Random(1617)
    pairs = {n: [(FieldElt(n, rng.randrange(1 << n)), FieldElt(n, rng.randrange(1 << n))) for _ in range(200)]
             for n in (16, 17, 20, 21)}
    before = {n: _arith(n, p) for n, p in pairs.items()}
    # first touch builds log tables through level 16 only
    assert gf._LEVELS[16].log is not None
    assert all(gf._LEVELS[n].log is None for n in (17, 20, 21))
    for n in (16, 17, 20, 21):
        mod = conway.get_active().poly(n)
        for (a, b), got in zip(pairs[n], before[n]):
            assert got[0] == pmulmod(a.mask, b.mask, mod)
    ensure_log_table(17)
    ensure_log_table(20)
    with pytest.raises(BoundExceeded):
        ensure_log_table(21)
    assert all(gf._LEVELS[n].log is not None for n in (17, 20)) and gf._LEVELS[21].log is None
    for n, p in pairs.items():
        assert _arith(n, p) == before[n], n


def test_table_switch_rebuilds_through_the_single_hook():
    mul(gf.gen(5), gf.gen(5))
    old = gf._LEVELS[5]
    assert gf._LEVELS.clear in conway._invalidation_hooks
    # one hook for the field kernels, one for the enumerated groups
    assert finite_engine.enumerate_group.cache_clear in conway._invalidation_hooks
    assert len(conway._invalidation_hooks) == 2
    conway.set_active_path(None)
    assert gf._LEVELS == {}
    assert mul(gf.gen(5), gf.gen(5)) == FieldElt(5, 4)
    assert gf._LEVELS[5] is not old and gf._LEVELS[5].exp == old.exp


def test_log_arrays_match_schoolbook_powers():
    rng = random.Random(1016)
    for n in range(1, 17):
        mod = conway.get_active().poly(n)
        exp, log = gf._log_arrays(n, mod)
        q1 = (1 << n) - 1
        assert len(exp) == q1 and len(log) == q1 + 1
        for k in {0, q1 - 1, *(rng.randrange(q1) for _ in range(64))}:
            assert exp[k] == ppowmod(2, k, mod), (n, k)
        assert all(log[x] == k for k, x in enumerate(exp)), n


def test_non_primitive_modulus_is_rejected():
    for n, mod in [
        (4, 0b11111),  # irreducible, but its root has order 5, not 15
        (4, 0b10101),  # x^4+x^2+1 = (x^2+x+1)^2
        (4, 0b11000),  # x^4+x^3: the walk sticks at x^3
        (2, 0b101),  # x^2+1: 1, x, 1 leaves one mask unvisited
        (2, 0b100),  # x^2: 1, x, 0
    ]:
        with pytest.raises(TableInvalid, match="not primitive"):
            gf.LevelTables(n, mod, logs=True)
