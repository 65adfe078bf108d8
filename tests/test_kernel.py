"""The per-level field kernel against the loop definitions it replaced."""

import random

import pytest

from sl2bar import conway, finite_engine, gf2_field as gf
from sl2bar.closure import _unlift, lift, reduce_elt
from sl2bar.errors import BoundExceeded, TableInvalid
from sl2bar.gf2_field import FieldElt, elt_order, ensure_log_table, frobenius, inv, mul, power
from sl2bar.gf2poly import divisors, pmulmod, ppowmod


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
