"""The direct-limit layer: embeddings, minimal levels, joined arithmetic."""

import random

import pytest
from hypothesis import given, strategies as st

from sl2bar import closure, conway, gf2poly
from sl2bar.closure import (
    ONE,
    ZERO,
    ClosureElt,
    cadd,
    celt,
    cinv,
    cmul,
    corder,
    cpow,
    csqrt,
    join,
    lift,
    parse,
    reduce_elt,
)
from sl2bar.errors import LevelOverflow, NotADivisor
from sl2bar.gf2_field import LOG_TABLE_MAX, FieldElt, add, gen, mul


def test_lift_examples():
    for n in (1, 2, 3, 6, 12):
        assert lift(FieldElt(1, 1), n) == FieldElt(n, 1)
    got = lift(gen(2), 4)
    assert got == FieldElt(4, 0x6)  # g4^5
    # the image still satisfies x^2 + x + 1 = 0
    assert gf2poly.peval(0b111, got.mask, conway.get_active().poly(4)) == 0
    with pytest.raises(NotADivisor):
        lift(gen(2), 5)
    with pytest.raises(LevelOverflow):
        lift(gen(2), 32)


def test_lift_transitive():
    for (m, mid, n) in [(1, 2, 4), (2, 4, 8), (2, 6, 12), (3, 6, 18)]:
        for mask in range(1 << m):
            a = FieldElt(m, mask)
            assert lift(lift(a, mid), n) == lift(a, n)


def test_lift_is_ring_hom_exhaustive():
    for (m, n) in [(1, 2), (2, 4), (2, 6), (3, 6), (4, 8)]:
        images = {}
        for x in range(1 << m):
            images[x] = lift(FieldElt(m, x), n)
        assert len({e.mask for e in images.values()}) == 1 << m  # injective
        for x in range(1 << m):
            for y in range(1 << m):
                a, b = FieldElt(m, x), FieldElt(m, y)
                assert lift(add(a, b), n) == add(images[x], images[y])
                assert lift(mul(a, b), n) == mul(images[x], images[y])


def test_reduce_examples():
    assert reduce_elt(FieldElt(6, 1)) == ONE
    assert reduce_elt(FieldElt(6, 0)) == ZERO
    assert reduce_elt(lift(gen(2), 6)).elt == gen(2)
    # an order-15 element generates the full level-4 field
    a = celt(4, 2)
    assert corder(a) == 15 and a.level == 4


def test_reduce_round_trip_exhaustive():
    for (m, n) in [(1, 4), (2, 4), (2, 6), (3, 6)]:
        for mask in range(1 << m):
            e = reduce_elt(FieldElt(m, mask))
            assert reduce_elt(lift(e.elt, n)) == e


def _direct_reduce(a):
    """The minimal level as the smallest divisor m of the level whose
    subfield, under the direct embedding, holds a: no descent."""
    for m in gf2poly.divisors(a.level):
        pre = closure._unlift(a.mask, m, a.level)
        if pre is not None:
            return ClosureElt(FieldElt(m, pre))


def _one_step_reduce(a):
    """A faulty descent: it stops in the first maximal subfield that holds a."""
    n = a.level
    for p in gf2poly.factorize(n):
        pre = closure._unlift(a.mask, n // p, n)
        if pre is not None:
            return ClosureElt(FieldElt(n // p, pre))
    return ClosureElt(a)


def _descent_mismatches(reduce):
    """(n, m, mask) for the seeded level-m elements x, m | n, whose lift to
    level n does not reduce to what x reduces to.  The chains 2 | 6 | 12 | 24
    and 5 | 10 | 30 take more than one descent step."""
    rng = random.Random(29)
    bad = []
    for n in (12, 24, 30):
        for m in gf2poly.divisors(n):
            for _ in range(8):
                x = FieldElt(m, rng.randrange(2, 1 << m) if m > 1 else 1)
                if reduce(lift(x, n)) != reduce(x):
                    bad.append((n, m, x.mask))
    return bad


def test_reduce_descends_through_maximal_subfields():
    assert _descent_mismatches(reduce_elt) == []
    rng = random.Random(30)
    for n in (12, 24, 30):
        for _ in range(20):
            a = FieldElt(n, rng.randrange(2, 1 << n))
            assert reduce_elt(a) == _direct_reduce(a)
            m = rng.choice(gf2poly.divisors(n))
            b = lift(FieldElt(m, rng.randrange(1 << m)), n)
            assert reduce_elt(b) == _direct_reduce(b)


def _descent(a):
    """The route of the levels without log tables: recurse on the preimage
    in the first maximal subfield that holds a."""
    n = a.level
    if a.mask <= 1:
        return ClosureElt(FieldElt(1, a.mask))
    for p in gf2poly.factorize(n):
        pre = closure._unlift(a.mask, n // p, n)
        if pre is not None:
            return _descent(FieldElt(n // p, pre))
    return ClosureElt(a)


def test_log_table_reduction_matches_the_descent():
    # on log tables reduce_elt reads log x once and scans the divisors:
    # every mask up to level 12, then seeded and lifted samples to 16
    rng = random.Random(16)
    for n in range(1, LOG_TABLE_MAX + 1):
        if n <= 12:
            masks = range(1 << n)
        else:
            masks = [rng.getrandbits(n) for _ in range(256)]
            for m in gf2poly.divisors(n)[:-1]:
                masks += [lift(FieldElt(m, rng.getrandbits(m)), n).mask for _ in range(32)]
        for x in masks:
            a = FieldElt(n, x)
            assert reduce_elt(a) == _descent(a), a


def test_a_descent_that_stops_after_one_step_fails_the_descent_test():
    bad = _descent_mismatches(_one_step_reduce)
    assert {(24, 2), (24, 3), (30, 5)} <= {(n, m) for n, m, _ in bad}


def test_join():
    x, y = celt(2, 2), celt(2, 3)
    a, b = join(x, y)
    assert a.level == b.level == 2
    a, b = join(celt(2, 2), celt(3, 2))
    assert a.level == b.level == 6
    a, b = join(celt(4, 2), celt(6, 41))
    assert a.level == b.level == 12
    a, b = join(celt(3, 2), celt(7, 2))
    assert a.level == b.level == 21
    with pytest.raises(LevelOverflow, match="35"):
        join(celt(5, 2), celt(7, 2))


def test_closure_arithmetic_examples():
    lam = celt(2, 2)
    assert cadd(lam, cinv(lam)) == ONE  # g + g^2 = 1, nonzero since g != 1
    assert cmul(lam, cinv(lam)) == ONE
    assert corder(lam) == 3
    assert cpow(lam, 3) == ONE


def test_mixed_level_mul_matches_single_level():
    rng = random.Random(42)
    for _ in range(200):
        x = celt(2, rng.randrange(4))
        y = celt(3, rng.randrange(8))
        got = cmul(x, y)
        want = reduce_elt(mul(lift(x.elt, 6), lift(y.elt, 6)))
        assert got == want
        got = cadd(x, y)
        want = reduce_elt(add(lift(x.elt, 6), lift(y.elt, 6)))
        assert got == want


@given(st.sampled_from([1, 2, 3, 4, 6, 8, 12]), st.integers(min_value=0, max_value=(1 << 12) - 1))
def test_csqrt_squares_back(n, mask):
    a = celt(n, mask % (1 << n))
    s = csqrt(a)
    assert cmul(s, s) == a


def test_csqrt_thousand_random_samples():
    rng = random.Random(1000)
    for _ in range(1000):
        n = rng.choice([1, 2, 3, 4, 5, 6, 8, 10, 12])
        a = celt(n, rng.randrange(1 << n))
        s = csqrt(a)
        assert cmul(s, s) == a


def test_lambda_plus_inverse_vanishes_only_at_one():
    # exhaustive at levels up to 8
    for n in range(1, 9):
        for mask in range(1, 1 << n):
            lam = celt(n, mask)
            vanishes = cadd(lam, cinv(lam)).is_zero
            assert vanishes == lam.is_one
            # lam = lam^(-1)  iff  lam^2 = 1  iff  lam = 1
            self_inverse = lam == cinv(lam)
            square_one = cmul(lam, lam).is_one
            assert self_inverse == square_one == lam.is_one


def test_display_and_parse():
    a = reduce_elt(lift(gen(2), 6))
    assert str(a) == "0x2@2"
    assert parse("0x2@2") == a
    assert celt(6, 0) == ZERO and str(ZERO) == "0x0@1"
