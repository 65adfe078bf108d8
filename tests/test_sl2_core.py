"""Matrix layer: arithmetic conventions, classification, closed forms."""

import math
import random
from itertools import permutations

import pytest

from sl2bar import closure, finite_engine as fe, sl2_core as sl
from sl2bar.closure import ONE, ZERO, cadd, celt, cinv, cmul, reduce_elt
from sl2bar.gf2_field import N_MAX, FieldElt, add, gen, inv, mul
from sl2bar.errors import (
    LevelOverflow,
    NonUnitDeterminant,
    ParseError,
    PreconditionError,
    SingularMatrix,
)
from sl2bar.sl2_core import (
    IDENTITY,
    SWAP,
    JORDAN_IDENTITY,
    JORDAN_UNIPOTENT,
    Mat2,
    are_conjugate,
    classify_jordan,
    commutant_kernel,
    conj,
    conjugate_eq1,
    conjugate_eq2,
    diag_as_two_involutions,
    diag_mat,
    inv_transpose,
    mat_entry_masks,
    mat_from_masks,
    mdet,
    minv,
    mmul,
    morder,
    mtrace,
    normalize_to_sl2,
    parse_mat,
    split_class,
    upper_uni,
)

G2 = celt(2, 2)  # the level-2 generator


def rand_mat(rng, level):
    return Mat2(*(celt(level, rng.randrange(1 << level)) for _ in range(4)))


def rand_sl2(rng, level):
    G = fe.enumerate_group(level)
    return G.mat(rng.randrange(len(G)))


def test_det_trace_conventions():
    M = diag_mat(G2, cinv(G2))
    assert mdet(M) == ONE  # g(g+1) = g^2+g = 1
    assert mtrace(M) == ONE
    N = Mat2(G2, ONE, ONE, G2)
    assert mdet(N) == G2  # ad + bc = g^2 + 1 = (g+1) + 1 = g
    assert mtrace(N) == ZERO


def test_minv_entry_swap():
    rng = random.Random(1)
    for _ in range(100):
        M = rand_sl2(rng, 3)
        s, t, u, v = M.entries()
        assert minv(M) == Mat2(v, t, u, s)
        assert mmul(minv(M), M) == IDENTITY
    assert minv(IDENTITY) == IDENTITY
    with pytest.raises(SingularMatrix):
        minv(Mat2(ONE, ONE, ONE, ONE))


def test_det_multiplicative_and_trace_conjugation_invariant():
    # exhaustive over all sixteen level-1 matrices, including singular ones
    mats = [mat_from_masks(1, (a, b, c, d)) for a in (0, 1) for b in (0, 1) for c in (0, 1) for d in (0, 1)]
    for M in mats:
        for N in mats:
            assert mdet(mmul(M, N)) == closure.cmul(mdet(M), mdet(N))
    rng = random.Random(2)
    for _ in range(100):
        level = rng.choice([2, 3, 4, 6])
        M, N = rand_mat(rng, level), rand_mat(rng, level)
        assert mdet(mmul(M, N)) == closure.cmul(mdet(M), mdet(N))
        X = rand_sl2(rng, rng.choice([1, 2, 3, 4, 5]))  # SL2 enumerates up to level 5
        assert mtrace(conj(X, M)) == mtrace(M)


def test_inv_transpose():
    M = parse_mat("[[0x2@2,0x3@2],[0x1@1,0x1@1]]")
    assert mdet(M) == ONE
    assert inv_transpose(M) == Mat2(M.d, M.c, M.b, M.a)
    assert inv_transpose(inv_transpose(M)) == M
    assert inv_transpose(upper_uni(ONE)) == Mat2(ONE, ZERO, ONE, ONE)
    with pytest.raises(NonUnitDeterminant):
        inv_transpose(diag_mat(G2, G2))


def test_inv_transpose_is_swap_conjugation():
    rng = random.Random(3)
    for _ in range(200):
        M = rand_sl2(rng, rng.choice([1, 2, 3]))
        assert inv_transpose(M) == conj(SWAP, M)


def test_normalize_to_sl2():
    M = rand_sl2(random.Random(4), 3)
    assert normalize_to_sl2(M) == M
    gI = diag_mat(G2, G2)
    assert normalize_to_sl2(gI) == IDENTITY  # det g^2, scale by g^(-1)
    with pytest.raises(SingularMatrix):
        normalize_to_sl2(Mat2(ZERO, ZERO, ZERO, ZERO))
    rng = random.Random(5)
    done = 0
    while done < 500:
        X = rand_mat(rng, rng.choice([2, 3, 4]))
        if mdet(X).is_zero:
            continue
        done += 1
        Y = normalize_to_sl2(X)
        assert mdet(Y) == ONE
        M = rand_sl2(rng, 4)
        assert conj(Y, M) == conj(X, M)


def test_morder_examples():
    assert morder(upper_uni(ONE)) == 2
    assert morder(diag_mat(G2, cinv(G2))) == 3
    assert morder(IDENTITY) == 1
    with pytest.raises(NonUnitDeterminant):
        morder(diag_mat(G2, G2))


def test_classify_examples():
    assert classify_jordan(upper_uni(ONE)) == JORDAN_UNIPOTENT
    got = classify_jordan(diag_mat(G2, cinv(G2)))
    assert got.kind == "split" and got.lam == G2
    assert classify_jordan(IDENTITY) == JORDAN_IDENTITY
    # irreducible characteristic polynomial: the eigenvalues live one level up
    M = parse_mat("[[0x0@1,0x1@1],[0x1@1,0x1@1]]")
    got = classify_jordan(M)
    assert got.kind == "split" and got.lam.level == 2
    assert morder(M) == 3


def test_split_canonicalization():
    assert split_class(G2) == split_class(cinv(G2))
    assert split_class(G2).lam == G2
    with pytest.raises(PreconditionError):
        split_class(ONE)


def test_are_conjugate_examples():
    D = diag_mat(G2, cinv(G2))
    assert are_conjugate(D, D)
    assert are_conjugate(D, diag_mat(cinv(G2), G2))
    assert not are_conjugate(upper_uni(ONE), IDENTITY)


def test_conjugate_eq1_examples():
    lam = celt(3, 5)
    assert conjugate_eq1(lam, ONE, ZERO, ZERO, ONE) == diag_mat(lam, cinv(lam))
    assert conjugate_eq1(lam, ZERO, ONE, ONE, ZERO) == diag_mat(cinv(lam), lam)
    with pytest.raises(PreconditionError):
        conjugate_eq1(ZERO, ONE, ZERO, ZERO, ONE)
    with pytest.raises(PreconditionError):
        conjugate_eq1(lam, ONE, ONE, ONE, ONE)


def test_conjugate_eq2_examples():
    lam = celt(2, 3)
    assert conjugate_eq2(lam, ONE, ZERO, ZERO, ONE) == upper_uni(lam)
    # u = 0 lands in the upper triangulars with corner lam s^2
    s = celt(3, 6)
    out = conjugate_eq2(lam, s, ONE, ZERO, cinv(s))
    assert out.a == out.d == ONE and out.c == ZERO
    assert out.b == closure.cmul(lam, closure.cmul(s, s))


def test_eq1_eq2_match_triple_products():
    rng = random.Random(6)
    for _ in range(500):
        level = rng.choice([1, 2, 3, 4])
        lam = celt(level, rng.randrange(1, 1 << level))
        M = rand_sl2(rng, level)
        s, t, u, v = M.entries()
        assert conjugate_eq1(lam, s, t, u, v) == conj(M, diag_mat(lam, cinv(lam)))
        assert conjugate_eq2(lam, s, t, u, v) == conj(M, upper_uni(lam))


def test_diag_as_two_involutions():
    left, right = diag_as_two_involutions(ONE)
    assert left == right == SWAP
    assert mmul(left, right) == IDENTITY
    left, right = diag_as_two_involutions(G2)
    assert mmul(left, right) == diag_mat(G2, cinv(G2))
    rng = random.Random(8)
    for _ in range(100):
        level = rng.choice([1, 2, 3, 4])
        lam = celt(level, rng.randrange(1, 1 << level))
        left, right = diag_as_two_involutions(lam)
        assert morder(left) == 2 and morder(right) == 2
        assert mmul(left, right) == diag_mat(lam, cinv(lam))
    with pytest.raises(PreconditionError):
        diag_as_two_involutions(ZERO)


def test_parse_mat():
    M = parse_mat(" [[0x1@1, 0x1@1], [0x0@1, 0x1@1]] ")
    assert M == upper_uni(ONE)
    for bad in ("[[0x1@1]]", "[[a,b],[c,d]]", "[0x1@1,0x1@1,0x0@1,0x1@1]"):
        with pytest.raises(ParseError):
            parse_mat(bad)
    rng = random.Random(10)
    for _ in range(50):
        M = rand_sl2(rng, 4)
        assert parse_mat(str(M)) == M


def test_mat_masks_round_trip():
    rng = random.Random(11)
    for _ in range(50):
        M = rand_sl2(rng, 2)
        quad = mat_entry_masks(M, 4)
        assert mat_from_masks(4, quad) == M


@pytest.mark.parametrize("n", range(1, 31))
def test_commutant_kernel_is_the_algebra_x_generates(n):
    # at every level, with tables or without: each basis vector commutes
    # with x in the closure's arithmetic, and I and x are combinations of
    # the basis.  Columns ks where basis vector i reads 1 at ks[i] and 0 at
    # the others give the coefficients: v is in the span exactly when
    # v = sum of v[ks[i]] times vector i
    rng = random.Random(n)
    q = 1 << n
    lam = rng.randrange(1, q)
    samples = [(lam, 0, 0, lam), (1, rng.randrange(1, q), 0, 1), (lam, 0, 0, 1), (1, 0, 1, 1)]
    samples += [tuple(rng.randrange(q) for _ in range(4)) for _ in range(6)]
    zero, one = FieldElt(n, 0), FieldElt(n, 1)
    for quad in samples:
        x = tuple(FieldElt(n, m) for m in quad)
        basis = commutant_kernel(x)
        scalar = quad[1] == quad[2] == 0 and quad[0] == quad[3]
        assert len(basis) == (4 if scalar else 2), quad
        X = mat_from_masks(n, quad)
        assert all(mmul(X, Y) == mmul(Y, X) for Y in (mat_from_masks(n, [e.mask for e in y]) for y in basis)), quad
        ks = next(
            ks
            for ks in permutations(range(4), len(basis))
            if all(y[k] == (one if i == j else zero) for i, y in enumerate(basis) for j, k in enumerate(ks))
        )
        for v in ((one, zero, zero, one), x):
            total = [zero] * 4
            for y, k in zip(basis, ks):
                total = [add(t, mul(v[k], e)) for t, e in zip(total, y)]
            assert tuple(total) == v, (quad, v)


# ---------------------------------------------------------------------------
# mmul and conj at one joined level against the entrywise route


def entrywise_mmul(M, N):
    """The reference product: every entry's two products and their sum
    joined and reduced on their own."""
    return Mat2(
        cadd(cmul(M.a, N.a), cmul(M.b, N.c)),
        cadd(cmul(M.a, N.b), cmul(M.b, N.d)),
        cadd(cmul(M.c, N.a), cmul(M.d, N.c)),
        cadd(cmul(M.c, N.b), cmul(M.d, N.d)),
    )


def entrywise_conj(M, g):
    return entrywise_mmul(entrywise_mmul(M, g), minv(M))


def g_at(n):
    return reduce_elt(gen(n))


def sl2_at(rng, n):
    """A seeded determinant-one matrix with level-n entries, each entry
    at its minimal level."""
    while True:
        a, b, c = (FieldElt(n, rng.randrange(1 << n)) for _ in range(3))
        if not a.is_zero:
            d = mul(inv(a), add(FieldElt(n, 1), mul(b, c)))
            return Mat2(*map(reduce_elt, (a, b, c, d)))


def joined_pairs():
    """Seeded SL2 pairs at every level pair (a, b) with lcm(a, b) <= N_MAX,
    and one upper triangular [[g_a, g_b], [0, g_a^(-1)]] per pair, whose
    entries sit at two levels."""
    rng = random.Random(37)
    for a in range(1, N_MAX + 1):
        for b in range(1, N_MAX + 1):
            if math.lcm(a, b) <= N_MAX:
                yield sl2_at(rng, a), sl2_at(rng, b)
                yield Mat2(g_at(a), g_at(b), ZERO, cinv(g_at(a))), sl2_at(rng, b)


def test_joined_level_matches_the_entrywise_route():
    for M, N in joined_pairs():
        assert mmul(M, N) == entrywise_mmul(M, N), (M, N)
        assert conj(M, N) == entrywise_conj(M, N), (M, N)


def test_joined_conj_scales_by_the_inverse_determinant_and_refuses_a_singular_matrix():
    rng = random.Random(38)
    for n in (2, 5, 12, 20, 25, 30):
        M = Mat2(g_at(n), ONE, ONE, g_at(n))  # determinant g^2 + 1, not 0 or 1 from level 2 on
        assert not mdet(M).is_zero and not mdet(M).is_one
        N = sl2_at(rng, n)
        assert conj(M, N) == entrywise_conj(M, N) == conj(normalize_to_sl2(M), N)
        S = Mat2(g_at(n), g_at(n), ONE, ONE)
        with pytest.raises(SingularMatrix) as joined:
            conj(S, N)
        with pytest.raises(SingularMatrix) as entrywise:
            entrywise_conj(S, N)
        assert str(joined.value) == str(entrywise.value) == f"matrix {S} has determinant zero"


def test_past_n_max_mmul_and_conj_run_the_entrywise_route():
    # L = lcm(4, 3, 1, 4, 5, 1, 1, 5) = 60, yet every entrywise join of the
    # product stays at 20 or below; conj's second product is the first to
    # need level 60
    g4, g3, g5 = g_at(4), g_at(3), g_at(5)
    M, N = Mat2(g4, g3, ZERO, cinv(g4)), diag_mat(g5, cinv(g5))
    P = mmul(M, N)
    assert P == entrywise_mmul(M, N)
    assert [e.level for e in P.entries()] == [20, 15, 1, 20]
    with pytest.raises(LevelOverflow, match=r"^join needs level 60 = lcm\(20, 3\) > 30$"):
        conj(M, N)
    # both routes overflow at the same first join
    g9 = g_at(9)
    M, N = diag_mat(g4, cinv(g4)), diag_mat(g9, cinv(g9))
    for op, ref in ((mmul, entrywise_mmul), (conj, entrywise_conj)):
        with pytest.raises(LevelOverflow) as got:
            op(M, N)
        with pytest.raises(LevelOverflow) as want:
            ref(M, N)
        assert str(got.value) == str(want.value) == "join needs level 36 = lcm(4, 9) > 30"


def test_joined_level_never_calls_the_closure_ops(monkeypatch):
    # the entries reduce once, at the end: a per-entry cmul or cadd inside
    # mmul or conj would reduce every intermediate value
    def refused(a, b):
        raise AssertionError("closure op inside a joined-level product")

    pairs = list(joined_pairs())
    monkeypatch.setattr(sl, "cmul", refused)
    monkeypatch.setattr(sl, "cadd", refused)
    for M, N in pairs:
        mmul(M, N)
        conj(M, N)
    conj(Mat2(g_at(6), ONE, ONE, g_at(6)), pairs[0][1])  # determinant other than 1
