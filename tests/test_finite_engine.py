"""Group queries on the enumerated tables."""

import os
import subprocess
import sys
from collections import Counter
from math import gcd
from pathlib import Path

import numpy as np
import pytest

from sl2bar import finite_engine as fe, verify
from sl2bar.closure import ONE, ZERO, celt, cinv
from sl2bar.errors import BoundExceeded, InvariantViolated, PreconditionError
from sl2bar.sl2_core import (
    SWAP,
    Mat2,
    SubsetName,
    are_conjugate,
    classify_jordan,
    conj,
    diag_mat,
    mat_from_masks,
    minv,
    parse_mat,
    mmul,
    upper_uni,
)
from sl2bar.gf2_field import FieldElt, add, mul

G2 = celt(2, 2)
TABLES = [(n, fe.KIND_SL2) for n in range(1, 6)] + [(n, fe.KIND_GL2) for n in range(1, 4)]


def sl2(n):
    return fe.enumerate_group(n, fe.KIND_SL2)


def require_subgroup(H):
    """The identity is present, and H is closed under inverses and products."""
    G, idx = H.parent, H.indices()
    assert H.member[0]
    assert H.member[G.inv_index[idx]].all()
    assert H.member[G.mul_vec(idx[:, None], idx[None, :])].all()


def is_member(M, which):
    """Scalar reference for fe.subset_member: is M in the named shape subset?"""
    if which is SubsetName.DIAG:
        return M.b.is_zero and M.c.is_zero
    if which is SubsetName.OFF_DIAG:
        return M.a.is_zero and M.d.is_zero
    if which is SubsetName.UPPER_TRI:
        return M.c.is_zero
    if which is SubsetName.UPPER_UNI:
        return M.c.is_zero and M.a.is_one and M.d.is_one
    if which is SubsetName.LOWER_TRI:
        return M.b.is_zero
    if which is SubsetName.LOWER_UNI:
        return M.b.is_zero and M.a.is_one and M.d.is_one
    raise ValueError(which)


def test_group_orders_match_formulas():
    for n in (1, 2, 3):
        assert len(sl2(n)) == fe.order_formula(n, fe.KIND_SL2)
    for n in (1, 2, 3):
        assert len(fe.enumerate_group(n, fe.KIND_GL2)) == fe.order_formula(n, fe.KIND_GL2)
    assert len(sl2(2)) == 60
    assert len(sl2(1)) == 6
    assert len(sl2(3)) == 504


def test_enumeration_bounds():
    with pytest.raises(BoundExceeded):
        fe.enumerate_group(6, fe.KIND_SL2)
    with pytest.raises(BoundExceeded):
        fe.enumerate_group(4, fe.KIND_GL2)


def test_one_cached_table_per_level_and_kind():
    # a caller passing no kind and the replay passing KIND_SL2 share a table
    from sl2bar.endo import replay_cohopf_skeleton

    fe.enumerate_group.cache_clear()
    fe.enumerate_group(4)
    replay_cohopf_skeleton(4)
    assert fe.enumerate_group.cache_info().misses == 1


@pytest.mark.parametrize("n, kind", TABLES)
def test_enumeration_is_identity_then_ascending_code(n, kind):
    # the lowest-index witnesses rest on this order, and no sort makes it
    G = fe.enumerate_group(n, kind)
    assert np.array_equal(G.masks[0], [1, 0, 0, 1])
    assert np.all(np.diff(fe._code(n, G.cols[:, 1:])) > 0)


def test_identity_first_and_lookup():
    G = sl2(2)
    assert np.array_equal(G.masks[0], [1, 0, 0, 1])
    i = G.index_of(diag_mat(G2, cinv(G2)))
    assert G.mat(i) == diag_mat(G2, cinv(G2))
    with pytest.raises(ValueError):
        G.index_of(diag_mat(G2, G2))  # determinant g^2, not a member


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_the_closed_form_index_reads_back_every_member(n):
    G = sl2(n)
    assert np.array_equal(G._index(G.cols), np.arange(len(G)))


@pytest.mark.parametrize("n", [3, 4, 5])
def test_a_determinant_one_table_holds_no_array_of_every_code(n):
    # a table of all q^4 codes has q^3 / (q^2 - 1) > q entries per element,
    # more than the 4 of the entry columns
    G = sl2(n)
    G.element_orders()
    sizes = {k: v.size for k, v in vars(G).items() if isinstance(v, np.ndarray)}
    assert max(sizes.values()) <= 4 * len(G), sizes


@pytest.mark.parametrize("n, kind", TABLES)
def test_index_of_rows_rejects_every_non_member(n, kind):
    # the rows with a = b = 0, and 300 seeded rows; at n >= 2 the latter
    # hold determinants other than 0 and 1, the gl2-only rows of an sl2 table
    G = fe.enumerate_group(n, kind)
    c, d = (x.ravel() for x in np.indices((G.q, G.q), dtype=np.int64))
    rng = np.random.default_rng(1000 * n + (kind == fe.KIND_GL2))
    rows = np.concatenate([np.stack([0 * c, 0 * c, c, d], axis=1), rng.integers(0, G.q, size=(300, 4))])
    dets = []
    for row in rows:
        e = [FieldElt(n, int(x)) for x in row]
        det = add(mul(e[0], e[3]), mul(e[1], e[2])).mask
        dets.append(det)
        if det == 1 or (det != 0 and kind == fe.KIND_GL2):
            assert G.masks[G.index_of_rows(row[None, :])[0]].tolist() == row.tolist()
        else:
            with pytest.raises(ValueError):
                G.index_of_rows(row[None, :])
    assert 0 in dets and (n == 1 or set(dets) - {0, 1})


@pytest.mark.parametrize("n, kind", TABLES)
def test_index_products_agree_with_scalar_products_on_every_table(n, kind):
    G = fe.enumerate_group(n, kind)
    rng = np.random.default_rng(2000 * n + (kind == fe.KIND_GL2))
    i, j = rng.integers(0, len(G), size=(2, 200))
    prods, conjs = G.mul_vec(i, j), G.conj_vec(i, j)
    for k, (x, y) in enumerate(zip(i.tolist(), j.tolist())):
        X, Y = G.mat(x), G.mat(y)
        assert prods[k] == G.index_of(mmul(X, Y))
        assert conjs[k] == G.index_of(conj(X, Y))
        assert G.inv_index[x] == G.index_of(minv(X))
        assert G.commute_vec(x, y) == (mmul(X, Y) == mmul(Y, X))


def test_index_products_agree_with_scalar_matrix_products():
    G = sl2(2)
    n = len(G)
    got = G.mul_vec(np.arange(n)[:, None], np.arange(n)[None, :])
    want = np.array([[G.index_of(mmul(G.mat(i), G.mat(j))) for j in range(n)] for i in range(n)])
    assert np.array_equal(got, want)
    assert int(G.mul_vec(0, 5)) == 5 and int(G.mul_vec(5, 0)) == 5
    assert all(int(G.mul_vec(i, G.inv_index[i])) == 0 for i in range(len(G)))


def test_centralizer_examples():
    G = sl2(2)
    assert fe.centralizer_bf(G, 0).size == len(G)
    cz = fe.centralizer_bf(G, G.index_of(diag_mat(G2, cinv(G2))))
    assert cz.size == 3
    assert cz == fe.named_subgroup(G, SubsetName.DIAG)
    czu = fe.centralizer_bf(G, G.index_of(upper_uni(ONE)))
    assert czu.size == 4
    assert czu == fe.named_subgroup(G, SubsetName.UPPER_UNI)
    for H in (cz, czu):
        require_subgroup(H)


@pytest.mark.parametrize("kind, n", [(fe.KIND_SL2, n) for n in (1, 2, 3, 4)] + [(fe.KIND_GL2, n) for n in (1, 2)])
def test_centralizer_matches_the_whole_table_scan(kind, n):
    # the scan is the reference: every element, or one per class at SL2(16)
    G = fe.enumerate_group(n, kind)
    gs = [int(cls[0]) for cls in fe.conjugacy_classes(G)] if n == 4 else range(len(G))
    for g in gs:
        assert np.array_equal(fe.centralizer_bf(G, g).member, G.commute_vec(slice(None), g)), g


def _conj_by_inverse_index(G, i, j):
    """The reference conjugation i j i^(-1), the inverse read through inv_index."""
    return G.mul_vec(G.mul_vec(i, j), G.inv_index[i])


@pytest.mark.parametrize("n", [1, 2, 3])
def test_conjugation_matches_the_inverse_index_route(n):
    G = sl2(n)
    i, j = np.arange(len(G))[:, None], np.arange(len(G))[None, :]
    assert np.array_equal(G.conj_vec(i, j), _conj_by_inverse_index(G, i, j))


def test_conjugation_matches_the_inverse_index_route_in_the_replay_shape():
    # ReplayFrame.steps straightens a (B, 1) column of conjugators against
    # a (B, |U|) block of images
    G = sl2(4)
    rng = np.random.default_rng(36)
    alpha, img = rng.integers(0, len(G), size=(31, 1)), rng.integers(0, len(G), size=(31, 257))
    assert np.array_equal(G.conj_vec(alpha, img), _conj_by_inverse_index(G, alpha, img))


def test_commutation_agrees_with_scalar_matrix_products():
    for G in (sl2(2), fe.enumerate_group(2, fe.KIND_GL2)):
        mats = [G.mat(i) for i in range(len(G))]
        every = np.arange(len(G))
        got = G.commute_vec(every[:, None], every[None, :])
        want = np.array([[mmul(M, N) == mmul(N, M) for N in mats] for M in mats])
        assert np.array_equal(got, want)


def test_subset_member_agrees_with_scalar_membership():
    for n in (1, 2, 3):
        G = sl2(n)
        mats = [G.mat(i) for i in range(len(G))]
        for name in SubsetName:
            want = [is_member(M, name) for M in mats]
            assert fe.subset_member(G, name).tolist() == want
            assert fe.subset_indices(G, name).tolist() == [i for i, w in enumerate(want) if w]


def test_subset_member_examples():
    G = sl2(2)
    M = parse_mat("[[0x2@2,0x1@1],[0x0@1,0x3@2]]")
    for i, names in (
        (0, set(SubsetName) - {SubsetName.OFF_DIAG}),
        (G.index_of(SWAP), {SubsetName.OFF_DIAG}),
        (G.index_of(M), {SubsetName.UPPER_TRI}),
    ):
        assert {name for name in SubsetName if fe.subset_member(G, name)[i]} == names


def test_normalizer_examples():
    G = sl2(2)
    delta = fe.named_subgroup(G, SubsetName.DIAG)
    nd = fe.normalizer_bf(G, delta)
    assert nd.size == 6
    union = np.sort(np.concatenate([delta.indices(), fe.subset_indices(G, SubsetName.OFF_DIAG)]))
    assert np.array_equal(nd.indices(), union)
    assert fe.normalizer_bf(G, fe.named_subgroup(G, SubsetName.UPPER_UNI)) == fe.named_subgroup(G, SubsetName.UPPER_TRI)
    assert fe.normalizer_bf(G, fe.named_subgroup(G, SubsetName.LOWER_UNI)) == fe.named_subgroup(G, SubsetName.LOWER_TRI)
    require_subgroup(nd)


def test_abelian_and_metabelian():
    G = sl2(2)
    delta = fe.named_subgroup(G, SubsetName.DIAG)
    assert fe.is_abelian(delta)
    nd = fe.normalizer_bf(G, delta)
    assert not fe.is_abelian(nd)
    assert fe.is_metabelian(nd)
    u = fe.named_subgroup(G, SubsetName.UPPER_TRI)
    assert fe.is_metabelian(u) and not fe.is_abelian(u)
    assert not fe.is_metabelian(fe.SubgroupRef(G, np.ones(len(G), dtype=bool)))  # the group is simple and nonabelian


def _normalizer_by_every_member(G, H):
    """The reference normalizer: conjugate by every member of H."""
    keep = np.ones(len(G), dtype=bool)
    for h in H.indices():
        keep &= H.member[G.conj_vec(np.arange(len(G)), np.int64(h))]
    return keep


def _normalizer_by_whole_table(G, H):
    """The reference normalizer: each generator conjugates the whole table."""
    keep = np.ones(len(G), dtype=bool)
    for h in fe._generators(H):
        keep &= H.member[G.conj_vec(slice(None), h)]
    return keep


def _derived_by_every_pair(H):
    """The reference derived subgroup: generated by the commutators of every pair of members."""
    G, idx = H.parent, H.indices()
    xy = G.mul_vec(idx[:, None], idx[None, :])
    yx = G.mul_vec(idx[None, :], idx[:, None])
    return fe.subgroup_generated(G, np.unique(G.mul_vec(xy, G.inv_index[yx]))).member


@pytest.mark.parametrize(
    "kind, n", [(fe.KIND_SL2, n) for n in (1, 2, 3, 4)] + [(fe.KIND_GL2, n) for n in (1, 2, 3)]
)
def test_generator_routes_match_the_every_member_references(kind, n):
    G = fe.enumerate_group(n, kind)
    subs = [fe.named_subgroup(G, name) for name in SubsetName if name is not SubsetName.OFF_DIAG]
    delta = fe.named_subgroup(G, SubsetName.DIAG)
    subs.append(fe.SubgroupRef(G, _normalizer_by_every_member(G, delta)))
    subs.append(fe.SubgroupRef(G, np.ones(len(G), dtype=bool)))  # the replay's generating set
    for H in subs:
        gens = fe._generators(H)
        for k, g in enumerate(gens):
            before = fe.subgroup_generated(G, gens[:k]).member
            assert not before[g]  # outside the subgroup the earlier ones generate
            assert before[: g][H.member[: g]].all()  # and the least member of H that is
        assert np.array_equal(fe.subgroup_generated(G, gens).member, H.member)
        assert np.array_equal(fe.normalizer_bf(G, H).member, _normalizer_by_every_member(G, H))
        assert np.array_equal(fe.normalizer_bf(G, H).member, _normalizer_by_whole_table(G, H))
        if H.size <= fe.PAIRS_MAX:
            assert np.array_equal(fe.derived_subgroup(H).member, _derived_by_every_pair(H))


def test_ct_witnesses_are_deterministic():
    gl = fe.enumerate_group(2, fe.KIND_GL2)
    assert fe.ct_check_centralizers(gl).witness == fe.ct_check_centralizers(gl).witness
    assert fe.ct_check_triples(gl).witness == fe.ct_check_triples(gl).witness


def test_ct_reports():
    assert fe.ct_check_centralizers(sl2(2)).holds
    assert fe.ct_check_centralizers(sl2(3)).holds
    assert fe.ct_check_centralizers(sl2(1)).holds
    gl = fe.enumerate_group(2, fe.KIND_GL2)
    rep = fe.ct_check_centralizers(gl)
    assert not rep.holds and rep.witness is not None  # CtReport validates its own witness
    trip = fe.ct_check_triples(gl)
    assert not trip.holds and trip.witness == (1, 85, 2)
    assert fe.ct_check_triples(sl2(1)).holds
    assert fe.ct_check_triples(sl2(2)).holds
    with pytest.raises(BoundExceeded):
        fe.ct_check_triples(sl2(4))


def _ct_by_scanning_every_element(G):
    """The reference route: test the centralizer of every nontrivial
    element, in index order, and rebuild the witness from the first
    nonabelian one, from index products alone."""
    every = np.arange(len(G))
    for g in range(1, len(G)):
        cz = np.flatnonzero(G.mul_vec(g, every) == G.mul_vec(every, g))
        same = G.mul_vec(cz[:, None], cz[None, :]) == G.mul_vec(cz[None, :], cz[:, None])
        if not same.all():
            i, j = np.argwhere(~same)[0]
            return False, (int(cz[i]), g, int(cz[j]))
    return True, None


@pytest.mark.parametrize(
    "kind, n", [(fe.KIND_SL2, n) for n in (1, 2, 3, 4)] + [(fe.KIND_GL2, n) for n in (1, 2, 3)]
)
def test_ct_class_route_matches_the_element_scan(kind, n):
    G = fe.enumerate_group(n, kind)
    rep = fe.ct_check_centralizers(G)
    assert (rep.holds, rep.witness) == _ct_by_scanning_every_element(G)


def _ct_by_the_triple_sentence(G):
    """The literal reference for the transitivity sentence: for every x and
    every nontrivial y with xy = yx, each z with yz = zy has xz = zx.
    Commutation is read from index products alone; x and y run in index
    order and the z of a pair are tested at once, so the witness is the
    lowest triple."""
    every = np.arange(len(G))
    comm = G.mul_vec(every[:, None], every[None, :]) == G.mul_vec(every[None, :], every[:, None])
    for x in range(len(G)):
        for y in range(1, len(G)):
            if comm[x, y]:
                bad = comm[y] & ~comm[x]
                if bad.any():
                    return False, (x, y, int(np.argmax(bad)))
    return True, None


@pytest.mark.parametrize("kind, n", [(fe.KIND_SL2, n) for n in (1, 2, 3)] + [(fe.KIND_GL2, 2)])
def test_ct_triples_match_the_literal_sentence(kind, n):
    G = fe.enumerate_group(n, kind)
    rep = fe.ct_check_triples(G)
    assert (rep.holds, rep.witness) == _ct_by_the_triple_sentence(G)


@pytest.mark.parametrize(
    "kind, n", [(fe.KIND_SL2, n) for n in (1, 2, 3, 4)] + [(fe.KIND_GL2, n) for n in (1, 2, 3)]
)
def test_table_matrices_match_the_scalar_constructor(kind, n):
    G = fe.enumerate_group(n, kind)
    assert all(G.mat(i) == mat_from_masks(n, G.masks[i]) for i in range(len(G)))


def test_a_merged_conjugacy_class_is_caught(monkeypatch):
    good = fe.conjugacy_classes

    def merged(G):
        cls = good(G)
        return [cls[0], np.union1d(cls[1], cls[2]), *cls[3:]]

    monkeypatch.setattr(fe, "conjugacy_classes", merged)
    with pytest.raises(InvariantViolated):
        fe.ct_check_centralizers(sl2(2))
    report = verify.run_suite(max_level=2, name_filter="c02-ct/centralizers/sl2/n2")
    assert [(c.name, c.status) for c in report.checks] == [("c02-ct/centralizers/sl2/n2", "fail")]


_BOGUS_WITNESS = """
from sl2bar import finite_engine as fe
from sl2bar.errors import InvariantViolated
G = fe.enumerate_group(2)
for holds, witness in ((False, (1, 2, 0)), (True, (1, 2, 0)), (False, None)):
    try:
        fe.CtReport(G, holds, witness)  # z = 0 is the identity, which commutes with x
    except InvariantViolated:
        continue
    raise SystemExit(f"accepted holds={holds}, witness={witness}")
"""


@pytest.mark.parametrize("flags", [[], ["-O"]])
def test_ct_report_rejects_a_bogus_witness(flags):
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run([sys.executable, *flags, "-c", _BOGUS_WITNESS], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stdout + done.stderr


# Sizes of the maximal abelian subgroups, as {order: count}: by Huppert,
# Endliche Gruppen I, II.8, SL2(q) for even q > 2 has q + 1 of order q (the
# Sylow 2-subgroups), q(q + 1)/2 of order q - 1 (split tori) and q(q - 1)/2
# of order q + 1 (nonsplit tori); at q = 2 the split tori are trivial.  GL2(4)
# is SL2(4) times the 3 scalars.
MAXIMAL_ABELIAN_SIZES = {
    (fe.KIND_SL2, 1): {2: 3, 3: 1},
    (fe.KIND_SL2, 2): {3: 10, 4: 5, 5: 6},
    (fe.KIND_SL2, 3): {7: 36, 8: 9, 9: 28},
    (fe.KIND_GL2, 2): {9: 10, 12: 5, 15: 6},
}


def test_maximal_abelian():
    for (kind, n), sizes in MAXIMAL_ABELIAN_SIZES.items():
        G = fe.enumerate_group(n, kind)
        subs = fe.maximal_abelian_subgroups(G)
        assert dict(Counter(H.size for H in subs)) == sizes
        for H in subs:
            assert fe.is_abelian(H)
            require_subgroup(H)
        holding = np.sum([H.member for H in subs], axis=0)  # how many listed subgroups hold each element
        if kind == fe.KIND_SL2:
            assert (holding[1:] == 1).all()  # so they meet trivially
            assert fe.maximal_abelian_intersections(G)
        else:
            assert (holding >= 1).all()
            assert not fe.maximal_abelian_intersections(G)  # the scalars lie in every one
    with pytest.raises(BoundExceeded):
        fe.maximal_abelian_subgroups(sl2(4))  # 4080 elements, past the pair table's bound


def test_subgroup_generated_examples():
    G = sl2(2)
    orders = G.element_orders()
    invol = np.flatnonzero(orders == 2)
    assert fe.subgroup_generated(G, invol).size == 60
    lt = fe.subset_indices(G, SubsetName.LOWER_UNI)
    gens = np.concatenate([[G.index_of(SWAP)], lt])
    assert fe.subgroup_generated(G, gens).size == 60
    assert fe.subgroup_generated(G, [0]).size == 1
    assert fe.subgroup_generated(G, []).size == 1
    # unsorted, repeated, and holding the identity: the same closure as [1, 3]
    mixed = fe.subgroup_generated(G, [3, 1, 3, 0]).member
    assert np.array_equal(mixed, fe.subgroup_generated(G, [1, 3]).member)
    assert np.array_equal(mixed, _closure_sorting_every_product(G, [3, 1, 3, 0]))


def _closure_sorting_every_product(G, gens):
    """Membership of the closure of gens: breadth-first from the generators,
    multiplying by all of them at once, each chunk's products sorted whole."""
    gens = np.unique(np.asarray(gens, dtype=np.int64))
    member = np.zeros(len(G), dtype=bool)
    member[0] = True
    frontier = gens[~member[gens]]
    member[gens] = True
    while len(frontier):
        step = max(1, fe.CLOSURE_CHUNK // len(frontier))
        found = []
        for k in range(0, len(gens), step):
            prods = np.unique(G.mul_vec(frontier[:, None], gens[None, k : k + step]))
            new = prods[~member[prods]]
            member[new] = True
            found.append(new)
        frontier = np.concatenate(found)
    return member


@pytest.mark.parametrize("which, n", [(w, n) for w in fe.GENERATOR_SETS for n in (2, 3, 4)] + [("swap-lower", 5)])
def test_subgroup_generated_matches_the_reference_closure(which, n):
    G = sl2(n)
    gens = fe.generator_set(G, which)
    for part in (gens, gens[:2]):  # the whole group, and a proper subgroup
        assert np.array_equal(fe.subgroup_generated(G, part).member, _closure_sorting_every_product(G, part))


def test_greedy_generating_sets_are_pinned():
    # values read from the closure that sorted each chunk's products
    G = sl2(5)
    assert fe._generators(fe.SubgroupRef(G, np.ones(len(G), dtype=bool))).tolist() == G.gens.tolist() == [1, 2, 3]
    assert fe._generators(fe.named_subgroup(G, SubsetName.UPPER_UNI)).tolist() == [1024, 1056, 1120, 1248, 1504]


@pytest.mark.parametrize("n, kind", [t for t in TABLES if t[0] <= 4])
def test_closing_one_generator_at_a_time_matches_the_breadth_first_closure(n, kind):
    G = fe.enumerate_group(n, kind)
    inputs = [fe.generator_set(G, which) for which in fe.GENERATOR_SETS] + fe.conjugacy_classes(G)
    for gens in inputs:
        assert np.array_equal(fe.subgroup_generated(G, gens).member, _closure_sorting_every_product(G, gens))


def _classes_by_conjugating_every_element(G):
    """The reference classes: conjugate each new representative by every element."""
    assigned = np.zeros(len(G), dtype=bool)
    classes = []
    for rep in range(len(G)):
        if not assigned[rep]:
            orbit = np.unique(G.conj_vec(np.arange(len(G)), np.int64(rep)))
            assigned[orbit] = True
            classes.append(orbit)
    return classes


def _orders_by_iterating_every_element(G):
    """The reference orders: iterate the products of every element at once."""
    orders = np.zeros(len(G), dtype=np.int64)
    orders[0] = 1
    cur = np.arange(len(G))
    k = 1
    while np.any(orders == 0):
        k += 1
        live = orders == 0
        cur[live] = G.mul_vec(cur[live], np.flatnonzero(live))
        orders[live & (cur == 0)] = k
    return orders


@pytest.mark.parametrize("n, kind", TABLES)
def test_class_routes_match_the_every_element_references(n, kind):
    G = fe.enumerate_group(n, kind)
    got, want = fe.conjugacy_classes(G), _classes_by_conjugating_every_element(G)
    assert len(got) == len(want)
    assert all(np.array_equal(a, b) for a, b in zip(got, want))
    assert np.array_equal(G.element_orders(), _orders_by_iterating_every_element(G))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_order_histogram_matches_dicksons_closed_form(n):
    # SL2(q), q = 2^n: the identity, q^2 - 1 involutions, and phi(d) q(q+1)/2
    # elements of each order d > 1 dividing q - 1 (split), phi(d) q(q-1)/2 of
    # each order d > 1 dividing q + 1 (nonsplit); Dickson, 1901
    q = 1 << n
    want = Counter({1: 1, 2: q * q - 1})
    for m, per_unit in ((q - 1, q * (q + 1) // 2), (q + 1, q * (q - 1) // 2)):
        for d in range(2, m + 1):
            if m % d == 0:
                want[d] += sum(gcd(k, d) == 1 for k in range(1, d + 1)) * per_unit
    orders, counts = np.unique(sl2(n).element_orders(), return_counts=True)
    assert dict(zip(orders.tolist(), counts.tolist())) == want
    assert sum(want.values()) == len(sl2(n))


def test_element_orders_against_matrix_layer():
    # every element: from n = 4 verify's c07 reads morder per trace fibre only
    for n in (1, 2, 3, 4):
        G = sl2(n)
        orders = G.element_orders()
        from sl2bar.sl2_core import morder

        for i in range(len(G)):
            assert orders[i] == morder(G.mat(i))


def test_conjugacy_classes_agree_with_classification():
    for n in (1, 2, 3):
        G = sl2(n)
        classes = fe.conjugacy_classes(G)
        assert sum(len(c) for c in classes) == len(G)
        labels = {}
        for k, cls in enumerate(classes):
            for i in cls:
                labels[int(i)] = k
        jordan = [classify_jordan(G.mat(i)) for i in range(len(G))]
        for k, cls in enumerate(classes):
            kinds = {jordan[int(i)] for i in cls}
            assert len(kinds) == 1  # one class, one descriptor
        distinct = {}
        for k, cls in enumerate(classes):
            j = jordan[int(cls[0])]
            assert j not in distinct  # distinct classes, distinct descriptors
            distinct[j] = k
        # spot check the pairwise contract on a slice of pairs
        for i in range(0, len(G), max(1, len(G) // 40)):
            for j in range(0, len(G), max(1, len(G) // 40)):
                assert are_conjugate(G.mat(i), G.mat(j)) == (labels[i] == labels[j])


def test_is_simple():
    assert not fe.is_simple(sl2(1))
    assert fe.is_simple(sl2(2))
    assert fe.is_simple(sl2(3))
    assert not fe.is_simple(fe.enumerate_group(2, fe.KIND_GL2))


def test_projective_action():
    G = sl2(2)
    pa = fe.projective_action(G)
    assert pa.n_points == 5
    assert pa.is_faithful()
    assert pa.image_order() == 60
    assert pa.all_even()
    assert pa.perm_order(G.index_of(upper_uni(ONE))) == 2
    pa1 = fe.projective_action(sl2(1))
    assert pa1.n_points == 3 and pa1.image_order() == 6
    assert not pa1.all_even()  # the image is the symmetric group on 3 points
    with pytest.raises(BoundExceeded):
        fe.projective_action(fe.enumerate_group(2, fe.KIND_GL2))


def test_image_order_counts_distinct_rows():
    repeated = np.array([[1, 0, 2], [0, 1, 2], [1, 0, 2], [0, 1, 2], [1, 0, 2]])
    assert fe.ProjectiveAction(repeated).image_order() == 2
    last_column = np.array([[2, 0, 1], [2, 0, 3], [2, 0, 1], [2, 0, 0], [2, 0, 3]])  # rows that differ only at the end
    assert fe.ProjectiveAction(last_column).image_order() == 3
    assert fe.ProjectiveAction(np.array([[0, 1]])).image_order() == 1


def test_unipotent_as_order3_product():
    G = sl2(2)
    a, b = fe.unipotent_as_order3_product(G)
    orders = G.element_orders()
    assert orders[a] == 3 and orders[b] == 3
    assert int(G.mul_vec(a, b)) == G.index_of(upper_uni(ONE))
    assert int((orders == 3).sum()) == 20
    with pytest.raises(PreconditionError):
        fe.unipotent_as_order3_product(sl2(1))
    # inverse pairs are the only order-3 pairs multiplying to the identity
    for x in np.flatnonzero(orders == 3):
        for y in np.flatnonzero(orders == 3):
            if int(G.mul_vec(x, y)) == 0:
                assert int(y) == int(G.inv_index[x])


def test_semidirect_check():
    G = sl2(2)
    delta = fe.named_subgroup(G, SubsetName.DIAG)
    swap_grp = fe.subgroup_generated(G, [G.index_of(SWAP)])
    ut = fe.named_subgroup(G, SubsetName.UPPER_UNI)
    whole, trivial = fe.SubgroupRef(G, np.ones(len(G), dtype=bool)), fe.SubgroupRef(G, np.arange(len(G)) == 0)
    for N, H in ((delta, swap_grp), (ut, delta), (whole, trivial)):
        # the check returns the join it closed
        assert fe.semidirect_check(G, N, H) == fe.subgroup_generated(G, np.concatenate([N.indices(), H.indices()]))
    assert fe.semidirect_check(G, delta, delta) is None  # the intersection is everything


@pytest.mark.parametrize("n", [2, 3, 4])
def test_semidirect_check_rejects_a_factor_that_is_not_normal(n):
    # the diagonal meets the lower unitriangulars trivially, and their
    # product fills the join, the lower triangulars: only normality fails
    G = sl2(n)
    delta, lt = fe.named_subgroup(G, SubsetName.DIAG), fe.named_subgroup(G, SubsetName.LOWER_UNI)
    lower = fe.named_subgroup(G, SubsetName.LOWER_TRI)
    assert (delta.member & lt.member).sum() == 1
    assert fe.subgroup_generated(G, np.concatenate([delta.indices(), lt.indices()])) == lower
    assert len(np.unique(G.mul_vec(delta.indices()[:, None], lt.indices()[None, :]))) == lower.size
    assert not fe.semidirect_check(G, delta, lt)


@pytest.mark.parametrize("n", [2, 3])
def test_semidirect_check_fails_when_the_products_miss_the_join(monkeypatch, n):
    # a join read as the whole group: N is normal in it and meets H
    # trivially, so only the product set N H can fail
    G = sl2(n)
    delta, ut = fe.named_subgroup(G, SubsetName.DIAG), fe.named_subgroup(G, SubsetName.UPPER_UNI)
    swap_grp = fe.subgroup_generated(G, [G.index_of(SWAP)])
    monkeypatch.setattr(fe, "subgroup_generated", lambda G, gens: fe.SubgroupRef(G, np.ones(len(G), dtype=bool)))
    assert not fe.semidirect_check(G, delta, swap_grp)
    assert not fe.semidirect_check(G, ut, delta)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_ut_lt_disjointness_fails_when_the_sides_coincide(monkeypatch, n):
    real = fe.subset_member

    def lower_is_upper(G, name):
        return real(G, SubsetName.UPPER_UNI if name is SubsetName.LOWER_UNI else name)

    monkeypatch.setattr(fe, "subset_member", lower_is_upper)
    assert not fe.ut_lt_disjointness(sl2(n))


def test_ut_lt_disjointness():
    assert fe.ut_lt_disjointness(sl2(1))
    assert fe.ut_lt_disjointness(sl2(2))
    assert fe.ut_lt_disjointness(sl2(3))
    # the level-1 pair in matrices
    U, L = upper_uni(ONE), Mat2(ONE, ZERO, ONE, ONE)
    assert mmul(U, L) != mmul(L, U)


def test_named_subgroup_rejects_off_diagonal():
    with pytest.raises(PreconditionError):
        fe.named_subgroup(sl2(2), SubsetName.OFF_DIAG)


def test_subgroup_serialization():
    rep = fe.ct_check_centralizers(fe.enumerate_group(2, fe.KIND_GL2))
    js = rep.to_json()
    assert js["holds"] is False and len(js["witness"]) == 3
