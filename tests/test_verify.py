"""The verify report: the byte contract at level 2, crash containment, and
the registry checks that catch a wrong answer from the library."""

import json
import os
import random
import signal
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from sl2bar import closure, endo, finite_engine as fe, gf2_field as gf, sl2_core as sl, verify
from sl2bar.cli import main
from sl2bar.closure import cadd, cmul, reduce_elt
from sl2bar.gf2_field import FieldElt

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden" / "verify-max2.json"
GOLDEN_MAX5 = ROOT / "perfbench" / "golden" / "verify-max5.json"  # read only: a benchmark file


def _zero_millis(report: dict) -> str:
    for c in report["checks"]:
        c["millis"] = 0
    return json.dumps(report, separators=(",", ":")) + "\n"


@pytest.mark.parametrize("max_level, golden", [(2, GOLDEN), (5, GOLDEN_MAX5)], ids=["max2", "max5"])
def test_report_matches_golden(max_level, golden):
    got = _zero_millis(verify.run_suite(max_level=max_level).to_json())
    assert got == golden.read_text(encoding="ascii")


@pytest.mark.parametrize("max_level, golden", [(2, GOLDEN), (5, GOLDEN_MAX5)], ids=["max2", "max5"])
def test_report_under_optimize_matches_golden(max_level, golden):
    src = str(ROOT / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    argv = [sys.executable, "-O", "-m", "sl2bar", "verify", "--max-level", str(max_level), "--json"]
    done = subprocess.run(argv, env=env, capture_output=True, text=True, check=True)
    assert _zero_millis(json.loads(done.stdout)) == golden.read_text(encoding="ascii")


def test_crashing_check_is_recorded_and_the_suite_continues(monkeypatch, capsys):
    def boom():
        raise AssertionError("injected fault")

    monkeypatch.setattr(verify, "_check_conway_table", boom)
    code = main(["verify", "--json", "--max-level", "2", "--filter", "c13-"])
    report = json.loads(capsys.readouterr().out)
    assert code == 1
    by_name = {c["name"]: c for c in report["checks"]}
    crashed = by_name.pop("c13-conway/validity")
    assert crashed["status"] == "fail"
    assert crashed["witness"] == {"error": "AssertionError: injected fault"}
    assert len(by_name) == 7 and all(c["status"] == "pass" for c in by_name.values())
    assert report["summary"] == {"pass": 7, "fail": 1, "skipped": 0}


def test_the_suite_builds_each_group_table_once(monkeypatch):
    # one table per (level, kind) and check family: a second build would
    # mean some check enumerates a group apart from the shared cache
    built = []
    init = fe.GroupTable.__init__

    def counted(G, level, kind, masks):
        built.append((level, kind))
        init(G, level, kind, masks)

    monkeypatch.setattr(fe.GroupTable, "__init__", counted)
    fe.enumerate_group.cache_clear()
    verify.run_suite(max_level=2)
    assert len(built) == len(set(built)) == 4, built


def test_centralizers_never_scan_the_whole_table(monkeypatch):
    # c02's class route, c03 and c05 read their centralizers off the kernel
    # of y -> xy + yx; the whole-table scan is only the tests' reference
    good = fe.GroupTable.commute_vec

    def guarded(G, i, j):
        if isinstance(i, slice):
            raise AssertionError("whole-table commutation scan")
        return good(G, i, j)

    monkeypatch.setattr(fe.GroupTable, "commute_vec", guarded)
    assert fe.ct_check_centralizers(fe.enumerate_group(4)).holds
    for family in ("c02-ct/centralizers/", "c03-prop3/", "c05-prop5-6/"):
        report = verify.run_suite(max_level=4, name_filter=family)
        assert report.checks and all(c.status == "pass" for c in report.checks), family


def _morder_off_by_one_on_split(monkeypatch):
    good = sl.morder
    monkeypatch.setattr(sl, "morder", lambda M: good(M) + (sl.classify_jordan(M).kind == "split"))


def _element_orders_wrong_at_the_last(monkeypatch):
    # the last element of SL2(16) is no fibre's first member, and an odd
    # wrong order passes the even-order and trace conditions
    good = fe.GroupTable.element_orders

    def wrong(G):
        orders = good(G).copy()  # the table caches its orders: leave them whole
        orders[-1] += 2
        return orders

    monkeypatch.setattr(fe.GroupTable, "element_orders", wrong)


def _conj_vec_ignores_the_conjugator(monkeypatch):
    good = fe.GroupTable.conj_vec
    monkeypatch.setattr(fe.GroupTable, "conj_vec", lambda G, i, j: np.broadcast_to(j, np.shape(good(G, i, j))))


def _conj_vec_adjugate_unswapped(monkeypatch):
    # the adjugate read as (a, b, c, d), so i j i in place of i j i^(-1)
    def wrong(G, i, j):
        n, F, c = G.level, G._flat, G.cols
        x = c[:, i]
        return G._index(fe._mul(F, n, fe._mul(F, n, x, c[:, j]), x))

    monkeypatch.setattr(fe.GroupTable, "conj_vec", wrong)


def _commutant_kernel_drops_x(monkeypatch):
    # span{I} in place of span{I, x}: a non-scalar x is left with the
    # scalars of determinant one, the identity alone
    good = fe.commutant_kernel

    def dropped(x):
        basis = good(x)
        one, zero = FieldElt(x[0].level, 1), FieldElt(x[0].level, 0)
        return basis if len(basis) == 4 else [(one, zero, zero, one)]

    monkeypatch.setattr(fe, "commutant_kernel", dropped)


def _unitriangular_sides_swapped(monkeypatch):
    good = fe.subset_member
    swap = {sl.SubsetName.UPPER_UNI: sl.SubsetName.LOWER_UNI, sl.SubsetName.LOWER_UNI: sl.SubsetName.UPPER_UNI}
    monkeypatch.setattr(fe, "subset_member", lambda G, name: good(G, swap.get(name, name)))


def _enumerate_group_drops_a_row(monkeypatch):
    good = fe.enumerate_group
    monkeypatch.setattr(fe, "enumerate_group", lambda n, kind=fe.KIND_SL2: fe.GroupTable(n, kind, good(n, kind).masks[:-1]))


def _involution_factors_reversed(monkeypatch):
    good = sl.diag_as_two_involutions
    monkeypatch.setattr(sl, "diag_as_two_involutions", lambda lam: good(lam)[::-1])


def _max_order_misses_a_mask(monkeypatch):
    good = gf.LevelTables.__dict__["max_order"].func
    monkeypatch.setattr(gf.LevelTables, "max_order", property(lambda t: good(t)[1:]))


def _artin_schreier_wrong_root(monkeypatch):
    good = verify.artin_schreier_solve

    def wrong(c):
        z = good(c)
        return None if z is None else FieldElt(c.level, z.mask ^ 0b10)  # z + g, and g^2 + g != 0

    monkeypatch.setattr(verify, "artin_schreier_solve", wrong)


def _swap_two_exps(monkeypatch, n):
    bad = gf.LevelTables(n, gf.ensure_log_table(n).mod)
    bad.exp[1], bad.exp[3] = bad.exp[3], bad.exp[1]
    bad.log[bad.exp[1]], bad.log[bad.exp[3]] = 1, 3
    monkeypatch.setitem(gf._LEVELS, n, bad)


def _log_table_two_exps_swapped(monkeypatch):
    _swap_two_exps(monkeypatch, 4)


def _level3_log_table_two_exps_swapped(monkeypatch):
    _swap_two_exps(monkeypatch, 3)


def _eq1_lam_for_lam_inverse(monkeypatch):
    good = sl.conjugate_eq1

    def wrong(lam, s, t, u, v):
        out = good(lam, s, t, u, v)
        return sl.Mat2(cadd(cmul(lam, cmul(s, v)), cmul(lam, cmul(t, u))), out.b, out.c, out.d)

    monkeypatch.setattr(sl, "conjugate_eq1", wrong)


def _eq2_corner_without_one(monkeypatch):
    good = sl.conjugate_eq2

    def wrong(lam, s, t, u, v):
        out = good(lam, s, t, u, v)
        corner = cmul(lam, cmul(s, u))
        return sl.Mat2(corner, out.b, out.c, corner)

    monkeypatch.setattr(sl, "conjugate_eq2", wrong)


def _conj_by_the_matrix_not_its_adjugate(monkeypatch):
    # the joined-level conj with M's entries (a, b, c, d) in place of its
    # adjugate (d, b, c, a), so M g M; c08's conjugators have determinant one
    def wrong(M, g):
        x = sl._joined(M.entries() + g.entries())
        return sl.Mat2(*map(reduce_elt, sl._product(gf.add, gf.mul, *sl._product(gf.add, gf.mul, *x), *x[:4])))

    monkeypatch.setattr(sl, "conj", wrong)


def _level13_pow_vec_merges_two_masks(monkeypatch):
    # Masks 2 and 3 lie outside c11's 64-pair sample at level 13, its sums
    # and products, and the Frobenius images of the sample, so only an
    # exhaustive bijectivity test sees mask 2 sent onto the image of mask 3.
    good = gf.LevelTables.pow_vec

    def merged(t, masks, e):
        return good(t, np.where(masks == 2, 3, masks) if t.n == 13 else masks, e)

    monkeypatch.setattr(gf.LevelTables, "pow_vec", merged)


def _product_ignores_the_order(monkeypatch):
    # x y becomes min(x, y) max(x, y), by code: that orders the factors as
    # their indices do, since the identity, the one element out of code
    # order, gives the same product either way
    good = fe._mul

    def ordered(MUL, n, x, y):
        swap = fe._code(n, x) > fe._code(n, y)
        return good(MUL, n, [np.where(swap, v, u) for u, v in zip(x, y)], [np.where(swap, u, v) for u, v in zip(x, y)])

    monkeypatch.setattr(fe, "_mul", ordered)


def _every_pair_commutes(monkeypatch):
    # every commutation decision reads commute_vec, so this one fault
    # reaches both the centralizers of c02 and the unitriangular sides of c06
    good = fe.GroupTable.commute_vec
    monkeypatch.setattr(fe.GroupTable, "commute_vec", lambda G, i, j: np.ones_like(good(G, i, j)))


def _commute_matrix_joins_element_1_to_a_partner(monkeypatch):
    # element 1 and its lowest non-commuting partner read as commuting, in
    # both triangles; only the pair-table routes read _commute_matrix
    good = fe._commute_matrix

    def wrong(G):
        comm = good(G)
        z = int(np.argmin(comm[1]))
        comm[1, z] = comm[z, 1] = True
        return comm

    monkeypatch.setattr(fe, "_commute_matrix", wrong)


def _generators_drops_its_last(monkeypatch):
    good = fe._generators
    monkeypatch.setattr(fe, "_generators", lambda H: good(H)[:-1])


def _conjugacy_classes_splits_one(monkeypatch):
    good = fe.conjugacy_classes

    def split(G):
        cls = good(G)
        return [cls[0], cls[1][::2], cls[1][1::2], *cls[2:]]

    monkeypatch.setattr(fe, "conjugacy_classes", split)


def _index_leaves_the_identity_in_code_order(monkeypatch):
    # the closed form without its last step: pos + 1 below the identity's
    # place in code order, q(q - 1), and pos from there on, so the identity
    # reads as the element coded just below it; the tables are built apart
    # from the cached ones, so none of those is built with the fault
    good = fe.enumerate_group

    class Unmoved(fe.GroupTable):
        def _index(self, e):
            if self.kind == fe.KIND_GL2:
                return super()._index(e)
            n, q = self.level, self.q
            a, b, c, d = e
            v = ((a << n | b) << n) | np.where(a == 0, d, c)
            return v - q + (v < q * q)

    monkeypatch.setattr(fe, "enumerate_group", lambda n, kind=fe.KIND_SL2: Unmoved(n, kind, good(n, kind).masks))


def _field_endos_all_the_identity(monkeypatch):
    # n copies of one ring automorphism: each row passes the scan alone
    monkeypatch.setattr(endo, "field_endos", lambda n: [endo.FieldEndo(n, 0)] * n)


def _lift_keeps_the_mask(monkeypatch):
    # additive and injective, but 2 * 2 = 4 at level 2 is not 4 at level 4
    monkeypatch.setattr(closure, "lift", lambda a, n: FieldElt(n, a.mask))


def _replay_squarings_all_frob0(monkeypatch):
    # every entrywise base map of the replay family is frob^0: each row
    # alone is a bijective homomorphism that agrees with the scalar path
    good = endo.replay_family

    def wrong(n):
        base, words = good(n)
        return [endo.Entrywise(endo.FieldEndo(n, 0)) if isinstance(s, endo.Entrywise) else s for s in base], words

    monkeypatch.setattr(endo, "replay_family", wrong)


def _level4_squares_rolled(monkeypatch):
    good = gf.LevelTables.__dict__["squares"].func
    monkeypatch.setattr(gf.LevelTables, "squares", property(lambda t: np.roll(good(t), 1) if t.n == 4 else good(t)))


def _c08_gap_fill_without_one(monkeypatch):
    # v = s^(-1) tu where s != 0 leaves those draws with determinant 0
    good = verify._eq1_eq2_draws

    def wrong(rng, count):
        draws = good(rng, count)
        for n, d in draws.items():
            tab = gf.ensure_log_table(n)
            s, t, u = d[:, 2], d[:, 3], d[:, 4]
            d[:, 5] = np.where(s != 0, tab.mul_table[tab.inv_table[s], tab.mul_table[t, u]], d[:, 5])
        return draws

    monkeypatch.setattr(verify, "_eq1_eq2_draws", wrong)


def _c08_gap_fill_u_without_inverse(monkeypatch):
    # u = t instead of t^(-1) where s = 0: only draws with t = 1 keep
    # determinant one, so the lowest failing draw is the first other one
    good = verify._eq1_eq2_draws

    def wrong(rng, count):
        draws = good(rng, count)
        for d in draws.values():
            d[:, 4] = np.where(d[:, 2] == 0, d[:, 3], d[:, 4])
        return draws

    monkeypatch.setattr(verify, "_eq1_eq2_draws", wrong)


FAULT_CASES = [  # (fault, the check that catches it, the start of its failure message)
    (_morder_off_by_one_on_split, "c07-dichotomy/orders/n2", "class-based order 4 disagrees"),
    # n4 reads morder on one member per trace fibre
    (_morder_off_by_one_on_split, "c07-dichotomy/orders/n4", "class-based order 4 disagrees with iterated order 3 at [[0x0@1,0x1@1],[0x1@1,0x1@1]]"),
    (_element_orders_wrong_at_the_last, "c07-dichotomy/orders/n4", "class-based order 17 disagrees with iterated order 19 at [[0xf@4,0xf@4],[0xf@4,0x3@2]]"),
    (_conj_vec_ignores_the_conjugator, "c05-prop5-6/triangular/n2", "the diagonal's conjugates of [[0x1@1,0x1@1],[0x0@1,0x1@1]] are not the nontrivial upper"),
    (_conj_vec_adjugate_unswapped, "c04-prop4/diag-normalizer/n2", "normalizer of the diagonal is not its union with the off-diagonal set"),
    # C(x) shrinks to {I}, and the orbit-stabilizer guard of the class route trips
    (_commutant_kernel_drops_x, "c02-ct/centralizers/sl2/n2", "InvariantViolated: element 1: centralizer of 1 and class of 15 in a group of 60"),
    # the centralizer and the orbit hold on either side; the normalizer does not
    (_unitriangular_sides_swapped, "c05-prop5-6/triangular/n2", "normalizer of the upper unitriangulars is not the upper triangulars"),
    (_enumerate_group_drops_a_row, "c01-orders/sl2/n2", "enumerated 59 elements"),
    (_involution_factors_reversed, "c09-generation/diag-two-involutions", "factor product fails"),
    (_max_order_misses_a_mask, "c11-field-cohopf/max-order/n4", "count 7 differs from the totient"),
    (_artin_schreier_wrong_root, "c14-artin-schreier/n3", "claimed solution invalid"),
    (_log_table_two_exps_swapped, "c11-field-cohopf/endos/n4", "frob^1 is not additive"),
    (_eq1_lam_for_lam_inverse, "c08-eq1-eq2/random", "identity (1) fails"),
    (_eq2_corner_without_one, "c08-eq1-eq2/random", "identity (2) fails"),
    (_level3_log_table_two_exps_swapped, "c08-eq1-eq2/random", "identity (1) fails"),
    (_conj_by_the_matrix_not_its_adjugate, "c08-eq1-eq2/random", "identity (1) fails for lam=0x2a@6, M=[[0x3d@6,0x21@6],[0x3f@6,0x0@1]]"),
    (_c08_gap_fill_without_one, "c08-eq1-eq2/random", "draw 0 has determinant 0x0@1, not 1: M=[[0x1@1,0x1@1],[0x1@1,0x1@1]]"),
    # draws 32, 36, 42 and 48 are the lower ones with s = 0, all with t = 1
    (_c08_gap_fill_u_without_inverse, "c08-eq1-eq2/random", "draw 50 has determinant 0x5@3, not 1: M=[[0x0@1,0x3@3],[0x3@3,0x2@3]]"),
    (_level13_pow_vec_merges_two_masks, "c11-field-cohopf/max-order/n13", "frob^0 is not injective"),
    # the classes come from the wrong conjugates, and the kernel's centralizer
    # does not fit them, so the orbit-stabilizer guard of the class route trips
    (_product_ignores_the_order, "c02-ct/centralizers/gl2/n2", "InvariantViolated: element 1: centralizer of 12 and class of 6 in a group of 180"),
    # the centralizers come from the kernel, but the search for a
    # non-commuting pair inside one finds none
    (_every_pair_commutes, "c02-ct/centralizers/gl2/n2", "centralizer route returned holds=True"),
    (_every_pair_commutes, "c06-prop7/ut-lt-disjoint/n2", "unitriangular sides intersect or commute nontrivially"),
    # the triple scan's witness rests on the false pair, and the report's
    # own check of it trips; maxab-agree lets it pass at sl2/n2, sl2/n3 and
    # gl2/n2, where the wrong rows are not abelian and the right ones remain
    (_commute_matrix_joins_element_1_to_a_partner, "c02-ct/triples-agree/sl2/n2", "InvariantViolated: witness (1, 2, 17) is not a commutation-transitivity counterexample"),
    (_commute_matrix_joins_element_1_to_a_partner, "c02-ct/maxab-agree/sl2/n1", "maximal-abelian route disagrees with the centralizer route"),
    (_generators_drops_its_last, "c04-prop4/diag-normalizer/n2", "normalizer of the diagonal is not its union"),
    # the orbit-stabilizer guard of the class route sees half a class
    (_conjugacy_classes_splits_one, "c02-ct/centralizers/sl2/n2", "InvariantViolated: element 1: centralizer of 4 and class of 8"),
    # conjugation reads no inverse index, so the normalizer comes out whole;
    # the derived subgroup's commutators that equal the identity read as
    # another element
    (_index_leaves_the_identity_in_code_order, "c04-prop4/diag-normalizer/n2", "normalizer is not metabelian"),
    (_field_endos_all_the_identity, "c11-field-cohopf/endos/n2", "frob^0 repeats"),
    (_lift_keeps_the_mask, "c13-conway/embedding-hom/n4", "embedding 2->4 is not multiplicative"),
    (_level4_squares_rolled, "c11-field-cohopf/endos/n4", "frob^1 does not permute the conjugates of 0x2@4"),
    (_level4_squares_rolled, "c11-field-cohopf/max-order/n4", "frob^1 does not permute the maximal-order elements"),
    (_replay_squarings_all_frob0, "c12-replay/n2", "InvariantViolated: frob^1 does not have order 2"),
    (_replay_squarings_all_frob0, "c12-replay/n4", "InvariantViolated: frob^1 does not have order 4"),
]


@pytest.mark.parametrize(
    "fault, check, message", [pytest.param(*case, id=f"{case[0].__name__.lstrip('_')}-{case[1]}") for case in FAULT_CASES]
)
def test_the_registry_check_catches_a_wrong_library_answer(monkeypatch, fault, check, message):
    # the message pins the reason: a check that crashes on the fault is also a "fail"
    fault(monkeypatch)
    gate = next(c.gate for c in verify.build_checks() if c.name == check)  # 2 for all but n4's 4 and n13's 5
    report = verify.run_suite(max_level=gate, name_filter=check)
    assert [(c.name, c.status) for c in report.checks] == [(check, "fail")]
    assert report.checks[0].witness["error"].startswith(message)


def test_c07_reads_morder_once_per_trace_fibre_from_level_4(monkeypatch):
    # the identity and one member of each of the q trace fibres: more calls
    # mean a return to per-element calls, fewer a skipped fibre
    calls = []
    good = sl.morder
    monkeypatch.setattr(sl, "morder", lambda M: calls.append(M) or good(M))
    assert verify._check_dichotomy(4) == {"elements": 4080}
    assert len(calls) == 1 + 16
    others = [sl.mat_entry_masks(M, 4) for M in calls if M != sl.IDENTITY]
    assert len(others) == 16 and {a ^ d for a, _, _, d in others} == set(range(16))


def test_c08_table_sides_agree_with_the_scalar_closed_forms():
    # c08's own draws: the first 100 pairs of every level 1..6
    draws = verify._eq1_eq2_draws(random.Random(verify._seed("c08-eq1-eq2/random")), 600)
    for n, d in draws.items():
        assert len(d) == 100
        closed1, conj1, closed2, conj2 = verify._eq1_eq2_sides(n, d[:, 1], d[:, 2:])
        for i, (_, lam, *quad) in enumerate(d.tolist()):
            lam_c = closure.celt(n, lam)
            s, t, u, v = sl.mat_from_masks(n, quad).entries()
            eq1 = sl.mat_entry_masks(sl.conjugate_eq1(lam_c, s, t, u, v), n)
            eq2 = sl.mat_entry_masks(sl.conjugate_eq2(lam_c, s, t, u, v), n)
            assert tuple(closed1[i].tolist()) == tuple(conj1[i].tolist()) == eq1
            assert tuple(closed2[i].tolist()) == tuple(conj2[i].tolist()) == eq2


# c08's first draw at each level 1..6 (lam, then (s, t, u, v)), and the
# rng's next 64 bits after them, as the reduce-and-lift draw gave them
C08_FIRST_DRAWS = [
    (1, 1, (1, 1, 1, 0)),
    (2, 1, (3, 3, 1, 3)),
    (3, 3, (4, 0, 6, 7)),
    (4, 5, (4, 1, 5, 1)),
    (5, 13, (10, 0, 31, 25)),
    (6, 42, (61, 33, 63, 0)),
]
C08_NEXT_BITS = 347047151281987917
C08_END_BITS = 17508998052773350106  # after all 5000 draws


def test_c08_draw_sequence_is_pinned():
    rng = random.Random(verify._seed("c08-eq1-eq2/random"))
    draws = verify._eq1_eq2_draws(rng, 6)
    for k, (n, lam, quad) in enumerate(C08_FIRST_DRAWS):
        assert draws[n].tolist() == [[k, lam, *quad]]
        s, t, u, v = (FieldElt(n, m) for m in quad)
        assert gf.add(gf.mul(s, v), gf.mul(t, u)).is_one
    assert rng.getrandbits(64) == C08_NEXT_BITS
    rng = random.Random(verify._seed("c08-eq1-eq2/random"))
    assert [len(d) for d in verify._eq1_eq2_draws(rng, 5000).values()] == [834, 834, 833, 833, 833, 833]
    assert rng.getrandbits(64) == C08_END_BITS


def test_c09_draw_sequence_is_pinned(monkeypatch):
    # c09's lam at levels cycling 1..4, read back at the draw's level, and
    # the rng's next 64 bits after its 100 draws; the golden's witness
    # {"samples": 100} does not see the draws
    rngs, lams = [], []
    Random, good = random.Random, sl.diag_as_two_involutions
    monkeypatch.setattr(verify.random, "Random", lambda seed: rngs.append(Random(seed)) or rngs[-1])
    monkeypatch.setattr(sl, "diag_as_two_involutions", lambda lam: lams.append(lam) or good(lam))
    assert verify._check_diag_two_involutions() == {"samples": 100}
    assert len(lams) == 100
    assert [closure.lift(lam.elt, 1 + k % 4).mask for k, lam in enumerate(lams[:4])] == [1, 1, 6, 2]
    assert rngs[0].getrandbits(64) == 8847494114185703176


# ---------------------------------------------------------------------------
# the forked worker: c08, c11, c13 and c14 beside the group families


def _counted_forks(monkeypatch, cpus: int = 2) -> list:
    """Give the suite `cpus` CPUs; the returned list gets one entry per fork."""
    forks, fork = [], os.fork
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
    return forks


def _worker_family(name: str) -> bool:
    return name[:3] in verify._WORKER_FAMILIES


@pytest.mark.parametrize("max_level", [2, 5])
def test_the_forked_suite_reports_what_the_serial_suite_reports(monkeypatch, max_level):
    forks = _counted_forks(monkeypatch)
    forked = _zero_millis(verify.run_suite(max_level).to_json())
    assert forks == [1]
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    assert _zero_millis(verify.run_suite(max_level).to_json()) == forked
    assert forks == [1]


@pytest.mark.parametrize("case", ["one-cpu", "one-family-filter", "no-fork"])
def test_the_suite_runs_in_one_process(monkeypatch, case):
    forks = _counted_forks(monkeypatch, cpus=1 if case == "one-cpu" else 2)
    if case == "no-fork":
        monkeypatch.delattr(os, "fork")
    report = verify.run_suite(2, name_filter="c11-" if case == "one-family-filter" else "n2")
    assert forks == []
    assert report.checks and report.ok


@pytest.mark.parametrize(
    "die, error",
    [(lambda: os._exit(3), "WorkerLost: exit status 3"), (lambda: os.kill(os.getpid(), signal.SIGKILL), "WorkerLost: killed by signal 9")],
    ids=["exit-3", "sigkill"],
)
def test_a_lost_worker_fails_its_shard_and_the_suite_goes_on(monkeypatch, capsys, die, error):
    _counted_forks(monkeypatch)
    parent, good = os.getpid(), verify._check_max_order

    def dies_at_n4(n):
        if n == 4:
            if os.getpid() == parent:
                raise AssertionError("a worker family ran in the parent")
            die()
        return good(n)

    monkeypatch.setattr(verify, "_check_max_order", dies_at_n4)
    code = main(["verify", "--json", "--max-level", "2"])
    out, err = capsys.readouterr()
    assert code == 1 and err == ""
    ran = [c for c in json.loads(out)["checks"] if c["status"] != "skipped"]
    lost = [c for c in ran if _worker_family(c["name"])]
    assert len(lost) == 33
    assert all(c["status"] == "fail" and c["witness"] == {"error": error} and c["millis"] == 0 for c in lost)
    assert all(c["status"] == "pass" for c in ran if not _worker_family(c["name"]))


def test_an_interrupted_suite_leaves_no_process(monkeypatch):
    forks = _counted_forks(monkeypatch)

    def interrupted(n, kind):
        raise KeyboardInterrupt

    monkeypatch.setattr(verify, "_check_orders", interrupted)
    with pytest.raises(KeyboardInterrupt):
        verify.run_suite(2)
    assert forks == [1]
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_a_patch_reaches_the_worker(monkeypatch):
    forks = _counted_forks(monkeypatch)
    _field_endos_all_the_identity(monkeypatch)
    by_name = {c.name: c for c in verify.run_suite(2).checks}
    assert forks == [1]
    failed = by_name["c11-field-cohopf/endos/n2"]
    assert failed.status == "fail" and failed.witness["error"].startswith("frob^0 repeats")


def test_the_worker_families_build_no_group_table(monkeypatch):
    # the worker inherits no table it would need, so a build there would be
    # a second build of a table the parent's families also build
    built = []
    init = fe.GroupTable.__init__
    monkeypatch.setattr(fe.GroupTable, "__init__", lambda G, level, kind, masks: built.append((level, kind)) or init(G, level, kind, masks))
    fe.enumerate_group.cache_clear()
    shard = [c for c in verify.build_checks() if _worker_family(c.name)]
    assert len(shard) == 45
    assert all(verify._run_check(c).status == "pass" for c in shard)
    assert built == []
