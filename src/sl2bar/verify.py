"""The machine-checkable verification suite.

Every check is a named, deterministic procedure with a level tag and a
gate (the smallest --max-level at which it runs); checks above the gate
are reported as skipped with a reason.  Randomized checks derive their
seed from the check name, so reruns are reproducible.  All comparisons
are exact; nothing in this suite (or its JSON) involves floating point.

Check names start with a criterion tag (c01..c14) so that --filter can
select whole criteria or arbitrary substrings, e.g. --filter prop3.

run_suite runs the field families c08, c11, c13 and c14, which read only
the log tables and build no group table, in a worker made with os.fork,
while the calling process runs the group families at the same time; the
report keeps declaration order.  A check's millis is its wall time in
the process that ran it.  A worker that dies fails every check of its
shard with a WorkerLost witness.  With one CPU, no os.fork, or one shard
empty, every check runs in the calling process, in order.  The fork
copies no held lock: the package starts no thread of its own, and
numpy's OpenBLAS starts no pool thread under the command line (cli.main
sets OPENBLAS_NUM_THREADS to 1 when it is unset) and shuts a pool that
another caller started down around a fork.
"""

from __future__ import annotations

import marshal
import os
import random
import signal
import time
import zlib
from typing import Callable

import numpy as np

from . import closure, conway, endo, finite_engine as fe, sl2_core as sl
from .closure import cinv
from .gf2_field import (
    FieldElt,
    add,
    artin_schreier_solve,
    ensure_log_table,
    frobenius,
    trace_abs,
)
from .gf2poly import divisors, totient
from .sl2_core import SubsetName


class CheckFailure(Exception):
    def __init__(self, message: str, witness=None):
        super().__init__(message)
        self.witness = witness


class CheckResult:
    __slots__ = ("name", "level", "status", "witness", "millis")  # status: "pass" | "fail" | "skipped"

    def __init__(self, name: str, level: int, status: str, witness: dict | None, millis: int):
        self.name, self.level, self.status, self.witness, self.millis = name, level, status, witness, millis

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "level": self.level,
            "status": self.status,
            "witness": self.witness,
            "millis": self.millis,
        }


class VerifyReport:
    __slots__ = ("checks",)

    def __init__(self, checks: list[CheckResult]):
        self.checks = checks

    @property
    def summary(self) -> dict:
        out = {"pass": 0, "fail": 0, "skipped": 0}
        for c in self.checks:
            out[c.status] += 1
        return out

    @property
    def ok(self) -> bool:
        return self.summary["fail"] == 0

    def to_json(self) -> dict:
        return {"checks": [c.to_json() for c in self.checks], "summary": self.summary}


class Check:
    __slots__ = ("name", "level", "gate", "fn")  # gate: the minimum --max-level at which the check runs

    def __init__(self, name: str, level: int, gate: int, fn: Callable[[], dict | None]):
        self.name, self.level, self.gate, self.fn = name, level, gate, fn


def _seed(name: str) -> int:
    return zlib.crc32(name.encode())


def _need(cond: bool, msg: str, witness=None) -> None:
    if not cond:
        raise CheckFailure(msg, witness)


# ---------------------------------------------------------------------------
# criterion 1: group orders


def _check_orders(n: int, kind: str):
    G = fe.enumerate_group(n, kind)
    expect = fe.order_formula(n, kind)
    _need(len(G) == expect, f"enumerated {len(G)} elements, formula gives {expect}")
    _need(bool(np.array_equal(G.masks[0], [1, 0, 0, 1])), "element 0 is not the identity")
    return {"order": len(G)}


# ---------------------------------------------------------------------------
# criterion 2: commutation transitivity


def _check_ct_centralizers(n: int, kind: str, expect_holds: bool):
    G = fe.enumerate_group(n, kind)
    rep = fe.ct_check_centralizers(G)
    _need(rep.holds == expect_holds, f"centralizer route returned holds={rep.holds}", rep.to_json())
    return rep.to_json()


def _check_ct_triples_agree(n: int, kind: str):
    G = fe.enumerate_group(n, kind)
    a = fe.ct_check_centralizers(G)
    b = fe.ct_check_triples(G)
    _need(a.holds == b.holds, "triple scan disagrees with the centralizer route")
    return {"holds": a.holds, "triples_witness": b.to_json()["witness"]}


def _check_ct_maxab_agree(n: int, kind: str):
    G = fe.enumerate_group(n, kind)
    a = fe.ct_check_centralizers(G)
    b = fe.maximal_abelian_intersections(G)
    _need(a.holds == b, "maximal-abelian route disagrees with the centralizer route")
    return {"holds": b}


# ---------------------------------------------------------------------------
# criteria 3-6: centralizers, normalizers, and products of the named subsets


def _check_prop3(n: int):
    G = fe.enumerate_group(n, fe.KIND_SL2)
    q = 1 << n
    delta = fe.named_subgroup(G, SubsetName.DIAG)
    for i in delta.indices()[1:]:
        _need(fe.centralizer_bf(G, i) == delta, f"centralizer of {G.mat(i)} is not the diagonal subgroup")
    _need(delta.size == q - 1, f"diagonal subgroup has {delta.size} elements")
    dorders = G.element_orders()[delta.indices()]
    _need(int(dorders.max()) == q - 1, "diagonal subgroup is not cyclic of full order")
    return {"diagonal_order": q - 1}


def _check_prop4(n: int):
    G = fe.enumerate_group(n, fe.KIND_SL2)
    delta = fe.named_subgroup(G, SubsetName.DIAG)
    dprime = fe.subset_indices(G, SubsetName.OFF_DIAG)
    nd = fe.normalizer_bf(G, delta)
    union = np.sort(np.concatenate([delta.indices(), dprime]))
    _need(np.array_equal(nd.indices(), union), "normalizer of the diagonal is not its union with the off-diagonal set")
    _need(fe.is_metabelian(nd), "normalizer is not metabelian")
    gen_from_dprime = fe.subgroup_generated(G, dprime)
    _need(gen_from_dprime == nd, "off-diagonal set does not generate the normalizer")
    swap_grp = fe.subgroup_generated(G, [G.index_of(sl.SWAP)])
    _need(swap_grp.size == 2, "the swap matrix does not generate a 2-cycle")
    _need(fe.semidirect_check(G, delta, swap_grp), "semidirect decomposition failed")
    join = fe.subgroup_generated(G, np.concatenate([delta.indices(), swap_grp.indices()]))
    _need(join == nd, "diagonal and swap do not generate the normalizer")
    _need(nd.size == 2 * delta.size, f"normalizer of order {nd.size} is not twice the diagonal's order {delta.size}")
    return {"normalizer_order": nd.size}


def _check_prop56(n: int):
    """Propositions 5 and 6 on each unitriangular side U: C(u) = U for
    every u in U other than 1, and the normalizer of U is the triangular
    group, metabelian and split by U and the diagonal.  The centralizer is
    scanned for one u only, and the diagonal's conjugates of u must be
    exactly U without 1.  That settles every other u, each a d u d^(-1):
    C(d u d^(-1)) = d C(u) d^(-1) = d U d^(-1) = U.  The last step needs
    the diagonal to normalize U, and the orbit line "the diagonal's
    conjugates of ... are not the nontrivial ... unitriangulars" settles
    that by itself: U without 1 is the diagonal's orbit of u, and the
    diagonal is a group, so each d maps that orbit onto itself."""
    G = fe.enumerate_group(n, fe.KIND_SL2)
    q = 1 << n
    ut = fe.named_subgroup(G, SubsetName.UPPER_UNI)
    lt = fe.named_subgroup(G, SubsetName.LOWER_UNI)
    upper = fe.named_subgroup(G, SubsetName.UPPER_TRI)
    lower = fe.named_subgroup(G, SubsetName.LOWER_TRI)
    delta = fe.named_subgroup(G, SubsetName.DIAG)
    for uni, label in ((ut, "upper"), (lt, "lower")):
        u = int(uni.indices()[1])
        _need(fe.centralizer_bf(G, u) == uni, f"centralizer of {G.mat(u)} is not the {label} unitriangulars")
        orbit = np.zeros(len(G), dtype=bool)
        orbit[G.conj_vec(delta.indices(), u)] = True
        _need(np.array_equal(np.flatnonzero(orbit), uni.indices()[1:]), f"the diagonal's conjugates of {G.mat(u)} are not the nontrivial {label} unitriangulars")
    _need(fe.normalizer_bf(G, ut) == upper, "normalizer of the upper unitriangulars is not the upper triangulars")
    _need(fe.normalizer_bf(G, lt) == lower, "normalizer of the lower unitriangulars is not the lower triangulars")
    for tri, uni, label in ((upper, ut, "upper"), (lower, lt, "lower")):
        _need(fe.is_metabelian(tri), f"{label} triangulars are not metabelian")
        _need(fe.semidirect_check(G, uni, delta), f"{label} semidirect decomposition failed")
        join = fe.subgroup_generated(G, np.concatenate([uni.indices(), delta.indices()]))
        _need(join == tri, f"{label} unitriangulars and diagonal do not generate the {label} triangulars")
    _need(ut.size == q and fe.is_abelian(ut), "upper unitriangulars are not elementary abelian of the field size")
    orders = G.element_orders()
    _need(np.all(orders[ut.indices()[1:]] == 2), "a nontrivial upper unitriangular has order other than 2")
    invol_in_u = upper.indices()[orders[upper.indices()] == 2]
    _need(np.array_equal(invol_in_u, ut.indices()[1:]), "involutions of the upper triangulars differ from the nontrivial unitriangulars")
    return {"unitriangular_order": q}


def _check_prop7(n: int):
    G = fe.enumerate_group(n, fe.KIND_SL2)
    _need(fe.ut_lt_disjointness(G), "unitriangular sides intersect or commute nontrivially")
    return None


# ---------------------------------------------------------------------------
# criterion 7: order dichotomy and the trace criterion


def _check_dichotomy(n: int):
    """Criterion 7 on SL2(2^n): each order is 1, 2 or odd; order 2 is
    trace 0 off the identity; and sl2_core.morder agrees with the table's
    orders.  The conditions run over the whole table at once.  At n <= 3
    morder reads every element; from n = 4 it reads the identity and the
    first other member of each trace fibre, and that value is spread over
    the fibre: off the identity the trace fixes the conjugacy class and so
    the order (Huppert, Endliche Gruppen I, II.8).  A failure names the
    lowest failing element and its first failing condition, in the order
    above."""
    G = fe.enumerate_group(n, fe.KIND_SL2)
    orders = G.element_orders()
    traces = G.masks[:, 0] ^ G.masks[:, 3]
    even = (orders % 2 == 0) & (orders != 2)
    criterion = (orders == 2) != ((traces == 0) & (np.arange(len(G)) != 0))
    if n <= 3:
        got = np.array([sl.morder(G.mat(i)) for i in range(len(G))], dtype=np.int64)
    else:
        # return_index takes numpy's sort path; a plain np.unique would import numpy.ma
        fibre, first = np.unique(traces[1:], return_index=True)
        val = np.zeros(G.q, dtype=np.int64)
        val[fibre] = [sl.morder(G.mat(i + 1)) for i in first.tolist()]
        got = val[traces]
        got[0] = sl.morder(G.mat(0))
    bad = np.flatnonzero(even | criterion | (got != orders))
    if len(bad):
        i = int(bad[0])
        d = int(orders[i])
        _need(not even[i], f"element {G.mat(i)} has even order {d} > 2")
        _need(not criterion[i], f"trace criterion fails at {G.mat(i)}")
        raise CheckFailure(f"class-based order {int(got[i])} disagrees with iterated order {d} at {G.mat(i)}")
    return {"elements": len(G)}


# ---------------------------------------------------------------------------
# criterion 8: the two closed-form conjugation identities


def _eq1_eq2_sides(n: int, lam: np.ndarray, M: np.ndarray):
    """Both sides of identities (1) and (2) for level-n masks lam (N,) and
    mask rows M (N, 4) = (s, t, u, v), from the level's product and
    inverse tables: the closed forms of sl.conjugate_eq1/eq2 by MUL
    gathers, and M g M^(-1) with M^(-1) = [[v, t], [u, s]] through the
    group engine's product.  Returns (closed1, conj1, closed2, conj2),
    each (N, 4)."""
    tab = ensure_log_table(n)
    MUL, flat = tab.mul_table, tab.mul_table.ravel()
    li = tab.inv_table[lam]
    s, t, u, v = M.T
    sv, tu, mix = MUL[s, v], MUL[t, u], lam ^ li
    corner = 1 ^ MUL[lam, MUL[s, u]]
    closed1 = np.stack([MUL[lam, sv] ^ MUL[li, tu], MUL[mix, MUL[s, t]], MUL[mix, MUL[u, v]], MUL[li, sv] ^ MUL[lam, tu]], axis=1)
    closed2 = np.stack([corner, MUL[lam, MUL[s, s]], MUL[lam, MUL[u, u]], corner], axis=1)
    conj1 = np.stack(fe._mul(flat, n, fe._mul(flat, n, (s, t, u, v), (lam, 0, 0, li)), (v, t, u, s)), axis=1)
    conj2 = np.stack(fe._mul(flat, n, fe._mul(flat, n, (s, t, u, v), (1, lam, 0, 1)), (v, t, u, s)), axis=1)
    return closed1, conj1, closed2, conj2


def _eq1_eq2_draws(rng, count: int) -> dict[int, np.ndarray]:
    """c08's first `count` seeded draws at levels cycling 1..6: per level n
    an (N, 6) array of mask rows (draw index, lam, s, t, u, v), lam
    nonzero and [[s, t], [u, v]] uniform in SL2(2^n).  Each draw takes
    lam, then s, t, u until s or t is nonzero, then v only where s = 0;
    the level's tables fill the rest: v = s^(-1)(1 + tu) where s != 0,
    and u = t^(-1) where s = 0."""
    rows = {n: [] for n in range(1, 7)}
    for k in range(count):
        n = 1 + k % 6
        top = 1 << n
        lam = rng.randrange(1, top)
        s = t = 0
        while not (s or t):
            s, t, u = rng.randrange(top), rng.randrange(top), rng.randrange(top)
        rows[n].append((k, lam, s, t, u, 0 if s else rng.randrange(top)))
    for n, drawn in rows.items():
        tab = ensure_log_table(n)
        MUL, INV = tab.mul_table, tab.inv_table
        d = rows[n] = np.array(drawn, dtype=np.int64)
        s, t, u, v = d[:, 2:].T
        d[:, 4], d[:, 5] = np.where(s != 0, u, INV[t]), np.where(s != 0, MUL[INV[s], 1 ^ MUL[t, u]], v)
    return rows


def _check_eq1_eq2():
    """Identities (1) and (2) on 5000 seeded (lam, M) pairs at levels
    cycling 1..6: every pair over the level tables, and the first 300
    level-6 pairs, whose entries reduce to levels 1, 2, 3 and 6, through
    the closure closed forms against sl.conj.  Each M must have
    determinant one: a failure names the lowest draw that has not, or
    else the lowest draw that fails an identity."""
    draws = _eq1_eq2_draws(random.Random(_seed("c08-eq1-eq2/random")), 5000)
    failures = []  # (an identity?, draw index, 0 for the determinant or the identity): determinants sort first
    for n, d in draws.items():
        MUL = ensure_log_table(n).mul_table
        k, lam, s, t, u, v = d.T
        closed1, conj1, closed2, conj2 = _eq1_eq2_sides(n, lam, d[:, 2:])
        for which, bad in enumerate((MUL[s, v] ^ MUL[t, u] != 1, np.any(closed1 != conj1, axis=1), np.any(closed2 != conj2, axis=1))):
            failures += [(which > 0, i, which) for i in k[bad].tolist()]
    if not failures:  # the closure closed forms refuse a determinant other than one
        for k, lam, *quad in draws[6][:300].tolist():
            lam, M = closure.celt(6, lam), sl.mat_from_masks(6, quad)
            s, t, u, v = M.entries()
            if sl.conjugate_eq1(lam, s, t, u, v) != sl.conj(M, sl.diag_mat(lam, cinv(lam))):
                failures.append((True, k, 1))
            elif sl.conjugate_eq2(lam, s, t, u, v) != sl.conj(M, sl.upper_uni(lam)):
                failures.append((True, k, 2))
    if failures:
        _, k, which = min(failures)
        n = 1 + k % 6
        _, lam, *quad = draws[n][k // 6].tolist()
        lam, M = closure.celt(n, lam), sl.mat_from_masks(n, quad)
        _need(which > 0, f"draw {k} has determinant {sl.mdet(M)}, not 1: M={M}")
        raise CheckFailure(f"identity ({which}) fails for lam={lam}, M={M}")
    return {"tuples": 10_000}


# ---------------------------------------------------------------------------
# criterion 9: generation


def _check_generation(n: int, which: str):
    G = fe.enumerate_group(n, fe.KIND_SL2)
    gens = fe.generator_set(G, which)
    got = fe.subgroup_generated(G, gens).size
    _need(got == len(G), f"generated subgroup has {got} of {len(G)} elements")
    return {"generators": len(set(gens.tolist()))}


def _check_diag_two_involutions():
    rng = random.Random(_seed("c09-generation/diag-two-involutions"))
    for k in range(100):
        n = 1 + k % 4
        lam = closure.celt(n, rng.randrange(1, 1 << n))
        left, right = sl.diag_as_two_involutions(lam)
        _need(sl.mmul(left, right) == sl.diag_mat(lam, cinv(lam)), f"factor product fails for {lam}")
        _need(sl.morder(left) == 2 and sl.morder(right) == 2, f"factors of {lam} are not involutions")
    return {"samples": 100}


def _check_unipotent_order3():
    G = fe.enumerate_group(2, fe.KIND_SL2)
    a, b = fe.unipotent_as_order3_product(G)
    orders = G.element_orders()
    target = int(G.index_of(sl.upper_uni(closure.ONE)))
    _need(orders[a] == 3 and orders[b] == 3 and int(G.mul_vec(a, b)) == target, "factorization invalid")
    _need(int((orders == 3).sum()) == 20, "count of order-3 elements is not 20")
    return {"a": str(G.mat(a)), "b": str(G.mat(b))}


# ---------------------------------------------------------------------------
# criterion 10: the projective action and simplicity


def _check_projective(n: int):
    G = fe.enumerate_group(n, fe.KIND_SL2)
    pa = fe.projective_action(G)
    _need(pa.is_faithful(), "projective action has a nontrivial kernel")
    _need(pa.image_order() == len(G), f"image order {pa.image_order()} differs from group order")
    if n == 2:
        _need(pa.all_even(), "a permutation image is odd")
        ui = G.index_of(sl.upper_uni(closure.ONE))
        _need(pa.perm_order(ui) == 2, "the unipotent image is not a product of disjoint transpositions")
    return {"points": pa.n_points, "image_order": pa.image_order()}


def _check_simple(n: int, expect: bool):
    G = fe.enumerate_group(n, fe.KIND_SL2)
    got = fe.is_simple(G)
    _need(got == expect, f"simplicity scan returned {got}")
    return {"simple": got}


# ---------------------------------------------------------------------------
# criterion 11: field endomorphisms at finite level


_EXHAUSTIVE_HOM_LEVEL = 6


def _need_ring_embedding(name: str, m: int, n: int, img: np.ndarray) -> None:
    """Raise CheckFailure unless img, the level-n images of the level-m
    masks, is a unital injective ring homomorphism: it fixes 0 and 1, is
    additive and multiplicative over all pairs up to _EXHAUSTIVE_HOM_LEVEL
    and on a deterministic 64-pair sample above, from the log tables of
    both levels, and hits no mask twice (at m = n: it is bijective)."""
    q = 1 << m
    if m <= _EXHAUSTIVE_HOM_LEVEL:
        xs, ys = np.divmod(np.arange(q * q, dtype=np.int64), q)
    else:
        xs = (0x9E3779B1 * np.arange(64, dtype=np.int64)) % q
        ys = xs[::-1]
    _need(img[0] == 0 and img[1] == 1, f"{name} moves 0 or 1")
    _need(np.array_equal(img[xs ^ ys], img[xs] ^ img[ys]), f"{name} is not additive")
    prods = ensure_log_table(m).mul_vec(xs, ys)
    _need(np.array_equal(img[prods], ensure_log_table(n).mul_vec(img[xs], img[ys])), f"{name} is not multiplicative")
    _need(np.bincount(img).max() <= 1, f"{name} is not injective")


def _scanned_field_endos(n: int):
    """Yield (e, img) for e in endo.field_endos(n), img the images of all
    masks from the log tables, each row checked by _need_ring_embedding
    and required to differ from every earlier row on g.  A ring map is
    fixed by its image of g, so the rows are pairwise distinct.  One row
    at a time: the n rows of level 16 stacked are 8 MiB."""
    t = ensure_log_table(n)
    seen = {}  # image of g -> the endomorphism that sent g there
    for e in endo.field_endos(n):
        img = t.pow_vec(np.arange(1 << n), 1 << e.frob_power)
        _need_ring_embedding(str(e), n, n, img)
        g = int(img[min(n, 2)])  # g is mask 2, or mask 1 at level 1
        _need(g not in seen, f"{e} repeats {seen.get(g)}")
        seen[g] = e
        yield e, img


def _check_field_endos(n: int):
    t = ensure_log_table(n)
    orbit = cur = np.arange(1 << n)  # orbit[x]: the least mask conjugate to x
    for _ in range(n - 1):
        cur = t.squares[cur]
        orbit = np.minimum(orbit, cur)
    count = 0
    for e, img in _scanned_field_endos(n):
        moved = np.flatnonzero(orbit[img] != orbit)
        if len(moved):
            raise CheckFailure(f"{e} does not permute the conjugates of {FieldElt(n, int(moved[0]))}")
        count += 1
    _need(count == n, f"expected {n} endomorphisms")
    return {"endos": n, "elements": 1 << n}


def _check_max_order(n: int):
    t = ensure_log_table(n)
    top = np.sort(t.max_order)
    _need(len(top) == totient((1 << n) - 1), f"count {len(top)} differs from the totient")
    image, j = top, 0  # top squared j times, carried forward while frob_power grows
    for e, _ in _scanned_field_endos(n):
        if e.frob_power < j:
            image, j = top, 0
        while j < e.frob_power:
            image, j = t.squares[image], j + 1
        _need(np.array_equal(np.sort(image), top), f"{e} does not permute the maximal-order elements")
    return {"count": len(top)}


# ---------------------------------------------------------------------------
# criterion 12: the replay


def _check_replay(n: int):
    report = endo.replay_cohopf_skeleton(n)  # raises StepFailed on any violation
    for entry in report.entries:
        _need(len(entry.steps) == 8 and all(s.status == "pass" for s in entry.steps), f"entry {entry.phi} incomplete")
    return {"family_size": len(report.entries)}


# ---------------------------------------------------------------------------
# criterion 13: the modulus table and its embeddings


def _check_conway_table():
    table = conway.get_active()
    _need(table.max_level >= conway.N_MAX, f"table stops at level {table.max_level}")
    conway.validate_table(table)
    for n in range(1, conway.N_MAX + 1):
        for m in divisors(n):
            _need(conway.norm_compatible(table, m, n), f"levels {m} | {n} are not norm compatible")
    return {"levels": conway.N_MAX}


def _check_embedding_hom(n: int):
    for m in divisors(n):
        if m < n:
            img = np.array([closure.lift(FieldElt(m, x), n).mask for x in range(1 << m)], dtype=np.int64)
            _need_ring_embedding(f"embedding {m}->{n}", m, n, img)
    return {"pairs": len(divisors(n)) - 1}


# ---------------------------------------------------------------------------
# criterion 14: the quadratic substitute


def _check_artin_schreier(n: int):
    unsolved = 0
    images = [add(frobenius(FieldElt(n, m)), FieldElt(n, m)).mask for m in range(1 << n)]
    for mask in range(1 << n):
        c = FieldElt(n, mask)
        z = artin_schreier_solve(c)
        brute = [m for m, image in enumerate(images) if image == mask]
        if z is None:
            _need(brute == [], f"solver missed solutions {brute} for {c}")
            _need(not trace_abs(c).is_zero, f"no solution although the trace of {c} vanishes")
            lifted = closure.lift(c, 2 * n)
            z2 = artin_schreier_solve(lifted)
            _need(z2 is not None, f"doubled level has no solution for {c}")
            _need(add(frobenius(z2), z2) == lifted, f"doubled-level solution invalid for {c}")
            unsolved += 1
        else:
            _need(add(frobenius(z), z) == c, f"claimed solution invalid for {c}")
            _need(trace_abs(c).is_zero, f"solution exists although the trace of {c} is one")
            _need(sorted(brute) == sorted([z.mask, z.mask ^ 1]), f"solution set is not a pair for {c}")
    _need(unsolved == (1 << n) // 2, f"{unsolved} unsolvable right-hand sides, expected half")
    return {"unsolvable": unsolved}


# ---------------------------------------------------------------------------
# the registry


def build_checks() -> list[Check]:
    checks: list[Check] = []

    def addc(name: str, level: int, gate: int, fn: Callable[[], dict | None]) -> None:
        checks.append(Check(name, level, gate, fn))

    for n in range(1, 6):
        addc(f"c01-orders/sl2/n{n}", n, max(2, n), lambda n=n: _check_orders(n, fe.KIND_SL2))
    for n in range(1, 4):
        addc(f"c01-orders/gl2/n{n}", n, max(2, n), lambda n=n: _check_orders(n, fe.KIND_GL2))

    for n in (2, 3, 4):
        addc(f"c02-ct/centralizers/sl2/n{n}", n, n, lambda n=n: _check_ct_centralizers(n, fe.KIND_SL2, True))
    addc("c02-ct/centralizers/gl2/n2", 2, 2, lambda: _check_ct_centralizers(2, fe.KIND_GL2, False))
    addc("c02-ct/triples-agree/sl2/n1", 1, 2, lambda: _check_ct_triples_agree(1, fe.KIND_SL2))
    addc("c02-ct/triples-agree/sl2/n2", 2, 2, lambda: _check_ct_triples_agree(2, fe.KIND_SL2))
    addc("c02-ct/triples-agree/sl2/n3", 3, 3, lambda: _check_ct_triples_agree(3, fe.KIND_SL2))
    addc("c02-ct/triples-agree/gl2/n2", 2, 2, lambda: _check_ct_triples_agree(2, fe.KIND_GL2))
    addc("c02-ct/maxab-agree/sl2/n1", 1, 2, lambda: _check_ct_maxab_agree(1, fe.KIND_SL2))
    addc("c02-ct/maxab-agree/sl2/n2", 2, 2, lambda: _check_ct_maxab_agree(2, fe.KIND_SL2))
    addc("c02-ct/maxab-agree/sl2/n3", 3, 3, lambda: _check_ct_maxab_agree(3, fe.KIND_SL2))
    addc("c02-ct/maxab-agree/gl2/n2", 2, 2, lambda: _check_ct_maxab_agree(2, fe.KIND_GL2))

    for n in (2, 3, 4):
        addc(f"c03-prop3/diag-centralizer/n{n}", n, n, lambda n=n: _check_prop3(n))
        addc(f"c04-prop4/diag-normalizer/n{n}", n, n, lambda n=n: _check_prop4(n))
        addc(f"c05-prop5-6/triangular/n{n}", n, n, lambda n=n: _check_prop56(n))
    for n in (1, 2, 3, 4):
        addc(f"c06-prop7/ut-lt-disjoint/n{n}", n, max(2, n), lambda n=n: _check_prop7(n))
        addc(f"c07-dichotomy/orders/n{n}", n, max(2, n), lambda n=n: _check_dichotomy(n))

    addc("c08-eq1-eq2/random", 6, 2, _check_eq1_eq2)

    for n in (2, 3, 4):
        for which in fe.GENERATOR_SETS:
            addc(f"c09-generation/{which}/n{n}", n, n, lambda n=n, which=which: _check_generation(n, which))
    addc("c09-generation/diag-two-involutions", 4, 2, _check_diag_two_involutions)
    addc("c09-generation/unipotent-order3/n2", 2, 2, _check_unipotent_order3)

    addc("c10-a5-simple/projective/n1", 1, 2, lambda: _check_projective(1))
    addc("c10-a5-simple/projective/n2", 2, 2, lambda: _check_projective(2))
    addc("c10-a5-simple/simple/n1", 1, 2, lambda: _check_simple(1, False))
    addc("c10-a5-simple/simple/n2", 2, 2, lambda: _check_simple(2, True))
    addc("c10-a5-simple/simple/n3", 3, 3, lambda: _check_simple(3, True))

    for n in range(1, 13):
        gate = 2 if n <= 8 else 4
        addc(f"c11-field-cohopf/endos/n{n}", n, gate, lambda n=n: _check_field_endos(n))
    for n in range(1, 17):
        gate = 2 if n <= 8 else (4 if n <= 12 else 5)
        addc(f"c11-field-cohopf/max-order/n{n}", n, gate, lambda n=n: _check_max_order(n))

    addc("c12-replay/n2", 2, 2, lambda: _check_replay(2))
    addc("c12-replay/n4", 4, 4, lambda: _check_replay(4))

    addc("c13-conway/validity", conway.N_MAX, 2, _check_conway_table)
    for n in range(2, 9):
        addc(f"c13-conway/embedding-hom/n{n}", n, 2, lambda n=n: _check_embedding_hom(n))

    for n in range(1, 9):
        addc(f"c14-artin-schreier/n{n}", n, 2, lambda n=n: _check_artin_schreier(n))

    return checks


# c08, c11, c13 and c14 read only the log tables and never enumerate a
# group, so run_suite runs them in a forked worker beside the group families
_WORKER_FAMILIES = ("c08", "c11", "c13", "c14")


def _run_check(check: Check) -> CheckResult:
    """Run one check and time it; an exception it raises is its failure."""
    t0 = time.perf_counter()
    try:
        witness = check.fn()
        status = "pass"
    except CheckFailure as exc:
        status = "fail"
        witness = {"error": str(exc)}
        if exc.witness is not None:
            witness["witness"] = exc.witness
    except Exception as exc:  # a crashing check is a recorded failure, not an aborted suite
        status = "fail"
        witness = {"error": f"{type(exc).__name__}: {exc}"}
    millis = int((time.perf_counter() - t0) * 1000)
    return CheckResult(check.name, check.level, status, witness, millis)


def _cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _run_forked(own: list[Check], shard: list[Check]) -> list[CheckResult]:
    """Run own here and shard in a forked worker at the same time; return
    the results of own, then of shard.  The worker sends its results'
    to_json() dicts through a pipe with marshal and leaves by os._exit,
    so it flushes no inherited buffer.  A worker that dies or sends no
    complete result fails every check of its shard with one witness.  If
    own raises, the worker is killed; it is reaped on every path."""
    r, w = os.pipe()
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            os.close(r)
            with open(w, "wb") as pipe:
                pipe.write(marshal.dumps([_run_check(c).to_json() for c in shard]))
            code = 0
        finally:
            os._exit(code)
    os.close(w)
    status = None
    try:
        with open(r, "rb") as pipe:
            done = [_run_check(c) for c in own]
            data = pipe.read()
        status = os.waitpid(pid, 0)[1]
    finally:
        if status is None:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    try:
        got = [CheckResult(**d) for d in marshal.loads(data)]
    except (EOFError, ValueError, TypeError):
        got = []
    if status or len(got) != len(shard):
        code = os.waitstatus_to_exitcode(status)
        lost = {"error": f"WorkerLost: killed by signal {-code}" if code < 0 else f"WorkerLost: exit status {code}"}
        got = [CheckResult(c.name, c.level, "fail", lost, 0) for c in shard]
    return done + got


def run_suite(max_level: int, name_filter: str | None = None) -> VerifyReport:
    """Run the registered checks gated by max_level; report them in
    declaration order.

    A filter keeps only checks whose name contains the given substring.
    Any exception a check raises is recorded as that check's failure.
    With two or more CPUs and os.fork, a forked worker runs the
    _WORKER_FAMILIES while this process runs the rest; with one CPU, no
    fork, or one side empty, every check runs here in order.
    """
    checks = [c for c in build_checks() if name_filter is None or name_filter in c.name]
    run = [c for c in checks if c.gate <= max_level]
    shard = [c for c in run if c.name[:3] in _WORKER_FAMILIES]
    own = [c for c in run if c.name[:3] not in _WORKER_FAMILIES]
    if hasattr(os, "fork") and _cpus() > 1 and shard and own:
        results = dict(zip(own + shard, _run_forked(own, shard)))
    else:
        results = {c: _run_check(c) for c in run}
    return VerifyReport([
        results[c] if c in results
        else CheckResult(c.name, c.level, "skipped", {"reason": f"requires --max-level >= {c.gate}"}, 0)
        for c in checks
    ])


__all__ = [
    "Check",
    "CheckFailure",
    "CheckResult",
    "VerifyReport",
    "build_checks",
    "run_suite",
]
