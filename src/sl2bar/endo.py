"""Endomorphism families of the binary fields and of the determinant-one
matrix groups, and the step-by-step finite-level replay showing that every
member of the standard endomorphism family is an automorphism.

Field endomorphisms of GF(2^n) are exactly the n squaring powers
x -> x^(2^j).  This module only names them; the verify checks c11 scan
each for a bijective ring map that permutes every conjugate set and the
maximal-order elements, and require the n maps to be distinct.

Group endomorphism specifications are the three base kinds: entrywise
field endomorphisms, inner conjugations and the inverse-transpose map.
Over an enumerated group a base map is its image permutation, one pass
over the table.  A member of the replay family is a word over its base
maps, a tuple of base positions applied left to right, and its images of
any index array come from gathering through the rows of one
(base maps, |G|) permutation stack.

The replay builds the stack once and checks each row once: bijective, in
agreement with the scalar path, and a homomorphism on the greedy
generating set of the whole group that the one subgroup closure keeps
(three elements at every replay level).  Words over checked bijective
homomorphisms need no check.  It then walks the eight-step argument for
each word on the images of the elements the argument reads, U = [g,
swap, diagonal, lower triangulars] (257 at level 4): fix an order-3
diagonal g, keep its image in g's class and straighten the images by the
lowest inner map sending it back to g (one conjugator table per level),
track the diagonal subgroup, the swap matrix and the lower-triangular
set, choose the final twist, and conclude bijectivity from the checked
base maps.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Union

import numpy as np

from . import closure, finite_engine as fe, sl2_core as sl
from .closure import ClosureElt, cinv, corder, reduce_elt
from .errors import BoundExceeded, InvariantViolated, LevelMismatch, NoPrimitiveCubeRoot, PreconditionError, StepFailed
from .gf2_field import LOG_TABLE_MAX, ensure_log_table, gen, power
from .sl2_core import SWAP, Mat2, SubsetName, mat_to_json


@dataclass(frozen=True)
class FieldEndo:
    """The field endomorphism x -> x^(2^frob_power) of GF(2^level)."""

    level: int
    frob_power: int

    def __post_init__(self):
        if not 0 <= self.frob_power < self.level:
            raise ValueError(f"frobenius power {self.frob_power} outside 0..{self.level - 1}")

    def __str__(self) -> str:
        return f"frob^{self.frob_power}"


def field_endos(n: int) -> list[FieldEndo]:
    """The n field endomorphisms x -> x^(2^j), j < n, of GF(2^n), for
    the levels with log tables, over which the verify checks c11 scan
    them."""
    if n > LOG_TABLE_MAX:
        raise BoundExceeded(f"endomorphism family limited to levels <= {LOG_TABLE_MAX}, got {n}")
    return [FieldEndo(n, j) for j in range(n)]


# ---------------------------------------------------------------------------
# group endomorphism specifications


@dataclass(frozen=True)
class Entrywise:
    endo: FieldEndo


@dataclass(frozen=True)
class InnerConj:
    mat: Mat2

    def __post_init__(self):
        if not sl.mdet(self.mat).is_one:
            raise PreconditionError(f"inner conjugator {self.mat} must have determinant one")


@dataclass(frozen=True)
class InvTranspose:
    pass


GroupEndoSpec = Union[Entrywise, InnerConj, InvTranspose]


def spec_str(spec: GroupEndoSpec) -> str:
    if isinstance(spec, Entrywise):
        return str(spec.endo)
    if isinstance(spec, InnerConj):
        return f"inner({spec.mat})"
    if isinstance(spec, InvTranspose):
        return "invtrans"
    raise TypeError(spec)


def apply_group_endo(spec: GroupEndoSpec, M: Mat2) -> Mat2:
    """Apply a specification to one matrix.  Every specification is a
    group homomorphism; tests verify that property rather than assume it."""
    if isinstance(spec, Entrywise):
        out = []
        for x in M.entries():
            if spec.endo.level % x.level != 0:
                raise LevelMismatch(f"entry {x} does not live inside level {spec.endo.level}")
            out.append(ClosureElt(power(x.elt, 1 << spec.endo.frob_power)))  # squaring keeps the minimal level
        return Mat2(*out)
    if isinstance(spec, InnerConj):
        return sl.conj(spec.mat, M)
    if isinstance(spec, InvTranspose):
        return sl.inv_transpose(M)
    raise TypeError(spec)


# ---------------------------------------------------------------------------
# vectorized application over an enumerated group


def _base_perm(spec: GroupEndoSpec, G: fe.GroupTable) -> np.ndarray:
    """Image index of every group element under one base map: one pass
    over the table."""
    if isinstance(spec, Entrywise):
        if spec.endo.level != G.level:
            raise LevelMismatch(f"endomorphism level {spec.endo.level} differs from table level {G.level}")
        return G.index_of_rows(ensure_log_table(G.level).pow_vec(G.masks, 1 << spec.endo.frob_power))
    if isinstance(spec, InnerConj):
        return G.conj_vec(G.index_of(spec.mat), np.arange(len(G)))
    if isinstance(spec, InvTranspose):
        return G.index_of_rows(G.masks[:, [3, 2, 1, 0]])
    raise TypeError(spec)


# ---------------------------------------------------------------------------
# the replay


REPLAY_MAX_LEVEL = 4
_COMPOSE_DEPTH = 3


@dataclass
class ReplayStep:
    id: int
    status: str
    witness: dict | None = None

    def to_json(self) -> dict:
        out = {"id": self.id, "status": self.status}
        if self.witness is not None:
            out["witness"] = self.witness
        return out


@dataclass
class ReplayEntry:
    phi: str
    steps: list[ReplayStep]

    def to_json(self) -> dict:
        return {"phi": self.phi, "steps": [s.to_json() for s in self.steps]}


@dataclass
class ReplayReport:
    level: int
    entries: list[ReplayEntry]

    def to_json(self) -> list[dict]:
        return [e.to_json() for e in self.entries]


def replay_family(n: int) -> tuple[list[GroupEndoSpec], list[tuple[int, ...]]]:
    """The deterministic endomorphism family as (base, words).  The base
    maps are the entrywise squaring powers, the inverse transpose and three
    fixed inner conjugations; a word is a tuple of base positions, applied
    left to right, and the family is every word of length 1 to 3, in
    itertools.product order within each length."""
    g = closure.reduce_elt(gen(n))
    base: list[GroupEndoSpec] = [Entrywise(FieldEndo(n, j)) for j in range(n)]
    base.append(InvTranspose())
    base.append(InnerConj(SWAP))
    base.append(InnerConj(sl.diag_mat(g, cinv(g))))
    base.append(InnerConj(sl.upper_uni(closure.ONE)))
    positions = range(len(base))
    words = [w for depth in range(1, _COMPOSE_DEPTH + 1) for w in itertools.product(positions, repeat=depth)]
    return base, words


def _fail(step: int, msg: str, witness=None):
    raise StepFailed(step, msg, witness)


def _check_base_map(spec: GroupEndoSpec, G: fe.GroupTable, p: np.ndarray, gens: np.ndarray, prods: np.ndarray) -> None:
    """Raise InvariantViolated unless the permutation p of a base map is a
    bijection of G, agrees with the scalar path and is a homomorphism:
    p[x s] = p[x] p[s] for every x and every s in gens (prods[x, j] =
    x gens[j]), a greedy generating set of G.  The y with p(xy) =
    p(x)p(y) for all x form a subgroup, and it holds gens, so it is G;
    words over checked base maps are bijective homomorphisms too and need
    no check."""
    if not np.array_equal(np.sort(p), np.arange(len(G))):
        raise InvariantViolated(f"{spec_str(spec)} is not bijective")
    for i in (0, 1, len(G) // 2):
        if G.index_of(apply_group_endo(spec, G.mat(i))) != p[i]:
            raise InvariantViolated(f"{spec_str(spec)} disagrees with the scalar path at element {i}")
    if not np.array_equal(p[prods], G.mul_vec(p[:, None], p[gens][None, :])):
        raise InvariantViolated(f"{spec_str(spec)} is not a homomorphism")


def replay_cohopf_skeleton(n: int) -> ReplayReport:
    """Run the eight-step argument for every family member over the
    level-n determinant-one group.  The base maps are the rows of one
    permutation stack P, built and checked (bijective, scalar path,
    homomorphism) once; each member is a word over them and only its
    images of U = [g, swap, diagonal, lower triangulars], the elements
    steps 2-7 read, gathered through the rows of P its word names and
    straightened by one inner map, so no per-member work scans the whole
    table.  Step 8 needs no scan: a word of checked bijections,
    straightened by an inner map, is a bijection, and its witness is the
    group order.  Raises InvariantViolated on a base map that is not a
    bijective homomorphism and StepFailed on any step violation; a
    returned report therefore records only passes (with witnesses)."""
    if n > REPLAY_MAX_LEVEL:
        raise BoundExceeded(f"replay limited to levels <= {REPLAY_MAX_LEVEL}, got {n}")
    if n % 2:
        raise NoPrimitiveCubeRoot(f"level {n} is odd, so 3 does not divide 2^{n}-1")
    G = fe.enumerate_group(n, fe.KIND_SL2)

    theta = reduce_elt(power(gen(n), ((1 << n) - 1) // 3))
    if corder(theta) != 3:
        raise InvariantViolated(f"anchor {theta} does not have order 3")
    g_mat = sl.diag_mat(theta, cinv(theta))
    g_idx = G.index_of(g_mat)
    orders = G.element_orders()

    names = (SubsetName.DIAG, SubsetName.OFF_DIAG, SubsetName.UPPER_UNI, SubsetName.LOWER_UNI, SubsetName.LOWER_TRI)
    delta_member, dprime_member, ut_member, lt_member, lower_member = (fe.subset_member(G, s) for s in names)
    delta, lower = np.flatnonzero(delta_member), np.flatnonzero(lower_member)
    lt_nontriv = lt_member[lower] & (lower != 0)  # lower-unitriangulars but I, as a mask on lower
    U = np.concatenate([[g_idx, G.index_of(SWAP)], delta, lower])
    lower_at = 2 + len(delta)  # U[2:lower_at] is the diagonal, U[lower_at:] the lower triangulars
    # alpha_of[h]: the lowest x with x h x^(-1) = g, or -1 off g's class
    conjugates, first_x = np.unique(G.conj_vec(G.inv_index, np.int64(g_idx)), return_index=True)
    alpha_of = np.full(len(G), -1)
    alpha_of[conjugates] = first_x

    base, words = replay_family(n)
    gens = fe._generators(fe.SubgroupRef(G, np.ones(len(G), dtype=bool)))
    prods = G.mul_vec(np.arange(len(G))[:, None], gens[None, :])
    P = np.stack([_base_perm(spec, G) for spec in base])  # P[b]: the permutation of base map b
    for spec, p in zip(base, P):
        _check_base_map(spec, G, p, gens, prods)
    invtrans = P[base.index(InvTranspose())]
    names = [spec_str(spec) for spec in base]

    anchor = {"theta": str(theta), "g": mat_to_json(g_mat)}
    entries = []
    for word in words:
        steps = []
        img = U
        for b in word:
            img = P[b, img]

        # 1: the order-3 diagonal anchor exists at this level
        steps.append(ReplayStep(1, "pass", anchor))

        # 2: the image of g keeps order 3 and stays in its conjugacy class
        ig = int(img[0])
        if orders[ig] != 3:
            _fail(2, f"image of g has order {orders[ig]}", {"image": G.mat_json(ig)})
        if alpha_of[ig] < 0:
            _fail(2, "image of g left the conjugacy class", {"image": G.mat_json(ig)})
        steps.append(ReplayStep(2, "pass", {"image_of_g": G.mat_json(ig)}))

        # 3: straighten with the first inner map sending the image back to g
        alpha = int(alpha_of[ig])
        aimg = G.conj_vec(alpha, img)  # per member: a batch over the words raised verify's peak RSS
        if int(aimg[0]) != g_idx:
            _fail(3, "straightened map does not fix g")
        steps.append(ReplayStep(3, "pass", {"alpha": G.mat_json(alpha)}))

        # 4: the straightened map restricts to a bijection of the diagonal
        dimg = aimg[2:lower_at]
        if not np.all(delta_member[dimg]):
            bad = int(delta[~delta_member[dimg]][0])
            _fail(4, "diagonal image left the diagonal", {"element": G.mat_json(bad)})
        if not np.array_equal(np.sort(dimg), delta):
            _fail(4, "diagonal image is not the full diagonal")
        steps.append(ReplayStep(4, "pass", {"diagonal_size": int(len(delta))}))

        # 5: the swap matrix lands off-diagonal
        sw = int(aimg[1])
        if not dprime_member[sw]:
            _fail(5, "image of the swap matrix is not off-diagonal", {"image": G.mat_json(sw)})
        # sw = [[0, lam], [c, 0]] has lam c = 1, so diag(lam^-1, lam) sw = SWAP iff lam^-1 lam = 1
        lam = int(G.masks[sw, 1])
        if G.MUL[G.INV[lam], lam] != 1:
            _fail(5, "off-diagonal image does not rebuild the swap matrix")
        sw_json = G.mat_json(sw)
        steps.append(ReplayStep(5, "pass", {"image_of_swap": sw_json, "lambda": sw_json[1]}))

        # 6: lower-unitriangular images pick exactly one unitriangular side
        lower_img = aimg[lower_at:]
        limg = lower_img[lt_nontriv]
        if not np.all(ut_member[limg] | lt_member[limg]):
            bad = int(lower[lt_nontriv][~(ut_member[limg] | lt_member[limg])][0])
            _fail(6, "a lower-unitriangular image is not unitriangular", {"element": G.mat_json(bad)})
        meets_lt = bool(np.any(lt_member[limg] & (limg != 0)))
        meets_ut = bool(np.any(ut_member[limg] & (limg != 0)))
        if meets_lt and meets_ut:
            _fail(6, "images meet both unitriangular sides")
        if not (meets_lt or meets_ut):
            _fail(6, "images vanished entirely")
        beta_is_invtrans = meets_ut
        steps.append(ReplayStep(6, "pass", {"beta": "invtrans" if beta_is_invtrans else "identity"}))

        # 7: after the twist, the lower-triangular set maps onto itself
        final = invtrans[lower_img] if beta_is_invtrans else lower_img
        if not np.array_equal(np.sort(final), lower):
            _fail(7, "twisted map is not onto the lower-triangular set")
        steps.append(ReplayStep(7, "pass", {"lower_triangular_size": int(len(lower))}))

        # 8: the twisted map, hence the original, permutes the whole group
        # (a composite of checked bijections: see the docstring)
        steps.append(ReplayStep(8, "pass", {"group_order": int(len(G))}))

        entries.append(ReplayEntry("*".join(names[b] for b in word), steps))
    return ReplayReport(n, entries)


__all__ = [
    "Entrywise",
    "FieldEndo",
    "GroupEndoSpec",
    "InnerConj",
    "InvTranspose",
    "REPLAY_MAX_LEVEL",
    "ReplayEntry",
    "ReplayReport",
    "ReplayStep",
    "apply_group_endo",
    "field_endos",
    "replay_cohopf_skeleton",
    "replay_family",
    "spec_str",
]
