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
homomorphisms need no check.  The eight-step argument reads only the
images of U = [g, swap, diagonal, lower triangulars] (257 elements at
level 4): fix an order-3 diagonal g, keep its image in g's class and
straighten the images by the lowest inner map sending it back to g (one
conjugator table per level), track the diagonal subgroup, the swap matrix
and the lower-triangular set, choose the final twist, and conclude
bijectivity from the checked base maps.  Steps 2-7 exist once, in
``ReplayFrame.steps``, which checks a whole block of maps at once, one
boolean array per step over the block's rows.  Words with equal images
of the generating set are one map, so the replay feeds it each distinct
map once (35 of 258 words at level 2, 82 of 584 at level 4), in
fixed-size blocks, and the map's words share its steps.
"""

from __future__ import annotations

import functools
import itertools
from typing import Union

import numpy as np

from . import closure, finite_engine as fe, sl2_core as sl
from .closure import ClosureElt, cinv, corder, reduce_elt
from .errors import BoundExceeded, InvariantViolated, LevelMismatch, NoPrimitiveCubeRoot, PreconditionError, StepFailed
from .gf2_field import LOG_TABLE_MAX, ensure_log_table, gen, power
from .record import Record, _set
from .sl2_core import SWAP, Mat2, SubsetName, mat_to_json


class FieldEndo(Record):
    """The field endomorphism x -> x^(2^frob_power) of GF(2^level)."""

    __slots__ = ("level", "frob_power")

    def __init__(self, level: int, frob_power: int):
        if not 0 <= frob_power < level:
            raise ValueError(f"frobenius power {frob_power} outside 0..{level - 1}")
        _set(self, "level", level)
        _set(self, "frob_power", frob_power)

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


class Entrywise(Record):
    __slots__ = ("endo",)

    def __init__(self, endo: FieldEndo):
        _set(self, "endo", endo)


class InnerConj(Record):
    __slots__ = ("mat",)

    def __init__(self, mat: Mat2):
        if not sl.mdet(mat).is_one:
            raise PreconditionError(f"inner conjugator {mat} must have determinant one")
        _set(self, "mat", mat)


class InvTranspose(Record):
    __slots__ = ()


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


class ReplayStep(Record):
    __slots__ = ("id", "status", "witness")

    def __init__(self, id: int, status: str, witness: dict | None = None):
        _set(self, "id", id)
        _set(self, "status", status)
        _set(self, "witness", witness)

    def to_json(self) -> dict:
        out = {"id": self.id, "status": self.status}
        if self.witness is not None:
            out["witness"] = self.witness
        return out


class ReplayEntry:
    __slots__ = ("phi", "steps")

    def __init__(self, phi: str, steps: list[ReplayStep]):
        self.phi, self.steps = phi, steps

    def to_json(self) -> dict:
        return {"phi": self.phi, "steps": [s.to_json() for s in self.steps]}


class ReplayReport:
    __slots__ = ("level", "entries")

    def __init__(self, level: int, entries: list[ReplayEntry]):
        self.level, self.entries = level, entries

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


class ReplayFrame:
    """Steps 1-7 of the argument at level n, run on a block of maps at once.

    Construction fixes what the steps read: the order-3 diagonal anchor g
    (step 1), U = [g, swap, diagonal, lower triangulars], the elements
    steps 2-7 read (17 at level 2, 257 at level 4), the element orders,
    the lowest conjugator sending each member of g's class back to g, the
    shape subsets and the inverse-transpose permutation.  ``steps`` takes
    the images of U under B maps as a (B, |U|) index array, one row a map
    (the replay passes each distinct map once); the maps are assumed to be
    bijective homomorphisms, which step 8 rests on and which the caller
    checks."""

    def __init__(self, n: int):
        self.G = G = fe.enumerate_group(n, fe.KIND_SL2)
        self.theta = theta = reduce_elt(power(gen(n), ((1 << n) - 1) // 3))
        if corder(theta) != 3:
            raise InvariantViolated(f"anchor {theta} does not have order 3")
        self.g_mat = sl.diag_mat(theta, cinv(theta))
        self.g_idx = g_idx = G.index_of(self.g_mat)
        self.orders = G.element_orders()
        names = (SubsetName.DIAG, SubsetName.OFF_DIAG, SubsetName.UPPER_UNI, SubsetName.LOWER_UNI, SubsetName.LOWER_TRI)
        self.delta_member, self.dprime_member, self.ut_member, self.lt_member, lower_member = (fe.subset_member(G, s) for s in names)
        self.delta, self.lower = np.flatnonzero(self.delta_member), np.flatnonzero(lower_member)
        self.lt_nontriv = self.lt_member[self.lower] & (self.lower != 0)  # lower-unitriangulars but I, as a mask on lower
        self.U = np.concatenate([[g_idx, G.index_of(SWAP)], self.delta, self.lower])
        self.lower_at = 2 + len(self.delta)  # U[2:lower_at] is the diagonal, U[lower_at:] the lower triangulars
        # alpha_of[h]: the lowest x with x h x^(-1) = g, or -1 off g's class
        # return_index takes numpy's sort path; a plain np.unique would import numpy.ma
        conjugates, first_x = np.unique(G.conj_vec(G.inv_index, np.int64(g_idx)), return_index=True)
        self.alpha_of = np.full(len(G), -1)
        self.alpha_of[conjugates] = first_x
        self.invtrans = _base_perm(InvTranspose(), G)

    def steps(self, img: np.ndarray) -> tuple[np.ndarray, ...]:
        """Steps 2-7 on every row of img at once, each step one boolean
        array over the rows.  Raises StepFailed for the lowest failing row
        at its first failing step, with that row's message and witness.
        Otherwise returns the per-row witnesses as index arrays: the image
        of g (step 2), the straightening conjugator alpha (step 3), the
        straightened image of the swap matrix (step 5) and whether the
        twist beta is the inverse transpose (step 6)."""
        G, orders, lower_at = self.G, self.orders, self.lower_at
        ig = img[:, 0]
        alpha = self.alpha_of[ig]
        # 3: straighten by the lowest inner map sending the image of g back
        # to g; a row off g's class (alpha -1) fails step 2, so its values
        # here are never read
        aimg = G.conj_vec(alpha[:, None], img)
        dimg, sw, lower_img = aimg[:, 2:lower_at], aimg[:, 1], aimg[:, lower_at:]
        in_delta = self.delta_member[dimg]
        # 5: sw = [[0, lam], [c, 0]] has lam c = 1, so diag(lam^-1, lam) sw = SWAP iff lam^-1 lam = 1
        lam = G.masks[sw, 1]
        # 6: lower-unitriangular images pick exactly one unitriangular side
        limg = lower_img[:, self.lt_nontriv]
        unitri = self.ut_member[limg] | self.lt_member[limg]
        meets_lt = np.any(self.lt_member[limg] & (limg != 0), axis=1)
        meets_ut = np.any(self.ut_member[limg] & (limg != 0), axis=1)
        # 7: after the twist, the lower-triangular set maps onto itself
        final = np.where(meets_ut[:, None], self.invtrans[lower_img], lower_img)
        checks = (  # (step, pass per row, message, witness key and its element per row)
            (2, orders[ig] == 3, "image of g has order {}", ("image", ig)),
            (2, alpha >= 0, "image of g left the conjugacy class", ("image", ig)),
            (3, aimg[:, 0] == self.g_idx, "straightened map does not fix g", None),
            (4, in_delta.all(axis=1), "diagonal image left the diagonal", ("element", self.delta[np.argmin(in_delta, axis=1)])),
            (4, (np.sort(dimg, axis=1) == self.delta).all(axis=1), "diagonal image is not the full diagonal", None),
            (5, self.dprime_member[sw], "image of the swap matrix is not off-diagonal", ("image", sw)),
            (5, G.MUL[G.INV[lam], lam] == 1, "off-diagonal image does not rebuild the swap matrix", None),
            (6, unitri.all(axis=1), "a lower-unitriangular image is not unitriangular",
             ("element", self.lower[self.lt_nontriv][np.argmin(unitri, axis=1)])),
            (6, ~(meets_lt & meets_ut), "images meet both unitriangular sides", None),
            (6, meets_lt | meets_ut, "images vanished entirely", None),
            (7, (np.sort(final, axis=1) == self.lower).all(axis=1), "twisted map is not onto the lower-triangular set", None),
        )
        ok = np.stack([c[1] for c in checks])
        if not ok.all():
            r = int(np.argmin(ok.all(axis=0)))
            step, _, msg, witness = checks[int(np.argmin(ok[:, r]))]
            raise StepFailed(step, msg.format(orders[ig[r]]), witness and {witness[0]: G.mat_json(int(witness[1][r]))})
        return ig, alpha, sw, meets_ut


def replay_cohopf_skeleton(n: int) -> ReplayReport:
    """Run the eight-step argument for every family member over the
    level-n determinant-one group.  The base maps are the rows of one
    permutation stack P, built and checked (bijective, scalar path,
    homomorphism) once, with the identity appended as a last row that
    pads every word to length 3.  Every word is then a bijective
    homomorphism, so two words with equal images of the greedy generating
    set gens are one map: the words' images of gens, gathered through P,
    are deduplicated exactly (35 maps of 258 words at level 2, 82 of 584
    at level 4).  The distinct maps, ordered by their lowest word, go
    through ``ReplayFrame.steps`` in blocks of CLOSURE_CHUNK // (8 |U|)
    rows (31 at level 4, every map at level 2), each block's images of U
    gathered through P once per word position; each map's eight steps are
    built once and shared by its words, and no per-member work scans the
    whole table.  Step 8 needs no scan: a word of checked bijections,
    straightened by an inner map, is a bijection, and its witness is the
    group order.  Raises InvariantViolated on a base map that is not a
    bijective homomorphism and StepFailed, for the lowest failing word,
    on any step violation (all words of a map fail alike, and the maps
    run in lowest-word order); a returned report therefore records only
    passes (with witnesses)."""
    if n > REPLAY_MAX_LEVEL:
        raise BoundExceeded(f"replay limited to levels <= {REPLAY_MAX_LEVEL}, got {n}")
    if n % 2:
        raise NoPrimitiveCubeRoot(f"level {n} is odd, so 3 does not divide 2^{n}-1")
    frame = ReplayFrame(n)
    G, U = frame.G, frame.U

    base, words = replay_family(n)
    gens = fe._generators(fe.SubgroupRef(G, np.ones(len(G), dtype=bool)))
    prods = G.mul_vec(np.arange(len(G))[:, None], gens[None, :])
    P = np.stack([_base_perm(spec, G) for spec in base] + [np.arange(len(G))])  # P[b]: base map b's permutation
    for spec, p in zip(base, P):
        _check_base_map(spec, G, p, gens, prods)
    # the words padded by the identity row, one row each
    W = np.array([w + (len(base),) * (_COMPOSE_DEPTH - len(w)) for w in words], dtype=np.int64).reshape(-1, _COMPOSE_DEPTH)
    key = gens
    for b in W.T:
        key = P[b[:, None], key]
    # first[inverse[w]]: the lowest word with word w's images of gens, one row compared as raw bytes
    _, first, inverse = np.unique(key.view(np.dtype((np.void, key.itemsize * len(gens))))[:, 0], return_index=True, return_inverse=True)
    maps = np.sort(first)
    names = [spec_str(spec) for spec in base]

    # the steps whose witness is the same for every word, one object each
    step1 = ReplayStep(1, "pass", {"theta": str(frame.theta), "g": mat_to_json(frame.g_mat)})
    step4 = ReplayStep(4, "pass", {"diagonal_size": len(frame.delta)})
    step7 = ReplayStep(7, "pass", {"lower_triangular_size": len(frame.lower)})
    # 8: the twisted map, hence the original, permutes the whole group
    # (a composite of checked bijections: see the docstring)
    step8 = ReplayStep(8, "pass", {"group_order": len(G)})
    mat_json = functools.cache(G.mat_json)  # each index's witness, formatted once a call
    rows = max(1, fe.CLOSURE_CHUNK // (8 * len(U)))  # 31 at level 4; 64 ran slower and raised the replay's peak
    steps_of = {}  # a map's lowest word -> the steps its words share
    for k in range(0, len(maps), rows):
        img = U
        for b in W[maps[k : k + rows]].T:
            img = P[b[:, None], img]
        for f, ig, alpha, sw, beta in zip(maps[k : k + rows].tolist(), *(a.tolist() for a in frame.steps(img))):
            ig, alpha, sw = map(mat_json, (ig, alpha, sw))
            steps_of[f] = [step1, ReplayStep(2, "pass", {"image_of_g": ig}), ReplayStep(3, "pass", {"alpha": alpha}), step4,
                           ReplayStep(5, "pass", {"image_of_swap": sw, "lambda": sw[1]}),
                           ReplayStep(6, "pass", {"beta": "invtrans" if beta else "identity"}), step7, step8]
    return ReplayReport(n, [ReplayEntry("*".join(names[b] for b in w), steps_of[f]) for w, f in zip(words, first[inverse].tolist())])


__all__ = [
    "Entrywise",
    "FieldEndo",
    "GroupEndoSpec",
    "InnerConj",
    "InvTranspose",
    "REPLAY_MAX_LEVEL",
    "ReplayFrame",
    "ReplayEntry",
    "ReplayReport",
    "ReplayStep",
    "apply_group_endo",
    "field_endos",
    "replay_cohopf_skeleton",
    "replay_family",
    "spec_str",
]
