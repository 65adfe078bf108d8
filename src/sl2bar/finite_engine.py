"""Exhaustive enumeration of the determinant-one and invertible 2x2
matrix groups over small binary fields, with structure queries:
centralizers, normalizers, commutation-transitivity reports, subgroup
generation, simplicity, the projective-line action, and semidirect
product checks.  One closure, `_closure`, grows a subgroup from a wanted
set and keeps a greedy generating set of it in the same pass; subgroup
generation, greedy generating sets and derived subgroups all read it.  It
dedupes through its membership vector: a step sets its products' bits,
and the bits it turned on are the next frontier, so nothing is sorted.
No set operation here sorts or hashes: numpy's plain `np.unique` (and
`np.intersect1d` through it) imports numpy.ma on its first call, and a
boolean vector over the table answers the same questions.
Normalizers, semidirect checks and derived subgroups work from a greedy
generating set of each subgroup, not from every member, and a normalizer
conjugates by each later generator only the elements the earlier ones
kept; conjugacy classes are the orbits of a greedy generating set of the
group, and element orders are computed once per class.  A centralizer is
never a scan of the table: it is read off the kernel of y -> xy + yx,
span{I, x} for a non-scalar x, as the members among its q^2 GF(q)
combinations.  Commutation tables are built above the diagonal in row
blocks, and a query that needs one non-commuting pair stops at the first
block that holds one.

A table stores its elements once, as four entry columns of masks; element
0 is always the identity and the remaining elements ascend by packed
code, so "lowest index" witnesses are deterministic.  One product, `_mul`,
multiplies entry columns through the level kernel's product table, read
flat, and every matrix product, inverse index and conjugate here goes
through it.  One index, `GroupTable._index`, maps entry columns back to
an index: in closed form for the determinant-one group, whose members are
fixed by three of their entries, and through a table of the at most 4096
packed codes for the invertible group.  Membership is a round trip: a row
is a member when the element at its index has its entries.  A conjugate
x j x^(-1) on the determinant-one table reads x^(-1) as the adjugate
(d, b, c, a) of x's own columns; the invertible table reads it through
`inv_index`.  One commutation test, `GroupTable.commute_vec`, says two
elements commute when their two products have the same code, so a wrong
commutation test can only come from a wrong product.  Each table holds
the closure values of its level's q masks, so a matrix is read from them,
never reduced again.

Tables are immutable once built (the lazy caches are idempotent), and all
query functions are pure, so concurrent readers are safe.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from . import conway
from .closure import celt
from .errors import BoundExceeded, InvariantViolated, PreconditionError, SearchFailed
from .gf2_field import FieldElt, ensure_log_table
from .sl2_core import GENERATOR_SETS, KIND_GL2, KIND_SL2, SWAP, Mat2, SubsetName, commutant_kernel, mat_entry_masks, mat_to_json

SL2_MAX_LEVEL = 5
GL2_MAX_LEVEL = 3
PAIRS_MAX = 600  # elements of a group whose whole pair table may be built
CLOSURE_CHUNK = 1 << 16  # products per step of _closure; sizes the commutation blocks and the replay's map blocks too


def order_formula(level: int, kind: str) -> int:
    q = 1 << level
    if kind == KIND_SL2:
        return q * (q * q - 1)
    if kind == KIND_GL2:
        return (q * q - 1) * (q * q - q)
    raise ValueError(kind)


def _mul(MUL: np.ndarray, n: int, x, y) -> tuple:
    """Matrix product x y of level-n entry columns: x and y are 4-tuples
    (a, b, c, d) of mask arrays or ints that broadcast together, and MUL
    is the level's product table, flat, so that u v = MUL[(u << n) | v]."""
    a1, b1, c1, d1 = (e << n for e in x)
    a2, b2, c2, d2 = y
    return (
        MUL[a1 | a2] ^ MUL[b1 | c2],
        MUL[a1 | b2] ^ MUL[b1 | d2],
        MUL[c1 | a2] ^ MUL[d1 | c2],
        MUL[c1 | b2] ^ MUL[d1 | d2],
    )


def _code(n: int, e) -> np.ndarray:
    """Packed code of level-n entry columns: the four entries as n-bit fields."""
    a, b, c, d = e
    return (((((a << n) | b) << n) | c) << n) | d


class GroupTable:
    """An exhaustively enumerated matrix group at one fixed level."""

    def __init__(self, level: int, kind: str, masks: np.ndarray):
        self.level = n = level
        self.kind = kind
        t = ensure_log_table(level)
        self.q = q = 1 << level
        self.MUL, self.INV = t.mul_table, t.inv_table  # the kernel's product and inverse tables
        self._flat = self.MUL.ravel()  # a view: _mul reads it
        self.elts = [celt(level, x) for x in range(q)]  # mask -> closure value
        self.cols = np.ascontiguousarray(masks.T)  # (4, |G|): the entries, stored once
        self.masks = self.cols.T  # (|G|, 4): a view, one row per element
        if kind == KIND_GL2:  # at most 4096 codes: a table of them is small
            self._lookup = np.full(q**4, -1, dtype=np.int64)
            self._lookup[_code(n, self.cols)] = np.arange(len(masks))
        a, b, c, d = self.cols
        adj = (d, b, c, a)  # x adj(x) = det(x) I in characteristic 2
        di = self.INV[_mul(self._flat, n, self.cols, adj)[0]]
        self.inv_index = self._index(_mul(self._flat, n, adj, (di, 0, 0, di)))
        self._orders: np.ndarray | None = None

    def _index(self, e) -> np.ndarray:
        """Index of the members with entry columns e.  A determinant-one
        table is read in closed form: its members ascend by code, the a = 0
        block first (b != 0, c = 1/b, any d), then the a != 0 block (any b
        and c, d = (1 + bc)/a).  So a member's place in code order is
        pos = (b - 1)q + d or q(q - 1) + (a - 1)q^2 + bq + c, which is
        v - q below, and the identity, at pos = q(q - 1), moves to the
        front.  A non-member's index is some number, maybe out of range."""
        n, q = self.level, self.q
        if self.kind == KIND_GL2:
            return self._lookup[_code(n, e)]
        a, b, c, d = e
        v = ((a << n | b) << n) | np.where(a == 0, d, c)
        return np.where(v == q * q, 0, v - q + (v < q * q))

    # -- basic accessors ----------------------------------------------------

    def __len__(self) -> int:
        return self.cols.shape[1]

    def index_of_rows(self, rows: np.ndarray) -> np.ndarray:
        """Indices of the member rows; a row is a member when the element at
        its index has exactly its entries."""
        idx = np.clip(self._index(rows.T), 0, len(self) - 1)
        if np.any(self.masks[idx] != rows):
            raise ValueError("matrix is not a member of the group")
        return idx

    def index_of(self, M: Mat2) -> int:
        row = np.array(mat_entry_masks(M, self.level), dtype=np.int64)
        return int(self.index_of_rows(row[None, :])[0])

    def mat(self, i: int) -> Mat2:
        return Mat2(*(self.elts[x] for x in self.cols[:, i].tolist()))

    def mat_json(self, i: int) -> list[str]:
        return mat_to_json(self.mat(i))

    # -- multiplication -----------------------------------------------------

    def mul_vec(self, i, j) -> np.ndarray:
        """Indexwise product; i and j broadcast together."""
        n, c = self.level, self.cols
        return self._index(_mul(self._flat, n, c[:, i], c[:, j]))

    def conj_vec(self, i, j) -> np.ndarray:
        """Index of element i * j * i^(-1), broadcasting.  On a
        determinant-one table i^(-1) is the adjugate (d, b, c, a) of the
        columns of i already read; the invertible table reads the inverse's
        columns through inv_index."""
        n, F, c = self.level, self._flat, self.cols
        x = c[:, i]
        xi = c[:, self.inv_index[i]] if self.kind == KIND_GL2 else (x[3], x[1], x[2], x[0])
        return self._index(_mul(F, n, _mul(F, n, x, c[:, j]), xi))

    def commute_vec(self, i, j) -> np.ndarray:
        """Indexwise: do elements i and j commute?  i and j broadcast
        together; two elements commute when their two products have the
        same code."""
        n, F, c = self.level, self._flat, self.cols
        x, y = c[:, i], c[:, j]
        return _code(n, _mul(F, n, x, y)) == _code(n, _mul(F, n, y, x))

    def element_orders(self) -> np.ndarray:
        """Orders by iterated products, of one member per conjugacy class:
        order is a class invariant, so each is spread over its class."""
        if self._orders is None:
            classes = conjugacy_classes(self)
            reps = np.array([cls[0] for cls in classes])
            orders = np.zeros(len(reps), dtype=np.int64)
            cur = np.zeros_like(reps)  # reps to the power k, from the identity
            k = 0
            while np.any(orders == 0):
                k += 1
                if k > len(self):
                    raise InvariantViolated("order scan ran past the group order")
                live = orders == 0
                cur[live] = self.mul_vec(cur[live], reps[live])
                orders[live & (cur == 0)] = k
            self._orders = np.repeat(orders, [len(cls) for cls in classes])[np.argsort(np.concatenate(classes))]
        return self._orders


def enumerate_group(level: int, kind: str = KIND_SL2) -> GroupTable:
    """All matrices at the given level with determinant one (sl2) or any
    nonzero determinant (gl2).  Identity first, then ascending by code.
    One cached table per (level, kind), however the kind is passed."""
    return _enumerate_group(level, kind)


@lru_cache(maxsize=None)
def _enumerate_group(level: int, kind: str) -> GroupTable:
    if kind == KIND_SL2:
        if not 1 <= level <= SL2_MAX_LEVEL:
            raise BoundExceeded(f"sl2 enumeration limited to levels 1..{SL2_MAX_LEVEL}, got {level}")
    elif kind == KIND_GL2:
        if not 1 <= level <= GL2_MAX_LEVEL:
            raise BoundExceeded(f"gl2 enumeration limited to levels 1..{GL2_MAX_LEVEL}, got {level}")
    else:
        raise ValueError(f"unknown group kind {kind!r}")
    t = ensure_log_table(level)
    q, MUL, INV = 1 << level, t.mul_table, t.inv_table
    if kind == KIND_GL2:
        grid = np.indices((q, q, q, q), dtype=np.int64).reshape(4, -1)
        a, b, c, d = grid
        cols = grid[:, _mul(MUL.ravel(), level, grid, (d, b, c, a))[0] != 0]  # x adj(x) = det(x) I
    else:
        a, b, c = (x.ravel() for x in np.indices((q, q, q), dtype=np.int64))
        nz = a != 0
        an, bn, cn = a[nz], b[nz], c[nz]
        dn = MUL[INV[an], 1 ^ MUL[bn, cn]]  # d = (1 + bc) / a
        b0, d0 = (x.ravel() for x in np.indices((q - 1, q), dtype=np.int64))
        b0 += 1
        # each part, and the gl2 grid, ascends by code
        cols = np.concatenate([np.stack([np.zeros_like(b0), b0, INV[b0], d0]), np.stack([an, bn, cn, dn])], axis=1)
    pos = int(np.flatnonzero((cols[0] == 1) & (cols[1] == 0) & (cols[2] == 0) & (cols[3] == 1))[0])
    cols = np.concatenate([cols[:, pos : pos + 1], cols[:, :pos], cols[:, pos + 1 :]], axis=1)
    return GroupTable(level, kind, cols.T)


enumerate_group.cache_info, enumerate_group.cache_clear = _enumerate_group.cache_info, _enumerate_group.cache_clear


# ---------------------------------------------------------------------------
# subgroups


class SubgroupRef:
    """A subgroup of a parent table, held as a boolean membership vector."""

    __slots__ = ("parent", "member")

    def __init__(self, parent: GroupTable, member: np.ndarray):
        self.parent, self.member = parent, member

    @property
    def size(self) -> int:
        return int(self.member.sum())

    def indices(self) -> np.ndarray:
        return np.flatnonzero(self.member)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SubgroupRef)
            and self.parent is other.parent
            and bool(np.array_equal(self.member, other.member))
        )


def subset_member(G: GroupTable, name: SubsetName) -> np.ndarray:
    """Boolean membership vector of the named shape subset."""
    a, b, c, d = G.cols
    if name is SubsetName.DIAG:
        return (b == 0) & (c == 0)
    if name is SubsetName.OFF_DIAG:
        return (a == 0) & (d == 0)
    if name is SubsetName.UPPER_TRI:
        return c == 0
    if name is SubsetName.UPPER_UNI:
        return (c == 0) & (a == 1) & (d == 1)
    if name is SubsetName.LOWER_TRI:
        return b == 0
    if name is SubsetName.LOWER_UNI:
        return (b == 0) & (a == 1) & (d == 1)
    raise ValueError(name)


def subset_indices(G: GroupTable, name: SubsetName) -> np.ndarray:
    """Indices of the named shape subset, ascending."""
    return np.flatnonzero(subset_member(G, name))


def named_subgroup(G: GroupTable, name: SubsetName) -> SubgroupRef:
    if name is SubsetName.OFF_DIAG:
        raise PreconditionError("the off-diagonal set is not a subgroup")
    return SubgroupRef(G, subset_member(G, name))


def centralizer_bf(G: GroupTable, g: int) -> SubgroupRef:
    """Centralizer of the element with index g, from the kernel K of
    y -> xy + yx (sl2_core.commutant_kernel): the members of the group
    among the GF(q) combinations of K's basis, that is the q^2 elements of
    span{I, x} with determinant one (or nonzero, for the invertible group)
    in place of |G| products.  A scalar x has all of M2 as its kernel and
    the whole table as its centralizer, so its q^4 combinations are never
    formed.  The name is the one the benchmark's group-scan reads."""
    n, M = G.level, G.MUL
    basis = commutant_kernel(tuple(FieldElt(n, e) for e in G.cols[:, g].tolist()))
    if len(basis) == 4:
        return SubgroupRef(G, np.ones(len(G), dtype=bool))
    span = np.zeros((1, 4), dtype=np.int64)
    for v in basis:  # every combination, one basis vector at a time: M[:, v] holds its GF(q) multiples
        span = (span[:, None] ^ M[:, [e.mask for e in v]]).reshape(-1, 4)
    a, b, c, d = y = span.T
    det = M[a, d] ^ M[b, c]
    member = np.zeros(len(G), dtype=bool)
    member[G._index(y[:, det == 1 if G.kind == KIND_SL2 else det != 0])] = True
    return SubgroupRef(G, member)


def normalizer_bf(G: GroupTable, H: SubgroupRef) -> SubgroupRef:
    """Normalizer: all x with x H x^(-1) = H.  As H is finite, that holds
    once x conjugates each generator of H into H, so N(H) is the
    intersection of one condition per generator.  The first generator
    conjugates the whole table (through a view: an index array would
    gather a copy), and each later one only the x that survived those
    before it."""
    x = np.arange(len(G))
    for k, h in enumerate(_generators(H)):
        x = x[H.member[G.conj_vec(x if k else slice(None), h)]]
    member = np.zeros(len(G), dtype=bool)
    member[x] = True
    return SubgroupRef(G, member)


def _commute_blocks(G: GroupTable, idx):
    """The commutation table of the elements idx above its diagonal, in row
    blocks: yields (k, C), where C[i, j] tells whether idx[k + i] and
    idx[k + j] commute, for the rows from k and only the columns from k.
    A block makes about CLOSURE_CHUNK / 2 products or fewer; blocks of
    CLOSURE_CHUNK ran slower on the 504-element table."""
    step = max(1, CLOSURE_CHUNK // (4 * len(idx)))  # rows: two products a pair
    for k in range(0, len(idx), step):
        yield k, G.commute_vec(idx[k : k + step, None], idx[None, k:])


def is_abelian(H: SubgroupRef) -> bool:
    return all(C.all() for _, C in _commute_blocks(H.parent, H.indices()))


def derived_subgroup(H: SubgroupRef) -> SubgroupRef:
    """Subgroup generated by all commutators x y x^(-1) y^(-1) of H: the
    normal closure of the commutators of a generating set S of H.  The
    commutators of S are closed, then the conjugates by S of the kept
    generators join them, until every such conjugate is a member; every
    element of S has finite order, so closure under conjugation by S is
    closure under H."""
    G = H.parent
    s = _generators(H)
    xy = G.mul_vec(s[:, None], s[None, :])
    want = np.zeros(len(G), dtype=bool)
    want[G.mul_vec(xy, G.inv_index[xy.T])] = True
    while True:
        member, kept = _closure(G, want)
        conj = G.conj_vec(s[:, None], kept[None, :])
        if member[conj].all():
            return SubgroupRef(G, member)
        want[conj] = True


def is_metabelian(H: SubgroupRef) -> bool:
    return is_abelian(derived_subgroup(H))


def _closure(G: GroupTable, want: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(member, kept): the membership vector of the subgroup generated by
    the elements where want is true, and a greedy generating set of it.
    While some wanted element is not yet a member, the least one is kept,
    and every member is multiplied by the kept elements, then each new
    product in turn (breadth-first), until no product falls outside.  So
    each kept element lies outside the subgroup generated by those kept
    before it, and at least doubles it: at most log2 of the subgroup's
    order are kept.  A step
    multiplies in chunks of at most about CLOSURE_CHUNK products, so a
    large generating set never materializes the whole frontier-by-
    generators product array, and sets each chunk's products straight
    into member: the next frontier is the bits the step turned on,
    ascending and unique, and nothing is sorted."""
    member = np.zeros(len(G), dtype=bool)
    member[0] = True
    kept = []
    while (rest := want & ~member).any():
        kept.append(int(np.argmax(rest)))
        s, frontier = np.array(kept), np.flatnonzero(member)
        while len(frontier):
            step = max(1, CLOSURE_CHUNK // len(frontier))
            before = member.copy()
            for k in range(0, len(s), step):
                member[G.mul_vec(frontier[:, None], s[None, k : k + step]).ravel()] = True
            frontier = np.flatnonzero(member & ~before)
    return member, np.array(kept, dtype=np.int64)


def _generators(H: SubgroupRef) -> np.ndarray:
    """A greedy generating set of H: scanning H in index order, each member
    not in the subgroup generated by those kept before it."""
    return _closure(H.parent, H.member)[1]


def subgroup_generated(G: GroupTable, gens) -> SubgroupRef:
    """Closure of a generating set under products (see _closure)."""
    want = np.zeros(len(G), dtype=bool)
    want[np.asarray(gens, dtype=np.int64)] = True
    return SubgroupRef(G, _closure(G, want)[0])


# ---------------------------------------------------------------------------
# commutation transitivity


class CtReport:
    """Result of a commutation-transitivity check.

    When the property fails, `witness` is a triple of element indices
    (x, y, z) with y != 1, xy = yx, yz = zy but xz != zx.
    """

    __slots__ = ("group", "holds", "witness")

    def __init__(self, group: GroupTable, holds: bool, witness: tuple[int, int, int] | None = None):
        self.group, self.holds, self.witness = group, holds, witness
        if self.holds != (self.witness is None):
            raise InvariantViolated("a report fails exactly when it carries a witness")
        if self.witness is not None:
            x, y, z = self.witness
            if y == 0 or self.group.commute_vec([x, y, x], [y, z, z]).tolist() != [True, True, False]:
                raise InvariantViolated(f"witness {self.witness} is not a commutation-transitivity counterexample")

    def to_json(self) -> dict:
        return {
            "holds": self.holds,
            "witness": None if self.witness is None else [self.group.mat_json(i) for i in self.witness],
        }

    def witness_literals(self) -> list[str] | None:
        if self.witness is None:
            return None
        return [str(self.group.mat(i)) for i in self.witness]


def ct_check_centralizers(G: GroupTable) -> CtReport:
    """Commutation transitivity via centralizers: holds iff the
    centralizer of every nontrivial element is abelian.  As
    C(x g x^(-1)) = x C(g) x^(-1), one member per conjugacy class decides
    it.  The classes come ordered by least member, so the first failing
    class's least member is the lowest element with a nonabelian
    centralizer, and the witness is rebuilt from that centralizer.
    Orbit-stabilizer, |C(g)| |class(g)| = |G|, guards the classes."""
    for cls in conjugacy_classes(G)[1:]:
        g = int(cls[0])
        cz = centralizer_bf(G, g).indices()
        if len(cz) * len(cls) != len(G):
            raise InvariantViolated(f"element {g}: centralizer of {len(cz)} and class of {len(cls)} in a group of {len(G)}")
        for k, C in _commute_blocks(G, cz):
            if not C.all():  # commutation is symmetric: the first pair in row-major order
                i, j = np.unravel_index(np.argmax(~C), C.shape)
                return CtReport(G, False, (int(cz[k + i]), g, int(cz[k + j])))
    return CtReport(G, True)


def _commute_matrix(G: GroupTable) -> np.ndarray:
    """comm[g, h]: do elements g and h commute?  The whole table, both
    triangles filled from the blocks above the diagonal, so limited to
    groups of at most PAIRS_MAX elements."""
    if len(G) > PAIRS_MAX:
        raise BoundExceeded(f"pair scan limited to {PAIRS_MAX} elements, group has {len(G)}")
    comm = np.zeros((len(G), len(G)), dtype=bool)
    for k, C in _commute_blocks(G, np.arange(len(G))):
        comm[k : k + len(C), k:] = C
    return comm | comm.T  # each pair is filled on at least one side


def ct_check_triples(G: GroupTable) -> CtReport:
    """Direct evaluation of the transitivity sentence over all triples, on
    the commutation table of _commute_matrix, one x at a time in index
    order: the rows of the nontrivial y that commute with x, less the row
    of x, mark the z that break it, so the first mark in row-major order
    is the lowest triple."""
    comm = _commute_matrix(G)
    for x in range(len(G)):
        ys = np.flatnonzero(comm[x, 1:]) + 1
        bad = comm[ys] & ~comm[x]
        if bad.any():
            i, z = np.unravel_index(np.argmax(bad), bad.shape)
            return CtReport(G, False, (x, int(ys[i]), int(z)))
    return CtReport(G, True)


def maximal_abelian_subgroups(G: GroupTable) -> list[SubgroupRef]:
    """Maximal abelian subgroups: the abelian ones among the distinct
    centralizers of nontrivial elements, in the order their rows first
    appear, that lie inside no other.  Maximality is verified directly:
    no outside element may commute with everything."""
    comm = _commute_matrix(G)
    rows = {cz.tobytes(): cz for cz in comm[1:]}.values()  # a key keeps its first place
    cands = np.array([cz for cz in rows if comm[np.ix_(cz, cz)].all()])
    out = []
    for cz in cands:
        if (cz <= cands).all(axis=1).sum() > 1:  # the candidates are distinct: one holds cz, itself
            continue
        if not np.array_equal(comm[cz].all(axis=0), cz):
            raise InvariantViolated("centralizer candidate not maximal")
        out.append(SubgroupRef(G, cz))
    if not np.any([H.member for H in out], axis=0).all():
        raise InvariantViolated("some element lies in no listed maximal abelian subgroup")
    return out


def maximal_abelian_intersections(G: GroupTable) -> bool:
    """Do distinct maximal abelian subgroups intersect trivially?  They do
    exactly when each nontrivial element lies in at most one of them."""
    holding = np.sum([H.member[1:] for H in maximal_abelian_subgroups(G)], axis=0)
    return bool((holding <= 1).all())


# ---------------------------------------------------------------------------
# conjugacy, simplicity, generation


def conjugacy_classes(G: GroupTable) -> list[np.ndarray]:
    """Conjugacy classes as sorted index arrays, ordered by least member:
    the orbits of G under conjugation by a generating set S of G."""
    s = _generators(SubgroupRef(G, np.ones(len(G), dtype=bool)))
    conj = np.array([G.conj_vec(h, slice(None)) for h in s])  # one |G| conjugation at a time keeps the peak low
    label = np.arange(len(G))
    while not np.array_equal(low := np.minimum(label, label[conj].min(0)), label):
        label = low[low]
    # Now each label is at most the labels of its images under every s.
    # Conjugation by s permutes G in cycles, so labels are constant on the
    # orbits; a label is always a member of its element's orbit and never
    # above that element, so each orbit's label is its least member.
    order = np.argsort(label, kind="stable")
    return np.split(order, np.flatnonzero(np.diff(label[order])) + 1)


def is_simple(G: GroupTable) -> bool:
    """No conjugacy class generates a proper nontrivial normal subgroup."""
    if len(G) == 1:
        return False
    for cls in conjugacy_classes(G):
        if len(cls) == 1 and cls[0] == 0:
            continue
        closure_size = subgroup_generated(G, cls).size
        if closure_size != len(G):
            return False
    return True


def generator_set(G: GroupTable, which: str) -> np.ndarray:
    """Indices of a named generating set (one of GENERATOR_SETS): the
    involutions, the swap matrix with the lower unitriangulars, or the
    normalizer of the diagonal with the lower triangulars."""
    if which == "involutions":
        return np.flatnonzero(G.element_orders() == 2)
    if which == "swap-lower":
        return np.concatenate([[G.index_of(SWAP)], subset_indices(G, SubsetName.LOWER_UNI)])
    if which == "ndelta-lower":
        nd = normalizer_bf(G, named_subgroup(G, SubsetName.DIAG))
        return np.concatenate([nd.indices(), subset_indices(G, SubsetName.LOWER_TRI)])
    raise ValueError(which)


def unipotent_as_order3_product(G: GroupTable) -> tuple[int, int]:
    """Indices (a, b) of two order-3 elements whose product is
    [[1,1],[0,1]], in the level-2 determinant-one group."""
    if G.kind != KIND_SL2 or G.level != 2:
        raise PreconditionError("search is defined in the level-2 determinant-one group")
    target = G.index_of_rows(np.array([[1, 1, 0, 1]], dtype=np.int64))[0]
    orders = G.element_orders()
    for a in np.flatnonzero(orders == 3):
        b = int(G.mul_vec(G.inv_index[a], target))
        if orders[b] == 3:
            return int(a), int(b)
    raise SearchFailed("no order-3 factorization of the unipotent element")


def semidirect_check(G: GroupTable, N: SubgroupRef, H: SubgroupRef) -> bool:
    """Is <N u H> the (inner) semidirect product of N by H?  Checks that N
    is normal in the join (each generator of N and of H conjugates each
    generator of N into N), N and H intersect trivially, and N H fills the
    join."""
    ns = _generators(N)
    xs = np.concatenate([ns, _generators(H)])  # generators of the join
    if not np.all(N.member[G.conj_vec(xs[:, None], ns[None, :])]):
        return False
    if (N.member & H.member).sum() != 1:
        return False
    prods = np.zeros(len(G), dtype=bool)
    prods[G.mul_vec(N.indices()[:, None], H.indices()[None, :])] = True
    return bool(np.array_equal(prods, subgroup_generated(G, xs).member))


def ut_lt_disjointness(G: GroupTable) -> bool:
    """Upper and lower unitriangular subgroups meet only in the identity,
    and no nontrivial pair drawn from the two sides commutes."""
    ut = subset_member(G, SubsetName.UPPER_UNI)
    lt = subset_member(G, SubsetName.LOWER_UNI)
    if (ut & lt).sum() != 1:
        return False
    ut, lt = np.flatnonzero(ut[1:]) + 1, np.flatnonzero(lt[1:]) + 1  # the identity is index 0
    return not G.commute_vec(ut[:, None], lt[None, :]).any()


# ---------------------------------------------------------------------------
# the projective-line action


class ProjectiveAction:
    """Permutation action on the q+1 points of the projective line.

    Point i < q is the line through (i, 1); point q is the line through
    (1, 0).  perms[k] is the permutation induced by group element k.
    """

    __slots__ = ("perms",)

    def __init__(self, perms: np.ndarray):
        self.perms = perms  # (|G|, q+1)

    @property
    def n_points(self) -> int:
        return self.perms.shape[1]

    def is_faithful(self) -> bool:
        """Is the identity the only element fixing every point?"""
        return int(np.all(self.perms == np.arange(self.n_points), axis=1).sum()) == 1

    def image_order(self) -> int:
        """Number of distinct permutations: in sorted order, one plus the
        rows that differ from the row before."""
        p = self.perms[np.lexsort(self.perms.T)]
        return int((p[1:] != p[:-1]).any(axis=1).sum()) + 1

    def all_even(self) -> bool:
        """Is every permutation even?  Parity is that of the inversion count."""
        p = self.perms
        inversions = np.triu(p[:, :, None] > p[:, None, :], 1).sum(axis=(1, 2))
        return bool(np.all(inversions % 2 == 0))

    def perm_order(self, i: int) -> int:
        perm = self.perms[i]
        cur = perm.copy()
        k = 1
        ident = np.arange(self.n_points)
        while not np.array_equal(cur, ident):
            cur = perm[cur]
            k += 1
        return k


def projective_action(G: GroupTable) -> ProjectiveAction:
    """The action of a determinant-one table on the projective line."""
    if G.kind != KIND_SL2 or G.level > 4:
        raise BoundExceeded("projective action limited to determinant-one tables at levels <= 4")
    q, MUL, INV = G.q, G.MUL, G.INV
    perms = np.empty((len(G), q + 1), dtype=np.int64)
    for p in range(q + 1):
        px, py = (p, 1) if p < q else (1, 0)
        xs, _, ys, _ = _mul(G._flat, G.level, G.cols, (px, 0, py, 0))  # each element times the column (px, py)
        perms[:, p] = np.where(ys != 0, MUL[xs, INV[ys]], q)
    return ProjectiveAction(perms)


conway.register_invalidation_hook(enumerate_group.cache_clear)


__all__ = [
    "GENERATOR_SETS",
    "GL2_MAX_LEVEL",
    "KIND_GL2",
    "KIND_SL2",
    "PAIRS_MAX",
    "SL2_MAX_LEVEL",
    "CtReport",
    "GroupTable",
    "ProjectiveAction",
    "SubgroupRef",
    "centralizer_bf",
    "conjugacy_classes",
    "ct_check_centralizers",
    "ct_check_triples",
    "derived_subgroup",
    "enumerate_group",
    "generator_set",
    "is_abelian",
    "is_metabelian",
    "is_simple",
    "maximal_abelian_intersections",
    "maximal_abelian_subgroups",
    "named_subgroup",
    "normalizer_bf",
    "order_formula",
    "projective_action",
    "semidirect_check",
    "subgroup_generated",
    "subset_indices",
    "subset_member",
    "unipotent_as_order3_product",
    "ut_lt_disjointness",
]
