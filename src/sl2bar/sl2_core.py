"""2x2 matrices over the binary field tower, with characteristic-2
conventions throughout: the determinant of [[a,b],[c,d]] is ad + bc, and
the inverse of a determinant-one matrix [[s,t],[u,v]] is the entry swap
[[v,t],[u,s]].

Provides conjugacy classification (identity / unipotent / split with a
canonical eigenvalue), the named shape subsets (diagonal, off-diagonal,
upper/lower triangular and unitriangular), the two closed-form
conjugation identities for diagonal and unitriangular targets, the
factorization of a diagonal matrix into two involutions, the kernel of
y -> xy + yx (the matrices that commute with x, solved with same-level
scalar arithmetic at any level), and the literal and entry-mask forms of
a matrix.  Nothing here is random: the verify suite draws its matrices
as level masks.

Conjugation is fixed as conj(M, g) = M * g * M^(-1) everywhere.

``mmul`` and ``conj`` work at one joined level: every entry of both
operands lifts once to L, the lcm of their levels, the products and sums
run there with the same-level scalar ops, and only the four results
reduce.  Every intermediate value lies in GF(2^L), so at L <= N_MAX the
entrywise route, where each closure op joins, lifts and reduces on its
own, overflows nowhere and gives the same closure elements.  Only past
N_MAX do they run that route, which may still succeed or names the first
join that overflows.
"""

from __future__ import annotations

import enum
import math

from . import closure
from .closure import ZERO, ONE, ClosureElt, cadd, cinv, cmul, corder, csqrt
from .errors import (
    InvariantViolated,
    LevelOverflow,
    NonUnitDeterminant,
    ParseError,
    PreconditionError,
    SingularMatrix,
)
from .gf2_field import FieldElt, add, artin_schreier_solve, inv, mul
from .closure import lift, reduce_elt
from .record import Record, _set

# The group kinds and the names of finite_engine.generator_set's sets live
# below the group engine, so the CLI parser offers them without importing it.
KIND_SL2 = "sl2"
KIND_GL2 = "gl2"
GENERATOR_SETS = ("involutions", "swap-lower", "ndelta-lower")


class Mat2(Record):
    """Row-major 2x2 matrix [[a, b], [c, d]] over the closure."""

    __slots__ = ("a", "b", "c", "d")

    def __init__(self, a: ClosureElt, b: ClosureElt, c: ClosureElt, d: ClosureElt):
        _set(self, "a", a)
        _set(self, "b", b)
        _set(self, "c", c)
        _set(self, "d", d)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.a, self.b, self.c, self.d) == (other.a, other.b, other.c, other.d)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.a, self.b, self.c, self.d))

    def __str__(self) -> str:
        return f"[[{self.a},{self.b}],[{self.c},{self.d}]]"

    @property
    def is_identity(self) -> bool:
        return self == IDENTITY

    def entries(self) -> tuple[ClosureElt, ClosureElt, ClosureElt, ClosureElt]:
        return (self.a, self.b, self.c, self.d)


IDENTITY = Mat2(ONE, ZERO, ZERO, ONE)
SWAP = Mat2(ZERO, ONE, ONE, ZERO)


def diag_mat(x: ClosureElt, y: ClosureElt) -> Mat2:
    return Mat2(x, ZERO, ZERO, y)


def off_diag_mat(y: ClosureElt) -> Mat2:
    return Mat2(ZERO, y, cinv(y), ZERO)


def upper_uni(y: ClosureElt) -> Mat2:
    return Mat2(ONE, y, ZERO, ONE)


def mdet(M: Mat2) -> ClosureElt:
    return cadd(cmul(M.a, M.d), cmul(M.b, M.c))


def mtrace(M: Mat2) -> ClosureElt:
    return cadd(M.a, M.d)


def _joined(entries: tuple[ClosureElt, ...]) -> list[FieldElt] | None:
    """The entries lifted once to L, the lcm of their levels, or None when
    L > N_MAX."""
    n = math.lcm(*(e.elt.level for e in entries))
    if n > closure.N_MAX:
        return None
    return [lift(e.elt, n) for e in entries]


def _product(plus, times, a, b, c, d, p, q, r, s) -> tuple:
    """[[a, b], [c, d]] * [[p, q], [r, s]] with the given sum and product:
    the same-level scalar ops, or the closure ops past N_MAX."""
    return (
        plus(times(a, p), times(b, r)),
        plus(times(a, q), times(b, s)),
        plus(times(c, p), times(d, r)),
        plus(times(c, q), times(d, s)),
    )


def mmul(M: Mat2, N: Mat2) -> Mat2:
    """M * N at one joined level: the eight entries lift once to the lcm
    of their levels, multiply there, and only the four results reduce.
    Past N_MAX it runs entrywise, each entry's products and sum joined on
    their own: M = [[g_4, g_3], [0, g_4^(-1)]] times diag(g_5, g_5^(-1))
    joins at levels up to 20 although the lcm is 60."""
    entries = M.entries() + N.entries()
    x = _joined(entries)
    if x is None:
        return Mat2(*_product(cadd, cmul, *entries))
    return Mat2(*map(reduce_elt, _product(add, mul, *x)))


def minv(M: Mat2) -> Mat2:
    """Inverse; for determinant one this is the entry swap [[d,b],[c,a]]."""
    det = mdet(M)
    if det.is_zero:
        raise SingularMatrix(f"matrix {M} has determinant zero")
    if det.is_one:
        return Mat2(M.d, M.b, M.c, M.a)
    di = cinv(det)
    return Mat2(cmul(M.d, di), cmul(M.b, di), cmul(M.c, di), cmul(M.a, di))


def conj(M: Mat2, g: Mat2) -> Mat2:
    """M * g * M^(-1) at one joined level, as ``mmul``: M g times the
    adjugate [[d, b], [c, a]] of M, scaled by det(M)^(-1) unless that is
    one; SingularMatrix when det(M) = 0, as ``minv``.  Past N_MAX it
    runs entrywise through ``mmul`` and ``minv``."""
    x = _joined(M.entries() + g.entries())
    if x is None:
        return mmul(mmul(M, g), minv(M))
    a, b, c, d = x[:4]
    det = add(mul(a, d), mul(b, c))
    if det.is_zero:
        raise SingularMatrix(f"matrix {M} has determinant zero")
    out = _product(add, mul, *_product(add, mul, *x), d, b, c, a)
    if not det.is_one:
        di = inv(det)
        out = [mul(e, di) for e in out]
    return Mat2(*map(reduce_elt, out))


def require_sl2(M: Mat2) -> None:
    if not mdet(M).is_one:
        raise NonUnitDeterminant(f"matrix {M} has determinant {mdet(M)}, need 1")


def inv_transpose(M: Mat2) -> Mat2:
    """[[a,b],[c,d]] -> [[d,c],[b,a]]; equals conjugation by the swap
    matrix and is an involutive automorphism of the determinant-one group."""
    require_sl2(M)
    return Mat2(M.d, M.c, M.b, M.a)


def commutant_kernel(x: tuple[FieldElt, FieldElt, FieldElt, FieldElt]) -> list[tuple[FieldElt, ...]]:
    """A basis of the matrices y = [[p, r], [s, t]] that commute with
    x = [[a, b], [c, d]], all entries at one level: the kernel of the
    GF(2^n)-linear map y -> xy + yx, whose rows in (p, r, s, t) are
    (0, c, b, 0), (b, a + d, 0, b), (c, 0, a + d, c) and (0, c, b, 0); the
    last repeats the first, so three rows give the kernel.  Row reduction
    with the scalar add, mul and inv leaves one basis vector per free
    column.  The kernel is the algebra x generates (Huppert,
    Endliche Gruppen I, II.8): span{I, x} for a non-scalar x, everything
    for a scalar one."""
    a, b, c, d = x
    zero, one, t = FieldElt(a.level, 0), FieldElt(a.level, 1), add(a, d)
    rows = [[zero, c, b, zero], [b, t, zero, b], [c, zero, t, c]]
    pivots: list[int] = []
    for col in range(4):
        r = len(pivots)
        p = next((i for i in range(r, 3) if not rows[i][col].is_zero), None)
        if p is None:
            continue
        rows[r], rows[p] = rows[p], rows[r]
        s = inv(rows[r][col])
        rows[r][col:] = [mul(s, e) for e in rows[r][col:]]  # left of col the row is zero
        for i in range(3):
            if i != r and not rows[i][col].is_zero:
                f = rows[i][col]
                rows[i][col:] = [add(e, mul(f, g)) for e, g in zip(rows[i][col:], rows[r][col:])]
        pivots.append(col)
    basis = []
    for free in (col for col in range(4) if col not in pivots):
        v = [zero] * 4
        v[free] = one
        for row, col in zip(rows, pivots):
            v[col] = row[free]  # -row[free] in characteristic 2
        basis.append(tuple(v))
    return basis


def normalize_to_sl2(X: Mat2) -> Mat2:
    """Scale X by the inverse square root of its determinant.

    The result Y has determinant one and conjugates exactly as X does.
    """
    det = mdet(X)
    if det.is_zero:
        raise SingularMatrix(f"matrix {X} has determinant zero")
    if det.is_one:
        return X
    s = csqrt(cinv(det))
    return Mat2(cmul(s, X.a), cmul(s, X.b), cmul(s, X.c), cmul(s, X.d))


# ---------------------------------------------------------------------------
# conjugacy classification


class JordanClass(Record):
    """Conjugacy class descriptor: identity, unipotent, or split with a
    canonical eigenvalue (the smaller of {lam, lam^(-1)} by (level, mask))."""

    __slots__ = ("kind", "lam")

    def __init__(self, kind: str, lam: ClosureElt | None = None):
        _set(self, "kind", kind)  # "identity" | "unipotent" | "split"
        _set(self, "lam", lam)

    def __str__(self) -> str:
        if self.kind == "split":
            return f"Split({self.lam})"
        return self.kind.capitalize()


JORDAN_IDENTITY = JordanClass("identity")
JORDAN_UNIPOTENT = JordanClass("unipotent")


def split_class(lam: ClosureElt) -> JordanClass:
    """Split class with the canonical representative of {lam, lam^(-1)}."""
    if lam.is_zero or lam.is_one:
        raise PreconditionError(f"split eigenvalue must avoid 0 and 1, got {lam}")
    other = cinv(lam)
    pick = min(lam, other, key=lambda x: (x.level, x.mask))
    return JordanClass("split", pick)


def classify_jordan(M: Mat2) -> JordanClass:
    """Complete conjugacy invariant for determinant-one matrices.

    Nonzero trace t yields the split class with eigenvalues solving
    x^2 + t x + 1 = 0; substituting x = t y turns that into y^2 + y = t^(-2),
    solvable at the trace's level or, when the trace obstruction blocks it,
    at twice that level.
    """
    require_sl2(M)
    if M.is_identity:
        return JORDAN_IDENTITY
    t = mtrace(M)
    if t.is_zero:
        return JORDAN_UNIPOTENT
    c = cinv(cmul(t, t))  # t^(-2)
    y = artin_schreier_solve(c.elt)
    if y is None:
        m = c.level
        if 2 * m > closure.N_MAX:
            raise LevelOverflow(f"eigenvalues of {M} need level {2 * m} > {closure.N_MAX}")
        y = artin_schreier_solve(lift(c.elt, 2 * m))
        if y is None:
            raise InvariantViolated("trace vanishes after doubling the level")
    lam = cmul(t, reduce_elt(y))
    if not cmul(lam, cadd(lam, t)).is_one:
        raise InvariantViolated(f"the two roots for {M} do not multiply to det = 1")
    return split_class(lam)


def are_conjugate(M: Mat2, N: Mat2) -> bool:
    return classify_jordan(M) == classify_jordan(N)


def morder(M: Mat2) -> int:
    """Order of a determinant-one matrix, via its conjugacy class.

    Identity has order 1, unipotent matrices order 2, split matrices the
    multiplicative order of the eigenvalue.  The verify check c07 compares
    it with the table's orders (iterated products of one member per
    conjugacy class, spread over the class): on every element of SL2(2^n)
    for n <= 3, and from n = 4 on the identity and one member per trace
    fibre, whose value it spreads over the fibre.
    """
    k = classify_jordan(M)
    if k.kind == "identity":
        return 1
    if k.kind == "unipotent":
        return 2
    return corder(k.lam)


# ---------------------------------------------------------------------------
# named shape subsets


class SubsetName(enum.Enum):
    DIAG = "diag"
    OFF_DIAG = "off-diag"
    UPPER_TRI = "upper-tri"
    UPPER_UNI = "upper-uni"
    LOWER_TRI = "lower-tri"
    LOWER_UNI = "lower-uni"


# ---------------------------------------------------------------------------
# closed-form conjugations


def _require_unit_conjugator(s, t, u, v) -> None:
    if not cadd(cmul(s, v), cmul(t, u)).is_one:
        raise PreconditionError("conjugator [[s,t],[u,v]] must satisfy sv + tu = 1")


def conjugate_eq1(lam: ClosureElt, s, t, u, v) -> Mat2:
    """Closed form of [[s,t],[u,v]] * diag(lam, lam^(-1)) * [[v,t],[u,s]]:

        [[lam sv + lam^(-1) tu,  (lam + lam^(-1)) st],
         [(lam + lam^(-1)) uv,   lam^(-1) sv + lam tu]]
    """
    if lam.is_zero:
        raise PreconditionError("diagonal entry lam must be nonzero")
    _require_unit_conjugator(s, t, u, v)
    li = cinv(lam)
    mix = cadd(lam, li)
    return Mat2(
        cadd(cmul(lam, cmul(s, v)), cmul(li, cmul(t, u))),
        cmul(mix, cmul(s, t)),
        cmul(mix, cmul(u, v)),
        cadd(cmul(li, cmul(s, v)), cmul(lam, cmul(t, u))),
    )


def conjugate_eq2(lam: ClosureElt, s, t, u, v) -> Mat2:
    """Closed form of [[s,t],[u,v]] * [[1,lam],[0,1]] * [[v,t],[u,s]]:

        [[1 + lam su, lam s^2], [lam u^2, 1 + lam su]]
    """
    _require_unit_conjugator(s, t, u, v)
    corner = cadd(ONE, cmul(lam, cmul(s, u)))
    return Mat2(corner, cmul(lam, cmul(s, s)), cmul(lam, cmul(u, u)), corner)


# ---------------------------------------------------------------------------
# involutions and generation helpers


def diag_as_two_involutions(lam: ClosureElt) -> tuple[Mat2, Mat2]:
    """Two order-2 factors whose product is diag(lam, lam^(-1)):
    [[0,lam],[lam^(-1),0]] and the swap matrix."""
    if lam.is_zero:
        raise PreconditionError("lam must be nonzero")
    return off_diag_mat(lam), SWAP


# ---------------------------------------------------------------------------
# literals and entry masks


def mat_to_json(M: Mat2) -> list[str]:
    """JSON form of a matrix: the 4-array of its entry literals."""
    return [str(e) for e in M.entries()]


def parse_mat(text: str) -> Mat2:
    """Parse ``[[e,e],[e,e]]`` with element literals, whitespace tolerated."""
    squeezed = "".join(text.split())
    if not (squeezed.startswith("[[") and squeezed.endswith("]]")):
        raise ParseError(f"bad matrix literal {text!r}")
    body = squeezed[2:-2]
    rows = body.split("],[")
    if len(rows) != 2:
        raise ParseError(f"bad matrix literal {text!r}: need two rows")
    cells = []
    for row in rows:
        parts = row.split(",")
        if len(parts) != 2:
            raise ParseError(f"bad matrix literal {text!r}: need two entries per row")
        cells.extend(closure.parse(p) for p in parts)
    return Mat2(*cells)


def mat_entry_masks(M: Mat2, level: int) -> tuple[int, int, int, int]:
    """Entry masks of M lifted to a common level (entry levels must divide it)."""
    return tuple(lift(e.elt, level).mask for e in M.entries())  # type: ignore[return-value]


def mat_from_masks(level: int, quad) -> Mat2:
    """The matrix with the four level-`level` entry masks `quad`."""
    return Mat2(*(closure.celt(level, int(m)) for m in quad))


__all__ = [
    "GENERATOR_SETS",
    "IDENTITY",
    "KIND_GL2",
    "KIND_SL2",
    "SWAP",
    "JordanClass",
    "JORDAN_IDENTITY",
    "JORDAN_UNIPOTENT",
    "Mat2",
    "SubsetName",
    "are_conjugate",
    "classify_jordan",
    "commutant_kernel",
    "conj",
    "conjugate_eq1",
    "conjugate_eq2",
    "diag_as_two_involutions",
    "diag_mat",
    "inv_transpose",
    "mat_entry_masks",
    "mat_from_masks",
    "mat_to_json",
    "mdet",
    "minv",
    "mmul",
    "morder",
    "mtrace",
    "normalize_to_sl2",
    "off_diag_mat",
    "parse_mat",
    "require_sl2",
    "split_class",
    "upper_uni",
]
