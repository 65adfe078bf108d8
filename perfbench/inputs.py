"""Seeded inputs for every workload, and the checks on their answers.

Everything here is computed with the independent arithmetic in oracle.py;
sl2bar only ever sees the generated inputs.  Elements travel as
``[level, mask]`` at their minimal level, matrices as four elements.
"""

from __future__ import annotations

import math
import random

from oracle import N_MAX, ONE, ZERO, Tower, lit, mat_lit, poly_text, prime_factors

CLOSURE_OPS = ("cmul", "cadd", "cinv", "csqrt", "cpow", "corder", "minimal_poly", "mmul", "conj", "classify_jordan")
PAIR_OPS = ("cmul", "cadd", "mmul", "conj")
OVERFLOW_SHARE = 0.05  # share of pair queries whose join level is above N_MAX

_LEVELS = range(1, N_MAX + 1)
_PAIRS_OK = [(m, n) for m in _LEVELS for n in _LEVELS if math.lcm(m, n) <= N_MAX]
_PAIRS_SAME = [(n, n) for n in _LEVELS]
_PAIRS_DIV = [(m, n) for m, n in _PAIRS_OK if m != n and n % m == 0]
_PAIRS_OVER = [(m, n) for m in _LEVELS for n in _LEVELS if math.lcm(m, n) > N_MAX]


def _elt(T: Tower, rng, n: int, nonzero: bool = False):
    return T.reduce(n, rng.randrange(1 if nonzero else 0, 1 << n))


def _full_elt(T: Tower, rng, n: int):
    """A random element whose minimal level is exactly n."""
    while True:
        e = _elt(T, rng, n)
        if e[0] == n:
            return e


def _cycle(rng, items, k: int) -> list:
    """k items drawn by passes over seeded shuffles of ``items``, so every
    seed gets (nearly) the same multiset."""
    out: list = []
    while len(out) < k:
        batch = list(items)
        rng.shuffle(batch)
        out.extend(batch)
    return out[:k]


def _level_plan(rng, k: int) -> list:
    return _cycle(rng, _LEVELS, k)


def _pair_plan(rng, k: int) -> list:
    """Level pairs: OVERFLOW_SHARE of them join above N_MAX, the rest are
    split evenly between same-level, divisor and other in-window pairs."""
    over = round(k * OVERFLOW_SHARE)
    plan = _cycle(rng, _PAIRS_OVER, over)
    rest = k - over
    for i, pool in enumerate((_PAIRS_SAME, _PAIRS_DIV, _PAIRS_OK)):
        plan += _cycle(rng, pool, rest // 3 + (i < rest % 3))
    rng.shuffle(plan)
    return plan


def _eigen_overflow(T: Tower, M) -> bool:
    """Do the eigenvalues of M need a level above N_MAX?  They solve
    x^2 + t x + 1 = 0; with c = t^(-2) at t's level m they lie at level m
    when the absolute trace of c vanishes, and at level 2m otherwise."""
    t = T.trace(M)
    if t == ZERO:
        return False
    c = T.cinv(T.cmul(t, t))
    return T.abs_trace(c[0], c[1]) != 0 and 2 * c[0] > N_MAX


def closure_queries(T: Tower, seed: int, count: int) -> list[list]:
    """``count`` queries, equal numbers of each operation in seeded order,
    each operation spread evenly over the levels (or level pairs).  Each
    query is ``[op, overflow_expected, *args]``."""
    rng = random.Random(seed)
    k = count // len(CLOSURE_OPS)
    plans = {op: iter(_pair_plan(rng, k) if op in PAIR_OPS else _level_plan(rng, k)) for op in CLOSURE_OPS}
    ops = list(CLOSURE_OPS) * k
    rng.shuffle(ops)
    out = []
    n_classify = 0
    for op in ops:
        plan = next(plans[op])
        if op in ("cmul", "cadd"):
            a, b = _elt(T, rng, plan[0]), _elt(T, rng, plan[1])
            over = T.join(a, b) is None
            args = [a, b]
        elif op in ("mmul", "conj"):
            M, N = T.random_sl2(rng, plan[0]), T.random_sl2(rng, plan[1])
            MN = T.mmul(M, N)
            over = MN is None or (op == "conj" and T.mmul(MN, T.sl2_inv(M)) is None)
            args = [M, N]
        elif op == "classify_jordan":
            M = T.random_sl2(rng, plan)
            if n_classify % 10 == 0:
                M = T.conjugate_by(M, (ONE, ONE, ZERO, ONE))  # a unipotent class
            n_classify += 1
            over = _eigen_overflow(T, M)
            args = [M]
        else:
            a = _elt(T, rng, plan, nonzero=op in ("cinv", "cpow", "corder"))
            over = False
            args = [a, rng.randrange(-(1 << 31), 1 << 31)] if op == "cpow" else [a]
        out.append([op, over, *args])
    return out


def query_level(q) -> int:
    """Highest level among a query's operand elements (a matrix operand
    is a list of four elements; an integer operand is an exponent)."""
    elts = [e for a in q[2:] if not isinstance(a, int) for e in (a if isinstance(a[0], (list, tuple)) else [a])]
    return max(e[0] for e in elts)


def _t(x):
    return tuple(map(tuple, x)) if isinstance(x[0], (list, tuple)) else tuple(x)


def check_closure(T: Tower, q, res) -> bool:
    """Check one answer with an identity that does not reuse the operation,
    or against the oracle's own arithmetic."""
    op, over, args = q[0], q[1], [_t(a) if isinstance(a, (list, tuple)) else a for a in q[2:]]
    if over:
        return res == ["!", "LevelOverflow"]
    if isinstance(res, list) and res[:1] == ["!"]:
        return False
    if op == "cmul":
        return _t(res) == T.cmul(*args)
    if op == "cadd":
        return _t(res) == T.cadd(*args)
    if op == "cinv":
        return T.cmul(args[0], _t(res)) == ONE
    if op == "csqrt":
        r = _t(res)
        return T.cmul(r, r) == args[0]
    if op == "cpow":
        return _t(res) == T.cpow(*args)
    if op == "corder":
        (n, x), d = args[0], res
        q1 = (1 << n) - 1
        if d < 1 or q1 % d or T.pow(n, x, d) != 1:
            return False
        return all(T.pow(n, x, d // p) != 1 for p in T.q1_primes(n) if d % p == 0)
    if op == "minimal_poly":
        a = args[0]
        return res.bit_length() - 1 == T.orbit_size(a) and T.poly_at(res, a) == 0
    if op == "mmul":
        R = _t(res)
        return R == T.mmul(*args) and T.det(R) == ONE
    if op == "conj":
        (M, g), R = args, _t(res)
        return T.det(R) == ONE and T.mmul(R, M) == T.mmul(M, g)
    if op == "classify_jordan":
        (M,), (kind, lam) = args, res
        t = T.trace(M)
        if M == (ONE, ZERO, ZERO, ONE):
            return kind == "identity" and lam is None
        if t == ZERO:
            return kind == "unipotent" and lam is None
        if kind != "split":
            return False
        lam = tuple(lam)
        if T.cadd(T.cmul(lam, lam), T.cmul(t, lam)) != ONE:  # lam^2 + t lam + 1 = 0
            return False
        other = T.cadd(lam, t)  # the second root, lam^(-1)
        return lam <= other
    raise ValueError(op)


# ---------------------------------------------------------------------------
# group-scan


def group_params(T: Tower, seed: int) -> dict:
    """Seeded elements for the group analyses: a diagonal and an upper
    unitriangular element of SL2(32) for the centralizers, and for each of
    levels 4 and 5 a diagonal diag(l, 1/l) with l at exactly that level,
    which with [[1,1],[0,1]] and [[1,0],[1,1]] generates the whole group
    (conjugating by it gives every unitriangular element)."""
    rng = random.Random(seed)
    lam = rng.randrange(2, 32)
    out = {"diag": [lam, T.inv(5, lam)], "uni": rng.randrange(1, 32)}
    for n in (4, 5):
        x = _full_elt(T, rng, n)[1]
        out[f"gen{n}"] = [x, T.inv(n, x)]
    return out


def _totient(m: int) -> int:
    for p in prime_factors(m):
        m -= m // p
    return m


def sl2_order_counts(n: int) -> dict[int, int]:
    """Element-order histogram of SL2(2^n): identity, q^2 - 1 involutions,
    phi(d) q (q+1)/2 elements of each order d > 1 dividing q - 1, and
    phi(d) q (q-1)/2 of each order d > 1 dividing q + 1."""
    q = 1 << n
    out = {1: 1, 2: q * q - 1} if n > 0 else {1: 1}
    for d in range(3, q + 2):
        if (q - 1) % d == 0:
            out[d] = _totient(d) * q * (q + 1) // 2
        elif (q + 1) % d == 0:
            out[d] = _totient(d) * q * (q - 1) // 2
    return out


def _sl2_order(n: int) -> int:
    q = 1 << n
    return q * (q * q - 1)


def group_expected() -> dict:
    """Known answers of the group-scan analyses, keyed like the worker's results."""
    family4 = (4 + 4) + (4 + 4) ** 2 + (4 + 4) ** 3  # base maps and their words up to depth 3
    return {
        "element_orders": {str(d): c for d, c in sorted(sl2_order_counts(5).items())},
        "ct_check_centralizers": True,
        "centralizer_bf/diag": 31,
        "centralizer_bf/uni": 32,
        "normalizer_bf/diag": 2 * 31,
        "normalizer_bf/uni": 32 * 31,
        "subgroup_generated/n4": _sl2_order(4),
        "subgroup_generated/n5": _sl2_order(5),
        "is_simple": True,
        "projective_action": [17, True, _sl2_order(4)],
        "replay_cohopf_skeleton": [family4, True],
        "field_endos": list(range(10)),
    }


# ---------------------------------------------------------------------------
# cli-oneshot

_BANDS = ((1, 12), (13, 20), (21, 30))


def _band_level(rng, i: int) -> int:
    lo, hi = _BANDS[i % len(_BANDS)]
    return rng.randint(lo, hi)


def _split_matrix(T: Tower, rng, n: int, lam: int):
    P = T.random_sl2(rng, n)
    D = (T.reduce(n, lam), ZERO, ZERO, T.reduce(n, T.inv(n, lam)))
    return T.conjugate_by(P, D)


def _field_cmd(T, rng, kind: str, i: int):
    n = _band_level(rng, i)
    x = rng.randrange(1, 1 << n)
    a = T.reduce(n, x)
    arg = f"0x{x:x}@{n}"
    if kind == "sqrt":
        out = lit(T.cpow(a, 1 << (a[0] - 1)))
    elif kind == "order":
        out = str(T.order(a))
    else:
        out = poly_text(T.minpoly(a))
    return ["field", kind, arg], out


def _eval_cmd(T, rng, i: int):
    """``A * B + C`` with operands at divisor-related levels of one band."""
    n = _band_level(rng, i)
    ms = [m for m in range(1, n + 1) if n % m == 0]
    a, b, c = (_elt(T, rng, rng.choice(ms), nonzero=True) for _ in range(3))
    val = T.cadd(T.cmul(a, b), c)
    return ["field", "eval", f"{lit(a)} * {lit(b)} + {lit(c)}"], lit(val)


def _jordan_cmd(T, rng, i: int):
    n = _band_level(rng, i)
    if n == 1 or i % 4 == 3:
        M = T.conjugate_by(T.random_sl2(rng, n), (ONE, ONE, ZERO, ONE))
        return ["mat", "jordan", mat_lit(M)], "Unipotent"
    lam = rng.randrange(2, 1 << n)
    pair = (T.reduce(n, lam), T.reduce(n, T.inv(n, lam)))
    return ["mat", "jordan", mat_lit(_split_matrix(T, rng, n, lam))], f"Split({lit(min(pair))})"


def _mat_order_cmd(T, rng, i: int):
    """Levels 2..6, so the iterated-product cross-check in morder stays short."""
    n = rng.randint(2, 6)
    lam = rng.randrange(2, 1 << n)
    return ["mat", "order", mat_lit(_split_matrix(T, rng, n, lam))], str(T.order(T.reduce(n, lam)))


def _normalize_cmd(T, rng, i: int):
    n = max(2, _band_level(rng, i))  # at level 1 every determinant is 0 or 1
    while True:
        X = tuple(_elt(T, rng, n) for _ in range(4))
        det = T.det(X)
        if det not in (ZERO, ONE):
            break
    s = T.cpow(T.cinv(det), 1 << (det[0] - 1))
    Y = tuple(T.cmul(s, e) for e in X)
    return ["mat", "normalize", mat_lit(X)], mat_lit(Y)


def _split_sl2(T, rng, n: int):
    while True:
        M = T.random_sl2(rng, n)
        if T.trace(M) != ZERO:
            return M


def _conj_test_cmd(T, rng, i: int):
    """Levels up to 15, so both eigenvalue levels stay inside the window."""
    n = rng.randint(2, 15)
    M = _split_sl2(T, rng, n)
    if i % 2 == 0:
        return ["mat", "conjugate-test", mat_lit(M), mat_lit(T.conjugate_by(T.random_sl2(rng, n), M))], "conjugate: true"
    while True:
        N = _split_sl2(T, rng, n)
        if T.trace(N) != T.trace(M):
            return ["mat", "conjugate-test", mat_lit(M), mat_lit(N)], "conjugate: false"


def _centralizer_cmd(T, rng, i: int):
    n = rng.randint(2, 15)
    if i % 2 == 0:
        return ["mat", "centralizer-descriptor", mat_lit(_split_sl2(T, rng, n))], "centralizer: k*"
    M = T.conjugate_by(T.random_sl2(rng, n), (ONE, ONE, ZERO, ONE))
    return ["mat", "centralizer-descriptor", mat_lit(M)], "centralizer: k+"


def cli_commands(T: Tower, seed: int) -> list[tuple[list[str], int, str]]:
    """51 one-shot commands as ``(argv after 'sl2bar', exit code, stdout)``."""
    rng = random.Random(seed)
    cmds: list[tuple[list[str], int, str]] = []

    def ok(argv_out):
        cmds.append((argv_out[0], 0, argv_out[1] + "\n"))

    for i in range(6):
        ok(_field_cmd(T, rng, "sqrt", i))
        ok(_field_cmd(T, rng, "order", i))
        ok(_eval_cmd(T, rng, i))
        ok(_jordan_cmd(T, rng, i))
    for i in range(4):
        ok(_field_cmd(T, rng, "minpoly", i))
    for i in range(3):
        ok(_mat_order_cmd(T, rng, i))
        ok(_normalize_cmd(T, rng, i))
    for i in range(2):
        ok(_conj_test_cmd(T, rng, i))
        ok(_centralizer_cmd(T, rng, i))
    # whole-group commands take no element input, so every seed runs the same ones
    ok((["field", "max-order-count", "8"], str(_totient(255))))
    for n in (2, 5):
        ok((["group", "enum", "--level", str(n)], f"order {_sl2_order(n)}"))
    ok((["group", "enum", "--level", "3", "--kind", "gl2"], f"order {63 * 56}"))
    ok((["group", "ct", "--level", "3"], "CT: holds"))
    ok((["group", "simple", "--level", "2"], "simple: true"))
    ok((["group", "gen", "--level", "3", "--gens", "swap-lower"], f"generates: true (order {_sl2_order(3)})"))
    ok((["group", "a5"], "points: 5\nfaithful: true\nimage order: 60\nall even: true"))

    # domain failures (exit 1): a join past N_MAX and a singular matrix
    m, n = rng.choice(_PAIRS_OVER)
    a, b = _full_elt(T, rng, m), _full_elt(T, rng, n)
    cmds.append((["field", "eval", f"{lit(a)} * {lit(b)}"], 1, ""))
    k = rng.randint(2, 30)
    a, b = _elt(T, rng, k, nonzero=True), _elt(T, rng, k, nonzero=True)
    cmds.append((["mat", "normalize", mat_lit((a, b, a, b))], 1, ""))
    # usage errors (exit 2): bad literals
    k = rng.randint(2, 30)
    cmds.append((["field", "sqrt", f"0x{rng.randrange(1 << k):x}g@{k}"], 2, ""))
    cmds.append((["field", "order", f"0x{1 << k:x}@{k}"], 2, ""))
    cmds.append((["mat", "jordan", f"[[{lit(ONE)},{lit(ZERO)}],[{lit(ONE)}]]"], 2, ""))
    rng.shuffle(cmds)
    return cmds

