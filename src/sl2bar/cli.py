"""Command-line surface.

Four subcommands: ``field`` for element queries, ``mat`` for matrix
queries, ``group`` for whole-group analyses, and ``verify`` for the full
check suite.  Every subcommand takes ``--json`` for machine-readable
output; JSON is emitted compactly with a fixed key order and contains no
floating point, so parse-and-redump round-trips byte for byte.

Exit codes: 0 on success, 1 on a verification or domain failure (for
example a matrix without determinant one where one is required), 2 on a
usage or parse error (the message names the offending token).

The modulus table can be overridden with ``--conway-file PATH`` or the
SL2BAR_CONWAY_PATH environment variable; the flag wins.

``main`` sets OPENBLAS_NUM_THREADS to 1 when it is unset, before numpy
loads: the package makes no BLAS call, and numpy's OpenBLAS pool thread
would otherwise busy-wait on a second core through every group command.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import closure, conway, gf2poly, sl2_core as sl
from .closure import ClosureElt, cadd, cinv, cmul, cpow
from .errors import ParseError, Sl2BarError
from .gf2_field import check_level, minimal_poly


def _emit(args, obj: dict, text: str) -> None:
    if getattr(args, "json", False):
        import json  # only --json needs it

        print(json.dumps(obj, separators=(",", ":")))
    else:
        print(text)


# ---------------------------------------------------------------------------
# a tiny expression grammar for `field eval`:
#   expr   := term ('+' term)*
#   term   := factor (('*' | '/') factor)*
#   factor := atom ('^' ['-'] INT)?
#   atom   := ELEMENT_LITERAL | '(' expr ')'


def _tokenize(text: str) -> list[str]:
    out = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
        elif ch in "+*/^()-":
            out.append(ch)
            i += 1
        else:
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] == "@"):
                j += 1
            if j == i:
                raise ParseError(f"bad token {text[i:]!r} in expression")
            out.append(text[i:j])
            i = j
    return out


class _ExprParser:
    def __init__(self, tokens: list[str]):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> str | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self) -> str:
        tok = self.peek()
        if tok is None:
            raise ParseError("unexpected end of expression")
        self.pos += 1
        return tok

    def parse(self) -> ClosureElt:
        val = self.expr()
        if self.peek() is not None:
            raise ParseError(f"unexpected token {self.peek()!r}")
        return val

    def expr(self) -> ClosureElt:
        val = self.term()
        while self.peek() == "+":
            self.take()
            val = cadd(val, self.term())
        return val

    def term(self) -> ClosureElt:
        val = self.factor()
        while self.peek() in ("*", "/"):
            if self.take() == "*":
                val = cmul(val, self.factor())
            else:
                val = cmul(val, cinv(self.factor()))
        return val

    def factor(self) -> ClosureElt:
        val = self.atom()
        if self.peek() == "^":
            self.take()
            sign = 1
            if self.peek() == "-":
                self.take()
                sign = -1
            tok = self.take()
            if not (tok.isascii() and tok.isdigit()):  # str.isdigit alone takes '²' and other scripts' digits
                raise ParseError(f"bad exponent {tok!r}")
            try:
                e = int(tok)
            except ValueError:  # more digits than int() converts
                raise ParseError(f"bad exponent {tok!r}: too many digits") from None
            val = cpow(val, sign * e)
        return val

    def atom(self) -> ClosureElt:
        tok = self.take()
        if tok == "(":
            val = self.expr()
            if self.take() != ")":
                raise ParseError("unbalanced parenthesis in expression")
            return val
        return closure.parse(tok)


def eval_expr(text: str) -> ClosureElt:
    try:
        return _ExprParser(_tokenize(text)).parse()
    except RecursionError:
        raise ParseError("expression nested too deeply") from None


# ---------------------------------------------------------------------------
# subcommand handlers


def _cmd_field(args) -> int:
    if args.subcommand == "eval":
        val = eval_expr(args.expr)
        _emit(args, {"result": str(val)}, str(val))
    elif args.subcommand == "order":
        val = closure.parse(args.elt)
        d = closure.corder(val)
        _emit(args, {"order": d}, str(d))
    elif args.subcommand == "minpoly":
        val = closure.parse(args.elt)
        f = minimal_poly(val.elt)
        _emit(args, {"degree": f.degree, "mask": f"0x{f.mask:x}", "text": str(f)}, str(f))
    elif args.subcommand == "sqrt":
        val = closure.csqrt(closure.parse(args.elt))
        _emit(args, {"result": str(val)}, str(val))
    elif args.subcommand == "as-solve":
        from .gf2_field import artin_schreier_solve, parse_elt

        z = artin_schreier_solve(parse_elt(args.elt))
        _emit(args, {"solution": None if z is None else str(z)}, "none" if z is None else str(z))
    elif args.subcommand == "max-order-count":
        n = check_level(args.level)
        conway.get_active()  # an unreadable table is a usage error here too, though the count reads no modulus
        count = gf2poly.totient((1 << n) - 1)  # the primitive elements of GF(2^n)
        _emit(args, {"level": n, "count": count}, str(count))
    return 0


def _cmd_mat(args) -> int:
    if args.subcommand == "jordan":
        k = sl.classify_jordan(sl.parse_mat(args.mat))
        obj = {"class": k.kind, "lambda": None if k.lam is None else str(k.lam)}
        _emit(args, obj, str(k))
    elif args.subcommand == "order":
        d = sl.morder(sl.parse_mat(args.mat))
        _emit(args, {"order": d}, str(d))
    elif args.subcommand == "centralizer-descriptor":
        M = sl.parse_mat(args.mat)
        k = sl.classify_jordan(M)
        desc = {"identity": "G", "unipotent": "k+", "split": "k*"}[k.kind]
        _emit(args, {"centralizer": desc}, f"centralizer: {desc}")
    elif args.subcommand == "conjugate-test":
        same = sl.are_conjugate(sl.parse_mat(args.mat), sl.parse_mat(args.mat2))
        _emit(args, {"conjugate": same}, f"conjugate: {'true' if same else 'false'}")
    elif args.subcommand == "normalize":
        Y = sl.normalize_to_sl2(sl.parse_mat(args.mat))
        _emit(args, {"result": str(Y)}, str(Y))
    return 0


def _cmd_group(args) -> int:
    from . import finite_engine as fe  # numpy, which only the group layers need

    G = fe.enumerate_group(args.level, args.kind)
    if args.subcommand == "enum":
        _emit(args, {"kind": G.kind, "level": G.level, "order": len(G)}, f"order {len(G)}")
    elif args.subcommand == "ct":
        rep = fe.ct_check_centralizers(G)
        obj = {"kind": G.kind, "level": G.level}
        obj.update(rep.to_json())
        if rep.holds:
            _emit(args, obj, "CT: holds")
        else:
            lits = " ".join(rep.witness_literals())
            _emit(args, obj, f"CT: fails\nwitness: {lits}")
    elif args.subcommand == "simple":
        simple = fe.is_simple(G)
        _emit(args, {"kind": G.kind, "level": G.level, "simple": simple}, f"simple: {'true' if simple else 'false'}")
    elif args.subcommand == "gen":
        got = fe.subgroup_generated(G, fe.generator_set(G, args.gens))
        full = got.size == len(G)
        obj = {"kind": G.kind, "level": G.level, "generators": args.gens, "generates": full, "order": got.size}
        _emit(args, obj, f"generates: {'true' if full else 'false'} (order {got.size})")
    elif args.subcommand == "a5":
        pa = fe.projective_action(G)
        obj = {
            "level": G.level,
            "points": pa.n_points,
            "faithful": pa.is_faithful(),
            "image_order": pa.image_order(),
            "all_even": pa.all_even(),
        }
        text = (
            f"points: {obj['points']}\n"
            f"faithful: {'true' if obj['faithful'] else 'false'}\n"
            f"image order: {obj['image_order']}\n"
            f"all even: {'true' if obj['all_even'] else 'false'}"
        )
        _emit(args, obj, text)
    return 0


def _cmd_verify(args) -> int:
    from . import verify

    conway.get_active()  # a bad table file is one usage error, not a failure of every check
    report = verify.run_suite(max_level=args.max_level, name_filter=args.filter)
    if args.json:
        import json

        print(json.dumps(report.to_json(), separators=(",", ":")))
    else:
        for c in report.checks:
            if c.status == "skipped":
                print(f"SKIP {c.name} (level {c.level}): {c.witness['reason']}")
            elif c.status == "pass":
                print(f"PASS {c.name} (level {c.level}, {c.millis} ms)")
            else:
                print(f"FAIL {c.name} (level {c.level}, {c.millis} ms): {c.witness}")
        s = report.summary
        print(f"summary: {s['pass']} passed, {s['fail']} failed, {s['skipped']} skipped")
        if not report.ok:
            first = next(c for c in report.checks if c.status == "fail")
            print(f"first failure: {first.name}")
    return 0 if report.ok else 1


# ---------------------------------------------------------------------------
# parser assembly


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="sl2bar", description="Exact binary-field tower and matrix group toolkit.")
    p.add_argument("--conway-file", metavar="PATH", default=None, help="override the built-in modulus table")
    sub = p.add_subparsers(dest="command", required=True)

    f = sub.add_parser("field", help="field element queries")
    fsub = f.add_subparsers(dest="subcommand", required=True)
    for name, arg, help_ in [
        ("eval", "expr", "evaluate an expression of element literals (+ * / ^ and parentheses)"),
        ("order", "elt", "multiplicative order of a nonzero element"),
        ("minpoly", "elt", "minimal polynomial over the 2-element field"),
        ("sqrt", "elt", "the unique square root"),
        ("as-solve", "elt", "some z with z^2 + z equal to the element, or none"),
    ]:
        sp = fsub.add_parser(name, help=help_)
        sp.add_argument(arg)
        sp.add_argument("--json", action="store_true")
    sp = fsub.add_parser("max-order-count", help="count of maximal-order elements at a level")
    sp.add_argument("level", type=int)
    sp.add_argument("--json", action="store_true")

    m = sub.add_parser("mat", help="matrix queries")
    msub = m.add_subparsers(dest="subcommand", required=True)
    for name, help_ in [
        ("jordan", "conjugacy class: Identity, Unipotent, or Split(lambda)"),
        ("order", "order of a determinant-one matrix"),
        ("centralizer-descriptor", "isomorphism type of the centralizer: G, k+, or k*"),
        ("normalize", "scale a nonsingular matrix to determinant one"),
    ]:
        sp = msub.add_parser(name, help=help_)
        sp.add_argument("mat")
        sp.add_argument("--json", action="store_true")
    sp = msub.add_parser("conjugate-test", help="are two determinant-one matrices conjugate?")
    sp.add_argument("mat")
    sp.add_argument("mat2")
    sp.add_argument("--json", action="store_true")

    g = sub.add_parser("group", help="whole-group analyses")
    gsub = g.add_subparsers(dest="subcommand", required=True)
    for name, help_ in [
        ("enum", "enumerate the group and print its order"),
        ("ct", "commutation-transitivity check"),
        ("simple", "simplicity check"),
        ("gen", "does a named generating set generate the whole group?"),
        ("a5", "projective-line action summary"),
    ]:
        sp = gsub.add_parser(name, help=help_)
        sp.add_argument("--level", type=int, required=(name != "a5"), default=2 if name == "a5" else None)
        sp.add_argument("--kind", choices=[sl.KIND_SL2, sl.KIND_GL2], default=sl.KIND_SL2)
        if name == "gen":
            sp.add_argument("--gens", choices=sl.GENERATOR_SETS, default="involutions")
        sp.add_argument("--json", action="store_true")

    v = sub.add_parser("verify", help="run the verification suite")
    v.add_argument("--max-level", type=int, choices=[2, 3, 4, 5], default=3)
    v.add_argument("--filter", metavar="NAME", default=None, help="run only checks whose name contains NAME")
    v.add_argument("--json", action="store_true")

    return p


def main(argv=None) -> int:
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")  # see the module docstring
    args = build_parser().parse_args(argv)
    conway.set_active_path(args.conway_file)
    try:
        if args.command == "field":
            return _cmd_field(args)
        if args.command == "mat":
            return _cmd_mat(args)
        if args.command == "group":
            return _cmd_group(args)
        return _cmd_verify(args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Sl2BarError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
