"""Count source lines of each module under src/sl2bar/.

Prints, per module and in total, the raw line count and the logical line
count.  A logical line is a physical line that carries code: blank lines,
comment-only lines and the lines of docstrings (a string literal standing
alone as the first statement of a module, class or function) are left out.

    python3 scripts/sloc.py            # the package next to this script
    python3 scripts/sloc.py PATH/TO/PKG
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}


def _docstring_lines(tree: ast.Module) -> set[int]:
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) and isinstance(first.value.value, str):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(source: str) -> tuple[int, int]:
    """(raw, logical) line counts of one module's source."""
    doc = _docstring_lines(ast.parse(source))
    code: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _SKIP:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(source.splitlines()), len(code - doc)


def main(argv: list[str]) -> int:
    pkg = Path(argv[1]) if len(argv) > 1 else Path(__file__).resolve().parent.parent / "src" / "sl2bar"
    total_raw = total_logical = 0
    print(f"{'module':<20} {'raw':>6} {'logical':>8}")
    for path in sorted(pkg.glob("*.py")):
        raw, logical = count(path.read_text(encoding="utf-8"))
        total_raw += raw
        total_logical += logical
        print(f"{path.name:<20} {raw:>6} {logical:>8}")
    print(f"{'total':<20} {total_raw:>6} {total_logical:>8}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
