"""No verdict may rest on `assert`: ``python -O`` strips them."""

import ast
from pathlib import Path

PKG = Path(__file__).resolve().parent.parent / "src" / "sl2bar"


def test_package_has_no_assert_statements():
    found = []
    for path in sorted(PKG.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert found == []
