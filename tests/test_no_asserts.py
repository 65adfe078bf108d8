"""No verdict may rest on `assert`: ``python -O`` strips them.  Library
functions compute and the verify registry checks, so every library
self-check that remains is listed here with the reason it stays.  Reports
carry integers only, so the package never divides with `/`.  Every public
library name has a caller in the package, the benchmark or the scripts,
and every private helper one in the package.  The package makes no plain
numpy set operation: membership vectors answer the same questions."""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PKG = ROOT / "src" / "sl2bar"


def test_package_has_no_assert_statements():
    found = []
    for path in sorted(PKG.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert found == []


# (module, enclosing function) of every `raise InvariantViolated` outside
# verify.py.  Each guards a result that no registry check compares on the
# same inputs, or is a check procedure that the registry itself calls.
KEPT_SELF_CHECKS = {
    # results that leave through the CLI
    ("gf2_field", "trace_abs"),
    ("gf2_field", "minimal_poly"),
    ("sl2_core", "classify_jordan"),
    # a constructor invariant: the witness leaves through `group ct`
    ("finite_engine", "CtReport.__init__"),
    # a guard against scanning past the group order
    ("finite_engine", "GroupTable.element_orders"),
    # check procedures that the registry calls
    ("finite_engine", "ct_check_centralizers"),
    ("finite_engine", "maximal_abelian_subgroups"),
    ("endo", "_check_base_map"),
    ("endo", "_check_frobenius_rows"),
    ("endo", "ReplayFrame.__init__"),
}


def _raised_name(node: ast.Raise) -> str | None:
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    return exc.id if isinstance(exc, ast.Name) else None


def _self_check_sites(tree: ast.AST, scope: str = ""):
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from _self_check_sites(node, f"{scope}.{node.name}" if scope else node.name)
        elif isinstance(node, ast.Raise) and _raised_name(node) == "InvariantViolated":
            yield scope
        else:
            yield from _self_check_sites(node, scope)


def test_library_self_checks_are_the_listed_ones():
    found = set()
    for path in sorted(PKG.glob("*.py")):
        if path.name == "verify.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found |= {(path.stem, scope) for scope in _self_check_sites(tree)}
    assert found == KEPT_SELF_CHECKS


def test_package_has_no_true_division():
    found = []
    for path in sorted(PKG.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div)
        ]
    assert found == []


# numpy set routines with no index to return: a plain np.unique takes the
# hash path, which imports numpy.ma, and the others are built on it or on
# sorting.  np.unique asked for first indices, inverses or counts sorts.
SET_OPERATIONS = {"intersect1d", "setdiff1d", "union1d", "isin", "in1d"}
INDEX_KEYWORDS = {"return_index", "return_inverse", "return_counts"}


def test_package_makes_no_plain_set_operation():
    found = []
    for path in sorted(PKG.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
                continue
            if not (isinstance(node.func.value, ast.Name) and node.func.value.id == "np"):
                continue
            name = node.func.attr
            if name in SET_OPERATIONS or (name == "unique" and not INDEX_KEYWORDS & {kw.arg for kw in node.keywords}):
                found.append(f"{path.name}:{node.lineno}: np.{name}")
    assert found == []


def _references(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name.rsplit(".", 1)[-1]


def _defs(tree: ast.Module):
    """Top-level functions and classes, and the methods of top-level
    classes, as (qualified name, node)."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for sub in node.body:
                if isinstance(sub, ast.FunctionDef):
                    yield f"{node.name}.{sub.name}", sub


def _unreferenced(folders, wanted):
    """The package's definitions for which wanted(node) holds and that no
    code in the folders names outside their own bodies."""
    trees = {
        path: ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for folder in folders
        for path in sorted((ROOT / folder).rglob("*.py"))
    }
    total = Counter(name for tree in trees.values() for name in _references(tree))
    return [
        f"{path.stem}.{qualname}"
        for path, tree in trees.items()
        if path.parent == PKG
        for qualname, node in _defs(tree)
        if wanted(node) and total[node.name] == Counter(_references(node))[node.name]
    ]


def test_every_public_library_name_has_a_caller():
    assert _unreferenced(("src", "perfbench", "scripts"), lambda node: not node.name.startswith("_")) == []


def test_every_private_helper_has_a_caller_in_the_package():
    # private functions and methods, dunders excepted: tests alone do not keep one
    def private(node):
        return isinstance(node, ast.FunctionDef) and node.name.startswith("_") and not node.name.endswith("__")

    assert _unreferenced(("src",), private) == []
