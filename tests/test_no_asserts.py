"""No verdict may rest on `assert`: ``python -O`` strips them.  Library
functions compute and the verify registry checks, so every library
self-check that remains is listed here with the reason it stays."""

import ast
from pathlib import Path

PKG = Path(__file__).resolve().parent.parent / "src" / "sl2bar"


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
    # helpers no registry check covers
    ("sl2_core", "involution_params"),
    ("sl2_core", "commute_after_diag_twist"),
    ("sl2_core", "lt_conjugation_scaling"),
    ("finite_engine", "SubgroupRef.validate"),
    # a constructor invariant: the witness leaves through `group ct`
    ("finite_engine", "CtReport.__post_init__"),
    # a guard against scanning past the group order
    ("finite_engine", "GroupTable.element_orders"),
    # check procedures that the registry calls
    ("finite_engine", "ct_check_centralizers"),
    ("finite_engine", "maximal_abelian_subgroups"),
    ("endo", "_check_base_map"),
    ("endo", "replay_cohopf_skeleton"),
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
