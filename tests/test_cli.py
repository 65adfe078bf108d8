"""The command-line surface: outputs, exit codes, JSON round-trips."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from sl2bar import conway, gf2_field, gf2poly
from sl2bar.cli import eval_expr, main
from sl2bar.closure import ZERO, celt, cmul
from sl2bar.conway import ConwayTable, format_table
from sl2bar.errors import InvariantViolated, ParseError
from sl2bar.gf2_field import FieldElt, gen, inv


@pytest.fixture(autouse=True)
def _restore_table():
    yield
    conway.set_active_path(None)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out.rstrip("\n"), out.err.rstrip("\n")


def test_field_commands(capsys):
    assert run(capsys, "field", "sqrt", "0x2@2") == (0, "0x3@2", "")
    assert run(capsys, "field", "order", "0x2@2") == (0, "3", "")
    assert run(capsys, "field", "as-solve", "0x1@1") == (0, "none", "")
    assert run(capsys, "field", "as-solve", "0x1@2") == (0, "0x2@2", "")
    assert run(capsys, "field", "minpoly", "0x2@2") == (0, "x^2+x+1", "")
    assert run(capsys, "field", "max-order-count", "4") == (0, "8", "")
    code, out, _ = run(capsys, "field", "eval", "0x2@2 * 0x3@2")
    assert (code, out) == (0, "0x1@1")
    code, out, _ = run(capsys, "field", "eval", "(0x2@2 + 0x1@1)^2 / 0x2@2")
    assert code == 0 and out == str(cmul(cmul(celt(2, 3), celt(2, 3)), celt(2, 3)))


def test_a_wrong_product_trips_the_minimal_poly_guard(capsys, monkeypatch):
    # Level 25 has no log tables, so every power of the element goes
    # through the schoolbook product and its fold; one wrong bit in the fold
    # makes the first power relation no irreducible factor of x^(2^25) - x.
    monkeypatch.setattr(gf2_field, "pmod", lambda f, m: gf2poly.pmod(f, m) ^ 1)
    with pytest.raises(InvariantViolated):
        gf2_field.minimal_poly(FieldElt(25, 0x1234567))
    code, out, err = run(capsys, "field", "minpoly", "0x1234567@25")
    assert (code, out) == (1, "") and "InvariantViolated" in err and "Traceback" not in err


def test_max_order_count_at_the_log_table_bound(capsys):
    assert run(capsys, "field", "max-order-count", "20") == (0, "480000", "")
    code, _, err = run(capsys, "field", "max-order-count", "21")
    assert code == 1 and "BoundExceeded" in err


def test_expression_evaluator():
    assert eval_expr("0x2@2 ^ 3") == celt(1, 1)
    assert eval_expr("0x2@2 ^ -1") == celt(2, 3)
    assert eval_expr("0x2@2 + 0x2@3") == celt(6, 0b100110) or eval_expr("0x2@2 + 0x2@3").level == 6
    for bad in ("0x2@2 +", "0x2@2 ^ x", ")(", "0x2@2 $ 0x1@1"):
        with pytest.raises(ParseError):
            eval_expr(bad)
    assert eval_expr("0x2@2 + 0x2@2") == ZERO


@pytest.mark.parametrize("depth", [300, 1000])
def test_deep_nesting_is_a_parse_error(capsys, depth):
    expr = "(" * depth + "0x1@1" + ")" * depth
    with pytest.raises(ParseError, match="nested too deeply"):
        eval_expr(expr)
    code, _, err = run(capsys, "field", "eval", expr)
    assert code == 2 and "nested too deeply" in err


def test_mat_commands(capsys):
    assert run(capsys, "mat", "jordan", "[[0x1@1,0x1@1],[0x0@1,0x1@1]]") == (0, "Unipotent", "")
    assert run(capsys, "mat", "jordan", "[[0x1@1,0x0@1],[0x0@1,0x1@1]]") == (0, "Identity", "")
    code, out, _ = run(capsys, "mat", "jordan", "[[0x2@2,0x0@2],[0x0@2,0x3@2]]")
    assert (code, out) == (0, "Split(0x2@2)")
    assert run(capsys, "mat", "order", "[[0x2@2,0x0@2],[0x0@2,0x3@2]]") == (0, "3", "")
    code, out, _ = run(capsys, "mat", "centralizer-descriptor", "[[0x1@1,0x1@1],[0x0@1,0x1@1]]")
    assert (code, out) == (0, "centralizer: k+")
    code, out, _ = run(capsys, "mat", "centralizer-descriptor", "[[0x2@2,0x0@2],[0x0@2,0x3@2]]")
    assert (code, out) == (0, "centralizer: k*")
    code, out, _ = run(
        capsys, "mat", "conjugate-test", "[[0x2@2,0x0@2],[0x0@2,0x3@2]]", "[[0x3@2,0x0@2],[0x0@2,0x2@2]]"
    )
    assert (code, out) == (0, "conjugate: true")
    code, out, _ = run(capsys, "mat", "normalize", "[[0x2@2,0x0@2],[0x0@2,0x2@2]]")
    assert (code, out) == (0, "[[0x1@1,0x0@1],[0x0@1,0x1@1]]")


def test_group_commands(capsys):
    assert run(capsys, "group", "enum", "--level", "2") == (0, "order 60", "")
    assert run(capsys, "group", "ct", "--level", "3")[0:2] == (0, "CT: holds")
    code, out, _ = run(capsys, "group", "ct", "--level", "2", "--kind", "gl2")
    assert code == 0 and out.startswith("CT: fails\nwitness: ")
    assert run(capsys, "group", "simple", "--level", "2") == (0, "simple: true", "")
    assert run(capsys, "group", "simple", "--level", "1") == (0, "simple: false", "")
    code, out, _ = run(capsys, "group", "gen", "--level", "2")
    assert (code, out) == (0, "generates: true (order 60)")
    code, out, _ = run(capsys, "group", "gen", "--level", "2", "--gens", "swap-lower")
    assert (code, out) == (0, "generates: true (order 60)")
    code, out, _ = run(capsys, "group", "a5", "--level", "2")
    assert code == 0 and "image order: 60" in out and "all even: true" in out


def test_group_simple_runs_at_the_top_level(capsys):
    # no element bound stands between is_simple and SL2(32)
    assert run(capsys, "group", "simple", "--level", "5") == (0, "simple: true", "")


def test_exit_codes(capsys):
    code, _, err = run(capsys, "field", "order", "0xZZ@2")
    assert code == 2 and "0xZZ@2" in err
    code, _, err = run(capsys, "mat", "order", "[[0x2@2,0x0@2],[0x0@2,0x2@2]]")
    assert code == 1 and "NonUnitDeterminant" in err
    code, _, err = run(capsys, "group", "enum", "--level", "7")
    assert code == 1 and "BoundExceeded" in err
    code, _, err = run(capsys, "field", "order", "0x0@1")
    assert code == 1 and "DivisionByZero" in err
    digits = "1" * 5000  # past int()'s default limit on decimal digits
    for argv, token in [
        (("field", "eval", "0x2@2^²"), "²"),
        (("field", "eval", "0x2@2^٣"), "٣"),  # an Arabic-Indic 3
        (("field", "eval", f"0x2@2^{digits}"), digits),
        (("field", "order", f"0x2@{digits}"), digits),
        (("mat", "order", f"[[0x1@{digits},0x0@1],[0x0@1,0x1@1]]"), digits),
    ]:
        code, _, err = run(capsys, *argv)
        assert code == 2 and token in err, argv[:2]
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--max-level", "9"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_json_round_trip(capsys):
    cases = [
        ("field", "order", "0x2@2", "--json"),
        ("field", "as-solve", "0x1@1", "--json"),
        ("field", "minpoly", "0x2@3", "--json"),
        ("mat", "jordan", "[[0x2@2,0x0@2],[0x0@2,0x3@2]]", "--json"),
        ("group", "enum", "--level", "2", "--json"),
        ("group", "ct", "--level", "2", "--kind", "gl2", "--json"),
        ("group", "a5", "--level", "2", "--json"),
        ("verify", "--max-level", "2", "--filter", "c14", "--json"),
    ]
    for argv in cases:
        code, out, _ = run(capsys, *argv)
        assert code == 0
        parsed = json.loads(out)
        assert json.dumps(parsed, separators=(",", ":")) == out  # byte-for-byte round trip
        assert "." not in json.dumps(parsed)  # no floating point anywhere


def test_verify_command(capsys):
    code, out, _ = run(capsys, "verify", "--max-level", "2", "--filter", "c03")
    assert code == 0
    assert "PASS c03-prop3/diag-centralizer/n2" in out
    assert "SKIP c03-prop3/diag-centralizer/n3" in out
    assert out.splitlines()[-1].startswith("summary:")
    code, out, _ = run(capsys, "verify", "--max-level", "2", "--filter", "prop3")
    assert code == 0 and "c03-prop3" in out
    code, out, _ = run(capsys, "verify", "--max-level", "2", "--filter", "no-such-check")
    assert code == 0 and out.startswith("summary: 0 passed")


def test_verify_failure_exits_one(capsys, monkeypatch):
    from sl2bar import verify

    def fake_checks():
        return [
            verify.Check("c99-demo/pass", 1, 2, lambda: None),
            verify.Check("c99-demo/fail", 1, 2, lambda: (_ for _ in ()).throw(verify.CheckFailure("boom"))),
        ]

    monkeypatch.setattr(verify, "build_checks", fake_checks)
    code, out, _ = run(capsys, "verify", "--max-level", "2")
    assert code == 1
    assert "FAIL c99-demo/fail" in out
    assert out.splitlines()[-1] == "first failure: c99-demo/fail"
    code, out, _ = run(capsys, "verify", "--max-level", "2", "--json")
    assert code == 1
    parsed = json.loads(out)
    assert parsed["summary"] == {"pass": 1, "fail": 1, "skipped": 0}


def test_verify_report_key_order(capsys):
    code, out, _ = run(capsys, "verify", "--max-level", "2", "--filter", "c14-artin-schreier/n1", "--json")
    assert code == 0
    parsed = json.loads(out)
    assert list(parsed.keys()) == ["checks", "summary"]
    assert list(parsed["checks"][0].keys()) == ["name", "level", "status", "witness", "millis"]
    assert list(parsed["summary"].keys()) == ["pass", "fail", "skipped"]


def test_conway_file_flag_and_env(capsys, tmp_path, monkeypatch):
    table = conway.get_active()
    short = ConwayTable(table.polys[:8])
    path = tmp_path / "short.txt"
    path.write_text(format_table(short), encoding="ascii")

    code, out, _ = run(capsys, "--conway-file", str(path), "field", "order", "0x2@2")
    assert (code, out) == (0, "3")
    # the short table has no level 9
    code, _, err = run(capsys, "--conway-file", str(path), "field", "sqrt", "0x2@9")
    assert code == 1 and "BoundExceeded" in err

    monkeypatch.setenv(conway.ENV_TABLE_PATH, str(path))
    conway.set_active_path(None)
    code, _, err = run(capsys, "field", "sqrt", "0x2@9")
    assert code == 1

    bad = tmp_path / "bad.txt"
    bad.write_text("1:3\n2:5\n", encoding="ascii")  # x^2+1 is reducible
    code, _, err = run(capsys, "--conway-file", str(bad), "field", "order", "0x2@2")
    assert code == 1 and "not irreducible" in err


def test_negative_table_mask_is_a_usage_error(tmp_path):
    path = tmp_path / "negative.txt"
    path.write_text("1:3\n2:-7\n", encoding="ascii")
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    env.pop(conway.ENV_TABLE_PATH, None)
    done = subprocess.run(
        [sys.executable, "-m", "sl2bar", "--conway-file", str(path), "field", "order", "0x2@2"],
        env=env, capture_output=True, text=True, timeout=20,
    )
    assert done.returncode == 2, done.stderr
    assert f"{path}:2" in done.stderr and "Traceback" not in done.stderr


def _unreadable_table(tmp_path, how):
    if how == "missing":
        return tmp_path / "no-such-table.txt"
    if how == "directory":
        return tmp_path
    path = tmp_path / "latin1.txt"
    path.write_bytes("1:3\n# caf\u00e9\n".encode("latin-1"))
    return path


@pytest.mark.parametrize("how", ["missing", "directory", "not-ascii"])
def test_unreadable_table_file_is_a_usage_error(tmp_path, how):
    path = str(_unreadable_table(tmp_path, how))
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    env.pop(conway.ENV_TABLE_PATH, None)
    for extra_env, argv in (
        ({}, ["--conway-file", path, "field", "order", "0x2@2"]),
        ({conway.ENV_TABLE_PATH: path}, ["group", "enum", "--level", "2"]),
        ({conway.ENV_TABLE_PATH: path}, ["verify", "--max-level", "2"]),
    ):
        done = subprocess.run(
            [sys.executable, "-m", "sl2bar", *argv], env={**env, **extra_env}, capture_output=True, text=True
        )
        assert done.returncode == 2, (argv, done.stderr)
        assert path in done.stderr and "Traceback" not in done.stderr
        assert done.stdout == ""


# Runs each argv through sl2bar.cli.main in one fresh interpreter and
# prints [exit code, stdout] per command, then whether numpy got imported.
_IN_FRESH_PROCESS = """
import contextlib, io, json, sys
from sl2bar.cli import main
results = []
for argv in json.loads(sys.argv[1]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        results.append([main(argv), out.getvalue()])
print(json.dumps({"results": results, "numpy": "numpy" in sys.modules}))
"""


def _in_fresh_process(argvs):
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    env.pop(conway.ENV_TABLE_PATH, None)
    done = subprocess.run(
        [sys.executable, "-c", _IN_FRESH_PROCESS, json.dumps(argvs)], env=env, capture_output=True, text=True, check=True
    )
    return json.loads(done.stdout)


def test_field_and_mat_commands_never_import_numpy():
    argvs, expected = [], []
    for n in (3, 16, 25):
        g, g_inv, x = f"0x2@{n}", str(inv(gen(n))), f"0x{(1 << n) - 3:x}@{n}"
        split = f"[[{g},0x1@1],[0x0@1,{g_inv}]]"
        argvs += [
            ["field", "eval", f"({g} + {x}) * {g} ^ -1"],
            ["field", "order", g],
            ["field", "minpoly", x],
            ["field", "sqrt", x],
            ["field", "as-solve", x],
            ["mat", "jordan", split],
            ["mat", "order", split],
            ["mat", "normalize", f"[[{g},0x1@1],[0x0@1,0x1@1]]"],
            ["mat", "conjugate-test", split, f"[[{g},0x0@1],[0x0@1,{g_inv}]]"],
            ["mat", "centralizer-descriptor", split],
        ]
        expected += [0] * 10
    argvs += [["field", "max-order-count", str(n)] for n in (3, 8, 16)]
    expected += [0] * 3
    argvs.append(["field", "order", "0xZZ@3"])
    expected.append(2)
    got = _in_fresh_process(argvs)
    assert [code for code, _ in got["results"]] == expected
    orders = [out for argv, (_, out) in zip(argvs, got["results"]) if argv[:2] == ["mat", "order"]]
    assert orders == [f"{(1 << n) - 1}\n" for n in (3, 16, 25)]
    counts = [out for argv, (_, out) in zip(argvs, got["results"]) if argv[1] == "max-order-count"]
    assert counts == [f"{gf2poly.totient((1 << n) - 1)}\n" for n in (3, 8, 16)] == ["6\n", "128\n", "32768\n"]
    assert not got["numpy"]


# Imports one module in an interpreter that has imported nothing of its
# own before, and prints which of the watched modules got loaded.
_IMPORT_FOOTPRINT = """
import importlib, sys
importlib.import_module(sys.argv[1])
print(",".join(m for m in sys.argv[2:] if m in sys.modules))
"""


@pytest.mark.parametrize(
    "module, absent",
    [("sl2bar.cli", ["dataclasses", "inspect", "json", "numpy"]), ("sl2bar.verify", ["dataclasses"])],
)
def test_import_footprint(module, absent):
    # Every command pays for what `sl2bar.cli` imports before it runs:
    # `dataclasses` drags in `inspect`, `ast` and `dis`, `json` serves
    # only --json, and numpy only the group engine.  numpy itself loads
    # `inspect`, so below the group layers only `dataclasses` is watched.
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run(
        [sys.executable, "-c", _IMPORT_FOOTPRINT, module, *absent], env=env, capture_output=True, text=True, check=True
    )
    assert done.stdout.strip() == ""


# numpy's hash-based unique (a plain np.unique, and np.intersect1d through
# it) calls np.ma.is_masked, so its first call in a process imports
# numpy.ma: 5.8 ms of a fresh interpreter that no group analysis needs.
# The sort path (return_index, return_counts) imports nothing.  Runs the
# group analyses, two group commands and the level-5 suite in one fresh
# interpreter and prints the exit codes, the suite's failures and whether
# numpy.ma got loaded.
_MASKED_ARRAYS_FOOTPRINT = """
import contextlib, io, sys
from sl2bar import finite_engine as fe, verify
from sl2bar.cli import main
from sl2bar.sl2_core import SubsetName
G = fe.enumerate_group(5)
G.element_orders()
fe.normalizer_bf(G, fe.named_subgroup(G, SubsetName.UPPER_UNI))
fe.subgroup_generated(G, fe.generator_set(G, "swap-lower"))
fe.projective_action(fe.enumerate_group(4)).image_order()
with contextlib.redirect_stdout(io.StringIO()):
    codes = [main(["group", "ct", "--level", "3"]), main(["group", "a5"])]
failed = [r.name for r in verify.run_suite(5).checks if r.status != "pass"]
print(codes, failed, "numpy.ma" in sys.modules)
"""


def test_group_analyses_never_import_numpy_ma():
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    env.pop(conway.ENV_TABLE_PATH, None)
    done = subprocess.run([sys.executable, "-c", _MASKED_ARRAYS_FOOTPRINT], env=env, capture_output=True, text=True, check=True)
    assert done.stdout.strip() == "[0, 0] [] False"


def test_group_commands_still_load_the_group_engine():
    got = _in_fresh_process([["group", "enum", "--level", "2"]])
    assert got["results"] == [[0, "order 60\n"]]
    assert got["numpy"]


# Runs one group command in a fresh interpreter and prints its exit code,
# the OPENBLAS_NUM_THREADS it ended with, and how many OS threads the
# process has left (-1 where /proc/self/task is absent).
_BLAS_THREADS = """
import contextlib, io, os
from sl2bar.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(["group", "enum", "--level", "2"])
task = "/proc/self/task"
print(code, os.environ.get("OPENBLAS_NUM_THREADS"), len(os.listdir(task)) if os.path.isdir(task) else -1)
"""


@pytest.mark.parametrize("given", [None, "2"])
def test_group_commands_leave_no_blas_pool_thread(given):
    # numpy's OpenBLAS pool thread busy-waits on a second core, and the
    # package makes no BLAS call: main caps it at one thread unless the
    # user chose a value, which it keeps
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    env.pop("OPENBLAS_NUM_THREADS", None)
    if given is not None:
        env["OPENBLAS_NUM_THREADS"] = given
    done = subprocess.run([sys.executable, "-c", _BLAS_THREADS], env=env, capture_output=True, text=True, check=True)
    code, value, threads = done.stdout.split()
    assert (code, value) == ("0", given or "1")
    if given is None:
        if threads == "-1":
            pytest.skip("no /proc/self/task to count threads")
        assert threads == "1"
