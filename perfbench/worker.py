"""One fresh interpreter running one workload round, started by run.py.

    python perfbench/worker.py round < job.json
    python perfbench/worker.py cli ARGV...

``round`` reads a job from stdin, imports sl2bar, loads the modulus table,
builds the inputs and runs the warm-up, then prints ``READY`` with its
set-up timings.  Unless the job is a set-up probe it goes on to the timed
phase and prints one JSON result line.  With ``"trace": true`` the tracer
is installed right after import.

``cli`` runs ``sl2bar.cli.main(ARGV)`` under the tracer and prints the
exit code, the captured output and the trace as one JSON line; it is the
traced counterpart of ``python -m sl2bar ARGV``.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import time

from tracer import Tracer

clock = time.perf_counter_ns


def _import_and_load(job: dict):
    t0 = clock()
    import sl2bar.cli  # noqa: F401  (imports every layer, numpy included)
    from sl2bar import conway

    t1 = clock()
    tracer = None
    if job.get("trace"):
        tracer = Tracer()
        tracer.install()
    conway.get_active()
    return tracer, {"import_ns": t1 - t0, "load_validate_ns": clock() - t1}


def _encode(r):
    from sl2bar.closure import ClosureElt
    from sl2bar.gf2poly import Gf2Poly
    from sl2bar.sl2_core import JordanClass, Mat2

    if isinstance(r, BaseException):
        return ["!", type(r).__name__]
    if isinstance(r, ClosureElt):
        return [r.level, r.mask]
    if isinstance(r, Mat2):
        return [_encode(e) for e in r.entries()]
    if isinstance(r, JordanClass):
        return [r.kind, None if r.lam is None else _encode(r.lam)]
    if isinstance(r, Gf2Poly):
        return r.mask
    return r


def _closure_calls(queries):
    """(function, args) per query, with functions looked up after the
    tracer (if any) has re-bound the module attributes."""
    from sl2bar import closure, gf2_field, sl2_core
    from sl2bar.closure import ClosureElt
    from sl2bar.gf2_field import FieldElt

    fns = {
        "cmul": closure.cmul, "cadd": closure.cadd, "cinv": closure.cinv, "csqrt": closure.csqrt,
        "cpow": closure.cpow, "corder": closure.corder, "mmul": sl2_core.mmul, "conj": sl2_core.conj,
        "classify_jordan": sl2_core.classify_jordan, "minimal_poly": gf2_field.minimal_poly,
    }

    def elt(e):  # inputs are already at their minimal level
        return ClosureElt(FieldElt(e[0], e[1]))

    def arg(x):
        if isinstance(x, int):
            return x
        if isinstance(x[0], int):
            return elt(x)
        return sl2_core.Mat2(*(elt(e) for e in x))

    out = []
    for op, _over, *args in queries:
        built = [arg(x) for x in args]
        if op == "minimal_poly":
            built = [built[0].elt]
        out.append((fns[op], built))
    return out


def _run_calls(calls):
    lat, results = [], []
    for fn, args in calls:
        t0 = clock()
        try:
            r = fn(*args)
        except Exception as exc:  # a failed query is a result to check, not a crash
            r = exc
        lat.append(clock() - t0)
        results.append(r)
    return lat, results


def closure_round(job: dict, setup: dict) -> dict | None:
    warm = _closure_calls(job["warmup"])
    calls = _closure_calls(job["queries"])
    _run_calls(warm)
    _ready(setup)
    if job["probe"]:
        return None
    t0 = clock()
    lat, results = _run_calls(calls)
    wall = clock() - t0
    return {"wall_ns": wall, "lat_ns": lat, "results": [_encode(r) for r in results]}


def group_round(job: dict, setup: dict) -> dict | None:
    import numpy as np
    from sl2bar import endo, finite_engine as fe, sl2_core as sl
    from sl2bar.sl2_core import SubsetName

    p = job["params"]
    t0 = clock()
    G3, G4, G5 = (fe.enumerate_group(n) for n in (3, 4, 5))
    setup["enumerate_group_ns"] = clock() - t0
    i_diag = G5.index_of(sl.mat_from_masks(5, (p["diag"][0], 0, 0, p["diag"][1])))
    i_uni = G5.index_of(sl.mat_from_masks(5, (1, p["uni"], 0, 1)))
    gens = {
        n: [G.index_of(sl.mat_from_masks(n, q)) for q in ((p[f"gen{n}"][0], 0, 0, p[f"gen{n}"][1]), (1, 1, 0, 1), (1, 0, 1, 1))]
        for n, G in ((4, G4), (5, G5))
    }
    _ready(setup)
    if job["probe"]:
        return None

    def orders():
        d, c = np.unique(G5.element_orders(), return_counts=True)
        return {str(int(k)): int(v) for k, v in zip(d, c)}

    def replay():
        entries = endo.replay_cohopf_skeleton(4).entries
        return [len(entries), all(len(e.steps) == 8 and all(s.status == "pass" for s in e.steps) for e in entries)]

    def projective():
        pa = fe.projective_action(G4)
        return [pa.n_points, pa.is_faithful(), pa.image_order()]

    analyses = [
        ("element_orders", orders),
        ("ct_check_centralizers", lambda: fe.ct_check_centralizers(G4).holds),
        ("centralizer_bf/diag", lambda: fe.centralizer_bf(G5, i_diag).size),
        ("centralizer_bf/uni", lambda: fe.centralizer_bf(G5, i_uni).size),
        ("normalizer_bf/diag", lambda: fe.normalizer_bf(G5, fe.named_subgroup(G5, SubsetName.DIAG)).size),
        ("normalizer_bf/uni", lambda: fe.normalizer_bf(G5, fe.named_subgroup(G5, SubsetName.UPPER_UNI)).size),
        ("subgroup_generated/n4", lambda: fe.subgroup_generated(G4, gens[4]).size),
        ("subgroup_generated/n5", lambda: fe.subgroup_generated(G5, gens[5]).size),
        ("is_simple", lambda: fe.is_simple(G3)),
        ("projective_action", projective),
        ("replay_cohopf_skeleton", replay),
        ("field_endos", lambda: [e.frob_power for e in endo.field_endos(10)]),
    ]
    analyses = [(name, fn) for name, fn in analyses if name.split("/")[0] not in job.get("skip", ())]
    out = {"lat_ns": [], "results": {}}
    t_all = clock()
    for name, fn in analyses:
        t0 = clock()
        try:
            r = fn()
        except Exception as exc:  # recorded as a failed analysis
            r = ["!", type(exc).__name__]
        out["lat_ns"].append(clock() - t0)
        out["results"][name] = r
    out["wall_ns"] = clock() - t_all
    out["names"] = [name for name, _ in analyses]
    return out


def _ready(setup: dict) -> None:
    print("READY " + json.dumps(setup), flush=True)


def main(argv: list[str]) -> int:
    if argv[:1] == ["cli"]:
        tracer = Tracer()
        import sl2bar.cli

        tracer.install()
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = sl2bar.cli.main(argv[1:])
            except SystemExit as exc:  # argparse usage errors
                code = exc.code
        print(json.dumps({"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue(), "trace": tracer.summary()}))
        return 0
    job = json.load(sys.stdin)
    tracer, setup = _import_and_load(job)
    run = {"closure-mix": closure_round, "group-scan": group_round}.get(job["workload"])
    result = run(job, setup) if run else _ready(setup)
    if result is not None:
        if tracer is not None:
            result["trace"] = tracer.summary()
        print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
