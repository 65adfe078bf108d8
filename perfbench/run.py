"""The sl2bar benchmark: one workload, one seed, every metric by name.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a source checkout; the package is imported from
the checkout's ``src/`` through PYTHONPATH, never from an installed copy.
Workloads (see perfbench/README.md for why each exists):

  verify-full    python -m sl2bar verify --max-level 5 --json, one process
  closure-mix    a seeded stream of scalar and matrix queries in one worker
  group-scan     a fixed list of whole-group analyses in one worker
  cli-oneshot    one-shot python -m sl2bar commands, one process each

Every workload is a closed loop with one client: one child process at a
time, no threads.  A run does a few set-up probes (fresh interpreters that
only import, load the table and warm up; group-scan's probes also time its
light analyses), then ``rounds`` timed rounds, each in a fresh
interpreter, where rounds = max(1, round(ROUNDS[workload] * S / 30)).
Every answer is checked; the last stdout line is the JSON result.
``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs one
untraced and one traced round and prints the per-layer metrics.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import importlib.metadata
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

import inputs
import oracle

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TABLE = SRC / "sl2bar" / "data" / "conway_gf2.txt"
GOLDEN = HERE / "golden" / "verify-max5.json"
OUT = ROOT / ".bench_out"

# timed rounds per 30 s of --seconds (a round takes about 29, 4, 6.5 and 12.5 s
# on the 2-core machine of baseline.json); closure-mix, whose figures swing
# most with the host's speed, gets the most rounds
ROUNDS = {"verify-full": 1, "closure-mix": 8, "group-scan": 3, "cli-oneshot": 1}
SETUP_PROBES = {"verify-full": 5, "closure-mix": 3, "group-scan": 5, "cli-oneshot": 5}
# group-scan analyses of over a second; the probes time every other one
HEAVY_ANALYSES = ("ct_check_centralizers", "replay_cohopf_skeleton")
QUERIES = 5000
WARMUP = 300
WARMUP_SEED_OFFSET = 1_000_003
HELD_OUT_SEED = 9001  # kept out of tuning; use it to confirm a claimed gain
ROUND_DEADLINE_S = 120.0  # start no new round after this, so a run ends well inside 180 s
VERIFY_ARGV = ["verify", "--max-level", "5", "--json"]

END_TO_END = {
    "setup_s": "s", "wall_s": "s", "peak_rss_mib": "MiB", "ops_total": "count", "queries_per_s": "1/s",
    "query_p50_us": "us", "query_p99_us": "us", "cmd_p50_ms": "ms", "cmd_p75_ms": "ms",
}
_CRITERIA = [f"c{i:02d}" for i in range(1, 15)]
PER_LAYER = {
    "gf2poly.calls": "count", "gf2poly.self_ms": "ms",
    "conway.calls": "count", "conway.load_validate_ms": "ms",
    "gf2_field.calls": "count", "gf2_field.self_ms": "ms", "gf2_field.elt_new": "count",
    "gf2_field.mul_calls": "count", "gf2_field.log_table_builds": "count", "gf2_field.log_table_build_ms": "ms",
    "gf2_field.minimal_poly_p50_us": "us",
    "closure.calls": "count", "closure.self_ms": "ms", "closure.reduce_elt_calls": "count", "closure.lift_calls": "count",
    **{f"closure.{op}_p50_us": "us" for op in ("cmul", "cadd", "cinv", "csqrt", "cpow", "corder")},
    "closure.le20_p50_us": "us", "closure.gt20_p50_us": "us",
    "sl2_core.calls": "count", "sl2_core.self_ms": "ms",
    **{f"sl2_core.{op}_p50_us": "us" for op in ("mmul", "conj", "classify_jordan")},
    "finite_engine.calls": "count", "finite_engine.self_ms": "ms", "finite_engine.enumerate_group_ms": "ms",
    **{f"finite_engine.{a}_ms": "ms" for a in ("element_orders", "ct_check_centralizers", "centralizer_bf",
                                               "normalizer_bf", "subgroup_generated", "is_simple", "projective_action")},
    "finite_engine.enumerate_group_misses": "count", "finite_engine.field_ops_misses": "count",
    "endo.calls": "count", "endo.self_ms": "ms", "endo.replay_ms": "ms", "endo.field_endos_ms": "ms",
    **{f"verify.{c}_ms": "ms" for c in _CRITERIA},
    "cli.import_ms": "ms", "cli.cmd_field_p50_ms": "ms", "cli.cmd_mat_p50_ms": "ms", "cli.cmd_group_p50_ms": "ms",
    "trace.overhead_s": "s",
}
# group-scan analysis -> the per-layer timer it adds to
_ANALYSIS_METRIC = {
    "replay_cohopf_skeleton": "endo.replay_ms",
    "field_endos": "endo.field_endos_ms",
}

ENV = {k: v for k, v in os.environ.items() if k != "SL2BAR_CONWAY_PATH"}
ENV.update(PYTHONPATH=str(SRC), PYTHONHASHSEED="0", OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
PY = sys.executable


class Run:
    """Everything one run measured, pooled over its rounds."""

    def __init__(self):
        self.setup_s: list[float] = []
        self.round_wall_s: list[float] = []
        self.round_ops: list[int] = []
        # Latency per operation and wall time per child process, each keyed so
        # that repeats of the same one over rounds collect into one list: the
        # percentiles are taken over the per-key medians, so one stalled
        # sample cannot become the tail.
        self.op_us: dict[object, list[float]] = defaultdict(list)
        self.child_ms: dict[object, list[float]] = defaultdict(list)
        self.rss_mib: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.timers: dict[str, list[float]] = defaultdict(list)  # per-layer timers, tracing off
        self.traces: list[dict] = []  # tracer summaries of the traced round
        self.traced_wall_s = 0.0
        self.import_ms: list[float] = []
        self.load_ms: list[float] = []

    def tally(self, ok: bool) -> None:
        self.attempted += 1
        self.failed += not ok


# ---------------------------------------------------------------------------
# child processes


def spawn(argv: list[str], stdin: bytes | None = None, ready: bool = False) -> dict:
    """Run one child to completion; time it from spawn to exit and, with
    ``ready``, to its READY line.  Peak RSS comes from the child's rusage."""
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"stderr-{os.getpid()}.txt", "w+b") as err:
        t0 = time.perf_counter()
        p = subprocess.Popen(argv, stdin=subprocess.PIPE if stdin is not None else subprocess.DEVNULL,
                             stdout=subprocess.PIPE, stderr=err, env=ENV, cwd=ROOT)
        if stdin is not None:
            p.stdin.write(stdin)
            p.stdin.close()
        setup = t_ready = None
        if ready:
            line = p.stdout.readline().decode()
            t_ready = time.perf_counter() - t0
            if line.startswith("READY "):
                setup = json.loads(line[6:])
        out = p.stdout.read().decode()
        p.stdout.close()
        _, status, usage = os.wait4(p.pid, 0)
        wall = time.perf_counter() - t0
        p.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        stderr = err.read().decode(errors="replace")
    return {"code": p.returncode, "stdout": out, "stderr": stderr, "wall_s": wall, "ready_s": t_ready,
            "setup": setup, "rss_mib": usage.ru_maxrss / 1024}


def _last_json(text: str):
    lines = text.strip().splitlines()
    try:
        return json.loads(lines[-1]) if lines else None
    except ValueError:
        return None


def worker_round(run: Run, job: dict, probe: bool = False, trace: bool = False) -> dict | None:
    """One fresh worker: the set-up sample always, the round's result unless a probe."""
    job = dict(job, probe=probe, trace=trace)
    c = spawn([PY, str(HERE / "worker.py"), "round"], json.dumps(job).encode(), ready=True)
    if c["setup"] is None:
        return None
    if not trace:
        run.setup_s.append(c["ready_s"])
        run.import_ms.append(c["setup"]["import_ns"] / 1e6)
        run.load_ms.append(c["setup"]["load_validate_ns"] / 1e6)
    if probe:
        return None
    res = _last_json(c["stdout"])
    if c["code"] != 0 or res is None or "Traceback" in c["stderr"]:
        return None
    if not trace:
        run.rss_mib.append(c["rss_mib"])
    res["setup"] = c["setup"]
    res["worker_wall_s"] = c["wall_s"]
    return res


def _record_round(run: Run, res: dict, trace: bool) -> None:
    wall = res["wall_ns"] / 1e9
    if trace:
        run.traced_wall_s += wall
        run.traces.append(res["trace"])
    else:
        run.round_wall_s.append(wall)
        run.round_ops.append(len(res["lat_ns"]))
        run.child_ms[("worker", len(run.child_ms))].append(res["worker_wall_s"] * 1000)


def _rounds(run: Run, n: int, trace_mode: bool, body, probe, n_probes: int) -> None:
    """``body(trace)`` runs one round, ``probe()`` one set-up probe.  With
    tracing: one plain round, one traced.  The probes are dealt out over the
    gaps before, between and after the rounds, so that the set-up time is
    sampled over the whole run and not in one moment of the host's speed."""
    t0 = time.perf_counter()
    plan = [False, True] if trace_mode else [False] * n
    per_gap = [0] * (len(plan) + 1)
    for k in range(n_probes):
        per_gap[k * len(per_gap) // n_probes] += 1
    for i, traced in enumerate(plan):
        if i and not trace_mode and time.perf_counter() - t0 > ROUND_DEADLINE_S:
            return
        for _ in range(per_gap[i]):
            probe()
        body(traced)
    for _ in range(per_gap[-1]):
        probe()


# ---------------------------------------------------------------------------
# workloads


def verify_full(run: Run, seed: int, rounds: int, trace_mode: bool) -> None:
    """The suite has its own fixed seeds, so the workload seed changes nothing."""
    golden = GOLDEN.read_bytes()
    want = json.loads(golden)["checks"]

    def body(traced: bool):
        if traced:
            c = spawn([PY, str(HERE / "worker.py"), "cli", *VERIFY_ARGV])
            res = _last_json(c["stdout"]) or {}
            run.traced_wall_s += c["wall_s"]
            if "trace" in res:
                run.traces.append(res["trace"])
            code, out, err = res.get("exit"), res.get("stdout", ""), res.get("stderr", "") + c["stderr"]
        else:
            c = spawn([PY, "-m", "sl2bar", *VERIFY_ARGV])
            code, out, err = c["code"], c["stdout"], c["stderr"]
        zeroed = re.sub(r'"millis":\d+', '"millis":0', out).encode()
        report = _last_json(out)
        if code != 0 or "Traceback" in err or report is None or len(report.get("checks", [])) != len(want):
            for _ in want:
                run.tally(False)
            return
        oks = [got["status"] == "pass" and dict(got, millis=0) == exp for got, exp in zip(report["checks"], want)]
        if zeroed != golden and all(oks):  # the bytes differ outside the check entries
            oks = [False] * len(oks)
        for ok in oks:
            run.tally(ok)
        if traced:
            return
        run.round_wall_s.append(c["wall_s"])
        run.round_ops.append(len(report["checks"]))
        # the operation a user waits for is the verify command; one check's
        # time is a per-layer figure (verify.cNN_ms)
        run.op_us[("verify", len(run.op_us))].append(c["wall_s"] * 1e6)
        run.child_ms[("verify", len(run.child_ms))].append(c["wall_s"] * 1000)
        run.rss_mib.append(c["rss_mib"])
        for crit in _CRITERIA:
            run.timers[f"verify.{crit}_ms"].append(sum(ch["millis"] for ch in report["checks"] if ch["name"][:3] == crit))

    _rounds(run, rounds, trace_mode, body, _prober(run, {"workload": "verify-full"}), SETUP_PROBES["verify-full"])


def closure_mix(run: Run, seed: int, rounds: int, trace_mode: bool) -> None:
    T = _tower()
    queries = inputs.closure_queries(T, seed, QUERIES)
    job = {"workload": "closure-mix", "queries": queries,
           "warmup": inputs.closure_queries(T, seed + WARMUP_SEED_OFFSET, WARMUP)}
    first: dict = {}  # the first round's answers and their checked verdicts

    def body(traced: bool):
        res = worker_round(run, job, trace=traced)
        if res is None:
            for _ in queries:
                run.tally(False)
            return
        if not first:
            first["results"] = res["results"]
            first["ok"] = [inputs.check_closure(T, q, r) for q, r in zip(queries, res["results"])]
        # a later round must repeat the first round's checked answers exactly
        for r, f, ok in zip(res["results"], first["results"], first["ok"]):
            run.tally(ok and r == f)
        _record_round(run, res, traced)
        if traced:
            return
        for i, ns in enumerate(res["lat_ns"]):
            run.op_us[i].append(ns / 1000)
        for q, ns in zip(queries, res["lat_ns"]):
            op = q[0]
            layer = "gf2_field" if op == "minimal_poly" else "sl2_core" if op in ("mmul", "conj", "classify_jordan") else "closure"
            run.timers[f"{layer}.{op}_p50_us"].append(ns / 1000)
            band = "le20" if inputs.query_level(q) <= 20 else "gt20"
            run.timers[f"closure.{band}_p50_us"].append(ns / 1000)

    _rounds(run, rounds, trace_mode, body, _prober(run, job), SETUP_PROBES["closure-mix"])


def group_scan(run: Run, seed: int, rounds: int, trace_mode: bool) -> None:
    T = _tower()
    job = {"workload": "group-scan", "params": inputs.group_params(T, seed)}
    expected = json.loads(json.dumps(inputs.group_expected()))

    def body(traced: bool, light: bool = False):
        """A full round, or with ``light`` a probe that times every analysis
        but the heavy ones, so the short analyses get more samples."""
        skip = HEAVY_ANALYSES if light else ()
        want = {k: v for k, v in expected.items() if k.split("/")[0] not in skip}
        res = worker_round(run, dict(job, skip=list(skip)), trace=traced)
        if res is None:
            for _ in want:
                run.tally(False)
            return
        for name, w in want.items():
            run.tally(res["results"].get(name) == w)
        if not light:
            _record_round(run, res, traced)
        if traced:
            return
        for name, ns in zip(res["names"], res["lat_ns"]):
            run.op_us[name].append(ns / 1000)
        run.timers["finite_engine.enumerate_group_ms"].append(res["setup"]["enumerate_group_ns"] / 1e6)
        per: dict[str, float] = defaultdict(float)
        for name, ns in zip(res["names"], res["lat_ns"]):
            base = name.split("/")[0]
            per[_ANALYSIS_METRIC.get(base, f"finite_engine.{base}_ms")] += ns / 1e6
        for k, v in per.items():
            run.timers[k].append(v)

    _rounds(run, rounds, trace_mode, body, lambda: body(False, light=True), SETUP_PROBES["group-scan"])


def cli_oneshot(run: Run, seed: int, rounds: int, trace_mode: bool) -> None:
    cmds = inputs.cli_commands(_tower(), seed)

    def body(traced: bool):
        total = 0.0
        for i, (argv, code, stdout) in enumerate(cmds):
            if traced:
                c = spawn([PY, str(HERE / "worker.py"), "cli", *argv])
                res = _last_json(c["stdout"]) or {}
                if "trace" in res:
                    run.traces.append(res["trace"])
                got = (res.get("exit"), res.get("stdout"), res.get("stderr", "") + c["stderr"])
            else:
                c = spawn([PY, "-m", "sl2bar", *argv])
                got = (c["code"], c["stdout"], c["stderr"])
            run.tally(got[0] == code and got[1] == stdout and "Traceback" not in got[2])
            total += c["wall_s"]
            if not traced:
                run.op_us[i].append(c["wall_s"] * 1e6)
                run.child_ms[i].append(c["wall_s"] * 1000)
                run.rss_mib.append(c["rss_mib"])
                run.timers[f"cli.cmd_{argv[0]}_p50_ms"].append(c["wall_s"] * 1000)
        if traced:
            run.traced_wall_s += total
        else:
            run.round_wall_s.append(total)
            run.round_ops.append(len(cmds))

    _rounds(run, rounds, trace_mode, body, _prober(run, {"workload": "cli-oneshot"}), SETUP_PROBES["cli-oneshot"])


WORKLOADS = {"verify-full": verify_full, "closure-mix": closure_mix, "group-scan": group_scan, "cli-oneshot": cli_oneshot}


def _prober(run: Run, job: dict):
    return lambda: worker_round(run, job, probe=True)


_TOWER: list = []


def _tower() -> oracle.Tower:
    if not _TOWER:
        _TOWER.append(oracle.Tower(oracle.load_moduli(str(TABLE))))
    return _TOWER[0]


# ---------------------------------------------------------------------------
# metrics


def _q(values: list[float], n: int, k: int) -> float:
    """The k-th of the n-quantile cut points, interpolated inside the data
    (so a high percentile of a few samples never extrapolates past the
    largest); a lone value is its own quantile."""
    if len(values) == 1:
        return float(values[0])
    return statistics.quantiles(values, n=n, method="inclusive")[k - 1]


def end_to_end(run: Run) -> dict[str, float]:
    op_us = [statistics.median(v) for v in run.op_us.values()]
    child_ms = [statistics.median(v) for v in run.child_ms.values()]
    return {
        "setup_s": statistics.median(run.setup_s),
        "wall_s": statistics.median(run.round_wall_s),
        "peak_rss_mib": max(run.rss_mib),
        "ops_total": run.attempted,
        "queries_per_s": statistics.median(o / w for o, w in zip(run.round_ops, run.round_wall_s)),
        "query_p50_us": _q(op_us, 100, 50),
        "query_p99_us": _q(op_us, 100, 99),
        "cmd_p50_ms": _q(child_ms, 100, 50),
        "cmd_p75_ms": _q(child_ms, 100, 75),
    }


def per_layer(run: Run) -> dict[str, float]:
    out = dict.fromkeys(PER_LAYER, 0)
    for name, values in run.timers.items():
        out[name] = statistics.median(values)
    layers: dict[str, dict[str, int]] = defaultdict(lambda: {"calls": 0, "self_ns": 0})
    fn_calls: dict[str, int] = defaultdict(int)
    misses: dict[str, int] = defaultdict(int)
    scalars: dict[str, int] = defaultdict(int)
    for tr in run.traces:
        for name, st in tr["layers"].items():
            layers[name]["calls"] += st["calls"]
            layers[name]["self_ns"] += st["self_ns"]
        for k, v in tr["fn_calls"].items():
            fn_calls[k] += v
        for k, v in tr["cache_misses"].items():
            misses[k] += v
        for k in ("elt_new", "log_table_builds", "log_table_build_ns"):
            scalars[k] += tr[k]
    for name, st in layers.items():
        if f"{name}.calls" in out:
            out[f"{name}.calls"] = st["calls"]
        if f"{name}.self_ms" in out:
            out[f"{name}.self_ms"] = st["self_ns"] / 1e6
    out["gf2_field.elt_new"] = scalars["elt_new"]
    out["gf2_field.mul_calls"] = fn_calls["gf2_field.mul"]
    out["gf2_field.log_table_builds"] = scalars["log_table_builds"]
    out["gf2_field.log_table_build_ms"] = scalars["log_table_build_ns"] / 1e6
    out["closure.reduce_elt_calls"] = fn_calls["closure.reduce_elt"]
    out["closure.lift_calls"] = fn_calls["closure.lift"]
    out["finite_engine.enumerate_group_misses"] = misses["finite_engine.enumerate_group"]
    out["finite_engine.field_ops_misses"] = misses["finite_engine.field_ops"]
    out["conway.load_validate_ms"] = statistics.median(run.load_ms)
    out["cli.import_ms"] = statistics.median(run.import_ms)
    out["trace.overhead_s"] = run.traced_wall_s - sum(run.round_wall_s)
    return out


def env_stamp(args) -> dict:
    head = ROOT / ".git" / "HEAD"
    sha = "unknown"
    if head.is_file():
        ref = head.read_text().strip()
        sha = ref
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            sha = ref_file.read_text().strip() if ref_file.is_file() else ref
    try:
        numpy = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy = "missing"
    return {
        "python": platform.python_version(), "numpy": numpy, "nproc": os.cpu_count(), "git_sha": sha,
        "table_sha256": hashlib.sha256(TABLE.read_bytes()).hexdigest(),
        "workload": args.workload, "seed": args.seed, "held_out_seed": HELD_OUT_SEED,
        "seconds": args.seconds, "trace": args.trace,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "sl2bar" / "__init__.py").is_file() or not TABLE.is_file():
        print(f"error: no sl2bar sources under {SRC}", file=sys.stderr)
        return 2
    compileall.compile_dir(str(SRC / "sl2bar"), quiet=2)  # no first-run byte-compile in any timing

    run = Run()
    rounds = max(1, round(ROUNDS[args.workload] * args.seconds / 30))
    WORKLOADS[args.workload](run, args.seed, rounds, bool(args.trace))
    if not run.round_wall_s or not run.setup_s:
        print("error: no round completed", file=sys.stderr)
        return 1
    stamp = env_stamp(args)
    stamp["rounds"] = len(run.round_wall_s)
    print("env " + json.dumps(stamp))
    if args.trace:
        values, units = per_layer(run), PER_LAYER
        spans = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        spans.write_text(json.dumps({"env": stamp, "traces": run.traces}) + "\n")
        print(f"spans written to {spans.relative_to(ROOT)}")
    else:
        values, units = end_to_end(run), END_TO_END
    metrics = {k: {"value": values[k], "unit": units[k]} for k in units}
    print(json.dumps({"correct": run.failed == 0, "attempted": run.attempted, "failed": run.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
