"""Run one workload over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload NAME --seeds 1-10 [--seconds 30] [--trace 0|1] [--out FILE]

For every metric it prints the median of the runs and the spread, the
distance between the first and third quartile (``statistics.quantiles``,
n=4) as a share of the median.  With ``--out`` the table and every run's
result are also written as JSON.  To compare two commits, run the same
seeds on each and compare medians against the bounds in BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def seed_list(text: str) -> list[int]:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def spread(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0, "n": len(values)}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", type=Path)
    args = ap.parse_args()
    runs = []
    for seed in args.seeds:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        if proc.returncode != 0:
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        runs.append({"seed": seed, **result})
        print(f"seed {seed}: correct={result['correct']} failed={result['failed']}/{result['attempted']}", file=sys.stderr)
    names = list(runs[0]["metrics"])
    table = {}
    for name in names:
        table[name] = dict(spread([r["metrics"][name]["value"] for r in runs]), unit=runs[0]["metrics"][name]["unit"])
        t = table[name]
        print(f"{name:40s} {t['median']:14.4f} {t['unit']:6s} spread {t['spread']:.3f}")
    if args.out:
        args.out.write_text(json.dumps({"workload": args.workload, "seconds": args.seconds, "trace": args.trace,
                                        "metrics": table, "runs": runs}, indent=1) + "\n")
    return 0 if all(r["correct"] for r in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
