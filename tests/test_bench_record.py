"""The committed benchmark records, BENCH_*.json at the repository root:
each parses, holds no float and keeps one fixed key order, with the
workloads and end-to-end metrics of BENCHMARK.json in its order."""

import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

TOP_KEYS = ["sha", "parent_sha", "env", "seeds", "workloads"]
ENV_KEYS = ["python", "numpy", "nproc", "table_sha256", "seconds", "trace", "held_out_seed"]
METRIC_KEYS = ["unit", "parent", "change"]
# each metric's benchmark unit and the integer unit the record stores it in
INTEGER_UNIT = {"s": "ms", "MiB": "KiB", "us": "us", "ms": "us", "1/s": "1/ks", "count": "count"}


def _pairs(path: Path):
    return json.loads(path.read_text(encoding="utf-8"), object_pairs_hook=list)


def _keys(pairs) -> list[str]:
    return [k for k, _ in pairs]


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def test_bench_records_hold_integers_in_a_fixed_key_order():
    paths = sorted(ROOT.glob("BENCH_*.json"))
    assert paths
    workloads = [w["name"] for w in SPEC["workloads"]]
    metrics = [m["name"] for m in SPEC["end_to_end"]]
    units = [INTEGER_UNIT[m["unit"]] for m in SPEC["end_to_end"]]
    for path in paths:
        top = _pairs(path)
        assert _keys(top) == TOP_KEYS, path.name
        record = dict(top)
        assert all(isinstance(record[k], str) and len(record[k]) == 40 for k in ("sha", "parent_sha")), path.name
        env = dict(record["env"])
        assert _keys(record["env"]) == ENV_KEYS, path.name
        assert all(_is_int(env[k]) for k in ("nproc", "seconds", "trace", "held_out_seed")), path.name
        assert all(isinstance(env[k], str) for k in ("python", "numpy", "table_sha256")), path.name
        assert record["seeds"] and all(_is_int(s) for s in record["seeds"]), path.name
        assert _keys(record["workloads"]) == workloads, path.name
        for name, entry in record["workloads"]:
            assert _keys(entry) == metrics, (path.name, name)
            for (metric, values), unit in zip(entry, units):
                assert _keys(values) == METRIC_KEYS, (path.name, name, metric)
                values = dict(values)
                assert values["unit"] == unit, (path.name, name, metric)
                assert _is_int(values["parent"]) and _is_int(values["change"]), (path.name, name, metric)
