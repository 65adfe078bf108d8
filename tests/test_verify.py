"""The verify report: the byte contract at level 2 and crash containment."""

import json
import os
import subprocess
import sys
from pathlib import Path

from sl2bar import verify
from sl2bar.cli import main

GOLDEN = Path(__file__).parent / "golden" / "verify-max2.json"


def _zero_millis(report: dict) -> str:
    for c in report["checks"]:
        c["millis"] = 0
    return json.dumps(report, separators=(",", ":")) + "\n"


def test_level2_report_matches_golden():
    got = _zero_millis(verify.run_suite(max_level=2).to_json())
    assert got == GOLDEN.read_text(encoding="ascii")


def test_level2_report_under_optimize_matches_golden():
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    argv = [sys.executable, "-O", "-m", "sl2bar", "verify", "--max-level", "2", "--json"]
    done = subprocess.run(argv, env=env, capture_output=True, text=True, check=True)
    assert _zero_millis(json.loads(done.stdout)) == GOLDEN.read_text(encoding="ascii")


def test_crashing_check_is_recorded_and_the_suite_continues(monkeypatch, capsys):
    def boom():
        raise AssertionError("injected fault")

    monkeypatch.setattr(verify, "_check_conway_table", boom)
    code = main(["verify", "--json", "--max-level", "2", "--filter", "c13-"])
    report = json.loads(capsys.readouterr().out)
    assert code == 1
    by_name = {c["name"]: c for c in report["checks"]}
    crashed = by_name.pop("c13-conway/validity")
    assert crashed["status"] == "fail"
    assert crashed["witness"] == {"error": "AssertionError: injected fault"}
    assert len(by_name) == 7 and all(c["status"] == "pass" for c in by_name.values())
    assert report["summary"] == {"pass": 7, "fail": 1, "skipped": 0}
