"""scripts/sloc.py, the logical-line count of the package: docstrings,
comment-only lines and blank lines are left out, and every physical line
of a statement that spans several lines counts."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

MODULE = '''"""Module docstring
over two lines."""

# a comment-only line
import os


def f(x):
    """Function docstring."""
    # another comment-only line
    return (x +
            1)


VALUE = [
    1,  # a comment after code
    2,
]
TEXT = """a string that is
not a docstring"""
'''


def test_sloc_counts_raw_and_logical_lines(tmp_path):
    (tmp_path / "a.py").write_text(MODULE, encoding="utf-8")
    (tmp_path / "b.py").write_text("\n\nx = 1\n", encoding="utf-8")
    (tmp_path / "notes.txt").write_text("not a module\n", encoding="utf-8")
    argv = [sys.executable, str(ROOT / "scripts" / "sloc.py"), str(tmp_path)]
    out = subprocess.run(argv, capture_output=True, text=True, check=True).stdout
    rows = [line.split() for line in out.splitlines()]
    # a.py: import, def, both return lines, the four VALUE lines, both TEXT lines
    assert rows == [["module", "raw", "logical"], ["a.py", "20", "10"], ["b.py", "3", "1"], ["total", "23", "11"]]
