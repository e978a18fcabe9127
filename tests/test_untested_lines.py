"""The line tracer, ``tests/untested_lines.py``, still runs and reports.

It runs in a fresh subprocess on two ``test_core.py`` tests, with plain
asserts, which keeps it to a few seconds.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "otrelabel"
SUMMARY = re.compile(
    r"(src/otrelabel/\w+\.py): \d+ of \d+ lines never ran(?:: (.*))?")


def listed_lines(spans):
    """The line numbers of a summary's ``a-b, c`` spans."""
    lines = set()
    for span in spans.split(", ") if spans else ():
        first, _, last = span.partition("-")
        lines.update(range(int(first), int(last or first) + 1))
    return lines


def line_of(path, text):
    return 1 + next(i for i, line in enumerate(
        path.read_text(encoding="utf-8").splitlines()) if text in line)


def test_line_tracer_summarises_every_module():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tests" / "untested_lines.py"),
         str(ROOT / "tests" / "test_core.py"), "-q", "-p", "no:cacheprovider",
         "--assert=plain", "-k", "config_rejects_bad_values or float_fields"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    listed = {m[1]: listed_lines(m[2]) for m in map(
        SUMMARY.fullmatch, proc.stdout.splitlines()) if m}
    assert sorted(listed) == sorted(
        f"src/otrelabel/{path.name}" for path in PACKAGE.glob("*.py"))
    # test_config_rejects_bad_values reaches PipelineConfig's ot_type check;
    # no test_core test runs the command line
    assert line_of(PACKAGE / "core.py", "unknown ot_type") \
        not in listed["src/otrelabel/core.py"]
    assert line_of(PACKAGE / "cli.py", "def main(") \
        in listed["src/otrelabel/cli.py"]
