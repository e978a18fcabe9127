"""List the lines of ``src/otrelabel`` that the test suite never runs.

It needs nothing beyond pytest: the suite runs in this process under a
``sys.settrace`` tracer, set for new threads too by ``threading.settrace``,
that records the lines run in frames of the package's files and ignores
every other frame.  A module's executable lines are the ``co_lines()`` of
each code object compiled from its source.  Tests that run the package in
a subprocess are not traced, so a line only they reach is listed here.

    python tests/untested_lines.py            # the whole suite
    python tests/untested_lines.py -x tests/test_ot.py   # pytest arguments

The name keeps pytest from collecting this file as a test module.
"""

from __future__ import annotations

import sys
import threading
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "otrelabel"


def executable_lines(path: Path) -> set[int]:
    """Every line some instruction compiled from ``path`` belongs to."""
    lines: set[int] = set()
    stack = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        stack.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    return lines


def spans(lines: list[int]) -> str:
    """Sorted line numbers as ``a-b`` runs of consecutive lines."""
    runs: list[list[int]] = []
    for line in lines:
        if runs and line == runs[-1][1] + 1:
            runs[-1][1] = line
        else:
            runs.append([line, line])
    return ", ".join(f"{a}" if a == b else f"{a}-{b}" for a, b in runs)


def main(args: list[str]) -> int:
    prefix = str(PACKAGE) + "/"
    ran: dict[str, set[int]] = {}

    def trace(frame, event, arg):
        filename = frame.f_code.co_filename
        if not filename.startswith(prefix):
            return None  # no line events in this frame
        hits = ran.setdefault(filename, set())
        hits.add(frame.f_lineno)

        def line(frame, event, arg):
            if event == "line":
                hits.add(frame.f_lineno)
            return line
        return line

    threading.settrace(trace)
    sys.settrace(trace)
    try:
        status = pytest.main(args or [str(ROOT / "tests")])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    total = 0
    for path in sorted(PACKAGE.glob("*.py")):
        lines = executable_lines(path)
        missed = sorted(lines - ran.get(str(path), set()))
        total += len(missed)
        print(f"{path.relative_to(ROOT)}: {len(missed)} of {len(lines)} "
              "lines never ran" + (f": {spans(missed)}" if missed else ""))
    print(f"{total} lines never ran")
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
