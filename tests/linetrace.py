"""Lines of src/ that the tier-1 tests never run.

    python tests/linetrace.py [pytest arguments]

Runs the tier-1 suite (tests/, or the given pytest arguments) in this
process under sys.settrace, tracing only the code of src/linnikgeo/*.py,
and prints each executable line of those files (the lines of every code
object's co_lines()) that never ran, as path:line and its text.  The trace
starts before linnikgeo is imported, so module-level lines count too; code
run in a subprocess (the CLI's own process) is not seen.  The exit status is
1 when a line never ran or the suite failed, else 0.  pytest does not
collect this file (its name does not start with test_), and it holds its
own tracer, as coverage is not a dependency.
"""

from __future__ import annotations

import pathlib
import sys
import threading
from collections import defaultdict

ROOT = pathlib.Path(__file__).resolve().parents[1]
PKG = ROOT / "src" / "linnikgeo"


def _executable(path: pathlib.Path) -> set[int]:
    """The line of every instruction of the module and its nested code
    (line 0 is the module's own entry, not a line of the file)."""
    lines, todo = set(), [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while todo:
        code = todo.pop()
        lines |= {line for _, _, line in code.co_lines() if line}
        todo += [c for c in code.co_consts if hasattr(c, "co_lines")]
    return lines


def main(argv: list[str]) -> int:
    files = {str(p): p for p in sorted(PKG.glob("*.py"))}
    ran: dict[str, set[int]] = defaultdict(set)

    def local(frame, event, arg):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def call(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in files:
            return None
        # the def (or class, or module) line, where the code object starts
        ran[name].add(frame.f_code.co_firstlineno)
        return local

    sys.path.insert(0, str(ROOT / "src"))
    import pytest  # its import runs no linnikgeo code

    threading.settrace(call)
    sys.settrace(call)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider", *(argv or [str(ROOT / "tests")])])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    missed = 0
    for name, path in files.items():
        text = path.read_text(encoding="utf-8").splitlines()
        for line in sorted(_executable(path) - ran[name]):
            print(f"{path.relative_to(ROOT)}:{line}: {text[line - 1].strip()}")
            missed += 1
    print(f"{missed} lines of src/ never ran; pytest exit status {int(status)}")
    return 1 if missed or status else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
