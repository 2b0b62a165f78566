"""List the lines of the package that the tier-1 suite never runs.

    python tools/unrun.py

It runs the whole suite (pytest -q -p no:cacheprovider tests) in this
process under sys.settrace, tracing only frames whose code is in
src/sheetsmith/, and records each line that starts to run there. The
trace is set before the package is first imported, so module-level lines
count. A module's executable lines are the lines its compiled code objects
hold (co_lines): a docstring, comment or blank line is never listed, and
neither is code the compiler drops. Child processes, such as the CLI
tests' subprocesses, are not traced.

It prints every line never run as file:line: text and then their count. It
exits 1 if a line other than cli's ``sys.exit(main())`` under its
``__main__`` guard, which runs only in a child process, is listed, and 2 if
the suite fails. It needs the standard library and pytest, the suite's
runner, and runs from anywhere; the trace makes the suite about three times
slower.
"""

import os
import sys
from types import CodeType

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "sheetsmith") + os.sep
# the one line the suite cannot run in its own process
EXPECTED = {("cli.py", "sys.exit(main())")}


def executable_lines(path: str) -> set[int]:
    """The line numbers of every code object compiled from path."""
    with open(path, encoding="utf-8") as handle:
        code = compile(handle.read(), path, "exec")
    lines, codes = set(), [code]
    for code in codes:
        lines.update(line for _, _, line in code.co_lines() if line is not None)
        codes.extend(const for const in code.co_consts if isinstance(const, CodeType))
    return lines


def main() -> int:
    import pytest

    run: dict[str, set[int]] = {}

    def trace_lines(frame, event, arg):
        run[frame.f_code.co_filename].add(frame.f_lineno)
        return trace_lines

    def trace_calls(frame, event, arg):
        path = frame.f_code.co_filename
        if not path.startswith(PACKAGE):
            return None
        run.setdefault(path, set()).add(frame.f_lineno)
        return trace_lines

    sys.path.insert(0, os.path.join(ROOT, "src"))
    os.chdir(ROOT)
    sys.settrace(trace_calls)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider", "tests"])
    finally:
        sys.settrace(None)
    if status != 0:
        print(f"the suite failed (pytest exit status {status})")
        return 2
    listed = unexpected = 0
    for name in sorted(os.listdir(PACKAGE)):
        if not name.endswith(".py"):
            continue
        path = PACKAGE + name
        with open(path, encoding="utf-8") as handle:
            texts = handle.read().splitlines()
        for line in sorted(executable_lines(path) - run.get(path, set())):
            text = texts[line - 1].strip()
            print(f"src/sheetsmith/{name}:{line}: {text}")
            listed += 1
            unexpected += (name, text) not in EXPECTED
    print(f"{listed} line(s) never run, {unexpected} of them unexpected")
    return 1 if unexpected else 0


if __name__ == "__main__":
    sys.exit(main())
