"""Run the tier-1 tests under a standard-library line tracer and name every
line of ``src/tradelab`` that never executed.

    PYTHONPATH=src python .github/check_line_reach.py [PYTEST_ARGS...]

A line counts as executable when the compiled module maps a bytecode
instruction to it (``code.co_lines()``, recursively over nested code objects);
a line executed when the tracer saw a ``line`` event on it, or a ``call``
event into a code object starting there (a ``def`` line). Prints
``path:line`` for each unexecuted line and exits 1 when there is one, or
when the tests fail; exits 0 otherwise.
"""

import sys
import threading
import types
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "tradelab"


def executable_lines(path: Path) -> set[int]:
    lines, pending = set(), [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while pending:
        code = pending.pop()
        lines.update(line for _, _, line in code.co_lines() if line)  # None: no line; 0: a module's RESUME
        pending.extend(const for const in code.co_consts if isinstance(const, types.CodeType))
    return lines


def main(argv: list[str]) -> int:
    sources = {str(path): path for path in sorted(PACKAGE.rglob("*.py"))}
    executed: dict[str, set[int]] = {name: set() for name in sources}

    def local(frame, event, arg):
        if event == "line":
            executed[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def calls(frame, event, arg):
        code = frame.f_code
        if code.co_filename not in executed:
            return None  # no line events outside the package
        executed[code.co_filename].add(code.co_firstlineno)
        return local

    threading.settrace(calls)
    sys.settrace(calls)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider", *argv])
    finally:
        sys.settrace(None)
        threading.settrace(None)

    missed = [f"{path.relative_to(PACKAGE.parent.parent)}:{line}"
              for name, path in sources.items()
              for line in sorted(executable_lines(path) - executed[name])]
    for entry in missed:
        print(f"never executed: {entry}")
    print(f"{len(missed)} line(s) of {PACKAGE.name} never executed under the tests")
    return 1 if missed or status != 0 else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
