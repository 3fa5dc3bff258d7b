"""List the lines of ``src/pairguard/`` that no tier-1 test reaches.

Usage: python tests/_linecov.py

Runs the tier-1 suite in this process (with ``--hypothesis-seed=0``, so the
generated cases are the same on every run) under ``sys.settrace``, started
before ``pairguard`` is imported, and prints each executable line that never
ran and is not in ``ALLOWED``, as ``path:line: text``, and each ``ALLOWED``
entry that names no unreached line. The executable lines of a module are
those its code objects' ``co_lines()`` name. Exits 1 if it printed any, or
with pytest's own code if a test fails. Pool workers are not traced:
``cli.py``'s worker functions count as reached because in-process tests
call them too. A traced run takes about 3 times as long as an untraced one.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path
from types import CodeType

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "pairguard"

# Unreached lines that stay, keyed by file name, the qualified name of the
# function that holds the line and its stripped text, each with its reason.
# The host unsets a trace function that raises, and at its recursion limit
# one cannot even start, so what runs after a host RecursionError goes
# unrecorded until the next test re-arms the tracer.
ALLOWED: dict[tuple[str, str, str], str] = {
    ("engine.py", "ComparisonProgram.context", "except Exception:"): (
        "ast.unparse past the recursion limit; pinned by TestInjectionContext"
    ),
    ("engine.py", "ComparisonProgram.context", 'text = ""'): (
        "ast.unparse past the recursion limit; pinned by TestInjectionContext"
    ),
    ("engine.py", "Interpreter.run", 'self.exception = ExceptionValue("RecursionError")'): (
        "the host recursion limit; pinned by TestControlFlow"
    ),
}

_prefix = str(SRC) + os.sep
_reached: dict[str, set[int]] = {}


# Both tracers are plain module-level functions: a closure that refers to
# itself would leave cyclic garbage behind, which the suite's
# ``*_leave_no_cyclic_garbage`` tests count.
def _trace_call(frame, event, arg):
    lines = _reached.get(frame.f_code.co_filename)
    if lines is None:
        if not frame.f_code.co_filename.startswith(_prefix):
            return None
        lines = _reached.setdefault(frame.f_code.co_filename, set())
    lines.add(frame.f_lineno)
    return _trace_line


def _trace_line(frame, event, arg):
    if event == "line":
        _reached[frame.f_code.co_filename].add(frame.f_lineno)
    return _trace_line


class _Rearm:
    """Sets the tracer again before each test, as a test that runs past the
    host recursion limit drops it (see ``ALLOWED``)."""

    def pytest_runtest_setup(self, item):
        sys.settrace(_trace_call)


def _code_lines(code: CodeType, owners: dict[int, str]) -> dict[int, str]:
    """Each executable line of ``code`` and the code objects nested in it,
    with the qualified name of the innermost one that holds it."""
    for _, _, line in code.co_lines():
        if line is not None:
            owners[line] = code.co_qualname
    for const in code.co_consts:
        if isinstance(const, CodeType):
            _code_lines(const, owners)
    return owners


def unreached() -> list[str]:
    """``path:line: text`` for each executable line that did not run and
    ``ALLOWED`` does not name, then each ``ALLOWED`` entry that names no
    unreached line."""
    found, allowed = [], set()
    for path in sorted(SRC.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        texts = source.splitlines()
        reached = _reached.get(str(path), set())
        owners = _code_lines(compile(source, str(path), "exec"), {})
        for line in sorted(owners.keys() - reached):
            key = (path.name, owners[line], texts[line - 1].strip())
            if key in ALLOWED:
                allowed.add(key)
            else:
                found.append(f"{path.relative_to(ROOT)}:{line}: {key[2]}")
    found += [f"allowed but reached or gone: {key}" for key in sorted(ALLOWED.keys() - allowed)]
    return found


def main() -> int:
    os.chdir(ROOT)
    sys.path.insert(0, str(SRC.parent))
    sys.settrace(_trace_call)
    import pytest

    code = pytest.main(
        ["-q", "-p", "no:cacheprovider", "--continue-on-collection-errors", "--hypothesis-seed=0"],
        plugins=[_Rearm()],
    )
    sys.settrace(None)
    if code != 0:
        print(f"the suite failed (pytest exit code {code})", file=sys.stderr)
        return int(code)
    found = unreached()
    for entry in found:
        print(entry)
    print(f"{len(found)} unreached line(s) in {SRC.relative_to(ROOT)}", file=sys.stderr)
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
