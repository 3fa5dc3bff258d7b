"""Outcome comparison along the four behavioral dimensions.

One iteration produces two ExecutionOutcomes; this module decides whether
they differ, and if so where. Evaluation order is fixed so difference
reports are reproducible: exception triage first, then returned state,
injected state, printed output, and finally the external call logs. An
exception is rendered and compared in its ``serialize`` form,
``Type(arg, ...)``, and an external call in its logged text,
``callee(arg, ..., key=value)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import zip_longest
from typing import Iterable, Optional

from .engine import ExecutionOutcome
from .values import ExceptionValue, serialize

EQUIVALENT = "equivalent"
DIFFERENCE = "difference"
ABSTAIN = "abstain"


@dataclass(frozen=True)
class IterationResult:
    """Outcome of comparing one iteration's two executions."""

    status: str
    dimension: Optional[str] = None
    detail: Optional[str] = None

    def __post_init__(self):
        has_diff = self.dimension is not None or self.detail is not None
        if has_diff != (self.status == DIFFERENCE):
            raise ValueError("difference fields present iff status is difference")


# Longest rendered value in a difference detail; longer ones are cut and
# marked with their full length. The comparison itself sees full strings.
_DETAIL_CAP = 1000


def _capped(text: str, at: int = 0) -> str:
    """``text`` whole if it fits the cap; else the cap's worth of it around
    index ``at``, so that the character there stays visible. A window that
    starts past the beginning says where."""
    if len(text) <= _DETAIL_CAP:
        return text
    start = max(min(at - _DETAIL_CAP // 2, len(text) - _DETAIL_CAP), 0)
    end = start + _DETAIL_CAP
    window = f"{'...' if start else ''}{text[start:end]}{'...' if end < len(text) else ''}"
    where = f", from {start}" if start else ""
    return f"{window} [{len(text)} characters{where}]"


def _first_difference(a: str, b: str) -> int:
    """Index of the first character at which ``a`` and ``b`` differ."""
    for i, (x, y) in enumerate(zip(a, b)):
        if x != y:
            return i
    return min(len(a), len(b))


def _difference(
    dimension: str, old: str, new: str, extra: Optional[tuple[str, str]] = None
) -> IterationResult:
    lines = [f"dimension: {dimension}"]
    if extra is not None:
        lines.append(f"{extra[0]}: {_capped(extra[1])}")
    at = _first_difference(old, new)
    lines.append(f"old: {_capped(old, at)}")
    lines.append(f"new: {_capped(new, at)}")
    return IterationResult(
        status=DIFFERENCE, dimension=dimension, detail="\n".join(lines)
    )


def ended_unintended(outcome: ExecutionOutcome) -> bool:
    """Whether a run ended in an unintended exception, the engine's fault
    rather than the code's; an iteration with such a run abstains."""
    exc = outcome.exception
    return exc is not None and not exc.intentional


def _render_exception(exc: Optional[ExceptionValue]) -> str:
    return serialize(exc) if exc is not None else "<no exception>"


def compare(
    old: ExecutionOutcome,
    new: ExecutionOutcome,
    injected: Iterable[tuple[str, str, str]] = (),
) -> IterationResult:
    """Compare the two sides of one iteration.

    Returns abstain when either side ended in an unintended exception (the
    engine's fault rather than the code's), a difference naming the first
    dimension that disagrees, or equivalent. The exceptions the two sides
    ended with are equal when their serialized forms are. ``injected`` is
    the iteration's ``(path, old, new)`` rows of injected state, as
    ``snapshot_injected`` gives them; the first row that differs is named.
    """
    if ended_unintended(old) or ended_unintended(new):
        return IterationResult(status=ABSTAIN)

    if old.exception is not None or new.exception is not None:
        oe, ne = _render_exception(old.exception), _render_exception(new.exception)
        if oe != ne:
            return _difference("exception", oe, ne)

    if old.return_value != new.return_value:
        return _difference(
            "state", str(old.return_value), str(new.return_value)
        )

    for path, ov, nv in injected:
        if ov != nv:
            return _difference("state", ov, nv, extra=("path", path))

    if old.stdout != new.stdout:
        return _difference(
            "output", repr(old.stdout), repr(new.stdout), extra=("stream", "stdout")
        )

    for o, n in zip_longest(old.call_log, new.call_log, fillvalue="<no call>"):
        if o != n:
            return _difference("calls", o, n)

    return IterationResult(status=EQUIVALENT)
