"""Outcome comparison along the four behavioral dimensions.

One iteration produces two ExecutionOutcomes; this module decides whether
they differ, and if so where. Evaluation order is fixed so difference
reports are reproducible: exception triage first, then returned state,
injected state, printed output, and finally the external call logs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .engine import CallLogEntry, ExceptionInfo, ExecutionOutcome

EQUIVALENT = "equivalent"
DIFFERENCE = "difference"
ABSTAIN = "abstain"

DIMENSIONS = ("exception", "state", "output", "calls")


@dataclass(frozen=True)
class IterationResult:
    """Outcome of comparing one iteration's two executions."""

    status: str
    dimension: Optional[str] = None
    detail: Optional[str] = None
    abstain_reason: Optional[str] = None

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


def _render_exception(info: Optional[ExceptionInfo]) -> str:
    return info.render() if info is not None else "<no exception>"


def _call_key(entry: CallLogEntry):
    return (entry.callee, entry.args, entry.kwargs)


def compare(old: ExecutionOutcome, new: ExecutionOutcome) -> IterationResult:
    """Compare the two sides of one iteration.

    Returns abstain when either side died of an unintended exception (the
    engine's fault rather than the code's), a difference naming the first
    dimension that disagrees, or equivalent. Both outcomes come from one
    iteration, so their injected states name the same paths.
    """
    reasons = []
    for outcome in (old, new):
        exc = outcome.exception
        if exc is not None and not exc.intentional:
            reasons.append(f"{outcome.side}: {exc.render()}")
    if reasons:
        return IterationResult(
            status=ABSTAIN,
            abstain_reason="unintended exception; " + "; ".join(reasons),
        )

    oe, ne = old.exception, new.exception
    if (oe is None) != (ne is None):
        return _difference(
            "exception", _render_exception(oe), _render_exception(ne)
        )
    if oe is not None and ne is not None:
        if (oe.type_name, oe.args) != (ne.type_name, ne.args):
            return _difference("exception", oe.render(), ne.render())

    if old.return_value != new.return_value:
        return _difference(
            "state", str(old.return_value), str(new.return_value)
        )

    for path, ov in old.injected_state.items():
        nv = new.injected_state[path]
        if ov != nv:
            return _difference("state", ov, nv, extra=("path", path))

    if old.stdout != new.stdout:
        return _difference(
            "output", repr(old.stdout), repr(new.stdout), extra=("stream", "stdout")
        )

    for i in range(max(len(old.call_log), len(new.call_log))):
        o = old.call_log[i] if i < len(old.call_log) else None
        n = new.call_log[i] if i < len(new.call_log) else None
        if o is None or n is None:
            return _difference(
                "calls",
                o.render() if o is not None else "<no call>",
                n.render() if n is not None else "<no call>",
            )
        if _call_key(o) != _call_key(n):
            return _difference("calls", o.render(), n.render())

    return IterationResult(status=EQUIVALENT)
