"""Predicting the likely kind of a missing value.

A predictor answers one question: given an undefined name read in some
syntactic context, how likely is each abstract kind? Two implementations
live here. The heuristic predictor is a small rule chain over the name and
its usage context. The table predictor replays externally trained
distributions loaded from JSON, whatever the context, and falls back to
the heuristic for names it has never seen.
"""

from __future__ import annotations

import json
import math
import re
from bisect import bisect_right
from dataclasses import dataclass
from typing import Optional

from .values import AbstractValue, LABEL_TO_KIND

QUERY_KINDS = ("variable-read", "attribute-read", "call-return", "subscript-result")


class FormatError(ValueError):
    """A predictor table file does not have the expected shape."""


@dataclass(frozen=True)
class InjectionQuery:
    """One request for a missing value.

    ``kind`` says how the name was reached (variable read, attribute read,
    call return, subscript result), ``name`` is the identifier the run
    reads, and ``context`` is the source text of the statement performing
    the read, or of the compound-statement header part (test, iterable,
    ``with`` item) that contains it. On a renamed pair the run reads a
    renamed name as its merged name ``o_renamed_n``; the query says ``o``,
    as the old side writes it, in its name and in its context. A query is
    built, and its context rendered, only for a read that
    ``Predictor.lookup`` does not answer.
    """

    kind: str
    name: str
    context: str = ""

    def __post_init__(self):
        if self.kind not in QUERY_KINDS:
            raise ValueError(f"unknown query kind: {self.kind!r}")


class Distribution:
    """Probability distribution over the twelve abstract kinds."""

    __slots__ = ("weights", "_sums", "_kinds")

    def __init__(self, weights: dict[AbstractValue, float]):
        total = 0.0
        for kind, w in weights.items():
            if not isinstance(kind, AbstractValue):
                raise ValueError(f"not an abstract kind: {kind!r}")
            # A NaN would pass the sum check below: NaN comparisons are false.
            if not math.isfinite(w):
                raise ValueError(f"non-finite weight for {kind.value}: {w}")
            if w < 0:
                raise ValueError(f"negative weight for {kind.value}: {w}")
            total += w
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"weights sum to {total}, expected 1.0")
        self.weights = {k: weights.get(k, 0.0) for k in AbstractValue}
        # Running sums over the positive weights in the fixed enum order, and
        # the kind each sum ends; the last kind once more, for a draw past
        # the last sum.
        sums, kinds = [], []
        acc = 0.0
        for kind, w in self.weights.items():
            if w <= 0.0:
                continue
            acc += w
            sums.append(acc)
            kinds.append(kind)
        self._sums = tuple(sums)
        self._kinds = (*kinds, kinds[-1])

    def get(self, kind: AbstractValue) -> float:
        return self.weights[kind]

    def sample(self, rng) -> AbstractValue:
        """Draw one kind: the first, in the fixed enum order, whose running
        sum exceeds ``rng.random()``, or the last kind when float slack
        leaves the draw not below the last sum."""
        return self._kinds[bisect_right(self._sums, rng.random())]

    def __eq__(self, other):
        if not isinstance(other, Distribution):
            return NotImplemented
        return self.weights == other.weights

    def __repr__(self):
        parts = ", ".join(f"{k.value}: {w:g}" for k, w in self.weights.items() if w > 0)
        return f"Distribution({{{parts}}})"


# Most of the mass on one kind, a uniform floor on the rest; one per kind.
_HEAVY = {
    kind: Distribution({k: 0.56 if k is kind else 0.04 for k in AbstractValue})
    for kind in AbstractValue
}

# Fallback for plain variable reads with no better signal: objects dominate,
# common container and primitive kinds share the rest.
_MIXED_DEFAULT = Distribution(
    {
        AbstractValue.OBJECT: 0.30,
        AbstractValue.LIST: 0.14,
        AbstractValue.STRING: 0.12,
        AbstractValue.INTEGER: 0.10,
        AbstractValue.DICTIONARY: 0.08,
        AbstractValue.NONE: 0.06,
        AbstractValue.BOOLEAN: 0.06,
        AbstractValue.TUPLE: 0.04,
        AbstractValue.FLOAT: 0.04,
        AbstractValue.SET: 0.02,
        AbstractValue.CALLABLE: 0.02,
        AbstractValue.RESOURCE: 0.02,
    }
)

_BOOL_PREFIXES = ("is_", "has_", "can_", "should_")
_BOOL_NAMES = {
    "flag",
    "enabled",
    "active",
    "valid",
    "ok",
    "done",
    "found",
    "exists",
    "debug",
    "verbose",
    "strict",
    "reverse",
    "required",
    "success",
    "ready",
}
_INT_PARTS = {
    "count",
    "cnt",
    "size",
    "len",
    "length",
    "index",
    "idx",
    "n",
    "num",
    "number",
    "total",
    "max",
    "min",
    "limit",
    "offset",
    "depth",
    "width",
    "height",
}
_DICT_PARTS = {
    "map",
    "dict",
    "meta",
    "kwargs",
    "config",
    "options",
    "params",
    "headers",
    "env",
    "attrs",
    "mapping",
    "cache",
}
_STR_PARTS = {
    "name",
    "msg",
    "message",
    "path",
    "key",
    "text",
    "title",
    "url",
    "label",
    "word",
    "prefix",
    "suffix",
    "reason",
    "filename",
}

# Operators that put an adjacent name in a numeric context. Plus is left
# out on purpose: it is as often string or list concatenation.
_NUMERIC_OP = r"(?:<=|>=|//|[<>\-*/%])"
# Matched around each occurrence of the name in its context: the operator
# after it (from the end of the name) or before it (up to its start, via
# ``endpos``), and a word character bounding it on either side.
_OP_AHEAD = re.compile(rf"\s*{_NUMERIC_OP}")
_OP_BEHIND = re.compile(rf"{_NUMERIC_OP}\s*\Z")
_RANGE_BEHIND = re.compile(r"range\(\s*\Z")
_WORD_CHAR = re.compile(r"[A-Za-z0-9_]")


class Predictor:
    """Answers for missing values, in two steps: ``lookup`` gives, without
    the context, an answer that holds whatever the context is, or None;
    ``predict`` answers a full query, context included."""

    def lookup(self, kind: str, name: str) -> Optional[Distribution]:
        return None

    def predict(self, query: InjectionQuery) -> Distribution:
        raise NotImplementedError


class HeuristicPredictor(Predictor):
    """Name- and context-based rule chain; first matching rule wins."""

    def predict(self, query: InjectionQuery) -> Distribution:
        name = query.name
        lowered = name.lower()
        parts = [p for p in lowered.split("_") if p]

        if lowered.startswith(_BOOL_PREFIXES) or lowered in _BOOL_NAMES:
            return _HEAVY[AbstractValue.BOOLEAN]
        if self._numeric_context(name, query.context):
            return _HEAVY[AbstractValue.INTEGER]
        if any(p in _INT_PARTS for p in parts):
            return _HEAVY[AbstractValue.INTEGER]
        if any(p in _DICT_PARTS for p in parts) or lowered.endswith(("_map", "_dict")):
            return _HEAVY[AbstractValue.DICTIONARY]
        if any(p in _STR_PARTS for p in parts):
            return _HEAVY[AbstractValue.STRING]
        if lowered.endswith(("_list", "_items")):
            return _HEAVY[AbstractValue.LIST]
        if (
            query.kind == "variable-read"
            and len(lowered) > 3
            and lowered.endswith("s")
            and not lowered.endswith("ss")
        ):
            return _HEAVY[AbstractValue.LIST]
        if lowered in ("self", "cls", "obj", "instance"):
            return _HEAVY[AbstractValue.OBJECT]
        if query.kind in ("attribute-read", "call-return"):
            return _HEAVY[AbstractValue.OBJECT]
        return _MIXED_DEFAULT

    @staticmethod
    def _numeric_context(name: str, context: str) -> bool:
        """Whether the name sits next to an arithmetic or ordering operator,
        or first in a ``range(`` call, with no word character on its other
        side."""
        if not context:
            return False
        i = context.find(name)
        while i >= 0:
            end = i + len(name)
            if (i == 0 or not _WORD_CHAR.match(context, i - 1)) and _OP_AHEAD.match(
                context, end
            ):
                return True
            if not _WORD_CHAR.match(context, end) and (
                _OP_BEHIND.search(context, 0, i) or _RANGE_BEHIND.search(context, 0, i)
            ):
                return True
            i = context.find(name, i + 1)
        return False


class TablePredictor(Predictor):
    """Exact-match lookup table keyed by (query kind, name): ``lookup``
    gives an entry whatever the context, and a query the table does not
    hold is answered by the heuristic predictor."""

    def __init__(self, entries: dict[tuple[str, str], Distribution]):
        self.entries = dict(entries)

    def lookup(self, kind: str, name: str) -> Optional[Distribution]:
        return self.entries.get((kind, name))

    def predict(self, query: InjectionQuery) -> Distribution:
        hit = self.lookup(query.kind, query.name)
        if hit is not None:
            return hit
        return _HEURISTIC.predict(query)


_HEURISTIC = HeuristicPredictor()


def _parse_weights(raw: object) -> Distribution:
    if not isinstance(raw, dict):
        raise FormatError(f"weights must be an object, got {type(raw).__name__}")
    weights: dict[AbstractValue, float] = {}
    for label, value in raw.items():
        kind = LABEL_TO_KIND.get(label)
        if kind is None:
            raise FormatError(f"unknown kind label: {label!r}")
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise FormatError(f"weight for {label!r} must be a number")
        try:
            weights[kind] = float(value)
        except OverflowError as exc:
            raise FormatError(f"weight for {label!r} is out of range") from exc
    try:
        return Distribution(weights)
    except ValueError as exc:
        raise FormatError(str(exc)) from exc


def load_table_predictor(path: str) -> TablePredictor:
    """Load a table predictor from a JSON file.

    Expected shape::

        {"entries": [{"kind": "variable-read", "name": "xs",
                      "weights": {"List": 0.9, "Tuple": 0.1}}, ...]}

    Raises FormatError for anything that does not match, including duplicate
    (kind, name) pairs.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise FormatError(f"cannot load predictor table {path!r}: {exc}") from exc
    if not isinstance(data, dict) or "entries" not in data:
        raise FormatError("top level must be an object with an 'entries' list")
    raw_entries = data["entries"]
    if not isinstance(raw_entries, list):
        raise FormatError("'entries' must be a list")
    entries: dict[tuple[str, str], Distribution] = {}
    for i, raw in enumerate(raw_entries):
        if not isinstance(raw, dict):
            raise FormatError(f"entry {i} must be an object")
        missing = {"kind", "name", "weights"} - raw.keys()
        if missing:
            raise FormatError(f"entry {i} is missing {sorted(missing)}")
        kind, name = raw["kind"], raw["name"]
        if kind not in QUERY_KINDS:
            raise FormatError(f"entry {i} has unknown query kind {kind!r}")
        if not isinstance(name, str):
            raise FormatError(f"entry {i} name must be a string")
        key = (kind, name)
        if key in entries:
            raise FormatError(f"duplicate entry for {key}")
        entries[key] = _parse_weights(raw["weights"])
    return TablePredictor(entries)
