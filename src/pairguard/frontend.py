"""Parsing and static analysis of subject-language functions.

The subject language is an indentation-blocked, dynamically typed language
whose surface syntax is a strict subset of Python's, so parsing builds on the
standard ``ast`` module. The engine's compiler then makes the one walk of
each version: it rejects everything outside the supported grammar, compiles
what a call of the function runs, and records the static facts (literals,
isinstance class arguments, calls guarded by ``try``) with names
rename-merged, both versions into the one ``StaticFacts`` of their pair.
This module also computes changed lines between two versions, merges
renamed identifiers, and decides whether a pair's two sides are one program.
"""

from __future__ import annotations

import ast
import builtins
import difflib
from dataclasses import dataclass
from typing import Any, Callable, Optional

from .engine import StaticFacts, compile_function, reject


@dataclass
class SourceFunction:
    """One parsed function version, compiled; ``body`` is the closure a call
    of the function runs."""

    name: str
    params: list[str]
    node: ast.FunctionDef
    code_lines: frozenset[int]
    body: Callable


@dataclass
class FunctionPair:
    """The two versions under comparison, names merged, the lines each
    version changes, and the static facts of both, the old version's
    literals before the new one's.

    ``identical`` is set when both sides compile to the same program once
    names are merged, so that a run of the new side repeats the old one.
    With no renames, that is when the sources are one text. With renames,
    it is when (a) the two ``FunctionDef`` trees are equal field by field
    once each side's names are merged, line numbers included and columns
    left out, constants compared by type and ``repr``; (b) on each side
    every occurrence of a renamed name is an ``ast.Name``; and (c) no
    renamed name is a builtin. Any other role reaches a run through its raw
    name: a ``def`` name renders in a function value, a parameter in the
    missing-argument fault, a keyword in the external call log, an
    attribute in the native-method check, ``e.args`` and the
    attribute-store fault, and a builtin in builtin dispatch and in the
    matching of host exception types."""

    old: SourceFunction
    new: SourceFunction
    changed_lines_old: frozenset[int]
    changed_lines_new: frozenset[int]
    facts: StaticFacts
    identical: bool = False


def code_line_numbers(source: str) -> frozenset[int]:
    """1-based numbers of lines that are neither blank nor comment-only."""
    out = set()
    for i, line in enumerate(source.splitlines(), start=1):
        stripped = line.strip()
        if stripped and not stripped.startswith("#"):
            out.add(i)
    return frozenset(out)


def parse_function(
    source: str, renamer: Optional[Renamer] = None, facts: Optional[StaticFacts] = None
) -> SourceFunction:
    """Parse and compile a single function definition written in the subject
    language, merging its names through ``renamer`` (by default none are)
    and recording its static facts into ``facts`` (by default a fresh record).

    Raises SyntaxError (with line and column) for malformed input and for any
    construct outside the supported grammar, including expressions nested too
    deeply to parse or compile.
    """
    try:
        return _parse_function(
            source,
            renamer if renamer is not None else Renamer({}, "old"),
            facts if facts is not None else StaticFacts(),
        )
    except RecursionError:
        first_line = source.partition("\n")[0]
        raise SyntaxError(
            "expression nested too deeply", ("<pair>", 1, 1, first_line)
        ) from None


def _parse_function(source: str, renamer: Renamer, facts: StaticFacts) -> SourceFunction:
    tree = ast.parse(source)
    functions = [n for n in tree.body if isinstance(n, ast.FunctionDef)]
    if isinstance(tree.body[0] if tree.body else None, ast.AsyncFunctionDef):
        reject(tree.body[0], "asynchronous functions are not supported", source)
    if len(tree.body) != 1 or len(functions) != 1:
        node = tree.body[0] if tree.body else ast.Pass(lineno=1, col_offset=0)
        reject(node, "expected exactly one function definition", source)
    node = functions[0]
    body = compile_function(node, source, renamer.merge, facts)
    return SourceFunction(
        name=node.name,
        params=[a.arg for a in node.args.args],
        node=node,
        code_lines=code_line_numbers(source),
        body=body,
    )


def diff_changed_lines(old_text: str, new_text: str) -> tuple[set[int], set[int]]:
    """Line numbers outside the longest-common-subsequence alignment.

    Lines are compared with surrounding whitespace stripped, so a pure
    re-indentation does not count as a change.
    """
    old_lines = [line.strip() for line in old_text.splitlines()]
    new_lines = [line.strip() for line in new_text.splitlines()]
    matcher = difflib.SequenceMatcher(a=old_lines, b=new_lines, autojunk=False)
    changed_old: set[int] = set()
    changed_new: set[int] = set()
    for tag, i1, i2, j1, j2 in matcher.get_opcodes():
        if tag == "equal":
            continue
        changed_old.update(range(i1 + 1, i2 + 1))
        changed_new.update(range(j1 + 1, j2 + 1))
    return changed_old, changed_new


def make_pair(
    old_source: str,
    new_source: str,
    renames: Optional[dict[str, str]] = None,
    entry: Optional[str] = None,
) -> FunctionPair:
    """Parse and compile both versions, old first, each side's names merged
    through its renamer and its static facts recorded into the pair's one
    record, and assemble the pair with its changed-line sets.

    Changed-line sets keep only lines that execution can actually reach,
    i.e. comment-only and blank lines are dropped. Both sides are compiled
    even when identical: each side's literals count in the pools that
    injected values are drawn from.

    ``identical`` follows the one-program rule of ``FunctionPair``. A
    renamed pair's sides are walked once each into a merged form that
    (a) compares, collecting the identifiers that (b) and (c) check.
    Raises ValueError when a merged name ``o_renamed_n`` already occurs as
    an identifier in either source, which would merge two variables.
    """
    renames = dict(renames) if renames else {}
    values = list(renames.values())
    if len(set(values)) != len(values):
        raise ValueError("rename map values must be distinct")
    for name in (*renames, *values):
        if not isinstance(name, str) or not name.isidentifier():
            raise ValueError("rename map entries must be identifiers")
    facts = StaticFacts()
    old_renamer, new_renamer = Renamer(renames, "old"), Renamer(renames, "new")
    old = parse_function(old_source, old_renamer, facts)
    new = parse_function(new_source, new_renamer, facts)
    if entry is not None:
        for side, fn in (("old", old), ("new", new)):
            if fn.name != entry:
                raise ValueError(
                    f"entry {entry!r} does not match the {side} function {fn.name!r}"
                )
    identical = old_source == new_source
    if renames:
        merged, forms, plain = set(old_renamer.table.values()), [], True
        for side, fn, renamer in (("old", old, old_renamer), ("new", new, new_renamer)):
            form, names, other = _merged_form(fn.node, renamer.merge)
            taken = merged & (names | other)
            if taken:
                raise ValueError(
                    f"merged name {min(taken)!r} already occurs in the {side} function"
                )
            forms.append(form)
            plain = plain and renamer.table.keys().isdisjoint(other.union(vars(builtins)))
        identical = plain and forms[0] == forms[1]
    raw_old, raw_new = diff_changed_lines(old_source, new_source)
    return FunctionPair(
        old=old,
        new=new,
        changed_lines_old=frozenset(raw_old & old.code_lines),
        changed_lines_new=frozenset(raw_new & new.code_lines),
        facts=facts,
        identical=identical,
    )


def _merged_form(node: ast.FunctionDef, merge: Callable[[str], str]) -> tuple:
    """One side's tree as a hashable form, in one walk, with the side's
    ``ast.Name`` ids and its other identifiers: def, parameter, keyword,
    attribute and handler names. A node is its type, line numbers (columns
    left out) and fields in order; a Name is its merged id and context
    type; a constant is its type and ``repr``, since ``1 == True == 1.0``."""
    names: set[str] = set()
    other: set[str] = set()

    def form(value: Any) -> Any:
        if isinstance(value, list):
            return tuple(map(form, value))
        if isinstance(value, str):
            other.add(value)
            return value
        if not isinstance(value, ast.AST):
            return value
        head = (type(value), getattr(value, "lineno", None), getattr(value, "end_lineno", None))
        if isinstance(value, ast.Name):
            names.add(value.id)
            return (*head, merge(value.id), type(value.ctx))
        if isinstance(value, ast.Constant):
            return (*head, type(value.value), repr(value.value))
        return (*head, *map(form, [getattr(value, field, None) for field in value._fields]))

    result = form(node)
    del form  # form's closure refers to form; unbinding it leaves no cycle
    return result, names, other


class Renamer:
    """Maps side-local identifiers to merged names.

    A name covered by the rename map becomes ``old_renamed_new`` on both
    sides; everything else passes through unchanged.
    """

    def __init__(self, renames: dict[str, str], side: str):
        if side == "old":
            self.table = {o: f"{o}_renamed_{n}" for o, n in renames.items()}
        elif side == "new":
            self.table = {n: f"{o}_renamed_{n}" for o, n in renames.items()}
        else:
            raise ValueError(f"unknown side: {side!r}")

    def merge(self, name: str) -> str:
        return self.table.get(name, name)


def extract_static_facts(pair: FunctionPair) -> StaticFacts:
    """The static facts of both versions of ``pair``."""
    return pair.facts
