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
    names are merged, so that a run of the new side repeats the old one:
    with no renames, when the sources are one text; with renames, when the
    merged trees are equal with their line numbers, every renamed name is
    a plain ``ast.Name`` on its side, and none is a builtin. Any other role
    reaches a run through its raw name: a ``def`` name renders in a
    function value, a parameter in the missing-argument fault, a keyword
    in the external call log, an attribute in the native-method check,
    ``e.args`` and the attribute-store fault, and a builtin in builtin
    dispatch and in the matching of host exception types."""

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

    With no renames the pair is identical when the sources are one text.
    With renames it is identical when (a) the two ``FunctionDef`` trees are
    equal field by field once each side's names are merged, line numbers
    included and columns left out, constants compared by type and ``repr``;
    (b) on each side every occurrence of a renamed name is an ``ast.Name``;
    and (c) no renamed name is a builtin (see ``FunctionPair``). Raises
    ValueError when a merged name ``o_renamed_n`` already occurs as an
    identifier in either source, which would merge two variables into one.
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
        old_names, old_other = _identifiers(old.node)
        new_names, new_other = _identifiers(new.node)
        merged = set(old_renamer.table.values())
        for side, names in (("old", old_names), ("new", new_names)):
            taken = merged & names
            if taken:
                raise ValueError(
                    f"merged name {min(taken)!r} already occurs in the {side} function"
                )
        identical = _one_program(old, new, old_other, new_other, old_renamer, new_renamer)
    raw_old, raw_new = diff_changed_lines(old_source, new_source)
    return FunctionPair(
        old=old,
        new=new,
        changed_lines_old=frozenset(raw_old & old.code_lines),
        changed_lines_new=frozenset(raw_new & new.code_lines),
        facts=facts,
        identical=identical,
    )


_BUILTIN_NAMES = frozenset(vars(builtins))


def _identifiers(node: ast.AST) -> tuple[set[str], set[str]]:
    """Every identifier in ``node``'s tree, and those of them that are not
    an ``ast.Name`` id: def, parameter, keyword, attribute and handler
    names."""
    names: set[str] = set()
    other: set[str] = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            names.add(n.id)
        elif not isinstance(n, ast.Constant):
            for field in n._fields:
                value = getattr(n, field, None)
                if isinstance(value, str):
                    other.add(value)
                elif isinstance(value, list):
                    other.update(v for v in value if isinstance(v, str))
    return names | other, other


def _one_program(
    old: SourceFunction,
    new: SourceFunction,
    old_other: set[str],
    new_other: set[str],
    old_renamer: Renamer,
    new_renamer: Renamer,
) -> bool:
    """Conditions (a)-(c) of ``make_pair`` for a renamed pair, given each
    side's identifiers that are not ``ast.Name`` ids."""
    renamed_old, renamed_new = old_renamer.table.keys(), new_renamer.table.keys()
    if not _BUILTIN_NAMES.isdisjoint(renamed_old | renamed_new):
        return False
    if not (old_other.isdisjoint(renamed_old) and new_other.isdisjoint(renamed_new)):
        return False
    # (b) holds, so the merge leaves every identifier but a Name id as it is.
    return _same_tree(old.node, new.node, old_renamer.merge, new_renamer.merge)


def _same_tree(a: Any, b: Any, merge_a: Callable, merge_b: Callable) -> bool:
    """Whether two trees are equal field by field with ``ast.Name`` ids
    merged, line numbers compared and columns not; a constant by type and
    ``repr``, since ``1 == True == 1.0``."""
    if type(a) is not type(b):
        return False
    if isinstance(a, list):
        if len(a) != len(b):
            return False
        for x, y in zip(a, b):
            if not _same_tree(x, y, merge_a, merge_b):
                return False
        return True
    if not isinstance(a, ast.AST):
        return a == b
    if getattr(a, "lineno", None) != getattr(b, "lineno", None) or getattr(
        a, "end_lineno", None
    ) != getattr(b, "end_lineno", None):
        return False
    if isinstance(a, ast.Name):
        return merge_a(a.id) == merge_b(b.id) and type(a.ctx) is type(b.ctx)
    if isinstance(a, ast.Constant):
        return type(a.value) is type(b.value) and repr(a.value) == repr(b.value)
    for field in a._fields:
        if not _same_tree(getattr(a, field, None), getattr(b, field, None), merge_a, merge_b):
            return False
    return True


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
