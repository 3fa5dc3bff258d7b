"""Parsing and static analysis of subject-language functions.

The subject language is an indentation-blocked, dynamically typed language
whose surface syntax is a strict subset of Python's, so parsing builds on the
standard ``ast`` module. The engine's compiler then makes the one walk of
each version: it rejects everything outside the supported grammar, compiles
what a call of the function runs, and records the static facts (literals,
isinstance class arguments, calls guarded by ``try``), both versions into
the one ``StaticFacts`` of their pair. Before that, this module rewrites each
version's tree through its side of the rename map, so the compiler sees
renamed identifiers merged. It also computes changed lines between two
versions and decides whether a pair's two sides are one program.
"""

from __future__ import annotations

import ast
import difflib
from dataclasses import dataclass, field
from typing import Callable, Optional

from .engine import _BUILTINS, StaticFacts, compile_function, reject


@dataclass
class SourceFunction:
    """One parsed function version, names merged and compiled. ``name`` is
    the def's name as written; ``params`` and ``node`` carry merged names,
    and ``body`` is the closure a call of the function runs."""

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

    ``identical`` is set when both sides compile to the same program, so
    that a run of the new side repeats the old one. A side compiles from
    its tree alone, names merged, so with no renames that is when the
    sources are one text, and with renames when the two merged
    ``FunctionDef`` trees are equal field by field, line numbers included
    and columns left out, constants compared by type and ``repr``.

    ``old_names`` maps each merged name to the name the old side writes."""

    old: SourceFunction
    new: SourceFunction
    changed_lines_old: frozenset[int]
    changed_lines_new: frozenset[int]
    facts: StaticFacts
    identical: bool = False
    old_names: dict[str, str] = field(default_factory=dict)


def code_line_numbers(source: str) -> frozenset[int]:
    """1-based numbers of lines that are neither blank nor comment-only."""
    out = set()
    for i, line in enumerate(source.splitlines(), start=1):
        stripped = line.strip()
        if stripped and not stripped.startswith("#"):
            out.add(i)
    return frozenset(out)


def parse_function(source: str, facts: Optional[StaticFacts] = None) -> SourceFunction:
    """Parse and compile a single function definition written in the subject
    language, recording its static facts into ``facts`` (by default a fresh
    record).

    Raises SyntaxError (with line and column) for malformed input and for any
    construct outside the supported grammar, including expressions nested too
    deeply to parse or compile.
    """
    return _parse_function(source, facts if facts is not None else StaticFacts())[0]


def _parse_function(
    source: str, facts: StaticFacts, table: Optional[dict[str, str]] = None, side: str = ""
) -> tuple[SourceFunction, Optional[tuple]]:
    """``parse_function``'s work on the ``side`` whose names ``table`` maps
    to merged names, rewritten before compiling; with the merged form
    ``_merge`` gives of the tree, or None without a table."""
    try:
        tree = ast.parse(source)
        functions = [n for n in tree.body if isinstance(n, ast.FunctionDef)]
        if isinstance(tree.body[0] if tree.body else None, ast.AsyncFunctionDef):
            reject(tree.body[0], "asynchronous functions are not supported", source)
        if len(tree.body) != 1 or len(functions) != 1:
            node = tree.body[0] if tree.body else ast.Pass(lineno=1, col_offset=0)
            reject(node, "expected exactly one function definition", source)
        node = functions[0]
        name = node.name
        form = _merge(node, table, side) if table else None
        body = compile_function(node, source, facts)
    except RecursionError:
        first_line = source.partition("\n")[0]
        raise SyntaxError(
            "expression nested too deeply", ("<pair>", 1, 1, first_line)
        ) from None
    fn = SourceFunction(
        name=name,
        params=[a.arg for a in node.args.args],
        node=node,
        code_lines=code_line_numbers(source),
        body=body,
    )
    return fn, form


def _merge(node: ast.FunctionDef, table: dict[str, str], side: str) -> tuple:
    """Rewrite every identifier of ``node`` that ``table`` maps, in every
    role (a Name's id, a def, parameter, keyword, attribute or handler
    name), except a Name of a builtin that ``node`` binds nowhere: that
    Name dispatches the builtin by its name. Return the tree as a hashable
    form made on the same walk: one row per node in ``ast.walk`` order, of
    its type, line numbers (columns left out) and fields, with a child node
    as ``ast.AST``; a constant's row holds its type and ``repr``, since
    ``1 == True == 1.0``. Raises ValueError when the tree already uses one
    of ``table``'s merged names, which would merge two variables."""
    merged = set(table.values())
    builtins = table.keys() & _BUILTINS
    if builtins:
        builtins -= _bound_names(node)
    rows = []
    for sub in ast.walk(node):
        row = [type(sub), getattr(sub, "lineno", None), getattr(sub, "end_lineno", None)]
        if isinstance(sub, ast.Constant):
            rows.append((*row, type(sub.value), repr(sub.value)))
            continue
        for field, value in ast.iter_fields(sub):
            if isinstance(value, str):
                if value in merged:
                    raise ValueError(
                        f"merged name {value!r} already occurs in the {side} function"
                    )
                if value in table and not (value in builtins and isinstance(sub, ast.Name)):
                    value = table[value]
                    setattr(sub, field, value)
            elif isinstance(value, list):
                value = tuple(ast.AST if isinstance(v, ast.AST) else v for v in value)
            elif isinstance(value, ast.AST):
                value = ast.AST
            row.append(value)
        rows.append(tuple(row))
    return tuple(rows)


def _bound_names(node: ast.FunctionDef) -> set[str]:
    """Every name that ``node`` binds in some scope: def and parameter
    names, store targets and handler names."""
    bound = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.FunctionDef):
            bound.add(sub.name)
        elif isinstance(sub, ast.arg):
            bound.add(sub.arg)
        elif isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Store):
            bound.add(sub.id)
        elif isinstance(sub, ast.ExceptHandler) and sub.name:
            bound.add(sub.name)
    return bound


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
    through its table and its static facts recorded into the pair's one
    record, and assemble the pair with its changed-line sets.

    A rename ``o`` -> ``n`` merges ``o`` on the old side and ``n`` on the
    new one into ``o_renamed_n``. Changed-line sets keep only lines that
    execution can actually reach, i.e. comment-only and blank lines are
    dropped. Both sides are compiled even when identical: each side's
    literals count in the pools that injected values are drawn from.

    ``identical`` follows the one-program rule of ``FunctionPair``: a
    renamed pair compares the merged forms its rewrite walks made. Raises
    ValueError when ``entry`` is not the name either def is written with,
    or when a merged name already occurs as an identifier in either source.
    """
    renames = dict(renames) if renames else {}
    values = list(renames.values())
    if len(set(values)) != len(values):
        raise ValueError("rename map values must be distinct")
    for name in (*renames, *values):
        if not isinstance(name, str) or not name.isidentifier():
            raise ValueError("rename map entries must be identifiers")
    facts = StaticFacts()
    merged = {o: f"{o}_renamed_{n}" for o, n in renames.items()}
    old, old_form = _parse_function(old_source, facts, merged, "old")
    new, new_form = _parse_function(
        new_source, facts, {n: merged[o] for o, n in renames.items()}, "new"
    )
    if entry is not None:
        for side, fn in (("old", old), ("new", new)):
            if fn.name != entry:
                raise ValueError(
                    f"entry {entry!r} does not match the {side} function {fn.name!r}"
                )
    identical = old_form == new_form if renames else old_source == new_source
    raw_old, raw_new = diff_changed_lines(old_source, new_source)
    return FunctionPair(
        old=old,
        new=new,
        changed_lines_old=frozenset(raw_old & old.code_lines),
        changed_lines_new=frozenset(raw_new & new.code_lines),
        facts=facts,
        identical=identical,
        old_names={m: o for o, m in merged.items()},
    )


def extract_static_facts(pair: FunctionPair) -> StaticFacts:
    """The static facts of both versions of ``pair``.

    It only reads ``pair.facts``, but it stays a function: the benchmark's
    tracer (``perfbench/tracer.py``) wraps it by this name to report the
    ``frontend.extract_static_facts`` layer that ``BENCHMARK.json`` lists,
    and CI's traced benchmark step fails when a wrapped name is missing."""
    return pair.facts
