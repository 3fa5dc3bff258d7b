"""Parsing and static analysis of subject-language functions.

The subject language is an indentation-blocked, dynamically typed language
whose surface syntax is a strict subset of Python's, so parsing builds on the
standard ``ast`` module followed by a validator that rejects everything
outside the supported grammar. The validator's visit is the one walk of each
version: as it checks a node it also records which functions yield and the
raw static facts (literals, isinstance class arguments, calls guarded by
``try``). This module also computes changed lines between two versions,
merges renamed identifiers, and merges the recorded facts of both versions
into the ``StaticFacts`` the execution engine needs.
"""

from __future__ import annotations

import ast
import difflib
from dataclasses import dataclass, field
from typing import Optional

# The operators of the subject language by AST type, with the symbol the
# engine evaluates each by; the validator accepts exactly these.
BINOP_SYMBOLS = {
    ast.Add: "+",
    ast.Sub: "-",
    ast.Mult: "*",
    ast.Div: "/",
    ast.FloorDiv: "//",
    ast.Mod: "%",
    ast.Pow: "**",
}
COMPARE_SYMBOLS = {
    ast.Eq: "==",
    ast.NotEq: "!=",
    ast.Lt: "<",
    ast.LtE: "<=",
    ast.Gt: ">",
    ast.GtE: ">=",
    ast.In: "in",
    ast.NotIn: "not in",
    ast.Is: "is",
    ast.IsNot: "is not",
}
_ALLOWED_AUGOPS = (ast.Add, ast.Sub, ast.Mult, ast.Div, ast.FloorDiv, ast.Mod)
_ALLOWED_UNARYOPS = (ast.Not, ast.USub)


@dataclass
class SourceFunction:
    """One parsed function version, with what its validation recorded.

    ``generators`` holds every ``def`` (the root included) whose own body
    yields. The literal lists are in AST field order, the order the literal
    pools are sampled in. ``isinstance_args`` holds the second argument of
    each two-argument ``isinstance`` call, and ``guarded_calls`` each ``try``
    with handlers naming exception types: those raw names and every call in
    its body, nested ``def``s and ``try``s included. Names are not yet
    rename-merged.
    """

    name: str
    params: list[str]
    body: list
    line_count: int
    node: ast.FunctionDef
    is_generator: bool
    code_lines: frozenset[int]
    generators: frozenset[ast.FunctionDef]
    literals_int: list[int]
    literals_float: list[float]
    literals_str: list[str]
    isinstance_args: list[ast.expr]
    guarded_calls: list[tuple[tuple[str, ...], list[ast.Call]]]


@dataclass
class FunctionPair:
    """The two versions under comparison plus diff and rename metadata."""

    old: SourceFunction
    new: SourceFunction
    renames: dict[str, str]
    changed_lines_old: frozenset[int]
    changed_lines_new: frozenset[int]


@dataclass
class StaticFacts:
    """Facts mined from both versions that guide value injection."""

    literals_int: list[int] = field(default_factory=list)
    literals_float: list[float] = field(default_factory=list)
    literals_str: list[str] = field(default_factory=list)
    isinstance_classes: set[str] = field(default_factory=set)
    call_exception_map: dict[str, frozenset[str]] = field(default_factory=dict)


def _reject(node: ast.AST, message: str, source: str) -> None:
    lineno = getattr(node, "lineno", 1)
    col = getattr(node, "col_offset", 0)
    lines = source.splitlines()
    text = lines[lineno - 1] if 0 < lineno <= len(lines) else ""
    raise SyntaxError(message, ("<pair>", lineno, col + 1, text))


class _SubsetValidator:
    """Reject constructs outside the subject-language grammar, recording the
    facts a ``SourceFunction`` carries on the way.

    Children are visited in AST field order, so literals are recorded in
    that order: a dict's keys before its values, a comprehension's element
    before its generators.
    """

    def __init__(self, source: str):
        self.source = source
        self.loop_depth = 0
        self.function: Optional[ast.FunctionDef] = None
        self.generators: set[ast.FunctionDef] = set()
        self.literals_int: list[int] = []
        self.literals_float: list[float] = []
        self.literals_str: list[str] = []
        self.isinstance_args: list[ast.expr] = []
        self.guarded_calls: list[tuple[tuple[str, ...], list[ast.Call]]] = []
        # The call lists of the try bodies being visited, innermost last.
        self.try_calls: list[list[ast.Call]] = []

    def reject(self, node, message):
        _reject(node, message, self.source)

    def validate_function(self, node: ast.FunctionDef):
        if node.decorator_list:
            self.reject(node, "decorators are not supported")
        if node.returns is not None:
            self.reject(node, "return annotations are not supported")
        a = node.args
        if a.posonlyargs or a.kwonlyargs or a.vararg or a.kwarg:
            self.reject(node, "only plain positional parameters are supported")
        if a.defaults or a.kw_defaults:
            self.reject(node, "parameter defaults are not supported")
        for arg in a.args:
            if arg.annotation is not None:
                self.reject(arg, "parameter annotations are not supported")
        outer, self.function = self.function, node
        self.block(node.body)
        self.function = outer

    def block(self, stmts: list):
        for stmt in stmts:
            self.stmt(stmt)

    def stmt(self, node: ast.stmt):
        rule = _STATEMENT_RULES.get(type(node))
        if rule is None:
            self.reject(node, f"unsupported statement: {type(node).__name__}")
        rule(self, node)

    def leaf(self, node):
        """A node with no parts left to check."""

    def stmt_FunctionDef(self, node):
        saved = self.loop_depth
        self.loop_depth = 0
        self.validate_function(node)
        self.loop_depth = saved

    def stmt_Return(self, node):
        if node.value is not None:
            self.expr(node.value)

    def stmt_Assign(self, node):
        if len(node.targets) != 1:
            self.reject(node, "chained assignment is not supported")
        self.target(node.targets[0], allow_tuple=True)
        self.expr(node.value)

    def stmt_AugAssign(self, node):
        if not isinstance(node.op, _ALLOWED_AUGOPS):
            self.reject(node, f"unsupported augmented operator: {type(node.op).__name__}")
        self.target(node.target, allow_tuple=False)
        self.expr(node.value)

    def stmt_Expr(self, node):
        if isinstance(node.value, ast.Yield):
            self.generators.add(self.function)
            if node.value.value is not None:
                self.expr(node.value.value)
            return
        self.expr(node.value)

    def stmt_If(self, node):
        self.expr(node.test)
        self.block(node.body)
        self.block(node.orelse)

    def stmt_While(self, node):
        if node.orelse:
            self.reject(node, "while-else is not supported")
        self.expr(node.test)
        self.loop_depth += 1
        self.block(node.body)
        self.loop_depth -= 1

    def stmt_For(self, node):
        if node.orelse:
            self.reject(node, "for-else is not supported")
        self.target(node.target, allow_tuple=True)
        self.expr(node.iter)
        self.loop_depth += 1
        self.block(node.body)
        self.loop_depth -= 1

    def stmt_Break(self, node):
        if self.loop_depth == 0:
            self.reject(node, "break outside a loop")

    def stmt_Continue(self, node):
        if self.loop_depth == 0:
            self.reject(node, "continue outside a loop")

    def stmt_Raise(self, node):
        if node.exc is not None:
            if isinstance(node.exc, ast.Name):
                pass
            elif isinstance(node.exc, ast.Call) and isinstance(node.exc.func, ast.Name):
                self.call_args(node.exc)
            else:
                self.reject(node, "raise target must be a name or a name call")
        if node.cause is not None:
            self.expr(node.cause)

    def stmt_Assert(self, node):
        self.expr(node.test)
        if node.msg is not None:
            self.expr(node.msg)

    def stmt_Try(self, node):
        calls: list[ast.Call] = []
        self.try_calls.append(calls)
        self.block(node.body)
        self.try_calls.pop()
        caught: list[str] = []
        for h in node.handlers:
            if h.type is not None:
                if isinstance(h.type, ast.Name):
                    caught.append(h.type.id)
                elif isinstance(h.type, ast.Tuple) and all(
                    isinstance(e, ast.Name) for e in h.type.elts
                ):
                    caught.extend(e.id for e in h.type.elts)
                else:
                    self.reject(h, "except type must be a name or tuple of names")
            self.block(h.body)
        if caught:
            self.guarded_calls.append((tuple(caught), calls))
        self.block(node.orelse)
        self.block(node.finalbody)

    def stmt_With(self, node):
        if len(node.items) != 1:
            self.reject(node, "with supports a single context item")
        item = node.items[0]
        self.expr(item.context_expr)
        if item.optional_vars is not None and not isinstance(item.optional_vars, ast.Name):
            self.reject(node, "with target must be a plain name")
        self.block(node.body)

    def target(self, node, allow_tuple: bool):
        if isinstance(node, ast.Name):
            return
        if isinstance(node, ast.Attribute):
            self.expr(node.value)
            return
        if isinstance(node, ast.Subscript):
            self.expr(node.value)
            self.subscript_index(node)
            return
        if allow_tuple and isinstance(node, ast.Tuple):
            for e in node.elts:
                self.target(e, allow_tuple=False)
            return
        self.reject(node, f"unsupported assignment target: {type(node).__name__}")

    def call_args(self, node: ast.Call):
        # Every call passes here, ``raise C(...)`` included.
        for calls in self.try_calls:
            calls.append(node)
        func = node.func
        if isinstance(func, ast.Name) and func.id == "isinstance" and len(node.args) == 2:
            self.isinstance_args.append(node.args[1])
        for a in node.args:
            if isinstance(a, ast.Starred):
                self.reject(a, "star arguments are not supported")
            self.expr(a)
        for kw in node.keywords:
            if kw.arg is None:
                self.reject(node, "keyword-splat arguments are not supported")
            self.expr(kw.value)

    def subscript_index(self, node: ast.Subscript):
        s = node.slice
        if isinstance(s, ast.Slice):
            if s.step is not None:
                self.reject(node, "slice steps are not supported")
            if s.lower is not None:
                self.expr(s.lower)
            if s.upper is not None:
                self.expr(s.upper)
            return
        self.expr(s)

    def expr(self, node: ast.expr):
        rule = _EXPRESSION_RULES.get(type(node))
        if rule is None:
            self.reject(node, f"unsupported expression: {type(node).__name__}")
        rule(self, node)

    def elements(self, node):
        for e in node.elts:
            self.expr(e)

    def expr_BoolOp(self, node):
        for v in node.values:
            self.expr(v)

    def expr_BinOp(self, node):
        if type(node.op) not in BINOP_SYMBOLS:
            self.reject(node, f"unsupported operator: {type(node.op).__name__}")
        self.expr(node.left)
        self.expr(node.right)

    def expr_UnaryOp(self, node):
        if not isinstance(node.op, _ALLOWED_UNARYOPS):
            self.reject(node, f"unsupported unary operator: {type(node.op).__name__}")
        operand = node.operand
        if (
            isinstance(node.op, ast.USub)
            and isinstance(operand, ast.Constant)
            and type(operand.value) in (int, float)
        ):
            # A negated number is recorded as one negative literal.
            v = -operand.value
            if type(v) is int:
                self.literals_int.append(v)
            else:
                self.literals_float.append(v)
            return
        self.expr(operand)

    def expr_Lambda(self, node):
        a = node.args
        if a.posonlyargs or a.kwonlyargs or a.vararg or a.kwarg or a.defaults or a.kw_defaults:
            self.reject(node, "lambda supports only plain positional parameters")
        self.expr(node.body)

    def expr_IfExp(self, node):
        self.expr(node.test)
        self.expr(node.body)
        self.expr(node.orelse)

    def expr_Dict(self, node):
        for k in node.keys:
            if k is None:
                self.reject(node, "dict unpacking is not supported")
            self.expr(k)
        for v in node.values:
            self.expr(v)

    def comprehension(self, node):
        self.expr(node.elt)
        for gen in node.generators:
            if gen.is_async:
                self.reject(node, "asynchronous comprehensions are not supported")
            self.target(gen.target, allow_tuple=True)
            self.expr(gen.iter)
            for cond in gen.ifs:
                self.expr(cond)

    def expr_Compare(self, node):
        for op in node.ops:
            if type(op) not in COMPARE_SYMBOLS:
                self.reject(node, f"unsupported comparison: {type(op).__name__}")
        self.expr(node.left)
        for c in node.comparators:
            self.expr(c)

    def expr_Call(self, node):
        self.expr(node.func)
        self.call_args(node)

    def expr_Constant(self, node):
        v = node.value
        t = type(v)
        if t is int:
            self.literals_int.append(v)
        elif t is float:
            self.literals_float.append(v)
        elif t is str:
            self.literals_str.append(v)
        elif v is not None and t is not bool:
            self.reject(node, f"unsupported literal: {t.__name__}")

    def expr_JoinedStr(self, node):
        # Constant fragments are formatting scaffolding, not values the code
        # compares against: they are checked but not recorded as literals.
        for part in node.values:
            if isinstance(part, ast.Constant):
                if not isinstance(part.value, str):
                    self.reject(part, "unsupported f-string fragment")
            elif isinstance(part, ast.FormattedValue):
                if part.conversion not in (-1, 114, 115):
                    self.reject(part, "only {expr}, {expr!r} and {expr!s} are supported")
                if part.format_spec is not None:
                    self.reject(part, "format specifiers are not supported")
                self.expr(part.value)
            else:
                self.reject(part, "unsupported f-string fragment")

    def expr_Attribute(self, node):
        self.expr(node.value)

    def expr_Subscript(self, node):
        self.expr(node.value)
        self.subscript_index(node)


# Validation rules by node type; the interpreter has a handler for each.
_STATEMENT_RULES = {
    ast.FunctionDef: _SubsetValidator.stmt_FunctionDef,
    ast.Return: _SubsetValidator.stmt_Return,
    ast.Assign: _SubsetValidator.stmt_Assign,
    ast.AugAssign: _SubsetValidator.stmt_AugAssign,
    ast.Expr: _SubsetValidator.stmt_Expr,
    ast.If: _SubsetValidator.stmt_If,
    ast.While: _SubsetValidator.stmt_While,
    ast.For: _SubsetValidator.stmt_For,
    ast.Break: _SubsetValidator.stmt_Break,
    ast.Continue: _SubsetValidator.stmt_Continue,
    ast.Pass: _SubsetValidator.leaf,
    ast.Raise: _SubsetValidator.stmt_Raise,
    ast.Assert: _SubsetValidator.stmt_Assert,
    ast.Try: _SubsetValidator.stmt_Try,
    ast.With: _SubsetValidator.stmt_With,
}

_EXPRESSION_RULES = {
    ast.Name: _SubsetValidator.leaf,
    ast.Attribute: _SubsetValidator.expr_Attribute,
    ast.Subscript: _SubsetValidator.expr_Subscript,
    ast.Call: _SubsetValidator.expr_Call,
    ast.Constant: _SubsetValidator.expr_Constant,
    ast.List: _SubsetValidator.elements,
    ast.Tuple: _SubsetValidator.elements,
    ast.Set: _SubsetValidator.elements,
    ast.Dict: _SubsetValidator.expr_Dict,
    ast.BoolOp: _SubsetValidator.expr_BoolOp,
    ast.BinOp: _SubsetValidator.expr_BinOp,
    ast.UnaryOp: _SubsetValidator.expr_UnaryOp,
    ast.Compare: _SubsetValidator.expr_Compare,
    ast.IfExp: _SubsetValidator.expr_IfExp,
    ast.Lambda: _SubsetValidator.expr_Lambda,
    ast.JoinedStr: _SubsetValidator.expr_JoinedStr,
    ast.ListComp: _SubsetValidator.comprehension,
    ast.GeneratorExp: _SubsetValidator.comprehension,
}


def code_line_numbers(source: str) -> frozenset[int]:
    """1-based numbers of lines that are neither blank nor comment-only."""
    out = set()
    for i, line in enumerate(source.splitlines(), start=1):
        stripped = line.strip()
        if stripped and not stripped.startswith("#"):
            out.add(i)
    return frozenset(out)


def parse_function(source: str) -> SourceFunction:
    """Parse a single function definition written in the subject language.

    Raises SyntaxError (with line and column) for malformed input and for any
    construct outside the supported grammar, including expressions nested too
    deeply to parse or validate.
    """
    try:
        return _parse_function(source)
    except RecursionError:
        first_line = source.partition("\n")[0]
        raise SyntaxError(
            "expression nested too deeply", ("<pair>", 1, 1, first_line)
        ) from None


def _parse_function(source: str) -> SourceFunction:
    tree = ast.parse(source)
    functions = [n for n in tree.body if isinstance(n, ast.FunctionDef)]
    if isinstance(tree.body[0] if tree.body else None, ast.AsyncFunctionDef):
        _reject(tree.body[0], "asynchronous functions are not supported", source)
    if len(tree.body) != 1 or len(functions) != 1:
        node = tree.body[0] if tree.body else ast.Pass(lineno=1, col_offset=0)
        _reject(node, "expected exactly one function definition", source)
    node = functions[0]
    validator = _SubsetValidator(source)
    validator.validate_function(node)
    return SourceFunction(
        name=node.name,
        params=[a.arg for a in node.args.args],
        body=node.body,
        line_count=len(source.splitlines()) or 1,
        node=node,
        is_generator=node in validator.generators,
        code_lines=code_line_numbers(source),
        generators=frozenset(validator.generators),
        literals_int=validator.literals_int,
        literals_float=validator.literals_float,
        literals_str=validator.literals_str,
        isinstance_args=validator.isinstance_args,
        guarded_calls=validator.guarded_calls,
    )


def pretty_print(fn: SourceFunction) -> str:
    return ast.unparse(fn.node)


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
    """Parse both versions and assemble the pair with its changed-line sets.

    Changed-line sets keep only lines that execution can actually reach,
    i.e. comment-only and blank lines are dropped.
    """
    renames = dict(renames) if renames else {}
    values = list(renames.values())
    if len(set(values)) != len(values):
        raise ValueError("rename map values must be distinct")
    for k, v in renames.items():
        if not isinstance(k, str) or not isinstance(v, str):
            raise ValueError("rename map entries must be identifiers")
    old = parse_function(old_source)
    new = parse_function(new_source)
    if entry is not None:
        for side, fn in (("old", old), ("new", new)):
            if fn.name != entry:
                raise ValueError(
                    f"entry {entry!r} does not match the {side} function {fn.name!r}"
                )
    raw_old, raw_new = diff_changed_lines(old_source, new_source)
    return FunctionPair(
        old=old,
        new=new,
        renames=renames,
        changed_lines_old=frozenset(raw_old & old.code_lines),
        changed_lines_new=frozenset(raw_new & new.code_lines),
    )


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


def static_callee_path(node: ast.expr, renamer: Renamer) -> Optional[str]:
    """Merged dotted path of a callee expression, if it has a static shape."""
    if isinstance(node, ast.Name):
        return renamer.merge(node.id)
    if isinstance(node, ast.Attribute):
        base = static_callee_path(node.value, renamer)
        if base is None:
            return None
        return f"{base}.{renamer.merge(node.attr)}"
    if isinstance(node, ast.Call):
        base = static_callee_path(node.func, renamer)
        if base is None:
            return None
        return f"{base}()"
    return None


def _render_class_name(node: ast.expr, renamer: Renamer) -> Optional[str]:
    if isinstance(node, ast.Name):
        return renamer.merge(node.id)
    if isinstance(node, ast.Attribute):
        base = _render_class_name(node.value, renamer)
        if base is None:
            return None
        return f"{base}.{renamer.merge(node.attr)}"
    return None


def isinstance_class_names(node: ast.expr, renamer: Renamer) -> list[str]:
    """Class names named by the second argument of an isinstance call."""
    if isinstance(node, ast.Tuple):
        out = []
        for e in node.elts:
            r = _render_class_name(e, renamer)
            if r is not None:
                out.append(r)
        return out
    r = _render_class_name(node, renamer)
    return [r] if r is not None else []


def _collect_side(fn: SourceFunction, renamer: Renamer, facts: StaticFacts) -> None:
    facts.literals_int.extend(fn.literals_int)
    facts.literals_float.extend(fn.literals_float)
    facts.literals_str.extend(fn.literals_str)
    for arg in fn.isinstance_args:
        facts.isinstance_classes.update(isinstance_class_names(arg, renamer))
    exception_sets: dict[str, set[str]] = {}
    for raw_names, calls in fn.guarded_calls:
        caught = {renamer.merge(n) for n in raw_names}
        for call in calls:
            path = static_callee_path(call.func, renamer)
            if path is not None:
                exception_sets.setdefault(path, set()).update(caught)
    for path, names in exception_sets.items():
        existing = set(facts.call_exception_map.get(path, frozenset()))
        facts.call_exception_map[path] = frozenset(existing | names)


def extract_static_facts(pair: FunctionPair) -> StaticFacts:
    """Union of literals, isinstance classes, and caught-exception info
    over both versions, with identifiers already rename-merged."""
    facts = StaticFacts()
    _collect_side(pair.old, Renamer(pair.renames, "old"), facts)
    _collect_side(pair.new, Renamer(pair.renames, "new"), facts)
    return facts
