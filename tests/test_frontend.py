import ast
import io
import json
import re
import symtable
import textwrap
import tokenize
from dataclasses import replace

import _corpus
import _runs
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from pairguard import LIKELY_PRESERVING, SEMANTICS_CHANGING, EngineConfig, analyze
from pairguard.engine import _BUILTINS, _Env, isinstance_class_names, static_callee_path
from pairguard.frontend import (
    StaticFacts,
    code_line_numbers,
    diff_changed_lines,
    extract_static_facts,
    make_pair,
    parse_function,
)
from pairguard.values import GeneratorValue


def src(text):
    return textwrap.dedent(text).strip() + "\n"


ACCEPTED = [
    "def f():\n    pass\n",
    "def f(a, b):\n    return a + b\n",
    "def f(x):\n    return -x\n",
    "def f(xs):\n    return [y * 2 for y in xs if y]\n",
    "def f(xs):\n    return (y for y in xs)\n",
    "def f(x):\n    return x if x > 0 else -x\n",
    "def f():\n    return lambda a: a + 1\n",
    "def f(d):\n    return d['k']\n",
    "def f(xs):\n    return xs[1:3]\n",
    "def f(x):\n    return f'v={x} r={x!r} s={x!s}'\n",
    "def f(a):\n    assert a, 'boom'\n    return a\n",
    "def f():\n    raise ValueError('bad')\n",
    "def f(r):\n    with r as h:\n        return h\n",
    "def f(n):\n    while n > 0:\n        n -= 1\n    return n\n",
    "def f(xs):\n    for i, v in enumerate(xs):\n        print(i, v)\n",
    "def f():\n    def g():\n        return 1\n    return g()\n",
    "def f(n):\n    yield n\n    yield n + 1\n",
    "def f(a):\n    return a in (1, 2) and a not in [3]\n",
    "def f(a, b):\n    return a is b or a is not b\n",
    "def f():\n    try:\n        risky()\n    except ValueError as e:\n        return e\n    return None\n",
    "def f():\n    try:\n        return work()\n    finally:\n        print('done')\n",
    "def f():\n    try:\n        return work()\n    except KeyError:\n        return 0\n    else:\n        pass\n    finally:\n        print('done')\n",
    "def f(x):\n    return {1, 2, x}\n",
    "def f(x):\n    return {'k': x, 'j': 2}\n",
]


REJECTED = [
    ("@dec\ndef f():\n    pass\n", "decorator"),
    ("def f() -> int:\n    return 1\n", "annotation"),
    ("def f(a: int):\n    return a\n", "annotation"),
    ("def f(a=1):\n    return a\n", "default"),
    ("def f(*args):\n    return args\n", "positional"),
    ("def f(**kw):\n    return kw\n", "positional"),
    ("def f(x):\n    return g(*x)\n", "star"),
    ("def f(x):\n    return g(**x)\n", "splat"),
    ("def f(x):\n    return x & 1\n", "operator"),
    ("def f(x):\n    return x | 1\n", "operator"),
    ("def f(x):\n    return x << 2\n", "operator"),
    ("def f(x):\n    return ~x\n", "unary"),
    ("def f(x):\n    x @= x\n    return x\n", "augmented"),
    ("def f(xs):\n    return {v for v in xs}\n", "expression"),
    ("def f(xs):\n    return {v: v for v in xs}\n", "expression"),
    ("async def f():\n    pass\n", "asynchronous"),
    ("def f():\n    import os\n    return os\n", "statement"),
    ("def f():\n    global g\n    return g\n", "statement"),
    ("def f():\n    class C:\n        pass\n    return C\n", "statement"),
    ("def f(n):\n    while n:\n        n -= 1\n    else:\n        return 0\n", "while-else"),
    ("def f(xs):\n    for x in xs:\n        pass\n    else:\n        return 0\n", "for-else"),
    ("def f(a):\n    x = y = a\n    return x\n", "chained"),
    ("def f(xs):\n    return xs[::2]\n", "slice step"),
    ("def f():\n    return 1j\n", "literal"),
    ("def f():\n    return b'x'\n", "literal"),
    ("def f(x):\n    return f'{x:>10}'\n", "format spec"),
    ("def f():\n    break\n", "break"),
    ("def f():\n    continue\n", "continue"),
    ("def f(x):\n    del x\n", "statement"),
    ("def f(x):\n    raise x.err\n", "raise"),
    ("def f):\n    pass\n", "host syntax"),
    ("def f(r):\n    with r as (a, b):\n        return a\n", "with target"),
    ("def f(r):\n    with r as a, r as b:\n        return a\n", "context item"),
    ("x = 1\n", "function definition"),
    ("def f():\n    pass\n\ndef g():\n    pass\n", "function definition"),
    ("", "function definition"),
]


@pytest.mark.parametrize("source", ACCEPTED, ids=lambda s: s.splitlines()[0][:40])
def test_accepts_supported_grammar(source):
    fn = parse_function(source)
    assert fn.name == "f"


@pytest.mark.parametrize(
    "source,hint", REJECTED, ids=lambda v: v[:28] if isinstance(v, str) else v
)
def test_rejects_unsupported_grammar(source, hint):
    with pytest.raises(SyntaxError):
        parse_function(source)


# Parsed by the host grammar but outside the subset.
WALRUS = "def f(x):\n    if (y := x):\n        return y\n"


def test_walrus_rejected():
    with pytest.raises(SyntaxError):
        parse_function(WALRUS)


def test_rejection_carries_position():
    try:
        parse_function("def f(x):\n    return x & 1\n")
    except SyntaxError as exc:
        assert exc.lineno == 2
        assert exc.offset is not None
    else:
        pytest.fail("expected SyntaxError")


# A single error keeps its message and position. With two unsupported
# constructs in one node, the first in AST field order is reported: a dict's
# keys before its values, a comprehension's element before its generators.
_MESSAGE_AND_POSITION = [
    ("{1: 2j}", "unsupported literal: complex", 16),
    ("{**x}", "dict unpacking is not supported", 12),
    ("[v for v in b'']", "unsupported literal: bytes", 24),
    ("[2j for v in x]", "unsupported literal: complex", 13),
    ("{1: 2j, **x}", "dict unpacking is not supported", 12),
    ("{1: 2j, 3j: 4}", "unsupported literal: complex", 20),
    ("[2j for v in b'']", "unsupported literal: complex", 13),
    ("[2j async for v in x]", "unsupported literal: complex", 13),
]


@pytest.mark.parametrize("expr,message,offset", _MESSAGE_AND_POSITION)
def test_rejection_message_and_position(expr, message, offset):
    with pytest.raises(SyntaxError) as info:
        parse_function(f"def f(x):\n    return {expr}\n")
    assert (info.value.msg, info.value.lineno, info.value.offset) == (message, 2, offset)


def test_parse_result_fields():
    fn = parse_function("def add(a, b):\n    # sum\n    return a + b\n")
    assert fn.name == "add"
    assert fn.params == ["a", "b"]
    assert fn.code_lines == frozenset({1, 3})


class _Touched(Exception):
    pass


class _Untouchable:
    """An interpreter stand-in: reading any of its fields raises ``_Touched``."""

    def __getattr__(self, name):
        raise _Touched(name)


def _compiled_yields(fn) -> bool:
    """Whether a call of ``fn``'s compiled body returns a generator. A
    yielding def's body hands one back without running a statement; a plain
    def's runs its first statement, which charges a step to the interpreter."""
    try:
        result = fn.body(_Untouchable(), _Env())
    except _Touched:
        return False
    assert isinstance(result, GeneratorValue)
    return True


def test_generator_detection_ignores_nested_defs():
    outer = parse_function(
        "def f():\n    def g():\n        yield 1\n    return g()\n"
    )
    assert _compiled_yields(outer) is False
    gen = parse_function("def f(n):\n    def g():\n        return 1\n    yield n\n")
    assert _compiled_yields(gen) is True


def test_code_line_numbers_skips_blank_and_comments():
    text = "def f():\n\n    # note\n    return 1\n"
    assert code_line_numbers(text) == frozenset({1, 4})


class TestDiff:
    def test_identical_sources_have_no_changes(self):
        s = "def f(a):\n    return a\n"
        assert diff_changed_lines(s, s) == (set(), set())

    def test_reindentation_is_not_a_change(self):
        old = "def f(a):\n    return a\n"
        new = "def f(a):\n        return a\n"
        assert diff_changed_lines(old, new) == (set(), set())

    def test_single_line_replacement(self):
        old = "def f(a):\n    return a + 1\n"
        new = "def f(a):\n    return a + 2\n"
        assert diff_changed_lines(old, new) == ({2}, {2})

    def test_pure_insertion(self):
        old = "def f(a):\n    return a\n"
        new = "def f(a):\n    a = a + 1\n    return a\n"
        assert diff_changed_lines(old, new) == (set(), {2})

    def test_the_longest_block_first_not_a_longest_common_subsequence(self):
        # ``z, y`` is common to both, but the matcher keeps only one ``y``.
        assert diff_changed_lines("y\nz\ny\n", "z\nx\ny\n") == ({2, 3}, {1, 2})


RETRY_OLD = src(
    """
    def process_response(self, request, response, spider):
        if request.meta.get('dont_retry', False):
            return response
        if response.status in self.retry_http_codes:
            reason = response_status_message(response.status)
            return self._retry(request, reason, spider) or response
        return response
    """
)


def test_make_pair_changed_lines_drop_comment_lines():
    old = "def f(a):\n    # old note\n    return a + 1\n"
    new = "def f(a):\n    # new note\n    return a + 2\n"
    pair = make_pair(old, new)
    assert pair.changed_lines_old == frozenset({3})
    assert pair.changed_lines_new == frozenset({3})


@pytest.mark.parametrize(
    "new, renames, identical",
    [
        ("def f(a):\n    return g(a)\n", None, True),
        ("def f(a):\n    return g(a)\n\n", None, False),
        ("def f(a):\n    return g(a)  # same\n", None, False),
        # One text, but the old side's g merges to g_renamed_h and the new
        # side's stays g.
        ("def f(a):\n    return g(a)\n", {"g": "h"}, False),
    ],
)
def test_make_pair_marks_identical_sides(new, renames, identical):
    assert make_pair("def f(a):\n    return g(a)\n", new, renames=renames).identical is identical


@pytest.mark.parametrize(
    "old, new, renames, identical",
    [
        ("def f(a):\n    return g(a)\n", "def f(a):\n    return h(a)\n", {"g": "h"}, True),
        # With renames, sameness is of the merged trees, not of the texts.
        ("def f(a):\n    return g(a)\n", "def f(a):\n    return h(a)\n\n", {"g": "h"}, True),
        ("def f(a):\n    return g(a)\n", "def f(a):\n    return h( a )  # n\n", {"g": "h"}, True),
        ("def f(a):\n    return g(a)\n", "def f(a):\n\n    return h(a)\n", {"g": "h"}, False),
        ("def f(a):\n    return g(1)\n", "def f(a):\n    return h(True)\n", {"g": "h"}, False),
        ("def f(a):\n    return g(1)\n", "def f(a):\n    return h(1.0)\n", {"g": "h"}, False),
        ("def f(a):\n    return g(a)\n", "def f(a):\n    return g(a)\n", {"a": "a"}, True),
        # The same attribute as written, but only the old side's is a renamed
        # name.
        ("def f(x):\n    return a + x.a\n", "def f(x):\n    return b + x.a\n", {"a": "b"}, False),
        # A rename of a name neither side uses merges nothing.
        ("def f(a):\n    return g(a)\n", "def f(a):\n    return g(a)\n", {"u": "w"}, True),
        # A string constant is not an identifier, so its text is not renamed.
        ("def f(a):\n    return g('g')\n", "def f(a):\n    return h('g')\n", {"g": "h"}, True),
        # A lambda parameter and a handler name merge as a Name does.
        (
            "def f(a):\n    return (lambda u: u + 1)(a)\n",
            "def f(a):\n    return (lambda w: w + 1)(a)\n",
            {"u": "w"},
            True,
        ),
        (
            "def f(a):\n    try:\n        return g(a)\n    except ValueError as err:\n"
            "        return str(err)\n",
            "def f(a):\n    try:\n        return g(a)\n    except ValueError as exc:\n"
            "        return str(exc)\n",
            {"err": "exc"},
            True,
        ),
        # A builtin keeps its name, which it is dispatched by.
        ("def f(a):\n    return len(a)\n", "def f(a):\n    return size(a)\n", {"len": "size"}, False),
        # A longer name shifts columns, inside an f-string and a comprehension
        # target too; columns are left out.
        (
            'def f(a):\n    return [f"{v}: {v * 2}" for v in a if v]\n',
            'def f(a):\n    return [f"{value}: {value * 2}" for value in a if value]\n',
            {"v": "value"},
            True,
        ),
    ],
)
def test_make_pair_marks_renamed_sides_that_merge_to_one_program(old, new, renames, identical):
    assert make_pair(old, new, renames=renames).identical is identical


@pytest.mark.parametrize("side", ["old", "new"])
def test_make_pair_rejects_a_merged_name_a_source_uses(side):
    # Two distinct variables would read one injected value: with a_renamed_b
    # in the old source, old "t = a; return a_renamed_b" against new
    # "t = b; return b" would pass for a rename.
    taken = "def f():\n    t = a\n    return a_renamed_b\n"
    plain = "def f():\n    t = b\n    return b\n"
    old, new = (taken, plain) if side == "old" else (plain, taken)
    with pytest.raises(ValueError, match=f"'a_renamed_b' already occurs in the {side} function"):
        make_pair(old, new, renames={"a": "b"})


@pytest.mark.parametrize("use", ["x.a_renamed_b", "g(a_renamed_b=1)"])
def test_make_pair_rejects_a_merged_name_in_any_identifier_role(use):
    old = f"def f(x):\n    return a + {use}\n"
    with pytest.raises(ValueError, match="already occurs"):
        make_pair(old, old.replace("a +", "b +"), renames={"a": "b"})


@pytest.mark.parametrize(
    "new, renames, entry, message",
    [
        ("def f(a):\n    return f\n", None, "g", "entry 'g' does not match the old function 'f'"),
        # A renamed root def is checked by the name each side writes, so no
        # entry matches both.
        ("def g(a):\n    return g\n", {"f": "g"}, "f", "does not match the new function 'g'"),
        ("def g(a):\n    return g\n", {"f": "g"}, "g", "does not match the old function 'f'"),
    ],
)
def test_make_pair_requires_matching_entry(new, renames, entry, message):
    with pytest.raises(ValueError, match=message):
        make_pair("def f(a):\n    return f\n", new, renames=renames, entry=entry)


def _sum_pair(terms, renames=None):
    """A pair whose old side returns a sum of ``terms`` reads of ``a``."""
    old = "def f(a):\n    return " + "+".join(["a"] * terms) + "\n"
    return make_pair(old, old.replace("a", "b"), renames=renames)


@pytest.mark.parametrize("terms", [600, 3000])
def test_make_pair_rejects_deeply_nested_expression(terms):
    # 600 terms exhaust the compiler's recursion, 3000 the host parser's,
    # with a rename map as without one.
    for renames in (None, {"a": "b"}):
        with pytest.raises(SyntaxError, match="nested too deeply"):
            _sum_pair(terms, renames)


def test_make_pair_rejects_no_renamed_sum_the_compiler_accepts():
    # The longest sum accepted without renames, below the 600 terms that
    # are rejected, is accepted with them.
    accepted, rejected = 1, 600
    while rejected - accepted > 1:
        middle = (accepted + rejected) // 2
        try:
            _sum_pair(middle)
            accepted = middle
        except SyntaxError:
            rejected = middle
    assert _sum_pair(accepted, {"a": "b"}).identical


def test_make_pair_rejects_duplicate_rename_targets():
    s = "def f(a):\n    return a\n"
    with pytest.raises(ValueError):
        make_pair(s, s, renames={"x": "z", "y": "z"})


@pytest.mark.parametrize("renames", [{"x": "y(z"}, {"a.b": "c"}, {"x": ""}, {1: "y"}])
def test_make_pair_rejects_non_identifier_renames(renames):
    s = "def f(a):\n    return a\n"
    with pytest.raises(ValueError, match="must be identifiers"):
        make_pair(s, s, renames=renames)


def test_fixture_retry_pair_diff():
    import json
    import pathlib

    data = json.loads(
        (pathlib.Path(__file__).parent / "fixtures" / "pairs" / "retry_meta.json").read_text()
    )
    pair = make_pair(data["old"], data["new"], renames=data.get("renames") or {})
    assert pair.changed_lines_old == frozenset({3, 4, 5})
    assert pair.changed_lines_new == frozenset({3})


def test_make_pair_merges_each_side_through_its_own_table():
    # count -> total: the old side merges count, the new side total, and
    # each leaves the other name, and f, as written.
    old = "def f(count):\n    return count + total\n"
    new = "def f(total):\n    return total + count\n"
    pair = make_pair(old, new, renames={"count": "total"})
    for fn, kept in ((pair.old, "total"), (pair.new, "count")):
        assert fn.name == "f"
        assert fn.params == ["count_renamed_total"]
        assert ast.unparse(fn.node) == (
            f"def f(count_renamed_total):\n    return count_renamed_total + {kept}"
        )
    assert not pair.identical


def test_make_pair_merges_a_renamed_name_in_every_role_but_a_builtin():
    # len reads the builtin only as a name no scope binds; as an attribute
    # and a keyword it is merged.
    old = (
        "def f(v):\n    def v(v):\n        return v.len(len=lambda v: len(v))\n"
        "    try:\n        return v(v)\n    except E as v:\n        return v\n"
    )
    new = old.replace("v", "w").replace("len", "size")
    pair = make_pair(old, new, renames={"v": "w", "len": "size"})
    merged = ast.unparse(
        ast.parse(
            old.replace("v", "v_renamed_w").replace(".len(len=", ".len_renamed_size(len_renamed_size=")
        )
    )
    assert ast.unparse(pair.old.node) == merged
    assert ast.unparse(pair.new.node) == merged.replace(" len(", " len_renamed_size(")


class TestStaticPaths:
    def path_of(self, expr):
        node = ast.parse(expr, mode="eval").body
        return static_callee_path(node)

    def test_name(self):
        assert self.path_of("fetch") == "fetch"

    def test_dotted(self):
        assert self.path_of("self.session.get") == "self.session.get"

    def test_call_link(self):
        assert self.path_of("get_conn().close") == "get_conn().close"

    def test_dynamic_shapes_have_no_path(self):
        assert self.path_of("handlers[0]") is None
        assert self.path_of("(a or b).go") is None

    def test_isinstance_names(self):
        node = ast.parse("isinstance(x, (Foo, bar.Baz))", mode="eval").body
        assert isinstance_class_names(node.args[1]) == ["Foo", "bar.Baz"]


class TestStaticFacts:
    def facts(self, old, new=None, renames=None):
        return extract_static_facts(make_pair(old, new or old, renames=renames))

    def test_literals_collected_with_sign(self):
        f = self.facts("def f(x):\n    return x * 2 + -7 - 1.5\n")
        assert 2 in f.literals_int
        assert -7 in f.literals_int
        assert 1.5 in f.literals_float

    def test_bools_are_not_int_literals(self):
        f = self.facts("def f(x):\n    return x or True\n")
        assert 1 not in f.literals_int

    def test_string_literals(self):
        f = self.facts("def f():\n    return 'alpha'\n")
        assert "alpha" in f.literals_str

    def test_fstring_scaffolding_excluded(self):
        f = self.facts("def f(x):\n    return f'status: {x}'\n")
        assert "status: " not in f.literals_str

    def test_fstring_inner_literals_kept(self):
        f = self.facts("def f(d):\n    return f'{d[\"mode\"]}'\n")
        assert "mode" in f.literals_str

    def test_isinstance_classes(self):
        f = self.facts("def f(x):\n    if isinstance(x, Request):\n        return 1\n    return 0\n")
        assert f.isinstance_classes == {"Request"}

    def test_call_exception_map(self):
        source = src(
            """
            def f(text):
                try:
                    return parse(text)
                except SyntaxError:
                    return None
            """
        )
        f = self.facts(source)
        assert f.call_exception_map == {"parse": frozenset({"SyntaxError"})}

    def test_exception_map_unions_both_versions(self):
        old = src(
            """
            def f(t):
                try:
                    return load(t)
                except ValueError:
                    return None
            """
        )
        new = src(
            """
            def f(t):
                try:
                    return load(t)
                except KeyError:
                    return None
            """
        )
        f = self.facts(old, new)
        assert f.call_exception_map["load"] == frozenset({"ValueError", "KeyError"})

    def test_uncaught_calls_absent_from_map(self):
        f = self.facts("def f(t):\n    return load(t)\n")
        assert f.call_exception_map == {}

    def test_literals_merge_both_sides(self):
        f = self.facts("def f():\n    return 11\n", "def f():\n    return 22\n")
        assert 11 in f.literals_int and 22 in f.literals_int


@pytest.mark.parametrize(
    "name",
    [
        "abs_clamp", "greet", "count_items", "filter_evens", "risky_parse",
        "gen_squares", "walk_pairs", "total_range", "describe", "merge_maps",
        "guard_assert", "with_resource", "pick_max", "lambda_apply",
        "string_report", "nested_def", "bool_logic", "slice_window",
        "set_ops", "format_table",
    ],
)
def test_identity_fixture_sources_parse(name):
    import json
    import pathlib

    fp = pathlib.Path(__file__).parent / "fixtures" / "pairs" / f"identity_{name}.json"
    data = json.loads(fp.read_text())
    assert parse_function(data["old"]).name
    assert parse_function(data["new"]).name


# ---------------------------------------------------------------------------
# Reference: generator-ness and static facts as separate AST walks computed
# them before the one walk of each side settled them. The compiled body must
# return a generator exactly when the function's own body yields, and the
# recorded facts must equal these exactly, literal lists in order, because
# the literal pools feed seeded sampling.


def _ref_is_generator(node: ast.FunctionDef) -> bool:
    """Whether the function's own body (not nested functions) yields."""
    todo = list(node.body)
    while todo:
        n = todo.pop()
        if isinstance(n, (ast.FunctionDef, ast.Lambda)):
            continue
        if isinstance(n, ast.Yield):
            return True
        todo.extend(ast.iter_child_nodes(n))
    return False


def _ref_collect_literals(node: ast.AST, facts: StaticFacts) -> None:
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.JoinedStr):
            for part in child.values:
                if isinstance(part, ast.FormattedValue):
                    _ref_collect_literals(part, facts)
            continue
        if isinstance(child, ast.Constant):
            v = child.value
            if type(v) is int:
                facts.literals_int.append(v)
            elif type(v) is float:
                facts.literals_float.append(v)
            elif type(v) is str:
                facts.literals_str.append(v)
            continue
        if (
            isinstance(child, ast.UnaryOp)
            and isinstance(child.op, ast.USub)
            and isinstance(child.operand, ast.Constant)
            and type(child.operand.value) in (int, float)
        ):
            v = -child.operand.value
            if type(v) is int:
                facts.literals_int.append(v)
            else:
                facts.literals_float.append(v)
            continue
        _ref_collect_literals(child, facts)


def _ref_collect_side(tree: ast.FunctionDef, facts: StaticFacts) -> None:
    _ref_collect_literals(tree, facts)
    exception_sets: dict[str, set[str]] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            if node.func.id == "isinstance" and len(node.args) == 2:
                facts.isinstance_classes.update(isinstance_class_names(node.args[1]))
        if isinstance(node, ast.Try):
            caught: set[str] = set()
            for h in node.handlers:
                if isinstance(h.type, ast.Name):
                    caught.add(h.type.id)
                elif isinstance(h.type, ast.Tuple):
                    for e in h.type.elts:
                        if isinstance(e, ast.Name):
                            caught.add(e.id)
            if not caught:
                continue
            for stmt in node.body:
                for sub in ast.walk(stmt):
                    if isinstance(sub, ast.Call):
                        path = static_callee_path(sub.func)
                        if path is not None:
                            exception_sets.setdefault(path, set()).update(caught)
    for path, names in exception_sets.items():
        existing = set(facts.call_exception_map.get(path, frozenset()))
        facts.call_exception_map[path] = frozenset(existing | names)


def _tables(renames):
    """The old and the new side's tables: each side's name of a rename to
    the merged name."""
    merged = {o: f"{o}_renamed_{n}" for o, n in renames.items()}
    return merged, {n: merged[o] for o, n in renames.items()}


def _bound_anywhere(source):
    """Every name that some scope of ``source`` assigns or takes as a
    parameter, by the host's symbol tables."""
    bound = set()
    tables = [symtable.symtable(source, "<pair>", "exec")]
    while tables:
        table = tables.pop()
        bound.update(
            s.get_name() for s in table.get_symbols() if s.is_assigned() or s.is_parameter()
        )
        tables.extend(table.get_children())
    return bound


def _merged_tree(source, table):
    """The function's tree with every identifier that ``table`` maps merged,
    except a Name of a builtin that no scope of the function binds."""
    tree = ast.parse(source).body[0]
    dispatched = _BUILTINS.keys() - _bound_anywhere(source)
    for node in ast.walk(tree):
        for field, value in _identifier_fields(node):
            if not (isinstance(node, ast.Name) and value in dispatched):
                setattr(node, field, table.get(value, value))
    return tree


def assert_matches_reference(old, new, renames=None, entry=None) -> None:
    """The facts ``make_pair`` records for ``old`` and ``new`` under the
    rename map ``renames`` equal the reference walk's over trees parsed and
    merged here."""
    renames = renames or {}
    pair = make_pair(old, new, renames=renames, entry=entry)
    for fn in (pair.old, pair.new):
        # Nested defs are pinned by running them (tests/test_engine.py).
        assert _compiled_yields(fn) == _ref_is_generator(fn.node)
    facts = extract_static_facts(pair)
    ref = StaticFacts()
    for source, table in zip((old, new), _tables(renames)):
        _ref_collect_side(_merged_tree(source, table), ref)
    assert facts.literals_int == ref.literals_int
    # repr keeps -0.0 apart from 0.0.
    assert [repr(v) for v in facts.literals_float] == [repr(v) for v in ref.literals_float]
    assert facts.literals_str == ref.literals_str
    assert facts.isinstance_classes == ref.isinstance_classes
    assert facts.call_exception_map == ref.call_exception_map


# ---------------------------------------------------------------------------
# Reference: the subset validator, a walk of its own that checked each side
# before the compiler did, as it stood when the compiler took its checks
# over (fact recording left out; the references above check the facts). The
# compiler must accept and reject the same sources, with the same message at
# the same position.

_REF_BINOPS = (ast.Add, ast.Sub, ast.Mult, ast.Div, ast.FloorDiv, ast.Mod, ast.Pow)
_REF_COMPARISONS = (
    ast.Eq, ast.NotEq, ast.Lt, ast.LtE, ast.Gt, ast.GtE, ast.In, ast.NotIn, ast.Is, ast.IsNot,
)
_REF_AUGOPS = (ast.Add, ast.Sub, ast.Mult, ast.Div, ast.FloorDiv, ast.Mod)
_REF_UNARYOPS = (ast.Not, ast.USub)


def _ref_reject(node, message, source):
    lineno = getattr(node, "lineno", 1)
    col = getattr(node, "col_offset", 0)
    lines = source.splitlines()
    text = lines[lineno - 1] if 0 < lineno <= len(lines) else ""
    raise SyntaxError(message, ("<pair>", lineno, col + 1, text))


class _RefValidator:
    def __init__(self, source):
        self.source = source
        self.loop_depth = 0

    def reject(self, node, message):
        _ref_reject(node, message, self.source)

    def validate_function(self, node):
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
        self.block(node.body)

    def block(self, stmts):
        for stmt in stmts:
            self.stmt(stmt)

    def stmt(self, node):
        rule = _REF_STATEMENT_RULES.get(type(node))
        if rule is None:
            self.reject(node, f"unsupported statement: {type(node).__name__}")
        rule(self, node)

    def leaf(self, node):
        pass

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
        if not isinstance(node.op, _REF_AUGOPS):
            self.reject(node, f"unsupported augmented operator: {type(node.op).__name__}")
        self.target(node.target, allow_tuple=False)
        self.expr(node.value)

    def stmt_Expr(self, node):
        if isinstance(node.value, ast.Yield):
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
        self.block(node.body)
        for h in node.handlers:
            if h.type is not None:
                if isinstance(h.type, ast.Name):
                    pass
                elif isinstance(h.type, ast.Tuple) and all(
                    isinstance(e, ast.Name) for e in h.type.elts
                ):
                    pass
                else:
                    self.reject(h, "except type must be a name or tuple of names")
            self.block(h.body)
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

    def target(self, node, allow_tuple):
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

    def call_args(self, node):
        for a in node.args:
            if isinstance(a, ast.Starred):
                self.reject(a, "star arguments are not supported")
            self.expr(a)
        for kw in node.keywords:
            if kw.arg is None:
                self.reject(node, "keyword-splat arguments are not supported")
            self.expr(kw.value)

    def subscript_index(self, node):
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

    def expr(self, node):
        rule = _REF_EXPRESSION_RULES.get(type(node))
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
        if not isinstance(node.op, _REF_BINOPS):
            self.reject(node, f"unsupported operator: {type(node.op).__name__}")
        self.expr(node.left)
        self.expr(node.right)

    def expr_UnaryOp(self, node):
        if not isinstance(node.op, _REF_UNARYOPS):
            self.reject(node, f"unsupported unary operator: {type(node.op).__name__}")
        self.expr(node.operand)

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
            if not isinstance(op, _REF_COMPARISONS):
                self.reject(node, f"unsupported comparison: {type(op).__name__}")
        self.expr(node.left)
        for c in node.comparators:
            self.expr(c)

    def expr_Call(self, node):
        self.expr(node.func)
        self.call_args(node)

    def expr_Constant(self, node):
        v = node.value
        if v is not None and type(v) not in (int, float, str, bool):
            self.reject(node, f"unsupported literal: {type(v).__name__}")

    def expr_JoinedStr(self, node):
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


_REF_STATEMENT_RULES = {
    ast.FunctionDef: _RefValidator.stmt_FunctionDef,
    ast.Return: _RefValidator.stmt_Return,
    ast.Assign: _RefValidator.stmt_Assign,
    ast.AugAssign: _RefValidator.stmt_AugAssign,
    ast.Expr: _RefValidator.stmt_Expr,
    ast.If: _RefValidator.stmt_If,
    ast.While: _RefValidator.stmt_While,
    ast.For: _RefValidator.stmt_For,
    ast.Break: _RefValidator.stmt_Break,
    ast.Continue: _RefValidator.stmt_Continue,
    ast.Pass: _RefValidator.leaf,
    ast.Raise: _RefValidator.stmt_Raise,
    ast.Assert: _RefValidator.stmt_Assert,
    ast.Try: _RefValidator.stmt_Try,
    ast.With: _RefValidator.stmt_With,
}

_REF_EXPRESSION_RULES = {
    ast.Name: _RefValidator.leaf,
    ast.Attribute: _RefValidator.expr_Attribute,
    ast.Subscript: _RefValidator.expr_Subscript,
    ast.Call: _RefValidator.expr_Call,
    ast.Constant: _RefValidator.expr_Constant,
    ast.List: _RefValidator.elements,
    ast.Tuple: _RefValidator.elements,
    ast.Set: _RefValidator.elements,
    ast.Dict: _RefValidator.expr_Dict,
    ast.BoolOp: _RefValidator.expr_BoolOp,
    ast.BinOp: _RefValidator.expr_BinOp,
    ast.UnaryOp: _RefValidator.expr_UnaryOp,
    ast.Compare: _RefValidator.expr_Compare,
    ast.IfExp: _RefValidator.expr_IfExp,
    ast.Lambda: _RefValidator.expr_Lambda,
    ast.JoinedStr: _RefValidator.expr_JoinedStr,
    ast.ListComp: _RefValidator.comprehension,
    ast.GeneratorExp: _RefValidator.comprehension,
}


def _ref_verdict(source):
    """None if the reference accepts ``source``, else the rejection's
    (message, line, offset)."""
    try:
        try:
            tree = ast.parse(source)
            functions = [n for n in tree.body if isinstance(n, ast.FunctionDef)]
            if isinstance(tree.body[0] if tree.body else None, ast.AsyncFunctionDef):
                _ref_reject(tree.body[0], "asynchronous functions are not supported", source)
            if len(tree.body) != 1 or len(functions) != 1:
                node = tree.body[0] if tree.body else ast.Pass(lineno=1, col_offset=0)
                _ref_reject(node, "expected exactly one function definition", source)
            _RefValidator(source).validate_function(functions[0])
        except RecursionError:
            first_line = source.partition("\n")[0]
            raise SyntaxError("expression nested too deeply", ("<pair>", 1, 1, first_line))
    except SyntaxError as exc:
        return exc.msg, exc.lineno, exc.offset
    return None


def _verdict(source):
    try:
        parse_function(source)
    except SyntaxError as exc:
        return exc.msg, exc.lineno, exc.offset
    return None


_POSITIONED = [
    f"def f(x):\n    return {expr}\n" for expr, _, _ in _MESSAGE_AND_POSITION
]


@pytest.mark.parametrize(
    "source",
    ACCEPTED
    + [source for source, _ in REJECTED]
    + _POSITIONED
    + [WALRUS],
    ids=lambda s: s.splitlines()[0][:40] if s else "empty",
)
def test_rejections_match_reference_validator(source):
    assert _verdict(source) == _ref_verdict(source)


def _assert_pair_file_matches_reference(data):
    """The reference validator accepts both sides of a pair file, and the
    pair's facts match the reference."""
    assert _ref_verdict(data["old"]) is None
    assert _ref_verdict(data["new"]) is None
    assert_matches_reference(data["old"], data["new"], data.get("renames"), data.get("entry"))


@pytest.mark.parametrize("pair_id", _corpus.all_ids())
def test_fixture_pair_facts_match_reference(pair_id):
    _assert_pair_file_matches_reference(_corpus.load_pair_data(pair_id))


@pytest.mark.parametrize("workload", ["loops", "batch"])
@pytest.mark.parametrize("seed", [0, 7])
def test_benchmark_pair_facts_match_reference(workload, seed, tmp_path):
    cases = getattr(_runs._load_perfbench("workloads"), workload)(tmp_path, seed).cases
    assert cases
    for case in cases:
        _assert_pair_file_matches_reference(json.loads(case.path.read_text()))


class TestRecordedLiteralOrder:
    def literals(self, expr):
        pair = make_pair(f"def f(x):\n    return {expr}\n", "def f(x):\n    return 0\n")
        return extract_static_facts(pair)

    def test_dict_keys_before_values(self):
        assert self.literals("{1: 2, 3: 4}").literals_int[:4] == [1, 3, 2, 4]

    def test_comprehension_element_before_generators(self):
        assert self.literals("[x + 5 for x in range(6)]").literals_int[:2] == [5, 6]

    def test_negative_constants_and_fstrings(self):
        f = self.literals("f'a{-2}b{x!r}c{-1.5}' + 'd'")
        assert f.literals_int[:1] == [-2]
        assert f.literals_float == [-1.5]
        assert f.literals_str == ["d"]

    def test_negated_bool_and_str_are_not_numbers(self):
        f = self.literals("(-True, -'s', --3)")
        assert f.literals_int[:1] == [-3]
        assert f.literals_str == ["s"]

    @pytest.mark.parametrize(
        "body",
        [
            "x[1] = 2",
            "x[1] += 2",
            "for v[1] in 2:\n        pass",
            "try:\n        g(1)\n    except E:\n        g(2)\n    else:\n        g(3)\n"
            "    finally:\n        g(4)",
            "raise E(1, k=2) from 3",
            # Each argument once: isinstance and super calls compile theirs once.
            "return [isinstance(1, A), super(2)]",
        ],
    )
    def test_statement_parts_in_field_order(self, body):
        facts = StaticFacts()
        parse_function(f"def f(x):\n    {body}\n", facts=facts)
        assert facts.literals_int == sorted(facts.literals_int)
        assert len(set(facts.literals_int)) == len(facts.literals_int)

    def test_explicit_cases_match_reference(self):
        for expr in ["{1: 2, 3: 4}", "[x + 5 for x in range(6)]", "{-1: (y for y in x if 2)}"]:
            assert_matches_reference(f"def f(x):\n    return {expr}\n", "def f(x):\n    return 0\n")


# Generated subject functions: dicts, comprehensions, negative constants,
# f-strings, isinstance calls, nested try statements and nested (generator)
# defs, all inside the supported grammar, and the same mixed with constructs
# outside it.

_LITERAL_TEXT = st.text("ab z", max_size=3)
_TEXTS = _LITERAL_TEXT.map(repr)
_NUMBERS = st.one_of(
    st.integers(0, 300).map(repr),
    st.floats(0, 1e3, allow_nan=False, allow_infinity=False).map(repr),
)


def _negate(e):
    # Parenthesized, so that a subscript after it cannot make it negate the
    # subscript's result instead.
    return f"(-{e})"


def _sum(pair):
    return f"({pair[0]} + {pair[1]})"


# Numeric expressions, True among them: what a negation may apply to.
_NUMERIC = st.recursive(
    st.one_of(_NUMBERS, st.just("True")),
    lambda c: st.one_of(c.map(_negate), st.tuples(c, c).map(_sum)),
    max_leaves=3,
)
_LEAVES = st.one_of(
    _NUMBERS,
    _NUMBERS.map(_negate),
    _TEXTS,
    st.sampled_from(["True", "None", "x", "self.data", "items"]),
)


def _lists(children):
    return st.lists(children, max_size=3).map(lambda es: "[" + ", ".join(es) + "]")


def _iterables(children):
    """What a loop or comprehension walks: a list display, a str literal, or
    a name or call whose injected value is predicted to be iterated."""
    return st.one_of(
        _lists(children),
        _TEXTS,
        st.sampled_from(["x", "items", "self.data", "load()"]),
    )


def _compound(children):
    # A negation takes a number, an addition two operands of one kind, and a
    # comprehension walks an iterable, so that a generated body runs on past
    # them rather than end in a TypeError.
    pairs = st.tuples(children, children)
    lists = _lists(children)
    callee = st.sampled_from(["load", "self.fetch", "get_conn().close", "isinstance"])
    return st.one_of(
        st.one_of(
            st.tuples(_NUMERIC, _NUMERIC), st.tuples(_TEXTS, _TEXTS), st.tuples(lists, lists)
        ).map(_sum),
        _NUMERIC.map(_negate),
        st.lists(pairs, max_size=3).map(
            lambda kv: "{" + ", ".join(f"{k}: {v}" for k, v in kv) + "}"
        ),
        st.tuples(children, _iterables(children), children).map(
            lambda t: f"[{t[0]} for v in {t[1]} if {t[2]}]"
        ),
        st.tuples(children, _iterables(children)).map(lambda p: f"({p[0]} for v in {p[1]})"),
        lists,
        pairs.map(lambda p: f"{p[0]}[{p[1]}]"),
        pairs.map(lambda p: f"{p[0]}[{p[1]}:]"),
        st.tuples(children, st.one_of(st.sampled_from(["A", "(A, b.C)", "(Foo, 3)"]), children)).map(
            lambda t: f"isinstance({t[0]}, {t[1]})"
        ),
        st.tuples(callee, st.lists(children, max_size=2)).map(
            lambda t: f"{t[0]}({', '.join(t[1])})"
        ),
        children.map(lambda e: f"load(key={e})"),
    )


def _expressions(leaves):
    inner = st.recursive(leaves, _compound, max_leaves=6)
    fstring = st.lists(
        st.one_of(
            _LITERAL_TEXT,
            st.tuples(inner, st.sampled_from(["", "!r", "!s"])).map(
                lambda t: f"{{ {t[0]}{t[1]}}}"
            ),
        ),
        max_size=4,
    ).map(lambda parts: 'f"' + "".join(parts) + '"')
    return st.recursive(
        st.one_of(leaves, fstring), lambda c: st.one_of(_compound(c), fstring), max_leaves=8
    )


def _indent(lines):
    return ["    " + line for line in lines]


def _simple_statement(exprs):
    return st.one_of(
        exprs.map(lambda e: [f"x = {e}"]),
        exprs.map(lambda e: [f"yield {e}"]),
        exprs.map(lambda e: [f"print({e})"]),
        exprs.map(lambda e: [f"items[{e}] = -4"]),
        exprs.map(lambda e: [f"raise ValueError({e})"]),
        exprs.map(lambda e: [f"return {e}"]),
        st.tuples(exprs, exprs).map(lambda t: [f"assert {t[0]}, {t[1]}"]),
    )


def _compound_statement(exprs):
    def compound(inner):
        block = st.lists(inner, min_size=1, max_size=3).map(
            lambda stmts: _indent([line for s in stmts for line in s])
        )
        handler = st.sampled_from(
            ["except (ValueError, KeyError):", "except TypeError as err:", "except:", "finally:"]
        )
        return st.one_of(
            st.tuples(exprs, block, block).map(lambda t: [f"if {t[0]}:", *t[1], "else:", *t[2]]),
            st.tuples(_iterables(exprs), block).map(lambda t: [f"for v in {t[0]}:", *t[1]]),
            st.tuples(exprs, block).map(lambda t: [f"with {t[0]} as h:", *t[1]]),
            st.tuples(block, handler, block).map(lambda t: ["try:", *t[0], t[1], *t[2]]),
            block.map(lambda b: ["def g(a):", *b]),
        )

    return compound


# Every name a generated body can bind in f's scope: a last statement that
# returns or prints them all lets a property tell two runs apart.
_BOUND = "x, items, v, h, err, g"


def _functions(exprs, simple):
    statements = st.recursive(simple, _compound_statement(exprs), max_leaves=6)
    last = st.sampled_from([f"return ({_BOUND})", f"print({_BOUND})"])
    return st.tuples(st.lists(statements, min_size=1, max_size=4), last).map(
        lambda t: "\n".join(
            ["def f(x, items):", *_indent([ln for s in t[0] for ln in s] + [t[1]])]
        )
        + "\n"
    )


_FUNCTIONS = _functions(_expressions(_LEAVES), _simple_statement(_expressions(_LEAVES)))


@settings(max_examples=80, deadline=None)
@given(_FUNCTIONS, _FUNCTIONS)
def test_generated_function_facts_match_reference(old, new):
    assert_matches_reference(old, new, {"load": "fetch", "A": "B"})


@settings(max_examples=120, deadline=None)
@given(_FUNCTIONS, st.sampled_from([0, 7]))
def test_identical_sides_give_the_verdict_of_running_both(source, seed):
    # A pair whose sides are one text runs its old side alone; the twin whose
    # new side ends in one more blank line runs both and must agree.
    try:
        pair = make_pair(source, source)
    except SyntaxError:
        assume(False)
    twin = make_pair(source, source + "\n")
    assert pair.identical and not twin.identical
    cfg = EngineConfig(seed=seed, max_iterations=4)
    assert analyze(pair, cfg) == analyze(twin, cfg)


# The new side of a pair without renames takes the old side's leading
# statements that it repeats line for line, and parses only the rest. Its
# tree, or its error, must be the full parse's.


def _full_parse(source):
    """The tree ``parse_function`` gives ``source``, dumped with positions,
    or its error's type, message, line and offset."""
    try:
        parse_function(source)
    except Exception as exc:
        return type(exc), getattr(exc, "msg", str(exc)), exc.lineno, exc.offset
    return ast.dump(ast.parse(source).body[0], include_attributes=True)


def _new_side(old, new):
    """What ``make_pair`` gives for the new side, in ``_full_parse``'s terms."""
    try:
        pair = make_pair(old, new)
    except Exception as exc:
        return type(exc), getattr(exc, "msg", str(exc)), exc.lineno, exc.offset
    return ast.dump(pair.new.node, include_attributes=True)


# The block's own indentation first, as hypothesis draws the first most.
_EDIT_INDENTS = st.sampled_from(["    ", "        ", "", "  ", "\t"])
_EDIT_LINES = st.one_of(
    _simple_statement(_expressions(_LEAVES)).map(lambda s: s[0]),
    st.sampled_from(["pass", "if x:", "else:", "x = (", ")", "return x", "# note", ""]),
)
_EDITS = ["replace", "insert", "delete", "append", "indent", "join", "continue"]


def _edit(data, lines):
    """Apply one drawn line edit to ``lines`` in place. The line is counted
    from the end, where hypothesis draws most, as a change there leaves the
    most statements to share."""
    kind = data.draw(st.sampled_from(_EDITS))
    i = len(lines) - 1 - data.draw(st.integers(0, len(lines) - 1))
    if kind == "delete":
        if len(lines) > 1:
            del lines[i]
    elif kind == "indent":
        lines[i] = data.draw(_EDIT_INDENTS) + lines[i].lstrip()
    elif kind == "join":
        if i + 1 < len(lines):
            lines[i : i + 2] = [lines[i] + "; " + lines[i + 1].lstrip()]
    elif kind == "continue":
        lines[i] += " \\"
    else:
        line = data.draw(_EDIT_INDENTS) + data.draw(_EDIT_LINES)
        if kind == "replace":
            lines[i] = line
        else:
            lines.insert(len(lines) if kind == "append" else i, line)


@settings(max_examples=200, deadline=None)
@given(_FUNCTIONS, st.data())
def test_new_side_parses_as_the_whole_text_would(old, data):
    # The old side may take an edit too, so that its lines hold joins and
    # continuations for the new side's edits to meet.
    lines = old.splitlines()
    for _ in range(data.draw(st.integers(0, 1))):
        _edit(data, lines)
    old = "\n".join(lines) + "\n"
    try:
        parse_function(old)
    except SyntaxError:
        assume(False)
    for _ in range(data.draw(st.integers(1, 3))):
        _edit(data, lines)
    new = "\n".join(lines) + "\n"
    assert _new_side(old, new) == _full_parse(new)


_SHARED_OLD = "def f(x):\n    a = 1\n    b = 2\n    c = 3\n    return a\n"


@pytest.mark.parametrize(
    "new",
    [
        # The rest indented more, less or with a tab, where the shared
        # statements use four spaces: the full parse's IndentationError.
        "def f(x):\n    a = 1\n    b = 2\n    c = 3\n        return a\n",
        "def f(x):\n    a = 1\n    b = 2\n    c = 3\n  return a\n",
        "def f(x):\n    a = 1\n    b = 2\n    c = 3\n\treturn a\n",
        # The rest dedents to column 0: not one function definition.
        "def f(x):\n    a = 1\n    b = 2\n    c = 3\nreturn a\n",
        # Expressions nested too deeply for the compiler and for the parser.
        "def f(x):\n    a = 1\n    b = 2\n    c = 3\n    return " + "+".join(["a"] * 600) + "\n",
        "def f(x):\n    a = 1\n    b = 2\n    c = 3\n    return " + "+".join(["a"] * 3000) + "\n",
        # A rest outside the grammar, and one the host cannot parse.
        "def f(x):\n    a = 1\n    b = 2\n    c = 3\n    return a & 1\n",
        "def f(x):\n    a = 1\n    b = 2\n    c = 3\n    return (a\n",
    ],
    ids=["deeper", "shallower", "tab", "column 0", "compiler depth", "parser depth",
         "grammar", "host syntax"],
)
def test_new_side_rest_errors_as_the_whole_text_would(new):
    assert _new_side(_SHARED_OLD, new) == _full_parse(new)
    assert isinstance(_full_parse(new), tuple)


def test_new_side_rest_joined_to_a_shared_line_errors_as_the_whole_text_would():
    # The last shared line ends in a continuation, so the rest's first line
    # goes on the same logical line, where a compound statement cannot start.
    old = "def f(x):\n    a = 1\n    b = 2; \\\n    c = 3\n    return a\n"
    new = "def f(x):\n    a = 1\n    b = 2; \\\n    if x:\n        return 1\n"
    parse_function(old)
    assert _new_side(old, new) == _full_parse(new)
    assert _full_parse(new)[0] is SyntaxError


@pytest.mark.parametrize(
    "old, new, shared",
    [
        # A change on the last line only.
        (_SHARED_OLD, _SHARED_OLD.replace("return a", "return c"), 3),
        # A changed header: nothing is shared.
        (_SHARED_OLD, _SHARED_OLD.replace("f(x)", "f(x, y)"), 0),
        # The last shared line also starts the next statement, which goes on
        # in a string whose last line reads as a statement on its own.
        (
            "def f(x):\n    a = 1\n    b = 2; c = \"\"\"x\n    y\"\"\"\n    return c\n",
            "def f(x):\n    a = 1\n    b = 2; c = \"\"\"x\n    x = 5  # \"\"\"\n    return c\n",
            0,
        ),
        # A `;` line that ends before the change is shared whole.
        (
            "def f(x):\n    a = 1\n    b = 2; c = 3\n    return c\n",
            "def f(x):\n    a = 1\n    b = 2; c = 3\n    return b\n",
            3,
        ),
        # A rewrite shares the lines it keeps, however few.
        (_SHARED_OLD, "def f(x):\n    a = 1\n    for v in x:\n        a += v\n    return a\n", 1),
        # A continuation ends the last line that could be shared.
        (
            "def f(x):\n    a = 1\n    b = 2 + \\\n        3\n    return b\n",
            "def f(x):\n    a = 1\n    b = 2 + \\\n        3\n    return a\n",
            2,
        ),
        (
            "def f(x):\n    a = 1\n    b = 2; \\\n    c = 3\n    return a\n",
            "def f(x):\n    a = 1\n    b = 2; \\\n    c = 4\n    return a\n",
            0,
        ),
        # Identical texts parse whole.
        (_SHARED_OLD, _SHARED_OLD, 0),
        # A lone carriage return ends a line for the parser but not for a
        # split on newlines.
        (
            "def f(x):\n    a = 1\r    b = 2\n    c = 3\n    return a\n",
            "def f(x):\n    a = 1\r    b = 2\n    c = 3\n    return c\n",
            0,
        ),
    ],
    ids=["last line", "header", "semicolon boundary", "semicolon shared", "rewrite",
         "continued statement shared", "continued join", "identical", "lone CR"],
)
def test_new_side_shares_the_unchanged_leading_statements(old, new, shared):
    pair = make_pair(old, new)
    assert ast.dump(pair.new.node, include_attributes=True) == _full_parse(new)
    reused = [s for s in pair.new.node.body if any(s is t for t in pair.old.node.body)]
    assert reused == pair.old.node.body[:shared] == pair.new.node.body[:shared]


def test_batch_shaped_pair_shares_its_padding():
    # The batch benchmark's pairs pad a one-line change with unchanged
    # statements above it.
    pad = "".join(f"    v{i} = v{i - 1} * 7 + {i}\n" for i in range(1, 8))
    old = "def batch_0(num7):\n    v0 = 1\n" + pad + "    return num7 + 27\n"
    new = old.replace("+ 27", "+ 28")
    pair = make_pair(old, new, entry="batch_0")
    assert pair.new.node.body[0] is pair.old.node.body[0]
    assert pair.new.node.body[-1] is not pair.old.node.body[-1]
    assert ast.dump(pair.new.node, include_attributes=True) == _full_parse(new)


# Renames of one identifier of a generated function to another name of the
# same length or of a different one, which shifts columns. v, h, load, self
# and A are plain names there; err is a handler name, g a def name, a, x and
# items parameters, data, fetch and close attributes, key a keyword, and print
# and isinstance builtins. A builtin's name among the new names (a parameter
# x or items renamed to list or max, an attribute data renamed to max, a
# keyword key renamed to str) is one the function binds, or no Name.
_TOKEN_RENAMES = {
    "v": ("w", "value"), "h": ("k", "handle"), "load": ("read", "ld"),
    "self": ("this", "me"), "A": ("Z", "Alpha"), "err": ("exc", "error"),
    "g": ("q", "gen"), "a": ("p", "arg"), "x": ("y", "xs", "list"),
    "items": ("elems", "its", "max"), "data": ("info", "payload", "max"),
    "fetch": ("grab", "retrieve"), "close": ("shut", "finish"), "key": ("tag", "label", "str"),
    "print": ("say", "show"), "isinstance": ("isa", "is_a"),
}


def _name_tokens(source):
    return [
        tok for tok in tokenize.generate_tokens(io.StringIO(source).readline)
        if tok.type == tokenize.NAME
    ]


def _rename_tokens(source, old, new):
    """``source`` with every NAME token ``old`` replaced by ``new``, right to
    left on each line, so that a token's column is still where it was."""
    lines = source.splitlines(keepends=True)
    for tok in reversed(_name_tokens(source)):
        if tok.string == old:
            row, col = tok.start
            lines[row - 1] = lines[row - 1][:col] + new + lines[row - 1][col + len(old):]
    return "".join(lines)


def _identifier_fields(node):
    """(field, value) of every identifier field of ``node``, a Name's id
    included; a Constant has none."""
    if isinstance(node, ast.Constant):
        return []
    return [(f, v) for f, v in ast.iter_fields(node) if isinstance(v, str)]


def _merged_dump(source, table):
    """The function's merged tree with columns cleared, dumped with its line
    numbers."""
    tree = _merged_tree(source, table)
    for node in ast.walk(tree):
        for attr in ("col_offset", "end_col_offset"):
            if hasattr(node, attr):
                setattr(node, attr, 0)
    return ast.dump(tree, include_attributes=True)


@settings(max_examples=120, deadline=None)
@given(_FUNCTIONS, st.data())
def test_renamed_sides_are_identical_iff_one_program(source, data):
    # A renamed pair takes the one-run path exactly when its merged trees are
    # equal, and the path gives the verdict of running both sides.
    try:
        make_pair(source, source)
    except SyntaxError:
        assume(False)
    present = sorted({tok.string for tok in _name_tokens(source)} & set(_TOKEN_RENAMES))
    old_name = data.draw(st.sampled_from(present))
    renames = {old_name: data.draw(st.sampled_from(_TOKEN_RENAMES[old_name]))}
    new_source = _rename_tokens(source, old_name, renames[old_name])
    pair = make_pair(source, new_source, renames=renames)
    old_table, new_table = _tables(renames)
    assert pair.identical == (
        _merged_dump(source, old_table) == _merged_dump(new_source, new_table)
    )
    cfg = EngineConfig(seed=data.draw(st.sampled_from([0, 7])), max_iterations=4)
    assert analyze(pair, cfg) == analyze(replace(pair, identical=False), cfg)


# One pair per role a renamed name can take that a run shows: what shows is
# the merged name on both sides, so each pair is one program, and one run
# gives the verdict of two.
_RENAMED_ROLES = {
    # A function value renders its def's name.
    "def": (
        "def f(a):\n    def helper(x):\n        return x\n    return helper\n",
        {"helper": "assist"},
    ),
    # The missing-argument fault names the parameter.
    "parameter": (
        "def f(a):\n    def g(p):\n        return p\n    try:\n        return g()\n"
        "    except TypeError as e:\n        return str(e)\n",
        {"p": "q"},
    ),
    # The external call log records keyword names.
    "keyword": ("def f(a):\n    return load(key=a)\n", {"key": "tag"}),
    # The attribute-store fault names the attribute.
    "attribute": (
        "def f(a):\n    n = 1\n    try:\n        n.size = 2\n"
        "    except AttributeError as e:\n        return str(e)\n",
        {"size": "span"},
    ),
    # A builtin's name reads no builtin where the function binds it, or as
    # an attribute.
    "builtin variable": ("def f(a):\n    m = a.first\n    return m.size\n", {"m": "max"}),
    "builtin parameter": ("def f(list):\n    return len(list) + list.count\n", {"list": "items"}),
    "builtin attribute": ("def f(x):\n    return x.max + 1\n", {"max": "biggest"}),
}


def _renamed(source, renames):
    for o, n in renames.items():
        source = re.sub(rf"\b{o}\b", n, source)
    return source


@pytest.mark.parametrize("role", sorted(_RENAMED_ROLES))
def test_renamed_name_merges_in_every_role_a_run_shows(role):
    old, renames = _RENAMED_ROLES[role]
    pair = make_pair(old, _renamed(old, renames), renames=renames)
    assert pair.identical
    cfg = EngineConfig(seed=0)
    assert analyze(pair, cfg).classification == LIKELY_PRESERVING
    assert analyze(replace(pair, identical=False), cfg).classification == LIKELY_PRESERVING


def test_renamed_builtin_keeps_two_runs():
    # A builtin is dispatched by its name, which the rewrite leaves as
    # written; the new side's is not one, so running both sides finds the
    # difference that a one-run iteration would miss.
    old, renames = "def f(xs):\n    return len(xs)\n", {"len": "size"}
    pair = make_pair(old, _renamed(old, renames), renames=renames)
    assert not pair.identical
    cfg = EngineConfig(seed=0)
    assert analyze(pair, cfg).classification == SEMANTICS_CHANGING
    assert analyze(replace(pair, identical=True), cfg).classification != SEMANTICS_CHANGING


# Expressions and statements outside the grammar (and break and continue,
# outside it only where no loop encloses them), for mixing into the above.
_UNSUPPORTED_EXPRESSIONS = [
    "(x & 1)", "(x @ x)", "(~x)", "(x < x <= x)", "2j", "b'x'", "...", "{v for v in x}",
    "{v: v for v in x}", "(y := 1)", "g(*x)", "g(**x)", "g(2j, *x)", "x[::2]", "x[1:2, 3]",
    "f'{x:>3}'", "f'{x!a}'", "(lambda a=1: a)", "(lambda *a: a)", "{**x}", "{1: 2j, **x}",
    "[v async for v in x]", "[2j async for v in b'']", "await x", "(yield)", "[*x]",
    "(x if x else 1j)", "x.y[::-1]",
]
_UNSUPPORTED_STATEMENTS = [
    ["del x"], ["global g"], ["nonlocal g"], ["import os"], ["from os import path"],
    ["x @= 1"], ["x <<= 1"], ["a = b = 1"], ["a: int = 1"], ["break"], ["continue"],
    ["raise x.err"], ["raise x.err() from 1j"], ["[a, b] = x"], ["a, *b = x"], ["a, (b, c) = x"],
    ["x.y[1:2:3] += 1"], ["class C:", "    pass"], ["with x as (b, c):", "    pass"],
    ["with x, x:", "    pass"], ["def g(a=1):", "    pass"], ["@dec", "def g():", "    pass"],
    ["def g() -> int:", "    pass"], ["def g(a: int):", "    pass"],
    ["async def g():", "    pass"], ["while x:", "    break", "else:", "    pass"],
    ["for v in x:", "    continue", "else:", "    pass"],
    ["try:", "    pass", "except x.E:", "    pass"], ["match x:", "    case 1:", "        pass"],
    ["for v in x:", "    def g():", "        break"],
]
_MIXED_LEAVES = st.one_of(_LEAVES, _LEAVES, st.sampled_from(_UNSUPPORTED_EXPRESSIONS))
_MIXED_EXPRS = _expressions(_MIXED_LEAVES)
_MIXED_FUNCTIONS = _functions(
    _MIXED_EXPRS,
    st.one_of(_simple_statement(_MIXED_EXPRS), st.sampled_from(_UNSUPPORTED_STATEMENTS)),
)


@settings(max_examples=150, deadline=None)
@given(_MIXED_FUNCTIONS)
def test_generated_rejections_match_reference_validator(source):
    assert _verdict(source) == _ref_verdict(source)
