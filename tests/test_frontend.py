import ast
import json
import textwrap

import _corpus
import _runs
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pairguard.frontend import (
    Renamer,
    StaticFacts,
    code_line_numbers,
    diff_changed_lines,
    extract_static_facts,
    isinstance_class_names,
    make_pair,
    parse_function,
    pretty_print,
    static_callee_path,
)


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


def test_walrus_rejected():
    # Parsed by the host grammar but outside the subset.
    with pytest.raises(SyntaxError):
        parse_function("def f(x):\n    if (y := x):\n        return y\n")


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
@pytest.mark.parametrize(
    "expr,message,offset",
    [
        ("{1: 2j}", "unsupported literal: complex", 16),
        ("{**x}", "dict unpacking is not supported", 12),
        ("[v for v in b'']", "unsupported literal: bytes", 24),
        ("[2j for v in x]", "unsupported literal: complex", 13),
        ("{1: 2j, **x}", "dict unpacking is not supported", 12),
        ("{1: 2j, 3j: 4}", "unsupported literal: complex", 20),
        ("[2j for v in b'']", "unsupported literal: complex", 13),
        ("[2j async for v in x]", "unsupported literal: complex", 13),
    ],
)
def test_rejection_message_and_position(expr, message, offset):
    with pytest.raises(SyntaxError) as info:
        parse_function(f"def f(x):\n    return {expr}\n")
    assert (info.value.msg, info.value.lineno, info.value.offset) == (message, 2, offset)


def test_parse_result_fields():
    fn = parse_function("def add(a, b):\n    # sum\n    return a + b\n")
    assert fn.name == "add"
    assert fn.params == ["a", "b"]
    assert fn.is_generator is False
    assert fn.line_count == 3
    assert fn.code_lines == frozenset({1, 3})


def test_generator_detection_ignores_nested_defs():
    outer = parse_function(
        "def f():\n    def g():\n        yield 1\n    return g()\n"
    )
    assert outer.is_generator is False
    gen = parse_function("def f(n):\n    yield n\n")
    assert gen.is_generator is True


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


def test_make_pair_requires_matching_entry():
    s = "def f(a):\n    return a\n"
    with pytest.raises(ValueError, match="entry"):
        make_pair(s, s, entry="g")


@pytest.mark.parametrize("terms", [600, 3000])
def test_make_pair_rejects_deeply_nested_expression(terms):
    # 600 terms exhaust the validator's recursion, 3000 the host parser's.
    deep = "def f():\n    return " + "+".join(["1"] * terms) + "\n"
    with pytest.raises(SyntaxError, match="nested too deeply"):
        make_pair(deep, "def f():\n    return 1\n")


def test_make_pair_rejects_duplicate_rename_targets():
    s = "def f(a):\n    return a\n"
    with pytest.raises(ValueError):
        make_pair(s, s, renames={"x": "z", "y": "z"})


def test_fixture_retry_pair_diff():
    import json
    import pathlib

    data = json.loads(
        (pathlib.Path(__file__).parent / "fixtures" / "pairs" / "retry_meta.json").read_text()
    )
    pair = make_pair(data["old"], data["new"], renames=data.get("renames") or {})
    assert pair.changed_lines_old == frozenset({3, 4, 5})
    assert pair.changed_lines_new == frozenset({3})


class TestRenamer:
    def test_old_side_maps_old_name(self):
        r = Renamer({"count": "total"}, "old")
        assert r.merge("count") == "count_renamed_total"
        assert r.merge("total") == "total"

    def test_new_side_maps_new_name(self):
        r = Renamer({"count": "total"}, "new")
        assert r.merge("total") == "count_renamed_total"
        assert r.merge("count") == "count"

    def test_unknown_side_rejected(self):
        with pytest.raises(ValueError):
            Renamer({}, "middle")

    def test_passthrough(self):
        assert Renamer({}, "old").merge("x") == "x"


class TestStaticPaths:
    def r(self):
        return Renamer({}, "old")

    def path_of(self, expr):
        node = ast.parse(expr, mode="eval").body
        return static_callee_path(node, self.r())

    def test_name(self):
        assert self.path_of("fetch") == "fetch"

    def test_dotted(self):
        assert self.path_of("self.session.get") == "self.session.get"

    def test_call_link(self):
        assert self.path_of("get_conn().close") == "get_conn().close"

    def test_dynamic_shapes_have_no_path(self):
        assert self.path_of("handlers[0]") is None
        assert self.path_of("(a or b).go") is None

    def test_rename_applies_per_segment(self):
        r = Renamer({"count": "total"}, "old")
        node = ast.parse("obj.count", mode="eval").body
        assert static_callee_path(node, r) == "obj.count_renamed_total"

    def test_isinstance_names(self):
        node = ast.parse("isinstance(x, (Foo, bar.Baz))", mode="eval").body
        assert isinstance_class_names(node.args[1], self.r()) == ["Foo", "bar.Baz"]


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


def test_pretty_print_round_trip():
    fn = parse_function("def f(a):\n    if a:\n        return a * 2\n    return 0\n")
    text = pretty_print(fn)
    again = parse_function(text + "\n")
    assert pretty_print(again) == text


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
# them before the subset validator recorded them. The recorded facts must
# equal these exactly, literal lists in order, because the literal pools feed
# seeded sampling.


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


def _ref_collect_side(fn, renamer: Renamer, facts: StaticFacts) -> None:
    _ref_collect_literals(fn.node, facts)
    exception_sets: dict[str, set[str]] = {}
    for node in ast.walk(fn.node):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            if node.func.id == "isinstance" and len(node.args) == 2:
                facts.isinstance_classes.update(
                    isinstance_class_names(node.args[1], renamer)
                )
        if isinstance(node, ast.Try):
            caught: set[str] = set()
            for h in node.handlers:
                if isinstance(h.type, ast.Name):
                    caught.add(renamer.merge(h.type.id))
                elif isinstance(h.type, ast.Tuple):
                    for e in h.type.elts:
                        if isinstance(e, ast.Name):
                            caught.add(renamer.merge(e.id))
            if not caught:
                continue
            for stmt in node.body:
                for sub in ast.walk(stmt):
                    if isinstance(sub, ast.Call):
                        path = static_callee_path(sub.func, renamer)
                        if path is not None:
                            exception_sets.setdefault(path, set()).update(caught)
    for path, names in exception_sets.items():
        existing = set(facts.call_exception_map.get(path, frozenset()))
        facts.call_exception_map[path] = frozenset(existing | names)


def _ref_static_facts(pair) -> StaticFacts:
    facts = StaticFacts()
    _ref_collect_side(pair.old, Renamer(pair.renames, "old"), facts)
    _ref_collect_side(pair.new, Renamer(pair.renames, "new"), facts)
    return facts


def assert_matches_reference(pair) -> None:
    for fn in (pair.old, pair.new):
        assert fn.is_generator == _ref_is_generator(fn.node)
        for node in ast.walk(fn.node):
            # The engine reads a nested def's flag from ``generators``.
            if isinstance(node, ast.FunctionDef):
                assert (node in fn.generators) == _ref_is_generator(node)
    facts = extract_static_facts(pair)
    ref = _ref_static_facts(pair)
    assert facts.literals_int == ref.literals_int
    # repr keeps -0.0 apart from 0.0.
    assert [repr(v) for v in facts.literals_float] == [repr(v) for v in ref.literals_float]
    assert facts.literals_str == ref.literals_str
    assert facts.isinstance_classes == ref.isinstance_classes
    assert facts.call_exception_map == ref.call_exception_map


def _pair_from(data):
    return make_pair(
        data["old"], data["new"], renames=data.get("renames") or {}, entry=data.get("entry")
    )


@pytest.mark.parametrize("pair_id", _corpus.all_ids())
def test_fixture_pair_facts_match_reference(pair_id):
    assert_matches_reference(_pair_from(_corpus.load_pair_data(pair_id)))


@pytest.mark.parametrize("workload", ["loops", "batch"])
@pytest.mark.parametrize("seed", [0, 7])
def test_benchmark_pair_facts_match_reference(workload, seed, tmp_path):
    cases = getattr(_runs._load_workloads(), workload)(tmp_path, seed).cases
    assert cases
    for case in cases:
        assert_matches_reference(_pair_from(json.loads(case.path.read_text())))


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

    def test_explicit_cases_match_reference(self):
        for expr in ["{1: 2, 3: 4}", "[x + 5 for x in range(6)]", "{-1: (y for y in x if 2)}"]:
            assert_matches_reference(
                make_pair(f"def f(x):\n    return {expr}\n", "def f(x):\n    return 0\n")
            )


# Generated subject functions: dicts, comprehensions, negative constants,
# f-strings, isinstance calls, nested try statements and nested (generator)
# defs, all inside the supported grammar.

_LITERAL_TEXT = st.text("ab z", max_size=3)
_LEAVES = st.one_of(
    st.integers(-300, 300).map(repr),
    st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False).map(repr),
    _LITERAL_TEXT.map(repr),
    st.sampled_from(["True", "None", "x", "self.data", "items"]),
)


def _compound(children):
    pairs = st.tuples(children, children)
    callee = st.sampled_from(["load", "self.fetch", "get_conn().close", "isinstance"])
    return st.one_of(
        pairs.map(lambda p: f"({p[0]} + {p[1]})"),
        children.map(lambda e: f"-{e}"),
        st.lists(pairs, max_size=3).map(
            lambda kv: "{" + ", ".join(f"{k}: {v}" for k, v in kv) + "}"
        ),
        st.tuples(children, children, children).map(
            lambda t: f"[{t[0]} for v in {t[1]} if {t[2]}]"
        ),
        pairs.map(lambda p: f"({p[0]} for v in {p[1]})"),
        st.lists(children, max_size=3).map(lambda es: "[" + ", ".join(es) + "]"),
        pairs.map(lambda p: f"{p[0]}[{p[1]}]"),
        pairs.map(lambda p: f"{p[0]}[{p[1]}:]"),
        st.tuples(children, st.one_of(st.sampled_from(["A", "(A, b.C)", "(Foo, 3)"]), children)).map(
            lambda t: f"isinstance({t[0]}, {t[1]})"
        ),
        st.tuples(callee, st.lists(children, max_size=2)).map(
            lambda t: f"{t[0]}({', '.join(t[1])})"
        ),
    )


_INNER = st.recursive(_LEAVES, _compound, max_leaves=6)
_FSTRING = st.lists(
    st.one_of(
        _LITERAL_TEXT,
        st.tuples(_INNER, st.sampled_from(["", "!r", "!s"])).map(lambda t: f"{{ {t[0]}{t[1]}}}"),
    ),
    max_size=4,
).map(lambda parts: 'f"' + "".join(parts) + '"')
_EXPRS = st.recursive(
    st.one_of(_LEAVES, _FSTRING), lambda c: st.one_of(_compound(c), _FSTRING), max_leaves=8
)


def _indent(lines):
    return ["    " + line for line in lines]


def _simple_statement():
    return st.one_of(
        _EXPRS.map(lambda e: [f"x = {e}"]),
        _EXPRS.map(lambda e: [f"yield {e}"]),
        _EXPRS.map(lambda e: [f"print({e})"]),
        _EXPRS.map(lambda e: [f"items[{e}] = -4"]),
        _EXPRS.map(lambda e: [f"raise ValueError({e})"]),
        _EXPRS.map(lambda e: [f"return {e}"]),
        st.tuples(_EXPRS, _EXPRS).map(lambda t: [f"assert {t[0]}, {t[1]}"]),
    )


def _compound_statement(inner):
    block = st.lists(inner, min_size=1, max_size=3).map(
        lambda stmts: _indent([line for s in stmts for line in s])
    )
    handler = st.sampled_from(
        ["except (ValueError, KeyError):", "except TypeError as err:", "except:", "finally:"]
    )
    return st.one_of(
        st.tuples(_EXPRS, block, block).map(lambda t: [f"if {t[0]}:", *t[1], "else:", *t[2]]),
        st.tuples(_EXPRS, block).map(lambda t: [f"for v in {t[0]}:", *t[1]]),
        st.tuples(_EXPRS, block).map(lambda t: [f"with {t[0]} as h:", *t[1]]),
        st.tuples(block, handler, block).map(lambda t: ["try:", *t[0], t[1], *t[2]]),
        block.map(lambda b: ["def g(a):", *b]),
    )


_STATEMENTS = st.recursive(_simple_statement(), _compound_statement, max_leaves=6)
_FUNCTIONS = st.lists(_STATEMENTS, min_size=1, max_size=4).map(
    lambda stmts: "\n".join(["def f(x, items):", *_indent([ln for s in stmts for ln in s])]) + "\n"
)


@settings(max_examples=80, deadline=None)
@given(_FUNCTIONS, _FUNCTIONS)
def test_generated_function_facts_match_reference(old, new):
    assert_matches_reference(make_pair(old, new, renames={"load": "fetch", "A": "B"}))
