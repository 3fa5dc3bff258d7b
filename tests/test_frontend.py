import textwrap

import pytest

from pairguard.frontend import (
    Renamer,
    code_line_numbers,
    diff_changed_lines,
    extract_static_facts,
    isinstance_class_names,
    make_pair,
    parse_function,
    pretty_print,
    static_callee_path,
)
import ast


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
