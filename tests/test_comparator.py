import types

import pytest
from hypothesis import given
from hypothesis import strategies as st

from pairguard.comparator import (
    ABSTAIN,
    DIFFERENCE,
    EQUIVALENT,
    IterationResult,
    compare,
)
from pairguard.driver import SEMANTICS_CHANGING, EngineConfig, analyze_sources
from pairguard.engine import (
    ComparisonProgram,
    derive_seed,
    run_one,
    snapshot_injected,
)
from pairguard.frontend import extract_static_facts, make_pair
from pairguard.predictor import HeuristicPredictor
from pairguard.values import ExceptionValue, serialize


def outcome(
    return_value="None",
    stdout="",
    call_log=None,
    exception=None,
):
    """A stand-in for a run, holding the four things the comparator reads
    of one; its return value is already rendered as ``return_value``."""
    return types.SimpleNamespace(
        stdout=stdout,
        call_log=list(call_log or []),
        exception=exception,
        return_value=return_value,
    )


def call(callee, *args, **kwargs):
    """The logged text of a call whose arguments render as ``args`` and ``kwargs``."""
    parts = [*args, *(f"{k}={v}" for k, v in sorted(kwargs.items()))]
    return f"{callee}({', '.join(parts)})"


def intentional(type_name, *args):
    return ExceptionValue(type_name, list(args), intentional=True)


def unintended(type_name):
    return ExceptionValue(type_name)


class TestResultInvariant:
    def test_difference_requires_fields(self):
        with pytest.raises(ValueError):
            IterationResult(status=DIFFERENCE)

    def test_equivalent_forbids_fields(self):
        with pytest.raises(ValueError):
            IterationResult(status=EQUIVALENT, dimension="state", detail="x")

    def test_plain_statuses_construct(self):
        assert IterationResult(status=EQUIVALENT).dimension is None
        assert IterationResult(status=ABSTAIN).detail is None


class TestAbstain:
    def test_unintended_on_either_side_abstains(self):
        bad = outcome(exception=unintended("TypeError"))
        good = outcome()
        assert compare(bad, good).status == ABSTAIN
        assert compare(good, bad).status == ABSTAIN

    def test_abstain_reason_names_the_side(self):
        bad = outcome(exception=unintended("StepBudgetExceeded"))
        assert compare(outcome(), bad).status == ABSTAIN

    def test_abstain_dominates_other_differences(self):
        bad = outcome(
            return_value="1",
            stdout="x",
            exception=unintended("TypeError"),
        )
        other = outcome(return_value="2")
        assert compare(bad, other).status == ABSTAIN

    def test_both_sides_listed_when_both_crash(self):
        a = outcome(exception=unintended("TypeError"))
        b = outcome(exception=unintended("KeyError"))
        assert compare(a, b).status == ABSTAIN


class TestExceptionDimension:
    def test_one_sided_intentional_exception(self):
        a = outcome(exception=intentional("ValueError", "x"))
        b = outcome()
        r = compare(a, b)
        assert r.status == DIFFERENCE
        assert r.dimension == "exception"
        assert "old: ValueError('x')" in r.detail
        assert "new: <no exception>" in r.detail

    def test_differing_intentional_exceptions(self):
        a = outcome(exception=intentional("ValueError", "x"))
        b = outcome(exception=intentional("KeyError", "x"))
        r = compare(a, b)
        assert r.dimension == "exception"

    def test_differing_args_count(self):
        a = outcome(exception=intentional("ValueError", "x"))
        b = outcome(exception=intentional("ValueError", "x", "y"))
        assert compare(a, b).dimension == "exception"

    def test_equal_intentional_exceptions_continue(self):
        a = outcome(exception=intentional("ValueError", "x"))
        b = outcome(exception=intentional("ValueError", "x"))
        assert compare(a, b).status == EQUIVALENT

    def test_equal_exceptions_still_check_state(self):
        a = outcome(exception=intentional("E"))
        b = outcome(exception=intentional("E"))
        r = compare(a, b, [("p", "1", "2")])
        assert r.dimension == "state"


class TestStateDimension:
    def test_return_value_difference(self):
        r = compare(outcome(return_value="1"), outcome(return_value="2"))
        assert r.dimension == "state"
        assert r.detail == "dimension: state\nold: 1\nnew: 2"

    def test_injected_state_difference_names_path(self):
        r = compare(outcome(), outcome(), [("self", "V(a)", "V(b)")])
        assert r.dimension == "state"
        assert r.detail == "dimension: state\npath: self\nold: V(a)\nnew: V(b)"

    def test_injected_state_respects_insertion_order(self):
        r = compare(outcome(), outcome(), [("b", "1", "9"), ("a", "2", "9")])
        assert "path: b" in r.detail

    @pytest.mark.parametrize("mutated, named", [(("b", "a"), "b"), (("a",), "a")])
    def test_snapshot_rows_go_in_first_read_order(self, mutated, named):
        # Paths read b, then a; the first of them whose new side a run
        # changed is the one the difference names.
        entries = {path: ([1], [1]) for path in ("b", "a")}
        for path in mutated:
            entries[path][1].append(2)
        rows = snapshot_injected(entries)
        assert [row[0] for row in rows] == ["b", "a"]
        r = compare(outcome(), outcome(), rows)
        assert r.detail == f"dimension: state\npath: {named}\nold: [1]\nnew: [1, 2]"


class TestDetailCap:
    def test_long_values_are_cut_with_their_full_length(self):
        old, new = "1" * 5000, "1" * 10 + "2" * 4990
        r = compare(outcome(return_value=old), outcome(return_value=new))
        assert r.status == DIFFERENCE
        assert r.detail.splitlines()[1:] == [
            f"old: {'1' * 1000}... [5000 characters]",
            f"new: {'1' * 10}{'2' * 990}... [5000 characters]",
        ]

    def test_cut_keeps_a_late_difference_visible(self):
        old, new = "1" * 5000, "1" * 4999 + "2"
        r = compare(outcome(return_value=old), outcome(return_value=new))
        assert r.detail.splitlines()[1:] == [
            f"old: ...{'1' * 1000} [5000 characters, from 4000]",
            f"new: ...{'1' * 999}2 [5000 characters, from 4000]",
        ]

    def test_cut_centres_a_middle_difference(self):
        old, new = "1" * 5000, "1" * 2000 + "2" + "1" * 2999
        lines = compare(outcome(return_value=old), outcome(return_value=new)).detail.splitlines()
        assert lines[2] == f"new: ...{'1' * 500}2{'1' * 499}... [5000 characters, from 1500]"

    def test_long_path_is_cut(self):
        path = "self." + "a" * 2000
        r = compare(outcome(), outcome(), [(path, "1", "2")])
        assert f"path: {path[:1000]}... [2005 characters]" in r.detail

    def test_values_at_the_cap_are_kept_whole(self):
        r = compare(outcome(return_value="1" * 1000), outcome(return_value="2"))
        assert r.detail.splitlines()[1] == f"old: {'1' * 1000}"


class TestOutputDimension:
    def test_stdout_difference_is_reprd(self):
        r = compare(outcome(stdout="a\n"), outcome(stdout="b\n"))
        assert r.dimension == "output"
        assert "stream: stdout" in r.detail
        assert "old: 'a\\n'" in r.detail


class TestCallsDimension:
    def test_differing_callee(self):
        a = outcome(call_log=[call("bus.alert", "1")])
        b = outcome(call_log=[call("bus.signal", "1")])
        r = compare(a, b)
        assert r.dimension == "calls"
        assert "old: bus.alert(1)" in r.detail
        assert "new: bus.signal(1)" in r.detail

    def test_differing_args(self):
        a = outcome(call_log=[call("go", "1")])
        b = outcome(call_log=[call("go", "2")])
        assert compare(a, b).dimension == "calls"

    def test_differing_kwargs(self):
        a = outcome(call_log=[call("go", mode="'a'")])
        b = outcome(call_log=[call("go", mode="'b'")])
        assert compare(a, b).dimension == "calls"

    def test_extra_call_renders_no_call(self):
        a = outcome(call_log=[call("go", "1"), call("go", "2")])
        b = outcome(call_log=[call("go", "1")])
        r = compare(a, b)
        assert "new: <no call>" in r.detail

    def test_first_mismatch_wins(self):
        a = outcome(call_log=[call("x"), call("y")])
        b = outcome(call_log=[call("x"), call("z")])
        r = compare(a, b)
        assert "old: y()" in r.detail

    @pytest.mark.parametrize(
        "old, new", [("log('a', 'b')", "log('a, b')"), ("send(x=1)", "send('x=1')")]
    )
    def test_call_texts_do_not_collide(self, old, new):
        # Each rendered argument is one quoted or bracketed literal, so a
        # call's text splits back into its arguments in only one way.
        v = analyze_sources(f"def f():\n    {old}\n", f"def f():\n    {new}\n")
        assert (v.classification, v.difference_dimension) == (SEMANTICS_CHANGING, "calls")


def compare_runs(old, new=None):
    """The comparison of iteration 0 of real runs of a pair, and the two
    runs' outcomes."""
    pair = make_pair(old, new or old)
    program = ComparisonProgram(
        pair, extract_static_facts(pair), EngineConfig(), HeuristicPredictor()
    )
    entries = {}
    seed = derive_seed(0, "iteration", 0)
    out_old = run_one("old", program, entries, seed)
    out_new = run_one("new", program, entries, seed)
    return compare(out_old, out_new, snapshot_injected(entries)), out_old, out_new


class TestTextOfRealRuns:
    """The exact exceptions abstaining runs end with, and the exception
    details real runs produce."""

    @pytest.mark.parametrize(
        "body, rendered",
        [
            ("while True:\n        pass", "StepBudgetExceeded()"),
            # The engine's call-depth cap, and the host's own stack limit
            # reached first when each call nests deeper expressions.
            (
                "def g():\n        return g()\n    return g()",
                "RecursionError('maximum call depth exceeded')",
            ),
            ("def g():\n        return [[[[[g()]]]]]\n    return g()", "RecursionError()"),
            # A def's tail return takes no host frame of its own, so two
            # statements per call reach the engine's cap first too.
            (
                "def g():\n        x = 1\n        return g()\n    return g()",
                "RecursionError('maximum call depth exceeded')",
            ),
            (
                "return 1 + 'a'",
                """TypeError("unsupported operand type(s) for +: 'int' and 'str'")""",
            ),
        ],
    )
    def test_abstain_reason(self, body, rendered):
        r, *outcomes = compare_runs(f"def f():\n    {body}\n")
        assert r.status == ABSTAIN
        assert [serialize(out.exception) for out in outcomes] == [rendered, rendered]

    def test_exception_detail_renders_each_argument(self):
        # The third argument is a list nested 16 deep around an empty one:
        # an exception's arguments are serialized one level below it, so
        # the innermost list is past the depth cap.
        nest = "n = []\n    for i in range(16):\n        n = [n]\n    "
        r, _, _ = compare_runs(
            f"def f():\n    {nest}raise ValueError('x', [1, 2], n)\n",
            f"def f():\n    {nest}raise ValueError('y', [1, 2], n)\n",
        )
        nested = "[" * 16 + "<depth>" + "]" * 16
        assert r.detail == (
            "dimension: exception\n"
            f"old: ValueError('x', [1, 2], {nested})\n"
            f"new: ValueError('y', [1, 2], {nested})"
        )


class TestDimensionOrdering:
    def test_exception_beats_state(self):
        a = outcome(return_value="1", exception=intentional("E"))
        b = outcome(return_value="2")
        assert compare(a, b).dimension == "exception"

    def test_state_beats_output(self):
        a = outcome(return_value="1", stdout="a")
        b = outcome(return_value="2", stdout="b")
        assert compare(a, b).dimension == "state"

    def test_output_beats_calls(self):
        a = outcome(stdout="a", call_log=[call("x")])
        b = outcome(stdout="b", call_log=[call("y")])
        assert compare(a, b).dimension == "output"

    def test_injected_state_beats_output(self):
        a = outcome(stdout="a")
        b = outcome(stdout="b")
        r = compare(a, b, [("p", "1", "2")])
        assert r.dimension == "state"
        assert "path: p" in r.detail


outcomes = st.builds(
    outcome,
    return_value=st.sampled_from(["None", "1", "'x'", "[1, 2]"]),
    stdout=st.sampled_from(["", "line\n"]),
    call_log=st.lists(
        st.builds(call, st.sampled_from(["go", "api.push"]), st.sampled_from(["1", "'x'"])),
        max_size=2,
    ),
    exception=st.none()
    | st.builds(intentional, st.sampled_from(["ValueError", "KeyError"]))
    | st.builds(unintended, st.sampled_from(["TypeError"])),
)
# The snapshot of one iteration: one (path, old, new) row per injected path.
_rendered = st.sampled_from(["1", "'v'", "VersatileObject(seed=3)"])
snapshots = st.tuples(
    *(st.tuples(st.just(path), _rendered, _rendered) for path in ["a", "b.c", "d['k']"])
)


@given(outcomes, snapshots)
def test_reflexivity(o, injected):
    twin = outcome(
        return_value=o.return_value,
        stdout=o.stdout,
        call_log=o.call_log,
        exception=o.exception,
    )
    r = compare(o, twin, [(path, ov, ov) for path, ov, _ in injected])
    if o.exception is not None and not o.exception.intentional:
        assert r.status == ABSTAIN
    else:
        assert r.status == EQUIVALENT


@given(outcomes, outcomes, snapshots)
def test_status_is_symmetric(a, b, injected):
    b = outcome(
        return_value=b.return_value,
        stdout=b.stdout,
        call_log=b.call_log,
        exception=b.exception,
    )
    swapped = [(path, nv, ov) for path, ov, nv in injected]
    assert compare(a, b, injected).status == compare(b, a, swapped).status


@given(outcomes, outcomes, snapshots)
def test_difference_always_carries_detail_block(a, b, injected):
    r = compare(a, b, injected)
    if r.status == DIFFERENCE:
        lines = r.detail.splitlines()
        assert lines[0] == f"dimension: {r.dimension}"
        assert any(line.startswith("old: ") for line in lines)
        assert any(line.startswith("new: ") for line in lines)
