import ast
import dataclasses
import gc
import json
import pathlib
import time

import pytest

import _corpus

from pairguard import (
    INCONCLUSIVE,
    LIKELY_PRESERVING,
    SEMANTICS_CHANGING,
    ConfigError,
    EngineConfig,
    analyze,
    analyze_sources,
    driver,
)
from pairguard.frontend import make_pair
from pairguard.predictor import Distribution, TablePredictor, load_table_predictor
from pairguard.values import AbstractValue

FIXTURES = pathlib.Path(__file__).parent / "fixtures"


def load(name):
    return json.loads((FIXTURES / "pairs" / f"{name}.json").read_text())


def table(name):
    return load_table_predictor(str(FIXTURES / "tables" / f"{name}.json"))


def run(name, cfg=None, predictor=None):
    data = load(name)
    pair = make_pair(
        data["old"], data["new"],
        renames=data.get("renames") or {},
        entry=data.get("entry"),
    )
    return analyze(pair, cfg or EngineConfig(seed=0), predictor=predictor)


class TestEngineConfig:
    def test_defaults(self):
        cfg = EngineConfig()
        assert cfg.max_iterations == 300
        assert cfg.exception_probability == 0.15
        assert cfg.max_structure_size == 4
        assert cfg.object_bias == 0.5

    @pytest.mark.parametrize(
        "kw",
        [
            {"max_iterations": 0},
            {"max_iterations": -3},
            {"exception_probability": -0.1},
            {"exception_probability": 1.5},
            {"object_bias": 2.0},
            {"max_structure_size": -1},
            # Not ints: a float count fails mid-analysis, and a bool or float
            # seed equal to an int seed draws other values (its repr differs).
            {"max_iterations": 2.5},
            {"max_iterations": True},
            {"max_structure_size": 2.5},
            {"max_structure_size": False},
            {"seed": True},
            {"seed": 1.0},
            {"seed": "1"},
            {"seed": None},
        ],
    )
    def test_validate_rejects(self, kw):
        with pytest.raises(ConfigError):
            EngineConfig(**kw).validate()

    def test_validate_accepts_defaults(self):
        EngineConfig().validate()

    def test_frozen(self):
        with pytest.raises(Exception):
            EngineConfig().max_iterations = 5


class TestVerdicts:
    def test_identity_pair_is_preserving(self):
        v = run("identity_abs_clamp")
        assert v.classification == LIKELY_PRESERVING
        assert v.difference is None
        assert v.difference_dimension is None

    def test_changing_pair_reports_difference(self):
        v = run("sum_all")
        assert v.classification == SEMANTICS_CHANGING
        assert v.difference_dimension == "state"
        assert v.difference.startswith("dimension: state")

    def test_changing_pair_stops_early(self):
        v = run("sum_all")
        assert v.iterations_run < 300

    def test_output_difference(self):
        v = run("report_status")
        assert v.classification == SEMANTICS_CHANGING
        assert v.difference_dimension == "output"

    def test_calls_difference(self):
        v = run("notify_all")
        assert v.classification == SEMANTICS_CHANGING
        assert v.difference_dimension == "calls"

    def test_unreachable_change_is_inconclusive(self):
        v = run("deep_guard", predictor=table("deep_guard"))
        assert v.classification == INCONCLUSIVE
        assert v.iterations_run == 300

    def test_preserving_pair_runs_full_budget(self):
        v = run("identity_greet")
        assert v.iterations_run == 300
        assert v.abstained_iterations < 300

    def test_rename_pair_with_map_is_preserving(self):
        v = run("rename_count_items")
        assert v.classification == LIKELY_PRESERVING


class TestCoverage:
    def test_identity_full_coverage(self):
        v = run("identity_abs_clamp")
        assert v.coverage.overall == 1.0
        assert v.coverage.per_side == (1.0, 1.0)

    def test_changed_line_fractions_bounded(self):
        v = run("sum_all")
        assert 0.0 <= v.coverage.changed_old <= 1.0
        assert 0.0 <= v.coverage.changed_new <= 1.0

    def test_identity_change_fraction_is_vacuous_full(self):
        # No changed lines at all: the reached requirement holds emptily.
        v = run("identity_greet")
        assert v.coverage.changed_old == 1.0
        assert v.coverage.changed_new == 1.0

    def test_unreached_change_scores_zero(self):
        v = run("deep_guard", predictor=table("deep_guard"))
        assert v.coverage.changed_old == 0.0
        assert v.coverage.changed_new == 0.0
        assert v.coverage.overall == 0.75
        assert v.coverage.per_side == (0.75, 0.75)


class TestDeterminism:
    def test_same_seed_same_verdict(self):
        a = run("identity_merge_maps")
        b = run("identity_merge_maps")
        assert a == b  # runtime_ms excluded from equality

    def test_exemplar_pair_deterministic(self):
        a = run("retry_meta", predictor=table("retry_meta"))
        b = run("retry_meta", predictor=table("retry_meta"))
        assert a == b
        assert a.classification == SEMANTICS_CHANGING

    def test_different_seed_may_change_iteration_count(self):
        counts = {
            run("sum_all", cfg=EngineConfig(seed=s)).iterations_run
            for s in range(4)
        }
        assert len(counts) >= 1  # all verdicts must still agree:
        for s in range(4):
            assert run("sum_all", cfg=EngineConfig(seed=s)).classification == SEMANTICS_CHANGING


class TestBudget:
    def test_budget_monotonicity(self):
        small = run("sum_all", cfg=EngineConfig(seed=0, max_iterations=40))
        large = run("sum_all", cfg=EngineConfig(seed=0, max_iterations=300))
        if small.classification == SEMANTICS_CHANGING:
            assert large.classification == SEMANTICS_CHANGING

    def test_single_iteration_still_classifies(self):
        v = run("identity_abs_clamp", cfg=EngineConfig(seed=0, max_iterations=1))
        assert v.iterations_run == 1
        assert v.classification in (LIKELY_PRESERVING, INCONCLUSIVE)

    def test_invalid_config_rejected_by_analyze(self):
        data = load("identity_greet")
        pair = make_pair(data["old"], data["new"])
        with pytest.raises(ConfigError):
            analyze(pair, EngineConfig(max_iterations=0))


class TestInvariants:
    @pytest.mark.parametrize(
        "name",
        ["identity_abs_clamp", "sum_all", "collect_names", "save_message",
         "rename_pick_max", "scaled_total"],
    )
    def test_difference_present_iff_changing(self, name):
        v = run(name)
        if v.classification == SEMANTICS_CHANGING:
            assert v.difference is not None
        else:
            assert v.difference is None

    def test_abstention_bounded_by_iterations(self):
        v = run("identity_risky_parse")
        assert 0 <= v.abstained_iterations <= v.iterations_run


def test_whole_corpus_verdicts_at_seed_zero():
    import _corpus

    mismatches = []
    for pair_id in _corpus.all_ids():
        verdict = _corpus.analyze_fixture(pair_id)
        want = _corpus.expected_verdict(pair_id)
        if verdict.classification != want:
            mismatches.append((pair_id, verdict.classification, want))
    assert mismatches == []


IDENTITY = [i for i in _corpus.all_ids() if i.startswith("identity_")]


@pytest.mark.parametrize("seed", [0, 7])
@pytest.mark.parametrize("pair_id", IDENTITY)
def test_identical_sides_give_the_verdict_of_running_both(pair_id, seed):
    # The pair runs its old side alone; the twin whose new side ends in one
    # more blank line runs both sides.
    data = _corpus.load_pair_data(pair_id)
    pair = make_pair(data["old"], data["new"])
    twin = make_pair(data["old"], data["new"] + "\n")
    assert pair.identical and not twin.identical
    cfg = EngineConfig(seed=seed)
    predictor = _corpus.predictor_for(pair_id)
    assert analyze(pair, cfg, predictor) == analyze(twin, cfg, predictor)


RENAMES = [i for i in _corpus.all_ids() if i.startswith("rename_")]


@pytest.mark.parametrize("seed", [0, 7])
@pytest.mark.parametrize("pair_id", RENAMES)
def test_renamed_sides_give_the_verdict_of_running_both(pair_id, seed):
    # Every corpus rename pair's merged sides are one program, so it runs
    # its old side alone; its two-run twin must agree. With renames, sameness
    # is of the merged trees, so one more blank line does not force two runs.
    data = _corpus.load_pair_data(pair_id)
    pair = make_pair(data["old"], data["new"], renames=data["renames"])
    assert pair.identical
    assert make_pair(data["old"], data["new"] + "\n", renames=data["renames"]).identical
    cfg = EngineConfig(seed=seed)
    predictor = _corpus.predictor_for(pair_id)
    assert analyze(pair, cfg, predictor) == analyze(
        dataclasses.replace(pair, identical=False), cfg, predictor
    )


@pytest.mark.parametrize("pair_id", ["identity_greet", "rename_count_items"])
def test_one_run_iteration_takes_no_snapshot_and_makes_no_comparison(pair_id, monkeypatch):
    def unused(*args):
        raise AssertionError("called on the one-run path")

    monkeypatch.setattr(driver, "snapshot_injected", unused)
    monkeypatch.setattr(driver, "compare", unused)
    assert _corpus.analyze_fixture(pair_id).classification == LIKELY_PRESERVING


def _defines_one_function(source):
    nodes = ast.walk(ast.parse(source))
    return sum(isinstance(n, (ast.FunctionDef, ast.Lambda)) for n in nodes) == 1


FLAT_PAIRS = [
    pair_id
    for pair_id in _corpus.all_ids()
    if all(_defines_one_function(_corpus.load_pair_data(pair_id)[side]) for side in ("old", "new"))
]


@pytest.mark.parametrize("pair_id", FLAT_PAIRS)
def test_runs_without_nested_functions_leave_no_cyclic_garbage(pair_id):
    # Every run binds its entry function in a root environment that the
    # function refers back to; the engine unbinds it when the run ends, so
    # reference counting frees the run, its injected values included.
    gc.collect()
    gc.disable()
    try:
        _corpus.analyze_fixture(pair_id, cfg=EngineConfig(seed=0, max_iterations=20))
        garbage = gc.collect()
    finally:
        gc.enable()
    assert garbage == 0


def test_a_generator_that_raises_mid_walk_leaves_no_cyclic_garbage():
    # The walk of the returned generator raises, so each run keeps the
    # generator as its result; no subject value refers back to a run, so
    # reference counting still frees every run.
    old = "def gen(n):\n    i = 0\n    while True:\n        yield i\n        i = i + 'a'\n"
    new = old.replace("'a'", "'b'")
    gc.collect()
    gc.disable()
    try:
        analyze_sources(old, new, cfg=EngineConfig(seed=0, max_iterations=5))
        garbage = gc.collect()
    finally:
        gc.enable()
    assert garbage == 0


def test_analyze_sources_convenience():
    old = "def f(a):\n    return a + 1\n"
    new = "def f(a):\n    return a + 2\n"
    v = analyze_sources(old, new, cfg=EngineConfig(seed=0))
    assert v.classification == SEMANTICS_CHANGING

    same = analyze_sources(old, old, cfg=EngineConfig(seed=0))
    assert same.classification == LIKELY_PRESERVING


class TestRegressions:
    def test_arithmetic_error_handler_catches_zero_division(self):
        source = (
            "def f():\n"
            "    try:\n"
            "        return 1 // 0\n"
            "    except ArithmeticError:\n"
            "        return 1\n"
        )
        v = analyze_sources(source, source, cfg=EngineConfig(seed=0, max_iterations=3))
        assert v.classification == LIKELY_PRESERVING
        assert v.abstained_iterations == 0

    def test_int_past_decimal_digit_limit_gets_a_verdict(self):
        big = "def f():\n    return 10 ** 5000\n"
        bigger = "def f():\n    return 10 ** 5000 + 1\n"
        cfg = EngineConfig(seed=0, max_iterations=3)
        assert analyze_sources(big, big, cfg=cfg).classification == LIKELY_PRESERVING
        v = analyze_sources(big, bigger, cfg=cfg)
        assert v.classification == SEMANTICS_CHANGING
        assert v.difference_dimension == "state"

    def test_long_difference_detail_is_capped(self):
        big = "def f():\n    return 10 ** 5000\n"
        bigger = "def f():\n    return 10 ** 5000 + 1\n"
        v = analyze_sources(big, bigger, cfg=EngineConfig(seed=0, max_iterations=3))
        assert v.classification == SEMANTICS_CHANGING
        lines = v.difference.splitlines()
        assert lines[0] == "dimension: state"
        for line in lines[1:]:
            assert len(line) < 1050
            assert line.endswith(" [4155 characters, from 3155]")
        # The two hex numbers differ only in their last digit, which the
        # window keeps.
        assert lines[1].removeprefix("old: ") != lines[2].removeprefix("new: ")

    @pytest.mark.parametrize("field", ["{0[x]}", "{0.x}"])
    def test_host_format_field_of_an_injected_object_abstains(self, field):
        # str.format indexes or reads the object itself; the host's TypeError
        # or AttributeError is an unintended exception, not a crash.
        source = f"def f(v):\n    return '{field}'.format(v)\n"
        pinned = TablePredictor(
            {("variable-read", "v"): Distribution({AbstractValue.OBJECT: 1.0})}
        )
        v = analyze_sources(
            source, source, cfg=EngineConfig(seed=0, max_iterations=1), predictor=pinned
        )
        assert v.classification == INCONCLUSIVE
        assert v.abstained_iterations == 1

    def test_str_replace_is_not_a_false_difference(self):
        old = "def f():\n    return 'a,b'.replace(',', ';')\n"
        new = "def f():\n    return 'a;b'\n"
        v = analyze_sources(old, new, cfg=EngineConfig(seed=0, max_iterations=3))
        assert v.classification == LIKELY_PRESERVING

    def test_huge_range_loop_abstains_on_the_step_budget_in_time(self):
        # Same style as acceptance criterion 9: a wall-clock budget around
        # the analysis. Walking the range lazily keeps one iteration bounded
        # by the step budget instead of by a billion-element list.
        source = "def f():\n    for i in range(10**9):\n        pass\n"
        started = time.monotonic()
        v = analyze_sources(source, source, cfg=EngineConfig(seed=0, max_iterations=1))
        elapsed = time.monotonic() - started
        assert v.classification == INCONCLUSIVE
        assert v.abstained_iterations == 1
        assert elapsed <= 2.0, f"one step-budget iteration took {elapsed:.2f}s"

    def test_repeated_doubling_abstains_on_the_step_budget_in_time(self):
        source = "def f():\n    s = 'ab'\n    for i in range(40):\n        s = s + s\n    return s\n"
        started = time.monotonic()
        v = analyze_sources(source, source, cfg=EngineConfig(seed=0, max_iterations=1))
        elapsed = time.monotonic() - started
        assert v.classification == INCONCLUSIVE
        assert v.abstained_iterations == 1
        assert elapsed <= 2.0, f"one step-budget iteration took {elapsed:.2f}s"

    @pytest.mark.parametrize("expr", ["list(range(10**9))", "'a' * 10**10"])
    def test_huge_result_abstains_on_the_step_budget_in_time(self, expr):
        source = f"def f():\n    return {expr}\n"
        started = time.monotonic()
        v = analyze_sources(source, source, cfg=EngineConfig(seed=0, max_iterations=1))
        elapsed = time.monotonic() - started
        assert v.classification == INCONCLUSIVE
        assert v.abstained_iterations == 1
        assert elapsed <= 2.0, f"one step-budget iteration took {elapsed:.2f}s"


    @pytest.mark.parametrize("seed", [0, 7])
    @pytest.mark.parametrize(
        "callee", ["db.load", ".".join(f"segment{i:02}" for i in range(12)) + ".load"]
    )
    def test_guarded_call_raises_what_its_handlers_name(self, callee, seed):
        # The second callee path is 124 characters, past the 120-character
        # cap: the try records it capped, as the call looks it up, so its
        # handlers' exception types are injected as for the short one.
        old, new = (
            f"def f(x):\n    try:\n        return {callee}(x)\n"
            f"    except {handled}:\n        return -1\n"
            for handled in ("ValueError", "KeyError")
        )
        v = analyze_sources(old, new, cfg=EngineConfig(seed=seed))
        assert v.classification == SEMANTICS_CHANGING
        assert v.difference_dimension in ("exception", "state")


class TestReplay:
    """An iteration that drew nothing from its seed is run once and counted
    for every remaining iteration, with the verdict of running them all.

    Each case runs a pair whose new side is its old one plus a blank line,
    so that both sides run, and the pair with identical sides, whose old
    side alone runs."""

    SIDES = pytest.mark.parametrize(
        "suffix, sides", [("\n", ["old", "new"]), ("", ["old"])], ids=["twin", "identical"]
    )

    @pytest.fixture
    def runs(self, monkeypatch):
        calls = []
        real = driver.run_one

        def counting(side, *args):
            calls.append(side)
            return real(side, *args)

        monkeypatch.setattr(driver, "run_one", counting)
        return calls

    @staticmethod
    def every_iteration_run(monkeypatch, old, new, cfg):
        """The verdict of ``analyze`` when every run reports that it drew
        from its seed, so that each iteration runs instead of counting one
        for the rest."""
        real = driver.run_one

        def always_seeded(*args):
            run = real(*args)
            run.seeded = True
            return run

        with monkeypatch.context() as m:
            m.setattr(driver, "run_one", always_seeded)
            return analyze_sources(old, new, cfg=cfg)

    @SIDES
    def test_exception_draw_alone_is_not_replayed(self, runs, suffix, sides):
        # Every call raises, so no return value is injected and the map
        # stays empty, but the exception was drawn from the seed.
        source = "def f():\n    try:\n        load()\n    except ValueError:\n        return -1\n"
        cfg = EngineConfig(seed=0, max_iterations=5, exception_probability=1.0)
        v = analyze_sources(source, source + suffix, cfg=cfg)
        assert v.classification == LIKELY_PRESERVING
        assert v.iterations_run == 5
        assert runs == sides * 5

    def test_seed_read_by_the_new_side_only_is_not_replayed(self, runs):
        old = "def f(x):\n    return 1\n"
        new = "def f(x):\n    y = x\n    return 1\n"
        v = analyze_sources(old, new, cfg=EngineConfig(seed=0, max_iterations=5))
        assert v.classification == LIKELY_PRESERVING
        assert v.iterations_run == 5
        assert len(runs) == 10

    @SIDES
    def test_closed_unintended_exception_abstains_every_iteration(
        self, runs, monkeypatch, suffix, sides
    ):
        source = "def f():\n    return 1 + 'a'\n"
        v = analyze_sources(source, source + suffix, cfg=EngineConfig(seed=0))
        assert v.classification == INCONCLUSIVE
        assert v.iterations_run == v.abstained_iterations == 300
        assert runs == sides
        assert v == self.every_iteration_run(
            monkeypatch, source, source + suffix, EngineConfig(seed=0)
        )

    @SIDES
    def test_closed_endless_loop_is_run_once(self, runs, monkeypatch, suffix, sides):
        source = "def f():\n    while True:\n        pass\n"
        v = analyze_sources(source, source + suffix, cfg=EngineConfig(seed=0))
        assert v.classification == INCONCLUSIVE
        assert v.iterations_run == v.abstained_iterations == 300
        assert v.coverage.overall == 1.0
        assert runs == sides
        # Running every iteration takes 100,000 steps a side each; compare
        # at a smaller budget.
        cfg = EngineConfig(seed=0, max_iterations=3)
        assert analyze_sources(source, source + suffix, cfg=cfg) == self.every_iteration_run(
            monkeypatch, source, source + suffix, cfg
        )

    @pytest.mark.parametrize(
        "old, new, classification, sides",
        [
            (
                "def f():\n    s = 0\n    for i in range(3):\n        s += i\n    return s\n",
                "def f():\n    return 3\n",
                LIKELY_PRESERVING,
                ["old", "new"],
            ),
            (
                "def f():\n    return 3\n",
                "def f():\n    return 4\n",
                SEMANTICS_CHANGING,
                ["old", "new"],
            ),
            (
                "def f(x):\n    return x\n",
                "def f(x):\n    return x\n\n",
                LIKELY_PRESERVING,
                ["old", "new"],
            ),
            ("def f(x):\n    return x\n", "def f(x):\n    return x\n", LIKELY_PRESERVING, ["old"]),
        ],
    )
    def test_single_iteration_budget(self, runs, monkeypatch, old, new, classification, sides):
        cfg = EngineConfig(seed=0, max_iterations=1)
        v = analyze_sources(old, new, cfg=cfg)
        assert v.classification == classification
        assert v.iterations_run == 1
        assert runs == sides
        assert v == self.every_iteration_run(monkeypatch, old, new, cfg)


class TestCoverageOfClauseLines:
    """Code lines come from a text scan, but only compiled nodes record
    coverage, so an ``except``, ``else:`` or ``finally:`` line is never
    reached, even when its clause runs."""

    @pytest.mark.xfail(strict=True, reason="clause header lines never record coverage")
    def test_a_changed_except_line_is_reached_when_its_handler_runs(self):
        old = (
            "def f(x):\n"
            "    try:\n"
            "        return int(x)\n"
            "    except ValueError:\n"
            "        return -1\n"
        )
        new = old.replace("except ValueError:", "except (ValueError, TypeError):")
        v = analyze_sources(old, new, cfg=EngineConfig(seed=0))
        # Handlers run in the iterations that do not abstain.
        assert v.abstained_iterations < v.iterations_run
        assert v.coverage.changed_old > 0.0

    @pytest.mark.xfail(strict=True, reason="clause header lines never record coverage")
    def test_an_if_else_whose_branches_all_run_is_fully_covered(self):
        source = "def f(a):\n    if a:\n        x = 1\n    else:\n        x = 2\n    return x\n"
        v = analyze_sources(source, source, cfg=EngineConfig(seed=0))
        assert v.coverage.overall == 1.0


def test_renamed_nested_def_is_preserving():
    # Under the rename map the two sides merge to one program, and each
    # side's def renders the merged name: <function helper_renamed_assist()
    # -> None> on both.
    old = "def f(a):\n    def helper(x):\n        return x\n    return helper\n"
    new = old.replace("helper", "assist")
    v = analyze_sources(old, new, renames={"helper": "assist"}, cfg=EngineConfig(seed=0))
    assert v.classification == LIKELY_PRESERVING


def test_analyze_sources_accepts_renames():
    old = "def f(xs):\n    count = 0\n    for x in xs:\n        count += 1\n    return count\n"
    new = "def f(xs):\n    total = 0\n    for x in xs:\n        total += 1\n    return total\n"
    v = analyze_sources(old, new, renames={"count": "total"}, cfg=EngineConfig(seed=0))
    assert v.classification == LIKELY_PRESERVING
