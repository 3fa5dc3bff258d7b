import collections
import contextlib
import dataclasses
import io
import json
import os
import pathlib
import subprocess
import sys
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import _runs
from pairguard import analyze, analyze_sources, driver, engine
from pairguard.driver import EngineConfig
from pairguard.comparator import ABSTAIN, EQUIVALENT, compare
from pairguard.engine import (
    COMPARE_OPS,
    ComparisonProgram,
    Interpreter,
    SubjectError,
    derive_seed,
    iteration_seed,
    run_one,
    snapshot_injected,
)
from pairguard.frontend import extract_static_facts, make_pair
from pairguard.predictor import Distribution, HeuristicPredictor, Predictor, TablePredictor
from pairguard.values import (
    AbstractValue,
    SplitMix64,
    VersatileCallable,
    VersatileObject,
    concretize,
    randbelow,
    serialize,
    versatile_binop,
)
from test_values import _OPERANDS

FIXTURES = pathlib.Path(__file__).parent / "fixtures" / "pairs"

IDENTITY_NAMES = [
    p.stem for p in sorted(FIXTURES.glob("identity_*.json"))
]
RENAME_NAMES = [p.stem for p in sorted(FIXTURES.glob("rename_*.json"))]


def load_fixture(name):
    return json.loads((FIXTURES / f"{name}.json").read_text())


def pin(**names):
    """Table predictor forcing given variable names to given kinds."""
    entries = {
        ("variable-read", name): Distribution({kind: 1.0})
        for name, kind in names.items()
    }
    return TablePredictor(entries)


def build_program(old, new=None, renames=None, cfg=None, predictor=None):
    # Both sides run here, so the new side reads copies even when the
    # sides are one text.
    pair = dataclasses.replace(make_pair(old, new or old, renames=renames or {}), identical=False)
    return ComparisonProgram(
        pair,
        extract_static_facts(pair),
        cfg or EngineConfig(),
        predictor or HeuristicPredictor(),
    )


def run_side(source, side="old", new=None, renames=None, cfg=None, predictor=None,
             iteration=0, entries=None):
    program = build_program(source, new, renames, cfg, predictor)
    entries = entries if entries is not None else {}
    seed = derive_seed(program.cfg.seed, "iteration", iteration)
    return run_one(side, program, entries, seed), entries


def run_pair(old, new=None, renames=None, cfg=None, predictor=None, iteration=0):
    program = build_program(old, new, renames, cfg, predictor)
    entries = {}
    seed = derive_seed(program.cfg.seed, "iteration", iteration)
    out_old = run_one("old", program, entries, seed)
    out_new = run_one("new", program, entries, seed)
    return out_old, out_new, entries


def old_state(entries):
    """The old side's rendering of each injected path."""
    return {path: serialize(v_old) for path, (v_old, _) in entries.items()}


def cpython_outcome(source):
    """(stdout, repr of the return value or None, exception type name or
    None) of calling the closed function ``f`` under CPython."""
    namespace: dict = {}
    exec(source, namespace)
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        try:
            returned, raised = repr(namespace["f"]()), None
        except Exception as exc:
            returned, raised = None, type(exc).__name__
    return stdout.getvalue(), returned, raised


def engine_outcome(source):
    """The same triple for one engine run of ``f``."""
    out, _ = run_side(source)
    raised = out.exception.type_name if out.exception is not None else None
    return out.stdout, out.return_value, raised


class TestDeriveSeed:
    def test_frozen_reference_value(self):
        # Pinned so stored corpora replay identically across releases.
        assert derive_seed(0, "iteration", 0) == 10661098307599182943

    def test_stable_within_process(self):
        assert derive_seed("a", 1) == derive_seed("a", 1)

    def test_parts_are_order_sensitive(self):
        assert derive_seed(1, 2) != derive_seed(2, 1)

    def test_int_and_str_parts_differ(self):
        assert derive_seed(1) != derive_seed("1")

    @given(st.lists(st.integers(0, 50) | st.text(max_size=6), max_size=4))
    def test_range_is_64_bit(self, parts):
        assert 0 <= derive_seed(*parts) < 2**64


# Value draw keys as the engine builds them: quotes, backslashes and
# non-ASCII text in a path, a path capped with ``...``, and a super() read.
_KEYS = [
    ("value", "x"),
    ("value", "d['it\\'s']"),
    ("value", 'm["a\\\\b"].c'),
    ("value", "naïve.π['ü']"),
    ("value", engine._access_path("x" + ".field" * 30, ".last")),
    ("value", "super()#2"),
]


class _Always(Predictor):
    """Answers every query with one distribution."""

    def __init__(self, dist):
        self.dist = dist

    def predict(self, query):
        return self.dist


class _SplitMixReference:
    """splitmix64 as published (Steele, Lea and Flood, 2014): each output
    advances the state by the golden gamma and mixes it. ``getrandbits(k)``
    takes the top ``k`` bits of one output, ``random()`` the top 53."""

    def __init__(self, seed):
        self.state = seed % 2**64

    def next(self):
        self.state = (self.state + 0x9E3779B97F4A7C15) % 2**64
        z = self.state
        z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 % 2**64
        z = (z ^ (z >> 27)) * 0x94D049BB133111EB % 2**64
        return z ^ (z >> 31)

    def getrandbits(self, k):
        return self.next() >> (64 - k)

    def random(self):
        return (self.next() >> 11) / 2**53


class TestKeyedSeeds:
    """Iteration and draw seeds hashed in pieces equal ``derive_seed``'s, and
    each keyed draw takes what a splitmix64 stream seeded with it yields."""

    ITERATION_SEEDS = (0, 1, 2**64 - 1, derive_seed(7, "iteration", 3))

    def test_the_reference_gives_the_published_outputs(self):
        reference = _SplitMixReference(0)
        assert [reference.next() for _ in range(3)] == [
            0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F,
        ]

    def test_the_stream_is_the_reference(self):
        ours = SplitMix64()
        for seed in self.ITERATION_SEEDS:
            ours.seed(seed)
            theirs = _SplitMixReference(seed)
            for k in (1, 2, 3, 31, 32, 33, 53, 63, 64):
                assert ours.getrandbits(k) == theirs.getrandbits(k)
                assert ours.random() == theirs.random()
            assert ours.state == theirs.state

    def test_an_injected_value_is_drawn_from_derive_seed(self):
        # Every kind has mass, so the sampled kind varies with the seed.
        dist = Distribution({k: 1 / len(AbstractValue) for k in AbstractValue})
        program = build_program("def f():\n    return x\n", predictor=_Always(dist))
        site = program.pair.old.node.body[0]
        # Interleaved iteration seeds, twice: a draw that fed a cached
        # ``draw_hasher`` would move every later draw from that seed.
        for _round in range(2):
            for _, path in _KEYS:
                for seed in self.ITERATION_SEEDS:
                    interpreter = Interpreter("old", program, {}, seed)
                    reference = _SplitMixReference(derive_seed(seed, "value", path))
                    if path.startswith("super()"):
                        value = interpreter._inject("super", "super", path, None)
                        expected = VersatileObject(reference.getrandbits(64), None)
                    else:
                        value = interpreter._inject("variable-read", "x", path, site)
                        expected = concretize(dist.sample(reference), program.ccfg, reference)
                    assert type(value) is type(expected), path
                    assert serialize(value) == serialize(expected), path
                    assert program.rng.state == reference.state, path

    @pytest.mark.parametrize("seed", ITERATION_SEEDS)
    def test_an_exc_draw_is_drawn_from_derive_seed(self, seed):
        source = (
            "def f(t):\n"
            "    try:\n"
            "        return parse(t)\n"
            "    except (KeyError, ValueError, OSError):\n"
            "        return 'caught'\n"
        )
        program = build_program(source, cfg=EngineConfig(exception_probability=1.0))
        types = program.call_exceptions["parse"]
        assert len(types) == 3
        interpreter = Interpreter("old", program, {}, seed)
        site = program.pair.old.node.body[0]
        for occurrence in (1, 2):
            with pytest.raises(SubjectError) as raised:
                interpreter._external_call("parse", [], {}, site)
            reference = _SplitMixReference(derive_seed(seed, "exc", "parse", occurrence))
            assert reference.random() < 1.0
            assert raised.value.value.type_name == types[randbelow(reference, len(types))]
            assert raised.value.value.intentional
            assert program.rng.state == reference.state
        assert interpreter.seeded

    @pytest.mark.parametrize("seed", [-1, 0, 7, 2**70])
    def test_iteration_seeds_are_derive_seed(self, seed, monkeypatch):
        seen = []

        def recording_run_one(side, program, entries, iteration_seed):
            seen.append(iteration_seed)
            return run_one(side, program, entries, iteration_seed)

        monkeypatch.setattr(driver, "run_one", recording_run_one)
        verdict = analyze_sources(
            "def f():\n    return x\n",
            "def f():\n    y = x\n    return y\n",
            cfg=EngineConfig(seed=seed, max_iterations=12),
        )
        assert verdict.iterations_run == 12
        assert seen == [derive_seed(seed, "iteration", i) for i in range(12) for _ in ("old", "new")]

    @pytest.mark.parametrize("seed", [-1, 0, 7, 2**70])
    def test_cached_iteration_seeds_are_derive_seed(self, seed):
        for _ in range(2):
            assert [iteration_seed(seed, i) for i in range(300)] == [
                derive_seed(seed, "iteration", i) for i in range(300)
            ]
        # Equal seeds of other types have another repr, so another seed.
        assert iteration_seed(True, 0) == derive_seed(True, "iteration", 0) != iteration_seed(1, 0)

    @pytest.mark.parametrize("kind", list(AbstractValue))
    def test_a_run_draws_an_injected_value_from_derive_seed(self, kind):
        # Most of the mass on ``kind``, so the sampled kind varies too.
        dist = Distribution({k: 0.56 if k is kind else 0.04 for k in AbstractValue})
        predictor = TablePredictor({("variable-read", "x"): dist})
        program = build_program("def f():\n    return x\n", predictor=predictor)
        for n in range(25):
            seed = derive_seed(n, "iteration", 0)
            entries = {}
            run_one("old", program, entries, seed)
            rng = _SplitMixReference(derive_seed(seed, "value", "x"))
            expected = concretize(dist.sample(rng), program.ccfg, rng)
            value = entries["x"][0]
            assert type(value) is type(expected)
            assert serialize(value) == serialize(expected)
            assert program.rng.state == rng.state

    def test_a_path_read_twice_reseeds_once(self):
        program = build_program(
            "def f():\n    return x.a, x.a\n", predictor=pin(x=AbstractValue.INTEGER)
        )

        class CountingGenerator(type(program.rng)):
            reseeds = 0

            def seed(self, n):
                self.reseeds += 1
                super().seed(n)

        program.rng = CountingGenerator()
        entries = {}
        seed = derive_seed(0, "iteration", 0)
        old = run_one("old", program, entries, seed)
        new = run_one("new", program, entries, seed)
        assert old.return_value == new.return_value
        assert list(entries) == ["x", "x.a"]
        assert program.rng.reseeds == 2


class _RecordingPredictor(Predictor):
    """The heuristic, recording each query it answers."""

    def __init__(self):
        self.queries = []

    def predict(self, query):
        self.queries.append(query)
        return HeuristicPredictor().predict(query)


class TestRenamedNamesAskedAsWritten:
    """On a renamed pair the predictor is asked in the names the old side
    writes, in the query's name and its context text; the access path stays
    merged."""

    OLD = "def f():\n    return values\n"
    NEW = "def f():\n    return value\n"
    RENAMES = {"values": "value"}

    def test_the_heuristic_reads_the_old_name(self):
        recording = _RecordingPredictor()
        _, _, entries = run_pair(self.OLD, self.NEW, renames=self.RENAMES, predictor=recording)
        assert list(entries) == ["values_renamed_value"]
        assert [(q.kind, q.name, q.context) for q in recording.queries] == [
            ("variable-read", "values", "return values")
        ]
        # The plural rule on ``values`` (List 0.56), not the mixed default
        # that ``values_renamed_value`` would get (Object 0.30).
        program = build_program(self.OLD, self.NEW, renames=self.RENAMES)
        site = program.pair.old.node.body[0]
        answer = program.distribution("variable-read", "values_renamed_value", site)
        assert answer.get(AbstractValue.LIST) == 0.56

    def test_the_context_names_the_old_name(self):
        # The numeric-context rule finds ``a`` in ``return a * 2`` only when
        # the text says ``a``, not ``a_renamed_b``.
        recording = _RecordingPredictor()
        run_pair(
            "def f():\n    return a * 2 + a.size()\n",
            "def f():\n    return b * 2 + b.size()\n",
            renames={"a": "b"},
            predictor=recording,
        )
        queries = [(q.kind, q.name, q.context) for q in recording.queries]
        assert queries == [
            ("variable-read", "a", "return a * 2 + a.size()"),
            ("call-return", "a.size", "return a * 2 + a.size()"),
        ]
        assert HeuristicPredictor().predict(recording.queries[0]).get(AbstractValue.INTEGER) == 0.56

    def test_a_table_keyed_by_the_old_name_hits(self):
        table = TablePredictor(
            {("variable-read", "values"): Distribution({AbstractValue.TUPLE: 1.0})}
        )
        for iteration in range(8):
            old, new, _ = run_pair(
                self.OLD, self.NEW, renames=self.RENAMES, predictor=table, iteration=iteration
            )
            assert old.return_value.startswith("(") and old.return_value == new.return_value


class _RecordingTable(TablePredictor):
    """A table predictor recording each query that reaches ``predict``."""

    def __init__(self, entries):
        super().__init__(entries)
        self.queries = []

    def predict(self, query):
        self.queries.append(query)
        return super().predict(query)


class TestTableLookup:
    """A name the table holds is answered by ``lookup`` alone, with no
    context rendered and no query built; any other name takes the query
    path, in the old side's names."""

    OLD = "def f():\n    return values, size\n"
    NEW = "def f():\n    return value, size\n"
    RENAMES = {"values": "value"}

    def test_a_hit_renders_no_context_and_asks_nothing(self, monkeypatch):
        entry = Distribution({AbstractValue.TUPLE: 1.0})
        table = _RecordingTable(
            {("variable-read", "values"): entry, ("variable-read", "size"): entry}
        )
        program = build_program(self.OLD, self.NEW, renames=self.RENAMES, predictor=table)
        rendered = []
        real_context, real_unparse = ComparisonProgram.context, engine.ast.unparse

        def context(self, node):
            rendered.append(node)
            return real_context(self, node)

        def unparse(node):
            rendered.append(node)
            return real_unparse(node)

        monkeypatch.setattr(ComparisonProgram, "context", context)
        monkeypatch.setattr(engine.ast, "unparse", unparse)
        site = program.pair.old.node.body[0]
        assert program.distribution("variable-read", "values_renamed_value", site) is entry
        entries = {}
        seed = derive_seed(program.cfg.seed, "iteration", 0)
        out_old = run_one("old", program, entries, seed)
        out_new = run_one("new", program, entries, seed)
        assert sorted(entries) == ["size", "values_renamed_value"]
        assert out_old.return_value == out_new.return_value
        assert rendered == [] and table.queries == []

    def test_a_miss_asks_once_in_the_old_names(self):
        table = _RecordingTable(
            {("variable-read", "size"): Distribution({AbstractValue.INTEGER: 1.0})}
        )
        for iteration in range(4):
            table.queries.clear()
            run_pair(self.OLD, self.NEW, renames=self.RENAMES, predictor=table, iteration=iteration)
            assert [(q.kind, q.name, q.context) for q in table.queries] == [
                ("variable-read", "values", "return (values, size)")
            ]


class TestInjectedEntries:
    """An iteration's injected values: ``Interpreter._inject`` draws each
    path once, copies it for the new side and checks the copy, and the
    snapshot renders again only what a run could have changed."""

    def test_the_first_draw_wins(self):
        drawn = [1, 2]
        entries = {"xs": (drawn, [1, 2])}
        source = "def f():\n    return xs, xs\n"
        out, _ = run_side(source, entries=entries, predictor=pin(xs=AbstractValue.INTEGER))
        assert out.return_value == "([1, 2], [1, 2])"
        assert not out.seeded
        assert entries["xs"][0] is drawn
        _, _, entries = run_pair(source, predictor=pin(xs=AbstractValue.LIST))
        assert list(entries) == ["xs"]

    def test_the_sides_get_independent_copies(self):
        out_old, out_new, entries = run_pair(
            "def f():\n    xs.append(9)\n    return len(xs)\n",
            "def f():\n    return len(xs)\n",
            predictor=pin(xs=AbstractValue.LIST),
        )
        v_old, v_new = entries["xs"]
        assert v_old is not v_new and v_old == v_new + [9]
        assert int(out_old.return_value) == int(out_new.return_value) + 1
        # Only the side that drew reports that it read the seed.
        assert out_old.seeded and not out_new.seeded

    def test_super_is_drawn_and_copied_as_a_read_is(self):
        out_old, out_new, entries = run_pair(
            "def f():\n    s = super()\n    s.x = 1\n    return super()\n"
        )
        assert list(entries) == ["super()#1", "super()#2"]
        v_old, v_new = entries["super()#1"]
        assert isinstance(v_old, VersatileObject) and v_old.assigned_type is None
        assert v_new is not v_old and v_old.stored == v_new.stored == {"x": 1}
        assert out_old.return_value == out_new.return_value

    def test_a_copy_that_renders_unlike_its_value_is_refused(self, monkeypatch):
        monkeypatch.setattr(engine, "deep_copy", lambda v: v + [0])
        with pytest.raises(RuntimeError, match="consistency violation at 'xs'"):
            run_side("def f():\n    return xs\n", predictor=pin(xs=AbstractValue.LIST))

    def test_rows_come_in_first_read_order(self):
        lists = {name: AbstractValue.LIST for name in "zam"}
        _, _, entries = run_pair("def f():\n    return z, a, m\n", predictor=pin(**lists))
        assert [path for path, _, _ in snapshot_injected(entries)] == ["z", "a", "m"]

    def test_a_one_program_pair_never_copies_or_renders_a_value(self, monkeypatch):
        source = "def f():\n    xs.append(1)\n    return None\n"
        pair = make_pair(source, source)
        assert pair.identical
        program = ComparisonProgram(
            pair, extract_static_facts(pair), EngineConfig(), pin(xs=AbstractValue.LIST)
        )
        rendered = []
        real = engine.serialize
        monkeypatch.setattr(engine, "deep_copy", lambda v: pytest.fail("copied"))
        monkeypatch.setattr(engine, "serialize", lambda v, *a: rendered.append(v) or real(v, *a))
        entries = {}
        out = run_one("old", program, entries, derive_seed(0, "iteration", 0))
        v_old, v_new = entries["xs"]
        assert v_old is v_new and v_old[-1] == 1
        assert rendered == []
        # Nothing the driver reads: the return value renders when first read.
        assert out.return_value == "None"
        assert out.return_value == "None"
        assert rendered == [None]

    def test_an_abstaining_iteration_renders_no_return_value(self, monkeypatch):
        rendered = []
        real = engine.serialize
        monkeypatch.setattr(engine, "serialize", lambda v, *a: rendered.append(v) or real(v, *a))
        program = build_program(
            "def f():\n    return [1, 2]\n", "def f():\n    return 1 // 0\n"
        )
        entries = {}
        seed = derive_seed(0, "iteration", 0)
        out_old = run_one("old", program, entries, seed)
        out_new = run_one("new", program, entries, seed)
        assert out_new.exception.type_name == "ZeroDivisionError" and not out_new.exception.intentional
        assert compare(out_old, out_new, snapshot_injected(entries)).status == ABSTAIN
        assert rendered == []
        # A compared run keeps its result, so the first read renders it.
        assert out_old.return_value == "[1, 2]" and out_new.return_value is None
        assert rendered == [[1, 2]]

    @staticmethod
    def counted_snapshots(monkeypatch, old, new, **kinds):
        """The snapshot rows of a pair's iteration 0, the values rendered
        while its runs were made and those rendered by the snapshot."""
        rendered = []
        real = engine.serialize

        def counting(value, *args):
            rendered.append(value)
            return real(value, *args)

        monkeypatch.setattr(engine, "serialize", counting)
        _, _, entries = run_pair(old, new, predictor=pin(**kinds))
        in_runs = list(rendered)
        rendered.clear()
        return snapshot_injected(entries), in_runs, rendered, entries

    def test_a_shared_value_gets_no_row_and_no_rendering(self, monkeypatch):
        rows, in_runs, in_snapshot, entries = self.counted_snapshots(
            monkeypatch,
            "def f():\n    a + b\n    return None\n",
            "def f():\n    b + a\n    return None\n",
            a=AbstractValue.INTEGER,
            b=AbstractValue.INTEGER,
        )
        assert list(entries) == ["a", "b"]
        assert all(v_old is v_new for v_old, v_new in entries.values())
        # Nothing is rendered: each run keeps its return value until read.
        assert in_runs == []
        assert rows == in_snapshot == []

    def test_a_copied_list_is_rendered_once_per_side(self, monkeypatch):
        rows, in_runs, in_snapshot, entries = self.counted_snapshots(
            monkeypatch,
            "def f():\n    return len(xs)\n",
            "def f():\n    xs.append(1)\n    return len(xs) - 1\n",
            xs=AbstractValue.LIST,
        )
        v_old, v_new = entries["xs"]
        assert v_new == v_old + [1]
        # The draw renders both to check the copy, before either side runs.
        assert [id(v) for v in in_runs if isinstance(v, list)] == [id(v_old), id(v_new)]
        assert [id(v) for v in in_snapshot] == [id(v_old), id(v_new)]
        assert rows == [("xs", serialize(v_old), serialize(v_new))]

    def test_a_mutated_injected_list_reports_the_same_state_detail(self):
        old = "def f():\n    return len(xs)\n"
        new = "def f():\n    xs.append(1)\n    return len(xs) - 1\n"
        predictor = pin(xs=AbstractValue.LIST)
        verdict = analyze_sources(old, new, cfg=EngineConfig(seed=0), predictor=predictor)
        # The first iteration's list, whatever it holds, as both sides leave it.
        _, _, entries = run_pair(old, new, cfg=EngineConfig(seed=0), predictor=predictor)
        v_old, v_new = entries["xs"]
        assert v_new == v_old + [1]
        assert verdict.iterations_run == 1
        assert verdict.difference_dimension == "state"
        assert verdict.difference == (
            f"dimension: state\npath: xs\nold: {serialize(v_old)}\nnew: {serialize(v_new)}"
        )


class TestInjection:
    def test_undefined_parameter_is_injected(self):
        out, entries = run_side("def f(items):\n    return items\n")
        assert "items" in entries

    def test_injected_list_name_gets_list(self):
        out, _ = run_side(
            "def f(items):\n    return len(items)\n",
            predictor=pin(items=AbstractValue.LIST),
        )
        assert out.exception is None
        assert out.return_value in {"0", "1", "2", "3", "4"}

    def test_local_binding_suppresses_injection(self):
        out, entries = run_side("def f():\n    items = [1]\n    return items\n")
        assert entries == {}
        assert out.return_value == "[1]"

    def test_attribute_read_path(self):
        out, entries = run_side(
            "def f(self):\n    return self.payload\n",
            predictor=pin(self=AbstractValue.OBJECT),
        )
        assert "self" in entries
        assert "self.payload" in entries

    def test_attribute_reads_are_cached_per_object(self):
        out, _ = run_side(
            "def f(self):\n    a = self.payload\n    b = self.payload\n    return a == b\n",
            predictor=pin(self=AbstractValue.OBJECT),
        )
        assert out.exception is None

    def test_attribute_cache_is_not_observable_state(self):
        out, entries = run_side(
            "def f(self):\n    self.payload\n    return self\n",
            predictor=pin(self=AbstractValue.OBJECT),
        )
        rendered = old_state(entries)["self"]
        assert "payload" not in rendered

    def test_attribute_store_is_observable_state(self):
        out, entries = run_side(
            "def f(self):\n    self.beta = 3\n    return None\n",
            predictor=pin(self=AbstractValue.OBJECT),
        )
        assert "beta: 3" in old_state(entries)["self"]

    def test_subscript_miss_on_versatile_is_injected(self):
        out, entries = run_side(
            "def f(cfg_obj):\n    return cfg_obj['mode']\n",
            predictor=pin(cfg_obj=AbstractValue.OBJECT),
        )
        assert "cfg_obj['mode']" in entries

    def test_slice_store_on_versatile_is_read_back(self):
        out, entries = run_side(
            "def f(v):\n    v[1:2] = [5, 6]\n    return v[1:2]\n",
            predictor=pin(v=AbstractValue.OBJECT),
        )
        assert out.return_value == "[5, 6]"
        assert "[1:2]: [5, 6]" in old_state(entries)["v"]
        assert "v[1:2]" not in entries

    def test_item_store_on_versatile_is_observable_state(self):
        out, entries = run_side(
            "def f(v):\n    v['k'] = 3\n    v['k'] += 4\n    return v['k']\n",
            predictor=pin(v=AbstractValue.OBJECT),
        )
        assert out.return_value == "7"
        assert "['k']: 7" in old_state(entries)["v"]
        assert list(entries) == ["v"]

    def test_subscript_hit_on_concrete_is_native(self):
        out, entries = run_side("def f():\n    d = {'k': 5}\n    return d['k']\n")
        assert out.return_value == "5"
        assert entries == {}

    def test_subscript_miss_on_concrete_is_injected(self):
        out, entries = run_side("def f():\n    d = {'k': 5}\n    return d['z']\n")
        assert "d['z']" in entries

    def test_call_return_keyed_by_occurrence(self):
        out, entries = run_side("def f(x):\n    a = fetch(x)\n    b = fetch(x)\n    return a\n")
        assert "fetch()#1" in entries
        assert "fetch()#2" in entries


class CountingPredictor(HeuristicPredictor):
    def __init__(self):
        self.asked = collections.Counter()

    def predict(self, query):
        self.asked[(query.kind, query.name, query.context)] += 1
        return super().predict(query)


class TestPredictionMemo:
    def test_each_distinct_query_is_predicted_once_per_analysis(self):
        predictor = CountingPredictor()
        cfg = EngineConfig(seed=0, max_iterations=50)
        for path in sorted(FIXTURES.glob("*.json")):
            data = json.loads(path.read_text())
            pair = make_pair(data["old"], data["new"], renames=data.get("renames") or {})
            predictor.asked.clear()
            analyze(pair, cfg, predictor)
            assert all(n == 1 for n in predictor.asked.values()), path.stem

    def test_memo_lives_for_one_analysis(self):
        source = "def f(items, count):\n    return len(items) + count\n"
        pair = make_pair(source, source)
        predictor = CountingPredictor()
        analyze(pair, EngineConfig(seed=0, max_iterations=30), predictor)
        first = dict(predictor.asked)
        analyze(pair, EngineConfig(seed=0, max_iterations=30), predictor)
        assert len(first) >= 2
        assert predictor.asked == {query: 2 for query in first}


class TestInjectionContext:
    """The predictor is asked with the statement that contains an access, or
    the header of the compound statement whose header contains it."""

    def asked(self, source):
        """The (kind, name, context) queries one run of ``source`` asks."""
        predictor = CountingPredictor()
        run_side(source, predictor=predictor)
        return predictor.asked

    def test_a_call_does_not_leak_the_callees_statement(self):
        source = (
            "def f(x):\n"
            "    def g():\n"
            "        y = 1\n"
            "        return y\n"
            "    return g() + x.attr\n"
        )
        queries = self.asked(source)
        assert ("variable-read", "x", "return g() + x.attr") in queries
        assert all(context != "return y" for _, _, context in queries)

    @pytest.mark.parametrize(
        "header, context",
        [
            ("if x.ready:", "x.ready"),
            ("while x.ready:", "x.ready"),
            ("for item in x.items:", "x.items"),
            ("with x.lock as h:", "x.lock"),
        ],
    )
    def test_a_compound_statement_asks_with_its_header(self, header, context):
        source = f"def f(x):\n    {header}\n        return 1\n    return 2\n"
        assert ("variable-read", "x", context) in self.asked(source)

    def test_a_lambda_body_asks_with_its_defining_statement(self):
        source = "def f(x):\n    h = lambda: x.attr\n    return h()\n"
        queries = self.asked(source)
        assert ("variable-read", "x", "h = lambda: x.attr") in queries
        assert ("attribute-read", "attr", "h = lambda: x.attr") in queries


class TestExternalCalls:
    def test_every_external_call_is_logged(self):
        out, _ = run_side("def f(x):\n    fetch(x)\n    push(1, mode='fast')\n")
        assert len(out.call_log) == 2
        assert out.call_log[0].startswith("fetch(")
        assert out.call_log[1] == "push(1, mode='fast')"

    def test_call_log_orders_kwargs_by_name(self):
        out, _ = run_side("def f():\n    go(z=1, a=2)\n")
        assert out.call_log[0] == "go(a=2, z=1)"

    def test_injected_exception_needs_catching_context(self):
        source = "def f(t):\n    return parse(t)\n"
        out, _ = run_side(source, cfg=EngineConfig(exception_probability=1.0))
        assert out.exception is None

    def test_injected_exception_fires_inside_try(self):
        source = (
            "def f(t):\n"
            "    try:\n"
            "        return parse(t)\n"
            "    except ValueError:\n"
            "        return 'caught'\n"
        )
        out, _ = run_side(source, cfg=EngineConfig(exception_probability=1.0))
        assert out.return_value == "'caught'"

    def test_injected_exception_never_fires_at_zero_probability(self):
        source = (
            "def f(t):\n"
            "    try:\n"
            "        return parse(t)\n"
            "    except ValueError:\n"
            "        return 'caught'\n"
        )
        for it in range(10):
            out, _ = run_side(
                source, cfg=EngineConfig(exception_probability=0.0), iteration=it
            )
            assert out.return_value != "'caught'"

    def test_calls_past_the_path_cap_keep_their_occurrence(self):
        # A call path longer than the cap is cut, and the occurrence number
        # comes after the cut, so two calls still get two injected values.
        base = "o." + "a" * 127
        source = (
            "def f(o):\n"
            f"    a = {base}.fetch()\n"
            f"    b = {base}.fetch()\n"
            "    return a is b\n"
        )
        out, entries = run_side(source)
        assert out.return_value == "False"
        keys = [k for k in entries if "()#" in k]
        assert len(keys) == 2
        assert keys[0].endswith("...()#1") and keys[1].endswith("...()#2")

    def test_constructor_call_builds_typed_versatile(self):
        out, entries = run_side(
            "def f(x):\n    if isinstance(x, Request):\n        return 'req'\n    r = Request(1)\n    return r\n",
        )
        assert "Request" in out.return_value or out.return_value == "'req'"
        assert out.call_log[0].startswith("Request(") or out.return_value == "'req'"


class TestBuiltins:
    @pytest.mark.parametrize(
        "call",
        [
            "print(1, color=2)",
            "len()",
            "len(1, 2)",
            "isinstance(1)",
            "isinstance(1, int, x=1)",
            "super(1, 2, 3)",
            "any()",
            "all([], [])",
            "range()",
            "range(1, 2, 3, 4)",
            "str(1, 2)",
            "int(1, 2)",
            "float(1, 2)",
            "bool(1, 2)",
            "repr()",
            "list([], [])",
            "dict([], [])",
            "set([], [])",
            "tuple([], [])",
            "enumerate()",
            "enumerate([], 0, 1)",
            "sorted()",
            "sorted([], [])",
            "min()",
            "max()",
            "abs()",
        ],
    )
    def test_wrong_call_shape_is_an_unintended_type_error(self, call):
        source = f"def f():\n    return {call}\n"
        namespace: dict = {}
        exec(source, namespace)
        with pytest.raises(TypeError):
            namespace["f"]()
        out, _ = run_side(source)
        assert out.exception.type_name == "TypeError"
        assert out.exception.intentional is False


class TestIsinstance:
    def source(self, expr):
        return f"def f():\n    return {expr}\n"

    @pytest.mark.parametrize(
        "expr,expected",
        [
            ("isinstance(3, int)", "True"),
            ("isinstance(True, bool)", "True"),
            ("isinstance(True, int)", "False"),
            ("isinstance(1.0, float)", "True"),
            ("isinstance('a', str)", "True"),
            ("isinstance([1], list)", "True"),
            ("isinstance((1,), tuple)", "True"),
            ("isinstance({'a': 1}, dict)", "True"),
            ("isinstance({1}, set)", "True"),
            ("isinstance(None, int)", "False"),
            # A value with no kind name, and a versatile with no assigned type.
            ("isinstance(len, int)", "False"),
            ("isinstance(super(), int)", "False"),
        ],
    )
    def test_concrete_values(self, expr, expected):
        out, _ = run_side(self.source(expr))
        assert out.return_value == expected

    def test_versatile_matches_its_assigned_type(self):
        source = (
            "def f(x):\n"
            "    if isinstance(x, Request):\n"
            "        return 'yes'\n"
            "    return 'no'\n"
        )
        # The isinstance class pool contains only Request, so any versatile
        # injected for x carries that assigned type.
        out, entries = run_side(source, predictor=pin(x=AbstractValue.OBJECT))
        assert out.return_value == "'yes'"

    def test_versatile_against_other_class_is_false(self):
        source = (
            "def f(x):\n"
            "    if isinstance(x, Response) or isinstance(x, Request):\n"
            "        return serialize_it(x)\n"
            "    return 'no'\n"
        )
        out, _ = run_side(source, predictor=pin(x=AbstractValue.OBJECT))
        assert out.exception is None

    def test_indirect_isinstance_is_false(self):
        out, _ = run_side("def f(x):\n    chk = isinstance\n    return chk(x, int)\n")
        assert out.return_value == "False"

    def test_tuple_of_classes(self):
        out, _ = run_side(self.source("isinstance(3, (str, int))"))
        assert out.return_value == "True"


class TestSuper:
    def test_super_yields_consistent_versatile(self):
        source = "def f(self):\n    base = super()\n    base.setup()\n    return base.mode\n"
        old, new, entries = run_pair(source)
        assert "super()#1" in entries
        assert old.return_value == new.return_value

    def test_super_call_itself_is_not_logged(self):
        out, _ = run_side("def f(self):\n    base = super()\n    return 1\n")
        assert out.call_log == []

    def test_method_calls_on_super_are_logged(self):
        out, _ = run_side("def f(self):\n    super().setup(1)\n")
        assert out.call_log[0].endswith(".setup(1)")


class TestControlFlow:
    def test_while_and_aug_assign(self):
        out, _ = run_side("def f():\n    n = 3\n    acc = 0\n    while n > 0:\n        acc += n\n        n -= 1\n    return acc\n")
        assert out.return_value == "6"

    def test_for_with_break_continue(self):
        source = (
            "def f():\n"
            "    out = []\n"
            "    for i in range(10):\n"
            "        if i == 2:\n"
            "            continue\n"
            "        if i == 5:\n"
            "            break\n"
            "        out.append(i)\n"
            "    return out\n"
        )
        out, _ = run_side(source)
        assert out.return_value == "[0, 1, 3, 4]"

    def test_tuple_unpacking(self):
        out, _ = run_side("def f():\n    a, b = (1, 2)\n    return a + b\n")
        assert out.return_value == "3"

    def test_nested_function_and_closure_read(self):
        source = (
            "def f():\n"
            "    base = 10\n"
            "    def bump(n):\n"
            "        return base + n\n"
            "    return bump(5)\n"
        )
        out, _ = run_side(source)
        assert out.return_value == "15"

    def test_recursion_is_supported(self):
        source = (
            "def fact(n):\n"
            "    if n <= 1:\n"
            "        return 1\n"
            "    return n * fact(n - 1)\n"
        )
        out, _ = run_side(source)
        assert out.exception is None

    def test_runaway_recursion_is_unintended(self):
        out, _ = run_side("def f(n):\n    return f(n)\n")
        assert out.exception.type_name == "RecursionError"
        assert out.exception.intentional is False

    @pytest.mark.parametrize(
        "source",
        [
            "def f():\n    for i in range(10**9):\n        pass\n",
            "def f():\n    return [i for i in range(10**9)]\n",
            "def f():\n    return list(range(10**9))\n",
            "def f():\n    return sorted(range(10**9))\n",
            "def f():\n    return set(range(10**9))\n",
            "def f():\n    return tuple(range(10**9))\n",
            "def f():\n    return min(range(10**9))\n",
            "def f():\n    return max(range(10**9))\n",
            "def f():\n    return all(range(1, 10**9))\n",
            "def f():\n    return dict(enumerate(range(10**9)))\n",
            "def f():\n    a, b = range(10**9)\n    return a\n",
        ],
    )
    def test_huge_range_is_walked_lazily_under_the_step_budget(self, source):
        out, _ = run_side(source)
        assert out.exception.type_name == "StepBudgetExceeded"

    def test_any_stops_at_the_first_truthy_item(self):
        out, _ = run_side("def f():\n    return any(range(1, 10**9))\n")
        assert out.exception is None
        assert out.return_value == "True"

    @pytest.mark.parametrize(
        "source",
        [
            "def f():\n    return 'a' * 10**10\n",
            "def f():\n    return 10**10 * 'a'\n",
            "def f():\n    return [0] * 10**10\n",
            "def f():\n    return (0,) * 10**10\n",
            "def f():\n    return 2 ** 10**10\n",
            "def f():\n    x = 3\n    for i in range(40):\n        x = x * x\n    return x\n",
        ],
    )
    def test_huge_repetition_or_power_ends_on_the_step_budget(self, source):
        out, _ = run_side(source)
        assert out.exception.type_name == "StepBudgetExceeded"

    def test_repeated_doubling_ends_on_the_step_budget(self):
        source = "def f():\n    s = 'ab'\n    for i in range(40):\n        s = s + s\n    return s\n"
        out, _ = run_side(source)
        assert out.exception.type_name == "StepBudgetExceeded"
        assert out.exception.intentional is False

    @pytest.mark.parametrize(
        "body",
        [
            "text = ''\n    for i in range(1000):\n        text += str(i)\n    return len(text)",
            "xs = []\n    for i in range(300):\n        xs = xs + [i]\n    return len(xs)",
            "t = ()\n    for i in range(300):\n        t += (i,)\n    return t[-1]",
            "return len('a' * 5000 + 'b' * 5000)",
        ],
    )
    def test_ordinary_concatenation_runs_like_cpython(self, body):
        source = f"def f():\n    {body}\n"
        namespace: dict = {}
        exec(source, namespace)
        out, _ = run_side(source)
        assert out.exception is None
        assert out.return_value == repr(namespace["f"]())

    @pytest.mark.parametrize(
        "expr",
        ["(-1) ** 10**10", "1 ** 10**10", "0 ** 10**10", "2 ** 64", "10 ** 5000 % 7", "'ab' * -3"],
    )
    def test_small_powers_and_repetitions_run_like_cpython(self, expr):
        out, _ = run_side(f"def f():\n    return {expr}\n")
        assert out.exception is None
        assert out.return_value == repr(eval(expr))

    @pytest.mark.parametrize(
        "expr",
        [
            "'%50000000d' % 1",
            "'%*d' % (10**8, 1)",
            "'%*d' % (-10**8, 1)",
            "'%.*f' % (10**8, 1.0)",
            "'{:>{}}'.format(1, 10**8)",
            "'{:{w}}'.format(1, w=10**8)",
            "'{0:>100000000}'.format(1)",
            "'{:.100000000f}'.format(1.0)",
        ],
    )
    def test_huge_format_width_ends_on_the_step_budget(self, expr):
        started = time.perf_counter()
        out, _ = run_side(f"def f():\n    return {expr}\n")
        assert out.exception.type_name == "StepBudgetExceeded"
        assert time.perf_counter() - started < 2

    @pytest.mark.parametrize(
        "expr",
        [
            "'%5d|%-4s|%.2f' % (42, 'ab', 3.14159)",
            "'%*d|%.*f' % (6, 7, 3, 2.5)",
            "'%(a)s-%(b)05d' % {'a': 'x', 'b': 3}",
            "'100%% %s' % 'done'",
            "'%.3s|%.100000000s' % ('abcdef', 'ab')",
            "'%d' % 'x'",
            "'%d %d' % (1,)",
            "'{:>8}|{:<6}|{:^7}'.format('r', 'l', 'c')",
            "'{:0>{}}|{:{}.{}f}'.format(7, 4, 3.14159, 10, 2)",
            "'{w:*^{n}}'.format(w='mid', n=11)",
            "'{0}{1}{0}|{:,}'.format('a', 'b', 1234567)",
            "'{:.100000000s}'.format('ab')",
            "'{:d}'.format('x')",
            "'{}{}'.format(1)",
        ],
    )
    def test_ordinary_formatting_runs_like_cpython(self, expr):
        out, _ = run_side(f"def f():\n    return {expr}\n")
        try:
            expected = serialize(eval(expr))
        except Exception as exc:
            assert out.exception.type_name == type(exc).__name__
            assert out.exception.intentional is False
        else:
            assert out.exception is None
            assert out.return_value == expected

    def test_step_budget_is_uncatchable(self):
        source = (
            "def f():\n"
            "    n = 0\n"
            "    while True:\n"
            "        try:\n"
            "            n = n + 1\n"
            "        except Exception:\n"
            "            pass\n"
            "    return n\n"
        )
        out, _ = run_side(source)
        assert out.exception.type_name == "StepBudgetExceeded"
        assert out.exception.intentional is False

    def test_with_statement_binds_entered_value(self):
        out, _ = run_side(
            "def f(res):\n    with res as h:\n        return h\n",
            predictor=pin(res=AbstractValue.RESOURCE),
        )
        assert out.return_value.startswith("VersatileObject(")


class TestExceptions:
    def test_raise_call_is_intentional_with_args(self):
        out, _ = run_side("def f():\n    raise KeyError('missing', 3)\n")
        assert out.exception.intentional is True
        assert out.exception.type_name == "KeyError"
        assert out.exception.args == ["missing", 3]

    def test_raise_bare_name(self):
        out, _ = run_side("def f():\n    raise SomeError\n")
        assert out.exception.type_name == "SomeError"
        assert out.exception.intentional is True

    def test_assert_failure_is_intentional(self):
        out, _ = run_side("def f(a):\n    assert 1 == 2, 'nope'\n    return a\n")
        assert out.exception.type_name == "AssertionError"
        assert out.exception.args == ["nope"]

    def test_assert_pass_skips_message(self):
        out, _ = run_side("def f():\n    assert 1 == 1, boom()\n    return 'ok'\n")
        assert out.return_value == "'ok'"
        assert out.call_log == []

    def test_bare_raise_rethrows_active(self):
        source = (
            "def f():\n"
            "    try:\n"
            "        raise ValueError('v')\n"
            "    except ValueError as e:\n"
            "        raise\n"
        )
        out, _ = run_side(source)
        assert out.exception.type_name == "ValueError"
        assert out.exception.args == ["v"]

    def test_handler_as_binding(self):
        source = (
            "def f():\n"
            "    try:\n"
            "        raise ValueError('v')\n"
            "    except ValueError as e:\n"
            "        return e\n"
        )
        out, _ = run_side(source)
        assert out.return_value == "ValueError('v')"

    def test_handler_matches_by_merged_name(self):
        source = (
            "def f():\n"
            "    try:\n"
            "        raise CustomBoom('x')\n"
            "    except CustomBoom:\n"
            "        return 'caught'\n"
        )
        out, _ = run_side(source)
        assert out.return_value == "'caught'"

    def test_catch_all_handlers(self):
        for clause in ("except Exception:", "except BaseException:", "except:"):
            source = (
                "def f():\n"
                "    try:\n"
                "        raise CustomBoom('x')\n"
                f"    {clause}\n"
                "        return 'caught'\n"
            )
            out, _ = run_side(source)
            assert out.return_value == "'caught'", clause

    def test_mismatched_handler_propagates(self):
        source = (
            "def f():\n"
            "    try:\n"
            "        raise ValueError('v')\n"
            "    except KeyError:\n"
            "        return 'wrong'\n"
        )
        out, _ = run_side(source)
        assert out.exception.type_name == "ValueError"

    def test_finally_runs_on_return(self):
        source = (
            "def f():\n"
            "    try:\n"
            "        return 'body'\n"
            "    finally:\n"
            "        print('cleanup')\n"
        )
        out, _ = run_side(source)
        assert out.return_value == "'body'"
        assert out.stdout == "cleanup\n"

    def test_host_fault_is_unintended(self):
        out, _ = run_side("def f():\n    return 1 / 0\n")
        assert out.exception.type_name == "ZeroDivisionError"
        assert out.exception.intentional is False

    def test_unintended_fault_still_catchable_by_subject(self):
        source = (
            "def f():\n"
            "    try:\n"
            "        return 1 / 0\n"
            "    except ZeroDivisionError:\n"
            "        return 'saved'\n"
        )
        out, _ = run_side(source)
        assert out.return_value == "'saved'"

    @pytest.mark.parametrize(
        "expr, caught",
        [
            ("1 // 0", "ArithmeticError"),
            ("1 % 0", "ArithmeticError"),
            ("2.0 ** 10000", "ArithmeticError"),
            ("'{k}'.format()", "LookupError"),
            ("'{0}'.format()", "LookupError"),
            ("1 // 0", "(ValueError, ArithmeticError)"),
            ("1 // 0", "LookupError"),
            ("'{k}'.format()", "ArithmeticError"),
        ],
    )
    def test_handlers_follow_builtin_hierarchy_like_cpython(self, expr, caught):
        source = (
            "def f():\n"
            "    try:\n"
            f"        return {expr}\n"
            f"    except {caught}:\n"
            "        return 'caught'\n"
        )
        namespace: dict = {}
        exec(source, namespace)
        try:
            expected = repr(namespace["f"]())
        except Exception as exc:
            expected = type(exc).__name__
        out, _ = run_side(source)
        actual = out.return_value if out.exception is None else out.exception.type_name
        assert actual == expected


class TestStreams:
    def test_print_formatting(self):
        out, _ = run_side("def f():\n    print('x', 3, [1])\n    print('y', end='')\n")
        assert out.stdout == "x 3 [1]\ny"

    def test_print_sep(self):
        out, _ = run_side("def f():\n    print(1, 2, sep='-')\n")
        assert out.stdout == "1-2\n"

    def test_a_run_that_prints_nothing_has_empty_stdout(self):
        out, _ = run_side("def f():\n    return 1\n")
        assert out.stdout == ""


class TestTailReturn:
    """A def whose last top-level statement is ``return e`` gives ``e``'s
    value back without raising; its steps, covered lines and outcome are
    those of a ``return`` anywhere else, which raises."""

    @staticmethod
    def run(source):
        program = build_program(source)
        rt = Interpreter("old", program, {}, derive_seed(program.cfg.seed, "iteration", 0))
        out = rt.run()
        return rt.steps, out.covered_lines, out.return_value, out.stdout

    @pytest.mark.parametrize(
        "source, steps, lines, returned",
        [
            ("def f():\n    y = x + 1\n    return [y, 2]\n", 8, {1, 2, 3}, "[3, 2]"),
            # The same return, not at the top level: it raises.
            (
                "def f():\n    if True:\n        y = x + 1\n        return [y, 2]\n",
                10,
                {1, 2, 3, 4},
                "[3, 2]",
            ),
            ("def f():\n    x = 1\n    return\n", 3, {1, 2, 3}, "None"),
            (
                "def f():\n    def g(a):\n        b = a * 2\n        return b + 1\n"
                "    return g(3)\n",
                12,
                {1, 2, 3, 4, 5},
                "7",
            ),
            # A yielding def's tail return still raises, ending the walk.
            (
                "def f():\n    def g():\n        yield 1\n        return 5\n"
                "    return list(g())\n",
                9,
                {1, 2, 3, 4, 5},
                "[1]",
            ),
            ("def f():\n    yield 1\n    return 5\n    yield 2\n", 4, {1, 2, 3}, "[1]"),
        ],
    )
    def test_steps_lines_and_value(self, source, steps, lines, returned):
        assert self.run(source) == (steps, lines, returned, "")

    def test_a_tail_return_renders_like_a_raised_one(self):
        _, _, tail, _ = self.run("def f():\n    y = x + 1\n    return [y, 2]\n")
        _, _, raised, _ = self.run(
            "def f():\n    if True:\n        y = x + 1\n        return [y, 2]\n"
        )
        assert tail == raised


class TestGeneratorsAndFunctions:
    def test_returned_generator_is_materialized(self):
        out, _ = run_side("def f():\n    return (i * i for i in range(4))\n")
        assert out.return_value == "[0, 1, 4, 9]"

    def test_generator_function_materializes_yields(self):
        out, _ = run_side("def f():\n    yield 1\n    yield 2\n")
        assert out.return_value == "[1, 2]"

    def test_infinite_generator_is_capped(self):
        source = (
            "def f():\n"
            "    n = 0\n"
            "    while True:\n"
            "        yield n\n"
            "        n = n + 1\n"
        )
        out, _ = run_side(source)
        assert out.return_value == repr(list(range(100)))
        assert out.exception is None

    @pytest.mark.parametrize(
        "body",
        [
            "g = (x for x in [1, 2])\n    a = list(g)\n    return list(g)",
            "g = (x for x in [0, 1, 2])\n    a = any(g)\n    return list(g)",
            "g = (x for x in [1, 2, 3])\n    return [(x, y) for x in g for y in g]",
            "g = (x for x in [1, 2])\n    for x in g:\n        pass\n    return sorted(g)",
            "def gen():\n        yield 1\n        yield 2\n"
            "    g = gen()\n    a = tuple(g)\n    return [a, list(g)]",
        ],
    )
    def test_generator_is_spent_after_one_walk_like_cpython(self, body):
        source = f"def f():\n    {body}\n"
        namespace: dict = {}
        exec(source, namespace)
        out, _ = run_side(source)
        assert out.exception is None
        assert out.return_value == repr(namespace["f"]())

    def test_spent_generator_returns_no_items(self):
        source = "def f():\n    g = (x for x in [1, 2])\n    a = list(g)\n    return g\n"
        namespace: dict = {}
        exec(source, namespace)
        out, _ = run_side(source)
        assert out.return_value == repr(list(namespace["f"]())) == "[]"

    def test_returned_function_is_probed(self):
        out, _ = run_side("def f():\n    def inner():\n        return 5\n    return inner\n")
        assert out.return_value == "<function inner() -> 5>"

    def test_returned_lambda_is_probed(self):
        out, _ = run_side("def f():\n    return lambda: 3\n")
        assert out.return_value == "<function <lambda>() -> 3>"


class TestNativeMethods:
    def test_dict_views_come_back_as_lists(self):
        source = (
            "def f():\n"
            "    d = {'b': 1, 'a': 2}\n"
            "    return [d.keys(), d.values(), d.items()]\n"
        )
        out, _ = run_side(source)
        assert out.return_value == "[['b', 'a'], [1, 2], [('b', 1), ('a', 2)]]"

    def test_common_string_methods(self):
        source = (
            "def f():\n"
            "    s = ' Hi '\n"
            "    return [s.strip(), s.upper(), 'a-b'.split('-'), ','.join(['x', 'y'])]\n"
        )
        out, _ = run_side(source)
        assert out.return_value == "['Hi', ' HI ', ['a', 'b'], 'x,y']"
        assert out.call_log == []

    def test_str_replace_is_native(self):
        out, _ = run_side("def f():\n    return 'a,b'.replace(',', ';')\n")
        assert out.return_value == "'a;b'"
        assert out.call_log == []

    def test_unknown_method_on_concrete_becomes_external(self):
        out, entries = run_side("def f():\n    xs = [1]\n    return xs.flatten()\n")
        assert out.call_log[0] == "xs.flatten()"
        assert "xs.flatten()#1" in entries

    def test_method_call_on_versatile_is_external(self):
        out, _ = run_side(
            "def f(self):\n    return self.compute(2)\n",
            predictor=pin(self=AbstractValue.OBJECT),
        )
        assert out.call_log[0] == "self.compute(2)"


class TestAugmentedAssignment:
    @pytest.mark.parametrize(
        "body",
        [
            "d = {'k': 0}\n    d[p('k')] += p(1)\n    return d",
            "xs = [1, 2]\n    xs[p(0)] -= p(5)\n    return xs",
            "m = {'a': {'b': 1}}\n    m[p('a')][p('b')] *= p(3)\n    return m",
            "n = 4\n    n += p(1)\n    return n",
        ],
    )
    def test_target_is_read_before_the_value_like_cpython(self, body):
        source = f"def f():\n    def p(v):\n        print(v)\n        return v\n    {body}\n"
        assert engine_outcome(source) == cpython_outcome(source)

    @pytest.mark.parametrize(
        "statement, callees",
        [
            ("self.get(1)[self.key(2)] += self.push(3)", ["self.get", "self.key", "self.push"]),
            ("self.get(1).count += self.push(3)", ["self.get", "self.push"]),
        ],
    )
    def test_versatile_target_is_evaluated_before_the_value(self, statement, callees):
        out, _ = run_side(
            f"def f(self):\n    {statement}\n", predictor=pin(self=AbstractValue.OBJECT)
        )
        assert [text[: text.index("(")] for text in out.call_log] == callees


class TestClosedProgramsAgreeWithCPython:
    """Paths the corpus never reaches, checked against ``exec``: stdout, the
    returned value and the type of an escaping exception."""

    @pytest.mark.parametrize(
        "body",
        [
            # Callees that are neither a name nor an attribute.
            "def g():\n        return lambda y: y + 1\n    return g()(1)",
            "return (lambda: 1)()",
            "xs = [lambda a: a * 2]\n    return xs[0](3)",
            "xs = [1]\n    return xs[0]()",
            # Keyword arguments to a subject function, and its argument errors.
            "def g(a, b):\n        return a - b\n    return g(5, b=2), g(b=1, a=4)",
            "def g(a):\n        return a\n    return g(1, 2)",
            "def g(a):\n        return a\n    return g(b=1)",
            "def g(a):\n        return a\n    return g(1, a=2)",
            "def g(a, b):\n        return a\n    return g(1)",
            # A native method read as a value, then called.
            "split = 'a,b'.split\n    upper = 'x'.upper\n    return split(','), upper()",
            "d = {'k': 1}\n    get = d.get\n    return get('k'), get('z', 0)",
            # int, float and repr.
            "return int('3'), int(2.0), int(), float('1.5'), float(2), float()",
            "return int('x')",
            # int with a base, positional or keyword, and enumerate's start.
            "return int('ff', 16), int('ff', base=16), int('11', base=2)",
            "return int(5, 16)",
            "return int('ff', 16, base=16)",
            "return list(enumerate('ab', start=1)), list(enumerate('ab', 3))",
            "return list(enumerate('ab', 1, start=2))",
            "return list(enumerate('ab', start=1.5))",
            "return repr('a'), repr([1, 'b', None]), repr(2.5)",
            # dict with keywords, over nothing, a dict or pairs; a keyword wins.
            "return dict(a=1), dict({'a': 1}, b=[2]), dict([('a', 1)], a=2)",
            # A complex result renders as CPython's repr and str do.
            "return (-8) ** 0.5, str((-1) ** 0.5)",
            # raise of a bound exception, and of a bound non-exception.
            "try:\n        raise ValueError('x')\n    except ValueError as e:\n"
            "        err = e\n    try:\n        raise err\n    except ValueError:\n"
            "        print('again')\n    return 1",
            "x = 1\n    raise x",
            # continue inside while.
            "i = 0\n    out = []\n    while i < 6:\n        i += 1\n        if i % 2:\n"
            "            continue\n        out.append(i)\n    return out",
            # The exception is evaluated before its cause.
            "raise ValueError(print(1)) from print(2)",
            "def p(v):\n        print(v)\n        return v\n"
            "    raise KeyError(p('k'), p(1)) from p(None)",
            # A builtin call of the wrong shape evaluates its arguments,
            # then raises the TypeError.
            "return super(print('a'), 1, 2)",
            "return isinstance(print('a'))",
            "return isinstance(print('a'), int, x=1)",
            # Attribute stores: exceptions and functions keep them, other
            # values refuse them.
            "try:\n        raise ValueError(1)\n    except ValueError as e:\n"
            "        e.note = 3\n        return e.note",
            "def g():\n        return 1\n    g.body = 1\n    return g()",
            "def g():\n        return 1\n    g.tag = 'x'\n    g.tag += 'y'\n"
            "    return g.tag, g()",
            "def g():\n        return 2\n    h = lambda: 1\n    h.run = g\n    return h.run()",
            "try:\n        raise ValueError(1)\n    except ValueError as e:\n"
            "        e.args = 5",
            "u = 'a'.upper\n    u.note = 1\n    return 1",
            "def g():\n        yield 1\n    it = g()\n    it.note = 1\n    return 1",
            # Nested defs: a generator walked by its caller, and a generator
            # that calls a plain def nested in it.
            "def g(n):\n        yield n\n        yield n + 1\n    out = []\n"
            "    for v in g(2):\n        out.append(v)\n    return out, list(g(5))",
            "def g():\n        def h(v):\n            return v * 3\n"
            "        yield h(1)\n        yield h(2)\n    return list(g())",
            # Native str.replace and str.join, and the arguments the host
            # refuses.
            "return ','.join(('a', 'b')), '-'.join('xyz'), '/'.join({'k': 1}), ''.join([])",
            "return 'aaa'.replace('a', 'bb', 2), 'ab'.replace('', '-'), 'ab'.replace('a', 'c', -1)",
            "return 'a'.replace(1, 'b')",
            "return 'ab'.replace('a', 'b', 'x')",
            "return ','.join([1, 2])",
            # Scopes: a read goes outward to the binding current when it
            # runs, a store binds in the current scope, and a comprehension
            # variable stays in the comprehension.
            "x = 1\n    g = lambda: x\n    x = 2\n    return g()",
            "x = 1\n    def g():\n        x = 2\n        return x\n    return g(), x",
            "v = 'outer'\n    ys = [v * 2 for v in range(3)]\n    return ys, v",
            "try:\n        raise KeyError('k')\n    except KeyError as e:\n"
            "        err = e\n    def g():\n        raise err\n    return g()",
            # str(), print and f-strings render what CPython does: a caught
            # exception by its args, a dict in insertion order, a frozenset
            # as frozenset({...}); print takes None for its defaults.
            "try:\n        raise ValueError(1)\n    except ValueError as e:\n"
            "        print(e)\n        return str(e), repr(e), f'{e}|{e!r}'",
            "try:\n        raise KeyError('k', 2)\n    except KeyError as e:\n"
            "        return str(e), '%s' % (e,), '{}'.format(e)",
            "d = {'b': 1, 'a': [{'d': 2, 'c': 3}]}\n    print(d)\n"
            "    return str(d), f'{d}', f'{d!r}', '{}'.format(d), '%s' % (d,), '%r' % (d,)",
            "fs = frozenset([3, 1, 2])\n    print(fs, frozenset(), sep=None, end=None)\n"
            "    return str(fs), repr([fs]), '%s' % (fs,), isinstance(fs, frozenset)",
            "print('a', 'b', sep=None)\n    print('c', end=None)",
            # A host-raised exception keeps its args: a KeyError's str is
            # its key's repr.
            "try:\n        '%(x)s' % {}\n    except KeyError as e:\n"
            "        return str(e), repr(e)",
            # A bare raise re-raises the exception the innermost running
            # handler handles, also from a def that handler calls.
            "try:\n        raise ValueError(1)\n    except ValueError:\n"
            "        try:\n            raise KeyError(2)\n        except KeyError:\n"
            "            pass\n        raise",
            "def g():\n        raise\n    try:\n        raise ValueError(3)\n"
            "    except ValueError:\n        g()",
            # A generator that walks another yields to its own caller after.
            "def inner():\n        yield 1\n        yield 2\n    def outer():\n"
            "        for v in inner():\n            yield v * 10\n        yield 3\n"
            "    return list(outer())",
            # Runtime faults: a bare raise with no handled exception, print
            # with a sep that is not a str, a builtin called through a name
            # with the wrong shape, and a host fault in unary minus.
            "raise",
            "print(1, sep=2)",
            "g = len\n    return g(1, 2)",
            "return -'a'",
        ],
    )
    def test_matches_exec(self, body):
        source = f"def f():\n    {body}\n"
        assert engine_outcome(source) == cpython_outcome(source)

    def test_returned_generator_function_is_probed(self):
        # CPython's repr of a function has an address; the engine probes it.
        source = "def f():\n    def g():\n        yield 1\n    return g\n"
        namespace: dict = {}
        exec(source, namespace)
        probed = f"<function g() -> {list(namespace['f']()())!r}>"
        assert probed == "<function g() -> [1]>"
        assert engine_outcome(source) == ("", probed, None)

    def test_documented_divergences(self):
        # README "Supported language": a list method outside NATIVE_METHODS
        # is an external call that leaves the list as it was.
        source = "def f():\n    xs = [3, 1]\n    xs.sort()\n    return xs\n"
        assert cpython_outcome(source) == ("", "[1, 3]", None)
        assert engine_outcome(source) == ("", "[3, 1]", None)
        # A name read before its scope's later assignment to it reads the
        # enclosing binding, and ``except ... as e`` leaves ``e`` bound.
        source = (
            "def f():\n    x = 1\n    def g():\n        y = x\n        x = 2\n"
            "        return y\n    return g()\n"
        )
        assert cpython_outcome(source) == ("", None, "UnboundLocalError")
        assert engine_outcome(source) == ("", "1", None)
        source = (
            "def f():\n    e = 1\n    try:\n        raise ValueError(1)\n"
            "    except ValueError as e:\n        pass\n    return e\n"
        )
        assert cpython_outcome(source) == ("", None, "UnboundLocalError")
        assert engine_outcome(source) == ("", "ValueError(1)", None)
        # isinstance knows only the kinds it names exactly: a bool is not an
        # int, and a caught exception or a range is an instance of nothing.
        source = (
            "def f():\n    try:\n        raise ValueError(1)\n    except ValueError as e:\n"
            "        err = e\n"
            "    return isinstance(True, int), isinstance(err, ValueError), "
            "isinstance(range(3), range)\n"
        )
        assert cpython_outcome(source) == ("", "(True, True, True)", None)
        assert engine_outcome(source) == ("", "(False, False, False)", None)


class TestSetsRenderSorted:
    """A native ``%`` or ``str.format`` renders an argument that is, or
    holds, a set with the set's items sorted, as ``str()`` does, so no
    rendering of a set follows the host's hash order."""

    @pytest.mark.parametrize(
        "expr, rendered",
        [
            ("'%s' % (s,)", "{'a', 'b', 'c'}"),
            ("'%s' % s", "{'a', 'b', 'c'}"),
            ("'%r and %d' % ([s, {'k': s}], 2)", "[{'a', 'b', 'c'}, {'k': {'a', 'b', 'c'}}] and 2"),
            ("'%(k)s' % {'k': s}", "{'a', 'b', 'c'}"),
            ("'{}'.format(s)", "{'a', 'b', 'c'}"),
            ("'{!r}/{}'.format((s, 1), 2)", "({'a', 'b', 'c'}, 1)/2"),
            ("'{0[0]!s:>17}'.format([s])", "  {'a', 'b', 'c'}"),
            ("'-'.join(s)", "a-b-c"),
            ("'%s %(n)s' % {'n': 1, 's': s}", "{'n': 1, 's': {'a', 'b', 'c'}} 1"),
        ],
    )
    def test_a_set_argument_renders_sorted(self, expr, rendered):
        source = f"def f():\n    s = {{'c', 'a', 'b'}}\n    return {expr}\n"
        assert engine_outcome(source) == ("", repr(rendered), None)

    @pytest.mark.parametrize("expr", ["'%d' % (s,)", "'%x' % s", "'{:>9}'.format(s)"])
    def test_a_set_the_host_refuses_keeps_the_hosts_error(self, expr):
        source = f"def f():\n    s = {{'c', 'a', 'b'}}\n    return {expr}\n"
        with pytest.raises(TypeError) as host:
            exec(f"s = {{'c', 'a', 'b'}}\n{expr}", {})
        out, _ = run_side(source)
        assert (out.exception.type_name, out.exception.args) == ("TypeError", [str(host.value)])

    def test_a_frozenset_renders_as_str_renders_it(self):
        source = (
            "def f():\n    fs = frozenset(['c', 'a', 'b'])\n"
            "    return str(fs), '%s|%r' % (fs, [fs])\n"
        )
        rendered = "frozenset({'a', 'b', 'c'})"
        assert engine_outcome(source) == ("", repr((rendered, f"{rendered}|[{rendered}]")), None)

    def test_a_set_is_walked_in_the_order_str_prints(self):
        # serialize renders an empty frozenset as set(), which sorts after inf.
        source = (
            "def f():\n    s = {float('inf'), frozenset()}\n    out = []\n"
            "    for v in s:\n        out.append(str(v))\n    return out, str(s)\n"
        )
        rendered = "(['frozenset()', 'inf'], '{frozenset(), inf}')"
        assert engine_outcome(source) == ("", rendered, None)

    def test_one_verdict_under_three_hash_seeds(self):
        # From CPython 3.11 on, the host iterates {'a', 'b'} as 'a', 'b'
        # under PYTHONHASHSEED 1, and as 'b', 'a' under 2 and 3.
        pairs = [
            ("str(s)", "'%s' % (s,)"),
            ("str(s)", "'{}'.format(s)"),
            ("'-'.join(sorted(s))", "'-'.join(s)"),
            ("str(d) + ' %(n)s' % d", "'%s %(n)s' % d"),
        ]
        body = "def f():\n    s = {{'a', 'b'}}\n    d = {{'n': 1, 's': s}}\n    return {}\n"
        code = "from pairguard import analyze_sources\n" + "".join(
            f"print(analyze_sources({body.format(old)!r}, {body.format(new)!r}).classification)\n"
            for old, new in pairs
        )
        src = pathlib.Path(engine.__file__).parents[1]
        verdicts = []
        for hash_seed in ("1", "2", "3"):
            env = {**os.environ, "PYTHONHASHSEED": hash_seed, "PYTHONPATH": str(src)}
            done = subprocess.run(
                [sys.executable, "-c", code],
                env=env,
                capture_output=True,
                text=True,
                timeout=120,
                check=True,
            )
            verdicts += done.stdout.split()
        assert verdicts == ["likely-semantics-preserving"] * (3 * len(pairs))

    def test_a_set_of_items_that_render_alike_abstains(self):
        # CPython iterates such a set in the items' address order, so no
        # order is a function of the set: the run ends in an unintended
        # TypeError, on every analysis.
        body = (
            "def f():\n    s = {{lambda: 1, lambda: 2, lambda: 3}}\n    out = []\n"
            "    for {0} in s:\n        out.append({0}())\n    return out\n"
        )
        old, new = body.format("g"), body.format("h")
        verdicts = [analyze_sources(old, new).classification for _ in range(5)]
        assert verdicts == ["inconclusive"] * 5
        out, _ = run_side(old)
        assert out.exception.type_name == "TypeError" and not out.exception.intentional

    def test_only_iterating_a_set_of_items_that_render_alike_ends_the_run(self):
        # Rendering and measuring such a set do not depend on its order.
        head = "def f():\n    s = {lambda: 1, lambda: 2}\n"
        rendered = "{<function <lambda>>, <function <lambda>>}"
        measured = engine_outcome(head + "    return (len(s), str(s))\n")
        assert measured == ("", repr((2, rendered)), None)
        out, _ = run_side(head + "    return sorted(s, key=lambda g: g())\n")
        assert out.exception.type_name == "TypeError" and not out.exception.intentional


class TestNativeStringResults:
    """A native str.replace or str.join charges the characters its result
    adds to the strings it is built from, and a str.format or ``%`` field
    the str it copies, before the host builds the result; a str.format or
    ``%`` field that renders any other value is charged its rendering."""

    @pytest.mark.parametrize(
        "body",
        [
            "s = 'a' * 1000\n" + "    s = s.replace('a', 'aaaaaaaaaa')\n" * 7 + "    return len(s)",
            "s = 'a' * 10000\n    return len(s.replace('a', s))",
            "s = 'a' * 50000\n    return len(','.join([s] * 40000))",
            "return len(('x' * 50000).join('y' * 40000))",
            "return len(('x' * 50000).join(set(str(i) for i in range(3000))))",
            "s = 'a' * 30000\n    return ('{0}' * 20000).format(s)",
            "s = 'a' * 30000\n    return ('{0}' * 2000).format([s])",
            "s = 'a' * 30000\n    return ('%s' * 5000) % tuple([s] * 5000)",
            "s = 'a' * 30000\n    return ('%(s)s' * 5000) % {'s': s}",
            "s = 'a' * 30000\n    return ('%r' * 5000) % tuple([s] * 5000)",
            "s = 'a' * 3000\n    return ('%s' * 3000) % tuple([[s]] * 3000)",
        ],
    )
    def test_large_result_ends_on_the_step_budget(self, body):
        source = f"def f():\n    {body}\n"
        out, _ = run_side(source)
        assert out.exception.type_name == "StepBudgetExceeded"
        v = analyze_sources(source, source, cfg=EngineConfig(max_iterations=1))
        assert v.abstained_iterations == v.iterations_run == 1

    @pytest.mark.xfail(strict=True, reason="print output is not charged to the step budget")
    def test_print_output_is_charged(self):
        out, _ = run_side("def f():\n    s = 'a' * 600\n    while True:\n        print(s)\n")
        assert out.exception.type_name == "StepBudgetExceeded"
        assert len(out.stdout) <= 64 * engine._STEP_BUDGET


class TestSubjectAttributeStores:
    """Stores onto the engine's exception and function records reach the
    subject's attributes, never the fields the engine reads."""

    RERAISE = (
        "def f():\n    try:\n        raise ValueError(1)\n    except ValueError as e:\n"
        "        {store}\n        raise e\n"
    )

    def test_args_store_sets_the_raised_arguments(self):
        out, _ = run_side(self.RERAISE.format(store="e.args = ('a', 2)"))
        assert out.exception.intentional
        assert serialize(out.exception) == "ValueError('a', 2)"

    def test_non_iterable_args_is_an_unintended_type_error(self):
        source = self.RERAISE.format(store="e.args = 5")
        out, _ = run_side(source)
        assert out.exception.type_name == "TypeError"
        assert not out.exception.intentional
        v = analyze_sources(source, source, cfg=EngineConfig(max_iterations=5))
        assert v.abstained_iterations == v.iterations_run == 5

    def test_intentional_is_a_subject_attribute(self):
        source = self.RERAISE.format(store="e.intentional = False")
        out, _ = run_side(source)
        assert out.exception.intentional
        v = analyze_sources(source, source, cfg=EngineConfig(max_iterations=5))
        assert v.abstained_iterations == 0


_VERSATILES = (VersatileObject(99), VersatileCallable(98))
_COMPARED = [*_OPERANDS, False, VersatileCallable(13), VersatileObject(99)]


@pytest.mark.parametrize("symbol", ["==", "!=", "<", "<=", ">", ">="])
def test_comparison_with_a_versatile_is_its_total_op(symbol):
    # The host operator reaches the versatile's own (or reflected) method.
    test = COMPARE_OPS[symbol]
    for v in _VERSATILES:
        for other in _COMPARED:
            for a, b in ((v, other), (other, v)):
                assert bool(test(a, b)) == bool(versatile_binop(symbol, a, b)), (a, b)


@pytest.mark.parametrize(
    "expr, expected",
    [
        ("list(range(v))", [0]),
        ("list(range(v, 3))", [1, 2]),
        ("int(v), float(v), abs(v)", (1, 1.0, 1)),
        ("enumerate(['a'], v)", [(1, "a")]),
    ],
)
def test_builtin_takes_a_versatile_as_its_internal_int(expr, expected):
    out, entries = run_side(f"def f(v):\n    return {expr}\n", predictor=pin(v=AbstractValue.OBJECT))
    assert isinstance(entries["v"][0], VersatileObject)
    assert out.return_value == serialize(expected)


class TestInjectedOperands:
    def test_augmented_parameter_is_injected_then_updated(self):
        out, entries = run_side(
            "def f(x):\n    x += 1\n    return x\n", predictor=pin(x=AbstractValue.INTEGER)
        )
        assert out.return_value == serialize(entries["x"][0] + 1)

    def test_bound_injected_callable_constructs_a_fresh_object_per_call(self):
        out, entries = run_side(
            "def f(factory):\n    make = factory\n    return make(1), make(2)\n",
            predictor=pin(factory=AbstractValue.CALLABLE),
        )
        assert out.call_log == ["make(1)", "make(2)"]
        assert list(entries) == ["factory"]
        first, second = out.return_value.split("), ")
        assert first.startswith("(VersatileObject(seed=")
        assert second.startswith("VersatileObject(seed=")
        assert first.split(",")[0] != second.split(",")[0]

    def test_versatile_reached_by_subscript_is_called_externally(self):
        objects = Distribution({AbstractValue.OBJECT: 1.0})
        predictor = TablePredictor(
            {("variable-read", "v"): objects, ("subscript-result", "0"): objects}
        )
        out, entries = run_side("def f(v):\n    return v[0](2)\n", predictor=predictor)
        assert out.exception is None
        assert out.call_log == ["v[0](2)"]
        assert "v[0]()#1" in entries


class TestCoverage:
    def test_covered_is_subset_of_code_lines(self):
        source = "def f(a):\n    if a:\n        return 1\n    return 2\n"
        pair = make_pair(source, source)
        out, _ = run_side(source)
        assert out.covered_lines <= pair.old.code_lines

    def test_def_line_counts_as_covered(self):
        out, _ = run_side("def f():\n    return 1\n")
        assert 1 in out.covered_lines

    def test_branch_not_taken_is_uncovered(self):
        source = "def f():\n    if False:\n        return 1\n    return 2\n"
        out, _ = run_side(source)
        assert 3 not in out.covered_lines
        assert {1, 2, 4} <= out.covered_lines

    def test_changed_coverage_is_intersection(self):
        old = "def f(a):\n    return a + 1\n"
        new = "def f(a):\n    return a + 2\n"
        out, _ = run_side(old, new=new)
        pair = make_pair(old, new)
        assert out.covered_lines & pair.changed_lines_old == {2}

    def test_coverage_recorded_even_when_execution_faults(self):
        source = "def f():\n    x = 1\n    return 1 / 0\n"
        out, _ = run_side(source)
        assert {1, 2, 3} <= out.covered_lines


class TestPairedExecution:
    @pytest.mark.parametrize("name", IDENTITY_NAMES)
    def test_identical_versions_mirror_exactly(self, name):
        data = load_fixture(name)
        for iteration in range(6):
            old, new, entries = run_pair(data["old"], data["new"], iteration=iteration)
            result = compare(old, new, snapshot_injected(entries))
            assert result.status in (EQUIVALENT, ABSTAIN)
            if result.status == ABSTAIN:
                # Only a symmetric crash may abstain on an identity pair.
                assert old.exception is not None and new.exception is not None

    def test_mirror_holds_with_injected_exceptions(self):
        data = load_fixture("identity_risky_parse")
        cfg = EngineConfig(exception_probability=1.0)
        old, new, entries = run_pair(data["old"], data["new"], cfg=cfg)
        assert compare(old, new, snapshot_injected(entries)).status == EQUIVALENT

    @pytest.mark.parametrize("name", RENAME_NAMES)
    def test_renamed_versions_mirror(self, name):
        data = load_fixture(name)
        for iteration in range(4):
            old, new, entries = run_pair(
                data["old"], data["new"],
                renames=data.get("renames") or {},
                iteration=iteration,
            )
            result = compare(old, new, snapshot_injected(entries))
            assert result.status in (EQUIVALENT, ABSTAIN)

    def test_rename_merges_injection_paths(self):
        data = load_fixture("rename_read_metric")
        old, new, entries = run_pair(
            data["old"], data["new"], renames=data["renames"]
        )
        joined = " ".join(entries)
        assert "count_renamed_total" in joined

    def test_rename_without_map_diverges_on_paths(self):
        data = load_fixture("rename_read_metric")
        old, new, entries = run_pair(data["old"], data["new"], renames={})
        paths = set(entries)
        assert any("count" in p for p in paths)
        assert any("total" in p for p in paths)

    def test_same_iteration_same_injection_on_both_sides(self):
        source = "def f(items):\n    return items\n"
        old, new, _ = run_pair(source)
        assert old.return_value == new.return_value

    def test_repeat_run_is_deterministic(self):
        # Outcomes compare rendered: an ExceptionValue, as a subject's
        # exception, is equal only to itself.
        def rendered(out):
            raised = out.exception
            return (
                out.return_value,
                out.stdout,
                out.call_log,
                raised and (raised.type_name, raised.intentional),
                out.covered_lines,
            )

        data = load_fixture("identity_merge_maps")
        a_old, a_new, a_entries = run_pair(data["old"], data["new"], iteration=3)
        b_old, b_new, b_entries = run_pair(data["old"], data["new"], iteration=3)
        assert rendered(a_old) == rendered(b_old)
        assert rendered(a_new) == rendered(b_new)
        assert snapshot_injected(a_entries) == snapshot_injected(b_entries)

    def test_different_iterations_change_injections(self):
        source = "def f(items):\n    return items\n"
        seen = {
            run_pair(source, iteration=i)[0].return_value for i in range(8)
        }
        assert len(seen) > 1


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10**6), st.integers(0, 7))
def test_mirror_property_randomized(seed, iteration):
    source = (
        "def f(data, limit):\n"
        "    out = []\n"
        "    for item in data:\n"
        "        if item.weight > limit:\n"
        "            out.append(item.label)\n"
        "    return out\n"
    )
    old, new, entries = run_pair(source, cfg=EngineConfig(seed=seed), iteration=iteration)
    result = compare(old, new, snapshot_injected(entries))
    assert result.status in (EQUIVALENT, ABSTAIN)


@pytest.mark.parametrize("seed", _runs.SEEDS)
def test_every_run_matches_its_pinned_fingerprint(seed):
    # Pins steps, coverage, exception, return value and stdout of every run
    # analyze makes on the corpus and the loops benchmark pairs, so a change
    # to how the engine dispatches cannot move any of them unseen.
    golden = _runs.golden_path(seed).read_text().splitlines()
    assert _runs.fingerprints(seed) == golden


def test_moved_pairs_names_each_moved_fingerprint():
    def line(pair_id, steps, digest):
        return json.dumps({"id": pair_id, "runs": 2, "sha256": digest, "steps": steps})

    pinned = "\n".join(
        [line("a", 14, "x"), line("b", 5, "y"), line("c", 3, "z"), line("e", 7, "v")]
    )
    current = "\n".join(
        [line("a", 16, "w"), line("b", 5, "y"), line("d", 3, "z"), line("e", 7, "u")]
    )
    assert _runs.moved_pairs(pinned, current) == [
        "  a: runs 2 steps 14 -> runs 2 steps 16",
        "  c: runs 2 steps 3 -> -",
        "  e: runs 2 steps 7 -> unchanged; only a return value, stdout, exception or covered"
        " line moved",
        "  d: - -> runs 2 steps 3",
    ]
    assert _runs.moved_pairs(pinned, pinned) == []


@pytest.mark.parametrize("seed", _runs.SEEDS)
def test_an_unseeded_iteration_repeats_in_every_later_one(seed, tmp_path, monkeypatch):
    # analyze runs an iteration that drew nothing from its seed once and
    # counts it for the rest, and the fingerprints above expand it so. Here
    # every later iteration of such a pair runs for real, without the driver,
    # and must leave the same fingerprints as the first.
    runs: list = []
    monkeypatch.setattr(Interpreter, "run", _runs._record(runs)[1])
    cfg = EngineConfig(seed=seed)

    def iteration(program, i):
        runs.clear()
        entries = {}
        iteration_seed = derive_seed(seed, "iteration", i)
        seeded = [run_one(side, program, entries, iteration_seed).seeded for side in ("old", "new")]
        # A run is equal only to itself: compare what it returned, logged
        # and drew, beside its fingerprint fields.
        for fields in runs:
            run = fields[4]
            fields[4:5] = [run.return_value, run.call_log, run.seeded]
        return any(seeded), list(runs)

    unseeded = 0
    for pair_id, pair, predictor in _runs._pairs(seed, tmp_path):
        program = ComparisonProgram(pair, extract_static_facts(pair), cfg, predictor)
        first = iteration(program, 0)
        if first[0]:
            continue
        unseeded += 1
        for i in range(1, cfg.max_iterations):
            assert iteration(program, i) == first, f"{pair_id}, iteration {i}"
    assert unseeded > 0


def test_call_log_entry_render():
    out, _ = run_side("def f():\n    api.send(1, 'x', mode='fast')\n")
    assert out.call_log == ["api.send(1, 'x', mode='fast')"]
