import json
import pathlib
import pickle
import random
import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

from pairguard.predictor import (
    Distribution,
    FormatError,
    HeuristicPredictor,
    InjectionQuery,
    Predictor,
    TablePredictor,
    load_table_predictor,
)
from pairguard.values import AbstractValue


def q(name, kind="variable-read", context=""):
    return InjectionQuery(kind, name, context)


def top(dist):
    """The kind with the most weight; a tie goes to the earliest kind."""
    return max(AbstractValue, key=dist.get)


class TestInjectionQuery:
    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            InjectionQuery("telepathy", "x")

    @pytest.mark.parametrize(
        "kind", ["variable-read", "attribute-read", "call-return", "subscript-result"]
    )
    def test_known_kinds(self, kind):
        assert InjectionQuery(kind, "x").kind == kind


class TestDistribution:
    def test_missing_kinds_fill_with_zero(self):
        d = Distribution({AbstractValue.LIST: 1.0})
        assert d.get(AbstractValue.LIST) == 1.0
        assert d.get(AbstractValue.SET) == 0.0

    def test_rejects_bad_sum(self):
        with pytest.raises(ValueError):
            Distribution({AbstractValue.LIST: 0.5})

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            Distribution({AbstractValue.LIST: 1.5, AbstractValue.SET: -0.5})

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(ValueError, match="non-finite"):
            Distribution({AbstractValue.OBJECT: bad, AbstractValue.LIST: 1.0})

    def test_rejects_a_kind_that_is_not_an_abstract_value(self):
        with pytest.raises(ValueError, match="not an abstract kind"):
            Distribution({"List": 1.0})

    def test_equality_and_repr(self):
        d = Distribution({AbstractValue.LIST: 0.25, AbstractValue.STRING: 0.75})
        assert d == Distribution({AbstractValue.STRING: 0.75, AbstractValue.LIST: 0.25})
        assert d != 5 and d != d.weights
        assert repr(d) == "Distribution({String: 0.75, List: 0.25})"

    def test_argmax(self):
        d = Distribution({AbstractValue.STRING: 0.7, AbstractValue.LIST: 0.3})
        assert top(d) == AbstractValue.STRING

    def test_sample_degenerate(self):
        d = Distribution({AbstractValue.TUPLE: 1.0})
        rng = random.Random(0)
        assert all(d.sample(rng) == AbstractValue.TUPLE for _ in range(20))

    def test_sample_respects_support(self):
        d = Distribution({AbstractValue.LIST: 0.5, AbstractValue.SET: 0.5})
        rng = random.Random(1)
        seen = {d.sample(rng) for _ in range(200)}
        assert seen == {AbstractValue.LIST, AbstractValue.SET}


def sample_by_enum_walk(dist, rng):
    """Reference: the sampler that walked the enum on every draw."""
    r = rng.random()
    acc = 0.0
    last = None
    for kind in AbstractValue:
        w = dist.weights[kind]
        if w <= 0.0:
            continue
        acc += w
        last = kind
        if r < acc:
            return kind
    return last if last is not None else AbstractValue.OBJECT


@given(
    st.lists(
        st.one_of(st.just(0.0), st.floats(1e-6, 1.0)),
        min_size=len(AbstractValue),
        max_size=len(AbstractValue),
    ).filter(lambda ws: sum(ws) > 0),
    st.integers(0, 2**32),
)
def test_sample_matches_enum_walk(raw, seed):
    total = sum(raw)
    dist = Distribution({k: w / total for k, w in zip(AbstractValue, raw)})
    ours, reference = random.Random(seed), random.Random(seed)
    for _ in range(50):
        assert dist.sample(ours) == sample_by_enum_walk(dist, reference)


def test_a_draw_past_the_last_running_sum_is_the_last_kind():
    # Ten weights of 0.1 sum to 0.9999999999999999, so the largest draw
    # below 1.0 is not below the last running sum.
    kinds = list(AbstractValue)[:10]
    d = Distribution({k: 0.1 for k in kinds})

    class Top:
        def random(self):
            return 1.0 - 2**-53

    assert d.sample(Top()) is kinds[-1] is sample_by_enum_walk(d, Top())


@given(st.integers(0, 2**32))
def test_sample_frequencies_track_weights(seed):
    d = Distribution({AbstractValue.OBJECT: 0.8, AbstractValue.NONE: 0.2})
    rng = random.Random(seed)
    hits = sum(d.sample(rng) == AbstractValue.OBJECT for _ in range(300))
    assert 180 <= hits <= 290


class TestHeuristicRules:
    def test_bool_prefix(self):
        assert top(HeuristicPredictor().predict(q("is_ready"))) == AbstractValue.BOOLEAN
        assert top(HeuristicPredictor().predict(q("has_items"))) == AbstractValue.BOOLEAN

    def test_bool_known_name(self):
        assert top(HeuristicPredictor().predict(q("verbose"))) == AbstractValue.BOOLEAN

    def test_int_name_parts(self):
        p = HeuristicPredictor()
        for name in ("count", "idx", "n", "max_retry_times"):
            assert top(p.predict(q(name))) == AbstractValue.INTEGER, name

    def test_numeric_context_beats_plural(self):
        d = HeuristicPredictor().predict(
            q("retries", context="if retries <= retry_times:")
        )
        assert top(d) == AbstractValue.INTEGER

    def test_range_call_is_numeric_context(self):
        d = HeuristicPredictor().predict(q("steps", context="for i in range(steps):"))
        assert top(d) == AbstractValue.INTEGER

    def test_plus_is_not_numeric_context(self):
        # Concatenation is too common for + to signal a number.
        d = HeuristicPredictor().predict(q("name", context="return 'Dear ' + name"))
        assert top(d) == AbstractValue.STRING

    def test_substring_name_does_not_match_operator_neighbour(self):
        # "x" inside "max" must not count as adjacent to an operator.
        d = HeuristicPredictor().predict(q("value", context="limit - maxvalue"))
        assert top(d) != AbstractValue.INTEGER

    def test_dict_name_parts(self):
        p = HeuristicPredictor()
        for name in ("config", "meta", "user_map"):
            assert top(p.predict(q(name))) == AbstractValue.DICTIONARY, name

    def test_str_name_parts(self):
        p = HeuristicPredictor()
        for name in ("message", "file_path", "url"):
            assert top(p.predict(q(name))) == AbstractValue.STRING, name

    def test_list_suffix(self):
        assert top(HeuristicPredictor().predict(q("todo_list"))) == AbstractValue.LIST

    def test_plural_variable_read(self):
        assert top(HeuristicPredictor().predict(q("records"))) == AbstractValue.LIST

    def test_plural_needs_variable_read(self):
        d = HeuristicPredictor().predict(q("records", kind="attribute-read"))
        assert top(d) == AbstractValue.OBJECT

    def test_short_or_double_s_names_are_not_plural(self):
        p = HeuristicPredictor()
        assert top(p.predict(q("xs"))) != AbstractValue.LIST
        assert top(p.predict(q("address"))) != AbstractValue.LIST

    def test_self_like_names(self):
        p = HeuristicPredictor()
        for name in ("self", "cls", "obj", "instance"):
            assert top(p.predict(q(name))) == AbstractValue.OBJECT, name

    def test_attribute_read_defaults_to_object(self):
        d = HeuristicPredictor().predict(q("payload", kind="attribute-read"))
        assert d.get(AbstractValue.OBJECT) == pytest.approx(0.56)

    def test_call_return_defaults_to_object(self):
        d = HeuristicPredictor().predict(q("fetch", kind="call-return"))
        assert top(d) == AbstractValue.OBJECT

    def test_variable_fallthrough_is_mixed(self):
        d = HeuristicPredictor().predict(q("thing"))
        assert d.get(AbstractValue.OBJECT) == pytest.approx(0.30)
        assert d.get(AbstractValue.LIST) == pytest.approx(0.14)
        assert sum(d.weights.values()) == pytest.approx(1.0)

    def test_rule_order_bool_beats_int(self):
        # is_count: boolean prefix wins over the int part.
        d = HeuristicPredictor().predict(q("is_count"))
        assert top(d) == AbstractValue.BOOLEAN

    def test_heavy_distribution_shape(self):
        d = HeuristicPredictor().predict(q("count"))
        assert d.get(AbstractValue.INTEGER) == pytest.approx(0.56)
        assert d.get(AbstractValue.SET) == pytest.approx(0.04)
        assert sum(d.weights.values()) == pytest.approx(1.0)


@given(
    st.text(
        alphabet=st.characters(whitelist_categories=("Ll", "Lu", "Nd"), max_codepoint=127),
        min_size=1,
        max_size=12,
    ),
    st.sampled_from(["variable-read", "attribute-read", "call-return", "subscript-result"]),
)
def test_heuristic_always_returns_a_distribution(name, kind):
    d = HeuristicPredictor().predict(InjectionQuery(kind, name))
    assert sum(d.weights.values()) == pytest.approx(1.0)


def numeric_context_by_name_patterns(name, context):
    """Reference: the three name-specific patterns compiled on every query."""
    if not context:
        return False
    escaped = re.escape(name)
    op = r"(?:<=|>=|//|[<>\-*/%])"
    before = rf"(?<![A-Za-z0-9_]){escaped}\s*{op}"
    after = rf"{op}\s*{escaped}(?![A-Za-z0-9_])"
    in_range = rf"range\(\s*{escaped}(?![A-Za-z0-9_])"
    return bool(
        re.search(before, context)
        or re.search(after, context)
        or re.search(in_range, context)
    )


# Names and contexts over a small alphabet, so names recur in the context
# next to operators, word characters, whitespace and ``range(``.
_NAME_CHARS = "ab_1.()[]-"
_CONTEXT_PIECES = ["a", "b", "ab", "_", "1", " ", "\t", "(", ")", ".", "[",
                   "<", ">", "<=", ">=", "=", "-", "+", "*", "/", "//", "%",
                   "range(", "range( ", "xrange("]


@given(
    st.text(alphabet=_NAME_CHARS, max_size=4),
    st.lists(st.one_of(st.sampled_from(_CONTEXT_PIECES), st.just("NAME")), max_size=12),
)
def test_numeric_context_agrees_with_name_patterns(name, pieces):
    context = "".join(name if p == "NAME" else p for p in pieces)
    assert HeuristicPredictor._numeric_context(name, context) == (
        numeric_context_by_name_patterns(name, context)
    )


@pytest.mark.parametrize(
    "name, context, numeric",
    [
        ("n", "for i in range( n):", True),
        ("n", "x = m-n", True),
        ("n", "x = m - nn", False),
        ("n", "n >= 1", True),
        ("n", "an >= 1", False),
        ("n", "n + 1", False),
        ("n", "n and n % 2", True),
        ("self.size()", "if self.size() > 3:", True),
    ],
)
def test_numeric_context_examples(name, context, numeric):
    assert HeuristicPredictor._numeric_context(name, context) is numeric
    assert numeric_context_by_name_patterns(name, context) is numeric


class TestLookup:
    """``lookup`` answers only where the context cannot change the answer."""

    def test_the_base_predictor_has_no_context_free_answer(self):
        assert Predictor().lookup("variable-read", "xs") is None

    def test_the_base_predictor_has_no_full_answer(self):
        with pytest.raises(NotImplementedError):
            Predictor().predict(q("xs"))

    def test_the_heuristic_reads_the_context(self):
        # ``x`` is an integer next to ``*`` and the mixed default alone.
        pred = HeuristicPredictor()
        assert pred.predict(q("x", context="x * 2")) != pred.predict(q("x"))
        assert pred.lookup("variable-read", "x") is None


class TestTablePredictor:
    def write(self, tmp_path, payload):
        p = tmp_path / "table.json"
        p.write_text(json.dumps(payload))
        return str(p)

    def good(self, tmp_path, entries):
        return self.write(tmp_path, {"entries": entries})

    def test_exact_hit(self, tmp_path):
        path = self.good(
            tmp_path,
            [{"kind": "variable-read", "name": "xs", "weights": {"List": 1.0}}],
        )
        pred = load_table_predictor(path)
        assert top(pred.predict(q("xs"))) == AbstractValue.LIST

    def test_partial_weights_fill_zero(self, tmp_path):
        path = self.good(
            tmp_path,
            [{"kind": "variable-read", "name": "xs",
              "weights": {"List": 0.9, "Tuple": 0.1}}],
        )
        d = load_table_predictor(path).predict(q("xs"))
        assert d.get(AbstractValue.SET) == 0.0

    def test_miss_falls_back_to_heuristic(self, tmp_path):
        path = self.good(
            tmp_path,
            [{"kind": "variable-read", "name": "xs", "weights": {"List": 1.0}}],
        )
        pred = load_table_predictor(path)
        assert top(pred.predict(q("count"))) == AbstractValue.INTEGER

    def test_lookup_gives_the_entry_itself_and_none_on_a_miss(self):
        entry = Distribution({AbstractValue.LIST: 1.0})
        pred = TablePredictor({("variable-read", "xs"): entry})
        assert pred.lookup("variable-read", "xs") is entry
        assert pred.predict(q("xs", context="n = xs + 1")) is entry
        assert pred.lookup("attribute-read", "xs") is None
        assert pred.lookup("variable-read", "count") is None

    def test_kind_is_part_of_the_key(self, tmp_path):
        path = self.good(
            tmp_path,
            [{"kind": "attribute-read", "name": "meta",
              "weights": {"Dictionary": 1.0}}],
        )
        pred = load_table_predictor(path)
        assert top(pred.predict(q("meta", kind="attribute-read"))) == AbstractValue.DICTIONARY
        # variable-read misses the table and the heuristic also says dict here,
        # so pin the route via a name only the table knows.
        assert (("variable-read", "meta") in pred.entries) is False

    @pytest.mark.parametrize(
        "payload",
        [
            [],
            {"rows": []},
            {"entries": {}},
            {"entries": ["x"]},
            {"entries": [{"kind": "variable-read", "name": "a"}]},
            {"entries": [{"kind": "mystery", "name": "a", "weights": {"List": 1.0}}]},
            {"entries": [{"kind": "variable-read", "name": 3, "weights": {"List": 1.0}}]},
            {"entries": [{"kind": "variable-read", "name": "a", "weights": {"Blob": 1.0}}]},
            {"entries": [{"kind": "variable-read", "name": "a", "weights": {"List": "x"}}]},
            {"entries": [{"kind": "variable-read", "name": "a", "weights": {"List": True}}]},
            {"entries": [{"kind": "variable-read", "name": "a", "weights": {"List": 0.4}}]},
            {"entries": [{"kind": "variable-read", "name": "a", "weights": 1}]},
        ],
    )
    def test_malformed_tables_raise(self, tmp_path, payload):
        with pytest.raises(FormatError):
            load_table_predictor(self.write(tmp_path, payload))

    @pytest.mark.parametrize("weight", ["NaN", "Infinity", "-Infinity", "1" + "0" * 400])
    def test_non_finite_weights_raise(self, tmp_path, weight):
        # Python's json reads NaN and the infinities; a NaN weight once loaded
        # and made every draw from the entry the other kind.
        p = tmp_path / "table.json"
        p.write_text(
            '{"entries": [{"kind": "variable-read", "name": "a", '
            f'"weights": {{"Object": {weight}, "List": 1.0}}}}]}}'
        )
        with pytest.raises(FormatError):
            load_table_predictor(str(p))

    def test_duplicate_key_raises(self, tmp_path):
        entries = [
            {"kind": "variable-read", "name": "a", "weights": {"List": 1.0}},
            {"kind": "variable-read", "name": "a", "weights": {"Set": 1.0}},
        ]
        with pytest.raises(FormatError, match="duplicate"):
            load_table_predictor(self.good(tmp_path, entries))

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(FormatError):
            load_table_predictor(str(tmp_path / "nope.json"))

    def test_invalid_json_raises(self, tmp_path):
        p = tmp_path / "broken.json"
        p.write_text("{not json")
        with pytest.raises(FormatError):
            load_table_predictor(str(p))


class TestPickle:
    """The ``--jobs`` pool pickles the predictor with every chunk of pairs,
    so a predictor, and each distribution it answers with, must come back
    from a pickle round trip answering and drawing as before."""

    TABLES = sorted((pathlib.Path(__file__).parent / "fixtures" / "tables").glob("*.json"))

    @staticmethod
    def queries(predictor):
        table = getattr(predictor, "entries", {})
        asked = [InjectionQuery(kind, name) for kind, name in table]
        for kind in ("variable-read", "attribute-read", "call-return", "subscript-result"):
            for name, context in [("xs", "for x in xs:"), ("n", "n + 1"), ("name", ""), ("f", "f()")]:
                asked.append(InjectionQuery(kind, name, context))
        return asked

    @pytest.mark.parametrize(
        "make",
        [HeuristicPredictor, *[lambda path=path: load_table_predictor(str(path)) for path in TABLES]],
        ids=["heuristic", *[path.stem for path in TABLES]],
    )
    def test_round_trip_gives_equal_answers(self, make):
        predictor = make()
        restored = pickle.loads(pickle.dumps(predictor))
        assert type(restored) is type(predictor)
        for query in self.queries(predictor):
            answer, again = predictor.predict(query), restored.predict(query)
            assert again == answer, query
            draws = [answer.sample(random.Random(seed)) for seed in range(20)]
            assert [again.sample(random.Random(seed)) for seed in range(20)] == draws

    @pytest.mark.parametrize("path", TABLES, ids=[path.stem for path in TABLES])
    def test_round_trip_gives_equal_lookups(self, path):
        predictor = load_table_predictor(str(path))
        restored = pickle.loads(pickle.dumps(predictor))
        keys = [*predictor.entries, ("variable-read", "not_in_any_table")]
        for kind, name in keys:
            assert restored.lookup(kind, name) == predictor.lookup(kind, name), (kind, name)
        assert restored.lookup("variable-read", "not_in_any_table") is None

    def test_the_fixture_tables_are_found(self):
        assert self.TABLES
