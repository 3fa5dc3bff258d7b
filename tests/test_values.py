import collections
import random
import sys

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from pairguard.values import (
    HARD_INT_POOL,
    HARD_STR_POOL,
    LABEL_TO_KIND,
    AbstractValue,
    BoundMethod,
    BuiltinFunction,
    ConcretizerConfig,
    ExceptionValue,
    FunctionValue,
    GeneratorValue,
    Rendered,
    RenderedDict,
    SplitMix64,
    VersatileCallable,
    VersatileObject,
    concretize,
    deep_copy,
    randbelow,
    serialize,
    sorted_iter,
    subject_repr,
    subject_str,
    versatile_binop,
)


def kind_of(value):
    """Abstract kind of a concrete runtime value."""
    if value is None:
        return AbstractValue.NONE
    if isinstance(value, bool):
        return AbstractValue.BOOLEAN
    if isinstance(value, int):
        return AbstractValue.INTEGER
    if isinstance(value, float):
        return AbstractValue.FLOAT
    if isinstance(value, str):
        return AbstractValue.STRING
    if isinstance(value, VersatileCallable):
        return AbstractValue.CALLABLE
    if isinstance(value, VersatileObject):
        return AbstractValue.OBJECT
    if isinstance(value, list):
        return AbstractValue.LIST
    if isinstance(value, tuple):
        return AbstractValue.TUPLE
    if isinstance(value, dict):
        return AbstractValue.DICTIONARY
    if isinstance(value, (set, frozenset)):
        return AbstractValue.SET
    return AbstractValue.OBJECT


def matches_kind(value, kind):
    """Whether a concretized value is acceptable for the requested kind."""
    actual = kind_of(value)
    if kind in (AbstractValue.OBJECT, AbstractValue.RESOURCE):
        return actual in (AbstractValue.OBJECT, AbstractValue.CALLABLE)
    if kind is AbstractValue.CALLABLE:
        return actual is AbstractValue.CALLABLE
    return actual is kind


def obj(seed=7, assigned=None):
    return VersatileObject(seed, assigned)


def _random_value(rng, depth=0):
    """A random injected-style value: atoms, lists, dicts, tuples and
    versatile objects, some with a stored field."""
    roll = rng.random()
    if depth >= 3 or roll < 0.45:
        return rng.choice(
            [None, True, False, rng.randrange(-50, 50), rng.random() * 10, "s" * rng.randrange(3)]
        )
    if roll < 0.60:
        return [_random_value(rng, depth + 1) for _ in range(rng.randrange(4))]
    if roll < 0.72:
        return {f"k{i}": _random_value(rng, depth + 1) for i in range(rng.randrange(3))}
    if roll < 0.82:
        return tuple(_random_value(rng, depth + 1) for _ in range(rng.randrange(3)))
    obj = VersatileObject(rng.randrange(2**32), rng.choice([None, "Node", "Request"]))
    if rng.random() < 0.5:
        obj.store("field", _random_value(rng, depth + 1))
    return obj


class TestVersatileArithmetic:
    def test_add_int_uses_internal_int(self):
        assert obj() + 3 == 4

    def test_radd_int(self):
        assert 3 + obj() == 4

    def test_add_string_appends_internal(self):
        assert obj() + "bc" == "abc"

    def test_radd_string(self):
        assert "bc" + obj() == "bca"

    def test_two_versatiles_add_internals(self):
        assert obj(1) + obj(2) == 2

    def test_float_context(self):
        assert obj() + 0.5 == 1.5

    def test_negation(self):
        assert -obj() == -1

    def test_absorbing_fallback_returns_self(self):
        o = obj()
        assert (o + [1, 2]) is o
        assert (o - {"k": 1}) is o

    def test_division_by_zero_absorbs(self):
        o = obj()
        assert (o / 0) is o


class TestVersatileComparisons:
    def test_eq_between_versatiles_by_seed(self):
        assert obj(5) == obj(5)
        assert not (obj(5) == obj(6))

    def test_order_between_versatiles_by_seed(self):
        assert obj(1) < obj(2)
        assert obj(2) >= obj(1)

    def test_eq_against_int_uses_internal(self):
        assert obj() == 1
        assert not (obj() == 2)

    def test_absorbed_eq_is_false_ne_is_true(self):
        o = obj()
        assert (o == [1]) is False
        assert (o != [1]) is True
        assert (o < [1]) is False

    def test_hash_stable_on_seed(self):
        assert hash(obj(9)) == hash(obj(9))


class TestVersatileProtocols:
    def test_truthy(self):
        assert bool(obj())

    def test_len_is_one(self):
        assert len(obj()) == 1

    def test_contains_is_false(self):
        assert ("x" in obj()) is False

    def test_iteration_child_count_is_seed_mod_three(self):
        for seed in (3, 4, 5):
            assert len(list(obj(seed))) == seed % 3

    def test_iteration_is_cached(self):
        o = obj(5)
        first = list(o)
        assert list(o) == first

    def test_children_inherit_assigned_type(self):
        o = obj(5, "Node")
        assert all(c.assigned_type == "Node" for c in o)

    def test_host_has_no_item_or_context_manager_protocol(self):
        # The engine reads and stores a versatile's items itself, and ``with``
        # binds the manager's value as it is; host indexing is a TypeError.
        o = obj()
        with pytest.raises(TypeError):
            o["k"]
        with pytest.raises(TypeError):
            o["k"] = 3
        assert not hasattr(o, "__enter__") and not hasattr(o, "__exit__")

    def test_callable_subclass(self):
        c = VersatileCallable(3)
        assert isinstance(c, VersatileObject)
        assert c.call_count == 0


# Every grammar operator against every operand shape; nothing may raise.
_OPERANDS = [
    0,
    3,
    -2.5,
    True,
    None,
    "s",
    [1],
    (1,),
    {"k": 1},
    {1, 2},
    VersatileObject(11),
    VersatileCallable(12),
]

_ALL_OPS = ("+", "-", "*", "/", "//", "%", "**", "==", "!=", "<", "<=", ">", ">=")


@pytest.mark.parametrize("op", _ALL_OPS)
def test_versatile_binop_is_total(op):
    o = VersatileObject(99)
    for other in _OPERANDS:
        versatile_binop(op, o, other)
        versatile_binop(op, other, o)


_ARITH_METHODS = {
    "+": "add",
    "-": "sub",
    "*": "mul",
    "/": "truediv",
    "//": "floordiv",
    "%": "mod",
    "**": "pow",
}
_COMPARE_METHODS = {"==": "eq", "!=": "ne", "<": "lt", "<=": "le", ">": "gt", ">=": "ge"}


def _same(a, b):
    # A versatile result is the operand itself; anything else compares by
    # value and type, so 1 and True or 1 and 1.0 stay apart.
    if isinstance(a, VersatileObject) or isinstance(b, VersatileObject):
        return a is b
    return type(a) is type(b) and a == b


@pytest.mark.parametrize("cls", [VersatileObject, VersatileCallable])
@pytest.mark.parametrize("symbol", _ARITH_METHODS)
def test_arithmetic_methods_are_the_total_op(cls, symbol):
    v = cls(99)
    name = _ARITH_METHODS[symbol]
    for other in _OPERANDS:
        assert _same(getattr(v, f"__{name}__")(other), versatile_binop(symbol, v, other))
        assert _same(getattr(v, f"__r{name}__")(other), versatile_binop(symbol, other, v))


@pytest.mark.parametrize("cls", [VersatileObject, VersatileCallable])
@pytest.mark.parametrize("symbol", _COMPARE_METHODS)
def test_comparison_methods_are_the_total_op(cls, symbol):
    v = cls(99)
    method = getattr(v, f"__{_COMPARE_METHODS[symbol]}__")
    for other in _OPERANDS:
        assert _same(method(other), versatile_binop(symbol, v, other))


def test_native_dispatch_reaches_binop():
    # Reflected methods cover the versatile-on-the-right cases too.
    o = VersatileObject(99)
    assert 10 - o == 9
    assert 2.0 * o == 2.0
    assert 7 // o == 7
    assert (None == o) is False
    assert (None != o) is True


class TestSerialize:
    def test_primitives(self):
        assert serialize(None) == "None"
        assert serialize(True) == "True"
        assert serialize(3) == "3"
        assert serialize(-1.5) == "-1.5"
        assert serialize("a") == "'a'"

    def test_bool_is_not_int(self):
        assert serialize(True) != serialize(1)

    def test_single_element_tuple(self):
        assert serialize((1,)) == "(1,)"

    def test_dict_sorted_by_serialized_key(self):
        assert serialize({"b": 1, "a": 2}) == "{'a': 2, 'b': 1}"

    def test_set_sorted_and_empty_form(self):
        assert serialize({3, 1, 2}) == "{1, 2, 3}"
        assert serialize(set()) == "set()"

    def test_range(self):
        assert serialize(range(0, 3)) == "range(0, 3)"

    def test_int_past_decimal_digit_limit_is_exact_hex(self):
        limit = sys.get_int_max_str_digits()
        big = 10**5000
        assert serialize(big) == hex(big)
        assert serialize(-big) == hex(-big)
        assert serialize(big) != serialize(big + 1)
        assert serialize([big]) == f"[{hex(big)}]"
        assert sys.get_int_max_str_digits() == limit

    def test_versatile_mentions_seed_type_and_stored(self):
        o = VersatileObject(5, "Request")
        o.store("flag", True)
        s = serialize(o)
        assert "seed=5" in s
        assert "Request" in s
        assert "flag: True" in s

    def test_versatile_cache_not_rendered(self):
        o = VersatileObject(5)
        o.attrs["hidden"] = 1
        assert "hidden" not in serialize(o)

    def test_cycle_guard(self):
        xs = [1]
        xs.append(xs)
        assert "<cycle>" in serialize(xs)

    def test_depth_cap(self):
        v = 1
        for _ in range(40):
            v = [v]
        assert "<depth>" in serialize(v)


class TestDeepCopy:
    def test_worked_example(self):
        v = [23, 42]
        before = serialize(v)
        c = deep_copy(v)
        c.append(7)
        assert serialize(v) == before == "[23, 42]"

    def test_versatile_copy_is_independent(self):
        o = VersatileObject(8)
        c = deep_copy(o)
        c.store("x", 1)
        assert "x" not in serialize(o)
        assert c.seed == o.seed

    def test_what_concretize_never_makes_is_refused(self):
        for value in (
            ExceptionValue("KeyError", ["k"]),
            FunctionValue("f", [], None, None),
            frozenset({1, 2}),
        ):
            with pytest.raises(TypeError):
                deep_copy(value)

    def test_tuple_of_atoms_is_the_same_object(self):
        for t in [(), (1, "a", None, 2.5, True), ((1, 2), ("x",))]:
            assert deep_copy(t) is t
        mixed = (1, [2])
        assert deep_copy(mixed) is not mixed

    def test_a_versatile_comes_back_fresh(self):
        # What a run did to the value (children drawn, calls counted,
        # fields stored) is not carried over: the copy is the versatile
        # concretize would have made.
        o = VersatileCallable(5, "Client")
        o.call_count = 3
        o.store("x", [1])
        list(o)
        c = deep_copy(o)
        assert type(c) is VersatileCallable
        assert (c.seed, c.assigned_type) == (5, "Client")
        assert (c.call_count, c.stored, c._children) == (0, {}, None)

    def test_each_container_comes_back_as_its_type(self):
        for value in ([1, VersatileObject(2)], (1, VersatileObject(2)), {1, "a"}, {"k": [1]}):
            c = deep_copy(value)
            assert type(c) is type(value) and c is not value
            assert serialize(c) == serialize(value)


class TestSortedIter:
    def test_items_come_in_serialized_order(self):
        items = {3, "a", None, 1.5, True}
        expected = sorted(items, key=serialize)
        assert sorted_iter(items) == sorted_iter(frozenset(items)) == expected
        f, g = FunctionValue("f", [], None, None), FunctionValue("g", [], None, None)
        assert sorted_iter({g, f}) == [f, g]

    def test_items_that_render_alike_raise(self):
        twins = {FunctionValue("f", [], None, None), FunctionValue("f", [], None, None)}
        assert len(twins) == 2
        with pytest.raises(TypeError):
            sorted_iter(twins)
        with pytest.raises(TypeError):
            sorted_iter(frozenset(twins))


class TestRenderedDict:
    def test_renders_whole_as_text_and_reads_by_key(self):
        d = RenderedDict("{'n': 1, 's': {'a', 'b'}}", {"n": 1, "s": Rendered("{'a', 'b'}")})
        assert str(d) == repr(d) == "{'n': 1, 's': {'a', 'b'}}"
        assert "%s %(n)s %(s)s" % d == "{'n': 1, 's': {'a', 'b'}} 1 {'a', 'b'}"
        assert "%r|%(s)r" % d == "{'n': 1, 's': {'a', 'b'}}|{'a', 'b'}"


_ATOM_TYPES = (type(None), bool, int, float, str)


def _side_by_side(value, copied):
    """Each node of ``value`` beside the node of ``copied`` at its place."""
    yield value, copied
    if isinstance(value, dict):
        for (k, v), (ck, cv) in zip(value.items(), copied.items()):
            yield from _side_by_side(k, ck)
            yield from _side_by_side(v, cv)
    elif isinstance(value, (list, tuple, set)):
        if isinstance(value, set):
            value, copied = sorted_iter(value), sorted_iter(copied)
        for v, c in zip(value, copied):
            yield from _side_by_side(v, c)


_literal_pools = st.tuples(
    st.lists(st.integers(-1000, 1000), max_size=3),
    st.lists(st.floats(allow_nan=False, width=32), max_size=3),
    st.lists(st.text(max_size=4), max_size=3),
    st.lists(st.sampled_from(["Node", "Client", "Request"]), max_size=3),
)


@settings(max_examples=300)
@given(st.sampled_from(AbstractValue), _literal_pools, st.integers(0, 6), st.integers(0, 2**64 - 1))
def test_deep_copy_of_every_concretized_kind(kind, pools, size, seed):
    ints, floats, strs, classes = pools
    cfg = ConcretizerConfig.with_literals(ints, floats, strs, classes, max_structure_size=size)
    value = concretize(kind, cfg, SplitMix64(seed))
    copied = deep_copy(value)
    assert serialize(copied) == serialize(value)
    nodes = list(_side_by_side(value, copied))
    originals = {id(o) for o, _ in nodes}
    for o, c in nodes:
        assert type(c) is type(o)
        if type(o) in _ATOM_TYPES or (type(o) is tuple and all(type(i) in _ATOM_TYPES for i in o)):
            assert c is o
        elif not isinstance(o, tuple):
            assert id(c) not in originals
        if isinstance(o, VersatileObject):
            assert (c.seed, c.assigned_type) == (o.seed, o.assigned_type)


json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-1000, 1000)
    | st.floats(allow_nan=False, allow_infinity=False, width=32)
    | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=12,
)


@settings(max_examples=200)
@given(json_values)
def test_serialize_survives_deep_copy(value):
    assert serialize(deep_copy(value)) == serialize(value)


@settings(max_examples=200)
@given(json_values, st.integers(0, 2**32))
def test_mutating_the_copy_never_touches_the_original(value, seed):
    before = serialize(value)
    c = deep_copy(value)
    rng = random.Random(seed)
    for _ in range(4):
        if isinstance(c, list):
            rng.choice(
                [lambda: c.append(7), lambda: c.clear(), lambda: c.extend([1, 2])]
            )()
        elif isinstance(c, dict):
            c[rng.choice("abcd")] = rng.randrange(10)
    assert serialize(value) == before


# The isinstance chain serialize was before it dispatched on type(value); the
# table form must render every value of a listed type exactly as this does.
# A subclass of a listed type is not listed (TestSerializeEdges).
def _reference_serialize(value, _depth=0, _seen=None):
    if _depth > 16:
        return "<depth>"
    if _seen is None:
        _seen = set()
    if value is None:
        return "None"
    if isinstance(value, bool):
        return repr(value)
    if isinstance(value, (int, float, complex, str)):
        try:
            return repr(value)
        except ValueError:
            return hex(value)
    if isinstance(value, range):
        return repr(value)
    if isinstance(value, VersatileObject):
        if id(value) in _seen:
            return "<cycle>"
        _seen.add(id(value))
        try:
            attrs = ", ".join(
                f"{k}: {_reference_serialize(v, _depth + 1, _seen)}"
                for k, v in sorted(value.stored.items())
            )
            return (
                f"{type(value).__name__}(seed={value.seed}, "
                f"assigned_type={value.assigned_type!r}, attrs={{{attrs}}})"
            )
        finally:
            _seen.discard(id(value))
    if isinstance(value, (list, tuple, dict, set, frozenset)):
        if id(value) in _seen:
            return "<cycle>"
        _seen.add(id(value))
        try:
            if isinstance(value, list):
                return "[" + ", ".join(_reference_serialize(v, _depth + 1, _seen) for v in value) + "]"
            if isinstance(value, tuple):
                inner = [_reference_serialize(v, _depth + 1, _seen) for v in value]
                if len(inner) == 1:
                    return f"({inner[0]},)"
                return "(" + ", ".join(inner) + ")"
            if isinstance(value, dict):
                pairs = sorted(
                    (_reference_serialize(k, _depth + 1, _seen), _reference_serialize(v, _depth + 1, _seen))
                    for k, v in value.items()
                )
                return "{" + ", ".join(f"{k}: {v}" for k, v in pairs) + "}"
            items = sorted(_reference_serialize(v, _depth + 1, _seen) for v in value)
            if not items:
                return "set()"
            return "{" + ", ".join(items) + "}"
        finally:
            _seen.discard(id(value))
    if isinstance(value, ExceptionValue):
        args = ", ".join(_reference_serialize(a, _depth + 1, _seen) for a in value.args)
        return f"{value.type_name}({args})"
    if isinstance(value, FunctionValue):
        return f"<function {value.name}>"
    if isinstance(value, GeneratorValue):
        return "<generator>"
    if isinstance(value, BoundMethod):
        return f"<method {value.name}>"
    if isinstance(value, BuiltinFunction):
        return f"<builtin {value.name}>"
    return f"<{type(value).__name__}>"


class _Count(int):
    """A host int subclass, which the engine never makes."""


def _nested(depth, wrap):
    value = 1
    for _ in range(depth):
        value = wrap(value)
    return value


def _stored_chain(depth):
    head = VersatileObject(0)
    node = head
    for i in range(1, depth):
        nxt = VersatileObject(i)
        node.store("next", nxt)
        node = nxt
    return head


def _cycles():
    xs = [1]
    xs.append(xs)
    d = {"a": 1}
    d["self"] = d
    o = VersatileObject(3, "Node")
    o.store("me", o)
    # list -> dict -> versatile -> list
    ring = [0]
    inner = {"k": VersatileObject(4)}
    inner["k"].store("back", ring)
    ring.append(inner)
    return [xs, d, o, ring]


def _exception_args():
    looped = []
    exc = ExceptionValue("KeyError", ["k", [1, (2,)], VersatileObject(3), looped])
    looped.append(exc)
    return [exc, ExceptionValue("ValueError"), ExceptionValue("E", [True, 1])]


_SERIALIZE_CASES = [
    True,
    1,
    False,
    0,
    [True, 1, False, 0],
    {True: 1, 0: False},
    10**5000,
    -(10**5000),
    [10**5000, (10**5000,)],
    _nested(40, lambda v: [v]),
    _nested(17, lambda v: [v]),
    _nested(16, lambda v: [v]),
    _nested(30, lambda v: {"k": v}),
    _nested(20, lambda v: (v,)),
    _nested(20, lambda v: frozenset([v])),
    _stored_chain(25),
    *_cycles(),
    *_exception_args(),
    FunctionValue("helper", ["x"], None, None),
    GeneratorValue(items=[1, 2]),
    BoundMethod([1], "append"),
    BuiltinFunction("len"),
    range(0, 3),
    set(),
    frozenset(),
    {3, 1, 2},
    (1,),
    (),
    float("nan"),
    -0.0,
    "quote's",
    object(),
    b"raw",
    1j,
    slice(1, 2),
    VersatileCallable(9, "Client"),
]


@pytest.mark.parametrize("value", _SERIALIZE_CASES, ids=lambda v: type(v).__name__)
def test_serialize_matches_the_isinstance_chain(value):
    assert serialize(value) == _reference_serialize(value)


class TestSerializeEdges:
    def test_bool_and_int_render_apart(self):
        assert serialize(True) == "True" and serialize(1) == "1"

    def test_int_past_the_digit_limit_is_hex(self):
        big = 10 ** (sys.get_int_max_str_digits() + 1)
        assert serialize(big) == hex(big)

    def test_depth_past_sixteen(self):
        assert "<depth>" not in serialize(_nested(16, lambda v: [v]))
        assert serialize(_nested(17, lambda v: [v])) == "[" * 17 + "<depth>" + "]" * 17

    def test_cycles_through_list_dict_and_versatile(self):
        xs, d, o, ring = _cycles()
        assert serialize(xs) == "[1, <cycle>]"
        assert serialize(d) == "{'a': 1, 'self': <cycle>}"
        assert serialize(o) == "VersatileObject(seed=3, assigned_type='Node', attrs={me: <cycle>})"
        assert serialize(ring) == (
            "[0, {'k': VersatileObject(seed=4, assigned_type=None, attrs={back: <cycle>})}]"
        )

    def test_exception_arguments(self):
        exc, bare, mixed = _exception_args()
        assert serialize(bare) == "ValueError()"
        assert serialize(mixed) == "E(True, 1)"
        assert serialize(exc).startswith("KeyError('k', [1, (2,)], VersatileObject(seed=3")

    def test_record_and_unknown_types(self):
        assert serialize(FunctionValue("g", [], None, None)) == "<function g>"
        assert serialize(GeneratorValue(items=[])) == "<generator>"
        assert serialize(BoundMethod("s", "upper")) == "<method upper>"
        assert serialize(BuiltinFunction("len")) == "<builtin len>"
        assert serialize(object()) == "<object>"

    def test_a_subclass_of_a_listed_type_renders_as_unknown(self):
        # serialize looks a renderer up by the exact type: every type the
        # engine makes is listed.
        assert serialize(_Count(3)) == "<_Count>"
        assert serialize(collections.OrderedDict(b=1, a=2)) == "<OrderedDict>"


_atoms = (
    st.none()
    | st.booleans()
    | st.integers(-(10**6), 10**6)
    | st.floats(width=32)
    | st.text(max_size=6)
)
_records = st.sampled_from(
    [
        FunctionValue("f", [], None, None),
        GeneratorValue(items=[1]),
        BoundMethod([], "append"),
        BuiltinFunction("print"),
        range(2, 5),
        object(),
    ]
)
_hashables = _atoms | st.tuples(_atoms, _atoms) | st.integers(0, 50).map(VersatileObject)


_plain_values = st.recursive(
    _atoms,
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=3).map(tuple)
    | st.dictionaries(_atoms | st.tuples(_atoms, _atoms), inner, max_size=4),
    max_leaves=12,
)


def _nesting(value):
    """How deep lists, tuples and dict values nest in ``value``."""
    if isinstance(value, dict):
        value = list(value.values())
    if isinstance(value, (list, tuple)):
        return 1 + max(map(_nesting, value), default=0)
    return 0


@given(_plain_values)
def test_subject_rendering_is_cpythons_without_sets(value):
    assume(_nesting(value) <= 16)
    assert subject_repr(value) == repr(value)
    assert subject_str(value) == str(value)


class TestSubjectRendering:
    def test_sets_and_frozensets_of_ints(self):
        for items in ([], [7], [3, 1, 2]):
            for value in (set(items), frozenset(items), [set(items), frozenset(items)]):
                assert subject_repr(value) == subject_str(value) == repr(value)
        assert subject_repr({frozenset({2, 1}), frozenset()}) == (
            "{frozenset(), frozenset({1, 2})}"
        )

    @pytest.mark.parametrize("args", [(), (1,), ("a",), ([1, "b"],), (1, "b"), ("x", None, 2.5)])
    def test_an_exceptions_str_follows_its_args(self, args):
        for host in (ValueError, KeyError):
            value = ExceptionValue(host.__name__, list(args))
            assert subject_str(value) == str(host(*args))
            assert subject_repr(value) == repr(host(*args))
        nested = ExceptionValue("ValueError", [ExceptionValue("KeyError", list(args))])
        assert subject_str(nested) == str(ValueError(KeyError(*args)))

    def test_an_exception_that_holds_itself_ends(self):
        looped = ExceptionValue("ValueError")
        looped.args = [looped]
        assert subject_str(looped) == "<depth>"
        assert subject_repr(looped).endswith("(<depth>" + ")" * 17)

    def test_only_the_subject_keeps_insertion_order(self):
        d = {"b": 1, "a": {"d": 2, "c": 3}}
        assert subject_repr(d) == subject_str(d) == repr(d)
        assert serialize(d) == "{'a': {'c': 3, 'd': 2}, 'b': 1}"

    def test_the_engines_own_forms_stay(self):
        big = 10**5000
        xs: list = [1]
        xs.append(xs)
        assert subject_str([big]) == f"[{hex(big)}]"
        assert subject_repr(xs) == "[1, <cycle>]"
        assert subject_str(FunctionValue("g", [], None, None)) == "<function g>"
        o = VersatileObject(5)
        assert subject_str(o) == subject_repr(o) == serialize(o)


def _versatile(args):
    seed, assigned, stored, callable_ = args
    value = (VersatileCallable if callable_ else VersatileObject)(seed, assigned)
    for key, item in stored.items():
        value.store(key, item)
    if seed % 2:
        list(value)  # materialize its children
    return value


_values = st.recursive(
    _atoms | _records,
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=3).map(tuple)
    | st.dictionaries(_hashables, inner, max_size=4)
    | st.sets(_hashables, max_size=4)
    | st.frozensets(_hashables, max_size=3)
    | st.tuples(
        st.integers(0, 2**64 - 1),
        st.sampled_from([None, "Node"]),
        st.dictionaries(st.sampled_from(["a", "b", "c"]), inner, max_size=3),
        st.booleans(),
    ).map(_versatile)
    | st.lists(inner, max_size=3).map(lambda args: ExceptionValue("ValueError", args)),
    max_leaves=16,
)


def _mutables(value):
    """Every list, dict and versatile object reachable from ``value``."""
    found, stack, seen = [], [value], set()
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        if isinstance(node, (list, dict, VersatileObject)):
            found.append(node)
        if isinstance(node, (list, tuple, set, frozenset)):
            stack.extend(node)
        elif isinstance(node, dict):
            stack.extend(node.values())
        elif isinstance(node, VersatileObject):
            stack.extend(node.stored.values())
            stack.extend(node._children or ())
        elif isinstance(node, ExceptionValue):
            stack.extend(node.args)
    return found


def _entangle(value, rng, links=3):
    """Add aliasing and cycles: link random mutable nodes of ``value`` to
    each other, a node to itself included."""
    nodes = _mutables(value)
    for i in range(links if nodes else 0):
        source, target = rng.choice(nodes), rng.choice(nodes)
        if isinstance(source, list):
            source.append(target)
        elif isinstance(source, dict):
            source[f"link{i}"] = target
        else:
            source.store(f"link{i}", target)
    return value


@settings(max_examples=300)
@given(_values, st.integers(0, 2**32 - 1))
def test_serialize_matches_the_isinstance_chain_on_generated_values(value, seed):
    _entangle(value, random.Random(seed))
    assert serialize(value) == _reference_serialize(value)


class TestConcretize:
    def cfg(self, **kw):
        return ConcretizerConfig.with_literals(**kw)

    def test_kinds_always_match(self):
        cfg = self.cfg(classes=("Node",))
        rng = random.Random(0)
        for kind in AbstractValue:
            for _ in range(200):
                v = concretize(kind, cfg, rng)
                assert matches_kind(v, kind), (kind, v)

    def test_integer_pool_membership(self):
        cfg = self.cfg(int_literals=(37,))
        rng = random.Random(1)
        allowed = set(HARD_INT_POOL) | {37}
        for _ in range(500):
            assert concretize(AbstractValue.INTEGER, cfg, rng) in allowed

    def test_container_sizes_bounded(self):
        cfg = self.cfg(max_structure_size=4)
        rng = random.Random(2)
        sizes = set()
        for _ in range(400):
            v = concretize(AbstractValue.LIST, cfg, rng)
            sizes.add(len(v))
            assert 0 <= len(v) <= 4
        assert sizes == {0, 1, 2, 3, 4}

    def test_dict_keys_come_from_string_pool(self):
        cfg = self.cfg(str_literals=("mode",))
        rng = random.Random(3)
        allowed = set(HARD_STR_POOL) | {"mode"}
        for _ in range(300):
            d = concretize(AbstractValue.DICTIONARY, cfg, rng)
            assert set(d) <= allowed

    def test_container_elements_share_one_kind(self):
        cfg = self.cfg()
        rng = random.Random(4)
        for _ in range(300):
            v = concretize(AbstractValue.LIST, cfg, rng)
            if len(v) > 1:
                kinds = {kind_of(e) for e in v}
                assert len(kinds) == 1, v

    def test_callable_kind_gives_callable_versatile(self):
        cfg = self.cfg()
        rng = random.Random(5)
        v = concretize(AbstractValue.CALLABLE, cfg, rng)
        assert isinstance(v, VersatileCallable)

    def test_object_and_resource_give_versatiles(self):
        cfg = self.cfg(classes=("A", "B"))
        rng = random.Random(6)
        seen_types = set()
        for kind in (AbstractValue.OBJECT, AbstractValue.RESOURCE):
            for _ in range(100):
                v = concretize(kind, cfg, rng)
                assert isinstance(v, VersatileObject)
                seen_types.add(v.assigned_type)
        assert seen_types <= {"A", "B"}
        assert len(seen_types) == 2

    def test_literal_multiplicity_kept(self):
        cfg = self.cfg(int_literals=(5, 5, 5))
        assert cfg.int_pool.count(5) == 3

    def test_boolean_and_none(self):
        cfg = self.cfg()
        rng = random.Random(7)
        assert concretize(AbstractValue.NONE, cfg, rng) is None
        values = {concretize(AbstractValue.BOOLEAN, cfg, rng) for _ in range(50)}
        assert values == {True, False}


def _reference_concretize(kind, cfg, rng):
    """Reference: ``concretize`` as ``random.Random``'s ``choice`` and
    ``randint`` draw it."""
    def element_kind():
        if rng.random() < cfg.object_bias:
            return AbstractValue.OBJECT
        return rng.choice(
            (AbstractValue.INTEGER, AbstractValue.FLOAT, AbstractValue.STRING,
             AbstractValue.BOOLEAN, AbstractValue.NONE)
        )

    def versatile(cls):
        seed = rng.getrandbits(64)
        return cls(seed, rng.choice(cfg.class_pool) if cfg.class_pool else None)

    pools = {
        AbstractValue.BOOLEAN: (True, False),
        AbstractValue.INTEGER: cfg.int_pool,
        AbstractValue.FLOAT: cfg.float_pool,
        AbstractValue.STRING: cfg.str_pool,
    }
    if kind is AbstractValue.NONE:
        return None
    if kind in pools:
        return rng.choice(pools[kind])
    if kind in (AbstractValue.LIST, AbstractValue.TUPLE, AbstractValue.SET):
        size = rng.randint(0, cfg.max_structure_size)
        elem = element_kind()
        items = [_reference_concretize(elem, cfg, rng) for _ in range(size)]
        return {AbstractValue.LIST: list, AbstractValue.TUPLE: tuple}.get(kind, set)(items)
    if kind is AbstractValue.DICTIONARY:
        size = rng.randint(0, cfg.max_structure_size)
        elem = element_kind()
        out = {}
        for _ in range(size):
            key = rng.choice(cfg.str_pool)
            out[key] = _reference_concretize(elem, cfg, rng)
        return out
    if kind is AbstractValue.CALLABLE:
        return versatile(VersatileCallable)
    return versatile(VersatileObject)


class TestDrawsMatchRandomRandom:
    """The draws take what ``random.Random``'s Python methods take from a
    generator in the same state, and leave it in the same state."""

    SIZES = range(1, 18)

    @pytest.mark.parametrize(
        "reference",
        [
            lambda rng, n: rng.choice(tuple(range(n))),
            lambda rng, n: rng.randint(0, n - 1),
            lambda rng, n: rng.randrange(n),
        ],
        ids=["choice", "randint", "randrange"],
    )
    def test_randbelow_is_the_index_random_random_draws(self, reference):
        for seed in range(40):
            for n in self.SIZES:
                ours, theirs = random.Random(seed), random.Random(seed)
                for _ in range(8):
                    assert randbelow(ours, n) == reference(theirs, n)
                assert ours.getstate() == theirs.getstate()

    def test_the_redraw_loop_runs(self):
        # Sizes just past a power of two redraw most often; without a redraw
        # the comparison above could not tell the loop was right.
        redraws = 0
        for seed in range(40):
            rng = random.Random(seed)
            for n in self.SIZES:
                before = rng.getstate()
                randbelow(rng, n)
                after = rng.getstate()
                rng.setstate(before)
                rng.getrandbits(n.bit_length())
                redraws += rng.getstate() != after
                rng.setstate(after)
        assert redraws > 100

    @pytest.mark.parametrize("kind", list(AbstractValue))
    def test_concretize_matches_the_reference(self, kind):
        cfg = ConcretizerConfig.with_literals(
            int_literals=(3, 3, 9), str_literals=("k", "v", "w"), classes=("A", "B", "C"),
            max_structure_size=6,
        )
        for seed in range(25):
            ours, theirs = random.Random(seed), random.Random(seed)
            for _ in range(6):
                value = concretize(kind, cfg, ours)
                expected = _reference_concretize(kind, cfg, theirs)
                assert type(value) is type(expected)
                assert serialize(value) == serialize(expected)
            assert ours.getstate() == theirs.getstate()


def _state_before(word):
    """The ``SplitMix64`` state whose next word is ``word``: each mixing step
    undone, last first."""

    def unshift(y, shift):
        x = y
        for _ in range(64 // shift + 1):
            x = y ^ (x >> shift)
        return x

    z = unshift(word, 31)
    z = unshift(z * pow(0x94D049BB133111EB, -1, 2**64) % 2**64, 27)
    z = unshift(z * pow(0xBF58476D1CE4E5B9, -1, 2**64) % 2**64, 30)
    return (z - 0x9E3779B97F4A7C15) % 2**64


class TestSplitMix64:
    """The edges of the keyed-draw stream; ``tests/test_engine.py`` pins its
    words against a reference written there."""

    @pytest.mark.parametrize("k", [-1, 0, 65, 128])
    def test_getrandbits_takes_1_to_64_bits(self, k):
        with pytest.raises(ValueError):
            SplitMix64().getrandbits(k)

    def test_random_is_in_the_unit_interval(self):
        for seed in range(20):
            rng = SplitMix64(seed)
            assert all(0.0 <= rng.random() < 1.0 for _ in range(50))
        for word in (0, 2**64 - 1):
            rng = SplitMix64(_state_before(word))
            assert rng.getrandbits(64) == word
        # The extreme words: all zeros is 0.0, all ones the float below 1.
        assert SplitMix64(_state_before(0)).random() == 0.0
        assert SplitMix64(_state_before(2**64 - 1)).random() == 1.0 - 2**-53

    def test_randbelow_draws_every_index_and_no_other(self):
        for n in range(1, 18):
            drawn = set()
            for seed in range(20):
                rng = SplitMix64(seed)
                drawn.update(randbelow(rng, n) for _ in range(20))
            assert sorted(drawn) == list(range(n))


def test_kinds_keep_their_order():
    # Sampling walks the kinds in declaration order, and table files name
    # them by label; both orders are part of every drawn value.
    labels = [
        "None", "Boolean", "Integer", "Float", "String", "List",
        "Tuple", "Dictionary", "Set", "Callable", "Resource", "Object",
    ]
    assert [kind.value for kind in AbstractValue] == labels
    assert [kind.name for kind in AbstractValue] == [
        "NONE", "BOOLEAN", "INTEGER", "FLOAT", "STRING", "LIST",
        "TUPLE", "DICTIONARY", "SET", "CALLABLE", "RESOURCE", "OBJECT",
    ]
    assert list(LABEL_TO_KIND.items()) == list(zip(labels, AbstractValue))


class TestKindOf:
    @pytest.mark.parametrize(
        "value,kind",
        [
            (None, AbstractValue.NONE),
            (True, AbstractValue.BOOLEAN),
            (3, AbstractValue.INTEGER),
            (1.5, AbstractValue.FLOAT),
            ("x", AbstractValue.STRING),
            ([1], AbstractValue.LIST),
            ((1,), AbstractValue.TUPLE),
            ({"a": 1}, AbstractValue.DICTIONARY),
            ({1}, AbstractValue.SET),
            (VersatileObject(1), AbstractValue.OBJECT),
            (VersatileCallable(1), AbstractValue.CALLABLE),
        ],
    )
    def test_examples(self, value, kind):
        assert kind_of(value) == kind

    def test_object_kind_accepts_callable_versatile(self):
        assert matches_kind(VersatileCallable(1), AbstractValue.OBJECT)
        assert matches_kind(VersatileObject(1), AbstractValue.RESOURCE)
