import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pairguard.values import (
    HARD_INT_POOL,
    HARD_STR_POOL,
    AbstractValue,
    ConcretizerConfig,
    VersatileCallable,
    VersatileObject,
    concretize,
    deep_copy,
    serialize,
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
