"""Runtime value model: abstract kinds, versatile stand-in objects, and the
concretizer that turns a predicted kind into an actual value.

Everything injected into a guided execution flows through this module, so the
representations here are deliberately small and deterministic: serialization
is canonical (sorted sets and dict keys, stable float/str repr) and every
random decision is drawn from a caller-supplied ``SplitMix64`` stream:
``random()`` for a probability, ``getrandbits(64)`` for a versatile's seed,
and ``randbelow`` for every index.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Callable, Iterator, Optional


class AbstractValue(Enum):
    """The twelve abstract kinds a predictor can choose between.

    Declaration order is the canonical order used when sampling from a
    distribution, so it must stay stable. A kind hashes by identity, as
    members are singletons, so a lookup by kind runs no Python-level
    ``Enum.__hash__``; a set of kinds would then iterate in an order that
    changes from process to process, so none is iterated.
    """

    __hash__ = object.__hash__

    NONE = "None"
    BOOLEAN = "Boolean"
    INTEGER = "Integer"
    FLOAT = "Float"
    STRING = "String"
    LIST = "List"
    TUPLE = "Tuple"
    DICTIONARY = "Dictionary"
    SET = "Set"
    CALLABLE = "Callable"
    RESOURCE = "Resource"
    OBJECT = "Object"


LABEL_TO_KIND = {k.value: k for k in AbstractValue}

# Base sampling pools. Literals harvested from the functions under analysis
# get appended to these (duplicates kept, which weights common literals up).
HARD_INT_POOL = (-100, -10, -1, 0, 1, 10, 100)
HARD_FLOAT_POOL = (-100.0, -10.0, -1.0, 0.0, 1.0, 10.0, 100.0)
HARD_STR_POOL = ("", "a")

_PRIMITIVE_ELEMENT_KINDS = (
    AbstractValue.INTEGER,
    AbstractValue.FLOAT,
    AbstractValue.STRING,
    AbstractValue.BOOLEAN,
    AbstractValue.NONE,
)

_MASK64 = (1 << 64) - 1


def _child_seed(seed: int, index: int) -> int:
    # Fixed-point LCG step so child identity depends only on the parent seed.
    return (seed * 6364136223846793005 + 1442695040888963407 * (index + 1)) & _MASK64


class VersatileObject:
    """A chameleon value that survives most uses an unknown object sees.

    It carries internal representations (1, 1.0, "a") used whenever the
    context demands a number or a string, supports iteration over a small
    deterministic set of children, and absorbs operations it cannot satisfy
    by evaluating to itself rather than failing. Its arithmetic and
    comparison methods are each ``versatile_binop``, installed from
    ``_OPERATOR_METHODS`` below.
    """

    INTERNAL_INT = 1
    INTERNAL_FLOAT = 1.0
    INTERNAL_STR = "a"

    def __init__(self, seed: int, assigned_type: Optional[str] = None):
        self.seed = seed & _MASK64
        self.assigned_type = assigned_type
        # attrs caches every attribute, and item (keyed ``[key]``), ever
        # resolved on this object so repeated reads stay consistent; stored
        # holds only explicit writes, which are the part observable as state.
        self.attrs: dict[str, Any] = {}
        self.stored: dict[str, Any] = {}
        self._children: Optional[list["VersatileObject"]] = None

    def store(self, key: str, value: Any) -> None:
        self.attrs[key] = value
        self.stored[key] = value

    def __neg__(self):
        return -self.INTERNAL_INT

    def __hash__(self):
        return hash(("versatile", self.seed))

    # structural protocols

    def __bool__(self):
        return True

    def __len__(self):
        return 1

    def __iter__(self):
        if self._children is None:
            count = self.seed % 3
            self._children = [
                VersatileObject(_child_seed(self.seed, i), self.assigned_type)
                for i in range(count)
            ]
        return iter(self._children)

    def __contains__(self, item):
        return False

    def __str__(self):
        return serialize(self)

    def __repr__(self):
        return serialize(self)


class VersatileCallable(VersatileObject):
    """Versatile object usable in call position.

    The engine performs the actual call (so it can log it and keep results
    consistent across the two executions); ``call_count`` tracks how many
    times this particular instance has been invoked.
    """

    def __init__(self, seed: int, assigned_type: Optional[str] = None):
        super().__init__(seed, assigned_type)
        self.call_count = 0


ARITH_OPS: dict[str, Callable[[Any, Any], Any]] = {
    "+": operator.add,
    "-": operator.sub,
    "*": operator.mul,
    "/": operator.truediv,
    "//": operator.floordiv,
    "%": operator.mod,
    "**": operator.pow,
}

COMPARE_OPS: dict[str, Callable[[Any, Any], Any]] = {
    "==": operator.eq,
    "!=": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
    "in": lambda a, b: a in b,
    "not in": lambda a, b: a not in b,
    "is": operator.is_,
    "is not": operator.is_not,
}


def _internal_for(value: Any) -> Any:
    """Internal representation a versatile presents next to ``value``."""
    if isinstance(value, int):
        return VersatileObject.INTERNAL_INT
    if isinstance(value, float):
        return VersatileObject.INTERNAL_FLOAT
    if isinstance(value, str):
        return VersatileObject.INTERNAL_STR
    return None


def versatile_binop(op: str, lhs: Any, rhs: Any) -> Any:
    """Total binary operation where at least one side is versatile.

    Two versatiles compare by seed and do arithmetic on their internal ints.
    A versatile next to a number or string stands in with the matching
    internal representation. Anything else, and any host-level failure,
    is absorbed: comparisons become False (``!=`` True) and arithmetic
    evaluates to the versatile operand itself.
    """
    lv = isinstance(lhs, VersatileObject)
    if lv and isinstance(rhs, VersatileObject):
        if op in COMPARE_OPS:
            return COMPARE_OPS[op](lhs.seed, rhs.seed)
        return ARITH_OPS[op](VersatileObject.INTERNAL_INT, VersatileObject.INTERNAL_INT)
    internal = _internal_for(rhs if lv else lhs)
    if internal is not None:
        a, b = (internal, rhs) if lv else (lhs, internal)
        try:
            return (COMPARE_OPS.get(op) or ARITH_OPS[op])(a, b)
        except Exception:
            pass
    if op in COMPARE_OPS:
        return op == "!="
    return lhs if lv else rhs


# The host operator methods of a versatile, each its total op: symbol ->
# method name. An arithmetic symbol also gets the reflected method.
_OPERATOR_METHODS = {
    "+": "add",
    "-": "sub",
    "*": "mul",
    "/": "truediv",
    "//": "floordiv",
    "%": "mod",
    "**": "pow",
    "==": "eq",
    "!=": "ne",
    "<": "lt",
    "<=": "le",
    ">": "gt",
    ">=": "ge",
}


def _operator_method(symbol: str, reflected: bool) -> Callable[[Any, Any], Any]:
    if reflected:
        return lambda self, other: versatile_binop(symbol, other, self)
    return lambda self, other: versatile_binop(symbol, self, other)


for _symbol, _name in _OPERATOR_METHODS.items():
    setattr(VersatileObject, f"__{_name}__", _operator_method(_symbol, False))
    if _symbol in ARITH_OPS:
        setattr(VersatileObject, f"__r{_name}__", _operator_method(_symbol, True))


class FunctionValue:
    """A function defined by the code under execution (or a lambda).

    ``body`` is the engine's compiled form of it, the closure every call
    runs: a lambda's returns the expression's value, a yielding def's its
    generator, and a plain def's runs the statements and returns the value
    of a last top-level ``return``; any other ``return`` raises, and the
    engine catches it.
    ``attrs`` holds the attributes subject code stores on it, by merged name.
    """

    def __init__(self, name: str, params: list[str], body: Any, env: Any):
        self.name = name
        self.params = params
        self.body = body
        self.env = env
        self.attrs: dict[str, Any] = {}

    def __repr__(self):
        return f"<function {self.name}>"


class GeneratorValue:
    """Lazily materialized generator result.

    The underlying producer runs once, on the first walk (up to the
    engine's item cap), and its items are cached. As with a CPython
    generator, each item is handed to one walk only, so after a full walk
    the generator is spent and later walks see no items.
    """

    def __init__(self, materializer: Optional[Callable[[], list]] = None, items: Optional[list] = None):
        self._materializer = materializer
        self._cursor = None if items is None else iter(items)

    def take(self) -> Iterator:
        """The one iterator over the items every walk shares, so a walk
        gets only the items no earlier walk has taken."""
        if self._cursor is None:
            self._cursor = iter(self._materializer())
        return self._cursor

    def __repr__(self):
        return "<generator>"


@dataclass
class BoundMethod:
    """A whitelisted native method bound to a concrete receiver."""

    receiver: Any
    name: str


@dataclass(frozen=True)
class BuiltinFunction:
    """One of the supported builtin functions, e.g. ``len`` or ``print``."""

    name: str


class ExceptionValue:
    """An exception as seen by the executions under comparison.

    ``intentional`` distinguishes exceptions the code (or an injected call)
    raised on purpose from faults that merely reflect a gap in the guided
    execution itself. ``attrs`` holds the attributes subject code stores on
    it, by merged name; they are not part of its serialized form.
    """

    def __init__(self, type_name: str, args: Optional[list] = None, intentional: bool = False):
        self.type_name = type_name
        self.args = list(args) if args else []
        self.intentional = intentional
        self.attrs: dict[str, Any] = {}

    def __repr__(self):
        return serialize(self)


_SERIALIZE_DEPTH_CAP = 16

# ``(value, depth, seen, table)`` -> text; a container renders its items by ``table``.
_Renderer = Callable[[Any, int, Optional[set], dict], str]


def serialize(value: Any) -> str:
    """Canonical, deterministic string form of any runtime value.

    Sets and dictionary keys are ordered by their serialized form so the
    output never depends on hash seeds or insertion order. Recursion is
    bounded: cycles render as ``<cycle>`` and depth beyond the cap as
    ``<depth>``. Each type renders through its entry in ``_RENDERERS``, and
    a type without one, a subclass of a listed type too, as ``<Name>``.
    """
    return _RENDERERS.get(type(value), _render_unknown)(value, 0, None, _RENDERERS)


def subject_repr(value: Any) -> str:
    """``repr(value)`` as the subject sees it: ``serialize``'s rendering but
    where CPython's differs (``_SUBJECT_RENDERERS``): a dict keeps insertion
    order and a frozenset prints as ``frozenset({...})``. A set's items stay
    sorted by their renderings, and an int past the digit limit stays hex."""
    return _render(value, 0, None, _SUBJECT_RENDERERS)


def subject_str(value: Any, _depth: int = 0) -> str:
    """``str(value)`` as the subject sees it: a str is itself, an exception
    follows CPython's args rule (none: ``''``; one: that argument's ``str``,
    its ``repr`` for a ``KeyError``; more: the args tuple's ``repr``), and
    anything else renders as ``subject_repr`` renders it."""
    kind = type(value)
    if kind is str:
        return value
    if kind is not ExceptionValue or _depth > _SERIALIZE_DEPTH_CAP:
        return _render(value, _depth, None, _SUBJECT_RENDERERS)
    args = value.args
    if len(args) == 1 and value.type_name != "KeyError":
        return subject_str(args[0], _depth + 1)
    shown = args[0] if len(args) == 1 else tuple(args)
    return _render(shown, _depth + 1, None, _SUBJECT_RENDERERS) if args else ""


def _render(value: Any, depth: int, seen: Optional[set], table: dict) -> str:
    if depth > _SERIALIZE_DEPTH_CAP:
        return "<depth>"
    return table.get(type(value), _render_unknown)(value, depth, seen, table)


def _render_repr(value: Any, depth: int, seen: Optional[set], table: dict) -> str:
    return repr(value)


def _render_int(value: int, depth: int, seen: Optional[set], table: dict) -> str:
    try:
        return repr(value)
    except ValueError:  # an int past the host's decimal digit limit
        return hex(value)


def _render_unknown(value: Any, *_) -> str:
    return f"<{type(value).__name__}>"


def _guarded(render: _Renderer) -> _Renderer:
    """A container's renderer behind the cycle guard: ``seen`` holds the ids
    of the containers being rendered further up, and the first container met
    allocates it."""

    def guarded(value: Any, depth: int, seen: Optional[set], table: dict) -> str:
        if seen is None:
            seen = set()
        elif id(value) in seen:
            return "<cycle>"
        seen.add(id(value))
        try:
            return render(value, depth, seen, table)
        finally:
            seen.discard(id(value))

    return guarded


@_guarded
def _render_versatile(value: VersatileObject, depth: int, seen: set, table: dict) -> str:
    attrs = ", ".join(
        f"{k}: {_render(v, depth + 1, seen, table)}" for k, v in sorted(value.stored.items())
    )
    return (
        f"{type(value).__name__}(seed={value.seed}, "
        f"assigned_type={value.assigned_type!r}, attrs={{{attrs}}})"
    )


@_guarded
def _render_list(value: list, depth: int, seen: set, table: dict) -> str:
    return "[" + ", ".join([_render(v, depth + 1, seen, table) for v in value]) + "]"


@_guarded
def _render_tuple(value: tuple, depth: int, seen: set, table: dict) -> str:
    inner = [_render(v, depth + 1, seen, table) for v in value]
    if len(inner) == 1:
        return f"({inner[0]},)"
    return "(" + ", ".join(inner) + ")"


def _dict_renderer(order: Callable[[list], list]) -> _Renderer:
    """A dict's renderer, which puts its ``(key, value)`` texts in ``order``."""

    @_guarded
    def render(value: dict, depth: int, seen: set, table: dict) -> str:
        pairs = [
            (_render(k, depth + 1, seen, table), _render(v, depth + 1, seen, table))
            for k, v in value.items()
        ]
        return "{" + ", ".join(f"{k}: {v}" for k, v in order(pairs)) + "}"

    return render


@_guarded
def _render_set(value: set | frozenset, depth: int, seen: set, table: dict) -> str:
    items = sorted([_render(v, depth + 1, seen, table) for v in value])
    if not items:
        return "set()"
    return "{" + ", ".join(items) + "}"


def _render_frozenset(value: frozenset, depth: int, seen: Optional[set], table: dict) -> str:
    return f"frozenset({_render_set(value, depth, seen, table)})" if value else "frozenset()"


def _render_exception(value: ExceptionValue, depth: int, seen: Optional[set], table: dict) -> str:
    args = ", ".join(_render(a, depth + 1, seen, table) for a in value.args)
    return f"{value.type_name}({args})"


_RENDERERS: dict[type, _Renderer] = {
    type(None): _render_repr,
    bool: _render_repr,
    int: _render_int,
    float: _render_repr,
    complex: _render_repr,
    str: _render_repr,
    range: _render_repr,
    VersatileObject: _render_versatile,
    VersatileCallable: _render_versatile,
    list: _render_list,
    tuple: _render_tuple,
    dict: _dict_renderer(sorted),
    set: _render_set,
    frozenset: _render_set,
    ExceptionValue: _render_exception,
    FunctionValue: lambda value, *_: f"<function {value.name}>",
    GeneratorValue: lambda value, *_: "<generator>",
    BoundMethod: lambda value, *_: f"<method {value.name}>",
    BuiltinFunction: lambda value, *_: f"<builtin {value.name}>",
}
_SUBJECT_RENDERERS = {**_RENDERERS, dict: _dict_renderer(list), frozenset: _render_frozenset}


# The atoms deep_copy hands back as they are: no run can change one.
_ATOMS = frozenset({type(None), bool, int, float, str})


def deep_copy(value: Any) -> Any:
    """A copy, for the other side of an iteration, of a value ``concretize``
    has just made: an atom, a fresh versatile, or a list, tuple, set or dict
    of those. Atoms, and tuples whose items copy to themselves, come back as
    they are, and a versatile as a fresh one of its class, seed and assigned
    type. Any other type raises ``TypeError``."""
    cls = type(value)
    if cls in _ATOMS:
        return value
    if cls is VersatileObject or cls is VersatileCallable:
        return cls(value.seed, value.assigned_type)
    if cls is dict:
        return {deep_copy(k): deep_copy(v) for k, v in value.items()}
    if cls is list or cls is tuple or cls is set:
        items = [deep_copy(v) for v in value]
        if cls is tuple and all(a is b for a, b in zip(items, value)):
            return value
        return cls(items)
    raise TypeError(f"deep_copy does not copy a {cls.__name__}")


def sorted_iter(value: set | frozenset) -> list:
    """A set's items in the order ``str()`` prints them, by ``subject_repr``.
    Two items that render alike (functions, say, which hash by identity) have
    no order that is a function of the set, so such a set raises ``TypeError``."""
    by_text = {subject_repr(v): v for v in value}
    if len(by_text) < len(value):
        raise TypeError("set items that render alike have no canonical order")
    return [by_text[text] for text in sorted(by_text)]


class Rendered:
    """Stands in for a value where the host renders it: its ``str``,
    ``repr`` and ``ascii`` are ``text``."""

    __slots__ = ("text",)

    def __init__(self, text: str):
        self.text = text

    def __repr__(self) -> str:
        return self.text

    __str__ = __repr__


class RenderedDict(dict):
    """Stands in for a dict that a ``%`` format both renders whole and reads
    by key: its items are what the keyed fields read, and its ``str`` and
    ``repr`` are ``text``, what the whole-dict field renders."""

    __slots__ = ("text",)

    def __init__(self, text: str, items: dict):
        super().__init__(items)
        self.text = text

    __repr__ = __str__ = Rendered.__repr__


@dataclass(frozen=True)
class ConcretizerConfig:
    """Pools and size limits used when turning a kind into a value."""

    max_structure_size: int = 4
    object_bias: float = 0.5
    int_pool: tuple = HARD_INT_POOL
    float_pool: tuple = HARD_FLOAT_POOL
    str_pool: tuple = HARD_STR_POOL
    class_pool: tuple = ()

    @classmethod
    def with_literals(
        cls,
        int_literals=(),
        float_literals=(),
        str_literals=(),
        classes=(),
        max_structure_size: int = 4,
        object_bias: float = 0.5,
    ) -> "ConcretizerConfig":
        """Base pools extended with literals found in the analyzed code.

        Literals are kept with multiplicity, so a literal that occurs twice
        is sampled twice as often.
        """
        return cls(
            max_structure_size=max_structure_size,
            object_bias=object_bias,
            int_pool=HARD_INT_POOL + tuple(int_literals),
            float_pool=HARD_FLOAT_POOL + tuple(float_literals),
            str_pool=HARD_STR_POOL + tuple(str_literals),
            class_pool=tuple(sorted(set(classes))),
        )


class SplitMix64:
    """The splitmix64 stream (Steele, Lea and Flood, OOPSLA 2014): a 64-bit
    counter stepped by a fixed odd gamma and put through a mixing function.
    Seeding stores the key, so a keyed draw costs no re-initialization. Each
    method mixes inline, as a Python call per word costs real time."""

    __slots__ = ("state",)

    def __init__(self, s: int = 0) -> None:
        self.state = s

    def seed(self, s: int) -> None:
        self.state = s

    def getrandbits(self, k: int) -> int:
        """The top ``k`` bits, ``k`` in 1..64, of the next word."""
        if not 0 < k <= 64:
            raise ValueError(f"getrandbits takes 1 to 64 bits, not {k}")
        z = self.state = (self.state + 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
        z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 & 0xFFFFFFFFFFFFFFFF
        z = (z ^ (z >> 27)) * 0x94D049BB133111EB & 0xFFFFFFFFFFFFFFFF
        return (z ^ (z >> 31)) >> (64 - k)

    def random(self) -> float:
        """The top 53 bits of the next word, in [0, 1)."""
        z = self.state = (self.state + 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
        z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 & 0xFFFFFFFFFFFFFFFF
        z = (z ^ (z >> 27)) * 0x94D049BB133111EB & 0xFFFFFFFFFFFFFFFF
        return ((z ^ (z >> 31)) >> 11) * 2.0**-53


def randbelow(rng, n: int) -> int:
    """An unbiased draw from ``range(n)``, ``n`` at least 1: the first of
    ``rng``'s ``n.bit_length()``-bit draws that is below ``n``."""
    k = n.bit_length()
    r = rng.getrandbits(k)
    while r >= n:
        r = rng.getrandbits(k)
    return r


def _fresh_versatile(cfg: ConcretizerConfig, rng, callable_: bool = False) -> VersatileObject:
    seed = rng.getrandbits(64)
    pool = cfg.class_pool
    assigned_type = pool[randbelow(rng, len(pool))] if pool else None
    if callable_:
        return VersatileCallable(seed, assigned_type)
    return VersatileObject(seed, assigned_type)


def _element_kind(cfg: ConcretizerConfig, rng) -> AbstractValue:
    if rng.random() < cfg.object_bias:
        return AbstractValue.OBJECT
    return _PRIMITIVE_ELEMENT_KINDS[randbelow(rng, len(_PRIMITIVE_ELEMENT_KINDS))]


def concretize(kind: AbstractValue, cfg: ConcretizerConfig, rng) -> Any:
    """Produce a concrete value of the given abstract kind, through its entry
    in ``_CONCRETIZERS``.

    Containers pick one element kind for all their elements; dictionary keys
    come from the string pool (duplicates collapse, so dictionaries can come
    out smaller than the drawn size).
    """
    return _CONCRETIZERS[kind](cfg, rng)


def _sequence(build: type) -> Callable[[ConcretizerConfig, Any], Any]:
    """The concretizer of a list, tuple or set, which ``build`` makes from
    the list of drawn items."""

    def sequence(cfg: ConcretizerConfig, rng) -> Any:
        size = randbelow(rng, cfg.max_structure_size + 1)
        element = _CONCRETIZERS[_element_kind(cfg, rng)]
        return build([element(cfg, rng) for _ in range(size)])

    return sequence


def _dictionary(cfg: ConcretizerConfig, rng) -> dict:
    size = randbelow(rng, cfg.max_structure_size + 1)
    element = _CONCRETIZERS[_element_kind(cfg, rng)]
    out = {}
    for _ in range(size):
        key = cfg.str_pool[randbelow(rng, len(cfg.str_pool))]
        out[key] = element(cfg, rng)
    return out


_CONCRETIZERS: dict[AbstractValue, Callable[[ConcretizerConfig, Any], Any]] = {
    AbstractValue.NONE: lambda cfg, rng: None,
    AbstractValue.BOOLEAN: lambda cfg, rng: (True, False)[randbelow(rng, 2)],
    AbstractValue.INTEGER: lambda cfg, rng: cfg.int_pool[randbelow(rng, len(cfg.int_pool))],
    AbstractValue.FLOAT: lambda cfg, rng: cfg.float_pool[randbelow(rng, len(cfg.float_pool))],
    AbstractValue.STRING: lambda cfg, rng: cfg.str_pool[randbelow(rng, len(cfg.str_pool))],
    AbstractValue.LIST: _sequence(list),
    AbstractValue.TUPLE: _sequence(tuple),
    AbstractValue.SET: _sequence(set),
    AbstractValue.DICTIONARY: _dictionary,
    AbstractValue.CALLABLE: lambda cfg, rng: _fresh_versatile(cfg, rng, callable_=True),
    # Resource and Object both map to a plain versatile object.
    AbstractValue.RESOURCE: _fresh_versatile,
    AbstractValue.OBJECT: _fresh_versatile,
}
