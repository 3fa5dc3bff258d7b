"""Guided execution engine.

Each side (old or new) of a merged function pair is compiled once, when the
frontend parses it, into nested Python closures, one per statement and
expression, and the closures run that side for every iteration. Compiling
is also what checks the side against the subject-language grammar and
records its static facts. Reads of undefined variables, attribute reads,
unresolvable calls, and crashing subscripts are intercepted and answered
with predicted, concretized values. An iteration's injected values are a
dict from merged access path to the value each side reads, which
``Interpreter._inject`` alone fills, so both executions observe the same
injected inputs; every random decision is drawn from a splitmix64 stream
(``values.SplitMix64``) seeded with a key of the merged access path, so
small control-flow differences cannot desynchronize the two runs.
"""

from __future__ import annotations

import ast
import builtins
import hashlib
import operator
import re
import string
import sys
from dataclasses import dataclass, field
from functools import lru_cache, partial
from typing import Any, Callable, NoReturn, Optional

from .predictor import Distribution, InjectionQuery, Predictor
from .values import (
    ARITH_OPS,
    COMPARE_OPS,
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

_PATH_CAP = 120
_CONTEXT_CAP = 160
_MAX_CALL_DEPTH = 200
# Steps one run may take, and items one generator may yield, before it stops.
_STEP_BUDGET = 100_000
_GENERATOR_CAP = 100

# The operators of the subject language by AST type, with the symbol each is
# evaluated by; the compiler accepts exactly these.
BINOP_SYMBOLS = {
    ast.Add: "+",
    ast.Sub: "-",
    ast.Mult: "*",
    ast.Div: "/",
    ast.FloorDiv: "//",
    ast.Mod: "%",
    ast.Pow: "**",
}
COMPARE_SYMBOLS = {
    ast.Eq: "==",
    ast.NotEq: "!=",
    ast.Lt: "<",
    ast.LtE: "<=",
    ast.Gt: ">",
    ast.GtE: ">=",
    ast.In: "in",
    ast.NotIn: "not in",
    ast.Is: "is",
    ast.IsNot: "is not",
}
_ALLOWED_AUGOPS = (ast.Add, ast.Sub, ast.Mult, ast.Div, ast.FloorDiv, ast.Mod)
_ALLOWED_UNARYOPS = (ast.Not, ast.USub)

# Methods callable natively on concrete built-in receivers. Anything else
# becomes an interception.
NATIVE_METHODS = frozenset(
    {
        "get",
        "append",
        "items",
        "keys",
        "values",
        "strip",
        "split",
        "join",
        "format",
        "upper",
        "lower",
        "startswith",
        "endswith",
        "replace",
    }
)

_HOST_FAULTS = (
    TypeError,
    ValueError,
    KeyError,
    IndexError,
    AttributeError,
    StopIteration,
    ArithmeticError,
)

_VIEW_TYPES = (type({}.keys()), type({}.values()), type({}.items()))

# Engine records that keep subject attributes in an ``attrs`` dict of their
# own, apart from the fields the engine reads; a versatile's ``attrs`` holds
# its stored and injected attributes alike.
_RECORDS = (ExceptionValue, FunctionValue)
_ATTRIBUTED = (VersatileObject, *_RECORDS)

# Builtin exception name -> every builtin name an ``except`` clause can catch
# it by under CPython's hierarchy (ZeroDivisionError is an ArithmeticError).
_EXCEPTIONS = {
    name: cls
    for name, cls in vars(builtins).items()
    if isinstance(cls, type) and issubclass(cls, BaseException)
}
_CATCHING_NAMES = {
    name: frozenset(base for base, b in _EXCEPTIONS.items() if issubclass(cls, b))
    for name, cls in _EXCEPTIONS.items()
}


def derive_seed(*parts: Any) -> int:
    """Stable 64-bit seed from arbitrary repr-able parts: the first 8 bytes
    of the blake2b hash of ``repr(parts)``.

    Uses a keyed hash rather than Python's salted ``hash`` so streams are
    identical across processes and runs. This is the reference: an injected
    value's draw hashes the same text in two pieces (``Interpreter._inject``).
    """
    digest = hashlib.blake2b(repr(parts).encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big")


# An analysis at the default k uses 300 iteration seeds; these caches keep a
# few analyses' worth per process. Seeds are cached by type too: ``True``
# and ``1`` have one hash but not one ``repr``.
@lru_cache(maxsize=1024, typed=True)
def iteration_seed(seed: int, i: int) -> int:
    """Iteration ``i``'s seed under ``seed``: ``derive_seed(seed, "iteration", i)``."""
    return derive_seed(seed, "iteration", i)


@lru_cache(maxsize=1024)
def draw_hasher(iteration_seed: int) -> hashlib.blake2b:
    """A blake2b hasher, as ``derive_seed`` makes it, fed how ``repr`` of a
    tuple whose first item is ``iteration_seed`` begins. Every injected
    value's draw of the iteration copies it and none updates it."""
    return hashlib.blake2b(f"({iteration_seed!r}, ".encode("utf-8"), digest_size=8)


_SEQUENCES = frozenset({str, list, tuple})


def _result_size(op: str, left: Any, right: Any) -> int:
    """Lower bound on the size of a host ``+``, ``*`` or ``**`` result,
    charged to the step budget before the host builds it: 64-item words for
    joined str, list or tuple, items for a repeated one, 64-bit words for an
    int product or power, 0 for anything else."""
    if op == "+":
        if type(left) in _SEQUENCES and type(right) in _SEQUENCES:
            return (len(left) + len(right)) // 64
        return 0
    if isinstance(left, int) and isinstance(right, int):
        if op == "*":
            return (left.bit_length() + right.bit_length()) // 64
        return max(abs(left).bit_length() - 1, 0) * right // 64 if right > 0 else 0
    if isinstance(left, int):
        left, right = right, left
    if op == "*" and type(left) in _SEQUENCES and isinstance(right, int):
        return max(len(left) * right, 0)
    return 0


# One printf-style conversion: mapping key, flags, width, precision, type.
_PERCENT_SPEC = r"(?s)%(?:\(([^)]*)\))?[-#0 +]*(\*|\d+)?(?:\.(\*|\d*))?[hlL]?(.)"
# A format-spec mini-language string, as str.format hands it to format().
_FORMAT_SPEC = r"(?s)(?:.?[<>=^])?[-+ ]?z?#?0?(\d*)[,_]?(?:\.(\d+))?(.?)"
# The subject's rendering for each conversion that renders its argument
# whole: a ``%`` type or a ``str.format`` conversion.
_CONVERSIONS = {"s": subject_str, "r": subject_repr, "a": subject_repr}


def _padding_size(width: Any, precision: Any, truncates: bool) -> int:
    """64-character words a width and a precision can make a field build;
    a precision that only truncates builds nothing."""
    size = width if type(width) is int else 0
    if not truncates and type(precision) is int:
        size += precision
    return max(size, 0) // 64


def _percent_args(rt: "Interpreter", fmt: str, args: Any) -> Any:
    """``args`` of ``fmt % args`` as the host is to format them, charged to
    the step budget field by field: the words each width and precision can
    build, the str each ``%s``, ``%r`` or ``%a`` field copies, and the text
    such a field renders of any other argument, which stands in as a
    ``Rendered`` of that text. ``*`` widths and precisions are taken from
    the arguments. A field's ``slot`` is its mapping key in a dict ``args``,
    else its index into the argument tuple (a lone argument is index 0). A
    dict rendered whole and also read by key stands in as a ``RenderedDict``."""
    swaps, keyed = {}, False
    values = args if type(args) is tuple else (args,)
    index = 0
    for match in re.finditer(_PERCENT_SPEC, fmt):
        key, width, precision, kind = match.groups()
        if kind == "%":
            continue
        if width == "*":
            width = values[index] if index < len(values) else None
            width = abs(width) if type(width) is int else None  # negative: left-justified
            index += 1
        elif width:
            width = int(width)
        if precision == "*":
            precision = values[index] if index < len(values) else None
            index += 1
        elif precision:
            precision = int(precision)
        if key is not None and type(args) is dict:
            slot, arg, keyed = key, args.get(key), True
        else:
            slot, arg = index, values[index] if index < len(values) else None
        index += 1
        render = _CONVERSIONS.get(kind)
        size = _padding_size(width, precision, render is not None)
        if render is not None:
            if type(arg) is not str:
                arg = render(arg)
                swaps[slot] = Rendered(arg)
            size += len(arg) // 64
        rt._charge(size)
    if not swaps:
        return args
    if type(args) is tuple:
        return tuple(swaps.get(i, v) for i, v in enumerate(args))
    if keyed:
        items = {k: swaps.get(k, v) for k, v in args.items()}
        return RenderedDict(swaps[0].text, items) if 0 in swaps else items
    return swaps[0]


# str.replace takes its count by keyword too from Python 3.13 on.
_REPLACE_KEYWORDS = frozenset({"count"} if sys.version_info >= (3, 13) else ())
_JOINABLE = frozenset({str, list, tuple, dict, set, frozenset})


def _added_size(size: int, *parts: str) -> int:
    """64-character words a str result of at most ``size`` characters adds
    to the distinct strs ``parts`` it is built from."""
    built = sum(len(p) for p in {id(p): p for p in parts}.values())
    return max(size - built, 0) // 64


def _replace_size(s: str, args: list, kwargs: dict) -> int:
    """Words ``s.replace(*args, **kwargs)`` can add to ``s`` and its
    replacement; 0 where the host will refuse the arguments."""
    if len(args) == 2 and kwargs.keys() <= _REPLACE_KEYWORDS:
        count = kwargs.get("count", -1)
    elif len(args) == 3 and not kwargs:
        count = args[2]
    else:
        return 0
    old, new = args[0], args[1]
    if type(old) is not str or type(new) is not str or not isinstance(count, int):
        return 0
    n = len(s) // len(old) if old else len(s) + 1
    if count >= 0:
        n = min(n, count)
    return _added_size(len(s) + n * max(len(new) - len(old), 0), s, new)


def _join_size(sep: str, args: list, kwargs: dict) -> int:
    """Words ``sep.join(items)`` adds to ``sep`` and the items, for a str or a
    collection of strs; 0 where the host will refuse the arguments."""
    if len(args) != 1 or kwargs or type(args[0]) not in _JOINABLE:
        return 0
    items = args[0]
    if not all(type(item) is str for item in items):
        return 0
    size = sum(map(len, items)) + len(sep) * max(len(items) - 1, 0)
    return _added_size(size, sep, *items)


_STR_RESULT_SIZES = {"replace": _replace_size, "join": _join_size}


class _FormatSizer(string.Formatter):
    """Formats a ``str.format`` call as the host would, charging each
    field's resolved width and precision, nested ``{}`` ones included, and
    the str it copies to the step budget before the field is built; a
    field that renders any other value is charged its rendering once built,
    before the next field. A value a conversion or a field without a spec
    renders stands in as a ``Rendered`` of the subject's text for it."""

    def __init__(self, rt: "Interpreter"):
        super().__init__()
        self.rt = rt

    def convert_field(self, value: Any, conversion: Optional[str]) -> Any:
        render = _CONVERSIONS.get(conversion)
        if render is not None and type(value) is not str:
            value = Rendered(render(value))
        return super().convert_field(value, conversion)

    def format_field(self, value: Any, format_spec: str) -> Any:
        if not format_spec and type(value) is not str:
            value = Rendered(subject_str(value))
        size = len(value) // 64 if isinstance(value, str) else 0
        match = re.fullmatch(_FORMAT_SPEC, format_spec)
        if match is not None:
            width, precision, kind = match.groups()
            truncates = isinstance(value, str) and kind in ("", "s")
            precision = int(precision) if precision else None
            size += _padding_size(int(width or 0), precision, truncates)
        self.rt._charge(size)
        rendered = super().format_field(value, format_spec)
        if not isinstance(value, str):
            self.rt._charge(len(rendered) // 64)
        return rendered


class SubjectError(Exception):
    """Exception-level control flow of the code under execution."""

    def __init__(self, value: ExceptionValue):
        super().__init__(value.type_name)
        self.value = value


def _subject_fault(exc: Exception) -> SubjectError:
    """A host fault as the unintended subject exception it stands for."""
    return SubjectError(ExceptionValue(type(exc).__name__, list(exc.args), intentional=False))


class _EngineInterrupt(Exception):
    """Step budget exhausted; never catchable by subject-level handlers."""


def _tick(rt: "Interpreter", line: int) -> None:
    """Charge one step, check it against the budget, then record the line
    as covered: what every compiled statement and expression does first."""
    n = rt.steps + 1
    rt.steps = n
    if n > _STEP_BUDGET:
        raise _EngineInterrupt()
    rt.covered_lines.add(line)


class _StopMaterialize(Exception):
    """Generator materialization hit the item cap."""


class _Return(Exception):
    def __init__(self, value):
        self.value = value


class _Break(Exception):
    pass


class _Continue(Exception):
    pass


def snapshot_injected(entries: dict[str, tuple[Any, Any]]) -> list[tuple[str, str, str]]:
    """``(path, old, new)``: the serialized final value of each injected
    path on each side, in the order the paths were first read. A path whose
    two sides share one value (an atom, or a tuple of atoms: nothing a run
    can change) renders alike on both, so it gets no row."""
    return [
        (path, serialize(v_old), serialize(v_new))
        for path, (v_old, v_new) in entries.items()
        if v_new is not v_old
    ]


@dataclass
class StaticFacts:
    """Facts mined from the code that guide value injection, with names
    rename-merged: literals in AST field order, the class names isinstance
    calls test, and the exceptions each call inside a ``try`` can raise."""

    literals_int: list[int] = field(default_factory=list)
    literals_float: list[float] = field(default_factory=list)
    literals_str: list[str] = field(default_factory=list)
    isinstance_classes: set[str] = field(default_factory=set)
    call_exception_map: dict[str, frozenset[str]] = field(default_factory=dict)


class ComparisonProgram:
    """Everything derived from one pair that its paired runs share.

    Built once per analysis from a frontend ``FunctionPair``, whose sides
    were compiled when parsed; every execution of either side reads the same
    static facts and concretizer pools. The context node of an injection site
    (its statement, or a compound statement's header) is settled by the
    compiler. The first time an injection at a site needs an answer, the
    predictor's lookup gives it, or else the context's text is unparsed and
    the predictor asked about a query; both name a merged name as the old
    side writes it.
    """

    def __init__(self, pair: Any, facts: StaticFacts, cfg: Any, predictor: Predictor):
        self.pair = pair
        self.cfg = cfg
        self.predictor = predictor
        self.ccfg = ConcretizerConfig.with_literals(
            int_literals=facts.literals_int,
            float_literals=facts.literals_float,
            str_literals=facts.literals_str,
            classes=facts.isinstance_classes,
            max_structure_size=cfg.max_structure_size,
            object_bias=cfg.object_bias,
        )
        # The exception types each ``try``-guarded call path can raise, in the
        # order an injected raise draws from.
        self.call_exceptions = {
            path: sorted(types) for path, types in facts.call_exception_map.items()
        }
        self._contexts: dict[ast.AST, str] = {}
        # Answers by query, and by site: query kind, name and context node.
        self._answers: dict[InjectionQuery, Distribution] = {}
        self._sites: dict[tuple[str, str, ast.AST], Distribution] = {}
        # A merged name -> the name the old side writes, and a pattern that
        # finds the merged names in a text.
        self._old_names = pair.old_names
        self._merged = (
            re.compile(r"\b(?:" + "|".join(map(re.escape, pair.old_names)) + r")\b")
            if pair.old_names
            else None
        )
        # The one stream every keyed draw of the analysis reseeds; a reseed
        # stores the key. Its own seed is never drawn from.
        self.rng = SplitMix64()
        # By path, the end of the text that an injected value's seed
        # ``derive_seed(iteration seed, "value", path)`` hashes; its start
        # is hashed once per iteration seed, by ``draw_hasher``.
        self.value_suffixes: dict[str, bytes] = {}

    def context(self, node: ast.AST) -> str:
        """Source text of a node, in the old side's names, capped, as handed
        to the predictor."""
        text = self._contexts.get(node)
        if text is None:
            try:
                text = ast.unparse(node)
            except Exception:
                text = ""
            text = self._as_written(text)[:_CONTEXT_CAP]
            self._contexts[node] = text
        return text

    def _as_written(self, text: str) -> str:
        """``text`` with each merged name as the old side writes it."""
        if self._merged is None:
            return text
        return self._merged.sub(lambda m: self._old_names[m.group()], text)

    def distribution(self, kind: str, name: str, node: ast.AST) -> Distribution:
        """The predictor's answer for a read of ``name``, reached as ``kind``,
        whose context is ``node``; both predictors are pure, so each site and
        each query is looked up or asked about once."""
        site = (kind, name, node)
        dist = self._sites.get(site)
        if dist is None:
            name = self._as_written(name)
            dist = self.predictor.lookup(kind, name)
            if dist is None:
                query = InjectionQuery(kind, name, self.context(node))
                dist = self._answers.get(query)
                if dist is None:
                    dist = self._answers[query] = self.predictor.predict(query)
            self._sites[site] = dist
        return dist


# What reading a name no enclosing scope binds gives; never bound itself.
_UNBOUND = object()


class _Env(dict):
    """One scope: its own bindings, and the scope it is nested in. A read
    ``env[name]`` goes outward and gives ``_UNBOUND`` past the root; a
    store ``env[name] = value`` binds in this scope."""

    __slots__ = ("parent",)

    def __init__(self, parent: Optional["_Env"] = None):
        self.parent = parent

    def __missing__(self, name: str) -> Any:
        scope = self.parent
        while scope is not None:
            value = scope.get(name, _UNBOUND)
            if value is not _UNBOUND:
                return value
            scope = scope.parent
        return _UNBOUND


def _cap_path(path: str) -> str:
    if len(path) <= _PATH_CAP:
        return path
    return path[: _PATH_CAP - 3] + "..."


def _access_path(base_path: Optional[str], suffix: str) -> str:
    """Capped path of ``base.attr`` or ``base[key]``; ``<expr>`` stands for a
    base without a path."""
    return _cap_path(f"{base_path or '<expr>'}{suffix}")


def _render_index(key: Any) -> str:
    """Text of a subscript's host index in access paths and a versatile's
    items: ``lo:hi`` for a slice, the serialized key otherwise."""
    if type(key) is slice:
        lo, hi = key.start, key.stop
        return f"{'' if lo is None else serialize(lo)}:{'' if hi is None else serialize(hi)}"
    return serialize(key)


class Interpreter:
    """One side's run in one iteration: its runtime state while it runs,
    and, once ``run`` returns it, what it left behind.

    The compiled closures of each side's body take it as their first
    argument and charge their steps to it. ``exception`` is the exception
    the run ended with, or None after a return; the step budget and the
    call depth cap end a run with an unintended ``StepBudgetExceeded`` or
    ``RecursionError``. ``seeded`` says whether the run drew from its
    iteration seed. ``call_log`` holds the text of each external call,
    ``callee(arg, ..., key=value)`` with keywords in name order, and
    ``stdout`` what print wrote.

    A run that returned keeps what it returned, ``result``, and the name of
    the function the run probed, ``probed``; ``return_value`` renders them
    on its first read into ``rendered`` (a probed function's as ``<function
    probed() -> result>``), and is None after an exception. A render after
    the run equals one made inside it: the other side of the iteration
    reads deep copies, and what ``deep_copy`` shares (atoms and tuples of
    atoms) renders the same whatever a run does.
    """

    __slots__ = (
        "side",
        "program",
        "entries",
        "iteration_seed",
        "seeded",
        "printed",
        "stdout",
        "call_log",
        "covered_lines",
        "steps",
        "call_depth",
        "occurrences",
        "handling",
        "sink",
        "exception",
        "result",
        "probed",
        "rendered",
    )

    def __init__(
        self,
        side: str,
        program: ComparisonProgram,
        entries: dict[str, tuple[Any, Any]],
        iteration_seed: int,
    ):
        self.side = side
        self.program = program
        self.entries = entries
        self.iteration_seed = iteration_seed
        self.seeded = False
        # What print wrote, piece by piece; joined into ``stdout`` once,
        # when the run ends.
        self.printed: list[str] = []
        self.call_log: list[str] = []
        self.covered_lines: set[int] = set()
        self.steps = 0
        self.call_depth = 0
        self.occurrences: dict[str, int] = {}
        # The exception the innermost running handler handles, which a bare
        # ``raise`` re-raises, and the list the innermost running yielding
        # def yields to; a handler or ``_materialize`` saves the outer one
        # and restores it when it ends.
        self.handling: Optional[ExceptionValue] = None
        self.sink: Optional[list] = None

    # plumbing

    def _charge(self, steps: int) -> None:
        """Charge the size of a host result before the host builds it."""
        self.steps += steps
        if self.steps > _STEP_BUDGET:
            raise _EngineInterrupt()

    def _host(self, fn: Callable, *args, **kwargs):
        """Run one host-level operation, translating faults into subject
        exceptions (unintended)."""
        try:
            return fn(*args, **kwargs)
        except _HOST_FAULTS as exc:
            raise _subject_fault(exc) from None

    def _fault(self, type_name: str, message: str):
        raise SubjectError(ExceptionValue(type_name, [message], intentional=False))

    def _inject(self, kind: str, name: str, path: str, context: Optional[ast.AST]) -> Any:
        """Injected value at ``path``, a key already capped by the caller:
        the one place a value is made up, so that both sides read the same
        value at the same path.

        The first side to read ``path`` draws the pair ``(v_old, v_new)``
        from the stream reseeded with ``derive_seed(iteration seed,
        "value", path)``, hashed from the path's cached suffix on a copy of
        the iteration's ``draw_hasher``: an untyped versatile for the
        ``"super"`` kind, else a value of the kind the predictor names,
        from the name alone or with the source text of ``context``
        (``ComparisonProgram.distribution``). ``v_new`` is a deep copy,
        so both sides see equal but non-interfering inputs, and must render
        like ``v_old`` when it is a new object. A pair that is one program
        (``FunctionPair.identical``) runs its old side alone and copies
        nothing."""
        entry = self.entries.get(path)
        if entry is None:
            program = self.program
            suffix = program.value_suffixes.get(path)
            if suffix is None:
                suffix = program.value_suffixes[path] = f"'value', {path!r})".encode("utf-8")
            hasher = draw_hasher(self.iteration_seed).copy()
            hasher.update(suffix)
            rng = program.rng
            rng.seed(int.from_bytes(hasher.digest(), "big"))
            self.seeded = True
            if kind == "super":
                v_old = VersatileObject(rng.getrandbits(64), None)
            else:
                abstract = program.distribution(kind, name, context).sample(rng)
                v_old = concretize(abstract, program.ccfg, rng)
            v_new = v_old if program.pair.identical else deep_copy(v_old)
            if v_new is not v_old and serialize(v_old) != serialize(v_new):
                raise RuntimeError(f"consistency violation at {path!r}")
            entry = self.entries[path] = (v_old, v_new)
        return entry[0] if self.side == "old" else entry[1]

    def _next_occurrence(self, path: str) -> int:
        n = self.occurrences.get(path, 0) + 1
        self.occurrences[path] = n
        return n

    # entry points

    def run(self) -> Interpreter:
        """Run this side's function once and return this run, which now
        holds what the run left behind. The entry call binds no arguments
        (every parameter is a name nothing binds, so a read injects it) and
        counts as call depth 1; its body runs directly in a scope nested in
        the root, which binds the function's own name. A returned function
        or generator then goes through ``_epilogue``."""
        fn = self.program.pair.old if self.side == "old" else self.program.pair.new
        root = _Env()
        root[fn.node.name] = FunctionValue(fn.node.name, fn.params, fn.body, root)
        self.covered_lines.add(fn.node.lineno)
        self.result = self.probed = self.exception = self.rendered = None
        self.call_depth = 1
        try:
            try:
                self.result = fn.body(self, _Env(root))
            except _Return as r:
                self.result = r.value
            self.call_depth = 0
            if isinstance(self.result, (FunctionValue, GeneratorValue)):
                self._epilogue()
        except SubjectError as err:
            self.exception = err.value
        except _EngineInterrupt:
            self.exception = ExceptionValue("StepBudgetExceeded")
        except RecursionError:
            self.exception = ExceptionValue("RecursionError")
        # The root binding closes the one cycle every run makes (the entry's
        # env is root); without it, the run is freed by reference counting.
        root.clear()
        self.stdout = "".join(self.printed)
        return self

    def _epilogue(self) -> None:
        """Probe a returned function once, then unwrap a generator: the
        subject code a returned ``result`` still runs. A probed function's
        name goes to ``probed``, and what the code gives back to ``result``."""
        result = self.result
        if isinstance(result, FunctionValue):
            self.probed = result.name
            result = self.result = self._call_function(result, [], {}, allow_missing=True)
        if isinstance(result, GeneratorValue):
            self.result = list(result.take(self))

    @property
    def return_value(self) -> Optional[str]:
        if self.rendered is None and self.exception is None:
            rendered = serialize(self.result)
            probed = self.probed
            self.rendered = rendered if probed is None else f"<function {probed}() -> {rendered}>"
        return self.rendered

    # function calls

    def _call_function(
        self,
        fv: FunctionValue,
        args: list,
        kwargs: dict[str, Any],
        allow_missing: bool = False,
    ) -> Any:
        """Call a subject function: bind ``args`` and ``kwargs`` to its
        parameters in a new scope nested in the one it was defined in, then
        run its body there. A body ending in a top-level ``return`` gives
        back its value (see ``_Compiler.function_body``); any other
        ``return`` raises ``_Return``, caught here. ``allow_missing`` leaves
        unbound the parameters no argument fills, as the function probe
        does; the entry call of a run is ``Interpreter.run``'s own."""
        self.call_depth += 1
        if self.call_depth > _MAX_CALL_DEPTH:
            self.call_depth -= 1
            self._fault("RecursionError", "maximum call depth exceeded")
        try:
            env = _Env(fv.env)
            params = fv.params
            if len(args) > len(params):
                self._fault(
                    "TypeError",
                    f"{fv.name}() takes {len(params)} arguments but {len(args)} were given",
                )
            for p, a in zip(params, args):
                env[p] = a
            for k, v in kwargs.items():
                if k not in params:
                    self._fault("TypeError", f"{fv.name}() got an unexpected keyword argument {k!r}")
                if k in env:
                    self._fault("TypeError", f"{fv.name}() got multiple values for argument {k!r}")
                env[k] = v
            if not allow_missing and len(env) < len(params):
                missing = [p for p in params if p not in env]
                self._fault(
                    "TypeError",
                    f"{fv.name}() missing required argument {missing[0]!r}",
                )
            try:
                return fv.body(self, env)
            except _Return as r:
                return r.value
        finally:
            self.call_depth -= 1

    def _materialize(self, block: Callable, env: _Env) -> list:
        """The items a yielding def's statements ``block`` yield, up to the cap."""
        outer, sink = self.sink, []
        self.sink = sink
        try:
            block(self, env)
        except (_Return, _StopMaterialize):
            pass
        finally:
            self.sink = outer
        return sink

    # stores

    def _store_attribute(self, base: Any, attr: str, value: Any) -> None:
        """``base.attr = value``. A versatile records the store as state; an
        exception or function keeps it in its own ``attrs``, except that
        ``e.args = it`` sets the exception's arguments to the items of
        ``it``. Any other value refuses the store, as CPython's builtins do."""
        if isinstance(base, VersatileObject):
            base.store(attr, value)
        elif isinstance(base, ExceptionValue) and attr == "args":
            base.args = list(self._iterate(value))
        elif isinstance(base, _RECORDS):
            base.attrs[attr] = value
        else:
            self._fault(
                "AttributeError", f"'{type(base).__name__}' object has no attribute {attr!r}"
            )

    def _store_subscript(self, base: Any, host_index: Any, value: Any) -> None:
        if isinstance(base, VersatileObject):
            base.store(f"[{_render_index(host_index)}]", value)
        else:
            self._host(operator.setitem, base, host_index, value)

    # reads with interception, asked about with ``context`` when they inject

    def _missing_name(self, name: str, path: str, env: _Env, context: ast.AST) -> Any:
        """A name no enclosing scope binds: a builtin, or an injected value
        bound in the innermost scope."""
        if name in _BUILTINS:
            return BuiltinFunction(name)
        value = self._inject("variable-read", name, path, context)
        env[name] = value
        return value

    def _read_attribute(self, base: Any, attr: str, path: str, context: ast.AST) -> Any:
        if isinstance(base, _ATTRIBUTED) and attr in base.attrs:
            return base.attrs[attr]
        if isinstance(base, VersatileObject):
            value = self._inject("attribute-read", attr, path, context)
            base.attrs[attr] = value
            return value
        if attr in NATIVE_METHODS and hasattr(base, attr):
            return BoundMethod(base, attr)
        return self._inject("attribute-read", attr, path, context)

    def _read_subscript(
        self, base: Any, rendered: str, host_index: Any, path: str, context: ast.AST
    ) -> Any:
        """``base[host_index]``; a versatile answers from the items read or
        stored before, and a miss on any base is injected."""
        name = host_index if isinstance(host_index, str) else rendered
        if isinstance(base, VersatileObject):
            bracket = f"[{rendered}]"
            if bracket not in base.attrs:
                base.attrs[bracket] = self._inject("subscript-result", name, path, context)
            return base.attrs[bracket]
        try:
            return base[host_index]
        except (TypeError, KeyError, IndexError):
            return self._inject("subscript-result", name, path, context)

    # calls

    def _call_value(
        self, value: Any, args: list, kwargs: dict, path: str, context: ast.AST
    ) -> Any:
        if isinstance(value, FunctionValue):
            return self._call_function(value, args, kwargs)
        if isinstance(value, BoundMethod):
            return self._call_native(value.receiver, value.name, args, kwargs)
        if isinstance(value, BuiltinFunction):
            message = _call_shape_error(value.name, len(args), kwargs)
            if message is not None:
                self._fault("TypeError", message)
            return _BUILTINS[value.name][0](self, args, kwargs)
        if isinstance(value, VersatileCallable):
            return self._external_call(path, args, kwargs, context, constructor=value)
        if isinstance(value, VersatileObject):
            return self._external_call(path, args, kwargs, context)
        self._fault("TypeError", f"{serialize(value)} is not callable")

    def _call_native(self, receiver: Any, name: str, args: list, kwargs: dict) -> Any:
        if name == "format" and type(receiver) is str:
            try:
                return _FormatSizer(self).vformat(receiver, args, kwargs)
            except _EngineInterrupt:
                raise
            except Exception:
                pass  # the host call below raises the subject's own error
        elif name in _STR_RESULT_SIZES and type(receiver) is str:
            self._charge(_STR_RESULT_SIZES[name](receiver, args, kwargs))
            if name == "join" and args and type(args[0]) in (set, frozenset):
                args = [self._host(sorted_iter, args[0]), *args[1:]]
        result = self._host(getattr(receiver, name), *args, **kwargs)
        if isinstance(result, _VIEW_TYPES):
            return list(result)
        return result

    def _external_call(
        self,
        path: str,
        args: list,
        kwargs: dict,
        context: ast.AST,
        constructor: Optional[VersatileCallable] = None,
    ) -> Any:
        path = _cap_path(path)
        occurrence = self._next_occurrence(path)
        parts = [serialize(a) for a in args]
        parts += [f"{k}={serialize(kwargs[k])}" for k in sorted(kwargs)]
        self.call_log.append(f"{path}({', '.join(parts)})")
        exc_types = self.program.call_exceptions.get(path)
        if exc_types:
            self.seeded = True
            rng = self.program.rng
            rng.seed(derive_seed(self.iteration_seed, "exc", path, occurrence))
            if rng.random() < self.program.cfg.exception_probability:
                type_name = exc_types[randbelow(rng, len(exc_types))]
                raise SubjectError(ExceptionValue(type_name, [], intentional=True))
        if constructor is not None:
            constructor.call_count += 1
            seed = derive_seed(constructor.seed, "call", constructor.call_count)
            return VersatileObject(seed, constructor.assigned_type)
        key = f"{path}()#{occurrence}"
        return self._inject("call-return", path, key, context)

    # builtins

    def _builtin_isinstance(self, args: list, kwargs: dict) -> bool:
        # Called indirectly, isinstance has lost its syntactic class
        # argument; resolve to False rather than guessing.
        return False

    def _builtin_super(self, args: list, kwargs: dict) -> VersatileObject:
        """An untyped versatile, one per ``super()`` call of the run."""
        key = f"super()#{self._next_occurrence('super()')}"
        return self._inject("super", "super", key, None)

    def _builtin_print(self, args: list, kwargs: dict) -> None:
        sep = " " if kwargs.get("sep") is None else kwargs["sep"]
        end = "\n" if kwargs.get("end") is None else kwargs["end"]
        if not isinstance(sep, str) or not isinstance(end, str):
            self._fault("TypeError", "sep and end must be None or strings")
        self.printed.append(sep.join(map(subject_str, args)) + end)

    def _builtin_len(self, args: list, kwargs: dict) -> int:
        return self._host(len, args[0])

    def _builtin_range(self, args: list, kwargs: dict) -> range:
        return self._host(range, *map(_number, args))

    def _builtin_str(self, args: list, kwargs: dict) -> str:
        return subject_str(args[0]) if args else ""

    def _builtin_repr(self, args: list, kwargs: dict) -> str:
        return subject_repr(args[0])

    def _builtin_number(self, args: list, kwargs: dict, host: Callable) -> Any:
        """int and float; int takes a ``base``."""
        return self._host(host, *map(_number, args), **_numbers(kwargs))

    def _builtin_bool(self, args: list, kwargs: dict) -> bool:
        return bool(*args)

    def _builtin_abs(self, args: list, kwargs: dict) -> Any:
        return self._host(abs, _number(args[0]))

    def _builtin_min_max(self, args: list, kwargs: dict, host: Callable) -> Any:
        return self._host(host, self._iterate(args[0]) if len(args) == 1 else args)

    def _builtin_any(self, args: list, kwargs: dict) -> bool:
        return any(self._iterate(args[0]))

    def _builtin_all(self, args: list, kwargs: dict) -> bool:
        return all(self._iterate(args[0]))

    def _builtin_sorted(self, args: list, kwargs: dict) -> list:
        reverse = bool(kwargs.get("reverse", False))
        return self._host(sorted, self._iterate(args[0]), reverse=reverse)

    def _builtin_enumerate(self, args: list, kwargs: dict) -> list:
        items = self._iterate(args[0])
        return list(self._host(enumerate, items, *map(_number, args[1:]), **_numbers(kwargs)))

    def _builtin_collection(self, args: list, kwargs: dict, host: Callable) -> Any:
        """list, tuple, set and frozenset: the items of the argument, or empty."""
        return self._host(host, self._iterate(args[0])) if args else host()

    def _builtin_dict(self, args: list, kwargs: dict) -> dict:
        out: dict = {}
        if args:
            v = args[0]
            if isinstance(v, dict):
                out.update(v)
            else:
                for pair in self._iterate(v):
                    items = list(self._iterate(pair))
                    if len(items) != 2:
                        self._fault("ValueError", "dict() expects key/value pairs")
                    self._host(out.__setitem__, items[0], items[1])
        out.update(kwargs)
        return out

    # helpers

    def _iterate(self, value: Any):
        """Yield the items a loop, unpacking or builtin walks, charging one
        step each. A range stays lazy; sets go in canonical order, a
        generator hands out the items no earlier walk took, anything else
        goes from a snapshot."""
        if type(value) is range:
            items = value
        elif isinstance(value, (list, tuple, str, dict, VersatileObject)):
            items = list(value)
        elif isinstance(value, GeneratorValue):
            items = value.take(self)
        elif isinstance(value, (set, frozenset)):
            items = self._host(sorted_iter, value)
        else:
            self._fault("TypeError", f"{serialize(value)} is not iterable")
        budget = _STEP_BUDGET
        for item in items:
            self.steps += 1
            if self.steps > budget:
                raise _EngineInterrupt()
            yield item


def _number(value: Any) -> Any:
    """``value`` where a builtin needs a number: a versatile stands in as its
    internal int."""
    return VersatileObject.INTERNAL_INT if isinstance(value, VersatileObject) else value


def _numbers(kwargs: dict) -> dict:
    """``kwargs`` with each value as ``_number`` gives it."""
    return {k: _number(v) for k, v in kwargs.items()}


def _nothing(rt: Interpreter, env: _Env) -> None:
    """The compiled form of an empty block."""


def _arith(symbol: str) -> Callable[[Interpreter, Any, Any], Any]:
    """``apply(rt, left, right)`` for one arithmetic operator.

    Host dispatch alone is not enough: str.__mod__ raises instead of
    returning NotImplemented, so "s" % versatile would never reach the
    reflected method; versatile operands go through the total op. A result
    that can be large (a joined sequence, a repetition or power, a padded
    ``%`` format) is charged to the step budget before the host builds it;
    the type test first keeps int ``+`` off the sizing call. A str ``%``
    format is charged, and its arguments rendered, field by field
    (``_percent_args``).
    """
    fn, percent = ARITH_OPS[symbol], symbol == "%"
    if symbol == "+":
        sized, size = _SEQUENCES, partial(_result_size, "+")
    elif symbol in ("*", "**"):
        sized, size = None, partial(_result_size, symbol)
    else:
        sized = size = None

    def apply(rt, left, right):
        if isinstance(left, VersatileObject) or isinstance(right, VersatileObject):
            return versatile_binop(symbol, left, right)
        if size is not None and (sized is None or type(left) in sized):
            rt._charge(size(left, right))
        elif percent and type(left) is str:
            right = _percent_args(rt, left, right)
        try:
            return fn(left, right)
        except _HOST_FAULTS as exc:
            raise _subject_fault(exc) from None

    return apply


_ARITH = {symbol: _arith(symbol) for symbol in ARITH_OPS}


def _call_shape_error(name: str, count: int, keywords) -> Optional[str]:
    """Why a builtin call's positional count or keyword names do not fit its
    ``_BUILTINS`` entry, or None when they do."""
    _, fewest, most, accepted = _BUILTINS[name]
    if not fewest <= count <= most:
        if fewest == most:
            expected = f"exactly {fewest}"
        elif most == _MANY:
            expected = f"at least {fewest}"
        else:
            expected = f"{fewest} to {most}"
        return f"{name}() takes {expected} positional arguments but {count} were given"
    if accepted is not None:
        for k in keywords:
            if k not in accepted:
                return f"{name}() got an unexpected keyword argument {k!r}"
    return None


def reject(node: ast.AST, message: str, source: str) -> NoReturn:
    """Raise the ``SyntaxError`` that reports ``node`` as outside the subject
    language, with its line and column in ``source``."""
    lineno = getattr(node, "lineno", 1)
    col = getattr(node, "col_offset", 0)
    lines = source.splitlines()
    text = lines[lineno - 1] if 0 < lineno <= len(lines) else ""
    raise SyntaxError(message, ("<pair>", lineno, col + 1, text))


def static_callee_path(node: ast.expr) -> Optional[str]:
    """Dotted path of a callee expression, if it has a static shape."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        base = static_callee_path(node.value)
        if base is None:
            return None
        return f"{base}.{node.attr}"
    if isinstance(node, ast.Call):
        base = static_callee_path(node.func)
        if base is None:
            return None
        return f"{base}()"
    return None


def isinstance_class_names(node: ast.expr) -> list[str]:
    """Class names named by the second argument of an isinstance call: the
    dotted paths among it (or its tuple's items) that go through no call."""
    items = node.elts if isinstance(node, ast.Tuple) else [node]
    paths = [static_callee_path(e) for e in items]
    return [p for p in paths if p is not None and "(" not in p]


# Expression types whose compiled form can also hand back an access path.
_PATHED = frozenset({ast.Name, ast.Attribute, ast.Subscript, ast.Call})


def compile_function(node: ast.FunctionDef, source: str, facts: StaticFacts) -> Callable:
    """Check one side's function against the subject-language grammar while
    compiling what a call of it runs, and record the side's static facts into
    ``facts``. Raises ``SyntaxError`` at the first construct, in AST field
    order, outside the grammar.
    """
    return _Compiler(source, facts).function_body(node)


class _Compiler:
    """Checks one side's statements and expressions and turns them into
    closures, recording the side's static facts on the way.

    One table per node kind, ``_STATEMENTS`` and ``_EXPRESSIONS``, says what
    the subject language accepts: a node whose type is not in it, or whose
    parts break a rule, is rejected with a ``SyntaxError``. Each node is
    compiled once and its children in AST field order, so rejections and the
    recorded literals come in that order: an assignment's target before its
    value, a dict's keys before its values, a comprehension's element before
    its ``for`` clauses.

    Every closure takes ``(rt, env)``: the run's ``Interpreter`` and the
    current scope. Whatever depends only on the node (line, names,
    paths, operator functions, builtin call shapes) is settled here, once
    per pair. That includes the context node each injection site asks the
    predictor with: the statement that contains it, or, inside a compound
    statement's header, the ``if``/``while`` test, the ``for`` iterable or
    the ``with`` item; a lambda body keeps the statement that defines it.
    ``Interpreter._inject`` unparses that node only when needed. At run time
    each statement and expression closure first charges its own step through
    ``_tick``.
    """

    def __init__(self, source: str, facts: StaticFacts):
        self.source = source
        self.facts = facts
        self.literals = {
            int: facts.literals_int,
            float: facts.literals_float,
            str: facts.literals_str,
        }
        self.loop_depth = 0
        # Whether the body of the def being compiled yields so far.
        self.yields = False
        # The context node of the injection sites being compiled.
        self.context: Optional[ast.AST] = None
        # The callee paths of the calls in the try bodies being compiled,
        # innermost last.
        self.try_calls: list[list[str]] = []

    def reject(self, node: ast.AST, message: str) -> NoReturn:
        reject(node, message, self.source)

    # dispatch

    def function_body(self, node: ast.FunctionDef) -> Callable:
        """What a call of a ``def`` runs, after checking its signature.

        A def whose own body yields runs a closure that returns a generator
        holding the compiled body and the call's scope. Any other def whose
        last top-level statement is ``return e`` runs one closure that runs
        the statements before it, charges the return's step and gives back
        ``e``'s value, so its tail return raises nothing; ``e`` is compiled
        once, as the return's own closure would compile it. Any other def
        runs its compiled body, and a ``return`` in it raises ``_Return``."""
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
        outer = self.yields, self.loop_depth
        self.yields, self.loop_depth = False, 0
        *head, last = node.body
        tail = type(last) is ast.Return
        stmts = tuple(self.stmt(s) for s in (head if tail else node.body))
        if tail:
            self.context = last
            line, value = last.lineno, self.return_value(last)
        yields = self.yields
        self.yields, self.loop_depth = outer
        if yields:
            body = _sequence(stmts + (_raise_return(line, value),) if tail else stmts)

            def generator(rt, env):
                return GeneratorValue(body, env)

            return generator
        if not tail:
            return _sequence(stmts)

        def tail_return(rt, env):
            for stmt in stmts:
                stmt(rt, env)
            _tick(rt, line)
            return value(rt, env)

        return tail_return

    def block(self, stmts: list) -> Callable:
        return _sequence(tuple(self.stmt(s) for s in stmts))

    def stmt(self, node: ast.stmt) -> Callable:
        compile_ = _STATEMENTS.get(type(node))
        if compile_ is None:
            self.reject(node, f"unsupported statement: {type(node).__name__}")
        self.context = node
        return compile_(self, node)

    def expr(self, node: ast.expr) -> Callable:
        """Closure returning the expression's value."""
        compile_ = _EXPRESSIONS.get(type(node))
        if compile_ is None:
            self.reject(node, f"unsupported expression: {type(node).__name__}")
        return compile_(self, node)

    def expr_p(self, node: ast.expr) -> Callable:
        """Closure returning the expression's value and its access path, or
        None for an expression without one."""
        if type(node) in _PATHED:
            return _EXPRESSIONS[type(node)](self, node, True)
        value = self.expr(node)

        def pathless(rt, env):
            return value(rt, env), None

        return pathless

    # statements

    def compile_FunctionDef(self, node: ast.FunctionDef) -> Callable:
        line = node.lineno
        name, params = node.name, [a.arg for a in node.args.args]
        body = self.function_body(node)

        def function_def(rt, env):
            _tick(rt, line)
            env[name] = FunctionValue(name, params, body, env)

        return function_def

    def compile_Return(self, node: ast.Return) -> Callable:
        return _raise_return(node.lineno, self.return_value(node))

    def return_value(self, node: ast.Return) -> Callable:
        """The compiled value of a ``return``; a bare one gives None."""
        return self.expr(node.value) if node.value is not None else _nothing

    def compile_Assign(self, node: ast.Assign) -> Callable:
        if len(node.targets) != 1:
            self.reject(node, "chained assignment is not supported")
        line = node.lineno
        target = node.targets[0]
        if isinstance(target, ast.Name):
            name = target.id
            value = self.expr(node.value)

            def assign_name(rt, env):
                _tick(rt, line)
                env[name] = value(rt, env)

            return assign_name
        bind = self.target(target)
        value = self.expr(node.value)

        def assign(rt, env):
            _tick(rt, line)
            bind(rt, env, value(rt, env))

        return assign

    def compile_AugAssign(self, node: ast.AugAssign) -> Callable:
        """``target op= value``. As in CPython, an attribute or subscript
        target's base and index are evaluated and the target read before the
        right-hand side; a name is looked up after it, which only an
        injection could tell apart. The grammar allows no other target."""
        if not isinstance(node.op, _ALLOWED_AUGOPS):
            self.reject(node, f"unsupported augmented operator: {type(node.op).__name__}")
        line = node.lineno
        apply = _ARITH[BINOP_SYMBOLS[type(node.op)]]
        target = node.target
        if isinstance(target, ast.Name):
            name = target.id
            path = _cap_path(name)
            rhs = self.expr(node.value)

            def augment_name(rt, env):
                _tick(rt, line)
                right = rhs(rt, env)
                current = env[name]
                if current is _UNBOUND:
                    current = rt._missing_name(name, path, env, node)
                env[name] = apply(rt, current, right)

            return augment_name
        base = self.expr_p(target.value)
        if isinstance(target, ast.Attribute):
            attr = target.attr
            suffix = f".{attr}"
            rhs = self.expr(node.value)

            def augment_attribute(rt, env):
                _tick(rt, line)
                base_v, base_p = base(rt, env)
                path = _access_path(base_p, suffix)
                current = rt._read_attribute(base_v, attr, path, node)
                rt._store_attribute(base_v, attr, apply(rt, current, rhs(rt, env)))

            return augment_attribute
        index = self.index(target)
        rhs = self.expr(node.value)

        def augment_subscript(rt, env):
            _tick(rt, line)
            base_v, base_p = base(rt, env)
            rendered, host_index = index(rt, env)
            path = _access_path(base_p, f"[{rendered}]")
            current = rt._read_subscript(base_v, rendered, host_index, path, node)
            rt._store_subscript(base_v, host_index, apply(rt, current, rhs(rt, env)))

        return augment_subscript

    def compile_Expr(self, node: ast.Expr) -> Callable:
        line = node.lineno
        if isinstance(node.value, ast.Yield):
            self.yields = True
            item = node.value.value
            value = self.expr(item) if item is not None else None

            def yield_(rt, env):
                _tick(rt, line)
                yielded = value(rt, env) if value is not None else None
                sink = rt.sink
                sink.append(yielded)
                if len(sink) >= _GENERATOR_CAP:
                    raise _StopMaterialize()

            return yield_
        value = self.expr(node.value)

        def expression(rt, env):
            _tick(rt, line)
            value(rt, env)

        return expression

    def compile_If(self, node: ast.If) -> Callable:
        line = node.lineno
        self.context = node.test
        test = self.expr(node.test)
        body = self.block(node.body)
        orelse = self.block(node.orelse)

        def if_(rt, env):
            _tick(rt, line)
            if test(rt, env):
                body(rt, env)
            else:
                orelse(rt, env)

        return if_

    def compile_While(self, node: ast.While) -> Callable:
        if node.orelse:
            self.reject(node, "while-else is not supported")
        line = node.lineno
        self.context = node.test
        test = self.expr(node.test)
        body = self.loop_body(node)

        def while_(rt, env):
            _tick(rt, line)
            while True:
                _tick(rt, line)
                if not test(rt, env):
                    break
                try:
                    body(rt, env)
                except _Break:
                    break
                except _Continue:
                    continue

        return while_

    def compile_For(self, node: ast.For) -> Callable:
        if node.orelse:
            self.reject(node, "for-else is not supported")
        line = node.lineno
        self.context = node.iter
        bind = self.target(node.target)
        iterable = self.expr(node.iter)
        body = self.loop_body(node)

        def for_(rt, env):
            _tick(rt, line)
            for item in rt._iterate(iterable(rt, env)):
                bind(rt, env, item)
                try:
                    body(rt, env)
                except _Break:
                    break
                except _Continue:
                    continue

        return for_

    def loop_body(self, node: ast.While | ast.For) -> Callable:
        """The compiled body of a loop, inside which break and continue are
        allowed."""
        self.loop_depth += 1
        body = self.block(node.body)
        self.loop_depth -= 1
        return body

    def compile_Break(self, node: ast.Break) -> Callable:
        if self.loop_depth == 0:
            self.reject(node, "break outside a loop")
        return self._jump(node, _Break)

    def compile_Continue(self, node: ast.Continue) -> Callable:
        if self.loop_depth == 0:
            self.reject(node, "continue outside a loop")
        return self._jump(node, _Continue)

    def compile_Pass(self, node: ast.Pass) -> Callable:
        return self._jump(node, None)

    def _jump(self, node: ast.stmt, signal: Optional[type]) -> Callable:
        """``break``, ``continue`` or ``pass``: a step, then the signal."""
        line = node.lineno

        def jump(rt, env):
            _tick(rt, line)
            if signal is not None:
                raise signal()

        return jump

    def compile_Raise(self, node: ast.Raise) -> Callable:
        line = node.lineno
        exc = node.exc
        reraise = exc is None
        # ``raise E`` looks E up; ``raise E(...)`` evaluates only the call's
        # arguments, positional then keyword.
        name = exc.id if isinstance(exc, ast.Name) else None
        values = []
        if isinstance(exc, ast.Call) and isinstance(exc.func, ast.Name):
            positional, keywords = self.call_args(exc)
            values = positional + [value for _, value in keywords]
        elif not reraise and name is None:
            self.reject(node, "raise target must be a name or a name call")
        cause = self.expr(node.cause) if node.cause is not None else None
        type_name = None if reraise else name or exc.func.id

        def raise_(rt, env):
            _tick(rt, line)
            if reraise:
                if rt.handling is not None:
                    raise SubjectError(rt.handling)
                rt._fault("RuntimeError", "no active exception to re-raise")
            # As in CPython, the exception is evaluated before its cause.
            if name is None:
                error = ExceptionValue(type_name, [v(rt, env) for v in values], intentional=True)
            else:
                error = env[name]
                if error is _UNBOUND:
                    error = ExceptionValue(type_name, [], intentional=True)
            if cause is not None:
                cause(rt, env)
            if not isinstance(error, ExceptionValue):
                rt._fault("TypeError", "exceptions must be exception values")
            raise SubjectError(error)

        return raise_

    def compile_Assert(self, node: ast.Assert) -> Callable:
        line = node.lineno
        test = self.expr(node.test)
        message = self.expr(node.msg) if node.msg is not None else None

        def assert_(rt, env):
            _tick(rt, line)
            if not test(rt, env):
                args = [message(rt, env)] if message is not None else []
                raise SubjectError(ExceptionValue("AssertionError", args, intentional=True))

        return assert_

    def compile_Try(self, node: ast.Try) -> Callable:
        """A ``try``; every call in its body, nested ones included, is
        recorded as able to raise the types its handlers name."""
        line = node.lineno
        calls: list[str] = []
        self.try_calls.append(calls)
        body = self.block(node.body)
        self.try_calls.pop()
        caught: list[str] = []
        handlers = [self._handler(h, caught) for h in node.handlers]
        if caught:
            names = frozenset(caught)
            exception_map = self.facts.call_exception_map
            for path in calls:
                exception_map[path] = exception_map.get(path, frozenset()) | names
        orelse = self.block(node.orelse)
        final = self.block(node.finalbody)

        def try_(rt, env):
            _tick(rt, line)
            try:
                try:
                    body(rt, env)
                except SubjectError as err:
                    ev = err.value
                    for matches, name, handler_body in handlers:
                        if matches(ev.type_name):
                            if name:
                                env[name] = ev
                            outer, rt.handling = rt.handling, ev
                            try:
                                handler_body(rt, env)
                            finally:
                                rt.handling = outer
                            break
                    else:
                        raise
                else:
                    orelse(rt, env)
            finally:
                final(rt, env)

        return try_

    def _handler(self, handler: ast.ExceptHandler, caught: list[str]):
        """(matches(type name), bound name, body) of one ``except`` clause,
        whose type names go onto ``caught``. A clause catches its names, their
        builtin subclasses, and everything when bare or naming Exception or
        BaseException."""
        kind = handler.type
        if kind is None:
            named = []
        elif isinstance(kind, ast.Name):
            named = [kind.id]
        elif isinstance(kind, ast.Tuple) and all(isinstance(e, ast.Name) for e in kind.elts):
            named = [e.id for e in kind.elts]
        else:
            self.reject(handler, "except type must be a name or tuple of names")
        caught.extend(named)
        body = self.block(handler.body)
        names = frozenset(named)
        if kind is None or names & {"Exception", "BaseException"}:
            return (lambda type_name: True), handler.name, body

        def matches(type_name):
            return type_name in names or not names.isdisjoint(
                _CATCHING_NAMES.get(type_name, ())
            )

        return matches, handler.name, body

    def compile_With(self, node: ast.With) -> Callable:
        if len(node.items) != 1:
            self.reject(node, "with supports a single context item")
        line = node.lineno
        item = node.items[0]
        self.context = item.context_expr
        manager = self.expr(item.context_expr)
        if item.optional_vars is not None and not isinstance(item.optional_vars, ast.Name):
            self.reject(node, "with target must be a plain name")
        name = item.optional_vars.id if item.optional_vars is not None else None
        body = self.block(node.body)

        def with_(rt, env):
            _tick(rt, line)
            value = manager(rt, env)
            if name is not None:
                env[name] = value
            body(rt, env)

        return with_

    # assignment targets: closures bind(rt, env, value)

    def target(self, node: ast.expr, allow_tuple: bool = True) -> Callable:
        if isinstance(node, ast.Name):
            name = node.id

            def bind_name(rt, env, value):
                env[name] = value

            return bind_name
        if allow_tuple and isinstance(node, ast.Tuple):
            binds = [self.target(e, allow_tuple=False) for e in node.elts]
            count = len(binds)

            def bind_tuple(rt, env, value):
                items = list(rt._iterate(value))
                if len(items) != count:
                    rt._fault(
                        "ValueError",
                        f"cannot unpack {len(items)} values into {count} targets",
                    )
                for bind, item in zip(binds, items):
                    bind(rt, env, item)

            return bind_tuple
        if isinstance(node, ast.Attribute):
            base = self.expr(node.value)
            attr = node.attr

            def bind_attribute(rt, env, value):
                rt._store_attribute(base(rt, env), attr, value)

            return bind_attribute
        if isinstance(node, ast.Subscript):
            base = self.expr(node.value)
            index = self.host_index(node)

            def bind_subscript(rt, env, value):
                base_v = base(rt, env)
                rt._store_subscript(base_v, index(rt, env), value)

            return bind_subscript
        self.reject(node, f"unsupported assignment target: {type(node).__name__}")

    def host_index(self, node: ast.Subscript) -> Callable:
        """Closure evaluating a subscript's index to the host index alone: a
        slice object for slices, the key itself otherwise. A store needs
        nothing more; a read also renders it, through ``index``."""
        s = node.slice
        if isinstance(s, ast.Slice):
            if s.step is not None:
                self.reject(node, "slice steps are not supported")
            lower = self.expr(s.lower) if s.lower is not None else None
            upper = self.expr(s.upper) if s.upper is not None else None

            def slice_index(rt, env):
                lo = lower(rt, env) if lower is not None else None
                hi = upper(rt, env) if upper is not None else None
                return slice(lo, hi)

            return slice_index
        return self.expr(s)

    def index(self, node: ast.Subscript) -> Callable:
        """Closure evaluating a read subscript's index once to (rendered
        text, host index)."""
        host_index = self.host_index(node)

        def index(rt, env):
            key = host_index(rt, env)
            return _render_index(key), key

        return index

    # expressions; Name, Attribute, Subscript and Call also compile to a
    # closure returning (value, access path) when ``with_path`` is set

    def compile_Name(self, node: ast.Name, with_path: bool = False) -> Callable:
        line = node.lineno
        name = node.id
        path = _cap_path(name)
        context = self.context

        def name_(rt, env):
            _tick(rt, line)
            value = env[name]
            if value is _UNBOUND:
                value = rt._missing_name(name, path, env, context)
            return (value, name) if with_path else value

        return name_

    def compile_Attribute(self, node: ast.Attribute, with_path: bool = False) -> Callable:
        line = node.lineno
        base = self.expr_p(node.value)
        attr = node.attr
        suffix = f".{attr}"
        context = self.context

        def attribute(rt, env):
            _tick(rt, line)
            base_v, base_p = base(rt, env)
            path = _access_path(base_p, suffix)
            value = rt._read_attribute(base_v, attr, path, context)
            return (value, path) if with_path else value

        return attribute

    def compile_Subscript(self, node: ast.Subscript, with_path: bool = False) -> Callable:
        line = node.lineno
        base = self.expr_p(node.value)
        index = self.index(node)
        context = self.context

        def subscript(rt, env):
            _tick(rt, line)
            base_v, base_p = base(rt, env)
            rendered, host_index = index(rt, env)
            path = _access_path(base_p, f"[{rendered}]")
            value = rt._read_subscript(base_v, rendered, host_index, path, context)
            return (value, path) if with_path else value

        return subscript

    def compile_Constant(self, node: ast.Constant) -> Callable:
        value = node.value
        literals = self.literals.get(type(value))
        if literals is not None:
            literals.append(value)
        elif value is not None and type(value) is not bool:
            self.reject(node, f"unsupported literal: {type(value).__name__}")
        return _constant(node.lineno, value)

    def compile_List(self, node: ast.List) -> Callable:
        return self._display(node, None)

    def compile_Tuple(self, node: ast.Tuple) -> Callable:
        return self._display(node, tuple)

    def compile_Set(self, node: ast.Set) -> Callable:
        return self._display(node, set)

    def _display(self, node: ast.List | ast.Tuple | ast.Set, build: Optional[type]) -> Callable:
        """``[...]``, ``(...)`` or ``{...}``: the items in order, then the
        container built from their list."""
        line = node.lineno
        items = [self.expr(e) for e in node.elts]

        def display(rt, env):
            _tick(rt, line)
            values = [item(rt, env) for item in items]
            return values if build is None else rt._host(build, values)

        return display

    def compile_Dict(self, node: ast.Dict) -> Callable:
        line = node.lineno
        keys = []
        for k in node.keys:
            if k is None:
                self.reject(node, "dict unpacking is not supported")
            keys.append(self.expr(k))
        entries = list(zip(keys, [self.expr(v) for v in node.values]))

        def dict_(rt, env):
            _tick(rt, line)
            out: dict = {}
            for key_value, item_value in entries:
                key = key_value(rt, env)
                value = item_value(rt, env)
                rt._host(out.__setitem__, key, value)
            return out

        return dict_

    def compile_BoolOp(self, node: ast.BoolOp) -> Callable:
        line = node.lineno
        is_or = isinstance(node.op, ast.Or)
        heads = [self.expr(v) for v in node.values[:-1]]
        last = self.expr(node.values[-1])

        def bool_op(rt, env):
            _tick(rt, line)
            for head in heads:
                value = head(rt, env)
                if bool(value) is is_or:
                    return value
            return last(rt, env)

        return bool_op

    def compile_BinOp(self, node: ast.BinOp) -> Callable:
        symbol = BINOP_SYMBOLS.get(type(node.op))
        if symbol is None:
            self.reject(node, f"unsupported operator: {type(node.op).__name__}")
        line = node.lineno
        left = self.expr(node.left)
        right = self.expr(node.right)
        apply = _ARITH[symbol]

        def bin_op(rt, env):
            _tick(rt, line)
            return apply(rt, left(rt, env), right(rt, env))

        return bin_op

    def compile_UnaryOp(self, node: ast.UnaryOp) -> Callable:
        if not isinstance(node.op, _ALLOWED_UNARYOPS):
            self.reject(node, f"unsupported unary operator: {type(node.op).__name__}")
        line = node.lineno
        negate = not isinstance(node.op, ast.Not)
        number = node.operand
        if negate and isinstance(number, ast.Constant) and type(number.value) in (int, float):
            # A negated number is recorded as one negative literal.
            self.literals[type(number.value)].append(-number.value)
            operand = _constant(number.lineno, number.value)
        else:
            operand = self.expr(number)

        def unary_op(rt, env):
            _tick(rt, line)
            value = operand(rt, env)
            if not negate:
                return not value
            try:
                return -value
            except _HOST_FAULTS as exc:
                raise _subject_fault(exc) from None

        return unary_op

    def compile_Compare(self, node: ast.Compare) -> Callable:
        """Each link's operator runs on the host. A versatile operand answers
        an ordering or equality through its own comparison methods (reflected
        when it is on the right), which apply ``versatile_binop``; identity
        and membership need nothing of it."""
        line = node.lineno
        first = self.expr(node.left)
        links = [
            (COMPARE_OPS[COMPARE_SYMBOLS[type(op)]], self.expr(c))
            for op, c in zip(node.ops, node.comparators)
        ]

        def compare(rt, env):
            _tick(rt, line)
            left = first(rt, env)
            for test, comparator in links:
                right = comparator(rt, env)
                try:
                    result = test(left, right)
                except _HOST_FAULTS as exc:
                    raise _subject_fault(exc) from None
                if not result:
                    return False
                left = right
            return True

        return compare

    def compile_IfExp(self, node: ast.IfExp) -> Callable:
        line = node.lineno
        test = self.expr(node.test)
        body = self.expr(node.body)
        orelse = self.expr(node.orelse)

        def if_exp(rt, env):
            _tick(rt, line)
            if test(rt, env):
                return body(rt, env)
            return orelse(rt, env)

        return if_exp

    def compile_Lambda(self, node: ast.Lambda) -> Callable:
        a = node.args
        if a.posonlyargs or a.kwonlyargs or a.vararg or a.kwarg or a.defaults or a.kw_defaults:
            self.reject(node, "lambda supports only plain positional parameters")
        line = node.lineno
        params = [arg.arg for arg in a.args]
        body = self.expr(node.body)

        def lambda_(rt, env):
            _tick(rt, line)
            return FunctionValue("<lambda>", params, body, env)

        return lambda_

    def compile_JoinedStr(self, node: ast.JoinedStr) -> Callable:
        """An f-string. Its constant fragments are formatting scaffolding,
        not values the code compares against, so they are not recorded as
        literals."""
        line = node.lineno
        # (None, text) for a literal part, (value closure, renderer) otherwise.
        parts = []
        for part in node.values:
            if isinstance(part, ast.Constant):
                parts.append((None, part.value))
                continue
            if part.conversion not in (-1, 114, 115):
                self.reject(part, "only {expr}, {expr!r} and {expr!s} are supported")
            if part.format_spec is not None:
                self.reject(part, "format specifiers are not supported")
            render = subject_repr if part.conversion == 114 else subject_str
            parts.append((self.expr(part.value), render))

        def joined_str(rt, env):
            _tick(rt, line)
            out = []
            for value_of, item in parts:
                out.append(item if value_of is None else item(value_of(rt, env)))
            return "".join(out)

        return joined_str

    def compile_comprehension(self, node: ast.ListComp | ast.GeneratorExp) -> Callable:
        line = node.lineno
        element = self.expr(node.elt)
        is_list = type(node) is ast.ListComp
        clauses = []
        for gen in node.generators:
            if gen.is_async:
                self.reject(node, "asynchronous comprehensions are not supported")
            bind = self.target(gen.target)
            iterable = self.expr(gen.iter)
            clauses.append((iterable, bind, [self.expr(c) for c in gen.ifs]))
        # One closure per ``for`` clause, built innermost first; each walks
        # its iterable, binds, filters, then runs the next clause or appends.
        inner = None
        for iterable, bind, conditions in reversed(clauses):
            inner = _clause(iterable, bind, conditions, inner, element)

        def comprehension(rt, env):
            _tick(rt, line)
            out: list = []
            inner(rt, _Env(env), out)
            return out if is_list else GeneratorValue(items=out)

        return comprehension

    # calls

    def compile_Call(self, node: ast.Call, with_path: bool = False) -> Callable:
        func = node.func
        if isinstance(func, ast.Name):
            return self._call_name(node, with_path)
        if isinstance(func, ast.Attribute):
            return self._call_attribute(node, with_path)
        line = node.lineno
        callee_value = self.expr_p(func)
        arguments = _arguments(*self.call_args(node))
        context = self.context

        def call_value(rt, env):
            _tick(rt, line)
            fv, fp = callee_value(rt, env)
            args, kwargs = arguments(rt, env)
            callee = fp if fp else "<expr>"
            value = rt._call_value(fv, args, kwargs, callee, context)
            return (value, f"{callee}()") if with_path else value

        return call_value

    def call_args(self, node: ast.Call) -> tuple[list[Callable], list[tuple[str, Callable]]]:
        """The compiled positional arguments and (name, compiled value)
        keywords of a call, ``raise C(...)`` included, after recording the
        call in the static facts."""
        func = node.func
        if self.try_calls:
            path = static_callee_path(func)
            if path is not None:
                # Capped as the external call that looks it up caps it.
                path = _cap_path(path)
                for calls in self.try_calls:
                    calls.append(path)
        if isinstance(func, ast.Name) and func.id == "isinstance" and len(node.args) == 2:
            self.facts.isinstance_classes.update(isinstance_class_names(node.args[1]))
        positional = []
        for a in node.args:
            if isinstance(a, ast.Starred):
                self.reject(a, "star arguments are not supported")
            positional.append(self.expr(a))
        keywords = []
        for kw in node.keywords:
            if kw.arg is None:
                self.reject(node, "keyword-splat arguments are not supported")
            keywords.append((kw.arg, self.expr(kw.value)))
        return positional, keywords

    def _call_name(self, node: ast.Call, with_path: bool) -> Callable:
        """``f(...)``: a bound function value if a scope binds ``f``; else a
        builtin or an external call."""
        line = node.lineno
        name = node.func.id
        bound_path = f"{name}()"
        positional, keywords = self.call_args(node)
        arguments = _arguments(positional, keywords)
        unbound, unbound_path = self._unbound_call(node, name, positional, arguments)
        context = self.context

        def call_name(rt, env):
            _tick(rt, line)
            fv = env[name]
            if fv is _UNBOUND:
                value = unbound(rt, env)
                return (value, unbound_path) if with_path else value
            args, kwargs = arguments(rt, env)
            value = rt._call_value(fv, args, kwargs, name, context)
            return (value, bound_path) if with_path else value

        return call_name

    def _unbound_call(
        self, node: ast.Call, name: str, positional: list[Callable], arguments: Callable
    ):
        """(closure, access path) of a call whose name no scope binds. A
        builtin call whose shape does not fit its ``_BUILTINS`` entry
        evaluates its arguments, then raises the ``TypeError``."""
        if name in _BUILTINS:
            message = _call_shape_error(
                name, len(node.args), [kw.arg for kw in node.keywords]
            )
            if name == "isinstance" and message is None:
                value_of = positional[0]
                names = isinstance_class_names(node.args[1])
                # A concrete value matches only a kind its exact name names.
                kinds = {bool, int, float, str, list, dict, set, frozenset, tuple, type(None)}
                kinds = {kind for kind in kinds if kind.__name__ in names}

                def isinstance_call(rt, env):
                    value = value_of(rt, env)
                    if isinstance(value, VersatileObject):
                        return value.assigned_type in names
                    return type(value) in kinds

                return isinstance_call, None
            handler = _BUILTINS[name][0]

            def builtin_call(rt, env):
                args, kwargs = arguments(rt, env)
                if message is not None:
                    rt._fault("TypeError", message)
                return handler(rt, args, kwargs)

            return builtin_call, f"{name}()"
        context = self.context

        def external_call(rt, env):
            args, kwargs = arguments(rt, env)
            return rt._external_call(name, args, kwargs, context)

        return external_call, f"{name}()"

    def _call_attribute(self, node: ast.Call, with_path: bool) -> Callable:
        """``base.name(...)``: an attribute read or stored before, a native
        method of a concrete receiver, or an external call."""
        line = node.lineno
        func = node.func
        base = self.expr_p(func.value)
        attr = func.attr
        suffix = f".{attr}"
        native = attr in NATIVE_METHODS
        arguments = _arguments(*self.call_args(node))
        context = self.context

        def call_attribute(rt, env):
            _tick(rt, line)
            base_v, base_p = base(rt, env)
            callee = _access_path(base_p, suffix)
            # The kind of call is settled before the arguments run.
            if isinstance(base_v, _ATTRIBUTED) and attr in base_v.attrs:
                args, kwargs = arguments(rt, env)
                value = rt._call_value(base_v.attrs[attr], args, kwargs, callee, context)
            elif native and hasattr(base_v, attr):
                args, kwargs = arguments(rt, env)
                value = rt._call_native(base_v, attr, args, kwargs)
            else:
                args, kwargs = arguments(rt, env)
                value = rt._external_call(callee, args, kwargs, context)
            return (value, f"{callee}()") if with_path else value

        return call_attribute


def _sequence(compiled: tuple) -> Callable:
    """One closure that runs the compiled statements in order."""
    if not compiled:
        return _nothing
    if len(compiled) == 1:
        return compiled[0]

    def block(rt, env):
        for stmt in compiled:
            stmt(rt, env)

    return block


def _raise_return(line: int, value: Callable) -> Callable:
    """The closure of a ``return`` that is not a def's tail: it charges its
    step, then raises ``_Return`` with the value, caught by the call."""

    def return_(rt, env):
        _tick(rt, line)
        raise _Return(value(rt, env))

    return return_


def _constant(line: int, value: Any) -> Callable:
    """The compiled form of a literal."""

    def constant(rt, env):
        _tick(rt, line)
        return value

    return constant


def _clause(
    iterable: Callable,
    bind: Callable,
    conditions: list[Callable],
    inner: Optional[Callable],
    element: Callable,
) -> Callable:
    """One compiled ``for`` clause of a comprehension."""

    def clause(rt, env, out):
        for item in rt._iterate(iterable(rt, env)):
            bind(rt, env, item)
            if all(c(rt, env) for c in conditions):
                if inner is None:
                    out.append(element(rt, env))
                else:
                    inner(rt, env, out)

    return clause


def _arguments(positional: list[Callable], keywords: list[tuple[str, Callable]]) -> Callable:
    """Closure evaluating a call's compiled arguments, positional then
    keyword, to (args list, kwargs dict)."""

    def arguments(rt, env):
        args = [p(rt, env) for p in positional]
        kwargs: dict[str, Any] = {}
        for name, value in keywords:
            kwargs[name] = value(rt, env)
        return args, kwargs

    return arguments


# The subject language's statements and expressions: a compiler for each
# node type it accepts, and no other.
_STATEMENTS: dict[type, Callable] = {
    ast.FunctionDef: _Compiler.compile_FunctionDef,
    ast.Return: _Compiler.compile_Return,
    ast.Assign: _Compiler.compile_Assign,
    ast.AugAssign: _Compiler.compile_AugAssign,
    ast.Expr: _Compiler.compile_Expr,
    ast.If: _Compiler.compile_If,
    ast.While: _Compiler.compile_While,
    ast.For: _Compiler.compile_For,
    ast.Break: _Compiler.compile_Break,
    ast.Continue: _Compiler.compile_Continue,
    ast.Pass: _Compiler.compile_Pass,
    ast.Raise: _Compiler.compile_Raise,
    ast.Assert: _Compiler.compile_Assert,
    ast.Try: _Compiler.compile_Try,
    ast.With: _Compiler.compile_With,
}

_EXPRESSIONS: dict[type, Callable] = {
    ast.Name: _Compiler.compile_Name,
    ast.Attribute: _Compiler.compile_Attribute,
    ast.Subscript: _Compiler.compile_Subscript,
    ast.Call: _Compiler.compile_Call,
    ast.Constant: _Compiler.compile_Constant,
    ast.List: _Compiler.compile_List,
    ast.Tuple: _Compiler.compile_Tuple,
    ast.Set: _Compiler.compile_Set,
    ast.Dict: _Compiler.compile_Dict,
    ast.BoolOp: _Compiler.compile_BoolOp,
    ast.BinOp: _Compiler.compile_BinOp,
    ast.UnaryOp: _Compiler.compile_UnaryOp,
    ast.Compare: _Compiler.compile_Compare,
    ast.IfExp: _Compiler.compile_IfExp,
    ast.Lambda: _Compiler.compile_Lambda,
    ast.JoinedStr: _Compiler.compile_JoinedStr,
    ast.ListComp: _Compiler.compile_comprehension,
    ast.GeneratorExp: _Compiler.compile_comprehension,
}

# The builtin functions of the subject language, the only definition of the
# set and of each call's shape: name -> (handler, fewest and most positional
# arguments, accepted keyword names or None for any keyword).
_MANY = float("inf")
_NO_KWARGS: frozenset[str] = frozenset()
_BUILTINS: dict[str, tuple[Callable, int, float, Optional[frozenset[str]]]] = {
    "print": (Interpreter._builtin_print, 0, _MANY, frozenset({"sep", "end"})),
    "len": (Interpreter._builtin_len, 1, 1, _NO_KWARGS),
    "isinstance": (Interpreter._builtin_isinstance, 2, 2, _NO_KWARGS),
    "super": (Interpreter._builtin_super, 0, 2, _NO_KWARGS),
    "any": (Interpreter._builtin_any, 1, 1, _NO_KWARGS),
    "all": (Interpreter._builtin_all, 1, 1, _NO_KWARGS),
    "range": (Interpreter._builtin_range, 1, 3, _NO_KWARGS),
    "str": (Interpreter._builtin_str, 0, 1, _NO_KWARGS),
    "int": (partial(Interpreter._builtin_number, host=int), 0, 2, frozenset({"base"})),
    "float": (partial(Interpreter._builtin_number, host=float), 0, 1, _NO_KWARGS),
    "bool": (Interpreter._builtin_bool, 0, 1, _NO_KWARGS),
    "repr": (Interpreter._builtin_repr, 1, 1, _NO_KWARGS),
    "list": (partial(Interpreter._builtin_collection, host=list), 0, 1, _NO_KWARGS),
    "dict": (Interpreter._builtin_dict, 0, 1, None),
    "set": (partial(Interpreter._builtin_collection, host=set), 0, 1, _NO_KWARGS),
    "frozenset": (partial(Interpreter._builtin_collection, host=frozenset), 0, 1, _NO_KWARGS),
    "tuple": (partial(Interpreter._builtin_collection, host=tuple), 0, 1, _NO_KWARGS),
    "enumerate": (Interpreter._builtin_enumerate, 1, 2, frozenset({"start"})),
    "sorted": (Interpreter._builtin_sorted, 1, 1, frozenset({"reverse"})),
    "min": (partial(Interpreter._builtin_min_max, host=min), 1, _MANY, _NO_KWARGS),
    "max": (partial(Interpreter._builtin_min_max, host=max), 1, _MANY, _NO_KWARGS),
    "abs": (Interpreter._builtin_abs, 1, 1, _NO_KWARGS),
}


def run_one(
    side: str,
    program: ComparisonProgram,
    entries: dict[str, tuple[Any, Any]],
    iteration_seed: int,
) -> Interpreter:
    """Execute one side of the pair for one iteration and return the run;
    ``entries`` holds the iteration's injected values, shared by its runs
    (``Interpreter._inject``)."""
    return Interpreter(side, program, entries, iteration_seed).run()
