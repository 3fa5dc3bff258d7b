"""Guided execution engine.

A tree-walking interpreter runs one side (old or new) of a merged function
pair. Reads of undefined variables, attribute reads, unresolvable calls, and
crashing subscripts are intercepted and answered with predicted, concretized
values. A consistency map shared between the two sides of one iteration
guarantees both executions observe the same injected inputs, while every
random decision is drawn from a stream keyed by the merged access path so
small control-flow differences cannot desynchronize the two runs.
"""

from __future__ import annotations

import ast
import builtins
import hashlib
import io
import operator as _op
import random
from dataclasses import dataclass
from functools import partial
from typing import Any, Callable, Optional

from .frontend import (
    BINOP_SYMBOLS,
    COMPARE_SYMBOLS,
    FunctionPair,
    Renamer,
    StaticFacts,
    is_generator,
    isinstance_class_names,
)
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
    VersatileCallable,
    VersatileIndexError,
    VersatileObject,
    concretize,
    deep_copy,
    serialize,
    sorted_iter,
    versatile_binop,
)

_PATH_CAP = 120
_CONTEXT_CAP = 160
_MAX_CALL_DEPTH = 200

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
    """Stable 64-bit seed from arbitrary repr-able parts.

    Uses a keyed hash rather than Python's salted ``hash`` so streams are
    identical across processes and runs.
    """
    digest = hashlib.blake2b(repr(parts).encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big")


_SCALING_OPS = frozenset({"*", "**"})
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


class SubjectError(Exception):
    """Exception-level control flow of the code under execution."""

    def __init__(self, value: ExceptionValue):
        super().__init__(value.type_name)
        self.value = value


class _EngineInterrupt(Exception):
    """Step budget exhausted; never catchable by subject-level handlers."""


class _StopMaterialize(Exception):
    """Generator materialization hit the item cap."""


class _Return(Exception):
    def __init__(self, value):
        super().__init__()
        self.value = value


class _Break(Exception):
    pass


class _Continue(Exception):
    pass


class ConsistencyMap:
    """Injected values shared by the two executions of one iteration.

    Keyed by merged access path; the first execution to touch a path creates
    the entry, a ``(v_old, v_new)`` pair of the sampled value and a deep
    copy, so both sides see equal but non-interfering inputs.
    """

    def __init__(self):
        self.entries: dict[str, tuple[Any, Any]] = {}

    def lookup_or_create(self, path: str, side: str, creator: Callable[[], Any]) -> Any:
        entry = self.entries.get(path)
        if entry is None:
            v_old = creator()
            v_new = deep_copy(v_old)
            if serialize(v_old) != serialize(v_new):
                raise RuntimeError(f"consistency violation at {path!r}")
            entry = (v_old, v_new)
            self.entries[path] = entry
        return entry[0] if side == "old" else entry[1]


def snapshot_injected(cmap: ConsistencyMap, side: str) -> dict[str, str]:
    """Serialized final value of every injected path, for one side."""
    index = 0 if side == "old" else 1
    return {path: serialize(entry[index]) for path, entry in cmap.entries.items()}


@dataclass(frozen=True)
class CallLogEntry:
    callee: str
    args: tuple[str, ...]
    kwargs: tuple[tuple[str, str], ...]
    occurrence: int

    def render(self) -> str:
        parts = list(self.args) + [f"{k}={v}" for k, v in self.kwargs]
        return f"{self.callee}({', '.join(parts)})"


@dataclass(frozen=True)
class ExceptionInfo:
    intentional: bool
    type_name: str
    args: tuple[str, ...]

    def render(self) -> str:
        return f"{self.type_name}({', '.join(self.args)})"


@dataclass
class ExecutionOutcome:
    side: str
    return_value: Optional[str]
    injected_state: dict[str, str]
    stdout: str
    call_log: list[CallLogEntry]
    exception: Optional[ExceptionInfo]
    covered_lines: frozenset[int]


class ComparisonProgram:
    """Everything derived from one pair that its paired runs share.

    Built once per analysis; every execution of either side reads the same
    static facts, concretizer pools and per-side renamers. The context
    string of a statement is unparsed, and the predictor asked about a
    query, the first time any run needs it.
    """

    def __init__(
        self, pair: FunctionPair, facts: StaticFacts, cfg: Any, predictor: Predictor
    ):
        self.pair = pair
        self.facts = facts
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
        self.renamers = {side: Renamer(pair.renames, side) for side in ("old", "new")}
        self._contexts: dict[ast.AST, str] = {}
        self._distributions: dict[tuple[str, str, str], Distribution] = {}

    def context(self, node: ast.AST) -> str:
        """Source text of a node, capped, as handed to the predictor."""
        text = self._contexts.get(node)
        if text is None:
            try:
                text = ast.unparse(node)[:_CONTEXT_CAP]
            except Exception:
                text = ""
            self._contexts[node] = text
        return text

    def distribution(self, kind: str, name: str, context: str) -> Distribution:
        """The predictor's answer to one query; both predictors are pure."""
        key = (kind, name, context)
        dist = self._distributions.get(key)
        if dist is None:
            dist = self.predictor.predict(InjectionQuery(kind, name, context))
            self._distributions[key] = dist
        return dist


class _Env:
    """Lexical environment chain. Reads walk outward, writes bind locally."""

    __slots__ = ("vars", "parent")

    def __init__(self, parent: Optional["_Env"] = None):
        self.vars: dict[str, Any] = {}
        self.parent = parent

    def lookup(self, name: str):
        env = self
        while env is not None:
            if name in env.vars:
                return True, env.vars[name]
            env = env.parent
        return False, None

    def assign(self, name: str, value: Any) -> None:
        self.vars[name] = value


class Interpreter:
    """Executes one side of a comparison program for one iteration."""

    def __init__(
        self,
        side: str,
        program: ComparisonProgram,
        cmap: ConsistencyMap,
        iteration_seed: int,
    ):
        self.side = side
        self.program = program
        self.renamer = program.renamers[side]
        self.cmap = cmap
        self.iteration_seed = iteration_seed
        self.stdout = io.StringIO()
        self.call_log: list[CallLogEntry] = []
        self.covered: set[int] = set()
        self.steps = 0
        self.call_depth = 0
        self.occurrences: dict[str, int] = {}
        self.active_exceptions: list[ExceptionValue] = []
        self.sinks: list[list] = []
        self.context = ""

    # plumbing

    def _stream(self, *key: Any) -> random.Random:
        return random.Random(derive_seed(self.iteration_seed, *key))

    def _step(self, node: ast.AST) -> None:
        self.steps += 1
        if self.steps > self.program.cfg.step_budget:
            raise _EngineInterrupt()
        line = getattr(node, "lineno", None)
        if line is not None:
            self.covered.add(line)

    def _host(self, fn: Callable, *args, **kwargs):
        """Run one host-level operation, translating faults into subject
        exceptions (unintended)."""
        try:
            return fn(*args, **kwargs)
        except VersatileIndexError:
            raise
        except _HOST_FAULTS as exc:
            raise SubjectError(
                ExceptionValue(type(exc).__name__, [str(exc)], intentional=False)
            ) from None

    def _fault(self, type_name: str, message: str):
        raise SubjectError(ExceptionValue(type_name, [message], intentional=False))

    def _cap_path(self, path: str) -> str:
        if len(path) <= _PATH_CAP:
            return path
        return path[: _PATH_CAP - 3] + "..."

    def _access_path(self, base_path: Optional[str], suffix: str) -> str:
        """Capped path of ``base.attr`` or ``base[key]``; ``<expr>`` stands
        for a base without a path."""
        return self._cap_path(f"{base_path or '<expr>'}{suffix}")

    def _set_context(self, node: ast.AST) -> None:
        self.context = self.program.context(node)

    def _inject(self, kind: str, raw_name: str, path: str) -> Any:
        """Injected value at ``path``, a key already capped by the caller."""
        context = self.context

        def creator():
            rng = self._stream("value", path)
            abstract = self.program.distribution(kind, raw_name, context).sample(rng)
            return concretize(abstract, self.program.ccfg, rng)

        return self.cmap.lookup_or_create(path, self.side, creator)

    def _next_occurrence(self, path: str) -> int:
        n = self.occurrences.get(path, 0) + 1
        self.occurrences[path] = n
        return n

    # entry points

    def run(self) -> ExecutionOutcome:
        pair = self.program.pair
        fn = pair.old if self.side == "old" else pair.new
        root = _Env()
        entry = FunctionValue(fn.name, list(fn.params), fn.body, root, fn.is_generator)
        root.assign(fn.name, entry)
        self.covered.add(fn.node.lineno)
        return_s: Optional[str] = None
        exception: Optional[ExceptionInfo] = None
        try:
            result = self._call_function(entry, [], {}, allow_missing=True)
            return_s = self._epilogue(result)
        except SubjectError as err:
            ev = err.value
            exception = ExceptionInfo(
                ev.intentional, ev.type_name, tuple(serialize(a) for a in ev.args)
            )
        except _EngineInterrupt:
            exception = ExceptionInfo(False, "StepBudgetExceeded", ())
        except RecursionError:
            exception = ExceptionInfo(False, "RecursionError", ())
        return ExecutionOutcome(
            side=self.side,
            return_value=None if exception is not None else return_s,
            injected_state={},
            stdout=self.stdout.getvalue(),
            call_log=list(self.call_log),
            exception=exception,
            covered_lines=frozenset(self.covered),
        )

    def _epilogue(self, result: Any) -> str:
        """Unwrap generator returns and probe returned functions once."""
        if isinstance(result, GeneratorValue):
            return serialize(list(result.take()))
        if isinstance(result, FunctionValue):
            inner = self._call_function(result, [], {}, allow_missing=True)
            if isinstance(inner, GeneratorValue):
                rendered = serialize(list(inner.take()))
            else:
                rendered = serialize(inner)
            return f"<function {result.name}() -> {rendered}>"
        return serialize(result)

    # function calls

    def _call_function(
        self,
        fv: FunctionValue,
        args: list,
        kwargs: dict[str, Any],
        allow_missing: bool = False,
    ) -> Any:
        self.call_depth += 1
        if self.call_depth > _MAX_CALL_DEPTH:
            self.call_depth -= 1
            self._fault("RecursionError", "maximum call depth exceeded")
        try:
            env = _Env(parent=fv.env)
            params = fv.params
            if len(args) > len(params):
                self._fault(
                    "TypeError",
                    f"{fv.name}() takes {len(params)} arguments but {len(args)} were given",
                )
            bound = set()
            for p, a in zip(params, args):
                env.assign(p, a)
                bound.add(p)
            for k, v in kwargs.items():
                if k not in params:
                    self._fault("TypeError", f"{fv.name}() got an unexpected keyword argument {k!r}")
                if k in bound:
                    self._fault("TypeError", f"{fv.name}() got multiple values for argument {k!r}")
                env.assign(k, v)
                bound.add(k)
            if not allow_missing:
                missing = [p for p in params if p not in bound]
                if missing:
                    self._fault(
                        "TypeError",
                        f"{fv.name}() missing required argument {missing[0]!r}",
                    )
            if fv.is_lambda:
                return self._eval(fv.body, env)
            if fv.is_generator:
                return GeneratorValue(materializer=lambda: self._materialize(fv, env))
            try:
                self._exec_block(fv.body, env)
            except _Return as r:
                return r.value
            return None
        finally:
            self.call_depth -= 1

    def _materialize(self, fv: FunctionValue, env: _Env) -> list:
        sink: list = []
        self.sinks.append(sink)
        try:
            try:
                self._exec_block(fv.body, env)
            except (_Return, _StopMaterialize):
                pass
        finally:
            self.sinks.pop()
        return sink

    # statements

    def _exec_block(self, stmts: list, env: _Env) -> None:
        for stmt in stmts:
            self._step(stmt)
            _EXEC[type(stmt)](self, stmt, env)

    def _exec_FunctionDef(self, node: ast.FunctionDef, env: _Env) -> None:
        fv = FunctionValue(
            node.name,
            [a.arg for a in node.args.args],
            node.body,
            env,
            is_generator=is_generator(node),
        )
        env.assign(node.name, fv)

    def _exec_Return(self, node: ast.Return, env: _Env) -> None:
        self._set_context(node)
        value = self._eval(node.value, env) if node.value is not None else None
        raise _Return(value)

    def _exec_Assign(self, node: ast.Assign, env: _Env) -> None:
        self._set_context(node)
        value = self._eval(node.value, env)
        self._bind_target(node.targets[0], value, env)

    def _exec_AugAssign(self, node: ast.AugAssign, env: _Env) -> None:
        self._set_context(node)
        op = BINOP_SYMBOLS[type(node.op)]
        target = node.target
        rhs = self._eval(node.value, env)
        if isinstance(target, ast.Name):
            current = self._read_name(target.id, env)
            env.assign(target.id, self._binop(op, current, rhs))
            return
        if isinstance(target, ast.Attribute):
            base_v, base_p = self._eval_p(target.value, env)
            merged = self.renamer.merge(target.attr)
            path = self._access_path(base_p, f".{merged}")
            current = self._read_attribute(base_v, target.attr, merged, path)
            self._store_attribute(base_v, target.attr, self._binop(op, current, rhs))
            return
        base_v, base_p = self._eval_p(target.value, env)
        key, rendered, host_index = self._eval_index(target, env)
        path = self._access_path(base_p, f"[{rendered}]")
        current = self._read_subscript(base_v, key, rendered, host_index, path)
        self._store_subscript(base_v, host_index, self._binop(op, current, rhs))

    def _exec_Expr(self, node: ast.Expr, env: _Env) -> None:
        self._set_context(node)
        if isinstance(node.value, ast.Yield):
            value = (
                self._eval(node.value.value, env)
                if node.value.value is not None
                else None
            )
            if not self.sinks:
                self._fault("RuntimeError", "yield outside a generator")
            sink = self.sinks[-1]
            sink.append(value)
            if len(sink) >= self.program.cfg.generator_cap:
                raise _StopMaterialize()
            return
        self._eval(node.value, env)

    def _exec_If(self, node: ast.If, env: _Env) -> None:
        self._set_context(node.test)
        if self._eval(node.test, env):
            self._exec_block(node.body, env)
        else:
            self._exec_block(node.orelse, env)

    def _exec_While(self, node: ast.While, env: _Env) -> None:
        while True:
            self._set_context(node.test)
            self._step(node)
            if not self._eval(node.test, env):
                break
            try:
                self._exec_block(node.body, env)
            except _Break:
                break
            except _Continue:
                continue

    def _exec_For(self, node: ast.For, env: _Env) -> None:
        self._set_context(node.iter)
        for item in self._iterate(self._eval(node.iter, env)):
            self._bind_target(node.target, item, env)
            try:
                self._exec_block(node.body, env)
            except _Break:
                break
            except _Continue:
                continue

    def _exec_Break(self, node: ast.Break, env: _Env) -> None:
        raise _Break()

    def _exec_Continue(self, node: ast.Continue, env: _Env) -> None:
        raise _Continue()

    def _exec_Pass(self, node: ast.Pass, env: _Env) -> None:
        pass

    def _exec_Raise(self, node: ast.Raise, env: _Env) -> None:
        self._set_context(node)
        if node.cause is not None:
            self._eval(node.cause, env)
        if node.exc is None:
            if self.active_exceptions:
                raise SubjectError(self.active_exceptions[-1])
            self._fault("RuntimeError", "no active exception to re-raise")
        if isinstance(node.exc, ast.Name):
            found, value = env.lookup(node.exc.id)
            if found:
                if isinstance(value, ExceptionValue):
                    raise SubjectError(value)
                self._fault("TypeError", "exceptions must be exception values")
            raise SubjectError(
                ExceptionValue(self.renamer.merge(node.exc.id), [], intentional=True)
            )
        # Call of a name, e.g. raise ValueError('boom')
        call = node.exc
        args = [self._eval(a, env) for a in call.args]
        args.extend(self._eval(kw.value, env) for kw in call.keywords)
        type_name = self.renamer.merge(call.func.id)
        raise SubjectError(ExceptionValue(type_name, args, intentional=True))

    def _exec_Assert(self, node: ast.Assert, env: _Env) -> None:
        self._set_context(node)
        if not self._eval(node.test, env):
            args = [self._eval(node.msg, env)] if node.msg is not None else []
            raise SubjectError(ExceptionValue("AssertionError", args, intentional=True))

    def _exec_Try(self, node: ast.Try, env: _Env) -> None:
        try:
            try:
                self._exec_block(node.body, env)
            except SubjectError as err:
                for handler in node.handlers:
                    if self._handler_matches(handler, err.value):
                        if handler.name:
                            env.assign(handler.name, err.value)
                        self.active_exceptions.append(err.value)
                        try:
                            self._exec_block(handler.body, env)
                        finally:
                            self.active_exceptions.pop()
                        break
                else:
                    raise
            else:
                self._exec_block(node.orelse, env)
        finally:
            self._exec_block(node.finalbody, env)

    def _handler_matches(self, handler: ast.ExceptHandler, ev: ExceptionValue) -> bool:
        if handler.type is None:
            return True
        elts = handler.type.elts if isinstance(handler.type, ast.Tuple) else [handler.type]
        catching = _CATCHING_NAMES.get(ev.type_name, ())
        for e in elts:
            name = self.renamer.merge(e.id)
            if name == ev.type_name or name in ("Exception", "BaseException") or name in catching:
                return True
        return False

    def _exec_With(self, node: ast.With, env: _Env) -> None:
        item = node.items[0]
        self._set_context(item.context_expr)
        value = self._eval(item.context_expr, env)
        if isinstance(value, VersatileObject):
            value = value.__enter__()
        if item.optional_vars is not None:
            env.assign(item.optional_vars.id, value)
        self._exec_block(node.body, env)

    # assignment targets

    def _bind_target(self, target: ast.expr, value: Any, env: _Env) -> None:
        if isinstance(target, ast.Name):
            env.assign(target.id, value)
            return
        if isinstance(target, ast.Tuple):
            items = list(self._iterate(value))
            if len(items) != len(target.elts):
                self._fault(
                    "ValueError",
                    f"cannot unpack {len(items)} values into {len(target.elts)} targets",
                )
            for t, v in zip(target.elts, items):
                self._bind_target(t, v, env)
            return
        if isinstance(target, ast.Attribute):
            base_v, _ = self._eval_p(target.value, env)
            self._store_attribute(base_v, target.attr, value)
            return
        if isinstance(target, ast.Subscript):
            base_v, _ = self._eval_p(target.value, env)
            _, _, host_index = self._eval_index(target, env)
            self._store_subscript(base_v, host_index, value)
            return
        raise RuntimeError(f"engine cannot bind {type(target).__name__}")

    def _store_attribute(self, base: Any, raw_attr: str, value: Any) -> None:
        merged = self.renamer.merge(raw_attr)
        if isinstance(base, VersatileObject):
            base.store(merged, value)
            return
        self._host(setattr, base, raw_attr, value)

    def _store_subscript(self, base: Any, host_index: Any, value: Any) -> None:
        def do_store():
            base[host_index] = value

        self._host(do_store)

    # reads with interception

    def _read_name(self, name: str, env: _Env) -> Any:
        found, value = env.lookup(name)
        if found:
            return value
        if name in _BUILTINS:
            return BuiltinFunction(name)
        path = self._cap_path(self.renamer.merge(name))
        value = self._inject("variable-read", name, path)
        env.assign(name, value)
        return value

    def _read_attribute(self, base: Any, raw_attr: str, merged: str, path: str) -> Any:
        if isinstance(base, VersatileObject):
            if merged in base.attrs:
                return base.attrs[merged]
            value = self._inject("attribute-read", raw_attr, path)
            base.attrs[merged] = value
            return value
        if raw_attr in NATIVE_METHODS and hasattr(base, raw_attr):
            return BoundMethod(base, raw_attr)
        return self._inject("attribute-read", raw_attr, path)

    def _eval_index(self, node: ast.Subscript, env: _Env):
        """Evaluate a subscript index once.

        Returns (key_value, rendered_text, host_index) where host_index is
        what the host subscript operation receives (a slice object for
        slices, the key itself otherwise).
        """
        s = node.slice
        if isinstance(s, ast.Slice):
            lo = self._eval(s.lower, env) if s.lower is not None else None
            hi = self._eval(s.upper, env) if s.upper is not None else None
            rendered = f"{serialize(lo) if lo is not None else ''}:{serialize(hi) if hi is not None else ''}"
            return None, rendered, slice(lo, hi)
        key = self._eval(s, env)
        rendered = serialize(key)
        return key, rendered, key

    def _read_subscript(
        self,
        base: Any,
        key: Any,
        rendered: str,
        host_index: Any,
        path: str,
    ) -> Any:
        if isinstance(base, VersatileObject):
            bracket = f"[{rendered}]"
            if bracket in base.attrs:
                return base.attrs[bracket]
        try:
            return base[host_index]
        except (TypeError, KeyError, IndexError, VersatileIndexError):
            query_name = key if isinstance(key, str) else rendered
            value = self._inject("subscript-result", query_name, path)
            if isinstance(base, VersatileObject):
                base.attrs[f"[{rendered}]"] = value
            return value

    # expressions; each handler returns (value, access path or None)

    def _eval(self, node: ast.expr, env: _Env) -> Any:
        self._step(node)
        return _EVAL[type(node)](self, node, env)[0]

    def _eval_p(self, node: ast.expr, env: _Env) -> tuple[Any, Optional[str]]:
        """Evaluate an expression, tracking its access path when it has one."""
        self._step(node)
        return _EVAL[type(node)](self, node, env)

    def _eval_Name(self, node: ast.Name, env: _Env):
        return self._read_name(node.id, env), self.renamer.merge(node.id)

    def _eval_Attribute(self, node: ast.Attribute, env: _Env):
        base_v, base_p = self._eval_p(node.value, env)
        merged = self.renamer.merge(node.attr)
        path = self._access_path(base_p, f".{merged}")
        return self._read_attribute(base_v, node.attr, merged, path), path

    def _eval_Subscript(self, node: ast.Subscript, env: _Env):
        base_v, base_p = self._eval_p(node.value, env)
        key, rendered, host_index = self._eval_index(node, env)
        path = self._access_path(base_p, f"[{rendered}]")
        return self._read_subscript(base_v, key, rendered, host_index, path), path

    def _eval_Constant(self, node: ast.Constant, env: _Env):
        return node.value, None

    def _eval_List(self, node: ast.List, env: _Env):
        return [self._eval(e, env) for e in node.elts], None

    def _eval_Tuple(self, node: ast.Tuple, env: _Env):
        return tuple(self._eval(e, env) for e in node.elts), None

    def _eval_Set(self, node: ast.Set, env: _Env):
        return self._host(set, [self._eval(e, env) for e in node.elts]), None

    def _eval_Dict(self, node: ast.Dict, env: _Env):
        out: dict = {}
        for k, v in zip(node.keys, node.values):
            key = self._eval(k, env)
            value = self._eval(v, env)
            self._host(out.__setitem__, key, value)
        return out, None

    def _eval_BoolOp(self, node: ast.BoolOp, env: _Env):
        is_or = isinstance(node.op, ast.Or)
        for sub in node.values[:-1]:
            value = self._eval(sub, env)
            truthy = bool(value)
            if (is_or and truthy) or (not is_or and not truthy):
                return value, None
        return self._eval(node.values[-1], env), None

    def _eval_BinOp(self, node: ast.BinOp, env: _Env):
        left = self._eval(node.left, env)
        right = self._eval(node.right, env)
        return self._binop(BINOP_SYMBOLS[type(node.op)], left, right), None

    def _binop(self, op: str, left: Any, right: Any) -> Any:
        # Host dispatch alone is not enough: str.__mod__ raises instead of
        # returning NotImplemented, so "s" % versatile would never reach the
        # reflected method. Route versatile operands through the total op.
        if isinstance(left, VersatileObject) or isinstance(right, VersatileObject):
            return versatile_binop(op, left, right)
        # Only a joined sequence or a scaling op can build a large result;
        # the cheap test first keeps int ``+`` off the sizing call.
        if (type(left) in _SEQUENCES) if op == "+" else (op in _SCALING_OPS):
            self.steps += _result_size(op, left, right)
            if self.steps > self.program.cfg.step_budget:
                raise _EngineInterrupt()
        return self._host(ARITH_OPS[op], left, right)

    def _eval_UnaryOp(self, node: ast.UnaryOp, env: _Env):
        value = self._eval(node.operand, env)
        if isinstance(node.op, ast.Not):
            return not value, None
        return self._host(_op.neg, value), None

    def _eval_Compare(self, node: ast.Compare, env: _Env):
        left = self._eval(node.left, env)
        for op, comparator in zip(node.ops, node.comparators):
            right = self._eval(comparator, env)
            if not self._compare_once(op, left, right):
                return False, None
            left = right
        return True, None

    def _compare_once(self, op: ast.cmpop, left: Any, right: Any) -> bool:
        symbol = COMPARE_SYMBOLS[type(op)]
        # Identity and membership run on the host even next to a versatile.
        if symbol not in ("is", "is not", "in", "not in") and (
            isinstance(left, VersatileObject) or isinstance(right, VersatileObject)
        ):
            return bool(versatile_binop(symbol, left, right))
        return bool(self._host(COMPARE_OPS[symbol], left, right))

    def _eval_IfExp(self, node: ast.IfExp, env: _Env):
        if self._eval(node.test, env):
            return self._eval(node.body, env), None
        return self._eval(node.orelse, env), None

    def _eval_Lambda(self, node: ast.Lambda, env: _Env):
        params = [a.arg for a in node.args.args]
        return FunctionValue("<lambda>", params, node.body, env, is_lambda=True), None

    def _eval_JoinedStr(self, node: ast.JoinedStr, env: _Env):
        parts = []
        for part in node.values:
            if isinstance(part, ast.Constant):
                parts.append(part.value)
            else:
                value = self._eval(part.value, env)
                if part.conversion == 114:
                    parts.append(serialize(value))
                else:
                    parts.append(self._subject_str(value))
        return "".join(parts), None

    def _eval_comprehension(self, node: ast.ListComp | ast.GeneratorExp, env: _Env):
        out: list = []
        self._run_comprehension(node.generators, 0, _Env(parent=env), node.elt, out)
        return (out if type(node) is ast.ListComp else GeneratorValue(items=out)), None

    def _run_comprehension(self, gens, idx, env, elt, out) -> None:
        if idx == len(gens):
            out.append(self._eval(elt, env))
            return
        gen = gens[idx]
        for item in self._iterate(self._eval(gen.iter, env)):
            self._bind_target(gen.target, item, env)
            if all(self._eval(cond, env) for cond in gen.ifs):
                self._run_comprehension(gens, idx + 1, env, elt, out)

    # calls

    def _eval_Call(self, node: ast.Call, env: _Env):
        func = node.func
        if isinstance(func, ast.Name):
            found, fv = env.lookup(func.id)
            if not found:
                if func.id == "isinstance":
                    return self._isinstance_call(node, env), None
                if func.id == "super":
                    self._check_call("super", len(node.args), [kw.arg for kw in node.keywords])
                    for a in node.args:
                        self._eval(a, env)
                    return self._super_value(), "super()"
                if func.id in _BUILTINS:
                    args, kwargs = self._eval_args(node, env)
                    path = f"{func.id}()"
                    return self._call_builtin(func.id, args, kwargs), path
                merged = self.renamer.merge(func.id)
                args, kwargs = self._eval_args(node, env)
                return self._external_call(merged, args, kwargs), f"{merged}()"
            args, kwargs = self._eval_args(node, env)
            path = self.renamer.merge(func.id)
            return self._call_value(fv, args, kwargs, path), f"{path}()"
        if isinstance(func, ast.Attribute):
            base_v, base_p = self._eval_p(func.value, env)
            merged_attr = self.renamer.merge(func.attr)
            callee = self._access_path(base_p, f".{merged_attr}")
            if isinstance(base_v, VersatileObject) and merged_attr in base_v.attrs:
                args, kwargs = self._eval_args(node, env)
                return (
                    self._call_value(base_v.attrs[merged_attr], args, kwargs, callee),
                    f"{callee}()",
                )
            if (
                not isinstance(base_v, VersatileObject)
                and func.attr in NATIVE_METHODS
                and hasattr(base_v, func.attr)
            ):
                args, kwargs = self._eval_args(node, env)
                return self._call_native(base_v, func.attr, args, kwargs), f"{callee}()"
            args, kwargs = self._eval_args(node, env)
            return self._external_call(callee, args, kwargs), f"{callee}()"
        fv, fp = self._eval_p(func, env)
        args, kwargs = self._eval_args(node, env)
        callee = fp if fp else "<expr>"
        return self._call_value(fv, args, kwargs, callee), f"{callee}()"

    def _eval_args(self, node: ast.Call, env: _Env):
        args = [self._eval(a, env) for a in node.args]
        kwargs: dict[str, Any] = {}
        for kw in node.keywords:
            kwargs[kw.arg] = self._eval(kw.value, env)
        return args, kwargs

    def _call_value(self, value: Any, args: list, kwargs: dict, path: str) -> Any:
        if isinstance(value, FunctionValue):
            return self._call_function(value, args, kwargs)
        if isinstance(value, BoundMethod):
            return self._call_native(value.receiver, value.name, args, kwargs)
        if isinstance(value, BuiltinFunction):
            return self._call_builtin(value.name, args, kwargs)
        if isinstance(value, VersatileCallable):
            return self._external_call(path, args, kwargs, constructor=value)
        if isinstance(value, VersatileObject):
            return self._external_call(path, args, kwargs)
        self._fault("TypeError", f"{serialize(value)} is not callable")

    def _call_native(self, receiver: Any, name: str, args: list, kwargs: dict) -> Any:
        method = getattr(receiver, name)
        result = self._host(method, *args, **kwargs)
        if isinstance(result, _VIEW_TYPES):
            return list(result)
        return result

    def _external_call(
        self,
        path: str,
        args: list,
        kwargs: dict,
        constructor: Optional[VersatileCallable] = None,
    ) -> Any:
        path = self._cap_path(path)
        occurrence = self._next_occurrence(path)
        entry = CallLogEntry(
            callee=path,
            args=tuple(serialize(a) for a in args),
            kwargs=tuple(sorted((k, serialize(v)) for k, v in kwargs.items())),
            occurrence=occurrence,
        )
        self.call_log.append(entry)
        exc_types = self.program.facts.call_exception_map.get(path)
        if exc_types:
            rng = self._stream("exc", path, occurrence)
            if rng.random() < self.program.cfg.exception_probability:
                ordered = sorted(exc_types)
                type_name = ordered[rng.randrange(len(ordered))]
                raise SubjectError(ExceptionValue(type_name, [], intentional=True))
        if constructor is not None:
            constructor.call_count += 1
            seed = derive_seed(constructor.seed, "call", constructor.call_count)
            return VersatileObject(seed, constructor.assigned_type)
        key = f"{path}()#{occurrence}"
        return self._inject("call-return", path, key)

    def _super_value(self) -> VersatileObject:
        occurrence = self._next_occurrence("super()")
        key = f"super()#{occurrence}"

        def creator():
            rng = self._stream("value", key)
            return VersatileObject(rng.getrandbits(64), None)

        return self.cmap.lookup_or_create(key, self.side, creator)

    def _isinstance_call(self, node: ast.Call, env: _Env) -> bool:
        self._check_call("isinstance", len(node.args), [kw.arg for kw in node.keywords])
        value = self._eval(node.args[0], env)
        names = isinstance_class_names(node.args[1], self.renamer)
        return self._isinstance_value(value, names)

    _KIND_NAMES = {
        bool: "bool",
        int: "int",
        float: "float",
        str: "str",
        list: "list",
        dict: "dict",
        set: "set",
        tuple: "tuple",
        type(None): "NoneType",
    }

    def _isinstance_value(self, value: Any, names: list[str]) -> bool:
        if isinstance(value, VersatileObject):
            return value.assigned_type is not None and value.assigned_type in names
        kind = self._KIND_NAMES.get(type(value))
        return kind is not None and kind in names

    # builtins

    def _call_builtin(self, name: str, args: list, kwargs: dict) -> Any:
        return self._check_call(name, len(args), kwargs)(self, args, kwargs)

    def _check_call(self, name: str, count: int, keywords) -> Callable:
        """Check a builtin call's positional count and keyword names against
        its ``_BUILTINS`` entry; returns the handler."""
        handler, fewest, most, accepted = _BUILTINS[name]
        if not fewest <= count <= most:
            if fewest == most:
                expected = f"exactly {fewest}"
            elif most == _MANY:
                expected = f"at least {fewest}"
            else:
                expected = f"{fewest} to {most}"
            self._fault(
                "TypeError",
                f"{name}() takes {expected} positional arguments but {count} were given",
            )
        if accepted is not None:
            for k in keywords:
                if k not in accepted:
                    self._fault(
                        "TypeError", f"{name}() got an unexpected keyword argument {k!r}"
                    )
        return handler

    def _builtin_isinstance(self, args: list, kwargs: dict) -> bool:
        # Called indirectly, isinstance has lost its syntactic class
        # argument; resolve to False rather than guessing.
        return False

    def _builtin_super(self, args: list, kwargs: dict) -> VersatileObject:
        return self._super_value()

    def _builtin_print(self, args: list, kwargs: dict) -> None:
        sep = kwargs.get("sep", " ")
        end = kwargs.get("end", "\n")
        if not isinstance(sep, str) or not isinstance(end, str):
            self._fault("TypeError", "sep and end must be strings")
        self.stdout.write(sep.join(self._subject_str(a) for a in args) + end)

    def _builtin_len(self, args: list, kwargs: dict) -> int:
        return self._host(len, args[0])

    def _builtin_range(self, args: list, kwargs: dict) -> range:
        coerced = [
            VersatileObject.INTERNAL_INT if isinstance(a, VersatileObject) else a
            for a in args
        ]
        return self._host(range, *coerced)

    def _builtin_str(self, args: list, kwargs: dict) -> str:
        return self._subject_str(args[0]) if args else ""

    def _builtin_repr(self, args: list, kwargs: dict) -> str:
        return serialize(args[0])

    def _builtin_number(self, args: list, kwargs: dict, host: Callable) -> Any:
        """int and float; a versatile argument converts as its internal int."""
        if args and isinstance(args[0], VersatileObject):
            return host(VersatileObject.INTERNAL_INT)
        return self._host(host, *args)

    def _builtin_bool(self, args: list, kwargs: dict) -> bool:
        return bool(*args)

    def _builtin_abs(self, args: list, kwargs: dict) -> Any:
        v = args[0]
        if isinstance(v, VersatileObject):
            return abs(VersatileObject.INTERNAL_INT)
        return self._host(abs, v)

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
        start = args[1] if len(args) == 2 else 0
        if isinstance(start, VersatileObject):
            start = VersatileObject.INTERNAL_INT
        if not isinstance(start, int):
            self._fault("TypeError", "enumerate() start must be an integer")
        return [(start + i, v) for i, v in enumerate(self._iterate(args[0]))]

    def _builtin_collection(self, args: list, kwargs: dict, host: Callable) -> Any:
        """list, tuple and set: the items of the argument, or empty."""
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
        for k, v in kwargs.items():
            out[k] = v
        return out

    # helpers

    def _subject_str(self, value: Any) -> str:
        if isinstance(value, str):
            return value
        return serialize(value)

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
            items = value.take()
        elif isinstance(value, (set, frozenset)):
            items = sorted_iter(value)
        else:
            self._fault("TypeError", f"{serialize(value)} is not iterable")
        budget = self.program.cfg.step_budget
        for item in items:
            self.steps += 1
            if self.steps > budget:
                raise _EngineInterrupt()
            yield item


# Handlers by node type; the subset validator accepts exactly these types.
_EXEC: dict[type, Callable] = {
    ast.FunctionDef: Interpreter._exec_FunctionDef,
    ast.Return: Interpreter._exec_Return,
    ast.Assign: Interpreter._exec_Assign,
    ast.AugAssign: Interpreter._exec_AugAssign,
    ast.Expr: Interpreter._exec_Expr,
    ast.If: Interpreter._exec_If,
    ast.While: Interpreter._exec_While,
    ast.For: Interpreter._exec_For,
    ast.Break: Interpreter._exec_Break,
    ast.Continue: Interpreter._exec_Continue,
    ast.Pass: Interpreter._exec_Pass,
    ast.Raise: Interpreter._exec_Raise,
    ast.Assert: Interpreter._exec_Assert,
    ast.Try: Interpreter._exec_Try,
    ast.With: Interpreter._exec_With,
}

_EVAL: dict[type, Callable] = {
    ast.Name: Interpreter._eval_Name,
    ast.Attribute: Interpreter._eval_Attribute,
    ast.Subscript: Interpreter._eval_Subscript,
    ast.Call: Interpreter._eval_Call,
    ast.Constant: Interpreter._eval_Constant,
    ast.List: Interpreter._eval_List,
    ast.Tuple: Interpreter._eval_Tuple,
    ast.Set: Interpreter._eval_Set,
    ast.Dict: Interpreter._eval_Dict,
    ast.BoolOp: Interpreter._eval_BoolOp,
    ast.BinOp: Interpreter._eval_BinOp,
    ast.UnaryOp: Interpreter._eval_UnaryOp,
    ast.Compare: Interpreter._eval_Compare,
    ast.IfExp: Interpreter._eval_IfExp,
    ast.Lambda: Interpreter._eval_Lambda,
    ast.JoinedStr: Interpreter._eval_JoinedStr,
    ast.ListComp: Interpreter._eval_comprehension,
    ast.GeneratorExp: Interpreter._eval_comprehension,
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
    "int": (partial(Interpreter._builtin_number, host=int), 0, 1, _NO_KWARGS),
    "float": (partial(Interpreter._builtin_number, host=float), 0, 1, _NO_KWARGS),
    "bool": (Interpreter._builtin_bool, 0, 1, _NO_KWARGS),
    "repr": (Interpreter._builtin_repr, 1, 1, _NO_KWARGS),
    "list": (partial(Interpreter._builtin_collection, host=list), 0, 1, _NO_KWARGS),
    "dict": (Interpreter._builtin_dict, 0, 1, None),
    "set": (partial(Interpreter._builtin_collection, host=set), 0, 1, _NO_KWARGS),
    "tuple": (partial(Interpreter._builtin_collection, host=tuple), 0, 1, _NO_KWARGS),
    "enumerate": (Interpreter._builtin_enumerate, 1, 2, _NO_KWARGS),
    "sorted": (Interpreter._builtin_sorted, 1, 1, frozenset({"reverse"})),
    "min": (partial(Interpreter._builtin_min_max, host=min), 1, _MANY, _NO_KWARGS),
    "max": (partial(Interpreter._builtin_min_max, host=max), 1, _MANY, _NO_KWARGS),
    "abs": (Interpreter._builtin_abs, 1, 1, _NO_KWARGS),
}


def run_one(
    side: str, program: ComparisonProgram, cmap: ConsistencyMap, iteration_seed: int
) -> ExecutionOutcome:
    """Execute one side of the pair for one iteration."""
    return Interpreter(side, program, cmap, iteration_seed).run()
