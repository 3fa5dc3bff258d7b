"""Outside-in span tracer for pairguard's layers.

The tracer replaces, for the length of a traced pass, the module attributes
through which callers reach each layer's public functions (for example
``pairguard.driver.run_one``, the name the driver calls, rather than
``pairguard.engine.run_one``). Nothing in the program changes; a call that
does not go through one of these attributes is not seen and its time counts
toward the caller's self time.

Each call becomes a span (name, start, end, parent span, pair id). Spans
stay in memory and are written out after the pass. A span's self time is
its duration minus the time its child spans cover.
"""

from __future__ import annotations

import ast
import collections
import json
import time
import types
from pathlib import Path

# (span name, module, attribute) for every wrapped entry point. The module is
# the one whose attribute callers read.
TARGETS = (
    ("cli.main", "pairguard.cli", "main"),
    ("driver.analyze", "pairguard.driver", "analyze"),
    ("frontend.make_pair", "pairguard.driver", "make_pair"),
    ("frontend.extract_static_facts", "pairguard.driver", "extract_static_facts"),
    ("engine.run_one", "pairguard.driver", "run_one"),
    ("engine.snapshot_injected", "pairguard.driver", "snapshot_injected"),
    ("predictor.predict", "pairguard.predictor", "HeuristicPredictor.predict"),
    ("predictor.predict", "pairguard.predictor", "TablePredictor.predict"),
    ("predictor.load_table", "pairguard.cli", "load_table_predictor"),
    ("values.concretize", "pairguard.engine", "concretize"),
    ("values.deep_copy", "pairguard.engine", "deep_copy"),
    ("values.serialize", "pairguard.engine", "serialize"),
    ("comparator.compare", "pairguard.driver", "compare"),
)
# The engine calls ``ast.unparse`` through its module global ``ast``.
UNPARSE = "engine.unparse"

SPAN_NAMES = tuple(dict.fromkeys([name for name, _, _ in TARGETS] + [UNPARSE]))


class Tracer:
    """Spans and per-name call counts and self times of one traced pass."""

    def __init__(self):
        self.spans: list = []
        self.calls: collections.Counter = collections.Counter()
        self.self_s: collections.defaultdict = collections.defaultdict(float)
        self.iterations = 0
        self.abstained = 0
        self.pair_id = None
        self._stack: list = []  # [span index, time covered by children, name]
        self._restore: list = []
        self.missing: list[str] = []

    def wrap(self, name: str, fn):
        spans, stack, calls, self_s = self.spans, self._stack, self.calls, self.self_s
        clock = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            # A table predictor's heuristic fallback is part of the one
            # prediction the engine asked for, not a second one.
            if stack and stack[-1][2] == name:
                return fn(*args, **kwargs)
            index = len(spans)
            spans.append(None)
            frame = [index, 0.0, name]
            parent = stack[-1][0] if stack else -1
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                self_s[name] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
                calls[name] += 1
                spans[index] = (name, start, end, parent, tracer.pair_id)

        return traced

    def _patch(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self, modules: dict) -> None:
        """Wrap every target; a target that no longer exists is recorded."""
        for name, module_name, path in TARGETS:
            owner = modules[module_name]
            *owner_path, attr = path.split(".")
            try:
                for part in owner_path:
                    owner = getattr(owner, part)
                original = getattr(owner, attr)
            except AttributeError:
                self.missing.append(f"{module_name}.{path}")
                continue
            self._patch(owner, attr, self.wrap(name, original))
        engine = modules["pairguard.engine"]
        if isinstance(getattr(engine, "ast", None), types.ModuleType):
            proxy = types.ModuleType("ast")
            proxy.__dict__.update(ast.__dict__)
            proxy.unparse = self.wrap(UNPARSE, ast.unparse)
            self._patch(engine, "ast", proxy)
        else:
            self.missing.append("pairguard.engine.ast")
        self._wrap_verdicts(modules["pairguard.driver"])
        self._tag_pairs(modules["pairguard.cli"])

    def _wrap_verdicts(self, driver) -> None:
        # Wraps the traced ``driver.analyze`` to read each Verdict; opens no span.
        analyze = driver.analyze

        def counted(*args, **kwargs):
            verdict = analyze(*args, **kwargs)
            self.iterations += verdict.iterations_run
            self.abstained += verdict.abstained_iterations
            return verdict

        self._patch(driver, "analyze", counted)

    def _tag_pairs(self, cli) -> None:
        # With --jobs 1 the CLI analyzes each pair through ``_worker``; when
        # that name is gone, spans keep the id set around the ``cli.main`` call.
        worker = getattr(cli, "_worker", None)
        if worker is None:
            return

        def tagged(job):
            pair = job[0] if isinstance(job, tuple) and job else None
            if isinstance(pair, dict) and "id" in pair:
                self.pair_id = pair["id"]
            return worker(job)

        self._patch(cli, "_worker", tagged)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def write(self, path: Path) -> None:
        """Write the spans as JSON lines, times relative to the first span."""
        origin = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for index, span in enumerate(self.spans):
                if span is None:
                    continue
                name, start, end, parent, pair_id = span
                fh.write(
                    json.dumps(
                        {
                            "id": index,
                            "name": name,
                            "start_us": round((start - origin) * 1e6, 1),
                            "end_us": round((end - origin) * 1e6, 1),
                            "parent": parent,
                            "pair": pair_id,
                        }
                    )
                    + "\n"
                )
