"""Benchmark inputs: the fixture corpus and two seeded pair generators.

Each workload is a list of ``Case`` objects. A case is one pair file plus
the verdict it is known to deserve and the ``cli.main`` arguments that
analyze it. The program under test only ever sees the pair files (and, for
``batch``, one predictor table); the labels stay in the benchmark.

Generated labels are checked against CPython before they are used: both
sides of every generated pair are executed natively, and a pair labelled
preserving must agree there (return value, printed output, exception type,
mutated arguments) while a pair labelled changing must not.
"""

from __future__ import annotations

import contextlib
import importlib.util
import io
import json
import random
import textwrap
from dataclasses import dataclass, field
from pathlib import Path

PRESERVING = "likely-semantics-preserving"
CHANGING = "semantics-changing"


@dataclass
class Case:
    pair_id: str
    path: Path
    expected: str
    predictor: str = "heuristic"


@dataclass
class Workload:
    cases: list[Case]
    # Directory handed to a single ``cli.main`` call (batch, pool speed-up).
    pair_dir: Path
    dir_predictor: str = "heuristic"
    tables: list[Path] = field(default_factory=list)
    one_call: bool = False  # batch: the whole directory in one call
    jobs: int = 1


# ---------------------------------------------------------------- corpus


def corpus(root: Path) -> Workload:
    """The 41 fixture pairs with the verdicts ``tests/_corpus.py`` designs."""
    spec = importlib.util.spec_from_file_location(
        "_pairguard_corpus", root / "tests" / "_corpus.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    cases = []
    for pair_id in module.all_ids():
        table = module.TABLE_FOR.get(pair_id)
        predictor = "heuristic"
        if table is not None:
            predictor = f"table:{module.TABLE_DIR / f'{table}.json'}"
        cases.append(
            Case(
                pair_id,
                module.PAIR_DIR / f"{pair_id}.json",
                module.expected_verdict(pair_id),
                predictor,
            )
        )
    tables = sorted({Path(c.predictor[len("table:"):]) for c in cases if c.predictor != "heuristic"})
    return Workload(cases, Path(module.PAIR_DIR), tables=tables)


# ---------------------------------------------------------------- oracle


def _native_outcome(source: str, name: str, args: tuple) -> tuple:
    """Run a generated function under CPython: (return, stdout, exc, args)."""
    namespace: dict = {}
    exec(compile(source, "<generated>", "exec"), namespace)
    out = io.StringIO()
    args = tuple(list(a) if isinstance(a, list) else a for a in args)
    result = exc = None
    with contextlib.redirect_stdout(out):
        try:
            result = namespace[name](*args)
        except Exception as error:  # the subject's own exception is an outcome
            exc = type(error).__name__
    return repr(result), out.getvalue(), exc, repr(args)


def _check_label(pair: dict, expected: str, args: tuple = ()) -> None:
    same = _native_outcome(pair["old"], pair["entry"], args) == _native_outcome(
        pair["new"], pair["entry"], args
    )
    if same != (expected == PRESERVING):
        raise AssertionError(f"generator produced a mislabelled pair: {pair['id']}")


def _write_pairs(directory: Path, pairs: list[tuple[dict, str]], predictor: str) -> list[Case]:
    directory.mkdir(parents=True, exist_ok=True)
    cases = []
    for pair, expected in pairs:
        path = directory / f"{pair['id']}.json"
        path.write_text(json.dumps(pair, indent=1), encoding="utf-8")
        cases.append(Case(pair["id"], path, expected, predictor))
    return cases


def _pair(pair_id: str, name: str, old: str, new: str) -> dict:
    return {
        "id": pair_id,
        "entry": name,
        "old": textwrap.dedent(old).strip() + "\n",
        "new": textwrap.dedent(new).strip() + "\n",
    }


# ---------------------------------------------------------------- loops
#
# Each family returns (old, preserving rewrite, changing edit) for a trip
# count n and a seeded rng. Every local is bound from a literal, so the
# interpreter injects nothing and the time goes to interpretation itself.
# The changing edit sits on a line that runs in the first trip.


def _branch_sum(n, rng):
    k, j = rng.randint(2, 9), rng.randint(1, 5)
    old = f"""
    def branch_sum():
        total = 0
        for i in range({n}):
            if i % 3 == 0:
                total += i * {k}
            elif i % 3 == 1:
                total -= {j}
            else:
                total += 1
        return total
    """
    body = """
    def branch_sum():
        total = 0
        i = 0
        while i < {n}:
            r = i % 3
            if r == 0:
                total = total + {k} * i{edit}
            elif r == 1:
                total = total - {j}
            else:
                total = total + 1
            i += 1
        return total
    """
    return old, body.format(n=n, k=k, j=j, edit=""), body.format(n=n, k=k, j=j, edit=" + 1")


def _filter_comp(n, rng):
    k, m = rng.randint(2, 9), rng.randint(2, 4)
    old = f"""
    def filter_comp():
        out = [i * {k} for i in range({n}) if i % {m} != 0]
        top = max([0] + out)
        return out, top
    """
    body = """
    def filter_comp():
        out = []
        top = 0
        for i in range({n}):
            if i % {m} != 0:
                out.append(i * {k}{edit})
        for v in out:
            if v > top:
                top = v
        return out, top
    """
    return old, body.format(n=n, k=k, m=m, edit=""), body.format(n=n, k=k, m=m, edit=" + 1")


def _join_words(n, rng):
    k = rng.randint(2, 9)
    sep = rng.choice(["-", ",", "/", ":"])
    old = f"""
    def join_words():
        parts = []
        for i in range({n}):
            parts.append(str(i * {k}))
        return "{sep}".join(parts)
    """
    body = """
    def join_words():
        text = ""
        for i in range({n}):
            if i > 0:
                text += "{sep}"
            text += str(i * {k}{edit})
        return text
    """
    return (
        old,
        body.format(n=n, k=k, sep=sep, edit=""),
        body.format(n=n, k=k, sep=sep, edit=" + 1"),
    )


def _nested_calls(n, rng):
    k, j = rng.randint(2, 9), rng.randint(1, 9)
    old = f"""
    def nested_calls():
        def step(x):
            return x * {k} + {j}
        acc = 0
        for i in range({n}):
            acc = acc + step(i)
        return acc
    """
    body = """
    def nested_calls():
        def step(x):
            return x * {k}
        acc = 0
        for i in range({n}):
            acc = acc + step(i) + {j}{edit}
        return acc
    """
    return old, body.format(n=n, k=k, j=j, edit=""), body.format(n=n, k=k, j=j, edit=" + 1")


def _try_loop(n, rng):
    m = rng.randint(2, 5)
    old = f"""
    def try_loop():
        hits = 0
        misses = 0
        for i in range({n}):
            try:
                if i % {m} == 0:
                    raise ValueError("skip")
                hits += i
            except ValueError:
                misses += 1
        return hits, misses
    """
    body = """
    def try_loop():
        hits = 0
        misses = 0
        for i in range({n}):
            if i % {m} == 0:
                misses += {step}
            else:
                hits += i
        return hits, misses
    """
    return old, body.format(n=n, m=m, step=1), body.format(n=n, m=m, step=2)


def _dict_count(n, rng):
    m = rng.randint(2, 6)
    old = f"""
    def dict_count():
        counts = {{}}
        for i in range({n}):
            key = i % {m}
            counts[key] = counts.get(key, 0) + 1
        return counts
    """
    body = """
    def dict_count():
        counts = {{}}
        for i in range({n}):
            key = i % {m}
            if key in counts:
                counts[key] += 1
            else:
                counts[key] = {first}
        return counts
    """
    return old, body.format(n=n, m=m, first=1), body.format(n=n, m=m, first=2)


def _while_break(n, rng):
    limit = n * n - rng.randint(1, max(1, n))
    old = f"""
    def while_break():
        i = 0
        while True:
            if i * i > {limit}:
                break
            i += 1
        return i
    """
    body = """
    def while_break():
        found = 0
        for i in range({limit} + 2):
            if i * i > {limit}:
                found = i{edit}
                break
        return found
    """
    return (
        old,
        body.format(limit=limit, edit=""),
        body.format(limit=limit, edit=" + 1"),
    )


def _nested_loops(n, rng):
    cols = rng.randint(2, 4)
    rows = max(1, n // cols)
    old = f"""
    def nested_loops():
        total = 0
        for a in range({rows}):
            for b in range({cols}):
                if (a + b) % 2 == 0:
                    continue
                total += a * b + 1
        return total
    """
    body = """
    def nested_loops():
        total = 0
        for a in range({rows}):
            for b in range({cols}):
                if (a + b) % 2 == 1:
                    total += a * b + {one}
        return total
    """
    return (
        old,
        body.format(rows=rows, cols=cols, one=1),
        body.format(rows=rows, cols=cols, one=2),
    )


LOOP_FAMILIES = (
    _branch_sum,
    _filter_comp,
    _join_words,
    _nested_calls,
    _try_loop,
    _dict_count,
    _while_break,
    _nested_loops,
)
# Trip-count levels: every family is generated once per level, with the
# seed moving each trip count by up to two, so the work of a pass is nearly
# the same on every seed while the programs differ.
LOOP_TRIPS = (8, 16, 28)
LOOP_CHANGING = 4


def loops(directory: Path, seed: int) -> Workload:
    rng = random.Random(f"loops:{seed}")
    labelled = []
    for level in LOOP_TRIPS:
        for family in LOOP_FAMILIES:
            n = level + rng.randint(-2, 2)
            old, new, _ = family(n, rng)
            name = family.__name__.lstrip("_")
            labelled.append((_pair(f"{name}_n{n}", name, old, new), PRESERVING))
    for index in range(LOOP_CHANGING):
        family = rng.choice(LOOP_FAMILIES)
        n = rng.choice(LOOP_TRIPS) + rng.randint(-2, 2)
        old, _, changed = family(n, rng)
        name = family.__name__.lstrip("_")
        labelled.append((_pair(f"{name}_n{n}_edit{index}", name, old, changed), CHANGING))
    ids = [p["id"] for p, _ in labelled]
    if len(set(ids)) != len(ids):
        # Two draws of one family at one trip count: keep ids unique.
        for i, (pair, _) in enumerate(labelled):
            pair["id"] = f"{i:02d}_{pair['id']}"
    for pair, expected in labelled:
        _check_label(pair, expected)
    return Workload(_write_pairs(directory, labelled, "heuristic"), directory)


# ---------------------------------------------------------------- batch
#
# Thousands of small pairs, each with a behaviour change on a line that runs
# in the first iteration, so every verdict costs one paired iteration and
# per-pair work (parse, validate, diff, static facts, table reload, pool
# transfer) dominates. Parameters are pinned to one kind by the table.

BATCH_PAIRS = 2000
_INT_PARAMS = tuple(f"num{k}" for k in range(8))
_STR_PARAMS = tuple(f"text{k}" for k in range(8))
_LIST_PARAMS = tuple(f"rows{k}" for k in range(8))
_TABLE_FILLER = 16  # attribute-read entries no pair reads, as a real table has
_SAMPLE_ARGS = {"num": 3, "text": "t", "rows": []}


def _padding(rng, count: int) -> list[str]:
    lines = ["v0 = 1"]
    for j in range(1, count + 1):
        a, b = rng.randint(1, 9), rng.randint(1, 9)
        shape = rng.randrange(4)
        if shape == 0:
            lines.append(f"v{j} = v{j - 1} * {a} + {b}")
        elif shape == 1:
            lines += [
                f"if v{j - 1} > {a * b}:",
                f"    v{j} = v{j - 1} - {a}",
                "else:",
                f"    v{j} = v{j - 1} + {b}",
            ]
        elif shape == 2:
            lines.append(f"v{j} = len([v{j - 1}, {a}, {b}]) + v{j - 1}")
        else:
            lines.append(f"v{j} = v{j - 1} % {a + 1} + {b}")
    return lines


def _batch_pair(index: int, rng) -> tuple[dict, tuple]:
    """A pair and sample arguments for checking its label under CPython."""
    num, text, rows = rng.choice(_INT_PARAMS), rng.choice(_STR_PARAMS), rng.choice(_LIST_PARAMS)
    a = rng.randint(1, 50)
    dimension = rng.randrange(4)
    if dimension == 0:  # return value
        params = [num]
        old_tail, new_tail = [f"return {num} + {a}"], [f"return {num} + {a + 1}"]
    elif dimension == 1:  # printed output
        params = [text]
        old_tail = [f'print("tag{a}", {text})', "return v0"]
        new_tail = [f'print("tag{a + 1}", {text})', "return v0"]
    elif dimension == 2:  # exception
        params = [num]
        old_tail = [f"return {num}"]
        new_tail = [f'raise ValueError("v{a}")']
    else:  # mutation of an injected argument
        params = [rows]
        old_tail = [f"{rows}.append({a})", f"return len({rows})"]
        new_tail = [f"{rows}.append({a + 1})", f"return len({rows})"]
    extra = rng.sample([p for p in (num, text, rows) if p not in params], rng.randrange(3))
    params += extra
    pad = _padding(rng, rng.randint(0, 10))
    name = f"batch_{index}"

    def source(tail):
        body = "\n".join("    " + line for line in pad + tail)
        return f"def {name}({', '.join(params)}):\n{body}\n"

    pair = {"id": f"b{index:05d}", "entry": name, "old": source(old_tail), "new": source(new_tail)}
    return pair, tuple(_SAMPLE_ARGS[p.rstrip("0123456789")] for p in params)


def _batch_table(rng) -> dict:
    entries = []
    for names, kind in ((_INT_PARAMS, "Integer"), (_STR_PARAMS, "String"), (_LIST_PARAMS, "List")):
        for name in names:
            entries.append({"kind": "variable-read", "name": name, "weights": {kind: 1.0}})
    for k in range(_TABLE_FILLER):
        share = rng.randint(1, 7) / 8  # eighths keep the weights summing to exactly 1
        weights = {"Object": share, "Dictionary": 1 - share}
        entries.append({"kind": "attribute-read", "name": f"field{k}", "weights": weights})
    return {"entries": entries}


def batch(directory: Path, seed: int) -> Workload:
    rng = random.Random(f"batch:{seed}")
    table_path = directory / "table.json"
    pair_dir = directory / "pairs"
    directory.mkdir(parents=True, exist_ok=True)
    table_path.write_text(json.dumps(_batch_table(rng)), encoding="utf-8")
    predictor = f"table:{table_path}"
    labelled = []
    for index in range(BATCH_PAIRS):
        pair, args = _batch_pair(index, rng)
        _check_label(pair, CHANGING, args)
        labelled.append((pair, CHANGING))
    cases = _write_pairs(pair_dir, labelled, predictor)
    return Workload(
        cases,
        pair_dir,
        dir_predictor=predictor,
        tables=[table_path],
        one_call=True,
        jobs=2,
    )


def build(name: str, root: Path, scratch: Path, seed: int) -> Workload:
    if name == "corpus":
        return corpus(root)
    if name == "loops":
        return loops(scratch / "pairs", seed)
    if name == "batch":
        return batch(scratch, seed)
    raise ValueError(f"unknown workload {name!r}")
