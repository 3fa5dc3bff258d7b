"""Analysis driver.

Repeats paired executions up to a configurable budget, stops at the first
behavioral difference, accumulates line coverage, and condenses everything
into a three-way verdict.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Optional

from .comparator import ABSTAIN, DIFFERENCE, EQUIVALENT, compare, ended_unintended
from .engine import ComparisonProgram, iteration_seed, run_one, snapshot_injected
from .frontend import FunctionPair, extract_static_facts, make_pair
from .predictor import HeuristicPredictor, Predictor

SEMANTICS_CHANGING = "semantics-changing"
LIKELY_PRESERVING = "likely-semantics-preserving"
INCONCLUSIVE = "inconclusive"


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class EngineConfig:
    """Tunable knobs of one analysis run."""

    max_iterations: int = 300
    seed: int = 0
    exception_probability: float = 0.15
    max_structure_size: int = 4
    object_bias: float = 0.5

    def validate(self) -> None:
        # A bool is an int to isinstance, but ``repr`` tells them apart, so
        # ``seed=True`` would draw other values than ``seed=1``.
        for name in ("max_iterations", "seed", "max_structure_size"):
            if type(getattr(self, name)) is not int:
                raise ConfigError(f"{name} must be an int")
        if self.max_iterations < 1:
            raise ConfigError("max_iterations must be at least 1")
        for name in ("exception_probability", "object_bias"):
            v = getattr(self, name)
            if type(v) not in (int, float) or not 0.0 <= v <= 1.0:
                raise ConfigError(f"{name} must be a number within [0, 1]")
        if self.max_structure_size < 0:
            raise ConfigError("max_structure_size must be nonnegative")


@dataclass(frozen=True)
class Coverage:
    """Cumulative line coverage of one analysis.

    Changed fractions are relative to each side's changed lines (1.0 when a
    side has no changed lines); overall pools both sides' code lines.
    """

    changed_old: float
    changed_new: float
    overall: float
    per_side: tuple[float, float]


@dataclass
class Verdict:
    classification: str
    iterations_run: int
    abstained_iterations: int
    difference: Optional[str]
    difference_dimension: Optional[str]
    coverage: Coverage
    runtime_ms: float = field(default=0.0, compare=False)


def _fraction(covered: int, total: int) -> float:
    return covered / total if total else 1.0


def _build_coverage(
    pair: FunctionPair,
    cum_old: set[int],
    cum_new: set[int],
    reached_old: set[int],
    reached_new: set[int],
) -> Coverage:
    code_old = pair.old.code_lines
    code_new = pair.new.code_lines
    covered_old = len(cum_old & code_old)
    covered_new = len(cum_new & code_new)
    return Coverage(
        changed_old=_fraction(len(reached_old), len(pair.changed_lines_old)),
        changed_new=_fraction(len(reached_new), len(pair.changed_lines_new)),
        overall=_fraction(covered_old + covered_new, len(code_old) + len(code_new)),
        per_side=(
            _fraction(covered_old, len(code_old)),
            _fraction(covered_new, len(code_new)),
        ),
    )


def analyze(
    pair: FunctionPair,
    cfg: Optional[EngineConfig] = None,
    predictor: Optional[Predictor] = None,
) -> Verdict:
    """Run up to cfg.max_iterations paired executions and classify the change.

    Stops early at the first behavioral difference. An iteration in which
    neither side drew from its iteration seed depends only on the pair, so
    it is run once and counted for every remaining iteration (as abstained
    ones, if it abstained). For a pair whose sides are ``identical`` (one
    program once names are merged; see ``FunctionPair``) only the old side
    runs: the new side is the same program, with the same line numbers,
    reading equal values drawn from the same keyed seeds, so its outcome,
    covered lines and seed use would be the old side's. Its covered lines
    count for both sides, and the iteration abstains if the run ended in
    an unintended exception and is equivalent otherwise, with no
    comparison. The verdict
    is inconclusive when no difference was found and either no changed
    line was ever reached or every iteration had to be abstained; a pair
    with no changed lines at all trivially satisfies the reached condition.
    """
    cfg = cfg if cfg is not None else EngineConfig()
    cfg.validate()
    predictor = predictor if predictor is not None else HeuristicPredictor()
    facts = extract_static_facts(pair)
    # The timer covers the runs; both sides were compiled when parsed.
    started = time.perf_counter()
    program = ComparisonProgram(pair, facts, cfg, predictor)
    cum_old: set[int] = set()
    cum_new: set[int] = set()
    abstained = 0
    iterations_run = 0
    difference: Optional[str] = None
    dimension: Optional[str] = None

    for i in range(cfg.max_iterations):
        iterations_run = i + 1
        entries: dict = {}
        seed = iteration_seed(cfg.seed, i)
        out_old = run_one("old", program, entries, seed)
        cum_old |= out_old.covered_lines
        seeded = out_old.seeded
        if pair.identical:
            status = ABSTAIN if ended_unintended(out_old) else EQUIVALENT
        else:
            out_new = run_one("new", program, entries, seed)
            cum_new |= out_new.covered_lines
            seeded = seeded or out_new.seeded
            result = compare(out_old, out_new, snapshot_injected(entries))
            if result.status == DIFFERENCE:
                difference = result.detail
                dimension = result.dimension
                break
            status = result.status
        # An iteration that drew nothing from its seed depends only on the
        # pair, so every remaining iteration would repeat it exactly.
        repeats = 1 if seeded else cfg.max_iterations - i
        iterations_run = i + repeats
        if status == ABSTAIN:
            abstained += repeats
        if not seeded:
            break

    if pair.identical:
        cum_new = set(cum_old)
    reached_old = cum_old & pair.changed_lines_old
    reached_new = cum_new & pair.changed_lines_new
    coverage = _build_coverage(pair, cum_old, cum_new, reached_old, reached_new)
    if difference is not None:
        classification = SEMANTICS_CHANGING
    else:
        has_change = bool(pair.changed_lines_old or pair.changed_lines_new)
        reached = (not has_change) or bool(reached_old or reached_new)
        all_abstained = abstained == iterations_run
        if not reached or all_abstained:
            classification = INCONCLUSIVE
        else:
            classification = LIKELY_PRESERVING

    runtime_ms = (time.perf_counter() - started) * 1000.0
    return Verdict(
        classification=classification,
        iterations_run=iterations_run,
        abstained_iterations=abstained,
        difference=difference,
        difference_dimension=dimension,
        coverage=coverage,
        runtime_ms=runtime_ms,
    )


def analyze_sources(
    old_source: str,
    new_source: str,
    renames: Optional[dict[str, str]] = None,
    entry: Optional[str] = None,
    cfg: Optional[EngineConfig] = None,
    predictor: Optional[Predictor] = None,
) -> Verdict:
    """Convenience wrapper: parse the two sources, then analyze the pair."""
    pair = make_pair(old_source, new_source, renames=renames, entry=entry)
    return analyze(pair, cfg=cfg, predictor=predictor)
