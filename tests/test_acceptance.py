"""Acceptance gate: nine checks, one printed pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v``; the summary lines are
written straight to the real stdout so they survive pytest's capture.
"""

import dataclasses
import json
import random
import statistics
import sys
import time

import pytest

import _corpus
from pairguard import EngineConfig, analyze
from pairguard.cli import main as cli_main
from pairguard.engine import ComparisonProgram, derive_seed, run_one
from pairguard.frontend import extract_static_facts, make_pair
from pairguard.values import (
    HARD_INT_POOL,
    AbstractValue,
    ConcretizerConfig,
    VersatileObject,
    concretize,
    deep_copy,
    serialize,
    versatile_binop,
)
from test_values import _random_value, kind_of

EXEMPLARS = ("retry_meta", "magic_check", "categorical_dtype", "param_allowed")
IDENTITY = [i for i in _corpus.all_ids() if i.startswith("identity_")]
RENAMES = [i for i in _corpus.all_ids() if i.startswith("rename_")]

_CAPMAN = None


@pytest.fixture(autouse=True)
def _live_reporting(request):
    # File-descriptor capture would swallow even sys.__stdout__, so the
    # summary lines go out with capture suspended.
    global _CAPMAN
    _CAPMAN = request.config.pluginmanager.getplugin("capturemanager")
    yield


def report(number, ok, text):
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {number}: {text}"
    if _CAPMAN is not None:
        with _CAPMAN.global_and_fixture_disabled():
            print(line, file=sys.__stdout__, flush=True)
    else:
        print(line, file=sys.__stdout__, flush=True)


def exemplar_detail_ok(pair_id, verdict):
    if verdict.classification != "semantics-changing":
        return False
    if pair_id == "retry_meta":
        return verdict.difference_dimension == "state" and "retry_times" in verdict.difference
    if pair_id == "magic_check":
        return verdict.difference_dimension == "exception"
    if pair_id == "categorical_dtype":
        return verdict.difference_dimension in ("state", "calls")
    if pair_id == "param_allowed":
        return (
            verdict.difference_dimension == "state"
            and "old: True" in verdict.difference
            and "new: False" in verdict.difference
        )
    raise AssertionError(pair_id)


def test_1_exemplar_pair_verdicts():
    worst = 100
    slowest = 0.0
    try:
        for pair_id in EXEMPLARS:
            good = 0
            for seed in range(100):
                started = time.monotonic()
                verdict = _corpus.analyze_fixture(pair_id, cfg=EngineConfig(seed=seed))
                elapsed = time.monotonic() - started
                slowest = max(slowest, elapsed)
                assert elapsed <= 10.0, f"{pair_id} seed {seed} took {elapsed:.1f}s"
                if exemplar_detail_ok(pair_id, verdict):
                    good += 1
            worst = min(worst, good)
            assert good >= 95, f"{pair_id}: only {good}/100 seeds classified correctly"
    except AssertionError as exc:
        report(1, False, str(exc))
        raise
    report(
        1,
        True,
        f"exemplar pairs correct on >=95/100 seeds (worst {worst}/100, "
        f"slowest run {slowest * 1000:.0f} ms)",
    )


def test_2_identity_suite():
    # An identity pair runs its old side alone; its twin, whose new side
    # ends in one more blank line, runs both sides and must agree.
    seeds = range(5)
    try:
        for pair_id in IDENTITY:
            data = _corpus.load_pair_data(pair_id)
            twin = make_pair(data["old"], data["new"] + "\n", entry=data.get("entry"))
            assert not twin.identical
            for seed in seeds:
                started = time.monotonic()
                verdict = _corpus.analyze_fixture(pair_id, cfg=EngineConfig(seed=seed))
                elapsed = time.monotonic() - started
                assert elapsed <= 10.0, f"{pair_id} seed {seed} took {elapsed:.1f}s"
                assert verdict.classification == "likely-semantics-preserving", (
                    f"{pair_id} seed {seed}: {verdict.classification}"
                )
                twin_verdict = analyze(
                    twin, EngineConfig(seed=seed), predictor=_corpus.predictor_for(pair_id)
                )
                assert twin_verdict == verdict, f"{pair_id} seed {seed}: twin gives {twin_verdict}"
    except AssertionError as exc:
        report(2, False, str(exc))
        raise
    report(
        2,
        True,
        f"{len(IDENTITY)} identity pairs preserving on all {len(list(seeds))} seeds at k=300,"
        " each equal to its two-run twin",
    )


def test_3_rename_suite():
    # A rename pair whose merged sides are one program runs its old side
    # alone; its two-run twin must agree at every seed.
    diverged_without_map = 0
    one_run = 0
    try:
        assert len(RENAMES) == 10, f"expected 10 rename pairs, found {len(RENAMES)}"
        for pair_id in RENAMES:
            data = _corpus.load_pair_data(pair_id)
            pair = make_pair(
                data["old"], data["new"], renames=data["renames"], entry=data.get("entry")
            )
            one_run += pair.identical
            predictor = _corpus.predictor_for(pair_id)
            for seed in range(5):
                verdict = analyze(pair, EngineConfig(seed=seed), predictor=predictor)
                assert verdict.classification == "likely-semantics-preserving", (
                    f"{pair_id} seed {seed}: {verdict.classification}"
                )
                if pair.identical:
                    twin = dataclasses.replace(pair, identical=False)
                    twin_verdict = analyze(twin, EngineConfig(seed=seed), predictor=predictor)
                    assert twin_verdict == verdict, (
                        f"{pair_id} seed {seed}: two-run twin gives {twin_verdict}"
                    )
        for pair_id in RENAMES:
            data = _corpus.load_pair_data(pair_id)
            pair = make_pair(data["old"], data["new"], renames={})
            verdict = analyze(pair, EngineConfig(seed=0), predictor=_corpus.predictor_for(pair_id))
            if verdict.classification != "likely-semantics-preserving":
                diverged_without_map += 1
        assert diverged_without_map >= 1, "dropping the maps changed nothing"
    except AssertionError as exc:
        report(3, False, str(exc))
        raise
    report(
        3,
        True,
        f"10 rename pairs preserving with maps on 5 seeds, the {one_run} one-run pairs each"
        f" equal to its two-run twin; {diverged_without_map}/10 diverge without maps",
    )


def _mutate(value, rng):
    if isinstance(value, list):
        action = rng.randrange(3)
        if action == 0:
            value.append(rng.randrange(100))
        elif action == 1:
            value.clear()
        else:
            value.extend([None, "junk"])
    elif isinstance(value, dict):
        if value and rng.random() < 0.4:
            value.pop(next(iter(value)))
        else:
            value[f"m{rng.randrange(10)}"] = rng.randrange(100)
    elif isinstance(value, VersatileObject):
        value.store(f"w{rng.randrange(10)}", rng.randrange(100))
    if isinstance(value, (list, tuple)):
        for item in value:
            if rng.random() < 0.5:
                _mutate(item, rng)
    elif isinstance(value, dict):
        for item in value.values():
            if rng.random() < 0.5:
                _mutate(item, rng)


def test_4_copy_non_interference():
    rng = random.Random(20240817)
    failures = 0
    for _ in range(1000):
        value = _random_value(rng)
        before = serialize(value)
        copy = deep_copy(value)
        for _ in range(rng.randrange(1, 5)):
            _mutate(copy, rng)
        if serialize(value) != before:
            failures += 1
    ok = failures == 0
    report(4, ok, f"1000 randomized values: {failures} serialization changes after mutating copies")
    assert ok


def test_5_determinism(tmp_path):
    try:
        a = _corpus.analyze_fixture("retry_meta")
        b = _corpus.analyze_fixture("retry_meta")
        assert a.classification == b.classification
        assert a.iterations_run == b.iterations_run
        assert a.difference == b.difference

        outputs = []
        for i in range(2):
            out = tmp_path / f"run{i}.jsonl"
            code = cli_main(
                [
                    "analyze",
                    str(_corpus.PAIR_DIR),
                    "--format",
                    "json",
                    "--seed",
                    "3",
                    "--out",
                    str(out),
                ]
            )
            assert code == 0
            rows = []
            for line in out.read_text().splitlines():
                row = json.loads(line)
                row.pop("wall_time_ms")
                rows.append(json.dumps(row, sort_keys=True))
            outputs.append("\n".join(rows))
        assert outputs[0] == outputs[1], "machine output differs between identical runs"
    except AssertionError as exc:
        report(5, False, str(exc))
        raise
    report(5, True, "verdicts and machine output byte-identical modulo the timing field")


def test_6_coverage_over_corpus():
    ids = _corpus.all_ids()
    try:
        assert len(ids) >= 25
        overall = []
        inconclusive = 0
        for pair_id in ids:
            verdict = _corpus.analyze_fixture(pair_id)
            overall.append(verdict.coverage.overall)
            if verdict.classification == "inconclusive":
                inconclusive += 1
        median = statistics.median(overall)
        conclusive_share = (len(ids) - inconclusive) / len(ids)
        assert median >= 0.80, f"median coverage {median:.2f}"
        assert conclusive_share >= 0.90, f"only {conclusive_share:.0%} conclusive"
    except AssertionError as exc:
        report(6, False, str(exc))
        raise
    report(
        6,
        True,
        f"{len(ids)} pairs: median overall coverage {median:.2f}, "
        f"{conclusive_share:.0%} non-inconclusive",
    )


def test_7_concretizer_conformance():
    cfg = ConcretizerConfig.with_literals(classes=("Node",))
    rng = random.Random(99)
    object_elements = 0
    revealed = 0
    try:
        for kind in AbstractValue:
            for _ in range(10_000):
                value = concretize(kind, cfg, rng)
                actual = kind_of(value)
                if kind in (AbstractValue.OBJECT, AbstractValue.RESOURCE):
                    assert isinstance(value, VersatileObject), (kind, value)
                else:
                    assert actual == kind, (kind, value)
                if kind == AbstractValue.INTEGER:
                    assert value in HARD_INT_POOL, value
                if kind in (AbstractValue.LIST, AbstractValue.TUPLE, AbstractValue.SET,
                            AbstractValue.DICTIONARY):
                    assert 0 <= len(value) <= 4, (kind, value)
                if kind == AbstractValue.LIST and len(value) > 0:
                    revealed += 1
                    if isinstance(value[0], VersatileObject):
                        object_elements += 1
        share = object_elements / revealed
        assert 0.45 <= share <= 0.55, f"object element share {share:.3f}"
    except AssertionError as exc:
        report(7, False, str(exc))
        raise
    report(
        7,
        True,
        f"10000 samples/kind conform; object element share {share:.3f} in [0.45, 0.55]",
    )


def test_8_versatile_arithmetic():
    operands = [0, 3, -2.5, True, None, "s", [1], (1,), {"k": 1}, {1, 2},
                VersatileObject(11), VersatileObject(12)]
    ops = ("+", "-", "*", "/", "//", "%", "**", "==", "!=", "<", "<=", ">", ">=")
    try:
        assert VersatileObject(7) + 3 == 4
        o = VersatileObject(99)
        for op in ops:
            for other in operands:
                versatile_binop(op, o, other)
                versatile_binop(op, other, o)
    except Exception as exc:  # totality is the claim under test
        report(8, False, f"operator sweep raised {type(exc).__name__}: {exc}")
        raise
    report(8, True, f"o + 3 == 4; {len(ops)}x{2 * len(operands)} operator sweep raised nothing")


def test_9_efficiency():
    slowest_iteration = 0.0
    try:
        for pair_id in _corpus.all_ids():
            data = _corpus.load_pair_data(pair_id)
            pair = make_pair(
                data["old"], data["new"], renames=data.get("renames") or {}
            )
            cfg = EngineConfig(seed=0)
            program = ComparisonProgram(
                pair, extract_static_facts(pair), cfg, _corpus.predictor_for(pair_id)
            )
            entries: dict = {}
            seed = derive_seed(cfg.seed, "iteration", 0)
            started = time.monotonic()
            run_one("old", program, entries, seed)
            run_one("new", program, entries, seed)
            elapsed = time.monotonic() - started
            slowest_iteration = max(slowest_iteration, elapsed)
            assert elapsed <= 0.050, f"{pair_id}: one iteration took {elapsed * 1000:.1f} ms"

        started = time.monotonic()
        verdict = _corpus.analyze_fixture("identity_merge_maps")
        full = time.monotonic() - started
        assert verdict.iterations_run == 300
        assert full <= 10.0, f"full k=300 analysis took {full:.1f}s"
    except AssertionError as exc:
        report(9, False, str(exc))
        raise
    report(
        9,
        True,
        f"slowest single iteration {slowest_iteration * 1000:.1f} ms; "
        f"full k=300 analysis {full * 1000:.0f} ms",
    )
