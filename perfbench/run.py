"""pairguard benchmark: closed-loop workloads through ``pairguard.cli.main``.

Usage (from the repository root, no install needed):

    python3 perfbench/run.py --workload corpus --seed 0 --seconds 30 --trace 0

Workloads (one client, closed loop; see README.md for why each exists):

    corpus  the 41 fixture pairs, one ``cli.main`` call per pair, --jobs 1
    loops   seeded loop-heavy pairs, one call per pair, --jobs 1
    batch   2,000 seeded small pairs, one call on their directory, --jobs 2

With ``--trace 0`` the script repeats passes of the workload for
``--seconds`` (and until it has 100 verdict times) and reports end-to-end
metrics. With ``--trace 1`` it runs one untraced and two traced passes at
--jobs 1 plus a --jobs 1 / --jobs 2 pair of whole-directory calls, and
reports per-layer metrics. Every verdict is checked against the pair's known
answer; mismatches are listed by pair id and counted in ``failed``.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. A full record of the run (passes,
provenance, mismatches) goes to ``perfbench/out/``, and the traced run's
spans to ``perfbench/out/spans-<workload>-s<seed>.jsonl``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import workloads
from reference import NOMINAL_S, SpeedProbe
from tracer import SPAN_NAMES, Tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

WORKLOADS = ("corpus", "loops", "batch")
MIN_SAMPLES = 100  # ten verdict times beyond p90
SETUP_PROBES = 9
TIME_CAP_S = 120.0  # stop adding passes here, well inside the 180 s limit
VERDICTS = ("semantics-changing", "likely-semantics-preserving", "inconclusive")
MAX_ITERATIONS = 300  # the CLI default k


@dataclass
class Pass:
    """One pass over a workload, kept small so memory does not grow with passes."""

    wall_s: float = 0.0
    cpu_s: float = 0.0
    call_ms: list[float] = field(default_factory=list)  # per cli.main call
    pair_ms: list[float] = field(default_factory=list)  # per-pair wall_time_ms from the records
    verdicts: dict[str, str] = field(default_factory=dict)
    iterations: int = 0
    problems: list[str] = field(default_factory=list)
    digest: str = ""  # hash of every record but its timing, to compare passes
    speed: float = 0.0  # the pass's own speed factor (reference.py); 0 if unmeasured
    _lines: list[str] = field(default_factory=list)

    def add(self, code: int, stdout: str, stderr: str) -> None:
        for line in stdout.splitlines():
            record = json.loads(line)
            pair_id, verdict, iterations = record["id"], record["verdict"], record["iterations"]
            if pair_id in self.verdicts:
                self.problems.append(f"{pair_id}: more than one record")
            if verdict not in VERDICTS or not 1 <= iterations <= MAX_ITERATIONS:
                self.problems.append(f"{pair_id}: malformed record {line[:200]}")
            self.verdicts[pair_id] = verdict
            self.iterations += iterations
            self.pair_ms.append(record["wall_time_ms"])
            del record["wall_time_ms"]
            self._lines.append(json.dumps(record, sort_keys=True))
        if code != 0:
            self.problems.append(f"exit {code}: {stderr.strip()[:500]}")

    def close(self) -> None:
        self.digest = hashlib.sha256("\n".join(sorted(self._lines)).encode()).hexdigest()
        self._lines.clear()


def _cpu_s() -> float:
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


def _call(cli, argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _argv(target, seed: int, jobs: int, predictor: str) -> list[str]:
    argv = ["analyze", str(target), "--format", "json", "--seed", str(seed), "--jobs", str(jobs)]
    if predictor != "heuristic":
        argv += ["--predictor", predictor]
    return argv


def run_pass(cli, workload, seed: int, jobs: int, whole_dir: bool, tracer=None, probe=None) -> Pass:
    """One pass over the workload. ``whole_dir`` analyzes the directory in one call.

    Only the ``cli.main`` calls are timed; ``probe`` samples the host's speed
    before, between and after them.
    """
    if whole_dir:
        targets = [(workload.pair_dir, workload.dir_predictor, None)]
    else:
        targets = [(case.path, case.predictor, case.pair_id) for case in workload.cases]
    p = Pass()
    if probe is not None:
        probe.begin()
    for target, predictor, pair_id in targets:
        if tracer is not None and pair_id is not None:
            tracer.pair_id = pair_id
        cpu0, start = _cpu_s(), time.perf_counter()
        result = _call(cli, _argv(target, seed, jobs, predictor))
        elapsed = time.perf_counter() - start
        p.cpu_s += _cpu_s() - cpu0
        p.wall_s += elapsed
        if not whole_dir:
            p.call_ms.append(elapsed * 1e3)
        p.add(*result)
        if probe is not None:
            probe.after_call()
    if probe is not None:
        p.speed = probe.end()
    p.close()
    return p


def check(workload, passes: list[Pass]) -> dict:
    """Known-answer and consistency checks over every pass of a run."""
    problems, mismatches = [], {}
    attempted = failed = 0
    for p in passes:
        problems += p.problems
        if p.digest != passes[0].digest:
            problems.append("records differ between passes of one run")
        if len(p.verdicts) != len(workload.cases):
            problems.append(f"pass returned {len(p.verdicts)} records for {len(workload.cases)} pairs")
        for case in workload.cases:
            attempted += 1
            verdict = p.verdicts.get(case.pair_id)
            if verdict != case.expected:
                failed += 1
                mismatches[case.pair_id] = f"expected {case.expected}, got {verdict or 'an error'}"
    return {
        "attempted": attempted,
        "failed": failed,
        "mismatches": mismatches,
        "problems": problems,
    }


def setup_times(workload) -> list[tuple[float, float]]:
    """(raw, normalized) set-up seconds of SETUP_PROBES fresh processes."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    argv = [sys.executable, str(BENCH / "setup_probe.py"), str(workload.pair_dir)]
    argv += [str(t) for t in workload.tables]
    times = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=60, check=False)
        if done.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {done.stderr.strip()}")
        elapsed, reference = map(float, done.stdout.split())
        times.append((elapsed, elapsed * NOMINAL_S / reference))
    return times


def timed_run(cli, workload, seed: int, seconds: int) -> tuple[dict, list[Pass], dict]:
    setups = setup_times(workload)
    probe = SpeedProbe(workload.jobs)
    passes: list[Pass] = []
    start = time.perf_counter()
    while True:
        passes.append(run_pass(cli, workload, seed, workload.jobs, workload.one_call, probe=probe))
        elapsed = time.perf_counter() - start
        if elapsed >= TIME_CAP_S or (
            elapsed >= seconds and len(_verdict_samples(workload, passes)) >= MIN_SAMPLES
        ):
            break
    usage = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if workload.one_call:  # the pool's workers
        usage += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    raw = _timings(workload, passes)
    speed = probe.factor()
    norm = [value * speed for value in raw]
    metrics = {
        "wall_norm_s": (norm[0], "s"),
        "iter_norm_us": (norm[1], "us"),
        "verdict_norm_ms_p50": (norm[2], "ms"),
        "verdict_norm_ms_p90": (norm[3], "ms"),
        "setup_s": (statistics.median(scaled for _, scaled in setups), "s"),
        "peak_rss_mb": (usage / 1024.0, "MB"),
    }
    extra = {
        "raw": {
            "wall_s": (raw[0], "s"),
            "iter_us": (raw[1], "us"),
            "verdict_ms_p50": (raw[2], "ms"),
            "verdict_ms_p90": (raw[3], "ms"),
            "setup_raw_s": (statistics.median(measured for measured, _ in setups), "s"),
        },
        "setup_s": setups,
        "speed": speed,
        "verdict_samples": len(_verdict_samples(workload, passes)),
    }
    return metrics, passes, extra


def _timings(workload, passes: list[Pass]) -> tuple:
    """Median pass wall, time per iteration, and verdict-time p50 and p90."""
    wall = statistics.median(p.wall_s for p in passes)
    samples = _verdict_samples(workload, passes)
    p90 = statistics.quantiles(samples, n=10, method="inclusive")[8]
    return wall, wall / passes[0].iterations * 1e6, statistics.median(samples), p90


def _verdict_samples(workload, passes: list[Pass]) -> list[float]:
    """Verdict times in ms: per ``cli.main`` call, or for ``batch`` (one call a
    pass) the per-pair times the records report."""
    return [ms for p in passes for ms in (p.pair_ms if workload.one_call else p.call_ms)]


def traced_run(cli, modules, workload, seed: int, spans_path: Path) -> tuple[dict, list[Pass], dict]:
    baseline = run_pass(cli, workload, seed, 1, workload.one_call)
    tracers, traced = [], []
    for _ in range(2):
        tracer = Tracer()
        tracer.install(modules)
        try:
            traced.append(run_pass(cli, workload, seed, 1, workload.one_call, tracer))
        finally:
            tracer.uninstall()
        tracers.append(tracer)
        if len(tracers) == 1:
            tracer.write(spans_path)
            tracer.spans.clear()
    if workload.one_call:
        serial = baseline
    else:
        serial = run_pass(cli, workload, seed, 1, True)
    pooled = run_pass(cli, workload, seed, 2, True)

    a, b = tracers
    counted = list(SPAN_NAMES)
    mismatched = [n for n in counted if a.calls[n] != b.calls[n]]
    if (a.iterations, a.abstained) != (b.iterations, b.abstained):
        mismatched.append("driver.iterations")
    traced_wall = statistics.fmean(p.wall_s for p in traced)
    metrics = {}
    for name in counted:
        metrics[f"{name}.calls"] = (a.calls[name], "count")
        metrics[f"{name}.self_s"] = (statistics.fmean(t.self_s[name] for t in tracers), "s")
    runs = a.calls["engine.run_one"]
    metrics.update(
        {
            "driver.iterations": (a.iterations, "count"),
            "driver.abstained": (a.abstained, "count"),
            "driver.useful_ratio": ((a.iterations - a.abstained) / max(a.iterations, 1), "ratio"),
            "engine.unparse.per_run": (a.calls["engine.unparse"] / max(runs, 1), "ratio"),
            "cli.pool_speedup": (serial.wall_s / pooled.wall_s, "ratio"),
            "trace.overhead_ratio": (traced_wall / baseline.wall_s, "ratio"),
            "trace.wall_s": (traced_wall, "s"),
            "trace.calls_mismatch": (len(mismatched), "count"),
        }
    )
    shares = _purpose_shares(metrics, traced_wall)
    extra = {
        "calls_mismatch": mismatched,
        "missing_targets": sorted(set(a.missing)),
        "shares_of_traced_wall": shares,
        "pool_records_equal": serial.digest == pooled.digest,
    }
    return metrics, [baseline, *traced], extra


def _purpose_shares(metrics: dict, wall: float) -> dict:
    def share(*prefixes):
        return sum(
            v for k, (v, _) in metrics.items() if k.endswith(".self_s") and k.startswith(prefixes)
        ) / wall

    return {
        "corpus: predictor + values + engine.unparse": share("predictor.", "values.", "engine.unparse."),
        "loops: engine.run_one": share("engine.run_one."),
        "batch: frontend": share("frontend."),
    }


def provenance(workload: str, seed: int, seconds: int, trace: int) -> dict:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10, check=True
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = None  # the benchmark may run from an export without .git
    digest = hashlib.sha256()
    for path in sorted((SRC / "pairguard").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "pairguard" / "cli.py").is_file():
        print(f"error: pairguard sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import pairguard.cli as cli
    import pairguard.driver
    import pairguard.engine
    import pairguard.predictor

    modules = {m.__name__: m for m in (cli, pairguard.driver, pairguard.engine, pairguard.predictor)}
    OUT.mkdir(exist_ok=True)
    scratch = OUT / f"{args.workload}-s{args.seed}-p{os.getpid()}"
    tag = f"{args.workload}-s{args.seed}"
    try:
        workload = workloads.build(args.workload, ROOT, scratch, args.seed)
        if args.trace:
            metrics, passes, extra = traced_run(cli, modules, workload, args.seed, OUT / f"spans-{tag}.jsonl")
        else:
            metrics, passes, extra = timed_run(cli, workload, args.seed, args.seconds)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    verdict = check(workload, passes)
    problems = list(verdict["problems"])
    if args.trace:
        if extra["missing_targets"]:
            # A renamed entry point leaves its layer at zero; the outputs are still checked.
            print(f"warning: trace targets missing: {extra['missing_targets']}", file=sys.stderr)
        if not extra["pool_records_equal"]:
            problems.append("--jobs 1 and --jobs 2 gave different records")
    correct = not problems
    record = {
        "provenance": provenance(args.workload, args.seed, args.seconds, args.trace),
        "passes": [
            {"wall_s": p.wall_s, "speed": p.speed, "cpu_s": p.cpu_s, "iterations": p.iterations}
            for p in passes
        ],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "failed_ratio": verdict["failed"] / verdict["attempted"],
        "mismatches": verdict["mismatches"],
        "problems": problems,
        **extra,
    }
    (OUT / f"run-{tag}-trace{args.trace}.json").write_text(json.dumps(record, indent=1) + "\n")

    print(f"provenance: {json.dumps(record['provenance'], sort_keys=True)}")
    for i, p in enumerate(passes):
        speed = f", speed {p.speed:.4f}" if p.speed else ""
        print(f"pass {i}: wall {p.wall_s:.4f} s, cpu {p.cpu_s:.4f} s{speed}, {p.iterations} iterations")
    for name, (value, unit) in {**metrics, **extra.get("raw", {})}.items():
        print(f"{name} = {value:.6g} {unit}")
    print(f"failed_ratio = {record['failed_ratio']:.6g} ({verdict['failed']}/{verdict['attempted']})")
    for pair_id, why in sorted(verdict["mismatches"].items()):
        print(f"mismatch: {pair_id}: {why}")
    for label, value in extra.get("shares_of_traced_wall", {}).items():
        print(f"share of traced wall, {label} = {value:.3f}")
    for problem in problems:
        print(f"problem: {problem}", file=sys.stderr)
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": verdict["attempted"],
                "failed": verdict["failed"],
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
