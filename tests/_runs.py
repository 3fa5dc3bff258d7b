"""Per-run fingerprints of every run ``analyze`` accounts for, and a digest
of the ``batch`` benchmark's CLI output.

Fingerprints cover every corpus pair (with its table predictor, where it has
one) and the ``loops`` benchmark pairs, at one seed. One line per pair: its
id, how many single-side runs ``analyze`` accounts for, their total steps,
and a sha256 over each run's (side, steps, sorted covered lines, exception
type and intentional flag, return value, stdout). The side and steps are
the wrapped ``Interpreter``'s and the rest its outcome's; each return value
is read, and so rendered, only once the analysis has ended, after every
later run of the pair. An iteration that read nothing from its seed is run
once and counted for the remaining ones; its two runs are repeated here
once for each iteration it stands for. A pair whose sides are identical
(one program once names are merged) runs only its old side; each of its
runs is repeated here as the new side's.

The batch digest is a sha256 over ``pairguard analyze --format json`` on the
seed's ``batch`` pairs with their table predictor, each record without its
``wall_time_ms``. It is pinned from a serial call; a pooled call must give
the same digest.

Regenerate the pinned files with ``python tests/_runs.py`` from the repo
root; they are ``tests/fixtures/golden/runs_seed{0,7}.jsonl`` and
``tests/fixtures/golden/batch_seed{0,7}.sha256``. ``python tests/_runs.py
--check`` compares them instead, and compares each seed's pooled digest
(``--jobs 2``) with the serial one's file too; it writes nothing and exits 1
on a mismatch. Under a fingerprint file that differs it lists each pair that
moved, with its pinned and current runs and steps.
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
import pathlib
import sys
import tempfile

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
GOLDEN = HERE / "fixtures" / "golden"
SEEDS = (0, 7)

if __name__ == "__main__":
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import _corpus  # noqa: E402
from pairguard import EngineConfig, analyze, cli, engine  # noqa: E402
from pairguard.frontend import make_pair  # noqa: E402
from pairguard.predictor import HeuristicPredictor  # noqa: E402


def _load_perfbench(name: str):
    # perfbench is a directory of scripts, not a package; load one read-only.
    spec = importlib.util.spec_from_file_location(
        f"_pairguard_{name}", ROOT / "perfbench" / f"{name}.py"
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def _pairs(seed: int, scratch: pathlib.Path):
    """(id, pair, predictor) for the corpus and the seed's loops pairs."""

    def pair(data):
        return make_pair(
            data["old"], data["new"], renames=data.get("renames") or {},
            entry=data.get("entry"),
        )

    for pair_id in _corpus.all_ids():
        yield pair_id, pair(_corpus.load_pair_data(pair_id)), _corpus.predictor_for(pair_id)
    for case in _load_perfbench("workloads").loops(scratch, seed).cases:
        data = json.loads(case.path.read_text())
        yield f"loops/{case.pair_id}", pair(data), HeuristicPredictor()


def _record(runs: list) -> None:
    """Wrap ``Interpreter.run`` so each run appends its fingerprint."""
    original = engine.Interpreter.run

    def run(self):
        out = original(self)
        exc = out.exception
        runs.append(
            [
                self.side,
                self.steps,
                sorted(out.covered_lines),
                None if exc is None else [exc.type_name, exc.intentional],
                out,  # its return value, rendered once the analysis ends
                out.stdout,
            ]
        )
        return out

    return original, run


def fingerprints(seed: int) -> list[str]:
    """One JSON line per pair, in corpus then loops order."""
    lines = []
    runs: list = []
    original, recording = _record(runs)
    engine.Interpreter.run = recording
    try:
        with tempfile.TemporaryDirectory() as scratch:
            for pair_id, pair, predictor in _pairs(seed, pathlib.Path(scratch)):
                runs.clear()
                verdict = analyze(pair, EngineConfig(seed=seed), predictor=predictor)
                for run in runs:
                    run[4] = run[4].return_value
                if pair.identical:
                    # Only the old side ran; the new side's run is its repeat.
                    runs[:] = [r for run in runs for r in (run, ["new", *run[1:]])]
                # The last iteration stands for any that were not run.
                runs.extend(runs[-2:] * (verdict.iterations_run - len(runs) // 2))
                digest = hashlib.sha256()
                for run in runs:
                    digest.update(json.dumps(run).encode("utf-8") + b"\n")
                lines.append(
                    json.dumps(
                        {
                            "id": pair_id,
                            "runs": len(runs),
                            "steps": sum(run[1] for run in runs),
                            "sha256": digest.hexdigest(),
                        },
                        sort_keys=True,
                    )
                )
    finally:
        engine.Interpreter.run = original
    return lines


def golden_path(seed: int) -> pathlib.Path:
    return GOLDEN / f"runs_seed{seed}.jsonl"


def moved_pairs(pinned: str, current: str) -> list[str]:
    """One line per pair whose fingerprint differs between a pinned and a
    current fingerprint file: its id, then its runs and steps in each."""

    def by_id(text):
        return {record["id"]: record for record in map(json.loads, text.splitlines())}

    old, new = by_id(pinned), by_id(current)
    lines = []
    for pair_id in {**old, **new}:
        was, now = old.get(pair_id), new.get(pair_id)
        if was != now:
            counts = [
                "-" if r is None else f"runs {r['runs']} steps {r['steps']}" for r in (was, now)
            ]
            lines.append(f"  {pair_id}: {counts[0]} -> {counts[1]}")
    return lines


def batch_digest(seed: int, jobs: int = 1) -> str:
    """sha256 of the CLI's JSON records for the seed's ``batch`` pairs,
    analyzed ``jobs`` at a time."""
    with tempfile.TemporaryDirectory() as scratch:
        workload = _load_perfbench("workloads").batch(pathlib.Path(scratch), seed)
        out = pathlib.Path(scratch) / "out.jsonl"
        argv = ["analyze", str(workload.pair_dir), "--format", "json", "--seed", str(seed)]
        argv += ["--jobs", str(jobs)]
        code = cli.main(argv + ["--predictor", workload.dir_predictor, "--out", str(out)])
        if code != 0:
            raise RuntimeError(f"pairguard analyze exited {code} on the batch pairs")
        digest = hashlib.sha256()
        for line in out.read_text(encoding="utf-8").splitlines():
            record = json.loads(line)
            record.pop("wall_time_ms")
            digest.update(json.dumps(record, sort_keys=True).encode("utf-8") + b"\n")
    return digest.hexdigest()


def batch_digest_path(seed: int) -> pathlib.Path:
    return GOLDEN / f"batch_seed{seed}.sha256"


if __name__ == "__main__":
    check = sys.argv[1:] == ["--check"]
    if sys.argv[1:] and not check:
        sys.exit("usage: python tests/_runs.py [--check]")
    mismatched = False
    for s in SEEDS:
        pinned = [
            (golden_path(s), "", "\n".join(fingerprints(s)) + "\n"),
            (batch_digest_path(s), "", batch_digest(s) + "\n"),
        ]
        if check:
            # A pinned digest comes from a serial call; the pool must match it.
            pinned.append((batch_digest_path(s), " (--jobs 2)", batch_digest(s, jobs=2) + "\n"))
        for path, how, text in pinned:
            if not check:
                path.write_text(text, encoding="utf-8")
                print(f"wrote {path.relative_to(ROOT)}")
            elif path.read_text(encoding="utf-8") == text:
                print(f"matches {path.relative_to(ROOT)}{how}")
            else:
                print(f"differs from {path.relative_to(ROOT)}{how}")
                if path == golden_path(s):
                    for line in moved_pairs(path.read_text(encoding="utf-8"), text):
                        print(line)
                mismatched = True
    sys.exit(1 if mismatched else 0)
