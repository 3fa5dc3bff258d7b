"""Batch command line front end.

Reads function-pair files (JSON with id/old/new and optional renames and
entry fields), analyzes each pair, and emits verdicts as text or JSON
lines. A directory input is expanded to its *.json files in name order;
output order always follows input order.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import dataclasses
import functools
import gc
import json
import re
import sys
import traceback
from pathlib import Path
from typing import Optional

from .driver import ConfigError, EngineConfig, analyze_sources
from .predictor import FormatError, HeuristicPredictor, Predictor, load_table_predictor


class PairFileError(ValueError):
    pass


def _load_pair(path: Path) -> dict:
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except OSError as exc:
        raise PairFileError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise PairFileError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise PairFileError(f"{path}: top level must be an object")
    for key in ("id", "old", "new"):
        if key not in data:
            raise PairFileError(f"{path}: missing field {key!r}")
        if not isinstance(data[key], str):
            raise PairFileError(f"{path}: field {key!r} must be a string")
    renames = data.get("renames")
    if renames is not None:
        if not isinstance(renames, dict) or not all(
            isinstance(k, str) and isinstance(v, str) for k, v in renames.items()
        ):
            raise PairFileError(f"{path}: 'renames' must map strings to strings")
        for k, v in renames.items():
            if not re.search(rf"\b{re.escape(k)}\b", data["old"]):
                raise PairFileError(f"{path}: rename key {k!r} does not occur in old")
            if not re.search(rf"\b{re.escape(v)}\b", data["new"]):
                raise PairFileError(f"{path}: rename value {v!r} does not occur in new")
    entry = data.get("entry")
    if entry is not None and not isinstance(entry, str):
        raise PairFileError(f"{path}: 'entry' must be a string")
    return {
        "id": data["id"],
        "old": data["old"],
        "new": data["new"],
        "renames": renames,
        "entry": entry,
    }


def _pair_paths(target: Path) -> list[Path]:
    if target.is_dir():
        # By name: ``Path`` comparisons are Python-level calls, and one
        # directory's paths order as their names do.
        paths = sorted((p for p in target.iterdir() if p.suffix == ".json"), key=lambda p: p.name)
        if not paths:
            raise PairFileError(f"{target}: no .json pair files found")
        return paths
    if target.is_file():
        return [target]
    raise PairFileError(f"{target}: no such file or directory")


def _build_predictor(spec: str) -> Predictor:
    if spec == "heuristic":
        return HeuristicPredictor()
    if spec.startswith("table:"):
        return load_table_predictor(spec[len("table:") :])
    raise PairFileError(
        f"invalid --predictor {spec!r}; expected 'heuristic' or 'table:<path>'"
    )


def _analyze_pair(pair: dict, cfg: EngineConfig, predictor: Predictor) -> dict:
    """Analyze one loaded pair and return a JSON-ready result object."""
    verdict = analyze_sources(
        pair["old"],
        pair["new"],
        renames=pair["renames"],
        entry=pair["entry"],
        cfg=cfg,
        predictor=predictor,
    )
    result = {
        "id": pair["id"],
        "verdict": verdict.classification,
        "iterations": verdict.iterations_run,
        "coverage": {
            "changed_old": round(verdict.coverage.changed_old, 6),
            "changed_new": round(verdict.coverage.changed_new, 6),
            "overall": round(verdict.coverage.overall, 6),
            "per_side": [
                round(verdict.coverage.per_side[0], 6),
                round(verdict.coverage.per_side[1], 6),
            ],
        },
        "wall_time_ms": round(verdict.runtime_ms, 3),
    }
    if verdict.difference is not None:
        result["difference"] = {
            "dimension": verdict.difference_dimension,
            "detail": verdict.difference,
        }
    return result


# CPython starts a young collection after 700 net tracked allocations. A
# batch pair keeps more than that alive once make_pair returns (its trees and
# compiled closures: about 750 tracked objects at the median of the seed-0
# batch pairs, up to 1,700), so almost every pair started one, which scanned
# and promoted that pair's live objects, though reference counting frees them
# anyway. Over one pass of 2,000 batch pairs at --jobs 2 (seeds 0 and 7),
# each worker made 290-420 young, 26-38 middle and 2-3 full collections,
# taking 0.04-0.10 s on 2 shared vCPUs (Python 3.11) to free 39-72 objects.
# At 5,000 it makes one, and its peak RSS stays at 24 MB.
_WORKER_GC_THRESHOLD = 5_000


def _start_worker() -> None:
    """Pool initializer: raise only the young generation's collection
    threshold; the older generations keep theirs, so cycles are still freed."""
    gc.set_threshold(_WORKER_GC_THRESHOLD)


def _worker(job: tuple[dict, EngineConfig, Predictor]) -> dict:
    pair, cfg, predictor = job
    try:
        return _analyze_pair(pair, cfg, predictor)
    except (SyntaxError, ValueError) as exc:
        return {"id": pair["id"], "_error": str(exc)}
    except Exception:  # a fault in one pair must not abort the batch
        return {"id": pair["id"], "_error": traceback.format_exc().rstrip()}


def _work_chunk(chunk: list) -> list[dict]:
    return [_worker(job) for job in chunk]


def _alone(job: tuple[dict, EngineConfig, Predictor]) -> dict:
    """One pair's record from a fresh one-worker pool, so that a worker that
    dies takes only this pair with it."""
    try:
        with concurrent.futures.ProcessPoolExecutor(1, initializer=_start_worker) as pool:
            return pool.submit(_work_chunk, [job]).result()[0]
    except concurrent.futures.BrokenExecutor:
        return {"id": job[0]["id"], "_error": "pool worker stopped"}


def _format_text(result: dict) -> str:
    cov = result["coverage"]
    lines = [
        f"{result['id']}: {result['verdict']} after {result['iterations']} iteration"
        f"{'s' if result['iterations'] != 1 else ''}",
        (
            f"  coverage: overall {cov['overall']:.2f}"
            f" (old {cov['per_side'][0]:.2f}, new {cov['per_side'][1]:.2f};"
            f" changed old {cov['changed_old']:.2f}, new {cov['changed_new']:.2f})"
        ),
    ]
    if "difference" in result:
        for line in result["difference"]["detail"].splitlines():
            lines.append(f"  {line}")
    return "\n".join(lines)


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command line parser, built once per process."""
    parser = argparse.ArgumentParser(
        prog="pairguard",
        description="Classify the behavioral impact of a change between two function versions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("analyze", help="analyze one pair file or a directory of them")
    run.add_argument("path", help="pair file (JSON) or directory of pair files")
    # One flag per EngineConfig knob, typed and defaulted as the knob is.
    for knob in dataclasses.fields(EngineConfig):
        flag = "--" + knob.name.replace("_", "-")
        run.add_argument(flag, type=type(knob.default), default=knob.default)
    run.add_argument(
        "--predictor",
        default="heuristic",
        help="'heuristic' or 'table:<path>' for a JSON lookup table",
    )
    run.add_argument("--format", choices=("text", "json"), default="text")
    run.add_argument("--out", default=None, help="write results to this file")
    run.add_argument("--jobs", type=int, default=1, help="pairs analyzed in parallel")
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = _parser().parse_args(argv)

    cfg = EngineConfig(
        **{knob.name: getattr(args, knob.name) for knob in dataclasses.fields(EngineConfig)}
    )
    try:
        cfg.validate()
        if args.jobs < 1:
            raise ConfigError("--jobs must be at least 1")
        predictor = _build_predictor(args.predictor)
        paths = _pair_paths(Path(args.path))
    except (ConfigError, FormatError, PairFileError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    failed = False
    jobs = []
    for path in paths:
        try:
            jobs.append((_load_pair(path), cfg, predictor))
        except PairFileError as exc:
            print(f"error: {exc}", file=sys.stderr)
            failed = True

    if args.jobs > 1 and len(jobs) > 1:
        # The pool forks every worker up front, so none beyond one per pair.
        # A chunk is pickled as one list, so cfg and predictor travel once
        # per chunk rather than once per pair; ~16 chunks per worker.
        workers = min(args.jobs, len(jobs))
        chunksize = max(1, len(jobs) // (workers * 16))
        chunks = [jobs[i : i + chunksize] for i in range(0, len(jobs), chunksize)]
        futures = []
        with concurrent.futures.ProcessPoolExecutor(
            max_workers=workers, initializer=_start_worker
        ) as pool:
            for chunk in chunks:
                try:
                    future = pool.submit(_work_chunk, chunk)
                except concurrent.futures.BrokenExecutor as exc:  # a worker died already
                    future = concurrent.futures.Future()
                    future.set_exception(exc)
                futures.append(future)
        finished = []
        for chunk, future in zip(chunks, futures):
            try:
                finished += future.result()
            except concurrent.futures.BrokenExecutor:
                # A worker that is killed or runs out of memory takes its
                # chunk's records with it; each of its pairs runs again alone.
                finished += map(_alone, chunk)
    else:
        finished = [_worker(job) for job in jobs]

    out_lines = []
    for result in finished:
        if "_error" in result:
            print(f"error: {result['id']}: {result['_error']}", file=sys.stderr)
            failed = True
            continue
        if args.format == "json":
            out_lines.append(json.dumps(result, sort_keys=True))
        else:
            out_lines.append(_format_text(result))

    text = "\n".join(out_lines) + ("\n" if out_lines else "")
    if args.out:
        try:
            Path(args.out).write_text(text, encoding="utf-8")
        except OSError as exc:
            print(f"error: cannot write {args.out}: {exc}", file=sys.stderr)
            return 2
    else:
        sys.stdout.write(text)
    return 2 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
