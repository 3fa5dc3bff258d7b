import ast
import functools
import gc
import json
import os
import pathlib
import shutil

import pytest

import _runs
from pairguard import EngineConfig, cli, driver, engine, predictor
from pairguard.cli import main

FIXTURES = pathlib.Path(__file__).parent / "fixtures"


def write_pair(tmp_path, name="pair", **fields):
    data = {
        "id": fields.pop("id", name),
        "old": fields.pop("old", "def f(a):\n    return a + 1\n"),
        "new": fields.pop("new", "def f(a):\n    return a + 2\n"),
    }
    data.update(fields)
    p = tmp_path / f"{name}.json"
    p.write_text(json.dumps(data))
    return p


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


_analyzing_worker = cli._worker


def _dying_worker(job):
    """A pool worker that dies on pair p2, as one that is killed or runs out
    of memory does; module level, so it pickles by reference."""
    if job[0]["id"] == "p2":
        os._exit(3)
    return _analyzing_worker(job)


class TestSinglePair:
    def test_text_output(self, tmp_path, capsys):
        p = write_pair(tmp_path)
        code, out, err = run_cli(capsys, "analyze", str(p))
        assert code == 0
        assert err == ""
        assert out.startswith("pair: semantics-changing after ")
        assert "dimension: state" in out
        assert "coverage: overall" in out

    def test_json_output_schema(self, tmp_path, capsys):
        p = write_pair(tmp_path)
        code, out, err = run_cli(capsys, "analyze", str(p), "--format", "json")
        assert code == 0
        record = json.loads(out.strip())
        assert set(record) == {
            "id", "verdict", "iterations", "coverage", "wall_time_ms", "difference",
        }
        assert set(record["coverage"]) == {
            "changed_old", "changed_new", "overall", "per_side",
        }
        assert record["verdict"] == "semantics-changing"
        assert record["difference"]["dimension"] == "state"

    def test_preserving_pair_has_no_difference_key(self, tmp_path, capsys):
        s = "def f(a):\n    return a\n"
        p = write_pair(tmp_path, old=s, new=s)
        code, out, _ = run_cli(capsys, "analyze", str(p), "--format", "json")
        record = json.loads(out.strip())
        assert record["verdict"] == "likely-semantics-preserving"
        assert "difference" not in record

    def test_out_file(self, tmp_path, capsys):
        p = write_pair(tmp_path)
        target = tmp_path / "results.jsonl"
        code, out, _ = run_cli(
            capsys, "analyze", str(p), "--format", "json", "--out", str(target)
        )
        assert code == 0
        assert out == ""
        assert json.loads(target.read_text().strip())["id"] == "pair"

    def test_renames_respected(self, tmp_path, capsys):
        old = "def f(xs):\n    count = 0\n    for x in xs:\n        count += 1\n    return count\n"
        new = "def f(xs):\n    total = 0\n    for x in xs:\n        total += 1\n    return total\n"
        p = write_pair(tmp_path, old=old, new=new, renames={"count": "total"})
        code, out, _ = run_cli(capsys, "analyze", str(p), "--format", "json")
        assert json.loads(out.strip())["verdict"] == "likely-semantics-preserving"


class TestFlags:
    def test_max_iterations_flag(self, tmp_path, capsys):
        s = "def f(a):\n    return a\n"
        p = write_pair(tmp_path, old=s, new=s)
        code, out, _ = run_cli(
            capsys, "analyze", str(p), "--max-iterations", "7", "--format", "json"
        )
        assert json.loads(out.strip())["iterations"] == 7

    def test_seed_changes_are_reported_deterministically(self, tmp_path, capsys):
        p = write_pair(tmp_path)
        _, out1, _ = run_cli(capsys, "analyze", str(p), "--format", "json", "--seed", "5")
        _, out2, _ = run_cli(capsys, "analyze", str(p), "--format", "json", "--seed", "5")
        a, b = json.loads(out1.strip()), json.loads(out2.strip())
        a.pop("wall_time_ms"), b.pop("wall_time_ms")
        assert a == b

    def test_table_predictor_flag(self, tmp_path, capsys):
        table = FIXTURES / "tables" / "deep_guard.json"
        pair = FIXTURES / "pairs" / "deep_guard.json"
        code, out, _ = run_cli(
            capsys,
            "analyze", str(pair),
            "--predictor", f"table:{table}",
            "--format", "json",
        )
        assert code == 0
        assert json.loads(out.strip())["verdict"] == "inconclusive"

    def test_knob_defaults_are_engine_config_defaults(self, capsys):
        defaults = EngineConfig()
        spelled_out = [
            "--max-iterations", str(defaults.max_iterations),
            "--seed", str(defaults.seed),
            "--exception-probability", str(defaults.exception_probability),
            "--max-structure-size", str(defaults.max_structure_size),
            "--object-bias", str(defaults.object_bias),
        ]
        records = []
        for flags in ([], spelled_out):
            code, out, _ = run_cli(
                capsys, "analyze", str(FIXTURES / "pairs"), "--format", "json", *flags
            )
            assert code == 0
            records.append([json.loads(line) for line in out.splitlines()])
            for record in records[-1]:
                record.pop("wall_time_ms")
        assert len(records[0]) == 41
        assert records[0] == records[1]

    def test_invalid_predictor_spec(self, tmp_path, capsys):
        p = write_pair(tmp_path)
        code, out, err = run_cli(capsys, "analyze", str(p), "--predictor", "oracle")
        assert code == 2
        assert out == ""
        assert "predictor" in err

    def test_invalid_config(self, tmp_path, capsys):
        p = write_pair(tmp_path)
        code, _, err = run_cli(capsys, "analyze", str(p), "--max-iterations", "0")
        assert code == 2
        assert "error" in err

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_jobs_below_one_rejected(self, tmp_path, capsys, jobs):
        p = write_pair(tmp_path)
        code, out, err = run_cli(capsys, "analyze", str(p), "--jobs", jobs)
        assert code == 2
        assert out == ""
        assert err == "error: --jobs must be at least 1\n"

    @pytest.mark.parametrize("target", [".", "missing/results.jsonl"])
    def test_unwritable_out_reported(self, tmp_path, capsys, target):
        # A directory, or a file in a missing directory: the results cannot
        # be written, which is reported like an unreadable pair file.
        p = write_pair(tmp_path)
        out_path = tmp_path / target
        code, out, err = run_cli(capsys, "analyze", str(p), "--out", str(out_path))
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: cannot write {out_path}: ")
        assert "Traceback" not in err
        assert not (tmp_path / "missing").exists()

    def test_missing_table_file(self, tmp_path, capsys):
        p = write_pair(tmp_path)
        code, _, err = run_cli(
            capsys, "analyze", str(p), "--predictor", "table:/no/such/table.json"
        )
        assert code == 2
        assert "error" in err


class TestBatch:
    def fill(self, tmp_path):
        d = tmp_path / "pairs"
        d.mkdir()
        s = "def f(a):\n    return a\n"
        write_pair(d, name="b_second")
        write_pair(d, name="a_first", old=s, new=s)
        return d

    def test_directory_results_sorted_by_filename(self, tmp_path, capsys):
        d = self.fill(tmp_path)
        code, out, _ = run_cli(capsys, "analyze", str(d), "--format", "json")
        ids = [json.loads(line)["id"] for line in out.strip().splitlines()]
        assert ids == ["a_first", "b_second"]

    def test_directory_lists_json_files_in_code_point_name_order(self, tmp_path):
        for name in ("a9.json", "a.json", "notes.txt", "a10.json", "B.json"):
            (tmp_path / name).write_text("{}")
        names = [p.name for p in cli._pair_paths(tmp_path)]
        assert names == ["B.json", "a.json", "a10.json", "a9.json"]

    def test_parallel_matches_serial(self, tmp_path, capsys):
        d = self.fill(tmp_path)
        _, serial, _ = run_cli(capsys, "analyze", str(d), "--format", "json")
        _, parallel, _ = run_cli(
            capsys, "analyze", str(d), "--format", "json", "--jobs", "2"
        )

        def strip(text):
            rows = [json.loads(line) for line in text.strip().splitlines()]
            for r in rows:
                r.pop("wall_time_ms")
            return rows

        assert strip(serial) == strip(parallel)

    def test_parallel_chunks_keep_input_order(self, tmp_path, capsys, monkeypatch):
        d = tmp_path / "pairs"
        d.mkdir()
        for i in range(70):
            write_pair(d, name=f"p{i:02d}", old="def f(a):\n    return a\n",
                       new=f"def f(a):\n    return a + {i % 3}\n")
        chunks = []
        real_submit = cli.concurrent.futures.ProcessPoolExecutor.submit

        def spy(pool, fn, chunk):
            chunks.append(len(chunk))
            return real_submit(pool, fn, chunk)

        monkeypatch.setattr(cli.concurrent.futures.ProcessPoolExecutor, "submit", spy)
        args = ("analyze", str(d), "--format", "json", "--max-iterations", "5")
        _, serial, _ = run_cli(capsys, *args)
        code, parallel, _ = run_cli(capsys, *args, "--jobs", "2")
        assert code == 0
        assert chunks == [2] * 35

        def strip(text):
            rows = [json.loads(line) for line in text.strip().splitlines()]
            for r in rows:
                r.pop("wall_time_ms")
            return rows

        assert [r["id"] for r in strip(parallel)] == [f"p{i:02d}" for i in range(70)]
        assert strip(serial) == strip(parallel)

    @pytest.mark.parametrize("pairs, jobs, workers", [(2, 200, 2), (3, 2, 2), (70, 200, 70)])
    def test_no_more_workers_than_pairs(self, tmp_path, capsys, monkeypatch, pairs, jobs, workers):
        d = tmp_path / "pairs"
        d.mkdir()
        for i in range(pairs):
            write_pair(d, name=f"p{i:02d}", new=f"def f(a):\n    return a + {i % 3}\n")
        pools = []

        class SerialPool:
            """Records the pool the CLI asks for, and runs each chunk it
            submits in this process."""

            def __init__(self, max_workers, initializer=None):
                pools.append({"max_workers": max_workers, "initializer": initializer})

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, chunk):
                # Every chunk but the last is full.
                pools[-1].setdefault("chunksize", len(chunk))
                future = cli.concurrent.futures.Future()
                future.set_result(fn(chunk))
                return future

        monkeypatch.setattr(cli.concurrent.futures, "ProcessPoolExecutor", SerialPool)
        args = ("analyze", str(d), "--format", "json", "--max-iterations", "3")
        code, parallel, _ = run_cli(capsys, *args, "--jobs", str(jobs))
        assert code == 0
        assert pools == [
            {
                "max_workers": workers,
                "initializer": cli._start_worker,
                "chunksize": max(1, pairs // (workers * 16)),
            }
        ]
        assert len(parallel.splitlines()) == pairs

    def test_dead_worker_reported(self, tmp_path, capsys, monkeypatch):
        d = tmp_path / "pairs"
        d.mkdir()
        for i in range(4):
            write_pair(d, name=f"p{i}")
        monkeypatch.setattr(cli, "_worker", _dying_worker)
        code, out, err = run_cli(capsys, "analyze", str(d), "--format", "json", "--jobs", "2")
        assert code == 2
        assert [json.loads(line)["id"] for line in out.splitlines()] == ["p0", "p1", "p3"]
        assert err == "error: p2: pool worker stopped\n"

    def test_start_worker_raises_only_the_young_threshold(self):
        old = gc.get_threshold()
        try:
            cli._start_worker()
            assert gc.get_threshold() == (cli._WORKER_GC_THRESHOLD, *old[1:])
        finally:
            gc.set_threshold(*old)

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_callers_gc_threshold_unchanged(self, tmp_path, capsys, jobs):
        d = self.fill(tmp_path)
        old = gc.get_threshold()
        code, _, _ = run_cli(capsys, "analyze", str(d), "--format", "json", "--jobs", jobs)
        assert code == 0
        assert gc.get_threshold() == old

    def test_bad_file_reported_and_rest_processed(self, tmp_path, capsys):
        d = self.fill(tmp_path)
        (d / "broken.json").write_text("{nope")
        code, out, err = run_cli(capsys, "analyze", str(d), "--format", "json")
        assert code == 2
        assert "broken.json" in err
        ids = [json.loads(line)["id"] for line in out.strip().splitlines()]
        assert ids == ["a_first", "b_second"]

    def test_unparseable_subject_code_reported(self, tmp_path, capsys):
        d = tmp_path / "pairs"
        d.mkdir()
        write_pair(d, name="ok")
        write_pair(d, name="bad", old="def f(x):\n    return x & 1\n")
        code, out, err = run_cli(capsys, "analyze", str(d), "--format", "json")
        assert code == 2
        assert "bad" in err
        assert [json.loads(l)["id"] for l in out.strip().splitlines()] == ["ok"]

    def test_deeply_nested_pair_reported_and_rest_processed(self, tmp_path, capsys):
        d = tmp_path / "pairs"
        d.mkdir()
        write_pair(d, name="ok")
        deep = "def f():\n    return " + "+".join(["1"] * 600) + "\n"
        write_pair(d, name="deep", old=deep, new="def f():\n    return 1\n")
        code, out, err = run_cli(capsys, "analyze", str(d), "--format", "json")
        assert code == 2
        assert "deep" in err
        assert "Traceback" not in err
        records = [json.loads(l) for l in out.strip().splitlines()]
        assert [(r["id"], r["verdict"]) for r in records] == [("ok", "semantics-changing")]

    def test_colliding_merged_name_reported_and_rest_processed(self, tmp_path, capsys):
        d = tmp_path / "pairs"
        d.mkdir()
        write_pair(d, name="ok")
        write_pair(
            d,
            name="taken",
            old="def f():\n    t = a\n    return a_renamed_b\n",
            new="def f():\n    t = b\n    return b\n",
            renames={"a": "b"},
        )
        code, out, err = run_cli(capsys, "analyze", str(d), "--format", "json")
        assert code == 2
        assert "error: taken: merged name 'a_renamed_b' already occurs in the old function" in err
        assert [json.loads(l)["id"] for l in out.strip().splitlines()] == ["ok"]

    def test_unexpected_fault_reported_and_rest_processed(
        self, tmp_path, capsys, monkeypatch
    ):
        d = self.fill(tmp_path)
        real = cli.analyze_sources

        def faulty(old, new, **kwargs):
            if "a + 2" in new:
                raise KeyError("engine fault")
            return real(old, new, **kwargs)

        monkeypatch.setattr(cli, "analyze_sources", faulty)
        code, out, err = run_cli(capsys, "analyze", str(d), "--format", "json")
        assert code == 2
        assert "error: b_second: Traceback" in err
        assert "KeyError: 'engine fault'" in err
        assert [json.loads(l)["id"] for l in out.strip().splitlines()] == ["a_first"]

    def test_table_loaded_once_per_call(self, tmp_path, capsys, monkeypatch):
        d = self.fill(tmp_path)
        table = FIXTURES / "tables" / "deep_guard.json"
        loads = []
        real = cli.load_table_predictor
        monkeypatch.setattr(
            cli, "load_table_predictor", lambda path: loads.append(path) or real(path)
        )
        code, out, _ = run_cli(
            capsys, "analyze", str(d), "--predictor", f"table:{table}", "--format", "json"
        )
        assert code == 0
        assert len(out.strip().splitlines()) == 2
        assert loads == [str(table)]

    def test_empty_directory(self, tmp_path, capsys):
        d = tmp_path / "empty"
        d.mkdir()
        code, _, err = run_cli(capsys, "analyze", str(d))
        assert code == 2
        assert "no .json" in err


class TestPairValidation:
    def test_missing_field(self, tmp_path, capsys):
        p = tmp_path / "pair.json"
        p.write_text(json.dumps({"id": "x", "old": "def f():\n    pass\n"}))
        code, _, err = run_cli(capsys, "analyze", str(p))
        assert code == 2
        assert "'new'" in err

    def test_nonstring_field(self, tmp_path, capsys):
        p = tmp_path / "pair.json"
        p.write_text(json.dumps({"id": "x", "old": "def f():\n    pass\n", "new": 3}))
        code, _, err = run_cli(capsys, "analyze", str(p))
        assert code == 2

    def test_rename_key_must_occur_in_old(self, tmp_path, capsys):
        p = write_pair(tmp_path, renames={"ghost": "a"})
        code, _, err = run_cli(capsys, "analyze", str(p))
        assert code == 2
        assert "ghost" in err

    def test_rename_value_must_occur_in_new(self, tmp_path, capsys):
        p = write_pair(tmp_path, renames={"a": "phantom"})
        code, _, err = run_cli(capsys, "analyze", str(p))
        assert code == 2
        assert "phantom" in err

    def test_missing_path(self, capsys):
        code, _, err = run_cli(capsys, "analyze", "/no/such/pairs.json")
        assert code == 2
        assert "no such file" in err

    def test_fixture_corpus_loads_cleanly(self, capsys):
        # The bundled corpus must never be rejected as outside the grammar.
        code, out, err = run_cli(
            capsys,
            "analyze", str(FIXTURES / "pairs" / "identity_greet.json"),
            "--max-iterations", "5",
        )
        assert code == 0
        assert err == ""


class TestGoldenOutput:
    """Pins the corpus JSON output so any verdict drift is a visible diff.

    Each golden file is `pairguard analyze tests/fixtures/pairs --format json
    --seed N` with `wall_time_ms` dropped from each record: seed 0 is the
    development seed, seed 7 the held-out one. A change that alters a verdict
    must regenerate them and say why.
    """

    @staticmethod
    def assert_golden(out, seed):
        lines = []
        for line in out.splitlines():
            record = json.loads(line)
            record.pop("wall_time_ms")
            lines.append(json.dumps(record, sort_keys=True))
        golden = (FIXTURES / "golden" / f"corpus_seed{seed}.jsonl").read_text().splitlines()
        assert lines == golden

    @pytest.mark.parametrize("seed", [0, 7])
    def test_corpus_matches_golden(self, capsys, seed):
        code, out, err = run_cli(
            capsys, "analyze", str(FIXTURES / "pairs"), "--format", "json", "--seed", str(seed)
        )
        assert code == 0
        assert err == ""
        self.assert_golden(out, seed)

    def test_calls_in_one_process_share_the_parser_not_its_values(self, tmp_path, capsys):
        # The parser is built once per process; a call's flags must not
        # carry over to the next call, which falls back to the defaults
        # (k = 300, seed 0) for every flag it leaves out.
        code, _, err = run_cli(capsys, "analyze", str(write_pair(tmp_path)), "--max-iterations", "0")
        assert code == 2
        assert "max_iterations" in err
        pairs = str(FIXTURES / "pairs")
        code, out, err = run_cli(capsys, "analyze", pairs, "--format", "json", "--seed", "7")
        assert (code, err) == (0, "")
        self.assert_golden(out, 7)
        code, out, err = run_cli(capsys, "analyze", pairs, "--format", "json")
        assert (code, err) == (0, "")
        self.assert_golden(out, 0)
        assert cli._parser() is cli._parser()

    @pytest.mark.parametrize("seed", _runs.SEEDS)
    def test_batch_matches_pinned_digest(self, seed):
        # The batch benchmark's 2,000 pairs, regenerated from perfbench and
        # run through the CLI with their table predictor.
        pinned = _runs.batch_digest_path(seed).read_text().strip()
        assert _runs.batch_digest(seed) == pinned

    @pytest.mark.parametrize("seed", _runs.SEEDS)
    def test_pooled_batch_matches_pinned_digest(self, seed):
        # The same pairs through a pool of two workers, where each worker
        # parses and compiles its own pairs with its own gc threshold.
        pinned = _runs.batch_digest_path(seed).read_text().strip()
        assert _runs.batch_digest(seed, jobs=2) == pinned


def test_every_trace_target_resolves():
    """Each entry point ``perfbench/tracer.py`` wraps, and the engine's
    ``ast`` module through which it counts ``unparse``, still exists: the
    traced benchmark reports any it cannot find as missing."""
    tracer = _runs._load_perfbench("tracer")
    modules = {m.__name__: m for m in (cli, driver, engine, predictor)}
    missing = []
    for _, module_name, path in tracer.TARGETS:
        try:
            functools.reduce(getattr, path.split("."), modules[module_name])
        except AttributeError:
            missing.append(f"{module_name}.{path}")
    assert missing == []
    assert engine.ast is ast
