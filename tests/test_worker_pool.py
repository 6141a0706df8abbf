"""Per-book work run in parallel: pool sizing, the stub pool under every
start method, remote books on threads under one in-flight cap, a book that
raises what nobody expected, and a worker process that dies mid-batch."""

from __future__ import annotations

import json
import multiprocessing
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import epubgen
from mockserver import MockBackendServer, figure_captions
from test_acceptance import build_err_corpus

from altgen import pipeline
from altgen.audit import audit
from altgen.backend import DEFAULT_INFLIGHT_CAP
from altgen.cli import main
from altgen.pipeline import (
    CPU_BOOKS_PER_WORKER,
    REPORT_FILENAME,
    PipelineConfig,
    _largest_first,
    _workers,
)

SRC = Path(pipeline.__file__).resolve().parent.parent
TIMEOUT_S = 120


def _env() -> dict[str, str]:
    env = dict(os.environ, ALTGEN_EPOCH="0")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def _outputs(out: Path) -> dict[str, object]:
    """Every book's bytes, and the report without output paths."""
    snapshot: dict[str, object] = {p.name: p.read_bytes() for p in sorted(out.glob("*.epub"))}
    report = json.loads((out / REPORT_FILENAME).read_text(encoding="utf-8"))
    for row in report["files"]:
        row.pop("output_path")
    snapshot[REPORT_FILENAME] = report
    return snapshot


def _pooled_corpus(directory: Path) -> Path:
    """The C7 books copied under new names until two CPU-bound workers
    have a share each."""
    build_err_corpus(directory)
    books = sorted(directory.iterdir())
    for k in range(1, -(-2 * CPU_BOOKS_PER_WORKER // len(books))):
        for book in books:
            shutil.copyfile(book, directory / f"copy{k}-{book.name}")
    return directory


def test_worker_count():
    files = [Path(f"{k}.epub") for k in range(10 * CPU_BOOKS_PER_WORKER)]
    share = CPU_BOOKS_PER_WORKER
    assert _workers(PipelineConfig(jobs=2), files[: 2 * share - 1]) == 1
    assert _workers(PipelineConfig(jobs=2), files[: 2 * share]) == 2
    assert _workers(PipelineConfig(jobs=8), files[: 5 * share]) == 5
    assert _workers(PipelineConfig(jobs=8), files) == 8
    assert _workers(PipelineConfig(jobs=1), files) == 1


def test_largest_books_go_first(tmp_path):
    for name, size in (("a.epub", 10), ("b.epub", 30), ("c.epub", 20)):
        (tmp_path / name).write_bytes(b"x" * size)
    files = [tmp_path / n for n in ("gone.epub", "a.epub", "b.epub", "c.epub")]
    # a file that cannot be read sorts as empty; its worker reports the error
    assert [p.name for p in _largest_first(files)] == ["b.epub", "c.epub", "a.epub", "gone.epub"]


@pytest.mark.parametrize("method", multiprocessing.get_all_start_methods())
def test_every_start_method_matches_jobs_1(method, tmp_path, monkeypatch, capsys):
    src = _pooled_corpus(tmp_path / "corpus")
    script = (
        "import multiprocessing, sys\n"
        "multiprocessing.set_start_method(sys.argv[1])\n"
        "from altgen import pipeline\n"
        "from altgen.cli import main\n"
        "run_pool = pipeline._run_pool\n"
        "def announced(*args):\n"
        "    print('pooled', file=sys.stderr)\n"
        "    return run_pool(*args)\n"
        "pipeline._run_pool = announced\n"
        "sys.exit(main(sys.argv[2:]))\n"
    )
    pooled = subprocess.run(
        [sys.executable, "-c", script, method, "repair", str(src), "-o", str(tmp_path / "two"),
         "--jobs", "2", "--report", "json"],
        env=_env(), capture_output=True, text=True, timeout=TIMEOUT_S,
    )
    assert pooled.returncode == 0, pooled.stderr
    assert pooled.stderr.splitlines() == ["pooled"]
    monkeypatch.setenv("ALTGEN_EPOCH", "0")
    assert main(["repair", str(src), "-o", str(tmp_path / "one"), "--jobs", "1"]) == 0
    capsys.readouterr()
    two, one = _outputs(tmp_path / "two"), _outputs(tmp_path / "one")
    assert len(one) > 2 * CPU_BOOKS_PER_WORKER
    assert two == one


def _figure_book(path: Path, numbers=range(8)) -> None:
    path.write_bytes(
        epubgen.make_book(
            n_chapters=1,
            images=[
                {"chapter": 0, "name": f"fig{k}.png", "alt": None, "caption": f"Figure {k}"}
                for k in numbers
            ],
        )
    )


def _remote_repair(src: Path, out: Path, url: str, jobs: int, *flags: str) -> int:
    return main(["repair", str(src), "-o", str(out), "--jobs", str(jobs), "--backend", url,
                 "--report", "json", *flags])


def test_inflight_cap_holds_across_book_threads(tmp_path, monkeypatch, capsys):
    src = tmp_path / "books"
    src.mkdir()
    for i in range(6):
        _figure_book(src / f"book{i}.epub")
    monkeypatch.setenv("ALTGEN_EPOCH", "0")
    with MockBackendServer() as server:
        server.script.respond = figure_captions()
        server.script.delay = 0.05
        threaded = _remote_repair(src, tmp_path / "two", server.url, 2)
        threaded_inflight = server.script.max_active
        code = _remote_repair(src, tmp_path / "one", server.url, 1)
    capsys.readouterr()
    assert threaded == code == 0
    assert threaded_inflight == DEFAULT_INFLIGHT_CAP
    two, one = _outputs(tmp_path / "two"), _outputs(tmp_path / "one")
    assert all(row["alts_written"] == 8 for row in one[REPORT_FILENAME]["files"])
    assert two == one


def test_strict_book_threads_match_jobs_1(tmp_path, monkeypatch, capsys):
    # one book's caption fails: --strict fails that book only, on any --jobs
    src = tmp_path / "books"
    src.mkdir()
    _figure_book(src / "good.epub")
    _figure_book(src / "bad.epub", range(8, 12))
    monkeypatch.setenv("ALTGEN_EPOCH", "0")
    with MockBackendServer() as server:
        server.script.respond = figure_captions(failing=frozenset({9}))
        threaded = _remote_repair(src, tmp_path / "two", server.url, 2, "--strict")
        code = _remote_repair(src, tmp_path / "one", server.url, 1, "--strict")
    capsys.readouterr()
    assert threaded == code == 2
    two, one = _outputs(tmp_path / "two"), _outputs(tmp_path / "one")
    rows = {Path(row["input_path"]).name: row for row in one[REPORT_FILENAME]["files"]}
    assert rows["good.epub"]["status"] == "Repaired"
    assert rows["bad.epub"]["status"] == "Failed"
    assert "--strict" in rows["bad.epub"]["reason"]
    assert sorted(one) == [REPORT_FILENAME, "good.epub"]
    assert two == one


def _die(item, config=None) -> None:
    """A pool task whose worker process exits at once."""
    os._exit(3)


@pytest.mark.parametrize("command,task", [("audit", "_audit_one"), ("repair", "_repair_task")])
def test_dead_worker_is_a_pipeline_error(command, task, tmp_path, monkeypatch, capsys):
    src = _pooled_corpus(tmp_path / "corpus")
    monkeypatch.setattr(pipeline, task, _die)
    argv = [command, str(src), "--jobs", "2"]
    if command == "repair":
        argv += ["-o", str(tmp_path / "out")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("altgen: error: a worker process died")
    assert "Traceback" not in err


@pytest.mark.skipif(
    "forkserver" not in multiprocessing.get_all_start_methods(), reason="no forkserver"
)
def test_pool_workers_take_altgen_epoch_from_the_caller(tmp_path):
    # a forkserver keeps the environment it was started with: the first
    # pooled audit starts it without ALTGEN_EPOCH, and the second, with the
    # variable set, must still read a frozen clock in every worker
    src = _pooled_corpus(tmp_path / "corpus")
    script = (
        "import multiprocessing, os, sys\n"
        "multiprocessing.set_start_method('forkserver')\n"
        "from altgen import pipeline\n"
        "from altgen.pipeline import PipelineConfig, run_audit\n"
        "run_pool = pipeline._run_pool\n"
        "def announced(*args):\n"
        "    print('pooled', file=sys.stderr)\n"
        "    return run_pool(*args)\n"
        "pipeline._run_pool = announced\n"
        "for epoch in (None, '0'):\n"
        "    if epoch is not None:\n"
        "        os.environ['ALTGEN_EPOCH'] = epoch\n"
        "    results, _ = run_audit([sys.argv[1]], PipelineConfig(jobs=2))\n"
        "    print(' '.join(repr(r.elapsed_seconds) for r in results))\n"
    )
    env = _env()
    del env["ALTGEN_EPOCH"]
    proc = subprocess.run(
        [sys.executable, "-c", script, str(src)],
        env=env, capture_output=True, text=True, timeout=TIMEOUT_S,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr.splitlines() == ["pooled", "pooled"]
    running, frozen = (line.split() for line in proc.stdout.splitlines())
    assert len(frozen) == len(running) >= 2 * CPU_BOOKS_PER_WORKER
    assert any(float(t) > 0 for t in running)
    assert set(frozen) == {"0.0"}


FAULT_ENTRY = "OEBPS/fault.txt"
_AUDIT_ONE, _REPAIR_TASK = pipeline._audit_one, pipeline._repair_task


def _audit_or_fault(archive, pkg, images=None):
    """audit, but a fault in altgen itself on the book that holds FAULT_ENTRY."""
    if archive.entry(FAULT_ENTRY) is not None:
        raise RecursionError("maximum recursion depth exceeded")
    return audit(archive, pkg, images)


def _as_in_test_process() -> None:
    """A pool worker that did not fork from this test (spawn, or a forkserver
    an earlier test started) lacks the patched audit; the test's pool tasks
    set it in their worker. The pool itself gives them ALTGEN_EPOCH."""
    pipeline.audit = _audit_or_fault


def _faulty_audit_one(path):
    _as_in_test_process()
    return _AUDIT_ONE(path)


def _faulty_repair_task(item, config):
    _as_in_test_process()
    return _REPAIR_TASK(item, config)


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("command", ["audit", "repair"])
def test_internal_error_fails_only_its_book(command, jobs, tmp_path, monkeypatch, capfd):
    src = _pooled_corpus(tmp_path / "corpus")
    monkeypatch.setenv("ALTGEN_EPOCH", "0")
    monkeypatch.setattr(pipeline, "audit", _audit_or_fault)
    monkeypatch.setattr(pipeline, "_audit_one", _faulty_audit_one)
    monkeypatch.setattr(pipeline, "_repair_task", _faulty_repair_task)

    def run(out: Path) -> tuple[int, dict]:
        argv = [command, str(src), "--jobs", str(jobs), "--report", "json"]
        if command == "repair":
            argv += ["-o", str(out)]
        code = main(argv)
        out, err = capfd.readouterr()
        report = json.loads(out)
        for row in report["files"]:
            row.pop("output_path", None)
        return code, report, err

    clean_code, clean, clean_err = run(tmp_path / "clean")
    (src / "fault.epub").write_bytes(epubgen.make_book(extra_entries=[(FAULT_ENTRY, b"")]))
    code, faulty, err = run(tmp_path / "faulty")

    assert clean_code != 2
    assert code == 2
    # the traceback, which the report leaves out, goes to stderr: once, and
    # naming the book and the function that raised
    assert "Traceback" not in clean_err
    assert err.count("Traceback (most recent call last):") == 1
    assert f"altgen: internal error on {src / 'fault.epub'}:" in err
    assert ", in _audit_or_fault\n" in err
    assert err.rstrip().endswith("RecursionError: maximum recursion depth exceeded")
    [failed] = [row for row in faulty["files"] if row["input_path"].endswith("fault.epub")]
    assert failed["status"] == "Failed"
    assert failed["reason"] == "internal error: RecursionError: maximum recursion depth exceeded"
    faulty["files"].remove(failed)
    assert faulty == clean
    assert len(clean["files"]) >= 2 * CPU_BOOKS_PER_WORKER
    if command == "repair":
        # the report is still written; every other book's bytes are as they were
        faulty_out, clean_out = _outputs(tmp_path / "faulty"), _outputs(tmp_path / "clean")
        assert failed in faulty_out.pop(REPORT_FILENAME)["files"]
        clean_out.pop(REPORT_FILENAME)
        assert faulty_out == clean_out
