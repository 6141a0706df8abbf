"""Per-book work in worker processes: pool sizing, the pool under every
start method, one in-flight cap shared by every worker's remote backend,
and a worker that dies mid-batch."""

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
    assert _workers(PipelineConfig(jobs=2), files[: 2 * share - 1], cpu_bound=True) == 1
    assert _workers(PipelineConfig(jobs=2), files[: 2 * share], cpu_bound=True) == 2
    assert _workers(PipelineConfig(jobs=8), files[: 5 * share], cpu_bound=True) == 5
    assert _workers(PipelineConfig(jobs=8), files, cpu_bound=True) == 8
    assert _workers(PipelineConfig(jobs=1), files, cpu_bound=True) == 1
    # waiting on a remote backend: a worker per file, up to jobs
    assert _workers(PipelineConfig(jobs=8), files[:3], cpu_bound=False) == 3
    assert _workers(PipelineConfig(jobs=2), files[:3], cpu_bound=False) == 2
    assert _workers(PipelineConfig(jobs=4), files[:1], cpu_bound=False) == 1


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


def _figure_book(path: Path, n_images: int = 8) -> None:
    path.write_bytes(
        epubgen.make_book(
            n_chapters=1,
            images=[
                {"chapter": 0, "name": f"fig{k}.png", "alt": None, "caption": f"Figure {k}"}
                for k in range(n_images)
            ],
        )
    )


def test_inflight_cap_holds_across_worker_processes(tmp_path, monkeypatch, capsys):
    src = tmp_path / "books"
    src.mkdir()
    for i in range(6):
        _figure_book(src / f"book{i}.epub")
    with MockBackendServer() as server:
        server.script.respond = figure_captions()
        server.script.delay = 0.05
        # a child process, so the server's threads are not forked into the workers
        pooled = subprocess.run(
            [sys.executable, "-m", "altgen", "repair", str(src), "-o", str(tmp_path / "two"),
             "--jobs", "2", "--backend", server.url, "--report", "json"],
            env=_env(), capture_output=True, text=True, timeout=TIMEOUT_S,
        )
        pooled_inflight = server.script.max_active
        monkeypatch.setenv("ALTGEN_EPOCH", "0")
        code = main(["repair", str(src), "-o", str(tmp_path / "one"), "--jobs", "1",
                     "--backend", server.url])
    capsys.readouterr()
    assert pooled.returncode == code == 0, pooled.stderr
    assert pooled_inflight == DEFAULT_INFLIGHT_CAP
    two, one = _outputs(tmp_path / "two"), _outputs(tmp_path / "one")
    assert all(row["alts_written"] == 8 for row in one[REPORT_FILENAME]["files"])
    assert two == one


def _die(item) -> None:
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
