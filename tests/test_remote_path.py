"""The remote path end to end against the mock service: caption fan-out
within a document, document-order results under --strict, and batched
embeddings in validate."""

from __future__ import annotations

import json
import math
import time
from pathlib import Path

import pytest

import epubgen
from mockserver import MockBackendServer, figure_captions
from altgen.backend import RemoteBackend
from altgen.cli import main
from altgen.metrics import EMBED_CHUNK_PAIRS, corpus_metrics
from altgen.pipeline import REPORT_FILENAME

N_IMAGES = 8


def _book(path: Path) -> Path:
    path.write_bytes(
        epubgen.make_book(
            n_chapters=1,
            images=[
                {"chapter": 0, "name": f"fig{k}.png", "alt": None, "caption": f"Figure {k}"}
                for k in range(N_IMAGES)
            ],
        )
    )
    return path


def _repair(book: Path, out: Path, server: MockBackendServer, *extra: str) -> tuple[int, dict]:
    server.script.max_active = 0
    code = main(
        ["repair", str(book), "-o", str(out), "--backend", server.url, "--jobs", "1",
         "--report", "json", *extra]
    )
    report = json.loads((out / REPORT_FILENAME).read_text(encoding="utf-8"))
    return code, report


def _without_output_path(report: dict) -> dict:
    for row in report["files"]:
        row.pop("output_path")
    return report


def test_document_captions_overlap_and_bytes_match_sequential(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("ALTGEN_EPOCH", "0")
    book = _book(tmp_path / "book.epub")
    with MockBackendServer() as server:
        server.script.respond = figure_captions()
        code, report = _repair(book, tmp_path / "fanout", server)
        fanout_inflight = server.script.max_active
        monkeypatch.setattr(
            "altgen.pipeline.make_backend",
            lambda config: RemoteBackend(config.backend, inflight_cap=1),
        )
        seq_code, seq_report = _repair(book, tmp_path / "sequential", server)
        sequential_inflight = server.script.max_active
    capsys.readouterr()
    assert code == seq_code == 0
    assert 1 < fanout_inflight <= 4
    assert sequential_inflight == 1
    assert report["files"][0]["alts_written"] == N_IMAGES
    assert (tmp_path / "fanout" / "book.epub").read_bytes() == (
        tmp_path / "sequential" / "book.epub"
    ).read_bytes()
    assert _without_output_path(report) == _without_output_path(seq_report)


def test_strict_fails_on_first_failure_in_document_order(tmp_path, capsys):
    book = _book(tmp_path / "book.epub")
    with MockBackendServer() as server:
        # figure 5 is answered before figure 2, but figure 2 comes first
        server.script.respond = figure_captions(frozenset({2, 5}))
        strict_code, strict = _repair(book, tmp_path / "strict", server, "--strict")
        lenient_code, lenient = _repair(book, tmp_path / "lenient", server)
    capsys.readouterr()
    row = strict["files"][0]
    assert strict_code == 2
    assert row["status"] == "Failed"
    assert "no caption for figure 2" in row["reason"]
    assert row["caption_failures"] == 1
    assert not (tmp_path / "strict" / "book.epub").exists()
    row = lenient["files"][0]
    assert lenient_code == 1
    assert row["status"] == "Repaired"
    assert (row["alts_written"], row["caption_failures"]) == (N_IMAGES - 2, 2)


def _first_figure_fails(path: str, body: bytes) -> tuple[int, bytes]:
    """Figure 0 fails at once; every other figure is answered after 50 ms."""
    k = int(json.loads(body)["context"]["figcaption"].rsplit(" ", 1)[1])
    if k == 0:
        return 500, json.dumps({"error": "no caption for figure 0"}).encode("utf-8")
    time.sleep(0.05)
    return 200, json.dumps({"alt_text": f"Figure number {k}.", "confidence": 0.9}).encode("utf-8")


def test_strict_cancels_captions_queued_after_a_failure(tmp_path, capsys):
    book = _book(tmp_path / "book.epub")
    with MockBackendServer() as server:
        server.script.respond = _first_figure_fails
        code, report = _repair(book, tmp_path / "strict", server, "--strict")
        sent = {
            json.loads(r.body)["context"]["figcaption"]
            for r in server.script.requests
            if r.path == "/v1/caption"
        }
    capsys.readouterr()
    row = report["files"][0]
    assert code == 2
    assert row["status"] == "Failed"
    assert row["reason"] == (
        "backend failure with --strict: status 500: "
        '{"error": "no caption for figure 0"}'
    )
    assert row["caption_failures"] == 1
    # at most figures 1-3 started alongside figure 0; figures 4-7 were never sent
    assert "Figure 0" in sent
    assert sent <= {f"Figure {k}" for k in range(4)}


def _hashed_embeddings(failing_text: str | None = None):
    def respond(path: str, body: bytes) -> tuple[int, bytes]:
        texts = json.loads(body)["texts"]
        if failing_text in texts:
            return 400, b'{"error": "text refused"}'
        vectors = []
        for text in texts:
            vec = [0.0] * 8
            for word in text.split():
                vec[sum(map(ord, word)) % 8] += 1.0
            norm = math.sqrt(sum(x * x for x in vec)) or 1.0
            vectors.append([x / norm for x in vec])
        return 200, json.dumps({"embeddings": vectors}).encode("utf-8")

    return respond


@pytest.mark.parametrize("n_pairs", [1, EMBED_CHUNK_PAIRS, 2 * EMBED_CHUNK_PAIRS + 3])
def test_validate_embeds_one_request_per_chunk(n_pairs):
    pairs = [(f"a red fox {k}", f"the fox at dusk {k % 3}") for k in range(n_pairs)]
    with MockBackendServer() as server:
        server.script.respond = _hashed_embeddings()
        report = corpus_metrics(pairs, RemoteBackend(server.url).embed_texts)
        sizes = [len(json.loads(r.body)["texts"]) for r in server.script.requests]
    assert len(sizes) == math.ceil(n_pairs / EMBED_CHUNK_PAIRS)
    assert sum(sizes) == 2 * n_pairs and max(sizes) <= 2 * EMBED_CHUNK_PAIRS
    assert report.embed_failures == 0


def test_refused_text_fails_only_its_pair():
    pairs = [(f"a red fox {k}", "the fox at dusk") for k in range(EMBED_CHUNK_PAIRS + 2)]
    with MockBackendServer() as server:
        server.script.respond = _hashed_embeddings(failing_text="a red fox 3")
        report = corpus_metrics(pairs, RemoteBackend(server.url).embed_texts)
        sizes = [len(json.loads(r.body)["texts"]) for r in server.script.requests]
    # the first chunk is refused and retried pair by pair; the second is not
    assert sizes == [2 * EMBED_CHUNK_PAIRS] + [2] * EMBED_CHUNK_PAIRS + [4]
    assert report.embed_failures == 1
    assert report.n_pairs == EMBED_CHUNK_PAIRS + 2
