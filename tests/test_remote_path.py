"""The remote path end to end against the mock service: caption fan-out
across a whole book, book-order results under --strict, batched embeddings
sent concurrently in validate, and replies that are not HTTP."""

from __future__ import annotations

import json
import math
import threading
import time
from pathlib import Path

import pytest

import epubgen
from mockserver import MockBackendServer, RawReplyServer, figure_captions
from altgen.backend import RemoteBackend
from altgen.cli import main
from altgen.container import open_epub
from altgen.content import find_images
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


def _hashed_embeddings(failing_text: str | None = None, dims: int = 8):
    def respond(path: str, body: bytes) -> tuple[int, bytes]:
        texts = json.loads(body)["texts"]
        if failing_text in texts:
            return 400, b'{"error": "text refused"}'
        vectors = []
        for text in texts:
            vec = [0.0] * dims
            for word in text.split():
                vec[sum(map(ord, word)) % dims] += 1.0
            norm = math.sqrt(sum(x * x for x in vec)) or 1.0
            vectors.append([x / norm for x in vec])
        return 200, json.dumps({"embeddings": vectors}).encode("utf-8")

    return respond


@pytest.mark.parametrize("n_pairs", [1, EMBED_CHUNK_PAIRS, 2 * EMBED_CHUNK_PAIRS + 3])
def test_validate_embeds_one_request_per_chunk(n_pairs):
    pairs = [(f"a red fox {k}", f"the fox at dusk {k % 3}") for k in range(n_pairs)]
    with MockBackendServer() as server:
        server.script.respond = _hashed_embeddings()
        backend = RemoteBackend(server.url)
        report = corpus_metrics(pairs, backend.embed_texts, mapper=backend.map_requests)
        sizes = [len(json.loads(r.body)["texts"]) for r in server.script.requests]
    assert len(sizes) == math.ceil(n_pairs / EMBED_CHUNK_PAIRS)
    assert sum(sizes) == 2 * n_pairs and max(sizes) <= 2 * EMBED_CHUNK_PAIRS
    assert report.embed_failures == 0


def test_refused_text_fails_only_its_pair():
    pairs = [(f"a red fox {k}", "the fox at dusk") for k in range(EMBED_CHUNK_PAIRS + 2)]
    with MockBackendServer() as server:
        server.script.respond = _hashed_embeddings(failing_text="a red fox 3")
        backend = RemoteBackend(server.url)
        report = corpus_metrics(pairs, backend.embed_texts, mapper=backend.map_requests)
        sizes = [len(json.loads(r.body)["texts"]) for r in server.script.requests]
    # the first chunk is refused and retried pair by pair; the second is not.
    # The chunks run concurrently, so only the multiset of sizes is fixed.
    assert sorted(sizes) == sorted([2 * EMBED_CHUNK_PAIRS] + [2] * EMBED_CHUNK_PAIRS + [4])
    assert report.embed_failures == 1
    assert report.n_pairs == EMBED_CHUNK_PAIRS + 2


def test_refused_text_in_a_full_remote_chunk_fails_only_its_pair():
    n_pairs = 4 * 86  # four chunks of 86 pairs, one per in-flight slot
    pairs = [(f"a red fox {k}", "the fox at dusk") for k in range(n_pairs)]
    embed = _hashed_embeddings(failing_text="a red fox 100")
    lock = threading.Lock()
    retries = {"active": 0, "peak": 0}

    def respond(path: str, body: bytes) -> tuple[int, bytes]:
        if len(json.loads(body)["texts"]) > 2:
            return embed(path, body)
        with lock:
            retries["active"] += 1
            retries["peak"] = max(retries["peak"], retries["active"])
        try:
            time.sleep(0.005)
            return embed(path, body)
        finally:
            with lock:
                retries["active"] -= 1

    with MockBackendServer() as server:
        server.script.respond = respond
        backend = RemoteBackend(server.url)
        chunk_pairs = backend.embed_chunk_pairs(n_pairs)
        report = corpus_metrics(
            pairs, backend.embed_texts, mapper=backend.map_requests, chunk_pairs=chunk_pairs
        )
        sizes = [len(json.loads(r.body)["texts"]) for r in server.script.requests]
    assert chunk_pairs == 86
    # the second chunk is refused and its 86 pairs retried one per request
    assert sorted(sizes) == [2] * 86 + [172] * 4
    assert report.embed_failures == 1
    assert report.n_pairs == n_pairs
    assert 1 < retries["peak"] <= 4


def test_wide_vectors_split_the_request_in_halves_not_pairs(monkeypatch):
    n_pairs = 4 * 86
    pairs = [(f"a red fox {k}", f"the fox at dusk {k % 5}") for k in range(n_pairs)]
    with MockBackendServer() as server:
        server.script.respond = _hashed_embeddings(dims=1024)
        backend = RemoteBackend(server.url)
        chunk_pairs = backend.embed_chunk_pairs(n_pairs)
        wanted = corpus_metrics(
            pairs, backend.embed_texts, mapper=backend.map_requests, chunk_pairs=chunk_pairs
        )
        # a 172-text reply of 1024-wide rows is about 0.9 MB, an 86-text one
        # about 0.45 MB: with a 0.5 MB cap each chunk is asked for in halves
        monkeypatch.setattr("altgen.backend.MAX_RESPONSE_BYTES", 500_000)
        del server.script.requests[:]
        report = corpus_metrics(
            pairs, backend.embed_texts, mapper=backend.map_requests, chunk_pairs=chunk_pairs
        )
        sizes = [len(json.loads(r.body)["texts"]) for r in server.script.requests]
    assert sorted(sizes) == [86] * 8 + [172] * 4
    assert report == wanted
    assert report.embed_failures == 0


def _one_figure_per_chapter(path: Path, n_chapters: int) -> Path:
    path.write_bytes(
        epubgen.make_book(
            n_chapters=n_chapters,
            images=[
                {"chapter": k, "name": f"fig{k}.png", "alt": None, "caption": f"Figure {k}"}
                for k in range(n_chapters)
            ],
        )
    )
    return path


def test_book_captions_overlap_across_chapters(tmp_path, monkeypatch, capsys):
    # one target per chapter: a fan-out per chapter would send them one at a time
    monkeypatch.setenv("ALTGEN_EPOCH", "0")
    book = _one_figure_per_chapter(tmp_path / "book.epub", 3)
    with MockBackendServer() as server:
        server.script.respond = figure_captions()
        code, report = _repair(book, tmp_path / "fanout", server)
        fanout_inflight = server.script.max_active
        monkeypatch.setattr(
            "altgen.pipeline.make_backend",
            lambda config: RemoteBackend(config.backend, inflight_cap=1),
        )
        seq_code, seq_report = _repair(book, tmp_path / "sequential", server)
    capsys.readouterr()
    assert code == seq_code == 0
    assert 1 < fanout_inflight <= 3
    assert report["files"][0]["alts_written"] == 3
    assert (tmp_path / "fanout" / "book.epub").read_bytes() == (
        tmp_path / "sequential" / "book.epub"
    ).read_bytes()
    assert _without_output_path(report) == _without_output_path(seq_report)


def test_strict_fails_on_first_failure_in_book_order(tmp_path, capsys):
    book = _one_figure_per_chapter(tmp_path / "book.epub", 4)
    with MockBackendServer() as server:
        # chapter 4's figure fails before chapter 2's, which comes first in the book
        server.script.respond = figure_captions(frozenset({1, 3}))
        code, report = _repair(book, tmp_path / "strict", server, "--strict")
    capsys.readouterr()
    row = report["files"][0]
    assert code == 2
    assert row["status"] == "Failed"
    assert "no caption for figure 1" in row["reason"]
    assert row["caption_failures"] == 1
    assert not (tmp_path / "strict" / "book.epub").exists()


def _repaired_with_references(tmp_path: Path, n_images: int) -> tuple[Path, Path]:
    """A book repaired with the stub, and a reference for each of its alts."""
    book = tmp_path / "book.epub"
    book.write_bytes(
        epubgen.make_book(
            n_chapters=2,
            images=[
                {"chapter": k % 2, "name": f"fig{k}.png", "alt": None, "caption": f"Figure {k}"}
                for k in range(n_images)
            ],
        )
    )
    out = tmp_path / "repaired"
    assert main(["repair", str(book), "-o", str(out), "--backend", "stub", "--jobs", "1"]) == 0
    repaired = open_epub((out / "book.epub").read_bytes())
    rows = []
    for doc in ("OEBPS/ch1.xhtml", "OEBPS/ch2.xhtml"):
        for index, occ in enumerate(find_images(repaired.entry(doc), doc)):
            rows.append({"epub": "book.epub", "doc": doc, "index": index,
                         "alt": f"a figure of the harbour {index % 3}"})
    refs = tmp_path / "refs.json"
    refs.write_text(json.dumps(rows), encoding="utf-8")
    return out, refs


def _validate(out: Path, refs: Path, url: str, capsys) -> tuple[int, dict]:
    capsys.readouterr()
    code = main(["validate", str(out), "--references", str(refs), "--backend", url,
                 "--report", "json"])
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    return code, json.loads(captured.out)


def test_validate_embeds_chunks_concurrently_with_the_same_report(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("ALTGEN_EPOCH", "0")
    n_images = 6 * EMBED_CHUNK_PAIRS + 5  # one request per in-flight slot
    out, refs = _repaired_with_references(tmp_path, n_images)
    with MockBackendServer() as server:
        server.script.respond = _hashed_embeddings()
        server.script.delay = 0.02
        code, report = _validate(out, refs, server.url, capsys)
        concurrent = (server.script.max_active, len(server.script.requests))
        server.script.max_active = 0
        monkeypatch.setattr(
            "altgen.pipeline.make_backend",
            lambda config: RemoteBackend(config.backend, inflight_cap=1),
        )
        seq_code, seq_report = _validate(out, refs, server.url, capsys)
        sequential_inflight = server.script.max_active
    assert code == seq_code == 0
    assert 1 < concurrent[0] <= 4 and concurrent[1] == 4
    assert sequential_inflight == 1
    assert report["n_pairs"] == n_images and report["embed_failures"] == 0
    assert report == seq_report


NOT_HTTP = b"GARBAGE\r\n\r\n"


def test_repair_records_a_reply_that_is_not_http(tmp_path, capsys):
    book = _book(tmp_path / "book.epub")
    with RawReplyServer(NOT_HTTP) as server:
        code = main(["repair", str(book), "-o", str(tmp_path / "lenient"), "--backend",
                     server.url, "--jobs", "1"])
        strict_code = main(["repair", str(book), "-o", str(tmp_path / "strict"), "--backend",
                            server.url, "--jobs", "1", "--strict"])
    assert "Traceback" not in capsys.readouterr().err
    lenient = json.loads((tmp_path / "lenient" / REPORT_FILENAME).read_text(encoding="utf-8"))
    row = lenient["files"][0]
    assert code == 1
    assert (row["alts_written"], row["caption_failures"]) == (0, N_IMAGES)
    strict = json.loads((tmp_path / "strict" / REPORT_FILENAME).read_text(encoding="utf-8"))
    row = strict["files"][0]
    assert strict_code == 2
    assert row["status"] == "Failed"
    assert row["reason"].startswith("backend failure with --strict: reply is not HTTP")
    assert row["caption_failures"] == 1


def test_validate_counts_a_reply_that_is_not_http(tmp_path, capsys):
    out, refs = _repaired_with_references(tmp_path, 3)
    with RawReplyServer(NOT_HTTP) as server:
        code, report = _validate(out, refs, server.url, capsys)
    assert code == 0
    assert (report["n_pairs"], report["embed_failures"], report["cosine"]) == (3, 3, None)


def test_manifest_href_naming_no_entry_fails_before_captioning(tmp_path, capsys):
    # two images lack alt, and the manifest names an image the book lacks:
    # the book fails with the integrity check's reason, and no caption is
    # asked for
    figures = "".join(
        epubgen.figure_html(f"images/fig{k}.png", None, caption=f"Figure {k}") for k in range(2)
    )
    manifest = [("c1", "ch1.xhtml", "application/xhtml+xml")]
    manifest += [(f"img{k}", f"images/fig{k}.png", "image/png") for k in range(2)]
    manifest.append(("gone", "images/gone.png", "image/png"))
    book = tmp_path / "book.epub"
    book.write_bytes(
        epubgen.build_zip(
            [
                ("META-INF/container.xml", epubgen.container_xml()),
                ("OEBPS/ch1.xhtml", epubgen.page(figures)),
                ("OEBPS/content.opf", epubgen.opf(manifest=manifest, spine=["c1"])),
                ("OEBPS/images/fig0.png", epubgen.tiny_png()),
                ("OEBPS/images/fig1.png", epubgen.tiny_png()),
            ]
        )
    )
    with MockBackendServer() as server:
        server.script.respond = figure_captions()
        code, report = _repair(book, tmp_path / "out", server)
    assert "Traceback" not in capsys.readouterr().err
    assert [r.path for r in server.script.requests] == []
    row = report["files"][0]
    assert row["status"] == "Failed"
    assert row["reason"] == "ManifestDanglingHref: OEBPS/images/gone.png"
    assert code == 2
