"""Tests of the benchmark's own parts: checker, generator and span arithmetic.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import io
import random
import zipfile
from xml.sax.saxutils import escape

import checker
import corpus
import pytest
from run import slope
from tracer import Span, self_times, summarize, union_length


def _small_book() -> corpus.Book:
    rng = random.Random(0)
    text = corpus._Text(rng, "en", {})
    blocks = [
        text.sentence(),
        corpus._image(rng, text, "target", "a.png"),
        corpus._image(rng, text, "decorative", "b.png"),
        corpus._image(rng, text, "adequate", "c.png"),
        corpus._image(rng, text, "target", "d.png"),
    ]
    return corpus.Book("small.epub", "en", [blocks, [text.sentence()]], title="Small")


def _rewrite(data: bytes, change) -> bytes:
    """Copy a zip entry by entry, keeping each ZipInfo; change(info, data)
    returns the new data (or the same)."""
    out = io.BytesIO()
    with zipfile.ZipFile(io.BytesIO(data)) as src, zipfile.ZipFile(out, "w") as dst:
        for info in src.infolist():
            dst.writestr(info, change(info, src.read(info)))
    return out.getvalue()


def _add_alts(info: zipfile.ZipInfo, data: bytes) -> bytes:
    if info.filename != "OEBPS/ch1.xhtml":
        return data
    text = data.decode("utf-8")
    for name in ("a.png", "d.png"):
        text = text.replace(f'src="images/{name}"/>', f'src="images/{name}" alt="A picture"/>')
    return text.encode("utf-8")


@pytest.fixture
def repaired():
    book = _small_book()
    row = corpus.Corpus("test", 0, [book]).truth()["books"][0]
    src = corpus.book_bytes(book)
    return src, _rewrite(src, _add_alts), row


def test_checker_accepts_a_correct_repair(repaired):
    src, out, row = repaired
    assert row["changed"] == ["OEBPS/ch1.xhtml"]
    assert checker.check_repaired_book(src, out, row, 250) == []


def test_checker_rejects_compressed_mimetype(repaired):
    src, out, row = repaired
    buf = io.BytesIO()
    with zipfile.ZipFile(io.BytesIO(out)) as zin, zipfile.ZipFile(buf, "w") as zout:
        for info in zin.infolist():
            data = zin.read(info)
            if info.filename == "mimetype":
                info.compress_type = zipfile.ZIP_DEFLATED
            zout.writestr(info, data)
    problems = checker.check_repaired_book(src, buf.getvalue(), row, 250)
    assert "mimetype entry is compressed" in problems


def test_checker_rejects_a_dropped_alt(repaired):
    src, out, row = repaired

    def drop(info, data):
        if info.filename != "OEBPS/ch1.xhtml":
            return data
        return data.replace(b'src="images/d.png" alt="A picture"', b'src="images/d.png"', 1)

    problems = checker.check_repaired_book(src, _rewrite(out, drop), row, 250)
    assert any("image 3: no alt written" in p for p in problems)


def test_checker_rejects_a_changed_untouched_entry(repaired):
    src, out, row = repaired

    def touch(info, data):
        return data + b"\n" if info.filename == "OEBPS/ch2.xhtml" else data

    problems = checker.check_repaired_book(src, _rewrite(out, touch), row, 250)
    assert problems == ["OEBPS/ch2.xhtml: untouched entry changed"]


def test_checker_rejects_an_overlong_or_changed_adequate_alt(repaired):
    src, out, row = repaired
    assert checker.check_repaired_book(src, out, row, 5)
    adequate = row["images"]["OEBPS/ch1.xhtml"][2]["alt"]

    def edit(info, data):
        if info.filename != "OEBPS/ch1.xhtml":
            return data
        return data.replace(escape(adequate, {'"': "&quot;"}).encode(), b"Something else")

    problems = checker.check_repaired_book(src, _rewrite(out, edit), row, 250)
    assert any("adequate alt changed" in p for p in problems)


@pytest.mark.parametrize("workload", sorted(corpus._BUILDERS))
def test_generator_is_seeded(workload):
    def books(seed):
        return [corpus.book_bytes(b) for b in corpus.build(workload, seed).books]

    first = books(7)
    assert first == books(7)
    assert first != books(8)


def test_generator_truth_matches_references():
    built = corpus.build("remote", 3)
    truth = built.truth()["books"]
    targets = sum(
        i["kind"] == "target" for row in truth for imgs in row["images"].values() for i in imgs
    )
    assert len(built.references()) == targets
    assert all(row["status"] == "Repaired" for row in truth)


def test_union_length_merges_overlaps():
    assert union_length([]) == 0.0
    assert union_length([(1.0, 3.0), (2.0, 5.0), (7.0, 8.0)]) == pytest.approx(5.0)
    assert union_length([(0.0, 4.0), (1.0, 2.0)]) == pytest.approx(4.0)


def test_self_time_subtracts_covered_child_time():
    spans = [
        Span("root", 0.0, 10.0),
        Span("a", 1.0, 3.0, parent=0),
        Span("b", 2.0, 5.0, parent=0, thread=1),  # overlaps a on another thread
        Span("c", 8.0, 12.0, parent=0),  # clipped to the parent's end
        Span("grandchild", 1.5, 2.5, parent=1),
    ]
    assert self_times(spans) == pytest.approx([4.0, 1.0, 3.0, 4.0, 1.0])
    summary = summarize(spans + [Span("a", 20.0, 21.0, error="BackendError")])
    assert summary["a"] == pytest.approx({"s": 3.0, "self_s": 2.0, "calls": 2, "errors": 1})


def test_slope_of_power_law():
    xs = [50, 100, 200, 400]
    assert slope(xs, [x**2 for x in xs]) == pytest.approx(2.0)
    assert slope(xs, [3 * x for x in xs]) == pytest.approx(1.0)
    assert slope([12, 12], [1.0, 2.0]) == 0.0
