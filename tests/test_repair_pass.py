"""The single-pass document repair against the per-image reference, its
parse count, and its byte-exact round trip of BOM-marked encodings."""

from __future__ import annotations

import codecs
import re
import zipfile
from xml.sax.saxutils import escape

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import content_oracles
import epubgen
from altgen import content
from altgen.container import ArchiveEntry
from altgen.content import ContentDocument, extract_context, find_images
from altgen.package import parse_opf
from altgen.pipeline import FileStatus, PipelineConfig, run_repair

TITLE = "  The Lighthouse\n Keeper "
PKG = parse_opf(
    ArchiveEntry(
        path="OEBPS/content.opf",
        data=epubgen.opf(
            title=TITLE,
            manifest=[("c1", "ch1.xhtml", "application/xhtml+xml")],
            spine=["c1"],
        ),
    )
)

_WORDS = ["fox", "harbour", "lamp", "tide", "keeper", "café", "a&b", "x<y", " ", "\n"]
text = st.lists(st.sampled_from(_WORDS), max_size=12).map(lambda ws: escape(" ".join(ws)))
# longer than the 500-character context windows
long_text = st.integers(90, 160).map(lambda n: " ".join(f"w{i}ord" for i in range(n)))
any_text = st.one_of(text, text, long_text)


@st.composite
def image(draw) -> str:
    alt = draw(st.sampled_from([None, "", "A fox at dusk", "pic.png"]))
    decorative = draw(st.booleans())
    attrs = [f'src="images/{draw(st.sampled_from(["a.png", "b.png", "pic.png"]))}"']
    if alt is not None:
        attrs.insert(draw(st.integers(0, 1)), f'alt="{alt}"')
    if decorative:
        attrs.append('role="presentation"')
    if draw(st.booleans()):
        return f"<img {' '.join(attrs)}/>"
    return f'<svg xmlns="http://www.w3.org/2000/svg"><image {" ".join(attrs)} /></svg>'


def blocks(inner):
    heading = st.tuples(st.integers(1, 3), text, st.one_of(st.just(""), image())).map(
        lambda t: f"<h{t[0]}>{t[1]}{t[2]}</h{t[0]}>"
    )
    para = st.tuples(any_text, st.one_of(st.just(""), image()), text).map(
        lambda t: f"<p>{t[0]}{t[1]}{t[2]}</p>"
    )
    caption = st.tuples(st.one_of(st.just(""), heading), text, st.one_of(st.just(""), image())).map(
        lambda t: f"<figcaption>{t[0]}{t[1]}{t[2]}</figcaption>"
    )
    figure = st.tuples(
        st.lists(image(), min_size=1, max_size=2),
        st.one_of(st.none(), caption),
        st.booleans(),
    ).map(
        lambda t: "<figure>"
        + (t[1] if t[1] and t[2] else "")
        + "".join(t[0])
        + (t[1] if t[1] and not t[2] else "")
        + "</figure>"
    )
    hidden = st.tuples(st.sampled_from(["script", "style"]), text).map(
        lambda t: f"<{t[0]}>{t[1]}</{t[0]}>"
    )
    nested = st.tuples(st.sampled_from(["div", "blockquote", "section"]), inner, text).map(
        lambda t: f"<{t[0]}>{''.join(t[1])}</{t[0]}>{t[2]}"
    )
    item = st.tuples(text, st.one_of(st.just(""), image())).map(lambda t: f"<li>{t[0]}{t[1]}</li>")
    listing = st.lists(item, min_size=1, max_size=3).map(lambda items: f"<ul>{''.join(items)}</ul>")
    leaf = st.one_of(heading, para, figure, hidden, listing, image(), text)
    return st.lists(st.one_of(leaf, nested), min_size=1, max_size=8)


chapters = st.recursive(st.lists(st.just("<p>start</p>"), max_size=1), blocks, max_leaves=25).map(
    lambda parts: epubgen.page("\n".join(parts))
)
alt_texts = st.text(
    alphabet=st.sampled_from("fox harbour & \" ' < > é"), min_size=1, max_size=20
).filter(str.strip)


@settings(max_examples=150, deadline=None)
@given(chapter=chapters, data=st.data())
def test_single_pass_matches_per_image_reference(chapter, data):
    entry = ArchiveEntry(path="OEBPS/ch1.xhtml", data=chapter)
    occurrences = find_images(entry)
    title = " ".join(TITLE.split())
    for occ in occurrences:
        assert extract_context(entry, occ, PKG) == content_oracles.context(
            chapter, occ.element_index, title
        )
    candidates = [o.element_index for o in occurrences if not o.decorative]
    if not candidates:
        return
    targets = data.draw(st.sets(st.sampled_from(candidates), min_size=1))
    alts = {i: data.draw(alt_texts) for i in sorted(targets)}

    expected_contexts, expected_bytes = content_oracles.repair(chapter, alts, title)
    document = ContentDocument(entry)
    assert document.images == occurrences
    assert document.contexts(sorted(alts), PKG) == expected_contexts
    repaired = document.with_alts(alts)
    assert repaired.data == expected_bytes
    assert repaired.modified


_IMG = '<img src="images/a.png"/>'
EDGE_CHAPTERS = {
    # the joined words before/after the image are 499, 500 and 501 characters
    "window_499": f"<p>a b {'x' * 495}</p>{_IMG}<p>{'y' * 495} c d</p>",
    "window_500": f"<p>a b {'x' * 496}</p>{_IMG}<p>{'y' * 496} c d</p>",
    "window_501": f"<p>a b {'x' * 497}</p>{_IMG}<p>{'y' * 497} c d</p>",
    "heading_in_own_caption": (
        f"<h1>Outer</h1><figure><figcaption><h2>Inner</h2>cap</figcaption>{_IMG}</figure>"
    ),
    "heading_in_other_caption": (
        f"<figure><figcaption><h2>Inner</h2></figcaption>{_IMG}</figure><p>t</p>{_IMG}"
    ),
    "image_in_own_caption": (
        f"<h1>H</h1><p>x</p><figure><figcaption>c {_IMG}</figcaption></figure>"
        "<h2>After</h2><p>y</p>"
    ),
    "image_in_heading": f"<p>x</p><h1>Title {_IMG}</h1><p>y</p><h2>Later</h2>",
    "nested_figures": (
        f"<figure><figure>{_IMG}</figure><figcaption>outer</figcaption></figure>"
        f"<figure><p>{_IMG}</p><figure><figcaption>inner</figcaption></figure></figure>"
    ),
    "two_captions": (
        f"<figure>{_IMG}<figcaption>one</figcaption><figcaption>two</figcaption></figure>"
    ),
    "caption_in_inner_figure": (
        f"<figure><figure><figcaption>in</figcaption></figure>{_IMG}"
        "<figcaption>out</figcaption></figure>"
    ),
    "image_with_children": (
        '<p>x</p><svg xmlns="http://www.w3.org/2000/svg">'
        '<image href="a.png"><title>t</title></image></svg><p>y</p>'
    ),
}


@pytest.mark.parametrize("name", sorted(EDGE_CHAPTERS))
def test_context_edges_match_reference(name):
    chapter = epubgen.page(EDGE_CHAPTERS[name])
    entry = ArchiveEntry(path="OEBPS/ch1.xhtml", data=chapter)
    occurrences = find_images(entry)
    title = " ".join(TITLE.split())
    expected = {
        o.element_index: content_oracles.context(chapter, o.element_index, title)
        for o in occurrences
    }
    assert ContentDocument(entry).contexts(sorted(expected), PKG) == expected


def _chapter_book(tmp_path, n_images: int):
    figures = "".join(
        epubgen.figure_html(f"images/p{k}.png", None, caption=f"Picture {k}")
        for k in range(n_images)
    )
    chapter = epubgen.page(epubgen.chapter_body(0, figures))
    path = tmp_path / f"book{n_images}.epub"
    path.write_bytes(epubgen.book_with_chapter(chapter, [f"p{k}.png" for k in range(n_images)]))
    return path


def test_parse_count_does_not_grow_with_images(tmp_path, monkeypatch):
    original = content.parse_document
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(content, "parse_document", counting)
    counts = []
    for n_images in (20, 200):
        calls.clear()
        results, code = run_repair(
            [_chapter_book(tmp_path, n_images)],
            PipelineConfig(jobs=1, output_dir=tmp_path / f"out{n_images}"),
        )
        assert code == 0
        assert results[0].alts_written == n_images
        counts.append(len(calls))
    # audit, repair (parse plus check), enrichment and the re-audit
    assert counts[0] == counts[1] <= 5


def _utf16_repair(tmp_path, bom: bytes, codec: str) -> None:
    text = epubgen.page(
        '<p>Café</p><img src="images/a.png"/><p>Tide</p>'
        '<img src="images/b.png" alt="A fox at dusk"/><img src="images/c.png"/>'
    ).decode("utf-8").replace("UTF-8", "UTF-16")
    chapter = bom + text.encode(codec)
    book = tmp_path / "book.epub"
    book.write_bytes(epubgen.book_with_chapter(chapter, ["a.png", "b.png", "c.png"]))
    out = tmp_path / "out"
    results, code = run_repair([book], PipelineConfig(jobs=1, output_dir=out))
    assert results[0].status is FileStatus.REPAIRED
    assert results[0].alts_written == 2
    assert code == 0

    with zipfile.ZipFile(out / "book.epub") as zf:
        repaired = zf.read("OEBPS/ch1.xhtml")
    assert repaired.startswith(bom)
    repaired_text = repaired[len(bom):].decode(codec)
    assert repaired == bom + repaired_text.encode(codec)
    # every byte outside the two targeted start tags is unchanged
    written = re.findall(r' alt="Image: [^"]*"', repaired_text)
    assert len(written) == 2
    assert bom + re.sub(r' alt="Image: [^"]*"', "", repaired_text).encode(codec) == chapter
    assert [o.existing_alt is not None for o in find_images(ArchiveEntry("x", repaired))] == [
        True, True, True,
    ]


def test_utf16_le_book_repaired_byte_exact(tmp_path):
    _utf16_repair(tmp_path, codecs.BOM_UTF16_LE, "utf-16-le")


def test_utf16_be_book_repaired_byte_exact(tmp_path):
    _utf16_repair(tmp_path, codecs.BOM_UTF16_BE, "utf-16-be")
