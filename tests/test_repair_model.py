"""Repair audits the repaired model in memory, not the bytes it writes.

The written bytes stay the oracle: on generated books the in-memory
post-audit must equal an audit of the book written, and repair must never
add errors. Call-count tests pin how often repair reads each artifact and
how often audit parses each document.
"""

from __future__ import annotations

import codecs
import re
import tempfile
from collections import Counter
from pathlib import Path

from hypothesis import given, note, settings
from hypothesis import strategies as st

import altgen.audit
import epubgen
from altgen import container, content, package, pipeline
from altgen.audit import audit
from altgen.pipeline import FileStatus, PipelineConfig, aggregate_results, run_audit, run_repair

_PROSE = "<p>The keeper climbed the tower every evening and lit the lamp.</p>"
_UNDECODABLE = b'<?xml version="1.0" encoding="utf-8"?><html>\xff\xfe\x9c</html>'


@st.composite
def figure(draw, name: str) -> str:
    alt = draw(st.sampled_from([None, "", "A fox at dusk", "ab", name]))
    decorative = draw(st.booleans())
    if alt == "" and draw(st.booleans()):
        # a valueless alt: tag soup that the splice of an alt makes XML
        role = ' role="presentation"' if decorative else ""
        return f'<p><img src="images/{name}" alt{role}/></p>'
    caption = draw(st.sampled_from([None, "A red fox"]))
    return epubgen.figure_html(f"images/{name}", alt, caption=caption, decorative=decorative)


@st.composite
def books(draw) -> bytes:
    manifest, spine, entries, images = [], [], [], []
    for c in range(draw(st.integers(1, 3))):
        body = _PROSE
        for k in range(draw(st.integers(0, 3))):
            name = f"c{c}i{k}.png"
            body += draw(figure(name))
            if draw(st.sampled_from([True, True, False])):  # else dangling
                manifest.append((f"img{c}{k}", f"images/{name}", "image/png"))
                images.append((f"OEBPS/images/{name}", epubgen.tiny_png()))
        kind = draw(st.sampled_from(["xhtml", "xhtml", "soup", "utf-16", "undecodable"]))
        if kind == "xhtml":
            chapter = epubgen.page(body)
        elif kind == "soup":
            chapter = f"<html><body><p>soup<br>{body}</body></html>".encode("utf-8")
        elif kind == "utf-16":
            text = epubgen.page(body).decode("utf-8").replace("UTF-8", "UTF-16")
            chapter = codecs.BOM_UTF16_LE + text.encode("utf-16-le")
        else:
            chapter = _UNDECODABLE
        entries.append((f"OEBPS/ch{c}.xhtml", chapter))
        manifest.append((f"c{c}", f"ch{c}.xhtml", "application/xhtml+xml"))
        spine.append(f"c{c}")
    if draw(st.booleans()):
        spine.reverse()
    opf = epubgen.opf(
        title=draw(st.sampled_from(["The Lighthouse Keeper", None, "  "])),
        language=draw(st.sampled_from(["en", None, "not a tag!"])),
        access=draw(st.booleans()),
        manifest=manifest,
        spine=spine,
    )
    moved = draw(st.sampled_from([None, None, None, "dc:language", "metadata"]))
    if moved is not None:
        opf = _from_entity(opf, moved)
    return epubgen.build_zip(
        [("META-INF/container.xml", epubgen.container_xml()), *entries,
         ("OEBPS/content.opf", opf), *images]
    )


def _from_entity(opf: bytes, name: str) -> bytes:
    """The OPF with its first <name> element moved into the replacement text
    of an internal entity, which is referenced where the element was."""
    text = opf.decode("utf-8")
    element = re.search(f"<{name}[ >].*?</{name}>", text, re.DOTALL)
    if element is None:
        return opf
    text = text[: element.start()] + "&e;" + text[element.end() :]
    value = element.group().replace('"', "'")  # the entity's value is in double quotes
    doctype = f'<!DOCTYPE package [<!ENTITY e "{value}">]>\n'
    return text.replace("?>\n", "?>\n" + doctype, 1).encode("utf-8")


def _repair(book: bytes):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "book.epub"
        path.write_bytes(book)
        out = Path(tmp) / "out"
        results, _ = run_repair([path], PipelineConfig(jobs=1, output_dir=out))
        written = (out / "book.epub").read_bytes() if results[0].output_path else None
    note(f"{results[0].status}: {results[0].failure_reason}")
    # a fault in altgen no longer escapes as an exception but fails its book
    assert not (results[0].failure_reason or "").startswith("internal error")
    return results, written


@settings(max_examples=120, deadline=None)
@given(book=books())
def test_post_audit_equals_an_audit_of_the_written_book(book):
    results, written = _repair(book)
    result = results[0]
    if result.status is FileStatus.REPAIRED:
        reopened = audit(*pipeline._open_for_pipeline(written))
        assert result.post_report.to_dict() == reopened.to_dict()


@settings(max_examples=120, deadline=None)
@given(book=books())
def test_repair_never_adds_errors(book):
    results, _ = _repair(book)
    aggregate = aggregate_results(results)
    assert aggregate["post_errors"] <= aggregate["pre_errors"]


def _counter(monkeypatch, calls: Counter):
    """count(owner, name, label) makes each call of owner.name add one to
    calls[label]."""

    def count(owner, name: str, label: str) -> None:
        original = getattr(owner, name)

        def counting(*args, **kwargs):
            calls[label] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counting)

    return count


def test_each_artifact_read_once_and_modified_chapters_parsed_twice(tmp_path, monkeypatch):
    # one chapter gets an alt, two are left as they are, and the language
    # is detected from all three
    book = tmp_path / "book.epub"
    book.write_bytes(
        epubgen.make_book(
            n_chapters=3,
            language=None,
            images=[{"chapter": 0, "name": "fox.png", "alt": None, "caption": "A fox"}],
        )
    )
    calls: Counter = Counter()
    count = _counter(monkeypatch, calls)
    count(pipeline, "open_epub", "open_epub")
    count(pipeline, "parse_opf", "parse_opf")
    count(content, "parse_document", "parse_document")
    for module in (container, content, package):
        count(module, "parse_xml", "parse_xml")

    results, code = run_repair([book], PipelineConfig(jobs=1, output_dir=tmp_path / "out"))
    assert code == 0
    assert results[0].status is FileStatus.REPAIRED
    assert results[0].alts_written == 1
    assert any(f.field == "dc:language" and f.new == "en" for f in results[0].fixes)
    assert calls == {
        "open_epub": 1,
        "parse_opf": 1,
        # three chapters, then the check of the one written
        "parse_document": 4,
        # container.xml, the OPF (whose edits are spliced into its text
        # without a parse), and each parse_document
        "parse_xml": 6,
    }


def test_audit_parses_each_document_once(tmp_path, monkeypatch):
    book = tmp_path / "book.epub"
    book.write_bytes(
        epubgen.make_book(
            n_chapters=3,
            images=[{"chapter": 0, "name": "fox.png", "alt": None, "caption": "A fox"}],
        )
    )
    calls: Counter = Counter()
    count = _counter(monkeypatch, calls)
    count(content, "parse_document", "parse_document")
    for module in (content, pipeline, altgen.audit):
        if hasattr(module, "find_images"):
            count(module, "find_images", "find_images")

    results, code = run_audit([book], PipelineConfig(jobs=1))
    assert code == 1
    assert results[0].pre_report.files_scanned == 3
    assert calls["parse_document"] == 3
    assert calls["find_images"] == 0


def test_metadata_from_an_entity_fails_its_book_with_a_typed_error(tmp_path):
    # enrichment must rewrite an invalid dc:language, or add one to a
    # <metadata>, but the element came from an entity and has no tags of
    # its own in the OPF to write into
    prose = _PROSE * 6 + '<img src="images/fox.png"/>'
    manifest = [("c1", "ch1.xhtml", "application/xhtml+xml"), ("fox", "images/fox.png", "image/png")]
    for language, moved, named in (
        ("not a tag!", "dc:language", "the OPF's dc:language 'not a tag!'"),
        (None, "metadata", "the OPF's <metadata>"),
    ):
        opf = epubgen.opf(language=language, manifest=manifest, spine=["c1"])
        book = epubgen.build_zip(
            [("META-INF/container.xml", epubgen.container_xml()),
             ("OEBPS/ch1.xhtml", epubgen.page(prose)),
             ("OEBPS/content.opf", _from_entity(opf, moved)),
             ("OEBPS/images/fox.png", epubgen.tiny_png())]
        )
        path = tmp_path / f"{moved}.epub"
        path.write_bytes(book)
        results, code = run_repair([path], PipelineConfig(jobs=1, output_dir=tmp_path / "out"))
        assert code == 2
        assert results[0].status is FileStatus.FAILED
        assert results[0].failure_reason == f"{named} has no start tag of its own"
