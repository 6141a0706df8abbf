"""The integrity gate before captioning, and final archive assembly."""

from __future__ import annotations

import os
from dataclasses import replace

import pytest

from altgen.container import ArchiveEntry, InvariantViolation, open_epub
from altgen.content import ContentDocument
from altgen.package import MetaEntry, MetaKind, parse_opf, serialize_opf
from altgen.reconstruct import (
    FindingCode,
    IntegrityErrors,
    IntegrityFinding,
    integrity_check,
    rebuild,
    write_file_atomic,
)
from epubgen import book_with_chapter, build_zip, container_xml, make_book, opf, page


def load(book: bytes):
    archive = open_epub(book)
    return archive, parse_opf(archive.entry(archive.rootfile_path))


def chapter(book: bytes, indices: list[int]):
    """(archive, pkg, chapters) for a book whose one chapter has caption
    targets at the image `indices`."""
    archive, pkg = load(book)
    return archive, pkg, [(ContentDocument(archive.entry("OEBPS/ch1.xhtml")), indices)]


# tag soup: an unclosed <p> and a <br>, which no alt can mend
SOUP = b'<html><body><p>soup<br><img src="images/a.png"></body></html>'
# two valueless alts: the chapter is XML once both have values
TWO_BARE_ALTS = page('<img src="images/a.png" alt/><img src="images/b.png" alt/>')


def no_parse(data):
    raise AssertionError("rebuild parsed an entry")


def opf_entry(archive, pkg):
    """The archive's OPF entry with pkg's metadata edits spliced in."""
    return archive.entry(archive.rootfile_path).with_data(serialize_opf(pkg))


class TestIntegrityCheck:
    def test_clean_book(self):
        archive, pkg = load(make_book())
        assert integrity_check(archive, pkg) == []

    def test_dangling_manifest_href(self):
        # manifest names an image that is not packaged
        book = build_zip(
            [
                ("META-INF/container.xml", container_xml()),
                ("OEBPS/ch1.xhtml", page("<p>hello</p>")),
                (
                    "OEBPS/content.opf",
                    opf(
                        manifest=[
                            ("c1", "ch1.xhtml", "application/xhtml+xml"),
                            ("imgx", "images/fox.png", "image/png"),
                        ],
                        spine=["c1"],
                    ),
                ),
            ]
        )
        archive, pkg = load(book)
        assert integrity_check(archive, pkg) == [
            IntegrityFinding(FindingCode.MANIFEST_DANGLING_HREF, "OEBPS/images/fox.png")
        ]

    def test_remote_href_not_dangling(self):
        book = build_zip(
            [
                ("META-INF/container.xml", container_xml()),
                ("OEBPS/ch1.xhtml", page("<p>hello</p>")),
                (
                    "OEBPS/content.opf",
                    opf(
                        manifest=[
                            ("c1", "ch1.xhtml", "application/xhtml+xml"),
                            ("css", "https://example.com/site.css", "text/css"),
                        ],
                        spine=["c1"],
                    ),
                ),
            ]
        )
        archive, pkg = load(book)
        assert integrity_check(archive, pkg) == []

    def test_unmanifested_non_content_ignored(self):
        book = make_book(extra_entries=[("OEBPS/notes.txt", b"scratch")])
        archive, pkg = load(book)
        assert integrity_check(archive, pkg) == []

    def test_mimetype_violation(self):
        # the mimetype rule belongs to the write gate: integrity_check has
        # nothing to say, and rebuild refuses through write_epub
        archive, pkg = load(make_book())
        archive.entries[0] = archive.entries[0].with_data(b"text/plain")
        assert integrity_check(archive, pkg) == []
        with pytest.raises(InvariantViolation, match="mimetype entry content is wrong"):
            rebuild(archive)

    def test_modified_malformed_doc_flagged(self):
        # only alts at both images make this chapter XML
        book = book_with_chapter(TWO_BARE_ALTS, ["a.png", "b.png"])
        assert integrity_check(*chapter(book, [0, 1])) == []
        assert integrity_check(*chapter(book, [1])) == [
            IntegrityFinding(FindingCode.MALFORMED_MODIFIED_DOC, "OEBPS/ch1.xhtml")
        ]

    def test_malformed_modified_doc_blocks(self):
        # what rebuild refused after captioning, the gate refuses before it
        archive, pkg, chapters = chapter(book_with_chapter(SOUP, ["a.png"]), [0])
        findings = integrity_check(archive, pkg, chapters)
        assert findings == [
            IntegrityFinding(FindingCode.MALFORMED_MODIFIED_DOC, "OEBPS/ch1.xhtml")
        ]
        assert str(IntegrityErrors(findings)) == "MalformedModifiedDoc: OEBPS/ch1.xhtml"

    def test_error_findings_block(self):
        archive, pkg = load(make_book())
        pkg.manifest[0].href = "OEBPS/gone.xhtml"
        findings = integrity_check(archive, pkg)
        assert [f.code for f in findings] == [FindingCode.MANIFEST_DANGLING_HREF]
        assert str(IntegrityErrors(findings)) == "ManifestDanglingHref: OEBPS/gone.xhtml"

    def test_unmodified_malformed_doc_not_flagged(self):
        # pre-existing damage is the audit's business: the gate checks only
        # the chapters that alts will rewrite
        book = build_zip(
            [
                ("META-INF/container.xml", container_xml()),
                ("OEBPS/ch1.xhtml", b"<html><p></html>"),
                (
                    "OEBPS/content.opf",
                    opf(
                        manifest=[("c1", "ch1.xhtml", "application/xhtml+xml")],
                        spine=["c1"],
                    ),
                ),
            ]
        )
        archive, pkg = load(book)
        assert integrity_check(archive, pkg) == []

    def test_findings_sorted(self):
        book = build_zip(
            [
                ("META-INF/container.xml", container_xml()),
                ("OEBPS/ch1.xhtml", SOUP),
                (
                    "OEBPS/content.opf",
                    opf(
                        manifest=[
                            ("c1", "ch1.xhtml", "application/xhtml+xml"),
                            ("z", "images/z.png", "image/png"),
                            ("a", "images/a.png", "image/png"),
                        ],
                        spine=["c1"],
                    ),
                ),
            ]
        )
        findings = integrity_check(*chapter(book, [0]))
        assert [f.path for f in findings] == [
            "OEBPS/ch1.xhtml",
            "OEBPS/images/a.png",
            "OEBPS/images/z.png",
        ]


class TestRebuild:
    def test_unchanged_model_keeps_opf_bytes(self):
        book = make_book()
        archive, pkg = load(book)
        original_opf = archive.entry(archive.rootfile_path).data
        out = open_epub(rebuild(archive))
        assert out.entry(out.rootfile_path).data == original_opf

    def test_changed_model_reserializes_opf(self):
        archive, pkg = load(make_book(language=None))
        pkg.metadata.append(MetaEntry(MetaKind.DC_LANGUAGE, "en"))
        out = open_epub(rebuild(archive, [opf_entry(archive, pkg)]))
        new_pkg = parse_opf(out.entry(out.rootfile_path))
        assert new_pkg.values(MetaKind.DC_LANGUAGE) == ["en"]

    def test_only_opf_differs_on_metadata_change(self):
        archive, pkg = load(make_book(language=None))
        pkg.metadata.append(MetaEntry(MetaKind.DC_LANGUAGE, "en"))
        out = open_epub(rebuild(archive, [opf_entry(archive, pkg)]))
        assert [e.path for e in out.entries] == [e.path for e in archive.entries]
        for before, after in zip(archive.entries, out.entries):
            if before.path == archive.rootfile_path:
                assert after.data != before.data
            else:
                assert after.data == before.data

    def test_modified_doc_verdict_used_without_a_parse(self, monkeypatch):
        archive, pkg = load(make_book())
        ch1 = archive.entry("OEBPS/ch1.xhtml")
        monkeypatch.setattr("altgen.container.parse_xml", no_parse)
        good = ch1.with_data(page("<p>x</p>"), well_formed=True)
        assert rebuild(archive, [good, opf_entry(archive, pkg)])
        bad = ch1.with_data(b"<html><p></html>", well_formed=False)
        with pytest.raises(IntegrityErrors) as excinfo:
            rebuild(archive, [bad])
        assert str(excinfo.value) == "MalformedModifiedDoc: OEBPS/ch1.xhtml"

    def test_entry_without_a_verdict_refused_unless_rootfile(self, monkeypatch):
        # an entry no splice wrote has no verdict; rebuild refuses it, XHTML
        # or not, and parses nothing to decide
        archive, pkg = load(make_book(n_chapters=2))
        monkeypatch.setattr("altgen.container.parse_xml", no_parse)
        ch2 = archive.entry("OEBPS/ch2.xhtml").with_data(page("<p>two</p>"))
        ch1 = archive.entry("OEBPS/ch1.xhtml").with_data(page("<p>one</p>"))
        with pytest.raises(IntegrityErrors) as excinfo:
            rebuild(archive, [ch2, opf_entry(archive, pkg), ch1])
        assert str(excinfo.value) == (
            "MalformedModifiedDoc: OEBPS/ch1.xhtml; MalformedModifiedDoc: OEBPS/ch2.xhtml"
        )
        container = archive.entry("META-INF/container.xml")
        with pytest.raises(IntegrityErrors, match="MalformedModifiedDoc: META-INF/container.xml"):
            rebuild(archive, [container.with_data(container.data)])
        assert rebuild(archive, [opf_entry(archive, pkg)])

    def test_modified_docs_swapped_in(self):
        archive, pkg = load(make_book())
        new_doc = archive.entry("OEBPS/ch1.xhtml").with_data(
            page("<p>rewritten</p>"), well_formed=True
        )
        out = open_epub(rebuild(archive, modified_docs=[new_doc]))
        assert b"rewritten" in out.entry("OEBPS/ch1.xhtml").data

    def test_input_archive_untouched(self):
        archive, pkg = load(make_book())
        before = [replace(e) for e in archive.entries]
        new_doc = archive.entry("OEBPS/ch1.xhtml").with_data(page("<p>new</p>"), well_formed=True)
        rebuild(archive, modified_docs=[new_doc])
        assert archive.entries == before

    def test_unknown_modified_path_raises(self):
        archive, _ = load(make_book())
        ghost = archive.entry("OEBPS/ch1.xhtml").with_data(b"x")
        ghost = replace(ghost, path="OEBPS/nope.xhtml")
        with pytest.raises(KeyError):
            rebuild(archive, modified_docs=[ghost])

    def test_unknown_path_among_modified_raises(self):
        archive, _ = load(make_book())
        known = archive.entry("OEBPS/ch1.xhtml").with_data(page("<p>new</p>"), well_formed=True)
        ghost = ArchiveEntry(path="OEBPS/nope.xhtml", data=b"")
        with pytest.raises(KeyError) as excinfo:
            rebuild(archive, modified_docs=[known, ghost])
        assert excinfo.value.args == ("OEBPS/nope.xhtml",)

    def test_missing_rootfile_blocks(self):
        archive, _ = load(make_book())
        archive.entries = [
            e for e in archive.entries if e.path != archive.rootfile_path
        ]
        with pytest.raises(InvariantViolation, match="archive lacks its rootfile"):
            rebuild(archive)

    def test_round_trip_still_opens(self):
        archive, _ = load(make_book())
        out = rebuild(archive)
        reopened = open_epub(out)
        assert reopened.rootfile_path == archive.rootfile_path


class TestWriteFileAtomic:
    def test_writes_and_creates_parents(self, tmp_path):
        target = tmp_path / "deep" / "nested" / "book.epub"
        write_file_atomic(target, b"payload")
        assert target.read_bytes() == b"payload"

    def test_overwrites(self, tmp_path):
        target = tmp_path / "book.epub"
        target.write_bytes(b"old")
        write_file_atomic(target, b"new")
        assert target.read_bytes() == b"new"

    def test_no_temp_files_left(self, tmp_path):
        target = tmp_path / "book.epub"
        write_file_atomic(target, b"data")
        assert os.listdir(tmp_path) == ["book.epub"]

    def test_regular_permissions(self, tmp_path):
        target = tmp_path / "book.epub"
        umask = os.umask(0)
        os.umask(umask)
        write_file_atomic(target, b"data")
        assert (target.stat().st_mode & 0o777) == (0o666 & ~umask)

    def test_umask_is_never_set(self, tmp_path, monkeypatch):
        # setting the umask to read it would race with other threads' writes
        umask = os.umask(0)
        os.umask(umask)

        def no_umask(mask):
            raise AssertionError("write_file_atomic set the umask")

        monkeypatch.setattr(os, "umask", no_umask)
        target = tmp_path / "book.epub"
        write_file_atomic(target, b"data")
        assert (target.stat().st_mode & 0o777) == (0o666 & ~umask)
        assert os.listdir(tmp_path) == ["book.epub"]
