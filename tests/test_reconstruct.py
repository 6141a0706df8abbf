"""Integrity findings and final archive assembly."""

from __future__ import annotations

import os
from dataclasses import replace

import pytest

from altgen.container import ArchiveEntry, InvariantViolation, open_epub
from altgen.package import MetaEntry, MetaKind, parse_opf, serialize_opf
from altgen.reconstruct import (
    FindingCode,
    IntegrityErrors,
    IntegrityFinding,
    integrity_check,
    rebuild,
    write_file_atomic,
)
from epubgen import build_zip, container_xml, make_book, opf, page


def load(book: bytes):
    archive = open_epub(book)
    return archive, parse_opf(archive.entry(archive.rootfile_path))


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
            rebuild(archive, pkg)

    def test_modified_malformed_doc_flagged(self):
        archive, pkg = load(make_book())
        bad = archive.entry("OEBPS/ch1.xhtml").with_data(b"<html><p></html>")
        assert integrity_check(archive, pkg, [bad]) == [
            IntegrityFinding(FindingCode.MALFORMED_MODIFIED_DOC, "OEBPS/ch1.xhtml")
        ]

    def test_unmodified_malformed_doc_not_flagged(self):
        # pre-existing damage is the audit's business, not the rebuilder's
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
                ("OEBPS/ch1.xhtml", page("<p>hello</p>")),
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
        archive, pkg = load(book)
        bad = archive.entry("OEBPS/ch1.xhtml").with_data(b"<html><p></html>")
        findings = integrity_check(archive, pkg, [bad])
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
        out = open_epub(rebuild(archive, pkg))
        assert out.entry(out.rootfile_path).data == original_opf

    def test_changed_model_reserializes_opf(self):
        archive, pkg = load(make_book(language=None))
        pkg.metadata.append(MetaEntry(MetaKind.DC_LANGUAGE, "en"))
        out = open_epub(rebuild(archive, pkg, [opf_entry(archive, pkg)]))
        new_pkg = parse_opf(out.entry(out.rootfile_path))
        assert new_pkg.values(MetaKind.DC_LANGUAGE) == ["en"]

    def test_only_opf_differs_on_metadata_change(self):
        archive, pkg = load(make_book(language=None))
        pkg.metadata.append(MetaEntry(MetaKind.DC_LANGUAGE, "en"))
        out = open_epub(rebuild(archive, pkg, [opf_entry(archive, pkg)]))
        assert [e.path for e in out.entries] == [e.path for e in archive.entries]
        for before, after in zip(archive.entries, out.entries):
            if before.path == archive.rootfile_path:
                assert after.data != before.data
            else:
                assert after.data == before.data

    def test_modified_doc_verdict_used_without_a_parse(self, monkeypatch):
        archive, pkg = load(make_book())
        ch1 = archive.entry("OEBPS/ch1.xhtml")

        def no_parse(data):
            raise AssertionError("the chapter was parsed again")

        monkeypatch.setattr("altgen.reconstruct.is_well_formed", no_parse)
        good = ch1.with_data(page("<p>x</p>"), well_formed=True)
        assert rebuild(archive, pkg, [good])
        bad = ch1.with_data(b"<html><p></html>", well_formed=False)
        with pytest.raises(IntegrityErrors) as excinfo:
            rebuild(archive, pkg, [bad])
        assert str(excinfo.value) == "MalformedModifiedDoc: OEBPS/ch1.xhtml"

    def test_modified_docs_swapped_in(self):
        archive, pkg = load(make_book())
        new_doc = archive.entry("OEBPS/ch1.xhtml").with_data(
            page("<p>rewritten</p>")
        )
        out = open_epub(rebuild(archive, pkg, modified_docs=[new_doc]))
        assert b"rewritten" in out.entry("OEBPS/ch1.xhtml").data

    def test_input_archive_untouched(self):
        archive, pkg = load(make_book())
        before = [replace(e) for e in archive.entries]
        new_doc = archive.entry("OEBPS/ch1.xhtml").with_data(page("<p>new</p>"))
        rebuild(archive, pkg, modified_docs=[new_doc])
        assert archive.entries == before

    def test_error_findings_block(self):
        archive, pkg = load(make_book())
        pkg.manifest[0].href = "OEBPS/gone.xhtml"
        with pytest.raises(IntegrityErrors) as excinfo:
            rebuild(archive, pkg)
        codes = {f.code for f in excinfo.value.findings}
        assert FindingCode.MANIFEST_DANGLING_HREF in codes

    def test_malformed_modified_doc_blocks(self):
        archive, pkg = load(make_book())
        bad = archive.entry("OEBPS/ch1.xhtml").with_data(b"<html><p></html>")
        with pytest.raises(IntegrityErrors):
            rebuild(archive, pkg, modified_docs=[bad])

    def test_unknown_modified_path_raises(self):
        archive, pkg = load(make_book())
        ghost = archive.entry("OEBPS/ch1.xhtml").with_data(b"x")
        ghost = replace(ghost, path="OEBPS/nope.xhtml")
        with pytest.raises(KeyError):
            rebuild(archive, pkg, modified_docs=[ghost])

    def test_unknown_path_among_modified_raises(self):
        archive, pkg = load(make_book())
        known = archive.entry("OEBPS/ch1.xhtml").with_data(page("<p>new</p>"))
        ghost = ArchiveEntry(path="OEBPS/nope.xhtml", data=b"")
        with pytest.raises(KeyError) as excinfo:
            rebuild(archive, pkg, modified_docs=[known, ghost])
        assert excinfo.value.args == ("OEBPS/nope.xhtml",)

    def test_missing_rootfile_blocks(self):
        archive, pkg = load(make_book())
        archive.entries = [
            e for e in archive.entries if e.path != archive.rootfile_path
        ]
        with pytest.raises(InvariantViolation, match="archive lacks its rootfile"):
            rebuild(archive, pkg)

    def test_round_trip_still_opens(self):
        archive, pkg = load(make_book())
        out = rebuild(archive, pkg)
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
