"""Batch orchestration: path collection, repair flow, reporting, validation."""

from __future__ import annotations

import codecs
import errno
import json
import os
import random
import shutil
import subprocess
import sys
import tempfile
import tracemalloc
import zipfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from altgen import pipeline
from altgen.backend import BackendUnavailable, StubBackend
from altgen.container import open_epub
from altgen.content import DocumentError, find_images
from altgen.package import MetaKind
from altgen.pipeline import (
    REPORT_FILENAME,
    FileStatus,
    PipelineConfig,
    PipelineError,
    _repair_one,
    aggregate_results,
    assign_output_names,
    collect_epub_paths,
    load_references,
    run_audit,
    run_repair,
    run_validate,
)
from epubgen import book_with_chapter, build_zip, container_xml, make_book, opf, page, tiny_png


def write_book(path: Path, **kwargs) -> Path:
    path.write_bytes(make_book(**kwargs))
    return path


def defective_kwargs() -> dict:
    return dict(
        n_chapters=2,
        language=None,
        images=[
            {"chapter": 0, "name": "fox.png", "alt": None, "caption": "A red fox at dusk"},
            {"chapter": 1, "name": "map.svg", "alt": None, "svg_title": "Harbour map"},
        ],
    )


# a chapter with no XML declaration that names its encoding in a meta
_META_PAGE = (
    '<html xmlns="http://www.w3.org/1999/xhtml"><head>'
    '<meta charset="iso-8859-1"/><title>Page</title></head><body>{}</body></html>'
)


class _FailingBackend(StubBackend):
    """Fails every caption, or with `names` those of the images named."""

    def __init__(self, *names: str):
        self.names = names

    def generate_alt(self, request):
        if not self.names or request.source_name in self.names:
            raise BackendUnavailable("backend down")
        return super().generate_alt(request)

    def embed_texts(self, texts):
        raise BackendUnavailable("backend down")


# Each sets up one exit of _repair_one: (book, backend, strict).
def _unreadable(tmp_path, monkeypatch):
    book = tmp_path / "bad.epub"
    book.write_bytes(b"garbage")
    return book, StubBackend(), False


def _clean_copy_unwritable(tmp_path, monkeypatch):
    def disk_full(path, data):
        raise OSError(errno.ENOSPC, "No space left on device")

    monkeypatch.setattr("altgen.reconstruct.write_file_atomic", disk_full)
    return write_book(tmp_path / "clean.epub"), StubBackend(), False


def _chapter_no_alt_mends(tmp_path, monkeypatch):
    book = tmp_path / "soup.epub"
    chapter = b'<html><body><p>soup<br><img src="images/a.png"></body></html>'
    book.write_bytes(book_with_chapter(chapter, ["a.png"]))
    return book, StubBackend(), False


def _strict_after_a_captioned_chapter(tmp_path, monkeypatch):
    # chapter 1's fox is captioned and spliced before chapter 2's map fails
    book = write_book(tmp_path / "defective.epub", **defective_kwargs())
    return book, _FailingBackend("map.svg"), True


def _rebuild_fails(tmp_path, monkeypatch):
    # the fox's alt is spliced, the map's caption fails, and the file name,
    # the missing dc:title, cannot go into the OPF
    book = write_book(tmp_path / "title\x01less.epub", title=None, **defective_kwargs())
    return book, _FailingBackend("map.svg"), False


class TestCollect:
    def test_single_file(self, clean_book):
        assert collect_epub_paths([clean_book]) == [clean_book]

    def test_directory_recursive_sorted(self, tmp_path, clean_book_bytes):
        (tmp_path / "sub").mkdir()
        b = write_book(tmp_path / "b.epub")
        a = write_book(tmp_path / "sub" / "a.epub")
        (tmp_path / "readme.txt").write_text("not a book")
        assert collect_epub_paths([tmp_path]) == sorted([a, b])

    def test_missing_path_raises(self, tmp_path):
        with pytest.raises(PipelineError):
            collect_epub_paths([tmp_path / "nope.epub"])

    def test_empty_result_raises(self, tmp_path):
        with pytest.raises(PipelineError):
            collect_epub_paths([tmp_path])

    def test_duplicates_collapse(self, clean_book):
        assert collect_epub_paths([clean_book, clean_book]) == [clean_book]


class TestAssignNames:
    def test_unique_names_kept(self):
        paths = [Path("/x/a.epub"), Path("/x/b.epub")]
        assert assign_output_names(paths) == {paths[0]: "a.epub", paths[1]: "b.epub"}

    def test_collisions_suffixed(self):
        paths = [Path("/x/book.epub"), Path("/y/book.epub"), Path("/z/book.epub")]
        names = assign_output_names(paths)
        assert list(names.values()) == ["book.epub", "book-2.epub", "book-3.epub"]

    def test_report_name_reserved(self):
        paths = [Path("/x/altgen-report.json")]
        assert assign_output_names(paths) == {paths[0]: "altgen-report-2.json"}


class TestConfig:
    def test_zero_jobs_becomes_cpu_count(self):
        assert PipelineConfig(jobs=0).jobs >= 1

    def test_negative_jobs_rejected(self):
        with pytest.raises(ValueError):
            PipelineConfig(jobs=-1)

    def test_unknown_report_format_rejected(self):
        with pytest.raises(ValueError):
            PipelineConfig(report_format="yaml")

    def test_empty_backend_rejected(self):
        with pytest.raises(ValueError):
            PipelineConfig(backend="")


class TestRunAudit:
    def test_clean_book(self, clean_book):
        results, code = run_audit([clean_book], PipelineConfig(jobs=1))
        assert code == 0
        assert results[0].status is FileStatus.AUDITED
        assert results[0].pre_report.error_count == 0

    def test_defective_book(self, defective_book):
        results, code = run_audit([defective_book], PipelineConfig(jobs=1))
        assert code == 1
        assert results[0].pre_report.error_count == 3  # 2 missing alts + language

    def test_unreadable_book(self, tmp_path):
        bad = tmp_path / "broken.epub"
        bad.write_bytes(b"this is not a zip archive")
        results, code = run_audit([bad], PipelineConfig(jobs=1))
        assert code == 2
        assert results[0].status is FileStatus.FAILED
        assert results[0].failure_reason

    def test_results_sorted_by_path(self, tmp_path):
        write_book(tmp_path / "zed.epub")
        write_book(tmp_path / "alpha.epub")
        results, _ = run_audit([tmp_path], PipelineConfig(jobs=2))
        assert [Path(r.input_path).name for r in results] == ["alpha.epub", "zed.epub"]


class TestRunRepair:
    def test_requires_output_dir(self, clean_book):
        with pytest.raises(PipelineError):
            run_repair([clean_book], PipelineConfig(jobs=1))

    def test_clean_book_copied_verbatim(self, clean_book, tmp_path):
        out = tmp_path / "out"
        results, code = run_repair(
            [clean_book], PipelineConfig(jobs=1, output_dir=out)
        )
        assert code == 0
        assert results[0].status is FileStatus.CLEAN_SKIPPED
        assert (out / "clean.epub").read_bytes() == clean_book.read_bytes()

    def test_defective_book_repaired(self, defective_book, tmp_path):
        out = tmp_path / "out"
        results, code = run_repair(
            [defective_book], PipelineConfig(jobs=1, output_dir=out)
        )
        assert code == 0
        r = results[0]
        assert r.status is FileStatus.REPAIRED
        assert r.alts_written == 2
        assert r.pre_report.error_count == 3
        assert r.post_report.error_count == 0
        assert r.fixes  # dc:language at minimum
        repaired = open_epub((out / "defective.epub").read_bytes())
        occs = find_images(repaired.entry("OEBPS/ch1.xhtml"), "OEBPS/ch1.xhtml")
        assert occs[0].existing_alt.startswith("Image: fox.")

    def test_report_written(self, defective_book, tmp_path):
        out = tmp_path / "out"
        results, _ = run_repair(
            [defective_book], PipelineConfig(jobs=1, output_dir=out)
        )
        stored = json.loads((out / REPORT_FILENAME).read_text(encoding="utf-8"))
        assert stored["aggregate"] == aggregate_results(results)
        assert stored["files"][0]["status"] == "Repaired"
        assert stored["files"][0]["alts_written"] == 2

    def test_failed_file_exit_code(self, tmp_path):
        bad = tmp_path / "bad.epub"
        bad.write_bytes(b"garbage")
        out = tmp_path / "out"
        results, code = run_repair([bad], PipelineConfig(jobs=1, output_dir=out))
        assert code == 2
        assert results[0].status is FileStatus.FAILED

    def test_caption_failures_not_fatal(self, defective_book, tmp_path, monkeypatch):
        monkeypatch.setattr(
            "altgen.pipeline.make_backend", lambda cfg: _FailingBackend()
        )
        out = tmp_path / "out"
        results, code = run_repair(
            [defective_book], PipelineConfig(jobs=1, output_dir=out)
        )
        r = results[0]
        assert r.status is FileStatus.REPAIRED
        assert r.alts_written == 0
        assert r.caption_failures == 2
        assert r.post_report.error_count == 2  # alts still missing
        assert code == 1

    def test_strict_turns_caption_failure_fatal(
        self, defective_book, tmp_path, monkeypatch
    ):
        monkeypatch.setattr(
            "altgen.pipeline.make_backend", lambda cfg: _FailingBackend()
        )
        out = tmp_path / "out"
        results, code = run_repair(
            [defective_book], PipelineConfig(jobs=1, output_dir=out, strict=True)
        )
        assert code == 2
        r = results[0]
        assert r.status is FileStatus.FAILED
        assert "--strict" in r.failure_reason
        assert not (out / "defective.epub").exists()

    def test_failed_file_keeps_pre_errors_in_aggregate(
        self, defective_book, tmp_path, monkeypatch
    ):
        monkeypatch.setattr(
            "altgen.pipeline.make_backend", lambda cfg: _FailingBackend()
        )
        out = tmp_path / "out"
        results, _ = run_repair(
            [defective_book], PipelineConfig(jobs=1, output_dir=out, strict=True)
        )
        agg = aggregate_results(results)
        assert agg["pre_errors"] == 3
        assert agg["post_errors"] == 3
        assert agg["err_percent"] == 0.0

    def _batch_with(self, tmp_path, chapter: bytes) -> tuple[list, int, Path]:
        """Repair `chapter` (one image, images/a.png) next to a good book."""
        (tmp_path / "in").mkdir()
        (tmp_path / "in" / "bad.epub").write_bytes(book_with_chapter(chapter, ["a.png"]))
        write_book(tmp_path / "in" / "good.epub", **defective_kwargs())
        out = tmp_path / "out"
        results, code = run_repair([tmp_path / "in"], PipelineConfig(jobs=1, output_dir=out))
        return results, code, out

    def _assert_isolated(self, results, code, out, reason: str) -> None:
        bad, good = results
        assert bad.status is FileStatus.FAILED
        assert reason in bad.failure_reason
        assert bad.alts_written == 0
        assert not (out / "bad.epub").exists()
        assert good.status is FileStatus.REPAIRED
        assert (out / "good.epub").exists()
        stored = json.loads((out / REPORT_FILENAME).read_text(encoding="utf-8"))
        assert [row["status"] for row in stored["files"]] == ["Failed", "Repaired"]
        assert code == 2

    @pytest.mark.parametrize(
        "setup,reason,fixes,caption_failures",
        [
            (_unreadable, "no ZIP signature at offset 0", [], 0),
            (_clean_copy_unwritable, "[Errno 28] No space left on device", [], 0),
            (_chapter_no_alt_mends, "MalformedModifiedDoc: OEBPS/ch1.xhtml", [], 0),
            (
                _strict_after_a_captioned_chapter,
                "backend failure with --strict: backend down",
                [],
                1,
            ),
            (
                _rebuild_fails,
                "character U+0001 cannot be written in XML",
                [
                    {"field": "dc:language", "new": "en", "old": None, "reason": "Detected"},
                    {"field": "dc:title", "new": "title\x01less", "old": None, "reason": "Default"},
                ],
                1,
            ),
        ],
        ids=["unreadable", "clean_copy_unwritable", "chapter_no_alt_mends", "strict", "rebuild"],
    )
    def test_failed_row_at_each_exit(
        self, tmp_path, monkeypatch, setup, reason, fixes, caption_failures
    ):
        # a Failed row holds what the stages before the failure found, and
        # never an alt count, an output path or a post-report
        book, backend, strict = setup(tmp_path, monkeypatch)
        (audited,), _ = run_audit([book], PipelineConfig(jobs=1))
        out = tmp_path / "out" / book.name
        row = _repair_one(book, out, PipelineConfig(jobs=1, strict=strict), backend).to_dict()
        del row["elapsed_seconds"]
        assert row == {
            "input_path": str(book),
            "status": "Failed",
            "reason": reason,
            "pre_report": audited.pre_report.to_dict() if audited.pre_report else None,
            "post_report": None,
            "fixes": fixes,
            "alts_written": 0,
            "caption_failures": caption_failures,
            "output_path": None,
        }
        assert not out.exists()

    @pytest.mark.parametrize(
        "stage,error",
        [
            ("_read_documents", DocumentError("OEBPS/ch1.xhtml: cannot be read")),
            ("audit", OSError(errno.EIO, "Input/output error")),
        ],
    )
    def test_read_stage_raise_fails_only_its_book(self, tmp_path, monkeypatch, stage, error):
        real = getattr(pipeline, stage)

        def doomed(archive, pkg, *args):
            if pkg.first_value(MetaKind.DC_TITLE) == "Doomed":
                raise error
            return real(archive, pkg, *args)

        monkeypatch.setattr(pipeline, stage, doomed)
        (tmp_path / "in").mkdir()
        write_book(tmp_path / "in" / "bad.epub", title="Doomed", **defective_kwargs())
        write_book(tmp_path / "in" / "good.epub", **defective_kwargs())
        out = tmp_path / "out"
        results, code = run_repair([tmp_path / "in"], PipelineConfig(jobs=1, output_dir=out))
        bad, good = results
        assert bad.status is FileStatus.FAILED
        assert bad.failure_reason == str(error)
        assert bad.pre_report is None
        assert not (out / "bad.epub").exists()
        assert good.status is FileStatus.REPAIRED
        stored = json.loads((out / REPORT_FILENAME).read_text(encoding="utf-8"))
        assert [row["status"] for row in stored["files"]] == ["Failed", "Repaired"]
        assert code == 2

    def test_rewrite_failure_fails_only_its_book(self, tmp_path):
        # tag soup with an "<img" string inside a script: the alt goes on the
        # real image, but the written chapter is still not well-formed XML
        chapter = (
            b'<html><body><p>soup<script>var s = "<img src=q>";</script>'
            b'<img src="images/a.png"></body></html>'
        )
        self._assert_isolated(*self._batch_with(tmp_path, chapter), "MalformedModifiedDoc")

    def test_stale_occurrence_fails_only_its_book(self, tmp_path):
        # tag soup with an unterminated quote, likewise not well-formed
        chapter = b"<html><body><p title='x>text</p><img src=\"images/a.png\"></body></html>"
        self._assert_isolated(*self._batch_with(tmp_path, chapter), "MalformedModifiedDoc")

    @pytest.mark.parametrize("codec", ["shift_jis", "euc-jp", "gbk"])
    def test_multibyte_chapter_repaired(self, tmp_path, codec):
        # expat reads no such encoding itself; it parses the decoded text
        text = page('<p>日本</p><img src="images/a.png"/>').decode("utf-8")
        text = text.replace("UTF-8", codec)
        results, code, out = self._batch_with(tmp_path, text.encode(codec))
        assert [r.status for r in results] == [FileStatus.REPAIRED, FileStatus.REPAIRED]
        assert code == 0
        repaired = open_epub((out / "bad.epub").read_bytes()).entry("OEBPS/ch1.xhtml").data
        assert repaired.decode(codec) == text.replace(
            'a.png"', 'a.png" alt="Image: a. Context: 日本."'
        )

    def test_utf16_chapter_without_bom_audited_and_repaired(self, tmp_path):
        # XML 1.0 Appendix F: UTF-16 is known by its first character
        text = page('<p>Café</p><img src="images/a.png"/>').decode("utf-8")
        chapter = text.replace("UTF-8", "UTF-16").encode("utf-16-le")
        (tmp_path / "in").mkdir()
        (tmp_path / "in" / "book.epub").write_bytes(book_with_chapter(chapter, ["a.png"]))
        (audited,), _ = run_audit([tmp_path / "in"], PipelineConfig(jobs=1))
        assert [i.code.value for i in audited.pre_report.issues] == ["ImgMissingAlt"]
        out = tmp_path / "out"
        (result,), code = run_repair([tmp_path / "in"], PipelineConfig(jobs=1, output_dir=out))
        assert result.status is FileStatus.REPAIRED and code == 0
        repaired = open_epub((out / "book.epub").read_bytes()).entry("OEBPS/ch1.xhtml").data
        assert repaired.decode("utf-16-le") == text.replace("UTF-8", "UTF-16").replace(
            'a.png"', 'a.png" alt="Image: a. Context: Café."'
        )

    def test_meta_charset_chapter_not_in_utf8_fails_only_its_book(self, tmp_path):
        # without an XML declaration XML is UTF-8, whatever a meta charset
        # says; tag soup may use the meta, but the written chapter is no XML
        body = '<p>Café</p><img src="images/a.png"/>'
        chapter = _META_PAGE.format(body).encode("iso-8859-1")
        self._assert_isolated(*self._batch_with(tmp_path, chapter), "MalformedModifiedDoc")

    def test_ascii_meta_charset_chapter_keeps_its_bytes(self, tmp_path):
        chapter = _META_PAGE.format('<p>Cafe</p><img src="images/a.png"/>').encode("ascii")
        results, code, out = self._batch_with(tmp_path, chapter)
        assert [r.status for r in results] == [FileStatus.REPAIRED, FileStatus.REPAIRED]
        repaired = open_epub((out / "bad.epub").read_bytes()).entry("OEBPS/ch1.xhtml").data
        assert repaired == chapter.replace(b'a.png"', b'a.png" alt="Image: a. Context: Cafe."')

    def test_image_from_internal_entity_left_alone(self, tmp_path):
        # the entity's decorative image and the real one are two images of
        # one parse; only the real one has a start tag, and only it is targeted
        chapter = page('<p>x &rule; y</p><img src="images/a.png"/>').replace(
            b"<!DOCTYPE html>",
            b"<!DOCTYPE html [<!ENTITY rule \"<img src='images/a.png' alt='' "
            b"role='presentation'/>\">]>",
        )
        results, code, out = self._batch_with(tmp_path, chapter)
        assert [r.status for r in results] == [FileStatus.REPAIRED, FileStatus.REPAIRED]
        assert results[0].alts_written == 1
        repaired = open_epub((out / "bad.epub").read_bytes()).entry("OEBPS/ch1.xhtml")
        decorative, real = find_images(repaired)
        assert decorative.existing_alt == "" and real.existing_alt.startswith("Image: a.")
        assert repaired.data.replace(f' alt="{real.existing_alt}"'.encode(), b"") == chapter

    def test_target_from_entity_text_fails_only_its_book(self, tmp_path):
        chapter = page("<p>x &fig; y</p>").replace(
            b"<!DOCTYPE html>", b"<!DOCTYPE html [<!ENTITY fig \"<img src='images/a.png'/>\">]>"
        )
        self._assert_isolated(*self._batch_with(tmp_path, chapter), "has no start tag")

    def test_href_urlsplit_rejects_fails_only_its_book(self, tmp_path):
        # urlsplit raises ValueError ("Invalid IPv6 URL") for "//[x"; the href
        # then names no entry, in a chapter and in the manifest
        (tmp_path / "in").mkdir()
        manifest = [
            ("c1", "ch1.xhtml", "application/xhtml+xml"),
            ("img0", "//[x", "image/png"),
        ]
        (tmp_path / "in" / "bad.epub").write_bytes(
            build_zip(
                [
                    ("META-INF/container.xml", container_xml()),
                    ("OEBPS/ch1.xhtml", page('<p>x</p><img src="//[x" alt="A fox in snow"/>')),
                    ("OEBPS/content.opf", opf(manifest=manifest, spine=["c1"])),
                ]
            )
        )
        write_book(tmp_path / "in" / "good.epub")

        audited, code = run_audit([tmp_path / "in"], PipelineConfig(jobs=1))
        bad, good = audited
        assert bad.status is FileStatus.AUDITED
        assert [i.code.value for i in bad.pre_report.issues] == ["DanglingImageResource"]
        assert good.status is FileStatus.AUDITED
        assert code == 1

        out = tmp_path / "out"
        results, code = run_repair([tmp_path / "in"], PipelineConfig(jobs=1, output_dir=out))
        bad, good = results
        assert bad.status is FileStatus.FAILED
        assert bad.failure_reason == "ManifestDanglingHref: //[x"
        assert good.status is FileStatus.CLEAN_SKIPPED
        assert (out / "good.epub").exists()
        stored = json.loads((out / REPORT_FILENAME).read_text(encoding="utf-8"))
        assert [row["status"] for row in stored["files"]] == ["Failed", "CleanSkipped"]
        assert code == 2

    def test_opf_bytes_kept_when_metadata_needs_nothing(self, tmp_path):
        book = write_book(
            tmp_path / "book.epub", images=[{"chapter": 0, "name": "fox.png", "alt": None}]
        )
        out = tmp_path / "out"
        results, code = run_repair([book], PipelineConfig(jobs=1, output_dir=out))
        assert results[0].status is FileStatus.REPAIRED
        assert results[0].fixes == []
        before = open_epub(book.read_bytes()).entry("OEBPS/content.opf")
        after = open_epub((out / "book.epub").read_bytes()).entry("OEBPS/content.opf")
        assert after.data == before.data
        assert code == 0

    def test_tag_soup_book_fails_before_captioning(self, tmp_path, monkeypatch):
        # no alt can make this chapter well-formed XML, so its book fails
        # with the integrity check's reason and no caption is asked for
        calls = []

        class CountingBackend(StubBackend):
            def generate_alt(self, request):
                calls.append(request.source_name)
                return super().generate_alt(request)

        monkeypatch.setattr("altgen.pipeline.make_backend", lambda cfg: CountingBackend())
        book = tmp_path / "soup.epub"
        book.write_bytes(
            book_with_chapter(
                b'<html><body><p>soup<br><img src="images/a.png"><img src="images/b.png">'
                b"</body></html>",
                ["a.png", "b.png"],
            )
        )
        results, code = run_repair([book], PipelineConfig(jobs=1, output_dir=tmp_path / "out"))
        assert calls == []
        assert results[0].status is FileStatus.FAILED
        assert results[0].failure_reason == "MalformedModifiedDoc: OEBPS/ch1.xhtml"
        assert results[0].caption_failures == 0
        assert code == 2

    def test_one_integrity_check_per_captioned_book(self, tmp_path, monkeypatch):
        # the gate runs once, before captioning; rebuild does not run it
        # again, and a clean book never reaches it
        from altgen import reconstruct

        calls = []
        check = reconstruct.integrity_check

        def counted(archive, pkg, chapters=()):
            calls.append(archive.rootfile_path)
            return check(archive, pkg, chapters)

        monkeypatch.setattr("altgen.reconstruct.integrity_check", counted)
        (tmp_path / "in").mkdir()
        write_book(tmp_path / "in" / "a.epub", **defective_kwargs())
        write_book(tmp_path / "in" / "b.epub")
        write_book(tmp_path / "in" / "c.epub", **defective_kwargs())
        results, code = run_repair(
            [tmp_path / "in"], PipelineConfig(jobs=1, output_dir=tmp_path / "out")
        )
        assert [r.status for r in results] == [
            FileStatus.REPAIRED,
            FileStatus.CLEAN_SKIPPED,
            FileStatus.REPAIRED,
        ]
        assert len(calls) == 2
        assert code == 0

    def test_every_pre_caption_finding_is_reported_sorted(self, tmp_path):
        # an unmendable chapter and a dangling manifest href: both are
        # named, by path, and no caption is asked for
        book = build_zip(
            [
                ("META-INF/container.xml", container_xml()),
                (
                    "OEBPS/ch1.xhtml",
                    b'<html><body><p>soup<br><img src="images/a.png"></body></html>',
                ),
                ("OEBPS/images/a.png", tiny_png()),
                (
                    "OEBPS/content.opf",
                    opf(
                        manifest=[
                            ("c1", "ch1.xhtml", "application/xhtml+xml"),
                            ("a", "images/a.png", "image/png"),
                            ("z", "art/z.png", "image/png"),
                        ],
                        spine=["c1"],
                    ),
                ),
            ]
        )
        (tmp_path / "soup.epub").write_bytes(book)
        (result,), code = run_repair(
            [tmp_path / "soup.epub"], PipelineConfig(jobs=1, output_dir=tmp_path / "out")
        )
        assert result.status is FileStatus.FAILED
        assert result.failure_reason == (
            "ManifestDanglingHref: OEBPS/art/z.png; MalformedModifiedDoc: OEBPS/ch1.xhtml"
        )
        assert result.caption_failures == 0 and result.alts_written == 0
        assert code == 2

    def test_tag_soup_the_alt_makes_xml_repaired(self, tmp_path):
        # a valueless alt is the chapter's only fault, and the splice mends it
        chapter = page('<p>x</p><img src="images/a.png" alt/><img src="images/a.png"/>')
        results, code, out = self._batch_with(tmp_path, chapter)
        assert [r.status for r in results] == [FileStatus.REPAIRED, FileStatus.REPAIRED]
        assert results[0].alts_written == 2
        repaired = open_epub((out / "bad.epub").read_bytes()).entry("OEBPS/ch1.xhtml")
        assert all(o.existing_alt.startswith("Image: a.") for o in find_images(repaired))
        assert code == 0

    @pytest.mark.parametrize("stem", ["title\x01less", "title\udcffless"])
    def test_title_xml_cannot_hold_fails_only_its_book(self, tmp_path, stem):
        # the file name becomes the missing dc:title, which the OPF cannot hold
        (tmp_path / "in").mkdir()
        write_book(tmp_path / "in" / f"{stem}.epub", title=None, **defective_kwargs())
        write_book(tmp_path / "in" / "good.epub", **defective_kwargs())
        out = tmp_path / "out"
        results, code = run_repair([tmp_path / "in"], PipelineConfig(jobs=1, output_dir=out))
        good, bad = results
        assert good.status is FileStatus.REPAIRED
        assert bad.status is FileStatus.FAILED
        assert "cannot be written in XML" in bad.failure_reason
        assert (out / REPORT_FILENAME).exists()
        assert code == 2

    def test_clean_book_unwritable_copy_fails_only_its_book(
        self, clean_book, defective_book, tmp_path
    ):
        out = tmp_path / "out"
        (out / clean_book.name).mkdir(parents=True)
        results, code = run_repair(
            [clean_book, defective_book], PipelineConfig(jobs=1, output_dir=out)
        )
        clean, defective = results
        assert clean.status is FileStatus.FAILED
        assert clean.pre_report.error_count == 0
        assert clean.failure_reason
        assert defective.status is FileStatus.REPAIRED
        stored = json.loads((out / REPORT_FILENAME).read_text(encoding="utf-8"))
        assert [row["status"] for row in stored["files"]] == ["Failed", "Repaired"]
        assert code == 2

    def test_utf16_chapter_repaired(self, tmp_path):
        text = page('<img src="images/a.png"/>').decode("utf-8").replace("UTF-8", "UTF-16")
        chapter = codecs.BOM_UTF16_LE + text.encode("utf-16-le")
        results, code, out = self._batch_with(tmp_path, chapter)
        assert [r.status for r in results] == [FileStatus.REPAIRED, FileStatus.REPAIRED]
        assert results[0].alts_written == 1
        assert (out / REPORT_FILENAME).exists()
        assert code == 0

    def test_deeply_nested_book_without_language_repaired(self, tmp_path):
        # the language sample walks this chapter's 3000 levels of nesting
        prose = "The keeper climbed the tower every evening to light the great lamp."
        depth = 3000
        body = f'<p>{prose}</p><img src="images/a.png"/>'
        chapter = page("<div>" * depth + body + "</div>" * depth)
        (tmp_path / "in").mkdir()
        (tmp_path / "in" / "deep.epub").write_bytes(
            book_with_chapter(chapter, ["a.png"], language=None)
        )
        write_book(tmp_path / "in" / "good.epub", **defective_kwargs())
        out = tmp_path / "out"
        results, code = run_repair([tmp_path / "in"], PipelineConfig(jobs=1, output_dir=out))
        deep = results[0]
        assert [r.status for r in results] == [FileStatus.REPAIRED, FileStatus.REPAIRED]
        assert deep.alts_written == 1
        assert any(f.field == "dc:language" and f.new == "en" for f in deep.fixes)
        assert code == 0

    def test_name_collision_outputs(self, tmp_path):
        d1 = tmp_path / "d1"
        d2 = tmp_path / "d2"
        d1.mkdir()
        d2.mkdir()
        write_book(d1 / "book.epub")
        write_book(d2 / "book.epub", title="Another")
        out = tmp_path / "out"
        results, _ = run_repair(
            [d1 / "book.epub", d2 / "book.epub"],
            PipelineConfig(jobs=1, output_dir=out),
        )
        assert (out / "book.epub").exists()
        assert (out / "book-2.epub").exists()
        assert {Path(r.output_path).name for r in results} == {
            "book.epub",
            "book-2.epub",
        }


class TestDeterminism:
    def _corpus(self, tmp_path) -> Path:
        src = tmp_path / "src"
        src.mkdir()
        write_book(src / "clean.epub")
        (src / "broken.epub").write_bytes(make_book(**defective_kwargs()))
        write_book(
            src / "third.epub",
            title=None,
            images=[{"chapter": 0, "name": "dune.png", "alt": None}],
        )
        return src

    @staticmethod
    def _snapshot(out: Path) -> dict[str, bytes]:
        return {p.name: p.read_bytes() for p in sorted(out.iterdir())}

    def test_repeat_runs_byte_identical(self, tmp_path, monkeypatch):
        # same inputs, same output dir, frozen clock: every artifact
        # including the report must come out byte-for-byte equal
        monkeypatch.setenv("ALTGEN_EPOCH", "1700000000")
        src = self._corpus(tmp_path)
        out = tmp_path / "out"
        run_repair([src], PipelineConfig(jobs=1, output_dir=out))
        first = self._snapshot(out)
        run_repair([src], PipelineConfig(jobs=1, output_dir=out))
        assert self._snapshot(out) == first
        assert REPORT_FILENAME in first

    def test_parallel_matches_serial(self, tmp_path, monkeypatch):
        monkeypatch.setenv("ALTGEN_EPOCH", "1700000000")
        src = self._corpus(tmp_path)
        out = tmp_path / "out"
        run_repair([src], PipelineConfig(jobs=1, output_dir=out))
        serial = self._snapshot(out)
        run_repair([src], PipelineConfig(jobs=8, output_dir=out))
        assert self._snapshot(out) == serial


# Up to eight byte flips, deletions or insertions, each at a position taken
# modulo the book's length at that point.
_EDITS = st.lists(
    st.tuples(
        st.sampled_from(("flip", "delete", "insert")),
        st.integers(min_value=0, max_value=2**32),
        st.integers(min_value=0, max_value=255),
    ),
    min_size=1,
    max_size=8,
)


def _mutate(data: bytes, edits) -> bytes:
    out = bytearray(data)
    for op, where, value in edits:
        at = where % len(out)
        if op == "flip":
            out[at] ^= 1 << (value % 8)
        elif op == "delete":
            del out[at]
        else:
            out.insert(at, value)
    return bytes(out)


def _rows(results) -> dict[str, dict]:
    """Each result's row by book name, without paths and timing."""
    rows = {}
    for r in results:
        row = r.to_dict()
        for key in ("input_path", "output_path", "elapsed_seconds"):
            del row[key]
        rows[Path(r.input_path).name] = row
    return rows


def _audit_and_repair(src: Path, out: Path) -> tuple[dict, dict, dict[str, bytes]]:
    audited, _ = run_audit([src], PipelineConfig(jobs=1))
    repaired, _ = run_repair([src], PipelineConfig(jobs=1, output_dir=out))
    books = {p.name: p.read_bytes() for p in out.glob("*.epub")}
    return _rows(audited), _rows(repaired), books


@settings(max_examples=80, deadline=None)
@given(edits=_EDITS)
def test_mutant_container_fails_only_its_own_book(edits):
    # [good, mutant, good]: the good books get the rows and bytes they get
    # without the mutant, and the mutant gets exactly one row
    defective = make_book(**defective_kwargs())
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        for src in (tmp / "alone", tmp / "mixed"):
            src.mkdir()
            (src / "a.epub").write_bytes(defective)
            write_book(src / "c.epub")
        (tmp / "mixed" / "b.epub").write_bytes(_mutate(defective, edits))
        alone = _audit_and_repair(tmp / "alone", tmp / "alone-out")
        mixed = _audit_and_repair(tmp / "mixed", tmp / "mixed-out")
    for rows, rows_alone in zip(mixed[:2], alone[:2]):
        assert sorted(rows) == ["a.epub", "b.epub", "c.epub"]
        mutant = rows.pop("b.epub")
        assert rows == rows_alone
        assert (mutant["status"] == "Failed") == bool(mutant["reason"])
        assert not (mutant["reason"] or "").startswith("internal error")
    mixed[2].pop("b.epub", None)
    assert mixed[2] == alone[2]


def test_pooled_run_over_mutants_matches_one_process(tmp_path, monkeypatch):
    # 64 books, so that audit and repair each get two worker processes; a
    # fixed set of byte-edited mutants among repairable and clean books
    monkeypatch.setenv("ALTGEN_EPOCH", "0")
    defective = make_book(**defective_kwargs())
    clean = make_book()
    rng = random.Random(20)
    src = tmp_path / "in"
    src.mkdir()
    for k in range(64):
        data = clean if k % 4 == 3 else defective
        if k % 2 == 0:
            ops = ("flip", "delete", "insert")
            edits = [
                (rng.choice(ops), rng.randrange(2**32), rng.randrange(256))
                for _ in range(rng.randint(1, 8))
            ]
            data = _mutate(data, edits)
        (src / f"book{k:02}.epub").write_bytes(data)
    pools = []
    run_pool = pipeline._run_pool

    def counted_pool(task, items, workers, *args):
        pools.append(workers)
        return run_pool(task, items, workers, *args)

    monkeypatch.setattr(pipeline, "_run_pool", counted_pool)
    out = tmp_path / "out"
    runs = []
    for jobs in (1, 2):
        audited, audit_code = run_audit([src], PipelineConfig(jobs=jobs))
        _, repair_code = run_repair([src], PipelineConfig(jobs=jobs, output_dir=out))
        audit_report = json.dumps(pipeline.report_dict(audited), sort_keys=True)
        written = {p.name: p.read_bytes() for p in out.iterdir()}
        runs.append((audit_report, audit_code, repair_code, written))
        shutil.rmtree(out)
    assert pools == [2, 2]
    assert runs[0] == runs[1]
    statuses = {row["status"] for row in json.loads(runs[0][3][REPORT_FILENAME])["files"]}
    assert statuses == {"Failed", "Repaired", "CleanSkipped"}


def _repair_and_reference(tmp_path, monkeypatch=None) -> tuple[Path, Path]:
    """Repair the defective fixture and derive a references file whose alts
    equal the written ones, so perfect metrics are expected."""
    book = tmp_path / "story.epub"
    book.write_bytes(make_book(**defective_kwargs()))
    out = tmp_path / "repaired"
    run_repair([book], PipelineConfig(jobs=1, output_dir=out))
    repaired = open_epub((out / "story.epub").read_bytes())
    rows = []
    for doc in ("OEBPS/ch1.xhtml", "OEBPS/ch2.xhtml"):
        for i, occ in enumerate(find_images(repaired.entry(doc), doc)):
            rows.append(
                {"epub": "story.epub", "doc": doc, "index": i, "alt": occ.existing_alt}
            )
    refs = tmp_path / "refs.json"
    refs.write_text(json.dumps(rows), encoding="utf-8")
    return out, refs


class TestRunValidate:
    def test_perfect_references(self, tmp_path):
        out, refs = _repair_and_reference(tmp_path)
        report, code = run_validate(out, refs, PipelineConfig(jobs=1))
        assert code == 0
        assert report.n_pairs == 2
        assert report.cosine == pytest.approx(1.0, abs=1e-9)
        assert report.bleu == pytest.approx(1.0, abs=1e-9)
        assert report.err_percent == 100.0
        assert report.missing_references == 0
        assert report.seconds_per_file is not None

    def test_missing_references_counted(self, tmp_path):
        out, refs = _repair_and_reference(tmp_path)
        rows = json.loads(refs.read_text(encoding="utf-8"))
        rows.append({"epub": "story.epub", "doc": "OEBPS/nope.xhtml", "index": 0, "alt": "x"})
        rows.append({"epub": "story.epub", "doc": "OEBPS/ch1.xhtml", "index": 99, "alt": "x"})
        rows.append({"epub": "gone.epub", "doc": "OEBPS/ch1.xhtml", "index": 0, "alt": "x"})
        refs.write_text(json.dumps(rows), encoding="utf-8")
        report, _ = run_validate(out, refs, PipelineConfig(jobs=1))
        assert report.missing_references == 3
        assert report.n_pairs == 2

    @pytest.mark.parametrize("form", ["parent", "absolute", "nested", "directory", "link"])
    def test_book_outside_the_directory_is_a_missing_reference(self, tmp_path, form):
        # a row names a regular file directly in the directory; the same
        # book beside it, below it, or behind a link there is not read
        out, refs = _repair_and_reference(tmp_path)
        other = tmp_path / "other"
        other.mkdir()
        shutil.copy(out / "story.epub", other / "story.epub")
        (out / "sub").mkdir()
        shutil.copy(out / "story.epub", out / "sub" / "story.epub")
        (out / "link.epub").symlink_to(other / "story.epub")
        epub = {
            "parent": "../other/story.epub",
            "absolute": str(other / "story.epub"),
            "nested": "sub/story.epub",
            "directory": "sub",
            "link": "link.epub",
        }[form]
        rows = json.loads(refs.read_text(encoding="utf-8"))
        refs.write_text(json.dumps([dict(row, epub=epub) for row in rows]), encoding="utf-8")
        report, code = run_validate(out, refs, PipelineConfig(jobs=1))
        assert code == 0
        assert (report.n_pairs, report.missing_references) == (0, len(rows))

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no FIFOs on this platform")
    def test_fifo_in_the_directory_is_a_missing_reference(self, tmp_path):
        # opening a FIFO to read waits for a writer: validate runs in a
        # subprocess, so that a hang fails this test instead of the suite
        out, refs = _repair_and_reference(tmp_path)
        os.mkfifo(out / "pipe.epub")
        rows = json.loads(refs.read_text(encoding="utf-8"))
        refs.write_text(json.dumps(rows + [dict(rows[0], epub="pipe.epub")]), encoding="utf-8")
        proc = subprocess.run(
            [sys.executable, "-m", "altgen", "validate", str(out), "--references", str(refs),
             "--report", "json"],
            capture_output=True, text=True, timeout=30,
        )
        assert (proc.returncode, proc.stderr) == (0, "")
        payload = json.loads(proc.stdout)
        assert (payload["n_pairs"], payload["missing_references"]) == (len(rows), 1)

    def test_books_are_read_one_at_a_time(self, tmp_path):
        # each book holds a stored 1 MiB entry: reading one holds its file
        # and the entry, and holding every book read would peak above eight
        noise = random.Random(7)
        out = tmp_path / "repaired"
        out.mkdir()
        rows = []
        for k in range(8):
            name = f"book{k}.epub"
            (out / name).write_bytes(
                make_book(images=[{"chapter": 0, "name": "fox.png", "alt": "A red fox"}])
            )
            with zipfile.ZipFile(out / name, "a") as zf:
                zf.writestr("OEBPS/noise.bin", noise.randbytes(1 << 20), zipfile.ZIP_STORED)
            rows.append({"epub": name, "doc": "OEBPS/ch1.xhtml", "index": 0, "alt": "A red fox"})
        refs = tmp_path / "refs.json"
        refs.write_text(json.dumps(rows), encoding="utf-8")
        book = (out / "book0.epub").stat().st_size
        tracemalloc.start()
        try:
            report, _ = run_validate(out, refs, PipelineConfig(jobs=1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.n_pairs == 8
        assert peak < 2 * book + (1 << 20)

    def test_exit_one_when_post_errors_remain(self, tmp_path, monkeypatch):
        book = tmp_path / "story.epub"
        book.write_bytes(make_book(**defective_kwargs()))
        out = tmp_path / "repaired"
        monkeypatch.setattr(
            "altgen.pipeline.make_backend", lambda cfg: _FailingBackend()
        )
        run_repair([book], PipelineConfig(jobs=1, output_dir=out))
        monkeypatch.undo()
        refs = tmp_path / "refs.json"
        refs.write_text("[]", encoding="utf-8")
        report, code = run_validate(out, refs, PipelineConfig(jobs=1))
        assert code == 1
        assert report.n_pairs == 0
        assert report.err_percent < 100.0

    def test_not_a_directory(self, tmp_path):
        refs = tmp_path / "refs.json"
        refs.write_text("[]", encoding="utf-8")
        with pytest.raises(PipelineError):
            run_validate(tmp_path / "missing", refs, PipelineConfig(jobs=1))

    def test_references_must_be_array(self, tmp_path):
        refs = tmp_path / "refs.json"
        refs.write_text('{"epub": "x"}', encoding="utf-8")
        with pytest.raises(PipelineError):
            load_references(refs)

    def test_references_need_all_fields(self, tmp_path):
        refs = tmp_path / "refs.json"
        refs.write_text('[{"epub": "x", "doc": "y"}]', encoding="utf-8")
        with pytest.raises(PipelineError):
            load_references(refs)

    def test_references_unreadable(self, tmp_path):
        refs = tmp_path / "refs.json"
        refs.write_text("not json", encoding="utf-8")
        with pytest.raises(PipelineError):
            load_references(refs)


class TestStubBackendWiring:
    def test_repair_uses_manifest_media_type(self, tmp_path):
        # svg image gets a caption from its <title>, proving the manifest
        # media type reached the caption request
        book = tmp_path / "svgbook.epub"
        book.write_bytes(
            make_book(
                images=[
                    {"chapter": 0, "name": "map.svg", "alt": None, "svg_title": "Harbour map"}
                ]
            )
        )
        out = tmp_path / "out"
        run_repair([book], PipelineConfig(jobs=1, output_dir=out))
        repaired = open_epub((out / "svgbook.epub").read_bytes())
        occs = find_images(repaired.entry("OEBPS/ch1.xhtml"), "OEBPS/ch1.xhtml")
        assert "Harbour map." in occs[0].existing_alt

    def test_decorative_images_left_alone(self, tmp_path):
        book = tmp_path / "deco.epub"
        book.write_bytes(
            make_book(
                language=None,  # still defective, so the repair stage runs
                images=[
                    {"chapter": 0, "name": "rule.png", "alt": None, "decorative": True}
                ],
            )
        )
        out = tmp_path / "out"
        results, _ = run_repair([book], PipelineConfig(jobs=1, output_dir=out))
        assert results[0].alts_written == 0
        repaired = open_epub((out / "deco.epub").read_bytes())
        occs = find_images(repaired.entry("OEBPS/ch1.xhtml"), "OEBPS/ch1.xhtml")
        assert occs[0].existing_alt is None

    def test_filename_placeholder_alt_replaced(self, tmp_path):
        # alt equal to the file name counts as inadequate
        book = tmp_path / "placeholder.epub"
        book.write_bytes(
            make_book(
                language=None,
                images=[{"chapter": 0, "name": "fox.png", "alt": "fox.png"}],
            )
        )
        out = tmp_path / "out"
        results, _ = run_repair([book], PipelineConfig(jobs=1, output_dir=out))
        assert results[0].alts_written == 1
        repaired = open_epub((out / "placeholder.epub").read_bytes())
        occs = find_images(repaired.entry("OEBPS/ch1.xhtml"), "OEBPS/ch1.xhtml")
        assert occs[0].existing_alt.startswith("Image: fox.")

    def test_stub_backend_selected_by_default(self):
        from altgen.pipeline import make_backend

        assert isinstance(make_backend(PipelineConfig(jobs=1)), StubBackend)
