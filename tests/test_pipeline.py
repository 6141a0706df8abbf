"""Batch orchestration: path collection, repair flow, reporting, validation."""

from __future__ import annotations

import codecs
import json
from pathlib import Path

import pytest

from altgen.backend import BackendUnavailable, StubBackend
from altgen.container import open_epub
from altgen.content import find_images
from altgen.pipeline import (
    REPORT_FILENAME,
    FileStatus,
    PipelineConfig,
    PipelineError,
    aggregate_results,
    assign_output_names,
    collect_epub_paths,
    load_references,
    run_audit,
    run_repair,
    run_validate,
)
from epubgen import book_with_chapter, make_book, page


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


class _FailingBackend:
    supports_language_detection = False

    def generate_alt(self, request):
        raise BackendUnavailable("backend down")

    def embed_texts(self, texts):
        raise BackendUnavailable("backend down")


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

    def test_rewrite_failure_fails_only_its_book(self, tmp_path):
        # the tokenizer takes the <img inside the script for the first image,
        # so the post-splice check finds the real image still without alt
        chapter = (
            b'<html><body><p>soup<script>var s = "<img src=q>";</script>'
            b'<img src="images/a.png"></body></html>'
        )
        self._assert_isolated(*self._batch_with(tmp_path, chapter), "verification failed")

    def test_stale_occurrence_fails_only_its_book(self, tmp_path):
        # an unterminated quote hides the image from the tokenizer
        chapter = b"<html><body><p title='x>text</p><img src=\"images/a.png\"></body></html>"
        self._assert_isolated(*self._batch_with(tmp_path, chapter), "not found")

    def test_utf16_chapter_repaired(self, tmp_path):
        text = page('<img src="images/a.png"/>').decode("utf-8").replace("UTF-8", "UTF-16")
        chapter = codecs.BOM_UTF16_LE + text.encode("utf-16-le")
        results, code, out = self._batch_with(tmp_path, chapter)
        assert [r.status for r in results] == [FileStatus.REPAIRED, FileStatus.REPAIRED]
        assert results[0].alts_written == 1
        assert (out / REPORT_FILENAME).exists()
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
