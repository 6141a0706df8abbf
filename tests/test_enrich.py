"""Metadata enrichment: language, accessibility defaults, title fallback."""

from __future__ import annotations

import copy

import pytest

from altgen.container import open_epub
from altgen.content import ContentDocument
from altgen.enrich import (
    SAMPLE_CHARS,
    AppliedFix,
    FixReason,
    enrich_metadata,
    sample_spine_text,
    sampled_documents,
)
from altgen.langdetect import Undetermined, detect_language
from altgen.package import MetaKind, parse_opf
from epubgen import build_zip, container_xml, make_book, opf, page


def load(book: bytes):
    archive = open_epub(book)
    return archive, parse_opf(archive.entry(archive.rootfile_path))


def detect_en(text: str) -> tuple[str, float]:
    return ("en", 0.9)


def detect_never(text: str) -> tuple[str, float]:
    raise Undetermined("no vote")


class TestLanguage:
    def test_complete_package_untouched(self):
        archive, pkg = load(make_book())
        enriched, fixes = enrich_metadata(pkg, archive, detect_never)
        assert fixes == []
        assert enriched == pkg

    def test_missing_language_detected(self):
        archive, pkg = load(make_book(language=None))
        enriched, fixes = enrich_metadata(pkg, archive, detect_language)
        assert enriched.values(MetaKind.DC_LANGUAGE) == ["en"]
        assert fixes == [AppliedFix("dc:language", None, "en", FixReason.DETECTED)]
        # same call the enrichment makes, run in isolation
        assert detect_language(sample_spine_text(pkg, archive))[0] == "en"

    def test_ill_formed_language_replaced(self):
        archive, pkg = load(make_book(language="english text"))
        enriched, fixes = enrich_metadata(pkg, archive, detect_en)
        assert enriched.values(MetaKind.DC_LANGUAGE) == ["en"]
        assert fixes == [
            AppliedFix("dc:language", "english text", "en", FixReason.DETECTED)
        ]

    def test_well_formed_sibling_kept(self):
        book = make_book(extra_metadata="<dc:language>not a tag!</dc:language>")
        archive, pkg = load(book)
        enriched, fixes = enrich_metadata(pkg, archive, detect_en)
        assert enriched.values(MetaKind.DC_LANGUAGE) == ["en", "en"]
        assert [f.old for f in fixes if f.field == "dc:language"] == ["not a tag!"]

    def test_detector_failure_skipped(self):
        archive, pkg = load(make_book(language=None))
        enriched, fixes = enrich_metadata(pkg, archive, detect_never)
        assert enriched.values(MetaKind.DC_LANGUAGE) == []
        assert AppliedFix("dc:language", None, None, FixReason.SKIPPED) in fixes

    def test_detector_failure_with_well_formed_present(self):
        book = make_book(extra_metadata="<dc:language>not a tag!</dc:language>")
        archive, pkg = load(book)
        enriched, fixes = enrich_metadata(pkg, archive, detect_never)
        # nothing to say: a usable tag already exists, the bad one stays
        assert enriched.values(MetaKind.DC_LANGUAGE) == ["en", "not a tag!"]
        assert [f for f in fixes if f.field == "dc:language"] == []

    def test_well_formed_value_never_rewritten(self):
        archive, pkg = load(make_book(language="fr"))
        enriched, fixes = enrich_metadata(pkg, archive, detect_en)
        assert enriched.values(MetaKind.DC_LANGUAGE) == ["fr"]
        assert [f for f in fixes if f.field == "dc:language"] == []


class TestAccessibility:
    def test_defaults_added(self):
        archive, pkg = load(make_book(access=False))
        enriched, fixes = enrich_metadata(pkg, archive, detect_en)
        assert enriched.accessibility_values("accessMode") == ["textual", "visual"]
        assert enriched.accessibility_values("accessibilityFeature") == ["altText"]
        access_fixes = [f for f in fixes if f.field.startswith("schema:")]
        assert [(f.field, f.new, f.reason) for f in access_fixes] == [
            ("schema:accessMode", "textual", FixReason.DEFAULT),
            ("schema:accessMode", "visual", FixReason.DEFAULT),
            ("schema:accessibilityFeature", "altText", FixReason.DEFAULT),
        ]

    def test_existing_access_mode_untouched(self):
        book = make_book(
            access=False,
            extra_metadata='<meta property="schema:accessMode">auditory</meta>',
        )
        archive, pkg = load(book)
        enriched, fixes = enrich_metadata(pkg, archive, detect_en)
        assert enriched.accessibility_values("accessMode") == ["auditory"]
        assert [f for f in fixes if f.field.startswith("schema:")] == []


class TestTitle:
    def test_fallback_applied(self):
        archive, pkg = load(make_book(title=None))
        enriched, fixes = enrich_metadata(
            pkg, archive, detect_en, fallback_title="old-harbour"
        )
        assert enriched.values(MetaKind.DC_TITLE) == ["old-harbour"]
        assert AppliedFix("dc:title", None, "old-harbour", FixReason.DEFAULT) in fixes

    def test_no_fallback_skipped(self):
        archive, pkg = load(make_book(title=None))
        enriched, fixes = enrich_metadata(pkg, archive, detect_en)
        assert enriched.values(MetaKind.DC_TITLE) == []
        assert AppliedFix("dc:title", None, None, FixReason.SKIPPED) in fixes

    def test_blank_title_counts_as_missing(self):
        archive, pkg = load(make_book(title="   "))
        enriched, fixes = enrich_metadata(
            pkg, archive, detect_en, fallback_title="stem"
        )
        # the blank entry stays; enrichment only ever adds
        assert enriched.values(MetaKind.DC_TITLE) == ["   ", "stem"]
        assert AppliedFix("dc:title", None, "stem", FixReason.DEFAULT) in fixes

    def test_present_title_untouched(self):
        archive, pkg = load(make_book())
        _, fixes = enrich_metadata(pkg, archive, detect_en, fallback_title="stem")
        assert [f for f in fixes if f.field == "dc:title"] == []


class TestGeneral:
    def test_idempotent(self):
        book = make_book(language=None, title=None, access=False)
        archive, pkg = load(book)
        once, fixes = enrich_metadata(
            pkg, archive, detect_language, fallback_title="stem"
        )
        assert fixes
        twice, second = enrich_metadata(
            once, archive, detect_language, fallback_title="stem"
        )
        assert second == []
        assert twice == once

    def test_input_not_mutated(self):
        archive, pkg = load(make_book(language=None, title=None, access=False))
        before = copy.deepcopy(pkg)
        enrich_metadata(pkg, archive, detect_en, fallback_title="stem")
        assert pkg == before

    def test_unchanged_package_returned_itself(self):
        archive, pkg = load(make_book())
        enriched, fixes = enrich_metadata(pkg, archive, detect_en, fallback_title="stem")
        assert fixes == []
        assert enriched is pkg

    def test_copy_on_write(self):
        book = make_book(extra_metadata="<dc:language>not a tag!</dc:language>", access=False)
        archive, pkg = load(book)
        before = list(pkg.metadata)
        enriched, _ = enrich_metadata(pkg, archive, detect_en)
        assert enriched is not pkg
        assert enriched.manifest is pkg.manifest and enriched.spine is pkg.spine
        assert pkg.metadata == before
        assert all(a is b for a, b in zip(pkg.metadata, before))
        pairs = zip(pkg.metadata, enriched.metadata)
        changed = [i for i, (a, b) in enumerate(pairs) if a is not b]
        assert [enriched.metadata[i].value for i in changed] == ["en"]
        assert [pkg.metadata[i].value for i in changed] == ["not a tag!"]

    def test_skipped_fix_cannot_carry_value(self):
        with pytest.raises(ValueError):
            AppliedFix("dc:language", None, "en", FixReason.SKIPPED)

    def test_fix_to_dict(self):
        fix = AppliedFix("dc:title", None, "stem", FixReason.DEFAULT)
        assert fix.to_dict() == {
            "field": "dc:title",
            "old": None,
            "new": "stem",
            "reason": "Default",
        }


class TestSampling:
    @pytest.mark.parametrize("n_chapters, words", [(1, 0), (7, 0), (3, 700), (3, 1300)])
    def test_sample_from_texts_already_walked(self, n_chapters, words):
        # chapters of 700 or 1300 more words reach the cap in the second one
        prose = "marsh tide  " * words
        chapters = [
            (f"OEBPS/ch{i}.xhtml", page(f"<p>Chapter {i}</p><p>{prose}</p>"))
            for i in range(1, n_chapters + 1)
        ]
        manifest = [
            (f"c{i}", f"ch{i}.xhtml", "application/xhtml+xml") for i in range(1, n_chapters + 1)
        ]
        spine = [item_id for item_id, _, _ in manifest]
        book = build_zip(
            [
                ("META-INF/container.xml", container_xml()),
                *chapters,
                ("OEBPS/content.opf", opf(language=None, manifest=manifest, spine=spine)),
            ]
        )
        archive, pkg = load(book)
        hrefs = sampled_documents(pkg, archive)
        assert hrefs == {f"OEBPS/ch{i + 1}.xhtml" for i in range(min(n_chapters, 5))}
        texts = {
            href: ContentDocument(archive.entry(href)).visible_text(SAMPLE_CHARS)
            for href in hrefs
        }
        assert sample_spine_text(pkg, archive, texts) == sample_spine_text(pkg, archive)

    def test_nothing_sampled_when_the_language_is_declared(self):
        archive, pkg = load(make_book())
        assert sampled_documents(pkg, archive) == set()

    def test_first_five_documents_only(self):
        archive, pkg = load(make_book(n_chapters=7))
        text = sample_spine_text(pkg, archive)
        assert "Chapter 5" in text
        assert "Chapter 6" not in text
        assert "Chapter 7" not in text

    def test_character_cap(self):
        body = "<p>" + ("marsh lantern tide " * 900) + "</p>"
        book = build_zip(
            [
                ("META-INF/container.xml", container_xml()),
                ("OEBPS/ch1.xhtml", page(body)),
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
        assert len(sample_spine_text(pkg, archive)) <= SAMPLE_CHARS

    def test_unparseable_document_skipped(self):
        bad = b'<?xml version="1.0" encoding="utf-8"?><html>\xff\xfe\x9c</html>'
        book = build_zip(
            [
                ("META-INF/container.xml", container_xml()),
                ("OEBPS/bad.xhtml", bad),
                ("OEBPS/good.xhtml", page("<p>quiet harbour morning</p>")),
                (
                    "OEBPS/content.opf",
                    opf(
                        manifest=[
                            ("c1", "bad.xhtml", "application/xhtml+xml"),
                            ("c2", "good.xhtml", "application/xhtml+xml"),
                        ],
                        spine=["c1", "c2"],
                    ),
                ),
            ]
        )
        archive, pkg = load(book)
        assert "quiet harbour morning" in sample_spine_text(pkg, archive)

    def test_non_document_spine_items_skipped(self):
        # a spine itemref pointing at an image manifest item contributes no text
        book = make_book()
        archive, pkg = load(book)
        assert "lighthouse" in sample_spine_text(pkg, archive)
