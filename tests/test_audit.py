from __future__ import annotations

import pytest

import epubgen
from altgen.audit import (
    IssueCode,
    PACKAGE_LOCATION,
    Severity,
    audit,
    is_well_formed_language_tag,
)
from altgen.container import open_epub
from altgen.package import parse_opf


def run_audit(book_bytes: bytes):
    arc = open_epub(book_bytes)
    pkg = parse_opf(arc.entry(arc.rootfile_path))
    return arc, pkg, audit(arc, pkg)


def codes(report) -> list[str]:
    return [i.code.value for i in report.issues]


def test_clean_book_has_no_issues(clean_book_bytes):
    _, _, report = run_audit(clean_book_bytes)
    assert report.issues == []
    assert report.error_count == 0
    assert report.warning_count == 0
    assert report.files_scanned == 2


def test_missing_alt_is_error():
    book = epubgen.make_book(
        images=[{"chapter": 0, "name": "a.png", "alt": None}]
    )
    _, _, report = run_audit(book)
    assert codes(report) == ["ImgMissingAlt"]
    issue = report.issues[0]
    assert issue.severity is Severity.ERROR
    assert issue.doc_path == "OEBPS/ch1.xhtml"
    assert issue.element_index == 0


def test_decorative_images_exempt():
    book = epubgen.make_book(
        images=[
            {"chapter": 0, "name": "a.png", "alt": "", "decorative": True},
            {"chapter": 0, "name": "b.png", "alt": None, "decorative": True},
        ]
    )
    _, _, report = run_audit(book)
    assert report.issues == []


def test_empty_alt_without_role_is_warning():
    book = epubgen.make_book(
        images=[{"chapter": 0, "name": "a.png", "alt": ""}]
    )
    _, _, report = run_audit(book)
    assert codes(report) == ["ImgEmptyAltNonDecorative"]
    assert report.issues[0].severity is Severity.WARNING


def test_missing_language_is_error():
    book = epubgen.make_book(language=None)
    _, _, report = run_audit(book)
    assert codes(report) == ["MissingDcLanguage"]
    assert report.issues[0].doc_path == PACKAGE_LOCATION
    assert report.issues[0].element_index is None


def test_invalid_language_tag_is_warning():
    book = epubgen.make_book(language="not a tag!")
    _, _, report = run_audit(book)
    assert codes(report) == ["InvalidLanguageTag"]
    assert report.issues[0].severity is Severity.WARNING


def test_missing_accessibility_metadata_is_warning():
    book = epubgen.make_book(access=False)
    _, _, report = run_audit(book)
    assert codes(report) == ["MissingAccessibilityMetadata"]
    assert report.issues[0].severity is Severity.WARNING


def test_missing_title_is_error():
    book = epubgen.make_book(title=None)
    _, _, report = run_audit(book)
    assert codes(report) == ["MissingDcTitle"]


def test_blank_title_counts_as_missing():
    book = epubgen.make_book(title="   ")
    _, _, report = run_audit(book)
    assert codes(report) == ["MissingDcTitle"]


def test_dangling_image_is_error():
    book = epubgen.make_book(
        images=[{"chapter": 0, "name": "ghost.png", "alt": "A ghost", "dangling": True}]
    )
    _, _, report = run_audit(book)
    assert codes(report) == ["DanglingImageResource"]
    assert report.issues[0].severity is Severity.ERROR


def test_remote_image_not_dangling():
    body = '<p>x</p><img src="https://cdn.example.com/a.png" alt="remote"/>'
    entries = [
        ("META-INF/container.xml", epubgen.container_xml()),
        ("OEBPS/ch1.xhtml", epubgen.page(body)),
        (
            "OEBPS/content.opf",
            epubgen.opf(
                manifest=[("c1", "ch1.xhtml", "application/xhtml+xml")],
                spine=["c1"],
            ),
        ),
    ]
    _, _, report = run_audit(epubgen.build_zip(entries))
    assert report.issues == []


def test_unparseable_document_is_warning():
    entries = [
        ("META-INF/container.xml", epubgen.container_xml()),
        ("OEBPS/ch1.xhtml", b'<?xml version="1.0" encoding="utf-8"?><html>\xff\xfe</html>'),
        (
            "OEBPS/content.opf",
            epubgen.opf(
                manifest=[("c1", "ch1.xhtml", "application/xhtml+xml")],
                spine=["c1"],
            ),
        ),
    ]
    _, _, report = run_audit(epubgen.build_zip(entries))
    assert codes(report) == ["UnparseableDocument"]
    assert report.issues[0].severity is Severity.WARNING


def test_multiple_defects_sorted_deterministically():
    book = epubgen.make_book(
        n_chapters=2,
        title=None,
        language=None,
        images=[
            {"chapter": 1, "name": "z.png", "alt": None},
            {"chapter": 0, "name": "a.png", "alt": None},
            {"chapter": 0, "name": "b.png", "alt": ""},
        ],
    )
    _, _, report = run_audit(book)
    keys = [(i.doc_path, i.element_index, i.code.value) for i in report.issues]
    assert keys == sorted(
        keys, key=lambda k: (k[0], k[1] if k[1] is not None else -1, k[2])
    )
    assert report.error_count == 4  # 2 missing alt + title + language
    assert report.warning_count == 1


def test_audit_counts_non_spine_manifest_docs():
    entries = [
        ("META-INF/container.xml", epubgen.container_xml()),
        ("OEBPS/ch1.xhtml", epubgen.page("<p>main</p>")),
        ("OEBPS/extra.xhtml", epubgen.page('<img src="images/a.png"/>')),
        ("OEBPS/images/a.png", epubgen.tiny_png()),
        (
            "OEBPS/content.opf",
            epubgen.opf(
                manifest=[
                    ("c1", "ch1.xhtml", "application/xhtml+xml"),
                    ("x1", "extra.xhtml", "application/xhtml+xml"),
                    ("i1", "images/a.png", "image/png"),
                ],
                spine=["c1"],
            ),
        ),
    ]
    _, _, report = run_audit(epubgen.build_zip(entries))
    assert codes(report) == ["ImgMissingAlt"]
    assert report.issues[0].doc_path == "OEBPS/extra.xhtml"


def test_audit_is_pure(clean_book_bytes):
    arc = open_epub(clean_book_bytes)
    pkg = parse_opf(arc.entry(arc.rootfile_path))
    before = [(e.path, e.data) for e in arc.entries]
    audit(arc, pkg)
    audit(arc, pkg)
    assert [(e.path, e.data) for e in arc.entries] == before


def test_report_dict_shape():
    book = epubgen.make_book(images=[{"chapter": 0, "name": "a.png", "alt": None}])
    _, _, report = run_audit(book)
    d = report.to_dict()
    assert set(d) == {"error_count", "warning_count", "files_scanned", "issues"}
    assert d["issues"][0] == {
        "code": "ImgMissingAlt",
        "severity": "Error",
        "doc_path": "OEBPS/ch1.xhtml",
        "element_index": 0,
        "message": d["issues"][0]["message"],
    }


WELL_FORMED = [
    "en",
    "EN",
    "en-US",
    "en-us",
    "zh-Hant",
    "sr-Latn-RS",
    "de-CH-1901",
    "es-419",
    "x-private",
    "en-x-priv2",
    "i-klingon",
    "zh-min-nan",
    "az-Arab-x-AZE-derbend",
    "en-a-bbb-x-a-ccc",
]

ILL_FORMED = [
    "",
    " ",
    "a",
    "en US",
    "en_US",
    "123",
    "en-",
    "-en",
    "en--US",
    "toolongsubtag9",
    "en-US-",
    "x-",
    "i-notreal",
    "en\n",  # a trailing newline is no part of a tag
    "\u017fv",  # LATIN SMALL LETTER LONG S folds to "s", but tags are ASCII
    "\u212ay",  # KELVIN SIGN folds to "k"
]


@pytest.mark.parametrize("tag", WELL_FORMED)
def test_well_formed_tags(tag):
    assert is_well_formed_language_tag(tag)


@pytest.mark.parametrize("tag", ILL_FORMED)
def test_ill_formed_tags(tag):
    assert not is_well_formed_language_tag(tag)
