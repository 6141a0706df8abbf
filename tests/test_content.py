from __future__ import annotations

import codecs

import pytest

import epubgen
from altgen.container import ArchiveEntry, Undecodable, decode_xml
from altgen.content import (
    ContentDocument,
    ContextBundle,
    ImageOccurrence,
    RewriteFailed,
    StaleOccurrence,
    UnparseableDocument,
    document_text,
    extract_context,
    find_images,
    normalize_ws,
    parse_document,
    set_alt_text,
)
from altgen.package import parse_opf


def doc(body: str, path: str = "OEBPS/ch1.xhtml", **kw) -> ArchiveEntry:
    return ArchiveEntry(path=path, data=epubgen.page(body, **kw))


def pkg_for(title: str = "The Lighthouse Keeper"):
    raw = epubgen.opf(
        title=title,
        manifest=[("c1", "ch1.xhtml", "application/xhtml+xml")],
        spine=["c1"],
    )
    return parse_opf(ArchiveEntry(path="OEBPS/content.opf", data=raw))


class TestFindImages:
    def test_img_without_alt(self):
        occs = find_images(doc('<p>Hi</p><img src="images/a.png"/>'))
        assert len(occs) == 1
        occ = occs[0]
        assert occ.doc_path == "OEBPS/ch1.xhtml"
        assert occ.element_index == 0
        assert occ.src == "OEBPS/images/a.png"
        assert occ.existing_alt is None
        assert not occ.decorative

    def test_img_with_alt(self):
        occs = find_images(doc('<img src="a.png" alt="A fox"/>'))
        assert occs[0].existing_alt == "A fox"

    def test_empty_alt_and_role_presentation(self):
        occs = find_images(
            doc('<img src="a.png" alt=""/><img src="b.png" alt="" role="presentation"/>')
        )
        assert occs[0].existing_alt == ""
        assert not occs[0].decorative
        assert occs[1].decorative

    def test_role_none_is_decorative(self):
        occs = find_images(doc('<img src="a.png" alt="" role="none"/>'))
        assert occs[0].decorative

    def test_svg_image_href(self):
        body = (
            '<svg xmlns="http://www.w3.org/2000/svg">'
            '<image href="images/chart.svg"/></svg>'
        )
        occs = find_images(doc(body))
        assert len(occs) == 1
        assert occs[0].src == "OEBPS/images/chart.svg"

    def test_svg_image_xlink_href(self):
        body = (
            '<svg xmlns="http://www.w3.org/2000/svg" '
            'xmlns:xlink="http://www.w3.org/1999/xlink">'
            '<image xlink:href="images/chart.svg"/></svg>'
        )
        occs = find_images(doc(body))
        assert occs[0].src == "OEBPS/images/chart.svg"

    def test_document_order_indexing(self):
        occs = find_images(
            doc('<img src="one.png"/><p><img src="two.png"/></p><img src="three.png"/>')
        )
        assert [o.element_index for o in occs] == [0, 1, 2]
        assert [o.src.rsplit("/", 1)[1] for o in occs] == [
            "one.png",
            "two.png",
            "three.png",
        ]

    def test_scheme_src_kept_verbatim(self):
        occs = find_images(doc('<img src="https://cdn.example.com/x.png"/>'))
        assert occs[0].src == "https://cdn.example.com/x.png"

    def test_img_without_src_still_counted(self):
        # keeps element indexes aligned with the rewrite scanner
        occs = find_images(doc("<img/>"))
        assert len(occs) == 1
        assert occs[0].src == ""
        assert occs[0].existing_alt is None

    def test_lenient_parse_of_tag_soup(self):
        raw = ArchiveEntry(
            path="OEBPS/soup.xhtml",
            data=b"<html><body><p>Unclosed<img src=a.png alt=fox></body></html>",
        )
        occs = find_images(raw)
        assert len(occs) == 1
        assert occs[0].existing_alt == "fox"

    def test_undecodable_document_raises(self):
        raw = ArchiveEntry(
            path="OEBPS/bad.xhtml",
            data=b'<?xml version="1.0" encoding="utf-8"?><html>\xff\xfe\x9c</html>',
        )
        with pytest.raises(UnparseableDocument):
            find_images(raw)


class TestDecode:
    def test_bom_stripped(self):
        data = codecs.BOM_UTF8 + b"<html/>"
        assert decode_xml(data) == ("<html/>", "utf-8", codecs.BOM_UTF8)

    def test_latin1_declared(self):
        data = '<?xml version="1.0" encoding="iso-8859-1"?><p>caf\xe9</p>'.encode(
            "latin-1"
        )
        assert "café" in decode_xml(data)[0]

    def test_meta_charset(self):
        data = b'<html><head><meta charset="latin-1"/></head><body>caf\xe9</body></html>'
        assert "café" in decode_xml(data, meta=True)[0]

    def test_stylesheet_pi_is_no_declaration(self):
        data = '<?xml-stylesheet href="a.css" encoding="iso-8859-1"?><p>日本</p>'.encode()
        assert decode_xml(data) == (data.decode("utf-8"), "utf-8", b"")

    def test_lone_surrogate_is_undecodable(self):
        # UTF-7 spells half a surrogate pair, which no XML text holds and
        # expat, which reads a str as UTF-8, cannot take
        data = b'<?xml version="1.0" encoding="utf-7"?><p>+2D0-</p>'
        with pytest.raises(Undecodable, match="surrogate"):
            decode_xml(data)
        with pytest.raises(UnparseableDocument):
            parse_document(data)


class TestExtractContext:
    def test_figcaption_and_windows(self):
        body = (
            "<h1>Chapter 1</h1>"
            "<p>Before text here.</p>"
            '<figure><img src="a.png"/><figcaption>A fox at dusk</figcaption></figure>'
            "<p>After text here.</p>"
        )
        d = doc(body)
        occ = find_images(d)[0]
        ctx = extract_context(d, occ, pkg_for())
        assert ctx.figcaption == "A fox at dusk"
        assert ctx.nearest_heading == "Chapter 1"
        assert ctx.doc_title == "The Lighthouse Keeper"
        assert "Before text here." in ctx.preceding_text
        assert "After text here." in ctx.following_text

    def test_figcaption_excluded_from_windows(self):
        body = (
            "<p>Lead in.</p>"
            '<figure><img src="a.png"/><figcaption>Caption words</figcaption></figure>'
            "<p>Lead out.</p>"
        )
        d = doc(body)
        ctx = extract_context(d, find_images(d)[0], pkg_for())
        assert "Caption words" not in ctx.preceding_text
        assert "Caption words" not in ctx.following_text

    def test_no_figcaption(self):
        d = doc('<p>One.</p><img src="a.png"/><p>Two.</p>')
        ctx = extract_context(d, find_images(d)[0], pkg_for())
        assert ctx.figcaption is None

    def test_heading_not_in_text_windows(self):
        d = doc('<h2>Section Title</h2><p>Real text.</p><img src="a.png"/>')
        ctx = extract_context(d, find_images(d)[0], pkg_for())
        assert ctx.nearest_heading == "Section Title"
        assert "Section Title" not in ctx.preceding_text

    def test_windows_are_bounded_to_500(self):
        long_para = "word " * 400
        d = doc(f"<p>{long_para}</p><img src='a.png'/><p>{long_para}</p>")
        ctx = extract_context(d, find_images(d)[0], pkg_for())
        assert len(ctx.preceding_text) <= 500
        assert len(ctx.following_text) <= 500
        # truncation lands on word boundaries
        assert not ctx.preceding_text.startswith(" ")
        assert not ctx.following_text.endswith(" ")

    def test_stale_occurrence(self):
        d = doc('<img src="a.png"/>')
        occ = ImageOccurrence(
            doc_path="OEBPS/ch1.xhtml",
            element_index=5,
            src="OEBPS/a.png",
            existing_alt=None,
            decorative=False,
        )
        with pytest.raises(StaleOccurrence):
            extract_context(d, occ, pkg_for())

    def test_empty_document_gives_empty_bundle(self):
        d = doc('<img src="a.png"/>')
        ctx = extract_context(d, find_images(d)[0], pkg_for())
        assert ctx.preceding_text == ""
        assert ctx.following_text == ""
        assert ctx.nearest_heading is None


class TestDocumentText:
    def test_collects_visible_text(self):
        d = doc("<h1>Title</h1><p>One two.</p><p>Three.</p>")
        text = document_text(d)
        assert "Title" in text and "One two." in text and "Three." in text

    def test_skips_script_and_style(self):
        d = doc("<p>Keep</p><script>var x = 1;</script><style>p{}</style>")
        text = document_text(d)
        assert "Keep" in text
        assert "var x" not in text and "p{}" not in text

    def test_limit_respected(self):
        d = doc("<p>" + "a" * 300 + "</p>")
        assert len(document_text(d, limit=100)) <= 100


class TestSetAltText:
    def test_sets_missing_alt(self):
        d = doc('<p>Hi</p><img src="images/a.png"/>')
        occ = find_images(d)[0]
        updated = set_alt_text(d, occ, "A red fox.")
        assert updated.data != d.data
        assert b'alt="A red fox."' in updated.data
        # the rest of the document is untouched
        assert updated.data.replace(b' alt="A red fox."', b"") == d.data

    def test_replaces_existing_alt(self):
        d = doc('<img src="a.png" alt="old"/>')
        occ = find_images(d)[0]
        updated = set_alt_text(d, occ, "new text")
        assert b'alt="new text"' in updated.data
        assert b'alt="old"' not in updated.data

    def test_targets_correct_occurrence(self):
        d = doc('<img src="a.png"/><img src="b.png"/><img src="c.png"/>')
        occ = find_images(d)[1]
        updated = set_alt_text(d, occ, "middle image")
        occs = find_images(updated)
        assert occs[0].existing_alt is None
        assert occs[1].existing_alt == "middle image"
        assert occs[2].existing_alt is None

    def test_escapes_special_characters(self):
        d = doc('<img src="a.png"/>')
        occ = find_images(d)[0]
        updated = set_alt_text(d, occ, 'Fox & "friends" <dawn>')
        assert find_images(updated)[0].existing_alt == 'Fox & "friends" <dawn>'

    def test_preserves_self_closing_slash(self):
        d = doc('<img src="a.png"/>')
        updated = set_alt_text(d, find_images(d)[0], "fox")
        assert b'<img src="a.png" alt="fox"/>' in updated.data

    def test_handles_unquoted_attrs_in_soup(self):
        raw = ArchiveEntry(
            path="OEBPS/soup.xhtml",
            data=b"<html><body><img src=a.png alt=old></body></html>",
        )
        occ = find_images(raw)[0]
        updated = set_alt_text(raw, occ, "new alt")
        assert find_images(updated)[0].existing_alt == "new alt"

    def test_skips_images_inside_comments(self):
        d = doc('<!-- <img src="ghost.png"/> --><img src="real.png"/>')
        occ = find_images(d)[0]
        updated = set_alt_text(d, occ, "the real one")
        assert b"ghost" in updated.data
        assert find_images(updated)[0].existing_alt == "the real one"
        assert b'<!-- <img src="ghost.png"/> -->' in updated.data

    def test_preserves_bom(self):
        data = codecs.BOM_UTF8 + epubgen.page('<img src="a.png"/>')
        d = ArchiveEntry(path="OEBPS/ch1.xhtml", data=data)
        occ = find_images(d)[0]
        updated = set_alt_text(d, occ, "fox")
        assert updated.data.startswith(codecs.BOM_UTF8)

    def test_preserves_declared_encoding(self):
        body = '<?xml version="1.0" encoding="iso-8859-1"?>\n<html xmlns="http://www.w3.org/1999/xhtml"><body><p>caf\xe9</p><img src="a.png"/></body></html>'
        d = ArchiveEntry(path="OEBPS/ch1.xhtml", data=body.encode("latin-1"))
        occ = find_images(d)[0]
        updated = set_alt_text(d, occ, "café at dusk")
        assert find_images(updated)[0].existing_alt == "café at dusk"
        assert "café".encode("latin-1") in updated.data
        assert "café".encode("utf-8") not in updated.data

    def test_empty_alt_requires_decorative(self):
        d = doc('<img src="a.png"/>')
        occ = find_images(d)[0]
        with pytest.raises(ValueError):
            set_alt_text(d, occ, "")

    def test_stale_index_raises(self):
        d = doc('<img src="a.png"/>')
        occ = ImageOccurrence(
            doc_path="OEBPS/ch1.xhtml",
            element_index=3,
            src="OEBPS/a.png",
            existing_alt=None,
            decorative=False,
        )
        with pytest.raises(StaleOccurrence):
            set_alt_text(d, occ, "text")

    def test_splice_past_the_last_image_is_stale(self):
        with pytest.raises(StaleOccurrence):
            ContentDocument(doc('<img src="a.png"/>')).splice({3: "A fox in snow"})

    def test_splice_returns_the_written_images_and_verdict(self):
        d = doc('<img src="a.png"/><img src="b.png" alt="A gull"/>')
        entry, images = ContentDocument(d).splice({0: "A fox in snow"})
        assert entry.well_formed is True
        assert images == find_images(entry)
        assert [o.existing_alt for o in images] == ["A fox in snow", "A gull"]
        soup = ArchiveEntry("OEBPS/soup.xhtml", b"<html><p>x<br><img src='a.png'></html>")
        entry, images = ContentDocument(soup).splice({0: "A fox in snow"})
        assert entry.well_formed is False
        assert images == find_images(entry)

    @pytest.mark.parametrize(
        "data, first, every",
        [
            (epubgen.page('<img src="a.png"/>'), True, True),
            (b"<html><body><p>x<br><img src='a.png'></body></html>", False, False),
            # tag soup only by its valueless alts, which the splice fills
            (epubgen.page('<img src="a.png" alt/>'), True, True),
            (epubgen.page('<img src="a.png" alt/><img src="b.png" alt/>'), False, True),
        ],
    )
    def test_can_be_well_formed(self, data, first, every):
        document = ContentDocument(ArchiveEntry("OEBPS/ch1.xhtml", data))
        assert document.can_be_well_formed([0]) is first
        assert document.can_be_well_formed(list(range(len(document.images)))) is every

    def test_case_insensitive_tag_names(self):
        raw = ArchiveEntry(
            path="OEBPS/soup.xhtml",
            data=b"<HTML><BODY><IMG SRC='a.png'></BODY></HTML>",
        )
        occ = find_images(raw)[0]
        updated = set_alt_text(raw, occ, "loud fox")
        assert find_images(updated)[0].existing_alt == "loud fox"


def test_normalize_ws():
    assert normalize_ws("  a\n\t b  c ") == "a b c"
    assert normalize_ws("") == ""


def test_parse_document_strict_then_lenient():
    strict = parse_document(epubgen.page("<p>ok</p>"))
    assert strict is not None
    lenient = parse_document(b"<p>broken<table><tr>")
    assert lenient is not None
