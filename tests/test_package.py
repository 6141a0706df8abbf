from __future__ import annotations

import pytest

import epubgen
from altgen.container import ArchiveEntry, InvariantViolation
from altgen.package import (
    MetaKind,
    DanglingSpineRef,
    DuplicateManifestHref,
    DuplicateManifestId,
    MalformedXml,
    has_scheme,
    parse_opf,
    resolve_href,
    serialize_opf,
)


def entry(data: bytes, path: str = "OEBPS/content.opf") -> ArchiveEntry:
    return ArchiveEntry(path=path, data=data)


BASIC = epubgen.opf(
    manifest=[
        ("c1", "ch1.xhtml", "application/xhtml+xml"),
        ("img1", "images/fox.png", "image/png"),
    ],
    spine=["c1"],
)


def test_parse_basic_fields():
    pkg = parse_opf(entry(BASIC))
    assert pkg.version == "3.0"
    assert pkg.unique_identifier == "uid"
    assert pkg.base_dir == "OEBPS"
    assert pkg.first_value(MetaKind.DC_TITLE) == "The Lighthouse Keeper"
    assert pkg.values(MetaKind.DC_LANGUAGE) == ["en"]
    assert pkg.accessibility_values("accessMode") == ["textual", "visual"]
    assert pkg.accessibility_values("accessibilityFeature") == ["altText"]
    assert [i.id for i in pkg.manifest] == ["c1", "img1"]
    assert pkg.spine == ["c1"]


def test_hrefs_resolved_against_opf_directory():
    pkg = parse_opf(entry(BASIC))
    assert pkg.item_by_id("c1").href == "OEBPS/ch1.xhtml"
    assert pkg.item_by_id("img1").href == "OEBPS/images/fox.png"
    assert pkg.item_by_id("c1").href_attr == "ch1.xhtml"


def test_opf_at_archive_root_resolves_without_prefix():
    pkg = parse_opf(entry(BASIC, path="content.opf"))
    assert pkg.base_dir == ""
    assert pkg.item_by_id("c1").href == "ch1.xhtml"


def test_percent_encoded_href_decoded_for_lookup():
    raw = BASIC.replace(b'href="images/fox.png"', b'href="images/red%20fox.png"')
    pkg = parse_opf(entry(raw))
    item = pkg.item_by_id("img1")
    assert item.href == "OEBPS/images/red fox.png"
    assert item.href_attr == "images/red%20fox.png"


def test_scheme_href_left_verbatim():
    raw = BASIC.replace(
        b'href="images/fox.png"', b'href="https://example.com/fox.png"'
    )
    pkg = parse_opf(entry(raw))
    item = pkg.item_by_id("img1")
    assert item.href == "https://example.com/fox.png"
    assert has_scheme(item.href)


def test_dotdot_href_resolves_upward():
    assert resolve_href("OEBPS/text", "../images/a.png") == "OEBPS/images/a.png"
    assert resolve_href("", "a.png") == "a.png"


def test_malformed_xml_raises():
    with pytest.raises(MalformedXml):
        parse_opf(entry(b"<package><metadata>"))


def test_non_package_root_raises():
    with pytest.raises(MalformedXml):
        parse_opf(entry(b"<html/>"))


def test_missing_sections_raise():
    with pytest.raises(MalformedXml):
        parse_opf(entry(b'<package xmlns="http://www.idpf.org/2007/opf"/>'))


def test_duplicate_manifest_id_raises():
    raw = epubgen.opf(
        manifest=[
            ("c1", "a.xhtml", "application/xhtml+xml"),
            ("c1", "b.xhtml", "application/xhtml+xml"),
        ],
        spine=["c1"],
    )
    with pytest.raises(DuplicateManifestId):
        parse_opf(entry(raw))


def test_duplicate_manifest_href_raises():
    raw = epubgen.opf(
        manifest=[
            ("c1", "a.xhtml", "application/xhtml+xml"),
            ("c2", "a.xhtml", "application/xhtml+xml"),
        ],
        spine=["c1"],
    )
    with pytest.raises(DuplicateManifestHref):
        parse_opf(entry(raw))


def test_dangling_spine_idref_raises():
    raw = epubgen.opf(
        manifest=[("c1", "a.xhtml", "application/xhtml+xml")],
        spine=["c1", "ghost"],
    )
    with pytest.raises(DanglingSpineRef):
        parse_opf(entry(raw))


TRICKY = b"""<?xml version="1.0" encoding="UTF-8"?>
<package xmlns="http://www.idpf.org/2007/opf" version="3.0" unique-identifier="uid"
         xml:lang="en" dir="ltr">
  <metadata xmlns:dc="http://purl.org/dc/elements/1.1/"
            xmlns:opf="http://www.idpf.org/2007/opf">
    <dc:identifier id="uid">urn:isbn:9780000000001</dc:identifier>
    <dc:title id="t1">Old Harbour Tales</dc:title>
    <dc:language>en-GB</dc:language>
    <dc:creator opf:role="aut">A. Keeper</dc:creator>
    <dc:date>2019-04-01</dc:date>
    <meta property="schema:accessMode">textual</meta>
    <meta property="dcterms:modified">2019-04-01T00:00:00Z</meta>
    <meta refines="#t1" property="title-type">main</meta>
    <meta name="cover" content="img-cover"/>
    <link rel="dcterms:conformsTo" href="http://example.com/profile"/>
  </metadata>
  <manifest>
    <item id="nav" href="nav.xhtml" media-type="application/xhtml+xml" properties="nav"/>
    <item id="c1" href="text/ch1.xhtml" media-type="application/xhtml+xml"/>
    <item id="img-cover" href="images/cover.png" media-type="image/png" properties="cover-image"/>
  </manifest>
  <spine page-progression-direction="ltr">
    <itemref idref="nav" linear="no"/>
    <itemref idref="c1"/>
  </spine>
  <guide>
    <reference type="cover" title="Cover" href="text/ch1.xhtml"/>
  </guide>
</package>
"""


def test_model_round_trip_identity_basic():
    pkg = parse_opf(entry(BASIC))
    again = parse_opf(entry(serialize_opf(pkg)))
    assert again == pkg


def test_model_round_trip_identity_tricky():
    pkg = parse_opf(entry(TRICKY))
    again = parse_opf(entry(serialize_opf(pkg)))
    assert again == pkg


def test_serialize_is_deterministic():
    pkg = parse_opf(entry(TRICKY))
    assert serialize_opf(pkg) == serialize_opf(parse_opf(entry(TRICKY)))


def test_guide_survives_round_trip():
    pkg = parse_opf(entry(TRICKY))
    out = serialize_opf(pkg).decode("utf-8")
    assert '<guide xmlns="http://www.idpf.org/2007/opf">' in out
    assert '<reference type="cover" title="Cover" href="text/ch1.xhtml"/>' in out


def test_itemref_attributes_preserved():
    pkg = parse_opf(entry(TRICKY))
    assert pkg.spine_extra[0] == {"linear": "no"}
    out = serialize_opf(pkg).decode("utf-8")
    assert '<itemref idref="nav" linear="no"/>' in out


def test_item_properties_and_extras_preserved():
    pkg = parse_opf(entry(TRICKY))
    nav = pkg.item_by_id("nav")
    assert "nav" in nav.properties
    out = serialize_opf(pkg).decode("utf-8")
    assert 'properties="nav"' in out
    assert 'properties="cover-image"' in out


def test_legacy_name_content_meta_preserved():
    pkg = parse_opf(entry(TRICKY))
    out = serialize_opf(pkg).decode("utf-8")
    assert '<meta name="cover" content="img-cover"/>' in out


def test_refines_meta_preserved():
    pkg = parse_opf(entry(TRICKY))
    again = parse_opf(entry(serialize_opf(pkg)))
    refines = [
        m for m in again.metadata if m.attrs.get("refines") == "#t1"
    ]
    assert len(refines) == 1


def test_creator_attribute_preserved():
    pkg = parse_opf(entry(TRICKY))
    again = parse_opf(entry(serialize_opf(pkg)))
    creators = [m for m in again.metadata if m.kind is MetaKind.DC_CREATOR]
    assert creators and creators[0].value == "A. Keeper"
    assert any("role" in k for k in creators[0].attrs)


def test_spine_items_resolution():
    pkg = parse_opf(entry(TRICKY))
    items = pkg.spine_items()
    assert [i.id for i in items] == ["nav", "c1"]
    assert items[1].href == "OEBPS/text/ch1.xhtml"


def test_serialize_rejects_broken_model():
    pkg = parse_opf(entry(BASIC))
    pkg.spine.append("nowhere")
    with pytest.raises(InvariantViolation):
        serialize_opf(pkg)


def test_serialize_rejects_duplicate_ids():
    pkg = parse_opf(entry(BASIC))
    pkg.manifest.append(pkg.manifest[0])
    with pytest.raises(InvariantViolation):
        serialize_opf(pkg)


def test_foreign_metadata_child_round_trips():
    raw = BASIC.replace(
        b"</metadata>",
        b'<custom:note xmlns:custom="http://example.com/ns">keep me</custom:note>'
        b"</metadata>",
    )
    pkg = parse_opf(entry(raw))
    again = parse_opf(entry(serialize_opf(pkg)))
    assert again == pkg
    assert b"keep me" in serialize_opf(pkg)
