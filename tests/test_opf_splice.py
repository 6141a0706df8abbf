"""Enrichment's edits are spliced into the OPF's own bytes.

Repair changes an OPF only inside <metadata>: appended entries go before
its end tag, and a replaced dc:language value becomes the content of its
element. Comments, processing instructions, prefixes and everything outside
<metadata> keep their bytes.
"""

from __future__ import annotations

import codecs
import zipfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import epubgen
from altgen.container import ArchiveEntry, EpubArchive, InvariantViolation
from altgen.enrich import enrich_metadata
from altgen.package import MetaEntry, MetaKind, parse_opf, serialize_opf
from altgen.pipeline import FileStatus, PipelineConfig, run_repair

OPF_NS = "http://www.idpf.org/2007/opf"
DC_NS = "http://purl.org/dc/elements/1.1/"
OPF_PATH = "OEBPS/content.opf"

# an EPUB 2 package as legacy converters write it
EPUB2_HEAD = b"""<?xml version="1.0" encoding="UTF-8"?>
<?xml-stylesheet type="text/css" href="opf.css"?>
<!-- packaged by a legacy converter -->
<package xmlns="http://www.idpf.org/2007/opf" version="2.0" unique-identifier="uid">
  """
EPUB2_METADATA = b"""<metadata xmlns:dc="http://purl.org/dc/elements/1.1/" xmlns:opf="http://www.idpf.org/2007/opf"
            xmlns:dcterms="http://purl.org/dc/terms/" xmlns:calibre="http://calibre.kovidgoyal.net/2009/metadata">
    <dc:identifier id="uid" opf:scheme="uuid">urn:uuid:0a0b</dc:identifier>
    <dc:title>Harbour Lights</dc:title>
    <dc:creator opf:role="aut" opf:file-as="Keeper, A.">A. Keeper</dc:creator>
    <dcterms:modified>2011-01-01</dcterms:modified>
    <calibre:series>Coast</calibre:series>
    <meta name="cover" content="c1"/>
  </metadata>"""
EPUB2_TAIL = b"""
  <manifest>
    <item id="c1" href="ch1.xhtml" media-type="application/xhtml+xml"/>
    <item id="ncx" href="toc.ncx" media-type="application/x-dtbncx+xml"/>
  </manifest>
  <spine toc="ncx">
    <itemref idref="c1" linear="yes"/>
  </spine>
  <guide>
    <reference type="text" title="Start" href="ch1.xhtml"/>
  </guide>
</package>
"""


def epub2_book() -> bytes:
    prose = " ".join(epubgen._PARAGRAPHS)
    return epubgen.build_zip(
        [
            ("META-INF/container.xml", epubgen.container_xml()),
            ("OEBPS/ch1.xhtml", epubgen.page(f"<p>{prose}</p>")),
            ("OEBPS/toc.ncx", b"<ncx/>"),
            (OPF_PATH, EPUB2_HEAD + EPUB2_METADATA + EPUB2_TAIL),
        ]
    )


def repaired_opf(book: Path, out: Path) -> bytes:
    results, code = run_repair([book], PipelineConfig(jobs=1, output_dir=out))
    assert code == 0 and results[0].status is FileStatus.REPAIRED
    with zipfile.ZipFile(out / book.name) as zf:
        return zf.read(OPF_PATH)


def test_epub2_opf_keeps_its_bytes_outside_metadata(tmp_path):
    book = tmp_path / "legacy.epub"
    book.write_bytes(epub2_book())
    opf = repaired_opf(book, tmp_path / "out")
    assert opf.startswith(EPUB2_HEAD) and opf.endswith(EPUB2_TAIL)
    metadata = opf[len(EPUB2_HEAD) : -len(EPUB2_TAIL)]
    # the original children keep their bytes, the new ones follow them
    assert metadata.startswith(EPUB2_METADATA[: -len(b"\n  </metadata>")])
    assert metadata.endswith(b"\n  </metadata>")
    for kept in (
        b"<!-- packaged by a legacy converter -->",
        b'<?xml-stylesheet type="text/css" href="opf.css"?>',
        b"<dcterms:modified>2011-01-01</dcterms:modified>",
        b"<calibre:series>Coast</calibre:series>",
    ):
        assert kept in opf
    assert b"<dc:language>en</dc:language>" in metadata
    assert b'<meta property="schema:accessMode">textual</meta>' in metadata
    # a second repair writes the same bytes
    again = tmp_path / "again"
    again.mkdir()
    (again / book.name).write_bytes((tmp_path / "out" / book.name).read_bytes())
    run_repair([again / book.name], PipelineConfig(jobs=1, output_dir=tmp_path / "out2"))
    assert (tmp_path / "out2" / book.name).read_bytes() == (again / book.name).read_bytes()


def enrich(raw: bytes, language: str = "fr", title: str = "Fallback"):
    """The enriched package of an OPF, with `language` detected, and the
    bytes serialize_opf writes for it."""
    pkg = parse_opf(ArchiveEntry(OPF_PATH, raw))
    archive = EpubArchive([], OPF_PATH)  # no chapter: the sample is empty
    enriched, _ = enrich_metadata(pkg, archive, lambda text: (language, 1.0), fallback_title=title)
    return enriched, serialize_opf(enriched)


def opf(metadata: str, package_ns: str = "") -> bytes:
    return (
        '<?xml version="1.0" encoding="UTF-8"?>\n'
        f'<package xmlns="{OPF_NS}"{package_ns} version="3.0">\n'
        f"  {metadata}\n"
        '  <manifest><item id="c1" href="c1.xhtml" media-type="application/xhtml+xml"/></manifest>\n'
        '  <spine><itemref idref="c1"/></spine>\n'
        "</package>\n"
    ).encode("utf-8")


ACCESS = (
    '<meta property="schema:accessMode">textual</meta>'
    '<meta property="schema:accessMode">visual</meta>'
)


class TestSplice:
    def test_invalid_language_value_is_replaced_in_its_element(self):
        raw = opf(
            f'<metadata xmlns:dc="{DC_NS}"><dc:title>T</dc:title>'
            f'<dc:language id="l">english!</dc:language>{ACCESS}</metadata>'
        )
        pkg, out = enrich(raw)
        assert out == raw.replace(b">english!<", b">fr<")
        assert pkg.values(MetaKind.DC_LANGUAGE) == ["fr"]

    def test_empty_language_element_is_opened(self):
        raw = opf(
            f'<metadata xmlns:dc="{DC_NS}"><dc:title>T</dc:title>'
            f"<dc:language />{ACCESS}</metadata>"
        )
        assert enrich(raw)[1] == raw.replace(b"<dc:language />", b"<dc:language >fr</dc:language>")

    def test_empty_metadata_element_is_opened(self):
        raw = opf(f'<metadata xmlns:dc="{DC_NS}"/>')
        pkg, out = enrich(raw)
        head, tail = raw.split(b"/>", 1)
        assert out.startswith(head + b"><dc:language>fr</dc:language>")
        assert out.endswith(b"</metadata>" + tail)
        assert parse_opf(ArchiveEntry(OPF_PATH, out)) == pkg

    def test_new_dc_element_takes_the_prefix_in_scope(self):
        raw = opf(f"<metadata>{ACCESS}<d:title>T</d:title></metadata>", f' xmlns:d="{DC_NS}"')
        assert b"<d:language>fr</d:language>" in enrich(raw)[1]

    def test_new_dc_element_declares_its_prefix_when_none_is_bound(self):
        raw = opf(f"<metadata>{ACCESS}</metadata>", ' xmlns:dc="urn:not-dublin-core"')
        pkg, out = enrich(raw)
        assert f'<dc:language xmlns:dc="{DC_NS}">fr</dc:language>'.encode() in out
        assert parse_opf(ArchiveEntry(OPF_PATH, out)) == pkg

    def test_new_meta_lands_in_the_opf_namespace(self):
        raw = opf(f'<metadata xmlns:dc="{DC_NS}"><dc:title>T</dc:title></metadata>')
        prefixed = raw.replace(f'<package xmlns="{OPF_NS}"'.encode(), b"<package")
        prefixed = prefixed.replace(b"<metadata ", f'<opf:metadata xmlns:opf="{OPF_NS}" '.encode())
        prefixed = prefixed.replace(b"</metadata>", b"</opf:metadata>")
        assert b'<meta property="schema:accessMode">textual</meta>' in enrich(raw)[1]
        assert b'<opf:meta property="schema:accessMode">textual</opf:meta>' in enrich(prefixed)[1]
        unbound = raw.replace(f' xmlns="{OPF_NS}"'.encode(), b"")
        assert f'<meta xmlns="{OPF_NS}" property='.encode() in enrich(unbound)[1]

    def test_values_are_escaped_and_written_in_the_opf_encoding(self):
        raw = opf(f'<metadata xmlns:dc="{DC_NS}"><dc:language>en</dc:language>{ACCESS}</metadata>')
        latin = raw.replace(b"UTF-8", b"ISO-8859-1")
        pkg, out = enrich(latin, title="Café & <bar> ☕")
        assert b"<dc:title>Caf\xe9 &amp; &lt;bar&gt; &#9749;</dc:title>" in out
        assert parse_opf(ArchiveEntry(OPF_PATH, out)) == pkg

    def test_new_value_xml_cannot_hold_is_refused(self):
        raw = opf(f'<metadata xmlns:dc="{DC_NS}"><dc:title>T</dc:title>{ACCESS}</metadata>')
        with pytest.raises(InvariantViolation, match="cannot be written in XML"):
            enrich(raw, language="e\x01n")

    def test_utf16_without_bom_is_spliced(self):
        raw = opf(f"<metadata>{ACCESS}</metadata>").decode().replace("UTF-8", "UTF-16")
        pkg = parse_opf(ArchiveEntry(OPF_PATH, raw.encode("utf-16-le")))
        pkg.metadata.append(MetaEntry(MetaKind.DC_TITLE, "Café"))
        out = serialize_opf(pkg)
        title = f'<dc:title xmlns:dc="{DC_NS}">Café</dc:title>'
        assert out.decode("utf-16-le") == raw.replace("</metadata>", title + "</metadata>")
        assert parse_opf(ArchiveEntry(OPF_PATH, out)) == pkg


# generated OPFs: where dc is bound, EPUB 2 attributes, foreign prefixes,
# comments and processing instructions, and an empty <metadata/>
_FOREIGN = (
    ' xmlns:dcterms="http://purl.org/dc/terms/"'
    ' xmlns:calibre="http://calibre.kovidgoyal.net/2009/metadata"'
)
_MISC = st.sampled_from(["", "<!-- a < comment -->", '<?app data="x"?>', "\n    "])


@st.composite
def opfs(draw) -> tuple[bytes, bytes, bytes]:
    """(head, tail, bytes) of an OPF: everything before <metadata> and
    everything after it, as encoded in the whole."""
    dc_on = draw(st.sampled_from(["package", "metadata", "nowhere"]))
    dc = draw(st.sampled_from(["dc", "purl"]))
    dc_decl = f' xmlns:{dc}="{DC_NS}"'
    package_ns = f' xmlns:opf="{OPF_NS}"{_FOREIGN}' + (dc_decl if dc_on == "package" else "")
    children: list[str] = []
    if dc_on != "nowhere":
        if draw(st.booleans()):
            title = draw(st.sampled_from(["Tales", "Fish &amp; Chips", "", "  "]))
            children.append(f'<{dc}:title opf:file-as="T">{title}</{dc}:title>')
        language = draw(st.sampled_from([None, "en", "english!", "", "<empty>"]))
        if language == "<empty>":
            children.append(f"<{dc}:language/>")
        elif language is not None:
            children.append(f"<{dc}:language>{language}</{dc}:language>")
        children.append(f'<{dc}:creator opf:role="aut">A. Keeper</{dc}:creator>')
    if draw(st.booleans()):
        children.append('<meta property="schema:accessMode">textual</meta>')
    children.append("<dcterms:modified>2011-01-01</dcterms:modified>")
    children.append('<calibre:series index="2">Coast</calibre:series>')
    children = draw(st.permutations(children))
    if dc_on == "nowhere" and draw(st.booleans()):
        metadata = "<metadata/>"
    else:
        inner = "".join(draw(_MISC) + child for child in children) + draw(_MISC)
        metadata_ns = dc_decl if dc_on == "metadata" else ""
        metadata = f"<metadata{metadata_ns}>{inner}\n  </metadata>"
    encoding = draw(st.sampled_from(["UTF-8", "UTF-16"]))
    head = (
        f'<?xml version="1.0" encoding="{encoding}"?>\n{draw(_MISC)}'
        f'<package xmlns="{OPF_NS}"{package_ns} version="2.0" unique-identifier="uid">\n'
        f"  {draw(_MISC)}"
    )
    tail = (
        f"\n  {draw(_MISC)}"
        '<manifest><item id="c1" href="c1.xhtml" media-type="application/xhtml+xml"/></manifest>\n'
        '  <spine toc="ncx"><itemref idref="c1" linear="no"/></spine>\n'
        '  <guide><reference type="text" href="c1.xhtml"/></guide>\n'
        "</package>\n"
    )
    if encoding == "UTF-8":
        return head.encode(), tail.encode(), (head + metadata + tail).encode()
    bom, codec = draw(
        st.sampled_from([(codecs.BOM_UTF16_LE, "utf-16-le"), (codecs.BOM_UTF16_BE, "utf-16-be")])
    )
    return bom + head.encode(codec), tail.encode(codec), bom + (head + metadata + tail).encode(codec)


@settings(max_examples=300, deadline=None)
@given(opfs(), st.sampled_from(["fr", "pt-BR"]))
def test_enriched_opf_changes_only_inside_metadata(source, language):
    head, tail, raw = source
    pkg, out = enrich(raw, language=language, title="Fish & <Chips>")
    assert out.startswith(head) and out.endswith(tail)
    assert len(head) + len(tail) < len(out)
    again = parse_opf(ArchiveEntry(OPF_PATH, out))
    assert again == pkg
    assert again.values(MetaKind.DC_LANGUAGE) == pkg.values(MetaKind.DC_LANGUAGE)
    # a second enrichment changes nothing
    assert enrich(out, language="de")[1] == out
