from __future__ import annotations

import io
import warnings
import zipfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import epubgen
import ziporacle
from altgen.container import (
    CONTAINER_XML_PATH,
    MIMETYPE_CONTENT,
    MIMETYPE_PATH,
    ArchiveEntry,
    Compression,
    InvariantViolation,
    MalformedContainerXml,
    MissingContainerXml,
    MissingMimetype,
    NotSupported,
    NotZip,
    WrongMimetype,
    open_epub,
    write_epub,
)


def test_open_reads_entries_in_archive_order(clean_book_bytes):
    arc = open_epub(clean_book_bytes)
    names = [e.path for e in arc.entries]
    assert names[0] == MIMETYPE_PATH
    assert names[1] == CONTAINER_XML_PATH
    assert arc.rootfile_path == "OEBPS/content.opf"
    assert arc.entry("OEBPS/content.opf").data.startswith(b"<?xml")


def test_mimetype_entry_is_stored_uncompressed(clean_book_bytes):
    arc = open_epub(clean_book_bytes)
    mime = arc.entry(MIMETYPE_PATH)
    assert mime.compression is Compression.STORED
    assert mime.data == MIMETYPE_CONTENT


def test_not_a_zip_rejected():
    with pytest.raises(NotZip):
        open_epub(b"this is not a zip archive at all")


def test_empty_file_rejected():
    with pytest.raises(NotZip):
        open_epub(b"")


def test_mimetype_missing_rejected():
    data = epubgen.build_zip(
        [("META-INF/container.xml", epubgen.container_xml())],
        include_mimetype=False,
    )
    with pytest.raises(MissingMimetype):
        open_epub(data)


def test_mimetype_not_first_rejected():
    data = epubgen.build_zip(
        [("META-INF/container.xml", epubgen.container_xml())],
        mimetype_first=False,
    )
    with pytest.raises(WrongMimetype):
        open_epub(data)


def test_mimetype_compressed_rejected():
    data = epubgen.build_zip(
        [("META-INF/container.xml", epubgen.container_xml())],
        mimetype_compressed=True,
    )
    with pytest.raises(WrongMimetype):
        open_epub(data)


def test_mimetype_wrong_content_rejected():
    data = epubgen.build_zip(
        [("META-INF/container.xml", epubgen.container_xml())],
        mimetype=b"application/zip",
    )
    with pytest.raises(WrongMimetype):
        open_epub(data)


def test_mimetype_trailing_newline_rejected():
    data = epubgen.build_zip(
        [("META-INF/container.xml", epubgen.container_xml())],
        mimetype=b"application/epub+zip\n",
    )
    with pytest.raises(WrongMimetype):
        open_epub(data)


def test_container_xml_missing_rejected():
    data = epubgen.build_zip([("OEBPS/content.opf", b"<x/>")])
    with pytest.raises(MissingContainerXml):
        open_epub(data)


def test_container_xml_malformed_rejected():
    data = epubgen.build_zip([("META-INF/container.xml", b"<container><unclosed")])
    with pytest.raises(MalformedContainerXml):
        open_epub(data)


def test_container_xml_without_rootfile_rejected():
    xml = (
        b'<?xml version="1.0"?><container '
        b'xmlns="urn:oasis:names:tc:opendocument:xmlns:container">'
        b"<rootfiles/></container>"
    )
    data = epubgen.build_zip([("META-INF/container.xml", xml)])
    with pytest.raises(MalformedContainerXml):
        open_epub(data)


def test_first_rootfile_wins():
    xml = (
        '<?xml version="1.0"?><container '
        'xmlns="urn:oasis:names:tc:opendocument:xmlns:container"><rootfiles>'
        '<rootfile full-path="first.opf" media-type="application/oebps-package+xml"/>'
        '<rootfile full-path="second.opf" media-type="application/oebps-package+xml"/>'
        "</rootfiles></container>"
    ).encode()
    data = epubgen.build_zip(
        [("META-INF/container.xml", xml), ("first.opf", b"<a/>"), ("second.opf", b"<b/>")]
    )
    arc = open_epub(data)
    assert arc.rootfile_path == "first.opf"


def test_duplicate_entry_names_rejected():
    buf = io.BytesIO()
    with zipfile.ZipFile(buf, "w") as zf:
        info = zipfile.ZipInfo("mimetype", date_time=(2020, 1, 1, 0, 0, 0))
        info.compress_type = zipfile.ZIP_STORED
        zf.writestr(info, epubgen.MIMETYPE)
        zf.writestr("META-INF/container.xml", epubgen.container_xml())
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            zf.writestr("OEBPS/a.xhtml", b"one")
            zf.writestr("OEBPS/a.xhtml", b"two")
    with pytest.raises(NotSupported):
        open_epub(buf.getvalue())


def test_zip64_rejected():
    buf = io.BytesIO()
    with zipfile.ZipFile(buf, "w") as zf:
        info = zipfile.ZipInfo("mimetype", date_time=(2020, 1, 1, 0, 0, 0))
        info.compress_type = zipfile.ZIP_STORED
        zf.writestr(info, epubgen.MIMETYPE)
        zf.writestr("META-INF/container.xml", epubgen.container_xml())
    # force a ZIP64 end-of-central-directory locator into the tail
    data = buf.getvalue()
    eocd = data.rfind(b"PK\x05\x06")
    locator = b"PK\x06\x07" + b"\x00" * 16
    data = data[:eocd] + locator + data[eocd:]
    with pytest.raises(NotSupported):
        open_epub(data)


def test_round_trip_preserves_content_and_order(clean_book_bytes):
    arc = open_epub(clean_book_bytes)
    back = open_epub(write_epub(arc))
    assert [e.path for e in back.entries] == [e.path for e in arc.entries]
    for a, b in zip(arc.entries, back.entries):
        assert a.data == b.data
        assert a.compression == b.compression
        assert a.date_time == b.date_time


def test_write_is_deterministic(clean_book_bytes):
    arc = open_epub(clean_book_bytes)
    assert write_epub(arc) == write_epub(arc.copy())


def test_written_archive_has_mimetype_first_stored(clean_book_bytes):
    data = write_epub(open_epub(clean_book_bytes))
    name, method, raw = ziporacle.first_local_entry(data)
    assert name == "mimetype"
    assert method == 0
    assert raw == b"application/epub+zip"


def test_write_rejects_misplaced_mimetype(clean_book_bytes):
    arc = open_epub(clean_book_bytes)
    arc.entries.reverse()
    with pytest.raises(InvariantViolation):
        write_epub(arc)


def test_write_rejects_bad_entry_paths(clean_book_bytes):
    arc = open_epub(clean_book_bytes)
    arc.entries.append(ArchiveEntry(path="../escape.txt", data=b"x"))
    with pytest.raises(InvariantViolation):
        write_epub(arc)


def test_replace_entry_unknown_path_raises(clean_book_bytes):
    arc = open_epub(clean_book_bytes)
    with pytest.raises(KeyError):
        arc.replace_entry(ArchiveEntry(path="OEBPS/nope.xhtml", data=b""))


def test_entry_lookup_follows_replacements_and_list_edits(clean_book_bytes):
    arc = open_epub(clean_book_bytes)
    arc.replace_entry(arc.entry("OEBPS/ch1.xhtml").with_data(b"<x/>"))
    assert arc.entry("OEBPS/ch1.xhtml").data == b"<x/>"
    arc.entries.reverse()
    assert arc.entry("OEBPS/ch1.xhtml").data == b"<x/>"
    assert arc.entry("OEBPS/extra.txt") is None
    arc.entries.append(ArchiveEntry(path="OEBPS/extra.txt", data=b"new"))
    assert arc.entry("OEBPS/extra.txt").data == b"new"
    arc.entries[-1] = ArchiveEntry(path="OEBPS/other.txt", data=b"other")
    assert arc.entry("OEBPS/extra.txt") is None
    assert arc.entry("OEBPS/other.txt").data == b"other"


def test_with_data_marks_modified(clean_book_bytes):
    arc = open_epub(clean_book_bytes)
    entry = arc.entry("OEBPS/ch1.xhtml")
    assert not entry.modified
    updated = entry.with_data(b"<html/>")
    assert updated.modified
    assert updated.path == entry.path
    assert entry.data != updated.data


def test_copy_is_deep_for_entry_list(clean_book_bytes):
    arc = open_epub(clean_book_bytes)
    dup = arc.copy()
    dup.replace_entry(dup.entry("OEBPS/ch1.xhtml").with_data(b"<x/>"))
    assert arc.entry("OEBPS/ch1.xhtml").data != b"<x/>"


_NAME_ALPHABET = st.text(
    alphabet=st.characters(
        whitelist_categories=("Ll", "Lu", "Nd"), max_codepoint=0x7E
    ),
    min_size=1,
    max_size=12,
)


@settings(max_examples=50, deadline=None)
@given(
    st.lists(
        st.tuples(_NAME_ALPHABET, st.binary(min_size=0, max_size=512)),
        min_size=0,
        max_size=8,
        unique_by=lambda t: t[0],
    )
)
def test_round_trip_arbitrary_payloads(extra):
    entries = [("META-INF/container.xml", epubgen.container_xml("OEBPS/p.opf"))]
    entries.append(("OEBPS/p.opf", b"<package/>"))
    entries += [(f"OEBPS/data/{name}", blob) for name, blob in extra]
    data = epubgen.build_zip(entries)
    arc = open_epub(data)
    back = open_epub(write_epub(arc))
    assert [(e.path, e.data) for e in back.entries] == [
        (e.path, e.data) for e in arc.entries
    ]
