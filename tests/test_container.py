from __future__ import annotations

import io
import re
import struct
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
from altgen.pipeline import FileStatus, PipelineConfig, run_audit

# every MalformedContainerXml reason names the part, as OPF failures do
NAMES_CONTAINER_XML = f"^{re.escape(CONTAINER_XML_PATH)}: "


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
    with pytest.raises(MalformedContainerXml, match=NAMES_CONTAINER_XML):
        open_epub(data)


@pytest.mark.parametrize("keep", [0, 20, 100, -13])
def test_container_xml_cut_short_fails_its_book_naming_the_part(keep, tmp_path):
    # -13 keeps the rootfile and cuts only the closing </container> tag
    with zipfile.ZipFile(io.BytesIO(epubgen.make_book())) as zf:
        entries = [(i.filename, zf.read(i)) for i in zf.infolist()[1:]]
    entries = [(n, d[:keep] if n == CONTAINER_XML_PATH else d) for n, d in entries]
    path = tmp_path / "cut.epub"
    path.write_bytes(epubgen.build_zip(entries))
    [row], code = run_audit([path], PipelineConfig(jobs=1))
    assert code == 2
    assert row.status is FileStatus.FAILED
    assert re.match(NAMES_CONTAINER_XML, row.failure_reason), row.failure_reason


@pytest.mark.parametrize("encoding", ["x-nope"])
def test_container_xml_in_an_encoding_expat_cannot_read_rejected(encoding):
    xml = epubgen.container_xml().replace(b"UTF-8", encoding.encode())
    data = epubgen.build_zip([("META-INF/container.xml", xml)])
    with pytest.raises(MalformedContainerXml, match=NAMES_CONTAINER_XML + ".*encoding"):
        open_epub(data)


@pytest.mark.parametrize("encoding", ["shift_jis", "euc-jp", "gbk"])
def test_container_xml_in_a_multibyte_encoding_read(encoding):
    text = epubgen.container_xml("本/content.opf").decode("utf-8").replace("UTF-8", encoding)
    data = epubgen.build_zip([("META-INF/container.xml", text.encode(encoding))])
    assert open_epub(data).rootfile_path == "本/content.opf"


def test_container_xml_without_rootfile_rejected():
    xml = (
        b'<?xml version="1.0"?><container '
        b'xmlns="urn:oasis:names:tc:opendocument:xmlns:container">'
        b"<rootfiles/></container>"
    )
    data = epubgen.build_zip([("META-INF/container.xml", xml)])
    with pytest.raises(MalformedContainerXml, match=NAMES_CONTAINER_XML + "no rootfile"):
        open_epub(data)


def test_rootfile_without_full_path_rejected():
    xml = epubgen.container_xml().replace(b' full-path="OEBPS/content.opf"', b"")
    data = epubgen.build_zip([("META-INF/container.xml", xml)])
    with pytest.raises(MalformedContainerXml, match=NAMES_CONTAINER_XML + "rootfile element"):
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


def _edit(data: bytes, at: int, new: bytes) -> bytes:
    return data[:at] + new + data[at + len(new) :]


def _central_record(data: bytes, name: str) -> int:
    """Offset of `name`'s central directory record."""
    at = struct.unpack_from("<I", data, data.rfind(b"PK\x05\x06") + 16)[0]
    while True:
        name_len, extra_len, comment_len = struct.unpack_from("<HHH", data, at + 28)
        if data[at + 46 : at + 46 + name_len] == name.encode():
            return at
        at += 46 + name_len + extra_len + comment_len


def _local_record(data: bytes, name: str) -> int:
    """Offset of `name`'s local header."""
    return struct.unpack_from("<I", data, _central_record(data, name) + 42)[0]


def _newer_zip_version(data: bytes) -> bytes:
    # "version needed to extract" 9.9 in container.xml's central record
    return _edit(data, _central_record(data, CONTAINER_XML_PATH) + 6, struct.pack("<H", 99))


def _central_directory_moved(data: bytes) -> bytes:
    # a central directory offset one past where it is: zipfile takes the
    # difference for bytes prepended to the archive, and the first local
    # header lands at offset -1
    eocd = data.rfind(b"PK\x05\x06")
    cd_offset = struct.unpack_from("<I", data, eocd + 16)[0]
    return _edit(data, eocd + 16, struct.pack("<I", cd_offset + 1))


def _bad_deflate_block(data: bytes) -> bytes:
    # container.xml's deflate stream opens with a final block of the
    # reserved type 3
    local = _local_record(data, CONTAINER_XML_PATH)
    name_len, extra_len = struct.unpack_from("<HH", data, local + 26)
    return _edit(data, local + 30 + name_len + extra_len, b"\x07")


def _stored_entry_runs_past_end(data: bytes) -> bytes:
    # the stored mimetype claims more bytes than the whole archive holds
    sizes = struct.pack("<II", 0xFFFFFF, 0xFFFFFF)
    return _edit(data, _central_record(data, MIMETYPE_PATH) + 20, sizes)


def _name_not_utf8(data: bytes) -> bytes:
    # container.xml flags its name as UTF-8 in both headers, and the local
    # header's copy of the name starts with a byte UTF-8 cannot start with
    central = _central_record(data, CONTAINER_XML_PATH)
    local = _local_record(data, CONTAINER_XML_PATH)
    utf8_flag = struct.pack("<H", 0x800)
    data = _edit(data, central + 8, utf8_flag)
    data = _edit(data, local + 6, utf8_flag)
    return _edit(data, local + 30, b"\xff")


@pytest.mark.parametrize(
    "corrupt,error,raw",
    [
        # the last field is what zipfile itself raises on the edited bytes
        (_newer_zip_version, NotSupported, "NotImplementedError"),
        (_central_directory_moved, NotZip, "ValueError"),
        (_bad_deflate_block, NotZip, "error"),
        (_stored_entry_runs_past_end, NotZip, "EOFError"),
        (_name_not_utf8, NotZip, "UnicodeDecodeError"),
    ],
)
def test_corrupt_archive_raises_a_container_error(clean_book_bytes, corrupt, error, raw):
    data = corrupt(clean_book_bytes)
    with pytest.raises(error) as caught:
        open_epub(data)
    cause = caught.value.__cause__
    if not isinstance(cause, zipfile.BadZipFile):  # newer zipfiles catch some
        assert type(cause).__name__ == raw


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
    assert write_epub(arc) == write_epub(open_epub(clean_book_bytes))


def test_written_archive_has_mimetype_first_stored(clean_book_bytes):
    data = write_epub(open_epub(clean_book_bytes))
    name, method, raw = ziporacle.first_local_entry(data)
    assert name == "mimetype"
    assert method == 0
    assert raw == b"application/epub+zip"


def test_write_rejects_misplaced_mimetype(clean_book_bytes):
    # the write gate owns the OCF rules: the mimetype entry first, stored
    # and exact, and container.xml and the rootfile it names present
    reordered, wrong, no_rootfile = (open_epub(clean_book_bytes) for _ in range(3))
    reordered.entries.reverse()
    wrong.entries[0] = wrong.entries[0].with_data(b"text/plain")
    no_rootfile.entries.remove(no_rootfile.entry(no_rootfile.rootfile_path))
    for arc, complaint in [
        (reordered, "first entry must be the mimetype"),
        (wrong, "mimetype entry content is wrong"),
        (no_rootfile, "archive lacks its rootfile 'OEBPS/content.opf'"),
    ]:
        with pytest.raises(InvariantViolation, match=complaint):
            write_epub(arc)


def test_write_rejects_bad_entry_paths(clean_book_bytes):
    arc = open_epub(clean_book_bytes)
    arc.entries.append(ArchiveEntry(path="../escape.txt", data=b"x"))
    with pytest.raises(InvariantViolation):
        write_epub(arc)


def test_entry_lookup_follows_replacements_and_list_edits(clean_book_bytes):
    arc = open_epub(clean_book_bytes)
    entry = arc.entry("OEBPS/ch1.xhtml")
    arc.entries[arc.entries.index(entry)] = entry.with_data(b"<x/>")
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
    before = entry.data
    updated = entry.with_data(b"<html/>")
    assert updated.data == b"<html/>"
    assert updated.path == entry.path
    assert entry.data == before != updated.data


def test_well_formed_verdict_goes_with_its_bytes(clean_book_bytes):
    entry = open_epub(clean_book_bytes).entry("OEBPS/ch1.xhtml")
    assert entry.well_formed is None
    checked = entry.with_data(b"<html/>", well_formed=True)
    assert checked.well_formed is True
    assert checked.with_data(b"<html>").well_formed is None


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
