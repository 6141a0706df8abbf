"""Read and write EPUB (OCF) containers without losing publisher bytes.

The model is deliberately dumb: an ordered list of entries plus the
rootfile path from META-INF/container.xml. Round-tripping preserves entry
order, per-entry compression method, and decompressed content exactly;
compressed byte streams are regenerated on write. An archive is never
edited or copied for a repair: reconstruct.rebuild writes its entries with
the rewritten ones in their place. open_epub enforces the OCF rules on
read, and write_epub's gate checks them all on write: the mimetype entry
first, stored and exact, container.xml, and the rootfile it names, which
open_epub leaves to its callers. Every XML part (chapters, the OPF,
container.xml, SVG images) is decoded by decode_xml and read by parse_xml,
the one strict parser, whose tree holds no reference cycle and so is freed
with its last reference; content.parse_document wraps it in a
ParsedDocument. splice writes edits into that text, so everything else in
the part keeps its bytes. Every JSON input, from a file or a backend, is
read by parse_json, the one strict JSON parser.
"""

from __future__ import annotations

import codecs
import functools
import io
import json
import math
import re
import struct
import zipfile
import zlib
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import NamedTuple
from xml.etree import ElementTree as ET
from xml.parsers import expat

from altgen.errors import AltgenError

MIMETYPE_PATH = "mimetype"
MIMETYPE_CONTENT = b"application/epub+zip"
CONTAINER_XML_PATH = "META-INF/container.xml"

# Signatures used for the raw ZIP64 scan; zipfile would accept ZIP64
# archives silently, and we refuse them instead.
_EOCD_SIG = b"PK\x05\x06"
_ZIP64_LOCATOR_SIG = b"PK\x06\x07"

# What zipfile raises, besides BadZipFile, on a corrupt archive: a negative
# seek, a deflate stream or an entry cut short, a name that is not the UTF-8
# its flag claims (UnicodeDecodeError is a ValueError).
_CORRUPT = (zipfile.BadZipFile, ValueError, EOFError, zlib.error)


class ContainerError(AltgenError):
    pass


class NotZip(ContainerError):
    """Input bytes are not a readable ZIP stream."""


class NotSupported(ContainerError):
    """Structurally valid ZIP using features we refuse (ZIP64, exotic compression)."""


class MissingMimetype(ContainerError):
    pass


class WrongMimetype(ContainerError):
    """mimetype entry exists but is misplaced, compressed, or has wrong content."""


class MissingContainerXml(ContainerError):
    pass


class MalformedContainerXml(ContainerError):
    pass


class InvariantViolation(ContainerError):
    """Archive handed to write_epub breaks an OCF structural invariant."""


class NotWellFormed(AltgenError):
    """XML bytes that parse_xml rejects, or JSON bytes that parse_json does."""


class Undecodable(NotWellFormed):
    """XML bytes that the codec decode_xml picks for them cannot decode."""


class Compression(Enum):
    STORED = "stored"
    DEFLATED = "deflated"


@dataclass
class ArchiveEntry:
    """One file inside the container.

    `data` is always the decompressed content. with_data gives a copy with
    new content; a repair hands the copies it made to reconstruct.rebuild.
    """

    path: str
    data: bytes
    compression: Compression = Compression.DEFLATED
    # ZIP dos-format timestamp; preserved on round-trip, epoch for new entries.
    date_time: tuple[int, int, int, int, int, int] = (1980, 1, 1, 0, 0, 0)
    # whether `data` is well-formed XML, when a strict parse of exactly these
    # bytes has already told; None when none has
    well_formed: bool | None = field(default=None, compare=False, repr=False)

    def with_data(self, data: bytes, well_formed: bool | None = None) -> "ArchiveEntry":
        return replace(self, data=data, well_formed=well_formed)


@dataclass
class EpubArchive:
    """Ordered entries plus the rootfile path named by container.xml."""

    entries: list[ArchiveEntry] = field(default_factory=list)
    rootfile_path: str = ""
    # path -> position in entries; checked on use and rebuilt when stale,
    # because callers may edit `entries` directly
    _positions: dict[str, int] = field(default_factory=dict, init=False, repr=False, compare=False)

    def _position(self, path: str) -> int | None:
        i = self._positions.get(path)
        if i is None or i >= len(self.entries) or self.entries[i].path != path:
            self._positions = {}
            for j, e in enumerate(self.entries):
                self._positions.setdefault(e.path, j)
            i = self._positions.get(path)
        return i

    def entry(self, path: str) -> ArchiveEntry | None:
        i = self._position(path)
        return None if i is None else self.entries[i]


def _validate_entry_path(path: str) -> str | None:
    """Return a complaint string for a bad path, or None when acceptable."""
    if not path:
        return "empty entry path"
    if "\\" in path:
        return f"backslash in entry path {path!r}"
    if path.startswith("/"):
        return f"absolute entry path {path!r}"
    segments = path.split("/")
    # trailing '/' marks a directory entry; the empty last segment is fine
    if segments and segments[-1] == "":
        segments = segments[:-1]
    for seg in segments:
        if seg in ("", ".", ".."):
            return f"entry path {path!r} contains a {seg!r} segment"
    return None


def _looks_zip64(data: bytes) -> bool:
    idx = data.rfind(_EOCD_SIG)
    if idx < 0:
        return False
    if idx >= 20 and data[idx - 20 : idx - 16] == _ZIP64_LOCATOR_SIG:
        return True
    if len(data) >= idx + 20:
        n_total, cd_size, cd_offset = struct.unpack("<HII", data[idx + 10 : idx + 20])
        if n_total == 0xFFFF or cd_size == 0xFFFFFFFF or cd_offset == 0xFFFFFFFF:
            return True
    return False


def _not_zip(exc: Exception, where: str = "") -> NotZip:
    """BadZipFile's message says what is wrong; the other errors zipfile
    lets through need their type to make sense."""
    return NotZip(where + (str(exc) if isinstance(exc, zipfile.BadZipFile) else repr(exc)))


def open_epub(data: bytes) -> EpubArchive:
    """Parse container bytes into an EpubArchive.

    Raises NotZip (a corrupt archive), NotSupported (ZIP64, encryption, or
    an unknown compression method or ZIP version), MissingMimetype,
    WrongMimetype, MissingContainerXml, MalformedContainerXml.
    """
    if len(data) < 4 or data[:2] != b"PK" or data[2:4] not in (b"\x03\x04", b"\x05\x06"):
        raise NotZip("no ZIP signature at offset 0")
    if _looks_zip64(data):
        raise NotSupported("ZIP64 archives are not supported")
    try:
        zf = zipfile.ZipFile(io.BytesIO(data))
    except _CORRUPT as exc:
        raise _not_zip(exc) from exc
    except NotImplementedError as exc:
        raise NotSupported(str(exc)) from exc

    entries: list[ArchiveEntry] = []
    seen: set[str] = set()
    with zf:
        for info in zf.infolist():
            complaint = _validate_entry_path(info.filename)
            if complaint:
                raise NotSupported(complaint)
            if info.filename in seen:
                raise NotSupported(f"duplicate entry path {info.filename!r}")
            seen.add(info.filename)
            if info.compress_type == zipfile.ZIP_STORED:
                comp = Compression.STORED
            elif info.compress_type == zipfile.ZIP_DEFLATED:
                comp = Compression.DEFLATED
            else:
                raise NotSupported(f"compression method {info.compress_type} in {info.filename!r}")
            try:
                content = zf.read(info)
            except _CORRUPT as exc:
                raise _not_zip(exc, f"{info.filename!r}: ") from exc
            except RuntimeError as exc:  # encrypted, or NotImplementedError
                raise NotSupported(f"{info.filename!r}: {exc}") from exc
            entries.append(
                ArchiveEntry(info.filename, content, comp, tuple(info.date_time))
            )

    mimetype = next((e for e in entries if e.path == MIMETYPE_PATH), None)
    if mimetype is None:
        raise MissingMimetype("no mimetype entry")
    if (
        entries[0].path != MIMETYPE_PATH
        or mimetype.compression is not Compression.STORED
        or mimetype.data != MIMETYPE_CONTENT
    ):
        raise WrongMimetype(
            "mimetype entry must come first, be stored, and contain exactly "
            + MIMETYPE_CONTENT.decode("ascii")
        )

    rootfile_path = _parse_container_xml(entries)
    return EpubArchive(entries, rootfile_path)


def _localname(tag: str) -> str:
    """The name of an element or attribute without its namespace."""
    if tag.startswith("{"):
        return tag.rsplit("}", 1)[1]
    return tag.rsplit(":", 1)[-1]


_ENCODING_RE = re.compile(
    rb'<\?xml\s[^>]*encoding\s*=\s*["\']([A-Za-z0-9._-]+)["\']', re.DOTALL
)
_CHARSET_RE = re.compile(rb'charset\s*=\s*["\']?([A-Za-z0-9._-]+)', re.IGNORECASE)
# what XML bytes start with, the codec that says, and the length of the BOM
_STARTS = (
    (codecs.BOM_UTF8, "utf-8", 3),
    (codecs.BOM_UTF16_LE, "utf-16-le", 2),
    (codecs.BOM_UTF16_BE, "utf-16-be", 2),
    # XML 1.0 Appendix F: UTF-16 without a BOM, by its first character
    (b"<\0", "utf-16-le", 0),
    (b"\0<", "utf-16-be", 0),
)

# a character XML 1.0 does not allow, even escaped
NON_XML_CHAR_RE = re.compile("[\x00-\x08\x0b\x0c\x0e-\x1f\ud800-\udfff\ufffe\uffff]")

# a whole well-formed start tag, matched where a strict parse says one begins
XML_START_TAG_RE = re.compile(r"""<[^\s/>]+(?:\s+[^\s=/>]+\s*=\s*(?:"[^"]*"|'[^']*'))*\s*/?>""")


def decode_xml(data: bytes, meta: bool = False) -> tuple[str, str, bytes]:
    """(text, codec, bom) of XML bytes, by XML 1.0's rule (section 4.3.3 and
    Appendix F): the BOM wins, then UTF-16 known by its first character,
    then the XML declaration, then UTF-8. With `meta`, for tag soup, a meta
    charset comes before UTF-8. `bom + text.encode(codec)` gives the input
    back. parse_xml reads this text, since expat reads a str as UTF-8
    whatever its XML declaration says. Raises Undecodable."""
    for start, codec, n in _STARTS:
        if data.startswith(start):
            bom = start[:n]
            break
    else:
        head = data[:1024]
        match = _ENCODING_RE.search(head) or (meta and _CHARSET_RE.search(head))
        bom, codec = b"", match.group(1).decode("ascii") if match else "utf-8"
    try:
        text = data[len(bom) :].decode(codec)
        if not text.isascii():
            text.encode("utf-8")  # UTF-7 and escape codecs can give lone surrogates
    except (UnicodeError, LookupError) as exc:
        raise Undecodable(str(exc)) from exc
    return text, codec, bom


def _parse_container_xml(entries: list[ArchiveEntry]) -> str:
    container = next((e for e in entries if e.path == CONTAINER_XML_PATH), None)
    if container is None:
        raise MissingContainerXml(f"no {CONTAINER_XML_PATH} entry")
    try:
        root = parse_xml(container.data).root
    except NotWellFormed as exc:
        raise MalformedContainerXml(f"{CONTAINER_XML_PATH}: {exc}") from exc
    for elem in root.iter():
        if _localname(elem.tag) == "rootfile":
            full_path = elem.get("full-path")
            if not full_path:
                raise MalformedContainerXml(f"{CONTAINER_XML_PATH}: rootfile element lacks full-path")
            # first rootfile in document order wins
            return full_path
    raise MalformedContainerXml(f"{CONTAINER_XML_PATH}: no rootfile element")


class ParsedXml(NamedTuple):
    """`starts` gives every element, in document order, the UTF-8 offset in
    the decoded text of its start tag's '<', and `ends` of its end tag's
    '</' (just past '/>' for an empty element); both give the offset of the
    entity reference, in an entity's replacement text. `declared` gives
    each element that declares namespaces the URI of each prefix (None: the
    default namespace)."""

    root: ET.Element
    decoded: tuple[str, str, bytes]
    starts: dict[ET.Element, int]
    ends: dict[ET.Element, int]
    declared: dict[ET.Element, dict[str | None, str | None]]


@functools.lru_cache(maxsize=1024)
def _tree_name(name: str) -> str:
    """The ElementTree name of an expat name ("uri}local" if namespaced)."""
    return "{" + name if "}" in name else name


def _unexpanded_entity(*args) -> int:
    # ElementTree rejects an entity reference expat cannot expand: an
    # undefined one under an external DTD, or an external one
    raise NotWellFormed("undefined or external entity")


def parse_xml(data: bytes) -> ParsedXml:
    """The tree ET.fromstring builds of the text decode_xml gives for
    `data`, and where each of its elements is in that text. Raises
    NotWellFormed (Undecodable among them) where either of those raises."""
    decoded = decode_xml(data)
    builder = ET.TreeBuilder()
    parser = expat.ParserCreate(None, "}")
    parser.buffer_text = True
    starts, ends, declared, pending = {}, {}, {}, {}

    def start(name: str, attrs: dict[str, str]) -> None:
        if attrs:
            attrs = {_tree_name(key): value for key, value in attrs.items()}
        elem = builder.start(_tree_name(name), attrs)
        starts[elem] = parser.CurrentByteIndex
        if pending:
            declared[elem] = dict(pending)
            pending.clear()

    def end(name: str) -> None:
        ends[builder.end(name)] = parser.CurrentByteIndex

    parser.StartElementHandler = start
    parser.EndElementHandler = end
    parser.CharacterDataHandler = builder.data
    parser.StartNamespaceDeclHandler = pending.__setitem__
    parser.SkippedEntityHandler = parser.ExternalEntityRefHandler = _unexpanded_entity
    try:
        parser.Parse(decoded[0], True)
    except expat.ExpatError as exc:
        raise NotWellFormed(str(exc)) from exc
    finally:
        # start and end hold the parser, which holds them; unset, the tree
        # is freed with its last reference, not by the cycle collector
        parser.StartElementHandler = parser.EndElementHandler = None
    return ParsedXml(builder.close(), decoded, starts, ends, declared)


def char_offsets(text: str, offsets: list[int]) -> list[int]:
    """The character offset in `text` of each UTF-8 offset parse_xml gave
    for it, taken in increasing order."""
    utf8, out, at, pos = text.encode("utf-8"), [], 0, 0
    for offset in offsets:
        pos += len(utf8[at:offset].decode("utf-8"))
        at = offset
        out.append(pos)
    return out


def is_well_formed(data: bytes) -> bool:
    """Whether parse_xml takes `data`."""
    try:
        parse_xml(data)
    except NotWellFormed:
        return False
    return True


def parse_json(data: bytes, top: type):
    """The value of the UTF-8 JSON `data`, which must be a `top` (dict or
    list); NaN and Infinity are floats. Raises NotWellFormed otherwise, and
    for JSON too deep or with an integer of more digits than Python reads."""
    try:
        value = json.loads(data.decode("utf-8"))
    except (ValueError, RecursionError) as exc:
        raise NotWellFormed(str(exc)) from exc
    if type(value) is not top:
        raise NotWellFormed(f"not a JSON {'object' if top is dict else 'array'}")
    return value


def finite_number(value) -> float | None:
    """`value` as a float if it is a JSON number (an int or a float, never a
    bool) whose float is finite, else None."""
    try:
        return float(value) if type(value) in (int, float) and math.isfinite(value) else None
    except OverflowError:  # an integer past the float range
        return None


def splice(decoded: tuple[str, str, bytes], edits: list[tuple[int, int, str]]) -> bytes:
    """The (text, codec, bom) decode_xml gave, encoded back with each
    (first, last, new) edit, which must not overlap, putting `new` in place
    of text[first:last]; a character the codec lacks is escaped."""
    text, codec, bom = decoded
    out, pos = [], 0
    for first, last, new in sorted(edits):
        out += (text[pos:first], new)
        pos = last
    out.append(text[pos:])
    return bom + "".join(out).encode(codec, "xmlcharrefreplace")


def write_epub(archive: EpubArchive) -> bytes:
    """Serialize an EpubArchive back to container bytes.

    The mimetype entry is written first and stored; everything else uses the
    entry's recorded compression method. Raises InvariantViolation when the
    archive model breaks OCF structure.
    """
    _check_write_invariants(archive)
    buf = io.BytesIO()
    with zipfile.ZipFile(buf, "w") as zf:
        for entry in archive.entries:
            info = zipfile.ZipInfo(entry.path, date_time=entry.date_time)
            if entry.compression is Compression.STORED:
                info.compress_type = zipfile.ZIP_STORED
            else:
                info.compress_type = zipfile.ZIP_DEFLATED
            zf.writestr(info, entry.data)
    return buf.getvalue()


def _check_write_invariants(archive: EpubArchive) -> None:
    if not archive.entries:
        raise InvariantViolation("archive has no entries")
    first = archive.entries[0]
    if first.path != MIMETYPE_PATH:
        raise InvariantViolation("first entry must be the mimetype")
    if first.compression is not Compression.STORED:
        raise InvariantViolation("mimetype entry must be stored, not compressed")
    if first.data != MIMETYPE_CONTENT:
        raise InvariantViolation("mimetype entry content is wrong")
    if archive.entry(CONTAINER_XML_PATH) is None:
        raise InvariantViolation(f"archive lacks {CONTAINER_XML_PATH}")
    if archive.entry(archive.rootfile_path) is None:
        raise InvariantViolation(f"archive lacks its rootfile {archive.rootfile_path!r}")
    seen: set[str] = set()
    for entry in archive.entries:
        complaint = _validate_entry_path(entry.path)
        if complaint:
            raise InvariantViolation(complaint)
        if entry.path in seen:
            raise InvariantViolation(f"duplicate entry path {entry.path!r}")
        seen.add(entry.path)
