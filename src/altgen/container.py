"""Read and write EPUB (OCF) containers without losing publisher bytes.

The model is deliberately dumb: an ordered list of entries plus the
rootfile path from META-INF/container.xml. Round-tripping preserves entry
order, per-entry compression method, and decompressed content exactly;
compressed byte streams are regenerated on write.
"""

from __future__ import annotations

import io
import struct
import zipfile
from dataclasses import dataclass, field, replace
from enum import Enum
from xml.etree import ElementTree as ET

from altgen.errors import AltgenError

MIMETYPE_PATH = "mimetype"
MIMETYPE_CONTENT = b"application/epub+zip"
CONTAINER_XML_PATH = "META-INF/container.xml"

# Signatures used for the raw ZIP64 scan; zipfile would accept ZIP64
# archives silently, and we refuse them instead.
_EOCD_SIG = b"PK\x05\x06"
_ZIP64_LOCATOR_SIG = b"PK\x06\x07"


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


class Compression(Enum):
    STORED = "stored"
    DEFLATED = "deflated"


@dataclass
class ArchiveEntry:
    """One file inside the container.

    `data` is always the decompressed content. `modified` marks entries this
    toolchain rewrote; untouched entries keep it False so rebuild diffs stay
    honest.
    """

    path: str
    data: bytes
    compression: Compression = Compression.DEFLATED
    modified: bool = False
    # ZIP dos-format timestamp; preserved on round-trip, epoch for new entries.
    date_time: tuple[int, int, int, int, int, int] = (1980, 1, 1, 0, 0, 0)

    def with_data(self, data: bytes) -> "ArchiveEntry":
        return replace(self, data=data, modified=True)


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

    def replace_entry(self, entry: ArchiveEntry) -> None:
        i = self._position(entry.path)
        if i is None:
            raise KeyError(entry.path)
        self.entries[i] = entry

    def copy(self) -> "EpubArchive":
        return EpubArchive([replace(e) for e in self.entries], self.rootfile_path)


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


def open_epub(data: bytes) -> EpubArchive:
    """Parse container bytes into an EpubArchive.

    Raises NotZip, NotSupported (ZIP64 or unknown compression),
    MissingMimetype, WrongMimetype, MissingContainerXml, MalformedContainerXml.
    """
    if len(data) < 4 or data[:2] != b"PK" or data[2:4] not in (b"\x03\x04", b"\x05\x06"):
        raise NotZip("no ZIP signature at offset 0")
    if _looks_zip64(data):
        raise NotSupported("ZIP64 archives are not supported")
    try:
        zf = zipfile.ZipFile(io.BytesIO(data))
    except zipfile.BadZipFile as exc:
        raise NotZip(str(exc)) from exc

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
            except zipfile.BadZipFile as exc:
                raise NotZip(f"{info.filename!r}: {exc}") from exc
            except RuntimeError as exc:
                raise NotSupported(f"{info.filename!r}: {exc}") from exc
            entries.append(
                ArchiveEntry(info.filename, content, comp, False, tuple(info.date_time))
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


def _parse_container_xml(entries: list[ArchiveEntry]) -> str:
    container = next((e for e in entries if e.path == CONTAINER_XML_PATH), None)
    if container is None:
        raise MissingContainerXml(f"no {CONTAINER_XML_PATH} entry")
    try:
        root = ET.fromstring(container.data)
    except ET.ParseError as exc:
        raise MalformedContainerXml(str(exc)) from exc
    for elem in root.iter():
        if elem.tag.rsplit("}", 1)[-1] == "rootfile":
            full_path = elem.get("full-path")
            if not full_path:
                raise MalformedContainerXml("rootfile element lacks full-path")
            # first rootfile in document order wins
            return full_path
    raise MalformedContainerXml("no rootfile element")


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
    seen: set[str] = set()
    for entry in archive.entries:
        complaint = _validate_entry_path(entry.path)
        if complaint:
            raise InvariantViolation(complaint)
        if entry.path in seen:
            raise InvariantViolation(f"duplicate entry path {entry.path!r}")
        seen.add(entry.path)
