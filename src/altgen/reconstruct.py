"""Structural integrity checking and final assembly of a repaired EPUB.

rebuild takes the archive as opened and the entries a repair changed. It
checks and writes the archive's entries in order, each modified one in the
place of the entry with its path, without copying the archive, which it
leaves as it was.
"""

from __future__ import annotations

import os
import posixpath
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

from altgen.container import MIMETYPE_CONTENT, MIMETYPE_PATH, ArchiveEntry, Compression
from altgen.container import EpubArchive, is_well_formed, write_epub
from altgen.errors import AltgenError
from altgen.package import PackageDocument, XHTML_MEDIA_TYPES, has_scheme

_CONTENT_EXTENSIONS = frozenset(
    {".xhtml", ".html", ".htm", ".png", ".jpg", ".jpeg", ".gif", ".svg", ".webp"}
)


class IntegrityErrors(AltgenError):
    """rebuild refused to run because Error-severity findings exist."""

    def __init__(self, findings: list["IntegrityFinding"]):
        self.findings = findings
        super().__init__(
            "; ".join(f"{f.code.value}: {f.path}" for f in findings) or "integrity errors"
        )


class FindingSeverity(Enum):
    ERROR = "Error"
    WARNING = "Warning"


class FindingCode(Enum):
    MANIFEST_DANGLING_HREF = "ManifestDanglingHref"
    SPINE_DANGLING_IDREF = "SpineDanglingIdref"
    UNMANIFESTED_CONTENT = "UnmanifestedContent"
    MIMETYPE_VIOLATION = "MimetypeViolation"
    MALFORMED_MODIFIED_DOC = "MalformedModifiedDoc"


# UnmanifestedContent is deliberately the only Warning-severity code.
_SEVERITY_BY_CODE = {
    FindingCode.MANIFEST_DANGLING_HREF: FindingSeverity.ERROR,
    FindingCode.SPINE_DANGLING_IDREF: FindingSeverity.ERROR,
    FindingCode.UNMANIFESTED_CONTENT: FindingSeverity.WARNING,
    FindingCode.MIMETYPE_VIOLATION: FindingSeverity.ERROR,
    FindingCode.MALFORMED_MODIFIED_DOC: FindingSeverity.ERROR,
}


@dataclass(frozen=True)
class IntegrityFinding:
    code: FindingCode
    severity: FindingSeverity
    path: str


def finding(code: FindingCode, path: str) -> IntegrityFinding:
    return IntegrityFinding(code, _SEVERITY_BY_CODE[code], path)


def integrity_check(archive: EpubArchive, pkg: PackageDocument) -> list[IntegrityFinding]:
    """Structural findings; never raises. Deterministic order.

    A modified content document must be well-formed XML. The verdict is the
    entry's own (`well_formed`, set by ContentDocument.splice) when it has
    one, else container.is_well_formed's on its bytes."""
    findings: list[IntegrityFinding] = []

    manifest_hrefs = set()
    for item in pkg.manifest:
        manifest_hrefs.add(item.href)
        if not has_scheme(item.href) and archive.entry(item.href) is None:
            findings.append(finding(FindingCode.MANIFEST_DANGLING_HREF, item.href))

    ids = {item.id for item in pkg.manifest}
    for idref in pkg.spine:
        if idref not in ids:
            findings.append(finding(FindingCode.SPINE_DANGLING_IDREF, idref))

    opf_path = archive.rootfile_path
    for entry in archive.entries:
        if entry.path in (MIMETYPE_PATH, opf_path) or entry.path.startswith("META-INF/"):
            continue
        if entry.path.endswith("/"):
            continue
        ext = posixpath.splitext(entry.path)[1].lower()
        if ext in _CONTENT_EXTENSIONS and entry.path not in manifest_hrefs:
            findings.append(finding(FindingCode.UNMANIFESTED_CONTENT, entry.path))

    first = archive.entries[0] if archive.entries else None
    if (
        first is None
        or first.path != MIMETYPE_PATH
        or first.compression is not Compression.STORED
        or first.data != MIMETYPE_CONTENT
    ):
        findings.append(finding(FindingCode.MIMETYPE_VIOLATION, MIMETYPE_PATH))

    xhtml_hrefs = {i.href for i in pkg.manifest if i.media_type in XHTML_MEDIA_TYPES}
    for entry in archive.entries:
        if not entry.modified:
            continue
        ext = posixpath.splitext(entry.path)[1].lower()
        if entry.path in xhtml_hrefs or ext in (".xhtml", ".html", ".htm"):
            well_formed = entry.well_formed
            if well_formed is None:
                well_formed = is_well_formed(entry.data)
            if not well_formed:
                findings.append(finding(FindingCode.MALFORMED_MODIFIED_DOC, entry.path))

    findings.sort(key=lambda f: (f.path, f.code.value))
    return findings


def rebuild(
    archive: EpubArchive,
    pkg: PackageDocument,
    modified_docs: list[ArchiveEntry] | None = None,
) -> bytes:
    """Assemble output bytes: the archive's entries with the modified ones
    in their place, checked for integrity, then written.

    `modified_docs` holds every entry that differs from the archive's, the
    OPF included: a caller that changed the package passes the OPF entry
    serialize_opf writes for it, since pkg is only the model the integrity
    check reads. Raises IntegrityErrors when Error-severity findings exist
    or the OPF is missing, KeyError for a modified entry whose path is not
    in the archive.
    """
    modified = {doc.path: doc for doc in modified_docs or ()}
    entries = [modified.pop(entry.path, entry) for entry in archive.entries]
    if modified:
        raise KeyError(next(iter(modified)))
    result = EpubArchive(entries, archive.rootfile_path)

    if result.entry(result.rootfile_path) is None:
        raise IntegrityErrors(
            [finding(FindingCode.MANIFEST_DANGLING_HREF, result.rootfile_path)]
        )

    findings = integrity_check(result, pkg)
    errors = [f for f in findings if f.severity is FindingSeverity.ERROR]
    if errors:
        raise IntegrityErrors(errors)
    return write_epub(result)


def write_file_atomic(path: Path, data: bytes) -> None:
    """Write via a temp file in the same directory plus rename. The temp
    file is created with mode 0o666, so the kernel applies the umask; the
    umask is never read, since reading it means setting it, and that races
    with other threads creating files."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp_name = path.parent / f".{path.name}.{os.urandom(8).hex()}.tmp"
    fd = os.open(tmp_name, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise
