"""The last check of a repaired EPUB, and its assembly.

integrity_check refuses a repaired book for two reasons only: a manifest
href that names no entry, and a modified content document that is not
well-formed XML. Every other structural rule is checked once, by the module
that owns it: open_epub and write_epub's gate enforce the OCF rules (the
mimetype entry, container.xml, the rootfile), and parse_opf the spine's
references. rebuild takes the archive as opened and the entries a repair
changed. It checks and writes the archive's entries in order, each modified
one in the place of the entry with its path, without copying the archive,
which it leaves as it was.
"""

from __future__ import annotations

import os
import posixpath
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Sequence

from altgen.container import ArchiveEntry, EpubArchive, is_well_formed, write_epub
from altgen.errors import AltgenError
from altgen.package import PackageDocument, XHTML_MEDIA_TYPES, has_scheme


class IntegrityErrors(AltgenError):
    """The repaired book has integrity findings, so it is not written."""

    def __init__(self, findings: list["IntegrityFinding"]):
        self.findings = findings
        super().__init__("; ".join(f"{f.code.value}: {f.path}" for f in findings))


class FindingCode(Enum):
    MANIFEST_DANGLING_HREF = "ManifestDanglingHref"
    MALFORMED_MODIFIED_DOC = "MalformedModifiedDoc"


@dataclass(frozen=True)
class IntegrityFinding:
    code: FindingCode
    path: str


def integrity_check(
    archive: EpubArchive, pkg: PackageDocument, modified: Sequence[ArchiveEntry] = ()
) -> list[IntegrityFinding]:
    """Findings that stop a repaired book; never raises. Sorted by path.

    A manifest href that is no URL must name an entry of the archive. Each
    `modified` content document must be well-formed XML: the verdict is the
    entry's own (`well_formed`, set by ContentDocument.splice) when it has
    one, else container.is_well_formed's on its bytes."""
    findings = [
        IntegrityFinding(FindingCode.MANIFEST_DANGLING_HREF, item.href)
        for item in pkg.manifest
        if not has_scheme(item.href) and archive.entry(item.href) is None
    ]
    xhtml_hrefs = {i.href for i in pkg.manifest if i.media_type in XHTML_MEDIA_TYPES}
    for entry in modified:
        ext = posixpath.splitext(entry.path)[1].lower()
        if entry.path in xhtml_hrefs or ext in (".xhtml", ".html", ".htm"):
            well_formed = entry.well_formed
            if well_formed is None:
                well_formed = is_well_formed(entry.data)
            if not well_formed:
                findings.append(IntegrityFinding(FindingCode.MALFORMED_MODIFIED_DOC, entry.path))
    findings.sort(key=lambda f: (f.path, f.code.value))
    return findings


def rebuild(
    archive: EpubArchive,
    pkg: PackageDocument,
    modified_docs: Sequence[ArchiveEntry] = (),
) -> bytes:
    """Assemble output bytes: the archive's entries with the modified ones
    in their place, checked for integrity, then written.

    `modified_docs` holds every entry that differs from the archive's, the
    OPF included: a caller that changed the package passes the OPF entry
    serialize_opf writes for it, since pkg is only the model the integrity
    check reads. Raises IntegrityErrors when there are findings,
    InvariantViolation (from write_epub) for a broken OCF structure, and
    KeyError for a modified entry whose path is not in the archive.
    """
    modified = {doc.path: doc for doc in modified_docs}
    entries = [modified.pop(entry.path, entry) for entry in archive.entries]
    if modified:
        raise KeyError(next(iter(modified)))
    findings = integrity_check(archive, pkg, modified_docs)
    if findings:
        raise IntegrityErrors(findings)
    return write_epub(EpubArchive(entries, archive.rootfile_path))


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
