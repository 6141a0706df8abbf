"""The integrity gate of a repair, and the assembly of its book.

integrity_check, run before any caption request, refuses a book for two
reasons only: a manifest href that names no entry, and a content document
that no alts at its caption targets can make well-formed XML. Every other
structural rule is checked once, by the module that owns it: open_epub and
write_epub's gate enforce the OCF rules (the mimetype entry, container.xml,
the rootfile), and parse_opf the spine's references. rebuild parses
nothing: it writes the archive's entries in order, each modified one in the
place of the entry with its path, and refuses a modified document whose
splice did not find it well-formed. It leaves the archive as it was.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Sequence

from altgen.container import ArchiveEntry, EpubArchive, write_epub
from altgen.content import ContentDocument
from altgen.errors import AltgenError
from altgen.package import PackageDocument, has_scheme


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
    archive: EpubArchive,
    pkg: PackageDocument,
    chapters: Sequence[tuple[ContentDocument, list[int]]] = (),
) -> list[IntegrityFinding]:
    """Findings that stop a book before any caption request; never raises.
    Sorted by path.

    A manifest href that is no URL must name an entry of the archive, and
    each (document, image indices) of `chapters` must be a document that
    alts at those images can make well-formed XML."""
    findings = [
        IntegrityFinding(FindingCode.MANIFEST_DANGLING_HREF, item.href)
        for item in pkg.manifest
        if not has_scheme(item.href) and archive.entry(item.href) is None
    ]
    findings += (
        IntegrityFinding(FindingCode.MALFORMED_MODIFIED_DOC, document.doc_path)
        for document, indices in chapters
        if not document.can_be_well_formed(indices)
    )
    findings.sort(key=lambda f: (f.path, f.code.value))
    return findings


def rebuild(archive: EpubArchive, modified_docs: Sequence[ArchiveEntry] = ()) -> bytes:
    """The archive's entries, each modified one in the place of the entry
    with its path, written as EPUB bytes.

    `modified_docs` holds every entry that differs from the archive's, the
    OPF included. Each but the rootfile carries its splice's `well_formed`
    verdict, and rebuild refuses with IntegrityErrors (MalformedModifiedDoc,
    sorted by path) any whose verdict is not True. Raises InvariantViolation
    (from write_epub) for a broken OCF structure, and KeyError for a
    modified entry whose path is not in the archive."""
    modified = {doc.path: doc for doc in modified_docs}
    entries = [modified.pop(entry.path, entry) for entry in archive.entries]
    if modified:
        raise KeyError(next(iter(modified)))
    malformed = sorted(
        doc.path
        for doc in modified_docs
        if doc.path != archive.rootfile_path and doc.well_formed is not True
    )
    if malformed:
        code = FindingCode.MALFORMED_MODIFIED_DOC
        raise IntegrityErrors([IntegrityFinding(code, path) for path in malformed])
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
