"""Accessibility rule engine producing the before/after error counts.

Eight fixed rules: seven content/metadata defects plus a Warning for
documents that cannot be parsed at all. Auditing never raises on document
content and never mutates the archive.

read_documents is the one reader of a book's content documents: it parses
each XHTML manifest item the archive holds once, in manifest order, and
gives None for a document that cannot be parsed. audit reads the images of
each document from it, and repair takes from the same parse the images, the
language sample's text and the caption contexts.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterator, Mapping

from altgen.container import EpubArchive
from altgen.content import ContentDocument, ImageOccurrence, UnparseableDocument
from altgen.package import (
    MetaKind,
    PackageDocument,
    XHTML_MEDIA_TYPES,
    has_scheme,
)

PACKAGE_LOCATION = "package"


class Severity(Enum):
    ERROR = "Error"
    WARNING = "Warning"


class IssueCode(Enum):
    IMG_MISSING_ALT = "ImgMissingAlt"
    IMG_EMPTY_ALT_NON_DECORATIVE = "ImgEmptyAltNonDecorative"
    MISSING_DC_LANGUAGE = "MissingDcLanguage"
    INVALID_LANGUAGE_TAG = "InvalidLanguageTag"
    MISSING_ACCESSIBILITY_METADATA = "MissingAccessibilityMetadata"
    MISSING_DC_TITLE = "MissingDcTitle"
    DANGLING_IMAGE_RESOURCE = "DanglingImageResource"
    UNPARSEABLE_DOCUMENT = "UnparseableDocument"


SEVERITY_BY_CODE = {
    IssueCode.IMG_MISSING_ALT: Severity.ERROR,
    IssueCode.IMG_EMPTY_ALT_NON_DECORATIVE: Severity.WARNING,
    IssueCode.MISSING_DC_LANGUAGE: Severity.ERROR,
    IssueCode.INVALID_LANGUAGE_TAG: Severity.WARNING,
    IssueCode.MISSING_ACCESSIBILITY_METADATA: Severity.WARNING,
    IssueCode.MISSING_DC_TITLE: Severity.ERROR,
    IssueCode.DANGLING_IMAGE_RESOURCE: Severity.ERROR,
    IssueCode.UNPARSEABLE_DOCUMENT: Severity.WARNING,
}


@dataclass(frozen=True)
class Issue:
    code: IssueCode
    severity: Severity
    doc_path: str
    element_index: int | None
    message: str

    def to_dict(self) -> dict:
        return {
            "code": self.code.value,
            "severity": self.severity.value,
            "doc_path": self.doc_path,
            "element_index": self.element_index,
            "message": self.message,
        }


@dataclass
class AuditReport:
    issues: list[Issue] = field(default_factory=list)
    files_scanned: int = 0
    error_count: int = 0
    warning_count: int = 0

    def __post_init__(self) -> None:
        self.error_count = sum(1 for i in self.issues if i.severity is Severity.ERROR)
        self.warning_count = sum(1 for i in self.issues if i.severity is Severity.WARNING)

    def to_dict(self) -> dict:
        return {
            "error_count": self.error_count,
            "warning_count": self.warning_count,
            "files_scanned": self.files_scanned,
            "issues": [i.to_dict() for i in self.issues],
        }


def _issue(code: IssueCode, doc_path: str, element_index: int | None, message: str) -> Issue:
    return Issue(code, SEVERITY_BY_CODE[code], doc_path, element_index, message)


# RFC 5646 well-formedness (syntax only, case-insensitive); validity against
# the IANA registry is out of scope.
_IRREGULAR = (
    "en-GB-oed|i-ami|i-bnn|i-default|i-enochian|i-hak|i-klingon|i-lux|i-mingo|"
    "i-navajo|i-pwn|i-tao|i-tay|i-tsu|sgn-BE-FR|sgn-BE-NL|sgn-CH-DE"
)
_REGULAR = "art-lojban|cel-gaulish|no-bok|no-nyn|zh-guoyu|zh-hakka|zh-min|zh-min-nan|zh-xiang"
_LANGTAG = (
    r"(?:[a-z]{2,3}(?:-[a-z]{3}){0,3}|[a-z]{4,8})"  # language (+extlangs)
    r"(?:-[a-z]{4})?"  # script
    r"(?:-(?:[a-z]{2}|[0-9]{3}))?"  # region
    r"(?:-(?:[a-z0-9]{5,8}|[0-9][a-z0-9]{3}))*"  # variants
    r"(?:-[0-9a-wyz](?:-[a-z0-9]{2,8})+)*"  # extensions
    r"(?:-x(?:-[a-z0-9]{1,8})+)?"  # private use
)
_PRIVATE = r"x(?:-[a-z0-9]{1,8})+"
# ASCII: under Unicode case folding, [a-z] would also match U+017F and U+212A
_TAG_RE = re.compile(f"{_IRREGULAR}|{_REGULAR}|{_LANGTAG}|{_PRIVATE}", re.IGNORECASE | re.ASCII)


def is_well_formed_language_tag(tag: str) -> bool:
    return _TAG_RE.fullmatch(tag) is not None


def read_documents(
    archive: EpubArchive, pkg: PackageDocument
) -> Iterator[tuple[str, ContentDocument | None]]:
    """(href, document) of each XHTML manifest item the archive holds, in
    manifest order: the documents an audit scans, each parsed once, and
    None for one that cannot be parsed."""
    for item in pkg.manifest:
        if item.media_type not in XHTML_MEDIA_TYPES:
            continue
        entry = archive.entry(item.href)
        if entry is None:
            continue  # integrity_check owns dangling manifest hrefs
        try:
            document = ContentDocument(entry, item.href)
        except UnparseableDocument:
            document = None
        yield item.href, document


def audit(
    archive: EpubArchive,
    pkg: PackageDocument,
    images: Mapping[str, list[ImageOccurrence] | None] | None = None,
) -> AuditReport:
    """Run every rule over the archive and package document.

    `images` gives, by href, the images of every document read_documents
    reads, and None for one it cannot parse; without it, the documents are
    read here.

    Deterministic: issues sorted by (doc_path, element_index, code). Never
    raises for document content; unparseable documents produce one Warning.
    """
    if images is None:
        images = {
            href: None if document is None else document.images
            for href, document in read_documents(archive, pkg)
        }
    issues: list[Issue] = []
    for href, occurrences in images.items():
        if occurrences is None:
            message = "document could not be parsed"
            issues.append(_issue(IssueCode.UNPARSEABLE_DOCUMENT, href, None, message))
            continue
        for occ in occurrences:
            src, found = occ.src or "(no src)", []
            if not occ.decorative and occ.existing_alt is None:
                found.append((IssueCode.IMG_MISSING_ALT, f"image {src} has no alt attribute"))
            elif not occ.decorative and occ.existing_alt == "":
                message = f"image {src} has empty alt without a decorative role"
                found.append((IssueCode.IMG_EMPTY_ALT_NON_DECORATIVE, message))
            if not has_scheme(occ.src) and (not occ.src or archive.entry(occ.src) is None):
                message = f"image src {src} resolves to no archive entry"
                found.append((IssueCode.DANGLING_IMAGE_RESOURCE, message))
            issues += (_issue(code, occ.doc_path, occ.element_index, m) for code, m in found)

    issues.extend(_package_issues(pkg))
    issues.sort(
        key=lambda i: (
            i.doc_path,
            i.element_index if i.element_index is not None else -1,
            i.code.value,
        )
    )
    return AuditReport(issues=issues, files_scanned=len(images))


def _package_issues(pkg: PackageDocument) -> list[Issue]:
    found = []
    languages = pkg.values(MetaKind.DC_LANGUAGE)
    if not languages:
        found.append((IssueCode.MISSING_DC_LANGUAGE, "package declares no dc:language"))
    for value in languages:
        if not is_well_formed_language_tag(value.strip()):
            message = f"dc:language value {value!r} is not a well-formed BCP 47 tag"
            found.append((IssueCode.INVALID_LANGUAGE_TAG, message))
    if not pkg.accessibility_values("accessMode"):
        message = "package declares no schema:accessMode metadata"
        found.append((IssueCode.MISSING_ACCESSIBILITY_METADATA, message))
    if not any(v.strip() for v in pkg.values(MetaKind.DC_TITLE)):
        found.append((IssueCode.MISSING_DC_TITLE, "package declares no dc:title"))
    return [_issue(code, PACKAGE_LOCATION, None, message) for code, message in found]
