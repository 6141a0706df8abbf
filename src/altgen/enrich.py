"""Metadata enrichment: language tags, accessibility metadata, title default.

A pure transform: the input package is never changed. Enrichment copies
only the metadata list and the entries it rewrites, and returns the input
itself when it changes nothing, which tells repair whether the OPF must be
written again. It never removes or rewrites a well-formed existing value,
so a second pass is a no-op.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from enum import Enum
from typing import Callable, Iterator, Mapping

from altgen.audit import is_well_formed_language_tag
from altgen.container import ArchiveEntry, EpubArchive
from altgen.content import UnparseableDocument, VisibleText, document_text
from altgen.errors import AltgenError
from altgen.package import MetaEntry, MetaKind, PackageDocument, XHTML_MEDIA_TYPES

SAMPLE_DOCS = 5
SAMPLE_CHARS = 10_000


class FixReason(Enum):
    DETECTED = "Detected"
    DEFAULT = "Default"
    SKIPPED = "Skipped"


@dataclass(frozen=True)
class AppliedFix:
    """Skipped fixes always have new=None; the title default uses
    reason=Default, which is the warning-level variant (nothing was
    detected, a placeholder went in)."""

    field: str
    old: str | None
    new: str | None
    reason: FixReason

    def __post_init__(self) -> None:
        if self.reason is FixReason.SKIPPED and self.new is not None:
            raise ValueError("skipped fixes cannot carry a new value")

    def to_dict(self) -> dict:
        return {
            "field": self.field,
            "old": self.old,
            "new": self.new,
            "reason": self.reason.value,
        }


def _sampled(pkg: PackageDocument, archive: EpubArchive) -> Iterator[tuple[str, ArchiveEntry]]:
    """(href, entry) of the first <= 5 spine documents the archive holds."""
    docs = (
        (item.href, archive.entry(item.href))
        for item in pkg.spine_items()
        if item.media_type in XHTML_MEDIA_TYPES
    )
    held = ((href, entry) for href, entry in docs if entry is not None)
    return itertools.islice(held, SAMPLE_DOCS)


def _detects_language(pkg: PackageDocument) -> bool:
    """Whether enrichment must detect the language: none declared, or one
    that is not a well-formed tag."""
    languages = pkg.values(MetaKind.DC_LANGUAGE)
    return not languages or not all(is_well_formed_language_tag(v.strip()) for v in languages)


def sampled_documents(pkg: PackageDocument, archive: EpubArchive) -> set[str]:
    """Hrefs of the documents enrich_metadata takes its language sample from;
    none when it detects no language."""
    return {href for href, _ in _sampled(pkg, archive)} if _detects_language(pkg) else set()


def sample_spine_text(
    pkg: PackageDocument,
    archive: EpubArchive,
    texts: Mapping[str, VisibleText | None] | None = None,
) -> str:
    """Visible text of the first <= 5 spine documents, capped at 10 000
    characters. Unparseable documents are skipped.

    `texts` gives, by href, the visible text of every document in
    sampled_documents, walked up to a limit of at least SAMPLE_CHARS (None
    for an unparseable document); without it, each document is parsed here.
    """
    parts: list[str] = []
    total = 0
    for href, entry in _sampled(pkg, archive):
        try:
            if texts is None:
                text = document_text(entry, limit=SAMPLE_CHARS - total)
            elif texts[href] is None:
                continue
            else:
                text = texts[href].text(SAMPLE_CHARS - total)
        except UnparseableDocument:
            continue
        if text:
            parts.append(text)
            total += len(text) + 1
        if total >= SAMPLE_CHARS:
            break
    return " ".join(parts)[:SAMPLE_CHARS]


def enrich_metadata(
    pkg: PackageDocument,
    archive: EpubArchive,
    detector: Callable[[str], tuple[str, float]],
    *,
    fallback_title: str | None = None,
    texts: Mapping[str, VisibleText | None] | None = None,
) -> tuple[PackageDocument, list[AppliedFix]]:
    """Returns the enriched package and the list of applied fixes.

    When the metadata comes out equal, the package returned is pkg itself.
    Otherwise it is a new PackageDocument with its own metadata list, in
    which each changed entry is a new MetaEntry that keeps the span of the
    one it replaces, so serialize_opf writes its value in place; it shares
    every other part with pkg, and pkg is not changed.

    detector is detect_language-shaped: text -> (lang, confidence), raising
    on failure. fallback_title is the filename stem used when dc:title is
    missing. A package without accessMode gets accessMode textual and
    visual and accessibilityFeature altText. texts is passed to
    sample_spine_text.
    """
    metadata = list(pkg.metadata)
    fixes: list[AppliedFix] = []

    if _detects_language(pkg):
        languages = pkg.values(MetaKind.DC_LANGUAGE)
        detected: str | None = None
        try:
            detected, _confidence = detector(sample_spine_text(pkg, archive, texts))
        except AltgenError:
            detected = None
        if detected is None:
            if not any(is_well_formed_language_tag(v.strip()) for v in languages):
                fixes.append(AppliedFix("dc:language", None, None, FixReason.SKIPPED))
        elif not languages:
            metadata.append(MetaEntry(MetaKind.DC_LANGUAGE, detected))
            fixes.append(AppliedFix("dc:language", None, detected, FixReason.DETECTED))
        else:
            for i, entry in enumerate(metadata):
                if entry.kind is MetaKind.DC_LANGUAGE and not is_well_formed_language_tag(
                    entry.value.strip()
                ):
                    fixes.append(
                        AppliedFix("dc:language", entry.value, detected, FixReason.DETECTED)
                    )
                    metadata[i] = replace(entry, value=detected)

    if not pkg.accessibility_values("accessMode"):
        for prop, value in (
            ("accessMode", "textual"),
            ("accessMode", "visual"),
            ("accessibilityFeature", "altText"),
        ):
            metadata.append(MetaEntry(MetaKind.SCHEMA_ACCESSIBILITY, value, property=prop))
            fixes.append(AppliedFix(f"schema:{prop}", None, value, FixReason.DEFAULT))

    if not any(v.strip() for v in pkg.values(MetaKind.DC_TITLE)):
        if fallback_title:
            metadata.append(MetaEntry(MetaKind.DC_TITLE, fallback_title))
            fixes.append(AppliedFix("dc:title", None, fallback_title, FixReason.DEFAULT))
        else:
            fixes.append(AppliedFix("dc:title", None, None, FixReason.SKIPPED))

    if metadata == pkg.metadata:
        return pkg, fixes
    return replace(pkg, metadata=metadata), fixes
