"""Parse OPF package documents, and splice metadata edits back into them.

The model holds what altgen reads: Dublin Core entries, accessibility
metas, the text of the other metadata children, the manifest and the spine.
It also keeps the OPF's decoded text, where container.parse_xml found
<metadata> and each of its children in it, and the namespace prefixes in
scope inside <metadata>. serialize_opf writes enrichment's edits into that
text through container.splice, so everything outside <metadata>, and every
child it does not edit, keeps its bytes.
"""

from __future__ import annotations

import posixpath
import re
from dataclasses import dataclass, field
from enum import Enum
from typing import NamedTuple
from urllib.parse import unquote, urlsplit
from xml.etree import ElementTree as ET

from altgen.container import NON_XML_CHAR_RE, XML_START_TAG_RE, ArchiveEntry, InvariantViolation
from altgen.container import NotWellFormed, _localname, char_offsets, parse_xml, splice
from altgen.errors import AltgenError

OPF_NS = "http://www.idpf.org/2007/opf"
DC_NS = "http://purl.org/dc/elements/1.1/"

ACCESSIBILITY_PROPERTIES = frozenset(
    {
        "accessMode",
        "accessModeSufficient",
        "accessibilityFeature",
        "accessibilityHazard",
        "accessibilitySummary",
    }
)

XHTML_MEDIA_TYPES = frozenset({"application/xhtml+xml", "text/html"})


class PackageError(AltgenError):
    pass


class MalformedXml(PackageError):
    pass


class DanglingSpineRef(PackageError):
    pass


class DuplicateManifestId(PackageError):
    pass


class DuplicateManifestHref(PackageError):
    pass


class MetaKind(Enum):
    DC_TITLE = "dc:title"
    DC_LANGUAGE = "dc:language"
    DC_CREATOR = "dc:creator"
    DC_DATE = "dc:date"
    DC_IDENTIFIER = "dc:identifier"
    SCHEMA_ACCESSIBILITY = "schema"
    OTHER = "other"


_DC_KINDS = {
    "title": MetaKind.DC_TITLE,
    "language": MetaKind.DC_LANGUAGE,
    "creator": MetaKind.DC_CREATOR,
    "date": MetaKind.DC_DATE,
    "identifier": MetaKind.DC_IDENTIFIER,
}
_DC_LOCAL_BY_KIND = {v: k for k, v in _DC_KINDS.items()}


class Span(NamedTuple):
    """Where parse_opf read a metadata entry, as container.ParsedXml's
    `starts` and `ends` give it, and the value it read there."""

    start: int
    end: int
    value: str


@dataclass
class MetaEntry:
    """One metadata child. `property` is the schema:* suffix for
    SCHEMA_ACCESSIBILITY entries. `span` is where parse_opf read the entry:
    serialize_opf appends an entry without one, and writes the value of an
    entry whose value is no longer the one read into its element."""

    kind: MetaKind
    value: str
    property: str | None = None
    span: Span | None = field(default=None, compare=False, repr=False)


@dataclass
class ManifestItem:
    """`href` is the container path the item's href attribute resolves to."""

    id: str
    href: str
    media_type: str


@dataclass
class PackageDocument:
    metadata: list[MetaEntry] = field(default_factory=list)
    manifest: list[ManifestItem] = field(default_factory=list)
    spine: list[str] = field(default_factory=list)
    # the (text, codec, bom) parse_xml decoded the OPF to, the offsets of
    # its <metadata> as a Span gives them, and the namespace URI each
    # prefix is bound to inside it (None for the default namespace)
    decoded: tuple[str, str, bytes] = field(default=("", "utf-8", b""), compare=False, repr=False)
    metadata_span: tuple[int, int] = field(default=(0, 0), compare=False, repr=False)
    namespaces: dict[str | None, str | None] = field(
        default_factory=dict, compare=False, repr=False
    )

    def values(self, kind: MetaKind) -> list[str]:
        return [m.value for m in self.metadata if m.kind is kind]

    def first_value(self, kind: MetaKind) -> str | None:
        for m in self.metadata:
            if m.kind is kind:
                return m.value
        return None

    def accessibility_values(self, property_name: str) -> list[str]:
        return [
            m.value
            for m in self.metadata
            if m.kind is MetaKind.SCHEMA_ACCESSIBILITY and m.property == property_name
        ]

    def spine_items(self) -> list[ManifestItem]:
        by_id: dict[str, ManifestItem] = {}
        for item in self.manifest:
            by_id.setdefault(item.id, item)  # the first item with an id wins
        return [by_id[idref] for idref in self.spine if idref in by_id]


_SCHEME_RE = re.compile(r"^[a-zA-Z][a-zA-Z0-9+.-]*:")


def has_scheme(ref: str) -> bool:
    """True for absolute URLs (http:, data:, mailto:...)."""
    return bool(_SCHEME_RE.match(ref))


def resolve_href(base_dir: str, href: str) -> str:
    """Resolve a (possibly percent-encoded) relative href to a container path.

    Absolute URLs come back verbatim; fragments and queries are dropped. An
    href urlsplit rejects (such as "//[x") also comes back verbatim, so it
    names no entry.
    """
    if has_scheme(href):
        return href
    try:
        parts = urlsplit(href)
    except ValueError:
        return href
    path = unquote(parts.path)
    if not path:
        return href
    joined = posixpath.join(base_dir, path) if base_dir else path
    return posixpath.normpath(joined)


def _split_tag(tag: str) -> tuple[str | None, str]:
    if tag.startswith("{"):
        uri, local = tag[1:].split("}", 1)
        return uri, local
    return None, tag


def escape(text: str, quote: bool = False) -> str:
    """`&`, `<` and `>` as entities, and `"` too with `quote`: the output of
    xml.sax.saxutils.escape, whose module would load the HTTP stack."""
    text = text.replace("&", "&amp;").replace(">", "&gt;").replace("<", "&lt;")
    return text.replace('"', "&quot;") if quote else text


def parse_opf(entry: ArchiveEntry) -> PackageDocument:
    """Parse an OPF package document from an archive entry; manifest hrefs
    resolve against the entry's directory.

    Raises MalformedXml (also for bytes decode_xml cannot decode),
    DuplicateManifestId, DuplicateManifestHref, DanglingSpineRef.
    """
    try:
        root, decoded, starts, ends, declared = parse_xml(entry.data)
    except NotWellFormed as exc:
        raise MalformedXml(f"{entry.path}: {exc}") from exc
    if _localname(root.tag) != "package":
        raise MalformedXml(f"{entry.path}: root element is not <package>")

    sections: dict[str, ET.Element] = {}
    for child in root:
        sections.setdefault(_localname(child.tag), child)
    for name in ("metadata", "manifest", "spine"):
        if name not in sections:
            raise MalformedXml(f"{entry.path}: no <{name}> element")
    metadata = sections["metadata"]

    doc = PackageDocument(
        decoded=decoded,
        metadata_span=(starts[metadata], ends[metadata]),
        namespaces={**declared.get(root, {}), **declared.get(metadata, {})},
    )
    _parse_metadata(metadata, starts, ends, doc)
    _parse_manifest(sections["manifest"], doc, entry.path)
    _parse_spine(sections["spine"], doc, entry.path)
    return doc


def _parse_metadata(metadata: ET.Element, starts: dict, ends: dict, doc: PackageDocument) -> None:
    for child in metadata:
        uri, local = _split_tag(child.tag)
        text = child.text or ""
        kind, prop = MetaKind.OTHER, None
        if uri == DC_NS:
            kind = _DC_KINDS.get(local, MetaKind.OTHER)
        elif local == "meta" and uri in (None, OPF_NS) and len(child) == 0:
            prop = child.get("property", "")
            if prop.startswith("schema:") and prop[7:] in ACCESSIBILITY_PROPERTIES:
                kind, prop = MetaKind.SCHEMA_ACCESSIBILITY, prop[7:]
            else:
                prop = None
        doc.metadata.append(MetaEntry(kind, text, prop, Span(starts[child], ends[child], text)))


def _parse_manifest(manifest_elem: ET.Element, doc: PackageDocument, opf_path: str) -> None:
    base_dir = posixpath.dirname(opf_path)
    seen_ids: set[str] = set()
    seen_hrefs: set[str] = set()
    for child in manifest_elem:
        if _localname(child.tag) != "item":
            continue
        item_id = child.get("id")
        href_attr = child.get("href")
        if item_id is None or href_attr is None:
            raise MalformedXml(f"{opf_path}: manifest item lacks id or href")
        if item_id in seen_ids:
            raise DuplicateManifestId(item_id)
        seen_ids.add(item_id)
        href = resolve_href(base_dir, href_attr)
        if href in seen_hrefs:
            raise DuplicateManifestHref(href)
        seen_hrefs.add(href)
        doc.manifest.append(ManifestItem(item_id, href, child.get("media-type", "")))


def _parse_spine(spine_elem: ET.Element, doc: PackageDocument, opf_path: str) -> None:
    ids = {item.id for item in doc.manifest}
    for child in spine_elem:
        if _localname(child.tag) != "itemref":
            continue
        idref = child.get("idref")
        if idref is None:
            raise MalformedXml(f"{opf_path}: itemref lacks idref")
        if idref not in ids:
            raise DanglingSpineRef(idref)
        doc.spine.append(idref)


def _escaped(value: str) -> str:
    bad = NON_XML_CHAR_RE.search(value)
    if bad is not None:
        raise InvariantViolation(f"character U+{ord(bad.group()):04X} cannot be written in XML")
    return escape(value)


def _new_element(entry: MetaEntry, namespaces: dict[str | None, str | None]) -> str:
    """An entry as a new child of <metadata>: a DC element, or a <meta> in
    the OPF namespace, under a prefix bound to its namespace there, or
    declaring one on itself."""
    if entry.kind is MetaKind.SCHEMA_ACCESSIBILITY:
        uri, local, prefix = OPF_NS, "meta", None
        attrs = f' property="schema:{escape(entry.property or "", quote=True)}"'
    elif entry.kind in _DC_LOCAL_BY_KIND:
        uri, local, prefix, attrs = DC_NS, _DC_LOCAL_BY_KIND[entry.kind], "dc", ""
    else:
        raise InvariantViolation(f"a new {entry.kind.value} entry cannot be written")
    bound = [p for p, u in namespaces.items() if u == uri]
    if bound:
        prefix = bound[0]
    else:
        attrs = f' xmlns{":" + prefix if prefix else ""}="{uri}"{attrs}'
    name = f"{prefix}:{local}" if prefix else local
    return f"<{name}{attrs}>{_escaped(entry.value)}</{name}>"


def serialize_opf(doc: PackageDocument) -> bytes:
    """The OPF bytes parse_opf read, with the package's metadata edits
    spliced in, in the OPF's own encoding.

    An entry parse_opf did not read goes at the end of <metadata> (as
    _new_element writes it), which is opened first when it is an empty
    element. An entry whose value is no longer the one read gets the new
    value as the whole content of its element. Nothing else changes. Raises
    InvariantViolation for a value holding a character XML does not allow,
    and PackageError for an element to edit that came from an entity's
    replacement text, which has no tags of its own to write into.
    """
    text = doc.decoded[0]

    def element(span: tuple[int, ...], name: str) -> tuple[int, int, str]:
        # (first, last, end tag): the element's content is text[first:last];
        # for an empty element that is its "/>", and the end tag is the one
        # it needs once opened
        start, end = char_offsets(text, span[:2])
        tag = XML_START_TAG_RE.match(text, start)
        if tag is None:
            raise PackageError(f"the OPF's {name} has no start tag of its own")
        if tag.end() == end and text.endswith("/>", start, end):
            return end - 2, end, f"</{text[start + 1 : end - 2].split()[0]}>"
        return tag.end(), end, ""

    edits: list[tuple[int, int, str]] = []
    for entry in doc.metadata:
        if entry.span is not None and entry.value != entry.span.value:
            first, last, end_tag = element(entry.span, f"{entry.kind.value} {entry.span.value!r}")
            value = _escaped(entry.value)
            edits.append((first, last, f">{value}{end_tag}" if end_tag else value))
    added = [_new_element(e, doc.namespaces) for e in doc.metadata if e.span is None]
    if added:
        first, last, end_tag = element(doc.metadata_span, "<metadata>")
        if end_tag:
            edits.append((first, last, ">" + "".join(added) + end_tag))
        else:
            content = text[first:last]
            indent = content[len(content.rstrip(" \t\r\n")) :]  # before </metadata>
            sep = indent + "  " if "\n" in indent else indent
            at = last - len(indent)
            edits.append((at, at, "".join(sep + e for e in added)))
    return splice(doc.decoded, edits)
