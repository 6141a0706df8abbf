"""Parse and serialize OPF package documents.

The model keeps everything a rewrite must not lose: Dublin Core entries,
accessibility metas, unknown metadata verbatim, manifest/spine attributes,
and EPUB 2 guide/tour elements as opaque XML. parse_opf(serialize_opf(doc))
reproduces an equal model.
"""

from __future__ import annotations

import posixpath
import re
from dataclasses import dataclass, field
from enum import Enum
from urllib.parse import unquote, urlsplit
from xml.etree import ElementTree as ET

from altgen.container import ArchiveEntry, InvariantViolation, _localname
from altgen.errors import AltgenError

OPF_NS = "http://www.idpf.org/2007/opf"
DC_NS = "http://purl.org/dc/elements/1.1/"
XML_NS = "http://www.w3.org/XML/1998/namespace"
XLINK_NS = "http://www.w3.org/1999/xlink"

_PREFIX_BY_URI = {OPF_NS: "opf", DC_NS: "dc", XML_NS: "xml", XLINK_NS: "xlink"}
_URI_BY_PREFIX = {prefix: uri for uri, prefix in _PREFIX_BY_URI.items()}

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

# synthetic element name for metadata children preserved as opaque XML
RAW_ENTRY = "#raw"


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


@dataclass
class MetaEntry:
    """One metadata child. `property` is the schema:* suffix for
    SCHEMA_ACCESSIBILITY entries; `name` is the element name for OTHER
    entries (RAW_ENTRY means `value` holds verbatim XML)."""

    kind: MetaKind
    value: str
    property: str | None = None
    name: str | None = None
    attrs: dict[str, str] = field(default_factory=dict)


@dataclass
class ManifestItem:
    """`href` is the resolved container path used for entry lookup;
    `href_attr` is the verbatim attribute value re-emitted on serialization."""

    id: str
    href: str
    media_type: str
    href_attr: str = ""
    properties: frozenset[str] = frozenset()
    extra: dict[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.href_attr:
            self.href_attr = self.href


@dataclass
class PackageDocument:
    metadata: list[MetaEntry] = field(default_factory=list)
    manifest: list[ManifestItem] = field(default_factory=list)
    spine: list[str] = field(default_factory=list)
    version: str = "3.0"
    unique_identifier: str | None = None
    package_attrs: dict[str, str] = field(default_factory=dict)
    metadata_attrs: dict[str, str] = field(default_factory=dict)
    manifest_attrs: dict[str, str] = field(default_factory=dict)
    spine_attrs: dict[str, str] = field(default_factory=dict)
    # per-itemref attributes other than idref, parallel to `spine`
    spine_extra: list[dict[str, str]] = field(default_factory=list)
    # guide/tours/collection elements preserved verbatim, in document order
    tail_xml: list[str] = field(default_factory=list)

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

    def item_by_id(self, item_id: str) -> ManifestItem | None:
        for item in self.manifest:
            if item.id == item_id:
                return item
        return None

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


def _attr_name(key: str) -> str:
    """Normalize an ElementTree attribute key to prefix:local form."""
    uri, local = _split_tag(key)
    if uri is None:
        return local
    prefix = _PREFIX_BY_URI.get(uri)
    if prefix:
        return f"{prefix}:{local}"
    return key  # raw {uri}local; serializer declares a namespace for it


def _attrs_of(elem: ET.Element, skip: tuple[str, ...] = ()) -> dict[str, str]:
    out: dict[str, str] = {}
    for key, value in elem.attrib.items():
        name = _attr_name(key)
        if name in skip:
            continue
        out[name] = value
    return out


def escape(text: str, quote: bool = False) -> str:
    """`&`, `<` and `>` as entities, and `"` too with `quote`: the output of
    xml.sax.saxutils.escape, whose module would load the HTTP stack."""
    text = text.replace("&", "&amp;").replace(">", "&gt;").replace("<", "&lt;")
    return text.replace('"', "&quot;") if quote else text


def _esc_attr(value: str) -> str:
    return escape(value, quote=True)


def serialize_fragment(elem: ET.Element) -> str:
    """Serialize one element subtree as standalone XML (namespaces declared
    at the fragment root). Output is stable under reparse+reserialize."""
    elem_uris: set[str] = set()
    attr_uris: set[str] = set()

    def collect(e: ET.Element) -> None:
        uri, _ = _split_tag(e.tag)
        if uri:
            elem_uris.add(uri)
        for key in e.attrib:
            u, _ = _split_tag(key)
            if u:
                attr_uris.add(u)
        for child in e:
            collect(child)

    collect(elem)
    root_uri, _ = _split_tag(elem.tag)
    # legacy consumers string-match <guide>/<reference>, so the root's own
    # namespace becomes the default declaration instead of a prefix
    default_uri = root_uri if root_uri == OPF_NS else None
    prefixes: dict[str, str] = {}
    decls: list[str] = []
    if default_uri:
        decls.append(f' xmlns="{default_uri}"')
    auto = 0
    for uri in sorted(elem_uris | attr_uris):
        if uri == XML_NS:
            prefixes[uri] = "xml"
            continue
        if uri == default_uri and uri not in attr_uris:
            continue
        prefix = _PREFIX_BY_URI.get(uri)
        if prefix is None:
            prefix = f"ns{auto}"
            auto += 1
        prefixes[uri] = prefix
        decls.append(f' xmlns:{prefix}="{uri}"')

    def qname(tag: str, *, is_attr: bool = False) -> str:
        uri, local = _split_tag(tag)
        if uri is None:
            return local
        if uri == default_uri and not is_attr:
            return local
        return f"{prefixes[uri]}:{local}"

    def emit(e: ET.Element, top: bool) -> str:
        parts = ["<", qname(e.tag)]
        if top:
            parts.extend(decls)
        for key, value in e.attrib.items():
            parts.append(f' {qname(key, is_attr=True)}="{_esc_attr(value)}"')
        children = list(e)
        text = e.text or ""
        if not children and not text:
            parts.append("/>")
            return "".join(parts)
        parts.append(">")
        parts.append(escape(text))
        for child in children:
            parts.append(emit(child, False))
            parts.append(escape(child.tail or ""))
        parts.append(f"</{qname(e.tag)}>")
        return "".join(parts)

    return emit(elem, True)


def parse_opf(entry: ArchiveEntry) -> PackageDocument:
    """Parse an OPF package document from an archive entry; manifest hrefs
    resolve against the entry's directory.

    Raises MalformedXml, DuplicateManifestId, DuplicateManifestHref,
    DanglingSpineRef.
    """
    try:
        root = ET.fromstring(entry.data)
    except ET.ParseError as exc:
        raise MalformedXml(f"{entry.path}: {exc}") from exc
    if _localname(root.tag) != "package":
        raise MalformedXml(f"{entry.path}: root element is not <package>")

    doc = PackageDocument(
        version=root.get("version", ""),
        unique_identifier=root.get("unique-identifier"),
        package_attrs=_attrs_of(root, skip=("version", "unique-identifier")),
    )

    metadata_elem = manifest_elem = spine_elem = None
    for child in root:
        if not isinstance(child.tag, str):
            continue
        local = _localname(child.tag)
        if local == "metadata" and metadata_elem is None:
            metadata_elem = child
        elif local == "manifest" and manifest_elem is None:
            manifest_elem = child
        elif local == "spine" and spine_elem is None:
            spine_elem = child
        else:
            doc.tail_xml.append(serialize_fragment(child))
    if metadata_elem is None:
        raise MalformedXml(f"{entry.path}: no <metadata> element")
    if manifest_elem is None:
        raise MalformedXml(f"{entry.path}: no <manifest> element")
    if spine_elem is None:
        raise MalformedXml(f"{entry.path}: no <spine> element")

    doc.metadata_attrs = _attrs_of(metadata_elem)
    _parse_metadata(metadata_elem, doc)
    doc.manifest_attrs = _attrs_of(manifest_elem)
    _parse_manifest(manifest_elem, doc, entry.path)
    doc.spine_attrs = _attrs_of(spine_elem)
    _parse_spine(spine_elem, doc, entry.path)
    return doc


def _parse_metadata(metadata_elem: ET.Element, doc: PackageDocument) -> None:
    for child in metadata_elem:
        if not isinstance(child.tag, str):
            continue
        uri, local = _split_tag(child.tag)
        text = child.text or ""
        if uri == DC_NS:
            kind = _DC_KINDS.get(local)
            if kind:
                doc.metadata.append(MetaEntry(kind, text, attrs=_attrs_of(child)))
            else:
                doc.metadata.append(
                    MetaEntry(MetaKind.OTHER, text, name=f"dc:{local}", attrs=_attrs_of(child))
                )
        elif local == "meta" and uri in (None, OPF_NS) and len(child) == 0:
            prop = child.get("property", "")
            if prop.startswith("schema:") and prop[7:] in ACCESSIBILITY_PROPERTIES:
                doc.metadata.append(
                    MetaEntry(
                        MetaKind.SCHEMA_ACCESSIBILITY,
                        text,
                        property=prop[7:],
                        attrs=_attrs_of(child, skip=("property",)),
                    )
                )
            else:
                doc.metadata.append(
                    MetaEntry(MetaKind.OTHER, text, name="meta", attrs=_attrs_of(child))
                )
        elif uri in (None, OPF_NS) and len(child) == 0:
            doc.metadata.append(
                MetaEntry(MetaKind.OTHER, text, name=local, attrs=_attrs_of(child))
            )
        else:
            # foreign namespace or nested children: keep the whole subtree
            doc.metadata.append(
                MetaEntry(MetaKind.OTHER, serialize_fragment(child), name=RAW_ENTRY)
            )


def _parse_manifest(manifest_elem: ET.Element, doc: PackageDocument, opf_path: str) -> None:
    base_dir = posixpath.dirname(opf_path)
    seen_ids: set[str] = set()
    seen_hrefs: set[str] = set()
    for child in manifest_elem:
        if not isinstance(child.tag, str) or _localname(child.tag) != "item":
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
        properties = frozenset(child.get("properties", "").split())
        extra = _attrs_of(child, skip=("id", "href", "media-type", "properties"))
        doc.manifest.append(
            ManifestItem(
                id=item_id,
                href=href,
                media_type=child.get("media-type", ""),
                href_attr=href_attr,
                properties=properties,
                extra=extra,
            )
        )


def _parse_spine(spine_elem: ET.Element, doc: PackageDocument, opf_path: str) -> None:
    ids = {item.id for item in doc.manifest}
    for child in spine_elem:
        if not isinstance(child.tag, str) or _localname(child.tag) != "itemref":
            continue
        idref = child.get("idref")
        if idref is None:
            raise MalformedXml(f"{opf_path}: itemref lacks idref")
        if idref not in ids:
            raise DanglingSpineRef(idref)
        doc.spine.append(idref)
        doc.spine_extra.append(_attrs_of(child, skip=("idref",)))


def _attr_string(attrs: dict[str, str]) -> str:
    parts: list[str] = []
    auto: dict[str, str] = {}
    for name, value in attrs.items():
        if name.startswith("{"):
            # attribute in an unknown namespace: declare a prefix inline
            uri, local = _split_tag(name)
            prefix = auto.get(uri)
            if prefix is None:
                prefix = f"ns{len(auto)}"
                auto[uri] = prefix
                parts.append(f' xmlns:{prefix}="{_esc_attr(uri)}"')
            name = f"{prefix}:{local}"
        parts.append(f' {name}="{_esc_attr(value)}"')
    return "".join(parts)


def _used_prefixes(doc: PackageDocument) -> set[str]:
    found: set[str] = set()
    dicts = [doc.package_attrs, doc.metadata_attrs, doc.manifest_attrs, doc.spine_attrs]
    dicts.extend(m.attrs for m in doc.metadata)
    dicts.extend(i.extra for i in doc.manifest)
    dicts.extend(doc.spine_extra)
    for d in dicts:
        for name in d:
            if ":" in name and not name.startswith("{"):
                found.add(name.split(":", 1)[0])
    return found


def _check_serialize_invariants(doc: PackageDocument) -> None:
    ids = [item.id for item in doc.manifest]
    if len(ids) != len(set(ids)):
        raise InvariantViolation("duplicate manifest ids")
    hrefs = [item.href for item in doc.manifest]
    if len(hrefs) != len(set(hrefs)):
        raise InvariantViolation("duplicate manifest hrefs")
    idset = set(ids)
    for idref in doc.spine:
        if idref not in idset:
            raise InvariantViolation(f"spine idref {idref!r} has no manifest item")
    if len(doc.spine_extra) not in (0, len(doc.spine)):
        raise InvariantViolation("spine_extra length does not match spine")


def _element(tag: str, attrs: dict[str, str], value: str) -> str:
    if value:
        return f"<{tag}{_attr_string(attrs)}>{escape(value)}</{tag}>"
    return f"<{tag}{_attr_string(attrs)}/>"


# a character XML 1.0 does not allow, even escaped
_NON_XML_CHAR_RE = re.compile("[\x00-\x08\x0b\x0c\x0e-\x1f\ud800-\udfff\ufffe\uffff]")


def serialize_opf(doc: PackageDocument) -> bytes:
    """Serialize a PackageDocument to OPF bytes.

    Dublin Core elements use the dc: prefix; OPF elements use the default
    namespace. Raises InvariantViolation for broken manifest/spine structure
    and for a value holding a character XML does not allow, so what it
    writes parses back.
    """
    _check_serialize_invariants(doc)
    ns_decls = [f'xmlns="{OPF_NS}"', f'xmlns:dc="{DC_NS}"']
    for prefix in sorted(_used_prefixes(doc) - {"dc", "xml"}):
        uri = _URI_BY_PREFIX.get(prefix)
        if uri:
            ns_decls.append(f'xmlns:{prefix}="{uri}"')
    package_attrs = dict(doc.package_attrs)
    head = "<package " + " ".join(ns_decls)
    if doc.version:
        head += f' version="{_esc_attr(doc.version)}"'
    if doc.unique_identifier is not None:
        head += f' unique-identifier="{_esc_attr(doc.unique_identifier)}"'
    head += _attr_string(package_attrs) + ">"

    lines = ['<?xml version="1.0" encoding="utf-8"?>', head]
    lines.append(f"  <metadata{_attr_string(doc.metadata_attrs)}>")
    for entry in doc.metadata:
        lines.append(f"    {_serialize_meta_entry(entry)}")
    lines.append("  </metadata>")
    lines.append(f"  <manifest{_attr_string(doc.manifest_attrs)}>")
    for item in doc.manifest:
        attrs = {"id": item.id, "href": item.href_attr, "media-type": item.media_type}
        if item.properties:
            attrs["properties"] = " ".join(sorted(item.properties))
        attrs.update(item.extra)
        lines.append(f"    <item{_attr_string(attrs)}/>")
    lines.append("  </manifest>")
    lines.append(f"  <spine{_attr_string(doc.spine_attrs)}>")
    for i, idref in enumerate(doc.spine):
        attrs = {"idref": idref}
        if doc.spine_extra:
            attrs.update(doc.spine_extra[i])
        lines.append(f"    <itemref{_attr_string(attrs)}/>")
    lines.append("  </spine>")
    for fragment in doc.tail_xml:
        lines.append(f"  {fragment}")
    lines.append("</package>")
    text = "\n".join(lines) + "\n"
    bad = _NON_XML_CHAR_RE.search(text)
    if bad is not None:
        raise InvariantViolation(f"character U+{ord(bad.group()):04X} cannot be written in XML")
    return text.encode("utf-8")


def _serialize_meta_entry(entry: MetaEntry) -> str:
    if entry.kind is MetaKind.SCHEMA_ACCESSIBILITY:
        attrs = {"property": f"schema:{entry.property}"}
        attrs.update(entry.attrs)
        return _element("meta", attrs, entry.value)
    if entry.kind is MetaKind.OTHER:
        if entry.name == RAW_ENTRY:
            return entry.value
        return _element(entry.name or "meta", entry.attrs, entry.value)
    local = _DC_LOCAL_BY_KIND[entry.kind]
    return _element(f"dc:{local}", entry.attrs, entry.value)
