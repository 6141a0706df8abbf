"""Locate images in XHTML content documents, pull surrounding context, and
splice alt attributes back in without disturbing the rest of the file.

Parsing is strict XML first, lenient HTML second; alt writes operate on the
source text (not a re-serialized DOM) so untouched markup keeps its bytes.

Repair handles a document in a single pass (ContentDocument): it is decoded
and parsed once, every target's context comes from one tree walk, every alt
is spliced in one pass over the source text, and the result is checked once
by re-parsing it: same image count, every written alt in place. Contexts come
from the original document, since alt attributes never feed context text.
find_images, extract_context and set_alt_text are the one-image forms of the
same code.
"""

from __future__ import annotations

import codecs
import re
from dataclasses import dataclass
from html.parser import HTMLParser
from xml.etree import ElementTree as ET
from xml.sax.saxutils import escape

from altgen.container import ArchiveEntry
from altgen.errors import AltgenError
from altgen.package import MetaKind, PackageDocument, _localname, resolve_href

BLOCK_TAGS = frozenset({"p", "div", "li", "td", "blockquote", "figcaption"})
HEADING_TAGS = frozenset({"h1", "h2", "h3", "h4", "h5", "h6"})
_IMAGE_TAGS = ("img", "image")
_NO_TEXT_TAGS = frozenset({"script", "style"})

CONTEXT_WINDOW = 500


class DocumentError(AltgenError):
    pass


class UnparseableDocument(DocumentError):
    """Document could not be decoded or parsed even leniently."""


class StaleOccurrence(DocumentError):
    """Occurrence index no longer matches the document."""


class RewriteFailed(DocumentError):
    """Post-write verification found a disagreement; the write was aborted."""


@dataclass(frozen=True)
class ImageOccurrence:
    doc_path: str
    element_index: int
    src: str
    existing_alt: str | None
    decorative: bool


@dataclass(frozen=True)
class ContextBundle:
    figcaption: str | None = None
    preceding_text: str = ""
    following_text: str = ""
    nearest_heading: str | None = None
    doc_title: str | None = None


def normalize_ws(text: str) -> str:
    return " ".join(text.split())


def _attr_by_localname(elem: ET.Element, name: str) -> str | None:
    if name in elem.attrib:
        return elem.attrib[name]
    for key, value in elem.attrib.items():
        if _localname(key) == name:
            return value
    return None


_VOID_TAGS = frozenset(
    {
        "area", "base", "br", "col", "embed", "hr", "img", "image",
        "input", "link", "meta", "param", "source", "track", "wbr",
    }
)


class _LenientBuilder(HTMLParser):
    """Builds an ElementTree from tag soup; mismatched end tags are dropped,
    void elements never stay open."""

    def __init__(self) -> None:
        super().__init__(convert_charrefs=True)
        self.root = ET.Element("#document")
        self._stack = [self.root]

    @staticmethod
    def _attr_dict(attrs: list[tuple[str, str | None]]) -> dict[str, str]:
        out: dict[str, str] = {}
        for key, value in attrs:
            out.setdefault(key, value if value is not None else "")
        return out

    def handle_starttag(self, tag: str, attrs: list[tuple[str, str | None]]) -> None:
        elem = ET.SubElement(self._stack[-1], tag, self._attr_dict(attrs))
        if tag not in _VOID_TAGS:
            self._stack.append(elem)

    def handle_startendtag(self, tag: str, attrs: list[tuple[str, str | None]]) -> None:
        ET.SubElement(self._stack[-1], tag, self._attr_dict(attrs))

    def handle_endtag(self, tag: str) -> None:
        for i in range(len(self._stack) - 1, 0, -1):
            if self._stack[i].tag == tag:
                del self._stack[i:]
                return

    def handle_data(self, data: str) -> None:
        current = self._stack[-1]
        if len(current):
            last = current[-1]
            last.tail = (last.tail or "") + data
        else:
            current.text = (current.text or "") + data


_ENCODING_RE = re.compile(
    rb'<\?xml[^>]*encoding\s*=\s*["\']([A-Za-z0-9._-]+)["\']', re.DOTALL
)
_CHARSET_RE = re.compile(rb'charset\s*=\s*["\']?([A-Za-z0-9._-]+)', re.IGNORECASE)
_BOMS = (
    (codecs.BOM_UTF8, "utf-8"),
    (codecs.BOM_UTF16_LE, "utf-16-le"),
    (codecs.BOM_UTF16_BE, "utf-16-be"),
)


def _decode(data: bytes) -> tuple[str, str, bytes]:
    """(text, codec, bom): the BOM wins, then the XML declaration, then a
    meta charset, then UTF-8. `bom + text.encode(codec)` gives the input
    back. Raises UnparseableDocument."""
    for bom, codec in _BOMS:
        if data.startswith(bom):
            break
    else:
        head = data[:1024]
        match = _ENCODING_RE.search(head) or _CHARSET_RE.search(head)
        bom, codec = b"", match.group(1).decode("ascii", "replace") if match else "utf-8"
    try:
        return data[len(bom) :].decode(codec), codec, bom
    except (UnicodeDecodeError, LookupError) as exc:
        raise UnparseableDocument(str(exc)) from exc


def decode_document(data: bytes) -> str:
    """Decode content-document bytes using BOM, XML declaration, or meta
    charset, defaulting to UTF-8. Raises UnparseableDocument on failure."""
    return _decode(data)[0]


def parse_document(data: bytes, text: str | None = None) -> ET.Element:
    """Parse strict XML, falling back to lenient HTML. Returns a synthetic
    '#document' wrapper element. `text` is `data` already decoded, when the
    caller has it. Raises UnparseableDocument."""
    if text is None:
        text = decode_document(data)
    try:
        root = ET.fromstring(data)
        wrapper = ET.Element("#document")
        wrapper.append(root)
        return wrapper
    except ET.ParseError:
        pass
    builder = _LenientBuilder()
    try:
        builder.feed(text)
        builder.close()
    except Exception as exc:  # HTMLParser rarely raises, but never crash here
        raise UnparseableDocument(str(exc)) from exc
    return builder.root


def _iter_image_elements(root: ET.Element) -> list[ET.Element]:
    out = []
    for elem in root.iter():
        if isinstance(elem.tag, str) and _localname(elem.tag) in _IMAGE_TAGS:
            out.append(elem)
    return out


def _is_decorative(elem: ET.Element) -> bool:
    role = _attr_by_localname(elem, "role") or ""
    return any(token in ("presentation", "none") for token in role.split())


def _occurrences(root: ET.Element, doc_path: str) -> list[ImageOccurrence]:
    base_dir = doc_path.rsplit("/", 1)[0] if "/" in doc_path else ""
    occurrences = []
    for index, elem in enumerate(_iter_image_elements(root)):
        if _localname(elem.tag) == "img":
            src = elem.get("src", "")
        else:
            src = _attr_by_localname(elem, "href") or ""
        occurrences.append(
            ImageOccurrence(
                doc_path=doc_path,
                element_index=index,
                src=resolve_href(base_dir, src) if src else "",
                existing_alt=_attr_by_localname(elem, "alt"),
                decorative=_is_decorative(elem),
            )
        )
    return occurrences


def find_images(doc: ArchiveEntry, doc_path: str | None = None) -> list[ImageOccurrence]:
    """Every img and SVG image element in document order.

    src is resolved against the document's directory (absolute URLs kept
    verbatim). Raises UnparseableDocument.
    """
    return _occurrences(parse_document(doc.data), doc.path if doc_path is None else doc_path)


def _text_of(elem: ET.Element) -> str:
    return normalize_ws("".join(elem.itertext()))


def _tail_window(parts: list[str], limit: int = CONTEXT_WINDOW) -> str:
    text = normalize_ws(" ".join(parts))
    if len(text) <= limit:
        return text
    cut = text[-limit:]
    space = cut.find(" ")
    if 0 <= space < len(cut) - 1:
        cut = cut[space + 1 :]
    return cut


def _head_window(parts: list[str], limit: int = CONTEXT_WINDOW) -> str:
    text = normalize_ws(" ".join(parts))
    if len(text) <= limit:
        return text
    cut = text[:limit]
    space = cut.rfind(" ")
    if space > 0:
        cut = cut[:space]
    return cut


@dataclass
class _Placed:
    """Where one image sits in a _ContextIndex walk."""

    reached: bool  # no script, style or heading above it
    figure: ET.Element | None  # nearest enclosing figure
    captions: tuple[ET.Element, ...]  # enclosing figcaptions
    span: tuple[int, int, int, int] = (0, 0, 0, 0)


class _ContextIndex:
    """One document-order walk that yields every image's context.

    Context text is the words of block-level text outside headings, script
    and style; headings are recorded as they are met. For each image and
    figcaption the walk keeps the span of words and headings its subtree
    covers, as (first word, end word, first heading, end heading). One
    image's context is then the words before and after its span, minus its
    own figcaption's span, so no image costs another walk.
    """

    def __init__(self, root: ET.Element) -> None:
        self.words: list[str] = []
        self.headings: list[str] = []
        self.images: list[_Placed] = []
        self.caption_spans: dict[ET.Element, tuple[int, int, int, int]] = {}
        self.first_caption: dict[ET.Element, ET.Element] = {}
        words, headings = self.words, self.headings
        figures: list[ET.Element] = []
        captions: list[ET.Element] = []
        # frame: element, child iterator, block depth, collects text,
        # start marks, local name, placed image
        stack: list[tuple] = []

        def enter(elem: ET.Element, depth: int, reached: bool) -> None:
            local = _localname(elem.tag) if isinstance(elem.tag, str) else None
            marks = (len(words), len(headings))
            if reached and local in HEADING_TAGS:
                # headings are captured separately, not mixed into context text
                text = _text_of(elem)
                if text:
                    headings.append(text)
            collects = reached and local is not None and local not in _NO_TEXT_TAGS
            collects = collects and local not in HEADING_TAGS
            inside = depth + (1 if local in BLOCK_TAGS else 0)
            if collects and inside and elem.text:
                words.extend(elem.text.split())
            placed = None
            if local in _IMAGE_TAGS:
                placed = _Placed(reached, figures[-1] if figures else None, tuple(captions))
                self.images.append(placed)
            elif local == "figure":
                figures.append(elem)
            elif local == "figcaption":
                for figure in figures:
                    self.first_caption.setdefault(figure, elem)
                captions.append(elem)
            stack.append((elem, iter(elem), inside, collects, marks, local, placed))

        enter(root, 0, True)
        while stack:
            elem, children, inside, collects, marks, local, placed = stack[-1]
            child = next(children, None)
            if child is not None:
                enter(child, inside, collects)
                continue
            stack.pop()
            span = (marks[0], len(words), marks[1], len(headings))
            if placed is not None:
                placed.span = span
            elif local == "figure":
                figures.pop()
            elif local == "figcaption":
                captions.pop()
                self.caption_spans[elem] = span
            if stack and elem.tail:
                _, _, parent_inside, parent_collects, _, _, _ = stack[-1]
                if parent_collects and parent_inside:
                    words.extend(elem.tail.split())

    def context(self, index: int, title: str | None) -> ContextBundle:
        image = self.images[index]
        caption = self.first_caption.get(image.figure) if image.figure is not None else None
        cut = self.caption_spans[caption] if caption is not None else (0, 0, 0, 0)
        n_words = len(self.words)
        if image.reached and caption not in image.captions:
            before, after, heading_end = image.span[0], image.span[1], image.span[2]
        else:
            # the image is never reached, so all context text precedes it
            before, after, heading_end = n_words, n_words, len(self.headings)
        heading = heading_end - 1
        if cut[2] <= heading < cut[3]:
            heading = cut[2] - 1
        return ContextBundle(
            figcaption=(_text_of(caption) if caption is not None else None) or None,
            preceding_text=_tail_window([self._tail(_minus(0, before, cut))]),
            following_text=_head_window([self._head(_minus(after, n_words, cut))]),
            nearest_heading=self.headings[heading] if heading >= 0 else None,
            doc_title=title,
        )

    def _tail(self, ranges: list[tuple[int, int]], limit: int = CONTEXT_WINDOW) -> str:
        """The last words of `ranges`, just enough of them to join to more
        than `limit` characters, so that _tail_window cuts them as it would
        cut all of them."""
        picked: list[list[str]] = []
        size = -1
        for lo, hi in reversed(ranges):
            start = hi
            while start > lo and size <= limit:
                start -= 1
                size += len(self.words[start]) + 1
            picked.append(self.words[start:hi])
        return " ".join(word for chunk in reversed(picked) for word in chunk)

    def _head(self, ranges: list[tuple[int, int]], limit: int = CONTEXT_WINDOW) -> str:
        """The first words of `ranges`; see _tail."""
        picked: list[str] = []
        size = -1
        for lo, hi in ranges:
            end = lo
            while end < hi and size <= limit:
                size += len(self.words[end]) + 1
                end += 1
            picked.extend(self.words[lo:end])
        return " ".join(picked)


def _minus(lo: int, hi: int, cut: tuple[int, int, int, int]) -> list[tuple[int, int]]:
    """Word range [lo, hi) without the word range of `cut`."""
    if cut[0] >= hi or cut[1] <= lo:
        return [(lo, hi)]
    return [(lo, max(lo, cut[0])), (min(hi, cut[1]), hi)]


def _title(pkg: PackageDocument | None) -> str | None:
    title = pkg.first_value(MetaKind.DC_TITLE) if pkg is not None else None
    return normalize_ws(title) if title else None


def extract_context(
    doc: ArchiveEntry, occurrence: ImageOccurrence, pkg: PackageDocument
) -> ContextBundle:
    """Context around one image: enclosing figcaption, block text before and
    after (500-char windows), nearest preceding heading, package title.

    Raises StaleOccurrence when the index no longer exists, and
    UnparseableDocument.
    """
    index = _ContextIndex(parse_document(doc.data))
    if occurrence.element_index >= len(index.images):
        raise StaleOccurrence(
            f"{occurrence.doc_path}: image index {occurrence.element_index} out of range"
        )
    return index.context(occurrence.element_index, _title(pkg))


def document_text(doc: ArchiveEntry, limit: int | None = None) -> str:
    """Whole-document visible text, whitespace-normalized; script/style
    content excluded. Raises UnparseableDocument."""
    root = parse_document(doc.data)
    parts: list[str] = []
    total = 0

    def walk(elem: ET.Element) -> bool:
        nonlocal total
        if not isinstance(elem.tag, str) or _localname(elem.tag) in _NO_TEXT_TAGS:
            return True
        if elem.text:
            parts.append(elem.text)
            total += len(elem.text)
        for child in elem:
            if not walk(child):
                return False
            if child.tail:
                parts.append(child.tail)
                total += len(child.tail)
            if limit is not None and total > limit * 2:
                return False
        return True

    walk(root)
    text = normalize_ws(" ".join(parts))
    if limit is not None:
        text = text[:limit]
    return text


# --- alt attribute splicing over raw source text ---

_TAG_NAME_RE = re.compile(r"<([A-Za-z][^\s/>]*)")
_ATTR_RE = re.compile(
    r"""([^\s=/>"']+)(\s*=\s*("[^"]*"|'[^']*'|[^\s>]*))?"""
)


def _iter_start_tags(text: str):
    """Yields (name, start, end) for each start tag; end is the index of '>'.
    Comments, CDATA, doctypes, processing instructions, and end tags skipped."""
    i, n = 0, len(text)
    while i < n:
        lt = text.find("<", i)
        if lt < 0:
            return
        if text.startswith("<!--", lt):
            close = text.find("-->", lt + 4)
            i = n if close < 0 else close + 3
            continue
        if text.startswith("<![CDATA[", lt):
            close = text.find("]]>", lt + 9)
            i = n if close < 0 else close + 3
            continue
        if text.startswith("<!", lt) or text.startswith("</", lt):
            close = text.find(">", lt + 2)
            i = n if close < 0 else close + 1
            continue
        if text.startswith("<?", lt):
            close = text.find("?>", lt + 2)
            i = n if close < 0 else close + 2
            continue
        match = _TAG_NAME_RE.match(text, lt)
        if not match:
            i = lt + 1
            continue
        j = match.end()
        quote = None
        end = -1
        while j < n:
            ch = text[j]
            if quote:
                if ch == quote:
                    quote = None
            elif ch in ('"', "'"):
                quote = ch
            elif ch == ">":
                end = j
                break
            j += 1
        if end < 0:
            return
        yield match.group(1), lt, end
        i = end + 1


def _escape_attr_value(value: str) -> str:
    return escape(value, {'"': "&quot;"})


def _alt_tag_body(text: str, tag_start: int, tag_end: int, alt: str) -> tuple[int, int, str]:
    """(start, end, replacement) for the attribute text of one start tag,
    with the alt attribute rewritten or inserted."""
    body_start = _TAG_NAME_RE.match(text, tag_start).end()
    body_end = tag_end - 1 if text[tag_end - 1] == "/" else tag_end
    body = text[body_start:body_end]
    replacement = f'alt="{_escape_attr_value(alt)}"'
    for match in _ATTR_RE.finditer(body):
        if match.group(1).lower() == "alt":
            return body_start, body_end, body[: match.start()] + replacement + body[match.end() :]
    if body and body[-1].isspace():
        return body_start, body_end, body + replacement
    return body_start, body_end, body + " " + replacement


def _splice_alts(text: str, alts: dict[int, str], doc_path: str) -> str:
    """Set alt on the image start tags numbered by `alts`, in one pass over
    the source text; every byte outside those tags is kept. Raises
    StaleOccurrence for an index with no image start tag."""
    last = max(alts)
    spans = []
    for name, start, end in _iter_start_tags(text):
        if name.rsplit(":", 1)[-1].lower() in _IMAGE_TAGS:
            spans.append((start, end))
            if len(spans) > last:
                break
    out = []
    pos = 0
    for index in sorted(alts):
        if not 0 <= index < len(spans):
            raise StaleOccurrence(f"{doc_path}: image index {index} not found")
        body_start, body_end, body = _alt_tag_body(text, *spans[index], alts[index])
        out += (text[pos:body_start], body)
        pos = body_end
    out.append(text[pos:])
    return "".join(out)


def _check_alt(alt: str, occurrence: ImageOccurrence) -> None:
    if alt == "" and not occurrence.decorative:
        raise ValueError("empty alt is only allowed for decorative images")


def _verified(
    doc: ArchiveEntry, data: bytes, n_images: int, alts: dict[int, str], doc_path: str
) -> ArchiveEntry:
    """`doc` with `data`, once a re-parse shows `n_images` images and every
    alt in place. Raises RewriteFailed otherwise."""
    images = _iter_image_elements(parse_document(data))
    if len(images) != n_images or any(
        index >= len(images) or _attr_by_localname(images[index], "alt") != alt
        for index, alt in alts.items()
    ):
        raise RewriteFailed(f"{doc_path}: alt splice verification failed")
    return doc.with_data(data)


def set_alt_text(doc: ArchiveEntry, occurrence: ImageOccurrence, alt: str) -> ArchiveEntry:
    """Set the alt attribute on exactly the occurrence's element, splicing
    the source text so every other byte's semantics survive.

    Returns a new entry marked modified. Raises StaleOccurrence when the
    element index no longer exists, UnparseableDocument on undecodable input,
    RewriteFailed if post-write verification disagrees.
    """
    _check_alt(alt, occurrence)
    text, codec, bom = _decode(doc.data)
    alts = {occurrence.element_index: alt}
    data = bom + _splice_alts(text, alts, occurrence.doc_path).encode(codec, "xmlcharrefreplace")
    n_images = len(find_images(doc, occurrence.doc_path))
    return _verified(doc, data, n_images, alts, occurrence.doc_path)


class ContentDocument:
    """One content document prepared for repair: decoded and parsed once.

    `images` are its occurrences, as find_images gives them. `contexts`
    builds the context of any number of them in one tree walk, and
    `with_alts` splices any number of alts in one pass over the source text,
    then checks the result with one re-parse. Raises UnparseableDocument.
    """

    def __init__(self, doc: ArchiveEntry, doc_path: str | None = None) -> None:
        self.doc = doc
        self.doc_path = doc.path if doc_path is None else doc_path
        self._text, self._codec, self._bom = _decode(doc.data)
        self._root: ET.Element | None = parse_document(doc.data, self._text)
        self.images = _occurrences(self._root, self.doc_path)

    def contexts(self, indices: list[int], pkg: PackageDocument) -> dict[int, ContextBundle]:
        """Context of each image in `indices`, exactly as extract_context
        gives it. Releases the parsed tree, so call it once."""
        root, self._root = self._root, None
        if not indices:
            return {}
        index = _ContextIndex(root)
        title = _title(pkg)
        return {i: index.context(i, title) for i in indices}

    def with_alts(self, alts: dict[int, str]) -> ArchiveEntry:
        """A modified copy of the entry with each image index in `alts` given
        its alt. Raises StaleOccurrence and RewriteFailed as set_alt_text
        does; on failure nothing is returned."""
        for index, alt in alts.items():
            _check_alt(alt, self.images[index])
        self._root = None
        text = _splice_alts(self._text, alts, self.doc_path)
        data = self._bom + text.encode(self._codec, "xmlcharrefreplace")
        return _verified(self.doc, data, len(self.images), alts, self.doc_path)
