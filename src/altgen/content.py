"""Locate images in XHTML content documents, pull surrounding context, and
splice alt attributes back in without disturbing the rest of the file.

One parse locates every image. Strict XML goes through container.parse_xml,
which records where each element's start tag is in the text
container.decode_xml gives for the bytes; tag soup goes through
html.parser, which gives each image's start tag as it reads it. Either way
parse_document returns a ParsedDocument, a plain value: the tree (tag
soup's under a synthetic '#document' root), its images in document order,
each image's start tag as a (first, last) span in the decoded text, that
text, and whether the parse was strict. There is no second scan of the
source: alt writes go into that text (not a re-serialized DOM) at those
spans, through container.splice, so untouched markup keeps its bytes.

Repair handles a document in a single pass (ContentDocument): it is decoded
and parsed once, every target's context comes from one tree walk, every alt
is spliced in one pass over the source text, and the result is checked once
by re-parsing it: same image count, every written alt in place. That
re-parse also gives the written document's images and whether it is
well-formed XML, so nothing parses it again. Contexts come from the
original document, since alt attributes never feed context text.
find_images, extract_context, set_alt_text and document_text are the
one-image or one-use forms of ContentDocument and VisibleText.
"""

from __future__ import annotations

import bisect
import functools
import re
from dataclasses import dataclass
from html.parser import HTMLParser
from typing import NamedTuple
from xml.etree import ElementTree as ET

from altgen.container import XML_START_TAG_RE, ArchiveEntry, NotWellFormed, _localname
from altgen.container import char_offsets, decode_xml, is_well_formed, parse_xml, splice
from altgen.errors import AltgenError
from altgen.package import MetaKind, PackageDocument, escape, resolve_href

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


class ParsedDocument(NamedTuple):
    """`images` are the image elements under `root` in document order, and
    `tags` each one's start tag as its (first, last) character offsets in
    the decoded text, or None when an entity put it there. `decoded` is the
    (text, codec, bom) decode_xml gave, and `strict` says the parse was not
    tag soup's."""

    root: ET.Element
    images: list[ET.Element]
    tags: list[tuple[int, int] | None]
    decoded: tuple[str, str, bytes]
    strict: bool


@functools.lru_cache(maxsize=1024)
def _is_image(tag: str) -> bool:
    return _localname(tag) in _IMAGE_TAGS


class _LenientBuilder(HTMLParser):
    """Builds an ElementTree from tag soup, under a synthetic '#document'
    root; mismatched end tags are dropped, void elements never stay open.
    `images` and `tags` are as ParsedDocument has them."""

    def __init__(self, text: str) -> None:
        super().__init__(convert_charrefs=True)
        self.root = ET.Element("#document")
        self.images: list[ET.Element] = []
        self.tags: list[tuple[int, int]] = []
        self._stack: list[ET.Element] = [self.root]
        # offset in the text, which will be fed, of each line getpos() counts
        self._lines = [0, *(match.end() for match in re.finditer("\n", text))]

    @staticmethod
    def _attr_dict(attrs: list[tuple[str, str | None]]) -> dict[str, str]:
        out: dict[str, str] = {}
        for key, value in attrs:
            out.setdefault(key, value if value is not None else "")
        return out

    def _element(self, tag: str, attrs: list[tuple[str, str | None]]) -> ET.Element:
        elem = ET.SubElement(self._stack[-1], tag, self._attr_dict(attrs))
        if _is_image(tag):
            line, column = self.getpos()
            start = self._lines[line - 1] + column
            self.images.append(elem)
            self.tags.append((start, start + len(self.get_starttag_text()) - 1))
        return elem

    def handle_starttag(self, tag: str, attrs: list[tuple[str, str | None]]) -> None:
        elem = self._element(tag, attrs)
        if tag not in _VOID_TAGS:
            self._stack.append(elem)

    def handle_startendtag(self, tag: str, attrs: list[tuple[str, str | None]]) -> None:
        self._element(tag, attrs)

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


def parse_document(data: bytes) -> ParsedDocument:
    """Parse strict XML, falling back to lenient HTML, whose text a meta
    charset may decode. Raises UnparseableDocument."""
    try:
        parsed = parse_xml(data)
    except NotWellFormed:
        try:
            decoded = decode_xml(data, meta=True)
            builder = _LenientBuilder(decoded[0])
            builder.feed(decoded[0])
            builder.close()
        except Exception as exc:  # Undecodable; HTMLParser rarely raises, but never crash
            raise UnparseableDocument(str(exc)) from exc
        return ParsedDocument(builder.root, builder.images, builder.tags, decoded, False)
    images = [elem for elem in parsed.starts if _is_image(elem.tag)]
    text, tags = parsed.decoded[0], []
    for first in char_offsets(text, [parsed.starts[elem] for elem in images]):
        match = XML_START_TAG_RE.match(text, first)  # None at an entity reference
        tags.append(None if match is None else (first, match.end() - 1))
    return ParsedDocument(parsed.root, images, tags, parsed.decoded, True)


def _occurrences(images: list[ET.Element], doc_path: str) -> list[ImageOccurrence]:
    base_dir = doc_path.rsplit("/", 1)[0] if "/" in doc_path else ""
    occurrences = []
    for index, elem in enumerate(images):
        if _localname(elem.tag) == "img":
            src = elem.get("src", "")
        else:
            src = _attr_by_localname(elem, "href") or ""
        role = _attr_by_localname(elem, "role") or ""
        occurrences.append(
            ImageOccurrence(
                doc_path=doc_path,
                element_index=index,
                src=resolve_href(base_dir, src) if src else "",
                existing_alt=_attr_by_localname(elem, "alt"),
                decorative=any(token in ("presentation", "none") for token in role.split()),
            )
        )
    return occurrences


def find_images(doc: ArchiveEntry, doc_path: str | None = None) -> list[ImageOccurrence]:
    """Every img and SVG image element in document order.

    src is resolved against the document's directory (absolute URLs kept
    verbatim). Raises UnparseableDocument.
    """
    return ContentDocument(doc, doc_path).images


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
    index = occurrence.element_index
    return ContentDocument(doc, occurrence.doc_path).contexts([index], pkg)[index]


class VisibleText:
    """Whole-document visible text, whitespace-normalized; script/style
    content excluded. `text(limit)` gives what document_text gives for any
    limit up to the one the walk was made with (None: no limit).

    The walk keeps its own stack, so nesting depth is not bounded by the
    interpreter's recursion limit. With `limit`, it stops once the raw text
    passes twice the limit, checked after each child's tail. Each check is
    recorded, so a smaller limit cuts where its own walk would have stopped.
    """

    def __init__(self, root: ET.Element, limit: int | None = None) -> None:
        self._limit = limit
        self._parts: list[str] = []
        # raw characters taken, and parts, at each check
        self._totals: list[int] = []
        self._counts: list[int] = []
        parts, totals, counts = self._parts, self._totals, self._counts
        total = 0

        def opened(elem: ET.Element) -> bool:
            """Takes the element's own text, unless its content is not shown."""
            nonlocal total
            if not isinstance(elem.tag, str) or _localname(elem.tag) in _NO_TEXT_TAGS:
                return False
            if elem.text:
                parts.append(elem.text)
                total += len(elem.text)
            return True

        def closed(elem: ET.Element) -> bool:
            """Takes the element's tail; False once past the cut-off."""
            nonlocal total
            if elem.tail:
                parts.append(elem.tail)
                total += len(elem.tail)
            totals.append(total)
            counts.append(len(parts))
            return limit is None or total <= limit * 2

        stack = [(root, iter(root))] if opened(root) else []
        while stack:
            child = next(stack[-1][1], None)
            if child is None:
                elem = stack.pop()[0]
                if stack and not closed(elem):
                    break
            elif opened(child):
                stack.append((child, iter(child)))
            elif not closed(child):
                break

    def text(self, limit: int | None = None) -> str:
        if self._limit is not None and (limit is None or limit > self._limit):
            raise ValueError(f"text was walked only up to a limit of {self._limit}")
        n = len(self._parts)
        if limit is not None:
            i = bisect.bisect_right(self._totals, limit * 2)
            if i < len(self._totals):
                n = self._counts[i]
        text = normalize_ws(" ".join(self._parts[:n]))
        return text if limit is None else text[:limit]


def document_text(doc: ArchiveEntry, limit: int | None = None) -> str:
    """Whole-document visible text, whitespace-normalized; script/style
    content excluded; see VisibleText. Raises UnparseableDocument."""
    return VisibleText(parse_document(doc.data).root, limit).text(limit)


# --- alt attribute splicing over raw source text ---

_TAG_NAME_RE = re.compile(r"<([A-Za-z][^\s/>]*)")
_ATTR_RE = re.compile(r"""([^\s=/>"']+)(\s*=\s*("[^"]*"|'[^']*'|[^\s>]*))?""")


def _alt_tag_body(text: str, tag_start: int, tag_end: int, alt: str) -> tuple[int, int, str]:
    """(start, end, replacement) for the attribute text of one start tag,
    with the alt attribute rewritten or inserted."""
    body_start = _TAG_NAME_RE.match(text, tag_start).end()
    body_end = tag_end - 1 if text[tag_end - 1] == "/" else tag_end
    body = text[body_start:body_end]
    replacement = 'alt="%s"' % escape(alt, quote=True)
    for match in _ATTR_RE.finditer(body):
        if match.group(1).lower() == "alt":
            return body_start, body_end, body[: match.start()] + replacement + body[match.end() :]
    if body and body[-1].isspace():
        return body_start, body_end, body + replacement
    return body_start, body_end, body + " " + replacement


def set_alt_text(doc: ArchiveEntry, occurrence: ImageOccurrence, alt: str) -> ArchiveEntry:
    """Set the alt attribute on exactly the occurrence's element, splicing
    the source text so every other byte's semantics survive. Returns a new
    entry marked modified; raises UnparseableDocument on undecodable input,
    and otherwise as ContentDocument.splice does."""
    document = ContentDocument(doc, occurrence.doc_path)
    return document.splice({occurrence.element_index: alt})[0]


class ContentDocument:
    """One content document prepared for repair: decoded and parsed once.

    `images` are its occurrences, as find_images gives them. `visible_text`
    and `contexts` read the parsed tree, which `contexts` then releases:
    `contexts` builds the context of any number of images in one tree walk.
    `splice` writes any number of alts in one pass over the source text, at
    the start tags the parse located, then checks the result with one
    re-parse, whose images it returns. Raises UnparseableDocument.
    """

    def __init__(self, doc: ArchiveEntry, doc_path: str | None = None) -> None:
        self.doc = doc
        self.doc_path = doc.path if doc_path is None else doc_path
        parsed = parse_document(doc.data)
        self._root: ET.Element | None = parsed.root
        self._tags, self._decoded, self._strict = parsed.tags, parsed.decoded, parsed.strict
        self.images = _occurrences(parsed.images, self.doc_path)

    def _check_index(self, index: int) -> None:
        if not 0 <= index < len(self.images):
            raise StaleOccurrence(f"{self.doc_path}: image index {index} not found")

    def visible_text(self, limit: int | None = None) -> VisibleText:
        """The document's visible text, as document_text gives it for any
        limit up to `limit`. Call it before `contexts`."""
        return VisibleText(self._root, limit)

    def contexts(self, indices: list[int], pkg: PackageDocument) -> dict[int, ContextBundle]:
        """Context of each image in `indices`, as extract_context gives it.
        Releases the parsed tree, so call it once. Raises StaleOccurrence."""
        root, self._root = self._root, None
        if not indices:
            return {}
        for i in indices:
            self._check_index(i)
        index = _ContextIndex(root)
        title = _title(pkg)
        return {i: index.context(i, title) for i in indices}

    def _spliced(self, alts: dict[int, str]) -> bytes:
        """The source with each image index in `alts` given its alt, written
        into the image's start tag. Raises DocumentError for an image that
        has no start tag of its own in the source."""
        edits = []
        for i in sorted(alts):
            if self._tags[i] is None:
                raise DocumentError(f"{self.doc_path}: image index {i} has no start tag")
            edits.append(_alt_tag_body(self._decoded[0], *self._tags[i], alts[i]))
        return splice(self._decoded, edits)

    def can_be_well_formed(self, indices: list[int]) -> bool:
        """False when no alts at the image `indices` can make the spliced
        document well-formed XML: its parse was lenient, and a strict parse
        still fails with a placeholder alt spliced at each. An alt's value
        changes the verdict only by holding characters XML does not allow."""
        return self._strict or is_well_formed(
            self._spliced(dict.fromkeys(indices, "alt"))
        )

    def splice(self, alts: dict[int, str]) -> tuple[ArchiveEntry, list[ImageOccurrence]]:
        """A modified copy of the entry with each image index in `alts` given
        its alt, and the images of its re-parse: what an audit of the copy
        finds. The copy carries the re-parse's verdict on whether it is
        well-formed XML. Raises StaleOccurrence for an index with no image,
        DocumentError for an image with no start tag of its own, and
        RewriteFailed when the re-parse disagrees; on failure nothing is
        returned."""
        for index, alt in alts.items():
            self._check_index(index)
            if alt == "" and not self.images[index].decorative:
                raise ValueError("empty alt is only allowed for decorative images")
        self._root = None
        data = self._spliced(alts)
        parsed = parse_document(data)
        images = _occurrences(parsed.images, self.doc_path)
        if len(images) != len(self.images) or any(
            images[index].existing_alt != alt for index, alt in alts.items()
        ):
            raise RewriteFailed(f"{self.doc_path}: alt splice verification failed")
        return self.doc.with_data(data, well_formed=parsed.strict), images
