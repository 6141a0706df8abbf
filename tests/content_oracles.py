"""Reference repair: context and alt splice one image at a time.

This is the per-image algorithm the content module used before documents
were repaired in a single pass, kept apart from the module so that the
single pass can be checked against it. Each image re-parses the document
for its context, and each alt is spliced into the text the previous splice
produced, then verified. It is quadratic in the images of one document and
serves only as an oracle.
"""

from __future__ import annotations

import re
from xml.etree import ElementTree as ET
from xml.sax.saxutils import escape

from altgen.content import (
    BLOCK_TAGS,
    CONTEXT_WINDOW,
    HEADING_TAGS,
    ContextBundle,
    normalize_ws,
    parse_document,
)

_IMAGE_TAGS = ("img", "image")
_NO_TEXT_TAGS = ("script", "style")


def _localname(tag: str) -> str:
    if tag.startswith("{"):
        return tag.rsplit("}", 1)[1]
    return tag.rsplit(":", 1)[-1]


def _images(root: ET.Element) -> list[ET.Element]:
    return [
        e for e in root.iter() if isinstance(e.tag, str) and _localname(e.tag) in _IMAGE_TAGS
    ]


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


def context(data: bytes, index: int, title: str | None) -> ContextBundle:
    """Context of image `index`: parse, find its figure's figcaption through
    a parent map, then walk the whole tree once for this image alone."""
    root = parse_document(data)
    target = _images(root)[index]
    parents = {child: parent for parent in root.iter() for child in parent}

    figcaption_elem = None
    node = target
    while node in parents:
        node = parents[node]
        if isinstance(node.tag, str) and _localname(node.tag) == "figure":
            for descendant in node.iter():
                if isinstance(descendant.tag, str) and _localname(descendant.tag) == "figcaption":
                    figcaption_elem = descendant
                    break
            break

    pre_parts: list[str] = []
    post_parts: list[str] = []
    state = {"seen": False, "heading": None}

    def walk(elem: ET.Element, depth: int) -> None:
        if elem is target:
            state["seen"] = True
            return
        if elem is figcaption_elem or not isinstance(elem.tag, str):
            return
        local = _localname(elem.tag)
        if local in _NO_TEXT_TAGS:
            return
        if local in HEADING_TAGS:
            if not state["seen"]:
                text = _text_of(elem)
                if text:
                    state["heading"] = text
            return
        inside = depth + (1 if local in BLOCK_TAGS else 0)
        bucket = post_parts if state["seen"] else pre_parts
        if elem.text and inside > 0:
            bucket.append(elem.text)
        for child in elem:
            walk(child, inside)
            bucket = post_parts if state["seen"] else pre_parts
            if child.tail and inside > 0:
                bucket.append(child.tail)

    walk(root, 0)
    figcaption = _text_of(figcaption_elem) if figcaption_elem is not None else None
    return ContextBundle(
        figcaption=figcaption or None,
        preceding_text=_tail_window(pre_parts),
        following_text=_head_window(post_parts),
        nearest_heading=state["heading"],
        doc_title=title,
    )


_TAG_NAME_RE = re.compile(r"<([A-Za-z][^\s/>]*)")
_ATTR_RE = re.compile(r"""([^\s=/>"']+)(\s*=\s*("[^"]*"|'[^']*'|[^\s>]*))?""")


def _image_tag(text: str, index: int) -> tuple[int, int]:
    """Span of the index-th image start tag, scanning from the top."""
    count = -1
    i, n = 0, len(text)
    while i < n:
        lt = text.find("<", i)
        if lt < 0:
            break
        for opener, closer in (("<!--", "-->"), ("<![CDATA[", "]]>"), ("<?", "?>")):
            if text.startswith(opener, lt):
                close = text.find(closer, lt + len(opener))
                i = n if close < 0 else close + len(closer)
                break
        else:
            if text.startswith("<!", lt) or text.startswith("</", lt):
                close = text.find(">", lt + 2)
                i = n if close < 0 else close + 1
                continue
            match = _TAG_NAME_RE.match(text, lt)
            if not match:
                i = lt + 1
                continue
            j, quote, end = match.end(), None, -1
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
                break
            if match.group(1).rsplit(":", 1)[-1].lower() in _IMAGE_TAGS:
                count += 1
                if count == index:
                    return lt, end
            i = end + 1
    raise LookupError(f"image start tag {index} not found")


def set_alt(data: bytes, index: int, alt: str) -> bytes:
    """Splice alt into image start tag `index` and rebuild the whole text."""
    text = data.decode("utf-8")
    start, end = _image_tag(text, index)
    body_start = _TAG_NAME_RE.match(text, start).end()
    body_end = end - 1 if text[end - 1] == "/" else end
    body = text[body_start:body_end]
    replacement = 'alt="%s"' % escape(alt, {'"': "&quot;"})
    for match in _ATTR_RE.finditer(body):
        if match.group(1).lower() == "alt":
            body = body[: match.start()] + replacement + body[match.end() :]
            break
    else:
        body = body + replacement if body and body[-1].isspace() else body + " " + replacement
    out = (text[:body_start] + body + text[body_end:]).encode("utf-8")
    after = _images(parse_document(out))
    if len(after) != len(_images(parse_document(data))) or after[index].get("alt") != alt:
        raise AssertionError("reference splice failed verification")
    return out


def repair(
    data: bytes, alts: dict[int, str], title: str | None
) -> tuple[dict[int, ContextBundle], bytes]:
    """The per-image loop over a UTF-8 document: each target's context is
    taken from the document as the previous splices left it, then its alt is
    spliced in."""
    contexts = {}
    for index in sorted(alts):
        contexts[index] = context(data, index, title)
        data = set_alt(data, index, alts[index])
    return contexts, data
