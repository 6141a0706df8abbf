"""The one strict parser against ElementTree's, on chapters, OPFs and
container.xml files, and alt splices that touch nothing but the targeted
start tags."""

from __future__ import annotations

import codecs
import gc
import re
import weakref
from xml.etree import ElementTree as ET

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import content_oracles
import epubgen
from altgen.container import XML_START_TAG_RE, ArchiveEntry, NotWellFormed, Undecodable
from altgen.container import _localname, decode_xml, parse_xml
from altgen.content import ContentDocument, parse_document
from altgen.errors import AltgenError

XHTML = "http://www.w3.org/1999/xhtml"
SVG = "http://www.w3.org/2000/svg"
XLINK = "http://www.w3.org/1999/xlink"
OPS = "http://www.idpf.org/2007/ops"
OPF = "http://www.idpf.org/2007/opf"
DC = "http://purl.org/dc/elements/1.1/"
OCF = "urn:oasis:names:tc:opendocument:xmlns:container"
EXTERNAL_DTD = (
    '<!DOCTYPE html PUBLIC "-//W3C//DTD XHTML 1.1//EN" '
    '"http://www.w3.org/TR/xhtml11/DTD/xhtml11.dtd"'
)
ENTITIES = {
    "rule": "<img src='images/r.png' alt='' role='presentation'/>",
    "who": "the keeper &amp; his fox",
    "fig": "<span>a <img src='images/e.png'/> b</span>",
    "far": None,  # an external entity, which ElementTree never loads
    "lang": "<dc:language>fr</dc:language>",
    "meta": "<meta property='schema:accessMode'>textual</meta><meta name='x' content='y'/>",
    "root": "<rootfile full-path='b.opf' media-type='application/oebps-package+xml'/>",
}

# --- tree equality ---


def _shape(root: ET.Element) -> list[tuple]:
    """Every element in document order, with everything ElementTree keeps."""
    return [
        (e.tag, list(e.attrib.items()), e.text, e.tail, len(e)) for e in root.iter()
    ]


words = st.sampled_from(["fox", "tide", " ", "\n", "café", "&amp;", "&#233;", "&lt;", "x > y"])
text = st.lists(words, max_size=4).map("".join)
entity_ref = st.sampled_from(["&rule;", "&who;", "&fig;", "&far;", "&nbsp;"])


@st.composite
def xml_attrs(draw) -> str:
    attrs = draw(
        st.lists(
            st.sampled_from(
                [
                    'class="a"',
                    "title='x > y'",
                    'xml:lang="fr"',
                    'epub:type="figure"',
                    'alt="A fox"',
                    'role="presentation"',
                    'data-n="&who;"',
                    'data-q="&quot;&#60;"',
                ]
            ),
            unique=True,
            max_size=3,
        )
    )
    return "".join(" " + a for a in attrs)


def xml_nodes(inner):
    return st.one_of(
        st.tuples(st.sampled_from(["p", "div", "span", "figure"]), xml_attrs(), inner).map(
            lambda t: f"<{t[0]}{t[1]}>{''.join(t[2])}</{t[0]}>"
        ),
        st.tuples(xml_attrs(), inner).map(
            lambda t: f'<svg:g{t[0]} xmlns:svg="{SVG}">{"".join(t[1])}</svg:g>'
        ),
    )


xml_leaf = st.one_of(
    text,
    entity_ref,
    st.just("<!-- a <img src='c.png'/> comment -->"),
    st.just("<?pi some data?>"),
    st.just("<![CDATA[<img src='d.png'/> & ]]>"),
    xml_attrs().map(lambda a: f'<img src="images/a.png"{a}/>'),
    xml_attrs().map(lambda a: f'<img src="images/b.png"{a}></img>'),
    st.just(f'<svg xmlns="{SVG}" xmlns:xlink="{XLINK}"><image xlink:href="a.png"/></svg>'),
    st.just(f'<svg:svg xmlns:svg="{SVG}"><svg:image href="b.png"/></svg:svg>'),
)
xml_bodies = st.recursive(st.lists(xml_leaf, max_size=4), lambda i: st.lists(xml_nodes(i), max_size=3))


opf_metadata = st.lists(
    st.one_of(
        text,
        st.sampled_from(["&lang;", "&meta;", "&who;", "&far;", "<!-- a note -->"]),
        st.tuples(st.sampled_from(["title", "language", "creator"]), text).map(
            lambda t: f"<dc:{t[0]}>{t[1]}</dc:{t[0]}>"
        ),
        xml_attrs().map(lambda a: f"<dc:date{a}/>"),
        st.just('<meta property="schema:accessibilityFeature">altText</meta>'),
        st.just(f'<x:meta xmlns:x="{OPF}" name="cover" content="c"/>'),
    ),
    max_size=5,
)


@st.composite
def opf_roots(draw) -> str:
    # the dc: prefix is declared on <package> or on <metadata>
    declared = f' xmlns:dc="{DC}"'
    on_package, on_metadata = draw(st.sampled_from([(declared, ""), ("", declared)]))
    metadata = "".join(draw(opf_metadata))
    return (
        f'<package xmlns="{OPF}"{on_package} version="3.0">'
        f"<metadata{on_metadata}>{metadata}</metadata>"
        '<manifest><item id="c1" href="ch1.xhtml" media-type="application/xhtml+xml"/></manifest>'
        '<spine><itemref idref="c1"/></spine></package>'
    )


@st.composite
def container_roots(draw) -> str:
    rootfiles = st.sampled_from(
        [
            "&root;",
            "&who;",
            "\n  ",
            '<rootfile full-path="a.opf" media-type="application/oebps-package+xml"/>',
            '<rootfile full-path="a.opf" ></rootfile >',
        ]
    )
    inner = "".join(draw(st.lists(rootfiles, max_size=3)))
    return f'<container version="1.0" xmlns="{OCF}"><rootfiles>{inner}</rootfiles></container>'


@st.composite
def chapter_roots(draw) -> str:
    body = "".join(draw(xml_bodies))
    lang = draw(st.sampled_from(["", ' xml:lang="en"']))
    return f'<html xmlns="{XHTML}" xmlns:epub="{OPS}"{lang}><body>{body}</body></html>'


@st.composite
def xml_documents(draw, roots=chapter_roots()) -> bytes:
    declared = draw(st.sets(st.sampled_from(sorted(ENTITIES))))
    subset = "".join(
        f'<!ENTITY {name} SYSTEM "{name}.xml">'
        if ENTITIES[name] is None
        else f'<!ENTITY {name} "{ENTITIES[name]}">'
        for name in sorted(declared)
    )
    doctype = draw(
        st.sampled_from(
            ["", "<!DOCTYPE html>", "<!DOCTYPE html [{}]>", EXTERNAL_DTD + ">", EXTERNAL_DTD + " [{}]>"]
        )
    )
    source = (
        draw(st.sampled_from(["", '<?xml version="1.0" encoding="{}"?>\n']))
        + doctype.format(subset)
        + draw(st.sampled_from(["", "\n<!-- prolog -->\n", "<?pi before?>"]))
        + draw(roots)
    )
    if draw(st.booleans()):  # break it somewhere, sometimes
        cut = draw(st.integers(0, len(source)))
        junk = draw(st.sampled_from(["", "<", "&", "</p>", "\x00"]))
        source = source[:cut] + junk + source[cut + 1 :]
    bom, codec, name = draw(
        st.sampled_from(
            [
                (b"", "utf-8", "UTF-8"),
                (codecs.BOM_UTF8, "utf-8", "UTF-8"),
                (codecs.BOM_UTF16_LE, "utf-16-le", "UTF-16"),
                (codecs.BOM_UTF16_BE, "utf-16-be", "UTF-16"),
            ]
        )
    )
    return bom + source.replace('encoding="{}"', f'encoding="{name}"').encode(codec)


def _reference(data: bytes | str) -> ET.Element | None:
    try:
        return ET.fromstring(data)
    except ET.ParseError:
        return None


NAME_RE = re.compile(rb"<([^\s/>]+)")
EMPTY_TAG_RE = re.compile(rb"""<[^\s/>]+(?:\s+[^\s=/>]+\s*=\s*(?:"[^"]*"|'[^']*'))*\s*/>""")


def _check_offsets(parsed) -> None:
    """Every element has its offsets, in document order, at its own tags."""
    assert list(parsed.starts) == list(parsed.root.iter())
    assert parsed.ends.keys() == parsed.starts.keys()
    source = parsed.decoded[0].encode("utf-8")
    for elem, start in parsed.starts.items():
        end = parsed.ends[elem]
        if source[start] == ord("&"):  # from an entity's replacement text
            assert source[end] == ord("&")
            continue
        tag = NAME_RE.match(source, start)
        assert tag is not None
        name = tag.group(1)
        assert name.split(b":")[-1].decode("utf-8") == _localname(elem.tag)
        # an end tag of that name, or the end of an empty element's one tag
        assert source.startswith(b"</" + name, end) or EMPTY_TAG_RE.fullmatch(source, start, end)


@settings(max_examples=600, deadline=None)
@given(
    data=st.one_of(
        xml_documents(), xml_documents(roots=opf_roots()), xml_documents(roots=container_roots())
    )
)
def test_strict_parse_builds_elementtrees_tree(data):
    try:
        text = decode_xml(data)[0]
    except Undecodable:  # a junk character cut the encoding's name
        with pytest.raises(Undecodable):
            parse_xml(data)
        return
    expected = _reference(text)
    try:
        parsed = parse_xml(data)
    except NotWellFormed:
        assert expected is None
        return
    assert expected is not None
    assert _shape(parsed.root) == _shape(expected)
    assert parsed.decoded == decode_xml(data)
    _check_offsets(parsed)
    document = parse_document(data)
    assert document.strict
    assert document.images == content_oracles._images(document.root)
    _check_tags(document, [parsed.starts[e] for e in content_oracles._images(parsed.root)])


def _check_tags(document, offsets: list[int]) -> None:
    """Each image's span is the one start tag at its parse_xml offset, matched
    whole and named as the image is; None only where an entity put it."""
    text = document.decoded[0]
    source = text.encode("utf-8")
    assert len(document.tags) == len(document.images) == len(offsets)
    for elem, tag, offset in zip(document.images, document.tags, offsets):
        if tag is None:
            assert source[offset] == ord("&")
            continue
        first, last = tag
        assert len(text[:first].encode("utf-8")) == offset
        assert XML_START_TAG_RE.fullmatch(text, first, last + 1)
        name = NAME_RE.match(source, offset).group(1).decode("utf-8")
        assert name.split(":")[-1] == _localname(elem.tag)


@pytest.mark.parametrize(
    "body, tags",
    [
        (
            "<p>café\n<img src=a.png>\n<IMG SRC='b.png'\nalt=\"x > y\"><br></p>",
            ["<img src=a.png>", "<IMG SRC='b.png'\nalt=\"x > y\">"],
        ),
        (
            "<div>灯台<svg><image href=c.png /></svg><p>é<img src=d.png/></div>",
            ["<image href=c.png />", "<img src=d.png/>"],
        ),
    ],
)
def test_tag_soup_spans_are_start_tags(body, tags):
    document = parse_document(("<html><body>" + body).encode("utf-8"))
    assert not document.strict
    text = document.decoded[0]
    assert [text[first : last + 1] for first, last in document.tags] == tags
    assert len(document.images) == len(tags)


def test_parsed_tree_is_freed_without_the_cycle_collector():
    data = epubgen.page('<p>a <img src="images/a.png"/> b</p>')
    enabled = gc.isenabled()
    gc.disable()
    try:
        parsed = parse_xml(data)
        root = weakref.ref(parsed.root)
        del parsed
        assert root() is None
    finally:
        if enabled:
            gc.enable()


@pytest.mark.parametrize(
    "prolog, body, accepted",
    [
        # an internal entity's image is an image of the tree
        ('<!DOCTYPE html [<!ENTITY e "<img src=\'a.png\'/>">]>', "<p>&e;</p>", True),
        # undefined, with and without an external DTD, and when standalone
        ("<!DOCTYPE html>", "<p>&nbsp;</p>", False),
        (EXTERNAL_DTD + ">", "<p>&nbsp;</p>", False),
        ('<?xml version="1.0" standalone="yes"?>' + EXTERNAL_DTD + ">", "<p>&nbsp;</p>", False),
        # in an attribute under an external DTD, expat drops it and so does ET
        (EXTERNAL_DTD + ">", '<p title="&nbsp;">x</p>', True),
        # external: declared, but never loaded; unparsed
        ('<!DOCTYPE html [<!ENTITY e SYSTEM "e.xml">]>', "<p>&e;</p>", False),
        (
            '<!DOCTYPE html [<!NOTATION png SYSTEM "png"><!ENTITY e SYSTEM "e" NDATA png>]>',
            "<p>&e;</p>",
            False,
        ),
        # a parameter entity stops the internal subset's declarations
        ('<!DOCTYPE html [<!ENTITY % pe SYSTEM "x.dtd"> %pe;]>', "<p>x</p>", True),
        ('<!DOCTYPE html [<!ENTITY % pe SYSTEM "x.dtd"> %pe;]>', "<p>&u;</p>", False),
        # a DTD default attribute is an attribute of the tree
        ('<!DOCTYPE html [<!ATTLIST img alt CDATA "dflt">]>', '<img src="a.png"/>', True),
        # a single-byte encoding expat does not know itself
        ('<?xml version="1.0" encoding="windows-1252"?>', "<p>\x93q\x94</p>", True),
    ],
)
def test_edge_documents_as_elementtree_takes_them(prolog, body, accepted):
    data = f'{prolog}<html xmlns="{XHTML}"><body>{body}</body></html>'.encode("latin-1")
    assert (_reference(data) is not None) is accepted
    if accepted:
        parsed = parse_xml(data)
        assert _shape(parsed.root) == _shape(_reference(data))
        _check_offsets(parsed)
    else:
        with pytest.raises(NotWellFormed):
            parse_xml(data)
        assert not parse_document(data).strict  # the lenient parse took it


# --- splice safety ---

XML_DECOYS = [
    "\n<p>Café\n</p>\n",
    '<!-- <img src="c.png"/> -->',
    '<p title="a > b">t</p>',
    '<script><![CDATA[var s = "<img src=q>";]]></script>',
    '<p><![CDATA[<img src="d.png"/>]]></p>',
    "<p>&e;</p>",
]
SOUP_DECOYS = XML_DECOYS[:-1] + [
    '<script>var s = "<img src=q>";</script>',
    '<p title="<img src=z>">t</p>',
    "<p title='x>text</p>",
    "<p>a & b < c</p>",
]


@st.composite
def image_tag(draw, k: int, soup: bool) -> tuple[str, str, str]:
    """(before, start tag, after) of one image whose id is i<k>."""
    alt = draw(st.sampled_from(["", ' alt="old"', " alt=''", ' alt="a > b"']))
    forms = [
        ("", f'<img id="i{k}" src="images/a.png"{alt}/>', ""),
        ("", f'<img id="i{k}"{alt} src="images/a.png">', "</img>"),
        (f'<svg xmlns="{SVG}">', f'<image id="i{k}" href="a.png"{alt} />', "</svg>"),
    ]
    if soup:
        forms[1] = ("", f"<img id=i{k} src=images/a.png{alt}>", "")
        forms.append(("", f"<IMG ID='i{k}' SRC='images/a.png'{alt.upper()}>", ""))
    return draw(st.sampled_from(forms))


@st.composite
def splice_chapters(draw) -> tuple[bytes, dict[str, tuple[int, int]]]:
    """A chapter, well-formed or tag soup, and the span of each image start
    tag it was written with, by id."""
    soup = draw(st.booleans())
    decoys = SOUP_DECOYS if soup else XML_DECOYS
    if soup:
        head = "<html><body>"
        tail = "</body></html>"
    else:
        head, tail = epubgen.page("\x00").decode("utf-8").split("\x00")
        head = head.replace(
            "<!DOCTYPE html>", "<!DOCTYPE html [<!ENTITY e \"<img src='images/e.png'/>\">]>"
        )
    out = head.encode("utf-8")
    spans = {}
    for k in range(draw(st.integers(1, 6))):
        out += "".join(draw(st.lists(st.sampled_from(decoys), max_size=2))).encode("utf-8")
        before, tag, after = (part.encode("utf-8") for part in draw(image_tag(k, soup)))
        spans[f"i{k}"] = (len(out) + len(before), len(out) + len(before) + len(tag))
        out += before + tag + after
    return out + tail.encode("utf-8"), spans


alt_texts = st.text(alphabet=st.sampled_from("fox & \" ' < > é"), min_size=1, max_size=12)


@settings(max_examples=300, deadline=None)
@given(chapter=splice_chapters(), data=st.data())
def test_splice_touches_only_targeted_start_tags(chapter, data):
    source, spans = chapter
    document = ContentDocument(ArchiveEntry("OEBPS/ch1.xhtml", source))
    if not document.images:
        return
    targets = data.draw(st.sets(st.integers(0, len(document.images) - 1), min_size=1))
    alts = {i: data.draw(alt_texts) for i in sorted(targets)}
    try:
        repaired = document.splice(alts)[0]
    except AltgenError:
        return

    ids = [e.get("id") for e in content_oracles._images(parse_document(source).root)]
    cuts = sorted(spans[ids[i]] for i in alts)
    kept = [source[a:b] for a, b in zip([0] + [e for _, e in cuts], [s for s, _ in cuts] + [None])]
    # each targeted start tag became one start tag (a written alt is escaped,
    # and an old alt holding ">" is the one replaced); nothing else changed
    match = re.fullmatch(b"(<[^<>]*>)".join(map(re.escape, kept)), repaired.data)
    assert match is not None
    for (start, _), tag in zip(cuts, match.groups()):
        assert tag[:4].lower() == source[start : start + 4].lower()
    again = ContentDocument(repaired).splice(alts)[0]
    assert again.data == repaired.data
