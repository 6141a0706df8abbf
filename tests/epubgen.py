"""Small EPUB fixtures for tests, assembled with plain zipfile and
handwritten XML so the code under test never participates in building
its own inputs.
"""

from __future__ import annotations

import io
import struct
import zipfile
import zlib

MIMETYPE = b"application/epub+zip"

_FIXED_DATE = (2020, 1, 1, 0, 0, 0)


def tiny_png() -> bytes:
    """A valid 1x1 opaque red PNG, built chunk by chunk."""

    def chunk(tag: bytes, payload: bytes) -> bytes:
        return (
            struct.pack(">I", len(payload))
            + tag
            + payload
            + struct.pack(">I", zlib.crc32(tag + payload) & 0xFFFFFFFF)
        )

    ihdr = struct.pack(">IIBBBBB", 1, 1, 8, 2, 0, 0, 0)
    # one scanline: filter byte 0 then RGB
    idat = zlib.compress(b"\x00\xff\x00\x00")
    return (
        b"\x89PNG\r\n\x1a\n"
        + chunk(b"IHDR", ihdr)
        + chunk(b"IDAT", idat)
        + chunk(b"IEND", b"")
    )


def tiny_svg(title: str | None = None) -> bytes:
    title_el = f"<title>{title}</title>" if title else ""
    return (
        '<?xml version="1.0" encoding="UTF-8"?>'
        '<svg xmlns="http://www.w3.org/2000/svg" width="4" height="4">'
        f"{title_el}<rect width='4' height='4' fill='red'/></svg>"
    ).encode("utf-8")


def page(body: str, *, title: str = "Page", lang: str | None = None) -> bytes:
    lang_attr = f' xml:lang="{lang}" lang="{lang}"' if lang else ""
    return (
        '<?xml version="1.0" encoding="UTF-8"?>\n'
        '<!DOCTYPE html>\n'
        f'<html xmlns="http://www.w3.org/1999/xhtml"{lang_attr}>\n'
        f"<head><title>{title}</title></head>\n"
        f"<body>\n{body}\n</body>\n</html>\n"
    ).encode("utf-8")


def container_xml(rootfile: str = "OEBPS/content.opf") -> bytes:
    return (
        '<?xml version="1.0" encoding="UTF-8"?>\n'
        '<container version="1.0" xmlns="urn:oasis:names:tc:opendocument:xmlns:container">\n'
        f'  <rootfiles><rootfile full-path="{rootfile}" '
        'media-type="application/oebps-package+xml"/></rootfiles>\n'
        "</container>\n"
    ).encode("utf-8")


def opf(
    *,
    title: str | None = "The Lighthouse Keeper",
    language: str | None = "en",
    access: bool = True,
    manifest: list[tuple[str, str, str]] = (),
    spine: list[str] = (),
    extra_metadata: str = "",
    identifier: str = "urn:uuid:11111111-2222-3333-4444-555555555555",
) -> bytes:
    meta_parts = [f'<dc:identifier id="uid">{identifier}</dc:identifier>']
    if title is not None:
        meta_parts.append(f"<dc:title>{title}</dc:title>")
    if language is not None:
        meta_parts.append(f"<dc:language>{language}</dc:language>")
    if access:
        meta_parts.append('<meta property="schema:accessMode">textual</meta>')
        meta_parts.append('<meta property="schema:accessMode">visual</meta>')
        meta_parts.append(
            '<meta property="schema:accessibilityFeature">altText</meta>'
        )
    if extra_metadata:
        meta_parts.append(extra_metadata)
    items = "\n".join(
        f'    <item id="{iid}" href="{href}" media-type="{mt}"/>'
        for iid, href, mt in manifest
    )
    refs = "\n".join(f'    <itemref idref="{iid}"/>' for iid in spine)
    metadata = "\n    ".join(meta_parts)
    return (
        '<?xml version="1.0" encoding="UTF-8"?>\n'
        '<package xmlns="http://www.idpf.org/2007/opf" version="3.0" unique-identifier="uid">\n'
        '  <metadata xmlns:dc="http://purl.org/dc/elements/1.1/">\n'
        f"    {metadata}\n"
        "  </metadata>\n"
        "  <manifest>\n"
        f"{items}\n"
        "  </manifest>\n"
        "  <spine>\n"
        f"{refs}\n"
        "  </spine>\n"
        "</package>\n"
    ).encode("utf-8")


def build_zip(
    entries: list[tuple[str, bytes]],
    *,
    include_mimetype: bool = True,
    mimetype: bytes = MIMETYPE,
    mimetype_first: bool = True,
    mimetype_compressed: bool = False,
) -> bytes:
    """Assemble a ZIP byte string; knobs exist to produce invalid containers."""
    buf = io.BytesIO()
    with zipfile.ZipFile(buf, "w") as zf:

        def put(name: str, data: bytes, compress: int) -> None:
            info = zipfile.ZipInfo(name, date_time=_FIXED_DATE)
            info.compress_type = compress
            zf.writestr(info, data)

        mime_compress = (
            zipfile.ZIP_DEFLATED if mimetype_compressed else zipfile.ZIP_STORED
        )
        if include_mimetype and mimetype_first:
            put("mimetype", mimetype, mime_compress)
        for name, data in entries:
            put(name, data, zipfile.ZIP_DEFLATED)
        if include_mimetype and not mimetype_first:
            put("mimetype", mimetype, mime_compress)
    return buf.getvalue()


_PARAGRAPHS = [
    "The lighthouse keeper climbed the spiral stairs every evening before "
    "dusk and trimmed the great lamp with steady hands.",
    "Ships passed far out on the grey water, and he counted their lights "
    "until the morning came over the cliffs.",
    "In the village below, the baker lit her ovens early and the smell of "
    "bread drifted up the narrow lanes toward the sea.",
    "Letters arrived twice a month with the supply boat, and he answered "
    "every one of them at the small desk by the window.",
    "When storms rolled in from the west, the tower hummed and the keeper "
    "read old books about rivers, bridges, and distant gardens.",
]


def chapter_body(index: int, figures: str = "") -> str:
    para = _PARAGRAPHS[index % len(_PARAGRAPHS)]
    return (
        f"<h1>Chapter {index + 1}</h1>\n"
        f"<p>{para}</p>\n{figures}"
        f"<p>{_PARAGRAPHS[(index + 2) % len(_PARAGRAPHS)]}</p>"
    )


def figure_html(
    src: str,
    alt: str | None,
    *,
    caption: str | None = None,
    decorative: bool = False,
) -> str:
    alt_attr = "" if alt is None else f' alt="{alt}"'
    role_attr = ' role="presentation"' if decorative else ""
    cap = f"<figcaption>{caption}</figcaption>" if caption else ""
    return f'<figure><img src="{src}"{alt_attr}{role_attr}/>{cap}</figure>\n'


def make_book(
    *,
    n_chapters: int = 2,
    images: list[dict] | None = None,
    title: str | None = "The Lighthouse Keeper",
    language: str | None = "en",
    access: bool = True,
    extra_metadata: str = "",
    extra_entries: list[tuple[str, bytes]] | None = None,
) -> bytes:
    """A complete little book. Each image spec is a dict with keys:
    chapter (int), name (str), alt (str|None), caption, decorative,
    dangling (bool: referenced but not packaged).
    """
    images = images or []
    manifest: list[tuple[str, str, str]] = []
    spine: list[str] = []
    entries: list[tuple[str, bytes]] = [
        ("META-INF/container.xml", container_xml()),
    ]

    figures_by_chapter: dict[int, str] = {}
    image_entries: list[tuple[str, bytes]] = []
    for spec in images:
        chap = spec.get("chapter", 0)
        name = spec["name"]
        fig = figure_html(
            f"images/{name}",
            spec.get("alt"),
            caption=spec.get("caption"),
            decorative=spec.get("decorative", False),
        )
        figures_by_chapter[chap] = figures_by_chapter.get(chap, "") + fig
        if not spec.get("dangling", False):
            data = spec.get("data")
            if data is None:
                data = tiny_svg(spec.get("svg_title")) if name.endswith(".svg") else tiny_png()
            image_entries.append((f"OEBPS/images/{name}", data))
            mt = "image/svg+xml" if name.endswith(".svg") else "image/png"
            iid = "img-" + name.replace(".", "-").replace("/", "-")
            manifest.append((iid, f"images/{name}", mt))

    for i in range(n_chapters):
        doc_name = f"ch{i + 1}.xhtml"
        body = chapter_body(i, figures_by_chapter.get(i, ""))
        entries.append((f"OEBPS/{doc_name}", page(body, title=f"Chapter {i + 1}")))
        manifest.append((f"c{i + 1}", doc_name, "application/xhtml+xml"))
        spine.append(f"c{i + 1}")

    entries.append(
        (
            "OEBPS/content.opf",
            opf(
                title=title,
                language=language,
                access=access,
                manifest=manifest,
                spine=spine,
                extra_metadata=extra_metadata,
            ),
        )
    )
    entries.extend(image_entries)
    if extra_entries:
        entries.extend(extra_entries)
    return build_zip(entries)


def book_with_chapter(chapter: bytes, image_names: list[str]) -> bytes:
    """A one-chapter book whose chapter bytes are given verbatim, packaging
    a PNG for each name under OEBPS/images/."""
    manifest = [("c1", "ch1.xhtml", "application/xhtml+xml")]
    images = []
    for k, name in enumerate(image_names):
        manifest.append((f"img{k}", f"images/{name}", "image/png"))
        images.append((f"OEBPS/images/{name}", tiny_png()))
    entries = [
        ("META-INF/container.xml", container_xml()),
        ("OEBPS/ch1.xhtml", chapter),
        ("OEBPS/content.opf", opf(manifest=manifest, spine=["c1"])),
    ]
    return build_zip(entries + images)
