"""Books read and repaired the same in every encoding XML readers take.

Chapters and OPFs are generated in UTF-8 (with and without a BOM), UTF-16
LE and BE (with and without a BOM), ISO-8859-1, windows-1252, Shift_JIS,
EUC-JP and GBK. The audit of each book must equal the audit of the same
book in UTF-8. Repair must keep each part's encoding and change a chapter
only inside its image start tags and an OPF only inside <metadata>, and a
second repair must write the same bytes. The byte checks use Python's
codecs and regexes alone, like ziporacle.py.
"""

from __future__ import annotations

import codecs
import io
import re
import tempfile
import zipfile
from pathlib import Path

from hypothesis import given, note, settings
from hypothesis import strategies as st

import epubgen
from altgen import pipeline
from altgen.audit import audit
from altgen.pipeline import FileStatus, PipelineConfig, run_repair

# (BOM, codec, the name the XML declaration gives)
ENCODINGS = [
    (b"", "utf-8", "UTF-8"),
    (codecs.BOM_UTF8, "utf-8", "UTF-8"),
    (b"", "utf-16-le", "UTF-16"),
    (codecs.BOM_UTF16_LE, "utf-16-le", "UTF-16"),
    (b"", "utf-16-be", "UTF-16"),
    (codecs.BOM_UTF16_BE, "utf-16-be", "UTF-16"),
    (b"", "iso-8859-1", "ISO-8859-1"),
    (b"", "windows-1252", "windows-1252"),
    (b"", "shift_jis", "Shift_JIS"),
    (b"", "euc-jp", "EUC-JP"),
    (b"", "gbk", "GBK"),
]
WORDS = ["keeper", "lamp", "café", "naïve", "“tide”", "€5", "日本", "灯台", "港", "&amp;"]
CHAPTER = "OEBPS/ch1.xhtml"
OPF = "OEBPS/content.opf"
_IMG_RE = re.compile(r"<img\b[^>]*>")
_ALT_RE = re.compile(r'\s+alt="[^"]*"')


def _encodable(text: str, codec: str) -> bool:
    try:
        text.encode(codec)
    except UnicodeEncodeError:
        return False
    return True


def _declared(text: str, encoding: tuple[bytes, str, str]) -> str:
    return text.replace('encoding="UTF-8"', f'encoding="{encoding[2]}"')


def _encode(text: str, encoding: tuple[bytes, str, str]) -> bytes:
    bom, codec, _ = encoding
    return bom + _declared(text, encoding).encode(codec)


@st.composite
def books(draw) -> tuple[str, str, list[str], tuple]:
    """(chapter, OPF, image names, their two encodings): a one-chapter book
    as text, in words both encodings can hold."""
    encodings = draw(st.tuples(st.sampled_from(ENCODINGS), st.sampled_from(ENCODINGS)))
    words = [w for w in WORDS if all(_encodable(w, e[1]) for e in encodings)]
    prose = st.lists(st.sampled_from(words), min_size=1, max_size=6).map(" ".join)
    body, names = f"<h1>{draw(prose)}</h1>", []
    for k in range(draw(st.integers(1, 3))):
        names.append(f"i{k}.png")
        alt = draw(st.sampled_from([None, "", "A lamp at dusk"]))
        caption = draw(st.none() | prose)
        figure = epubgen.figure_html(f"images/i{k}.png", alt, caption=caption)
        body += f"<p>{draw(prose)}</p>{figure}"
    chapter = epubgen.page(body, title=draw(prose)).decode("utf-8")
    manifest = [("c1", "ch1.xhtml", "application/xhtml+xml")]
    manifest += [(f"img{k}", f"images/{name}", "image/png") for k, name in enumerate(names)]
    opf = epubgen.opf(
        title=draw(st.none() | prose),
        language=draw(st.sampled_from([None, "en"])),
        access=draw(st.booleans()),
        manifest=manifest,
        spine=["c1"],
    ).decode("utf-8")
    return chapter, opf, names, encodings


def _zip(chapter: bytes, opf: bytes, names: list[str]) -> bytes:
    images = [(f"OEBPS/images/{name}", epubgen.tiny_png()) for name in names]
    return epubgen.build_zip(
        [("META-INF/container.xml", epubgen.container_xml()), (CHAPTER, chapter), (OPF, opf)]
        + images
    )


def _repair(book: bytes) -> tuple[FileStatus, bytes | None]:
    with tempfile.TemporaryDirectory() as tmp:
        path, out = Path(tmp) / "book.epub", Path(tmp) / "out"
        path.write_bytes(book)
        (result,), _ = run_repair([path], PipelineConfig(jobs=1, output_dir=out))
        note(f"{result.status}: {result.failure_reason}")
        return result.status, (out / "book.epub").read_bytes() if result.output_path else None


def _text(data: bytes, encoding: tuple[bytes, str, str]) -> str:
    bom, codec, _ = encoding
    assert data.startswith(bom)
    return data[len(bom) :].decode(codec)


def _assert_only_image_tags_changed(before: str, after: str) -> None:
    kept = _IMG_RE.split(before)
    match = re.fullmatch("(<img[^<>]*>)".join(map(re.escape, kept)), after)
    assert match is not None
    for old, new in zip(_IMG_RE.findall(before), match.groups()):
        assert _ALT_RE.sub("", new) == _ALT_RE.sub("", old)


def _assert_only_metadata_changed(before: str, after: str) -> None:
    head, tail = before.split("<metadata", 1)[0], before.split("</metadata>", 1)[1]
    assert after.startswith(head + "<metadata") and after.endswith("</metadata>" + tail)


@settings(max_examples=200, deadline=None)
@given(book=books())
def test_every_encoding_audits_and_repairs_as_utf8_does(book):
    chapter, opf, names, (chapter_encoding, opf_encoding) = book
    encoded = _zip(_encode(chapter, chapter_encoding), _encode(opf, opf_encoding), names)
    in_utf8 = _zip(chapter.encode("utf-8"), opf.encode("utf-8"), names)
    report = audit(*pipeline._open_for_pipeline(encoded)).to_dict()
    assert report == audit(*pipeline._open_for_pipeline(in_utf8)).to_dict()

    status, written = _repair(encoded)
    assert status is _repair(in_utf8)[0]
    assert status in (FileStatus.REPAIRED, FileStatus.CLEAN_SKIPPED)
    with zipfile.ZipFile(io.BytesIO(written)) as zf:
        new_chapter, new_opf = zf.read(CHAPTER), zf.read(OPF)
    _assert_only_image_tags_changed(
        _declared(chapter, chapter_encoding), _text(new_chapter, chapter_encoding)
    )
    _assert_only_metadata_changed(_declared(opf, opf_encoding), _text(new_opf, opf_encoding))
    assert _repair(written)[1] == written
