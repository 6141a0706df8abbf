"""Seeded corpora for the benchmark workloads.

Books are assembled with the helpers in ``tests/epubgen.py`` (imported, never
edited) from sentences in ``tools/lang_corpora/``. Next to the books the
generator writes its own ground truth: what audit should count, what repair
should do to every entry and image, and a references file for ``validate``
built from the figcaptions it placed. Nothing here reads altgen output.

The books are well-formed, like the ones users send. Hostile input (tag soup,
``<img`` strings inside scripts, zip bombs) belongs to the robustness tests,
not to a speed benchmark. Why each workload exists is written once, in the
``why`` of its entry in ``BENCHMARK.json``.
"""

from __future__ import annotations

import io
import json
import random
import re
import struct
import sys
import zipfile
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from xml.sax.saxutils import escape

ROOT = Path(__file__).resolve().parent.parent
LANG_CORPORA = ROOT / "tools" / "lang_corpora"
sys.path.insert(0, str(ROOT / "tests"))

import epubgen  # noqa: E402

OPF_PATH = "OEBPS/content.opf"
LANGUAGES = ("de", "en", "es", "fi", "fr", "it", "nl", "pl", "pt", "sv")

BATCH_BOOKS = 1000
REMOTE_BOOKS = 30
DENSE_SIZES = (50, 100, 200, 400)


@dataclass
class Image:
    kind: str  # "target" (no alt), "decorative" (alt="" role=presentation), "adequate"
    name: str
    caption: str
    alt: str | None
    data: bytes


@dataclass
class Book:
    name: str
    lang: str
    chapters: list[list[object]]  # each block is a paragraph str or an Image
    has_language: bool = True
    has_title: bool = True
    has_access: bool = True
    title: str = ""

    def images(self) -> dict[str, list[Image]]:
        return {
            f"OEBPS/ch{i + 1}.xhtml": [b for b in blocks if isinstance(b, Image)]
            for i, blocks in enumerate(self.chapters)
        }

    def pre_errors(self) -> int:
        """Error-level audit issues: missing alt, dc:language, dc:title.
        Missing accessibility metadata is only a warning."""
        missing_alt = sum(
            1 for imgs in self.images().values() for img in imgs if img.kind == "target"
        )
        return missing_alt + (not self.has_language) + (not self.has_title)


@dataclass
class Corpus:
    workload: str
    seed: int
    books: list[Book] = field(default_factory=list)

    def truth(self) -> dict:
        """What a correct audit and repair must produce, per book."""
        rows = []
        for book in self.books:
            repaired = book.pre_errors() > 0
            images = book.images()
            changed = sorted(
                doc for doc, imgs in images.items() if any(i.kind == "target" for i in imgs)
            )
            metadata_fix = not (book.has_language and book.has_title and book.has_access)
            if repaired and metadata_fix:
                changed.append(OPF_PATH)
            rows.append(
                {
                    "name": book.name,
                    "lang": book.lang,
                    "pre_errors": book.pre_errors(),
                    "status": "Repaired" if repaired else "CleanSkipped",
                    "changed": sorted(changed) if repaired else [],
                    "fix_language": repaired and not book.has_language,
                    "fix_title": repaired and not book.has_title,
                    "fix_access": repaired and not book.has_access,
                    "images": {
                        doc: [{"kind": i.kind, "alt": i.alt} for i in imgs]
                        for doc, imgs in images.items()
                    },
                }
            )
        return {"workload": self.workload, "seed": self.seed, "books": rows}

    def references(self) -> list[dict]:
        """One row per targeted image; the reference is the figcaption the
        generator wrote next to it."""
        rows = []
        for book in self.books:
            for doc, imgs in book.images().items():
                for index, img in enumerate(imgs):
                    if img.kind == "target":
                        rows.append(
                            {"epub": book.name, "doc": doc, "index": index, "alt": img.caption}
                        )
        return rows


def _sentences(lang: str) -> list[str]:
    text = (LANG_CORPORA / f"{lang}.txt").read_text(encoding="utf-8")
    parts = re.split(r"(?<=[.!?])\s+", " ".join(text.split()))
    return [p for p in parts if len(p.split()) >= 6]


class _Text:
    """Seeded sentence and caption source for one language."""

    def __init__(self, rng: random.Random, lang: str, cache: dict[str, list[str]]):
        if lang not in cache:
            cache[lang] = _sentences(lang)
        self.rng = rng
        self.sentences = cache[lang]

    def sentence(self) -> str:
        return self.rng.choice(self.sentences)

    def caption(self) -> str:
        words = self.sentence().split()
        start = self.rng.randrange(0, max(1, len(words) - 9))
        return " ".join(words[start : start + self.rng.randint(6, 9)]).strip(" ,.;:!?")


def png(rng: random.Random) -> bytes:
    """A small valid RGB PNG of seeded size and noise."""
    width, height = rng.randint(8, 24), rng.randint(8, 24)
    rows = b"".join(b"\x00" + rng.randbytes(width * 3) for _ in range(height))

    def chunk(tag: bytes, payload: bytes) -> bytes:
        crc = zlib.crc32(tag + payload) & 0xFFFFFFFF
        return struct.pack(">I", len(payload)) + tag + payload + struct.pack(">I", crc)

    ihdr = struct.pack(">IIBBBBB", width, height, 8, 2, 0, 0, 0)
    return (
        b"\x89PNG\r\n\x1a\n"
        + chunk(b"IHDR", ihdr)
        + chunk(b"IDAT", zlib.compress(rows))
        + chunk(b"IEND", b"")
    )


def _image(rng: random.Random, text: _Text, kind: str, name: str) -> Image:
    caption = text.caption()
    alt = {"target": None, "decorative": "", "adequate": text.caption()}[kind]
    return Image(kind, name, caption, alt, png(rng))


def _figure(img: Image) -> str:
    alt = None if img.alt is None else escape(img.alt, {'"': "&quot;"})
    return epubgen.figure_html(
        f"images/{img.name}", alt, caption=escape(img.caption), decorative=img.kind == "decorative"
    )


def book_bytes(book: Book) -> bytes:
    manifest: list[tuple[str, str, str]] = []
    spine: list[str] = []
    entries: list[tuple[str, bytes]] = [("META-INF/container.xml", epubgen.container_xml())]
    image_entries: list[tuple[str, bytes]] = []
    for i, blocks in enumerate(book.chapters):
        body = [f"<h1>{escape(book.title)} {i + 1}</h1>"]
        for block in blocks:
            if isinstance(block, Image):
                body.append(_figure(block).rstrip("\n"))
                image_entries.append((f"OEBPS/images/{block.name}", block.data))
                manifest.append((f"img-{block.name[:-4]}", f"images/{block.name}", "image/png"))
            else:
                body.append(f"<p>{escape(block)}</p>")
        entries.append((f"OEBPS/ch{i + 1}.xhtml", epubgen.page("\n".join(body), title=f"{i + 1}")))
        manifest.append((f"c{i + 1}", f"ch{i + 1}.xhtml", "application/xhtml+xml"))
        spine.append(f"c{i + 1}")
    opf = epubgen.opf(
        title=escape(book.title) if book.has_title else None,
        language=book.lang if book.has_language else None,
        access=book.has_access,
        manifest=manifest,
        spine=spine,
        identifier=f"urn:perfbench:{book.name}",
    )
    entries.append((OPF_PATH, opf))
    return _zip(entries + image_entries)


def _zip(entries: list[tuple[str, bytes]]) -> bytes:
    """The container: mimetype first and stored, PNGs stored, text deflated
    at level 1. altgen deflates at zlib's default level, so a clean book that
    is re-serialized instead of copied no longer matches its input."""
    buf = io.BytesIO()
    with zipfile.ZipFile(buf, "w") as zf:
        for name, data in [("mimetype", epubgen.MIMETYPE), *entries]:
            info = zipfile.ZipInfo(name, date_time=(2021, 6, 1, 12, 0, 0))
            if name == "mimetype" or name.endswith(".png"):
                info.compress_type = zipfile.ZIP_STORED
            else:
                info.compress_type = zipfile.ZIP_DEFLATED
            zf.writestr(info, data, compresslevel=1)
    return buf.getvalue()


def _dense(rng: random.Random, cache: dict) -> list[Book]:
    books = []
    for n in DENSE_SIZES:
        text = _Text(rng, "en", cache)
        kinds = ["target"] * n + ["decorative"] * 3 + ["adequate"] * 3
        rng.shuffle(kinds)
        blocks: list[object] = []
        for k, kind in enumerate(kinds):
            blocks.append(text.sentence())
            blocks.append(_image(rng, text, kind, f"d{n}-{k:03d}.png"))
        blocks.append(text.sentence())
        books.append(Book(f"dense-{n:03d}.epub", "en", [blocks], title=text.caption()))
    return books


def _batch(rng: random.Random, cache: dict) -> list[Book]:
    books = []
    for b in range(BATCH_BOOKS):
        lang = rng.choice(LANGUAGES)
        text = _Text(rng, lang, cache)
        clean = rng.random() < 0.25
        book = Book(f"batch-{b:04d}.epub", lang, [], title=text.caption())
        book.has_access = rng.random() >= 0.15
        if not clean:
            book.has_language = rng.random() >= 0.44
            book.has_title = rng.random() >= 0.10
        chapters: list[list[object]] = [
            [text.sentence() for _ in range(rng.randint(2, 4))] for _ in range(3)
        ]
        for k in range(rng.randint(0, 3)):
            if clean:
                kind = rng.choice(("decorative", "adequate"))
            else:
                kind = "target" if rng.random() < 0.7 else rng.choice(("decorative", "adequate"))
            chapter = chapters[rng.randrange(3)]
            chapter.insert(rng.randint(0, len(chapter)), _image(rng, text, kind, f"b{k}.png"))
        book.chapters = chapters
        if not clean and book.pre_errors() == 0:
            book.has_language = False  # a non-clean book needs one error-level issue
        books.append(book)
    return books


def _remote(rng: random.Random, cache: dict) -> list[Book]:
    books = []
    for b in range(REMOTE_BOOKS):
        lang = rng.choice(LANGUAGES)
        text = _Text(rng, lang, cache)
        book = Book(f"remote-{b:03d}.epub", lang, [], title=text.caption())
        book.has_language = rng.random() >= 0.33
        chapters: list[list[object]] = [
            [text.sentence() for _ in range(rng.randint(3, 5))] for _ in range(3)
        ]
        kinds = ["target"] * rng.randint(8, 16) + ["decorative", "adequate"]
        for k, kind in enumerate(kinds):
            chapter = chapters[k % 3]
            chapter.insert(rng.randint(0, len(chapter)), _image(rng, text, kind, f"r{k:02d}.png"))
        book.chapters = chapters
        books.append(book)
    return books


_BUILDERS = {"dense": _dense, "batch": _batch, "remote": _remote}


def build(workload: str, seed: int) -> Corpus:
    rng = random.Random(f"{workload}:{seed}")
    return Corpus(workload, seed, _BUILDERS[workload](rng, {}))


def write(corpus: Corpus, out_dir: Path) -> dict:
    """Write books/, references.json and truth.json under out_dir; return the truth."""
    books_dir = out_dir / "books"
    books_dir.mkdir(parents=True, exist_ok=True)
    for book in corpus.books:
        (books_dir / book.name).write_bytes(book_bytes(book))
    truth = corpus.truth()
    (out_dir / "references.json").write_text(
        json.dumps(corpus.references(), ensure_ascii=False, indent=1), encoding="utf-8"
    )
    (out_dir / "truth.json").write_text(json.dumps(truth, ensure_ascii=False), encoding="utf-8")
    return truth

