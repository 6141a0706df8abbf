"""Golden digests of altgen's outputs, so that byte identity is a test.

Builds two small fixed corpora with tests/epubgen.py and runs `altgen audit`,
`altgen repair` and `altgen validate` on each through `altgen.cli.main`, at
--jobs 1 and --jobs 2, with ALTGEN_EPOCH=0:

- stub: 66 books for the stub backend, enough for a pool of two workers.
  Among them are clean books, a tag-soup chapter no alt can mend
  (MalformedModifiedDoc before any caption request) and a manifest href
  that names no entry (ManifestDanglingHref).
- remote: 6 books against tests/mockserver.py, which fails every caption of
  a figure numbered 3. One chapter has two valueless alts, one of them on
  figure 3: no alt mends it then, and rebuild refuses it
  (MalformedModifiedDoc after captioning).

Every command runs in the corpus directory on relative paths, so that the
reports, stdout and stderr hold the same paths on every machine. For each
command the digests are the SHA-256 of its stdout and its stderr, and its
exit code; for repair also those of altgen-report.json and of each output
book, raw and inflated (entry names, order, compression methods and data).
Raw zip bytes depend on the zlib build, so zlib.ZLIB_RUNTIME_VERSION is
recorded beside them; the images are fixed bytes, so the inflated digests do
not. Needs altgen importable (installed, or src/ on PYTHONPATH). Usage:

    python3 tools/golden.py                          # print the digests
    python3 tools/golden.py tests/data/golden.json   # write them there
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import shutil
import sys
import tempfile
import zipfile
import zlib
from pathlib import Path
from unittest import mock

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tests"))

from epubgen import build_zip, container_xml, make_book, opf, page  # noqa: E402
from mockserver import MockBackendServer  # noqa: E402

from altgen.cli import main as altgen  # noqa: E402

# epubgen.tiny_png() as built with zlib 1.2.13, kept as bytes so that the
# books' content does not depend on the zlib build
PNG = bytes.fromhex(
    "89504e470d0a1a0a0000000d4948445200000001000000010802000000907753de0000000c"
    "49444154789c63f8cfc0000003010100c9fe92ef0000000049454e44ae426082"
)
STUB_BOOKS = 64  # two workers' worth: the pool takes 2 * CPU_BOOKS_PER_WORKER
FAILING_FIGURE = 3
RUNS = ((1, "json"), (2, "json"), (1, "text"))
SOUP = b'<html><body><p>soup<br><img src="images/a.png"></body></html>'


def _image(name: str, alt: str | None = None, **spec) -> dict:
    """An epubgen image spec; a PNG gets the fixed bytes."""
    return {"name": name, "alt": alt, "data": None if name.endswith(".svg") else PNG, **spec}


def _one_chapter(chapter: bytes, hrefs: list[str]) -> bytes:
    """A one-chapter book whose manifest lists `hrefs`; only those under
    images/ are packaged, so any other names no entry."""
    manifest = [("c1", "ch1.xhtml", "application/xhtml+xml")]
    manifest += [(f"i{k}", href, "image/png") for k, href in enumerate(hrefs)]
    entries = [
        ("META-INF/container.xml", container_xml()),
        ("OEBPS/ch1.xhtml", chapter),
        ("OEBPS/content.opf", opf(manifest=manifest, spine=["c1"])),
    ]
    images = [(f"OEBPS/{href}", PNG) for href in hrefs if href.startswith("images/")]
    return build_zip(entries + images)


def _stub_book(i: int) -> bytes:
    caption = f"A red fox at dusk, plate {i}"
    kind = i % 8
    if kind == 0:  # clean
        return make_book(images=[_image("fox.png", "A red fox in snow", caption=caption)])
    if kind == 1:
        return make_book(n_chapters=1, language=None, images=[_image("fox.png", caption=caption)])
    if kind == 2:
        svg = _image("map.svg", chapter=1, svg_title="Map")
        return make_book(title=None, images=[_image("fox.png", caption=caption), svg])
    if kind == 3:
        return make_book(images=[_image("rule.png", "", decorative=True), _image("fox.png")])
    if kind == 4:  # an alt that is the file name is recaptioned
        images = [_image("fox.png", "fox.png", caption=caption), _image("owl.png")]
        return make_book(access=False, images=images)
    if kind == 5:  # tag soup that the alts mend
        chapter = page('<p>two</p><img src="images/a.png" alt/><img src="images/b.png"/>')
        return _one_chapter(chapter, ["images/a.png", "images/b.png"])
    if kind == 6:  # so is one too short
        return make_book(language="not a tag!!", images=[_image("fox.png", "img"), _image("owl.png")])
    images = [_image(f"p{c}.png", chapter=c, caption=caption) for c in range(3)]
    return make_book(n_chapters=3, images=images)


def _remote_book(i: int) -> bytes:
    if i == 0:  # two valueless alts, one of them on the failing figure
        figures = "".join(
            f'<figure><img src="images/f{k}.png"{alt}/><figcaption>Figure {k}</figcaption>'
            "</figure>"
            for k, alt in ((1, " alt"), (2, ""), (FAILING_FIGURE, " alt"))
        )
        return _one_chapter(page(figures), [f"images/f{k}.png" for k in (1, 2, FAILING_FIGURE)])
    figures = [_image(f"f{k}.png", chapter=k % 2, caption=f"Figure {k}") for k in range(i, i + 3)]
    return make_book(language=None if i % 2 else "en", images=figures)


def _references(names: list[str], alt: str) -> list[dict]:
    return [{"epub": n, "doc": "OEBPS/ch1.xhtml", "index": 0, "alt": alt} for n in names]


def _write_corpora(work: Path) -> None:
    stub = work / "stub" / "books"
    stub.mkdir(parents=True)
    for i in range(STUB_BOOKS):
        (stub / f"b{i:02d}.epub").write_bytes(_stub_book(i))
    (stub / "soup.epub").write_bytes(_one_chapter(SOUP, ["images/a.png"]))
    dangling = _one_chapter(page('<img src="images/a.png"/>'), ["images/a.png", "art/gone.png"])
    (stub / "dangling.epub").write_bytes(dangling)
    refs = _references([f"b{i:02d}.epub" for i in range(16)] + ["soup.epub"], "A red fox at dusk")
    (work / "stub" / "refs.json").write_text(json.dumps(refs), encoding="utf-8")
    remote = work / "remote" / "books"
    remote.mkdir(parents=True)
    for i in range(6):
        (remote / f"r{i}.epub").write_bytes(_remote_book(i))
    refs = _references([f"r{i}.epub" for i in range(6)], "Figure number 1.")
    (work / "remote" / "refs.json").write_text(json.dumps(refs), encoding="utf-8")


def _respond(path: str, body: bytes) -> tuple[int, bytes]:
    """The mock service: a caption from the figure's number, failing for
    FAILING_FIGURE; a short vector per text; English for every sample."""
    request = json.loads(body)
    if path == "/v1/caption":
        k = int(request["context"]["figcaption"].rsplit(" ", 1)[1])
        if k == FAILING_FIGURE:
            return 500, b'{"error": "no caption"}'
        reply = {"alt_text": f"Figure number {k}.", "confidence": 0.9}
    elif path == "/v1/embed":
        reply = {"embeddings": [[1.0, len(t), sum(map(ord, t)) % 97] for t in request["texts"]]}
    else:
        reply = {"lang": "en", "confidence": 0.9}
    return 200, json.dumps(reply).encode("utf-8")


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _inflated(book: bytes) -> str:
    digest = hashlib.sha256()
    with zipfile.ZipFile(io.BytesIO(book)) as zf:
        for info in zf.infolist():
            digest.update(json.dumps([info.filename, info.compress_type]).encode("utf-8"))
            digest.update(hashlib.sha256(zf.read(info)).digest())
    return digest.hexdigest()


def _command(argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = altgen(argv)
    return {
        "exit": code,
        "stdout": _sha(out.getvalue().encode("utf-8")),
        "stderr": _sha(err.getvalue().encode("utf-8")),
    }


def _corpus_runs(corpus: str, backend: str) -> dict:
    runs = {}
    for jobs, report in RUNS:
        common = ["--backend", backend, "--jobs", str(jobs), "--report", report]
        out = "out"  # the same for every run, as is each report's output_path
        shutil.rmtree(out, ignore_errors=True)
        repair = _command(["repair", "books", "-o", out, *common])
        books = sorted(p for p in Path(out).iterdir() if p.suffix == ".epub")
        repair["report"] = _sha(Path(out, "altgen-report.json").read_bytes())
        repair["books"] = {
            p.name: {"raw": _sha(p.read_bytes()), "inflated": _inflated(p.read_bytes())}
            for p in books
        }
        runs[f"{corpus} --jobs {jobs} --report {report}"] = {
            "audit": _command(["audit", "books", *common]),
            "repair": repair,
            "validate": _command(["validate", out, "--references", "refs.json", *common]),
        }
    return runs


def digests(work: Path) -> dict:
    """Build the corpora under `work` (an empty directory), run every
    command and return the digests."""
    _write_corpora(work)
    cwd = os.getcwd()
    try:
        with mock.patch.dict(os.environ, {"ALTGEN_EPOCH": "0"}):
            os.chdir(work / "stub")
            runs = _corpus_runs("stub", "stub")
            os.chdir(work / "remote")
            with MockBackendServer() as server:
                server.script.respond = _respond
                runs.update(_corpus_runs("remote", server.url))
    finally:
        os.chdir(cwd)
    return {"zlib": zlib.ZLIB_RUNTIME_VERSION, "runs": runs}


def main(argv: list[str]) -> int:
    with tempfile.TemporaryDirectory() as work:
        text = json.dumps(digests(Path(work)), indent=1, sort_keys=True) + "\n"
    if argv:
        Path(argv[0]).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
