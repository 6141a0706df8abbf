"""Output checker that shares no code with altgen.

It reads containers with ``zipfile`` and documents with ElementTree and
regular expressions, and compares them with the generator's ground truth
(``truth.json``). Each function returns a list of problems; empty means the
output is correct.
"""

from __future__ import annotations

import io
import re
import zipfile
from xml.etree import ElementTree as ET

MIMETYPE = b"application/epub+zip"
_XHTML_IMG = "{http://www.w3.org/1999/xhtml}img"


def _entries(data: bytes) -> list[tuple[zipfile.ZipInfo, bytes]]:
    with zipfile.ZipFile(io.BytesIO(data)) as zf:
        return [(info, zf.read(info)) for info in zf.infolist()]


def _check_container(entries: list[tuple[zipfile.ZipInfo, bytes]]) -> list[str]:
    if not entries:
        return ["empty archive"]
    info, data = entries[0]
    if info.filename != "mimetype":
        return [f"first entry is {info.filename!r}, not mimetype"]
    problems = []
    if info.compress_type != zipfile.ZIP_STORED:
        problems.append("mimetype entry is compressed")
    if data != MIMETYPE:
        problems.append(f"mimetype content is {data[:40]!r}")
    return problems


def _check_images(doc: str, data: bytes, expected: list[dict], max_alt: int) -> list[str]:
    try:
        root = ET.fromstring(data)
    except ET.ParseError as exc:
        return [f"{doc}: not well-formed: {exc}"]
    imgs = list(root.iter(_XHTML_IMG))
    if len(imgs) != len(expected):
        return [f"{doc}: {len(imgs)} images, expected {len(expected)}"]
    problems = []
    for index, (img, want) in enumerate(zip(imgs, expected)):
        alt = img.get("alt")
        where = f"{doc} image {index}"
        if want["kind"] == "target":
            if not alt or not alt.strip():
                problems.append(f"{where}: no alt written")
            elif len(alt) > max_alt or "\n" in alt:
                problems.append(f"{where}: alt of {len(alt)} chars breaks the length budget")
        elif alt != want["alt"]:
            problems.append(f"{where}: {want['kind']} alt changed to {alt!r}")
        if want["kind"] == "decorative" and img.get("role") != "presentation":
            problems.append(f"{where}: decorative role lost")
    return problems


def _check_opf(data: bytes, row: dict) -> list[str]:
    text = data.decode("utf-8")
    problems = []
    if row["fix_language"]:
        found = re.findall(r"<dc:language[^>]*>\s*([^<]*?)\s*</dc:language>", text)
        if found != [row["lang"]]:
            problems.append(f"dc:language is {found}, expected [{row['lang']!r}]")
    if row["fix_title"] and not re.search(r"<dc:title[^>]*>\s*[^<\s][^<]*</dc:title>", text):
        problems.append("dc:title not added")
    if row["fix_access"] and not re.search(r'property="schema:accessMode"', text):
        problems.append("schema:accessMode not added")
    return problems


def check_repaired_book(src: bytes, out: bytes, row: dict, max_alt: int) -> list[str]:
    """Compare one repaired (or copied) book with its input and ground truth."""
    if row["status"] == "CleanSkipped":
        return [] if out == src else ["clean book not copied byte-identical"]
    try:
        before, after = _entries(src), _entries(out)
    except zipfile.BadZipFile as exc:
        return [f"unreadable output: {exc}"]
    problems = _check_container(after)
    if [i.filename for i, _ in before] != [i.filename for i, _ in after]:
        return problems + ["entry names or order changed"]
    changed = set(row["changed"])
    for (bi, bdata), (ai, adata) in zip(before, after):
        name = bi.filename
        if (ai.compress_type, ai.date_time) != (bi.compress_type, bi.date_time):
            problems.append(f"{name}: compression or timestamp changed")
        if name not in changed:
            if adata != bdata:
                problems.append(f"{name}: untouched entry changed")
            continue
        if adata == bdata:
            problems.append(f"{name}: expected a change, entry is unchanged")
        if name.endswith(".opf"):
            problems.extend(_check_opf(adata, row))
    for doc, expected in row["images"].items():
        data = next((d for i, d in after if i.filename == doc), None)
        if data is None:
            problems.append(f"{doc}: missing from output")
        else:
            problems.extend(_check_images(doc, data, expected, max_alt))
    return problems


def check_audit_report(report: dict, rows: list[dict]) -> dict[str, list[str]]:
    """Per-book problems in `altgen audit --report json` output."""
    by_name = {f["input_path"].rsplit("/", 1)[-1]: f for f in report.get("files", [])}
    problems: dict[str, list[str]] = {}
    for row in rows:
        got = by_name.get(row["name"])
        if got is None:
            problems[row["name"]] = ["missing from audit report"]
        elif got["status"] != "Audited":
            problems[row["name"]] = [f"audit status {got['status']}"]
        elif got["pre_report"]["error_count"] != row["pre_errors"]:
            problems[row["name"]] = [
                f"audit counted {got['pre_report']['error_count']} errors, "
                f"expected {row['pre_errors']}"
            ]
    return problems


def check_repair_report(report: dict, rows: list[dict]) -> dict[str, list[str]]:
    """Per-book problems in `altgen repair --report json` output."""
    by_name = {f["input_path"].rsplit("/", 1)[-1]: f for f in report.get("files", [])}
    problems: dict[str, list[str]] = {}
    for row in rows:
        got = by_name.get(row["name"])
        targets = sum(i["kind"] == "target" for imgs in row["images"].values() for i in imgs)
        if got is None:
            problems[row["name"]] = ["missing from repair report"]
        elif got["status"] != row["status"]:
            problems[row["name"]] = [f"status {got['status']} ({got['reason']}), expected {row['status']}"]
        elif row["status"] == "Repaired" and (
            got["post_report"]["error_count"] != 0 or got["alts_written"] != targets
        ):
            problems[row["name"]] = [
                f"{got['alts_written']} alts written for {targets} targets, "
                f"{got['post_report']['error_count']} errors left"
            ]
    return problems


def check_validate_report(report: dict, n_refs: int) -> list[str]:
    """Problems in `altgen validate --report json` output."""
    problems = []
    if report.get("n_pairs") != n_refs or report.get("missing_references") != 0:
        problems.append(
            f"{report.get('n_pairs')} pairs scored, {report.get('missing_references')} "
            f"references missing, expected {n_refs} and 0"
        )
    if report.get("embed_failures") or report.get("bleu_failures"):
        problems.append("embedding or BLEU failures")
    for key in ("cosine", "bleu", "err_percent"):
        if not isinstance(report.get(key), (int, float)):
            problems.append(f"{key} missing")
    return problems
