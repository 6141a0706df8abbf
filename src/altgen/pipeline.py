"""Batch orchestration: audit, repair, and validate over files and
directories, with per-file parallelism and JSON/text reporting.

Stage order per file is fixed: parse and audit, caption generation, metadata
enrichment, reconstruction, re-audit. Captioning takes each content document
in one pass: one parse, one context walk for all of its targets, then one
splice of all their alts, checked once per document. A document that cannot
be repaired fails its file, never the batch. Files are independent; parallel
runs produce the same per-file bytes as jobs=1. Setting ALTGEN_EPOCH freezes
the timing clock so reports become byte-stable.
"""

from __future__ import annotations

import json
import os
import posixpath
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path

from altgen.audit import AuditReport, audit
from altgen.backend import (
    BackendError,
    CaptionRequest,
    ENV_BACKEND_TOKEN,
    ENV_BACKEND_URL,
    RemoteBackend,
    StubBackend,
    SUPPORTED_MEDIA_TYPES,
)
from altgen.container import ArchiveEntry, EpubArchive, open_epub
from altgen.content import ContentDocument, find_images
from altgen.enrich import AppliedFix, enrich_metadata
from altgen.errors import AltgenError
from altgen.langdetect import EnsembleConfig, detect_language
from altgen.metrics import MetricReport, corpus_metrics, error_reduction_rate
from altgen.package import MetaKind, PackageDocument, XHTML_MEDIA_TYPES, parse_opf
from altgen.reconstruct import IntegrityErrors, rebuild, write_file_atomic
from altgen.audit import is_well_formed_language_tag

ENV_EPOCH = "ALTGEN_EPOCH"
REPORT_FILENAME = "altgen-report.json"

MIN_ADEQUATE_ALT = 5

_MEDIA_BY_EXTENSION = {
    ".jpg": "image/jpeg",
    ".jpeg": "image/jpeg",
    ".png": "image/png",
    ".gif": "image/gif",
    ".svg": "image/svg+xml",
    ".webp": "image/webp",
}


class PipelineError(AltgenError):
    """Operational failure: bad paths, unreadable config, unwritable output."""


class FileStatus(Enum):
    REPAIRED = "Repaired"
    CLEAN_SKIPPED = "CleanSkipped"
    FAILED = "Failed"
    AUDITED = "Audited"


@dataclass
class PipelineConfig:
    backend: str = "stub"  # "stub" or a remote base URL
    jobs: int = 0  # 0 means logical CPU count
    max_alt_length: int = 250
    bleu_max_n: int = 4
    smoothing: bool = False
    output_dir: Path | None = None
    report_format: str = "text"  # "json" | "text"
    strict: bool = False

    def __post_init__(self) -> None:
        if self.jobs == 0:
            self.jobs = os.cpu_count() or 1
        if self.jobs < 1:
            raise ValueError("jobs must be >= 1")
        if not self.backend:
            raise ValueError("backend must be 'stub' or a URL")
        if self.report_format not in ("json", "text"):
            raise ValueError(f"unknown report format {self.report_format!r}")
        if self.output_dir is not None:
            self.output_dir = Path(self.output_dir)


@dataclass
class FileResult:
    input_path: str
    status: FileStatus
    pre_report: AuditReport | None = None
    post_report: AuditReport | None = None
    fixes: list[AppliedFix] = field(default_factory=list)
    alts_written: int = 0
    caption_failures: int = 0
    elapsed_seconds: float = 0.0
    failure_reason: str | None = None
    output_path: str | None = None

    def to_dict(self) -> dict:
        return {
            "input_path": self.input_path,
            "status": self.status.value,
            "reason": self.failure_reason,
            "pre_report": self.pre_report.to_dict() if self.pre_report else None,
            "post_report": self.post_report.to_dict() if self.post_report else None,
            "fixes": [f.to_dict() for f in self.fixes],
            "alts_written": self.alts_written,
            "caption_failures": self.caption_failures,
            "elapsed_seconds": self.elapsed_seconds,
            "output_path": self.output_path,
        }


def _clock() -> float:
    epoch = os.environ.get(ENV_EPOCH)
    if epoch:
        try:
            return float(epoch)
        except ValueError:
            return 0.0
    return time.perf_counter()


def make_backend(config: PipelineConfig):
    if config.backend == "stub":
        return StubBackend()
    return RemoteBackend(config.backend, token=os.environ.get(ENV_BACKEND_TOKEN))


def default_backend_name() -> str:
    return os.environ.get(ENV_BACKEND_URL) or "stub"


def collect_epub_paths(paths: list[str | Path]) -> list[Path]:
    """Expand files and directories (recursive *.epub), sorted. Raises
    PipelineError for missing paths or an empty result."""
    out: list[Path] = []
    for raw in paths:
        p = Path(raw)
        if p.is_file():
            out.append(p)
        elif p.is_dir():
            out.extend(sorted(q for q in p.rglob("*.epub") if q.is_file()))
        else:
            raise PipelineError(f"path does not exist: {p}")
    out = sorted(set(out))
    if not out:
        raise PipelineError("no EPUB files to process")
    return out


def assign_output_names(paths: list[Path]) -> dict[Path, str]:
    """Deterministic output basenames; collisions get numeric suffixes."""
    names: dict[Path, str] = {}
    used: set[str] = {REPORT_FILENAME}
    for p in paths:
        candidate = p.name
        k = 2
        while candidate in used:
            candidate = f"{p.stem}-{k}{p.suffix}"
            k += 1
        used.add(candidate)
        names[p] = candidate
    return names


def _open_for_pipeline(data: bytes) -> tuple[EpubArchive, PackageDocument]:
    archive = open_epub(data)
    opf_entry = archive.entry(archive.rootfile_path)
    if opf_entry is None:
        raise PipelineError(f"rootfile {archive.rootfile_path!r} missing from archive")
    return archive, parse_opf(opf_entry)


def _audit_one(path: Path) -> FileResult:
    started = _clock()
    try:
        archive, pkg = _open_for_pipeline(path.read_bytes())
        report = audit(archive, pkg)
    except (AltgenError, OSError) as exc:
        return FileResult(
            input_path=str(path),
            status=FileStatus.FAILED,
            failure_reason=str(exc),
            elapsed_seconds=max(0.0, _clock() - started),
        )
    return FileResult(
        input_path=str(path),
        status=FileStatus.AUDITED,
        pre_report=report,
        elapsed_seconds=max(0.0, _clock() - started),
    )


class _StrictCaptionFailure(Exception):
    def __init__(self, cause: BackendError):
        self.cause = cause
        super().__init__(str(cause))


def _media_types(pkg: PackageDocument) -> dict[str, str]:
    """Manifest media type by href; the first item with a type wins."""
    out: dict[str, str] = {}
    for item in pkg.manifest:
        if item.media_type:
            out.setdefault(item.href, item.media_type)
    return out


def _media_type_for(media_types: dict[str, str], src: str) -> str | None:
    return media_types.get(src) or _MEDIA_BY_EXTENSION.get(posixpath.splitext(src)[1].lower())


def _caption_language(pkg: PackageDocument) -> str | None:
    for value in pkg.values(MetaKind.DC_LANGUAGE):
        value = value.strip()
        if is_well_formed_language_tag(value):
            return value
    return None


def _inadequate(existing_alt: str | None, src: str) -> bool:
    if existing_alt is None:
        return True
    alt = existing_alt.strip()
    if len(alt) < MIN_ADEQUATE_ALT:
        return True
    return alt.lower() == posixpath.basename(src).lower()


def _repair_one(path: Path, out_path: Path, config: PipelineConfig, backend) -> FileResult:
    started = _clock()

    def finish(result: FileResult) -> FileResult:
        result.elapsed_seconds = max(0.0, _clock() - started)
        return result

    try:
        data = path.read_bytes()
        archive, pkg = _open_for_pipeline(data)
    except (AltgenError, OSError) as exc:
        return finish(
            FileResult(str(path), FileStatus.FAILED, failure_reason=str(exc))
        )

    pre = audit(archive, pkg)
    if pre.error_count == 0:
        write_file_atomic(out_path, data)
        return finish(
            FileResult(
                str(path),
                FileStatus.CLEAN_SKIPPED,
                pre_report=pre,
                output_path=str(out_path),
            )
        )

    language = _caption_language(pkg)
    media_types = _media_types(pkg)
    alts_written = 0
    caption_failures = 0
    modified: dict[str, ArchiveEntry] = {}
    try:
        for item in pkg.manifest:
            if item.media_type not in XHTML_MEDIA_TYPES:
                continue
            entry = archive.entry(item.href)
            if entry is None:
                continue
            try:
                document = ContentDocument(entry, item.href)
            except AltgenError:
                continue  # audit already recorded the warning
            targets = []
            for occ in document.images:
                if occ.decorative or not _inadequate(occ.existing_alt, occ.src):
                    continue
                image_entry = archive.entry(occ.src)
                if image_entry is None:
                    continue  # dangling; nothing to caption
                media_type = _media_type_for(media_types, occ.src)
                if media_type not in SUPPORTED_MEDIA_TYPES:
                    continue
                targets.append((occ, image_entry, media_type))
            contexts = document.contexts([occ.element_index for occ, _, _ in targets], pkg)
            alts: dict[int, str] = {}
            for occ, image_entry, media_type in targets:
                request = CaptionRequest(
                    image_bytes=image_entry.data,
                    media_type=media_type,
                    context=contexts[occ.element_index],
                    max_length=config.max_alt_length,
                    language=language,
                    source_name=posixpath.basename(occ.src),
                )
                try:
                    candidate = backend.generate_alt(request)
                except BackendError as exc:
                    if config.strict:
                        raise _StrictCaptionFailure(exc)
                    caption_failures += 1
                    continue
                alts[occ.element_index] = candidate.alt_text
            if alts:
                modified[item.href] = document.with_alts(alts)
                alts_written += len(alts)
    except _StrictCaptionFailure as exc:
        return finish(
            FileResult(
                str(path),
                FileStatus.FAILED,
                pre_report=pre,
                caption_failures=caption_failures + 1,
                failure_reason=f"backend failure with --strict: {exc.cause}",
            )
        )
    except AltgenError as exc:
        # one document that cannot be repaired fails its book, not the batch
        return finish(
            FileResult(
                str(path),
                FileStatus.FAILED,
                pre_report=pre,
                caption_failures=caption_failures,
                failure_reason=str(exc),
            )
        )

    ensemble = EnsembleConfig(
        remote=backend if getattr(backend, "supports_language_detection", False) else None
    )
    pkg_enriched, fixes = enrich_metadata(
        pkg,
        archive,
        lambda text: detect_language(text, ensemble),
        fallback_title=path.stem,
        include_alt_feature=True,
    )

    try:
        out_bytes = rebuild(archive, pkg_enriched, list(modified.values()))
        out_archive, out_pkg = _open_for_pipeline(out_bytes)
        post = audit(out_archive, out_pkg)
        write_file_atomic(out_path, out_bytes)
    except (IntegrityErrors, AltgenError, OSError) as exc:
        return finish(
            FileResult(
                str(path),
                FileStatus.FAILED,
                pre_report=pre,
                fixes=fixes,
                alts_written=alts_written,
                caption_failures=caption_failures,
                failure_reason=str(exc),
            )
        )
    return finish(
        FileResult(
            str(path),
            FileStatus.REPAIRED,
            pre_report=pre,
            post_report=post,
            fixes=fixes,
            alts_written=alts_written,
            caption_failures=caption_failures,
            output_path=str(out_path),
        )
    )


def _run_pool(worker, items, jobs: int) -> list:
    if jobs == 1 or len(items) == 1:
        return [worker(item) for item in items]
    with ThreadPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(worker, items))


def aggregate_results(results: list[FileResult]) -> dict:
    pre_errors = sum(r.pre_report.error_count for r in results if r.pre_report)
    post_errors = 0
    for r in results:
        if r.post_report is not None:
            post_errors += r.post_report.error_count
        elif r.pre_report is not None and r.status is not FileStatus.CLEAN_SKIPPED:
            post_errors += r.pre_report.error_count
    err_percent, no_baseline = error_reduction_rate(pre_errors, post_errors)
    timings = [r.elapsed_seconds for r in results]
    seconds_per_file = sum(timings) / len(timings) if timings else 0.0
    return {
        "pre_errors": pre_errors,
        "post_errors": post_errors,
        "err_percent": err_percent,
        "no_baseline": no_baseline,
        "seconds_per_file": seconds_per_file,
    }


def report_dict(results: list[FileResult]) -> dict:
    return {
        "files": [r.to_dict() for r in results],
        "aggregate": aggregate_results(results),
    }


def run_audit(paths: list[str | Path], config: PipelineConfig) -> tuple[list[FileResult], int]:
    files = collect_epub_paths(paths)
    results = _run_pool(_audit_one, files, config.jobs)
    results.sort(key=lambda r: r.input_path)
    if any(r.status is FileStatus.FAILED for r in results):
        exit_code = 2
    elif aggregate_results(results)["pre_errors"] > 0:
        exit_code = 1
    else:
        exit_code = 0
    return results, exit_code


def run_repair(paths: list[str | Path], config: PipelineConfig) -> tuple[list[FileResult], int]:
    if config.output_dir is None:
        raise PipelineError("repair requires an output directory")
    files = collect_epub_paths(paths)
    try:
        config.output_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise PipelineError(f"cannot create output directory: {exc}") from exc
    names = assign_output_names(files)
    backend = make_backend(config)
    results = _run_pool(
        lambda p: _repair_one(p, config.output_dir / names[p], config, backend),
        files,
        config.jobs,
    )
    results.sort(key=lambda r: r.input_path)
    payload = json.dumps(report_dict(results), indent=2, sort_keys=True).encode("utf-8")
    write_file_atomic(config.output_dir / REPORT_FILENAME, payload)
    if any(r.status is FileStatus.FAILED for r in results):
        exit_code = 2
    elif aggregate_results(results)["post_errors"] > 0:
        exit_code = 1
    else:
        exit_code = 0
    return results, exit_code


def _load_stored_report(repaired_dir: Path) -> dict | None:
    report_path = repaired_dir / REPORT_FILENAME
    if not report_path.is_file():
        return None
    try:
        return json.loads(report_path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise PipelineError(f"unreadable {REPORT_FILENAME}: {exc}") from exc


def load_references(path: Path) -> list[dict]:
    try:
        parsed = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise PipelineError(f"unreadable references file: {exc}") from exc
    if not isinstance(parsed, list):
        raise PipelineError("references file must be a JSON array")
    for row in parsed:
        if not isinstance(row, dict) or not {"epub", "doc", "index", "alt"} <= set(row):
            raise PipelineError(
                'reference entries need "epub", "doc", "index", and "alt" fields'
            )
    return parsed


def run_validate(
    repaired_dir: str | Path, references: str | Path, config: PipelineConfig
) -> tuple[MetricReport, int]:
    repaired_dir = Path(repaired_dir)
    if not repaired_dir.is_dir():
        raise PipelineError(f"not a directory: {repaired_dir}")
    refs = load_references(Path(references))
    backend = make_backend(config)

    archives: dict[str, EpubArchive | None] = {}
    occurrences_cache: dict[tuple[str, str], list] = {}
    pairs: list[tuple[str, str]] = []
    missing = 0
    for ref in refs:
        epub_name = ref["epub"]
        if epub_name not in archives:
            epub_path = repaired_dir / epub_name
            try:
                archives[epub_name] = open_epub(epub_path.read_bytes())
            except (AltgenError, OSError):
                archives[epub_name] = None
        archive = archives[epub_name]
        if archive is None:
            missing += 1
            continue
        key = (epub_name, ref["doc"])
        if key not in occurrences_cache:
            entry = archive.entry(ref["doc"])
            if entry is None:
                occurrences_cache[key] = []
            else:
                try:
                    occurrences_cache[key] = find_images(entry, ref["doc"])
                except AltgenError:
                    occurrences_cache[key] = []
        occs = occurrences_cache[key]
        index = ref["index"]
        if not isinstance(index, int) or index < 0 or index >= len(occs):
            missing += 1
            continue
        written = occs[index].existing_alt
        if not written:
            missing += 1
            continue
        pairs.append((written, ref["alt"]))

    stored = _load_stored_report(repaired_dir)
    timings: list[float] = []
    if stored and isinstance(stored.get("files"), list):
        for row in stored["files"]:
            value = row.get("elapsed_seconds")
            if isinstance(value, (int, float)):
                timings.append(float(value))

    if pairs:
        report = corpus_metrics(
            pairs,
            backend.embed_texts,
            timings,
            bleu_max_n=config.bleu_max_n,
            smoothing=config.smoothing,
        )
    else:
        report = MetricReport(n_files=len(timings))
        if timings:
            report.seconds_per_file = sum(timings) / len(timings)
    report.missing_references = missing

    exit_code = 0
    if stored and isinstance(stored.get("aggregate"), dict):
        aggregate = stored["aggregate"]
        pre = aggregate.get("pre_errors")
        post = aggregate.get("post_errors")
        if isinstance(pre, int) and isinstance(post, int):
            report.err_percent, report.no_baseline = error_reduction_rate(pre, post)
            if post > 0:
                exit_code = 1
    return report, exit_code
