"""Batch orchestration: audit, repair, and validate over files and
directories, with per-file parallelism and JSON/text reporting.

Stage order per file is fixed: parse and audit, the integrity check,
caption generation, metadata enrichment, reconstruction, re-audit. Repair
unzips a book once and parses its OPF once. Each content document is parsed
once, by audit.read_documents; that parse gives the audit its images, the
captions their targets and their contexts (one tree walk per document), and
the language sample its text, and its tree is then released. The integrity
check (reconstruct.integrity_check) runs once, before any caption request,
and fails a book with every finding: a manifest href that names no entry,
and a document that no alts at its targets can make well-formed XML.
Captioning sends one `generate_alts` call per book for the targets of all
its documents, then splices each document's alts, document by document in
book order, checked by one re-parse of the bytes written. That re-parse is
also the written document's integrity verdict, which rebuild trusts, and its
part of the re-audit, which audits the repaired model (untouched documents
as first parsed, the enriched package) rather than the written file.
Enrichment returns a new package only when it changes one, and only then is
the OPF written again: its edits are spliced into the OPF's own bytes,
inside <metadata>, and the rest of the OPF keeps its bytes. Any Exception
in any stage of a book, from reading its file to writing the repaired copy,
gives that book one Failed row and never stops the batch; the row keeps what
the stages before the failure found. When the exception is no AltgenError
or OSError, the reason starts "internal error" and the traceback goes to
stderr. Setting ALTGEN_EPOCH freezes the timing clock, in pool workers
too, so reports become byte-stable.

Each command loads only the modules it runs. The modules only repair and
validate use (backend, enrich, langdetect, reconstruct) are bound lazily:
registered at import, their bodies run on first use, so audit never loads
them. Repair loads them on the main thread before any book thread or
worker pool starts (_load), so forked workers inherit them loaded.

Files are independent, and taken largest first when several run at once.
Audit, and repair with the stub backend, are CPU-bound: they run in up to
`jobs` worker processes from the default multiprocessing context, one per
32 files, in chunks of about files / (8 * workers), and a batch too small
for two workers runs in the calling process. Repair against a remote
backend waits on the network: it runs up to `jobs` books at once on
threads of the calling process, which share one client and so its
in-flight cap. Results are sorted by input path, so parallel runs give the
same per-file bytes and report as jobs=1. A worker process that dies is a
PipelineError. Validation reads one book at a time in the calling process;
its embed calls go through `map_requests`, in chunks the backend sizes
(`embed_chunk_pairs`): for a remote backend, one request per in-flight
slot, all sent at once; for the stub, 16 pairs per call, run serially.
"""

from __future__ import annotations

import functools
import importlib.util
import json
import os
import posixpath
import sys
import time
import urllib.parse
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from types import ModuleType

from altgen.audit import AuditReport, audit, is_well_formed_language_tag, read_documents
from altgen.container import (
    ArchiveEntry,
    EpubArchive,
    NotWellFormed,
    finite_number,
    open_epub,
    parse_json,
)
from altgen.content import ContentDocument, ImageOccurrence, VisibleText
from altgen.errors import AltgenError
from altgen.metrics import MetricReport, corpus_metrics, error_reduction_rate, mean
from altgen.package import MetaKind, PackageDocument, parse_opf, serialize_opf


def _lazy(name: str) -> ModuleType:
    """altgen.<name>, put in sys.modules and on the package now, but with
    its body run only on its first attribute access (importlib's
    LazyLoader); a module already imported is returned as it is."""
    fullname = f"altgen.{name}"
    module = sys.modules.get(fullname)
    if module is None:
        spec = importlib.util.find_spec(fullname)
        spec.loader = importlib.util.LazyLoader(spec.loader)
        module = importlib.util.module_from_spec(spec)
        sys.modules[fullname] = module
        spec.loader.exec_module(module)
        setattr(sys.modules["altgen"], name, module)
    return module


# Only repair and validate run these.
backend = _lazy("backend")
enrich = _lazy("enrich")
langdetect = _lazy("langdetect")
reconstruct = _lazy("reconstruct")


def _load(*modules: ModuleType) -> None:
    """Run the bodies of lazily bound modules now, on the calling thread.
    A lazy module's first touch is not thread-safe before Python 3.12.3, so
    each is touched here before any fan-out thread or worker pool starts;
    a pool forked afterwards inherits them loaded."""
    for module in modules:
        vars(module)  # any attribute access runs the body


ENV_EPOCH = "ALTGEN_EPOCH"
ENV_BACKEND_URL = "ALTGEN_BACKEND_URL"
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
    fixes: list[enrich.AppliedFix] = field(default_factory=list)
    alts_written: int = 0
    caption_failures: int = 0
    elapsed_seconds: float = 0.0
    failure_reason: str | None = None
    output_path: str | None = None
    traceback: str | None = None  # of an internal error; never in the report

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
        return backend.StubBackend()
    token = os.environ.get(backend.ENV_BACKEND_TOKEN)
    return backend.RemoteBackend(config.backend, token=token)


def _check_backend(config: PipelineConfig) -> None:
    """Raises PipelineError unless the backend is the stub or an http(s)
    URL with a host (and a valid port, if one is given)."""
    if config.backend == "stub":
        return
    try:
        url = urllib.parse.urlsplit(config.backend)
        url.port  # raises ValueError for a port that is no number from 0 to 65535
    except ValueError:
        url = None
    if url is None or url.scheme not in ("http", "https") or not url.hostname:
        message = f"backend {config.backend!r} is neither 'stub' nor an http(s) URL with a host"
        raise PipelineError(message)


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


def _internal_error(result: FileResult, exc: Exception) -> None:
    """Fails the book for a fault in altgen; _by_path prints the traceback."""
    import traceback  # loaded only on a fault

    result.failure_reason = f"internal error: {type(exc).__name__}: {exc}"
    result.traceback = "".join(traceback.format_exception(exc))


def _audit_one(path: Path) -> FileResult:
    started = _clock()
    result = FileResult(str(path), FileStatus.FAILED)
    try:
        result.pre_report = audit(*_open_for_pipeline(path.read_bytes()))
        result.status = FileStatus.AUDITED
    except (AltgenError, OSError) as exc:
        result.failure_reason = str(exc)
    except Exception as exc:  # a fault in altgen fails its book, not the batch
        _internal_error(result, exc)
    result.elapsed_seconds = max(0.0, _clock() - started)
    return result


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


def _targets(
    document: ContentDocument, archive: EpubArchive, media_types: dict[str, str]
) -> list[tuple[ImageOccurrence, ArchiveEntry, str]]:
    """The document's images that get a caption request: not decorative,
    without an adequate alt, and packaged in a type the backend reads."""
    targets = []
    for occ in document.images:
        if occ.decorative or not _inadequate(occ.existing_alt, occ.src):
            continue
        image_entry = archive.entry(occ.src)
        if image_entry is None:
            continue  # dangling; nothing to caption
        media_type = _media_type_for(media_types, occ.src)
        if media_type not in backend.SUPPORTED_MEDIA_TYPES:
            continue
        targets.append((occ, image_entry, media_type))
    return targets


def _read_documents(archive: EpubArchive, pkg: PackageDocument) -> tuple[dict, dict, list]:
    """Parse each content document once, for the audit, the language sample
    and the captions, and release its tree before the next is parsed.

    Returns each document's images by href (None for one that cannot be
    parsed), the visible text of each document enrichment samples, and each
    document with caption targets, with its targets and their contexts.
    """
    media_types = _media_types(pkg)
    sampled = enrich.sampled_documents(pkg, archive)
    images: dict[str, list[ImageOccurrence] | None] = {}
    texts: dict[str, VisibleText | None] = {}
    chapters = []
    for href, document in read_documents(archive, pkg):
        if document is None:
            images[href] = texts[href] = None
            continue
        images[href] = document.images
        if href in sampled:
            texts[href] = document.visible_text(enrich.SAMPLE_CHARS)
        targets = _targets(document, archive, media_types)
        contexts = document.contexts([occ.element_index for occ, _, _ in targets], pkg)
        if targets:
            chapters.append((document, targets, contexts))
    return images, texts, chapters


def _repair_one(path: Path, out_path: Path, config: PipelineConfig, client) -> FileResult:
    """Repair one book. Each stage that passes fills its part of the result;
    status and output path are set only on success, so any failure leaves a
    Failed row holding what the stages before it found."""
    started = _clock()
    result = FileResult(str(path), FileStatus.FAILED)
    try:
        data = path.read_bytes()
        archive, pkg = _open_for_pipeline(data)
        images, texts, chapters = _read_documents(archive, pkg)
        result.pre_report = audit(archive, pkg, images)
        if result.pre_report.error_count == 0:
            reconstruct.write_file_atomic(out_path, data)
            result.status, result.output_path = FileStatus.CLEAN_SKIPPED, str(out_path)
            return result

        language = _caption_language(pkg)
        findings = reconstruct.integrity_check(
            archive,
            pkg,
            [(doc, [occ.element_index for occ, _, _ in targets]) for doc, targets, _ in chapters],
        )
        if findings:
            raise reconstruct.IntegrityErrors(findings)
        requests = [
            backend.CaptionRequest(
                image_bytes=image_entry.data,
                media_type=media_type,
                context=contexts[occ.element_index],
                max_length=config.max_alt_length,
                language=language,
                source_name=posixpath.basename(occ.src),
            )
            for _, targets, contexts in chapters
            for occ, image_entry, media_type in targets
        ]
        # the whole book's requests go out together; results come back in
        # request order, which is book order, and under --strict they stop
        # at the first failure
        outcomes = iter(client.generate_alts(requests, stop_on_error=config.strict))
        # kept apart from the result until the book is written: a Failed
        # row reports no alts
        alts_written = 0
        modified: list[ArchiveEntry] = []
        for document, targets, _ in chapters:
            alts: dict[int, str] = {}
            # zip stops at the chapter's last target without taking the
            # next chapter's first outcome
            for (occ, _, _), outcome in zip(targets, outcomes):
                if isinstance(outcome, backend.BackendError):
                    result.caption_failures += 1
                    if config.strict:
                        result.failure_reason = f"backend failure with --strict: {outcome}"
                        return result
                    continue
                alts[occ.element_index] = outcome.alt_text
            if alts:
                # the re-parse that checks the splice is the written
                # chapter's audit and its integrity verdict
                entry, images[document.doc_path] = document.splice(alts)
                modified.append(entry)
                alts_written += len(alts)

        ensemble = langdetect.EnsembleConfig(
            remote=client if client.supports_language_detection else None
        )
        pkg_enriched, result.fixes = enrich.enrich_metadata(
            pkg,
            archive,
            lambda text: langdetect.detect_language(text, ensemble),
            fallback_title=path.stem,
            texts=texts,
        )
        if pkg_enriched is not pkg:  # enrichment changed the package
            opf_entry = archive.entry(archive.rootfile_path)
            modified.append(opf_entry.with_data(serialize_opf(pkg_enriched)))
        written = reconstruct.rebuild(archive, modified)
        reconstruct.write_file_atomic(out_path, written)
        # the audit of the repaired model: untouched documents as parsed,
        # modified ones as their splice re-parsed them, the enriched package
        result.post_report = audit(archive, pkg_enriched, images)
        result.alts_written = alts_written
        result.status, result.output_path = FileStatus.REPAIRED, str(out_path)
    except (AltgenError, OSError) as exc:
        result.failure_reason = str(exc)
    except Exception as exc:  # a fault in altgen fails its book, not the batch
        _internal_error(result, exc)
    finally:
        result.elapsed_seconds = max(0.0, _clock() - started)
    return result


def _repair_task(item: tuple[Path, str], config: PipelineConfig) -> FileResult:
    """A stub repair in a pool worker. The stub has no state, so each book
    builds its own."""
    path, name = item
    return _repair_one(path, config.output_dir / name, config, make_backend(config))


# A worker process costs about 30 ms: its fork, its own first calls and the
# pickling of its results. Auditing a small book takes about 1 ms and
# repairing it with the stub about 4 ms, so CPU-bound work goes to a worker
# only in shares of at least this many books; on batches of 4 and of 30
# books, two processes made audit 12% to 47% slower than one.
CPU_BOOKS_PER_WORKER = 32
# Each worker's share goes out in about this many chunks, largest books
# first, so that the workers finish together.
CHUNKS_PER_WORKER = 8


def _workers(config: PipelineConfig, files: list[Path]) -> int:
    """Worker processes for a CPU-bound batch; 1 means the calling process."""
    return max(1, min(config.jobs, len(files) // CPU_BOOKS_PER_WORKER))


def _largest_first(files: list[Path]) -> list[Path]:
    """One large book can outlast all the small ones, so it goes first."""

    def size(path: Path) -> int:
        try:
            return path.stat().st_size
        except OSError:
            return 0  # the worker reports why it cannot read the file

    return sorted(files, key=size, reverse=True)


def _set_epoch(epoch: str) -> None:
    """Gives a pool worker the caller's ALTGEN_EPOCH, which a forkserver
    started earlier would not have."""
    os.environ[ENV_EPOCH] = epoch  # "" when unset, which _clock reads as unset


def _run_pool(task, items: list, workers: int) -> list[FileResult]:
    """task(item) for every item on `workers` processes, in the order given,
    a chunk of items at a time."""
    # imported here, so that runs in one process do not load multiprocessing
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    chunksize = max(1, len(items) // (workers * CHUNKS_PER_WORKER))
    try:
        with ProcessPoolExecutor(
            max_workers=workers, mp_context=multiprocessing.get_context(),
            initializer=_set_epoch, initargs=(os.environ.get(ENV_EPOCH, ""),),
        ) as pool:
            return list(pool.map(task, items, chunksize=chunksize))
    except BrokenProcessPool as exc:
        raise PipelineError(f"a worker process died: {exc}") from exc


def aggregate_results(results: list[FileResult]) -> dict:
    pre_errors = sum(r.pre_report.error_count for r in results if r.pre_report)
    post_errors = 0
    for r in results:
        if r.post_report is not None:
            post_errors += r.post_report.error_count
        elif r.pre_report is not None and r.status is not FileStatus.CLEAN_SKIPPED:
            post_errors += r.pre_report.error_count
    err_percent, no_baseline = error_reduction_rate(pre_errors, post_errors)
    return {
        "pre_errors": pre_errors,
        "post_errors": post_errors,
        "err_percent": err_percent,
        "no_baseline": no_baseline,
        "seconds_per_file": mean([r.elapsed_seconds for r in results]) or 0.0,
    }


def _by_path(results: list[FileResult]) -> None:
    """Sorts results by input path, and prints the traceback of each
    internal error to stderr in that order, whichever process ran it."""
    results.sort(key=lambda r: r.input_path)
    for r in results:
        if r.traceback:
            sys.stderr.write(f"altgen: internal error on {r.input_path}:\n{r.traceback}")


def _exit_code(results: list[FileResult], errors_key: str) -> int:
    """2 if a file failed; else 1 if the aggregate's `errors_key` counts
    errors; else 0."""
    if any(r.status is FileStatus.FAILED for r in results):
        return 2
    return 1 if aggregate_results(results)[errors_key] > 0 else 0


def report_dict(results: list[FileResult]) -> dict:
    return {
        "files": [r.to_dict() for r in results],
        "aggregate": aggregate_results(results),
    }


def report_json(results: list[FileResult]) -> str:
    """The JSON report: what repair writes to REPORT_FILENAME, and what
    --report json prints."""
    return json.dumps(report_dict(results), indent=2, sort_keys=True)


def run_audit(paths: list[str | Path], config: PipelineConfig) -> tuple[list[FileResult], int]:
    files = collect_epub_paths(paths)
    workers = _workers(config, files)
    if workers == 1:
        results = [_audit_one(path) for path in files]
    else:
        results = _run_pool(_audit_one, _largest_first(files), workers)
    _by_path(results)
    return results, _exit_code(results, "pre_errors")


def run_repair(paths: list[str | Path], config: PipelineConfig) -> tuple[list[FileResult], int]:
    if config.output_dir is None:
        raise PipelineError("repair requires an output directory")
    low, high = backend.MIN_MAX_LENGTH, backend.MAX_MAX_LENGTH
    if not low <= config.max_alt_length <= high:
        raise PipelineError(f"max_alt_length {config.max_alt_length} outside [{low}, {high}]")
    _check_backend(config)
    files = collect_epub_paths(paths)
    try:
        config.output_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise PipelineError(f"cannot create output directory: {exc}") from exc
    names = assign_output_names(files)
    workers = _workers(config, files)
    _load(backend, enrich, langdetect, reconstruct)
    client = make_backend(config)

    def repair(path: Path) -> FileResult:
        return _repair_one(path, config.output_dir / names[path], config, client)

    if config.backend != "stub":
        # books wait on the network: up to `jobs` at once, on threads that
        # share the one client and its in-flight cap
        results = backend.fan_out(repair, _largest_first(files), config.jobs)
    elif workers == 1:
        results = [repair(path) for path in files]
    else:
        items = [(path, names[path]) for path in _largest_first(files)]
        results = _run_pool(functools.partial(_repair_task, config=config), items, workers)
    _by_path(results)
    payload = report_json(results).encode("utf-8")
    try:
        reconstruct.write_file_atomic(config.output_dir / REPORT_FILENAME, payload)
    except OSError as exc:
        raise PipelineError(f"cannot write {REPORT_FILENAME}: {exc}") from exc
    return results, _exit_code(results, "post_errors")


def _stored_figures(repaired_dir: Path) -> tuple[list[float], tuple[float | None, bool, int] | None]:
    """The per-file timings of the report repair wrote in `repaired_dir`,
    and its counts as (err_percent, no_baseline, post_errors); none of
    either without a report. The report comes from outside, so a value
    that is no timing (a finite number of seconds, not negative) is left
    out, as is a files row that is no object, and counts that are no counts
    (integers, not negative; JSON's true and false are bools). err_percent
    is None where the counts' rate is no finite float. Raises PipelineError
    for a report that cannot be read or is not a JSON object."""
    report_path = repaired_dir / REPORT_FILENAME
    if not report_path.is_file():
        return [], None
    stored = read_json_file(report_path, dict, REPORT_FILENAME)
    rows = stored["files"] if isinstance(stored.get("files"), list) else []
    values = [finite_number(row.get("elapsed_seconds")) for row in rows if isinstance(row, dict)]
    timings = [value for value in values if value is not None and value >= 0]
    aggregate = stored.get("aggregate")
    if not isinstance(aggregate, dict):
        return timings, None
    pre, post = aggregate.get("pre_errors"), aggregate.get("post_errors")
    if not all(type(count) is int and count >= 0 for count in (pre, post)):
        return timings, None
    try:
        err_percent, no_baseline = error_reduction_rate(pre, post)
    except OverflowError:  # a count past the float range; pre is not 0
        err_percent, no_baseline = None, False
    return timings, (finite_number(err_percent), no_baseline, post)


def read_json_file(path: Path, top: type, name: str):
    """parse_json of the file at `path`, which must hold a `top`; raises
    PipelineError("unreadable <name>: ...") where it cannot."""
    try:
        return parse_json(Path(path).read_bytes(), top)
    except (OSError, NotWellFormed) as exc:
        raise PipelineError(f"unreadable {name}: {exc}") from exc


def load_references(path: Path) -> list[dict]:
    parsed = read_json_file(path, list, "references file")
    for k, row in enumerate(parsed):
        if not isinstance(row, dict) or not {"epub", "doc", "index", "alt"} <= set(row):
            raise PipelineError('reference entries need "epub", "doc", "index", and "alt" fields')
        # a bad index only makes the reference missing; these cannot be used
        for key in ("epub", "doc", "alt"):
            if not isinstance(row[key], str):
                raise PipelineError(f'reference {k}: "{key}" must be a string')
    return parsed


def _written_alts(repaired_dir: Path, refs: list[dict]) -> dict[tuple[str, str], list[str | None]]:
    """The alt of each image, in document order, of each (book, document)
    that `refs` name and that can be read. The books are the regular files
    directly in `repaired_dir`, by basename; each is read once and released
    before the next."""
    with os.scandir(repaired_dir) as listing:
        books = {item.name: item.path for item in listing if item.is_file(follow_symlinks=False)}
    docs: dict[str, dict[str, None]] = {}  # book -> its documents, in order of first reference
    for ref in refs:
        if ref["epub"] in books:
            docs.setdefault(ref["epub"], {})[ref["doc"]] = None
    written: dict[tuple[str, str], list[str | None]] = {}
    for epub, names in docs.items():
        try:
            archive = open_epub(Path(books[epub]).read_bytes())
        except (AltgenError, OSError):
            continue
        for doc in names:
            entry = archive.entry(doc)
            try:
                images = ContentDocument(entry, doc).images if entry else []
            except AltgenError:
                images = []
            written[epub, doc] = [occ.existing_alt for occ in images]
        del archive, entry  # before the next book is read
    return written


def run_validate(
    repaired_dir: str | Path, references: str | Path, config: PipelineConfig
) -> tuple[MetricReport, int]:
    repaired_dir = Path(repaired_dir)
    if not repaired_dir.is_dir():
        raise PipelineError(f"not a directory: {repaired_dir}")
    if config.bleu_max_n < 1:
        raise PipelineError(f"bleu_max_n {config.bleu_max_n} is below 1")
    _check_backend(config)
    refs = load_references(Path(references))
    timings, rate = _stored_figures(repaired_dir)
    client = make_backend(config)

    written = _written_alts(repaired_dir, refs)
    pairs: list[tuple[str, str]] = []
    for ref in refs:
        alts, index = written.get((ref["epub"], ref["doc"]), []), ref["index"]
        # JSON gives exact types: true and false are bools, not ints
        alt = alts[index] if type(index) is int and 0 <= index < len(alts) else None
        if alt:
            pairs.append((alt, ref["alt"]))
    report = corpus_metrics(
        pairs,
        client.embed_texts,
        timings,
        bleu_max_n=config.bleu_max_n,
        smoothing=config.smoothing,
        mapper=client.map_requests,
        chunk_pairs=client.embed_chunk_pairs(len(pairs)),
    )
    report.missing_references = len(refs) - len(pairs)

    if rate is None:
        return report, 0
    report.err_percent, report.no_baseline, post_errors = rate
    return report, 1 if post_errors > 0 else 0
