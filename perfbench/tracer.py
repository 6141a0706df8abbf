"""Span tracer that wraps altgen functions from outside.

Loaded only by the traced run. ``Tracer.install`` replaces each traced
function under every name an altgen module looks it up by: both
``altgen.pipeline.find_images`` and ``altgen.content.find_images`` point at
one wrapper, so calls from inside ``content`` are seen too. Methods are
wrapped on their classes.

A span is (name, start, end, parent, thread), plus the thread CPU time it
used, which leaves out time spent waiting for the interpreter lock while
another pool worker runs. Each thread keeps its own
parent stack. A span opened on a thread with an empty stack (a pool worker)
takes as parent the innermost open span of the thread that installed the
tracer, which is the call that started the pool. Spans stay in memory and
are written out by the caller at the end.
"""

from __future__ import annotations

import functools
import sys
import threading
import time
from dataclasses import dataclass, field

# (span name, module, attribute); "Class.method" attributes wrap a method.
TRACED = (
    ("container.open_epub", "altgen.container", "open_epub"),
    ("container.write_epub", "altgen.container", "write_epub"),
    ("package.parse_opf", "altgen.package", "parse_opf"),
    ("package.serialize_opf", "altgen.package", "serialize_opf"),
    ("content.parse_document", "altgen.content", "parse_document"),
    ("content.find_images", "altgen.content", "find_images"),
    ("content.extract_context", "altgen.content", "extract_context"),
    ("content.set_alt_text", "altgen.content", "set_alt_text"),
    ("content.document_text", "altgen.content", "document_text"),
    ("audit.audit", "altgen.audit", "audit"),
    ("backend.generate_alt", "altgen.backend", "StubBackend.generate_alt"),
    ("backend.generate_alt", "altgen.backend", "RemoteBackend.generate_alt"),
    ("backend.embed_texts", "altgen.backend", "StubBackend.embed_texts"),
    ("backend.embed_texts", "altgen.backend", "RemoteBackend.embed_texts"),
    ("backend.detect_language", "altgen.backend", "RemoteBackend.detect_language"),
    ("enrich.enrich_metadata", "altgen.enrich", "enrich_metadata"),
    ("langdetect.detect_language", "altgen.langdetect", "detect_language"),
    ("langdetect.load_embedded_profiles", "altgen.langdetect", "load_embedded_profiles"),
    ("reconstruct.rebuild", "altgen.reconstruct", "rebuild"),
    ("reconstruct.integrity_check", "altgen.reconstruct", "integrity_check"),
    ("reconstruct.write_file_atomic", "altgen.reconstruct", "write_file_atomic"),
    ("metrics.corpus_metrics", "altgen.metrics", "corpus_metrics"),
    ("metrics.bleu", "altgen.metrics", "bleu"),
    ("pipeline.run_audit", "altgen.pipeline", "run_audit"),
    ("pipeline.run_repair", "altgen.pipeline", "run_repair"),
    ("pipeline.run_validate", "altgen.pipeline", "run_validate"),
    # Per-book spans; their first argument names the book.
    ("pipeline.audit_one", "altgen.pipeline", "_audit_one"),
    ("pipeline.repair_one", "altgen.pipeline", "_repair_one"),
)

PER_BOOK = {"pipeline.audit_one", "pipeline.repair_one"}

# Byte counters: span name -> (counter name, function of (args, result)).
_BYTES = {
    "container.open_epub": ("container.bytes_in", lambda args, result: len(args[0])),
    "container.write_epub": ("container.bytes_out", lambda args, result: len(result)),
}


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    thread: int = 0
    cpu: float = 0.0
    book: str | None = None
    error: str | None = None

    def to_dict(self) -> dict:
        return self.__dict__.copy()


@dataclass
class Tracer:
    spans: list[Span] = field(default_factory=list)
    counters: dict[str, int] = field(default_factory=dict)
    _local: threading.local = field(default_factory=threading.local)
    _main_stack: list[int] = field(default_factory=list)
    _lock: threading.Lock = field(default_factory=threading.Lock)

    def _stack(self) -> list[int]:
        if threading.current_thread() is threading.main_thread():
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            if stack:
                parent = stack[-1]
            else:
                parent = tracer._main_stack[-1] if tracer._main_stack else None
            book = tracer.spans[parent].book if parent is not None else None
            if name in PER_BOOK:
                book = str(args[0]).rsplit("/", 1)[-1]
            span = Span(name, 0.0, parent=parent, thread=threading.get_ident(), book=book)
            with tracer._lock:
                tracer.spans.append(span)
                index = len(tracer.spans) - 1
            stack.append(index)
            cpu = time.thread_time()
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.error = type(exc).__name__
                raise
            finally:
                span.end = time.perf_counter()
                span.cpu = time.thread_time() - cpu
                stack.pop()
            if name in _BYTES:
                counter, measure = _BYTES[name]
                with tracer._lock:
                    tracer.counters[counter] = tracer.counters.get(counter, 0) + measure(args, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every TRACED function in every loaded altgen module."""
        modules = [m for n, m in list(sys.modules.items()) if n.split(".")[0] == "altgen" and m]
        for span_name, module_name, attr in TRACED:
            owner = sys.modules[module_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                setattr(cls, meth, self.wrap(span_name, cls.__dict__[meth]))
                continue
            original = getattr(owner, attr)
            wrapped = self.wrap(span_name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapped)


def union_length(intervals: list[tuple[float, float]]) -> float:
    """Total length covered by possibly overlapping intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            parent = spans[s.parent]
            start, end = max(s.start, parent.start), min(s.end, parent.end)
            if end > start:
                children.setdefault(s.parent, []).append((start, end))
    return [
        (s.end - s.start) - union_length(children.get(i, [])) for i, s in enumerate(spans)
    ]


def summarize(spans: list[Span]) -> dict[str, dict[str, float]]:
    """Per span name: total seconds, self seconds, calls and failed calls."""
    out: dict[str, dict[str, float]] = {}
    for span, own in zip(spans, self_times(spans)):
        row = out.setdefault(span.name, {"s": 0.0, "self_s": 0.0, "calls": 0, "errors": 0})
        row["s"] += span.end - span.start
        row["self_s"] += own
        row["calls"] += 1
        row["errors"] += span.error is not None
    return out


def book_cpu(spans: list[Span], prefix: str, under: str) -> dict[str, float]:
    """Per book: thread CPU seconds in outermost `prefix` spans below an
    `under` span."""
    out: dict[str, float] = {}
    for span in spans:
        if not span.name.startswith(prefix) or span.book is None:
            continue
        parent = spans[span.parent] if span.parent is not None else None
        if parent is not None and parent.name.startswith(prefix):
            continue
        node = parent
        while node is not None and node.name != under:
            node = spans[node.parent] if node.parent is not None else None
        if node is not None:
            out[span.book] = out.get(span.book, 0.0) + span.cpu
    return out
