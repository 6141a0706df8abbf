"""Caption service owned by the benchmark, run in its own process.

Speaks the wire protocol of ``altgen.backend.RemoteBackend``:

    POST /v1/caption   {"image_base64", "media_type", "context", "max_length", "language"}
    POST /v1/embed     {"texts": [...]}
    POST /v1/language  {"text": ...}

Every POST is answered after a fixed delay of 20 ms (``DELAY_S``),
deterministically from the request body alone. ``GET /stats`` returns the
counters: requests per endpoint, bytes received, busy seconds (wall time with
at least one request in flight) and the most requests in flight since the
previous ``/stats``.
A request is in flight from the moment its body is read until its answer is
ready.

    python3 perfbench/service.py

prints ``port <n>`` once it listens on 127.0.0.1 and serves until killed.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
import threading
import time
from collections import Counter
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CORPORA = ROOT / "tools" / "lang_corpora"
DELAY_S = 0.02
EMBED_DIMS = 64
_WORD_RE = re.compile(r"\w+")


def words(text: str) -> list[str]:
    return _WORD_RE.findall(text.lower())


def caption(context: dict, max_length: int) -> str:
    """The figcaption, else the nearest preceding text, cut at a word
    boundary to fit max_length."""
    source = context.get("figcaption") or context.get("preceding_text") or "An image"
    text = "Figure: " + " ".join(source.split()[:16])
    if len(text) > max_length:
        text = text[: max_length - 1].rsplit(" ", 1)[0] + "."
    return text


def embed(text: str) -> list[float]:
    """Hashed bag of words, L2-normalized."""
    vec = [0.0] * EMBED_DIMS
    for word in words(text):
        slot = int.from_bytes(hashlib.sha1(word.encode("utf-8")).digest()[:4], "big")
        vec[slot % EMBED_DIMS] += 1.0
    norm = math.sqrt(sum(x * x for x in vec))
    return [x / norm for x in vec] if norm else vec


class LanguageVoter:
    """Picks the language whose most frequent corpus words cover most of the text."""

    def __init__(self, corpora: Path, top: int = 60):
        self.vocab = {
            path.stem: {w for w, _ in Counter(words(path.read_text(encoding="utf-8"))).most_common(top)}
            for path in sorted(corpora.glob("*.txt"))
        }

    def __call__(self, text: str) -> str:
        tokens = words(text)
        return max(sorted(self.vocab), key=lambda lang: sum(t in self.vocab[lang] for t in tokens))


class Stats:
    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.requests: Counter = Counter()
        self.bytes_in = 0
        self.inflight = 0
        self.max_inflight = 0
        self.busy_s = 0.0
        self._busy_since = 0.0

    def enter(self, path: str, size: int) -> None:
        with self.lock:
            self.requests[path] += 1
            self.bytes_in += size
            if self.inflight == 0:
                self._busy_since = time.perf_counter()
            self.inflight += 1
            self.max_inflight = max(self.max_inflight, self.inflight)

    def leave(self) -> None:
        with self.lock:
            self.inflight -= 1
            if self.inflight == 0:
                self.busy_s += time.perf_counter() - self._busy_since

    def snapshot(self) -> dict:
        with self.lock:
            snap = {
                "requests": dict(self.requests),
                "bytes_in": self.bytes_in,
                "max_inflight": self.max_inflight,
                "busy_s": self.busy_s,
            }
            self.max_inflight = self.inflight
            return snap


def make_server(voter: LanguageVoter) -> ThreadingHTTPServer:
    stats = Stats()

    def answer(path: str, body: dict) -> dict:
        if path == "/v1/caption":
            return {"alt_text": caption(body["context"], body["max_length"]), "confidence": 0.9}
        if path == "/v1/embed":
            return {"embeddings": [embed(t) for t in body["texts"]]}
        return {"lang": voter(body["text"]), "confidence": 0.9}

    class Handler(BaseHTTPRequestHandler):
        def log_message(self, *args) -> None:
            pass

        def _send(self, status: int, payload: dict) -> None:
            data = json.dumps(payload, separators=(",", ":"), sort_keys=True).encode("utf-8")
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(data)))
            self.end_headers()
            self.wfile.write(data)

        def do_GET(self) -> None:
            if self.path == "/stats":
                self._send(200, stats.snapshot())
            else:
                self._send(404, {"error": "not found"})

        def do_POST(self) -> None:
            raw = self.rfile.read(int(self.headers.get("Content-Length", "0")))
            if self.path not in ("/v1/caption", "/v1/embed", "/v1/language"):
                self._send(404, {"error": "not found"})
                return
            stats.enter(self.path, len(raw))
            try:
                time.sleep(DELAY_S)
                status, payload = 200, answer(self.path, json.loads(raw))
            except (ValueError, KeyError, TypeError) as exc:
                status, payload = 400, {"error": f"bad request: {exc}"}
            finally:
                stats.leave()
            self._send(status, payload)

    server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
    server.daemon_threads = True
    return server


def main() -> None:
    server = make_server(LanguageVoter(CORPORA))
    print(f"port {server.server_address[1]}", flush=True)
    try:
        server.serve_forever(poll_interval=0.05)
    finally:
        server.server_close()


if __name__ == "__main__":
    main()
