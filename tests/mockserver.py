"""Scripted HTTP server for exercising the remote backend client."""

from __future__ import annotations

import json
import socket
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Callable


@dataclass
class Recorded:
    path: str
    body: bytes
    headers: dict[str, str]


@dataclass
class Script:
    """Each queued item: (status, body_bytes, extra_headers). Once the queue
    is empty, `respond(path, body)` gives (status, body_bytes) if set, else
    the answer is 200 {}."""

    responses: deque = field(default_factory=deque)
    respond: Callable[[str, bytes], tuple[int, bytes]] | None = None
    requests: list[Recorded] = field(default_factory=list)
    delay: float = 0.0
    active: int = 0
    max_active: int = 0
    lock: threading.Lock = field(default_factory=threading.Lock)


class MockBackendServer:
    def __init__(self) -> None:
        script = Script()
        self.script = script

        class Handler(BaseHTTPRequestHandler):
            def log_message(self, *args) -> None:
                pass

            def do_POST(self) -> None:
                try:
                    length = int(self.headers.get("Content-Length", "0"))
                    body = self.rfile.read(length)
                    # Active from the whole body read to before the answer
                    # is sent, so the window lies inside the client's.
                    with script.lock:
                        script.active += 1
                        script.max_active = max(script.max_active, script.active)
                        script.requests.append(Recorded(self.path, body, dict(self.headers)))
                    try:
                        if script.delay:
                            time.sleep(script.delay)
                        extra: dict[str, str] = {}
                        if script.responses:
                            status, payload, extra = script.responses.popleft()
                        elif script.respond is not None:
                            status, payload = script.respond(self.path, body)
                        else:
                            status, payload = 200, b"{}"
                    finally:
                        with script.lock:
                            script.active -= 1
                    self.send_response(status)
                    for name, value in extra.items():
                        self.send_header(name, value)
                    self.send_header("Content-Type", "application/json")
                    self.send_header("Content-Length", str(len(payload)))
                    self.end_headers()
                    self.wfile.write(payload)
                except (BrokenPipeError, ConnectionResetError):
                    pass

        self.server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
        self.server.daemon_threads = True
        self.thread = threading.Thread(
            target=lambda: self.server.serve_forever(poll_interval=0.01), daemon=True
        )

    @property
    def url(self) -> str:
        host, port = self.server.server_address[:2]
        return f"http://{host}:{port}"

    def enqueue_json(self, status: int, payload) -> None:
        self.script.responses.append((status, json.dumps(payload).encode("utf-8"), {}))

    def enqueue_raw(self, status: int, body: bytes) -> None:
        self.script.responses.append((status, body, {}))

    def enqueue_redirect(self, status: int, location: str) -> None:
        self.script.responses.append((status, b"{}", {"Location": location}))

    def __enter__(self) -> "MockBackendServer":
        self.thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self.server.shutdown()
        self.server.server_close()


def figure_captions(failing: frozenset[int] = frozenset()):
    """A `Script.respond` for /v1/caption: a figcaption ending in number k
    gets the alt "Figure number k.", or a 500 when k is in `failing`. Figure
    k is answered after (8 - k) * 10 ms, so the answers to a batch of up to
    eight figures arrive in reverse order."""

    def respond(path: str, body: bytes) -> tuple[int, bytes]:
        k = int(json.loads(body)["context"]["figcaption"].rsplit(" ", 1)[1])
        time.sleep(0.01 * max(0, 8 - k))
        if k in failing:
            return 500, json.dumps({"error": f"no caption for figure {k}"}).encode("utf-8")
        payload = {"alt_text": f"Figure number {k}.", "confidence": 0.9}
        return 200, json.dumps(payload).encode("utf-8")

    return respond


class RawReplyServer:
    """Answers every request with the same raw bytes, which need not be
    HTTP, then closes the connection. The request is read in full first, so
    the client sees the reply rather than a reset."""

    def __init__(self, reply: bytes) -> None:
        self.reply = reply
        self.paths: list[str] = []  # the path of each request answered
        self.sock = socket.create_server(("127.0.0.1", 0))
        self.sock.settimeout(0.01)
        self.stopped = threading.Event()
        self.thread = threading.Thread(target=self._serve, daemon=True)

    @property
    def url(self) -> str:
        host, port = self.sock.getsockname()[:2]
        return f"http://{host}:{port}"

    def _serve(self) -> None:
        while not self.stopped.is_set():
            try:
                conn, _ = self.sock.accept()
            except TimeoutError:
                continue
            conn.settimeout(5)
            threading.Thread(target=self._answer, args=(conn,), daemon=True).start()

    def _answer(self, conn: socket.socket) -> None:
        with conn:
            data = b""
            while b"\r\n\r\n" not in data:
                chunk = conn.recv(65536)
                if not chunk:
                    return
                data += chunk
            head, _, body = data.partition(b"\r\n\r\n")
            length = 0
            for line in head.split(b"\r\n")[1:]:
                name, _, value = line.partition(b":")
                if name.strip().lower() == b"content-length":
                    length = int(value)
            while len(body) < length:
                chunk = conn.recv(65536)
                if not chunk:
                    return
                body += chunk
            self.paths.append(head.split(b" ", 2)[1].decode("ascii"))
            conn.sendall(self.reply)
            conn.shutdown(socket.SHUT_WR)

    def __enter__(self) -> "RawReplyServer":
        self.thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self.stopped.set()
        self.thread.join()
        self.sock.close()
