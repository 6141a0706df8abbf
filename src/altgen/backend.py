"""Alt-text generation backends: a deterministic local stub and a wire
client for a remote captioning service.

Wire protocol (UTF-8 JSON bodies, canonical form: sorted keys, no spaces):
POST /v1/caption, /v1/embed, and optionally /v1/language. Errors come back
as 4xx/5xx with {"error": str}. Retries happen only on connect/timeout
failures: two retries with 0.5 s then 2 s backoff. Redirects are rejected,
not followed, and a response body is read up to MAX_RESPONSE_BYTES.

Both backends caption a batch with `generate_alts`, which returns results
in request order, optionally stopping at the first failure, and run a batch
of any other calls with `map_requests`. Both go through `fan_out`, the one
thread fan-out: the stub runs its batches serially in the calling thread,
the remote client on up to DEFAULT_INFLIGHT_CAP (4) threads. The cap is the
client's semaphore, so it holds across every thread that shares the client,
the pipeline's book threads among them. Callers use the results in request
order, so output does not depend on which answer arrives first. Validation
asks `embed_chunk_pairs` how many reference pairs go into one embed call
and runs the calls through `map_requests`: the stub takes 16 pairs per
call, the remote client spreads the pairs evenly over `inflight_cap`
/v1/embed requests of at most MAX_EMBED_PAIRS pairs, so they all go out in
one round. An embed reply too large for MAX_RESPONSE_BYTES (vectors wider
than about 1500 values at 256 texts) is asked for again in halves.

A reply that is not HTTP at all (a bad status line, an overlong header
line, a body cut short) is a MalformedResponse and is not retried; a
connection closed before any reply is a BackendUnavailable.

The HTTP modules load only when a RemoteBackend is built, and
concurrent.futures only when a fan-out uses threads, so stub runs load
neither.
"""

from __future__ import annotations

import base64
import functools
import json
import math
import posixpath
import threading
import time
from collections import Counter
from dataclasses import dataclass, field

from altgen.audit import is_well_formed_language_tag
from altgen.container import NON_XML_CHAR_RE, NotWellFormed, _localname, finite_number
from altgen.container import parse_json, parse_xml
from altgen.content import ContextBundle, normalize_ws
from altgen.errors import AltgenError
from altgen.metrics import EMBED_CHUNK_PAIRS, LengthMismatch, tokenize

SUPPORTED_MEDIA_TYPES = frozenset(
    {"image/jpeg", "image/png", "image/gif", "image/svg+xml", "image/webp"}
)

DEFAULT_MAX_LENGTH = 250
MIN_MAX_LENGTH = 20
MAX_MAX_LENGTH = 1000

# seconds to sleep before each retry; only BackendUnavailable retries
RETRY_BACKOFF = (0.5, 2.0)
DEFAULT_INFLIGHT_CAP = 4
MAX_RESPONSE_BYTES = 8 * 1024 * 1024
MAX_EMBED_TEXT = 2000
# reference pairs (two texts each) in one /v1/embed request
MAX_EMBED_PAIRS = 128

ENV_BACKEND_TOKEN = "ALTGEN_BACKEND_TOKEN"

class BackendError(AltgenError):
    pass


class BackendUnavailable(BackendError):
    """Connection failure or timeout; the only retried error."""


class BackendRejected(BackendError):
    """Non-2xx response, with status and body excerpt."""


class MalformedResponse(BackendError):
    pass


class ResponseTooLarge(MalformedResponse):
    """The reply body exceeds MAX_RESPONSE_BYTES."""


class CandidateInvalid(BackendError):
    """Response parsed but violates AltCandidate invariants."""


class TextTooLong(BackendError):
    """A text given to the stub embedder exceeds MAX_EMBED_TEXT characters."""


@dataclass(frozen=True)
class CaptionRequest:
    """`source_name` is the image basename used by the stub's caption; it is
    never serialized onto the wire."""

    image_bytes: bytes
    media_type: str
    context: ContextBundle = field(default_factory=ContextBundle)
    max_length: int = DEFAULT_MAX_LENGTH
    language: str | None = None
    source_name: str | None = None

    def __post_init__(self) -> None:
        if self.media_type not in SUPPORTED_MEDIA_TYPES:
            raise ValueError(f"unsupported media type {self.media_type!r}")
        if not MIN_MAX_LENGTH <= self.max_length <= MAX_MAX_LENGTH:
            raise ValueError(
                f"max_length {self.max_length} outside [{MIN_MAX_LENGTH}, {MAX_MAX_LENGTH}]"
            )


@dataclass(frozen=True)
class AltCandidate:
    alt_text: str
    confidence: float
    backend_id: str


def _validate_candidate(alt_text, confidence, max_length: int, backend_id: str) -> AltCandidate:
    if not isinstance(alt_text, str) or not alt_text:
        raise CandidateInvalid("alt_text empty or not a string")
    if "\n" in alt_text or "\r" in alt_text:
        raise CandidateInvalid("alt_text contains line breaks")
    bad = NON_XML_CHAR_RE.search(alt_text)
    if bad is not None:
        raise CandidateInvalid(f"alt_text character U+{ord(bad.group()):04X} cannot be written in XML")
    if len(alt_text) > max_length:
        raise CandidateInvalid(f"alt_text length {len(alt_text)} exceeds {max_length}")
    number = finite_number(confidence)
    if number is None:
        raise CandidateInvalid("confidence is not a finite number")
    if not 0.0 <= number <= 1.0:
        raise CandidateInvalid(f"confidence {confidence} outside [0, 1]")
    return AltCandidate(alt_text, number, backend_id)


def _attempt(generate, request: CaptionRequest) -> AltCandidate | BackendError:
    try:
        return generate(request)
    except BackendError as exc:
        return exc


def _failed(outcome) -> bool:
    return isinstance(outcome, BackendError)


def fan_out(fn, items, workers: int, stop=None) -> list:
    """[fn(item) for item in items], in item order, run on up to `workers`
    threads; with one worker, or one item, in the calling thread.

    With `stop`, the results end at the first one in item order for which
    stop(result) holds. Once item i's result stops, no item after i that has
    not started is run; those before i still run, so the stop returned is
    the first in item order, whichever came first in time."""
    items = list(items)
    if workers <= 1 or len(items) <= 1:
        results = []
        for item in items:
            results.append(fn(item))
            if stop is not None and stop(results[-1]):
                break
        return results
    # imported here, so that serial callers do not load concurrent.futures
    from concurrent.futures import ThreadPoolExecutor

    first_stop = len(items)  # lowest stopped index seen so far
    lock = threading.Lock()

    def run(i: int):
        nonlocal first_stop
        if i > first_stop:
            return None  # never run, and cut off below
        result = fn(items[i])
        if stop is not None and stop(result):
            with lock:
                first_stop = min(first_stop, i)
        return result

    with ThreadPoolExecutor(max_workers=min(workers, len(items))) as pool:
        results = list(pool.map(run, range(len(items))))
    return results[: first_stop + 1]


def fit_to_length(text: str, max_length: int) -> str:
    """Truncate at a word boundary and close with a period; result is
    non-empty and never longer than max_length."""
    if len(text) <= max_length:
        return text
    cut = text[: max_length - 1]
    space = cut.rfind(" ")
    if space > 0:
        cut = cut[:space]
    cut = cut.rstrip(" .,;:!?")
    if not cut:
        cut = text[: max_length - 1].rstrip()
    return cut + "."


def _svg_title(image_bytes: bytes) -> str | None:
    try:
        root = parse_xml(image_bytes).root
    except NotWellFormed:
        return None
    for elem in root.iter():
        if _localname(elem.tag) == "title":
            return normalize_ws("".join(elem.itertext())) or None
    return None


class _Backend:
    """What both backends share: `generate_alts` over the subclass's
    `generate_alt` and `map_requests`."""

    def generate_alts(
        self, requests: list[CaptionRequest], stop_on_error: bool = False
    ) -> list[AltCandidate | BackendError]:
        """One result per request, in request order; a failed request yields
        its BackendError. With stop_on_error the results end at the first
        failure in request order, and no later request that has not started
        is made."""
        attempt = functools.partial(_attempt, self.generate_alt)
        return self.map_requests(attempt, requests, _failed if stop_on_error else None)


class StubBackend(_Backend):
    """Deterministic offline backend for tests and dry runs.

    Captions are assembled from the image filename stem and up to eight
    context words; embeddings are L2-normalized term-frequency vectors over
    a vocabulary shared by the batch.
    """

    backend_id = "stub"
    supports_language_detection = False

    def generate_alt(self, request: CaptionRequest) -> AltCandidate:
        stem = "image"
        if request.source_name:
            stem = posixpath.basename(request.source_name)
            stem = stem.rsplit(".", 1)[0] or stem
        parts = [f"Image: {stem}."]
        if request.media_type == "image/svg+xml":
            title = _svg_title(request.image_bytes)
            if title:
                parts.append(title if title.endswith(".") else title + ".")
        words: list[str] = []
        ctx = request.context
        for chunk in (
            ctx.figcaption,
            ctx.nearest_heading,
            ctx.preceding_text,
            ctx.following_text,
        ):
            if chunk:
                words.extend(chunk.split())
            if len(words) >= 8:
                break
        if words:
            parts.append("Context: " + " ".join(words[:8]) + ".")
        alt = fit_to_length(" ".join(parts), request.max_length)
        return _validate_candidate(alt, 1.0, request.max_length, self.backend_id)

    def map_requests(self, fn, items, stop=None) -> list:
        """`fan_out` in the calling thread: the stub's work is all CPU."""
        return fan_out(fn, items, 1, stop)

    def embed_chunk_pairs(self, n_pairs: int) -> int:
        """Reference pairs per `embed_texts` call when validating `n_pairs`:
        a vector has one dimension per word of its call, and cosine cost
        grows with it, so calls stay small."""
        return EMBED_CHUNK_PAIRS

    def embed_texts(self, texts: list[str]) -> list[list[float]]:
        if not texts:
            raise ValueError("texts must be non-empty")
        for text in texts:
            if len(text) > MAX_EMBED_TEXT:
                raise TextTooLong(f"text exceeds {MAX_EMBED_TEXT} characters")
        counts = [Counter(tokenize(t)) for t in texts]
        vocabulary = sorted({tok for c in counts for tok in c})
        index = {tok: i for i, tok in enumerate(vocabulary)}
        vectors = []
        for c in counts:
            # zeros add nothing to an fsum, so the norm needs only the counts
            norm = math.sqrt(math.fsum(n * n for n in c.values()))
            vec = [0.0] * len(vocabulary)
            for tok, n in c.items():
                vec[index[tok]] = n / norm
            vectors.append(vec)
        return vectors


def canonical_json(payload: dict) -> bytes:
    """The exact bytes this client puts on the wire."""
    return json.dumps(
        payload, ensure_ascii=False, separators=(",", ":"), sort_keys=True
    ).encode("utf-8")


def context_to_wire(ctx: ContextBundle) -> dict:
    return {
        "figcaption": ctx.figcaption,
        "preceding_text": ctx.preceding_text,
        "following_text": ctx.following_text,
        "nearest_heading": ctx.nearest_heading,
        "doc_title": ctx.doc_title,
    }


def _opener_rejecting_redirects():
    """A urllib opener that turns every 3xx into an HTTPError instead of
    following it."""
    import urllib.request

    class RejectRedirects(urllib.request.HTTPRedirectHandler):
        def redirect_request(self, req, fp, code, msg, headers, newurl):
            return None

    return urllib.request.build_opener(RejectRedirects)


class RemoteBackend(_Backend):
    """HTTP client for the captioning service.

    Shareable across worker threads; a semaphore caps in-flight requests.
    `sleep` is injectable so tests can verify backoff without waiting.
    """

    supports_language_detection = True

    def __init__(
        self,
        url: str,
        token: str | None = None,
        timeout: float = 30.0,
        inflight_cap: int = DEFAULT_INFLIGHT_CAP,
        sleep=None,
    ) -> None:
        if not url:
            raise ValueError("remote backend requires a URL")
        self.url = url.rstrip("/")
        self.token = token
        self.timeout = timeout
        self.backend_id = self.url
        self.inflight_cap = inflight_cap
        self._gate = threading.Semaphore(inflight_cap)
        self._sleep = sleep if sleep is not None else time.sleep
        self._opener = _opener_rejecting_redirects()

    def _post(self, path: str, payload: dict) -> dict:
        # loaded by __init__; imported here only to bind the names, so that
        # a stub run never loads the HTTP stack
        import http.client
        import urllib.error
        import urllib.request

        body = canonical_json(payload)
        headers = {
            "Content-Type": "application/json; charset=utf-8",
            "Accept": "application/json",
        }
        if self.token:
            headers["Authorization"] = f"Bearer {self.token}"
        last_error: Exception | None = None
        for attempt in range(1 + len(RETRY_BACKOFF)):
            if attempt > 0:
                self._sleep(RETRY_BACKOFF[attempt - 1])
            request = urllib.request.Request(
                self.url + path, data=body, headers=headers, method="POST"
            )
            try:
                with self._gate:
                    with self._opener.open(request, timeout=self.timeout) as response:
                        if response.length and response.length > MAX_RESPONSE_BYTES:
                            # announced too large: not worth reading
                            raise ResponseTooLarge(
                                f"response exceeds {MAX_RESPONSE_BYTES} bytes"
                            )
                        raw = response.read(MAX_RESPONSE_BYTES + 1)
                        if response.length and len(raw) <= MAX_RESPONSE_BYTES:
                            # the connection closed before Content-Length bytes
                            raise http.client.IncompleteRead(raw, response.length)
                break
            except urllib.error.HTTPError as exc:
                # closing the error releases its connection's socket
                with exc:
                    if 300 <= exc.code < 400:
                        raise BackendRejected(
                            f"status {exc.code}: redirects are not followed"
                        ) from exc
                    excerpt = exc.read(200).decode("utf-8", "replace")
                raise BackendRejected(f"status {exc.code}: {excerpt}") from exc
            except (urllib.error.URLError, TimeoutError, OSError) as exc:
                # RemoteDisconnected is an OSError as well as an
                # HTTPException: a connection closed before any reply
                last_error = exc
            except http.client.HTTPException as exc:
                raise MalformedResponse(f"reply is not HTTP: {exc!r}") from exc
        else:
            raise BackendUnavailable(str(last_error)) from last_error
        if len(raw) > MAX_RESPONSE_BYTES:
            raise ResponseTooLarge(f"response exceeds {MAX_RESPONSE_BYTES} bytes")
        try:
            return parse_json(raw, dict)
        except NotWellFormed as exc:
            raise MalformedResponse(f"response is not JSON: {exc}") from exc

    def generate_alt(self, request: CaptionRequest) -> AltCandidate:
        payload = {
            "image_base64": base64.b64encode(request.image_bytes).decode("ascii"),
            "media_type": request.media_type,
            "context": context_to_wire(request.context),
            "max_length": request.max_length,
            "language": request.language,
        }
        parsed = self._post("/v1/caption", payload)
        if "alt_text" not in parsed or "confidence" not in parsed:
            raise MalformedResponse("caption response lacks alt_text/confidence")
        return _validate_candidate(
            parsed["alt_text"], parsed["confidence"], request.max_length, self.backend_id
        )

    def map_requests(self, fn, items, stop=None) -> list:
        """`fan_out` on up to `inflight_cap` threads; the semaphore still
        caps the requests of concurrent callers."""
        return fan_out(fn, items, self.inflight_cap, stop)

    def embed_chunk_pairs(self, n_pairs: int) -> int:
        """The pairs spread evenly over `inflight_cap` requests, so that all
        of them are in flight at once, at most MAX_EMBED_PAIRS each."""
        return max(1, min(MAX_EMBED_PAIRS, -(-n_pairs // self.inflight_cap)))

    def embed_texts(self, texts: list[str]) -> list[list[float]]:
        if not texts:
            raise ValueError("texts must be non-empty")
        vectors = self._embed_rows(list(texts))
        lengths = set(map(len, vectors))
        if len(lengths) > 1:
            raise LengthMismatch(f"embedding rows have mixed lengths {sorted(lengths)}")
        return vectors

    def _embed_rows(self, texts: list[str]) -> list[list[float]]:
        """The checked rows for `texts`, in order; a reply too large for
        MAX_RESPONSE_BYTES (wide vectors) is asked for again in halves."""
        try:
            parsed = self._post("/v1/embed", {"texts": texts})
        except ResponseTooLarge:
            if len(texts) < 2:
                raise
            half = len(texts) // 2
            return self._embed_rows(texts[:half]) + self._embed_rows(texts[half:])
        embeddings = parsed.get("embeddings")
        if not isinstance(embeddings, list):
            raise MalformedResponse("embed response lacks embeddings list")
        if len(embeddings) != len(texts):
            raise LengthMismatch(
                f"asked for {len(texts)} embeddings, got {len(embeddings)}"
            )
        vectors: list[list[float]] = []
        for row in embeddings:
            if not isinstance(row, list):
                raise MalformedResponse("embedding row is not a list")
            values = list(map(finite_number, row))
            if None in values:
                raise MalformedResponse("embedding value is not a finite number")
            vectors.append(values)
        return vectors

    def detect_language(self, text: str) -> tuple[str, float]:
        parsed = self._post("/v1/language", {"text": text})
        lang = parsed.get("lang")
        confidence = finite_number(parsed.get("confidence"))
        if not isinstance(lang, str) or not is_well_formed_language_tag(lang) or confidence is None:
            raise MalformedResponse("language response lacks a BCP 47 lang or a finite confidence")
        return lang, confidence
