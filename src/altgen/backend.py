"""Alt-text generation backends: a deterministic local stub and a wire
client for a remote captioning service.

Wire protocol (UTF-8 JSON bodies, canonical form: sorted keys, no spaces):
POST /v1/caption, /v1/embed, and optionally /v1/language. Errors come back
as 4xx/5xx with {"error": str}. Retries happen only on connect/timeout
failures: two retries with 0.5 s then 2 s backoff. Redirects are rejected,
not followed, and a response body is read up to MAX_RESPONSE_BYTES.

Both backends caption a batch with `generate_alts`, which returns results
in request order, optionally stopping at the first failure. The remote
client sends one document's caption requests together, at most
DEFAULT_INFLIGHT_CAP (4) in flight at once. The cap is a semaphore: the
pipeline makes one `multiprocessing` semaphore and hands it to the client
in every worker process, so the cap holds across the whole run. Callers
apply the results in document order, so output does not depend on which
answer arrives first. Validation embeds up to 32 texts (16 reference pairs)
per /v1/embed request.
"""

from __future__ import annotations

import base64
import functools
import json
import math
import posixpath
import threading
import time
import urllib.error
import urllib.request
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from xml.etree import ElementTree as ET

from altgen.content import ContextBundle, normalize_ws
from altgen.errors import AltgenError
from altgen.metrics import LengthMismatch, tokenize

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

ENV_BACKEND_URL = "ALTGEN_BACKEND_URL"
ENV_BACKEND_TOKEN = "ALTGEN_BACKEND_TOKEN"


class BackendError(AltgenError):
    pass


class BackendUnavailable(BackendError):
    """Connection failure or timeout; the only retried error."""


class BackendRejected(BackendError):
    """Non-2xx response, with status and body excerpt."""


class MalformedResponse(BackendError):
    pass


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


def _validate_candidate(alt_text: str, confidence: float, max_length: int, backend_id: str) -> AltCandidate:
    if not isinstance(alt_text, str) or not alt_text:
        raise CandidateInvalid("alt_text empty or not a string")
    if "\n" in alt_text or "\r" in alt_text:
        raise CandidateInvalid("alt_text contains line breaks")
    if len(alt_text) > max_length:
        raise CandidateInvalid(f"alt_text length {len(alt_text)} exceeds {max_length}")
    if not isinstance(confidence, (int, float)) or isinstance(confidence, bool):
        raise CandidateInvalid("confidence is not a number")
    if not 0.0 <= float(confidence) <= 1.0 or not math.isfinite(confidence):
        raise CandidateInvalid(f"confidence {confidence} outside [0, 1]")
    return AltCandidate(alt_text, float(confidence), backend_id)


def _attempt(generate, request: CaptionRequest) -> AltCandidate | BackendError:
    try:
        return generate(request)
    except BackendError as exc:
        return exc


def _until_failure(outcomes) -> list[AltCandidate | BackendError]:
    """The outcomes up to and including the first BackendError."""
    out = []
    for outcome in outcomes:
        out.append(outcome)
        if isinstance(outcome, BackendError):
            break
    return out


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
        root = ET.fromstring(image_bytes)
    except ET.ParseError:
        return None
    for elem in root.iter():
        if isinstance(elem.tag, str) and elem.tag.rsplit("}", 1)[-1] == "title":
            text = normalize_ws("".join(elem.itertext()))
            return text or None
    return None


class StubBackend:
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

    def generate_alts(
        self, requests: list[CaptionRequest], stop_on_error: bool = False
    ) -> list[AltCandidate | BackendError]:
        """One result per request, in request order; a failed request yields
        its BackendError. With stop_on_error the results end at the first
        failure, and no later request is made."""
        outcomes = (_attempt(self.generate_alt, request) for request in requests)
        return _until_failure(outcomes) if stop_on_error else list(outcomes)

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


class _RejectRedirects(urllib.request.HTTPRedirectHandler):
    """Turns every 3xx into an HTTPError instead of following it."""

    def redirect_request(self, req, fp, code, msg, headers, newurl):
        return None


class RemoteBackend:
    """HTTP client for the captioning service.

    Shareable across worker threads; a semaphore caps in-flight requests.
    `gate` replaces the client's own semaphore with one shared by clients
    in other processes, such as a `multiprocessing` semaphore made with
    `inflight_cap` permits. `sleep` is injectable so tests can verify
    backoff without waiting.
    """

    supports_language_detection = True

    def __init__(
        self,
        url: str,
        token: str | None = None,
        timeout: float = 30.0,
        inflight_cap: int = DEFAULT_INFLIGHT_CAP,
        sleep=None,
        gate=None,
    ) -> None:
        if not url:
            raise ValueError("remote backend requires a URL")
        self.url = url.rstrip("/")
        self.token = token
        self.timeout = timeout
        self.backend_id = self.url
        self.inflight_cap = inflight_cap
        self._gate = gate if gate is not None else threading.Semaphore(inflight_cap)
        self._sleep = sleep if sleep is not None else time.sleep
        self._opener = urllib.request.build_opener(_RejectRedirects)

    def _post(self, path: str, payload: dict) -> dict:
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
                        raw = response.read(MAX_RESPONSE_BYTES + 1)
                break
            except urllib.error.HTTPError as exc:
                if 300 <= exc.code < 400:
                    raise BackendRejected(f"status {exc.code}: redirects are not followed") from exc
                excerpt = exc.read(200).decode("utf-8", "replace")
                raise BackendRejected(f"status {exc.code}: {excerpt}") from exc
            except (urllib.error.URLError, TimeoutError, OSError) as exc:
                last_error = exc
        else:
            raise BackendUnavailable(str(last_error)) from last_error
        if len(raw) > MAX_RESPONSE_BYTES:
            raise MalformedResponse(f"response exceeds {MAX_RESPONSE_BYTES} bytes")
        try:
            parsed = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise MalformedResponse(f"response is not JSON: {exc}") from exc
        if not isinstance(parsed, dict):
            raise MalformedResponse("response JSON is not an object")
        return parsed

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
        alt_text = parsed["alt_text"]
        confidence = parsed["confidence"]
        if not isinstance(alt_text, str):
            raise MalformedResponse("alt_text is not a string")
        if not isinstance(confidence, (int, float)) or isinstance(confidence, bool):
            raise MalformedResponse("confidence is not a number")
        return _validate_candidate(alt_text, confidence, request.max_length, self.backend_id)

    def generate_alts(
        self, requests: list[CaptionRequest], stop_on_error: bool = False
    ) -> list[AltCandidate | BackendError]:
        """One result per request, in request order; a failed request yields
        its BackendError. Requests run on up to `inflight_cap` threads, and
        the semaphore still caps them across concurrent callers.

        With stop_on_error the results end at the first failure in request
        order. Once request i fails, no request after i that has not started
        is sent; those before i still run, so the failure returned is the
        first in request order, whichever failed first in time."""
        attempt = functools.partial(_attempt, self.generate_alt)
        if len(requests) <= 1:
            return [attempt(request) for request in requests]
        first_failure = len(requests)  # lowest failed index seen so far
        lock = threading.Lock()

        def run(i: int) -> AltCandidate | BackendError | None:
            nonlocal first_failure
            if i > first_failure:
                return None  # never sent, and never read by _until_failure
            outcome = attempt(requests[i])
            if stop_on_error and isinstance(outcome, BackendError):
                with lock:
                    first_failure = min(first_failure, i)
            return outcome

        with ThreadPoolExecutor(max_workers=min(self.inflight_cap, len(requests))) as pool:
            outcomes = pool.map(run, range(len(requests)))
            return _until_failure(outcomes) if stop_on_error else list(outcomes)

    def embed_texts(self, texts: list[str]) -> list[list[float]]:
        if not texts:
            raise ValueError("texts must be non-empty")
        parsed = self._post("/v1/embed", {"texts": list(texts)})
        embeddings = parsed.get("embeddings")
        if not isinstance(embeddings, list):
            raise MalformedResponse("embed response lacks embeddings list")
        if len(embeddings) != len(texts):
            raise LengthMismatch(
                f"asked for {len(texts)} embeddings, got {len(embeddings)}"
            )
        lengths = set()
        vectors: list[list[float]] = []
        for row in embeddings:
            if not isinstance(row, list):
                raise MalformedResponse("embedding row is not a list")
            values = []
            for x in row:
                if not isinstance(x, (int, float)) or isinstance(x, bool) or not math.isfinite(x):
                    raise MalformedResponse("embedding value is not a finite number")
                values.append(float(x))
            lengths.add(len(values))
            vectors.append(values)
        if len(lengths) > 1:
            raise LengthMismatch(f"embedding rows have mixed lengths {sorted(lengths)}")
        return vectors

    def detect_language(self, text: str) -> tuple[str, float]:
        parsed = self._post("/v1/language", {"text": text})
        lang = parsed.get("lang")
        confidence = parsed.get("confidence")
        if not isinstance(lang, str) or not lang:
            raise MalformedResponse("language response lacks lang")
        if not isinstance(confidence, (int, float)) or isinstance(confidence, bool):
            raise MalformedResponse("language response lacks numeric confidence")
        return lang, float(confidence)
