from __future__ import annotations

import json
import math
import socket
import threading
import time

import pytest

import epubgen
from mockserver import MockBackendServer, figure_captions
from altgen.backend import (
    BackendRejected,
    BackendUnavailable,
    CandidateInvalid,
    CaptionRequest,
    MalformedResponse,
    RemoteBackend,
    StubBackend,
    TextTooLong,
    canonical_json,
    fit_to_length,
)
from altgen.content import ContextBundle
from altgen.metrics import LengthMismatch, cosine_similarity


def png_request(**kw) -> CaptionRequest:
    defaults = dict(
        image_bytes=epubgen.tiny_png(),
        media_type="image/png",
        source_name="OEBPS/images/fox.png",
    )
    defaults.update(kw)
    return CaptionRequest(**defaults)


class TestCaptionRequest:
    def test_unsupported_media_type_rejected(self):
        with pytest.raises(ValueError):
            png_request(media_type="image/tiff")

    def test_max_length_bounds(self):
        with pytest.raises(ValueError):
            png_request(max_length=19)
        with pytest.raises(ValueError):
            png_request(max_length=1001)
        assert png_request(max_length=20).max_length == 20
        assert png_request(max_length=1000).max_length == 1000


class TestFitToLength:
    def test_short_text_untouched(self):
        assert fit_to_length("A fox.", 250) == "A fox."

    def test_truncates_at_word_boundary(self):
        text = "A very long sentence about a fox crossing the frozen river"
        out = fit_to_length(text, 30)
        assert len(out) <= 30
        assert out.endswith(".")
        assert out == "A very long sentence about a."

    def test_single_long_word(self):
        out = fit_to_length("x" * 500, 20)
        assert len(out) <= 20
        assert out.endswith(".")


class TestStubCaption:
    def test_empty_context(self):
        alt = StubBackend().generate_alt(png_request())
        assert alt.alt_text == "Image: fox."
        assert alt.confidence == 1.0
        assert alt.backend_id == "stub"

    def test_figcaption_context(self):
        req = png_request(
            context=ContextBundle(figcaption="Map of Amsterdam canals")
        )
        alt = StubBackend().generate_alt(req)
        assert alt.alt_text == "Image: fox. Context: Map of Amsterdam canals."

    def test_context_capped_at_eight_words(self):
        req = png_request(
            context=ContextBundle(
                figcaption="one two three",
                nearest_heading="four five",
                preceding_text="six seven eight nine ten",
            )
        )
        alt = StubBackend().generate_alt(req)
        assert alt.alt_text == (
            "Image: fox. Context: one two three four five six seven eight."
        )

    def test_svg_title_included(self):
        req = CaptionRequest(
            image_bytes=epubgen.tiny_svg("Harbour map"),
            media_type="image/svg+xml",
            source_name="OEBPS/images/map.svg",
        )
        alt = StubBackend().generate_alt(req)
        assert alt.alt_text == "Image: map. Harbour map."

    def test_honors_max_length(self):
        req = png_request(
            max_length=20,
            context=ContextBundle(figcaption="a very wordy caption indeed"),
        )
        alt = StubBackend().generate_alt(req)
        assert len(alt.alt_text) <= 20
        assert alt.alt_text.endswith(".")

    def test_deterministic(self):
        req = png_request(context=ContextBundle(figcaption="same thing"))
        a = StubBackend().generate_alt(req)
        b = StubBackend().generate_alt(req)
        assert a == b

    def test_no_source_name_falls_back(self):
        req = CaptionRequest(image_bytes=b"x", media_type="image/png")
        alt = StubBackend().generate_alt(req)
        assert alt.alt_text == "Image: image."


class TestStubEmbeddings:
    def test_identical_texts_identical_vectors(self):
        v = StubBackend().embed_texts(["a b", "a b"])
        assert v[0] == v[1]

    def test_disjoint_vocabulary_orthogonal(self):
        v = StubBackend().embed_texts(["a a", "b b"])
        assert cosine_similarity(v[0], v[1]) == pytest.approx(0.0, abs=1e-9)

    def test_half_overlap_cosine(self):
        v = StubBackend().embed_texts(["a b", "a c"])
        assert cosine_similarity(v[0], v[1]) == pytest.approx(0.5, abs=1e-9)

    def test_unit_norm(self):
        vectors = StubBackend().embed_texts(["the cat sat", "a mat", "cat cat cat"])
        for vec in vectors:
            norm = math.sqrt(math.fsum(x * x for x in vec))
            assert norm == pytest.approx(1.0, abs=1e-9)

    def test_tokenless_text_gives_zero_vector(self):
        v = StubBackend().embed_texts(["...", "a b"])
        assert all(x == 0.0 for x in v[0])

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError):
            StubBackend().embed_texts([])

    def test_oversized_text_rejected(self):
        with pytest.raises(TextTooLong):
            StubBackend().embed_texts(["x" * 2001])
        assert StubBackend().embed_texts(["x" * 2000]) == [[1.0]]

    def test_batch_shared_vocabulary(self):
        a1, _ = StubBackend().embed_texts(["a b", "a b c"])
        a2, _ = StubBackend().embed_texts(["a b", "d e f"])
        # same text, different batch vocabulary, so dimensions differ
        assert len(a1) == 3
        assert len(a2) == 5


CANONICAL_CAPTION_BODY = (
    b'{"context":{"doc_title":"Old Harbour Tales",'
    b'"figcaption":"Map of Amsterdam canals",'
    b'"following_text":"","nearest_heading":null,"preceding_text":""},'
    b'"image_base64":"UE5HREFUQQ==","language":"en","max_length":250,'
    b'"media_type":"image/png"}'
)


class TestRemoteWireProtocol:
    def test_caption_body_is_bit_exact(self):
        with MockBackendServer() as server:
            server.enqueue_json(200, {"alt_text": "A red fox.", "confidence": 0.9})
            backend = RemoteBackend(server.url, token="sekrit")
            req = CaptionRequest(
                image_bytes=b"PNGDATA",
                media_type="image/png",
                context=ContextBundle(
                    figcaption="Map of Amsterdam canals",
                    doc_title="Old Harbour Tales",
                ),
                language="en",
            )
            alt = backend.generate_alt(req)
            assert alt.alt_text == "A red fox."
            assert alt.confidence == 0.9
            recorded = server.script.requests[0]
            assert recorded.path == "/v1/caption"
            assert recorded.body == CANONICAL_CAPTION_BODY
            assert recorded.headers["Authorization"] == "Bearer sekrit"
            assert recorded.headers["Content-Type"].startswith("application/json")

    def test_embed_body_is_bit_exact(self):
        with MockBackendServer() as server:
            server.enqueue_json(200, {"embeddings": [[1.0, 0.0], [0.0, 1.0]]})
            backend = RemoteBackend(server.url)
            vectors = backend.embed_texts(["a b", "a c"])
            assert vectors == [[1.0, 0.0], [0.0, 1.0]]
            recorded = server.script.requests[0]
            assert recorded.path == "/v1/embed"
            assert recorded.body == b'{"texts":["a b","a c"]}'
            assert "Authorization" not in recorded.headers

    def test_language_endpoint(self):
        with MockBackendServer() as server:
            server.enqueue_json(200, {"lang": "fr", "confidence": 0.97})
            backend = RemoteBackend(server.url)
            assert backend.detect_language("Bonjour tout le monde") == ("fr", 0.97)
            recorded = server.script.requests[0]
            assert recorded.path == "/v1/language"
            assert recorded.body == b'{"text":"Bonjour tout le monde"}'

    def test_canonical_json_is_utf8_not_ascii_escaped(self):
        body = canonical_json({"text": "café"})
        assert body == '{"text":"café"}'.encode("utf-8")


class TestRemoteErrors:
    def test_http_error_becomes_rejected_without_retry(self):
        with MockBackendServer() as server:
            server.enqueue_json(500, {"error": "overloaded"})
            sleeps: list[float] = []
            backend = RemoteBackend(server.url, sleep=sleeps.append)
            with pytest.raises(BackendRejected) as err:
                backend.generate_alt(png_request())
            assert "500" in str(err.value)
            assert "overloaded" in str(err.value)
            assert sleeps == []
            assert len(server.script.requests) == 1

    def test_client_error_becomes_rejected(self):
        with MockBackendServer() as server:
            server.enqueue_json(400, {"error": "bad payload"})
            backend = RemoteBackend(server.url, sleep=lambda s: None)
            with pytest.raises(BackendRejected):
                backend.embed_texts(["x"])

    def test_connection_refused_retries_then_unavailable(self):
        # grab a port with no listener
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        sleeps: list[float] = []
        backend = RemoteBackend(f"http://127.0.0.1:{port}", sleep=sleeps.append)
        with pytest.raises(BackendUnavailable):
            backend.generate_alt(png_request())
        assert sleeps == [0.5, 2.0]

    def test_non_json_response_malformed(self):
        with MockBackendServer() as server:
            server.enqueue_raw(200, b"<html>gateway</html>")
            backend = RemoteBackend(server.url)
            with pytest.raises(MalformedResponse):
                backend.generate_alt(png_request())

    def test_non_object_response_malformed(self):
        with MockBackendServer() as server:
            server.enqueue_raw(200, b"[1,2,3]")
            backend = RemoteBackend(server.url)
            with pytest.raises(MalformedResponse):
                backend.generate_alt(png_request())

    def test_missing_caption_fields_malformed(self):
        with MockBackendServer() as server:
            server.enqueue_json(200, {"alt_text": "A fox."})
            backend = RemoteBackend(server.url)
            with pytest.raises(MalformedResponse):
                backend.generate_alt(png_request())

    def test_empty_alt_text_candidate_invalid(self):
        with MockBackendServer() as server:
            server.enqueue_json(200, {"alt_text": "", "confidence": 0.9})
            backend = RemoteBackend(server.url)
            with pytest.raises(CandidateInvalid):
                backend.generate_alt(png_request())

    def test_newline_in_alt_candidate_invalid(self):
        with MockBackendServer() as server:
            server.enqueue_json(200, {"alt_text": "a\nfox", "confidence": 0.9})
            backend = RemoteBackend(server.url)
            with pytest.raises(CandidateInvalid):
                backend.generate_alt(png_request())

    def test_overlong_alt_candidate_invalid(self):
        with MockBackendServer() as server:
            server.enqueue_json(200, {"alt_text": "x" * 300, "confidence": 0.9})
            backend = RemoteBackend(server.url)
            with pytest.raises(CandidateInvalid):
                backend.generate_alt(png_request(max_length=250))

    def test_out_of_range_confidence_candidate_invalid(self):
        with MockBackendServer() as server:
            server.enqueue_json(200, {"alt_text": "A fox.", "confidence": 1.5})
            backend = RemoteBackend(server.url)
            with pytest.raises(CandidateInvalid):
                backend.generate_alt(png_request())

    def test_embedding_count_mismatch(self):
        with MockBackendServer() as server:
            server.enqueue_json(200, {"embeddings": [[1.0]]})
            backend = RemoteBackend(server.url)
            with pytest.raises(LengthMismatch):
                backend.embed_texts(["a", "b"])

    def test_embedding_mixed_lengths(self):
        with MockBackendServer() as server:
            server.enqueue_json(200, {"embeddings": [[1.0, 0.0], [1.0]]})
            backend = RemoteBackend(server.url)
            with pytest.raises(LengthMismatch):
                backend.embed_texts(["a", "b"])

    def test_embedding_non_numeric_malformed(self):
        with MockBackendServer() as server:
            server.enqueue_json(200, {"embeddings": [["oops"], [1.0]]})
            backend = RemoteBackend(server.url)
            with pytest.raises(MalformedResponse):
                backend.embed_texts(["a", "b"])

    def test_malformed_language_response(self):
        with MockBackendServer() as server:
            server.enqueue_json(200, {"lang": "", "confidence": 0.9})
            backend = RemoteBackend(server.url)
            with pytest.raises(MalformedResponse):
                backend.detect_language("hello there")


class TestConcurrencyCap:
    def test_inflight_capped_at_four(self):
        with MockBackendServer() as server:
            server.script.delay = 0.05
            backend = RemoteBackend(server.url)
            req = png_request()
            errors: list[Exception] = []

            def worker():
                try:
                    server.enqueue_json(
                        200, {"alt_text": "A fox.", "confidence": 0.9}
                    )
                    backend.generate_alt(req)
                except Exception as exc:  # pragma: no cover
                    errors.append(exc)

            threads = [threading.Thread(target=worker) for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert not errors
            assert len(server.script.requests) == 8
            assert server.script.max_active <= 4


class TestResponseHardening:
    def test_body_over_the_cap_is_malformed(self, monkeypatch):
        body = json.dumps({"lang": "fr", "confidence": 0.97}).encode("utf-8")
        monkeypatch.setattr("altgen.backend.MAX_RESPONSE_BYTES", len(body))
        with MockBackendServer() as server:
            server.enqueue_raw(200, body)
            server.enqueue_raw(200, body + b" ")
            backend = RemoteBackend(server.url)
            assert backend.detect_language("Bonjour tout le monde") == ("fr", 0.97)
            with pytest.raises(MalformedResponse) as err:
                backend.detect_language("Bonjour tout le monde")
            assert f"exceeds {len(body)} bytes" in str(err.value)

    @pytest.mark.parametrize("status", [301, 302, 303, 307, 308])
    def test_redirect_is_rejected_not_followed(self, status):
        with MockBackendServer() as server:
            server.enqueue_redirect(status, server.url + "/v1/elsewhere")
            sleeps: list[float] = []
            backend = RemoteBackend(server.url, sleep=sleeps.append)
            with pytest.raises(BackendRejected) as err:
                backend.generate_alt(png_request())
            assert str(status) in str(err.value)
            assert [r.path for r in server.script.requests] == ["/v1/caption"]
            assert sleeps == []


class TestGenerateAlts:
    def _requests(self, captions: list[str]) -> list[CaptionRequest]:
        return [png_request(context=ContextBundle(figcaption=c)) for c in captions]

    def test_remote_results_in_request_order_with_overlap(self):
        captions = [f"Figure {k}" for k in range(8)]
        with MockBackendServer() as server:
            server.script.respond = figure_captions(frozenset({2}))
            results = RemoteBackend(server.url).generate_alts(self._requests(captions))
            assert [getattr(r, "alt_text", None) for r in results] == [
                None if k == 2 else f"Figure number {k}." for k in range(8)
            ]
            assert isinstance(results[2], BackendRejected)
            assert "no caption for figure 2" in str(results[2])
            assert 1 < server.script.max_active <= 4

    def test_stub_matches_generate_alt(self):
        stub = StubBackend()
        requests = self._requests(["a red fox", "harbour at dusk"])
        assert stub.generate_alts(requests) == [stub.generate_alt(r) for r in requests]
        assert stub.generate_alts([]) == []

    def test_remote_stop_on_error_ends_at_first_failure_in_order(self):
        # figure 5 fails before figure 2 in time; figure 2 comes first in order
        captions = [f"Figure {k}" for k in range(8)]
        with MockBackendServer() as server:
            server.script.respond = figure_captions(frozenset({2, 5}))
            backend = RemoteBackend(server.url)
            results = backend.generate_alts(self._requests(captions), stop_on_error=True)
        assert [r.alt_text for r in results[:2]] == ["Figure number 0.", "Figure number 1."]
        assert len(results) == 3
        assert "no caption for figure 2" in str(results[2])

    def test_stub_stop_on_error_makes_no_later_request(self, monkeypatch):
        stub = StubBackend()
        calls: list[str] = []

        def generate(request):
            calls.append(request.context.figcaption)
            if request.context.figcaption == "b":
                raise BackendRejected("refused")
            return StubBackend.generate_alt(stub, request)

        monkeypatch.setattr(stub, "generate_alt", generate)
        results = stub.generate_alts(self._requests(["a", "b", "c"]), stop_on_error=True)
        assert calls == ["a", "b"]
        assert len(results) == 2 and isinstance(results[1], BackendRejected)
        assert len(stub.generate_alts(self._requests(["a", "b", "c"]))) == 3

    def test_shared_gate_is_used(self):
        gate = threading.BoundedSemaphore(1)
        with MockBackendServer() as server:
            server.script.respond = figure_captions()
            backend = RemoteBackend(server.url, gate=gate)
            results = backend.generate_alts(self._requests([f"Figure {k}" for k in range(4)]))
            assert server.script.max_active == 1
        assert [r.alt_text for r in results] == [f"Figure number {k}." for k in range(4)]

    def test_remote_stop_on_error_sends_nothing_after_a_failure(self):
        captions = [f"Figure {k}" for k in range(8)]

        def respond(path: str, body: bytes) -> tuple[int, bytes]:
            if json.loads(body)["context"]["figcaption"] == "Figure 1":
                return 500, b'{"error": "no caption for figure 1"}'
            time.sleep(0.1)
            return 200, b'{"alt_text": "Figure number 0.", "confidence": 0.9}'

        with MockBackendServer() as server:
            server.script.respond = respond
            backend = RemoteBackend(server.url, inflight_cap=2)
            results = backend.generate_alts(self._requests(captions), stop_on_error=True)
            sent = [json.loads(r.body)["context"]["figcaption"] for r in server.script.requests]
        # figure 1 fails while figure 0 is still in flight, so figure 2 never goes out
        assert sorted(sent) == ["Figure 0", "Figure 1"]
        assert results[0].alt_text == "Figure number 0."
        assert "no caption for figure 1" in str(results[1]) and len(results) == 2
