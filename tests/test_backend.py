from __future__ import annotations

import json
import math
import random
import socket
import sys
import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import embed_oracles
import epubgen
from metric_oracles import outcome
from mockserver import MockBackendServer, RawReplyServer, figure_captions
from altgen.backend import (
    BackendRejected,
    BackendUnavailable,
    CandidateInvalid,
    CaptionRequest,
    MalformedResponse,
    RemoteBackend,
    ResponseTooLarge,
    StubBackend,
    TextTooLong,
    canonical_json,
    fan_out,
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

    @pytest.mark.parametrize("encoding", ["x-nope"])
    def test_svg_in_an_encoding_expat_cannot_read_has_no_title(self, encoding):
        svg = epubgen.tiny_svg("Harbour map").replace(b"UTF-8", encoding.encode())
        req = CaptionRequest(
            image_bytes=svg, media_type="image/svg+xml", source_name="OEBPS/images/map.svg"
        )
        assert StubBackend().generate_alt(req).alt_text == "Image: map."

    @pytest.mark.parametrize("encoding", ["shift_jis", "euc-jp", "gbk"])
    def test_svg_in_a_multibyte_encoding_has_its_title(self, encoding):
        svg = epubgen.tiny_svg("港の地図").decode("utf-8").replace("UTF-8", encoding)
        req = CaptionRequest(
            image_bytes=svg.encode(encoding),
            media_type="image/svg+xml",
            source_name="OEBPS/images/map.svg",
        )
        assert StubBackend().generate_alt(req).alt_text == "Image: map. 港の地図."

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

    @pytest.mark.parametrize(
        "reply",
        [
            b"GARBAGE\r\n\r\n",
            b"HTTP/1.1 200 OK\r\nX-Long: " + b"a" * 70000 + b"\r\n\r\n",
            b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\nzz\r\n",
            b"HTTP/1.1 200 OK\r\nContent-Length: 100\r\n\r\n{}",
        ],
        ids=["BadStatusLine", "LineTooLong", "BadChunk", "ShortBody"],
    )
    def test_reply_that_is_not_http_is_malformed_without_retry(self, reply):
        with RawReplyServer(reply) as server:
            sleeps: list[float] = []
            backend = RemoteBackend(server.url, sleep=sleeps.append)
            with pytest.raises(MalformedResponse) as err:
                backend.generate_alt(png_request())
        assert "reply is not HTTP" in str(err.value)
        assert sleeps == []
        assert server.paths == ["/v1/caption"]

    def test_connection_closed_without_reply_retries_then_unavailable(self):
        # RemoteDisconnected is an HTTPException too, but it stays retried
        with RawReplyServer(b"") as server:
            sleeps: list[float] = []
            backend = RemoteBackend(server.url, sleep=sleeps.append)
            with pytest.raises(BackendUnavailable):
                backend.embed_texts(["a b"])
        assert sleeps == [0.5, 2.0]
        assert server.paths == ["/v1/embed"] * 3

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

    # XML 1.0 forbids them even escaped, so no splice could write them
    @pytest.mark.parametrize("alt", ["A red\u0001 fox", "A red \ud800 fox", "A red fox\ufffe"])
    def test_character_xml_forbids_candidate_invalid(self, alt):
        with MockBackendServer() as server:
            server.enqueue_json(200, {"alt_text": alt, "confidence": 0.9})
            backend = RemoteBackend(server.url)
            with pytest.raises(CandidateInvalid, match="cannot be written in XML"):
                backend.generate_alt(png_request())

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

    @pytest.mark.parametrize("lang", ["not a tag!!", "e\u0001n", "en\n", "\u017fv"])
    def test_language_that_is_no_tag_malformed(self, lang):
        with MockBackendServer() as server:
            server.enqueue_json(200, {"lang": lang, "confidence": 0.9})
            backend = RemoteBackend(server.url)
            with pytest.raises(MalformedResponse, match="lacks a BCP 47 lang"):
                backend.detect_language("hello there")


# what json.loads gives, with integers inside the float range
_JSON_VALUE = st.one_of(
    st.floats(),
    st.integers(-(2**64), 2**64),
    st.booleans(),
    st.none(),
    st.text(max_size=2),
    st.lists(st.integers(0, 3), max_size=2),
)
_EMBEDDINGS = st.one_of(
    st.lists(st.one_of(st.lists(_JSON_VALUE, max_size=4), _JSON_VALUE), max_size=4),
    st.lists(st.lists(st.one_of(st.floats(), st.integers(-9, 9)), min_size=2, max_size=2)),
    _JSON_VALUE,
)


class TestEmbedReplies:
    def test_chunk_pairs(self):
        assert StubBackend().embed_chunk_pairs(342) == 16
        remote = RemoteBackend("http://127.0.0.1:9")
        # spread over the four in-flight slots, at most 128 pairs a request
        assert [remote.embed_chunk_pairs(n) for n in (1, 4, 5, 101, 342, 512, 513, 9000)] == [
            1, 1, 2, 26, 86, 128, 128, 128,
        ]
        assert RemoteBackend("http://127.0.0.1:9", inflight_cap=1).embed_chunk_pairs(101) == 101

    @settings(max_examples=400, deadline=None)
    @given(embeddings=_EMBEDDINGS, extra=st.integers(-1, 1))
    def test_rows_checked_as_the_value_by_value_reference(self, embeddings, extra):
        n_texts = max(1, len(embeddings) + extra if isinstance(embeddings, list) else 1)
        backend = RemoteBackend("http://127.0.0.1:9")
        backend._post = lambda path, payload: {"embeddings": embeddings}
        got = outcome(backend.embed_texts, ["t"] * n_texts)
        assert got == outcome(embed_oracles.embedding_rows, embeddings, n_texts)
        if isinstance(got, list):
            assert all(type(x) is float for row in got for x in row)

    def test_integer_beyond_the_float_range_is_malformed(self):
        with MockBackendServer() as server:
            server.enqueue_raw(200, b'{"embeddings": [[1' + b"0" * 400 + b"]]}")
            with pytest.raises(MalformedResponse, match="not a finite number"):
                RemoteBackend(server.url).embed_texts(["a"])


# each remote call, and a reply to it with `value` in place of its number
_CALLS = {
    "caption": (lambda b: b.generate_alt(png_request()), b'{"alt_text":"A fox.","confidence":%s}'),
    "embed": (lambda b: b.embed_texts(["a"]), b'{"embeddings":[[%s]]}'),
    "language": (lambda b: b.detect_language("hello there"), b'{"lang":"fr","confidence":%s}'),
}
_DIGITS = b"1" + b"0" * 4999  # past the interpreter's integer-digit limit
_DEEP = b"[" * 100_000 + b"]" * 100_000
_HUGE = b"1" + b"0" * 400  # 10**400: an integer past the float range


class TestHostileReplies:
    @pytest.mark.parametrize(
        "call, value, error",
        [
            ("caption", _DIGITS, MalformedResponse),
            ("caption", _DEEP, MalformedResponse),
            ("caption", _HUGE, CandidateInvalid),
            ("embed", _DIGITS, MalformedResponse),
            ("embed", _DEEP, MalformedResponse),
            ("language", _DIGITS, MalformedResponse),
            ("language", _DEEP, MalformedResponse),
            ("language", _HUGE, MalformedResponse),
        ],
        ids=[
            "caption-digits", "caption-deep", "caption-huge", "embed-digits", "embed-deep",
            "language-digits", "language-deep", "language-huge",
        ],
    )
    def test_number_or_nesting_past_the_limits_is_a_typed_error(self, call, value, error):
        request, reply = _CALLS[call]
        with MockBackendServer() as server:
            server.enqueue_raw(200, reply % value)
            with pytest.raises(error) as excinfo:
                request(RemoteBackend(server.url))
        assert type(excinfo.value) is error


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


class TestFanOut:
    def test_results_in_item_order_on_threads_and_serially(self):
        threads: set[int] = set()

        def square(x: int) -> int:
            threads.add(threading.get_ident())
            time.sleep(0.01 * (8 - x))  # later items finish first
            return x * x

        assert fan_out(square, range(8), 4) == [x * x for x in range(8)]
        assert threading.get_ident() not in threads and len(threads) > 1
        threads.clear()
        assert fan_out(square, range(8), 1) == [x * x for x in range(8)]
        assert threads == {threading.get_ident()}

    def test_stop_is_the_first_in_item_order_under_contention(self):
        # more threads than cores, items finishing out of order and a short
        # switch interval: a lost update of the lowest stopped index would
        # end the results past it
        def uneven(i: int) -> int:
            time.sleep(0.001 * (i * 7 % 5))
            return i

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for trial in range(50):
                stops = set(random.Random(trial).sample(range(32), 4))
                results = fan_out(uneven, range(32), 8, stop=stops.__contains__)
                assert results == list(range(min(stops) + 1))
        finally:
            sys.setswitchinterval(old)


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

    def test_unannounced_body_over_the_cap_is_too_large(self, monkeypatch):
        # chunked: no Content-Length, so the cap is met while reading
        monkeypatch.setattr("altgen.backend.MAX_RESPONSE_BYTES", 16)
        body = b'{"lang": "fr", "confidence": 0.97}'
        reply = b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n"
        reply += b"%x\r\n%s\r\n0\r\n\r\n" % (len(body), body)
        with RawReplyServer(reply) as server:
            with pytest.raises(ResponseTooLarge, match="exceeds 16 bytes"):
                RemoteBackend(server.url).detect_language("Bonjour")

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
