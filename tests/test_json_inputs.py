"""Every JSON input goes through one strict reader: the --config file, the
references file, a stored altgen-report.json and a backend reply. Whatever
they hold, a command ends with its report, or with exit 2 and one
`altgen: error:` line, and a backend call with its result or a typed error;
never with a traceback or an internal error row."""

from __future__ import annotations

import contextlib
import io
import json
import math
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import epubgen
from mockserver import MockBackendServer
from altgen.backend import BackendError, CaptionRequest, RemoteBackend
from altgen.cli import _CONFIG_KEYS, main
from altgen.metrics import LengthMismatch
from altgen.pipeline import REPORT_FILENAME

# integers past the float range (int(max) + 1 still rounds to max) and
# floats at its ends
_EDGES = [
    10**400, -(10**400), 2**1024, int(sys.float_info.max), int(sys.float_info.max) + 1,
    sys.float_info.max, -sys.float_info.max, sys.float_info.min, 5e-324, -0.0,
]
_NUMBERS = st.one_of(st.integers(), st.floats(), st.sampled_from(_EDGES))
# strings a path cannot hold, beside arbitrary ones
_TEXTS = st.one_of(st.text(max_size=6), st.sampled_from(["\x00", "\ud800", "..", ""]))
_SCALARS = st.one_of(st.none(), st.booleans(), _NUMBERS, _TEXTS)
JSON_VALUES = st.recursive(
    _SCALARS,
    lambda children: st.one_of(
        st.lists(children, max_size=4), st.dictionaries(_TEXTS, children, max_size=4)
    ),
    max_leaves=12,
)


def _with(shaped):
    """Values of the input's own shape, with arbitrary ones in any place,
    or any JSON value at all."""
    return st.one_of(shaped, JSON_VALUES)


CONFIGS = _with(
    st.dictionaries(
        st.sampled_from(sorted(_CONFIG_KEYS)),
        st.one_of(_SCALARS, st.sampled_from(["json", "text"]), st.integers(-1, 3)),
        max_size=4,
    )
)
REFERENCES = _with(
    st.lists(
        st.fixed_dictionaries(
            {
                "epub": st.one_of(st.just("book.epub"), _TEXTS, _SCALARS),
                "doc": st.one_of(st.just("OEBPS/ch1.xhtml"), _TEXTS, _SCALARS),
                "index": st.one_of(st.integers(-1, 2), _SCALARS),
                "alt": st.one_of(st.just("A red fox"), _TEXTS, _SCALARS),
            }
        ),
        max_size=3,
    )
)
_COUNTS = st.one_of(st.integers(0, 3), _SCALARS)
REPORTS = _with(
    st.fixed_dictionaries(
        {},
        optional={
            "files": st.one_of(
                st.lists(st.one_of(st.fixed_dictionaries({"elapsed_seconds": _SCALARS}), _SCALARS)),
                _SCALARS,
            ),
            "aggregate": st.one_of(
                st.fixed_dictionaries({}, optional={"pre_errors": _COUNTS, "post_errors": _COUNTS}),
                _SCALARS,
            ),
        },
    )
)
_CONFIDENCES = st.one_of(st.floats(0, 1), _SCALARS)
REPLIES = {
    "caption": _with(
        st.fixed_dictionaries(
            {"alt_text": st.one_of(st.just("A fox."), _SCALARS), "confidence": _CONFIDENCES}
        )
    ),
    "embed": _with(
        st.fixed_dictionaries(
            {"embeddings": st.lists(st.lists(_SCALARS, max_size=3), max_size=2)}
        )
    ),
    "language": _with(
        st.fixed_dictionaries(
            {"lang": st.one_of(st.just("fr"), _SCALARS), "confidence": _CONFIDENCES}
        )
    ),
}
_CALLS = {
    "caption": lambda backend: backend.generate_alt(
        CaptionRequest(image_bytes=epubgen.tiny_png(), media_type="image/png")
    ),
    "embed": lambda backend: backend.embed_texts(["a"]),
    "language": lambda backend: backend.detect_language("hello there"),
}

# bytes the reader refuses whatever the input: not UTF-8, an integer of
# more digits than Python reads, and nesting deeper than it parses
RAW = {
    "not-utf8": b'{"\xff": 1}',
    "digits": b"[1" + b"0" * 4999 + b"]",
    "deep": b"[" * 100_000 + b"]" * 100_000,
}


def _encode(value) -> bytes:
    return json.dumps(value).encode("utf-8")


def _run(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _reject(name: str):
    raise ValueError(f"{name} is not JSON")


def _check_outcome(code: int, out: str, err: str) -> None:
    """Either one error line and exit 2, or a report and no stderr."""
    if code == 2:
        assert err.startswith("altgen: error: ") and err.count("\n") == 1, err
        assert out == ""
    else:
        assert code in (0, 1) and err == "", err


@pytest.fixture(scope="module")
def books(tmp_path_factory):
    """A defective book, its repaired copy (with the report repair wrote)
    and references to its one image."""
    root = tmp_path_factory.mktemp("json-inputs")
    (root / "books").mkdir()
    fox = {"name": "fox.png", "alt": None, "caption": "A red fox"}
    (root / "books" / "book.epub").write_bytes(epubgen.make_book(language=None, images=[fox]))
    assert _run(["repair", str(root / "books"), "-o", str(root / "out"), "--jobs", "1"])[0] == 0
    (root / "refs.json").write_bytes(_encode(_reference("book.epub")))
    return root


def _validate(books, refs: str = "refs.json", backend: str = "stub") -> tuple[int, str, str]:
    return _run(
        ["validate", str(books / "out"), "--references", str(books / refs),
         "--backend", backend, "--report", "json"]
    )


@settings(max_examples=100, deadline=None)
@given(value=CONFIGS)
def test_config_file_is_one_error_line_or_a_report(books, value):
    (books / "config.json").write_bytes(_encode(value))
    code, out, err = _run(
        ["audit", str(books / "books"), "--config", str(books / "config.json"), "--backend", "stub"]
    )
    _check_outcome(code, out, err)
    if type(value) is not dict:
        assert err.startswith("altgen: error: unreadable config file ")


def _reference(epub: str) -> list[dict]:
    return [{"epub": epub, "doc": "OEBPS/ch1.xhtml", "index": 0, "alt": "A red fox"}]


@settings(max_examples=100, deadline=None)
@given(value=REFERENCES)
@example(value=_reference("\x00"))  # a path the OS cannot take
@example(value=_reference("\ud800"))  # a path no file system encoding takes
def test_references_file_is_one_error_line_or_a_report(books, value):
    (books / "refs-drawn.json").write_bytes(_encode(value))
    code, out, err = _validate(books, "refs-drawn.json")
    _check_outcome(code, out, err)
    if type(value) is not list:
        assert err == "altgen: error: unreadable references file: not a JSON array\n"
    if code != 2:
        json.loads(out, parse_constant=_reject)


@settings(max_examples=150, deadline=None)
@given(value=REPORTS)
def test_stored_report_exit_code_is_1_exactly_when_errors_remain(books, value):
    report = books / "out" / REPORT_FILENAME
    kept = report.read_bytes()
    report.write_bytes(_encode(value))
    try:
        code, out, err = _validate(books)
    finally:
        report.write_bytes(kept)
    _check_outcome(code, out, err)
    if type(value) is not dict:
        assert err == f"altgen: error: unreadable {REPORT_FILENAME}: not a JSON object\n"
        return
    payload = json.loads(out, parse_constant=_reject)
    aggregate = value.get("aggregate") if type(value.get("aggregate")) is dict else {}
    pre, post = aggregate.get("pre_errors"), aggregate.get("post_errors")
    counts = all(type(count) is int and count >= 0 for count in (pre, post))
    assert code == (1 if counts and post > 0 else 0)
    if not counts:
        assert payload["err_percent"] is None


@pytest.fixture(scope="module")
def server():
    with MockBackendServer() as server:
        yield server


@settings(max_examples=200, deadline=None)
@given(call_value=st.sampled_from(sorted(REPLIES)).flatmap(
    lambda call: st.tuples(st.just(call), REPLIES[call])
))
def test_backend_reply_is_a_result_or_a_typed_error(server, call_value):
    call, value = call_value
    server.script.responses.clear()
    server.enqueue_raw(200, _encode(value))
    try:
        got = _CALLS[call](RemoteBackend(server.url))
    except (BackendError, LengthMismatch):  # LengthMismatch: a wrong count of rows
        return
    if call == "caption":
        assert isinstance(got.alt_text, str) and type(got.confidence) is float
        assert 0.0 <= got.confidence <= 1.0
    elif call == "embed":
        assert all(type(x) is float and math.isfinite(x) for row in got for x in row)
    else:
        assert isinstance(got[0], str) and type(got[1]) is float and math.isfinite(got[1])


@pytest.mark.parametrize("raw", sorted(RAW))
def test_bytes_the_reader_refuses_are_one_error_line(books, raw):
    config = books / "config-raw.json"
    config.write_bytes(RAW[raw])
    code, out, err = _run(["audit", str(books / "books"), "--config", str(config)])
    assert (code, out) == (2, "")
    assert err.startswith(f"altgen: error: unreadable config file {config}: ")
    assert err.count("\n") == 1

    (books / "refs-raw.json").write_bytes(RAW[raw])
    code, out, err = _validate(books, "refs-raw.json")
    assert (code, out) == (2, "")
    assert err.startswith("altgen: error: unreadable references file: ")
    assert err.count("\n") == 1

    report = books / "out" / REPORT_FILENAME
    kept = report.read_bytes()
    report.write_bytes(RAW[raw])
    try:
        code, out, err = _validate(books)
    finally:
        report.write_bytes(kept)
    assert (code, out) == (2, "")
    assert err.startswith(f"altgen: error: unreadable {REPORT_FILENAME}: ")
    assert err.count("\n") == 1


@pytest.mark.parametrize("raw", sorted(RAW))
def test_replies_the_reader_refuses_fail_calls_not_books(books, tmp_path, raw):
    """Every reply is refused: repair writes no alt but fails no book, and
    validate counts each pair's embedding as failed."""
    with MockBackendServer() as server:
        server.script.respond = lambda path, body: (200, RAW[raw])
        code, out, err = _run(
            ["repair", str(books / "books"), "-o", str(tmp_path / "out"), "--jobs", "1",
             "--backend", server.url, "--report", "json"]
        )
        assert (code, err) == (1, "")
        (row,) = json.loads(out)["files"]
        assert (row["status"], row["reason"], row["caption_failures"]) == ("Repaired", None, 1)
        code, out, err = _validate(books, backend=server.url)
    assert (code, err) == (0, "")
    payload = json.loads(out, parse_constant=_reject)
    assert (payload["n_pairs"], payload["embed_failures"]) == (1, 1)
