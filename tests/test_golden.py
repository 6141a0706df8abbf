"""Byte identity as a test: audit, repair and validate on the corpora of
tools/golden.py give the digests checked in at tests/data/golden.json.

A change that means to alter an output regenerates the file,

    PYTHONPATH=src python3 tools/golden.py tests/data/golden.json

and says which digests moved and why.
"""

from __future__ import annotations

import copy
import json
import sys
import zlib
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tools"))
import golden  # noqa: E402

GOLDEN = Path(__file__).parent / "data" / "golden.json"


@pytest.fixture(scope="module")
def digests(tmp_path_factory) -> dict:
    return golden.digests(tmp_path_factory.mktemp("golden"))


@pytest.fixture(scope="module")
def recorded() -> dict:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def _inflated_only(digests: dict) -> dict:
    runs = copy.deepcopy(digests["runs"])
    for run in runs.values():
        for book in run["repair"]["books"].values():
            del book["raw"]
    return runs


def test_outputs_match_the_golden_digests(digests, recorded):
    # exit codes, stdout, stderr, reports and every book's inflated entries
    assert _inflated_only(digests) == _inflated_only(recorded)


def test_book_bytes_match_the_golden_digests(digests, recorded):
    if recorded["zlib"] != zlib.ZLIB_RUNTIME_VERSION:
        pytest.skip(
            f"zlib {zlib.ZLIB_RUNTIME_VERSION} is not the recorded {recorded['zlib']}, which "
            "deflated the digested books: their inflated entries, with names, order and "
            "methods, were compared instead of their bytes"
        )
    assert digests == recorded


def test_outputs_do_not_depend_on_jobs(digests):
    runs = digests["runs"]
    for corpus in ("stub", "remote"):
        assert runs[f"{corpus} --jobs 1 --report json"] == runs[f"{corpus} --jobs 2 --report json"]
