from __future__ import annotations

import math
import sys
import unicodedata

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import embed_oracles
import metric_oracles
from metric_oracles import BLEU_CASES, COSINE_CASES, outcome
from altgen.backend import BackendUnavailable, StubBackend
from altgen.metrics import (
    EMBED_CHUNK_PAIRS,
    EmptyCandidate,
    LengthMismatch,
    MetricReport,
    NoReferences,
    ZeroVector,
    bleu,
    corpus_metrics,
    cosine_similarity,
    error_reduction_rate,
    mean,
    tokenize,
)

TOL = 1e-9


class TestTokenize:
    def test_lowercase_and_punctuation(self):
        assert tokenize("The cat, sat; on (the) mat!") == [
            "the",
            "cat",
            "sat",
            "on",
            "the",
            "mat",
        ]

    def test_inner_punctuation_kept(self):
        assert tokenize("it's state-of-the-art.") == ["it's", "state-of-the-art"]

    def test_unicode_whitespace_and_punct(self):
        assert tokenize("renard roux « dusk…»") == [
            "renard",
            "roux",
            "dusk",
        ]

    def test_empty_and_punct_only(self):
        assert tokenize("") == []
        assert tokenize("... !?") == []


_TOKEN_CHARS = st.one_of(
    st.characters(),
    st.sampled_from(" \t\n\u00a0\u3000.,;:!?'\"()«»-\u2026\u00bfaZ9éß"),
)


class TestFastPathsMatchReferences:
    def test_no_alphanumeric_character_is_punctuation(self):
        # what lets tokenize skip the strip for a token with alphanumeric ends
        found = [
            cp
            for cp in range(sys.maxunicode + 1)
            if chr(cp).isalnum() and unicodedata.category(chr(cp)).startswith("P")
        ]
        assert found == []

    @settings(max_examples=500, deadline=None)
    @given(text=st.text(_TOKEN_CHARS, max_size=40))
    def test_tokenize_matches_reference(self, text):
        assert tokenize(text) == metric_oracles.tokenize(text)

    @settings(max_examples=500, deadline=None)
    @given(
        cand=st.lists(st.sampled_from("abcd"), max_size=9),
        refs=st.lists(st.lists(st.sampled_from("abcde"), max_size=9), max_size=3),
        max_n=st.integers(0, 5),
        smoothing=st.booleans(),
    )
    def test_bleu_matches_reference(self, cand, refs, max_n, smoothing):
        assert outcome(bleu, cand, refs, max_n, smoothing) == outcome(
            metric_oracles.bleu, cand, refs, max_n, smoothing
        )


class TestCosineOracles:
    @pytest.mark.parametrize("a,b,expected", COSINE_CASES)
    def test_case(self, a, b, expected):
        assert cosine_similarity(a, b) == pytest.approx(expected, abs=TOL)

    def test_zero_vector_rejected(self):
        with pytest.raises(ZeroVector):
            cosine_similarity([0.0, 0.0], [1.0, 0.0])

    def test_length_mismatch_rejected(self):
        with pytest.raises(LengthMismatch):
            cosine_similarity([1.0], [1.0, 0.0])

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            cosine_similarity([float("nan"), 1.0], [1.0, 1.0])
        with pytest.raises(ValueError):
            cosine_similarity([1.0, 1.0], [float("inf"), 1.0])


class TestBleuOracles:
    @pytest.mark.parametrize("cand,refs,max_n,smoothing,expected", BLEU_CASES)
    def test_case(self, cand, refs, max_n, smoothing, expected):
        assert bleu(cand, refs, max_n, smoothing) == pytest.approx(expected, abs=TOL)

    def test_tokenizer_canonicalizes_case_and_punct(self):
        assert bleu(tokenize("The cat."), [tokenize("the cat")]) == pytest.approx(
            1.0, abs=TOL
        )

    def test_empty_candidate_rejected(self):
        with pytest.raises(EmptyCandidate):
            bleu([], [["x"]])

    def test_no_references_rejected(self):
        with pytest.raises(NoReferences):
            bleu(["x"], [])
        with pytest.raises(NoReferences):
            bleu(["x"], [[]])

    def test_bad_max_n_rejected(self):
        with pytest.raises(ValueError):
            bleu(["x"], [["x"]], max_n=0)


class TestErrorReductionRate:
    def test_full_reduction(self):
        assert error_reduction_rate(40, 0) == (100.0, False)

    def test_table_value(self):
        value, no_baseline = error_reduction_rate(40, 1)
        assert value == pytest.approx(97.5, abs=TOL)
        assert not no_baseline

    def test_no_baseline(self):
        assert error_reduction_rate(0, 0) == (0.0, True)

    def test_small_reduction(self):
        value, _ = error_reduction_rate(40, 39)
        assert value == pytest.approx(2.5, abs=TOL)

    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError):
            error_reduction_rate(-1, 0)
        with pytest.raises(ValueError):
            error_reduction_rate(1, -1)

    def test_regression_allowed(self):
        value, _ = error_reduction_rate(10, 20)
        assert value == pytest.approx(-100.0, abs=TOL)


@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=8))
def test_mean_of_finite_values_is_finite(values):
    got = mean(values)
    if not values:
        assert got is None
        return
    assert math.isfinite(got)
    try:
        total = math.fsum(values)
    except OverflowError:
        return
    if math.isfinite(total):  # the plain mean where it is a float
        assert got == total / len(values)


finite_floats = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)


def nonzero_vector(draw, dim):
    vec = draw(
        st.lists(finite_floats, min_size=dim, max_size=dim).filter(
            lambda v: any(abs(x) > 1e-6 for x in v)
        )
    )
    return vec


@settings(max_examples=200, deadline=None)
@given(st.data(), st.integers(min_value=1, max_value=8))
def test_cosine_symmetry_and_range(data, dim):
    a = nonzero_vector(data.draw, dim)
    b = nonzero_vector(data.draw, dim)
    s = cosine_similarity(a, b)
    assert cosine_similarity(b, a) == s
    assert -1.0 <= s <= 1.0


@settings(max_examples=200, deadline=None)
@given(st.data(), st.integers(min_value=1, max_value=8))
def test_cosine_self_similarity(data, dim):
    a = nonzero_vector(data.draw, dim)
    assert cosine_similarity(a, a) == pytest.approx(1.0, abs=TOL)


@settings(max_examples=200, deadline=None)
@given(
    st.data(),
    st.integers(min_value=1, max_value=8),
    st.floats(min_value=1e-3, max_value=1e3),
)
def test_cosine_scale_invariance(data, dim, k):
    a = nonzero_vector(data.draw, dim)
    b = nonzero_vector(data.draw, dim)
    scaled = [k * x for x in a]
    assert cosine_similarity(scaled, b) == pytest.approx(
        cosine_similarity(a, b), abs=1e-9
    )


words = st.sampled_from("the a cat dog sat ran mat hat on under".split())
token_lists = st.lists(words, min_size=1, max_size=12)


@settings(max_examples=200, deadline=None)
@given(token_lists)
def test_bleu_identity(cand):
    assert bleu(cand, [cand]) == 1.0


@settings(max_examples=200, deadline=None)
@given(token_lists, st.lists(token_lists, min_size=1, max_size=4), st.booleans())
def test_bleu_range(cand, refs, smoothing):
    score = bleu(cand, refs, smoothing=smoothing)
    assert 0.0 <= score <= 1.0


@settings(max_examples=200, deadline=None)
@given(token_lists, st.lists(token_lists, min_size=2, max_size=4), st.randoms())
def test_bleu_reference_permutation_invariance(cand, refs, rng):
    shuffled = list(refs)
    rng.shuffle(shuffled)
    assert bleu(cand, shuffled) == bleu(cand, refs)


class TestCorpusMetrics:
    @staticmethod
    def fake_embedder(texts):
        table = {
            "a red fox": [1.0, 0.0],
            "a red fox.": [1.0, 0.0],
            "a brown dog": [0.0, 1.0],
            "half match": [1.0, 1.0],
        }
        return [table[t] for t in texts]

    def test_perfect_pairs(self):
        report = corpus_metrics(
            [("a red fox", "a red fox")], self.fake_embedder, timings=[0.5, 1.5]
        )
        assert report.cosine == pytest.approx(1.0, abs=TOL)
        assert report.bleu == pytest.approx(1.0, abs=TOL)
        assert report.seconds_per_file == pytest.approx(1.0, abs=TOL)
        assert report.n_files == 2
        assert report.n_pairs == 1
        assert report.embed_failures == 0
        assert report.bleu_failures == 0

    def test_mixed_pairs_mean(self):
        report = corpus_metrics(
            [
                ("a red fox", "a red fox"),
                ("a red fox", "a brown dog"),
            ],
            self.fake_embedder,
        )
        # cosines 1.0 and 0.0; bleu 1.0 and 0.0
        assert report.cosine == pytest.approx(0.5, abs=TOL)
        assert report.bleu == pytest.approx(0.5, abs=TOL)
        assert report.seconds_per_file is None

    def test_embed_failure_counted_separately(self):
        def broken_embedder(texts):
            raise ZeroVector("no tokens")

        report = corpus_metrics(
            [("a red fox", "a red fox")], broken_embedder
        )
        assert report.embed_failures == 1
        assert report.cosine is None
        assert report.bleu == pytest.approx(1.0, abs=TOL)

    def test_wrong_vector_count_counted(self):
        report = corpus_metrics(
            [("a red fox", "a red fox")], lambda texts: [[1.0, 0.0]]
        )
        assert report.embed_failures == 1

    def test_bleu_failure_counted(self):
        report = corpus_metrics(
            [("...", "a red fox")],
            lambda texts: [[1.0, 0.0], [1.0, 0.0]],
        )
        assert report.bleu_failures == 1
        assert report.bleu is None
        assert report.cosine == pytest.approx(1.0, abs=TOL)

    def test_empty_pairs_give_an_empty_report(self):
        def embedder(texts):
            raise AssertionError("no pairs call no embedder")

        report = corpus_metrics([], embedder, timings=[0.5, 1.5])
        assert report == MetricReport(seconds_per_file=1.0, n_files=2)

    def test_report_dict_keys(self):
        report = MetricReport(
            cosine=1.0,
            bleu=0.5,
            err_percent=97.5,
            no_baseline=False,
            seconds_per_file=0.1,
            n_files=2,
            n_pairs=3,
            embed_failures=0,
            bleu_failures=0,
            missing_references=1,
        )
        d = report.to_dict()
        assert d["cosine"] == 1.0
        assert d["err_percent"] == 97.5
        assert d["missing_references"] == 1


_EMBED_WORDS = ["fox", "Fox,", "red", "dusk", "harbour", "café", "a", "the", "...", "!"]
_embed_text = st.lists(st.sampled_from(_EMBED_WORDS), max_size=8).map(" ".join)
# over the stub's 2000-character limit
_OVERLONG = "w " * 1001


@st.composite
def embed_pairs(draw, unique: bool = False) -> list[tuple[str, str]]:
    """Pairs spanning up to four chunks; some texts have no tokens, a few
    are too long for the stub, and with `unique` every candidate differs."""
    pairs = draw(st.lists(st.tuples(_embed_text, _embed_text), min_size=1, max_size=60))
    overlong = draw(st.sets(st.integers(0, len(pairs) - 1), max_size=2))
    pairs = [(c, _OVERLONG if k in overlong else r) for k, (c, r) in enumerate(pairs)]
    if unique:
        pairs = [(f"{c} n{k}", r) for k, (c, r) in enumerate(pairs)]
    return pairs


def _chunks(pairs):
    return [pairs[i : i + EMBED_CHUNK_PAIRS] for i in range(0, len(pairs), EMBED_CHUNK_PAIRS)]


class TestChunkedEmbedding:
    @settings(max_examples=150, deadline=None)
    @given(pairs=embed_pairs(), timings=st.lists(st.floats(0, 10), max_size=3))
    def test_stub_matches_per_pair_reference(self, pairs, timings):
        assert corpus_metrics(pairs, StubBackend().embed_texts, timings) == (
            embed_oracles.corpus_metrics(pairs, embed_oracles.stub_embed, timings)
        )

    @settings(max_examples=100, deadline=None)
    @given(pairs=embed_pairs(unique=True), mode=st.sampled_from(["raise", "short"]), data=st.data())
    def test_failed_chunk_falls_back_to_pairs(self, pairs, mode, data):
        chunks = _chunks(pairs)
        chosen = data.draw(st.sets(st.integers(0, len(chunks) - 1)))
        chunk_of = {tuple(t for pair in chunk for t in pair): k for k, chunk in enumerate(chunks)}
        seen: set[int] = set()
        calls: list[int] = []

        def embedder(texts):
            calls.append(len(texts))
            k = chunk_of.get(tuple(texts))
            if k is None or k in seen:
                return StubBackend().embed_texts(texts)
            seen.add(k)  # the chunk's own call; any later call is a pair's
            if k not in chosen:
                return StubBackend().embed_texts(texts)
            if mode == "raise":
                raise BackendUnavailable("chunk lost")
            return StubBackend().embed_texts(texts)[:-1]

        report = corpus_metrics(pairs, embedder)
        assert report == embed_oracles.corpus_metrics(pairs, embed_oracles.stub_embed)
        assert seen == set(range(len(chunks)))
        assert len(calls) >= len(chunks) + sum(len(chunks[k]) for k in chosen)

    def test_one_call_per_chunk(self):
        pairs = [(f"a red fox {k}", "a red fox") for k in range(2 * EMBED_CHUNK_PAIRS + 1)]
        calls: list[int] = []

        def embedder(texts):
            calls.append(len(texts))
            return StubBackend().embed_texts(texts)

        report = corpus_metrics(pairs, embedder)
        assert calls == [32, 32, 2]
        assert report.embed_failures == 0

    def test_failure_charged_to_its_pair_only(self):
        pairs = [("a red fox", "..."), ("a red fox", _OVERLONG), ("a red fox", "a red fox")]
        report = corpus_metrics(pairs, StubBackend().embed_texts)
        assert report.embed_failures == 2
        assert report.cosine == 1.0
