"""Validation mathematics: cosine similarity, sentence BLEU with brevity
penalty, error reduction rate, and corpus-level aggregation.

One canonical tokenizer serves BLEU and the stub embedder: split on Unicode
whitespace, strip leading/trailing punctuation, lowercase, drop empties.

corpus_metrics embeds its pairs in chunks of a size the caller picks (the
backend's `embed_chunk_pairs`), and embeds the pairs of a failed chunk one
pair per call, so one bad text costs only its own pair.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import unicodedata
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Sequence

from altgen.errors import AltgenError


# Pairs per embedder call in corpus_metrics unless the caller says otherwise.
EMBED_CHUNK_PAIRS = 16


class MetricError(AltgenError):
    pass


class ZeroVector(MetricError):
    pass


class LengthMismatch(MetricError):
    """Vector lengths disagree, or a backend returned the wrong count."""


class EmptyCandidate(MetricError):
    pass


class NoReferences(MetricError):
    pass


def _is_punct(ch: str) -> bool:
    return unicodedata.category(ch).startswith("P")


def tokenize(text: str) -> list[str]:
    """Canonical tokenizer shared by BLEU and the stub embedder."""
    tokens = []
    for raw in text.split():
        # no code point is both alphanumeric and punctuation, so a token
        # with alphanumeric ends has nothing to strip
        if raw[0].isalnum() and raw[-1].isalnum():
            tokens.append(raw.lower())
            continue
        start, end = 0, len(raw)
        while start < end and _is_punct(raw[start]):
            start += 1
        while end > start and _is_punct(raw[end - 1]):
            end -= 1
        token = raw[start:end].lower()
        if token:
            tokens.append(token)
    return tokens


def cosine_similarity(a: Sequence[float], b: Sequence[float]) -> float:
    """(a.b)/(|a||b|), clamped to [-1, 1].

    Raises LengthMismatch and ZeroVector; non-finite inputs are rejected.
    """
    if len(a) != len(b):
        raise LengthMismatch(f"vector lengths {len(a)} vs {len(b)}")
    if not (all(map(math.isfinite, a)) and all(map(math.isfinite, b))):
        raise ValueError("vectors must contain only finite values")
    dot = math.fsum(map(operator.mul, a, b))
    norm_a = math.sqrt(math.fsum(map(operator.mul, a, a)))
    norm_b = math.sqrt(math.fsum(map(operator.mul, b, b)))
    if norm_a == 0.0 or norm_b == 0.0:
        raise ZeroVector("cosine undefined for an all-zero vector")
    return max(-1.0, min(1.0, dot / (norm_a * norm_b)))


def _ngram_counts(tokens: Sequence[str], n: int) -> Counter:
    return Counter(zip(*[tokens[i:] for i in range(n)]))


def bleu(
    candidate: Sequence[str],
    references: Sequence[Sequence[str]],
    max_n: int = 4,
    smoothing: bool = False,
) -> float:
    """Sentence BLEU with clipped n-gram precisions and brevity penalty.

    Uniform weights over n-gram levels; levels where the candidate has no
    n-grams at all (candidate shorter than n) are excluded so that
    bleu(c, [c]) == 1 holds for any non-empty c. Without smoothing, any
    zero precision makes the score 0. With smoothing, every level gets
    add-one in numerator and denominator.

    Raises EmptyCandidate and NoReferences.
    """
    if max_n < 1:
        raise ValueError("max_n must be >= 1")
    cand = list(candidate)
    refs = [list(r) for r in references]
    if not cand:
        raise EmptyCandidate("candidate has no tokens")
    if not refs or all(not r for r in refs):
        raise NoReferences("need at least one non-empty reference")

    log_precisions: list[float] = []
    for n in range(1, max_n + 1):
        cand_counts = _ngram_counts(cand, n)
        total = sum(cand_counts.values())
        if total == 0:
            continue
        # clip by the per-gram maximum over the references
        ref_max = functools.reduce(operator.or_, (_ngram_counts(r, n) for r in refs))
        clipped = sum((cand_counts & ref_max).values())
        if smoothing:
            p = (clipped + 1) / (total + 1)
        else:
            if clipped == 0:
                return 0.0
            p = clipped / total
        log_precisions.append(math.log(p))

    weight = 1.0 / len(log_precisions)
    geo_mean = math.exp(math.fsum(weight * lp for lp in log_precisions))

    c = len(cand)
    r = min((len(ref) for ref in refs), key=lambda rl: (abs(rl - c), rl))
    bp = 1.0 if c > r else math.exp(1.0 - r / c)
    return min(1.0, bp * geo_mean)


def error_reduction_rate(pre_errors: int, post_errors: int) -> tuple[float, bool]:
    """100 * (pre - post) / pre as (value, no_baseline).

    pre == 0 is defined as 0.0 with the no-baseline flag set.
    """
    if pre_errors < 0 or post_errors < 0:
        raise ValueError("error counts must be non-negative")
    if pre_errors == 0:
        return 0.0, True
    return 100.0 * (pre_errors - post_errors) / pre_errors, False


def mean(values: Sequence[float]) -> float | None:
    """The mean of finite values, None for none. It is finite too: where
    their sum is past the float range, each is divided before the sum."""
    if not values:
        return None
    try:
        total = math.fsum(values)
    except OverflowError:  # intermediate overflow
        total = math.inf
    if math.isfinite(total):
        return total / len(values)
    return math.fsum(value / len(values) for value in values)


@dataclass
class MetricReport:
    cosine: float | None = None
    bleu: float | None = None
    err_percent: float | None = None
    no_baseline: bool = False
    seconds_per_file: float | None = None
    n_files: int = 0
    n_pairs: int = 0
    embed_failures: int = 0
    bleu_failures: int = 0
    missing_references: int = 0

    def to_dict(self) -> dict:
        return {
            "cosine": self.cosine,
            "bleu": self.bleu,
            "err_percent": self.err_percent,
            "no_baseline": self.no_baseline,
            "seconds_per_file": self.seconds_per_file,
            "n_files": self.n_files,
            "n_pairs": self.n_pairs,
            "embed_failures": self.embed_failures,
            "bleu_failures": self.bleu_failures,
            "missing_references": self.missing_references,
        }


def _pair_cosine(a: Sequence[float], b: Sequence[float]) -> float | None:
    """Cosine of one pair's two vectors; None where it is undefined."""
    try:
        return cosine_similarity(a, b)
    except MetricError:
        return None


def _chunk_cosines(
    chunk: Sequence[tuple[str, str]],
    embedder: Callable[[list[str]], list[Sequence[float]]],
) -> list[float | None] | None:
    """Each pair's cosine, None where it is undefined, from one embedder
    call for the whole chunk; None if that call fails or returns the wrong
    number of vectors."""
    texts = [text for pair in chunk for text in pair]
    try:
        vectors = embedder(texts)
    except AltgenError:
        return None
    if len(vectors) != len(texts):
        return None
    return [_pair_cosine(vectors[i], vectors[i + 1]) for i in range(0, len(texts), 2)]


def corpus_metrics(
    pairs: Sequence[tuple[str, str]],
    embedder: Callable[[list[str]], list[Sequence[float]]],
    timings: Sequence[float] = (),
    *,
    bleu_max_n: int = 4,
    smoothing: bool = False,
    mapper: Callable = map,
    chunk_pairs: int = EMBED_CHUNK_PAIRS,
) -> MetricReport:
    """Mean cosine and sentence BLEU over (candidate, reference) text pairs.

    Pairs are embedded `chunk_pairs` at a time, one embedder call per
    chunk. `mapper(fn, chunks)` runs the chunks and gives their results in
    chunk order, like the builtin `map` it defaults to; a backend's
    `map_requests` runs them concurrently. The pairs of every chunk whose
    call fails or returns the wrong number of vectors are then embedded one
    pair per call, all through one more `mapper` call, so only the pair at
    fault fails. A pair whose embedding or scoring fails is excluded from
    that metric's mean and counted in the report; no pairs give no means.
    err_percent is left unset; the pipeline fills it from stored audit
    reports.
    """
    chunks = [
        pairs[start : start + chunk_pairs] for start in range(0, len(pairs), chunk_pairs)
    ]
    embed = functools.partial(_chunk_cosines, embedder=embedder)
    results = list(mapper(embed, chunks))
    retry = [pair for chunk, result in zip(chunks, results) if result is None for pair in chunk]
    retried = iter(mapper(embed, [[pair] for pair in retry]))
    cosines: list[float] = []
    for chunk, result in zip(chunks, results):
        if result is None:  # its pairs' own calls, in pair order
            result = [one[0] if one else None for one in itertools.islice(retried, len(chunk))]
        cosines.extend(value for value in result if value is not None)
    bleus: list[float] = []
    bleu_failures = 0
    for candidate, reference in pairs:
        try:
            bleus.append(
                bleu(tokenize(candidate), [tokenize(reference)], bleu_max_n, smoothing)
            )
        except MetricError:
            bleu_failures += 1
    return MetricReport(
        cosine=mean(cosines),
        bleu=mean(bleus),
        seconds_per_file=mean(timings),
        n_files=len(timings),
        n_pairs=len(pairs),
        embed_failures=len(pairs) - len(cosines),
        bleu_failures=bleu_failures,
    )
