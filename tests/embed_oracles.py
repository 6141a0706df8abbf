"""Reference for the chunked embedding path in `altgen.metrics.corpus_metrics`.

These are the original, straightforward forms: one embedder call per pair,
a stub embedder that builds each dense vector and takes its norm from it,
a cosine over generator sums, and the tokenizer and BLEU of
`metric_oracles`. The chunked code must give bit-identical reports. Also the
remote client's check of an /v1/embed reply, one value at a time.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

from altgen.backend import MAX_EMBED_TEXT, MalformedResponse, TextTooLong
from altgen.errors import AltgenError
from altgen.metrics import LengthMismatch, MetricError, MetricReport, ZeroVector
from metric_oracles import bleu, tokenize


def stub_embed(texts: list[str]) -> list[list[float]]:
    if not texts:
        raise ValueError("texts must be non-empty")
    for text in texts:
        if len(text) > MAX_EMBED_TEXT:
            raise TextTooLong(f"text exceeds {MAX_EMBED_TEXT} characters")
    tokenized = [tokenize(t) for t in texts]
    vocabulary = sorted({tok for toks in tokenized for tok in toks})
    index = {tok: i for i, tok in enumerate(vocabulary)}
    vectors = []
    for toks in tokenized:
        vec = [0.0] * len(vocabulary)
        for tok in toks:
            vec[index[tok]] += 1.0
        norm = math.sqrt(math.fsum(x * x for x in vec))
        if norm > 0.0:
            vec = [x / norm for x in vec]
        vectors.append(vec)
    return vectors


def cosine(a: Sequence[float], b: Sequence[float]) -> float:
    if len(a) != len(b):
        raise LengthMismatch(f"vector lengths {len(a)} vs {len(b)}")
    for v in (a, b):
        for x in v:
            if not math.isfinite(x):
                raise ValueError("vectors must contain only finite values")
    dot = math.fsum(x * y for x, y in zip(a, b))
    norm_a = math.sqrt(math.fsum(x * x for x in a))
    norm_b = math.sqrt(math.fsum(y * y for y in b))
    if norm_a == 0.0 or norm_b == 0.0:
        raise ZeroVector("cosine undefined for an all-zero vector")
    return max(-1.0, min(1.0, dot / (norm_a * norm_b)))


def corpus_metrics(
    pairs: Sequence[tuple[str, str]],
    embedder: Callable[[list[str]], list[Sequence[float]]],
    timings: Sequence[float] = (),
    *,
    bleu_max_n: int = 4,
    smoothing: bool = False,
) -> MetricReport:
    """One embedder call per pair."""
    cosines: list[float] = []
    bleus: list[float] = []
    embed_failures = 0
    bleu_failures = 0
    for candidate, reference in pairs:
        try:
            vectors = embedder([candidate, reference])
            if len(vectors) != 2:
                raise LengthMismatch(f"embedder returned {len(vectors)} vectors for 2 texts")
            cosines.append(cosine(vectors[0], vectors[1]))
        except AltgenError:
            embed_failures += 1
        try:
            bleus.append(
                bleu(tokenize(candidate), [tokenize(reference)], bleu_max_n, smoothing)
            )
        except MetricError:
            bleu_failures += 1
    return MetricReport(
        cosine=math.fsum(cosines) / len(cosines) if cosines else None,
        bleu=math.fsum(bleus) / len(bleus) if bleus else None,
        seconds_per_file=math.fsum(timings) / len(timings) if timings else None,
        n_files=len(timings),
        n_pairs=len(pairs),
        embed_failures=embed_failures,
        bleu_failures=bleu_failures,
    )


def embedding_rows(embeddings, n_texts: int) -> list[list[float]]:
    """The vectors of a parsed /v1/embed reply's "embeddings" for n_texts
    texts, checked value by value."""
    if not isinstance(embeddings, list):
        raise MalformedResponse("embed response lacks embeddings list")
    if len(embeddings) != n_texts:
        raise LengthMismatch(f"asked for {n_texts} embeddings, got {len(embeddings)}")
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
