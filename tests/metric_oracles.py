"""Hand-computed expected values for the metric suite, and the plain forms
of the tokenizer and of BLEU that the fast ones in `altgen.metrics` must
match.

Every expectation in the case tables was derived on paper from the
definitions (clipped n-gram precision, uniform weights over populated
levels, brevity penalty exp(1 - r/c) when c <= r, cosine = dot / (|a||b|));
the implementation was never consulted for these numbers. Counts are
spelled out in comments so a reader can re-derive them.
"""

import math
import unicodedata
from collections import Counter
from typing import Sequence

from altgen.metrics import EmptyCandidate, NoReferences


def outcome(fn, *args):
    """fn(*args), or the type and message of what it raised, so that a fast
    form and its reference can be compared on errors as well as values."""
    try:
        return fn(*args)
    except Exception as exc:  # the references raise what the code must raise
        return type(exc), str(exc)


# (vector_a, vector_b, expected)
COSINE_CASES = [
    # identical unit vectors
    ([1.0, 0.0], [1.0, 0.0], 1.0),
    # orthogonal
    ([1.0, 0.0], [0.0, 1.0], 0.0),
    # opposite
    ([1.0, 0.0], [-1.0, 0.0], -1.0),
    # 45 degrees: dot=1, |a|=sqrt(2), |b|=1
    ([1.0, 1.0], [1.0, 0.0], math.sqrt(0.5)),
    # dot=4+10+18=32, norms sqrt(14), sqrt(77)
    ([1.0, 2.0, 3.0], [4.0, 5.0, 6.0], 32.0 / math.sqrt(14.0 * 77.0)),
    # scale does not matter
    ([2.0, 0.0], [1.0, 0.0], 1.0),
    ([1.0, 2.0], [2.0, 4.0], 1.0),
    # dot=24, norms 5 and 5
    ([3.0, 4.0], [4.0, 3.0], 24.0 / 25.0),
    # dot=1, norms 1 and sqrt(3)
    ([1.0, 0.0, 0.0], [1.0, 1.0, 1.0], 1.0 / math.sqrt(3.0)),
    # dot=-4, norms sqrt(5) twice
    ([2.0, -1.0], [-1.0, 2.0], -0.8),
    # dot=0.25-0.25
    ([0.5, 0.5], [0.5, -0.5], 0.0),
    # dot=18, norms 3 and 6
    ([1.0, 2.0, 2.0], [2.0, 4.0, 4.0], 1.0),
]

# (candidate_tokens, reference_token_lists, max_n, smoothing, expected)
BLEU_CASES = [
    # p1 = 5/6 (clip "the" to 1), p2 = 3/5, c = r = 6 so BP = 1
    (
        "the cat sat on the mat".split(),
        ["the cat sat on a mat".split()],
        2,
        False,
        math.sqrt((5.0 / 6.0) * (3.0 / 5.0)),
    ),
    # candidate equals reference; 4-gram level empty and excluded
    ("the cat sat".split(), ["the cat sat".split()], 4, False, 1.0),
    # single token, only the unigram level is populated
    (["hello"], [["hello"]], 4, False, 1.0),
    # perfect precisions but c=2 < r=3: BP = exp(1 - 3/2)
    ("the cat".split(), ["the cat sat".split()], 4, False, math.exp(-0.5)),
    # no overlap at all
    ("dogs bark loud".split(), ["cats meow quietly".split()], 4, False, 0.0),
    # add-one smoothing: p1=(0+1)/(3+1), p2=(0+1)/(2+1), BP=1
    (
        "dogs bark loud".split(),
        ["cats meow quietly".split()],
        2,
        True,
        math.sqrt((1.0 / 4.0) * (1.0 / 3.0)),
    ),
    # smoothing applies to every level: p1=(2+1)/(3+1), p2=(1+1)/(2+1)
    (
        "the cat sat".split(),
        ["the cat nap".split()],
        2,
        True,
        math.sqrt((3.0 / 4.0) * (2.0 / 3.0)),
    ),
    # clipping: "the" appears once in the reference, so p1 = 1/4
    ("the the the the".split(), ["the cat".split()], 1, False, 0.25),
    # closest reference length, tie broken toward the shorter (r=2, BP=1)
    (
        "a b c".split(),
        ["a b".split(), "a b c d".split()],
        4,
        False,
        1.0,
    ),
    # clip against the best reference per n-gram:
    # p1 = 3/4, p2 = 2/3, p3 = 1/2, r = 4 = c so BP = 1
    (
        "the cat the cat".split(),
        ["the cat".split(), "cat the cat sat".split()],
        3,
        False,
        (0.25) ** (1.0 / 3.0),
    ),
    # longer candidate, unigram only: p1 = 2/4, BP = 1
    ("a b c d".split(), ["a b".split()], 1, False, 0.5),
    # substitution in the middle: p1 = 2/3, c = r so BP = exp(0) = 1
    ("a b c".split(), ["a x c".split()], 1, False, 2.0 / 3.0),
]


def tokenize(text: str) -> list[str]:
    """Split on whitespace, strip each token's leading and trailing
    punctuation (Unicode category P*), lowercase, drop empties."""
    tokens = []
    for raw in text.split():
        start, end = 0, len(raw)
        while start < end and unicodedata.category(raw[start]).startswith("P"):
            start += 1
        while end > start and unicodedata.category(raw[end - 1]).startswith("P"):
            end -= 1
        token = raw[start:end].lower()
        if token:
            tokens.append(token)
    return tokens


def _ngram_counts(tokens: Sequence[str], n: int) -> Counter:
    return Counter(tuple(tokens[i : i + n]) for i in range(len(tokens) - n + 1))


def bleu(
    candidate: Sequence[str],
    references: Sequence[Sequence[str]],
    max_n: int = 4,
    smoothing: bool = False,
) -> float:
    """Sentence BLEU, each candidate n-gram clipped by its best reference
    count one at a time."""
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
        ref_counts = [_ngram_counts(r, n) for r in refs]
        clipped = 0
        for gram, count in cand_counts.items():
            best = max(rc[gram] for rc in ref_counts)
            clipped += min(count, best)
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
