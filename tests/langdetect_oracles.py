"""Reference language detection: the trigram distance and script vote as
the langdetect module computed them before they were made faster.

`out_of_place_distance` rebuilds the reference's rank dict on every call
and walks every sample trigram; `detect_script` classifies every letter by
scanning the script ranges. Normalization and trigram counting are the
per-character loops. Kept apart from the module so the fast versions can be
checked against them; serves only as an oracle. `rank_trigrams` orders by
a key tuple per trigram, and `profile_from_text` builds a profile from raw
text the way the profile builder does.
"""

from __future__ import annotations

from collections import Counter

from altgen.langdetect import (
    MIN_LETTERS,
    PROFILE_SIZE,
    SCRIPT_CONFIDENCE,
    SCRIPT_SHARE,
    LanguageProfile,
    TextTooShort,
    _SCRIPT_RANGES,
)


def normalize_text(text: str) -> str:
    chars = [ch.lower() if ch.isalpha() else " " for ch in text]
    return " ".join("".join(chars).split())


def letter_count(text: str) -> int:
    return sum(1 for ch in text if ch.isalpha())


def trigram_counts(text: str) -> Counter:
    counts: Counter = Counter()
    for word in normalize_text(text).split():
        padded = f" {word} "
        for i in range(len(padded) - 2):
            counts[padded[i : i + 3]] += 1
    return counts


def rank_trigrams(counts: Counter, k: int = PROFILE_SIZE) -> tuple[str, ...]:
    ordered = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    return tuple(gram for gram, _ in ordered[:k])


def profile_from_text(lang: str, text: str) -> LanguageProfile:
    return LanguageProfile(lang, rank_trigrams(trigram_counts(text)))


def out_of_place_distance(
    sample: tuple[str, ...], reference: tuple[str, ...], penalty: int = PROFILE_SIZE
) -> int:
    ref_rank = {gram: i for i, gram in enumerate(reference)}
    total = 0
    for i, gram in enumerate(sample):
        j = ref_rank.get(gram)
        total += penalty if j is None else abs(i - j)
    return total


def detect_statistical(text: str, profiles: list[LanguageProfile]) -> tuple[str, float]:
    normalized = normalize_text(text)
    if letter_count(normalized) < MIN_LETTERS:
        raise TextTooShort(normalized)
    sample = rank_trigrams(trigram_counts(normalized))
    d_max = PROFILE_SIZE * PROFILE_SIZE
    best_lang = None
    best_distance = d_max + 1
    for profile in sorted(profiles, key=lambda p: p.lang):
        d = out_of_place_distance(sample, profile.ranked_trigrams)
        if d < best_distance:
            best_distance = d
            best_lang = profile.lang
    return best_lang, max(0.0, 1.0 - best_distance / d_max)


def _script_of(ch: str) -> str | None:
    code = ord(ch)
    for start, end, lang in _SCRIPT_RANGES:
        if start <= code <= end:
            return lang
    return None


def detect_script(text: str) -> tuple[str, float] | None:
    counts: Counter = Counter()
    total = 0
    for ch in text:
        if not ch.isalpha():
            continue
        total += 1
        lang = _script_of(ch)
        if lang:
            counts[lang] += 1
    if total == 0 or not counts:
        return None
    lang, n = counts.most_common(1)[0]
    if n / total >= SCRIPT_SHARE:
        return lang, SCRIPT_CONFIDENCE
    return None


def detect_language(text: str, profiles: list[LanguageProfile]) -> tuple[str, float] | None:
    """Script vote, else statistical vote, else None (no remote member)."""
    if not text:
        return None
    vote = detect_script(text)
    if vote is not None:
        return vote
    try:
        return detect_statistical(text, profiles)
    except TextTooShort:
        return None
