"""Ensemble language identification: a rank-order trigram classifier, a
script-range rule member, and an optional remote member.

Profiles are rank-ordered lists of the 300 most frequent character trigrams
(letters plus space padding). Distance between two profiles is the classic
out-of-place measure with penalty K for absent trigrams, summed over the
trigrams the two share plus K for each sample trigram the profile lacks.
"""

from __future__ import annotations

import functools
import re
import threading
from collections import Counter
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

from altgen.errors import AltgenError

PROFILE_SIZE = 300
MIN_LETTERS = 40
SCRIPT_CONFIDENCE = 0.95
SCRIPT_SHARE = 0.90
REMOTE_MIN_CONFIDENCE = 0.8


class DetectError(AltgenError):
    pass


class TextTooShort(DetectError):
    pass


class NoProfiles(DetectError):
    pass


class Undetermined(DetectError):
    """Every ensemble member abstained or errored."""


@dataclass(frozen=True)
class LanguageProfile:
    lang: str
    ranked_trigrams: tuple[str, ...]

    def __post_init__(self) -> None:
        if len(set(self.ranked_trigrams)) != len(self.ranked_trigrams):
            raise ValueError(f"profile {self.lang!r} has duplicate trigrams")
        if len(self.ranked_trigrams) > PROFILE_SIZE:
            raise ValueError(f"profile {self.lang!r} exceeds {PROFILE_SIZE} trigrams")

    @functools.cached_property
    def ranks(self) -> dict[str, int]:
        """Rank of each trigram, built once per profile."""
        return _ranks(self.ranked_trigrams)


@dataclass(frozen=True)
class LanguageVote:
    member: str  # "Statistical" | "Script" | "Remote"
    lang: str
    confidence: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.confidence <= 1.0:
            raise ValueError(f"confidence {self.confidence} outside [0, 1]")


def _normalized_char(ch: str) -> str:
    return ch.lower() if ch.isalpha() else " "


class _TwiceNormalized(dict):
    """str.translate table: what two passes of `_normalized_char` make of
    each character, before spaces are collapsed. The second pass changes only
    U+0130, whose lowercase ends in a combining dot that is no letter.
    Filled as characters are met, up to a bound."""

    def __missing__(self, code: int) -> str:
        value = "".join(map(_normalized_char, _normalized_char(chr(code))))
        if len(self) < 65536:
            self[code] = value
        return value


_TWICE_NORMALIZED = _TwiceNormalized()


def letter_count(text: str) -> int:
    return sum(map(str.isalpha, text))


def _trigrams(normalized: str) -> Counter:
    """Character trigrams of each word of normalized text, padded with
    spaces (' word ')."""
    padded_words = [f" {word} " for word in normalized.split()]
    return Counter([padded[i : i + 3] for padded in padded_words for i in range(len(padded) - 2)])


def rank_trigrams(counts: Counter, k: int = PROFILE_SIZE) -> tuple[str, ...]:
    """Top-k trigrams, most frequent first; ties break alphabetically."""
    # both sorts are stable: the alphabetical order survives among equal counts
    ordered = sorted(counts)
    ordered.sort(key=counts.__getitem__, reverse=True)
    return tuple(ordered[:k])


def _ranks(grams: tuple[str, ...]) -> dict[str, int]:
    return {gram: i for i, gram in enumerate(grams)}


def _distance(sample: dict[str, int], reference: dict[str, int], penalty: int) -> int:
    """Out-of-place distance between two rank dicts: the sum over sample
    trigrams of the rank difference in the reference, or `penalty` when the
    reference lacks it."""
    hits = sample.keys() & reference.keys()
    misses = len(sample) - len(hits)
    return penalty * misses + sum(abs(sample[gram] - reference[gram]) for gram in hits)


def detect_statistical(text: str, profiles: list[LanguageProfile]) -> LanguageVote:
    """Minimum out-of-place distance over the given profiles.

    Confidence is 1 - d/(K*K). Raises TextTooShort (< 40 letters after
    normalization) and NoProfiles. Ties break toward the alphabetically
    first language for determinism.
    """
    if not profiles:
        raise NoProfiles("no language profiles supplied")
    # normalized twice, in one pass (see _TwiceNormalized); the second
    # normalization leaves every character's letter count as it is
    normalized = " ".join(text.translate(_TWICE_NORMALIZED).split())
    if letter_count(normalized) < MIN_LETTERS:
        raise TextTooShort(
            f"{letter_count(normalized)} letters after normalization, need {MIN_LETTERS}"
        )
    sample = _ranks(rank_trigrams(_trigrams(normalized)))
    d_max = PROFILE_SIZE * PROFILE_SIZE
    best_lang: str | None = None
    best_distance = d_max + 1
    for profile in sorted(profiles, key=lambda p: p.lang):
        d = _distance(sample, profile.ranks, PROFILE_SIZE)
        if d < best_distance:
            best_distance = d
            best_lang = profile.lang
    confidence = max(0.0, 1.0 - best_distance / d_max)
    return LanguageVote("Statistical", best_lang, confidence)


# Unicode ranges with an unambiguous language mapping. Latin is deliberately
# absent: too many languages share it.
_SCRIPT_RANGES: tuple[tuple[int, int, str], ...] = (
    (0x0370, 0x03FF, "el"),
    (0x1F00, 0x1FFF, "el"),
    (0x0590, 0x05FF, "he"),
    (0xFB1D, 0xFB4F, "he"),
    (0x3040, 0x309F, "ja"),  # hiragana
    (0x30A0, 0x30FF, "ja"),  # katakana
    (0x31F0, 0x31FF, "ja"),
    (0x1100, 0x11FF, "ko"),
    (0x3130, 0x318F, "ko"),
    (0xAC00, 0xD7AF, "ko"),
    (0x0E00, 0x0E7F, "th"),
)
# any character in any of the ranges above
_SCRIPT_CHARS = re.compile(
    "[%s]" % "".join(f"{re.escape(chr(lo))}-{re.escape(chr(hi))}" for lo, hi, _ in _SCRIPT_RANGES)
)


def _script_of(ch: str) -> str | None:
    code = ord(ch)
    for start, end, lang in _SCRIPT_RANGES:
        if start <= code <= end:
            return lang
    return None


def detect_script(text: str) -> LanguageVote | None:
    """Vote when >= 90% of letters sit in one unambiguous non-Latin script."""
    if _SCRIPT_CHARS.search(text) is None:
        return None  # no character in any of the ranges, so no vote
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
        return LanguageVote("Script", lang, SCRIPT_CONFIDENCE)
    return None


@dataclass
class EnsembleConfig:
    """profiles=None means the embedded set; `remote` is any object with a
    detect_language(text) -> (lang, confidence) method."""

    profiles: list[LanguageProfile] | None = None
    remote: object | None = None


def detect_language(text: str, config: EnsembleConfig | None = None) -> tuple[str, float]:
    """Fusion rule: Script wins if it votes; else Remote when enabled and
    confident enough; else Statistical. Raises Undetermined when every
    member abstains."""
    config = config or EnsembleConfig()
    if text:
        script_vote = detect_script(text)
        if script_vote is not None:
            return script_vote.lang, script_vote.confidence
        if config.remote is not None:
            try:
                lang, confidence = config.remote.detect_language(text)
                if lang and confidence >= REMOTE_MIN_CONFIDENCE:
                    return lang, min(1.0, max(0.0, confidence))
            except (AltgenError, NotImplementedError):
                pass
        profiles = config.profiles
        if profiles is None:
            profiles = load_embedded_profiles()
        try:
            vote = detect_statistical(text, profiles)
            return vote.lang, vote.confidence
        except (TextTooShort, NoProfiles):
            pass
    raise Undetermined("no ensemble member produced a vote")


def load_profile(path: Path) -> LanguageProfile:
    """Read one `<subtag>.profile` file: a trigram per line, rank order.
    `path` may also be a package resource."""
    lang = Path(path.name).stem
    lines = path.read_text(encoding="utf-8").splitlines()
    trigrams = tuple(line for line in lines if line)
    return LanguageProfile(lang, trigrams)


_EMBEDDED_CACHE: list[LanguageProfile] = []
_EMBEDDED_LOCK = threading.Lock()


def load_embedded_profiles() -> list[LanguageProfile]:
    """Profiles shipped with the package, loaded once.

    Locked: callers on several threads may hit the first load at once."""
    with _EMBEDDED_LOCK:
        if not _EMBEDDED_CACHE:
            root = resources.files(__package__) / "profiles"
            profiles = [
                load_profile(item)
                for item in sorted(root.iterdir(), key=lambda p: p.name)
                if item.name.endswith(".profile")
            ]
            if not profiles:
                raise NoProfiles("no embedded profiles found")
            _EMBEDDED_CACHE.extend(profiles)
        return list(_EMBEDDED_CACHE)
