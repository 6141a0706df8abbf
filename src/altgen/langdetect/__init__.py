"""Ensemble language identification: a rank-order trigram classifier, a
script-range rule member, and an optional remote member.

Profiles are rank-ordered lists of the 300 most frequent character trigrams
(letters plus space padding). Distance between two profiles is the classic
out-of-place measure with penalty K for absent trigrams.
"""

from __future__ import annotations

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


@dataclass(frozen=True)
class LanguageVote:
    member: str  # "Statistical" | "Script" | "Remote"
    lang: str
    confidence: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.confidence <= 1.0:
            raise ValueError(f"confidence {self.confidence} outside [0, 1]")


def normalize_text(text: str) -> str:
    """Lowercase, non-letters collapsed to single spaces."""
    chars = [ch.lower() if ch.isalpha() else " " for ch in text]
    return " ".join("".join(chars).split())


def letter_count(text: str) -> int:
    return sum(1 for ch in text if ch.isalpha())


def trigram_counts(text: str) -> Counter:
    """Character trigrams of each word padded with spaces (' word ')."""
    counts: Counter = Counter()
    for word in normalize_text(text).split():
        padded = f" {word} "
        for i in range(len(padded) - 2):
            counts[padded[i : i + 3]] += 1
    return counts


def rank_trigrams(counts: Counter, k: int = PROFILE_SIZE) -> tuple[str, ...]:
    """Top-k trigrams, most frequent first; ties break alphabetically."""
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


def detect_statistical(text: str, profiles: list[LanguageProfile]) -> LanguageVote:
    """Minimum out-of-place distance over the given profiles.

    Confidence is 1 - d/(K*K). Raises TextTooShort (< 40 letters after
    normalization) and NoProfiles. Ties break toward the alphabetically
    first language for determinism.
    """
    if not profiles:
        raise NoProfiles("no language profiles supplied")
    normalized = normalize_text(text)
    if letter_count(normalized) < MIN_LETTERS:
        raise TextTooShort(
            f"{letter_count(normalized)} letters after normalization, need {MIN_LETTERS}"
        )
    sample = rank_trigrams(trigram_counts(normalized))
    d_max = PROFILE_SIZE * PROFILE_SIZE
    best_lang: str | None = None
    best_distance = d_max + 1
    for profile in sorted(profiles, key=lambda p: p.lang):
        d = out_of_place_distance(sample, profile.ranked_trigrams)
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


def _script_of(ch: str) -> str | None:
    code = ord(ch)
    for start, end, lang in _SCRIPT_RANGES:
        if start <= code <= end:
            return lang
    return None


def detect_script(text: str) -> LanguageVote | None:
    """Vote when >= 90% of letters sit in one unambiguous non-Latin script."""
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
    remote_min_confidence: float = REMOTE_MIN_CONFIDENCE


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
                if lang and confidence >= config.remote_min_confidence:
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


def dump_profile(profile: LanguageProfile, directory: Path) -> Path:
    path = directory / f"{profile.lang}.profile"
    path.write_text("\n".join(profile.ranked_trigrams) + "\n", encoding="utf-8")
    return path


_EMBEDDED_CACHE: list[LanguageProfile] = []
_EMBEDDED_LOCK = threading.Lock()


def load_embedded_profiles() -> list[LanguageProfile]:
    """Profiles shipped with the package, loaded once.

    Locked: parallel pipeline workers hit the first load concurrently."""
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
