"""Language identification: trigram statistics, script rules, ensemble fusion."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from altgen.errors import AltgenError
from altgen.langdetect import (
    MIN_LETTERS,
    PROFILE_SIZE,
    REMOTE_MIN_CONFIDENCE,
    SCRIPT_CONFIDENCE,
    EnsembleConfig,
    LanguageProfile,
    LanguageVote,
    NoProfiles,
    TextTooShort,
    Undetermined,
    detect_language,
    detect_script,
    detect_statistical,
    letter_count,
    load_embedded_profiles,
    load_profile,
    rank_trigrams,
    _TwiceNormalized,
    _distance,
    _trigrams,
    _ranks,
)

import langdetect_oracles as oracle
from langdetect_oracles import profile_from_text

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "build_profiles.py"
sys.path.insert(0, str(TOOL.parent))
import build_profiles as profile_tool  # noqa: E402

SAMPLES_PATH = Path(__file__).parent / "data" / "lang_samples.json"

# Long enough to clear the 40-letter floor in statistical tests.
LONG_EN = (
    "The quick brown fox jumps over the lazy dog while the keeper watches "
    "from the tower and writes another line in the logbook."
)


def load_samples() -> dict[str, list[str]]:
    return json.loads(SAMPLES_PATH.read_text(encoding="utf-8"))


# the normalization the shipped profiles are built with; detection applies it
# twice, in one pass (test_one_pass_normalizes_as_two_do)
normalize_text = profile_tool.normalize


class TestNormalize:
    def test_lowercases_and_collapses(self):
        assert normalize_text("The  CAT!") == "the cat"

    def test_punctuation_becomes_separator(self):
        assert normalize_text("don't-stop") == "don t stop"

    def test_digits_dropped(self):
        assert normalize_text("room 101 ready") == "room ready"

    def test_idempotent(self):
        once = normalize_text("  A,b;C  ")
        assert normalize_text(once) == once

    @given(st.text(max_size=200))
    @settings(max_examples=100)
    def test_output_shape(self, text):
        out = normalize_text(text)
        assert "  " not in out
        assert out == out.strip()
        assert all(ch.isalpha() or ch == " " for ch in out)

    def test_letter_count(self):
        assert letter_count("ab c1!") == 3


class TestTrigrams:
    def test_hand_counts(self):
        # " the " + " cat ": six distinct trigrams, one occurrence each
        counts = _trigrams(normalize_text("The cat"))
        assert counts == Counter(
            {" th": 1, "the": 1, "he ": 1, " ca": 1, "cat": 1, "at ": 1}
        )

    def test_repeated_word_accumulates(self):
        counts = _trigrams(normalize_text("go go go"))
        assert counts == Counter({" go": 3, "go ": 3})

    def test_rank_ties_alphabetical(self):
        ranked = rank_trigrams(_trigrams(normalize_text("The cat")))
        assert ranked == (" ca", " th", "at ", "cat", "he ", "the")

    def test_rank_frequency_first(self):
        counts = Counter({"zzz": 5, "aaa": 1, "mmm": 5})
        assert rank_trigrams(counts) == ("mmm", "zzz", "aaa")

    def test_rank_truncates_to_k(self):
        counts = Counter({f"a{i:02d}": 1 for i in range(10)})
        assert len(rank_trigrams(counts, k=4)) == 4

    def test_single_letter_word(self):
        # " a " yields exactly one trigram
        assert _trigrams(normalize_text("a")) == Counter({" a ": 1})


class TestOutOfPlace:
    def test_identical_zero(self):
        p = ("abc", "bcd", "cde")
        assert _distance(_ranks(p), _ranks(p), PROFILE_SIZE) == 0

    def test_swap_costs_two(self):
        assert _distance(_ranks(("a", "b")), _ranks(("b", "a")), PROFILE_SIZE) == 2

    def test_missing_costs_penalty(self):
        assert _distance(_ranks(("x",)), _ranks(("a", "b")), PROFILE_SIZE) == PROFILE_SIZE

    def test_mixed(self):
        # "a" in place (0) + "c" absent (penalty)
        assert _distance(_ranks(("a", "c")), _ranks(("a", "b")), 7) == 7

    def test_asymmetric_by_design(self):
        # sample trigrams drive the sum; extra reference entries are free
        assert _distance(_ranks(("a",)), _ranks(("a", "b", "c")), PROFILE_SIZE) == 0
        assert _distance(_ranks(("a", "b", "c")), _ranks(("a",)), PROFILE_SIZE) == 2 * PROFILE_SIZE


class TestStatistical:
    def test_self_profile_perfect_confidence(self):
        profile = profile_from_text("xx", LONG_EN)
        vote = detect_statistical(LONG_EN, [profile])
        assert vote == LanguageVote("Statistical", "xx", 1.0)

    def test_picks_nearest_profile(self):
        samples = load_samples()
        profiles = [
            profile_from_text("en", " ".join(samples["en"])),
            profile_from_text("fi", " ".join(samples["fi"])),
        ]
        assert detect_statistical(LONG_EN, profiles).lang == "en"

    def test_tie_breaks_alphabetically(self):
        grams = profile_from_text("aa", LONG_EN).ranked_trigrams
        profiles = [LanguageProfile("bb", grams), LanguageProfile("aa", grams)]
        assert detect_statistical(LONG_EN, profiles).lang == "aa"

    def test_confidence_formula(self):
        # Force a known distance: sample has no overlap with the reference,
        # so d = len(sample) * K and confidence = 1 - d / K^2.
        profile = LanguageProfile("zz", ("000", "111"))
        vote = detect_statistical(LONG_EN, [profile])
        n = len(rank_trigrams(_trigrams(normalize_text(LONG_EN))))
        expected = 1.0 - (n * PROFILE_SIZE) / (PROFILE_SIZE * PROFILE_SIZE)
        assert vote.confidence == pytest.approx(expected, abs=1e-12)

    def test_too_short_raises(self):
        with pytest.raises(TextTooShort):
            detect_statistical("hi there", [profile_from_text("en", LONG_EN)])

    def test_forty_letters_is_enough(self):
        text = "elephant " * 5  # 40 letters
        assert letter_count(normalize_text(text)) == MIN_LETTERS
        vote = detect_statistical(text, [profile_from_text("en", LONG_EN)])
        assert vote.member == "Statistical"

    def test_thirty_nine_letters_is_not(self):
        text = "elephant " * 4 + "elephan"  # 39 letters
        with pytest.raises(TextTooShort):
            detect_statistical(text, [profile_from_text("en", LONG_EN)])

    def test_no_profiles_raises(self):
        with pytest.raises(NoProfiles):
            detect_statistical(LONG_EN, [])

    def test_deterministic(self):
        profiles = load_embedded_profiles()
        assert detect_statistical(LONG_EN, profiles) == detect_statistical(
            LONG_EN, profiles
        )

    def test_scale_free(self):
        # Concatenating a text with itself leaves rank order unchanged
        profiles = load_embedded_profiles()
        once = detect_statistical(LONG_EN, profiles)
        thrice = detect_statistical(" ".join([LONG_EN] * 3), profiles)
        assert once == thrice


GREEK = "Η θάλασσα ήταν ήσυχη και τα καράβια γύρισαν στο λιμάνι πριν βραδιάσει."
HEBREW = "הים היה שקט והסירות חזרו אל הנמל לפני רדת הערב."
KANA = "うみはしずかで、ふねはゆうがたまえにみなとへもどってきました。"
HANGUL = "바다는 고요했고 배들은 저녁이 되기 전에 항구로 돌아왔다."
THAI = "ทะเลสงบและเรือกลับเข้าฝั่งก่อนค่ำ"


class TestScript:
    @pytest.mark.parametrize(
        "text,lang",
        [(GREEK, "el"), (HEBREW, "he"), (KANA, "ja"), (HANGUL, "ko"), (THAI, "th")],
    )
    def test_votes(self, text, lang):
        vote = detect_script(text)
        assert vote == LanguageVote("Script", lang, SCRIPT_CONFIDENCE)

    def test_latin_abstains(self):
        assert detect_script(LONG_EN) is None

    def test_han_abstains(self):
        # Han has no unambiguous language mapping
        assert detect_script("漢字文章漢字文章漢字") is None

    def test_empty_abstains(self):
        assert detect_script("") is None
        assert detect_script("123 !?") is None

    def test_share_boundary(self):
        # 9 of 10 letters Greek: exactly 90%, votes
        assert detect_script("ααααααααα" + "x").lang == "el"
        # 8 of 10: abstains
        assert detect_script("αααααααα" + "xy") is None

    def test_mixed_cjk_abstains(self):
        # Half kana, half hangul: no script reaches 90%
        assert detect_script("ひらがなです" + "한글입니다") is None

    def test_punctuation_ignored(self):
        assert detect_script("「うみ、やま。かわ」").lang == "ja"


class _FakeRemote:
    def __init__(self, lang="fr", confidence=0.99, exc=None):
        self.lang = lang
        self.confidence = confidence
        self.exc = exc
        self.calls = 0

    def detect_language(self, text):
        self.calls += 1
        if self.exc is not None:
            raise self.exc
        return self.lang, self.confidence


class TestEnsemble:
    def test_statistical_fallback(self):
        lang, confidence = detect_language(LONG_EN)
        assert lang == "en"
        assert 0.0 < confidence <= 1.0

    def test_script_wins_over_remote(self):
        remote = _FakeRemote(lang="xx", confidence=0.99)
        lang, confidence = detect_language(KANA, EnsembleConfig(remote=remote))
        assert (lang, confidence) == ("ja", SCRIPT_CONFIDENCE)
        assert remote.calls == 0

    def test_confident_remote_wins_over_statistical(self):
        remote = _FakeRemote(lang="fr", confidence=0.9)
        assert detect_language(LONG_EN, EnsembleConfig(remote=remote)) == ("fr", 0.9)

    def test_remote_confidence_clamped(self):
        remote = _FakeRemote(lang="fr", confidence=1.5)
        assert detect_language(LONG_EN, EnsembleConfig(remote=remote)) == ("fr", 1.0)

    def test_timid_remote_falls_through(self):
        remote = _FakeRemote(lang="fr", confidence=REMOTE_MIN_CONFIDENCE - 0.01)
        lang, _ = detect_language(LONG_EN, EnsembleConfig(remote=remote))
        assert lang == "en"
        assert remote.calls == 1

    def test_remote_threshold_inclusive(self):
        remote = _FakeRemote(lang="fr", confidence=REMOTE_MIN_CONFIDENCE)
        lang, _ = detect_language(LONG_EN, EnsembleConfig(remote=remote))
        assert lang == "fr"

    def test_failing_remote_falls_through(self):
        remote = _FakeRemote(exc=AltgenError("backend down"))
        lang, _ = detect_language(LONG_EN, EnsembleConfig(remote=remote))
        assert lang == "en"

    def test_empty_remote_lang_falls_through(self):
        remote = _FakeRemote(lang="", confidence=0.99)
        lang, _ = detect_language(LONG_EN, EnsembleConfig(remote=remote))
        assert lang == "en"

    def test_empty_text_undetermined(self):
        with pytest.raises(Undetermined):
            detect_language("")

    def test_short_latin_undetermined(self):
        with pytest.raises(Undetermined):
            detect_language("hi")

    def test_short_kana_still_detected(self):
        # Script member has no length floor
        assert detect_language("ねこ")[0] == "ja"

    def test_custom_profiles_used(self):
        config = EnsembleConfig(profiles=[profile_from_text("zz", LONG_EN)])
        assert detect_language(LONG_EN, config)[0] == "zz"


class TestProfiles:
    def test_round_trip(self, tmp_path):
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        (corpus / "en.txt").write_text(LONG_EN, encoding="utf-8")
        [path] = profile_tool.build_profiles(corpus, tmp_path / "out")
        assert path.name == "en.profile"
        assert load_profile(path) == profile_from_text("en", LONG_EN)

    def test_duplicate_trigrams_rejected(self):
        with pytest.raises(ValueError):
            LanguageProfile("xx", ("abc", "abc"))

    def test_oversized_rejected(self):
        grams = tuple(f"{i:03d}" for i in range(PROFILE_SIZE + 1))
        with pytest.raises(ValueError):
            LanguageProfile("xx", grams)

    def test_vote_confidence_bounds(self):
        with pytest.raises(ValueError):
            LanguageVote("Statistical", "en", 1.5)
        with pytest.raises(ValueError):
            LanguageVote("Statistical", "en", -0.1)

    def test_embedded_profiles_load(self):
        profiles = load_embedded_profiles()
        langs = sorted(p.lang for p in profiles)
        assert langs == ["de", "en", "es", "fi", "fr", "it", "nl", "pl", "pt", "sv"]
        for profile in profiles:
            assert len(profile.ranked_trigrams) == PROFILE_SIZE

    def test_embedded_cache_returns_copies(self):
        first = load_embedded_profiles()
        first.clear()
        assert load_embedded_profiles()

    def test_concurrent_first_load_does_not_duplicate(self):
        # parallel repair workers race to populate the cache
        import threading

        import altgen.langdetect as mod

        mod._EMBEDDED_CACHE.clear()
        barrier = threading.Barrier(8)
        results: list[int] = []
        lock = threading.Lock()

        def hit():
            barrier.wait()
            n = len(load_embedded_profiles())
            with lock:
                results.append(n)

        threads = [threading.Thread(target=hit) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert results == [10] * 8
        assert len(mod._EMBEDDED_CACHE) == 10


class TestBuilder:
    """tools/build_profiles.py, which writes the profiles the package ships."""

    def test_build_profiles(self, tmp_path, capsys):
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        (corpus / "en.txt").write_text(LONG_EN, encoding="utf-8")
        samples = load_samples()
        (corpus / "fi.txt").write_text(" ".join(samples["fi"]), encoding="utf-8")
        out = tmp_path / "profiles"
        written = profile_tool.build_profiles(corpus, out)
        assert [p.name for p in written] == ["en.profile", "fi.profile"]
        # Both corpora are tiny, so the under-300 warning fires
        assert "warning" in capsys.readouterr().err
        assert load_profile(out / "en.profile").lang == "en"

    def test_cli_success(self, tmp_path, capsys):
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        (corpus / "xx.txt").write_text(LONG_EN, encoding="utf-8")
        assert profile_tool.main([str(corpus), str(tmp_path / "out")]) == 0
        assert "xx.profile" in capsys.readouterr().out

    def test_cli_empty_corpus(self, tmp_path, capsys):
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        assert profile_tool.main([str(corpus), str(tmp_path / "out")]) == 2
        assert "no *.txt corpora" in capsys.readouterr().err

    def test_shipped_profiles_are_the_tools_output(self, tmp_path):
        # a change to the trigram rules cannot leave the shipped profiles stale
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        subprocess.run(
            [sys.executable, str(TOOL), str(ROOT / "tools" / "lang_corpora"), str(tmp_path)],
            env=env,
            check=True,
            capture_output=True,
        )
        shipped = ROOT / "src" / "altgen" / "langdetect" / "profiles"
        built = sorted(p.name for p in tmp_path.iterdir())
        assert built == sorted(p.name for p in shipped.glob("*.profile"))
        for name in built:
            assert (tmp_path / name).read_bytes() == (shipped / name).read_bytes(), name


class TestFixtureSet:
    """Held-out sample accuracy; the acceptance gate re-runs this bound."""

    def test_fixture_shape(self):
        samples = load_samples()
        assert len(samples) >= 10
        for lang, texts in samples.items():
            assert len(texts) >= 5, lang
            for text in texts:
                assert len(text) >= 200, (lang, len(text))

    def test_accuracy_at_least_95_percent(self):
        samples = load_samples()
        total = correct = 0
        for lang, texts in samples.items():
            for text in texts:
                total += 1
                try:
                    got, confidence = detect_language(text)
                except Undetermined:
                    continue
                assert 0.0 <= confidence <= 1.0
                correct += got == lang
        assert correct / total >= 0.95

    def test_repeat_runs_identical(self):
        samples = load_samples()
        text = samples["sv"][0]
        assert detect_language(text) == detect_language(text)


def test_one_pass_normalizes_as_two_do():
    # detect_statistical normalizes in one pass what it normalized twice:
    # every code point gives what two passes give, with the letters one gave
    every = "".join(map(chr, range(0x110000)))
    one_pass = " ".join(every.translate(_TwiceNormalized()).split())
    assert one_pass == oracle.normalize_text(oracle.normalize_text(every))
    assert letter_count(one_pass) == letter_count(oracle.normalize_text(every))


# Characters where per-character and whole-string lowering differ ("İ", a
# final "Σ"), lowering that changes length ("ß" stays, "İ" grows), combining
# marks that are not letters, and letters of every scripted range.
_EDGE_ALPHABET = st.sampled_from(
    list("aZé ,.-'1²½\t\nİıΣσςßẞ\u0301\u0307\u05b0")
    + list("Ωαβγשלוםกขคうみアイ한글ㄱᄀ漢字ﬀＡ\U0001d400")
)
_EDGE_TEXT = st.text(alphabet=_EDGE_ALPHABET, max_size=300) | st.text(max_size=300)
_GRAMS = st.lists(st.text(min_size=1, max_size=3), max_size=60, unique=True)
# few trigrams over few counts, so that most counts tie
_TIED_COUNTS = st.dictionaries(
    st.text(alphabet="ab ", min_size=1, max_size=3), st.integers(min_value=1, max_value=3)
).map(Counter)


class TestAgainstOracle:
    """The rank-dict distance, the intersection sum, the script pre-check and
    the two-sort ranking give exactly what the per-call loops and the key
    tuples in langdetect_oracles gave."""

    @given(_EDGE_TEXT)
    @settings(max_examples=300)
    def test_normalize_and_count_equal(self, text):
        assert normalize_text(text) == oracle.normalize_text(text)
        assert letter_count(text) == oracle.letter_count(text)
        assert _trigrams(oracle.normalize_text(text)) == oracle.trigram_counts(text)

    @given(_TIED_COUNTS, st.integers(min_value=0, max_value=PROFILE_SIZE))
    @settings(max_examples=300)
    def test_rank_equal(self, counts, k):
        assert rank_trigrams(counts, k) == oracle.rank_trigrams(counts, k)
        assert rank_trigrams(counts) == oracle.rank_trigrams(counts)

    @given(_EDGE_TEXT)
    @settings(max_examples=300)
    def test_script_vote_equal(self, text):
        vote = detect_script(text)
        assert (None if vote is None else (vote.lang, vote.confidence)) == oracle.detect_script(text)

    @given(_GRAMS, _GRAMS, st.integers(min_value=1, max_value=PROFILE_SIZE))
    def test_distance_equal(self, sample, reference, penalty):
        assert _distance(_ranks(tuple(sample)), _ranks(tuple(reference)), penalty) == (
            oracle.out_of_place_distance(tuple(sample), tuple(reference), penalty)
        )

    @given(
        st.lists(
            st.sampled_from(["the", "und", "fox", "kissa", "δ", "İstanbul", "ßtraße", "42"]),
            max_size=60,
        ).map(" ".join)
        | _EDGE_TEXT
    )
    @settings(max_examples=200)
    def test_detect_language_equal(self, text):
        profiles = load_embedded_profiles()
        try:
            got = detect_language(text)
        except Undetermined:
            got = None
        assert got == oracle.detect_language(text, profiles)

    def test_fixture_samples_equal(self):
        profiles = load_embedded_profiles()
        for texts in load_samples().values():
            for text in texts:
                assert detect_language(text) == oracle.detect_language(text, profiles)

    def test_profile_ranks_built_once(self):
        profile = load_embedded_profiles()[0]
        assert profile.ranks is profile.ranks
        assert profile.ranks == {g: i for i, g in enumerate(profile.ranked_trigrams)}
