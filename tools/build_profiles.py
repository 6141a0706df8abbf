"""Build the language profiles altgen ships from training corpora.

Reads one `<subtag>.txt` per language and writes its rank-ordered trigram
profile, `<subtag>.profile`: the 300 most frequent trigrams, one per line,
most frequent first. Needs altgen importable (installed, or src/ on
PYTHONPATH). Usage:

    python3 tools/build_profiles.py tools/lang_corpora src/altgen/langdetect/profiles/
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from altgen.langdetect import PROFILE_SIZE, _trigrams, rank_trigrams


def normalize(text: str) -> str:
    """Lowercase, non-letters collapsed to single spaces."""
    chars = [ch.lower() if ch.isalpha() else " " for ch in text]
    return " ".join("".join(chars).split())


def build_profiles(corpus_dir: Path, output_dir: Path) -> list[Path]:
    output_dir.mkdir(parents=True, exist_ok=True)
    written = []
    for corpus in sorted(corpus_dir.glob("*.txt")):
        grams = rank_trigrams(_trigrams(normalize(corpus.read_text(encoding="utf-8"))))
        if len(grams) < PROFILE_SIZE:
            print(
                f"warning: {corpus.stem} corpus yields only {len(grams)} trigrams (< {PROFILE_SIZE})",
                file=sys.stderr,
            )
        path = output_dir / f"{corpus.stem}.profile"
        path.write_text("\n".join(grams) + "\n", encoding="utf-8")
        written.append(path)
    return written


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("corpus_dir", type=Path)
    parser.add_argument("output_dir", type=Path)
    args = parser.parse_args(argv)
    written = build_profiles(args.corpus_dir, args.output_dir)
    if not written:
        print(f"no *.txt corpora found in {args.corpus_dir}", file=sys.stderr)
        return 2
    for path in written:
        print(path)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
