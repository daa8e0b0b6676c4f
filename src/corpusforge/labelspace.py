"""Relevant-hashtag construction from seed action labels.

A seed label like "catching a fish" expands into the set of hashtags a video
could plausibly carry for that action: the full phrase glued together plus
every combination of per-word variants (surface form, stem, -ing/-s forms) in
the original and reversed content-word orders, all lowercase with no
separators.

Stemming is a deliberately small, frozen suffix-stripper -- not a linguistic
lemmatizer.  The rules, applied once, first match wins:

  1. "-ing" (base >= 3 letters): strip; undouble a doubled final consonant
     unless it is l/s/z        (burning -> burn, swimming -> swim)
  2. "-ed" (base >= 3 letters): strip; undouble as above; else restore a
     final "e" after a consonant-vowel-consonant base  (baked -> bake)
  3. "-s" but not "-ss" (word >= 4 letters): strip    (candles -> candle)
"""
from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass
from pathlib import Path

from .records import (
    LabelKind, LabelSpace, ValidationError, VideoRecord, label_histogram, read_lines
)

STOPWORDS = frozenset({"a", "an", "the", "of", "on", "in", "to", "with"})

_VOWELS = "aeiou"


class PosHint(enum.Enum):
    VERB = "verb"
    NOUN = "noun"
    OTHER = "other"
    STOPWORD = "stopword"


@dataclass(frozen=True)
class WordForm:
    surface: str
    stem: str
    pos_hint: PosHint

    def __post_init__(self) -> None:
        if not self.surface or not self.stem:
            raise ValidationError("WordForm surface and stem must be non-empty")


@dataclass(frozen=True)
class SeedLabel:
    text: str
    words: tuple[WordForm, ...]

    def __post_init__(self) -> None:
        if not self.words:
            raise ValidationError(f"seed label {self.text!r} has no words")

    def content_words(self) -> list[WordForm]:
        return [w for w in self.words if w.pos_hint is not PosHint.STOPWORD]


def _is_consonant(ch: str) -> bool:
    return ch.isalpha() and ch not in _VOWELS


def _undouble(base: str) -> str:
    if (
        len(base) >= 2
        and base[-1] == base[-2]
        and _is_consonant(base[-1])
        and base[-1] not in "lsz"
    ):
        return base[:-1]
    return base


def _ends_cvc(base: str) -> bool:
    # consonant-vowel-consonant tail, final consonant not w/x/y
    return (
        len(base) >= 3
        and _is_consonant(base[-1])
        and base[-1] not in "wxy"
        and base[-2] in _VOWELS
        and _is_consonant(base[-3])
    )


def stem_word(word: str) -> str:
    """Apply the frozen suffix-stripping rules (single pass)."""
    if word.endswith("ing") and len(word) >= 6:
        return _undouble(word[:-3])
    if word.endswith("ed") and len(word) >= 5:
        base = word[:-2]
        undoubled = _undouble(base)
        if undoubled != base:
            return undoubled
        if _ends_cvc(base):
            return base + "e"
        return base
    if word.endswith("s") and not word.endswith("ss") and len(word) >= 4:
        return word[:-1]
    return word


def canonicalize(word: str, pos_hint: PosHint = PosHint.OTHER) -> WordForm:
    """Lowercase, strip non-letters, stem; stopwords override the hint."""
    surface = "".join(ch for ch in word.lower() if "a" <= ch <= "z")
    if not surface:
        raise ValidationError(f"word {word!r} is empty after stripping non-letters")
    if surface in STOPWORDS:
        return WordForm(surface, surface, PosHint.STOPWORD)
    return WordForm(surface, stem_word(surface), pos_hint)


def _ing_form(stem: str) -> str:
    # double the final consonant of a CVC stem before -ing (swim -> swimming)
    if _ends_cvc(stem):
        return stem + stem[-1] + "ing"
    return stem + "ing"


def word_variants(w: WordForm) -> set[str]:
    """All surface forms a word may take inside a hashtag."""
    variants = {w.surface, w.stem}
    if w.pos_hint is PosHint.NOUN:
        variants.add(w.stem + "s")
    elif w.pos_hint is PosHint.VERB:
        variants.add(_ing_form(w.stem))
    return variants


def relevant_hashtags(label: SeedLabel, all_orders: bool = False) -> set[str]:
    """Expand a seed label into its relevant-hashtag set.

    Includes (a) the full-phrase concatenation of surface forms, stopwords
    kept, and (b) every choice of one variant per content word concatenated
    in the original and the fully reversed order (all n! orders with
    ``all_orders``).
    """
    content = label.content_words()
    if not content:
        raise ValidationError(f"seed label {label.text!r} has only stopwords")
    tags = {"".join(w.surface for w in label.words)}
    variant_sets = [sorted(word_variants(w)) for w in content]
    for choice in itertools.product(*variant_sets):
        if all_orders:
            for order in itertools.permutations(choice):
                tags.add("".join(order))
        else:
            tags.add("".join(choice))
            tags.add("".join(reversed(choice)))
    return tags


# ---------------------------------------------------------------------------
# Seed parsing and label-space construction.


def parse_seed_phrase(text: str, default_hint: PosHint = PosHint.OTHER) -> SeedLabel:
    """Parse one seed phrase; a word may carry a "/v" or "/n" POS suffix."""
    words = []
    for token in text.split():
        hint = default_hint
        if token.endswith("/v"):
            token, hint = token[:-2], PosHint.VERB
        elif token.endswith("/n"):
            token, hint = token[:-2], PosHint.NOUN
        words.append(canonicalize(token, hint))
    if not words:
        raise ValidationError("empty seed phrase")
    return SeedLabel(text=" ".join(w.surface for w in words), words=tuple(words))


def load_seed_file(path: str | Path, default_hint: PosHint = PosHint.OTHER) -> list[SeedLabel]:
    """One phrase per line; blank lines and #-comments skipped."""
    seeds = []
    for _lineno, line in read_lines(path):
        line = line.strip()
        if line and not line.startswith("#"):
            seeds.append(parse_seed_phrase(line, default_hint))
    if not seeds:
        raise ValidationError(f"{path}: no seed phrases")
    return seeds


def verbnoun_seeds(verbs: list[SeedLabel], nouns: list[SeedLabel]) -> list[SeedLabel]:
    """Cross product of verb and noun seeds.

    The label text is the canonicalized pair (stems), mirroring how combined
    verb-object classes are named; the original word forms are kept for
    variant generation.
    """
    def _rehint(words: tuple[WordForm, ...], hint: PosHint) -> tuple[WordForm, ...]:
        return tuple(
            WordForm(w.surface, w.stem, hint if w.pos_hint is PosHint.OTHER else w.pos_hint)
            for w in words
        )

    pairs = []
    for v in verbs:
        for n in nouns:
            vw = _rehint(v.words, PosHint.VERB)
            nw = _rehint(n.words, PosHint.NOUN)
            text = " ".join(w.stem for w in vw + nw if w.pos_hint is not PosHint.STOPWORD)
            pairs.append(SeedLabel(text=text, words=vw + nw))
    return pairs


def build_label_space(
    seeds: list[SeedLabel],
    kind: LabelKind,
    corpus: list[VideoRecord],
    min_count: int = 50,
    name: str = "labelspace",
    all_orders: bool = False,
) -> LabelSpace:
    """Expand seeds to hashtag sets and keep labels matching enough videos.

    A label is retained only when at least ``min_count`` corpus videos carry
    one of its relevant hashtags.
    """
    if not seeds:
        raise ValidationError("no seeds given")
    entries = {}
    for seed in seeds:
        tags = relevant_hashtags(seed, all_orders=all_orders)
        if seed.text in entries:
            raise ValidationError(f"duplicate seed label {seed.text!r}")
        entries[seed.text] = frozenset(tags)
    candidate = LabelSpace(name=name, kind=kind, entries=entries, min_count=min_count)
    counts = label_histogram(corpus, candidate)
    kept = {l: entries[l] for l in entries if counts[l] >= min_count}
    if not kept:
        raise ValidationError(
            f"empty label space: no label matched >= {min_count} videos"
        )
    return LabelSpace(name=name, kind=kind, entries=kept, min_count=min_count)
