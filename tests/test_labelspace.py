from __future__ import annotations

import pytest

from corpusforge.labelspace import (
    PosHint,
    SeedLabel,
    build_label_space,
    canonicalize,
    load_seed_file,
    parse_seed_phrase,
    relevant_hashtags,
    verbnoun_seeds,
    word_variants,
)
from corpusforge.records import LabelKind, ValidationError, VideoRecord, label_histogram

from conftest import corpus_with_counts

BURN_CANDLE_SET = {
    "burncandle",
    "candlesburning",
    "candleburning",
    "burncandles",
    "burningcandle",
    "burningcandles",
    "candlesburn",
    "candleburn",
}


def test_canonicalize_burning():
    form = canonicalize("burning", PosHint.VERB)
    assert form.surface == "burning"
    assert form.stem == "burn"


def test_canonicalize_no_suffix():
    assert canonicalize("jump", PosHint.VERB).stem == "jump"


def test_canonicalize_candles_and_regeneration():
    form = canonicalize("candles", PosHint.NOUN)
    assert form.stem == "candle"
    # the variants of the singular must regenerate the plural
    assert "candles" in word_variants(canonicalize("candle", PosHint.NOUN))


def test_canonicalize_strips_nonletters_and_lowercases():
    assert canonicalize("Fish!", PosHint.NOUN).surface == "fish"
    with pytest.raises(ValidationError):
        canonicalize("1234", PosHint.NOUN)


def test_stopword_overrides_hint():
    form = canonicalize("The", PosHint.NOUN)
    assert form.pos_hint is PosHint.STOPWORD


@pytest.mark.parametrize(
    "word,hint,expected",
    [
        ("candle", PosHint.NOUN, {"candle", "candles"}),
        ("burning", PosHint.VERB, {"burning", "burn"}),
        ("jump", PosHint.VERB, {"jump", "jumping"}),
        ("swim", PosHint.VERB, {"swim", "swimming"}),  # final consonant doubles
        ("swimming", PosHint.VERB, {"swimming", "swim"}),
        ("catching", PosHint.VERB, {"catching", "catch"}),
    ],
)
def test_word_variants(word, hint, expected):
    assert word_variants(canonicalize(word, hint)) == expected


def test_relevant_hashtags_catching_a_fish():
    label = parse_seed_phrase("catching/v a fish/n")
    tags = relevant_hashtags(label)
    assert {"catchingafish", "catchfish", "fishcatching"} <= tags


def test_relevant_hashtags_burn_candle_exact():
    label = SeedLabel(
        text="burning candle",
        words=(
            canonicalize("burning", PosHint.VERB),
            canonicalize("candle", PosHint.NOUN),
        ),
    )
    assert relevant_hashtags(label) == BURN_CANDLE_SET


def test_relevant_hashtags_single_word_collapses():
    label = SeedLabel(text="swim", words=(canonicalize("swim", PosHint.VERB),))
    # single-word case: (a) and (b) collapse to the word's own variants
    assert relevant_hashtags(label) == word_variants(canonicalize("swim", PosHint.VERB))


def test_relevant_hashtags_jumping_rope_hand_enumeration():
    label = parse_seed_phrase("jumping/v rope/n")
    expected = set()
    for verb in ("jumping", "jump"):
        for noun in ("rope", "ropes"):
            expected.add(verb + noun)
            expected.add(noun + verb)
    assert relevant_hashtags(label) == expected


def test_relevant_hashtags_reversal_closure():
    words = [
        ("jumping", PosHint.VERB, "rope", PosHint.NOUN),
        ("playing", PosHint.VERB, "guitar", PosHint.NOUN),
        ("walking", PosHint.VERB, "dogs", PosHint.NOUN),
    ]
    for w1, h1, w2, h2 in words:
        label = SeedLabel(
            text=f"{w1} {w2}", words=(canonicalize(w1, h1), canonicalize(w2, h2))
        )
        tags = relevant_hashtags(label)
        v1 = word_variants(canonicalize(w1, h1))
        v2 = word_variants(canonicalize(w2, h2))
        for a in v1:
            for b in v2:
                assert (a + b in tags) == (b + a in tags)


def test_relevant_hashtags_stopwords_only_error():
    label = SeedLabel(
        text="of the", words=(canonicalize("of"), canonicalize("the"))
    )
    with pytest.raises(ValidationError, match="stopword"):
        relevant_hashtags(label)


def test_relevant_hashtags_all_orders_flag():
    label = parse_seed_phrase("one/v two/n three/n")
    default = relevant_hashtags(label)
    full = relevant_hashtags(label, all_orders=True)
    assert default <= full
    # 3 content words: n! orders add middle permutations the default lacks
    assert len(full) > len(default)


def test_build_label_space_threshold():
    corpus, _ = corpus_with_counts({"ropejumping": 60, "guitarplaying": 10})
    seeds = [parse_seed_phrase("jumping/v rope/n"), parse_seed_phrase("playing/v guitar/n")]
    space = build_label_space(seeds, LabelKind.SEED, corpus, min_count=50)
    assert set(space.entries) == {"jumping rope"}


def test_build_label_space_min_count_one_keeps_all():
    corpus, _ = corpus_with_counts({"ropejumping": 2, "guitarplaying": 1})
    seeds = [parse_seed_phrase("jumping/v rope/n"), parse_seed_phrase("playing/v guitar/n")]
    space = build_label_space(seeds, LabelKind.SEED, corpus, min_count=1)
    assert set(space.entries) == {"jumping rope", "playing guitar"}


def test_build_label_space_empty_error():
    corpus, _ = corpus_with_counts({"unrelated": 5})
    seeds = [parse_seed_phrase("jumping/v rope/n")]
    with pytest.raises(ValidationError, match="empty label space"):
        build_label_space(seeds, LabelKind.SEED, corpus, min_count=1)


def test_verbnoun_cross_product_threshold():
    # 5 verb x noun combinations; engineer exactly 3 to clear the threshold
    verbs = [parse_seed_phrase("burning", PosHint.VERB)]
    nouns = [parse_seed_phrase(n, PosHint.NOUN) for n in ["candle", "rope", "leaf", "tire", "box"]]
    counts = {
        "burncandle": 60,
        "burnrope": 55,
        "burnleaf": 50,
        "burntire": 49,
        "burnbox": 3,
    }
    corpus, _ = corpus_with_counts(counts)
    seeds = verbnoun_seeds(verbs, nouns)
    assert len(seeds) == 5
    space = build_label_space(seeds, LabelKind.VERB_NOUN, corpus, min_count=50)
    assert set(space.entries) == {"burn candle", "burn rope", "burn leaf"}


def test_every_retained_label_meets_min_count():
    corpus, _ = corpus_with_counts({"ropejumping": 60, "guitarplaying": 51, "boxlifting": 49})
    seeds = [
        parse_seed_phrase("jumping/v rope/n"),
        parse_seed_phrase("playing/v guitar/n"),
        parse_seed_phrase("lifting/v box/n"),
    ]
    space = build_label_space(seeds, LabelKind.SEED, corpus, min_count=50)
    counts = label_histogram(corpus, space)
    assert all(counts[l] >= 50 for l in space.entries)


def test_hashtag_matching_is_lowercase_exact():
    video = VideoRecord(id="v", duration_s=2.0, hashtags=frozenset({"BurnCandle"}))
    assert "burncandle" in video.hashtags


def test_seed_file_parsing(tmp_path):
    path = tmp_path / "seeds.txt"
    path.write_text("catching/v a fish/n\n\n# comment\nswimming\n")
    seeds = load_seed_file(path, PosHint.VERB)
    assert len(seeds) == 2
    assert seeds[0].words[1].pos_hint is PosHint.STOPWORD
    assert seeds[1].words[0].pos_hint is PosHint.VERB
