"""``first_integers`` is ``make_rng``'s batched form, checked against numpy
stage by stage: ``SeedSequence`` state words, the seeded ``PCG64`` state, and
the first bounded draw of each stream."""
from __future__ import annotations

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from corpusforge.rng import _pcg64_states, _seed_state_words, first_integers, make_rng

# SeedSequence takes a seed below 2**32 as one 32-bit word, not two
_SEEDS = st.integers(0, 2**64 - 1) | st.integers(0, 2**32 - 1)
# 2**31 < n <= 2**32 rejects up to half of all 32-bit words (Lemire), so
# streams there also read the high half and a second output; above 2**32
# numpy draws 64 bits
_BOUNDS = st.integers(2, 400) | st.integers(2**31, 2**32) | st.integers(1, 2**40)


@settings(max_examples=300, deadline=None)
@given(st.lists(_SEEDS, min_size=1, max_size=12))
def test_seed_words_and_pcg64_states_are_numpys(seeds):
    words = [w.tolist() for w in _seed_state_words(seeds)]
    states = _pcg64_states(seeds)
    for i, seed in enumerate(seeds):
        state64 = np.random.SeedSequence(seed).generate_state(4, np.uint64).tolist()
        assert [words[2 * k][i] | words[2 * k + 1][i] << 32 for k in range(4)] == state64
        pcg = np.random.PCG64(seed).state["state"]
        assert states[i] == (pcg["state"], pcg["inc"])


@settings(max_examples=300, deadline=None)
@given(_SEEDS, st.lists(st.tuples(st.sampled_from([(), ("assign",), ("tail", 3)]), st.text(), _BOUNDS),
                        max_size=12))
@example(5, [(("assign",), "v", n) for n in (2**32 - 1, 2**32, 2**32 + 1, 2**33, 2**40)])
def test_first_integers_are_the_first_make_rng_draws(seed, streams):
    # an empty key path is the master seed itself, so small seeds reach SeedSequence
    key_paths = [prefix + (video_id,) if prefix else () for prefix, video_id, _n in streams]
    bounds = [n for _prefix, _video_id, n in streams]
    expected = [int(make_rng(seed, *keys).integers(n)) for keys, n in zip(key_paths, bounds)]
    assert first_integers(seed, key_paths, bounds) == expected


def test_first_integers_follow_lemire_rejections_into_the_next_output():
    n = 2**31 + 1  # a 32-bit word is rejected when its product's low half is below 2**31 - 1
    key_paths = [("assign", f"v{i}") for i in range(300)]
    expected = []
    accepted_at = []  # index of the 32-bit half each stream's draw accepts
    for keys in key_paths:
        raw = make_rng(9, *keys).bit_generator.random_raw(8).tolist()
        halves = [half for word in raw for half in (word & 0xFFFFFFFF, word >> 32)]
        accepted_at.append(next(i for i, half in enumerate(halves) if (half * n) & 0xFFFFFFFF >= 2**31 - 1))
        expected.append(int(make_rng(9, *keys).integers(n)))
    assert first_integers(9, key_paths, [n] * len(key_paths)) == expected
    assert {0, 1, 2, 3} <= set(accepted_at)  # the low half, the high half, then the next output's
