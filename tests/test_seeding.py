"""Seed derivation: stability, distinctness, schedule independence, and
the bulk-hashed streams against numpy's own SeedSequence streams."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fdexplain.seeding import stage_seed, substreams

import oracles


def _stream(seed, *key):
    return next(substreams(seed, [key]))


def test_stage_seed_deterministic():
    assert stage_seed(42, "simulate") == stage_seed(42, "simulate")


def test_stage_seed_distinct_per_stage_and_master():
    seeds = {stage_seed(42, s) for s in
             ("simulate", "split", "train-y1", "train-y2", "pfi-y3")}
    assert len(seeds) == 5
    assert stage_seed(42, "simulate") != stage_seed(43, "simulate")


def test_stage_seed_63_bit_range():
    for master in (0, 1, 42, 2**63, 2**64 - 1):
        s = stage_seed(master, "anything")
        assert 0 <= s < 2**63


def test_substream_reproducible():
    a = _stream(7, 3, 1).standard_normal(16)
    b = _stream(7, 3, 1).standard_normal(16)
    assert np.array_equal(a, b)


def test_substream_key_sensitivity():
    base = _stream(7, 3, 1).standard_normal(16)
    for key in ((7, 3, 2), (7, 4, 1), (8, 3, 1), (7, 3)):
        other = _stream(*key).standard_normal(16)
        assert not np.array_equal(base, other)


def test_substream_schedule_free():
    # drawing from one stream never affects a sibling
    first, second = substreams(0, [[1], [2]])
    first.standard_normal(1000)
    assert np.array_equal(second.standard_normal(8),
                          _stream(0, 2).standard_normal(8))


# seeds of 1, 2 and 3 entropy words; with two keys, 3 seed words go past
# SeedSequence's 4-word pool
_SEEDS = (st.sampled_from([0, 2**32 - 1, 2**32, 2**63 - 1, 2**64])
          | st.integers(0, 2**64 + 2**40))
_KEYS = st.integers(1, 3).flatmap(lambda k: st.lists(
    st.tuples(*[st.integers(0, 2**32 - 1)] * k), min_size=1, max_size=4))


@settings(max_examples=200, deadline=None)
@given(seed=_SEEDS, keys=_KEYS)
def test_substreams_are_the_seedsequence_streams(seed, keys):
    for key, rng in zip(keys, substreams(seed, keys), strict=True):
        ref = oracles.substream_ref(seed, *key)
        assert np.array_equal(
            rng.bit_generator.seed_seq.generate_state(4, np.uint64),
            ref.bit_generator.seed_seq.generate_state(4, np.uint64))
        assert rng.bit_generator.state == ref.bit_generator.state
        assert np.array_equal(rng.permutation(37), ref.permutation(37))
        assert (rng.standard_normal(5).tobytes()
                == ref.standard_normal(5).tobytes())
        assert np.array_equal(
            rng.integers(-1000, 2**31 - 1, size=6, dtype=np.int32),
            ref.integers(-1000, 2**31 - 1, size=6, dtype=np.int32))


@pytest.mark.parametrize("keys", [[[-1]], [[0, 2**32]], [[3], [2**40]]],
                         ids=["negative", "2**32", "2**40"])
def test_substreams_refuse_keys_outside_32_bits(keys):
    with pytest.raises(ValueError, match=r"keys must lie in \[0, 2\*\*32\)"):
        substreams(5, keys)


def test_substreams_refuse_a_negative_seed_and_a_flat_key_list():
    with pytest.raises(ValueError, match="seed must be non-negative"):
        substreams(-1, [[0]])
    with pytest.raises(ValueError, match=r"\(N, k\) array of integers"):
        substreams(0, [1, 2])
