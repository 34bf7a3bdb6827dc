import numpy as np
import pytest

from trafficlab.rng import as_generator, substream


def test_substream_is_deterministic():
    a = substream(7, 3).random(8)
    b = substream(7, 3).random(8)
    assert np.array_equal(a, b)


def test_substreams_with_different_indices_differ():
    a = substream(7, 1).random(8)
    b = substream(7, 2).random(8)
    assert not np.array_equal(a, b)


def test_index_tuple_is_not_flattened_into_the_seed():
    # (7, 1) and (71,) must be unrelated streams
    a = substream(7, 1).random(8)
    b = substream(71).random(8)
    assert not np.array_equal(a, b)


def test_trailing_zero_indices_name_one_stream():
    # SeedSequence pads its entropy with zeros, as the substream docstring says
    a = substream(5).random(8)
    assert np.array_equal(a, substream(5, 0).random(8))
    assert np.array_equal(a, substream(5, 0, 0).random(8))


def test_deeper_indices_give_fresh_streams():
    a = substream(0, 1, 2).random(8)
    b = substream(0, 1, 3).random(8)
    c = substream(0, 1).random(8)
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_negative_master_seed_rejected():
    with pytest.raises(ValueError):
        substream(-1)


def test_as_generator_passes_generators_through():
    g = np.random.default_rng(0)
    assert as_generator(g) is g


def test_as_generator_wraps_plain_seeds():
    a = as_generator(5).random(4)
    b = np.random.default_rng(5).random(4)
    assert np.array_equal(a, b)
