"""Attribute sampling: the assignment of k of d dimensions per client."""

import numpy as np
import pytest

from ldpmean import assign_attributes


def rng_for(tag: int) -> np.random.Generator:
    return np.random.default_rng(920_000 + tag)


class TestAssignAttributes:
    def test_shape_and_range(self):
        got = assign_attributes(50, 5, 2, rng_for(1))
        assert got.shape == (50, 2)
        assert got.min() >= 0 and got.max() < 5

    def test_rows_hold_distinct_dimensions(self):
        got = assign_attributes(200, 4, 3, rng_for(2))
        for row in got:
            assert len(set(row.tolist())) == 3

    def test_full_draw_is_deterministic_tiling(self):
        rng = rng_for(3)
        before = rng.bit_generator.state
        got = assign_attributes(7, 3, 3, rng)
        np.testing.assert_array_equal(got, np.tile([0, 1, 2], (7, 1)))
        # k = d must not consume the stream
        assert rng.bit_generator.state == before

    def test_single_draw_is_uniform(self):
        n = 100_000
        got = assign_attributes(n, 3, 1, rng_for(4))
        freqs = np.bincount(got[:, 0], minlength=3) / n
        np.testing.assert_allclose(freqs, 1.0 / 3.0, atol=0.006)

    def test_deterministic_under_seed(self):
        a = assign_attributes(100, 6, 2, rng_for(5))
        b = assign_attributes(100, 6, 2, rng_for(5))
        np.testing.assert_array_equal(a, b)

    def test_validation(self):
        with pytest.raises(ValueError, match="n_clients"):
            assign_attributes(0, 3, 1, rng_for(6))
        with pytest.raises(ValueError, match="1 <= k <= d"):
            assign_attributes(5, 3, 0, rng_for(6))
        with pytest.raises(ValueError, match="1 <= k <= d"):
            assign_attributes(5, 3, 4, rng_for(6))
