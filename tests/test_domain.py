"""Quantized domain, randomized rounding, and rescaling."""

import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ldpmean import domain as domain_module
from ldpmean.domain import (
    LinearTransform,
    QuantizedPmf,
    make_domain,
    rescale_to,
    round_randomized_array,
    rounding_weights_array,
)


def weights_of(d, x):
    """(left index, left weight) of the single value x."""
    idx, w = rounding_weights_array(d, x)
    return int(idx), float(w)


class TestMakeDomain:
    def test_four_bins(self):
        d = make_domain(beta=1.0, n_bins=4)
        assert d.sigma == 0.5
        np.testing.assert_array_equal(d.edges, [-1.0, -0.5, 0.0, 0.5, 1.0])

    def test_hundred_bins_sigma(self):
        assert make_domain(beta=1.0, n_bins=100).sigma == 0.02

    def test_single_bin(self):
        d = make_domain(beta=5.0, n_bins=1)
        assert d.sigma == 10.0
        np.testing.assert_array_equal(d.edges, [-5.0, 5.0])

    def test_endpoints_exact(self):
        # edges must hit +-beta exactly, not within float slop
        d = make_domain(beta=0.3, n_bins=7)
        assert d.edges[0] == -0.3
        assert d.edges[-1] == 0.3

    @pytest.mark.parametrize(
        "beta,n_bins",
        [(0.0, 4), (-1.0, 4), (math.inf, 4), (math.nan, 4), (1.0, 0), (1.0, 2.7),
         (1.0, math.inf), (1.0, math.nan)],
    )
    def test_invalid_parameters(self, beta, n_bins):
        # the error names the value it refuses
        if n_bins == 4:
            message = f"beta must be positive and finite, got {beta!r}"
        else:
            message = f"n_bins must be a whole number >= 1, got {n_bins!r}"
        with pytest.raises(ValueError, match=re.escape(message)):
            make_domain(beta=beta, n_bins=n_bins)


class TestRoundingWeights:
    def test_hand_example(self):
        # sigma=0.5, x_1=-0.5: w_left = 1 - (-0.3 - -0.5)/0.5 = 0.6
        d = make_domain(beta=1.0, n_bins=4)
        i, w = weights_of(d, -0.3)
        assert i == 1
        assert w == pytest.approx(0.6, abs=1e-12)

    def test_interior_edge_is_deterministic(self):
        d = make_domain(beta=1.0, n_bins=4)
        assert weights_of(d, 0.0) == (2, 1.0)

    def test_midpoint(self):
        d = make_domain(beta=1.0, n_bins=4)
        i, w = weights_of(d, 0.25)
        assert i == 2
        assert w == pytest.approx(0.5, abs=1e-12)

    def test_right_endpoint_belongs_to_last_bin(self):
        d = make_domain(beta=1.0, n_bins=4)
        i, w = weights_of(d, 1.0)
        assert i == 3
        assert w == 0.0
        # also as the last of many values, past the first block
        idx, wl = rounding_weights_array(d, np.linspace(-1.0, 1.0, 40_001))
        assert (idx[-1], wl[-1]) == (3, 0.0) and (idx[0], wl[0]) == (0, 1.0)

    def test_out_of_domain(self):
        d = make_domain(beta=1.0, n_bins=4)
        with pytest.raises(ValueError):
            rounding_weights_array(d, 1.0001)
        with pytest.raises(ValueError):
            rounding_weights_array(d, [0.0, -1.0001])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, bad):
        # NaN used to round to edge 0 with only a cast warning
        d = make_domain(beta=1.0, n_bins=4)
        xs = np.zeros(40_000)
        xs[30_000] = bad  # past the first block
        message = re.escape(f"value {bad!r} outside [-1.0, 1.0]")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for call in (
                lambda: rounding_weights_array(d, xs),
                lambda: rounding_weights_array(d, bad),
                lambda: round_randomized_array(d, xs, np.random.default_rng(0)),
                lambda: round_randomized_array(d, bad, np.random.default_rng(0)),
            ):
                with pytest.raises(ValueError, match=message):
                    call()

    @given(
        x=st.floats(-1.0, 1.0),
        n_bins=st.integers(1, 40),
    )
    @settings(max_examples=200, deadline=None)
    def test_weights_are_convex_and_reconstruct_x(self, x, n_bins):
        d = make_domain(beta=1.0, n_bins=n_bins)
        i, w = weights_of(d, x)
        assert 0 <= i < n_bins
        assert 0.0 <= w <= 1.0
        expected = w * d.edges[i] + (1.0 - w) * d.edges[i + 1]
        assert expected == pytest.approx(x, abs=1e-9)

    def test_array_variant_matches_scalar(self):
        # one call over many values, in any shape, gives each value what a
        # call on that value alone gives
        d = make_domain(beta=1.0, n_bins=8)
        xs = np.linspace(-1.0, 1.0, 41)
        idx, wl = rounding_weights_array(d, xs.reshape(1, 41))
        assert idx.shape == wl.shape == (1, 41)
        for k, x in enumerate(xs):
            assert (idx[0, k], wl[0, k]) == weights_of(d, float(x))


class TestRoundRandomized:
    def test_edge_input_is_deterministic(self):
        d = make_domain(beta=1.0, n_bins=4)
        rng = np.random.default_rng(0)
        assert all(round_randomized_array(d, -0.5, rng) == [1] for _ in range(50))

    def test_midpoint_split(self):
        d = make_domain(beta=1.0, n_bins=4)
        rng = np.random.default_rng(1)
        draws = round_randomized_array(d, np.full(100_000, 0.25), rng)
        frac = np.mean(draws == 2)
        assert frac == pytest.approx(0.5, abs=3.0 / np.sqrt(100_000) + 0.005)

    def test_hand_example_frequency(self):
        # P(left edge -0.5) = 0.6 at x=-0.3
        d = make_domain(beta=1.0, n_bins=4)
        rng = np.random.default_rng(2)
        draws = round_randomized_array(d, np.full(1_000_000, -0.3), rng)
        assert np.mean(draws == 1) == pytest.approx(0.6, abs=0.002)

    @pytest.mark.parametrize("beta, n", [(1.0, 3), (0.3, 10), (2.9, 13)])
    def test_uniform_meets_the_clipped_weight(self, beta, n):
        # the rounding compares each uniform u in [0, 1) with the left
        # weight before its clip to [0, 1], which round-off leaves a hair
        # outside it at some edges; u >= w and u >= clip(w, 0, 1) agree
        d = make_domain(beta=beta, n_bins=n)
        xs = np.concatenate(
            [d.edges, np.nextafter(d.edges, np.inf)[:-1], np.nextafter(d.edges, -np.inf)[1:]]
        )
        xs = np.tile(xs, 200)
        raw = domain_module._rounding_block(d, xs)[1]
        assert np.any((raw < 0.0) | (raw > 1.0))
        idx, w_left = rounding_weights_array(d, xs)
        assert np.all((w_left >= 0.0) & (w_left <= 1.0))
        u = np.random.default_rng(4).random(xs.size)
        drawn = round_randomized_array(d, xs, np.random.default_rng(4))
        np.testing.assert_array_equal(drawn, idx + (u >= w_left))

    def test_rounded_value_is_unbiased(self):
        d = make_domain(beta=1.0, n_bins=8)
        rng = np.random.default_rng(3)
        x = 0.37
        draws = round_randomized_array(d, np.full(1_000_000, x), rng)
        values = d.edges[draws]
        se = values.std() / 1000.0
        assert abs(values.mean() - x) < 4.0 * se


class TestRescale:
    def test_two_point(self):
        scaled, _ = rescale_to([0.0, 10.0], 1.0)
        np.testing.assert_allclose(scaled, [-1.0, 1.0])

    def test_three_point(self):
        scaled, _ = rescale_to([0.0, 5.0, 10.0], 1.0)
        np.testing.assert_allclose(scaled, [-1.0, 0.0, 1.0], atol=1e-15)

    def test_constant_data(self):
        scaled, t = rescale_to([2.0, 2.0, 2.0], 1.0)
        np.testing.assert_array_equal(scaled, [0.0, 0.0, 0.0])
        assert t.invert(0.0) == pytest.approx(2.0)

    @given(
        st.lists(st.floats(-1e6, 1e6), min_size=2, max_size=60).filter(
            lambda v: max(v) - min(v) > 1e-300
        )
    )
    @settings(max_examples=150, deadline=None)
    def test_round_trip(self, data):
        scaled, t = rescale_to(data, 1.0)
        assert np.max(np.abs(scaled)) <= 1.0
        back = t.invert(scaled)
        scale = max(abs(min(data)), abs(max(data)), 1.0)
        np.testing.assert_allclose(back, data, atol=1e-9 * scale)

    def test_unrepresentable_range_rejected(self):
        # two distinct values a subnormal apart: the slope 2/(hi - lo)
        # overflows a double, so no finite transform exists
        with pytest.raises(ValueError, match="cannot be mapped"):
            rescale_to([0.0, 2.225073858507e-311], 1.0)

    def test_nonfinite_data_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            rescale_to([0.0, float("inf")], 1.0)
        with pytest.raises(ValueError, match="finite"):
            rescale_to([0.0, float("nan")], 1.0)

    def test_transform_validates_scale(self):
        with pytest.raises(ValueError):
            LinearTransform(scale=0.0, offset=1.0)


class TestQuantizedPmf:
    def test_rejects_negative_mass(self):
        with pytest.raises(ValueError):
            QuantizedPmf(masses=np.array([1.1, -0.1]))

    def test_rejects_bad_total(self):
        with pytest.raises(ValueError):
            QuantizedPmf(masses=np.array([0.6, 0.6]))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_non_finite_mass(self, bad):
        # NaN passes both the sign and the total check
        with pytest.raises(ValueError, match="non-finite"):
            QuantizedPmf(masses=np.array([1.0, bad, 0.0]))
        with pytest.raises(ValueError, match="non-finite"):
            QuantizedPmf(masses=np.full(5, bad))
