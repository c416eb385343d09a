"""Randomized-response frequency estimation and channel inversion."""

import math

import numpy as np
import pytest

from ldpmean.domain import make_domain
from ldpmean.freqest import collect_perturbed_histogram, reconstruct_pmf


def rr_channel(n_bins, eps):
    """The RR matrix over N+1 indices: e^eps / (N + e^eps) on the diagonal,
    1 / (N + e^eps) elsewhere; A[r, c] = P(report r | index c)."""
    e = math.exp(eps)
    a = np.full((n_bins + 1, n_bins + 1), 1.0 / (n_bins + e))
    np.fill_diagonal(a, e / (n_bins + e))
    return a


def closed_form(counts, eps):
    """A^{-1} f before clipping, f = counts / total."""
    f = counts / counts.sum()
    e = math.exp(eps)
    return ((counts.size - 1 + e) * f - f.sum()) / (e - 1.0)


class TestRrMatrix:
    """The channel: generalized_rr reports through it, reconstruct_pmf
    inverts it."""

    def test_binary_hand_values(self):
        # keep 3/4, flip 1/4 at eps = ln 3: each pure report inverts to a
        # point mass, an even split to itself
        eps = math.log(3.0)
        for counts, masses in (([75, 25], [1.0, 0.0]), ([25, 75], [0.0, 1.0]),
                               ([50, 50], [0.5, 0.5])):
            rec = reconstruct_pmf(np.array(counts), eps)
            np.testing.assert_allclose(rec.masses, masses, atol=1e-12)

    def test_eps_zero_is_refused(self):
        # eps = 0 would report every index alike, whatever the data
        d = make_domain(1.0, 4)
        with pytest.raises(ValueError, match="eps must be positive, got 0.0"):
            collect_perturbed_histogram(d, np.full(10, -1.0), 0.0, np.random.default_rng(35))

    def test_rows_sum_to_one(self):
        # A's rows sum to 1, so A^{-1}'s do: an unclipped inversion sums to
        # 1 and renormalizing leaves it unchanged
        rng = np.random.default_rng(36)
        for n_bins in (1, 4, 16):
            for eps in (0.5, 1.0, 4.0):
                counts = rng.integers(1000, 1100, n_bins + 1)
                raw = closed_form(counts, eps)
                assert raw.min() > 0.0 and raw.sum() == pytest.approx(1.0, abs=1e-12)
                np.testing.assert_allclose(reconstruct_pmf(counts, eps).masses, raw,
                                           rtol=1e-12)

    def test_diagonal_ratio_is_e_eps(self):
        # an index is reported as itself e^eps times as often as as any
        # one other index
        d = make_domain(1.0, 8)
        counts = collect_perturbed_histogram(d, np.full(1_000_000, -1.0), 1.3,
                                             np.random.default_rng(37))
        assert counts[0] / counts[1:].mean() == pytest.approx(math.exp(1.3), rel=0.01)

    def test_closed_form_inverse(self):
        # reconstruct applies A^{-1}; A^{-1} A must be the identity
        n_bins, eps = 6, 1.0
        a = rr_channel(n_bins, eps)
        eye = np.eye(n_bins + 1)
        for col in range(n_bins + 1):
            freq = a @ eye[col]
            counts = np.round(freq * 10**12).astype(np.int64)
            rec = reconstruct_pmf(counts, eps)
            np.testing.assert_allclose(rec.masses, eye[col], atol=1e-10)


class TestCollect:
    def test_binary_keep_rate(self):
        d = make_domain(1.0, 1)
        rng = np.random.default_rng(31)
        counts = collect_perturbed_histogram(
            d, np.full(1_000_000, -1.0), math.log(3.0), rng
        )
        assert counts[0] / counts.sum() == pytest.approx(0.75, abs=0.002)
        assert counts.dtype == np.int64

    def test_midpoint_splits_at_infinite_eps(self):
        # at eps = 700, the greatest budget, e^eps / (e^eps + N) rounds to
        # 1: every index is kept, as it would be at eps = inf, and only the
        # rounding of 0.25 between the edges 0 and 0.5 is left
        d = make_domain(1.0, 4)
        rng = np.random.default_rng(32)
        counts = collect_perturbed_histogram(
            d, np.full(1_000_000, 0.25), 700.0, rng
        )
        assert counts[2] / counts.sum() == pytest.approx(0.5, abs=0.002)
        assert counts[3] / counts.sum() == pytest.approx(0.5, abs=0.002)

    def test_empty_data(self):
        d = make_domain(1.0, 4)
        with pytest.raises(ValueError):
            collect_perturbed_histogram(d, [], 1.0, np.random.default_rng(0))

    @pytest.mark.parametrize("eps", [0.0, -1.0, 710.0, math.inf, math.nan])
    def test_refused_eps_draws_nothing(self, eps):
        rng = np.random.default_rng(33)
        before = rng.bit_generator.state
        with pytest.raises(ValueError, match="eps must be"):
            collect_perturbed_histogram(make_domain(1.0, 4), np.zeros(10), eps, rng)
        assert rng.bit_generator.state == before


class TestReconstruct:
    def test_noiseless_round_trip(self):
        n_bins, eps = 4, 1.0
        truth = np.array([0.1, 0.2, 0.4, 0.2, 0.1])
        freq = rr_channel(n_bins, eps) @ truth
        counts = np.round(freq * 10**9).astype(np.int64)
        rec = reconstruct_pmf(counts, eps)
        np.testing.assert_allclose(rec.masses, truth, atol=1e-8)

    def test_binary_hand_inversion(self):
        rec = reconstruct_pmf(np.array([75, 25]), math.log(3.0))
        np.testing.assert_allclose(rec.masses, [1.0, 0.0], atol=1e-12)

    def test_uniform_is_fixed_point(self):
        rec = reconstruct_pmf(np.array([25, 25, 25, 25]), 0.8)
        np.testing.assert_allclose(rec.masses, 0.25, atol=1e-12)

    def test_negative_entries_clipped_then_normalized(self):
        # all observed mass on one bin: inversion sends others negative
        rec = reconstruct_pmf(np.array([100, 0, 0, 0]), 1.0)
        assert np.all(rec.masses >= 0.0)
        assert rec.masses.sum() == pytest.approx(1.0)
        assert rec.masses[0] == pytest.approx(1.0)

    def test_size_mismatch(self):
        # the counts are one vector over the N+1 indices, not a matrix
        with pytest.raises(ValueError, match="1-D integer vector"):
            reconstruct_pmf(np.array([[50, 50], [25, 75]]), 1.0)

    @pytest.mark.parametrize(
        "eps", [0.0, -1.0, math.nan, 1e-300, 710.0, np.nextafter(700.0, math.inf)]
    )
    def test_eps_without_a_channel_inverse_refused(self, eps):
        # at eps = 0 the channel is uniform and e^eps - 1 = 0; below about
        # 2.2e-16 e^eps rounds to 1.  Neither divides by zero.  Above 700,
        # the greatest budget, e^eps is not computed.
        with pytest.raises(ValueError, match="eps"):
            reconstruct_pmf(np.array([30, 40, 30]), eps)

    def test_unbiased_before_clipping(self):
        # mean reconstruction over 200 trials within 3 SE per coordinate
        d = make_domain(1.0, 4)
        truth = np.array([0.1, 0.2, 0.4, 0.2, 0.1])
        edges_prob = truth
        rng = np.random.default_rng(33)
        recs = []
        n = 4000
        for _ in range(200):
            idx = rng.choice(5, size=n, p=edges_prob)
            data = d.edges[idx]
            counts = collect_perturbed_histogram(d, data, 2.0, rng)
            recs.append(reconstruct_pmf(counts, 2.0).masses)
        recs = np.asarray(recs)
        se = recs.std(axis=0, ddof=1) / math.sqrt(200)
        # clipping bias is tiny at this n; 3 SE plus a small allowance
        assert np.all(np.abs(recs.mean(axis=0) - truth) < 3.0 * se + 0.003)


class TestEndToEnd:
    def test_recovery_at_large_eps(self):
        d = make_domain(1.0, 16)
        truth = np.full(17, 1.0 / 17.0)
        rng = np.random.default_rng(34)
        idx = rng.choice(17, size=100_000, p=truth)
        data = d.edges[idx]
        counts = collect_perturbed_histogram(d, data, 4.0, rng)
        rec = reconstruct_pmf(counts, 4.0)
        assert np.max(np.abs(rec.masses - truth)) < 0.02


class TestHistogramValidation:
    """reconstruct_pmf takes a 1-D integer vector, all >= 0, with a
    positive total."""

    def test_counts_must_be_integers(self):
        with pytest.raises(ValueError, match="1-D integer vector"):
            reconstruct_pmf(np.array([0.3, 0.7]), 1.0)

    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError, match=">= 0"):
            reconstruct_pmf(np.array([-1, 9]), 1.0)

    def test_empty_histogram_rejected(self):
        # an empty histogram used to reconstruct to five NaN masses
        with pytest.raises(ValueError, match="positive total"):
            reconstruct_pmf(np.zeros(5, dtype=int), 1.0)
