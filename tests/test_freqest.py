"""Randomized-response frequency estimation and matrix inversion."""

import math

import numpy as np
import pytest

from ldpmean.domain import QuantizedPmf, make_domain
from ldpmean.freqest import (
    PerturbedHistogram,
    build_rr_matrix,
    collect_perturbed_histogram,
    reconstruct_pmf,
    relative_error_bound,
)


class TestRrMatrix:
    def test_binary_hand_values(self):
        m = build_rr_matrix(1, math.log(3.0))
        np.testing.assert_allclose(
            m.as_array(), [[0.75, 0.25], [0.25, 0.75]], atol=1e-12
        )

    def test_infinite_eps_is_identity(self):
        m = build_rr_matrix(4, math.inf)
        np.testing.assert_array_equal(m.as_array(), np.eye(5))

    def test_eps_zero_is_uniform(self):
        m = build_rr_matrix(4, 0.0)
        np.testing.assert_allclose(m.as_array(), np.full((5, 5), 0.2), atol=1e-12)

    def test_rows_sum_to_one(self):
        for n_bins in (1, 4, 16):
            for eps in (0.5, 1.0, 4.0):
                m = build_rr_matrix(n_bins, eps).as_array()
                np.testing.assert_allclose(m.sum(axis=1), 1.0, atol=1e-12)

    def test_diagonal_ratio_is_e_eps(self):
        m = build_rr_matrix(8, 1.3)
        assert m.diagonal / m.off_diagonal == pytest.approx(math.exp(1.3))

    def test_closed_form_inverse(self):
        # reconstruct applies A^{-1}; A^{-1} A must be the identity
        n_bins, eps = 6, 1.0
        m = build_rr_matrix(n_bins, eps)
        a = m.as_array()
        eye = np.eye(n_bins + 1)
        for col in range(n_bins + 1):
            freq = a @ eye[col]
            counts = np.round(freq * 10**12).astype(np.int64)
            hist = PerturbedHistogram(counts=counts, total=int(counts.sum()))
            rec = reconstruct_pmf(hist, m)
            np.testing.assert_allclose(rec.masses, eye[col], atol=1e-10)


class TestCollect:
    def test_identity_at_infinite_eps(self):
        d = make_domain(1.0, 4)
        rng = np.random.default_rng(30)
        hist = collect_perturbed_histogram(d, np.zeros(1000), math.inf, rng)
        assert hist.counts[2] == 1000
        assert hist.total == 1000

    def test_binary_keep_rate(self):
        d = make_domain(1.0, 1)
        rng = np.random.default_rng(31)
        hist = collect_perturbed_histogram(
            d, np.full(1_000_000, -1.0), math.log(3.0), rng
        )
        assert hist.counts[0] / hist.total == pytest.approx(0.75, abs=0.002)

    def test_midpoint_splits_at_infinite_eps(self):
        d = make_domain(1.0, 4)
        rng = np.random.default_rng(32)
        hist = collect_perturbed_histogram(
            d, np.full(1_000_000, 0.25), math.inf, rng
        )
        assert hist.counts[2] / hist.total == pytest.approx(0.5, abs=0.002)
        assert hist.counts[3] / hist.total == pytest.approx(0.5, abs=0.002)

    def test_empty_data(self):
        d = make_domain(1.0, 4)
        with pytest.raises(ValueError):
            collect_perturbed_histogram(d, [], 1.0, np.random.default_rng(0))


class TestReconstruct:
    def test_noiseless_round_trip(self):
        n_bins, eps = 4, 1.0
        m = build_rr_matrix(n_bins, eps)
        truth = np.array([0.1, 0.2, 0.4, 0.2, 0.1])
        freq = m.as_array() @ truth
        counts = np.round(freq * 10**9).astype(np.int64)
        hist = PerturbedHistogram(counts=counts, total=int(counts.sum()))
        rec = reconstruct_pmf(hist, m)
        np.testing.assert_allclose(rec.masses, truth, atol=1e-8)

    def test_binary_hand_inversion(self):
        m = build_rr_matrix(1, math.log(3.0))
        hist = PerturbedHistogram(counts=np.array([75, 25]), total=100)
        rec = reconstruct_pmf(hist, m)
        np.testing.assert_allclose(rec.masses, [1.0, 0.0], atol=1e-12)

    def test_uniform_is_fixed_point(self):
        m = build_rr_matrix(3, 0.8)
        hist = PerturbedHistogram(counts=np.array([25, 25, 25, 25]), total=100)
        rec = reconstruct_pmf(hist, m)
        np.testing.assert_allclose(rec.masses, 0.25, atol=1e-12)

    def test_negative_entries_clipped_then_normalized(self):
        # all observed mass on one bin: inversion sends others negative
        m = build_rr_matrix(3, 1.0)
        hist = PerturbedHistogram(counts=np.array([100, 0, 0, 0]), total=100)
        rec = reconstruct_pmf(hist, m)
        assert np.all(rec.masses >= 0.0)
        assert rec.masses.sum() == pytest.approx(1.0)
        assert rec.masses[0] == pytest.approx(1.0)

    def test_size_mismatch(self):
        m = build_rr_matrix(3, 1.0)
        hist = PerturbedHistogram(counts=np.array([50, 50]), total=100)
        with pytest.raises(ValueError):
            reconstruct_pmf(hist, m)

    def test_unbiased_before_clipping(self):
        # mean reconstruction over 200 trials within 3 SE per coordinate
        d = make_domain(1.0, 4)
        truth = np.array([0.1, 0.2, 0.4, 0.2, 0.1])
        edges_prob = truth
        m = build_rr_matrix(4, 2.0)
        rng = np.random.default_rng(33)
        recs = []
        n = 4000
        for _ in range(200):
            idx = rng.choice(5, size=n, p=edges_prob)
            data = d.edges[idx]
            hist = collect_perturbed_histogram(d, data, 2.0, rng)
            recs.append(reconstruct_pmf(hist, m).masses)
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
        hist = collect_perturbed_histogram(d, data, 4.0, rng)
        rec = reconstruct_pmf(hist, build_rr_matrix(16, 4.0))
        assert np.max(np.abs(rec.masses - truth)) < 0.02


class TestRelativeErrorBound:
    def test_identical(self):
        p = QuantizedPmf(masses=np.array([0.5, 0.5]))
        assert relative_error_bound(p, p) == 0.0

    def test_hand_value(self):
        p = QuantizedPmf(masses=np.array([0.5, 0.5]))
        q = QuantizedPmf(masses=np.array([0.55, 0.45]))
        assert relative_error_bound(p, q) == pytest.approx(0.1)

    def test_zero_mass_index_excluded(self):
        p = QuantizedPmf(masses=np.array([1.0, 0.0]))
        q = QuantizedPmf(masses=np.array([0.9, 0.1]))
        assert relative_error_bound(p, q) == pytest.approx(0.1)

    def test_size_mismatch(self):
        p = QuantizedPmf(masses=np.array([1.0, 0.0]))
        q = QuantizedPmf(masses=np.array([0.5, 0.25, 0.25]))
        with pytest.raises(ValueError):
            relative_error_bound(p, q)


class TestHistogramValidation:
    def test_counts_must_sum_to_total(self):
        with pytest.raises(ValueError):
            PerturbedHistogram(counts=np.array([3, 4]), total=8)

    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError):
            PerturbedHistogram(counts=np.array([-1, 9]), total=8)

    def test_empty_histogram_rejected(self):
        # an empty histogram used to reconstruct to five NaN masses
        with pytest.raises(ValueError, match="total must be >= 1"):
            PerturbedHistogram(counts=np.zeros(5, dtype=int), total=0)
