"""Variance metrics: expected conditional variance, the variance relative
error and its bound, pmf-averaged baseline closed forms, and the empirical
check that tables solved against a perturbed pmf keep their variance error
inside the bound."""

import math

import numpy as np
import pytest

from ldpmean import (
    NoiseShape,
    NoiseTable,
    QuantizedPmf,
    make_domain,
    solve_noise_table,
)
from ldpmean.analysis import (
    baseline_expected_variance,
    claim3_bound,
    expected_variance,
    squared_error,
    variance_relative_error,
)
from ldpmean.baselines import BASELINES

from conftest import EPS_GRID


def uniform_pmf(n_bins: int) -> QuantizedPmf:
    masses = np.full(n_bins + 1, 1.0 / (n_bins + 1))
    return QuantizedPmf(masses=masses)


class TestExpectedVariance:
    def test_zero_noise_table_has_zero_variance(self):
        domain = make_domain(beta=1.0, n_bins=4)
        shape = NoiseShape(m=4)
        q = np.zeros((5, 9))
        q[:, 4] = 1.0  # all mass on offset j = 0
        table = NoiseTable(domain=domain, shape=shape, q=q, eps=1.0)
        assert expected_variance(table, uniform_pmf(4)) == 0.0

    def test_symmetric_two_point_rows(self):
        # mass 1/2 on offsets -1 and +1, sigma = 0.5: variance (sigma*1)^2
        domain = make_domain(beta=1.0, n_bins=4)
        shape = NoiseShape(m=4)
        q = np.zeros((5, 9))
        q[:, 3] = 0.5
        q[:, 5] = 0.5
        table = NoiseTable(domain=domain, shape=shape, q=q, eps=1.0)
        assert expected_variance(table, uniform_pmf(4)) == pytest.approx(
            0.25, rel=1e-12
        )

    def test_edge_only_rows_stop_at_the_window(self):
        # rows put 1/2 on each end cell, offsets -+M, and nothing beyond,
        # so the variance is sigma^2 M^2 = 0.25 * 9 at M=3
        domain = make_domain(beta=1.0, n_bins=4)
        shape = NoiseShape(m=3)
        q = np.zeros((5, 7))
        q[:, 0] = 0.5
        q[:, -1] = 0.5
        table = NoiseTable(domain=domain, shape=shape, q=q, eps=1.0)
        assert expected_variance(table, uniform_pmf(4)) == pytest.approx(
            0.25 * 9.0, rel=1e-12
        )

    def test_row_weighting_follows_pmf(self):
        # distinct per-row variances weighted by an asymmetric pmf
        domain = make_domain(beta=1.0, n_bins=2)
        shape = NoiseShape(m=2)
        q = np.zeros((3, 5))
        q[0, 2] = 1.0  # zero variance row
        q[1, 1] = 0.5
        q[1, 3] = 0.5  # variance sigma^2 = 1.0
        q[2, 0] = 0.5
        q[2, 4] = 0.5  # the window edges: sigma^2 M^2 = 4.0
        table = NoiseTable(domain=domain, shape=shape, q=q, eps=1.0)
        pmf = QuantizedPmf(masses=[0.5, 0.3, 0.2])
        expected = 0.3 * 1.0 + 0.2 * 4.0
        assert expected_variance(table, pmf) == pytest.approx(expected, rel=1e-12)

    def test_matches_lp_objective_on_solved_tables(self, solved_tables, suite_pmfs):
        for (name, eps), table in solved_tables.items():
            recomputed = expected_variance(table, suite_pmfs[name])
            assert recomputed == pytest.approx(table.lp_objective, abs=1e-7), (
                name,
                eps,
            )

    def test_pmf_size_mismatch(self, solved_tables):
        table = solved_tables[("uniform", 1.0)]
        with pytest.raises(ValueError, match="size"):
            expected_variance(table, uniform_pmf(4))


class TestVarianceRelativeError:
    def test_hand_values(self):
        assert variance_relative_error(2.0, 1.0) == pytest.approx(0.5)
        assert variance_relative_error(1.0, 2.0) == pytest.approx(-1.0)
        assert variance_relative_error(3.0, 3.0) == 0.0

    def test_zero_estimate_rejected(self):
        with pytest.raises(ValueError, match="nonzero"):
            variance_relative_error(0.0, 1.0)


class TestClaim3Bound:
    def test_zero_error_pins_zero(self):
        assert claim3_bound(0.0) == (0.0, 0.0)

    def test_hand_values(self):
        lo, hi = claim3_bound(0.1)
        assert lo == pytest.approx(-1.0 / 11.0, rel=1e-12)
        assert hi == pytest.approx(1.0 / 9.0, rel=1e-12)
        lo, hi = claim3_bound(0.5)
        assert lo == pytest.approx(-1.0 / 3.0, rel=1e-12)
        assert hi == pytest.approx(1.0, rel=1e-12)

    def test_interval_is_asymmetric(self):
        # the positive side (realized variance above the advertised one)
        # has more room than the negative side
        lo, hi = claim3_bound(0.3)
        assert -lo < hi

    def test_psi_validation(self):
        with pytest.raises(ValueError, match="nonnegative"):
            claim3_bound(-0.1)
        with pytest.raises(ValueError, match="psi >= 1"):
            claim3_bound(1.0)
        with pytest.raises(ValueError, match="psi >= 1"):
            claim3_bound(2.0)


class TestBaselineExpectedVariance:
    def test_duchi_point_mass_at_center(self):
        # at x = 0 the closed form is ((e^eps+1)/(e^eps-1))^2 - 0 = 4 at ln 3
        pmf = QuantizedPmf(masses=[0.0, 0.0, 1.0, 0.0, 0.0])
        got = baseline_expected_variance("duchi", pmf, math.log(3.0), 1.0)
        assert got == pytest.approx(4.0, rel=1e-12)

    def test_duchi_uniform_average(self):
        # grid {-1, 0, 1} with weights (1/4, 1/2, 1/4): 4 - E[x^2] = 3.5
        pmf = QuantizedPmf(masses=[0.25, 0.5, 0.25])
        got = baseline_expected_variance("duchi", pmf, math.log(3.0), 1.0)
        assert got == pytest.approx(3.5, rel=1e-12)

    def test_piecewise_point_mass_at_center(self):
        # h = e^{eps/2} = 3: variance at x=0 is (h+3)/(3 (h-1)^2) = 0.5
        pmf = QuantizedPmf(masses=[0.0, 0.0, 1.0, 0.0, 0.0])
        got = baseline_expected_variance(
            "piecewise", pmf, 2.0 * math.log(3.0), 1.0
        )
        assert got == pytest.approx(0.5, rel=1e-12)

    def test_laplace_ignores_pmf(self):
        # 8 beta^2 / eps^2 = 2 at beta=1, eps=2, for any pmf
        for masses in ([1.0, 0.0, 0.0], [0.2, 0.3, 0.5]):
            got = baseline_expected_variance(
                "laplace", QuantizedPmf(masses=masses), 2.0, 1.0
            )
            assert got == pytest.approx(2.0, rel=1e-12)

    def test_hybrid_below_threshold_equals_duchi(self):
        pmf = QuantizedPmf(masses=[0.3, 0.4, 0.3])
        eps = 0.5
        assert baseline_expected_variance(
            "hybrid", pmf, eps, 1.0
        ) == pytest.approx(
            baseline_expected_variance("duchi", pmf, eps, 1.0), rel=1e-12
        )

    def test_hybrid_mixes_with_alpha(self):
        # eps = 2 ln 3: alpha = 1 - e^{-ln 3} = 2/3; at x=0 the mixture is
        # (2/3) * 0.5 + (1/3) * ((9+1)/(9-1))^2
        pmf = QuantizedPmf(masses=[0.0, 0.0, 1.0, 0.0, 0.0])
        eps = 2.0 * math.log(3.0)
        expected = (2.0 / 3.0) * 0.5 + (1.0 / 3.0) * (10.0 / 8.0) ** 2
        got = baseline_expected_variance("hybrid", pmf, eps, 1.0)
        assert got == pytest.approx(expected, rel=1e-12)

    def test_beta_scales_quadratically(self):
        pmf = QuantizedPmf(masses=[0.25, 0.5, 0.25])
        for mech in BASELINES:
            one = baseline_expected_variance(mech, pmf, 1.0, 1.0)
            three = baseline_expected_variance(mech, pmf, 1.0, 3.0)
            assert three == pytest.approx(9.0 * one, rel=1e-10), mech

    def test_unknown_mechanism(self):
        pmf = QuantizedPmf(masses=[0.5, 0.5])
        with pytest.raises(ValueError, match="unknown mechanism"):
            baseline_expected_variance("exponential", pmf, 1.0, 1.0)

    def test_eps_validation(self):
        pmf = QuantizedPmf(masses=[0.5, 0.5])
        with pytest.raises(ValueError):
            baseline_expected_variance("duchi", pmf, -1.0, 1.0)


class TestSquaredError:
    def test_hand_values(self):
        assert squared_error(3.0, 1.0) == 4.0
        assert squared_error(1.0, 3.0) == 4.0
        assert squared_error(2.5, 2.5) == 0.0


def perturbed_pmf(pmf: QuantizedPmf, psi: float, rng) -> QuantizedPmf:
    """A pmf whose per-bin relative deviation from `pmf` is exactly psi at
    its largest and whose masses still sum to one."""
    p = pmf.masses
    u = rng.uniform(-1.0, 1.0, p.size)
    u -= float(p @ u)  # center under p so the perturbed masses sum to 1
    u /= float(np.max(np.abs(u)))
    return QuantizedPmf(masses=p * (1.0 + psi * u))


class TestVarianceErrorBoundEmpirical:
    @pytest.mark.parametrize("psi", [0.05, 0.1, 0.2])
    def test_solved_tables_respect_bound(self, psi):
        # the table is solved against the perturbed pmf; its advertised
        # variance v_hat uses that pmf while the realized variance v
        # reweights the same per-row costs by the true pmf.  The interval
        # bounds (v - v_hat) / v_hat (how far the realized variance strays
        # from the advertised one) whenever every bin is off by at most psi.
        domain = make_domain(beta=1.0, n_bins=4)
        shape = NoiseShape(m=16)
        rng = np.random.default_rng(20240817)
        lo, hi = claim3_bound(psi)
        for trial in range(100):
            raw = rng.uniform(0.05, 1.0, 5)
            truth = QuantizedPmf(masses=raw / raw.sum())
            estimate = perturbed_pmf(truth, psi, rng)
            eps = EPS_GRID[trial % len(EPS_GRID)]
            table = solve_noise_table(estimate, eps, shape, domain)
            v_hat = expected_variance(table, estimate)
            v = expected_variance(table, truth)
            stray = (v - v_hat) / v_hat
            assert lo - 1e-9 <= stray <= hi + 1e-9, (trial, eps, stray)
            # the definitional relative error is the mirror image
            assert variance_relative_error(v_hat, v) == pytest.approx(
                -stray, rel=1e-12, abs=1e-15
            )
