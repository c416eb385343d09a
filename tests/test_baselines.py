"""Classical perturbation mechanisms against their closed forms."""

import math
import re

import numpy as np
import pytest

from ldpmean.baselines import (
    BASELINES,
    HYBRID_EPS_STAR,
    duchi_conditional_variance,
    duchi_perturb,
    generalized_rr,
    hybrid_alpha,
    hybrid_conditional_variance,
    hybrid_perturb,
    laplace_perturb,
    laplace_variance,
    piecewise_conditional_variance,
    piecewise_density,
    piecewise_params,
    piecewise_perturb,
    piecewise_window,
)

GRID_21 = np.linspace(-1.0, 1.0, 21)


def empirical_mean_ok(draws, target, n):
    se = draws.std(ddof=1) / math.sqrt(n)
    return abs(draws.mean() - target) < 4.0 * se


class TestLaplace:
    def test_variance_closed_form(self):
        assert laplace_variance(1.0, 2.0) == pytest.approx(2.0)
        assert laplace_variance(1.0, 1.0) == pytest.approx(8.0)
        assert laplace_variance(0.0, 1.0) == 0.0

    def test_empirical_variance(self):
        rng = np.random.default_rng(10)
        draws = laplace_perturb(np.zeros(1_000_000), 1.0, 2.0, rng)
        assert draws.var() == pytest.approx(2.0, rel=0.02)

    def test_unbiased(self):
        rng = np.random.default_rng(11)
        draws = laplace_perturb(np.full(1_000_000, 0.5), 1.0, 1.0, rng)
        assert empirical_mean_ok(draws, 0.5, 1_000_000)

    def test_domain_check(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            laplace_perturb(1.5, 1.0, 1.0, rng)

    def test_zero_draw_gives_finite_noise(self):
        # log1p(-2 * |0.0 - 0.5|) = log1p(-1) was -inf; the argument is
        # clamped at -(1 - 2^-53), so the noise is b * ln(2^-53) = -53 b ln 2
        xs = np.array([0.0, 0.25, -1.0])
        out = laplace_perturb(xs, 1.0, 1.0, ZeroUniforms())
        assert np.isfinite(out).all()
        np.testing.assert_allclose(out, xs - 2.0 * 53.0 * math.log(2.0), rtol=1e-15)
        assert laplace_perturb(0.5, 1.0, 4.0, ZeroUniforms()) == pytest.approx(
            0.5 - 0.5 * 53.0 * math.log(2.0), rel=1e-15
        )


class ZeroUniforms:
    """Stands in for a Generator whose every uniform draw is exactly 0.0."""

    def random(self, size=None, out=None):
        if out is None:
            return np.zeros(size)
        out[...] = 0.0
        return out


class TestDuchi:
    def test_support_and_keep_probability(self):
        # eps = ln 3: support +-2 beta, Pr[b=1 | x=beta] = 3/4
        eps = math.log(3.0)
        rng = np.random.default_rng(12)
        draws = duchi_perturb(np.full(200_000, 1.0), 1.0, eps, rng)
        support = np.unique(draws)
        np.testing.assert_allclose(support, [-2.0, 2.0], atol=1e-12)
        assert np.mean(draws > 0) == pytest.approx(0.75, abs=0.004)

    def test_x_zero_is_symmetric(self):
        rng = np.random.default_rng(13)
        draws = duchi_perturb(np.zeros(200_000), 1.0, 1.0, rng)
        assert np.mean(draws > 0) == pytest.approx(0.5, abs=0.005)

    def test_conditional_variance_hand_value(self):
        assert duchi_conditional_variance(0.0, 1.0, math.log(3.0)) == pytest.approx(4.0)

    def test_conditional_variance_minimum_at_edges(self):
        eps = 1.0
        c = ((math.e + 1.0) / (math.e - 1.0)) ** 2
        assert duchi_conditional_variance(1.0, 1.0, eps) == pytest.approx(c - 1.0)
        grid = duchi_conditional_variance(GRID_21, 1.0, eps)
        assert grid.min() == pytest.approx(c - 1.0)

    def test_unbiased(self):
        rng = np.random.default_rng(14)
        draws = duchi_perturb(np.full(1_000_000, 0.3), 1.0, 1.0, rng)
        assert empirical_mean_ok(draws, 0.3, 1_000_000)

    def test_exact_ldp_by_enumeration(self):
        # binary output: check both output probabilities across all input pairs
        for eps in (0.5, 1.0, 2.0):
            coeff = (math.exp(eps) - 1.0) / (2.0 * math.exp(eps) + 2.0)
            p_plus = coeff * GRID_21 + 0.5
            for probs in (p_plus, 1.0 - p_plus):
                ratio = probs.max() / probs.min()
                assert ratio <= math.exp(eps) * (1.0 + 1e-12)


class TestPiecewise:
    def test_params_hand_value(self):
        # eps = 2 ln 3: C = (3+1)/(3-1) = 2, p = (9-3)/(2*3+2) = 0.75
        c, p = piecewise_params(2.0 * math.log(3.0))
        assert c == pytest.approx(2.0)
        assert p == pytest.approx(0.75)

    def test_window_at_x_one(self):
        lo, hi = piecewise_window(1.0, 2.0 * math.log(3.0))
        assert lo == pytest.approx(1.0)
        assert hi == pytest.approx(2.0)

    def test_window_symmetric_at_zero(self):
        eps = 2.0 * math.log(3.0)
        lo, hi = piecewise_window(0.0, eps)
        assert lo == pytest.approx(-0.5)
        assert hi == pytest.approx(0.5)

    def test_density_integrates_to_one(self):
        eps = 2.0 * math.log(3.0)
        c, p = piecewise_params(eps)
        lo, hi = piecewise_window(1.0, eps)
        total = (hi - lo) * p + (2.0 * c - (hi - lo)) * p / math.exp(eps)
        assert total == pytest.approx(1.0)

    def test_density_ratio_is_exactly_e_eps(self):
        for eps in (0.5, 1.0, 2.0):
            c, p = piecewise_params(eps)
            lo, hi = piecewise_window(0.4, eps)
            inside = piecewise_density(0.5 * (lo + hi), 0.4, eps)
            outside = piecewise_density(
                0.5 * (hi + c) if hi < c else 0.5 * (lo - c), 0.4, eps
            )
            assert inside / outside == pytest.approx(math.exp(eps), rel=1e-12)

    @pytest.mark.parametrize("eps", [73.0, 74.0, 100.0, 700.0])
    def test_window_holds_its_input_at_large_eps(self, eps):
        # C - 1 falls below an ulp of x here; the window still holds x
        _, p = piecewise_params(eps)
        lo, hi = piecewise_window(0.9, eps)
        assert lo <= 0.9 <= hi
        assert piecewise_density([0.9], 0.9, eps)[0] == p

    def test_in_window_probability(self):
        # mass inside [l, r] is e^{eps/2}/(e^{eps/2}+1)
        eps = 1.0
        h = math.exp(eps / 2.0)
        rng = np.random.default_rng(15)
        draws = piecewise_perturb(np.full(500_000, 0.4), eps, rng)
        lo, hi = piecewise_window(0.4, eps)
        frac = np.mean((draws >= lo) & (draws <= hi))
        assert frac == pytest.approx(h / (h + 1.0), abs=0.003)

    def test_conditional_variance_hand_values(self):
        eps = 2.0 * math.log(3.0)
        assert piecewise_conditional_variance(0.0, eps) == pytest.approx(0.5)
        assert piecewise_conditional_variance(1.0, eps) == pytest.approx(1.0)

    def test_unbiased(self):
        rng = np.random.default_rng(16)
        draws = piecewise_perturb(np.full(1_000_000, 0.4), 1.0, rng)
        assert empirical_mean_ok(draws, 0.4, 1_000_000)

    def test_domain_check(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            piecewise_perturb(1.01, 1.0, rng)


class TestConditionalVarianceClosedForms:
    """Empirical Var(Y|X=x) vs the closed forms, 2% at 10^6 draws."""

    @pytest.mark.parametrize("eps", [0.5, 1.0, 2.0])
    def test_duchi(self, eps):
        rng = np.random.default_rng(17)
        for x in GRID_21:
            draws = duchi_perturb(np.full(1_000_000, x), 1.0, eps, rng)
            expected = duchi_conditional_variance(x, 1.0, eps)
            assert draws.var() == pytest.approx(expected, rel=0.02), f"x={x}"

    @pytest.mark.parametrize("eps", [0.5, 1.0, 2.0])
    def test_piecewise(self, eps):
        rng = np.random.default_rng(18)
        for x in GRID_21:
            draws = piecewise_perturb(np.full(1_000_000, x), eps, rng)
            expected = piecewise_conditional_variance(x, eps)
            assert draws.var() == pytest.approx(expected, rel=0.02), f"x={x}"


class TestHybrid:
    def test_alpha_rule(self):
        assert hybrid_alpha(0.5) == 0.0
        assert hybrid_alpha(2.0) == pytest.approx(1.0 - math.exp(-1.0))

    def test_threshold_constant(self):
        # the closed-form crossover, approximately 0.61
        assert HYBRID_EPS_STAR == pytest.approx(0.6093525, abs=1e-6)
        assert hybrid_alpha(HYBRID_EPS_STAR * 0.999) == 0.0
        assert hybrid_alpha(HYBRID_EPS_STAR * 1.001) > 0.0

    def test_below_threshold_matches_duchi(self):
        rng1 = np.random.default_rng(19)
        rng2 = np.random.default_rng(19)
        a = hybrid_perturb(np.full(1000, 0.3), 1.0, 0.5, rng1)
        support = np.unique(np.abs(a))
        b_support = 1.0 * (math.exp(0.5) + 1.0) / (math.exp(0.5) - 1.0)
        np.testing.assert_allclose(support, [b_support], atol=1e-12)
        del rng2

    def test_unbiased(self):
        rng = np.random.default_rng(20)
        draws = hybrid_perturb(np.full(1_000_000, 0.3), 1.0, 2.0, rng)
        assert empirical_mean_ok(draws, 0.3, 1_000_000)


class TestGeneralizedRr:
    def test_binary_keep_probability(self):
        rng = np.random.default_rng(21)
        out = generalized_rr(np.zeros(1_000_000, dtype=int), 2, math.log(3.0), rng)
        assert np.mean(out == 0) == pytest.approx(0.75, abs=0.002)

    @pytest.mark.parametrize("eps", [0.0, -1.0, math.nan, 710.0, np.nextafter(700.0, math.inf)])
    def test_eps_zero_is_refused(self, eps):
        # eps = 0 would be the uniform channel, which phase 1 cannot invert;
        # above 700, e^eps comes within a factor 1e4 of overflow
        eps = float(eps)
        message = "positive" if not eps > 0.0 else "at most 700.0"
        with pytest.raises(ValueError, match=re.escape(f"eps must be {message}, got {eps!r}")):
            generalized_rr(np.zeros(3, dtype=int), 5, eps, np.random.default_rng(23))

    def test_exact_ldp_by_enumeration(self):
        for eps in (0.5, 1.0, 2.0):
            for n_cat in (2, 5, 9):
                keep = math.exp(eps) / (math.exp(eps) + n_cat - 1)
                other = (1.0 - keep) / (n_cat - 1)
                # P(y|x) is keep if y == x else other; worst ratio is keep/other
                assert keep / other <= math.exp(eps) * (1.0 + 1e-12)
                assert keep / other == pytest.approx(math.exp(eps))

    def test_index_out_of_range(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            generalized_rr(5, 5, 1.0, rng)

    @pytest.mark.parametrize("eps", [1.0, 50.0])
    def test_fractional_index_rejected(self, eps):
        index = np.zeros(40_000)
        index[30_000] = 8.5  # past the first block
        for bad in (index, [8.5], 8.5):
            with pytest.raises(ValueError, match=r"index 8\.5 is not a whole number"):
                generalized_rr(bad, 9, eps, np.random.default_rng(0))

    def test_whole_float_indices_accepted(self):
        out = generalized_rr(np.full(1000, 8.0), 9, 1.0, np.random.default_rng(0))
        assert out.dtype == np.float64
        assert set(np.unique(out)) == set(np.arange(9.0))


class TestUnbiasednessGrid:
    """Every mechanism, 21-point grid, 10^6 draws, 4 standard errors."""

    @pytest.mark.parametrize(
        "name", ["laplace", "duchi", "piecewise", "hybrid"]
    )
    def test_grid(self, name):
        rng = np.random.default_rng(24)
        for x in GRID_21[::4]:
            xs = np.full(1_000_000, x)
            if name == "laplace":
                draws = laplace_perturb(xs, 1.0, 1.0, rng)
            elif name == "duchi":
                draws = duchi_perturb(xs, 1.0, 1.0, rng)
            elif name == "piecewise":
                draws = piecewise_perturb(xs, 1.0, rng)
            else:
                draws = hybrid_perturb(xs, 1.0, 1.0, rng)
            assert empirical_mean_ok(draws, x, 1_000_000), f"{name} at x={x}"


class TestBaselineTable:
    """BASELINES pairs each mechanism's sampler with its conditional
    variance, both on [-beta, beta]."""

    @pytest.mark.parametrize("name", ["duchi", "piecewise", "hybrid", "laplace"])
    def test_variance_matches_sampler(self, name):
        # beta = 2 exercises the scaling; eps = 3 mixes both hybrid branches
        perturb, variance = BASELINES[name]
        rng = np.random.default_rng(31)
        for x in (-1.5, 0.0, 2.0):
            draws = perturb(np.full(400_000, x), 2.0, 3.0, rng)
            expected = variance(np.array([x]), 2.0, 3.0)[0]
            assert np.mean((draws - x) ** 2) == pytest.approx(expected, rel=0.02), x


class TestNonFiniteInput:
    """NaN and infinities are rejected by name, not perturbed, wherever in
    the input they sit."""

    SAMPLERS = {
        "laplace": lambda x, rng: laplace_perturb(x, 1.0, 1.0, rng),
        "duchi": lambda x, rng: duchi_perturb(x, 1.0, 1.0, rng),
        "piecewise": lambda x, rng: piecewise_perturb(x, 1.0, rng),
        "hybrid": lambda x, rng: hybrid_perturb(x, 2.0, 1.0, rng),
    }

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("name", sorted(SAMPLERS))
    def test_rejected(self, name, bad):
        sampler = self.SAMPLERS[name]
        xs = np.zeros(40_000)
        xs[30_000] = bad  # past the first block
        for x in (xs, bad, [0.5, bad]):
            with pytest.raises(ValueError, match=re.escape(f"value {bad!r} outside")):
                sampler(x, np.random.default_rng(0))

    @pytest.mark.parametrize("eps", [1.0])
    def test_generalized_rr_rejects_nan_index(self, eps):
        index = np.zeros(40_000)
        index[30_000] = math.nan
        with pytest.raises(ValueError, match="index nan outside"):
            generalized_rr(index, 5, eps, np.random.default_rng(0))


class TestTinyEps:
    """An eps whose exp(eps) or exp(eps/2) rounds to 1.0 is named in a
    ValueError, where the closed forms would divide by zero; Laplace has
    no such denominator and still perturbs."""

    EPS = 1e-17

    @pytest.mark.parametrize(
        "call",
        [
            lambda eps: duchi_perturb(0.5, 1.0, eps, np.random.default_rng(0)),
            lambda eps: piecewise_perturb(0.5, eps, np.random.default_rng(0)),
            lambda eps: hybrid_perturb(0.5, 1.0, eps, np.random.default_rng(0)),
            lambda eps: duchi_conditional_variance(0.5, 1.0, eps),
            lambda eps: piecewise_conditional_variance(0.5, eps),
            piecewise_params,
        ],
        ids=["duchi", "piecewise", "hybrid", "duchi_variance", "piecewise_variance", "params"],
    )
    def test_rejected_by_name(self, call):
        with pytest.raises(ValueError, match=re.escape(f"eps = {self.EPS!r} is too small")):
            call(self.EPS)

    def test_laplace_still_perturbs(self):
        assert math.isfinite(laplace_perturb(0.5, 1.0, self.EPS, np.random.default_rng(0)))

    def test_smallest_eps_with_exp_above_one(self):
        # exp(2^-52 / 2) rounds to 1.0, exp(2^-51 / 2) does not
        assert math.exp(2.0**-53) == 1.0
        eps = 2.0**-51
        assert math.exp(eps / 2.0) > 1.0
        c, _ = piecewise_params(eps)
        assert math.isfinite(c) and c > 0.0
        assert math.isfinite(duchi_conditional_variance(0.5, 1.0, eps))


class TestGreatestEps:
    """At eps = 700, the greatest budget, every closed form is a finite
    float and the two-point reports still follow the input."""

    EPS = 700.0

    def test_closed_forms_are_finite(self):
        xs = np.array([-1.0, 0.0, 0.9, 1.0])
        values = [
            laplace_variance(1.0, self.EPS),
            *piecewise_params(self.EPS),
            hybrid_alpha(self.EPS),
            *duchi_conditional_variance(xs, 1.0, self.EPS),
            *piecewise_conditional_variance(xs, self.EPS),
            *hybrid_conditional_variance(xs, 1.0, self.EPS),
            *piecewise_density(xs, 0.9, self.EPS),
        ]
        assert all(math.isfinite(v) for v in values)
        # Duchi's support is +-beta (e + 1)/(e - 1), which rounds to beta
        assert duchi_conditional_variance(0.9, 1.0, self.EPS) == pytest.approx(0.19)

    @pytest.mark.parametrize("name", ["duchi", "hybrid"])
    def test_unbiased(self, name):
        # hybrid takes the piecewise branch alone here, whose window has
        # shrunk to the input: every report is 0.9, and the mean is off by
        # its rounding alone
        perturb, _ = BASELINES[name]
        draws = perturb(np.full(200_000, 0.9), 1.0, self.EPS, np.random.default_rng(41))
        se = draws.std(ddof=1) / math.sqrt(draws.size)
        assert abs(draws.mean() - 0.9) <= 6.0 * se + 4 * math.ulp(0.9)


def piecewise_cdf(y, x, eps):
    """Pr[Y <= y | x] of the piecewise mechanism, from its density:
    p inside the window [l, r], p / e^eps on the rest of [-C, C]."""
    c, p = piecewise_params(eps)
    left, right = piecewise_window(x, eps)
    low = p / math.exp(eps)
    return (
        low * (np.clip(y, -c, left) + c)
        + p * (np.clip(y, left, right) - left)
        + low * (np.clip(y, right, c) - right)
    )


def hybrid_cdf(y, x, eps, left_limit=False):
    """Pr[Y <= y | x] (Pr[Y < y] with left_limit) of the hybrid mechanism
    at beta = 1: the piecewise law at weight alpha, the two points
    +-(e + 1)/(e - 1) at 1 - alpha."""
    alpha = hybrid_alpha(eps)
    e = math.exp(eps)
    support = (e + 1.0) / (e - 1.0)
    p_pos = (e - 1.0) / (2.0 * e + 2.0) * x + 0.5
    below = np.less if left_limit else np.less_equal
    two_point = (1.0 - p_pos) * below(-support, y) + p_pos * below(support, y)
    return alpha * piecewise_cdf(y, x, eps) + (1.0 - alpha) * two_point


def ks_statistic(draws, cdf, cdf_left):
    """sup |F_n - F| over the sorted draws, with F's left limits at its
    atoms (ties included)."""
    y = np.sort(draws)
    n = y.size
    rank = np.arange(1, n + 1) / n
    return max(np.max(rank - cdf(y)), np.max(cdf_left(y) - (rank - 1.0 / n)))


class TestInverseCdfLaw:
    """The one-uniform samplers against the exact law: Kolmogorov-Smirnov
    at 2e5 draws per input.  sqrt(n) D exceeds 2.2 with probability about
    1e-4 under the law (Kolmogorov's limit); a window mass or segment
    length off by 1% moves D by several times the bound."""

    N = 200_000
    BOUND = 2.2 / math.sqrt(N)

    @pytest.mark.parametrize("x", [-1.0, -0.3, 0.0, 0.7, 1.0])
    @pytest.mark.parametrize("eps", [0.3, 1.0, 4.0])
    def test_piecewise(self, eps, x):
        rng = np.random.default_rng([31, int(10 * eps), int(10 * x) + 10])
        draws = piecewise_perturb(np.full(self.N, x), eps, rng)
        c, _ = piecewise_params(eps)
        assert np.abs(draws).max() <= c
        cdf = lambda y: piecewise_cdf(y, x, eps)
        assert ks_statistic(draws, cdf, cdf) <= self.BOUND

    @pytest.mark.parametrize("x", [-1.0, -0.3, 0.0, 0.7, 1.0])
    @pytest.mark.parametrize("eps", [0.3, 1.0, 4.0])
    def test_hybrid(self, eps, x):
        rng = np.random.default_rng([32, int(10 * eps), int(10 * x) + 10])
        draws = hybrid_perturb(np.full(self.N, x), 1.0, eps, rng)
        assert ks_statistic(
            draws,
            lambda y: hybrid_cdf(y, x, eps),
            lambda y: hybrid_cdf(y, x, eps, left_limit=True),
        ) <= self.BOUND

    def test_statistic_sees_a_shifted_window(self):
        # the check has power: the law at x = 0.1 is rejected for x = 0
        rng = np.random.default_rng(33)
        draws = piecewise_perturb(np.full(self.N, 0.1), 1.0, rng)
        cdf = lambda y: piecewise_cdf(y, 0.0, 1.0)
        assert ks_statistic(draws, cdf, cdf) > 3 * self.BOUND
