"""Noise-table optimization, sampling, perturbation, and privacy checks."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ldpmean.adaptive import (
    NoiseShape,
    NoiseTable,
    adaptive_perturb,
    adaptive_perturb_array,
    build_lp,
    load_table,
    noise_mass,
    run_protocol,
    sample_noise,
    save_table,
    solve_noise_table,
    tail_first_moment,
    tail_second_moment,
    verify_composite_privacy,
    verify_privacy,
    _certified,
    _column_weights,
    _density_from_q,
    _dust,
    _first_half_width,
    _ratio_report,
    _restrict,
    _scatter,
    _slack,
    _slack_minimum,
)
from ldpmean import adaptive
from ldpmean import lp as lplib
from ldpmean.analysis import expected_variance, row_variances
from ldpmean.baselines import piecewise_conditional_variance
from ldpmean.data import BetaDistribution, ShiftedExponential, TruncatedGaussian, true_pmf
from ldpmean.domain import QuantizedPmf, make_domain, rounding_weights_array
from ldpmean.freqest import build_rr_matrix, collect_perturbed_histogram, reconstruct_pmf
from ldpmean.lp import solve as lp_solve

D2 = make_domain(1.0, 2)
SHAPE2 = NoiseShape(m=4, r=0.5)
SYM2 = QuantizedPmf(masses=np.array([0.25, 0.5, 0.25]))


def truncated_tail_sum(m, r, power, terms=10_000):
    g = np.arange(terms)
    return float(np.sum((m + g) ** power * r**g))


def row_mean(table, i):
    m, r = table.shape.m, table.shape.r
    js = np.arange(-m + 1, m)
    q = table.q[i]
    return float(q[1:-1] @ js + tail_first_moment(m, r) * (q[-1] - q[0]))


def geometric_reference_table(n_bins, m, rho):
    """Identical rows, two-sided geometric with per-step ratio rho.

    The full density at offset j is c*rho^|j| for every j, so the table is
    exactly eps'-private for eps' = n_bins * ln(1/rho) and no less.
    """
    d = make_domain(1.0, n_bins)
    c = (1.0 - rho) / (1.0 + rho)
    row = c * rho ** np.abs(np.arange(-m, m + 1, dtype=float))
    q = np.tile(row, (n_bins + 1, 1))
    eps_prime = n_bins * math.log(1.0 / rho)
    return NoiseTable(
        domain=d, shape=NoiseShape(m=m, r=rho), q=q, eps=eps_prime
    ), eps_prime


class TestTailMoments:
    def test_hand_values(self):
        assert tail_second_moment(1, 0.5) == pytest.approx(12.0)
        assert tail_second_moment(3, 0.5) == pytest.approx(36.0)
        assert tail_first_moment(1, 0.5) == pytest.approx(4.0)
        assert tail_first_moment(2, 0.5) == pytest.approx(6.0)

    def test_r_zero_single_term(self):
        assert tail_second_moment(7, 0.0) == 49.0
        assert tail_first_moment(7, 0.0) == 7.0

    @pytest.mark.parametrize("r", [0.1, 0.3, 0.5, 0.7, 0.9])
    def test_against_truncated_sums(self, r):
        for m in range(1, 65):
            t1 = truncated_tail_sum(m, r, 1)
            t2 = truncated_tail_sum(m, r, 2)
            assert tail_first_moment(m, r) == pytest.approx(t1, rel=1e-9)
            assert tail_second_moment(m, r) == pytest.approx(t2, rel=1e-9)

    def test_divergent_r_rejected(self):
        with pytest.raises(ValueError):
            tail_second_moment(3, 1.0)
        with pytest.raises(ValueError):
            tail_first_moment(3, 1.5)

    def test_invalid_m(self):
        with pytest.raises(ValueError):
            tail_second_moment(0, 0.5)


class TestNoiseShapeAndTable:
    def test_shape_validation(self):
        with pytest.raises(ValueError):
            NoiseShape(m=0, r=0.5)
        with pytest.raises(ValueError):
            NoiseShape(m=4, r=1.0)
        with pytest.raises(ValueError):
            NoiseShape(m=4, r=0.0)

    def test_table_shape_validation(self):
        with pytest.raises(ValueError):
            NoiseTable(domain=D2, shape=SHAPE2, q=np.zeros((3, 7)), eps=1.0)

    def test_table_negative_mass(self):
        q = np.zeros((3, 9))
        q[0, 4] = 1.0
        q[1, 4] = -0.5
        with pytest.raises(ValueError):
            NoiseTable(domain=D2, shape=SHAPE2, q=q, eps=1.0)


class TestNoiseMass:
    def test_tail_extrapolation(self):
        table, _ = geometric_reference_table(2, 4, 0.5)
        seed = table.q[0, -1]
        assert noise_mass(table, 0, 6) == pytest.approx(seed * 0.25)
        assert noise_mass(table, 0, 4) == seed

    def test_point_table_center(self):
        q = np.zeros((3, 9))
        q[:, 4] = 1.0
        table = NoiseTable(domain=D2, shape=SHAPE2, q=q, eps=math.inf)
        assert noise_mass(table, 1, 0) == 1.0
        assert noise_mass(table, 1, 3) == 0.0

    def test_total_mass_geometric_remainder(self):
        table, _ = geometric_reference_table(2, 4, 0.5)
        m, r = 4, 0.5
        total = sum(noise_mass(table, 0, j) for j in range(-10 * m, 10 * m + 1))
        assert abs(total - 1.0) < r ** (9 * m) / (1.0 - r)


def row_by_row_lp(pmf, eps, shape, domain):
    """Reference construction of the noise-design constraints, one dense row
    at a time, in build_lp's row order: (A_eq, A_ub)."""
    n, m, r = domain.n_bins, shape.m, shape.r
    width = 2 * m + 1
    nq = (n + 1) * width
    n_vars = nq + (n + 2 * m + 1 if math.isfinite(eps) else 0)
    t1 = tail_first_moment(m, r)

    def qi(i, j):
        return i * width + j + m

    eq = []
    for i in range(n + 1):
        norm, mean = np.zeros(n_vars), np.zeros(n_vars)
        for j in range(-m + 1, m):
            norm[qi(i, j)], mean[qi(i, j)] = 1.0, float(j)
        norm[qi(i, -m)] = norm[qi(i, m)] = 1.0 / (1.0 - r)
        mean[qi(i, -m)], mean[qi(i, m)] = -t1, t1
        eq += [norm, mean]
    ub = []
    for k in range(-m, n + m + 1) if math.isfinite(eps) else ():
        for i in range(n + 1):
            j = k - i
            if -m < j < m:
                var, coeff = qi(i, j), 1.0
            elif j >= m:
                var, coeff = qi(i, m), r ** (j - m)
            else:
                var, coeff = qi(i, -m), r ** (-m - j)
            lower, upper = np.zeros(n_vars), np.zeros(n_vars)
            lower[nq + k + m], lower[var] = 1.0, -coeff
            upper[var], upper[nq + k + m] = coeff / math.exp(eps), -1.0
            ub += [lower, upper]
    return np.array(eq), np.array(ub)


class TestBuildLp:
    @pytest.mark.parametrize("eps", [1.5, math.inf])
    def test_matches_row_by_row_reference(self, eps):
        d3 = make_domain(1.0, 3)
        pmf = QuantizedPmf(masses=np.array([0.1, 0.2, 0.3, 0.4]))
        shape = NoiseShape(m=5, r=0.3)
        prog = build_lp(pmf, eps, shape, d3)
        eq, ub = row_by_row_lp(pmf, eps, shape, d3)
        np.testing.assert_array_equal(prog.A_eq.toarray(), eq)
        np.testing.assert_array_equal(prog.b_eq, np.tile([1.0, 0.0], 4))
        if math.isfinite(eps):
            np.testing.assert_array_equal(prog.A_ub.toarray(), ub)
            np.testing.assert_array_equal(prog.b_ub, np.zeros(len(ub)))
        else:
            assert prog.A_ub is None

    def test_variable_count(self):
        d4 = make_domain(1.0, 4)
        pmf = QuantizedPmf(masses=np.full(5, 0.2))
        prog = build_lp(pmf, 1.0, NoiseShape(m=8, r=0.5), d4)
        assert prog.num_vars == 5 * 17 + (4 + 2 * 8 + 1)  # 85 q + 21 aux

    def test_infinite_eps_drops_privacy(self):
        prog = build_lp(SYM2, math.inf, SHAPE2, D2)
        assert prog.num_vars == 3 * 9  # no auxiliaries
        sol = lp_solve(prog)
        assert sol.status == "optimal"
        assert sol.objective_value == pytest.approx(0.0, abs=1e-12)
        q = sol.x.reshape(3, 9)
        np.testing.assert_allclose(q[:, 4], 1.0, atol=1e-9)

    def test_window_narrower_than_domain_rejected(self):
        d4 = make_domain(1.0, 4)
        pmf = QuantizedPmf(masses=np.full(5, 0.2))
        with pytest.raises(ValueError):
            build_lp(pmf, 1.0, NoiseShape(m=2, r=0.5), d4)

    def test_pmf_size_mismatch(self):
        with pytest.raises(ValueError):
            build_lp(QuantizedPmf(masses=np.array([0.5, 0.5])), 1.0, SHAPE2, D2)


class TestSolveNoiseTable:
    def test_invariants_hold(self):
        table = solve_noise_table(SYM2, 1.0, SHAPE2, D2)
        m, r = table.shape.m, table.shape.r
        q = table.q
        norm = q[:, 1:-1].sum(axis=1) + (q[:, 0] + q[:, -1]) / (1.0 - r)
        np.testing.assert_allclose(norm, 1.0, atol=1e-7)
        for i in range(3):
            assert abs(row_mean(table, i)) < 1e-7
        assert np.all(q >= 0.0)

    def test_mirror_objective_invariance(self):
        asym = QuantizedPmf(masses=np.array([0.7, 0.2, 0.1]))
        mirrored = QuantizedPmf(masses=np.array([0.1, 0.2, 0.7]))
        a = solve_noise_table(asym, 1.0, SHAPE2, D2)
        b = solve_noise_table(mirrored, 1.0, SHAPE2, D2)
        assert a.lp_objective == pytest.approx(b.lp_objective, abs=1e-7)

    def test_point_mass_beats_wide_baselines(self):
        # the grid cannot reproduce the off-grid two-point law, so the
        # comparison is against the piecewise closed form, not Duchi
        point = QuantizedPmf(masses=np.array([1.0, 0.0, 0.0]))
        table = solve_noise_table(point, 1.0, SHAPE2, D2)
        assert table.lp_objective <= piecewise_conditional_variance(-1.0, 1.0)
        assert table.lp_objective <= 8.0  # Laplace at eps=1

    def test_concentrated_eps4_beats_laplace(self):
        center = QuantizedPmf(masses=np.array([0.0, 1.0, 0.0]))
        table = solve_noise_table(center, 4.0, SHAPE2, D2)
        assert table.lp_objective < 8.0 / 16.0

    def test_narrow_window_infeasible_is_diagnosed(self):
        # the privacy tube cannot carry the mean swing at small eps
        with pytest.raises(RuntimeError, match="infeasible"):
            solve_noise_table(SYM2, 0.5, SHAPE2, D2)

    @pytest.mark.parametrize("m", [36, 40])
    def test_numerical_failure_recovered(self, m):
        # the whole program's coefficients span r^N / e^eps ~ 2e-12 to 80,
        # where HiGHS's default method can stop with model status Unknown;
        # the restricted program has no tail coefficients, and both must
        # reach the wide-window optimum
        d16 = make_domain(1.0, 16)
        pmf = true_pmf(TruncatedGaussian(mu=0.0, sd=0.1), d16)
        shape = NoiseShape(m=m, r=0.2)
        wide = solve_noise_table(pmf, 1.0, NoiseShape(m=64, r=0.2), d16)
        table = solve_noise_table(pmf, 1.0, shape, d16)
        whole = lp_solve(build_lp(pmf, 1.0, shape, d16))
        assert whole.status == "optimal"
        assert table.lp_objective == pytest.approx(wide.lp_objective, rel=1e-9)
        assert whole.objective_value == pytest.approx(wide.lp_objective, rel=1e-9)
        assert verify_privacy(table, 1.0).passed

    @pytest.mark.parametrize(
        "r, eps, m",
        [(0.05, 1.0, 29), (0.05, 2.0, 47), (0.1, 1.0, 29), (0.1, 2.0, 35), (0.1, 2.0, 41)],
    )
    def test_small_tail_ratios_solve(self, r, eps, m):
        # at HiGHS's default dual tolerance (1e-7) the whole programs end in
        # a numerical failure after the retry, or in a table with an empty
        # output column; M=29 at eps=1 is solved whole, the rest restricted
        d16 = make_domain(1.0, 16)
        pmf = true_pmf(TruncatedGaussian(mu=0.0, sd=0.1), d16)
        table = assert_matches_whole_program(pmf, eps, NoiseShape(m=m, r=r), d16)
        assert verify_privacy(table, eps).passed

    def test_whole_program_retried_with_interior_point(self):
        # r = 0.1 puts r^N / e^eps near 1e-17 beside O(1) entries; the
        # default method stops with model status Unknown on the whole
        # program, the interior-point retry solves it, and the restricted
        # solve never meets those coefficients
        d16 = make_domain(1.0, 16)
        pmf = true_pmf(TruncatedGaussian(mu=0.0, sd=0.1), d16)
        shape = NoiseShape(m=38, r=0.1)
        whole = lp_solve(build_lp(pmf, 2.0, shape, d16))
        assert whole.status == "optimal" and whole.method == "highs-ipm"
        assert "model_status is Unknown" in whole.message
        table = solve_noise_table(pmf, 2.0, shape, d16)
        assert table.lp_objective == pytest.approx(whole.objective_value, rel=1e-9)


def assert_matches_whole_program(pmf, eps, shape, domain):
    table = solve_noise_table(pmf, eps, shape, domain)
    whole = lp_solve(build_lp(pmf, eps, shape, domain))
    assert whole.status == "optimal"
    assert table.lp_objective == pytest.approx(whole.objective_value, rel=1e-9)
    return table


def certified(pmf, domain, sol, a, eps):
    return _certified(pmf.masses, domain.sigma, sol.eq_duals, sol.objective_value, a, eps)


def whole_point(z, n, m, a):
    """build_lp's variables (q, t) of R(A)'s point z = (s, t)."""
    ks = np.arange(-a, n + a + 1)
    t = np.zeros(n + 2 * m + 1)
    t[ks + m] = z[(n + 1) * ks.size :]
    return np.concatenate([_scatter(z, n, m, a).ravel(), t])


DESIGN_PMFS = {
    "gaussian": TruncatedGaussian(mu=0.0, sd=0.1),
    "uniform": BetaDistribution(a=1.0, b=1.0),
    "exponential": ShiftedExponential(rate=6.0),
}


class TestRestrictedSolve:
    """solve_noise_table solves over the outputs near the domain first and
    accepts that optimum only with a dual certificate; it must reach the
    whole program's optimum."""

    @pytest.mark.parametrize("eps", [0.5, 1.0, 2.0, 4.0, 8.0])
    @pytest.mark.parametrize("name", sorted(DESIGN_PMFS))
    def test_design_cells(self, name, eps):
        d16 = make_domain(1.0, 16)
        pmf = true_pmf(DESIGN_PMFS[name], d16)
        assert_matches_whole_program(pmf, eps, NoiseShape(m=64, r=0.5), d16)

    @pytest.mark.parametrize("eps", [0.5, 1.0, 2.0, 4.0])
    @pytest.mark.parametrize("n", [4, 8, 25])
    def test_domain_sizes(self, n, eps):
        domain = make_domain(1.0, n)
        pmf = true_pmf(TruncatedGaussian(mu=0.0, sd=0.1), domain)
        assert_matches_whole_program(pmf, eps, NoiseShape(m=4 * n, r=0.5), domain)

    @pytest.mark.parametrize("eps", [1.0, 2.0])
    def test_estimated_pmf_with_zero_cells(self, eps):
        d16 = make_domain(1.0, 16)
        rng = np.random.default_rng(3)
        xs = np.clip(rng.normal(0.0, 0.1, 2000), -1.0, 1.0)
        hist = collect_perturbed_histogram(d16, xs, eps, rng)
        pmf = reconstruct_pmf(hist, build_rr_matrix(16, eps))
        assert np.count_nonzero(pmf.masses == 0.0) >= 3
        assert_matches_whole_program(pmf, eps, NoiseShape(m=64, r=0.5), d16)

    def test_certificate_rejects_a_suboptimal_restriction(self):
        # outputs [-27, 43] are feasible at eps = 0.5 but too few for the
        # optimum, which reaches offsets +-33
        d16 = make_domain(1.0, 16)
        pmf = true_pmf(TruncatedGaussian(mu=0.0, sd=0.1), d16)
        whole = lp_solve(build_lp(pmf, 0.5, NoiseShape(m=64, r=0.5), d16))
        short = lp_solve(_restrict(pmf, d16.sigma, 27, 0.5))
        assert short.status == "optimal"
        assert short.objective_value > whole.objective_value + 0.1
        assert not certified(pmf, d16, short, 27, 0.5)
        wide = lp_solve(_restrict(pmf, d16.sigma, 40, 0.5))
        assert wide.objective_value == pytest.approx(whole.objective_value, rel=1e-9)
        assert certified(pmf, d16, wide, 40, 0.5)

    @pytest.mark.parametrize(
        "name, n, eps",
        [("gaussian", 16, 0.5), ("uniform", 16, 2.0), ("exponential", 16, 8.0), ("gaussian", 4, 1.0)],
    )
    def test_back_map_is_feasible_for_the_whole_program(self, name, n, eps):
        domain = make_domain(1.0, n)
        pmf = true_pmf(DESIGN_PMFS[name], domain)
        program = build_lp(pmf, eps, NoiseShape(m=4 * n, r=0.5), domain)
        a = _first_half_width(n, eps)
        sol = lp_solve(_restrict(pmf, domain.sigma, a, eps))
        assert sol.status == "optimal"
        x = whole_point(sol.x, n, 4 * n, a)
        np.testing.assert_allclose(program.A_eq @ x, program.b_eq, rtol=0.0, atol=1e-9)
        assert np.max(program.A_ub @ x) <= 1e-9
        assert program.objective @ x == pytest.approx(sol.objective_value, rel=1e-12)

    @pytest.mark.parametrize("eps", [0.7, 3.0])
    @pytest.mark.parametrize("n, a", [(4, 3), (3, 0)])
    def test_is_the_whole_program_composed_with_the_back_map(self, n, a, eps):
        # R(A) assembled directly has the objective and equality rows of
        # build_lp's program composed with x = T z
        domain = make_domain(1.0, n)
        pmf = QuantizedPmf(masses=np.arange(1.0, n + 2) / ((n + 1) * (n + 2) / 2))
        m = n + a + 2
        program = build_lp(pmf, eps, NoiseShape(m=m, r=0.5), domain)
        sub = _restrict(pmf, domain.sigma, a, eps)
        embed = np.column_stack([whole_point(z, n, m, a) for z in np.eye(sub.num_vars)])
        np.testing.assert_allclose(sub.objective, embed.T @ program.objective, rtol=1e-15)
        np.testing.assert_array_equal(sub.A_eq.toarray(), program.A_eq @ embed)
        np.testing.assert_array_equal(sub.b_eq, program.b_eq)

    @pytest.mark.parametrize("n, m, a", [(16, 64, 40), (4, 16, 3), (8, 32, 0)])
    def test_one_tube_row_per_kept_cell(self, n, m, a):
        domain = make_domain(1.0, n)
        pmf = QuantizedPmf(masses=np.full(n + 1, 1.0 / (n + 1)))
        sub = _restrict(pmf, domain.sigma, a, 1.0)
        cells = (n + 1) * (n + 2 * a + 1)
        assert sub.A_ub.shape[0] == cells
        assert np.all(np.diff(sub.A_ub.indptr) == 2)  # one s and its t_k
        assert sub.num_vars == cells + n + 2 * a + 1
        q = _scatter(np.ones(sub.num_vars), n, m, a)
        assert not q[:, [0, -1]].any()  # no tail column
        assert np.count_nonzero(q) == cells

    def test_tail_mass_solves_whole_program(self, monkeypatch):
        # at M=40, eps=0.5 the optimum needs mass beyond the window, which
        # no restricted program holds
        d16 = make_domain(1.0, 16)
        pmf = true_pmf(TruncatedGaussian(mu=0.0, sd=0.1), d16)
        shape = NoiseShape(m=40, r=0.5)
        sizes = []
        solve = lplib.solve
        monkeypatch.setattr(
            lplib, "solve", lambda program: sizes.append(program.num_vars) or solve(program)
        )
        table = assert_matches_whole_program(pmf, 0.5, shape, d16)
        assert sizes == [build_lp(pmf, 0.5, shape, d16).num_vars]
        assert np.max(table.q[:, [0, -1]]) > 0.1
        assert verify_privacy(table, 0.5).passed


def certified_solve(pmf, eps, domain):
    """R(A)'s optimum at the first A where it is certified, and that A."""
    a = _first_half_width(domain.n_bins, eps)
    while True:
        sol = lp_solve(_restrict(pmf, domain.sigma, a, eps))
        if sol.status == "optimal" and certified(pmf, domain, sol, a, eps):
            return sol, a
        a = math.ceil(1.5 * a)


def rr_pmf(n, eps, seed, sd, clients):
    """The randomized-response estimate of clipped N(0, sd) clients."""
    rng = np.random.default_rng(seed)
    xs = np.clip(rng.normal(0.0, sd, clients), -1.0, 1.0)
    hist = collect_perturbed_histogram(make_domain(1.0, n), xs, eps, rng)
    return reconstruct_pmf(hist, build_rr_matrix(n, eps))


CERTIFICATE_CASES = (
    [(name, 16, eps) for name in sorted(DESIGN_PMFS) for eps in (0.5, 1.0, 2.0, 4.0, 8.0)]
    + [("gaussian", n, eps) for n in (4, 8, 25) for eps in (0.5, 1.0, 2.0, 4.0)]
    + [("estimated", 16, eps) for eps in (1.0, 2.0, 8.0)]
)


class TestCertificate:
    """The all-integer certificate: its closed-form minimum is exact, it
    sees a violation at any distance, and it costs O(N^2) memory."""

    @pytest.mark.parametrize("name, n, eps", CERTIFICATE_CASES)
    def test_exact_minimum_matches_brute_force(self, name, n, eps):
        domain = make_domain(1.0, n)
        if name == "estimated":
            pmf = rr_pmf(n, eps, seed=3, sd=0.1, clients=2000)
            assert np.count_nonzero(pmf.masses == 0.0) >= 3
        else:
            pmf = true_pmf(DESIGN_PMFS[name], domain)
        sol, a = certified_solve(pmf, eps, domain)
        y = sol.eq_duals
        tol = 1e-9 * max(1.0, abs(sol.objective_value))
        k, s_min = _slack_minimum(pmf.masses, domain.sigma, y, a, eps)
        ks = np.arange(-20 * n, 21 * n + 1)
        ks = ks[(ks < -a) | (ks > n + a)]
        brute = _slack(pmf.masses, domain.sigma, y, ks, eps)
        assert -20 * n <= k <= 21 * n and not -a <= k <= n + a
        assert s_min == pytest.approx(brute.min(), rel=1e-12, abs=1e-15)
        assert min(s_min, brute.min()) >= -tol
        # the self-contained duality gap c.x - b.y, with b = (1, 0) per input
        assert abs(sol.objective_value - y[0::2].sum()) <= tol

    @pytest.mark.parametrize("name, n, eps", CERTIFICATE_CASES)
    def test_kept_outputs_within_the_dual_tolerance(self, name, n, eps):
        # _certified trusts s(k) >= 0 on the kept outputs to R(A)'s dual
        # feasibility, which HiGHS holds to 1e-10 in (t, s) coordinates;
        # the proven bound is b.y - max(tol, -min s(k)) over those k
        domain = make_domain(1.0, n)
        if name == "estimated":
            pmf = rr_pmf(n, eps, seed=3, sd=0.1, clients=2000)
        else:
            pmf = true_pmf(DESIGN_PMFS[name], domain)
        sol, a = certified_solve(pmf, eps, domain)
        kept = _slack(pmf.masses, domain.sigma, sol.eq_duals, np.arange(-a, n + a + 1), eps)
        scale = (n + 1) * math.exp(eps) * 1e-10 * max(1.0, abs(sol.objective_value))
        assert kept.min() >= -scale

    def test_rejects_a_dip_beyond_the_brute_force_range(self):
        # rho_0(k) = curv (k - k0)^2 - 5 is negative on k0 +- 10, and the
        # other rho_i(k - i) = curv (k - k0 - 10)^2 + e_ are positive; their
        # sum with weight e^eps on rho_0 is a convex quadratic between
        # k0 - 10 and k0 + 10 with its vertex at k0 + 40 / (e + 4) = k0 + 5.95,
        # set to dip below 0 at k0 + 6 only, 50 N past the domain
        n, k0, dip, eps = 4, 1000, 1e-6, 1.0
        domain = make_domain(1.0, n)
        masses = np.full(n + 1, 1.0 / (n + 1))
        curv = masses * domain.sigma**2
        center = np.full(n + 1, k0 + 10.0)
        center[0] = k0
        e_ = (math.e * (5.0 - curv[0] * 36.0) - n * curv[1] * 16.0 - dip) / n
        shift = np.full(n + 1, e_)
        shift[0] = -5.0
        lead = center - np.arange(n + 1)
        y = np.empty(2 * (n + 1))  # rho_i(j) = curv_i (j - lead_i)^2 + shift_i
        y[0::2] = -curv * lead**2 - shift
        y[1::2] = 2.0 * curv * lead
        ks = np.arange(-20 * n, 21 * n + 1)
        assert _slack(masses, domain.sigma, y, ks, eps).min() > 0.0
        assert _slack(masses, domain.sigma, y, [k0 + 5, k0 + 7], eps).min() > 0.0
        k, s_min = _slack_minimum(masses, domain.sigma, y, 4, eps)
        assert k == k0 + 6
        assert s_min == pytest.approx(-dip, rel=1e-3)
        assert not _certified(masses, domain.sigma, y, 1.0, 4, eps)

    def test_memory_at_large_eps(self):
        # a bound enumerated up to an analytic limit grows with e^eps
        d16 = make_domain(1.0, 16)
        pmf = true_pmf(TruncatedGaussian(mu=0.0, sd=0.1), d16)
        a = _first_half_width(16, 20.0)
        sol = lp_solve(_restrict(pmf, d16.sigma, a, 20.0))
        assert sol.status == "optimal"
        tracemalloc.start()
        try:
            ok = certified(pmf, d16, sol, a, 20.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert ok
        assert peak < 1 << 20


def test_design_cells_take_one_solve_each(monkeypatch):
    # one HiGHS solve of R(A) per table, and no whole program assembled;
    # uniform eps=2 rejects its first A
    solves, builds = [], []
    solve, build = lplib.solve, adaptive.build_lp
    monkeypatch.setattr(lplib, "solve", lambda program: solves.append(1) or solve(program))
    monkeypatch.setattr(adaptive, "build_lp", lambda *args: builds.append(1) or build(*args))
    d16 = make_domain(1.0, 16)
    counts = {}
    for name in sorted(DESIGN_PMFS):
        for eps in (0.5, 1.0, 2.0, 4.0, 8.0):
            before = len(solves)
            solve_noise_table(true_pmf(DESIGN_PMFS[name], d16), eps, NoiseShape(m=64, r=0.5), d16)
            counts[name, eps] = len(solves) - before
    assert sum(counts.values()) == 16
    assert [cell for cell, count in counts.items() if count != 1] == [("uniform", 2.0)]
    assert builds == []


@pytest.mark.xfail(
    strict=True,
    raises=RuntimeError,
    reason="the upper tube row s / expm1(eps) - t_k <= 0 meets HiGHS's 1e-7 primal "
    "tolerance only after division by expm1(eps), so s can stay positive at t_k = 0",
)
@pytest.mark.parametrize("n, eps", [(8, 12.0), (8, 16.0), (16, 12.0), (16, 16.0), (16, 20.0)])
def test_estimated_pmf_at_large_eps_is_private(n, eps):
    pmf = rr_pmf(n, eps, seed=5, sd=0.2, clients=1000)
    table = solve_noise_table(pmf, eps, NoiseShape(m=4 * n, r=0.5), make_domain(1.0, n))
    assert verify_privacy(table, eps).passed


@pytest.mark.xfail(
    strict=True,
    raises=RuntimeError,
    reason="the whole program's privacy rows hold only to HiGHS's 1e-7 primal "
    "tolerance, so a tail output beyond the window can be left empty under one input",
)
@pytest.mark.parametrize("name", ["gaussian", "uniform"])
def test_small_window_table_is_private(name):
    # M = N + 1 leaves no restricted program, so the whole program is
    # solved; the verdict fails at output k = -6, beyond the window
    d4 = make_domain(1.0, 4)
    pmf = true_pmf(DESIGN_PMFS[name], d4)
    table = solve_noise_table(pmf, 7.61, NoiseShape(m=5, r=0.114), d4)
    assert verify_privacy(table, 7.61).passed


@settings(max_examples=60, derandomize=True, deadline=None)
@given(
    n=st.integers(2, 12),
    eps=st.floats(0.5, 8.0),
    r=st.floats(0.1, 0.8),
    extra=st.integers(0, 16),
    seed=st.integers(0, 2**32 - 1),
)
def test_restricted_solve_matches_whole_program(n, eps, r, extra, seed):
    # windows wide enough that the restricted programs are tried first
    domain = make_domain(1.0, n)
    pmf = QuantizedPmf(masses=np.random.default_rng(seed).dirichlet(np.ones(n + 1)))
    shape = NoiseShape(m=n + _first_half_width(n, eps) + 2 + extra, r=r)
    table = solve_noise_table(pmf, eps, shape, domain)
    whole = lp_solve(build_lp(pmf, eps, shape, domain))
    assert whole.status == "optimal"
    gap = abs(table.lp_objective - whole.objective_value)
    assert gap <= 1e-9 * max(1.0, abs(whole.objective_value))


def disjoint_table():
    q = np.zeros((3, 9))
    q[:, 4] = 1.0
    return NoiseTable(domain=D2, shape=SHAPE2, q=q, eps=1.0)


class TestVerifyPrivacy:
    def test_solved_table_passes(self):
        table = solve_noise_table(SYM2, 1.0, SHAPE2, D2)
        report = verify_privacy(table, 1.0)
        assert report.passed
        assert report.max_ratio <= math.e * (1.0 + 1e-6)

    def test_geometric_reference_closed_form(self):
        table, eps_prime = geometric_reference_table(4, 8, 0.8)
        report = verify_privacy(table, eps_prime)
        assert report.passed
        assert report.max_ratio == pytest.approx(0.8**-4, rel=1e-9)
        tighter = verify_privacy(table, eps_prime * 0.9)
        assert not tighter.passed

    def test_disjoint_support_is_infinite(self):
        report = verify_privacy(disjoint_table(), 1.0)
        assert not report.passed
        assert report.max_ratio == math.inf
        assert report.worst_pair == (0, 0, 1)  # first such column

    def test_infinite_eps_always_passes(self):
        q = np.zeros((3, 9))
        q[:, 4] = 1.0
        table = NoiseTable(domain=D2, shape=SHAPE2, q=q, eps=math.inf)
        assert verify_privacy(table, math.inf).passed

    def test_composite_mixture_check(self):
        table = solve_noise_table(SYM2, 2.0, SHAPE2, D2)
        report = verify_composite_privacy(table, 2.0)
        assert report.passed
        assert report.max_ratio <= math.exp(2.0) * (1.0 + 1e-6)


def density_by_rows(q, n, m, r, ks):
    """Reference for _density_from_q, one input row at a time, with one
    scalar pow per tail cell."""
    d = np.zeros((n + 1, ks.size))
    for i in range(n + 1):
        j = ks - i
        window = np.abs(j) < m
        d[i, window] = q[i, j[window] + m]
        right = j >= m
        d[i, right] = q[i, 2 * m] * np.array([r ** int(p) for p in j[right] - m])
        left = j <= -m
        d[i, left] = q[i, 0] * np.array([r ** int(p) for p in -m - j[left]])
    return d


def ratio_report_by_columns(density, ks, eps, tol, labels=None):
    """Reference for _ratio_report, one output column at a time."""
    max_ratio = 0.0
    worst = None
    for col in range(ks.size):
        d = density[:, col]
        top = d.max()
        if top <= 0.0:
            continue
        bottom = d.min()
        ratio = math.inf if bottom <= 0.0 else top / bottom
        if ratio > max_ratio:
            max_ratio = ratio
            i_max, i_min = int(d.argmax()), int(d.argmin())
            if labels is not None:
                worst = (int(ks[col]), labels[i_max], labels[i_min])
            else:
                worst = (int(ks[col]), i_max, i_min)
    bound = math.exp(eps) * (1.0 + tol) if math.isfinite(eps) else math.inf
    passed = (not math.isfinite(eps)) or max_ratio <= bound
    return max_ratio, worst, bound, passed


class TestVectorizedVerification:
    """The array forms of the density and the ratio report reproduce the
    loop forms exactly."""

    @pytest.fixture(scope="class")
    def tables(self):
        d16 = make_domain(1.0, 16)
        gaussian = true_pmf(TruncatedGaussian(mu=0.0, sd=0.1), d16)
        return {
            "solved": solve_noise_table(gaussian, 1.0, NoiseShape(m=64, r=0.5), d16),
            "tail-loaded": solve_noise_table(gaussian, 0.5, NoiseShape(m=40, r=0.5), d16),
            "geometric": geometric_reference_table(4, 8, 0.8)[0],
            "disjoint": disjoint_table(),
            "empty": NoiseTable(domain=D2, shape=SHAPE2, q=np.zeros((3, 9)), eps=1.0),
        }

    @pytest.mark.parametrize("name", ["solved", "tail-loaded", "geometric", "disjoint", "empty"])
    def test_matches_loop_reference(self, tables, name):
        table = tables[name]
        n, m, r = table.domain.n_bins, table.shape.m, table.shape.r
        ks = np.arange(-m - 1, n + m + 2)
        density = _density_from_q(table.q, n, m, r, ks)
        np.testing.assert_array_equal(density, density_by_rows(table.q, n, m, r, ks))
        for eps in (table.eps, 0.5 * table.eps, math.inf):
            report = _ratio_report(density, ks, eps, 1e-6)
            expected = ratio_report_by_columns(density, ks, eps, 1e-6)
            assert (report.max_ratio, report.worst_pair, report.bound, report.passed) == expected

    def test_composite_report_matches_loop_reference(self, tables):
        table = tables["solved"]
        n, m = table.domain.n_bins, table.shape.m
        xs = np.linspace(-1.0, 1.0, 41)
        ks = np.arange(-m - 1, n + m + 2)
        idx, w_left = rounding_weights_array(table.domain, xs)
        weights = np.zeros((xs.size, n + 1))
        weights[np.arange(xs.size), idx] = w_left
        weights[np.arange(xs.size), np.minimum(idx + 1, n)] += 1.0 - w_left
        mixture = weights @ density_by_rows(table.q, n, m, table.shape.r, ks)
        report = verify_composite_privacy(table, 1.0, inputs=xs)
        expected = ratio_report_by_columns(mixture, ks, 1.0, 1e-6, labels=xs.tolist())
        assert (report.max_ratio, report.worst_pair, report.bound, report.passed) == expected


def test_verification_reads_the_lp_tail_coefficients(monkeypatch):
    # at N=4, M=6 the whole program is solved and every tail column holds
    # mass; verification must judge exactly the densities the LP
    # constrained, build_lp's coefficient times q, bit for bit
    n, m, eps = 4, 6, 1.0
    d4 = make_domain(1.0, n)
    pmf = true_pmf(TruncatedGaussian(mu=0.0, sd=0.1), d4)
    shape = NoiseShape(m=m, r=0.3)
    table = solve_noise_table(pmf, eps, shape, d4)
    seen = {}
    report = adaptive._ratio_report

    def spy(density, ks, *args):
        seen.update(density=density, ks=ks)
        return report(density, ks, *args)

    monkeypatch.setattr(adaptive, "_ratio_report", spy)
    assert verify_privacy(table, eps).passed
    a_ub = build_lp(pmf, eps, shape, d4).A_ub.toarray()
    checked = 0
    for col, k in enumerate(seen["ks"]):
        for i in range(n + 1):
            j = int(k) - i
            if abs(j) <= m or not -m <= k <= n + m:
                continue
            cell = int(np.clip(j, -m, m)) + m
            # row 2((k + M)(N + 1) + i) is t_k - coeff q[i, cell] <= 0
            coeff = -a_ub[2 * ((k + m) * (n + 1) + i), i * (2 * m + 1) + cell]
            assert seen["density"][i, col] == coeff * table.q[i, cell]
            checked += bool(table.q[i, cell] > 0.0)
    assert checked >= 10


class TestColumnWeights:
    """The LP, the row checks, the sampler and the variance read one
    statement of the window-plus-tails law, bit for bit."""

    N, M, R, EPS = 4, 6, 0.3, 1.0  # the whole program is solved, tails loaded

    @pytest.fixture(scope="class")
    def design(self):
        domain = make_domain(1.0, self.N)
        pmf = true_pmf(TruncatedGaussian(mu=0.0, sd=0.1), domain)
        shape = NoiseShape(m=self.M, r=self.R)
        table = solve_noise_table(pmf, self.EPS, shape, domain)
        assert np.min(table.q[:, [0, -1]].max(axis=1)) > 0.01
        return pmf, shape, domain, table

    def test_hand_values(self):
        norm, mean, cost = _column_weights(2, 0.5, 0.5)
        np.testing.assert_array_equal(norm, [2.0, 1.0, 1.0, 1.0, 2.0])
        t1, t2 = tail_first_moment(2, 0.5), tail_second_moment(2, 0.5)
        np.testing.assert_array_equal(mean, [-t1, -1.0, 0.0, 1.0, t1])
        np.testing.assert_array_equal(cost, [0.25 * t2, 0.25, 0.0, 0.25, 0.25 * t2])

    def test_lp_rows_and_objective(self, design):
        pmf, shape, domain, _ = design
        norm, mean, cost = _column_weights(self.M, self.R, domain.sigma)
        program = build_lp(pmf, self.EPS, shape, domain)
        a_eq = program.A_eq.toarray()
        width = 2 * self.M + 1
        for i in range(self.N + 1):
            block = slice(i * width, (i + 1) * width)
            np.testing.assert_array_equal(a_eq[2 * i, block], norm)
            np.testing.assert_array_equal(a_eq[2 * i + 1, block], mean)
            np.testing.assert_array_equal(program.objective[block], pmf.masses[i] * cost)

    def test_variance_reads_the_objective_coefficients(self, design):
        pmf, _, domain, table = design
        cost = _column_weights(self.M, self.R, domain.sigma)[2]
        np.testing.assert_array_equal(row_variances(table), table.q @ cost)
        assert expected_variance(table, pmf) == pytest.approx(table.lp_objective, rel=1e-9)

    def test_sampler_weights_rows_by_the_lp_norm(self, design, monkeypatch):
        _, _, domain, table = design
        norm = _column_weights(self.M, self.R, domain.sigma)[0]
        seen = []
        guide = adaptive._guide_table
        monkeypatch.setattr(adaptive, "_guide_table", lambda cdf: seen.append(cdf) or guide(cdf))
        for i in range(self.N + 1):
            sample_noise(table, i, np.random.default_rng(i), size=10)
            probs = table.q[i] * norm
            probs /= probs.sum()
            cdf = probs.cumsum()
            cdf /= cdf[-1]
            np.testing.assert_array_equal(seen[-1], cdf)


def dust_by_rows(q, n, m, r):
    """Reference for _dust: the cells the per-row loop zeroes."""
    ks = np.arange(-m, n + m + 1)
    safe = _density_from_q(q, n, m, r, ks).max(axis=0) <= adaptive._DUST
    dust = np.zeros(q.shape, dtype=bool)
    for i in range(n + 1):
        dust[i, 1:-1] = safe[i + 1 : i + 2 * m] & (q[i, 1:-1] <= adaptive._DUST)
        dust[i, -1] = q[i, -1] <= adaptive._DUST and safe[i + 2 * m :].all()
        dust[i, 0] = q[i, 0] <= adaptive._DUST and safe[: i + 1].all()
    return dust


def raw_solution(pmf, eps, shape, domain):
    """The solved window masses as solve_noise_table has them before the
    dust is cleared."""
    sol, q = adaptive._solve_restricted_first(pmf, eps, shape, domain)
    assert sol.status == "optimal"
    q[(q < 0.0) & (q >= -adaptive._NEG_TOL)] = 0.0
    return q


DUST_TABLES = (
    [(name, 16, 64, 0.5, eps) for name in sorted(DESIGN_PMFS) for eps in (0.5, 1.0, 2.0, 4.0, 8.0)]
    + [("gaussian", 4, 6, 0.3, 1.0), ("gaussian", 8, 22, 0.3, 0.5),
       ("gaussian", 8, 22, 0.7, 0.5), ("gaussian", 16, 40, 0.5, 0.5)]
)


class TestDust:
    """The dust mask zeroes exactly the cells of the per-row loop."""

    def test_solved_tables(self):
        changed = 0
        for name, n, m, r, eps in DUST_TABLES:
            domain = make_domain(1.0, n)
            q = raw_solution(true_pmf(DESIGN_PMFS[name], domain), eps, NoiseShape(m, r), domain)
            mask = _dust(q, n, m, r)
            np.testing.assert_array_equal(mask, dust_by_rows(q, n, m, r))
            changed += bool(np.any(q[mask] > 0.0))
        assert changed >= 1  # some table really carries dust

    def test_random_dusty_tables(self):
        rng = np.random.default_rng(11)
        levels = np.array([0.0, 1e-12, 5e-11, 1e-10, 2e-10, 1e-3, 0.1])
        ends = 0
        for _ in range(300):
            n = int(rng.integers(1, 7))
            m = n + int(rng.integers(0, 5))
            r = float(rng.uniform(0.05, 0.95))
            p = rng.dirichlet(np.ones(levels.size) * 0.3)
            q = rng.choice(levels, size=(n + 1, 2 * m + 1), p=p)
            mask = _dust(q, n, m, r)
            np.testing.assert_array_equal(mask, dust_by_rows(q, n, m, r))
            ends += bool(mask[:, [0, -1]].any() and (~mask[:, [0, -1]]).any())
        assert ends >= 30  # both outcomes at the end cells, often


class TestSampleNoise:
    def test_point_row_always_zero(self):
        q = np.zeros((3, 9))
        q[:, 4] = 1.0
        table = NoiseTable(domain=D2, shape=SHAPE2, q=q, eps=math.inf)
        rng = np.random.default_rng(50)
        draws = sample_noise(table, 0, rng, size=1000)
        assert np.all(draws == 0)

    def test_right_tail_geometric_law(self):
        m, r = 4, 0.5
        q = np.zeros((3, 9))
        q[:, -1] = 1.0 - r  # total right-tail mass (1-r)/(1-r) = 1
        table = NoiseTable(domain=D2, shape=NoiseShape(m=m, r=r), q=q, eps=math.inf)
        rng = np.random.default_rng(51)
        draws = sample_noise(table, 1, rng, size=1_000_000)
        assert np.all(draws >= m)
        for g in range(5):
            frac = np.mean(draws == m + g)
            expected = (1.0 - r) * r**g
            assert frac == pytest.approx(expected, abs=0.002), f"g={g}"

    def test_solved_row_mean_is_zero(self):
        table = solve_noise_table(SYM2, 1.0, SHAPE2, D2)
        rng = np.random.default_rng(52)
        draws = sample_noise(table, 1, rng, size=1_000_000)
        se = draws.std(ddof=1) / 1000.0
        assert abs(draws.mean()) < 4.0 * se

    def test_scalar_draw(self):
        table = solve_noise_table(SYM2, 1.0, SHAPE2, D2)
        rng = np.random.default_rng(53)
        assert isinstance(sample_noise(table, 0, rng), int)

    def test_bad_index(self):
        table = solve_noise_table(SYM2, 1.0, SHAPE2, D2)
        with pytest.raises(ValueError):
            sample_noise(table, 5, np.random.default_rng(0))


class TestPerturb:
    def test_edge_with_zero_noise_is_identity(self):
        q = np.zeros((3, 9))
        q[:, 4] = 1.0
        table = NoiseTable(domain=D2, shape=SHAPE2, q=q, eps=math.inf)
        rng = np.random.default_rng(54)
        assert adaptive_perturb(table, D2, 0.0, rng) == 0.0

    def test_midpoint_with_zero_noise_splits(self):
        q = np.zeros((3, 9))
        q[:, 4] = 1.0
        table = NoiseTable(domain=D2, shape=SHAPE2, q=q, eps=math.inf)
        rng = np.random.default_rng(55)
        draws = adaptive_perturb_array(table, D2, np.full(200_000, 0.5), rng)
        np.testing.assert_allclose(np.unique(draws), [0.0, 1.0], atol=1e-12)
        assert np.mean(draws == 0.0) == pytest.approx(0.5, abs=0.005)

    def test_analytic_unbiasedness(self):
        # E[y] = sum_i w_i(x) (x_i + sigma * row mean_i); row means vanish
        table = solve_noise_table(SYM2, 1.0, SHAPE2, D2)
        means = np.array([row_mean(table, i) for i in range(3)])
        for x in np.linspace(-1.0, 1.0, 21):
            from ldpmean.domain import rounding_weights

            i, w = rounding_weights(D2, float(x))
            expected = (
                w * (D2.edges[i] + D2.sigma * means[i])
                + (1.0 - w) * (D2.edges[min(i + 1, 2)] + D2.sigma * means[min(i + 1, 2)])
            )
            assert expected == pytest.approx(x, abs=1e-7)

    def test_monte_carlo_unbiasedness(self):
        table = solve_noise_table(SYM2, 1.0, SHAPE2, D2)
        rng = np.random.default_rng(56)
        x = 0.37
        draws = adaptive_perturb_array(table, D2, np.full(1_000_000, x), rng)
        se = draws.std(ddof=1) / 1000.0
        assert abs(draws.mean() - x) < 4.0 * se

    def test_out_of_domain(self):
        table = solve_noise_table(SYM2, 1.0, SHAPE2, D2)
        with pytest.raises(ValueError):
            adaptive_perturb(table, D2, 1.5, np.random.default_rng(0))

    def test_non_finite_rejected(self):
        q = np.zeros((3, 9))
        q[:, 4] = 1.0
        table = NoiseTable(domain=D2, shape=SHAPE2, q=q, eps=math.inf)
        with pytest.raises(ValueError, match="value nan outside"):
            adaptive_perturb_array(table, D2, [0.0, math.nan], np.random.default_rng(0))


class TestProtocol:
    def test_deterministic_under_seed(self):
        data = np.random.default_rng(57).uniform(-1.0, 1.0, 400)
        a = run_protocol(data, 1.0, 0.2, SHAPE2, D2, np.random.default_rng(58))
        b = run_protocol(data, 1.0, 0.2, SHAPE2, D2, np.random.default_rng(58))
        assert a.mean_estimate == b.mean_estimate
        np.testing.assert_array_equal(a.noise_table.q, b.noise_table.q)
        np.testing.assert_array_equal(a.phase1_pmf.masses, b.phase1_pmf.masses)
        assert a.phase1_count == b.phase1_count

    def test_counts_partition_data(self):
        data = np.random.default_rng(59).uniform(-1.0, 1.0, 500)
        res = run_protocol(data, 1.0, 0.2, SHAPE2, D2, np.random.default_rng(60))
        assert res.phase1_count + res.phase2_count == 500
        assert res.phase2_count >= 1

    def test_single_phase1_client_completes(self):
        data = np.random.default_rng(61).uniform(-1.0, 1.0, 50)
        mask = np.zeros(50, dtype=bool)
        mask[7] = True
        res = run_protocol(
            data, 1.0, 0.1, SHAPE2, D2, np.random.default_rng(62), split_mask=mask
        )
        assert res.phase1_count == 1
        assert res.phase2_count == 49

    def test_degenerate_split_rejected(self):
        data = np.zeros(10)
        mask = np.ones(10, dtype=bool)
        with pytest.raises(ValueError, match="degenerate"):
            run_protocol(
                data, 1.0, 0.5, SHAPE2, D2, np.random.default_rng(0), split_mask=mask
            )

    def test_accuracy_at_large_eps(self):
        rng = np.random.default_rng(63)
        data = np.clip(rng.normal(0.0, 0.3, 20_000), -1.0, 1.0)
        res = run_protocol(data, 8.0, 0.1, SHAPE2, D2, np.random.default_rng(64))
        # noise nearly vanishes; remaining error is the phase-2 sampling
        assert abs(res.mean_estimate - data.mean()) < 0.05


class TestSerialization:
    def test_round_trip_bit_exact(self, tmp_path):
        table = solve_noise_table(SYM2, 1.0, SHAPE2, D2)
        path = tmp_path / "table.txt"
        save_table(table, path)
        loaded = load_table(path)
        np.testing.assert_array_equal(loaded.q, table.q)
        assert loaded.domain.beta == table.domain.beta
        assert loaded.domain.n_bins == table.domain.n_bins
        assert loaded.shape.m == table.shape.m
        assert loaded.shape.r == table.shape.r
        assert loaded.eps == table.eps
        assert loaded.lp_objective is None

    def test_reloaded_table_still_verifies(self, tmp_path):
        table = solve_noise_table(SYM2, 2.0, SHAPE2, D2)
        path = tmp_path / "table.txt"
        save_table(table, path)
        assert verify_privacy(load_table(path), 2.0).passed

    def test_malformed_header(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("1.0 2 4\n")
        with pytest.raises(ValueError, match="header"):
            load_table(path)
