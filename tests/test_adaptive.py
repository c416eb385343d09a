"""Noise-table optimization, sampling, perturbation, and privacy checks."""

import io
import json
import math
import re
import tracemalloc
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import edge_offsets, row_guides_by_rows, solved_apart, span, suite_pmf_shapes
from lp_oracle import EQUAL, LESS_EQUAL, csr, rows_of
from ldpmean.adaptive import (
    NoiseShape,
    NoiseTable,
    adaptive_perturb_array,
    build_lp,
    load_table,
    run_protocol,
    save_table,
    solve_noise_table,
    verify_privacy,
    _certified,
    _density_from_q,
    _first_half_width,
    _first_outputs,
    _left_out,
    _min_half_width,
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
from ldpmean.freqest import collect_perturbed_histogram, reconstruct_pmf
from ldpmean.lp import solve as lp_solve

D2 = make_domain(1.0, 2)
SHAPE2 = NoiseShape(m=4)
SYM2 = QuantizedPmf(masses=np.array([0.25, 0.5, 0.25]))


def row_mean(table, i):
    m = table.shape.m
    return float(table.q[i] @ np.arange(-m, m + 1))


def offset_masses(table, i, js):
    """Masses of the noise offsets js under edge i: the densities of the
    outputs i + js under input i, 0 beyond the window."""
    n, m = table.domain.n_bins, table.shape.m
    return _density_from_q(table.q, n, m, i + np.asarray(js))[i]


def geometric_reference_table(n_bins, m, rho):
    """Rows c rho^|j| on the outputs k = i + j that every row reaches,
    k in [N - M, M], and 0 elsewhere (the rows are not normalized).

    At any output two rows differ by the factor rho^(|k - i| - |k - i'|),
    at most rho^-N (at k <= 0 or k >= N), so the table is exactly
    eps'-private for eps' = N ln(1/rho) and no less.
    """
    d = make_domain(1.0, n_bins)
    j = np.arange(-m, m + 1)
    k = np.arange(n_bins + 1)[:, None] + j
    reached = (k >= n_bins - m) & (k <= m)
    q = np.where(reached, (1.0 - rho) / (1.0 + rho) * rho ** np.abs(j.astype(float)), 0.0)
    eps_prime = n_bins * math.log(1.0 / rho)
    return NoiseTable(domain=d, shape=NoiseShape(m=m), q=q, eps=eps_prime), eps_prime


class TestNoiseShapeAndTable:
    def test_shape_validation(self):
        with pytest.raises(ValueError):
            NoiseShape(m=0)
        # r is kept for callers that still pass it; nothing reads it
        assert NoiseShape(m=4, r=0.5).r == 0.5 and NoiseShape(m=4).r == 0.0

    def test_table_shape_validation(self):
        with pytest.raises(ValueError):
            NoiseTable(domain=D2, shape=SHAPE2, q=np.zeros((3, 7)), eps=1.0)

    def test_table_negative_mass(self):
        q = np.zeros((3, 9))
        q[0, 4] = 1.0
        q[1, 4] = -0.5
        with pytest.raises(ValueError):
            NoiseTable(domain=D2, shape=SHAPE2, q=q, eps=1.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -1e-300])
    def test_table_mass_must_be_finite_and_non_negative(self, bad):
        q = np.zeros((3, 9))
        q[:, 4] = 1.0
        q[1, 2] = bad
        with pytest.raises(ValueError, match="finite and >= 0"):
            NoiseTable(domain=D2, shape=SHAPE2, q=q, eps=1.0)

    def test_negative_zero_is_zero(self):
        table, eps = geometric_reference_table(2, 4, 0.5)
        q = np.where(table.q == 0.0, -0.0, table.q)
        assert np.signbit(q).any()
        signed = NoiseTable(domain=table.domain, shape=table.shape, q=q, eps=eps)
        assert verify_privacy(signed, eps) == verify_privacy(table, eps)


def point_table(eps=1.0):
    """The N=2, M=4 table of no noise, labelled with budget eps."""
    q = np.zeros((3, 9))
    q[:, 4] = 1.0
    return NoiseTable(domain=D2, shape=SHAPE2, q=q, eps=eps)


@pytest.mark.parametrize(
    "call",
    [
        point_table,
        lambda eps: verify_privacy(point_table(), eps),
        lambda eps: build_lp(SYM2, span(2, 2), eps),
        lambda eps: solve_noise_table(SYM2, eps, SHAPE2, D2),
        lambda eps: reconstruct_pmf(np.array([3, 4, 3]), eps),
        lambda eps: run_protocol(np.zeros(10), eps, 0.5, SHAPE2, D2, np.random.default_rng(0)),
    ],
    ids=["NoiseTable", "verify_privacy", "build_lp", "solve_noise_table", "reconstruct_pmf",
         "run_protocol"],
)
def test_eps_above_the_greatest_is_refused(call):
    # from about 709.8 e^eps overflows, and from 709.09 2 e^eps + 2 does
    with pytest.raises(ValueError, match=re.escape("eps must be at most 700.0, got 710.0")):
        call(710.0)


class TestNoiseMass:
    def test_tail_extrapolation(self):
        # nothing beyond the window: the tail past +-M is empty
        table, _ = geometric_reference_table(2, 4, 0.5)
        masses = offset_masses(table, 0, [4, 5, -40])
        assert masses[0] == table.q[0, -1] > 0.0
        assert masses[1] == masses[2] == 0.0

    def test_point_table_center(self):
        table = point_table()
        assert offset_masses(table, 1, [0, 3]).tolist() == [1.0, 0.0]

    def test_total_mass_geometric_remainder(self):
        # the geometric rows leave no remainder past the window: a row's
        # total mass over the whole line is its window mass
        table, _ = geometric_reference_table(2, 4, 0.5)
        for i in range(3):
            masses = offset_masses(table, i, range(-40, 41))
            assert masses.sum() == pytest.approx(table.q[i].sum(), rel=1e-15)


def row_by_row_lp(pmf, ks, eps):
    """Reference construction of the program over the outputs ks, one dense
    row at a time, in build_lp's row and column order: (objective, A_eq,
    A_ub).  Cell (i, k) holds q = t_k + s_ik; its column s_ik comes
    input-major, then the t_k."""
    n = len(pmf) - 1
    cells = (n + 1) * len(ks)
    n_vars = cells + len(ks)
    objective = np.zeros(n_vars)
    eq, ub = [], []
    for i in range(n + 1):
        norm, mean = np.zeros(n_vars), np.zeros(n_vars)
        for c, k in enumerate(ks):
            s, t, j = i * len(ks) + c, cells + c, k - i
            objective[s] = pmf.masses[i] * j**2
            norm[s] = norm[t] = 1.0
            mean[s] = mean[t] = float(j)
            upper = np.zeros(n_vars)
            upper[s], upper[t] = 1.0 / math.expm1(eps), -1.0
            ub.append(upper)
        eq += [norm, mean]
    for c in range(len(ks)):
        objective[cells + c] = sum(objective[i * len(ks) + c] for i in range(n + 1))
    return objective, np.array(eq), np.array(ub)


class TestBuildLp:
    @pytest.mark.parametrize("eps", [1.5, 700.0])
    def test_matches_row_by_row_reference(self, eps):
        # at eps = 700 the upper rows' s coefficient 1 / expm1(eps) is
        # about 1e-304, still a normal float
        pmf = QuantizedPmf(masses=np.array([0.1, 0.2, 0.3, 0.4]))
        prog = build_lp(pmf, span(3, 2), eps)
        objective, eq, ub = row_by_row_lp(pmf, span(3, 2), eps)
        np.testing.assert_allclose(prog.objective, objective, rtol=1e-15, atol=0.0)
        (a_eq, b_eq), (a_ub, b_ub) = rows_of(prog, EQUAL), rows_of(prog, LESS_EQUAL)
        np.testing.assert_array_equal(a_eq.toarray(), eq)
        np.testing.assert_array_equal(b_eq, np.tile([1.0, 0.0], 4))
        np.testing.assert_array_equal(a_ub.toarray(), ub)
        np.testing.assert_array_equal(b_ub, np.zeros(len(ub)))

    @pytest.mark.parametrize("ks", [[-5, -2, 0, 1, 3, 7], [2], [-1, 4]])
    def test_outputs_with_gaps_match_row_by_row_reference(self, ks):
        pmf = QuantizedPmf(masses=np.array([0.1, 0.2, 0.3, 0.4]))
        prog = build_lp(pmf, np.array(ks), 2.0)
        objective, eq, ub = row_by_row_lp(pmf, ks, 2.0)
        np.testing.assert_allclose(prog.objective, objective, rtol=1e-15, atol=0.0)
        np.testing.assert_array_equal(rows_of(prog, EQUAL)[0].toarray(), eq)
        np.testing.assert_array_equal(rows_of(prog, LESS_EQUAL)[0].toarray(), ub)

    @pytest.mark.parametrize("ks", [[], [0, 2, 1], [1, 1, 2], [[0, 1]]])
    def test_outputs_must_increase(self, ks):
        with pytest.raises(ValueError, match="increasing"):
            build_lp(SYM2, np.array(ks, dtype=int), 1.0)

    def test_variable_count(self):
        pmf = QuantizedPmf(masses=np.full(5, 0.2))
        prog = build_lp(pmf, span(4, 4), 1.0)
        assert prog.num_vars == 5 * 13 + 13  # 65 cells s + 13 outputs t

    # build_lp sizes its program from the pmf and the outputs alone; the window and the pmf are
    # checked where they meet the domain, in solve_noise_table

    def test_window_narrower_than_domain_rejected(self):
        d4 = make_domain(1.0, 4)
        pmf = QuantizedPmf(masses=np.full(5, 0.2))
        with pytest.raises(ValueError, match=r"m = 2 \(n_bins=4, eps=1.0\).* = 7$"):
            solve_noise_table(pmf, 1.0, NoiseShape(m=2), d4)

    def test_pmf_size_mismatch(self):
        with pytest.raises(ValueError, match="pmf size"):
            solve_noise_table(QuantizedPmf(masses=np.array([0.5, 0.5])), 1.0, SHAPE2, D2)


class TestSolveNoiseTable:
    def test_invariants_hold(self):
        table = solve_noise_table(SYM2, 1.0, SHAPE2, D2)
        np.testing.assert_allclose(table.q.sum(axis=1), 1.0, atol=1e-7)
        for i in range(3):
            assert abs(row_mean(table, i)) < 1e-7
        assert np.all(table.q >= 0.0)

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

    def test_narrow_window_infeasible_is_diagnosed(self, monkeypatch):
        # the privacy tube cannot carry the mean swing at small eps: rows 0
        # and N need N + 2A + 1 >= N coth(eps/2) + 1 outputs, A = M - N;
        # a narrower window is refused before any program is built
        solve_noise_table(SYM2, 0.5, NoiseShape(m=6), D2)
        monkeypatch.setattr(adaptive, "build_lp", None)
        with pytest.raises(ValueError, match=r"m = 4 \(n_bins=2, eps=0.5\).* = 6$"):
            solve_noise_table(SYM2, 0.5, SHAPE2, D2)

    @pytest.mark.parametrize("eps", [0.5, 2.0])
    @pytest.mark.parametrize("n", [2, 8, 16])
    def test_least_window_is_sharp(self, n, eps):
        # feasibility does not depend on the pmf: R(A) is infeasible one
        # output short of the bound and solves at it, and the least window
        # that solve_noise_table takes is the bound
        domain = make_domain(1.0, n)
        pmf = QuantizedPmf(masses=np.full(n + 1, 1.0 / (n + 1)))
        a_min = math.ceil(n * (1.0 / math.tanh(eps / 2.0) - 1.0) / 2.0)
        assert lp_solve(build_lp(pmf, span(n, a_min - 1), eps)).status == "infeasible"
        assert lp_solve(build_lp(pmf, span(n, a_min), eps)).status == "optimal"
        with pytest.raises(ValueError, match=f" = {n + a_min}$"):
            solve_noise_table(pmf, eps, NoiseShape(m=n + a_min - 1), domain)
        table = solve_noise_table(pmf, eps, NoiseShape(m=n + a_min), domain)
        assert verify_privacy(table, eps).passed

    @pytest.mark.parametrize("eps", [1e-310, 5e-324])
    def test_eps_too_small_for_any_window_is_refused(self, eps, monkeypatch):
        # N (coth(eps/2) - 1) / 2 overflows (or eps / 2 is 0): a ValueError
        # naming eps, not an OverflowError, and no program is built
        with pytest.raises(ValueError, match=f"^eps = {eps!r} is too small: "):
            _min_half_width(2, eps)
        monkeypatch.setattr(adaptive, "build_lp", None)
        with pytest.raises(ValueError, match=f"^eps = {eps!r} is too small: "):
            solve_noise_table(SYM2, eps, SHAPE2, D2)

    def test_model_error_raises_without_growing(self, monkeypatch):
        # a model HiGHS refuses says nothing of feasibility: no output is
        # priced or added
        calls = []
        refused = lp_solve(lplib.LinearProgram([1.0], A_ub=csr([[1e16]]), b_ub=[1.0]))
        monkeypatch.setattr(lplib, "solve", lambda program, start=None: calls.append(1) or refused)
        d16 = make_domain(1.0, 16)
        pmf = true_pmf(TruncatedGaussian(mu=0.0, sd=0.1), d16)
        with pytest.raises(RuntimeError, match="status=model-error"):
            solve_noise_table(pmf, 1.0, NoiseShape(m=64), d16)
        assert calls == [1]

    def test_growth_stops_at_the_window(self, monkeypatch):
        # uniform at eps = 2 in the window M = 22: outputs beyond the
        # window [N - M, M] = [-6, 22] would lower the cost (the optimum is
        # not certified), but generation adds none of them, and the table
        # is the window program's optimum, R(M - N) = R(6)
        d16 = make_domain(1.0, 16)
        pmf = true_pmf(BetaDistribution(a=1.0, b=1.0), d16)
        outputs = recording_builds(monkeypatch)
        table = assert_matches_whole_program(pmf, 2.0, NoiseShape(m=22), d16)
        assert len(outputs) >= 2 and all(ks[0] >= -6 and ks[-1] <= 22 for ks in outputs)
        ks, _, sol = adaptive._store[(16, 22, 2.0)]
        assert not certified(pmf, sol, ks, 2.0)
        assert verify_privacy(table, 2.0).passed

    @pytest.mark.parametrize("m", [36, 40])
    def test_window_holding_the_optimum_matches_a_wide_one(self, m):
        # the optimum at eps = 1 is certified within offsets +-33, so the
        # narrower window gives the same table
        d16 = make_domain(1.0, 16)
        pmf = true_pmf(TruncatedGaussian(mu=0.0, sd=0.1), d16)
        wide = solve_noise_table(pmf, 1.0, NoiseShape(m=64), d16)
        table = solve_noise_table(pmf, 1.0, NoiseShape(m=m), d16)
        np.testing.assert_array_equal(table.q, wide.q[:, 64 - m : 64 + m + 1])
        assert table.lp_objective == wide.lp_objective
        assert verify_privacy(table, 1.0).passed

    @pytest.mark.parametrize("eps, m", [(1.0, 29), (2.0, 35), (2.0, 41), (2.0, 47)])
    def test_narrow_windows_solve_their_window_program(self, eps, m):
        # at M = 29 and eps = 1 the window binds, and R(M - N)'s optimum is
        # the answer; the wider windows hold a certified optimum
        d16 = make_domain(1.0, 16)
        pmf = true_pmf(TruncatedGaussian(mu=0.0, sd=0.1), d16)
        table = assert_matches_whole_program(pmf, eps, NoiseShape(m=m), d16)
        assert verify_privacy(table, eps).passed


def assert_matches_whole_program(pmf, eps, shape, domain):
    """The table costs what the window's whole program, R(M - N), costs, to
    the certificate's tolerance 1e-9 max(1, |objective|)."""
    table = solve_noise_table(pmf, eps, shape, domain)
    n = domain.n_bins
    whole = lp_solve(build_lp(pmf, span(n, shape.m - n), eps))
    assert whole.status == "optimal"
    gap = abs(table.lp_objective / domain.sigma**2 - whole.objective_value)
    assert gap <= 1e-9 * max(1.0, abs(whole.objective_value))
    return table


def certified(pmf, sol, ks, eps):
    return _certified(pmf.masses, sol.eq_duals, sol.objective_value, ks, eps)


def whole_point(z, n, ks, wide):
    """The variables (s, t) over the outputs wide of the point z = (s, t)
    over the outputs ks, a subset of wide: the cells and outputs that ks
    leaves out hold 0."""
    at = np.searchsorted(wide, ks)
    cells = (n + 1) * wide.size
    x = np.zeros(cells + wide.size)
    x[:cells].reshape(n + 1, wide.size)[:, at] = z[: (n + 1) * ks.size].reshape(n + 1, ks.size)
    x[cells + at] = z[(n + 1) * ks.size :]
    return x


def recording_builds(monkeypatch):
    """Route adaptive.build_lp through a recorder; returns the list of the
    outputs S of each program it builds."""
    outputs = []
    build = adaptive.build_lp

    def record(pmf, ks, eps):
        outputs.append(np.asarray(ks))
        return build(pmf, ks, eps)

    monkeypatch.setattr(adaptive, "build_lp", record)
    return outputs


DESIGN_PMFS = {
    "gaussian": TruncatedGaussian(mu=0.0, sd=0.1),
    "uniform": BetaDistribution(a=1.0, b=1.0),
    "exponential": ShiftedExponential(rate=6.0),
}


class TestRestrictedSolve:
    """solve_noise_table solves over a few outputs first and adds those
    that its duals price below 0; it must reach the optimum of the
    window's whole program, R(M - N)."""

    @pytest.mark.parametrize("eps", [0.5, 1.0, 2.0, 4.0, 8.0])
    @pytest.mark.parametrize("name", sorted(DESIGN_PMFS))
    def test_design_cells(self, name, eps):
        d16 = make_domain(1.0, 16)
        pmf = true_pmf(DESIGN_PMFS[name], d16)
        assert_matches_whole_program(pmf, eps, NoiseShape(m=64), d16)

    @pytest.mark.parametrize("eps", [0.5, 1.0, 2.0, 4.0])
    @pytest.mark.parametrize("n", [4, 8, 25])
    def test_domain_sizes(self, n, eps):
        # the returned solve is certified, and its own duality gap
        # c.x - b.y, with b = (1, 0) per input, is within the certificate's
        # tolerance
        domain = make_domain(1.0, n)
        pmf = true_pmf(TruncatedGaussian(mu=0.0, sd=0.1), domain)
        table = solve_noise_table(pmf, eps, NoiseShape(m=4 * n), domain)
        ks, program, sol = adaptive._store[(n, 4 * n, eps)]
        assert certified(pmf, sol, ks, eps)
        tol = 1e-9 * max(1.0, abs(sol.objective_value))
        assert abs(program.objective @ sol.x - sol.eq_duals[0::2].sum()) <= tol
        assert table.lp_objective == domain.sigma**2 * sol.objective_value

    @pytest.mark.parametrize("eps", [1.0, 2.0])
    def test_estimated_pmf_with_zero_cells(self, eps):
        d16 = make_domain(1.0, 16)
        rng = np.random.default_rng(3)
        xs = np.clip(rng.normal(0.0, 0.1, 2000), -1.0, 1.0)
        pmf = reconstruct_pmf(collect_perturbed_histogram(d16, xs, eps, rng), eps)
        assert np.count_nonzero(pmf.masses == 0.0) >= 3
        assert_matches_whole_program(pmf, eps, NoiseShape(m=64), d16)

    def test_certificate_rejects_a_suboptimal_restriction(self):
        # outputs [-27, 43] are feasible at eps = 0.5 but too few for the
        # optimum, which reaches offsets +-33
        d16 = make_domain(1.0, 16)
        pmf = true_pmf(TruncatedGaussian(mu=0.0, sd=0.1), d16)
        whole = lp_solve(build_lp(pmf, span(16, 48), 0.5))
        short = lp_solve(build_lp(pmf, span(16, 27), 0.5))
        assert short.status == "optimal"
        assert short.objective_value > whole.objective_value + 0.1
        assert not certified(pmf, short, span(16, 27), 0.5)
        wide = lp_solve(build_lp(pmf, span(16, 40), 0.5))
        assert wide.objective_value == pytest.approx(whole.objective_value, rel=1e-9)
        assert certified(pmf, wide, span(16, 40), 0.5)

    @pytest.mark.parametrize(
        "name, n, eps",
        [("gaussian", 16, 0.5), ("uniform", 16, 2.0), ("exponential", 16, 8.0), ("gaussian", 4, 1.0)],
    )
    def test_back_map_is_feasible_for_the_whole_program(self, name, n, eps):
        # the optimum over the first outputs, extended by zeros, is a point
        # of the window program R(M - N) at M = 4N with the same cost; so
        # every round's optimum is a feasible start for the next
        domain = make_domain(1.0, n)
        pmf = true_pmf(DESIGN_PMFS[name], domain)
        program = build_lp(pmf, span(n, 3 * n), eps)
        ks = _first_outputs(n, 4 * n, eps)
        sol = lp_solve(build_lp(pmf, ks, eps))
        assert sol.status == "optimal"
        x = whole_point(sol.x, n, ks, span(n, 3 * n))
        a_eq, b_eq = rows_of(program, EQUAL)
        np.testing.assert_allclose(a_eq @ x, b_eq, rtol=0.0, atol=1e-9)
        assert np.max(rows_of(program, LESS_EQUAL)[0] @ x) <= 1e-9
        assert program.objective @ x == pytest.approx(sol.objective_value, rel=1e-12)

    @pytest.mark.parametrize("eps", [0.7, 3.0])
    @pytest.mark.parametrize("n, a", [(4, 3), (3, 0)])
    def test_is_the_whole_program_composed_with_the_back_map(self, n, a, eps):
        # the program over every other output of [-A, N+A] has the
        # objective and equality rows of the window program R(A + 2)
        # composed with the embedding x = T z
        pmf = QuantizedPmf(masses=np.arange(1.0, n + 2) / ((n + 1) * (n + 2) / 2))
        program = build_lp(pmf, span(n, a + 2), eps)
        ks = span(n, a)[::2]
        sub = build_lp(pmf, ks, eps)
        embed = np.column_stack(
            [whole_point(z, n, ks, span(n, a + 2)) for z in np.eye(sub.num_vars)]
        )
        np.testing.assert_allclose(sub.objective, embed.T @ program.objective, rtol=1e-15)
        (sub_eq, sub_b), (eq, b) = rows_of(sub, EQUAL), rows_of(program, EQUAL)
        np.testing.assert_array_equal(sub_eq.toarray(), eq @ embed)
        np.testing.assert_array_equal(sub_b, b)

    @pytest.mark.parametrize("n, m, a", [(16, 64, 40), (4, 16, 3), (8, 32, 0), (4, 7, 3)])
    def test_one_tube_row_per_kept_cell(self, n, m, a):
        pmf = QuantizedPmf(masses=np.full(n + 1, 1.0 / (n + 1)))
        sub = build_lp(pmf, span(n, a), 1.0)
        cells = (n + 1) * (n + 2 * a + 1)
        upper = rows_of(sub, LESS_EQUAL)[0]
        assert upper.shape[0] == cells
        assert np.all(np.diff(upper.indptr) == 2)  # one s and its t_k
        assert sub.num_vars == cells + n + 2 * a + 1
        q = _scatter(np.ones(sub.num_vars), n, m, span(n, a), 1.0)
        assert q[:, [0, -1]].any() == (n + a == m)  # the edges only for R(M - N)
        assert np.count_nonzero(q) == cells

    def test_tail_mass_solves_whole_program(self, monkeypatch):
        # at N=8, M=24, eps=0.5 the first A is past M - N = 16: the first
        # outputs span the whole window [-16, 24], generation reaches the
        # window program R(16)'s optimum, and that puts 0.142 on the
        # window's edges.  It is not certified: a wider window costs less
        d8 = make_domain(1.0, 8)
        pmf = true_pmf(TruncatedGaussian(mu=0.0, sd=0.1), d8)
        outputs = recording_builds(monkeypatch)
        table = assert_matches_whole_program(pmf, 0.5, NoiseShape(m=24), d8)
        assert (outputs[0][0], outputs[0][-1]) == (-16, 24)
        ks, _, sol = adaptive._store[(8, 24, 0.5)]
        assert not certified(pmf, sol, ks, 0.5)
        assert np.max(table.q[:, [0, -1]]) > 0.1
        assert verify_privacy(table, 0.5).passed
        wider = solve_noise_table(pmf, 0.5, NoiseShape(m=64), d8)
        assert wider.lp_objective < table.lp_objective - 1e-3


def certified_solve(pmf, eps, domain):
    """Output generation in a window wide enough to hold the optimum: the
    last round's solution, certified, and its outputs S."""
    n = domain.n_bins
    ks, sol = adaptive._solve_generated(pmf, eps, n + 3 * _first_half_width(n, eps))
    assert sol.status == "optimal" and certified(pmf, sol, ks, eps)
    return sol, ks


def rr_pmf(n, eps, seed, sd, clients):
    """The randomized-response estimate of clipped N(0, sd) clients."""
    rng = np.random.default_rng(seed)
    xs = np.clip(rng.normal(0.0, sd, clients), -1.0, 1.0)
    return reconstruct_pmf(collect_perturbed_histogram(make_domain(1.0, n), xs, eps, rng), eps)


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
        sol, ks = certified_solve(pmf, eps, domain)
        lo, hi = int(ks[0]), int(ks[-1])
        y = sol.eq_duals
        tol = 1e-9 * max(1.0, abs(sol.objective_value))
        k, s_min = _slack_minimum(pmf.masses, y, lo, hi, eps)
        beyond = np.arange(-20 * n, 21 * n + 1)
        beyond = beyond[(beyond < lo) | (beyond > hi)]
        brute = _slack(pmf.masses, y, beyond, eps)
        assert -20 * n <= k <= 21 * n and not lo <= k <= hi
        assert s_min == pytest.approx(brute.min(), rel=1e-12, abs=1e-15)
        assert min(s_min, brute.min()) >= -tol
        # the self-contained duality gap c.x - b.y, with b = (1, 0) per input
        assert abs(sol.objective_value - y[0::2].sum()) <= tol

    @pytest.mark.parametrize("name, n, eps", CERTIFICATE_CASES)
    def test_kept_outputs_within_the_dual_tolerance(self, name, n, eps):
        # _certified trusts s(k) >= 0 on the kept outputs to the program's
        # dual feasibility, which HiGHS holds to 1e-10 in (t, s)
        # coordinates; the proven bound is b.y - max(tol, -min s(k)) over
        # those k
        domain = make_domain(1.0, n)
        if name == "estimated":
            pmf = rr_pmf(n, eps, seed=3, sd=0.1, clients=2000)
        else:
            pmf = true_pmf(DESIGN_PMFS[name], domain)
        sol, ks = certified_solve(pmf, eps, domain)
        kept = _slack(pmf.masses, sol.eq_duals, ks, eps)
        scale = (n + 1) * math.exp(eps) * 1e-10 * max(1.0, abs(sol.objective_value))
        assert kept.min() >= -scale

    def test_rejects_a_dip_beyond_the_brute_force_range(self):
        # rho_0(k) = curv (k - k0)^2 - 5 is negative on k0 +- 10, and the
        # other rho_i(k - i) = curv (k - k0 - 10)^2 + e_ are positive; their
        # sum with weight e^eps on rho_0 is a convex quadratic between
        # k0 - 10 and k0 + 10 with its vertex at k0 + 40 / (e + 4) = k0 + 5.95,
        # set to dip below 0 at k0 + 6 only, 50 N past the domain
        n, k0, dip, eps = 4, 1000, 1e-6, 1.0
        # rho_i's curvature is p_i; the certificate does not need the p_i to sum to 1
        curv = masses = np.full(n + 1, 0.05)
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
        assert _slack(masses, y, ks, eps).min() > 0.0
        assert _slack(masses, y, [k0 + 5, k0 + 7], eps).min() > 0.0
        k, s_min = _slack_minimum(masses, y, -4, n + 4, eps)
        assert k == k0 + 6
        assert s_min == pytest.approx(-dip, rel=1e-3)
        assert not _certified(masses, y, 1.0, span(n, 4), eps)

    def test_gap_inside_the_outputs_is_priced(self):
        # an output left out between kept ones is checked exactly: the
        # outputs [-27, 43] less one the optimum over them loads are not
        # certified, though every output beyond them prices >= 0
        d16 = make_domain(1.0, 16)
        pmf = true_pmf(TruncatedGaussian(mu=0.0, sd=0.1), d16)
        full = lp_solve(build_lp(pmf, span(16, 40), 0.5))
        assert certified(pmf, full, span(16, 40), 0.5)
        loaded = int(np.argmax(full.x[-span(16, 40).size :])) - 40
        ks = np.setdiff1d(span(16, 40), [loaded])
        holed = lp_solve(build_lp(pmf, ks, 0.5))
        assert holed.objective_value > full.objective_value
        y = holed.eq_duals
        assert _slack_minimum(pmf.masses, y, -40, 56, 0.5)[1] >= -1e-9
        assert _slack(pmf.masses, y, [loaded], 0.5)[0] < -1e-9
        assert not certified(pmf, holed, ks, 0.5)

    def test_memory_at_large_eps(self):
        # a bound enumerated up to an analytic limit grows with e^eps
        d16 = make_domain(1.0, 16)
        pmf = true_pmf(TruncatedGaussian(mu=0.0, sd=0.1), d16)
        ks = span(16, _first_half_width(16, 20.0))
        sol = lp_solve(build_lp(pmf, ks, 20.0))
        assert sol.status == "optimal"
        tracemalloc.start()
        try:
            ok = certified(pmf, sol, ks, 20.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert ok
        assert peak < 1 << 20


def test_design_cells_take_one_solve_per_round(monkeypatch):
    # each round of output generation makes one HiGHS call, with no cold
    # retry, on one program: round 0 at a stored key on the stored one
    # with the pmf's objective swapped in, every other round on build_lp's;
    # every round adds outputs, and none of the 15 design cells at N=16,
    # M=64 takes more than three
    outputs = recording_builds(monkeypatch)
    calls = recording_solve(monkeypatch)
    d16 = make_domain(1.0, 16)
    rounds = []
    for name in sorted(DESIGN_PMFS):
        for eps in (0.5, 1.0, 2.0, 4.0, 8.0):
            outputs.clear()
            calls.clear()
            stored = adaptive._store.get((16, 64, eps))
            solve_noise_table(true_pmf(DESIGN_PMFS[name], d16), eps, NoiseShape(m=64), d16)
            if stored is not None:
                assert shares_rows(calls[0][0], stored[1])
                outputs.insert(0, stored[0])
            assert len(calls) == len(outputs)
            assert all(start is not None for _, start, _ in calls[1:])
            for ks, wider in zip(outputs, outputs[1:]):
                assert wider.size > ks.size and np.isin(ks, wider).all()
            rounds.append(len(outputs))
    assert max(rounds) <= 3 and sum(rounds) > 15


def recording_solve(monkeypatch):
    """Route lplib.solve through a recorder; returns its list of
    (program, start, solution), one per HiGHS call."""
    calls = []
    solve = lplib.solve

    def record(program, start=None):
        calls.append((program, start, solve(program, start)))
        return calls[-1][2]

    monkeypatch.setattr(lplib, "solve", record)
    return calls


def shares_rows(program, stored) -> bool:
    """Whether program holds stored's rows and row bounds, not copies."""
    return (program.rows is stored.rows and program.row_lower is stored.row_lower
            and program.row_upper is stored.row_upper)


REFERENCE_OBJECTIVES = Path(__file__).resolve().parents[1] / "perfbench" / "reference_objectives.json"


class TestGeneration:
    """Output generation reaches the window program's optimum, prices every
    window output it leaves out, and starts each later round from the last
    optimal basis, extended (adaptive._solve_generated)."""

    @pytest.mark.parametrize("eps", [0.5, 1.0, 2.0, 4.0, 8.0])
    @pytest.mark.parametrize("name", sorted(DESIGN_PMFS))
    def test_design_cells_match_the_reference(self, name, eps):
        # the benchmark's reference objectives to 1e-11, and no higher than
        # the window's whole program, R(M - N), solved at once
        cells = json.loads(REFERENCE_OBJECTIVES.read_text())["cells"]
        (reference,) = [
            c["lp_objective"] for c in cells if (c["pmf"], c["n_bins"], c["eps"]) == (name, 16, eps)
        ]
        d16 = make_domain(1.0, 16)
        pmf = true_pmf(DESIGN_PMFS[name], d16)
        table = solve_noise_table(pmf, eps, NoiseShape(m=64), d16)
        whole = lp_solve(build_lp(pmf, span(16, 48), eps))
        value = d16.sigma**2 * whole.objective_value
        assert table.lp_objective == pytest.approx(reference, rel=1e-11, abs=0.0)
        assert table.lp_objective <= value + 1e-9 * abs(value)

    @pytest.mark.parametrize("eps", [0.5, 1.0, 2.0, 4.0])
    @pytest.mark.parametrize("n", [8, 16, 32])
    def test_left_out_outputs_price_nonnegative(self, n, eps, monkeypatch):
        # a randomized-response estimate: s(k) >= -tol at every window
        # output the last program leaves out, and every round after the
        # first ends optimal from its extended start, with no cold retry
        domain, m = make_domain(1.0, n), 4 * n
        pmf = rr_pmf(n, eps, seed=13, sd=0.2, clients=1000)
        outputs = recording_builds(monkeypatch)
        calls = recording_solve(monkeypatch)
        solve_noise_table(pmf, eps, NoiseShape(m=m), domain)
        ks, _, sol = adaptive._store[(n, m, eps)]
        window = np.arange(n - m, m + 1)
        left_out = window[~np.isin(window, ks)]
        tol = 1e-9 * max(1.0, abs(sol.objective_value))
        assert np.all(_slack(pmf.masses, sol.eq_duals, left_out, eps) >= -tol)
        assert len(calls) == len(outputs) and calls[0][1] is None
        assert all(start is not None and made.status == "optimal" for _, start, made in calls[1:])

    @pytest.mark.parametrize("n, eps", [(4, 1.0), (8, 0.5), (16, 0.5), (16, 2.0)])
    def test_window_just_above_the_feasibility_bound(self, n, eps):
        # at the least feasible window, M = N + A_min, and one wider, the
        # table is the window program's optimum
        domain = make_domain(1.0, n)
        pmf = true_pmf(TruncatedGaussian(mu=0.0, sd=0.1), domain)
        least = n + _min_half_width(n, eps)
        for m in (least, least + 1):
            table = assert_matches_whole_program(pmf, eps, NoiseShape(m=m), domain)
            assert verify_privacy(table, eps).passed

    def test_extended_basis(self):
        # the first outputs' optimal basis, extended to every output of
        # [-30, 46]: kept columns and rows keep their status, new columns
        # are nonbasic at 0 and new rows basic; primal simplex from it
        # reaches the cold optimum, to the dual tolerance's 1e-9, in fewer
        # iterations
        d16 = make_domain(1.0, 16)
        pmf = true_pmf(DESIGN_PMFS["gaussian"], d16)
        ks, wide = _first_outputs(16, 64, 1.0), span(16, 30)
        sol = lp_solve(build_lp(pmf, ks, 1.0))
        start = adaptive._extended_basis(sol.basis, ks, wide, 16)
        cells, kept_cells = 17 * wide.size, 17 * ks.size
        kept = (np.arange(17)[:, None] * wide.size + np.searchsorted(wide, ks)).ravel()
        col, row = np.array(start.col_status), np.array(start.row_status)
        assert col[kept].tolist() == sol.basis.col_status[:kept_cells]
        assert row[kept].tolist() == sol.basis.row_status[:kept_cells]
        assert row[cells:].tolist() == sol.basis.row_status[kept_cells:]
        basic = lplib.HighsBasisStatus.kBasic
        assert sum(v == basic for v in col) + sum(v == basic for v in row) == row.size
        program = build_lp(pmf, wide, 1.0)
        warm, cold = lp_solve(program, start), lp_solve(program)
        assert warm.status == cold.status == "optimal"
        assert warm.objective_value == pytest.approx(cold.objective_value, rel=1e-9, abs=0.0)
        assert warm.iterations < cold.iterations


class TestStore:
    """The last program of the latest optimal solve at each (N, M, eps),
    its outputs S and its solution, start the next solve there
    (adaptive._solve_generated)."""

    @pytest.mark.parametrize("eps", [0.5, 1.0, 2.0, 4.0])
    @pytest.mark.parametrize("n", [8, 16, 32])
    def test_warm_start_matches_cold(self, n, eps, monkeypatch):
        # a re-estimate solved from the outputs and basis of the one
        # before: the same optimum to 1e-12, certified and private either
        # way, in fewer simplex iterations over all its rounds
        domain, shape, key = make_domain(1.0, n), NoiseShape(m=4 * n), (n, 4 * n, eps)
        first, again = (rr_pmf(n, eps, seed, sd=0.2, clients=1000) for seed in (11, 12))
        solve_noise_table(first, eps, shape, domain)
        calls = recording_solve(monkeypatch)
        warm = solve_noise_table(again, eps, shape, domain)
        warm_calls, warm_last = list(calls), adaptive._store[key]
        adaptive.clear_store()
        calls.clear()
        cold = solve_noise_table(again, eps, shape, domain)
        assert warm_calls[0][1] is not None and calls[0][1] is None
        assert warm.lp_objective == pytest.approx(cold.lp_objective, rel=1e-12, abs=0.0)
        for table, (ks, _, sol) in ((warm, warm_last), (cold, adaptive._store[key])):
            assert certified(again, sol, ks, eps)
            assert verify_privacy(table, eps).passed
        iterations = [sum(sol.iterations for _, _, sol in made) for made in (warm_calls, calls)]
        assert iterations[0] < iterations[1]

    @pytest.mark.parametrize("eps", [0.5, 1.0, 4.0])
    @pytest.mark.parametrize("n", [8, 16, 32])
    def test_stored_program_takes_the_new_objective(self, n, eps, monkeypatch):
        # round 0 of a re-estimate at a stored key hands HiGHS the stored
        # program with the new pmf's objective swapped in: the objective's
        # bits and every array of build_lp's program over the stored S,
        # sharing the stored constraint arrays rather than rebuilding them
        domain, shape, key = make_domain(1.0, n), NoiseShape(m=4 * n), (n, 4 * n, eps)
        first, again = (rr_pmf(n, eps, seed, sd=0.2, clients=1000) for seed in (11, 12))
        solve_noise_table(first, eps, shape, domain)
        ks, stored, _ = adaptive._store[key]
        calls = recording_solve(monkeypatch)
        solve_noise_table(again, eps, shape, domain)
        program, built = calls[0][0], build_lp(again, ks, eps)
        assert program.objective.tobytes() == built.objective.tobytes()
        for got, want in zip((*program.rows, program.row_lower, program.row_upper),
                             (*built.rows, built.row_lower, built.row_upper)):
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        assert shares_rows(program, stored)

    def test_same_program_reuses_the_solution(self, monkeypatch):
        d16 = make_domain(1.0, 16)
        pmf = rr_pmf(16, 1.0, seed=11, sd=0.2, clients=1000)
        first = solve_noise_table(pmf, 1.0, NoiseShape(m=64), d16)
        made = adaptive._store[(16, 64, 1.0)][2]
        assert made.iterations > 0 and made.run_seconds > 0.0
        calls = recording_solve(monkeypatch)
        again = solve_noise_table(pmf, 1.0, NoiseShape(m=64), d16)
        assert calls == []
        np.testing.assert_array_equal(again.q, first.q)
        # a reuse reports the HiGHS work it did: none
        reused = adaptive._store[(16, 64, 1.0)][2]
        assert reused.iterations == 0 and reused.run_seconds == 0.0

    def test_another_beta_reuses_the_solution(self, monkeypatch):
        # the program is in units of sigma, so a domain of another
        # half-width beta has the same program, and its table the same q
        pmf = true_pmf(TruncatedGaussian(mu=0.0, sd=0.3), make_domain(1.0, 16))
        small = solve_noise_table(pmf, 1.0, NoiseShape(m=64), make_domain(1e-6, 16))
        calls = recording_solve(monkeypatch)
        large = solve_noise_table(pmf, 1.0, NoiseShape(m=64), make_domain(1e6, 16))
        assert calls == [] and adaptive._store[(16, 64, 1.0)][2].iterations == 0
        assert large.q.tobytes() == small.q.tobytes()
        assert large.lp_objective == pytest.approx(1e24 * small.lp_objective, rel=1e-12)

    def test_nonoptimal_start_is_solved_once_more_from_cold(self, monkeypatch):
        # a start that ends anywhere but optimal, the stored basis or a
        # round's extended one, costs one more HiGHS call on the same
        # program without a start, and its answer carries on
        d8 = make_domain(1.0, 8)
        first, again = (rr_pmf(8, 1.0, seed, sd=0.2, clients=1000) for seed in (11, 12))
        solve_noise_table(first, 1.0, NoiseShape(m=32), d8)
        calls = []
        solve = lplib.solve
        failed = replace(lp_solve(lplib.LinearProgram([1.0])), status="numerical-failure")

        def fake(program, start=None):
            calls.append((program, start, failed if start is not None else solve(program)))
            return calls[-1][2]

        monkeypatch.setattr(lplib, "solve", fake)
        table = solve_noise_table(again, 1.0, NoiseShape(m=32), d8)
        assert [start is None for _, start, _ in calls] == [False, True] * (len(calls) // 2)
        assert all(calls[i][0] is calls[i + 1][0] for i in range(0, len(calls), 2))
        assert table.lp_objective == d8.sigma**2 * calls[-1][2].objective_value
        adaptive.clear_store()
        cold = solve_noise_table(again, 1.0, NoiseShape(m=32), d8)
        assert table.lp_objective == pytest.approx(cold.lp_objective, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize(
        "before, after",
        [
            ((8, 4.0), (8, 5.0)),  # another eps, at the same N and M = 32
            ((8, 1.0), (16, 1.0)),  # another N
        ],
    )
    def test_other_keys_start_cold(self, before, after, monkeypatch):
        for n, eps in (before, after):
            domain = make_domain(1.0, n)
            pmf = true_pmf(TruncatedGaussian(mu=0.0, sd=0.1), domain)
            outputs = recording_builds(monkeypatch)
            calls = recording_solve(monkeypatch)
            solve_noise_table(pmf, eps, NoiseShape(m=32), domain)
            assert calls[0][1] is None
            np.testing.assert_array_equal(outputs[0], _first_outputs(n, 32, eps))

    def test_other_half_width_starts_cold(self, monkeypatch):
        # the window's half-width M - N is part of the key: with a
        # Gaussian's solve stored at M = 64, a uniform at M = 48 starts
        # cold from its first outputs, and one at M = 64 from the
        # Gaussian's outputs and basis
        d16 = make_domain(1.0, 16)
        gaussian = true_pmf(TruncatedGaussian(mu=0.0, sd=0.1), d16)
        uniform = true_pmf(BetaDistribution(a=1.0, b=1.0), d16)
        solve_noise_table(gaussian, 2.0, NoiseShape(m=64), d16)
        assert list(adaptive._store) == [(16, 64, 2.0)]
        stored = adaptive._store[(16, 64, 2.0)][1]
        outputs = recording_builds(monkeypatch)
        calls = recording_solve(monkeypatch)
        solve_noise_table(uniform, 2.0, NoiseShape(m=48), d16)
        assert calls[0][1] is None
        np.testing.assert_array_equal(outputs[0], _first_outputs(16, 48, 2.0))
        calls.clear()
        solve_noise_table(uniform, 2.0, NoiseShape(m=64), d16)
        assert calls[0][1] is not None
        assert shares_rows(calls[0][0], stored)
        assert list(adaptive._store) == [(16, 48, 2.0), (16, 64, 2.0)]

    def test_holds_at_most_its_bound(self):
        # one key per eps at N=2; the least recently used key goes first
        d2 = make_domain(1.0, 2)
        grid = [1.0 + 0.25 * i for i in range(adaptive._STORE_KEYS + 5)]
        for eps in grid:
            solve_noise_table(SYM2, eps, NoiseShape(m=16), d2)
            solve_noise_table(SYM2, grid[0], NoiseShape(m=16), d2)  # used again
            assert len(adaptive._store) <= adaptive._STORE_KEYS
        kept = {key[2] for key in adaptive._store}
        assert len(kept) == adaptive._STORE_KEYS
        assert kept == {grid[0], *grid[-(adaptive._STORE_KEYS - 1):]}


@pytest.mark.parametrize("n, eps", [(8, 12.0), (8, 16.0), (16, 12.0), (16, 16.0), (16, 20.0)])
def test_estimated_pmf_at_large_eps_is_private(n, eps):
    # HiGHS holds s / expm1(eps) - t_k <= 0 to 1e-7, so s stands above
    # expm1(eps) t_k (1.4e-4 at t_k = 0, N=8, eps=12); the projection lifts
    # t_k to keep that mass, and the rows still sum to 1
    pmf = rr_pmf(n, eps, seed=5, sd=0.2, clients=1000)
    table = solve_noise_table(pmf, eps, NoiseShape(m=4 * n, r=0.5), make_domain(1.0, n))
    assert verify_privacy(table, eps).passed


# the lift adds each column's upper-row violation (up to HiGHS's 1e-7) to
# every row, and a row crosses many columns: at these eps its sum or mean
# misses the 1e-7 row check by 1.1e-7 to 8.0e-7 (ROADMAP open item 1)
_ROW_CHECK_MISSED = pytest.mark.xfail(
    strict=True, raises=RuntimeError, reason="row sum or mean off by more than 1e-7"
)


@pytest.mark.parametrize(
    "eps",
    [pytest.param(eps, marks=_ROW_CHECK_MISSED) for eps in (10.0, 14.0, 16.0, 18.0, 20.0)]
    + [12.0],
)
def test_analytic_pmf_at_large_eps_is_private(eps):
    d16 = make_domain(1.0, 16)
    table = solve_noise_table(true_pmf(DESIGN_PMFS["gaussian"], d16), eps, NoiseShape(m=64), d16)
    assert verify_privacy(table, eps).passed


@pytest.mark.parametrize("name", ["gaussian", "uniform"])
def test_small_window_table_is_private(name):
    # M = N + 1 leaves one restricted program, R(1), the window's own
    d4 = make_domain(1.0, 4)
    pmf = true_pmf(DESIGN_PMFS[name], d4)
    table = solve_noise_table(pmf, 7.61, NoiseShape(m=5), d4)
    assert verify_privacy(table, 7.61).passed


@settings(max_examples=60, derandomize=True, deadline=None)
@given(
    n=st.integers(2, 12),
    eps=st.floats(0.5, 8.0),
    extra=st.integers(0, 16),
    seed=st.integers(0, 2**32 - 1),
)
def test_restricted_solve_matches_whole_program(n, eps, extra, seed):
    # windows wide enough that generation's outputs stay inside them and
    # its optimum is certified; with [-A, N+A] the least span holding the
    # outputs, the certified optimum is that of a program over more than
    # twice as many outputs, R(A') with A' = 2A + N
    domain = make_domain(1.0, n)
    pmf = QuantizedPmf(masses=np.random.default_rng(seed).dirichlet(np.ones(n + 1)))
    shape = NoiseShape(m=n + 3 * _first_half_width(n, eps) + extra)
    table = solve_noise_table(pmf, eps, shape, domain)
    ks, _, sol = adaptive._store[(n, shape.m, eps)]
    a = max(-int(ks[0]), int(ks[-1]) - n)
    assert a < shape.m - n and certified(pmf, sol, ks, eps)
    assert table.lp_objective == domain.sigma**2 * sol.objective_value
    wider = lp_solve(build_lp(pmf, span(n, 2 * a + n), eps))
    assert wider.status == "optimal"
    gap = abs(sol.objective_value - wider.objective_value)
    assert gap <= 1e-9 * max(1.0, abs(sol.objective_value))


@settings(max_examples=200, derandomize=True, deadline=None)
@given(
    n=st.integers(1, 40),
    extra=st.integers(1, 60),
    seed=st.integers(0, 2**32 - 1),
    keep=st.floats(0.0, 1.0),
)
def test_left_out_is_the_window_less_the_outputs(n, extra, seed, keep):
    # the mask over the window [N - M, M] leaves out what setdiff1d does
    m = n + extra
    window = np.arange(n - m, m + 1)
    ks = window[np.random.default_rng(seed).random(window.size) < keep]
    left_out = _left_out(ks, n, m)
    np.testing.assert_array_equal(left_out, np.setdiff1d(window, ks))
    assert left_out.dtype == window.dtype


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

    def test_output_out_of_reach_is_disjoint(self):
        # output k = -M is reached by row 0 alone (offset -M), so any mass
        # there is disjoint support
        q = np.full((3, 9), 1.0 / 9.0)
        report = verify_privacy(NoiseTable(domain=D2, shape=SHAPE2, q=q, eps=1.0), 1.0)
        assert report.max_ratio == math.inf
        assert report.worst_pair == (-4, 0, 1)

    def test_composite_mixture_check(self):
        # the real inputs' tent mixtures are as private as the rows: the
        # mixture lemma, checked on 41 points of [-beta, beta]
        table = solve_noise_table(SYM2, 2.0, SHAPE2, D2)
        assert verify_privacy(table, 2.0).passed
        xs = np.linspace(-1.0, 1.0, 41)
        ratio = mixture_ratio(table, *rounding_weights_array(D2, xs))
        assert ratio <= math.exp(2.0) * (1.0 + 1e-14)


def density_by_rows(q, n, m, ks):
    """Reference for _density_from_q, one input row at a time."""
    d = np.zeros((n + 1, ks.size))
    for i in range(n + 1):
        j = ks - i
        window = np.abs(j) <= m
        d[i, window] = q[i, j[window] + m]
    return d


def ratio_report_by_columns(density, ks, eps, tol):
    """Reference for verify_privacy's report on a (inputs x outputs)
    density, one output column at a time."""
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
            worst = (int(ks[col]), int(d.argmax()), int(d.argmin()))
    bound = math.exp(eps) * (1.0 + tol)
    return max_ratio, worst, bound, max_ratio <= bound


def edge_loaded_table():
    """The window program's table at N=8, M=24, eps=0.5, whose optimum puts
    0.142 on the window's edges."""
    d8 = make_domain(1.0, 8)
    pmf = true_pmf(TruncatedGaussian(mu=0.0, sd=0.1), d8)
    return pmf, solve_noise_table(pmf, 0.5, NoiseShape(m=24), d8)


class TestVectorizedVerification:
    """The array forms of the density and of verify_privacy's report
    reproduce the loop forms exactly."""

    @pytest.fixture(scope="class")
    def tables(self):
        d16 = make_domain(1.0, 16)
        gaussian = true_pmf(TruncatedGaussian(mu=0.0, sd=0.1), d16)
        return {
            "solved": solved_apart(
                lambda: solve_noise_table(gaussian, 1.0, NoiseShape(m=64), d16)
            ),
            "tail-loaded": solved_apart(edge_loaded_table)[1],  # mass at the window's edges
            "geometric": geometric_reference_table(4, 8, 0.8)[0],
            "disjoint": disjoint_table(),
            "empty": NoiseTable(domain=D2, shape=SHAPE2, q=np.zeros((3, 9)), eps=1.0),
        }

    @pytest.mark.parametrize("name", ["solved", "tail-loaded", "geometric", "disjoint", "empty"])
    def test_matches_loop_reference(self, tables, name):
        table = tables[name]
        n, m = table.domain.n_bins, table.shape.m
        ks = np.arange(-m - 3, n + m + 4)  # a few outputs past the ends too
        density = _density_from_q(table.q, n, m, ks)
        np.testing.assert_array_equal(density, density_by_rows(table.q, n, m, ks))
        # the outputs past the reach of every input are empty: they count
        # as 0 and cannot move the first worst column
        for eps, tol in ((table.eps, 1e-6), (0.5 * table.eps, 0.0)):
            report = verify_privacy(table, eps, tol)
            expected = ratio_report_by_columns(density, ks, eps, tol)
            assert (report.max_ratio, report.worst_pair, report.bound, report.passed) == expected

    def test_composite_report_matches_loop_reference(self, tables):
        # the array form of the tent mixtures (rounding_weights_array over
        # all inputs, one weight matrix) against one real input at a time
        # (two rows blended); a matrix product may sum in another order, so
        # the masses agree to 1 ulp and the reports to 4
        table = tables["solved"]
        n, m = table.domain.n_bins, table.shape.m
        ks = np.arange(-m, n + m + 1)
        xs = np.linspace(-1.0, 1.0, 41)
        density = density_by_rows(table.q, n, m, ks)
        by_inputs = np.zeros((xs.size, ks.size))
        for row, x in enumerate(xs):
            i, w = rounding_weights_array(table.domain, float(x))
            by_inputs[row] = w * density[i] + (1.0 - w) * density[min(i + 1, n)]
        mixture = tent_mixture(table, *rounding_weights_array(table.domain, xs))
        np.testing.assert_allclose(mixture, by_inputs, rtol=2**-52, atol=0.0)
        report = ratio_report_by_columns(mixture, ks, 1.0, 1e-6)
        expected = ratio_report_by_columns(by_inputs, ks, 1.0, 1e-6)
        assert report[0] == pytest.approx(expected[0], rel=4 * 2**-52, abs=0.0)
        assert report[2:] == expected[2:] == (math.exp(1.0) * (1.0 + 1e-6), True)


class TestColumnWeights:
    """The LP, the row checks, the sampler and the variance read one law:
    column c of q is the offset j = c - M, and a unit of it carries mass 1,
    mean j and variance j^2 in units of sigma^2, bit for bit."""

    N, M, EPS = 8, 24, 0.5  # the window program is solved, its edges loaded

    @pytest.fixture(scope="class")
    def design(self):
        pmf, table = solved_apart(edge_loaded_table)
        assert np.max(table.q[:, [0, -1]]) > 0.1
        return pmf, table.domain, table

    def test_hand_values(self):
        domain = make_domain(1.0, 4)  # sigma = 0.5
        q = np.array([[0.25, 0.0, 0.5, 0.0, 0.25]] * 5)
        table = NoiseTable(domain=domain, shape=NoiseShape(m=2), q=q, eps=1.0)
        np.testing.assert_array_equal(row_variances(table), np.full(5, 0.5))
        masses = offset_masses(table, 0, range(-3, 4)).tolist()
        assert masses == [0.0, 0.25, 0.0, 0.5, 0.0, 0.25, 0.0]

    def test_lp_rows_and_objective(self, design):
        pmf, _, _ = design
        a = self.M - self.N
        program = build_lp(pmf, span(self.N, a), self.EPS)
        a_eq = rows_of(program, EQUAL)[0].toarray()
        width = self.N + 2 * a + 1
        for i in range(self.N + 1):
            block = slice(i * width, (i + 1) * width)  # the s of input i's cells
            j = np.arange(-a, self.N + a + 1) - i
            np.testing.assert_array_equal(a_eq[2 * i, block], np.ones(width))
            np.testing.assert_array_equal(a_eq[2 * i + 1, block], j)
            np.testing.assert_array_equal(
                program.objective[block], pmf.masses[i] * j**2
            )

    def test_variance_reads_the_objective_coefficients(self, design):
        pmf, domain, table = design
        cost = np.arange(-self.M, self.M + 1) ** 2
        np.testing.assert_array_equal(row_variances(table), domain.sigma**2 * (table.q @ cost))
        assert expected_variance(table, pmf) == pytest.approx(table.lp_objective, rel=1e-9)

    def test_sampler_weights_rows_by_the_lp_norm(self, design, monkeypatch):
        _, _, table = design
        seen = []
        guides = adaptive._row_guides
        monkeypatch.setattr(adaptive, "_row_guides", lambda q: seen.append(guides(q)) or seen[-1])
        adaptive_perturb_array(table, np.zeros(10), np.random.default_rng(0))
        [(cdfs, guide)] = seen
        # one guide per row, for every row
        assert guide.size == (self.N + 1) * adaptive._GUIDE_BUCKETS
        for i in range(self.N + 1):
            probs = table.q[i] / table.q[i].sum()
            cdf = probs.cumsum()
            cdf /= cdf[-1]
            np.testing.assert_array_equal(cdfs[i], cdf)


GRID_BINS = (2, 4, 8, 16, 32)
GRID_EPS = (0.25, 0.5, 1.0, 2.0, 4.0, 8.0)


def grid_pmfs(domain, eps):
    """The five shapes of the table suite, and four randomized-response
    estimates at eps (1000 clients, sd 0.2): these carry zero and tiny
    masses, under which the solver's vertices hold round-off."""
    pmfs = list(suite_pmf_shapes(domain).values())
    for seed in range(4):
        pmfs.append(rr_pmf(domain.n_bins, eps, seed=seed, sd=0.2, clients=1000))
    return pmfs


@pytest.fixture(scope="module")
def grid_tables():
    """The 270 solved tables over GRID_BINS x GRID_EPS x grid_pmfs, each in
    the CLI's default window for its N and eps."""

    def solve_grid():
        tables = []
        for n in GRID_BINS:
            domain = make_domain(1.0, n)
            for eps in GRID_EPS:
                shape = NoiseShape(m=max(4 * n, n + _first_half_width(n, eps) + 2))
                for pmf in grid_pmfs(domain, eps):
                    tables.append(solve_noise_table(pmf, eps, shape, domain))
        return tables

    return solved_apart(solve_grid)


def scatter_by_cells(z, n, m, ks, eps):
    """Reference for _scatter: the tube projection, one output at a time:
    t lifted to the output's greatest s / expm1(eps), then each s clipped
    to expm1(eps) t."""
    cells = (n + 1) * len(ks)
    q = np.zeros((n + 1, 2 * m + 1))
    for c, k in enumerate(ks):
        s = [max(z[i * len(ks) + c], 0.0) for i in range(n + 1)]
        t = max(z[cells + c], 0.0)
        t = max(t, max(s) / math.expm1(eps))
        s = [min(v, math.expm1(eps) * t) for v in s]
        for i in range(n + 1):
            q[i, k - i + m] = s[i] + t
    return q


def assert_columns_empty_or_full(table):
    """Every output column is 0 under every input or positive under every
    input, within e^eps up to rounding; returns whether some column holds
    round-off mass (at most 1e-10)."""
    n, m = table.domain.n_bins, table.shape.m
    density = _density_from_q(table.q, n, m, np.arange(-m, n + m + 1))
    top, bottom = density.max(axis=0), density.min(axis=0)
    full = bottom > 0.0
    assert np.all(full | (top == 0.0))
    assert np.all(top[full] / bottom[full] <= math.exp(table.eps) * (1.0 + 1e-14))
    return bool(np.any(full & (top <= 1e-10)))


class TestDust:
    """The projection onto the tube leaves no dust: no output carries mass
    under some inputs and none under others."""

    def test_solved_tables(self, grid_tables):
        # a column of round-off mass, which the solver leaves in some
        # tables, is kept as private as any other
        round_off = sum(assert_columns_empty_or_full(table) for table in grid_tables)
        assert len(grid_tables) == 270
        assert round_off >= 1  # the grid reaches tables that carry round-off

    def test_row_guides_of_solved_tables(self, grid_tables):
        # the one-pass build against the per-row one, round-off masses included
        for table in grid_tables:
            cdf, guide = adaptive._row_guides(table.q)
            expected_cdf, expected_guide = row_guides_by_rows(table.q)
            np.testing.assert_array_equal(cdf, expected_cdf)
            np.testing.assert_array_equal(guide, expected_guide)

    def test_random_dusty_tables(self):
        # LP points with round-off negatives and dust-level masses, each
        # scaled by a random factor so that s / expm1(eps) rounds both ways:
        # the projection matches the output loop bit for bit, and its
        # tables are empty-or-full whatever the point
        rng = np.random.default_rng(11)
        levels = np.array([-1e-10, -1e-12, 0.0, 1e-12, 5e-11, 1e-10, 2e-10, 1e-3, 0.1])
        lifted = clipped = 0
        for _ in range(300):
            n = int(rng.integers(1, 7))
            m = n + int(rng.integers(0, 5))
            a = m - n
            eps = float(rng.choice([0.25, 1.0, 4.0]))
            p = rng.dirichlet(np.ones(levels.size) * 0.3)
            size = (n + 2) * (n + 2 * a + 1)
            z = rng.choice(levels, size=size, p=p) * rng.uniform(0.5, 2.0, size)
            q = _scatter(z, n, m, span(n, a), eps)
            np.testing.assert_array_equal(q, scatter_by_cells(z, n, m, span(n, a), eps))
            table = NoiseTable(domain=make_domain(1.0, n), shape=NoiseShape(m), q=q, eps=eps)
            assert_columns_empty_or_full(table)
            cells = (n + 1) * (n + 2 * a + 1)
            s = np.maximum(z[:cells].reshape(n + 1, -1), 0.0)
            t = np.maximum(z[cells:], 0.0)
            top = s.max(axis=0) / math.expm1(eps)
            lifted += bool(np.any(top > t))
            t = np.maximum(t, top)
            clipped += bool(np.any(s > math.expm1(eps) * t))
        assert lifted >= 30 and clipped >= 30  # the lift and its rounding clip, often


def tent_mixture(table, idx, w_left):
    """The output law of real inputs with left edges idx and left weights
    w_left, over the outputs k in [-M, N+M]: w_left row idx plus
    1 - w_left row idx + 1, one (input x output) row per input."""
    n, m = table.domain.n_bins, table.shape.m
    weights = np.zeros((idx.size, n + 1))
    weights[np.arange(idx.size), idx] = w_left
    weights[np.arange(idx.size), np.minimum(idx + 1, n)] += 1.0 - w_left
    return weights @ density_by_rows(table.q, n, m, np.arange(-m, n + m + 1))


def mixture_ratio(table, idx, w_left):
    """The worst max/min ratio over the outputs of the tent mixtures of the
    given inputs, as verify_privacy reads the rows."""
    n, m = table.domain.n_bins, table.shape.m
    ks = np.arange(-m, n + m + 1)
    with np.errstate(over="ignore"):  # a ratio past the largest float is inf
        return ratio_report_by_columns(tent_mixture(table, idx, w_left), ks, table.eps, 0.0)[0]


class TestMixtureLemma:
    """The rounding step needs no privacy check of its own: at every output
    a tent mixture of two rows lies between the least and the greatest row
    mass, so its ratio is at most verify_privacy's, up to the rounding of
    the mixture (4 ulps)."""

    def test_solved_tables(self, grid_tables):
        # every edge is among the inputs, where the mixture is a row, so
        # the mixture's ratio reaches the rows' one as well
        for table in grid_tables:
            domain = table.domain
            xs = np.union1d(domain.edges, np.linspace(-domain.beta, domain.beta, 101))
            ratio = mixture_ratio(table, *rounding_weights_array(domain, xs))
            row_ratio = verify_privacy(table, table.eps).max_ratio
            assert row_ratio - 4 * math.ulp(row_ratio) <= ratio <= row_ratio

    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(
        n=st.integers(1, 6),
        extra=st.integers(0, 3),
        levels=st.lists(st.floats(1e-300, 1.0), min_size=1, max_size=4),
        seed=st.integers(0, 2**32 - 1),
        weights=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=30),
    )
    def test_random_tables(self, n, extra, levels, seed, weights):
        # arbitrary non-negative masses, zeros among them, and arbitrary
        # rounding weights on arbitrary edges; masses stay above the
        # subnormals, where a product's rounding error is no longer relative
        rng = np.random.default_rng(seed)
        m = n + extra
        q = rng.choice([0.0, *levels], size=(n + 1, 2 * m + 1))
        table = NoiseTable(domain=make_domain(1.0, n), shape=NoiseShape(m=m), q=q, eps=1.0)
        idx = rng.integers(0, n, size=len(weights))
        ratio = mixture_ratio(table, idx, np.array(weights))
        row_ratio = verify_privacy(table, 1.0).max_ratio
        assert ratio <= row_ratio + 4 * math.ulp(row_ratio)


class TestSampleNoise:
    """The noise offsets that adaptive_perturb_array draws for clients on
    one edge (conftest.edge_offsets)."""

    def test_point_row_always_zero(self):
        table = point_table()
        rng = np.random.default_rng(50)
        draws = edge_offsets(table, 0, 1000, rng)
        assert np.all(draws == 0)

    def test_window_edges_are_drawn_and_not_passed(self):
        q = np.zeros((3, 9))
        q[:, 0], q[:, -1] = 0.25, 0.75
        table = NoiseTable(domain=D2, shape=SHAPE2, q=q, eps=1.0)
        rng = np.random.default_rng(51)
        draws = edge_offsets(table, 1, 1_000_000, rng)
        assert set(np.unique(draws)) == {-4, 4}
        assert np.mean(draws == 4) == pytest.approx(0.75, abs=0.002)

    def test_solved_row_mean_is_zero(self):
        table = solve_noise_table(SYM2, 1.0, SHAPE2, D2)
        rng = np.random.default_rng(52)
        draws = edge_offsets(table, 1, 1_000_000, rng)
        se = draws.std(ddof=1) / 1000.0
        assert abs(draws.mean()) < 4.0 * se

    def test_row_without_mass_is_named(self):
        # a table may hold an all-zero row (masses are finite and >= 0);
        # drawing from it fails with the row's index, not with 0 / 0
        q = np.zeros((3, 9))
        q[[0, 2], 4] = 1.0
        table = NoiseTable(domain=D2, shape=SHAPE2, q=q, eps=1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="row 1 of the noise table has no mass"):
                edge_offsets(table, 1, 10, np.random.default_rng(0))
            assert edge_offsets(table, 2, 3, np.random.default_rng(0)).tolist() == [0] * 3


class TestPerturb:
    def test_edge_with_zero_noise_is_identity(self):
        table = point_table()
        rng = np.random.default_rng(54)
        assert adaptive_perturb_array(table, [0.0], rng).tolist() == [0.0]

    def test_midpoint_with_zero_noise_splits(self):
        table = point_table()
        rng = np.random.default_rng(55)
        draws = adaptive_perturb_array(table, np.full(200_000, 0.5), rng)
        np.testing.assert_allclose(np.unique(draws), [0.0, 1.0], atol=1e-12)
        assert np.mean(draws == 0.0) == pytest.approx(0.5, abs=0.005)

    def test_analytic_unbiasedness(self):
        # E[y] = sum_i w_i(x) (x_i + sigma * row mean_i); row means vanish
        table = solve_noise_table(SYM2, 1.0, SHAPE2, D2)
        means = np.array([row_mean(table, i) for i in range(3)])
        for x in np.linspace(-1.0, 1.0, 21):
            i, w = rounding_weights_array(D2, x)
            expected = (
                w * (D2.edges[i] + D2.sigma * means[i])
                + (1.0 - w) * (D2.edges[min(i + 1, 2)] + D2.sigma * means[min(i + 1, 2)])
            )
            assert expected == pytest.approx(x, abs=1e-7)

    def test_monte_carlo_unbiasedness(self):
        table = solve_noise_table(SYM2, 1.0, SHAPE2, D2)
        rng = np.random.default_rng(56)
        x = 0.37
        draws = adaptive_perturb_array(table, np.full(1_000_000, x), rng)
        se = draws.std(ddof=1) / 1000.0
        assert abs(draws.mean() - x) < 4.0 * se

    @pytest.mark.parametrize("n", [10, 12, 25])
    def test_one_float_per_output(self, n):
        # sigma = 2 / N is not dyadic here, so edges[i] + sigma j would round
        # differently for inputs that reach the same output k = i + j; every
        # report is grid[k + M], whichever edge drew it
        dom, m = make_domain(1.0, n), 4 * n
        q = np.full((n + 1, 2 * m + 1), 1.0 / (2 * m + 1))
        table = NoiseTable(domain=dom, shape=NoiseShape(m=m), q=q, eps=1.0)
        rows = np.arange(4000 * (n + 1)) % (n + 1)
        reports = adaptive_perturb_array(table, dom.edges[rows], np.random.default_rng(62))
        grid = -dom.beta + dom.sigma * np.arange(-m, n + m + 1)
        assert np.isin(reports, grid).all()
        assert np.unique(reports).size == grid.size  # every output, one float each

    def test_out_of_domain(self):
        table = solve_noise_table(SYM2, 1.0, SHAPE2, D2)
        with pytest.raises(ValueError):
            adaptive_perturb_array(table, [0.0, 1.5], np.random.default_rng(0))

    def test_non_finite_rejected(self):
        table = point_table()
        with pytest.raises(ValueError, match="value nan outside"):
            adaptive_perturb_array(table, [0.0, math.nan], np.random.default_rng(0))


class TestPerturbLaw:
    """adaptive_perturb_array draws each client's offset from its edge's
    row: at 1e6 clients on the edges, every offset's frequency is within
    five standard errors of the row's mass, and no offset off the row's
    support is ever drawn."""

    N_CLIENTS = 1_000_000

    @staticmethod
    def hand_table():
        # binary-fraction masses, zeros inside every row
        i, j = np.meshgrid(np.arange(9), np.arange(13), indexing="ij")
        q = ((3 * i + 5 * j) % 7) / 64.0
        return NoiseTable(domain=make_domain(1.0, 8), shape=NoiseShape(m=6), q=q, eps=1.0)

    @staticmethod
    def solved_table(eps):
        d8 = make_domain(1.0, 8)
        pmf = true_pmf(TruncatedGaussian(mu=0.0, sd=0.1), d8)
        return solved_apart(lambda: solve_noise_table(pmf, eps, NoiseShape(m=24), d8))

    @pytest.mark.parametrize("kind", ["hand", "eps=0.5", "eps=4"])
    def test_row_frequencies(self, kind):
        table = self.hand_table() if kind == "hand" else self.solved_table(float(kind[4:]))
        dom, m = table.domain, table.shape.m
        rows = np.arange(self.N_CLIENTS) % (dom.n_bins + 1)
        reports = adaptive_perturb_array(table, dom.edges[rows], np.random.default_rng(61))
        offsets = np.rint((reports - dom.edges[rows]) / dom.sigma).astype(np.int64)
        # every report is exactly edge + sigma * offset, offset in the window
        np.testing.assert_array_equal(reports, dom.edges[rows] + dom.sigma * offsets)
        assert np.abs(offsets).max() <= m
        for i in range(dom.n_bins + 1):
            drawn = offsets[rows == i]
            counts = np.bincount(drawn + m, minlength=2 * m + 1)
            p = table.q[i] / table.q[i].sum()
            assert counts[p == 0.0].sum() == 0, f"row {i} drew off its support"
            on = p > 0.0
            expected = drawn.size * p[on]
            z = (counts[on] - expected) / np.sqrt(expected * (1.0 - p[on]))
            assert np.abs(z).max() <= 5.0, f"row {i}: z = {z.tolist()}"


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

    def test_phase2_clients_passed_as_xs(self, monkeypatch):
        # the benchmark's tracer (perfbench/tracing.py, _CLIENT_ARG) counts the
        # clients of adaptive_perturb_array at argument 2 or as the keyword xs
        data = np.random.default_rng(65).uniform(-1.0, 1.0, 300)
        mask = np.random.default_rng(66).random(300) < 0.2
        calls = []
        shipped = adaptive.adaptive_perturb_array

        def recorder(*args, **kwargs):
            calls.append((args, kwargs))
            return shipped(*args, **kwargs)

        monkeypatch.setattr(adaptive, "adaptive_perturb_array", recorder)
        res = run_protocol(data, 1.0, 0.2, SHAPE2, D2, np.random.default_rng(67), split_mask=mask)
        [(args, kwargs)] = calls
        assert len(args) < 2 and len(kwargs["xs"]) == res.phase2_count
        np.testing.assert_array_equal(kwargs["xs"], data[~mask])


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
        assert loaded.eps == table.eps
        assert loaded.lp_objective is None

    def test_reloaded_table_still_verifies(self, tmp_path):
        table = solve_noise_table(SYM2, 2.0, SHAPE2, D2)
        path = tmp_path / "table.txt"
        save_table(table, path)
        assert verify_privacy(load_table(path), 2.0).passed

    def test_header_holds_beta_n_m_eps(self, tmp_path):
        table = solve_noise_table(SYM2, 1.0, SHAPE2, D2)
        path = tmp_path / "table.txt"
        save_table(table, path)
        assert path.read_text().splitlines()[0] == "1.0 2 4 1.0"

    @pytest.mark.parametrize(
        "header, message",
        [("1.0 2 4 nan", "eps must be positive, got nan"),
         ("1.0 2 4 -1.0", "eps must be positive, got -1.0"),
         ("1.0 2 4 0.0", "eps must be positive, got 0.0"),
         ("1.0 2 4 inf", "eps must be at most 700.0, got inf"),
         ("1.0 2 4 710.0", "eps must be at most 700.0, got 710.0"),
         ("inf 2 4 1.0", "beta must be positive and finite, got inf")],
    )
    def test_header_outside_its_range_is_refused(self, tmp_path, header, message):
        path = tmp_path / "table.txt"
        save_table(solve_noise_table(SYM2, 1.0, SHAPE2, D2), path)
        body = path.read_text().splitlines()[1:]
        path.write_text("\n".join([header, *body]) + "\n")
        with pytest.raises(ValueError, match=re.escape(message)):
            load_table(path)

    def test_five_field_header_is_refused(self, tmp_path):
        # tables once carried a tail ratio r in the header (beta N M r eps);
        # save_table writes four fields, and load_table reads only those
        table = solve_noise_table(SYM2, 1.0, NoiseShape(m=8), D2)
        path = tmp_path / "table.txt"
        save_table(table, path)
        body = path.read_text().splitlines()[1:]
        path.write_text("\n".join(["1.0 2 8 0.5 1.0", *body]) + "\n")
        with pytest.raises(ValueError, match="expected 'beta N M eps'"):
            load_table(path)

    def test_nan_mass_is_refused(self, tmp_path):
        path = tmp_path / "table.txt"
        save_table(solve_noise_table(SYM2, 1.0, SHAPE2, D2), path)
        header, first, *rest = path.read_text().splitlines()
        path.write_text("\n".join([header, "nan " + first.split(" ", 1)[1], *rest]) + "\n")
        with pytest.raises(ValueError, match="finite and >= 0"):
            load_table(path)

    @pytest.mark.parametrize(
        "defect, message",
        [("short", "row normalization off by 0.5"), ("biased", "row zero-mean off by 0.5")],
    )
    def test_row_invariants_checked(self, tmp_path, defect, message):
        # a file whose rows are not noise laws (a row of mass 0.5, or one of
        # mean 0.5) is refused, not renormalized into another mechanism
        q = np.zeros((3, 9))
        q[:, 4] = 1.0
        if defect == "short":
            q[1, 4] = 0.5
        else:
            q[1, 4], q[1, 5] = 0.5, 0.5
        path = tmp_path / "table.txt"
        save_table(NoiseTable(domain=D2, shape=SHAPE2, q=q, eps=1.0), path)
        with pytest.raises(ValueError, match=message):
            load_table(path)

    def test_table_that_fails_privacy_is_refused(self, tmp_path):
        # rows that sum to 1 with mean 0, but output 0 only input 0 reaches
        # and output 1 only input 1: no noise, not eps-LDP at the header's eps
        path = tmp_path / "table.txt"
        path.write_text("1.0 1 1 1.0\n0.0 1.0 0.0\n0.0 1.0 0.0\n")
        with pytest.raises(ValueError, match="fails privacy verification: max_ratio=inf"):
            load_table(path)

    def test_save_to_stream(self, tmp_path):
        table = solve_noise_table(SYM2, 1.0, SHAPE2, D2)
        path = tmp_path / "table.txt"
        save_table(table, path)
        stream = io.StringIO()
        save_table(table, stream)
        assert stream.getvalue() == path.read_text()

    def test_malformed_header(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("1.0 2 4\n")
        with pytest.raises(ValueError, match="header"):
            load_table(path)
