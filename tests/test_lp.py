"""The LP layer: hand cases and statuses of `lp.solve`, container validation,
and the vertex oracle."""

import numpy as np
import pytest
from scipy.optimize import OptimizeResult

from ldpmean import lp as lplib
from ldpmean.lp import LinearProgram, solve
from lp_oracle import dense_system, random_bounded_program, vertex_enumeration_optimum


def check_feasible(lp, x, tol=1e-7):
    rows, senses, rhs = dense_system(lp)
    assert np.all(x >= -tol)
    vals = rows @ x
    for v, s, b in zip(vals, senses, rhs):
        scale = 1.0 + abs(b)
        if s == "<=":
            assert v <= b + tol * scale
        else:
            assert abs(v - b) <= tol * scale


def fake_linprog(statuses):
    """Stand-in for scipy's linprog answering with the given statuses in turn."""
    calls = []

    def linprog(c, method, **kwargs):
        status = statuses[len(calls)]
        calls.append(method)
        return OptimizeResult(
            status=status, x=None, fun=0.0, nit=7, message=f"{method} status {status}"
        )

    return linprog, calls


class TestHandExamples:
    def test_minimize_above_floor(self):
        # x >= 1 as -x <= -1
        lp = LinearProgram([1.0], A_ub=[[-1.0]], b_ub=[-1.0])
        sol = solve(lp)
        assert sol.status == "optimal"
        assert sol.objective_value == pytest.approx(1.0)
        assert sol.x[0] == pytest.approx(1.0)

    def test_simplex_vertex(self):
        lp = LinearProgram([-1.0, -1.0], A_ub=[[1.0, 1.0]], b_ub=[1.0])
        sol = solve(lp)
        assert sol.status == "optimal"
        assert sol.objective_value == pytest.approx(-1.0)
        check_feasible(lp, sol.x)

    def test_infeasible(self):
        lp = LinearProgram([1.0], A_ub=[[1.0]], b_ub=[-1.0])
        sol = solve(lp)
        assert sol.status == "infeasible"
        assert np.isnan(sol.objective_value)
        assert "infeasible" in sol.message

    def test_unbounded(self):
        lp = LinearProgram([-1.0], A_ub=[[-1.0]], b_ub=[0.0])
        sol = solve(lp)
        assert sol.status == "unbounded"
        assert np.isnan(sol.objective_value)
        assert "unbounded" in sol.message

    def test_unbounded_without_constraints(self):
        assert solve(LinearProgram([0.0, -1.0])).status == "unbounded"

    def test_equality_constraints(self):
        # x + y = 2, x - y = 0 -> (1, 1)
        lp = LinearProgram(
            [1.0, 2.0], A_eq=[[1.0, 1.0], [1.0, -1.0]], b_eq=[2.0, 0.0]
        )
        sol = solve(lp)
        assert sol.status == "optimal"
        np.testing.assert_allclose(sol.x, [1.0, 1.0], atol=1e-9)

    def test_equality_duals(self):
        # min x + 2y s.t. x + y = 2, x - y = 0: the rows are priced at 1.5
        # and -0.5, and b . y is the optimum
        lp = LinearProgram(
            [1.0, 2.0], A_eq=[[1.0, 1.0], [1.0, -1.0]], b_eq=[2.0, 0.0]
        )
        sol = solve(lp)
        np.testing.assert_allclose(sol.eq_duals, [1.5, -0.5], atol=1e-9)
        assert lp.b_eq @ sol.eq_duals == pytest.approx(sol.objective_value, abs=1e-12)

    def test_redundant_equality(self):
        lp = LinearProgram(
            [1.0, 1.0], A_eq=[[1.0, 1.0], [2.0, 2.0]], b_eq=[2.0, 4.0]
        )
        sol = solve(lp)
        assert sol.status == "optimal"
        assert sol.objective_value == pytest.approx(2.0)

    def test_degenerate_vertex(self):
        # three constraints meet at the optimum
        lp = LinearProgram(
            [-1.0, -1.0],
            A_ub=[[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]],
            b_ub=[1.0, 1.0, 2.0],
        )
        sol = solve(lp)
        assert sol.status == "optimal"
        assert sol.objective_value == pytest.approx(-2.0)

    def test_iteration_limit_status(self, monkeypatch):
        linprog, calls = fake_linprog([1])
        monkeypatch.setattr(lplib, "linprog", linprog)
        sol = solve(LinearProgram([1.0]))
        assert sol.status == "iteration-limit"
        assert calls == ["highs"]  # only numerical failures are retried

    def test_devex_pricing_and_dual_tolerance(self, monkeypatch):
        seen = []

        def linprog(c, method, options, **kwargs):
            seen.append((method, options))
            return OptimizeResult(status=0, x=np.zeros(1), fun=0.0, nit=1, message="ok")

        monkeypatch.setattr(lplib, "linprog", linprog)
        assert solve(LinearProgram([1.0])).status == "optimal"
        assert seen == [
            ("highs", {"dual_feasibility_tolerance": 1e-10,
                       "simplex_dual_edge_weight_strategy": "devex"})
        ]

    def test_zero_objective(self):
        lp = LinearProgram([0.0, 0.0], A_eq=[[1.0, 1.0]], b_eq=[1.0])
        sol = solve(lp)
        assert sol.status == "optimal"
        assert sol.objective_value == pytest.approx(0.0)
        check_feasible(lp, sol.x)

    def test_sparse_and_dense_rows_agree(self):
        rows = np.array([[1.0, 2.0, 0.0], [0.0, 1.0, 1.0]])
        dense = LinearProgram([-1.0, -1.0, -1.0], A_ub=rows, b_ub=[4.0, 3.0])
        sparse = LinearProgram(
            [-1.0, -1.0, -1.0], A_ub=dense.A_ub.tocoo(), b_ub=[4.0, 3.0]
        )
        np.testing.assert_array_equal(solve(dense).x, solve(sparse).x)


class TestNumericalFailure:
    def test_retried_with_interior_point(self, monkeypatch):
        linprog, calls = fake_linprog([4, 0])
        monkeypatch.setattr(lplib, "linprog", linprog)
        sol = solve(LinearProgram([1.0]))
        assert calls == ["highs", "highs-ipm"]
        assert sol.status == "optimal" and sol.method == "highs-ipm"
        assert sol.iterations == 14

    def test_second_failure_carries_both_messages(self, monkeypatch):
        linprog, calls = fake_linprog([4, 4])
        monkeypatch.setattr(lplib, "linprog", linprog)
        sol = solve(LinearProgram([1.0]))
        assert calls == ["highs", "highs-ipm"]
        assert sol.status == "numerical-failure"
        assert "highs status 4" in sol.message
        assert "highs-ipm status 4" in sol.message


class TestValidation:
    def test_rhs_without_matrix(self):
        with pytest.raises(ValueError, match="together"):
            LinearProgram([1.0], b_ub=[1.0])
        with pytest.raises(ValueError, match="together"):
            LinearProgram([1.0], A_eq=[[1.0]])

    def test_index_out_of_range(self):
        # a coefficient on variable 2 of a two-variable program
        with pytest.raises(ValueError):
            LinearProgram([1.0, 1.0], A_ub=[[0.0, 0.0, 1.0]], b_ub=[1.0])

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            LinearProgram([1.0], A_ub=[[np.inf]], b_ub=[1.0])
        with pytest.raises(ValueError):
            LinearProgram([1.0], A_ub=[[1.0]], b_ub=[np.nan])
        with pytest.raises(ValueError):
            LinearProgram([np.nan])

    def test_objective_length(self):
        with pytest.raises(ValueError):
            LinearProgram([])
        with pytest.raises(ValueError):
            LinearProgram([[1.0, 2.0]])

    def test_rhs_length(self):
        with pytest.raises(ValueError):
            LinearProgram([1.0], A_eq=[[1.0], [2.0]], b_eq=[1.0])


class TestDeterminism:
    def test_identical_solves(self):
        rng = np.random.default_rng(40)
        lp = random_bounded_program(rng)
        a = solve(lp)
        b = solve(lp)
        assert a.status == b.status
        assert a.iterations == b.iterations
        np.testing.assert_array_equal(a.x, b.x)


class TestVertexOracle:
    """Random bounded programs against brute-force vertex enumeration."""

    def test_battery(self):
        rng = np.random.default_rng(41)
        checked = 0
        for _ in range(120):
            lp = random_bounded_program(rng)
            sol = solve(lp)
            assert sol.status in ("optimal", "infeasible")
            oracle = vertex_enumeration_optimum(lp)
            if sol.status == "infeasible":
                assert oracle is None
                continue
            assert oracle is not None
            assert sol.objective_value == pytest.approx(oracle, abs=1e-7)
            check_feasible(lp, sol.x)
            checked += 1
        assert checked > 60  # most random programs are feasible by design
