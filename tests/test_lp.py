"""The LP layer: hand cases and statuses of `lp.solve`, container validation,
the vertex oracle, and bit-for-bit agreement with scipy's linprog."""

import importlib.machinery
import importlib.metadata
import importlib.util
import os
import re
import subprocess
import sys
import tomllib
from pathlib import Path

import numpy as np
import pytest
from packaging.requirements import Requirement
from packaging.specifiers import SpecifierSet
from packaging.version import Version
from scipy import sparse
from scipy.optimize import linprog
from scipy.optimize._highspy._core import HighsModelStatus

from ldpmean import lp as lplib
from ldpmean.adaptive import _first_half_width, _first_outputs, build_lp
from ldpmean.data import BetaDistribution, ShiftedExponential, TruncatedGaussian, true_pmf
from ldpmean.domain import make_domain
from ldpmean.freqest import collect_perturbed_histogram, reconstruct_pmf
from ldpmean.lp import LinearProgram, solve
from conftest import span
from lp_oracle import (
    EQUAL, LESS_EQUAL, csr, dense_system, random_bounded_program, rows_of,
    vertex_enumeration_optimum,
)


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


def recording_highs():
    """HiGHS class that keeps every instance solve makes."""
    made = []

    class Highs(lplib._Highs):
        def __init__(self):
            super().__init__()
            made.append(self)

    return Highs, made


def fake_highs(statuses):
    """HiGHS class whose solves end in the given model statuses in turn,
    each after 7 simplex iterations; calls records each solve's solver
    option ("choose" for HiGHS's default method)."""
    calls = []

    class Highs(lplib._Highs):
        def run(self):
            calls.append(self.getOptionValue("solver")[1])
            return super().run()

        def getModelStatus(self):
            return statuses[len(calls) - 1]

        def getInfo(self):
            info = super().getInfo()
            info.simplex_iteration_count = 7
            return info

    return Highs, calls


# model statuses with a name of their own; every other one is a numerical
# failure
VERDICTS = {
    HighsModelStatus.kOptimal: "optimal",
    HighsModelStatus.kIterationLimit: "iteration-limit",
    HighsModelStatus.kTimeLimit: "iteration-limit",
    HighsModelStatus.kInfeasible: "infeasible",
    HighsModelStatus.kModelError: "model-error",
    HighsModelStatus.kUnbounded: "unbounded",
}


class TestHandExamples:
    def test_minimize_above_floor(self):
        # x >= 1 as -x <= -1
        lp = LinearProgram([1.0], A_ub=csr([[-1.0]]), b_ub=[-1.0])
        sol = solve(lp)
        assert sol.status == "optimal"
        assert sol.objective_value == pytest.approx(1.0)
        assert sol.x[0] == pytest.approx(1.0)

    def test_simplex_vertex(self):
        lp = LinearProgram([-1.0, -1.0], A_ub=csr([[1.0, 1.0]]), b_ub=[1.0])
        sol = solve(lp)
        assert sol.status == "optimal"
        assert sol.objective_value == pytest.approx(-1.0)
        check_feasible(lp, sol.x)

    def test_infeasible(self):
        lp = LinearProgram([1.0], A_ub=csr([[1.0]]), b_ub=[-1.0])
        sol = solve(lp)
        assert sol.status == "infeasible"
        assert np.isnan(sol.objective_value)
        # with presolve off the simplex, not presolve, finds the
        # infeasibility, and so HiGHS names the primal status
        assert sol.message == "model_status is Infeasible; primal_status is Infeasible"

    def test_unbounded(self):
        lp = LinearProgram([-1.0], A_ub=csr([[-1.0]]), b_ub=[0.0])
        sol = solve(lp)
        assert sol.status == "unbounded"
        assert np.isnan(sol.objective_value)
        assert sol.message.startswith("model_status is Unbounded; ")

    def test_unbounded_without_constraints(self):
        assert solve(LinearProgram([0.0, -1.0])).status == "unbounded"

    def test_equality_constraints(self):
        # x + y = 2, x - y = 0 -> (1, 1)
        lp = LinearProgram(
            [1.0, 2.0], A_eq=csr([[1.0, 1.0], [1.0, -1.0]]), b_eq=[2.0, 0.0]
        )
        sol = solve(lp)
        assert sol.status == "optimal"
        np.testing.assert_allclose(sol.x, [1.0, 1.0], atol=1e-9)

    def test_equality_duals(self):
        # min x + 2y s.t. x + y = 2, x - y = 0: the rows are priced at 1.5
        # and -0.5, and b . y is the optimum
        b_eq = np.array([2.0, 0.0])
        lp = LinearProgram([1.0, 2.0], A_eq=csr([[1.0, 1.0], [1.0, -1.0]]), b_eq=b_eq)
        sol = solve(lp)
        np.testing.assert_allclose(sol.eq_duals, [1.5, -0.5], atol=1e-9)
        assert b_eq @ sol.eq_duals == pytest.approx(sol.objective_value, abs=1e-12)

    def test_redundant_equality(self):
        lp = LinearProgram(
            [1.0, 1.0], A_eq=csr([[1.0, 1.0], [2.0, 2.0]]), b_eq=[2.0, 4.0]
        )
        sol = solve(lp)
        assert sol.status == "optimal"
        assert sol.objective_value == pytest.approx(2.0)

    def test_degenerate_vertex(self):
        # three constraints meet at the optimum
        lp = LinearProgram(
            [-1.0, -1.0],
            A_ub=csr([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]),
            b_ub=[1.0, 1.0, 2.0],
        )
        sol = solve(lp)
        assert sol.status == "optimal"
        assert sol.objective_value == pytest.approx(-2.0)

    def test_iteration_limit_status(self, monkeypatch):
        highs, calls = fake_highs([HighsModelStatus.kIterationLimit])
        monkeypatch.setattr(lplib, "_Highs", highs)
        sol = solve(LinearProgram([1.0]))
        assert sol.status == "iteration-limit"
        assert calls == ["choose"]  # one HiGHS call per program
        assert sol.iterations == 7
        assert np.isnan(sol.objective_value) and sol.eq_duals.size == 0
        assert sol.message.startswith("model_status is Iteration limit reached; ")

    def test_devex_pricing_and_dual_tolerance(self, monkeypatch):
        highs, made = recording_highs()
        monkeypatch.setattr(lplib, "_Highs", highs)
        assert solve(LinearProgram([1.0])).status == "optimal"
        (used,) = made
        options = {name: used.getOptionValue(name)[1] for name in (
            "dual_feasibility_tolerance", "simplex_dual_edge_weight_strategy",
            "presolve", "simplex_strategy", "solver", "output_flag",
        )}
        assert options == {
            "dual_feasibility_tolerance": 1e-10,
            "simplex_dual_edge_weight_strategy": 1,  # devex
            "presolve": "off",  # R(A) is never reduced by it
            "simplex_strategy": 1,  # dual
            "solver": "choose",
            "output_flag": False,
        }

    def test_start_runs_primal_simplex_from_the_basis(self, monkeypatch):
        # an optimal solution carries its basis; given it back as a start,
        # HiGHS's primal simplex is already optimal there
        highs, made = recording_highs()
        monkeypatch.setattr(lplib, "_Highs", highs)
        program = GOLDEN[0][1]
        cold = solve(program)
        warm = solve(program, start=cold.basis)
        assert [h.getOptionValue("simplex_strategy")[1] for h in made] == [1, 4]
        assert warm.status == "optimal" and warm.iterations == 0
        assert warm.objective_value == pytest.approx(cold.objective_value, rel=1e-12)
        assert warm.basis is not None

    def test_basis_only_when_optimal(self):
        assert solve(LinearProgram([1.0], A_ub=csr([[1.0]]), b_ub=[-1.0])).basis is None
        assert solve(LinearProgram([-1.0], A_ub=csr([[-1.0]]), b_ub=[0.0])).basis is None

    def test_model_error_is_infeasible(self):
        # HiGHS refuses a coefficient of 1e16 when the model is passed;
        # linprog calls that infeasible, but nothing was solved, so it is a
        # model error, and no iterations were made
        sol = solve(LinearProgram([1.0], A_ub=csr([[1e16]]), b_ub=[1.0]))
        assert sol.status == "model-error" and sol.iterations == 0
        assert sol.message == "model_status is Model error; primal_status is None"

    @pytest.mark.parametrize(
        "model", list(HighsModelStatus.__members__.values()), ids=lambda m: m.name
    )
    def test_status_mapping(self, model, monkeypatch):
        expected = VERDICTS.get(model, "numerical-failure")
        highs, calls = fake_highs([model])
        monkeypatch.setattr(lplib, "_Highs", highs)
        sol = solve(LinearProgram([1.0]))
        assert sol.status == expected
        assert calls == ["choose"] and sol.iterations == 7
        name = lplib._Highs().modelStatusToString(model)
        assert f"model_status is {name}; primal_status is " in sol.message

    def test_zero_objective(self):
        lp = LinearProgram([0.0, 0.0], A_eq=csr([[1.0, 1.0]]), b_eq=[1.0])
        sol = solve(lp)
        assert sol.status == "optimal"
        assert sol.objective_value == pytest.approx(0.0)
        check_feasible(lp, sol.x)



class TestNumericalFailure:
    def test_reported_without_retry(self, monkeypatch):
        highs, calls = fake_highs([HighsModelStatus.kUnknown, HighsModelStatus.kOptimal])
        monkeypatch.setattr(lplib, "_Highs", highs)
        sol = solve(LinearProgram([1.0]))
        assert calls == ["choose"]
        assert sol.status == "numerical-failure" and sol.iterations == 7
        assert np.isnan(sol.objective_value) and sol.eq_duals.size == 0
        assert sol.run_seconds > 0.0
        assert sol.message.startswith("model_status is Unknown; primal_status is ")

    def test_solve_error_carries_the_highs_message(self, monkeypatch):
        highs, calls = fake_highs([HighsModelStatus.kSolveError])
        monkeypatch.setattr(lplib, "_Highs", highs)
        sol = solve(LinearProgram([1.0]))
        assert calls == ["choose"]
        assert sol.status == "numerical-failure"
        assert sol.message.startswith("model_status is Solve error; primal_status is ")


class TestValidation:
    def test_rhs_without_matrix(self):
        with pytest.raises(ValueError, match="together"):
            LinearProgram([1.0], b_ub=[1.0])
        with pytest.raises(ValueError, match="together"):
            LinearProgram([1.0], A_eq=csr([[1.0]]))

    def test_only_csr_blocks(self):
        # dense rows, a scipy sparse matrix and a bare triple are refused
        rows = [[1.0, 2.0, 0.0], [0.0, 1.0, 1.0]]
        triple = tuple(csr(rows))
        for block in (rows, np.array(rows), sparse.csr_array(rows), triple):
            with pytest.raises(TypeError, match="A_ub must be an lp.Csr"):
                LinearProgram([-1.0, -1.0, -1.0], A_ub=block, b_ub=[4.0, 3.0])
            with pytest.raises(TypeError, match="A_eq must be an lp.Csr"):
                LinearProgram([-1.0, -1.0, -1.0], A_eq=block, b_eq=[4.0, 3.0])
        assert LinearProgram([-1.0, -1.0, -1.0], A_ub=csr(rows), b_ub=[4.0, 3.0])

    def test_index_out_of_range(self):
        # a coefficient on variable 2 of a two-variable program
        with pytest.raises(ValueError):
            LinearProgram([1.0, 1.0], A_ub=csr([[0.0, 0.0, 1.0]]), b_ub=[1.0])

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            LinearProgram([1.0], A_ub=csr([[np.inf]]), b_ub=[1.0])
        with pytest.raises(ValueError):
            LinearProgram([1.0], A_ub=csr([[1.0]]), b_ub=[np.nan])
        with pytest.raises(ValueError):
            LinearProgram([np.nan])

    def test_objective_length(self):
        with pytest.raises(ValueError):
            LinearProgram([])
        with pytest.raises(ValueError):
            LinearProgram([[1.0, 2.0]])

    def test_rhs_length(self):
        with pytest.raises(ValueError):
            LinearProgram([1.0], A_eq=csr([[1.0], [2.0]]), b_eq=[1.0])

    def test_with_objective(self):
        # another objective of the same length, finite, on the same
        # read-only constraint arrays; the program it came from is unchanged,
        # and so is each program when its caller's arrays change
        cost, upper = np.array([1.0, 2.0]), csr([[1.0, 1.0]])
        program = LinearProgram(cost, A_ub=upper, b_ub=[4.0],
                                A_eq=csr([[1.0, -1.0]]), b_eq=[0.0])
        swapped = np.array([-1.0, -1.0])
        other = program.with_objective(swapped)
        cost[0] = upper.data[0] = swapped[0] = 7.0
        assert other.objective.tolist() == [-1.0, -1.0]
        assert program.objective.tolist() == [1.0, 2.0]
        assert other.rows is program.rows
        assert other.row_lower is program.row_lower and other.row_upper is program.row_upper
        assert solve(other).objective_value == -4.0
        for array in (other.objective, *other.rows, other.row_lower, other.row_upper):
            assert not array.flags.writeable
        for bad in ([1.0], [1.0, 2.0, 3.0], [[1.0, 2.0]]):
            with pytest.raises(ValueError):
                program.with_objective(bad)
        for bad in ([np.nan, 1.0], [1.0, np.inf]):
            with pytest.raises(ValueError, match="non-finite"):
                program.with_objective(bad)

    def test_holds_one_copy_of_its_rows(self):
        # a program's only array state is its objective and its rows with
        # their bounds, read-only, in the layout HiGHS takes; with_objective
        # shares them, and later writes to the caller's arrays are not seen
        upper, b_ub = csr([[1.0, 2.0, 0.0], [0.0, 1.0, 1.0]]), np.array([4.0, 3.0])
        fixed, b_eq = csr([[1.0, -1.0, 0.0]]), np.array([0.5])
        program = LinearProgram([1.0, 1.0, 1.0], A_ub=upper, b_ub=b_ub, A_eq=fixed, b_eq=b_eq)
        assert set(vars(program)) == {"objective", "rows", "row_lower", "row_upper"}
        assert isinstance(program.rows, lplib.Csr)
        assert [a.dtype for a in program.rows] == [np.int32, np.int32, np.float64]
        arrays = (program.objective, *program.rows, program.row_lower, program.row_upper)
        for array in arrays:
            assert not array.flags.writeable
        other = program.with_objective([2.0, 2.0, 2.0])
        assert other.rows is program.rows
        assert other.row_lower is program.row_lower and other.row_upper is program.row_upper
        for array in (*upper, *fixed, b_ub, b_eq):
            array[...] = 0
        want = ([0, 2, 4, 6], [0, 1, 1, 2, 0, 1], [1.0, 2.0, 1.0, 1.0, 1.0, -1.0],
                [-np.inf, -np.inf, 0.5], [4.0, 3.0, 0.5])
        for got, expected in zip(arrays[1:], want):
            np.testing.assert_array_equal(got, expected)


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


BINDING = "scipy.optimize._highspy._core"
PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def run_fresh(code):
    """Run code in a fresh interpreter that imports ldpmean from src/ and
    the test helpers from tests/."""
    tests = Path(__file__).resolve().parent
    path = os.pathsep.join(
        [str(tests.parent / "src"), str(tests), os.environ.get("PYTHONPATH", "")]
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr


class TestBinding:
    def test_missing_binding_names_the_scipy_floor(self, monkeypatch, tmp_path):
        pyproject = PYPROJECT.read_text()
        floor = re.search(r'"(scipy>=[0-9.]+)"', pyproject).group(1)
        spec = importlib.util.spec_from_file_location("lp_without_binding", lplib.__file__)
        # a None entry in sys.modules
        monkeypatch.setitem(sys.modules, BINDING, None)
        with pytest.raises(ImportError, match=re.escape(floor)):
            spec.loader.exec_module(importlib.util.module_from_spec(spec))
        # no entry, and a scipy tree without the binding's file
        monkeypatch.delitem(sys.modules, BINDING)
        tree = importlib.machinery.ModuleSpec("scipy", None, is_package=True)
        tree.submodule_search_locations = [str(tmp_path)]
        monkeypatch.setattr(importlib.util, "find_spec", lambda name: tree)
        with pytest.raises(ImportError, match=re.escape(floor)):
            spec.loader.exec_module(importlib.util.module_from_spec(spec))

    def test_floors_are_not_below_the_scipy_floors_own(self):
        # scipy at its floor is installed, and ldpmean runs on no Python or
        # numpy that this scipy does not run on
        project = tomllib.loads(PYPROJECT.read_text())["project"]
        scipy = importlib.metadata.distribution("scipy")

        def floor(specifier):
            specifiers = SpecifierSet(str(specifier))
            return max(Version(s.version) for s in specifiers if s.operator == ">=")

        def numpy_floor(requirements):
            return next(floor(r.specifier) for r in map(Requirement, requirements)
                        if r.name == "numpy" and r.marker is None)

        assert floor(project["requires-python"]) >= floor(scipy.metadata["Requires-Python"])
        assert numpy_floor(project["dependencies"]) >= numpy_floor(scipy.requires)

    def test_import_loads_only_the_binding_from_scipy(self):
        # the binding is the package's one scipy module: importing it, the
        # analytic pmfs (closed forms in math and numpy) and the variance
        # and optimize commands that solve against them load no other
        run_fresh(f"""
import sys
import ldpmean, ldpmean.cli

def only_the_binding():
    loaded = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
    assert all(m == {BINDING!r} or m.startswith({BINDING + "."!r}) for m in loaded), loaded

only_the_binding()
domain = ldpmean.make_domain(1.0, 4)
for law in (ldpmean.TruncatedGaussian(0.0, 0.1), ldpmean.ShiftedExponential(6.0),
            ldpmean.BetaDistribution(0.5, 0.5)):
    assert abs(ldpmean.true_pmf(law, domain).masses.sum() - 1.0) < 1e-12
only_the_binding()
common = ["--bins", "4", "--eps", "1", "--out", "-"]
ldpmean.cli.main(["variance", "--dataset", "gaussian", "--mechanisms", "adaptive,duchi", *common])
ldpmean.cli.main(["optimize", "--dataset", "beta", *common])
only_the_binding()
""")

    @pytest.mark.parametrize("first", ["ldpmean", "scipy.optimize"])
    def test_scipy_optimize_shares_the_binding(self, first):
        run_fresh(f"""
import sys
import {first}
import numpy as np
from ldpmean import lp
from test_lp import GOLDEN, linprog_reference

assert lp._Highs is sys.modules[{BINDING!r}]._Highs
program = dict(GOLDEN)["gaussian-n16-eps1.0"]
ref = linprog_reference(program)
np.testing.assert_array_equal(lp.solve(program).x, ref.x)
""")


class TestSolveRecord:
    """A solution records the program HiGHS received and its run time."""

    def test_counts_equal_the_program_shapes(self):
        d8 = make_domain(1.0, 8)
        pmf = true_pmf(TruncatedGaussian(mu=0.0, sd=0.1), d8)
        restricted = build_lp(pmf, span(8, _first_half_width(8, 1.0)), 1.0)
        window = build_lp(pmf, span(8, 32 - 8), 1.0)  # the window program at M=32
        unconstrained = LinearProgram([1.0, 2.0, 0.0])
        for program in (restricted, window, unconstrained):
            blocks = [rows_of(program, sense)[0] for sense in (LESS_EQUAL, EQUAL)]
            blocks = [a for a in blocks if a is not None]
            sol = solve(program)
            assert sol.status == "optimal"
            assert sol.columns == program.num_vars == sol.x.size
            assert sol.rows == sum(a.shape[0] for a in blocks)
            assert sol.nonzeros == sum(a.nnz for a in blocks)
            assert sol.run_seconds > 0.0


def linprog_reference(program):
    """scipy's linprog(method="highs") with solve's options, given the
    program's rows as A_ub and A_eq by their bounds."""
    (a_ub, b_ub), (a_eq, b_eq) = rows_of(program, LESS_EQUAL), rows_of(program, EQUAL)
    return linprog(
        program.objective, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq, bounds=(0, None),
        method="highs",
        options={"dual_feasibility_tolerance": 1e-10,
                 "simplex_dual_edge_weight_strategy": "devex"},
    )


def rr_pmf(n, eps, seed):
    """The randomized-response estimate of 1000 clipped N(0, 0.2) clients."""
    rng = np.random.default_rng(seed)
    xs = np.clip(rng.normal(0.0, 0.2, 1000), -1.0, 1.0)
    return reconstruct_pmf(collect_perturbed_histogram(make_domain(1.0, n), xs, eps, rng), eps)


def golden_programs():
    """(label, program): R(A) at the first A for the 15 benchmark cells at
    N=16, restricted programs of randomized-response estimates at N=8 and
    N=16, two window programs R(M - N): at N=4, M=16, and at N=8, M=24,
    eps=0.5, whose optimum puts mass on the window's edges, and the first
    program of output generation (a stride grid of outputs) at N=16,
    M=64, eps=1."""
    d16 = make_domain(1.0, 16)
    dists = {
        "gaussian": TruncatedGaussian(mu=0.0, sd=0.1),
        "uniform": BetaDistribution(a=1.0, b=1.0),
        "exponential": ShiftedExponential(rate=6.0),
    }
    for name, dist in dists.items():
        pmf = true_pmf(dist, d16)
        for eps in (0.5, 1.0, 2.0, 4.0, 8.0):
            a = _first_half_width(16, eps)
            yield f"{name}-n16-eps{eps}", build_lp(pmf, span(16, a), eps)
    for n in (8, 16):
        a = _first_half_width(n, 1.0)
        yield f"rr-n{n}", build_lp(rr_pmf(n, 1.0, 5), span(n, a), 1.0)
    for n, m, eps in ((4, 16, 1.0), (8, 24, 0.5)):
        domain = make_domain(1.0, n)
        program = build_lp(true_pmf(dists["gaussian"], domain), span(n, m - n), eps)
        yield f"window-n{n}-m{m}", program
    pmf = true_pmf(dists["gaussian"], d16)
    yield "grid-n16-eps1.0", build_lp(pmf, _first_outputs(16, 64, 1.0), 1.0)


GOLDEN = list(golden_programs())


class TestMatchesLinprog:
    """solve calls scipy's private HiGHS binding with the model and options
    linprog builds, so its answers are linprog's, bit for bit; a scipy
    release that changes the binding fails here."""

    @pytest.mark.parametrize("label, program", GOLDEN, ids=[n for n, _ in GOLDEN])
    def test_bit_for_bit(self, label, program):
        sol = solve(program)
        ref = linprog_reference(program)
        assert ref.status == 0 and sol.status == "optimal"
        assert sol.iterations == ref.nit
        np.testing.assert_array_equal(sol.x, ref.x)
        assert sol.objective_value == ref.fun
        np.testing.assert_array_equal(sol.eq_duals, ref.eqlin.marginals)


def model_programs():
    """(label, program): the golden programs, and R(A) at the first A for
    N in {4, 8, 16} and eps in {0.5, 2, 8}."""
    yield from GOLDEN
    for n in (4, 8, 16):
        domain = make_domain(1.0, n)
        pmf = true_pmf(TruncatedGaussian(mu=0.0, sd=0.1), domain)
        for eps in (0.5, 2.0, 8.0):
            a = _first_half_width(n, eps)
            yield f"build-n{n}-eps{eps}", build_lp(pmf, span(n, a), eps)


MODEL_PROGRAMS = list(model_programs())


class TestModelIdentity:
    """solve passes the blocks row-wise, as the arrays that scipy's vstack
    and tocsr, duplicates summed, make of them, and HiGHS solves its column
    copy of them: the CSC arrays of linprog's model."""

    @pytest.mark.parametrize("label, program", MODEL_PROGRAMS, ids=[n for n, _ in MODEL_PROGRAMS])
    def test_csc_arrays(self, label, program, monkeypatch):
        passed, made = [], []

        class Highs(lplib._Highs):
            def passModel(self, *args):
                passed.append(args)
                made.append(self)
                return super().passModel(*args)

        monkeypatch.setattr(lplib, "_Highs", Highs)
        solve(program)
        (a_ub, b_ub), (a_eq, b_eq) = rows_of(program, LESS_EQUAL), rows_of(program, EQUAL)
        ref = sparse.vstack([a_ub, a_eq]).tocsr()
        ref.sum_duplicates()
        lower, upper = passed[0][9:11]
        np.testing.assert_array_equal(lower, np.concatenate([np.full(b_ub.size, -np.inf), b_eq]))
        np.testing.assert_array_equal(upper, np.concatenate([b_ub, b_eq]))
        starts, indices, data = passed[0][11:14]
        assert passed[0][3] == lplib.MatrixFormat.kRowwise
        assert starts.dtype == indices.dtype == np.int32 and data.dtype == np.float64
        for got, want in ((starts, ref.indptr), (indices, ref.indices), (data, ref.data)):
            np.testing.assert_array_equal(got, want)
        assert passed[0][1:3] == (ref.shape[0], ref.nnz)
        solved = made[0].getLp().a_matrix_
        assert solved.format_ == lplib.MatrixFormat.kColwise
        csc = ref.tocsc()
        for got, want in ((solved.start_, csc.indptr), (solved.index_, csc.indices),
                          (solved.value_, csc.data)):
            np.testing.assert_array_equal(got, want)
