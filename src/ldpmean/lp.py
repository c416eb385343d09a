"""Linear programs in sparse form, solved by HiGHS through scipy's binding.

Standard form: minimize c.x subject to A_ub x <= b_ub, A_eq x = b_eq and
x >= 0.  The caller builds the constraint blocks as CSR triples of numpy
arrays; a LinearProgram keeps one read-only copy of them, concatenated in
the row-wise layout HiGHS takes as it is (it builds its own column copy):
the rows [A_ub; A_eq], bounded by (-inf, b_ub] and [b_eq, b_eq].
with_objective makes the same program with another objective, sharing
those arrays.  `solve` is the package's only call into a solver.

`solve` hands the program to scipy's bundled HiGHS binding directly, with
the model and options that `scipy.optimize.linprog(method="highs")` builds,
so it returns linprog's solutions bit for bit.  It skips what linprog adds
around that call: input checks (LinearProgram makes its own), option
parsing, per-column bound marginals, and a recheck of the returned point at
a tolerance of 3e-4, which can only relabel an optimum as a numerical
failure.  It also turns HiGHS's presolve off: the noise-design programs
come out of it unreduced, so it only costs time, and on them the answers
stay linprog's bit for bit.  Each call of `solve` is one HiGHS run: a
numerical failure is reported as such, not retried with another method.
Statuses are named as linprog names them, except that a model HiGHS
refuses to load is a model-error, where linprog says infeasible.

Given a start, `solve` runs HiGHS's primal simplex from that basis instead:
the optimal basis of an earlier program with the same constraints and
another objective is primal feasible for this one, and so is that of a
program this one extends by columns and rows that its optimum, padded
with zeros, satisfies (extend_basis).  Primal simplex keeps the start
feasible, where the dual simplex would first give up that feasibility.
Every optimal solution carries its basis for the next start.

The binding is loaded from its file in scipy's tree under its own module
name, without importing scipy, scipy.optimize or scipy.sparse, which would
take most of the package's import time; scipy.optimize, imported before or
after, reuses the same module.
"""

from __future__ import annotations

import copy
import importlib.machinery
import importlib.util
import os
import sys
import time
from dataclasses import InitVar, dataclass, field
from typing import NamedTuple

import numpy as np

_BINDING = "scipy.optimize._highspy._core"


def _load_binding():
    """HiGHS's binding: its sys.modules entry, or else the module loaded
    from its file in scipy's tree and registered there, where scipy's own
    import of it finds it.  Raises ImportError when the entry is None or
    the file is absent."""
    if _BINDING in sys.modules:
        if sys.modules[_BINDING] is None:
            raise ImportError(f"import of {_BINDING} halted; None in sys.modules")
        return sys.modules[_BINDING]
    scipy_spec = importlib.util.find_spec("scipy")  # runs no scipy code
    if scipy_spec is None:
        raise ImportError("no scipy found")
    stem = os.path.join(scipy_spec.submodule_search_locations[0], "optimize", "_highspy", "_core")
    paths = [stem + suffix for suffix in importlib.machinery.EXTENSION_SUFFIXES]
    path = next((p for p in paths if os.path.isfile(p)), None)
    if path is None:
        raise ImportError(f"no {_BINDING} extension at {stem}")
    loader = importlib.machinery.ExtensionFileLoader(_BINDING, path)
    module = importlib.util.module_from_spec(importlib.util.spec_from_loader(_BINDING, loader))
    sys.modules[_BINDING] = module
    loader.exec_module(module)
    return module


try:  # the binding is private to scipy
    _core = _load_binding()
    HighsBasis = _core.HighsBasis
    HighsBasisStatus = _core.HighsBasisStatus
    HighsModelStatus = _core.HighsModelStatus
    HighsStatus = _core.HighsStatus
    MatrixFormat = _core.MatrixFormat
    ObjSense = _core.ObjSense
    _Highs = _core._Highs
    kHighsInf = _core.kHighsInf
except (ImportError, AttributeError) as err:
    import importlib.metadata

    raise ImportError(
        f"ldpmean needs scipy>=1.17.1, whose {_BINDING} binding it calls HiGHS "
        f"through; found scipy {importlib.metadata.version('scipy')}"
    ) from err

# HiGHS stops once reduced costs are within this of dual feasibility.  At
# its default (1e-7) noise-design solves over a subset of the outputs stop
# up to 2e-7 relative above the optimum, and their equality duals are what
# prices the outputs left out (adaptive._solve_generated, _certified)
_DUAL_TOL = 1e-10
# Price the dual simplex with devex (HiGHS's strategy 1) rather than its
# default steepest edge, which costs more per iteration than it saves in
# iterations on the noise-design programs: the program over the outputs
# [-A, N+A] at the first A, R(A), of 36 analytic cells (N in {8, 16, 32},
# eps in {0.5, 1, 2, 4}) took 2.8-3.4 s in all
# against 5.7 s, and that of an N=32 randomized-response estimate at
# eps=0.5 0.6-0.8 s against 3.6-4.0 s (2-core VM)
_DEVEX = 1

# The options linprog(method="highs") passes to HiGHS when given the two
# above, as HiGHS reads them, but with presolve off: HiGHS reports every
# R(A) "Not reduced", and without presolve the first R(A) of the three
# design laws at N=16 ran 9% faster at eps 0.5, up to 28% at eps 8
_OPTIONS = {
    "presolve": "off",
    "simplex_strategy": 1,  # dual
    "simplex_dual_edge_weight_strategy": _DEVEX,
    "dual_feasibility_tolerance": _DUAL_TOL,
    "output_flag": False,
    "log_to_console": False,
}

# HiGHS model statuses as linprog maps them, except that a model HiGHS
# refuses to load is a model error, not a verdict of infeasibility; every
# other status (solve error, Unknown, ...) is not a verdict on the program
_STATUS = {
    HighsModelStatus.kOptimal: "optimal",
    HighsModelStatus.kIterationLimit: "iteration-limit",
    HighsModelStatus.kTimeLimit: "iteration-limit",
    HighsModelStatus.kInfeasible: "infeasible",
    HighsModelStatus.kModelError: "model-error",
    HighsModelStatus.kUnbounded: "unbounded",
}
# HiGHS's simplex strategy from a start basis: primal (dual is 1).  A
# noise-design start is the last round's optimal basis extended to the
# outputs that output generation adds, or the stored one of another pmf
# over the same outputs; both are primal feasible.  From the basis of one
# randomized-response estimate at N=16, eps=1, the contiguous program of
# the next took 88-189 primal iterations, 371-389 dual ones and 983-1132 cold
_PRIMAL = 4


class Csr(NamedTuple):
    """A constraint block in compressed sparse rows: row r has the
    coefficients data[indptr[r]:indptr[r + 1]] in the columns indices[same],
    no column twice.  The row count is indptr.size - 1."""

    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray


def csr_from_rows(cols: np.ndarray, vals: np.ndarray) -> Csr:
    """Csr of the rows r of 2-D blocks, with the coefficients vals[r] in the
    columns cols[r]; zero coefficients are left out."""
    keep = vals != 0.0
    return Csr(np.concatenate([[0], np.cumsum(keep.sum(axis=1))]), cols[keep], vals[keep])


def _as_objective(objective) -> np.ndarray:
    """A read-only copy of objective as floats; raises ValueError unless
    it is a nonempty vector of finite coefficients."""
    objective = np.array(objective, dtype=float)
    objective.setflags(write=False)
    if objective.ndim != 1 or objective.size == 0:
        raise ValueError("objective must be a nonempty vector")
    if not np.all(np.isfinite(objective)):
        raise ValueError("objective has non-finite coefficients")
    return objective


def _check_csr(a: Csr, n: int, name: str) -> None:
    """Check the Csr block a against n columns, copying nothing.  Raises
    TypeError for a block of any other type, ValueError for a malformed
    one."""
    if not isinstance(a, Csr):
        raise TypeError(f"{name} must be an lp.Csr, got {type(a).__name__}")
    indptr, indices = np.asarray(a.indptr), np.asarray(a.indices)
    data = np.asarray(a.data, dtype=float)
    if not (
        indptr.ndim == 1 and indptr.size >= 1 and indptr[0] == 0
        and np.all(np.diff(indptr) >= 0) and indptr[-1] == indices.size == data.size
    ):
        raise ValueError(f"{name} is not a CSR triple")
    if indices.size and not (0 <= indices.min() and indices.max() < n):
        raise ValueError(f"{name} has a column index outside [0, {n})")
    if not np.all(np.isfinite(data)):
        raise ValueError(f"non-finite coefficient in {name}")


@dataclass(frozen=True)
class LinearProgram:
    """min objective . x  s.t.  A_ub x <= b_ub,  A_eq x = b_eq,  x >= 0.

    A constraint block left as None has no rows; any other block is a Csr
    (csr_from_rows builds one from 2-D blocks of columns and coefficients).
    The program keeps one read-only copy of its constraints, as HiGHS's
    passModel takes them: rows, the Csr of [A_ub; A_eq] with int32 starts
    and column indices, each row r bounded by row_lower[r] and row_upper[r],
    (-inf, b_ub] for the rows of A_ub and [b_eq, b_eq] for those of A_eq.
    """

    objective: np.ndarray
    A_ub: InitVar[Csr | None] = None
    b_ub: InitVar[np.ndarray | None] = None
    A_eq: InitVar[Csr | None] = None
    b_eq: InitVar[np.ndarray | None] = None
    rows: Csr = field(init=False, repr=False, compare=False)
    row_lower: np.ndarray = field(init=False, repr=False, compare=False)
    row_upper: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self, A_ub, b_ub, A_eq, b_eq):
        objective = _as_objective(self.objective)
        object.__setattr__(self, "objective", objective)
        blocks, lower, upper = [], [np.zeros(0)], [np.zeros(0)]
        for a_name, a, b_name, b in (("A_ub", A_ub, "b_ub", b_ub), ("A_eq", A_eq, "b_eq", b_eq)):
            if a is None and b is None:
                continue
            if a is None or b is None:
                raise ValueError(f"{a_name} and {b_name} must be given together")
            _check_csr(a, objective.size, a_name)
            b = np.asarray(b, dtype=float)
            if b.shape != (len(a.indptr) - 1,):
                raise ValueError(f"{b_name} length does not match the rows of {a_name}")
            if not np.all(np.isfinite(b)):
                raise ValueError(f"non-finite coefficient in {b_name}")
            blocks.append(a)
            lower.append(b if a_name == "A_eq" else np.full(b.size, -kHighsInf))
            upper.append(b)
        # each concatenation makes a new array: the program's own copy
        rows = Csr(
            np.cumsum(np.concatenate([[0]] + [np.diff(a.indptr) for a in blocks]), dtype=np.int32),
            np.concatenate([np.zeros(0, np.int32)] + [a.indices for a in blocks], dtype=np.int32),
            np.concatenate([np.zeros(0)] + [a.data for a in blocks], dtype=float),
        )
        lower, upper = np.concatenate(lower), np.concatenate(upper)
        for array in (*rows, lower, upper):
            array.setflags(write=False)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "row_lower", lower)
        object.__setattr__(self, "row_upper", upper)

    @property
    def num_vars(self) -> int:
        return self.objective.size

    def with_objective(self, objective) -> LinearProgram:
        """This program with another objective of the same length; its rows
        and their bounds are shared, not built or checked again.  Raises
        ValueError for an objective of another length or with a non-finite
        coefficient."""
        objective = _as_objective(objective)
        if objective.size != self.num_vars:
            raise ValueError(
                f"objective has {objective.size} coefficients; the program has {self.num_vars}"
            )
        program = copy.copy(self)
        object.__setattr__(program, "objective", objective)
        return program


@dataclass(frozen=True)
class LpSolution:
    # optimal | infeasible | unbounded | iteration-limit | model-error |
    # numerical-failure
    status: str
    x: np.ndarray
    objective_value: float
    iterations: int
    message: str  # HiGHS's own
    eq_duals: np.ndarray  # HiGHS's d(objective)/d(b_eq); empty unless optimal
    # what HiGHS received, and the seconds its run took
    columns: int
    rows: int
    nonzeros: int
    run_seconds: float
    # HiGHS's optimal basis, a start for programs with the same constraints;
    # None unless optimal
    basis: HighsBasis | None = None


def extend_basis(
    basis: HighsBasis, cols: np.ndarray, rows: np.ndarray, n_cols: int, n_rows: int
) -> HighsBasis:
    """basis, of a program whose column c and row r are column cols[c] and
    row rows[r] of a larger one, extended to the larger program: every
    other column nonbasic at its lower bound 0, every other row basic.  One
    basic variable per added row keeps the basis square, and it is primal
    feasible for the larger program wherever the old point padded with
    zeros is feasible.  Most of the cost is the binding's conversion of
    the statuses to Python objects and back; placing them in lists takes
    a few microseconds."""
    col_status = [HighsBasisStatus.kLower] * n_cols
    for c, status in zip(cols.tolist(), basis.col_status):
        col_status[c] = status
    row_status = [HighsBasisStatus.kBasic] * n_rows
    for r, status in zip(rows.tolist(), basis.row_status):
        row_status[r] = status
    wider = HighsBasis()
    wider.col_status = col_status
    wider.row_status = row_status
    wider.valid = True
    wider.alien = False
    return wider


def solve(program: LinearProgram, start: HighsBasis | None = None) -> LpSolution:
    """Solve with one HiGHS run at a dual feasibility tolerance of 1e-10:
    its dual simplex priced with devex, or with a start basis (an earlier
    solution's `basis`, of a program with the same constraints, or one
    that extend_basis widened to this program) its primal simplex from
    that basis.

    The model is the program's objective, rows and row bounds, with every
    column in [0, inf) and continuous.
    """
    n, rows = program.num_vars, program.rows
    m, nonzeros = program.row_lower.size, rows.data.size
    highs = _Highs()
    for name, value in _OPTIONS.items():
        highs.setOptionValue(name, value)
    # the array form of passModel copies each array in one piece
    passed = highs.passModel(
        n, m, nonzeros, MatrixFormat.kRowwise, ObjSense.kMinimize, 0.0, program.objective,
        np.zeros(n), np.full(n, kHighsInf), program.row_lower, program.row_upper, *rows,
        np.zeros(n, dtype=np.int32),
    )
    run_seconds = 0.0
    if passed == HighsStatus.kError:
        model = HighsModelStatus.kModelError
    else:
        if start is not None:
            highs.setOptionValue("simplex_strategy", _PRIMAL)
            highs.setBasis(start)
        began = time.perf_counter()
        highs.run()
        run_seconds = time.perf_counter() - began
        model = highs.getModelStatus()
    info = highs.getInfo()
    status = _STATUS.get(model, "numerical-failure")
    message = (
        f"model_status is {highs.modelStatusToString(model)}; primal_status is "
        f"{highs.solutionStatusToString(info.primal_solution_status)}"
    )
    x, value, duals, basis = np.zeros(n), np.nan, np.zeros(0), None
    if status == "optimal":
        solution = highs.getSolution()
        x = np.array(solution.col_value)
        value = info.objective_function_value
        duals = np.array(solution.row_dual)[program.row_lower == program.row_upper]
        basis = highs.getBasis()
    # HiGHS's counts are void when it stopped on an error; every run is simplex
    iterations = info.simplex_iteration_count if info.valid else 0
    return LpSolution(
        status, x, value, iterations, message, duals, n, m, nonzeros, run_seconds, basis
    )
