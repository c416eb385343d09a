"""Linear programs in sparse form, solved by HiGHS through scipy's binding.

Standard form: minimize c.x subject to A_ub x <= b_ub, A_eq x = b_eq and
x >= 0.  The constraint blocks are CSR arrays, built by the caller directly
in that form; `solve` is the package's only call into a solver.

`solve` hands the program to scipy's bundled HiGHS binding directly, with
the model and options that `scipy.optimize.linprog(method="highs")` builds,
so it returns linprog's solutions bit for bit.  It skips what linprog adds
around that call: input checks (LinearProgram makes its own), option
parsing, per-column bound marginals, and a recheck of the returned point at
a tolerance of 3e-4, which can only relabel an optimum as a numerical
failure.  Each program costs one HiGHS call: a numerical failure is
reported as such, not retried with another method.  Statuses are named as
linprog names them, except that a model HiGHS refuses to load is a
model-error, where linprog says infeasible.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np
import scipy.optimize
from scipy import sparse

# Imported on its own above, rather than only as the parent of the binding's
# module below, scipy.optimize takes about 30 ms less to import (scipy
# 1.17.1, Python 3.11, 2-core VM)
try:
    from scipy.optimize._highspy._core import (
        HighsModelStatus,
        HighsStatus,
        MatrixFormat,
        ObjSense,
        _Highs,
        kHighsInf,
    )
except ImportError as err:  # the binding is private to scipy
    raise ImportError(
        "ldpmean needs scipy>=1.17.1, whose scipy.optimize._highspy._core "
        f"binding it calls HiGHS through; found scipy {scipy.__version__}"
    ) from err

# HiGHS stops once reduced costs are within this of dual feasibility.  At
# its default (1e-7) restricted noise-design solves stop up to 2e-7
# relative above the optimum, and their equality duals are what certifies
# them (adaptive._certified)
_DUAL_TOL = 1e-10
# Price the dual simplex with devex (HiGHS's strategy 1) rather than its
# default steepest edge, which costs more per iteration than it saves in
# iterations on the noise-design programs: the first R(A) of 36 analytic
# cells (N in {8, 16, 32}, eps in {0.5, 1, 2, 4}) took 2.8-3.4 s in all
# against 5.7 s, and that of an N=32 randomized-response estimate at
# eps=0.5 0.6-0.8 s against 3.6-4.0 s (2-core VM)
_DEVEX = 1

# The options linprog(method="highs") passes to HiGHS when given the two
# above, as HiGHS reads them
_OPTIONS = {
    "presolve": "on",
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


@dataclass(frozen=True)
class LinearProgram:
    """min objective . x  s.t.  A_ub x <= b_ub,  A_eq x = b_eq,  x >= 0.

    A constraint block left as None has no rows.  Matrices may be given in
    any form scipy.sparse accepts, dense rows included; they are stored as
    CSR arrays.
    """

    objective: np.ndarray
    A_ub: sparse.csr_array | None = None
    b_ub: np.ndarray | None = None
    A_eq: sparse.csr_array | None = None
    b_eq: np.ndarray | None = None

    def __post_init__(self):
        objective = np.asarray(self.objective, dtype=float)
        if objective.ndim != 1 or objective.size == 0:
            raise ValueError("objective must be a nonempty vector")
        if not np.all(np.isfinite(objective)):
            raise ValueError("objective has non-finite coefficients")
        object.__setattr__(self, "objective", objective)
        for a_name, b_name in (("A_ub", "b_ub"), ("A_eq", "b_eq")):
            a, b = getattr(self, a_name), getattr(self, b_name)
            if a is None and b is None:
                continue
            if a is None or b is None:
                raise ValueError(f"{a_name} and {b_name} must be given together")
            a = sparse.csr_array(a, dtype=float)
            b = np.asarray(b, dtype=float)
            if a.ndim != 2 or a.shape[1] != objective.size:
                raise ValueError(
                    f"{a_name} has shape {a.shape}, expected (rows, {objective.size})"
                )
            if b.shape != (a.shape[0],):
                raise ValueError(f"{b_name} length does not match the rows of {a_name}")
            if not (np.all(np.isfinite(a.data)) and np.all(np.isfinite(b))):
                raise ValueError(f"non-finite coefficient in {a_name} or {b_name}")
            object.__setattr__(self, a_name, a)
            object.__setattr__(self, b_name, b)

    @property
    def num_vars(self) -> int:
        return self.objective.size


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


def solve(program: LinearProgram) -> LpSolution:
    """Solve with one call to HiGHS's default method at a dual feasibility
    tolerance of 1e-10, its dual simplex priced with devex.

    The model is the rows [A_ub; A_eq] as CSC, bounded by (-inf, b_ub] and
    [b_eq, b_eq], and the columns by [0, inf).
    """
    n = program.num_vars
    blocks = [a for a in (program.A_ub, program.A_eq) if a is not None]
    a = sparse.vstack(blocks).tocsc() if blocks else sparse.csc_array((0, n))
    a.sum_duplicates()  # as linprog's conversion does; HiGHS rejects duplicates
    b_ub = np.zeros(0) if program.b_ub is None else program.b_ub
    b_eq = np.zeros(0) if program.b_eq is None else program.b_eq
    highs = _Highs()
    for name, value in _OPTIONS.items():
        highs.setOptionValue(name, value)
    # the array form of passModel copies each array in one piece; every
    # column is marked continuous
    passed = highs.passModel(
        n, a.shape[0], a.nnz, MatrixFormat.kColwise, ObjSense.kMinimize, 0.0,
        program.objective, np.zeros(n), np.full(n, kHighsInf),
        np.concatenate([np.full(b_ub.size, -kHighsInf), b_eq]),
        np.concatenate([b_ub, b_eq]),
        a.indptr, a.indices, a.data, np.zeros(n, dtype=np.int32),
    )
    run_seconds = 0.0
    if passed == HighsStatus.kError:
        model = HighsModelStatus.kModelError
    else:
        start = time.perf_counter()
        highs.run()
        run_seconds = time.perf_counter() - start
        model = highs.getModelStatus()
    info = highs.getInfo()
    status = _STATUS.get(model, "numerical-failure")
    message = (
        f"model_status is {highs.modelStatusToString(model)}; primal_status is "
        f"{highs.solutionStatusToString(info.primal_solution_status)}"
    )
    x, value, duals = np.zeros(n), np.nan, np.zeros(0)
    if status == "optimal":
        solution = highs.getSolution()
        x = np.array(solution.col_value)
        value = info.objective_function_value
        duals = np.array(solution.row_dual[b_ub.size :])
    iterations = 0  # HiGHS's counts are void when it stopped on an error
    if info.valid:
        iterations = info.simplex_iteration_count or info.ipm_iteration_count
    return LpSolution(
        status, x, value, iterations, message, duals, n, a.shape[0], a.nnz, run_seconds
    )

