"""Linear programs in sparse form, solved through scipy's HiGHS.

Standard form: minimize c.x subject to A_ub x <= b_ub, A_eq x = b_eq and
x >= 0.  The constraint blocks are CSR arrays, built by the caller directly
in that form; `solve` is the package's only call into a solver.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
from scipy import sparse
from scipy.optimize import linprog

# HiGHS stops once reduced costs are within this of dual feasibility.  At
# its default (1e-7) restricted noise-design solves stop up to 2e-7
# relative above the optimum, and their equality duals are what certifies
# them (adaptive._certified)
_DUAL_TOL = 1e-10
# Price the dual simplex with devex rather than HiGHS's default steepest
# edge, which costs more per iteration than it saves in iterations on the
# noise-design programs: the first R(A) of 36 analytic cells (N in {8, 16,
# 32}, eps in {0.5, 1, 2, 4}) took 2.8-3.4 s in all against 5.7 s, and that
# of an N=32 randomized-response estimate at eps=0.5 0.6-0.8 s against
# 3.6-4.0 s (2-core VM)
_PRICING = "devex"

# scipy's linprog status codes; 4 covers every HiGHS model status that is not
# a verdict on the program (solve error, unknown status, ...)
_STATUS = {
    0: "optimal",
    1: "iteration-limit",
    2: "infeasible",
    3: "unbounded",
    4: "numerical-failure",
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
    # optimal | infeasible | unbounded | iteration-limit | numerical-failure
    status: str
    x: np.ndarray
    objective_value: float
    iterations: int
    message: str  # HiGHS's own; after a retry, both methods' messages
    method: str  # the HiGHS method that produced this verdict
    eq_duals: np.ndarray  # HiGHS's d(objective)/d(b_eq); empty unless optimal


def _linprog(program: LinearProgram, method: str) -> LpSolution:
    res = linprog(
        program.objective,
        A_ub=program.A_ub,
        b_ub=program.b_ub,
        A_eq=program.A_eq,
        b_eq=program.b_eq,
        bounds=(0, None),
        method=method,
        options={
            "dual_feasibility_tolerance": _DUAL_TOL,
            "simplex_dual_edge_weight_strategy": _PRICING,
        },
    )
    x = res.x if res.x is not None else np.zeros(program.num_vars)
    optimal = res.status == 0
    value = float(res.fun) if optimal else np.nan
    eqlin = res.get("eqlin") if optimal else None
    duals = np.zeros(0) if eqlin is None else np.asarray(eqlin.marginals)
    return LpSolution(
        _STATUS[res.status], np.asarray(x), value, int(res.nit), res.message, method, duals
    )


def solve(program: LinearProgram) -> LpSolution:
    """Solve with HiGHS's default method at a dual feasibility tolerance
    of 1e-10, its dual simplex priced with devex.

    A numerical failure is retried once with the interior-point method
    (with crossover): where the coefficients span many orders of magnitude,
    HiGHS's simplex can stop with model status Unknown on a program the
    interior-point method solves.  After a retry the solution carries both
    HiGHS messages and the summed iterations.
    """
    first = _linprog(program, "highs")
    if first.status != "numerical-failure":
        return first
    retry = _linprog(program, "highs-ipm")
    return replace(
        retry,
        iterations=first.iterations + retry.iterations,
        message=f"highs: {first.message}; highs-ipm: {retry.message}",
    )
