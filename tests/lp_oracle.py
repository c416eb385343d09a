"""Brute-force LP oracle: enumerate basic points of small bounded programs.

Every optimum of a bounded feasible LP sits on a vertex, i.e. a point where
n linearly independent constraints (rows or nonnegativity bounds) are tight.
For programs with a handful of variables we can afford to try every subset.
"""

import itertools

import numpy as np
from scipy.sparse import csr_array

from ldpmean.lp import Csr, LinearProgram, csr_from_rows

LESS_EQUAL = "<="
EQUAL = "="
GREATER_EQUAL = ">="


def csr(rows) -> Csr:
    """The lp.Csr of a block written out as dense rows, zeros left out:
    LinearProgram takes its blocks only as Csr."""
    rows = np.asarray(rows, dtype=float)
    return csr_from_rows(np.broadcast_to(np.arange(rows.shape[1]), rows.shape), rows)


def row_senses(lp: LinearProgram) -> np.ndarray:
    """Each row's sense, read from its bounds: = where they are equal, <=
    where the row is bounded only above."""
    fixed = lp.row_lower == lp.row_upper
    assert np.all(fixed | (lp.row_lower == -np.inf)), "a row bounded below only"
    return np.where(fixed, EQUAL, LESS_EQUAL)


def as_csr(lp: LinearProgram):
    """The rows of lp as a scipy CSR array."""
    rows = lp.rows
    return csr_array((rows.data, rows.indices, rows.indptr), shape=(lp.row_upper.size, lp.num_vars))


def rows_of(lp: LinearProgram, sense: str):
    """(block, rhs): the rows of lp of the given sense, in their order in
    lp, as a scipy CSR array, and their right-hand sides; (None, None)
    when lp has none."""
    picked = np.flatnonzero(row_senses(lp) == sense)
    if picked.size == 0:
        return None, None
    return as_csr(lp)[picked], lp.row_upper[picked]


def dense_system(lp: LinearProgram):
    """(rows, senses, rhs): lp's rows, dense, in their order in lp."""
    return as_csr(lp).toarray(), list(row_senses(lp)), lp.row_upper


def feasible(point, rows, senses, rhs, tol=1e-7):
    if np.any(point < -tol):
        return False
    vals = rows @ point
    for v, s, b in zip(vals, senses, rhs):
        if s == LESS_EQUAL and v > b + tol:
            return False
        if s == GREATER_EQUAL and v < b - tol:
            return False
        if s == EQUAL and abs(v - b) > tol:
            return False
    return True


def vertex_enumeration_optimum(lp: LinearProgram):
    """Minimum objective over all vertices, or None when infeasible."""
    n = lp.num_vars
    rows, senses, rhs = dense_system(lp)
    pool = [(rows[i], rhs[i]) for i in range(len(rows))]
    for j in range(n):
        bound_row = np.zeros(n)
        bound_row[j] = 1.0
        pool.append((bound_row, 0.0))
    best = None
    for subset in itertools.combinations(range(len(pool)), n):
        a = np.asarray([pool[i][0] for i in subset])
        b = np.asarray([pool[i][1] for i in subset])
        try:
            point = np.linalg.solve(a, b)
        except np.linalg.LinAlgError:
            continue
        if feasible(point, rows, senses, rhs):
            value = float(lp.objective @ point)
            if best is None or value < best:
                best = value
    return best


def random_bounded_program(rng: np.random.Generator) -> LinearProgram:
    """Feasible-by-construction program with a box keeping it bounded.

    Each drawn row is <=, >= or =; a >= row is stored negated in A_ub."""
    n = int(rng.integers(2, 7))
    m = int(rng.integers(1, 7))
    x0 = rng.uniform(0.0, 3.0, size=n)
    objective = rng.integers(-5, 6, size=n).astype(float)
    ub_rows, ub_rhs, eq_rows, eq_rhs = [], [], [], []
    for _ in range(m):
        row = rng.integers(-5, 6, size=n).astype(float)
        if not row.any():
            row[int(rng.integers(0, n))] = 1.0
        anchored = float(row @ x0)
        sense = (LESS_EQUAL, GREATER_EQUAL, EQUAL)[int(rng.integers(0, 3))]
        if sense == LESS_EQUAL:
            ub_rows.append(row)
            ub_rhs.append(anchored + float(rng.uniform(0, 2)))
        elif sense == GREATER_EQUAL:
            ub_rows.append(-row)
            ub_rhs.append(-(anchored - float(rng.uniform(0, 2))))
        else:
            eq_rows.append(row)
            eq_rhs.append(anchored)
    ub_rows.extend(np.eye(n))
    ub_rhs.extend([float(x0.max()) + 5.0] * n)
    return LinearProgram(
        objective,
        A_ub=csr(ub_rows),
        b_ub=ub_rhs,
        A_eq=csr(eq_rows) if eq_rows else None,
        b_eq=eq_rhs if eq_rows else None,
    )
