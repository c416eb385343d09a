"""Distribution-adaptive additive mechanism: LP construction and solution of
the noise table, exact privacy verification, sampling, and the two-phase
protocol.

The noise law conditioned on edge x_i lives on the integer offsets j of the
edge grid.  Offsets with |j| < M carry free masses q[i][j]; beyond the window
the mass decays geometrically, p(j) = q[i][+-M] * r^{|j|-M}, which keeps the
infinite support summable with the closed-form moments below and keeps every
constraint linear in the q variables.

The optimizer minimizes the pmf-weighted conditional second moment subject
to, per row, normalization and zero mean (both with exact tail corrections)
and, per output grid index k = i + j, a privacy tube
t_k <= d_i(k) <= e^eps * t_k across all inputs i, where d_i(k) is the noise
mass the table assigns to output index k under input i.  One auxiliary t_k
per output replaces the quadratic number of pairwise ratio constraints; the
tube is feasible exactly when max_i d_i(k) <= e^eps * min_i d_i(k).  Beyond
k = -M and k = N+M every d_i(k) scales by the same factor r per step, so the
end indices pin the two asymptotic tail regimes.

solve_noise_table first solves a restricted program over the outputs near
the domain as a staircase, each kept mass t_k + s with 0 <= s <=
expm1(eps) t_k, and proves its optimum optimal for the whole window.

Sampling keeps a fixed stream contract.  sample_noise draws rng.random(n)
for the categories, exactly as rng.choice(p=...) would, then one geometric
array for the right-tail draws and one for the left-tail draws.
adaptive_perturb_array rounds the clients (round_randomized_array), then
draws the noise of each edge group with clients in edge order.  The
category of a uniform u is cdf.searchsorted(u, side="right"), found
through a guide table over 2^12 equal buckets of [0, 1): the same index
for every u, without a binary search for most of them.  The arithmetic
runs in blocks of domain._BLOCK values, because at millions of clients a
full-length temporary costs more in page faults than its arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy import sparse

from . import lp as lplib
from .baselines import check_eps
from .domain import (
    QuantizedDomain,
    QuantizedPmf,
    _blocks,
    round_randomized_array,
    rounding_weights_array,
)
from .freqest import build_rr_matrix, collect_perturbed_histogram, reconstruct_pmf

# invariant tolerances for solved tables
_ROW_TOL = 1e-7
_NEG_TOL = 1e-9
# solver round-off floor: solved masses at or below this are vertex dust
# (true basic values are either exactly zero or structurally positive), and
# ratios of dust would poison the exact privacy enumeration
_DUST = 1e-10
# Buckets of the guide table that sample_noise uses in place of a binary
# search over the row's cdf.  A power of two, so u * K is exact; 2^12
# entries fit in L1 cache, and at most 2M of them (one per cdf point) fall
# back to the search: under 2% of draws at M = 32.
_GUIDE_BUCKETS = 1 << 12


def tail_first_moment(m: int, r: float) -> float:
    """T1 = sum_{g>=0} (m+g) r^g = m/(1-r) + r/(1-r)^2."""
    _check_tail_args(m, r)
    return m / (1.0 - r) + r / (1.0 - r) ** 2


def tail_second_moment(m: int, r: float) -> float:
    """T2 = sum_{g>=0} (m+g)^2 r^g = m^2/(1-r) + (2m-1)r/(1-r)^2 + 2r/(1-r)^3."""
    _check_tail_args(m, r)
    one = 1.0 - r
    return m * m / one + (2.0 * m - 1.0) * r / one**2 + 2.0 * r / one**3


def _check_tail_args(m: int, r: float) -> None:
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m!r}")
    if not (0.0 <= r):
        raise ValueError(f"r must be in [0, 1), got {r!r}")
    if r >= 1.0:
        raise ValueError(f"geometric tail diverges for r = {r!r}")


@dataclass(frozen=True)
class NoiseShape:
    """Explicit window half-width M and geometric tail ratio r."""

    m: int
    r: float

    def __post_init__(self):
        if self.m < 1:
            raise ValueError("m must be >= 1")
        if not (0.0 < self.r < 1.0):
            raise ValueError("r must lie in (0, 1)")


@dataclass(frozen=True)
class NoiseTable:
    """Conditional noise law: q[i][j+M] is the mass of offset j under edge i
    for |j| <= M; offsets beyond +-M decay geometrically with ratio r."""

    domain: QuantizedDomain
    shape: NoiseShape
    q: np.ndarray
    eps: float
    lp_objective: float | None = None

    def __post_init__(self):
        q = np.asarray(self.q, dtype=float)
        n, m = self.domain.n_bins, self.shape.m
        if q.shape != (n + 1, 2 * m + 1):
            raise ValueError(
                f"q must be ({n + 1}, {2 * m + 1}), got {q.shape}"
            )
        if np.any(q < -_NEG_TOL):
            raise ValueError("noise table has negative mass")
        object.__setattr__(self, "q", q)
        q.setflags(write=False)


@dataclass(frozen=True)
class PrivacyReport:
    max_ratio: float
    worst_pair: tuple | None  # (output index k, input i of max, input i of min)
    bound: float
    passed: bool


@dataclass(frozen=True)
class ProtocolResult:
    mean_estimate: float
    phase1_pmf: QuantizedPmf
    noise_table: NoiseTable
    phase1_count: int
    phase2_count: int
    lp_objective: float


def noise_mass(table: NoiseTable, i: int, j: int) -> float:
    """Mass of noise offset j under edge i, tails extrapolated geometrically."""
    if not 0 <= i <= table.domain.n_bins:
        raise ValueError("edge index out of range")
    m, r = table.shape.m, table.shape.r
    if -m < j < m:
        return float(table.q[i, j + m])
    if j >= m:
        return float(table.q[i, 2 * m] * r ** (j - m))
    return float(table.q[i, 0] * r ** (-m - j))


def build_lp(
    pmf: QuantizedPmf,
    eps: float,
    shape: NoiseShape,
    domain: QuantizedDomain,
) -> lplib.LinearProgram:
    """Assemble the noise-design LP over the q variables plus one t_k per
    output grid index k in {-M, ..., N+M} (no auxiliaries at eps = inf).

    Equality rows are (normalization, zero mean) for each input i.  Privacy
    rows are (lower, upper) for each (k, i), k-major: t_k <= d_i(k) and
    d_i(k) / e^eps <= t_k, where d_i(k) is the q variable of offset
    clip(k - i, -M, M) times the tail factor r^max(|k - i| - M, 0).
    """
    eps = check_eps(eps, allow_inf=True)
    n = domain.n_bins
    m = shape.m
    if len(pmf) != n + 1:
        raise ValueError("pmf size does not match domain")
    if m < n:
        raise ValueError(f"noise window m = {m} must be >= n_bins = {n}")
    r = shape.r
    sigma = domain.sigma
    width = 2 * m + 1
    nq = (n + 1) * width
    finite = math.isfinite(eps)
    n_aux = (n + 2 * m + 1) if finite else 0
    n_vars = nq + n_aux

    t1 = tail_first_moment(m, r)
    t2 = tail_second_moment(m, r)

    window_cost = (sigma * np.arange(-m, m + 1)) ** 2
    window_cost[0] = window_cost[-1] = sigma * sigma * t2
    objective = np.zeros(n_vars)
    objective[:nq] = np.outer(pmf.masses, window_cost).ravel()

    # row 2i: normalization, row 2i+1: zero mean, both over q[i, :]
    offsets = np.arange(-m, m + 1)
    tail_norm = 1.0 / (1.0 - r)
    norm = np.where(np.abs(offsets) < m, 1.0, tail_norm)
    mean = np.where(np.abs(offsets) < m, offsets, np.sign(offsets) * t1)
    eq_cols = np.arange(nq).reshape(n + 1, 1, width).repeat(2, axis=1)
    eq_vals = np.broadcast_to(np.stack([norm, mean]), eq_cols.shape)
    eq_rhs = np.tile([1.0, 0.0], n + 1)
    a_eq = _csr(eq_cols, eq_vals, (2 * (n + 1), n_vars))
    if not finite:
        return lplib.LinearProgram(objective, A_eq=a_eq, b_eq=eq_rhs)

    # row 2((k + M)(N + 1) + i): t_k - coeff q <= 0; the next row:
    # coeff / e^eps q - t_k <= 0.  Dividing the upper row by e^eps keeps its
    # coefficients O(1) at large eps.
    ks = np.arange(-m, n + m + 1)
    j = ks[:, None] - np.arange(n + 1)[None, :]
    var = np.arange(n + 1) * width + np.clip(j, -m, m) + m
    # one scalar pow per distinct exponent: numpy's vectorized power may
    # round the last bit differently
    powers = np.array([r**p for p in range(n + 1)])
    coeff = powers[np.maximum(np.abs(j) - m, 0)]
    t_k = np.broadcast_to((nq + ks + m)[:, None], var.shape)
    ub_cols = np.stack([var, t_k, var, t_k], axis=-1)
    ub_vals = np.stack(
        [-coeff, np.ones_like(coeff), coeff / math.exp(eps), -np.ones_like(coeff)],
        axis=-1,
    )
    n_ub = 2 * ks.size * (n + 1)
    a_ub = _csr(ub_cols, ub_vals, (n_ub, n_vars))
    return lplib.LinearProgram(
        objective, A_ub=a_ub, b_ub=np.zeros(n_ub), A_eq=a_eq, b_eq=eq_rhs
    )


def _csr(cols: np.ndarray, vals: np.ndarray, shape: tuple) -> sparse.csr_array:
    """CSR array from per-row column and value blocks (leading axes = rows,
    in row order); zero coefficients are left out."""
    cols = cols.reshape(shape[0], -1)
    vals = vals.reshape(shape[0], -1)
    rows = np.broadcast_to(np.arange(shape[0])[:, None], cols.shape)
    keep = vals != 0.0
    return sparse.csr_array((vals[keep], (rows[keep], cols[keep])), shape=shape)


def _first_half_width(n: int, eps: float) -> int:
    """First restricted half-width A to try.

    Two laws with means 0 and N on L consecutive outputs whose ratio is
    bounded by e^eps satisfy N <= (L - 1) tanh(eps/2).  Rows 0 and N of a
    table are such laws on the outputs k of R(A), L = N + 2A + 1, so R(A)
    is infeasible below A = N (coth(eps/2) - 1) / 2.  The optimum reaches
    further than the edge of feasibility; starting half again past it
    settles most programs in one solve.
    """
    a_min = math.ceil(n * (1.0 / math.tanh(eps / 2.0) - 1.0) / 2.0)
    return math.ceil(1.5 * a_min + 2.0)


def _restrict(program: lplib.LinearProgram, n: int, m: int, a: int, eps: float):
    """R(A): the noise-design program over the outputs k in [-A, N+A] only,
    over z = (s, t): each kept window mass is q[i, k - i] = s + t_k, s >= 0.

    The lower tube row t_k <= q is then the bound s >= 0, and the upper row
    q <= e^eps t_k is s / expm1(eps) - t_k <= 0 (divided like build_lp's,
    so it stays O(1) at large eps): one row per kept cell.  The objective
    and equality rows are the whole program's composed with x = T z; every
    other variable is fixed at 0.  Needs N + A < M, so that no kept output
    reaches a tail.  Returns the program and T.
    """
    ks = np.arange(-a, n + a + 1)
    # column of q[i, k - i], input-major as in the whole program
    cells = (2 * m * np.arange(n + 1)[:, None] + ks + m).ravel()
    n_z = cells.size + ks.size
    s_col = np.arange(cells.size)
    t_col = cells.size + np.tile(np.arange(ks.size), n + 1)  # t_k of each cell
    # x = T z: each kept q is s + t_k, each kept t_k is itself
    rows = np.concatenate([cells, cells, (n + 1) * (2 * m + 1) + ks + m])
    cols = np.concatenate([s_col, t_col, cells.size + np.arange(ks.size)])
    embed = sparse.csr_array((np.ones(rows.size), (rows, cols)), shape=(program.num_vars, n_z))
    upper_vals = [np.full(cells.size, 1.0 / math.expm1(eps)), -np.ones(cells.size)]
    upper = _csr(np.stack([s_col, t_col], -1), np.stack(upper_vals, -1), (cells.size, n_z))
    sub = lplib.LinearProgram(
        embed.T @ program.objective, A_ub=upper, b_ub=np.zeros(cells.size),
        A_eq=program.A_eq @ embed, b_eq=program.b_eq,
    )
    return sub, embed


def _certified(
    program: lplib.LinearProgram,
    sol: lplib.LpSolution,
    n: int,
    m: int,
    a: int,
    eps: float,
) -> bool:
    """Whether the optimum of R(A) is optimal for the whole program.

    The optimum of R(A), mapped by T, is feasible for the whole program, so
    its objective bounds the optimum from above.  It is optimal once the
    dual optimum of R(A) extends to a dual-feasible point of the whole
    program with the same objective b.y (the tube rows have zero right-hand
    sides, so only the equality duals y enter it).

    R(A) is solved over (t, s), not over the kept (q, t), but its equality
    duals are the same: T maps the cone {0 <= s <= expm1(eps) t} one to one
    onto the kept tube cone K = {t <= q <= e^eps t, q, t >= 0}, so
    T^T (c - A_eq^T y) lies in the dual cone of the first exactly when
    c - A_eq^T y lies in K's.  Both forms have the same Lagrangian dual over
    the equality rows, and a y optimal for one is optimal for the other.

    With w >= 0 the multipliers of the tube rows, a column is dual feasible
    when its reduced cost c - A_eq^T y + A_ub^T w is >= 0.  Kept columns
    meet no omitted row, so R(A)'s duals already price them.  The omitted
    rows are the two tube rows of each omitted (k, i), with multipliers
    (l, u); let rho(i, j) = c(i, j) - y_norm_i norm(j) - y_mean_i mean(j).

    - An interior cell (|k - i| < M) is the only q column in its rows and
      needs l - u e^-eps <= rho(i, k - i).  The largest l - u this allows is
      min(rho, e^eps rho).
    - t_k needs sum_i (l - u) >= 0 over the cells of output k.

    (a) An output whose cells are all interior therefore extends exactly
    when s_k = sum_i min(rho, e^eps rho) >= 0.  (b) A tail column q[i, +-M]
    meets the rows of every output beyond its edge with coefficient
    r^(|k - i| - M), so the tail cells are coupled; their (l, u) >= 0 must
    satisfy sum_tail (l - u) >= -s_k per output (s_k over its interior
    cells) and sum_k r^(|k-i|-M) (l - u e^-eps) <= rho(i, +-M) per tail
    column, a small feasibility LP.  Both hold to tol = 1e-9 max(1, |obj|).
    """
    width = 2 * m + 1
    nq = (n + 1) * width
    tol = 1e-9 * max(1.0, abs(sol.objective_value))
    rho = (program.objective - program.A_eq.T @ sol.eq_duals)[:nq].reshape(n + 1, width)
    ks = np.concatenate([np.arange(-m, -a), np.arange(n + a + 1, n + m + 1)])
    inputs = np.arange(n + 1)
    j = ks[:, None] - inputs[None, :]
    interior = np.abs(j) < m
    cell = rho[inputs[None, :], np.clip(j, -m, m) + m]
    s = np.where(interior, np.minimum(cell, math.exp(eps) * cell), 0.0).sum(axis=1)
    tail = ~interior.all(axis=1)
    if np.any(s[~tail] < -tol):
        return False
    # (b) over the tube rows of the tail cells, against the tail columns
    # and the t_k of the outputs they sit in
    k_cell, i_cell = np.nonzero(~interior)
    first = 2 * ((ks[k_cell] + m) * (n + 1) + i_cell)
    rows = np.stack([first, first + 1], axis=1).ravel()
    cols = np.concatenate([inputs * width, inputs * width + 2 * m, nq + ks[tail] + m])
    rhs = np.concatenate([rho[:, 0], rho[:, -1], s[tail]]) + tol
    if np.all(rhs >= 0.0):
        return True  # l = u = 0
    coupling = program.A_ub[rows][:, cols]
    check = lplib.LinearProgram(np.zeros(rows.size), A_ub=-coupling.T, b_ub=rhs)
    return lplib.solve(check).status == "optimal"


def _solve_restricted_first(
    program: lplib.LinearProgram, n: int, m: int, eps: float
) -> lplib.LpSolution:
    """Solve the noise-design program through restricted programs R(A).

    Grows A by half whenever R(A) is infeasible or its optimum is not
    certified optimal for the whole program; once N + A reaches M - 1 (or
    at eps = inf, where there is no tube) it solves the whole program.
    A certified solution is returned mapped to the whole program by T.
    """
    a = _first_half_width(n, eps) if math.isfinite(eps) else m
    while n + a < m - 1:
        sub, embed = _restrict(program, n, m, a, eps)
        sol = lplib.solve(sub)
        if sol.status == "optimal" and _certified(program, sol, n, m, a, eps):
            return replace(sol, x=embed @ sol.x)
        if sol.status not in ("optimal", "infeasible"):
            return sol
        a = math.ceil(1.5 * a)
    return lplib.solve(program)


def solve_noise_table(
    pmf: QuantizedPmf,
    eps: float,
    shape: NoiseShape,
    domain: QuantizedDomain,
) -> NoiseTable:
    """Solve the noise-design LP and package the optimum as a NoiseTable.

    The program is solved over the outputs near the domain first and grown
    until a dual certificate proves the result optimal for the whole
    window (see _certified).  The solved table is checked against its
    three invariants (row normalization, row zero mean, exact privacy);
    any violation raises.
    """
    eps = check_eps(eps, allow_inf=True)
    sol = _solve_restricted_first(
        build_lp(pmf, eps, shape, domain), domain.n_bins, shape.m, eps
    )
    if sol.status != "optimal":
        raise RuntimeError(
            f"noise-table LP did not solve: status={sol.status} "
            f"after {sol.iterations} iterations "
            f"(n_bins={domain.n_bins}, m={shape.m}, eps={eps}): {sol.message}"
        )
    n, m = domain.n_bins, shape.m
    q = sol.x[: (n + 1) * (2 * m + 1)].reshape(n + 1, 2 * m + 1).copy()
    small_negative = (q < 0.0) & (q >= -_NEG_TOL)
    q[small_negative] = 0.0
    if np.any(q < 0.0):
        raise RuntimeError(f"solver returned negative mass {q.min()!r}")
    # drop vertex dust so outputs the optimum leaves empty verify as empty.
    # A cell is zeroed only when its whole output column sits at round-off
    # scale, so the clip can empty a column but never unbalance one (a flat
    # per-cell floor would break verification once a design's legitimate
    # masses approach the floor, which happens as eps grows).
    ks = np.arange(-m, n + m + 1)
    safe = _density_from_q(q, n, m, shape.r, ks).max(axis=0) <= _DUST
    for i in range(n + 1):
        inner = q[i, 1:-1]
        clip = safe[i + 1 : i + 2 * m] & (inner <= _DUST)
        inner[clip] = 0.0
        if q[i, 2 * m] <= _DUST and safe[i + 2 * m :].all():
            q[i, 2 * m] = 0.0
        if q[i, 0] <= _DUST and safe[: i + 1].all():
            q[i, 0] = 0.0

    table = NoiseTable(
        domain=domain, shape=shape, q=q, eps=eps, lp_objective=sol.objective_value
    )
    _check_row_invariants(table)
    if math.isfinite(eps):
        report = verify_privacy(table, eps)
        if not report.passed:
            raise RuntimeError(
                f"solved table fails privacy verification: "
                f"max_ratio={report.max_ratio!r} > bound={report.bound!r} "
                f"at {report.worst_pair}"
            )
    return table


def _check_row_invariants(table: NoiseTable) -> None:
    m, r = table.shape.m, table.shape.r
    q = table.q
    window = q[:, 1:-1].sum(axis=1)
    norm = window + (q[:, 0] + q[:, -1]) / (1.0 - r)
    if np.max(np.abs(norm - 1.0)) > _ROW_TOL:
        raise RuntimeError(
            f"row normalization off by {np.max(np.abs(norm - 1.0))!r}"
        )
    js = np.arange(-m + 1, m)
    t1 = tail_first_moment(m, r)
    mean = q[:, 1:-1] @ js + t1 * (q[:, -1] - q[:, 0])
    if np.max(np.abs(mean)) > _ROW_TOL:
        raise RuntimeError(f"row zero-mean off by {np.max(np.abs(mean))!r}")


def _density_matrix(table: NoiseTable, ks: np.ndarray) -> np.ndarray:
    """d[i, idx] = noise mass of output grid index ks[idx] under input i."""
    return _density_from_q(
        table.q, table.domain.n_bins, table.shape.m, table.shape.r, ks
    )


def _density_from_q(
    q: np.ndarray, n: int, m: int, r: float, ks: np.ndarray
) -> np.ndarray:
    j = ks[None, :] - np.arange(n + 1)[:, None]
    d = q[np.arange(n + 1)[:, None], np.clip(j, -m, m) + m]
    beyond = np.abs(j) >= m
    d[beyond] *= r ** (np.abs(j[beyond]) - m).astype(float)
    return d


def _ratio_report(density: np.ndarray, ks: np.ndarray, eps: float, tol: float, labels=None):
    """Worst max/min column ratio of a (inputs x outputs) density matrix:
    the first column reaching it, with the inputs of its max and min.
    Columns where no input puts mass compare nothing and count as 0."""
    top = density.max(axis=0)
    bottom = density.min(axis=0)
    ratios = np.divide(top, bottom, out=np.full(ks.size, math.inf), where=bottom > 0.0)
    ratios[top <= 0.0] = 0.0
    col = int(ratios.argmax())
    max_ratio = float(ratios[col])
    worst = None
    if max_ratio > 0.0:
        i_max = int(density[:, col].argmax())
        i_min = int(density[:, col].argmin())
        if labels is not None:
            worst = (int(ks[col]), labels[i_max], labels[i_min])
        else:
            worst = (int(ks[col]), i_max, i_min)
    bound = math.exp(eps) * (1.0 + tol) if math.isfinite(eps) else math.inf
    passed = (not math.isfinite(eps)) or max_ratio <= bound
    return PrivacyReport(max_ratio=max_ratio, worst_pair=worst, bound=bound, passed=passed)


def verify_privacy(table: NoiseTable, eps: float, tol: float = 1e-6) -> PrivacyReport:
    """Exact enumeration of the density-ratio bound over the output grid.

    Covers every output index k in {-M, ..., N+M} plus one representative
    beyond each end; past the ends all densities scale by the same factor r
    per step, so those two representatives pin the asymptotic tail regimes.
    A column where some input has zero mass while another has positive mass
    is disjoint support: ratio inf (pure eps-LDP cannot hold there).
    """
    eps = check_eps(eps, allow_inf=True)
    n, m = table.domain.n_bins, table.shape.m
    ks = np.arange(-m - 1, n + m + 2)
    return _ratio_report(_density_matrix(table, ks), ks, eps, tol)


def verify_composite_privacy(
    table: NoiseTable,
    eps: float,
    inputs=None,
    tol: float = 1e-6,
) -> PrivacyReport:
    """Privacy check on the full mechanism including randomized rounding.

    The output law for a real input x is the tent-weighted mixture of its two
    neighbouring rows; the mixture densities are evaluated exactly from the
    table at every output grid index and compared pairwise across a dense
    grid of real inputs.
    """
    eps = check_eps(eps, allow_inf=True)
    domain = table.domain
    if inputs is None:
        inputs = np.linspace(-domain.beta, domain.beta, 201)
    xs = np.asarray(inputs, dtype=float)
    n, m = domain.n_bins, table.shape.m
    ks = np.arange(-m - 1, n + m + 2)
    rows = _density_matrix(table, ks)
    idx, w_left = rounding_weights_array(domain, xs)
    weights = np.zeros((xs.size, n + 1))
    weights[np.arange(xs.size), idx] = w_left
    weights[np.arange(xs.size), np.minimum(idx + 1, n)] += 1.0 - w_left
    mixture = weights @ rows
    return _ratio_report(mixture, ks, eps, tol, labels=[float(v) for v in xs])


def _guide_table(cdf: np.ndarray) -> np.ndarray:
    """Index searchsorted(cdf, u, "right") for every u in each of the
    _GUIDE_BUCKETS buckets [b/K, (b+1)/K), or -1 where a cdf point lies
    strictly inside the bucket and the index depends on u."""
    edges = np.arange(_GUIDE_BUCKETS + 1) / _GUIDE_BUCKETS
    lo = cdf.searchsorted(edges[:-1], side="right")
    hi = cdf.searchsorted(edges[1:], side="left")
    return np.where(lo == hi, lo, -1)


def _cdf_index(cdf: np.ndarray, guide: np.ndarray, u: np.ndarray) -> np.ndarray:
    """cdf.searchsorted(u, side="right") for uniforms u in [0, 1), exactly:
    u * K is exact for K a power of two, so its floor is u's bucket."""
    cats = guide[(u * _GUIDE_BUCKETS).astype(np.intp)]
    inside = cats < 0
    if inside.any():
        cats[inside] = cdf.searchsorted(u[inside], side="right")
    return cats


def _draw_offsets(table: NoiseTable, i: int, rng: np.random.Generator, out: np.ndarray):
    """Fill the int64 array out with noise offsets drawn from row i.

    The uniforms are drawn into out's own memory, as rng.choice(p=...)
    draws them, and each block's categories are written over its uniforms.
    """
    m, r = table.shape.m, table.shape.r
    row = table.q[i]
    probs = row.copy()
    probs[0] = row[0] / (1.0 - r)
    probs[-1] = row[-1] / (1.0 - r)
    probs /= probs.sum()  # row invariants hold to 1e-7; renormalize exactly
    if not (probs >= 0).all():
        raise ValueError("probabilities are not non-negative")
    # the cdf exactly as rng.choice(p=probs) builds it
    cdf = probs.cumsum()
    cdf /= cdf[-1]
    guide = _guide_table(cdf)
    u = out.view(np.float64)
    rng.random(out=u)
    # a tail of zero mass is never drawn: its cdf step is empty
    n_right = n_left = 0
    for block in _blocks(out.size):
        cats = _cdf_index(cdf, guide, u[block])
        if probs[-1] > 0:
            n_right += np.count_nonzero(cats == 2 * m)
        if probs[0] > 0:
            n_left += np.count_nonzero(cats == 0)
        np.subtract(cats, m, out=out[block])
    if n_right:
        out[out == m] = m + rng.geometric(1.0 - r, size=n_right) - 1
    if n_left:
        out[out == -m] = -m - (rng.geometric(1.0 - r, size=n_left) - 1)


def sample_noise(table: NoiseTable, i: int, rng: np.random.Generator, size=None):
    """Draw noise offsets j from row i of the table.

    Three-part mixture: the window masses |j| < M directly; each tail as its
    total mass q[i][+-M]/(1-r) followed by a geometric offset beyond +-M.
    """
    if not 0 <= i <= table.domain.n_bins:
        raise ValueError("edge index out of range")
    j = np.empty(1 if size is None else int(size), dtype=np.int64)
    _draw_offsets(table, i, rng, j)
    return int(j[0]) if size is None else j


def adaptive_perturb(
    table: NoiseTable, domain: QuantizedDomain, x: float, rng: np.random.Generator
) -> float:
    """Perturb one value: randomized-round to an edge, add table noise."""
    return float(adaptive_perturb_array(table, domain, [x], rng)[0])


def adaptive_perturb_array(
    table: NoiseTable, domain: QuantizedDomain, xs, rng: np.random.Generator
) -> np.ndarray:
    """Vectorized perturbation; clients are processed in data order, with
    noise drawn per rounded-edge group in fixed edge order (deterministic
    for a given stream)."""
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    idx = round_randomized_array(domain, xs, rng).ravel()
    # the group members in data order: a stable sort by edge, on the
    # narrowest integer type so that numpy sorts by radix
    edge = idx.astype(np.min_scalar_type(domain.n_bins))
    order = np.argsort(edge, kind="stable")
    reports = np.empty(idx.size)
    start = 0
    for i, count in enumerate(np.bincount(idx, minlength=domain.n_bins + 1)):
        if not count:
            continue
        group = reports[start : start + count]
        offsets = group.view(np.int64)
        _draw_offsets(table, i, rng, offsets)
        for block in _blocks(count):
            # float reports over their int offsets: numpy copies an input
            # that overlaps the output where needed, so no offset is lost
            np.multiply(domain.sigma, offsets[block], out=group[block])
            group[block] += domain.edges[i]
        start += count
    out = idx.view(np.float64)  # the rounding's buffer, no longer needed
    out[order] = reports
    return out.reshape(xs.shape)


def run_protocol(
    data,
    eps: float,
    split_ratio: float,
    shape: NoiseShape,
    domain: QuantizedDomain,
    rng: np.random.Generator,
    split_mask=None,
) -> ProtocolResult:
    """Two-phase mean estimation.

    Each client lands in phase 1 with probability split_ratio.  Phase 1
    estimates the quantized pmf with randomized response at the full budget
    eps; the noise table is solved against that estimate; phase-2 clients
    perturb with the table and the mean estimate is the plain average of
    their reports.  A precomputed split_mask (True = phase 1) can be passed
    so several mechanisms share one partition.
    """
    eps = check_eps(eps, allow_inf=True)
    if not (0.0 < split_ratio < 1.0):
        raise ValueError("split_ratio must lie in (0, 1)")
    xs = np.atleast_1d(np.asarray(data, dtype=float))
    if xs.size == 0:
        raise ValueError("data must be nonempty")
    if split_mask is None:
        split_mask = rng.random(xs.size) < split_ratio
    else:
        split_mask = np.asarray(split_mask, dtype=bool)
        if split_mask.shape != xs.shape:
            raise ValueError("split_mask shape does not match data")
    phase1 = xs[split_mask]
    phase2 = xs[~split_mask]
    if phase1.size == 0 or phase2.size == 0:
        raise ValueError(
            f"degenerate split: {phase1.size} phase-1 / {phase2.size} phase-2 clients"
        )
    hist = collect_perturbed_histogram(domain, phase1, eps, rng)
    pmf_hat = reconstruct_pmf(hist, build_rr_matrix(domain.n_bins, eps))
    table = solve_noise_table(pmf_hat, eps, shape, domain)
    reports = adaptive_perturb_array(table, domain, phase2, rng)
    return ProtocolResult(
        mean_estimate=float(reports.mean()),
        phase1_pmf=pmf_hat,
        noise_table=table,
        phase1_count=int(phase1.size),
        phase2_count=int(phase2.size),
        lp_objective=table.lp_objective,
    )


def save_table(table: NoiseTable, path) -> None:
    """Plain-text dump: one header line (beta, N, M, r, eps), then N+1 rows
    of 2M+1 window masses.  repr round-trips floats bit-exactly."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(
            f"{table.domain.beta!r} {table.domain.n_bins} "
            f"{table.shape.m} {table.shape.r!r} {table.eps!r}\n"
        )
        for row in table.q:
            fh.write(" ".join(repr(float(v)) for v in row) + "\n")


def load_table(path) -> NoiseTable:
    from .domain import make_domain

    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().split()
        if len(header) != 5:
            raise ValueError(f"malformed noise-table header in {path}")
        beta, n, m, r, eps = (
            float(header[0]),
            int(header[1]),
            int(header[2]),
            float(header[3]),
            float(header[4]),
        )
        q = np.loadtxt(fh, ndmin=2)
    if q.shape != (n + 1, 2 * m + 1):
        raise ValueError(
            f"noise-table body is {q.shape}, expected {(n + 1, 2 * m + 1)}"
        )
    return NoiseTable(
        domain=make_domain(beta, n), shape=NoiseShape(m=m, r=r), q=q, eps=eps
    )
