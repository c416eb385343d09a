"""Distribution-adaptive additive mechanism: the noise-design LP, exact
privacy verification, sampling, and the two-phase protocol.

The noise law conditioned on edge x_i puts mass q[i][j + M] on each integer
offset j of the edge grid with |j| <= M, and nothing beyond.  The optimizer
minimizes the pmf-weighted conditional second moment subject to, per row,
normalization and zero mean and, per output grid index k = i + j, pure
eps-LDP: max_i d_i(k) <= e^eps min_i d_i(k), where d_i(k) is the mass the
table gives output k under input i.  An output outside [N - M, M] is out of
reach for some input, so eps-LDP empties it for every input: the program
over the window is the restricted program R(M - N) below.

build_lp assembles R(A), the program over the outputs k in [-A, N+A],
directly as a staircase: each kept mass is t_k + s with
0 <= s <= expm1(eps) t_k.  Its equality duals y certify it by weak
duality.  With rho_i(j) = p_i sigma^2 j^2 - y_norm,i - y_mean,i j, any
integer-offset eps-LDP table q whose rows have finite variance costs
b.y + sum_k sum_i rho_i(k - i) q_ik (finite variance makes the sums
converge absolutely, so they can be regrouped by output k).  Each q_ik
lies in [t_k, e^eps t_k], t_k = min_i q_ik, so output k adds at least
t_k s(k), s(k) = sum_i min(rho_i, e^eps rho_i).  On the kept outputs
s(k) >= 0 is R(A)'s own dual feasibility; s(k) >= -tol at every other
integer k, found exactly in closed form, therefore proves R(A)'s optimum
optimal to tol, since sum_k t_k <= 1.  solve_noise_table grows A until
R(A) is certified or A reaches M - N, where R(A) is the window's program.

R(A)'s constraints depend on (N, A, eps) alone, never on the pmf, so the
optimal basis of one R(A) is primal feasible for R(A) of every other pmf
at the same key.  The latest optimal solution at each key is stored (at
most _STORE_KEYS keys): the same program again reuses it, and any other
starts HiGHS's primal simplex from its basis.  A table therefore depends
on its inputs and on the earlier solves at its keys in the process; the
CLI clears the store (clear_store) at the start of each command.

HiGHS holds the tube only to its tolerances (the upper row to 1e-7 after
division by expm1(eps)), so the table is the solved point projected onto
the tube in the same coordinates: s = max(s, 0), t_k = max(t_k, 0,
max_i s_ik / expm1(eps)), s = min(s, expm1(eps) t), q = t + s.  Lifting
t_k keeps the mass that cutting s would take from the rows at large eps.
Every mass of output k is then at least t_k: all are 0 where t_k = 0 and
all positive where t_k > 0, so no output has disjoint support, and their
ratio is at most (t_k + expm1(eps) t_k) / t_k = e^eps up to a few ulps.
verify_privacy confirms it; no tolerance decides which masses are zero.

Sampling keeps a fixed stream contract.  sample_noise draws rng.random(n)
for the offsets of row i, and maps each uniform as rng.choice(p=...)
would.  adaptive_perturb_array rounds the clients
(round_randomized_array), then draws rng.random(n), one noise uniform per
client in data order, from the client's own row.  Both go through one
kernel (_draw_from_rows): the category of a uniform u in row i is
cdf_i.searchsorted(u, side="right"), read from a stacked guide table over
2^12 equal buckets of [0, 1) per row, and searched in the row's cdf only
where the bucket holds a cdf point: the same index for every u, without a
binary search for most of them.  The arithmetic runs in blocks of
domain._BLOCK values, because at millions of clients a full-length
temporary costs more in page faults than its arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import lp as lplib
from .baselines import check_eps
from .domain import (
    QuantizedDomain,
    QuantizedPmf,
    _blocks,
    make_domain,
    round_randomized_array,
)
from .freqest import collect_perturbed_histogram, reconstruct_pmf

# invariant tolerance for solved tables' rows
_ROW_TOL = 1e-7
# Buckets of the guide table that sample_noise uses in place of a binary
# search over the row's cdf.  A power of two, so u * K is exact; 2^12
# entries fit in L1 cache, and at most 2M of them (one per cdf point) fall
# back to the search: under 2% of draws at M = 32.
_GUIDE_BUCKETS = 1 << 12
# The store of solves: (N, A, eps) -> (objective, LpSolution) of the latest
# optimal R(A) there, least recently used first, at most _STORE_KEYS keys
# (a design at one N touches one or two per eps)
_STORE_KEYS = 32
_store: dict[tuple, tuple[np.ndarray, lplib.LpSolution]] = {}


@dataclass(frozen=True)
class NoiseShape:
    """The window half-width M: a table's noise offsets lie in [-M, M].

    r is the ratio of the geometric tails that tables once carried beyond
    the window.  Nothing in the package reads it or checks it; it remains
    so that callers written for those tables still construct a shape and
    read shape.r, as the benchmark's table facts (perfbench/run.py,
    _table_facts) do.
    """

    m: int
    r: float = 0.0

    def __post_init__(self):
        if self.m < 1:
            raise ValueError("m must be >= 1")


@dataclass(frozen=True)
class NoiseTable:
    """Conditional noise law: q[i][j+M] is the mass of offset j under edge i
    for |j| <= M; no offset beyond +-M has mass."""

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
        if not np.all(np.isfinite(q) & (q >= 0.0)):
            raise ValueError("noise table masses must be finite and >= 0")
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


def _min_half_width(n: int, eps: float) -> int:
    """The least A at which R(A) is feasible.

    Two laws with means 0 and N on L consecutive outputs whose ratio is
    bounded by e^eps satisfy N <= (L - 1) tanh(eps/2).  Rows 0 and N of a
    table are such laws on the outputs k of R(A), L = N + 2A + 1, so R(A)
    is infeasible below A = N (coth(eps/2) - 1) / 2.  From there on it is
    feasible: randomized response between the two end outputs meets the
    bound, and row i mixes rows 0 and N in the ratio (N - i) : i.
    """
    return math.ceil(n * (1.0 / math.tanh(eps / 2.0) - 1.0) / 2.0)


def _first_half_width(n: int, eps: float) -> int:
    """First restricted half-width A to try.  The optimum reaches further
    than the edge of feasibility (_min_half_width); starting half again
    past it settles most programs in one solve."""
    return math.ceil(1.5 * _min_half_width(n, eps) + 2.0)


def build_lp(pmf: QuantizedPmf, sigma: float, a: int, eps: float) -> lplib.LinearProgram:
    """R(A): the noise-design program over the outputs k in [-A, N+A] only,
    over z = (s, t): each kept mass is q[i, k - i] = t_k + s, s >= 0.

    The lower tube row t_k <= q is then the bound s >= 0, and the upper row
    q <= e^eps t_k is s / expm1(eps) - t_k <= 0 (divided by expm1(eps), so
    it stays O(1) at large eps, and empty at eps = inf): one row per kept
    cell (i, k), input-major.  Per input i the equality rows are
    normalization (row 2i) and zero mean (row 2i + 1); every other mass is
    0.  The s are input-major, then the t.
    """
    n = len(pmf) - 1
    ks = np.arange(-a, n + a + 1)
    j = ks[None, :] - np.arange(n + 1)[:, None]  # offset of each cell
    cells = j.size
    cost = pmf.masses[:, None] * (sigma * j) ** 2
    objective = np.concatenate([cost.ravel(), cost.sum(axis=0)])
    s_col = np.arange(cells).reshape(n + 1, ks.size)
    t_col = np.broadcast_to(cells + np.arange(ks.size), s_col.shape)
    # rows 2i and 2i + 1 over the s and t_k of input i's cells
    eq_cols = np.concatenate([s_col, t_col], axis=1).repeat(2, axis=0)
    eq_vals = np.stack([np.ones(s_col.shape), j], axis=1).reshape(2 * (n + 1), -1)
    a_eq = lplib.csr_from_rows(eq_cols, np.tile(eq_vals, 2))
    upper_vals = [np.full(cells, 1.0 / math.expm1(eps)), -np.ones(cells)]
    upper = lplib.csr_from_rows(
        np.stack([s_col.ravel(), t_col.ravel()], -1), np.stack(upper_vals, -1)
    )
    return lplib.LinearProgram(
        objective, A_ub=upper, b_ub=np.zeros(cells),
        A_eq=a_eq, b_eq=np.tile([1.0, 0.0], n + 1),
    )


def _scatter(z: np.ndarray, n: int, m: int, a: int, eps: float) -> np.ndarray:
    """The window masses q of R(A)'s point z, projected onto the tube:
    s = max(s, 0), t = max(t, 0, max_i s / expm1(eps)) (the lift),
    s = min(s, expm1(eps) t) (the rounding of the lift), and
    q[i, k - i] = t_k + s on the kept outputs, 0 elsewhere.  At eps = inf
    s has no upper bound (and inf * 0 would be NaN).  Needs N + A <= M, so
    that every kept offset lies in the window."""
    ks = np.arange(-a, n + a + 1)
    cells = (n + 1) * ks.size
    s = np.maximum(z[:cells].reshape(n + 1, ks.size), 0.0)
    t = np.maximum(z[cells:], 0.0)
    if math.isfinite(eps):
        t = np.maximum(t, s.max(axis=0) / math.expm1(eps))
        s = np.minimum(s, math.expm1(eps) * t)
    q = np.zeros((n + 1, 2 * m + 1))
    rows = np.arange(n + 1)[:, None]
    q[rows, ks - rows + m] = s + t
    return q


def _slack(masses: np.ndarray, sigma: float, y: np.ndarray, ks, eps: float) -> np.ndarray:
    """s(k) = sum_i min(rho_i, e^eps rho_i) at the outputs ks, with
    rho_i = p_i sigma^2 (k - i)^2 - y[2i] - y[2i + 1] (k - i)."""
    j = np.asarray(ks, dtype=float)[:, None] - np.arange(masses.size)
    rho = masses * (sigma * j) ** 2 - y[0::2] - y[1::2] * j
    return np.minimum(rho, math.exp(eps) * rho).sum(axis=1)


def _slack_minimum(
    masses: np.ndarray, sigma: float, y: np.ndarray, a: int, eps: float
) -> tuple[float, float]:
    """(k, s(k)) at the minimum of s over every integer k outside
    [-A, N+A], found exactly at O(N^2) cost whatever eps is.

    Each rho_i is a quadratic in k (linear where p_i = 0), so s is a convex
    quadratic between consecutive real roots of the rho_i.  On each such
    piece, cut at -A - 1/2 and N + A + 1/2, the integer minimum sits at the
    floor or the ceiling of the vertex, clamped to the piece; the integers
    on each side of every cut are candidates too, which covers round-off in
    the roots.  s is evaluated exactly at the candidates.  A piece whose
    curvature is not positive is checked at its ends only, and an unbounded
    one gives s = -inf.
    """
    n = masses.size - 1
    inputs = np.arange(n + 1)
    curv = masses * sigma * sigma  # rho_i = curv (k - i)^2 + lin (k - i) + const
    lin, const = -y[1::2], -y[0::2]
    with np.errstate(divide="ignore", invalid="ignore"):
        # roots of each rho_i in the stable form, h / curv and const / h;
        # const / h is the root of a linear rho_i
        h = -0.5 * (lin + np.copysign(np.sqrt(lin * lin - 4.0 * curv * const), lin))
        roots = np.concatenate([h / curv, const / h]) + np.tile(inputs, 2)
    cuts = np.unique(np.concatenate([roots[np.isfinite(roots)], [-a - 0.5, n + a + 0.5]]))
    lo = np.concatenate([[-np.inf], cuts])
    hi = np.concatenate([cuts, [np.inf]])
    outside = (hi <= -a - 0.5) | (lo >= n + a + 0.5)
    lo, hi = lo[outside], hi[outside]  # the first and last are unbounded
    # one point inside each piece fixes which branch of each min it takes
    inner = np.where(np.isinf(lo), hi - 1.0, np.where(np.isinf(hi), lo + 1.0, (lo + hi) / 2))
    j = inner[:, None] - inputs
    weight = np.where(curv * j * j + lin * j + const < 0.0, math.exp(eps), 1.0)
    c2 = weight @ curv
    if c2[0] <= 0.0 or c2[-1] <= 0.0:
        return math.nan, -math.inf
    with np.errstate(divide="ignore", invalid="ignore"):
        vertex = (weight @ (2.0 * curv * inputs - lin)) / (2.0 * c2)
    near = np.clip(np.stack([np.floor(vertex), np.ceil(vertex)]), np.ceil(lo), np.floor(hi))
    ends = [np.floor(cuts) - 1.0, np.floor(cuts), np.ceil(cuts), np.ceil(cuts) + 1.0]
    ks = np.concatenate([near.ravel(), *ends])
    ks = np.unique(ks[np.isfinite(ks) & ((ks < -a) | (ks > n + a))])
    slack = _slack(masses, sigma, y, ks, eps)
    best = int(slack.argmin())
    return float(ks[best]), float(slack[best])


def _certified(
    masses: np.ndarray, sigma: float, y: np.ndarray, objective: float, a: int, eps: float
) -> bool:
    """Whether R(A)'s optimum, of value objective and with equality duals
    y, is optimal among all integer-offset eps-LDP noise tables whose rows
    have finite variance, and so for the window program of every M.

    Weak duality.  Let q be any such table, and rho_i(j) = p_i sigma^2 j^2
    - y[2i] - y[2i + 1] j.  Each row has total mass 1 and mean 0, so
    objective(q) = sum_i y[2i] + sum_k sum_i rho_i(k - i) q[i, k - i],
    where finite variance makes every row's sums converge absolutely and
    so lets them be regrouped by output k.  eps-LDP puts each q[i, k - i]
    in [t_k, e^eps t_k] with t_k = min_i q[i, k - i], so
    sum_i rho_i(k - i) q[i, k - i] >= t_k s(k), s(k) = sum_i min(rho_i,
    e^eps rho_i).  Hence objective(q) >= b.y + sum_k t_k min(s(k), 0).

    On the kept outputs s(k) >= 0 is R(A)'s own dual feasibility: the map
    q = t_k + s takes the cone {0 <= s <= expm1(eps) t} one to one onto
    the kept tube cone {t <= q <= e^eps t}, so R(A) has the same equality
    duals over (t, s) as over (q, t).  It is not checked here; HiGHS meets
    it only to its 1e-10 dual tolerance in (t, s) coordinates, which lets
    s(k) dip to about -(N + 1) e^eps 1e-10 there.  On every other integer
    output s(k) >= -tol is checked (_slack_minimum), tol = 1e-9 max(1,
    |objective|).  Since sum_k t_k <= sum_k q[0, k] = 1, no such table
    costs less than b.y - max(tol, -min s(k) over the kept k), and b.y is
    R(A)'s optimum up to HiGHS's duality gap.
    """
    tol = 1e-9 * max(1.0, abs(objective))
    return _slack_minimum(masses, sigma, y, a, eps)[1] >= -tol


def clear_store() -> None:
    """Forget every stored solve: the next R(A) at each (N, A, eps) is
    solved from cold, as in a fresh process."""
    _store.clear()


def _solve_stored(program: lplib.LinearProgram, key: tuple) -> lplib.LpSolution:
    """R(A)'s solution, through the store at key = (N, A, eps): the stored
    solution if its objective is the program's, with 0 iterations and 0
    seconds since HiGHS runs no work then; else HiGHS's from the stored
    basis, and from cold where there is none or where the start does not
    end optimal.  An optimal solution replaces the stored one."""
    stored = _store.pop(key, None)
    if stored is not None and np.array_equal(stored[0], program.objective):
        sol = replace(stored[1], iterations=0, run_seconds=0.0)
    else:
        sol = lplib.solve(program, start=None if stored is None else stored[1].basis)
        if stored is not None and sol.status != "optimal":
            sol = lplib.solve(program)
    if sol.status == "optimal":
        _store[key] = (program.objective, sol)
        if len(_store) > _STORE_KEYS:
            del _store[next(iter(_store))]
    return sol


def _solve_restricted_first(
    pmf: QuantizedPmf, eps: float, shape: NoiseShape, domain: QuantizedDomain
) -> tuple[lplib.LpSolution, np.ndarray | None]:
    """Solve the noise-design program through restricted programs R(A),
    each through the store (_solve_stored); return the solution and its
    window masses q (projected onto the tube, see _scatter), None unless
    optimal.

    A starts at _first_half_width, past the least feasible A, and grows by
    half, up to M - N, while R(A)'s optimum is not certified (see
    _certified).  R(M - N) is the window's own program, so its optimum is
    returned whether certified or not.
    """
    n, m = domain.n_bins, shape.m
    a = min(_first_half_width(n, eps), m - n)
    while True:
        sol = _solve_stored(build_lp(pmf, domain.sigma, a, eps), (n, a, eps))
        if sol.status != "optimal":
            return sol, None
        if a == m - n or _certified(
            pmf.masses, domain.sigma, sol.eq_duals, sol.objective_value, a, eps
        ):
            return sol, _scatter(sol.x, n, m, a, eps)
        a = min(math.ceil(1.5 * a), m - n)


def solve_noise_table(
    pmf: QuantizedPmf,
    eps: float,
    shape: NoiseShape,
    domain: QuantizedDomain,
) -> NoiseTable:
    """Solve the noise-design LP and package the optimum as a NoiseTable.

    The program is solved over the outputs near the domain first and grown
    until a dual certificate proves the result optimal (see _certified), or
    until it fills the window, and its point is projected onto the tube
    (see _scatter).  Each program R(A) starts from the latest optimal
    basis at its (N, A, eps) in this process, or reuses that solution
    outright if the program is the same (see _solve_stored); so the table
    depends on the pmf, eps, window and domain, and on the earlier solves
    at those keys, which clear_store forgets.  At eps = inf there is no
    tube, and the optimum adds no noise.  The solved table is checked against its three invariants (row
    normalization, row zero mean, exact privacy); any violation raises.
    """
    eps = check_eps(eps, allow_inf=True)
    n, m = domain.n_bins, shape.m
    if len(pmf) != n + 1:
        raise ValueError("pmf size does not match domain")
    if m < n:
        raise ValueError(f"noise window m = {m} must be >= n_bins = {n}")
    if not math.isfinite(eps):
        q = np.zeros((n + 1, 2 * m + 1))
        q[:, m] = 1.0
        return NoiseTable(domain=domain, shape=shape, q=q, eps=eps, lp_objective=0.0)
    sol, q = _solve_restricted_first(pmf, eps, shape, domain)
    if sol.status != "optimal":
        hint = ""
        if sol.status == "infeasible":
            hint = (
                "; no window below m = n_bins + ceil(n_bins (coth(eps/2) - 1) / 2)"
                f" = {n + _min_half_width(n, eps)} has an eps-LDP table"
            )
        raise RuntimeError(
            f"noise-table LP did not solve: status={sol.status} "
            f"after {sol.iterations} iterations "
            f"(n_bins={n}, m={m}, eps={eps}): {sol.message}{hint}"
        )
    table = NoiseTable(
        domain=domain, shape=shape, q=q, eps=eps, lp_objective=sol.objective_value
    )
    _check_row_invariants(table)
    report = verify_privacy(table, eps)
    if not report.passed:
        raise RuntimeError(
            f"solved table fails privacy verification: "
            f"max_ratio={report.max_ratio!r} > bound={report.bound!r} "
            f"at {report.worst_pair}"
        )
    return table


def _check_row_invariants(table: NoiseTable, error=RuntimeError) -> None:
    """Raise error unless every row sums to 1 and has mean 0, to _ROW_TOL."""
    m = table.shape.m
    off = np.max(np.abs(table.q.sum(axis=1) - 1.0))
    if off > _ROW_TOL:
        raise error(f"row normalization off by {float(off)!r}")
    off = np.max(np.abs(table.q @ np.arange(-m, m + 1)))
    if off > _ROW_TOL:
        raise error(f"row zero-mean off by {float(off)!r}")


def _density_from_q(q: np.ndarray, n: int, m: int, ks: np.ndarray) -> np.ndarray:
    """d[i, idx] = noise mass of output grid index ks[idx] under input i."""
    j = ks[None, :] - np.arange(n + 1)[:, None]
    d = q[np.arange(n + 1)[:, None], np.clip(j, -m, m) + m]
    d[np.abs(j) > m] = 0.0
    return d


def verify_privacy(table: NoiseTable, eps: float, tol: float = 1e-14) -> PrivacyReport:
    """Exact enumeration of the density-ratio bound over the output grid.

    Covers every output index k in {-M, ..., N+M}, the outputs any input
    reaches, and reports the first column of the worst max/min ratio with
    the inputs of its max and min.  A column where no input puts mass
    compares nothing and counts as 0; one where some input has zero mass
    while another has positive mass is disjoint support: ratio inf (pure
    eps-LDP cannot hold there).  The default slack tol = 1e-14 is the
    bound _scatter guarantees: the greatest mass is fl(t + s) with
    s <= fl(expm1(eps) t), and the least is at least t.

    The rounding step needs no check of its own: the output law of a real
    input is a mixture of two rows, so at every output it lies between the
    rows' least and greatest mass, and its ratios are bounded by these.
    """
    eps = check_eps(eps, allow_inf=True)
    n, m = table.domain.n_bins, table.shape.m
    ks = np.arange(-m, n + m + 1)
    density = _density_from_q(table.q, n, m, ks)
    top = density.max(axis=0)
    bottom = density.min(axis=0)
    ratios = np.divide(top, bottom, out=np.full(ks.size, math.inf), where=bottom > 0.0)
    ratios[top <= 0.0] = 0.0
    col = int(ratios.argmax())
    max_ratio = float(ratios[col])
    worst = None
    if max_ratio > 0.0:
        worst = (int(ks[col]), int(density[:, col].argmax()), int(density[:, col].argmin()))
    bound = math.exp(eps) * (1.0 + tol) if math.isfinite(eps) else math.inf
    passed = (not math.isfinite(eps)) or max_ratio <= bound
    return PrivacyReport(max_ratio=max_ratio, worst_pair=worst, bound=bound, passed=passed)


def _guide_table(cdf: np.ndarray) -> np.ndarray:
    """Index searchsorted(cdf, u, "right") for every u in each of the
    _GUIDE_BUCKETS buckets [b/K, (b+1)/K), or -1 where a cdf point lies
    strictly inside the bucket and the index depends on u."""
    edges = np.arange(_GUIDE_BUCKETS + 1) / _GUIDE_BUCKETS
    lo = cdf.searchsorted(edges[:-1], side="right")
    hi = cdf.searchsorted(edges[1:], side="left")
    return np.where(lo == hi, lo, -1)


def _row_guides(q: np.ndarray) -> tuple[list, np.ndarray]:
    """Each row's cdf, built exactly as rng.choice(p=...) builds it from
    the renormalized row (None for a row with no mass), and the rows'
    guide tables stacked and flattened, row i at [i K, (i + 1) K); a row
    with no mass has -1 in every bucket."""
    cdfs = []
    # narrow entries keep the (N + 1) K table in cache; a category is < 2M + 1
    dtype = np.int16 if q.shape[1] <= np.iinfo(np.int16).max else np.intp
    guide = np.full((len(q), _GUIDE_BUCKETS), -1, dtype=dtype)
    for i, row in enumerate(q):
        total = row.sum()
        cdf = None
        if total > 0.0:
            cdf = (row / total).cumsum()  # row invariants hold to 1e-7
            cdf /= cdf[-1]
            guide[i] = _guide_table(cdf)
        cdfs.append(cdf)
    return cdfs, guide.ravel()


def _draw_from_rows(q: np.ndarray, values: np.ndarray, rows, rng: np.random.Generator):
    """values[rows[c], k_c] for each client c, where k_c is the category
    that the uniform u_c of rng.random(n) selects from row rows[c] of the
    masses q: cdf.searchsorted(u_c, side="right") exactly, with the cdf
    built as rng.choice(p=...) builds it.

    k_c is read from the stacked guide table at row rows[c] and bucket
    floor(u_c K) (u K is exact for K a power of two).  The draws that land
    in a bucket holding a cdf point, under 2% at M = 32, are set aside and
    found afterwards by a search in their own row's cdf.  The uniforms are
    drawn into the result's memory, and each block's values are written
    over its uniforms.
    """
    cdfs, guide = _row_guides(q)
    flat = values.ravel()
    width = values.shape[1]
    out = np.empty(rows.size, dtype=values.dtype)
    u = out.view(np.float64)
    rng.random(out=u)
    aside, aside_u = [], []
    for block in _blocks(rows.size):
        rb, ub = rows[block], u[block]
        key = np.multiply(ub, _GUIDE_BUCKETS, out=np.empty(ub.size, np.intp), casting="unsafe")
        key += rb * _GUIDE_BUCKETS
        cats = guide[key]
        miss = np.flatnonzero(cats < 0)
        if miss.size:
            aside.append(miss + block.start)
            aside_u.append(ub[miss])
        np.multiply(rb, width, out=key)
        key += cats
        # a set-aside draw's -1 reads a neighbour until its search below
        flat.take(key, out=out[block], mode="clip")
    if aside:
        pos, pos_u = np.concatenate(aside), np.concatenate(aside_u)
        pos_rows = rows[pos]
        cats = np.empty(pos.size, np.intp)
        for i, cdf in enumerate(cdfs):
            here = pos_rows == i
            if not here.any():
                continue
            if cdf is None:
                raise ValueError(f"row {i} of the noise table has no mass")
            cats[here] = cdf.searchsorted(pos_u[here], side="right")
        out[pos] = flat[pos_rows * width + cats]
    return out


def sample_noise(table: NoiseTable, i: int, rng: np.random.Generator, size=None):
    """Draw noise offsets j from row i of the table, |j| <= M, with the
    row's masses renormalized to sum to 1: rng.random(n), each uniform
    mapped to its offset as rng.choice(p=...) maps it."""
    if not 0 <= i <= table.domain.n_bins:
        raise ValueError("edge index out of range")
    n = 1 if size is None else int(size)
    m = table.shape.m
    offsets = np.broadcast_to(np.arange(-m, m + 1), table.q.shape)
    j = _draw_from_rows(table.q, offsets, np.broadcast_to(np.int64(i), n), rng)
    return int(j[0]) if size is None else j


def adaptive_perturb_array(
    table: NoiseTable, domain: QuantizedDomain, xs, rng: np.random.Generator
) -> np.ndarray:
    """Perturb each value: randomized-round it to an edge, then add noise
    drawn from that edge's row, one uniform per client in data order.
    The report of edge i and offset j is edges[i] + sigma j."""
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    idx = round_randomized_array(domain, xs, rng).ravel()
    m = table.shape.m
    reports = domain.edges[:, None] + domain.sigma * np.arange(-m, m + 1)
    return _draw_from_rows(table.q, reports, idx, rng).reshape(xs.shape)


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
    pmf_hat = reconstruct_pmf(collect_perturbed_histogram(domain, phase1, eps, rng), eps)
    table = solve_noise_table(pmf_hat, eps, shape, domain)
    reports = adaptive_perturb_array(table, domain, phase2, rng)
    return ProtocolResult(
        mean_estimate=float(reports.mean()),
        phase1_pmf=pmf_hat,
        noise_table=table,
        phase1_count=int(phase1.size),
        phase2_count=int(phase2.size),
    )


def save_table(table: NoiseTable, path) -> None:
    """Plain-text dump to a file name or an open text stream: one header
    line (beta, N, M, eps), then N+1 rows of 2M+1 window masses.  repr
    round-trips floats bit-exactly."""
    lines = [f"{table.domain.beta!r} {table.domain.n_bins} {table.shape.m} {table.eps!r}"]
    lines.extend(" ".join(repr(float(v)) for v in row) for row in table.q)
    text = "\n".join(lines) + "\n"
    if hasattr(path, "write"):
        path.write(text)
        return
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def load_table(path) -> NoiseTable:
    """Read a save_table file: a header line (beta, N, M, eps), then N+1 rows
    of 2M+1 masses.  Any other header, and rows that do not sum to 1 with
    mean 0, raise ValueError."""
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().split()
        if len(header) != 4:
            raise ValueError(
                f"malformed noise-table header in {path}: expected 'beta N M eps'"
            )
        beta, n, m, eps = float(header[0]), int(header[1]), int(header[2]), float(header[3])
        q = np.loadtxt(fh, ndmin=2)
    if q.shape != (n + 1, 2 * m + 1):
        raise ValueError(
            f"noise-table body is {q.shape}, expected {(n + 1, 2 * m + 1)}"
        )
    table = NoiseTable(domain=make_domain(beta, n), shape=NoiseShape(m=m), q=q, eps=eps)
    _check_row_invariants(table, ValueError)
    return table
