"""Distribution-adaptive additive mechanism: the noise-design LP, exact
privacy verification, sampling, and the two-phase protocol.

The noise law conditioned on edge x_i puts mass q[i][j + M] on each integer
offset j of the edge grid with |j| <= M, and nothing beyond.  The optimizer
minimizes the pmf-weighted conditional second moment subject to, per row,
normalization and zero mean and, per output grid index k = i + j, pure
eps-LDP: max_i d_i(k) <= e^eps min_i d_i(k), where d_i(k) is the mass the
table gives output k under input i.  An output outside [N - M, M] is out of
reach for some input, so eps-LDP empties it for every input: the program
over the window is R(M - N), where R(A) is the program over the outputs
k in [-A, N+A].

The program is in units of the bin width sigma = 2 beta / N: offset j
costs p_i j^2, and sigma^2 enters only where a variance is reported in
data units (NoiseTable.lp_objective, analysis.row_variances).  A change of
beta only rescales the problem and leaves its optimal table as it is, so
the program, HiGHS's absolute tolerances on it, and the table are the same
at every beta.

build_lp assembles the program over a sorted set S of outputs k (every
other mass 0) directly as a staircase: each kept mass is t_k + s with
0 <= s <= expm1(eps) t_k.  Its equality duals y price every output left
out, by weak duality.  With rho_i(j) = p_i j^2 - y_norm,i - y_mean,i j,
any integer-offset eps-LDP table q whose rows have finite variance costs
b.y + sum_k sum_i rho_i(k - i) q_ik (finite variance makes the sums
converge absolutely, so they can be regrouped by output k).  Each
q_ik lies in [t_k, e^eps t_k], t_k = min_i q_ik, so output k adds at least
t_k s(k), s(k) = sum_i min(rho_i, e^eps rho_i).  On the kept outputs
s(k) >= 0 is the program's own dual feasibility; s(k) >= -tol at every
other output of the window [N - M, M] therefore proves the optimum over S
the window program's to tol, since sum_k t_k <= 1, and s(k) >= -tol at
every other integer, found exactly in closed form beyond S (_certified),
proves it optimal for every window.

The optimum loads few outputs (the sparse staircase of optimal noise,
Geng & Viswanath, IEEE T-IT 2016), so solve_noise_table generates them
(_solve_generated): S starts as a stride grid of about N + 1 outputs, and
after each solve every window output with s(k) < -tol joins it, until
none is left.  Each later round starts HiGHS's primal simplex from the
last optimal basis, extended to the new outputs: the zero-padded optimum
is feasible for the larger program.

The program's constraints depend on (N, S, eps) alone, never on the pmf,
so the optimal basis over S of one pmf is primal feasible over S for every
other.  The last program of the latest solve at each (N, M, eps), its S,
the program itself and its solution, is stored (at most _STORE_KEYS keys):
the same program again, at any beta, reuses the solution, and any other
pmf starts from the stored program with its own objective swapped in
(_objective, which build_lp calls too), and from its basis.
A table therefore depends on its inputs and on the earlier solves at its
key in the process; the CLI clears the store (clear_store) at the start of
each command.

HiGHS holds the tube only to its tolerances (the upper row to 1e-7 after
division by expm1(eps)), so the table is the solved point projected onto
the tube in the same coordinates: s = max(s, 0), t_k = max(t_k, 0,
max_i s_ik / expm1(eps)), s = min(s, expm1(eps) t), q = t + s.  Lifting
t_k keeps the mass that cutting s would take from the rows at large eps.
Every mass of output k is then at least t_k: all are 0 where t_k = 0 and
all positive where t_k > 0, so no output has disjoint support, and their
ratio is at most (t_k + expm1(eps) t_k) / t_k = e^eps up to a few ulps.
verify_privacy confirms it; no tolerance decides which masses are zero.

Sampling reads nothing but the table, and keeps a fixed stream contract.
adaptive_perturb_array rounds the clients to table.domain's edges
(round_randomized_array), then draws rng.random(n), one noise uniform per
client in data order, and maps it to an offset of the client's own row as
rng.choice(p=...) maps a uniform.  Its kernel (_draw_from_rows) reads the
category c of a uniform u in row i, cdf_i.searchsorted(u, side="right"),
from a guide table over 2^12 equal buckets of [0, 1) per row (the indexed
search of Chen & Asau, AIIE Transactions 1974), built for every row at
once (_row_guides), and searches the row's cdf only where the bucket holds
a cdf point: the same index for every u, mostly without a search.  It
reports grid[i + c], one float per output whichever input reached it, in
blocks of domain._BLOCK values, because at millions of clients a
full-length temporary costs more in page faults than its arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property

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
# Buckets of the guide table that _draw_from_rows uses in place of a binary
# search over the row's cdf.  A power of two, so u * K is exact; 2^12
# entries fit in L1 cache, and at most 2M of them (one per cdf point) fall
# back to the search: under 2% of draws at M = 32.
_GUIDE_BUCKETS = 1 << 12
# The store of solves: (N, M, eps) -> (outputs S, LinearProgram, LpSolution)
# of the last program of the latest optimal solve there, least recently used
# first, at most _STORE_KEYS keys (a design at one window touches one per eps)
_STORE_KEYS = 32
_store: dict[tuple, tuple[np.ndarray, lplib.LinearProgram, lplib.LpSolution]] = {}


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
        object.__setattr__(self, "eps", check_eps(self.eps))
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

    @cached_property
    def privacy(self) -> PrivacyReport:
        """verify_privacy at the table's own eps, enumerated once per table."""
        return verify_privacy(self, self.eps)


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
    bound, and row i mixes rows 0 and N in the ratio (N - i) : i.  An eps
    so small that this A is not a finite float is a ValueError.
    """
    tanh = math.tanh(eps / 2.0)
    bound = n * (1.0 / tanh - 1.0) / 2.0 if tanh > 0.0 else math.inf
    if not math.isfinite(bound):
        raise ValueError(
            f"eps = {eps!r} is too small: the least eps-LDP noise window at n_bins={n},"
            " n_bins + n_bins (coth(eps/2) - 1) / 2, is not a finite float"
        )
    return math.ceil(bound)


def _first_half_width(n: int, eps: float) -> int:
    """Half-width A of the outputs [-A, N+A] that the first program spans.
    The optimum reaches further than the edge of feasibility
    (_min_half_width); half again past it, most optima need no output
    beyond."""
    return math.ceil(1.5 * _min_half_width(n, eps) + 2.0)


def _first_outputs(n: int, m: int, eps: float) -> np.ndarray:
    """The first outputs S of a solve without a stored one: a stride grid
    over [-A, N+A], A = min(_first_half_width, M - N), with both ends, and
    so feasible wherever the window is (see _min_half_width); about N + 1
    outputs, stride ceil((N + 2A + 1) / (N + 1))."""
    a = min(_first_half_width(n, eps), m - n)
    stride = -(-(n + 2 * a + 1) // (n + 1))
    return np.unique(np.append(np.arange(-a, n + a + 1, stride), n + a))


def build_lp(pmf: QuantizedPmf, ks, eps: float) -> lplib.LinearProgram:
    """The noise-design program over the outputs ks only (sorted integers),
    over z = (s, t): each kept mass is q[i, k - i] = t_k + s, s >= 0.

    The lower tube row t_k <= q is then the bound s >= 0, and the upper row
    q <= e^eps t_k is s / expm1(eps) - t_k <= 0 (divided by expm1(eps), so
    it stays O(1) at large eps): one row per kept cell (i, k), input-major.
    Per input i the equality rows are normalization (row 2i) and zero mean
    (row 2i + 1); every other mass is 0.  The s are input-major, then the
    t, each in the order of ks.
    """
    eps = check_eps(eps)
    n = len(pmf) - 1
    ks = np.asarray(ks)
    if ks.ndim != 1 or ks.size == 0 or np.any(np.diff(ks) <= 0):
        raise ValueError("outputs must be a nonempty increasing sequence")
    j = ks[None, :] - np.arange(n + 1)[:, None]  # offset of each cell
    cells = j.size
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
        _objective(pmf, ks), A_ub=upper, b_ub=np.zeros(cells),
        A_eq=a_eq, b_eq=np.tile([1.0, 0.0], n + 1),
    )


def _objective(pmf: QuantizedPmf, ks: np.ndarray) -> np.ndarray:
    """build_lp's objective over the outputs ks: the cost p_i (k - i)^2 of
    each s, in units of sigma^2, input-major, then that of each t_k, its
    sum over the inputs.  The constraints do not depend on the pmf, so
    this is all of the program that does."""
    j = ks[None, :] - np.arange(len(pmf))[:, None]
    cost = pmf.masses[:, None] * j**2
    return np.concatenate([cost.ravel(), cost.sum(axis=0)])


def _scatter(z: np.ndarray, n: int, m: int, ks: np.ndarray, eps: float) -> np.ndarray:
    """The window masses q of the point z of build_lp over the outputs ks,
    projected onto the tube: s = max(s, 0), t = max(t, 0, max_i s /
    expm1(eps)) (the lift), s = min(s, expm1(eps) t) (the rounding of the
    lift), and q[i, k - i] = t_k + s on the kept outputs, 0 elsewhere.
    Needs every k in [N - M, M], so that every kept offset lies in the
    window."""
    cells = (n + 1) * ks.size
    s = np.maximum(z[:cells].reshape(n + 1, ks.size), 0.0)
    t = np.maximum(z[cells:], 0.0)
    t = np.maximum(t, s.max(axis=0) / math.expm1(eps))
    s = np.minimum(s, math.expm1(eps) * t)
    q = np.zeros((n + 1, 2 * m + 1))
    rows = np.arange(n + 1)[:, None]
    q[rows, ks - rows + m] = s + t
    return q


def _slack(masses: np.ndarray, y: np.ndarray, ks, eps: float) -> np.ndarray:
    """s(k) = sum_i min(rho_i, e^eps rho_i) at the outputs ks, with
    rho_i = p_i (k - i)^2 - y[2i] - y[2i + 1] (k - i) in units of
    sigma^2."""
    j = np.asarray(ks, dtype=float)[:, None] - np.arange(masses.size)
    rho = masses * j**2 - y[0::2] - y[1::2] * j
    return np.minimum(rho, math.exp(eps) * rho).sum(axis=1)


def _slack_minimum(
    masses: np.ndarray, y: np.ndarray, lo: int, hi: int, eps: float
) -> tuple[float, float]:
    """(k, s(k)) at the minimum of s over every integer k outside
    [lo, hi], found exactly at O(N^2) cost whatever eps is.

    Each rho_i is a quadratic in k (linear where p_i = 0), so s is a convex
    quadratic between consecutive real roots of the rho_i.  On each such
    piece, cut at lo - 1/2 and hi + 1/2, the integer minimum sits at the
    floor or the ceiling of the vertex, clamped to the piece; the integers
    on each side of every cut are candidates too, which covers round-off in
    the roots.  s is evaluated exactly at the candidates.  A piece whose
    curvature is not positive is checked at its ends only, and an unbounded
    one gives s = -inf.
    """
    inputs = np.arange(masses.size)
    # rho_i = curv (k - i)^2 + lin (k - i) + const
    curv, lin, const = masses, -y[1::2], -y[0::2]
    with np.errstate(divide="ignore", invalid="ignore"):
        # roots of each rho_i in the stable form, h / curv and const / h;
        # const / h is the root of a linear rho_i
        h = -0.5 * (lin + np.copysign(np.sqrt(lin * lin - 4.0 * curv * const), lin))
        roots = np.concatenate([h / curv, const / h]) + np.tile(inputs, 2)
    cuts = np.unique(np.concatenate([roots[np.isfinite(roots)], [lo - 0.5, hi + 0.5]]))
    lower = np.concatenate([[-np.inf], cuts])
    upper = np.concatenate([cuts, [np.inf]])
    outside = (upper <= lo - 0.5) | (lower >= hi + 0.5)
    lower, upper = lower[outside], upper[outside]  # the first and last are unbounded
    # one point inside each piece fixes which branch of each min it takes
    inner = np.where(
        np.isinf(lower), upper - 1.0, np.where(np.isinf(upper), lower + 1.0, (lower + upper) / 2)
    )
    j = inner[:, None] - inputs
    weight = np.where(curv * j * j + lin * j + const < 0.0, math.exp(eps), 1.0)
    c2 = weight @ curv
    if c2[0] <= 0.0 or c2[-1] <= 0.0:
        return math.nan, -math.inf
    with np.errstate(divide="ignore", invalid="ignore"):
        vertex = (weight @ (2.0 * curv * inputs - lin)) / (2.0 * c2)
    near = np.clip(np.stack([np.floor(vertex), np.ceil(vertex)]), np.ceil(lower), np.floor(upper))
    ends = [np.floor(cuts) - 1.0, np.floor(cuts), np.ceil(cuts), np.ceil(cuts) + 1.0]
    ks = np.concatenate([near.ravel(), *ends])
    ks = np.unique(ks[np.isfinite(ks) & ((ks < lo) | (ks > hi))])
    slack = _slack(masses, y, ks, eps)
    best = int(slack.argmin())
    return float(ks[best]), float(slack[best])


def _certified(
    masses: np.ndarray, y: np.ndarray, objective: float, ks, eps: float
) -> bool:
    """Whether the optimum of build_lp over the outputs ks, of value
    objective and with equality duals y, is optimal among all
    integer-offset eps-LDP noise tables whose rows have finite variance,
    and so for the window program of every M.

    Weak duality.  Let q be any such table, and rho_i(j) = p_i j^2 - y[2i]
    - y[2i + 1] j, in units of sigma^2 as the program is.  Each row has
    total mass 1 and mean 0, so objective(q) = sum_i y[2i] + sum_k sum_i
    rho_i(k - i) q[i, k - i], where finite variance makes every row's sums converge absolutely and
    so lets them be regrouped by output k.  eps-LDP puts each q[i, k - i]
    in [t_k, e^eps t_k] with t_k = min_i q[i, k - i], so
    sum_i rho_i(k - i) q[i, k - i] >= t_k s(k), s(k) = sum_i min(rho_i,
    e^eps rho_i).  Hence objective(q) >= b.y + sum_k t_k min(s(k), 0).

    On the kept outputs s(k) >= 0 is the program's own dual feasibility:
    the map q = t_k + s takes the cone {0 <= s <= expm1(eps) t} one to one
    onto the kept tube cone {t <= q <= e^eps t}, so the program has the
    same equality duals over (t, s) as over (q, t).  It is not checked
    here; HiGHS meets it only to its 1e-10 dual tolerance in (t, s)
    coordinates, which lets s(k) dip to about -(N + 1) e^eps 1e-10 there.
    At every other integer output s(k) >= -tol is checked, tol = 1e-9
    max(1, |objective|): exactly (_slack) at those between the least and
    the greatest of ks, in closed form (_slack_minimum) beyond them.  Since
    sum_k t_k <= sum_k q[0, k] = 1, no such table costs less than b.y -
    max(tol, -min s(k) over the kept k), and b.y is the program's optimum
    up to HiGHS's duality gap.
    """
    ks = np.asarray(ks)
    tol = 1e-9 * max(1.0, abs(objective))
    between = np.setdiff1d(np.arange(ks[0], ks[-1] + 1), ks)
    if between.size and _slack(masses, y, between, eps).min() < -tol:
        return False
    return _slack_minimum(masses, y, int(ks[0]), int(ks[-1]), eps)[1] >= -tol


def clear_store() -> None:
    """Forget every stored solve: the next solve at each (N, M, eps)
    starts from its first outputs and from cold, as in a fresh process."""
    _store.clear()


def _extended_basis(basis, ks: np.ndarray, wider: np.ndarray, n: int):
    """The basis of build_lp over the outputs ks, extended to the program
    over wider, a superset of ks: the new s and t columns nonbasic at 0 and
    the new tube rows' slacks basic.  The zero-padded optimum is feasible
    for the wider program, so the basis is primal feasible there."""
    at = np.searchsorted(wider, ks)
    cells = (n + 1) * wider.size
    kept = (np.arange(n + 1)[:, None] * wider.size + at).ravel()
    return lplib.extend_basis(
        basis,
        np.concatenate([kept, cells + at]),
        np.concatenate([kept, cells + np.arange(2 * (n + 1))]),
        cells + wider.size,
        cells + 2 * (n + 1),
    )


def _left_out(ks: np.ndarray, n: int, m: int) -> np.ndarray:
    """The window outputs [N - M, M] that the sorted outputs ks, all in the
    window, leave out, in increasing order."""
    out = np.ones(2 * m - n + 1, dtype=bool)
    out[ks - (n - m)] = False
    return np.flatnonzero(out) + (n - m)


def _solve_generated(
    pmf: QuantizedPmf, eps: float, m: int
) -> tuple[np.ndarray, lplib.LpSolution]:
    """Solve the window's program by output generation; return the last
    program's outputs S and its solution.

    Round 0 takes the program stored at (N, M, eps) with the pmf's
    objective swapped in (with_objective keeps its constraints, which do
    not depend on the pmf), else build_lp's over _first_outputs.  Each
    round reuses the stored solution if its program is the stored one,
    else solves from the start basis (stored, later the last one
    extended), once more from cold if a start does not end optimal.  Every
    window output outside S with s(k) < -1e-9 max(1, |objective|) joins S;
    a round that adds none is stored and ends the loop, so there are at
    most as many rounds as the window has outputs.
    """
    n = len(pmf) - 1
    key = (n, m, eps)
    stored = _store.pop(key, None)
    sol = start = None
    if stored is None:
        ks = _first_outputs(n, m, eps)
        program = build_lp(pmf, ks, eps)
    else:
        ks, program, last = stored
        objective = _objective(pmf, ks)
        if np.array_equal(objective, program.objective):
            sol = replace(last, iterations=0, run_seconds=0.0)
        else:
            program, start = program.with_objective(objective), last.basis
    while True:
        if sol is None:
            sol = lplib.solve(program, start=start)
            if start is not None and sol.status != "optimal":
                sol = lplib.solve(program)
        if sol.status != "optimal":
            return ks, sol
        left_out = _left_out(ks, n, m)
        slack = _slack(pmf.masses, sol.eq_duals, left_out, eps)
        entering = left_out[slack < -1e-9 * max(1.0, abs(sol.objective_value))]
        if entering.size == 0:
            _store[key] = (ks, program, sol)
            if len(_store) > _STORE_KEYS:
                del _store[next(iter(_store))]
            return ks, sol
        wider = np.union1d(ks, entering)
        start = _extended_basis(sol.basis, ks, wider, n)
        ks, sol = wider, None
        program = build_lp(pmf, ks, eps)


def solve_noise_table(
    pmf: QuantizedPmf,
    eps: float,
    shape: NoiseShape,
    domain: QuantizedDomain,
) -> NoiseTable:
    """Solve the noise-design LP and package the optimum as a NoiseTable.

    The program is solved over a few outputs first, and the window outputs
    its duals price below 0 are added until none is left (see
    _solve_generated); its point is projected onto the tube (see
    _scatter).  The first program starts from the outputs and basis of
    the latest solve at its (N, M, eps) in this process, or reuses that
    solution outright if the program is the same; so the table depends on
    the pmf, eps, window and the domain's N, not on its beta, and on the
    earlier solves at that key, which clear_store forgets.  lp_objective
    is the program's optimum times sigma^2, in data units.  A window below
    the least one with an eps-LDP table (N + _min_half_width) is a
    ValueError, raised before any program is built.  A solved table that fails _check_table raises
    RuntimeError.
    """
    eps = check_eps(eps)
    n, m = domain.n_bins, shape.m
    if len(pmf) != n + 1:
        raise ValueError("pmf size does not match domain")
    least = n + _min_half_width(n, eps)
    if m < least:
        raise ValueError(
            f"no eps-LDP table fits noise window m = {m} (n_bins={n}, eps={eps}): the least"
            f" is m = n_bins + ceil(n_bins (coth(eps/2) - 1) / 2) = {least}"
        )
    ks, sol = _solve_generated(pmf, eps, m)
    if sol.status != "optimal":
        raise RuntimeError(
            f"noise-table LP did not solve: status={sol.status} "
            f"after {sol.iterations} iterations "
            f"(n_bins={n}, m={m}, eps={eps}): {sol.message}"
        )
    q = _scatter(sol.x, n, m, ks, eps)
    table = NoiseTable(
        domain=domain, shape=shape, q=q, eps=eps,
        lp_objective=domain.sigma**2 * sol.objective_value,
    )
    _check_table(table, RuntimeError)
    return table


def _check_table(table: NoiseTable, error) -> None:
    """Raise error unless every row sums to 1 and has mean 0, to _ROW_TOL,
    and the table passes verify_privacy at its own eps."""
    m = table.shape.m
    off = np.max(np.abs(table.q.sum(axis=1) - 1.0))
    if off > _ROW_TOL:
        raise error(f"row normalization off by {float(off)!r}")
    off = np.max(np.abs(table.q @ np.arange(-m, m + 1)))
    if off > _ROW_TOL:
        raise error(f"row zero-mean off by {float(off)!r}")
    report = table.privacy
    if not report.passed:
        raise error(
            f"table fails privacy verification: max_ratio={report.max_ratio!r}"
            f" > bound={report.bound!r} at {report.worst_pair}"
        )


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
    eps = check_eps(eps)
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
    bound = math.exp(eps) * (1.0 + tol)
    return PrivacyReport(max_ratio, worst, bound, passed=max_ratio <= bound)


def _row_guides(q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every row's cdf as rng.choice(p=...) builds it from the renormalized
    row (all NaN if the row has no mass), and the rows' guide tables, row i
    at [i K, (i + 1) K) of one flat array.  Bucket b holds #{cdf <= b/K},
    the category of every u in [b/K, (b + 1)/K), or -1 where a cdf point
    lies strictly inside it (and in a row with no mass).  With C = cdf K,
    exact for K a power of two, these count ceil(C) <= b and C in (b, b + 1):
    two bincounts over the whole table, row i's bins at i (K + 1)."""
    k = _GUIDE_BUCKETS
    with np.errstate(invalid="ignore"):  # 0 / 0 in a row with no mass
        cdf = (q / q.sum(axis=1, keepdims=True)).cumsum(axis=1)  # row invariants hold to 1e-7
        cdf /= cdf[:, -1:]
    scaled = np.nan_to_num(cdf * k)  # a row with no mass is masked below
    at = np.arange(len(q))[:, None] * (k + 1)
    ceils, inside = [
        np.bincount(bins.astype(np.intp), minlength=at.size * (k + 1)).reshape(-1, k + 1)[:, :k]
        for bins in ((at + np.ceil(scaled)).ravel(), (at + np.floor(scaled))[scaled % 1 > 0])
    ]
    # narrow entries keep the (N + 1) K table in cache; a category is < 2M + 1
    dtype = np.int16 if q.shape[1] <= np.iinfo(np.int16).max else np.intp
    guide = ceils.cumsum(axis=1, dtype=dtype)
    guide[(inside > 0) | np.isnan(cdf[:, -1:])] = -1
    return cdf, guide.ravel()


def _draw_from_rows(q: np.ndarray, grid: np.ndarray, rows, rng: np.random.Generator):
    """grid[rows[c] + k_c] for each client c, where k_c is the category
    that the uniform u_c of rng.random(n) selects from row rows[c] of the
    masses q: cdf.searchsorted(u_c, side="right") exactly, with the cdf
    built as rng.choice(p=...) builds it.  grid is float64.

    k_c is read from the stacked guide table at row rows[c] and bucket
    floor(u_c K) (u K is exact for K a power of two).  The draws that land
    in a bucket holding a cdf point, under 2% at M = 32, are set aside and
    found afterwards by a search in their own row's cdf (a row with no mass
    is a ValueError).  The uniforms are drawn into the result's memory, and
    each block's reports are written over its uniforms.
    """
    cdf, guide = _row_guides(q)
    out = np.empty(rows.size)
    rng.random(out=out)
    aside, aside_u = [], []
    for block in _blocks(rows.size):
        rb, ub = rows[block], out[block]
        key = np.multiply(ub, _GUIDE_BUCKETS, out=np.empty(ub.size, np.intp), casting="unsafe")
        key += rb * _GUIDE_BUCKETS
        cats = guide[key]
        miss = np.flatnonzero(cats < 0)
        if miss.size:
            aside.append(miss + block.start)
            aside_u.append(ub[miss])
        np.add(rb, cats, out=key)
        # a set-aside draw's -1 reads a neighbour until its search below
        grid.take(key, out=ub, mode="clip")
    if aside:
        pos, pos_u = np.concatenate(aside), np.concatenate(aside_u)
        pos_rows = rows[pos]
        cats = np.empty(pos.size, np.intp)
        for i in np.unique(pos_rows):
            if np.isnan(cdf[i, -1]):
                raise ValueError(f"row {i} of the noise table has no mass")
            here = pos_rows == i
            cats[here] = cdf[i].searchsorted(pos_u[here], side="right")
        out[pos] = grid[pos_rows + cats]
    return out


def adaptive_perturb_array(table: NoiseTable, xs, rng: np.random.Generator) -> np.ndarray:
    """Perturb each value: randomized-round it to an edge of the table's
    domain, then add noise drawn from that edge's row, one uniform per
    client in data order.  The report of edge i and offset j is
    grid[i + j + M], grid = -beta + sigma arange(-M, N + M + 1): one float
    per output, whichever input reached it (edges[i] + sigma j is not, at
    a sigma that is not dyadic)."""
    domain, m = table.domain, table.shape.m
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    idx = round_randomized_array(domain, xs, rng).ravel()
    grid = -domain.beta + domain.sigma * np.arange(-m, domain.n_bins + m + 1)
    return _draw_from_rows(table.q, grid, idx, rng).reshape(xs.shape)


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
    eps = check_eps(eps)
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
    # xs by keyword: perfbench/tracing.py (_CLIENT_ARG) counts it at argument 2 or as xs
    reports = adaptive_perturb_array(table, xs=phase2, rng=rng)
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
    of 2M+1 masses.  Any other header, one whose eps is not a privacy
    budget (see check_eps) or whose beta is not positive and finite, rows
    that do not sum to 1 with mean 0, and a table that fails
    verify_privacy at the header's eps raise ValueError."""
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().split()
        if len(header) != 4:
            raise ValueError(
                f"malformed noise-table header in {path}: expected 'beta N M eps'"
            )
        beta, n, m = float(header[0]), int(header[1]), int(header[2])
        eps = check_eps(header[3])
        q = np.loadtxt(fh, ndmin=2)
    if q.shape != (n + 1, 2 * m + 1):
        raise ValueError(
            f"noise-table body is {q.shape}, expected {(n + 1, 2 * m + 1)}"
        )
    table = NoiseTable(domain=make_domain(beta, n), shape=NoiseShape(m=m), q=q, eps=eps)
    _check_table(table, ValueError)
    return table
