"""Multidimensional mean estimation via uniform attribute sampling.

Each client draws k of the d dimensions without replacement and runs the
one-dimensional two-phase pipeline for each drawn dimension at budget
eps / k, so by sequential composition each client's report is eps-LDP
(the attribute-sampling scheme of Wang et al., "Collecting and Analyzing
Multidimensional Data with Local Differential Privacy", ICDE 2019).

run_multidim_protocol draws its own assignment and splits.  The CLI's
experiment (cli._experiment) runs the same per-attribute loop itself, over
one partition that every mechanism of a run shares.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .adaptive import NoiseShape, run_protocol
from .domain import make_domain


@dataclass(frozen=True)
class MultiDataset:
    """n x d matrix of client rows with per-dimension half-widths."""

    rows: np.ndarray
    bounds: np.ndarray

    def __post_init__(self):
        rows = np.asarray(self.rows, dtype=float)
        if rows.ndim != 2 or rows.size == 0:
            raise ValueError("rows must be a nonempty n x d matrix")
        bounds = np.asarray(self.bounds, dtype=float)
        if bounds.shape != (rows.shape[1],):
            raise ValueError("need one bound per dimension")
        if np.any(bounds <= 0):
            raise ValueError("bounds must be positive")
        if np.any(np.abs(rows) > bounds[None, :]):
            raise ValueError("entry outside its dimension's bounds")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "bounds", bounds)
        rows.setflags(write=False)
        bounds.setflags(write=False)


@dataclass(frozen=True)
class MultidimResult:
    estimates: np.ndarray  # one mean estimate per dimension
    per_dimension: list  # the underlying ProtocolResult per dimension


def assign_attributes(
    n_clients: int, d: int, k: int, rng: np.random.Generator
) -> np.ndarray:
    """(n_clients, k) matrix of distinct dimension indices per client,
    uniform without replacement.  k = d is deterministic (all dimensions,
    no stream consumption)."""
    if n_clients < 1:
        raise ValueError("n_clients must be >= 1")
    if not 1 <= k <= d:
        raise ValueError(f"need 1 <= k <= d, got k={k}, d={d}")
    if k == d:
        return np.tile(np.arange(d), (n_clients, 1))
    scores = rng.random((n_clients, d))
    return np.argsort(scores, axis=1, kind="stable")[:, :k]


def attribute_pools(assignment: np.ndarray, d: int) -> list:
    """The indices of the clients assigned each of the d dimensions, in
    client order."""
    return [np.nonzero((assignment == dim).any(axis=1))[0] for dim in range(d)]


def run_multidim_protocol(
    data: MultiDataset,
    eps: float,
    split_ratio: float,
    k: int,
    shape: NoiseShape,
    rng: np.random.Generator,
    n_bins: int = 16,
) -> MultidimResult:
    """Per-dimension two-phase protocol over the clients assigned to it, at
    budget eps / k per attribute.

    The assignment and then each dimension's split are drawn from the
    single supplied stream, dimensions in index order, so d = 1 with k = 1
    consumes the stream exactly as run_protocol does.  Every dimension
    needs at least two assigned clients, one per phase.
    """
    n, d = data.rows.shape
    pools = attribute_pools(assign_attributes(n, d, k, rng), d)
    for dim, pool in enumerate(pools):
        if pool.size < 2:
            raise ValueError(f"dimension {dim} has {pool.size} assigned clients; need >= 2")
    results = [
        run_protocol(data.rows[pool, dim], eps / k, split_ratio, shape,
                     make_domain(float(data.bounds[dim]), n_bins), rng)
        for dim, pool in enumerate(pools)
    ]
    estimates = np.array([res.mean_estimate for res in results])
    return MultidimResult(estimates=estimates, per_dimension=results)
