"""Multidimensional mean estimation via uniform attribute sampling.

Each client draws k of the d dimensions without replacement and runs the
one-dimensional two-phase pipeline for each drawn dimension at budget
eps / k, so by sequential composition each client's report is eps-LDP
(the attribute-sampling scheme of Wang et al., "Collecting and Analyzing
Multidimensional Data with Local Differential Privacy", ICDE 2019).

This module draws the assignment and forms each dimension's pool of
clients; the CLI's experiment (cli._experiment) runs the protocol over
them, and README "Library quick start" shows the same composition with
run_protocol.
"""

from __future__ import annotations

import numpy as np


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
