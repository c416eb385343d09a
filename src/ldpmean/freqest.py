"""Phase-1 frequency estimation: randomized response over the edge grid plus
channel inversion to recover the quantized pmf.

Phase 1 is counts in, pmf out: collect_perturbed_histogram tallies the
reported edge indices, and reconstruct_pmf(counts, eps) inverts the
channel.  The perturbation matrix A has e^eps/(N + e^eps) on the diagonal
and 1/(N + e^eps) elsewhere, so its inverse is the closed form
A^{-1} = ((N + e^eps) I - J) / (e^eps - 1); reconstruction is O(N) and needs
no linear-algebra dependency.
"""

from __future__ import annotations

import math

import numpy as np

from .baselines import _exp_above_one, check_eps, generalized_rr
from .domain import QuantizedDomain, QuantizedPmf, round_randomized_array


def collect_perturbed_histogram(
    domain: QuantizedDomain, data, eps: float, rng: np.random.Generator
) -> np.ndarray:
    """Randomized-round every sample to an edge, perturb the index with
    randomized response, and return the int64 count of each of the N+1
    reported indices.  A refused eps draws nothing."""
    eps = check_eps(eps)
    xs = np.atleast_1d(np.asarray(data, dtype=float))
    if xs.size == 0:
        raise ValueError("data must be nonempty")
    idx = round_randomized_array(domain, xs, rng)
    reported = generalized_rr(idx, domain.n_bins + 1, eps, rng)
    return np.bincount(reported, minlength=domain.n_bins + 1)


def reconstruct_pmf(counts, eps: float) -> QuantizedPmf:
    """Invert the RR channel over the len(counts) edge indices at budget
    eps, clip negative entries to 0, renormalize.

    counts must be a 1-D integer vector, all >= 0, with a positive total.
    eps = 0, the uniform channel, has no inverse and raises ValueError.
    """
    counts = np.asarray(counts)
    if counts.ndim != 1 or counts.dtype.kind not in "iu":
        raise ValueError(f"counts must be a 1-D integer vector, got {counts.dtype} {counts.shape}")
    if np.any(counts < 0):
        raise ValueError("counts must be >= 0")
    total = counts.sum()
    if not total > 0:
        raise ValueError("counts must have a positive total")
    eps = check_eps(eps)
    freq = counts / total
    n = counts.size - 1
    e = _exp_above_one(eps, math.exp(eps))
    # A^{-1} f = ((n + e) f - sum(f)) / (e - 1)
    v = ((n + e) * freq - freq.sum()) / (e - 1.0)
    # the row sums of A^{-1} make sum(v) = sum(f) = 1 before clipping, and
    # clipping only raises it
    v = np.clip(v, 0.0, None)
    return QuantizedPmf(v / v.sum())
