"""Phase-1 frequency estimation: randomized response over the edge grid plus
matrix inversion to recover the quantized pmf.

The perturbation matrix A has e^eps/(N + e^eps) on the diagonal and
1/(N + e^eps) elsewhere, so its inverse is the closed form
A^{-1} = ((N + e^eps) I - J) / (e^eps - 1); reconstruction is O(N) and needs
no linear-algebra dependency.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .baselines import generalized_rr
from .domain import QuantizedDomain, QuantizedPmf, round_randomized_array


@dataclass(frozen=True)
class RrMatrix:
    """Randomized-response channel over the N+1 edge indices."""

    size: int  # N + 1
    eps: float
    diagonal: float
    off_diagonal: float

    def as_array(self) -> np.ndarray:
        a = np.full((self.size, self.size), self.off_diagonal)
        np.fill_diagonal(a, self.diagonal)
        return a


@dataclass(frozen=True)
class PerturbedHistogram:
    counts: np.ndarray
    total: int

    def __post_init__(self):
        c = np.asarray(self.counts, dtype=np.int64)
        if np.any(c < 0):
            raise ValueError("negative count")
        if self.total < 1:
            raise ValueError(f"histogram total must be >= 1, got {self.total!r}")
        if c.sum() != self.total:
            raise ValueError("counts do not sum to total")
        object.__setattr__(self, "counts", c)
        c.setflags(write=False)


def build_rr_matrix(n_bins: int, eps: float) -> RrMatrix:
    """RR matrix over N+1 categories at budget eps (eps = inf -> identity)."""
    if n_bins < 1:
        raise ValueError("n_bins must be >= 1")
    eps = float(eps)
    if math.isnan(eps) or eps < 0:
        raise ValueError(f"eps must be nonnegative, got {eps!r}")
    if math.isinf(eps):
        diag, off = 1.0, 0.0
    else:
        e = math.exp(eps)
        diag = e / (n_bins + e)
        off = 1.0 / (n_bins + e)
    return RrMatrix(size=n_bins + 1, eps=eps, diagonal=diag, off_diagonal=off)


def collect_perturbed_histogram(
    domain: QuantizedDomain, data, eps: float, rng: np.random.Generator
) -> PerturbedHistogram:
    """Randomized-round every sample to an edge, perturb the index with
    randomized response, and tally the reported indices."""
    xs = np.atleast_1d(np.asarray(data, dtype=float))
    if xs.size == 0:
        raise ValueError("data must be nonempty")
    idx = round_randomized_array(domain, xs, rng)
    reported = generalized_rr(idx, domain.n_bins + 1, eps, rng)
    counts = np.bincount(reported, minlength=domain.n_bins + 1)
    return PerturbedHistogram(counts=counts, total=int(xs.size))


def reconstruct_pmf(hist: PerturbedHistogram, matrix: RrMatrix) -> QuantizedPmf:
    """Invert the RR channel, clip negative entries to 0, renormalize."""
    if hist.counts.size != matrix.size:
        raise ValueError("histogram / matrix size mismatch")
    freq = hist.counts / hist.total
    if math.isinf(matrix.eps):
        v = freq.astype(float)
    else:
        n = matrix.size - 1
        e = math.exp(matrix.eps)
        # A^{-1} f = ((n + e) f - sum(f)) / (e - 1)
        v = ((n + e) * freq - freq.sum()) / (e - 1.0)
    # the row sums of A^{-1} make sum(v) = sum(f) = 1 before clipping, and
    # clipping only raises it
    v = np.clip(v, 0.0, None)
    return QuantizedPmf(v / v.sum())


def relative_error_bound(p_true: QuantizedPmf, p_hat: QuantizedPmf) -> float:
    """sup_j |p_true_j - p_hat_j| / p_true_j over indices with p_true_j > 0.

    Zero-mass indices of p_true are excluded from the supremum (a finite
    relative error is undefined there).
    """
    pt = p_true.masses
    ph = p_hat.masses
    if pt.size != ph.size:
        raise ValueError("pmf size mismatch")
    support = pt > 0
    if not support.any():
        return 0.0
    return float(np.max(np.abs(pt[support] - ph[support]) / pt[support]))
