"""Quantized data domain, randomized rounding, and rescaling.

The data range [-beta, beta] is split into ``n_bins`` equal bins whose N+1
edges form the discrete support everything downstream works on.  A real value
is attached to its two neighbouring edges with tent weights

    w_i(x) = 1 - |x - x_i| / sigma

which makes the expected rounded value equal to x.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class QuantizedDomain:
    """The interval [-beta, beta] with N+1 uniformly spaced edges."""

    beta: float
    n_bins: int
    sigma: float
    edges: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "edges", np.asarray(self.edges, dtype=float))
        self.edges.setflags(write=False)


@dataclass(frozen=True)
class QuantizedPmf:
    """Probability masses on the N+1 edges of a quantized domain."""

    masses: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.masses, dtype=float)
        if m.ndim != 1 or m.size < 1:
            raise ValueError("pmf must be a nonempty vector")
        if not np.isfinite(m).all():
            raise ValueError("pmf has non-finite mass")
        if np.any(m < -1e-12):
            raise ValueError("pmf has negative mass")
        if abs(m.sum() - 1.0) > 1e-9:
            raise ValueError(f"pmf sums to {m.sum()!r}, not 1")
        object.__setattr__(self, "masses", m)
        m.setflags(write=False)

    def __len__(self):
        return self.masses.size


@dataclass(frozen=True)
class LinearTransform:
    """Invertible affine map t(x) = scale * x + offset."""

    scale: float
    offset: float

    def __post_init__(self):
        if self.scale == 0:
            raise ValueError("scale must be nonzero")

    def apply(self, x):
        return self.scale * np.asarray(x, dtype=float) + self.offset

    def invert(self, t):
        return (np.asarray(t, dtype=float) - self.offset) / self.scale


def make_domain(beta: float, n_bins: int) -> QuantizedDomain:
    """Build the quantized domain with sigma = 2*beta/N and edges -beta + j*sigma."""
    if not (beta > 0):
        raise ValueError(f"beta must be positive, got {beta!r}")
    if n_bins < 1:
        raise ValueError(f"n_bins must be >= 1, got {n_bins!r}")
    n_bins = int(n_bins)
    sigma = 2.0 * beta / n_bins
    edges = -beta + sigma * np.arange(n_bins + 1)
    # pin the endpoints so domain checks are exact at +/-beta
    edges[0] = -beta
    edges[-1] = beta
    return QuantizedDomain(beta=float(beta), n_bins=n_bins, sigma=sigma, edges=edges)


# Elements per block of a blocked pass.  2^14 float64 values are 128 KiB, so
# the few temporaries a sampler keeps live per block stay in a core's L2
# cache, and a pass makes no full-length temporary beyond its output and
# its random draws.  At 1.8e6 values, 2^14 and 2^15 ran fastest; 2^11 and
# 2^17 took about a fifth longer (per-call overhead, cache misses).
_BLOCK = 1 << 14


def _blocks(n: int):
    """Slices of at most _BLOCK elements covering range(n) in order."""
    return (slice(start, min(start + _BLOCK, n)) for start in range(0, n, _BLOCK))


def _check_block(xs: np.ndarray, lo: float, hi: float) -> None:
    """Raise ValueError naming the first value of xs outside [lo, hi].

    min and max propagate NaN, so a non-finite value fails too.
    """
    if xs.size and not (xs.min() >= lo and xs.max() <= hi):
        bad = xs[~((xs >= lo) & (xs <= hi))][0]
        raise ValueError(f"value {bad.item()!r} outside [{lo}, {hi}]")


def _rounding_block(domain: QuantizedDomain, xs: np.ndarray):
    """Left edge indices and left weights of one block of in-domain values."""
    _check_block(xs, -domain.beta, domain.beta)
    t = xs + domain.beta
    t /= domain.sigma
    idx = np.floor(t, out=t).astype(np.int64)
    np.clip(idx, 0, domain.n_bins - 1, out=idx)
    w_left = xs - domain.edges[idx]
    w_left /= domain.sigma
    np.subtract(1.0, w_left, out=w_left)
    # floating error can leave w a hair outside [0, 1]
    np.clip(w_left, 0.0, 1.0, out=w_left)
    return idx, w_left


def rounding_weights_array(domain: QuantizedDomain, x) -> tuple[np.ndarray, np.ndarray]:
    """Left edge index and its tent weight for each value of x, as arrays
    shaped like x.  Raises ValueError on a value outside the domain or NaN.

    A value exactly on an interior edge is assigned to that edge with
    weight 1; x = +beta lands in the last bin with left weight 0.  Both
    rules keep the weights deterministic at boundaries.
    """
    xs = np.asarray(x, dtype=float)
    flat = xs.ravel()
    idx = np.empty(flat.size, dtype=np.int64)
    w_left = np.empty(flat.size)
    for block in _blocks(flat.size):
        idx[block], w_left[block] = _rounding_block(domain, flat[block])
    return idx.reshape(xs.shape), w_left.reshape(xs.shape)


def round_randomized_array(domain, x, rng: np.random.Generator) -> np.ndarray:
    """Round each value of x to a neighbouring edge index, the left one with
    probability its tent weight; at least 1-d.  Draws rng.random(n) for n
    values; the edge indices are written over the draws' buffer."""
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    flat = xs.ravel()
    u = rng.random(flat.size)
    out = u.view(np.int64)
    for block in _blocks(flat.size):
        idx, w_left = _rounding_block(domain, flat[block])
        np.add(idx, u[block] >= w_left, out=out[block])
    return out.reshape(xs.shape)


def rescale_to(data, target_beta: float):
    """Affinely map data onto [-target_beta, target_beta].

    min(data) goes to -beta, max(data) to +beta.  Constant data maps to 0
    with scale 1 (degenerate rule, documented) so the transform stays
    invertible.  Data must be finite, and the range must be wide enough
    that the map's slope 2*beta/(max - min) fits in a double; otherwise
    this raises ValueError instead of emitting a garbage transform.
    Returns (scaled array, LinearTransform).
    """
    if not (target_beta > 0):
        raise ValueError("target_beta must be positive")
    xs = np.atleast_1d(np.asarray(data, dtype=float))
    if xs.size == 0:
        raise ValueError("data must be nonempty")
    if not np.isfinite(xs).all():
        raise ValueError("data must be finite to rescale")
    lo, hi = float(xs.min()), float(xs.max())
    if hi == lo:
        t = LinearTransform(scale=1.0, offset=-lo)
    else:
        scale = 2.0 * target_beta / (hi - lo)
        offset = -target_beta - scale * lo
        if not (np.isfinite(scale) and scale != 0.0 and np.isfinite(offset)):
            raise ValueError(
                f"data range [{lo}, {hi}] cannot be mapped onto "
                f"[-{target_beta}, {target_beta}] in float arithmetic"
            )
        t = LinearTransform(scale=scale, offset=offset)
    scaled = t.apply(xs)
    np.clip(scaled, -target_beta, target_beta, out=scaled)
    return scaled, t
