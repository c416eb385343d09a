"""Synthetic dataset generators, true-distribution quantized pmfs, and CSV
ingestion.

true_pmf applies the tent-weight expectation to an analytic density: each
mass is the integral of the truncated, renormalized density against the tent
functions, evaluated with adaptive quadrature (scipy.integrate.quad, loaded
on true_pmf's first call) per half-tent segment.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .domain import QuantizedDomain, QuantizedPmf

_QUAD_OPTS = dict(epsabs=1e-10, epsrel=1e-10, limit=200)


@dataclass(frozen=True)
class Dataset:
    values: np.ndarray
    provenance: str

    def __post_init__(self):
        v = np.atleast_1d(np.asarray(self.values, dtype=float))
        object.__setattr__(self, "values", v)


def gen_gaussian_clipped(
    n: int, mean: float, stddev: float, clip_lo: float, clip_hi: float,
    rng: np.random.Generator,
) -> Dataset:
    """n Gaussian draws clamped (not rejected) to [clip_lo, clip_hi]."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if not clip_lo <= clip_hi:
        raise ValueError("clip_lo must not exceed clip_hi")
    if stddev < 0:
        raise ValueError("stddev must be nonnegative")
    draws = mean + stddev * rng.standard_normal(n)
    np.clip(draws, clip_lo, clip_hi, out=draws)
    return Dataset(draws, f"gaussian(mean={mean},sd={stddev})clip[{clip_lo},{clip_hi}]")


def gen_exponential_clipped(
    n: int, rate: float, clip_hi: float, rng: np.random.Generator
) -> Dataset:
    """n Exp(rate) draws clamped to [0, clip_hi]."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if rate <= 0:
        raise ValueError("rate must be positive")
    if clip_hi < 0:
        raise ValueError("clip_hi must be nonnegative")
    draws = rng.exponential(scale=1.0 / rate, size=n)
    np.clip(draws, 0.0, clip_hi, out=draws)
    return Dataset(draws, f"exponential(rate={rate})clip[0,{clip_hi}]")


def gen_bernoulli(n: int, p: float, rng: np.random.Generator) -> Dataset:
    if n < 1:
        raise ValueError("n must be >= 1")
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must lie in [0, 1]")
    draws = (rng.random(n) < p).astype(float)
    return Dataset(draws, f"bernoulli(p={p})")


@dataclass(frozen=True)
class TruncatedGaussian:
    """N(mu, sd^2) truncated and renormalized to [-beta, beta]."""

    mu: float
    sd: float

    def __post_init__(self):
        if self.sd <= 0:
            raise ValueError("sd must be positive")

    def unnormalized(self, x: np.ndarray, beta: float) -> np.ndarray:
        z = (np.asarray(x) - self.mu) / self.sd
        return np.exp(-0.5 * z * z)

    def interior_points(self, beta: float):
        return (self.mu,)


@dataclass(frozen=True)
class ShiftedExponential:
    """Exp(rate) shifted left by beta: density ~ exp(-rate (x + beta))."""

    rate: float

    def __post_init__(self):
        if self.rate <= 0:
            raise ValueError("rate must be positive")

    def unnormalized(self, x: np.ndarray, beta: float) -> np.ndarray:
        return np.exp(-self.rate * (np.asarray(x) + beta))

    def interior_points(self, beta: float):
        return ()


@dataclass(frozen=True)
class BetaDistribution:
    """Beta(a, b) mapped from [0, 1] onto [-beta, beta]."""

    a: float
    b: float

    def __post_init__(self):
        if self.a <= 0 or self.b <= 0:
            raise ValueError("beta shape parameters must be positive")

    def unnormalized(self, x: np.ndarray, beta: float) -> np.ndarray:
        u = (np.asarray(x) + beta) / (2.0 * beta)
        u = np.clip(u, 0.0, 1.0)
        with np.errstate(divide="ignore"):
            return u ** (self.a - 1.0) * (1.0 - u) ** (self.b - 1.0)

    def interior_points(self, beta: float):
        return ()


def true_pmf(dist, domain: QuantizedDomain) -> QuantizedPmf:
    """Quantized pmf of an analytic density: masses[i] = E[w_i(X)].

    The unnormalized tent integrals are computed segment by segment; their
    total is the truncation normalizer, so the returned masses sum to 1 to
    machine precision.
    """
    # imported here, its one use, so that importing the package does not
    # load scipy.integrate
    from scipy import integrate

    beta = domain.beta
    edges = domain.edges
    sigma = domain.sigma
    n = domain.n_bins
    raw = np.zeros(n + 1)
    interior = [p for p in dist.interior_points(beta) if -beta < p < beta]
    for seg in range(n):
        lo, hi = edges[seg], edges[seg + 1]
        points = [p for p in interior if lo < p < hi] or None

        def down(x, lo=lo):  # weight of the left edge: 1 at lo, 0 at hi
            return (1.0 - (x - lo) / sigma) * dist.unnormalized(x, beta)

        def up(x, lo=lo):
            return ((x - lo) / sigma) * dist.unnormalized(x, beta)

        left, _ = integrate.quad(down, lo, hi, points=points, **_QUAD_OPTS)
        right, _ = integrate.quad(up, lo, hi, points=points, **_QUAD_OPTS)
        raw[seg] += left
        raw[seg + 1] += right
    total = raw.sum()
    if not np.isfinite(total) or total <= 1e-300:
        raise ValueError("density has no mass on the domain")
    return QuantizedPmf(raw / total)


def load_csv(path, column_index: int = 0) -> Dataset:
    """One numeric column of a comma-separated file.

    A single leading header row is skipped when its selected field is not
    numeric; any later non-numeric field is an error citing its line number.
    """
    values = _load_columns(path, [column_index])[:, 0]
    return Dataset(values, f"{path}[col={column_index}]")


def load_csv_matrix(path, column_indices=None) -> np.ndarray:
    """Several numeric columns of a CSV as an (n, d) array; all columns when
    column_indices is None."""
    return _load_columns(path, column_indices)


def _load_columns(path, column_indices) -> np.ndarray:
    import csv

    rows = []
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        for line_no, record in enumerate(reader, start=1):
            if not record:
                continue
            if column_indices is None:
                wanted = list(range(len(record)))
            else:
                wanted = [int(c) for c in column_indices]
                if any(c < 0 for c in wanted):
                    raise ValueError("column indices must be nonnegative")
            if max(wanted) >= len(record):
                raise ValueError(
                    f"{path}:{line_no}: row has {len(record)} fields, "
                    f"need column {max(wanted)}"
                )
            try:
                rows.append([float(record[c]) for c in wanted])
            except ValueError:
                if line_no == 1:
                    continue  # header row
                raise ValueError(
                    f"{path}:{line_no}: non-numeric value in "
                    f"{[record[c] for c in wanted]!r}"
                ) from None
    if not rows:
        raise ValueError(f"{path}: no numeric rows")
    return np.asarray(rows, dtype=float)
