"""Synthetic dataset generators, true-distribution quantized pmfs, and CSV
ingestion.

true_pmf applies the tent-weight expectation to an analytic density: each
mass is the integral of the truncated, renormalized density against a tent
function.  On each segment between two edges the tents are linear, so the
masses follow from two moments of the density there, which every law
gives in closed form from math and numpy: erf and erfc for the Gaussian,
exp for the exponential, the regularized incomplete beta function (a
continued fraction) for the Beta law.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .domain import QuantizedDomain, QuantizedPmf

# _betainc's continued fraction takes about sqrt(max(a, b)) steps at the
# midpoint: 10 at a = b = 0.5, 17 at a = b = 30, 115 at a = b = 1e4
_BETAINC_TERMS = 1000


@dataclass(frozen=True)
class Dataset:
    values: np.ndarray

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
    return Dataset(draws)


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
    return Dataset(draws)


def gen_bernoulli(n: int, p: float, rng: np.random.Generator) -> Dataset:
    if n < 1:
        raise ValueError("n must be >= 1")
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must lie in [0, 1]")
    draws = (rng.random(n) < p).astype(float)
    return Dataset(draws)


@dataclass(frozen=True)
class TruncatedGaussian:
    """N(mu, sd^2) truncated and renormalized to [-beta, beta]."""

    mu: float
    sd: float

    def __post_init__(self):
        if self.sd <= 0:
            raise ValueError("sd must be positive")

    def tent_moments(self, edges: np.ndarray):
        """m0, m1 of g(x) = exp(-z^2 / 2), z = (x - mu) / sd, per segment:
        m0 = sd sqrt(pi/2) (erf(z_hi/sqrt 2) - erf(z_lo/sqrt 2)) and
        m1 = sd^2 (g_lo - g_hi) + (mu - lo) m0."""
        d = edges - self.mu
        y = d / (self.sd * math.sqrt(2.0))
        m0 = self.sd * math.sqrt(math.pi / 2.0) * np.array(
            [_erf_difference(lo, hi) for lo, hi in zip(y[:-1], y[1:])]
        )
        g = np.exp(-y * y)
        # g_lo - g_hi as the larger of the two times expm1 of minus the
        # exponents' gap, which keeps its digits when sd dwarfs the segment
        gap = (d[1:] - d[:-1]) * (d[1:] + d[:-1]) / (2.0 * self.sd * self.sd)
        g_drop = np.where(gap <= 0.0, g[1:], -g[:-1]) * np.expm1(-np.abs(gap))
        return m0, self.sd * self.sd * g_drop - d[:-1] * m0


def _erf_difference(lo: float, hi: float) -> float:
    """erf(hi) - erf(lo) for lo <= hi, from erfc when both lie in one tail,
    where erf is within an ulp of +-1 and erfc keeps the digits."""
    if lo > 0.5:
        return math.erfc(lo) - math.erfc(hi)
    if hi < -0.5:
        return math.erfc(-hi) - math.erfc(-lo)
    return math.erf(hi) - math.erf(lo)


@dataclass(frozen=True)
class ShiftedExponential:
    """Exp(rate) shifted left by beta: density ~ exp(-rate (x + beta))."""

    rate: float

    def __post_init__(self):
        if self.rate <= 0:
            raise ValueError("rate must be positive")

    def tent_moments(self, edges: np.ndarray):
        """m0, m1 of g(x) = exp(-rate (x + beta)) per segment: with
        a = rate (hi - lo), m0 = g_lo (1 - e^-a) / rate and
        m1 = g_lo (1 - e^-a - a e^-a) / rate^2."""
        g = np.exp(-self.rate * (edges[:-1] - edges[0]))
        a = self.rate * np.diff(edges)
        rise = -np.expm1(-a)
        m0 = g * rise / self.rate
        return m0, g * (rise - a * np.exp(-a)) / (self.rate * self.rate)


@dataclass(frozen=True)
class BetaDistribution:
    """Beta(a, b) mapped from [0, 1] onto [-beta, beta]."""

    a: float
    b: float

    def __post_init__(self):
        if self.a <= 0 or self.b <= 0:
            raise ValueError("beta shape parameters must be positive")

    def tent_moments(self, edges: np.ndarray):
        """m0, m1 of the Beta density in u = (x + beta) / 2 beta per
        segment: m0 = I_hi(a, b) - I_lo(a, b) and, since
        u g(u) = a / (a + b) times the Beta(a + 1, b) density and
        I_u(a + 1, b) = I_u(a, b) - F(u) / a with F(u) = u^a (1 - u)^b / B(a, b),
        m1 = 2 beta ((a / (a + b) - u_lo) m0 - (F_hi - F_lo) / (a + b)).
        Taking F in closed form rather than I(a + 1, b) from its continued
        fraction cut the error of a Beta(7.5, 0.8) mass at N=64 from 1.5e-13
        to 6e-15: m1 cancels down to about m0 / 2N, so an error in the I
        values comes back about 2N times over."""
        span = edges[-1] - edges[0]
        u = (edges - edges[0]) / span
        a, b = self.a, self.b
        m0 = np.diff([_betainc(a, b, v) for v in u])
        front = np.diff([0.0 if v <= 0.0 or v >= 1.0 else _beta_front(a, b, v) for v in u])
        return m0, span * ((a / (a + b) - u[:-1]) * m0 - front / (a + b))


def _betainc(a: float, b: float, x: float) -> float:
    """The regularized incomplete beta function I_x(a, b).

    Evaluates the continued fraction of I_x(a, b) by the modified Lentz
    method where it converges fast, x < (a + 1) / (a + b + 2), and uses
    I_x(a, b) = 1 - I_{1-x}(b, a) elsewhere.  Its absolute error is about
    1e-15 for shapes up to 30, where the prefactor comes from math.gamma
    (_beta_front); from a + b = 171 on it comes from lgamma, and the error
    grows with the lgamma values, to 1.2e-12 at a = b = 1000.
    """
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    if x > (a + 1.0) / (a + b + 2.0):
        return 1.0 - _betainc(b, a, 1.0 - x)
    # I_x(a, b) = x^a (1 - x)^b / (a B(a, b)) f with the continued fraction
    # f = 1 / (1 + e_1 / (1 + e_2 / (1 + ...))), built up as the product of
    # the ratios c d of successive convergents; tiny stands in for a zero
    # denominator
    tiny = 1e-300
    c, d = 1.0, 1.0 - (a + b) * x / (a + 1.0)
    d = f = 1.0 / (d if abs(d) > tiny else tiny)
    for m in range(1, _BETAINC_TERMS):
        for e in (
            m * (b - m) * x / ((a + 2 * m - 1.0) * (a + 2 * m)),
            -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1.0)),
        ):
            d = 1.0 + e * d
            d = 1.0 / (d if abs(d) > tiny else tiny)
            c = 1.0 + e / c
            c = c if abs(c) > tiny else tiny
            f *= c * d
        if abs(c * d - 1.0) <= 2.0**-52:
            return _beta_front(a, b, x) * f / a
    raise ArithmeticError(f"I_{x}({a}, {b}): continued fraction did not converge")


def _beta_front(a: float, b: float, x: float) -> float:
    """x^a (1 - x)^b / B(a, b), from math.gamma below a + b = 171, where
    Gamma(a + b) is finite; the lgamma form beyond loses lgamma's magnitude
    times 2^-53 in the exponent.  Over the four Beta laws of the mpmath
    reference at N=256 the worst mass is off by 5.3e-14 with math.gamma
    and 6.7e-14 with lgamma."""
    if a + b < 171.0:
        return x**a * (1.0 - x) ** b * (math.gamma(a + b) / (math.gamma(a) * math.gamma(b)))
    return math.exp(
        a * math.log(x) + b * math.log1p(-x)
        + math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
    )


def true_pmf(dist, domain: QuantizedDomain) -> QuantizedPmf:
    """Quantized pmf of an analytic density: masses[i] = E[w_i(X)].

    On each segment [x_i, x_i + sigma] the density's tent_moments give
    m0 = int g and m1 = int (x - x_i) g; the up tent takes m1 / sigma to
    edge i + 1 and the down tent the rest, m0 - m1 / sigma, to edge i.  The
    total is the truncation normalizer, so the returned masses sum to 1 to
    machine precision.
    """
    m0, m1 = dist.tent_moments(domain.edges)
    up = m1 / domain.sigma
    raw = np.zeros(domain.n_bins + 1)
    raw[:-1] += m0 - up
    raw[1:] += up
    total = raw.sum()
    if not np.isfinite(total) or total <= 1e-300:
        raise ValueError("density has no mass on the domain")
    return QuantizedPmf(raw / total)


def load_csv_matrix(path, column_indices=None) -> np.ndarray:
    """Numeric columns of a comma-separated file as an (n, d) array; all
    columns when column_indices is None.

    A single leading header row is skipped when a selected field is not
    numeric; any later non-numeric field, or row of another field count than
    the first numeric row's, is an error citing its line number.
    """
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
                row = [float(record[c]) for c in wanted]
            except ValueError:
                if line_no == 1:
                    continue  # header row
                raise ValueError(
                    f"{path}:{line_no}: non-numeric value in "
                    f"{[record[c] for c in wanted]!r}"
                ) from None
            if rows and len(row) != len(rows[0]):
                raise ValueError(
                    f"{path}:{line_no}: row has {len(row)} fields, "
                    f"the first numeric row has {len(rows[0])}"
                )
            rows.append(row)
    if not rows:
        raise ValueError(f"{path}: no numeric rows")
    return np.asarray(rows, dtype=float)
