"""Variance and error metrics: expected conditional variance of a noise
table, the pmf-averaged closed forms of the baselines, the relative-error
bound linking histogram error to variance error, and the squared-error
metric of the end-to-end experiments."""

from __future__ import annotations

import numpy as np

from .adaptive import NoiseTable
from .baselines import BASELINES, check_eps
from .domain import QuantizedPmf, rounding_weights_array


def row_variances(table: NoiseTable) -> np.ndarray:
    """Conditional noise variance of each row of a table in data units: q
    times the variance (sigma j)^2 of each offset j, sigma^2 times the LP's
    objective coefficients j^2, which are in units of sigma^2."""
    m = table.shape.m
    return table.q @ (table.domain.sigma * np.arange(-m, m + 1)) ** 2


def expected_variance(table: NoiseTable, pmf: QuantizedPmf) -> float:
    """pmf-weighted conditional noise variance of a table.

    At the pmf the table was solved against, this is its lp_objective, the
    LP's optimum times sigma^2, wherever HiGHS holds the program's tube.
    """
    if len(pmf) != table.domain.n_bins + 1:
        raise ValueError("pmf size does not match table")
    return float(pmf.masses @ row_variances(table))


def adaptive_conditional_variance(table: NoiseTable, xs) -> np.ndarray:
    """Var[Y | X=x] of the adaptive mechanism for real inputs x.

    Rounding to edge i with probability w (else i+1) is unbiased and adds
    sigma^2 w (1-w); the row noise is zero-mean and adds its row variance.
    """
    domain = table.domain
    idx, w = rounding_weights_array(domain, np.asarray(xs, dtype=float))
    rows = row_variances(table)
    return domain.sigma**2 * w * (1.0 - w) + w * rows[idx] + (1.0 - w) * rows[idx + 1]


def variance_relative_error(v_hat: float, v: float) -> float:
    """phi = (v_hat - v) / v_hat."""
    if v_hat == 0.0:
        raise ValueError("v_hat must be nonzero")
    return (v_hat - v) / v_hat


def claim3_bound(psi: float) -> tuple[float, float]:
    """Interval (-psi/(1+psi), psi/(1-psi)) containing the variance relative
    error when the histogram relative error is at most psi < 1."""
    if not (0.0 <= psi):
        raise ValueError("psi must be nonnegative")
    if psi >= 1.0:
        raise ValueError("bound undefined for psi >= 1")
    return (-psi / (1.0 + psi), psi / (1.0 - psi))


def baseline_conditional_variance(mechanism: str, xs, eps: float, beta: float):
    """Var[Y | X=x] of a baseline mechanism for inputs x in [-beta, beta]."""
    check_eps(eps)
    if mechanism not in BASELINES:
        raise ValueError(
            f"unknown mechanism {mechanism!r}; expected one of {tuple(BASELINES)}"
        )
    return BASELINES[mechanism][1](np.asarray(xs, dtype=float), beta, eps)


def baseline_expected_variance(
    mechanism: str, pmf: QuantizedPmf, eps: float, beta: float
) -> float:
    """pmf-weighted average of a baseline's conditional variance on the edge
    grid implied by (beta, len(pmf))."""
    xs = np.linspace(-beta, beta, len(pmf))
    return float(pmf.masses @ baseline_conditional_variance(mechanism, xs, eps, beta))


def squared_error(estimate: float, truth: float) -> float:
    return (estimate - truth) ** 2
