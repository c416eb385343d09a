"""Shared fixtures: solved noise tables are expensive, so build them once.

The table suite fixes n_bins=8, m=32 (the harness default window ratio)
and five quantized pmfs of different character.  Narrower windows make the
program infeasible at eps=0.5, so every table here uses the 4x window.

A solved table depends on the earlier solves at its (N, M, eps) in the
process: adaptive._store holds the outputs S, the program and the
solution of the latest one there.  So every test starts and ends with an empty
store, and so does every fixture that solves tables and outlives a test:
no verdict depends on which tests ran before.
"""

import numpy as np
import pytest

from ldpmean import (
    BetaDistribution,
    NoiseShape,
    QuantizedPmf,
    ShiftedExponential,
    TruncatedGaussian,
    make_domain,
    solve_noise_table,
    true_pmf,
)
from ldpmean.adaptive import _GUIDE_BUCKETS, adaptive_perturb_array, clear_store

EPS_GRID = (0.5, 1.0, 2.0, 4.0)


@pytest.fixture(autouse=True)
def empty_store():
    """Each test solves from an empty store and leaves none behind."""
    clear_store()
    yield
    clear_store()


def solved_apart(build):
    """build(), solved from an empty store that it leaves empty: for the
    fixtures that outlive a test, which may be set up after any test."""
    clear_store()
    try:
        return build()
    finally:
        clear_store()


def span(n, a):
    """The outputs k in [-A, N + A]: the S of build_lp for R(A), the
    program over every output within A of the domain."""
    return np.arange(-a, n + a + 1)


def edge_offsets(table, i, n, rng):
    """The noise offsets that adaptive_perturb_array draws for n clients
    on edge i, read off their reports."""
    dom = table.domain
    reports = adaptive_perturb_array(table, np.full(n, dom.edges[i]), rng)
    return np.rint((reports - dom.edges[i]) / dom.sigma).astype(np.int64)


def row_guides_by_rows(q):
    """The row-by-row form of adaptive._row_guides, its reference: each
    row's cdf as rng.choice(p=...) builds it from the renormalized row (all
    NaN for a row with no mass), and its guide table, searchsorted at each
    bucket edge b/K: the index lo = #{cdf <= b/K} where hi = #{cdf <
    (b + 1)/K} equals it, else -1; -1 in every bucket of a row with no mass."""
    edges = np.arange(_GUIDE_BUCKETS + 1) / _GUIDE_BUCKETS
    cdfs, guides = np.full(q.shape, np.nan), np.full((len(q), _GUIDE_BUCKETS), -1)
    for i, row in enumerate(q):
        total = row.sum()
        if total > 0.0:
            cdf = (row / total).cumsum()
            cdfs[i] = cdf / cdf[-1]
            lo = cdfs[i].searchsorted(edges[:-1], side="right")
            hi = cdfs[i].searchsorted(edges[1:], side="left")
            guides[i] = np.where(lo == hi, lo, -1)
    return cdfs, guides.ravel()


@pytest.fixture(scope="session")
def domain8():
    return make_domain(beta=1.0, n_bins=8)


def suite_pmf_shapes(domain):
    """Five pmfs on the domain: a point mass plus four spread shapes."""
    point = np.zeros(domain.n_bins + 1)
    point[0] = 1.0
    return {
        "point": QuantizedPmf(masses=point),
        "uniform": true_pmf(BetaDistribution(1.0, 1.0), domain),
        "gaussian": true_pmf(TruncatedGaussian(0.0, 0.1), domain),
        "shifted_exp": true_pmf(ShiftedExponential(6.0), domain),
        "u_shape": true_pmf(BetaDistribution(0.5, 0.5), domain),
    }


@pytest.fixture(scope="session")
def suite_pmfs(domain8):
    return suite_pmf_shapes(domain8)


@pytest.fixture(scope="session")
def solved_tables(domain8, suite_pmfs):
    """NoiseTable per (pmf name, eps) over the full grid; ~20 LP solves."""
    shape = NoiseShape(m=32)
    return solved_apart(lambda: {
        (name, eps): solve_noise_table(pmf, eps, shape, domain8)
        for name, pmf in suite_pmfs.items()
        for eps in EPS_GRID
    })
