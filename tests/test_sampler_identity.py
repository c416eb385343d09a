"""The blocked samplers against full-array reference forms, bit for bit.

Each reference below is a sampler in its plain full-array form: every
uniform array drawn at full length, then the arithmetic on whole arrays,
with np.where for each choice and a per-row searchsorted (or rng.choice)
for the noise category.  The shipped samplers draw the same arrays in the
same order and compute in blocks of domain._BLOCK values, so they must
return the same bits, in an array shaped like the input (0-d for a
scalar), and leave the generator at the same position, and that position
is the documented number of draws.  Only two results may differ:
non-finite inputs now raise, and the Laplace draw 0.0 gives finite noise
(neither occurs below).
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import edge_offsets, row_guides_by_rows, solved_apart
from ldpmean import adaptive, baselines, domain, freqest
from ldpmean.adaptive import NoiseShape, NoiseTable
from ldpmean.baselines import hybrid_alpha, piecewise_params
from ldpmean.data import TruncatedGaussian, true_pmf
from ldpmean.domain import make_domain

B = domain._BLOCK
SIZES = [0, 1, B - 1, B, B + 1, 3 * B + 7]
EPS = [0.3, 1.0, 4.0]  # 0.3 is below the hybrid cutoff, where alpha = 0


# --- reference forms -------------------------------------------------------


def ref_laplace(x, beta, eps, rng):
    xs = np.asarray(x, dtype=float)
    b = 2.0 * beta / eps
    u = rng.random(np.shape(xs)) - 0.5
    # a 0-d sum is a numpy scalar; the samplers return a 0-d array
    return np.asarray(xs + -b * np.sign(u) * np.log1p(-2.0 * np.abs(u)))


def ref_duchi(x, beta, eps, rng):
    xs = np.asarray(x, dtype=float)
    e = math.exp(eps)
    support = beta * (e + 1.0) / (e - 1.0)
    p_pos = (e - 1.0) / (2.0 * e + 2.0) * xs / beta + 0.5
    return np.where(rng.random(np.shape(xs)) < p_pos, support, -support)


def piecewise_inverse_cdf(xs, eps, u):
    """The piecewise report of each x for its uniform u: [-C, l] holds mass
    m_lo = (l + C)/k, k = (h + 1)(C + 1), the window w = h/(h + 1)."""
    c, _ = piecewise_params(eps)
    h = math.exp(eps / 2.0)
    left = (c + 1.0) / 2.0 * xs - (c - 1.0) / 2.0
    k = (h + 1.0) * (c + 1.0)
    w = h / (h + 1.0)
    m_lo = (left + c) / k
    y_in = (u - m_lo) * ((c - 1.0) / w) + left
    y_off = np.where(u < m_lo, u * k - c, u * k - (w * k + 1.0))
    return np.where((u >= m_lo) & (u < m_lo + w), y_in, y_off)


def ref_piecewise(x, eps, rng):
    xs = np.asarray(x, dtype=float)
    return piecewise_inverse_cdf(xs, eps, rng.random(np.shape(xs)))


def ref_hybrid(x, beta, eps, rng):
    xs = np.asarray(x, dtype=float)
    use_pm = rng.random(np.shape(xs)) < hybrid_alpha(eps)
    u = rng.random(np.shape(xs))
    y_pm = beta * piecewise_inverse_cdf(xs / beta, eps, u)
    e = math.exp(eps)
    support = beta * (e + 1.0) / (e - 1.0)
    p_pos = (e - 1.0) / (2.0 * e + 2.0) * xs / beta + 0.5
    y_du = np.where(u < p_pos, support, -support)
    return np.where(use_pm, y_pm, y_du)


def ref_generalized_rr(index, n_categories, eps, rng):
    idx = np.asarray(index)
    e = math.exp(eps)
    keep = rng.random(np.shape(idx)) < e / (e + n_categories - 1.0)
    other = rng.integers(0, n_categories - 1, size=np.shape(idx))
    other += other >= idx
    return np.where(keep, idx, other)


def ref_rounding_weights(dom, x):
    xs = np.asarray(x, dtype=float)
    idx = np.floor((xs + dom.beta) / dom.sigma).astype(np.int64)
    np.clip(idx, 0, dom.n_bins - 1, out=idx)
    w_left = 1.0 - (xs - dom.edges[idx]) / dom.sigma
    np.clip(w_left, 0.0, 1.0, out=w_left)
    return idx, w_left


def ref_round_randomized(dom, x, rng):
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    idx, w_left = ref_rounding_weights(dom, xs)
    return idx + (rng.random(xs.shape) >= w_left)


def ref_choice_noise(table, i, xs, rng):
    """The reports of clients xs on edge i, which rounds to itself: the
    rounding's uniforms, then each offset as rng.choice(p=...) draws it
    from row i."""
    rng.random(xs.size)
    probs = table.q[i] / table.q[i].sum()
    j = rng.choice(probs.size, size=xs.size, p=probs) - table.shape.m
    return -table.domain.beta + table.domain.sigma * (i + j)


def ref_adaptive_perturb(table, xs, rng):
    dom = table.domain
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    idx = ref_round_randomized(dom, xs, rng)
    u = rng.random(xs.shape)
    offsets = np.zeros(xs.shape, dtype=np.int64)
    for i in range(dom.n_bins + 1):
        probs = table.q[i] / table.q[i].sum()
        cdf = probs.cumsum()  # as rng.choice(p=probs) builds it
        cdf /= cdf[-1]
        mask = idx == i
        offsets[mask] = cdf.searchsorted(u[mask], side="right") - table.shape.m
    return -dom.beta + dom.sigma * (idx + offsets)  # the output grid's float


# --- inputs ----------------------------------------------------------------


def stream(*key):
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(list(key))))


def inputs(n, beta=1.0, seed=0):
    """n values in [-beta, beta], the first ones on the ends and the edges."""
    xs = stream(seed, n).uniform(-beta, beta, n)
    special = np.array([-beta, beta, 0.0, 0.5 * beta, -0.25 * beta])
    k = min(n, special.size)
    xs[:k] = special[:k]
    return xs


def hand_table(n_bins=8, m=6):
    """Binary-fraction masses, with mass at both window edges."""
    i, j = np.meshgrid(np.arange(n_bins + 1), np.arange(2 * m + 1), indexing="ij")
    q = ((3 * i + 5 * j) % 7) / 64.0  # zero masses inside every row
    q[:, [0, -1]] += 1.0 / 32.0
    dom = make_domain(1.0, n_bins)
    return NoiseTable(domain=dom, shape=NoiseShape(m=m), q=q, eps=1.0)


@pytest.fixture(scope="module")
def tail_table():
    """The window program's table at N=8, M=24, eps=0.5, whose offsets
    reach the window's edges: q[0][+M] and q[8][-M] hold 0.142 each."""
    d8 = make_domain(1.0, 8)
    pmf = true_pmf(TruncatedGaussian(mu=0.0, sd=0.1), d8)
    return solved_apart(lambda: adaptive.solve_noise_table(pmf, 0.5, NoiseShape(m=24), d8))


def assert_same(got, expected, rng_got, rng_expected):
    """Same type, dtype, shape and bits, and the same next draw."""
    assert type(got) is type(expected)
    got, expected = np.asarray(got), np.asarray(expected)
    assert got.dtype == expected.dtype and got.shape == expected.shape
    np.testing.assert_array_equal(got.view(np.int64), expected.view(np.int64))
    assert rng_got.random() == rng_expected.random()


def run_both(shipped, reference, *args, seed=1):
    rng_got, rng_expected = stream(seed, 99), stream(seed, 99)
    got = shipped(*args, rng_got)
    expected = reference(*args, rng_expected)
    assert_same(got, expected, rng_got, rng_expected)


# --- the grid --------------------------------------------------------------


BASELINES = {
    "laplace": (lambda x, eps, rng: baselines.laplace_perturb(x, 1.0, eps, rng),
                lambda x, eps, rng: ref_laplace(x, 1.0, eps, rng)),
    "laplace-beta": (lambda x, eps, rng: baselines.laplace_perturb(2.5 * x, 2.5, eps, rng),
                     lambda x, eps, rng: ref_laplace(2.5 * x, 2.5, eps, rng)),
    "duchi": (lambda x, eps, rng: baselines.duchi_perturb(x, 1.0, eps, rng),
              lambda x, eps, rng: ref_duchi(x, 1.0, eps, rng)),
    "piecewise": (baselines.piecewise_perturb, ref_piecewise),
    "hybrid": (lambda x, eps, rng: baselines.hybrid_perturb(x, 1.0, eps, rng),
               lambda x, eps, rng: ref_hybrid(x, 1.0, eps, rng)),
    "hybrid-beta": (lambda x, eps, rng: baselines.hybrid_perturb(2.5 * x, 2.5, eps, rng),
                    lambda x, eps, rng: ref_hybrid(2.5 * x, 2.5, eps, rng)),
}


@pytest.mark.parametrize("eps", EPS)
@pytest.mark.parametrize("name", sorted(BASELINES))
@pytest.mark.parametrize("n", SIZES)
def test_baseline_samplers(name, n, eps):
    shipped, reference = BASELINES[name]
    run_both(shipped, reference, inputs(n), eps)


@pytest.mark.parametrize("name", sorted(BASELINES))
def test_baseline_samplers_scalar_and_2d(name):
    shipped, reference = BASELINES[name]
    # a scalar or 0-d input gives a 0-d array
    run_both(shipped, reference, 0.3, 1.0)
    run_both(shipped, reference, np.float64(-1.0), 2.0)
    run_both(shipped, reference, np.array(0.7), 1.0)
    run_both(shipped, reference, inputs(3 * (B + 1)).reshape(-1, 3), 1.0)


@pytest.mark.parametrize("eps", [0.3, 1.0, 4.0])
@pytest.mark.parametrize("n", SIZES)
def test_generalized_rr(n, eps):
    index = stream(2, n).integers(0, 9, n)
    run_both(baselines.generalized_rr, ref_generalized_rr, index, 9, eps)


def test_generalized_rr_scalar_and_2d():
    run_both(baselines.generalized_rr, ref_generalized_rr, 3, 9, 1.0)  # 0-d out
    run_both(baselines.generalized_rr, ref_generalized_rr,
             stream(3).integers(0, 2, (B + 1, 3)), 2, 1.0)


@pytest.mark.parametrize("n", SIZES)
def test_rounding(n):
    dom = make_domain(1.0, 8)
    xs = inputs(n)
    run_both(lambda x, rng: domain.round_randomized_array(dom, x, rng),
             lambda x, rng: ref_round_randomized(dom, x, rng), xs)
    for got, expected in zip(domain.rounding_weights_array(dom, xs),
                             ref_rounding_weights(dom, xs)):
        assert got.dtype == expected.dtype
        np.testing.assert_array_equal(got.view(np.int64), expected.view(np.int64))


def test_rounding_scalar_and_2d():
    dom = make_domain(2.5, 7)
    xs = inputs(3 * (B + 1), beta=2.5).reshape(-1, 3)
    run_both(lambda x, rng: domain.round_randomized_array(dom, x, rng),
             lambda x, rng: ref_round_randomized(dom, x, rng), xs)
    run_both(lambda x, rng: domain.round_randomized_array(dom, x, rng),
             lambda x, rng: ref_round_randomized(dom, x, rng), 1.3)
    for got, expected in zip(domain.rounding_weights_array(dom, xs),
                             ref_rounding_weights(dom, xs)):
        np.testing.assert_array_equal(got, expected)


@pytest.mark.parametrize("n", SIZES)
def test_sample_noise(n, tail_table):
    """adaptive_perturb_array draws the noise of clients on one edge as
    rng.choice(p=...) draws it from that edge's row."""
    for table in (hand_table(), tail_table):
        dom = table.domain
        for i in (0, dom.n_bins // 2, dom.n_bins):
            run_both(lambda x, rng: adaptive.adaptive_perturb_array(table, x, rng),
                     lambda x, rng: ref_choice_noise(table, i, x, rng),
                     np.full(n, dom.edges[i]))


def test_tail_table_draws_its_tails(tail_table):
    # the offsets reach +-M and stop there
    assert np.max(tail_table.q[:, [0, -1]]) == pytest.approx(0.142, abs=0.001)
    right = edge_offsets(tail_table, 0, 3 * B + 7, stream(4))
    left = edge_offsets(tail_table, 8, 3 * B + 7, stream(4))
    assert right.max() == 24 and left.min() == -24
    assert np.abs(np.concatenate([right, left])).max() == 24


@pytest.mark.parametrize("n", SIZES)
def test_adaptive_perturb_array(n, tail_table):
    for table in (hand_table(), tail_table):
        run_both(lambda x, rng: adaptive.adaptive_perturb_array(table, x, rng),
                 lambda x, rng: ref_adaptive_perturb(table, x, rng), inputs(n))


def test_protocol_matches_reference(monkeypatch):
    """run_protocol end to end: phase 1 (rounding and randomized response)
    and phase 2 through the reference forms give the same estimate."""
    dom = make_domain(1.0, 8)
    xs = inputs(3 * B + 7)
    shape = NoiseShape(m=32)
    got = adaptive.run_protocol(xs, 1.0, 0.2, shape, dom, stream(5))
    monkeypatch.setattr(adaptive, "adaptive_perturb_array", ref_adaptive_perturb)
    monkeypatch.setattr(freqest, "round_randomized_array", ref_round_randomized)
    monkeypatch.setattr(freqest, "generalized_rr", ref_generalized_rr)
    expected = adaptive.run_protocol(xs, 1.0, 0.2, shape, dom, stream(5))
    assert got.mean_estimate == expected.mean_estimate
    np.testing.assert_array_equal(got.phase1_pmf.masses, expected.phase1_pmf.masses)


# --- the stream position -------------------------------------------------


DRAWS = {  # sampler on n values, and the arrays its documentation lists
    "laplace": (lambda x, rng: baselines.laplace_perturb(x, 1.0, 1.0, rng), 1),
    "duchi": (lambda x, rng: baselines.duchi_perturb(x, 1.0, 1.0, rng), 1),
    "piecewise": (lambda x, rng: baselines.piecewise_perturb(x, 1.0, rng), 1),
    "hybrid": (lambda x, rng: baselines.hybrid_perturb(x, 1.0, 1.0, rng), 2),
    "hybrid-alpha-0": (lambda x, rng: baselines.hybrid_perturb(x, 1.0, 0.3, rng), 2),
    "rounding": (lambda x, rng: domain.round_randomized_array(make_domain(1.0, 8), x, rng), 1),
    "adaptive": (lambda x, rng: adaptive.adaptive_perturb_array(hand_table(), x, rng), 2),
}


@pytest.mark.parametrize("n", [1, B + 1, 3 * B + 7])
@pytest.mark.parametrize("name", sorted(DRAWS))
def test_stream_position_is_the_documented_draws(name, n):
    sampler, arrays = DRAWS[name]
    rng, expected = stream(6, n), stream(6, n)
    sampler(inputs(n), rng)
    expected.random(arrays * n)
    assert rng.random() == expected.random()


@pytest.mark.parametrize("n", [1, B + 1])
def test_generalized_rr_stream_position(n):
    rng, expected = stream(7, n), stream(7, n)
    baselines.generalized_rr(stream(2, n).integers(0, 9, n), 9, 1.0, rng)
    expected.random(n)
    expected.integers(0, 8, size=n)
    assert rng.random() == expected.random()


# --- the guide table -------------------------------------------------------

K = adaptive._GUIDE_BUCKETS


class Given:
    """Stands in for a Generator whose uniforms are the given values."""

    def __init__(self, u):
        self.u = u

    def random(self, out):
        out[...] = self.u
        return out


def categories(q, u):
    """The categories that the shipped sampler draws from the one row of
    masses q for the uniforms u."""
    q = np.atleast_2d(q)
    return adaptive._draw_from_rows(
        q, np.arange(q.shape[1], dtype=float), np.zeros(u.size, np.int64), Given(u)
    )


masses = st.lists(
    st.one_of(st.just(0.0), st.just(1e-12), st.floats(1e-6, 1.0)),
    min_size=1, max_size=80,
).filter(lambda p: sum(p) > 0)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(
    p=masses,
    buckets=st.lists(st.integers(0, K - 1), max_size=20),
    extra=st.lists(st.floats(0.0, 1.0, exclude_max=True), max_size=20),
)
def test_guide_table_matches_searchsorted(p, buckets, extra):
    probs = np.array(p)
    probs /= probs.sum()
    cdf = probs.cumsum()  # as rng.choice(p=probs) builds it
    cdf /= cdf[-1]
    edges = np.array(buckets, dtype=float) / K  # u exactly on k/K
    below = np.nextafter(edges, 0.0)
    points = cdf[cdf < 1.0]  # u exactly on a cdf point, and just below it
    u = np.concatenate([edges, below, points, np.nextafter(points, 0.0), extra,
                        np.linspace(0.0, 1.0, 1000, endpoint=False)])
    u = u[(u >= 0.0) & (u < 1.0)]
    np.testing.assert_array_equal(categories(p, u), cdf.searchsorted(u, side="right"))


def test_guide_table_on_bucket_edges():
    """cdf points and uniforms on bucket edges k/K and one ulp either side."""
    ks = np.array([1, 2, 3, K // 3, K // 2, K - 1])
    edges = ks / K
    near = np.concatenate([edges, np.nextafter(edges, 0.0), np.nextafter(edges, 1.0)])
    # powers of two between the points keep every step of the row's running
    # sum exact, so that _row_guides builds this very cdf from its masses
    cdf = np.append(np.unique(np.concatenate([near, 2.0 ** -np.arange(1, 11)])), 1.0)
    q = np.diff(cdf, prepend=0.0)
    got_cdf, guide = adaptive._row_guides(q[None])
    np.testing.assert_array_equal(got_cdf[0], cdf)
    np.testing.assert_array_equal(guide, row_guides_by_rows(q[None])[1])
    u = np.concatenate([near, np.nextafter(near, 0.0), np.nextafter(near, 1.0), [0.0]])
    got = categories(q, u)
    np.testing.assert_array_equal(got, cdf.searchsorted(u, side="right"))


def test_row_guides_match_the_per_row_reference():
    # random tables of 1 to 8 rows and 3 to 4097 columns whose masses mix
    # 0, 1e-13 and larger ones, one row of each with no mass
    rng = np.random.default_rng(3)
    levels = np.array([0.0, 1e-13, 1e-3, 0.1, 1.0])
    for _ in range(200):
        shape = (int(rng.integers(1, 9)), int(rng.integers(3, 4098)))
        q = rng.choice(levels, size=shape, p=rng.dirichlet(np.full(levels.size, 0.3)))
        q *= rng.uniform(0.5, 2.0, shape)
        q[rng.integers(shape[0])] = 0.0
        cdf, guide = adaptive._row_guides(q)
        expected_cdf, expected_guide = row_guides_by_rows(q)
        np.testing.assert_array_equal(cdf, expected_cdf)  # NaN rows compare equal
        assert guide.dtype == np.int16
        np.testing.assert_array_equal(guide, expected_guide)
