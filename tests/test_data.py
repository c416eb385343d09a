"""Synthetic generators, analytic quantized pmfs, and CSV ingestion."""

import json
import math
import re
from pathlib import Path

import numpy as np
import pytest
from scipy.special import betainc

from ldpmean import (
    BetaDistribution,
    Dataset,
    ShiftedExponential,
    TruncatedGaussian,
    gen_bernoulli,
    gen_exponential_clipped,
    gen_gaussian_clipped,
    make_domain,
    true_pmf,
)
from ldpmean.data import _betainc, load_csv_matrix

REFERENCE_CELLS = json.loads(
    (Path(__file__).resolve().parent / "golden" / "true_pmf_mpmath.json").read_text()
)


def rng_for(tag: int) -> np.random.Generator:
    return np.random.default_rng(910_000 + tag)


class TestGaussianClipped:
    def test_values_stay_clamped(self):
        data = gen_gaussian_clipped(10_000, 0.0, 5.0, -1.0, 1.0, rng_for(0))
        assert data.values.min() >= -1.0
        assert data.values.max() <= 1.0
        # with sd=5 most draws land outside and stick to the clip edges
        assert np.mean(np.abs(data.values) == 1.0) > 0.5

    def test_deterministic_under_seed(self):
        a = gen_gaussian_clipped(100, 0.2, 0.3, -1.0, 1.0, rng_for(1))
        b = gen_gaussian_clipped(100, 0.2, 0.3, -1.0, 1.0, rng_for(1))
        np.testing.assert_array_equal(a.values, b.values)

    def test_zero_stddev_is_constant(self):
        data = gen_gaussian_clipped(10, 0.4, 0.0, -1.0, 1.0, rng_for(2))
        np.testing.assert_array_equal(data.values, np.full(10, 0.4))

    def test_mean_with_mild_clipping(self):
        # sd well inside the window: clipping is negligible, mean ~ mu
        n = 200_000
        data = gen_gaussian_clipped(n, 0.1, 0.2, -1.0, 1.0, rng_for(3))
        se = data.values.std() / math.sqrt(n)
        assert abs(data.values.mean() - 0.1) < 4.0 * se

    def test_validation(self):
        r = rng_for(4)
        with pytest.raises(ValueError, match="n must"):
            gen_gaussian_clipped(0, 0.0, 1.0, -1.0, 1.0, r)
        with pytest.raises(ValueError, match="clip_lo"):
            gen_gaussian_clipped(5, 0.0, 1.0, 1.0, -1.0, r)
        with pytest.raises(ValueError, match="stddev"):
            gen_gaussian_clipped(5, 0.0, -1.0, -1.0, 1.0, r)


class TestExponentialClipped:
    def test_values_stay_in_range(self):
        data = gen_exponential_clipped(10_000, 1.0, 2.0, rng_for(5))
        assert data.values.min() >= 0.0
        assert data.values.max() <= 2.0

    def test_clipped_mean_matches_closed_form(self):
        # E[min(X, h)] = (1 - e^{-rate h}) / rate for X ~ Exp(rate)
        n = 400_000
        rate, h = 2.0, 1.0
        data = gen_exponential_clipped(n, rate, h, rng_for(6))
        expected = (1.0 - math.exp(-rate * h)) / rate
        se = data.values.std() / math.sqrt(n)
        assert abs(data.values.mean() - expected) < 4.0 * se

    def test_validation(self):
        r = rng_for(7)
        with pytest.raises(ValueError, match="n must"):
            gen_exponential_clipped(0, 1.0, 1.0, r)
        with pytest.raises(ValueError, match="rate"):
            gen_exponential_clipped(5, 0.0, 1.0, r)
        with pytest.raises(ValueError, match="clip_hi"):
            gen_exponential_clipped(5, 1.0, -0.5, r)


class TestBernoulli:
    def test_values_are_binary(self):
        data = gen_bernoulli(1000, 0.3, rng_for(8))
        assert set(np.unique(data.values)) <= {0.0, 1.0}

    def test_frequency(self):
        n = 100_000
        data = gen_bernoulli(n, 0.3, rng_for(9))
        se = math.sqrt(0.3 * 0.7 / n)
        assert abs(data.values.mean() - 0.3) < 4.0 * se

    def test_degenerate_rates(self):
        assert gen_bernoulli(50, 0.0, rng_for(10)).values.sum() == 0.0
        assert gen_bernoulli(50, 1.0, rng_for(11)).values.sum() == 50.0

    def test_validation(self):
        with pytest.raises(ValueError, match="p must"):
            gen_bernoulli(5, 1.5, rng_for(12))


class TestDataset:
    def test_scalar_promoted_to_array(self):
        data = Dataset(3.0)
        assert data.values.shape == (1,)


class TestTruePmf:
    def test_uniform_small_grid(self):
        # uniform density against tents: interior edges get sigma/(2 beta),
        # the two half-tents at the ends get half that
        domain = make_domain(beta=1.0, n_bins=2)
        pmf = true_pmf(BetaDistribution(1.0, 1.0), domain)
        np.testing.assert_allclose(pmf.masses, [0.25, 0.5, 0.25], atol=1e-10)

    def test_uniform_wider_grid(self):
        domain = make_domain(beta=1.0, n_bins=4)
        pmf = true_pmf(BetaDistribution(1.0, 1.0), domain)
        np.testing.assert_allclose(
            pmf.masses, [0.125, 0.25, 0.25, 0.25, 0.125], atol=1e-10
        )

    def test_masses_sum_to_one(self):
        domain = make_domain(beta=1.0, n_bins=8)
        for dist in (
            TruncatedGaussian(0.3, 0.2),
            ShiftedExponential(4.0),
            BetaDistribution(0.5, 0.5),
            BetaDistribution(2.0, 5.0),
        ):
            pmf = true_pmf(dist, domain)
            assert abs(pmf.masses.sum() - 1.0) < 1e-12, dist

    def test_symmetric_densities_give_mirror_pmfs(self):
        domain = make_domain(beta=1.0, n_bins=8)
        for dist in (TruncatedGaussian(0.0, 0.25), BetaDistribution(0.5, 0.5)):
            pmf = true_pmf(dist, domain)
            np.testing.assert_allclose(
                pmf.masses, pmf.masses[::-1], atol=1e-8
            )

    def test_narrow_gaussian_concentrates_on_its_edge(self):
        # mu exactly on grid edge index 6 of an 8-bin domain
        domain = make_domain(beta=1.0, n_bins=8)
        mu = domain.edges[6]
        pmf = true_pmf(TruncatedGaussian(mu, 1e-4), domain)
        assert pmf.masses[6] > 0.999

    def test_narrow_gaussian_mid_bin_splits_evenly(self):
        domain = make_domain(beta=1.0, n_bins=2)
        pmf = true_pmf(TruncatedGaussian(-0.5, 1e-4), domain)
        assert pmf.masses[0] == pytest.approx(0.5, abs=1e-6)
        assert pmf.masses[1] == pytest.approx(0.5, abs=1e-6)

    def test_shifted_exponential_single_bin_closed_form(self):
        # n_bins=1, beta=1, rate=1: left tent mass is
        # 0.5 (1 + e^{-2}) / (1 - e^{-2})
        domain = make_domain(beta=1.0, n_bins=1)
        pmf = true_pmf(ShiftedExponential(1.0), domain)
        e2 = math.exp(-2.0)
        left = 0.5 * (1.0 + e2) / (1.0 - e2)
        np.testing.assert_allclose(pmf.masses, [left, 1.0 - left], atol=1e-10)

    def test_mean_preserved_for_uniform(self):
        # tent weights reproduce x in expectation, so the pmf mean over grid
        # edges equals the density mean (0 for the symmetric uniform)
        domain = make_domain(beta=1.0, n_bins=8)
        pmf = true_pmf(BetaDistribution(1.0, 1.0), domain)
        assert float(pmf.masses @ domain.edges) == pytest.approx(0.0, abs=1e-10)

    def test_density_without_mass_rejected(self):
        domain = make_domain(beta=1.0, n_bins=4)
        with pytest.raises(ValueError, match="no mass"):
            true_pmf(TruncatedGaussian(100.0, 0.05), domain)

    def test_distribution_validation(self):
        with pytest.raises(ValueError, match="sd"):
            TruncatedGaussian(0.0, 0.0)
        with pytest.raises(ValueError, match="rate"):
            ShiftedExponential(0.0)
        with pytest.raises(ValueError, match="positive"):
            BetaDistribution(0.0, 1.0)

    def test_narrow_gaussian_in_one_bin_is_exact(self):
        # the law's mass sits at -0.5, a quarter of the way across [-1, 1]
        pmf = true_pmf(TruncatedGaussian(-0.5, 1e-4), make_domain(1.0, 1))
        np.testing.assert_allclose(pmf.masses, [0.75, 0.25], rtol=0, atol=1e-12)

    def test_narrow_gaussian_on_an_edge_feeds_its_neighbours(self):
        # with mu on edge 3, each half of the law gives its outer neighbour
        # int (x - mu) g / sigma over the half, sd / (sqrt(2 pi) sigma) in all
        domain = make_domain(1.0, 4)
        sd = 1e-4
        pmf = true_pmf(TruncatedGaussian(domain.edges[3], sd), domain)
        side = sd / (math.sqrt(2.0 * math.pi) * domain.sigma)
        np.testing.assert_allclose(
            pmf.masses, [0.0, 0.0, side, 1.0 - 2.0 * side, side], rtol=0, atol=1e-12
        )


def reference_law(cell):
    if cell["law"] == "gaussian":
        return TruncatedGaussian(cell["mu"], cell["sd"])
    if cell["law"] == "exponential":
        return ShiftedExponential(cell["rate"])
    return BetaDistribution(cell["a"], cell["b"])


@pytest.mark.parametrize(
    "cell", REFERENCE_CELLS,
    ids=lambda c: f"{reference_law(c)}-N{c['n_bins']}",
)
class TestTruePmfReference:
    """true_pmf against 40-digit masses (tests/true_pmf_reference.py)."""

    def test_masses_match(self, cell):
        pmf = true_pmf(reference_law(cell), make_domain(1.0, cell["n_bins"]))
        np.testing.assert_allclose(pmf.masses, cell["masses"], rtol=0, atol=1e-13)
        assert np.all(pmf.masses >= 0.0)

    def test_mean_is_the_laws(self, cell):
        # the tents interpolate x linearly, so sum p_i x_i = E[X]
        domain = make_domain(1.0, cell["n_bins"])
        pmf = true_pmf(reference_law(cell), domain)
        assert float(pmf.masses @ domain.edges) == pytest.approx(cell["mean"], abs=1e-14)


def test_betainc_matches_scipy():
    shapes = (0.3, 0.5, 1.0, 2.5, 7.5, 30.0)
    grid = np.linspace(0.0, 1.0, 65)
    for a in shapes:
        for b in shapes:
            ours = [_betainc(a, b, x) for x in grid]
            np.testing.assert_allclose(ours, betainc(a, b, grid), rtol=0, atol=5e-14)


def load_column(path, column_index=0):
    """One column of a CSV, as load_csv_matrix reads it."""
    return load_csv_matrix(path, [column_index])[:, 0]


class TestLoadCsv:
    def test_plain_column(self, tmp_path):
        path = tmp_path / "plain.csv"
        path.write_text("1.5\n2.5\n-0.5\n")
        values = load_column(path)
        np.testing.assert_array_equal(values, [1.5, 2.5, -0.5])

    def test_header_row_skipped(self, tmp_path):
        path = tmp_path / "header.csv"
        path.write_text("income\n1.0\n2.0\n")
        values = load_column(path)
        np.testing.assert_array_equal(values, [1.0, 2.0])

    def test_second_column(self, tmp_path):
        path = tmp_path / "two.csv"
        path.write_text("a,b\n1,2\n3,4\n")
        values = load_column(path, column_index=1)
        np.testing.assert_array_equal(values, [2.0, 4.0])

    def test_blank_lines_ignored(self, tmp_path):
        path = tmp_path / "blank.csv"
        path.write_text("1.0\n\n2.0\n")
        values = load_column(path)
        np.testing.assert_array_equal(values, [1.0, 2.0])

    def test_non_numeric_cites_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1.0\noops\n3.0\n")
        with pytest.raises(ValueError, match=":2:"):
            load_column(path)

    def test_short_row_cites_line(self, tmp_path):
        path = tmp_path / "short.csv"
        path.write_text("1,2\n3\n")
        with pytest.raises(ValueError, match=":2:"):
            load_column(path, column_index=1)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(ValueError, match="no numeric rows"):
            load_column(path)

    def test_header_only_rejected(self, tmp_path):
        path = tmp_path / "only_header.csv"
        path.write_text("name\n")
        with pytest.raises(ValueError, match="no numeric rows"):
            load_column(path)

    def test_negative_column_rejected(self, tmp_path):
        path = tmp_path / "neg.csv"
        path.write_text("1.0\n")
        with pytest.raises(ValueError, match="nonnegative"):
            load_column(path, column_index=-1)

    def test_matrix_all_columns(self, tmp_path):
        path = tmp_path / "matrix.csv"
        path.write_text("x,y\n1,2\n3,4\n")
        got = load_csv_matrix(path)
        np.testing.assert_array_equal(got, [[1.0, 2.0], [3.0, 4.0]])

    def test_matrix_ragged_row_rejected(self, tmp_path):
        # a row of another field count than the first numeric row's names
        # its line and both counts, whether it is shorter or longer
        path = tmp_path / "ragged.csv"
        path.write_text("x,y\n1,2\n3\n4,5\n")
        with pytest.raises(ValueError, match=re.escape(
                f"{path}:3: row has 1 fields, the first numeric row has 2")):
            load_csv_matrix(path)
        path.write_text("1,2\n3,4,5\n")
        with pytest.raises(ValueError, match=re.escape(
                f"{path}:2: row has 3 fields, the first numeric row has 2")):
            load_csv_matrix(path)

    def test_matrix_column_subset_keeps_order(self, tmp_path):
        path = tmp_path / "subset.csv"
        path.write_text("1,2,3\n4,5,6\n")
        got = load_csv_matrix(path, column_indices=[2, 0])
        np.testing.assert_array_equal(got, [[3.0, 1.0], [6.0, 4.0]])
