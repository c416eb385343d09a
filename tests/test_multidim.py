"""Attribute sampling and the per-dimension protocol wrapper."""

import numpy as np
import pytest

from ldpmean import (
    MultiDataset,
    NoiseShape,
    assign_attributes,
    make_domain,
    run_multidim_protocol,
    run_protocol,
)

SHAPE = NoiseShape(m=8)


def rng_for(tag: int) -> np.random.Generator:
    return np.random.default_rng(920_000 + tag)


def small_matrix(n: int, d: int, tag: int) -> MultiDataset:
    rows = rng_for(tag).uniform(-0.9, 0.9, (n, d))
    return MultiDataset(rows=rows, bounds=np.ones(d))


class TestMultiDataset:
    def test_arrays_frozen(self):
        data = small_matrix(5, 2, 0)
        with pytest.raises(ValueError):
            data.rows[0, 0] = 0.0
        with pytest.raises(ValueError):
            data.bounds[0] = 2.0

    def test_shape_validation(self):
        with pytest.raises(ValueError, match="n x d"):
            MultiDataset(rows=np.ones(3), bounds=np.ones(1))
        with pytest.raises(ValueError, match="n x d"):
            MultiDataset(rows=np.ones((0, 2)), bounds=np.ones(2))
        with pytest.raises(ValueError, match="one bound per"):
            MultiDataset(rows=np.ones((3, 2)), bounds=np.ones(3))

    def test_bounds_validation(self):
        with pytest.raises(ValueError, match="positive"):
            MultiDataset(rows=np.zeros((2, 2)), bounds=[1.0, 0.0])
        with pytest.raises(ValueError, match="outside"):
            MultiDataset(rows=[[0.5, 1.5]], bounds=[1.0, 1.0])


class TestAssignAttributes:
    def test_shape_and_range(self):
        got = assign_attributes(50, 5, 2, rng_for(1))
        assert got.shape == (50, 2)
        assert got.min() >= 0 and got.max() < 5

    def test_rows_hold_distinct_dimensions(self):
        got = assign_attributes(200, 4, 3, rng_for(2))
        for row in got:
            assert len(set(row.tolist())) == 3

    def test_full_draw_is_deterministic_tiling(self):
        rng = rng_for(3)
        before = rng.bit_generator.state
        got = assign_attributes(7, 3, 3, rng)
        np.testing.assert_array_equal(got, np.tile([0, 1, 2], (7, 1)))
        # k = d must not consume the stream
        assert rng.bit_generator.state == before

    def test_single_draw_is_uniform(self):
        n = 100_000
        got = assign_attributes(n, 3, 1, rng_for(4))
        freqs = np.bincount(got[:, 0], minlength=3) / n
        np.testing.assert_allclose(freqs, 1.0 / 3.0, atol=0.006)

    def test_deterministic_under_seed(self):
        a = assign_attributes(100, 6, 2, rng_for(5))
        b = assign_attributes(100, 6, 2, rng_for(5))
        np.testing.assert_array_equal(a, b)

    def test_validation(self):
        with pytest.raises(ValueError, match="n_clients"):
            assign_attributes(0, 3, 1, rng_for(6))
        with pytest.raises(ValueError, match="1 <= k <= d"):
            assign_attributes(5, 3, 0, rng_for(6))
        with pytest.raises(ValueError, match="1 <= k <= d"):
            assign_attributes(5, 3, 4, rng_for(6))


class TestRunMultidimProtocol:
    def test_single_dimension_matches_scalar_protocol(self):
        # d = 1 with k = 1 must consume the stream exactly as run_protocol,
        # so the same seed gives bit-identical results
        data = small_matrix(400, 1, 7)
        multi = run_multidim_protocol(
            data, 1.0, 0.4, 1, SHAPE, rng_for(8), n_bins=4
        )
        domain = make_domain(1.0, 4)
        scalar = run_protocol(
            data.rows[:, 0], 1.0, 0.4, SHAPE, domain, rng_for(8)
        )
        assert multi.estimates.shape == (1,)
        assert multi.estimates[0] == scalar.mean_estimate
        only = multi.per_dimension[0]
        assert only.phase1_count == scalar.phase1_count
        assert only.phase2_count == scalar.phase2_count
        np.testing.assert_array_equal(
            only.phase1_pmf.masses, scalar.phase1_pmf.masses
        )

    def test_assigned_counts_total_k_times_n(self):
        n, d, k = 300, 3, 2
        data = small_matrix(n, d, 9)
        # eps / k = 1 per attribute, within reach of the M=8 window
        res = run_multidim_protocol(
            data, 2.0, 0.4, k, SHAPE, rng_for(10), n_bins=4
        )
        per_dim = [r.phase1_count + r.phase2_count for r in res.per_dimension]
        assert sum(per_dim) == k * n

    def test_full_draw_uses_every_client_everywhere(self):
        n, d = 150, 2
        data = small_matrix(n, d, 11)
        res = run_multidim_protocol(
            data, 2.0, 0.4, d, SHAPE, rng_for(12), n_bins=4
        )
        for r in res.per_dimension:
            assert r.phase1_count + r.phase2_count == n

    def test_estimates_track_dimension_means(self):
        # two well-separated dimension means; loose tolerance, just a sanity
        # check that each slot estimates its own dimension
        n = 4000
        rng = rng_for(13)
        rows = np.column_stack(
            [
                np.clip(rng.normal(0.5, 0.1, n), -1.0, 1.0),
                np.clip(rng.normal(-0.5, 0.1, n), -1.0, 1.0),
            ]
        )
        data = MultiDataset(rows=rows, bounds=[1.0, 1.0])
        res = run_multidim_protocol(
            data, 2.0, 0.3, 2, NoiseShape(m=32), rng_for(14), n_bins=8
        )
        assert abs(res.estimates[0] - 0.5) < 0.2
        assert abs(res.estimates[1] + 0.5) < 0.2

    def test_deterministic_under_seed(self):
        data = small_matrix(300, 3, 15)
        a = run_multidim_protocol(data, 1.0, 0.4, 1, SHAPE, rng_for(16), n_bins=4)
        b = run_multidim_protocol(data, 1.0, 0.4, 1, SHAPE, rng_for(16), n_bins=4)
        np.testing.assert_array_equal(a.estimates, b.estimates)

    def test_starved_dimension_rejected(self):
        # three clients, one attribute each of two: some dimension has at
        # most one client, too few for two phases, whatever the draw
        data = small_matrix(3, 2, 17)
        with pytest.raises(ValueError, match="dimension [01] has [01] assigned clients"):
            run_multidim_protocol(data, 1.0, 0.4, 1, SHAPE, rng_for(18), n_bins=4)
