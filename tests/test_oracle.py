import math

import numpy as np
import pytest

import satfit as sf
from satfit.experiments import (
    GeneratorConfig,
    SubspaceGeneratorConfig,
    generate_regression,
    generate_subspace,
)
from helpers import axis_dataset, exact_fit_dataset


class TestOracleRegression:
    def test_exact_fit_p0(self):
        result = sf.oracle_regression(exact_fit_dataset(), sf.LossSpec(0, 0.1))
        assert result.objective == 1.0
        assert result.inliers.tolist() == [0, 1, 2, 3]

    def test_collinear_data_is_free(self):
        x = np.array([[1.0], [2.0], [3.0], [4.0]])
        data = sf.RegressionDataset(x, 2.0 * x[:, 0])
        for p in (0, 1, 2):
            assert sf.oracle_regression(data, sf.LossSpec(p, 0.5)).objective == 0.0

    def test_p0_value_is_integral_and_bounded(self):
        rng = np.random.default_rng(1)
        for _ in range(5):
            data = sf.RegressionDataset(rng.normal(size=(8, 2)), rng.normal(size=8))
            result = sf.oracle_regression(data, sf.LossSpec(0, 0.4))
            assert result.objective == int(result.objective)
            assert 0 <= result.objective <= data.n - data.d

    def test_permutation_invariance(self):
        rng = np.random.default_rng(2)
        data = sf.RegressionDataset(rng.normal(size=(9, 2)), rng.normal(size=9))
        perm = rng.permutation(9)
        shuffled = sf.RegressionDataset(data.x[perm], data.y[perm])
        for p in (0, 2):
            spec = sf.LossSpec(p, 0.5)
            a = sf.oracle_regression(data, spec)
            b = sf.oracle_regression(shuffled, spec)
            assert a.objective == pytest.approx(b.objective, rel=1e-12, abs=1e-12)

    def test_refuses_large_instances(self):
        rng = np.random.default_rng(3)
        data = sf.RegressionDataset(rng.normal(size=(21, 2)), rng.normal(size=21))
        with pytest.raises(ValueError):
            sf.oracle_regression(data, sf.LossSpec(0, 0.5))

    def test_p0_stops_at_the_first_dominated_size(self):
        # Below n - k >= the incumbent count no subset can do better, since
        # its model would cover a larger set the minimax fit already met.
        data, _ = generate_regression(GeneratorConfig(n=10, d=2, outlier_fraction=0.3, rng_seed=0))
        result = sf.oracle_regression(data, sf.LossSpec(0, 0.5))
        assert result.objective > 0
        every = sum(math.comb(10, k) for k in range(2, 11))
        assert result.subsets_evaluated < every

    def test_boundary_subsets_are_surfaced(self):
        # two points that can only be fitted with both errors exactly at the
        # threshold; the oracle must flag the ambiguity instead of guessing
        eps = 0.5
        data = sf.RegressionDataset(np.array([[1.0], [1.0]]), np.array([eps, -eps]))
        with pytest.warns(RuntimeWarning):
            result = sf.oracle_regression(data, sf.LossSpec(0, eps))
        assert result.boundary_subsets >= 1
        assert result.objective == 1.0
        assert result.objective_boundary_inclusive <= result.objective


class TestOracleSubspace:
    def test_axis_dataset(self):
        result = sf.oracle_subspace(axis_dataset(), sf.LossSpec(0, 0.1))
        assert result.objective == 2.0
        assert result.inliers.tolist() == [0, 1, 2, 3, 4, 5]

    def test_single_subspace_is_free(self):
        cfg = SubspaceGeneratorConfig(
            n=8, d=2, subspace_dim=1, outlier_fraction=0.0, rng_seed=4, noise_std=0.0
        )
        data, _ = generate_subspace(cfg)
        assert sf.oracle_subspace(data, sf.LossSpec(0, 0.3)).objective == 0.0
        assert sf.oracle_subspace(data, sf.LossSpec(2, 0.3)).objective == pytest.approx(
            0.0, abs=1e-18
        )

    def test_permutation_invariance(self):
        cfg = SubspaceGeneratorConfig(n=8, d=2, subspace_dim=1, outlier_fraction=0.25, rng_seed=5)
        data, _ = generate_subspace(cfg)
        rng = np.random.default_rng(6)
        shuffled = sf.PointDataset(data.x[rng.permutation(8)], 1)
        for p in (0, 2):
            spec = sf.LossSpec(p, 0.5)
            a = sf.oracle_subspace(data, spec)
            b = sf.oracle_subspace(shuffled, spec)
            assert a.objective == pytest.approx(b.objective, rel=1e-12, abs=1e-12)

    def test_p0_evaluates_every_subset(self):
        # The level break of p = 0 regression is unsound here: the L2 fit of
        # a larger set can miss the threshold where that of a subset meets it.
        cfg = SubspaceGeneratorConfig(n=8, d=2, subspace_dim=1, outlier_fraction=0.25, rng_seed=0)
        data, _ = generate_subspace(cfg)
        result = sf.oracle_subspace(data, sf.LossSpec(0, 0.5))
        assert result.objective > 0
        assert result.subsets_evaluated == sum(math.comb(8, k) for k in range(1, 9))

    def test_refuses_large_instances(self):
        rng = np.random.default_rng(7)
        data = sf.PointDataset(rng.normal(size=(17, 2)), 1)
        with pytest.raises(ValueError):
            sf.oracle_subspace(data, sf.LossSpec(0, 0.5))

    def test_rejects_p1(self):
        with pytest.raises(ValueError):
            sf.oracle_subspace(axis_dataset(), sf.LossSpec(1, 0.5))
