import math

import numpy as np
import pytest

import satfit as sf
from satfit.experiments import (
    BenchRow,
    GeneratorConfig,
    SubspaceGeneratorConfig,
    generate_regression,
    generate_subspace,
    rows_to_csv,
    run_sweep,
    summarize,
)
from satfit.sampling import SamplingConfig


class TestGeneratorConfig:
    def test_rejects_bad_fraction(self):
        with pytest.raises(ValueError):
            GeneratorConfig(n=10, d=2, outlier_fraction=1.0)

    def test_rejects_bad_w0_length(self):
        cfg = GeneratorConfig(n=10, d=2, outlier_fraction=0.0, w0=(1.0,))
        with pytest.raises(ValueError):
            generate_regression(cfg)


class TestGenerateRegression:
    def test_outlier_count_is_exact(self):
        cfg = GeneratorConfig(n=100, d=3, outlier_fraction=0.4, rng_seed=2)
        _, truth = generate_regression(cfg)
        assert truth.outlier_indices.size == 40

    def test_no_outliers_means_clean_linear_data(self):
        cfg = GeneratorConfig(n=50, d=2, outlier_fraction=0.0, rng_seed=3)
        data, truth = generate_regression(cfg)
        assert truth.outlier_indices.size == 0
        residual = data.y - data.x @ truth.w0
        assert np.max(np.abs(residual)) < 5 * math.sqrt(0.1) * 1.5

    def test_bit_identical_reruns(self):
        cfg = GeneratorConfig(n=30, d=2, outlier_fraction=0.3, rng_seed=4)
        a_data, a_truth = generate_regression(cfg)
        b_data, b_truth = generate_regression(cfg)
        assert np.array_equal(a_data.x, b_data.x)
        assert np.array_equal(a_data.y, b_data.y)
        assert np.array_equal(a_truth.w0, b_truth.w0)
        assert np.array_equal(a_truth.outlier_indices, b_truth.outlier_indices)

    def test_explicit_w0_is_respected(self):
        cfg = GeneratorConfig(
            n=20, d=3, outlier_fraction=0.0, rng_seed=5, w0=(1.0, -0.5, 0.8), noise_std=0.0
        )
        data, truth = generate_regression(cfg)
        assert truth.w0.tolist() == [1.0, -0.5, 0.8]
        assert np.allclose(data.y, data.x @ truth.w0)

    def test_noiseless_recovery(self):
        cfg = GeneratorConfig(n=12, d=2, outlier_fraction=0.0, rng_seed=3, noise_std=0.0)
        data, truth = generate_regression(cfg)
        report = sf.exact_regression(data, sf.LossSpec(0, 1e-6))
        assert report.objective == 0.0
        err = np.linalg.norm(report.model.w - truth.w0) / np.linalg.norm(truth.w0)
        assert err < 1e-9


class TestSubspaceGeneratorConfig:
    @pytest.mark.parametrize(
        "field, value",
        [("noise_std", -1.0), ("x_range", 0.0), ("x_range", -1.0), ("coeff_range", 0.0),
         ("coeff_range", -1.0), ("n", 0)],
    )
    def test_rejects_bad_value(self, field, value):
        with pytest.raises(ValueError):
            SubspaceGeneratorConfig(**{"n": 10, "d": 3, "subspace_dim": 1, "outlier_fraction": 0.2, field: value})

    def test_accepts_zero_noise(self):
        SubspaceGeneratorConfig(n=1, d=2, subspace_dim=1, outlier_fraction=0.0, noise_std=0.0)


class TestGenerateSubspace:
    def test_outlier_count_and_determinism(self):
        cfg = SubspaceGeneratorConfig(n=40, d=3, subspace_dim=2, outlier_fraction=0.25, rng_seed=6)
        a_data, a_truth = generate_subspace(cfg)
        b_data, b_truth = generate_subspace(cfg)
        assert a_truth.outlier_indices.size == 10
        assert np.array_equal(a_data.x, b_data.x)
        assert np.array_equal(a_truth.basis, b_truth.basis)

    def test_inliers_sit_on_the_subspace_without_noise(self):
        cfg = SubspaceGeneratorConfig(
            n=20, d=3, subspace_dim=1, outlier_fraction=0.2, rng_seed=7, noise_std=0.0
        )
        data, truth = generate_subspace(cfg)
        model = sf.SubspaceModel(truth.basis)
        res = sf.subspace_residuals(data, model)
        inliers = np.setdiff1d(np.arange(20), truth.outlier_indices)
        assert np.max(res[inliers]) < 1e-12


class TestRunSweep:
    def test_grid_shape_and_order(self):
        base = GeneratorConfig(n=20, d=2, outlier_fraction=0.0, rng_seed=8)
        rows = run_sweep(
            ["sampled", "ransac"],
            [0.2, 0.4],
            3,
            base,
            sf.LossSpec(2, 1.0),
            SamplingConfig(30, 8),
        )
        assert len(rows) == 2 * 2 * 3
        keys = [(r.method, r.r, r.trial) for r in rows]
        assert keys == sorted(keys)

    def test_rerun_identical_except_timing(self):
        base = GeneratorConfig(n=20, d=2, outlier_fraction=0.0, rng_seed=9)
        args = (["sampled"], [0.3], 2, base, sf.LossSpec(2, 1.0), SamplingConfig(30, 9))
        a = run_sweep(*args)
        b = run_sweep(*args)
        strip = lambda rows: [(r.method, r.r, r.trial, r.error, r.objective) for r in rows]
        assert strip(a) == strip(b)

    def test_exact_method_budget(self):
        base = GeneratorConfig(n=5000, d=4, outlier_fraction=0.0, rng_seed=10)
        with pytest.raises(sf.BudgetExceededError):
            run_sweep(
                ["exact"], [0.1], 1, base, sf.LossSpec(2, 1.0), SamplingConfig(10, 0)
            )

    def test_exact_budget_counts_the_seeds_of_the_search_of_p(self):
        # C(20, 2) = 190 lifted seeds at p = 2, C(10, 2) = 45 data rows at p = 1
        base = GeneratorConfig(n=10, d=2, outlier_fraction=0.2, rng_seed=10)
        sampling = SamplingConfig(10, 0)
        with pytest.raises(sf.BudgetExceededError, match="needs 190 seeds"):
            run_sweep(["exact"], [0.2], 1, base, sf.LossSpec(2, 1.0), sampling, exact_budget=100)
        rows = run_sweep(["exact"], [0.2], 1, base, sf.LossSpec(1, 1.0), sampling, exact_budget=45)
        assert [r.method for r in rows] == ["exact"]

    def test_unknown_method(self):
        base = GeneratorConfig(n=10, d=2, outlier_fraction=0.0, rng_seed=11)
        with pytest.raises(ValueError):
            run_sweep(["magic"], [0.1], 1, base, sf.LossSpec(2, 1.0), SamplingConfig(5, 0))

    def test_exact_method_runs_within_budget(self):
        base = GeneratorConfig(n=8, d=1, outlier_fraction=0.25, rng_seed=12)
        rows = run_sweep(
            ["exact", "sampled"], [0.25], 2, base, sf.LossSpec(2, 1.0), SamplingConfig(16, 12)
        )
        exact_rows = [r for r in rows if r.method == "exact"]
        sampled_rows = [r for r in rows if r.method == "sampled"]
        assert len(exact_rows) == len(sampled_rows) == 2
        for e, s in zip(exact_rows, sampled_rows):
            assert s.objective >= e.objective - 1e-12  # same dataset per trial

    def test_clean_data_sanity(self):
        # sampling variant on outlier-free data recovers the model closely
        base = GeneratorConfig(n=100, d=3, outlier_fraction=0.0, rng_seed=77)
        rows = run_sweep(
            ["sampled"],
            [0.0],
            10,
            base,
            sf.LossSpec(2, 3 * math.sqrt(0.1)),
            SamplingConfig(300, 77),
        )
        assert summarize(rows)[0].mean_error < 0.05


class TestSummarize:
    def test_single_row(self):
        rows = [BenchRow("sampled", 0.1, 0, 0.25, 1.0, 0.5)]
        s = summarize(rows)[0]
        assert s.mean_error == 0.25
        assert s.std_error == 0.0
        assert s.trials == 1

    def test_two_rows_mean(self):
        rows = [
            BenchRow("sampled", 0.1, 0, 0.1, 1.0, 0.5),
            BenchRow("sampled", 0.1, 1, 0.3, 1.0, 0.5),
        ]
        s = summarize(rows)[0]
        assert s.mean_error == pytest.approx(0.2)
        assert s.std_error == pytest.approx(0.1)

    def test_matches_manual_recomputation(self):
        rng = np.random.default_rng(12)
        rows = [
            BenchRow(m, r, t, float(rng.uniform()), 1.0, float(rng.uniform()))
            for m in ("a", "b")
            for r in (0.1, 0.2)
            for t in range(25)
        ]
        for s in summarize(rows):
            errs = [x.error for x in rows if x.method == s.method and x.r == s.r]
            assert s.mean_error == pytest.approx(sum(errs) / len(errs), abs=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            summarize([])


class TestCsv:
    def test_header_and_digits(self):
        rows = [BenchRow("sampled", 0.1, 0, 0.123456789123, 1.0, 0.5)]
        text = rows_to_csv(rows)
        lines = text.strip().split("\n")
        assert lines[0] == "method,r,trial,error,objective,seconds"
        assert lines[1] == "sampled,0.1,0,0.123456789,1,0.5"
