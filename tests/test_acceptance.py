"""Acceptance gate: one test per release criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; the whole module is the exit bar for the package.
"""

import math
import time

import numpy as np
import pytest

import satfit as sf
from satfit.experiments import (
    GeneratorConfig,
    SubspaceGeneratorConfig,
    generate_regression,
    generate_subspace,
    run_sweep,
    summarize,
)
from satfit.sampling import SamplingConfig, ransac_regression, sampled_regression
from helpers import random_orthonormal

P2_RELATIVE_TOL = 1e-9
BOUNDARY_EXCLUSION = 1e-8


def _report(criterion: str, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: PASS ({detail})")


def test_criterion_1_exactness_regression():
    # 50 seeded instances, N=10, d=2, noise variance 0.1, 30% outliers,
    # epsilon alternating between 0.5 and 1.0; both p = 0 and p = 2.
    checked = 0
    for seed in range(50):
        cfg = GeneratorConfig(n=10, d=2, outlier_fraction=0.3, rng_seed=seed)
        data, _ = generate_regression(cfg)
        eps = 0.5 if seed % 2 == 0 else 1.0
        for p in (0, 2):
            spec = sf.LossSpec(p, eps)
            got = sf.exact_regression(data, spec).objective
            want = sf.oracle_regression(data, spec).objective
            if p == 0:
                assert got == want, f"seed {seed}: p=0 mismatch {got} != {want}"
            else:
                assert got == pytest.approx(want, rel=P2_RELATIVE_TOL, abs=1e-12), (
                    f"seed {seed}: p=2 mismatch {got} != {want}"
                )
            checked += 1
    _report("criterion 1", f"{checked} exact-vs-oracle regression comparisons agree")


def test_criterion_2_exactness_subspace():
    checked = 0
    for seed in range(20):
        cfg = SubspaceGeneratorConfig(
            n=8, d=2, subspace_dim=1, outlier_fraction=0.25, rng_seed=seed
        )
        data, _ = generate_subspace(cfg)
        for p in (0, 2):
            spec = sf.LossSpec(p, 0.5)
            got = sf.exact_subspace(data, spec).objective
            want = sf.oracle_subspace(data, spec).objective
            if p == 0:
                assert got == want, f"seed {seed}: p=0 mismatch {got} != {want}"
            else:
                assert got == pytest.approx(want, rel=P2_RELATIVE_TOL, abs=1e-12), (
                    f"seed {seed}: p=2 mismatch {got} != {want}"
                )
            checked += 1
    _report("criterion 2", f"{checked} exact-vs-oracle subspace comparisons agree")


def test_criterion_3_approximation_bound():
    # the no-completion shortcut stays within 2d = 4 outliers of the optimum
    violations = []
    for seed in range(30):
        cfg = GeneratorConfig(n=10, d=2, outlier_fraction=0.3, rng_seed=1000 + seed)
        data, _ = generate_regression(cfg)
        spec = sf.LossSpec(0, 0.5 if seed % 2 == 0 else 1.0)
        _, j0 = sf.approx_regression_p0(data, spec)
        optimum = sf.oracle_regression(data, spec).objective
        gap = j0 - optimum
        if not 0.0 <= gap <= 4.0:
            violations.append((seed, gap))
    assert not violations, f"bound violated: {violations}"
    _report("criterion 3", "30 instances, every gap within [0, 4]")


def test_criterion_4_lifted_sign_equivalence():
    rng = np.random.default_rng(2024)
    mismatches = 0
    excluded = 0
    for _ in range(1000):
        n = int(rng.integers(5, 16))
        d = int(rng.integers(1, 4))
        data = sf.RegressionDataset(rng.normal(size=(n, d)) * 2, rng.normal(size=n) * 2)
        w = rng.normal(size=d)
        eps = float(rng.uniform(0.2, 1.5))
        spec = sf.LossSpec(0, eps)
        e = np.abs(data.y - data.x @ w)
        keep = np.abs(e - eps) > BOUNDARY_EXCLUSION * max(1.0, eps)
        excluded += int(n - np.count_nonzero(keep))
        z = sf.lift_regression(data, spec)
        q = sf.classify(z, np.concatenate([[1.0], w]))
        via_signs = (q[:n] == -1) & (q[n:] == -1)
        direct = e < eps
        mismatches += int(np.count_nonzero(via_signs[keep] != direct[keep]))
    for _ in range(1000):
        d = int(rng.integers(2, 5))
        ds = int(rng.integers(1, d))
        n = max(d * (d + 1) // 2, int(rng.integers(5, 14)))
        data = sf.PointDataset(rng.normal(size=(n, d)) * 2, ds)
        model = sf.SubspaceModel(random_orthonormal(rng, d, ds))
        eps = float(rng.uniform(0.2, 1.5))
        res = sf.subspace_residuals(data, model)
        keep = np.abs(res - eps) > BOUNDARY_EXCLUSION * max(1.0, eps)
        excluded += int(n - np.count_nonzero(keep))
        z = sf.lift_subspace(data, sf.LossSpec(0, eps))
        via_signs = z.z @ sf.subspace_normal(model) < 0
        direct = res < eps
        mismatches += int(np.count_nonzero(via_signs[keep] != direct[keep]))
    assert mismatches == 0
    _report(
        "criterion 4",
        f"2000 draws, 0 mismatches ({excluded} boundary points excluded)",
    )


def test_criterion_5_counters_and_completion_bounds():
    cfg = GeneratorConfig(n=10, d=2, outlier_fraction=0.3, rng_seed=5)
    data, _ = generate_regression(cfg)
    report = sf.exact_regression(data, sf.LossSpec(2, 0.5))
    assert report.seeds_enumerated == math.comb(2 * data.n, data.d)
    assert report.max_onset_size <= 2 * data.d  # per-seed completions <= 2^(2d)

    scfg = SubspaceGeneratorConfig(n=8, d=2, subspace_dim=1, outlier_fraction=0.25, rng_seed=5)
    sdata, _ = generate_subspace(scfg)
    sreport = sf.exact_subspace(sdata, sf.LossSpec(2, 0.5))
    lifted_dim = sdata.lifted_dim
    assert sreport.seeds_enumerated == math.comb(sdata.n, lifted_dim)
    usable = sreport.seeds_enumerated - sreport.seeds_degenerate
    assert sreport.sign_completions <= usable * 2 ** (lifted_dim + 1)
    assert sreport.max_onset_size <= lifted_dim
    _report(
        "criterion 5",
        f"seed counts C(20,2)={report.seeds_enumerated}, "
        f"C(8,3)={sreport.seeds_enumerated}; onset bounds hold",
    )


def test_criterion_6_complexity_scaling():
    # coarse scaling sanity: doubling N multiplies the exact regression wall
    # time by 2^3 up to a factor-2 band (seed count alone contributes 4x)
    spec = sf.LossSpec(2, 3 * math.sqrt(0.1))
    datasets = {}
    for n in (80, 160):
        cfg = GeneratorConfig(n=n, d=2, outlier_fraction=0.4, rng_seed=11)
        datasets[n], _ = generate_regression(cfg)
    sf.exact_regression(datasets[80], spec)  # warm the caches before timing
    times = {80: [], 160: []}
    for _ in range(7):  # interleaved, so that a slow spell of the machine meets both sizes
        for n in (80, 160):
            start = time.perf_counter()
            sf.exact_regression(datasets[n], spec)
            times[n].append(time.perf_counter() - start)
    medians = {n: sorted(t)[3] for n, t in times.items()}
    ratio = medians[160] / medians[80]
    assert 4.0 <= ratio <= 16.0, f"scaling ratio {ratio:.2f} outside [4, 16]"
    _report(
        "criterion 6",
        f"median {medians[80]*1e3:.0f} ms -> {medians[160]*1e3:.0f} ms, ratio {ratio:.2f}",
    )


def test_criterion_6_seed_count_scaling():
    # the deterministic shape under criterion 6's wall times: every d-subset
    # of the 2n lifted points is a seed, C(2n, 2) of them at d = 2
    spec = sf.LossSpec(2, 3 * math.sqrt(0.1))
    counts = {}
    for n in (80, 160):
        cfg = GeneratorConfig(n=n, d=2, outlier_fraction=0.4, rng_seed=11)
        data, _ = generate_regression(cfg)
        counts[n] = sf.exact_regression(data, spec).seeds_enumerated
        assert counts[n] == math.comb(2 * n, 2)
    _report("criterion 6", f"seeds {counts[80]:,} -> {counts[160]:,}")


def test_criterion_7_sampling_beats_ransac_when_heavily_contaminated():
    spec = sf.LossSpec(2, 3 * math.sqrt(0.1))
    wins = 0
    details = []
    for master in (101, 202, 303):
        base = GeneratorConfig(n=200, d=4, outlier_fraction=0.0, rng_seed=master)
        rows = run_sweep(
            ["sampled", "ransac"],
            [0.7, 0.8],
            25,
            base,
            spec,
            SamplingConfig(1500, master, subset_size=8),
        )
        means = {(s.method, s.r): s.mean_error for s in summarize(rows)}
        ok = (
            means[("sampled", 0.7)] <= means[("ransac", 0.7)]
            and means[("sampled", 0.8)] <= means[("ransac", 0.8)]
        )
        wins += ok
        details.append(f"seed {master}: {'pass' if ok else 'fail'}")
    assert wins >= 2, f"sampling beat the baseline on only {wins}/3 master seeds"
    _report("criterion 7", f"{wins}/3 master seeds ({'; '.join(details)})")


def test_criterion_8_timing_table_substitution():
    # The absolute-time comparison against an external MILP solver is
    # hardware- and license-bound, hence not reproducible here.  Its content
    # (exactness certification and polynomial growth) is covered by
    # criteria 1, 2 and 6 instead.
    _report("criterion 8", "documented substitution by criteria 1, 2 and 6")


def test_criterion_9_noiseless_recovery():
    checked = 0
    for seed in range(10):
        cfg = GeneratorConfig(n=10, d=2, outlier_fraction=0.0, rng_seed=seed, noise_std=0.0)
        data, truth = generate_regression(cfg)
        norm = np.linalg.norm(truth.w0)
        for p in (0, 2):
            spec = sf.LossSpec(p, 1e-6)
            runs = {
                "exact": sf.exact_regression(data, spec),
                "sampled": sampled_regression(data, spec, SamplingConfig(500, seed)),
                "ransac": ransac_regression(data, spec, SamplingConfig(200, seed)),
            }
            for name, report in runs.items():
                err = np.linalg.norm(report.model.w - truth.w0) / norm
                assert report.objective <= 1e-18, f"{name} seed {seed} p={p}: J={report.objective}"
                assert err <= 1e-6, f"{name} seed {seed} p={p}: error {err}"
                checked += 1
    _report("criterion 9", f"{checked} noiseless runs recovered the true model")
