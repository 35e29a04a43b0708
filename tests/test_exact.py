import dataclasses
import math
import os
import signal
import subprocess
import sys
import time
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, strategies as st

import satfit as sf
from satfit.experiments import (
    GeneratorConfig,
    SubspaceGeneratorConfig,
    generate_regression,
    generate_subspace,
)
from satfit import exact
from satfit.exact import SearchStats, _SubspaceSearch
from helpers import axis_dataset, exact_fit_dataset


COUNTERS = [f.name for f in dataclasses.fields(SearchStats)]


def assert_same_report(a, b):
    """Every field of two reports is equal, the wall time aside."""
    for field in dataclasses.fields(a):
        if field.name != "wall_time_seconds":
            x, y = getattr(a, field.name), getattr(b, field.name)
            if field.name == "model":
                x, y = dataclasses.astuple(x)[0], dataclasses.astuple(y)[0]
            assert np.array_equal(x, y), field.name


@pytest.fixture
def no_pool(monkeypatch):
    """Fail the test if a search builds a process pool."""

    def refuse(*args, **kwargs):
        raise AssertionError("the search started a process pool")

    monkeypatch.setattr(exact, "ProcessPoolExecutor", refuse)


@pytest.fixture
def pool_sizes(monkeypatch):
    """Pretend to have 2 cores and map pools in this process; list the pool sizes asked for."""
    sizes = []

    class InProcessPool:
        def __init__(self, max_workers, *args, **kwargs):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, payloads):
            return map(fn, payloads)

    monkeypatch.setattr(exact, "ProcessPoolExecutor", InProcessPool)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    return sizes


def random_regression_instance(seed, n=9, d=2, r=0.3):
    cfg = GeneratorConfig(n=n, d=d, outlier_fraction=r, rng_seed=seed)
    return generate_regression(cfg)[0]


def integer_regression_instances(count=300, seed=5):
    """Small instances with integer x and y, far from general position, and an epsilon each."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        n, d = int(rng.integers(6, 10)), int(rng.integers(1, 4))
        eps = float(rng.choice([0.5, 1.0, 2.0]))
        x = rng.integers(-3, 4, size=(n, d)).astype(float)
        y = rng.integers(-4, 5, size=n).astype(float)
        yield sf.RegressionDataset(x, y), eps


def stat_fields(pid):
    """Fields of /proc/<pid>/stat after the command name (state first), or None if gone."""
    try:
        with open(f"/proc/{pid}/stat") as f:
            return f.read().rsplit(")", 1)[1].split()
    except (FileNotFoundError, ProcessLookupError):
        return None


def is_running(pid):
    fields = stat_fields(pid)
    return fields is not None and fields[0] != "Z"


def children_of(pid):
    pids = (int(entry) for entry in os.listdir("/proc") if entry.isdigit())
    return [child for child in pids if (stat_fields(child) or [None, None])[1] == str(pid)]


def collinear_instance():
    """Seven noiseless points on y = 1 + 2t (with an intercept) and two outliers."""
    t = np.linspace(-2.0, 2.0, 9)
    y = 1.0 + 2.0 * t
    y[[2, 6]] += [3.0, -4.0]
    return sf.RegressionDataset(np.column_stack([np.ones(9), t]), y)


class TestSeedEnumerator:
    def test_small_enumeration(self):
        subsets = list(sf.seed_enumerator(4, 2))
        assert len(subsets) == 6
        assert subsets[0] == (0, 1)
        assert subsets[-1] == (2, 3)

    def test_count(self):
        assert sum(1 for _ in sf.seed_enumerator(10, 2)) == 45

    def test_counter_cross_check(self):
        data = random_regression_instance(0, n=10, d=3)
        report = sf.exact_regression(data, sf.LossSpec(2, 1.0))
        assert report.seeds_enumerated == math.comb(20, 3) == 1140

    def test_invalid_sizes(self):
        with pytest.raises(ValueError):
            sf.seed_enumerator(3, 4)


# (m, k) with 0 <= k <= m
lex_shapes = st.integers(0, 12).flatmap(lambda m: st.tuples(st.just(m), st.integers(0, m)))


class TestCombinationBlock:
    """Seeds are unranked a block at a time; blocks are slices of ``seed_enumerator``."""

    @given(shape=lex_shapes, draw=st.data())
    def test_block_is_the_slice_of_the_enumeration(self, shape, draw):
        m, k = shape
        combos = list(combinations(range(m), k))
        start = draw.draw(st.integers(0, len(combos)))
        stop = draw.draw(st.integers(start, len(combos)))
        block = exact._combination_block(m, k, start, stop)
        assert block.dtype == np.intp
        assert block.shape == (stop - start, k)
        assert [tuple(row) for row in block.tolist()] == combos[start:stop]

    @pytest.mark.parametrize("m", [1, 2, 7, 30])
    def test_edge_sizes(self, m):
        for k in (1, m):
            combos = list(combinations(range(m), k))
            total = len(combos)
            for start, stop in ((0, total), (0, 0), (total, total), (total - 1, total)):
                block = exact._combination_block(m, k, start, stop)
                assert block.shape == (stop - start, k)
                assert [tuple(row) for row in block.tolist()] == combos[start:stop]
            # the last, partial block of a blocked scan
            size = total // 3 + 1
            blocks = list(exact._lex_blocks(m, k, 0, total, size))
            assert blocks[-1].shape[0] == total - size * (len(blocks) - 1)
            assert [tuple(r) for b in blocks for r in b.tolist()] == combos

    @given(
        shape=lex_shapes,
        cuts=st.lists(st.floats(0, 1), max_size=5),
        size=st.integers(1, 40),
    )
    def test_forked_ranges_join_to_the_enumeration(self, shape, cuts, size):
        m, k = shape
        total = math.comb(m, k)
        bounds = sorted({0, total, *(int(c * total) for c in cuts)})
        joined = [
            tuple(row)
            for start, stop in zip(bounds, bounds[1:])
            for block in exact._lex_blocks(m, k, start, stop, size)
            for row in block.tolist()
        ]
        assert joined == list(sf.seed_enumerator(m, k))

    def test_exact_enum_shape_at_block_edges(self):
        # the lifted enumeration of the benchmark's d = 3, n = 60 regression
        m, k, size = 120, 3, exact._RegressionSearch.seed_block
        ref = np.fromiter(combinations(range(m), k), dtype=np.dtype((np.intp, k)))
        total = ref.shape[0]
        assert total == math.comb(m, k) == 280_840
        blocks = list(exact._lex_blocks(m, k, 0, total, size))
        assert [b.shape[0] for b in blocks] == [size] * (total // size) + [total % size]
        assert np.array_equal(np.concatenate(blocks), ref)
        for edge in range(size, total, size):
            block = exact._combination_block(m, k, edge - 1, edge + 1)
            assert np.array_equal(block, ref[edge - 1 : edge + 1])
        block = exact._combination_block(m, k, size - 1, size + 1)
        assert block.tolist() == [[0, 19, 96], [0, 19, 97]]
        assert exact._combination_block(m, k, total - 1, total).tolist() == [[117, 118, 119]]


class TestSeedCountLimit:
    """Ranks are int64: an enumeration of 2**63 seeds or more is refused before any block."""

    @pytest.fixture
    def no_blocks(self, monkeypatch, pool_sizes):
        def refuse(*args):
            raise AssertionError("a block of seeds was enumerated")

        monkeypatch.setattr(exact, "_combination_block", refuse)
        return pool_sizes

    def test_regression(self, no_blocks):
        rng = np.random.default_rng(0)
        data = sf.RegressionDataset(rng.normal(size=(5000, 6)), rng.normal(size=5000))
        count = f"{math.comb(10_000, 6):,} seeds"
        for p in (0, 2):
            with pytest.raises(ValueError, match=count):
                sf.exact_regression(data, sf.LossSpec(p, 0.5), threads=2)
        with pytest.raises(ValueError, match=count):
            sf.approx_regression_p0(data, sf.LossSpec(0, 0.5))
        assert no_blocks == []

    def test_subspace(self, no_blocks):
        rng = np.random.default_rng(0)
        data = sf.PointDataset(rng.normal(size=(5000, 3)), 1)
        with pytest.raises(ValueError, match=f"{math.comb(5000, 6):,} seeds"):
            sf.exact_subspace(data, sf.LossSpec(2, 0.5), threads=2)
        assert no_blocks == []

    def test_largest_counts_below_the_limit_unrank(self):
        # C(100, 90) < 2**63, but the tables hold C(a, i) far above it
        m, k = 100, 90
        total = math.comb(m, k)
        assert total < 2**63 < math.comb(m - 1, 50)
        assert exact._combination_block(m, k, 0, 1)[0].tolist() == list(range(k))
        assert exact._combination_block(m, k, total - 1, total)[0].tolist() == list(range(m - k, m))
        for r in (1, total // 3, total // 2, total - 2):
            seed = exact._combination_block(m, k, r, r + 1)[0].tolist()
            # the seeds before it: those that first differ at position j, with a smaller entry
            before = sum(
                math.comb(m - 1 - t, k - 1 - j)
                for j, c in enumerate(seed)
                for t in range(seed[j - 1] + 1 if j else 0, c)
            )
            assert before == r
        with pytest.raises(ValueError, match="seeds"):
            exact._combination_block(67, 33, 0, 1)  # C(67, 33) > 2**63


class TestExactRegression:
    def test_exact_fit_p0(self):
        report = sf.exact_regression(exact_fit_dataset(), sf.LossSpec(0, 0.1))
        assert report.objective == 1.0
        assert report.inliers.tolist() == [0, 1, 2, 3]
        assert report.model.w[0] == pytest.approx(2.0, abs=1e-9)

    def test_exact_fit_p2(self):
        report = sf.exact_regression(exact_fit_dataset(), sf.LossSpec(2, 0.1))
        assert report.objective == pytest.approx(0.01, abs=1e-15)
        assert report.model.w[0] == pytest.approx(2.0, abs=1e-12)

    @pytest.mark.parametrize("p", [0, 2])
    def test_matches_oracle(self, p):
        for seed in range(10):
            data = random_regression_instance(seed)
            spec = sf.LossSpec(p, 0.5 if seed % 2 else 1.0)
            report = sf.exact_regression(data, spec)
            reference = sf.oracle_regression(data, spec)
            if p == 0:
                assert report.objective == reference.objective
            else:
                assert report.objective == pytest.approx(
                    reference.objective, rel=1e-9, abs=1e-12
                )

    def test_matches_oracle_p1(self):
        # The p = 1 oracle scans the vertices of its arrangement and shares
        # no solver with the search.
        for d, n in ((1, 10), (2, 9), (3, 8)):
            for seed in range(10):
                data = random_regression_instance(seed, n=n, d=d)
                spec = sf.LossSpec(1, 0.5 if seed % 2 else 1.0)
                report = sf.exact_regression(data, spec)
                reference = sf.oracle_regression(data, spec)
                assert report.objective == pytest.approx(reference.objective, rel=1e-9, abs=1e-12)

    def test_objective_never_exceeds_initialization(self):
        for seed in range(5):
            data = random_regression_instance(seed)
            spec = sf.LossSpec(2, 0.4)
            report = sf.exact_regression(data, spec)
            assert report.objective <= spec.saturation * data.n

    def test_counters(self):
        data = random_regression_instance(1, n=10, d=2)
        report = sf.exact_regression(data, sf.LossSpec(0, 0.5))
        assert report.seeds_enumerated == math.comb(20, 2)
        assert report.max_onset_size <= 2 * data.d
        used = (
            report.seeds_enumerated
            - report.seeds_degenerate
            - report.seeds_skipped
            - report.inner_loops_skipped
        )
        assert report.sign_completions <= used * 2 ** (2 * data.d)

    @pytest.mark.parametrize("p", [0, 1, 2])
    def test_every_branch_is_solved_pruned_or_reused(self, p):
        data = random_regression_instance(1, n=8, d=2)
        for prune in (True, False):
            report = sf.exact_regression(data, sf.LossSpec(p, 0.5), prune=prune)
            assert (
                report.subproblems_solved
                + report.subproblems_pruned
                + report.subproblems_reused
                == report.sign_completions
            )
            if p == 0:
                # The minimax fit of a feasible set S leaves at most
                # n - |S| outliers, so the incumbent drops to at most that
                # count and S fails the count bound when it is met again.
                assert report.subproblems_reused == 0
            else:
                assert report.subproblems_reused > 0

    def test_monotone_incumbent(self, monkeypatch):
        data = random_regression_instance(2, n=10)
        seen = []
        monkeypatch.setattr(exact._RegressionSearch, "seed_block", 8)
        sf.exact_regression(data, sf.LossSpec(2, 0.6), progress=lambda done, j: seen.append(j))
        assert all(a >= b for a, b in zip(seen, seen[1:]))

    def test_pruning_does_not_change_the_answer(self):
        for seed in range(8):
            data = random_regression_instance(seed, n=8)
            for p in (0, 1, 2):
                spec = sf.LossSpec(p, 0.7)
                fast = sf.exact_regression(data, spec)
                slow = sf.exact_regression(data, spec, prune=False)
                assert np.array_equal(fast.inliers, slow.inliers)
                # Distinct inlier sets can share one LAD model; pruning may
                # keep another of them, and the vertex solver computes that
                # model from its sorted basis, so it is the same bits.
                assert fast.objective == slow.objective
                assert np.array_equal(fast.model.w, slow.model.w)

    def test_bit_identical_reruns(self):
        data = random_regression_instance(3)
        spec = sf.LossSpec(2, 0.5)
        a = sf.exact_regression(data, spec)
        b = sf.exact_regression(data, spec)
        assert a.objective == b.objective
        assert np.array_equal(a.model.w, b.model.w)
        assert np.array_equal(a.inliers, b.inliers)
        assert a.sign_completions == b.sign_completions

    def test_matches_scalar_path(self, monkeypatch):
        # Blocks of one seed are the seed-by-seed scan with the live
        # incumbent; the blocked scans must equal it bit for bit.  d = 2 seeds
        # use the cross product, d = 3 seeds the cofactors; the collinear
        # instance has seeds with more than d on-hyperplane points.  n = 9:
        # 816 seeds at d = 3.
        def blocked(data, spec, size):
            monkeypatch.setattr(exact._RegressionSearch, "seed_block", size)
            report = sf.exact_regression(data, spec)
            monkeypatch.undo()
            return report

        instances = [random_regression_instance(4, d=d) for d in (2, 3)]
        instances.append(collinear_instance())
        for data in instances:
            d = data.d
            for p in (0, 2):
                spec = sf.LossSpec(p, 0.8)
                scalar = blocked(data, spec, 1)
                assert scalar.seeds_enumerated == math.comb(2 * data.n, d)
                for chunked in (blocked(data, spec, 128), sf.exact_regression(data, spec)):
                    assert chunked.objective == scalar.objective
                    assert np.array_equal(chunked.model.w, scalar.model.w)
                    assert np.array_equal(chunked.inliers, scalar.inliers)
                    for counter in COUNTERS:
                        assert getattr(chunked, counter) == getattr(scalar, counter), (d, p, counter)

    def test_collinear_instance_is_not_generic(self):
        report = sf.exact_regression(collinear_instance(), sf.LossSpec(2, 0.8))
        assert report.max_onset_size > collinear_instance().d
        assert report.objective == pytest.approx(2 * 0.8**2, abs=1e-12)  # the two outliers

    @pytest.mark.parametrize("p", [0, 1, 2])
    def test_objective_is_the_loss_of_the_model_on_integer_data(self, p):
        # Integer data puts several points on one candidate hyperplane and
        # at errors of exactly epsilon, where a set can be feasible only on
        # the boundary; the reported objective must still be what the
        # returned model scores.
        for data, eps in integer_regression_instances():
            spec = sf.LossSpec(p, eps)
            report = sf.exact_regression(data, spec)
            assert report.objective == sf.regression_objective(data, report.model, spec)

    @pytest.mark.filterwarnings("ignore:.*floating-point ambiguous:RuntimeWarning")
    def test_p0_model_is_no_worse_than_the_oracle_on_integer_data(self):
        for data, eps in integer_regression_instances():
            spec = sf.LossSpec(0, eps)
            model = sf.exact_regression(data, spec).model
            assert sf.regression_objective(data, model, spec) <= sf.oracle_regression(data, spec).objective

    def test_branch_blocks_do_not_change_the_answer(self, monkeypatch):
        data = collinear_instance()  # seeds with 7 on-hyperplane points: 128 branches
        for p in (0, 1, 2):
            spec = sf.LossSpec(p, 0.8)
            whole = sf.exact_regression(data, spec)
            monkeypatch.setattr(exact, "_BRANCH_BLOCK", 3)
            blocked = sf.exact_regression(data, spec)
            monkeypatch.undo()
            assert blocked.objective == whole.objective
            assert np.array_equal(blocked.model.w, whole.model.w)
            assert np.array_equal(blocked.inliers, whole.inliers)
            for counter in COUNTERS:
                assert getattr(blocked, counter) == getattr(whole, counter), (p, counter)

    def test_threads_match_sequential(self, monkeypatch):
        data = random_regression_instance(5, n=12)  # 276 seeds: forks with blocks of 32
        monkeypatch.setattr(exact._RegressionSearch, "seed_block", 32)
        for p in (1, 2):
            spec = sf.LossSpec(p, 0.6)
            seq = sf.exact_regression(data, spec)
            par = sf.exact_regression(data, spec, threads=2)
            assert par.objective == seq.objective
            assert np.array_equal(par.model.w, seq.model.w)
            assert np.array_equal(par.inliers, seq.inliers)
            assert par.seeds_enumerated == seq.seeds_enumerated

    @pytest.mark.skipif(not os.path.isdir("/proc"), reason="reads process states from /proc")
    def test_workers_exit_when_the_parent_is_killed(self):
        # n = 120, d = 3: a solve of several seconds, so the workers are still
        # mid-range when their parent is killed.
        script = (
            "import satfit as sf\n"
            "from satfit.experiments import GeneratorConfig, generate_regression\n"
            "cfg = GeneratorConfig(n=120, d=3, outlier_fraction=0.4, rng_seed=1)\n"
            "sf.exact_regression(generate_regression(cfg)[0], sf.LossSpec(2, 1.0), threads=2)\n"
        )
        src = os.path.dirname(os.path.dirname(sf.__file__))
        env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1")
        parent = subprocess.Popen([sys.executable, "-c", script], env=env)
        workers = []
        try:
            deadline = time.monotonic() + 60
            while len(workers) < 2 and time.monotonic() < deadline:
                time.sleep(0.05)
                workers = children_of(parent.pid)
            assert len(workers) == 2, "the solve did not start two workers"
            parent.send_signal(signal.SIGTERM)
            parent.wait(timeout=10)
            deadline = time.monotonic() + 5
            while any(map(is_running, workers)) and time.monotonic() < deadline:
                time.sleep(0.05)
            assert not any(map(is_running, workers))
        finally:
            parent.kill()
            parent.wait(timeout=10)
            for pid in filter(is_running, workers):
                os.kill(pid, signal.SIGKILL)

    def test_cancellation(self, monkeypatch):
        data = random_regression_instance(6, n=12)
        calls = []

        def stop():
            calls.append(1)
            return len(calls) > 1

        monkeypatch.setattr(exact._RegressionSearch, "seed_block", 16)
        report = sf.exact_regression(data, sf.LossSpec(2, 0.5), should_stop=stop)
        assert report.cancelled
        assert report.seeds_enumerated < math.comb(24, 2)

    def test_progress_reports_the_last_seed(self, monkeypatch):
        # 2,024 seeds: not a multiple of a 512-seed block
        data, _ = generate_regression(GeneratorConfig(n=12, d=3, outlier_fraction=0.3, rng_seed=8))
        seen = []
        monkeypatch.setattr(exact._RegressionSearch, "seed_block", 512)
        report = sf.exact_regression(
            data, sf.LossSpec(2, 0.8), progress=lambda done, j: seen.append((done, j))
        )
        assert [done for done, _ in seen] == [512, 1024, 1536, math.comb(24, 3)]
        assert seen[-1][1] == report.objective


class TestApproxP0:
    def test_exact_fit_bound(self):
        model, j0 = sf.approx_regression_p0(exact_fit_dataset(), sf.LossSpec(0, 0.1))
        assert j0 <= 1.0 + 2 * 1  # optimum is 1, dimension is 1

    def test_all_collinear_large_epsilon(self):
        x = np.array([[1.0], [2.0], [3.0], [4.0]])
        data = sf.RegressionDataset(x, 2.0 * x[:, 0])
        _, j0 = sf.approx_regression_p0(data, sf.LossSpec(0, 5.0))
        assert j0 == 0.0

    def test_bound_against_oracle(self):
        for seed in range(10):
            data = random_regression_instance(seed, n=10, d=2)
            spec = sf.LossSpec(0, 0.8)
            _, j0 = sf.approx_regression_p0(data, spec)
            reference = sf.oracle_regression(data, spec)
            assert 0.0 <= j0 - reference.objective <= 2 * data.d

    def test_seed_points_are_outliers_by_index(self):
        # An independent recount in plain numpy: SVD normals of every seed of
        # the lifted set, the d seed points of each hyperplane counted as
        # outliers by index (they lie on the threshold), plus the exact
        # interpolations through d data points.
        eps = 0.7
        for seed in range(500, 530):
            cfg = GeneratorConfig(n=15, d=3, outlier_fraction=0.4, rng_seed=seed)
            data, _ = generate_regression(cfg)
            n, d = data.n, data.d
            z = np.vstack([np.column_stack([data.y - eps, -data.x]),
                           np.column_stack([-data.y - eps, data.x])])
            seeds = np.array(list(combinations(range(2 * n), d)))
            _, s, vh = np.linalg.svd(z[seeds])
            h = vh[:, -1, :]
            usable = (s[:, -1] > 1e-12 * s[:, 0]) & (np.abs(h[:, 0]) > 1e-9)
            w = h[usable, 1:] / h[usable, :1]
            inside = np.abs(data.y - w @ data.x.T) < eps
            inside[np.arange(w.shape[0])[:, None], seeds[usable] % n] = False
            expected = n - inside.sum(axis=1).max()
            for subset in combinations(range(n), d):
                w = np.linalg.solve(data.x[list(subset)], data.y[list(subset)])
                expected = min(expected, n - np.count_nonzero(np.abs(data.y - data.x @ w) < eps))
            _, j0 = sf.approx_regression_p0(data, sf.LossSpec(0, eps))
            assert j0 == expected, seed

    def test_rejects_other_losses(self):
        with pytest.raises(ValueError):
            sf.approx_regression_p0(exact_fit_dataset(), sf.LossSpec(2, 0.1))


class TestExactSubspace:
    def test_axis_dataset_p0(self):
        report = sf.exact_subspace(axis_dataset(), sf.LossSpec(0, 0.1))
        assert report.objective == 2.0
        assert report.inliers.tolist() == [0, 1, 2, 3, 4, 5]
        assert report.seeds_enumerated == math.comb(8, 3)

    def test_axis_dataset_p2(self):
        report = sf.exact_subspace(axis_dataset(), sf.LossSpec(2, 0.1))
        assert report.objective == pytest.approx(0.02, abs=1e-15)

    @pytest.mark.parametrize("p", [0, 2])
    def test_matches_oracle(self, p):
        for seed in range(6):
            cfg = SubspaceGeneratorConfig(
                n=8, d=2, subspace_dim=1, outlier_fraction=0.25, rng_seed=seed
            )
            data, _ = generate_subspace(cfg)
            spec = sf.LossSpec(p, 0.5)
            report = sf.exact_subspace(data, spec)
            reference = sf.oracle_subspace(data, spec)
            if p == 0:
                assert report.objective == reference.objective
            else:
                assert report.objective == pytest.approx(
                    reference.objective, rel=1e-9, abs=1e-12
                )

    def test_counters_and_branch_bound(self):
        cfg = SubspaceGeneratorConfig(n=8, d=2, subspace_dim=1, outlier_fraction=0.25, rng_seed=1)
        data, _ = generate_subspace(cfg)
        lifted_dim = data.lifted_dim
        for p in (0, 2):
            report = sf.exact_subspace(data, sf.LossSpec(p, 0.5))
            assert report.seeds_enumerated == math.comb(data.n, lifted_dim)
            usable = report.seeds_enumerated - report.seeds_degenerate
            assert report.sign_completions == usable * 2 ** (lifted_dim + 1)
            assert report.max_onset_size <= lifted_dim  # general-position bound
            assert (
                report.subproblems_solved
                + report.subproblems_pruned
                + report.subproblems_reused
                == report.sign_completions
            )
            assert report.subproblems_reused > 0

    def test_p1_rejected(self):
        with pytest.raises(ValueError):
            sf.exact_subspace(axis_dataset(), sf.LossSpec(1, 0.1))

    def test_only_p0_is_flagged_approximate(self):
        assert sf.exact_subspace(axis_dataset(), sf.LossSpec(0, 0.1)).approximate
        assert not sf.exact_subspace(axis_dataset(), sf.LossSpec(2, 0.1)).approximate

    @pytest.mark.xfail(
        raises=AssertionError,
        strict=True,
        reason="p = 0 fits each inlier set by L2 SVD, which can leave a point of a "
        "feasible set outside epsilon; the solver and the oracle share that fit",
    )
    def test_p0_matches_an_independent_line_sweep(self):
        # A line through the origin at angle t keeps x within eps when
        # |x0 sin t - x1 cos t| < eps; a fine grid of angles bounds the
        # optimal outlier count from above without any satfit subproblem.
        cfg = SubspaceGeneratorConfig(n=6, d=2, subspace_dim=1, outlier_fraction=0.3, rng_seed=15)
        data, _ = generate_subspace(cfg)
        eps, angles, chunk = 2.0, 2_000_000, 200_000
        witness = data.n
        for start in range(0, angles, chunk):
            t = np.pi * np.arange(start, start + chunk) / angles
            dist = np.abs(np.outer(np.sin(t), data.x[:, 0]) - np.outer(np.cos(t), data.x[:, 1]))
            witness = min(witness, int(np.count_nonzero(dist >= eps, axis=1).min()))
        if witness != 0:  # a broken witness must fail, not count as the known defect
            pytest.fail(f"the angle grid found no 0-outlier line (best {witness})")
        assert sf.exact_subspace(data, sf.LossSpec(0, eps)).objective <= witness

    def test_matches_scalar_sampling_in_exhaustive_mode(self):
        # The drawn-seed scan of the sampling variant, fed every seed in
        # lexicographic order, must reproduce the exact enumeration.
        cfg = SubspaceGeneratorConfig(n=8, d=2, subspace_dim=1, outlier_fraction=0.25, rng_seed=3)
        data, _ = generate_subspace(cfg)
        every_seed = np.array(list(combinations(range(data.n), data.lifted_dim)), dtype=np.intp)
        for p in (0, 2):
            spec = sf.LossSpec(p, 0.5)
            a = sf.exact_subspace(data, spec)
            search = _SubspaceSearch(data, spec)
            search.run_draws(every_seed, None)
            b = search.build_report(0.0, approximate=True)
            assert a.objective == b.objective
            assert np.array_equal(a.model.basis, b.model.basis)
            assert np.array_equal(a.inliers, b.inliers)
            for counter in COUNTERS:
                assert getattr(a, counter) == getattr(b, counter), (p, counter)
            # enough random draws to cover all 56 seeds reach the same optimum
            drawn = sf.sampled_subspace(data, spec, sf.SamplingConfig(2000, 0))
            assert drawn.objective == a.objective

    def test_threads_match_sequential(self):
        # n = 20: 1,140 seeds, enough to fork
        cfg = SubspaceGeneratorConfig(n=20, d=2, subspace_dim=1, outlier_fraction=0.2, rng_seed=2)
        data, _ = generate_subspace(cfg)
        for p in (0, 2):
            spec = sf.LossSpec(p, 0.5)
            seq = sf.exact_subspace(data, spec)
            par = sf.exact_subspace(data, spec, threads=2)
            assert par.objective == seq.objective
            assert np.array_equal(par.model.basis, seq.model.basis)
            assert np.array_equal(par.inliers, seq.inliers)
            # each worker keeps its own fit memo, so a set fitted by both
            # workers moves one branch from reused to solved (here 4,058 sets
            # are fitted with 2 threads against 2,319 with 1)
            memo = ("subproblems_solved", "subproblems_reused")
            for counter in COUNTERS:
                if counter not in memo:
                    assert getattr(par, counter) == getattr(seq, counter), (p, counter)
            assert sum(getattr(par, c) for c in memo) == sum(getattr(seq, c) for c in memo)
            assert par.subproblems_solved >= seq.subproblems_solved

    def test_progress_reports_the_last_seed(self):
        # 364 seeds of 3 lifted points: not a multiple of the 256-seed period
        data, _ = generate_subspace(
            SubspaceGeneratorConfig(n=14, d=2, subspace_dim=1, outlier_fraction=0.3, rng_seed=8)
        )
        seen = []
        report = sf.exact_subspace(
            data, sf.LossSpec(2, 0.5), progress=lambda done, j: seen.append((done, j))
        )
        assert [done for done, _ in seen] == [256, math.comb(14, 3)]
        assert seen[-1][1] == report.objective



def small_regression():
    return random_regression_instance(5, n=12)  # 276 seeds of 2 lifted points


def small_subspace():
    cfg = SubspaceGeneratorConfig(n=14, d=2, subspace_dim=1, outlier_fraction=0.3, rng_seed=8)
    return generate_subspace(cfg)[0]  # 364 seeds of 3 lifted points


SEARCHES = [
    pytest.param(sf.exact_regression, small_regression, exact._RegressionSearch, id="regression"),
    pytest.param(sf.exact_subspace, small_subspace, exact._SubspaceSearch, id="subspace"),
]


@pytest.mark.parametrize("solver, instance, search", SEARCHES)
class TestForkRule:
    """The searches fork min(threads, cores) workers, and only from four blocks of seeds on."""

    def test_below_four_blocks_threads_change_nothing(self, no_pool, solver, instance, search):
        data = instance()
        for p in (0, 2):
            spec = sf.LossSpec(p, 0.5)
            seq = solver(data, spec)
            assert seq.seeds_enumerated < 4 * search.seed_block
            assert_same_report(solver(data, spec, threads=2), seq)

    def test_forks_from_four_blocks_on(self, pool_sizes, monkeypatch, solver, instance, search):
        data = instance()
        spec = sf.LossSpec(2, 0.5)
        total = solver(data, spec).seeds_enumerated
        monkeypatch.setattr(search, "seed_block", total // 4 + 1)
        solver(data, spec, threads=2)
        assert pool_sizes == []
        monkeypatch.setattr(search, "seed_block", total // 4)
        solver(data, spec, threads=2)
        assert pool_sizes == [2]

    def test_should_stop_scans_sequentially(
        self, pool_sizes, monkeypatch, solver, instance, search
    ):
        data = instance()
        spec = sf.LossSpec(2, 0.5)
        total = solver(data, spec).seeds_enumerated
        monkeypatch.setattr(search, "seed_block", total // 4)
        polls = []

        def stop():
            polls.append(1)
            return len(polls) > 1

        report = solver(data, spec, threads=2, should_stop=stop)
        assert report.cancelled
        assert report.seeds_enumerated == 2 * (total // 4)
        assert pool_sizes == []
        solver(data, spec, threads=2)
        assert pool_sizes == [2]

    def test_workers_are_capped_at_the_core_count(
        self, pool_sizes, monkeypatch, solver, instance, search
    ):
        data = instance()
        spec = sf.LossSpec(2, 0.5)
        seq = solver(data, spec)
        monkeypatch.setattr(search, "seed_block", 16)
        par = solver(data, spec, threads=64)
        assert pool_sizes == [2]  # os.cpu_count() is patched to 2
        assert par.objective == seq.objective
        assert np.array_equal(dataclasses.astuple(par.model)[0], dataclasses.astuple(seq.model)[0])
        assert np.array_equal(par.inliers, seq.inliers)
        assert par.seeds_enumerated == seq.seeds_enumerated
