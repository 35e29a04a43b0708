import contextlib
import dataclasses
import math
import os
import signal
import subprocess
import sys
import time
import tracemalloc
from itertools import combinations
from unittest import mock

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
from satfit import exact, oracle
from satfit.exact import SearchStats, _SubspaceSearch
from satfit.sampling import _draw_seeds
from helpers import (
    assert_p0_counts_agree,
    axis_dataset,
    closed_count_reference,
    exact_fit_dataset,
    integer_point_sets,
    integer_regression_instances,
    line_dataset,
)


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


def oracle_instances():
    """(data, eps) pairs at d = 2 that the search is checked on against the oracles."""
    for seed in range(10):
        yield random_regression_instance(seed), 0.5 if seed % 2 else 1.0
    for seed in range(8):
        yield random_regression_instance(seed, n=8), 0.7


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


def lifted_search(data, spec):
    """The report of the lifted branch search over every seed.

    ``exact_regression`` runs it at p = 0 and 2, ``sampled_regression`` on
    drawn seeds at every p; at p = 1 it is exact too, and its branch and
    skip edges stay covered here.
    """
    search = exact._RegressionSearch(data, spec)
    search.run_range(0, math.comb(2 * data.n, data.d))
    return search.build_report(0.0, approximate=False)


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
    """Seeds are unranked a block at a time, as columns; blocks are slices of ``seed_enumerator``."""

    @given(shape=lex_shapes, draw=st.data())
    def test_block_is_the_slice_of_the_enumeration(self, shape, draw):
        m, k = shape
        combos = list(combinations(range(m), k))
        start = draw.draw(st.integers(0, len(combos)))
        stop = draw.draw(st.integers(start, len(combos)))
        block = exact._combination_block(m, k, start, stop)
        assert block.dtype == np.intp
        assert block.shape == (k, stop - start)
        assert [tuple(row) for row in block.T.tolist()] == combos[start:stop]

    @pytest.mark.parametrize("m", [1, 2, 7, 30])
    def test_edge_sizes(self, m):
        for k in (1, m):
            combos = list(combinations(range(m), k))
            total = len(combos)
            for start, stop in ((0, total), (0, 0), (total, total), (total - 1, total)):
                block = exact._combination_block(m, k, start, stop)
                assert block.shape == (k, stop - start)
                assert [tuple(row) for row in block.T.tolist()] == combos[start:stop]
            # the last, partial block of a blocked scan
            size = total // 3 + 1
            blocks = list(exact._lex_blocks(m, k, 0, total, size))
            assert blocks[-1].shape[1] == total - size * (len(blocks) - 1)
            assert [tuple(r) for b in blocks for r in b.T.tolist()] == combos

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
            for row in block.T.tolist()
        ]
        assert joined == list(sf.seed_enumerator(m, k))

    def test_exact_enum_shape_at_block_edges(self):
        # the lifted enumeration of the benchmark's d = 3, n = 60 regression
        m, k, size = 120, 3, exact._RegressionSearch.seed_block
        ref = np.fromiter(combinations(range(m), k), dtype=np.dtype((np.intp, k)))
        total = ref.shape[0]
        assert total == math.comb(m, k) == 280_840
        blocks = list(exact._lex_blocks(m, k, 0, total, size))
        assert [b.shape[1] for b in blocks] == [size] * (total // size) + [total % size]
        assert np.array_equal(np.concatenate(blocks, axis=1), ref.T)
        for edge in range(size, total, size):
            block = exact._combination_block(m, k, edge - 1, edge + 1)
            assert np.array_equal(block, ref[edge - 1 : edge + 1].T)
        block = exact._combination_block(m, k, size - 1, size + 1)
        assert block.T.tolist() == [[0, 19, 96], [0, 19, 97]]
        assert exact._combination_block(m, k, total - 1, total).T.tolist() == [[117, 118, 119]]


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
        assert exact._combination_block(m, k, 0, 1)[:, 0].tolist() == list(range(k))
        assert exact._combination_block(m, k, total - 1, total)[:, 0].tolist() == list(range(m - k, m))
        for r in (1, total // 3, total // 2, total - 2):
            seed = exact._combination_block(m, k, r, r + 1)[:, 0].tolist()
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
        for data, eps in oracle_instances():
            spec = sf.LossSpec(p, eps)
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
        instances = [
            (random_regression_instance(seed, n=n, d=d), 0.5 if seed % 2 else 1.0)
            for d, n in ((1, 10), (3, 8))
            for seed in range(10)
        ]
        for data, eps in instances + list(oracle_instances()):
            spec = sf.LossSpec(1, eps)
            report = sf.exact_regression(data, spec)
            reference = sf.oracle_regression(data, spec)
            assert report.objective == pytest.approx(reference.objective, rel=1e-9, abs=1e-12)

    @pytest.mark.parametrize("p", [1, 2])
    def test_matches_oracle_on_noiseless_data_at_a_non_dyadic_epsilon(self, p):
        # Lines with coefficients and abscissae on a 0.1 grid, outliers moved
        # by multiples of 0.1, eps = 0.3: objectives land on multiples of
        # eps^p plus round-off, where the count bound eps^p (n - |S|) and a
        # seed's skip test eps^p (n - base - n0) >= J meet.  At p = 1 the
        # lifted search, which exact_regression leaves to the vertex scan,
        # is checked too.
        rng = np.random.default_rng(3)
        for n in (8, 10, 12, 12):
            t = np.round(rng.normal(size=n) * 2, 1)
            a, b = np.round(rng.normal(size=2), 1)
            y = np.round(a + b * t, 1)
            out = rng.choice(n, size=n // 3, replace=False)
            y[out] += np.round(rng.normal(size=out.size) * 3, 1)
            data = sf.RegressionDataset(np.column_stack([np.ones(n), t]), y)
            spec = sf.LossSpec(p, 0.3)
            reference = sf.oracle_regression(data, spec)
            for report in (sf.exact_regression(data, spec), lifted_search(data, spec)):
                assert report.objective == pytest.approx(reference.objective, rel=1e-9, abs=1e-12)

    def test_matches_the_p1_vertex_scan_at_n60(self):
        # The public oracle refuses n > 20; its p = 1 vertex scan visits
        # C(n, d) 3^d vertices, few enough to certify the search at n = 60.
        for seed in range(3):
            data = random_regression_instance(seed, n=60, d=2)
            spec = sf.LossSpec(1, 3 * math.sqrt(0.1))
            report = sf.exact_regression(data, spec)
            reference = oracle._oracle_regression_p1(data, spec)
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
        report = lifted_search(data, sf.LossSpec(p, 0.5))
        assert (
            report.subproblems_solved + report.subproblems_pruned + report.subproblems_reused
            == report.sign_completions
        )
        if p == 0:
            # The minimax fit of a feasible set S leaves at most n - |S|
            # outliers, so the incumbent drops to at most that count and S
            # fails the count bound when it is met again.
            assert report.subproblems_reused == 0
        else:
            assert report.subproblems_reused > 0

    def test_monotone_incumbent(self, monkeypatch):
        data = random_regression_instance(2, n=10)
        seen = []
        monkeypatch.setattr(exact._RegressionSearch, "seed_block", 8)
        sf.exact_regression(data, sf.LossSpec(2, 0.6), progress=lambda done, j: seen.append(j))
        assert all(a >= b for a, b in zip(seen, seen[1:]))

    def test_bit_identical_reruns(self):
        data = random_regression_instance(3)
        spec = sf.LossSpec(2, 0.5)
        a = sf.exact_regression(data, spec)
        b = sf.exact_regression(data, spec)
        assert a.objective == b.objective
        assert np.array_equal(a.model.w, b.model.w)
        assert np.array_equal(a.inliers, b.inliers)
        assert a.sign_completions == b.sign_completions

    def test_byte_sum_counts_match_count_nonzero_at_n300(self, monkeypatch):
        # More than 255 inliers: a uint8 accumulator of the block counts would wrap.
        data = random_regression_instance(6, n=300, d=1, r=0.1)
        spec = sf.LossSpec(2, 1.0)
        report = sf.exact_regression(data, spec)
        assert report.inliers.size > 255
        monkeypatch.setattr(exact, "_counts", lambda mask, axis: np.count_nonzero(mask, axis=axis))
        assert_same_report(report, sf.exact_regression(data, spec))

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

    def test_p0_model_is_no_worse_than_the_oracle_on_integer_data(self):
        # Integer data puts minimax errors at exactly eps; the oracle scores
        # every fit by its loss alone, so the two agree on each instance.
        for data, eps in integer_regression_instances():
            spec = sf.LossSpec(0, eps)
            model = sf.exact_regression(data, spec).model
            certified = sf.oracle_regression(data, spec)
            objective = sf.regression_objective(data, model, spec)
            assert objective == certified.objective
            assert_p0_counts_agree(data, spec, certified)

    def test_p0_reports_count_their_inliers_on_integer_data(self):
        # integer data puts errors at exactly epsilon, where the inlier list
        # and the p = 0 loss must take the same side
        for i, (data, eps) in enumerate(integer_regression_instances()):
            spec, cfg = sf.LossSpec(0, eps), sf.SamplingConfig(200, i)
            assert_p0_counts_agree(data, spec, sf.exact_regression(data, spec))
            assert_p0_counts_agree(data, spec, sf.sampled_regression(data, spec, cfg))
            assert_p0_counts_agree(data, spec, sf.ransac_regression(data, spec, cfg))

    def test_p0_objective_is_at_least_the_closed_optimum(self):
        # no model has more inliers than the exact vertex enumeration of
        # closed_count_reference finds, so a smaller objective means a
        # broken reference
        for data, eps in integer_regression_instances():
            report = sf.exact_regression(data, sf.LossSpec(0, eps))
            assert report.objective >= data.n - closed_count_reference(data.x, data.y, eps)

    @pytest.mark.xfail(
        raises=AssertionError,
        strict=True,
        reason="on 7 of the 300 instances the optimal inlier set has a minimax error of "
        "exactly epsilon, and the float minimax fit leaves a point an ulp or more outside it",
    )
    def test_p0_objective_is_the_closed_optimum(self):
        missed = [
            i
            for i, (data, eps) in enumerate(integer_regression_instances())
            if sf.exact_regression(data, sf.LossSpec(0, eps)).objective
            != data.n - closed_count_reference(data.x, data.y, eps)
        ]
        assert missed == []

    def test_branch_blocks_do_not_change_the_answer(self, monkeypatch):
        data = collinear_instance()  # seeds with 7 on-hyperplane points: 128 branches
        for p in (0, 1, 2):
            spec = sf.LossSpec(p, 0.8)
            whole = lifted_search(data, spec)
            # at most 3 rows of one word per _complete call and per run: runs
            # of 2 branches
            monkeypatch.setattr(exact, "_BRANCH_CELLS", 3 * 64)
            monkeypatch.setattr(exact, "_RUN_CELLS", 3 * 64)
            blocked = lifted_search(data, spec)
            monkeypatch.undo()
            assert blocked.objective == whole.objective
            assert np.array_equal(blocked.model.w, whole.model.w)
            assert np.array_equal(blocked.inliers, whole.inliers)
            for counter in COUNTERS:
                assert getattr(blocked, counter) == getattr(whole, counter), (p, counter)

    @pytest.mark.parametrize("p", [0, 2])
    def test_too_many_points_on_a_hyperplane_raise(self, monkeypatch, p):
        # 22 points on one line put 22 lifted points on the hyperplane of a
        # seed of two of them, beyond _MAX_ONSET = 20.  With calls large
        # enough for all 2**22 rows of such a seed, none may be built before
        # the refusal.
        branch_words = exact._branch_words

        def guarded(base, flips, op):
            assert flips.shape[0] <= exact._MAX_ONSET, "branch rows built past the limit"
            return branch_words(base, flips, op)

        monkeypatch.setattr(exact, "_branch_words", guarded)
        monkeypatch.setattr(exact, "_BRANCH_CELLS", 64 << 24)
        with pytest.raises(sf.NoHyperplaneError, match="22 points lie on one candidate hyperplane"):
            sf.exact_regression(line_dataset(22), sf.LossSpec(p, 0.5))

    @pytest.mark.parametrize("n", [22, 40])
    def test_p1_solves_points_on_one_line(self, n):
        # The vertex scan builds no branches, so the points on one line that
        # the lifted search refuses at p = 0 and 2 are an answer at p = 1.
        data = line_dataset(n)
        report = sf.exact_regression(data, sf.LossSpec(1, 0.5))
        assert report.objective == 0.0
        assert report.inliers.tolist() == list(range(n))
        assert report.max_onset_size == 0

    def test_too_many_points_on_a_hyperplane_raise_in_small_memory(self):
        # At n = 3000 about half of 64 draws put nearly 3000 lifted points on
        # their hyperplane.  The refused seeds must cost no branch words: the
        # on-point bits of a block's 32 such seeds would take about 70 MB.
        data, cfg = line_dataset(3000), sf.SamplingConfig(n_iters=64, rng_seed=0)
        tracemalloc.start()
        try:
            with pytest.raises(sf.NoHyperplaneError, match="points lie on one candidate"):
                sf.sampled_regression(data, sf.LossSpec(2, 0.5), cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 20 * 2**20

    def test_threads_match_sequential(self, monkeypatch):
        # 276 lifted seeds fork with blocks of 32; the 66 seeds of the p = 1
        # vertex scan with blocks of 16
        data = random_regression_instance(5, n=12)
        monkeypatch.setattr(exact._RegressionSearch, "seed_block", 32)
        monkeypatch.setattr(exact._VertexSearch, "seed_block", 16)
        for p in (1, 2):
            spec = sf.LossSpec(p, 0.6)
            seq = sf.exact_regression(data, spec)
            par = sf.exact_regression(data, spec, threads=2)
            assert par.objective == seq.objective
            assert np.array_equal(par.model.w, seq.model.w)
            assert np.array_equal(par.inliers, seq.inliers)
            assert par.seeds_enumerated == seq.seeds_enumerated
            if p == 1:  # no counter of the scan depends on the schedule
                assert_same_report(par, seq)

    @staticmethod
    def d3_forked_instance():
        # the data of `satfit gen --n 30 --d 3 --r 0.3 --rng-seed 2`: 34,220
        # seeds of three lifted rows, forked into two ranges
        return generate_regression(GeneratorConfig(n=30, d=3, outlier_fraction=0.3, rng_seed=2))[0]

    def test_threads_match_sequential_at_d3(self, pool_sizes):
        data = self.d3_forked_instance()
        for p in (0, 2):
            spec = sf.LossSpec(p, 1.0)
            seq = sf.exact_regression(data, spec)
            par = sf.exact_regression(data, spec, threads=2)
            assert par.objective == seq.objective
            assert np.array_equal(par.inliers, seq.inliers)
            if p == 2:
                assert np.array_equal(par.model.w, seq.model.w)
        assert pool_sizes == [2, 2]

    @pytest.mark.xfail(strict=True, reason="a forked p = 0 run can return another optimal model")
    def test_p0_forked_model_matches_sequential_at_d3(self, pool_sizes):
        # Known defect: the first range ends with an incumbent of 10 outliers.
        # The sequential scan carries it into the second range, where the
        # count bound prunes a set whose minimax fit has 9 outliers; the
        # second worker, starting from the trivial incumbent, fits that set
        # first.  Both answers have 9 outliers and the same inliers, but
        # different models.
        data = self.d3_forked_instance()
        spec = sf.LossSpec(0, 1.0)
        seq = sf.exact_regression(data, spec)
        par = sf.exact_regression(data, spec, threads=2)
        assert pool_sizes == [2]
        assert np.array_equal(par.model.w, seq.model.w)

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
                expected = min(expected, n - np.count_nonzero(np.abs(data.y - data.x @ w) <= eps))
            _, j0 = sf.approx_regression_p0(data, sf.LossSpec(0, eps))
            assert j0 == expected, seed

    def test_interpolations_count_points_at_epsilon(self):
        # w = 0 through the two points at y = 0 leaves the other three at
        # |e| = eps exactly: every point is an inlier; no lifted hyperplane,
        # whose seed point counts as an outlier, does as well
        data = sf.RegressionDataset(np.ones((5, 1)), np.array([0.0, 0.0, 1.0, 1.0, -1.0]))
        model, j = sf.approx_regression_p0(data, sf.LossSpec(0, 1.0))
        assert (model.w.tolist(), j) == ([0.0], 0.0)

    def test_rejects_other_losses(self):
        with pytest.raises(ValueError):
            sf.approx_regression_p0(exact_fit_dataset(), sf.LossSpec(2, 0.1))


class TestVertexSearch:
    """Exact p = 1 regression scans the C(n, d) fits through d data points."""

    def test_matches_the_vertex_oracle(self):
        # The oracle solves every d x d system of the 3^d offset arrangement
        # with np.linalg.solve; the scan's offset-0 vertices are a subset.
        for d, n in ((1, 25), (2, 20), (3, 15)):
            for seed in range(4):
                data = random_regression_instance(seed, n=n, d=d, r=0.4)
                spec = sf.LossSpec(1, 0.5 if seed % 2 else 1.0)
                report = sf.exact_regression(data, spec)
                reference = oracle._oracle_regression_p1(data, spec)
                assert report.objective == pytest.approx(reference.objective, rel=1e-9, abs=1e-12)

    def test_matches_the_vertex_oracle_on_integer_data(self):
        for data, eps in integer_regression_instances():
            spec = sf.LossSpec(1, eps)
            report = sf.exact_regression(data, spec)
            reference = oracle._oracle_regression_p1(data, spec)
            assert report.objective == pytest.approx(reference.objective, rel=1e-9, abs=1e-12)

    def test_counters(self):
        # A repeated point makes a degenerate seed, and a point with the x of
        # another but a different y a seed of dependent x rows, h[0] = 0.
        base = random_regression_instance(3, n=10, d=2)
        x = np.vstack([base.x, base.x[[0, 1]]])
        y = np.concatenate([base.y, [base.y[0], base.y[1] + 1.0]])
        report = sf.exact_regression(sf.RegressionDataset(x, y), sf.LossSpec(1, 0.5))
        assert report.seeds_enumerated == math.comb(12, 2)
        assert (report.seeds_degenerate, report.seeds_skipped) == (1, 1)
        scored = math.comb(12, 2) - 2
        assert report.sign_completions == report.subproblems_solved == scored
        assert report.subproblems_pruned == report.subproblems_reused == 0
        assert report.inner_loops_skipped == report.max_onset_size == report.onset_outside_seed == 0

    def test_seed_blocks_do_not_change_the_report(self, monkeypatch):
        # A fit scores the same bits in a block of any size, one seed included.
        for d, n in ((2, 12), (3, 10)):
            data = random_regression_instance(8, n=n, d=d)
            spec = sf.LossSpec(1, 0.7)
            whole = sf.exact_regression(data, spec)
            for size in (1, 7):
                monkeypatch.setattr(exact._VertexSearch, "seed_block", size)
                assert_same_report(sf.exact_regression(data, spec), whole)
                monkeypatch.undo()

    @pytest.mark.parametrize("p", [0, 1, 2])
    def test_a_fit_scores_the_same_bits_in_any_block(self, p):
        # The score of a model does not depend on the block around it, one
        # column included, and is its loss up to round-off.
        rng = np.random.default_rng(9)
        for d, n in ((1, 30), (2, 45), (3, 60)):
            data = sf.RegressionDataset(rng.normal(size=(n, d)), rng.normal(size=n))
            spec = sf.LossSpec(p, 0.7)
            search = exact._VertexSearch(data, spec)
            w = rng.normal(size=(d, 300))
            whole = search._scores(w)
            assert np.array_equal(search._scores(w[:, 5:200]), whole[5:200])
            for i in range(0, 300, 37):
                assert search._scores(w[:, i : i + 1])[0] == whole[i]
                model = sf.RegressionModel(w[:, i])
                assert whole[i] == pytest.approx(sf.regression_objective(data, model, spec), rel=1e-12)

    @pytest.mark.parametrize("n, d", [(130, 2), (40, 3)])
    def test_threads_match_sequential_from_the_fork_threshold(self, pool_sizes, n, d):
        # C(130, 2) = 8,385 and C(40, 3) = 9,880 seeds, from 8,192 on a run forks
        data = random_regression_instance(n, n=n, d=d)
        spec = sf.LossSpec(1, 1.0)
        seq = sf.exact_regression(data, spec)
        assert pool_sizes == []
        par = sf.exact_regression(data, spec, threads=2)
        assert pool_sizes == [2]
        assert seq.seeds_enumerated == math.comb(n, d) >= 4 * exact._VertexSearch.seed_block
        assert_same_report(par, seq)

    def test_cancellation_and_progress(self, monkeypatch):
        data = random_regression_instance(6, n=12)  # 66 seeds, blocks of 16
        spec = sf.LossSpec(1, 0.5)
        monkeypatch.setattr(exact._VertexSearch, "seed_block", 16)
        seen = []
        report = sf.exact_regression(data, spec, progress=lambda done, j: seen.append((done, j)))
        assert [done for done, _ in seen] == [16, 32, 48, 64, 66]
        assert all(a >= b for (_, a), (_, b) in zip(seen, seen[1:]))
        assert not report.cancelled
        polls = []

        def stop():
            polls.append(1)
            return len(polls) > 1

        cancelled = sf.exact_regression(data, spec, threads=2, should_stop=stop)
        assert cancelled.cancelled
        assert cancelled.seeds_enumerated == 32
        assert cancelled.objective >= report.objective

    @pytest.mark.parametrize("columns", ["zero", "multiple", "sum"])
    def test_rank_deficient_x_raises(self, columns):
        rng = np.random.default_rng(4)
        t, u = rng.normal(size=(2, 12))
        x = {
            "zero": np.column_stack([t, np.zeros(12)]),
            "multiple": np.column_stack([t, 3.0 * t]),
            "sum": np.column_stack([t, u, t + u]),
        }[columns]
        data = sf.RegressionDataset(x, rng.normal(size=12))
        with pytest.raises(sf.NoHyperplaneError):
            sf.exact_regression(data, sf.LossSpec(1, 0.5))


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

    def test_p0_reports_count_their_inliers_on_integer_data(self):
        for i, (data, eps) in enumerate(integer_point_sets()):
            spec = sf.LossSpec(0, eps)
            assert_p0_counts_agree(data, spec, sf.exact_subspace(data, spec))
            assert_p0_counts_agree(data, spec, sf.sampled_subspace(data, spec, sf.SamplingConfig(100, i)))

    def test_p0_matches_the_oracle_on_integer_data(self):
        # Integer points sit at distance exactly eps from candidate lines;
        # the search and the oracle score each L2 fit by the same closed rule.
        for data, eps in integer_point_sets():
            spec = sf.LossSpec(0, eps)
            certified = sf.oracle_subspace(data, spec)
            assert sf.exact_subspace(data, spec).objective == certified.objective
            assert_p0_counts_agree(data, spec, certified)

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

    @pytest.mark.parametrize("size", [1, 7, 256])
    @pytest.mark.parametrize("p", [0, 2])
    def test_seed_blocks_do_not_change_the_report(self, p, size):
        # A block's branches are completed together, and forked workers cut
        # blocks at arbitrary ranks; the report must not depend on the cuts.
        # n = 10, d = 2: 120 seeds; n = 9, d = 3: 84 seeds.
        for d, ds, n in ((2, 1, 10), (3, 2, 9)):
            cfg = SubspaceGeneratorConfig(
                n=n, d=d, subspace_dim=ds, outlier_fraction=0.3, rng_seed=4
            )
            data, _ = generate_subspace(cfg)
            spec = sf.LossSpec(p, 0.6)
            whole = sf.exact_subspace(data, spec)
            search = _SubspaceSearch(data, spec)
            total = math.comb(n, data.lifted_dim)
            for block in exact._lex_blocks(n, data.lifted_dim, 0, total, size):
                search.process_chunk(block)
            report = search.build_report(whole.wall_time_seconds, approximate=p == 0)
            assert_same_report(report, whole)
            assert all(type(getattr(report, counter)) is int for counter in COUNTERS)

    def test_branch_rows_do_not_change_the_report(self, monkeypatch):
        # Calls of the branches of max(1, _BRANCH_CELLS // (64 W b)) seeds of
        # b branches and stacks of at most _STACK_CELLS // n new sets, at
        # least one of each: 1, 3 and 100 seeds per call (W = 1 here).
        instances = [
            SubspaceGeneratorConfig(n=9, d=2, subspace_dim=1, outlier_fraction=0.3, rng_seed=6),
            SubspaceGeneratorConfig(n=11, d=4, subspace_dim=2, outlier_fraction=0.3, rng_seed=6),
        ]
        for cfg in instances:
            data, _ = generate_subspace(cfg)
            for p in (0, 2):
                spec = sf.LossSpec(p, 0.6)
                whole = sf.exact_subspace(data, spec)
                for seeds, stack in ((1, 1), (3, 2), (100, 7), (100, 100)):
                    monkeypatch.setattr(exact, "_BRANCH_CELLS", seeds * 64 << (data.lifted_dim + 1))
                    monkeypatch.setattr(exact, "_STACK_CELLS", stack * data.n)
                    assert_same_report(sf.exact_subspace(data, spec), whole)
                    monkeypatch.undo()

    @pytest.mark.parametrize("n, ds", [(11, 1), (11, 3), (12, 1), (12, 3)])
    def test_d4_matches_oracle(self, n, ds):
        # 2,048 branches per seed, the most of any subspace search here.
        cfg = SubspaceGeneratorConfig(
            n=n, d=4, subspace_dim=ds, outlier_fraction=0.3, rng_seed=n + ds
        )
        data, _ = generate_subspace(cfg)
        spec = sf.LossSpec(2, 0.5)
        report = sf.exact_subspace(data, spec)
        usable = report.seeds_enumerated - report.seeds_degenerate
        assert report.sign_completions == usable * 2048
        reference = sf.oracle_subspace(data, spec)
        assert report.objective == pytest.approx(reference.objective, rel=1e-9, abs=1e-12)

    @pytest.mark.parametrize("p", [0, 2])
    def test_objective_is_the_loss_of_the_model(self, p):
        # The stacked scoring must report what the returned model scores.
        for d, ds, n in ((2, 1, 9), (3, 1, 9), (3, 2, 9), (4, 2, 11)):
            for seed in range(4):
                cfg = SubspaceGeneratorConfig(
                    n=n, d=d, subspace_dim=ds, outlier_fraction=0.3, rng_seed=seed
                )
                data, _ = generate_subspace(cfg)
                for eps in (0.5, 2.0):
                    spec = sf.LossSpec(p, eps)
                    report = sf.exact_subspace(data, spec)
                    assert report.objective == sf.subspace_objective(data, report.model, spec)

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
            # workers moves one branch from reused to solved (at p = 0,
            # 4,058 sets are fitted with 2 threads against 2,319 with 1); at
            # p = 2 each worker also bounds with its own incumbent, so the
            # pruned count moves too (1,878 fitted against 1,070)
            memo = ("subproblems_solved", "subproblems_reused")
            if p == 2:
                memo += ("subproblems_pruned",)
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



def reference_branch_masks(below, on, seeds):
    """The (rows, n) inlier masks of every branch, built one boolean cell per point."""
    g, k = seeds.shape
    bits = np.arange(2**k) >> np.arange(k)[:, None]
    sel = np.repeat((bits & 1).astype(bool), 2, axis=1)
    masks = np.empty((g, 2 << k, below.shape[1]), dtype=bool)
    masks[:, 0::2] = below[:, None]
    masks[:, 1::2] = ~(below | on)[:, None]
    masks[np.arange(g)[:, None], :, seeds] |= sel
    return masks.reshape(-1, below.shape[1])


def reference_regression_masks(below, on):
    """The (2**n0, n) inlier masks of one regression seed, one boolean cell per lifted point.

    ``below`` and ``on`` are the seed's lifted masks (length 2n).  Branch b
    puts the t-th on-hyperplane point (in lifted order) below when bit
    n0 - 1 - t of b is 0; a point is an inlier when both copies are below.
    """
    n = below.size // 2
    pos = np.flatnonzero(on)
    branches = np.arange(1 << pos.size)
    lifted = np.empty((branches.size, 2 * n), dtype=bool)
    lifted[:] = below
    lifted[:, pos] = ((branches[:, None] >> np.arange(pos.size - 1, -1, -1)) & 1) == 0
    return lifted[:, :n] & lifted[:, n:]


def padded_packbits(masks):
    """``np.packbits`` of the mask rows, zero-padded to whole 64-bit words."""
    packed = np.packbits(masks, axis=1, bitorder="little")
    pad = -packed.shape[1] % 8
    return np.pad(packed, ((0, 0), (0, pad)))


def branch_rows(search, subsets, below, on, cells):
    """The branch rows a search hands to ``_complete``, call by call, for the given masks.

    Every seed (column) of ``subsets`` is a usable seed (first normal
    coordinate 1) whose lifted points are classified by the rows of
    ``below`` and ``on``; each call holds at most ``cells`` bits of words.
    """
    calls = []
    search._complete = lambda words, seeds=None: calls.append(words)

    def normals(z, norms, ws=None):
        h = np.zeros((z.shape[0], z.shape[2]))
        h[0] = 1.0
        return h, np.zeros(z.shape[2], dtype=bool)

    masks = (below.T, (below | on).T)  # point-major (size, B): below, closed
    with (
        mock.patch.object(exact, "_batched_normals", normals),
        mock.patch.object(exact, "_classify", lambda zset, h, ws=None: masks),
        mock.patch.object(exact, "_BRANCH_CELLS", cells),
        mock.patch.object(exact, "_RUN_CELLS", cells),
    ):
        search.process_chunk(subsets)
    return calls


class TestBranchLoop:
    """Branch rows are packed words; ``_complete`` scans them as a row-by-row loop would."""

    @given(
        n=st.sampled_from([1, 63, 64, 65, 129]),
        seeds=st.integers(1, 4),
        rows=st.sampled_from([1, 2, 3, 1024]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_regression_rows_are_the_packed_masks(self, n, seeds, rows, seed):
        # Up to 7 on-hyperplane points per seed, in either half; the first
        # seed holds both copies of one point.
        rng = np.random.default_rng(seed)
        on = np.zeros((seeds, 2 * n), dtype=bool)
        for lifted in on:
            lifted[rng.choice(2 * n, size=rng.integers(min(5, 2 * n) + 1), replace=False)] = True
        point = rng.integers(n)
        on[0, [point, n + point]] = True
        below = ~on & (rng.random((seeds, 2 * n)) < 0.8)
        data = sf.RegressionDataset(rng.normal(size=(n, 1)), rng.normal(size=n))
        search = exact._RegressionSearch(data, sf.LossSpec(1, 0.5))
        search.j = np.inf  # no seed skipped, not even one whose only set is empty
        subsets = np.zeros((1, seeds), dtype=np.intp)
        calls = branch_rows(search, subsets, below, on, rows * 64 * -(-n // 64))
        masks = np.concatenate([reference_regression_masks(b, o) for b, o in zip(below, on)])
        assert max(call.shape[0] for call in calls) <= rows
        assert np.array_equal(np.concatenate(calls).view(np.uint8), padded_packbits(masks))

    @pytest.mark.parametrize("n", [5, 70])
    @pytest.mark.parametrize("rows", [32, 4])
    def test_regression_rows_label_each_point_by_its_two_copies(self, n, rows):
        # Two seeds of four on-copies each.  Seed 0: point a has both copies
        # on, the twin of on-copy b lies strictly above, c is on in its
        # second copy only.  Seed 1: b has both copies on, and c and a are
        # each on in one copy and below in the other.  Point e lies below
        # in both copies, f below in its first copy only.  At 32 rows per
        # call both seeds come in one run; at 4 each seed's 16 branches
        # pass the call cap and are split into calls of 4.
        a, b, c, e, f = 0, n - 1, n // 2, 1, n // 2 + 1
        below = np.zeros((2, 2 * n), dtype=bool)
        on = np.zeros((2, 2 * n), dtype=bool)
        below[:, [e, n + e, f]] = True
        on[0, [a, n + a, b, n + c]] = True
        below[0, c] = True
        on[1, [b, n + b, c, n + a]] = True
        below[1, [a, n + c]] = True
        search = exact._RegressionSearch(sf.RegressionDataset(np.ones((n, 1)), np.zeros(n)), sf.LossSpec(2, 0.5))
        search.j = np.inf
        calls = branch_rows(search, np.zeros((1, 2), dtype=np.intp), below, on, rows * 64 * -(-n // 64))
        assert [call.shape[0] for call in calls] == ([32] if rows == 32 else [4] * 8)
        expected = []
        for seed in range(2):
            copies = np.flatnonzero(on[seed])  # in lifted order
            for branch in range(1 << copies.size):
                above = {int(q) for t, q in enumerate(copies) if branch >> (copies.size - 1 - t) & 1}
                side = [(below[seed, q] or on[seed, q]) and q not in above for q in range(2 * n)]
                expected.append([side[i] and side[n + i] for i in range(n)])
        assert np.array_equal(exact._unpack(np.concatenate(calls), n), np.array(expected))

    @given(
        n=st.sampled_from([3, 63, 64, 65, 129]),
        k=st.integers(1, 6),
        groups=st.integers(1, 4),
        per_call=st.sampled_from([1, 3, 100]),
        seed=st.integers(0, 2**32 - 1),
        on_rate=st.sampled_from([0.0, 0.1, 0.5]),
    )
    def test_subspace_rows_are_the_packed_masks(self, n, k, groups, per_call, seed, on_rate):
        # Seed points may lie below, on or above the hyperplane here.
        rng = np.random.default_rng(seed)
        k = min(k, n)
        below = rng.random((groups, n)) < 0.5
        on = ~below & (rng.random((groups, n)) < on_rate)
        seeds = np.array([np.sort(rng.choice(n, size=k, replace=False)) for _ in range(groups)])
        search = _SubspaceSearch(sf.PointDataset(rng.normal(size=(n, 2)), 1), sf.LossSpec(2, 0.5))
        width = -(-n // 64)
        calls = branch_rows(search, seeds.T, below, on, per_call * 64 * width << (k + 1))
        masks = reference_branch_masks(below, on, seeds)
        assert [call.shape for call in calls] == [
            (min(per_call, groups - first) << (k + 1), width) for first in range(0, groups, per_call)
        ]
        words = np.concatenate(calls)
        assert np.array_equal(words.view(np.uint8), padded_packbits(masks))
        assert np.array_equal(exact._unpack(words, n), masks)

    @pytest.mark.parametrize("op", [np.bitwise_xor, np.bitwise_and], ids=["xor", "and"])
    def test_branch_words_apply_the_flips_of_the_set_bits(self, op):
        rng = np.random.default_rng(0)
        base = rng.integers(2**64, size=(2, 3), dtype=np.uint64)
        flips = rng.integers(2**64, size=(4, 2, 3), dtype=np.uint64)
        words = exact._branch_words(base, flips, op)
        assert words.shape == (16, 2, 3)
        for b in range(16):
            expected = base.copy()
            for j in range(4):
                if b >> j & 1:
                    expected = op(expected, flips[j])
            assert np.array_equal(words[b], expected)

    @given(
        width=st.sampled_from([1, 2, 4]),
        rows=st.integers(1, 80),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_first_rows_are_the_first_index_of_each_distinct_row(self, width, rows, seed):
        # Words from an alphabet of three, so that rows often share their
        # leading words and differ only in a later one.
        rng = np.random.default_rng(seed)
        alphabet = np.array([0, 1, 2**64 - 1], dtype=np.uint64)
        words = alphabet[rng.integers(alphabet.size, size=(rows, width))]
        first = {}
        for i, row in enumerate(words.tolist()):
            first.setdefault(tuple(row), i)
        assert exact._first_rows(words).tolist() == sorted(first.values())

    @pytest.mark.parametrize("p", [0, 1, 2])
    def test_branch_sets_hold_at_most_base_plus_n0_points(self, p):
        # Why a seed only settles the counters of _complete: a point of a
        # branch set S has both lifted copies strictly below, or one of them
        # on the hyperplane, so |S| <= base + n0 for every set of the seed,
        # and its count bound eps^p (n - |S|) is at least the seed's reach
        # eps^p (n - base - n0), in floats too.  A seed's rows number 2**n0.
        # Integer data puts more points than the seed's own d on many
        # hyperplanes, and some sets reach the bound.
        instances = [(random_regression_instance(d - 1, n=10, d=d), 0.7) for d in (1, 2, 3)]
        instances += list(integer_regression_instances(count=40))
        crowded = full = 0
        for data, eps in instances:
            search = exact._RegressionSearch(data, sf.LossSpec(p, eps))
            complete = search._complete

            def check(words, seeds=None):
                nonlocal crowded, full
                assert seeds is not None
                ends, reach = seeds
                rows = np.diff(ends, prepend=0)  # rows per seed
                reach = np.repeat(reach, rows)
                bound = search.eps_p * (search.n - np.bitwise_count(words).sum(axis=1))
                assert (bound >= reach).all()
                crowded += int(np.count_nonzero(np.repeat(rows > 1 << search.k, rows)))
                full += int(np.count_nonzero(bound == reach))
                complete(words, seeds)

            search._complete = check
            search.run_range(0, exact._rank_tables(search.zset.size, search.k)[0])
        assert crowded > 0 and full > 0

    @staticmethod
    def fake_objective(packed, n):
        """n - |S| + 1/2 less 0, 1/2 or 1 by the first byte of the set's packed bytes.

        A fit moves the incumbent, so the count bound prunes later rows, and
        an objective can fall below the set's own bound n - |S| (eps^p = 1).
        """
        return n - int(np.bitwise_count(packed).sum()) + 0.5 - 0.5 * int(packed[0] % 3)

    @classmethod
    def reference_scan(cls, search, rows, counts, seeds=None):
        """(fitted rows, pruned, reused, skipped, incumbent) of a one-row-at-a-time scan of a Python set.

        The rows it reaches, those of the seeds it does not skip, are
        ``len(fitted) + pruned + reused``.

        ``seeds`` (ends, reach), as regression passes it, skips seed s
        whole, rows and all, when reach[s] >= J at its first row.
        """
        fitted, pruned, reused, skipped = [], 0, 0, 0
        seen, j, best = set(search.fitted), search.j, search.best
        ends, reach = seeds if seeds is not None else ([len(rows)], [-np.inf])
        start = 0
        for end, threshold in zip(ends, reach):
            if threshold >= j:
                skipped += 1
                start = end
                continue
            for row, cnt in zip(rows[start:end], counts[start:end]):
                if cnt < search.min_size or search.count_bound and search.eps_p * (search.n - cnt) >= j:
                    pruned += 1
                elif row.tobytes() in seen:
                    reused += 1
                else:
                    seen.add(row.tobytes())
                    fitted.append(row.tobytes())
                    if (objective := cls.fake_objective(row.view(np.uint8), search.n)) < j:
                        j, best = objective, row.tobytes()
            start = end
        return fitted, pruned, reused, skipped, (j, best)

    @staticmethod
    def fake_search(n, count_bound, min_size):
        """A search whose fits score :meth:`fake_objective`, recording the sets it fits."""
        search = exact._Search(None, 1, n, 1.0)
        search.count_bound, search.min_size = count_bound, min_size
        fits = []

        def solve_many(masks):
            packed = padded_packbits(masks)
            fits.extend(row.tobytes() for row in packed)
            objectives = [TestBranchLoop.fake_objective(row, n) for row in packed]
            return np.array(objectives), [row.tobytes() for row in packed]

        search._solve_many = solve_many
        return search, fits

    def assert_matches_the_scan(self, search, fits, rows, seeds=None):
        counts = np.count_nonzero(exact._unpack(rows, search.n), axis=1)
        expected, pruned, reused, skipped, incumbent = self.reference_scan(search, rows, counts, seeds)
        before, memo = dataclasses.replace(search.stats), set(search.fitted)
        fits.clear()
        search._complete(rows, seeds)
        # sets are fitted in row order, each once, some ahead of a move of
        # J that prunes them at their own row; only the scan's fits count
        assert len(set(fits)) == len(fits) and set(expected) <= set(fits)
        assert [row for row in fits if row in expected] == expected
        if not search.count_bound:
            assert fits == expected
        assert search.fitted - memo == set(expected)
        assert (search.j, search.best) == incumbent
        stats = search.stats
        assert stats.subproblems_solved - before.subproblems_solved == len(expected)
        assert stats.subproblems_pruned - before.subproblems_pruned == pruned
        assert stats.subproblems_reused - before.subproblems_reused == reused
        assert stats.inner_loops_skipped - before.inner_loops_skipped == skipped
        assert stats.sign_completions - before.sign_completions == pruned + reused + len(expected)
        if seeds is None:
            assert pruned + reused + len(expected) == rows.shape[0]

    @pytest.mark.parametrize("n", [64, 128, 150])
    @pytest.mark.parametrize(
        "count_bound, min_size", [(True, 0), (False, 1), (True, 1)], ids=["bound", "floor", "both"]
    )
    @pytest.mark.parametrize("seed", range(4))
    def test_complete_matches_a_row_by_row_scan(self, n, count_bound, min_size, seed):
        # Each search's rule: the count bound alone (regression); the size
        # floor alone (subspace at p = 0 and sampled); both (exact subspace
        # at p = 2).  Chunks of at most 3 sets, and a floor of n // 3.
        rng = np.random.default_rng(seed)
        search, fits = self.fake_search(n, count_bound, min_size * (n // 3))
        search.stack = 3
        pool = exact._pack(rng.random((40, n)) < rng.uniform(0.3, 0.7, size=(40, 1)))
        pair = pool[:0]
        if n > 64:
            # two rows equal in word 0 that differ in a later word
            a = exact._pack(np.ones((1, n), dtype=bool))[0]
            b = a.copy()
            b[-1] ^= np.uint64(1)  # without point 64 (W - 1)
            pair = np.stack([a, b])
        for _ in range(2):  # the second call meets sets the first one fitted
            rows = np.concatenate([pool[rng.integers(pool.shape[0], size=300)], pair])
            counts = np.count_nonzero(exact._unpack(rows, n), axis=1)
            assert counts[300:].min(initial=n) >= n // 3  # the pair reaches the sort
            self.assert_matches_the_scan(search, fits, rows)

    @pytest.mark.parametrize("n", [64, 150])
    @pytest.mark.parametrize("seed", range(6))
    def test_regression_seeds_match_a_row_by_row_scan(self, n, seed):
        # Regression hands over the rows of a run of seeds; a seed whose
        # best set fails the bound at its first row is skipped whole.  Seeds
        # of 1 to 8 rows; base + n0 bounds every set of a seed, so many are
        # skipped once J has fallen.
        rng = np.random.default_rng(seed)
        search, fits = self.fake_search(n, True, 0)
        search.stack = int(rng.integers(1, 6))
        search.settled = int(rng.integers(0, 4))
        pool = exact._pack(rng.random((60, n)) < rng.uniform(0.3, 0.9, size=(60, 1)))
        for _ in range(2):
            sizes = rng.integers(0, 4, size=40)
            ends = np.cumsum(1 << sizes)
            rows = pool[rng.integers(pool.shape[0], size=int(ends[-1]))]
            counts = np.count_nonzero(exact._unpack(rows, n), axis=1)
            largest = np.maximum.reduceat(counts, np.concatenate(([0], ends[:-1])))
            n0 = sizes + rng.integers(0, 2, size=40)  # n0 may exceed what the rows show
            base = largest - n0 + rng.integers(0, 3, size=40)
            reach = search.eps_p * (n - base - n0)
            self.assert_matches_the_scan(search, fits, rows, (ends, reach))

    def test_a_seed_skipped_at_its_first_row_counts_no_row(self):
        # The first set lowers J to 1/2; the second seed's best set has
        # n - base - n0 = 1 point outside, 1 >= J: skipped, its rows
        # uncounted, though they passed the bound at the call's start.
        n = 10
        search, fits = self.fake_search(n, True, 0)
        search.settled = 8  # one chunk holds every set
        masks = np.zeros((3, n), dtype=bool)
        masks[0, :9] = True
        masks[1, :8], masks[2, :7] = True, True
        search._solve_many = lambda sets: (np.array([0.5, 0.2, 0.1])[: len(sets)], ["a", "b", "c"])
        search._complete(exact._pack(masks), (np.array([1, 3]), np.array([1.0, 1.0])))
        assert (search.j, search.best) == (0.5, "a")
        assert search.stats == SearchStats(
            inner_loops_skipped=1, sign_completions=1, subproblems_solved=1
        )

    @pytest.mark.parametrize("score", [1.5, 9.0])
    def test_a_refused_seed_raises_only_where_a_scan_reaches_it_unskipped(self, score):
        # Seed 1 has 21 on-hyperplane points, past _MAX_ONSET, and 7 of 30
        # points strictly below both copies: at p = 0 the bound skips it
        # once 30 - 7 - 21 >= J, i.e. J <= 2.  From J = 2.5, seed 0's set of
        # 28 points passes the bound 2 < J; if it scores 1.5 the scan skips
        # seed 1, and if it scores 9, J stays and the scan raises there.
        n = 30
        search = exact._RegressionSearch(random_regression_instance(1, n=n), sf.LossSpec(0, 0.5))
        search.j = 2.5
        below = np.zeros((2, 2 * n), dtype=bool)
        on = np.zeros((2, 2 * n), dtype=bool)
        below[0, :28], below[0, n : n + 28] = True, True
        below[1, :7], below[1, n : n + 7] = True, True
        on[1, 7:28] = True
        search._solve_many = lambda masks: (np.full(len(masks), score), [None] * len(masks))

        def normals(z, norms, ws=None):
            h = np.zeros((z.shape[0], z.shape[2]))
            h[0] = 1.0
            return h, np.zeros(z.shape[2], dtype=bool)

        masks = (below.T, (below | on).T)
        with (
            mock.patch.object(exact, "_batched_normals", normals),
            mock.patch.object(exact, "_classify", lambda zset, h, ws=None: masks),
        ):
            if score < 2:
                search.process_chunk(np.zeros((1, 2), dtype=np.intp))
                assert (search.j, search.stats.inner_loops_skipped) == (1.5, 1)
            else:
                with pytest.raises(sf.NoHyperplaneError, match="21 points lie on one candidate"):
                    search.process_chunk(np.zeros((1, 2), dtype=np.intp))
        assert search.stats.subproblems_solved == 1

    def test_the_skip_test_is_the_count_bound_of_base_plus_n0_points(self):
        # eps = 0.3, p = 1, n = 10: 3 points strictly below both copies, 6
        # with one copy on the hyperplane.  At J = 0.30000000000000004 the
        # set of all 9 passes the bound, fl(0.3 * 1) = 0.3 < J, so the seed
        # is completed; the two-term test fl(0.3 * 7) > fl(J + fl(0.3 * 6))
        # would have skipped it.  Its other 63 sets are pruned.
        n, j = 10, 0.30000000000000004
        assert 0.3 * 7 > j + 0.3 * 6 and 0.3 * (n - 9) < j
        search = exact._RegressionSearch(random_regression_instance(1, n=n), sf.LossSpec(1, 0.3))
        search.j = j
        below = np.zeros((1, 2 * n), dtype=bool)
        on = np.zeros((1, 2 * n), dtype=bool)
        below[0, :3], below[0, n : n + 9] = True, True
        on[0, 3:9] = True
        fitted = []

        def solve_many(masks):
            fitted.extend(np.flatnonzero(mask).tolist() for mask in masks)
            return np.full(len(masks), 1.0), [None] * len(masks)

        search._solve_many = solve_many

        def normals(z, norms, ws=None):
            h = np.zeros((z.shape[0], z.shape[2]))
            h[0] = 1.0
            return h, np.zeros(z.shape[2], dtype=bool)

        masks = (below.T, (below | on).T)
        with (
            mock.patch.object(exact, "_batched_normals", normals),
            mock.patch.object(exact, "_classify", lambda zset, h, ws=None: masks),
        ):
            search.process_chunk(np.zeros((1, 1), dtype=np.intp))
        assert fitted == [list(range(9))]
        assert search.stats == SearchStats(
            seeds_enumerated=1,
            sign_completions=64,
            subproblems_solved=1,
            subproblems_pruned=63,
            max_onset_size=6,
        )

    @pytest.mark.parametrize("extra", [0, 1])
    @pytest.mark.parametrize("fit_first", [False, True])
    def test_count_bound_edge(self, extra, fit_first):
        # At p = 2 a set S with eps^2 (n - |S|) == J is pruned and S plus one
        # point is fitted, whether J is the incumbent at the call's start or
        # the objective of a larger set fitted in the chunk before it.
        cfg = SubspaceGeneratorConfig(n=10, d=2, subspace_dim=1, outlier_fraction=0.3, rng_seed=1)
        search = _SubspaceSearch(generate_subspace(cfg)[0], sf.LossSpec(2, 0.5))
        assert search.count_bound and search.eps_p == 0.25
        masks = np.zeros((2, 10), dtype=bool)
        masks[0, :8] = True
        masks[1, : 4 + extra] = True
        if not fit_first:
            search.j, masks = 0.25 * (10 - 4), masks[1:]
        search._solve_many = lambda sets: ([0.25 * (10 - 4)] * len(sets), [None] * len(sets))
        search._complete(exact._pack(masks))
        assert search.j == 0.25 * (10 - 4)
        assert search.fitted == {row.tobytes() for row in exact._pack(masks[: fit_first + extra])}
        assert search.stats == SearchStats(
            sign_completions=masks.shape[0],
            subproblems_solved=fit_first + extra,
            subproblems_pruned=1 - extra,
        )

    @pytest.mark.parametrize("settled", [0, 1])
    def test_the_count_bound_edge_at_a_chunk_boundary(self, settled):
        # The set of 8 points moves J to 0.25 (10 - 4) = 1.5; the set of 4
        # then sits on the bound and is pruned, fitted ahead in one chunk
        # with the first (J settled for 2 sets: a first chunk of 2) or not
        # fitted at all when the chunk ends with the first set (a chunk of 1).
        cfg = SubspaceGeneratorConfig(n=10, d=2, subspace_dim=1, outlier_fraction=0.3, rng_seed=1)
        search = _SubspaceSearch(generate_subspace(cfg)[0], sf.LossSpec(2, 0.5))
        search.settled = settled * 2
        masks = np.zeros((2, 10), dtype=bool)
        masks[0, :8], masks[1, :4] = True, True
        fits = []

        def solve_many(sets):
            fits.extend(np.count_nonzero(sets, axis=1).tolist())
            return [1.5] * len(sets), [None] * len(sets)

        search._solve_many = solve_many
        search._complete(exact._pack(masks))
        assert fits == ([8, 4] if settled else [8])
        assert search.j == 1.5 and search.settled == 0
        assert search.stats == SearchStats(sign_completions=2, subproblems_solved=1, subproblems_pruned=1)

    def test_a_set_fitted_ahead_and_pruned_at_its_row_changes_nothing(self):
        # Both sets are fitted in one chunk, as J has not moved for 2 sets.
        # The set of 8 points on row 0 lowers J to 1; the set of 5 on row 1
        # then fails eps^2 (n - 5) = 1.25 >= J, so its smaller objective 0.9
        # is dropped and it counts as pruned, not solved.
        cfg = SubspaceGeneratorConfig(n=10, d=2, subspace_dim=1, outlier_fraction=0.3, rng_seed=1)
        search = _SubspaceSearch(generate_subspace(cfg)[0], sf.LossSpec(2, 0.5))
        search.settled = 2
        masks = np.zeros((2, 10), dtype=bool)
        masks[0, :8] = masks[1, 5:] = True
        fits = []

        def solve_many(sets):
            fits.extend(np.count_nonzero(sets, axis=1).tolist())
            return [{8: 1.0, 5: 0.9}[size] for size in fits[-len(sets) :]], ["eight", "five"][: len(sets)]

        search._solve_many = solve_many
        search._complete(exact._pack(masks))
        assert fits == [8, 5]
        assert (search.j, search.best) == (1.0, "eight")
        assert search.fitted == {exact._pack(masks[:1])[0].tobytes()}
        assert search.stats == SearchStats(sign_completions=2, subproblems_solved=1, subproblems_pruned=1)

    @pytest.mark.parametrize("n", [9, 70])
    @pytest.mark.parametrize("p", [0, 1, 2])
    def test_count_bound_prunes_an_empty_branch(self, n, p):
        # Regression has no size floor: J <= eps^p n from the start, so the
        # count bound eps^p (n - 0) >= J prunes the empty set.
        search = exact._RegressionSearch(random_regression_instance(1, n=n), sf.LossSpec(p, 0.7))
        assert search.j == search.eps_p * n and search.best is None
        fits = []
        search._solve_many = fits.append
        search._complete(np.zeros((1, -(-n // 64)), dtype="<u8"))
        assert fits == []
        assert search.stats == SearchStats(sign_completions=1, subproblems_pruned=1)

    @pytest.mark.parametrize("n, d, draws",[(70, 2, 200), (70, 3, 40), (130, 2, 200), (130, 3, 40)])
    @pytest.mark.parametrize("p", [0, 2])
    def test_sampled_runs_with_several_words(self, n, d, draws, p):
        cfg = SubspaceGeneratorConfig(n=n, d=d, subspace_dim=1, outlier_fraction=0.3, rng_seed=n + d)
        data, _ = generate_subspace(cfg)
        spec = sf.LossSpec(p, 0.5)
        sampling = sf.SamplingConfig(draws, 5)
        report = sf.sampled_subspace(data, spec, sampling)
        assert report.subproblems_solved + report.subproblems_pruned + report.subproblems_reused == (
            report.sign_completions
        )
        # The distinct sets of size >= 1 over every branch of every drawn
        # seed, built from the public classification.
        zset = sf.lift_subspace(data, spec)
        sets, branches = set(), 0
        for seed in _draw_seeds(sampling.rng_seed, draws, data.n, data.lifted_dim):
            hp = sf.hyperplane_through(zset, seed)
            if hp is None:
                continue
            signs = sf.classify(zset, hp.normal)
            for size in range(len(seed) + 1):
                for chosen in combinations(seed, size):
                    for side in (-1, 1):
                        mask = signs == side
                        mask[list(chosen)] = True
                        branches += 1
                        if mask.any():
                            sets.add(mask.tobytes())
        assert report.sign_completions == branches
        assert report.subproblems_solved == len(sets)
        assert report.objective == sf.subspace_objective(data, report.model, spec)


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


class TestWorkspace:
    """A search classifies every block into its one workspace, invisibly."""

    @pytest.mark.parametrize("kind", ["regression", "subspace"])
    def test_reuse_matches_a_fresh_workspace(self, monkeypatch, kind):
        # A full block, a shorter last block, a larger block that grows the
        # workspace, then draws in blocks of _BLOCK: each block's normals,
        # degeneracy mask and masks equal those of a workspace-free call.
        if kind == "regression":
            data = random_regression_instance(7, n=20, d=3)  # 9,880 seeds of 3 lifted points
            search = exact._RegressionSearch(data, sf.LossSpec(2, 0.6))
        else:
            cfg = SubspaceGeneratorConfig(n=12, d=3, subspace_dim=1, outlier_fraction=0.3, rng_seed=7)
            data = generate_subspace(cfg)[0]  # 924 seeds of 6 lifted points
            search = _SubspaceSearch(data, sf.LossSpec(2, 0.6))
        m, k, full = search.zset.size, search.k, search.seed_block
        total = math.comb(m, k)
        blocks = [(0, full), (total - full // 2, total), (full, total - full // 2)]
        draws = _draw_seeds(3, 2 * exact._BLOCK + 17, m, k)
        normals, classify = exact._batched_normals, exact._classify
        sizes = []

        def checked_normals(a, norms, ws=None):
            assert ws is search.workspace
            fresh_h, fresh_degen = normals(a.copy(), norms.copy())
            h, degen = normals(a, norms, ws)
            assert np.array_equal(h, fresh_h) and np.array_equal(degen, fresh_degen)
            return h, degen

        def checked_classify(zset, h, ws=None):
            assert ws is search.workspace
            fresh_below, fresh_closed = classify(zset, h.copy())
            below, closed = classify(zset, h, ws)
            assert np.array_equal(below, fresh_below) and np.array_equal(closed, fresh_closed)
            sizes.append(h.shape[1])
            return below, closed

        monkeypatch.setattr(exact, "_batched_normals", checked_normals)
        monkeypatch.setattr(exact, "_classify", checked_classify)
        for start, stop in blocks:
            search.process_chunk(exact._combination_block(m, k, start, stop))
        search.run_draws(draws, None)
        grown = total - full // 2 - full
        assert grown > full
        assert sizes == [full, full // 2, grown, exact._BLOCK, exact._BLOCK, 17]
        assert search.workspace._buffers["below"].size == grown * m  # the largest block's

    def test_a_block_in_steady_state_allocates_no_block_sized_temporary(self):
        # d = 3, n = 60: once the workspace has its size and the incumbent
        # bound skips most seeds, a block's traced peak stays below half of
        # one (rows, n) float margin array.
        data = random_regression_instance(1, n=60, d=3, r=0.4)
        search = exact._RegressionSearch(data, sf.LossSpec(2, 0.9))
        rows = search.seed_block
        search.run_range(0, rows)
        block = exact._combination_block(2 * data.n, data.d, rows, 2 * rows)
        skipped = search.stats.inner_loops_skipped
        tracemalloc.start()
        try:
            search.process_chunk(block)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert search.stats.inner_loops_skipped - skipped > 0.9 * rows
        assert peak < rows * data.n * 8 // 2


@pytest.fixture(params=[None, 4096], ids=["default", "4096"])
def caller_bufsize(request):
    """Run the test under the numpy ufunc buffer size a caller set (None: numpy's default)."""
    with np.errstate():
        if request.param is not None:
            np.setbufsize(request.param)
        yield np.getbufsize()


class TestBlockBuffers:
    """Each block runs on a ufunc buffer one block row long; the caller's size comes back."""

    def test_a_solve_leaves_the_callers_buffer_size(self, caller_bufsize, monkeypatch):
        seen, blocks = [], []
        process_chunk = exact._RegressionSearch.process_chunk

        def spied(self, subsets):
            blocks.append((subsets.shape[1], np.getbufsize()))
            return process_chunk(self, subsets)

        def progress(done, j):
            seen.append(np.getbufsize())

        def stopper(after=None):
            def stop():
                seen.append(np.getbufsize())
                return after is not None and len(seen) >= after
            return stop

        monkeypatch.setattr(exact._RegressionSearch, "process_chunk", spied)
        monkeypatch.setattr(exact._RegressionSearch, "seed_block", 1000)  # a buffer of 1,008
        data, spec = random_regression_instance(2, n=70, d=2), sf.LossSpec(2, 1.0)  # 9,730 seeds
        sf.exact_regression(data, spec, progress=progress, should_stop=stopper())
        assert np.getbufsize() == caller_bufsize
        assert sorted(set(blocks)) == [(730, 736), (1000, 1008)]
        assert len(seen) == 20 and set(seen) == {caller_bufsize}
        # cancelled after its second block
        seen.clear()
        report = sf.exact_regression(data, spec, should_stop=stopper(after=2))
        assert report.cancelled and report.seeds_enumerated == 2000
        assert np.getbufsize() == caller_bufsize and set(seen) == {caller_bufsize}
        # raising inside a block
        with pytest.raises(sf.NoHyperplaneError):
            sf.exact_regression(line_dataset(22), sf.LossSpec(2, 0.5), progress=progress)
        assert np.getbufsize() == caller_bufsize

    def test_a_forked_solve_leaves_the_callers_buffer_size(self, caller_bufsize, monkeypatch):
        # 9,730 seeds, above the 8,192 from which threads = 2 forks
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        data, spec = random_regression_instance(2, n=70, d=2), sf.LossSpec(2, 1.0)
        seen = []

        def progress(done, j):
            seen.append((done, np.getbufsize()))

        forked = sf.exact_regression(data, spec, threads=2, progress=progress)
        assert [done for done, _ in seen] == [4865, 9730]  # one call per range: it forked
        assert {size for _, size in seen} == {caller_bufsize}
        assert np.getbufsize() == caller_bufsize
        seq = sf.exact_regression(data, spec)
        assert forked.objective == seq.objective and np.array_equal(forked.inliers, seq.inliers)

    @pytest.mark.parametrize("width", [2048, 1000, 17, 1])
    @pytest.mark.parametrize("kind", ["regression", "subspace"])
    def test_the_rule_changes_no_mask_or_count(self, kind, width):
        # _classify's masks and the counts of a block under the rule equal
        # those of numpy's default buffer and of np.count_nonzero; 1,000, 17
        # and 1 are not multiples of 16
        if kind == "regression":
            data = random_regression_instance(4, n=60, d=3, r=0.4)
            search = exact._RegressionSearch(data, sf.LossSpec(2, 0.9))
        else:
            cfg = SubspaceGeneratorConfig(n=20, d=3, subspace_dim=1, outlier_fraction=0.3, rng_seed=4)
            search = _SubspaceSearch(generate_subspace(cfg)[0], sf.LossSpec(2, 0.6))
        zset, n = search.zset, search.n
        total = math.comb(zset.size, search.k)
        for start in (0, total // 3, total - width):
            h, _ = search._normals(exact._combination_block(zset.size, search.k, start, start + width))
            below, closed = (mask.copy() for mask in exact._classify(zset, h))
            with exact._block_buffers(width):
                assert np.getbufsize() == -(-width // 16) * 16
                ruled = exact._classify(zset, h, exact._Workspace())
                if kind == "regression":
                    base = exact._counts(ruled[0][:n] & ruled[0][n:], axis=0)
                    n0 = exact._counts(ruled[1], axis=0) - exact._counts(ruled[0], axis=0)
                    reach = search.eps_p * (n - base - n0)
                else:
                    onset = exact._counts(ruled[1] & ~ruled[0], axis=0)
            assert np.array_equal(ruled[0], below) and np.array_equal(ruled[1], closed)
            if kind == "regression":
                expected_base = np.count_nonzero(below[:n] & below[n:], axis=0)
                expected_n0 = np.count_nonzero(closed & ~below, axis=0)
                assert np.array_equal(base, expected_base) and np.array_equal(n0, expected_n0)
                assert np.array_equal(reach, search.eps_p * (n - expected_base - expected_n0))
            else:
                assert np.array_equal(onset, np.count_nonzero(closed & ~below, axis=0))
            assert below.any() and (closed & ~below).any()

    def test_reports_keep_their_bits_without_the_rule(self, monkeypatch):
        # The buffer size changes no elementwise result and no reduction
        # without a cast; with the rule switched off, in scan and in
        # approx_regression_p0's own block loop, every report keeps its bits.
        # Blocks of 7 seeds run on buffers of 16 elements, shorter than a
        # row of 40 points, where a casting sum would change its order.
        for search in (exact._RegressionSearch, exact._VertexSearch, exact._SubspaceSearch):
            monkeypatch.setattr(search, "seed_block", 7)
        monkeypatch.setattr(exact, "_BLOCK", 7)
        regression = random_regression_instance(3, n=40, d=2)
        points = small_subspace()
        cfg = sf.SamplingConfig(270, 2)
        runs = [
            *(lambda p=p: sf.exact_regression(regression, sf.LossSpec(p, 0.5)) for p in (0, 1, 2)),
            *(lambda p=p: sf.sampled_regression(regression, sf.LossSpec(p, 0.5), cfg) for p in (0, 1, 2)),
            lambda: sf.exact_subspace(points, sf.LossSpec(2, 0.5)),
            lambda: sf.sampled_subspace(points, sf.LossSpec(0, 0.5), cfg),
        ]
        approx = [
            lambda data=data, eps=eps: sf.approx_regression_p0(data, sf.LossSpec(0, eps))
            for data, eps in integer_regression_instances(60)
        ]
        ruled = [run() for run in runs], [run() for run in approx]
        monkeypatch.setattr(exact, "_block_buffers", lambda width: contextlib.nullcontext())
        for a, run in zip(ruled[0], runs):
            assert_same_report(a, run())
        for (model, j), run in zip(ruled[1], approx):
            plain_model, plain_j = run()
            assert j == plain_j and np.array_equal(model.w, plain_model.w)


def test_the_solvers_load_no_module():
    # A module that a solver imports lazily is imported again by every
    # forked worker; the solvers must load nothing that importing satfit
    # and the generators did not.
    script = """
import sys
import satfit as sf
from satfit.experiments import GeneratorConfig, SubspaceGeneratorConfig, generate_regression, generate_subspace
data = generate_regression(GeneratorConfig(n=20, d=2, outlier_fraction=0.3, rng_seed=1))[0]
points = generate_subspace(SubspaceGeneratorConfig(n=9, d=2, subspace_dim=1, outlier_fraction=0.3, rng_seed=1))[0]
before = set(sys.modules)
cfg = sf.SamplingConfig(50, 1)
for p in (0, 1, 2):
    spec = sf.LossSpec(p, 0.9)
    sf.exact_regression(data, spec)
    sf.sampled_regression(data, spec, cfg)
    sf.ransac_regression(data, spec, cfg)
for p in (0, 2):
    spec = sf.LossSpec(p, 0.9)
    sf.exact_subspace(points, spec)
    sf.sampled_subspace(points, spec, cfg)
print(sorted(set(sys.modules) - before))
"""
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
