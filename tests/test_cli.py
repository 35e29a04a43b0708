import dataclasses
import json
import math

import numpy as np
import pytest

from satfit import cli
from satfit.cli import main, read_points_csv, read_regression_csv
from helpers import axis_dataset, exact_fit_dataset, line_dataset


def write_exact_fit_csv(path):
    data = exact_fit_dataset()
    lines = ["x1,y"] + [f"{float(x[0])!r},{float(y)!r}" for x, y in zip(data.x, data.y)]
    path.write_text("\n".join(lines) + "\n")


def write_axis_csv(path):
    data = axis_dataset()
    lines = ["x1,x2"] + [f"{float(a)!r},{float(b)!r}" for a, b in data.x]
    path.write_text("\n".join(lines) + "\n")


def load_without_timing(path):
    doc = json.loads(path.read_text())
    doc.pop("wall_time_seconds", None)
    return doc


class TestCsvFiles:
    @pytest.mark.parametrize("write, read", [
        (write_exact_fit_csv, read_regression_csv),
        (write_axis_csv, lambda path: read_points_csv(path, 1)),
    ], ids=["regression", "points"])
    def test_leading_byte_order_mark_is_accepted(self, tmp_path, write, read):
        plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
        write(plain)
        marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        a, b = read(str(plain)), read(str(marked))
        for field in dataclasses.fields(a):
            assert np.array_equal(getattr(a, field.name), getattr(b, field.name))


class TestRegress:
    def test_exact_fit_report(self, tmp_path):
        data_file = tmp_path / "data.csv"
        out = tmp_path / "report.json"
        write_exact_fit_csv(data_file)
        code = main(
            ["regress", "--method", "exact", "--p", "0", "--epsilon", "0.1",
             str(data_file), "--threads", "1", "--output", str(out)]
        )
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["schema_version"] == 2
        assert doc["flags"] == {"cancelled": False}
        assert doc["objective"] == 1.0
        assert doc["inliers"] == [1, 2, 3, 4]  # report files are 1-based
        assert doc["model"]["w"] == pytest.approx([2.0], abs=1e-9)
        assert doc["counters"]["seeds_enumerated"] == 10

    def test_zero_epsilon_is_usage_error(self, tmp_path):
        data_file = tmp_path / "data.csv"
        write_exact_fit_csv(data_file)
        assert main(["regress", "--p", "0", "--epsilon", "0", str(data_file)]) == 2

    def test_nan_epsilon_is_usage_error(self, tmp_path):
        data_file = tmp_path / "data.csv"
        write_exact_fit_csv(data_file)
        out = tmp_path / "report.json"
        assert main(["regress", "--p", "0", "--epsilon", "nan", str(data_file),
                     "--output", str(out)]) == 2
        assert not out.exists()

    @staticmethod
    def write_line_csv(path):
        data = line_dataset(22)
        rows = [f"{a!r},{b!r},{c!r}" for (a, b), c in zip(data.x.tolist(), data.y.tolist())]
        path.write_text("\n".join(["x1,x2,y", *rows]) + "\n")

    def test_too_many_points_on_a_hyperplane_is_solver_failure(self, tmp_path):
        data_file = tmp_path / "line.csv"
        self.write_line_csv(data_file)
        out = tmp_path / "report.json"
        assert main(["regress", "--p", "2", "--epsilon", "0.5", "--threads", "1",
                     str(data_file), "--output", str(out)]) == 4
        assert not out.exists()

    def test_p1_solves_points_on_one_line(self, tmp_path):
        # the exact p = 1 search scans fits through two points: no refusal
        data_file = tmp_path / "line.csv"
        self.write_line_csv(data_file)
        out = tmp_path / "report.json"
        assert main(["regress", "--p", "1", "--epsilon", "0.5", "--threads", "1",
                     str(data_file), "--output", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["objective"] == 0.0
        assert doc["inliers"] == list(range(1, 23))

    def test_missing_file_is_io_error(self, tmp_path):
        assert main(["regress", "--p", "0", "--epsilon", "0.1", str(tmp_path / "no.csv")]) == 3

    def test_bad_header_is_io_error(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("a,b\n1,2\n")
        assert main(["regress", "--p", "0", "--epsilon", "0.1", str(bad)]) == 3

    def test_underdetermined_data_is_usage_error(self, tmp_path):
        thin = tmp_path / "thin.csv"
        thin.write_text("x1,x2,y\n1.0,2.0,3.0\n")
        assert main(["regress", "--p", "0", "--epsilon", "0.1", str(thin)]) == 2

    def test_unknown_flag_value_is_usage_error(self, tmp_path):
        data_file = tmp_path / "data.csv"
        write_exact_fit_csv(data_file)
        assert main(["regress", "--method", "magic", "--p", "0", "--epsilon", "0.1",
                     str(data_file)]) == 2

    @pytest.mark.parametrize("threads", ["0", "-3"])
    def test_threads_below_one_is_usage_error(self, tmp_path, threads):
        data_file = tmp_path / "data.csv"
        write_exact_fit_csv(data_file)
        out = tmp_path / "report.json"
        assert main(["regress", "--p", "0", "--epsilon", "0.1", str(data_file),
                     "--threads", threads, "--output", str(out)]) == 2
        assert not out.exists()

    @pytest.mark.parametrize("value", ["abc", "0", "-2", "1.5"])
    def test_malformed_threads_variable_is_usage_error(self, tmp_path, monkeypatch, value):
        data_file = tmp_path / "data.csv"
        write_exact_fit_csv(data_file)
        out = tmp_path / "report.json"
        monkeypatch.setenv("SATFIT_THREADS", value)
        assert main(["regress", "--p", "0", "--epsilon", "0.1", str(data_file),
                     "--output", str(out)]) == 2
        assert not out.exists()

    def test_threads_variable_sets_the_default(self, tmp_path, monkeypatch):
        data_file = tmp_path / "data.csv"
        write_exact_fit_csv(data_file)
        monkeypatch.setenv("SATFIT_THREADS", "1")
        assert main(["regress", "--p", "0", "--epsilon", "0.1", str(data_file),
                     "--output", str(tmp_path / "report.json")]) == 0

    def test_sampled_rerun_is_identical_except_timing(self, tmp_path):
        data_file = tmp_path / "data.csv"
        write_exact_fit_csv(data_file)
        outs = []
        for name in ("a.json", "b.json"):
            out = tmp_path / name
            code = main(
                ["regress", "--method", "sampled", "--p", "2", "--epsilon", "0.1",
                 "--iters", "100", "--rng-seed", "7", str(data_file),
                 "--output", str(out)]
            )
            assert code == 0
            outs.append(load_without_timing(out))
        outs[0]["input"] = outs[1]["input"] = ""
        assert outs[0] == outs[1]


class TestSubspace:
    def test_axis_report(self, tmp_path):
        data_file = tmp_path / "points.csv"
        out = tmp_path / "report.json"
        write_axis_csv(data_file)
        code = main(
            ["subspace", "--method", "exact", "--p", "0", "--ds", "1",
             "--epsilon", "0.1", str(data_file), "--threads", "1",
             "--output", str(out)]
        )
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["objective"] == 2.0
        assert doc["inliers"] == [1, 2, 3, 4, 5, 6]

    def test_ds_at_least_d_is_usage_error(self, tmp_path):
        data_file = tmp_path / "points.csv"
        write_axis_csv(data_file)
        assert main(["subspace", "--p", "0", "--ds", "2", "--epsilon", "0.1",
                     str(data_file)]) == 2

    def test_p1_is_rejected_with_usage_error(self, tmp_path):
        data_file = tmp_path / "points.csv"
        write_axis_csv(data_file)
        assert main(["subspace", "--p", "1", "--ds", "1", "--epsilon", "0.1",
                     str(data_file)]) == 2

    def test_threads_below_one_is_usage_error(self, tmp_path, monkeypatch):
        data_file = tmp_path / "pts.csv"
        write_axis_csv(data_file)
        args = ["subspace", "--p", "2", "--ds", "1", "--epsilon", "0.5", str(data_file),
                "--output", str(tmp_path / "report.json")]
        assert main(args + ["--threads", "0"]) == 2
        monkeypatch.setenv("SATFIT_THREADS", "abc")
        assert main(args) == 2

    def test_sampled_deterministic(self, tmp_path):
        data_file = tmp_path / "points.csv"
        write_axis_csv(data_file)
        docs = []
        for name in ("a.json", "b.json"):
            out = tmp_path / name
            assert main(
                ["subspace", "--method", "sampled", "--p", "0", "--ds", "1",
                 "--epsilon", "0.1", "--iters", "60", "--rng-seed", "3",
                 str(data_file), "--output", str(out)]
            ) == 0
            docs.append(load_without_timing(out))
        docs[0]["input"] = docs[1]["input"] = ""
        assert docs[0] == docs[1]


class TestGen:
    def test_dataset_and_sidecar(self, tmp_path):
        out = tmp_path / "data.csv"
        code = main(["gen", "--n", "100", "--d", "3", "--r", "0.4",
                     "--rng-seed", "2", "--output", str(out)])
        assert code == 0
        sidecar = json.loads((tmp_path / "data.meta.json").read_text())
        assert len(sidecar["outlier_indices"]) == 40
        assert len(sidecar["w0"]) == 3
        data = read_regression_csv(str(out))
        assert data.n == 100 and data.d == 3

    def test_round_trip_is_bit_exact(self, tmp_path):
        out = tmp_path / "data.csv"
        main(["gen", "--n", "25", "--d", "2", "--r", "0.2", "--rng-seed", "5",
              "--output", str(out)])
        from satfit.experiments import GeneratorConfig, generate_regression

        reference, _ = generate_regression(
            GeneratorConfig(n=25, d=2, outlier_fraction=0.2, rng_seed=5)
        )
        parsed = read_regression_csv(str(out))
        assert np.array_equal(parsed.x, reference.x)
        assert np.array_equal(parsed.y, reference.y)

    def test_no_outliers_empty_sidecar_list(self, tmp_path):
        out = tmp_path / "clean.csv"
        main(["gen", "--n", "10", "--d", "1", "--r", "0", "--output", str(out)])
        sidecar = json.loads((tmp_path / "clean.meta.json").read_text())
        assert sidecar["outlier_indices"] == []

    def test_outlier_fraction_outside_unit_interval_is_usage_error(self, tmp_path):
        out = tmp_path / "data.csv"
        assert main(["gen", "--n", "10", "--d", "1", "--r", "1.5", "--output", str(out)]) == 2
        assert not out.exists()

    def test_scale_defaults_are_the_library_defaults(self, tmp_path):
        from satfit.experiments import GeneratorConfig

        out = tmp_path / "data.csv"
        main(["gen", "--n", "5", "--d", "1", "--output", str(out)])
        config = json.loads((tmp_path / "data.meta.json").read_text())["config"]
        defaults = GeneratorConfig(n=5, d=1, outlier_fraction=0.0)
        for name in ("noise_std", "outlier_mean", "outlier_std", "x_range"):
            assert config[name] == getattr(defaults, name), name

    def test_regenerate_identical_files(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        for out in (a, b):
            main(["gen", "--n", "15", "--d", "2", "--r", "0.2", "--rng-seed", "9",
                  "--output", str(out)])
        assert a.read_bytes() == b.read_bytes()


@pytest.fixture
def sweep_calls(monkeypatch):
    """Replace ``run_sweep`` in the CLI by a recorder of what it is given; no solve runs."""
    calls = []

    def record(methods, r_values, trials, base, spec, sampling, *, exact_budget, threads):
        calls.append({
            "methods": list(methods), "r_values": list(r_values), "trials": trials,
            "n": base.n, "d": base.d, "rng_seed": base.rng_seed, "p": spec.p,
            "epsilon": spec.epsilon, "iters": sampling.n_iters,
            "exact_budget": exact_budget, "threads": threads,
        })
        return []

    monkeypatch.setattr(cli, "run_sweep", record)
    return calls


class TestBench:
    def test_row_count_and_rerun(self, tmp_path):
        out = tmp_path / "bench.csv"
        args = ["bench", "--methods", "sampled,ransac", "--r-values", "0.2,0.4",
                "--trials", "2", "--n", "25", "--d", "2", "--epsilon", "1.0",
                "--iters", "40", "--rng-seed", "3", "--threads", "1",
                "--output", str(out)]
        assert main(args) == 0
        first = out.read_text().strip().split("\n")
        assert first[0] == "method,r,trial,error,objective,seconds"
        assert len(first) == 1 + 2 * 2 * 2
        assert main(args) == 0
        second = out.read_text().strip().split("\n")
        strip_seconds = lambda lines: [",".join(l.split(",")[:5]) for l in lines]
        assert strip_seconds(first) == strip_seconds(second)

    def test_budget_refusal(self, tmp_path):
        out = tmp_path / "bench.csv"
        code = main(["bench", "--methods", "exact", "--n", "5000", "--d", "4",
                     "--r-values", "0.1", "--trials", "1", "--epsilon", "1.0",
                     "--output", str(out)])
        assert code == 5

    def test_threads_below_one_is_usage_error(self, tmp_path, monkeypatch):
        out = tmp_path / "bench.csv"
        args = ["bench", "--methods", "sampled", "--r-values", "0.2", "--trials", "1",
                "--n", "20", "--d", "2", "--epsilon", "1.0", "--iters", "10",
                "--output", str(out)]
        assert main(args + ["--threads", "0"]) == 2
        monkeypatch.setenv("SATFIT_THREADS", "-1")
        assert main(args) == 2
        assert not out.exists()

    def test_fig1_preset_resolves(self, tmp_path):
        # only check the preset plumbing, scaled down to stay fast
        out = tmp_path / "bench.csv"
        args = ["bench", "--fig1", "--trials", "1", "--n", "20", "--d", "2",
                "--iters", "30", "--r-values", "0.5", "--rng-seed", "1",
                "--threads", "1", "--output", str(out)]
        assert main(args) == 0
        lines = out.read_text().strip().split("\n")
        assert len(lines) == 1 + 2  # sampled and ransac from the preset

    def test_plain_bench_defaults(self, tmp_path, sweep_calls):
        assert main(["bench", "--threads", "1", "--output", str(tmp_path / "b.csv")]) == 0
        [call] = sweep_calls
        assert call["methods"] == ["sampled", "ransac"]
        assert call["r_values"] == [0.1, 0.2, 0.3, 0.4]
        assert (call["trials"], call["n"], call["d"], call["p"]) == (10, 200, 4, 2)
        assert call["epsilon"] == 3.0 * math.sqrt(0.1)
        assert call["iters"] == 3000

    def test_fig1_sets_only_trials_and_r_values(self, tmp_path, sweep_calls):
        out = str(tmp_path / "b.csv")
        assert main(["bench", "--threads", "1", "--output", out]) == 0
        assert main(["bench", "--fig1", "--threads", "1", "--output", out]) == 0
        plain, fig1 = sweep_calls
        assert fig1["trials"] == 100
        assert fig1["r_values"] == [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8]
        for key in ("trials", "r_values"):
            del plain[key], fig1[key]
        assert fig1 == plain

    def test_explicit_flags_override_the_preset(self, tmp_path, sweep_calls):
        assert main(["bench", "--fig1", "--methods", "ransac", "--r-values", "0.5",
                     "--trials", "3", "--n", "30", "--d", "2", "--p", "1",
                     "--epsilon", "0.7", "--iters", "50", "--threads", "1",
                     "--output", str(tmp_path / "b.csv")]) == 0
        [call] = sweep_calls
        assert call["methods"] == ["ransac"]
        assert call["r_values"] == [0.5]
        assert (call["trials"], call["n"], call["d"], call["p"]) == (3, 30, 2, 1)
        assert (call["epsilon"], call["iters"]) == (0.7, 50)

    def test_ransac_subset_size_defaults_to_twice_d(self, tmp_path):
        args = ["bench", "--methods", "ransac", "--r-values", "0.3", "--trials", "2",
                "--n", "20", "--d", "2", "--epsilon", "1.0", "--iters", "30",
                "--rng-seed", "4", "--threads", "1"]
        rows = []
        for name, extra in (("a.csv", []), ("b.csv", ["--subset-size", "4"])):
            out = tmp_path / name
            assert main(args + extra + ["--output", str(out)]) == 0
            rows.append([line.rsplit(",", 1)[0] for line in out.read_text().splitlines()])
        assert len(rows[0]) == 3
        assert rows[0] == rows[1]

    @pytest.mark.parametrize("argv", [
        ["bench", "--trials", "0"],
        ["bench", "--r-values", ""],
        ["bench", "--p", "3"],
        ["bench", "--epsilon", "0"],
    ])
    def test_invalid_values_are_usage_errors(self, tmp_path, argv):
        out = tmp_path / "out.csv"
        assert main(argv + ["--output", str(out)]) == 2
        assert not out.exists()
