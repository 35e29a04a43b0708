#!/usr/bin/env python3
"""satfit benchmark: closed-loop solver workloads with checked answers.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke      # every workload at toy size, metric names checked
    python3 perfbench/run.py --record     # rewrite perfbench/references.json

One process solves the cases of a workload one at a time, in whole passes
over the workload's pool, until ``--seconds`` have elapsed.  ``--seed``
orders each pass; the instances come from ``--data-seed`` (the main pool by
default, or the held-out pool), so that every exact answer can be compared
with a recorded reference objective.  Answers are checked outside the timed
section.  The last line of standard output is the result object; the line
before it records the environment and the details of the run.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced solves of the same cases and reports per-layer metrics
from spans recorded around the library's internal entry points (see
``tracing.py``); the spans are written to ``perfbench/out/``.

The BLAS pool is held at one thread, so BLAS oversubscription by the forked
workers of ``exact-enum`` is not measured.
"""

from __future__ import annotations

import os

# Set before numpy is imported, here and in every child process.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCES = HERE / "references.json"
OUT = HERE / "out"
SETUP_REPEATS = 5

END_TO_END = {
    "setup_s": "s",
    "solve_s.p50": "s",
    "seeds_per_s": "1/s",
    "peak_rss_mb": "MB",
    "model_error.mean": "ratio",
}
PER_LAYER = {
    "subsolvers.lad_s": "s",
    "subsolvers.lp_calls": "count",
    "subsolvers.lp_pivots": "count",
    "subsolvers.pivots_per_lp": "count",
    "subsolvers.svd_s": "s",
    "subsolvers.ls_s": "s",
    "subsolvers.fit_calls": "count",
    "subsolvers.distinct_ratio": "ratio",
    "exact.normals_s": "s",
    "exact.classify_s": "s",
    "exact.enum_s": "s",
    "exact.completion_s": "s",
    "exact.seeds": "count",
    "exact.inner_loops_skipped": "count",
    "exact.skip_ratio": "ratio",
    "exact.sign_completions": "count",
    "exact.subproblems_solved": "count",
    "exact.subproblems_pruned": "count",
    "exact.worker_busy_s": "s",
    "exact.worker_imbalance": "ratio",
    "exact.pool_overhead_s": "s",
    "core.score_s": "s",
    "core.score_calls": "count",
    "geometry.nullspace_s": "s",
    "sampling.rng_setup_s": "s",
    "experiments.generate_s": "s",
    "trace.solve_s": "s",
    "trace.busy_s": "s",
    "trace.overhead": "ratio",
}

sys.path.insert(0, str(SRC))
try:
    import numpy as np

    import tracing
    import workloads
except ImportError as exc:  # run outside a source checkout
    print(f"perfbench: cannot import satfit from {SRC}: {exc}", file=sys.stderr)
    sys.exit(2)


# ---------------------------------------------------------------------------
# Environment


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name", "unknown"),
        "blas_version": blas.get("version", "unknown"),
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "git_commit": _git_commit(),
        "src_lines": sum(
            len(p.read_text().splitlines()) for p in sorted((SRC / "satfit").glob("*.py"))
        ),
    }


def _peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest child, in MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


# ---------------------------------------------------------------------------
# Set-up and measurement


def _setup(build, data_seed: int, smoke: bool, repeats: int):
    """Import (fresh interpreter), generate the pool and warm up, ``repeats`` times."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")]))
    totals, generate = [], []
    for _ in range(repeats):
        t0 = perf_counter()
        subprocess.run([sys.executable, "-c", "import satfit"], env=env, check=True)
        t1 = perf_counter()
        cases = build(data_seed, smoke)
        t2 = perf_counter()
        for case in build(workloads.MAIN_DATA_SEED, True):
            case.solve()
        totals.append(perf_counter() - t0)
        generate.append(t2 - t1)
    return cases, statistics.median(totals), statistics.median(generate)


class Run:
    """Solves, checks and timings of one benchmark run."""

    def __init__(self, cases, references: dict, tracer=None):
        self.cases = cases
        self.references = references
        self.tracer = tracer
        self.times: list[float] = []
        self.case_times: dict[str, list[float]] = {}
        self.traced: list[tuple[int, float, object]] = []  # (solve id, seconds, report)
        self.seeds = 0
        self.attempted = 0
        self.failures: list[str] = []
        self.checks = 0
        self.exact_checks = 0
        self.reference_checks = 0
        self.first: dict[str, tuple[float, float]] = {}  # key -> (objective, model error)

    def _solve(self, case, traced: bool):
        self.attempted += 1
        root = None
        if traced:
            self.tracer.install()
            root = self.tracer.begin_solve(self.attempted)
        t0 = perf_counter()
        try:
            report = case.solve()
        except Exception as exc:  # a failed solve is counted, not fatal
            report, error = None, f"{case.key}: {type(exc).__name__}: {exc}"
        else:
            error = None
        finally:
            elapsed = perf_counter() - t0
            if traced:
                self.tracer.end_solve(root)
                self.tracer.uninstall()
        if error is None:
            error = self._check(case, report)
        if error is not None:
            self.failures.append(error)
            return
        if traced:
            self.traced.append((self.attempted, elapsed, report))
        else:
            self.times.append(elapsed)
            self.case_times.setdefault(case.key, []).append(round(elapsed, 4))
            self.seeds += report.seeds_enumerated

    def _check(self, case, report) -> str | None:
        reference = self.references.get(case.key)
        problems = workloads.check(case, report, reference)
        self.checks += 1
        self.exact_checks += case.exact
        self.reference_checks += reference is not None
        error = workloads.model_error(case, report)
        seen = self.first.setdefault(case.key, (report.objective, error))
        if seen[0] != report.objective:
            problems.append(f"objective {report.objective!r} differs from an earlier solve {seen[0]!r}")
        return f"{case.key}: {'; '.join(problems)}" if problems else None

    def measure(self, seconds: float, order: np.random.Generator) -> int:
        """Whole passes over the pool until ``seconds`` have elapsed; returns the pass count."""
        deadline = perf_counter() + seconds
        passes = 0
        while passes == 0 or perf_counter() < deadline:
            for i in order.permutation(len(self.cases)):
                self._solve(self.cases[i], traced=False)
                if self.tracer is not None:
                    self._solve(self.cases[i], traced=True)
            passes += 1
        return passes


def _metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def end_to_end_metrics(run: Run, setup_s: float) -> dict:
    solve_s = sum(run.times)
    values = {
        "setup_s": setup_s,
        "solve_s.p50": statistics.median(run.times) if run.times else 0.0,
        "seeds_per_s": run.seeds / solve_s if solve_s else 0.0,
        "peak_rss_mb": _peak_rss_mb(),
        "model_error.mean": statistics.fmean(e for _, e in run.first.values()) if run.first else 0.0,
    }
    return {name: _metric(values[name], unit) for name, unit in END_TO_END.items()}


def per_layer_metrics(run: Run, generate_s: float) -> dict:
    tracer = run.tracer
    count = max(1, len(run.traced))
    traced_times = [wall for _, wall, _ in run.traced]
    reports = [report for _, _, report in run.traced]
    total, own, calls = tracer.totals()

    def per_solve(table, *paths):
        return sum(table.get(p, 0.0) for p in paths) / count

    # Forked solves: the workers' busy time, the slowest over the mean, and
    # the wall time not covered by the slowest worker.  Worker-side layer
    # times add up to the busy time, so shares are taken of ``trace.busy_s``.
    workers = tracer.worker_spans()
    busy, imbalance, overhead, share_base = [], [], [], 0.0
    for sid, wall, _ in run.traced:
        spans = workers.get(sid)
        if spans:
            busy.append(sum(spans))
            imbalance.append(max(spans) / statistics.fmean(spans))
            overhead.append(wall - max(spans))
        share_base += sum(spans) if spans else wall
    seeds = sum(r.seeds_enumerated for r in reports)
    skipped = sum(r.inner_loops_skipped for r in reports)
    lp_calls = calls.get("satfit.subsolvers.lp_solve", 0)
    s = "satfit.subsolvers."
    values = {
        "subsolvers.lad_s": per_solve(total, s + "_lad_fit"),
        "subsolvers.lp_calls": lp_calls / count,
        "subsolvers.lp_pivots": tracer.lp_pivots / count,
        "subsolvers.pivots_per_lp": tracer.lp_pivots / lp_calls if lp_calls else 0.0,
        "subsolvers.svd_s": per_solve(total, s + "_svd_basis"),
        "subsolvers.ls_s": per_solve(total, s + "_ls_fit"),
        "subsolvers.fit_calls": tracer.fits / count,
        "subsolvers.distinct_ratio": tracer.distinct_fits / tracer.fits if tracer.fits else 0.0,
        "exact.normals_s": per_solve(total, "satfit.exact._batched_normals"),
        "exact.classify_s": per_solve(own, "satfit.exact._RegressionSearch.process_chunk"),
        "exact.enum_s": per_solve(total, "satfit.exact._combination_block"),
        "exact.completion_s": per_solve(
            own,
            "satfit.exact._RegressionSearch._handle_seed",
            "satfit.exact._RegressionSearch.process_seed",
            "satfit.exact._SubspaceSearch.process_seed",
        ),
        "exact.seeds": seeds / count,
        "exact.inner_loops_skipped": skipped / count,
        "exact.skip_ratio": skipped / seeds if seeds else 0.0,
        "exact.sign_completions": sum(r.sign_completions for r in reports) / count,
        "exact.subproblems_solved": sum(r.subproblems_solved for r in reports) / count,
        "exact.subproblems_pruned": sum(r.subproblems_pruned for r in reports) / count,
        "exact.worker_busy_s": sum(busy) / count,
        "exact.worker_imbalance": statistics.fmean(imbalance) if imbalance else 0.0,
        "exact.pool_overhead_s": sum(overhead) / count,
        "core.score_s": per_solve(total, "satfit.core.subspace_objective"),
        "core.score_calls": calls.get("satfit.core.subspace_objective", 0) / count,
        "geometry.nullspace_s": per_solve(total, "satfit.geometry._nullspace_direction"),
        "sampling.rng_setup_s": per_solve(total, "satfit.sampling._iteration_rngs"),
        "experiments.generate_s": generate_s,
        "trace.solve_s": sum(traced_times) / count,
        "trace.busy_s": share_base / count,
        "trace.overhead": (
            statistics.median(traced_times) / statistics.median(run.times)
            if run.times and traced_times
            else 0.0
        ),
    }
    return {name: _metric(values[name], unit) for name, unit in PER_LAYER.items()}


def run_workload(name: str, seed: int, seconds: float, trace: bool, data_seed: int, smoke: bool = False):
    """One benchmark run; returns (result object, details)."""
    build = workloads.WORKLOADS[name]
    size = "smoke" if smoke else "full"
    references = json.loads(REFERENCES.read_text()).get(size, {}).get(str(data_seed), {}).get(name, {})
    cases, setup_s, generate_s = _setup(build, data_seed, smoke, 1 if smoke else SETUP_REPEATS)
    run = Run(cases, references, tracing.Tracer() if trace else None)
    passes = run.measure(seconds, np.random.default_rng(seed))
    if trace:
        metrics = per_layer_metrics(run, generate_s)
        run.tracer.save(str(OUT / f"spans-{name}-seed{seed}.npz"))
    else:
        metrics = end_to_end_metrics(run, setup_s)
    failed = len(run.failures)
    result = {
        "correct": failed == 0,
        "attempted": run.attempted,
        "failed": failed,
        "metrics": metrics,
    }
    details = {
        "workload": name,
        "seed": seed,
        "data_seed": data_seed,
        "size": size,
        "trace": int(trace),
        "passes": passes,
        "pool": [c.key for c in cases],
        "solves_timed": len(run.times),
        "solves_traced": len(run.traced),
        "solve_s": run.case_times,
        "failed_ratio": failed / run.attempted,
        "checks": run.checks,
        "exact_checks": run.exact_checks,
        "reference_checks": run.reference_checks,
        "failures": run.failures[:10],
        "environment": environment(),
    }
    if trace:
        busy = metrics["trace.busy_s"]["value"]
        details["absent"] = run.tracer.absent
        details["shares"] = {
            k: round(m["value"] / busy, 4)
            for k, m in metrics.items()
            if m["unit"] == "s" and not k.startswith(("trace.", "experiments.")) and busy
        }
    return result, details


# ---------------------------------------------------------------------------
# Record and smoke modes


def record() -> int:
    """Solve every exact case once and store its objective as the reference."""
    table: dict = {}
    plan = [("full", workloads.MAIN_DATA_SEED), ("full", workloads.HELD_OUT_DATA_SEED),
            ("smoke", workloads.MAIN_DATA_SEED)]
    for size, data_seed in plan:
        for name, build in workloads.WORKLOADS.items():
            for case in build(data_seed, size == "smoke"):
                if not case.exact:
                    continue
                report = case.solve()
                problems = workloads.check(case, report, report.objective)
                if problems:
                    print(f"{size}/{data_seed}/{name}/{case.key}: {problems}", file=sys.stderr)
                    return 1
                table.setdefault(size, {}).setdefault(str(data_seed), {}).setdefault(name, {})[
                    case.key
                ] = report.objective
                print(f"{size} {data_seed} {name} {case.key} {report.objective!r}", file=sys.stderr)
    REFERENCES.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    return 0


def smoke() -> int:
    """Every workload at toy size, untraced and traced; checks names, units and checks."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    for name in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            result, details = run_workload(name, 0, 0.0, bool(trace), workloads.MAIN_DATA_SEED, smoke=True)
            print(json.dumps({"details": details, "result": result}))
            got = {k: m["unit"] for k, m in result["metrics"].items()}
            tag = f"{name} trace={trace}"
            if got != expected[trace]:
                problems.append(f"{tag}: metrics {got} != BENCHMARK.json {expected[trace]}")
            if not result["correct"]:
                problems.append(f"{tag}: failures {details['failures']}")
            if (
                details["checks"] != result["attempted"]
                or details["reference_checks"] != details["exact_checks"]
            ):
                problems.append(f"{tag}: only {details['checks']} of {result['attempted']} answers checked")
    for p in problems:
        print(p, file=sys.stderr)
    print(json.dumps({"smoke": "ok" if not problems else "failed", "problems": len(problems)}))
    return 0 if not problems else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0, help="orders the solves of each pass")
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--data-seed",
        type=int,
        choices=(workloads.MAIN_DATA_SEED, workloads.HELD_OUT_DATA_SEED),
        default=workloads.MAIN_DATA_SEED,
        help="instance pool: main or held out; both have recorded reference objectives",
    )
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--record", action="store_true")
    args = parser.parse_args(argv)
    if args.record:
        return record()
    if args.smoke:
        return smoke()
    if args.workload is None:
        parser.error("--workload is required")
    result, details = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), args.data_seed)
    print(json.dumps({"details": details}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
