"""Print every field but the wall time of the solver reports on a fixed set of cases.

ROADMAP aim 2 asks a change to keep every report bit-identical for a given
thread count, or to say which outputs changed.  This script makes that
checkable: run it under two trees and compare the outputs.

    PYTHONPATH=src python tools/report_fields.py > new.txt
    PYTHONPATH=/path/to/other/tree/src python tools/report_fields.py > old.txt
    python tools/report_fields.py --compare old.txt new.txt

The first line names the ``satfit`` that was imported.  Every other line is
one report, tab-separated: its case key, then each field as ``name=value``,
a float as its hex form and an array (model, inliers) as a digest of its
dtype, shape and bytes.  A run that raises records the exception instead.
The cases are:

* the 300 ``integer_regression_instances()`` of ``tests/helpers.py``:
  exact p = 0 and 2 at ``threads`` 1 and 2, and sampled p = 0, 1 and 2;
* the ``exact-enum`` pool of ``perfbench/workloads.py`` at data seeds 11 and
  23 (at ``threads`` 2 these runs fork) and its ``sampled-fig1`` pool
  (sampled regression and RANSAC);
* ``line_dataset(8)``, ``(12)`` and ``(16)``, exact p = 0 and 2 at
  ``threads`` 1 and 2, whose seeds hold up to 16 on-hyperplane points (at 16
  a seed's branches are split over several calls).

``--compare`` prints a Markdown summary: how many reports differ and, for
each, the fields that do.  It always exits 0.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]


def _value(value) -> str:
    if isinstance(value, float):
        return value.hex()
    value = getattr(value, "w", getattr(value, "basis", value))  # a model's array
    if isinstance(value, np.ndarray):
        return hashlib.sha256(f"{value.dtype}{value.shape}".encode() + value.tobytes()).hexdigest()[:16]
    return repr(value)


def _line(key: str, solve) -> str:
    try:
        report = solve()
    except Exception as exc:  # a refusal is an output too
        return f"{key}\terror={type(exc).__name__}: {exc}"
    fields = (f.name for f in dataclasses.fields(report) if f.name != "wall_time_seconds")
    return key + "".join(f"\t{name}={_value(getattr(report, name))}" for name in fields)


def _cases():
    """(key, solve) pairs of every case, in a fixed order."""
    sys.path[:0] = [str(ROOT / "tests"), str(ROOT)]
    import satfit as sf
    from helpers import integer_regression_instances, line_dataset
    from perfbench import workloads

    def exact(data, spec, threads):
        return lambda: sf.exact_regression(data, spec, threads=threads)

    for i, (data, eps) in enumerate(integer_regression_instances()):
        for p in (0, 2):
            for threads in (1, 2):
                yield f"int{i}.exact.p{p}.t{threads}", exact(data, sf.LossSpec(p, eps), threads)
        for p in (0, 1, 2):
            cfg = sf.SamplingConfig(200, i)
            yield f"int{i}.sampled.p{p}", lambda d=data, s=sf.LossSpec(p, eps), c=cfg: sf.sampled_regression(d, s, c)
    for seed in (workloads.MAIN_DATA_SEED, workloads.HELD_OUT_DATA_SEED):
        for case in workloads.WORKLOADS["exact-enum"](seed, False):
            for threads in (1, 2):
                yield f"exact-enum.s{seed}.{case.key}.t{threads}", exact(case.data, case.spec, threads)
        for case in workloads.WORKLOADS["sampled-fig1"](seed, False):
            yield f"sampled-fig1.s{seed}.{case.key}", case.solve
    for n in (8, 12, 16):
        for p in (0, 2):
            for threads in (1, 2):
                yield f"line{n}.p{p}.t{threads}", exact(line_dataset(n), sf.LossSpec(p, 0.5), threads)


def _dump() -> None:
    import satfit

    print(f"# satfit from {Path(satfit.__file__).parent}", flush=True)
    for key, solve in _cases():
        print(_line(key, solve), flush=True)


def _read(path: str) -> dict[str, dict[str, str]]:
    reports = {}
    for line in Path(path).read_text().splitlines():
        if line and not line.startswith("#"):
            key, *fields = line.split("\t")
            reports[key] = dict(field.split("=", 1) for field in fields)
    return reports


def _compare(old_path: str, new_path: str) -> None:
    old, new = _read(old_path), _read(new_path)
    differ = []
    for key in sorted(old.keys() | new.keys()):
        a, b = old.get(key), new.get(key)
        if a is None or b is None:
            differ.append((key, "only in " + (new_path if a is None else old_path)))
        elif a != b:
            differ.append((key, ", ".join(sorted(k for k in a.keys() | b.keys() if a.get(k) != b.get(k)))))
    print(f"**Report fields:** {len(differ)} of {len(old.keys() | new.keys())} reports differ.")
    for key, what in differ[:100]:
        print(f"- `{key}`: {what}")
    if len(differ) > 100:
        print(f"- and {len(differ) - 100} more")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"), help="compare two outputs of this script")
    args = parser.parse_args()
    if args.compare:
        _compare(*args.compare)
    else:
        _dump()


if __name__ == "__main__":
    main()
