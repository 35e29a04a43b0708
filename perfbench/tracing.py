"""Span tracing for the benchmark's traced run, installed from outside the library.

The tracer replaces, for the duration of one solve, the functions through
which the ``exact``, ``sampling``, ``subsolvers``, ``core`` and ``geometry``
layers are entered.  Every call becomes a span (name, start, end, parent
span, solve id) kept in compact in-memory arrays.  Nothing under ``src/`` is
edited: a wrapper is bound wherever the original function object is bound
(its defining module, modules that imported it by name, and the package
namespace), and the original is put back afterwards.

Forked workers of the process-parallel exact search inherit the installed
wrappers.  The wrapped range task records its worker's spans and attaches
them to the partial result it returns; the wrapped ``merge_partial`` strips
them off again in the parent, so the library sees the partials it expects.

A target that no longer exists in the library is reported as absent and its
metrics read 0; the traced run does not fail because of it.
"""

from __future__ import annotations

import functools
import importlib
import os
from array import array
from time import perf_counter

import numpy as np

_MODULES = (
    "satfit",
    "satfit.core",
    "satfit.geometry",
    "satfit.subsolvers",
    "satfit.exact",
    "satfit.sampling",
)

# Fit entry points; each call also counts toward the distinct-row-set ratio.
_FIT_TARGETS = (
    "satfit.subsolvers._lad_fit",
    "satfit.subsolvers._ls_fit",
    "satfit.subsolvers._minimax_fit",
    "satfit.subsolvers._svd_basis",
)
_TARGETS = (
    "satfit.subsolvers.lp_solve",
    *_FIT_TARGETS,
    "satfit.core.subspace_objective",
    "satfit.geometry._nullspace_direction",
    "satfit.exact._batched_normals",
    "satfit.exact._combination_block",
    "satfit.exact._RegressionSearch.process_chunk",
    "satfit.exact._RegressionSearch._handle_seed",
    "satfit.exact._RegressionSearch.process_seed",
    "satfit.exact._SubspaceSearch.process_seed",
    "satfit.sampling._iteration_rngs",
)
_TASK_TARGETS = (
    "satfit.exact._regression_range_task",
    "satfit.exact._subspace_range_task",
)
_MERGE_TARGETS = (
    "satfit.exact._RegressionSearch.merge_partial",
    "satfit.exact._SubspaceSearch.merge_partial",
)
_TRACE_KEY = "_perfbench_spans"


def _resolve(path: str):
    """(owner, attribute, object) for a dotted path, or None if it is gone."""
    parts = path.split(".")
    for cut in range(len(parts) - 1, 0, -1):
        try:
            owner = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for attr in parts[cut:-1]:
            owner = getattr(owner, attr, None)
            if owner is None:
                return None
        obj = getattr(owner, parts[-1], None)
        return None if obj is None else (owner, parts[-1], obj)
    return None


class Tracer:
    """In-memory span store plus the install / uninstall of the wrappers."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.pid = os.getpid()
        self.absent: list[str] = []
        self._plan: list[tuple[object, str, object, object]] | None = None
        self._patches: list[tuple[object, str, object]] = []
        self._reset_spans()
        self.solve_id = -1
        self.lp_pivots = 0
        self.fits = 0
        self._fit_keys: set = set()
        self.distinct_fits = 0

    def _reset_spans(self) -> None:
        self.name = array("i")
        self.parent = array("i")
        self.solve = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []

    def _intern(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    # -- spans ----------------------------------------------------------------

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.solve.append(self.solve_id)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self._stack.pop()

    def begin_solve(self, solve_id: int) -> int:
        """Open the root span of one traced solve."""
        self.solve_id = solve_id
        self._fit_keys.clear()
        return self._open(self._intern("solve"))

    def end_solve(self, idx: int) -> None:
        self._close(idx)
        self.distinct_fits += len(self._fit_keys)
        self._fit_keys.clear()
        self.solve_id = -1

    def _count_fit(self, args) -> None:
        self.fits += 1
        self._fit_keys.add(hash(tuple(a.tobytes() for a in args if isinstance(a, np.ndarray))))

    def _count_pivots(self, solution) -> None:
        self.lp_pivots += int(solution.iterations)

    # -- wrappers -------------------------------------------------------------

    def _wrap(self, name: str, fn, before=None, after=None):
        nid = self._intern(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(args)
            idx = self._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if after is not None:
                after(result)
            return result

        return wrapper

    def _wrap_task(self, name: str, fn):
        nid = self._intern(name)

        @functools.wraps(fn)
        def task(payload):
            forked = os.getpid() != self.pid
            if forked:  # drop the parent's spans inherited through fork
                self._reset_spans()
                self.lp_pivots = self.fits = self.distinct_fits = 0
                self._fit_keys.clear()
            idx = self._open(nid)
            try:
                part = fn(payload)
            finally:
                self._close(idx)
            if forked:
                part = dict(part)
                part[_TRACE_KEY] = self._export_worker()
            return part

        return task

    def _wrap_merge(self, fn):
        @functools.wraps(fn)
        def merge(search, part):
            spans = part.pop(_TRACE_KEY, None) if isinstance(part, dict) else None
            if spans is not None:
                self._absorb_worker(spans)
            return fn(search, part)

        return merge

    def _export_worker(self) -> dict:
        return {
            "name": self.name.tobytes(),
            "parent": self.parent.tobytes(),
            "start": self.start.tobytes(),
            "end": self.end.tobytes(),
            "lp_pivots": self.lp_pivots,
            "fits": self.fits,
            "distinct_fits": len(self._fit_keys),
        }

    def _absorb_worker(self, spans: dict) -> None:
        offset = len(self.start)
        name = array("i", spans["name"])
        parent = array("i", spans["parent"])
        self.name.extend(name)
        self.parent.extend(array("i", (p + offset if p >= 0 else -1 for p in parent)))
        self.solve.extend(array("i", [self.solve_id]) * len(name))
        self.start.frombytes(spans["start"])
        self.end.frombytes(spans["end"])
        self.lp_pivots += spans["lp_pivots"]
        self.fits += spans["fits"]
        # Worker fit sets are disjoint in rank but may overlap in content;
        # the per-worker distinct counts are summed (an upper bound).
        self.distinct_fits += spans["distinct_fits"]

    def _make_plan(self):
        plan = []
        for path in _TARGETS + _TASK_TARGETS + _MERGE_TARGETS:
            found = _resolve(path)
            if found is None:
                self.absent.append(path)
                continue
            owner, attr, fn = found
            if path in _TASK_TARGETS:
                wrapper = self._wrap_task(path, fn)
            elif path in _MERGE_TARGETS:
                wrapper = self._wrap_merge(fn)
            elif path in _FIT_TARGETS:
                wrapper = self._wrap(path, fn, before=self._count_fit)
            elif path.endswith(".lp_solve"):
                wrapper = self._wrap(path, fn, after=self._count_pivots)
            else:
                wrapper = self._wrap(path, fn)
            if isinstance(owner, type):
                plan.append((owner, attr, fn, wrapper))
                continue
            # Rebind in every module that holds the same function object.
            for modname in _MODULES:
                mod = importlib.import_module(modname)
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        plan.append((mod, key, fn, wrapper))
        return plan

    def install(self) -> None:
        if self._plan is None:
            self._plan = self._make_plan()
        for owner, attr, fn, wrapper in self._plan:
            self._patches.append((owner, attr, fn))
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, fn = self._patches.pop()
            setattr(owner, attr, fn)

    # -- output ---------------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "solve": np.frombuffer(self.solve, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
        }

    def save(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        np.savez(path, names=np.array(self.names), **self.arrays())

    def totals(self) -> tuple[dict[str, float], dict[str, float], dict[str, int]]:
        """Per span name: total time, total self time and call count."""
        a = self.arrays()
        dur = a["end"] - a["start"]
        has_parent = a["parent"] >= 0
        child = np.bincount(
            a["parent"][has_parent], weights=dur[has_parent], minlength=dur.size
        )
        self_time = dur - child
        k = len(self.names)
        total = np.bincount(a["name"], weights=dur, minlength=k)
        own = np.bincount(a["name"], weights=self_time, minlength=k)
        calls = np.bincount(a["name"], minlength=k)
        return (
            dict(zip(self.names, total.tolist())),
            dict(zip(self.names, own.tolist())),
            dict(zip(self.names, calls.tolist())),
        )

    def worker_spans(self) -> dict[int, list[float]]:
        """Durations of the forked range tasks, by solve id."""
        ids = [self._name_ids[p] for p in _TASK_TARGETS if p in self._name_ids]
        a = self.arrays()
        mask = np.isin(a["name"], ids) & (a["parent"] < 0)
        spans: dict[int, list[float]] = {}
        for sid, dur in zip(a["solve"][mask].tolist(), (a["end"] - a["start"])[mask].tolist()):
            spans.setdefault(sid, []).append(dur)
        return spans
