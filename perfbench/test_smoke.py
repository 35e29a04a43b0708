"""Smoke test of the benchmark: every workload at toy size, untraced and traced.

``run.py --smoke`` fails unless every end-to-end and per-layer metric named
in BENCHMARK.json is emitted with its unit, every answer passed its checks,
and every exact answer was compared with a recorded reference objective.
"""

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def test_smoke_runs_every_workload_with_checked_answers():
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke"],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    lines = [json.loads(line) for line in proc.stdout.splitlines()]
    assert lines[-1] == {"smoke": "ok", "problems": 0}
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    runs = {(r["details"]["workload"], r["details"]["trace"]) for r in lines[:-1]}
    assert runs == {(w["name"], t) for w in spec["workloads"] for t in (0, 1)}
    for r in lines[:-1]:
        assert r["result"]["attempted"] >= 1
        assert r["details"]["checks"] == r["result"]["attempted"]
