"""Smoke test of the benchmark at tiny sizes, so it cannot rot silently.

Every workload, untraced and traced, must run clean and report exactly the
metrics BENCHMARK.json lists; without rdmt sources the benchmark must fail
without printing a result; and the tracer must not crash on a commit that
lacks what it looks for.  It lives outside tests/, so the repository's test suite does
not collect it.  Run it from the repository root (about 45 s on 2 cores):

    python3 -m pytest perfbench/test_smoke.py
"""

import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(cwd, workload, trace):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "0.5", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_reports_every_metric(workload, trace):
    proc = _run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, proc.stdout
    listed = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in listed]
    for m in listed:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"] and math.isfinite(got["value"])
        assert trace or got["value"] > 0
    assert "absent" not in proc.stdout


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "density-h2x3", 0)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_raising_library_call_counts_as_failure(tmp_path):
    # A reference call that raises fails the output check it feeds, and a
    # single call that raises is timed and counted as failed; neither stops
    # the run.
    code = f"""
import workloads
wl = workloads.WORKLOADS["density-h2x3"](3, {str(tmp_path)!r}, True)
wl.setup()
tally = workloads.Tally()
wl.batch_round(tally)
def boom(*args, **kwargs):
    raise RuntimeError("boom")
wl.api.logpdf_matric_t = boom
wl.after_first_round(tally)
assert len(wl.single_calls(5, tally)) == 5
assert tally.totals() == (7, 6), tally.totals()
"""
    proc = subprocess.run([sys.executable, "-c", code], cwd=HERE,
                          env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr


def test_tracer_reports_missing_sources_as_absent():
    # Without rdmt loaded, the tracer finds nothing to wrap; it must still
    # install, uninstall and summarise, leaving every figure out.
    code = ("import tracer; t = tracer.Tracer(); t.install(); t.uninstall(); "
            "assert t.summary(1) == {}, t.summary(1)")
    proc = subprocess.run([sys.executable, "-c", code], cwd=HERE,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
