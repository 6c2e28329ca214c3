"""Benchmark for rdmt: one workload per run, end-to-end or per-layer figures.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it imports rdmt from ``src/`` of that
checkout and fails (exit 2, no result) when there is none.  Each measurement
runs in fresh ``worker.py`` processes with one BLAS thread: untraced, three
of them one after another, each measuring a third of ``--seconds``.  Scratch
files go to ``.perfbench_work/`` (removed at exit); the traced run writes its
spans to ``.perfbench_out/trace-<workload>.json``.

With ``--trace 0`` it reports every ``end_to_end`` metric of BENCHMARK.json:

* ``setup_s``: import of rdmt plus parameter records and inputs, the median
  over the workers;
* ``peak_rss_mb``: the largest peak resident memory of a worker;
* ``ok_ratio``: operations that succeeded / attempted (1 - fail ratio);
* ``items_per_s``: the workload's batch rate, items per round over the sum,
  over the round's kinds of operation, of the fastest repeat in any worker
  times the kind's repeats per round (``verify-default``: 18 checks over the
  fastest whole ``run_suite`` call, the time to 18/18);
* ``call_min_us``: the fastest of at least 1000 single-item library calls
  (``verify-default``: the suite's fastest check, run alone).

Rates and latencies use the fastest repeat because on a 2-vCPU Xeon virtual
machine on a shared host, neighbours' load was measured to slow a process by
up to 1.6x for seconds at a time, and at times for the whole of a process's
life, while it only ever adds time.  The fastest of many short repeats, over
three processes spread through the run, is the steady estimate of what the
code itself costs.  The medians and the p99 of the single calls, with their
counts, are printed on the lines before the result.

With ``--trace 1`` it reports every ``per_layer`` metric, per traced round;
see tracer.py.  A figure this commit cannot produce is printed as absent and
reported as 0.  Earlier output lines are for people: the environment, the
workload's sizes, each metric under the name it has in the workload's own
terms, and any failures.  The last line is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKERS = 3
MIN_CALLS = 1000
TIME_LIMIT_S = 170.0

class BenchError(Exception):
    """The benchmark cannot produce a result."""


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], required=True)
    p.add_argument("--smoke", action="store_true",
                   help="tiny inputs and one set-up probe (smoke test only)")
    return p.parse_args(argv)


def _child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def _worker(args, seconds: float, extra: list, deadline: float) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(seconds),
           "--trace", str(args.trace)] + extra + (["--smoke"] if args.smoke else [])
    try:
        proc = subprocess.run(cmd, env=_child_env(), cwd=str(ROOT), capture_output=True,
                              text=True, timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker did not finish in time: {' '.join(cmd)}") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}:\n{proc.stderr.strip()}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError("worker printed no result")
    return json.loads(lines[-1])


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def run(args) -> dict:
    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "rdmt" / "__init__.py").is_file():
        raise BenchError(f"no rdmt sources under {ROOT / 'src'}")
    spec = json.loads(spec_path.read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        raise BenchError(f"unknown workload {args.workload!r}")
    deadline = time.monotonic() + TIME_LIMIT_S
    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    extra = ["--workdir", str(workdir)]
    try:
        if args.trace:
            out_dir = ROOT / ".perfbench_out"
            out_dir.mkdir(exist_ok=True)
            extra += ["--trace-out", str(out_dir / f"trace-{args.workload}.json")]
            runs = [_worker(args, args.seconds, extra, deadline)]
        else:
            n = 2 if args.smoke else WORKERS
            extra += ["--min-calls", str(10 if args.smoke else -(-MIN_CALLS // n))]
            runs = [_worker(args, args.seconds / n, extra, deadline) for _ in range(n)]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass

    res = runs[0]
    print("# env " + json.dumps(res["env"], sort_keys=True))
    print(f"# workload {args.workload} seed {args.seed}: sizes "
          + json.dumps(res["sizes"], sort_keys=True))
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    notes = [note for r in runs for note in r["notes"]]
    # Every worker must reproduce the first one's outputs byte for byte.
    for r in runs[1:]:
        attempted += 1
        if r["digests"] != res["digests"]:
            failed += 1
            notes.append("outputs differ between worker processes at the same seed")
    if args.trace:
        values, absent = res["values"], []
        metrics = {}
        for m in spec["per_layer"]:
            if m["name"] not in values:
                absent.append(m["name"])
            metrics[m["name"]] = {"value": values.get(m["name"], 0.0), "unit": m["unit"]}
        print(f"# traced rounds: {res['rounds']}, each figure is per traced round")
        for name, m in metrics.items():
            print(f"{name} = {_fmt(m['value'])} {m['unit']}")
        if absent:
            print("# absent in this commit (reported as 0): " + ", ".join(absent))
    else:
        fastest_round = sum(min(r["op_min_s"][k] for r in runs if k in r["op_min_s"])
                            * per_round for k, per_round in res["op_per_round"].items())
        items = res["items_per_round"]
        rounds = [t for r in runs for t in r["round_s"]]
        calls = [t for r in runs for t in r["call_s"]]
        p99 = statistics.quantiles(calls, n=100, method="inclusive")[98]
        values = {
            "setup_s": statistics.median(r["setup_s"] for r in runs),
            "peak_rss_mb": max(r["peak_rss_mb"] for r in runs),
            "ok_ratio": (attempted - failed) / attempted,
            "items_per_s": items / fastest_round,
            "call_min_us": min(calls) * 1e6,
        }
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in spec["end_to_end"]}
        print(f"# items: {res['items_label']}; {len(rounds)} rounds in {len(runs)} "
              f"workers; rate at the median round {_fmt(items / statistics.median(rounds))}/s")
        print(f"# calls: {res['single_label']}; {len(calls)} calls: "
              f"p50 {_fmt(statistics.median(calls) * 1e6)} us, p99 {_fmt(p99 * 1e6)} us "
              f"({sum(c > p99 for c in calls)} beyond p99)")
        for name, m in metrics.items():
            alias = f"  ({res['rate_name']})" if name == "items_per_s" else ""
            print(f"{name} = {_fmt(m['value'])} {m['unit']}{alias}")
        if args.workload == "verify-default":
            print(f"verify_s = {_fmt(fastest_round)} s")
    print(f"fail_ratio = {_fmt(failed / attempted)} ({failed} of {attempted} operations)")
    for note in notes[:20]:
        print(f"# FAILED {note}")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main(argv=None) -> int:
    args = _parse(argv)
    try:
        result = run(args)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
