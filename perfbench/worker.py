"""One benchmark process: set up a workload, measure it, check its outputs.

run.py starts this script in a fresh interpreter for each measurement, so
set-up time includes importing rdmt and peak RSS belongs to one workload.
The last line of standard output is one JSON object for run.py, which
combines the results of several such processes.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S \\
        --trace 0|1 --workdir DIR [--trace-out FILE] [--min-calls K] [--smoke]

Untraced, the run repeats rounds of the workload's batch work until
--seconds have passed, with a chunk of timed single-item library calls after
each operation; the calls take the workload's `single_share` of the time.
Traced, it alternates untraced and traced rounds (the order flips every
pair), and reports per-layer figures per traced round.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time

clock = time.perf_counter


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--workdir", required=True)
    p.add_argument("--trace-out")
    p.add_argument("--min-calls", type=int, default=0,
                   help="make at least this many single calls")
    p.add_argument("--smoke", action="store_true",
                   help="tiny inputs, for the smoke test")
    return p.parse_args(argv)


def _measure(wl, tally, seconds, min_calls) -> dict:
    """Each kind of operation's fastest repeat and repeats per round, the
    round times, and the single-call times.

    A chunk of single calls follows every operation, so the calls spread
    over the whole run.  The last round starts only if it is expected to end
    nearer the deadline than not.
    """
    rounds, calls = [], []
    t_batch = t_single = 0.0
    chunk = 1
    step = 0.0
    deadline = clock() + seconds
    while clock() + 0.5 * step < deadline or not rounds:
        t_step = clock()
        t_round = 0.0
        for op in wl.operations():
            t0 = clock()
            op(tally)
            t_round += clock() - t0
            t0 = clock()
            calls.extend(wl.single_calls(chunk, tally))
            t_single += clock() - t0
            # Size the next chunk so single calls keep their share of the time.
            target = (t_batch + t_round) * wl.single_share / (1.0 - wl.single_share)
            chunk = max(1, int((target - t_single) * len(calls) / t_single))
        rounds.append(t_round)
        t_batch += t_round
        step = clock() - t_step
    if len(calls) < min_calls:
        calls.extend(wl.single_calls(min_calls - len(calls), tally))
    return {
        "op_min_s": {k: min(t) for k, t in wl.op_times.items()},
        "op_per_round": {k: len(t) / len(rounds) for k, t in wl.op_times.items()},
        "round_s": rounds,
        "call_s": calls,
        "items_per_round": wl.items_per_round,
    }


def _measure_traced(wl, tally, seconds, smoke, trace_out) -> dict:
    import tracer as tracing

    tracer = tracing.Tracer([wl.api])
    wl.tracer = tracer
    chunk = 10 if smoke else 200
    min_pairs = 1 if smoke else 3
    times = {False: [], True: []}
    check_results = []
    deadline = clock() + seconds
    pair = 0
    while clock() < deadline or len(times[True]) < min_pairs:
        for traced in ((False, True) if pair % 2 == 0 else (True, False)):
            if traced:
                tracer.install()
            t0 = clock()
            results = wl.batch_round(tally)
            wl.single_calls(chunk, tally)
            dt = clock() - t0
            if traced:
                tracer.uninstall()
            times[traced].append(dt)
            if results and not traced:
                check_results.extend(results)
        pair += 1
    rounds = len(times[True])
    values = tracer.summary(rounds)
    values["trace.overhead_ratio"] = (statistics.median(times[True])
                                      / statistics.median(times[False]))
    values.update(_verify_figures(wl.api.default_suite(), check_results))
    if trace_out:
        tracer.dump(trace_out, rounds)
    return {"values": values, "rounds": rounds}


def _verify_figures(suite, results) -> dict:
    """verify.<check>.s, the median CheckResult.wall_time_s of each check in
    the untraced rounds (0 when this workload runs no checks), and the mean
    attempts per check.  A commit whose results carry no wall time reports
    these as absent."""
    if results and not all(hasattr(c, "wall_time_s") for c in results):
        return {}
    by_name: dict = {}
    for c in results:
        by_name.setdefault(c.name, []).append(c.wall_time_s)
    out = {f"verify.{s.name}.s": statistics.median(by_name.get(s.name, [0.0]))
           for s in suite}
    out["verify.attempts_per_check"] = (
        statistics.fmean(c.attempts for c in results) if results else 0.0)
    return out


def _env() -> dict:
    import numpy
    import scipy

    cpu, llc = "", 0
    try:
        llc = max(os.sysconf("SC_LEVEL3_CACHE_SIZE"), 0)
    except (ValueError, OSError):
        pass
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                key, _, value = line.partition(":")
                if key.strip() == "model name" and not cpu:
                    cpu = value.strip()
                elif key.strip() == "cache size" and not llc:
                    llc = int(value.split()[0]) * 1024
    except OSError:
        pass
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "llc_bytes": llc,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
    }


def main(argv=None) -> int:
    t0 = clock()
    args = _parse(argv)
    import workloads   # imports rdmt, numpy and scipy: part of set-up

    wl = workloads.WORKLOADS[args.workload](args.seed, args.workdir, args.smoke)
    wl.setup()
    setup_s = clock() - t0
    tally = workloads.Tally()
    # The first round is untimed: it pays first-call costs and produces the
    # outputs that the checks read and every later repeat must reproduce.
    wl.batch_round(tally)
    wl.after_first_round(tally)
    wl.op_times.clear()
    if args.trace:
        result = _measure_traced(wl, tally, args.seconds, args.smoke, args.trace_out)
    else:
        result = _measure(wl, tally, args.seconds, args.min_calls)
    attempted, failed = tally.totals()
    result.update({
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "attempted": attempted,
        "failed": failed,
        "notes": tally.notes,
        "digests": wl.digests,
        "sizes": wl.sizes,
        "items_label": wl.items_label,
        "rate_name": wl.rate_name,
        "single_label": wl.single_label,
        "env": _env(),
    })
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
