"""The benchmark's workloads: seeded inputs, one timed round, single-item
library calls, and the checks on every output.

worker.py imports this module after its set-up clock has started, so the
import of rdmt (and of numpy and scipy through it) counts as set-up time,
as it does for a user.  The program sees only the generated inputs: a
parameter file, a points file, command-line values derived from the seed.

Each operation of a round (a CLI invocation, a library call, a whole
verify suite) is timed on its own in `op_times`, without the benchmark's own
hashing and checking.  Every operation is counted in a Tally.  It fails if
it raises, exits non-zero, produces output whose sha256 differs from the
first repeat at the same seed, or fails its output check.  An output check
runs once, on the first round's output; since every later repeat is
byte-identical to it, a failed check fails every operation of that kind.  A
reference call that a check needs and that raises fails the check.

Operations are kept short (tens of milliseconds where the work allows),
because the fastest repeat of a short operation is what stays steady on a
shared host; the price is the fixed cost of each command, whose share of a
round each workload's `why` in BENCHMARK.json states.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import os
import time
import types
from collections import Counter, defaultdict

import numpy as np

import rdmt
import rdmt.cli
import rdmt.spectral
import rdmt.verify
from rdmt import AlgebraTag, DivMatrix, HermitianPD, MatricTParams, RngStream, WishartParams

QUATERNION = AlgebraTag.QUATERNION


def library():
    """The rdmt functions the benchmark calls, in one table the tracer can
    wrap; classes are used directly."""
    return types.SimpleNamespace(
        cli_main=rdmt.cli.main,
        logpdf_matric_t=rdmt.logpdf_matric_t,
        sample_matric_t=rdmt.sample_matric_t,
        sample_wishart=rdmt.sample_wishart,
        empirical_spectrum=rdmt.empirical_spectrum,
        singular_values_batch=rdmt.spectral.singular_values_batch,
        default_suite=rdmt.verify.default_suite,
        run_suite=rdmt.verify.run_suite,
    )


class Tally:
    """Operations attempted and failed, by kind."""

    def __init__(self):
        self.attempted: Counter = Counter()
        self.failed: Counter = Counter()
        self.bad_output: set = set()
        self.notes: list = []

    def op(self, kind: str, ok: bool, what: str = "") -> None:
        self.attempted[kind] += 1
        if not ok:
            self.failed[kind] += 1
            self.note(f"{kind}: {what}")

    def output_failed(self, kind: str, what: str) -> None:
        self.bad_output.add(kind)
        self.note(f"{kind} output check: {what}")

    def note(self, text: str) -> None:
        if len(self.notes) < 20:
            self.notes.append(text)

    def totals(self) -> tuple:
        failed = sum(self.attempted[k] if k in self.bad_output else self.failed[k]
                     for k in self.attempted)
        return sum(self.attempted.values()), failed


def _sha256_file(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _sha256_array(a: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()


def _close(a, b, rtol: float) -> bool:
    """|a - b| <= rtol * max(1, |b|) elementwise, and both finite."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return (a.shape == b.shape and bool(np.all(np.isfinite(a)))
            and bool(np.all(np.abs(a - b) <= rtol * np.maximum(1.0, np.abs(b)))))


def _random_hpd(gen, tag: AlgebraTag, m: int) -> HermitianPD:
    """Well-conditioned seeded Hermitian positive definite matrix, G G* + c I."""
    g = DivMatrix(tag, gen.normal(size=(m, m, tag.beta)))
    a = rdmt.matmul(g, rdmt.conj_transpose(g)).data
    a = a + (0.5 + 0.5 * m) * DivMatrix.identity(tag, m).data
    return HermitianPD(DivMatrix(tag, 0.5 * (a + rdmt.conj_transpose(DivMatrix(tag, a)).data)))


def _matric_t_params(gen, tag: AlgebraTag, m: int, n: int, nu: float) -> MatricTParams:
    mu = DivMatrix(tag, gen.normal(size=(m, n, tag.beta)))
    return MatricTParams(tag, m, n, nu, mu, _random_hpd(gen, tag, m),
                         _random_hpd(gen, tag, n))


def _read_data_lines(path) -> list:
    """Non-comment lines after the header of a CLI output file."""
    with open(path) as fh:
        return [ln for ln in fh.read().splitlines() if ln and not ln.startswith("#")]


class Workload:
    """One workload.  `setup` builds the inputs; `operations` lists one
    round of the batch work, each operation a callable taking the Tally and
    timing itself into `op_times`; `single_calls(k)` makes k single-item
    library calls and returns each one's duration; `after_first_round`
    checks the first round's outputs and prepares the references the single
    calls use."""

    name = ""
    rate_name = ""      # the workload's own name for items_per_s
    sizes = {}          # input sizes, printed with the results
    items_label = ""    # what items_per_s counts
    single_label = ""   # what the single-item calls time
    single_share = 0.5  # share of the measured time spent on single calls

    def __init__(self, seed: int, workdir: str, smoke: bool):
        self.seed = seed
        self.workdir = workdir
        self.smoke = smoke
        self.api = library()
        self.tracer = None   # set by the traced run
        self.op_times = defaultdict(list)   # operation kind -> seconds per call
        self.digests: dict = {}   # output -> sha256 of its first repeat
        self.items_per_round = 0

    def path(self, name: str) -> str:
        return os.path.join(self.workdir, name)

    def setup(self) -> None:
        raise NotImplementedError

    def operations(self) -> list:
        raise NotImplementedError

    def batch_round(self, tally: Tally) -> list:
        """Run one round; returns the check results its operations give."""
        results = []
        for op in self.operations():
            results.extend(op(tally) or [])
        return results

    def after_first_round(self, tally: Tally) -> None:
        raise NotImplementedError

    def single_calls(self, k: int, tally: Tally) -> list:
        raise NotImplementedError

    # -- shared helpers -----------------------------------------------------

    def _same_as_first(self, key: str, digest: str) -> bool:
        return self.digests.setdefault(key, digest) == digest

    def _timed(self, kind: str, fn):
        """fn(), timed into op_times even when it raises."""
        t0 = time.perf_counter()
        try:
            return fn()
        finally:
            self.op_times[kind].append(time.perf_counter() - t0)

    def _cli(self, tally: Tally, kind: str, argv: list, inputs: list,
             outputs: list) -> None:
        """Run one CLI command in-process and check exit code and digests."""
        try:
            code = self._timed(kind, lambda: self.api.cli_main(argv))
        except Exception as exc:  # a crash counts as a failed operation
            tally.op(kind, False, repr(exc))
            return
        if code != 0:
            tally.op(kind, False, f"exit code {code}")
            return
        same = all(self._same_as_first(f"{kind}:{p}", _sha256_file(p)) for p in outputs)
        tally.op(kind, same, "output differs from the first repeat at the same seed")
        if self.tracer is not None:
            self.tracer.count("cli.bytes_in", sum(os.path.getsize(p) for p in inputs))
            self.tracer.count("cli.bytes_out", sum(os.path.getsize(p) for p in outputs))

    def _timed_singles(self, k, tally, kind, call, check) -> list:
        """k timed calls of call(i); check(i, result) -> (ok, what).  A call
        that raises is timed too, and fails."""
        times = []
        clock = time.perf_counter
        for _ in range(k):
            i = self._cursor
            self._cursor = (i + 1) % self._cycle
            t0 = clock()
            try:
                result = call(i)
            except Exception as exc:
                times.append(clock() - t0)
                tally.op(kind, False, repr(exc))
                continue
            times.append(clock() - t0)
            ok, what = check(i, result)
            tally.op(kind, ok, what)
        return times

    def _draw_singles(self, k, tally, kind, params, method) -> list:
        """Single draws; the stream restarts every cycle, so each cycle must
        reproduce the first one exactly."""
        def call(i):
            if i == 0:
                self._single_rng = RngStream(self.seed, 1)
            return self.api.sample_matric_t(self._single_rng, params, method).data

        def check(i, draw):
            if not np.all(np.isfinite(draw)):
                return False, f"non-finite single draw {i}"
            ref = self._first_cycle.setdefault(i, draw)
            return np.array_equal(ref, draw), f"single draw {i} differs between cycles"

        return self._timed_singles(k, tally, kind, call, check)


class DensityH2x3(Workload):
    name = "density-h2x3"
    rate_name = "density_points_per_s"
    items_label = "log densities evaluated by `rdmt density` (primal + dual) per second"
    single_label = "one single-point logpdf_matric_t call (primal)"

    def setup(self):
        n_points = 20 if self.smoke else 50
        self.sizes = {"beta": 4, "m": 2, "n": 3, "points": n_points,
                      "cli_evaluations_per_round": 2 * n_points}
        gen = np.random.default_rng([self.seed, 1])
        nu = 5.0 + 4.0 * gen.uniform()    # domain: nu > beta (m - 1) = 4
        self.params = _matric_t_params(gen, QUATERNION, 2, 3, nu)
        with open(self.path("params.json"), "w") as fh:
            json.dump(self.params.to_json_dict(), fh)
        raw = self.params.mu.data + gen.normal(size=(n_points, 2, 3, 4))
        with open(self.path("points.jsonl"), "w") as fh:
            for x in raw:
                fh.write(json.dumps({"beta": 4, "rows": 2, "cols": 3,
                                     "data": x.tolist()}) + "\n")
        self.points = [DivMatrix(QUATERNION, x) for x in raw]
        self.items_per_round = 2 * n_points
        self._cursor, self._cycle = 0, n_points

    def operations(self):
        return [functools.partial(self._density, form) for form in ("primal", "dual")]

    def _density(self, form, tally):
        out = self.path(f"logpdf-{form}.txt")
        self._cli(tally, f"cli-density-{form}",
                  ["density", "--dist", "matric-t",
                   "--params", self.path("params.json"),
                   "--points", self.path("points.jsonl"),
                   "--form", form, "--out", out],
                  [self.path("params.json"), self.path("points.jsonl")], [out])

    def after_first_round(self, tally):
        try:
            primal = np.array([float(v) for v in _read_data_lines(self.path("logpdf-primal.txt"))])
            dual = np.array([float(v) for v in _read_data_lines(self.path("logpdf-dual.txt"))])
        except (OSError, ValueError) as exc:
            tally.output_failed("cli-density-primal", repr(exc))
            tally.output_failed("cli-density-dual", repr(exc))
            self.cli_primal = [math.nan] * len(self.points)
            return
        n = len(self.points)
        if primal.shape != (n,) or dual.shape != (n,):
            tally.output_failed("cli-density-primal", f"expected {n} values")
            tally.output_failed("cli-density-dual", f"expected {n} values")
            self.cli_primal = [math.nan] * n
            return
        if not (np.all(np.isfinite(primal)) and np.all(np.abs(primal - dual) <= 1e-9)):
            tally.output_failed("cli-density-dual", "primal and dual differ by more than 1e-9")
        try:
            lib_dual = [self.api.logpdf_matric_t(self.params, p, "dual") for p in self.points]
        except Exception as exc:
            tally.output_failed("cli-density-dual", f"library dual raised {exc!r}")
        else:
            if not _close(dual, lib_dual, 1e-12):
                tally.output_failed("cli-density-dual", "CLI and library dual values differ")
        # The timed single-point calls check themselves against the CLI's
        # primal values.
        self.cli_primal = primal.tolist()

    def single_calls(self, k, tally):
        logpdf, params, points, ref = (self.api.logpdf_matric_t, self.params,
                                       self.points, self.cli_primal)

        def check(i, v):
            ok = abs(v - ref[i]) <= 1e-12 * max(1.0, abs(ref[i]))
            return ok, f"point {i}: library {v!r} vs CLI {ref[i]!r}"

        return self._timed_singles(k, tally, "logpdf-single",
                                   lambda i: logpdf(params, points[i], "primal"), check)


class SampleH2x3(Workload):
    name = "sample-h2x3"
    rate_name = "sample_draws_per_s"
    items_label = "draws written by `rdmt sample` (JSONL) per second"
    single_label = "one single-draw sample_matric_t call"

    def setup(self):
        count = 100 if self.smoke else 500
        self.sizes = {"beta": 4, "m": 2, "n": 3, "draws_per_round": count}
        gen = np.random.default_rng([self.seed, 2])
        nu = 5.0 + 4.0 * gen.uniform()
        self.params = _matric_t_params(gen, QUATERNION, 2, 3, nu)
        with open(self.path("params.json"), "w") as fh:
            json.dump(self.params.to_json_dict(), fh)
        self.count = count
        self.items_per_round = count
        self._cursor, self._cycle = 0, 100
        self._first_cycle = {}

    def operations(self):
        return [self._sample]

    def _sample(self, tally):
        out = self.path("samples.jsonl")
        self._cli(tally, "cli-sample",
                  ["sample", "--dist", "matric-t", "--params", self.path("params.json"),
                   "--count", str(self.count), "--seed", str(self.seed), "--out", out],
                  [self.path("params.json")], [out])

    def after_first_round(self, tally):
        try:
            lines = _read_data_lines(self.path("samples.jsonl"))
            header = json.loads(lines[0])
            parsed = np.array([json.loads(ln)["data"] for ln in lines[1:]], dtype=float)
        except (OSError, ValueError, KeyError, IndexError) as exc:
            tally.output_failed("cli-sample", repr(exc))
            return
        try:
            with open(self.path("params.json")) as fh:
                params = MatricTParams.from_json_dict(json.load(fh))
            expected = self.api.sample_matric_t(RngStream(self.seed, 0), params,
                                                size=self.count)
        except Exception as exc:
            tally.output_failed("cli-sample", f"library draws raised {exc!r}")
            return
        if header.get("record") != "run-info" or not np.array_equal(parsed, expected):
            tally.output_failed("cli-sample", "JSONL does not parse back bit-exact "
                                "to the library draws at the same seed")

    def single_calls(self, k, tally):
        return self._draw_singles(k, tally, "sample-single", self.params, "wishart_root")


class SpectrumH2x3(Workload):
    name = "spectrum-h2x3"
    rate_name = "spectrum_draws_per_s"
    items_label = ("draws reduced to spectra by `rdmt spectrum` per second, "
                   "one command in ten with --grid")
    single_label = "one single-matrix empirical_spectrum call"
    single_share = 0.2   # a round takes over a second; keep most time for it

    def setup(self):
        # A 100k-draw job with its overlay, run as fifty 2000-draw commands
        # of which the first draws the overlay: the overlay keeps its share
        # of the job, and each timed command stays short.
        jobs, count = (2, 250) if self.smoke else (50, 2000)
        self.sizes = {"beta": 4, "m": 2, "n": 3, "commands_per_round": jobs,
                      "draws_per_command": count, "draws_per_round": jobs * count,
                      "grid": "64x64 (2016 points below the diagonal), first command"}
        gen = np.random.default_rng([self.seed, 3])
        self.nu = 5.0 + 4.0 * gen.uniform()
        self.count = count
        self.job_seeds = [64 * self.seed + j for j in range(jobs)]
        self.items_per_round = jobs * count
        self._cursor, self._cycle = 0, min(count, 1000)

    @staticmethod
    def _kind(j: int) -> str:
        return "cli-spectrum-grid" if j == 0 else "cli-spectrum"

    def operations(self):
        return [functools.partial(self._spectrum, j) for j in range(len(self.job_seeds))]

    def _spectrum(self, j, tally):
        out, grid = self.path(f"sv-{j}.csv"), self.path("sv_grid.csv")
        self._cli(tally, self._kind(j),
                  ["spectrum", "--dist", "matric-t", "--beta", "4", "--m", "2",
                   "--n", "3", "--nu", repr(self.nu), "--count", str(self.count),
                   "--seed", str(self.job_seeds[j]), "--out", out]
                  + (["--grid", grid] if j == 0 else []),
                  [], [out, grid] if j == 0 else [out])

    def after_first_round(self, tally):
        params = MatricTParams(QUATERNION, 2, 3, self.nu)
        self.matrices = [DivMatrix.identity(QUATERNION, 2)] * self._cycle
        self.ref = np.full((self._cycle, 2), math.nan)
        for j, seed in enumerate(self.job_seeds):
            kind = self._kind(j)
            try:
                draws = self.api.sample_matric_t(RngStream(seed, 0), params,
                                                 size=self.count)
                ref = self.api.singular_values_batch(QUATERNION, draws)
            except Exception as exc:
                tally.output_failed(kind, f"library reference raised {exc!r}")
                continue
            if j == 0:
                self.matrices = [DivMatrix(QUATERNION, d) for d in draws[:self._cycle]]
                self.ref = ref[:self._cycle]
            try:
                lines = _read_data_lines(self.path(f"sv-{j}.csv"))
                vals = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
            except (OSError, ValueError) as exc:
                tally.output_failed(kind, repr(exc))
                continue
            if not _close(vals, ref, 1e-12):
                tally.output_failed(kind, f"spectrum CSV of command {j} differs from "
                                    "singular_values_batch by more than 1e-12")
        try:
            glines = _read_data_lines(self.path("sv_grid.csv"))
            logpdf = np.array([float(ln.split(",")[2]) for ln in glines[1:]])
        except (OSError, ValueError, IndexError) as exc:
            tally.output_failed("cli-spectrum-grid", repr(exc))
            return
        if logpdf.size != 64 * 63 // 2 or not np.all(np.isfinite(logpdf)):
            tally.output_failed("cli-spectrum-grid", "overlay grid is not 2016 finite values")

    def single_calls(self, k, tally):
        spectrum, mats, ref = self.api.empirical_spectrum, self.matrices, self.ref

        def check(i, s):
            return _close(s.values, ref[i], 1e-12), f"matrix {i}: spectrum differs"

        return self._timed_singles(k, tally, "spectrum-single",
                                   lambda i: spectrum(mats[i], "singular"), check)


class Kernels8x8(Workload):
    """Library-only 8x8 sampling and spectra for one beta; no I/O."""

    beta = 0
    draws = 0   # per call, so that each call takes about 5 ms at beta's cost
    items_label = ("draws per second over sample_matric_t (wishart_root and "
                   "inverse_root) and sample_wishart, spectra included")
    single_label = "one single-draw 8x8 sample_matric_t call"

    def setup(self):
        count = 20 if self.smoke else self.draws
        tag = AlgebraTag(self.beta)
        self.sizes = {"beta": self.beta, "m": 8, "n": 8, "draws_per_call": count,
                      "draws_per_round": 3 * count}
        gen = np.random.default_rng([self.seed, 4, self.beta])
        # nu > beta (n - 1) keeps the inverse-root construction in its domain
        # (nu > 28 at beta = 4), which also covers the law's nu > beta (m - 1).
        nu = 7.0 * self.beta + 1.5 + gen.uniform()
        self.tag = tag
        self.params = _matric_t_params(gen, tag, 8, 8, nu)
        self.wparams = WishartParams(tag, 8, nu, _random_hpd(gen, tag, 8))
        self.count = count
        self.items_per_round = 3 * count
        self._cursor, self._cycle = 0, 50
        self._first_cycle = {}
        self.out = {}

    def _op(self, tally, kind, fn) -> None:
        try:
            out = self._timed(kind, fn)
        except Exception as exc:
            tally.op(kind, False, repr(exc))
            out = None
        else:
            if out is not None:   # None: the draws it reads failed
                tally.op(kind, self._same_as_first(kind, _sha256_array(out)),
                         "output differs from the first repeat at the same seed")
        self.out[kind] = out

    def operations(self):
        api, p, n, seed = self.api, self.params, self.count, self.seed

        def svd(method):
            t = self.out[f"sample-{method}"]
            return None if t is None else api.singular_values_batch(self.tag, t)

        ops = [("sample-wishart-root", lambda: api.sample_matric_t(
                    RngStream(seed, 0), p, "wishart_root", size=n)),
               ("sample-inverse-root", lambda: api.sample_matric_t(
                    RngStream(seed, 1), p, "inverse_root", size=n)),
               ("sample-wishart", lambda: api.sample_wishart(
                    RngStream(seed, 2), self.wparams, "bartlett", size=n)),
               ("svd-wishart-root", lambda: svd("wishart-root")),
               ("svd-inverse-root", lambda: svd("inverse-root"))]
        return [functools.partial(self._op, kind=kind, fn=fn) for kind, fn in ops]

    def after_first_round(self, tally):
        shape = (self.count, 8, 8, self.beta)
        for kind in ("sample-wishart-root", "sample-inverse-root", "sample-wishart"):
            out = self.out.get(kind)
            if out is None or out.shape != shape or not np.all(np.isfinite(out)):
                tally.output_failed(kind, f"expected finite draws of shape {shape}")
        w = self.out.get("sample-wishart")
        if w is not None and not np.all(np.diagonal(w[..., 0], axis1=1, axis2=2) > 0):
            tally.output_failed("sample-wishart", "a Wishart draw has a non-positive diagonal")
        for kind in ("svd-wishart-root", "svd-inverse-root"):
            sv = self.out.get(kind)
            if (sv is None or sv.shape != (self.count, 8) or not np.all(sv > 0)
                    or not np.all(np.diff(sv, axis=1) <= 0)):
                tally.output_failed(kind, "singular values are not positive and descending")

    def single_calls(self, k, tally):
        return self._draw_singles(k, tally, "sample-single-8x8", self.params, "wishart_root")


class Kernels8x8B1(Kernels8x8):
    name, beta, draws = "kernels-8x8-b1", 1, 500
    rate_name = "kernel_draws_per_s.b1"


class Kernels8x8B2(Kernels8x8):
    name, beta, draws = "kernels-8x8-b2", 2, 125
    rate_name = "kernel_draws_per_s.b2"


class Kernels8x8B4(Kernels8x8):
    name, beta, draws = "kernels-8x8-b4", 4, 40
    rate_name = "kernel_draws_per_s.b4"


class VerifyDefault(Workload):
    name = "verify-default"
    rate_name = "checks_per_s"
    items_label = "verify checks completed per second (checks / time to 18/18)"
    single_label = "the suite's fastest check run alone (run_suite on one check)"
    single_share = 0.05   # a suite takes seconds; keep most of the time for it

    def setup(self):
        self.suite = self.api.default_suite()
        self.sizes = {"checks": len(self.suite)}
        self.items_per_round = len(self.suite)
        self._cursor, self._cycle = 0, 1
        self.checks = []

    def operations(self):
        return [self._suite]

    def _suite(self, tally) -> list:
        """One whole run_suite call, timed as one operation: the time to an
        18/18 PASS.  Returns the check results, which carry each check's own
        wall time for the per-layer figures."""
        try:
            report = self._timed("verify-suite", lambda: self.api.run_suite(
                self.suite, RngStream(self.seed)))
        except Exception as exc:
            tally.op("verify-suite", False, repr(exc))
            return []
        for c in report.checks:
            tally.op("verify-check", c.passed, f"{c.name} failed")
        digest = hashlib.sha256(report.to_json().encode()).hexdigest()
        tally.op("verify-suite",
                 len(report.checks) == len(self.suite)
                 and self._same_as_first("report", digest),
                 "report differs from the first repeat at the same seed")
        self.checks = report.checks
        return report.checks

    def after_first_round(self, tally):
        if not self.checks:
            tally.output_failed("verify-suite", "the first suite run gave no results")
            self.single = self.suite[:1]
            return
        fastest = min(self.checks, key=lambda c: c.wall_time_s).name
        self.single = [spec for spec in self.suite if spec.name == fastest]

    def single_calls(self, k, tally):
        run_suite, single, seed = self.api.run_suite, self.single, self.seed

        def check(i, report):
            digest = hashlib.sha256(report.to_json().encode()).hexdigest()
            return (report.overall_pass and self._same_as_first("single", digest),
                    f"{single[0].name} alone failed or changed between repeats")

        return self._timed_singles(k, tally, "verify-single",
                                   lambda i: run_suite(single, RngStream(seed)), check)


WORKLOADS = {cls.name: cls for cls in (DensityH2x3, SampleH2x3, SpectrumH2x3,
                                       Kernels8x8B1, Kernels8x8B2, Kernels8x8B4,
                                       VerifyDefault)}
