"""In-memory span tracer for the benchmark's traced run.

The tracer records spans from the benchmark's own code, around calls that
cross an rdmt module boundary; nothing inside rdmt is edited.  It finds every
function that one rdmt module holds from another (a module global, or a value
in a module-level dict such as the CLI's overlay table), and every rdmt
function the benchmark itself calls, by the function's ``__module__``, so a
rename inside a module needs no change here.  ``cli.main`` is wrapped too.
Classes are never wrapped; the two ``DivMatrix`` schema methods only get a
call counter.

A span is ``[name, parent index, start, end, round]``; spans of one benchmark
round share the round number.  Spans stay in memory; at the end of each
traced round they are folded into per-name totals (self time is a span's
duration minus the time its child spans cover), which bounds memory, and the
last round's spans are kept whole.  ``summary`` turns the totals into
per-layer figures and ``dump`` writes totals and spans out when the run ends.
"""

from __future__ import annotations

import functools
import json
import math
import sys
import time
import types
from collections import Counter

import numpy as np

# Algebra functions reported per kernel and per beta; every other algebra
# function is pooled into ``algebra.other``.
KERNELS = ("matmul", "cholesky", "solve_lower", "solve_upper", "invert_lower",
           "hpd_inverse", "singular_values", "eigvalsh")
BETAS = (1, 2, 4)
_KERNEL_ALIASES = {"hermitian_eigenvalues": "eigvalsh"}


def _kernel_of(name: str) -> str:
    name = name.strip("_")
    if name.endswith("_raw"):
        name = name[:-4]
    return _KERNEL_ALIASES.get(name, name)


def _coeffs(x):
    """The coefficient array of a DivMatrix, or x itself."""
    return x if isinstance(x, np.ndarray) else getattr(x, "data", x)


def _beta_of(args) -> int:
    for a in args:
        data = _coeffs(a)
        if isinstance(data, np.ndarray) and data.ndim:
            return int(data.shape[-1])
    return 0


def _points(args) -> int:
    """Points in one log-density call: a stacked (..., m, n, beta) array
    holds prod(leading axes) points, anything else is one point."""
    n = 1
    for a in args:
        if isinstance(a, np.ndarray) and a.ndim >= 4:
            n = max(n, math.prod(a.shape[:-3]))
    return n


def _count_points(counts, args, out):
    counts["logpdf.points"] += _points(args)


def _count_draws(counts, args, out):
    counts["sample.draws"] += (out.shape[0] if isinstance(out, np.ndarray)
                               and out.ndim else 1)


def _count_matmul_flop(counts, args, out):
    """Computed flop of one algebra matmul: 2 beta^2 real flop per entry
    product-accumulate (a Cayley-Dickson product is beta^2 multiplies and
    about as many adds), m k n products per matrix."""
    a, b = _coeffs(args[0]), _coeffs(args[1])
    beta, m, k, n = a.shape[-1], a.shape[-3], a.shape[-2], b.shape[-2]
    batch = math.prod(np.broadcast_shapes(a.shape[:-3], b.shape[:-3]))
    counts["matmul.flop"] += 2 * beta * beta * m * k * n * batch


def _classify(fn):
    """(span name or namer, counter) for one rdmt function."""
    layer = fn.__module__.rsplit(".", 1)[-1]
    name = fn.__name__
    if layer == "algebra":
        kernel = _kernel_of(name)
        if kernel not in KERNELS:
            return "algebra.other", None
        prefix = f"algebra.{kernel}.b"
        counter = _count_matmul_flop if kernel == "matmul" else None
        return (lambda args: prefix + str(_beta_of(args))), counter
    if layer == "distributions":
        if "logpdf" in name:
            return "distributions.logpdf", _count_points
        if name.startswith("sample"):
            return "distributions.sample", _count_draws
        return "distributions.other", None
    if layer == "spectral":
        if name.startswith("log_joint"):
            return "spectral.overlay", None
        return "spectral.extract", None
    return layer, None


def _is_rdmt_function(obj, home: str) -> bool:
    return (isinstance(obj, types.FunctionType)
            and obj.__module__.split(".")[0] == "rdmt"
            and obj.__module__ != home)


class Tracer:
    """Installs span wrappers over rdmt's cross-module calls and removes
    them again, so traced and untraced rounds can alternate in one process.

    ``namespaces`` are extra objects (such as the benchmark's own table of
    rdmt functions) whose rdmt functions are wrapped along with the modules.
    """

    def __init__(self, namespaces=()):
        self.spans: list = []        # the current round's spans
        self.last_round: list = []
        self.totals: dict = {}       # name -> [calls, total s, self s]
        self.counts: Counter = Counter()
        self.round = -1
        self.installed = False
        self._stack = [-1]
        self._wrappers: dict = {}
        self._patches: list = []   # (container, key, original, wrapper, setter)
        self.sources: set = set()  # what this commit lets the tracer see
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "rdmt" or n.startswith("rdmt."))]
        for mod in modules:
            self._scan(mod, mod.__name__)
        for ns in namespaces:
            self._scan(ns, "")
        cli = sys.modules.get("rdmt.cli")
        if cli is not None and isinstance(getattr(cli, "main", None),
                                          types.FunctionType):
            self._patch(cli, "main", cli.main, setattr)
        self._patch_schema_counters()

    # -- discovery ----------------------------------------------------------

    def _scan(self, ns, home: str) -> None:
        for key, obj in list(vars(ns).items()):
            if key.startswith("__"):
                continue
            if _is_rdmt_function(obj, home):
                self._patch(ns, key, obj, setattr)
            elif isinstance(obj, dict) and home:
                for k2, v2 in list(obj.items()):
                    if _is_rdmt_function(v2, home):
                        self._patch(obj, k2, v2, dict.__setitem__)

    def _patch(self, container, key, fn, setter) -> None:
        wrapper = self._wrappers.get(fn)
        if wrapper is None:
            namer, counter = _classify(fn)
            wrapper = self._wrap(fn, namer, counter)
            self._wrappers[fn] = wrapper
            if callable(namer):
                self.sources.add(f"algebra.{_kernel_of(fn.__name__)}")
            else:
                self.sources.add(namer)
        self._patches.append((container, key, fn, wrapper, setter))

    def _patch_schema_counters(self) -> None:
        algebra = sys.modules.get("rdmt.algebra")
        cls = getattr(algebra, "DivMatrix", None)
        if cls is None:
            return
        counts = self.counts
        for key in ("to_schema_dict", "from_schema_dict"):
            original = cls.__dict__.get(key)
            if original is None:
                continue
            is_classmethod = isinstance(original, classmethod)
            fn = original.__func__ if is_classmethod else original

            def counted(*args, _fn=fn, **kwargs):
                counts["schema_rows"] += 1
                return _fn(*args, **kwargs)

            wrapper = classmethod(counted) if is_classmethod else counted
            self._patches.append((cls, key, original, wrapper, setattr))
            self.sources.add("schema_rows")

    def _wrap(self, fn, namer, counter):
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [namer(args) if callable(namer) else namer, stack[-1],
                   0.0, 0.0, tracer.round]
            stack.append(len(spans))
            spans.append(rec)
            rec[2] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[3] = clock()
                stack.pop()
            if counter is not None:
                counter(counts, args, out)
            return out

        return traced

    # -- switching ----------------------------------------------------------

    def install(self) -> None:
        """Start a traced round."""
        self.round += 1
        for container, key, _, wrapper, setter in self._patches:
            setter(container, key, wrapper)
        self.installed = True

    def uninstall(self) -> None:
        """End the traced round: restore the originals and fold the round's
        spans into the totals, keeping only the last round's spans."""
        for container, key, original, _, setter in self._patches:
            setter(container, key, original)
        self.installed = False
        child = [0.0] * len(self.spans)
        for name, parent, t0, t1, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        for i, (name, _, t0, t1, _) in enumerate(self.spans):
            a = self.totals.setdefault(name, [0, 0.0, 0.0])
            a[0] += 1
            a[1] += t1 - t0
            a[2] += (t1 - t0) - child[i]
        self.last_round = list(self.spans)
        self.spans.clear()
        self._stack[1:] = []

    def count(self, key: str, value: float) -> None:
        if self.installed:
            self.counts[key] += value

    # -- results ------------------------------------------------------------

    def summary(self, rounds: int) -> dict:
        """Per-layer figures per traced round, keyed by the metric names of
        BENCHMARK.json.  A figure whose source this commit lacks is left out,
        so the caller can report it as absent."""
        agg = self.totals
        r = max(rounds, 1)
        src = self.sources

        def calls(name):
            return agg.get(name, (0, 0.0, 0.0))[0]

        def self_s(name):
            return agg.get(name, (0, 0.0, 0.0))[2]

        out: dict = {}
        if "cli" in src:
            out["cli.self_s"] = self_s("cli") / r
            out["cli.bytes_in"] = self.counts["cli.bytes_in"] / r
            out["cli.bytes_out"] = self.counts["cli.bytes_out"] / r
        if "schema_rows" in src:
            out["algebra.schema_rows"] = self.counts["schema_rows"] / r
        points = self.counts["logpdf.points"]
        if "distributions.logpdf" in src:
            n = calls("distributions.logpdf")
            out["distributions.logpdf.self_s"] = self_s("distributions.logpdf") / r
            out["distributions.logpdf.calls"] = n / r
            out["distributions.logpdf.points_per_call"] = points / n if n else 0.0
        if "special" in src:
            out["special.self_s"] = self_s("special") / r
            out["special.calls_per_point"] = (calls("special") / points
                                              if points else 0.0)
        if "distributions.sample" in src:
            n = calls("distributions.sample")
            out["distributions.sample.self_s"] = self_s("distributions.sample") / r
            out["distributions.sample.calls"] = n / r
            out["distributions.sample.draws_per_call"] = (
                self.counts["sample.draws"] / n if n else 0.0)
        if "spectral.extract" in src:
            out["spectral.extract.self_s"] = self_s("spectral.extract") / r
        if "spectral.overlay" in src:
            out["spectral.overlay.self_s"] = self_s("spectral.overlay") / r
            out["spectral.overlay.calls"] = calls("spectral.overlay") / r
        for kernel in KERNELS:
            if f"algebra.{kernel}" not in src:
                continue
            for beta in BETAS:
                name = f"algebra.{kernel}.b{beta}"
                out[f"{name}.self_s"] = self_s(name) / r
                out[f"{name}.calls"] = calls(name) / r
        if "algebra.other" in src:
            out["algebra.other.self_s"] = self_s("algebra.other") / r
        if "algebra.matmul" in src:
            flop = self.counts["matmul.flop"]
            busy = sum(v[2] for k, v in agg.items()
                       if k.startswith("algebra.matmul."))
            out["algebra.matmul.computed_flop"] = flop / r
            out["algebra.matmul.computed_gflop_per_s"] = (
                flop / busy / 1e9 if busy > 0 else 0.0)
        return out

    def dump(self, path, rounds: int) -> None:
        """Write the per-name totals and the spans of the last traced round."""
        doc = {
            "rounds": rounds,
            "totals": {k: {"calls": v[0], "total_s": v[1], "self_s": v[2]}
                       for k, v in sorted(self.totals.items())},
            "counts": dict(self.counts),
            "last_round_spans": [
                {"id": i, "name": n, "parent": p, "start": t0, "end": t1}
                for i, (n, p, t0, t1, _) in enumerate(self.last_round)],
        }
        with open(path, "w") as fh:
            json.dump(doc, fh)
