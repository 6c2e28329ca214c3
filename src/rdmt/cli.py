"""Command-line front door: sample generation, density evaluation, spectrum
extraction with analytic overlays, and the verification suite.

Exit codes: 0 success, 1 runtime failure (including a failed verify suite),
2 configuration/input error.  Every run writes a run-info record (version,
seed, resolved parameters) as its first output line so any output file can
be reproduced from its own header.  Outputs carry no timestamps: rerunning a
command with the same seed produces byte-identical files.

Each family is one row of the law table `distributions._FAMILIES`; this
module reads every family fact from the row or its record, never from a
family name.  The record is the one source of a family's parameters: a
flag fills the field of its name, the fields without a default need
theirs, and flags and a ``--params`` file take the same defaults.  A flag
the family does not read exits 2: ``--method`` unless its sampler takes a
``method``, ``--form`` unless its density takes a ``form``, ``--mix``
unless its record has ``weights``, and ``--m``, ``--n``, ``--nu`` or
``--rho`` unless its record has that field.  Flags are spelt in full.  A
record without ``m`` draws scalars, which have no spectrum.
The eigen spectrum of a Hermitian family is that of the draw; of any other
family it is that of the min(m, n) square gram.
One writer, ``_write``, sends every output and opens its file only once
every check has passed; each value is ``repr`` of a Python float (scalar
CSV rows included), so JSONL samples must be finite.
"""

from __future__ import annotations

import argparse
import functools
import inspect
import json
import math
import os
import sys
from contextlib import nullcontext

import numpy as np

from ._version import __version__
from .algebra import (
    _SCHEMA_KEYS,
    AlgebraTag,
    _gram_raw,
    _octonion_guard,
    _schema_data,
    _schema_template,
    _shift_index,
)
from .distributions import _FAMILIES, RngStream, _Family, _field_loaders
from .errors import DomainError, NotPositiveDefinite, OctonionMatrixError
from .spectral import eigenvalues_batch, singular_values_batch
from .verify import CheckSpec, default_suite, run_suite

_CONFIG_ERRORS = (
    ValueError, TypeError, KeyError, DomainError, NotPositiveDefinite,
    OctonionMatrixError, json.JSONDecodeError, FileNotFoundError, IsADirectoryError,
)

# Rows formatted per write, and points evaluated per density call: one
# block's text is all the writer holds, and one block's temporaries all
# that a density call does.
_BLOCK_ROWS = 4096

# Lines of a --points file parsed, checked and stacked at a time.
_BLOCK_LINES = 1024


class _CliError(Exception):
    """Configuration error carrying the message to print before exit 2."""


def _resolve_seed(args) -> int:
    if args.seed is not None:
        return int(args.seed)
    env = os.environ.get("RDMT_SEED")
    if env is not None:
        return int(env)
    raise _CliError("a seed is required: pass --seed or set RDMT_SEED")


def _run_info(seed, stream, params: dict) -> dict:
    return {
        "record": "run-info",
        "version": __version__,
        "seed": seed,
        "stream": stream,
        "params": params,
    }


def _csv_template(columns: int) -> str:
    return ",".join(["%r"] * columns)


def _write(path, info, template, rows, header=None, comment=True) -> None:
    """Write one output to path ('-' or None: stdout): the run-info line
    (behind '# ' when comment is true), the header line if one is given,
    then one ``template % row`` line per row of the float array rows, (N,)
    or (N, k).  Rows are formatted a block at a time."""
    head = ("# " if comment else "") + json.dumps(info, sort_keys=True) + "\n"
    if header is not None:
        head += header + "\n"
    line = template + "\n"
    with (nullcontext(sys.stdout) if path in (None, "-") else open(path, "w")) as out:
        out.write(head)
        for start in range(0, len(rows), _BLOCK_ROWS):
            block = rows[start:start + _BLOCK_ROWS]
            out.write(line * len(block) % tuple(block.ravel().tolist()))


def _parse_mix(text: str) -> dict:
    weights, scales = [], []
    try:
        for part in text.split(","):
            w, _, s = part.partition(":")
            weights.append(float(w))
            scales.append(float(s))
    except ValueError as exc:
        raise _CliError(f"--mix {text!r}: expected 'w:s,w:s,...', weight:scale "
                        f"pairs ({exc})") from exc
    return {"weights": tuple(weights), "scales": tuple(scales)}


# family flag -> what a family that does not read it lacks
_FAMILY_FLAGS = {
    "method": "has no construction method",
    "mix": "is not a scale mixture",
    "form": "has one density form",
}


@functools.cache
def _takes(entry, name: str) -> bool:
    """Whether a row's sampler, density or record (None: no such entry)
    takes the parameter `name`; each signature is read once."""
    return entry is not None and name in inspect.signature(entry).parameters


def _family(args, entry: str, command: str) -> _Family:
    """The row of --dist, refused unless it has a sampler or a density."""
    row = _FAMILIES.get(args.dist)
    if row is None or getattr(row, entry) is None:
        raise _CliError(f"unknown {command} family {args.dist!r}")
    return row


def _build_params(args, family: str):
    """Parameter record from --params JSON (if given) or from flags, each
    filling the field of its name; a flag the family does not read is
    refused first: one of `_FAMILY_FLAGS`, read by a sampler that takes a
    method, a density that takes a form and a record with weights, or one
    of --m, --n, --nu and --rho whose field the record lacks."""
    row = _FAMILIES[family]
    readers = {"method": (row.sampler, "method"), "mix": (row.record, "weights"),
               "form": (row.density, "form")}
    for flag, lack in _FAMILY_FLAGS.items():
        if getattr(args, flag, None) is not None and not _takes(*readers[flag]):
            raise _CliError(f"{family} {lack}; drop --{flag}")
    for flag in ("m", "n", "nu", "rho"):
        if getattr(args, flag) is not None and not _takes(row.record, flag):
            raise _CliError(f"{family} has no {flag} parameter; drop --{flag}")
    if getattr(args, "params", None):
        with open(args.params) as fh:
            return row.record.from_json_dict(json.load(fh))
    if args.beta is None:
        raise _CliError("--beta is required when no --params file is given")
    values = {}
    for name, _, has_default in _field_loaders(row.record):
        value = getattr(args, name, None)
        if value is not None:
            values[name] = value
        elif not has_default:
            raise _CliError(f"--{name} is required for family {family!r}")
    if getattr(args, "mix", None):
        values.update(_parse_mix(args.mix))
    return row.record(AlgebraTag(int(args.beta)), **values)


def _count(args) -> int:
    """--count of sample and spectrum, refused below 1 before any draw."""
    count = int(args.count)
    if count < 1:
        raise _CliError("--count must be positive")
    return count


def _draw(args, row: _Family, params, seed: int, count: int):
    """The draws of sample and spectrum, by the family's sampler; its own
    default method applies unless --method is given."""
    method = {"method": args.method} if args.method else {}
    return row.sampler(RngStream(seed, args.stream), params, size=count, **method)


def _params_dict(params, **flags) -> dict:
    """The run-info params: the record's JSON and the flags that are set."""
    return {**params.to_json_dict(),
            **{flag: value for flag, value in flags.items() if value is not None}}


def _cmd_sample(args) -> int:
    seed = _resolve_seed(args)
    row = _family(args, "sampler", "sample")
    params = _build_params(args, args.dist)
    count = _count(args)
    draws = _draw(args, row, params, seed, count)
    info = _run_info(seed, args.stream, _params_dict(
        params, method=args.method, count=count, format=args.format))
    if draws.ndim == 1:
        rows, columns, jsonl = draws, ["value"], '{"value": %r}'
    else:
        _, m, n, beta = draws.shape
        rows = draws.reshape(count, -1)
        columns = [f"r{i}c{j}k{k}" for i in range(m) for j in range(n)
                   for k in range(beta)]
        jsonl = _schema_template(beta, m, n)
    if args.format == "csv":
        _write(args.out, info, _csv_template(len(columns)), rows, ",".join(columns))
    else:
        # JSON has no inf or nan, and the schema reader refuses them
        finite = np.isfinite(rows.reshape(count, -1)).all(axis=1)
        if not finite.all():
            raise RuntimeError(f"{count - int(finite.sum())} of {count} draws are "
                               "not finite; JSONL holds finite values only "
                               "(--format csv writes inf and nan)")
        _write(args.out, info, jsonl, rows, comment=False)
    return 0


def _read_points(path) -> tuple:
    """The points of a --points JSONL file as one (N, rows, cols, beta) stack,
    with the line number of each.  Every line is its own JSON value and is
    read as `_schema_data` reads a matrix (finite data, the same shape and
    algebra as the first point); the first bad line's error names it.
    Run-info and blank lines are skipped.  Lines are parsed, checked and
    stacked `_BLOCK_LINES` at a time, so one block's parsed lines are all
    the reader holds besides the stack."""
    blocks, linenos, block = [], [], []
    with (nullcontext(sys.stdin) if path == "-" else open(path)) as fh:
        try:
            for lineno, line in enumerate(fh, start=1):
                line = line.strip()
                if line:
                    block.append((lineno, line))
                if len(block) == _BLOCK_LINES:
                    _read_block(block, blocks, linenos)
                    block = []
        except ValueError:
            # a line that cannot be decoded: the lines before it come first
            _read_block(block, blocks, linenos)
            raise
        _read_block(block, blocks, linenos)
    return (np.concatenate(blocks) if blocks else None), linenos


def _read_block(lines, blocks, linenos) -> None:
    """Parse one block of (lineno, text) lines of a --points file, one
    `json.loads` each, and stack its points (`_stack_points`).  A JSON error
    is raised once the lines before it are checked, so the file's first bad
    line is the one named."""
    points = []    # (lineno, text, value) of the point lines
    for lineno, text in lines:
        try:
            obj = json.loads(text)
        except _CONFIG_ERRORS as exc:
            _stack_points(points, blocks, linenos)
            raise _CliError(f"--points line {lineno}: {exc}") from exc
        if not (isinstance(obj, dict) and obj.get("record") == "run-info"):
            points.append((lineno, text, obj))
    _stack_points(points, blocks, linenos)


def _stack_points(points, blocks, linenos) -> None:
    """Append the stack of parsed point lines to `blocks` and their line
    numbers to `linenos`.  The file's first point is read by `_point`
    alone; the stack is then `_screened_stack`'s, or where the screen
    cannot tell, each line's `_point`, the first bad line raising."""
    if not points:
        return
    if blocks:
        first = blocks[0].shape[1:], linenos[0]
    else:
        lineno, _, obj = points[0]
        first = _point(lineno, obj, None).shape, lineno
    stack = _screened_stack(points, first[0])
    if stack is None:
        stack = np.stack([_point(lineno, obj, first) for lineno, _, obj in points])
    blocks.append(stack)
    linenos.extend(lineno for lineno, _, _ in points)


def _point(lineno, obj, first):
    """One line's point by `_schema_data`, the one reader of a matrix, of
    the shape of `first`, the (shape, lineno) of the file's first point
    (None: this is it); an error names the line."""
    try:
        _, data = _schema_data(obj)
        if first is not None and data.shape != first[0]:
            raise ValueError(f"point shape/algebra mismatch: (rows, cols, beta) = "
                             f"{data.shape}, line {first[1]} has {first[0]}")
    except _CONFIG_ERRORS as exc:
        raise _CliError(f"--points line {lineno}: {exc}") from exc
    return data


def _screened_stack(points, shape):
    """The stack of parsed point lines when a screen proves that `_point`
    reads each of them at the first point's shape (rows, cols, beta) with
    the same values; None when it cannot tell.  Each line's value must be a
    dict of exactly the schema keys with the first point's beta, rows and
    cols, and its text must hold the 8 quotes of those keys (so no string
    value) and neither true nor false (so no bool).  Then the lines' data
    convert to floats in one call, of shape (lines,) + shape, all finite."""
    rows, cols, beta = shape
    for _, text, obj in points:
        if not (type(obj) is dict and obj.keys() == _SCHEMA_KEYS
                and obj["beta"] == beta and obj["rows"] == rows and obj["cols"] == cols
                and text.count('"') == 8 and "true" not in text and "false" not in text):
            return None
    try:
        stack = np.array([obj["data"] for _, _, obj in points], dtype=float)
    except (TypeError, ValueError, OverflowError):
        return None
    if stack.shape != (len(points),) + shape or not np.isfinite(stack).all():
        return None
    return stack


def _cmd_density(args) -> int:
    row = _family(args, "density", "density")
    params = _build_params(args, args.dist)
    info = _run_info(None, None, _params_dict(params, form=args.form))
    stack, linenos = _read_points(args.points)
    if stack is None:
        # no point: a zero-length stack of the law's point shape still
        # builds the record's terms, so a record the law refuses is refused
        d = getattr(params, "dim", None)
        stack = np.empty((0,) + ((d, d) if d else (params.m, params.n)) + (params.tag.beta,))
    form = {"form": args.form} if args.form else {}
    values = np.empty(len(stack))
    # a block of points per call (an empty stack is one call); a point gives
    # the bits it has in any stack, so the values are the whole stack's
    for start in range(0, len(stack) or 1, _BLOCK_ROWS):
        try:
            values[start:start + _BLOCK_ROWS] = row.density(
                params, stack[start:start + _BLOCK_ROWS], **form)
        except _CONFIG_ERRORS as exc:
            # an error about the points carries the block index of the first
            # one at fault; any other is the record's (a law's domain)
            if getattr(exc, "index", None) is None:
                raise _CliError(str(exc)) from exc
            _shift_index(exc, start)
            raise _CliError(f"--points line {linenos[exc.index]}: {exc}") from exc
    _write(args.out, info, "%r", values)
    return 0


def _grid_rows(kind, params, vals, overlay):
    """(v1, ..., vm, logpdf) rows of the analytic overlay on a grid over the
    range of the sampled spectra vals: from half their 0.1% quantile (half
    their smallest positive value where that quantile is 0) to their 99.9%
    quantile, so the grid scales with the spectra."""
    m = vals.shape[1]
    lo = float(np.quantile(vals, 0.001))
    hi = float(np.quantile(vals, 0.999))
    lo = 0.5 * (lo if lo > 0.0 else float(vals[vals > 0.0].min(initial=hi)))
    if m == 1:
        points = np.linspace(lo, hi, 256)[:, None]
    else:
        # the ordered cone v1 > v2 of a 64 x 64 grid, row by row in v1
        grid = np.linspace(lo, hi, 64)
        v1, v2 = np.meshgrid(grid, grid, indexing="ij")
        below = v2 < v1
        points = np.stack([v1[below], v2[below]], axis=1)
    # the overlay is the standard law's; for a record with rho, sqrt(rho) T
    # follows it, so its singular values are sqrt(rho) d (Jacobian
    # rho^(m/2)) and its gram eigenvalues rho lambda (Jacobian rho^m); any
    # other record keeps scale 1.0 and log Jacobian 0.0
    rho = getattr(params, "rho", 1.0)
    power = 0.5 if kind == "singular" else 1.0
    scale, log_jacobian = rho ** power, m * power * math.log(rho)
    logpdf = overlay(params.tag, params.m, params.n, params.nu,
                     points * scale) + log_jacobian
    return np.column_stack([points, logpdf])


def _cmd_spectrum(args) -> int:
    seed = _resolve_seed(args)
    family = args.dist
    row = _family(args, "sampler", "spectrum")
    if not _takes(row.record, "m"):  # a record without m draws scalars
        raise _CliError(f"unknown spectrum family {family!r}")
    if args.params:
        raise _CliError("spectrum works on the standard families; use flags, "
                        "not --params")
    params = _build_params(args, family)
    count = _count(args)
    hermitian = row.hermitian
    kind = args.kind or ("eigen" if hermitian else "singular")
    if kind == "singular" and hermitian:
        raise _CliError(f"{family} samples are Hermitian; use --kind eigen")
    overlay = (row.overlays or {}).get(kind)
    if args.grid:
        if overlay is None:
            raise _CliError(f"no analytic overlay for {family}/{kind}")
        # every overlay family has min(m, n) values: those of the min(m, n)
        # square gram, or of a Hermitian draw of that side
        if min(params.m, params.n) > 2:
            raise _CliError("analytic grids are emitted for m <= 2 only")
    raw = _draw(args, row, params, seed, count)
    if kind == "singular":
        vals = singular_values_batch(params.tag, raw)
    else:
        if not hermitian:
            raw = _octonion_guard(_gram_raw, raw)
        vals = eigenvalues_batch(params.tag, raw)
    grid = _grid_rows(kind, params, vals, overlay) if args.grid else None
    info = _run_info(seed, args.stream, _params_dict(
        params, method=args.method, count=count, kind=kind))
    columns = [f"v{i + 1}" for i in range(vals.shape[1])]
    _write(args.out, info, _csv_template(len(columns)), vals, ",".join(columns))
    if args.grid:
        _write(args.grid, info, _csv_template(len(columns) + 1), grid,
               ",".join(columns + ["logpdf"]))
    return 0


def _cmd_verify(args) -> int:
    seed = _resolve_seed(args)
    if args.suite in (None, "default"):
        suite = default_suite()
    else:
        with open(args.suite) as fh:
            suite = [CheckSpec.from_json_dict(o) for o in json.load(fh)]
    rng = RngStream(seed, args.stream)
    info = _run_info(seed, args.stream, {"suite": args.suite or "default",
                                         "checks": len(suite)})
    print(json.dumps(info, sort_keys=True))

    def progress(result):
        flag = "PASS" if result.passed else "FAIL"
        print(f"{flag} {result.name}: statistic={result.statistic:.6g} "
              f"threshold={result.threshold:g} attempts={result.attempts} "
              f"({result.wall_time_s:.2f}s)")

    report = run_suite(suite, rng, progress=progress)
    print(f"overall: {'PASS' if report.overall_pass else 'FAIL'} "
          f"({len(report.checks)} checks, {report.total_wall_time_s:.1f}s)")
    if args.report:
        report.write(args.report)
    return 0 if report.overall_pass else 1


@functools.lru_cache(maxsize=None)
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parse_args leaves it
    as it was, and in-process callers of `main` run many commands.  No
    parser takes a prefix of a flag for the flag (`allow_abbrev=False`), so
    `sample --form` is not read as `--format`."""
    parser = argparse.ArgumentParser(
        prog="rdmt", allow_abbrev=False,
        description="Matricvariate / matrix multivariate T and beta II "
                    "distributions over the real normed division algebras.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p, draws=True):
        """The flags of a family command; those of the drawing ones too."""
        p.add_argument("--dist", required=True)
        p.add_argument("--beta", type=int, choices=[1, 2, 4, 8])
        p.add_argument("--m", type=int)
        p.add_argument("--n", type=int)
        p.add_argument("--nu", type=float)
        p.add_argument("--rho", type=float)
        p.add_argument("--params", help="JSON parameter file (overrides flags)")
        p.add_argument("--out", help="output path (default stdout)")
        if draws:
            p.add_argument("--seed", type=int,
                           help="RNG seed (falls back to RDMT_SEED)")
            p.add_argument("--stream", type=int, default=0)
            p.add_argument("--count", type=int, required=True)
            p.add_argument("--method", choices=["wishart_root", "inverse_root",
                                                "bartlett", "gram"])
            p.add_argument("--mix", help="elliptical mixture 'w:s,w:s,...'")

    p_sample = sub.add_parser("sample", allow_abbrev=False,
                              help="draw and write samples")
    common(p_sample)
    p_sample.add_argument("--format", choices=["jsonl", "csv"], default="jsonl")

    p_density = sub.add_parser("density", allow_abbrev=False,
                               help="evaluate log densities at points")
    common(p_density, draws=False)
    p_density.add_argument("--points", required=True,
                           help="JSONL file of matrices ('-' for stdin)")
    p_density.add_argument("--form", choices=["primal", "dual"])

    p_spectrum = sub.add_parser("spectrum", allow_abbrev=False,
                                help="sample and extract sorted spectra (CSV)")
    common(p_spectrum)
    p_spectrum.add_argument("--kind", choices=["singular", "eigen"])
    p_spectrum.add_argument("--grid", help="also write an analytic log-density grid")

    p_verify = sub.add_parser("verify", allow_abbrev=False,
                              help="run the verification suite")
    p_verify.add_argument("--suite", help="'default' or a JSON CheckSpec list")
    p_verify.add_argument("--seed", type=int)
    p_verify.add_argument("--stream", type=int, default=0)
    p_verify.add_argument("--report", help="write the JSON report here")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    commands = {
        "sample": _cmd_sample,
        "density": _cmd_density,
        "spectrum": _cmd_spectrum,
        "verify": _cmd_verify,
    }
    try:
        return commands[args.subcommand](args)
    except (_CliError, *_CONFIG_ERRORS) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # genuine runtime failure
        print(f"runtime error: {exc!r}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
