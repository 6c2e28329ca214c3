"""Run a fixed matrix of `rdmt` commands and write what each one produced.

    PYTHONPATH=src python tools/cli_outputs.py OUTDIR
    python tools/cli_outputs.py --compare OUT_A OUT_B

Every command runs in this process through `rdmt.cli.main`, the only part
of rdmt this file uses, so the same file runs on an older source tree too.
Command NAME leaves OUTDIR/NAME/ holding its output files (`out`, and
`grid` for spectrum overlays), its exit code (`exit`), and its stdout and
stderr; the timings that `verify` prints are masked, and OUTDIR reads
"OUTDIR" in argv and stdout, so every file is deterministic.
The parameter and point files the commands read are built here from numpy
alone and written to OUTDIR/inputs/.

Run it once against each of two source trees and compare with
`diff -r OUT_A OUT_B`: an empty diff means the two trees write the same
bytes, exit codes and messages for every command below.  `--compare OUT_A
OUT_B` says by how much they differ: for each file whose bytes differ, how
many of its numbers moved and the largest relative move |a - b| / max(|a|,
|b|), or that its text around the numbers differs; it exits 1 when any file
differs and 0 when none does.

The matrix covers `sample` for every family at beta 1, 2, 4 and, where
legal, 1x1 beta = 8, with each construction method and both formats, plus
5x6 matric-t (both methods) and 6x5 matrix-mt with random scales from
--params, whose stacked triangular solves have orders 5 and 6;
`density` for all four families in the standard form and in a scaled form
read from --params (matric-t in both its primal and dual form), and for
both beta II laws, standard and scaled (by a random, a graded and a tiny
scale), at points on and near the edges of the cone and of the doubles
(`edge-points-b*`); `spectrum`
for each family and kind, with --grid where an overlay exists, and tall
(m > n) singular grids of matric-t and matrix-mt;
`verify --seed 11 --report` on the default suite and on small suite files
(entries with partial params, with and without a kind, and ones the suite
table refuses); and family-specific flags given to families that do not read
them.  A few commands that must fail are included too, so their exit codes
and messages are compared as well.  The last additions read --params files
that give only the keys without a default (gamma without rho, beta II
without an orientation, wide and tall), files that are refused (a wrong
orientation, no nu, a Sigma that is not positive definite, a JSON list),
and a --mix that is not weight:scale pairs.  Then come elliptical-t records
that its sampler cannot draw (files with a fractional nu or weights summing
to 0.9, and flags with beta = 8, whose m x (n + nu) block is never 1x1), and
--m, --n or --nu given to a family whose record has no such field.
Last come flags spelt short, `sample --form csv` and `density --point`,
which argparse would read as `--format` and `--points` if it took prefixes.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import re
import sys
import warnings

import numpy as np

BETAS = (1, 2, 4)
COUNT = "40"
LARGE_COUNT = "6"    # draws of the 5x6 and 6x5 samples

# name -> a verify suite file: only "name" is required, the other fields
# override the check's row, and the last two are refused
SUITES = {
    "partial-params": [{"name": "construction-equivalence-beta4",
                        "params": {"beta": 4}, "budget": 2000}],
    "kind-omitted": [{"name": "gamma-ratio-identity"},
                     {"name": "scalar-law-cauchy", "budget": 5000}],
    "kind-matching": [{"name": "scalar-law-cauchy", "kind": "ks1", "budget": 5000,
                       "threshold": 0.005}],
    "kind-wrong": [{"name": "scalar-law-cauchy", "kind": "identity",
                    "threshold": 0.005}],
    "unknown-param": [{"name": "normalization-scalar-beta2", "params": {"Nu": 7.0}}],
}

# name -> a params file: the first three name only the keys without a
# default (gamma's rho is 1, the beta II orientation comes from the shape),
# and the others are refused, naming the key or saying what the file lacks
MINIMAL_PARAMS = {
    "gamma-minimal": {"beta": 2, "nu": 2.5},
    "beta2-minimal-2x3": {"beta": 2, "m": 2, "n": 3, "nu": 9.0},
    "beta2-minimal-3x2": {"beta": 2, "m": 3, "n": 2, "nu": 9.0},
    "beta2-wrong-orientation": {"beta": 2, "m": 3, "n": 2, "nu": 9.0,
                                "orientation": "gram"},
    "matric-t-no-nu": {"beta": 1, "m": 2, "n": 3},
    "matric-t-non-pd-sigma": {"beta": 1, "m": 1, "n": 2, "nu": 9.0,
                              "Sigma": {"beta": 1, "rows": 2, "cols": 2,
                                        "data": [[[1.0], [2.0]], [[2.0], [1.0]]]}},
    "matric-t-list": [{"beta": 1, "m": 2, "n": 3, "nu": 9.0}],
    "elliptical-t-fractional-nu": {"beta": 1, "m": 2, "n": 3, "nu": 2.5},
    "elliptical-t-weights-0.9": {"beta": 1, "m": 2, "n": 3, "nu": 4.0,
                                 "weights": [0.5, 0.4], "scales": [1.0, 3.0]},
}


def _conj(c: np.ndarray) -> np.ndarray:
    return c * np.array([1.0] + [-1.0] * (c.shape[-1] - 1))


def _hermitian(gen, beta: int, d: int, diag: float) -> np.ndarray:
    """A d x d Hermitian coefficient array: the given real diagonal plus
    random off-diagonal entries, mirrored as conjugates."""
    a = np.zeros((d, d, beta))
    for i in range(d):
        a[i, i, 0] = diag
        for j in range(i):
            a[i, j] = 0.3 * gen.standard_normal(beta)
            a[j, i] = _conj(a[i, j])
    return a


def _schema(a: np.ndarray) -> dict:
    rows, cols, beta = a.shape
    return {"beta": beta, "rows": rows, "cols": cols, "data": a.tolist()}


def _write_jsonl(path: str, points) -> str:
    with open(path, "w") as fh:
        for p in points:
            fh.write(json.dumps(_schema(p)) + "\n")
    return path


def _inputs(root: str) -> dict:
    """name -> path of the parameter and point files, seeded and built from
    numpy alone so both trees read the same bytes."""
    os.makedirs(root, exist_ok=True)
    gen = np.random.default_rng(20261018)
    files = {}
    for beta in BETAS + (8,):
        m, n = (1, 1) if beta == 8 else (2, 3)
        files[f"t-points-b{beta}"] = _write_jsonl(
            os.path.join(root, f"t-points-b{beta}.jsonl"),
            [gen.standard_normal((m, n, beta)) for _ in range(12)])
        # Hermitian points inside the cone (diagonal 2), and across it
        # (diagonal 0.05 with off-diagonal entries can leave it)
        for dim in {1, 2} if beta != 8 else {1}:
            pts = [_hermitian(gen, beta, dim, 2.0) for _ in range(8)]
            pts += [_hermitian(gen, beta, dim, 0.05) for _ in range(4)]
            files[f"f-points-b{beta}-d{dim}"] = _write_jsonl(
                os.path.join(root, f"f-points-b{beta}-d{dim}.jsonl"), pts)
        records = {
            "matric-t": {"family": "matric-t", "m": m, "n": n, "nu": 9.0,
                         "mu": _schema(0.5 * gen.standard_normal((m, n, beta))),
                         "Xi": _schema(_hermitian(gen, beta, m, 1.5)),
                         "Sigma": _schema(_hermitian(gen, beta, n, 1.5))},
            "matrix-mt": {"family": "matrix-mt", "m": m, "n": n, "nu": 3.5,
                          "rho": 0.7,
                          "mu": _schema(0.5 * gen.standard_normal((m, n, beta))),
                          "Delta": _schema(_hermitian(gen, beta, m, 1.5)),
                          "Lambda": _schema(_hermitian(gen, beta, n, 1.5))},
            "beta2": {"family": "beta2", "m": m, "n": n, "nu": 9.0,
                      "orientation": "gram",
                      "scale": _schema(_hermitian(gen, beta, m, 1.5))},
        }
        for family, record in records.items():
            path = os.path.join(root, f"params-{family}-b{beta}.json")
            with open(path, "w") as fh:
                json.dump(dict(record, beta=beta), fh)
            files[f"params-{family}-b{beta}"] = path
    # records of order 5 and 6, from their own generator so that the
    # files above keep their bytes; diagonal 4 keeps the scales positive
    # definite at beta = 4
    gen = np.random.default_rng(20261019)
    for beta in BETAS:
        records = {
            "matric-t-5x6": {"family": "matric-t", "m": 5, "n": 6, "nu": 21.0,
                             "mu": _schema(0.5 * gen.standard_normal((5, 6, beta))),
                             "Xi": _schema(_hermitian(gen, beta, 5, 4.0)),
                             "Sigma": _schema(_hermitian(gen, beta, 6, 4.0))},
            "matrix-mt-6x5": {"family": "matrix-mt", "m": 6, "n": 5, "nu": 3.5,
                              "rho": 0.7,
                              "mu": _schema(0.5 * gen.standard_normal((6, 5, beta))),
                              "Delta": _schema(_hermitian(gen, beta, 6, 4.0)),
                              "Lambda": _schema(_hermitian(gen, beta, 5, 4.0))},
        }
        for name, record in records.items():
            path = os.path.join(root, f"params-{name}-b{beta}.json")
            with open(path, "w") as fh:
                json.dump(dict(record, beta=beta), fh)
            files[f"params-{name}-b{beta}"] = path
    # beta II points at the edges of the cone and of the doubles, written
    # out whole: inside, on the boundary, outside, tiny positive definite
    # and tiny indefinite points, graded ones, and points of size 1e+-150,
    # 1e+-300, 1e70 and 1e-77; and records whose scale is graded,
    # diag(1, 1e-4), or tiny, 1e-250 I
    base = np.array([[3.0, 0.5], [0.5, 1.0]])
    edges = [base, np.diag([1.0, 0.0]), np.diag([1.0, -0.5]), np.diag([0.0, 1e-14]),
             np.diag([2e-12, 1.1e-12]), np.diag([2e-12, 0.9e-12]),
             np.diag([2e-13, 1e-13]), np.diag([1e-13, -5e-14]),
             np.diag([1.0, -5e-14]), np.diag([1.0, 1e-9]), np.diag([1e-9, 1.0])]
    edges += [size * base for size in (1e-300, 1e-150, 1e150, 1e300, 1e70, 1e-77)]
    for beta in BETAS:
        pts = [np.zeros((2, 2, beta)) for _ in edges]
        for p, real in zip(pts, edges):
            p[..., 0] = real
        files[f"edge-points-b{beta}"] = _write_jsonl(
            os.path.join(root, f"edge-points-b{beta}.jsonl"), pts)
        for name, scale in (("graded", np.diag([1.0, 1e-4])), ("tiny", 1e-250 * np.eye(2))):
            coeffs = np.zeros((2, 2, beta))
            coeffs[..., 0] = scale
            path = os.path.join(root, f"params-beta2-{name}-b{beta}.json")
            with open(path, "w") as fh:
                json.dump({"family": "beta2", "beta": beta, "m": 2, "n": 3, "nu": 9.0,
                           "orientation": "gram", "scale": _schema(coeffs)}, fh)
            files[f"params-beta2-{name}-b{beta}"] = path
    # params files that name every key without a default and no more, or
    # that the record refuses; written out whole, so no generator moves
    for name, record in MINIMAL_PARAMS.items():
        path = os.path.join(root, f"params-{name}.json")
        with open(path, "w") as fh:
            json.dump(record, fh)
        files[f"params-{name}"] = path
    for name, suite in SUITES.items():
        path = os.path.join(root, f"suite-{name}.json")
        with open(path, "w") as fh:
            json.dump(suite, fh)
        files[f"suite-{name}"] = path
    return files


def _commands(files: dict) -> list:
    """(name, argv) of every command; '{out}' and '{grid}' stand for the
    command's own output paths."""
    cmds = []
    seed = ["--seed", "7", "--count", COUNT, "--out", "{out}"]

    def shape(beta, m=2, n=3, family=""):
        """--beta and the shape flags the family takes; 1x1 at beta = 8."""
        m, n = (1, 1) if beta == 8 else (m, n)
        flags = {"gamma": [], "wishart": ["--m", str(m)]}
        return ["--beta", str(beta)] + flags.get(family, ["--m", str(m), "--n", str(n)])

    variants = [
        ("matric-t-wishart_root", ["--dist", "matric-t", "--nu", "9",
                                   "--method", "wishart_root"]),
        ("matric-t-inverse_root", ["--dist", "matric-t", "--nu", "9",
                                   "--method", "inverse_root"]),
        ("matric-t-default", ["--dist", "matric-t", "--nu", "9"]),
        ("matrix-mt", ["--dist", "matrix-mt", "--nu", "3.5", "--rho", "0.7"]),
        ("wishart-bartlett", ["--dist", "wishart", "--nu", "9",
                              "--method", "bartlett"]),
        ("wishart-gram", ["--dist", "wishart", "--nu", "9", "--method", "gram"]),
        ("gamma", ["--dist", "gamma", "--nu", "2.5", "--rho", "0.7"]),
        ("gaussian", ["--dist", "gaussian"]),
        ("beta2-matric-gram", ["--dist", "beta2-matric", "--nu", "9"]),
        ("elliptical-t", ["--dist", "elliptical-t", "--nu", "4",
                          "--mix", "0.5:1,0.5:3"]),
    ]
    for beta in BETAS + (8,):
        for label, argv in variants:
            if beta == 8 and label in ("wishart-gram", "elliptical-t"):
                continue    # both draw a 1 x k Gaussian block, k > 1
            dims = shape(beta, family=argv[1])
            for fmt in ("jsonl", "csv"):
                cmds.append((f"sample-{label}-b{beta}-{fmt}",
                             ["sample"] + argv + dims + seed + ["--format", fmt]))
        if beta != 8:
            cmds.append((f"sample-beta2-matric-cogram-b{beta}-jsonl",
                         ["sample", "--dist", "beta2-matric", "--nu", "9"]
                         + shape(beta, 3, 2) + seed))
    large = ["--seed", "7", "--count", LARGE_COUNT, "--out", "{out}"]
    for beta in BETAS:
        for method in ("wishart_root", "inverse_root"):
            cmds.append((f"sample-matric-t-5x6-params-{method}-b{beta}",
                         ["sample", "--dist", "matric-t", "--method", method,
                          "--params", files[f"params-matric-t-5x6-b{beta}"]] + large))
        cmds.append((f"sample-matrix-mt-6x5-params-b{beta}",
                     ["sample", "--dist", "matrix-mt",
                      "--params", files[f"params-matrix-mt-6x5-b{beta}"]] + large))

    for beta in BETAS + (8,):
        dims = shape(beta)
        t_points = ["--points", files[f"t-points-b{beta}"], "--out", "{out}"]
        for form in ("primal", "dual"):
            cmds.append((f"density-matric-t-b{beta}-{form}",
                         ["density", "--dist", "matric-t", "--nu", "9", "--form", form]
                         + dims + t_points))
            cmds.append((f"density-matric-t-params-b{beta}-{form}",
                         ["density", "--dist", "matric-t", "--form", form, "--params",
                          files[f"params-matric-t-b{beta}"]] + t_points))
        cmds.append((f"density-matrix-mt-b{beta}",
                     ["density", "--dist", "matrix-mt", "--nu", "3.5", "--rho", "0.7"]
                     + dims + t_points))
        cmds.append((f"density-matrix-mt-params-b{beta}",
                     ["density", "--dist", "matrix-mt", "--params",
                      files[f"params-matrix-mt-b{beta}"]] + t_points))
        for family in ("beta2-matric", "beta2-mv"):
            dim = 1 if beta == 8 else 2
            f_points = ["--points", files[f"f-points-b{beta}-d{dim}"], "--out", "{out}"]
            orients = [("gram", shape(beta))]
            if beta != 8:
                orients.append(("cogram", shape(beta, 3, 2)))
            for orient, odims in orients:
                cmds.append((f"density-{family}-{orient}-b{beta}",
                             ["density", "--dist", family, "--nu", "9"]
                             + odims + f_points))
            cmds.append((f"density-{family}-params-b{beta}",
                         ["density", "--dist", family, "--params",
                          files[f"params-beta2-b{beta}"]] + f_points))

    for beta in BETAS:
        e_points = ["--points", files[f"edge-points-b{beta}"], "--out", "{out}"]
        for family in ("beta2-matric", "beta2-mv"):
            cmds.append((f"density-{family}-edges-b{beta}",
                         ["density", "--dist", family, "--nu", "9"] + shape(beta)
                         + e_points))
            for record in ("", "graded-", "tiny-"):
                cmds.append((f"density-{family}-edges-params-{record}b{beta}",
                             ["density", "--dist", family, "--params",
                              files[f"params-beta2-{record}b{beta}"]] + e_points))

    spectra = [
        ("matric-t", "singular", True, ["--nu", "9"]),
        ("matric-t", "eigen", True, ["--nu", "9"]),
        ("matric-t-inverse_root", "singular", True,
         ["--nu", "9", "--method", "inverse_root"]),
        ("matrix-mt", "singular", True, ["--nu", "3.5", "--rho", "0.7"]),
        ("matrix-mt", "eigen", True, ["--nu", "3.5", "--rho", "0.7"]),
        ("elliptical-t", "singular", True, ["--nu", "4", "--mix", "0.5:1,0.5:3"]),
        ("beta2-matric", "eigen", True, ["--nu", "9"]),
        ("wishart", "eigen", False, ["--nu", "9"]),
        ("gaussian", "singular", False, []),
        ("gaussian", "eigen", False, []),
    ]
    for beta in BETAS + (8,):
        for label, kind, grid, argv in spectra:
            family = label.split("-inverse")[0]
            dims = shape(beta, family=family)
            cmd = (["spectrum", "--dist", family, "--kind", kind] + argv + dims
                   + seed + (["--grid", "{grid}"] if grid else []))
            cmds.append((f"spectrum-{label}-{kind}-b{beta}", cmd))
    # tall T (m > n): the grid is the law of the wide transpose
    for beta in BETAS:
        for family, argv in (("matric-t", ["--nu", "9"]),
                             ("matrix-mt", ["--nu", "3.5", "--rho", "0.7"])):
            for m, n in ((2, 1), (3, 2)):
                cmds.append((f"spectrum-{family}-singular-{m}x{n}-b{beta}",
                             ["spectrum", "--dist", family, "--kind", "singular"]
                             + argv + shape(beta, m, n) + seed
                             + ["--grid", "{grid}"]))

    # commands that must fail, with their messages
    cmds += [
        ("fail-sample-octonion-2x2", ["sample", "--dist", "matric-t", "--beta", "8",
                                      "--m", "2", "--n", "2", "--nu", "9"] + seed),
        ("fail-sample-matric-t-unknown-method",
         ["sample", "--dist", "matric-t", "--beta", "1", "--m", "2", "--n", "3",
          "--nu", "9", "--method", "gram"] + seed),
        ("fail-sample-gaussian-method", ["sample", "--dist", "gaussian", "--beta", "1",
                                         "--m", "2", "--n", "3", "--method", "gram"]
         + seed),
        ("fail-spectrum-gaussian-method",
         ["spectrum", "--dist", "gaussian", "--beta", "1", "--m", "2", "--n", "3",
          "--method", "gram"] + seed),
        ("fail-sample-gamma-underflow", ["sample", "--dist", "gamma", "--beta", "1",
                                         "--nu", "0.001"] + seed),
        ("fail-sample-matrix-mt-underflow",
         ["sample", "--dist", "matrix-mt", "--beta", "1", "--m", "1", "--n", "2",
          "--nu", "0.001"] + seed),
        ("fail-density-octonion-1x2", ["density", "--dist", "matric-t", "--beta", "8",
                                       "--m", "1", "--n", "2", "--nu", "9", "--points",
                                       files["t-points-b1"], "--out", "{out}"]),
        ("fail-density-matrix-mt-form",
         ["density", "--dist", "matrix-mt", "--nu", "3.5", "--form", "dual"]
         + shape(1) + ["--points", files["t-points-b1"], "--out", "{out}"]),
        ("fail-sample-matric-t-rho", ["sample", "--dist", "matric-t", "--nu", "9",
                                      "--rho", "5"] + shape(1) + seed),
        ("fail-sample-gaussian-mix", ["sample", "--dist", "gaussian",
                                      "--mix", "0.5:1,0.5:3"] + shape(1) + seed),
        ("fail-spectrum-elliptical-t-tall",
         ["spectrum", "--dist", "elliptical-t", "--nu", "4", "--mix", "0.5:1,0.5:3",
          "--kind", "singular"] + shape(1, 3, 2) + seed + ["--grid", "{grid}"]),
        ("fail-spectrum-matrix-mt-mix",
         ["spectrum", "--dist", "matrix-mt", "--nu", "3.5", "--mix", "0.5:1,0.5:3"]
         + shape(1) + seed),
    ]
    # minimal params files, and ones that are refused
    cmds.append(("sample-gamma-params-minimal",
                 ["sample", "--dist", "gamma", "--params",
                  files["params-gamma-minimal"]] + seed))
    for dims in ("2x3", "3x2"):
        cmds.append((f"sample-beta2-matric-params-minimal-{dims}",
                     ["sample", "--dist", "beta2-matric", "--params",
                      files[f"params-beta2-minimal-{dims}"]] + seed))
    for family in ("beta2-matric", "beta2-mv"):
        cmds.append((f"density-{family}-params-minimal-3x2",
                     ["density", "--dist", family, "--params",
                      files["params-beta2-minimal-3x2"], "--points",
                      files["f-points-b2-d2"], "--out", "{out}"]))
    for name in ("beta2-wrong-orientation", "matric-t-no-nu",
                 "matric-t-non-pd-sigma", "matric-t-list",
                 "elliptical-t-fractional-nu", "elliptical-t-weights-0.9"):
        family = {"beta2": "beta2-matric", "matric": "matric-t",
                  "elliptical": "elliptical-t"}[name.split("-")[0]]
        cmds.append((f"fail-sample-params-{name}",
                     ["sample", "--dist", family, "--params",
                      files[f"params-{name}"]] + seed))
    cmds.append(("fail-sample-elliptical-t-mix-one-number",
                 ["sample", "--dist", "elliptical-t", "--nu", "4", "--mix", "0.5"]
                 + shape(1) + seed))
    cmds.append(("fail-sample-elliptical-t-octonion",
                 ["sample", "--dist", "elliptical-t", "--nu", "4"] + shape(8) + seed))
    cmds.append(("verify-seed-11", ["verify", "--suite", "default", "--seed", "11",
                                    "--report", "{out}"]))
    for name in SUITES:
        cmds.append((f"verify-suite-{name}",
                     ["verify", "--suite", files[f"suite-{name}"], "--seed", "11",
                      "--report", "{out}"]))
    # a flag that fills no field of the family's record
    for label, argv in (("wishart-n", ["--dist", "wishart", "--nu", "9", "--m", "2",
                                       "--n", "7"]),
                        ("gamma-m", ["--dist", "gamma", "--nu", "2.5", "--m", "9"]),
                        ("gaussian-nu", ["--dist", "gaussian", "--m", "2", "--n", "3",
                                         "--nu", "4"])):
        cmds.append((f"fail-sample-{label}", ["sample", "--beta", "1"] + argv + seed))
    # a flag spelt short
    cmds += [
        ("fail-sample-form-csv", ["sample", "--dist", "matric-t", "--nu", "9"]
         + shape(1) + seed + ["--form", "csv"]),
        ("fail-density-point", ["density", "--dist", "matric-t", "--nu", "9"] + shape(1)
         + ["--point", files["t-points-b1"], "--out", "{out}"]),
    ]
    return cmds


def _run(outdir: str, name: str, argv: list) -> int:
    from rdmt import cli

    where = os.path.join(outdir, name)
    os.makedirs(where, exist_ok=True)
    paths = {"out": os.path.join(where, "out"), "grid": os.path.join(where, "grid")}
    argv = [a.format(**paths) for a in argv]
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr), \
            warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = cli.main(argv)
    text = re.sub(r"\d+\.\d+s\)", "<time>s)", stdout.getvalue())
    text = text.replace(outdir, "OUTDIR")
    # warnings without the source path they carry
    warned = "".join(f"{w.category.__name__}: {w.message}\n" for w in caught)
    for part, content in (("exit", f"{code}\n"), ("stdout", text),
                          ("stderr", warned + stderr.getvalue()),
                          ("argv", " ".join(["rdmt"] + [a.replace(outdir, "OUTDIR")
                                                        for a in argv]) + "\n")):
        with open(os.path.join(where, part), "w") as fh:
            fh.write(content)
    return code


# a decimal number standing alone: not part of a word or of "0.1.0"
_NUMBER = re.compile(r"(?<![\w.])[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?(?![\w.])")


def _moves(text_a: str, text_b: str):
    """(numbers, moved, largest relative move, line of it) between two texts
    that differ only in their numbers; None when the text around the numbers
    differs too."""
    skel_a, skel_b = _NUMBER.sub("#", text_a), _NUMBER.sub("#", text_b)
    if skel_a != skel_b:
        return None
    count, moved, worst, where = 0, 0, 0.0, 0
    for ma, mb in zip(_NUMBER.finditer(text_a), _NUMBER.finditer(text_b)):
        count += 1
        if ma.group() == mb.group():
            continue
        moved += 1
        x, y = float(ma.group()), float(mb.group())
        rel = abs(x - y) / max(abs(x), abs(y)) if x != y else 0.0
        if moved == 1 or rel > worst:
            worst, where = rel, ma.start()
    return count, moved, worst, text_a.count("\n", 0, where) + 1


def compare(out_a: str, out_b: str) -> int:
    """Print how the files of two output trees differ; 1 if any does."""
    def files(root):
        return {os.path.relpath(os.path.join(d, f), root)
                for d, _, names in os.walk(root) for f in names}

    in_a, in_b = files(out_a), files(out_b)
    differ = 0
    for rel in sorted(in_a | in_b):
        if rel not in in_a or rel not in in_b:
            print(f"{rel}: only in {out_a if rel in in_a else out_b}")
            differ += 1
            continue
        with open(os.path.join(out_a, rel)) as fa, open(os.path.join(out_b, rel)) as fb:
            text_a, text_b = fa.read(), fb.read()
        if text_a == text_b:
            continue
        differ += 1
        found = _moves(text_a, text_b)
        if found is None:
            print(f"{rel}: text differs beyond its numbers")
            continue
        count, moved, worst, line = found
        print(f"{rel}: {moved} of {count} values moved, largest relative move "
              f"{worst:.3g} (line {line})")
    print(f"{differ} of {len(in_a | in_b)} files differ")
    return 1 if differ else 0


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) == 3 and args[0] == "--compare":
        return compare(args[1], args[2])
    if len(args) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    outdir = os.path.abspath(args[0])
    files = _inputs(os.path.join(outdir, "inputs"))
    codes = {}
    for name, argv_ in _commands(files):
        code = _run(outdir, name, argv_)
        codes[code] = codes.get(code, 0) + 1
    summary = ", ".join(f"{n} exit {c}" for c, n in sorted(codes.items()))
    print(f"{sum(codes.values())} commands: {summary}; outputs in {outdir}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
