"""Verification harness: quadrature normalization, Kolmogorov-Smirnov and
moment checks, construction-equivalence and invariance experiments, and
machine-readable report generation.

The default suite is the package's acceptance gate: every closed-form
constant is integrated against an independent quadrature, every sampler is
tested against either an analytic CDF or an alternative construction of the
same law, and the two known printed-variant formula errors are demonstrated
quantitatively (see ERRATA.md).

Statistical policy: KS checks use a per-check p-threshold of 0.005 and at
most ~20 KS statistics run per suite; a stochastic check that fails is rerun
once on an independent derived stream and only a double failure fails the
suite.  A correct implementation therefore passes with probability well
above 0.9 while genuine distributional errors at the tested sample sizes
drive p far below threshold.

Quadrature: every integrand of a library density takes a whole set of
nodes at once, so each batch is one density call on an (N, 1, 1, beta)
stack (`_scalar_logpdf`) or on an (N, m) array of spectra.

* `_quad`: adaptive 21-point Gauss-Kronrod on `scipy.integrate.cubature`
  (no node on an endpoint; an infinite limit is mapped onto (0, 1]).  It
  serves `quadrature_mass_positive` (normalization-scalar-beta2, the cogram
  masses of printed-variant-evidence) and the singular-value masses of
  printed-variant-evidence.
* `_cumulative_cdf`: one elementwise `scipy.integrate.tanhsinh` call over
  all the pieces of a CDF grid (scalar-law-mt-quadrature-cdf,
  spectrum-vs-closed-form).
* `quadrature_mass_row`: QUADPACK `quad`, node by node, on the closed-form
  radial densities (normalization-scalar-t).
* `quadrature_mass_eig2`: QUADPACK `dblquad` over the ordered cone
  (normalization-eig-2d).

The first three keep the same gates (`_converged`): a finite value, a
converged status, and an error estimate of at most max(1e-8, 1e-6 |value|),
for each piece; a failed gate raises RuntimeError, which the check records.
`quadrature_mass_eig2` requires a finite value and an error of at most 1e-5.

scipy is imported where it is called, and once by ``run_suite`` before its
first check's clock starts, so that importing this module (as ``rdmt`` and
``rdmt.cli`` do) does not load scipy for the commands that never verify.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from ._version import __version__
from .algebra import (
    AlgebraTag,
    DivMatrix,
    HermitianPD,
    _gram_raw,
    _identity_raw,
)
from .distributions import (
    BetaIIParams,
    EllipticalTParams,
    MatricTParams,
    MatrixMTParams,
    RngStream,
    WishartParams,
    _cast,
    logpdf_beta2_matric,
    logpdf_beta2_multivariate,
    logpdf_matric_t,
    logpdf_matrix_mt,
    radial_logpdf_matric_t,
    radial_logpdf_matrix_mt,
    sample_beta2_matric,
    sample_elliptical_t,
    sample_matric_t,
    sample_matrix_mt,
    sample_wishart,
)
from .spectral import (
    eigenvalues_batch,
    log_joint_eig_beta2,
    log_joint_eig_mv,
    log_joint_sv_matric_t,
    singular_values_batch,
)
from .special import log_gamma, log_gamma_ratio_identity_gap

__all__ = [
    "ks_one_sample",
    "ks_two_sample",
    "moment_check",
    "MomentResult",
    "quadrature_mass_scalar",
    "quadrature_mass_row",
    "quadrature_mass_positive",
    "quadrature_mass_eig2",
    "CheckSpec",
    "CheckResult",
    "VerifyReport",
    "default_suite",
    "run_suite",
]

_LOG_PI = math.log(math.pi)
_LOG_2 = math.log(2.0)


# ---------------------------------------------------------------------------
# Kolmogorov-Smirnov machinery.
# ---------------------------------------------------------------------------


def _check_sorted(x: np.ndarray, name: str) -> None:
    if np.any(np.diff(x) < 0.0):
        raise ValueError(f"{name} must be sorted ascending")


def ks_one_sample(samples, cdf) -> tuple:
    """One-sample KS test of sorted samples against a reference CDF.

    Returns (D, p) with D the sup-distance between the empirical CDF and the
    reference and p from the asymptotic Kolmogorov distribution at sqrt(N)*D.
    """
    from scipy.special import kolmogorov

    x = np.asarray(samples, dtype=float)
    n = x.size
    if n < 100:
        raise ValueError("need at least 100 samples")
    _check_sorted(x, "samples")
    try:
        f = np.asarray(cdf(x), dtype=float)
        if f.shape != x.shape:
            raise TypeError
    except TypeError:
        f = np.asarray([cdf(v) for v in x], dtype=float)
    i = np.arange(1, n + 1)
    d_plus = float((i / n - f).max())
    d_minus = float((f - (i - 1) / n).max())
    d = max(d_plus, d_minus)
    return d, float(kolmogorov(math.sqrt(n) * d))


def ks_two_sample(a, b) -> tuple:
    """Two-sample KS test of two sorted samples.

    Returns (D, p) with the asymptotic p evaluated at sqrt(nm/(n+m)) * D.
    """
    from scipy.special import kolmogorov

    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    _check_sorted(a, "a")
    _check_sorted(b, "b")
    na, nb = a.size, b.size
    if min(na, nb) < 1:
        raise ValueError("empty sample")
    allv = np.concatenate([a, b])
    cdf_a = np.searchsorted(a, allv, side="right") / na
    cdf_b = np.searchsorted(b, allv, side="right") / nb
    d = float(np.abs(cdf_a - cdf_b).max())
    en = na * nb / (na + nb)
    return d, float(kolmogorov(math.sqrt(en) * d))


@dataclass(frozen=True)
class MomentResult:
    passed: bool
    z: float
    mean: float
    se: float


def moment_check(samples, expected: float, tol_se: float, estimator=None) -> MomentResult:
    """Compare the sample mean of a statistic against its expected value,
    in units of the Monte Carlo standard error."""
    if estimator is not None:
        vals = np.asarray([estimator(s) for s in samples], dtype=float)
    else:
        vals = np.asarray(samples, dtype=float)
    n = vals.size
    mean = float(vals.mean())
    se = float(vals.std(ddof=1) / math.sqrt(n))
    if se == 0.0:
        z = 0.0 if mean == expected else math.inf
    else:
        z = (mean - expected) / se
    return MomentResult(abs(z) <= tol_se, z, mean, se)


# ---------------------------------------------------------------------------
# Quadrature normalization.
# ---------------------------------------------------------------------------


def _converged(value, error, ok) -> None:
    """The gates every integral here passes: a finite value, a converged
    status, and an error estimate of at most max(1e-8, 1e-6 |value|), for
    each of an array of pieces; RuntimeError names the first that fails."""
    value, error = np.asarray(value, dtype=float), np.asarray(error, dtype=float)
    bad = ~(np.asarray(ok) & np.isfinite(value)
            & (error <= np.maximum(1e-8, 1e-6 * np.abs(value))))
    if bad.any():
        i = int(np.flatnonzero(bad)[0])
        where = f"quadrature piece {i}" if value.ndim else "quadrature"
        raise RuntimeError(f"{where} did not converge (value {value.flat[i]}, "
                           f"error estimate {error.flat[i]})")


def _quad(fn, lo, hi) -> float:
    """int_lo^hi fn(x) dx by adaptive 21-point Gauss-Kronrod, the rule family
    of QUADPACK, on `scipy.integrate.cubature`, to 1e-10.  `fn` takes an (N,)
    array of nodes and returns the (N,) integrand values; no node is an
    endpoint, and an infinite limit is mapped onto (0, 1]."""
    from scipy.integrate import cubature

    res = cubature(lambda x: fn(x[:, 0]), [lo], [hi], rule="gk21", rtol=1e-10,
                   atol=1e-10, max_subdivisions=300)
    val = float(res.estimate)
    _converged(val, float(res.error), res.status == "converged")
    return val


def quadrature_mass_row(log_density_radial, tag: AlgebraTag, n: int = 1) -> float:
    """Total mass of an isotropic density of a 1 x n algebra row matrix.

    The beta*n dimensional integral reduces radially against the surface
    area of the unit sphere (the volume of the m = 1 orthonormal-frame
    manifold), so one 1-D quadrature measures the normalizing constant:

        mass = int_0^inf  2 pi^(d/2)/Gamma(d/2) * r^(d-1) * pdf(r) dr

    with d = beta * n.  The radial densities are closed-form scalars of r,
    and their algebraic tails need QUADPACK's extrapolation: this is the one
    integral on `scipy.integrate.quad`, node by node, under `_quad`'s gates.
    """
    from scipy import integrate

    beta = AlgebraTag(tag).beta
    dim = beta * n
    log_surface = _LOG_2 + dim / 2.0 * _LOG_PI - log_gamma(dim / 2.0)

    def integrand(r: float) -> float:
        if r <= 0.0:
            return 0.0
        return math.exp(log_surface + (dim - 1) * math.log(r)
                        + log_density_radial(r))

    out = integrate.quad(integrand, 0.0, np.inf, epsabs=1e-10, epsrel=1e-10,
                         limit=300, full_output=1)
    _converged(out[0], out[1], len(out) <= 3)
    return out[0]


def quadrature_mass_scalar(log_density_radial, tag: AlgebraTag) -> float:
    """Mass of an isotropic scalar density over the algebra (beta real
    coefficients), by radial reduction."""
    return quadrature_mass_row(log_density_radial, tag, 1)


def quadrature_mass_positive(log_density) -> float:
    """Mass of a density on the positive half line; `log_density` maps an
    (N,) array of x > 0 to their (N,) log densities.

    Integrates in u with x = u^2, which removes the integrable endpoint
    singularity every beta type II scalar kernel can have at the origin.
    """
    return _quad(lambda u: np.exp(log_density(u * u) + np.log(2.0 * u)), 0.0, np.inf)


def quadrature_mass_eig2(log_joint2) -> float:
    """Mass of a two-point ordered-spectrum density over v1 > v2 > 0.

    `log_joint2(v1, v2)` evaluates the joint log density on the open cone.
    Integration runs over the ordered cone directly (inner variable up to the
    outer one), so the Vandermonde kink never crosses the domain interior.
    """
    from scipy import integrate

    def integrand(v2: float, v1: float) -> float:
        if v2 <= 0.0 or v2 >= v1:
            return 0.0
        return math.exp(log_joint2(v1, v2))

    val, err = integrate.dblquad(integrand, 0.0, np.inf, 0.0, lambda v1: v1,
                                 epsabs=1e-7, epsrel=1e-7)
    if not np.isfinite(val) or err > 1e-5:
        raise RuntimeError(f"2-D quadrature did not converge (error {err})")
    return val


# ---------------------------------------------------------------------------
# Check plumbing.
# ---------------------------------------------------------------------------

_STOCHASTIC_KINDS = ("ks1", "ks2", "moment")


def _cast_param(name: str, key: str, default, value):
    """`value` as the type of the row's `default` (`distributions._cast`),
    a refusal naming the check and the param."""
    try:
        return _cast(type(default), value)
    except ValueError as exc:
        raise ValueError(f"check {name!r} param {key!r} {exc}") from exc


def _whole_budget(name: str, value) -> int:
    """A given budget as an int (`_cast`, which refuses a bool and a
    non-integral number), refusing one below 1 too."""
    try:
        budget = _cast(int, value)
    except ValueError:
        budget = 0
    if budget < 1:
        raise ValueError(f"check {name!r} budget must be a whole number >= 1, "
                         f"got {value!r}")
    return budget


@dataclass(frozen=True)
class CheckSpec:
    """One named check of the suite table `_CHECKS`, whose row fixes its
    runner and kind.  Params, budget and threshold given here override the
    row's, each param cast to the type of the row's value; a name or param
    key that the table does not have, a bool for a number param, a
    non-integral value for an integer param, a non-list for a tuple param
    and a budget that is not a whole number >= 1 raise ValueError."""

    name: str
    params: dict = field(default_factory=dict)
    budget: int | None = None
    threshold: float | None = None
    kind: str = field(init=False)

    def __post_init__(self):
        if self.name not in _CHECKS:
            raise ValueError(f"unknown check name {self.name!r}")
        _, kind, params, budget, threshold = _CHECKS[self.name]
        unknown = sorted(set(self.params) - set(params))
        if unknown:
            raise ValueError(f"check {self.name!r} has no param {unknown[0]!r}; "
                             f"its params are {sorted(params)}")
        resolved = {
            "kind": kind,
            "params": {key: _cast_param(self.name, key, value,
                                        self.params.get(key, value))
                       for key, value in params.items()},
            "budget": budget if self.budget is None else _whole_budget(self.name,
                                                                        self.budget),
            "threshold": float(threshold if self.threshold is None else self.threshold),
        }
        for key, value in resolved.items():
            object.__setattr__(self, key, value)
        if kind in ("ks1", "ks2"):
            if not 0.0 < self.threshold < 1.0:
                raise ValueError("KS thresholds are p-values in (0, 1)")
        elif not self.threshold > 0.0:
            raise ValueError("threshold must be a positive tolerance")

    def to_json_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_json_dict(cls, obj: dict) -> "CheckSpec":
        """A suite-file entry: only "name" is required, and a "kind" must be
        the row's."""
        unknown = sorted(set(obj) - {"name", "kind", "params", "budget", "threshold"})
        if unknown:
            raise ValueError(f"unknown check spec key {unknown[0]!r}")
        spec = cls(str(obj["name"]), dict(obj.get("params") or {}),
                   obj.get("budget"), obj.get("threshold"))
        if obj.get("kind", spec.kind) != spec.kind:
            raise ValueError(f"check {spec.name!r} is of kind {spec.kind!r}, "
                             f"not {obj['kind']!r}")
        return spec


@dataclass
class CheckResult:
    name: str
    kind: str
    statistic: float
    threshold: float
    passed: bool
    attempts: int
    detail: dict
    wall_time_s: float

    def to_json_dict(self) -> dict:
        # Wall time deliberately stays out of the serialized form so that
        # reports from identical seeds compare byte-identical.
        return {
            "name": self.name,
            "kind": self.kind,
            "statistic": self.statistic,
            "threshold": self.threshold,
            "passed": self.passed,
            "attempts": self.attempts,
            "detail": self.detail,
        }


@dataclass
class VerifyReport:
    checks: list
    seed: int
    stream: int

    @property
    def overall_pass(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def total_wall_time_s(self) -> float:
        return sum(c.wall_time_s for c in self.checks)

    def to_json_dict(self) -> dict:
        return {
            "version": __version__,
            "seed": self.seed,
            "stream": self.stream,
            "overall_pass": self.overall_pass,
            "checks": [c.to_json_dict() for c in
                       sorted(self.checks, key=lambda c: c.name)],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2, sort_keys=True)

    def write(self, path) -> None:
        with open(path, "w") as fh:
            fh.write(self.to_json())
            fh.write("\n")


# ---------------------------------------------------------------------------
# Individual check runners.  Each returns (statistic, passed, detail).
# ---------------------------------------------------------------------------

# Reference (D, p) pairs for the KS implementations, computed once with an
# independent library oracle on fixed synthetic datasets (regenerated below
# at run time); the pair ordering matches _KS_REFERENCE_CASES.
_KS_REFERENCE_PAIRS = (
    (0.000500000000000056, 1.0),
    (0.0013988808952837715, 1.0),
    (0.06080987637998653, 0.04955316747499797),
    (0.053333333333333344, 0.5021045630694755),
    (0.0020000000000000018, 1.0),
)


def _ks_reference_cases():
    from scipy.special import ndtr, ndtri

    n = 1000
    yield "uniform-grid", ks_one_sample((np.arange(1, n + 1) - 0.5) / n, lambda v: v)
    m = 500
    q = ndtri((np.arange(1, m + 1) - 0.3) / (m + 0.4))
    yield "normal-quantiles", ks_one_sample(q, ndtr)
    yield "normal-shifted", ks_one_sample(q + 0.15, ndtr)
    a = (np.arange(1, 401) - 0.5) / 400
    b = ((np.arange(1, 601) - 0.5) / 600) ** 1.15
    yield "two-sample-warp", ks_two_sample(a, b)
    a = (np.arange(1, 301) - 0.5) / 300
    b = (np.arange(1, 501) - 0.5) / 500
    yield "two-sample-grids", ks_two_sample(a, b)


def _run_ks_reference(rng, budget, threshold):
    detail = {}
    worst = 0.0
    for (name, (d, p)), (d_ref, p_ref) in zip(_ks_reference_cases(),
                                              _KS_REFERENCE_PAIRS):
        gap = max(abs(d - d_ref), abs(p - p_ref))
        detail[name] = {"D": d, "p": p, "gap": gap}
        worst = max(worst, gap)
    return worst, worst < threshold, detail


def _run_gamma_ratio(rng, budget, threshold):
    gen = rng.generator
    worst = 0.0
    for _ in range(budget):
        tag = AlgebraTag(int(gen.choice([1, 2, 4, 8])))
        m = int(gen.integers(1, 6))
        n = int(gen.integers(1, 6))
        nu = (m - 1) + float(gen.uniform(0.25, 6.0))
        worst = max(worst, abs(log_gamma_ratio_identity_gap(tag, m, n, nu)))
    return worst, worst < threshold, {"draws": budget}


def _random_hpd(gen: np.random.Generator, tag: AlgebraTag, m: int) -> HermitianPD:
    g = gen.normal(size=(m, m, tag.beta))
    a = _gram_raw(g) + (0.5 + 0.5 * m) * _identity_raw(m, tag.beta)
    return HermitianPD(DivMatrix(tag, a))


def _run_form_equivalence(rng, budget, threshold):
    gen = rng.generator
    worst = 0.0
    for beta in (1, 2, 4):
        tag = AlgebraTag(beta)
        for _ in range(budget):
            m = int(gen.integers(1, 5))
            n = int(gen.integers(1, 5))
            nu = beta * (m - 1) + float(gen.uniform(0.5, 4.0))
            params = MatricTParams(
                tag, m, n, nu,
                DivMatrix(tag, gen.normal(size=(m, n, beta))),
                _random_hpd(gen, tag, m),
                _random_hpd(gen, tag, n),
            )
            point = DivMatrix(tag, gen.normal(size=(m, n, beta)))
            gap = abs(logpdf_matric_t(params, point, "primal")
                      - logpdf_matric_t(params, point, "dual"))
            worst = max(worst, gap)
    return worst, worst < threshold, {"points_per_beta": budget}


def _run_normalization_t(rng, budget, threshold, *, nu, rho):
    detail = {}
    worst = 0.0
    for beta in (1, 2, 4, 8):
        tag = AlgebraTag(beta)
        for n in (1, 2, 3):
            mass_t = quadrature_mass_row(
                lambda r: radial_logpdf_matric_t(tag, n, nu, r), tag, n)
            mass_mt = quadrature_mass_row(
                lambda r: radial_logpdf_matrix_mt(tag, n, nu, rho, r), tag, n)
            detail[f"matric-t-beta{beta}-n{n}"] = mass_t
            detail[f"matrix-mt-beta{beta}-n{n}"] = mass_mt
            worst = max(worst, abs(mass_t - 1.0), abs(mass_mt - 1.0))
    return worst, worst < threshold, detail


def _scalar_logpdf(evaluator, params):
    """x -> evaluator(params, stack): a 1x1 law's log density at every real
    scalar of the array x, evaluated once on the (N, 1, 1, beta) stack of the
    points x + 0 e1 + ... + 0 e_{beta-1}."""
    beta = params.tag.beta

    def log_density(x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        stack = np.zeros((x.size, 1, 1, beta))
        stack[:, 0, 0, 0] = x.ravel()
        return evaluator(params, stack).reshape(x.shape)

    return log_density


def _run_normalization_beta2(rng, budget, threshold, *, nu):
    detail = {}
    worst = 0.0
    for beta in (1, 2, 4, 8):
        tag = AlgebraTag(beta)
        for n in (1, 2, 3):
            params = BetaIIParams(tag, 1, n, nu)
            m1 = quadrature_mass_positive(
                _scalar_logpdf(logpdf_beta2_matric, params))
            m2 = quadrature_mass_positive(
                _scalar_logpdf(logpdf_beta2_multivariate, params))
            detail[f"matric-beta{beta}-n{n}"] = m1
            detail[f"mv-beta{beta}-n{n}"] = m2
            worst = max(worst, abs(m1 - 1.0), abs(m2 - 1.0))
    return worst, worst < threshold, detail


def _run_normalization_eig2d(rng, budget, threshold, *, beta, m, n, nu):
    tag = AlgebraTag(beta)
    mass_b2 = quadrature_mass_eig2(
        lambda l1, l2: log_joint_eig_beta2(tag, m, n, nu, [l1, l2]))
    mass_mv = quadrature_mass_eig2(
        lambda l1, l2: log_joint_eig_mv(tag, m, n, nu, [l1, l2]))
    detail = {"eig-beta2-mass": mass_b2, "eig-mv-mass": mass_mv}
    worst = max(abs(mass_b2 - 1.0), abs(mass_mv - 1.0))
    return worst, worst < threshold, detail


def _per_sv_ks2(tag: AlgebraTag, raw_a: np.ndarray, raw_b: np.ndarray):
    sa = singular_values_batch(tag, raw_a)
    sb = singular_values_batch(tag, raw_b)
    pmin, detail = 1.0, {}
    for i in range(sa.shape[1]):
        d, p = ks_two_sample(np.sort(sa[:, i]), np.sort(sb[:, i]))
        detail[f"sv{i + 1}"] = {"D": d, "p": p}
        pmin = min(pmin, p)
    return pmin, detail


def _run_construction_equivalence(rng, budget, threshold, *, beta, m, n, nu):
    tag = AlgebraTag(beta)
    params = MatricTParams(tag, m, n, nu)
    a = sample_matric_t(rng, params, "wishart_root", size=budget)
    b = sample_matric_t(rng, params, "inverse_root", size=budget)
    pmin, detail = _per_sv_ks2(tag, a, b)
    return pmin, pmin > threshold, detail


def _run_scalar_law_cauchy(rng, budget, threshold):
    t = sample_matric_t(rng, MatricTParams(AlgebraTag.REAL, 1, 1, 1.0),
                        size=budget)[:, 0, 0, 0]
    d, p = ks_one_sample(np.sort(t), lambda x: 0.5 + np.arctan(x) / math.pi)
    return p, p > threshold, {"D": d, "p": p}


def _run_scalar_law_beta_prime(rng, budget, threshold, *, nu):
    from scipy.special import betainc

    f = sample_beta2_matric(rng, BetaIIParams(AlgebraTag.REAL, 1, 1, nu),
                            size=budget)[:, 0, 0, 0]
    a_par, b_par = 0.5, nu / 2.0
    d, p = ks_one_sample(np.sort(f), lambda x: betainc(a_par, b_par, x / (1.0 + x)))
    return p, p > threshold, {"D": d, "p": p}


def _cumulative_cdf(pdf, lo: float, xs: np.ndarray, tol: float):
    """(CDF interpolator on the grid xs, total mass) of an unnormalized
    density on (lo, inf), integrated over (lo, xs[0]], each grid interval
    and [xs[-1], inf) by one elementwise tanh-sinh call over all the pieces,
    summed in that order.  `pdf` maps an array of points to the density at
    each; every piece passes `_quad`'s gates."""
    from scipy.integrate import tanhsinh
    from scipy.interpolate import PchipInterpolator

    res = tanhsinh(pdf, np.concatenate([[lo], xs]), np.concatenate([xs, [np.inf]]),
                   atol=tol, rtol=tol)
    _converged(res.integral, res.error, res.status == 0)
    cum = np.cumsum(res.integral[:-1])
    total = cum[-1] + res.integral[-1]
    return PchipInterpolator(xs, cum / total, extrapolate=False), total


def _run_scalar_law_mt_cdf(rng, budget, threshold, *, nu, rho):
    params = MatrixMTParams(AlgebraTag.REAL, 1, 1, nu, rho)
    t = np.sort(sample_matrix_mt(rng, params, size=budget)[:, 0, 0, 0])
    logpdf_scalar = _scalar_logpdf(logpdf_matrix_mt, params)
    qs = np.linspace(0.0, 1.0, 301)
    xs = np.unique(np.quantile(t, qs))
    xs = np.concatenate([[xs[0] - 1.0], xs, [xs[-1] + 1.0]])
    cdf, total = _cumulative_cdf(lambda x: np.exp(logpdf_scalar(x)), -np.inf,
                                 xs, 1e-11)
    inside = t[(t >= xs[0]) & (t <= xs[-1])]
    d, p = ks_one_sample(inside, cdf)
    return p, p > threshold, {"D": d, "p": p, "quadrature_total_mass": total}


def _run_wishart_construction(rng, budget, threshold, *, beta, m, nu):
    tag = AlgebraTag(beta)
    params = WishartParams(tag, m, nu)
    wa = sample_wishart(rng, params, "bartlett", size=budget)
    wb = sample_wishart(rng, params, "gram", size=budget)
    ta = np.sort(eigenvalues_batch(tag, wa)[:, 0])
    tb = np.sort(eigenvalues_batch(tag, wb)[:, 0])
    d, p = ks_two_sample(ta, tb)
    return p, p > threshold, {"D": d, "p": p}


def _run_wishart_mean(rng, budget, threshold, *, beta, m, nu):
    tag = AlgebraTag(beta)
    xi_raw = _identity_raw(m, tag.beta) * 1.5
    xi_raw[0, 1, 0] = xi_raw[1, 0, 0] = 0.4
    if tag.beta >= 2:
        xi_raw[0, 1, 1], xi_raw[1, 0, 1] = 0.3, -0.3
    xi = HermitianPD(DivMatrix(tag, xi_raw))
    params = WishartParams(tag, m, nu, xi)
    draws = sample_wishart(rng, params, "bartlett", size=budget)
    expected = nu * xi.mat.data
    mean = draws.mean(axis=0)
    se = draws.std(axis=0, ddof=1) / math.sqrt(budget)
    diff = mean - expected
    z = np.where(se > 1e-14, diff / np.where(se > 1e-14, se, 1.0), 0.0)
    exact_bad = np.any((se <= 1e-14) & (np.abs(diff) > 1e-10))
    worst = float(np.abs(z).max())
    passed = (worst <= threshold) and not exact_bad
    return worst, passed, {"max_abs_z": worst, "n": budget}


def _run_elliptical_invariance(rng, budget, threshold, *, beta, m, n, nu,
                               weights, scales):
    tag = AlgebraTag(beta)
    params = EllipticalTParams(tag, m, n, nu, weights, scales)
    a = sample_elliptical_t(rng, params, size=budget)
    b = sample_matric_t(rng, MatricTParams(tag, m, n, float(nu)), size=budget)
    pmin, detail = _per_sv_ks2(tag, a, b)
    return pmin, pmin > threshold, detail


def _printed_densities():
    """The (corrected, printed) log density pairs of ERRATA.md sections 1
    and 2, each on an (N,) array, at 1x1 real laws whose whole density is
    one scalar integral; each printed one is its corrected one plus the
    difference stated there:
    * the singular value of the standard T at nu = 1, whose printed
      coefficient pi^(beta m^2 + tau) adds (beta m^2/2) log pi = 0.5 log pi;
    * the cogram beta II law at (m, n, nu) = (2, 1, 3), whose printed
      bracket has one more factor |I + F|^-1, adding -log1p(x)."""
    def sv(x):
        return log_joint_sv_matric_t(AlgebraTag.REAL, 1, 1, 1.0, x[:, None])

    cogram = _scalar_logpdf(logpdf_beta2_matric, BetaIIParams(AlgebraTag.REAL, 2, 1, 3.0))
    return ((sv, lambda x: sv(x) + 0.5 * _LOG_PI),
            (cogram, lambda x: cogram(x) - np.log1p(x)))


def _run_printed_evidence(rng, budget, threshold):
    sv, cogram = _printed_densities()
    sv_corr, sv_printed = (_quad(lambda x: np.exp(f(x)), 0.0, np.inf) for f in sv)
    co_corr, co_printed = map(quadrature_mass_positive, cogram)
    detail = {
        "sv-coefficient": {"corrected_mass": sv_corr, "printed_mass": sv_printed},
        "cogram-exponent": {"corrected_mass": co_corr, "printed_mass": co_printed},
    }
    corrected_ok = max(abs(sv_corr - 1.0), abs(co_corr - 1.0)) < 1e-6
    stat = min(abs(sv_printed - 1.0), abs(co_printed - 1.0))
    return stat, corrected_ok and stat > threshold, detail


def _lmax_cdf_eig_beta2_m2(n: int, nu: float, xs: np.ndarray):
    """CDF of the largest eigenvalue of the two-point gram beta II spectrum
    at beta = 1, via the closed-form inner integral

        int_0^x l^p (1+l)^(-q) (x - l) dl = x I0(x) - I1(x),

    where each I_k is a regularized incomplete beta in l/(1+l).  The outer
    integral is 1-D quadrature; the normalizing constant cancels in the
    ratio, leaving a pure shape comparison against the sampled spectrum.
    """
    from scipy.special import betainc, betaln

    p = (n - 1) / 2.0 - 1.0
    q = (nu + n) / 2.0
    if q - (p + 2.0) <= 0.0:
        raise RuntimeError("tail too heavy for the closed-form reduction")

    def inc(k: int, t: np.ndarray) -> np.ndarray:
        a = p + k + 1.0
        return np.exp(betaln(a, q - a)) * betainc(a, q - a, t / (1.0 + t))

    def outer(x: np.ndarray) -> np.ndarray:
        return x ** p * (1.0 + x) ** (-q) * (x * inc(0, x) - inc(1, x))

    return _cumulative_cdf(outer, 0.0, xs, 1e-12)[0]


def _run_spectrum_closed_form(rng, budget, threshold, *, beta, m, n, nu):
    tag = AlgebraTag(beta)
    if tag.beta != 1 or m != 2:
        raise ValueError("the closed-form marginal is implemented for beta=1, m=2")
    t = sample_matric_t(rng, MatricTParams(tag, m, n, nu), size=budget)
    f = _gram_raw(t)
    lmax = np.sort(eigenvalues_batch(tag, f)[:, 0])
    qs = np.linspace(0.0, 1.0, 301)
    xs = np.unique(np.quantile(lmax, qs))
    xs = np.concatenate([[xs[0] * 0.5], xs, [xs[-1] * 1.5]])
    cdf = _lmax_cdf_eig_beta2_m2(n, nu, xs)
    inside = lmax[(lmax >= xs[0]) & (lmax <= xs[-1])]
    d, p = ks_one_sample(inside, cdf)
    return p, p > threshold, {"D": d, "p": p}


# name -> (runner, kind, params, budget, threshold), in suite order.  A
# CheckSpec resolves against its row; the runner is called as
# runner(rng, budget, threshold, **params) and returns (statistic, passed,
# detail).
_CHECKS = {
    "ks-reference-values": (_run_ks_reference, "identity", {}, 5, 1e-9),
    "gamma-ratio-identity": (_run_gamma_ratio, "identity", {}, 200, 1e-10),
    "matric-t-form-equivalence": (_run_form_equivalence, "identity", {}, 100, 1e-9),
    "normalization-scalar-t": (_run_normalization_t, "normalization",
                               {"nu": 2.5, "rho": 1.3}, None, 1e-6),
    "normalization-scalar-beta2": (_run_normalization_beta2, "normalization",
                                   {"nu": 2.0}, None, 1e-6),
    "normalization-eig-2d": (_run_normalization_eig2d, "normalization",
                             {"beta": 1, "m": 2, "n": 3, "nu": 3.0}, None, 1e-4),
    "construction-equivalence-beta1": (_run_construction_equivalence, "ks2",
                                       {"beta": 1, "m": 2, "n": 3, "nu": 5.0},
                                       20000, 0.005),
    "construction-equivalence-beta2": (_run_construction_equivalence, "ks2",
                                       {"beta": 2, "m": 2, "n": 3, "nu": 5.0},
                                       20000, 0.005),
    # nu must satisfy nu+n-m > beta*(n-1) for the inverse-root construction
    # to exist, which at beta = 4 forces nu > 7.
    "construction-equivalence-beta4": (_run_construction_equivalence, "ks2",
                                       {"beta": 4, "m": 2, "n": 3, "nu": 8.0},
                                       20000, 0.005),
    "scalar-law-cauchy": (_run_scalar_law_cauchy, "ks1", {}, 50000, 0.005),
    "scalar-law-beta-prime": (_run_scalar_law_beta_prime, "ks1", {"nu": 3.0},
                              50000, 0.005),
    "scalar-law-mt-quadrature-cdf": (_run_scalar_law_mt_cdf, "ks1",
                                     {"nu": 3.0, "rho": 2.0}, 50000, 0.005),
    "wishart-construction-equivalence": (_run_wishart_construction, "ks2",
                                         {"beta": 1, "m": 2, "nu": 6.0},
                                         20000, 0.005),
    "wishart-mean": (_run_wishart_mean, "moment", {"beta": 2, "m": 2, "nu": 5.0},
                     20000, 3.0),
    "elliptical-invariance-beta1": (_run_elliptical_invariance, "ks2",
                                    {"beta": 1, "m": 2, "n": 3, "nu": 4,
                                     "weights": (0.7, 0.3), "scales": (1.0, 3.0)},
                                    20000, 0.005),
    "elliptical-invariance-beta2": (_run_elliptical_invariance, "ks2",
                                    {"beta": 2, "m": 2, "n": 3, "nu": 4,
                                     "weights": (0.7, 0.3), "scales": (1.0, 3.0)},
                                    20000, 0.005),
    "printed-variant-evidence": (_run_printed_evidence, "normalization",
                                 {}, None, 0.10),
    "spectrum-vs-closed-form": (_run_spectrum_closed_form, "ks1",
                                {"beta": 1, "m": 2, "n": 3, "nu": 4.0}, 20000, 0.005),
}


def default_suite() -> list:
    """The default check list, every row of `_CHECKS` as it stands; together
    these are the acceptance criteria."""
    return [CheckSpec(name) for name in _CHECKS]


def _attempt(spec: CheckSpec, stream: RngStream) -> tuple:
    """(statistic, passed, detail) of one run of the check; an exception is
    recorded in the detail, not thrown."""
    try:
        return _CHECKS[spec.name][0](stream, spec.budget, spec.threshold, **spec.params)
    except Exception as exc:
        return math.nan, False, {"error": repr(exc)}


def run_suite(config, rng: RngStream, progress=None) -> VerifyReport:
    """Execute a list of CheckSpec deterministically.

    Each check receives its own stream derived from (suite seed, check
    index).  A stochastic check (ks1/ks2/moment) that fails its threshold is
    rerun once on a further derived stream and passes if either attempt
    passes; deterministic checks run once.  Individual check failures are
    recorded in the report, never thrown.
    """
    # The checks' scipy modules load here, outside every check's wall time.
    import scipy.integrate
    import scipy.interpolate
    import scipy.special

    results = []
    for idx, spec in enumerate(config):
        stream = rng.child(idx)
        start = time.perf_counter()
        stat, passed, detail = _attempt(spec, stream)
        attempts = 1
        if not passed and spec.kind in _STOCHASTIC_KINDS and "error" not in detail:
            stat2, passed2, detail2 = _attempt(spec, stream.child(1))
            attempts = 2
            detail = {"first_attempt": detail, "rerun": detail2,
                      "first_statistic": stat}
            if spec.kind == "moment":
                stat = min(stat, stat2)
            else:
                stat = max(stat, stat2) if np.isfinite(stat2) else stat
            passed = passed or passed2
        wall = time.perf_counter() - start
        result = CheckResult(spec.name, spec.kind, float(stat), spec.threshold,
                             bool(passed), attempts, detail, wall)
        results.append(result)
        if progress is not None:
            progress(result)
    return VerifyReport(results, rng.seed, rng.stream)
