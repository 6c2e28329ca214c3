"""Joint singular-value and eigenvalue log densities of the T and beta II
families, plus extraction of empirical spectra from sample streams.

The beta II law, `_coupling` and its kernel `_coupling_logpdf`, is here
once, and both the beta II densities and the four densities here read it.
The four are one core, `_log_joint`, over the ordered eigenvalues lambda of
the gram beta type II matrix, with two couplings: the determinant kernel
prod (1 + lambda_i) of the matricvariate laws and the trace kernel (1 + sum
lambda_i) of the matrix multivariate laws.  The singular values d of the T
matrix enter through lambda = d^2.  The core is batch-first: one spectrum
is the N = 1 case of an (N, m) array.

All densities are for the standard (identity-scale, zero-location) laws and
live on the open ordered cone v_1 > ... > v_m > 0.  The normalizing
coefficient carries pi^(beta m^2/2 + tau); a variant with pi^(beta m^2 + tau)
circulates in print but fails normalization, see ERRATA.md.  Only the
corrected formula is here: verify's printed-variant-evidence check builds
the printed one from it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .algebra import (
    AlgebraTag,
    HermitianPD,
    _eigvalsh_raw,
    _hermitian_part,
    _octonion_guard,
    _singular_values_raw,
    hermitian_eigenvalues,
    singular_values,
)
from .special import _wide, log_gamma, log_mvbeta, log_mvgamma, tau

__all__ = [
    "SpectrumSample",
    "log_joint_sv_matric_t",
    "log_joint_sv_matrix_mt",
    "log_joint_eig_beta2",
    "log_joint_eig_mv",
    "empirical_spectrum",
    "singular_values_batch",
    "eigenvalues_batch",
]

_LOG_PI = math.log(math.pi)
_LOG_2 = math.log(2.0)
TIE_RTOL = 1e-12


@dataclass(frozen=True)
class SpectrumSample:
    """Sorted positive spectrum of one sampled matrix.

    Values must be finite and descend strictly; a gap of at most 1e-12 times the largest
    value is a tie and is rejected (a measure-zero event that indicates an
    upstream problem rather than a legitimate sample), at every size of the
    values alike.
    """

    values: tuple
    kind: str

    def __post_init__(self):
        if self.kind not in ("singular", "eigen"):
            raise ValueError("kind must be 'singular' or 'eigen'")
        vals = tuple(float(v) for v in self.values)
        if not vals:
            raise ValueError("empty spectrum")
        if not all(map(math.isfinite, vals)):
            bad = next(v for v in vals if not math.isfinite(v))
            raise ValueError(f"spectrum values must be finite; got {bad}")
        if vals[-1] <= 0.0:
            raise ValueError("spectrum values must be strictly positive")
        tol = TIE_RTOL * abs(vals[0])
        for hi, lo in zip(vals, vals[1:]):
            if hi - lo <= tol:
                raise ValueError(
                    f"spectrum values must descend strictly; got tie {hi} ~ {lo}"
                )
        object.__setattr__(self, "values", vals)

    def __len__(self) -> int:
        return len(self.values)


def _ordered_rows(values, m: int) -> tuple:
    """(N, m) array of spectra and whether `values` was one spectrum; every
    row must descend strictly and end positive."""
    if isinstance(values, SpectrumSample):
        values = values.values
    v = np.asarray(values, dtype=float)
    single = v.ndim == 1
    if single:
        v = v[None, :]
    if v.ndim != 2 or v.shape[1] != m:
        raise ValueError(f"expected spectra of {m} values, got shape {v.shape}")
    ok = (v[:, -1] > 0.0) & (v[:, :-1] > v[:, 1:]).all(axis=1)
    if not ok.all():
        row = int(np.flatnonzero(~ok)[0])
        raise ValueError(f"values row {row} must be strictly descending and "
                         f"positive: {v[row].tolist()}")
    return v, single


@functools.lru_cache(maxsize=256)
def _coupling(tag: AlgebraTag, m: int, n: int, nu: float, trace: bool) -> tuple:
    """(q, exp_f, const) of the beta II law of the gram of an m x n T at its
    wide d x n' and nu' (`_wide`): const + exp_f sum log lambda_i - q K, with
    exp_f = beta(n'-d+1)/2 - 1 and K = sum log1p lambda_i, q = beta(nu+n)/2,
    const = -log B_d[beta nu'/2, beta n'/2], or with `trace` K = log1p(sum
    lambda_i), q = beta(nu+mn)/2, const = log Gamma[q] / (Gamma[beta nu/2]
    Gamma_d[beta n'/2])."""
    beta = tag.beta
    d, n_wide, nu_wide = _wide(m, n, nu, trace)
    exp_f, b_par = beta * (n_wide - d + 1) / 2.0 - 1.0, beta * n_wide / 2.0
    if trace:
        q = beta * (nu + m * n) / 2.0
        return q, exp_f, -log_mvgamma(tag, d, b_par) + (log_gamma(q) - log_gamma(beta * nu / 2.0))
    return beta * (n + nu) / 2.0, exp_f, -log_mvbeta(tag, d, beta * nu_wide / 2.0, b_par)


def _scaled(x: np.ndarray, t: np.ndarray) -> tuple:
    """(x 2^-t, t) for the binary exponents t of a stack x's items where |t| >
    256, or (x, None) where no |t| is: no double below 2^256 overflows squared."""
    big = np.abs(t) > 256
    if not big.any():
        return x, None
    t = np.where(big, t, 0)
    return np.ldexp(x, -t.reshape(t.shape + (1,) * (x.ndim - t.ndim))), t


def _coupling_logpdf(lam: np.ndarray, log_lam: np.ndarray, t, terms: tuple, trace: bool):
    """`_coupling`'s law at the eigenvalues 2^t lambda, lambda (..., d) as
    `_scaled` left them and log_lam their logs: t log 2 goes into each log,
    and log1p(2^t lambda) is taken from log lambda + t log 2 where 2^t lambda
    is inf or lambda lost its bits below the normal doubles."""
    q, exp_f, const = terms
    log_g = log_lam.sum(axis=-1)
    if t is None:
        k = np.log1p(lam.sum(axis=-1)) if trace else np.log1p(lam).sum(axis=-1)
    else:
        log_g = log_g + (log_lam.shape[-1] * _LOG_2) * t
        if trace:
            lam = lam.sum(axis=-1, keepdims=True)
            log_lam = np.log(lam)
        t = t[..., None]
        with np.errstate(over="ignore"):
            big = np.ldexp(lam, t)
        lost = np.isinf(big) | (lam < np.finfo(float).tiny)   # past 2^1024 this is log(2^t lambda)
        k = np.where(lost, np.logaddexp(0.0, log_lam + _LOG_2 * t), np.log1p(big)).sum(axis=-1)
    out = const - q * k
    return out + exp_f * log_g if exp_f else out


@functools.lru_cache(maxsize=256)
def _log_joint_terms(tag: AlgebraTag, m: int, n: int, nu: float, trace: bool,
                     singular: bool) -> tuple:
    """`_coupling`'s terms with the volume constant pi^(beta d^2/2 + tau)
    Gamma(beta/2)^d / Gamma_d[beta d/2], d = min(m, n), and for singular
    values the Jacobian 2^d prod d_i = 2^d prod lambda_i^(1/2)."""
    q, exp_f, const = _coupling(tag, m, n, nu, trace)
    beta, d = tag.beta, min(m, n)
    const += (beta * d * d / 2.0 + tau(tag, d)) * _LOG_PI - log_mvgamma(tag, d, beta * d / 2.0)
    if beta > 1:    # the phases' Gamma(beta/2)^d, tau their pi (ERRATA.md section 5)
        const += d * log_gamma(beta / 2.0)
    return (q, exp_f + 0.5, const + d * _LOG_2) if singular else (q, exp_f, const)


def _log_joint(tag: AlgebraTag, m: int, n: int, nu: float, values, *,
               trace: bool, singular: bool):
    """The one spectral-density core: `_log_joint_terms`' law at ordered
    eigenvalues lambda, or singular values d at lambda = d^2, times the
    Vandermonde prod_{i<j} (lambda_i - lambda_j)^beta of the unscaled values,
    d_i^2 - d_j^2 as (d_i - d_j)(d_i + d_j).  The kernel takes each spectrum
    `_scaled` from its largest value before d is squared and log lambda
    unscaled, so every spectrum of doubles has a finite log density.  One
    spectrum gives a float, a batch (N, min(m, n)) an (N,) array."""
    tag = AlgebraTag(tag)
    terms = _log_joint_terms(tag, m, n, nu, trace, singular)
    v, single = _ordered_rows(values, min(m, n))
    lam, log_v, t = v, np.log(v), None
    log_lam = log_v
    if np.abs(log_v[:, 0]).max(initial=0.0) > 256 * _LOG_2:   # else skip frexp and _scaled's test
        lam, t = _scaled(v, np.frexp(v[:, 0])[1])
        log_lam = log_v if t is None else log_v - _LOG_2 * t[:, None]
    if singular:
        lam, log_lam, t = lam * lam, 2.0 * log_lam, None if t is None else 2 * t
    out = _coupling_logpdf(lam, log_lam, t, terms, trace)
    for i in range(v.shape[1] - 1):  # the Vandermonde factor, one row of pairs at a time
        gaps = np.log(v[:, i, None] - v[:, i + 1:])
        if singular:
            gaps += np.logaddexp(log_v[:, i, None], log_v[:, i + 1:])
        out += tag.beta * gaps.sum(axis=1)
    return float(out[0]) if single else out


def log_joint_sv_matric_t(tag: AlgebraTag, m: int, n: int, nu: float, values):
    """Joint log density of the singular values of a standard m x n
    matricvariate T; a tall T (n < m) takes its transpose's at nu + n - m:

        2^m pi^(beta m^2/2 + tau) / (Gamma_m[beta m/2] B_m[beta nu/2, beta n/2])
        * prod d_i^(beta(n-m+1)-1) (1+d_i^2)^(-beta(nu+n)/2)
        * prod_{i<j} (d_i^2-d_j^2)^beta
    """
    return _log_joint(tag, m, n, nu, values, trace=False, singular=True)


def log_joint_sv_matrix_mt(tag: AlgebraTag, m: int, n: int, nu: float, values):
    """Joint log density of the singular values of a standard m x n matrix
    multivariate T, through (1 + sum alpha_i^2); a tall T takes its T*'s."""
    return _log_joint(tag, m, n, nu, values, trace=True, singular=True)


def log_joint_eig_beta2(tag: AlgebraTag, m: int, n: int, nu: float, values):
    """Joint log density of the eigenvalues of the gram beta type II matrix
    of an m x n matricvariate T, T* T's for a tall T (T*'s at nu + n - m)."""
    return _log_joint(tag, m, n, nu, values, trace=False, singular=False)


def log_joint_eig_mv(tag: AlgebraTag, m: int, n: int, nu: float, values):
    """Joint log density of the eigenvalues of the gram matrix multivariate
    beta type II matrix of an m x n T (T* T's if tall); kernel (1 + sum gamma_i)."""
    return _log_joint(tag, m, n, nu, values, trace=True, singular=False)


def empirical_spectrum(x, kind: str = "singular") -> SpectrumSample:
    """Extract the sorted spectrum of one sampled matrix.

    kind "singular" works on any matrix; kind "eigen" requires a square
    Hermitian input (a HermitianPD or a Hermitian DivMatrix).
    """
    if kind == "singular":
        mat = x.mat if isinstance(x, HermitianPD) else x
        vals = singular_values(mat)
    elif kind == "eigen":
        vals = hermitian_eigenvalues(x)
    else:
        raise ValueError("kind must be 'singular' or 'eigen'")
    return SpectrumSample(tuple(float(v) for v in vals), kind)


def _check_beta(tag: AlgebraTag, raw: np.ndarray) -> None:
    """ValueError unless raw's coefficient axis has the tag's beta as its
    length."""
    beta = AlgebraTag(tag).beta
    if np.shape(raw)[-1:] != (beta,):
        raise ValueError(f"beta = {beta} stacks end in a coefficient axis of "
                         f"length {beta}; got shape {np.shape(raw)}")


def singular_values_batch(tag: AlgebraTag, raw: np.ndarray) -> np.ndarray:
    """Descending singular values for a stacked (N, m, n, beta) sample array;
    stacks with min(m, n) <= 2 take the closed form of `_singular_values_raw`."""
    _check_beta(tag, raw)
    return _octonion_guard(_singular_values_raw, raw)


def eigenvalues_batch(tag: AlgebraTag, raw: np.ndarray) -> np.ndarray:
    """Descending eigenvalues for stacked Hermitian (N, m, m, beta) samples.
    A matrix with a NaN or inf coefficient, or one that is not Hermitian to
    HERMITIAN_ATOL, is refused with ValueError naming its index; a Hermitian
    stack is symmetrized as `hermitian_eigenvalues` does, which leaves an
    exactly Hermitian one as it is."""
    _check_beta(tag, raw)
    if raw.shape[-3] != raw.shape[-2]:
        raise ValueError(f"eigenvalues require square matrices; got shape {raw.shape}")
    return _octonion_guard(_eigvalsh_raw, _hermitian_part(raw), hermitian=True)
