"""Joint singular-value and eigenvalue log densities of the T and beta II
families, plus extraction of empirical spectra from sample streams.

The four densities are one core, `_log_joint`, over the ordered eigenvalues
lambda of the gram beta type II matrix, with two couplings: the determinant
kernel prod (1 + lambda_i) of the matricvariate laws and the trace kernel
(1 + sum lambda_i) of the matrix multivariate laws.  The singular values d
of the T matrix enter through the change of variables lambda = d^2.  The
core is batch-first: one spectrum is the N = 1 case of an (N, m) array.

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
def _log_joint_const(tag: AlgebraTag, m: int, n: int, nu: float, trace: bool,
                     singular: bool) -> float:
    """The point-independent log constant of `_log_joint` at the wide shape,
    computed once per law: the normalizing coefficient, the coupling's
    constant and the singular-value Jacobian's 2^m, added in that order."""
    beta = tag.beta
    const = ((beta * m * m / 2.0 + tau(tag, m)) * _LOG_PI
             - log_mvgamma(tag, m, beta * m / 2.0))
    if beta > 1:
        # the eigenvector phases give (pi^(beta/2) / Gamma(beta/2))^-m: tau
        # holds the power of pi, this the Gamma(beta/2)^m, 6^m at beta = 8
        # (ERRATA.md section 5); at beta = 1, tau = 0 is the whole factor
        const += m * log_gamma(beta / 2.0)
    if trace:
        q1 = beta * (nu + m * n) / 2.0
        const += (log_gamma(q1) - log_gamma(beta * nu / 2.0)
                  - log_mvgamma(tag, m, beta * n / 2.0))
    else:
        const -= log_mvbeta(tag, m, beta * nu / 2.0, beta * n / 2.0)
    if singular:
        const += m * _LOG_2
    return const


def _log_joint(tag: AlgebraTag, m: int, n: int, nu: float, values, *,
               trace: bool, singular: bool):
    """The one spectral-density core.

    On ordered eigenvalues lambda of the gram beta type II matrix,

        pi^(beta m^2/2 + tau) / Gamma_m[beta m/2] * K(lambda)
        * prod lambda_i^(beta(n-m+1)/2-1) * prod_{i<j} (lambda_i-lambda_j)^beta

    with the determinant coupling (matricvariate) K = prod (1+lambda_i)^
    (-beta(nu+n)/2) / B_m[beta nu/2, beta n/2], or the trace coupling
    (matrix multivariate) K = (1 + sum lambda_i)^(-beta(nu+mn)/2)
    Gamma[beta(nu+mn)/2] / (Gamma[beta nu/2] Gamma_m[beta n/2]).  Singular
    values d of the T matrix are the change of variables lambda = d^2, with
    Jacobian 2^m prod d_i; a tall T takes `_wide`'s shape.  One spectrum of
    min(m, n) values gives a float, a batch (N, min(m, n)) an (N,) array.
    """
    tag = AlgebraTag(tag)
    beta = tag.beta
    m, n, nu = _wide(m, n, nu, trace)
    v, single = _ordered_rows(values, m)
    const = _log_joint_const(tag, m, n, nu, trace, singular)
    lam = v * v if singular else v
    log_lam = np.log(lam)
    out = (beta * (n - m + 1) / 2.0 - 1.0) * log_lam.sum(axis=1)
    if trace:
        out -= beta * (nu + m * n) / 2.0 * np.log1p(lam.sum(axis=1))
    else:
        out -= beta * (nu + n) / 2.0 * np.log1p(lam).sum(axis=1)
    if singular:
        out += 0.5 * log_lam.sum(axis=1)
    for i in range(m - 1):  # the Vandermonde factor, one row of pairs at a time
        out += beta * np.log(lam[:, i, None] - lam[:, i + 1:]).sum(axis=1)
    out += const
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
    return _singular_values_raw(raw)


def eigenvalues_batch(tag: AlgebraTag, raw: np.ndarray) -> np.ndarray:
    """Descending eigenvalues for stacked Hermitian (N, m, m, beta) samples.
    A matrix with a NaN or inf coefficient, or one that is not Hermitian to
    HERMITIAN_ATOL, is refused with ValueError naming its index; a Hermitian
    stack is symmetrized as `hermitian_eigenvalues` does, which leaves an
    exactly Hermitian one as it is."""
    _check_beta(tag, raw)
    if raw.shape[-3] != raw.shape[-2]:
        raise ValueError(f"eigenvalues require square matrices; got shape {raw.shape}")
    return _eigvalsh_raw(_hermitian_part(raw))
