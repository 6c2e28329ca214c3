"""Joint singular-value and eigenvalue log densities of the T and beta II
families, plus extraction of empirical spectra from sample streams.

All densities are for the standard (identity-scale, zero-location) laws and
live on the open ordered cone v_1 > ... > v_m > 0.  The normalizing
coefficient carries pi^(beta m^2/2 + tau); a variant with pi^(beta m^2 + tau)
circulates in print but fails normalization, see ERRATA.md, and is available
behind `printed_variant` for the diagnostic evidence check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .algebra import (
    AlgebraTag,
    HermitianPD,
    _eigvalsh_raw,
    _singular_values_raw,
    hermitian_eigenvalues,
    singular_values,
)
from .special import log_gamma, log_mvbeta, log_mvgamma, GammaArgs, tau

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

    Values must descend strictly; a tie within relative tolerance 1e-12 is
    rejected (a measure-zero event that indicates an upstream problem rather
    than a legitimate sample).
    """

    values: tuple
    kind: str

    def __post_init__(self):
        if self.kind not in ("singular", "eigen"):
            raise ValueError("kind must be 'singular' or 'eigen'")
        vals = tuple(float(v) for v in self.values)
        if not vals:
            raise ValueError("empty spectrum")
        if vals[-1] <= 0.0:
            raise ValueError("spectrum values must be strictly positive")
        scale = max(1.0, abs(vals[0]))
        for hi, lo in zip(vals, vals[1:]):
            if hi - lo <= TIE_RTOL * scale:
                raise ValueError(
                    f"spectrum values must descend strictly; got tie {hi} ~ {lo}"
                )
        object.__setattr__(self, "values", vals)

    def __len__(self) -> int:
        return len(self.values)


def _ordered_values(values, m: int) -> np.ndarray:
    if isinstance(values, SpectrumSample):
        values = values.values
    v = np.asarray(values, dtype=float).reshape(-1)
    if v.shape != (m,):
        raise ValueError(f"expected {m} spectrum values, got {v.shape}")
    if not (v[-1] > 0.0 and np.all(np.diff(v) < 0.0)):
        raise ValueError("values must be strictly descending and positive")
    return v


def _log_vandermonde_sq(vsq: np.ndarray, beta: int) -> float:
    """beta * sum_{i<j} log(v_i^2 - v_j^2) for descending v (given squared)."""
    m = len(vsq)
    if m == 1:
        return 0.0
    diffs = vsq[:, None] - vsq[None, :]
    iu = np.triu_indices(m, 1)
    return beta * float(np.log(diffs[iu]).sum())


def log_joint_sv_matric_t(tag: AlgebraTag, m: int, n: int, nu: float, values,
                          *, printed_variant: bool = False) -> float:
    """Joint log density of the singular values of a standard matricvariate T:

        2^m pi^(beta m^2/2 + tau) / (Gamma_m[beta m/2] B_m[beta nu/2, beta n/2])
        * prod d_i^(beta(n-m+1)-1) (1+d_i^2)^(-beta(nu+n)/2)
        * prod_{i<j} (d_i^2-d_j^2)^beta
    """
    tag = AlgebraTag(tag)
    beta = tag.beta
    if n < m:
        raise ValueError("require n >= m")
    d = _ordered_values(values, m)
    pi_exp = beta * m * m * (1.0 if printed_variant else 0.5) + tau(tag, m)
    const = (
        m * _LOG_2
        + pi_exp * _LOG_PI
        - log_mvgamma(GammaArgs(tag, m, beta * m / 2.0))
        - log_mvbeta(tag, m, beta * nu / 2.0, beta * n / 2.0)
    )
    dsq = d * d
    kern = float(
        ((beta * (n - m + 1) - 1) * np.log(d)
         - beta * (nu + n) / 2.0 * np.log1p(dsq)).sum()
    )
    return const + kern + _log_vandermonde_sq(dsq, beta)


def log_joint_sv_matrix_mt(tag: AlgebraTag, m: int, n: int, nu: float, values) -> float:
    """Joint log density of the singular values of a standard matrix
    multivariate T; the coupling runs through (1 + sum alpha_i^2)."""
    tag = AlgebraTag(tag)
    beta = tag.beta
    if n < m:
        raise ValueError("require n >= m")
    a = _ordered_values(values, m)
    q1 = beta * (nu + m * n) / 2.0
    const = (
        m * _LOG_2
        + (beta * m * m / 2.0 + tau(tag, m)) * _LOG_PI
        + log_gamma(q1)
        - log_gamma(beta * nu / 2.0)
        - log_mvgamma(GammaArgs(tag, m, beta * m / 2.0))
        - log_mvgamma(GammaArgs(tag, m, beta * n / 2.0))
    )
    asq = a * a
    kern = float(((beta * (n - m + 1) - 1) * np.log(a)).sum()) \
        - q1 * math.log1p(float(asq.sum()))
    return const + kern + _log_vandermonde_sq(asq, beta)


def log_joint_eig_beta2(tag: AlgebraTag, m: int, n: int, nu: float, values,
                        *, printed_variant: bool = False) -> float:
    """Joint log density of the eigenvalues of the gram beta type II matrix
    (the squared singular values of the matricvariate T)."""
    tag = AlgebraTag(tag)
    beta = tag.beta
    if n < m:
        raise ValueError("require n >= m")
    lam = _ordered_values(values, m)
    pi_exp = beta * m * m * (1.0 if printed_variant else 0.5) + tau(tag, m)
    const = (
        pi_exp * _LOG_PI
        - log_mvgamma(GammaArgs(tag, m, beta * m / 2.0))
        - log_mvbeta(tag, m, beta * nu / 2.0, beta * n / 2.0)
    )
    kern = float(
        ((beta * (n - m + 1) / 2.0 - 1.0) * np.log(lam)
         - beta * (nu + n) / 2.0 * np.log1p(lam)).sum()
    )
    return const + kern + _log_vandermonde_sq(lam, beta)


def log_joint_eig_mv(tag: AlgebraTag, m: int, n: int, nu: float, values) -> float:
    """Joint log density of the eigenvalues of the gram matrix multivariate
    beta type II matrix; coupling through (1 + sum gamma_i)."""
    tag = AlgebraTag(tag)
    beta = tag.beta
    if n < m:
        raise ValueError("require n >= m")
    g = _ordered_values(values, m)
    q1 = beta * (nu + m * n) / 2.0
    const = (
        (beta * m * m / 2.0 + tau(tag, m)) * _LOG_PI
        + log_gamma(q1)
        - log_gamma(beta * nu / 2.0)
        - log_mvgamma(GammaArgs(tag, m, beta * m / 2.0))
        - log_mvgamma(GammaArgs(tag, m, beta * n / 2.0))
    )
    kern = float(((beta * (n - m + 1) / 2.0 - 1.0) * np.log(g)).sum()) \
        - q1 * math.log1p(float(g.sum()))
    return const + kern + _log_vandermonde_sq(g, beta)


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


def singular_values_batch(tag: AlgebraTag, raw: np.ndarray) -> np.ndarray:
    """Descending singular values for a stacked (N, m, n, beta) sample array."""
    return _singular_values_raw(raw, AlgebraTag(tag).beta)


def eigenvalues_batch(tag: AlgebraTag, raw: np.ndarray) -> np.ndarray:
    """Descending eigenvalues for stacked Hermitian (N, m, m, beta) samples."""
    return _eigvalsh_raw(raw, AlgebraTag(tag).beta)
