"""Log-space special functions and geometric constants.

Everything here is computed and exposed in log space only: the multivariate
gamma overflows double precision already at modest dimension, so densities
are assembled from these logs and exponentiated at the boundary.
"""

from __future__ import annotations

import math

from .algebra import AlgebraTag
from .errors import DomainError

__all__ = [
    "log_gamma",
    "log_mvgamma",
    "log_mvbeta",
    "stiefel_log_volume",
    "tau",
    "log_gamma_ratio_identity_gap",
]

_LOG_PI = math.log(math.pi)


def log_gamma(x: float) -> float:
    """Natural log of the gamma function for real x > 0 (`math.lgamma`)."""
    x = float(x)
    if not x > 0.0:
        raise DomainError(f"log_gamma requires a positive argument, got {x}")
    return math.lgamma(x)


def log_mvgamma(tag: AlgebraTag, m: int, a: float) -> float:
    """log of the multivariate gamma for the algebra's Hermitian cone:

        pi^(m(m-1)beta/4) * prod_{i=1..m} Gamma[a - (i-1)beta/2]

    It requires m >= 1 (ValueError) and a > (m-1)beta/2 (DomainError).
    """
    beta = AlgebraTag(tag).beta
    if m < 1:
        raise ValueError("m must be a positive integer")
    lower = (m - 1) * beta / 2.0
    if not a > lower:
        raise DomainError(
            f"multivariate gamma requires a > (m-1)*beta/2 = {lower}, got a = {a}"
        )
    out = m * (m - 1) * beta / 4.0 * _LOG_PI
    for i in range(1, m + 1):
        out += log_gamma(a - (i - 1) * beta / 2.0)
    return out


def log_mvbeta(tag: AlgebraTag, m: int, a: float, b: float) -> float:
    """log multivariate beta: Gamma_m[a] Gamma_m[b] / Gamma_m[a+b]."""
    return log_mvgamma(tag, m, a) + log_mvgamma(tag, m, b) - log_mvgamma(tag, m, a + b)


def _wide(m: int, n: int, nu: float, trace: bool) -> tuple:
    """(m, n, nu) of the wide law with the spectra of the m x n T or beta II
    law: a tall one is that of T*, at nu + n - m under the determinant
    coupling (ERRATA.md section 2) and at nu under the trace coupling."""
    if n >= m:
        return m, n, nu
    return n, m, nu if trace else nu + n - m


def stiefel_log_volume(tag: AlgebraTag, m: int, n: int) -> float:
    """log volume of the manifold of m x n matrices with orthonormal rows:

        2^m pi^(mn beta/2) / Gamma_m[n beta/2]
    """
    if not 1 <= m <= n:
        raise ValueError(f"require n >= m >= 1, got m={m}, n={n}")
    beta = AlgebraTag(tag).beta
    return (m * math.log(2.0) + m * n * beta / 2.0 * _LOG_PI
            - log_mvgamma(tag, m, n * beta / 2.0))


def tau(tag: AlgebraTag, m: int) -> int:
    """Algebra-dependent power-of-pi correction in the SVD volume element."""
    beta = AlgebraTag(tag).beta
    if m < 1:
        raise ValueError("m must be positive")
    return {1: 0, 2: -m, 4: -2 * m, 8: -4 * m}[beta]


def log_gamma_ratio_identity_gap(tag: AlgebraTag, m: int, n: int, nu: float) -> float:
    """Log-space gap of the dimension-swap identity

        Gamma_m[beta(n+nu)/2] / Gamma_m[beta nu/2]
          = Gamma_n[beta(n+nu)/2] / Gamma_n[beta(n+nu-m)/2],

    exposed as a first-class diagnostic: it ties the two closed forms of the
    matricvariate T normalizing constant together and should vanish to
    rounding error for every admissible (beta, m, n, nu).
    """
    beta = AlgebraTag(tag).beta
    left = log_mvgamma(tag, m, beta * (n + nu) / 2.0) - log_mvgamma(tag, m, beta * nu / 2.0)
    right = (log_mvgamma(tag, n, beta * (n + nu) / 2.0)
             - log_mvgamma(tag, n, beta * (n + nu - m) / 2.0))
    return left - right
