"""Matricvariate and matrix multivariate T / beta type II distributions over
the real normed division algebras (beta = 1, 2, 4, 8), their joint spectrum
densities, and a Monte Carlo verification harness."""

from ._version import __version__
from .algebra import (
    AlgebraTag,
    DivMatrix,
    DivScalar,
    HermitianPD,
    cholesky_hpd,
    complex_adjoint,
    conj_transpose,
    hermitian_eigenvalues,
    logdet_hpd,
    matmul,
    scalar_mul,
    singular_values,
)
from .distributions import (
    BetaIIParams,
    EllipticalTParams,
    GammaScalarParams,
    GaussianParams,
    MatricTParams,
    MatrixMTParams,
    RngStream,
    WishartParams,
    logpdf_beta2_matric,
    logpdf_beta2_multivariate,
    logpdf_matric_t,
    logpdf_matrix_mt,
    radial_logpdf_matric_t,
    radial_logpdf_matrix_mt,
    sample_beta2_matric,
    sample_elliptical_t,
    sample_gamma_scalar,
    sample_gaussian,
    sample_matric_t,
    sample_matrix_mt,
    sample_wishart,
)
from .errors import DomainError, NotPositiveDefinite, OctonionMatrixError
from .spectral import (
    SpectrumSample,
    empirical_spectrum,
    log_joint_eig_beta2,
    log_joint_eig_mv,
    log_joint_sv_matric_t,
    log_joint_sv_matrix_mt,
)
from .special import (
    log_gamma,
    log_gamma_ratio_identity_gap,
    log_mvbeta,
    log_mvgamma,
    stiefel_log_volume,
    tau,
)
from .verify import (
    CheckSpec,
    CheckResult,
    VerifyReport,
    default_suite,
    ks_one_sample,
    ks_two_sample,
    moment_check,
    quadrature_mass_eig2,
    quadrature_mass_positive,
    quadrature_mass_row,
    quadrature_mass_scalar,
    run_suite,
)
