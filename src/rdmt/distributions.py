"""Parameter records, samplers, and log-density evaluators for the
matricvariate T, matrix multivariate T, and beta type II families over the
real normed division algebras, plus the Wishart / scalar-gamma building
blocks and the scale-mixture elliptical construction.

Conventions fixed here once and used everywhere:

* A standard algebra Gaussian entry has i.i.d. normal coefficients with
  variance 1/beta, so each entry has unit expected squared norm.  This is
  the convention under which all the closed-form constants below normalize.
* A scalar gamma variate with parameters (nu, rho) is Gamma-distributed with
  shape beta*nu/2 and scale 2*rho/beta (mean nu*rho).
* Every sampler is `sample_*(rng, params, size=None)`: it takes its
  parameter record, which has refused what the sampler cannot draw, and
  `sample_matric_t` and `sample_wishart` also take a construction `method`.
  With `size` given a sampler returns a stacked coefficient array of shape
  (size, m, n, beta) instead of a single wrapped matrix.
* Log densities take points the same way: one wrapped matrix gives a float,
  and an (N, m, n, beta) stack gives an (N,) array, through one code path.
  They are assembled in log space, and what does not depend on the point
  is computed once per parameter record.

The law table `_FAMILIES`, at the end, is the one place that pairs each
family with its record, sampler, density and overlays; the CLI reads it.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import MISSING, dataclass, field, fields
from functools import cache, cached_property, partial
from typing import ClassVar, get_args, get_type_hints

import numpy as np

from .algebra import (
    AlgebraTag,
    DivMatrix,
    HermitianPD,
    _check_beta_shape,
    _cholesky_raw,
    _complex_embed_raw,
    _conj_t_raw,
    _eigvalsh_raw,
    _frobenius_sq_raw,
    _gram_raw,
    _hermitian_part,
    _hpd_inverse_raw,
    _largest_coefficients,
    _logdet_gram_raw,
    _octonion_of,
    _product_raw,
    _raise_at,
    _real_image,
    _refuse_non_finite,
    _solve_raw,
    _stack_index,
)
from .errors import DomainError
from .special import _wide, log_gamma, log_mvgamma
from .spectral import (
    _coupling,
    _coupling_logpdf,
    _scaled,
    log_joint_eig_beta2,
    log_joint_eig_mv,
    log_joint_sv_matric_t,
    log_joint_sv_matrix_mt,
)

__all__ = [
    "RngStream",
    "MatricTParams",
    "MatrixMTParams",
    "WishartParams",
    "GammaScalarParams",
    "BetaIIParams",
    "GaussianParams",
    "EllipticalTParams",
    "sample_gaussian",
    "sample_gamma_scalar",
    "sample_wishart",
    "sample_matric_t",
    "sample_beta2_matric",
    "sample_matrix_mt",
    "sample_elliptical_t",
    "logpdf_matric_t",
    "logpdf_beta2_matric",
    "logpdf_matrix_mt",
    "logpdf_beta2_multivariate",
    "radial_logpdf_matric_t",
    "radial_logpdf_matrix_mt",
]

_LOG_PI = math.log(math.pi)


class RngStream:
    """Deterministic random stream keyed by (seed, stream).

    Identical (seed, stream) pairs reproduce identical draw sequences.
    `child(i)` derives an independent stream deterministically, which is how
    the verify suite hands disjoint streams to concurrent checks: it extends
    the `SeedSequence` spawn key (stream,) to (stream, i), then (stream, i, j).
    """

    def __init__(self, seed: int, stream: int = 0, *, path: tuple = ()):
        self.seed = int(seed)
        self.stream = int(stream)
        self.path = tuple(int(i) for i in path)
        ss = np.random.SeedSequence(entropy=self.seed,
                                    spawn_key=(self.stream,) + self.path)
        self.generator = np.random.Generator(np.random.PCG64(ss))

    def child(self, index: int) -> "RngStream":
        return RngStream(self.seed, self.stream, path=self.path + (index,))

    def __repr__(self) -> str:
        path = f", path={self.path}" if self.path else ""
        return f"RngStream(seed={self.seed}, stream={self.stream}{path})"


def _std_normal_raw(gen: np.random.Generator, beta: int, shape: tuple) -> np.ndarray:
    """Coefficient array of standard algebra Gaussians (variance 1/beta)."""
    return gen.normal(0.0, 1.0 / math.sqrt(beta), shape + (beta,))


# ---------------------------------------------------------------------------
# Parameter records.
# ---------------------------------------------------------------------------


def _default_hpd(value, tag: AlgebraTag, m: int, name: str) -> HermitianPD:
    if value is None:
        return HermitianPD.identity(tag, m)
    if not isinstance(value, HermitianPD):
        raise TypeError(f"{name} must be a HermitianPD")
    if value.tag != tag or value.m != m:
        raise ValueError(f"{name} must be a {m}x{m} matrix over the same algebra")
    return value


def _default_mu(value, tag: AlgebraTag, m: int, n: int) -> DivMatrix:
    if value is None:
        return DivMatrix.zeros(tag, m, n)
    if not isinstance(value, DivMatrix):
        raise TypeError("mu must be a DivMatrix")
    if value.tag != tag or value.shape != (m, n):
        raise ValueError(f"mu must be {m}x{n} over the same algebra")
    return value


def _refuse_non_finite_fields(record, error: type, *names: str) -> None:
    """Refuse, by `error` naming the field, a NaN or inf in any of the
    record's given fields `names`: a number, a tuple of numbers or a
    DivMatrix's coefficients."""
    for name in names:
        value = getattr(record, name)
        data = value.data if isinstance(value, DivMatrix) else value
        if value is not None and not np.isfinite(data).all():
            raise error(f"{name} must be finite (no NaN or inf)")


def _cast(kind: type, value):
    """`value` as type `kind`, refusing what the cast would change: a bool
    for a number, also in a tuple, a non-integral or non-finite number for
    an integer (int(2.7) is 2, int(True) 1), and a non-list for a tuple
    (tuple("ab") is ("a", "b")).  A kind with a `from_schema_dict` reads a
    schema dict.  ValueError says what the value must be, for the caller to
    name it."""
    if issubclass(kind, tuple):
        if not isinstance(value, (list, tuple)):
            raise ValueError(f"must be a list, got {value!r}")
        if any(isinstance(x, bool) for x in value):
            raise ValueError(f"must be a list of numbers, got {value!r}")
    if issubclass(kind, (int, float)) and (
            isinstance(value, bool)
            or issubclass(kind, int) and not float(value).is_integer()):
        what = "an integer" if issubclass(kind, int) else "a number"
        raise ValueError(f"must be {what}, got {value!r}")
    return getattr(kind, "from_schema_dict", kind)(value)


def _field_type(hint):
    """The type of a field annotation, less its `| None`."""
    return next(t for t in get_args(hint) or (hint,) if t is not type(None))


@cache
def _field_loaders(cls) -> tuple:
    """(name, type, has a default) of each field that record class `cls`
    takes at construction, but its tag, resolved once per class:
    `get_type_hints` evaluates every annotation's string anew on each
    call."""
    hints = get_type_hints(cls)
    return tuple((f.name, _field_type(hints[f.name]), f.default is not MISSING)
                 for f in fields(cls) if f.init and f.name != "tag")


class _JsonRecord:
    """The one JSON (de)serializer of the parameter records, driven by the
    dataclass fields: `tag` is written as "beta", a DivMatrix or HermitianPD
    as its schema dict (None as null), a tuple as a list.  On load each value
    is cast to its field's type (`_cast`), a missing key takes the field's
    default, and a derived field (`init=False`), if given, must equal what
    the record derives.  A loaded "family", if given, must be the record's,
    and any other key that is not a field is refused, so a misspelt key
    cannot fall back to its field's default.  A refusal names the family and
    the key."""

    family: ClassVar[str]

    def to_json_dict(self) -> dict:
        out = {"family": self.family}
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name == "tag":
                out["beta"] = value.beta
            elif isinstance(value, (DivMatrix, HermitianPD)):
                out[f.name] = value.to_schema_dict()
            elif isinstance(value, tuple):
                out[f.name] = list(value)
            else:
                out[f.name] = value
        return out

    @classmethod
    def from_json_dict(cls, obj: dict):
        if not isinstance(obj, dict):
            raise ValueError(f"{cls.family} params must be a JSON object, not "
                             f"{type(obj).__name__}")
        if obj.get("family", cls.family) != cls.family:
            raise ValueError(f"params record of family {obj['family']!r}, not "
                             f"{cls.family!r}")
        loaders = (("beta", AlgebraTag, False),) + _field_loaders(cls)
        derived = [f.name for f in fields(cls) if not f.init]
        unknown = sorted(set(obj) - {n for n, _, _ in loaders} - {"family", *derived})
        if unknown:
            raise ValueError(f"unknown {cls.family} params key {unknown[0]!r}")
        kwargs = {}
        for name, kind, has_default in loaders:
            if name not in obj and has_default:
                continue
            try:
                value = obj[name]
                if value is not None:
                    value = _cast(kind, value)
            except (ValueError, TypeError, KeyError) as exc:
                raise ValueError(f"{cls.family} params key {name!r}: "
                                 f"{exc if name in obj else 'missing'}") from exc
            kwargs["tag" if name == "beta" else name] = value
        record = cls(**kwargs)
        for name in derived:
            if obj.get(name, getattr(record, name)) != getattr(record, name):
                raise ValueError(f"{cls.family} params key {name!r} is {obj[name]!r}, "
                                 f"but the record derives {getattr(record, name)!r}")
        return record

    @cached_property
    def _image(self):
        """A 1x1 octonion record's real image (`_octonion_image`), built once."""
        return _octonion_image(self)


def _check_dims(record, rows: int, cols: int) -> AlgebraTag:
    """The record's tag as AlgebraTag(tag), set once its rows x cols is legal."""
    if min(rows, cols) < 1:
        raise ValueError("dimensions must be positive")
    _check_beta_shape(AlgebraTag(record.tag).beta, rows, cols)
    object.__setattr__(record, "tag", AlgebraTag(record.tag))
    return record.tag


@dataclass(frozen=True)
class MatricTParams(_JsonRecord):
    """Matricvariate T family: T = L^-* Y + mu with L L* Wishart(nu, Xi)
    and Y an algebra Gaussian with column scale Sigma.  Given L, the rows of
    T - mu have covariance (L L*)^-1 = W^-1, as the density's kernel
    |Xi^-1 + (T-mu) Sigma^-1 (T-mu)*| needs; L^-1 Y would give (L* L)^-1,
    which differs for m >= 2.  The primal density multiplies by M*, M the
    lower factor of Sigma^-1.

    The constant factors are cached on first use on the scales that own
    them, embedded as the kernels read them (None for an exact identity): L
    and L* of Xi and Sigma (`HermitianPD._factor_reps`), and M and M*
    (`HermitianPD._inverse_factor_reps` of Sigma)."""

    family: ClassVar[str] = "matric-t"
    tag: AlgebraTag
    m: int
    n: int
    nu: float
    mu: DivMatrix | None = None
    Xi: HermitianPD | None = None
    Sigma: HermitianPD | None = None

    def __post_init__(self):
        tag = _check_dims(self, self.m, self.n)
        _refuse_non_finite_fields(self, DomainError, "nu", "mu")
        if not self.nu > tag.beta * (self.m - 1):
            raise DomainError(
                f"matricvariate T requires nu > beta*(m-1) = {tag.beta * (self.m - 1)}"
            )
        object.__setattr__(self, "mu", _default_mu(self.mu, tag, self.m, self.n))
        object.__setattr__(self, "Xi", _default_hpd(self.Xi, tag, self.m, "Xi"))
        object.__setattr__(self, "Sigma", _default_hpd(self.Sigma, tag, self.n, "Sigma"))

    @cached_property
    def _density_terms(self):
        """form -> `_matric_t_terms(_computed(self), form)`, each form's built
        on its first use (see Log densities), so one form never computes the
        other's factors."""
        return _OnFirstUse(partial(_matric_t_terms, _computed(self)))


@dataclass(frozen=True)
class MatrixMTParams(_JsonRecord):
    """Matrix multivariate T family: T1 = S^-1/2 Y + mu with scalar gamma S.

    Delta and Lambda parametrize the density directly through the kernel
    [1 + rho * tr Delta (T1-mu) Lambda (T1-mu)*]; identity values recover the
    standard form.
    """

    family: ClassVar[str] = "matrix-mt"
    tag: AlgebraTag
    m: int
    n: int
    nu: float
    rho: float = 1.0
    mu: DivMatrix | None = None
    Delta: HermitianPD | None = None
    Lambda: HermitianPD | None = None

    def __post_init__(self):
        tag = _check_dims(self, self.m, self.n)
        _refuse_non_finite_fields(self, DomainError, "nu", "rho", "mu")
        if not (self.nu > 0 and self.rho > 0):
            raise DomainError("require nu > 0 and rho > 0")
        object.__setattr__(self, "mu", _default_mu(self.mu, tag, self.m, self.n))
        object.__setattr__(self, "Delta", _default_hpd(self.Delta, tag, self.m, "Delta"))
        object.__setattr__(self, "Lambda", _default_hpd(self.Lambda, tag, self.n, "Lambda"))

    @cached_property
    def _density_terms(self):
        """`_matrix_mt_terms(_computed(self))`, on first use (see Log densities)."""
        return _matrix_mt_terms(_computed(self))


@dataclass(frozen=True)
class WishartParams(_JsonRecord):
    family: ClassVar[str] = "wishart"
    tag: AlgebraTag
    m: int
    nu: float
    Xi: HermitianPD | None = None

    def __post_init__(self):
        tag = _check_dims(self, self.m, self.m)
        _refuse_non_finite_fields(self, DomainError, "nu")
        if not self.nu > tag.beta * (self.m - 1):
            raise DomainError(
                f"Wishart requires nu > beta*(m-1) = {tag.beta * (self.m - 1)}"
            )
        object.__setattr__(self, "Xi", _default_hpd(self.Xi, tag, self.m, "Xi"))


@dataclass(frozen=True)
class GammaScalarParams(_JsonRecord):
    """Scalar gamma law with shape beta*nu/2 and scale 2*rho/beta; rho
    defaults to 1, as in MatrixMTParams."""

    family: ClassVar[str] = "gamma"
    tag: AlgebraTag
    nu: float
    rho: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "tag", AlgebraTag(self.tag))
        _refuse_non_finite_fields(self, DomainError, "nu", "rho")
        if not (self.nu > 0 and self.rho > 0):
            raise DomainError("require nu > 0 and rho > 0")


@dataclass(frozen=True)
class BetaIIParams(_JsonRecord):
    """Beta type II families of either kind (matricvariate or matrix
    multivariate pick the evaluator; the parameter record is shared).

    The law is that of the min(m, n) square gram of an m x n T, so its
    shape fixes the derived `orientation`: "gram", the law of T T* in the
    m x m cone, when n >= m, and "cogram", the law of T* T in the n x n
    cone, when n < m.  `scale` selects the nonstandardised form.  The
    record takes every nu > 0, the trace-kernel law's domain; the
    matricvariate density needs nu > m - 1 (ERRATA.md section 2).
    """

    family: ClassVar[str] = "beta2"
    tag: AlgebraTag
    m: int
    n: int
    nu: float
    orientation: str = field(init=False)
    scale: HermitianPD | None = None

    def __post_init__(self):
        object.__setattr__(self, "orientation",
                           "gram" if self.n >= self.m else "cogram")
        tag = _check_dims(self, self.dim, self.dim)
        _refuse_non_finite_fields(self, DomainError, "nu")
        if not self.nu > 0:
            raise DomainError("require nu > 0")
        if self.scale is not None:
            object.__setattr__(self, "scale",
                               _default_hpd(self.scale, tag, self.dim, "scale"))

    @property
    def dim(self) -> int:
        """Side length of the sampled positive definite matrix, min(m, n)."""
        return min(self.m, self.n)

    # each law's terms are computed on its first use (see Log densities), so
    # one law never meets the other's domain
    @cached_property
    def _matric_terms(self):
        """`_beta2_terms(self, "matric")`."""
        return _beta2_terms(self, "matric")

    @cached_property
    def _mv_terms(self):
        """`_beta2_terms(self, "mv")`."""
        return _beta2_terms(self, "mv")


@dataclass(frozen=True)
class GaussianParams(_JsonRecord):
    """Standard matrix Gaussian: i.i.d. entries of unit expected squared norm."""

    family: ClassVar[str] = "gaussian"
    tag: AlgebraTag
    m: int
    n: int

    def __post_init__(self):
        _check_dims(self, self.m, self.n)


@dataclass(frozen=True)
class EllipticalTParams(_JsonRecord):
    """Standard matricvariate T built from a scale-mixture source (see
    `sample_elliptical_t`): a finite mixture of normals with one global
    standard-deviation multiplier per component, scales[i] with probability
    weights[i].  The construction needs an integer nu >= m and n >= m."""

    family: ClassVar[str] = "elliptical-t"
    tag: AlgebraTag
    m: int
    n: int
    nu: float
    weights: tuple = (1.0,)
    scales: tuple = (1.0,)

    def __post_init__(self):
        _check_dims(self, self.m, self.n)
        w = tuple(float(x) for x in self.weights)
        s = tuple(float(x) for x in self.scales)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "scales", s)
        _refuse_non_finite_fields(self, ValueError, "nu", "weights", "scales")
        if len(w) != len(s) or not w:
            raise ValueError("weights and scales must be equal-length, non-empty")
        if any(x < 0 for x in w) or abs(sum(w) - 1.0) > 1e-9:
            raise ValueError("weights must be nonnegative and sum to 1")
        if any(x <= 0 for x in s):
            raise ValueError("scales must be positive")
        if not float(self.nu).is_integer() or self.nu < self.m or self.n < self.m:
            raise ValueError("require integer nu >= m and n >= m")


def _octonion_image(params, law: str = "matric"):
    """The real record with the law of a 1x1 octonion record.  Its scales are
    positive reals, so it is the law of the 1 x 8 coefficient row at
    nu' = 8 nu, mu's coefficients as the row, a column scale s as s I_8 and
    the Wishart's Xi / 8 (a real Gaussian coefficient has variance 1, not
    1/8); a beta II record's is its wide law's (`special._wide`)."""
    def real(h, k=1, t=1.0):     # t h I_k over R for a scale h
        return None if h is None else HermitianPD.from_real(r, t * h.mat.data[0, 0, 0] * np.eye(k))
    r, nu = AlgebraTag.REAL, 8.0 * params.nu
    if isinstance(params, BetaIIParams):
        _, n_wide, nu_wide = _wide(params.m, params.n, params.nu, trace=law == "mv")
        return BetaIIParams(r, 1, 8 * n_wide, 8.0 * nu_wide, real(params.scale))
    if isinstance(params, WishartParams):
        return WishartParams(r, 1, nu, real(params.Xi, t=0.125))
    if isinstance(params, EllipticalTParams):
        return EllipticalTParams(r, 1, 8, nu, params.weights, params.scales)
    mu = DivMatrix(r, _real_image(params.mu.data))
    if isinstance(params, MatricTParams):
        return MatricTParams(r, 1, 8, nu, mu, real(params.Xi), real(params.Sigma, 8))
    return MatrixMTParams(r, 1, 8, nu, params.rho, mu, real(params.Delta), real(params.Lambda, 8))


def _computed(params):
    """The record the kernels compute: a 1x1 octonion record's real image."""
    return params._image if params.tag.beta == 8 else params


# ---------------------------------------------------------------------------
# Samplers.  Every sampler is deterministic under a fixed RngStream; with
# `size` given the raw stacked coefficient array is returned.
# ---------------------------------------------------------------------------


def _wrap_single(tag: AlgebraTag, raw: np.ndarray, size, hermitian: bool = False):
    if tag.beta == 8:   # a 1x1 octonion's draws come as their real images
        raw = _octonion_of(raw, hermitian)
    if size is not None:
        return raw
    mat = DivMatrix(tag, raw[0])
    return HermitianPD(mat) if hermitian else mat


def sample_gaussian(rng: RngStream, params: GaussianParams, size: int | None = None):
    """Draw the standard matrix Gaussian: i.i.d. coefficients N(0, 1/beta)."""
    nsamp = 1 if size is None else int(size)
    raw = _std_normal_raw(rng.generator, params.tag.beta, (nsamp, params.m, params.n))
    return _wrap_single(params.tag, raw, size)


def _check_gamma_draws(s: np.ndarray, problem) -> None:
    """Refuse (N,) or (N, k) gamma draws s that underflowed to 0, outside the
    support: ArithmeticError names the first, then says `problem(column)`."""
    if not s.all():
        draw, col = divmod(int(np.flatnonzero(s == 0.0)[0]), s[0].size)
        _raise_at(ArithmeticError, draw, "draw", problem(col))


def sample_gamma_scalar(rng: RngStream, params: GammaScalarParams,
                        size: int | None = None):
    """Positive scalar gamma draw; allowed for every beta including 8."""
    beta = params.tag.beta
    shape, scale = beta * params.nu / 2.0, 2.0 * params.rho / beta
    out = rng.generator.gamma(shape, scale, size=1 if size is None else int(size))
    _check_gamma_draws(out, lambda _: f"of Gamma({shape:g}, {scale:g}) underflowed "
                       f"to 0; nu = {params.nu:g} is too small")
    return float(out[0]) if size is None else out


def _bartlett_factor_raw(gen: np.random.Generator, beta: int, m: int, nu: float,
                         nsamp: int, law: tuple = None) -> np.ndarray:
    """Lower-triangular Bartlett factor of a standard Wishart(nu, I) draw:
    l_ii^2 ~ Gamma(beta*(nu-i+1)/2, 2/beta), strictly-lower entries standard
    algebra Gaussians.  Near nu = beta*(m-1) the last pivot's gamma draw can
    underflow to 0, which would make the factor singular: ArithmeticError
    names the first such draw and row of the Wishart `law` = (beta, k, nu)
    whose k pivots are the factor's last k, by default the factor's own."""
    lo = np.zeros((nsamp, m, m, beta))
    for i in range(m):
        shape = beta * (nu - i) / 2.0
        lo[:, i, i, 0] = np.sqrt(gen.gamma(shape, 2.0 / beta, size=nsamp))
        if i > 0:
            lo[:, i, :i, :] = _std_normal_raw(gen, beta, (nsamp, i))
    b, k, v = law or (beta, m, nu)
    def problem(i):
        row = i + k - m
        return (f"has a Bartlett pivot l_{row}{row}^2 ~ Gamma({b * (v - row) / 2.0:g}, "
                f"{2.0 / b:g}) that underflowed to 0 in row {row}; the {k}x{k} Wishart's "
                f"nu = {v:g} is too close to its edge beta*({k}-1) = {b * (k - 1)}")
    _check_gamma_draws(lo.reshape(nsamp, -1)[:, ::(m + 1) * beta], problem)   # l_ii, i < m
    return lo


def sample_wishart(rng: RngStream, params: WishartParams, method: str = "bartlett",
                   size: int | None = None):
    """Wishart draw by the Bartlett factorization (any real nu in the domain)
    or by the Gram construction Y Y* (integer nu >= m only)."""
    tag, image = params.tag, _computed(params)
    nsamp, gen, beta = 1 if size is None else int(size), rng.generator, image.tag.beta
    if method == "bartlett":
        c = _bartlett_factor_raw(gen, beta, image.m, image.nu, nsamp, (tag.beta, params.m, params.nu))
    elif method == "gram":
        if int(params.nu) != params.nu or params.nu < params.m:
            raise DomainError("gram construction requires integer nu >= m")
        c = _std_normal_raw(gen, beta, (nsamp, image.m, int(image.nu)))
    else:
        raise ValueError(f"unknown Wishart method {method!r}")
    return _wrap_single(tag, _gram_raw(c, image.Xi._factor_reps[0]), size, hermitian=True)


def _add_mu(t: np.ndarray, mu: DivMatrix) -> np.ndarray:
    """t + mu, added in place into the sampler's own array t, which is
    returned; an exactly zero mu is not added (the draws, never exactly
    zero, would come back unchanged).  `np.count_nonzero` tests it in a
    third of the time of `.any()`, which shows in single draws."""
    if np.count_nonzero(mu.data):
        t += mu.data
    return t


def sample_matric_t(rng: RngStream, params: MatricTParams,
                    method: str = "wishart_root", size: int | None = None):
    """Matricvariate T draw.

    method "wishart_root" uses T = L^-* Y + mu with L L* ~ Wishart(nu, Xi),
    the upper factor L* solved, so that T - mu given W = L L* has row
    covariance W^-1 (see MatricTParams).  L is composed directly as
    L_Xi * Bartlett: a product of lower triangulars with real positive
    diagonals is again one, so no refactorization is needed;
    method "inverse_root" uses T = X L1^-1 + mu with L1 L1* ~
    Wishart(nu+n-m, Sigma^-1) and X row-scaled by Xi^-1.  Both target the
    same law; the verify suite checks them against each other.

    The construction is one `_solve_raw` call by the scales' cached factors
    (`HermitianPD._factor_reps`, `_inverse_factor_reps`): a draw embeds its
    random matrices once, and a single draw unembeds T once.  An identity
    scale's product or solve and an exactly zero mu's add are skipped, as
    exact copies of their inputs, so a standard record costs one solve.
    """
    user, params = params, _computed(params)
    beta = params.tag.beta
    m, n = params.m, params.n
    nsamp, gen = 1 if size is None else int(size), rng.generator
    if method == "wishart_root":
        lo = _bartlett_factor_raw(gen, beta, m, params.nu, nsamp, (user.tag.beta, user.m, user.nu))
        t = _solve_raw(lo, _std_normal_raw(gen, beta, (nsamp, m, n)),
                       params.Xi._factor_reps, params.Sigma._factor_reps[1])
    elif method == "inverse_root":
        nu_u = params.nu + n - m
        if not nu_u > beta * (n - 1):
            raise DomainError(
                f"inverse_root requires nu+n-m > beta*(n-1) = {beta * (n - 1)}"
            )
        lu = _bartlett_factor_raw(gen, beta, n, nu_u, nsamp,
                                  (user.tag.beta, user.n, user.nu + user.n - user.m))
        t = _solve_raw(None, _std_normal_raw(gen, beta, (nsamp, m, n)),
                       params.Xi._factor_reps,
                       post=(lu, params.Sigma._inverse_factor_reps))
    else:
        raise ValueError(f"unknown matricvariate T method {method!r}")
    return _wrap_single(user.tag, _add_mu(t, params.mu), size)


def sample_beta2_matric(rng: RngStream, params: BetaIIParams,
                        size: int | None = None):
    """The min(m, n) square gram of a standard matricvariate T draw: T T*
    (gram) or, for a tall T, T* T (cogram); an octonion T must be a row."""
    if params.scale is not None:
        raise ValueError("sampling is defined for the standard form only (scale=None)")
    image = _computed(params) if params.m == 1 else params
    tparams = MatricTParams(image.tag, image.m, image.n, image.nu)
    t = sample_matric_t(rng, tparams, size=1 if size is None else size)
    return _wrap_single(params.tag, _gram_raw(t), size, hermitian=True)


def sample_matrix_mt(rng: RngStream, params: MatrixMTParams,
                     size: int | None = None):
    """Matrix multivariate T draw: T1 = S^-1/2 Y + mu, then the congruence
    (M*)^-1 T1 N^-1 mapping identity scales to (Delta, Lambda)."""
    user, params = params, _computed(params)
    beta = params.tag.beta
    m, n = params.m, params.n
    nsamp = 1 if size is None else int(size)
    gen = rng.generator
    s = gen.gamma(beta * params.nu / 2.0, 2.0 * params.rho / beta, size=nsamp)
    b = user.tag.beta   # the record's law, not its real image's
    _check_gamma_draws(s, lambda _: f"has a scale S ~ Gamma({b * user.nu / 2.0:g}, "
                       f"{2.0 * user.rho / b:g}) that underflowed to 0; nu = {user.nu:g} is too small")
    t1 = _std_normal_raw(gen, beta, (nsamp, m, n))
    t1 /= np.sqrt(s)[:, None, None, None]
    t1 = _solve_raw(None, t1, params.Delta._factor_reps,
                    post=(None, params.Lambda._factor_reps))
    return _wrap_single(user.tag, _add_mu(t1, params.mu), size)


def sample_elliptical_t(rng: RngStream, params: EllipticalTParams,
                        size: int | None = None):
    """Matricvariate T built from an elliptical (scale-mixture) source.

    One global scale multiplies the whole m x (n+nu) Gaussian block per draw;
    T = L^-* Y1 with L L* = Y2 Y2*, the upper factor solved as in
    `sample_matric_t`'s "wishart_root".  The returned matrices are distributed
    standard matricvariate T regardless of the mixture, which is exactly the
    invariance property the verify suite tests.
    """
    tag, params = params.tag, _computed(params)
    m, n, nu = params.m, params.n, int(params.nu)
    nsamp = 1 if size is None else int(size)
    gen = rng.generator
    if len(params.weights) == 1:
        scale = np.full(nsamp, params.scales[0])
    else:
        comp = gen.choice(len(params.weights), p=params.weights, size=nsamp)
        scale = np.asarray(params.scales)[comp]
    y = _std_normal_raw(gen, params.tag.beta, (nsamp, m, n + nu))
    y *= scale[:, None, None, None]
    y1, y2 = y[:, :, :n, :], y[:, :, n:, :]
    t = _solve_raw(_cholesky_raw(_gram_raw(y2)), y1)
    return _wrap_single(tag, t, size)


# ---------------------------------------------------------------------------
# Log densities.  Each takes one point (a DivMatrix, or for the beta II laws
# also a HermitianPD), giving a float, or an (N, rows, cols, beta) stack of
# points, giving an (N,) array, through one code path: the raw kernels take
# any leading axes, so one point simply has none.  A point with a NaN or inf
# coefficient is refused by `_points`, naming its index.  The pieces that do
# not depend on the point are computed once per parameter record and cached
# on it as `_density_terms` (a matric-t record's each form's on its first
# use, a beta II record's as `_matric_terms` and `_mv_terms`, one per law):
# an attribute, not a dataclass field, so it stays out of ==, repr and the
# JSON.  The records cache their constant factors and bases in the complex
# representation, which their kernels read, so a call embeds only its
# points once: the matric-t bracket is `_logdet_gram_raw`, the matrix-mt
# trace `_product_raw`'s, and both beta II laws read one eigendecomposition
# per point (`_beta2_logpdf`).
# A point's logs are numpy's log or log1p of positive-stride arrays (a
# reversed 1-D array takes another log), so a point gives a stack's bits.
# ---------------------------------------------------------------------------


def _points(params, t, shape: tuple) -> tuple:
    """(coefficients, single) of one point or of a stack of points, checked
    against the point shape (rows, cols) over the record's algebra.  A point
    with a NaN or inf coefficient is refused (ValueError naming it); a stack
    of the wrong shape is refused at its first point (the error's `index` is
    0, as `_raise_at` sets it)."""
    if isinstance(t, DivMatrix):
        x, single = t.data, True
        ok = t.tag == params.tag and t.shape == shape
    elif isinstance(t, np.ndarray):
        x, single = np.asarray(t, dtype=float), False
        ok = x.shape[1:] == shape + (params.tag.beta,)
    else:
        raise TypeError("the evaluation point must be a DivMatrix, or a stack "
                        "of points as an (N, rows, cols, beta) array")
    if not ok:
        exc = ValueError(f"point shape/algebra mismatch: expected "
                         f"{shape[0]}x{shape[1]} over {params.tag.name}")
        exc.index = None if single else 0
        raise exc
    _refuse_non_finite(x, "the evaluation point")
    return x, single


class _OnFirstUse(dict):
    """key -> build(key), each value built on its key's first lookup."""

    def __init__(self, build):
        super().__init__()
        self._build = build

    def __missing__(self, key):
        value = self[key] = self._build(key)
        return value


def _matric_t_terms(params: MatricTParams, form: str) -> tuple:
    """(q, factor, base, const) of logpdf_matric_t's form, whose kernel is
    |base + g* g|^-q: primal g = M* (T-mu)*, M M* = Sigma^-1, with factor M*
    and base Xi^-1, dual g = L_Xi* (T-mu) with factor L_Xi* and base Sigma.
    factor and base are embedded once, as `_logdet_gram_raw` reads them:
    each factor is its scale's cached one (`HermitianPD._inverse_factor_reps`
    of Sigma, `_factor_reps` of Xi), None when the scale is exactly I, so
    its exact-copy product is skipped."""
    tag = params.tag
    beta = tag.beta
    m, n, nu = params.m, params.n, params.nu
    q = beta * (n + nu) / 2.0
    if form == "primal":
        const = (
            log_mvgamma(tag, m, q)
            - m * n * beta / 2.0 * _LOG_PI
            - log_mvgamma(tag, m, beta * nu / 2.0)
            - beta * nu / 2.0 * params.Xi.logdet
            - beta * m / 2.0 * params.Sigma.logdet
        )
        return (q, params.Sigma._inverse_factor_reps[1],
                _complex_embed_raw(_hpd_inverse_raw(params.Xi.mat.data)), const)
    const = (
        log_mvgamma(tag, n, q)
        + beta * n / 2.0 * params.Xi.logdet
        + beta * (n + nu - m) / 2.0 * params.Sigma.logdet
        - m * n * beta / 2.0 * _LOG_PI
        - log_mvgamma(tag, n, beta * (n + nu - m) / 2.0)
    )
    return q, params.Xi._factor_reps[1], _complex_embed_raw(params.Sigma.mat.data), const


def logpdf_matric_t(params: MatricTParams, t, form: str = "primal"):
    """Log density of the matricvariate T law.

    The primal form carries the kernel |Xi^-1 + (T-mu) Sigma^-1 (T-mu)*|,
    the dual form |Sigma + (T-mu)* Xi (T-mu)|; they agree identically (the
    dimension-swap gamma identity plus a determinant identity) and both are
    kept as a cross-check.  Each is g* g of one product, and neither solves:
    primal g = M* (T-mu)* with M M* = Sigma^-1, dual g = L_Xi* (T-mu).
    beta = 8 is permitted only at m = n = 1.
    """
    if form not in ("primal", "dual"):
        raise ValueError("form must be 'primal' or 'dual'")
    q, factor, base, const = params._density_terms[form]
    x, single = _points(params, t, (params.m, params.n))
    a = _real_image(x - params.mu.data)
    if form == "primal":
        a = _conj_t_raw(a)
    out = const - q * _logdet_gram_raw(base, a, factor)
    return float(out) if single else out


def _beta2_terms(params: BetaIIParams, law: str) -> tuple:
    """(`spectral._coupling`'s terms, congruence) of `_beta2_logpdf` for one
    law, at G = M* F M: "matric" takes M M* = scale^-1, |scale + F| = |scale|
    |I + G|, "mv" M M* = scale, tr(scale F) = tr G.  const gains the Jacobian
    |M M*|^(beta(d-1)/2 + 1), and congruence is ((M*, M) of the scale's cached
    factors, the binary exponent of |M M*|, cond(scale)), or ((), 0, 1).  A
    "matric" nu at most m - 1 (the wide law's d - 1) raises DomainError."""
    tag = params.tag
    m, n, nu = params.m, params.n, params.nu
    d, _, nu_wide = _wide(m, n, nu, trace=False)
    matric = law == "matric"
    if matric and not nu_wide > d - 1:
        raise DomainError(f"the matricvariate beta II law requires "
                          f"nu > m - 1 = {m - 1}, got nu = {nu}")
    if tag.beta == 8:
        return _beta2_terms(_octonion_image(params, law), law)
    q, exp_f, const = _coupling(tag, m, n, nu, trace=not matric)
    congruence = ((), 0, 1.0)
    if params.scale is not None:
        jacobian = (tag.beta * (d - 1) / 2.0 + 1.0) * params.scale.logdet
        h, w = params.scale, _eigvalsh_raw(params.scale.mat.data)
        if matric:
            const -= jacobian
            reps, size = h._inverse_factor_reps, 1.0 / w[-1]
        else:
            const += jacobian
            reps, size = h._factor_reps, w[0]
        congruence = ((reps[1], reps[0]), int(np.frexp(size)[1]), w[0] / w[-1])
    return (q, exp_f, const), congruence


def _beta2_logpdf(params: BetaIIParams, f, terms: tuple, trace: bool):
    """`spectral._coupling_logpdf` at the eigenvalues lambda of G = M* F M of
    points F `_scaled` by 2^-t, t the binary exponent of F's largest
    coefficient plus that of |M M*|, with `_beta2_terms`' terms.  The cone
    test measures lambda_min against 1e-12 |lambda|_max, the interior bound
    divided and the outside one multiplied by kappa = cond(scale), the most a
    congruence moves an eigenvalue ratio.  Outside the cone the density is
    zero; on its boundary exp_f > 0 gives zero, exp_f = 0 a finite limit (an
    eigenvalue below 0 counting as 0) and exp_f < 0 a DomainError."""
    coupling, (factor, shift, kappa) = terms
    d, exp_f = params.dim, coupling[1]
    x, single = _points(params, f.mat if isinstance(f, HermitianPD) else f, (d, d))
    data = _real_image(_hermitian_part(x, "the evaluation point"), hermitian=True)
    data, t = _scaled(data, np.frexp(_largest_coefficients(data))[1] + shift)
    lam = _eigvalsh_raw(data, *factor)
    low = lam[..., -1]
    interior = low > 1e-12 / kappa * lam[..., 0]    # lambda_max = |lambda|_max there
    inside = interior.all()
    if not inside:
        top = np.maximum(lam[..., 0], -low)
        boundary = ~interior & (low >= -1e-12 * kappa * top)
        if exp_f < 0.0 and boundary.any():
            _raise_at(DomainError, _stack_index(boundary), "the density",
                      "diverges on the boundary of the positive definite cone")
        lam = np.maximum(lam, 0.0)
    with np.errstate(divide="ignore"):  # log 0 = -inf only where the density is zero or exp_f = 0
        out = _coupling_logpdf(lam, np.log(lam), t, coupling, trace)
    if not inside:
        out = np.where(interior | (boundary & (exp_f == 0.0)), out, -math.inf)
    return float(out) if single else out


def logpdf_beta2_matric(params: BetaIIParams, f):
    """Log density of the matricvariate beta type II law (determinant kernel).

    With a scale present the nonstandardised form replaces I + F by scale + F
    and multiplies by |scale|^(beta*nu'/2).  The law needs nu > m - 1 in
    both orientations; a smaller nu raises DomainError.
    """
    return _beta2_logpdf(params, f, params._matric_terms, trace=False)


def _matrix_mt_terms(params: MatrixMTParams) -> tuple:
    """(q1, left, right, const) of logpdf_matrix_mt: the kernel's exponent,
    its congruence factors L_Delta* and L_Lambda, and the constant.  The
    factors are cached embedded, as `_product_raw` reads them, and None
    when their scale is exactly I."""
    tag = params.tag
    beta = tag.beta
    m, n, nu = params.m, params.n, params.nu
    q1 = beta * (nu + m * n) / 2.0
    const = (
        log_gamma(q1)
        + beta * m * n / 2.0 * (math.log(params.rho) - _LOG_PI)
        - log_gamma(beta * nu / 2.0)
        + beta * n / 2.0 * params.Delta.logdet
        + beta * m / 2.0 * params.Lambda.logdet
    )
    return q1, params.Delta._factor_reps[1], params.Lambda._factor_reps[0], const


def logpdf_matrix_mt(params: MatrixMTParams, t):
    """Log density of the matrix multivariate T law (trace kernel):

        const * [1 + rho * tr Delta (T-mu) Lambda (T-mu)*]^(-beta(nu+mn)/2).
    """
    q1, left, right, const = params._density_terms
    x, single = _points(params, t, (params.m, params.n))
    trace = _frobenius_sq_raw(_product_raw(_real_image(x - params.mu.data), left, right))
    out = const - q1 * np.log1p(params.rho * trace)
    return float(out) if single else out


def logpdf_beta2_multivariate(params: BetaIIParams, f):
    """Log density of the matrix multivariate beta type II law (trace kernel
    (1 + tr F)^(-beta(nu+mn)/2)), at every nu > 0; a scale gives the
    nonstandardised bracket (1 + tr scale*F) and the factor |scale|^(beta
    n/2) (m/2 for cogram)."""
    return _beta2_logpdf(params, f, params._mv_terms, trace=True)


# ---------------------------------------------------------------------------
# Radial reductions of the standard row (1 x n) cases.
#
# For 1 x n matrices with identity scales both T kernels depend on the point
# only through its Frobenius norm r, so the density is a function of the
# radius alone, valid for every beta including 8 where matrix evaluation is
# unavailable.  The quadrature normalization checks integrate these.
# ---------------------------------------------------------------------------


def radial_logpdf_matric_t(tag: AlgebraTag, n: int, nu: float, r: float) -> float:
    """Standard 1 x n matricvariate T log density at Frobenius radius r: at
    m = 1 both kernels are (1 + r^2)^(-beta(n+nu)/2), so it is the matrix
    multivariate T's at rho = 1."""
    return radial_logpdf_matrix_mt(tag, n, nu, 1.0, r)


def radial_logpdf_matrix_mt(tag: AlgebraTag, n: int, nu: float, rho: float,
                            r: float) -> float:
    """Standard 1 x n matrix multivariate T log density at radius r."""
    beta = AlgebraTag(tag).beta
    if not (nu > 0 and rho > 0):
        raise DomainError("require nu > 0 and rho > 0")
    const = (
        log_gamma(beta * (nu + n) / 2.0)
        + beta * n / 2.0 * (math.log(rho) - _LOG_PI)
        - log_gamma(beta * nu / 2.0)
    )
    return const - beta * (nu + n) / 2.0 * math.log1p(rho * r * r)


# ---------------------------------------------------------------------------
# The law table: family -> (record, sampler, density, overlays, hermitian).
# The sampler gives an (N,) array of scalar draws or an (N, m, n, beta)
# stack; the overlays are the standard law's spectral log densities by kind
# ("singular", "eigen"); hermitian says whether the draws are Hermitian.
# An entry is None where the family has none.
# ---------------------------------------------------------------------------

_Family = namedtuple("_Family", "record sampler density overlays hermitian")
_FAMILIES = {
    "matric-t": _Family(
        MatricTParams, sample_matric_t, logpdf_matric_t,
        {"singular": log_joint_sv_matric_t, "eigen": log_joint_eig_beta2}, False),
    "matrix-mt": _Family(
        MatrixMTParams, sample_matrix_mt, logpdf_matrix_mt,
        {"singular": log_joint_sv_matrix_mt, "eigen": log_joint_eig_mv}, False),
    "wishart": _Family(WishartParams, sample_wishart, None, None, True),
    "gamma": _Family(GammaScalarParams, sample_gamma_scalar, None, None, False),
    "gaussian": _Family(GaussianParams, sample_gaussian, None, None, False),
    "beta2-matric": _Family(
        BetaIIParams, sample_beta2_matric, logpdf_beta2_matric,
        {"eigen": log_joint_eig_beta2}, True),
    "beta2-mv": _Family(BetaIIParams, None, logpdf_beta2_multivariate, None, False),
    "elliptical-t": _Family(
        EllipticalTParams, sample_elliptical_t, None,
        {"singular": log_joint_sv_matric_t}, False),
}
