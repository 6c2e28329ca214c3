"""The power-of-two equivariance of the log densities.

Let c = 2^k, which scales a double exactly.  Each law of the law table
that has a density moves with its scales: a point T of the law with
parameters P is, scaled by c, a point of the law with scaled parameters P',
so that

    logpdf(P', c T) + J k log 2 = logpdf(P, T),

J the real dimension of the point's space:

* matric-t (both forms): Sigma -> c1^2 Sigma and Xi -> Xi / c2^2 scale
  T - mu by c = c1 c2, and mu -> c mu; J = beta m n;
* matrix-mt: rho -> rho / c^2 and mu -> c mu; J = beta m n;
* beta2-matric: scale -> c scale; beta2-mv: scale -> scale / c; both F ->
  c F, with J = d + beta d(d - 1)/2 on the d x d Hermitian cone.

A scaled record's constants come from its scales' cached factors, so the
oracle sees a factor, or its inverse's factor, that goes astray under
scale, at any k that keeps c^2 and c^-2 normal doubles.  A beta II point's
refusal (not Hermitian) and its place against the cone (outside, on the
boundary) must not change with k either.

The decision rules under them measure each tolerance against the size of
the matrix or spectrum at hand, so at c = 4^k = 2^(2k) they decide alike
at every k: `HermitianPD` accepts or refuses c A as it does A (not
Hermitian, not positive definite, non-finite), and then its factor is 2^k
times A's; the quaternion adjoint's pair collapse and `SpectrumSample`'s
tie test give the same answer.  The spectra of c A are c times A's: bit
for bit on the closed forms (the 1x1 octonion, and stacks of at most two
rows or columns for singular values), and within 64 eps of the largest
value on LAPACK's, whose own rescaling of a very large or small matrix is
not a power of two (30000 random cases at |2k| of 400 to 500 moved by at
most 9.3 eps; 300 cases at |2k| <= 300 moved by none)."""

import math
import warnings

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from rdmt.algebra import (
    PAIR_COLLAPSE_RTOL,
    AlgebraTag,
    DivMatrix,
    HermitianPD,
    _collapse_pairs,
    _conj_t_raw,
    _hermitize_raw,
    _identity_raw,
    _matmul_raw,
)
from rdmt.distributions import _FAMILIES, BetaIIParams, MatricTParams, MatrixMTParams
from rdmt.spectral import (
    TIE_RTOL,
    SpectrumSample,
    eigenvalues_batch,
    empirical_spectrum,
    singular_values_batch,
)

from conftest import random_hpd

R, C, H, O = AlgebraTag.REAL, AlgebraTag.COMPLEX, AlgebraTag.QUATERNION, AlgebraTag.OCTONION

# the law table's rows with a density, matric-t in both its forms
LAWS = [("matric-t", {"form": "primal"}), ("matric-t", {"form": "dual"}),
        ("matrix-mt", {}), ("beta2-matric", {}), ("beta2-mv", {})]
SHAPES = [(R, 2, 3), (R, 3, 2), (C, 2, 3), (C, 3, 2), (H, 2, 3), (H, 3, 2), (O, 1, 1)]
# |k| of each scaled factor: c^2 and c^-2 stay normal doubles, with room
# for the scales' own sizes.  matric-t splits k between Sigma and Xi, both
# moving T the same way, so |k| reaches 900.  (Scales pulled in opposite
# directions, c1 = 1/c2, leave c near 1 but cancel log-determinants of
# size |k1| log 2 in the density's constant, whose last bits then exceed
# the bound relative to |logpdf|: 1.7e-13 at k1 = -k2 = 400.)
K_MAX = 450
GAP = 1e-13


def _scaled(h: HermitianPD, power: int) -> HermitianPD:
    return HermitianPD(DivMatrix(h.tag, np.ldexp(h.mat.data, power)))


def _law(name: str, tag, m: int, n: int, gen):
    """(record, points, J) of law `name`: record(k1, k2) scales the law's
    parameters as the module docstring says for c = 2^(k1 + k2), where k2
    only splits matric-t's k, and points are the law's points at c = 1."""
    beta = tag.beta
    if name.startswith("beta2"):
        d = min(m, n)
        # the matricvariate law needs nu > m - 1, the mv law only nu > 0
        nu = (m - 1 if name == "beta2-matric" else 0) + gen.uniform(0.5, 6.0)
        scale = random_hpd(gen, tag, d)
        sign = 1 if name == "beta2-matric" else -1
        points = np.stack([random_hpd(gen, tag, d).mat.data for _ in range(4)])

        def record(k1, k2):
            return BetaIIParams(tag, m, n, nu, scale=_scaled(scale, sign * (k1 + k2)))

        return record, points, d + beta * d * (d - 1) // 2
    mu = gen.normal(size=(m, n, beta))
    points = mu + gen.normal(size=(4, m, n, beta))
    if name == "matrix-mt":
        nu, rho = gen.uniform(0.5, 6.0), gen.uniform(0.5, 2.0)
        delta, lam = random_hpd(gen, tag, m), random_hpd(gen, tag, n)

        def record(k1, k2):
            k = k1 + k2
            return MatrixMTParams(tag, m, n, nu, math.ldexp(rho, -2 * k),
                                  DivMatrix(tag, np.ldexp(mu, k)), delta, lam)

        return record, points, beta * m * n
    nu = beta * (m - 1) + gen.uniform(0.5, 6.0)
    xi, sigma = random_hpd(gen, tag, m), random_hpd(gen, tag, n)

    def record(k1, k2):
        return MatricTParams(tag, m, n, nu, DivMatrix(tag, np.ldexp(mu, k1 + k2)),
                             _scaled(xi, -2 * k2), _scaled(sigma, 2 * k1))

    return record, points, beta * m * n


def _edge_points(tag, d: int) -> dict:
    """Beta II points whose decision must not move with k: outside the
    cone, on its boundary, and not Hermitian."""
    beta = tag.beta
    outside, boundary = np.zeros((d, d, beta)), np.zeros((d, d, beta))
    outside[0, 0, 0], boundary[0, 0, 0] = 1.0, 1.0
    outside[-1, -1, 0] = -0.5
    not_hermitian = np.array(boundary)
    if d > 1:
        not_hermitian[0, 1, 0] = 0.5    # and [1, 0] stays 0
    else:
        not_hermitian[0, 0, 1] = 0.5    # a 1x1 with an imaginary part
    return {"outside": outside, "boundary": boundary, "not hermitian": not_hermitian}


def _outcome(logpdf, params, point):
    """(the error type raised, or None; the value, or None)."""
    try:
        return None, logpdf(params, DivMatrix(params.tag, point))
    except ValueError as exc:
        return type(exc), None


def _assert_moved_by_jacobian(moved, base, jacobian):
    bound = GAP * np.maximum(np.abs(base), abs(jacobian))
    assert np.all(np.abs(moved + jacobian - base) <= bound), (moved, base, jacobian)


def test_every_row_with_a_density_is_scaled():
    assert {name for name, _ in LAWS} == {
        name for name, row in _FAMILIES.items() if row.density is not None}


@settings(max_examples=60, deadline=None)
@given(law=st.sampled_from(LAWS), shape=st.sampled_from(SHAPES),
       seed=st.integers(0, 2**32 - 1), k1=st.integers(-K_MAX, K_MAX),
       k2=st.integers(-K_MAX, K_MAX))
def test_power_of_two_scaling_moves_logpdf_by_its_jacobian(law, shape, seed, k1, k2):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _check_equivariance(law, shape, seed, k1, k2)


def _check_equivariance(law, shape, seed, k1, k2):
    (name, options), (tag, m, n) = law, shape
    if name == "matric-t":
        k2 = abs(k2) if k1 >= 0 else -abs(k2)
    else:
        k2 = 0    # one scaled factor: keep c^2 and c^-2 normal
    gen = np.random.default_rng(seed)
    record, points, dim = _law(name, tag, m, n, gen)
    density = _FAMILIES[name].density

    def logpdf(params, t):
        return density(params, t, **options)

    k = k1 + k2
    jacobian = dim * k * math.log(2.0)
    base_params, params = record(0, 0), record(k1, k2)
    base = logpdf(base_params, points)
    assert np.all(np.isfinite(base))
    _assert_moved_by_jacobian(logpdf(params, np.ldexp(points, k)), base, jacobian)
    if not name.startswith("beta2"):
        return
    for what, point in _edge_points(tag, min(m, n)).items():
        error, value = _outcome(logpdf, base_params, point)
        moved_error, moved = _outcome(logpdf, params, np.ldexp(point, k))
        assert moved_error is error, what
        if value is not None and np.isfinite(value):
            _assert_moved_by_jacobian(moved, value, jacobian)
        else:
            assert moved == value, what


# -- the decision rules at c = 4^k.  |k| <= 250 keeps c A, its factor and
# its spectra normal doubles; LAPACK rescales a matrix past about 2^+-460.
K4_MAX = 250
LAPACK_RTOL = 64 * np.finfo(float).eps
MATRICES = ["positive definite", "rank one", "indefinite", "not hermitian",
            "at the hermitian tolerance", "non-finite"]


def _matrix(kind: str, tag, d: int, gen) -> np.ndarray:
    """A d x d matrix over tag, of `kind`: the ones HermitianPD accepts, the
    ones it refuses, and ones whose answer is a toss-up of round-off (rank
    one, a gap at the Hermitian tolerance), which must still not move."""
    beta = tag.beta
    g = gen.normal(size=(d, d, beta))
    # g g* + d I has eigenvalues of at least d, so it is surely positive definite
    a = _hermitize_raw(_matmul_raw(g, _conj_t_raw(g))) + d * _identity_raw(d, beta)
    if kind == "rank one":
        a = _hermitize_raw(_matmul_raw(g[:, :1], _conj_t_raw(g[:, :1])))
    elif kind == "indefinite":
        a[-1, -1, 0] = -abs(a[-1, -1, 0])
    elif kind in ("not hermitian", "at the hermitian tolerance"):
        step = 1e-6 if kind == "not hermitian" else 1e-12
        i, j, part = (0, 1, 0) if d > 1 else (0, 0, beta - 1)
        a[i, j, part] += step * np.abs(a).max()
    elif kind == "non-finite":
        a[0, 0, 0] = np.nan
    return a


def _hpd_outcome(tag, a):
    """(the error type raised, or None; the HermitianPD, or None)."""
    try:
        return None, HermitianPD(DivMatrix(tag, a))
    except ValueError as exc:
        return type(exc), None


@settings(max_examples=60, deadline=None)
@given(tag=st.sampled_from([R, C, H, O]), d=st.integers(1, 3),
       kind=st.sampled_from(MATRICES), seed=st.integers(0, 2**32 - 1),
       k=st.integers(-K4_MAX, K4_MAX))
def test_hermitian_pd_decides_alike_at_every_power_of_four(tag, d, kind, seed, k):
    d = 1 if tag == O else d
    if kind in ("not hermitian", "at the hermitian tolerance") and tag == R and d == 1:
        kind = "positive definite"    # a real 1x1 is Hermitian
    a = _matrix(kind, tag, d, np.random.default_rng(seed))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        error, h = _hpd_outcome(tag, a)
        moved_error, moved = _hpd_outcome(tag, np.ldexp(a, 2 * k))
    assert moved_error is error
    if kind in ("positive definite", "indefinite", "not hermitian", "non-finite"):
        assert (error is None) == (kind == "positive definite")
    if h is not None:
        assert np.array_equal(moved.mat.data, np.ldexp(h.mat.data, 2 * k))
        assert np.array_equal(moved.chol.data, np.ldexp(h.chol.data, k))


def _assert_scaled(moved, base, k, exact):
    """moved == 4^k base: bit for bit, or within LAPACK_RTOL of each
    spectrum's largest |value|."""
    want = np.ldexp(base, 2 * k)
    if exact:
        assert np.array_equal(moved, want)
    else:
        size = np.abs(want).max(axis=-1, keepdims=True)
        assert np.all(np.abs(moved - want) <= LAPACK_RTOL * size)


@settings(max_examples=60, deadline=None)
@given(shape=st.sampled_from(SHAPES + [(R, 3, 4), (C, 4, 3), (H, 3, 3)]),
       seed=st.integers(0, 2**32 - 1), k=st.integers(-K4_MAX, K4_MAX))
def test_spectra_of_a_power_of_four_times_a_matrix(shape, seed, k):
    tag, m, n = shape
    gen = np.random.default_rng(seed)
    x = gen.normal(size=(3, m, n, tag.beta))
    d = min(m, n)
    a = np.stack([_matrix("positive definite", tag, d, gen) for _ in range(3)])
    scalar = tag == O
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _assert_scaled(singular_values_batch(tag, np.ldexp(x, 2 * k)),
                       singular_values_batch(tag, x), k, scalar or d <= 2)
        _assert_scaled(eigenvalues_batch(tag, np.ldexp(a, 2 * k)),
                       eigenvalues_batch(tag, a), k, scalar)
        for kind, one in (("singular", x[0]), ("eigen", a[0])):
            base = empirical_spectrum(DivMatrix(tag, one), kind).values
            moved = empirical_spectrum(DivMatrix(tag, np.ldexp(one, 2 * k)), kind).values
            _assert_scaled(np.array(moved), np.array(base), k, scalar)


# relative gaps at and around each rule's tolerance, where the answer is
# round-off's, and well away from it on both sides
GAPS = [0.0, 0.3, 0.999, 1.0, 1.001, 3.0, 1e6]


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), k=st.integers(-K4_MAX, K4_MAX),
       gaps=st.lists(st.sampled_from(GAPS), min_size=1, max_size=3))
def test_pair_collapse_and_ties_decide_alike(seed, k, gaps):
    gen = np.random.default_rng(seed)
    gaps = np.array(gaps)
    # a descending adjoint spectrum of pairs, of either sign, each split by
    # its gap times the tolerance of its lead: a pair near 0 passes on the
    # spectrum's largest |value|
    lead = gen.uniform(-2.0, 2.0) - 0.5 * np.arange(len(gaps))
    trail = lead - gaps * PAIR_COLLAPSE_RTOL * np.abs(lead)
    vals = np.stack([lead, trail], axis=-1).reshape(-1)
    # a positive spectrum, each step its gap times the tie tolerance of the top
    top = gen.uniform(0.5, 2.0)
    spectrum = top - np.cumsum(np.concatenate([[0.0], gaps])) * (TIE_RTOL * top)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for rule, values in ((_collapse_pairs, vals),
                             (lambda v: SpectrumSample(tuple(v), "eigen").values,
                              spectrum)):
            outcomes = []
            for scale in (0, 2 * k):
                try:
                    outcomes.append((None, np.ldexp(rule(np.ldexp(values, scale)),
                                                    -scale)))
                except (ArithmeticError, ValueError) as exc:
                    outcomes.append((type(exc), None))
            (error, base), (moved_error, moved) = outcomes
            assert moved_error is error
            if error is None:
                assert np.array_equal(np.asarray(moved), np.asarray(base))
