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
boundary) must not change with k either."""

import math
import warnings

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from rdmt.algebra import AlgebraTag, DivMatrix, HermitianPD
from rdmt.distributions import _FAMILIES, BetaIIParams, MatricTParams, MatrixMTParams

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
        # the wide law's nu + n - m (for a tall shape) must exceed d - 1
        nu = d - 1 + max(m - n, 0) + gen.uniform(0.5, 6.0)
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
