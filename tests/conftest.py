import math

import numpy as np
import pytest

from rdmt.algebra import (
    AlgebraTag,
    DivMatrix,
    HermitianPD,
    _hermitize_raw,
    _identity_raw,
    conj_transpose,
    matmul,
)


def random_matrix(rng, tag, m, n, scale=1.0):
    return DivMatrix(tag, scale * rng.normal(size=(m, n, AlgebraTag(tag).beta)))


def random_hpd(rng, tag, m, boost=None):
    """Well-conditioned random Hermitian positive definite matrix."""
    beta = AlgebraTag(tag).beta
    g = rng.normal(size=(m, m, beta))
    if boost is None:
        boost = 0.5 + 0.5 * m
    g = DivMatrix(tag, g)
    a = matmul(g, conj_transpose(g)).data + boost * _identity_raw(m, beta)
    return HermitianPD(DivMatrix(tag, _hermitize_raw(a)))


def random_unitary(rng, tag, m):
    """Random unitary matrix over the algebra via modified Gram-Schmidt."""
    from rdmt.algebra import _conj_coeffs, _mul_coeffs

    beta = AlgebraTag(tag).beta
    g = rng.normal(size=(m, m, beta))
    q = np.zeros_like(g)
    for j in range(m):
        v = g[:, j, :].copy()
        for k in range(j):
            # coefficient <q_k, v> = sum_i conj(q_ik) v_i
            coef = _mul_coeffs(_conj_coeffs(q[:, k, :]), v).sum(axis=0)
            v -= _mul_coeffs(q[:, k, :], np.broadcast_to(coef, q[:, k, :].shape))
        v /= np.sqrt(np.square(v).sum())
        q[:, j, :] = v
    return DivMatrix(tag, q)


# the fields of a legal record of each family of the law table, but its tag
LEGAL_FIELDS = {
    "matric-t": {"m": 2, "n": 3, "nu": 9.0},
    "matrix-mt": {"m": 2, "n": 3, "nu": 3.5, "rho": 0.7},
    "wishart": {"m": 2, "nu": 9.0},
    "gamma": {"nu": 2.5, "rho": 0.7},
    "gaussian": {"m": 2, "n": 3},
    "beta2-matric": {"m": 2, "n": 3, "nu": 9.0},
    "beta2-mv": {"m": 2, "n": 3, "nu": 9.0},
    "elliptical-t": {"m": 2, "n": 3, "nu": 4.0, "weights": (0.5, 0.5),
                     "scales": (1.0, 3.0)},
}


def non_finite_fields():
    """(family, field, value) for each float field of each law-table record
    of `LEGAL_FIELDS` set to +inf, -inf and NaN: a number field as the
    whole value, a tuple field as its first entry."""
    cases = []
    for family, legal in LEGAL_FIELDS.items():
        for name, value in legal.items():
            if isinstance(value, (float, tuple)):
                for bad in (math.inf, -math.inf, math.nan):
                    cases.append((family, name, (bad,) + value[1:]
                                  if isinstance(value, tuple) else bad))
    return cases


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
