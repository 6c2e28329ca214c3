import math

import pytest
from scipy.special import gammaln

from rdmt.algebra import AlgebraTag
from rdmt.errors import DomainError
from rdmt.special import (
    log_gamma,
    log_gamma_ratio_identity_gap,
    log_mvbeta,
    log_mvgamma,
    stiefel_log_volume,
    tau,
)

R, C, H, O = AlgebraTag.REAL, AlgebraTag.COMPLEX, AlgebraTag.QUATERNION, AlgebraTag.OCTONION

# Reference values computed with a 50-digit arbitrary-precision oracle.
_LGAMMA_REFERENCE = (
    (0.5, 0.5723649429247001),
    (0.75, 0.20328095143129538),
    (1.0, 0.0),
    (1.5, -0.12078223763524522),
    (2.0, 0.0),
    (3.0, 0.6931471805599453),
    (4.5, 2.4537365708424423),
    (6.0, 4.787491742782046),
    (8.25, 9.033186919605123),
    (10.0, 12.801827480081469),
    (14.5, 23.862765841689086),
    (20.0, 39.339884187199495),
    (27.5, 62.90499082887651),
    (40.0, 106.63176026064346),
    (55.0, 164.32011226319517),
    (75.0, 247.57291409618688),
    (100.0, 359.1342053695754),
    (130.0, 501.2652908915793),
    (165.0, 675.8474740397369),
    (200.0, 857.9336698258575),
)


class TestLogGamma:
    @pytest.mark.parametrize("x,expected", _LGAMMA_REFERENCE)
    def test_reference_values(self, x, expected):
        assert abs(log_gamma(x) - expected) <= 1e-13 * max(1.0, abs(expected))

    def test_against_library_oracle(self, rng):
        xs = rng.uniform(0.01, 180.0, size=2000)
        for x in xs:
            ref = gammaln(x)
            assert abs(log_gamma(float(x)) - ref) <= 1e-12 * max(1.0, abs(ref))

    def test_domain(self):
        with pytest.raises(DomainError):
            log_gamma(0.0)
        with pytest.raises(DomainError):
            log_gamma(-1.5)


class TestMultivariateGamma:
    def test_reduces_to_gamma_half(self):
        for tag in (R, C, H, O):
            assert math.isclose(log_mvgamma(tag, 1, 0.5),
                                math.log(math.sqrt(math.pi)), rel_tol=1e-14)

    def test_real_two_by_two(self):
        # sqrt(pi) * Gamma(2) * Gamma(3/2) = pi/2
        assert math.isclose(log_mvgamma(R, 2, 2.0),
                            math.log(math.pi / 2.0), rel_tol=1e-13)

    def test_quaternion_two_by_two(self):
        # pi^2 * Gamma(3) * Gamma(1) = 2 pi^2
        assert math.isclose(log_mvgamma(H, 2, 3.0),
                            math.log(2.0 * math.pi ** 2), rel_tol=1e-13)

    def test_recurrence_m1(self, rng):
        for tag in (R, C, H, O):
            for a in rng.uniform(0.2, 40.0, size=50):
                lhs = log_mvgamma(tag, 1, a + 1.0)
                rhs = math.log(a) + log_mvgamma(tag, 1, a)
                assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))

    @pytest.mark.parametrize("tag", [R, C, H, O])
    def test_m2_product_formula(self, rng, tag):
        beta = tag.beta
        for _ in range(20):
            a = beta / 2.0 + rng.uniform(0.1, 10.0)
            direct = (math.log(math.pi) * beta / 2.0
                      + log_gamma(a) + log_gamma(a - beta / 2.0))
            assert abs(log_mvgamma(tag, 2, a) - direct) < 1e-12

    def test_domain_condition(self):
        with pytest.raises(DomainError, match=r"a > \(m-1\)\*beta/2 = 4.0, got a = 3.9"):
            log_mvgamma(H, 3, 3.9)
        with pytest.raises(ValueError, match="m must be a positive integer"):
            log_mvgamma(R, 0, 1.0)


class TestMultivariateBeta:
    def test_classical_reduction(self):
        # B(a, b) for m = 1
        val = log_mvbeta(R, 1, 2.0, 3.0)
        ref = gammaln(2.0) + gammaln(3.0) - gammaln(5.0)
        assert math.isclose(val, ref, rel_tol=1e-13)

    def test_real_m2_value(self):
        # (pi/2)^2 / (3 pi / 2) = pi/6
        assert math.isclose(log_mvbeta(R, 2, 1.5, 1.5), math.log(math.pi / 6.0),
                            rel_tol=1e-12)

    def test_symmetry_exact(self, rng):
        for _ in range(30):
            a, b = rng.uniform(2.0, 9.0, size=2)
            assert log_mvbeta(H, 2, a, b) == log_mvbeta(H, 2, b, a)


class TestStiefelVolume:
    def test_circle(self):
        assert math.isclose(stiefel_log_volume(R, 1, 2), math.log(2 * math.pi),
                            rel_tol=1e-14)

    def test_sphere(self):
        assert math.isclose(stiefel_log_volume(R, 1, 3), math.log(4 * math.pi),
                            rel_tol=1e-14)

    def test_complex_unit_circle(self):
        assert math.isclose(stiefel_log_volume(C, 1, 1), math.log(2 * math.pi),
                            rel_tol=1e-14)

    def test_requires_n_ge_m(self):
        with pytest.raises(ValueError):
            stiefel_log_volume(R, 3, 2)


class TestTau:
    def test_case_table(self):
        assert tau(R, 5) == 0
        assert tau(C, 3) == -3
        assert tau(H, 3) == -6
        assert tau(O, 2) == -8


class TestGammaRatioIdentity:
    def test_equal_dims_exact_zero(self):
        assert log_gamma_ratio_identity_gap(R, 3, 3, 4.7) == 0.0

    def test_complex_case(self):
        assert abs(log_gamma_ratio_identity_gap(C, 2, 3, 4.0)) < 1e-10

    def test_octonion_case(self):
        assert abs(log_gamma_ratio_identity_gap(O, 2, 3, 10.0)) < 1e-10

    def test_random_admissible(self, rng):
        worst = 0.0
        for _ in range(200):
            tag = AlgebraTag(int(rng.choice([1, 2, 4, 8])))
            m = int(rng.integers(1, 6))
            n = int(rng.integers(1, 6))
            nu = (m - 1) + float(rng.uniform(0.25, 6.0))
            worst = max(worst, abs(log_gamma_ratio_identity_gap(tag, m, n, nu)))
        assert worst < 1e-10

    def test_domain_violation(self):
        with pytest.raises(DomainError):
            log_gamma_ratio_identity_gap(R, 4, 2, 1.0)  # nu <= m-1
