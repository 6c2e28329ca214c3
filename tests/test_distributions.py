import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import betainc

from rdmt.algebra import (
    AlgebraTag,
    DivMatrix,
    HermitianPD,
    _complex_embed_raw,
    _complex_unembed_raw,
    _conj_t_raw,
    _eigvalsh_raw,
    _hermitize_raw,
    _identity_raw,
    _matmul_raw,
    conj_transpose,
    hermitian_eigenvalues,
    logdet_hpd,
    matmul,
    singular_values,
)
from rdmt.distributions import (
    BetaIIParams,
    EllipticalTParams,
    GammaScalarParams,
    GaussianParams,
    MatricTParams,
    MatrixMTParams,
    RngStream,
    WishartParams,
    _FAMILIES,
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
    _std_normal_raw,
)
from rdmt.errors import DomainError, OctonionMatrixError
from rdmt.spectral import eigenvalues_batch, singular_values_batch
from rdmt.verify import ks_one_sample, ks_two_sample, moment_check

from conftest import (
    LEGAL_FIELDS,
    non_finite_fields,
    random_hpd,
    random_matrix,
    random_unitary,
)

R, C, H, O = AlgebraTag.REAL, AlgebraTag.COMPLEX, AlgebraTag.QUATERNION, AlgebraTag.OCTONION


class TestRngStream:
    def test_deterministic(self):
        a = RngStream(5, 3).generator.normal(size=8)
        b = RngStream(5, 3).generator.normal(size=8)
        np.testing.assert_array_equal(a, b)

    def test_streams_independent(self):
        a = RngStream(5, 0).generator.normal(size=8)
        b = RngStream(5, 1).generator.normal(size=8)
        assert not np.array_equal(a, b)

    def test_child_deterministic(self):
        a = RngStream(5, 2).child(7).generator.normal(size=4)
        b = RngStream(5, 2).child(7).generator.normal(size=4)
        np.testing.assert_array_equal(a, b)

    def test_children_do_not_collide(self):
        # one stream while a child's number was stream * 1000003 + index + 1
        a, b = RngStream(1, 0).child(1000003), RngStream(1, 1).child(0)
        assert not np.array_equal(a.generator.normal(size=8), b.generator.normal(size=8))
        assert (a.stream, a.path, b.stream, b.path) == (0, (1000003,), 1, (0,))

    def test_children_extend_the_spawn_key(self):
        root = RngStream(5, 2)
        grandchild = root.child(7).child(1)
        assert (grandchild.seed, grandchild.stream, grandchild.path) == (5, 2, (7, 1))
        assert repr(grandchild) == "RngStream(seed=5, stream=2, path=(7, 1))"
        # child i is SeedSequence.spawn's child i of the stream's sequence
        spawned = np.random.SeedSequence(5, spawn_key=(2,)).spawn(2)[1]
        np.testing.assert_array_equal(
            root.child(1).generator.normal(size=4),
            np.random.Generator(np.random.PCG64(spawned)).normal(size=4))
        draws = [s.generator.normal(size=4) for s in
                 (root, root.child(0), root.child(1), root.child(7), grandchild,
                  RngStream(5, 2).child(7).child(1))]
        assert len({d.tobytes() for d in draws[:5]}) == 5
        np.testing.assert_array_equal(draws[4], draws[5])


class TestGaussian:
    def test_zero_mean_single_entry(self):
        y = sample_gaussian(RngStream(1), GaussianParams(C, 1, 1), size=100000)
        se = 1.0 / math.sqrt(2.0 * 100000)
        assert np.abs(y.mean(axis=0)).max() < 4 * se

    def test_unit_entry_norm(self):
        m, n = 2, 3
        y = sample_gaussian(RngStream(2), GaussianParams(H, m, n), size=20000)
        sq = np.square(y).sum(axis=(1, 2, 3))
        res = moment_check(sq, float(m * n), 3.0)
        assert res.passed, res

    def test_determinism(self):
        a = sample_gaussian(RngStream(7, 1), GaussianParams(C, 2, 2), size=10)
        b = sample_gaussian(RngStream(7, 1), GaussianParams(C, 2, 2), size=10)
        np.testing.assert_array_equal(a, b)

    def test_octonion_rejected(self):
        with pytest.raises(OctonionMatrixError):
            GaussianParams(O, 2, 2)


class TestGammaScalar:
    def test_mean(self):
        params = GammaScalarParams(R, 4.0, 2.0)
        s = sample_gamma_scalar(RngStream(4), params, size=100000)
        assert moment_check(s, 8.0, 3.0).passed

    def test_positive(self):
        s = sample_gamma_scalar(RngStream(5), GammaScalarParams(H, 1.5, 0.7),
                                size=10000)
        assert np.all(s > 0)

    def test_octonion_allowed(self):
        s = sample_gamma_scalar(RngStream(6), GammaScalarParams(O, 2.0, 1.0),
                                size=20000)
        assert moment_check(s, 2.0, 3.0).passed

    def test_single_draw_is_float(self):
        assert isinstance(
            sample_gamma_scalar(RngStream(1), GammaScalarParams(R, 2.0, 1.0)),
            float)

    def test_underflowed_draw_is_refused(self):
        # Gamma(0.0005, 2) underflows to 0, outside the support, in most draws
        with pytest.raises(ArithmeticError, match=r"draw at index 1 of "
                           r"Gamma\(0\.0005, 2\) underflowed to 0") as info:
            sample_gamma_scalar(RngStream(1), GammaScalarParams(R, 0.001, 1.0),
                                size=2000)
        assert info.value.index == 1


class TestWishart:
    def test_mean_nu_xi(self):
        params = WishartParams(C, 2, 5.0)
        w = sample_wishart(RngStream(8), params, size=20000)
        mean = w.mean(axis=0)
        se = w.std(axis=0, ddof=1) / math.sqrt(20000)
        expected = 5.0 * np.stack([np.eye(2), np.zeros((2, 2))], axis=-1)
        z = np.abs(mean - expected) / np.where(se > 1e-12, se, 1.0)
        assert z.max() < 3.5

    def test_single_draw_is_hermitian_pd(self):
        w = sample_wishart(RngStream(9), WishartParams(H, 3, 11.0))
        assert isinstance(w, HermitianPD)

    def test_bartlett_vs_gram_top_eigenvalue(self):
        params = WishartParams(R, 2, 6.0)
        rng = RngStream(10)
        wa = sample_wishart(rng, params, "bartlett", size=20000)
        wb = sample_wishart(rng, params, "gram", size=20000)
        ta = np.sort(eigenvalues_batch(R, wa)[:, 0])
        tb = np.sort(eigenvalues_batch(R, wb)[:, 0])
        _, p = ks_two_sample(ta, tb)
        assert p > 0.005

    def test_gram_requires_integer_nu(self):
        with pytest.raises(DomainError):
            sample_wishart(RngStream(1), WishartParams(R, 2, 6.5), "gram")

    def test_domain(self):
        with pytest.raises(DomainError):
            WishartParams(H, 3, 7.5)  # needs nu > beta*(m-1) = 8

    def test_underflowed_bartlett_pivot_is_refused(self):
        # at nu = 1.001 the second pivot is Gamma(0.0005, 2), which underflows
        # to 0 in many draws and would make those draws singular
        with pytest.raises(ArithmeticError, match=r"draw at index \d+ .* "
                           r"Gamma\(0\.0005, 2\) .* in row 1"):
            sample_wishart(RngStream(1), WishartParams(R, 2, 1.001), size=2000)

    def test_octonion_pivot_refusal_names_the_record_law(self):
        # a 1x1 octonion Wishart draws from its real image at nu' = 8 nu, whose
        # pivot is Gamma(0.004, 2); the refusal names the record's Gamma(0.004,
        # 1/4) at nu = 0.001 and its 1x1 Wishart, at the image's draw index
        with pytest.raises(ArithmeticError, match=r"draw at index 36 has a Bartlett "
                           r"pivot l_00\^2 ~ Gamma\(0\.004, 0\.25\) that underflowed "
                           r"to 0 in row 0; the 1x1 Wishart's nu = 0\.001 is too "
                           r"close to its edge beta\*\(1-1\) = 0$") as info:
            sample_wishart(RngStream(1), WishartParams(O, 1, 1e-3), size=50)
        assert info.value.index == 36

    def test_non_integer_nu_scalar_matches_gamma_law(self):
        # generalized Bartlett at m = 1 must reproduce the analytic scalar
        # law Gamma(beta*nu/2, 2/beta) for fractional nu
        from scipy.stats import gamma as gamma_dist

        nu = 3.7
        w = sample_wishart(RngStream(27), WishartParams(C, 1, nu),
                           size=30000)[:, 0, 0, 0]
        cdf = lambda x: gamma_dist.cdf(x, a=nu, scale=1.0)  # beta=2: shape nu
        _, p = ks_one_sample(np.sort(w), cdf)
        assert p > 0.005


class TestMatricTSampler:
    def test_scalar_cauchy_ks(self):
        t = sample_matric_t(RngStream(11), MatricTParams(R, 1, 1, 1.0),
                            size=50000)[:, 0, 0, 0]
        _, p = ks_one_sample(np.sort(t), lambda x: 0.5 + np.arctan(x) / math.pi)
        assert p > 0.005

    def test_methods_agree(self):
        params = MatricTParams(C, 2, 3, 5.0)
        rng = RngStream(12)
        a = sample_matric_t(rng, params, "wishart_root", size=20000)
        b = sample_matric_t(rng, params, "inverse_root", size=20000)
        sa = singular_values_batch(C, a)
        sb = singular_values_batch(C, b)
        for i in range(2):
            _, p = ks_two_sample(np.sort(sa[:, i]), np.sort(sb[:, i]))
            assert p > 0.005

    def test_translation_family(self, rng):
        mu = DivMatrix.from_real(R, [[2.5]])
        shifted = sample_matric_t(RngStream(13), MatricTParams(R, 1, 1, 3.0, mu),
                                  size=20000)[:, 0, 0, 0] - 2.5
        centered = sample_matric_t(RngStream(14), MatricTParams(R, 1, 1, 3.0),
                                   size=20000)[:, 0, 0, 0]
        _, p = ks_two_sample(np.sort(shifted), np.sort(centered))
        assert p > 0.005

    def test_determinism(self):
        params = MatricTParams(H, 2, 2, 9.0)
        a = sample_matric_t(RngStream(15, 2), params, size=5)
        b = sample_matric_t(RngStream(15, 2), params, size=5)
        np.testing.assert_array_equal(a, b)

    def test_inverse_root_domain(self):
        with pytest.raises(DomainError):
            # nu+n-m = 6 fails beta*(n-1) = 8
            sample_matric_t(RngStream(1), MatricTParams(H, 2, 3, 5.0),
                            "inverse_root")

    def test_nu_domain(self):
        with pytest.raises(DomainError):
            MatricTParams(H, 2, 2, 4.0)  # needs nu > 4

    @pytest.mark.parametrize("method", ["wishart_root", "inverse_root"])
    def test_underflowed_bartlett_pivot_is_refused(self, method):
        # nu = 1.01 is legal at beta = 1, m = n = 2, but the last pivot
        # Gamma(0.005, 2) underflows to 0 in some draws: refused by index,
        # not left to a singular solve
        with pytest.raises(ArithmeticError, match=r"draw at index 17 .* "
                           r"Gamma\(0\.005, 2\) .* in row 1") as info:
            sample_matric_t(RngStream(1), MatricTParams(R, 2, 2, 1.01), method,
                            size=2000)
        assert info.value.index == 17

    @pytest.mark.parametrize("method,index", [("wishart_root", 36), ("inverse_root", 0)])
    def test_octonion_pivot_refusal_names_the_record_law(self, method, index):
        # the real image's Bartlett factor is 1x1 (wishart_root) or 8x8
        # (inverse_root, whose last pivot underflows); either way the refusal
        # names the record's own 1x1 Wishart at beta = 8 and nu = 0.001
        with pytest.raises(ArithmeticError, match=rf"draw at index {index} has a "
                           r"Bartlett pivot l_00\^2 ~ Gamma\(0\.004, 0\.25\) that "
                           r"underflowed to 0 in row 0; the 1x1 Wishart's nu = 0\.001 "
                           r"is too close to its edge beta\*\(1-1\) = 0$") as info:
            sample_matric_t(RngStream(1), MatricTParams(O, 1, 1, 1e-3), method, size=50)
        assert info.value.index == index

    @pytest.mark.parametrize("tag", [R, C, H, O])
    def test_scalar_reduction_ks_every_beta(self, tag):
        # ||T||^2 of the scalar standard law is beta-prime(beta/2, beta*nu/2):
        # a sampler/density KS check that works uniformly in the algebra.
        nu = 3.0
        t = sample_matric_t(RngStream(28 + tag.beta),
                            MatricTParams(tag, 1, 1, nu), size=30000)
        f = np.sort(np.square(t).sum(axis=(1, 2, 3)))
        b = tag.beta
        _, p = ks_one_sample(f, lambda x: betainc(b / 2.0, b * nu / 2.0,
                                                  x / (1.0 + x)))
        assert p > 0.005

    @pytest.mark.parametrize("method", ["wishart_root", "inverse_root"])
    def test_octonion_scalar_second_moment(self, method):
        # T = Y / L with |Y|^2 ~ Gamma(beta/2, 2/beta) (unit mean) and
        # L^2 = W ~ Gamma(beta nu/2, 2/beta); independence gives
        # E|T|^2 = E[1/W] = 1 / ((beta nu/2 - 1) 2/beta) = beta / (beta nu - 2).
        beta, nu = 8, 2.0
        t = sample_matric_t(RngStream(36), MatricTParams(O, 1, 1, nu), method,
                            size=40000)
        res = moment_check(np.square(t).sum(axis=(1, 2, 3)),
                           beta / (beta * nu - 2.0), 4.0)
        assert res.passed, res


class TestMatricTDensity:
    def test_scalar_cauchy_at_zero(self):
        params = MatricTParams(R, 1, 1, 1.0)
        t0 = DivMatrix.from_real(R, [[0.0]])
        assert math.isclose(logpdf_matric_t(params, t0), -math.log(math.pi),
                            abs_tol=1e-12)

    def test_scalar_nu3_at_zero(self):
        params = MatricTParams(R, 1, 1, 3.0)
        t0 = DivMatrix.from_real(R, [[0.0]])
        assert math.isclose(logpdf_matric_t(params, t0), math.log(2 / math.pi),
                            abs_tol=1e-12)

    def test_primal_equals_dual_quaternion(self, rng):
        for _ in range(100):
            params = MatricTParams(
                H, 2, 3, 4 * 1 + float(rng.uniform(0.5, 4.0)),
                random_matrix(rng, H, 2, 3), random_hpd(rng, H, 2),
                random_hpd(rng, H, 3))
            point = random_matrix(rng, H, 2, 3)
            gap = abs(logpdf_matric_t(params, point, "primal")
                      - logpdf_matric_t(params, point, "dual"))
            assert gap < 1e-9

    @pytest.mark.parametrize("tag", [R, C, H])
    def test_congruence_jacobian_identity(self, rng, tag):
        # The density transported through T -> A T B + C picks up exactly the
        # linear-transform volume factor |A*A|^(beta n/2) |B*B|^(beta m/2).
        m, n = 2, 3
        beta = tag.beta
        params = MatricTParams(tag, m, n, beta * (m - 1) + 2.0,
                               random_matrix(rng, tag, m, n),
                               random_hpd(rng, tag, m), random_hpd(rng, tag, n))
        point = random_matrix(rng, tag, m, n)
        a = random_matrix(rng, tag, m, m)
        b = random_matrix(rng, tag, n, n)
        c = random_matrix(rng, tag, m, n)
        point2 = matmul(matmul(a, point), b) + c
        mu2 = matmul(matmul(a, params.mu), b) + c
        xi2 = HermitianPD(
            matmul(matmul(a, params.Xi.inverse().mat), conj_transpose(a))
        ).inverse()
        sigma2 = HermitianPD(
            matmul(matmul(conj_transpose(b), params.Sigma.mat), b))
        params2 = MatricTParams(tag, m, n, params.nu, mu2, xi2, sigma2)
        jac = (beta * n / 2.0
               * logdet_hpd(HermitianPD(matmul(conj_transpose(a), a)))
               + beta * m / 2.0
               * logdet_hpd(HermitianPD(matmul(conj_transpose(b), b))))
        lhs = logpdf_matric_t(params, point)
        rhs = logpdf_matric_t(params2, point2) + jac
        assert abs(lhs - rhs) < 1e-9

    def test_octonion_scalar_allowed_matrix_rejected(self):
        params = MatricTParams(O, 1, 1, 2.0)
        point = DivMatrix(O, np.full((1, 1, 8), 0.25))
        assert np.isfinite(logpdf_matric_t(params, point))
        with pytest.raises(OctonionMatrixError):
            logpdf_matric_t(MatricTParams(O, 2, 2, 9.0),
                            DivMatrix(O, np.zeros((2, 2, 8))))

    def test_radial_form_matches_matrix_form(self, rng):
        for tag in (R, C, H):
            for n in (1, 2, 3):
                params = MatricTParams(tag, 1, n, 2.5)
                r = float(rng.uniform(0.1, 3.0))
                data = np.zeros((1, n, tag.beta))
                data[0, 0, 0] = r
                assert math.isclose(
                    radial_logpdf_matric_t(tag, n, 2.5, r),
                    logpdf_matric_t(params, DivMatrix(tag, data)),
                    abs_tol=1e-12)


class TestBetaII:
    @pytest.mark.parametrize("tag", [R, C, H, O])
    @pytest.mark.parametrize("logpdf", [logpdf_beta2_matric,
                                        logpdf_beta2_multivariate])
    def test_hermitian_pd_point_equals_its_matrix(self, rng, tag, logpdf):
        # one path: an HPD point is read as its matrix, hermitized and
        # eigen-decomposed like the nearly Hermitian matrix it wraps
        d, n = (1, 1) if tag == O else (2, 3)
        g = rng.normal(size=(d, d, tag.beta))
        g = DivMatrix(tag, g)
        x = DivMatrix(tag, matmul(g, conj_transpose(g)).data + _identity_raw(d, tag.beta))
        for params in (BetaIIParams(tag, d, n, 4.0),
                       BetaIIParams(tag, d, n, 4.0, scale=random_hpd(rng, tag, d))):
            assert logpdf(params, HermitianPD(x)) == logpdf(params, x)

    def test_the_record_takes_every_positive_nu(self):
        # the record holds the mv law's domain; the matricvariate bound
        # nu > m - 1 belongs to that density alone
        for m, n in ((2, 3), (3, 2)):
            for nu in (1e-3, 0.5, m - 1.0):
                assert BetaIIParams(R, m, n, nu).nu == nu
            for nu in (0.0, -0.5):
                with pytest.raises(DomainError, match="^require nu > 0$"):
                    BetaIIParams(R, m, n, nu)

    def test_scalar_value(self):
        params = BetaIIParams(R, 1, 2, 2.0)
        f = HermitianPD.from_real(R, [[1.0]])
        assert math.isclose(logpdf_beta2_matric(params, f), math.log(0.25),
                            abs_tol=1e-12)

    def test_boundary_limit_zero_exponent(self):
        # At beta(n-m+1)/2 = 1 the kernel exponent is 0 and the density tends
        # to 1/B(nu/2, 1) * 1 = 1 as f -> 0+.
        params = BetaIIParams(R, 1, 2, 2.0)
        val = logpdf_beta2_matric(params, HermitianPD.from_real(R, [[1e-13]]))
        assert abs(val) < 1e-9

    def test_boundary_positive_exponent_gives_minus_inf(self):
        params = BetaIIParams(C, 1, 2, 2.0)  # kernel exponent beta*n/2-1 = 1
        zero = DivMatrix.from_real(C, [[0.0]])
        assert logpdf_beta2_matric(params, zero) == -math.inf

    def test_boundary_zero_exponent_finite_limit(self):
        # exponent 0: the determinant factor drops out, the limit is finite
        params = BetaIIParams(R, 1, 2, 2.0)
        zero = DivMatrix.from_real(R, [[0.0]])
        assert abs(logpdf_beta2_matric(params, zero)) < 1e-12

    def test_boundary_negative_exponent_raises(self):
        params = BetaIIParams(R, 1, 1, 2.0)  # kernel exponent -1/2 diverges
        with pytest.raises(DomainError):
            logpdf_beta2_matric(params, DivMatrix.from_real(R, [[0.0]]))

    def test_outside_cone_is_zero_density(self):
        params = BetaIIParams(R, 2, 3, 4.0)
        indefinite = DivMatrix.from_real(R, [[1.0, 0.0], [0.0, -0.5]])
        assert logpdf_beta2_matric(params, indefinite) == -math.inf
        assert logpdf_beta2_multivariate(params, indefinite) == -math.inf

    def test_non_hermitian_point_rejected(self):
        params = BetaIIParams(R, 2, 3, 4.0)
        skew = DivMatrix.from_real(R, [[1.0, 1.0], [0.0, 1.0]])
        with pytest.raises(ValueError, match="Hermitian"):
            logpdf_beta2_matric(params, skew)

    def test_nonstandardised_identity_scale_reduces(self, rng):
        std = BetaIIParams(C, 2, 3, 4.0)
        scaled = BetaIIParams(C, 2, 3, 4.0, scale=HermitianPD.identity(C, 2))
        f = random_hpd(rng, C, 2)
        assert logpdf_beta2_matric(std, f) == logpdf_beta2_matric(scaled, f)
        assert (logpdf_beta2_multivariate(std, f)
                == logpdf_beta2_multivariate(scaled, f))

    def test_nonstandardised_matches_change_of_variables(self, rng):
        # Z = L F L* with Delta = L L*: p_Z(z) must equal the standard density
        # at F times the inverse congruence volume factor.
        tag, m, n, nu = C, 2, 3, 4.0
        beta = tag.beta
        delta = random_hpd(rng, tag, m)
        std = BetaIIParams(tag, m, n, nu)
        scaled = BetaIIParams(tag, m, n, nu, scale=delta)
        f = random_hpd(rng, tag, m)
        l = delta.chol
        z = HermitianPD(matmul(matmul(l, f.mat), conj_transpose(l)))
        jac = (beta * (m - 1) / 2.0 + 1.0) * delta.logdet
        assert abs(logpdf_beta2_matric(scaled, z)
                   - (logpdf_beta2_matric(std, f) - jac)) < 1e-9

    def test_sampler_scalar_beta_prime_ks(self):
        nu = 3.0
        f = sample_beta2_matric(RngStream(16), BetaIIParams(R, 1, 1, nu),
                                size=50000)[:, 0, 0, 0]
        _, p = ks_one_sample(np.sort(f),
                             lambda x: betainc(0.5, nu / 2.0, x / (1.0 + x)))
        assert p > 0.005

    def test_sampler_eigenvalues_nonnegative(self):
        f = sample_beta2_matric(RngStream(17), BetaIIParams(C, 2, 3, 5.0),
                                size=500)
        assert eigenvalues_batch(C, f).min() > 0.0

    def test_orientation_shapes(self):
        gram = sample_beta2_matric(RngStream(18), BetaIIParams(R, 2, 3, 4.0))
        cogram = sample_beta2_matric(RngStream(18), BetaIIParams(R, 3, 2, 4.0))
        assert gram.m == 2 and cogram.m == 2

    @pytest.mark.parametrize("m,n,derived", [(2, 3, "gram"), (2, 2, "gram"),
                                             (3, 2, "cogram")])
    def test_orientation_comes_from_the_shape(self, m, n, derived):
        params = BetaIIParams(R, m, n, 4.0)
        assert params.orientation == derived and params.dim == min(m, n)
        with pytest.raises(TypeError):
            BetaIIParams(R, m, n, 4.0, orientation=derived)
        obj = {"beta": 1, "m": m, "n": n, "nu": 4.0}
        assert BetaIIParams.from_json_dict(dict(obj, orientation=derived)) == params
        wrong = "cogram" if derived == "gram" else "gram"
        with pytest.raises(ValueError, match="beta2 params key 'orientation'"):
            BetaIIParams.from_json_dict(dict(obj, orientation=wrong))

    def test_sampling_nonstandardised_rejected(self, rng):
        params = BetaIIParams(R, 2, 3, 4.0, scale=random_hpd(rng, R, 2))
        with pytest.raises(ValueError):
            sample_beta2_matric(RngStream(1), params)


class TestMatrixMT:
    def test_scalar_cauchy_value(self):
        params = MatrixMTParams(R, 1, 1, 1.0, 1.0)
        t0 = DivMatrix.from_real(R, [[0.0]])
        assert math.isclose(logpdf_matrix_mt(params, t0), -math.log(math.pi),
                            abs_tol=1e-12)

    def test_m1_coincides_with_matricvariate(self, rng):
        pmt = MatricTParams(C, 1, 3, 4.0)
        pmm = MatrixMTParams(C, 1, 3, 4.0, 1.0)
        for _ in range(50):
            point = random_matrix(rng, C, 1, 3)
            gap = abs(logpdf_matric_t(pmt, point) - logpdf_matrix_mt(pmm, point))
            assert gap < 1e-12

    def test_rho_scaling_identity(self, rng):
        rho = 2.5
        p_rho = MatrixMTParams(H, 2, 2, 3.0, rho)
        p_one = MatrixMTParams(H, 2, 2, 3.0, 1.0)
        beta, m, n = 4, 2, 2
        for _ in range(10):
            point = random_matrix(rng, H, 2, 2)
            scaled = DivMatrix(H, math.sqrt(rho) * point.data)
            lhs = logpdf_matrix_mt(p_rho, point)
            rhs = beta * m * n / 2.0 * math.log(rho) + logpdf_matrix_mt(p_one, scaled)
            assert abs(lhs - rhs) < 1e-12

    def test_sampler_all_finite(self):
        t = sample_matrix_mt(RngStream(19), MatrixMTParams(C, 2, 3, 1.0, 1.0),
                             size=20000)
        assert np.all(np.isfinite(t))

    def test_underflowed_gamma_scale_is_refused(self):
        # S ~ Gamma(0.0005, 2) underflows to 0 in most draws, and T1 = Y/sqrt(S)
        # would be infinite: refused by index instead
        with pytest.raises(ArithmeticError, match=r"draw at index 1 has a scale "
                           r"S ~ Gamma\(0\.0005, 2\) that underflowed") as info:
            sample_matrix_mt(RngStream(1), MatrixMTParams(R, 1, 2, 0.001), size=2000)
        assert info.value.index == 1

    def test_octonion_scale_refusal_names_the_record_law(self):
        # the real image draws S' ~ Gamma(0.004, 2) at nu' = 0.008; the record's
        # own scale is S ~ Gamma(0.004, 1/4) at nu = 0.001
        with pytest.raises(ArithmeticError, match=r"draw at index 36 has a scale "
                           r"S ~ Gamma\(0\.004, 0\.25\) that underflowed to 0; "
                           r"nu = 0\.001 is too small$") as info:
            sample_matrix_mt(RngStream(1), MatrixMTParams(O, 1, 1, 1e-3), size=50)
        assert info.value.index == 36

    def test_sampler_determinism(self):
        params = MatrixMTParams(R, 2, 2, 4.0, 2.0)
        a = sample_matrix_mt(RngStream(20, 5), params, size=7)
        b = sample_matrix_mt(RngStream(20, 5), params, size=7)
        np.testing.assert_array_equal(a, b)

    def test_scalar_ks_vs_student(self):
        # T * sqrt(rho * nu) is classical Student-t with nu df; used as an
        # analytic CDF for the sampled scalar law.
        from scipy.stats import t as student

        nu, rho = 5.0, 2.0
        draws = sample_matrix_mt(RngStream(21), MatrixMTParams(R, 1, 1, nu, rho),
                                 size=50000)[:, 0, 0, 0]
        scaled = np.sort(draws * math.sqrt(rho * nu))
        _, p = ks_one_sample(scaled, lambda x: student.cdf(x, nu))
        assert p > 0.005

    def test_general_scales_sampler_matches_density_transport(self, rng):
        # Sampling with (Delta, Lambda) must match transporting standard
        # draws through the congruence map, draw for draw.
        tag = C
        delta = random_hpd(rng, tag, 2)
        lam = random_hpd(rng, tag, 2)
        params = MatrixMTParams(tag, 2, 2, 4.0, 1.5, None, delta, lam)
        std = MatrixMTParams(tag, 2, 2, 4.0, 1.5)
        a = sample_matrix_mt(RngStream(22, 3), params, size=6)
        t1 = sample_matrix_mt(RngStream(22, 3), std, size=6)
        from rdmt.algebra import _conj_t_raw, _solve_raw

        p = _solve_raw(delta.chol.data[None], t1)
        q = _conj_t_raw(_solve_raw(lam.chol.data[None], _conj_t_raw(p)))
        np.testing.assert_allclose(a, q, atol=1e-12)

    def test_octonion_scalar(self):
        params = MatrixMTParams(O, 1, 1, 2.0, 1.0)
        draws = sample_matrix_mt(RngStream(23), params, size=1000)
        assert np.all(np.isfinite(draws))
        point = DivMatrix(O, np.full((1, 1, 8), 0.2))
        assert np.isfinite(logpdf_matrix_mt(params, point))

    def test_radial_form_matches_matrix_form(self, rng):
        params = MatrixMTParams(C, 1, 2, 3.0, 1.7)
        r = 0.9
        data = np.zeros((1, 2, 2))
        data[0, 1, 1] = r  # isotropy: any direction at radius r
        assert math.isclose(radial_logpdf_matrix_mt(C, 2, 3.0, 1.7, r),
                            logpdf_matrix_mt(params, DivMatrix(C, data)),
                            abs_tol=1e-12)

    @pytest.mark.parametrize("tag", [R, C, H])
    def test_scalar_reduction_ks_every_beta(self, tag):
        # rho * ||T1||^2 of the scalar law is beta-prime(beta/2, beta*nu/2)
        nu, rho = 3.0, 1.8
        t = sample_matrix_mt(RngStream(33 + tag.beta),
                             MatrixMTParams(tag, 1, 1, nu, rho), size=30000)
        f = np.sort(rho * np.square(t).sum(axis=(1, 2, 3)))
        b = tag.beta
        _, p = ks_one_sample(f, lambda x: betainc(b / 2.0, b * nu / 2.0,
                                                  x / (1.0 + x)))
        assert p > 0.005


@pytest.mark.parametrize("call,shape", [
    pytest.param(lambda: MatricTParams(O, 1, 2, 3.0), "1x2", id="MatricTParams"),
    pytest.param(lambda: MatrixMTParams(O, 2, 2, 3.0), "2x2", id="MatrixMTParams"),
    pytest.param(lambda: WishartParams(O, 2, 9.0), "2x2", id="WishartParams"),
    pytest.param(lambda: BetaIIParams(O, 2, 2, 3.0), "2x2", id="BetaIIParams"),
    pytest.param(lambda: GaussianParams(O, 1, 2), "1x2", id="GaussianParams"),
    pytest.param(lambda: EllipticalTParams(O, 1, 2, 4.0), "1x2",
                 id="EllipticalTParams"),
    pytest.param(lambda: HermitianPD.identity(O, 2), "2x2", id="HermitianPD"),
    pytest.param(lambda: EllipticalTParams(O, 2, 2, 4.0, (0.5, 0.5), (1.0, 3.0)),
                 "2x2", id="EllipticalTParams-2x2"),
    pytest.param(lambda: sample_matric_t(RngStream(1), MatricTParams(O, 2, 2, 9.0)),
                 "2x2", id="sample_matric_t"),
    pytest.param(lambda: sample_matrix_mt(RngStream(1), MatrixMTParams(O, 1, 2, 3.0)),
                 "1x2", id="sample_matrix_mt"),
    pytest.param(lambda: sample_wishart(RngStream(1), WishartParams(O, 2, 9.0)),
                 "2x2", id="sample_wishart"),
    pytest.param(lambda: sample_beta2_matric(RngStream(1), BetaIIParams(O, 2, 2, 9.0)),
                 "2x2", id="sample_beta2_matric"),
    pytest.param(lambda: logpdf_matric_t(MatricTParams(O, 1, 2, 3.0),
                                         DivMatrix.zeros(O, 1, 2)),
                 "1x2", id="logpdf_matric_t"),
    pytest.param(lambda: logpdf_matrix_mt(MatrixMTParams(O, 2, 2, 3.0),
                                          DivMatrix.zeros(O, 2, 2)),
                 "2x2", id="logpdf_matrix_mt"),
    pytest.param(lambda: logpdf_beta2_matric(BetaIIParams(O, 2, 3, 3.0),
                                             DivMatrix.identity(O, 2)),
                 "2x2", id="logpdf_beta2_matric"),
    pytest.param(lambda: logpdf_beta2_multivariate(BetaIIParams(O, 3, 2, 3.0),
                                                   DivMatrix.identity(O, 2)),
                 "2x2", id="logpdf_beta2_multivariate"),
])
def test_octonion_matrices_are_refused_naming_their_shape(call, shape):
    with pytest.raises(OctonionMatrixError, match=f"got {shape}$"):
        call()


class TestUnitaryCongruence:
    """The standard laws depend on T only through its singular values, so
    T -> U T V with U, V unitary over the algebra leaves them unchanged."""

    @pytest.mark.parametrize("tag", [R, C, H])
    @pytest.mark.parametrize("m,n", [(2, 3), (3, 2)])
    def test_standard_log_densities_and_singular_values(self, rng, tag, m, n):
        t = random_matrix(rng, tag, m, n)
        ut = matmul(matmul(random_unitary(rng, tag, m), t),
                    random_unitary(rng, tag, n))
        nu = tag.beta * (m - 1) + 2.5
        matric = MatricTParams(tag, m, n, nu)
        for form in ("primal", "dual"):
            assert abs(logpdf_matric_t(matric, ut, form)
                       - logpdf_matric_t(matric, t, form)) < 1e-12
        mt = MatrixMTParams(tag, m, n, nu, 1.7)
        assert abs(logpdf_matrix_mt(mt, ut) - logpdf_matrix_mt(mt, t)) < 1e-12
        assert np.abs(singular_values(ut) - singular_values(t)).max() < 1e-12


class TestBetaIIMultivariate:
    def test_scalar_value(self):
        params = BetaIIParams(R, 1, 2, 2.0)
        f = HermitianPD.from_real(R, [[1.0]])
        assert math.isclose(logpdf_beta2_multivariate(params, f),
                            math.log(0.25), abs_tol=1e-12)

    def test_m1_coincides_with_matricvariate_form(self, rng):
        params = BetaIIParams(H, 1, 3, 4.0)
        for _ in range(50):
            f = HermitianPD.from_real(H, [[float(rng.uniform(0.05, 5.0))]])
            gap = abs(logpdf_beta2_matric(params, f)
                      - logpdf_beta2_multivariate(params, f))
            assert gap < 1e-12

    def test_trace_kernel_differs_from_determinant_kernel_for_m2(self, rng):
        params = BetaIIParams(R, 2, 3, 4.0)
        f = random_hpd(rng, R, 2)
        assert (logpdf_beta2_matric(params, f)
                != logpdf_beta2_multivariate(params, f))


def _reference_beta2(law, params, f):
    """(log density, largest term) of a beta II law at the (d, d, beta) point
    f, to 40 digits: mpmath's determinants (Moore's, squared, at beta = 4)
    and trace of the complex representations of f, scale + f and scale f,
    and its log gammas, as the laws are written:

        matric: |S|^a |F|^e |S + F|^-(a + b) / B_d(a, b),
        mv:     Gamma(q1) / (Gamma(beta nu/2) Gamma_d(b)) |S|^b |F|^e
                (1 + tr S F)^-q1,

    with a = beta nu'/2, b = beta n'/2 and e = beta(n' - d + 1)/2 - 1 at the
    gram shape (n', nu') = (max(m, n), nu + min(0, n - m)), q1 = beta(nu +
    mn)/2, and S = I in the standard form."""
    mp = pytest.importorskip("mpmath")
    beta, m, n, d = params.tag.beta, params.m, params.n, params.dim
    scale = _identity_raw(d, beta) if params.scale is None else params.scale.mat.data
    with mp.workdps(40):
        nu = mp.mpf(params.nu)
        n_w, nu_w = (n, nu) if n >= m else (m, nu + n - m)
        a, b = beta * nu_w / 2, mp.mpf(beta * n_w) / 2
        e = mp.mpf(beta * (n_w - d + 1)) / 2 - 1

        def rep(x):
            return mp.matrix(_complex_embed_raw(x).tolist())

        def logdet(z):
            return mp.log(mp.re(mp.det(z))) / (2 if beta == 4 else 1)

        def lmg(x):
            return (d * (d - 1) * beta * mp.log(mp.pi) / 4
                    + mp.fsum(mp.loggamma(x - mp.mpf(i * beta) / 2) for i in range(d)))

        s, fz = rep(scale), rep(f)
        if law == "matric":
            terms = [lmg(a + b) - lmg(a) - lmg(b), a * logdet(s), e * logdet(fz),
                     -(a + b) * logdet(s + fz)]
        else:
            q1 = beta * (nu + m * n) / 2
            trace = mp.re(sum((s * fz)[i, i] for i in range(s.rows))) / (
                2 if beta == 4 else 1)
            terms = [mp.loggamma(q1) - mp.loggamma(beta * nu / 2) - lmg(b),
                     b * logdet(s), e * logdet(fz), -q1 * mp.log1p(trace)]
        return float(mp.fsum(terms)), float(max(abs(t) for t in terms))


class TestBetaIIAgainstMpmath:
    """Both beta II laws against a 40-digit reference (`_reference_beta2`),
    within 8 eps of the largest term, standard and scaled, gram and cogram,
    at beta 1, 2 and 4.  The points are well-conditioned ones, ones whose
    eigenvalues are all near 1e-10, and ones near the ends of the doubles,
    alone or through the scale, whose congruence G = M* F M only stays in
    range because the point and the factor M are scaled by powers of two
    first."""

    @staticmethod
    def _check(params, points):
        for law, fn in (("matric", logpdf_beta2_matric),
                        ("mv", logpdf_beta2_multivariate)):
            got = fn(params, points)
            for value, f in zip(got, points):
                want, largest = _reference_beta2(law, params, f)
                assert abs(value - want) <= 8 * np.finfo(float).eps * largest, (
                    law, value, want)

    @pytest.mark.parametrize("tag", [R, C, H])
    @pytest.mark.parametrize("m,n", [(2, 3), (3, 2)])
    @pytest.mark.parametrize("scaled", [False, True])
    def test_ordinary_and_tiny_points(self, rng, tag, m, n, scaled):
        params = BetaIIParams(tag, m, n, 4.5, random_hpd(rng, tag, 2) if scaled else None)
        cone = _hpd_stack(rng, tag.beta, 2, 4, 0.5)
        self._check(params, np.concatenate([cone, 1e-10 * cone]))

    @pytest.mark.parametrize("tag", [R, C, H])
    def test_graded_point_of_a_standard_record(self, tag):
        # exact eigenvalues 1 and 1e-10: log1p keeps the small one
        point = np.zeros((1, 2, 2, tag.beta))
        point[0, ..., 0] = np.diag([1.0, 1e-10])
        self._check(BetaIIParams(tag, 2, 3, 4.5), point)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("tag", [R, C, H])
    @pytest.mark.parametrize("m,n", [(2, 3), (3, 2)])
    @pytest.mark.parametrize("scale,size", [(None, 1e300), (None, 1e-300),
                                            (1e-10, 1e300), (1e10, 1e-300),
                                            (1e150, 1e-150), (1e-150, 1e150),
                                            (1e-250, 1e70), (1e-250, 1e-77),
                                            (1e250, 1e-70), (1e250, 1e77)])
    def test_points_near_the_ends_of_the_doubles(self, rng, tag, m, n, scale, size):
        record = None if scale is None else HermitianPD.from_real(tag, scale * np.eye(2))
        point = np.zeros((2, 2, 2, tag.beta))
        point[0, ..., 0] = size * np.array([[3.0, 0.5], [0.5, 1.0]])
        point[1] = size * _hpd_stack(rng, tag.beta, 2, 1, 0.5)[0]
        self._check(BetaIIParams(tag, m, n, 4.5, record), point)


class TestEllipticalT:
    def test_degenerate_mixture_is_exact_normal_construction(self):
        # With a single unit-scale component no mixture randomness is
        # consumed, so the draws coincide with the plain Gaussian-based
        # gram construction replayed from the same stream.
        tag, m, n, nu, size = C, 2, 3, 4, 8
        got = sample_elliptical_t(RngStream(24, 1), EllipticalTParams(tag, m, n, nu),
                                  size=size)

        from rdmt.algebra import (_cholesky_raw, _conj_t_raw, _hermitize_raw,
                                  _matmul_raw, _solve_raw)

        gen = RngStream(24, 1).generator
        y = _std_normal_raw(gen, tag.beta, (size, m, n + nu))
        y1, y2 = y[:, :, :n, :], y[:, :, n:, :]
        v = _hermitize_raw(_matmul_raw(y2, _conj_t_raw(y2)))
        expected = _solve_raw(_cholesky_raw(v), y1)
        np.testing.assert_array_equal(got, expected)

    @pytest.mark.parametrize("tag", [R, C])
    def test_invariance_vs_normal_built(self, tag):
        params = EllipticalTParams(tag, 2, 3, 4.0, (0.7, 0.3), (1.0, 3.0))
        rng = RngStream(25)
        a = sample_elliptical_t(rng, params, size=20000)
        b = sample_matric_t(rng, MatricTParams(tag, 2, 3, 4.0), size=20000)
        sa = singular_values_batch(tag, a)
        sb = singular_values_batch(tag, b)
        for i in range(2):
            _, p = ks_two_sample(np.sort(sa[:, i]), np.sort(sb[:, i]))
            assert p > 0.005

    @pytest.mark.parametrize("fields,message", [
        ({"m": 2, "n": 3, "nu": 1.0}, "require integer nu >= m and n >= m"),
        ({"m": 2, "n": 3, "nu": 2.5}, "require integer nu >= m and n >= m"),
        ({"m": 3, "n": 2, "nu": 4.0}, "require integer nu >= m and n >= m"),
        ({"m": 2, "n": 3, "nu": 4.0, "weights": (0.7, 0.7), "scales": (1.0, 2.0)},
         "weights must be nonnegative and sum to 1"),
        ({"m": 2, "n": 3, "nu": 4.0, "weights": (0.5, 0.4), "scales": (1.0, 2.0)},
         "weights must be nonnegative and sum to 1"),
        ({"m": 2, "n": 3, "nu": 4.0, "weights": (1.0,), "scales": (-1.0,)},
         "scales must be positive"),
        ({"m": 2, "n": 3, "nu": 4.0, "weights": (0.5, 0.5), "scales": (1.0,)},
         "weights and scales must be equal-length, non-empty"),
    ], ids=["nu-below-m", "fractional-nu", "tall", "weights-sum-1.4",
            "weights-sum-0.9", "negative-scale", "unequal-lengths"])
    def test_a_record_its_sampler_cannot_draw_is_refused(self, fields, message):
        # built, or loaded from a params file, before any draw
        with pytest.raises(ValueError, match=message):
            EllipticalTParams(R, **fields)
        with pytest.raises(ValueError, match=message):
            EllipticalTParams.from_json_dict(dict(fields, beta=1))

    def test_an_octonion_record_draws_its_real_image(self):
        # a 1x1 record is legal: its 1 x (1 + nu) octonion block is the real
        # 1 x 8 (1 + nu) block, so it draws the rows of (R, 1, 8, 8 nu)
        params = EllipticalTParams(O, 1, 1, 4.0, (0.5, 0.5), (1.0, 3.0))
        assert EllipticalTParams.from_json_dict(params.to_json_dict()) == params
        real = EllipticalTParams(R, 1, 8, 32.0, (0.5, 0.5), (1.0, 3.0))
        for size in (None, 6):
            got = sample_elliptical_t(RngStream(9), params, size=size)
            want = sample_elliptical_t(RngStream(9), real, size=size)
            if size is None:
                got, want = got.data[None], want.data[None]
            assert got.shape == (len(want), 1, 1, 8)
            assert got.tobytes() == want.reshape(got.shape).tobytes()


class TestNonFiniteFields:
    """Each record refuses a NaN or inf in a number field, an entry of a
    tuple field or mu's coefficients, naming the field, by its own error
    type: DomainError for nu and rho, ValueError for the mixture."""

    def test_the_legal_records_cover_the_law_table(self):
        assert set(LEGAL_FIELDS) == set(_FAMILIES)
        for family, legal in LEGAL_FIELDS.items():
            _FAMILIES[family].record(R, **legal)

    @pytest.mark.parametrize("family,name,value", non_finite_fields())
    def test_a_non_finite_field_is_refused(self, family, name, value):
        record = _FAMILIES[family].record
        error = ValueError if record is EllipticalTParams else DomainError
        with pytest.raises(ValueError, match=f"^{name} must be finite") as info:
            record(R, **dict(LEGAL_FIELDS[family], **{name: value}))
        assert type(info.value) is error

    @pytest.mark.parametrize("record", [MatricTParams, MatrixMTParams])
    def test_a_non_finite_mu_is_refused(self, record):
        mu = np.zeros((2, 3, 2))
        mu[1, 2, 1] = math.nan
        with pytest.raises(DomainError, match="^mu must be finite"):
            record(C, **LEGAL_FIELDS[record.family], mu=DivMatrix(C, mu))


class TestParamSerialization:
    def test_matric_t_round_trip(self, rng):
        params = MatricTParams(H, 2, 3, 9.0, random_matrix(rng, H, 2, 3),
                               random_hpd(rng, H, 2), random_hpd(rng, H, 3))
        text = json.dumps(params.to_json_dict())
        back = MatricTParams.from_json_dict(json.loads(text))
        assert back.nu == params.nu
        assert back.mu.isclose(params.mu)
        assert back.Xi.mat.isclose(params.Xi.mat)

    def test_all_families_round_trip(self, rng):
        records = [
            MatrixMTParams(C, 2, 2, 3.0, 1.5),
            WishartParams(R, 2, 6.0),
            GammaScalarParams(O, 2.0, 0.5),
            BetaIIParams(C, 3, 2, 5.0),
            GaussianParams(H, 1, 2),
            EllipticalTParams(R, 2, 3, 4.0, (0.25, 0.75), (0.5, 2.0)),
        ]
        for params in records:
            text = json.dumps(params.to_json_dict())
            back = type(params).from_json_dict(json.loads(text))
            assert back.to_json_dict() == params.to_json_dict()

    def test_records_compare_and_hash_by_value(self, rng):
        params = MatricTParams(H, 2, 3, 9.0, random_matrix(rng, H, 2, 3),
                               random_hpd(rng, H, 2), random_hpd(rng, H, 3))
        d = params.to_json_dict()
        a, b = MatricTParams.from_json_dict(d), MatricTParams.from_json_dict(d)
        assert a == b == params and hash(a) == hash(b)
        assert MatricTParams(C, 2, 3, 9.0) == MatricTParams(C, 2, 3, 9.0)
        assert len({MatrixMTParams(C, 2, 2, 3.0), MatrixMTParams(C, 2, 2, 3.0)}) == 1
        # one coefficient, or the algebra alone, tells records apart
        mu = params.mu.data.copy()
        mu[0, 0, 3] += 1e-12
        assert dataclasses.replace(params, mu=DivMatrix(H, mu)) != params
        assert MatricTParams(R, 2, 3, 9.0) != MatricTParams(C, 2, 3, 9.0)

    @pytest.mark.parametrize("key", ["Sigmaa", "Xi", "tag", "rows"])
    def test_unknown_key_is_refused(self, key):
        # Xi is a matric-t field, not a matrix-mt one; tag is written as beta
        obj = {"beta": 1, "m": 1, "n": 1, "nu": 3.0, key: 5}
        with pytest.raises(ValueError, match=f"unknown matrix-mt params key '{key}'"):
            MatrixMTParams.from_json_dict(obj)
        obj = {"family": "matrix-mt", "beta": 1, "m": 1, "n": 1, "nu": 3.0}
        assert (MatrixMTParams.from_json_dict(obj).to_json_dict()
                == MatrixMTParams(R, 1, 1, 3.0).to_json_dict())

    def test_field_types_are_resolved_once_per_class(self, monkeypatch, rng):
        import rdmt.distributions as dist

        calls = []
        resolve = dist.get_type_hints

        def counted(cls):
            calls.append(cls)
            return resolve(cls)

        dist._field_loaders.cache_clear()
        monkeypatch.setattr(dist, "get_type_hints", counted)
        try:
            params = MatricTParams(H, 2, 3, 9.0, random_matrix(rng, H, 2, 3),
                                   random_hpd(rng, H, 2))
            obj = json.loads(json.dumps(params.to_json_dict()))
            loads = [MatricTParams.from_json_dict(obj) for _ in range(3)]
            loads.append(MatrixMTParams.from_json_dict(
                {"beta": 1, "m": 1, "n": 1, "nu": 3.0}))
        finally:
            monkeypatch.undo()
            dist._field_loaders.cache_clear()
        assert calls == [MatricTParams, MatrixMTParams]
        assert all(back.to_json_dict() == obj for back in loads[:3])
        with pytest.raises(ValueError, match="matric-t params key 'nu': missing"):
            MatricTParams.from_json_dict({"beta": 1, "m": 1, "n": 1})

    def test_density_terms_stay_out_of_fields_and_json(self, rng):
        params = MatricTParams(H, 2, 3, 9.0, random_matrix(rng, H, 2, 3),
                               random_hpd(rng, H, 2), random_hpd(rng, H, 3))
        before = json.dumps(params.to_json_dict())
        logpdf_matric_t(params, random_matrix(rng, H, 2, 3))
        assert "_density_terms" in vars(params)
        assert "_density_terms" not in [f.name for f in dataclasses.fields(params)]
        assert json.dumps(params.to_json_dict()) == before
        fresh = dataclasses.replace(params)
        assert "_density_terms" not in vars(fresh) and fresh == params

    def test_sampler_factors_stay_out_of_fields_and_json(self, rng):
        t_params = MatricTParams(H, 2, 3, 9.0, random_matrix(rng, H, 2, 3),
                                 random_hpd(rng, H, 2), random_hpd(rng, H, 3))
        w_params = WishartParams(C, 2, 5.0, random_hpd(rng, C, 2))
        # each record, the caches its samplers fill on its scales' HermitianPD
        # (the factor's representation, and that of the inverse's factor),
        # and the draws that fill them
        cases = [(t_params, [(t_params.Xi, "_factor_reps"),
                             (t_params.Sigma, "_factor_reps"),
                             (t_params.Sigma, "_inverse_factor_reps")],
                  lambda: [sample_matric_t(RngStream(1), t_params, method)
                           for method in ("wishart_root", "inverse_root")]),
                 (w_params, [(w_params.Xi, "_factor_reps")],
                  lambda: [sample_wishart(RngStream(1), w_params, method)
                           for method in ("bartlett", "gram")])]
        for params, caches, draw in cases:
            before = json.dumps(params.to_json_dict()), repr(params), hash(params)
            scales = {id(h): h for h, _ in caches}.values()
            fresh_scales = [HermitianPD(h.mat) for h in scales]
            assert not any(cache in vars(h) for h, cache in caches)
            draw()
            assert all(cache in vars(h) for h, cache in caches)
            assert set(vars(params)) <= {f.name for f in dataclasses.fields(params)}
            assert (json.dumps(params.to_json_dict()), repr(params),
                    hash(params)) == before
            for h, fresh_h in zip(scales, fresh_scales):
                assert (h == fresh_h and hash(h) == hash(fresh_h)
                        and repr(h) == repr(fresh_h)
                        and h.to_schema_dict() == fresh_h.to_schema_dict())
                inverse, fresh_inverse = h.inverse(), fresh_h.inverse()
                assert (inverse == fresh_inverse and "_inverse_factor_reps"
                        not in vars(inverse) | vars(fresh_inverse))
            fresh = dataclasses.replace(params)
            assert fresh == params and hash(fresh) == hash(params)


# -- the log densities take one point or a stack of points through one code
#    path; the stack must give the per-point values.


def _close_to(batched, single):
    single = np.asarray(single)
    assert batched.shape == single.shape
    assert np.array_equal(np.isinf(batched), np.isinf(single))
    finite = np.isfinite(single)
    gap = np.abs(batched[finite] - single[finite])
    assert np.all(gap <= 1e-12 * np.maximum(1.0, np.abs(single[finite])))


def _hpd_stack(gen, beta, d, nsamp, boost):
    g = gen.normal(size=(nsamp, d, d, beta))
    if beta == 8:  # a Hermitian 1x1 octonion is real, and so is its square
        g[..., 1:] = 0.0
        a = np.square(g)
    else:
        a = _matmul_raw(g, _conj_t_raw(g))
    a = a + boost * _identity_raw(d, beta)
    return _hermitize_raw(a)


class TestBatchedDensities:
    @settings(max_examples=60, deadline=None)
    @given(beta=st.sampled_from([1, 2, 4, 8]), m=st.integers(1, 3),
           n=st.integers(1, 3), nsamp=st.integers(1, 6),
           seed=st.integers(0, 2**32 - 1))
    def test_stack_equals_per_point(self, beta, m, n, nsamp, seed):
        if beta == 8:
            m = n = 1
        tag = AlgebraTag(beta)
        gen = np.random.default_rng(seed)

        def hpd(d):
            return HermitianPD(DivMatrix(tag, _hpd_stack(gen, beta, d, 1, 0.5)[0]))

        def mu():
            return DivMatrix(tag, gen.normal(size=(m, n, beta)))

        nu = beta * (m - 1) + float(gen.uniform(0.5, 4.0))
        t_cases = [
            (logpdf_matric_t, MatricTParams(tag, m, n, nu, mu(), hpd(m), hpd(n)),
             {"form": "primal"}),
            (logpdf_matric_t, MatricTParams(tag, m, n, nu, mu(), hpd(m), hpd(n)),
             {"form": "dual"}),
            (logpdf_matrix_mt, MatrixMTParams(tag, m, n, nu, float(gen.uniform(0.2, 4.0)),
                                              mu(), hpd(m), hpd(n)), {}),
        ]
        points = gen.normal(size=(nsamp, m, n, beta))
        for fn, params, kw in t_cases:
            single = [fn(params, DivMatrix(tag, x), **kw) for x in points]
            _close_to(fn(params, points, **kw), single)
        d = min(m, n)
        for scale in (None, hpd(d)):
            params = BetaIIParams(tag, m, n, nu, scale)
            cone = _hpd_stack(gen, beta, d, nsamp, 0.01)
            for fn in (logpdf_beta2_matric, logpdf_beta2_multivariate):
                single = [fn(params, DivMatrix(tag, f)) for f in cone]
                _close_to(fn(params, cone), single)

    def test_one_point_gives_a_float_and_a_stack_an_array(self, rng):
        params = MatricTParams(C, 2, 3, 4.0)
        point = random_matrix(rng, C, 2, 3)
        assert type(logpdf_matric_t(params, point)) is float
        out = logpdf_matric_t(params, point.data[None])
        assert isinstance(out, np.ndarray) and out.shape == (1,)
        assert out[0] == logpdf_matric_t(params, point)
        empty = logpdf_beta2_multivariate(BetaIIParams(C, 2, 3, 4.0),
                                          np.zeros((0, 2, 2, 2)))
        assert empty.shape == (0,)

    def test_stack_shape_mismatch_raises(self, rng):
        params = MatrixMTParams(R, 2, 3, 3.0)
        with pytest.raises(ValueError, match="mismatch"):
            logpdf_matrix_mt(params, rng.normal(size=(4, 3, 2, 1)))
        with pytest.raises(ValueError, match="mismatch") as info:
            logpdf_matrix_mt(params, rng.normal(size=(4, 2, 3, 2)))
        # every point has the stack's shape: the first one is at fault
        assert info.value.index == 0
        with pytest.raises(ValueError, match="mismatch") as info:
            logpdf_matrix_mt(params, DivMatrix(R, rng.normal(size=(3, 2, 1))))
        assert info.value.index is None
        with pytest.raises(TypeError):
            logpdf_matrix_mt(params, rng.normal(size=(2, 3, 1)).tolist())

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("fn", [logpdf_beta2_matric, logpdf_beta2_multivariate])
    @pytest.mark.parametrize("scale", [None, [[2.0, 0.5], [0.5, 1.0]], [[1.0, 0.0], [0.0, 1e-4]]],
                             ids=["standard", "scaled", "graded"])
    @pytest.mark.parametrize("tag,n,boundary_is_finite", [
        (R, 3, True), (R, 4, False), (C, 2, True), (C, 3, False), (H, 2, False)])
    def test_cone_edges_in_one_stack(self, fn, scale, tag, n, boundary_is_finite):
        # kernel exponent beta(n-m+1)/2 - 1: 0 at (R, 3) and (C, 2), 1/2 at
        # (R, 4), 1 at (C, 3) and (H, 2).  The cone test reads each point's
        # eigenvalues against its own largest, so a tiny positive definite
        # point is inside and a tiny indefinite one outside.  A scaled record
        # (a congruence) keeps every decision, also with a scale of condition
        # number 1e4, under which diag(1, 1e-9) and diag(1e-9, 1) have G
        # eigenvalue ratios of 1e-13.
        scale = None if scale is None else HermitianPD.from_real(tag, scale)
        params = BetaIIParams(tag, 2, n, 4.0, scale)
        base = np.array([[2.0, 0.5], [0.5, 1.0]])
        real = np.array([base, np.diag([1.0, 0.0]),                 # inside, boundary
                         np.diag([1.0, -0.5]), [[3.0, 1.0], [1.0, 1.0]],  # outside, inside
                         np.diag([0.0, 1e-14]),                     # boundary
                         np.diag([2e-13, 1e-13]), np.diag([2e-12, 0.9e-12]),
                         1e-300 * base, 1e300 * base,               # all inside
                         np.diag([1e-13, -5e-14]),                  # outside
                         np.diag([1.0, -5e-14]),                    # boundary
                         np.diag([1.0, 1e-9]), np.diag([1e-9, 1.0])])   # inside
        inside, outside, boundary = [0, 3, 5, 6, 7, 8, 11, 12], [2, 9], [1, 4, 10]
        stack = np.zeros(real.shape + (tag.beta,))
        stack[..., 0] = real
        single = [fn(params, DivMatrix(tag, f)) for f in stack]
        got = fn(params, stack)
        assert np.array_equal(got, single)
        assert np.all(got[outside] == -math.inf)
        assert np.isfinite(got[inside]).all()
        assert np.isfinite(got[boundary]).all() == boundary_is_finite
        if not boundary_is_finite:
            assert np.all(got[boundary] == -math.inf)

    @pytest.mark.parametrize("fn", [logpdf_beta2_matric, logpdf_beta2_multivariate])
    def test_diverging_or_non_hermitian_point_names_its_index(self, fn):
        params = BetaIIParams(R, 2, 2, 4.0)  # kernel exponent -1/2 diverges
        stack = np.array([[[2.0], [0.5]], [[0.5], [1.0]]])[None].repeat(4, axis=0)
        stack[3] = [[[1.0], [0.0]], [[0.0], [-0.5]]]    # outside: -inf, no error
        stack[2] = [[[1.0], [0.0]], [[0.0], [0.0]]]     # on the boundary
        with pytest.raises(DomainError, match="index 2 diverges") as info:
            fn(params, stack)
        assert info.value.index == 2
        with pytest.raises(DomainError):
            fn(params, DivMatrix(R, stack[2]))
        stack[1, 0, 1, 0] = 0.25
        with pytest.raises(ValueError, match="index 1 is not Hermitian"):
            fn(params, stack)
        # a tiny positive definite point is inside the cone, not on its edge
        assert math.isfinite(fn(params, DivMatrix.from_real(R, np.diag([2e-13, 1e-13]))))

    @pytest.mark.parametrize("tag", [R, C, H])
    @pytest.mark.parametrize("size", [1.0, 1e-6, 1e-13, 1e-300])
    def test_hermitian_check_does_not_depend_on_size(self, tag, size):
        # the gap is measured against the matrix's own largest coefficient,
        # so a matrix that far from Hermitian is refused at every size
        params = BetaIIParams(tag, 2, 3, 4.0)
        skew = DivMatrix.from_real(tag, size * np.array([[1.0, 1.0], [0.0, 1.0]]))
        exact = DivMatrix.from_real(tag, size * np.array([[3.0, 0.5], [0.5, 1.0]]))
        # nearly Hermitian at size 1, so the stack takes the per-matrix check
        near = exact.data / size
        near[0, 1, 0] += 1e-14
        for fn in (logpdf_beta2_matric, logpdf_beta2_multivariate):
            with pytest.raises(ValueError, match="point is not Hermitian"):
                fn(params, skew)
            with pytest.raises(ValueError, match="index 2 is not Hermitian"):
                fn(params, np.stack([near, exact.data, skew.data]))
            assert np.isfinite(fn(params, np.stack([near, exact.data]))).all()
        with pytest.raises(ValueError, match="^matrix is not Hermitian"):
            HermitianPD(skew)
        with pytest.raises(ValueError, match="^matrix at index 2 is not Hermitian"):
            eigenvalues_batch(tag, np.stack([near, exact.data, skew.data]))
        assert HermitianPD(exact).mat == exact
        np.testing.assert_array_equal(eigenvalues_batch(tag, exact.data[None]),
                                      hermitian_eigenvalues(exact)[None])

    @pytest.mark.parametrize("tag", [R, C, H, O])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_point_is_refused_naming_its_index(self, tag, bad):
        m, n = (1, 1) if tag == O else (2, 3)
        d = min(m, n)
        cases = [
            (lambda p: logpdf_matric_t(MatricTParams(tag, m, n, 9.0), p), (m, n)),
            (lambda p: logpdf_matric_t(MatricTParams(tag, m, n, 9.0), p, "dual"), (m, n)),
            (lambda p: logpdf_matrix_mt(MatrixMTParams(tag, m, n, 3.0), p), (m, n)),
            (lambda p: logpdf_beta2_matric(BetaIIParams(tag, m, n, 9.0), p), (d, d)),
            (lambda p: logpdf_beta2_multivariate(BetaIIParams(tag, m, n, 9.0), p), (d, d)),
        ]
        for density, shape in cases:
            stack = np.zeros((4,) + shape + (tag.beta,))
            stack[..., 0] = np.eye(*shape)
            stack[1, 0, 0, tag.beta - 1] = bad
            with pytest.raises(ValueError, match="^the evaluation point has non-finite "
                                                 "coefficients$") as info:
                density(DivMatrix(tag, stack[1]))
            assert info.value.index is None
            with pytest.raises(ValueError, match="^the evaluation point at index 1 has "
                                                 "non-finite coefficients$") as info:
                density(stack)
            assert info.value.index == 1

    @pytest.mark.parametrize("scaled", [False, True])
    def test_second_call_embeds_only_the_point(self, monkeypatch, rng, scaled):
        # the records cache their constant factors and bases embedded
        import rdmt.algebra as alg

        calls = []
        embed = alg._complex_embed_raw

        def counted(x):
            calls.append(x.shape)
            return embed(x)

        monkeypatch.setattr(alg, "_complex_embed_raw", counted)
        scales = ((random_matrix(rng, H, 2, 3), random_hpd(rng, H, 2), random_hpd(rng, H, 3))
                  if scaled else ())
        t_params = MatricTParams(H, 2, 3, 9.0, *scales)
        mt_params = MatrixMTParams(H, 2, 3, 3.0, 1.5, *scales)
        # matrix-mt with identity scales skips both factors: no embed at all
        densities = [(lambda p: logpdf_matric_t(t_params, p), 1),
                     (lambda p: logpdf_matric_t(t_params, p, "dual"), 1),
                     (lambda p: logpdf_matrix_mt(mt_params, p), 1 if scaled else 0)]
        for point in (random_matrix(rng, H, 2, 3), rng.normal(size=(7, 2, 3, 4))):
            for density, embeds in densities:
                density(point)
                calls.clear()
                density(point)
                assert len(calls) == embeds


    @pytest.mark.parametrize("tag", [R, C, H])
    @pytest.mark.parametrize("scaled", [False, True])
    def test_a_stack_is_decomposed_once(self, monkeypatch, rng, tag, scaled):
        # one eigendecomposition per call gives |F| and the bracket of both
        # laws; no Cholesky factor of scale + F is taken
        calls = []

        def counted(name):
            kernel = getattr(np.linalg, name)

            def call(*args, **kw):
                calls.append(name)
                return kernel(*args, **kw)
            return call

        params = BetaIIParams(tag, 2, 3, 4.5, random_hpd(rng, tag, 2) if scaled else None)
        stack = _hpd_stack(rng, tag.beta, 2, 6, 0.5)
        stack[1] *= 1e300    # scaled by a power of two before the congruence
        stack[2, 1, 1] = -stack[2, 1, 1]    # outside the cone
        for fn in (logpdf_beta2_matric, logpdf_beta2_multivariate):
            fn(params, stack)    # the record's terms are computed once, here
            monkeypatch.setattr(np.linalg, "eigvalsh", counted("eigvalsh"))
            monkeypatch.setattr(np.linalg, "cholesky", counted("cholesky"))
            fn(params, stack)
            monkeypatch.undo()
            assert calls == ["eigvalsh"]
            calls.clear()


class TestPointIsAStackOfOne:
    """One point gives the bits of the same point inside a stack, in all four
    densities: each takes numpy's log of a positive-stride array, and the
    eigenvalues behind log|F| are C-contiguous at every beta.  numpy takes
    the log of a reversed 1-D array another way, so a reversed view of one
    matrix's eigenvalues moves the last bit of 7 of the beta II values below
    at beta 1 and 2."""

    @pytest.mark.parametrize("scaled", [False, True])
    @pytest.mark.parametrize("tag,m,n", [(tag, m, n) for tag in (R, C, H)
                                         for m, n in ((3, 8), (8, 3))] + [(O, 1, 1)])
    def test_a_point_gives_its_bits_in_a_stack(self, tag, m, n, scaled):
        gen, beta, d = np.random.default_rng(40), tag.beta, min(m, n)

        def hpd(k):
            return HermitianPD(DivMatrix(tag, _hpd_stack(gen, beta, k, 1, 0.5)[0]))

        beta2 = BetaIIParams(tag, m, n, 9.5, hpd(d) if scaled else None)
        cone = _hpd_stack(gen, beta, d, 300, 0.01)
        scales = (DivMatrix(tag, gen.normal(size=(m, n, beta))), hpd(m), hpd(n))
        nu = beta * (m - 1) + 2.5
        t = MatricTParams(tag, m, n, nu, *scales if scaled else ())
        mt = MatrixMTParams(tag, m, n, nu, 1.7, *scales if scaled else ())
        points = gen.normal(size=(100, m, n, beta))
        for density, params, stack, kw in [
                (logpdf_beta2_matric, beta2, cone, {}),
                (logpdf_beta2_multivariate, beta2, cone, {}),
                (logpdf_matric_t, t, points, {"form": "primal"}),
                (logpdf_matric_t, t, points, {"form": "dual"}),
                (logpdf_matrix_mt, mt, points, {})]:
            single = [density(params, DivMatrix(tag, x), **kw) for x in stack]
            assert np.array_equal(density(params, stack, **kw), single)

    @pytest.mark.parametrize("tag", [R, C, H, O])
    def test_eigenvalues_are_c_contiguous(self, tag):
        d = 1 if tag == O else 3
        stack = _hpd_stack(np.random.default_rng(1), tag.beta, d, 4, 0.5)
        # no kernel takes an octonion: the public operations give it its
        # real image
        kernels = () if tag == O else (_eigvalsh_raw(stack), _eigvalsh_raw(stack[0]))
        for eigs in kernels + (eigenvalues_batch(tag, stack),
                               hermitian_eigenvalues(DivMatrix(tag, stack[0]))):
            assert eigs.flags.c_contiguous


class TestSolveContract:
    """Every triangular solve of the samplers hands the kernel lower
    factors A = left lo, lower triangular with real positive diagonals, a
    random lo as it comes and a record's factor as its cached
    representation, and the kernel solves A* X = B.  The matric-t densities
    solve nothing: both forms are products."""

    @staticmethod
    def _check(lo):
        m = lo.shape[-3]
        rows, cols = np.triu_indices(m, 1)
        assert np.all(lo[..., rows, cols, :] == 0.0)
        diag = lo[..., np.arange(m), np.arange(m), :]
        assert np.all(diag[..., 0] > 0.0) and np.all(diag[..., 1:] == 0.0)

    @pytest.mark.parametrize("tag", [R, C, H, O])
    @pytest.mark.parametrize("size", [None, 5])
    def test_every_solve_is_of_a_lower_factor(self, monkeypatch, tag, size):
        import rdmt.distributions as dist

        calls = []
        solve = dist._solve_raw

        def checked(lo, b, left=None, right=None, post=(None, None)):
            for f, g in ((lo, left), post):
                if f is not None:
                    self._check(f)
                if g is not None:   # a constant, embedded as the records cache it
                    self._check(_complex_unembed_raw(g, b.shape[-1]))
                if f is not None or g is not None:
                    calls.append((f is None, g is None))
            return solve(lo, b, left, right, post)

        monkeypatch.setattr(dist, "_solve_raw", checked)
        beta = tag.beta
        m, n = (1, 1) if tag == O else (2, 3)
        gen = np.random.default_rng(31)

        def hpd(d):
            return HermitianPD(DivMatrix(tag, _hpd_stack(gen, beta, d, 1, 0.5)[0]))

        def mu():
            return DivMatrix(tag, gen.normal(size=(m, n, beta)))

        nu = beta * n + 2.0
        t_params = MatricTParams(tag, m, n, nu, mu(), hpd(m), hpd(n))
        mt_params = MatrixMTParams(tag, m, n, nu, 1.5, mu(), hpd(m), hpd(n))
        draws = [
            lambda: sample_matric_t(RngStream(3), t_params, size=size),
            lambda: sample_matric_t(RngStream(3), t_params, "inverse_root", size=size),
            lambda: sample_matrix_mt(RngStream(3), mt_params, size=size),
            lambda: sample_beta2_matric(RngStream(3), BetaIIParams(tag, m, n, nu),
                                        size=size),
        ]
        e_params = EllipticalTParams(tag, m, n, 4.0, (0.5, 0.5), (1.0, 3.0))
        draws.append(lambda: sample_elliptical_t(RngStream(3), e_params, size=size))
        for draw in draws:
            before = len(calls)
            draw()
            assert len(calls) > before
        points = gen.normal(size=(m, n, beta) if size is None else (size, m, n, beta))
        before = len(calls)
        for form in ("primal", "dual"):
            logpdf_matric_t(t_params, points if size else DivMatrix(tag, points), form)
        assert len(calls) == before


def _octonion_hpd(value):
    return HermitianPD.from_real(O, [[value]])


def _real_hpd(value, k=1):
    return HermitianPD.from_real(R, value * np.eye(k))


def _octonion_images():
    """family -> [(1x1 octonion record, its real record built by hand,
    keyword sets of the sampler, or None where it refuses the record)]: the
    coefficient row at nu' = 8 nu, each scale's real value, times I_8 on the
    column side, the Wishart's Xi / 8 (a real Gaussian coefficient has
    variance 1, not 1/8), and a beta II record's wide law (1, n', nu') as
    (R, 1, 8 n', 8 nu')."""
    mu = np.linspace(-0.7, 0.7, 8).reshape(1, 1, 8)
    mu_o, mu_r = DivMatrix(O, mu), DivMatrix(R, mu.reshape(1, 8, 1))
    beta2 = [(BetaIIParams(O, 1, 3, 2.0), BetaIIParams(R, 1, 24, 16.0), [{}]),
             (BetaIIParams(O, 1, 2, 3.5, _octonion_hpd(2.3)),
              BetaIIParams(R, 1, 16, 28.0, _real_hpd(2.3)), None)]
    return {
        "matric-t": [(MatricTParams(O, 1, 1, 2.5, mu_o, _octonion_hpd(2.3),
                                    _octonion_hpd(0.6)),
                      MatricTParams(R, 1, 8, 20.0, mu_r, _real_hpd(2.3), _real_hpd(0.6, 8)),
                      [{"method": "wishart_root"}, {"method": "inverse_root"}]),
                     (MatricTParams(O, 1, 1, 0.7), MatricTParams(R, 1, 8, 5.6),
                      [{"method": "wishart_root"}, {"method": "inverse_root"}])],
        "matrix-mt": [(MatrixMTParams(O, 1, 1, 3.5, 0.7, mu_o, _octonion_hpd(2.3),
                                      _octonion_hpd(0.6)),
                       MatrixMTParams(R, 1, 8, 28.0, 0.7, mu_r, _real_hpd(2.3),
                                      _real_hpd(0.6, 8)), [{}])],
        "wishart": [(WishartParams(O, 1, 3.0, _octonion_hpd(2.3)),
                     WishartParams(R, 1, 24.0, _real_hpd(2.3 / 8)),
                     [{"method": "bartlett"}, {"method": "gram"}])],
        "elliptical-t": [(EllipticalTParams(O, 1, 1, 4.0, (0.5, 0.5), (1.0, 3.0)),
                          EllipticalTParams(R, 1, 8, 32.0, (0.5, 0.5), (1.0, 3.0)), [{}])],
        # the cogram law is the wide law's: nu' = nu + n - m for the
        # matricvariate law, nu for the mv law
        "beta2-matric": beta2 + [(BetaIIParams(O, 3, 1, 4.5),
                                  BetaIIParams(R, 1, 24, 20.0), None)],
        "beta2-mv": beta2 + [(BetaIIParams(O, 3, 1, 4.5), BetaIIParams(R, 1, 24, 36.0),
                              None)],
        # no kernel: the draws are octonion coefficients as they come
        "gamma": [],
        "gaussian": [],
    }


def _octonion_of_real(x, hermitian):
    """(N, 1, 1, 8) octonions of the real image: rows (N, 1, 8, 1), or the
    (N, 1, 1, 1) real coefficients of Hermitian octonions."""
    if not hermitian:
        return x.reshape(len(x), 1, 1, 8)
    out = np.zeros(x.shape[:-1] + (8,))
    out[..., 0] = x[..., 0]
    return out


class TestOctonionImages:
    """A 1x1 octonion law is a real law of the 1 x 8 coefficient row of its
    points, at nu' = 8 nu.  For every row of the law table at beta = 8,
    against the real record built by hand: each log density agrees within
    1e-14 of |logpdf|, and the draws at a seed are the real record's draws
    mapped back, bit for bit."""

    def test_every_row_has_its_cases(self):
        assert set(_octonion_images()) == set(_FAMILIES)

    @pytest.mark.parametrize("family", sorted(f for f, r in _FAMILIES.items() if r.density))
    def test_the_density_is_the_real_records(self, family):
        row, gen = _FAMILIES[family], np.random.default_rng(41)
        forms = [{"form": "primal"}, {"form": "dual"}] if family == "matric-t" else [{}]
        for params, real, _ in _octonion_images()[family]:
            hermitian = isinstance(params, BetaIIParams)
            points = gen.normal(size=(5, 1, 1, 8))
            if hermitian:
                points = _octonion_of_real(np.abs(points[..., :1]), True)
            image = points[..., :1] if hermitian else points.reshape(5, 1, 8, 1)
            for kw in forms:
                got = row.density(params, points, **kw)
                want = row.density(real, image, **kw)
                assert np.all(np.abs(got - want) <= 1e-14 * np.abs(want))
                one = row.density(params, DivMatrix(O, points[0]), **kw)
                assert one == got[0]

    @pytest.mark.parametrize("family", sorted(f for f, r in _FAMILIES.items() if r.sampler))
    def test_the_draws_are_the_real_records_mapped_back(self, family):
        row = _FAMILIES[family]
        for params, real, keywords in _octonion_images()[family]:
            for kw in keywords or ():
                for size in (None, 6):
                    got = row.sampler(RngStream(12, 3), params, size=size, **kw)
                    want = row.sampler(RngStream(12, 3), real, size=size, **kw)
                    if size is None:
                        assert isinstance(got, type(want))
                        got, want = (x.mat if row.hermitian else x for x in (got, want))
                        got, want = got.data[None], want.data[None]
                    assert got.tobytes() == _octonion_of_real(want, row.hermitian).tobytes()

    def test_the_checks_run_on_the_octonion_record(self):
        with pytest.raises(DomainError, match="gram construction requires integer nu"):
            sample_wishart(RngStream(1), WishartParams(O, 1, 0.5), "gram")   # 8 nu = 4
        cogram = BetaIIParams(O, 3, 1, 1.5)
        with pytest.raises(DomainError, match=r"nu > m - 1 = 2, got nu = 1.5$"):
            logpdf_beta2_matric(cogram, DivMatrix.from_real(O, [[1.0]]))
        assert np.isfinite(logpdf_beta2_multivariate(cogram, DivMatrix.from_real(O, [[1.0]])))
        with pytest.raises(OctonionMatrixError, match="got 3x1$"):
            sample_beta2_matric(RngStream(1), BetaIIParams(O, 3, 1, 4.5))
        f = np.zeros((3, 1, 1, 8))
        f[:, 0, 0, 0] = 1.0
        f[1, 0, 0, 5] = 0.1
        with pytest.raises(ValueError, match="at index 1 is not Hermitian"):
            logpdf_beta2_matric(BetaIIParams(O, 1, 2, 3.0), f)
        t = np.zeros((3, 1, 1, 8))
        t[2, 0, 0, 3] = np.nan
        with pytest.raises(ValueError, match="at index 2 has non-finite"):
            logpdf_matric_t(MatricTParams(O, 1, 1, 3.0), t)
        with pytest.raises(ValueError, match="expected 1x1 over OCTONION"):
            logpdf_matrix_mt(MatrixMTParams(O, 1, 1, 3.0), np.zeros((2, 1, 8, 1)))
