import itertools
import math

import numpy as np
import pytest

from rdmt.algebra import (
    AlgebraTag,
    DivMatrix,
    HermitianPD,
    conj_transpose,
    hermitian_eigenvalues,
    matmul,
    singular_values,
)
from rdmt.distributions import (
    _FAMILIES,
    BetaIIParams,
    MatricTParams,
    RngStream,
    logpdf_beta2_matric,
    logpdf_beta2_multivariate,
    sample_matric_t,
)
from rdmt.errors import DomainError, OctonionMatrixError
from rdmt.spectral import (
    SpectrumSample,
    empirical_spectrum,
    eigenvalues_batch,
    log_joint_eig_beta2,
    log_joint_eig_mv,
    log_joint_sv_matric_t,
    log_joint_sv_matrix_mt,
    singular_values_batch,
)
from rdmt.verify import quadrature_mass_eig2, quadrature_mass_positive

from conftest import random_hpd, random_matrix

R, C, H, O = AlgebraTag.REAL, AlgebraTag.COMPLEX, AlgebraTag.QUATERNION, AlgebraTag.OCTONION


class TestSpectrumSample:
    def test_valid(self):
        s = SpectrumSample((3.0, 1.0), "singular")
        assert len(s) == 2

    def test_rejects_tie(self):
        with pytest.raises(ValueError, match="tie"):
            SpectrumSample((2.0, 2.0), "eigen")
        with pytest.raises(ValueError, match="tie"):
            SpectrumSample((2.0, 2.0 - 1e-14), "eigen")

    def test_tie_is_relative_to_the_largest_value_alone(self):
        # 2.5x apart at 2^-40 are distinct values, as they are at 2^0 and 2^40
        x = np.random.default_rng(4).normal(size=(2, 3, 1))
        base = empirical_spectrum(DivMatrix(R, x)).values
        for k in (-40, 0, 40):
            got = empirical_spectrum(DivMatrix(R, np.ldexp(x, k))).values
            np.testing.assert_allclose(got, np.ldexp(base, k), rtol=1e-14)
        assert len(SpectrumSample((7.885e-13, 3.156e-13), "singular")) == 2
        for k in (-40, 0, 40):
            with pytest.raises(ValueError, match="tie"):
                SpectrumSample((math.ldexp(2.0, k), math.ldexp(2.0 - 1e-14, k)), "eigen")

    def test_rejects_nonpositive_and_unsorted(self):
        with pytest.raises(ValueError):
            SpectrumSample((2.0, 0.0), "eigen")
        with pytest.raises(ValueError):
            SpectrumSample((1.0, 2.0), "eigen")

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            SpectrumSample((1.0,), "spectral")

    @pytest.mark.parametrize("values,bad", [((3.0, math.nan, 1.0), "nan"),
                                            ((math.nan,), "nan"),
                                            ((math.inf, 1.0), "inf")])
    def test_rejects_non_finite_values_first(self, values, bad):
        # NaN fails every comparison, so the order and tie checks miss it,
        # and inf - 1.0 is no tie
        with pytest.raises(ValueError, match=f"^spectrum values must be finite; got {bad}$"):
            SpectrumSample(values, "singular")


class TestSvMatricT:
    def test_scalar_folded_cauchy(self):
        # 2/pi * (1+d^2)^-1 at d = 1
        assert math.isclose(log_joint_sv_matric_t(R, 1, 1, 1.0, [1.0]),
                            math.log(1.0 / math.pi), abs_tol=1e-12)

    def test_scalar_n2(self):
        # 2 d / (B(1,1) (1+d^2)^2) at d = 1 is 1/2
        assert math.isclose(log_joint_sv_matric_t(R, 1, 2, 2.0, [1.0]),
                            math.log(0.5), abs_tol=1e-12)

    def test_complex_coefficient_value(self):
        # At beta = 2, m = 1 the coefficient is 2 pi^(1-1)/B = 2/B.
        from rdmt.special import log_mvbeta

        got = log_joint_sv_matric_t(C, 1, 3, 2.0, [1.0])
        kern = (2 * (3 - 1 + 1) - 1) * math.log(1.0) - (2 * 5 / 2) * math.log(2.0)
        coef = got - kern
        assert math.isclose(coef, math.log(2.0) - log_mvbeta(C, 1, 2.0, 3.0),
                            abs_tol=1e-12)

    def test_ordering_violation(self):
        with pytest.raises(ValueError):
            log_joint_sv_matric_t(R, 2, 3, 4.0, [1.0, 2.0])


class TestSvMatrixMT:
    def test_m1_coincides_with_matric_t(self):
        for x in np.linspace(0.05, 4.0, 50):
            a = log_joint_sv_matric_t(R, 1, 2, 3.0, [x])
            b = log_joint_sv_matrix_mt(R, 1, 2, 3.0, [x])
            assert abs(a - b) < 1e-12

    def test_two_dim_mass(self):
        mass = quadrature_mass_eig2(
            lambda a1, a2: log_joint_sv_matrix_mt(R, 2, 2, 3.0, [a1, a2]))
        assert abs(mass - 1.0) < 1e-4

    def test_ordering_violation(self):
        with pytest.raises(ValueError):
            log_joint_sv_matrix_mt(R, 2, 2, 3.0, [1.0, 1.0])


class TestEigenDensities:
    def test_scalar_reduction_matches_beta2(self):
        params = BetaIIParams(R, 1, 3, 4.0)
        for lam in (0.2, 1.0, 3.7):
            a = log_joint_eig_beta2(R, 1, 3, 4.0, [lam])
            b = logpdf_beta2_matric(params, HermitianPD.from_real(R, [[lam]]))
            assert abs(a - b) < 1e-12

    def test_scalar_reduction_matches_beta2_mv(self):
        params = BetaIIParams(C, 1, 2, 3.0)
        for lam in (0.4, 2.2):
            a = log_joint_eig_mv(C, 1, 2, 3.0, [lam])
            b = logpdf_beta2_multivariate(params, HermitianPD.from_real(C, [[lam]]))
            assert abs(a - b) < 1e-12

    @pytest.mark.parametrize("fn_sv,fn_eig", [
        (log_joint_sv_matric_t, log_joint_eig_beta2),
        (log_joint_sv_matrix_mt, log_joint_eig_mv),
    ])
    def test_change_of_variables_consistency(self, rng, fn_sv, fn_eig):
        # lambda_i = delta_i^2 with volume factor 2^-m prod lambda_i^(-1/2)
        m, n, nu = 2, 3, 4.0
        for _ in range(20):
            lam = np.sort(rng.uniform(0.05, 5.0, size=m))[::-1]
            delta = np.sqrt(lam)
            lhs = fn_eig(R, m, n, nu, lam)
            rhs = (fn_sv(R, m, n, nu, delta) - m * math.log(2.0)
                   - 0.5 * float(np.log(lam).sum()))
            assert abs(lhs - rhs) < 1e-10

    def test_two_dim_masses(self):
        mass_b2 = quadrature_mass_eig2(
            lambda l1, l2: log_joint_eig_beta2(R, 2, 3, 3.0, [l1, l2]))
        mass_mv = quadrature_mass_eig2(
            lambda l1, l2: log_joint_eig_mv(R, 2, 3, 3.0, [l1, l2]))
        assert abs(mass_b2 - 1.0) < 1e-4
        assert abs(mass_mv - 1.0) < 1e-4

    def test_quaternion_two_dim_masses(self):
        mass_b2 = quadrature_mass_eig2(
            lambda l1, l2: log_joint_eig_beta2(H, 2, 2, 4.0, [l1, l2]))
        assert abs(mass_b2 - 1.0) < 1e-4


class TestEmpiricalSpectrum:
    def test_padded_diagonal(self):
        x = DivMatrix.from_real(R, [[3.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        s = empirical_spectrum(x, "singular")
        assert s.values == (3.0, 1.0)

    def test_eigen_on_gram_equals_squared_singular(self, rng):
        x = random_matrix(rng, C, 2, 3)
        sv = empirical_spectrum(x, "singular")
        f = HermitianPD(matmul(x, conj_transpose(x)))
        ev = empirical_spectrum(f, "eigen")
        np.testing.assert_allclose(np.array(ev.values),
                                   np.array(sv.values) ** 2, rtol=1e-10)

    def test_quaternion_pair_collapse_count(self, rng):
        x = random_matrix(rng, H, 2, 3)
        assert len(empirical_spectrum(x, "singular")) == 2

    def test_octonion_scalar_and_larger_rejected(self, rng):
        x = random_matrix(rng, O, 1, 1)
        s = empirical_spectrum(x, "singular")
        assert s.values == pytest.approx((x.entry(0, 0).norm(),), rel=1e-15)
        f = DivMatrix.from_real(O, [[1.75]])
        assert empirical_spectrum(f, "eigen").values == (1.75,)
        with pytest.raises(OctonionMatrixError, match="2x2"):
            empirical_spectrum(random_matrix(rng, O, 2, 2), "singular")

    def test_octonion_scalar_batches(self, rng):
        # singular values are the norms |x|, eigenvalues of Hermitian (real)
        # 1x1 octonions their real coefficients
        raw = rng.normal(size=(6, 1, 1, 8))
        np.testing.assert_allclose(singular_values_batch(O, raw),
                                   np.linalg.norm(raw[:, 0], axis=-1), rtol=1e-15)
        real = np.zeros_like(raw)
        real[..., 0] = raw[..., 0]
        np.testing.assert_array_equal(eigenvalues_batch(O, real), raw[:, 0, :, 0])
        with pytest.raises(OctonionMatrixError, match="1x2"):
            singular_values_batch(O, rng.normal(size=(6, 1, 2, 8)))

    def test_batch_refuses_a_tag_that_disagrees_with_the_array(self, rng):
        # a quaternion stack read as real would give its real parts' spectra
        from rdmt.algebra import _gram_raw

        raw = rng.normal(size=(5, 2, 3, 4))
        for fn, stack in ((singular_values_batch, raw),
                          (eigenvalues_batch, _gram_raw(raw))):
            for tag in (R, C, O):
                with pytest.raises(ValueError, match="coefficient axis of length"):
                    fn(tag, stack)

    def test_batch_matches_single(self, rng):
        raw = rng.normal(size=(5, 2, 3, 4))
        batch = singular_values_batch(H, raw)
        for i in range(5):
            single = empirical_spectrum(DivMatrix(H, raw[i]), "singular")
            np.testing.assert_allclose(batch[i], single.values, atol=1e-12)


class TestEigenvaluesBatchInput:
    """eigenvalues_batch refuses what hermitian_eigenvalues refuses, naming
    the matrix, and leaves an exactly Hermitian stack's bits alone."""

    @staticmethod
    def _stack(rng, beta):
        from rdmt.algebra import _gram_raw

        return _gram_raw(rng.normal(size=(3, 2, 3, beta)))

    @pytest.mark.parametrize("tag", [R, C, H])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_is_refused(self, rng, tag, bad):
        f = self._stack(rng, tag.beta)
        f[1, 1, 0, tag.beta - 1] = bad
        with pytest.raises(ValueError,
                           match="^matrix at index 1 has non-finite coefficients"):
            eigenvalues_batch(tag, f)

    @pytest.mark.parametrize("tag", [R, C, H])
    def test_non_hermitian_is_refused(self, rng, tag):
        f = self._stack(rng, tag.beta)
        f[2] = 0.0
        f[2, :, :, 0] = [[1.0, 5.0], [0.0, 1.0]]
        with pytest.raises(ValueError, match="^matrix at index 2 is not Hermitian"):
            eigenvalues_batch(tag, f)

    @pytest.mark.parametrize("tag", [R, C, H])
    def test_hermitian_stack_keeps_its_bits(self, rng, tag):
        from rdmt.algebra import _eigvalsh_raw

        f = self._stack(rng, tag.beta)
        np.testing.assert_array_equal(eigenvalues_batch(tag, f),
                                      _eigvalsh_raw(f))

    def test_non_square_is_refused(self, rng):
        with pytest.raises(ValueError, match="square"):
            eigenvalues_batch(R, rng.normal(size=(3, 2, 3, 1)))


class TestEmpiricalVsClosedForm:
    def test_lmax_cdf_matches_samples(self):
        # Empirical largest-eigenvalue law of the gram matrix vs the
        # numerically marginalized closed-form spectrum density.
        from rdmt.verify import _lmax_cdf_eig_beta2_m2, ks_one_sample
        from rdmt.algebra import _conj_t_raw, _hermitize_raw, _matmul_raw

        tag, m, n, nu, size = R, 2, 3, 4.0, 20000
        t = sample_matric_t(RngStream(31), MatricTParams(tag, m, n, nu), size=size)
        f = _hermitize_raw(_matmul_raw(t, _conj_t_raw(t)))
        lmax = np.sort(eigenvalues_batch(tag, f)[:, 0])
        xs = np.unique(np.quantile(lmax, np.linspace(0.0, 1.0, 201)))
        xs = np.concatenate([[0.5 * xs[0]], xs, [1.5 * xs[-1]]])
        cdf = _lmax_cdf_eig_beta2_m2(n, nu, xs)
        inside = lmax[(lmax >= xs[0]) & (lmax <= xs[-1])]
        _, p = ks_one_sample(inside, cdf)
        assert p > 0.005


class TestTallSpectra:
    """A tall (m > n) T has the spectra of its wide transpose, at nu + n - m
    under the determinant coupling and at nu under the trace coupling: the
    samplers, which draw the tall matrix itself, agree with the densities."""

    # the law table's T laws: its rows with a density and a singular overlay
    LAWS = [pytest.param(row, id=name) for name, row in _FAMILIES.items()
            if row.density and "singular" in (row.overlays or {})]

    @pytest.mark.parametrize("tag", [R, C])
    @pytest.mark.parametrize("row", LAWS)
    def test_one_sample_ks_against_the_density(self, tag, row):
        from rdmt.verify import _cumulative_cdf, ks_one_sample

        density = row.overlays["singular"]
        raw = row.sampler(RngStream(41), row.record(tag, 2, 1, 4.0), size=2000)
        d = np.sort(singular_values_batch(tag, raw)[:, 0])
        xs = np.unique(np.quantile(d, np.linspace(0.0, 1.0, 101)))
        # _cumulative_cdf hands the density every node of every piece at
        # once, in an array of any shape
        cdf, total = _cumulative_cdf(
            lambda x: np.exp(density(tag, 2, 1, 4.0, x.reshape(-1, 1))).reshape(x.shape),
            0.0, xs, 1e-10)
        assert abs(total - 1.0) < 1e-8
        _, p = ks_one_sample(d, cdf)
        assert p > 0.01

    @pytest.mark.parametrize("tag", [R, C])
    @pytest.mark.parametrize("row", LAWS)
    def test_two_sample_ks_against_the_wide_sampler(self, tag, row):
        from rdmt.verify import _per_sv_ks2

        # the wide nu is nu + n - m = 4 under the determinant coupling and
        # nu = 5 under the trace coupling: the one whose wide overlay is the
        # tall one's
        density, d = row.overlays["singular"], np.array([[1.7, 0.6]])
        (nu_wide,) = [nu for nu in (4.0, 5.0) if np.allclose(
            density(tag, 3, 2, 5.0, d), density(tag, 2, 3, nu, d), rtol=1e-13)]
        tall = row.sampler(RngStream(43), row.record(tag, 3, 2, 5.0), size=4000)
        wide = row.sampler(RngStream(44), row.record(tag, 2, 3, nu_wide), size=4000)
        pmin, _ = _per_sv_ks2(tag, tall, wide)
        assert pmin > 0.01


class TestMatrixAgainstSpectralDensity:
    """Each matrix density of the law table against its spectral density:
    the identity that turns the one into the other holds with the paper's
    constants, at every point, nu, shape and beta.

    The SVD volume element (Edelman & Rao, "Random matrix theory", Acta
    Numerica 2005, section 3): a k x N matrix T = U diag(s) V*, k <= N, with
    U in the k x k unitary group of the algebra and V* a k x N matrix with
    orthonormal rows, has

        dT = prod s_i^(beta(N-k+1)-1) prod_{i<j} (s_i^2 - s_j^2)^beta
             ds (U* dU) (V* dV),

    and on the ordered cone s_1 > ... > s_k the pair (U, V) is fixed up to
    (U D, V D), D diagonal with unit entries: k copies of the unit sphere of
    the algebra, the 1 x 1 Stiefel manifold.  A tall T has T*'s singular
    values and the same Lebesgue measure.  A standard law's density depends
    on T only through s, so integrating out (U, V) gives

        log_joint_sv(s) - logpdf(T) - (beta(N-k+1)-1) sum log s_i
            - beta sum_{i<j} log(s_i^2 - s_j^2) = C,
        C = log vol V_k(N) + log vol V_k(k) - k log vol V_1(1),

    with k = min(m, n), N = max(m, n) and log vol V_k(N) the
    `stiefel_log_volume(tag, k, N)`.  A Hermitian d x d F = U diag(l) U*
    has dF = prod_{i<j} (l_i - l_j)^beta dl (U* dU), U fixed up to the same
    diagonal, so for the beta II laws

        log_joint_eig(l) - logpdf(F) - beta sum_{i<j} log(l_i - l_j) = C',
        C' = log vol V_d(d) - d log vol V_1(1).

    Both sides are computed apart: the matrix densities' constants in
    `distributions`, the spectral ones in `spectral`."""

    # the table's rows with a density and an overlay, each with the overlay
    # of its points: the singular values of T, the eigenvalues of a Hermitian
    # F; beta2-mv has no overlay in the table (no sampler draws it)
    LAWS = [pytest.param(row.record, row.density,
                         row.overlays["eigen" if row.hermitian else "singular"],
                         row.hermitian, id=name)
            for name, row in _FAMILIES.items() if row.density and row.overlays]
    LAWS.append(pytest.param(BetaIIParams, _FAMILIES["beta2-mv"].density,
                             log_joint_eig_mv, True, id="beta2-mv"))

    @pytest.mark.parametrize("tag", [R, C, H])
    @pytest.mark.parametrize("m,n", [(1, 3), (2, 3), (2, 2), (3, 4), (4, 5), (5, 5),
                                     (2, 5), (3, 1), (3, 2), (4, 3), (5, 4), (5, 2)])
    @pytest.mark.parametrize("record,density,overlay,hermitian", LAWS)
    def test_the_gap_is_the_stiefel_constant(self, tag, m, n, record, density, overlay,
                                             hermitian):
        from rdmt.special import stiefel_log_volume

        def log_volume(rows, cols):
            return stiefel_log_volume(tag, rows, cols)

        beta = tag.beta
        k, big = min(m, n), max(m, n)
        const = log_volume(k, k) - k * log_volume(1, 1)
        if not hermitian:
            const += log_volume(k, big)
        rng = np.random.default_rng(1000 * m + 10 * n + beta)
        gaps, scale = [], max(1.0, abs(const))
        for nu in (beta * (m - 1) + 0.7, beta * (m - 1) + 6.3):
            params = record(tag, m, n, nu)
            for _ in range(4):
                if hermitian:
                    point = random_hpd(rng, tag, k)
                    v = hermitian_eigenvalues(point)
                    jacobian = 0.0
                    pairs = [v[i] - v[j] for i, j in itertools.combinations(range(k), 2)]
                else:
                    point = random_matrix(rng, tag, m, n)
                    v = singular_values(point)
                    jacobian = (beta * (big - k + 1) - 1) * float(np.log(v).sum())
                    pairs = [v[i] ** 2 - v[j] ** 2
                             for i, j in itertools.combinations(range(k), 2)]
                spectral, matrix = overlay(tag, m, n, nu, v), density(params, point)
                gaps.append(spectral - matrix - jacobian
                            - beta * sum(math.log(p) for p in pairs))
                scale = max(scale, abs(spectral), abs(matrix))
        assert max(abs(gap - const) for gap in gaps) <= 1e-12 * scale

    @pytest.mark.parametrize("tag", [R, C, H])
    @pytest.mark.parametrize("m,n", [(2, 3), (3, 3), (3, 2), (4, 3)])
    def test_beta2_mv_takes_nu_below_the_matricvariate_bound(self, tag, m, n):
        # the mv law needs only nu > 0, the matricvariate one nu > m - 1 (the
        # wide law's nu above d - 1), which it refuses by name on the same record
        from rdmt.special import stiefel_log_volume

        beta, d = tag.beta, min(m, n)
        const = stiefel_log_volume(tag, d, d) - d * stiefel_log_volume(tag, 1, 1)
        rng = np.random.default_rng(100 * m + n + beta)
        for nu in (0.5, m - 1.0):
            params = BetaIIParams(tag, m, n, nu)
            with pytest.raises(DomainError, match=rf"requires nu > m - 1 = {m - 1}, "
                                                  rf"got nu = {nu}"):
                logpdf_beta2_matric(params, random_hpd(rng, tag, d))
            for _ in range(4):
                point = random_hpd(rng, tag, d)
                v = hermitian_eigenvalues(point)
                spectral = log_joint_eig_mv(tag, m, n, nu, v)
                matrix = logpdf_beta2_multivariate(params, point)
                assert math.isfinite(matrix)
                vandermonde = beta * sum(math.log(v[i] - v[j])
                                         for i, j in itertools.combinations(range(d), 2))
                scale = max(1.0, abs(spectral), abs(matrix), abs(const))
                assert abs(spectral - matrix - vandermonde - const) <= 1e-12 * scale


def _uncached_log_joint(tag, m, n, nu, v, trace, singular):
    """The spectral-density core as one formula, every constant recomputed
    at each call, in the order of additions the core keeps: the coupling's
    constant, the volume constant, the Jacobian's 2^m, the kernel, then the
    Vandermonde of the unscaled values."""
    from rdmt.special import _wide, log_gamma, log_mvbeta, log_mvgamma, tau

    beta = tag.beta
    d, n_wide, nu_wide = _wide(m, n, nu, trace)
    exp_f = beta * (n_wide - d + 1) / 2.0 - 1.0
    if trace:
        q = beta * (nu + m * n) / 2.0
        const = (-log_mvgamma(tag, d, beta * n_wide / 2.0)
                 + (log_gamma(q) - log_gamma(beta * nu / 2.0)))
    else:
        q = beta * (n + nu) / 2.0
        const = -log_mvbeta(tag, d, beta * nu_wide / 2.0, beta * n_wide / 2.0)
    const += ((beta * d * d / 2.0 + tau(tag, d)) * math.log(math.pi)
              - log_mvgamma(tag, d, beta * d / 2.0))
    if beta > 1:
        const += d * log_gamma(beta / 2.0)
    log_v = np.log(v)
    lam, log_lam = v, log_v
    if singular:
        exp_f, const = exp_f + 0.5, const + d * math.log(2.0)
        lam, log_lam = v * v, 2.0 * log_v
    k = np.log1p(lam.sum(axis=1)) if trace else np.log1p(lam).sum(axis=1)
    out = const - q * k
    if exp_f:
        out = out + exp_f * log_lam.sum(axis=1)
    for i in range(d - 1):  # d_i^2 - d_j^2 = (d_i - d_j)(d_i + d_j)
        gaps = np.log(v[:, i, None] - v[:, i + 1:])
        if singular:
            gaps += np.logaddexp(log_v[:, i, None], log_v[:, i + 1:])
        out += beta * gaps.sum(axis=1)
    return out


class TestSpectralCore:
    @pytest.mark.parametrize("tag", [R, C, H, O])
    @pytest.mark.parametrize("fn,trace,singular", [
        (log_joint_sv_matric_t, False, True),
        (log_joint_sv_matrix_mt, True, True),
        (log_joint_eig_beta2, False, False),
        (log_joint_eig_mv, True, False),
    ])
    def test_cached_constant_is_bit_identical(self, rng, tag, fn, trace, singular):
        from rdmt.spectral import _coupling, _log_joint_terms

        _coupling.cache_clear()
        _log_joint_terms.cache_clear()
        shapes = ((1, 1, 1.5), (1, 3, 2.5), (2, 3, 4.5), (3, 4, 5.0), (3, 2, 9.0),
                  (4, 2, 9.5), (2, 1, 4.0))
        if tag == O:
            shapes = ((1, 1, 1.5), (1, 3, 2.5), (3, 1, 4.5), (2, 3, 3.5))
        for m, n, nu in shapes:
            v = -np.sort(-rng.uniform(0.05, 4.0, size=(11, min(m, n))), axis=1)
            want = _uncached_log_joint(tag, m, n, nu, v, trace, singular)
            for _ in range(2):  # the call that fills the cache, then a cached one
                np.testing.assert_array_equal(fn(tag, m, n, nu, v), want)
                assert fn(tag, m, n, nu, v[3]) == want[3]
        assert _log_joint_terms.cache_info().hits > 0

    PAIRS = [
        (log_joint_sv_matric_t, log_joint_eig_beta2),
        (log_joint_sv_matrix_mt, log_joint_eig_mv),
    ]

    @pytest.mark.parametrize("tag", [R, C, H, O])
    @pytest.mark.parametrize("fn_sv,fn_eig", PAIRS)
    def test_singular_is_eigen_under_squares(self, rng, tag, fn_sv, fn_eig):
        # lambda = d^2: p_sv(d) = p_eig(d^2) * prod |d lambda / d d| = 2^m prod d
        for m, n, nu in ((1, 1, 1.5), (1, 3, 2.5), (2, 2, 3.0), (2, 3, 4.5),
                         (3, 4, 5.0)):
            d = np.sort(rng.uniform(0.05, 3.0, size=m))[::-1]
            sv = fn_sv(tag, m, n, nu, d)
            eig = fn_eig(tag, m, n, nu, d * d)
            want = eig + m * math.log(2.0) + float(np.log(d).sum())
            assert abs(sv - want) <= 1e-12 * max(1.0, abs(want))

    @pytest.mark.parametrize("tag", [R, C, H, O])
    @pytest.mark.parametrize("fn", [log_joint_sv_matric_t, log_joint_sv_matrix_mt,
                                    log_joint_eig_beta2, log_joint_eig_mv])
    def test_batch_equals_rows(self, rng, tag, fn):
        for m, n, nu in ((1, 2, 3.0), (2, 3, 4.5), (3, 3, 5.0)):
            v = -np.sort(-rng.uniform(0.05, 4.0, size=(17, m)), axis=1)
            batch = fn(tag, m, n, nu, v)
            assert isinstance(batch, np.ndarray) and batch.shape == (17,)
            assert fn(tag, m, n, nu, v[:0]).shape == (0,)    # an empty batch
            for row, got in zip(v, batch):
                single = fn(tag, m, n, nu, row)
                assert type(single) is float
                assert abs(got - single) <= 1e-12 * max(1.0, abs(single))

    @pytest.mark.parametrize("tag", [R, C, H, O])
    @pytest.mark.parametrize("fn,wide_nu", [
        (log_joint_sv_matric_t, 9.0 + 2 - 3), (log_joint_eig_beta2, 9.0 + 2 - 3),
        (log_joint_sv_matrix_mt, 9.0), (log_joint_eig_mv, 9.0)])
    def test_tall_is_the_wide_transpose(self, tag, fn, wide_nu):
        # a 3 x 2 T has the spectra of its 2 x 3 transpose, at nu + n - m
        # under the determinant coupling and at nu under the trace coupling
        v = np.array([[3.0, 2.0], [1.5, 0.25]])
        assert np.array_equal(fn(tag, 3, 2, 9.0, v), fn(tag, 2, 3, wide_nu, v))
        assert fn(tag, 3, 2, 9.0, v[0]) == fn(tag, 2, 3, wide_nu, v[0])
        with pytest.raises(ValueError, match="spectra of 2 values"):
            fn(tag, 3, 2, 9.0, [3.0, 2.0, 1.0])

    def test_bad_row_is_named(self):
        v = np.array([[2.0, 1.0], [3.0, 0.5], [1.0, 1.0], [2.0, -1.0]])
        with pytest.raises(ValueError, match="row 2"):
            log_joint_eig_mv(R, 2, 3, 4.0, v)
        with pytest.raises(ValueError, match="row 1"):
            log_joint_sv_matric_t(R, 2, 3, 4.0, v[[0, 3]])
        with pytest.raises(ValueError, match="row 0"):
            log_joint_eig_beta2(R, 2, 3, 4.0, [1.0, np.nan])
        with pytest.raises(ValueError):
            log_joint_eig_beta2(R, 2, 3, 4.0, np.ones((2, 2, 2)))


def _reference_spectral(tag, m, n, nu, values, trace, singular):
    """(log density, largest term) of a spectral density at one spectrum of
    doubles, to 40 digits, as the closed form is written at the wide shape
    (k, N) = (min(m, n), max(m, n)), nu' = nu + min(0, n - m) under the
    determinant coupling and nu under the trace coupling:

        pi^(beta k^2/2 + tau) G / Gamma_k[beta k/2] * c K
        * prod lambda_i^(beta(N-k+1)/2-1) prod_{i<j} (lambda_i-lambda_j)^beta,

    c K = prod (1+lambda_i)^-(a+b) / B_k[a, b], a = beta nu'/2, b = beta N/2,
    or c K = (1 + sum lambda_i)^-q1 Gamma[q1] / (Gamma[beta nu/2] Gamma_k[b]),
    q1 = beta(nu + mn)/2, and G = Gamma(beta/2)^k for beta > 1, 1 for beta = 1
    (ERRATA.md section 5); singular values d enter as lambda = d^2 with the
    Jacobian 2^k prod d_i."""
    mp = pytest.importorskip("mpmath")
    beta, k, big = tag.beta, min(m, n), max(m, n)
    tau = {1: 0, 2: -k, 4: -2 * k, 8: -4 * k}[beta]
    with mp.workdps(40):
        nu = mp.mpf(nu)
        nu_w = nu if trace or n >= m else nu + n - m
        a, b = beta * nu_w / 2, mp.mpf(beta * big) / 2
        v = [mp.mpf(float(x)) for x in values]
        lam = [x * x for x in v] if singular else v

        def lmg(x):
            return (k * (k - 1) * beta * mp.log(mp.pi) / 4
                    + mp.fsum(mp.loggamma(x - mp.mpf(i * beta) / 2) for i in range(k)))

        terms = [(mp.mpf(beta * k * k) / 2 + tau) * mp.log(mp.pi), -lmg(mp.mpf(beta * k) / 2),
                 k * mp.loggamma(mp.mpf(beta) / 2) if beta > 1 else 0,
                 (mp.mpf(beta * (big - k + 1)) / 2 - 1) * mp.fsum(mp.log(x) for x in lam),
                 beta * mp.fsum(mp.log(lam[i] - lam[j])
                                for i, j in itertools.combinations(range(k), 2))]
        if trace:
            q1 = beta * (nu + m * n) / 2
            terms += [mp.loggamma(q1), -mp.loggamma(beta * nu / 2), -lmg(b),
                      -q1 * mp.log1p(mp.fsum(lam))]
        else:
            terms += [lmg(a + b), -lmg(a), -lmg(b),
                      -(a + b) * mp.fsum(mp.log1p(x) for x in lam)]
        if singular:
            terms += [k * mp.log(2), mp.fsum(mp.log(x) for x in v)]
        return float(mp.fsum(terms)), float(max(abs(t) for t in terms))


class TestSpectraAgainstMpmath:
    """The four spectral densities at one, two and three values from 1e-200
    to 1e200 against a 40-digit reference (`_reference_spectral`), within 8
    eps of the largest term, with no numpy warning.  A singular value past
    2^512 or below 2^-537 has a square outside the doubles, and a spectrum
    this wide sums past them; the kernel scales each spectrum by a power of
    two first, and the Vandermonde takes the values unscaled."""

    FNS = [(log_joint_sv_matric_t, False, True), (log_joint_sv_matrix_mt, True, True),
           (log_joint_eig_beta2, False, False), (log_joint_eig_mv, True, False)]
    EXPONENTS = range(-200, 201, 25)

    @staticmethod
    def _check(tag, m, n, nu, fn, trace, singular, spectra):
        batch = fn(tag, m, n, nu, spectra)
        for value, v in zip(batch, spectra):
            single = fn(tag, m, n, nu, v)
            want, largest = _reference_spectral(tag, m, n, nu, v, trace, singular)
            assert math.isfinite(value) and value == single, (v, value, single)
            assert abs(value - want) <= 8 * np.finfo(float).eps * largest, (v, value, want)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("tag", [R, C, H, O])
    @pytest.mark.parametrize("m,n", [(1, 1), (1, 3), (2, 1)])
    @pytest.mark.parametrize("fn,trace,singular", FNS)
    def test_one_value(self, tag, m, n, fn, trace, singular):
        spectra = np.array([[1.7 * 10.0 ** e] for e in self.EXPONENTS])
        self._check(tag, m, n, 2.5, fn, trace, singular, spectra)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("tag", [R, C, H])
    @pytest.mark.parametrize("m,n", [(2, 2), (2, 3), (3, 2)])
    @pytest.mark.parametrize("fn,trace,singular", FNS)
    def test_two_values(self, tag, m, n, fn, trace, singular):
        # every pair of the grid, and each grid value with one a third below it
        grid = [1.7 * 10.0 ** e for e in reversed(self.EXPONENTS)]
        spectra = [[hi, lo] for hi, lo in itertools.combinations(grid, 2)]
        spectra += [[x, x / 3.0] for x in grid]
        self._check(tag, m, n, 2.5, fn, trace, singular, np.array(spectra))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("tag", [R, C, H])
    @pytest.mark.parametrize("m,n", [(3, 3), (3, 4)])
    @pytest.mark.parametrize("fn,trace,singular", FNS)
    def test_three_values(self, tag, m, n, fn, trace, singular):
        # every triple of a coarser grid, each grid value with two a third and a
        # ninth below it, and spectra whose two smaller values, scaled from the
        # largest (and squared), fall below the doubles
        grid = [1.7 * 10.0 ** e for e in reversed(self.EXPONENTS)]
        spectra = [list(t) for t in itertools.combinations(grid[::2], 3)]
        spectra += [[x, x / 3.0, x / 9.0] for x in grid]
        spectra += [[1e200, 1e-200, 1e-250], [1e100, 1e-100, 1e-120],
                    [1e78, 1e-100, 1e-110], [1e70, 1e-160, 1e-165]]
        self._check(tag, m, n, 2.5, fn, trace, singular, np.array(spectra))


def _log_selberg(m, a, b, g):
    """log of Selberg's integral (Selberg 1944; Forrester & Warnaar, Bull.
    AMS 45, 2008) over [0, 1]^m:
    int prod u_i^(a-1) (1-u_i)^(b-1) prod_{i<j} |u_i - u_j|^(2g) du."""
    return sum(math.lgamma(a + j * g) + math.lgamma(b + j * g)
               + math.lgamma(1.0 + (j + 1) * g)
               - math.lgamma(a + b + (m + j - 1) * g) - math.lgamma(1.0 + g)
               for j in range(m))


def _log_laguerre_selberg(m, a, g):
    """log of its Laguerre form over (0, inf)^m:
    int prod x_i^(a-1) e^(-x_i) prod_{i<j} |x_i - x_j|^(2g) dx."""
    return sum(math.lgamma(a + j * g) + math.lgamma(1.0 + (j + 1) * g)
               - math.lgamma(1.0 + g) for j in range(m))


class TestSelbergMass:
    """Every joint density integrates to 1 over the ordered cone, for every
    beta and m, by Selberg's integral: no quadrature.

    The eigenvalue law is C * prod lam_i^(a-1) * K(lam) * prod_{i<j}
    (lam_i - lam_j)^beta, with a = beta(n-m+1)/2 and C the log density minus
    the log of that kernel at any point.  Determinant coupling, K = prod
    (1+lam_i)^(-beta(nu+n)/2): u = lam/(1+lam) turns it into the Jacobi
    weight u^(a-1) (1-u)^(b-1), b = beta(nu-m+1)/2, with 2g = beta.  Trace
    coupling, K = (1 + sum lam)^(-q), q = beta(nu+mn)/2: writing K as
    int t^(q-1) e^(-t(1+sum lam)) dt / Gamma(q) leaves the Laguerre form
    times Gamma(q - beta mn/2) / Gamma(q).  The ordered cone is 1/m! of the
    orthant.  Singular values d enter as lam = d^2, Jacobian 2^m prod d.
    """

    FNS = [(log_joint_eig_beta2, False, False), (log_joint_eig_mv, True, False),
           (log_joint_sv_matric_t, False, True), (log_joint_sv_matrix_mt, True, True)]

    @staticmethod
    def _log_mass(tag, m, n, nu, fn, trace, singular, shape):
        """log mass of the m x n law at nu (m <= n), whose density is fn
        called at `shape`, the (rows, cols, nu) it is given."""
        beta = tag.beta
        lam = 0.7 * np.arange(m, 0, -1.0)
        a, q = beta * (n - m + 1) / 2.0, beta * (nu + m * n) / 2.0
        kernel = (a - 1.0) * np.log(lam).sum() + beta * sum(
            math.log(lam[i] - lam[j]) for i in range(m) for j in range(i + 1, m))
        if trace:
            kernel -= q * math.log1p(lam.sum())
        else:
            kernel -= beta * (nu + n) / 2.0 * np.log1p(lam).sum()
        if singular:
            log_c = (fn(tag, *shape, np.sqrt(lam)) - kernel - m * math.log(2.0)
                     - 0.5 * np.log(lam).sum())
        else:
            log_c = fn(tag, *shape, lam) - kernel
        if trace:
            log_mass = (log_c + _log_laguerre_selberg(m, a, beta / 2.0)
                        + math.lgamma(q - beta * m * n / 2.0) - math.lgamma(q))
        else:
            log_mass = log_c + _log_selberg(m, a, beta * (nu - m + 1) / 2.0,
                                            beta / 2.0)
        return log_mass - math.lgamma(m + 1.0)

    @pytest.mark.parametrize("tag", [R, C, H, O])
    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    @pytest.mark.parametrize("fn,trace,singular", FNS)
    def test_log_mass_is_zero(self, tag, m, fn, trace, singular):
        for n, nu in ((m, m - 0.25), (m + 2, m + 1.5)):
            log_mass = self._log_mass(tag, m, n, nu, fn, trace, singular, (m, n, nu))
            assert abs(log_mass) < 1e-10, (n, nu, log_mass)

    @pytest.mark.parametrize("tag", [R, C, H, O])
    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    @pytest.mark.parametrize("fn,trace,singular", FNS)
    def test_tall_log_mass_is_zero(self, tag, m, fn, trace, singular):
        # an n x m T, n > m, has min(m, n) = m values: its kernel's
        # exponents beta(nu_T + m)/2 and beta(nu_T + mn)/2 are those of the
        # m x n law at nu = nu_T + m - n (determinant) or nu = nu_T (trace)
        for n, nu in ((m + 1, m + 0.5), (m + 2, m + 1.5)):
            tall_nu = nu if trace else nu + n - m
            log_mass = self._log_mass(tag, m, n, nu, fn, trace, singular,
                                      (n, m, tall_nu))
            assert abs(log_mass) < 1e-10, (n, nu, log_mass)


class TestOctonionQuadratureMass:
    @pytest.mark.parametrize("fn", [log_joint_eig_beta2, log_joint_eig_mv,
                                    log_joint_sv_matric_t, log_joint_sv_matrix_mt])
    def test_scalar_spectra(self, fn):
        mass = quadrature_mass_positive(lambda x: fn(O, 1, 3, 3.5, x[:, None]))
        assert abs(mass - 1.0) < 1e-8

    @pytest.mark.parametrize("fn", [log_joint_eig_beta2, log_joint_eig_mv])
    def test_two_point_spectra(self, fn):
        mass = quadrature_mass_eig2(lambda l1, l2: fn(O, 2, 3, 3.5, [l1, l2]))
        assert abs(mass - 1.0) < 1e-4
