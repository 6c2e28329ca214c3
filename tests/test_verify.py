import json
import math

import numpy as np
import pytest
import scipy.stats
from scipy.special import kolmogorov

from rdmt.algebra import AlgebraTag, DivMatrix
from rdmt.distributions import (
    GammaScalarParams,
    RngStream,
    WishartParams,
    radial_logpdf_matric_t,
    radial_logpdf_matrix_mt,
    sample_gamma_scalar,
    sample_matric_t,
    sample_wishart,
    MatricTParams,
    BetaIIParams,
    MatrixMTParams,
    logpdf_beta2_matric,
    logpdf_beta2_multivariate,
    logpdf_matric_t,
    logpdf_matrix_mt,
)
from rdmt.verify import (
    CheckSpec,
    _cumulative_cdf,
    _quad,
    _scalar_logpdf,
    _KS_REFERENCE_PAIRS,
    _ks_reference_cases,
    _printed_densities,
    default_suite,
    ks_one_sample,
    ks_two_sample,
    moment_check,
    quadrature_mass_positive,
    quadrature_mass_row,
    quadrature_mass_scalar,
    run_suite,
)

R, C, H, O = AlgebraTag.REAL, AlgebraTag.COMPLEX, AlgebraTag.QUATERNION, AlgebraTag.OCTONION


class TestKsOneSample:
    def test_null_case(self):
        x = np.sort(np.random.default_rng(99).uniform(size=10000))
        _, p = ks_one_sample(x, lambda v: v)
        assert p > 0.005

    def test_quantile_grid_d_value(self):
        n = 1000
        x = (np.arange(1, n + 1) - 0.5) / n
        d, _ = ks_one_sample(x, lambda v: v)
        assert math.isclose(d, 1.0 / (2 * n), rel_tol=1e-9)

    def test_degenerate_alternative(self):
        x = np.full(1000, 0.5)
        _, p = ks_one_sample(x, lambda v: v)
        assert p < 1e-6

    def test_unsorted_rejected(self):
        with pytest.raises(ValueError, match="sorted"):
            ks_one_sample(np.array([0.5] * 99 + [0.4, 0.6]), lambda v: v)

    def test_minimum_size(self):
        with pytest.raises(ValueError, match="100"):
            ks_one_sample(np.linspace(0, 1, 50), lambda v: v)

    def test_matches_scipy_asymp(self):
        gen = np.random.default_rng(3)
        x = np.sort(gen.normal(size=2500))
        d, p = ks_one_sample(x, scipy.stats.norm.cdf)
        ref = scipy.stats.kstest(x, scipy.stats.norm.cdf, mode="asymp")
        assert math.isclose(d, ref.statistic, rel_tol=1e-12)
        assert math.isclose(p, ref.pvalue, rel_tol=1e-9, abs_tol=1e-12)


class TestKsTwoSample:
    def test_identical_samples(self):
        x = np.sort(np.random.default_rng(0).normal(size=500))
        d, p = ks_two_sample(x, x)
        assert d == 0.0 and p == 1.0

    def test_disjoint_supports(self):
        a = np.linspace(0.0, 1.0, 300)
        b = np.linspace(5.0, 6.0, 200)
        d, p = ks_two_sample(a, b)
        assert d == 1.0 and p < 1e-12

    def test_two_seeds_same_law(self):
        pa = sample_gamma_scalar(RngStream(1), GammaScalarParams(R, 3.0, 1.0),
                                 size=20000)
        pb = sample_gamma_scalar(RngStream(2), GammaScalarParams(R, 3.0, 1.0),
                                 size=20000)
        _, p = ks_two_sample(np.sort(pa), np.sort(pb))
        assert p > 0.005

    def test_statistic_matches_scipy(self):
        gen = np.random.default_rng(5)
        a = np.sort(gen.normal(size=800))
        b = np.sort(gen.normal(0.1, 1.0, size=1100))
        d, p = ks_two_sample(a, b)
        ref = scipy.stats.ks_2samp(a, b)
        assert math.isclose(d, ref.statistic, rel_tol=1e-12)
        en = 800 * 1100 / 1900
        assert math.isclose(p, kolmogorov(math.sqrt(en) * d), rel_tol=1e-12)

    def test_frozen_reference_pairs(self):
        for (name, (d, p)), (d_ref, p_ref) in zip(_ks_reference_cases(),
                                                  _KS_REFERENCE_PAIRS):
            assert abs(d - d_ref) < 1e-12, name
            assert abs(p - p_ref) < 1e-9, name


class TestMomentCheck:
    def test_wishart_trace(self):
        params = WishartParams(C, 2, 5.0)
        w = sample_wishart(RngStream(40), params, size=20000)
        traces = np.einsum("kiij->kij", w)[..., 0].sum(axis=1)
        res = moment_check(traces, 2 * 5.0, 3.0)
        assert res.passed

    def test_gamma_mean(self):
        s = sample_gamma_scalar(RngStream(41), GammaScalarParams(H, 4.0, 2.0),
                                size=50000)
        assert moment_check(s, 8.0, 3.0).passed

    def test_estimator_argument(self):
        t = sample_matric_t(RngStream(42), MatricTParams(R, 1, 2, 5.0), size=200)
        res = moment_check(list(t), 0.0, 4.0, estimator=lambda m: float(m[0, 0, 0]))
        assert np.isfinite(res.z)

    def test_failing_case(self):
        vals = np.random.default_rng(1).normal(10.0, 1.0, size=10000)
        assert not moment_check(vals, 0.0, 3.0).passed


class TestQuadrature:
    def test_standard_normal_mass(self):
        logpdf = lambda r: -0.5 * r * r - 0.5 * math.log(2 * math.pi)
        assert abs(quadrature_mass_scalar(logpdf, R) - 1.0) < 1e-8

    def test_scalar_matric_t_quaternion(self):
        mass = quadrature_mass_scalar(
            lambda r: radial_logpdf_matric_t(H, 1, 2.0, r), H)
        assert abs(mass - 1.0) < 1e-6

    def test_scalar_mv_beta2_octonion(self):
        params = BetaIIParams(O, 1, 1, 2.0)

        def logpdf(x):  # every node at once, as an (N, 1, 1, 8) stack
            stack = np.zeros((x.size, 1, 1, 8))
            stack[:, 0, 0, 0] = x
            return logpdf_beta2_multivariate(params, stack)

        assert abs(quadrature_mass_positive(logpdf) - 1.0) < 1e-6

    def test_row_reduction_octonion(self):
        mass = quadrature_mass_row(
            lambda r: radial_logpdf_matrix_mt(O, 3, 2.0, 1.3, r), O, 3)
        assert abs(mass - 1.0) < 1e-6


def _quad_reference(logpdf_scalar, lo, hi, positive=False):
    """The integral by QUADPACK, one scalar density call per node: with
    positive=True in u with x = u^2, as quadrature_mass_positive does."""
    from scipy import integrate

    if positive:
        def integrand(u):
            return math.exp(logpdf_scalar(u * u) + math.log(2.0 * u)) if u > 0 else 0.0
    else:
        def integrand(x):
            return math.exp(logpdf_scalar(x))
    val, _ = integrate.quad(integrand, lo, hi, epsabs=1e-13, epsrel=1e-13, limit=500)
    return val


def _at_1x1(evaluator, params):
    """x -> evaluator at the 1x1 point [[x]], one point per call."""
    return lambda x: evaluator(params, DivMatrix.from_real(params.tag, [[x]]))


class TestBatchedQuadrature:
    """The node-set quadrature helper against QUADPACK, node by node."""

    @pytest.mark.parametrize("tag", [R, C, H, O])
    @pytest.mark.parametrize("n", [1, 3])
    @pytest.mark.parametrize("evaluator", [logpdf_beta2_matric, logpdf_beta2_multivariate])
    def test_beta2_masses_match_quad(self, tag, n, evaluator):
        params = BetaIIParams(tag, 1, n, 2.0)
        got = quadrature_mass_positive(_scalar_logpdf(evaluator, params))
        want = _quad_reference(_at_1x1(evaluator, params), 0.0, np.inf, positive=True)
        assert abs(got - want) <= 1e-12

    def test_cogram_and_printed_variant_match_quad(self):
        params = BetaIIParams(R, 2, 1, 3.0)   # tall: the cogram law
        corrected, printed = _printed_densities()[1]
        node = _at_1x1(logpdf_beta2_matric, params)
        for batched, scalar in ((corrected, node),
                                (printed, lambda x: node(x) - math.log1p(x))):
            got = quadrature_mass_positive(batched)
            want = _quad_reference(scalar, 0.0, np.inf, positive=True)
            assert abs(got - want) <= 1e-12

    @pytest.mark.parametrize("tag", [R, C, H])
    def test_t_laws_match_quad(self, tag):
        # 1x1 T densities over the whole line, through the (-inf, inf) map
        for params, evaluator in (
                (MatricTParams(tag, 1, 1, 3.0), logpdf_matric_t),
                (MatrixMTParams(tag, 1, 1, 3.0, 2.0), logpdf_matrix_mt)):
            log_density = _scalar_logpdf(evaluator, params)
            got = _quad(lambda x: np.exp(log_density(x)), -np.inf, np.inf)
            want = _quad_reference(_at_1x1(evaluator, params), -np.inf, np.inf)
            assert abs(got - want) <= 1e-12

    def test_stack_builder_equals_single_points(self):
        params = BetaIIParams(H, 1, 2, 2.5)
        x = np.array([[0.3, 1.0], [2.5, 7.0]])
        got = _scalar_logpdf(logpdf_beta2_matric, params)(x)
        assert got.shape == x.shape
        want = [_at_1x1(logpdf_beta2_matric, params)(v) for v in x.ravel()]
        np.testing.assert_array_equal(got.ravel(), want)

    def test_non_converging_integrand_raises(self):
        with pytest.raises(RuntimeError, match="did not converge"):
            _quad(lambda x: 1.0 / x, 0.0, 1.0)
        with pytest.raises(RuntimeError, match="did not converge"):
            _quad(lambda x: np.full_like(x, np.nan), 0.0, 1.0)
        with pytest.raises(RuntimeError, match="did not converge"):
            quadrature_mass_positive(lambda x: -0.5 * np.log(x))  # x^-1/2 on (0, inf)

    def test_non_converging_cdf_piece_raises(self):
        xs = np.array([1.0, 2.0, 3.0])
        with pytest.raises(RuntimeError, match="piece 0 did not converge"):
            _cumulative_cdf(lambda x: 1.0 / x, 0.0, xs, 1e-10)
        with pytest.raises(RuntimeError, match="piece 3 did not converge"):
            _cumulative_cdf(lambda x: np.ones_like(x), 0.0, xs, 1e-10)

    def test_cdf_pieces_match_quad(self):
        xs = np.array([0.5, 1.0, 2.0, 4.0])
        pdf = lambda x: np.exp(-x) * np.sqrt(x)
        cdf, total = _cumulative_cdf(pdf, 0.0, xs, 1e-12)
        assert abs(total - math.sqrt(math.pi) / 2.0) <= 1e-12
        want = [_quad_reference(lambda x: -x + 0.5 * math.log(x), 0.0, b) for b in xs]
        np.testing.assert_allclose(cdf(xs) * total, want, rtol=0.0, atol=1e-12)


class TestPrintedVariants:
    """The printed formulas of printed-variant-evidence against the paper's
    print, spelt out at the two 1x1 laws the check integrates."""

    X = np.array([1e-3, 0.3, 1.0, 2.5, 40.0])

    def test_sv_coefficient_is_pi_to_the_beta_m_squared(self):
        # corrected: the half-Cauchy 2 / (pi (1 + d^2)); printed: pi^(beta m^2
        # + tau) = pi for pi^(beta m^2/2 + tau) = pi^0.5, 0.5 log pi more
        corrected, printed = _printed_densities()[0]
        kernel = -np.log1p(self.X * self.X)
        np.testing.assert_allclose(corrected(self.X), math.log(2 / math.pi) + kernel,
                                   rtol=1e-14, atol=1e-14)
        np.testing.assert_allclose(printed(self.X), math.log(2 / math.sqrt(math.pi))
                                   + kernel, rtol=1e-14, atol=1e-14)
        np.testing.assert_allclose(printed(self.X) - corrected(self.X),
                                   0.5 * math.log(math.pi), rtol=1e-13)

    def test_cogram_bracket_has_one_more_factor(self):
        # the wide law at nu' = nu + n - m = 2, n' = 2: (1 + f)^-2, B(1, 1) = 1;
        # printed (1 + f)^-3
        corrected, printed = _printed_densities()[1]
        np.testing.assert_allclose(corrected(self.X), -2 * np.log1p(self.X), rtol=1e-14)
        np.testing.assert_allclose(printed(self.X), -3 * np.log1p(self.X), rtol=1e-14)
        np.testing.assert_allclose(printed(self.X) - corrected(self.X),
                                   -np.log1p(self.X), rtol=1e-12)


class TestSuite:
    def test_empty_config_passes(self):
        report = run_suite([], RngStream(1))
        assert report.overall_pass and report.checks == []

    def test_unknown_check_rejected(self):
        with pytest.raises(ValueError, match="unknown check"):
            CheckSpec("no-such-check")

    def test_spec_threshold_validation(self):
        with pytest.raises(ValueError, match="p-values"):
            CheckSpec("scalar-law-cauchy", threshold=1.5)
        with pytest.raises(ValueError, match="positive tolerance"):
            CheckSpec("normalization-scalar-t", threshold=0.0)
        with pytest.raises(ValueError, match="positive tolerance"):
            CheckSpec("gamma-ratio-identity", threshold=-1e-10)

    def test_deterministic_reports(self):
        sub = [s for s in default_suite()
               if s.name in ("ks-reference-values", "gamma-ratio-identity",
                             "scalar-law-cauchy")]
        r1 = run_suite(sub, RngStream(123))
        r2 = run_suite(sub, RngStream(123))
        assert r1.to_json() == r2.to_json()

    def test_failure_recorded_not_thrown_and_rerun_once(self):
        # an impossible p-threshold forces the rerun path
        spec = CheckSpec("scalar-law-cauchy", {}, 5000, 0.9999999)
        report = run_suite([spec], RngStream(7))
        assert not report.overall_pass
        check = report.checks[0]
        assert check.attempts == 2
        assert "rerun" in check.detail

    def test_report_shape(self):
        spec = CheckSpec("gamma-ratio-identity", {}, 50, 1e-10)
        report = run_suite([spec], RngStream(5))
        obj = json.loads(report.to_json())
        assert obj["overall_pass"] is True
        assert obj["seed"] == 5
        assert obj["checks"][0]["name"] == "gamma-ratio-identity"
        assert "wall_time" not in json.dumps(obj)
        assert report.checks[0].wall_time_s >= 0.0

    def test_json_spec_round_trip(self):
        specs = default_suite()
        text = json.dumps([s.to_json_dict() for s in specs])
        back = [CheckSpec.from_json_dict(o) for o in json.loads(text)]
        assert back == specs
        assert [CheckSpec.from_json_dict({"name": s.name}) for s in specs] == specs


class TestSuiteTable:
    """A CheckSpec resolves against its row of the suite table: the row fixes
    the kind, and params, budget and threshold given override the row's."""

    def test_partial_params_take_the_row_for_the_rest(self):
        # nu = 5 would lie outside the inverse-root domain at beta = 4; the
        # row's nu = 8 fills in
        spec = CheckSpec.from_json_dict(
            {"name": "construction-equivalence-beta4", "kind": "ks2",
             "params": {"beta": 4}, "budget": 2000, "threshold": 0.005})
        assert spec.params == {"beta": 4, "m": 2, "n": 3, "nu": 8.0}
        check = run_suite([spec], RngStream(3)).checks[0]
        assert "error" not in json.dumps(check.detail)

    def test_overrides_are_cast_to_the_row_types(self):
        spec = CheckSpec("elliptical-invariance-beta1",
                         {"nu": 5, "weights": [0.5, 0.5], "scales": [1, 2]}, 100)
        assert spec.params["weights"] == (0.5, 0.5)
        assert type(spec.params["nu"]) is int and spec.budget == 100
        assert spec.threshold == 0.005 and spec.kind == "ks2"
        spec = CheckSpec("normalization-scalar-beta2", {"nu": 7})
        assert type(spec.params["nu"]) is float
        spec = CheckSpec("normalization-eig-2d", {"m": 2.0})
        assert type(spec.params["m"]) is int and spec.params["m"] == 2

    @pytest.mark.parametrize("name,params,message", [
        ("normalization-eig-2d", {"m": 2.7}, "param 'm' must be an integer"),
        ("elliptical-invariance-beta1", {"nu": 4.9}, "param 'nu' must be an integer"),
        ("elliptical-invariance-beta1", {"nu": True}, "param 'nu' must be an integer"),
        ("normalization-scalar-beta2", {"nu": True}, "param 'nu' must be a number"),
        ("elliptical-invariance-beta1", {"weights": [True]},
         "param 'weights' must be a list of numbers"),
        ("elliptical-invariance-beta1", {"weights": "abc"},
         "param 'weights' must be a list"),
        ("elliptical-invariance-beta1", {"scales": 3.0},
         "param 'scales' must be a list"),
    ])
    def test_overrides_the_cast_would_change_are_refused(self, name, params, message):
        # int(2.7) would run at m = 2, tuple("abc") at ('a', 'b', 'c')
        with pytest.raises(ValueError, match=message):
            CheckSpec(name, params)

    @pytest.mark.parametrize("budget", [2000.7, True, False, 0, -5, 0.5,
                                        float("nan"), float("inf")])
    def test_budget_the_cast_would_change_is_refused(self, budget):
        # int(2000.7) would run 2000 draws, int(True) one
        with pytest.raises(ValueError, match="budget must be a whole number >= 1"):
            CheckSpec("wishart-mean", {}, budget)
        with pytest.raises(ValueError, match="budget must be a whole number >= 1"):
            CheckSpec.from_json_dict({"name": "wishart-mean", "budget": budget})

    def test_whole_budgets_are_kept(self):
        assert CheckSpec("wishart-mean", {}, 2000.0).budget == 2000
        assert type(CheckSpec("wishart-mean", {}, 2000.0).budget) is int
        assert CheckSpec("wishart-mean", {}, 1).budget == 1
        assert CheckSpec.from_json_dict({"name": "wishart-mean"}).budget == 20000

    def test_unknown_param_key_is_refused(self):
        with pytest.raises(ValueError, match="no param 'Nu'"):
            CheckSpec.from_json_dict(
                {"name": "normalization-scalar-beta2", "kind": "normalization",
                 "params": {"Nu": 7.0}, "threshold": 1e-6})
        with pytest.raises(ValueError, match="no param 'beta'"):
            CheckSpec("scalar-law-cauchy", {"beta": 1})

    def test_unknown_spec_key_is_refused(self):
        with pytest.raises(ValueError, match="key 'budgett'"):
            CheckSpec.from_json_dict({"name": "scalar-law-cauchy", "budgett": 10})

    def test_kind_must_be_the_rows(self):
        # kind "identity" would turn off the rerun and accept any threshold;
        # the row's kind ks1 refuses the threshold too
        with pytest.raises(ValueError):
            CheckSpec.from_json_dict({"name": "scalar-law-cauchy", "kind": "identity",
                                      "budget": 5000, "threshold": 1.5})
        with pytest.raises(ValueError, match="of kind 'ks1', not 'identity'"):
            CheckSpec.from_json_dict({"name": "scalar-law-cauchy", "kind": "identity",
                                      "threshold": 0.005})
        spec = CheckSpec.from_json_dict({"name": "scalar-law-cauchy", "kind": "ks1"})
        assert spec == CheckSpec("scalar-law-cauchy")

    def test_kind_is_not_a_constructor_argument(self):
        with pytest.raises(TypeError):
            CheckSpec("scalar-law-cauchy", kind="identity")
