"""The samplers' matrix laws, and their identity-aware fast path.

Score identities tie each matrix sampler to its density at m >= 2, where
the spectral checks cannot see the matrix law: at standard scales a draw
and any unitary rotation Q T of it have the same singular values.  Let p be
the density of T and K a fixed real-linear map of T - mu.  The law of
T + s K(T - mu) has density p(T_s^-1) / det(I + sK), which integrates to one
for every s, so (Stein's identity)

    E[d/ds log p(T + s K(T - mu))] at s = 0  =  -tr K,

the trace of K as a map on the real coordinates.  For the left map
K X = H X with H Hermitian m x m that is beta n tr H; for the right map
X H it is beta m tr H; for the beta II congruence F -> (I + sH) F (I + sH)*
on the d x d Hermitian cone it is (beta (d - 1) + 2) tr H, since F -> H F + F H
scales the d real diagonal coordinates by 2 h_i and the beta real
coordinates of entry (i, j) by h_i + h_j, for diagonal H and so, by unitary
invariance, for every Hermitian H.  The scores are central differences of
the library's batched log densities; z is the mean's distance from -tr K in
standard errors.  A sampler that solves with the lower Cholesky factor in
place of its adjoint draws the wrong row covariance, and the left map and
the gram congruence see it at |z| of 13.5 and more at these budgets.

The identity skip: a standard record (every scale exactly I, mu exactly 0)
skips each product, solve and add by an identity factor.  Each of those
would copy its input exactly, so the draws must equal, bit for bit, the
same construction spelled out against the identity.  A record with scales
embeds its constant factors once (`_solve_raw` and `_gram_raw` take them
embedded), and its draws too must equal the spelled-out products bit for
bit: a single draw's as one composition in the complex representation,
which embeds each random matrix once and unembeds the draw once."""

import math

import numpy as np
import pytest

from rdmt.algebra import (
    AlgebraTag,
    HermitianPD,
    _cholesky_raw,
    _complex_embed_raw,
    _complex_unembed_raw,
    _conj_t_raw,
    _gram_raw,
    _hermitize_raw,
    _hpd_inverse_raw,
    _identity_raw,
    _matmul_raw,
    _product_raw,
    _representation_raw,
    _solve_raw,
)
from rdmt.distributions import (
    BetaIIParams,
    EllipticalTParams,
    GaussianParams,
    MatricTParams,
    MatrixMTParams,
    RngStream,
    WishartParams,
    _bartlett_factor_raw,
    _std_normal_raw,
    logpdf_beta2_matric,
    logpdf_matric_t,
    sample_beta2_matric,
    sample_elliptical_t,
    sample_gaussian,
    sample_matric_t,
    sample_matrix_mt,
    sample_wishart,
)

from conftest import random_hpd, random_matrix

R, C, H, O = AlgebraTag.REAL, AlgebraTag.COMPLEX, AlgebraTag.QUATERNION, AlgebraTag.OCTONION

# Draws per score identity, the difference step, and the |z| bound.  At this
# budget the 36 cases below, each run at seeds 1-300 with its scales and H
# drawn anew per seed, read |z| <= 4.21 (10800 values).  With the lower
# factor solved, the left-map and gram cases read |z| >= 13.5 at seeds 1-40.
SCORE_DRAWS = 2000
SCORE_STEP = 1e-4
SCORE_BOUND = 5.0
SEED = 16


def _map_matrix(gen, beta, d):
    """A fixed Hermitian d x d H: the diagonal ramp 1 .. -1, which the
    wrong row covariance shows most, plus 0.3 of a random Hermitian."""
    h = 0.3 * _hermitize_raw(gen.normal(size=(d, d, beta)))
    h[np.arange(d), np.arange(d), 0] += np.linspace(1.0, -1.0, d)
    return h


def _z(score, target):
    return (score.mean() - target) / (score.std(ddof=1) / math.sqrt(score.size))


def _t_score_z(draws, params, side, hmat):
    """z of the left (H X) or right (X H) map's score for the matricvariate
    T density of `params` at `draws`."""
    beta = draws.shape[-1]
    m, n = draws.shape[-3:-1]
    x = draws - params.mu.data
    move = _matmul_raw(hmat, x) if side == "left" else _matmul_raw(x, hmat)
    score = (logpdf_matric_t(params, draws + SCORE_STEP * move)
             - logpdf_matric_t(params, draws - SCORE_STEP * move)) / (2 * SCORE_STEP)
    return _z(score, -beta * (n if side == "left" else m) * hmat[..., 0].trace())


class TestScoreIdentities:
    @pytest.mark.parametrize("tag", [R, C, H])
    @pytest.mark.parametrize("method", ["wishart_root", "inverse_root"])
    @pytest.mark.parametrize("scales", ["standard", "random"])
    @pytest.mark.parametrize("side", ["left", "right"])
    def test_matric_t(self, tag, method, scales, side):
        beta, m, n = tag.beta, 3, 4
        nu = beta * (m - 1) + 6.5     # inverse_root's nu + n - m > beta(n - 1)
        gen = np.random.default_rng([SEED, beta])
        if scales == "random":
            params = MatricTParams(tag, m, n, nu, random_matrix(gen, tag, m, n),
                                   random_hpd(gen, tag, m), random_hpd(gen, tag, n))
        else:
            params = MatricTParams(tag, m, n, nu)
        hmat = _map_matrix(gen, beta, m if side == "left" else n)
        draws = sample_matric_t(RngStream(SEED), params, method, size=SCORE_DRAWS)
        assert abs(_t_score_z(draws, params, side, hmat)) < SCORE_BOUND

    @pytest.mark.parametrize("tag", [R, C, H])
    @pytest.mark.parametrize("side", ["left", "right"])
    def test_elliptical_t(self, tag, side):
        beta, m, n, nu = tag.beta, 3, 4, 9
        gen = np.random.default_rng([SEED, beta])
        hmat = _map_matrix(gen, beta, m if side == "left" else n)
        e_params = EllipticalTParams(tag, m, n, nu, (0.5, 0.5), (1.0, 3.0))
        draws = sample_elliptical_t(RngStream(SEED), e_params, size=SCORE_DRAWS)
        params = MatricTParams(tag, m, n, float(nu))
        assert abs(_t_score_z(draws, params, side, hmat)) < SCORE_BOUND

    @pytest.mark.parametrize("tag", [R, C, H])
    @pytest.mark.parametrize("orientation,m,n", [("gram", 3, 4), ("cogram", 4, 3)])
    def test_beta2_matric_congruence(self, tag, orientation, m, n):
        beta, d = tag.beta, 3
        params = BetaIIParams(tag, m, n, beta * (m - 1) + 6.5)
        assert params.orientation == orientation
        hmat = _map_matrix(np.random.default_rng([SEED, beta]), beta, d)
        f = sample_beta2_matric(RngStream(SEED), params, size=SCORE_DRAWS)

        def logpdf_moved(s):
            a = _identity_raw(d, beta) + s * hmat
            return logpdf_beta2_matric(
                params, _hermitize_raw(_matmul_raw(_matmul_raw(a, f), _conj_t_raw(a))))

        score = (logpdf_moved(SCORE_STEP) - logpdf_moved(-SCORE_STEP)) / (2 * SCORE_STEP)
        target = -(beta * (d - 1) + 2) * hmat[..., 0].trace()
        assert abs(_z(score, target)) < SCORE_BOUND


# -- the identity skip -------------------------------------------------------

def _bits(x) -> bytes:
    """The bytes of a draw or a stack of draws, signed zeros included."""
    data = x.mat.data if isinstance(x, HermitianPD) else getattr(x, "data", x)
    return np.ascontiguousarray(data).tobytes()


def _embed(x):
    return _complex_embed_raw(x, x.shape[-1])


def _adj(z):
    return z.conj().swapaxes(-1, -2)


def _spelled_matric_t(params, method, gen, nsamp):
    """sample_matric_t's construction with every product, solve and add
    taken, against the record's own factors.  One draw over R, C or H is
    composed in the complex representation: its random matrices embedded
    once, T unembedded once."""
    beta, m, n = params.tag.beta, params.m, params.n
    single = nsamp == 1 and beta <= 4
    if method == "wishart_root":
        bart = _bartlett_factor_raw(gen, beta, m, params.nu, nsamp)
        y = _std_normal_raw(gen, beta, (nsamp, m, n))
        if single:
            lw = _embed(params.Xi.chol.data) @ _embed(bart)
            y = _embed(y) @ _embed(_conj_t_raw(params.Sigma.chol.data))
            return _complex_unembed_raw(np.linalg.solve(_adj(lw), y), beta) + params.mu.data
        lw = _matmul_raw(params.Xi.chol.data, bart)
        y = _matmul_raw(y, _conj_t_raw(params.Sigma.chol.data))
        t = _solve_raw(lw, y)
    else:
        g = _cholesky_raw(_hpd_inverse_raw(params.Sigma.mat.data))
        bart = _bartlett_factor_raw(gen, beta, n, params.nu + n - m, nsamp)
        x = _std_normal_raw(gen, beta, (nsamp, m, n))
        if single:
            x = np.linalg.solve(_adj(_embed(params.Xi.chol.data)), _embed(x))
            t = np.linalg.solve(_adj(_embed(g) @ _embed(bart)), _adj(x))
            return _conj_t_raw(_complex_unembed_raw(t, beta)) + params.mu.data
        lu = _matmul_raw(g, bart)
        x = _solve_raw(params.Xi.chol.data, x)
        t = _conj_t_raw(_solve_raw(lu, _conj_t_raw(x)))
    return t + params.mu.data


def _spelled_matrix_mt(params, gen, nsamp):
    beta, m, n = params.tag.beta, params.m, params.n
    s = gen.gamma(beta * params.nu / 2.0, 2.0 * params.rho / beta, size=nsamp)
    t1 = _std_normal_raw(gen, beta, (nsamp, m, n)) / np.sqrt(s)[:, None, None, None]
    if nsamp == 1 and beta <= 4:
        p = np.linalg.solve(_adj(_embed(params.Delta.chol.data)), _embed(t1))
        t1 = np.linalg.solve(_adj(_embed(params.Lambda.chol.data)), _adj(p))
        return _conj_t_raw(_complex_unembed_raw(t1, beta)) + params.mu.data
    p = _solve_raw(params.Delta.chol.data, t1)
    t1 = _conj_t_raw(_solve_raw(params.Lambda.chol.data, _conj_t_raw(p)))
    return t1 + params.mu.data


def _spelled_wishart(params, method, gen, nsamp):
    beta, m = params.tag.beta, params.m
    if method == "bartlett":
        c = _bartlett_factor_raw(gen, beta, m, params.nu, nsamp)
    else:
        c = _std_normal_raw(gen, beta, (nsamp, m, int(params.nu)))
    if nsamp == 1 and beta <= 4:
        z = _embed(params.Xi.chol.data) @ _embed(c)
        return _hermitize_raw(_complex_unembed_raw(z @ _adj(z), beta))
    return _gram_raw(_matmul_raw(params.Xi.chol.data, c))


def _standard_cases(tag, m, n):
    """(name, sampler(rng, size), spelled(gen, nsamp)) of every sampler on a
    standard record of the algebra."""
    beta = tag.beta
    nu = beta * (max(m, n) - 1) + 3.0
    t_params = MatricTParams(tag, m, n, nu)
    mt_params = MatrixMTParams(tag, m, n, nu, 1.5)
    w_params = WishartParams(tag, m, float(beta * m + 2))
    b2_params = BetaIIParams(tag, m, n, nu)
    g_params = GaussianParams(tag, m, n)
    cases = [
        ("matrix-mt", lambda rng, size: sample_matrix_mt(rng, mt_params, size=size),
         lambda gen, k: _spelled_matrix_mt(mt_params, gen, k)),
        ("gaussian", lambda rng, size: sample_gaussian(rng, g_params, size=size),
         lambda gen, k: _std_normal_raw(gen, beta, (k, m, n))),
        ("beta2-matric", lambda rng, size: sample_beta2_matric(rng, b2_params, size=size),
         lambda gen, k: _gram_raw(_spelled_matric_t(t_params, "wishart_root", gen, k))),
    ]
    for method in ("wishart_root", "inverse_root"):
        cases.append((f"matric-t {method}",
                      lambda rng, size, method=method: sample_matric_t(
                          rng, t_params, method, size=size),
                      lambda gen, k, method=method: _spelled_matric_t(
                          t_params, method, gen, k)))
    # the Gram construction needs a 1 x nu octonion matrix, which is refused
    for method in ("bartlett",) if tag == O else ("bartlett", "gram"):
        cases.append((f"wishart {method}",
                      lambda rng, size, method=method: sample_wishart(
                          rng, w_params, method, size=size),
                      lambda gen, k, method=method: _spelled_wishart(
                          w_params, method, gen, k)))
    return cases


SHAPES = [(R, 2, 3), (C, 2, 3), (H, 2, 3), (R, 3, 2), (H, 5, 5), (O, 1, 1)]


def _is_identity(x) -> bool:
    """Whether x is an identity factor: a coefficient array, or a constant
    as `_representation_raw` gives it (one 2-D complex representation)."""
    if not isinstance(x, np.ndarray):
        return False
    if x.ndim == 2:
        return x.shape[0] == x.shape[1] and np.array_equal(x, np.eye(x.shape[0]))
    k = x.shape[-3]
    return x.shape[-2] == k and bool(np.all(x == _identity_raw(k, x.shape[-1])))


class TestIdentitySkip:
    def test_the_flag_is_exact_identity(self):
        for tag, m in ((R, 1), (C, 3), (H, 2), (O, 1)):
            assert HermitianPD.identity(tag, m).is_identity
            assert not HermitianPD.from_real(tag, 2.0 * np.eye(m)).is_identity
            assert not HermitianPD.from_real(tag, (1 + 2.0**-52) * np.eye(m)).is_identity
        off = np.eye(2)
        off[0, 1] = off[1, 0] = 1e-300
        assert not HermitianPD.from_real(R, off).is_identity

    @pytest.mark.parametrize("tag,m,n", SHAPES)
    @pytest.mark.parametrize("size", [None, 60])
    def test_standard_draws_keep_the_product_bits(self, tag, m, n, size):
        for name, sampler, spelled in _standard_cases(tag, m, n):
            got = sampler(RngStream(5, 2), size)
            want = spelled(RngStream(5, 2).generator, 1 if size is None else size)
            assert _bits(got) == _bits(want if size else want[0]), name

    @pytest.mark.parametrize("tag,m,n", SHAPES)
    def test_no_identity_factor_reaches_a_kernel(self, monkeypatch, tag, m, n):
        import rdmt.distributions as dist

        seen = []

        def spy(kernel):
            def call(*args, **kwargs):
                for x in list(args) + list(kwargs.values()):
                    # the solve's second system comes as a pair
                    for y in x if isinstance(x, tuple) else (x,):
                        if _is_identity(y):
                            seen.append((kernel.__name__, y.shape))
                return kernel(*args, **kwargs)
            return call

        # the products, solves and grams take the records' cached factors,
        # and the solves the random factors as they come
        for kernel in (_product_raw, _solve_raw, _gram_raw):
            monkeypatch.setattr(dist, kernel.__name__, spy(kernel))
        for name, sampler, _ in _standard_cases(tag, m, n):
            for size in (None, 7):
                sampler(RngStream(3), size)
                assert not seen, name
        if tag != O and n >= m:
            e_params = EllipticalTParams(tag, m, n, n + 1, (0.5, 0.5), (1.0, 3.0))
            sample_elliptical_t(RngStream(3), e_params, size=7)
            assert not seen

    @pytest.mark.parametrize("tag", [R, C, H, O])
    def test_near_identity_takes_the_product_path(self, monkeypatch, tag):
        import rdmt.distributions as dist

        m = 1 if tag == O else 2
        n = 1 if tag == O else 3
        xi = HermitianPD.from_real(tag, (1 + 2.0**-52) * np.eye(m))
        params = MatricTParams(tag, m, n, tag.beta * m + 2.0, Xi=xi)
        products = []

        def counted(lo, b, left=None, right=None, post=(None, None)):
            products.append(left is not None and left is params.Xi._factor_reps[0])
            return _solve_raw(lo, b, left, right, post)

        monkeypatch.setattr(dist, "_solve_raw", counted)
        got = sample_matric_t(RngStream(4), params, size=9)
        want = _spelled_matric_t(params, "wishart_root", RngStream(4).generator, 9)
        assert any(products)
        assert np.array_equal(params.Xi._factor_reps[0], _representation_raw(xi.chol.data))
        assert _bits(got) == _bits(want)

    @pytest.mark.parametrize("tag,m,n", [(R, 2, 3), (C, 2, 3), (H, 2, 3), (O, 1, 1)])
    @pytest.mark.parametrize("size", [None, 1, 7, 60])
    def test_random_scales_keep_every_product(self, tag, m, n, size):
        gen = np.random.default_rng(8)
        params = MatricTParams(tag, m, n, tag.beta * n + 3.0, random_matrix(gen, tag, m, n),
                               random_hpd(gen, tag, m), random_hpd(gen, tag, n))
        # the Gram construction of a 1x1 octonion needs nu = 1
        w_params = WishartParams(tag, m, 1.0 if tag == O else tag.beta * m + 2.0,
                                 random_hpd(gen, tag, m))
        cases = [(lambda rng, method=method: sample_matric_t(rng, params, method, size),
                  lambda g, k, method=method: _spelled_matric_t(params, method, g, k))
                 for method in ("wishart_root", "inverse_root")]
        cases += [(lambda rng, method=method: sample_wishart(rng, w_params, method, size),
                   lambda g, k, method=method: _spelled_wishart(w_params, method, g, k))
                  for method in ("bartlett", "gram")]
        for sampler, spelled in cases:
            # twice: the first draw builds the record's cached factors
            for k in range(2):
                got = sampler(RngStream(6, k))
                want = spelled(RngStream(6, k).generator, size or 1)
                assert _bits(got) == _bits(want if size else want[0])

    @staticmethod
    def _scaled_draws(tag, m, n, seed):
        """(draw(rng, size), random operands, record constants) of each
        sampler that multiplies or solves by a record's factors, on records
        with random scales."""
        gen = np.random.default_rng(seed)
        params = MatricTParams(tag, m, n, tag.beta * n + 3.0, random_matrix(gen, tag, m, n),
                               random_hpd(gen, tag, m), random_hpd(gen, tag, n))
        mt_params = MatrixMTParams(tag, m, n, tag.beta * n + 3.0, 1.5,
                                   random_matrix(gen, tag, m, n), random_hpd(gen, tag, m),
                                   random_hpd(gen, tag, n))
        w_params = WishartParams(tag, m, 1.0 if tag == O else tag.beta * m + 2.0,
                                 random_hpd(gen, tag, m))
        sigma_inverse = _cholesky_raw(_hpd_inverse_raw(params.Sigma.mat.data))
        draws = [
            (lambda rng, size: sample_matric_t(rng, params, "wishart_root", size), 2,
             [params.Xi.chol.data, _conj_t_raw(params.Sigma.chol.data)]),
            (lambda rng, size: sample_matric_t(rng, params, "inverse_root", size), 2,
             [params.Xi.chol.data, sigma_inverse]),
            (lambda rng, size: sample_matrix_mt(rng, mt_params, size), 1,
             [mt_params.Delta.chol.data, mt_params.Lambda.chol.data]),
        ]
        draws += [(lambda rng, size, method=method: sample_wishart(rng, w_params, method,
                                                                   size),
                   1, [w_params.Xi.chol.data]) for method in ("bartlett", "gram")]
        return draws

    @staticmethod
    def _spy_embeds(monkeypatch, constants):
        """Lists that record, from now on, for each embed whether it embeds
        one of `constants`, and each unembed."""
        import rdmt.algebra as algebra

        embed, unembed = algebra._complex_embed_raw, algebra._complex_unembed_raw
        embedded, unembedded = [], []

        def spy_embed(x, beta):
            embedded.append(any(x.shape == c.shape and np.array_equal(x, c)
                                for c in constants))
            return embed(x, beta)

        def spy_unembed(z, beta):
            unembedded.append(z.shape)
            return unembed(z, beta)

        monkeypatch.setattr(algebra, "_complex_embed_raw", spy_embed)
        monkeypatch.setattr(algebra, "_complex_unembed_raw", spy_unembed)
        return embedded, unembedded

    @pytest.mark.parametrize("tag,m,n", [(R, 2, 3), (C, 2, 3), (H, 2, 3), (O, 1, 1)])
    def test_record_constants_are_embedded_once(self, monkeypatch, tag, m, n):
        constants = []
        embedded, _ = self._spy_embeds(monkeypatch, constants)
        for draw, _, record_constants in self._scaled_draws(tag, m, n, 9):
            constants[:] = record_constants
            draw(RngStream(1), None)    # builds the record's cached factors
            embedded.clear()
            for size in (None, 1, 7):
                draw(RngStream(2), size)
            assert not any(embedded)
            assert (tag == O) == (not embedded)

    @pytest.mark.parametrize("tag", [R, C, H])
    def test_a_single_draw_embeds_each_operand_once(self, monkeypatch, tag):
        # its random operands (the Bartlett factor, Y or X) are embedded once
        # each and T once unembedded; a Wishart draw without `size` is also
        # factored as a HermitianPD, so it is drawn as a batch of 1 here
        constants = []
        embedded, unembedded = self._spy_embeds(monkeypatch, constants)
        for k, (draw, operands, record_constants) in enumerate(
                self._scaled_draws(tag, 2, 3, 14)):
            constants[:] = record_constants
            draw(RngStream(1), 1)
            for size in (None, 1) if k < 3 else (1,):
                embedded.clear()
                unembedded.clear()
                draw(RngStream(2), size)
                assert embedded == [False] * operands
                assert len(unembedded) == 1

    def test_mu_is_added_in_place_once(self):
        gen = np.random.default_rng(9)
        mu = random_matrix(gen, C, 2, 3)
        params = MatricTParams(C, 2, 3, 6.0, mu)
        before = mu.data.copy()
        t = sample_matric_t(RngStream(7), params, size=5)
        plain = sample_matric_t(RngStream(7), MatricTParams(C, 2, 3, 6.0), size=5)
        assert _bits(t) == _bits(plain + mu.data)
        assert np.array_equal(mu.data, before)


class TestCachedSigmaInverseFactor:
    """The lower factor M of Sigma^-1, M M* = Sigma^-1, belongs to Sigma's
    HermitianPD (`_inverse_factor_reps`): the "inverse_root" sampler's
    Wishart scale and the primal density's product read the one copy, and
    the draws keep the bits of the construction that factors Sigma^-1 anew.
    The beta II scale's inverse factor is cached the same way."""

    @staticmethod
    def _inversions(monkeypatch, target):
        """A list that records, for each Hermitian inverse taken from now
        on, whether it inverts `target`."""
        import rdmt.algebra as algebra

        inverted = []

        def spy(a):
            inverted.append(a.shape == target.shape and np.array_equal(a, target))
            return _hpd_inverse_raw(a)

        monkeypatch.setattr(algebra, "_hpd_inverse_raw", spy)
        return inverted

    @pytest.mark.parametrize("tag", [R, C, H])
    def test_sigma_is_inverted_once(self, monkeypatch, tag):
        gen = np.random.default_rng(10)
        params = MatricTParams(tag, 2, 3, 4.0 * tag.beta + 3.0,
                               random_matrix(gen, tag, 2, 3), random_hpd(gen, tag, 2),
                               random_hpd(gen, tag, 3))
        inverted = self._inversions(monkeypatch, params.Sigma.mat.data)
        sizes = (11, None)
        draws = [sample_matric_t(RngStream(6, k), params, "inverse_root", size=size)
                 for k, size in enumerate(sizes)]
        logpdf_matric_t(params, draws[0], "primal")
        assert sum(inverted) == 1
        for k, (got, size) in enumerate(zip(draws, sizes)):
            want = _spelled_matric_t(params, "inverse_root", RngStream(6, k).generator,
                                     size or 1)
            assert _bits(got) == _bits(want if size else want[0])

    def test_records_sharing_sigma_invert_it_once(self, monkeypatch):
        gen = np.random.default_rng(11)
        sigma = random_hpd(gen, C, 3)
        inverted = self._inversions(monkeypatch, sigma.mat.data)
        for xi in (None, random_hpd(gen, C, 2)):
            params = MatricTParams(C, 2, 3, 9.0, Xi=xi, Sigma=sigma)
            sample_matric_t(RngStream(1), params, "inverse_root", size=3)
            logpdf_matric_t(params, random_matrix(gen, C, 2, 3), "primal")
        assert sum(inverted) == 1

    def test_identity_sigma_has_no_factor(self):
        params = MatricTParams(C, 2, 3, 7.0)
        assert params.Sigma._inverse_factor_reps == (None, None)
        assert params._density_terms["primal"][1] is None

    def test_beta2_terms_build_no_hermitian_pd(self, monkeypatch):
        import rdmt.distributions as dist

        gen = np.random.default_rng(12)
        params = BetaIIParams(H, 2, 3, 9.0, scale=random_hpd(gen, H, 2))
        built = []
        init = HermitianPD.__init__

        def spy(self, mat):
            built.append(mat)
            init(self, mat)

        monkeypatch.setattr(HermitianPD, "__init__", spy)
        terms = {law: dist._beta2_terms(params, law) for law in ("matric", "mv")}
        assert not built
        cached = params.scale._inverse_factor_reps[::-1]
        assert all(a is b for a, b in zip(terms["matric"][2][0], cached))

    @pytest.mark.parametrize("tag,d", [(R, 2), (C, 2), (H, 2), (O, 1)])
    def test_beta2_densities_keep_the_inverse_factor_bits(self, tag, d):
        import rdmt.distributions as dist

        gen = np.random.default_rng(13)
        params = BetaIIParams(tag, d, d + 1, 9.0, scale=random_hpd(gen, tag, d))
        points = np.stack([random_hpd(gen, tag, d).mat.data for _ in range(6)])
        scale = params.scale.mat.data
        # the factors as a HermitianPD of scale^-1 and the scale's own gave them
        factors = {"matric": _cholesky_raw(_hpd_inverse_raw(scale)),
                   "mv": params.scale.chol.data}
        for law, logpdf in (("matric", logpdf_beta2_matric),
                            ("mv", dist.logpdf_beta2_multivariate)):
            q, exp_f, (_, shift, kappa), const = dist._beta2_terms(params, law)
            lo = factors[law]
            spelled = (q, exp_f, ((_representation_raw(_conj_t_raw(lo)),
                                   _representation_raw(lo)), shift, kappa), const)
            want = dist._beta2_logpdf(params, points, spelled, trace=law == "mv")
            assert _bits(logpdf(params, points)) == _bits(want)
