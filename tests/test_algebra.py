import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rdmt.algebra import (
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
    _chol_logdet_raw,
    _cholesky_raw,
    _collapse_pairs,
    _complex_embed_raw,
    _complex_unembed_raw,
    _conj_t_raw,
    _gram_raw,
    _hermitian_part,
    _hermitize_raw,
    _hpd_inverse_raw,
    _identity_raw,
    _j_times_raw,
    _logdet_gram_raw,
    _matmul_raw,
    _mul_coeffs,
    _octonion_guard,
    _singular_values_raw,
    _solve_raw,
)
from rdmt.errors import NotPositiveDefinite, OctonionMatrixError

from conftest import random_hpd, random_matrix, random_unitary

R, C, H, O = AlgebraTag.REAL, AlgebraTag.COMPLEX, AlgebraTag.QUATERNION, AlgebraTag.OCTONION


# -- the doubling construction cross-check: quaternion multiplication spelled
#    out from the classical i,j,k table, independent of the recursive rule.

_QTABLE = {
    (0, 0): (0, 1), (0, 1): (1, 1), (0, 2): (2, 1), (0, 3): (3, 1),
    (1, 0): (1, 1), (1, 1): (0, -1), (1, 2): (3, 1), (1, 3): (2, -1),
    (2, 0): (2, 1), (2, 1): (3, -1), (2, 2): (0, -1), (2, 3): (1, 1),
    (3, 0): (3, 1), (3, 1): (2, 1), (3, 2): (1, -1), (3, 3): (0, -1),
}


def _qmul_table(a, b):
    out = np.zeros(4)
    for i in range(4):
        for j in range(4):
            k, s = _QTABLE[(i, j)]
            out[k] += s * a[i] * b[j]
    return out


def _omul_doubling(a, b):
    """One explicit doubling step on quaternion pairs, as an oracle for the
    recursive octonion product."""
    a1, a2 = a[:4], a[4:]
    b1, b2 = b[:4], b[4:]
    conj = lambda q: np.array([q[0], -q[1], -q[2], -q[3]])
    lo = _qmul_table(a1, b1) - _qmul_table(conj(b2), a2)
    hi = _qmul_table(b2, a1) + _qmul_table(a2, conj(b1))
    return np.concatenate([lo, hi])


class TestAlgebraTag:
    def test_only_four_values(self):
        assert [t.beta for t in AlgebraTag] == [1, 2, 4, 8]
        with pytest.raises(ValueError):
            AlgebraTag(3)


class TestScalarMul:
    def test_real_product(self):
        a, b = DivScalar.from_real(R, 2.0), DivScalar.from_real(R, 3.0)
        assert scalar_mul(a, b).coeffs[0] == 6.0

    def test_quaternion_basis_table(self):
        e1, e2, e3 = (DivScalar.basis(H, i) for i in (1, 2, 3))
        assert scalar_mul(e1, e2).isclose(e3)
        assert scalar_mul(e2, e1).isclose(-e3)
        assert scalar_mul(e1, e1).isclose(DivScalar.from_real(H, -1.0))

    def test_quaternion_matches_classical_table(self, rng):
        for _ in range(100):
            a, b = rng.normal(size=4), rng.normal(size=4)
            got = _mul_coeffs(a, b)
            np.testing.assert_allclose(got, _qmul_table(a, b), atol=1e-12)

    def test_octonion_matches_doubling_oracle(self, rng):
        for _ in range(100):
            a, b = rng.normal(size=8), rng.normal(size=8)
            np.testing.assert_allclose(_mul_coeffs(a, b), _omul_doubling(a, b),
                                       atol=1e-12)

    def test_octonion_norm_multiplicative(self, rng):
        a = rng.normal(size=(1000, 8))
        b = rng.normal(size=(1000, 8))
        ab = _mul_coeffs(a, b)
        lhs = np.linalg.norm(ab, axis=1)
        rhs = np.linalg.norm(a, axis=1) * np.linalg.norm(b, axis=1)
        assert np.abs(lhs / rhs - 1.0).max() < 1e-12

    @given(st.sampled_from([1, 2, 4, 8]), st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_norm_multiplicative_all_betas(self, beta, seed):
        gen = np.random.default_rng(seed)
        a, b = gen.normal(size=beta), gen.normal(size=beta)
        ab = _mul_coeffs(a, b)
        assert math.isclose(np.linalg.norm(ab),
                            np.linalg.norm(a) * np.linalg.norm(b),
                            rel_tol=1e-12)

    @given(st.sampled_from([1, 2, 4, 8]), st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_conjugation_antihomomorphism(self, beta, seed):
        from rdmt.algebra import _conj_coeffs

        gen = np.random.default_rng(seed)
        a, b = gen.normal(size=beta), gen.normal(size=beta)
        lhs = _conj_coeffs(_mul_coeffs(a, b))
        rhs = _mul_coeffs(_conj_coeffs(b), _conj_coeffs(a))
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)

    def test_octonion_alternative_but_not_associative(self, rng):
        a = rng.normal(size=(200, 8))
        b = rng.normal(size=(200, 8))
        c = rng.normal(size=(200, 8))
        aab = _mul_coeffs(_mul_coeffs(a, a), b) - _mul_coeffs(a, _mul_coeffs(a, b))
        abb = _mul_coeffs(_mul_coeffs(a, b), b) - _mul_coeffs(a, _mul_coeffs(b, b))
        assert np.abs(aab).max() < 1e-12
        assert np.abs(abb).max() < 1e-12
        assoc = _mul_coeffs(_mul_coeffs(a, b), c) - _mul_coeffs(a, _mul_coeffs(b, c))
        assert np.abs(assoc).max() > 1.0

    def test_tag_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            scalar_mul(DivScalar.from_real(R, 1.0), DivScalar.from_real(C, 1.0))

    def test_conjugation_negates_imaginary(self):
        q = DivScalar(H, [1.0, 1.0, 0.0, 0.0])
        assert q.conj().isclose(DivScalar(H, [1.0, -1.0, 0.0, 0.0]))


class TestDivScalarOperators:
    @pytest.mark.parametrize("tag", [R, C, H, O])
    def test_operators_are_the_coefficient_arithmetic(self, rng, tag):
        a, b = (DivScalar(tag, rng.normal(size=tag.beta)) for _ in range(2))
        f = float(rng.normal())
        before = a.coeffs.copy(), b.coeffs.copy()
        for got, want in [(a + b, a.coeffs + b.coeffs), (a - b, a.coeffs - b.coeffs),
                          (-a, -a.coeffs), (a * b, scalar_mul(a, b).coeffs),
                          (a * b, _mul_coeffs(a.coeffs, b.coeffs)), (a * f, a.coeffs * f),
                          (f * a, f * a.coeffs), (2 * a, 2.0 * a.coeffs)]:
            assert isinstance(got, DivScalar) and got.tag == tag
            assert np.array_equal(got.coeffs, want)
        assert np.array_equal(a.coeffs, before[0]) and np.array_equal(b.coeffs, before[1])
        assert type(a.real) is float and a.real == a.coeffs[0]

    @pytest.mark.parametrize("tag", [R, C, H, O])
    def test_refusals(self, tag):
        a = DivScalar.from_real(tag, 1.0)
        other = DivScalar.from_real(C if tag == R else R, 1.0)
        for op in (lambda: a + other, lambda: a - other, lambda: a * other):
            with pytest.raises(ValueError, match="^algebra mismatch"):
                op()
        for count in (tag.beta - 1, tag.beta + 1):
            with pytest.raises(ValueError, match=f"^expected {tag.beta} coefficients"):
                DivScalar(tag, np.ones(count))

    @pytest.mark.parametrize("tag", [R, C, H, O])
    def test_immutable_and_repr(self, tag):
        source = np.arange(1.0, tag.beta + 1.0)
        a = DivScalar(tag, source)
        source[0] = 9.0     # the scalar holds its own copy
        assert a.coeffs[0] == 1.0
        with pytest.raises(AttributeError, match="DivScalar is immutable"):
            a.tag = R
        with pytest.raises(ValueError):
            a.coeffs[0] = 5.0
        assert repr(a) == f"DivScalar({tag.name}, {np.arange(1.0, tag.beta + 1.0).tolist()})"
        assert repr(DivScalar(C, [1.5, -2])) == "DivScalar(COMPLEX, [1.5, -2.0])"


class TestConjTranspose:
    def test_real_is_plain_transpose(self, rng):
        x = random_matrix(rng, R, 2, 3)
        np.testing.assert_array_equal(conj_transpose(x).data[..., 0], x.data[..., 0].T)

    def test_involution_product_rule(self, rng):
        x = random_matrix(rng, C, 2, 3)
        y = random_matrix(rng, C, 3, 2)
        lhs = conj_transpose(matmul(x, y))
        rhs = matmul(conj_transpose(y), conj_transpose(x))
        assert lhs.isclose(rhs, atol=1e-12)


class TestMatmul:
    def test_identity(self, rng):
        x = random_matrix(rng, H, 3, 2)
        assert matmul(DivMatrix.identity(H, 3), x).isclose(x, atol=1e-14)

    def test_real_two_by_two(self):
        a = DivMatrix.from_real(R, [[1, 2], [3, 4]])
        b = DivMatrix.from_real(R, [[5, 6], [7, 8]])
        np.testing.assert_allclose(matmul(a, b).data[..., 0],
                                   [[19, 22], [43, 50]])

    def test_quaternion_associativity(self, rng):
        a, b, c = (random_matrix(rng, H, 3, 3) for _ in range(3))
        lhs = matmul(matmul(a, b), c)
        rhs = matmul(a, matmul(b, c))
        assert np.abs(lhs.data - rhs.data).max() < 1e-10

    def test_dimension_mismatch(self, rng):
        with pytest.raises(ValueError, match="mismatch"):
            matmul(random_matrix(rng, R, 2, 3), random_matrix(rng, R, 2, 3))

    def test_octonion_matrices_rejected(self, rng):
        x = random_matrix(rng, O, 2, 2)
        with pytest.raises(OctonionMatrixError):
            matmul(x, x)

    def test_octonion_scalar_allowed(self, rng):
        x = random_matrix(rng, O, 1, 1)
        assert matmul(x, x).shape == (1, 1)


class TestCholesky:
    def test_identity(self):
        assert cholesky_hpd(HermitianPD.identity(H, 3)).isclose(
            DivMatrix.identity(H, 3))

    def test_scalar(self):
        l = cholesky_hpd(HermitianPD.from_real(R, [[2.0]]))
        assert math.isclose(l.data[0, 0, 0], math.sqrt(2.0))

    def test_quaternion_example_reconstructs(self):
        a = np.zeros((2, 2, 4))
        a[0, 0, 0] = a[1, 1, 0] = 2.0
        a[0, 1] = [0.0, 1.0, 1.0, 0.0]
        a[1, 0] = [0.0, -1.0, -1.0, 0.0]
        hp = HermitianPD(DivMatrix(H, a))
        l = cholesky_hpd(hp)
        rec = matmul(l, conj_transpose(l))
        assert np.abs(rec.data - a).max() < 1e-12

    @pytest.mark.parametrize("tag", [R, C, H])
    @pytest.mark.parametrize("m", [1, 2, 4])
    def test_round_trip_random(self, rng, tag, m):
        hp = random_hpd(rng, tag, m)
        l = cholesky_hpd(hp)
        rec = matmul(l, conj_transpose(l))
        rel = (np.abs(rec.data - hp.mat.data).max()
               / max(1.0, np.abs(hp.mat.data).max()))
        assert rel < 1e-10
        diag = np.array([l.data[i, i] for i in range(m)])
        assert np.all(diag[:, 0] > 0)
        assert np.abs(diag[:, 1:]).max(initial=0.0) == 0.0

    def test_not_positive_definite(self):
        with pytest.raises(NotPositiveDefinite):
            HermitianPD.from_real(R, [[1.0, 2.0], [2.0, 1.0]])

    def test_non_hermitian_rejected(self, rng):
        with pytest.raises(ValueError, match="Hermitian"):
            HermitianPD(random_matrix(rng, C, 2, 2))

    @pytest.mark.parametrize("tag", [R, C, H, O])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, tag, bad):
        # LAPACK returns NaN for a NaN input and factors [[inf, 0], [0, 1]]
        # without complaint; both must still be refused.
        size = 1 if tag == O else 2
        a = np.eye(size)
        a[0, 0] = bad
        with pytest.raises(NotPositiveDefinite):
            HermitianPD.from_real(tag, a)


    @pytest.mark.parametrize("tag", [R, C, H])
    @pytest.mark.parametrize("bad_at", [0, 3])
    @pytest.mark.parametrize("fault,problem", [
        (-1.0, "is not positive definite"),    # LAPACK refuses the stack
        (math.inf, "has a non-finite Cholesky factor"),
        (math.nan, "has a non-finite Cholesky factor"),
    ])
    def test_stack_failure_names_its_index(self, rng, tag, bad_at, fault, problem):
        a = _oracle_hpd(rng, tag.beta, 2, 7)
        a[bad_at, 0, 0, 0] = fault
        with pytest.raises(NotPositiveDefinite) as info:
            _cholesky_raw(a)
        assert str(info.value) == f"matrix at index {bad_at} {problem}"
        assert info.value.index == bad_at
        with pytest.raises(NotPositiveDefinite) as info:
            _cholesky_raw(a[bad_at])
        assert str(info.value) == f"matrix {problem}"
        assert info.value.index is None

    def test_octonion_stack_names_its_index(self):
        # the real image of a Hermitian octonion stack keeps its positions
        a = np.zeros((4, 1, 1, 8))
        a[:, 0, 0, 0] = [1.0, 2.0, -1.0, 3.0]
        with pytest.raises(NotPositiveDefinite, match="index 2 is not positive definite"):
            _octonion_guard(_cholesky_raw, a, hermitian=True)


# -- the matrix kernels run on the complex representation; the independent
#    oracle below spells the matrix product out entry by entry with the
#    scalar Cayley-Dickson product.


def _entrywise_matmul(a, b):
    """(A B)_ij = sum_p A_ip B_pj over (..., m, k, beta) x (..., k, n, beta)."""
    m, k, n = a.shape[-3], a.shape[-2], b.shape[-2]
    batch = np.broadcast_shapes(a.shape[:-3], b.shape[:-3])
    out = np.zeros(batch + (m, n, a.shape[-1]))
    for i in range(m):
        for j in range(n):
            for p in range(k):
                out[..., i, j, :] += _mul_coeffs(a[..., i, p, :], b[..., p, j, :])
    return out


def _oracle_hpd(gen, beta, m, nsamp):
    """Well-conditioned Hermitian positive definite stack built with the oracle."""
    g = gen.normal(size=(nsamp, m, m, beta))
    a = _entrywise_matmul(g, _conj_t_raw(g)) + m * _identity_raw(m, beta)
    return _hermitize_raw(a)


def _assert_rel_close(got, want, rtol=1e-12):
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= rtol * np.abs(want).max()


_KERNEL_CASES = [(R, 3, 4), (C, 3, 4), (H, 3, 4), (H, 1, 2)]


class TestKernelsAgainstEntrywiseOracle:
    @pytest.mark.parametrize("tag,m,n", _KERNEL_CASES)
    def test_matmul_batched(self, rng, tag, m, n):
        a = rng.normal(size=(5, m, 2, tag.beta))
        b = rng.normal(size=(5, 2, n, tag.beta))
        _assert_rel_close(_matmul_raw(a, b), _entrywise_matmul(a, b))

    @pytest.mark.parametrize("tag,m,n", _KERNEL_CASES)
    def test_matmul_broadcast_parameter(self, rng, tag, m, n):
        # the samplers multiply one (1, m, m) parameter factor into (N, m, n)
        a = rng.normal(size=(1, m, m, tag.beta))
        b = rng.normal(size=(6, m, n, tag.beta))
        _assert_rel_close(_matmul_raw(a, b), _entrywise_matmul(a, b))
        _assert_rel_close(_matmul_raw(_conj_t_raw(b), _conj_t_raw(a)),
                          _entrywise_matmul(_conj_t_raw(b), _conj_t_raw(a)))

    @pytest.mark.parametrize("tag,m,n", _KERNEL_CASES)
    def test_gram_is_the_symmetrized_product(self, rng, tag, m, n):
        # bit for bit the product it replaced, exactly Hermitian, and
        # min(m, n) square: X X* of a wide or square X, X* X of a tall one
        wide = rng.normal(size=(5, m, n, tag.beta))
        tall = rng.normal(size=(5, n, m, tag.beta))
        cases = [(wide, wide, _conj_t_raw(wide))]
        if n > m:   # the kernel cases are wide or square
            cases.append((tall, _conj_t_raw(tall), tall))
        for x, a, b in cases:
            g = _gram_raw(x)
            assert g.shape == (5, m, m, tag.beta)
            np.testing.assert_array_equal(g, _hermitize_raw(_matmul_raw(a, b)))
            np.testing.assert_array_equal(g, _conj_t_raw(g))
            _assert_rel_close(g, _entrywise_matmul(a, b))

    @pytest.mark.parametrize("tag,m,n", _KERNEL_CASES)
    def test_cholesky_reconstructs(self, rng, tag, m, n):
        a = _oracle_hpd(rng, tag.beta, m, 5)
        lo = _cholesky_raw(a)
        rows, cols = np.triu_indices(m, 1)
        assert np.all(lo[:, rows, cols, :] == 0.0)
        diag = lo[:, np.arange(m), np.arange(m), :]
        assert np.all(diag[..., 0] > 0.0) and np.all(diag[..., 1:] == 0.0)
        _assert_rel_close(_entrywise_matmul(lo, _conj_t_raw(lo)), a)

    @pytest.mark.parametrize("tag,m,n", _KERNEL_CASES)
    def test_triangular_solve_residual(self, rng, tag, m, n):
        lo = _cholesky_raw(_oracle_hpd(rng, tag.beta, m, 1))
        b = rng.normal(size=(6, m, n, tag.beta))
        x = _solve_raw(lo, b)
        _assert_rel_close(_entrywise_matmul(_conj_t_raw(lo), x), b)

    @pytest.mark.parametrize("tag,m,n", _KERNEL_CASES)
    def test_hpd_inverse(self, rng, tag, m, n):
        a = _oracle_hpd(rng, tag.beta, m, 5)
        inv = _hpd_inverse_raw(a)
        np.testing.assert_array_equal(inv, _hermitize_raw(inv))
        eye = np.broadcast_to(_identity_raw(m, tag.beta), a.shape)
        _assert_rel_close(_entrywise_matmul(a, inv), eye)

    def test_pair_check_is_per_matrix(self):
        # the split pair of the second matrix is far below the first matrix's
        # scale, so only a per-matrix check sees it
        vals = np.array([[1e9, 1e9, 1.0, 1.0], [1.0, 1.0, 0.5, 0.4]])
        with pytest.raises(ArithmeticError):
            _collapse_pairs(vals)
        np.testing.assert_array_equal(_collapse_pairs(vals[:1]), [[1e9, 1.0]])
        # a gap above the bare tolerance passes within the matrix's own scale
        np.testing.assert_array_equal(_collapse_pairs(np.array([1e9, 1e9 - 1.0])),
                                      [1e9 - 0.5])
        # and a split pair fails within it, whatever the spectrum's size
        for size in (1.0, 1e-6, 1e-20, 1e-300):
            with pytest.raises(ArithmeticError):
                _collapse_pairs(size * np.array([1.0 + 1e-6, 1.0]))
            with pytest.raises(ArithmeticError):
                _collapse_pairs(size * np.array([1.0, 1.0, -2.0, -2.0 - 1e-6]))
            _collapse_pairs(size * np.array([1.0, 1.0, -2.0, -2.0 - 1e-12]))
        assert _collapse_pairs(np.zeros((0, 4))).shape == (0, 2)


class TestOctonionGuard:
    """No kernel takes an octonion.  The public operations take a 1x1 one
    through `_octonion_guard`, which hands the kernel its real image: the
    1 x 8 coefficient row, or a Hermitian octonion's real coefficient.  The
    results against the entrywise oracle, whose scalar product is the
    Cayley-Dickson product."""

    def test_matmul_is_the_scalar_product(self, rng):
        x, y = random_matrix(rng, O, 1, 1), random_matrix(rng, O, 1, 1)
        np.testing.assert_array_equal(matmul(x, y).data, _mul_coeffs(x.data, y.data))
        _assert_rel_close(matmul(x, y).data, _entrywise_matmul(x.data, y.data))

    def test_factor_and_inverse(self, rng):
        a = np.zeros((1, 1, 8))
        a[..., 0] = rng.uniform(0.5, 2.0)
        h = HermitianPD(DivMatrix(O, a))
        lo = cholesky_hpd(h).data
        assert lo[0, 0, 0] == math.sqrt(a[0, 0, 0]) and not lo[..., 1:].any()
        _assert_rel_close(_entrywise_matmul(lo, _conj_t_raw(lo)), a)
        assert logdet_hpd(h) == 2.0 * math.log(lo[0, 0, 0])
        inv = h.inverse().mat.data
        assert inv[0, 0, 0] == 1.0 / a[0, 0, 0] and not inv[..., 1:].any()

    def test_gram_of_a_stack(self, rng):
        x = rng.normal(size=(5, 1, 1, 8))
        g = _octonion_guard(_gram_raw, x)
        assert g.shape == x.shape and not g[..., 1:].any()
        _assert_rel_close(g, _hermitize_raw(_entrywise_matmul(x, _conj_t_raw(x))))

    @pytest.mark.parametrize("kernel,hermitian", [(_gram_raw, False),
                                                  (_singular_values_raw, False),
                                                  (_cholesky_raw, True)])
    def test_a_larger_octonion_is_refused_naming_its_shape(self, kernel, hermitian):
        with pytest.raises(OctonionMatrixError, match="got 1x2$"):
            _octonion_guard(kernel, np.ones((3, 1, 2, 8)), hermitian)



def _one_at_a_time(kernel, a, b, shared_left):
    """kernel(a, b) with the shared factor applied to one matrix of the
    stack at a time: each call is the single-matrix case."""
    stack = b if shared_left else a
    rows = [kernel(a, one) if shared_left else kernel(one, b)
            for one in stack.reshape((-1,) + stack.shape[-3:])]
    return np.stack(rows).reshape(stack.shape[:-3] + rows[0].shape)


class TestSharedFactorFold:
    """One shared factor against a stack is one computation: one folded
    BLAS call, or the factor broadcast through the substitution kernel.
    Every result equals the one with the factor given per matrix (one at a
    time for the product), bit for bit."""

    SHAPES = [(2, 3), (3, 2), (1, 3), (3, 1), (2, 2)]

    @staticmethod
    def _factor(rng, beta, m):
        """A lower Cholesky factor."""
        return _cholesky_raw(_oracle_hpd(rng, beta, m, 1))[0]

    @pytest.mark.parametrize("tag", [R, C, H])
    @pytest.mark.parametrize("m,n", SHAPES)
    @pytest.mark.parametrize("lead", [(7,), (2, 3)])
    def test_solve(self, rng, tag, m, n, lead):
        b = rng.normal(size=lead + (m, n, tag.beta))
        lo = self._factor(rng, tag.beta, m)
        want = _solve_raw(np.broadcast_to(lo, lead + lo.shape).copy(), b)
        np.testing.assert_array_equal(_solve_raw(lo, b), want)
        np.testing.assert_array_equal(_solve_raw(lo[None], b), want)  # (1, m, m)

    @pytest.mark.parametrize("tag", [R, C, H])
    @pytest.mark.parametrize("m,n", SHAPES)
    @pytest.mark.parametrize("lead", [(7,), (2, 3)])
    def test_matmul(self, rng, tag, m, n, lead):
        x = rng.normal(size=lead + (m, n, tag.beta))
        right = rng.normal(size=(n, n, tag.beta))
        left = rng.normal(size=(m, m, tag.beta))
        for a, b, shared_left in ((left, x, True), (x, right, False)):
            want = _one_at_a_time(_matmul_raw, a, b, shared_left)
            np.testing.assert_array_equal(_matmul_raw(a, b), want)
            got = _matmul_raw(a[None], b) if shared_left else _matmul_raw(a, b[None])
            np.testing.assert_array_equal(got, want)

    def test_leading_axes_broadcast(self, rng):
        x = rng.normal(size=(4, 2, 3, 2))
        a = self._factor(rng, 2, 2)
        assert _solve_raw(a[None, None], x).shape == (1, 4, 2, 3, 2)
        assert _matmul_raw(x, rng.normal(size=(1, 1, 3, 3, 2))).shape == (1, 4, 2, 3, 2)

    def test_single_matrix_is_the_n1_case(self, rng):
        a = self._factor(rng, 4, 2)
        b = rng.normal(size=(2, 3, 4))
        np.testing.assert_array_equal(_solve_raw(a, b[None])[0], _solve_raw(a, b))
        c = rng.normal(size=(3, 3, 4))
        np.testing.assert_array_equal(_matmul_raw(b[None], c)[0], _matmul_raw(b, c))


def _lapack_solve(a, b):
    """LAPACK's LU solve of the complex representation, the reference the
    substitution kernel is checked against."""
    beta = a.shape[-1]
    lead = np.broadcast_shapes(a.shape[:-3], b.shape[:-3])
    b = np.broadcast_to(b, lead + b.shape[-3:])
    return _complex_unembed_raw(
        np.linalg.solve(_complex_embed_raw(a), _complex_embed_raw(b)), beta)


def _triangles(gen, beta, m, lead, spread=1.0):
    """A lead-shaped stack of lower Cholesky factors, row i scaled by
    spread^(i/(m-1)): the diagonals, and the condition numbers, span
    `spread`."""
    lo = _cholesky_raw(_oracle_hpd(gen, beta, m, math.prod(lead)))
    scale = np.geomspace(1.0, spread, m)[:, None, None]
    return (lo * scale).reshape(lead + (m, m, beta))


def _entry_norms(x):
    return np.sqrt(np.square(x).sum(axis=-1))


def _componentwise_backward_error(a, x, b):
    """Per matrix, max_ij |B - A X|_ij / (|A| |X| + |B|)_ij (Oettli-Prager),
    |.| the norm of an algebra entry; the product is the entrywise oracle."""
    resid = _entry_norms(b - _entrywise_matmul(a, x))
    scale = (np.einsum("...ik,...kj->...ij", _entry_norms(a), _entry_norms(x))
             + _entry_norms(b))
    return (resid / scale).max(axis=(-2, -1))


class TestTriangularSubstitution:
    """`_solve_raw(L, B)` solves L* X = B for a lower Cholesky factor L.
    Stacks of two or more systems are solved by back substitution on the
    coefficients at every order; single systems keep LAPACK's LU solve of
    the conjugate-transposed representation bit for bit."""

    EPS = np.finfo(float).eps

    @pytest.mark.parametrize("tag", [R, C, H])
    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 6, 7, 8])
    @pytest.mark.parametrize("spread", [1.0, 1e-8])
    def test_against_lapack(self, rng, tag, m, spread):
        # substitution is componentwise backward stable (Higham, Accuracy and
        # Stability of Numerical Algorithms, ch. 8); LAPACK's pivoted LU of a
        # triangle is not, so its worst error bounds the kernel's from above
        lo = _triangles(rng, tag.beta, m, (40,), spread)
        a = _conj_t_raw(lo)
        for n in (1, 3):
            b = rng.normal(size=(40, m, n, tag.beta))
            x, ref = _solve_raw(lo, b), _lapack_solve(a, b)
            worst = _componentwise_backward_error(a, x, b).max()
            worst_ref = _componentwise_backward_error(a, ref, b).max()
            assert worst <= (m + 1) * self.EPS
            # LAPACK's LU of the upper triangle L* pivots nothing, so it is a
            # back substitution too; at orders 5-8 the two worst errors trade
            # places by a fraction of an eps (2 of 576 sampled cases had the
            # kernel above, 1.13 against 0.86 eps, with long-double residuals)
            if m <= 4:
                assert worst <= max(worst_ref, self.EPS)
            cond = np.linalg.cond(_complex_embed_raw(a))
            moved = _entry_norms(x - ref).max(axis=(-2, -1))
            assert np.all(moved <= 8 * self.EPS * cond
                          * _entry_norms(ref).max(axis=(-2, -1)))

    @pytest.mark.parametrize("m,n", [(2, 1), (1, 2), (2, 3)])
    def test_j_rule_is_the_product_by_j(self, rng, m, n):
        # a solved row of a stack, as the substitution reads it: its
        # coefficients are strided across the stack
        x = rng.normal(size=(7, m, n, 4))
        pairs = x.reshape(7, m, -1).view(np.complex128)[:, -1, :].reshape(7, n, 2)
        j = np.zeros(4)
        j[2] = 1.0
        want = _mul_coeffs(np.broadcast_to(j, x[:, -1].shape), x[:, -1])
        got = _j_times_raw(pairs)
        np.testing.assert_array_equal(got.view(np.float64).reshape(want.shape), want)
        out = np.empty((7, n, 2), np.complex128)
        assert _j_times_raw(pairs, out) is out
        np.testing.assert_array_equal(out, got)

    @pytest.mark.parametrize("tag", [R, C, H])
    def test_shared_and_per_matrix_factors(self, rng, tag):
        beta, m, n = tag.beta, 3, 2
        per_matrix = _triangles(rng, beta, m, (2, 3))
        shared = per_matrix[0, 0]
        stack = rng.normal(size=(2, 3, m, n, beta))
        one = stack[0, 0]
        for lo, b in ((per_matrix, stack), (shared, stack), (per_matrix, one),
                      (per_matrix[0], stack[:, :1])):
            x = _solve_raw(lo, b)
            lead = np.broadcast_shapes(lo.shape[:-3], b.shape[:-3])
            assert x.shape == lead + (m, n, beta)
            _assert_rel_close(x, _lapack_solve(_conj_t_raw(lo), b))
            # the broadcast operand spelled out per matrix gives the same bits
            full_lo = np.broadcast_to(lo, lead + lo.shape[-3:]).copy()
            full_b = np.broadcast_to(b, lead + b.shape[-3:]).copy()
            np.testing.assert_array_equal(_solve_raw(full_lo, full_b), x)

    @pytest.mark.parametrize("tag", [R, C, H])
    @pytest.mark.parametrize("m", [1, 2, 4, 7])
    def test_a_result_depends_only_on_its_own_system(self, rng, tag, m):
        beta = tag.beta
        lo, b = _triangles(rng, beta, m, (50,)), rng.normal(size=(50, m, 3, beta))
        x = _solve_raw(lo, b)
        for size in (2, 7):
            np.testing.assert_array_equal(_solve_raw(lo[:size], b[:size]), x[:size])
        # matrix 5 among other neighbours, at another position
        others = _triangles(rng, beta, m, (3,))
        mixed_lo = np.concatenate([others[:2], lo[5:6], others[2:]])
        mixed_b = np.concatenate([b[:2], b[5:6], b[10:11]])
        np.testing.assert_array_equal(_solve_raw(mixed_lo, mixed_b)[2], x[5])

    @pytest.mark.parametrize("tag", [R, C, H])
    @pytest.mark.parametrize("m", [1, 2, 5])
    def test_single_systems_keep_lapack(self, rng, tag, m):
        beta = tag.beta
        lo, b = _triangles(rng, beta, m, (4,)), rng.normal(size=(4, m, 3, beta))
        single = _solve_raw(lo[0], b[0])
        np.testing.assert_array_equal(single, _lapack_solve(_conj_t_raw(lo[0]), b[0]))
        np.testing.assert_array_equal(_solve_raw(lo[:1], b[:1])[0], single)
        np.testing.assert_array_equal(_solve_raw(lo[0], b[:1])[0], single)

    def test_only_single_systems_call_lapack(self, rng, monkeypatch):
        calls = []
        solve = np.linalg.solve
        monkeypatch.setattr(np.linalg, "solve",
                            lambda *a, **k: calls.append(a[0].shape) or solve(*a, **k))
        for beta in (1, 2, 4):
            for m in (2, 4, 5, 8):
                lo = _triangles(rng, beta, m, (3,))
                b = rng.normal(size=(3, m, 2, beta))
                _solve_raw(lo, b)
                _solve_raw(lo[0], b)
                _solve_raw(lo, b[0])
        assert calls == []
        lo = _triangles(rng, 2, 5, (3,))
        _solve_raw(lo[0], rng.normal(size=(5, 2, 2)))
        _solve_raw(lo[:1], rng.normal(size=(1, 5, 2, 2)))
        _solve_raw(lo[0], rng.normal(size=(1, 5, 2, 2)))
        assert len(calls) == 3


class TestLogdet:
    def test_identity_zero(self):
        assert logdet_hpd(HermitianPD.identity(C, 4)) == 0.0

    def test_real_diagonal(self):
        hp = HermitianPD.from_real(R, [[2.0, 0.0], [0.0, 3.0]])
        assert math.isclose(logdet_hpd(hp), math.log(6.0))

    def test_quaternion_example(self):
        # [[2, q], [conj(q), 2]] with |q|^2 = 2 has Moore determinant 2.
        a = np.zeros((2, 2, 4))
        a[0, 0, 0] = a[1, 1, 0] = 2.0
        a[0, 1] = [0.0, 1.0, 1.0, 0.0]
        a[1, 0] = [0.0, -1.0, -1.0, 0.0]
        assert math.isclose(logdet_hpd(HermitianPD(DivMatrix(H, a))),
                            math.log(2.0), abs_tol=1e-12)

    @pytest.mark.parametrize("tag", [R, C, H])
    def test_congruence_identity(self, rng, tag):
        # log det(A X A*) = log det(A A*) + log det(X)
        m = 3
        x = random_hpd(rng, tag, m)
        a = random_matrix(rng, tag, m, m)
        axa = matmul(matmul(a, x.mat), conj_transpose(a))
        aa = matmul(a, conj_transpose(a))
        lhs = logdet_hpd(HermitianPD(axa))
        rhs = logdet_hpd(HermitianPD(aa)) + logdet_hpd(x)
        assert abs(lhs - rhs) < 1e-9


def _gram_logdet_by_coefficients(base, a, factor):
    """log|base + g* g|, g = factor a, composed of the coefficient kernels."""
    g = a if factor is None else _matmul_raw(factor, a)
    gram = _matmul_raw(_conj_t_raw(g), g)
    return _chol_logdet_raw(_cholesky_raw(_hermitize_raw(base + gram)))


class TestLogdetGram:
    """`_logdet_gram_raw` forms log|base + g* g| in the complex
    representation; composed of the coefficient kernels instead, each
    product embedded and unembedded, it gives the same value to rounding."""

    @pytest.mark.parametrize("tag", [R, C, H])
    @pytest.mark.parametrize("lead", [(), (0,), (1,), (6,)])
    @pytest.mark.parametrize("factor_kind", [None, "shared", "stacked"])
    def test_matches_the_coefficient_composition(self, rng, tag, lead, factor_kind):
        beta = tag.beta
        for k in range(1, 5):
            for p in range(1, 5):
                base = _oracle_hpd(rng, beta, p, 1)[0]
                a = rng.normal(size=lead + (k, p, beta))
                factor = {None: None,
                          "shared": rng.normal(size=(k, k, beta)),
                          "stacked": rng.normal(size=lead + (k, k, beta))}[factor_kind]
                want = _gram_logdet_by_coefficients(base, a, factor)
                got = _logdet_gram_raw(_complex_embed_raw(base), a, None if factor is None
                                       else _complex_embed_raw(factor))
                assert got.shape == want.shape == lead
                assert np.all(np.abs(got - want) <= 1e-13 * np.maximum(1.0, np.abs(want)))

    @pytest.mark.parametrize("tag", [R, C, H])
    def test_overflow_names_its_matrix(self, rng, tag):
        base = _complex_embed_raw(_oracle_hpd(rng, tag.beta, 3, 1)[0])
        a = rng.normal(size=(5, 2, 3, tag.beta))
        a[3, 1, 0, 0] = 1e200
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NotPositiveDefinite, match="^matrix at index 3 ") as info:
                _logdet_gram_raw(base, a)
            assert info.value.index == 3
            with pytest.raises(NotPositiveDefinite, match="^matrix ") as info:
                _logdet_gram_raw(base, a[3])
            assert info.value.index is None


class TestComplexAdjoint:
    def test_real_identity_embedding(self, rng):
        x = random_matrix(rng, R, 2, 3)
        adj = complex_adjoint(x)
        assert adj.tag == C
        np.testing.assert_array_equal(adj.data[..., 0], x.data[..., 0])
        assert np.abs(adj.data[..., 1]).max() == 0.0

    def test_quaternion_block_determinant(self):
        q = DivMatrix(H, np.array([[[1.0, 1.0, 1.0, 1.0]]]))  # |q| = 2
        adj = complex_adjoint(q)
        z = adj.data[..., 0] + 1j * adj.data[..., 1]
        assert z.shape == (2, 2)
        assert math.isclose(abs(np.linalg.det(z)), 4.0, rel_tol=1e-12)

    def test_multiplicative(self, rng):
        for _ in range(20):
            a = random_matrix(rng, H, 2, 2)
            b = random_matrix(rng, H, 2, 2)
            lhs = complex_adjoint(matmul(a, b))
            rhs = matmul(complex_adjoint(a), complex_adjoint(b))
            assert np.abs(lhs.data - rhs.data).max() < 1e-12

    def test_octonion_rejected(self, rng):
        with pytest.raises(OctonionMatrixError):
            complex_adjoint(random_matrix(rng, O, 1, 1))

    @pytest.mark.parametrize("lead", [(), (1,), (1, 1), (5,), (2, 3)])
    # single matrices up to 12x12 are gathered, larger ones copied by block
    @pytest.mark.parametrize("m,n", [(1, 1), (1, 4), (3, 1), (2, 3), (8, 8), (12, 12),
                                     (13, 12)])
    def test_block_definition_bit_for_bit(self, rng, lead, m, n):
        # every entry a + b j becomes [[a, b], [-conj(b), conj(a)]]; signed
        # zeros in each coefficient of the first and last entries
        x = rng.normal(size=lead + (m, n, 4))
        x[..., 0, 0, :] = [0.0, -0.0, 0.0, -0.0]
        x[..., -1, -1, :] = [-0.0, 0.0, -0.0, 0.0] if m * n > 1 else x[..., -1, -1, :]
        for data in (x, x.swapaxes(-3, -2)):    # and a non-contiguous view
            a, b = np.empty(data.shape[:-1], complex), np.empty(data.shape[:-1], complex)
            a.real, a.imag, b.real, b.imag = np.moveaxis(data, -1, 0)
            want = np.empty(data.shape[:-3] + (data.shape[-3], 2, data.shape[-2], 2),
                            complex)
            want[..., 0, :, 0], want[..., 0, :, 1] = a, b
            want[..., 1, :, 0], want[..., 1, :, 1] = -np.conj(b), np.conj(a)
            got = _complex_embed_raw(data)
            assert got.shape == data.shape[:-3] + (2 * data.shape[-3], 2 * data.shape[-2])
            assert got.tobytes() == want.tobytes()


class TestSpectra:
    def test_rectangular_diagonal(self):
        x = DivMatrix.from_real(R, [[3, 0, 0], [0, 1, 0]])
        np.testing.assert_allclose(singular_values(x), [3.0, 1.0])

    def test_quaternion_scalar_norm(self):
        q = DivMatrix(H, np.array([[[1.0, 1.0, 1.0, 1.0]]]))
        np.testing.assert_allclose(singular_values(q), [2.0])

    def test_tall_matrix_transposed_internally(self, rng):
        x = random_matrix(rng, C, 4, 2)
        np.testing.assert_allclose(singular_values(x),
                                   singular_values(conj_transpose(x)), atol=1e-12)

    @pytest.mark.parametrize("tag", [R, C, H])
    def test_unitary_invariance(self, rng, tag):
        x = random_matrix(rng, tag, 2, 4)
        h = random_unitary(rng, tag, 2)
        w = random_unitary(rng, tag, 4)
        s1 = singular_values(x)
        s2 = singular_values(matmul(matmul(h, x), w))
        assert np.abs(s1 - s2).max() < 1e-10

    @pytest.mark.parametrize("tag", [R, C, H])
    def test_squared_equals_gram_eigenvalues(self, rng, tag):
        x = random_matrix(rng, tag, 2, 3)
        gram = matmul(x, conj_transpose(x))
        eig = hermitian_eigenvalues(HermitianPD(gram))
        np.testing.assert_allclose(singular_values(x) ** 2, eig, rtol=1e-10)

    def test_diagonal_eigenvalues(self):
        hp = HermitianPD.from_real(R, [[5.0, 0.0], [0.0, 2.0]])
        np.testing.assert_allclose(hermitian_eigenvalues(hp), [5.0, 2.0])

    def test_complex_two_by_two(self):
        # [[2, i], [-i, 2]] has eigenvalues 3 and 1.
        a = np.zeros((2, 2, 2))
        a[0, 0, 0] = a[1, 1, 0] = 2.0
        a[0, 1, 1], a[1, 0, 1] = 1.0, -1.0
        np.testing.assert_allclose(hermitian_eigenvalues(DivMatrix(C, a)),
                                   [3.0, 1.0], atol=1e-12)

    @pytest.mark.parametrize("tag", [R, C, H])
    def test_eigenvalue_sum_is_trace(self, rng, tag):
        hp = random_hpd(rng, tag, 3)
        assert math.isclose(hermitian_eigenvalues(hp).sum(),
                            hp.mat.real_trace(), rel_tol=1e-10)

    def test_octonion_scalar_spectra_and_larger_rejected(self, rng):
        # a 1x1 octonion's singular value is its norm; a Hermitian 1x1 one is
        # real, and its eigenvalue is that real coefficient
        x = random_matrix(rng, O, 1, 1)
        np.testing.assert_allclose(singular_values(x), [x.entry(0, 0).norm()],
                                   rtol=1e-15)
        assert hermitian_eigenvalues(DivMatrix.from_real(O, [[-2.5]])).tolist() == [-2.5]
        with pytest.raises(OctonionMatrixError, match="2x2"):
            singular_values(random_matrix(rng, O, 2, 2))
        with pytest.raises(OctonionMatrixError, match="2x2"):
            hermitian_eigenvalues(DivMatrix.from_real(O, np.eye(2)))


def _reference_singular_values(x, beta):
    """Descending singular values of one (m, n, beta) matrix to 40 digits:
    mpmath's SVD of its complex representation, Kramers pairs collapsed."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        s = mpmath.svd_c(mpmath.matrix(_complex_embed_raw(x).tolist()),
                         compute_uv=False)
        s = np.sort([float(v) for v in s])[::-1]
    return 0.5 * (s[0::2] + s[1::2]) if beta == 4 else s


def _assert_near_reference(stack, beta):
    """Every value of a stack's closed form within 8 eps s_max of the 40-digit
    reference, each row descending and non-negative."""
    got = _singular_values_raw(stack)
    assert got.shape == stack.shape[:-3] + (min(stack.shape[-3:-1]),)
    assert np.all(got >= 0.0) and np.all(np.diff(got, axis=-1) <= 0.0)
    flat = stack.reshape((-1,) + stack.shape[-3:])
    for one, s in zip(flat, got.reshape(len(flat), -1)):
        ref = _reference_singular_values(one, beta)
        assert np.all(np.abs(s - ref) <= 8 * np.finfo(float).eps * ref[0]), (s, ref)


def _left_multiples(rng, rows, beta):
    """c_i r_i for random algebra scalars c_i and rows r_i of (N, n, beta)."""
    c = rng.normal(size=(len(rows), 1, beta))
    return _mul_coeffs(np.broadcast_to(c, rows.shape), rows)


class TestClosedFormSingularValues:
    """Stacks of two or more matrices with min(m, n) <= 2 take a closed form
    (Gram-Schmidt to a 2x2 triangle, then dlas2's formula); it is checked
    against mpmath at 40 digits to 8 eps times the largest singular value."""

    @pytest.mark.parametrize("beta", [1, 2, 4])
    def test_seeded_draws(self, rng, beta):
        _assert_near_reference(rng.normal(size=(12, 2, 3, beta)), beta)
        _assert_near_reference(rng.normal(size=(3, 2, 2, 5, beta)), beta)

    @pytest.mark.parametrize("beta", [1, 2, 4])
    @pytest.mark.parametrize("gap", [1e-2, 1e-4, 1e-6, 1e-8, 1e-10, 1e-12])
    def test_nearly_parallel_rows(self, rng, beta, gap):
        # the second row is a left multiple of the first, up to `gap`
        first = rng.normal(size=(6, 3, beta))
        second = _left_multiples(rng, first, beta) + gap * rng.normal(size=first.shape)
        _assert_near_reference(np.stack([first, second], axis=1), beta)

    @pytest.mark.parametrize("beta", [1, 2, 4])
    def test_rank_one_and_zero(self, rng, beta):
        first = rng.normal(size=(4, 3, beta))
        stack = np.stack([first, 0.75 * first], axis=1)
        stack[1, 1] = 0.0
        stack[2, 0] = 0.0
        stack[3] = 0.0
        _assert_near_reference(stack, beta)
        got = _singular_values_raw(stack)
        # a zero row leaves nothing to round: s_min is exactly 0
        assert np.all(got[1:3, 1] == 0.0) and np.all(got[3] == 0.0)
        assert np.all(_singular_values_raw(np.zeros((3, 2, 3, beta))) == 0.0)

    @pytest.mark.parametrize("beta", [1, 2, 4])
    @pytest.mark.parametrize("k", [600, -600])
    def test_extreme_scales(self, rng, beta, k):
        # unscaled, the squared entries would overflow or underflow; the
        # power-of-two scaling makes the values exactly equivariant
        x = rng.normal(size=(6, 2, 3, beta))
        x[1, 1] = 1e-3 * _left_multiples(rng, x[1, :1], beta)[0]
        _assert_near_reference(np.ldexp(x, k), beta)
        assert np.array_equal(_singular_values_raw(np.ldexp(x, k)),
                              np.ldexp(_singular_values_raw(x), k))

    @pytest.mark.parametrize("beta", [1, 2, 4])
    @pytest.mark.parametrize("shape", [(1, 4), (1, 1), (4, 1), (5, 2), (3, 2), (2, 2)])
    def test_one_row_one_column_and_tall(self, rng, beta, shape):
        _assert_near_reference(rng.normal(size=(5,) + shape + (beta,)), beta)

    def test_octonion_scalars(self, rng):
        # through the guard, which hands the closed form the coefficient rows
        x = rng.normal(size=(4, 1, 1, 8))
        s = _octonion_guard(_singular_values_raw, x)
        np.testing.assert_allclose(s[:, 0], np.sqrt(np.square(x).sum(axis=(1, 2, 3))),
                                   rtol=1e-15)
        assert np.array_equal(_octonion_guard(_singular_values_raw, np.ldexp(x, 600)),
                              np.ldexp(s, 600))

    @pytest.mark.parametrize("beta", [1, 2, 4])
    def test_only_single_matrices_and_larger_shapes_call_lapack(self, rng, monkeypatch,
                                                                 beta):
        calls = []
        svd = np.linalg.svd
        monkeypatch.setattr(np.linalg, "svd",
                            lambda *a, **k: calls.append(a[0].shape) or svd(*a, **k))
        _singular_values_raw(rng.normal(size=(7, 2, 3, beta)))
        _singular_values_raw(rng.normal(size=(7, 3, 1, beta)))
        assert calls == []
        _singular_values_raw(rng.normal(size=(2, 3, beta)))
        _singular_values_raw(rng.normal(size=(1, 2, 3, beta)))
        _singular_values_raw(rng.normal(size=(7, 3, 3, beta)))
        assert len(calls) == 3


class TestSerialization:
    @pytest.mark.parametrize("tag", [R, C, H, O])
    def test_json_round_trip_precision(self, rng, tag):
        import json

        m, n = (1, 1) if tag == O else (2, 3)
        x = random_matrix(rng, tag, m, n)
        text = json.dumps(x.to_schema_dict())
        y = DivMatrix.from_schema_dict(json.loads(text))
        # decimal text must preserve 15 significant digits
        np.testing.assert_allclose(y.data, x.data, rtol=1e-15, atol=0.0)

    def test_schema_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="schema"):
            DivMatrix.from_schema_dict(
                {"beta": 1, "rows": 2, "cols": 2, "data": [[[1.0]]]})

    @pytest.mark.parametrize("obj,message", [
        ({"beta": 2.7, "rows": 2.9, "cols": "3", "data": [[[1.0, 0.0]] * 3] * 2},
         "schema key 'beta': must be a positive integer, got 2.7"),
        ({"beta": 2, "rows": 2.9, "cols": 3, "data": [[[1.0, 0.0]] * 3] * 2},
         "schema key 'rows': must be a positive integer, got 2.9"),
        ({"beta": 2, "rows": 2, "cols": "3", "data": [[[1.0, 0.0]] * 3] * 2},
         "schema key 'cols': must be a positive integer, got '3'"),
        ({"beta": True, "rows": 1, "cols": 1, "data": [[[1.0]]]},
         "schema key 'beta': must be a positive integer, got True"),
        ({"beta": 3, "rows": 1, "cols": 1, "data": [[[1.0, 0.0, 0.0]]]},
         "schema key 'beta': must be 1, 2, 4 or 8, got 3"),
        ({"beta": 1, "rows": 0, "cols": 1, "data": []},
         "schema key 'rows': must be a positive integer, got 0"),
        ({"beta": 1, "rows": 1, "cols": 1, "data": [[[True]]]},
         "schema key 'data': coefficients must be numbers, got True"),
        ({"beta": 2, "rows": 1, "cols": 1, "data": [[[1.0, "1.5"]]]},
         "schema key 'data': coefficients must be numbers, got '1.5'"),
        ({"beta": 1, "rows": 1, "cols": 1, "data": [[[None]]]},
         "schema key 'data': coefficients must be numbers, got None"),
        ({"beta": 1, "rows": 1, "cols": 1, "data": [[[1.0]]], "tag": 1},
         "unknown schema key 'tag'"),
        ({"beta": 1, "rows": 1, "cols": 1}, "schema key 'data': missing"),
        ([], "a schema matrix must be a JSON object, not list"),
        (None, "a schema matrix must be a JSON object, not NoneType"),
    ])
    def test_the_reader_refuses_garbage_naming_its_key(self, obj, message):
        for read in (DivMatrix.from_schema_dict, HermitianPD.from_schema_dict):
            with pytest.raises(ValueError) as info:
                read(obj)
            assert str(info.value) == message

    def test_integral_floats_and_numpy_numbers_are_read(self):
        x = DivMatrix.from_schema_dict({"beta": 1.0, "rows": np.int64(1), "cols": 2.0,
                                        "data": np.array([[[1.5], [2]]])})
        assert x == DivMatrix.from_real(R, [[1.5, 2.0]])
        with pytest.raises(ValueError, match="'rows': must be a positive integer, got"):
            DivMatrix.from_schema_dict({"beta": 1, "rows": np.bool_(True), "cols": 1,
                                        "data": [[[1.0]]]})


class TestImmutability:
    def test_matrix_data_read_only(self, rng):
        x = random_matrix(rng, C, 2, 2)
        with pytest.raises(ValueError):
            x.data[0, 0, 0] = 5.0
        with pytest.raises(AttributeError):
            x.tag = AlgebraTag.REAL


class TestEquality:
    def test_matrices_compare_and_hash_by_value(self, rng):
        x = random_matrix(rng, H, 2, 3)
        y = DivMatrix(H, x.data.copy())
        assert x == y and hash(x) == hash(y) and not x != y
        changed = x.data.copy()
        changed[1, 2, 3] += 1e-15
        assert x != DivMatrix(H, changed)
        # the same coefficients over another algebra, or in another shape
        assert DivMatrix.identity(R, 2) != DivMatrix.from_real(C, np.eye(2))
        assert DivMatrix.zeros(R, 2, 3) != DivMatrix.zeros(R, 3, 2)
        assert DivMatrix.zeros(R, 1, 1) != 0.0

    def test_signed_zeros_are_equal_and_hash_alike(self):
        a = DivMatrix.from_real(R, [[0.0, 1.0]])
        b = DivMatrix.from_real(R, [[-0.0, 1.0]])
        assert a == b and hash(a) == hash(b)

    def test_hermitian_pd_compares_its_matrix(self, rng):
        a = random_hpd(rng, C, 3)
        b = HermitianPD(DivMatrix(C, a.mat.data.copy()))
        assert a == b and hash(a) == hash(b)
        assert a != a.inverse()
        assert HermitianPD.identity(R, 2) == HermitianPD.from_real(R, np.eye(2))
        assert HermitianPD.identity(R, 2) != DivMatrix.identity(R, 2)


class TestNonFiniteInput:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_schema_dict_rejects(self, bad):
        obj = DivMatrix.from_real(C, [[1.0, 0.0], [0.0, 1.0]]).to_schema_dict()
        obj["data"][1][0][1] = bad
        with pytest.raises(ValueError, match="finite"):
            DivMatrix.from_schema_dict(obj)
        with pytest.raises(ValueError, match="finite"):
            HermitianPD.from_schema_dict(obj)

    @pytest.mark.filterwarnings("error")  # refused without a RuntimeWarning
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_hermitian_check_names_the_matrix(self, bad):
        a = np.zeros((5, 2, 2, 2))
        a[..., 0] = np.eye(2)
        a[3, 0, 1, 1] = 0.5
        with pytest.raises(ValueError, match="index 3 is not Hermitian"):
            _hermitian_part(a)
        a[1, 1, 1, 0] = bad
        with pytest.raises(ValueError, match="index 1 has non-finite"):
            _hermitian_part(a)
        # the tolerance scales with each matrix's own largest coefficient
        a = np.zeros((2, 2, 2, 1))
        a[..., 0] = np.eye(2)
        a[0] *= 1e6
        a[:, 0, 1, 0] = 1e-8
        with pytest.raises(ValueError, match="index 1 is not Hermitian"):
            _hermitian_part(a)

    @pytest.mark.parametrize("beta", [1, 2, 4])
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    @pytest.mark.parametrize("shape", [(2, 3), (8, 8)])
    def test_singular_values_reject(self, capfd, beta, bad, shape):
        # refused before LAPACK, which raises on NaN and returns NaN for inf
        # (printing a DLASCL message); the stack goes through the closed form
        # at 2x3
        single = np.ones(shape + (beta,))
        single[1, 2, beta - 1] = bad
        with pytest.raises(ValueError, match="^matrix has non-finite coefficients"):
            _singular_values_raw(single)
        stack = np.ones((3, 2) + shape + (beta,))
        stack[1, 0] = single
        with pytest.raises(ValueError,
                           match="^matrix at index 2 has non-finite coefficients"):
            _singular_values_raw(stack)
        assert capfd.readouterr().err == ""

    @pytest.mark.filterwarnings("error")  # refused without a RuntimeWarning
    @pytest.mark.parametrize("tag", [R, C, H])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("where", [(0, 0), (0, 1)])
    def test_eigenvalues_reject(self, tag, bad, where):
        a = np.eye(2)
        a[where] = bad
        with pytest.raises(ValueError, match="non-finite"):
            hermitian_eigenvalues(DivMatrix.from_real(tag, a))
