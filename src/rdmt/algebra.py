"""Arithmetic over the four real normed division algebras and the dense
matrix kernels every distribution in this package depends on.

An element of R, C, H or O is stored as its beta real coefficients in the
Cayley-Dickson basis (1, e1, ..., e_{beta-1}); an m x n matrix is a float
array of shape (m, n, beta).  Scalars multiply by one recursive doubling
rule,

    (a, b)(c, d) = (a c - conj(d) b,  d a + b conj(c)),

which builds C from pairs of reals, H from pairs of C, and O from pairs of H.
Under this rule e1*e2 = e3 for quaternions and the norm is multiplicative for
all four algebras.

Matrix kernels over R, C and H run in numpy on the complex representation:
the matrix itself for beta = 1, 2 and the 2m x 2n complex adjoint for
beta = 4 (F. Zhang, Linear Algebra Appl. 251, 1997), an injective algebra
homomorphism that commutes with the conjugate transpose.  So products,
solves and inverses carry over exactly, the positive-diagonal Cholesky
factor of the adjoint is the adjoint of the factor (it is unique), and each
quaternion singular value or eigenvalue appears in the adjoint as a
coincident (Kramers) pair.  A kernel embeds each operand once
(`_complex_embed_raw`) and unembeds its result once (`_complex_unembed_raw`);
a parameter record's constant factors and bases come already embedded, so
a record embeds them once.  A sampler's construction is one kernel:
T = (F L)^-* Y G (K L')^-1 (`_solve_raw`) or the Wishart gram
(`_gram_raw`).  The gram, the densities' log|B + g* g| (`_logdet_gram_raw`)
and the spectrum of M* A M (`_eigvalsh_raw`) take every batch size in the
representation; the last two unembed nothing.  A kernel reads beta from
its operand's coefficient axis.

Four kernels fork on the batch size, each because a benchmark workload
measures both sides (perfbench):
  * `_solve_raw` solves a stack of two or more systems on the coefficients
    by back substitution (`_substitute_raw`), skipping LAPACK's LU (the
    kernels-8x8 stacks); one system is one LAPACK solve in the
    representation (the single-draw `call_min_us`);
  * `_singular_values_raw` gives stacks with min(m, n) = 2 a closed form,
    skipping LAPACK's iterative SVD (spectrum-h2x3); a one-row or
    one-column matrix is its norm at every batch size;
  * `_complex_embed_raw` gathers one quaternion matrix of at most 144
    entries in one pass (sample-h2x3 and density-h2x3 `call_min_us`);
  * `_folded_matmul` takes a stack times one shared matrix as one product
    (the sampling stacks).
The quaternion rule j q of the substitution, the closed form and the
adjoint's second block row is `_j_times_raw`.

Two rules of the algebra live here alone.  Gram products (`_gram_raw`) and
every other matrix that Cholesky or eigvalsh reads one triangle of are
symmetrized here.  Octonion matrices larger than 1x1 are rejected: octonion
matrix algebra is non-associative and has no complex representation.  No
kernel takes an octonion: the public operations hand it a 1x1 octonion's
real image (`_octonion_guard`), and `matmul` takes the scalar product.
"""

from __future__ import annotations

import enum
import functools
import math
import numbers

import numpy as np

from .errors import NotPositiveDefinite, OctonionMatrixError

__all__ = [
    "AlgebraTag",
    "DivScalar",
    "DivMatrix",
    "HermitianPD",
    "scalar_mul",
    "conj_transpose",
    "matmul",
    "cholesky_hpd",
    "logdet_hpd",
    "complex_adjoint",
    "singular_values",
    "hermitian_eigenvalues",
]

# Tolerances fixed package-wide.
HERMITIAN_ATOL = 1e-12          # coefficient-wise, scaled by |A|_max
PAIR_COLLAPSE_RTOL = 1e-8       # quaternion adjoint eigenvalue pairing


class AlgebraTag(enum.IntEnum):
    """The four real normed division algebras, keyed by real dimension."""

    REAL = 1
    COMPLEX = 2
    QUATERNION = 4
    OCTONION = 8

    def __init__(self, beta: int):
        self.beta = beta    # a plain int attribute, read on every draw


# ---------------------------------------------------------------------------
# Raw coefficient-array kernels.
#
# These operate on plain float arrays with a trailing coefficient axis of
# length beta and arbitrary leading (batch) axes.  The public classes below
# and the samplers in `distributions` are thin wrappers over them.
# ---------------------------------------------------------------------------


# (1, -1, ..., -1): the conjugate's coefficients, per beta.
_CONJ_SIGNS = {b: np.array([1.0] + [-1.0] * (b - 1)) for b in (1, 2, 4, 8)}


def _conj_coeffs(x: np.ndarray) -> np.ndarray:
    return np.multiply(x, _CONJ_SIGNS[x.shape[-1]], order="C")


def _mul_coeffs(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Cayley-Dickson product on (..., beta) coefficient arrays."""
    b = x.shape[-1]
    if b == 1:
        return x * y
    h = b // 2
    a, bb = x[..., :h], x[..., h:]
    c, d = y[..., :h], y[..., h:]
    lo = _mul_coeffs(a, c) - _mul_coeffs(_conj_coeffs(d), bb)
    hi = _mul_coeffs(d, a) + _mul_coeffs(bb, _conj_coeffs(c))
    return np.concatenate([lo, hi], axis=-1)


def _conj_t_raw(x: np.ndarray) -> np.ndarray:
    """(X*)_ij = conj(X_ji) on (..., m, n, beta) arrays."""
    return _conj_coeffs(x.swapaxes(-3, -2))


def _check_beta_shape(beta: int, m: int, n: int) -> None:
    if beta == 8 and max(m, n) > 1:
        raise OctonionMatrixError(
            "octonion (beta = 8) support is limited to 1x1 matrices; "
            f"got {m}x{n}"
        )


def _complex_embed_raw(x: np.ndarray) -> np.ndarray:
    """Complex representation of (..., m, n, beta) coefficients.

    The coefficients are laid out as numpy stores complex numbers: (re, im)
    for beta = 2, and for beta = 4 the pair (a, b) of q = a + b j, with
    a = w + x i and b = y + z i.  beta = 1, 2 give the matrix itself; beta = 4
    gives the 2m x 2n adjoint, each entry becoming the block
    [[a, b], [-conj(b), conj(a)]], which is multiplicative; its second row
    is the pair of j q (`_j_times_raw`).  A single matrix (a batch of one)
    of at most `_GATHER_MAX_ENTRIES` entries gathers the adjoint's real
    coefficients in one pass (`_adjoint_gather`); larger matrices and
    stacks take the block copies, which cost less there.
    """
    beta = x.shape[-1]
    if beta == 1:
        return x[..., 0]
    if beta == 8:
        raise OctonionMatrixError("no complex representation exists for beta = 8")
    m, n = x.shape[-3], x.shape[-2]
    if beta == 4 and m * n <= _GATHER_MAX_ENTRIES and _batch(x) == 1:
        index, signs = _adjoint_gather(m, n)
        out = np.asarray(x, dtype=np.float64).reshape(-1)[index]
        out *= signs
        return out.view(np.complex128).reshape(x.shape[:-3] + (2 * m, 2 * n))
    c = np.ascontiguousarray(x, dtype=np.float64).view(np.complex128)
    if beta == 2:
        return c[..., 0]
    out = np.empty(x.shape[:-3] + (m, 2, n, 2), dtype=np.complex128)
    out[..., 0, :, :] = c
    _j_times_raw(c, out[..., 1, :, :])
    return out.reshape(x.shape[:-3] + (2 * m, 2 * n))


# The largest single matrix that `_complex_embed_raw` gathers.  Measured on
# a 2 vCPU Xeon (numpy 2.4.6), one gather against the block copies: 0.62x
# at 6x6, 0.75x at 12x12, 1.12x at 14x14, 1.79x at 32x32.  A stack gathered
# along its last axis (np.take) embedded 1.9-2.1x slower at 500 2x3 and 40
# 8x8 matrices, so stacks keep the block copies.
_GATHER_MAX_ENTRIES = 144


@functools.cache
def _adjoint_gather(m: int, n: int) -> tuple:
    """(index, signs) of the 2m x 2n adjoint of one (m, n, 4) matrix: its
    real coefficients, laid out (m, 2, n, 4) as the adjoint's complex
    entries are, are x.reshape(-1)[index] * signs.  The block of entry
    (w, x, y, z) reads (w, x, y, z) in its first row and (-y, z, w, -x),
    the pairs of -conj(b) and conj(a), in its second; a product by -1
    flips the sign bit as negation does, so signed zeros keep their bits.
    Built on first use for each shape; the shapes `_GATHER_MAX_ENTRIES`
    admits are finitely many, at most 9 KB each."""
    entry = 4 * np.arange(m * n).reshape(m, 1, n, 1)
    index = entry + np.array([[0, 1, 2, 3], [2, 3, 0, 1]])[:, None, :]
    signs = np.array([[1.0, 1.0, 1.0, 1.0], [-1.0, 1.0, 1.0, -1.0]])[:, None, :]
    return index, signs


def _complex_unembed_raw(z: np.ndarray, beta: int) -> np.ndarray:
    """(..., m, n, beta) coefficients of a complex representation.

    For beta = 4 only the rows [a, b] of each block are read; the others
    repeat them.
    """
    if beta == 1:
        return z[..., None]
    if beta == 4:
        z = z[..., 0::2, :]
    z = np.ascontiguousarray(z, dtype=np.complex128)
    return z.view(np.float64).reshape(z.shape[:-1] + (2 * z.shape[-1] // beta, beta))


def _real_image(x: np.ndarray, hermitian: bool = False) -> np.ndarray:
    """The real image of 1x1 octonions: their coefficient rows, or Hermitian
    ones' real coefficients; any other beta's x itself.  A larger octonion
    raises OctonionMatrixError, naming its shape."""
    if x.shape[-1] != 8:
        return x
    _check_beta_shape(8, x.shape[-3], x.shape[-2])
    return x[..., :1] if hermitian else x.reshape(x.shape[:-2] + (8, 1))


def _octonion_of(y: np.ndarray, hermitian: bool = False) -> np.ndarray:
    """The (..., 1, 1, 8) octonions whose real image (`_real_image`) is y."""
    return (np.pad(y, [(0, 0)] * (y.ndim - 1) + [(0, 7)]) if hermitian
            else y.reshape(y.shape[:-2] + (1, 8)))


def _octonion_guard(kernel, x: np.ndarray, hermitian: bool = False):
    """kernel(x), the one octonion guard of the public operations: a 1x1
    octonion's kernel takes its real image, and a 1x1 result maps back."""
    out = kernel(_real_image(x, hermitian))
    return _octonion_of(out, True) if x.shape[-1] == 8 and out.ndim == x.ndim else out


def _batch(x: np.ndarray) -> int:
    """Number of matrices in a (..., rows, cols, beta) stack."""
    return math.prod(x.shape[:-3])


def _folded_matmul(z: np.ndarray, w: np.ndarray) -> np.ndarray:
    """z @ w of (..., r, k) x (..., k, c) complex representations; the
    leading axes broadcast.  A stack of z times one shared w is one product:
    the stack read as the single matrix of its rows, which the row-wise
    embedding keeps in order.  Only stacks of z with two or more rows fold,
    because numpy takes one-row products through vector kernels that round
    differently from the matrix kernel."""
    if math.prod(z.shape[:-2]) > 1 and math.prod(w.shape[:-2]) == 1 and z.shape[-2] > 1:
        lead = np.broadcast_shapes(z.shape[:-2], w.shape[:-2])
        prod = z.reshape(-1, z.shape[-1]) @ w.reshape(w.shape[-2:])
        return prod.reshape(lead + (z.shape[-2], w.shape[-1]))
    return z @ w


def _matmul_raw(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Matrix product on (..., m, k, beta) x (..., k, n, beta) arrays; the
    leading axes broadcast (`_product_raw` by b's representation)."""
    if a.shape[-2] != b.shape[-3]:
        raise ValueError(
            f"matmul dimension mismatch: {a.shape[-3]}x{a.shape[-2]} by "
            f"{b.shape[-3]}x{b.shape[-2]}"
        )
    return _product_raw(a, right=_complex_embed_raw(b))


def _identity_raw(m: int, beta: int) -> np.ndarray:
    out = np.zeros((m, m, beta))
    out[..., 0] = np.eye(m)
    return out


def _hermitize_raw(a: np.ndarray) -> np.ndarray:
    return 0.5 * (a + _conj_t_raw(a))


def _gram_raw(x: np.ndarray, left=None) -> np.ndarray:
    """The min(m, n) square gram of G = left X, symmetrized, for (..., m, n,
    beta) X and a constant left (None: G = X): G G* when m <= n, G* G for a
    tall X.  G and its gram are formed in the representation."""
    z = _represented_product(x, left)
    zt = np.conjugate(z.swapaxes(-1, -2), order="C")
    wide = x.shape[-3] <= x.shape[-2]
    return _hermitize_raw(_complex_unembed_raw(z @ zt if wide else zt @ z, x.shape[-1]))


def _stack_index(bad: np.ndarray):
    """Position of the first flagged matrix in a per-matrix mask, counted
    over the flattened leading axes; None for a single matrix (0-d mask)."""
    return None if bad.ndim == 0 else int(np.flatnonzero(bad)[0])


def _raise_at(error: type, index, what: str, problem: str):
    """Raise `error` about one matrix: "<what> <problem>" for a single
    matrix, "<what> at index i <problem>" for matrix i of a stack.  The
    position rides along as the exception's `index` (None for a single
    matrix), so a caller can map it back to its own input."""
    where = what if index is None else f"{what} at index {index}"
    exc = error(f"{where} {problem}")
    exc.index = index
    raise exc


def _refuse_non_finite(x: np.ndarray, what: str) -> None:
    """ValueError "<what> [at index i] has non-finite coefficients" for the
    first matrix of a (..., m, n, beta) stack with a NaN or inf coefficient."""
    if not np.isfinite(x).all():
        finite = np.isfinite(x).all(axis=(-3, -2, -1))
        _raise_at(ValueError, _stack_index(~finite), what, "has non-finite coefficients")


def _hermitian_part(a: np.ndarray, what: str = "matrix") -> np.ndarray:
    """(A + A*)/2 of each matrix of a (..., m, m, beta) stack, after checking
    |A - A*| <= HERMITIAN_ATOL * |A|_max coefficient-wise, against the
    matrix's own largest coefficient whatever its size; ValueError names the
    first matrix that fails.  A NaN or inf coefficient makes the gap NaN or
    inf, so it is refused too, with no warning for inf - inf."""
    at = _conj_t_raw(a)
    with np.errstate(invalid="ignore"):
        gap = np.abs(a - at)
    # An exactly Hermitian stack passes at once: the common case.  (A NaN
    # gap is true, so it goes on to be refused.)
    if not gap.any():
        return 0.5 * (a + at)
    gap = gap.max(axis=(-3, -2, -1))
    bad = ~(np.isfinite(gap) & (gap <= HERMITIAN_ATOL * _largest_coefficients(a)))
    if bad.any():
        index = _stack_index(bad)
        worst = gap if index is None else gap[index]
        if not np.isfinite(worst):
            _raise_at(ValueError, index, what, "has non-finite coefficients")
        _raise_at(ValueError, index, what,
                  f"is not Hermitian: max |A - A*| coefficient {worst:.3e}")
    return 0.5 * (a + at)


def _frobenius_sq_raw(a: np.ndarray) -> np.ndarray:
    return np.square(a).sum(axis=(-1, -2, -3))


def _cholesky_raw(a: np.ndarray) -> np.ndarray:
    """Lower-triangular L with L L* = A and real positive diagonal.

    `a` must be Hermitian, shape (..., m, m, beta); only its lower triangle
    is read.  Raises NotPositiveDefinite if a matrix of the stack is not
    positive definite or has a non-finite factor, naming the first such
    matrix by its index.
    """
    return _complex_unembed_raw(_complex_cholesky(_complex_embed_raw(a)), a.shape[-1])


def _complex_cholesky(z: np.ndarray) -> np.ndarray:
    """np.linalg.cholesky of a Hermitian complex representation, (..., k, k),
    with the guard of `_cholesky_raw`: NotPositiveDefinite names the first
    matrix that is not positive definite or has a non-finite factor."""
    try:
        lo = np.linalg.cholesky(z)
    except np.linalg.LinAlgError:
        _raise_at(NotPositiveDefinite, _first_non_pd(z),
                  "matrix", "is not positive definite")
    # LAPACK passes NaN through and factors an infinite diagonal
    if not np.isfinite(lo).all():
        finite = np.isfinite(lo).all(axis=(-2, -1))
        _raise_at(NotPositiveDefinite, _stack_index(~finite),
                  "matrix", "has a non-finite Cholesky factor")
    return lo


def _first_non_pd(z: np.ndarray):
    """Position of the first matrix of a complex stack that LAPACK refuses to
    factor (numpy's batched Cholesky raises for the whole stack); None for a
    single matrix."""
    if z.ndim == 2:
        return None
    for index, one in enumerate(z.reshape((-1,) + z.shape[-2:])):
        try:
            np.linalg.cholesky(one)
        except np.linalg.LinAlgError:
            return index


def _chol_logdet_raw(lo: np.ndarray) -> np.ndarray:
    """log det(L L*) = 2 sum_i log l_ii for a Cholesky factor L."""
    diag = np.einsum("...iik->...ik", lo)[..., 0]
    return 2.0 * np.log(diag).sum(axis=-1)


def _represented_product(a: np.ndarray, left=None, right=None) -> np.ndarray:
    """Complex representation of left a right for a (..., k, p, beta) stack
    a, beta <= 4: a is embedded once, and a right is `_folded_matmul`'s."""
    z = _complex_embed_raw(a)
    if left is not None:
        z = left @ z
    return z if right is None else _folded_matmul(z, right)


def _product_raw(a: np.ndarray, left=None, right=None) -> np.ndarray:
    """left a right of a (..., k, p, beta) stack a on the coefficients: the
    bits of `_matmul_raw(_matmul_raw(left, a), right)`, with a alone
    embedded.  A factor None is skipped, and with neither a itself is
    returned."""
    if left is None and right is None:
        return a
    return _complex_unembed_raw(_represented_product(a, left, right), a.shape[-1])


def _logdet_gram_raw(base: np.ndarray, a: np.ndarray, factor=None) -> np.ndarray:
    """log|base + g* g| of each matrix of a (..., k, p, beta) stack a, with
    g = a, or g = factor a for a (k, k) factor, and base (p, p) Hermitian
    positive definite; shared and stacked constants broadcast.  g, its Gram,
    the sum with base and its symmetrization (B + B*)/2 are formed in the
    representation and factored under `_cholesky_raw`'s guard
    (`_complex_cholesky`); the log det is read from the real parts of the
    factor's diagonal (for beta = 4 its even rows), so nothing is
    unembedded."""
    z = _represented_product(a, factor)
    b = z.conj().swapaxes(-1, -2) @ z
    del z
    # in place, so a stack holds one bracket-sized temporary at a time
    b += base
    b += b.conj().swapaxes(-1, -2)
    b *= 0.5
    lo = _complex_cholesky(b)
    diag = np.diagonal(lo, axis1=-2, axis2=-1).real
    return 2.0 * np.log(diag[..., ::2] if a.shape[-1] == 4 else diag).sum(axis=-1)


def _solve_raw(lo, b: np.ndarray, left=None, right=None, post=(None, None)) -> np.ndarray:
    """X = A^-* B C^-1 (the systems A* Y = B, then X C = Y) for B = b right,
    A = left lo and, with post = (c, c_left), C = c_left c: b is (..., m, n,
    beta), lo, c and b coefficients, left, c_left and right constants, and A
    and C lower triangular with real positive diagonals (as `_cholesky_raw`,
    `HermitianPD.chol` and the Wishart factors give them).  A None is an
    exact identity: a system without a factor is skipped, and with nothing
    to do b is returned.  The leading axes broadcast.

    One system stays in the complex representation: b, lo and c are embedded
    once and multiplied there, each system is one LAPACK solve (X C = Y as
    C* X* = Y*), and X is unembedded once.  A stack of two or more forms A,
    B and C on the coefficients (`_product_raw`) for `_substitute_raw`,
    which reads a factor's strictly lower triangle and its diagonal's real
    part in place."""
    first, second = lo is not None or left is not None, any(f is not None for f in post)
    if not (first or second or right is not None):
        return b
    if not any(_batch(x) > 1 for x in (b, lo, post[0]) if x is not None):
        adj, done = (lambda z: z.conj().swapaxes(-1, -2)), (lambda z: _complex_unembed_raw(z, b.shape[-1]))
        factor = (lambda f, g: adj(g if f is None else _represented_product(f, g)))    # A*, A = g f
        x, solve = _represented_product(b, right=right), np.linalg.solve
    else:
        def factor(f, g):       # the coefficients of A = g f
            return _product_raw(f, g) if f is not None else _complex_unembed_raw(g, b.shape[-1])
        x, solve, adj, done = _product_raw(b, right=right), _substitute_raw, _conj_t_raw, (lambda z: z)
    # both factors before either solve, so that no solved stack is alive
    # while a factor is formed
    a, c = (factor(lo, left) if first else None), (factor(*post) if second else None)
    x = solve(a, x) if first else x
    return _conj_t_raw(done(solve(c, adj(x)))) if second else done(x)


def _substitute_raw(lo: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Back substitution over the m rows of L* X = B, beta <= 4, each step
    vectorized across the broadcast stack.  Row i of X is (B_i - sum_k
    conj(L_ki) X_k) / l_ii, the sum over the rows below it from the last up.

    The arithmetic is on the coefficients: real numbers for beta = 1, complex
    for beta = 2, and for beta = 4 the interleaved complex pairs (c, d) of
    L_ki = c + d j, the view `_complex_embed_raw` reads.  Then conj(L_ki) is
    the pair (conj(c), -d), and by the doubling rule (p, s) q = p q + s (j q)
    entrywise, so it acts on a solved row of X by two complex products, the
    second with the row's j-multiple (`_j_times_raw`).  Every operation is
    elementwise, so a matrix's result does not depend on the rest of the
    stack, and a shared L simply broadcasts."""
    beta, m = lo.shape[-1], lo.shape[-3]
    lead = np.broadcast_shapes(lo.shape[:-3], b.shape[:-3])
    n = b.shape[-2]
    diag = np.diagonal(lo[..., 0], axis1=-2, axis2=-1)
    x = np.empty(lead + (m, n, beta))
    flat = x.reshape(lead + (m, n * beta))    # each row's real coefficients
    if beta == 1:
        coef, rhs, rows = lo[..., 0], b[..., 0], flat
    else:
        coef = np.ascontiguousarray(lo).view(np.complex128)
        rhs = np.ascontiguousarray(b).view(np.complex128).reshape(b.shape[:-2] + (-1,))
        rows = flat.view(np.complex128)
        if beta == 2:
            coef = coef[..., 0]
    j_rows = {}
    for i in range(m - 1, -1, -1):
        acc = rhs[..., i, :]
        for k in range(m - 1, i, -1):
            if beta == 4:
                acc = acc - np.conj(coef[..., k, i, 0, None]) * rows[..., k, :]
                acc += coef[..., k, i, 1, None] * j_rows[k]
            else:   # conj is the identity on beta = 1's real coefficients
                acc = acc - np.conj(coef[..., k, i, None]) * rows[..., k, :]
        np.divide(acc if beta == 1 else acc.view(np.float64), diag[..., i, None],
                  out=flat[..., i, :])
        if beta == 4 and i > 0:
            pairs = rows[..., i, :].reshape(lead + (n, 2))
            j_rows[i] = _j_times_raw(pairs).reshape(lead + (2 * n,))
    return x


def _j_times_raw(q: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """j q entrywise for quaternions q = c + d j given as (..., 2) complex
    pairs (c, d), the view `_complex_embed_raw` reads: the pairs
    (-conj(d), conj(c)), written into `out` (a new array by default).  Each
    half is computed into a fresh array and then copied, because numpy
    2.4.6's np.negative writes wrong values into a strided `out` when its
    input's stride is 8 elements, as a solved row's coefficients are in
    `_substitute_raw` when m n = 2."""
    out = np.empty(q.shape, np.complex128) if out is None else out
    out[..., 0] = -np.conj(q[..., 1])
    out[..., 1] = np.conj(q[..., 0])
    return out


def _hpd_inverse_raw(a: np.ndarray) -> np.ndarray:
    """Inverse of a Hermitian positive definite array, hermitized."""
    inv = np.linalg.inv(_complex_embed_raw(a))
    return _hermitize_raw(_complex_unembed_raw(inv, a.shape[-1]))


def _collapse_pairs(vals: np.ndarray) -> np.ndarray:
    """Average the coincident (Kramers) pairs of descending adjoint spectra,
    checking each matrix's pairs against its own largest |value|, whatever
    its size: max(first, -last), as the spectra descend.  A pair within the
    tolerance of its own size is within its matrix's, so that cheaper test
    passes the common case at once."""
    lead, trail = vals[..., 0::2], vals[..., 1::2]
    gap = lead - trail      # >= 0, as the spectra descend
    if (gap > PAIR_COLLAPSE_RTOL * np.abs(lead)).any():
        scale = np.maximum(vals[..., :1], -vals[..., -1:])
        if (gap > PAIR_COLLAPSE_RTOL * scale).any():
            raise ArithmeticError(
                "adjoint spectrum does not split into coincident pairs"
            )
    return 0.5 * (lead + trail)


def _singular_values_raw(x: np.ndarray) -> np.ndarray:
    """Descending singular values on (..., m, n, beta), min(m, n) each.

    A matrix with a NaN or inf coefficient is refused (ValueError naming
    it), before any LAPACK call.  A matrix with min(m, n) = 1, and a stack
    of two or more with min(m, n) = 2, take a closed form: a tall matrix is
    read as its conjugate transpose, a one-row matrix's singular value is
    the row's norm, and two rows go through `_two_row_singular_values`.
    Each matrix is first scaled by a power of two near its largest
    coefficient, which is exact and keeps sums of squares from over- or
    underflowing.  A single matrix with min(m, n) = 2 and every shape with
    min(m, n) >= 3 take LAPACK's SVD of the complex representation."""
    _refuse_non_finite(x, "matrix")
    d = min(x.shape[-3:-1])
    if not (d == 1 or (d == 2 and _batch(x) > 1)):
        s = np.linalg.svd(_complex_embed_raw(x), compute_uv=False)
        return _collapse_pairs(s) if x.shape[-1] == 4 else s
    if x.shape[-3] > x.shape[-2]:
        x = _conj_t_raw(x)
    exp = np.frexp(_largest_coefficients(x))[1]
    x = np.ldexp(x, -exp[..., None, None, None])
    if x.shape[-3] == 1:
        s = np.sqrt(_frobenius_sq_raw(x))[..., None]
    else:
        s = _two_row_singular_values(x.reshape((-1,) + x.shape[-3:]))
        s = s.reshape(x.shape[:-3] + (2,))
    return np.ldexp(s, exp[..., None])


def _largest_coefficients(x: np.ndarray) -> np.ndarray:
    """The largest |coefficient| of each matrix of a (..., m, n, beta) stack,
    as a running np.maximum over the columns of the flattened coefficients:
    numpy runs each step as one loop over the stack, where a reduction over
    the small trailing axes pays its overhead once per matrix.  One matrix
    takes one reduction."""
    if x.ndim == 3:
        return np.abs(x).max()
    flat = np.abs(x).reshape(x.shape[:-3] + (math.prod(x.shape[-3:]),))
    out = flat[..., 0].copy()
    for j in range(1, flat.shape[-1]):
        np.maximum(out, flat[..., j], out=out)
    return out


def _two_row_singular_values(x: np.ndarray) -> np.ndarray:
    """(s_max, s_min) of each matrix of an (N, 2, n, beta) stack, beta <= 4,
    whose coefficients are at most 1 in magnitude.  x is overwritten (its
    rows are reordered in place), so the caller passes a copy.

    Gram-Schmidt with one reorthogonalization pass, longer row first, writes
    X = L Q with orthonormal rows Q and L = [[l11, 0], [l21, l22]], l11 and
    l22 real.  Multiplying L's second row by conj(u) and its second column
    by u, u = l21 / |l21|, leaves the real [[f, 0], [g, h]] = [[l11, 0],
    [|l21|, l22]] with the same singular values.  Those are the closed form
    LAPACK's dlas2 evaluates (Demmel & Kahan, SIAM J. Sci. Stat. Comput. 11,
    1990); the coefficients' scale makes its overflow guards unnecessary.

    Rows are real or complex for beta = 1, 2.  For beta = 4 a row is the
    interleaved complex pairs (c, d) of its entries c + d j, the view
    `_complex_embed_raw` reads.  By the doubling rule, (p, s) q1 = p q1 +
    s k1 entrywise, where k1 holds the pairs (-conj(d), conj(c)) of q1, and
    q1, k1 are orthonormal complex vectors.  So projecting onto the
    quaternion line of q1 is projecting onto q1 and k1 over C, and
    l21 = r2 conj(q1) summed is the pair of those two coefficients.
    """
    n_mat, beta = len(x), x.shape[-1]
    flat = x.reshape(n_mat, 2, -1)
    sq = np.einsum("nil,nil->ni", flat, flat)
    swap = sq[:, 1] > sq[:, 0]
    x[swap] = x[swap, ::-1]
    rows = x[..., 0] if beta == 1 else x.view(np.complex128).reshape(n_mat, 2, -1)
    f = np.sqrt(np.maximum(sq[:, 0], sq[:, 1]))
    q1 = rows[:, 0] / np.where(f > 0.0, f, 1.0)[:, None]
    if beta == 4:
        k1 = _j_times_raw(q1.reshape(n_mat, -1, 2))
        basis = np.stack([q1, k1.reshape(q1.shape)], axis=1)
    else:
        basis = q1[:, None]
    r2 = rows[:, 1]
    # sum_l r_l conj(b_l) as conj(sum_l conj(r_l) b_l): the conjugated copy
    # is of one row, not of the whole basis
    l21 = np.einsum("nl,nkl->nk", r2.conj(), basis).conj()
    w = r2 - np.einsum("nk,nkl->nl", l21, basis)
    fix = np.einsum("nl,nkl->nk", w.conj(), basis).conj()
    w -= np.einsum("nk,nkl->nl", fix, basis)
    g, h = _norms(l21 + fix), _norms(w)
    s_max = 0.5 * (np.sqrt(np.square(f + h) + np.square(g))
                   + np.sqrt(np.square(f - h) + np.square(g)))
    s_min = f * (h / np.where(s_max > 0.0, s_max, 1.0))
    return np.stack([s_max, s_min], axis=-1)


def _norms(v: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row of a real or complex (N, L) array."""
    if np.iscomplexobj(v):
        v = v.view(np.float64)
    return np.sqrt(np.einsum("nl,nl->n", v, v))


def _eigvalsh_raw(a: np.ndarray, left=None, right=None) -> np.ndarray:
    """Descending real eigenvalues of Hermitian (..., m, m, beta), C-contiguous
    (numpy logs one matrix's as a stack's).  With constants left = M* and
    right = M, those of M* a M."""
    w = np.linalg.eigvalsh(_represented_product(a, left, right))[..., ::-1]
    return _collapse_pairs(w) if a.shape[-1] == 4 else w.copy()


# ---------------------------------------------------------------------------
# Public value types.
# ---------------------------------------------------------------------------


class DivScalar:
    """One element of R, C, H or O: beta real Cayley-Dickson coefficients."""

    __slots__ = ("tag", "coeffs")

    def __init__(self, tag: AlgebraTag, coeffs):
        tag = AlgebraTag(tag)
        arr = np.asarray(coeffs, dtype=float).reshape(-1)
        if arr.shape != (tag.beta,):
            raise ValueError(f"expected {tag.beta} coefficients, got {arr.shape}")
        arr = arr.copy()
        arr.flags.writeable = False
        object.__setattr__(self, "tag", tag)
        object.__setattr__(self, "coeffs", arr)

    def __setattr__(self, *_):
        raise AttributeError("DivScalar is immutable")

    @classmethod
    def from_real(cls, tag: AlgebraTag, value: float) -> "DivScalar":
        c = np.zeros(AlgebraTag(tag).beta)
        c[0] = value
        return cls(tag, c)

    @classmethod
    def basis(cls, tag: AlgebraTag, index: int) -> "DivScalar":
        c = np.zeros(AlgebraTag(tag).beta)
        c[index] = 1.0
        return cls(tag, c)

    @property
    def real(self) -> float:
        return float(self.coeffs[0])

    def conj(self) -> "DivScalar":
        return DivScalar(self.tag, _conj_coeffs(self.coeffs))

    def norm(self) -> float:
        return float(np.sqrt(np.dot(self.coeffs, self.coeffs)))

    def __add__(self, other: "DivScalar") -> "DivScalar":
        self._check_tag(other)
        return DivScalar(self.tag, self.coeffs + other.coeffs)

    def __sub__(self, other: "DivScalar") -> "DivScalar":
        self._check_tag(other)
        return DivScalar(self.tag, self.coeffs - other.coeffs)

    def __neg__(self) -> "DivScalar":
        return DivScalar(self.tag, -self.coeffs)

    def __mul__(self, other):
        if isinstance(other, DivScalar):
            return scalar_mul(self, other)
        return DivScalar(self.tag, self.coeffs * float(other))

    def __rmul__(self, other):
        return DivScalar(self.tag, float(other) * self.coeffs)

    def _check_tag(self, other: "DivScalar") -> None:
        if self.tag != other.tag:
            raise ValueError(f"algebra mismatch: {self.tag!r} vs {other.tag!r}")

    def isclose(self, other: "DivScalar", atol: float = 1e-12) -> bool:
        return self.tag == other.tag and bool(
            np.allclose(self.coeffs, other.coeffs, atol=atol, rtol=0.0)
        )

    def __repr__(self) -> str:
        return f"DivScalar({self.tag.name}, {self.coeffs.tolist()})"


_SCHEMA_KEYS = frozenset(("beta", "rows", "cols", "data"))
_ALGEBRAS = {tag.beta: tag for tag in AlgebraTag}


def _schema_data(obj) -> tuple:
    """(tag, coefficient array) of a schema dict, the one reader of a JSON
    matrix.  It must be a dict of exactly the keys beta, rows and cols,
    each a positive integer (also an integral float or a numpy integer, not
    a bool), beta one of 1, 2, 4 and 8, and data: nested lists of the
    declared shape of finite real numbers, not bools.  A refusal
    (ValueError) names the key."""
    if not isinstance(obj, dict):
        raise ValueError(f"a schema matrix must be a JSON object, not {type(obj).__name__}")
    if obj.keys() != _SCHEMA_KEYS:
        missing = sorted(_SCHEMA_KEYS - obj.keys())
        if missing:
            raise ValueError(f"schema key {missing[0]!r}: missing")
        raise ValueError(f"unknown schema key {sorted(obj.keys() - _SCHEMA_KEYS)[0]!r}")
    for key in ("beta", "rows", "cols"):
        value = obj[key]
        integral = type(value) is int or isinstance(value, float) and value.is_integer() or (
            isinstance(value, numbers.Integral) and not isinstance(value, bool))
        if not integral or value < 1:
            raise ValueError(f"schema key {key!r}: must be a positive integer, "
                             f"got {value!r}")
    beta, rows, cols, data = obj["beta"], obj["rows"], obj["cols"], obj["data"]
    if beta not in _ALGEBRAS:
        raise ValueError(f"schema key 'beta': must be 1, 2, 4 or 8, got {beta!r}")
    try:
        arr = np.asarray(data, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"schema key 'data': {exc}") from exc
    if arr.shape != (rows, cols, beta):
        raise ValueError(f"schema key 'data': declared {rows}x{cols} beta={beta}, "
                         f"data has shape {arr.shape}")
    # float and int are what json.loads gives; any other type is looked at
    if not {type(x) for row in data for entry in row for x in entry} <= {float, int}:
        bad = [x for row in data for entry in row for x in entry
               if isinstance(x, bool) or not isinstance(x, numbers.Real)]
        if bad:
            raise ValueError(f"schema key 'data': coefficients must be numbers, "
                             f"got {bad[0]!r}")
    if not np.isfinite(arr).all():
        raise ValueError("schema key 'data': must be finite (no NaN or inf)")
    return _ALGEBRAS[beta], arr


def _schema_template(beta: int, rows: int, cols: int) -> str:
    """%-template of one schema line: filled with a matrix's row-major
    coefficients as Python floats, it reads json.dumps(to_schema_dict()) to
    the byte (``%r`` and json write a finite float alike)."""
    entry = "[" + ", ".join(["%r"] * beta) + "]"
    row = "[" + ", ".join([entry] * cols) + "]"
    data = "[" + ", ".join([row] * rows) + "]"
    return f'{{"beta": {beta}, "rows": {rows}, "cols": {cols}, "data": {data}}}'


class DivMatrix:
    """Dense m x n matrix over a division algebra, stored as (m, n, beta)."""

    __slots__ = ("tag", "data")

    def __init__(self, tag: AlgebraTag, data):
        tag = AlgebraTag(tag)
        arr = np.asarray(data, dtype=float)
        if arr.ndim != 3 or arr.shape[2] != tag.beta:
            raise ValueError(
                f"expected an (m, n, {tag.beta}) coefficient array, got {arr.shape}"
            )
        if arr.shape[0] < 1 or arr.shape[1] < 1:
            raise ValueError("matrix dimensions must be positive")
        arr = arr.copy()
        arr.flags.writeable = False
        object.__setattr__(self, "tag", tag)
        object.__setattr__(self, "data", arr)

    def __setattr__(self, *_):
        raise AttributeError("DivMatrix is immutable")

    # -- constructors -------------------------------------------------------

    @classmethod
    def zeros(cls, tag: AlgebraTag, m: int, n: int) -> "DivMatrix":
        return cls(tag, np.zeros((m, n, AlgebraTag(tag).beta)))

    @classmethod
    def identity(cls, tag: AlgebraTag, m: int) -> "DivMatrix":
        return cls(tag, _identity_raw(m, AlgebraTag(tag).beta))

    @classmethod
    def from_real(cls, tag: AlgebraTag, array2d) -> "DivMatrix":
        """Embed a real 2-D array into coefficient 0."""
        a = np.atleast_2d(np.asarray(array2d, dtype=float))
        out = np.zeros(a.shape + (AlgebraTag(tag).beta,))
        out[..., 0] = a
        return cls(tag, out)

    # -- shape and access ---------------------------------------------------

    @property
    def m(self) -> int:
        return self.data.shape[0]

    @property
    def n(self) -> int:
        return self.data.shape[1]

    @property
    def shape(self) -> tuple:
        return (self.data.shape[0], self.data.shape[1])

    def entry(self, i: int, j: int) -> DivScalar:
        return DivScalar(self.tag, self.data[i, j])

    def real_trace(self) -> float:
        if self.m != self.n:
            raise ValueError("trace requires a square matrix")
        return float(self.data[..., 0].trace())

    def __add__(self, other: "DivMatrix") -> "DivMatrix":
        self._check_compatible(other)
        return DivMatrix(self.tag, self.data + other.data)

    def __sub__(self, other: "DivMatrix") -> "DivMatrix":
        self._check_compatible(other)
        return DivMatrix(self.tag, self.data - other.data)

    def _check_compatible(self, other: "DivMatrix") -> None:
        if self.tag != other.tag:
            raise ValueError(f"algebra mismatch: {self.tag!r} vs {other.tag!r}")
        if self.data.shape != other.data.shape:
            raise ValueError(f"shape mismatch: {self.shape} vs {other.shape}")

    def isclose(self, other: "DivMatrix", atol: float = 1e-12) -> bool:
        return (
            self.tag == other.tag
            and self.data.shape == other.data.shape
            and bool(np.allclose(self.data, other.data, atol=atol, rtol=0.0))
        )

    def __eq__(self, other) -> bool:
        """Equal tag and coefficients, so records holding matrices compare
        by value."""
        if not isinstance(other, DivMatrix):
            return NotImplemented
        return self.tag == other.tag and np.array_equal(self.data, other.data)

    def __hash__(self) -> int:
        # + 0.0 maps -0.0 to 0.0, which == holds equal
        return hash((self.tag, self.data.shape, (self.data + 0.0).tobytes()))

    # -- serialization (repo-wide JSON schema) ------------------------------

    def to_schema_dict(self) -> dict:
        return {
            "beta": int(self.tag.beta),
            "rows": self.m,
            "cols": self.n,
            "data": self.data.tolist(),
        }

    @classmethod
    def from_schema_dict(cls, obj: dict) -> "DivMatrix":
        return cls(*_schema_data(obj))

    def __repr__(self) -> str:
        return f"DivMatrix({self.tag.name}, {self.m}x{self.n})"


class HermitianPD:
    """A Hermitian positive definite matrix, validated at construction.

    The input is checked Hermitian coefficient-wise (tolerance 1e-12 scaled
    by the largest coefficient, tolerating sampler round-off), symmetrized as
    (A + A*)/2, and Cholesky-factorized eagerly; the factor is cached for
    every determinant and solve downstream.  The factors that the kernels
    multiply and solve by are cached on first use in their representation
    (`functools.cached_property`): L (`_factor_reps`) and the lower factor M
    of A^-1 = M M* (`_inverse_factor_reps`), each None when the matrix is
    exactly I (`is_identity`), so the kernels skip it, an exact copy of its
    input.  Neither cache takes part in ==, hash, repr or the schema dict.
    """

    def __init__(self, mat: DivMatrix):
        if not isinstance(mat, DivMatrix):
            raise TypeError("HermitianPD wraps a DivMatrix")
        if mat.m != mat.n:
            raise ValueError("Hermitian matrix must be square")
        _check_beta_shape(mat.tag.beta, mat.m, mat.n)
        if not np.isfinite(mat.data).all():
            raise NotPositiveDefinite("matrix has non-finite coefficients")
        sym = _hermitian_part(mat.data)
        chol = _octonion_guard(_cholesky_raw, sym, hermitian=True)  # raises NotPositiveDefinite
        object.__setattr__(self, "mat", DivMatrix(mat.tag, sym))
        object.__setattr__(self, "_chol", DivMatrix(mat.tag, chol))
        object.__setattr__(self, "_logdet", float(_chol_logdet_raw(chol)))
        object.__setattr__(self, "is_identity",
                           np.array_equal(sym, _identity_raw(mat.m, mat.tag.beta)))

    def __setattr__(self, *_):
        raise AttributeError("HermitianPD is immutable")

    @classmethod
    def identity(cls, tag: AlgebraTag, m: int) -> "HermitianPD":
        return cls(DivMatrix.identity(tag, m))

    @classmethod
    def from_real(cls, tag: AlgebraTag, array2d) -> "HermitianPD":
        return cls(DivMatrix.from_real(tag, array2d))

    @property
    def tag(self) -> AlgebraTag:
        return self.mat.tag

    @property
    def m(self) -> int:
        return self.mat.m

    @property
    def chol(self) -> DivMatrix:
        """Cached lower-triangular L with L L* equal to the wrapped matrix."""
        return self._chol

    @property
    def logdet(self) -> float:
        return self._logdet

    @staticmethod
    def _representations(lo) -> tuple:
        """(F, F*) of a lower factor F, embedded (`_complex_embed_raw`);
        (None, None) for None, an exact identity."""
        return (None, None) if lo is None else (
            _complex_embed_raw(lo), _complex_embed_raw(_conj_t_raw(lo)))

    @functools.cached_property
    def _factor_reps(self) -> tuple:
        """(L, L*) of the cached factor L, L L* = A."""
        return self._representations(None if self.is_identity else self._chol.data)

    @functools.cached_property
    def _inverse_factor_reps(self) -> tuple:
        """(M, M*) of the lower factor M of the inverse, M M* = A^-1: the
        factor alone, not a HermitianPD of A^-1, whose checks, log det and
        identity test no kernel reads."""
        return self._representations(
            None if self.is_identity else _cholesky_raw(_hpd_inverse_raw(self.mat.data)))

    def inverse(self) -> "HermitianPD":
        return HermitianPD(DivMatrix(
            self.tag, _octonion_guard(_hpd_inverse_raw, self.mat.data, hermitian=True)))

    def __eq__(self, other) -> bool:
        if not isinstance(other, HermitianPD):
            return NotImplemented
        return self.mat == other.mat

    def __hash__(self) -> int:
        return hash(self.mat)

    def to_schema_dict(self) -> dict:
        return self.mat.to_schema_dict()

    @classmethod
    def from_schema_dict(cls, obj: dict) -> "HermitianPD":
        return cls(DivMatrix.from_schema_dict(obj))

    def __repr__(self) -> str:
        return f"HermitianPD({self.tag.name}, {self.m}x{self.m})"


# ---------------------------------------------------------------------------
# Public operations.
# ---------------------------------------------------------------------------


def scalar_mul(a: DivScalar, b: DivScalar) -> DivScalar:
    """Cayley-Dickson product of two algebra elements.

    Associative for beta <= 4; for beta = 8 only alternative, so parenthesize
    deliberately when composing octonion products.
    """
    if a.tag != b.tag:
        raise ValueError(f"algebra mismatch: {a.tag!r} vs {b.tag!r}")
    return DivScalar(a.tag, _mul_coeffs(a.coeffs, b.coeffs))


def conj_transpose(x: DivMatrix) -> DivMatrix:
    return DivMatrix(x.tag, _conj_t_raw(x.data))


def matmul(a: DivMatrix, b: DivMatrix) -> DivMatrix:
    if a.tag != b.tag:
        raise ValueError(f"algebra mismatch: {a.tag!r} vs {b.tag!r}")
    if a.tag == AlgebraTag.OCTONION:    # 1x1 only: the Cayley-Dickson product
        for x in (a, b):
            _check_beta_shape(8, x.m, x.n)
        return DivMatrix(a.tag, _mul_coeffs(a.data, b.data))
    return DivMatrix(a.tag, _matmul_raw(a.data, b.data))


def cholesky_hpd(a: HermitianPD) -> DivMatrix:
    """Lower-triangular L with L L* = A and real positive diagonal."""
    return a.chol


def logdet_hpd(a: HermitianPD) -> float:
    """log of the (Moore-type, always real) determinant of a Hermitian PD matrix.

    Defined as 2 sum_i log l_ii from the Cholesky factor for every beta <= 4;
    this coincides with the Moore determinant for quaternion Hermitian
    matrices and with the ordinary determinant for beta <= 2.
    """
    return a.logdet


def complex_adjoint(x: DivMatrix) -> DivMatrix:
    """Complex representation of a matrix: identity embedding for beta <= 2,
    the multiplicative 2m x 2n block representation for beta = 4."""
    z = _complex_embed_raw(x.data)
    return DivMatrix(AlgebraTag.COMPLEX, np.stack([z.real, z.imag], axis=-1))


def singular_values(x: DivMatrix) -> np.ndarray:
    """The min(m, n) singular values in descending order.

    For beta = 4 the values come from the complex adjoint, whose spectrum
    consists of coincident pairs; each pair is reported once.  A matrix with
    a NaN or inf coefficient raises ValueError.
    """
    return _octonion_guard(_singular_values_raw, x.data)


def hermitian_eigenvalues(a) -> np.ndarray:
    """Real eigenvalues of a Hermitian matrix, descending.

    Accepts a HermitianPD or a plain Hermitian DivMatrix.  For beta = 4 the
    spectrum of the complex adjoint splits into coincident pairs; each pair
    is reported once.
    """
    mat = a.mat if isinstance(a, HermitianPD) else a
    if mat.m != mat.n:
        raise ValueError("eigenvalues require a square matrix")
    return _octonion_guard(_eigvalsh_raw, _hermitian_part(mat.data), hermitian=True)
