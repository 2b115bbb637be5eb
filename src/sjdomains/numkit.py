"""Dense complex linear algebra helpers and multi-index bookkeeping.

Matrices are plain numpy complex arrays, one matrix (n, n) or a stack
(..., n, n) with leading axes; every helper here runs the same code on both.
Symmetric matrices are stored in full square form but always passed through
symmetrize() so that t(M) == M holds exactly (shared upper triangle).
Multi-indices s are tuples of ints.  A symmetric index a (a natural
symmetric matrix indexing the monomial W^a in the entries of a symmetric W)
is the tuple of its upper entries in upper_pairs order, the form in which it
keys polynomial terms.

Two kinds of solver live here.  solve and condition_guard take general
matrices, check their condition and call LAPACK.  eliminate is Gaussian
elimination without pivoting vectorized over a stack, for the small
matrices of the stacked charts and transfer operators, where a batched
LAPACK call per member costs more than the arithmetic: it solves, and its
pivots give the determinant (lu_det) and, on a real SPD matrix, the
Cholesky factor (spd_cholesky).
Skipping the pivoting is safe on exactly the matrices it is given: each has
a positive definite Hermitian part once multiplied by a unit scalar, so
every Schur complement does too and no pivot can vanish.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

COND_GUARD = 1e12
POSDEF_THRESHOLD = 1e-12
HERMITIAN_TOL = 1e-12


class SingularMatrixError(np.linalg.LinAlgError):
    pass


class IllConditionedError(np.linalg.LinAlgError):
    def __init__(self, msg, cond_estimate=None):
        super().__init__(msg)
        self.cond_estimate = cond_estimate


class NotHermitianError(ValueError):
    pass


class Stack:
    """Mixin for the frozen point and element dataclasses, whose fields carry
    an optional leading stack axis: stack[idx] is the member (or sub-stack)
    idx, taken as it is, since the stack was validated when it was built."""

    def __getitem__(self, idx):
        out = object.__new__(type(self))
        for field in dataclasses.fields(self):
            object.__setattr__(out, field.name, getattr(self, field.name)[idx])
        return out

    @classmethod
    def of(cls, members):
        """The stack of a sequence of members, built (and validated) as one."""
        return cls(*(np.stack([getattr(m, field.name) for m in members])
                     for field in dataclasses.fields(cls)))


def item_or_stack(value):
    """A 0-d result as a Python number, a stacked one as its array."""
    value = np.asarray(value)
    return value.item() if value.ndim == 0 else value


def as_square(A):
    """A complex square matrix, or a stack of them (..., n, n)."""
    A = np.asarray(A, dtype=complex)
    if A.ndim == 0:
        A = A.reshape(1, 1)
    if A.ndim < 2 or A.shape[-1] != A.shape[-2]:
        raise ValueError(f"expected a square matrix, got shape {A.shape}")
    if not (np.all(np.isfinite(A.real)) and np.all(np.isfinite(A.imag))):
        raise ValueError("non-finite entries")
    return A


def as_row_vector(z, n=None):
    # row-vector convention everywhere (z, zeta, lambda, mu, alpha)
    z = np.atleast_1d(np.asarray(z, dtype=complex)).reshape(-1)
    if n is not None and z.shape[0] != n:
        raise ValueError(f"expected a vector of length {n}, got {z.shape[0]}")
    return z


def row_vectors(v, mats):
    """v as the row vectors that go with the square matrices mats: a flat
    (n,) vector for one matrix, shape (..., n) matching a stack."""
    if np.ndim(mats) == 2:
        return as_row_vector(v, mats.shape[-1])
    v = np.asarray(v, dtype=complex)
    if v.shape != mats.shape[:-1]:
        raise ValueError(f"expected vectors of shape {mats.shape[:-1]}, got {v.shape}")
    return v


def transpose(M):
    """t(M) of each member of a stack."""
    return np.swapaxes(M, -1, -2)


def vecmat(v, M):
    """Row vector times matrix, v M, for one pair or stacks of them."""
    return (v[..., None, :] @ M)[..., 0, :]


def vecvec(u, v):
    """u t(v) (no conjugation) for row vectors, one pair or stacks of them."""
    return (u[..., None, :] @ v[..., :, None])[..., 0, 0]


def symmetrize(M):
    """Mirror the upper triangle so that t(M) == M exactly."""
    M = as_square(M)
    return np.triu(M) + transpose(np.triu(M, 1))


def condition_guard(A):
    """Raise unless every member of A has a 1-norm condition number
    ||A||_1 ||A^{-1}||_1 of at most COND_GUARD: SingularMatrixError when a
    member is exactly singular (its LU factorization meets a zero pivot),
    IllConditionedError carrying the largest condition number otherwise."""
    cond = float(np.max(np.linalg.cond(as_square(A), 1)))
    if np.isinf(cond):
        raise SingularMatrixError("matrix is exactly singular")
    if not cond <= COND_GUARD:
        raise IllConditionedError(
            f"condition number {cond:.3e} exceeds guard {COND_GUARD:.1e}",
            cond_estimate=cond)


def solve(A, B):
    """Solve A X = B for one matrix or a stack, after condition_guard(A).

    B is one vector (n,), or matrices (..., n, k) matching A's stack; a
    stack of vectors is passed as (..., n, 1)."""
    A = as_square(A)
    condition_guard(A)
    return np.linalg.solve(A, np.asarray(B, dtype=complex))


def eliminate(a, b):
    """Gaussian elimination without pivoting on every member of a stack at
    once: (x, lu) with a x = b, for a (..., n, n) and right-hand sides b
    (..., n, k).  lu is the compact factorization a = L U: the multipliers
    of the unit lower L below the diagonal, U on and above it, so the
    pivots are its diagonal (lu_det, spd_cholesky).  The loop runs over the
    n columns; each step is one array operation on the whole stack, where
    numpy's batched solvers make one LAPACK call per member.

    Unvalidated, and only for matrices whose pivots cannot vanish: those
    with a positive definite Hermitian part, after multiplying by a unit
    scalar where needed (I - W for sigma_max(W) < 1; -i(Omega + iI) and
    I - i Omega, with Hermitian part I + Im Omega; Im Omega; real SPD
    covariances).  Each Schur complement of such a matrix keeps that
    property, so every pivot has a positive real part, and the elimination
    is backward stable without pivoting (Golub and Van Loan, Linear Algebra
    Appl. 28 (1979); Higham, Accuracy and Stability of Numerical
    Algorithms, 2002, section 10.4)."""
    # the matrix axes go first, in fresh C-ordered copies, so that each entry
    # is one contiguous array over the stack
    dtype = np.result_type(a, b, float)
    first = (-2, -1) + tuple(range(np.ndim(a) - 2))
    lu = np.array(np.transpose(a, first), dtype=dtype, order="C")
    x = np.array(np.transpose(b, first), dtype=dtype, order="C")
    n = lu.shape[0]
    for k in range(n - 1):
        # (column * row) / pivot keeps a symmetric Schur complement exactly
        # symmetric
        lu[k + 1:, k + 1:] -= lu[k + 1:, k, None] * lu[None, k, k + 1:] / lu[k, k]
        lu[k + 1:, k] /= lu[k, k]
        x[k + 1:] -= lu[k + 1:, k, None] * x[None, k]
    for k in reversed(range(n)):
        x[k] /= lu[k, k]
        x[:k] -= lu[:k, k, None] * x[None, k]
    last = tuple(range(2, lu.ndim)) + (0, 1)
    return np.transpose(x, last), np.transpose(lu, last)


def lu_det(lu):
    """det a, the product of the pivots of eliminate(a, b)."""
    return np.prod(np.diagonal(lu, axis1=-2, axis2=-1), axis=-1)


def spd_cholesky(a):
    """The lower Cholesky factor of each real symmetric positive definite
    member of a, L diag(pivots)^(1/2) from the elimination a = L U."""
    # in place on the elimination's own copy: the factor is the only array
    # the size of the stack
    low = eliminate(a, a[..., :0])[1]
    root = np.sqrt(np.diagonal(low, axis1=-2, axis2=-1))
    rows, cols = np.triu_indices(low.shape[-1])
    low[..., rows, cols] = 0.0
    low *= root[..., None, :]
    low[..., range(low.shape[-1]), range(low.shape[-1])] = root
    return low


def posdef_certificate(H):
    """(is positive definite, smallest eigenvalue) for a Hermitian matrix,
    or per member of a stack; positive definite means a smallest eigenvalue
    above POSDEF_THRESHOLD.  NotHermitianError when a member departs from
    Hermitian by more than HERMITIAN_TOL relative to max(1, its largest
    entry)."""
    H = as_square(H)
    Hh = transpose(H).conj()
    scale = np.maximum(1.0, np.max(np.abs(H), axis=(-2, -1)))
    if np.any(np.max(np.abs(H - Hh), axis=(-2, -1)) > HERMITIAN_TOL * scale):
        raise NotHermitianError("matrix is not Hermitian within 1e-12")
    lam_min = np.linalg.eigvalsh(0.5 * (H + Hh))[..., 0]
    return item_or_stack(lam_min > POSDEF_THRESHOLD), item_or_stack(lam_min)


def principal_logdet(A):
    """log det A on the principal branch (imaginary part in (-pi, pi])."""
    A = as_square(A)
    sign, logabs = np.linalg.slogdet(A)
    if np.any(sign == 0) or not np.all(np.isfinite(logabs)):
        raise SingularMatrixError("singular matrix in principal_logdet")
    return item_or_stack(logabs + 1j * np.angle(sign))


def det_power(A, alpha):
    """det(A)^alpha via the principal branch of the logarithm."""
    return np.exp(alpha * principal_logdet(A))


# the [13/13] Pade coefficients of exp, and the largest 1-norm at which they
# reach double precision (Higham, SIAM J. Matrix Anal. Appl. 26 (2005) 1179)
_PADE13 = (64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
           1187353796428800.0, 129060195264000.0, 10559470521600.0, 670442572800.0,
           33522128640.0, 1323241920.0, 40840800.0, 960960.0, 16380.0, 182.0, 1.0)
_THETA13 = 5.371920351148152


def matrix_exp(A):
    """exp(A) for one matrix or a stack, by [13/13] Pade scaling and
    squaring: each member is scaled by its own 2^-s into 1-norm <= theta_13,
    approximated, and squared s times, so a member of a stack gets the same
    result as on its own."""
    A = as_square(A)
    norm = np.max(np.sum(np.abs(A), axis=-2), axis=-1)
    s = np.maximum(0, np.frexp(norm / _THETA13)[1])  # 2^(s - 1) <= norm / theta < 2^s
    A = A / (2.0 ** s)[..., None, None]
    b = _PADE13
    eye = np.eye(A.shape[-1])
    a2 = A @ A
    a4 = a2 @ a2
    a6 = a4 @ a2
    u = A @ (a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2)
             + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * eye)
    v = a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2) + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * eye
    r = np.linalg.solve(v - u, v + u)
    for step in range(int(np.max(s, initial=0))):
        sq = s > step
        r[sq] = r[sq] @ r[sq]
    return r


def mi_factorial(s):
    out = 1
    for si in s:
        out *= math.factorial(si)
    return out


def enumerate_multiindices(n, max_total):
    """All s in N^n with |s| <= max_total, graded lexicographic order."""
    out = []
    for total in range(max_total + 1):
        out.extend(_fixed_total(n, total))
    return out


def _fixed_total(n, total):
    if n == 1:
        return [(total,)]
    out = []
    for first in range(total + 1):
        for rest in _fixed_total(n - 1, total - first):
            out.append((first,) + rest)
    return out


def upper_pairs(n):
    """Index pairs (i, j), i <= j, row-major; the storage order of the
    upper entries of a symmetric matrix and of the W-exponents of a
    polynomial term."""
    return [(i, j) for i in range(n) for j in range(i, n)]
