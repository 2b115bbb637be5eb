"""Dense complex linear algebra helpers and multi-index bookkeeping.

Matrices are plain numpy complex arrays.  Symmetric matrices are stored in
full square form but always passed through symmetrize() so that t(M) == M
holds exactly (shared upper triangle).  Multi-indices s are tuples of ints;
a symmetric index a (a natural symmetric matrix indexing a monomial in the
entries of a symmetric W) is a small frozen dataclass over its stored upper
triangle, so that it can key polynomial terms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg
from scipy.linalg import lapack

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


def as_square(A):
    A = np.asarray(A, dtype=complex)
    if A.ndim == 0:
        A = A.reshape(1, 1)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
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


def symmetrize(M):
    """Mirror the upper triangle so that t(M) == M exactly."""
    M = as_square(M)
    return np.triu(M) + np.triu(M, 1).T


def solve(A, B):
    """Solve A X = B, guarding against ill conditioning.

    One LU factorization gives the solve and the guard: it raises
    SingularMatrixError when the factorization meets an exactly zero pivot,
    and IllConditionedError (carrying the condition estimate) when the LAPACK
    1-norm condition estimate exceeds COND_GUARD.
    """
    A = as_square(A)
    B = np.asarray(B, dtype=complex)
    lu, piv, info = lapack.zgetrf(A)
    if info > 0:
        raise SingularMatrixError(f"matrix is exactly singular (zero pivot {info})")
    rcond, _ = lapack.zgecon(lu, np.linalg.norm(A, 1), norm="1")
    cond = 1.0 / rcond if rcond > 0 else np.inf
    if cond > COND_GUARD:
        raise IllConditionedError(
            f"condition estimate {cond:.3e} exceeds guard {COND_GUARD:.1e}",
            cond_estimate=cond)
    x, _ = lapack.zgetrs(lu, piv, B)
    return x


def inv(A):
    return solve(A, np.eye(A.shape[0] if hasattr(A, "shape") else 1))


def posdef_certificate(H, threshold=POSDEF_THRESHOLD):
    """Return (is positive definite, smallest eigenvalue) for Hermitian H."""
    H = as_square(H)
    scale = max(1.0, float(np.max(np.abs(H))))
    if np.max(np.abs(H - H.conj().T)) > HERMITIAN_TOL * scale:
        raise NotHermitianError("matrix is not Hermitian within 1e-12")
    w = np.linalg.eigvalsh(0.5 * (H + H.conj().T))
    lam_min = float(w[0])
    return lam_min > threshold, lam_min


def principal_logdet(A):
    """log det A on the principal branch (imaginary part in (-pi, pi])."""
    A = as_square(A)
    sign, logabs = np.linalg.slogdet(A)
    if sign == 0 or not np.isfinite(logabs):
        raise SingularMatrixError("singular matrix in principal_logdet")
    return complex(logabs, float(np.angle(sign)))


def det_power(A, alpha):
    """det(A)^alpha via the principal branch of the logarithm."""
    return np.exp(alpha * principal_logdet(A))


def matrix_exp(A):
    A = as_square(A)
    return scipy.linalg.expm(A)


def mi_total(s):
    return int(sum(s))


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
    """Index pairs (i, j), i <= j, row-major; the storage order for
    symmetric matrices and symmetric indices."""
    return [(i, j) for i in range(n) for j in range(i, n)]


@dataclass(frozen=True)
class SymIndex:
    """Symmetric matrix of naturals, upper triangle stored row-major.

    Indexes monomials W^a = prod_{i<=j} W_ij^{a_ij}.
    """

    n: int
    upper: tuple

    def __post_init__(self):
        expect = self.n * (self.n + 1) // 2
        if len(self.upper) != expect:
            raise ValueError(f"need {expect} upper entries, got {len(self.upper)}")
        if any((not isinstance(v, int)) or v < 0 for v in self.upper):
            raise ValueError("entries must be naturals")

    @classmethod
    def zero(cls, n):
        return cls(n, (0,) * (n * (n + 1) // 2))

    @classmethod
    def from_full(cls, mat):
        mat = np.asarray(mat)
        n = mat.shape[0]
        if not np.array_equal(mat, mat.T):
            raise ValueError("not symmetric")
        return cls(n, tuple(int(mat[i, j]) for i, j in upper_pairs(n)))

    def full(self):
        a = np.zeros((self.n, self.n), dtype=int)
        for (i, j), v in zip(upper_pairs(self.n), self.upper):
            a[i, j] = v
            a[j, i] = v
        return a

    def entry(self, i, j):
        if i > j:
            i, j = j, i
        return self.upper[_upper_offset(self.n, i, j)]

    def total(self):
        # |a| = sum over the full matrix
        return int(self.full().sum())


def _upper_offset(n, i, j):
    # row-major offset of (i, j), i <= j, in the stacked upper triangle
    return i * n - i * (i - 1) // 2 + (j - i)
