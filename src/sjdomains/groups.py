"""Group elements, products, the block-model isomorphism, and all actions.

Five groups: the real symplectic group (blocks a, b, c, d), its bounded
counterpart (complex blocks p, q), the Heisenberg group (lam, mu, kappa),
and the two semidirect products built on them.  The isomorphism theta_iso
carries the real model to the bounded one; its compatibility with the two
multiplication laws is part of the test suite, not assumed.

Every element class holds one element or a stack of them (a leading axis on
each field), and every product, inverse, theta and action runs the same code
on both, broadcasting an element against a stack of points or two stacks
member by member.  The constructors check the symplectic and bounded-model
relations (GROUP_TOL) and the imaginary varkappa once per stack; actions
return points whose constructors certify the whole image stack.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import numkit
from .domains import SJDiskPoint, SJSpacePoint
from .numkit import transpose, vecmat, vecvec

GROUP_TOL = 1e-10


def symplectic_j(n):
    j = np.zeros((2 * n, 2 * n))
    j[:n, n:] = np.eye(n)
    j[n:, :n] = -np.eye(n)
    return j


def right_divide(A, M):
    """A M^{-1} for matrices M (one or a stack); A is a row vector (or a
    stack of them) when it has fewer axes than M, else a matrix."""
    A = np.asarray(A, dtype=complex)
    if A.ndim < M.ndim:
        return numkit.solve(transpose(M), A[..., None])[..., 0]
    return transpose(numkit.solve(transpose(M), transpose(A)))


def _real_vectors(v):
    return np.atleast_1d(np.asarray(v, dtype=complex).real)


@dataclass(frozen=True, eq=False)
class SpElement(numkit.Stack):
    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    d: np.ndarray

    def __post_init__(self):
        for name in ("a", "b", "c", "d"):
            blk = np.atleast_2d(np.asarray(getattr(self, name), dtype=float))
            object.__setattr__(self, name, blk)
        m = self.as_matrix()
        j = symplectic_j(self.n)
        if np.max(np.abs(transpose(m) @ j @ m - j)) > GROUP_TOL:
            raise ValueError("blocks do not satisfy the symplectic relation")

    @property
    def n(self):
        return self.a.shape[-1]

    def as_matrix(self):
        return np.block([[self.a, self.b], [self.c, self.d]])

    @classmethod
    def from_matrix(cls, m):
        n = m.shape[-1] // 2
        return cls(m[..., :n, :n], m[..., :n, n:], m[..., n:, :n], m[..., n:, n:])

    @classmethod
    def identity(cls, n):
        eye, zero = np.eye(n), np.zeros((n, n))
        return cls(eye, zero, zero, eye)


@dataclass(frozen=True, eq=False)
class SpStarElement(numkit.Stack):
    p: np.ndarray
    q: np.ndarray

    def __post_init__(self):
        p = np.atleast_2d(np.asarray(self.p, dtype=complex))
        q = np.atleast_2d(np.asarray(self.q, dtype=complex))
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "q", q)
        eye = np.eye(self.n)
        qh = transpose(q).conj()
        r1 = transpose(p) @ p.conj() - qh @ q - eye
        r2 = transpose(p) @ q.conj() - qh @ p
        if max(np.max(np.abs(r1)), np.max(np.abs(r2))) > GROUP_TOL:
            raise ValueError("blocks do not satisfy the bounded-model relations")

    @property
    def n(self):
        return self.p.shape[-1]

    def as_matrix(self):
        return np.block([[self.p, self.q], [self.q.conj(), self.p.conj()]])

    @classmethod
    def identity(cls, n):
        return cls(np.eye(n), np.zeros((n, n)))


@dataclass(frozen=True, eq=False)
class HeisenbergElement(numkit.Stack):
    lam: np.ndarray
    mu: np.ndarray
    kappa: float

    def __post_init__(self):
        lam, mu = _real_vectors(self.lam), _real_vectors(self.mu)
        if lam.shape != mu.shape:
            raise ValueError("lam and mu must have the same length")
        object.__setattr__(self, "lam", lam)
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "kappa", numkit.item_or_stack(np.asarray(self.kappa, dtype=float)))

    @property
    def n(self):
        return self.lam.shape[-1]

    @classmethod
    def identity(cls, n):
        return cls(np.zeros(n), np.zeros(n), 0.0)


@dataclass(frozen=True, eq=False)
class JacobiElement(numkit.Stack):
    sigma: SpElement
    h: HeisenbergElement

    def __post_init__(self):
        if self.sigma.n != self.h.n:
            raise ValueError("dimension mismatch between blocks")

    @property
    def n(self):
        return self.sigma.n

    @classmethod
    def identity(cls, n):
        return cls(SpElement.identity(n), HeisenbergElement.identity(n))


@dataclass(frozen=True, eq=False)
class JacobiStarElement(numkit.Stack):
    omega: SpStarElement
    alpha: np.ndarray
    varkappa: complex

    def __post_init__(self):
        object.__setattr__(self, "alpha", numkit.row_vectors(self.alpha, self.omega.p))
        vk = np.asarray(self.varkappa, dtype=complex)
        if np.any(np.abs(vk.real) > 1e-12):
            raise ValueError("varkappa must be purely imaginary")
        object.__setattr__(self, "varkappa", numkit.item_or_stack(vk))

    @property
    def n(self):
        return self.omega.n

    @classmethod
    def identity(cls, n):
        return cls(SpStarElement.identity(n), np.zeros(n), 0.0)


# --- products and inverses ---

def sp_mul(s1: SpElement, s2: SpElement) -> SpElement:
    return SpElement.from_matrix(s1.as_matrix() @ s2.as_matrix())


def sp_inv(s: SpElement) -> SpElement:
    # inverse of a symplectic block matrix: (ta, tb; tc, td) -> (td, -tb; -tc, ta)
    return SpElement(transpose(s.d), -transpose(s.b), -transpose(s.c), transpose(s.a))


def sp_star_mul(w1: SpStarElement, w2: SpStarElement) -> SpStarElement:
    p = w1.p @ w2.p + w1.q @ w2.q.conj()
    q = w1.p @ w2.q + w1.q @ w2.p.conj()
    return SpStarElement(p, q)


def sp_star_inv(w: SpStarElement) -> SpStarElement:
    return SpStarElement(transpose(w.p).conj(), -transpose(w.q))


def heisenberg_mul(h: HeisenbergElement, h2: HeisenbergElement) -> HeisenbergElement:
    if h.n != h2.n:
        raise ValueError("dimension mismatch")
    kappa = h.kappa + h2.kappa + (vecvec(h.lam, h2.mu) - vecvec(h.mu, h2.lam))
    return HeisenbergElement(h.lam + h2.lam, h.mu + h2.mu, kappa)


def _transport(lam, mu, sigma: SpElement):
    # row 2n-vector (lam, mu) times the block matrix, split back into halves
    row = vecmat(np.concatenate([lam, mu], axis=-1), sigma.as_matrix())
    n = sigma.n
    return row[..., :n], row[..., n:]


def jacobi_mul(g: JacobiElement, g2: JacobiElement) -> JacobiElement:
    if g.n != g2.n:
        raise ValueError("dimension mismatch")
    lam_t, mu_t = _transport(g.h.lam, g.h.mu, g2.sigma)
    h = heisenberg_mul(HeisenbergElement(lam_t, mu_t, g.h.kappa), g2.h)
    return JacobiElement(sp_mul(g.sigma, g2.sigma), h)


def jacobi_inv(g: JacobiElement) -> JacobiElement:
    sinv = sp_inv(g.sigma)
    lam_t, mu_t = _transport(g.h.lam, g.h.mu, sinv)
    return JacobiElement(sinv, HeisenbergElement(-lam_t, -mu_t, -g.h.kappa))


def _star_transport(alpha, w: SpStarElement):
    # alpha p + conj(alpha) conj(q)
    return vecmat(alpha, w.p) + vecmat(alpha.conj(), w.q.conj())


def jacobi_star_mul(g1: JacobiStarElement, g2: JacobiStarElement) -> JacobiStarElement:
    """Product g1 g2; the translation part of g1 is transported by g2's
    matrix blocks (beta = alpha1 p2 + conj(alpha1) conj(q2))."""
    if g1.n != g2.n:
        raise ValueError("dimension mismatch")
    beta = _star_transport(g1.alpha, g2.omega)
    vk = g1.varkappa + g2.varkappa + (vecvec(beta, g2.alpha.conj())
                                      - vecvec(beta.conj(), g2.alpha))
    return JacobiStarElement(sp_star_mul(g1.omega, g2.omega), beta + g2.alpha, vk)


def jacobi_star_inv(g: JacobiStarElement) -> JacobiStarElement:
    winv = sp_star_inv(g.omega)
    return JacobiStarElement(winv, -_star_transport(g.alpha, winv), -g.varkappa)


# --- the isomorphism between the two models ---

def theta_iso(g: JacobiElement) -> JacobiStarElement:
    a, b, c, d = g.sigma.a, g.sigma.b, g.sigma.c, g.sigma.d
    p = 0.5 * (a + d) + 0.5j * (b - c)
    q = 0.5 * (a - d) - 0.5j * (b + c)
    alpha = 0.5 * (g.h.lam + 1j * g.h.mu)
    varkappa = -0.5j * np.asarray(g.h.kappa)
    return JacobiStarElement(SpStarElement(p, q), alpha, varkappa)


def theta_inv(gs: JacobiStarElement) -> JacobiElement:
    p, q = gs.omega.p, gs.omega.q
    a = (p + q).real
    c = -(p + q).imag
    d = (p - q).real
    b = (p - q).imag
    lam = 2.0 * gs.alpha.real
    mu = 2.0 * gs.alpha.imag
    kappa = -2.0 * np.imag(gs.varkappa)
    return JacobiElement(SpElement(a, b, c, d), HeisenbergElement(lam, mu, kappa))


# --- actions ---

def act_sj_space(g: JacobiElement, x: SJSpacePoint) -> SJSpacePoint:
    sigma, h = g.sigma, g.h
    den = sigma.c @ x.omega + sigma.d
    om = right_divide(sigma.a @ x.omega + sigma.b, den)
    nu = x.zeta + vecmat(h.lam, x.omega) + h.mu
    return SJSpacePoint(om, right_divide(nu, den))


def act_sj_disk(gs: JacobiStarElement, x: SJDiskPoint) -> SJDiskPoint:
    p, q = gs.omega.p, gs.omega.q
    den = q.conj() @ x.w + p.conj()
    w = right_divide(p @ x.w + q, den)
    nu = x.z + vecmat(gs.alpha, x.w) + gs.alpha.conj()
    return SJDiskPoint(w, right_divide(nu, den))


# --- seeded random elements ---

def random_jacobi_batch(n, count, seed, scale=0.5) -> JacobiElement:
    """A stack of count random Jacobi elements: sigma = exp(J S) with S
    random real symmetric (in the group up to roundoff), then (lam, mu,
    kappa).  One generator, seeded by any entropy default_rng takes, draws
    the stack with one array call each for S, (lam, mu) and kappa; a batch
    of one is random_jacobi at the same seed."""
    rng = np.random.default_rng(seed)
    s = scale * rng.standard_normal((count, 2 * n, 2 * n))
    lam_mu = scale * rng.standard_normal((count, 2, n))
    kappa = scale * rng.standard_normal(count)
    sigma = numkit.matrix_exp(symplectic_j(n) @ numkit.symmetrize(s).real).real
    return JacobiElement(SpElement.from_matrix(sigma),
                         HeisenbergElement(lam_mu[:, 0], lam_mu[:, 1], kappa))


def random_jacobi(n, scale=0.5, *, seed) -> JacobiElement:
    return random_jacobi_batch(n, 1, seed, scale)[0]
