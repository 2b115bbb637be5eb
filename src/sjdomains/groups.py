"""Group elements, products, the block-model isomorphism, and all actions.

Five groups: the real symplectic group (blocks a, b, c, d), its bounded
counterpart (complex blocks p, q), the Heisenberg group (lam, mu, kappa),
and the two semidirect products built on them.  The isomorphism theta_iso
carries the real model to the bounded one; its compatibility with the two
multiplication laws is part of the test suite, not assumed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import numkit
from .domains import (SJDiskPoint, SJSpacePoint, matrix_to_json, vector_to_json,
                      json_to_matrix, json_to_vector, complex_to_json,
                      json_to_complex)

GROUP_TOL = 1e-10


def symplectic_j(n):
    j = np.zeros((2 * n, 2 * n))
    j[:n, n:] = np.eye(n)
    j[n:, :n] = -np.eye(n)
    return j


def right_divide(A, M):
    """A M^{-1} for a matrix or row vector A."""
    A = np.asarray(A, dtype=complex)
    if A.ndim == 1:
        return numkit.solve(M.T, A)
    return numkit.solve(M.T, A.T).T


@dataclass(frozen=True, eq=False)
class SpElement:
    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    d: np.ndarray

    def __post_init__(self):
        for name in ("a", "b", "c", "d"):
            blk = np.asarray(getattr(self, name), dtype=float)
            blk = np.atleast_2d(blk)
            object.__setattr__(self, name, blk)
        m = self.as_matrix()
        j = symplectic_j(self.n)
        if np.max(np.abs(m.T @ j @ m - j)) > GROUP_TOL:
            raise ValueError("blocks do not satisfy the symplectic relation")

    @property
    def n(self):
        return self.a.shape[0]

    def as_matrix(self):
        return np.block([[self.a, self.b], [self.c, self.d]])

    @classmethod
    def from_matrix(cls, m):
        n = m.shape[0] // 2
        return cls(m[:n, :n], m[:n, n:], m[n:, :n], m[n:, n:])

    @classmethod
    def identity(cls, n):
        eye, zero = np.eye(n), np.zeros((n, n))
        return cls(eye, zero, zero, eye)


@dataclass(frozen=True, eq=False)
class SpStarElement:
    p: np.ndarray
    q: np.ndarray

    def __post_init__(self):
        p = np.atleast_2d(np.asarray(self.p, dtype=complex))
        q = np.atleast_2d(np.asarray(self.q, dtype=complex))
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "q", q)
        eye = np.eye(self.n)
        r1 = p.T @ p.conj() - q.conj().T @ q - eye
        r2 = p.T @ q.conj() - q.conj().T @ p
        if max(np.max(np.abs(r1)), np.max(np.abs(r2))) > GROUP_TOL:
            raise ValueError("blocks do not satisfy the bounded-model relations")

    @property
    def n(self):
        return self.p.shape[0]

    def as_matrix(self):
        return np.block([[self.p, self.q], [self.q.conj(), self.p.conj()]])

    @classmethod
    def identity(cls, n):
        return cls(np.eye(n), np.zeros((n, n)))


@dataclass(frozen=True, eq=False)
class HeisenbergElement:
    lam: np.ndarray
    mu: np.ndarray
    kappa: float

    def __post_init__(self):
        lam = numkit.as_row_vector(self.lam).real.astype(float)
        mu = numkit.as_row_vector(self.mu).real.astype(float)
        if lam.shape != mu.shape:
            raise ValueError("lam and mu must have the same length")
        object.__setattr__(self, "lam", lam)
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "kappa", float(self.kappa))

    @property
    def n(self):
        return self.lam.shape[0]

    @classmethod
    def identity(cls, n):
        return cls(np.zeros(n), np.zeros(n), 0.0)


@dataclass(frozen=True, eq=False)
class JacobiElement:
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
class JacobiStarElement:
    omega: SpStarElement
    alpha: np.ndarray
    varkappa: complex

    def __post_init__(self):
        object.__setattr__(self, "alpha", numkit.as_row_vector(self.alpha, self.omega.n))
        vk = complex(self.varkappa)
        if abs(vk.real) > 1e-12:
            raise ValueError("varkappa must be purely imaginary")
        object.__setattr__(self, "varkappa", vk)

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
    return SpElement(s.d.T, -s.b.T, -s.c.T, s.a.T)


def sp_star_mul(w1: SpStarElement, w2: SpStarElement) -> SpStarElement:
    p = w1.p @ w2.p + w1.q @ w2.q.conj()
    q = w1.p @ w2.q + w1.q @ w2.p.conj()
    return SpStarElement(p, q)


def sp_star_inv(w: SpStarElement) -> SpStarElement:
    return SpStarElement(w.p.conj().T, -w.q.T)


def heisenberg_mul(h: HeisenbergElement, h2: HeisenbergElement) -> HeisenbergElement:
    if h.n != h2.n:
        raise ValueError("dimension mismatch")
    kappa = h.kappa + h2.kappa + float(h.lam @ h2.mu - h.mu @ h2.lam)
    return HeisenbergElement(h.lam + h2.lam, h.mu + h2.mu, kappa)


def _transport(lam, mu, sigma: SpElement):
    # row 2n-vector (lam, mu) times the block matrix, split back into halves
    row = np.concatenate([lam, mu]) @ sigma.as_matrix()
    n = sigma.n
    return row[:n], row[n:]


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


def jacobi_star_mul(g1: JacobiStarElement, g2: JacobiStarElement) -> JacobiStarElement:
    """Product g1 g2; the translation part of g1 is transported by g2's
    matrix blocks (beta = alpha1 p2 + conj(alpha1) conj(q2))."""
    if g1.n != g2.n:
        raise ValueError("dimension mismatch")
    beta = g1.alpha @ g2.omega.p + g1.alpha.conj() @ g2.omega.q.conj()
    vk = g1.varkappa + g2.varkappa + (beta @ g2.alpha.conj() - beta.conj() @ g2.alpha)
    return JacobiStarElement(sp_star_mul(g1.omega, g2.omega), beta + g2.alpha, vk)


def jacobi_star_inv(g: JacobiStarElement) -> JacobiStarElement:
    winv = sp_star_inv(g.omega)
    beta = g.alpha @ winv.p + g.alpha.conj() @ winv.q.conj()
    return JacobiStarElement(winv, -beta, -g.varkappa)


# --- the isomorphism between the two models ---

def theta_iso(g: JacobiElement) -> JacobiStarElement:
    a, b, c, d = g.sigma.a, g.sigma.b, g.sigma.c, g.sigma.d
    p = 0.5 * (a + d) + 0.5j * (b - c)
    q = 0.5 * (a - d) - 0.5j * (b + c)
    alpha = 0.5 * (g.h.lam + 1j * g.h.mu)
    varkappa = -0.5j * g.h.kappa
    return JacobiStarElement(SpStarElement(p, q), alpha, varkappa)


def theta_inv(gs: JacobiStarElement) -> JacobiElement:
    p, q = gs.omega.p, gs.omega.q
    a = (p + q).real
    c = -(p + q).imag
    d = (p - q).real
    b = (p - q).imag
    lam = 2.0 * gs.alpha.real
    mu = 2.0 * gs.alpha.imag
    kappa = -2.0 * gs.varkappa.imag
    return JacobiElement(SpElement(a, b, c, d), HeisenbergElement(lam, mu, kappa))


# --- actions ---

def act_sj_space(g: JacobiElement, x: SJSpacePoint) -> SJSpacePoint:
    sigma, h = g.sigma, g.h
    den = sigma.c @ x.omega + sigma.d
    om = right_divide(sigma.a @ x.omega + sigma.b, den)
    nu = x.zeta + h.lam @ x.omega + h.mu
    return SJSpacePoint(om, right_divide(nu, den))


def act_sj_disk(gs: JacobiStarElement, x: SJDiskPoint) -> SJDiskPoint:
    p, q = gs.omega.p, gs.omega.q
    den = q.conj() @ x.w + p.conj()
    w = right_divide(p @ x.w + q, den)
    nu = x.z + gs.alpha @ x.w + gs.alpha.conj()
    return SJDiskPoint(w, right_divide(nu, den))


# --- seeded random elements ---

def random_sp(n, scale=0.5, seed=None) -> SpElement:
    """exp(J S) with S random real symmetric; lands in the group up to roundoff."""
    rng = np.random.default_rng(seed)
    s = scale * numkit.symmetrize(rng.standard_normal((2 * n, 2 * n))).real
    return SpElement.from_matrix(numkit.matrix_exp(symplectic_j(n) @ s).real)


def random_heisenberg(n, scale=0.5, seed=None) -> HeisenbergElement:
    rng = np.random.default_rng(seed)
    lam, mu = scale * rng.standard_normal((2, n))
    return HeisenbergElement(lam, mu, scale * rng.standard_normal())


def random_jacobi(n, scale=0.5, seed=None) -> JacobiElement:
    rng = np.random.default_rng(seed)
    return JacobiElement(random_sp(n, scale, rng), random_heisenberg(n, scale, rng))


def random_jacobi_star(n, scale=0.5, seed=None) -> JacobiStarElement:
    return theta_iso(random_jacobi(n, scale, seed))


# --- JSON encodings ---

def sp_to_json(s: SpElement):
    return {k: matrix_to_json(getattr(s, k)) for k in ("a", "b", "c", "d")}

def json_to_sp(obj) -> SpElement:
    return SpElement(*(json_to_matrix(obj[k]).real for k in ("a", "b", "c", "d")))

def jacobi_to_json(g: JacobiElement):
    out = sp_to_json(g.sigma)
    out.update(lam=vector_to_json(g.h.lam), mu=vector_to_json(g.h.mu), kappa=g.h.kappa)
    return out

def json_to_jacobi(obj) -> JacobiElement:
    h = HeisenbergElement(json_to_vector(obj["lam"]).real,
                          json_to_vector(obj["mu"]).real, obj["kappa"])
    return JacobiElement(json_to_sp(obj), h)

def jacobi_star_to_json(g: JacobiStarElement):
    return {"p": matrix_to_json(g.omega.p), "q": matrix_to_json(g.omega.q),
            "alpha": vector_to_json(g.alpha),
            "varkappa": complex_to_json(g.varkappa)}

def json_to_jacobi_star(obj) -> JacobiStarElement:
    return JacobiStarElement(SpStarElement(json_to_matrix(obj["p"]), json_to_matrix(obj["q"])),
                             json_to_vector(obj["alpha"]), json_to_complex(obj["varkappa"]))
