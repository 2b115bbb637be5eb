"""Automorphy factors and kernel functions for both symplectic models and
both Jacobi groups, plus the weight functions consumed by the inner products.

Each function takes one point (and element) or stacks of them, broadcast
member by member as in groups, and runs the same code on both: a stack gives
an array of values, a single point a Python number.  Points are the
validated classes of domains, SJDiskPoint and SJSpacePoint, whose
constructors certify them: the factors and kernels are defined on the
domains only.

Scalar conventions that are easy to get wrong, all pinned by the test suite:
  - theta_star is i-valued on the center, so the scalar automorphy factor on
    the bounded model carries exp(-4 pi m theta_star): on a central element
    (alpha = 0, varkappa = -i kappa / 2) this is exp(2 pi i m kappa), the
    same central character the unbounded factor produces.
  - the invariant weight on the bounded Jacobi domain carries A(-W, z), not
    A(W, z); the two versions differ by the substitution W -> -W and only
    the flipped one transforms by |factor|^2 under the action.  Both are
    exposed; kmk_star_weight keeps the plain sign.
"""

from __future__ import annotations

import numpy as np

from . import numkit
from .domains import SJDiskPoint, SJSpacePoint
from .groups import (JacobiElement, JacobiStarElement, SpElement,
                     SpStarElement, right_divide)
from .numkit import item_or_stack, transpose, vecmat, vecvec


def _factor(c, d, mat):
    # block-diag(t(den)^{-1}, den) with den = c mat + d
    den = c @ mat + d
    inv_t = numkit.solve(transpose(den), np.broadcast_to(np.eye(den.shape[-1]), den.shape))
    zero = np.zeros_like(inv_t)
    return np.block([[inv_t, zero], [zero, den]])


def _theta(center, lam, shift, c, d, mat, vec):
    # center + lam t(vec) + nu t(lam) - nu (c mat + d)^{-1} c t(nu),
    # nu = vec + lam mat + shift
    nu = vec + vecmat(lam, mat) + shift
    quad = vecvec(vecmat(right_divide(nu, c @ mat + d), c), nu)
    return item_or_stack(center + vecvec(lam, vec) + vecvec(nu, lam) - quad)


# --- factors and kernels for the two symplectic models ---

def j1(sigma: SpElement, y: SJSpacePoint) -> np.ndarray:
    """block-diag(t(c Omega + d)^{-1}, c Omega + d)."""
    return _factor(sigma.c, sigma.d, y.omega)


def k1(yp: SJSpacePoint, y: SJSpacePoint) -> np.ndarray:
    """Anti-diagonal blocks conj(Omega) - Omega' and (Omega' - conj(Omega))^{-1}."""
    diff = y.omega.conj() - yp.omega
    zero = np.zeros_like(diff)
    return np.block([[zero, diff],
                     [numkit.solve(-diff, np.broadcast_to(np.eye(diff.shape[-1]), diff.shape)), zero]])


def j1_star(omega: SpStarElement, x: SJDiskPoint) -> np.ndarray:
    """block-diag(t(conj(q) W + conj(p))^{-1}, conj(q) W + conj(p))."""
    return _factor(omega.q.conj(), omega.p.conj(), x.w)


# --- scalar factors for the two Jacobi groups ---

def theta_factor(g: JacobiElement, y: SJSpacePoint) -> complex:
    """kappa + lam t(zeta) + nu t(lam) - nu (c Omega + d)^{-1} c t(nu),
    nu = zeta + lam Omega + mu."""
    return _theta(g.h.kappa, g.h.lam, g.h.mu, g.sigma.c, g.sigma.d, y.omega, y.zeta)


def theta_star(gs: JacobiStarElement, x: SJDiskPoint) -> complex:
    """varkappa + z t(alpha) + nu t(alpha) - nu (conj(q) W + conj(p))^{-1}
    conj(q) t(nu), nu = z + alpha W + conj(alpha)."""
    return _theta(gs.varkappa, gs.alpha, gs.alpha.conj(), gs.omega.q.conj(),
                  gs.omega.p.conj(), x.w, x.z)


def k2_space(yp: SJSpacePoint, y: SJSpacePoint) -> complex:
    """-(1/2)(zeta' - conj(zeta))(Omega' - conj(Omega'))^{-1} t(zeta' - conj(zeta))."""
    diff = yp.zeta - y.zeta.conj()
    return item_or_stack(-0.5 * vecvec(right_divide(diff, yp.omega - yp.omega.conj()), diff))


def a_form(x: SJDiskPoint) -> complex:
    """(conj(z) + z conj(W)/2)(I - W conj(W))^{-1} t(z)
    + conj(z)(I - W conj(W))^{-1} W t(conj(z))/2; real and >= 0."""
    return a_polar(x, x)


def a_polar(xp: SJDiskPoint, x: SJDiskPoint) -> complex:
    wp, zp, w, z = xp.w, xp.z, x.w, x.z
    gram = np.eye(w.shape[-1]) - wp @ w.conj()
    sol = numkit.solve(gram, np.stack([zp, (wp @ z.conj()[..., None])[..., 0]], axis=-1))
    first = vecvec(z.conj() + 0.5 * vecmat(zp, w.conj()), sol[..., 0])
    second = 0.5 * vecvec(z.conj(), sol[..., 1])
    return item_or_stack(first + second)


# --- representation-level factors and kernels ---

def jmk(g: JacobiElement, y: SJSpacePoint, m, k) -> complex:
    """det(c Omega + d)^{-k} exp(2 pi i m theta)."""
    den = g.sigma.c @ y.omega + g.sigma.d
    return item_or_stack(numkit.det_power(den, -k)
                         * np.exp(2j * np.pi * m * theta_factor(g, y)))


def jmk_star(gs: JacobiStarElement, x: SJDiskPoint, m, k) -> complex:
    """det(conj(q) W + conj(p))^{-k} exp(-4 pi m theta_star).

    theta_star takes values in i R on the center, so the -4 pi m exponent is
    what reproduces the central character exp(2 pi i m kappa) and makes the
    factor a multiplicative cocycle of modulus compatible with the invariant
    weight; see the cocycle and weight-invariance suites.
    """
    den = gs.omega.q.conj() @ x.w + gs.omega.p.conj()
    return item_or_stack(numkit.det_power(den, -k)
                         * np.exp(-4.0 * np.pi * m * theta_star(gs, x)))


def kmk_weight(y: SJSpacePoint, m, k) -> float:
    """exp(4 pi m eta Y^{-1} t(eta)) (det Y)^k with Y = Im Omega, eta = Im zeta."""
    yim, eta = y.omega.imag, y.zeta.imag
    quad = vecvec(numkit.solve(yim, eta[..., None])[..., 0], eta).real
    return item_or_stack(np.exp(4.0 * np.pi * m * quad) * np.real(numkit.det_power(yim, k)))


def hj_inner_weight(y: SJSpacePoint, m, k) -> float:
    """(det Y)^k exp(-4 pi m eta Y^{-1} t(eta)): the weight the unbounded-model
    inner product integrates against (it decays in eta and carries the +k
    determinant power that matches the bounded side through the transform)."""
    return kmk_weight(y, -m, k)


def kmk_kernel(yp: SJSpacePoint, y: SJSpacePoint, m, k) -> complex:
    """det((i/2) conj(Omega) - (i/2) Omega')^{-k} exp(2 pi i m K2)."""
    det_part = numkit.det_power(0.5j * y.omega.conj() - 0.5j * yp.omega, -k)
    return item_or_stack(det_part * np.exp(2j * np.pi * m * k2_space(yp, y)))


def kmk_star_weight(x: SJDiskPoint, m, k) -> float:
    """det(I - W conj(W))^{-k} exp(8 pi m A(W, z)): the kernel diagonal."""
    return item_or_stack(np.real(kmk_star_kernel(x, x, m, k)))


def kmk_star_weight_flipped(x: SJDiskPoint, m, k) -> float:
    """det(I - W conj(W))^{-k} exp(8 pi m A(-W, z)): the action-invariant
    variant (the plain one transforms with an extra z-independent factor)."""
    return kmk_star_weight(SJDiskPoint(-x.w, x.z), m, k)


def kmk_star_kernel(xp: SJDiskPoint, x: SJDiskPoint, m, k) -> complex:
    """det(I - W' conj(W))^{-k} exp(8 pi m A(W', z'; W, z))."""
    gram = np.eye(x.n) - xp.w @ x.w.conj()
    return item_or_stack(numkit.det_power(gram, -k) * np.exp(8.0 * np.pi * m * a_polar(xp, x)))


def weight_diagnostics(y: SJSpacePoint, m, k) -> dict:
    """Compare the printed weight, the kernel diagonal, and the weight the
    inner product actually uses; they disagree by det-power sign and a
    factor 2 in the exponent, so all three are reported side by side."""
    diag = kmk_kernel(y, y, m, k)
    lit = kmk_weight(y, m, k)
    used = hj_inner_weight(y, m, k)
    return {
        "kernel_diagonal": complex(diag),
        "weight_printed": lit,
        "weight_used": used,
        "diagonal_over_printed": complex(diag) / lit,
    }
