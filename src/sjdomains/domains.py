"""Points of the two Siegel-Jacobi domains and the partial Cayley transform
between them.

The Siegel-Jacobi disk holds the points (W, z): a symmetric complex W with
I - W conj(W) positive definite and a complex row vector z.  The
Siegel-Jacobi space holds the points (Omega, zeta): a symmetric Omega with
positive definite imaginary part and a complex row vector zeta.  Each model
has one point class, SJDiskPoint resp. SJSpacePoint, and every function
defined on a domain takes its points as that class: the constructor is the
one place where a point is certified.  Points within 1e-12 of the boundary
are rejected so that (I - W)^{-1} style inverses stay well conditioned.

Every point class holds one point or a stack of them (a leading axis on each
field): the constructor symmetrizes and certifies the whole stack at once
with one batched eigvalsh, and stack[i] is a member, not validated again.
The chart functions work on both; a single point is the stack with no
leading axis.  cayley_forward / cayley_inverse validate (the condition of
the matrix they invert and, through the constructor, the image);
batch_cayley_forward / batch_cayley_inverse are the same arithmetic on raw
arrays, unvalidated, which the transfer operators (discrete_series.t_star
and t_inv) run on the stacked points they are split at.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import numkit


def _certify(h, what):
    """ValueError unless every member of the Hermitian stack h is positive
    definite with smallest eigenvalue above numkit.POSDEF_THRESHOLD."""
    ok, lam = numkit.posdef_certificate(h)
    if not np.all(ok):
        raise ValueError(f"{what} not positive definite (lambda_min={np.min(lam):.3e})")


@dataclass(frozen=True, eq=False)
class SJSpacePoint(numkit.Stack):
    omega: np.ndarray
    zeta: np.ndarray

    def __post_init__(self):
        om = numkit.symmetrize(self.omega)
        _certify(om.imag, "Im Omega")
        object.__setattr__(self, "omega", om)
        object.__setattr__(self, "zeta", numkit.row_vectors(self.zeta, om))

    @property
    def n(self):
        return self.omega.shape[-1]


@dataclass(frozen=True, eq=False)
class SJDiskPoint(numkit.Stack):
    w: np.ndarray
    z: np.ndarray

    def __post_init__(self):
        w = numkit.symmetrize(self.w)
        _certify(np.eye(w.shape[-1]) - w @ w.conj(), "I - W conj(W)")
        object.__setattr__(self, "w", w)
        object.__setattr__(self, "z", numkit.row_vectors(self.z, w))

    @property
    def n(self):
        return self.w.shape[-1]


def cayley_forward(x: SJDiskPoint) -> SJSpacePoint:
    """(W, z) -> (Omega, zeta) = (i(I+W)(I-W)^{-1}, 2iz(I-W)^{-1}), for a
    point or a stack; guards the condition of I - W."""
    numkit.condition_guard(np.eye(x.n) - x.w)
    return SJSpacePoint(*batch_cayley_forward(x.w, x.z))


def cayley_inverse(y: SJSpacePoint) -> SJDiskPoint:
    """(Omega, zeta) -> (W, z) = ((Omega-iI)(Omega+iI)^{-1}, zeta(Omega+iI)^{-1}),
    for a point or a stack; guards the condition of Omega + iI."""
    numkit.condition_guard(y.omega + 1j * np.eye(y.n))
    return SJDiskPoint(*batch_cayley_inverse(y.omega, y.zeta))


def batch_cayley_forward(ws, zs):
    """The forward chart on arrays W (..., n, n), z (..., n); unvalidated.
    W is symmetric, so (I+W)(I-W)^{-1} = (I-W)^{-1}(I+W) and t(z (I-W)^{-1})
    = (I-W)^{-1} t(z): one elimination of I - W, whose Hermitian part is
    positive definite for sigma_max(W) < 1, solves for both at once."""
    n = ws.shape[-1]
    eye = np.eye(n)
    x = numkit.eliminate(eye - ws, np.concatenate([eye + ws, zs[..., :, None]], axis=-1))[0]
    return 1j * x[..., :n], 2j * x[..., n]


def batch_cayley_inverse(oms, zetas):
    """The inverse chart on arrays Omega (..., n, n), zeta (..., n);
    unvalidated.  As in the forward chart, Omega is symmetric, so one
    elimination of Omega + iI (-i times it has Hermitian part I + Im Omega)
    with right-hand sides [Omega - iI | t(zeta)] gives W and z."""
    n = oms.shape[-1]
    eye = 1j * np.eye(n)
    x = numkit.eliminate(oms + eye, np.concatenate([oms - eye, zetas[..., :, None]], axis=-1))[0]
    return x[..., :n], x[..., n]


def _draw_w(rng, n, count, radius_cap):
    """count symmetric W from rng, sigma_max(W) < radius_cap; unvalidated."""
    if not 0 < radius_cap < 1:
        raise ValueError("radius_cap must lie in (0, 1)")
    shape = (count, n, n)
    m = numkit.symmetrize(rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    smax = np.linalg.svd(m, compute_uv=False)[:, 0]
    return radius_cap * m / (1.0 + smax)[:, None, None]


def sample_sj_disk_batch(n, count, seed, radius_cap=0.8, z_cap=2.0) -> SJDiskPoint:
    """A stack of count points (W, z), sigma_max(W) < radius_cap and z in
    the polydisk of radius z_cap, validated once.  One generator, seeded by
    any entropy default_rng takes, draws the stack with one array call each:
    the real then imaginary normals of W, then the radii then the phases of
    z; a batch of one is sample_sj_disk_point at the same seed."""
    rng = np.random.default_rng(seed)
    ws = _draw_w(rng, n, count, radius_cap)
    r = z_cap * np.sqrt(rng.random((count, n)))
    return SJDiskPoint(ws, r * np.exp(2j * np.pi * rng.random((count, n))))


def sample_sj_disk_point(n, radius_cap=0.8, z_cap=2.0, *, seed):
    return sample_sj_disk_batch(n, 1, seed, radius_cap, z_cap)[0]

