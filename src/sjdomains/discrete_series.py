"""Discrete-series layer: the twisted group actions on function spaces over
the bounded and unbounded models, and the transfer map between them.  The
checks of the identities they satisfy are suites (the module suites).

Functions that are not polynomials (transported and composite ones) are
SampledFunctions, families of quad's evaluation protocol like the
PolyFamily; pointwise values are a batch of one.  Each operator takes one
family, checks its side once when built, and returns a family of the same
length.  The transfer t_star uses the packaging under which t_inv is an
exact pointwise inverse.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import domains, groups, kernels, numkit, quad
from .domains import SJDiskPoint, SJSpacePoint


@dataclass(frozen=True)
class SampledFunction:
    """A function, or a family of `size` functions, on one of the two models
    ('disk' or 'space').

    split maps stacked points (mats (N,n,n), vecs (N,n)) of that model to
    (vals, logs), the value being vals * exp(logs): transported functions
    carry a growing real exponent that integration weights cancel, and
    keeping it apart lets integrators sum exponents before exp.  The vals
    are (size, N) and the members share the (N,) logs.
    """

    split: object
    side: str
    size: int = 1

    def __len__(self):
        return self.size

    def __call__(self, point):
        """Values at one point or at each point of a stack, an SJDiskPoint
        or an SJSpacePoint of this function's side.  A one-member family has
        the shape of the stack, a larger one a leading axis of its members;
        TypeError for anything else."""
        if isinstance(point, SJDiskPoint):
            side, mat, vec = "disk", point.w, point.z
        elif isinstance(point, SJSpacePoint):
            side, mat, vec = "space", point.omega, point.zeta
        else:
            raise TypeError("a point is an SJDiskPoint or an SJSpacePoint, not a "
                            + type(point).__name__)
        quad.require_side(self, side)
        vals, logs = self.split(mat.reshape((-1,) + mat.shape[-2:]),
                                vec.reshape(-1, vec.shape[-1]))
        members = () if self.size == 1 else (self.size,)
        return numkit.item_or_stack((vals * np.exp(logs)).reshape(members + mat.shape[:-2]))


# --- representation operators ---
# g may be one element or a stack aligned with the evaluation points.

def pi_star_apply(gs, psi, m: float, k) -> SampledFunction:
    """x -> jmk_star(g*, x) psi(g* . x) for each member of the disk-side
    family psi: the bounded-model operator applied to the inverse group
    element."""
    quad.require_side(psi, "disk")

    def split(ws, zs):
        x = SJDiskPoint(ws, zs)
        gx = groups.act_sj_disk(gs, x)
        vals, logs = psi.split(gx.w, gx.z)
        return kernels.jmk_star(gs, x, m, k) * (vals * np.exp(logs)), np.zeros(len(logs))

    return SampledFunction(split, "disk", size=len(psi))


def pi_apply(g, phi, m: float, k) -> SampledFunction:
    """y -> jmk(g, y) phi(g . y) for each member of the space-side family
    phi: the unbounded-model operator applied to the inverse group element."""
    quad.require_side(phi, "space")

    def split(oms, zetas):
        y = SJSpacePoint(oms, zetas)
        gy = groups.act_sj_space(g, y)
        vals, logs = phi.split(gy.omega, gy.zeta)
        return kernels.jmk(g, y, m, k) * (vals * np.exp(logs)), np.zeros(len(logs))

    return SampledFunction(split, "space", size=len(phi))


# --- transfer between the models ---

def t_star(psi, m: float, k) -> SampledFunction:
    """Transfer a bounded-model function to the unbounded model:
    phi(Omega, zeta) = psi(W, z) det(I-W)^k exp(4 pi m z (I-W)^{-1} t(z))
    with (W, z) the preimage of (Omega, zeta) under the forward chart.

    psi is a disk-side family (a PolyFamily, say): the inverse chart,
    det(I-W)^k and the exponent are computed once for all its members, which
    share them as the logs of a transported family of the same size.  The
    exponent's solve and det(I-W) come from one elimination of t(I-W) over
    the stack (numkit.eliminate)."""
    quad.require_side(psi, "disk")

    def split(oms, zetas):
        ws, zs = domains.batch_cayley_inverse(oms, zetas)
        eye = np.eye(ws.shape[-1])
        sol, lu = numkit.eliminate(numkit.transpose(eye - ws), zs[:, :, None])
        quad_terms = np.einsum("bi,bi->b", zs, sol[:, :, 0])
        vals, logs = psi.split(ws, zs)
        mant = vals * numkit.lu_det(lu) ** k * np.exp(4j * np.pi * m * quad_terms.imag)
        return mant, logs + 4.0 * np.pi * m * quad_terms.real

    return SampledFunction(split, "space", size=len(psi))


def t_inv(phi, m: float, k) -> SampledFunction:
    """Inverse transfer:
    psi(W, z) = phi(Omega, zeta) det(I-i Omega)^k exp(2 pi m zeta (I-i Omega)^{-1} t(zeta)) / 2^{nk}
    with (Omega, zeta) the forward-chart image of (W, z), for each member of
    the space-side family phi.  The 2^{-nk} normalization makes the round
    trip exactly the identity (the det factors compose to det(2 I)^k).  The
    exponent's solve and det(I-i Omega) come from one elimination of
    t(I-i Omega), whose Hermitian part I + Im Omega is positive definite
    (numkit.eliminate)."""
    quad.require_side(phi, "space")

    def split(ws, zs):
        n = ws.shape[-1]
        eye = np.eye(n)
        scale = 2.0 ** (-n * k)
        oms, zetas = domains.batch_cayley_forward(ws, zs)
        sol, lu = numkit.eliminate(numkit.transpose(eye - 1j * oms), zetas[:, :, None])
        quad_terms = np.einsum("bi,bi->b", zetas, sol[:, :, 0])
        vals, logs = phi.split(oms, zetas)
        mant = vals * numkit.lu_det(lu) ** k * np.exp(2j * np.pi * m * quad_terms.imag) * scale
        return mant, logs + 2.0 * np.pi * m * quad_terms.real

    return SampledFunction(split, "disk", size=len(phi))
