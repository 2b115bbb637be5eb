"""Points of the four domains and the partial Cayley transform between them.

The bounded domain is the set of symmetric complex W with I - W conj(W)
positive definite; the unbounded model is the set of symmetric Omega with
positive definite imaginary part.  The Jacobi versions append a complex row
vector (z resp. zeta).  Points within 1e-12 of the boundary are rejected so
that (I - W)^{-1} style inverses stay well conditioned.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import numkit

BOUNDARY_MARGIN = 1e-12


@dataclass(frozen=True, eq=False)
class UpperHalfPoint:
    omega: np.ndarray

    def __post_init__(self):
        om = numkit.symmetrize(self.omega)
        object.__setattr__(self, "omega", om)
        ok, lam = numkit.posdef_certificate(om.imag)
        if not ok or lam <= BOUNDARY_MARGIN:
            raise ValueError(f"Im Omega not positive definite (lambda_min={lam:.3e})")

    @property
    def n(self):
        return self.omega.shape[0]

    @property
    def x(self):
        return self.omega.real

    @property
    def y(self):
        return self.omega.imag


@dataclass(frozen=True, eq=False)
class DiskPoint:
    w: np.ndarray

    def __post_init__(self):
        w = numkit.symmetrize(self.w)
        object.__setattr__(self, "w", w)
        gram = np.eye(w.shape[0]) - w @ w.conj()
        ok, lam = numkit.posdef_certificate(gram)
        if not ok or lam <= BOUNDARY_MARGIN:
            raise ValueError(f"I - W conj(W) not positive definite (lambda_min={lam:.3e})")

    @property
    def n(self):
        return self.w.shape[0]


@dataclass(frozen=True, eq=False)
class SJSpacePoint:
    omega: np.ndarray
    zeta: np.ndarray

    def __post_init__(self):
        base = UpperHalfPoint(self.omega)
        object.__setattr__(self, "omega", base.omega)
        object.__setattr__(self, "zeta", numkit.as_row_vector(self.zeta, base.n))

    @property
    def n(self):
        return self.omega.shape[0]

    @property
    def y(self):
        return self.omega.imag

    @property
    def eta(self):
        return self.zeta.imag


@dataclass(frozen=True, eq=False)
class SJDiskPoint:
    w: np.ndarray
    z: np.ndarray

    def __post_init__(self):
        base = DiskPoint(self.w)
        object.__setattr__(self, "w", base.w)
        object.__setattr__(self, "z", numkit.as_row_vector(self.z, base.n))

    @property
    def n(self):
        return self.w.shape[0]


def cayley_forward(x: SJDiskPoint) -> SJSpacePoint:
    """(W, z) -> (Omega, zeta) = (i(I+W)(I-W)^{-1}, 2iz(I-W)^{-1})."""
    n = x.n
    eye = np.eye(n)
    inv = numkit.solve(eye - x.w, eye)
    omega = 1j * (eye + x.w) @ inv
    zeta = 2j * x.z @ inv
    return SJSpacePoint(omega, zeta)


def cayley_inverse(y: SJSpacePoint) -> SJDiskPoint:
    """(Omega, zeta) -> (W, z) = ((Omega-iI)(Omega+iI)^{-1}, zeta(Omega+iI)^{-1})."""
    n = y.n
    eye = np.eye(n)
    inv = numkit.solve(y.omega + 1j * eye, eye)
    w = (y.omega - 1j * eye) @ inv
    z = y.zeta @ inv
    return SJDiskPoint(w, z)


def batch_cayley_forward(ws, zs):
    """cayley_forward on stacked (W (N,n,n), z (N,n)), unvalidated."""
    n = ws.shape[1]
    eye = np.eye(n)
    res_t = np.transpose(eye[None] - ws, (0, 2, 1))
    oms = 1j * np.transpose(np.linalg.solve(res_t, np.transpose(eye[None] + ws, (0, 2, 1))),
                            (0, 2, 1))
    zetas = 2j * np.linalg.solve(res_t, zs[:, :, None])[:, :, 0]
    return oms, zetas


def batch_cayley_inverse(oms, zetas):
    """cayley_inverse on stacked (Omega (N,n,n), zeta (N,n)), unvalidated."""
    n = oms.shape[1]
    eye = np.eye(n)
    plus_t = np.transpose(oms + 1j * eye[None], (0, 2, 1))
    ws = np.transpose(np.linalg.solve(plus_t, np.transpose(oms - 1j * eye[None], (0, 2, 1))),
                      (0, 2, 1))
    zs = np.linalg.solve(plus_t, zetas[:, :, None])[:, :, 0]
    return ws, zs


def sample_disk_point(n, radius_cap=0.8, seed=None):
    """Random symmetric W with sigma_max(W) < radius_cap, deterministic per seed."""
    if not 0 < radius_cap < 1:
        raise ValueError("radius_cap must lie in (0, 1)")
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    m = numkit.symmetrize(m)
    smax = np.linalg.svd(m, compute_uv=False)[0]
    return DiskPoint(radius_cap * m / (1.0 + smax))


def _sample_polydisk(rng, n, cap):
    r = cap * np.sqrt(rng.random(n))
    phase = np.exp(2j * np.pi * rng.random(n))
    return r * phase


def sample_sj_disk_point(n, radius_cap=0.8, z_cap=2.0, seed=None):
    rng = np.random.default_rng(seed)
    w = sample_disk_point(n, radius_cap, rng)
    return SJDiskPoint(w.w, _sample_polydisk(rng, n, z_cap))


# --- JSON encoding: complex scalar as [re, im], matrices nested row-major ---

def complex_to_json(value):
    value = complex(value)
    return [value.real, value.imag]

def json_to_complex(pair):
    return complex(pair[0], pair[1])

def matrix_to_json(mat):
    mat = np.atleast_2d(np.asarray(mat, dtype=complex))
    return [[complex_to_json(v) for v in row] for row in mat]

def json_to_matrix(rows):
    return np.array([[json_to_complex(v) for v in row] for row in rows])

def vector_to_json(vec):
    return [complex_to_json(v) for v in numkit.as_row_vector(vec)]

def json_to_vector(items):
    return np.array([json_to_complex(v) for v in items])


def point_to_json(point):
    if isinstance(point, SJDiskPoint):
        return {"W": matrix_to_json(point.w), "z": vector_to_json(point.z)}
    if isinstance(point, SJSpacePoint):
        return {"Omega": matrix_to_json(point.omega), "zeta": vector_to_json(point.zeta)}
    if isinstance(point, DiskPoint):
        return {"W": matrix_to_json(point.w)}
    if isinstance(point, UpperHalfPoint):
        return {"Omega": matrix_to_json(point.omega)}
    raise TypeError(f"not a domain point: {type(point)!r}")


def json_to_point(obj):
    if "W" in obj and "z" in obj:
        return SJDiskPoint(json_to_matrix(obj["W"]), json_to_vector(obj["z"]))
    if "Omega" in obj and "zeta" in obj:
        return SJSpacePoint(json_to_matrix(obj["Omega"]), json_to_vector(obj["zeta"]))
    if "W" in obj:
        return DiskPoint(json_to_matrix(obj["W"]))
    if "Omega" in obj:
        return UpperHalfPoint(json_to_matrix(obj["Omega"]))
    raise ValueError("unrecognized point encoding")
