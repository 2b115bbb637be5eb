"""Quadrature layer: exact moments of complex Gaussian weights, the exact
and the seeded Monte Carlo Gram for the weighted inner product on the
bounded domain, and finite-difference Jacobian helpers.

The Gaussian weight exp(-8 pi m A(W, z)) of the Fock spaces has one
closed-form law for one W or a stack of them: E[z t(z)] = -W / (8 pi m),
E[z z^*] = I / (8 pi m) and the integral (8 m)^{-n} det(I - W conj(W))^{1/2}
(_z_moments).  Every exact z-integral is Wick's rule on that law, one Wick
factor E[z^s conj(z)^r] = (B diag(lam) B^H)[s, r] with E[z^v] = P_v(0, E[z
t(z)]) from the P_s recurrence at Z = 0 (_wick_factor).  It runs in the ring
of E[z t(z)]: numbers at one W (fock_gram, whose entries include the
generating-series pairing), or polynomials in W at the W-monomials, which a
polynomial family's Wick coefficients read, one table per pairing
(_wick_coefficients).  exact_dj_gram contracts each with the exact W-Gram
of q_basis's measure at every n.  The checks of the Gaussian's integral
read the form's real matrix off kernels.a_form instead (a_form_matrix).

The Monte Carlo Gram, mc_dj_gram, runs at n = 1 on a PolyFamily only.  Its
z-integral is exact too, and so is the integral over the angle of w
(_exact_z_kernel): what is left is a polynomial in t = |w|^2 under the
radial law of q_basis's measure (1 - |w|^2)^{k - 5/2} dLeb(w).  Only t is
drawn (_draw_radial), from that law itself, so every sample has the same
weight.  It draws blocks of _BLOCK samples in place into a workspace of the
powers t^1..t^D, adds the real power sums of t up to 2 D as row sums and
dot products (_radial_sums), and contracts the Gram once at the end.  Every
engine takes one family and makes each member a row of one Gram, so a check
draws its samples once and reads its inner products off that Gram.

Real coordinates are always ordered (Re z_1..Re z_n, Im z_1..Im z_n); for
matrix charts, (Re W_ij upper row-major, Im W_ij, Re z, Im z).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from . import fockpoly, kernels, numkit
from .domains import SJDiskPoint, SJSpacePoint
from .fockpoly import PolyFamily


# --- the closed-form z-law and its exact moments ---

def _z_moments(ws, m):
    """E[z t(z)] = c = -W / (8 pi m) and E[z z^*] = d I, d = 1 / (8 pi m),
    of the z-law exp(-8 pi m A(W, z)) / Z given each W."""
    d = 1.0 / (8.0 * math.pi * m)
    return -d * ws, d


def _digit_key(exps, base):
    """(digits, pos): key(e) = e @ digits reads an exponent row e as base-`base`
    digits, so keys add and subtract as the rows do while the digits stay in
    [0, base), and pos[key(e)] is the row of e in exps."""
    digits = base ** np.arange(exps.shape[1])
    pos = np.zeros(base ** exps.shape[1], dtype=int)
    pos[exps @ digits] = np.arange(len(exps))
    return digits, pos


def _wick_factor(c, d, degree):
    """(B, lam) with E[z^s conj(z)^r] = (B diag(lam) B^H)[s, r] for a centred
    Gaussian z with E[z t(z)] = c and E[z z^*] = d I (d a scalar), over
    enumerate_multiindices(n, degree): Wick's rule with u pairings across the
    two sides gives B[s, u] = C(s, u) E[z^(s - u)] and lam[u] = u! d^|u|, and
    E[z^v] = P_v(0, c) (fockpoly.p_s_values) is an exact zero at odd |v|.
    B lives in c's ring: numbers at one W, or polynomials in W (_wick_coefficients)."""
    n = c.shape[-1]
    exps = np.array(numkit.enumerate_multiindices(n, degree))
    moments = np.array([*fockpoly.p_s_values([c.flat[0] * 0] * n, c.tolist(), degree).values()])
    # C(s, u) = 0 for any u but u <= s, where key(s) - key(u) = key(s - u)
    digits, pos = _digit_key(exps, degree + 1)
    key = exps @ digits
    binom = np.array([[math.comb(a, b) for b in range(degree + 1)] for a in range(degree + 1)])
    below = math.prod(binom[e[:, None], e[None]] for e in exps.T)
    lam = np.array([numkit.mi_factorial(u) for u in exps]) * d ** exps.sum(axis=1)
    return below * moments[pos[np.maximum(key[:, None] - key[None], 0)]], lam


def a_form_matrix(w, m) -> np.ndarray:
    """The real (2n, 2n) matrix Q with x^T Q x = 8 pi m A(W, z) at
    x = (Re z, Im z), polarized from kernels.a_form, the one implementation
    of A: Q_uv = (f(u + v) - f(u) - f(v)) / 2 on the unit vectors, with
    f(2u) = 4 f(u).  The checks of the integral pi^n det(Q)^{-1/2} read it,
    not the z-law they check."""
    n = np.shape(w)[-1]
    units = np.eye(2 * n)
    xs = (units[:, None] + units[None]).reshape(-1, 2 * n)
    x = SJDiskPoint(np.broadcast_to(w, (len(xs), n, n)), xs[:, :n] + 1j * xs[:, n:])
    f = 8.0 * math.pi * m * np.real(kernels.a_form(x)).reshape(2 * n, 2 * n)
    half = np.diagonal(f) / 4.0
    return (f - half[:, None] - half[None]) / 2.0


# --- Fock inner products and the calibration constant ---

def fock_gram(family: PolyFamily, w, m) -> np.ndarray:
    """Gram matrix of a family of z-polynomials in the fixed-W Fock space:
    prefactor (8 pi m)^n det(I - W conj(W))^{-1/2} pi^{-n} times the
    integrals of f_i conj(f_j) exp(-8 pi m A(W, z)) dLeb(z).  The prefactor
    is the reciprocal of the Gaussian's integral, so the Gram is exactly
    (A B) diag(lam) (A B)^H, with (B, lam) the z-law's Wick factor and A the
    family's coefficients: A B sums the rows of B at the family's
    monomials.  Raises ValueError on a family with a W term or of another n
    than W's.

    The constant (8 pi m)^n is the one that makes the basis orthonormal; the
    reference constant (2 pi m)^n is off by the ratio calibrate_norms
    reports."""
    n = np.shape(w)[-1]
    if n != family.n:
        raise ValueError(f"fock_gram at a W of n = {n} of a family of n = {family.n}")
    exps = family.exponents
    if exps[:, n:].any():
        raise ValueError("fock_gram needs z-only polynomials")
    degree = int(exps.sum(axis=1).max(initial=0))
    pos = {s: p for p, s in enumerate(numkit.enumerate_multiindices(n, degree))}
    factor, lam = _wick_factor(*_z_moments(numkit.symmetrize(w), m), degree)
    coef = family.coeffs @ factor[[pos[tuple(s)] for s in exps[:, :n].tolist()]]
    return (coef * lam) @ coef.conj().T


def calibrate_norms(n: int, m) -> dict:
    """Numerically determine the constant c_n(m) that gives the constant
    function norm 1 at W = 0, c pi^{-n} integral exp(-8 pi m A(0, z)) dLeb(z)
    = c det(Q)^{-1/2} = 1 with Q from a_form_matrix, and report it against
    (2 pi m)^n."""
    constant = float(math.sqrt(np.linalg.det(a_form_matrix(np.zeros((n, n)), m))))
    reference = float((2.0 * math.pi * m) ** n)
    return {"constant": constant, "reference_constant": reference,
            "ratio": constant / reference,
            "closed_form": float((8.0 * math.pi * m) ** n)}


# --- the exact Jacobi-disk Gram of polynomial families ---

def _wick_coefficients(family: PolyFamily, m):
    """(tables, monos) with E[f_i conj(f_j) | W] =
    sum_u lam_u B_i^u(W) conj(B_j^u(W)) under the z-law of each W.  For
    f_i = sum_s z^s A_i[s](W), B_i^u = sum_s A_i[s] B[s, u], with (B, lam)
    the Wick factor of the z-law of the W-monomials: each B[s, u] a
    polynomial in W.  Each pairing u has one table (lam_u, members, coeffs):
    the members i whose B_i^u is nonzero, and their coefficients (monomial,
    member) over the W-monomials monos, every one of degree <= D, D the
    largest |a| + |s| // 2 of the family's z^s W^a; real for a family with
    real coefficients."""
    n = family.n
    zexp, wexp = family.exponents[:, :n], family.exponents[:, n:]
    zdeg = int(zexp.sum(axis=1).max(initial=0))
    deg = int((wexp.sum(axis=1) + zexp.sum(axis=1) // 2).max(initial=0))
    monos = numkit.enumerate_multiindices(_upper_dim(n), deg)
    factor, lam = _wick_factor(*_z_moments(np.array(fockpoly._w_monomials(n)), m), zdeg)
    # a W-monomial times a term of B[s, u] stays in monos: keys add
    digits, pos = _digit_key(np.array(monos), deg + 1)
    coeffs = family.coeffs if family.coeffs.imag.any() else family.coeffs.real
    # the W-keys and coefficients (column, member) of the family's columns
    # z^s W^a, grouped by s in the order of B's rows
    zs = numkit.enumerate_multiindices(n, zdeg)
    groups = [(wexp[c] @ digits, coeffs[:, c].T) for c in (np.all(zexp == s, axis=1) for s in zs)]
    tables = []
    for u, lam_u in enumerate(lam):
        table = np.zeros((len(monos), len(family)), dtype=coeffs.dtype)
        for (keys, block), poly in zip(groups, factor[:, u]):
            # the columns of one s have distinct a, so each term of B[s, u]
            # lands on distinct monomials, in one update
            for e, c in poly.terms.items():
                table[pos[keys + np.dot(e[n:], digits)]] += c * block
        members = np.flatnonzero(table.any(axis=0))
        tables.append((lam_u, members, table[:, members]))
    return tables, monos


def exact_dj_gram(family: PolyFamily, m, k) -> np.ndarray:
    """The Gram that mc_dj_gram estimates at n = 1, without sampling and at
    every n.  The z-integral is Wick's rule (_wick_coefficients) and leaves
    the W-weight (8 pi m)^{-n} det(I - W conj(W))^{k - n - 3/2}, the measure
    of q_basis.
    Its orthonormal q_a span the B_i^u: with B_i^u = sum_a x[i, u, a] q_a,
    G_ij = (8 pi m)^{-n} sum_{u,a} lam_u x[i, u, a] conj(x[j, u, a]).  One
    linear system per pairing's table gives its x, on the coefficients of
    the q_a, the Cholesky factors of Hua's blocks mass inv(K_d), so no
    matrix is inverted.  Like q_basis, it refuses k <= n + 1/2.

    The tables hold only the nonzero B_i^u (953 of the 560 x 20 of the
    series family at n = 3, k = 4); a family with real coefficients has real
    B_i^u and a real G, and runs in real arithmetic."""
    tables, monos = _wick_coefficients(family, m)
    # q_basis's family chains every W-monomial of degree <= D, in monos' order
    basis = PolyFamily(fockpoly.q_basis(family.n, k, sum(monos[-1]))).coeffs.real.T
    gram = np.zeros((len(family),) * 2, dtype=tables[0][2].dtype)
    for lam_u, members, table in tables:
        coords = (np.linalg.solve(basis, table) * np.sqrt(lam_u)).T
        gram[np.ix_(members, members)] += coords @ coords.conj().T
    return gram / (8.0 * math.pi * m) ** family.n


# --- the Monte Carlo engine ---

@dataclass(frozen=True)
class MCConfig:
    samples: int = 100000
    seed: int = 0


def _exact_z_kernel(family: PolyFamily, m):
    """n = 1: K (nf, nf, D + 1) with the angle average of E[f_i conj(f_j) | w]
    under the z-law of mc_dj_gram equal to sum_a K[i, j, a] t^a, t = |w|^2.
    Each Wick table (_wick_coefficients; monos w^0..w^D) contracts to a
    polynomial in w and conj(w), and the average of w^a conj(w)^b over the
    angle of w is 0 unless a = b, so only the diagonal of each contraction
    is kept."""
    tables, monos = _wick_coefficients(family, m)
    kern = np.zeros((len(family), len(family), len(monos)), dtype=complex)
    for lam_u, members, table in tables:
        kern[np.ix_(members, members)] += np.einsum("ai,aj->ija", lam_u * table, table.conj())
    return kern


def _draw_radial(rng, out, k):
    """Fill out (a contiguous float row) in place with draws of t = |w|^2 for
    w from the probability measure proportional to (1 - |w|^2)^{k - 5/2}
    dLeb(w) on the unit disk: s = 1 - t has density (k - 3/2) s^{k - 5/2},
    so s = U^{1/(k - 3/2)} for U uniform, one uniform per draw."""
    rng.random(out=out)
    np.power(out, 1.0 / (k - 1.5), out=out)
    np.subtract(1.0, out, out=out)


# samples per draw and per power-sum update: it bounds the draw and the
# workspace of _radial_sums (192 KiB at D = 3), so the peak holds one block,
# and it is large enough that the draw, not numpy's call overhead, bounds
# the loop
_BLOCK = 8192


def _radial_sums(rng, samples, k, deg):
    """The power sums P[b] = sum_t t_t^b, b <= 2 deg, of samples draws of
    _draw_radial from rng, drawn in blocks of _BLOCK into row 1 of a
    workspace t^1..t^deg kept for the run, whose higher rows fill in place:
    P[b] for 1 <= b <= deg is a row sum, P[deg + b] the dot product
    t^deg . t^b, and P[0] the sample count.  At deg = 0 nothing is drawn."""
    table = np.empty((deg, _BLOCK))
    sums = np.zeros(2 * deg + 1)
    sums[0] = samples
    for lo in range(0, samples if deg else 0, _BLOCK):
        block = table[:, :min(_BLOCK, samples - lo)]
        _draw_radial(rng, block[0], k)
        for b in range(1, deg):
            np.multiply(block[b - 1], block[0], out=block[b])
        sums[1:deg + 1] += block.sum(axis=1)
        sums[deg + 1:] += block @ block[-1]
    return sums


def _contract_radial_sums(kern, sums, weight):
    """(sum_t c G_t, sum_t c^2 |G_t|^2) of the angle-averaged Grams G_t =
    sum_a kern[..., a] t_t^a at the weight c of every sample, from the power
    sums P of _radial_sums(D): c sum_a K[a] P[a], and, with |G|^2 =
    sum_{a,a'} K[a] conj(K[a']) t^(a + a'), the pair table P[a + a'] read
    off the same sums."""
    idx = np.arange(kern.shape[-1])
    acc2 = np.einsum("ija,ab,ijb->ij", kern, sums[idx[:, None] + idx], kern.conj())
    return weight * (kern @ sums[idx]), weight ** 2 * acc2.real


def require_side(family, side):
    """The side guard: raise ValueError unless family lives on side ('disk'
    or 'space').  It runs once, where a family enters an operator, before
    any point is evaluated."""
    if family.side != side:
        raise ValueError(f"{family.side}-side function evaluated on the {side} model")


# a check whose ess_f is below this fraction of its samples rests on a few
# of them; ess_f_low flags it, as data: no verdict or bound reads it
ESS_F_LOW_FRACTION = 0.01


def mc_stats(stats):
    """The stats of a check that reads mc_dj_gram's Gram: its ess_f is the
    smallest of the functions' Kish sizes, and ess_f_low says whether that is
    below ESS_F_LOW_FRACTION of the samples, or 0: a Gram that rests on no
    sample is flagged too."""
    ess_f = float(np.min(stats["ess_f"]))
    return {**stats, "ess_f": ess_f,
            "ess_f_low": ess_f == 0.0 or ess_f < ESS_F_LOW_FRACTION * stats["samples"]}


def mc_dj_gram(family, m, k, cfg: MCConfig):
    """Shared-sample MC Gram of a polynomial family at n = 1 for the bounded
    Jacobi-domain inner product f conj(g) (1 - |w|^2)^k exp(-8 pi m A(w, z))
    against the measure (1 - |w|^2)^{-3} pi^{-1} dLeb(z) dLeb(w); returns
    (gram, sigma, stats).

    The Gaussian is the reciprocal of the kernel diagonal, the convention the
    orthonormal basis lives in.  The weight that the group action preserves
    has A(-W, z) instead (kernels.kmk_star_weight_flipped); the two agree on
    functions whose z-degree stays below 2.

    The z-integral is exact: each conditional Gram is a polynomial in w and
    conj(w).  It leaves the w-weight (1 - |w|^2)^{k - 5/2} dLeb(w) / (8 pi m),
    the measure of q_basis over 8 pi m, which is invariant under rotation of
    w, so the angle of w is integrated exactly too: the angle-averaged
    conditional Gram is a polynomial in t = |w|^2 (_exact_z_kernel), a
    conditional Monte Carlo whose variance is at most that of sampling w.
    t is drawn from its law under that measure (_draw_radial), so every
    sample has the weight c = fockpoly.bergman_mass(1, k) / (8 pi m).  One
    generator seeded by cfg.seed draws blocks of _BLOCK samples in place,
    one uniform each and one generator call per block.  Each block adds the
    power sums of t up to 2 D, D the kernel's degree in t, as row sums and
    dot products of its powers t^1..t^D (_radial_sums), and the Gram and
    its variance are contracted from them once at the end
    (_contract_radial_sums).  The Gram is Hermitian by construction; an
    entry whose angle average is the same at every t has no sampling error,
    and one whose kernel vanishes is an exact zero with sigma 0.  stats
    holds the sample count and ess_f, the (nf,) Kish sizes of each
    function's contributions to its diagonal entry; mc_stats reduces them
    to the smallest.

    exact_dj_gram gives the Gram without sampling, at every n, from the same
    Wick coefficients.  Raises ValueError, before any draw, on anything but
    a PolyFamily of n = 1, at k <= 3/2, where the measure has no finite
    mass, and on a sample count that is not an integer >= 2, the fewest
    that give a variance."""
    if not isinstance(family, PolyFamily):
        raise ValueError(f"mc_dj_gram samples a PolyFamily, not a {type(family).__name__}")
    if family.n != 1:
        raise ValueError(f"mc_dj_gram samples at n = 1, not at the n = {family.n} of this family;"
                         " exact_dj_gram gives its Gram at every n")
    if k <= 1.5:
        raise ValueError(f"mc_dj_gram needs k > 3/2 for a finite measure, not k = {k}")
    samples = cfg.samples
    if not isinstance(samples, numbers.Integral) or isinstance(samples, bool) or samples < 2:
        raise ValueError(f"samples must be an integer of at least 2, not {samples!r}")
    kern = _exact_z_kernel(family, m)
    rng = np.random.default_rng(np.random.SeedSequence(cfg.seed))
    sums = _radial_sums(rng, samples, k, kern.shape[-1] - 1)
    weight = fockpoly.bergman_mass(1, k) / (8.0 * math.pi * m)
    acc, acc2 = _contract_radial_sums(kern, sums, weight)
    diag, diag2 = acc.diagonal().real, acc2.diagonal()
    gram = (acc + acc.conj().T) / (2 * samples)
    var = np.maximum((acc2 + acc2.T) / (2 * samples) - np.abs(gram) ** 2, 0.0)
    stats = {"samples": samples, "ess_f": diag ** 2 / np.where(diag2 > 0, diag2, np.inf)}
    return gram, np.sqrt(var / samples), stats


# --- finite-difference Jacobians and real charts ---

def _upper_dim(n):
    return n * (n + 1) // 2


def _symmetric(upper, n):
    """Symmetric (..., n, n) matrices from their upper entries (..., d),
    stored row-major as numkit.upper_pairs orders them."""
    rows, cols = np.array(numkit.upper_pairs(n)).T
    out = np.zeros(upper.shape[:-1] + (n, n), dtype=complex)
    out[..., rows, cols] = upper
    out[..., cols, rows] = upper
    return out


def _pack(mats, vecs):
    rows, cols = np.array(numkit.upper_pairs(mats.shape[-1])).T
    upper = mats[..., rows, cols]
    return np.concatenate([upper.real, upper.imag, vecs.real, vecs.imag], axis=-1)


def pack_disk_point(x: SJDiskPoint) -> np.ndarray:
    """Real chart coordinates of a point, or of each point of a stack (..., D)."""
    return _pack(x.w, x.z)


def unpack_disk_point(vec, n) -> SJDiskPoint:
    d = _upper_dim(n)
    vec = np.asarray(vec, dtype=float)
    w = _symmetric(vec[..., :d] + 1j * vec[..., d:2 * d], n)
    z = vec[..., 2 * d:2 * d + n] + 1j * vec[..., 2 * d + n:]
    return SJDiskPoint(w, z)


def pack_space_point(y: SJSpacePoint) -> np.ndarray:
    return _pack(y.omega, y.zeta)


def numeric_jacobian(fn, x0, step=1e-5):
    """Central-difference Jacobian J[j, i] = d fn_j / d x_i of a map
    R^D -> R^D at x0 (D,), or at each column of x0 (D, N), giving (D, D, N).

    fn takes points as columns: it maps an array (D, ...) to (D, ...), and is
    called once, on the 2D perturbed copies of every point."""
    x0 = np.asarray(x0, dtype=float)
    dim = x0.shape[0]
    dx = step * np.eye(dim).reshape((dim, dim) + (1,) * (x0.ndim - 1))
    vals = np.asarray(fn(np.concatenate([x0[:, None] + dx, x0[:, None] - dx], axis=1)))
    return (vals[:, :dim] - vals[:, dim:]) / (2 * step)
