"""Quadrature layer: exact moments of complex Gaussian weights, the seeded
Monte Carlo engine for the weighted inner product on the bounded domain, and
finite-difference Jacobian helpers.

The Gaussian weight exp(-8 pi m A(W, z)) of the Fock spaces has one
closed-form law for one W or a stack of them: E[z t(z)] = -W / (8 pi m),
E[z z^*] = I / (8 pi m) and the integral (8 m)^{-n} det(I - W conj(W))^{1/2}
(_z_moments, _z_normalizer).  Every exact z-integral is Wick's rule on that
law, one Wick factor E[z^s conj(z)^r] = (B diag(lam) B^H)[s, r] with
E[z^v] = P_v(0, E[z t(z)]) from the P_s recurrence at Z = 0 (_wick_factor).
It runs in the ring of E[z t(z)]: numbers at one W (fock_gram, whose entries
include the generating-series pairing), or polynomials in W at the
W-monomials, which a polynomial family's Wick coefficients read, one table
per pairing (_wick_coefficients).  exact_dj_gram contracts each with the
exact W-Gram of q_basis's measure at every n; the n = 1 exact-z Monte Carlo
path, with power sums of w (_exact_z_kernel).  The Monte Carlo engine draws
z from the same law and weighs W by its integral.  The checks of that
integral read the form's real matrix off kernels.a_form instead
(a_form_matrix).

Every integrand is a family with one protocol: its side ('disk' or
'space'), len() members, and split(mats, vecs) -> (vals (len, N), logs (N,))
on stacked points of that side, member i being vals[i] * exp(logs): a
fockpoly.PolyFamily (disk, logs = 0) or a discrete_series.SampledFunction.
Each engine takes one disk-side family, checks its side once
(require_side), and makes each member a row of one Gram, so a check draws
its samples once and reads its inner products off that Gram.  The Monte
Carlo engine, mc_dj_gram, runs on a streaming driver, _mc_gram, that
proposes W from the polydisk in chunks, keeps the draws that lie in the
domain and contracts the Gram over them in blocks of _BLOCK samples; the
engine only supplies its draw on the accepted W (evaluation points and log
weight); where the z-integral is exact (n = 1, a PolyFamily) the driver
accumulates weighted power sums of w instead of evaluating the family,
folded by their Hermitian symmetry into one real GEMM per block on one
workspace (_PowerSums).  Proposals are tested on their entries as (N,)
arrays: a filter on the radii, then one Cholesky elimination that also gives
det(I - W conj(W)); only accepted W become matrices.  Rejected proposals
count in the estimator's denominator.

Real coordinates are always ordered (Re z_1..Re z_n, Im z_1..Im z_n); for
matrix charts, (Re W_ij upper row-major, Im W_ij, Re z, Im z).
"""

from __future__ import annotations

import math
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


def _z_normalizer(dets, n, m):
    """Z = pi^n det(Q)^{-1/2} = (8 m)^{-n} dets^{1/2}, dets = det(I - W conj(W))."""
    return np.sqrt(dets) / (8.0 * m) ** n


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
    is the reciprocal of the Gaussian's integral (_z_normalizer), so the
    Gram is exactly (A B) diag(lam) (A B)^H, with (B, lam) the z-law's Wick
    factor and A the family's coefficients: A B sums the rows of B at the
    family's monomials.  Raises ValueError on a family with a W term or of
    another n than W's.

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
    """mc_dj_gram's Gram without sampling, at every n.  The z-integral is
    Wick's rule (_wick_coefficients) and leaves the W-weight
    (8 pi m)^{-n} det(I - W conj(W))^{k - n - 3/2}, the measure of q_basis.
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


# W proposals per chunk of the Monte Carlo driver; the exact-z path of
# mc_dj_gram proposes in smaller chunks, so at n = 1 the two paths see other W
_CHUNK = 100000
_EXACT_Z_CHUNK = 20000


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


def _diagonal(sq, n):
    """The diagonal 1 - sum_l |W_il|^2 of I - W conj(W), as n arrays (N,),
    from the squared moduli (N, d) of the upper entries of W."""
    pairs = numkit.upper_pairs(n)
    return [1.0 - sum(sq[:, p] for p, pair in enumerate(pairs) if i in pair)
            for i in range(n)]


def _in_domain(entries, n):
    """Membership of symmetric W in the bounded domain, I - W conj(W) > 0,
    and det(I - W conj(W)), from the upper entries of W (N, d), stored as
    numkit.upper_pairs orders them.  One Cholesky elimination runs on the
    Hermitian entries of I - W conj(W), an (N,) array each: W is inside when
    every pivot is positive, and the determinant is the product of the
    pivots."""
    col = {pair: entries[:, p] for p, pair in enumerate(numkit.upper_pairs(n))}

    def w(i, j):
        return col[min(i, j), max(i, j)]

    diag = _diagonal(entries.real ** 2 + entries.imag ** 2, n)
    h = {(i, j): -sum(w(i, l) * w(j, l).conj() for l in range(n))
         for i, j in numkit.upper_pairs(n) if i < j}
    h.update({(i, i): diag[i] for i in range(n)})
    inside = np.ones(len(entries), dtype=bool)
    dets = np.ones(len(entries))
    for k in range(n):
        pivot = h[k, k]
        inside &= pivot > 0
        dets = dets * pivot
        pivot = np.where(inside, pivot, 1.0)
        for i in range(k + 1, n):
            h[i, i] = h[i, i] - (h[k, i].real ** 2 + h[k, i].imag ** 2) / pivot
            for j in range(i + 1, n):
                h[i, j] = h[i, j] - h[k, i].conj() * h[k, j] / pivot
    return inside, dets


def _sample_w(rng, count, n):
    """count proposals W with independent uniform unit-disk upper entries
    (density pi^{-n(n+1)/2} on the polydisk), drawn as all radii, then all
    angles.  Returns the accepted W as a stack, their det(I - W conj(W)) and
    the acceptance mask over the proposals.

    The diagonal of I - W conj(W) is 1 - sum_l r_il^2, a function of the
    radii alone: a proposal with a non-positive diagonal entry lies outside,
    and is dropped before its entries are formed (about 2/3 of the proposals
    at n = 2).  The rest go through _in_domain, whose first pivot is that
    diagonal again, from the entries: the two differ by roundoff, so the
    filter drops nothing that the elimination accepts."""
    d = _upper_dim(n)
    radii = np.sqrt(rng.uniform(size=(count, d)))
    angles = rng.uniform(0.0, 2.0 * np.pi, size=(count, d))
    mask = np.logical_and.reduce([row > 0 for row in _diagonal(radii * radii, n)])
    entries = radii[mask] * np.exp(1j * angles[mask])
    inside, dets = _in_domain(entries, n)
    mask[mask] = inside
    return _symmetric(entries[inside], n), dets[inside], mask


def _sample_z_given_w(rng, ws, m, mask):
    """z from the conditional law (_z_moments) of each accepted W: x = L g,
    with L the Cholesky factor of its real covariance (2Q)^{-1}, from one
    elimination over the stack of covariances (numkit.spd_cholesky).  The
    normal draws g cover every proposal of the chunk (mask) and the accepted
    rows are kept, so the random stream does not depend on which proposals
    were accepted."""
    n = ws.shape[-1]
    c, d = _z_moments(ws, m)
    # the real covariance of (Re z, Im z) with E[z t(z)] = c, E[z z^*] = d I
    eye = d * np.eye(n)
    cov = 0.5 * np.block([[eye + c.real, c.imag], [c.imag, eye - c.real]])
    gauss = rng.standard_normal((len(mask), 2 * n))[mask]
    xs = np.einsum("bij,bj->bi", numkit.spd_cholesky(cov), gauss)
    return xs[:, :n] + 1j * xs[:, n:]


def _exact_z_kernel(family: PolyFamily, m):
    """n = 1: K (nf, nf, D + 1, D + 1) with E[f_i conj(f_j) | w] =
    sum_{a,b} K[i, j, a, b] w^a conj(w)^b under the z-law of mc_dj_gram, the
    contraction of each Wick table (_wick_coefficients; monos w^0..w^D)."""
    tables, monos = _wick_coefficients(family, m)
    kern = np.zeros((len(family), len(family), len(monos), len(monos)), dtype=complex)
    for lam_u, members, table in tables:
        kern[np.ix_(members, members)] += np.einsum("ai,bj->ijab", lam_u * table, table.conj())
    return kern


class _PowerSums:
    """The weighted power sums of w at n = 1: M[a, b] = sum_t weight_t w_t^a
    conj(w_t)^b, a, b <= deg, and M2 the same with weight^2, a, b <= 2 deg.
    Both are Hermitian, and w^a conj(w)^b = w^(a - b) |w|^(2b) for a >= b,
    so every entry is a folded sum sum_t weight_t^(1|2) w_t^j |w_t|^(2b).
    A block adds them all by one real GEMM, the table |w|^(2b), b <= 2 deg,
    times the float view of the rows [weight w^j, j <= deg; weight^2 w^j,
    j <= 2 deg], both filled in place in one workspace kept for the run."""

    def __init__(self, deg):
        self.deg = deg
        self.rows = np.empty((_BLOCK, 3 * deg + 2), dtype=complex)
        self.table = np.empty((2 * deg + 1, _BLOCK))
        self.folded = np.zeros((2 * deg + 1, 3 * deg + 2), dtype=complex)

    def add(self, wsc, weight):
        """Add the samples w (N,), N <= _BLOCK, with their weights (N,)."""
        deg = self.deg
        rows, table = self.rows[:len(wsc)], self.table[:, :len(wsc)]
        rows[:, 0], rows[:, deg + 1] = weight, weight * weight
        for j in range(3 * deg + 1):
            if j != deg:
                np.multiply(rows[:, j], wsc, out=rows[:, j + 1])
        table[0], sq = 1.0, wsc.real ** 2 + wsc.imag ** 2
        for b in range(2 * deg):
            np.multiply(table[b], sq, out=table[b + 1])
        self.folded += (table @ rows.view(float)).view(complex)

    def unfold(self):
        """(M, M2), each entry read off its folded sum."""
        def full(folded):
            a, b = np.indices(folded.shape)
            vals = folded[np.minimum(a, b), np.abs(a - b)]
            return np.where(a >= b, vals, vals.conj())
        return full(self.folded[:self.deg + 1, :self.deg + 1]), full(self.folded[:, self.deg + 1:])


def _contract_power_sums(kern, sums, sums2):
    """(sum_t weight_t G_t, sum_t weight_t^2 |G_t|^2) of the Grams G_t =
    sum_{a,b} kern[..., a, b] w_t^a conj(w_t)^b from the unfolded sums of
    _PowerSums(D), with |G|^2 = sum K[a, b] conj(K[a', b']) w^(a + b')
    conj(w)^(b + a')."""
    idx = np.arange(kern.shape[-1])
    a, b, a2, b2 = np.ix_(idx, idx, idx, idx)
    acc2 = np.einsum("ijab,abcd,ijcd->ij", kern, sums2[a + b2, b + a2], kern.conj())
    return np.einsum("ijab,ab->ij", kern, sums), acc2.real


def require_side(family, side):
    """The side guard: raise ValueError unless family lives on side ('disk'
    or 'space').  It runs once, where a family enters an engine or an
    operator, before any point is evaluated."""
    if family.side != side:
        raise ValueError(f"{family.side}-side function evaluated on the {side} model")


# a check whose ess_f is below this fraction of its accepted samples rests on
# a few of them; ess_f_low flags it, as data: no verdict or bound reads it
ESS_F_LOW_FRACTION = 0.01


def mc_stats(stats):
    """The stats of a check that reads an engine's Gram: its ess_f is the
    smallest of the functions' Kish sizes, and ess_f_low says whether that is
    below ESS_F_LOW_FRACTION of the accepted samples, or 0: a Gram that rests
    on no sample is flagged too."""
    ess_f = float(np.min(stats["ess_f"]))
    return {**stats, "ess_f": ess_f,
            "ess_f_low": ess_f == 0.0 or ess_f < ESS_F_LOW_FRACTION * stats["accepted"]}


# samples per Gram contraction: it bounds the (nf, block) values, or the
# power-sum workspace at 232 bytes per sample for D = 3 (0.45 MiB); the
# folded power sums ran 64 ns per sample in blocks of 2000, 58 in blocks of
# 5000, and 112 and 99 in blocks of 500 and 20000 (one BLAS thread)
_BLOCK = 2000


def _mc_gram(family, n, cfg: MCConfig, chunk, draw, kern=None):
    """The Monte Carlo driver: shared-sample estimate of the Gram matrix
    E[f_i conj(f_j) weight] over the members of family, its standard errors
    and stats: the proposals, the accepted draws, over their weights
    w = exp(logw) the Kish effective sample size (sum w)^2 / sum w^2 and
    largest share max w / sum w, and ess_f, the (nf,) Kish sizes of each
    function's contributions to its diagonal entry, w |f_i|^2 (their log
    parts included); mc_stats reduces them to the smallest.

    Each member of family, a disk-side integrand, is a row; one split
    per block evaluates them all.  Each chunk of `chunk` proposals draws W
    from the polydisk (_sample_w), then calls draw(rng, ws, dets, mask) ->
    (mats, vecs, logw) on the accepted ws only, with their dets = det(I - W
    conj(W)) and the mask that marks them among the chunk's proposals: the
    points at which the family is evaluated, and the log weight.  A rejected
    proposal has weight 0: it counts in the denominator, the number of
    proposals, and nowhere else.  The contraction runs over the accepted
    samples in blocks of _BLOCK, and a chunk is released before the next
    draw.  Sampled, u = vals exp(logs + logw / 2) and the Gram adds u u^H.
    Exact in z (kern from _exact_z_kernel), a block adds its folded power
    sums of w to one _PowerSums, whose workspace is allocated once per call;
    at the end they are unfolded once, and the Gram and its variance are
    contracted from them.  The result is Hermitian by construction."""
    require_side(family, "disk")
    rng = np.random.default_rng(np.random.SeedSequence(cfg.seed))
    nf = len(family)
    acc = np.zeros((nf, nf), dtype=complex)
    acc2 = np.zeros((nf, nf))
    done = accepted = 0
    wsum = wsum2 = wmax = 0.0
    sums = None if kern is None else _PowerSums(kern.shape[-1] - 1)
    while done < cfg.samples:
        count = min(chunk, cfg.samples - done)
        mats, vecs, logw = draw(rng, *_sample_w(rng, count, n))
        with np.errstate(over="ignore"):
            weight = np.exp(logw)
        accepted += len(weight)
        wsum, wsum2 = wsum + np.sum(weight), wsum2 + weight @ weight
        wmax = max(wmax, np.max(weight, initial=0.0))
        for lo in range(0, len(mats), _BLOCK):
            blk = slice(lo, lo + _BLOCK)
            if sums is not None:
                sums.add(mats[blk, 0, 0], weight[blk])
                continue
            vals, logs = family.split(mats[blk], vecs[blk])
            # summing the logs before exp keeps a function's growing exponent
            # and the weight's decaying one finite where a factored product
            # would not be
            with np.errstate(over="ignore", invalid="ignore"):
                u = vals * np.exp(logs + logw[blk] / 2)
            sq = np.abs(u) ** 2
            acc += u @ u.conj().T
            acc2 += sq @ sq.T
        done += count
        # released before the next draw, whose peak then holds one chunk
        del mats, vecs, logw, weight
    if sums is not None:
        acc, acc2 = _contract_power_sums(kern, *sums.unfold())
    diag, diag2 = acc.diagonal().real, acc2.diagonal()
    gram = (acc + acc.conj().T) / (2 * done)
    var = np.maximum((acc2 + acc2.T) / (2 * done) - np.abs(gram) ** 2, 0.0)
    stats = {"proposed": done, "accepted": accepted,
             "ess": float(wsum ** 2 / wsum2) if wsum2 else 0.0,
             "max_share": float(wmax / wsum) if wsum else 0.0,
             "ess_f": diag ** 2 / np.where(diag2 > 0, diag2, np.inf)}
    return gram, np.sqrt(var / done), stats


def mc_dj_gram(family, n, m, k, cfg: MCConfig):
    """Shared-sample MC Gram of a disk-side family for the bounded
    Jacobi-domain inner product f conj(g) det(I-W conj(W))^k
    exp(-8 pi m A(W,z)) against the measure
    det(I-W conj(W))^{-n-2} pi^{-n} dLeb(z) dLeb(W); returns (gram, sigma,
    stats).

    The Gaussian is the reciprocal of the kernel diagonal, the convention the
    orthonormal basis lives in.  The weight that the group action preserves
    has A(-W, z) instead (kernels.kmk_star_weight_flipped); the two agree on
    functions whose z-degree stays below 2.

    For n = 1 and a PolyFamily the z-integral is exact: each conditional
    Gram is a polynomial in w and conj(w) (_exact_z_kernel), and only the
    W-average is stochastic.  Any other family samples z from its
    closed-form law as well.  exact_dj_gram gives the Gram of a PolyFamily
    without sampling, at every n, from the same Wick coefficients.  Raises
    ValueError on a PolyFamily of another n."""
    if isinstance(family, PolyFamily) and family.n != n:
        raise ValueError(f"mc_dj_gram at n = {n} of a family of n = {family.n}")
    exact_z = n == 1 and isinstance(family, PolyFamily)
    logc = (_upper_dim(n) - n) * math.log(math.pi)

    def draw(rng, ws, dets, mask):
        zs = None if exact_z else _sample_z_given_w(rng, ws, m, mask)
        logw = (float(k) - n - 2) * np.log(dets) + np.log(_z_normalizer(dets, n, m)) + logc
        return ws, zs, logw

    kern = _exact_z_kernel(family, m) if exact_z else None
    return _mc_gram(family, n, cfg, _EXACT_Z_CHUNK if exact_z else _CHUNK, draw, kern=kern)


# --- finite-difference Jacobians and real charts ---

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
