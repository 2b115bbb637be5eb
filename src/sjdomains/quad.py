"""Quadrature layer: exact moments of complex Gaussian weights, a tensor
Gauss-Hermite cross-check, seeded Monte Carlo engines for the weighted inner
products on the bounded domains, and finite-difference Jacobian helpers.

The Gaussian weight exp(-8 pi m A(+/-W, z)) of the Fock spaces has its real
matrix Q written in closed form from H = (I - W conj(W))^{-1} and
S = conj(W) H, for one W or a stack of them.  Moments E[z^s conj(z)^r] of a
Gaussian come from a Wick recursion on the exponents (s, r) with the complex
covariances E[z t(z)] and E[z z^*], again for one covariance or a stack.

Every function is evaluated through one protocol, evaluate(fn, mats, vecs,
side) -> (vals, logs) on stacked points, the value being vals * exp(logs).
The Monte Carlo engines are one streaming driver, _mc_gram, that proposes W
from the polydisk in chunks, keeps the draws that lie in the domain and
contracts the Gram over them in blocks of _BLOCK samples; each engine only
supplies its draw on the accepted W (evaluation points and log weight, or the
conditional z-covariance when the z-integral is exact).  Rejected proposals
cost only the membership test and count in the estimator's denominator.

Real coordinates are always ordered (Re z_1..Re z_n, Im z_1..Im z_n); for
matrix charts, (Re W_ij upper row-major, Im W_ij, Re z, Im z).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from . import domains, kernels, numkit
from .domains import SJDiskPoint, SJSpacePoint
from .fockpoly import PolyFunction


# --- Gaussian forms and exact moments ---

def _disk_forms(ws, m, flip):
    """Matrices Q of the Gaussians 8 pi m A(-W, z) (flip) or 8 pi m A(W, z)
    for a stack ws (N, n, n).  With H = (I - W conj(W))^{-1} (Hermitian) and
    S = conj(W) H (symmetric), A(W, z) = conj(z) H t(z) + Re(z S t(z)), and
    W -> -W only flips the sign of S."""
    h = np.linalg.inv(np.eye(ws.shape[-1]) - ws @ ws.conj())
    s = ws.conj() @ h
    if flip:
        s = -s
    q = np.block([[h.real + s.real, -h.imag - s.imag],
                  [h.imag - s.imag, h.real - s.real]])
    return 4.0 * math.pi * m * (q + np.swapaxes(q, -1, -2))


def _complex_covariances(cov):
    """(E[z t(z)], E[z z^*]) from the real covariance of (Re z, Im z), for
    one (2n, 2n) matrix or a stack of them."""
    n = cov.shape[-1] // 2
    xx, xy = cov[..., :n, :n], cov[..., :n, n:]
    yx, yy = cov[..., n:, :n], cov[..., n:, n:]
    return xx - yy + 1j * (xy + yx), xx + yy + 1j * (yx - xy)


def _lower(t, j):
    return t[:j] + (t[j] - 1,) + t[j + 1:]


def _wick(c, d, s, r, memo):
    """E[z^s conj(z)^r] for a centred Gaussian z with E[z t(z)] = c and
    E[z z^*] = d (leading batch axes allowed): remove one z_i and pair it
    with each remaining z_j (c_ij) or conj(z_j) (d_ij); with no z left,
    E[conj(z)^r] = conj(E[z^r])."""
    if (sum(s) + sum(r)) % 2:
        return 0.0
    if not any(r) and not any(s):
        return 1.0
    if not any(s):
        return np.conj(_wick(c, d, r, s, memo))
    key = (s, r)
    if key not in memo:
        i = next(j for j, e in enumerate(s) if e)
        rest = _lower(s, i)
        total = 0.0
        for j, e in enumerate(rest):
            if e:
                total = total + e * c[..., i, j] * _wick(c, d, _lower(rest, j), r, memo)
        for j, e in enumerate(r):
            if e:
                total = total + e * d[..., i, j] * _wick(c, d, rest, _lower(r, j), memo)
        memo[key] = total
    return memo[key]


@dataclass(frozen=True)
class GaussianForm:
    """Weight exp(-x^T Q x) on R^{2n} in the coordinates (Re z, Im z)."""

    q: np.ndarray

    def __post_init__(self):
        q = np.asarray(self.q, dtype=float)
        if q.ndim != 2 or q.shape[0] != q.shape[1] or q.shape[0] % 2:
            raise ValueError("q must be 2n x 2n")
        if np.max(np.abs(q - q.T)) > 1e-10 * max(1.0, np.max(np.abs(q))):
            raise ValueError("q must be symmetric")
        ok, lam = numkit.posdef_certificate(q)
        if not ok:
            raise ValueError(f"q must be positive definite (min eigenvalue {lam:.3e})")
        object.__setattr__(self, "q", 0.5 * (q + q.T))

    @property
    def n(self):
        return self.q.shape[0] // 2

    @classmethod
    def identity(cls, n):
        return cls(np.eye(2 * n))

    @classmethod
    def from_disk_weight(cls, w, m, flip=True):
        """The form 8 pi m A(-W, z) (flip=True, the invariant-weight Gaussian)
        or 8 pi m A(W, z) (flip=False, the fixed-W Fock weight)."""
        w = numkit.symmetrize(w)
        return cls(_disk_forms(w[None], m, flip)[0])

    def normalization(self):
        """integral of exp(-x^T Q x) over R^{2n} = pi^n det(Q)^{-1/2}."""
        return math.pi ** self.n / math.sqrt(float(np.linalg.det(self.q)))

    def covariance(self):
        return numkit.solve(self.q, np.eye(2 * self.n)).real / 2.0


def monomial_moment(form: GaussianForm, s, r) -> complex:
    """integral of z^s conj(z)^r exp(-x^T Q x) over C^n, plain Lebesgue."""
    return gaussian_moment({(tuple(s), tuple(r)): 1.0}, form)


def gaussian_moment(pairs: dict, form: GaussianForm) -> complex:
    """integral of sum_{(s,r)} pairs[s,r] z^s conj(z)^r exp(-x^T Q x), exact.

    pairs maps (s, r) exponent-tuple pairs to coefficients: a polynomial in z
    and conj(z) with the holomorphic/antiholomorphic exponents kept paired.
    """
    c, d = _complex_covariances(form.covariance())
    memo = {}
    total = 0j
    for (s, r), coeff in pairs.items():
        if coeff == 0:
            continue
        total += complex(coeff) * _wick(c, d, tuple(s), tuple(r), memo)
    return complex(total * form.normalization())


def pair_product(f: PolyFunction, g: PolyFunction) -> dict:
    """Pairs dict of f(z) conj(g(z)) for polynomials in z alone."""
    for poly in (f, g):
        if any(any(a.upper) for (_, a) in poly.terms):
            raise ValueError("pair_product needs z-only polynomials")
    out = {}
    for (s, _), cf in f.terms.items():
        for (r, _), cg in g.terms.items():
            key = (s, r)
            out[key] = out.get(key, 0j) + complex(cf) * np.conj(complex(cg))
    return out


_GH_CACHE = {}


def gauss_hermite_moment(pairs: dict, form: GaussianForm, order: int = 40) -> complex:
    """Tensor Gauss-Hermite evaluation of gaussian_moment, for cross-checks."""
    dim = 2 * form.n
    if (order,) not in _GH_CACHE:
        _GH_CACHE[(order,)] = np.polynomial.hermite.hermgauss(order)
    nodes, weights = _GH_CACHE[(order,)]
    evals, vecs = np.linalg.eigh(form.q)
    # x = root @ y whitens the form: x^T Q x = |y|^2
    root = vecs @ np.diag(evals ** -0.5)
    grids = np.meshgrid(*([nodes] * dim), indexing="ij")
    ys = np.stack([g.ravel() for g in grids], axis=1)
    wgrids = np.meshgrid(*([weights] * dim), indexing="ij")
    wgrid = np.ones(len(ys))
    for g in wgrids:
        wgrid = wgrid * g.ravel()
    xs = ys @ root.T
    zs = xs[:, :form.n] + 1j * xs[:, form.n:]
    total = np.zeros(len(ys), dtype=complex)
    for (s, r), coeff in pairs.items():
        val = np.full(len(ys), complex(coeff))
        for j, e in enumerate(s):
            if e:
                val = val * zs[:, j] ** e
        for j, e in enumerate(r):
            if e:
                val = val * np.conj(zs[:, j]) ** e
        total += val
    jac = abs(float(np.linalg.det(root)))
    return complex(np.sum(total * wgrid) * jac)


# --- Fock inner products and the calibration constant ---

def fock_inner(f: PolyFunction, g: PolyFunction, w, m) -> complex:
    """Inner product of z-polynomials in the fixed-W Fock space:
    prefactor det(I - W conj(W))^{-1/2} pi^{-n} integral of
    f conj(g) exp(-8 pi m A(W, z)) dLeb(z), evaluated exactly.

    The constant (8 pi m)^n is the one that makes the basis orthonormal; the
    reference constant (2 pi m)^n is off by the ratio calibrate_norms
    reports."""
    if hasattr(w, "w"):
        w = w.w
    w = numkit.symmetrize(w)
    n = w.shape[0]
    pref = (8.0 * math.pi * m) ** n
    form = GaussianForm.from_disk_weight(w, m, flip=False)
    gram = np.eye(n) - w @ w.conj()
    det_part = numkit.det_power(gram, -0.5)
    integral = gaussian_moment(pair_product(f, g), form)
    return complex(pref * det_part * integral / math.pi ** n)


def calibrate_norms(n: int, m) -> dict:
    """Numerically determine the constant c_n(m) that gives the constant
    function norm 1 at W = 0, and report it against (2 pi m)^n."""
    form = GaussianForm.from_disk_weight(np.zeros((n, n)), m, flip=False)
    zero = (0,) * n
    base = gaussian_moment({(zero, zero): 1.0}, form) / math.pi ** n
    constant = float(1.0 / base.real)
    reference = float((2.0 * math.pi * m) ** n)
    return {"constant": constant, "reference_constant": reference,
            "ratio": constant / reference,
            "closed_form": float((8.0 * math.pi * m) ** n)}


def verify_gaussian_pairing(wp, w, zp, z, trunc: int) -> dict:
    """Pair the truncated exponential generating series with itself under the
    restored Gaussian weight exp(-U conj(t(U))) pi^{-n} dLeb(U) and compare
    with the closed form det(I - W' conj(W))^{-1/2} exp A(W', z'; W, z)."""
    from . import fockpoly
    wp = numkit.symmetrize(wp)
    w = numkit.symmetrize(w)
    zp_v = numkit.as_row_vector(zp)
    z_v = numkit.as_row_vector(z)
    n = z_v.shape[0]

    def coefficients(zv, wm):
        # P_s(z, W) / s!, the U^s coefficient of the generating function
        vals = fockpoly.p_s_values(zv.tolist(), wm.tolist(), trunc)
        return {s: v / numkit.mi_factorial(s) for s, v in vals.items()}

    coeffs_p, coeffs = coefficients(zp_v, wp), coefficients(z_v, w)
    pairs = {(s, r): cp * np.conj(cq) for s, cp in coeffs_p.items() for r, cq in coeffs.items()}
    lhs = gaussian_moment(pairs, GaussianForm.identity(n)) / math.pi ** n
    rhs = kernels.kmk_star_kernel((wp, zp_v), (w, z_v), fockpoly.MATCHING_M, 0.5)
    return {"lhs": complex(lhs), "rhs": complex(rhs), "residual": abs(lhs - rhs)}


# --- Monte Carlo engines ---

@dataclass(frozen=True)
class MCConfig:
    samples: int = 100000
    seed: int = 0
    batch: int = 100000


# The Monte Carlo Gram that fockpoly.q_basis orthonormalizes its n >= 2
# monomials against.
Q_BASIS_MC = MCConfig(samples=200000, seed=20240)


@dataclass(frozen=True)
class MCEstimate:
    estimate: complex
    sigma: float
    samples: int
    seed: int
    elapsed: float


def _upper_dim(n):
    return n * (n + 1) // 2


def _in_domain(ws):
    """Membership of a stack ws (N, n, n) of symmetric W in the bounded
    domain, I - W conj(W) > 0, by a Cholesky elimination vectorised over the
    stack: n steps on (N,) arrays, W inside when every pivot is positive."""
    rest = np.eye(ws.shape[-1]) - ws @ ws.conj()
    inside = np.ones(len(ws), dtype=bool)
    for _ in range(ws.shape[-1]):
        pivot = rest[:, 0, 0].real
        inside &= pivot > 0
        pivot = np.where(inside, pivot, 1.0)[:, None, None]
        rest = rest[:, 1:, 1:] - rest[:, 1:, :1] * rest[:, :1, 1:] / pivot
    return inside


def _sample_w(rng, count, n):
    """Symmetric W with independent uniform unit-disk upper entries, plus the
    indicator of membership in the bounded domain (_in_domain).  Proposal
    density pi^{-n(n+1)/2} on the polydisk."""
    d = _upper_dim(n)
    radii = np.sqrt(rng.uniform(size=(count, d)))
    angles = rng.uniform(0.0, 2.0 * np.pi, size=(count, d))
    entries = radii * np.exp(1j * angles)
    ws = np.zeros((count, n, n), dtype=complex)
    for idx, (i, j) in enumerate(numkit.upper_pairs(n)):
        ws[:, i, j] = entries[:, idx]
        ws[:, j, i] = entries[:, idx]
    return ws, _in_domain(ws)


def _sample_z_given_w(rng, qmats, mask):
    """z ~ density exp(-x^T Q x) / Z per accepted sample; returns zs and the
    per-sample normalizer Z = pi^n det(Q)^{-1/2}.  The normal draws cover
    every proposal of the chunk (mask) and the accepted rows are kept, so the
    random stream does not depend on which proposals were accepted."""
    dim = qmats.shape[1]
    n = dim // 2
    cov = np.linalg.inv(qmats) / 2.0
    chol = np.linalg.cholesky(cov)
    gauss = rng.standard_normal((len(mask), dim))[mask]
    xs = np.einsum("bij,bj->bi", chol, gauss)
    zs = xs[:, :n] + 1j * xs[:, n:]
    znorm = math.pi ** n / np.sqrt(np.linalg.det(qmats))
    return zs, znorm


def _z_coeff_groups(poly: PolyFunction):
    """n=1 only: split f(z,w) = sum_p z^p A_p(w) into {p: [(w_power, coeff)]}."""
    groups = {}
    for (s, a), c in poly.terms.items():
        groups.setdefault(s[0], []).append((a.upper[0], complex(c)))
    return groups


def _rb_coeff_stack(polys, wsc):
    """Stack of per-sample w-coefficient values A_p^i(w), shape (N, nf, pmax+1)."""
    groups = [_z_coeff_groups(p) for p in polys]
    pmax = max((p for g in groups for p in g), default=0)
    stack = np.zeros((len(wsc), len(polys), pmax + 1), dtype=complex)
    for i, g in enumerate(groups):
        for p, terms in g.items():
            for apow, c in terms:
                stack[:, i, p] += c * wsc ** apow
    return stack, pmax


def _exact_z_grams(polys, wsc, cov):
    """Per-sample Grams S T S^H of n = 1 polynomials under the conditional
    z-Gaussian of real covariance cov, with S[b, i, p] = A_p^i(w_b) and
    T[b, p, q] = E[z^p conj(z)^q | w_b]."""
    stack, pmax = _rb_coeff_stack(polys, wsc)
    c, d = _complex_covariances(cov)
    memo = {}
    table = np.zeros((len(wsc), pmax + 1, pmax + 1), dtype=complex)
    for p in range(pmax + 1):
        for q in range(pmax + 1):
            table[:, p, q] = _wick(c, d, (p,), (q,), memo)
    return (stack @ table) @ np.conj(np.swapaxes(stack, 1, 2))


def evaluate(fn, mats, vecs, side):
    """(vals, logs) of fn at the stacked points (mats (N,n,n), vecs (N,n)) of
    the bounded ('disk') or unbounded ('space') model; the value is
    vals * exp(logs).  A PolyFunction lives on the disk and has logs = 0; any
    other function carries its side and a batched callable `split` with this
    same signature."""
    own = "disk" if isinstance(fn, PolyFunction) else fn.side
    if own != side:
        raise ValueError(f"{own}-side function evaluated on the {side} model")
    if isinstance(fn, PolyFunction):
        return fn.evaluate_batch(vecs, mats), np.zeros(len(mats))
    return fn.split(mats, vecs)


# samples per Gram contraction: it bounds the (nf, block) values and the
# (block, nf, nf) exact-z temporaries; of 1000-20000 it gave both the least
# time and the lowest peak memory for the 12-function n = 1 Gram
_BLOCK = 2000


def _mc_gram(funcs, n, cfg: MCConfig, chunk, draw, side="disk"):
    """The Monte Carlo driver: shared-sample estimate of the Gram matrix
    E[f_i conj(f_j) weight] and its standard errors.

    Each chunk of `chunk` proposals draws W from the polydisk, then calls
    draw(rng, ws, mask) -> (mats, vecs, logw, cov) on the accepted ws only
    (mask marks them among the chunk's proposals): the points at which the
    functions are evaluated on `side`, the log weight, and, for exact-z
    engines, the real covariance of the conditional z-Gaussian (else None).
    A rejected proposal has weight 0: it counts in the denominator, the
    number of proposals, and nowhere else.  The contraction runs over the
    accepted samples in blocks of _BLOCK: sampled, u = vals exp(logs +
    logw / 2) and the Gram adds u u^H; exact-z, the per-sample Grams S T S^H
    weighted by exp(logw).  The result is Hermitian by construction, so
    mirror entries tie exactly and the worst entry of a Gram does not depend
    on roundoff."""
    rng = np.random.default_rng(np.random.SeedSequence(cfg.seed))
    nf = len(funcs)
    acc = np.zeros((nf, nf), dtype=complex)
    acc2 = np.zeros((nf, nf))
    done = 0
    while done < cfg.samples:
        count = min(chunk, cfg.samples - done)
        ws, mask = _sample_w(rng, count, n)
        mats, vecs, logw, cov = draw(rng, ws[mask], mask)
        for lo in range(0, len(mats), _BLOCK):
            blk = slice(lo, lo + _BLOCK)
            if cov is None:
                parts = [evaluate(f, mats[blk], vecs[blk], side) for f in funcs]
                # transported functions carry a +exponent that the weight's
                # -exponent cancels to O(1); summing the logs before exp keeps
                # boundary samples finite where a factored product would not
                with np.errstate(over="ignore", invalid="ignore"):
                    u = np.stack([vals * np.exp(logs + logw[blk] / 2) for vals, logs in parts])
                sq = np.abs(u) ** 2
                acc += u @ u.conj().T
                acc2 += sq @ sq.T
            else:
                weight = np.exp(logw[blk])
                pairs = _exact_z_grams(funcs, mats[blk, 0, 0], cov[blk])
                acc += np.tensordot(weight, pairs, axes=1)
                acc2 += np.tensordot(weight ** 2, np.abs(pairs) ** 2, axes=1)
        done += count
    gram = (acc + acc.conj().T) / (2 * done)
    var = np.maximum((acc2 + acc2.T) / (2 * done) - np.abs(gram) ** 2, 0.0)
    return gram, np.sqrt(var / done)


def _mc_inner(f, g, n, cfg: MCConfig, chunk, draw, side="disk") -> MCEstimate:
    """<f, g> from _mc_gram over [f] (g is f) or [f, g]."""
    t0 = time.perf_counter()
    gram, sigma = _mc_gram([f] if g is f else [f, g], n, cfg, chunk, draw, side)
    return MCEstimate(complex(gram[0, -1]), float(sigma[0, -1]), cfg.samples, cfg.seed,
                      time.perf_counter() - t0)


def _disk_draw(n, k):
    """Draw of the weighted measure det(I - W conj(W))^{k - n - 3/2} dLeb(W)
    with the proposal density pi^{-n(n+1)/2}; functions see z = 0."""
    logc = _upper_dim(n) * math.log(math.pi)

    def draw(rng, ws, mask):
        dets = np.linalg.det(np.eye(n)[None] - ws @ ws.conj()).real
        logw = (float(k) - n - 1.5) * np.log(dets) + logc
        return ws, np.zeros((len(ws), n), dtype=complex), logw, None

    return draw


def mc_disk_gram(polys, n, k, cfg: MCConfig):
    """Shared-sample MC Gram matrix of functions of W for the weighted
    measure det(I - W conj(W))^{k - n - 3/2} dLeb(W); returns (gram, sigma)."""
    return _mc_gram(polys, n, cfg, cfg.batch, _disk_draw(n, k))


def mc_disk_inner(f, g, n, k, cfg: MCConfig) -> MCEstimate:
    """Two-function case of mc_disk_gram."""
    return _mc_inner(f, g, n, cfg, cfg.batch, _disk_draw(n, k))


def mc_dj_gram(polys, n, m, k, cfg: MCConfig):
    """Shared-sample MC Gram for the bounded Jacobi-domain inner product
    f conj(g) det(I-W conj(W))^k exp(-8 pi m A(W,z)) against the measure
    det(I-W conj(W))^{-n-2} pi^{-n} dLeb(z) dLeb(W).

    The Gaussian is the reciprocal of the kernel diagonal, the convention the
    orthonormal basis lives in.  The weight that the group action preserves
    has A(-W, z) instead (see mc_hj_inner); the two agree on functions whose
    z-degree stays below 2.

    For n = 1 and polynomial inputs the conditional z-law is Gaussian, so the
    z-integral is taken exactly per sample (Wick moments) and only the
    W-average is stochastic; any other input samples z as well."""
    exact_z = n == 1 and all(isinstance(p, PolyFunction) for p in polys)
    logc = (_upper_dim(n) - n) * math.log(math.pi)

    def draw(rng, ws, mask):
        qmats = _disk_forms(ws, m, flip=False)
        dets = np.linalg.det(np.eye(n)[None] - ws @ ws.conj()).real
        if exact_z:
            zs, cov = None, np.linalg.inv(qmats) / 2.0
            znorm = math.pi ** n / np.sqrt(np.linalg.det(qmats))
        else:
            (zs, znorm), cov = _sample_z_given_w(rng, qmats, mask), None
        logw = (float(k) - n - 2) * np.log(dets) + np.log(znorm) + logc
        return ws, zs, logw, cov

    chunk = min(cfg.batch, 20000) if exact_z else cfg.batch
    return _mc_gram(polys, n, cfg, chunk, draw)


def mc_dj_inner(psi1, psi2, n, m, k, cfg: MCConfig) -> MCEstimate:
    """Two-function case of mc_dj_gram; see there for the conventions."""
    t0 = time.perf_counter()
    gram, sigma = mc_dj_gram([psi1] if psi2 is psi1 else [psi1, psi2], n, m, k, cfg)
    return MCEstimate(complex(gram[0, -1]), float(sigma[0, -1]), cfg.samples,
                      cfg.seed, time.perf_counter() - t0)


def mc_hj_inner(phi1, phi2, n, m, k, cfg: MCConfig) -> MCEstimate:
    """MC inner product on the unbounded Jacobi domain with the decaying
    weight (det Y)^k exp(-4 pi m eta Y^{-1} t(eta)), overall constant
    2^{-n(n+3)}, measure (det Y)^{-n-2} pi^{-n} dLeb(zeta) dLeb(Omega).

    Samples are proposed in the bounded chart (the only practical way to
    cover the domain) and mapped forward; the overall constant cancels the
    chart Jacobian constant 2^{n(n+3)} exactly, and the remaining weight and
    measure factors are evaluated from the raw (Omega, zeta) values so the
    identities relating the two sides stay testable rather than assumed.
    phi1/phi2 are space-side functions; the whole weight is kept as a log."""
    eye = np.eye(n)
    logc = (_upper_dim(n) - n) * math.log(math.pi)

    def draw(rng, ws, mask):
        qmats = _disk_forms(ws, m, flip=True)
        zs, znorm = _sample_z_given_w(rng, qmats, mask)
        oms, zetas = domains.batch_cayley_forward(ws, zs)
        yims, etas = oms.imag, zetas.imag
        quad = np.einsum("bi,bi->b", np.linalg.solve(yims, etas[:, :, None])[:, :, 0], etas)
        xs = np.concatenate([zs.real, zs.imag], axis=1)
        xqx = np.einsum("bi,bij,bj->b", xs, qmats, xs)
        logw = ((float(k) - n - 2) * np.log(np.linalg.det(yims))
                - (n + 2) * np.log(np.abs(np.linalg.det(eye[None] - ws)) ** 2)
                + np.log(znorm) + logc - 4.0 * np.pi * m * quad + xqx)
        return oms, zetas, logw, None

    return _mc_inner(phi1, phi2, n, cfg, cfg.batch, draw, side="space")


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
    wu = vec[..., :d] + 1j * vec[..., d:2 * d]
    w = np.zeros(vec.shape[:-1] + (n, n), dtype=complex)
    rows, cols = np.array(numkit.upper_pairs(n)).T
    w[..., rows, cols] = wu
    w[..., cols, rows] = wu
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
