"""Every verification check of the package, as the named suites behind the
command-line front end.

Each runner takes a SuiteConfig alone and returns a VerifyReport; the
decorator _suite registers it in SUITES under its public name and builds
that report, in one place, from the checks the runner's body returns, so
every report records the run that made it: cfg.to_dict() and cfg.seed.  The
sizes of a check (points, pairs, degrees, samples) and its residual
tolerance are constants of its contract, written in the runner's body; no
config field changes them.  Each stack is seeded by (seed, suite tag,
index) and each Monte Carlo Gram by its stream name (sub_seed), so reports
are reproducible check by check.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import numbers
import time
import zlib
from dataclasses import dataclass, replace

import numpy as np

from . import discrete_series as ds
from . import domains, fockpoly, groups, kernels, numkit, quad
from .report import VerifyReport, residual_check


# The one range of m, for every suite, eval object and table: beyond it
# the powers of 8 pi m overflow or its inverse divides by zero.
M_RANGE = (1e-30, 1e30)
M_RULE = f"a number from {M_RANGE[0]!r} to {M_RANGE[1]!r}"


def m_in_range(m) -> bool:
    """Whether m is a real number in M_RANGE; a bool is no number."""
    return (isinstance(m, numbers.Real) and not isinstance(m, bool)
            and M_RANGE[0] <= m <= M_RANGE[1])


@dataclass(frozen=True)
class SuiteConfig:
    n: int = 1
    m: float = 0.25
    k: int = 3
    seed: int = 0

    def __post_init__(self):
        """Refuse a field out of its range, naming it; a bool is no number.
        k > n + 1/2, which only a finite-norm basis needs, is q_basis's."""
        def integer(v):
            return isinstance(v, numbers.Integral) and not isinstance(v, bool)

        for valid, message in (
                (integer(self.n) and self.n >= 1, "n must be a positive integer"),
                (m_in_range(self.m), f"m must be {M_RULE}, got {self.m!r}"),
                (integer(self.k), "k must be an integer"),
                (integer(self.seed) and self.seed >= 0, "seed must be a non-negative integer")):
            if not valid:
                raise ValueError(message)

    def to_dict(self):
        return {"n": self.n, "m": self.m, "k": self.k}


# public suite name -> runner, in the order run_all runs them
SUITES = {}


def _suite(name):
    """Register a runner under name: its body returns the list of checks,
    and the runner the VerifyReport of them, with the config's params and
    seed."""
    def register(checks_of):
        @functools.wraps(checks_of)
        def runner(cfg: SuiteConfig) -> VerifyReport:
            return VerifyReport(name, cfg.to_dict(), cfg.seed, checks_of(cfg))

        SUITES[name] = runner
        return runner

    return register


def sub_seed(base: int, name: str) -> int:
    return (int(base) + zlib.crc32(name.encode())) % (2 ** 31)


def _max_abs(*diffs) -> float:
    return max(float(np.max(np.abs(d))) for d in diffs)


def _dist(a, b) -> float:
    """The largest entry modulus of a - b for two points or group elements
    of one class (or stacks of them), over their dataclass fields, nested
    elements field by field."""
    if dataclasses.is_dataclass(a):
        return max(_dist(getattr(a, f.name), getattr(b, f.name))
                   for f in dataclasses.fields(a))
    return _max_abs(a - b)


# --- algebraic suites ---
# Each draws its points and elements as stacks, each stack from its own
# entropy (seed, suite tag, stack index), and evaluates every identity on the
# stack; the residual is the worst member.

@_suite("group-axioms")
def run_group_axioms(cfg: SuiteConfig) -> list:
    n, seed = cfg.n, cfg.seed
    g1, g2, g3 = (groups.random_jacobi_batch(n, 100, (seed, 7919, i)) for i in range(3))
    s1, s2, s3 = (groups.theta_iso(g) for g in (g1, g2, g3))
    ident = groups.JacobiElement.identity(n)
    ident_s = groups.JacobiStarElement.identity(n)
    worst = {
        "space-associativity": _dist(
            groups.jacobi_mul(groups.jacobi_mul(g1, g2), g3),
            groups.jacobi_mul(g1, groups.jacobi_mul(g2, g3))),
        "space-inverse": max(_dist(groups.jacobi_mul(g1, groups.jacobi_inv(g1)), ident),
                             _dist(groups.jacobi_mul(groups.jacobi_inv(g1), g1), ident)),
        "disk-associativity": _dist(
            groups.jacobi_star_mul(groups.jacobi_star_mul(s1, s2), s3),
            groups.jacobi_star_mul(s1, groups.jacobi_star_mul(s2, s3))),
        "disk-inverse": max(
            _dist(groups.jacobi_star_mul(s1, groups.jacobi_star_inv(s1)), ident_s),
            _dist(groups.jacobi_star_mul(groups.jacobi_star_inv(s1), s1), ident_s)),
    }
    return [residual_check(name, val, 1e-9) for name, val in worst.items()]


@_suite("theta-iso")
def run_theta_iso(cfg: SuiteConfig) -> list:
    n, seed = cfg.n, cfg.seed
    g1, g2 = (groups.random_jacobi_batch(n, 100, (seed, 6211, i)) for i in range(2))
    gs = groups.theta_iso(g1)
    worst_hom = _dist(groups.theta_iso(groups.jacobi_mul(g1, g2)),
                      groups.jacobi_star_mul(gs, groups.theta_iso(g2)))
    worst_round = max(_dist(groups.theta_inv(gs), g1),
                      _dist(groups.theta_iso(groups.theta_inv(gs)), gs))
    return [residual_check("homomorphism", worst_hom, 1e-9),
            residual_check("inverse-roundtrip", worst_round, 1e-9)]


@_suite("actions")
def run_actions(cfg: SuiteConfig) -> list:
    n, seed = cfg.n, cfg.seed
    x = domains.sample_sj_disk_batch(n, 100, (seed, 4099, 0), 0.6, 0.8)
    y = domains.cayley_forward(x)
    g1, g2 = (groups.random_jacobi_batch(n, 100, (seed, 4099, i)) for i in (1, 2))
    s1, s2 = groups.theta_iso(g1), groups.theta_iso(g2)
    worst = {
        "space-composition": _dist(groups.act_sj_space(g1, groups.act_sj_space(g2, y)),
                                   groups.act_sj_space(groups.jacobi_mul(g1, g2), y)),
        "space-identity": _dist(
            groups.act_sj_space(groups.JacobiElement.identity(n), y), y),
        "disk-composition": _dist(groups.act_sj_disk(s1, groups.act_sj_disk(s2, x)),
                                  groups.act_sj_disk(groups.jacobi_star_mul(s1, s2), x)),
        "disk-identity": _dist(
            groups.act_sj_disk(groups.JacobiStarElement.identity(n), x), x),
    }
    return [residual_check(name, val, 1e-9) for name, val in worst.items()]


@_suite("cayley")
def run_cayley(cfg: SuiteConfig) -> list:
    n, seed = cfg.n, cfg.seed
    x = domains.sample_sj_disk_batch(n, 1000, (seed, 9001, 0), 0.85, 1.5)
    y = domains.cayley_forward(domains.sample_sj_disk_batch(n, 1000, (seed, 9001, 1), 0.7, 1.0))
    worst_round = max(_dist(domains.cayley_inverse(domains.cayley_forward(x)), x),
                      _dist(domains.cayley_forward(domains.cayley_inverse(y)), y))
    g = groups.random_jacobi_batch(n, 100, (seed, 9013, 0))
    x = domains.sample_sj_disk_batch(n, 100, (seed, 9013, 1), 0.6, 0.8)
    worst_equi = _dist(domains.cayley_forward(groups.act_sj_disk(groups.theta_iso(g), x)),
                       groups.act_sj_space(g, domains.cayley_forward(x)))
    return [residual_check("roundtrip", worst_round, 1e-12),
            residual_check("equivariance", worst_equi, 1e-9)]


@_suite("cocycle")
def run_cocycle(cfg: SuiteConfig) -> list:
    n, seed = cfg.n, cfg.seed
    m, k = cfg.m, cfg.k
    x = domains.sample_sj_disk_batch(n, 100, (seed, 5003, 0), 0.55, 0.7)
    y = domains.cayley_forward(x)
    g1, g2 = (groups.random_jacobi_batch(n, 100, (seed, 5003, i)) for i in (1, 2))
    s1, s2 = groups.theta_iso(g1), groups.theta_iso(g2)
    g2y, s2x = groups.act_sj_space(g2, y), groups.act_sj_disk(s2, x)
    worst = {
        "sp-factor": _max_abs(
            kernels.j1(groups.sp_mul(g1.sigma, g2.sigma), y)
            - kernels.j1(g1.sigma, g2y) @ kernels.j1(g2.sigma, y)),
        "sp-star-factor": _max_abs(
            kernels.j1_star(groups.sp_star_mul(s1.omega, s2.omega), x)
            - kernels.j1_star(s1.omega, s2x) @ kernels.j1_star(s2.omega, x)),
        "space-automorphy": _max_abs(
            kernels.jmk(groups.jacobi_mul(g1, g2), y, m, k)
            - kernels.jmk(g1, g2y, m, k) * kernels.jmk(g2, y, m, k)),
        "disk-automorphy": _max_abs(
            kernels.jmk_star(groups.jacobi_star_mul(s1, s2), x, m, k)
            - kernels.jmk_star(s1, s2x, m, k) * kernels.jmk_star(s2, x, m, k)),
    }
    return [residual_check(name, val, 1e-8) for name, val in worst.items()]


# --- polynomial-engine suites ---

@_suite("genfun")
def run_genfun(cfg: SuiteConfig) -> list:
    n = cfg.n
    s_max = 8 if n == 1 else 4
    mismatches = 0
    tested = 0
    for s in fockpoly.enumerate_multiindices(n, s_max):
        tested += 1
        if not (fockpoly.p_s(tuple(s)) - fockpoly.p_s_from_generating(tuple(s))).is_zero():
            mismatches += 1
    return [residual_check("generating-vs-recursion", float(mismatches), 0.0,
                           detail={"indices_tested": tested, "s_max": s_max})]


@_suite("pde")
def run_pde(cfg: SuiteConfig) -> list:
    n, m = cfg.n, cfg.m
    s_max = 8 if n == 1 else 4
    worst_exact = 0.0
    worst_float = 0.0
    for s in fockpoly.enumerate_multiindices(n, s_max):
        # the integer P_s satisfy the system at c = 1, f_s at c = 8 pi m
        worst_exact = max(worst_exact, fockpoly.pde_check(fockpoly.p_s(tuple(s)), 1))
        worst_float = max(worst_float, fockpoly.pde_check(fockpoly.basis_f(tuple(s), m),
                                                          8.0 * math.pi * m))
    return [residual_check("heat-system-exact", worst_exact, 0.0, detail={"s_max": s_max}),
            residual_check("heat-system-float", worst_float, 1e-10)]


# The Fock expansions start at degree 14 and grow 2 grades at a time until
# the last grade is at most 1/100 of the tolerance, or the cap is reached.
FOCK_DEGREES = range(14, 41, 2)


def _worst(resid, tail, degree):
    """The largest (residual, tail, degree) over the pairs."""
    return max(zip(resid.tolist(), tail.tolist(), degree.tolist()))


@_suite("expansions")
def run_expansions(cfg: SuiteConfig) -> list:
    n, m, k, seed = cfg.n, cfg.m, cfg.k, cfg.seed
    tol, pairs = 1e-6, 20
    checks = []
    if n == 1:
        point = domains.SJDiskPoint(0.3 * np.eye(1), np.zeros(1))
        fixed = fockpoly.expansion_fock_full(point, point, fockpoly.MATCHING_M, 20)
        target = 0.91 ** -0.5
        checks.append(residual_check("matching-fixed-point",
                                     abs(fixed.value - target), 1e-8,
                                     detail={"target": target}))
    xp, x = (domains.sample_sj_disk_batch(n, pairs, (seed, 6007, i), 0.25, 0.3) for i in (0, 1))
    # per check: the largest residual over the pairs, that pair's tail and
    # the degree it was truncated at
    worst = {}
    # the matching kernel is the Fock kernel at m = MATCHING_M, and the
    # fixed-W one the Fock kernel with W' = W; each runs on the stack of
    # pairs, and each pair stops at the first degree of FOCK_DEGREES whose
    # last grade (the tail estimate) is <= tol / 100, or at the cap
    for name, pair_xp, pair_m in (("matching", xp, fockpoly.MATCHING_M),
                                  ("fock-at-w", domains.SJDiskPoint(x.w, xp.z), m),
                                  ("fock-full", xp, m)):
        value, tail = np.zeros(pairs, dtype=complex), np.zeros(pairs)
        degree = np.zeros(pairs, dtype=int)
        growing = np.ones(pairs, dtype=bool)
        for deg, res in zip(FOCK_DEGREES, fockpoly.fock_expansions(pair_xp, x, pair_m,
                                                                   FOCK_DEGREES)):
            stop = growing & ((res.tail_estimate <= tol / 100) | (deg == FOCK_DEGREES[-1]))
            value[stop], tail[stop], degree[stop] = res.value[stop], res.tail_estimate[stop], deg
            growing &= ~stop
            if not growing.any():
                break
        closed = kernels.kmk_star_kernel(pair_xp, x, pair_m, 0.5)
        worst[name] = _worst(np.abs(value - closed), tail, degree)
    if n == 1:
        res = fockpoly.expansion_discrete_kernel(xp, x, m, k, 14, a_max=14)
        closed = (fockpoly.discrete_kernel_constant(m, k, n)
                  * kernels.kmk_star_kernel(xp, x, m, k))
        worst["discrete"] = _worst(np.abs(res.value - closed), res.tail_estimate,
                                   np.full(pairs, 14))
    for name, (resid, tail, degree) in worst.items():
        checks.append(residual_check(name, resid, tol,
                                     detail={"tail_estimate": tail, "degree": degree}))
    return checks


@_suite("orthonormality-fock")
def run_orthonormality_fock(cfg: SuiteConfig) -> list:
    n, m, seed = cfg.n, cfg.m, cfg.seed
    s_max = 4 if n == 1 else 2
    index_list = list(fockpoly.enumerate_multiindices(n, s_max))
    if n == 1:
        ws = [np.zeros((1, 1)), 0.3 * np.eye(1), np.array([[-0.25 + 0.35j]])]
    else:
        base = domains.sample_sj_disk_point(n, 0.4, 0.1, seed=(seed, 2027, 0)).w
        ws = [np.zeros((n, n)), base]
    checks = []
    for idx, w in enumerate(ws):
        family = fockpoly.PolyFamily([fockpoly.basis_phi(w, tuple(s), m) for s in index_list])
        gram = quad.fock_gram(family, w, m)
        resid = float(np.max(np.abs(gram - np.eye(len(index_list)))))
        checks.append(residual_check(f"gram-w{idx}", resid, 1e-6,
                                     detail={"w": np.asarray(w, dtype=complex)}))
    cal = quad.calibrate_norms(n, m)
    checks.append(residual_check("calibration-ratio", abs(cal["ratio"] - 4.0 ** n), 1e-12,
                                 detail=cal))
    return checks


@_suite("gaussian-integrals")
def run_gaussian_integrals(cfg: SuiteConfig) -> list:
    n, m = cfg.n, cfg.m
    checks = []
    s_max = 6 if n == 1 else 3
    # z^s under the z-law at W = 0, m = MATCHING_M, the standard Gaussian: diag(s!)
    index_list = fockpoly.enumerate_multiindices(n, s_max)
    monomials = fockpoly.PolyFamily([fockpoly.PolyFunction.monomial(n, s) for s in index_list])
    table = quad.fock_gram(monomials, np.zeros((n, n)), fockpoly.MATCHING_M)
    target = np.diag([float(fockpoly.mi_factorial(s)) for s in index_list])
    checks.append(residual_check("moment-factorial", float(np.max(np.abs(table - target))),
                                 1e-12, detail={"s_max": s_max}))
    worst = 0.0
    grid = domains.sample_sj_disk_batch(n, 5, (cfg.seed, 6011, 0), 0.65, 0.1).w
    for w in [np.zeros((n, n)), *grid]:
        integral = math.pi ** n / math.sqrt(float(np.linalg.det(quad.a_form_matrix(w, m))))
        closed = (math.pi ** n * (8.0 * math.pi * m) ** -n
                  * math.sqrt(float(np.linalg.det(np.eye(n) - w @ w.conj()).real)))
        worst = max(worst, abs(integral - closed) / closed)
    checks.append(residual_check("weight-normalization-closed-form", worst, 1e-10))
    xps, xs = (domains.sample_sj_disk_batch(n, 2, (cfg.seed, 6011, i), 0.25, 0.3) for i in (1, 2))
    # each point's series sum_s P_s(x) U^s / s!, |s| <= 12, a polynomial in U;
    # one fock_gram at W = 0, MATCHING_M pairs them under the standard Gaussian
    zero = (0,) * len(numkit.upper_pairs(n))
    series = fockpoly.PolyFamily([fockpoly.PolyFunction(n, {
        s + zero: v / fockpoly.mi_factorial(s)
        for s, v in fockpoly.p_s_values(p.z.tolist(), p.w.tolist(), 12).items()})
        for p in (*xps, *xs)])
    gram = quad.fock_gram(series, np.zeros((n, n)), fockpoly.MATCHING_M)
    closed = kernels.kmk_star_kernel(xps, xs, fockpoly.MATCHING_M, 0.5)
    worst = float(np.max(np.abs(np.diagonal(gram, len(closed)) - closed)))
    checks.append(residual_check("generating-series-pairing", worst, 1e-6))
    return checks


@_suite("q-basis")
def run_q_basis(cfg: SuiteConfig) -> list:
    """max over the degrees d of |U_d G_d t(U_d) - I|, U_d the degree-d
    coefficients of q_basis and G_d the Gram of the degree-d monomials from
    the Faraut-Koranyi decomposition (fockpoly.fk_gram), which shares
    nothing with the Taylor blocks q_basis is built from; at a roundoff
    bound.  The q_a of different degrees are orthogonal by the circle
    action W -> e^(i t) W, which the measure keeps."""
    n, k = cfg.n, cfg.k
    degree = 4 if n == 1 else 2
    labels = fockpoly.sym_degree_list(n, degree)
    qs = fockpoly.q_basis(n, k, degree)
    zero = (0,) * n
    errs = []
    for d, gram in enumerate(fockpoly.fk_gram(n, k, degree)):
        mono = [a for a in labels if sum(a) == d]
        coef = np.array([[q.terms.get(zero + b, 0.0) for b in mono]
                         for a, q in zip(labels, qs) if sum(a) == d])
        errs.append(np.max(np.abs(coef @ gram @ coef.T - np.eye(len(mono)))))
    return [residual_check("gram-identity", max(errs), 1e-12,
                           detail={"worst_degree": int(np.argmax(errs))})]


# --- transfer and representation suites ---
# Each that needs a finite-norm basis builds it (q_basis) before anything is
# drawn, so k <= n + 1/2 is refused first; the chart suites never read k.

def _tame_disk_batch(n, count, seed):
    return domains.sample_sj_disk_batch(n, count, seed, 0.5, 0.6)


def _two_term_family(cfg: SuiteConfig, coeff):
    """The one-member family F_(0, 0) + coeff F_(e_1, a_1) of z-degree one,
    a_1 the second label of degree one of q_basis."""
    n, m = cfg.n, cfg.m
    qb = fockpoly.q_basis(n, cfg.k, 1)
    return fockpoly.PolyFamily([fockpoly.basis_big_f((0,) * n, qb[0], m)
                                + fockpoly.basis_big_f((1,) + (0,) * (n - 1), qb[1], m)
                                * coeff])


@_suite("transfer-identities")
def run_transfer_identities(cfg: SuiteConfig) -> list:
    """Both-sides evaluation of the three chart identities: the imaginary
    parts of the forward chart in closed form, and the transfer of the
    Gaussian exponent.  The exponent identity holds with the W-argument of A
    negated and plus signs on the holomorphic terms; the residuals of the
    as-printed sign variant are recorded in the detail for comparison."""
    n = cfg.n
    eye = np.eye(n)
    x = _tame_disk_batch(n, 100, (cfg.seed, 2003, 0))
    y = domains.cayley_forward(x)
    w, z = x.w, x.z
    yim, eta = y.omega.imag, y.zeta.imag
    res_inv, res_conj_inv = np.linalg.inv(eye - w), np.linalg.inv(eye - w.conj())
    rhs_y = np.linalg.solve(eye - w, eye - w @ w.conj()) @ res_conj_inv
    rhs_eta = numkit.vecmat(z, res_inv) + numkit.vecmat(z.conj(), res_conj_inv)
    lhs = numkit.vecvec(np.linalg.solve(yim, eta[..., None])[..., 0], eta)
    hol = numkit.vecvec(z, np.linalg.solve(eye - w, z[..., None])[..., 0]).real
    a_flip = 2.0 * kernels.a_form(domains.SJDiskPoint(-w, z)).real
    return [
        residual_check("imag-part-matrix", float(np.max(np.abs(yim - rhs_y))), 1e-10),
        residual_check("imag-part-vector", float(np.max(np.abs(eta - rhs_eta))), 1e-10),
        residual_check(
            "exponent-transfer", float(np.max(np.abs(lhs - (a_flip + 2.0 * hol)))), 1e-10,
            detail={"printed_sign_variant_residual":
                    float(np.max(np.abs(lhs - (a_flip - 2.0 * hol))))}),
    ]


@_suite("measure-jacobian")
def run_measure_jacobian(cfg: SuiteConfig) -> list:
    """Finite-difference check that the real Jacobian of the forward chart
    times the density ratio of the two invariant measures is the constant
    2^{n(n+3)}, globally across random points."""
    n = cfg.n
    target = 2.0 ** (n * (n + 3))
    eye = np.eye(n)
    x = _tame_disk_batch(n, 50, (cfg.seed, 2011, 0))

    def chart(v):
        # real chart coordinates as columns (D, ...) -> image coordinates
        pts = quad.unpack_disk_point(v.reshape(len(v), -1).T, n)
        return quad.pack_space_point(domains.cayley_forward(pts)).T.reshape(v.shape)

    jac = quad.numeric_jacobian(chart, quad.pack_disk_point(x).T)
    y = domains.cayley_forward(x)
    dets_ratio = (np.linalg.det(eye - x.w @ x.w.conj()).real ** (n + 2)
                  / np.linalg.det(y.omega.imag) ** (n + 2))
    values = np.abs(np.linalg.det(np.moveaxis(jac, -1, 0))) * dets_ratio
    return [residual_check(f"measure-constant-n{n}",
                           float(np.max(np.abs(values / target - 1.0))), 1e-4,
                           detail={"target": target,
                                   "min": float(np.min(values)),
                                   "max": float(np.max(values))})]


def series_family(cfg: SuiteConfig):
    """The series basis F_sa (|s| <= 3, deg a <= 2) at cfg's parameters:
    (labels, family), the family one PolyFamily.  series-gram reads its
    Grams, and `table --kind gram-F` its Monte Carlo Gram."""
    labeled = fockpoly.series_basis(cfg.n, cfg.m, cfg.k, 3, 2)
    return [lbl for lbl, _ in labeled], fockpoly.PolyFamily([f for _, f in labeled])


@_suite("series-gram")
def run_series_gram(cfg: SuiteConfig) -> list:
    """max |G - I| of the exact Gram of the series basis
    (quad.exact_dj_gram), at a roundoff bound; worst_row and worst_col
    label its largest entry.

    At n = 1 the MC Gram of 10^5 samples, exact in z, on the substream
    "series-gram" of cfg.seed, is also held to a sigma budget, 3e-3 at 10^6
    samples scaled by the square root of the sample ratio, with the
    engine's stats in its detail, and to exact zeros between functions of
    z-degree of different parity."""
    labels, family = series_family(cfg)
    err = np.abs(quad.exact_dj_gram(family, cfg.m, cfg.k) - np.eye(len(labels)))
    i, j = np.unravel_index(np.argmax(err), err.shape)
    checks = [residual_check("gram-identity", err[i, j], 1e-12,
                             detail={"worst_row": str(labels[i]), "worst_col": str(labels[j])})]
    if cfg.n == 1:
        samples = 10 ** 5
        mccfg = quad.MCConfig(samples=samples, seed=sub_seed(cfg.seed, "series-gram"))
        gram, sigma, stats = quad.mc_dj_gram(family, cfg.m, cfg.k, mccfg)
        zdeg = np.array([sum(lbl[0]) for lbl in labels])
        odd = (zdeg[:, None] - zdeg[None]) % 2 == 1
        checks += [residual_check("sigma-budget", np.max(sigma), 3e-3 * math.sqrt(1e6 / samples),
                                  detail=quad.mc_stats(stats)),
                   residual_check("parity-zeros", np.max(np.abs(gram[odd]), initial=0.0), 1e-12)]
    return checks


def _isometry_functions(cfg: SuiteConfig):
    n, m = cfg.n, cfg.m
    qb = fockpoly.q_basis(n, cfg.k, 1)
    f00 = fockpoly.basis_big_f((0,) * n, qb[0], m)
    f10 = fockpoly.basis_big_f((1,) + (0,) * (n - 1), qb[0], m)
    f01 = fockpoly.basis_big_f((0,) * n, qb[1], m)
    mix = (f00 + f10) * complex(1.0 / math.sqrt(2.0))
    return [("F00", f00), ("F10", f10), ("F01", f01), ("mix", mix)]


def _reflected(f):
    """f(-W, z): each coefficient of z^s W^a times (-1)^{|a|}."""
    return fockpoly.PolyFunction(f.n, {e: c * (-1) ** sum(e[f.n:]) for e, c in f.terms.items()})


@_suite("isometry")
def run_isometry(cfg: SuiteConfig) -> list:
    """t_inv(t_star(psi)) = psi and t_star(t_inv(phi)) = phi pointwise; then
    the norm of each test function before the transfer and after it, both
    exact.

    Pulled back through the chart, whose Jacobian measure-jacobian checks,
    the space integrand of t_star(psi) is |psi|^2 rho times the flipped disk
    weight det(I - W conj(W))^k exp(-8 pi m A(-W, z)), with
    rho = |T|^2 (det Y)^k exp(-4 pi m eta Y^{-1} t(eta)) times
    kernels.kmk_star_weight_flipped, T the factor of t_star and (Omega,
    zeta) = C(W, z).  W -> -W maps the flipped weight onto the plain one, so
    the space norm is the diagonal of exact_dj_gram of the reflected
    functions psi(-W, z), within that norm times max |rho - 1|.  rho is read
    on a stack of its own, sigma_max(W) < 0.9 and |z| < 1.5 at m = 0.25;
    the bound on |z| scales as m^{-1/2}, so that 8 pi m A, the exponent of
    the weight, stays in floating-point range at every m.  The residual
    |space - disk| + space max |rho - 1| bounds the gap of the two norms."""
    n, m, k = cfg.n, cfg.m, cfg.k
    psi = _two_term_family(cfg, 0.5 + 0.25j)
    back = ds.t_inv(ds.t_star(psi, m, k), m, k)

    def phi_split(oms, zetas):
        vals = np.exp(1j * np.trace(oms, axis1=-2, axis2=-1)) * (1.0 + numkit.vecvec(zetas, zetas))
        return vals[None], np.zeros(len(vals))

    phi = ds.SampledFunction(phi_split, "space")
    forth = ds.t_star(ds.t_inv(phi, m, k), m, k)
    both = _tame_disk_batch(n, 100, (cfg.seed, 2017, 0))
    x, y = both[:50], domains.cayley_forward(both[50:])
    worst_disk = float(np.max(np.abs(back(x) - psi.split(x.w, x.z)[0][0])))
    worst_space = float(np.max(np.abs(forth(y) - phi(y))))
    checks = [residual_check("roundtrip-disk", worst_disk, 1e-10),
              residual_check("roundtrip-space", worst_space, 1e-10)]
    x = domains.sample_sj_disk_batch(n, 200, (cfg.seed, 2017, 1), 0.9, 0.75 / math.sqrt(m))
    y = domains.cayley_forward(x)
    one = fockpoly.PolyFamily([fockpoly.PolyFunction.constant(n, 1.0)])
    t_vals, t_logs = ds.t_star(one, m, k).split(y.omega, y.zeta)
    eta = y.zeta.imag
    sol, lu = numkit.eliminate(y.omega.imag, eta[:, :, None])
    log_space = (k * np.log(numkit.lu_det(lu))
                 - 4.0 * np.pi * m * np.einsum("bi,bi->b", sol[:, :, 0], eta))
    rho = (np.abs(t_vals[0]) ** 2 * np.exp(2.0 * t_logs + log_space)
           * kernels.kmk_star_weight_flipped(x, m, k))
    deviation = _max_abs(rho - 1.0)
    names, psis = zip(*_isometry_functions(cfg))
    disk, space = (quad.exact_dj_gram(fockpoly.PolyFamily(fs), m, k).diagonal().real
                   for fs in (psis, [_reflected(f) for f in psis]))
    for name, d, s in zip(names, disk, space):
        checks.append(residual_check(
            f"isometry-{name}", abs(s - d) + s * deviation, 1e-10,
            detail={"disk_norm_sq": float(d), "space_norm_sq": float(s),
                    "weight_ratio_deviation": deviation}))
    return checks


@_suite("intertwining")
def run_intertwining(cfg: SuiteConfig) -> list:
    """t_star(pi_star(g*) psi) = pi(theta^{-1}(g*)) t_star(psi) pointwise,
    with the t-th element evaluated at the t-th point."""
    n, m, k, seed = cfg.n, cfg.m, cfg.k, cfg.seed
    psi = _two_term_family(cfg, 0.7)
    gs = groups.theta_iso(groups.random_jacobi_batch(n, 50, (seed, 1000, 0), 0.4))
    y = domains.cayley_forward(_tame_disk_batch(n, 50, (seed, 1000, 1)))
    lhs = ds.t_star(ds.pi_star_apply(gs, psi, m, k), m, k)(y)
    rhs = ds.pi_apply(groups.theta_inv(gs), ds.t_star(psi, m, k), m, k)(y)
    return [residual_check("intertwining", float(np.max(np.abs(lhs - rhs))), 1e-7)]


@_suite("reproducing")
def run_reproducing(cfg: SuiteConfig) -> list:
    """(i) The truncated two-point basis sum matches the closed-form kernel;
    (ii) pairing against the truncated kernel section reproduces point
    values, each pairing read off the exact Gram (quad.exact_dj_gram)."""
    n, m, k, seed = cfg.n, cfg.m, cfg.k, cfg.seed
    if n != 1:
        raise ValueError("the reproducing suite runs at n = 1")
    funcs = [fn for _, fn in fockpoly.series_basis(n, m, k, s_max=4, a_max=3)]
    # the pairs (x', x) as two stacks, for one stacked expansion
    xp, x = (domains.sample_sj_disk_batch(n, 5, (seed, 3301, i), 0.25, 0.3) for i in (0, 1))
    approx = fockpoly.expansion_discrete_kernel(xp, x, m, k, 10, a_max=6)
    closed = fockpoly.discrete_kernel_constant(m, k, n) * kernels.kmk_star_kernel(xp, x, m, k)
    worst_rel = float(np.max(np.abs(approx.value - closed) / np.abs(closed)))
    # the section at x_j is sum_i conj(F_i(x_j)) F_i; f = F_0 pairs with it
    # to f(x_j)
    x = domains.sample_sj_disk_batch(n, 5, (seed, 3301, 2), 0.25, 0.3)
    vals = fockpoly.PolyFamily(funcs).split(x.w, x.z)[0]
    sections = [sum((fn * complex(np.conj(v)) for fn, v in zip(funcs, col)),
                    fockpoly.PolyFunction.zero(n)) for col in vals.T]
    # every pairing <f, section_j> is an entry (0, j) of one exact Gram
    gram = quad.exact_dj_gram(fockpoly.PolyFamily(funcs[:1] + sections), m, k)
    return [
        residual_check("kernel-expansion", worst_rel, 1e-4),
        residual_check("kernel-section-pairing", np.max(np.abs(gram[0, 1:] - vals[0])), 1e-12),
    ]


@_suite("kernel-invariance")
def run_kernel_invariance(cfg: SuiteConfig) -> list:
    """Pointwise unitarity trace: the invariant weight transported by the
    action and corrected by |jmk_star|^2 reproduces itself.  The identity
    holds for the reflected-argument weight; the deviation of the plain
    variant is reported alongside for reference."""
    n, m, k, seed = cfg.n, cfg.m, cfg.k, cfg.seed
    gs = groups.theta_iso(groups.random_jacobi_batch(n, 100, (seed, 7717, 0), scale=0.4))
    x = domains.sample_sj_disk_batch(n, 100, (seed, 7717, 1), 0.5, 0.8)
    gx = groups.act_sj_disk(gs, x)
    jac = np.abs(kernels.jmk_star(gs, x, m, k)) ** 2
    ratio = kernels.kmk_star_weight_flipped(gx, m, k) * jac / kernels.kmk_star_weight_flipped(x, m, k)
    plain = kernels.kmk_star_weight(gx, m, k) * jac / kernels.kmk_star_weight(x, m, k)
    return [residual_check("invariance-ratio", _max_abs(ratio - 1.0), 1e-7,
                           detail={"plain_weight_variant_residual": _max_abs(plain - 1.0)})]


def run_all(cfg: SuiteConfig) -> VerifyReport:
    fockpoly.q_basis(cfg.n, cfg.k, 0)  # refuses k <= n + 1/2 before any suite runs
    checks, wall_s = [], {}
    for name, runner in SUITES.items():
        if name == "reproducing" and cfg.n != 1:
            continue
        start = time.perf_counter()
        rep = runner(replace(cfg, seed=sub_seed(cfg.seed, name)))
        wall_s[name] = time.perf_counter() - start
        checks += [replace(c, name=f"{name}/{c.name}") for c in rep.checks]
    return VerifyReport("all", cfg.to_dict(), cfg.seed, checks, wall_s=wall_s)


def run_suite(name: str, cfg: SuiteConfig) -> VerifyReport:
    if name == "all":
        return run_all(cfg)
    if name not in SUITES:
        raise KeyError(f"unknown suite '{name}'")
    return SUITES[name](cfg)
