"""Named verification suites behind the command-line front end.

Each runner takes a SuiteConfig and returns a VerifyReport; the decorator
_suite registers it in SUITES under its public name and builds that report,
in one place, from the checks the runner's body returns, so every report
records the run that made it: cfg.to_dict() and cfg.seed.  Residual
tolerances default to the per-suite contract values and can be overridden
globally with the config tol.  Monte Carlo sub-streams are seeded per check
name so reports are reproducible check by check.
"""

from __future__ import annotations

import functools
import math
import time
import zlib
from dataclasses import dataclass, replace

import numpy as np

from . import discrete_series as ds
from . import domains, fockpoly, groups, kernels, quad
from .report import CheckResult, VerifyReport, residual_check


@dataclass(frozen=True)
class SuiteConfig:
    n: int = 1
    m: float = 0.25
    k: int = 3
    seed: int = 0
    tol: float = None
    samples: int = 100000
    trunc: int = 10

    def params(self) -> ds.ReprParams:
        return ds.ReprParams(self.n, self.m, self.k)

    def to_dict(self):
        return {"n": self.n, "m": self.m, "k": self.k, "samples": self.samples,
                "trunc": self.trunc, "tol": self.tol}


# public suite name -> runner, in the order run_all runs them
SUITES = {}


def _suite(name):
    """Register a runner under name: its body returns the list of checks,
    and the runner the VerifyReport of them, with the config's params and
    seed."""
    def register(checks_of):
        @functools.wraps(checks_of)
        def runner(cfg: SuiteConfig, *args, **kwargs) -> VerifyReport:
            return VerifyReport(name, cfg.to_dict(), cfg.seed, checks_of(cfg, *args, **kwargs))

        SUITES[name] = runner
        return runner

    return register


def sub_seed(base: int, name: str) -> int:
    return (int(base) + zlib.crc32(name.encode())) % (2 ** 31)


def _tol(cfg: SuiteConfig, default: float) -> float:
    return default if cfg.tol is None else cfg.tol


def _max_abs(*diffs) -> float:
    return max(float(np.max(np.abs(d))) for d in diffs)


def _jacobi_dist(g1: groups.JacobiElement, g2: groups.JacobiElement) -> float:
    return _max_abs(g1.sigma.as_matrix() - g2.sigma.as_matrix(), g1.h.lam - g2.h.lam,
                    g1.h.mu - g2.h.mu, g1.h.kappa - g2.h.kappa)


def _jacobi_star_dist(g1: groups.JacobiStarElement, g2: groups.JacobiStarElement) -> float:
    return _max_abs(g1.omega.as_matrix() - g2.omega.as_matrix(), g1.alpha - g2.alpha,
                    g1.varkappa - g2.varkappa)


def _space_dist(y1: domains.SJSpacePoint, y2: domains.SJSpacePoint) -> float:
    return _max_abs(y1.omega - y2.omega, y1.zeta - y2.zeta)


def _disk_dist(x1: domains.SJDiskPoint, x2: domains.SJDiskPoint) -> float:
    return _max_abs(x1.w - x2.w, x1.z - x2.z)


# --- algebraic suites ---
# Each draws its points and elements as stacks, each stack from its own
# entropy (seed, suite tag, stack index), and evaluates every identity on the
# stack; the residual is the worst member.

@_suite("group-axioms")
def run_group_axioms(cfg: SuiteConfig, count=100) -> list:
    n, seed = cfg.n, cfg.seed
    tol = _tol(cfg, 1e-9)
    g1, g2, g3 = (groups.random_jacobi_batch(n, count, (seed, 7919, i)) for i in range(3))
    s1, s2, s3 = (groups.theta_iso(g) for g in (g1, g2, g3))
    ident = groups.JacobiElement.identity(n)
    ident_s = groups.JacobiStarElement.identity(n)
    worst = {
        "space-associativity": _jacobi_dist(
            groups.jacobi_mul(groups.jacobi_mul(g1, g2), g3),
            groups.jacobi_mul(g1, groups.jacobi_mul(g2, g3))),
        "space-inverse": max(_jacobi_dist(groups.jacobi_mul(g1, groups.jacobi_inv(g1)), ident),
                             _jacobi_dist(groups.jacobi_mul(groups.jacobi_inv(g1), g1), ident)),
        "disk-associativity": _jacobi_star_dist(
            groups.jacobi_star_mul(groups.jacobi_star_mul(s1, s2), s3),
            groups.jacobi_star_mul(s1, groups.jacobi_star_mul(s2, s3))),
        "disk-inverse": max(
            _jacobi_star_dist(groups.jacobi_star_mul(s1, groups.jacobi_star_inv(s1)), ident_s),
            _jacobi_star_dist(groups.jacobi_star_mul(groups.jacobi_star_inv(s1), s1), ident_s)),
    }
    return [residual_check(name, val, tol) for name, val in worst.items()]


@_suite("theta-iso")
def run_theta_iso(cfg: SuiteConfig, count=100) -> list:
    n, seed = cfg.n, cfg.seed
    tol = _tol(cfg, 1e-9)
    g1, g2 = (groups.random_jacobi_batch(n, count, (seed, 6211, i)) for i in range(2))
    gs = groups.theta_iso(g1)
    worst_hom = _jacobi_star_dist(groups.theta_iso(groups.jacobi_mul(g1, g2)),
                                  groups.jacobi_star_mul(gs, groups.theta_iso(g2)))
    worst_round = max(_jacobi_dist(groups.theta_inv(gs), g1),
                      _jacobi_star_dist(groups.theta_iso(groups.theta_inv(gs)), gs))
    return [residual_check("homomorphism", worst_hom, tol),
            residual_check("inverse-roundtrip", worst_round, tol)]


@_suite("actions")
def run_actions(cfg: SuiteConfig, count=100) -> list:
    n, seed = cfg.n, cfg.seed
    tol = _tol(cfg, 1e-9)
    x = domains.sample_sj_disk_batch(n, count, (seed, 4099, 0), 0.6, 0.8)
    y = domains.cayley_forward(x)
    g1, g2 = (groups.random_jacobi_batch(n, count, (seed, 4099, i)) for i in (1, 2))
    s1, s2 = groups.theta_iso(g1), groups.theta_iso(g2)
    worst = {
        "space-composition": _space_dist(groups.act_sj_space(g1, groups.act_sj_space(g2, y)),
                                         groups.act_sj_space(groups.jacobi_mul(g1, g2), y)),
        "space-identity": _space_dist(
            groups.act_sj_space(groups.JacobiElement.identity(n), y), y),
        "disk-composition": _disk_dist(groups.act_sj_disk(s1, groups.act_sj_disk(s2, x)),
                                       groups.act_sj_disk(groups.jacobi_star_mul(s1, s2), x)),
        "disk-identity": _disk_dist(
            groups.act_sj_disk(groups.JacobiStarElement.identity(n), x), x),
    }
    return [residual_check(name, val, tol) for name, val in worst.items()]


@_suite("cayley")
def run_cayley(cfg: SuiteConfig, count=1000, cases=100) -> list:
    n, seed = cfg.n, cfg.seed
    round_tol = 1e-12
    equi_tol = _tol(cfg, 1e-9)
    x = domains.sample_sj_disk_batch(n, count, (seed, 9001, 0), 0.85, 1.5)
    y = domains.cayley_forward(domains.sample_sj_disk_batch(n, count, (seed, 9001, 1), 0.7, 1.0))
    worst_round = max(_disk_dist(domains.cayley_inverse(domains.cayley_forward(x)), x),
                      _space_dist(domains.cayley_forward(domains.cayley_inverse(y)), y))
    g = groups.random_jacobi_batch(n, cases, (seed, 9013, 0))
    x = domains.sample_sj_disk_batch(n, cases, (seed, 9013, 1), 0.6, 0.8)
    worst_equi = _space_dist(domains.cayley_forward(groups.act_sj_disk(groups.theta_iso(g), x)),
                             groups.act_sj_space(g, domains.cayley_forward(x)))
    return [residual_check("roundtrip", worst_round, round_tol),
            residual_check("equivariance", worst_equi, equi_tol)]


@_suite("cocycle")
def run_cocycle(cfg: SuiteConfig, count=100) -> list:
    n, seed = cfg.n, cfg.seed
    m, k = cfg.m, cfg.k
    tol = _tol(cfg, 1e-8)
    x = domains.sample_sj_disk_batch(n, count, (seed, 5003, 0), 0.55, 0.7)
    y = domains.cayley_forward(x)
    g1, g2 = (groups.random_jacobi_batch(n, count, (seed, 5003, i)) for i in (1, 2))
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
    return [residual_check(name, val, tol) for name, val in worst.items()]


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
        worst_exact = max(worst_exact,
                          fockpoly.pde_check(fockpoly.basis_f_scaled(tuple(s), m), m))
        worst_float = max(worst_float, fockpoly.pde_check(fockpoly.basis_f(tuple(s), m), m))
    return [residual_check("heat-system-exact", worst_exact, 0.0, detail={"s_max": s_max}),
            residual_check("heat-system-float", worst_float, 1e-10)]


# The Fock expansions start at degree 14 and grow 2 grades at a time until
# the last grade is at most 1/100 of the tolerance, or the cap is reached.
FOCK_DEGREES = range(14, 41, 2)


def _worst(resid, tail, degree):
    """The largest (residual, tail, degree) over the pairs."""
    return max(zip(resid.tolist(), tail.tolist(), degree.tolist()))


@_suite("expansions")
def run_expansions(cfg: SuiteConfig, pairs=20) -> list:
    n, m, k, seed = cfg.n, cfg.m, cfg.k, cfg.seed
    tol = _tol(cfg, 1e-6)
    checks = []
    spec = fockpoly.TruncationSpec(max_degree=14)
    if n == 1:
        point = (0.3 * np.eye(1), np.zeros(1))
        fixed = fockpoly.expansion_fock_full(point, point, fockpoly.MATCHING_M,
                                             fockpoly.TruncationSpec(max_degree=20))
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
                                  ("fock-at-w", (x.w, xp.z), m),
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
        res = fockpoly.expansion_discrete_kernel(xp, x, m, k, spec, a_max=14)
        closed = (fockpoly.discrete_kernel_constant(m, k)
                  * kernels.kmk_star_kernel(xp, x, m, k))
        worst["discrete"] = _worst(np.abs(res.value - closed), res.tail_estimate,
                                   np.full(pairs, spec.max_degree))
    for name, (resid, tail, degree) in worst.items():
        checks.append(residual_check(name, resid, tol,
                                     detail={"tail_estimate": tail, "degree": degree}))
    return checks


@_suite("orthonormality-fock")
def run_orthonormality_fock(cfg: SuiteConfig) -> list:
    n, m, seed = cfg.n, cfg.m, cfg.seed
    tol = _tol(cfg, 1e-6)
    s_max = 4 if n == 1 else 2
    index_list = list(fockpoly.enumerate_multiindices(n, s_max))
    if n == 1:
        ws = [np.zeros((1, 1)), 0.3 * np.eye(1), np.array([[-0.25 + 0.35j]])]
    else:
        base = domains.sample_sj_disk_point(n, 0.4, 0.1, seed=seed + 1).w
        ws = [np.zeros((n, n)), base]
    checks = []
    for idx, w in enumerate(ws):
        family = fockpoly.PolyFamily([fockpoly.basis_phi(w, tuple(s), m) for s in index_list])
        gram = quad.fock_gram(family, w, m)
        resid = float(np.max(np.abs(gram - np.eye(len(index_list)))))
        checks.append(residual_check(f"gram-w{idx}", resid, tol,
                                     detail={"w": [[ [v.real, v.imag] for v in row]
                                                   for row in np.atleast_2d(w).astype(complex)]}))
    cal = quad.calibrate_norms(n, m)
    checks.append(residual_check("calibration-ratio", abs(cal["ratio"] - 4.0 ** n), 1e-12,
                                 detail=cal))
    return checks


@_suite("gaussian-integrals")
def run_gaussian_integrals(cfg: SuiteConfig) -> list:
    n, m = cfg.n, cfg.m
    checks = []
    s_max = 6 if n == 1 else 3
    table = quad.z_law_table(np.zeros((n, n)), fockpoly.MATCHING_M, s_max)
    target = np.diag([float(fockpoly.mi_factorial(s))
                      for s in fockpoly.enumerate_multiindices(n, s_max)])
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
    worst = 0.0
    xps, xs = (domains.sample_sj_disk_batch(n, 2, (cfg.seed, 6011, i), 0.25, 0.3) for i in (1, 2))
    for xp, x in zip(xps, xs):
        res = quad.verify_gaussian_pairing(xp.w, x.w, xp.z, x.z, trunc=max(cfg.trunc, 12))
        worst = max(worst, res["residual"])
    checks.append(residual_check("generating-series-pairing", worst, 1e-6))
    return checks


@_suite("q-basis")
def run_q_basis(cfg: SuiteConfig) -> list:
    n, k = cfg.n, cfg.k
    seed = sub_seed(cfg.seed, "q-basis-check")
    mccfg = quad.MCConfig(samples=cfg.samples, seed=seed)
    degree = 4 if n == 1 else 2
    qs = fockpoly.q_basis(n, k, degree)
    gram, sigma, stats = quad.mc_disk_gram(fockpoly.PolyFamily(qs), n, k, mccfg)
    stats = quad.mc_stats(stats)
    err = np.abs(gram - np.eye(len(qs)))
    if n == 1:
        i, j = np.unravel_index(np.argmax(err - 3.0 * sigma), err.shape)
        checks = [CheckResult(name="gram-identity", passed=bool(err[i, j] <= 3.0 * sigma[i, j] + 1e-9),
                              residual=float(err[i, j]), tol=float(3.0 * sigma[i, j] + 1e-9),
                              detail={"sigma": float(sigma[i, j]), **stats})]
    else:
        resid = float(np.max(err))
        checks = [residual_check("gram-identity", resid, 0.05,
                                 detail={"max_sigma": float(np.max(sigma)), **stats})]
    return checks


# --- transfer and representation suites ---

@_suite("transfer-identities")
def run_transfer_identities(cfg: SuiteConfig) -> list:
    return ds.verify_identities(cfg.params(), count=100, seed=cfg.seed)


@_suite("measure-jacobian")
def run_measure_jacobian(cfg: SuiteConfig) -> list:
    return ds.verify_jacobian_constant(cfg.params(), count=50, seed=cfg.seed)


@_suite("series-gram")
def run_series_gram(cfg: SuiteConfig) -> list:
    mccfg = quad.MCConfig(samples=cfg.samples, seed=sub_seed(cfg.seed, "series-gram"))
    return ds.verify_gram(cfg.params(), mccfg, s_max=3, a_max=2)


@_suite("isometry")
def run_isometry(cfg: SuiteConfig) -> list:
    params = cfg.params()
    mccfg = quad.MCConfig(samples=cfg.samples, seed=sub_seed(cfg.seed, "isometry"))
    return (ds.verify_roundtrip(params, count=50, seed=cfg.seed)
            + ds.verify_isometry(params, mccfg))


@_suite("intertwining")
def run_intertwining(cfg: SuiteConfig) -> list:
    return ds.verify_intertwining(cfg.params(), count=50, seed=cfg.seed)


@_suite("reproducing")
def run_reproducing(cfg: SuiteConfig) -> list:
    mccfg = quad.MCConfig(samples=cfg.samples, seed=sub_seed(cfg.seed, "reproducing"))
    return ds.reproducing_check(cfg.params(), mccfg, trunc_s=max(cfg.trunc, 10),
                                trunc_a=6, points=5, seed=cfg.seed)


@_suite("kernel-invariance")
def run_kernel_invariance(cfg: SuiteConfig, count=100) -> list:
    """Pointwise unitarity trace: the invariant weight transported by the
    action and corrected by |jmk_star|^2 reproduces itself.  The identity
    holds for the reflected-argument weight; the deviation of the plain
    variant is reported alongside for reference."""
    n, m, k, seed = cfg.n, cfg.m, cfg.k, cfg.seed
    tol = _tol(cfg, 1e-7)
    gs = groups.theta_iso(groups.random_jacobi_batch(n, count, (seed, 7717, 0), scale=0.4))
    x = domains.sample_sj_disk_batch(n, count, (seed, 7717, 1), 0.5, 0.8)
    gx = groups.act_sj_disk(gs, x)
    jac = np.abs(kernels.jmk_star(gs, x, m, k)) ** 2
    ratio = kernels.kmk_star_weight_flipped(gx, m, k) * jac / kernels.kmk_star_weight_flipped(x, m, k)
    plain = kernels.kmk_star_weight(gx, m, k) * jac / kernels.kmk_star_weight(x, m, k)
    return [residual_check("invariance-ratio", _max_abs(ratio - 1.0), tol,
                           detail={"plain_weight_variant_residual": _max_abs(plain - 1.0)})]


def run_all(cfg: SuiteConfig) -> VerifyReport:
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
