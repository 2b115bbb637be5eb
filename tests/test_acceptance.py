"""Acceptance gate: the twelve headline checks, each printing one line.

Run with `pytest -v tests/test_acceptance.py` (or `-s` to see the lines
inline).  Every test drives the public API at the parameters and tolerances
the package commits to; the prints give a one-line PASS/FAIL audit trail
with measured runtime against each check's budget.
"""

import time

import numpy as np

from sjdomains import quad, suites
from sjdomains.report import residual_check
from sjdomains.suites import SuiteConfig


def _checks(*reports):
    """The checks of suite reports, in order."""
    return [c for rep in reports for c in rep.checks]


def _finish(num, label, checks, t0, limit):
    elapsed = time.time() - t0
    ok = all(c.passed for c in checks)
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num:2d}: {label} "
          f"({elapsed:.1f}s, budget {limit:.0f}s)")
    failing = [c.summary() for c in checks if not c.passed]
    assert ok, failing
    assert elapsed <= limit, f"runtime {elapsed:.1f}s over budget {limit}s"


def test_criterion_01_group_algebra():
    t0 = time.time()
    reports = []
    for n in (1, 2, 3):
        cfg = SuiteConfig(n=n, seed=n)
        reports += [suites.run_group_axioms(cfg), suites.run_theta_iso(cfg),
                    suites.run_actions(cfg)]
    _finish(1, "group axioms, theta isomorphism, actions (n=1,2,3)",
            _checks(*reports), t0, 30)


def test_criterion_02_cayley():
    t0 = time.time()
    reports = [suites.run_cayley(SuiteConfig(n=n, seed=n)) for n in (1, 2)]
    _finish(2, "Cayley roundtrip 1e-12 and equivariance 1e-9", _checks(*reports), t0, 30)


def test_criterion_03_cocycles():
    t0 = time.time()
    reports = [suites.run_cocycle(SuiteConfig(n=n, seed=n)) for n in (1, 2)]
    _finish(3, "four cocycle laws at 1e-8, 100 cases each", _checks(*reports), t0, 60)


def test_criterion_04_polynomial_engine():
    t0 = time.time()
    reports = []
    for n in (1, 2):
        cfg = SuiteConfig(n=n)
        reports += [suites.run_genfun(cfg), suites.run_pde(cfg)]
    _finish(4, "generating function coefficient-exact; heat system exactly 0",
            _checks(*reports), t0, 60)


def test_criterion_05_expansions():
    t0 = time.time()
    rep = suites.run_expansions(SuiteConfig(n=1, seed=3))
    fixed = [c for c in rep.checks if c.name == "matching-fixed-point"]
    assert fixed and fixed[0].residual <= 1e-8
    assert fixed[0].detail["target"] == 0.91 ** -0.5
    _finish(5, "kernel expansions vs closed forms (incl. 0.91^-1/2 fixed pt)",
            rep.checks, t0, 120)


def test_criterion_06_gaussian_integrals():
    t0 = time.time()
    rep = suites.run_gaussian_integrals(SuiteConfig(n=1, seed=4))
    _finish(6, "Gaussian moments s!*delta, closed-form norm, series pairing",
            rep.checks, t0, 60)


def test_criterion_07_fock_orthonormality():
    t0 = time.time()
    rep = suites.run_orthonormality_fock(SuiteConfig(n=1, seed=5))
    ratio = [c for c in rep.checks if c.name == "calibration-ratio"]
    assert ratio, "calibration ratio must be reported"
    print(f"    calibration ratio vs reference constant: "
          f"{ratio[0].detail['ratio']:.12g}")
    _finish(7, "calibrated Fock Gram = identity at 1e-6 (3 W values)",
            rep.checks, t0, 30)


def test_criterion_08_transfer_identities():
    t0 = time.time()
    reports = [suites.run_transfer_identities(SuiteConfig(n=n, seed=n)) for n in (1, 2)]
    _finish(8, "imag-part and exponent transfer identities at 1e-10",
            _checks(*reports), t0, 30)


def test_criterion_09_jacobian_constant():
    t0 = time.time()
    checks = []
    for n, target in ((1, 16.0), (2, 1024.0)):
        found = suites.run_measure_jacobian(SuiteConfig(n=n, seed=n)).checks
        assert found[0].detail["target"] == target
        checks += found
    _finish(9, "measure Jacobian constant 16 (n=1), 1024 (n=2) at 1e-4 rel",
            checks, t0, 120)


def test_criterion_10_mc_gram():
    t0 = time.time()
    # the Gram of 1e6 samples on seed 10, and series-gram's own checks at
    # the base seed whose series-gram substream is 10
    cfg = SuiteConfig(seed=(10 - suites.sub_seed(0, "series-gram")) % 2 ** 31)
    _, family = suites.series_family(cfg)
    gram, sigma, _ = quad.mc_dj_gram(family, cfg.m, cfg.k, quad.MCConfig(samples=10 ** 6, seed=10))
    err = np.abs(gram - np.eye(len(gram)))
    print(f"    |G - I|_inf = {err.max():.3e}, sigma <= {sigma.max():.3e}")
    assert sigma.max() <= 3e-3
    # every entry within 3 sigma, a floor for the entries of roundoff sigma
    within = residual_check("mc-gram-3-sigma", np.max(err / (3.0 * sigma + 1e-9)), 1.0)
    _finish(10, "MC Gram of F_sa (|s|<=3, a<=2) within 3 sigma, 1e6 samples",
            suites.run_series_gram(cfg).checks + [within], t0, 300)


def test_criterion_11_intertwiner():
    t0 = time.time()
    cfg = SuiteConfig(seed=11)
    checks = _checks(suites.run_isometry(cfg), suites.run_intertwining(cfg))
    _finish(11, "transfer roundtrip 1e-10, isometry exact at 1e-10, intertwining 1e-7",
            checks, t0, 300)


def test_criterion_12_kernel_invariance():
    t0 = time.time()
    reports = [suites.run_kernel_invariance(SuiteConfig(n=n, seed=n))
               for n in (1, 2)]
    _finish(12, "weight invariance ratio = 1 at 1e-7, 100 cases", _checks(*reports),
            t0, 30)
