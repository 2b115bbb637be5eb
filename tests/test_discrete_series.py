import math
from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_allclose

from sjdomains import discrete_series as ds
from sjdomains import domains, fockpoly, groups, kernels, numkit, quad, suites
from sjdomains.suites import SuiteConfig

M, K = 0.25, 3


def _test_poly(n=1, k=K):
    qb = fockpoly.q_basis(n, k, 1)
    return (fockpoly.basis_big_f((0,) * n, qb[0], M)
            + fockpoly.basis_big_f((1,) + (0,) * (n - 1), qb[1], M) * (0.4 - 0.3j))


def _test_family():
    return fockpoly.PolyFamily([_test_poly()])


def test_transfer_roundtrip_disk():
    psi = _test_poly()
    back = ds.t_inv(ds.t_star(fockpoly.PolyFamily([psi]), M, K), M, K)
    for t in range(30):
        x = domains.sample_sj_disk_point(1, 0.6, 0.8, seed=t)
        assert abs(back(x) - psi.evaluate(x.z, x.w)) < 1e-12


def test_transfer_roundtrip_space():
    def phi(pair):
        om, zeta = pair
        return np.exp(1j * np.trace(om)) * (1.0 + complex(zeta @ zeta))

    def phi_split(oms, zetas):
        vals = np.exp(1j * np.trace(oms, axis1=-2, axis2=-1)) * (1.0 + numkit.vecvec(zetas, zetas))
        return vals, np.zeros(len(vals))

    carrier = ds.SampledFunction(phi_split, "space")
    forth = ds.t_star(ds.t_inv(carrier, M, K), M, K)
    for t in range(30):
        y = domains.cayley_forward(domains.sample_sj_disk_point(1, 0.6, 0.8, seed=t))
        assert abs(forth(y) - phi((y.omega, y.zeta))) < 1e-12


def test_transfer_roundtrip_n2():
    psi = _test_poly(2, 4)
    back = ds.t_inv(ds.t_star(fockpoly.PolyFamily([psi]), M, 4), M, 4)
    for t in range(10):
        x = domains.sample_sj_disk_point(2, 0.5, 0.6, seed=t)
        assert abs(back(x) - psi.evaluate(x.z, x.w)) < 1e-12


def test_batch_evaluation_matches_scalar():
    # a batch of N against N batches of one, for a transported function, a
    # round trip of it, and a wrapped scalar closure
    phi = ds.t_star(_test_family(), M, K)
    back = ds.t_inv(phi, M, K)
    op = ds.pi_apply(groups.random_jacobi(1, seed=2), phi, M, K)
    xs = [domains.sample_sj_disk_point(1, 0.5, 0.6, seed=t) for t in range(6)]
    ys = [domains.cayley_forward(x) for x in xs]
    logs_of = {}
    for name, fn, side, pts in [("phi", phi, "space", ys), ("op", op, "space", ys),
                                ("back", back, "disk", xs)]:
        assert fn.side == side and len(fn) == 1
        fields = [(p.w, p.z) if side == "disk" else (p.omega, p.zeta) for p in pts]
        mats, vecs = (np.stack(field) for field in zip(*fields))
        vals, logs = fn.split(mats, vecs)
        logs_of[name] = logs
        assert vals.shape == (1, 6) and logs.shape == (6,)
        vals = vals[0]
        for i in range(6):
            one_vals, one_logs = fn.split(mats[i:i + 1], vecs[i:i + 1])
            assert_allclose(one_vals[0, 0] * np.exp(one_logs[0]), vals[i] * np.exp(logs[i]),
                            rtol=1e-12)
            assert_allclose(fn(pts[i]), vals[i] * np.exp(logs[i]), rtol=1e-12)
    # the transported exponent stays in logs; the round trip sums the two
    # transfers' exponents, which cancel
    assert np.min(np.abs(logs_of["phi"])) > 1e-3
    assert np.all(logs_of["op"] == 0)
    assert np.max(np.abs(logs_of["back"])) < 1e-12


@pytest.mark.parametrize("n", [1, 2])
def test_t_star_of_a_family_stacks_the_members(n):
    # one transfer of the family against the transfer of each member: the
    # same values and logs
    psis = [f for _, f in suites._isometry_functions(SuiteConfig(n=n))] + [_test_poly(n)]
    phi = ds.t_star(fockpoly.PolyFamily(psis), M, K)
    assert len(phi) == len(psis) and phi.side == "space"
    y = domains.cayley_forward(domains.sample_sj_disk_batch(n, 40, n, 0.6, 0.8))
    vals, logs = phi.split(y.omega, y.zeta)
    assert vals.shape == (len(psis), 40) and logs.shape == (40,)
    for i, psi in enumerate(psis):
        one_vals, one_logs = ds.t_star(fockpoly.PolyFamily([psi]), M, K).split(y.omega, y.zeta)
        assert_allclose(vals[i], one_vals[0], rtol=1e-14, atol=0)
        assert_allclose(logs, one_logs, rtol=1e-14, atol=0)


@pytest.mark.parametrize("n", [1, 2])
def test_family_values_have_a_member_axis(n):
    # a family of two called at a point or a stack gives one value per
    # member, (len,) + the stack's shape; a family of one the stack's shape
    f0, f1 = [f for _, f in suites._isometry_functions(SuiteConfig(n=n))][:2]
    phi = ds.t_star(fockpoly.PolyFamily([f0, f1]), M, K)
    y = domains.cayley_forward(domains.sample_sj_disk_batch(n, 7, n, 0.6, 0.8))
    ones = [ds.t_star(fockpoly.PolyFamily([f]), M, K) for f in (f0, f1)]
    assert phi(y).shape == (2, 7) and ones[0](y).shape == (7,)
    assert_allclose(phi(y), [one(y) for one in ones], rtol=1e-14, atol=0)
    assert phi(y[3]).shape == (2,) and isinstance(ones[1](y[3]), complex)
    assert_allclose(phi(y[3]), [one(y[3]) for one in ones], rtol=1e-14, atol=0)


def test_sampled_function_side_guard():
    # the one side guard, quad.require_side, reached from each entry point:
    # every engine and operator raises when it is called or built, before
    # the family it was given is evaluated at any point
    calls = []

    def spy(family):
        def split(mats, vecs):
            calls.append(family.side)
            return family.split(mats, vecs)

        return ds.SampledFunction(split, family.side, size=len(family))

    psi = spy(_test_family())
    phi = spy(ds.t_star(_test_family(), M, K))
    g = groups.random_jacobi(1, seed=2)
    cfg = quad.MCConfig(samples=100, seed=0)
    with pytest.raises(ValueError):
        quad.require_side(phi, "disk")
    with pytest.raises(ValueError):
        quad.mc_dj_gram(phi, M, K, cfg)
    with pytest.raises(ValueError):
        ds.t_star(phi, M, K)
    with pytest.raises(ValueError):
        ds.t_inv(psi, M, K)
    with pytest.raises(ValueError):
        ds.pi_apply(g, psi, M, K)
    with pytest.raises(ValueError):
        ds.pi_star_apply(groups.theta_iso(g), phi, M, K)
    with pytest.raises(ValueError):
        phi(domains.sample_sj_disk_point(1, 0.5, 0.6, seed=3))
    assert calls == []


def test_operator_composition_is_antihomomorphism():
    # T_g psi = jmk_star(g, .) psi(g . .): T_{g1} T_{g2} = T_{g2 g1}
    psi = _test_family()
    g1 = groups.theta_iso(groups.random_jacobi(1, scale=0.4, seed=21))
    g2 = groups.theta_iso(groups.random_jacobi(1, scale=0.4, seed=22))
    lhs = ds.pi_star_apply(g1, ds.pi_star_apply(g2, psi, M, K), M, K)
    rhs = ds.pi_star_apply(groups.jacobi_star_mul(g2, g1), psi, M, K)
    for t in range(10):
        x = domains.sample_sj_disk_point(1, 0.5, 0.7, seed=50 + t)
        assert abs(lhs(x) - rhs(x)) < 1e-10


def test_intertwining_pointwise():
    psi = _test_family()
    phi = ds.t_star(psi, M, K)
    for t in range(10):
        gs = groups.theta_iso(groups.random_jacobi(1, scale=0.4, seed=31 + t))
        y = domains.cayley_forward(domains.sample_sj_disk_point(1, 0.5, 0.6, seed=41 + t))
        lhs = ds.t_star(ds.pi_star_apply(gs, psi, M, K), M, K)(y)
        rhs = ds.pi_apply(groups.theta_inv(gs), phi, M, K)(y)
        assert abs(lhs - rhs) < 1e-10


def _base_seed(stream, mc_seed):
    """The base seed whose substream `stream` is mc_seed (suites.sub_seed)."""
    return (mc_seed - suites.sub_seed(0, stream)) % 2 ** 31


def test_chart_identities_hold_and_sign_variant_fails():
    checks = suites.run_transfer_identities(SuiteConfig(seed=2)).checks
    assert all(c.passed for c in checks)
    transfer = {c.name: c for c in checks}["exponent-transfer"]
    assert transfer.residual < 1e-12
    assert transfer.detail["printed_sign_variant_residual"] > 1e-2


def test_jacobian_constant_both_sizes():
    checks = suites.run_measure_jacobian(SuiteConfig(seed=3)).checks
    assert all(c.passed for c in checks)
    assert checks[0].detail["target"] == 16.0
    checks = suites.run_measure_jacobian(SuiteConfig(n=2, k=4, seed=3)).checks
    assert all(c.passed for c in checks)
    assert checks[0].detail["target"] == 1024.0


def test_gram_matrix_labels():
    # the one series Gram of series-gram and `table --kind gram-F`: the
    # F_sa with |s| <= 3 and deg a <= 2, labeled
    labels, family = suites.series_family(SuiteConfig())
    gram, sigma, _ = quad.mc_dj_gram(family, M, K, quad.MCConfig(samples=20000, seed=4))
    assert len(labels) == len(family) == 4 * 3
    assert gram.shape == (12, 12)
    assert sigma.shape == (12, 12)


def _assert_mc_stats(detail, samples):
    # every draw is a sample of the measure itself
    assert detail["samples"] == samples
    assert 0 < detail["ess_f"] <= samples and detail["ess_f_low"] is False


def test_verify_gram_small_run():
    # the Monte Carlo Gram draws the runner's 1e5 samples, and its sigma
    # budget is 3e-3 at 1e6 scaled by sqrt(10), the bound reports have read
    # at the 1e5 samples that were once the default
    cfg = SuiteConfig(seed=_base_seed("series-gram", 5))
    checks = suites.run_series_gram(cfg).checks
    assert all(c.passed for c in checks)
    names = {c.name for c in checks}
    assert names == {"gram-identity", "sigma-budget", "parity-zeros"}
    assert checks[1].tol == 3e-3 * math.sqrt(10.0) == 0.00948683298050514
    _assert_mc_stats(checks[1].detail, 10 ** 5)


def test_verify_gram_reads_the_exact_gram_at_n1_and_n2():
    # gram-identity is max |G - I| of quad.exact_dj_gram at a roundoff
    # bound, its worst entry the plain argmax; only n = 1 adds the checks of
    # the Monte Carlo Gram, and n = 2 draws none
    cfg = SuiteConfig(seed=_base_seed("series-gram", 3))
    labels, family = suites.series_family(cfg)
    err = np.abs(quad.exact_dj_gram(family, M, K) - np.eye(len(labels)))
    i, j = np.unravel_index(np.argmax(err), err.shape)
    check = suites.run_series_gram(cfg).checks[0]
    assert (check.name, check.residual, check.tol) == ("gram-identity", err[i, j], 1e-12)
    assert check.detail == {"worst_row": str(labels[i]), "worst_col": str(labels[j])}
    n2 = suites.run_series_gram(replace(cfg, n=2)).checks
    assert [c.name for c in n2] == ["gram-identity"] and n2[0].residual <= 1e-12
    assert n2[0].tol == 1e-12 and set(n2[0].detail) == {"worst_row", "worst_col"}


def _reflected_family(psis):
    """The family of psi(-W, z): each coefficient of z^s W^a times (-1)^|a|."""
    return fockpoly.PolyFamily([
        fockpoly.PolyFunction(f.n, {e: c * (-1) ** sum(e[f.n:]) for e, c in f.terms.items()})
        for f in psis])


def test_isometry_small_run(monkeypatch):
    # both norms are exact: the disk side the diagonal of the exact Gram, the
    # space side that of the reflected functions psi(-W, z); nothing is drawn
    def no_sampling(*args):
        raise AssertionError("isometry drew a Monte Carlo sample")

    monkeypatch.setattr(quad, "mc_dj_gram", no_sampling)
    cfg = SuiteConfig(seed=6)
    checks = [c for c in suites.run_isometry(cfg).checks if c.name.startswith("isometry-")]
    assert all(c.passed for c in checks)
    assert len(checks) == 4
    psis = [f for _, f in suites._isometry_functions(cfg)]
    exact = quad.exact_dj_gram(fockpoly.PolyFamily(psis), M, K)
    reflected = quad.exact_dj_gram(_reflected_family(psis), M, K)
    for i, check in enumerate(checks):
        assert check.tol == 1e-10
        assert check.detail["disk_norm_sq"] == exact[i, i]
        assert check.detail["space_norm_sq"] == reflected[i, i]
        deviation = check.detail["weight_ratio_deviation"]
        assert 0 < deviation < 1e-12
        assert check.residual == (abs(reflected[i, i] - exact[i, i])
                                  + reflected[i, i] * deviation)


def _scaled_transfer(monkeypatch, scale_m=1.0, add_k=0):
    """Run t_star and t_inv both at scale_m m and k + add_k: a fault that the
    pointwise round trips cannot see, since each undoes the other."""
    t_star, t_inv = ds.t_star, ds.t_inv
    monkeypatch.setattr(ds, "t_star", lambda f, m, k: t_star(f, scale_m * m, k + add_k))
    monkeypatch.setattr(ds, "t_inv", lambda f, m, k: t_inv(f, scale_m * m, k + add_k))


@pytest.mark.parametrize("mutate", [
    pytest.param(lambda patch: _scaled_transfer(patch, add_k=1), id="transfer-at-k-plus-1"),
    pytest.param(lambda patch: _scaled_transfer(patch, scale_m=1.01), id="transfer-at-1.01-m"),
    pytest.param(lambda patch: patch.setattr(kernels, "kmk_star_weight_flipped",
                                             kernels.kmk_star_weight), id="plain-weight")])
def test_isometry_fails_on_a_wrong_transfer(mutate, monkeypatch):
    # a transfer that is its own inverse's inverse but no isometry: the round
    # trips pass and every isometry check fails
    mutate(monkeypatch)
    checks = {c.name: c for c in suites.run_isometry(SuiteConfig(seed=0)).checks}
    assert checks.pop("roundtrip-disk").passed and checks.pop("roundtrip-space").passed
    assert len(checks) == 4 and not any(c.passed for c in checks.values())


def test_isometry_at_n4():
    # at n = 4, where a polydisk sampler would accept no W, the exact norms need none
    checks = suites.run_isometry(SuiteConfig(n=4, k=5, seed=0)).checks
    assert len(checks) == 6 and all(c.passed for c in checks)


def test_reproducing_small_run(monkeypatch):
    # the pairings are read off the exact Gram: the suite draws no Monte
    # Carlo Gram
    def no_sampling(*args):
        raise AssertionError("reproducing drew a Monte Carlo Gram")

    monkeypatch.setattr(quad, "mc_dj_gram", no_sampling)
    checks = suites.run_reproducing(SuiteConfig(seed=7)).checks
    assert all(c.passed for c in checks)
    assert checks[1].residual <= 1e-12 and checks[1].tol == 1e-12
    with pytest.raises(ValueError):
        suites.run_reproducing(SuiteConfig(n=2, k=4))


def test_transported_function_side():
    phi = ds.t_star(_test_family(), M, K)
    assert phi.side == "space"
    op = ds.pi_apply(groups.random_jacobi(1, seed=1), phi, M, K)
    assert op.side == "space"


@pytest.mark.parametrize("side", ["disk", "space"])
def test_sampled_function_refuses_what_is_not_a_point(side):
    # a raw (matrix, vector) pair is no point on either side: a TypeError
    # that names the two point classes, before the side guard
    psi = _test_family()
    fn = ds.t_inv(ds.t_star(psi, M, K), M, K) if side == "disk" else ds.t_star(psi, M, K)
    x = domains.sample_sj_disk_point(1, 0.5, 0.6, seed=3)
    with pytest.raises(TypeError, match="SJDiskPoint or an SJSpacePoint, not a tuple"):
        fn((x.w, x.z))
