import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from sjdomains import discrete_series as ds
from sjdomains import domains, fockpoly, groups, numkit, quad

PARAMS = ds.ReprParams(1, 0.25, 3)


def test_repr_params_validation():
    with pytest.raises(ValueError):
        ds.ReprParams(1, -0.25, 3)
    with pytest.raises(ValueError):
        ds.ReprParams(1, 0.25, 1)  # needs k > n + 1/2
    with pytest.raises(ValueError):
        ds.ReprParams(1, 0.25, 2.5)


def _test_poly(params):
    qb = fockpoly.q_basis(params.n, params.k, 1)
    n = params.n
    return (fockpoly.basis_big_f((0,) * n, qb[0], params.m)
            + fockpoly.basis_big_f((1,) + (0,) * (n - 1), qb[1], params.m) * (0.4 - 0.3j))


def _test_family(params):
    return fockpoly.PolyFamily([_test_poly(params)])


def test_transfer_roundtrip_disk():
    psi = _test_poly(PARAMS)
    back = ds.t_inv(ds.t_star(fockpoly.PolyFamily([psi]), PARAMS), PARAMS)
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
    forth = ds.t_star(ds.t_inv(carrier, PARAMS), PARAMS)
    for t in range(30):
        y = domains.cayley_forward(domains.sample_sj_disk_point(1, 0.6, 0.8, seed=t))
        assert abs(forth(y) - phi((y.omega, y.zeta))) < 1e-12


def test_transfer_roundtrip_n2():
    params = ds.ReprParams(2, 0.25, 4)
    psi = _test_poly(params)
    back = ds.t_inv(ds.t_star(fockpoly.PolyFamily([psi]), params), params)
    for t in range(10):
        x = domains.sample_sj_disk_point(2, 0.5, 0.6, seed=t)
        assert abs(back(x) - psi.evaluate(x.z, x.w)) < 1e-12


def test_batch_evaluation_matches_scalar():
    # a batch of N against N batches of one, for a transported function, a
    # round trip of it, and a wrapped scalar closure
    phi = ds.t_star(_test_family(PARAMS), PARAMS)
    back = ds.t_inv(phi, PARAMS)
    op = ds.pi_apply(groups.random_jacobi(1, seed=2), phi, PARAMS)
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
    params = ds.ReprParams(n, 0.25, 3)
    psis = [f for _, f in ds._isometry_functions(params)] + [_test_poly(params)]
    phi = ds.t_star(fockpoly.PolyFamily(psis), params)
    assert len(phi) == len(psis) and phi.side == "space"
    y = domains.cayley_forward(domains.sample_sj_disk_batch(n, 40, n, 0.6, 0.8))
    vals, logs = phi.split(y.omega, y.zeta)
    assert vals.shape == (len(psis), 40) and logs.shape == (40,)
    for i, psi in enumerate(psis):
        one_vals, one_logs = ds.t_star(fockpoly.PolyFamily([psi]), params).split(y.omega, y.zeta)
        assert_allclose(vals[i], one_vals[0], rtol=1e-14, atol=0)
        assert_allclose(logs, one_logs, rtol=1e-14, atol=0)


@pytest.mark.parametrize("n", [1, 2])
def test_family_values_have_a_member_axis(n):
    # a family of two called at a point or a stack gives one value per
    # member, (len,) + the stack's shape; a family of one the stack's shape
    params = ds.ReprParams(n, 0.25, 3)
    f0, f1 = [f for _, f in ds._isometry_functions(params)][:2]
    phi = ds.t_star(fockpoly.PolyFamily([f0, f1]), params)
    y = domains.cayley_forward(domains.sample_sj_disk_batch(n, 7, n, 0.6, 0.8))
    ones = [ds.t_star(fockpoly.PolyFamily([f]), params) for f in (f0, f1)]
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

    psi = spy(_test_family(PARAMS))
    phi = spy(ds.t_star(_test_family(PARAMS), PARAMS))
    g = groups.random_jacobi(1, seed=2)
    cfg = quad.MCConfig(samples=100, seed=0)
    with pytest.raises(ValueError):
        quad.require_side(phi, "disk")
    with pytest.raises(ValueError):
        quad.mc_hj_gram(psi, 1, PARAMS.m, PARAMS.k, cfg)
    with pytest.raises(ValueError):
        quad.mc_dj_gram(phi, 1, PARAMS.m, PARAMS.k, cfg)
    with pytest.raises(ValueError):
        quad.mc_disk_gram(phi, 1, PARAMS.k, cfg)
    with pytest.raises(ValueError):
        ds.t_star(phi, PARAMS)
    with pytest.raises(ValueError):
        ds.t_inv(psi, PARAMS)
    with pytest.raises(ValueError):
        ds.pi_apply(g, psi, PARAMS)
    with pytest.raises(ValueError):
        ds.pi_star_apply(groups.theta_iso(g), phi, PARAMS)
    with pytest.raises(ValueError):
        phi(domains.sample_sj_disk_point(1, 0.5, 0.6, seed=3))
    assert calls == []


def test_operator_composition_is_antihomomorphism():
    # T_g psi = jmk_star(g, .) psi(g . .): T_{g1} T_{g2} = T_{g2 g1}
    psi = _test_family(PARAMS)
    g1 = groups.random_jacobi_star(1, scale=0.4, seed=21)
    g2 = groups.random_jacobi_star(1, scale=0.4, seed=22)
    lhs = ds.pi_star_apply(g1, ds.pi_star_apply(g2, psi, PARAMS), PARAMS)
    rhs = ds.pi_star_apply(groups.jacobi_star_mul(g2, g1), psi, PARAMS)
    for t in range(10):
        x = domains.sample_sj_disk_point(1, 0.5, 0.7, seed=50 + t)
        assert abs(lhs(x) - rhs(x)) < 1e-10


def test_intertwining_pointwise():
    psi = _test_family(PARAMS)
    phi = ds.t_star(psi, PARAMS)
    for t in range(10):
        gs = groups.random_jacobi_star(1, scale=0.4, seed=31 + t)
        y = domains.cayley_forward(domains.sample_sj_disk_point(1, 0.5, 0.6, seed=41 + t))
        lhs = ds.t_star(ds.pi_star_apply(gs, psi, PARAMS), PARAMS)(y)
        rhs = ds.pi_apply(groups.theta_inv(gs), phi, PARAMS)(y)
        assert abs(lhs - rhs) < 1e-10


def test_chart_identities_hold_and_sign_variant_fails():
    checks = ds.verify_identities(PARAMS, count=50, seed=2)
    assert all(c.passed for c in checks)
    transfer = {c.name: c for c in checks}["exponent-transfer"]
    assert transfer.residual < 1e-12
    assert transfer.detail["printed_sign_variant_residual"] > 1e-2


def test_jacobian_constant_both_sizes():
    checks = ds.verify_jacobian_constant(PARAMS, count=10, seed=3)
    assert all(c.passed for c in checks)
    assert checks[0].detail["target"] == 16.0
    checks = ds.verify_jacobian_constant(ds.ReprParams(2, 0.25, 4), count=5, seed=3)
    assert all(c.passed for c in checks)
    assert checks[0].detail["target"] == 1024.0


def test_gram_matrix_labels():
    labels, gram, sigma, _ = ds.gram_matrix(PARAMS, quad.MCConfig(samples=20000, seed=4),
                                            s_max=2, a_max=1)
    assert len(labels) == 3 * 2
    assert gram.shape == (6, 6)
    assert sigma.shape == (6, 6)


def _assert_mc_stats(detail, samples, prefix=""):
    # n = 1 accepts every polydisk proposal
    assert detail[prefix + "proposed"] == detail[prefix + "accepted"] == samples
    assert 0 < detail[prefix + "ess"] <= samples
    assert 1 / samples <= detail[prefix + "max_share"] < 1


def test_verify_gram_small_run():
    checks = ds.verify_gram(PARAMS, quad.MCConfig(samples=120000, seed=5))
    assert all(c.passed for c in checks)
    names = {c.name for c in checks}
    assert names == {"gram-identity", "sigma-budget", "parity-zeros"}
    _assert_mc_stats(checks[0].detail, 120000)


@pytest.mark.parametrize("seed", [0, 2, 11])
def test_verify_gram_reports_the_first_tied_entry(seed):
    # at n = 1 the worst error is a tie among the entries (F_sa, F_sa') of
    # every s, equal up to roundoff: the report names the first of them in
    # label order, s = (0,), with that entry's own error and sigma (at seed
    # 2 np.argmax picks s = (1,) of the tie)
    cfg = quad.MCConfig(samples=20000, seed=seed)
    labels, gram, sigma, _ = ds.gram_matrix(PARAMS, cfg)
    err = np.abs(gram - np.eye(len(labels)))
    ties = np.argwhere(err >= (1.0 - ds.TIE_RTOL) * err.max())
    assert len(ties) > 1
    i, j = ties[0]
    check = ds.verify_gram(PARAMS, cfg)[0]
    assert (check.detail["worst_row"], check.detail["worst_col"]) == (str(labels[i]),
                                                                      str(labels[j]))
    assert labels[i][0] == (0,)
    assert check.residual == err[i, j] and check.detail["sigma"] == sigma[i, j]


def test_verify_gram_reports_the_exact_residual_at_n1():
    # the sample-free Gram rides along at n = 1 only, as data
    cfg = quad.MCConfig(samples=20000, seed=3)
    assert ds.verify_gram(PARAMS, cfg)[0].detail["exact_residual"] <= 1e-12
    n2 = ds.verify_gram(ds.ReprParams(2, 0.25, 3), cfg, s_max=1, a_max=1)
    assert "exact_residual" not in n2[0].detail


def test_isometry_small_run():
    checks = ds.verify_isometry(PARAMS, quad.MCConfig(samples=60000, seed=6))
    assert all(c.passed for c in checks)
    assert len(checks) == 4
    for check in checks:
        _assert_mc_stats(check.detail, 60000, "disk_")
        _assert_mc_stats(check.detail, 60000, "space_")


def test_reproducing_small_run():
    checks = ds.reproducing_check(PARAMS, quad.MCConfig(samples=60000, seed=7),
                                  trunc_s=8, trunc_a=5, points=3, seed=7)
    assert all(c.passed for c in checks)
    _assert_mc_stats(checks[1].detail, 60000)
    with pytest.raises(ValueError):
        ds.reproducing_check(ds.ReprParams(2, 0.25, 4),
                             quad.MCConfig(samples=1000, seed=0))


def test_transported_function_side():
    phi = ds.t_star(_test_family(PARAMS), PARAMS)
    assert phi.side == "space"
    op = ds.pi_apply(groups.random_jacobi(1, seed=1), phi, PARAMS)
    assert op.side == "space"


@pytest.mark.parametrize("side", ["disk", "space"])
def test_sampled_function_refuses_what_is_not_a_point(side):
    # a raw (matrix, vector) pair is no point on either side: a TypeError
    # that names the two point classes, before the side guard
    psi = _test_family(PARAMS)
    fn = ds.t_inv(ds.t_star(psi, PARAMS), PARAMS) if side == "disk" else ds.t_star(psi, PARAMS)
    x = domains.sample_sj_disk_point(1, 0.5, 0.6, seed=3)
    with pytest.raises(TypeError, match="SJDiskPoint or an SJSpacePoint, not a tuple"):
        fn((x.w, x.z))
