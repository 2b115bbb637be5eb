import numpy as np
import pytest
from numpy.testing import assert_allclose

from sjdomains import domains, groups, kernels

M, K = 0.25, 3


def _tame_disk(n, seed):
    return domains.sample_sj_disk_point(n, 0.55, 0.7, seed=seed)


def test_a_form_reference_value():
    # scalar case: W = 0.5, z = 1 gives (1 + 0.25)/0.75 + 0.25/0.75 = 2
    assert_allclose(kernels.a_form(domains.SJDiskPoint(np.array([[0.5]]), np.array([1.0]))), 2.0)


def test_a_form_real_nonnegative():
    for t in range(50):
        x = domains.sample_sj_disk_point(2, 0.8, 1.5, seed=t)
        val = kernels.a_form(x)
        assert abs(val.imag) < 1e-12
        assert val.real >= -1e-12


def test_a_polar_hermitian():
    xp = _tame_disk(2, 1)
    x = _tame_disk(2, 2)
    assert_allclose(kernels.a_polar(xp, x), np.conj(kernels.a_polar(x, xp)), rtol=1e-12)


def test_j1_cocycle():
    for n in (1, 2):
        for t in range(30):
            y = domains.cayley_forward(_tame_disk(n, 100 * n + t))
            g1 = groups.random_jacobi(n, scale=0.5, seed=2 * t)
            g2 = groups.random_jacobi(n, scale=0.5, seed=2 * t + 1)
            lhs = kernels.j1(groups.sp_mul(g1.sigma, g2.sigma), y)
            rhs = kernels.j1(g1.sigma, groups.act_sj_space(g2, y)) @ kernels.j1(g2.sigma, y)
            assert np.max(np.abs(lhs - rhs)) < 1e-8


def test_j1_star_cocycle():
    for n in (1, 2):
        for t in range(30):
            x = _tame_disk(n, 200 * n + t)
            s1 = groups.theta_iso(groups.random_jacobi(n, scale=0.5, seed=2 * t))
            s2 = groups.theta_iso(groups.random_jacobi(n, scale=0.5, seed=2 * t + 1))
            lhs = kernels.j1_star(groups.sp_star_mul(s1.omega, s2.omega), x)
            rhs = (kernels.j1_star(s1.omega, groups.act_sj_disk(s2, x))
                   @ kernels.j1_star(s2.omega, x))
            assert np.max(np.abs(lhs - rhs)) < 1e-8


def test_jmk_cocycle():
    for n in (1, 2):
        for t in range(30):
            y = domains.cayley_forward(_tame_disk(n, 300 * n + t))
            g1 = groups.random_jacobi(n, scale=0.5, seed=2 * t)
            g2 = groups.random_jacobi(n, scale=0.5, seed=2 * t + 1)
            lhs = kernels.jmk(groups.jacobi_mul(g1, g2), y, M, K)
            rhs = kernels.jmk(g1, groups.act_sj_space(g2, y), M, K) * kernels.jmk(g2, y, M, K)
            assert abs(lhs - rhs) < 1e-8


def test_jmk_star_cocycle():
    for n in (1, 2):
        for t in range(30):
            x = _tame_disk(n, 400 * n + t)
            s1 = groups.theta_iso(groups.random_jacobi(n, scale=0.5, seed=2 * t))
            s2 = groups.theta_iso(groups.random_jacobi(n, scale=0.5, seed=2 * t + 1))
            lhs = kernels.jmk_star(groups.jacobi_star_mul(s1, s2), x, M, K)
            rhs = (kernels.jmk_star(s1, groups.act_sj_disk(s2, x), M, K)
                   * kernels.jmk_star(s2, x, M, K))
            assert abs(lhs - rhs) < 1e-8


def test_automorphy_factors_at_identity():
    y = domains.cayley_forward(_tame_disk(2, 5))
    assert_allclose(kernels.jmk(groups.JacobiElement.identity(2), y, M, K), 1.0)
    x = _tame_disk(2, 6)
    assert_allclose(kernels.jmk_star(groups.JacobiStarElement.identity(2), x, M, K), 1.0)


def test_disk_kernel_hermitian():
    xp, x = _tame_disk(2, 9), _tame_disk(2, 10)
    assert_allclose(kernels.kmk_star_kernel(xp, x, M, K),
                    np.conj(kernels.kmk_star_kernel(x, xp, M, K)), rtol=1e-12)


def test_space_kernel_diagonal_real_positive():
    # The vector exponent reads the imaginary part off its first slot only,
    # so the space kernel is hermitian only on the diagonal; guard that the
    # off-diagonal asymmetry stays (a silent symmetrization would hide it).
    yp = domains.cayley_forward(_tame_disk(2, 7))
    y = domains.cayley_forward(_tame_disk(2, 8))
    diag = kernels.kmk_kernel(y, y, M, K)
    assert diag.imag == 0.0 and diag.real > 0.0
    off = kernels.kmk_kernel(yp, y, M, K)
    assert abs(off - np.conj(kernels.kmk_kernel(y, yp, M, K))) > 1e-6 * abs(off)


def test_disk_kernel_diagonal_matches_plain_weight():
    for t in range(20):
        x = _tame_disk(1, 500 + t)
        diag = kernels.kmk_star_kernel(x, x, M, K).real
        assert_allclose(diag, kernels.kmk_star_weight(x, M, K), rtol=1e-10)


def test_reflected_weight_invariance():
    # the pointwise unitarity trace: w(g.x) |jmk_star(g, x)|^2 = w(x)
    for n in (1, 2):
        for t in range(30):
            gs = groups.theta_iso(groups.random_jacobi(n, scale=0.4, seed=600 * n + t))
            x = _tame_disk(n, 700 * n + t)
            gx = groups.act_sj_disk(gs, x)
            ratio = (kernels.kmk_star_weight_flipped(gx, M, K)
                     * abs(kernels.jmk_star(gs, x, M, K)) ** 2
                     / kernels.kmk_star_weight_flipped(x, M, K))
            assert abs(ratio - 1.0) < 1e-10


def test_plain_weight_is_not_invariant():
    # guard: the unreflected variant must NOT satisfy the invariance law,
    # so a silent convention swap cannot go unnoticed
    worst = 0.0
    for t in range(20):
        gs = groups.theta_iso(groups.random_jacobi(1, scale=0.4, seed=800 + t))
        x = _tame_disk(1, 900 + t)
        gx = groups.act_sj_disk(gs, x)
        ratio = (kernels.kmk_star_weight(gx, M, K)
                 * abs(kernels.jmk_star(gs, x, M, K)) ** 2
                 / kernels.kmk_star_weight(x, M, K))
        worst = max(worst, abs(ratio - 1.0))
    assert worst > 1e-2


def test_weights_positive():
    for t in range(20):
        x = _tame_disk(2, 40 + t)
        assert kernels.kmk_star_weight_flipped(x, M, K) > 0
        assert kernels.kmk_star_weight(x, M, K) > 0


# --- stacks: one implementation, the scalar API a batch of one ---

@pytest.mark.parametrize("n", [1, 2, 3])
def test_factors_stack_match_batches_of_one(n):
    count = 60
    g = groups.random_jacobi_batch(n, count, (4000, n, 0))
    gs = groups.theta_iso(groups.random_jacobi_batch(n, count, (4000, n, 1)))
    x = domains.sample_sj_disk_batch(n, count, (4000, n, 2), 0.55, 0.7)
    y = domains.cayley_forward(x)
    stacked = {"j1": kernels.j1(g.sigma, y), "j1_star": kernels.j1_star(gs.omega, x),
               "theta": kernels.theta_factor(g, y), "theta_star": kernels.theta_star(gs, x),
               "jmk": kernels.jmk(g, y, M, K), "jmk_star": kernels.jmk_star(gs, x, M, K)}
    for i in range(count):
        one = {"j1": kernels.j1(g.sigma[i], y[i]), "j1_star": kernels.j1_star(gs.omega[i], x[i]),
               "theta": kernels.theta_factor(g[i], y[i]),
               "theta_star": kernels.theta_star(gs[i], x[i]),
               "jmk": kernels.jmk(g[i], y[i], M, K), "jmk_star": kernels.jmk_star(gs[i], x[i], M, K)}
        for name, value in one.items():
            assert_allclose(stacked[name][i], value, rtol=1e-13, err_msg=name)
    assert isinstance(one["jmk_star"], complex) and isinstance(one["theta"], complex)
