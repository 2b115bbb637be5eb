import numpy as np
import pytest
from numpy.testing import assert_allclose

from sjdomains import domains, groups


def _dist(g1, g2):
    return max(np.max(np.abs(g1.sigma.as_matrix() - g2.sigma.as_matrix())),
               np.max(np.abs(g1.h.lam - g2.h.lam)),
               np.max(np.abs(g1.h.mu - g2.h.mu)),
               abs(g1.h.kappa - g2.h.kappa))


def _dist_star(g1, g2):
    return max(np.max(np.abs(g1.omega.as_matrix() - g2.omega.as_matrix())),
               np.max(np.abs(g1.alpha - g2.alpha)),
               abs(g1.varkappa - g2.varkappa))


def test_sp_element_validates_symplectic_relation():
    with pytest.raises(ValueError):
        groups.SpElement(np.eye(2), np.zeros((2, 2)), np.zeros((2, 2)), 2 * np.eye(2))


def test_sp_star_element_validates_relations():
    with pytest.raises(ValueError):
        groups.SpStarElement(2 * np.eye(1), np.zeros((1, 1)))


def test_group_axioms_both_models():
    for n in (1, 2, 3):
        for t in range(40):
            g1 = groups.random_jacobi(n, seed=3 * t)
            g2 = groups.random_jacobi(n, seed=3 * t + 1)
            g3 = groups.random_jacobi(n, seed=3 * t + 2)
            assert _dist(groups.jacobi_mul(groups.jacobi_mul(g1, g2), g3),
                         groups.jacobi_mul(g1, groups.jacobi_mul(g2, g3))) < 1e-9
            assert _dist(groups.jacobi_mul(g1, groups.jacobi_inv(g1)),
                         groups.JacobiElement.identity(n)) < 1e-9
            s1 = groups.theta_iso(groups.random_jacobi(n, seed=3 * t))
            s2 = groups.theta_iso(groups.random_jacobi(n, seed=3 * t + 1))
            s3 = groups.theta_iso(groups.random_jacobi(n, seed=3 * t + 2))
            assert _dist_star(
                groups.jacobi_star_mul(groups.jacobi_star_mul(s1, s2), s3),
                groups.jacobi_star_mul(s1, groups.jacobi_star_mul(s2, s3))) < 1e-9
            assert _dist_star(groups.jacobi_star_mul(s1, groups.jacobi_star_inv(s1)),
                              groups.JacobiStarElement.identity(n)) < 1e-9


def test_theta_is_homomorphism():
    for n in (1, 2):
        for t in range(40):
            g1 = groups.random_jacobi(n, seed=101 * n + 2 * t)
            g2 = groups.random_jacobi(n, seed=101 * n + 2 * t + 1)
            lhs = groups.theta_iso(groups.jacobi_mul(g1, g2))
            rhs = groups.jacobi_star_mul(groups.theta_iso(g1), groups.theta_iso(g2))
            assert _dist_star(lhs, rhs) < 1e-9


def test_theta_bijection():
    for n in (1, 2):
        for t in range(40):
            g = groups.random_jacobi(n, seed=11 * n + t)
            assert _dist(groups.theta_inv(groups.theta_iso(g)), g) < 1e-10
            gs = groups.theta_iso(groups.random_jacobi(n, seed=13 * n + t))
            assert _dist_star(groups.theta_iso(groups.theta_inv(gs)), gs) < 1e-10


def test_theta_of_identity():
    for n in (1, 2):
        assert _dist_star(groups.theta_iso(groups.JacobiElement.identity(n)),
                          groups.JacobiStarElement.identity(n)) == 0.0


def test_action_composition_space():
    for n in (1, 2):
        for t in range(30):
            y = domains.cayley_forward(
                domains.sample_sj_disk_point(n, 0.6, 0.8, seed=17 * n + t))
            g1 = groups.random_jacobi(n, seed=19 * n + 2 * t)
            g2 = groups.random_jacobi(n, seed=19 * n + 2 * t + 1)
            lhs = groups.act_sj_space(g1, groups.act_sj_space(g2, y))
            rhs = groups.act_sj_space(groups.jacobi_mul(g1, g2), y)
            assert np.max(np.abs(lhs.omega - rhs.omega)) < 1e-9
            assert np.max(np.abs(lhs.zeta - rhs.zeta)) < 1e-9


def test_action_composition_disk():
    for n in (1, 2):
        for t in range(30):
            x = domains.sample_sj_disk_point(n, 0.6, 0.8, seed=23 * n + t)
            s1 = groups.theta_iso(groups.random_jacobi(n, seed=29 * n + 2 * t))
            s2 = groups.theta_iso(groups.random_jacobi(n, seed=29 * n + 2 * t + 1))
            lhs = groups.act_sj_disk(s1, groups.act_sj_disk(s2, x))
            rhs = groups.act_sj_disk(groups.jacobi_star_mul(s1, s2), x)
            assert np.max(np.abs(lhs.w - rhs.w)) < 1e-9
            assert np.max(np.abs(lhs.z - rhs.z)) < 1e-9


def test_identity_acts_trivially():
    x = domains.sample_sj_disk_point(2, 0.6, 0.8, seed=0)
    moved = groups.act_sj_disk(groups.JacobiStarElement.identity(2), x)
    assert_allclose(moved.w, x.w)
    assert_allclose(moved.z, x.z)
    y = domains.cayley_forward(x)
    moved = groups.act_sj_space(groups.JacobiElement.identity(2), y)
    assert_allclose(moved.omega, y.omega)
    assert_allclose(moved.zeta, y.zeta)


def test_disk_action_preserves_model():
    # the bounded model is stable under the star group action
    for t in range(20):
        x = domains.sample_sj_disk_point(2, 0.7, 1.0, seed=t)
        gs = groups.theta_iso(groups.random_jacobi(2, scale=0.6, seed=t))
        moved = groups.act_sj_disk(gs, x)  # constructor revalidates membership
        assert np.max(np.abs(np.linalg.svd(moved.w, compute_uv=False))) < 1.0


# --- stacks: one implementation, the scalar API a batch of one ---

def _assert_jacobi_close(g, ref, rtol=1e-13, atol=0.0):
    assert_allclose(g.sigma.as_matrix(), ref.sigma.as_matrix(), rtol=rtol, atol=atol)
    for attr in ("lam", "mu", "kappa"):
        assert_allclose(getattr(g.h, attr), getattr(ref.h, attr), rtol=rtol, atol=atol)


def _assert_star_close(g, ref, rtol=1e-13):
    assert_allclose(g.omega.as_matrix(), ref.omega.as_matrix(), rtol=rtol)
    assert_allclose(g.alpha, ref.alpha, rtol=rtol)
    assert_allclose(g.varkappa, ref.varkappa, rtol=rtol)


def _stacks(n, count=60):
    return (groups.random_jacobi_batch(n, count, (3000, n, i)) for i in range(2))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_jacobi_sampler_batch_matches_per_seed(n):
    # one generator per stack: at each seed a batch of one is the scalar
    # element, whose (lam, mu, kappa) are the reference draws (S, then
    # (lam, mu), then kappa) bit for bit; a stack repeats at its entropy,
    # other entropy gives another stack, and every member is symplectic
    seeds = 3000 * n + np.arange(60)
    for seed in seeds:
        g = groups.random_jacobi(n, seed=seed)
        _assert_jacobi_close(groups.random_jacobi_batch(n, 1, seed)[0], g, rtol=0.0)
        rng = np.random.default_rng(seed)
        rng.standard_normal((2 * n, 2 * n))
        lam, mu = 0.5 * rng.standard_normal((2, n))
        assert np.array_equal(g.h.lam, lam) and np.array_equal(g.h.mu, mu)
        assert g.h.kappa == 0.5 * rng.standard_normal()
    g1, again, other = (groups.random_jacobi_batch(n, 60, entropy)
                        for entropy in (seeds[0], seeds[0], (seeds[0], 1)))
    _assert_jacobi_close(again, g1, rtol=0.0)
    assert not np.any(g1.h.lam == other.h.lam) and not np.any(g1.h.kappa == other.h.kappa)
    m, j = g1.sigma.as_matrix(), groups.symplectic_j(n)
    assert np.max(np.abs(np.swapaxes(m, -1, -2) @ j @ m - j)) <= groups.GROUP_TOL


@pytest.mark.parametrize("n", [1, 2, 3])
def test_group_laws_stack_match_batches_of_one(n):
    g1, g2 = _stacks(n)
    s1, s2 = groups.theta_iso(g1), groups.theta_iso(g2)
    stacked = {"mul": groups.jacobi_mul(g1, g2), "inv": groups.jacobi_inv(g1),
               "theta_inv": groups.theta_inv(s1)}
    stacked_s = {"mul": groups.jacobi_star_mul(s1, s2), "inv": groups.jacobi_star_inv(s1),
                 "theta": s1}
    for i in range(len(g1.h.kappa)):
        _assert_jacobi_close(stacked["mul"][i], groups.jacobi_mul(g1[i], g2[i]))
        _assert_jacobi_close(stacked["inv"][i], groups.jacobi_inv(g1[i]))
        _assert_jacobi_close(stacked["theta_inv"][i], groups.theta_inv(s1[i]))
        _assert_star_close(stacked_s["mul"][i], groups.jacobi_star_mul(s1[i], s2[i]))
        _assert_star_close(stacked_s["inv"][i], groups.jacobi_star_inv(s1[i]))
        _assert_star_close(stacked_s["theta"][i], groups.theta_iso(g1[i]))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_actions_stack_match_batches_of_one(n):
    g1, _ = _stacks(n)
    s1 = groups.theta_iso(g1)
    x = domains.sample_sj_disk_batch(n, 60, (3000, n, 2), 0.6, 0.8)
    y = domains.cayley_forward(x)
    gy, sx = groups.act_sj_space(g1, y), groups.act_sj_disk(s1, x)
    for i in range(60):
        one = groups.act_sj_space(g1[i], y[i])
        assert_allclose(gy.omega[i], one.omega, rtol=1e-13)
        assert_allclose(gy.zeta[i], one.zeta, rtol=1e-13)
        one = groups.act_sj_disk(s1[i], x[i])
        assert_allclose(sx.w[i], one.w, rtol=1e-13)
        assert_allclose(sx.z[i], one.z, rtol=1e-13)


# Validation at the batch boundary: one spoiled member of a stack of 100
# raises what the scalar constructor raises on it.

@pytest.mark.parametrize("at", [0, 37, 99])
def test_element_stacks_validate_every_member(at):
    g = groups.random_jacobi_batch(2, 100, 0)
    gs = groups.theta_iso(g)
    blocks = [getattr(g.sigma, name).copy() for name in "abcd"]
    blocks[0][at] *= 1.01
    with pytest.raises(ValueError):
        groups.SpElement(*(blk[at] for blk in blocks))
    with pytest.raises(ValueError):
        groups.SpElement(*blocks)
    p = gs.omega.p.copy()
    p[at] *= 1.01
    with pytest.raises(ValueError):
        groups.SpStarElement(p[at], gs.omega.q[at])
    with pytest.raises(ValueError):
        groups.SpStarElement(p, gs.omega.q)
    vk = np.array(gs.varkappa)
    vk[at] += 1e-9
    with pytest.raises(ValueError):
        groups.JacobiStarElement(gs.omega[at], gs.alpha[at], vk[at])
    with pytest.raises(ValueError):
        groups.JacobiStarElement(gs.omega, gs.alpha, vk)
