import numpy as np
import pytest
from numpy.testing import assert_allclose

from sjdomains import domains, groups, numkit


def test_disk_point_validation():
    with pytest.raises(ValueError):
        domains.SJDiskPoint(np.array([[1.2]]), np.zeros(1))  # outside the unit ball
    pt = domains.SJDiskPoint(np.array([[0.3 + 0.1j]]), np.array([0.5 - 0.2j]))
    assert pt.n == 1


def test_space_point_validation():
    with pytest.raises(ValueError):
        domains.SJSpacePoint(np.array([[1.0 - 0.5j]]), np.zeros(1))  # Im not positive
    pt = domains.SJSpacePoint(np.array([[0.4 + 1.1j]]), np.array([0.2 + 0.3j]))
    assert pt.n == 1


def test_points_symmetrized():
    mat = np.array([[0.1, 0.2], [0.0, 0.1]])
    pt = domains.SJDiskPoint(mat, np.zeros(2))
    assert_allclose(pt.w, pt.w.T)


def test_cayley_base_point():
    x = domains.SJDiskPoint(np.zeros((1, 1)), np.zeros(1))
    y = domains.cayley_forward(x)
    assert_allclose(y.omega, 1j * np.eye(1))
    assert_allclose(y.zeta, np.zeros(1))


def test_batch_cayley_matches_scalar():
    for n in (1, 2, 3):
        xs = [domains.sample_sj_disk_point(n, 0.85, 1.5, seed=2000 * n + t) for t in range(10)]
        oms, zetas = domains.batch_cayley_forward(np.stack([x.w for x in xs]),
                                                  np.stack([x.z for x in xs]))
        ws, zs = domains.batch_cayley_inverse(oms, zetas)
        for i, x in enumerate(xs):
            y = domains.cayley_forward(x)
            assert_allclose(oms[i], y.omega, rtol=1e-12, atol=1e-12)
            assert_allclose(zetas[i], y.zeta, rtol=1e-12, atol=1e-12)
            assert_allclose(ws[i], x.w, atol=1e-12)
            assert_allclose(zs[i], x.z, atol=1e-12)


def test_cayley_roundtrip():
    for n in (1, 2, 3):
        for t in range(80):
            x = domains.sample_sj_disk_point(n, 0.85, 1.5, seed=1000 * n + t)
            back = domains.cayley_inverse(domains.cayley_forward(x))
            assert np.max(np.abs(back.w - x.w)) < 1e-12
            assert np.max(np.abs(back.z - x.z)) < 1e-12


def test_cayley_roundtrip_space_side():
    for n in (1, 2):
        for t in range(40):
            y = domains.cayley_forward(
                domains.sample_sj_disk_point(n, 0.7, 1.0, seed=77 * n + t))
            forth = domains.cayley_forward(domains.cayley_inverse(y))
            assert np.max(np.abs(forth.omega - y.omega)) < 1e-12
            assert np.max(np.abs(forth.zeta - y.zeta)) < 1e-12


def test_imaginary_part_determinant_identity():
    # det Im(Omega) = det(1 - W conj(W)) / |det(1 - W)|^2
    for t in range(30):
        x = domains.sample_sj_disk_point(2, 0.7, 1.0, seed=t)
        y = domains.cayley_forward(x)
        lhs = np.linalg.det(y.omega.imag)
        gram = np.eye(2) - x.w @ x.w.conj()
        rhs = np.linalg.det(gram).real / abs(np.linalg.det(np.eye(2) - x.w)) ** 2
        assert_allclose(lhs, rhs, rtol=1e-11)


def test_cayley_equivariance():
    for n in (1, 2):
        for t in range(25):
            g = groups.random_jacobi(n, scale=0.5, seed=31 * n + t)
            x = domains.sample_sj_disk_point(n, 0.6, 0.8, seed=47 * n + t)
            lhs = domains.cayley_forward(groups.act_sj_disk(groups.theta_iso(g), x))
            rhs = groups.act_sj_space(g, domains.cayley_forward(x))
            assert np.max(np.abs(lhs.omega - rhs.omega)) < 1e-9
            assert np.max(np.abs(lhs.zeta - rhs.zeta)) < 1e-9


def test_json_point_roundtrip():
    x = domains.sample_sj_disk_point(2, 0.6, 0.8, seed=5)
    back = domains.json_to_point(domains.point_to_json(x))
    assert_allclose(back.w, x.w)
    assert_allclose(back.z, x.z)
    y = domains.cayley_forward(x)
    back = domains.json_to_point(domains.point_to_json(y))
    assert_allclose(back.omega, y.omega)
    assert_allclose(back.zeta, y.zeta)
    # a point is a matrix with its vector: a matrix alone is no encoding
    for half in ({"W": [[[0.2, 0.0]]]}, {"Omega": [[[0.0, 1.0]]]}):
        with pytest.raises(ValueError, match="unrecognized point encoding"):
            domains.json_to_point(half)


def test_complex_json_encoding():
    assert domains.complex_to_json(1 - 2j) == [1.0, -2.0]
    assert domains.json_to_complex([1.0, -2.0]) == 1 - 2j


# --- stacks: one implementation, the scalar API a batch of one ---

def _seeds(n):
    return 5000 * n + np.arange(60)


def _reference_disk_point(n, radius_cap, z_cap, seed):
    # one member's draws written out in their order: the real then imaginary
    # normals of W, then the radii then the phases of z
    rng = np.random.default_rng(seed)
    m = numkit.symmetrize(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    w = radius_cap * m / (1.0 + np.linalg.svd(m, compute_uv=False)[0])
    r = z_cap * np.sqrt(rng.random(n))
    return w, r * np.exp(2j * np.pi * rng.random(n))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_disk_sampler_batch_is_bitwise_per_seed(n):
    # one generator per stack: at each seed a batch of one is the scalar
    # draw and the reference draw bit for bit; a stack repeats at its
    # entropy, other entropy gives another stack, and every member meets
    # the caps
    for seed in _seeds(n):
        w, z = _reference_disk_point(n, 0.85, 1.5, seed)
        x = domains.sample_sj_disk_point(n, 0.85, 1.5, seed=seed)
        one = domains.sample_sj_disk_batch(n, 1, seed, 0.85, 1.5)
        assert np.array_equal(x.w, w) and np.array_equal(x.z, z)
        assert np.array_equal(one.w[0], w) and np.array_equal(one.z[0], z)
    first = _seeds(n)[0]
    xs, again, other = (domains.sample_sj_disk_batch(n, 60, entropy, 0.85, 1.5)
                        for entropy in (first, first, (first, 1)))
    assert np.array_equal(xs.w, again.w) and np.array_equal(xs.z, again.z)
    assert not np.any(xs.w == other.w) and not np.any(xs.z == other.z)
    assert np.all(np.linalg.svd(xs.w, compute_uv=False)[:, 0] < 0.85)
    assert np.all(np.abs(xs.z) < 1.5)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_chart_stack_matches_batches_of_one(n):
    xs = domains.sample_sj_disk_batch(n, 60, _seeds(n)[0], 0.85, 1.5)
    ys = domains.cayley_forward(xs)
    back = domains.cayley_inverse(ys)
    for i in range(60):
        y = domains.cayley_forward(xs[i])
        assert_allclose(ys.omega[i], y.omega, rtol=1e-13)
        assert_allclose(ys.zeta[i], y.zeta, rtol=1e-13)
        x = domains.cayley_inverse(ys[i])
        assert_allclose(back.w[i], x.w, rtol=1e-13)
        assert_allclose(back.z[i], x.z, rtol=1e-13)


# Validation at the batch boundary: a stack of 100 valid inputs with one
# member spoiled raises the exception type the scalar constructor raises on
# that member, wherever the member sits.

SPOILED_AT = (0, 37, 99)


def _raises_like_scalar(build_one, build_stack, bad, expected):
    with pytest.raises(expected):
        build_one(bad)
    with pytest.raises(expected):
        build_stack()


def _disk_stack(n=2):
    return domains.sample_sj_disk_batch(n, 100, n, 0.8, 1.0)


@pytest.mark.parametrize("at", SPOILED_AT)
@pytest.mark.parametrize("smax", [1.0 + 1e-9, 1.0 - 2e-13])
def test_disk_stack_certifies_every_member(at, smax):
    # 1 + 1e-9 is outside the domain; 1 - 2e-13 is inside it but within the
    # boundary margin (lambda_min of I - W conj(W) about 4e-13)
    xs = _disk_stack()
    ws, zs = xs.w.copy(), xs.z.copy()
    ws[at] = np.diag([smax, 0.3])
    domains.SJDiskPoint(np.delete(ws, at, axis=0), np.delete(zs, at, axis=0))
    _raises_like_scalar(lambda w: domains.SJDiskPoint(w, zs[at]),
                        lambda: domains.SJDiskPoint(ws, zs), ws[at], ValueError)


@pytest.mark.parametrize("at", SPOILED_AT)
@pytest.mark.parametrize("lam", [-0.5, 4e-13])
def test_space_stack_certifies_every_member(at, lam):
    ys = domains.cayley_forward(_disk_stack())
    oms = ys.omega.copy()
    oms[at] = np.diag([0.2 + 1j * lam, 1j])
    _raises_like_scalar(lambda om: domains.SJSpacePoint(om, ys.zeta[at]),
                        lambda: domains.SJSpacePoint(oms, ys.zeta), oms[at], ValueError)


@pytest.mark.parametrize("at", SPOILED_AT)
def test_chart_stack_guards_conditioning(at):
    # W = diag(1 - 6e-13, -0.9) lies in the domain beyond the margin, but
    # I - W has condition number 1.9 / 6e-13 > COND_GUARD
    xs = _disk_stack()
    ws = xs.w.copy()
    ws[at] = np.diag([1.0 - 6e-13, -0.9])
    bad = domains.SJDiskPoint(ws, xs.z)
    _raises_like_scalar(domains.cayley_forward, lambda: domains.cayley_forward(bad), bad[at],
                        numkit.IllConditionedError)
    ys = domains.cayley_forward(xs)
    oms = ys.omega.copy()
    oms[at] = np.diag([5e12j, 1j])  # Omega + iI has condition number 2.5e12
    bad = domains.SJSpacePoint(oms, ys.zeta)
    _raises_like_scalar(domains.cayley_inverse, lambda: domains.cayley_inverse(bad), bad[at],
                        numkit.IllConditionedError)
