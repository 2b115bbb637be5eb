import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
import scipy.linalg
from numpy.testing import assert_allclose

from sjdomains import discrete_series as ds
from sjdomains import domains, fockpoly, groups, numkit, quad


def test_as_row_vector_shapes():
    assert_allclose(numkit.as_row_vector(2.0).real, [2.0])
    assert_allclose(numkit.as_row_vector([1, 2, 3]).real, [1, 2, 3])
    assert numkit.as_row_vector(np.ones((2, 2))).shape == (4,)  # flattened
    with pytest.raises(ValueError):
        numkit.as_row_vector([1, 2, 3], n=2)


def test_symmetrize_is_projection():
    rng = np.random.default_rng(0)
    mat = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    sym = numkit.symmetrize(mat)
    assert_allclose(sym, sym.T)
    assert_allclose(numkit.symmetrize(sym), sym)


def test_solve_matches_numpy_and_flags_singular():
    rng = np.random.default_rng(1)
    mat = rng.normal(size=(3, 3)) + np.eye(3) * 3
    rhs = rng.normal(size=3)
    assert_allclose(numkit.solve(mat, rhs), np.linalg.solve(mat, rhs))
    with pytest.raises(np.linalg.LinAlgError):
        numkit.solve(np.zeros((2, 2)), np.ones(2))


def test_solve_guard_flags_ill_conditioned():
    with pytest.raises(numkit.IllConditionedError) as info:
        numkit.solve(np.diag([1.0, 1e-13]), np.ones(2))
    assert info.value.cond_estimate > 1e12


def test_solve_flags_exactly_singular():
    with pytest.raises(numkit.SingularMatrixError):
        numkit.solve(np.array([[1.0, 2.0], [2.0, 4.0]]), np.ones(2))


def test_solve_well_conditioned_complex():
    rng = np.random.default_rng(4)
    mat = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)) + 3 * np.eye(3)
    rhs = rng.normal(size=(3, 2)) + 1j * rng.normal(size=(3, 2))
    assert_allclose(numkit.solve(mat, rhs), np.linalg.solve(mat, rhs), rtol=1e-13)
    assert_allclose(numkit.solve(mat, rhs[:, 0]), np.linalg.solve(mat, rhs[:, 0]), rtol=1e-13)


def test_det_power_integer_matches_plain_power():
    rng = np.random.default_rng(2)
    mat = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)) + 4 * np.eye(3)
    det = np.linalg.det(mat)
    assert_allclose(numkit.det_power(mat, 3), det ** 3, rtol=1e-10)
    assert_allclose(numkit.det_power(mat, -2), det ** -2.0, rtol=1e-10)


def test_det_power_half_squares_to_det():
    rng = np.random.default_rng(3)
    base = rng.normal(size=(3, 3))
    mat = base @ base.T + np.eye(3)
    half = numkit.det_power(mat, 0.5)
    assert_allclose(half ** 2, np.linalg.det(mat), rtol=1e-10)


def test_posdef_certificate():
    ok, _ = numkit.posdef_certificate(np.eye(2))
    assert ok
    ok, lam = numkit.posdef_certificate(np.diag([1.0, -0.5]))
    assert not ok
    assert lam < 0


def test_multiindex_helpers():
    assert numkit.mi_factorial((3, 2)) == 12
    idx = list(numkit.enumerate_multiindices(2, 3))
    assert len(idx) == 10
    assert idx[0] == (0, 0)
    assert all(sum(s) <= 3 for s in idx)


def _full_matrix(n, upper):
    """The full symmetric matrix of the upper W-exponents, upper_pairs order."""
    full = np.zeros((n, n), dtype=int)
    for (i, j), v in zip(numkit.upper_pairs(n), upper):
        full[i, j] = full[j, i] = v
    return full


def test_symindex_counts_and_weights():
    # upper-triangle exponents of a symmetric 2x2 matrix power, as the flat
    # tuple that keys a PolyFunction term after its z-exponents
    a = (1, 2, 0)
    full = _full_matrix(2, a)
    assert full.sum() == 5  # full-matrix sum counts off-diagonals twice
    assert sum(a) == 3  # the polynomial degree counts them once
    assert_allclose(full, full.T)
    assert tuple(full[i, j] for i, j in numkit.upper_pairs(2)) == a
    f = fockpoly.PolyFunction.monomial(2, a=a)
    assert f.to_json()[0]["a"] == full.tolist()
    # sym_degree_list sorts by the full-matrix sum: a (sum 5) comes after
    # every label of full sum 4, (0, 2, 0) among them
    labels = fockpoly.sym_degree_list(2, 3)
    assert labels.index((0, 2, 0)) < labels.index(a)
    assert all(_full_matrix(2, b).sum() <= 5 for b in labels[:labels.index(a)])


def test_symindex_factorial_and_zero():
    zero = fockpoly.PolyFunction.constant(3, 1)
    assert list(zero.terms) == [(0,) * 9]
    upper = list(zero.terms)[0][3:]
    assert upper == (0,) * 6 == (0,) * len(numkit.upper_pairs(3))
    assert _full_matrix(3, upper).sum() == 0
    assert fockpoly.sym_degree_list(3, 0) == [(0,) * 6]
    assert _full_matrix(1, (4,)).sum() == 4
    assert fockpoly.PolyFunction.monomial(1, a=(4,)).to_json()[0]["a"] == [[4]]


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 4), st.integers(0, 2 ** 31 - 1))
def test_solve_roundtrip_property(n, seed):
    rng = np.random.default_rng(seed)
    mat = rng.normal(size=(n, n)) + n * np.eye(n)
    rhs = rng.normal(size=(n, n))
    sol = numkit.solve(mat, rhs)
    assert np.max(np.abs(mat @ sol - rhs)) < 1e-8


@pytest.mark.parametrize("n", [1, 2, 3])
def test_matrix_exp_matches_scipy_on_hamiltonian_stacks(n):
    # exp(J S) for the random symmetric S of random_jacobi_batch, as one
    # stack, against scipy's expm one member at a time; the results are
    # symplectic
    s = 0.5 * np.random.default_rng(n).standard_normal((200, 2 * n, 2 * n))
    jmat = groups.symplectic_j(n)
    ham = jmat @ numkit.symmetrize(s).real
    got = numkit.matrix_exp(ham)
    ref = np.array([scipy.linalg.expm(h) for h in ham])
    scale = np.max(np.abs(ref), axis=(1, 2))[:, None, None]
    assert np.all(np.abs(got - ref) <= 1e-13 * scale)
    sig = got.real
    assert np.max(np.abs(np.swapaxes(sig, 1, 2) @ jmat @ sig - jmat)) <= 1e-14


def test_matrix_exp_squares_each_member_by_its_own_scale():
    # rotations exp(t J) and boosts, in closed form, at norms that need 0 to
    # 3 squarings in one stack; each member equals its batch of one, bit for
    # bit, whatever the other members' norms
    ts = np.array([0.3, 3.0, 10.0, 30.0])
    jmat = groups.symplectic_j(1)
    ham = np.array([t * jmat for t in ts] + [t * jmat @ np.diag([1.0, -1.0]) for t in ts])
    rot = [[[np.cos(t), np.sin(t)], [-np.sin(t), np.cos(t)]] for t in ts]
    boost = [[[np.cosh(t), -np.sinh(t)], [-np.sinh(t), np.cosh(t)]] for t in ts]
    exact = np.array(rot + boost)
    got = numkit.matrix_exp(ham)
    scale = np.max(np.abs(exact), axis=(1, 2))[:, None, None]
    assert np.all(np.abs(got - exact) <= 1e-13 * scale)
    for member, alone in zip(got, map(numkit.matrix_exp, ham)):
        assert np.array_equal(member, alone)


# --- the stack elimination ---

def _polydisk_w(n, edge):
    """The symmetric W with sigma_max(W) < 1 among 20000 with independent
    uniform unit-disk upper entries (all of them at n = 1, a few dozen at
    n = 3), or the same W rescaled to sigma_max(W) = 1 - 1e-10."""
    rng = np.random.default_rng(n)
    shape = (20000, len(numkit.upper_pairs(n)))
    radii = np.sqrt(rng.uniform(size=shape))
    entries = radii * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, size=shape))
    ws = np.zeros((20000, n, n), dtype=complex)
    for p, (i, j) in enumerate(numkit.upper_pairs(n)):
        ws[:, i, j] = ws[:, j, i] = entries[:, p]
    smax = np.linalg.svd(ws, compute_uv=False)[:, 0]
    ws, smax = ws[smax < 1], smax[smax < 1]
    return ws * ((1.0 - 1e-10) / smax)[:, None, None] if edge else ws


def _random_rows(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _forward_reference(ws, zs):
    eye = np.eye(ws.shape[-1])
    inv = np.linalg.inv(eye - ws)
    return 1j * (eye + ws) @ inv, 2j * numkit.vecmat(zs, inv)


def _inverse_reference(oms, zetas):
    eye = np.eye(oms.shape[-1])
    inv = np.linalg.inv(oms + 1j * eye)
    return (oms - 1j * eye) @ inv, numkit.vecmat(zetas, inv)


def _inf_norm(a):
    return np.max(np.sum(np.abs(a), axis=-1), axis=-1)


def _assert_close_per_member(got, ref, rtol):
    # normwise per stack member: entries near zero carry the roundoff of the
    # member's largest entry
    axes = tuple(range(1, np.ndim(ref)))
    err = np.max(np.abs(got - ref), axis=axes)
    assert np.all(err <= rtol * np.max(np.abs(ref), axis=axes))


def _z_covariances(ws):
    """The real covariances of the z-laws (quad._z_moments) at each W and at
    -W, the law of the flipped weight."""
    n = ws.shape[-1]
    out = []
    for sign in (1.0, -1.0):
        c, d = quad._z_moments(sign * ws, 0.25)
        eye = d * np.eye(n)
        out.append(0.5 * np.block([[eye + c.real, c.imag], [c.imag, eye - c.real]]))
    return out


@pytest.mark.parametrize("edge", [False, True])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_eliminate_matches_lapack_on_the_chart_matrices(n, edge):
    # the matrices the Monte Carlo path eliminates: normwise backward error
    # at roundoff, the solution within cond eps of LAPACK's, and the pivot
    # product within cond eps of LAPACK's determinant.  scipy's det is the
    # product of LAPACK's LU pivots; np.linalg.det goes through
    # exp(log |det|), which costs |log det| ulps on its own
    ws = _polydisk_w(n, edge)
    eye = np.eye(n)
    om = numkit.symmetrize(_forward_reference(ws, np.zeros(ws.shape[:-1]))[0])
    rng = np.random.default_rng(7)
    for a in (eye - ws, om + 1j * eye, eye - 1j * om, om.imag):
        b = _random_rows(rng, a.shape[:-1] + (2,))
        b = b if np.iscomplexobj(a) else b.real
        x, lu = numkit.eliminate(a, b)
        backward = _inf_norm(a @ x - b) / (_inf_norm(a) * _inf_norm(x) + _inf_norm(b))
        assert np.max(backward) <= 2e-15
        cond = np.linalg.cond(a)
        ref = np.linalg.solve(a, b)
        assert np.all(_inf_norm(x - ref) <= 1e-15 * cond * _inf_norm(ref))
        det_ref = scipy.linalg.det(a)
        assert np.all(np.abs(numkit.lu_det(lu) - det_ref) <= 1e-15 * cond * np.abs(det_ref))


@pytest.mark.parametrize("edge", [False, True])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_spd_cholesky_matches_lapack(n, edge):
    # the z-covariances of both laws and Im Omega: the factor reproduces its
    # matrix to roundoff, and stays within 1e-14 cond of LAPACK's factor,
    # relative to its largest entry (cond grows like 1 / (1 - sigma_max(W)))
    ws = _polydisk_w(n, edge)
    om = _forward_reference(ws, np.zeros(ws.shape[:-1]))[0]
    for a in _z_covariances(ws) + [numkit.symmetrize(om).imag]:
        low = numkit.spd_cholesky(a)
        assert np.array_equal(low, np.tril(low))
        backward = _inf_norm(low @ numkit.transpose(low) - a) / _inf_norm(a)
        assert np.max(backward) <= 2e-15
        ref = np.linalg.cholesky(a)
        err = np.max(np.abs(low - ref), axis=(1, 2)) / np.max(np.abs(ref), axis=(1, 2))
        assert np.all(err <= 1e-14 * np.linalg.cond(a))


@pytest.mark.parametrize("edge", [False, True])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_batch_charts_match_the_lapack_reference(n, edge):
    ws = _polydisk_w(n, edge)
    zs = _random_rows(np.random.default_rng(8), ws.shape[:-1])
    oms, zetas = _forward_reference(ws, zs)
    for got, ref in zip(domains.batch_cayley_forward(ws, zs), (oms, zetas)):
        _assert_close_per_member(got, ref, 1e-12)
    for got, ref in zip(domains.batch_cayley_inverse(oms, zetas), _inverse_reference(oms, zetas)):
        _assert_close_per_member(got, ref, 1e-12)
    # one point is the stack with no leading axis
    one = domains.batch_cayley_forward(ws[0], zs[0])
    _assert_close_per_member(one[0][None], oms[:1], 1e-12)
    _assert_close_per_member(one[1][None], zetas[:1], 1e-12)


def _transfer_carriers():
    def disk_split(ws, zs):
        return 1.0 + np.sum(zs, axis=-1) * np.trace(ws, axis1=-2, axis2=-1), np.zeros(len(ws))

    def space_split(oms, zetas):
        vals = np.exp(1j * np.trace(oms, axis1=-2, axis2=-1)) * (1.0 + numkit.vecvec(zetas, zetas))
        return vals, np.zeros(len(oms))

    return ds.SampledFunction(disk_split, "disk"), ds.SampledFunction(space_split, "space")


@pytest.mark.parametrize("edge", [False, True])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_transfer_splits_match_the_lapack_reference(n, edge):
    # t_star and t_inv against their arithmetic with np.linalg.solve and det,
    # at the points of the (separately tested) batch charts.  The exponent
    # scale * q is known to a relative roundoff, so its absolute error, and
    # the phase error of the mantissa exp(i scale Im q), grow with |scale q|
    m, k, eye = 0.25, n + 2, np.eye(n)
    psi, phi = _transfer_carriers()
    ws = _polydisk_w(n, edge)
    zs = _random_rows(np.random.default_rng(9), ws.shape[:-1])
    oms, zetas = domains.batch_cayley_forward(ws, zs)
    pre_ws, pre_zs = domains.batch_cayley_inverse(oms, zetas)
    cases = [(ds.t_star(psi, m, k).split(oms, zetas), eye - pre_ws, pre_zs,
              psi.split(pre_ws, pre_zs)[0], 4.0 * np.pi * m),
             (ds.t_inv(phi, m, k).split(ws, zs), eye - 1j * oms, zetas,
              phi.split(oms, zetas)[0] * 2.0 ** (-n * k), 2.0 * np.pi * m)]
    for (mant, logs), mats, vecs, vals, scale in cases:
        sol = np.linalg.solve(numkit.transpose(mats), vecs[:, :, None])[:, :, 0]
        exponent = scale * np.einsum("bi,bi->b", vecs, sol)
        ref = vals * np.linalg.det(mats) ** k * np.exp(1j * exponent.imag)
        tol = 1e-12 * (1.0 + np.abs(exponent))
        assert np.all(np.abs(mant - ref) <= tol * np.abs(ref))
        assert np.all(np.abs(logs - exponent.real) <= tol)


_GUARDED = ("inv", "det", "solve", "cholesky")


def _refuse_stacks(monkeypatch, limit=64):
    """Make np.linalg's batched solvers raise on a stack of more than limit
    members, where they would make one LAPACK call per member."""
    for name in _GUARDED:
        original = getattr(np.linalg, name)

        def guarded(a, *args, _name=name, _original=original, **kwargs):
            members = int(np.prod(np.shape(a)[:-2]))
            if members > limit:
                raise AssertionError(f"np.linalg.{_name} on a stack of {members} matrices")
            return _original(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, guarded)


def test_refuse_stacks_guard_trips():
    with pytest.MonkeyPatch.context() as patch:
        _refuse_stacks(patch)
        for name in _GUARDED:
            for count in (64, 65):
                args = [np.tile(np.eye(2), (count, 1, 1))] * (2 if name == "solve" else 1)
                if count > 64:
                    with pytest.raises(AssertionError):
                        getattr(np.linalg, name)(*args)
                else:
                    getattr(np.linalg, name)(*args)


@pytest.mark.parametrize("n", [1, 2])
def test_monte_carlo_path_makes_no_lapack_call_per_member(n, monkeypatch):
    m, k = 0.25, 3
    e1 = (1,) + (0,) * (n - 1)
    a1 = (1,) + (0,) * (len(numkit.upper_pairs(n)) - 1)
    family = fockpoly.PolyFamily([fockpoly.PolyFunction.constant(n, 1.0),
                                  fockpoly.PolyFunction.monomial(n, e1),
                                  fockpoly.PolyFunction.monomial(n, a=a1)])
    ws = _polydisk_w(n, False)[:500]
    zs = _random_rows(np.random.default_rng(10), ws.shape[:-1])
    _refuse_stacks(monkeypatch)
    if n == 1:
        # the Monte Carlo Gram, which samples at n = 1 only
        gram, _, stats = quad.mc_dj_gram(family, m, k, quad.MCConfig(samples=20000, seed=0))
        assert stats["samples"] > 64 and np.all(np.isfinite(gram))
    oms, zetas = domains.batch_cayley_forward(ws, zs)
    vals, logs = ds.t_star(family, m, k).split(oms, zetas)
    assert vals.shape == (3, len(ws)) and np.all(np.isfinite(vals)) and np.all(np.isfinite(logs))
    ds.t_inv(_transfer_carriers()[1], m, k).split(ws, zs)
