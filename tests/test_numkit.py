import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
import scipy.linalg
from numpy.testing import assert_allclose

from sjdomains import groups, numkit


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


def test_symindex_counts_and_weights():
    # upper-triangle exponents of a symmetric 2x2 matrix power
    a = numkit.SymIndex(2, (1, 2, 0))
    assert a.total() == 5  # full-matrix sum counts off-diagonals twice
    full = a.full()
    assert_allclose(full, full.T)
    assert numkit.SymIndex.from_full(full) == a


def test_symindex_factorial_and_zero():
    zero = numkit.SymIndex.zero(3)
    assert zero.upper == (0,) * 6
    assert zero.total() == 0
    assert numkit.SymIndex(1, (4,)).total() == 4


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
    s = 0.5 * np.array([np.random.default_rng(t).standard_normal((2 * n, 2 * n))
                        for t in range(200)])
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
