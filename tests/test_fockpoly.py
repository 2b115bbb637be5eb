import ast
import itertools
import math
import pathlib

import numpy as np
import pytest
from numpy.testing import assert_allclose

from sjdomains import domains, fockpoly, kernels, numkit
from sjdomains.domains import SJDiskPoint
from sjdomains.fockpoly import MATCHING_M, PolyFunction

M, K = 0.25, 3


def test_p_s_hand_values():
    # P_(1) = Z, P_(2) = Z^2 + W, P_(3) = Z^3 + 3 Z W
    z = np.array([0.7 - 0.2j])
    w = np.array([[0.3 + 0.1j]])
    assert_allclose(fockpoly.p_s((1,)).evaluate(z, w), z[0])
    assert_allclose(fockpoly.p_s((2,)).evaluate(z, w), z[0] ** 2 + w[0, 0])
    assert_allclose(fockpoly.p_s((3,)).evaluate(z, w), z[0] ** 3 + 3 * z[0] * w[0, 0])
    assert_allclose(fockpoly.p_s((2,)).evaluate(np.array([1.0]),
                                                np.array([[0.5]])), 1.5)


def test_p_s_exact_coefficients():
    assert fockpoly.p_s((6,)).has_exact_coeffs()
    assert fockpoly.p_s((2, 1)).has_exact_coeffs()


def _explicit_p_s(s):
    # the paper's explicit sum over symmetric indices a with w(a) <= s:
    # P_s = sum s! / (2^ahat a! (s - w(a))!) Z^{s - w(a)} W^a, where
    # w(a)_k = sum_j a_kj + a_kk and ahat = trace a; plain ints throughout
    n = len(s)
    pairs = [(i, j) for i in range(n) for j in range(i, n)]
    ranges = [range(min(s[i], s[j]) // (2 if i == j else 1) + 1) for i, j in pairs]
    terms = {}
    for upper in itertools.product(*ranges):
        weight = [0] * n
        for (i, j), v in zip(pairs, upper):
            weight[i] += v
            weight[j] += v
        if any(wk > sk for wk, sk in zip(weight, s)):
            continue
        ahat = sum(v for (i, j), v in zip(pairs, upper) if i == j)
        t = tuple(sk - wk for sk, wk in zip(s, weight))
        den = 2 ** ahat * math.prod(map(math.factorial, upper + t))
        num = math.prod(map(math.factorial, s))
        assert num % den == 0
        terms[(t, upper)] = num // den
    return terms


@pytest.mark.parametrize("n,s_max", [(1, 8), (2, 6), (3, 4)])
def test_p_s_is_the_explicit_sum(n, s_max):
    for s in fockpoly.enumerate_multiindices(n, s_max):
        got = {(e[:n], e[n:]): c for e, c in fockpoly.p_s(s).terms.items()}
        assert all(type(c) is int for c in got.values())
        assert got == _explicit_p_s(s)


def test_sym_degree_list_order():
    # the q_basis Cholesky order and the series-gram labels depend on it
    assert fockpoly.sym_degree_list(2, 2) == [
        (0, 0, 0), (0, 0, 1), (1, 0, 0), (0, 0, 2), (0, 1, 0), (1, 0, 1), (2, 0, 0),
        (0, 1, 1), (1, 1, 0), (0, 2, 0)]
    assert fockpoly.sym_degree_list(3, 1) == [
        (0, 0, 0, 0, 0, 0), (0, 0, 0, 0, 0, 1), (0, 0, 0, 1, 0, 0), (1, 0, 0, 0, 0, 0),
        (0, 0, 0, 0, 1, 0), (0, 0, 1, 0, 0, 0), (0, 1, 0, 0, 0, 0)]


def test_terms_are_keyed_by_flat_exponent_tuples():
    # the key of z^s W^a is s + a, the upper W-exponents in upper_pairs
    # order: the row format of PolyFamily.exponents
    f = PolyFunction.monomial(2, s=(1, 0), a=(1, 2, 0), coeff=3)
    assert f.terms == {(1, 0, 1, 2, 0): 3}
    assert PolyFunction.constant(3, 1).terms == {(0,) * 9: 1}
    assert fockpoly.PolyFamily([f]).exponents[-1].tolist() == [1, 0, 1, 2, 0]
    z, w = np.array([0.3, -0.2j]), np.array([[0.5, 0.1 + 0.2j], [0.1 + 0.2j, 0.7]])
    assert_allclose(f.evaluate(z, w), 3 * z[0] * w[0, 0] * w[0, 1] ** 2, rtol=1e-15)
    # W_01 and W_10 are one variable, at offset n + 1
    assert f.dw(0, 1) == f.dw(1, 0) == PolyFunction.monomial(2, (1, 0), (1, 1, 0), 6)
    # the JSON a is the full symmetric matrix, whose sum 5 counts W_01
    # twice; the polynomial degree of W^a is 3
    assert f.to_json()[0]["a"] == [[1, 2], [2, 0]]
    # sym_degree_list sorts by that full sum: (3, 0, 0) (sum 3) before
    # (0, 2, 0) (sum 4, degree 2) before (1, 2, 0)
    labels = fockpoly.sym_degree_list(2, 3)
    assert labels.index((3, 0, 0)) < labels.index((0, 2, 0)) < labels.index((1, 2, 0))


def test_generating_function_matches_recursion():
    for s in fockpoly.enumerate_multiindices(1, 8):
        assert (fockpoly.p_s(tuple(s)) - fockpoly.p_s_from_generating(tuple(s))).is_zero()
    for s in fockpoly.enumerate_multiindices(2, 4):
        assert (fockpoly.p_s(tuple(s)) - fockpoly.p_s_from_generating(tuple(s))).is_zero()
    for s in fockpoly.enumerate_multiindices(3, 4):
        assert (fockpoly.p_s(tuple(s)) - fockpoly.p_s_from_generating(tuple(s))).is_zero()


def test_poly_algebra_is_pointwise():
    rng = np.random.default_rng(3)
    f = fockpoly.p_s((2, 1))
    g = fockpoly.p_s((1, 1))
    for _ in range(10):
        x = domains.sample_sj_disk_point(2, 0.6, 0.9, seed=int(rng.integers(2 ** 31)))
        fv, gv = f.evaluate(x.z, x.w), g.evaluate(x.z, x.w)
        assert_allclose((f + g).evaluate(x.z, x.w), fv + gv, rtol=1e-12)
        assert_allclose((f * g).evaluate(x.z, x.w), fv * gv, rtol=1e-12)
        assert_allclose((f * (0.5 - 2j)).evaluate(x.z, x.w), fv * (0.5 - 2j), rtol=1e-12)


def test_poly_derivatives():
    # d/dz of Z^2 + W is 2 Z; d/dW of Z^2 + W is 1
    p = fockpoly.p_s((2,))
    z = np.array([0.4 + 0.3j])
    assert_allclose(p.dz(0).evaluate(z, np.zeros((1, 1))), 2 * z[0])
    assert_allclose(p.dw(0, 0).evaluate(z, np.zeros((1, 1))), 1.0)


def test_poly_batch_evaluation_matches_scalar():
    f = fockpoly.basis_f((2, 1), M)
    zs = np.array([[0.1 + 0.2j, -0.3j], [0.5, 0.2 - 0.1j]])
    ws = np.stack([0.1 * np.eye(2), np.array([[0.2, 0.1j], [0.1j, -0.3]])])
    vals = fockpoly.PolyFamily([f]).split(ws, zs)[0][0]
    for i in range(2):
        assert_allclose(vals[i], f.evaluate(zs[i], ws[i]), rtol=1e-12)


def _per_term(f, zs, ws):
    """Reference: f at each point as the sum of its terms, each term the
    coefficient times the powers of the entries it involves."""
    out = np.zeros(len(zs), dtype=complex)
    for key, c in f.terms.items():
        s, a = key[:f.n], key[f.n:]
        val = np.full(len(zs), complex(c))
        for i, e in enumerate(s):
            val = val * zs[:, i] ** e
        for (i, j), e in zip(numkit.upper_pairs(f.n), a):
            val = val * ws[:, i, j] ** e
        out += val
    return out


@pytest.mark.parametrize("n,k", [(1, 3), (2, 3), (3, 4)])
def test_family_evaluation_matches_per_term_sums(n, k):
    # the series basis F_sa (|s| <= 3, deg q_a <= 2) evaluated together from
    # one monomial table, against the per-term sums, at 50 points
    funcs = [f for _, f in fockpoly.series_basis(n, M, k, s_max=3, a_max=2)]
    x = domains.sample_sj_disk_batch(n, 50, n, 0.6, 0.8)
    vals, logs = fockpoly.PolyFamily(funcs).split(x.w, x.z)
    assert vals.shape == (len(funcs), 50) and np.all(logs == 0)
    for f, got in zip(funcs, vals):
        assert_allclose(got, _per_term(f, x.z, x.w), rtol=1e-13, atol=0)
        assert_allclose(fockpoly.PolyFamily([f]).split(x.w, x.z)[0][0], got, rtol=1e-13, atol=0)


def test_poly_json_roundtrip():
    # the JSON terms carry every (s, a, c) of the polynomial
    f = fockpoly.basis_f((2, 0), M) + fockpoly.basis_f((0, 1), M) * (1 - 1j)
    back = PolyFunction(2, {tuple(item["s"]) + tuple(item["a"][i][j] for i, j in
                                                     numkit.upper_pairs(2)): item["c"]
                            for item in f.to_json()})
    assert all(item["a"] == np.transpose(item["a"]).tolist() for item in f.to_json())
    assert (f - back).is_zero()


def test_heat_system_exact_on_scaled_basis():
    for s in fockpoly.enumerate_multiindices(1, 8):
        assert fockpoly.pde_check(fockpoly.basis_f_scaled(tuple(s), M), M) == 0.0
    for s in fockpoly.enumerate_multiindices(2, 4):
        assert fockpoly.pde_check(fockpoly.basis_f_scaled(tuple(s), M), M) == 0.0


def test_heat_system_float_basis_small():
    worst = max(fockpoly.pde_check(fockpoly.basis_f(tuple(s), M), M)
                for s in fockpoly.enumerate_multiindices(1, 8))
    assert worst < 1e-10


def _pairs(n, seed, count):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        yield (domains.sample_sj_disk_point(n, 0.25, 0.3, seed=int(rng.integers(2 ** 31))),
               domains.sample_sj_disk_point(n, 0.25, 0.3, seed=int(rng.integers(2 ** 31))))


def _graded_partials(n, max_degree, term):
    partials, total = [], 0j
    for d in range(max_degree + 1):
        for s in fockpoly.enumerate_multiindices(n, d):
            if sum(s) == d:
                total += term(tuple(s))
        partials.append(total)
    return partials


def test_matching_expansion_fixed_point():
    # both sides equal (1 - 0.3^2)^(-1/2) at the coincident real point
    point = SJDiskPoint(0.3 * np.eye(1), np.zeros(1))
    res = fockpoly.expansion_fock_full(point, point, MATCHING_M, 20)
    assert abs(res.value - 0.91 ** -0.5) < 1e-8
    closed = kernels.kmk_star_kernel(point, point, MATCHING_M, 0.5)
    assert_allclose(closed, 0.91 ** -0.5, rtol=1e-14)


@pytest.mark.parametrize("n", [1, 2])
def test_expansions_converge_on_safe_pairs(n):
    degree = 12
    for xp, x in _pairs(n, 10 + n, 5):
        # matching (m = MATCHING_M), fixed W (W' = W) and full Fock kernels
        for pair_xp, m in ((xp, MATCHING_M), (SJDiskPoint(x.w, xp.z), M), (xp, M)):
            res = fockpoly.expansion_fock_full(pair_xp, x, m, degree)
            closed = kernels.kmk_star_kernel(pair_xp, x, m, 0.5)
            assert abs(res.value - closed) < 1e-5


@pytest.mark.parametrize("n", [1, 2, 3])
def test_matching_instance_is_the_p_s_sum(n):
    # at m = MATCHING_M the Fock expansion is sum P_s(z', W') conj P_s(z, W) / s!
    assert 8.0 * math.pi * MATCHING_M == 1.0
    max_degree = 6 if n < 3 else 4
    for xp, x in _pairs(n, 40 + n, 3):
        res = fockpoly.expansion_fock_full(xp, x, MATCHING_M, max_degree)
        direct = _graded_partials(n, max_degree, lambda s: (
            fockpoly.p_s(s).evaluate(xp.z, xp.w) * np.conj(fockpoly.p_s(s).evaluate(x.z, x.w))
            / numkit.mi_factorial(s)))
        assert_allclose(res.partials, direct, rtol=1e-12)


@pytest.mark.parametrize("n", [1, 2])
def test_fixed_w_instance_is_the_basis_phi_sum(n):
    # basis_phi(W, s, m)(z) = f_s(W, z), so the W' = W Fock expansion is the
    # fixed-W expansion over basis_phi
    max_degree = 6 if n == 1 else 4
    for xp, x in _pairs(n, 50 + n, 3):
        for s in fockpoly.enumerate_multiindices(n, max_degree):
            s = tuple(s)
            assert_allclose(fockpoly.basis_phi(x.w, s, M).evaluate(x.z),
                            fockpoly.basis_f(s, M).evaluate(x.z, x.w), rtol=1e-12)
        res = fockpoly.expansion_fock_full(SJDiskPoint(x.w, xp.z), x, M,
                                           max_degree)
        direct = _graded_partials(n, max_degree, lambda s: (
            fockpoly.basis_phi(x.w, s, M).evaluate(xp.z)
            * np.conj(fockpoly.basis_phi(x.w, s, M).evaluate(x.z))))
        assert_allclose(res.partials, direct, rtol=1e-12)


def test_discrete_kernel_constant_value():
    # n = 1: 8 m (k - 3/2)
    assert_allclose(fockpoly.discrete_kernel_constant(M, K, 1), 3.0)


def test_discrete_kernel_constant_n1_closed_form():
    # (8 pi m)^n / mass reads 8 m (k - 3/2) at n = 1, to roundoff
    for m in (0.05, 0.25, 1.0, 4.0):
        for k in range(2, 40):
            ref = 8.0 * m * (k - 1.5)
            assert abs(fockpoly.discrete_kernel_constant(m, k, 1) - ref) <= 1e-15 * ref


@pytest.mark.parametrize("k", [3, 5])
def test_discrete_kernel_expansion_n2(k):
    # sum F conj(F) over |s| <= 14, deg q_a <= 8 against rho kmk_star_kernel
    degree = 14
    for xp, x in _pairs(2, 80 + k, 5):
        res = fockpoly.expansion_discrete_kernel(xp, x, M, k, degree, a_max=8)
        closed = (fockpoly.discrete_kernel_constant(M, k, 2)
                  * kernels.kmk_star_kernel(xp, x, M, k))
        assert abs(res.value - closed) / abs(closed) < 1e-6


def test_discrete_kernel_expansion():
    degree = 12
    for xp, x in _pairs(1, 30, 5):
        res = fockpoly.expansion_discrete_kernel(xp, x, M, K, degree, a_max=12)
        closed = (fockpoly.discrete_kernel_constant(M, K, 1)
                  * kernels.kmk_star_kernel(xp, x, M, K))
        assert abs(res.value - closed) / abs(closed) < 1e-5


def test_discrete_expansion_is_the_big_f_double_sum():
    # the factored sum equals sum_{s,a} F_sa(x') conj F_sa(x), grade by grade
    s_max, a_max = 4, 2
    qs = fockpoly.q_basis(1, K, a_max)
    for xp, x in _pairs(1, 60, 3):
        res = fockpoly.expansion_discrete_kernel(xp, x, M, K, s_max, a_max)
        direct = _graded_partials(1, s_max, lambda s: sum(
            big_f.evaluate(xp.z, xp.w) * np.conj(big_f.evaluate(x.z, x.w))
            for big_f in (fockpoly.basis_big_f(s, q, M) for q in qs)))
        assert_allclose(res.partials, direct, rtol=1e-12)


def test_q_basis_closed_form_n1():
    from scipy.special import beta as beta_fn
    qs = fockpoly.q_basis(1, K, 3)
    w = np.array([[0.4 - 0.2j]])
    for a, q in enumerate(qs):
        expect = w[0, 0] ** a / math.sqrt(math.pi * beta_fn(a + 1, K - 1.5))
        assert_allclose(q.evaluate(None, w), expect, rtol=1e-12)


def test_bergman_mass_n1():
    # pi B(1, k - 3/2) = pi / (k - 3/2)
    for k in (2, 3, 4.5, 10):
        assert_allclose(fockpoly.bergman_mass(1, k), math.pi / (k - 1.5), rtol=1e-15)


def _monomial_gram(n, k, degree):
    """The Gram of the W-monomials, labels of sym_degree_list, that makes
    q_basis orthonormal: C G t(C) = I for the coefficient matrix C of the
    basis, so G = inv(C) inv(t(C))."""
    labels = fockpoly.sym_degree_list(n, degree)
    zero = (0,) * n
    coef = np.array([[q.terms.get(zero + a, 0.0) for a in labels] for q in
                     fockpoly.q_basis(n, k, degree)])
    inv = np.linalg.inv(coef)
    return labels, inv @ inv.T


def _fk_monomial_gram(n, k, degree):
    """fockpoly.fk_gram's blocks as one Gram over the labels of
    sym_degree_list, zero between degrees."""
    labels = fockpoly.sym_degree_list(n, degree)
    gram = np.zeros((len(labels), len(labels)))
    for d, block in enumerate(fockpoly.fk_gram(n, k, degree)):
        at = [p for p, a in enumerate(labels) if sum(a) == d]
        gram[np.ix_(at, at)] = block
    return labels, gram


def test_q_basis_exact_gram_n2():
    # n = 2, k = 3, over the mass: Hua's law in the upper entries, both the
    # Gram that makes q_basis orthonormal and the Faraut-Koranyi one
    labels = fockpoly.sym_degree_list(2, 2)
    at = {a: p for p, a in enumerate(labels)}
    w11, w12, w22 = (1, 0, 0), (0, 1, 0), (0, 0, 1)
    target = np.zeros((len(labels), len(labels)))
    target[0, 0] = 1.0
    for a, v in [(w11, 2 / 5), (w22, 2 / 5), (w12, 1 / 5), ((2, 0, 0), 8 / 35),
                 ((0, 0, 2), 8 / 35), ((1, 1, 0), 2 / 35), ((0, 1, 1), 2 / 35),
                 ((1, 0, 1), 6 / 35), ((0, 2, 0), 1 / 14)]:
        target[at[a], at[a]] = v
    target[at[1, 0, 1], at[0, 2, 0]] = target[at[0, 2, 0], at[1, 0, 1]] = -1 / 35
    for source in (_monomial_gram, _fk_monomial_gram):
        got, gram = source(2, 3, 2)
        assert got == labels
        assert np.max(np.abs(gram / fockpoly.bergman_mass(2, 3) - target)) <= 1e-14


@pytest.mark.parametrize("n,degree", [(1, 4), (2, 4), (3, 2)])
def test_k_types_fill_every_degree(n, degree):
    # the K-types of each degree, each collected up to its Weyl dimension,
    # together span all the monomials of that degree
    labels = fockpoly.sym_degree_list(n, degree)
    for d in range(degree + 1):
        fischer, types = fockpoly._k_types(n, d)
        assert sum(len(basis) for _, basis in types) == len(fischer) == sum(
            sum(a) == d for a in labels)


def test_fockpoly_does_not_import_quad():
    # the polynomial engine stands below the quadrature layer
    names = set()
    for node in ast.walk(ast.parse(pathlib.Path(fockpoly.__file__).read_text())):
        if isinstance(node, ast.ImportFrom):
            names |= {node.module or ""} | {a.name for a in node.names}
        elif isinstance(node, ast.Import):
            names |= {a.name for a in node.names}
    assert "numkit" in names
    assert not any(name.split(".")[-1] == "quad" for name in names)


def test_q_basis_requires_integrable_weight():
    with pytest.raises(ValueError):
        fockpoly.q_basis(1, 1, 2)


def test_series_basis_labels():
    labeled = fockpoly.series_basis(1, M, K, s_max=2, a_max=1)
    labels = [lbl for lbl, _ in labeled]
    assert len(labels) == 3 * 2
    assert labels[0] == ((0,), (0,))
    assert str(labels[3]) == "((1,), (1,))"


@pytest.mark.parametrize("n", [1, 2, 3])
def test_fock_expansions_resume_bit_for_bit(n):
    # each degree extends the P_s tables and grades of the one before; the
    # partial sums equal a run from degree 0, bit for bit
    degrees = [2, 3, 6, 10]
    for xp, x in _pairs(n, 70 + n, 2):
        grown = list(fockpoly.fock_expansions(xp, x, M, degrees))
        for degree, res in zip(degrees, grown):
            fresh = fockpoly.expansion_fock_full(xp, x, M, degree)
            assert res.partials == fresh.partials and res.tail_estimate == fresh.tail_estimate
    z, w = [0.3 - 0.1j] * n, (0.2 * np.eye(n)).tolist()
    table = fockpoly.p_s_values(z, w, 3)
    assert fockpoly.p_s_values(z, w, 7, table) is table
    assert table == fockpoly.p_s_values(z, w, 7)


def test_truncation_result_tail_decreases():
    point = SJDiskPoint(0.3 * np.eye(1), np.zeros(1))
    res = fockpoly.expansion_fock_full(point, point, MATCHING_M, 14)
    resid = [abs(p - 0.91 ** -0.5) for p in res.partials]
    assert resid[-1] < resid[0]
    assert resid[-1] < 1e-6


# --- the polynomial engine on stacks ---

@pytest.mark.parametrize("n", [1, 2, 3])
def test_stacked_fock_expansions_are_batches_of_one(n):
    # each member of a stack of pairs equals its batch of one bit for bit,
    # and the scalar run of its pair to roundoff
    degrees = [0, 4, 9] if n < 3 else [0, 3, 6]
    pairs = list(_pairs(n, 90 + n, 4))
    xp, x = (SJDiskPoint.of(half) for half in zip(*pairs))
    stacked = list(fockpoly.fock_expansions(xp, x, M, degrees))
    for i, (p, q) in enumerate(pairs):
        ones = fockpoly.fock_expansions(SJDiskPoint.of([p]), SJDiskPoint.of([q]), M, degrees)
        scalars = fockpoly.fock_expansions(p, q, M, degrees)
        for res, one, scalar in zip(stacked, ones, scalars):
            assert one.value.shape == one.tail_estimate.shape == (1,)
            assert res.value[i] == one.value[0]
            assert res.tail_estimate[i] == one.tail_estimate[0]
            assert all(a[i] == b[0] for a, b in zip(res.partials, one.partials))
            assert isinstance(scalar.value, complex)
            assert_allclose(res.partials[-1][i], scalar.value, rtol=1e-13, atol=0)
            assert_allclose([a[i] for a in res.partials], scalar.partials, rtol=1e-13, atol=0)
    # the degree-0 tail is an array of inf
    assert np.all(np.isinf(stacked[0].tail_estimate)) and stacked[0].tail_estimate.shape == (4,)


def test_stacked_fock_expansion_broadcasts_one_point():
    # one point against a stack is that point repeated
    pairs = list(_pairs(2, 95, 3))
    xp, x = pairs[0][0], SJDiskPoint.of([q for _, q in pairs])
    degree = 8
    res = fockpoly.expansion_fock_full(xp, x, M, degree)
    again = fockpoly.expansion_fock_full(SJDiskPoint.of([xp] * 3), x, M, degree)
    assert np.array_equal(res.value, again.value)


@pytest.mark.parametrize("n,a_max", [(1, 10), (2, 4)])
def test_stacked_discrete_expansion_matches_each_pair(n, a_max):
    degree = 10 if n == 1 else 6
    pairs = list(_pairs(n, 100 + n, 5))
    xp, x = (SJDiskPoint.of(half) for half in zip(*pairs))
    res = fockpoly.expansion_discrete_kernel(xp, x, M, K, degree, a_max)
    assert res.value.shape == (5,)
    for i, (p, q) in enumerate(pairs):
        one = fockpoly.expansion_discrete_kernel(p, q, M, K, degree, a_max)
        assert_allclose(res.value[i], one.value, rtol=1e-13, atol=0)
        assert_allclose(res.tail_estimate[i], one.tail_estimate, rtol=1e-13, atol=0)
        assert_allclose([v[i] for v in res.partials], one.partials, rtol=1e-13, atol=0)


def _chain_families(n):
    """name -> (family members, whether they involve z, whether W)."""
    funcs = [f for _, f in fockpoly.series_basis(n, M, K, s_max=2, a_max=1)]
    x = domains.sample_sj_disk_point(n, 0.25, 0.3, seed=7)
    # kernel sections, as reproducing builds them: complex coefficients
    vals = fockpoly.PolyFamily(funcs).split(x.w[None], x.z[None])[0][:, 0]
    section = fockpoly.PolyFunction.zero(n)
    for f, val in zip(funcs, vals):
        section = section + f * complex(np.conj(val))
    w = domains.sample_sj_disk_point(n, 0.4, 0.1, seed=3).w
    lone = tuple(int(p == (0, n - 1)) for p in numkit.upper_pairs(n))
    return {
        "complex-sections": ([section, section * (0.5 - 1j), funcs[1]], True, True),
        "w-only": (list(fockpoly.q_basis(n, K, 2)), False, True),
        "z-only": ([fockpoly.basis_phi(w, s, M) for s in fockpoly.enumerate_multiindices(n, 3)],
                   True, False),
        "zero-member": ([funcs[2], PolyFunction.zero(n), funcs[-1]], True, True),
        "no-parents": ([PolyFunction.monomial(n, s=(3,) + (0,) * (n - 1), a=lone,
                                              coeff=0.7 - 0.2j)], True, True),
    }


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("name", ["complex-sections", "w-only", "z-only", "zero-member",
                                  "no-parents"])
def test_chain_split_matches_per_term_sums(n, name):
    funcs, has_z, has_w = _chain_families(n)[name]
    family = fockpoly.PolyFamily(funcs)
    x = domains.sample_sj_disk_batch(n, 40, (n, 17), 0.6, 0.8)
    vals, logs = family.split(x.w if has_w else None, x.z if has_z else None)
    assert vals.shape == (len(funcs), 40) and np.all(logs == 0)
    zs = x.z if has_z else np.zeros_like(x.z)
    ws = x.w if has_w else np.zeros_like(x.w)
    for f, got in zip(funcs, vals):
        assert_allclose(got, _per_term(f, zs, ws), rtol=1e-13, atol=0)
    # every chain row but the constant is its parent times one variable,
    # parents first; the coefficients of pure parents are zero
    exps = family.exponents
    assert not exps[0].any()
    for r, (p, v) in enumerate(zip(family.parent, family.var), 1):
        assert p < r and exps[r, v] == exps[p, v] + 1
        assert np.array_equal(np.delete(exps[r], v), np.delete(exps[p], v))
    if name == "no-parents":
        # z_1^3 W_1n lowers to z_1^2 W_1n, z_1 W_1n, W_1n and 1
        assert len(exps) == 5 and np.count_nonzero(family.coeffs) == 1


def test_split_refuses_points_of_another_n():
    # an n = 1 family at n = 2 points, z and W alike, names both n
    x = domains.sample_sj_disk_batch(2, 3, 1, 0.6, 0.8)
    one = fockpoly.PolyFunction.constant(1, 1.0)
    family = fockpoly.PolyFamily([one, fockpoly.PolyFunction.monomial(1, (1,), (1,))])
    with pytest.raises(ValueError, match=r"n = 1 at points of shape \(3, 2\)$"):
        family.split(x.w[:, :1, :1], x.z)
    with pytest.raises(ValueError, match=r"n = 1 at points of shape \(3, 2, 2\)$"):
        family.split(x.w, x.z[:, :1])


def test_split_names_a_missing_batch_argument():
    x = domains.sample_sj_disk_batch(2, 3, 1, 0.6, 0.8)
    mixed = fockpoly.PolyFamily([fockpoly.basis_f((1, 1), M)])
    with pytest.raises(ValueError, match="at least one batch argument"):
        mixed.split()
    with pytest.raises(ValueError, match="no z supplied"):
        mixed.split(x.w, None)
    with pytest.raises(ValueError, match="no W supplied"):
        mixed.split(None, x.z)
