import math
import statistics

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.special import beta as beta_fn

from sjdomains import discrete_series as ds
from sjdomains import domains, fockpoly, kernels, numkit, quad, suites

M, K = 0.25, 3


def _monomial_gram(n, degree):
    """fock_gram of the monomials z^s, |s| <= degree: the table
    E[z^s conj(z)^r] of the z-law at W = 0, m = MATCHING_M."""
    family = fockpoly.PolyFamily([fockpoly.PolyFunction.monomial(n, s)
                                  for s in fockpoly.enumerate_multiindices(n, degree)])
    return quad.fock_gram(family, np.zeros((n, n)), fockpoly.MATCHING_M)


def test_identity_form_moments_are_factorials():
    # the z-law at W = 0, m = MATCHING_M is the standard complex Gaussian
    table = _monomial_gram(1, 4)
    for s in range(5):
        for r in range(5):
            target = math.factorial(s) if s == r else 0.0
            assert abs(table[s, r] - target) <= 1e-12


def test_identity_form_moments_n2():
    table = _monomial_gram(2, 3)
    idx = list(fockpoly.enumerate_multiindices(2, 3))
    for p, s in enumerate(idx):
        for q, r in enumerate(idx):
            target = float(fockpoly.mi_factorial(tuple(s))) if tuple(s) == tuple(r) else 0.0
            assert abs(table[p, q] - target) <= 1e-12


def _polarized_forms(ws, m, flip):
    """Q with x^T Q x = 8 pi m Re A(+/-W, z), x = (Re z, Im z), for each W
    of a stack (N, n, n): kernels.a_form polarized on the unit vectors, one
    call per pair over the whole stack."""
    n = ws.shape[-1]
    sign = -1.0 if flip else 1.0
    units = [e[:n] + 1j * e[n:] for e in np.eye(2 * n)]

    def fn(z):
        x = domains.SJDiskPoint(sign * ws, np.broadcast_to(z, ws.shape[:-1]))
        return 8.0 * math.pi * m * kernels.a_form(x).real

    return np.stack([np.stack([0.5 * (fn(u + v) - fn(u) - fn(v)) for v in units], axis=-1)
                     for u in units], axis=-2)


def _closed_forms(ws, m, flip):
    """The same Q in closed form from H = (I - W conj(W))^{-1} (Hermitian)
    and S = conj(W) H (symmetric): A(W, z) = conj(z) H t(z) + Re(z S t(z)),
    and W -> -W only flips the sign of S.  Its inverse is accurate to
    cond(Q) eps, where the polarized one adds the roundoff of the
    polarization."""
    h = np.linalg.inv(np.eye(ws.shape[-1]) - ws @ ws.conj())
    s = -(ws.conj() @ h) if flip else ws.conj() @ h
    q = np.block([[h.real + s.real, -h.imag - s.imag],
                  [h.imag - s.imag, h.real - s.real]])
    return 4.0 * math.pi * m * (q + np.swapaxes(q, -1, -2))


def _complex_covariances(cov):
    """(E[z t(z)], E[z z^*]) from the real covariance of (Re z, Im z), for
    one (2n, 2n) matrix or a stack of them."""
    n = cov.shape[-1] // 2
    xx, xy = cov[..., :n, :n], cov[..., :n, n:]
    yx, yy = cov[..., n:, :n], cov[..., n:, n:]
    return xx - yy + 1j * (xy + yx), xx + yy + 1j * (yx - xy)


def _test_laws(n):
    # (Q, c, d) of non-circular Gaussians (E[z t(z)] != 0), so mixed s != r
    # pairs are nonzero: the two disk weights, with Q polarized from a_form
    # and c, d (E[z z^*] = d I) in closed form
    w = domains.sample_sj_disk_point(n, 0.6, seed=5).w
    return [(_polarized_forms(w[None], M, flip)[0], *quad._z_moments(-w if flip else w, M))
            for flip in (False, True)]


def _wick_table(c, d, degree):
    """The moment table B diag(lam) B^H from quad's Wick factor."""
    factor, lam = quad._wick_factor(c, d, degree)
    return (factor * lam) @ factor.conj().T


@pytest.mark.parametrize("n", [1, 2, 3])
def test_moment_table_hermitian_with_exact_odd_zeros(n):
    # E[z^r conj(z)^s] = conj(E[z^s conj(z)^r]), and a centred Gaussian has
    # no odd moments: those entries are 0, not roundoff
    idx = numkit.enumerate_multiindices(n, 5)
    odd = np.array([[(sum(s) + sum(r)) % 2 == 1 for r in idx] for s in idx])
    for _, c, d in _test_laws(n):
        table = _wick_table(c, d, 5)
        assert_allclose(table, table.conj().T, rtol=0, atol=1e-15 * np.max(np.abs(table)))
        assert np.all(table[odd] == 0)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_disk_form_matches_a_form(n):
    # x^T Q x = 8 pi m Re A(+/-W, z), for quad's matrix, the polarized stack
    # and the closed form; each equals the polarization of that quadratic
    # form
    rng = np.random.default_rng(40 + n)
    wlist = [domains.sample_sj_disk_point(n, 0.85, seed=100 * n + t).w for t in range(4)]
    if n == 1:
        wlist.insert(0, np.array([[0.3 - 0.2j]]))
    dim = 2 * n
    units = [e[:n] + 1j * e[n:] for e in np.eye(dim)]
    for flip in (False, True):
        sign = -1.0 if flip else 1.0
        batched = _polarized_forms(np.stack(wlist), M, flip)
        closed = _closed_forms(np.stack(wlist), M, flip)
        for w, qb, qc in zip(wlist, batched, closed):
            def fn(z):
                return 8.0 * math.pi * M * kernels.a_form(domains.SJDiskPoint(sign * w, z)).real

            polarized = np.array([[0.5 * (fn(u + v) - fn(u) - fn(v)) for v in units]
                                  for u in units])
            for q in (quad.a_form_matrix(sign * w, M), qb, qc):
                assert_allclose(q, q.T, atol=0)
                assert_allclose(q, polarized, atol=1e-10)
                for x in rng.standard_normal((5, dim)):
                    assert_allclose(x @ q @ x, fn(x[:n] + 1j * x[n:]), rtol=1e-12)


def test_normalization_closed_form():
    # integral of the z-Gaussian: pi^n det(1 - W conj(W))^{1/2} (8 pi m)^{-n}
    for t in range(6):
        x = domains.sample_sj_disk_point(2, 0.7, 0.1, seed=t)
        integral = math.pi ** 2 / math.sqrt(np.linalg.det(quad.a_form_matrix(x.w, M)))
        dets = np.linalg.det(np.eye(2) - x.w @ x.w.conj()).real
        closed = math.pi ** 2 * (8 * math.pi * M) ** -2 * math.sqrt(dets)
        assert_allclose(integral, closed, rtol=1e-12)


def test_flip_matches_reflected_argument():
    # the weight exp(-8 pi m A(-W, z)) of the space-side engine is the z-law
    # at -W: its form is a_form_matrix(-W), its E[z t(z)] is +W / (8 pi m)
    w = np.array([[0.4 + 0.1j]])
    flipped = _polarized_forms(w[None], M, flip=True)[0]
    assert_allclose(flipped, quad.a_form_matrix(-w, M), atol=1e-12)
    c, d = quad._z_moments(-w, M)
    assert_allclose(c, w / (8.0 * math.pi * M), rtol=1e-15)
    c_ref, d_ref = _complex_covariances(np.linalg.inv(flipped) / 2.0)
    assert_allclose(c, c_ref, atol=1e-14)
    assert_allclose(d * np.eye(1), d_ref, atol=1e-14)


def _gauss_hermite_rule(q, order):
    """Tensor Gauss-Hermite nodes z (N, n) and weights (N,), summing to 1, of
    the law exp(-x^T Q x) / Z: the independent reference for Wick's rule."""
    dim = q.shape[0]
    n = dim // 2
    nodes, weights = np.polynomial.hermite.hermgauss(order)
    evals, vecs = np.linalg.eigh(q)
    # x = root @ y whitens the form: x^T Q x = |y|^2
    root = vecs @ np.diag(evals ** -0.5)
    ys = np.stack(np.meshgrid(*([nodes] * dim), indexing="ij"), axis=-1).reshape(-1, dim)
    wgrid = np.prod(np.meshgrid(*([weights] * dim), indexing="ij"), axis=0).ravel()
    xs = ys @ root.T
    return xs[:, :n] + 1j * xs[:, n:], wgrid / np.sum(wgrid)


def _gauss_hermite_table(q, degree, order):
    """The moment table of the law exp(-x^T Q x) / Z on its Gauss-Hermite
    rule, the reference for the Wick table."""
    zs, wgrid = _gauss_hermite_rule(q, order)
    exps = np.array(numkit.enumerate_multiindices(zs.shape[1], degree))
    mono = np.prod(zs[:, None, :] ** exps[None], axis=2)
    return (mono.T * wgrid) @ mono.conj()


def test_gauss_hermite_agrees_with_exact_moments():
    w = np.array([[0.35 - 0.15j]])
    c, d = quad._z_moments(w, M)
    pairs = {(2, 2): 1.0, (1, 1): 0.5 - 0.25j, (0, 0): -1.0}
    exact = _wick_table(c, d, 2)
    gh = _gauss_hermite_table(_polarized_forms(w[None], M, False)[0], 2, order=40)
    assert_allclose(sum(cf * gh[s, r] for (s, r), cf in pairs.items()),
                    sum(cf * exact[s, r] for (s, r), cf in pairs.items()), rtol=1e-12)


def test_complex_wick_agrees_with_gauss_hermite_n2():
    pos = {s: p for p, s in enumerate(numkit.enumerate_multiindices(2, 3))}
    for q, c, d in _test_laws(2):
        exact, gh = _wick_table(c, d, 3), _gauss_hermite_table(q, 3, order=12)
        for s, r in [((2, 0), (0, 0)), ((0, 0), (1, 1)), ((1, 1), (0, 0)),
                     ((2, 1), (0, 1)), ((0, 1), (0, 1)), ((3, 0), (1, 0)),
                     ((0, 1), (2, 1)), ((1, 2), (1, 0)), ((2, 0), (1, 1)),
                     ((1, 1), (1, 1))]:
            assert abs(exact[pos[s], pos[r]]) > 1e-6
            assert_allclose(gh[pos[s], pos[r]], exact[pos[s], pos[r]], rtol=1e-11)


def test_moment_table_matches_gauss_hermite_n2():
    # every entry of degree <= 4: the nonzero ones to rtol 1e-11; the zeros
    # in exact arithmetic (odd entries, and those of E[z_1 conj(z_2)] = 0 of
    # the disk laws) read as roundoff of the largest entry on both sides
    for q, c, d in _test_laws(2):
        exact, gh = _wick_table(c, d, 4), _gauss_hermite_table(q, 4, order=12)
        scale = np.max(np.abs(exact))
        nonzero = np.abs(exact) > 1e-12 * scale
        assert_allclose(gh[nonzero], exact[nonzero], rtol=1e-11)
        assert np.max(np.abs(gh[~nonzero]) + np.abs(exact[~nonzero])) <= 1e-13 * scale


def test_polynomial_wick_factor_matches_gauss_hermite_n2():
    # the conditional Gram sum_u lam_u B_i^u(W) conj(B_j^u(W)) of the
    # tables of _wick_coefficients, each table's W-monomials evaluated at
    # fixed W and its members' products summed, against the
    # family's own values on a tensor Gauss-Hermite rule of the z-law on
    # (Re z, Im z) in R^4, its form polarized from a_form; the family has
    # W terms and complex coefficients, and z-degree <= 3, which order 6
    # integrates exactly
    labeled = fockpoly.series_basis(2, M, K, s_max=3, a_max=1)
    coeffs = np.random.default_rng(8).standard_normal((2, len(labeled), 2)) @ [1.0, 1.0j]
    mixes = [sum((f * complex(c) for (_, f), c in zip(labeled, row)),
                 fockpoly.PolyFunction.zero(2)) for row in coeffs]
    family = fockpoly.PolyFamily([f for _, f in labeled[::7]] + mixes)
    assert np.any(family.coeffs.imag) and family.exponents[:, 2:].any()
    tables, monos = quad._wick_coefficients(family, M)
    ws = [np.array([[0.3 - 0.2j, 0.1j], [0.1j, -0.25 + 0.05j]]),
          *(domains.sample_sj_disk_point(2, 0.7, seed=30 + t).w for t in range(3))]
    for w in ws:
        upper = w[np.triu_indices(2)]
        exact = np.zeros((len(family), len(family)), dtype=complex)
        for lam_u, members, table in tables:
            coef = np.prod(upper ** np.array(monos), axis=1) @ table
            exact[np.ix_(members, members)] += lam_u * np.outer(coef, coef.conj())
        zs, weights = _gauss_hermite_rule(_polarized_forms(w[None], M, False)[0], order=6)
        vals = family.split(np.broadcast_to(w, (len(zs), 2, 2)), zs)[0]
        assert_allclose(exact, (vals * weights) @ vals.conj().T,
                        rtol=1e-11, atol=1e-12 * np.max(np.abs(exact)))


def test_fock_gram_rejects_w_terms():
    f = fockpoly.p_s((2,))  # contains a W monomial
    with pytest.raises(ValueError):
        quad.fock_gram(fockpoly.PolyFamily([f]), np.array([[0.3]]), M)


def test_fock_gram_orthonormal():
    w = np.array([[0.3 + 0.2j]])
    idx = list(fockpoly.enumerate_multiindices(1, 4))
    family = fockpoly.PolyFamily([fockpoly.basis_phi(w, tuple(s), M) for s in idx])
    gram = quad.fock_gram(family, w, M)
    assert np.max(np.abs(gram - np.eye(len(idx)))) < 1e-12


def test_fock_gram_refuses_a_family_of_another_n():
    family = fockpoly.PolyFamily([fockpoly.PolyFunction.constant(1, 1.0),
                                  fockpoly.PolyFunction.monomial(1, (1,))])
    with pytest.raises(ValueError, match="W of n = 2 of a family of n = 1"):
        quad.fock_gram(family, 0.1 * np.eye(2), M)


def _no_draw(*args):
    raise AssertionError("mc_dj_gram drew a sample")


@pytest.mark.parametrize("n", [2, 3])
def test_mc_dj_gram_refuses_a_family_of_another_n(monkeypatch, n):
    # the engine samples at n = 1 only, n read off the family, and refuses
    # before its first draw
    monkeypatch.setattr(quad, "_draw_radial", _no_draw)
    family = fockpoly.PolyFamily([fockpoly.PolyFunction.constant(n, 1.0)])
    with pytest.raises(ValueError, match=f"at n = 1, not at the n = {n} of this family"):
        quad.mc_dj_gram(family, M, K + 1, quad.MCConfig(samples=1000))


def test_mc_dj_gram_refuses_a_sampled_function_and_an_infinite_measure(monkeypatch):
    # a SampledFunction, even a disk-side one of n = 1, has no exact
    # z-integral; at k <= 3/2 the w-measure has no finite mass
    monkeypatch.setattr(quad, "_draw_radial", _no_draw)
    family = fockpoly.PolyFamily([fockpoly.PolyFunction.constant(1, 1.0)])
    sampled = ds.SampledFunction(family.split, "disk", size=1)
    cfg = quad.MCConfig(samples=1000)
    with pytest.raises(ValueError, match="a PolyFamily, not a SampledFunction"):
        quad.mc_dj_gram(sampled, M, K, cfg)
    for k in (1, 1.5):
        with pytest.raises(ValueError, match="k > 3/2"):
            quad.mc_dj_gram(family, M, k, cfg)


@pytest.mark.parametrize("samples", [0, 1, -5, True, 2.5])
def test_mc_dj_gram_refuses_a_sample_count_below_two(monkeypatch, samples):
    # a variance needs two samples; a bool is no count and 2.5 no integer
    monkeypatch.setattr(quad, "_draw_radial", _no_draw)
    family = fockpoly.PolyFamily([fockpoly.PolyFunction.constant(1, 1.0)])
    refusal = f"^samples must be an integer of at least 2, not {samples!r}$"
    with pytest.raises(ValueError, match=refusal):
        quad.mc_dj_gram(family, M, K, quad.MCConfig(samples=samples))


def test_calibrate_norms_values():
    cal = quad.calibrate_norms(1, M)
    assert_allclose(cal["constant"], 8 * math.pi * M, rtol=1e-12)
    assert_allclose(cal["reference_constant"], 2 * math.pi * M, rtol=1e-12)
    assert_allclose(cal["ratio"], 4.0, rtol=1e-12)


def test_generating_series_pairing():
    # the truncated series sum_s P_s(x) U^s / s!, |s| <= 14, of two points
    # paired by fock_gram under the standard Gaussian (W = 0, MATCHING_M),
    # against its limit, the bounded kernel at MATCHING_M and k = 1/2
    x = domains.sample_sj_disk_point(1, 0.25, 0.3, seed=3)
    xp = domains.sample_sj_disk_point(1, 0.25, 0.3, seed=4)
    series = fockpoly.PolyFamily([fockpoly.PolyFunction(1, {
        s + (0,): v / math.factorial(s[0])
        for s, v in fockpoly.p_s_values(p.z.tolist(), p.w.tolist(), 14).items()}) for p in (xp, x)])
    pairing = quad.fock_gram(series, np.zeros((1, 1)), fockpoly.MATCHING_M)[0, 1]
    assert abs(pairing - kernels.kmk_star_kernel(xp, x, fockpoly.MATCHING_M, 0.5)) < 1e-8


def test_mc_disk_inner_against_beta_moments():
    # |w|^{2a} against the W-marginal of the Jacobi-disk weight, the
    # bounded-domain weight over 8 pi m: pi B(a + 1, k - 3/2) / (8 pi m)
    cfg = quad.MCConfig(samples=200000, seed=11)
    one = fockpoly.PolyFunction.constant(1, 1.0)
    wmono = fockpoly.PolyFunction.monomial(1, a=(1,))
    gram, sigma, _ = quad.mc_dj_gram(fockpoly.PolyFamily([one, wmono]), M, K, cfg)
    target = [math.pi * beta_fn(a + 1, K - 1.5) / (8 * math.pi * M) for a in range(2)]
    # every sample carries the measure's whole mass: the constant is exact,
    # its sigma roundoff
    assert sigma[0, 0] <= 1e-10 and abs(gram[0, 0] - target[0]) <= 1e-12 * target[0]
    assert abs(gram[1, 1] - target[1]) <= 3 * sigma[1, 1]


# w, whose |w|^2 varies over the draws (the constant is exact)
_W_ONLY = fockpoly.PolyFamily([fockpoly.PolyFunction.monomial(1, a=(1,))])


def test_mc_determinism():
    cfg = quad.MCConfig(samples=20000, seed=5)
    gram1, sigma1, _ = quad.mc_dj_gram(_W_ONLY, M, K, cfg)
    gram2, sigma2, _ = quad.mc_dj_gram(_W_ONLY, M, K, cfg)
    assert gram1[0, 0] == gram2[0, 0]
    assert sigma1[0, 0] == sigma2[0, 0] > 0


def test_mc_sigma_scaling():
    _, small, _ = quad.mc_dj_gram(_W_ONLY, M, K, quad.MCConfig(samples=20000, seed=6))
    _, big, _ = quad.mc_dj_gram(_W_ONLY, M, K, quad.MCConfig(samples=80000, seed=6))
    assert 1.6 < small[0, 0] / big[0, 0] < 2.4


def test_mc_dj_gram_identity_small():
    labeled = fockpoly.series_basis(1, M, K, s_max=1, a_max=1)
    funcs = fockpoly.PolyFamily([f for _, f in labeled])
    cfg = quad.MCConfig(samples=100000, seed=7)
    gram, sigma, _ = quad.mc_dj_gram(funcs, M, K, cfg)
    err = np.abs(gram - np.eye(len(funcs)))
    assert np.all(err <= 3 * sigma + 1e-9)


def test_mc_stats_flags_a_small_ess_f():
    # ess_f_low: the smallest Kish size of a Gram's functions is below
    # ESS_F_LOW_FRACTION of the samples; the sample count passes through
    # unchanged
    stats = {"samples": 16730}
    cut = quad.ESS_F_LOW_FRACTION * 16730
    assert 167.0 < cut < 168.0
    for sizes, ess_f, low in (([2.7, 5000.0], 2.7, True), ([5000.0], 5000.0, False),
                              ([167.0], 167.0, True), ([168.0], 168.0, False),
                              ([2.7, 5000.0, 167.0, 168.0], 2.7, True)):
        got = quad.mc_stats({**stats, "ess_f": np.array(sizes)})
        assert got == {**stats, "ess_f": ess_f, "ess_f_low": low}


def _w_stack(n, count=200, cap=0.95):
    return domains.sample_sj_disk_batch(n, count, n, cap).w


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("flip", [False, True])
def test_closed_form_z_law(n, flip):
    # c = E[z t(z)], d = E[z z^*] and Z against inv(Q) / 2 and
    # pi^n det(Q)^{-1/2} of the Gaussian matrices Q polarized from a_form,
    # on W with sigma_max < 0.95
    ws = _w_stack(n)
    assert np.max(np.linalg.svd(ws, compute_uv=False)) < 0.95
    qmats = _polarized_forms(ws, M, flip)
    c, d = quad._z_moments(-ws if flip else ws, M)
    c_ref, d_ref = _complex_covariances(np.linalg.inv(qmats) / 2.0)
    assert np.max(np.abs(c - c_ref)) <= 1e-15
    assert np.max(np.abs(d * np.eye(n) - d_ref)) <= 1e-15
    dets = np.linalg.det(np.eye(n) - ws @ ws.conj()).real
    znorm = math.pi ** n / np.sqrt(np.linalg.det(qmats))
    assert_allclose(np.sqrt(dets) / (8 * M) ** n, znorm, rtol=2e-15, atol=0)


def _section_pair():
    # reproducing-style: the first basis function and a kernel section with
    # complex coefficients, s <= 4, a <= 3
    labeled = fockpoly.series_basis(1, M, K, s_max=4, a_max=3)
    x = domains.sample_sj_disk_point(1, 0.25, 0.3, seed=21)
    section = fockpoly.PolyFunction.zero(1)
    for _, fn in labeled:
        section = section + fn * complex(np.conj(fn.evaluate(x.z, x.w)))
    return [labeled[0][1], section]


def _gauss_hermite_grams(family, ws, order=8):
    """The conditional Grams E[f_i conj(f_j) | w] (N, nf, nf) of a family at
    n = 1, at each w of ws (N,), under the z-law of mc_dj_gram, from the
    family's own values on a tensor Gauss-Hermite rule of that law: the
    independent reference for the exact-z kernel.  Order 8 is exact for
    z-degree up to 7 in each function."""
    # (Re z, Im z) has covariance (1/2) [[d + Re c, Im c], [Im c, d - Re c]]
    # with E[z^2] = c = -w d and E[|z|^2] = d = 1 / (8 pi m)
    d = 1.0 / (8 * np.pi * M)
    c = -ws * d
    l11 = np.sqrt(0.5 * (d + c.real))
    l21 = 0.5 * c.imag / l11
    l22 = np.sqrt(0.5 * (d - c.real) - l21 ** 2)
    nodes, gw = np.polynomial.hermite.hermgauss(order)
    g1, g2 = (np.sqrt(2.0) * g.ravel() for g in np.meshgrid(nodes, nodes, indexing="ij"))
    rule = np.outer(gw, gw).ravel() / np.pi
    zs = l11[:, None] * g1 + 1j * (l21[:, None] * g1 + l22[:, None] * g2)
    mats = np.broadcast_to(ws[:, None, None, None], zs.shape + (1, 1)).reshape(-1, 1, 1)
    vals = family.split(mats, zs.reshape(-1, 1))[0].reshape(len(family), *zs.shape)
    return np.einsum("itq,jtq,q->tij", vals, vals.conj(), rule)


def _angle_averaged_grams(family, ts):
    """The conditional Grams of _gauss_hermite_grams at each t of ts (N,)
    averaged over the angle of w = sqrt(t) e^(i theta), by the trapezoid
    rule on 2 D + 2 equispaced angles: exact for the polynomial in w and
    conj(w) of degree <= D in each, D the largest |a| + |s| // 2 of the
    family's z^s w^a."""
    exps = family.exponents
    deg = int((exps[:, 1] + exps[:, 0] // 2).max())
    turns = np.exp(2j * np.pi * np.arange(2 * deg + 2) / (2 * deg + 2))
    ws = np.sqrt(ts)[:, None] * turns
    grams = _gauss_hermite_grams(family, ws.ravel())
    return grams.reshape(ws.shape + grams.shape[1:]).mean(axis=1)


def _radial_contraction(funcs, ts, weight):
    # the power sums of the samples t, b <= 2 D, contracted with the kernel
    kern = quad._exact_z_kernel(fockpoly.PolyFamily(funcs), M)
    sums = np.sum(ts[:, None] ** np.arange(2 * kern.shape[-1] - 1), axis=0)
    return quad._contract_radial_sums(kern, sums, weight)


_GRAM_F = [f for _, f in fockpoly.series_basis(1, M, K, s_max=3, a_max=2)]
_TS = np.array([0.0, 0.25, 0.5, 0.0025, 0.85])


@pytest.mark.parametrize("funcs", [_GRAM_F, _section_pair()], ids=["gram-F", "section"])
def test_power_sum_grams_match_scalar_moments(funcs):
    # the contraction at single samples t (unit weight) against the
    # Gauss-Hermite conditional Gram averaged over the angle of w: the Gram
    # and its squared modulus
    refs = _angle_averaged_grams(fockpoly.PolyFamily(funcs), _TS)
    for t, ref in zip(_TS, refs):
        acc, acc2 = _radial_contraction(funcs, np.array([t]), 1.0)
        assert_allclose(acc, ref, rtol=1e-12, atol=1e-12)
        assert_allclose(acc2, np.abs(ref) ** 2, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("funcs", [_GRAM_F, _section_pair()], ids=["gram-F", "section"])
def test_power_sum_variance_matches_per_sample_sum(funcs):
    # c^2 sum_t |G_t|^2 and c sum_t G_t over several samples of one weight c
    # against the per-sample values
    weight = 1.7
    grams = _angle_averaged_grams(fockpoly.PolyFamily(funcs), _TS)
    acc, acc2 = _radial_contraction(funcs, _TS, weight)
    assert_allclose(acc, weight * np.sum(grams, axis=0), rtol=1e-12, atol=1e-12)
    ref2 = weight ** 2 * np.sum(np.abs(grams) ** 2, axis=0)
    assert_allclose(acc2, ref2, rtol=1e-12, atol=1e-12 * np.max(ref2))


def test_power_sum_parity_entries_are_exact_zeros():
    # functions of z-degree of different parity pair to an odd moment: their
    # kernel block, Gram entry and variance vanish identically
    zdeg = [sum(s) for s, _ in (lbl for lbl, _ in fockpoly.series_basis(1, M, K, 3, 2))]
    odd = np.array([[(a - b) % 2 == 1 for b in zdeg] for a in zdeg])
    kern = quad._exact_z_kernel(fockpoly.PolyFamily(_GRAM_F), M)
    assert odd.any() and np.all(kern[odd] == 0)
    acc, acc2 = _radial_contraction(_GRAM_F, _TS, 1.0)
    assert np.all(acc[odd] == 0) and np.all(acc2[odd] == 0)
    gram, sigma, _ = quad.mc_dj_gram(fockpoly.PolyFamily(_GRAM_F), M, K,
                                     quad.MCConfig(samples=30000, seed=3))
    assert np.all(gram[odd] == 0) and np.all(sigma[odd] == 0)


def _replay_radial(rng, counts, k):
    # the radial draws of rng, drawn into one row in the given chunks
    t = np.empty(sum(counts))
    for lo, count in zip(np.cumsum((0,) + counts), counts):
        quad._draw_radial(rng, t[lo:lo + count], k)
    return t


@pytest.mark.parametrize("k", [2, 3, 3.5, 4, 5])
def test_radial_draws_do_not_depend_on_the_chunking(k):
    # the t stream of one generator is bit-identical in any chunking, and
    # equals the closed form 1 - U^(1/(k - 3/2)) of one uniform per draw
    count = 2 * quad._BLOCK + 123
    ref = 1.0 - np.random.default_rng(7).uniform(size=count) ** (1.0 / (k - 1.5))
    chunkings = [(count,), (7,) * (count // 7) + (count % 7,),
                 (quad._BLOCK, quad._BLOCK, 123), (1, count - 1)]
    for counts in chunkings:
        t = _replay_radial(np.random.default_rng(7), counts, k)
        assert np.array_equal(t, ref)


@pytest.mark.parametrize("deg", range(8))
def test_folded_power_sums_match_direct_sums(deg):
    # the power sums of a stream drawn in blocks of _BLOCK, the last one
    # partial, against a replay of its draws; the pair table P[a + a'],
    # a, a' <= deg, that the variance folds onto them, against the
    # per-sample sums t^a t^a'; deg = 0 has no row and draws nothing
    k = 3 + deg % 3
    count = 2 * quad._BLOCK + 123
    sums = quad._radial_sums(np.random.default_rng(90 + deg), count, k, deg)
    t = _replay_radial(np.random.default_rng(90 + deg), (quad._BLOCK, quad._BLOCK, 123), k)
    powers = t[:, None] ** np.arange(2 * deg + 1)
    low = powers[:, :deg + 1]
    idx = np.arange(deg + 1)
    assert sums.shape == (2 * deg + 1,)
    assert_allclose(sums, powers.sum(axis=0), rtol=1e-13)
    assert_allclose(sums[idx[:, None] + idx], low.T @ low, rtol=1e-13)


@pytest.mark.parametrize("blocks,extra", [(0, 2), (1, -1), (1, 0), (1, 1), (2, 123)],
                         ids=["2", "B-1", "B", "B+1", "2B+123"])
@pytest.mark.parametrize("deg", range(4))
def test_radial_sums_at_block_edges_match_direct_sums(deg, blocks, extra):
    # sample counts of 2, a block less one, one block, a block and one, and
    # two blocks and a partial one (B = _BLOCK), against the direct sums
    # sum t^b, b <= 2 deg, of a replay of the stream
    count = blocks * quad._BLOCK + extra
    sums = quad._radial_sums(np.random.default_rng(40 + deg), count, K, deg)
    t = _replay_radial(np.random.default_rng(40 + deg), (count,), K)
    assert sums.shape == (2 * deg + 1,) and sums[0] == count
    assert_allclose(sums, np.sum(t[:, None] ** np.arange(2 * deg + 1), axis=0), rtol=1e-13)


def test_mc_dj_gram_does_not_depend_on_the_block(monkeypatch):
    # blocks of 7 against the default: the same power sums, Gram and sigma
    # up to the order of the sums; sigma of the entries exact at every t is
    # the square root of its variance's roundoff, so it is compared above
    # that floor only
    family = fockpoly.PolyFamily(_GRAM_F)
    cfg = quad.MCConfig(samples=2 * quad._BLOCK + 123, seed=5)
    gram, sigma, stats = quad.mc_dj_gram(family, M, K, cfg)
    sums = quad._radial_sums(np.random.default_rng(5), cfg.samples, K, 3)
    monkeypatch.setattr(quad, "_BLOCK", 7)
    gram7, sigma7, stats7 = quad.mc_dj_gram(family, M, K, cfg)
    assert_allclose(quad._radial_sums(np.random.default_rng(5), cfg.samples, K, 3), sums,
                    rtol=1e-13)
    assert_allclose(gram7, gram, rtol=1e-13, atol=1e-13 * np.max(np.abs(gram)))
    random = sigma > 1e-7 * np.max(np.abs(gram)) / math.sqrt(cfg.samples)
    assert random.sum() == 8
    assert_allclose(sigma7[random], sigma[random], rtol=1e-13)
    assert_allclose(stats7["ess_f"], stats["ess_f"], rtol=1e-13)


class _CountingGenerator:
    # a generator that counts its calls of random and passes every call on
    def __init__(self, rng):
        self.rng, self.random_calls = rng, 0

    def random(self, *args, **kwargs):
        self.random_calls += 1
        return self.rng.random(*args, **kwargs)

    def __getattr__(self, name):
        return getattr(self.rng, name)


def test_mc_dj_gram_draws_one_block_per_generator_call(monkeypatch):
    # 10^6 samples take ceil(10^6 / _BLOCK) calls of the generator, one per
    # block, not many small draws
    made = []
    default_rng = np.random.default_rng

    def counting_rng(*args):
        made.append(_CountingGenerator(default_rng(*args)))
        return made[-1]

    monkeypatch.setattr(np.random, "default_rng", counting_rng)
    samples = 10 ** 6
    quad.mc_dj_gram(fockpoly.PolyFamily(_GRAM_F), M, K, quad.MCConfig(samples=samples))
    assert [g.random_calls for g in made] == [-(-samples // quad._BLOCK)]


def test_mc_dj_gram_exact_z_replays_per_sample_grams(monkeypatch):
    # mc_dj_gram on a PolyFamily with complex coefficients against a replay
    # of its radial draws, one generator in blocks of _BLOCK, each sample's
    # conditional Gram E[f_i conj(f_j) | w] from the family's own values on a
    # tensor Gauss-Hermite rule of the z-law, averaged over the angle of w,
    # and the one weight (pi / (k - 3/2)) / (8 pi m) written out; two blocks
    # and a partial one, of 2000 samples each to keep the replay short
    monkeypatch.setattr(quad, "_BLOCK", 2000)
    family = fockpoly.PolyFamily(_section_pair())
    assert np.iscomplexobj(family.coeffs) and np.any(family.coeffs.imag)
    k = 5
    cfg = quad.MCConfig(samples=2 * quad._BLOCK + 1001, seed=17)
    gram, sigma, stats = quad.mc_dj_gram(family, M, k, cfg)

    rng = np.random.default_rng(np.random.SeedSequence(cfg.seed))
    t = _replay_radial(rng, (quad._BLOCK, quad._BLOCK, 1001), k)
    weight = 1.0 / (8 * M * (k - 1.5))
    grams = _angle_averaged_grams(family, t)
    acc = weight * np.sum(grams, axis=0)
    acc2 = weight ** 2 * np.sum(np.abs(grams) ** 2, axis=0)
    ref = (acc + acc.conj().T) / (2 * cfg.samples)
    ref_var = np.maximum((acc2 + acc2.T) / (2 * cfg.samples) - np.abs(ref) ** 2, 0.0)
    assert_allclose(gram, ref, rtol=1e-12, atol=1e-14 * np.max(np.abs(ref)))
    # an entry exact for every t has sigma 0 up to the square root of its
    # variance's roundoff, about sqrt(eps) |G| / sqrt(N)
    assert_allclose(sigma, np.sqrt(ref_var / cfg.samples), rtol=1e-12,
                    atol=1e-7 * np.max(np.abs(ref)) / math.sqrt(cfg.samples))
    assert stats["samples"] == cfg.samples
    diag = np.einsum("tii->i", grams).real
    diag2 = np.einsum("tii->i", np.abs(grams) ** 2)
    assert_allclose(stats["ess_f"], diag ** 2 / diag2, rtol=1e-12)


@pytest.mark.parametrize("k", [3, 5])
def test_disk_draw_has_the_moments_of_its_measure(k):
    # t = |w|^2 of the disk measure: s = 1 - t ~ Beta(k - 3/2, 1), so
    # E[s^j] = (k - 3/2) / (k - 3/2 + j), j = 1..4; each sample mean within
    # z = 5 of its own standard error (a chance of about 5e-6 over the 8
    # means of both k)
    t = _replay_radial(np.random.default_rng(30 + k), (200000,), k)
    assert np.all((0 <= t) & (t < 1))
    s = 1.0 - t
    for j in range(1, 5):
        target = (k - 1.5) / (k - 1.5 + j)
        assert abs(np.mean(s ** j) - target) <= 5 * np.std(s ** j) / math.sqrt(len(t))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_mc_dj_gram_of_the_gram_f_family_matches_the_exact_gram(seed):
    # every one of the 144 entries within t sigma of exact_dj_gram, t the
    # normal quantile of a union bound at 1e-3 (4.5), plus a roundoff
    # floor; the 72 entries between z-degrees of different parity are
    # exactly 0.0
    family = fockpoly.PolyFamily(_GRAM_F)
    size = len(family)
    exact = quad.exact_dj_gram(family, M, K)
    gram, sigma, _ = quad.mc_dj_gram(family, M, K, quad.MCConfig(samples=200000, seed=seed))
    t = statistics.NormalDist().inv_cdf(1.0 - 1e-3 / (2 * size * size))
    assert np.all(np.abs(gram - exact) <= t * sigma + 1e-9)
    zdeg = np.array([sum(s) for (s, _), _ in fockpoly.series_basis(1, M, K, 3, 2)])
    odd = (zdeg[:, None] - zdeg[None]) % 2 == 1
    assert odd.sum() == 72 and np.all(gram[odd] == 0.0)


@pytest.mark.parametrize("m", [0.05, 0.25, 1.0])
@pytest.mark.parametrize("n,k", [pytest.param(1, k, id=str(k)) for k in (3, 4, 5)]
                         + [pytest.param(n, k, id=f"n{n}-{k}")
                            for n, k in ((2, 3), (2, 4), (3, 4))])
def test_exact_dj_gram_of_the_series_basis_is_the_identity(n, k, m):
    # the sample-free Gram of F_sa (|s| <= 3, a <= 2) is the identity to
    # roundoff; the same W-Gram taken at k + 1/2 misses it by far, so the
    # identity tests the W-part and not only the z-law
    family = fockpoly.PolyFamily([f for _, f in fockpoly.series_basis(n, m, k, 3, 2)])
    eye = np.eye(len(family))
    assert np.max(np.abs(quad.exact_dj_gram(family, m, k) - eye)) <= 1e-12
    assert np.max(np.abs(quad.exact_dj_gram(family, m, k + 0.5) - eye)) > 0.1


@pytest.mark.parametrize("n", [1, 2, 3])
def test_the_z_law_is_stated_once(monkeypatch, n):
    # under the flipped law E[z t(z)] = +W / (8 pi m) the series basis has
    # the Gram that the reflected family F(-W, z) has under the real law,
    # since the measure is invariant under W -> -W: a second statement of
    # the law, which the patch of _z_moments would miss, breaks the
    # equality; and that Gram is far from I, so the patch reached it
    k = 4
    funcs = [f for _, f in fockpoly.series_basis(n, M, k, 3, 2)]
    reflected = fockpoly.PolyFamily([
        fockpoly.PolyFunction(n, {e: c * (-1) ** sum(e[n:]) for e, c in f.terms.items()})
        for f in funcs])
    real = quad.exact_dj_gram(reflected, M, k)
    def flipped_law(ws, m):
        d = 1.0 / (8.0 * math.pi * m)
        return ws * d, d

    monkeypatch.setattr(quad, "_z_moments", flipped_law)
    flipped = quad.exact_dj_gram(fockpoly.PolyFamily(funcs), M, k)
    assert np.max(np.abs(flipped - real)) <= 1e-12
    assert np.max(np.abs(flipped - np.eye(len(funcs)))) > 1.0


def test_wick_tables_hold_only_the_nonzero_rows():
    # one table per pairing u, each over the members whose B_i^u is
    # nonzero: 953 of the 560 x 20 (member, u) rows of the series family at
    # n = 3, k = 4, every one of them nonzero
    family = fockpoly.PolyFamily([f for _, f in fockpoly.series_basis(3, M, 4, 3, 2)])
    tables, monos = quad._wick_coefficients(family, M)
    assert (len(family), len(tables), len(monos)) == (560, 20, 84)
    for _, members, table in tables:
        assert table.shape == (len(monos), len(members)) and table.any(axis=0).all()
    assert sum(len(members) for _, members, _ in tables) == 953


def test_exact_dj_gram_of_a_complex_family_with_w_terms_n2():
    # the per-pairing solve on complex coefficients and W terms, against
    # sum_u lam_u B_u G_W B_u^H / (8 pi m)^n with B_u the (member, monomial)
    # coefficients of the Wick tables and G_W the W-Gram from fk_gram's
    # blocks, which shares no code with the q_basis solve
    labeled = fockpoly.series_basis(2, M, K, s_max=3, a_max=2)
    coeffs = np.random.default_rng(12).standard_normal((4, len(labeled), 2)) @ [1.0, 1.0j]
    coeffs /= np.linalg.norm(coeffs, axis=1, keepdims=True)
    family = fockpoly.PolyFamily([sum((f * complex(c) for (_, f), c in zip(labeled, row)),
                                      fockpoly.PolyFunction.zero(2)) for row in coeffs])
    assert np.any(family.coeffs.imag) and family.exponents[:, 2:].any()
    tables, monos = quad._wick_coefficients(family, M)
    degree = sum(monos[-1])
    labels = fockpoly.sym_degree_list(2, degree)
    where = {a: (sum(a), [b for b in labels if sum(b) == sum(a)].index(a)) for a in labels}
    blocks = fockpoly.fk_gram(2, K, degree)
    g_w = np.array([[blocks[d][i, j] if d == e else 0.0 for e, j in map(where.get, monos)]
                    for d, i in map(where.get, monos)])
    ref = np.zeros((len(family), len(family)), dtype=complex)
    for lam_u, members, table in tables:
        b_u = np.zeros((len(family), len(monos)), dtype=complex)
        b_u[members] = table.T
        ref += lam_u * b_u @ g_w @ b_u.conj().T
    gram = quad.exact_dj_gram(family, M, K)
    assert np.iscomplexobj(gram) and np.max(np.abs(gram.imag)) > 0.1
    assert np.max(np.abs(gram - ref / (8 * math.pi * M) ** 2)) <= 1e-13


def test_exact_dj_gram_against_beta_moments():
    # 1 and w: E[|f|^2 | w] is 1 and |w|^2, and the W-integral of |w|^(2a)
    # is B(a + 1, k - 3/2) / (8 m); 1 and w do not pair
    one = fockpoly.PolyFunction.constant(1, 1.0)
    wmono = fockpoly.PolyFunction.monomial(1, a=(1,))
    gram = quad.exact_dj_gram(fockpoly.PolyFamily([one, wmono]), M, K)
    target = np.diag([beta_fn(a + 1, K - 1.5) / (8 * M) for a in range(2)])
    assert_allclose(gram, target, rtol=1e-14, atol=1e-15)


def test_wick_tables_match_a_cholesky_gauss_hermite_rule_at_n2():
    # the conditional Gram E[f_i conj(f_j) | W] of the series family F_sa
    # (|s| <= 3, a <= 2) at n = 2, read off the Wick tables at a few fixed W,
    # against the family's own values on a tensor Gauss-Hermite rule in
    # (Re z, Im z) through the Cholesky factor of the z-law's real
    # covariance, written out from W and m: a rule that shares no code with
    # _wick_factor.  Order 4 integrates z-degree 3 times 3 exactly; the W
    # part is fk_gram's (test_exact_dj_gram_of_a_complex_family_with_w_terms_n2)
    family = fockpoly.PolyFamily([f for _, f in fockpoly.series_basis(2, M, K, 3, 2)])
    tables, monos = quad._wick_coefficients(family, M)
    nodes, weights = np.polynomial.hermite.hermgauss(4)
    grid = np.stack(np.meshgrid(*[nodes] * 4, indexing="ij"), axis=-1).reshape(-1, 4)
    rule = np.prod(np.meshgrid(*[weights] * 4, indexing="ij"), axis=0).ravel() / np.pi ** 2
    d = 1.0 / (8 * np.pi * M)
    ws = [np.array([[0.3 - 0.2j, 0.1j], [0.1j, -0.25 + 0.05j]]),
          *(domains.sample_sj_disk_point(2, 0.9, seed=40 + t).w for t in range(3))]
    for w in ws:
        c = -w * d
        cov = 0.5 * np.block([[d * np.eye(2) + c.real, c.imag], [c.imag, d * np.eye(2) - c.real]])
        xs = np.sqrt(2.0) * grid @ np.linalg.cholesky(cov).T
        vals = family.split(np.broadcast_to(w, (len(xs), 2, 2)), xs[:, :2] + 1j * xs[:, 2:])[0]
        upper = w[np.triu_indices(2)]
        exact = np.zeros((len(family), len(family)), dtype=complex)
        for lam_u, members, table in tables:
            coef = np.prod(upper ** np.array(monos), axis=1) @ table
            exact[np.ix_(members, members)] += lam_u * np.outer(coef, coef.conj())
        rule_gram = (vals * rule) @ vals.conj().T
        assert np.max(np.abs(exact - rule_gram)) <= 1e-12 * np.max(np.abs(exact))


def test_mc_dj_inner_same_function_path():
    # <psi, psi> from the one-function Gram; a distinct but equal psi2 in a
    # family of two must give the same estimate, on and off the diagonal
    psi, psi2 = fockpoly.basis_f((1,), M), fockpoly.basis_f((1,), M)
    cfg = quad.MCConfig(samples=20000, seed=15)
    one, one_sigma, _ = quad.mc_dj_gram(fockpoly.PolyFamily([psi]), M, K, cfg)
    two, two_sigma, _ = quad.mc_dj_gram(fockpoly.PolyFamily([psi, psi2]), M, K, cfg)
    for entry in ((0, 0), (0, 1), (1, 1)):
        assert abs(two[entry] - one[0, 0]) <= 1e-12 * abs(one[0, 0])
        assert abs(two_sigma[entry] - one_sigma[0, 0]) <= 1e-12 * one_sigma[0, 0]


def test_family_grams_match_one_member_runs():
    # one Gram over a family against one run per function on the same seed:
    # diagonal, sigma and per-function Kish size
    psis = [f for _, f in suites._isometry_functions(suites.SuiteConfig(m=M, k=K))]
    cfg = quad.MCConfig(samples=20000, seed=16)
    gram, sigma, stats = quad.mc_dj_gram(fockpoly.PolyFamily(psis), M, K, cfg)
    for i, psi in enumerate(psis):
        g1, s1, st1 = quad.mc_dj_gram(fockpoly.PolyFamily([psi]), M, K, cfg)
        assert_allclose(gram[i, i], g1[0, 0], rtol=1e-12, atol=0)
        assert_allclose(sigma[i, i], s1[0, 0], rtol=1e-12, atol=0)
        assert_allclose(stats["ess_f"][i], st1["ess_f"][0], rtol=1e-12, atol=0)
        assert stats["samples"] == st1["samples"] == cfg.samples


def test_pack_unpack_roundtrip():
    x = domains.sample_sj_disk_point(2, 0.6, 0.8, seed=12)
    back = quad.unpack_disk_point(quad.pack_disk_point(x), 2)
    assert_allclose(back.w, x.w)
    assert_allclose(back.z, x.z)
    y = domains.cayley_forward(x)
    vec = quad.pack_space_point(y)
    assert vec.shape == (2 * (2 * 3 // 2) + 2 * 2,)


def test_numeric_jacobian_linear_map():
    mat = np.array([[2.0, 1.0], [0.5, -1.0]])
    jac = quad.numeric_jacobian(lambda v: mat @ v, np.zeros(2))
    assert_allclose(jac, mat, atol=1e-9)
