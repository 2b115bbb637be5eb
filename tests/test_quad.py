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
        assert_allclose(quad._z_normalizer(dets, 2, M), closed, rtol=1e-12)


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


@pytest.mark.parametrize("n,funcs", [
    (2, [fockpoly.PolyFunction.constant(1, 1.0), fockpoly.PolyFunction.monomial(1, (1,))]),
    (1, [fockpoly.PolyFunction.constant(2, 1.0)])], ids=["sampled-z", "exact-z"])
def test_mc_dj_gram_refuses_a_family_of_another_n(n, funcs):
    # the n = 1 family at n = 2 would sample z, and the n = 2 constant at
    # n = 1 would take the exact-z path, which evaluates no point
    with pytest.raises(ValueError, match=f"at n = {n} of a family of n = {3 - n}"):
        quad.mc_dj_gram(fockpoly.PolyFamily(funcs), n, M, K, quad.MCConfig(samples=1000))


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
    gram, sigma, _ = quad.mc_dj_gram(fockpoly.PolyFamily([one, wmono]), 1, M, K, cfg)
    for a in range(2):
        target = math.pi * beta_fn(a + 1, K - 1.5) / (8 * math.pi * M)
        assert abs(gram[a, a] - target) <= 3 * sigma[a, a]


def test_mc_determinism():
    cfg = quad.MCConfig(samples=20000, seed=5)
    one = fockpoly.PolyFamily([fockpoly.PolyFunction.constant(1, 1.0)])
    gram1, sigma1, _ = quad.mc_dj_gram(one, 1, M, K, cfg)
    gram2, sigma2, _ = quad.mc_dj_gram(one, 1, M, K, cfg)
    assert gram1[0, 0] == gram2[0, 0]
    assert sigma1[0, 0] == sigma2[0, 0]


def test_mc_sigma_scaling():
    one = fockpoly.PolyFamily([fockpoly.PolyFunction.constant(1, 1.0)])
    _, small, _ = quad.mc_dj_gram(one, 1, M, K, quad.MCConfig(samples=20000, seed=6))
    _, big, _ = quad.mc_dj_gram(one, 1, M, K, quad.MCConfig(samples=80000, seed=6))
    assert 1.6 < small[0, 0] / big[0, 0] < 2.4


def test_mc_dj_gram_identity_small():
    labeled = fockpoly.series_basis(1, M, K, s_max=1, a_max=1)
    funcs = fockpoly.PolyFamily([f for _, f in labeled])
    cfg = quad.MCConfig(samples=100000, seed=7)
    gram, sigma, _ = quad.mc_dj_gram(funcs, 1, M, K, cfg)
    err = np.abs(gram - np.eye(len(funcs)))
    assert np.all(err <= 3 * sigma + 1e-9)


def _sampled(family):
    """A PolyFamily as a disk-side SampledFunction, which mc_dj_gram
    integrates by sampling z instead of the exact-z path."""
    return ds.SampledFunction(family.split, "disk", size=len(family))


def test_mc_dj_gram_exact_z_matches_sampled():
    labeled = fockpoly.series_basis(1, M, K, s_max=1, a_max=0)
    funcs = fockpoly.PolyFamily([f for _, f in labeled])
    cfg = quad.MCConfig(samples=60000, seed=8)
    g_rb, s_rb, _ = quad.mc_dj_gram(funcs, 1, M, K, cfg)
    g_mc, s_mc, _ = quad.mc_dj_gram(_sampled(funcs), 1, M, K, cfg)
    comb = np.sqrt(s_rb ** 2 + s_mc ** 2)
    assert np.all(np.abs(g_rb - g_mc) <= 4 * comb + 1e-9)
    # the exact-z path cancels odd-parity entries identically
    assert abs(g_rb[0, 1]) < 1e-14
    # and the sampled path does not: it really sampled z
    assert abs(g_mc[0, 1]) > 1e-6


@pytest.mark.parametrize("n", [1, 2, 3])
def test_mc_gram_blocks_match_one_shot(n):
    # the chunked, blocked driver, which hands the draw the accepted W only,
    # against one unblocked u u^H over *all* proposals with weight 0 off the
    # domain, replayed on the same seed; 5001 samples in chunks of 3000 leave
    # partial blocks in both
    polys = fockpoly.PolyFamily([fockpoly.basis_f(tuple(s), M)
                                 for s in fockpoly.enumerate_multiindices(n, 2)])
    # a nonzero shared log part, so the driver's exp(logs + logw / 2) is
    # exercised
    funcs = ds.SampledFunction(
        lambda mats, vecs: (polys.split(mats, vecs)[0], 0.5 * np.sum(np.abs(vecs) ** 2, axis=1)),
        "disk", size=len(polys))

    def draw(rng, ws, dets, mask):
        # z for every proposal, accepted rows kept, as the engines draw it
        zs = rng.standard_normal((len(mask), n)) + 1j * rng.standard_normal((len(mask), n))
        zs = zs[mask]
        rank = np.flatnonzero(mask) + 1.0
        # drop |W_11| >= 0.9 as well, so that n = 1 has zero weights too
        logw = np.where(np.abs(ws[:, 0, 0]) < 0.9,
                        -np.sum(np.abs(zs) ** 2, axis=1) + np.log(rank), -np.inf)
        return ws, zs, logw

    cfg, chunk = quad.MCConfig(samples=5001, seed=13), 3000
    assert cfg.samples % quad._BLOCK and chunk % quad._BLOCK
    gram, sigma, stats = quad._mc_gram(funcs, n, cfg, chunk, draw)

    # replay the proposals: polydisk entries, SVD membership, then z
    rng = np.random.default_rng(np.random.SeedSequence(cfg.seed))
    parts, accepted = [], 0
    for count in (3000, 2001):
        ws = _proposals(rng, count, n)[1]
        zs = rng.standard_normal((count, n)) + 1j * rng.standard_normal((count, n))
        in_domain = np.linalg.svd(ws, compute_uv=False)[:, 0] < 1
        accepted += int(in_domain.sum())
        inside = in_domain & (np.abs(ws[:, 0, 0]) < 0.9)
        logw = np.where(inside, -np.sum(np.abs(zs) ** 2, axis=1) + np.log(np.arange(count) + 1.0),
                        -np.inf)
        parts.append((ws, zs, logw))
    ws, zs, logw = (np.concatenate(p) for p in zip(*parts))
    assert np.any(np.isinf(logw)) and np.any(np.isfinite(logw))
    vals, logs = funcs.split(ws, zs)
    vals, weight = vals * np.exp(logs), np.exp(logw)
    acc = (vals * weight) @ vals.conj().T
    acc2 = (np.abs(vals) ** 2 * weight ** 2) @ (np.abs(vals) ** 2).T
    ref = (acc + acc.conj().T) / (2 * cfg.samples)
    ref_var = np.maximum((acc2 + acc2.T) / (2 * cfg.samples) - np.abs(ref) ** 2, 0.0)
    assert_allclose(gram, ref, rtol=1e-12, atol=1e-14 * np.max(np.abs(ref)))
    assert_allclose(sigma, np.sqrt(ref_var / cfg.samples), rtol=1e-12)
    # the run's stats: proposals, accepted W (the zero weights of |W_11| >=
    # 0.9 included), Kish ESS and largest weight share
    assert (stats["proposed"], stats["accepted"]) == (cfg.samples, accepted)
    assert_allclose(stats["ess"], np.sum(weight) ** 2 / np.sum(weight ** 2), rtol=1e-12)
    assert_allclose(stats["max_share"], np.max(weight) / np.sum(weight), rtol=1e-12)
    # and each function's Kish size of its contributions w |f_i|^2, whose
    # smallest a check reports
    contrib = np.abs(vals) ** 2 * weight
    ess_f = np.sum(contrib, axis=1) ** 2 / np.sum(contrib ** 2, axis=1)
    assert_allclose(stats["ess_f"], ess_f, rtol=1e-12)
    assert_allclose(quad.mc_stats(stats)["ess_f"], np.min(ess_f), rtol=1e-12)


def test_mc_engines_survive_rejected_chunks(monkeypatch):
    # n = 3 accepts about 0.3% of its polydisk proposals, so on this seed no
    # chunk of 20 keeps a sample: each draw runs on an empty stack and both
    # paths return a zero Gram and sigma, flagged as resting on no sample
    masks = []
    sample_w = quad._sample_w

    def recording(rng, count, n):
        ws, dets, mask = sample_w(rng, count, n)
        masks.append(mask)
        return ws, dets, mask

    monkeypatch.setattr(quad, "_sample_w", recording)
    monkeypatch.setattr(quad, "_CHUNK", 20)
    cfg = quad.MCConfig(samples=60, seed=5)
    f = fockpoly.PolyFamily([fockpoly.basis_f((0, 0, 0), M)])
    results = [quad.mc_dj_gram(f, 3, M, 4, cfg),
               quad.mc_dj_gram(_sampled(f), 3, M, 4, cfg)]
    assert len(masks) == 6 and all(len(mask) == 20 and not mask.any() for mask in masks)
    for gram, sigma, stats in results:
        assert np.all(gram == 0) and np.all(sigma == 0)
        assert quad.mc_stats(stats) == {"proposed": 60, "accepted": 0, "ess": 0.0,
                                        "max_share": 0.0, "ess_f": 0.0, "ess_f_low": True}


def test_mc_stats_flags_a_small_ess_f():
    # ess_f_low: the smallest Kish size of a Gram's functions is below
    # ESS_F_LOW_FRACTION of the accepted samples (the Monte Carlo Gram of
    # the n=2 series basis read 2.7 of 16,730 at seed 0); the other stats
    # pass through unchanged
    stats = {"proposed": 100000, "accepted": 16730, "ess": 900.0, "max_share": 0.2}
    cut = quad.ESS_F_LOW_FRACTION * 16730
    assert 167.0 < cut < 168.0
    for sizes, ess_f, low in (([2.7, 5000.0], 2.7, True), ([5000.0], 5000.0, False),
                              ([167.0], 167.0, True), ([168.0], 168.0, False),
                              ([2.7, 5000.0, 167.0, 168.0], 2.7, True)):
        got = quad.mc_stats({**stats, "ess_f": np.array(sizes)})
        assert got == {**stats, "ess_f": ess_f, "ess_f_low": low}


def _proposals(rng, count, n):
    """The polydisk proposals of quad._sample_w, all of them: their upper
    entries (count, d) and the symmetric stack (count, n, n)."""
    d = n * (n + 1) // 2
    radii = np.sqrt(rng.uniform(size=(count, d)))
    entries = radii * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, size=(count, d)))
    ws = np.zeros((count, n, n), dtype=complex)
    for idx, (i, j) in enumerate(numkit.upper_pairs(n)):
        ws[:, i, j] = ws[:, j, i] = entries[:, idx]
    return entries, ws


def _upper(ws):
    rows, cols = np.array(numkit.upper_pairs(ws.shape[-1])).T
    return ws[:, rows, cols]


@pytest.mark.parametrize("n", [1, 2, 3])
def test_membership_matches_svd(n):
    # the elimination on the upper entries against sigma_max(W) < 1 on
    # polydisk proposals, and on the same proposals rescaled to
    # sigma_max = 1 -/+ 1e-10
    _, ws = _proposals(np.random.default_rng(70 + n), 10000, n)
    smax = np.linalg.svd(ws, compute_uv=False)[:, 0]
    assert np.array_equal(quad._in_domain(_upper(ws), n)[0], smax < 1)
    for target, inside in ((1 - 1e-10, True), (1 + 1e-10, False)):
        scaled = ws * (target / smax)[:, None, None]
        assert np.all((np.linalg.svd(scaled, compute_uv=False)[:, 0] < 1) == inside)
        assert np.all(quad._in_domain(_upper(scaled), n)[0] == inside)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_radius_filter_drops_no_accepted_proposal(n):
    # _sample_w (radius filter, then the elimination on the survivors)
    # against the elimination on every proposal of the same stream: the same
    # mask and accepted W, bit for bit, and the same determinants up to the
    # roundoff of numpy's complex products, which depends on the layout
    entries, ws = _proposals(np.random.default_rng(80 + n), 100000, n)
    inside, dets = quad._in_domain(entries, n)
    got_ws, got_dets, mask = quad._sample_w(np.random.default_rng(80 + n), 100000, n)
    # n = 1 accepts every proposal, n = 2 about 1/6 and n = 3 about 0.3%
    assert inside.any() and (n == 1) == inside.all()
    assert np.array_equal(mask, inside)
    assert np.array_equal(got_ws, ws[inside])
    assert_allclose(got_dets, dets[inside], rtol=1e-13, atol=0)


def _w_stack(n, count=200, cap=0.95):
    return domains.sample_sj_disk_batch(n, count, n, cap).w


@pytest.mark.parametrize("n", [1, 2, 3])
def test_elimination_dets_match_lapack(n):
    # the product of the pivots against det(I - W conj(W)) on W with
    # sigma_max < 0.95
    ws = _w_stack(n)
    inside, dets = quad._in_domain(_upper(ws), n)
    assert inside.all()
    ref = np.linalg.det(np.eye(n) - ws @ ws.conj()).real
    assert_allclose(dets, ref, rtol=1e-13, atol=0)


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
    assert_allclose(quad._z_normalizer(dets, n, M), znorm, rtol=2e-15, atol=0)


def test_z_draw_keeps_the_stream():
    # the z-draw of the accepted W equals the Cholesky draw of inv(Q) / 2 and
    # consumes normals for every proposal, so what follows it in the stream
    # does not depend on the acceptances.  inv(Q) is accurate only to
    # cond(Q) eps, which grows without bound as sigma_max(W) -> 1, so the
    # draw is compared on the polydisk proposals with sigma_max < 0.95
    entries, ws = _proposals(np.random.default_rng(3), 500, 2)
    mask = np.linalg.svd(ws, compute_uv=False)[:, 0] < 0.95
    assert 0 < mask.sum() < quad._in_domain(entries, 2)[0].sum()
    qmats = _closed_forms(ws[mask], M, flip=True)
    rng, ref = np.random.default_rng(4), np.random.default_rng(4)
    zs = quad._sample_z_given_w(rng, -ws[mask], M, mask)
    gauss = ref.standard_normal((len(mask), 4))[mask]
    xs = np.einsum("bij,bj->bi", np.linalg.cholesky(np.linalg.inv(qmats) / 2.0), gauss)
    assert_allclose(zs, xs[:, :2] + 1j * xs[:, 2:], rtol=1e-14)
    assert rng.uniform() == ref.uniform()


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


def _power_sum_contraction(funcs, ws, weight):
    kern = quad._exact_z_kernel(fockpoly.PolyFamily(funcs), M)
    sums = quad._PowerSums(kern.shape[-1] - 1)
    sums.add(ws, weight)
    return quad._contract_power_sums(kern, *sums.unfold())


_GRAM_F = [f for _, f in fockpoly.series_basis(1, M, K, s_max=3, a_max=2)]
_WS = np.array([0.0, 0.3 - 0.4j, -0.7 + 0.1j, 0.05j, 0.6 + 0.7j])


@pytest.mark.parametrize("funcs", [_GRAM_F, _section_pair()], ids=["gram-F", "section"])
def test_power_sum_grams_match_scalar_moments(funcs):
    # the contraction at single samples (unit weight) against the
    # Gauss-Hermite conditional Gram: the Gram and its squared modulus
    for w, ref in zip(_WS, _gauss_hermite_grams(fockpoly.PolyFamily(funcs), _WS)):
        acc, acc2 = _power_sum_contraction(funcs, np.array([w]), np.ones(1))
        assert_allclose(acc, ref, rtol=1e-12, atol=1e-12)
        assert_allclose(acc2, np.abs(ref) ** 2, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("funcs", [_GRAM_F, _section_pair()], ids=["gram-F", "section"])
def test_power_sum_variance_matches_per_sample_sum(funcs):
    # sum_t weight_t^2 |G_t|^2 and sum_t weight_t G_t over several weighted
    # samples against the per-sample values
    weight = np.array([0.5, 1.7, 0.2, 3.0, 0.9])
    grams = _gauss_hermite_grams(fockpoly.PolyFamily(funcs), _WS)
    acc, acc2 = _power_sum_contraction(funcs, _WS, weight)
    assert_allclose(acc, np.tensordot(weight, grams, axes=1), rtol=1e-12, atol=1e-12)
    ref2 = np.tensordot(weight ** 2, np.abs(grams) ** 2, axes=1)
    assert_allclose(acc2, ref2, rtol=1e-12, atol=1e-12 * np.max(ref2))


def test_power_sum_parity_entries_are_exact_zeros():
    # functions of z-degree of different parity pair to an odd moment: their
    # kernel block, Gram entry and variance vanish identically
    zdeg = [sum(s) for s, _ in (lbl for lbl, _ in fockpoly.series_basis(1, M, K, 3, 2))]
    odd = np.array([[(a - b) % 2 == 1 for b in zdeg] for a in zdeg])
    kern = quad._exact_z_kernel(fockpoly.PolyFamily(_GRAM_F), M)
    assert odd.any() and np.all(kern[odd] == 0)
    acc, acc2 = _power_sum_contraction(_GRAM_F, _WS, np.ones(len(_WS)))
    assert np.all(acc[odd] == 0) and np.all(acc2[odd] == 0)
    gram, sigma, _ = quad.mc_dj_gram(fockpoly.PolyFamily(_GRAM_F), 1, M, K,
                                     quad.MCConfig(samples=30000, seed=3))
    assert np.all(gram[odd] == 0) and np.all(sigma[odd] == 0)


@pytest.mark.parametrize("deg", range(8))
def test_folded_power_sums_match_direct_sums(deg):
    # M and M2 unfolded from a stream fed in blocks of _BLOCK, the last one
    # partial, against the per-sample sums of weight^(1|2) w^a conj(w)^b;
    # deg = 0 has a one-row |w|^(2b) table
    rng = np.random.default_rng(90 + deg)
    count = 2 * quad._BLOCK + 123
    w = np.sqrt(rng.uniform(size=count)) * np.exp(2j * np.pi * rng.uniform(size=count))
    w[0] = 0.0
    weight = rng.uniform(0.1, 2.0, size=count)
    sums = quad._PowerSums(deg)
    for lo in range(0, count, quad._BLOCK):
        sums.add(w[lo:lo + quad._BLOCK], weight[lo:lo + quad._BLOCK])
    big, big2 = sums.unfold()
    powers = w[:, None] ** np.arange(2 * deg + 1)
    low = powers[:, :deg + 1]
    assert big.shape == (deg + 1, deg + 1) and big2.shape == (2 * deg + 1, 2 * deg + 1)
    assert_allclose(big, np.einsum("t,ta,tb->ab", weight, low, low.conj()), rtol=1e-13)
    assert_allclose(big2, np.einsum("t,ta,tb->ab", weight ** 2, powers, powers.conj()),
                    rtol=1e-13)


def test_mc_dj_gram_exact_z_replays_per_sample_grams(monkeypatch):
    # the exact-z twin of test_mc_gram_blocks_match_one_shot: mc_dj_gram at
    # n = 1 on a PolyFamily with complex coefficients against a replay of its
    # proposals, each sample's conditional Gram E[f_i conj(f_j) | w] from the
    # family's own values on a tensor Gauss-Hermite rule of the z-law, and
    # the weight det^(k - 3) Z written out; 5001 samples in chunks of 3000
    # leave partial blocks in both chunks
    family = fockpoly.PolyFamily(_section_pair())
    assert np.iscomplexobj(family.coeffs) and np.any(family.coeffs.imag)
    k = 5
    monkeypatch.setattr(quad, "_EXACT_Z_CHUNK", 3000)
    cfg = quad.MCConfig(samples=5001, seed=17)
    assert cfg.samples % quad._BLOCK and quad._EXACT_Z_CHUNK % quad._BLOCK
    gram, sigma, stats = quad.mc_dj_gram(family, 1, M, k, cfg)

    rng = np.random.default_rng(np.random.SeedSequence(cfg.seed))
    w = np.concatenate([_proposals(rng, count, 1)[0][:, 0] for count in (3000, 2001)])
    dets = 1.0 - np.abs(w) ** 2
    weight = dets ** (k - 3) * np.sqrt(dets) / (8 * M)
    grams = _gauss_hermite_grams(family, w)
    acc = np.tensordot(weight, grams, axes=1)
    acc2 = np.tensordot(weight ** 2, np.abs(grams) ** 2, axes=1)
    ref = (acc + acc.conj().T) / (2 * cfg.samples)
    ref_var = np.maximum((acc2 + acc2.T) / (2 * cfg.samples) - np.abs(ref) ** 2, 0.0)
    assert_allclose(gram, ref, rtol=1e-12, atol=1e-14 * np.max(np.abs(ref)))
    assert_allclose(sigma, np.sqrt(ref_var / cfg.samples), rtol=1e-12)
    assert (stats["proposed"], stats["accepted"]) == (cfg.samples, cfg.samples)
    assert_allclose(stats["ess"], np.sum(weight) ** 2 / np.sum(weight ** 2), rtol=1e-12)
    assert_allclose(stats["max_share"], np.max(weight) / np.sum(weight), rtol=1e-12)
    diag = np.einsum("t,tii->i", weight, grams).real
    diag2 = np.einsum("t,tii->i", weight ** 2, np.abs(grams) ** 2)
    assert_allclose(stats["ess_f"], diag ** 2 / diag2, rtol=1e-12)


def test_exact_z_stats_match_the_disk_draw():
    # at n = 1 the exact-z weight is det^(k - 2) Z, proportional to the
    # bounded-domain weight det^(k - 5/2): the ESS and the largest share,
    # both scale-free, are those of det^(k - 5/2) on the W that _sample_w
    # draws from the same stream in chunks of the exact-z size
    cfg = quad.MCConfig(samples=50000, seed=17)
    _, _, exact = quad.mc_dj_gram(fockpoly.PolyFamily(_GRAM_F[:2]), 1, M, K, cfg)
    rng = np.random.default_rng(np.random.SeedSequence(cfg.seed))
    chunks = range(0, cfg.samples, quad._EXACT_Z_CHUNK)
    weight = np.concatenate([quad._sample_w(rng, min(quad._EXACT_Z_CHUNK, cfg.samples - lo), 1)[1]
                             for lo in chunks]) ** (K - 2.5)
    assert exact["proposed"] == exact["accepted"] == cfg.samples == len(weight)
    assert_allclose(exact["ess"], np.sum(weight) ** 2 / np.sum(weight ** 2), rtol=1e-12)
    assert_allclose(exact["max_share"], np.max(weight) / np.sum(weight), rtol=1e-12)
    assert 0.5 * cfg.samples < exact["ess"] < cfg.samples


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


def test_exact_dj_gram_matches_the_sampled_z_gram_at_n2():
    # the F_sa with |s| <= 1, a <= 1 at n = 2: the Monte Carlo Gram draws z
    # from its law, so it checks the Wick coefficients with code they do not
    # share; every one of the 144 entries lies within t sigma, t the normal
    # quantile of a union bound at 1e-3 (4.5), plus a roundoff floor
    family = fockpoly.PolyFamily([f for _, f in fockpoly.series_basis(2, M, K, 1, 1)])
    size = len(family)
    exact = quad.exact_dj_gram(family, M, K)
    assert size == 12 and np.max(np.abs(exact - np.eye(size))) <= 1e-12
    gram, sigma, _ = quad.mc_dj_gram(family, 2, M, K, quad.MCConfig(samples=400000, seed=0))
    t = statistics.NormalDist().inv_cdf(1.0 - 1e-3 / (2 * size * size))
    assert np.all(np.abs(gram - exact) <= t * sigma + 1e-9)


@pytest.mark.parametrize("n", [1, 2])
def test_mc_dj_inner_same_function_path(n):
    # <psi, psi> from the one-function Gram; a distinct but equal psi2 in a
    # family of two must give the same estimate, on and off the diagonal
    s = (1,) + (0,) * (n - 1)
    psi, psi2 = fockpoly.basis_f(s, M), fockpoly.basis_f(s, M)
    cfg = quad.MCConfig(samples=20000, seed=15)
    one, one_sigma, _ = quad.mc_dj_gram(fockpoly.PolyFamily([psi]), n, M, K, cfg)
    two, two_sigma, _ = quad.mc_dj_gram(fockpoly.PolyFamily([psi, psi2]), n, M, K, cfg)
    for entry in ((0, 0), (0, 1), (1, 1)):
        assert abs(two[entry] - one[0, 0]) <= 1e-12 * abs(one[0, 0])
        assert abs(two_sigma[entry] - one_sigma[0, 0]) <= 1e-12 * one_sigma[0, 0]


@pytest.mark.parametrize("n", [1, 2])
def test_family_grams_match_one_member_runs(n):
    # one Gram over a family against one run per function on the same seed:
    # diagonal, sigma and per-function Kish size
    psis = [f for _, f in suites._isometry_functions(suites.SuiteConfig(n=n, m=M, k=K))]
    cfg = quad.MCConfig(samples=20000, seed=16)
    gram, sigma, stats = quad.mc_dj_gram(fockpoly.PolyFamily(psis), n, M, K, cfg)
    for i, psi in enumerate(psis):
        g1, s1, st1 = quad.mc_dj_gram(fockpoly.PolyFamily([psi]), n, M, K, cfg)
        assert_allclose(gram[i, i], g1[0, 0], rtol=1e-12, atol=0)
        assert_allclose(sigma[i, i], s1[0, 0], rtol=1e-12, atol=0)
        assert_allclose(stats["ess_f"][i], st1["ess_f"][0], rtol=1e-12, atol=0)
        assert all(stats[key] == st1[key] for key in ("proposed", "accepted"))
        assert_allclose([stats["ess"], stats["max_share"]],
                        [st1["ess"], st1["max_share"]], rtol=1e-12)


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
