import dataclasses
import inspect
import math

import pytest

from sjdomains import domains, fockpoly, kernels, quad, suites
from sjdomains.suites import SuiteConfig


def test_registry_names():
    assert set(suites.SUITES) == {
        "group-axioms", "theta-iso", "actions", "cayley", "cocycle", "genfun",
        "pde", "expansions", "orthonormality-fock", "gaussian-integrals",
        "q-basis", "transfer-identities", "measure-jacobian", "series-gram",
        "isometry", "intertwining", "reproducing", "kernel-invariance"}


def test_sub_seed_stable():
    # crc32 is platform-independent, so reports are reproducible everywhere
    assert suites.sub_seed(0, "series-gram") == suites.sub_seed(0, "series-gram")
    assert suites.sub_seed(0, "series-gram") != suites.sub_seed(1, "series-gram")
    assert suites.sub_seed(3, "a") != suites.sub_seed(3, "b")


# the geometry suites: the group laws, theta, the actions, the Cayley chart,
# the automorphy factors and the transfer identities, evaluated on stacks
GEOMETRY_SUITES = ["actions", "cayley", "cocycle", "group-axioms", "kernel-invariance",
                   "measure-jacobian", "theta-iso", "transfer-identities"]

# n=2 also runs the polynomial-engine suites, the suites built on the
# Gaussian z-law and moments of quad, the exact Grams of q-basis and
# series-gram, and intertwining and isometry, which evaluate transported
# functions; reproducing runs at n = 1 only
N2_SUITES = GEOMETRY_SUITES + ["expansions", "gaussian-integrals", "genfun", "intertwining",
                               "isometry", "orthonormality-fock", "pde", "q-basis",
                               "series-gram"]

# n=3 needs k > n + 1/2 for the discrete series
N3_SUITES = N2_SUITES


@pytest.mark.parametrize("name,n,k", [pytest.param(name, 1, 3, id=name) for name in sorted(suites.SUITES)]
                         + [pytest.param(name, 2, 3, id=f"{name}-n2") for name in N2_SUITES]
                         + [pytest.param(name, 3, 4, id=f"{name}-n3") for name in N3_SUITES])
def test_each_suite_passes_quick(name, n, k):
    cfg = SuiteConfig(n=n, k=k, seed=1)
    rep = suites.run_suite(name, cfg)
    failing = [c.summary() for c in rep.checks if not c.passed]
    assert rep.passed, failing
    assert rep.suite
    assert all(c.name for c in rep.checks)


# the suites of the Fock z-law at masses other than the default 0.25: the
# closed-form law, the Wick factor and the calibration hold at every m
@pytest.mark.parametrize("name", ["gaussian-integrals", "orthonormality-fock"])
@pytest.mark.parametrize("m", [0.05, 1.0, 4.0])
@pytest.mark.parametrize("n,k", [(1, 3), (1, 4), (2, 3), (2, 4), (3, 4)])
def test_fock_suites_pass_at_other_masses(name, m, n, k):
    rep = suites.run_suite(name, SuiteConfig(n=n, m=m, k=k, seed=1))
    assert rep.passed, [c.summary() for c in rep.checks if not c.passed]


@pytest.mark.parametrize("n", [1, 2])
def test_run_all_reports_the_checks_the_benchmark_expects(n, benchmark_workloads):
    # the benchmark marks a run incorrect when a suite's check names differ
    # from expected_checks(n); a renamed, added or dropped check fails here
    rep = suites.run_suite("all", SuiteConfig(n=n, seed=1))
    got = {}
    for c in rep.checks:
        suite, check = c.name.split("/", 1)
        got.setdefault(suite, []).append(check)
    expected = benchmark_workloads.expected_checks(n)
    assert list(got) == list(expected)
    assert got == expected


# the suites whose points and group elements come from the stack samplers,
# one generator per stack: each passes at several seeds within its tolerance
SAMPLED_SUITES = ["actions", "cayley", "cocycle", "group-axioms", "intertwining",
                  "kernel-invariance", "measure-jacobian", "theta-iso", "transfer-identities"]


@pytest.mark.parametrize("name", SAMPLED_SUITES)
@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("seed", [0, 7, 11])
def test_sampled_suites_pass_at_several_seeds(name, n, seed):
    rep = suites.run_suite(name, SuiteConfig(n=n, seed=seed))
    assert rep.passed, [c.summary() for c in rep.checks if not c.passed]


def test_run_all_aggregates_with_prefixes():
    cfg = SuiteConfig(seed=2)
    rep = suites.run_suite("all", cfg)
    assert rep.passed
    assert rep.suite == "all"
    prefixes = {c.name.split("/")[0] for c in rep.checks}
    assert prefixes == set(suites.SUITES)
    assert set(rep.wall_s) == prefixes and all(t > 0 for t in rep.wall_s.values())


@pytest.mark.parametrize("seed", [2002, 3003])
def test_fock_expansions_grow_to_their_tail_target(seed):
    # at these `verify --suite all` seeds degree 14 left fock-at-w at n=2 a
    # tail of 8e-6 and a residual of 1.9e-6 against 1e-6; each pair now grows
    # its degree until the last grade is <= tol / 100
    rep = suites.run_expansions(SuiteConfig(n=2, seed=suites.sub_seed(seed, "expansions")))
    assert rep.passed, [c.summary() for c in rep.checks]
    for c in rep.checks:
        assert c.detail["degree"] in suites.FOCK_DEGREES
        assert c.detail["tail_estimate"] <= 1e-8


def _expansions_pair_by_pair(n, seed, pairs=20, tol=1e-6):
    """Reference for run_expansions: each pair grown alone, degree by
    degree, to the first degree of FOCK_DEGREES whose tail is <= tol / 100
    (or the cap), and per check the largest (residual, tail, degree)."""
    xps, xs = (domains.sample_sj_disk_batch(n, pairs, (seed, 6007, i), 0.25, 0.3) for i in (0, 1))
    worst = {}
    for xp, x in zip(xps, xs):
        for name, pair_xp, m in (("matching", xp, fockpoly.MATCHING_M),
                                 ("fock-at-w", domains.SJDiskPoint(x.w, xp.z), 0.25),
                                 ("fock-full", xp, 0.25)):
            for degree, res in zip(suites.FOCK_DEGREES, fockpoly.fock_expansions(
                    pair_xp, x, m, suites.FOCK_DEGREES)):
                if res.tail_estimate <= tol / 100:
                    break
            closed = kernels.kmk_star_kernel(pair_xp, x, m, 0.5)
            worst[name] = max(worst.get(name, (0.0, 0.0, 0)),
                              (abs(res.value - closed), res.tail_estimate, degree))
    return worst


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_stacked_expansions_select_each_pairs_degree(n, seed):
    # one stacked run per check gives the degrees and worst residuals of
    # the pairs grown one at a time
    checks = {c.name: c for c in suites.run_expansions(SuiteConfig(n=n, seed=seed)).checks}
    for name, (resid, tail, degree) in _expansions_pair_by_pair(n, seed).items():
        assert checks[name].detail["degree"] == degree
        assert abs(checks[name].residual - resid) <= 1e-15
        assert abs(checks[name].detail["tail_estimate"] - tail) <= 1e-15 * tail


@pytest.mark.parametrize("name", sorted(suites.SUITES))
def test_single_suite_report_records_its_run(name):
    # a single-suite report carries the config that made it, every field and
    # the seed it was given (not a Monte Carlo substream), so a rerun from
    # the report's own params and seed repeats it
    cfg = SuiteConfig(n=1, seed=5)
    rep = suites.run_suite(name, cfg)
    assert (rep.suite, rep.params, rep.seed) == (name, cfg.to_dict(), cfg.seed)
    assert list(rep.params) == ["n", "m", "k"]
    again = suites.run_suite(name, SuiteConfig(seed=rep.seed, **rep.params))
    assert again.to_json() == rep.to_json()


def test_unknown_suite_raises():
    with pytest.raises(KeyError):
        suites.run_suite("bogus", SuiteConfig())


def test_every_check_is_built_from_the_config_alone():
    # a runner takes the config and nothing else, and the config holds the
    # run's parameters, no tolerance and no size: each check keeps its
    # contract bound and sizes
    assert [f.name for f in dataclasses.fields(SuiteConfig)] == [
        "n", "m", "k", "seed"]
    for runner in suites.SUITES.values():
        assert list(inspect.signature(runner).parameters) == ["cfg"]


def test_run_all_passes_at_n3():
    # every suite that runs at n = 3, at k = 4, in one run
    rep = suites.run_all(SuiteConfig(n=3, k=4, seed=0))
    assert rep.passed, [c.summary() for c in rep.checks if not c.passed]


@pytest.mark.parametrize("seed", [0, 2, 3, 5])
def test_q_basis_check_is_exact_and_draws_nothing(monkeypatch, seed):
    # the seeds whose Monte Carlo Gram missed 0.05 at n = 2: the check now
    # reads the Faraut-Koranyi Gram, with no sample drawn
    def no_sampling(*args, **kwargs):
        raise AssertionError("q-basis drew a Monte Carlo Gram")

    monkeypatch.setattr(quad, "mc_dj_gram", no_sampling)
    check, = suites.run_q_basis(SuiteConfig(n=2, seed=suites.sub_seed(seed, "q-basis"))).checks
    assert check.passed and check.residual <= 1e-12 and check.tol == 1e-12


@pytest.mark.parametrize("n,k", [(1, 3), (2, 3), (3, 4)])
def test_q_basis_check_rejects_a_basis_at_another_weight(monkeypatch, n, k):
    # a basis built at k + 1/2 misses the Gram at k by more than 1 (1.2, 4.9
    # and 9.5)
    build = fockpoly.q_basis
    monkeypatch.setattr(fockpoly, "q_basis", lambda n, k, degree: build(n, k + 0.5, degree))
    check, = suites.run_q_basis(SuiteConfig(n=n, k=k)).checks
    assert not check.passed and check.residual > 1.0


def test_gram_suite_rejects_small_k():
    with pytest.raises(ValueError):
        suites.run_suite("series-gram", SuiteConfig(n=1, k=1))


def test_suite_config_refuses_each_bad_field():
    # the config checks its own fields when it is built, a bool being no
    # number; k > n + 1/2 is not among them (q_basis refuses it)
    for field, value in (("n", 0), ("n", True), ("m", 0), ("m", -1.0), ("m", math.inf),
                         ("m", math.nan), ("m", 9.9e-31), ("m", 1.01e30), ("k", 2.5),
                         ("seed", -1)):
        with pytest.raises(ValueError, match=f"^{field} must be"):
            SuiteConfig(**{field: value})
    assert SuiteConfig(k=1).k == 1
    assert [SuiteConfig(m=m).m for m in suites.M_RANGE] == [1e-30, 1e30]


def test_kernel_section_pairing_reports_the_pair_furthest_past_its_bound(monkeypatch):
    # the pairings are entries (0, j) of the exact Gram: one off by 0.2 and
    # another off by 0.5 fail the roundoff bound, and the check reports the
    # one furthest past it
    real = quad.exact_dj_gram

    def skewed(*args):
        gram = real(*args).copy()
        gram[0, 1] += 0.2
        gram[0, 2] += 0.5
        return gram

    monkeypatch.setattr(quad, "exact_dj_gram", skewed)
    check = suites.run_reproducing(SuiteConfig(seed=3)).checks[1]
    assert check.name == "kernel-section-pairing"
    assert not check.passed and check.residual > check.tol
    assert abs(check.residual - 0.5) < 1e-12 and check.tol == 1e-12


def test_run_all_refuses_small_k_before_any_suite_runs(monkeypatch):
    # k <= n + 1/2 is refused with q_basis's message before the first
    # runner is called, so no finished suite is discarded
    called = []
    for name in suites.SUITES:
        monkeypatch.setitem(suites.SUITES, name, lambda cfg, name=name: called.append(name))
    refusal = r"^need k > n \+ 1/2 for a finite-norm basis, got k=1, n=1$"
    with pytest.raises(ValueError, match=refusal):
        suites.run_all(SuiteConfig(k=1))
    assert called == []
