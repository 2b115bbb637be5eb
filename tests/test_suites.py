import pytest

from sjdomains import domains, fockpoly, kernels, suites
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
# Gaussian z-law and moments of quad, and intertwining, which evaluates
# transported functions; q-basis is left out: its basis is exact, but its
# check's own Monte Carlo Gram still misses 0.05 at some seeds (ROADMAP
# items 3 and 8)
N2_SUITES = GEOMETRY_SUITES + ["expansions", "gaussian-integrals", "genfun", "intertwining",
                               "isometry", "orthonormality-fock", "pde", "series-gram"]

# n=3 needs k > n + 1/2 for the discrete series; isometry runs its MC
# engines on the accepted W of a polydisk that keeps about 0.3% of them
N3_SUITES = GEOMETRY_SUITES + ["expansions", "gaussian-integrals", "genfun", "intertwining",
                               "isometry", "orthonormality-fock", "pde"]


@pytest.mark.parametrize("name,n,k", [pytest.param(name, 1, 3, id=name) for name in sorted(suites.SUITES)]
                         + [pytest.param(name, 2, 3, id=f"{name}-n2") for name in N2_SUITES]
                         + [pytest.param(name, 3, 4, id=f"{name}-n3") for name in N3_SUITES])
def test_each_suite_passes_quick(name, n, k):
    cfg = SuiteConfig(n=n, k=k, samples=30000, seed=1)
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
    rep = suites.run_suite("all", SuiteConfig(n=n, samples=30000, seed=1))
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
    cfg = SuiteConfig(samples=20000, seed=2)
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
    cfg = SuiteConfig(n=1, seed=5, samples=2000, trunc=11)
    rep = suites.run_suite(name, cfg)
    assert (rep.suite, rep.params, rep.seed) == (name, cfg.to_dict(), cfg.seed)
    again = suites.run_suite(name, SuiteConfig(seed=rep.seed, **rep.params))
    assert again.to_json() == rep.to_json()


def test_unknown_suite_raises():
    with pytest.raises(KeyError):
        suites.run_suite("bogus", SuiteConfig())


def test_tol_override_applies():
    rep = suites.run_suite("group-axioms", SuiteConfig(tol=1e-30))
    assert not rep.passed  # impossible tolerance must fail honestly
    rep = suites.run_suite("group-axioms", SuiteConfig(tol=1e-6))
    assert rep.passed


def test_gram_suite_rejects_small_k():
    with pytest.raises(ValueError):
        suites.run_suite("series-gram", SuiteConfig(n=1, k=1))
