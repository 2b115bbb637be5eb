"""Tests of the benchmark itself: python3 -m pytest perfbench -q"""

import json
import os
import re
from types import SimpleNamespace

import pytest

import run
from tracing import Tracer
from workloads import (KNOWN_FAILURES, Tally, VerifyWorkload, expected_checks,
                       gram_checks, tally_suite)

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def _check(name, passed, residual, tol):
    return {"name": name, "pass": passed, "residual": residual, "tol": tol}


def _fake_sj(reports):
    """A stand-in for the sjdomains package whose CLI writes `reports`
    ({suite: checks, or an exception to raise})."""
    def main(argv):
        suite = argv[argv.index("--suite") + 1]
        result = reports[suite]
        if isinstance(result, Exception):
            raise result
        passed = all(c["pass"] for c in result)
        with open(argv[argv.index("--out") + 1], "w") as handle:
            json.dump({"suite": suite, "checks": result, "pass": passed}, handle)
        return 0 if passed else 1

    return SimpleNamespace(cli=SimpleNamespace(main=main),
                           suites=SimpleNamespace(SUITES=dict.fromkeys(reports),
                                                  sub_seed=lambda base, name: base))


def test_failed_check_is_a_failed_operation_not_a_crash(tmp_path):
    sj = _fake_sj({
        "cayley": [_check("roundtrip", True, 1e-15, 1e-12),
                   _check("equivariance", False, 1e-6, 1e-9)],
        "cocycle": FloatingPointError("overflow in the suite"),
    })
    workload = VerifyWorkload(1)
    tally = workload.check(workload.execute(sj, 0, str(tmp_path)))
    cocycle = [f"cocycle/{c}" for c in expected_checks(1)["cocycle"]]
    assert tally.attempted == 2 + len(cocycle)
    assert tally.failed == 1 + len(cocycle)
    assert tally.failures == ["cayley/equivariance"] + cocycle
    assert any("FloatingPointError" in p for p in tally.problems)


def test_known_failure_keeps_the_run_correct():
    (n, suite, check), = KNOWN_FAILURES
    tally = Tally()
    report = {"checks": [_check(check, False, 0.11, 0.05)], "pass": False}
    tally_suite(n, suite, {"code": 1, "report": report}, [check], tally)
    assert (tally.attempted, tally.failed, tally.problems) == (1, 1, [])


def test_mc_verdicts_are_not_counted_but_bounded():
    expected = ["gram-identity", "sigma-budget", "parity-zeros"]

    def tally_of(residual):
        tally = Tally()
        checks = [_check("gram-identity", residual <= 0.01, residual, 0.01),
                  _check("sigma-budget", True, 3.5e-3, 9.5e-3),
                  _check("parity-zeros", True, 0.0, 1e-12)]
        report = {"checks": checks, "pass": all(c["pass"] for c in checks)}
        code = 0 if report["pass"] else 1
        tally_suite(1, "series-gram", {"code": code, "report": report}, expected, tally)
        return tally

    near = tally_of(0.015)      # fails its 3 sigma, within twice the tolerance
    assert (near.attempted, near.failed, near.problems) == (2, 0, [])
    assert near.uncounted == ["series-gram/gram-identity"]
    assert tally_of(0.025).problems


def test_verdict_must_follow_from_the_numbers():
    tally = Tally()
    report = {"checks": [_check("roundtrip", True, 1e-9, 1e-12)], "pass": True}
    tally_suite(1, "cayley", {"code": 0, "report": report}, ["roundtrip"], tally)
    assert tally.problems and tally.failed == 0


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_on_a_synthetic_span_tree():
    clock = FakeClock()
    tracer = Tracer(clock)

    def tick(seconds):
        clock.now += seconds

    def a():                   # [0, 10]: children b [1, 4] and c [5, 9]
        tick(1); b(); tick(1); c(); tick(1)

    def c_body():              # [5, 9]: children d [6, 7] and e [7, 8]
        tick(1); d(); e(); tick(1)

    a = tracer.wrap(a, "groups", "a")
    b = tracer.wrap(lambda: tick(3), "kernels", "b")
    c = tracer.wrap(c_body, "kernels", "c")
    d = tracer.wrap(lambda: tick(1), "numkit", "d")
    e = tracer.wrap(lambda: tick(1), "kernels", "e")
    a()
    by_name = {s.name: s for s in tracer.sites}
    assert {k: s.self_s for k, s in by_name.items()} == {"a": 3, "b": 3, "c": 2, "d": 1, "e": 1}
    assert by_name["a"].total_s == 10 and by_name["c"].total_s == 4
    totals = tracer.layer_totals()
    assert totals["groups"]["self_s"] == 3
    assert totals["kernels"]["self_s"] == 6 and totals["kernels"]["calls"] == 3
    assert totals["numkit"]["self_s"] == 1
    # e runs inside c, so the layer's inclusive time counts it once
    assert tracer.layer_outer_s["kernels"] == 7


def test_a_span_closes_when_its_call_raises():
    clock = FakeClock()
    tracer = Tracer(clock)

    def boom():
        clock.now += 2
        raise ValueError("boom")

    outer = tracer.wrap(lambda: pytest.raises(ValueError, inner), "cli", "outer")
    inner = tracer.wrap(boom, "quad.mc", "inner")
    outer()
    assert [s.calls for s in tracer.sites] == [1, 1]
    assert tracer.sites[0].self_s == 0 and tracer.sites[1].self_s == 2


def test_metric_names_are_well_formed_and_match_benchmark_json():
    end_to_end = list(run.end_to_end_metrics([1.0], [{"wall_s": 1.0, "peak_rss_mib": 1.0}]))
    per_layer = run.per_layer_names()
    names = end_to_end + per_layer
    assert all(NAME.match(name) for name in names), [n for n in names if not NAME.match(n)]
    assert len(set(names)) == len(names)
    spec_path = os.path.join(os.path.dirname(run.HERE), "BENCHMARK.json")
    if os.path.exists(spec_path):
        with open(spec_path) as handle:
            spec = json.load(handle)
        assert [m["name"] for m in spec["end_to_end"]] == end_to_end
        assert [m["name"] for m in spec["per_layer"]] == per_layer
        assert sorted(w["name"] for w in spec["workloads"]) == sorted(run.WORKLOADS)


def _gram_payload(perturb=0.0):
    labels = [f"(({s},), SymIndex(n=1, upper=({a},)))" for s in range(4) for a in range(3)]
    size = len(labels)
    matrix = [[[1.0 if i == j else 0.0, 0.0] for j in range(size)] for i in range(size)]
    sigma = [[1e-3 if (i // 3 - j // 3) % 2 == 0 else 0.0 for j in range(size)]
             for i in range(size)]
    matrix[0][6][0] += perturb
    matrix[6][0][0] += perturb
    return {"labels": labels, "matrix": matrix, "sigma": sigma}


def test_gram_checks_accept_the_identity_and_reject_a_biased_entry():
    assert all(passed for _, passed, _ in gram_checks(_gram_payload()))
    verdicts = {name: passed for name, passed, _ in gram_checks(_gram_payload(0.01))}
    assert verdicts == {"hermitian": True, "parity-zeros": True, "sigma-max": True,
                        "gram-identity": False}
