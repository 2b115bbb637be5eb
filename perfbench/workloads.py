"""The benchmark's workloads and the checks on their outputs.

An operation is one verification check: one CheckResult in a report for the
verify workloads (except the Monte Carlo verdicts in MC_VERDICTS), one output
check on the Gram matrix for gram-mc.  A run attempts whole workloads, so the
failed share of the attempted operations is fixed by the program, whatever
the seed and the run length.

Everything here that touches sjdomains goes through its CLI (`cli.main`), the
product a user runs; the checks read the files the CLI wrote and recompute
each verdict.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import re
import statistics
import time
import traceback
from dataclasses import dataclass, field

M, K = 0.25, 3

# (n, suite, check) of the one check that fails on every input today: the
# n >= 2 q_basis is orthonormalized on MC samples and its Gram residual
# exceeds 0.05.  It runs on the substream that `verify --suite all --seed 0`
# gives q-basis, independent of the benchmark seed, so it fails in every run.
KNOWN_FAILURES = {(2, "q-basis", "gram-identity")}
PINNED_BASE_SEED = {(2, "q-basis"): 0}

# Checks whose verdict is a Monte Carlo test on the seed's samples.  At a
# fixed tolerance some seeds fail them (series-gram/gram-identity at n=1
# fails for `verify --suite all --seed 11`), which would make the failed
# share depend on the seed, so they run but are not counted as operations.
# A run is still incorrect if one of them misses twice its tolerance (6 sigma
# for the 3-sigma checks), which sampling noise does not reach.
MC_VERDICTS = {
    "q-basis": {"gram-identity"},
    "series-gram": {"gram-identity"},
    "isometry": {"isometry-F00", "isometry-F10", "isometry-F01", "isometry-mix"},
    "reproducing": {"kernel-section-pairing"},
}
MC_SLACK = 2.0


def is_mc_verdict(n: int, suite: str, check: str) -> bool:
    return (check in MC_VERDICTS.get(suite, ())
            and (n, suite, check) not in KNOWN_FAILURES)


def expected_checks(n: int) -> dict:
    """Suite -> check names that `verify --suite all` reports at this n."""
    one = n == 1
    table = {
        "group-axioms": ["space-associativity", "space-inverse",
                         "disk-associativity", "disk-inverse"],
        "theta-iso": ["homomorphism", "inverse-roundtrip"],
        "actions": ["space-composition", "space-identity", "disk-composition",
                    "disk-identity"],
        "cayley": ["roundtrip", "equivariance"],
        "cocycle": ["sp-factor", "sp-star-factor", "space-automorphy",
                    "disk-automorphy"],
        "genfun": ["generating-vs-recursion"],
        "pde": ["heat-system-exact", "heat-system-float"],
        "expansions": (["matching-fixed-point"] if one else [])
        + ["matching", "fock-at-w", "fock-full"] + (["discrete"] if one else []),
        "orthonormality-fock": [f"gram-w{i}" for i in range(3 if one else 2)]
        + ["calibration-ratio"],
        "gaussian-integrals": ["moment-factorial",
                               "weight-normalization-closed-form",
                               "generating-series-pairing"],
        "q-basis": ["gram-identity"],
        "transfer-identities": ["imag-part-matrix", "imag-part-vector",
                                "exponent-transfer"],
        "measure-jacobian": [f"measure-constant-n{n}"],
        "series-gram": ["gram-identity"]
        + (["sigma-budget", "parity-zeros"] if one else []),
        "isometry": ["roundtrip-disk", "roundtrip-space", "isometry-F00",
                     "isometry-F10", "isometry-F01", "isometry-mix"],
        "intertwining": ["intertwining"],
        "reproducing": ["kernel-expansion", "kernel-section-pairing"],
        "kernel-invariance": ["invariance-ratio"],
    }
    if not one:
        del table["reproducing"]
    return table


ALL_SUITES = tuple(expected_checks(1))


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)   # failed operations
    problems: list = field(default_factory=list)   # benchmark checks that failed
    uncounted: list = field(default_factory=list)  # MC verdicts, not operations

    def operation(self, name: str, passed: bool, known: bool = False,
                  detail="check failed"):
        """Count one operation; a failure that is not a known one is also a
        problem, which marks the run incorrect."""
        self.attempted += 1
        if not passed:
            self.failed += 1
            self.failures.append(name)
            if not known:
                self.problems.append(f"{name}: {detail}")


def run_cli(main, argv):
    """Call the CLI entry point with its output captured.  Returns
    (exit code or None if it raised, error text)."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    except Exception:  # a raising suite is a failed operation, not a crash
        return None, traceback.format_exc(limit=-3)
    return code, err.getvalue().strip()


def _read_json(path):
    try:
        with open(path) as handle:
            return json.load(handle)
    except (OSError, ValueError):
        return None


def _close(a, b, rel=1e-12):
    return abs(a - b) <= rel * max(abs(a), abs(b))


# --- verify workloads ---

def _error(entry: dict):
    """The check's statistic: its residual, or |estimate - target|."""
    if "residual" in entry:
        return entry["residual"]
    if "estimate" in entry and "target" in entry.get("detail", {}):
        return abs(complex(*entry["estimate"]) - complex(*entry["detail"]["target"]))
    return None


def verdict_problem(suite: str, entry: dict):
    """Recompute a check's pass from its numbers; return a problem or None."""
    error = _error(entry)
    if error is None or "tol" not in entry:
        return "no residual or estimate to recompute the verdict from"
    expect = error <= entry["tol"]
    if suite == "reproducing" and entry["name"] == "kernel-section-pairing":
        # its residual and tol are those of the worst-error point, while its
        # verdict covers every point: a pass implies residual <= tol only
        if entry["pass"] and not expect:
            return f"passes with residual {error} > tol {entry['tol']}"
    elif bool(entry["pass"]) != expect:
        return f"pass={entry['pass']} but the recomputed verdict is {expect}"
    return None


def constant_problems(n: int, suite: str, entry: dict) -> list:
    """Targets the benchmark recomputes itself."""
    name, detail = entry["name"], entry.get("detail", {})
    out = []
    if suite == "measure-jacobian":
        target = 2.0 ** (n * (n + 3))          # 16 at n=1, 1024 at n=2
        if detail.get("target") != target:
            out.append(f"target {detail.get('target')} is not 2^(n(n+3)) = {target}")
        elif "min" in detail and "max" in detail:
            spread = max(abs(detail["min"] / target - 1.0), abs(detail["max"] / target - 1.0))
            if not _close(spread, entry["residual"], 1e-9):
                out.append(f"residual {entry['residual']} is not the spread {spread}")
    elif suite == "orthonormality-fock" and name == "calibration-ratio":
        ratio = 4.0 ** n
        if abs(detail.get("ratio", math.nan) - ratio) > 1e-12:
            out.append(f"calibration ratio {detail.get('ratio')} is not 4^n = {ratio}")
        if not _close(detail.get("reference_constant", math.nan), (2 * math.pi * M) ** n):
            out.append("reference constant is not (2 pi m)^n")
        if not _close(detail.get("closed_form", math.nan), (8 * math.pi * M) ** n):
            out.append("closed-form constant is not (8 pi m)^n")
    elif suite == "expansions" and name == "matching-fixed-point":
        # the matching kernel at z = z' = 0, W = W' = 0.3 is det(I - W'conj(W))^(-1/2)
        fixed = (1.0 - 0.3 * 0.3) ** -0.5
        if not _close(fixed, 0.91 ** -0.5, 1e-15):
            out.append("fixed point (1 - 0.3^2)^(-1/2) differs from 0.91^(-1/2)")
        if not _close(detail.get("target", math.nan), fixed, 1e-15):
            out.append(f"target {detail.get('target')} is not 0.91^(-1/2) = {fixed}")
    return [f"{suite}/{name}: {text}" for text in out]


def tally_suite(n: int, suite: str, outcome: dict, expected: list, tally: Tally):
    """Count one suite's checks as operations and check its report."""
    report = outcome.get("report")
    if outcome.get("code") not in (0, 1) or report is None:
        for check in expected:
            if not is_mc_verdict(n, suite, check):
                tally.operation(f"{suite}/{check}", False,
                                (n, suite, check) in KNOWN_FAILURES)
        tally.problems.append(f"{suite}: raised or wrote no report: {outcome.get('error')}")
        return
    entries = report.get("checks", [])
    names = [entry.get("name") for entry in entries]
    if names != expected:
        tally.problems.append(f"{suite}: checks {names}, expected {expected}")
    for entry in entries:
        name = entry.get("name")
        problem = verdict_problem(suite, entry)
        if problem:
            tally.problems.append(f"{suite}/{name}: {problem}")
        if is_mc_verdict(n, suite, name):
            tally.uncounted.append(f"{suite}/{name}")
            if not problem and _error(entry) > MC_SLACK * entry["tol"]:
                tally.problems.append(f"{suite}/{name}: {_error(entry)} exceeds "
                                      f"{MC_SLACK} x tol {entry['tol']}")
        else:
            tally.operation(f"{suite}/{name}", bool(entry["pass"]),
                            (n, suite, name) in KNOWN_FAILURES)
        tally.problems.extend(constant_problems(n, suite, entry))
    all_pass = all(bool(entry.get("pass")) for entry in entries)
    if report.get("pass") != all_pass or outcome["code"] != (0 if all_pass else 1):
        tally.problems.append(f"{suite}: report pass {report.get('pass')} and exit "
                              f"code {outcome['code']} disagree with its checks")


class VerifyWorkload:
    """`sjdomains verify --suite all --n <n>` at the defaults (m=0.25, k=3,
    1e5 samples), one CLI call per suite with the substream seed that
    `--suite all --seed <seed>` gives it."""

    def __init__(self, n: int):
        self.n = n
        self.name = f"verify-n{n}"

    def execute(self, sj, seed: int, out_dir: str) -> dict:
        registry = [name for name in sj.suites.SUITES
                    if self.n == 1 or name != "reproducing"]
        outcomes = {}
        for suite in registry:
            base = PINNED_BASE_SEED.get((self.n, suite), seed)
            path = os.path.join(out_dir, f"{suite}.json")
            if os.path.exists(path):
                os.unlink(path)
            argv = ["verify", "--suite", suite, "--n", str(self.n),
                    "--seed", str(sj.suites.sub_seed(base, suite)),
                    "--out", path, "--no-timestamp"]
            start = time.perf_counter()
            code, error = run_cli(sj.cli.main, argv)
            outcomes[suite] = {"code": code, "error": error, "path": path,
                               "wall_s": time.perf_counter() - start}
        return outcomes

    def check(self, outcomes: dict) -> Tally:
        tally = Tally()
        expected = expected_checks(self.n)
        if list(outcomes) != list(expected):
            tally.problems.append(f"suites run {list(outcomes)}, expected {list(expected)}")
        for suite, outcome in outcomes.items():
            outcome["report"] = _read_json(outcome["path"])
            tally_suite(self.n, suite, outcome, expected.get(suite, []), tally)
        return tally


# --- gram-mc ---

GRAM_SAMPLES = 10 ** 6
GRAM_SIGMA_MAX = 3e-3
GRAM_ALPHA = 1e-3      # chance that a correct Gram fails the identity bound
GRAM_FLOOR = 1e-9      # entries whose integrand is exact have roundoff sigma


def gram_checks(payload: dict) -> list:
    """(name, passed, detail) for the MC Gram of {F_sa : |s|<=3, a<=2}.

    The target is the identity (the F_sa are orthonormal).  Each entry's
    error is bounded by t sigma_ij + floor, with t the two-sided normal
    quantile that keeps the chance of any of the N entries exceeding its
    bound below GRAM_ALPHA (a union bound)."""
    labels = payload["labels"]
    gram = [[complex(*v) for v in row] for row in payload["matrix"]]
    sigma = payload["sigma"]
    size = len(labels)
    shape_ok = (size == 12 and len(gram) == size and len(sigma) == size
                and all(len(row) == size for row in gram + sigma))
    if not shape_ok:
        return [("shape", False, f"{size} labels, expected 12 (|s|<=3, a<=2)")]
    # a label reads "((s_1, ..., s_n), SymIndex(...))"; the z-degree is |s|
    s_parts = [re.match(r"\(\(([^)]*)\)", label).group(1) for label in labels]
    zdeg = [sum(int(v) for v in part.split(",") if v.strip()) for part in s_parts]
    herm = max(abs(gram[i][j] - gram[j][i].conjugate())
               for i in range(size) for j in range(size))
    parity = max((abs(gram[i][j]) for i in range(size) for j in range(size)
                  if (zdeg[i] - zdeg[j]) % 2), default=0.0)
    smax = max(max(row) for row in sigma)
    t = statistics.NormalDist().inv_cdf(1.0 - GRAM_ALPHA / (2 * size * size))
    excess = max(abs(gram[i][j] - (1.0 if i == j else 0.0))
                 - (t * sigma[i][j] + GRAM_FLOOR)
                 for i in range(size) for j in range(size))
    return [
        ("hermitian", herm <= 1e-12, herm),
        ("parity-zeros", parity <= 1e-12, parity),
        ("sigma-max", smax <= GRAM_SIGMA_MAX, smax),
        ("gram-identity", excess <= 0.0, {"t": t, "excess": excess}),
    ]


class GramWorkload:
    """The MC Gram matrix of the weighted basis at n=1, m=0.25, k=3 with 1e6
    samples: `sjdomains table --kind gram-F`, which calls
    discrete_series.gram_matrix."""

    name = "gram-mc"

    def execute(self, sj, seed: int, out_dir: str) -> dict:
        path = os.path.join(out_dir, "gram-F.json")
        if os.path.exists(path):
            os.unlink(path)
        argv = ["table", "--kind", "gram-F", "--n", "1", "--m", str(M), "--k", str(K),
                "--samples", str(GRAM_SAMPLES), "--seed", str(seed), "--out", path]
        code, error = run_cli(sj.cli.main, argv)
        return {"gram-F": {"code": code, "error": error, "path": path}}

    def check(self, outcomes: dict) -> Tally:
        tally = Tally()
        outcome = outcomes["gram-F"]
        payload = _read_json(outcome["path"])
        names = ["hermitian", "parity-zeros", "sigma-max", "gram-identity"]
        if outcome["code"] != 0 or payload is None:
            for name in names:
                tally.operation(f"gram-F/{name}", False)
            tally.problems.append(f"gram-F: raised or wrote no table: {outcome['error']}")
            return tally
        for name, passed, detail in gram_checks(payload):
            tally.operation(f"gram-F/{name}", bool(passed), detail=detail)
        return tally


WORKLOADS = {w.name: w for w in (VerifyWorkload(1), VerifyWorkload(2), GramWorkload())}
