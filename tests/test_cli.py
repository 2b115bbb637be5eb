import json
import os
import re
import subprocess
import sys

import numpy as np
import pytest

import sjdomains
from sjdomains import cli, domains, fockpoly, groups, kernels


def run(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- eval: frozen examples ---

def test_eval_p_s_frozen(capsys):
    code, out, _ = run(["eval", "P_s", '{"s": [2], "Z": 1, "W": 0.5}'], capsys)
    assert code == 0
    assert json.loads(out) == [1.5, 0.0]


def test_eval_a_form_frozen(capsys):
    code, out, _ = run(["eval", "A", '{"W": 0.5, "z": 1}'], capsys)
    assert code == 0
    val = json.loads(out)
    assert val[0] == pytest.approx(2.0, abs=1e-12)
    assert val[1] == pytest.approx(0.0, abs=1e-12)


def test_eval_cayley_base_point(capsys):
    code, out, _ = run(["eval", "cayley", '{"W": 0, "z": 0}'], capsys)
    assert code == 0
    val = json.loads(out)
    assert val["Omega"] == [[[0.0, 1.0]]]
    assert val["zeta"] == [[0.0, 0.0]]


def test_eval_cayley_inverse_of_base(capsys):
    code, out, _ = run(
        ["eval", "cayley",
         '{"direction": "inverse", "Omega": [[[0, 1]]], "zeta": [[0, 0]]}'],
        capsys)
    assert code == 0
    val = json.loads(out)
    assert np.allclose(val["W"], [[[0.0, 0.0]]])


def test_eval_without_point_returns_coefficients(capsys):
    code, out, _ = run(["eval", "P_s", '{"s": [2]}'], capsys)
    assert code == 0
    terms = json.loads(out)
    # P_2 = Z^2 + W: two monomials with unit coefficients
    assert sorted((t["s"], t["c"]) for t in terms) == [
        ([0], [1.0, 0.0]), ([2], [1.0, 0.0])]


def test_eval_q_a_scalar(capsys):
    # n=1, a=1: Q_1(w) = w / sqrt(pi * B(2, k - 3/2))
    code, out, _ = run(["eval", "Q_a", '{"a": 1, "n": 1, "W": 0.5, "z": 0}'],
                       capsys)
    assert code == 0


def test_eval_theta_identity_roundtrip(capsys):
    g = {"a": [[[1, 0]]], "b": [[[0, 0]]], "c": [[[0, 0]]], "d": [[[1, 0]]],
         "lam": [[0, 0]], "mu": [[0, 0]], "kappa": 0}
    code, out, _ = run(["eval", "theta", json.dumps({"g": g})], capsys)
    assert code == 0
    star = json.loads(out)
    assert set(star) == {"p", "q", "alpha", "varkappa"}
    code, out, _ = run(
        ["eval", "theta", json.dumps({"g": star, "inverse": True})], capsys)
    assert code == 0
    back = json.loads(out)
    assert np.allclose(back["a"], g["a"]) and np.allclose(back["d"], g["d"])


# --- eval: every object through the CLI, checked against the library ---

M, K = 0.25, 3  # the CLI defaults
G = groups.random_jacobi(1, seed=3)
GS = groups.theta_iso(G)
X, XP = (domains.sample_sj_disk_point(1, 0.5, 0.6, seed=s) for s in (1, 2))
Y, YP = domains.cayley_forward(X), domains.cayley_forward(XP)
DISK = {"W": domains.matrix_to_json(X.w), "z": domains.vector_to_json(X.z)}
SPACE = {"Omega": domains.matrix_to_json(Y.omega), "zeta": domains.vector_to_json(Y.zeta)}
SPACE_P = {"Omega_p": domains.matrix_to_json(YP.omega),
           "zeta_p": domains.vector_to_json(YP.zeta)}
DISK_P = {"W_p": domains.matrix_to_json(XP.w), "z_p": domains.vector_to_json(XP.z)}
G_JSON, GS_JSON = groups.jacobi_to_json(G), groups.jacobi_star_to_json(GS)

# object -> [(arguments, the library's value)], one case or more per object
EVAL_CASES = {
    "P_s": [({"s": [2], "Z": 1, "W": 0.5}, lambda: 1.5 + 0j)],
    "Phi": [({"s": [2], **DISK}, lambda: fockpoly.basis_f((2,), M).evaluate(X.z, X.w))],
    "f_s": [({"s": [2], **DISK}, lambda: fockpoly.basis_f((2,), M).evaluate(X.z, X.w))],
    "F_sa": [({"s": [1], "a": 1, **DISK}, lambda: fockpoly.basis_big_f(
        (1,), fockpoly.q_basis(1, K, 1)[1], M).evaluate(X.z, X.w))],
    "Q_a": [({"a": 1, "n": 1, "W": DISK["W"]},
             lambda: fockpoly.q_basis(1, K, 1)[1].evaluate(None, X.w))],
    "J1": [({"g": groups.sp_to_json(G.sigma), "Omega": SPACE["Omega"]},
            lambda: kernels.j1(G.sigma, Y))],
    "theta": [({"g": G_JSON}, lambda: GS_JSON)],
    "K1": [({"Omega_p": SPACE_P["Omega_p"], "Omega": SPACE["Omega"]},
            lambda: kernels.k1(YP, Y))],
    "K2": [({**SPACE_P, **SPACE}, lambda: kernels.k2_space(YP, Y))],
    "A": [(DISK, lambda: kernels.a_form(X.w, X.z))],
    "Jmk": [({"g": G_JSON, **SPACE}, lambda: kernels.jmk(G, Y, M, K))],
    "JmkStar": [({"g": GS_JSON, **DISK}, lambda: kernels.jmk_star(GS, X, M, K))],
    "Kmk": [({**SPACE_P, **SPACE}, lambda: kernels.kmk_kernel(YP, Y, M, K))],
    "KmkStar": [({**DISK_P, **DISK}, lambda: kernels.kmk_star_kernel(XP, X, M, K))],
    "action": [({"g": GS_JSON, "point": DISK},
                lambda: domains.point_to_json(groups.act_sj_disk(GS, X))),
               ({"g": G_JSON, "point": SPACE},
                lambda: domains.point_to_json(groups.act_sj_space(G, Y)))],
    "cayley": [(DISK, lambda: SPACE),
               ({"direction": "inverse", **SPACE}, lambda: DISK)],
}


def _assert_close(out, expected):
    if isinstance(expected, dict):
        assert set(out) == set(expected)
        for key in expected:
            _assert_close(out[key], expected[key])
    else:
        expected = sjdomains.report.encode_value(expected)
        np.testing.assert_allclose(np.asarray(out, dtype=float),
                                   np.asarray(expected, dtype=float), rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("obj", sorted(cli.EVAL_OBJECTS))
def test_eval_every_object_matches_the_library(obj, capsys):
    for args, expected in EVAL_CASES[obj]:
        code, out, err = run(["eval", obj, json.dumps(args)], capsys)
        assert (code, err) == (0, "")
        _assert_close(json.loads(out), expected())


def test_eval_scalars_broadcast_over_the_point(capsys):
    # at n = 2 a scalar W is w I and a scalar z is (z, z), in every reader
    # (a bare number, or a one-entry [[re, im]] vector; at n = 2 a flat
    # [re, im] is a real 2-vector)
    gs = groups.theta_iso(groups.random_jacobi(2, seed=4))
    w, z = 0.2, 0.3 + 0.2j
    explicit = {"W": domains.matrix_to_json(w * np.eye(2)), "z": domains.vector_to_json([z, z])}
    for obj, extra in (("JmkStar", {"g": groups.jacobi_star_to_json(gs)}),
                       ("P_s", {"s": [1, 1]})):
        outs = [run(["eval", obj, json.dumps({**extra, **point})], capsys)
                for point in (explicit, {"W": w, "z": [[z.real, z.imag]]})]
        assert outs[0] == outs[1] and outs[0][0] == 0


# Each input below is a usage error: exit 2 and one error line, no traceback.
WRONG_LENGTH = [[1, 0], [2, 0], [3, 0]]
BAD_EVAL_INPUTS = {
    "action-matrix-only-point": ("action", {"g": GS_JSON, "point": {"W": DISK["W"]}}),
    "action-space-point-disk-element": ("action", {"g": GS_JSON, "point": SPACE}),
    "action-disk-point-space-element": ("action", {"g": G_JSON, "point": DISK}),
    "action-dimension": ("action", {"g": groups.jacobi_star_to_json(
        groups.theta_iso(groups.random_jacobi(2, seed=4))), "point": DISK}),
    "cayley-forward-z": ("cayley", {"W": DISK["W"], "z": WRONG_LENGTH}),
    "cayley-inverse-zeta": ("cayley", {"direction": "inverse", "Omega": SPACE["Omega"],
                                       "zeta": WRONG_LENGTH}),
    "A-z": ("A", {"W": DISK["W"], "z": WRONG_LENGTH}),
    "Jmk-zeta": ("Jmk", {"g": G_JSON, "Omega": SPACE["Omega"], "zeta": WRONG_LENGTH}),
    "JmkStar-z": ("JmkStar", {"g": GS_JSON, "W": DISK["W"], "z": WRONG_LENGTH}),
    "P_s-W": ("P_s", {"s": [1, 1], "Z": 1, "W": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]}),
}


@pytest.mark.parametrize("case", sorted(BAD_EVAL_INPUTS))
def test_eval_malformed_point_exits_two(case, capsys):
    obj, args = BAD_EVAL_INPUTS[case]
    code, out, err = run(["eval", obj, json.dumps(args)], capsys)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1


def test_eval_matrix_only_action_point_has_no_traceback():
    obj, args = BAD_EVAL_INPUTS["action-matrix-only-point"]
    proc = subprocess.run([sys.executable, "-m", "sjdomains.cli", "eval", obj, json.dumps(args)],
                          capture_output=True, text=True, env=_src_env(), timeout=120)
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr == "error: unrecognized point encoding\n"


# --- exit code contract ---

def test_verify_pass_exit_zero(capsys):
    code, out, _ = run(
        ["verify", "--suite", "cayley", "--n", "2", "--seed", "7",
         "--no-timestamp"], capsys)
    assert code == 0
    assert "[PASS]" in out


def test_verify_fail_exit_one(capsys):
    code, out, _ = run(
        ["verify", "--suite", "group-axioms", "--tol", "1e-30",
         "--no-timestamp"], capsys)
    assert code == 1
    assert "[FAIL]" in out


def test_gram_suite_bad_k_exit_two(capsys):
    code, _, err = run(["verify", "--suite", "series-gram", "--k", "1"], capsys)
    assert code == 2
    assert "k > n + 1/2" in err


def test_eval_bad_json_exit_two(capsys):
    code, _, err = run(["eval", "P_s", "{not json"], capsys)
    assert code == 2
    assert "error:" in err


def test_eval_missing_key_exit_two(capsys):
    code, _, err = run(["eval", "P_s", "{}"], capsys)
    assert code == 2
    assert "error:" in err


def test_unknown_suite_usage_exit_two(capsys):
    code, _, _ = run(["verify", "--suite", "nope"], capsys)
    assert code == 2


def test_bad_config_exit_two(capsys):
    code, _, err = run(["verify", "--suite", "cayley", "--m", "-1"], capsys)
    assert code == 2
    assert "m must be positive" in err


# --- reports ---

def test_report_json_schema_and_determinism(tmp_path, capsys):
    p1 = tmp_path / "a.json"
    p2 = tmp_path / "b.json"
    args = ["verify", "--suite", "cocycle", "--seed", "5", "--no-timestamp"]
    assert cli.main(args + ["--out", str(p1)]) == 0
    assert cli.main(args + ["--out", str(p2)]) == 0
    capsys.readouterr()
    assert p1.read_bytes() == p2.read_bytes()
    doc = json.loads(p1.read_text())
    assert set(doc) == {"suite", "params", "seed", "checks", "pass"}
    assert doc["pass"] is True
    for chk in doc["checks"]:
        assert "name" in chk and "pass" in chk


def test_report_timestamp_present_by_default(tmp_path, capsys):
    p = tmp_path / "r.json"
    assert cli.main(["verify", "--suite", "cayley", "--out", str(p)]) == 0
    capsys.readouterr()
    assert "timestamp" in json.loads(p.read_text())


def test_verify_csv_format(tmp_path, capsys):
    p = tmp_path / "r.csv"
    code = cli.main(["verify", "--suite", "cayley", "--format", "csv",
                     "--no-timestamp", "--out", str(p)])
    capsys.readouterr()
    assert code == 0
    lines = p.read_text().strip().splitlines()
    assert lines[0] == "name,pass,residual,tol"
    assert len(lines) >= 2


# --- tables ---

def test_table_gram_phi_csv(tmp_path, capsys):
    p = tmp_path / "g.csv"
    code = cli.main(["table", "--kind", "gram-phi", "--trunc", "4",
                     "--format", "csv", "--out", str(p)])
    capsys.readouterr()
    assert code == 0
    import csv
    rows = list(csv.reader(p.read_text().splitlines()))
    assert len(rows) == 26  # header + 5x5 entries
    assert rows[0][:2] == ["i", "j"]
    re_col = rows[0].index("re")
    # diagonal entries approximately 1, off-diagonal approximately 0
    for parts in rows[1:]:
        i, j, re = int(parts[0]), int(parts[1]), float(parts[re_col])
        assert abs(re - (1.0 if i == j else 0.0)) < 1e-8


def test_table_calibration(capsys):
    code, out, _ = run(["table", "--kind", "calibration"], capsys)
    assert code == 0
    doc = json.loads(out)
    ratios = {row["n"]: row["ratio"] for row in doc["rows"]}
    assert ratios[1] == pytest.approx(4.0, abs=1e-9)
    assert ratios[2] == pytest.approx(16.0, abs=1e-9)


def test_table_expansion_convergence_monotone_tail(capsys):
    code, out, _ = run(["table", "--kind", "expansion-convergence",
                        "--trunc", "12"], capsys)
    assert code == 0
    doc = json.loads(out)
    resid = [r for _, r in doc["rows"]]
    assert resid[-1] < resid[0]
    assert resid[-1] < 1e-6


def test_table_gram_big_f_json(capsys):
    code, out, _ = run(["table", "--kind", "gram-F", "--samples", "20000"],
                       capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["kind"] == "gram-F"
    mat = np.asarray([[complex(re, im) for re, im in row]
                      for row in doc["matrix"]])
    assert mat.shape == (len(doc["labels"]),) * 2
    assert np.max(np.abs(mat - np.eye(mat.shape[0]))) < 0.1


def test_table_gram_big_f_million_samples(capsys):
    # the 1e6-sample Gram of the benchmark: Hermitian, exact zeros where the
    # z-degrees differ in parity, and every sigma within 3e-3
    code, out, _ = run(["table", "--kind", "gram-F", "--n", "1", "--samples", "1000000"],
                       capsys)
    assert code == 0
    doc = json.loads(out)
    mat = np.asarray([[complex(re, im) for re, im in row] for row in doc["matrix"]])
    sigma = np.asarray(doc["sigma"])
    assert mat.shape == sigma.shape == (12, 12)
    assert np.max(np.abs(mat - mat.conj().T)) <= 1e-12
    # a label reads "((s,), SymIndex(n=1, upper=(a,)))"
    zdeg = np.array([int(re.match(r"\(\((\d+),\)", lbl).group(1)) for lbl in doc["labels"]])
    odd = (zdeg[:, None] - zdeg[None, :]) % 2 == 1
    assert odd.any() and np.max(np.abs(mat[odd])) <= 1e-12
    assert np.max(sigma) <= 3e-3


def _src_env():
    """The environment with this sjdomains first on PYTHONPATH."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(sjdomains.__file__)))
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))


def test_module_entry_point_has_no_runpy_warning():
    # the package must not import cli itself, or `python -m sjdomains.cli`
    # warns that the module was already in sys.modules
    proc = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-m",
                           "sjdomains.cli", "--help"],
                          capture_output=True, text=True, env=_src_env(), timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_importing_the_cli_leaves_scipy_out():
    # scipy is a test dependency only: the program imports none of it
    code = "import sys, sjdomains.cli; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    proc = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True, env=_src_env(), timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_parser_is_built_once_and_not_at_import(capsys):
    # main builds the argparse tree on its first call and reuses it: each
    # call of a sequence gives the output and exit code that the same call
    # gives first, on a freshly built parser
    calls = [["verify", "--suite", "cayley", "--no-timestamp"],
             ["verify", "--suite", "nope"], ["--help"],
             ["table", "--kind", "calibration"]]
    cli._build_parser.cache_clear()
    in_sequence = [run(argv, capsys) for argv in calls]
    assert cli._build_parser.cache_info().misses == 1
    assert [code for code, _, _ in in_sequence] == [0, 2, 0, 0]
    for argv, got in zip(calls, in_sequence):
        cli._build_parser.cache_clear()
        assert run(argv, capsys) == got
    code = "import sjdomains.cli as c; print(c._build_parser.cache_info().currsize)"
    proc = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True, env=_src_env(), timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "0"
