import argparse
import csv
import dataclasses
import importlib
import json
import os
import pkgutil
import re
import shlex
import subprocess
import sys

import numpy as np
import pytest

import sjdomains
from sjdomains import cli, domains, fockpoly, groups, kernels, quad, report, suites


def run(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- eval: frozen examples ---

def test_eval_p_s_frozen(capsys):
    code, out, _ = run(["eval", "P_s", '{"s": [2], "z": 1, "W": 0.5}'], capsys)
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
         '{"Omega": [[[0, 1]]], "zeta": [[0, 0]]}'],
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
    code, out, _ = run(["eval", "Q_a", '{"a": [1], "W": 0.5}'], capsys)
    assert code == 0


def test_eval_theta_identity_roundtrip(capsys):
    g = {"a": [[[1, 0]]], "b": [[[0, 0]]], "c": [[[0, 0]]], "d": [[[1, 0]]],
         "lam": [[0, 0]], "mu": [[0, 0]], "kappa": 0}
    code, out, _ = run(["eval", "theta", json.dumps({"g": g})], capsys)
    assert code == 0
    star = json.loads(out)
    assert set(star) == {"p", "q", "alpha", "varkappa"}
    code, out, _ = run(
        ["eval", "theta", json.dumps({"g": star})], capsys)
    assert code == 0
    back = json.loads(out)
    assert np.allclose(back["a"], g["a"]) and np.allclose(back["d"], g["d"])


# --- eval: every object through the CLI, checked against the library ---

M, K = 0.25, 3  # the CLI defaults
ENC = report.encode_value


def _disk_json(x, suffix=""):
    return {"W" + suffix: ENC(x.w), "z" + suffix: ENC(x.z)}


def _space_json(y, suffix=""):
    return {"Omega" + suffix: ENC(y.omega), "zeta" + suffix: ENC(y.zeta)}


def _jacobi_json(g):
    # the real blocks and vectors as complex [re, im] entries, kappa a number
    blocks = {name: getattr(g.sigma, name).astype(complex) for name in "abcd"}
    return ENC({**blocks, "lam": g.h.lam.astype(complex), "mu": g.h.mu.astype(complex),
                "kappa": g.h.kappa})


def _star_json(gs):
    return ENC({"p": gs.omega.p, "q": gs.omega.q, "alpha": gs.alpha, "varkappa": gs.varkappa})


G = groups.random_jacobi(1, seed=3)
GS = groups.theta_iso(G)
X, XP = (domains.sample_sj_disk_point(1, 0.5, 0.6, seed=s) for s in (1, 2))
Y, YP = domains.cayley_forward(X), domains.cayley_forward(XP)
DISK, DISK_P = _disk_json(X), _disk_json(XP, "_p")
SPACE, SPACE_P = _space_json(Y), _space_json(YP, "_p")
G_JSON, GS_JSON = _jacobi_json(G), _star_json(GS)

# object -> [(arguments, the library's value)], one case or more per object;
# cayley and theta map each way, as their arguments' fields say
EVAL_CASES = {
    "P_s": [({"s": [2], "z": 1, "W": 0.5}, lambda: 1.5 + 0j)],
    "Phi": [({"s": [2], **DISK}, lambda: fockpoly.basis_f((2,), M).evaluate(X.z, X.w))],
    "f_s": [({"s": [2], **DISK}, lambda: fockpoly.basis_f((2,), M).evaluate(X.z, X.w))],
    "F_sa": [({"s": [1], "a": [1], **DISK}, lambda: fockpoly.basis_big_f(
        (1,), fockpoly.q_basis(1, K, 1)[1], M).evaluate(X.z, X.w))],
    "Q_a": [({"a": [1], "W": DISK["W"]},
             lambda: fockpoly.q_basis(1, K, 1)[1].evaluate(None, X.w))],
    "J1": [({"g": {name: G_JSON[name] for name in "abcd"}, "Omega": SPACE["Omega"]},
            lambda: kernels.j1(G.sigma, Y))],
    "theta": [({"g": G_JSON}, lambda: GS_JSON),
              ({"g": GS_JSON}, lambda: _jacobi_json(groups.theta_inv(GS)))],
    "K1": [({"Omega_p": SPACE_P["Omega_p"], "Omega": SPACE["Omega"]},
            lambda: kernels.k1(YP, Y))],
    "K2": [({**SPACE_P, **SPACE}, lambda: kernels.k2_space(YP, Y))],
    "A": [(DISK, lambda: kernels.a_form(X))],
    "Jmk": [({"g": G_JSON, **SPACE}, lambda: kernels.jmk(G, Y, M, K))],
    "JmkStar": [({"g": GS_JSON, **DISK}, lambda: kernels.jmk_star(GS, X, M, K))],
    "Kmk": [({**SPACE_P, **SPACE}, lambda: kernels.kmk_kernel(YP, Y, M, K))],
    "KmkStar": [({**DISK_P, **DISK}, lambda: kernels.kmk_star_kernel(XP, X, M, K)),
                ({**DISK_P, **DISK, "m": 0.5, "k": 4},
                 lambda: kernels.kmk_star_kernel(XP, X, 0.5, 4))],
    "action": [({"g": GS_JSON, "point": DISK}, lambda: _disk_json(groups.act_sj_disk(GS, X))),
               ({"g": G_JSON, "point": SPACE}, lambda: _space_json(groups.act_sj_space(G, Y)))],
    "cayley": [(DISK, lambda: SPACE),
               (SPACE, lambda: DISK)],
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
    explicit = {"W": ENC(w * np.eye(2, dtype=complex)), "z": ENC(np.array([z, z]))}
    for obj, extra in (("JmkStar", {"g": _star_json(gs)}),
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
    "action-dimension": ("action", {"g": _star_json(
        groups.theta_iso(groups.random_jacobi(2, seed=4))), "point": DISK}),
    "action-point-not-an-object": ("action", {"g": GS_JSON, "point": 3}),
    "cayley-forward-z": ("cayley", {"W": DISK["W"], "z": WRONG_LENGTH}),
    "cayley-inverse-zeta": ("cayley", {"Omega": SPACE["Omega"], "zeta": WRONG_LENGTH}),
    "A-z": ("A", {"W": DISK["W"], "z": WRONG_LENGTH}),
    "Jmk-zeta": ("Jmk", {"g": G_JSON, "Omega": SPACE["Omega"], "zeta": WRONG_LENGTH}),
    "JmkStar-z": ("JmkStar", {"g": GS_JSON, "W": DISK["W"], "z": WRONG_LENGTH}),
    "P_s-W": ("P_s", {"s": [1, 1], "z": 1, "W": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]}),
}


# A multi-index (s, and a the exponents of the upper entries of W) is a
# non-empty list of non-negative integers, m a number from 1e-30 to 1e30 and
# k a number (no bool).  Anything else exits 2 with one line naming the field.
BAD_INDICES = {
    "P_s-empty": ("P_s", {"s": []}, "s"),
    "f_s-fraction": ("f_s", {"s": [1.5]}, "s"),
    "Phi-scalar": ("Phi", {"s": 3}, "s"),
    "P_s-negative": ("P_s", {"s": [1, -1]}, "s"),
    "P_s-bool": ("P_s", {"s": [True]}, "s"),
    "F_sa-empty-s": ("F_sa", {"s": [], "a": [0]}, "s"),
    "F_sa-fraction-a": ("F_sa", {"s": [0], "a": [1.5]}, "a"),
    "F_sa-negative-a": ("F_sa", {"s": [0], "a": [-1]}, "a"),
    "Q_a-fraction": ("Q_a", {"a": [0.5]}, "a"),
    "Q_a-empty": ("Q_a", {"a": []}, "a"),
    "Q_a-string": ("Q_a", {"a": "1"}, "a"),
    "f_s-m-zero": ("f_s", {"s": [1], "m": 0, "z": 1}, "m"),
    "KmkStar-m-negative": ("KmkStar", {"W_p": 0.1, "z_p": 0.2, "W": 0.1, "z": 0.3, "m": -5}, "m"),
    "F_sa-m-bool": ("F_sa", {"s": [1], "a": [1], "m": True}, "m"),
    "Phi-m-string": ("Phi", {"s": [1], "m": "x"}, "m"),
    "Q_a-k-string": ("Q_a", {"a": [1], "k": "3"}, "k"),
    "Jmk-k-bool": ("Jmk", {"g": G_JSON, **SPACE, "k": True}, "k"),
}


@pytest.mark.parametrize("case", sorted(BAD_INDICES))
def test_eval_malformed_multi_index_exits_two(case, capsys):
    obj, args, field = BAD_INDICES[case]
    code, out, err = run(["eval", obj, json.dumps(args)], capsys)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {field!r} must be ") and err.count("\n") == 1


# JSON numbers that overflow read as inf, and Python's json reads NaN
@pytest.mark.parametrize("field,value", [("m", "1e400"), ("m", "NaN"), ("k", "-1e400")])
def test_eval_non_finite_parameter_exits_two(field, value, capsys):
    args = '{"W_p": 0.1, "z_p": 0.2, "W": 0.1, "z": 0.3, "%s": %s}' % (field, value)
    code, out, err = run(["eval", "KmkStar", args], capsys)
    assert (code, out) == (2, "")
    what = {"m": "a number from 1e-30 to 1e+30", "k": "a finite number"}[field]
    assert err.startswith(f"error: {field!r} must be {what}, got ") and err.count("\n") == 1


@pytest.mark.parametrize("m", ["inf", "nan"])
def test_verify_non_finite_m_exits_two(m, capsys):
    code, out, err = run(["verify", "--suite", "cocycle", "--m", m], capsys)
    assert (code, out) == (2, "")
    assert err == f"error: m must be a number from 1e-30 to 1e+30, got {m}\n"


# m has one range, 1e-30 to 1e30, in verify, table and eval alike: at both
# ends every run ends in its output, and just outside it exits 2.  At
# m = 1e30 some values overflow to inf or NaN, with numpy's RuntimeWarning;
# what they are is no part of these tests
M_ENDS = ["1e-30", "1e30"]
M_OUTSIDE = ["9.9e-31", "1.01e30", "1e-300", "1e300"]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("m", M_ENDS)
def test_verify_all_runs_at_both_ends_of_the_m_range(n, m, tmp_path, capsys):
    p = tmp_path / "r.json"
    code, _, _ = run(["verify", "--suite", "all", "--n", str(n), "--m", m,
                      "--no-timestamp", "--out", str(p)], capsys)
    doc = json.loads(p.read_text())
    assert doc["params"] == {"n": n, "m": float(m), "k": 3}
    assert code == (0 if doc["pass"] else 1)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("m", M_ENDS)
def test_eval_and_table_run_at_both_ends_of_the_m_range(m, capsys):
    objects = {"Phi": {"s": [8], "W": 0.3, "z": 0.5}, "f_s": {"s": [8], "z": 0.5},
               "F_sa": {"s": [8], "a": [2], "W": 0.3, "z": 0.5},
               "Jmk": {"g": G_JSON, **SPACE}, "JmkStar": {"g": GS_JSON, **DISK},
               "Kmk": {**SPACE_P, **SPACE}, "KmkStar": {**DISK_P, **DISK}}
    for obj, args in objects.items():
        code, out, err = run(["eval", obj, json.dumps({**args, "m": float(m)})], capsys)
        assert (code, err) == (0, ""), obj
        json.loads(out)
    for kind, extra in [("gram-phi", ["--n", "2", "--trunc", "6"]),
                        ("gram-F", ["--samples", "1000"]), ("calibration", [])]:
        code, out, err = run(["table", "--kind", kind, "--m", m] + extra, capsys)
        assert (code, err) == (0, ""), kind
        json.loads(out)


@pytest.mark.parametrize("m", M_OUTSIDE)
def test_m_outside_its_range_exits_two(m, capsys):
    rule = f"must be a number from 1e-30 to 1e+30, got {float(m)!r}\n"
    for argv in (["verify", "--suite", "all", "--m", m],
                 ["table", "--kind", "calibration", "--m", m]):
        assert run(argv, capsys) == (2, "", "error: m " + rule)
    code, out, err = run(["eval", "f_s", '{"s": [8], "m": %s}' % m], capsys)
    assert (code, out, err) == (2, "", "error: 'm' " + rule)


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


@pytest.mark.parametrize("point", [3, [1, 2], "W"])
def test_eval_action_point_must_be_an_object(point, capsys):
    # a point that is not a JSON object is named as the fault
    code, out, err = run(["eval", "action", json.dumps({"g": GS_JSON, "point": point})], capsys)
    assert (code, out) == (2, "")
    assert err == "error: point must be a JSON object, {W, z} or {Omega, zeta}\n"


@pytest.mark.parametrize("half", [{"W": DISK["W"]}, {"Omega": SPACE["Omega"]}])
def test_eval_action_point_is_a_matrix_with_its_vector(half, capsys):
    # a matrix alone is no point, on either model
    code, out, err = run(["eval", "action", json.dumps({"g": GS_JSON, "point": half})], capsys)
    assert (code, out, err) == (2, "", "error: unrecognized point encoding\n")


# --- eval: the kernels certify their points, polynomials take any ---

OUT_OF_DOMAIN = {
    "A": ({"W": 2, "z": 1}, "I - W conj(W)"),
    "KmkStar": ({"W_p": 1.5, "z_p": 0, "W": 1.5, "z": 0}, "I - W conj(W)"),
    "J1": ({"g": {"a": [[1, 0], [0, 1]], "b": [[0, 0], [0, 0]], "c": [[0, 0], [0, 0]],
                  "d": [[1, 0], [0, 1]]}, "Omega": [[0, 0], [0, 0]]}, "Im Omega"),
}


@pytest.mark.parametrize("obj", sorted(OUT_OF_DOMAIN))
def test_eval_kernels_refuse_points_outside_the_domain(obj, capsys):
    args, what = OUT_OF_DOMAIN[obj]
    code, out, err = run(["eval", obj, json.dumps(args)], capsys)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {what} not positive definite (lambda_min=")
    assert err.count("\n") == 1


def test_eval_polynomials_take_any_point(capsys):
    # P_2 = Z^2 + W is a polynomial, defined at W = 2 too
    code, out, err = run(["eval", "P_s", '{"s": [2], "W": 2, "z": 1}'], capsys)
    assert (code, err) == (0, "")
    assert json.loads(out) == [3.0, 0.0]


# --- eval: group elements are read as points are ---

def _without(fields, name):
    return {key: val for key, val in fields.items() if key != name}


BAD_ELEMENTS = {
    "theta-missing-field": ("theta", {"g": {"a": 1}}, "g lacks its field 'b'"),
    "Jmk-missing-field": ("Jmk", {"g": _without(G_JSON, "kappa"), **SPACE},
                          "g lacks its field 'kappa'"),
    "action-missing-field": ("action", {"g": _without(GS_JSON, "varkappa"), "point": DISK},
                             "g lacks its field 'varkappa'"),
    "theta-complex-block": ("theta", {"g": {**G_JSON, "a": [[[1, 0.5]]]}},
                            "the field 'a' of g must be real"),
    "J1-not-an-object": ("J1", {"g": 5, "Omega": SPACE["Omega"]},
                         "g must be a JSON object of its fields"),
}


@pytest.mark.parametrize("case", sorted(BAD_ELEMENTS))
def test_eval_names_the_faulty_field_of_g(case, capsys):
    obj, args, message = BAD_ELEMENTS[case]
    code, out, err = run(["eval", obj, json.dumps(args)], capsys)
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_eval_reads_a_space_element_of_plain_real_matrices(capsys):
    g = {"a": [[1]], "b": [[0]], "c": [[0]], "d": [[1]], "lam": 0, "mu": 0, "kappa": 0}
    code, out, err = run(["eval", "theta", json.dumps({"g": g})], capsys)
    assert (code, err) == (0, "")
    assert json.loads(out) == _star_json(groups.JacobiStarElement.identity(1))
    code, out, err = run(["eval", "Jmk", json.dumps({"g": g, **SPACE})], capsys)
    assert (code, err) == (0, "")
    assert json.loads(out) == [1.0, 0.0]


# --- eval: one name per field, and no other ---
# Each object reads its fields under one name each and refuses any other
# field, at the top level and inside g or point, with exit 2 and one line
# naming it.

UNREAD_CASES = [(obj, where) for obj in sorted(cli.EVAL_OBJECTS) for where in ("", "g", "point")
                if not where or where in EVAL_CASES[obj][0][0]]


@pytest.mark.parametrize("obj,where", UNREAD_CASES)
def test_eval_refuses_a_field_the_object_does_not_read(obj, where, capsys):
    args = json.loads(json.dumps(EVAL_CASES[obj][0][0]))
    (args[where] if where else args)["typo"] = 1
    code, out, err = run(["eval", obj, json.dumps(args)], capsys)
    assert (code, out) == (2, "")
    assert err == f"error: unrecognized field{' of ' + where if where else ''}: 'typo'\n"


@pytest.mark.parametrize("obj,args", [
    ("Q_a", {"a": [0, 0, 12]}), ("Q_a", {"a": [0, 0, 0, 0, 0, 5], "k": 4}),
    ("F_sa", {"s": [1, 0], "a": [0, 0, 12]})])
def test_eval_refuses_a_field_before_it_evaluates(obj, args, capsys, monkeypatch):
    # every field is read before the object is evaluated, so a leftover
    # field exits 2 without building the basis
    def unexpected(*_):
        pytest.fail("q_basis was built before the fields were all read")

    monkeypatch.setattr(fockpoly, "q_basis", unexpected)
    code, out, err = run(["eval", obj, json.dumps({**args, "typo": 1})], capsys)
    assert (code, out, err) == (2, "", "error: unrecognized field: 'typo'\n")


# spellings that an earlier eval also read, each now refused
REMOVED_SPELLINGS = {
    "Z": ("P_s", {"s": [2], "Z": 1, "W": 0.5}, "unrecognized field: 'Z'"),
    "w": ("P_s", {"s": [2], "w": 0.5, "z": 1}, "unrecognized field: 'w'"),
    "direction": ("cayley", {"direction": "inverse", **SPACE},
                  "unrecognized field: 'direction'"),
    "inverse": ("theta", {"g": GS_JSON, "inverse": True}, "unrecognized field: 'inverse'"),
    "Q_a-n": ("Q_a", {"a": [1], "n": 1}, "unrecognized field: 'n'"),
    "Q_a-integer-a": ("Q_a", {"a": 1},
                      "'a' must be a non-empty list of non-negative integers, got 1"),
    "F_sa-integer-a": ("F_sa", {"s": [1], "a": 1},
                       "'a' must be a non-empty list of non-negative integers, got 1"),
}


@pytest.mark.parametrize("case", sorted(REMOVED_SPELLINGS))
def test_eval_removed_spellings_exit_two(case, capsys):
    obj, args, message = REMOVED_SPELLINGS[case]
    code, out, err = run(["eval", obj, json.dumps(args)], capsys)
    assert (code, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("obj,args,message", [
    ("cayley", {**SPACE, **DISK}, "unrecognized field: 'W', 'z'"),
    ("theta", {"g": {**GS_JSON, "a": G_JSON["a"]}}, "unrecognized field of g: 'a'")])
def test_eval_fields_of_both_directions_exit_two(obj, args, message, capsys):
    code, out, err = run(["eval", obj, json.dumps(args)], capsys)
    assert (code, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("obj,args", [
    ("A", {"W": 0.5}), ("cayley", {"W": 0.5}), ("JmkStar", {"g": GS_JSON, "W": 0.5}),
    ("Jmk", {"g": G_JSON, "Omega": SPACE["Omega"]})])
def test_eval_kernel_objects_require_the_vector(obj, args, capsys):
    # z (zeta) has no default outside the polynomials
    code, out, err = run(["eval", obj, json.dumps(args)], capsys)
    missing = "z" if "W" in args else "zeta"
    assert (code, out, err) == (2, "", f"error: missing required argument {missing!r}\n")


def test_complex_scalars_are_re_im_pairs():
    assert ENC(1 - 2j) == [1.0, -2.0]
    assert cli._as_complex([1.0, -2.0]) == 1 - 2j


# --- eval: what eval writes, eval reads back ---
# Each output equals the library's value encoded, bit for bit, so the input
# was read exactly; fed back, it returns the input.

def test_eval_theta_then_inverse_returns_g(capsys):
    g = groups.random_jacobi(2, seed=8)
    code, out, _ = run(["eval", "theta", json.dumps({"g": _jacobi_json(g)})], capsys)
    star = json.loads(out)
    assert code == 0 and star == _star_json(groups.theta_iso(g))
    code, out, _ = run(["eval", "theta", json.dumps({"g": star})], capsys)
    back = json.loads(out)
    assert code == 0 and back == _jacobi_json(groups.theta_inv(groups.theta_iso(g)))
    _assert_close(back, _jacobi_json(g))


def test_eval_cayley_forward_then_inverse_returns_the_point(capsys):
    x = domains.sample_sj_disk_point(2, 0.6, 0.8, seed=5)
    code, out, _ = run(["eval", "cayley", json.dumps(_disk_json(x))], capsys)
    image = json.loads(out)
    assert code == 0 and image == _space_json(domains.cayley_forward(x))
    code, out, _ = run(["eval", "cayley", json.dumps(image)], capsys)
    back = json.loads(out)
    assert code == 0 and back == _disk_json(domains.cayley_inverse(domains.cayley_forward(x)))
    _assert_close(back, _disk_json(x))


def test_eval_action_output_reads_back_as_a_point(capsys):
    # the image of x under g is a point argument again, which g^{-1} takes back
    g = groups.random_jacobi(2, seed=9)
    gs = groups.theta_iso(g)
    x = domains.sample_sj_disk_point(2, 0.6, 0.8, seed=5)
    for elem, inv, point, act, elem_json, point_json in (
            (gs, groups.jacobi_star_inv(gs), x, groups.act_sj_disk, _star_json, _disk_json),
            (g, groups.jacobi_inv(g), domains.cayley_forward(x), groups.act_sj_space,
             _jacobi_json, _space_json)):
        code, out, _ = run(["eval", "action", json.dumps({"g": elem_json(elem),
                                                          "point": point_json(point)})], capsys)
        moved = json.loads(out)
        assert code == 0 and moved == point_json(act(elem, point))
        code, out, _ = run(["eval", "action", json.dumps({"g": elem_json(inv), "point": moved})],
                           capsys)
        assert code == 0
        _assert_close(json.loads(out), point_json(point))


# --- exit code contract ---

def test_verify_pass_exit_zero(capsys):
    code, _, err = run(
        ["verify", "--suite", "cayley", "--n", "2", "--seed", "7",
         "--no-timestamp"], capsys)
    assert code == 0
    assert "[PASS]" in err


def test_verify_fail_exit_one(capsys, monkeypatch):
    # a suite whose one check fails: its report fails and the exit code is 1
    def failing(cfg):
        return report.VerifyReport("group-axioms", cfg.to_dict(), cfg.seed,
                                   [report.residual_check("always", 1.0, 0.0)])

    monkeypatch.setitem(suites.SUITES, "group-axioms", failing)
    code, _, err = run(["verify", "--suite", "group-axioms", "--no-timestamp"], capsys)
    assert code == 1
    assert "[FAIL]" in err


def test_tol_is_no_option(capsys):
    # each check keeps its contract tolerance: no option widens them
    code, out, err = run(["verify", "--suite", "cayley", "--tol", "1"], capsys)
    assert (code, out) == (2, "")
    assert "--tol" in err


def test_gram_suite_bad_k_exit_two(capsys):
    code, _, err = run(["verify", "--suite", "series-gram", "--k", "1"], capsys)
    assert code == 2
    assert "k > n + 1/2" in err


def test_finite_norm_refusal_names_k_and_n(capsys):
    code, out, err = run(["verify", "--suite", "series-gram", "--k", "1"], capsys)
    assert (code, out) == (2, "")
    assert err == "error: need k > n + 1/2 for a finite-norm basis, got k=1, n=1\n"


@pytest.mark.parametrize("suite", ["measure-jacobian", "transfer-identities"])
def test_suites_that_never_read_k_run_at_any_k(suite, capsys):
    code, out, err = run(["verify", "--suite", suite, "--k", "1", "--no-timestamp"], capsys)
    assert code == 0 and json.loads(out)["pass"] is True
    assert "PASS" in err and "FAIL" not in err


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
    assert "m must be a number from 1e-30 to 1e+30" in err


@pytest.mark.parametrize("argv,field", [
    (["table", "--kind", "gram-phi", "--trunc", "-1"], "trunc"),
    (["verify", "--suite", "all", "--seed", "-1"], "seed"),
    (["verify", "--suite", "cayley", "--seed", "-1"], "seed"),
])
def test_negative_seed_or_trunc_exit_two(argv, field, capsys):
    code, out, err = run(argv, capsys)
    assert (code, out) == (2, "")
    assert err == f"error: {field} must be a non-negative integer\n"


# --- one door per setting ---
# Each command takes only the options it reads; the run's parameters default
# to SuiteConfig's fields, and eval reads m and k from its JSON.

OPTIONS = {
    "verify": {"--suite", "--n", "--m", "--k", "--seed", "--out", "--format",
               "--no-timestamp"},
    "eval": {"object", "args", "--out"},
    "table": {"--kind", "--n", "--m", "--k", "--seed", "--samples", "--trunc", "--out",
              "--format"},
}


def _subparsers():
    parser = cli._build_parser()
    return next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices


def test_each_command_takes_only_the_options_it_reads():
    subparsers = _subparsers()
    assert set(subparsers) == set(OPTIONS)
    for command, expected in OPTIONS.items():
        settable = {(a.option_strings or [a.dest])[0] for a in subparsers[command]._actions
                    if not isinstance(a, argparse._HelpAction)}
        assert settable == expected, command
    assert sum(map(len, OPTIONS.values())) == 20
    defaults = dataclasses.asdict(suites.SuiteConfig())
    for command in ("verify", "table"):
        assert {key: subparsers[command].get_default(key) for key in defaults} == defaults
    assert subparsers["table"].get_default("samples") == quad.MCConfig().samples


@pytest.mark.parametrize("argv,unread", [
    (["eval", "P_s", '{"s": [1]}'], ["--m", "1"]),
    (["eval", "P_s", '{"s": [1]}'], ["--seed", "2"]),
    (["table", "--kind", "calibration"], ["--no-timestamp"]),
    (["verify", "--suite", "cayley"], ["--trunc", "12"]),
    (["verify", "--suite", "series-gram"], ["--samples", "2"]),
])
def test_an_option_the_command_does_not_read_exits_two(argv, unread, capsys):
    code, out, err = run(argv + unread, capsys)
    assert (code, out) == (2, "")
    assert err.endswith("error: unrecognized arguments: " + " ".join(unread) + "\n")


def _readme_cli_lines():
    """Every `sjdomains ...` line of README's fenced sh blocks."""
    readme = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                          "README.md")
    with open(readme) as handle:
        blocks = re.findall(r"```sh\n(.*?)```", handle.read(), flags=re.S)
    return [line for block in blocks for line in block.splitlines()
            if line.startswith("sjdomains ")]


def test_readme_cli_lines_parse():
    # the README shows no option the parser lacks
    lines = _readme_cli_lines()
    assert len(lines) >= 10
    for line in lines:
        try:
            cli._build_parser().parse_args(shlex.split(line, comments=True)[1:])
        except SystemExit:
            pytest.fail(f"README line does not parse: {line}")


def test_readme_module_names_resolve():
    # every backticked `module.name` of the README, module one of the
    # package's, names something that module has
    readme = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                          "README.md")
    with open(readme) as handle:
        names = re.findall(r"`(\w+)\.(\w+)`", handle.read())
    modules = {info.name for info in pkgutil.iter_modules(sjdomains.__path__)}
    names = [(mod, attr) for mod, attr in names if mod in modules]
    assert len(names) >= 11
    for mod, attr in names:
        assert hasattr(importlib.import_module(f"sjdomains.{mod}"), attr), f"{mod}.{attr}"


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


def test_verify_csv_to_stdout_is_the_report_alone(capsys):
    # without --out the CSV report is stdout and the summary goes to stderr
    code, out, err = run(["verify", "--suite", "cayley", "--format", "csv", "--no-timestamp"],
                         capsys)
    assert code == 0
    rows = list(csv.reader(out.splitlines()))
    assert rows[0] == ["name", "pass", "residual", "tol"]
    assert [row[0] for row in rows[1:]] == ["roundtrip", "equivariance"]
    assert all(len(row) == 4 and row[1] == "1" for row in rows[1:])
    assert err.startswith("[PASS] suite cayley\n")


def test_verify_json_to_stdout_is_the_report_alone(capsys):
    # without --out the JSON report is stdout and the summary goes to stderr
    code, out, err = run(["verify", "--suite", "cayley", "--no-timestamp"], capsys)
    assert code == 0
    assert json.loads(out)["suite"] == "cayley"
    assert err.startswith("[PASS] suite cayley\n")


def test_verify_summary_is_stdout_with_out(tmp_path, capsys):
    p = tmp_path / "r.json"
    code, out, err = run(["verify", "--suite", "cayley", "--no-timestamp", "--out", str(p)],
                         capsys)
    assert (code, err) == (0, "")
    assert out.startswith("[PASS] suite cayley\n")
    assert json.loads(p.read_text())["suite"] == "cayley"


# --- tables ---

def test_table_gram_phi_csv(tmp_path, capsys):
    p = tmp_path / "g.csv"
    code = cli.main(["table", "--kind", "gram-phi", "--trunc", "4",
                     "--format", "csv", "--out", str(p)])
    capsys.readouterr()
    assert code == 0
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


def test_table_trunc_is_the_degree_given(capsys):
    # no kind clamps --trunc: gram-phi at degree 8 has the 9 indices s <= 8
    # at n = 1, expansion-convergence at degree 2 the partial sums 0, 1, 2
    code, out, _ = run(["table", "--kind", "gram-phi", "--trunc", "8"], capsys)
    assert code == 0
    assert json.loads(out)["labels"] == [str((s,)) for s in range(9)]
    code, out, _ = run(["table", "--kind", "expansion-convergence", "--trunc", "2"], capsys)
    assert code == 0
    assert [deg for deg, _ in json.loads(out)["rows"]] == [0, 1, 2]


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


def test_table_gram_big_f_million_samples(capsys, benchmark_workloads):
    # the 1e6-sample Gram of the benchmark: Hermitian, exact zeros where the
    # z-degrees differ in parity, and every sigma within 3e-3; the
    # benchmark's own checks, which parse the labels, pass on it
    code, out, _ = run(["table", "--kind", "gram-F", "--n", "1", "--samples", "1000000"],
                       capsys)
    assert code == 0
    doc = json.loads(out)
    mat = np.asarray([[complex(re, im) for re, im in row] for row in doc["matrix"]])
    sigma = np.asarray(doc["sigma"])
    assert mat.shape == sigma.shape == (12, 12)
    assert np.max(np.abs(mat - mat.conj().T)) <= 1e-12
    # a label reads "((s,), (a,))"
    zdeg = np.array([int(re.match(r"\(\((\d+),\)", lbl).group(1)) for lbl in doc["labels"]])
    odd = (zdeg[:, None] - zdeg[None, :]) % 2 == 1
    assert odd.any() and np.max(np.abs(mat[odd])) <= 1e-12
    assert np.max(sigma) <= 3e-3
    assert [c for c in benchmark_workloads.gram_checks(doc) if not c[1]] == []


def test_table_gram_big_f_refuses_too_few_samples(capsys, monkeypatch):
    # the engine's refusal, before any draw
    def unexpected(*args):
        raise AssertionError("table --kind gram-F drew a sample")

    monkeypatch.setattr(quad, "_draw_disk", unexpected)
    code, out, err = run(["table", "--kind", "gram-F", "--samples", "1"], capsys)
    assert (code, out) == (2, "")
    assert err == "error: samples must be an integer of at least 2, not 1\n"


@pytest.mark.parametrize("argv", [["--n", "2"], ["--n", "3", "--k", "4"]], ids=["n2", "n3"])
def test_table_gram_big_f_refuses_n_above_1(argv, capsys, monkeypatch):
    # the Monte Carlo Gram samples at n = 1 only: any other n exits 2 before
    # the family is built or a sample drawn, naming the n and the exact check
    def unexpected(*args):
        raise AssertionError("table --kind gram-F built or sampled a Gram")

    monkeypatch.setattr(suites, "series_family", unexpected)
    monkeypatch.setattr(quad, "mc_dj_gram", unexpected)
    code, out, err = run(["table", "--kind", "gram-F"] + argv, capsys)
    assert (code, out) == (2, "")
    assert f"at n = 1 only, not at n = {argv[1]}" in err
    assert "verify --suite series-gram" in err


# Each kind reads only its own options, besides --kind, --out and --format;
# any other option given exits 2 and names it, before its value is checked.
TABLE_UNREAD = {
    "gram-phi": ["--k", "4", "--seed", "1", "--samples", "10"],
    "gram-F": ["--trunc", "3"],
    "expansion-convergence": ["--m", "0.5", "--k", "4", "--samples", "10"],
    "calibration": ["--n", "0", "--k", "9", "--seed", "4", "--samples", "7", "--trunc", "-1"],
}


@pytest.mark.parametrize("kind", sorted(TABLE_UNREAD))
def test_a_table_kind_refuses_the_options_it_does_not_read(kind, capsys):
    unread = TABLE_UNREAD[kind]
    code, out, err = run(["table", "--kind", kind] + unread, capsys)
    assert (code, out) == (2, "")
    assert err == f"error: table --kind {kind} reads no {', '.join(unread[::2])}\n"


@pytest.mark.parametrize("kind", sorted(TABLE_UNREAD))
def test_a_table_kind_takes_each_option_it_reads(kind, capsys):
    # its options, given at their defaults, leave the table as it is
    defaults = {**dataclasses.asdict(suites.SuiteConfig()), "trunc": 10,
                "samples": quad.MCConfig().samples}
    given = [word for name in cli.TABLE_OPTIONS[kind]
             for word in (f"--{name}", str(defaults[name]))]
    bare = run(["table", "--kind", kind], capsys)
    assert bare[0] == 0 and run(["table", "--kind", kind] + given, capsys) == bare


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
