import json
import os

import numpy as np
import pytest

from sjdomains import report


def test_encode_value():
    assert report.encode_value(1 + 2j) == [1.0, 2.0]
    assert report.encode_value(np.float64(0.5)) == 0.5
    assert report.encode_value(np.int32(3)) == 3
    assert report.encode_value(np.array([1j, 2.0])) == [[0.0, 1.0], [2.0, 0.0]]
    assert report.encode_value({"a": (1j,)}) == {"a": [[0.0, 1.0]]}


def test_residual_check_boundary():
    assert report.residual_check("x", 1e-9, 1e-9).passed
    assert not report.residual_check("x", 1.0000001e-9, 1e-9).passed


def test_check_dict_schema():
    c = report.residual_check("roundtrip", 1e-13, 1e-10)
    d = c.to_dict()
    assert d == {"name": "roundtrip", "pass": True, "residual": 1e-13, "tol": 1e-10}
    c = report.CheckResult(name="norm", residual=0.001, tol=0.006, detail={"sigma": 0.002})
    d = c.to_dict()
    assert set(d) == {"name", "pass", "residual", "tol", "detail"}
    assert d["pass"] is True


def test_report_schema_and_json_stability():
    checks = [report.residual_check("a", 0.0, 1.0)]
    rep = report.VerifyReport("demo", {"n": 1}, 7, checks)
    data = json.loads(rep.to_json())
    assert set(data) == {"suite", "params", "seed", "checks", "pass"}
    assert data["pass"] is True
    assert rep.to_json() == report.VerifyReport("demo", {"n": 1}, 7, checks).to_json()
    stamped = report.VerifyReport("demo", {"n": 1}, 7, checks).stamp()
    assert "timestamp" in json.loads(stamped.to_json())


def test_suite_times_print_but_do_not_serialize():
    # a combined run prints each suite's wall time above its checks; without
    # a timestamp it writes the same JSON as a run without times, and with
    # one it adds them as timing.wall_s
    checks = [report.residual_check(name, 0.0, 1.0) for name in ("a/x", "a/y", "b/x")]
    timed = report.VerifyReport("all", {"n": 1}, 0, checks, wall_s={"a": 0.25, "b": 1.5})
    assert timed.summary_lines() == [
        "[PASS] suite all", "  -- a 0.250 s", "  PASS a/x residual=0.000e+00 tol=1.0e+00",
        "  PASS a/y residual=0.000e+00 tol=1.0e+00", "  -- b 1.500 s",
        "  PASS b/x residual=0.000e+00 tol=1.0e+00"]
    assert timed.to_json() == report.VerifyReport("all", {"n": 1}, 0, checks).to_json()
    stamped = json.loads(timed.stamp().to_json())
    untimed = json.loads(report.VerifyReport("all", {"n": 1}, 0, checks).stamp().to_json())
    assert stamped.pop("timing") == {"wall_s": {"a": 0.25, "b": 1.5}}
    assert stamped.keys() == untimed.keys()
    assert "timing" not in untimed


def test_report_fails_when_any_check_fails():
    checks = [report.residual_check("a", 0.0, 1.0),
              report.residual_check("b", 2.0, 1.0)]
    assert not report.VerifyReport("demo", {}, 0, checks).passed


def test_atomic_write(tmp_path):
    path = tmp_path / "out.json"
    report.atomic_write_text(str(path), "hello\n")
    assert path.read_text() == "hello\n"
    report.atomic_write_text(str(path), "replaced\n")
    assert path.read_text() == "replaced\n"
    assert [p for p in os.listdir(tmp_path) if p.endswith(".tmp")] == []


def test_matrix_csv_text():
    mat = np.array([[1.0, 1j], [0.0, 2.0]])
    sig = np.full((2, 2), 0.5)
    text = report.matrix_csv_text(mat, ["r0", "r1"], ["c0", "c1"], sigma=sig)
    lines = text.strip().splitlines()
    assert lines[0] == "i,j,row,col,re,im,sigma"
    assert len(lines) == 5
    assert lines[2].split(",")[:4] == ["0", "1", "r0", "c1"]
    assert "0.5" in lines[1]
