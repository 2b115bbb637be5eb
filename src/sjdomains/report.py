"""Typed results for verification suites plus JSON/CSV serialization.

A check carries a residual compared against tol.  The one Monte Carlo check,
series-gram's sigma-budget, compares sigma_max, the largest standard error
of its Gram, with a fixed budget, and holds the sample count, ess_f and
ess_f_low in its detail.  That Gram integrates z and the angle of w
exactly and samples only |w|^2 (quad.mc_dj_gram), so its sample count
counts radial draws, and ess_f the Kish size of their contributions.
Reports serialize deterministically: keys sorted, complex values as
[re, im], timestamp optional so byte-identical reruns are possible.
"""

from __future__ import annotations

import csv
import io
import json
import os
import tempfile
import time
from dataclasses import dataclass, field

import numpy as np


def encode_value(value):
    """JSON encoding: complex -> [re, im]; numpy scalars -> python scalars."""
    if isinstance(value, complex) or isinstance(value, np.complexfloating):
        return [float(value.real), float(value.imag)]
    if isinstance(value, (np.floating, np.integer)):
        return value.item()
    if isinstance(value, np.ndarray):
        return [encode_value(v) for v in value.tolist()]
    if isinstance(value, (list, tuple)):
        return [encode_value(v) for v in value]
    if isinstance(value, dict):
        return {str(key): encode_value(val) for key, val in value.items()}
    return value


@dataclass(frozen=True)
class CheckResult:
    """A named check: it passes if and only if residual <= tol."""
    name: str
    residual: float
    tol: float
    detail: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return bool(self.residual <= self.tol)

    def to_dict(self) -> dict:
        out = {"name": self.name, "pass": self.passed,
               "residual": float(self.residual), "tol": float(self.tol)}
        if self.detail:
            out["detail"] = encode_value(self.detail)
        return out

    def summary(self) -> str:
        tag = "PASS" if self.passed else "FAIL"
        return f"{tag} {self.name} residual={self.residual:.3e} tol={self.tol:.1e}"


def residual_check(name, residual, tol, detail=None) -> CheckResult:
    return CheckResult(name=name, residual=float(residual), tol=float(tol),
                       detail=detail or {})


@dataclass
class VerifyReport:
    """Checks of a suite run.  wall_s maps the suites of a combined run to
    their wall time in seconds; it is printed in the summary lines and
    serialized, as timing.wall_s, only with a timestamp, so the JSON of a
    run without timestamp repeats byte for byte."""
    suite: str
    params: dict
    seed: int | None
    checks: list
    timestamp: str | None = None
    wall_s: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def stamp(self):
        self.timestamp = time.strftime("%Y-%m-%dT%H:%M:%S")
        return self

    def to_dict(self) -> dict:
        out = {
            "suite": self.suite,
            "params": encode_value(self.params),
            "seed": self.seed,
            "checks": [c.to_dict() for c in self.checks],
            "pass": bool(self.passed),
        }
        if self.timestamp is not None:
            out["timestamp"] = self.timestamp
            if self.wall_s:
                out["timing"] = {"wall_s": encode_value(self.wall_s)}
        return out

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"

    def summary_lines(self) -> list:
        """The verdict, then one line per check; in a combined run each
        suite's checks follow a line with its wall time."""
        lines = [f"[{'PASS' if self.passed else 'FAIL'}] suite {self.suite}"]
        shown = None
        for c in self.checks:
            suite = c.name.split("/")[0]
            if suite in self.wall_s and suite != shown:
                lines.append(f"  -- {suite} {self.wall_s[suite]:.3f} s")
                shown = suite
            lines.append("  " + c.summary())
        return lines


def atomic_write_text(path, text):
    """Write-to-temp plus rename so failed runs never leave partial files."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def csv_text(header, rows) -> str:
    """CSV text of a header row and the rows after it."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def matrix_csv_text(matrix, row_labels, col_labels, sigma=None) -> str:
    """Long-format CSV of a (Gram) matrix: indices, labels, estimate, sigma."""
    matrix = np.asarray(matrix)
    rows = [[i, j, str(rlab), str(clab), repr(complex(matrix[i, j]).real),
             repr(complex(matrix[i, j]).imag),
             repr(float(sigma[i, j])) if sigma is not None else ""]
            for i, rlab in enumerate(row_labels) for j, clab in enumerate(col_labels)]
    return csv_text(["i", "j", "row", "col", "re", "im", "sigma"], rows)
