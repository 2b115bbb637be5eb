"""Command-line front end: run verification suites, evaluate objects, emit
tables.

Exit codes: 0 all checks passed / output written, 1 at least one check
failed, 2 usage or configuration error.  Reports are written atomically and
are byte-identical across identical invocations when --no-timestamp is given.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

import numpy as np

from . import discrete_series as ds
from . import domains, fockpoly, groups, kernels, quad, report, suites
from .suites import SuiteConfig, sub_seed


class CliError(Exception):
    """Usage or configuration problem; maps to exit code 2."""


# --- lenient JSON coercion for eval arguments ---
# Scalars may be given as plain numbers; a two-number list is a complex
# scalar [re, im] (at n = 2 it is a real vector).  Vectors and matrices
# beyond that use the nested strict forms ([[re, im], ...] and
# [[...row...], ...]).  Every point enters through _point.

def _is_num(v):
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _as_complex(v):
    if _is_num(v):
        return complex(v)
    if isinstance(v, list) and len(v) == 2 and all(_is_num(u) for u in v):
        return complex(v[0], v[1])
    raise CliError(f"expected a number or [re, im] pair, got {v!r}")


def _as_vector(v, n):
    if _is_num(v):
        return np.array([complex(v)])
    if isinstance(v, list):
        if len(v) == 2 and all(_is_num(u) for u in v) and n != 2:
            return np.array([complex(v[0], v[1])])
        return np.array([_as_complex(u) for u in v])
    raise CliError(f"cannot read a vector from {v!r}")


def _as_matrix(v, n=None):
    if _is_num(v):
        return np.array([[complex(v)]])
    if isinstance(v, list) and len(v) == 2 and all(_is_num(u) for u in v) and n != 2:
        return np.array([[complex(v[0], v[1])]])
    if isinstance(v, list) and v and isinstance(v[0], list):
        if v[0] and isinstance(v[0][0], list):
            return domains.json_to_matrix(v)
        if all(_is_num(u) for row in v for u in row):
            return np.array(v, dtype=complex)
        return domains.json_to_matrix(v)
    raise CliError(f"cannot read a matrix from {v!r}")


def _need(args, *keys, default=None):
    """The value of the first of keys in args, else default; without a
    default a missing argument is a usage error."""
    for key in keys:
        if key in args:
            return args[key]
    if default is None:
        raise CliError(f"missing required argument {keys[0]!r}")
    return default


def _point(args, mat_keys, vec_keys=(), n=None, mat_default=None, vec_default=0.0):
    """The point (matrix, vector) read from the first of mat_keys and of
    vec_keys in args, else from the defaults (None: required).  n is the
    dimension, else the matrix's size.  A scalar broadcasts, the matrix to
    w I and the vector to (z, ..., z); any other size is a usage error."""
    mat = _as_matrix(_need(args, *mat_keys, default=mat_default), n)
    n = len(mat) if n is None else n
    vec = _as_vector(_need(args, *vec_keys, default=vec_default), n)
    if mat.shape == (1, 1):
        mat = mat[0, 0] * np.eye(n)
    if len(vec) == 1:
        vec = np.full(n, vec[0])
    if mat.shape != (n, n):
        raise CliError(f"{mat_keys[0]!r} must be {n} x {n} or a scalar, got shape {mat.shape}")
    if vec.shape != (n,):
        raise CliError(f"{vec_keys[0]!r} must have length {n} or be a scalar, got length {len(vec)}")
    return mat, vec


def _q_poly(n, k, a):
    if isinstance(a, int):
        upper = (a,) + (0,) * (n * (n + 1) // 2 - 1)
    else:
        upper = tuple(int(v) for v in a)
    deg = sum(upper)
    qs = fockpoly.q_basis(n, k, deg)
    for label, qpoly in zip(fockpoly.sym_degree_list(n, deg), qs):
        if tuple(label.upper) == upper:
            return qpoly
    raise CliError(f"no basis label with exponents {upper}")


# --- eval handlers ---

def _ev_poly(poly, args, n):
    if not any(key in args for key in ("Z", "z", "W", "w")):
        return poly.to_json()
    w, z = _point(args, ("W", "w"), ("Z", "z"), n, mat_default=0.0)
    return poly.evaluate(z, w)


def _ev_p_s(args, cfg):
    s = tuple(int(v) for v in _need(args, "s"))
    return _ev_poly(fockpoly.p_s(s), args, len(s))


def _ev_f_s(args, cfg):
    s = tuple(int(v) for v in _need(args, "s"))
    return _ev_poly(fockpoly.basis_f(s, args.get("m", cfg.m)), args, len(s))


def _ev_phi(args, cfg):
    s = tuple(int(v) for v in _need(args, "s"))
    w, z = _point(args, ("W", "w"), ("Z", "z"), len(s), mat_default=0.0)
    poly = fockpoly.basis_phi(w, s, args.get("m", cfg.m))
    if "Z" not in args and "z" not in args:
        return poly.to_json()
    return poly.evaluate(z, None)


def _ev_big_f(args, cfg):
    s = tuple(int(v) for v in _need(args, "s"))
    n = len(s)
    qpoly = _q_poly(n, args.get("k", cfg.k), _need(args, "a"))
    poly = fockpoly.basis_big_f(s, qpoly, args.get("m", cfg.m))
    return _ev_poly(poly, args, n)


def _ev_q_a(args, cfg):
    a = _need(args, "a")
    n = args.get("n", cfg.n if not isinstance(a, list) else None)
    if n is None:
        n = int((math.isqrt(8 * len(a) + 1) - 1) // 2)
    qpoly = _q_poly(n, args.get("k", cfg.k), a)
    if "W" not in args and "w" not in args:
        return qpoly.to_json()
    return qpoly.evaluate(None, _point(args, ("W", "w"), n=n)[0])


def _ev_j1(args, cfg):
    sigma = groups.json_to_sp(_need(args, "g"))
    return kernels.j1(sigma, _point(args, ("Omega",), n=sigma.n))


def _ev_theta(args, cfg):
    if args.get("inverse"):
        return groups.jacobi_to_json(groups.theta_inv(groups.json_to_jacobi_star(_need(args, "g"))))
    return groups.jacobi_star_to_json(groups.theta_iso(groups.json_to_jacobi(_need(args, "g"))))


def _ev_k1(args, cfg):
    yp = _point(args, ("Omega_p",))
    return kernels.k1(yp, _point(args, ("Omega",), n=len(yp[0])))


def _ev_k2(args, cfg):
    yp = _point(args, ("Omega_p",), ("zeta_p",), vec_default=None)
    y = _point(args, ("Omega",), ("zeta",), len(yp[0]), vec_default=None)
    return kernels.k2_space(yp, y)


def _ev_a_form(args, cfg):
    return kernels.a_form(*_point(args, ("W", "w"), ("z", "Z")))


def _ev_jmk(args, cfg):
    g = groups.json_to_jacobi(_need(args, "g"))
    y = _point(args, ("Omega",), ("zeta",), g.n)
    return kernels.jmk(g, y, args.get("m", cfg.m), args.get("k", cfg.k))


def _ev_jmk_star(args, cfg):
    gs = groups.json_to_jacobi_star(_need(args, "g"))
    x = _point(args, ("W", "w"), ("z", "Z"), gs.n)
    return kernels.jmk_star(gs, x, args.get("m", cfg.m), args.get("k", cfg.k))


def _ev_kmk(args, cfg):
    yp = _point(args, ("Omega_p",), ("zeta_p",), vec_default=None)
    y = _point(args, ("Omega",), ("zeta",), len(yp[0]), vec_default=None)
    return kernels.kmk_kernel(yp, y, args.get("m", cfg.m), args.get("k", cfg.k))


def _ev_kmk_star(args, cfg):
    xp = _point(args, ("W_p",), ("z_p",), vec_default=None)
    x = _point(args, ("W",), ("z",), len(xp[0]), vec_default=None)
    return kernels.kmk_star_kernel(xp, x, args.get("m", cfg.m), args.get("k", cfg.k))


def _ev_action(args, cfg):
    g = _need(args, "g")
    point = domains.json_to_point(_need(args, "point"))
    disk = "p" in g
    if disk != isinstance(point, domains.SJDiskPoint):
        raise CliError("a disk element {p, q, ...} acts on {W, z} points and a space"
                       " element {a, b, c, d, ...} on {Omega, zeta} points")
    elem = groups.json_to_jacobi_star(g) if disk else groups.json_to_jacobi(g)
    if elem.n != point.n:
        raise CliError(f"the element has n = {elem.n} and the point n = {point.n}")
    act = groups.act_sj_disk if disk else groups.act_sj_space
    return domains.point_to_json(act(elem, point))


def _ev_cayley(args, cfg):
    direction = args.get("direction", "forward")
    if direction == "forward":
        x = domains.SJDiskPoint(*_point(args, ("W", "w"), ("z", "Z")))
        return domains.point_to_json(domains.cayley_forward(x))
    if direction == "inverse":
        y = domains.SJSpacePoint(*_point(args, ("Omega",), ("zeta",)))
        return domains.point_to_json(domains.cayley_inverse(y))
    raise CliError("direction must be 'forward' or 'inverse'")


EVAL_OBJECTS = {
    "P_s": _ev_p_s,
    "Phi": _ev_phi,
    "f_s": _ev_f_s,
    "F_sa": _ev_big_f,
    "Q_a": _ev_q_a,
    "J1": _ev_j1,
    "theta": _ev_theta,
    "K1": _ev_k1,
    "K2": _ev_k2,
    "A": _ev_a_form,
    "Jmk": _ev_jmk,
    "JmkStar": _ev_jmk_star,
    "Kmk": _ev_kmk,
    "KmkStar": _ev_kmk_star,
    "action": _ev_action,
    "cayley": _ev_cayley,
}


# --- tables ---

def _table_gram_phi(cfg: SuiteConfig):
    n = cfg.n
    degree = min(cfg.trunc, 6)
    w = 0.3 * np.eye(n)
    index_list = list(fockpoly.enumerate_multiindices(n, degree))
    family = fockpoly.PolyFamily([fockpoly.basis_phi(w, tuple(s), cfg.m) for s in index_list])
    gram = quad.fock_gram(family, w, cfg.m)
    labels = [str(tuple(s)) for s in index_list]
    return labels, gram, None


def _table_gram_big_f(cfg: SuiteConfig):
    mccfg = quad.MCConfig(samples=cfg.samples, seed=sub_seed(cfg.seed, "table-gram-F"))
    labels, gram, sigma, _ = ds.gram_matrix(cfg.params(), mccfg, s_max=3, a_max=2)
    return [str(lbl) for lbl in labels], gram, sigma


def _table_expansion_convergence(cfg: SuiteConfig):
    xp = domains.sample_sj_disk_point(cfg.n, 0.25, 0.3, seed=sub_seed(cfg.seed, "conv-a"))
    x = domains.sample_sj_disk_point(cfg.n, 0.25, 0.3, seed=sub_seed(cfg.seed, "conv-b"))
    trunc = fockpoly.TruncationSpec(max_degree=max(cfg.trunc, 4))
    res = fockpoly.expansion_fock_full(xp, x, fockpoly.MATCHING_M, trunc)
    closed = kernels.kmk_star_kernel(xp, x, fockpoly.MATCHING_M, 0.5)
    rows = [(deg, abs(partial - closed))
            for deg, partial in enumerate(res.partials)]
    return rows, closed


def _table_calibration(cfg: SuiteConfig):
    rows = []
    for n in (1, 2):
        cal = quad.calibrate_norms(n, cfg.m)
        rows.append((n, cfg.m, cal["reference_constant"], cal["constant"],
                     cal["ratio"], cal["closed_form"]))
    return rows


def cmd_table(kind: str, cfg: SuiteConfig, fmt: str):
    if kind in ("gram-phi", "gram-F"):
        labels, gram, sigma = (_table_gram_phi if kind == "gram-phi"
                               else _table_gram_big_f)(cfg)
        if fmt == "csv":
            return report.matrix_csv_text(gram, labels, labels, sigma=sigma)
        payload = {"kind": kind, "labels": labels,
                   "matrix": report.encode_value(gram)}
        if sigma is not None:
            payload["sigma"] = report.encode_value(sigma)
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if kind == "expansion-convergence":
        rows, closed = _table_expansion_convergence(cfg)
        if fmt == "csv":
            return report.csv_text(["degree", "abs_residual"],
                                   [[deg, repr(float(resid))] for deg, resid in rows])
        return json.dumps({"kind": kind, "closed_form": report.encode_value(closed),
                           "rows": [[deg, float(r)] for deg, r in rows]},
                          indent=2, sort_keys=True) + "\n"
    if kind == "calibration":
        rows = _table_calibration(cfg)
        header = ["n", "m", "reference_constant", "calibrated_constant", "ratio",
                  "closed_form"]
        if fmt == "csv":
            return report.csv_text(header, [[row[0]] + [repr(float(v)) for v in row[1:]]
                                            for row in rows])
        return json.dumps({"kind": kind,
                           "rows": [dict(zip(header, row)) for row in rows]},
                          indent=2, sort_keys=True) + "\n"
    raise CliError(f"unknown table kind '{kind}'")


# --- argument plumbing ---

@functools.lru_cache(maxsize=None)
def _build_parser():
    """The argparse tree, built on the first call and reused by every later
    main in the process: parsing leaves the parser as it was."""
    parser = argparse.ArgumentParser(
        prog="sjdomains",
        description="Verified computations on Siegel-Jacobi domains.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--n", type=int, default=1)
        p.add_argument("--m", type=float, default=0.25)
        p.add_argument("--k", type=int, default=3)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--tol", type=float, default=None,
                       help="override the per-check residual tolerance")
        p.add_argument("--samples", type=int, default=100000)
        p.add_argument("--trunc", type=int, default=10)
        p.add_argument("--out", default=None, help="write output to this path")
        p.add_argument("--format", choices=("json", "csv"), default="json")
        p.add_argument("--no-timestamp", action="store_true",
                       help="omit the timestamp for byte-identical reruns")

    pv = sub.add_parser("verify", help="run a verification suite")
    pv.add_argument("--suite", required=True,
                    choices=sorted(suites.SUITES) + ["all"])
    common(pv)

    pe = sub.add_parser("eval", help="evaluate a single object")
    pe.add_argument("object", choices=sorted(EVAL_OBJECTS))
    pe.add_argument("args", nargs="?", default="{}",
                    help="JSON arguments; scalars may be bare numbers,"
                         " complex scalars [re, im]")
    common(pe)

    pt = sub.add_parser("table", help="emit a matrix or series table")
    pt.add_argument("--kind", required=True,
                    choices=("gram-phi", "gram-F", "expansion-convergence",
                             "calibration"))
    common(pt)
    return parser


def _config_from(ns) -> SuiteConfig:
    if ns.n < 1:
        raise CliError("n must be a positive integer")
    if ns.m <= 0:
        raise CliError("m must be positive")
    if ns.samples < 2:
        raise CliError("samples must be at least 2")
    return SuiteConfig(n=ns.n, m=ns.m, k=ns.k, seed=ns.seed, tol=ns.tol,
                       samples=ns.samples, trunc=ns.trunc)


def _emit(text: str, out_path):
    if out_path:
        report.atomic_write_text(out_path, text)
    else:
        sys.stdout.write(text)


def _verify_csv(rep: report.VerifyReport) -> str:
    return report.csv_text(
        ["name", "pass", "residual", "tol"],
        [[c.name, int(c.passed),
          "" if c.residual is None else repr(float(c.residual)),
          "" if c.tol is None else repr(float(c.tol))] for c in rep.checks])


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        cfg = _config_from(ns)
        if ns.command == "verify":
            rep = suites.run_suite(ns.suite, cfg)
            if not ns.no_timestamp:
                rep = rep.stamp()
            for line in rep.summary_lines():
                print(line)
            if ns.out:
                text = _verify_csv(rep) if ns.format == "csv" else rep.to_json()
                report.atomic_write_text(ns.out, text)
            elif ns.format == "csv":
                sys.stdout.write(_verify_csv(rep))
            return 0 if rep.passed else 1
        if ns.command == "eval":
            try:
                args = json.loads(ns.args)
            except json.JSONDecodeError as exc:
                raise CliError(f"arguments are not valid JSON: {exc}")
            if not isinstance(args, dict):
                raise CliError("arguments must be a JSON object")
            result = EVAL_OBJECTS[ns.object](args, cfg)
            text = json.dumps(report.encode_value(result), sort_keys=True) + "\n"
            _emit(text, ns.out)
            return 0
        if ns.command == "table":
            _emit(cmd_table(ns.kind, cfg, ns.format), ns.out)
            return 0
        raise CliError(f"unknown command {ns.command!r}")
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (KeyError, TypeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
