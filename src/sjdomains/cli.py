"""Command-line front end: run verification suites, evaluate objects, emit
tables.

Exit codes: 0 all checks passed / output written, 1 at least one check
failed, 2 usage or configuration error.  Reports are written atomically and
are byte-identical across identical invocations when --no-timestamp is given.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import sys

import numpy as np

from . import domains, fockpoly, groups, kernels, quad, report, suites
from .domains import SJDiskPoint, SJSpacePoint
from .suites import SuiteConfig, sub_seed


class CliError(Exception):
    """Usage or configuration problem; maps to exit code 2."""


# --- lenient JSON coercion for eval arguments ---
# Scalars may be given as plain numbers; a two-number list is a complex
# scalar [re, im] (at n = 2 it is a real vector).  Vectors and matrices
# beyond that use the nested forms ([[re, im], ...] and [[...row...], ...]),
# whose entries are numbers or [re, im] pairs.  Every point enters through
# _point and every group element through _element, on the same readers, every
# multi-index through _indices and every parameter (m, k, Q_a's n) through
# _param; every result leaves through report.encode_value.

def _is_num(v):
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _is_pair(v):
    return isinstance(v, list) and len(v) == 2 and all(_is_num(u) for u in v)


def _as_complex(v):
    if _is_num(v):
        return complex(v)
    if _is_pair(v):
        return complex(v[0], v[1])
    raise CliError(f"expected a number or [re, im] pair, got {v!r}")


def _as_vector(v, n):
    if _is_num(v) or (_is_pair(v) and n != 2):
        return np.array([_as_complex(v)])
    if isinstance(v, list):
        return np.array([_as_complex(u) for u in v])
    raise CliError(f"cannot read a vector from {v!r}")


def _as_matrix(v, n=None):
    if _is_num(v) or (_is_pair(v) and n != 2):
        return np.array([[_as_complex(v)]])
    if isinstance(v, list) and v and all(isinstance(row, list) for row in v):
        return np.array([[_as_complex(u) for u in row] for row in v])
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


def _is_count(v):
    return isinstance(v, int) and not isinstance(v, bool) and v >= 0


# eval's parameters: what each must be, and the test of it
_PARAMS = {
    "m": ("a finite positive number", lambda v: _is_num(v) and 0 < v < math.inf),
    "k": ("a finite number", lambda v: _is_num(v) and math.isfinite(v)),
    "n": ("a positive integer", lambda v: _is_count(v) and v > 0),
}


def _param(args, key, default=None):
    """The parameter args[key] (m, k or n), else default, else SuiteConfig's
    default; a value that is not what _PARAMS asks (a bool is no number) is
    a usage error that names the field."""
    v = args.get(key, getattr(SuiteConfig, key) if default is None else default)
    what, valid = _PARAMS[key]
    if not valid(v):
        raise CliError(f"{key!r} must be {what}, got {v!r}")
    return v


def _indices(args, key, single=False):
    """The multi-index args[key], a non-empty list of non-negative integers,
    as a tuple; with single, one such integer is also read, as it is.
    Anything else is a usage error that names the field."""
    v = _need(args, key)
    if single and _is_count(v):
        return v
    if isinstance(v, list) and v and all(_is_count(u) for u in v):
        return tuple(v)
    either = " or one such integer" if single else ""
    raise CliError(f"{key!r} must be a non-empty list of non-negative integers{either},"
                   f" got {v!r}")


def _point(args, mat_keys, vec_keys=(), n=None, mat_default=None, vec_default=0.0,
           model=None):
    """The point (matrix, vector) read from the first of mat_keys and of
    vec_keys in args, else from the defaults (None: required).  n is the
    dimension, else the matrix's size.  A scalar broadcasts, the matrix to
    w I and the vector to (z, ..., z); any other size is a usage error.
    With a model, SJDiskPoint or SJSpacePoint, the point is that class,
    whose constructor certifies it: a ValueError outside the domain."""
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
    return (mat, vec) if model is None else model(mat, vec)


def _element(args, kind):
    """The group element g of args, its fields read as points are: kind 'sp'
    {a, b, c, d}, 'jacobi' those and {lam, mu, kappa}, 'star' {p, q, alpha,
    varkappa}.  A missing field, or an imaginary part in a field of the real
    group, is a usage error that names the field."""
    g = _need(args, "g")
    if not isinstance(g, dict):
        raise CliError("g must be a JSON object of its fields")

    def field(name, read=_as_matrix, *rest):
        if name not in g:
            raise CliError(f"g lacks its field {name!r}")
        return read(g[name], *rest)

    def real(name, *read):
        value = field(name, *read)
        if np.any(np.imag(value)):
            raise CliError(f"the field {name!r} of g must be real")
        return np.real(value)

    if kind == "star":
        omega = groups.SpStarElement(field("p"), field("q"))
        return groups.JacobiStarElement(omega, field("alpha", _as_vector, omega.n),
                                        field("varkappa", _as_complex))
    sigma = groups.SpElement(*(real(name) for name in "abcd"))
    if kind == "sp":
        return sigma
    lam, mu = (real(name, _as_vector, sigma.n) for name in ("lam", "mu"))
    h = groups.HeisenbergElement(lam, mu, real("kappa", _as_complex))
    return groups.JacobiElement(sigma, h)


def _point_fields(x):
    """A point's fields by name, as eval writes them."""
    if isinstance(x, SJDiskPoint):
        return {"W": x.w, "z": x.z}
    return {"Omega": x.omega, "zeta": x.zeta}


def _element_fields(g):
    """A Jacobi or bounded Jacobi element's fields by name, the blocks and
    vectors complex, as eval writes them."""
    if isinstance(g, groups.JacobiStarElement):
        return {"p": g.omega.p, "q": g.omega.q, "alpha": g.alpha, "varkappa": g.varkappa}
    out = {name: getattr(g.sigma, name).astype(complex) for name in "abcd"}
    out.update(lam=g.h.lam.astype(complex), mu=g.h.mu.astype(complex), kappa=g.h.kappa)
    return out


def _q_poly(n, k, a):
    """Q_a at (n, k), a the tuple of upper exponents or, as one integer, the
    exponent of W_11 alone."""
    upper = (a,) + (0,) * (n * (n + 1) // 2 - 1) if isinstance(a, int) else a
    qs = fockpoly.q_basis(n, k, sum(upper))
    labels = fockpoly.sym_degree_list(n, sum(upper))
    if upper not in labels:
        raise CliError(f"no basis label with exponents {upper}")
    return qs[labels.index(upper)]


# --- eval handlers ---

def _ev_poly(poly, args, n):
    if not any(key in args for key in ("Z", "z", "W", "w")):
        return poly.to_json()
    w, z = _point(args, ("W", "w"), ("Z", "z"), n, mat_default=0.0)
    return poly.evaluate(z, w)


def _ev_p_s(args):
    s = _indices(args, "s")
    return _ev_poly(fockpoly.p_s(s), args, len(s))


def _ev_f_s(args):
    s = _indices(args, "s")
    return _ev_poly(fockpoly.basis_f(s, _param(args, "m")), args, len(s))


def _ev_phi(args):
    s = _indices(args, "s")
    w, z = _point(args, ("W", "w"), ("Z", "z"), len(s), mat_default=0.0)
    poly = fockpoly.basis_phi(w, s, _param(args, "m"))
    if "Z" not in args and "z" not in args:
        return poly.to_json()
    return poly.evaluate(z, None)


def _ev_big_f(args):
    s = _indices(args, "s")
    n = len(s)
    qpoly = _q_poly(n, _param(args, "k"), _indices(args, "a", single=True))
    poly = fockpoly.basis_big_f(s, qpoly, _param(args, "m"))
    return _ev_poly(poly, args, n)


def _ev_q_a(args):
    a = _indices(args, "a", single=True)
    n = _param(args, "n", None if isinstance(a, int) else (math.isqrt(8 * len(a) + 1) - 1) // 2)
    qpoly = _q_poly(n, _param(args, "k"), a)
    if "W" not in args and "w" not in args:
        return qpoly.to_json()
    return qpoly.evaluate(None, _point(args, ("W", "w"), n=n)[0])


def _ev_j1(args):
    sigma = _element(args, "sp")
    return kernels.j1(sigma, _point(args, ("Omega",), n=sigma.n, model=SJSpacePoint))


def _ev_theta(args):
    if args.get("inverse"):
        return _element_fields(groups.theta_inv(_element(args, "star")))
    return _element_fields(groups.theta_iso(_element(args, "jacobi")))


def _ev_k1(args):
    yp = _point(args, ("Omega_p",), model=SJSpacePoint)
    return kernels.k1(yp, _point(args, ("Omega",), n=yp.n, model=SJSpacePoint))


def _ev_k2(args):
    yp = _point(args, ("Omega_p",), ("zeta_p",), vec_default=None, model=SJSpacePoint)
    y = _point(args, ("Omega",), ("zeta",), yp.n, vec_default=None, model=SJSpacePoint)
    return kernels.k2_space(yp, y)


def _ev_a_form(args):
    return kernels.a_form(_point(args, ("W", "w"), ("z", "Z"), model=SJDiskPoint))


def _ev_jmk(args):
    g = _element(args, "jacobi")
    y = _point(args, ("Omega",), ("zeta",), g.n, model=SJSpacePoint)
    return kernels.jmk(g, y, _param(args, "m"), _param(args, "k"))


def _ev_jmk_star(args):
    gs = _element(args, "star")
    x = _point(args, ("W", "w"), ("z", "Z"), gs.n, model=SJDiskPoint)
    return kernels.jmk_star(gs, x, _param(args, "m"), _param(args, "k"))


def _ev_kmk(args):
    yp = _point(args, ("Omega_p",), ("zeta_p",), vec_default=None, model=SJSpacePoint)
    y = _point(args, ("Omega",), ("zeta",), yp.n, vec_default=None, model=SJSpacePoint)
    return kernels.kmk_kernel(yp, y, _param(args, "m"), _param(args, "k"))


def _ev_kmk_star(args):
    xp = _point(args, ("W_p",), ("z_p",), vec_default=None, model=SJDiskPoint)
    x = _point(args, ("W",), ("z",), xp.n, vec_default=None, model=SJDiskPoint)
    return kernels.kmk_star_kernel(xp, x, _param(args, "m"), _param(args, "k"))


def _ev_action(args):
    g, point = _need(args, "g"), _need(args, "point")
    disk = isinstance(g, dict) and "p" in g
    elem = _element(args, "star" if disk else "jacobi")
    if not isinstance(point, dict):
        raise CliError("point must be a JSON object, {W, z} or {Omega, zeta}")
    if "W" in point and "z" in point:
        x = _point(point, ("W",), ("z",), vec_default=None, model=SJDiskPoint)
    elif "Omega" in point and "zeta" in point:
        x = _point(point, ("Omega",), ("zeta",), vec_default=None, model=SJSpacePoint)
    else:
        raise CliError("unrecognized point encoding")
    if disk != isinstance(x, SJDiskPoint):
        raise CliError("a disk element {p, q, ...} acts on {W, z} points and a space"
                       " element {a, b, c, d, ...} on {Omega, zeta} points")
    if elem.n != x.n:
        raise CliError(f"the element has n = {elem.n} and the point n = {x.n}")
    act = groups.act_sj_disk if disk else groups.act_sj_space
    return _point_fields(act(elem, x))


def _ev_cayley(args):
    direction = args.get("direction", "forward")
    if direction == "forward":
        x = _point(args, ("W", "w"), ("z", "Z"), model=SJDiskPoint)
        return _point_fields(domains.cayley_forward(x))
    if direction == "inverse":
        y = _point(args, ("Omega",), ("zeta",), model=SJSpacePoint)
        return _point_fields(domains.cayley_inverse(y))
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

def _table_gram_phi(cfg: SuiteConfig, trunc: int):
    w = 0.3 * np.eye(cfg.n)
    index_list = list(fockpoly.enumerate_multiindices(cfg.n, trunc))
    family = fockpoly.PolyFamily([fockpoly.basis_phi(w, tuple(s), cfg.m) for s in index_list])
    gram = quad.fock_gram(family, w, cfg.m)
    labels = [str(tuple(s)) for s in index_list]
    return labels, gram, None


def _table_gram_big_f(cfg: SuiteConfig):
    labels, _, gram, sigma, _ = suites.series_gram(cfg, "table-gram-F")
    return [str(lbl) for lbl in labels], gram, sigma


def _table_expansion_convergence(cfg: SuiteConfig, trunc: int):
    xp = domains.sample_sj_disk_point(cfg.n, 0.25, 0.3, seed=sub_seed(cfg.seed, "conv-a"))
    x = domains.sample_sj_disk_point(cfg.n, 0.25, 0.3, seed=sub_seed(cfg.seed, "conv-b"))
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


def cmd_table(kind: str, cfg: SuiteConfig, trunc: int, fmt: str):
    if kind in ("gram-phi", "gram-F"):
        labels, gram, sigma = (_table_gram_phi(cfg, trunc) if kind == "gram-phi"
                               else _table_gram_big_f(cfg))
        if fmt == "csv":
            return report.matrix_csv_text(gram, labels, labels, sigma=sigma)
        payload = {"kind": kind, "labels": labels, "matrix": gram}
        if sigma is not None:
            payload["sigma"] = sigma
    elif kind == "expansion-convergence":
        rows, closed = _table_expansion_convergence(cfg, trunc)
        if fmt == "csv":
            return report.csv_text(["degree", "abs_residual"],
                                   [[deg, repr(float(resid))] for deg, resid in rows])
        payload = {"kind": kind, "closed_form": closed, "rows": rows}
    elif kind == "calibration":
        rows = _table_calibration(cfg)
        header = ["n", "m", "reference_constant", "calibrated_constant", "ratio",
                  "closed_form"]
        if fmt == "csv":
            return report.csv_text(header, [[row[0]] + [repr(float(v)) for v in row[1:]]
                                            for row in rows])
        payload = {"kind": kind, "rows": [dict(zip(header, row)) for row in rows]}
    else:
        raise CliError(f"unknown table kind '{kind}'")
    return json.dumps(report.encode_value(payload), indent=2, sort_keys=True) + "\n"


# --- argument plumbing ---

@functools.lru_cache(maxsize=None)
def _build_parser():
    """The argparse tree, built on the first call and reused by every later
    main in the process: parsing leaves the parser as it was."""
    parser = argparse.ArgumentParser(
        prog="sjdomains",
        description="Verified computations on Siegel-Jacobi domains.")
    sub = parser.add_subparsers(dest="command", required=True)

    def config_options(p):
        # one option per SuiteConfig field, its type and default the field's
        for f in dataclasses.fields(SuiteConfig):
            p.add_argument(f"--{f.name}", type=type(f.default), default=f.default)

    def output_options(p):
        p.add_argument("--out", default=None, help="write output to this path")
        p.add_argument("--format", choices=("json", "csv"), default="json")

    pv = sub.add_parser("verify", help="run a verification suite")
    pv.add_argument("--suite", required=True,
                    choices=sorted(suites.SUITES) + ["all"])
    config_options(pv)
    output_options(pv)
    pv.add_argument("--no-timestamp", action="store_true",
                    help="omit the timestamp for byte-identical reruns")

    pe = sub.add_parser("eval", help="evaluate a single object")
    pe.add_argument("object", choices=sorted(EVAL_OBJECTS))
    pe.add_argument("args", nargs="?", default="{}",
                    help="JSON arguments, m, k and Q_a's n among them; scalars may"
                         " be bare numbers, complex scalars [re, im]")
    pe.add_argument("--out", default=None, help="write output to this path")

    pt = sub.add_parser("table", help="emit a matrix or series table")
    pt.add_argument("--kind", required=True,
                    choices=("gram-phi", "gram-F", "expansion-convergence",
                             "calibration"))
    config_options(pt)
    pt.add_argument("--trunc", type=int, default=10,
                    help="the degree of gram-phi and of expansion-convergence")
    output_options(pt)
    return parser


def _emit(text: str, out_path):
    if out_path:
        report.atomic_write_text(out_path, text)
    else:
        sys.stdout.write(text)


def _verify_csv(rep: report.VerifyReport) -> str:
    return report.csv_text(
        ["name", "pass", "residual", "tol"],
        [[c.name, int(c.passed), repr(float(c.residual)), repr(float(c.tol))]
         for c in rep.checks])


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        if ns.command == "eval":
            try:
                args = json.loads(ns.args)
            except json.JSONDecodeError as exc:
                raise CliError(f"arguments are not valid JSON: {exc}")
            if not isinstance(args, dict):
                raise CliError("arguments must be a JSON object")
            result = EVAL_OBJECTS[ns.object](args)
            _emit(json.dumps(report.encode_value(result), sort_keys=True) + "\n", ns.out)
            return 0
        cfg = SuiteConfig(**{f.name: getattr(ns, f.name)
                             for f in dataclasses.fields(SuiteConfig)})
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
        if ns.trunc < 0:
            raise CliError("trunc must be a non-negative integer")
        _emit(cmd_table(ns.kind, cfg, ns.trunc, ns.format), ns.out)
        return 0
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (KeyError, TypeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
