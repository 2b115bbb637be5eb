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
# whose entries are numbers or [re, im] pairs.  Each field has one name and
# one reader, which pops it: a point's through _point (or _matrix and
# _vector), a group element's through _element, a multi-index through
# _indices and a parameter (m, k) through _param.  A field left unpopped is
# one the object does not read, and _unread refuses it before the object is
# evaluated.  Every result leaves through report.encode_value.

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


def _need(args, key, default=None):
    """Pop args[key], else return default; without a default a missing
    field is a usage error."""
    if key in args:
        return args.pop(key)
    if default is None:
        raise CliError(f"missing required argument {key!r}")
    return default


def _unread(fields, where=""):
    """A usage error naming the fields that no reader popped."""
    if fields:
        raise CliError(f"unrecognized field{where}: {', '.join(map(repr, fields))}")


# eval's parameters: what each must be, and the test of it
_PARAMS = {
    "m": (suites.M_RULE, suites.m_in_range),
    "k": ("a finite number", lambda v: _is_num(v) and math.isfinite(v)),
}


def _param(args, key):
    """The parameter args[key] (m or k), else SuiteConfig's default; a value
    that is not what _PARAMS asks (a bool is no number) is a usage error
    that names the field."""
    v = _need(args, key, getattr(SuiteConfig, key))
    what, valid = _PARAMS[key]
    if not valid(v):
        raise CliError(f"{key!r} must be {what}, got {v!r}")
    return v


def _indices(args, key):
    """The multi-index args[key], a non-empty list of non-negative integers,
    as a tuple; anything else is a usage error that names the field."""
    v = _need(args, key)
    if isinstance(v, list) and v and all(_is_num(u) and isinstance(u, int) and u >= 0
                                         for u in v):
        return tuple(v)
    raise CliError(f"{key!r} must be a non-empty list of non-negative integers, got {v!r}")


def _matrix(args, key, n=None, default=None):
    """The n x n matrix args[key] (n None: its own size); a scalar w is w I
    and any other size a usage error."""
    mat = _as_matrix(_need(args, key, default), n)
    n = len(mat) if n is None else n
    if mat.shape == (1, 1):
        mat = mat[0, 0] * np.eye(n)
    if mat.shape != (n, n):
        raise CliError(f"{key!r} must be {n} x {n} or a scalar, got shape {mat.shape}")
    return mat


def _vector(args, key, n, default=None):
    """The length-n vector args[key]; a scalar z is (z, ..., z) and any
    other length a usage error."""
    vec = _as_vector(_need(args, key, default), n)
    if len(vec) == 1:
        vec = np.full(n, vec[0])
    if vec.shape != (n,):
        raise CliError(f"{key!r} must have length {n} or be a scalar, got length {len(vec)}")
    return vec


# each point model's fields by name, in the order of its dataclass fields
_FIELDS = {SJDiskPoint: ("W", "z"), SJSpacePoint: ("Omega", "zeta")}


def _point(args, model, n=None, suffix="", vector=True):
    """The point of model, SJDiskPoint or SJSpacePoint, read from its fields
    (their names with suffix), both required; without vector the matrix
    alone, at vector 0.  n is the dimension, else the matrix's size.  The
    model's constructor certifies the point: a ValueError outside the
    domain."""
    mat_key, vec_key = (key + suffix for key in _FIELDS[model])
    mat = _matrix(args, mat_key, n)
    return model(mat, _vector(args, vec_key, len(mat)) if vector else np.zeros(len(mat), complex))


def _pair(args, model, vector=True):
    """The points x_p (suffix _p) and x of model, both of x_p's n."""
    xp = _point(args, model, suffix="_p", vector=vector)
    return xp, _point(args, model, xp.n, vector=vector)


def _element(args, kind=None):
    """The group element g of args, its fields read as points are: kind 'sp'
    {a, b, c, d}, 'jacobi' those and {lam, mu, kappa}, 'star' {p, q, alpha,
    varkappa}; without a kind, 'star' if g has p, else 'jacobi'.  A missing
    or unread field, or an imaginary part in a field of the real group, is
    a usage error that names the field."""
    g = _need(args, "g")
    if not isinstance(g, dict):
        raise CliError("g must be a JSON object of its fields")
    kind = kind or ("star" if "p" in g else "jacobi")

    def field(name, read=_as_matrix, *rest):
        if name not in g:
            raise CliError(f"g lacks its field {name!r}")
        return read(g.pop(name), *rest)

    def real(name, *read):
        value = field(name, *read)
        if np.any(np.imag(value)):
            raise CliError(f"the field {name!r} of g must be real")
        return np.real(value)

    if kind == "star":
        omega = groups.SpStarElement(field("p"), field("q"))
        elem = groups.JacobiStarElement(omega, field("alpha", _as_vector, omega.n),
                                        field("varkappa", _as_complex))
    else:
        elem = groups.SpElement(*(real(name) for name in "abcd"))
        if kind == "jacobi":
            lam, mu = (real(name, _as_vector, elem.n) for name in ("lam", "mu"))
            elem = groups.JacobiElement(
                elem, groups.HeisenbergElement(lam, mu, real("kappa", _as_complex)))
    _unread(g, " of g")
    return elem


def _point_fields(x):
    """A point's fields by name, as eval writes them and _point reads them."""
    return dict(zip(_FIELDS[type(x)], (getattr(x, f.name) for f in dataclasses.fields(x))))


def _element_fields(g):
    """A Jacobi or bounded Jacobi element's fields by name, the blocks and
    vectors complex, as eval writes them."""
    if isinstance(g, groups.JacobiStarElement):
        return {"p": g.omega.p, "q": g.omega.q, "alpha": g.alpha, "varkappa": g.varkappa}
    out = {name: getattr(g.sigma, name).astype(complex) for name in "abcd"}
    out.update(lam=g.h.lam.astype(complex), mu=g.h.mu.astype(complex), kappa=g.h.kappa)
    return out


def _q_poly(n, k, a):
    """Q_a's label a checked at n, and a callable that builds Q_a at (n, k)."""
    labels = fockpoly.sym_degree_list(n, sum(a))
    if a not in labels:
        raise CliError(f"no basis label with exponents {a}")
    return lambda: fockpoly.q_basis(n, k, sum(a))[labels.index(a)]


# --- eval handlers ---
# Each pops the fields it reads from its args and returns the evaluation as
# a zero-argument callable; main refuses what is left before calling it.

def _mk(args):
    """The parameters m and k."""
    return _param(args, "m"), _param(args, "k")


def _ev_poly(args, build):
    """The polynomial of the multi-index s = args["s"] at W, z (each 0 if
    absent), or its terms if neither is given; build(s) reads the other
    fields the polynomial needs and returns the callable that builds it."""
    s = _indices(args, "s")
    poly = build(s)
    if "W" not in args and "z" not in args:
        return lambda: poly().to_json()
    w, z = _matrix(args, "W", len(s), 0.0), _vector(args, "z", len(s), 0.0)
    return lambda: poly().evaluate(z, w)


def _ev_big_f(args):
    def build(s):
        q, m = _q_poly(len(s), _param(args, "k"), _indices(args, "a")), _param(args, "m")
        return lambda: fockpoly.basis_big_f(s, q(), m)
    return _ev_poly(args, build)


def _ev_q_a(args):
    a = _indices(args, "a")
    n = (math.isqrt(8 * len(a) + 1) - 1) // 2  # len(a) = n(n + 1)/2
    qpoly = _q_poly(n, _param(args, "k"), a)
    w = _matrix(args, "W", n) if "W" in args else None
    return lambda: qpoly().to_json() if w is None else qpoly().evaluate(None, w)


def _ev_j1(args):
    sigma = _element(args, "sp")
    return functools.partial(kernels.j1, sigma, _point(args, SJSpacePoint, sigma.n, vector=False))


def _ev_theta(args):
    g = _element(args)
    back = isinstance(g, groups.JacobiStarElement)
    return lambda: _element_fields(groups.theta_inv(g) if back else groups.theta_iso(g))


def _ev_jmk(kernel, kind, model):
    """The reader of the automorphy factor kernel(g, x, m, k), g a group
    element of kind and x a point of model."""
    def read(args):
        g = _element(args, kind)
        return functools.partial(kernel, g, _point(args, model, g.n), *_mk(args))
    return read


def _ev_action(args):
    g = _element(args)
    point = _need(args, "point")
    if not isinstance(point, dict):
        raise CliError("point must be a JSON object, {W, z} or {Omega, zeta}")
    model = next((m for m, keys in _FIELDS.items() if point.keys() >= set(keys)), None)
    if model is None:
        raise CliError("unrecognized point encoding")
    x = _point(point, model)
    _unread(point, " of point")
    disk = isinstance(g, groups.JacobiStarElement)
    if disk != isinstance(x, SJDiskPoint):
        raise CliError("a disk element {p, q, ...} acts on {W, z} points and a space"
                       " element {a, b, c, d, ...} on {Omega, zeta} points")
    if g.n != x.n:
        raise CliError(f"the element has n = {g.n} and the point n = {x.n}")
    act = groups.act_sj_disk if disk else groups.act_sj_space
    return lambda: _point_fields(act(g, x))


def _ev_cayley(args):
    # an Omega point maps back to the disk, a W point forward to the space
    back = "Omega" in args
    x = _point(args, SJSpacePoint if back else SJDiskPoint)
    return lambda: _point_fields((domains.cayley_inverse if back else domains.cayley_forward)(x))


EVAL_OBJECTS = {
    "P_s": lambda args: _ev_poly(args, lambda s: functools.partial(fockpoly.p_s, s)),
    # Phi's W is its parameter, popped by the build, so it is evaluated at z
    "Phi": lambda args: _ev_poly(args, lambda s: functools.partial(
        fockpoly.basis_phi, _matrix(args, "W", len(s), 0.0), s, _param(args, "m"))),
    "f_s": lambda args: _ev_poly(
        args, lambda s: functools.partial(fockpoly.basis_f, s, _param(args, "m"))),
    "F_sa": _ev_big_f,
    "Q_a": _ev_q_a,
    "J1": _ev_j1,
    "theta": _ev_theta,
    "K1": lambda args: functools.partial(kernels.k1, *_pair(args, SJSpacePoint, vector=False)),
    "K2": lambda args: functools.partial(kernels.k2_space, *_pair(args, SJSpacePoint)),
    "A": lambda args: functools.partial(kernels.a_form, _point(args, SJDiskPoint)),
    "Jmk": _ev_jmk(kernels.jmk, "jacobi", SJSpacePoint),
    "JmkStar": _ev_jmk(kernels.jmk_star, "star", SJDiskPoint),
    "Kmk": lambda args: functools.partial(kernels.kmk_kernel, *_pair(args, SJSpacePoint),
                                          *_mk(args)),
    "KmkStar": lambda args: functools.partial(kernels.kmk_star_kernel,
                                              *_pair(args, SJDiskPoint), *_mk(args)),
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


def _table_gram_big_f(cfg: SuiteConfig, samples: int):
    if cfg.n != 1:
        raise CliError(f"table --kind gram-F samples at n = 1 only, not at n = {cfg.n}; "
                       "verify --suite series-gram reads the exact Gram at every n")
    labels, family = suites.series_family(cfg)
    mccfg = quad.MCConfig(samples=samples, seed=sub_seed(cfg.seed, "table-gram-F"))
    gram, sigma, _ = quad.mc_dj_gram(family, cfg.m, cfg.k, mccfg)
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


def cmd_table(kind: str, cfg: SuiteConfig, trunc: int, samples: int, fmt: str):
    if kind in ("gram-phi", "gram-F"):
        labels, gram, sigma = (_table_gram_phi(cfg, trunc) if kind == "gram-phi"
                               else _table_gram_big_f(cfg, samples))
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
    else:
        rows = _table_calibration(cfg)
        header = ["n", "m", "reference_constant", "calibrated_constant", "ratio",
                  "closed_form"]
        if fmt == "csv":
            return report.csv_text(header, [[row[0]] + [repr(float(v)) for v in row[1:]]
                                            for row in rows])
        payload = {"kind": kind, "rows": [dict(zip(header, row)) for row in rows]}
    return json.dumps(report.encode_value(payload), indent=2, sort_keys=True) + "\n"


# --- argument plumbing ---

# the options each table kind reads, besides --kind, --out and --format
TABLE_OPTIONS = {
    "gram-phi": ("n", "m", "trunc"),
    "gram-F": ("n", "m", "k", "seed", "samples"),
    "expansion-convergence": ("n", "seed", "trunc"),
    "calibration": ("m",),
}


class _Given(argparse.Action):
    """Store the option's value and note its name in the namespace's given."""

    def __call__(self, parser, namespace, values, option_string=None):
        setattr(namespace, self.dest, values)
        namespace.given = getattr(namespace, "given", ()) + (self.dest,)


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
            p.add_argument(f"--{f.name}", type=type(f.default), default=f.default,
                           action=_Given)

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
                    help="JSON arguments, m and k among them; scalars may"
                         " be bare numbers, complex scalars [re, im]")
    pe.add_argument("--out", default=None, help="write output to this path")

    pt = sub.add_parser("table", help="emit a matrix or series table")
    pt.add_argument("--kind", required=True, choices=list(TABLE_OPTIONS))
    config_options(pt)
    pt.add_argument("--trunc", type=int, default=10, action=_Given,
                    help="the degree of gram-phi and of expansion-convergence")
    pt.add_argument("--samples", type=int, default=quad.MCConfig.samples, action=_Given,
                    help="the Monte Carlo sample count of gram-F")
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
            evaluate = EVAL_OBJECTS[ns.object](args)
            _unread(args)
            _emit(json.dumps(report.encode_value(evaluate()), sort_keys=True) + "\n", ns.out)
            return 0
        if ns.command == "table":
            unread = [f"--{name}" for name in getattr(ns, "given", ())
                      if name not in TABLE_OPTIONS[ns.kind]]
            if unread:
                raise CliError(f"table --kind {ns.kind} reads no {', '.join(unread)}")
        cfg = SuiteConfig(**{f.name: getattr(ns, f.name)
                             for f in dataclasses.fields(SuiteConfig)})
        if ns.command == "verify":
            rep = suites.run_suite(ns.suite, cfg)
            if not ns.no_timestamp:
                rep = rep.stamp()
            # a report on stdout has it to itself: the summary goes to stderr
            for line in rep.summary_lines():
                print(line, file=sys.stdout if ns.out else sys.stderr)
            _emit(_verify_csv(rep) if ns.format == "csv" else rep.to_json(), ns.out)
            return 0 if rep.passed else 1
        if ns.trunc < 0:
            raise CliError("trunc must be a non-negative integer")
        _emit(cmd_table(ns.kind, cfg, ns.trunc, ns.samples, ns.format), ns.out)
        return 0
    except (CliError, KeyError, TypeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
