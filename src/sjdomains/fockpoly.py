"""Polynomial engine: the matching-type polynomials P_s(Z, W), the derived
orthonormal bases of the Fock-type spaces, and truncated kernel expansions.

Every P_s comes from one recurrence, p_s_values:
P_{s+e_i} = Z_i P_s + sum_j s_j W_ij P_{s-e_j}.  Run on PolyFunction monomials
it builds the integer polynomials p_s; run on numbers, or on (N,) arrays of
them, it evaluates the Fock basis f_s = P_s(sqrt(8 pi m) z, W)/sqrt(s!) at a
point or at each point of a stack; run on z-monomials with a numeric W it
gives basis_phi.  p_s_from_generating reads P_s off the generating function
exp(U tZ + U W tU / 2) in closed form, independently, as a check.

There is one kernel expansion, expansion_fock_full: sum f_s(x') conj(f_s(x))
over |s| <= d; fock_expansions grows it through increasing degrees, extending
its P_s tables.  Both take one pair of points or a stack of pairs, whose
values, tails and partial sums are (N,) arrays; one pair is a batch of one.
The matching expansion is its m = MATCHING_M instance and the fixed-W
expansion its W' = W instance; the discrete-series expansion is a constant
times it.  The limits are kernels.kmk_star_kernel, the one closed-form
kernel of the bounded model.

A PolyFunction keys each term by the flat exponent tuple s + a of its
monomial z^s W^a, a the exponents of the upper entries W_ij (i <= j) in
numkit.upper_pairs order.  A symmetric index is such a tuple of upper
exponents everywhere (sym_degree_list, q_basis, the labels of
series_basis), and the keys are the rows of PolyFamily.exponents.

Polynomials are evaluated in families (PolyFamily): a product chain fills
the table of the family's monomials on a batch of points, one multiplication
per monomial, and the real coefficient matrix (the imaginary one too, if
some coefficient has an imaginary part) multiplies the table.  A PolyFamily
is a disk-side integrand of the one evaluation protocol (side, len and
split(ws, zs) -> (vals, logs), logs = 0) that every Gram engine and transfer
operator takes; PolyFunction.evaluate is a batch of one of a family of one.

q_basis is exact at every n: Hua's total mass of the weighted measure and
the Taylor blocks of det(I - W conj(V))^{-(k - 1/2)} give the Gram of the
W-monomials, so nothing here samples or imports the quadrature layer.
fk_gram gives the same Gram a second way, from the Faraut-Koranyi
decomposition into K-types, so that it can check q_basis.

Coefficient exactness policy: P_s, p_s_from_generating and the K-types are
exact (int or Fraction coefficients); every basis carries float coefficients.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

import numpy as np

from . import numkit
from .numkit import enumerate_multiindices, mi_factorial


def _width(n):
    # the length of an exponent tuple: n z-exponents, n(n+1)/2 W-exponents
    return n + n * (n + 1) // 2


@dataclass(frozen=True)
class TruncationResult:
    value: complex
    tail_estimate: float
    partials: tuple = field(default=(), repr=False)


class PolyFunction:
    """Polynomial in the row vector z (or Z) and the symmetric matrix W.

    Terms are stored as {e: coeff}, e the flat exponent tuple s + a of the
    monomial z^s W^a: the n z-exponents s, then the n(n+1)/2 W-exponents a
    of the upper entries W_ij (i <= j) in numkit.upper_pairs order, each
    upper entry counting as one variable.  This is the row format of
    PolyFamily.exponents.  Coefficients may be int/Fraction (exact) or
    float/complex.
    """

    __slots__ = ("n", "terms")

    def __init__(self, n, terms=None):
        self.n = int(n)
        self.terms = {}
        if terms:
            for e, c in terms.items():
                if len(e) != _width(self.n):
                    raise ValueError("term arity mismatch")
                if c == 0:
                    continue
                self.terms[tuple(int(v) for v in e)] = c

    # --- constructors ---

    @classmethod
    def zero(cls, n):
        return cls(n)

    @classmethod
    def constant(cls, n, c):
        return cls(n, {(0,) * _width(n): c})

    @classmethod
    def monomial(cls, n, s=None, a=None, coeff=1):
        """coeff z^s W^a, a the W-exponents in numkit.upper_pairs order."""
        s = (0,) * n if s is None else tuple(s)
        a = (0,) * (_width(n) - n) if a is None else tuple(a)
        return cls(n, {s + a: coeff})

    # --- ring operations ---

    def _binop(self, other, sign):
        if isinstance(other, PolyFunction):
            if other.n != self.n:
                raise ValueError("arity mismatch")
            out = dict(self.terms)
            for key, c in other.terms.items():
                new = out.get(key, 0) + sign * c
                if new == 0:
                    out.pop(key, None)
                else:
                    out[key] = new
            res = PolyFunction(self.n)
            res.terms = out
            return res
        return self._binop(PolyFunction.constant(self.n, other), sign)

    def __add__(self, other):
        return self._binop(other, 1)

    __radd__ = __add__

    def __sub__(self, other):
        return self._binop(other, -1)

    def __neg__(self):
        return self * -1

    def __mul__(self, other):
        if not isinstance(other, PolyFunction):
            if other == 0:
                return PolyFunction(self.n)
            res = PolyFunction(self.n)
            res.terms = {k: c * other for k, c in self.terms.items()}
            return res
        if other.n != self.n:
            raise ValueError("arity mismatch")
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                key = tuple(x + y for x, y in zip(e1, e2))
                new = out.get(key, 0) + c1 * c2
                if new == 0:
                    out.pop(key, None)
                else:
                    out[key] = new
        res = PolyFunction(self.n)
        res.terms = out
        return res

    __rmul__ = __mul__

    def __eq__(self, other):
        return isinstance(other, PolyFunction) and self.n == other.n and self.terms == other.terms

    def __repr__(self):
        return "PolyFunction(n=%d, %d terms)" % (self.n, len(self.terms))

    # --- structure ---

    def is_zero(self):
        return not self.terms

    def terms_sorted(self):
        # by z-degree |s|, then by s and a
        return sorted(self.terms.items(), key=lambda kv: (sum(kv[0][:self.n]), kv[0]))

    # --- calculus ---

    def _d(self, v):
        # derivative in the v-th variable of the exponent tuples
        out = {}
        for e, c in self.terms.items():
            if e[v]:
                key = _lowered(e, v)
                out[key] = out.get(key, 0) + c * e[v]
        res = PolyFunction(self.n)
        res.terms = out
        return res

    def dz(self, j):
        return self._d(j)

    def dw(self, i, j):
        """Derivative in the single variable W_ij (i <= j)."""
        return self._d(self.n + numkit.upper_pairs(self.n).index((min(i, j), max(i, j))))

    # --- evaluation ---

    def evaluate(self, z=None, w=None):
        """Value at one point (z defaults to 0): a batch of one of a family
        of one."""
        z = np.zeros(self.n, dtype=complex) if z is None else numkit.as_row_vector(z, self.n)
        ws = None if w is None else np.asarray(w, dtype=complex)[None]
        return complex(PolyFamily([self]).split(ws, z[None])[0][0, 0])

    # --- serialization ---

    def to_json(self):
        """The terms as {s, a, c}, a as its full symmetric matrix and c
        complex; report.encode_value writes them."""
        n = self.n
        out = []
        for e, c in self.terms_sorted():
            a = [[0] * n for _ in range(n)]
            for (i, j), v in zip(numkit.upper_pairs(n), e[n:]):
                a[i][j] = a[j][i] = v
            out.append({"s": list(e[:n]), "a": a, "c": complex(c)})
        return out


def _chain_link(mono):
    """(v, parent): the exponent tuple mono is parent times variable v, the
    first variable with a nonzero exponent."""
    v = next(i for i, e in enumerate(mono) if e)
    return v, _lowered(mono, v)


class PolyFamily:
    """PolyFunctions of one arity evaluated together, as one disk-side
    integrand.

    The terms become arrays once, here, as a graded chain of monomials
    z^s W^a over the variables z_i, then W_ij with i <= j: the family's
    monomials and every monomial reached from them by lowering the first
    nonzero exponent again and again, down to the constant 1.  Each
    monomial but 1 is its parent (the first nonzero exponent lowered) times
    one variable, and every parent comes before its children.  exponents is
    (#chain, n + n(n+1)/2), the z-exponents then the upper W-exponents, and
    coeffs the (nf, #chain) matrix of coefficients, zero in the columns of
    monomials that only serve as parents.

    split fills the table of the chain's values on a batch of points with
    one multiplication per monomial and multiplies the coefficients by it,
    the real parts against the table's float view and the imaginary parts
    only if some coefficient has one."""

    side = "disk"

    def __init__(self, polys):
        self.n = polys[0].n
        width = _width(self.n)
        terms = [{e: complex(c) for e, c in f.terms.items()} for f in polys]
        chain = set()
        for mono in itertools.chain.from_iterable(terms):
            while mono not in chain:
                chain.add(mono)
                if any(mono):
                    mono = _chain_link(mono)[1]
        rows = sorted(chain, key=lambda e: (sum(e), e))
        index = {mono: r for r, mono in enumerate(rows)}
        self.exponents = np.array(rows, dtype=int).reshape(len(rows), width)
        # row r > 0 is row parent[r - 1] times variable var[r - 1]; row 0 is 1
        links = [_chain_link(mono) for mono in rows[1:]]
        self.var = [v for v, _ in links]
        self.parent = [index[lower] for _, lower in links]
        self.variables = sorted(set(self.var))
        self.coeffs = np.zeros((len(polys), len(rows)), dtype=complex)
        for i, f in enumerate(terms):
            for mono, c in f.items():
                self.coeffs[i, index[mono]] = c
        self._re = np.ascontiguousarray(self.coeffs.real)
        self._im = np.ascontiguousarray(self.coeffs.imag) if self.coeffs.imag.any() else None

    def __len__(self):
        return len(self.coeffs)

    def split(self, ws=None, zs=None):
        """(vals (nf, N), logs (N,) = 0) of the family at ws (N, n, n) and
        zs (N, n); either may be None when no monomial involves it, and
        points of another shape, of another n among them, raise ValueError."""
        if zs is None and ws is None:
            raise ValueError("need at least one batch argument")
        for pts, tail in ((zs, (self.n,)), (ws, (self.n, self.n))):
            if pts is not None and np.shape(pts)[1:] != tail:
                raise ValueError(f"a family of n = {self.n} at points of shape {np.shape(pts)}")
        nrow = len(zs) if zs is not None else len(ws)
        used = self.variables
        if zs is None and used and used[0] < self.n:
            raise ValueError("term involves z but no z supplied")
        if ws is None and used and used[-1] >= self.n:
            raise ValueError("term involves W but no W supplied")
        pairs = numkit.upper_pairs(self.n)
        xs = {v: np.ascontiguousarray(zs[:, v] if v < self.n
                                      else ws[(slice(None),) + pairs[v - self.n]])
              for v in used}
        table = np.empty((len(self.exponents), nrow), dtype=complex)
        table[:1] = 1.0
        for r, (p, v) in enumerate(zip(self.parent, self.var), 1):
            np.multiply(table[p], xs[v], out=table[r])
        flat = table.view(float)
        vals = (self._re @ flat).view(complex)
        if self._im is not None:
            vals = vals + 1j * (self._im @ flat).view(complex)
        return vals, np.zeros(nrow)


# --- the matching-type polynomials ---

def p_s_values(z, w, max_degree: int, vals=None) -> dict:
    """{s: P_s(Z, W)} for every |s| <= max_degree, in enumerate_multiindices
    order, by the rule P_{s+e_i} = Z_i P_s + sum_j s_j W_ij P_{s-e_j} that
    differentiating the generating function exp(U tZ + U W tU / 2) in U_i
    gives.  A table vals of an earlier call at the same (z, w) and a lower
    degree is extended in place.

    z is a length-n sequence and w an n x n nested sequence (symmetric).  The
    rule only adds and multiplies, so their entries may be PolyFunction
    monomials (p_s), complex numbers (values at a point), (N,) complex
    arrays (values at each point of a stack, member by member the same
    arithmetic as a batch of one) or z-monomials with a numeric W
    (basis_phi)."""
    vals = {} if vals is None else vals
    # graded order: the table holds a prefix of the indices
    for s in enumerate_multiindices(len(z), max_degree)[len(vals):]:
        i = next((j for j, v in enumerate(s) if v), None)
        if i is None:
            vals[s] = z[0] * 0 + 1  # the unit of the entries' ring
            continue
        t = _lowered(s, i)
        acc = z[i] * vals[t]
        for j, tj in enumerate(t):
            if tj:
                acc = acc + w[i][j] * tj * vals[_lowered(t, j)]
        vals[s] = acc
    return vals


def _lowered(s, i):
    return s[:i] + (s[i] - 1,) + s[i + 1:]


def _z_monomials(n, coeff=1):
    return [PolyFunction.monomial(n, s=tuple(int(j == i) for j in range(n)), coeff=coeff)
            for i in range(n)]


def _w_monomials(n):
    """The symmetric matrix W as n x n nested lists of its entries, each the
    PolyFunction monomial of its upper entry."""
    pairs = numkit.upper_pairs(n)
    return [[PolyFunction.monomial(n, a=[int(p == (min(i, j), max(i, j))) for p in pairs])
             for j in range(n)] for i in range(n)]


@lru_cache(maxsize=None)
def _p_s_table(n: int, degree: int) -> dict:
    return p_s_values(_z_monomials(n), _w_monomials(n), degree)


def p_s(s: tuple) -> PolyFunction:
    """P_s(Z, W) with integer coefficients, from p_s_values on the monomials
    Z_i and W_ij; the table of each (n, |s|) is cached."""
    s = tuple(int(v) for v in s)
    if any(v < 0 for v in s):
        raise ValueError("negative exponent")
    return _p_s_table(len(s), sum(s))[s]


def p_s_from_generating(s: tuple) -> PolyFunction:
    """Independent construction of P_s: s! times the U^s Taylor coefficient
    of exp(U tZ) prod_{i<=j} exp(c_ij W_ij U_i U_j), c_ii = 1/2 and c_ij = 1,
    in closed form: the sum over upper exponents a with deg(a) <= s of
    s! / ((s - deg a)! a! 2^(sum_i a_ii)) Z^(s - deg a) W^a, where deg(a)_v
    counts the pairs (i, j) of a that contain v, each a_ij times."""
    s = tuple(int(v) for v in s)
    pairs = numkit.upper_pairs(len(s))
    terms = {}
    for a in itertools.product(*(range(min(s[i], s[j]) + 1) for i, j in pairs)):
        rest = list(s)
        for (i, j), e in zip(pairs, a):
            rest[i] -= e
            rest[j] -= e
        if min(rest) >= 0:
            halves = sum(e for (i, j), e in zip(pairs, a) if i == j)
            c = Fraction(mi_factorial(s), mi_factorial(rest) * mi_factorial(a) * 2 ** halves)
            terms[tuple(rest) + a] = int(c) if c.denominator == 1 else c
    return PolyFunction(len(s), terms)


# --- normalized bases ---

def _scale_pow(base: float, e: int) -> float:
    return math.sqrt(base) ** e


def basis_f(s: tuple, m: float) -> PolyFunction:
    """f_s(W, z) = P_s(sqrt(8 pi m) z, W) / sqrt(s!), float coefficients."""
    s = tuple(int(v) for v in s)
    root = math.sqrt(float(mi_factorial(s)))
    u = 8.0 * math.pi * m
    poly = p_s(s)
    n = poly.n
    res = PolyFunction(n)
    res.terms = {e: c * _scale_pow(u, sum(e[:n])) / root for e, c in poly.terms.items()}
    return res


def basis_phi(w, s: tuple, m: float) -> PolyFunction:
    """Phi_{W,s}(z) = f_s(W, z) with the matrix W substituted numerically:
    a polynomial in z alone, from p_s_values on the monomials sqrt(8 pi m) z_i
    and the entries of W."""
    s = tuple(int(v) for v in s)
    z = _z_monomials(len(s), math.sqrt(8.0 * math.pi * m))
    return (p_s_values(z, numkit.symmetrize(w).tolist(), sum(s))[s]
            * (1.0 / math.sqrt(mi_factorial(s))))


def sym_degree_list(n: int, max_degree: int):
    """The symmetric indices a of polynomial degree sum(a) <= max_degree,
    each the tuple of its upper entries in numkit.upper_pairs order.  They
    are sorted by the key (|a|, a), |a| the sum over the full symmetric
    matrix, which counts each off-diagonal entry twice; the polynomial
    degree of W^a is sum(a), which counts it once."""
    twice = [1 if i == j else 2 for i, j in numkit.upper_pairs(n)]
    labels = enumerate_multiindices(len(twice), max_degree)
    return sorted(labels, key=lambda a: (sum(t * v for t, v in zip(twice, a)), a))


def bergman_mass(n: int, k) -> float:
    """Total mass of det(I - W conj(W))^{k - n - 3/2} dLeb(W) over the
    bounded domain, Lebesgue in the upper entries (Hua): with lam = k - 1/2,
    pi^{n(n+1)/2} 2^{-n(n-1)/2} prod_{j<n} Gamma(lam - (n+1+j)/2)
    / Gamma(lam - j/2); pi / (k - 3/2) at n = 1."""
    lam = float(k) - 0.5
    ratio = math.prod(math.gamma(lam - (n + 1 + j) / 2) / math.gamma(lam - j / 2)
                      for j in range(n))
    return math.pi ** (n * (n + 1) // 2) * ratio / 2 ** (n * (n - 1) // 2)


def _taylor_blocks(n: int, k, max_degree: int) -> list:
    """[K_0, ..., K_max_degree]: K_d is the bidegree-(d, d) Taylor block of
    det(I - W conj(V))^{-lam}, lam = k - 1/2, in the upper entries of W and
    of conj(V), both axes over the labels a of sym_degree_list with
    sum(a) = d, in that order.  A bidegree-(d, d) polynomial is its
    matrix of coefficients, and a product adds each pair of monomials
    (a, a') into a + a'.  The power sums t_j = tr((W conj V)^j) come from
    the powers of W conj(V), and the blocks from
    d K_d = lam sum_{j=1..d} t_j K_{d-j}, the Euler operator applied to
    exp(lam sum_j t_j / j)."""
    top = max(max_degree, 1)  # the entries of W conj(V) have degree 1
    labels = [[a for a in sym_degree_list(n, top) if sum(a) == d] for d in range(top + 1)]
    pos = {u: p for block in labels for p, u in enumerate(block)}

    @lru_cache(maxsize=None)
    def scatter(dx, dy):
        out = np.zeros((len(labels[dx + dy]), len(labels[dx]) * len(labels[dy])))
        for col, (a, b) in enumerate(itertools.product(labels[dx], labels[dy])):
            out[pos[tuple(x + y for x, y in zip(a, b))], col] = 1.0
        return out

    def mul(x, dx, y, dy):
        return scatter(dx, dy) @ np.kron(x, y) @ scatter(dx, dy).T

    # w[i, j]: the entry W_ij as a vector over the degree-1 labels
    dim = len(labels[1])
    w = np.zeros((n, n, dim))
    for p, (i, j) in enumerate(numkit.upper_pairs(n)):
        w[i, j, pos[tuple(int(q == p) for q in range(dim))]] = 1.0
        w[j, i] = w[i, j]
    entry = np.einsum("ipa,plb->ilab", w, w)  # (W conj V)_il = sum_p W_ip conj(V)_pl
    power, traces = entry, [None, np.trace(entry)]
    for j in range(2, max_degree + 1):
        power = np.array([[sum(mul(power[i, p], j - 1, entry[p, l], 1) for p in range(n))
                           for l in range(n)] for i in range(n)])
        traces.append(np.trace(power))
    blocks = [np.ones((1, 1))]
    for d in range(1, max_degree + 1):
        blocks.append((float(k) - 0.5) / d * sum(mul(traces[j], j, blocks[d - j], d - j)
                                                 for j in range(1, d + 1)))
    return blocks


@lru_cache(maxsize=None)
def q_basis(n: int, k, max_degree: int):
    """Orthonormal polynomials in W for the weighted measure
    det(I - W conj(W))^{k - n - 3/2} dLeb(W) on the bounded symmetric domain,
    as a tuple over the labels of sym_degree_list(n, max_degree); each
    (n, k, max_degree) is built once per process.

    The monomials are orthonormalized in label order against their exact
    Gram.  Monomials of different degree sum(a) are orthogonal, and
    the degree-d block of the Gram is mass inv(K_d) (bergman_mass,
    _taylor_blocks).  So the degree-d coefficients are the upper triangular
    U with U t(U) = K_d / mass, a Cholesky factor in reversed order, and no
    matrix is inverted.  At n = 1, q_a(w) = w^a / sqrt(pi B(a + 1, k - 3/2)).
    """
    if not k > n + 0.5:
        raise ValueError(f"need k > n + 1/2 for a finite-norm basis, got k={k}, n={n}")
    mass = bergman_mass(n, k)
    labels = sym_degree_list(n, max_degree)
    out = {}
    for d, block in enumerate(_taylor_blocks(n, k, max_degree)):
        mono = [a for a in labels if sum(a) == d]
        # U t(U) = K_d / mass
        upper = numkit.spd_cholesky(block[::-1, ::-1] / mass)[::-1, ::-1]
        for a, col in zip(mono, upper.T):
            out[a] = PolyFunction(n, {(0,) * n + b: float(c) for b, c in zip(mono, col)})
    return tuple(out[a] for a in labels)


# --- the Faraut-Koranyi Gram of the W-monomials ---

def _det(rows):
    """Determinant of a square matrix of PolyFunctions (nested lists), by
    expansion along the first row."""
    if len(rows) == 1:
        return rows[0][0]
    return sum((-1) ** c * rows[0][c] * _det([r[:c] + r[c + 1:] for r in rows[1:]])
               for c in range(len(rows)))


def _unitriangular(n, bound):
    """Every upper unitriangular integer n x n matrix with off-diagonal
    entries in [-bound, bound], once each.  The t-th is the grid point
    numbered t P mod N in base 2 bound + 1, N the number of points and
    P = 2^31 - 1, a prime and so coprime to N: consecutive matrices differ
    in every entry, so few are needed before their images span."""
    base = 2 * bound + 1
    slots = [(i, j) for i, j in numkit.upper_pairs(n) if i < j]
    size = base ** len(slots)
    for t in range(size):
        code = t * (2 ** 31 - 1) % size
        a = [[int(i == j) for j in range(n)] for i in range(n)]
        for i, j in slots:
            code, digit = divmod(code, base)
            a[i][j] = digit - bound
        yield a


@lru_cache(maxsize=None)
def _k_types(n: int, d: int):
    """The Fischer Gram and the K-types P_mu of the degree-d polynomials in
    W (Hua, Schmid), over the degree-d labels of sym_degree_list, in exact
    Fractions: (fischer, [(mu, basis)]) for each partition mu of d into at
    most n parts, basis a Fischer-orthogonal basis of P_mu as pairs
    (v, <v, v>_F).  The Fischer product of the monomials is diagonal,
    fischer[a] = <W^a, W^a>_F = a! 2^(-sum_{i<j} a_ij).

    Delta^mu = prod_j Delta_j^(mu_j - mu_(j+1)), Delta_j the leading
    principal j x j minor, is an eigenvector of every lower triangular A
    acting by W -> A W t(A), so the upper unitriangular A already span P_mu
    by Delta^mu(A W t(A)) (Schmid, Invent. Math. 9 (1969)); their integer
    coefficients have degree <= 2d in each entry of A, so the grid of
    _unitriangular(n, d) determines them.  Each P_mu stops at its Weyl
    dimension prod_{i<j} (2 mu_i - 2 mu_j + j - i) / (j - i)."""
    pairs = numkit.upper_pairs(n)
    labels = [a for a in sym_degree_list(n, d) if sum(a) == d]
    fischer = [Fraction(mi_factorial(a), 2 ** sum(e for (i, j), e in zip(pairs, a) if i != j))
               for a in labels]
    mus = [mu for mu in itertools.product(range(d, -1, -1), repeat=n)
           if sum(mu) == d and all(x >= y for x, y in zip(mu, mu[1:]))]
    dims = {mu: math.prod(2 * (mu[i] - mu[j]) + j - i for i, j in pairs if i < j)
            // math.prod(j - i for i, j in pairs if i < j) for mu in mus}
    bases = {mu: [] for mu in mus}
    w, zero = _w_monomials(n), (0,) * n
    for a in _unitriangular(n, d):
        if all(len(bases[mu]) == dims[mu] for mu in mus):
            break
        mat = [[sum(a[i][p] * a[j][q] * w[p][q] for p in range(n) for q in range(n))
                for j in range(n)] for i in range(n)]
        minors = [_det([row[:j] for row in mat[:j]]) for j in range(1, n + 1)]
        for mu in mus:
            basis = bases[mu]
            if len(basis) == dims[mu]:
                continue
            poly = math.prod((minor for minor, hi, lo in zip(minors, mu, mu[1:] + (0,))
                              for _ in range(hi - lo)), start=PolyFunction.constant(n, 1))
            v = [Fraction(poly.terms.get(zero + b, 0)) for b in labels]
            # Gram-Schmidt in the Fischer product: a zero remainder is
            # dependent on the vectors already kept
            for u, norm in basis:
                c = sum(f * x * y for f, x, y in zip(fischer, u, v)) / norm
                v = [y - c * x for x, y in zip(u, v)]
            if any(v):
                basis.append((v, sum(f * x * x for f, x in zip(fischer, v))))
    if any(len(bases[mu]) != dims[mu] for mu in mus):
        raise ArithmeticError(f"the K-types of degree {d} at n={n} are incomplete")
    return fischer, [(mu, bases[mu]) for mu in mus]


def fk_gram(n: int, k, max_degree: int) -> list:
    """[G_0, ..., G_max_degree]: G_d is the Gram of the degree-d W-monomials
    (labels of sym_degree_list with sum(a) = d, in that order) for the
    measure det(I - W conj(W))^{k - n - 3/2} dLeb(W) of q_basis, from a
    closed form independent of the Taylor blocks q_basis is built from.

    Faraut-Koranyi (J. Funct. Anal. 88 (1990) 64-89): on each K-type P_mu,
    the weighted product is the Fischer product over the generalized
    Pochhammer symbol (lam)_mu = prod_j (lam - (j - 1)/2)_{mu_j},
    lam = k - 1/2, times the total mass (bergman_mass).  So
    G_d = mass sum_mu F C_mu inv(t(C_mu) F C_mu) t(C_mu) F / (lam)_mu, with
    F the diagonal Fischer Gram and C_mu spanning P_mu (_k_types), whose
    Fischer-orthogonal columns make each inverse a diagonal.  Exact Fractions
    until the product with the mass."""
    lam = Fraction(k) - Fraction(1, 2)
    mass = bergman_mass(n, k)
    out = []
    for d in range(max_degree + 1):
        fischer, types = _k_types(n, d)
        gram = [[Fraction(0)] * len(fischer) for _ in fischer]
        for mu, basis in types:
            poch = math.prod((lam - Fraction(j, 2) + i for j, part in enumerate(mu)
                              for i in range(part)), start=Fraction(1))
            for v, norm in basis:
                fv = [f * x for f, x in zip(fischer, v)]
                for r, x in enumerate(fv):
                    if x:
                        x /= norm * poch
                        gram[r] = [g + x * y for g, y in zip(gram[r], fv)]
        out.append(mass * np.array(gram, dtype=float))
    return out


def basis_big_f(s: tuple, a_poly: PolyFunction, m: float) -> PolyFunction:
    """F_{s,a} = (8 pi m)^{n/2} f_s(W, z) q_a(W), orthonormal for the bounded
    Jacobi-domain inner product (unit normalization constant convention)."""
    s = tuple(int(v) for v in s)
    n = len(s)
    return basis_f(s, m) * a_poly * float((8.0 * math.pi * m) ** (n / 2.0))


def series_basis(n: int, m: float, k, s_max: int, a_max: int):
    """Labeled orthonormal family F_{s,a} with |s| <= s_max and deg q_a <= a_max,
    ordered by (|s|, s, a)."""
    qs = q_basis(n, k, a_max)
    labels_a = sym_degree_list(n, a_max)
    out = []
    for s in enumerate_multiindices(n, s_max):
        for a, qa in zip(labels_a, qs):
            out.append(((tuple(s), a), basis_big_f(tuple(s), qa, m)))
    return out


# --- differential system ---

def pde_check(f: PolyFunction, c) -> float:
    """Largest coefficient residual of d^2 f / dz_j dz_k
    - c (1 + delta_jk) df/dW_jk over all j <= k.

    The arithmetic is that of f's coefficients and c: on the integer p_s at
    c = 1 it is exact, and the residual is 0.0 exactly; on basis_f(s, m) the
    system's factor is c = 8 pi m, in floats."""
    worst = 0.0
    for i in range(f.n):
        for j in range(i, f.n):
            lhs = f.dz(i).dz(j)
            rhs = f.dw(i, j) * (c * (2 if i == j else 1))
            diff = lhs - rhs
            if diff.terms:
                worst = max(worst, max(abs(complex(v)) for v in diff.terms.values()))
    return worst


# --- kernel expansions ---

# At this m, f_s = P_s / sqrt(s!) and 8 pi m A = A exactly in floating point,
# so the Fock kernel is the matching kernel det(I - W' conj(W))^{-1/2}
# exp A(W', z'; W, z).
MATCHING_M = 1.0 / (8.0 * math.pi)


def _pair_stacks(xp, x):
    """W', z', W, z of one pair of SJDiskPoints or of a stack of pairs, each
    with a leading axis over the N pairs (one point broadcasts against a
    stack), and whether a stack was given."""
    wp, zp, w, z = xp.w, xp.z, x.w, x.z
    n = x.n
    count = max(wp.size, w.size) // (n * n)
    stacks = [np.broadcast_to(a, (count,) + (n,) * dims)
              for a, dims in ((wp, 2), (zp, 1), (w, 2), (z, 1))]
    return stacks, max(wp.ndim, w.ndim) > 2


def fock_expansions(xp, x, m: float, degrees):
    """expansion_fock_full at each degree of the increasing sequence degrees,
    lazily: each extends the P_s tables and the grades of the one before.

    xp and x are one pair of SJDiskPoints or stacks of pairs (one point
    broadcasts against a stack).  The P_s values, grades and partial sums
    are (N,) arrays over the pairs, the same arithmetic for each pair as for
    a batch of one; one pair gives numbers."""
    (wp, zp, w, z), stacked = _pair_stacks(xp, x)
    count, n = z.shape
    pick = (lambda v: v) if stacked else (lambda v: v[0].item())
    root = math.sqrt(8.0 * math.pi * m)
    args = [([root * vecs[:, i] for i in range(n)],
             [[mats[:, i, j] for j in range(n)] for i in range(n)])
            for mats, vecs in ((wp, zp), (w, z))]
    tables, grades = ({}, {}), []
    for degree in degrees:
        start = len(tables[0])
        for (zz, ww), table in zip(args, tables):
            p_s_values(zz, ww, degree, table)
        grades += [np.zeros(count, dtype=complex)] * (degree + 1 - len(grades))
        vals_p, vals = tables
        for s in list(vals_p)[start:]:
            term = vals_p[s] * np.conj(vals[s]) / float(mi_factorial(s))
            grades[sum(s)] = grades[sum(s)] + term
        partials = tuple(itertools.accumulate(grades))
        tail = (np.abs(partials[-1] - partials[-2]) if len(partials) > 1
                else np.full(count, np.inf))
        yield TruncationResult(pick(partials[-1]), pick(tail), tuple(map(pick, partials)))


def expansion_fock_full(xp, x, m: float, degree: int) -> TruncationResult:
    """sum over |s| <= degree of f_s(W', z') conj(f_s(W, z)), one partial sum
    per degree, the last grade the tail estimate; its limit is
    kernels.kmk_star_kernel(xp, x, m, 1/2).  One pair of points gives
    numbers, a stack of pairs (N,) arrays (fock_expansions).

    f_s(W, z) = P_s(sqrt(8 pi m) z, W) / sqrt(s!), with the P_s values at
    both points from one p_s_values run each.  At m = MATCHING_M it is the
    matching expansion sum P_s(z', W') conj(P_s(z, W)) / s!; at W' = W it is
    the fixed-W expansion over basis_phi(W, s, m), since
    basis_phi(W, s, m)(z) = f_s(W, z)."""
    return next(fock_expansions(xp, x, m, [degree]))


def discrete_kernel_constant(m: float, k, n: int) -> float:
    """Constant rho with sum_{s,a} F_{s,a}(x') conj(F_{s,a}(x)) =
    rho det(I - W' conj(W))^{-k} exp(8 pi m A(W', z'; W, z)).

    With the unit normalization constant convention the reproducing kernel
    of the weighted space keeps an explicit constant: the q-basis sums to
    det(I - W' conj(W))^{-(k - 1/2)} / bergman_mass(n, k), giving
    rho = (8 pi m)^n / bergman_mass(n, k), which is 8 m (k - 3/2) at n = 1.
    (Equivalently: unit constant in the kernel would force the normalization
    constant of the inner product to equal rho.)
    """
    return float((8.0 * math.pi * m) ** n / bergman_mass(n, k))


def expansion_discrete_kernel(xp, x, m: float, k, degree: int,
                              a_max: int) -> TruncationResult:
    """sum over |s| <= degree, deg a <= a_max of F_{s,a}(x') conj(F_{s,a}(x)),
    for one pair of points or a stack of pairs as expansion_fock_full.

    F_{s,a} = (8 pi m)^{n/2} f_s q_a, so the sum factors as (8 pi m)^n times
    sum_a q_a(W') conj(q_a(W)) times the partial sums of expansion_fock_full;
    its limit is discrete_kernel_constant(m, k, n) * kmk_star_kernel(xp, x, m, k).
    The q_a are one PolyFamily, evaluated once at every W' and W."""
    (wp, _, w, _), stacked = _pair_stacks(xp, x)
    count, n = len(w), w.shape[-1]
    vals = PolyFamily(q_basis(n, k, a_max)).split(np.concatenate([wp, w]))[0]
    qsum = sum(vp * np.conj(v) for vp, v in zip(vals[:, :count], vals[:, count:]))
    scale = float((8.0 * math.pi * m) ** n) * qsum
    if not stacked:
        scale = scale[0].item()
    res = expansion_fock_full(xp, x, m, degree)
    return TruncationResult(scale * res.value, abs(scale) * res.tail_estimate,
                            tuple(scale * p for p in res.partials))
