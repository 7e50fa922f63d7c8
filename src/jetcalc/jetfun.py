"""Jets of exponential-polynomial families with values in a finite module.

A matrix family is the sum of its terms E[a] e^xi x^e C: constant matrices
C, each times one scalar germ.  The central map sends a family T and a
module E to f^(E)(mu) = m_E(f.translate(mu)) for every entry f, by the
closed Taylor formula

    f^(E) = sum_beta (d^beta f)/beta! . m_E(X^beta),

with an extra factor m_E(e^xi) for exponential summands.  On one term it
gives, for each beta <= e, the term E[a] e^xi x^(e - beta) with coefficient
binom(e, beta) m_E(e^xi) m_E(X^beta) tensor C.  A value at a point, such
as a block of the family layer's assemblies, is the jet evaluated there.

Everything downstream (doubled-space derivative data, the correspondence
between functionals on End(E) and constant-coefficient operators, kernels of
the evaluation-and-derivative maps) reduces to module actions plus exact
linear algebra.  The evaluation-and-derivative map of directions lam_1..n is
the action on the tensor product of their dual-number modules, read on the
class of 1: a linear form acts there by the Leibniz sum, the coproduct.
"""

from itertools import combinations
from math import comb, prod
from operator import add, le, sub

from .scalars import Scalar, ZERO, ONE
from .poly import (Polynomial, ExpPoly, Covector, Vector, DiffOp, monomials_upto,
                   beta_factorial, zero_exps, diff, _pair, _point_coords)
from . import linalg
from .linalg import Mat, SpanBasis, CrossCheckError, mmul, _put, _mul_into, _kron_into
from .localmod import (PolySpace, cyclic_quotient, dual_number_module,
                       power_ideal, direct_sum, tensor)


def _rows(acc, key, nrows):
    """The nrows row dicts that acc keeps for key, made on first use."""
    rows = acc.get(key)
    if rows is None:
        rows = acc[key] = [{} for _ in range(nrows)]
    return rows


def _keys_add(k1, k2):
    # the key product of terms: frequencies, units and exponents add
    (f1, u1, e1), (f2, u2, e2) = k1, k2
    return (tuple(map(add, f1, f2)) if any(f2) else f1, u1 + u2 if u2 else u1,
            tuple(map(add, e1, e2)))


class MatPolyFamily:
    """Matrix whose entries are exponential-polynomial functions of the
    parameter: its shape and a zero-free term dict {(freq, unit, exps):
    Mat}, the sum of E[unit] e^freq x^exps C.  At the edges the constructor
    reads a grid of ExpPoly entries, and `entries` gives it back."""

    __slots__ = ("nvars", "rows", "cols", "terms", "_entries")

    def __init__(self, nvars, entries):
        entries = tuple(tuple(row) for row in entries)
        rows = len(entries)
        cols = len(entries[0]) if rows else 0
        acc = {}
        for r, row in enumerate(entries):
            if len(row) != cols:
                raise ValueError("ragged matrix")
            for c, e in enumerate(row):
                if e.nvars != nvars:
                    raise ValueError("entry arity mismatch")
                for (freq, unit), p in e.terms.items():
                    for exps, x in p.terms.items():
                        _rows(acc, (freq, unit, exps), rows)[r][c] = x
        self._fill(nvars, rows, cols, acc)._entries = entries

    def _fill(self, nvars, rows, cols, acc):
        """self with the row dicts acc[key] as its terms, cancelled keys
        dropped."""
        self.nvars, self.rows, self.cols, self._entries = nvars, rows, cols, None
        self.terms = {k: Mat(v, cols) for k, v in acc.items() if any(v)}
        return self

    @classmethod
    def zero(cls, nvars, rows, cols):
        return object.__new__(cls)._fill(nvars, rows, cols, {})

    @classmethod
    def identity(cls, nvars, n):
        one = {((ZERO,) * nvars, ZERO, zero_exps(nvars)): [{i: ONE} for i in range(n)]}
        return object.__new__(cls)._fill(nvars, n, n, one)

    def _new(self, rows, cols, acc):
        return object.__new__(MatPolyFamily)._fill(self.nvars, rows, cols, acc)

    @property
    def entries(self):
        """The grid of ExpPoly entries, built on first read."""
        if self._entries is None:
            nv = self.nvars
            cells = [[{} for _ in range(self.cols)] for _ in range(self.rows)]
            for (freq, unit, exps), m in self.terms.items():
                for crow, row in zip(cells, m.rows):
                    for c, x in row.items():
                        crow[c].setdefault((freq, unit), {})[exps] = x
            self._entries = tuple(tuple(
                ExpPoly(nv, {k: Polynomial(nv, t) for k, t in cell.items()})
                for cell in crow) for crow in cells)
        return self._entries

    def __eq__(self, other):
        if not isinstance(other, MatPolyFamily):
            return NotImplemented
        return ((self.nvars, self.rows, self.cols, self.terms)
                == (other.nvars, other.rows, other.cols, other.terms))

    def _arity(self, other):
        if other.nvars != self.nvars:
            raise ValueError("arity mismatch: %d vs %d variables" % (self.nvars, other.nvars))

    def __add__(self, other):
        self._arity(other)
        if self.rows != other.rows or self.cols != other.cols:
            raise ValueError("shape mismatch")
        acc = {}
        for k, m in (*self.terms.items(), *other.terms.items()):
            _put(_rows(acc, k, self.rows), m)
        return self._new(self.rows, self.cols, acc)

    def __mul__(self, other):
        """The matrix product, each coefficient product accumulated row by
        row straight into its key's rows; a Scalar or int scales the
        coefficients."""
        acc = {}
        if not isinstance(other, MatPolyFamily):
            if other:
                other = Scalar(other) if isinstance(other, int) else other
                for k, m in self.terms.items():
                    _put(_rows(acc, k, self.rows), m, other)
            return self._new(self.rows, self.cols, acc)
        self._arity(other)
        if self.cols != other.rows:
            raise ValueError("inner dimensions %d and %d do not match"
                             % (self.cols, other.rows))
        for k1, a in self.terms.items():
            for k2, b in other.terms.items():
                _mul_into(_rows(acc, _keys_add(k1, k2), self.rows), a.rows, b.rows)
        return self._new(self.rows, other.cols, acc)

    def _groups(self, point):
        """{shift: Mat}: the nonzero sums of point^exps C over the terms
        whose unit + freq(point) is the shift."""
        coords = _point_coords(point, self.nvars)
        acc = {}
        for (freq, unit, exps), m in self.terms.items():
            v = prod((x for x, e in zip(coords, exps) for _ in range(e)), start=ONE)
            if v:
                _put(_rows(acc, _pair(freq, coords, unit), self.rows), m, v)
        return {s: Mat(v, self.cols) for s, v in acc.items() if any(v)}

    def evaluate(self, point):
        """Exact evaluation, entry by entry: each entry's ExpPoly.evaluate,
        an ExpPoly in no variables, a sum of formal units E[shift]."""
        return tuple(tuple(e.evaluate(point) for e in row) for row in self.entries)

    def evaluate_scalar(self, point):
        """The value as a Mat, for a family whose value carries no formal
        unit; otherwise the first entry that carries one raises."""
        groups = self._groups(point)
        if any(groups):  # a nonzero shift survives
            for row in self.evaluate(point):
                for x in row:
                    x.scalar()
        value = groups.get(ZERO)
        return Mat([{} for _ in range(self.rows)], self.cols) if value is None else value

    def __str__(self):
        lines = []
        for row in self.entries:
            lines.append("[" + "; ".join(str(e) for e in row) + "]")
        return "[" + ", ".join(lines) + "]"

    def __repr__(self):
        return "MatPolyFamily(nvars=%d, %dx%d)" % (self.nvars, self.rows, self.cols)


def _as_exppoly(f):
    if isinstance(f, ExpPoly):
        return f
    if isinstance(f, Polynomial):
        return ExpPoly.from_poly(f)
    raise TypeError("expected a polynomial or exponential-polynomial")


def jet_family(T, E):
    """The jet of every entry of T, with the module index slow: the output
    acts on E tensor V with the E coordinate owning the outer (block)
    index, so each term's coefficient is a Kronecker product.  Over the
    evaluation module (dimension 1, so order 0) only beta = 0 enters and
    m_E(e^xi) = m_E(1) = [[1]], so the jet is T itself."""
    if T.nvars != E.nvars:
        raise ValueError("arity mismatch")
    if E.dim == 1:
        return T
    R, C = T.rows, T.cols
    betas = monomials_upto(T.nvars, E.k)
    bases, mats = {}, {}  # m_E(e^xi) by xi, m_E(e^xi) m_E(X^beta) by (xi, beta)
    acc = {}
    for (freq, unit, exps), c in T.terms.items():
        if any(freq) and freq not in bases:
            bases[freq] = E.exp_action(Covector(freq))
        for beta in betas:
            if all(map(le, beta, exps)):
                m = mats.get((freq, beta))
                if m is None:  # m_E(e^0) is the identity
                    m = mats[freq, beta] = (mmul(bases[freq], E.mon_mat(beta))
                                            if freq in bases else E.mon_mat(beta))
                rows = _rows(acc, (freq, unit, tuple(map(sub, exps, beta))), E.dim * R)
                _kron_into(rows, m, c, prod(map(comb, exps, beta)))
    return T._new(E.dim * R, E.dim * C, acc)


def jet(f, E):
    """The matrix family mu -> m_E(f.translate(mu)): jet_family of [[f]]."""
    f = _as_exppoly(f)
    return jet_family(MatPolyFamily(f.nvars, [[f]]), E)


def block_derivative(F, eta):
    """Doubled-space derivative datum [[F, d_eta F],[0, F]], entry by entry:
    d_eta is diff along eta's first-order operator."""
    if F.nvars != eta.nvars:
        raise ValueError("arity mismatch")
    if not F.rows:  # a grid with no rows reads as 0 x 0
        return MatPolyFamily.zero(F.nvars, 0, 2 * F.cols)
    d_eta, zero = eta.as_diffop(), (ExpPoly.zero(F.nvars),) * F.cols
    return MatPolyFamily(F.nvars, [*(row + tuple(diff(d_eta, e) for e in row)
                                     for row in F.entries),
                                   *(zero + row for row in F.entries)])


def iterated_block_derivative(F, etas):
    """Iterated doubled-space data, outermost direction listed first."""
    for eta in reversed(list(etas)):
        F = block_derivative(F, eta)
    return F


def frobenius(H, A):
    """Pairing of a dual matrix with a Mat: the sum of entrywise products,
    one linalg.dot of their flat entries."""
    return linalg.dot(Mat.of(H).flat(), A.flat())


def functional_to_diffop(E, H):
    """The constant-coefficient operator u with H(f^(E)(mu)) = (d_u f)(mu)
    for every f: coefficients t_gamma = H(m_E(X^gamma)) / gamma!."""
    terms = {}
    for gamma in monomials_upto(E.nvars, E.k):
        val = frobenius(H, E.mon_mat(gamma))
        if val:
            terms[gamma] = val * (Scalar(1) / beta_factorial(gamma))
    return DiffOp(E.nvars, terms)


def diffop_to_module(ops):
    """A module realizing the given operators through functionals: one power
    quotient block per operator, each functional rank-one on its own block
    (row side the dual coordinates gamma! t_gamma, column side the class
    of 1)."""
    ops = list(ops)
    if not ops:
        raise ValueError("need at least one operator")
    nvars = ops[0].nvars
    blocks = []
    quots = []
    for u in ops:
        if u.nvars != nvars:
            raise ValueError("arity mismatch")
        cq = cyclic_quotient(power_ideal(nvars, u.order()))
        quots.append(cq)
        blocks.append(cq.module)
    E = direct_sum(*blocks)
    funcs = []
    off = 0
    for u, cq in zip(ops, quots):
        H = [{} for _ in range(E.dim)]
        for r, gamma in enumerate(cq.monomials):
            t = u.terms.get(gamma)
            if t:  # column `off` is the class of 1 inside this block
                H[off + r][off] = t * beta_factorial(gamma)
        funcs.append(Mat(H, E.dim))
        off += cq.module.dim
    return E, funcs


def alpha_bar_image(ps, lams):
    """Images of polynomials under the combined evaluation-and-derivative
    map: each p acting on the tensor product of the directions'
    dual-number modules, where a linear form acts by the Leibniz sum, the
    coproduct.  An image is the last column of that action, the class of 1
    in every factor, with the first factor slow; one tensor serves them
    all."""
    T = tensor(*map(dual_number_module, lams))
    return [tuple(row.get(T.dim - 1, ZERO) for row in T.act_poly(p).rows) for p in ps]


def kernel_alpha_bar(lams, d):
    """The canonical basis (a list of polynomials) of the kernel of the
    evaluation-and-derivative map in degrees <= d, computed two independent
    ways which must agree: vanishing conditions over index subsets, and
    alpha_bar_image of each monomial.  The kernel of n directions is
    generated in degree n + 1, so a bound d <= n gives only its low part."""
    lams = [lam if isinstance(lam, Vector) else Vector(lam) for lam in lams]
    if not lams:
        raise ValueError("need at least one direction")
    if d < 0:
        raise ValueError("the degree bound d must be nonnegative, got %d" % d)
    N = lams[0].nvars
    n = len(lams)
    for lam in lams:
        if lam.nvars != N:
            raise ValueError("arity mismatch")
        if lam.is_zero():
            raise ValueError("directions must be nonzero")
    space = PolySpace(N, d)
    at = space.index

    # route one: p(0) = 0 and every iterated derivative over an index subset
    # vanishes at 0; <x^m, X^beta> = m! delta_(m, beta) reads the row of the
    # operator u off its terms
    rows_a = [{at[zero_exps(N)]: ONE}]
    for l in range(1, n + 1):
        for subset in combinations(range(n), l):
            u = DiffOp.one(N)
            for j in subset:
                u = u * lams[j].as_diffop()
            rows_a.append({at[m]: c * beta_factorial(m) for m, c in u.terms.items() if m in at})

    # route two: alpha_bar_image of each monomial, one column per monomial
    images = alpha_bar_image([Polynomial.monomial(N, m) for m in space.mons], lams)
    rows_b = [{i: x for i, x in enumerate(row) if x} for row in zip(*images)]

    # each kernel is canonical: reduced rows in descending-grlex coordinates
    kernel_a, kernel_b = (SpanBasis(space.dim, SpanBasis(space.dim, rows).nullspace())
                          for rows in (rows_a, rows_b))
    if not kernel_a.same_span(kernel_b):
        raise CrossCheckError("kernel computations disagree")
    return [space.from_vec(r) for r in kernel_a.rows]


def subquotient_certified(ideal):
    """Whether the kernel for the standard direction sequence (each
    coordinate direction repeated k times, n = k*N in all) lies inside the
    ideal's image in degrees <= n."""
    N, k = ideal.nvars, ideal.k
    lams = [Vector.basis(N, j) for j in range(N) for _ in range(k)]
    if not lams:
        return True
    n = len(lams)
    space = PolySpace(N, n)
    ideal_span = ideal.image_span(n)
    return all(ideal_span.contains(space.to_vec(p)) for p in kernel_alpha_bar(lams, n))
