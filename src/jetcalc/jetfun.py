"""Jets of exponential-polynomial families with values in a finite module.

The central map sends a scalar family f and a module E to the matrix family
f^(E)(mu) = m_E(translate(f, mu)): the action of the translated germ.  It is
computed once and for all by the closed Taylor formula

    f^(E) = sum_beta (d^beta f)/beta! . m_E(X^beta),

with an extra factor m_E(e^xi) and a frequency tag for exponential summands.
jet builds the family symbolically; jet_at reads the same terms at one
point mu, evaluating each coefficient (d^beta f)(mu)/beta! and unit first,
so it forms no family.  The block assemblies of the family layer
(PiAssembly letters and assemble_phi) read jets only at their block points,
through jet_family_at.

Everything downstream (doubled-space derivative data, the correspondence
between functionals on End(E) and constant-coefficient operators, kernels of
the evaluation-and-derivative maps) reduces to this one map plus exact
linear algebra.
"""

from itertools import combinations
from math import comb, prod

from .scalars import Scalar, ExpScalar, ZERO, ONE, EXP_ZERO
from .poly import (Polynomial, ExpPoly, Covector, Vector, DiffOp, diff,
                   translate, coproduct, pairing, monomials_upto,
                   beta_factorial, zero_exps, exp_series)
from . import linalg
from .linalg import SpanBasis, CrossCheckError, mmul
from .localmod import (PolySpace, cyclic_quotient, dual_number_module,
                       power_ideal, direct_sum)


class MatPolyFamily:
    """Matrix whose entries are exponential-polynomial functions of the
    parameter; evaluation at an exact point gives an exact matrix."""

    __slots__ = ("nvars", "rows", "cols", "entries")

    def __init__(self, nvars, entries):
        entries = tuple(tuple(e for e in row) for row in entries)
        rows = len(entries)
        cols = len(entries[0]) if rows else 0
        for row in entries:
            if len(row) != cols:
                raise ValueError("ragged matrix")
            for e in row:
                if e.nvars != nvars:
                    raise ValueError("entry arity mismatch")
        self.nvars = nvars
        self.rows = rows
        self.cols = cols
        self.entries = entries

    @classmethod
    def zero(cls, nvars, rows, cols):
        z = ExpPoly.zero(nvars)
        return cls(nvars, [[z] * cols for _ in range(rows)])

    @classmethod
    def identity(cls, nvars, n):
        one = ExpPoly.const(nvars, ONE)
        z = ExpPoly.zero(nvars)
        return cls(nvars, [[one if i == j else z for j in range(n)] for i in range(n)])

    @classmethod
    def from_scalars(cls, nvars, mat):
        return cls(nvars, [[ExpPoly.const(nvars, Scalar(c) if not isinstance(c, Scalar) else c)
                            for c in row] for row in mat])

    @classmethod
    def from_polys(cls, mat):
        nvars = mat[0][0].nvars
        return cls(nvars, [[p if isinstance(p, ExpPoly) else ExpPoly.from_poly(p)
                            for p in row] for row in mat])

    def entry(self, r, c):
        return self.entries[r][c]

    def __eq__(self, other):
        if not isinstance(other, MatPolyFamily):
            return NotImplemented
        return (self.nvars == other.nvars and self.entries == other.entries)

    def __add__(self, other):
        if self.rows != other.rows or self.cols != other.cols:
            raise ValueError("shape mismatch")
        return MatPolyFamily(self.nvars, [[a + b for a, b in zip(ra, rb)]
                                          for ra, rb in zip(self.entries, other.entries)])

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return MatPolyFamily(self.nvars, [[-e for e in row] for row in self.entries])

    def scaled(self, s):
        """Entrywise multiplication by a scalar family (or plain scalar)."""
        return MatPolyFamily(self.nvars, [[e * s for e in row] for row in self.entries])

    def __mul__(self, other):
        if not isinstance(other, MatPolyFamily):
            return self.scaled(other)
        if self.cols != other.rows:
            raise ValueError("inner dimensions %d and %d do not match"
                             % (self.cols, other.rows))
        z = ExpPoly.zero(self.nvars)
        out = []
        for i in range(self.rows):
            row = []
            for j in range(other.cols):
                acc = z
                for t in range(self.cols):
                    e = self.entries[i][t]
                    if e:
                        f = other.entries[t][j]
                        if f:
                            acc = acc + e * f
                row.append(acc)
            out.append(row)
        return MatPolyFamily(self.nvars, out)

    def is_zero(self):
        return all(not e for row in self.entries for e in row)

    def evaluate(self, point):
        """Exact evaluation; entries become formal-exponential scalars."""
        return tuple(tuple(e.evaluate(point) for e in row) for row in self.entries)

    def evaluate_scalar(self, point):
        """Evaluation of a family whose value is an honest scalar matrix;
        raises if a nontrivial formal exponential survives."""
        return tuple(tuple(e.evaluate(point).scalar() for e in row) for row in self.entries)

    def block(self, r0, c0, rows, cols):
        return MatPolyFamily(self.nvars, [row[c0:c0 + cols]
                                          for row in self.entries[r0:r0 + rows]])

    def __str__(self):
        lines = []
        for row in self.entries:
            lines.append("[" + "; ".join(str(e) for e in row) + "]")
        return "[" + ", ".join(lines) + "]"

    def __repr__(self):
        return "MatPolyFamily(nvars=%d, %dx%d)" % (self.nvars, self.rows, self.cols)


def _as_exppoly(f, nvars=None):
    if isinstance(f, ExpPoly):
        return f
    if isinstance(f, Polynomial):
        return ExpPoly.from_poly(f)
    raise TypeError("expected a polynomial or exponential-polynomial")


def _taylor_coeff(p, beta):
    """(d^beta p)/beta!, read off term by term: x^e goes to
    binom(e, beta) x^(e - beta)."""
    if not any(beta):
        return p
    return Polynomial(p.nvars, {
        tuple(a - b for a, b in zip(e, beta)): c * prod(map(comb, e, beta))
        for e, c in p.terms.items() if all(a >= b for a, b in zip(e, beta))})


def _taylor_terms(f, E):
    """The terms of the Taylor formula for f^(E): for each summand
    E[unit] e^xi p of f and each beta through E's order, the tuple
    (freq, unit, q, mat) with q = (d^beta p)/beta! (zero q skipped) and
    mat = m_E(e^xi) m_E(X^beta).  The term's value at mu is
    E[unit + xi(mu)] q(mu) mat."""
    f = _as_exppoly(f)
    if f.nvars != E.nvars:
        raise ValueError("arity mismatch")
    betas = monomials_upto(f.nvars, E.k)
    for (freq, unit), p in f.summands.items():
        # m_E(e^0) is the identity
        base = E.exp_action(Covector(freq)) if any(freq) else None
        for beta in betas:
            q = _taylor_coeff(p, beta)
            if q:
                mat = E.mon_mat(beta)
                yield freq, unit, q, (mat if base is None else mmul(base, mat))


def jet(f, E):
    """The matrix family mu -> m_E(translate(f, mu))."""
    out = [[ExpPoly.zero(E.nvars)] * E.dim for _ in range(E.dim)]
    for freq, unit, q, mat in _taylor_terms(f, E):
        coeff = ExpPoly.exp(freq, q, unit)
        for r, row in enumerate(mat):
            for c, x in enumerate(row):
                if x:
                    out[r][c] = out[r][c] + coeff * x
    return MatPolyFamily(E.nvars, out)


def jet_at(f, E, point):
    """f^(E) at one point, equal to jet(f, E).evaluate(point): each Taylor
    coefficient q(point) and unit is evaluated first, so no family is
    formed.  Entries are formal-exponential scalars."""
    coords = point.coords if isinstance(point, Vector) else tuple(point)
    out = [[EXP_ZERO] * E.dim for _ in range(E.dim)]
    for freq, unit, q, mat in _taylor_terms(f, E):
        v = q.evaluate(coords)
        shift = unit + sum((a * b for a, b in zip(freq, coords)), ZERO)
        for r, row in enumerate(mat):
            for c, x in enumerate(row):
                if x:
                    out[r][c] = out[r][c] + ExpScalar.unit(shift, v * x)
    return tuple(tuple(row) for row in out)


def jet_ideal(f, ideal, mu):
    """Class of the translated germ in the quotient by the ideal:
    coordinates over the standard monomials, as formal-exponential scalars."""
    f = _as_exppoly(f)
    if f.nvars != ideal.nvars:
        raise ValueError("arity mismatch")
    g = translate(f, mu)
    coords = [EXP_ZERO] * ideal.codim
    for (freq, unit), p in g.summands.items():
        xi = Covector(freq)
        q = (exp_series(xi, ideal.k) * p).truncate(ideal.k)
        nf = ideal.normal_form(q)
        tag = ExpScalar.unit(unit)
        for t, m in enumerate(ideal.standard_monomials):
            c = nf.terms.get(m)
            if c:
                coords[t] = coords[t] + tag * c
    return tuple(coords)


def _e_slow(jets, d):
    """One matrix from a grid of d x d blocks, jets[rV][cV], with the module
    index slow: entry (rE, rV), (cE, cV) is jets[rV][cV][rE][cE]."""
    return [[jrow[cV][rE][cE] for cE in range(d) for cV in range(len(jrow))]
            for rE in range(d) for jrow in jets]


def jet_family(T, E):
    """Entrywise jet, reassembled with the module index slow: the output acts
    on E tensor V with the E coordinate owning the outer (block) index."""
    if T.nvars != E.nvars:
        raise ValueError("arity mismatch")
    return MatPolyFamily(T.nvars, _e_slow(
        [[jet(e, E).entries for e in row] for row in T.entries], E.dim))


def jet_family_at(T, E, point):
    """jet_family(T, E).evaluate_scalar(point), formed entry by entry with
    jet_at; raises the same ValueError when a formal unit survives."""
    if T.nvars != E.nvars:
        raise ValueError("arity mismatch")
    return tuple(tuple(x.scalar() for x in row) for row in _e_slow(
        [[jet_at(e, E, point) for e in row] for row in T.entries], E.dim))


def block_derivative(F, eta):
    """Doubled-space derivative datum [[F, d_eta F],[0, F]]."""
    if F.nvars != eta.nvars:
        raise ValueError("arity mismatch")
    u = eta.as_diffop()
    dF = MatPolyFamily(F.nvars, [[diff(u, e) for e in row] for row in F.entries])
    z = ExpPoly.zero(F.nvars)
    out = []
    for r in range(F.rows):
        out.append(list(F.entries[r]) + list(dF.entries[r]))
    for r in range(F.rows):
        out.append([z] * F.cols + list(F.entries[r]))
    return MatPolyFamily(F.nvars, out)


def iterated_block_derivative(F, etas):
    """Iterated doubled-space data, outermost direction listed first."""
    for eta in reversed(list(etas)):
        F = block_derivative(F, eta)
    return F


def frobenius(H, A):
    """Pairing of a dual matrix with a matrix: sum of entrywise products."""
    acc = None
    for hr, ar in zip(H, A):
        for h, a in zip(hr, ar):
            if h:
                term = a * h
                acc = term if acc is None else acc + term
    if acc is None:
        return ZERO
    return acc


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
        d = cq.module.dim
        H = [[ZERO] * E.dim for _ in range(E.dim)]
        col = off  # index of the class of 1 inside this block
        for r, gamma in enumerate(cq.monomials):
            t = u.terms.get(gamma)
            if t:
                H[off + r][col] = t * beta_factorial(gamma)
        funcs.append(tuple(tuple(row) for row in H))
        off += d
    return E, funcs


def alpha_bar_image(p, lams):
    """Image of a polynomial under the combined evaluation-and-derivative
    map: coproduct into n blocks, then the dual-number class in each factor,
    tensored with the first factor slow."""
    n = len(lams)
    N = p.nvars
    if n == 0:
        return (p.terms.get(zero_exps(N), ZERO),)
    mods = [dual_number_module(lam) for lam in lams]
    # per-factor cache: class of X^beta = action applied to the class of 1,
    # which sits at index 1 of the dual-number basis
    cols = [{} for _ in mods]
    out = [ZERO] * (2 ** n)
    cp = coproduct(p, n)
    for e, c in cp.terms.items():
        acc = [c]
        for j in range(n):
            beta = e[j * N:(j + 1) * N]
            cache = cols[j]
            v = cache.get(beta)
            if v is None:
                mat = mods[j].mon_mat(beta)
                v = (mat[0][1], mat[1][1])
                cache[beta] = v
            acc = [a * x for a in acc for x in v]
        for t in range(len(out)):
            if acc[t]:
                out[t] = out[t] + acc[t]
    return tuple(out)


class KernelResult:
    """Canonical basis of the kernel through the degree bound, with a flag
    for bounds too small to capture the generating degree."""

    __slots__ = ("lams", "degree_bound", "basis", "partial")

    def __init__(self, lams, degree_bound, basis, partial):
        self.lams = lams
        self.degree_bound = degree_bound
        self.basis = basis
        self.partial = partial

    def __repr__(self):
        return ("KernelResult(n=%d, d=%d, dim=%d%s)"
                % (len(self.lams), self.degree_bound, len(self.basis),
                   ", partial" if self.partial else ""))


def kernel_alpha_bar(lams, d):
    """Kernel of the evaluation-and-derivative map inside degrees <= d,
    computed two independent ways (vanishing conditions over index subsets,
    and the coproduct route) which must agree."""
    lams = [lam if isinstance(lam, Vector) else Vector(lam) for lam in lams]
    if not lams:
        raise ValueError("need at least one direction")
    N = lams[0].nvars
    n = len(lams)
    for lam in lams:
        if lam.nvars != N:
            raise ValueError("arity mismatch")
        if lam.is_zero():
            raise ValueError("directions must be nonzero")
    space = PolySpace(N, d)
    mons = space.mons_asc

    # route one: p(0) = 0 and every iterated derivative over an index subset
    # vanishes at 0
    rows_a = []
    const_row = [ZERO] * len(mons)
    const_row[mons.index(zero_exps(N))] = ONE
    rows_a.append(const_row)
    for l in range(1, n + 1):
        for subset in combinations(range(n), l):
            u = DiffOp.one(N)
            for j in subset:
                u = u * lams[j].as_diffop()
            row = []
            for m in mons:
                row.append(pairing(Polynomial.monomial(N, m), u).scalar())
            rows_a.append(row)
    basis_a = linalg.nullspace(rows_a, len(mons))

    # route two: kernel of the coproduct-then-classes map
    images = [alpha_bar_image(Polynomial.monomial(N, m), lams) for m in mons]
    rows_b = [[images[s][t] for s in range(len(mons))] for t in range(2 ** n)]
    basis_b = linalg.nullspace(rows_b, len(mons))

    sa = SpanBasis(len(mons))
    for v in basis_a:
        sa.add(v)
    sb = SpanBasis(len(mons))
    for v in basis_b:
        sb.add(v)
    if not sa.same_span(sb):
        raise CrossCheckError("kernel computations disagree")

    # canonical output: reduced rows in descending-grlex coordinates
    canon = SpanBasis(space.dim)
    for v in basis_a:
        w = [ZERO] * space.dim
        for c, m in zip(v, mons):
            if c:
                w[space.index[m]] = c
        canon.add(w)
    basis = [space.from_vec(r) for r in canon.frozen_rows()]
    return KernelResult(tuple(lams), d, basis, d < n + 1)


class SubquotientResult:
    """Direction sequence for a cofinite ideal together with the containment
    certificate: the kernel of the associated map lies inside the ideal's
    image in degrees <= n."""

    __slots__ = ("lams", "kernel", "certified")

    def __init__(self, lams, kernel, certified):
        self.lams = lams
        self.kernel = kernel
        self.certified = certified


def subquotient_lambdas(ideal):
    """The standard direction sequence (each coordinate direction repeated k
    times, n = k*N total) and the certificate for it."""
    N, k = ideal.nvars, ideal.k
    lams = []
    for j in range(N):
        lams.extend([Vector.basis(N, j)] * k)
    if not lams:
        return SubquotientResult((), None, True)
    n = len(lams)
    kr = kernel_alpha_bar(lams, n)
    space = PolySpace(N, n)
    ideal_span = ideal.image_span(n)
    ok = all(ideal_span.contains(space.to_vec(p)) for p in kr.basis)
    return SubquotientResult(tuple(lams), kr, ok)
