"""Cofinite ideals of the local ring of germs at 0, their quotient modules,
and the category of finite-dimensional modules with nilpotent action.

A cofinite ideal I is handled entirely through its polynomial trace: the
declared nilpotency degree k certifies that every monomial of degree k+1
lies in I, which the constructor verifies by reduction.  All questions about
I then happen inside the finite-dimensional space of polynomials of degree
at most k.

A FinMod is a tuple of commuting nilpotent matrices, the action of the
coordinate linear forms; the action of any polynomial (and of any germ,
through truncation) follows from that.
"""

import json

from .scalars import ZERO, ONE
from .poly import (Polynomial, DiffOp, Covector, monomials_upto,
                   monomials_of_degree, beta_factorial, zero_exps, parse_scalar,
                   exp_series)
from . import linalg
from .linalg import (SpanBasis, mmul, madd, mscale, mid, mzeros, freeze,
                     block_diag, close_span, square, dense, columns, apply)


class PolySpace:
    """Coordinates on polynomials of degree <= k.

    Coordinate order is descending graded lex, so elimination pivots on the
    highest monomial of each row and the non-pivot (standard) monomials are
    the lowest ones outside the ideal, which makes quotient bases canonical.
    """

    def __init__(self, nvars, k):
        self.nvars = nvars
        self.k = k
        self.mons_asc = monomials_upto(nvars, k)
        self.mons = list(reversed(self.mons_asc))
        self.index = {m: i for i, m in enumerate(self.mons)}
        self.dim = len(self.mons)

    def to_vec(self, p):
        if p.degree() > self.k:
            raise ValueError("degree %d exceeds the space bound %d" % (p.degree(), self.k))
        v = [ZERO] * self.dim
        for e, c in p.terms.items():
            v[self.index[e]] = c
        return v

    def from_vec(self, v):
        return Polynomial(self.nvars, {m: c for m, c in zip(self.mons, v) if c})


class CofiniteIdeal:
    """Ideal of germs given by polynomial generators plus a certified k with
    every degree-(k+1) monomial inside the ideal.

    Membership and normal forms reduce against the row-reduced image of the
    ideal in degrees <= k.  A generator with nonzero constant term makes
    this the unit ideal (codimension 0).
    """

    def __init__(self, nvars, k, generators):
        if k < 0:
            raise ValueError("nilpotency degree must be >= 0")
        gens = []
        for g in generators:
            if g.nvars != nvars:
                raise ValueError("generator arity mismatch")
            if g:
                gens.append(g)
        self.nvars = nvars
        self.k = k
        self.generators = tuple(gens)
        self.space = PolySpace(nvars, k)
        self.span = self.image_span(k)
        self._verify_power_containment()
        pivots = set(self.span.pivots)
        self.standard_monomials = [m for m in self.space.mons_asc
                                   if self.space.index[m] not in pivots]

    def image_span(self, bound):
        """Row space of the ideal inside degrees <= bound."""
        space = self.space if bound == self.k else PolySpace(self.nvars, bound)
        sb = SpanBasis(space.dim)
        for g in self.generators:
            low = min((sum(e) for e in g.terms), default=0)
            for m in monomials_upto(self.nvars, max(bound - low, 0)):
                prod = (g * Polynomial.monomial(self.nvars, m)).truncate(bound)
                if prod:
                    sb.add(space.to_vec(prod))
        return sb

    def _verify_power_containment(self):
        """Every degree-(k+1) monomial must reduce to zero against the ideal
        image inside degrees <= k+1; this certifies the declared k."""
        if any(e == zero_exps(self.nvars) for g in self.generators for e in g.terms):
            return  # unit ideal, contains everything
        space1 = PolySpace(self.nvars, self.k + 1)
        sb = self.image_span(self.k + 1)
        for m in monomials_of_degree(self.nvars, self.k + 1):
            if not sb.contains(space1.to_vec(Polynomial.monomial(self.nvars, m))):
                raise ValueError(
                    "degree-%d monomial %r does not reduce to 0: "
                    "the declared nilpotency degree k=%d is not certified"
                    % (self.k + 1, m, self.k))

    @property
    def codim(self):
        return len(self.standard_monomials)

    def normal_form(self, p):
        """Canonical representative of p mod the ideal, supported on the
        standard monomials.  Degrees above k are inside the ideal."""
        if p.nvars != self.nvars:
            raise ValueError("arity mismatch")
        v = self.space.to_vec(p.truncate(self.k))
        return self.space.from_vec(dense(self.span._reduce(v), self.space.dim))

    def contains(self, p):
        return not self.normal_form(p)

    def reduced_basis(self):
        """The row-reduced polynomial basis of the ideal image in degrees <= k."""
        return [self.space.from_vec(r) for r in self.span.frozen_rows()]

    def same(self, other):
        """Equality as ideals with the same certified k."""
        return (self.nvars == other.nvars and self.k == other.k
                and self.span.same_span(other.span))

    def __repr__(self):
        return "CofiniteIdeal(nvars=%d, k=%d, codim=%d)" % (self.nvars, self.k, self.codim)


def power_ideal(nvars, k):
    """The (k+1)-st power of the maximal ideal, as a CofiniteIdeal."""
    gens = [Polynomial.monomial(nvars, m) for m in monomials_of_degree(nvars, k + 1)]
    return CofiniteIdeal(nvars, k, gens)


def maximal_ideal(nvars):
    return CofiniteIdeal(nvars, 0, [Polynomial.variable(nvars, j) for j in range(nvars)])


def dual_number_ideal(lam):
    """The codimension-2 ideal of germs whose value and directional
    derivative along lam both vanish at 0.  Needs lam != 0."""
    if lam.is_zero():
        raise ValueError("the direction must be nonzero")
    nvars = lam.nvars
    gens = []
    # linear forms vanishing on lam: solve <coords, lam> = 0
    rows = [[c for c in lam.coords]]
    for v in linalg.nullspace(rows, nvars):
        gens.append(Covector(v).as_polynomial())
    gens.extend(Polynomial.monomial(nvars, m) for m in monomials_of_degree(nvars, 2))
    return CofiniteIdeal(nvars, 1, gens)


class FinMod:
    """Finite-dimensional module over the germ ring: commuting matrices
    M_1..M_N (action of the coordinate linear forms) with every product of
    k+1 of them equal to zero."""

    __slots__ = ("nvars", "k", "dim", "mats", "_moncache")

    def __init__(self, nvars, k, mats, check=True):
        mats = tuple(freeze(m) for m in mats)
        if len(mats) != nvars:
            raise ValueError("need one action matrix per variable")
        dim = len(mats[0]) if nvars else 0
        for m in mats:
            if len(m) != dim or any(len(r) != dim for r in m):
                raise ValueError("action matrices must be square of equal size")
        self.nvars = nvars
        self.k = k
        self.dim = dim
        self.mats = mats
        self._moncache = {zero_exps(nvars): mid(dim)}
        if check:
            self.validate()

    def validate(self):
        for i in range(self.nvars):
            for j in range(i + 1, self.nvars):
                if mmul(self.mats[i], self.mats[j]) != mmul(self.mats[j], self.mats[i]):
                    raise ValueError("action matrices %d and %d do not commute" % (i + 1, j + 1))
        for beta in monomials_of_degree(self.nvars, self.k + 1):
            if not linalg.mat_is_zero(self._raw_mon_mat(beta)):
                raise ValueError("monomial %r of degree k+1=%d does not act by zero"
                                 % (beta, self.k + 1))

    def _raw_mon_mat(self, beta):
        cached = self._moncache.get(beta)
        if cached is not None:
            return cached
        for j, b in enumerate(beta):
            if b:
                prev = beta[:j] + (b - 1,) + beta[j + 1:]
                out = mmul(self.mats[j], self._raw_mon_mat(prev))
                break
        self._moncache[beta] = out
        return out

    def mon_mat(self, beta):
        """Action of the monomial with exponents beta."""
        if sum(beta) > self.k:
            return mzeros(self.dim, self.dim)
        return self._raw_mon_mat(beta)

    def act_poly(self, p):
        """m_E(p), the action of a polynomial."""
        if p.nvars != self.nvars:
            raise ValueError("arity mismatch")
        out = mzeros(self.dim, self.dim)
        for e, c in p.terms.items():
            if sum(e) <= self.k:
                out = madd(out, mscale(self.mon_mat(e), c))
        return out

    def exp_action(self, xi):
        """Action of the germ e^xi: m_E of its exponential series, which
        the nilpotent action cuts off after degree k."""
        return self.act_poly(exp_series(xi, self.k))

    def __eq__(self, other):
        if not isinstance(other, FinMod):
            return NotImplemented
        return (self.nvars == other.nvars and self.k == other.k
                and self.mats == other.mats)

    def __hash__(self):
        return hash((self.nvars, self.k, self.mats))

    def __repr__(self):
        return "FinMod(nvars=%d, k=%d, dim=%d)" % (self.nvars, self.k, self.dim)

    def to_json(self):
        return json.dumps({
            "nvars": self.nvars,
            "k": self.k,
            "dim": self.dim,
            "action": [[c.json_str() for row in m for c in row] for m in self.mats],
        })

    @classmethod
    def from_json(cls, text):
        data = json.loads(text)
        nvars, k, dim = data["nvars"], data["k"], data["dim"]
        mats = [square(flat, dim, parse_scalar, "action matrix %d" % t)
                for t, flat in enumerate(data["action"])]
        return cls(nvars, k, mats)


class ModuleMap:
    """Linear map between FinMods that intertwines the actions."""

    __slots__ = ("source", "target", "matrix")

    def __init__(self, source, target, matrix, check=True):
        matrix = freeze(matrix)
        if len(matrix) != target.dim or (matrix and any(len(r) != source.dim for r in matrix)):
            raise ValueError("matrix shape must be target.dim x source.dim")
        if target.dim and not matrix:
            raise ValueError("matrix shape must be target.dim x source.dim")
        self.source = source
        self.target = target
        self.matrix = matrix
        if check:
            self.validate()

    def validate(self):
        for j in range(self.source.nvars):
            left = mmul(self.matrix, self.source.mats[j])
            right = mmul(self.target.mats[j], self.matrix)
            if left != right:
                raise ValueError("map does not intertwine the action of variable %d" % (j + 1))

    def __call__(self, v):
        return linalg.mat_vec(self.matrix, v)

    def is_invertible(self):
        return self.source.dim == self.target.dim and linalg.rank(list(map(list, self.matrix))) == self.source.dim


class CyclicQuotient:
    """Quotient by a cofinite ideal: module, distinguished cyclic vector
    (the class of 1), and the standard-monomial basis labels."""

    __slots__ = ("module", "cyclic", "monomials", "ideal")

    def __init__(self, module, cyclic, monomials, ideal):
        self.module = module
        self.cyclic = cyclic
        self.monomials = monomials
        self.ideal = ideal

    def project_poly(self, p):
        """Coordinates of the class of p in the standard-monomial basis."""
        nf = self.ideal.normal_form(p)
        return tuple(nf.terms.get(m, ZERO) for m in self.monomials)


def cyclic_quotient(ideal):
    """The module of germs modulo the ideal, acted on by multiplication
    followed by normal form; the class of 1 is a cyclic vector."""
    mons = ideal.standard_monomials
    index = {m: t for t, m in enumerate(mons)}
    d = len(mons)
    mats = []
    for j in range(ideal.nvars):
        cols = []
        for m in mons:
            e = list(m)
            e[j] += 1
            e = tuple(e)
            if sum(e) > ideal.k:
                cols.append((ZERO,) * d)
            else:
                nf = ideal.normal_form(Polynomial.monomial(ideal.nvars, e))
                cols.append(tuple(nf.terms.get(mm, ZERO) for mm in mons))
        mats.append(tuple(tuple(cols[c][r] for c in range(d)) for r in range(d)))
    module = FinMod(ideal.nvars, ideal.k, mats, check=False)
    one = zero_exps(ideal.nvars)
    cyclic = tuple(ONE if m == one else ZERO for m in mons)
    return CyclicQuotient(module, cyclic, tuple(mons), ideal)


def dual_number_module(lam):
    """Two-dimensional module with basis (class of 1, class of X) where the
    direction X is normalized against lam; a linear form xi acts by
    [[0, xi(lam)], [0, 0]] and a general germ phi by
    [[phi(0), d_lam phi(0)], [0, phi(0)]]."""
    if lam.is_zero():
        raise ValueError("the direction must be nonzero")
    nvars = lam.nvars
    mats = []
    for j in range(nvars):
        c = lam.coords[j]
        mats.append(((ZERO, c), (ZERO, ZERO)))
    return FinMod(nvars, 1, mats, check=False)


def annihilator_dual(ideal):
    """Basis of the operators of order <= k annihilating the ideal under the
    pairing <p, u> = (d_u p)(0); its size equals the codimension."""
    nvars, k = ideal.nvars, ideal.k
    gammas = monomials_upto(nvars, k)
    facts = [beta_factorial(g) for g in gammas]
    rows = []
    for row in ideal.span.frozen_rows():
        p = ideal.space.from_vec(row)
        rows.append([p.terms.get(g, ZERO) * facts[t] for t, g in enumerate(gammas)])
    basis = []
    for v in linalg.nullspace(rows, len(gammas)):
        basis.append(DiffOp(nvars, {g: c for g, c in zip(gammas, v) if c}))
    return basis


def direct_sum(*mods):
    if not mods:
        raise ValueError("direct sum of nothing")
    nvars = mods[0].nvars
    if any(m.nvars != nvars for m in mods):
        raise ValueError("arity mismatch in direct sum")
    k = max(m.k for m in mods)
    mats = [block_diag([m.mats[j] for m in mods]) for j in range(nvars)]
    return FinMod(nvars, k, mats, check=False)


def _kron(a, b):
    ra, rb = len(a), len(b)
    out = []
    for i1 in range(ra):
        for i2 in range(rb):
            row = []
            for j1 in range(ra):
                x = a[i1][j1]
                if x:
                    row.extend(x * y for y in b[i2])
                else:
                    row.extend([ZERO] * rb)
            out.append(tuple(row))
    return tuple(out)


def tensor(*mods):
    """Tensor product module; a linear form acts by the Leibniz sum of the
    factor actions.  The first factor owns the slow index, so iterating
    pairwise from the left gives literally the same matrices."""
    if not mods:
        raise ValueError("tensor product of nothing")
    nvars = mods[0].nvars
    if any(m.nvars != nvars for m in mods):
        raise ValueError("arity mismatch in tensor product")
    acc = mods[0]
    for nxt in mods[1:]:
        mats = []
        for j in range(nvars):
            left = _kron(acc.mats[j], mid(nxt.dim))
            right = _kron(mid(acc.dim), nxt.mats[j])
            mats.append(madd(left, right))
        acc = FinMod(nvars, acc.k + nxt.k + 1, mats, check=False)
    return acc


class Submodule:
    __slots__ = ("module", "inclusion", "span")

    def __init__(self, module, inclusion, span):
        self.module = module
        self.inclusion = inclusion
        self.span = span


def submodule_generated(E, vectors):
    """Smallest action-invariant subspace containing the vectors, with the
    inclusion map: the span of the vectors closed under the action
    generators."""
    mcols = [columns(m) for m in E.mats]
    sb = close_span(SpanBasis(E.dim), vectors,
                    lambda v: [apply(c, v, E.dim) for c in mcols])
    basis = sb.frozen_rows()
    d = len(basis)
    mats = []
    for mc in mcols:
        cols = [sb.coords(apply(mc, b, E.dim)) for b in sb.rows]
        mats.append(tuple(tuple(cols[c][r] for c in range(d)) for r in range(d)))
    sub = FinMod(E.nvars, E.k, mats, check=False)
    incl = ModuleMap(sub, E, tuple(tuple(basis[c][r] for c in range(d)) for r in range(E.dim)),
                     check=False)
    return Submodule(sub, incl, sb)


def quotient_module(E, sub):
    """Quotient by an invariant subspace, with the projection map.  The
    complement basis is the set of coordinates without a pivot."""
    if isinstance(sub, Submodule):
        sb = sub.span
    elif isinstance(sub, SpanBasis):
        sb = sub
    else:
        sb = SpanBasis(E.dim, sub)
    mcols = [columns(m) for m in E.mats]
    for row in sb.rows:
        for mc in mcols:
            if not sb.contains(apply(mc, row, E.dim)):
                raise ValueError("subspace is not invariant under the action")
    pivots = set(sb.pivots)
    comp = [t for t in range(E.dim) if t not in pivots]
    d = len(comp)

    def project(v):
        res = sb._reduce(v)
        return tuple(res.get(t, ZERO) for t in comp)

    mats = []
    for mc in mcols:
        cols = [project(apply(mc, {t: ONE}, E.dim)) for t in comp]
        mats.append(tuple(tuple(cols[c][r] for c in range(d)) for r in range(d)))
    quot = FinMod(E.nvars, E.k, mats, check=False)
    proj_rows = [project({t: ONE}) for t in range(E.dim)]
    proj = ModuleMap(E, quot, tuple(tuple(proj_rows[c][r] for c in range(E.dim))
                                    for r in range(d)), check=False)
    return quot, proj


def annihilator(E):
    """Polynomial trace of the annihilator of the module, as a CofiniteIdeal
    with the module's k."""
    nvars, k = E.nvars, E.k
    gammas = monomials_upto(nvars, k)
    rows = []
    for g in gammas:
        rows.append(list(linalg.flatten(E.mon_mat(g))))
    cols = E.dim * E.dim
    # solve sum_g c_g * mat(g) = 0: kernel of the transposed coefficient matrix
    mat = [[rows[t][j] for t in range(len(gammas))] for j in range(cols)]
    gens = []
    for v in linalg.nullspace(mat, len(gammas)):
        gens.append(Polynomial(nvars, {g: c for g, c in zip(gammas, v) if c}))
    gens.extend(Polynomial.monomial(nvars, m) for m in monomials_of_degree(nvars, k + 1))
    return CofiniteIdeal(nvars, k, gens)
