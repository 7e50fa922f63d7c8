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

from .scalars import ONE
from .poly import (Polynomial, Covector, monomials_upto, monomials_of_degree,
                   zero_exps, scalar_parser, exp_series)
from .linalg import (Mat, SpanBasis, mmul, mid, mat_sum, block_diag, kron,
                     close_span, square, dense, json_field, json_load)

# The size ceilings: MAX_NVARS and MAX_DIM bound the CLI's --nmax and
# --dimmax and what every loader reads; MAX_ORDER, FinMod.from_json's k, lies
# above the 11 that tensor products reach at --kmax 4.  Validating a FinMod
# then costs at most C(nvars + dim - 1, dim) matrix products
MAX_NVARS, MAX_ORDER, MAX_DIM = 3, 16, 12


class PolySpace:
    """Coordinates on polynomials of degree <= k.

    Coordinate order is descending graded lex, so elimination pivots on the
    highest monomial of each row and the non-pivot (standard) monomials are
    the lowest ones outside the ideal, which makes quotient bases canonical.
    A polynomial's vector is the zero-free dict {coordinate: coefficient},
    and `shifts[j]` is the Mat of multiplying by x_j and truncating.
    """

    def __init__(self, nvars, k):
        self.nvars = nvars
        self.k = k
        self.mons_asc = monomials_upto(nvars, k)
        self.mons = list(reversed(self.mons_asc))
        self.index = {m: i for i, m in enumerate(self.mons)}
        self.dim = len(self.mons)
        # row m of shifts[j]: a 1 at the column of m / x_j
        self.shifts = [Mat([{self.index[m[:j] + (m[j] - 1,) + m[j + 1:]]: ONE} if m[j] else {}
                            for m in self.mons], self.dim) for j in range(nvars)]

    def to_vec(self, p):
        if p.degree() > self.k:
            raise ValueError("degree %d exceeds the space bound %d" % (p.degree(), self.k))
        return {self.index[e]: c for e, c in p.terms.items()}

    def from_vec(self, v):
        return Polynomial(self.nvars, {self.mons[i]: c for i, c in v.items()})


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
        # one closure, at k + 1; its first coordinates are the degree-(k+1)
        # monomials, highest first, and each must lie in the span, which
        # certifies k.  They are then echelon rows of their own, and the
        # other rows, shifted back by their count, are the image in degrees
        # <= k: truncation commutes with the shifts, and RREF is unique
        top = monomials_of_degree(nvars, k + 1)
        c, span = len(top), self.image_span(k + 1)
        for t, m in enumerate(top):
            if not span.contains({c - 1 - t: ONE}):  # m's coordinate
                raise ValueError(
                    "degree-%d monomial %r does not reduce to 0: "
                    "the declared nilpotency degree k=%d is not certified"
                    % (k + 1, m, k))
        self.span = SpanBasis(self.space.dim, [{j - c: x for j, x in row.items()}
                                               for row in span.rows[c:]])
        pivots = set(self.span.pivots)
        self.standard_monomials = [m for m in self.space.mons_asc
                                   if self.space.index[m] not in pivots]

    def image_span(self, bound):
        """Row space of the ideal inside degrees <= bound: the truncated
        generators closed under the variable shifts, since truncating
        commutes with multiplying by a variable."""
        space = PolySpace(self.nvars, bound)
        return close_span(space.dim, [space.to_vec(g.truncate(bound))
                                      for g in self.generators], space.shifts)

    @property
    def codim(self):
        return len(self.standard_monomials)

    def normal_form(self, p):
        """Canonical representative of p mod the ideal, supported on the
        standard monomials.  Degrees above k are inside the ideal."""
        if p.nvars != self.nvars:
            raise ValueError("arity mismatch")
        v = self.space.to_vec(p.truncate(self.k))
        return self.space.from_vec(self.span._reduce(v))

    def contains(self, p):
        return not self.normal_form(p)

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
    # linear forms vanishing on lam: solve <coords, lam> = 0
    gens = [Covector(dense(v, nvars)).as_polynomial()
            for v in SpanBasis(nvars, [lam.coords]).nullspace()]
    gens.extend(Polynomial.monomial(nvars, m) for m in monomials_of_degree(nvars, 2))
    return CofiniteIdeal(nvars, 1, gens)


class FinMod:
    """Finite-dimensional module over the germ ring: commuting matrices
    M_1..M_N (action of the coordinate linear forms, as Mats) with every
    product of k+1 of them equal to zero."""

    __slots__ = ("nvars", "k", "dim", "mats", "_moncache")

    def __init__(self, nvars, k, mats, check=True):
        mats = tuple(map(Mat.of, mats))
        if len(mats) != nvars:
            raise ValueError("need one action matrix per variable")
        dim = mats[0].nrows if nvars else 0
        if any(m.nrows != dim or m.ncols != dim for m in mats):
            raise ValueError("action matrices must be square of equal size")
        self.nvars = nvars
        self.k = k
        self.dim = dim
        self.mats = mats
        self._moncache = {zero_exps(nvars): mid(dim)}
        if check:
            self.validate()

    def validate(self):
        """The matrices commute and every product of k+1 of them is 0.
        Commuting nilpotent d x d matrices generate a nilpotent algebra, so
        it is decided in degree min(k, d-1)+1."""
        for i in range(self.nvars):
            for j in range(i + 1, self.nvars):
                if mmul(self.mats[i], self.mats[j]) != mmul(self.mats[j], self.mats[i]):
                    raise ValueError("action matrices %d and %d do not commute" % (i + 1, j + 1))
        deg = min(self.k, self.dim - 1) + 1
        for beta in monomials_of_degree(self.nvars, deg):
            if any(self._raw_mon_mat(beta).rows):
                raise ValueError("monomial %r of degree %d does not act by zero, "
                                 "so the order is not k=%d" % (beta, deg, self.k))

    def _raw_mon_mat(self, beta):
        """The matrix of beta, peeling first-variable factors to a cached one."""
        peeled = []
        while beta not in self._moncache:
            j = next(j for j, b in enumerate(beta) if b)
            peeled.append((beta, j))
            beta = beta[:j] + (beta[j] - 1,) + beta[j + 1:]
        out = self._moncache[beta]
        for beta, j in reversed(peeled):
            out = self._moncache[beta] = mmul(self.mats[j], out)
        return out

    def mon_mat(self, beta):
        """Action of the monomial with exponents beta."""
        if sum(beta) > self.k:
            return Mat(({},) * self.dim, self.dim)
        return self._raw_mon_mat(beta)

    def act_poly(self, p):
        """m_E(p), the action of a polynomial."""
        if p.nvars != self.nvars:
            raise ValueError("arity mismatch")
        return mat_sum(((self.mon_mat(e), c) for e, c in p.terms.items()
                        if sum(e) <= self.k), self.dim, self.dim)

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
            "action": [[c.json_str() for c in dense(m.flat(), self.dim * self.dim)]
                       for m in self.mats],
        })

    @classmethod
    def from_json(cls, text):
        """The module of a to_json text.  Before it parses an entry it
        refuses, with a ValueError naming the field, anything but an object
        with integers nvars, k and dim from 1, 0 and 0 to MAX_NVARS,
        MAX_ORDER and MAX_DIM and an `action` list of nvars matrices."""
        data = json_load(text)
        for key, lo, hi in (("nvars", 1, MAX_NVARS), ("k", 0, MAX_ORDER),
                            ("dim", 0, MAX_DIM)):
            json_field(data, key, int, "module field %r is" % key, lo, hi)
        action = data.get("action")
        if not isinstance(action, list) or len(action) != data["nvars"]:
            raise ValueError("module field 'action' must be a list of %d matrices"
                             % data["nvars"])
        parse = scalar_parser()
        return cls(data["nvars"], data["k"], [
            square(flat, data["dim"], parse, "action matrix %d" % t)
            for t, flat in enumerate(action)])


class CyclicQuotient:
    """Quotient by a cofinite ideal: module and the standard-monomial basis
    labels; the class of 1, a cyclic vector, is the basis element of the
    monomial 1."""

    __slots__ = ("module", "monomials")

    def __init__(self, module, monomials):
        self.module = module
        self.monomials = monomials


def cyclic_quotient(ideal):
    """The module of germs modulo the ideal, acted on by multiplication
    followed by normal form; the class of 1 is a cyclic vector."""
    mons = ideal.standard_monomials
    space = ideal.space
    at = {space.index[m]: t for t, m in enumerate(mons)}
    d = len(mons)
    # column c of x_j's matrix: the residue of x_j mons[c], on the standard monomials
    mats = [Mat([{at[i]: x for i, x in ideal.span._reduce(shift.cols[space.index[m]]).items()}
                 for m in mons], d).T for shift in space.shifts]
    return CyclicQuotient(FinMod(ideal.nvars, ideal.k, mats, check=False), tuple(mons))


def dual_number_module(lam):
    """Two-dimensional module with basis (class of 1, class of X) where the
    direction X is normalized against lam; a linear form xi acts by
    [[0, xi(lam)], [0, 0]] and a general germ phi by
    [[phi(0), d_lam phi(0)], [0, phi(0)]]."""
    if lam.is_zero():
        raise ValueError("the direction must be nonzero")
    return FinMod(lam.nvars, 1, [Mat([{1: c} if c else {}, {}], 2) for c in lam.coords],
                  check=False)


def direct_sum(*mods):
    if not mods:
        raise ValueError("direct sum of nothing")
    nvars = mods[0].nvars
    if any(m.nvars != nvars for m in mods):
        raise ValueError("arity mismatch in direct sum")
    k = max(m.k for m in mods)
    mats = [block_diag([m.mats[j] for m in mods]) for j in range(nvars)]
    return FinMod(nvars, k, mats, check=False)


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
            left = kron(acc.mats[j], mid(nxt.dim))
            right = kron(mid(acc.dim), nxt.mats[j])
            mats.append(mat_sum(((left, ONE), (right, ONE)), left.nrows, left.ncols))
        acc = FinMod(nvars, acc.k + nxt.k + 1, mats, check=False)
    return acc

