"""Cofinite ideals of the local ring of germs at 0, their quotient modules,
and the category of finite-dimensional modules with nilpotent action.

A cofinite ideal I is handled entirely through its polynomial trace: its
order k, the least k with every monomial of degree k+1 in I, is read off
the generators' closure at a bound above it.  All questions about I then
happen inside the finite-dimensional space of polynomials of degree at
most k.

A FinMod is a tuple of commuting nilpotent matrices, the action of the
coordinate linear forms; its order and the action of any polynomial (and
of any germ, through truncation) follow from that.
"""

import json

from .scalars import ONE
from .poly import (Polynomial, Covector, monomials_upto, monomials_of_degree,
                   zero_exps, scalar_parser, exp_series)
from .linalg import (Mat, SpanBasis, mmul, mid, mat_sum, block_diag, kron,
                     close_span, square, dense, json_field, json_load)

# The size ceilings: MAX_NVARS and MAX_DIM bound the CLI's --nmax and
# --dimmax and what every loader reads.  Reading a FinMod's order then costs
# at most one matrix product per monomial of degree 2 to dim, fewer than
# C(nvars + dim, dim)
MAX_NVARS, MAX_DIM = 3, 12


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
    """Ideal of germs given by polynomial generators.  Its order k, the
    least k with every degree-(k+1) monomial inside it, is read off them;
    an ideal without m^MAX_DIM, which every quotient of dimension at most
    MAX_DIM holds, is refused as not cofinite.

    Membership and normal forms reduce against the row-reduced image of the
    ideal in degrees <= k.  A generator with nonzero constant term makes
    this the unit ideal (codimension 0)."""

    def __init__(self, nvars, generators):
        generators = tuple(generators)
        if any(g.nvars != nvars for g in generators):
            raise ValueError("generator arity mismatch")
        self.nvars, self.generators = nvars, tuple(filter(None, generators))
        # close at B, from the largest lowest degree of a generator: the
        # monomials of degrees b..B lead the coordinates, and if they are
        # unit rows of the span for some b <= B, then m^b lies in I + m^(B+1),
        # so in I by Nakayama.  k is the degree of the first coordinate that
        # is not, and the other rows, shifted back past the c unit rows of
        # degrees k+1..B, are the image in degrees <= k: truncation commutes
        # with the shifts, and RREF is unique
        bound = max([1] + [min(map(sum, g.terms)) for g in self.generators])
        while True:
            span, mons = self.image_span(bound), monomials_upto(nvars, bound)[::-1]
            lead = next((t for t, row in enumerate(span.rows) if row != {t: ONE}), span.dim)
            k = sum(mons[min(lead, len(mons) - 1)])
            if k < bound:
                break
            if bound >= MAX_DIM:
                raise ValueError("the ideal is not cofinite: m^%d does not lie inside it"
                                 % bound)
            bound = min(2 * bound, MAX_DIM)
        c = len(mons) - len(monomials_upto(nvars, k))
        self.k = k
        self.space = PolySpace(nvars, k)
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
    return CofiniteIdeal(nvars, gens)


def maximal_ideal(nvars):
    return CofiniteIdeal(nvars, [Polynomial.variable(nvars, j) for j in range(nvars)])


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
    return CofiniteIdeal(nvars, gens)


class FinMod:
    """Finite-dimensional module over the germ ring: commuting nilpotent
    matrices M_1..M_N (action of the coordinate linear forms, as Mats).
    Its order k, the least k with every product of k+1 of them zero, is
    read off the matrices on first use."""

    __slots__ = ("nvars", "dim", "mats", "_moncache", "_k")

    def __init__(self, mats, check=True):
        mats = tuple(map(Mat.of, mats))
        dim = mats[0].nrows if mats else 0
        if any(m.nrows != dim or m.ncols != dim for m in mats):
            raise ValueError("action matrices must be square of equal size")
        self.nvars = len(mats)
        self.dim = dim
        self.mats = mats
        self._moncache = {zero_exps(self.nvars): mid(dim)}
        self._k = None
        if check:
            self.validate()

    def validate(self):
        """Refuse matrices that do not commute or are not nilpotent, and
        return the order.  Commuting nilpotent d x d matrices multiply to 0
        in degree d, so reading k decides nilpotency."""
        for i in range(self.nvars):
            for j in range(i + 1, self.nvars):
                if mmul(self.mats[i], self.mats[j]) != mmul(self.mats[j], self.mats[i]):
                    raise ValueError("action matrices %d and %d do not commute" % (i + 1, j + 1))
        return self.k

    @property
    def k(self):
        """The order: the highest degree of a nonzero monomial product.
        Degree 1 is the matrices themselves, and each monomial of the next
        degree is x_j times the one that its first variable x_j peels off.
        Each nonzero product it forms is kept for mon_mat by its exponents."""
        if self._k is None:
            def up(beta, j):  # the exponents of x_j times x^beta
                return beta[:j] + (beta[j] + 1,) + beta[j + 1:]
            # (index of the first variable, exponents, product) of each nonzero monomial
            zero, k = zero_exps(self.nvars), 0
            level = [(j, up(zero, j), m) for j, m in enumerate(self.mats) if any(m.rows)]
            while level:
                k += 1
                if k == self.dim:
                    raise ValueError("the action is not nilpotent: a product of "
                                     "%d action matrices is nonzero" % k)
                level = [(j, up(beta, j), out) for i, beta, m in level for j in range(i + 1)
                         if any((out := mmul(self.mats[j], m)).rows)]
                self._moncache.update((beta, m) for _, beta, m in level)
            self._k = k
        return self._k

    def mon_mat(self, beta):
        """Action of the monomial with exponents beta: the identity at
        degree 0, x_j times it at degree 1 (formed on first use), the order
        loop's product from degree 2 to k, and zero above k."""
        k = self.k  # reading the order fills the cache from degree 2 to k
        if sum(beta) == 1 and k and beta not in self._moncache:
            self._moncache[beta] = mmul(self.mats[beta.index(1)],
                                        self._moncache[zero_exps(self.nvars)])
        if beta not in self._moncache:
            return Mat(({},) * self.dim, self.dim)
        return self._moncache[beta]

    def act_poly(self, p):
        """m_E(p), the action of a polynomial."""
        if p.nvars != self.nvars:
            raise ValueError("arity mismatch")
        return mat_sum(((self.mon_mat(e), c) for e, c in p.terms.items()),
                       self.dim, self.dim)

    def exp_action(self, xi):
        """Action of the germ e^xi: m_E of its exponential series, which
        the nilpotent action cuts off after degree k."""
        return self.act_poly(exp_series(xi, self.k))

    def __eq__(self, other):
        if not isinstance(other, FinMod):
            return NotImplemented
        return self.mats == other.mats

    def __hash__(self):
        return hash(self.mats)

    def __repr__(self):
        return "FinMod(nvars=%d, dim=%d)" % (self.nvars, self.dim)

    def to_json(self):
        return json.dumps({
            "nvars": self.nvars,
            "dim": self.dim,
            "action": [[c.json_str() for c in dense(m.flat(), self.dim * self.dim)]
                       for m in self.mats],
        })

    @classmethod
    def from_json(cls, text):
        """The module of a to_json text.  Before it parses an entry it
        refuses, with a ValueError naming the field, anything but an object
        with integers nvars and dim from 1 and 0 to MAX_NVARS and MAX_DIM
        and an `action` list of nvars matrices.  Other keys are ignored."""
        data = json_load(text)
        for key, lo, hi in (("nvars", 1, MAX_NVARS), ("dim", 0, MAX_DIM)):
            json_field(data, key, int, "module field %r is" % key, lo, hi)
        action = data.get("action")
        if not isinstance(action, list) or len(action) != data["nvars"]:
            raise ValueError("module field 'action' must be a list of %d matrices"
                             % data["nvars"])
        parse = scalar_parser()
        return cls([
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
    return CyclicQuotient(FinMod(mats, check=False), tuple(mons))


def dual_number_module(lam):
    """Two-dimensional module with basis (class of 1, class of X) where the
    direction X is normalized against lam; a linear form xi acts by
    [[0, xi(lam)], [0, 0]] and a general germ phi by
    [[phi(0), d_lam phi(0)], [0, phi(0)]]."""
    if lam.is_zero():
        raise ValueError("the direction must be nonzero")
    return FinMod([Mat([{1: c} if c else {}, {}], 2) for c in lam.coords], check=False)


def direct_sum(*mods):
    if not mods:
        raise ValueError("direct sum of nothing")
    nvars = mods[0].nvars
    if any(m.nvars != nvars for m in mods):
        raise ValueError("arity mismatch in direct sum")
    return FinMod([block_diag([m.mats[j] for m in mods]) for j in range(nvars)],
                  check=False)


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
        acc = FinMod(mats, check=False)
    return acc

