"""Families of invertible polynomial matrices playing the role of a group
of representations, and the machinery built on top of them: block
assemblies over (rep, point) pairs with a module of jets, annihilating
relations and their translation to and from functionals on the block space,
and the three-way membership test that ties the span of word images, its
double annihilator, and the End^# criterion together.

Generators are unimodular (constant nonzero determinant), so their inverses
are again polynomial families and every word evaluates to an exactly
invertible matrix.  Words are lists of nonzero ints: +i is the i-th
generator (1-based), -i its inverse.
"""

import json

from .scalars import ZERO, ONE
from .poly import ExpPoly, Vector, diff, parse_exppoly
from . import linalg
from .linalg import (SpanBasis, CrossCheckError, mmul, mid, freeze, flatten,
                     unflatten, block_diag, close_span, square)
from .jetfun import (MatPolyFamily, jet_family, iterated_block_derivative,
                     functional_to_diffop, diffop_to_module, frobenius)
from .approxalg import ApproxAlgebra, end_sharp_membership


def _cofactor(F, rows, cols):
    """Determinant of the minor of F on the given row and column index
    tuples, by expansion along its first row; 1 for the empty minor."""
    if not rows:
        return ExpPoly.const(F.nvars, ONE)
    ent = F.entries
    if len(rows) == 1:
        return ent[rows[0]][cols[0]]
    acc = ExpPoly.zero(F.nvars)
    r0, rest = rows[0], rows[1:]
    for t, c in enumerate(cols):
        term = ent[r0][c] * _cofactor(F, rest, cols[:t] + cols[t + 1:])
        acc = acc + (term if t % 2 == 0 else -term)
    return acc


def family_det(F):
    """Determinant of a square family by cofactor expansion."""
    if F.rows != F.cols:
        raise ValueError("determinant of a non-square family")
    idx = tuple(range(F.rows))
    return _cofactor(F, idx, idx)


def family_adjugate(F):
    """Adjugate of a square family: inverse times determinant."""
    idx = tuple(range(F.rows))
    out = []
    for r in idx:
        row = []
        for c in idx:
            minor = _cofactor(F, idx[:c] + idx[c + 1:], idx[:r] + idx[r + 1:])
            row.append(minor if (r + c) % 2 == 0 else -minor)
        out.append(row)
    return MatPolyFamily(F.nvars, out)


class RepFamily:
    """A labeled family of unimodular generator matrices over the
    polynomial ring, closed under exact inversion."""

    __slots__ = ("label", "nvars", "dim", "generators", "inverses")

    def __init__(self, label, generators, check=True):
        generators = list(generators)
        if not generators:
            raise ValueError("need at least one generator")
        nvars = generators[0].nvars
        dim = generators[0].rows
        inverses = []
        for g in generators:
            if g.nvars != nvars or g.rows != dim or g.cols != dim:
                raise ValueError("generators must be square of equal size")
            d = family_det(g)
            if not d.is_polynomial():
                raise ValueError("generator determinant must be polynomial")
            dp = d.pure()
            if dp.degree() != 0 or not dp:
                raise ValueError("generator of %r is not unimodular "
                                 "(determinant %s)" % (label, dp))
            c = dp.terms[(0,) * nvars]
            inv = family_adjugate(g).scaled(c.inverse())
            inverses.append(inv)
        self.label = label
        self.nvars = nvars
        self.dim = dim
        self.generators = tuple(generators)
        self.inverses = tuple(inverses)
        if check:
            self.validate()

    def validate(self):
        ident = MatPolyFamily.identity(self.nvars, self.dim)
        for g, gi in zip(self.generators, self.inverses):
            if g * gi != ident or gi * g != ident:
                raise ValueError("inverse verification failed for %r" % (self.label,))

    def letter(self, k):
        """Family for a signed generator index: +i forward, -i inverse."""
        if k == 0 or abs(k) > len(self.generators):
            raise ValueError("letter %d out of range" % k)
        return self.generators[k - 1] if k > 0 else self.inverses[-k - 1]

    def word_family(self, word):
        acc = MatPolyFamily.identity(self.nvars, self.dim)
        for k in word:
            acc = acc * self.letter(k)
        return acc

    def __repr__(self):
        return "RepFamily(%r, dim=%d, gens=%d)" % (self.label, self.dim,
                                                   len(self.generators))


def family_to_json(reps):
    reps = list(reps)
    if not reps:
        raise ValueError("a family needs at least one rep")
    nvars = reps[0].nvars
    out = {"nvars": nvars, "reps": []}
    for rep in reps:
        gens = []
        for g in rep.generators:
            gens.append([str(e) for row in g.entries for e in row])
        out["reps"].append({"label": rep.label, "dim": rep.dim, "generators": gens})
    return json.dumps(out)


def family_from_json(text):
    data = json.loads(text)
    nvars = data["nvars"]
    if not data["reps"]:
        raise ValueError("a family needs at least one rep")
    reps = []
    for rd in data["reps"]:
        dim = rd["dim"]
        if not isinstance(dim, int) or dim < 1:
            raise ValueError("rep %r has dimension %r; it must be a positive integer"
                             % (rd["label"], dim))
        gens = [MatPolyFamily(nvars, square(
                    flat, dim, lambda e: parse_exppoly(e, nvars),
                    "generator %d of rep %r" % (g, rd["label"])))
                for g, flat in enumerate(rd["generators"])]
        reps.append(RepFamily(rd["label"], gens))
    return reps


class PWCandidate:
    """Endomorphism-valued families, one per rep label; finitely many."""

    __slots__ = ("nvars", "components")

    def __init__(self, nvars, components):
        self.nvars = nvars
        comps = {}
        for label, F in components.items():
            if F.nvars != nvars:
                raise ValueError("component arity mismatch")
            comps[label] = F
        self.components = comps

    @classmethod
    def from_word(cls, reps, word):
        """The tautological candidate: each component is the word's own
        matrix family."""
        return cls(reps[0].nvars, {rep.label: rep.word_family(word) for rep in reps})

    def component(self, rep):
        F = self.components.get(rep.label)
        if F is None:
            return MatPolyFamily.zero(self.nvars, rep.dim, rep.dim)
        return F

    def to_json(self):
        comps = {}
        for label in sorted(self.components):
            F = self.components[label]
            comps[label] = [str(e) for row in F.entries for e in row]
        return json.dumps({"nvars": self.nvars, "components": comps})

    @classmethod
    def from_json(cls, text, reps):
        data = json.loads(text)
        nvars = data["nvars"]
        dims = {rep.label: rep.dim for rep in reps}
        comps = {}
        for label, flat in data["components"].items():
            if label not in dims:
                raise ValueError("unknown rep label %r" % label)
            comps[label] = MatPolyFamily(nvars, square(
                flat, dims[label], lambda e: parse_exppoly(e, nvars),
                "candidate component %r" % label))
        return cls(nvars, comps)


class BlockLayout:
    """Ordering and offsets of the (rep, point) blocks of an assembly."""

    __slots__ = ("reps", "points", "E", "blocks", "total")

    def __init__(self, reps, points, E):
        self.reps = list(reps)
        self.points = [p if isinstance(p, Vector) else Vector(p) for p in points]
        self.E = E
        blocks = []
        off = 0
        for rep in self.reps:
            size = E.dim * rep.dim
            for p in self.points:
                blocks.append((rep, p, off, size))
                off += size
        self.blocks = blocks
        self.total = off


class PiAssembly:
    """Word evaluator for the block-diagonal assembly: per block, the jet of
    the rep family over E evaluated at the block's point."""

    __slots__ = ("layout", "_letter_cache")

    def __init__(self, reps, points, E):
        nvars = E.nvars
        for rep in reps:
            if rep.nvars != nvars:
                raise ValueError("arity mismatch")
        self.layout = BlockLayout(reps, points, E)
        self._letter_cache = {}

    def _letter_block(self, rep, point, k):
        key = (rep.label, tuple(point.coords), k)
        mat = self._letter_cache.get(key)
        if mat is None:
            fam = jet_family(rep.letter(k), self.layout.E)
            mat = fam.evaluate_scalar(tuple(point.coords))
            self._letter_cache[key] = mat
        return mat

    def letter_matrix(self, k):
        """Block-diagonal matrix of a single signed generator index."""
        return block_diag([self._letter_block(rep, p, k)
                           for rep, p, _, _ in self.layout.blocks])

    def value(self, word):
        """Block-diagonal matrix of a word; the empty word gives the
        identity."""
        acc = mid(self.layout.total)
        for k in word:
            acc = mmul(acc, self.letter_matrix(k))
        return acc


def assemble_pi(reps, points, E):
    return PiAssembly(reps, points, E)


def assemble_phi(cand, reps, points, E):
    """Exact block-diagonal matrix of a candidate over the same layout."""
    layout = BlockLayout(reps, points, E)
    return block_diag([jet_family(cand.component(rep), E).evaluate_scalar(tuple(p.coords))
                       for rep, p, _, _ in layout.blocks])


def spanned_algebra(reps, points, E):
    """Basis of the span of all word images: start from the identity and
    close under right multiplication by the generators until the dimension
    stabilizes.  Returns (matrices, span, assembly).

    The inverse letters are not needed.  Each letter matrix L is invertible,
    so by Cayley-Hamilton L^-1 is a polynomial in L and lies in the unital
    algebra the positive words span; that algebra is therefore the span of
    all words, and its echelon basis is the same."""
    asm = assemble_pi(reps, points, E)
    total = asm.layout.total
    ngens = len(reps[0].generators) if reps else 0
    for rep in reps[1:]:
        if len(rep.generators) != ngens:
            raise ValueError("reps must share the generator alphabet")
    letter_mats = [asm.letter_matrix(k) for k in range(1, ngens + 1)]
    span = close_span(SpanBasis(total * total), [flatten(mid(total))],
                      lambda v: [flatten(mmul(unflatten(v, total, total), g))
                                 for g in letter_mats])
    mats = [unflatten(row, total, total) for row in span.frozen_rows()]
    return mats, span, asm


class RelationTerm:
    """One term of a candidate annihilating relation: a rep label, a dual
    matrix on that rep's endomorphisms, an evaluation point, and a
    constant-coefficient operator."""

    __slots__ = ("label", "psi", "point", "u")

    def __init__(self, label, psi, point, u):
        self.label = label
        self.psi = freeze(psi)
        self.point = point if isinstance(point, Vector) else Vector(point)
        self.u = u

    def __repr__(self):
        return "RelationTerm(%r, point=%s, order=%d)" % (
            self.label, self.point, self.u.order())


def term_value(term, fam):
    """<d_u F (lambda), psi> for an endomorphism-valued family F."""
    dF = [[diff(term.u, e) for e in row] for row in fam.entries]
    val = [[e.evaluate(tuple(term.point.coords)) for e in row] for row in dF]
    acc = None
    for r, row in enumerate(val):
        for c, x in enumerate(row):
            h = term.psi[r][c]
            if h:
                t = x * h
                acc = t if acc is None else acc + t
    if acc is None:
        return ZERO
    return acc.scalar() if hasattr(acc, "scalar") else acc


class FunctionalData:
    """A functional on the block-diagonal endomorphism space, with the
    module, labels and points it lives over."""

    __slots__ = ("E", "reps", "points", "psi", "layout")

    def __init__(self, E, reps, points, psi, layout):
        self.E = E
        self.reps = reps
        self.points = points
        self.psi = psi
        self.layout = layout


def relation_to_functional(terms, reps):
    """Package relation terms as one functional: the module collects one
    power-quotient block per operator, and each term contributes the tensor
    of its module functional with its dual matrix, embedded in the diagonal
    block belonging to the term's (rep, point)."""
    terms = list(terms)
    if not terms:
        raise ValueError("need at least one term")
    by_label = {rep.label: rep for rep in reps}
    E, funcs = diffop_to_module([t.u for t in terms])
    used_labels = sorted({t.label for t in terms})
    sel_reps = [by_label[lb] for lb in used_labels]
    seen = {}
    for t in terms:
        key = tuple(t.point.coords)
        if key not in seen:
            seen[key] = t.point
    points = [seen[k] for k in sorted(seen, key=lambda k: tuple(c.key() for c in k))]
    layout = BlockLayout(sel_reps, points, E)
    psi = [[ZERO] * layout.total for _ in range(layout.total)]
    for t, eta in zip(terms, funcs):
        b = next(i for i, (rep, p, _, _) in enumerate(layout.blocks)
                 if rep.label == t.label and p.coords == t.point.coords)
        _, _, off, size = layout.blocks[b]
        d = by_label[t.label].dim
        for rE in range(E.dim):
            for cE in range(E.dim):
                h = eta[rE][cE]
                if not h:
                    continue
                for rV in range(d):
                    for cV in range(d):
                        hv = t.psi[rV][cV]
                        if hv:
                            psi[off + rE * d + rV][off + cE * d + cV] = \
                                psi[off + rE * d + rV][off + cE * d + cV] + h * hv
    return FunctionalData(E, sel_reps, points, freeze(psi), layout)


class RelationDecomp:
    __slots__ = ("terms", "cross_discarded")

    def __init__(self, terms, cross_discarded):
        self.terms = terms
        self.cross_discarded = cross_discarded


def functional_to_relation(data):
    """Back-translation: split the functional along diagonal blocks, discard
    cross components (they annihilate every block-diagonal assembly), and
    decompose each diagonal block into rank-one tensors, converting the
    module side into an operator."""
    layout = data.layout
    E = data.E
    psi = data.psi
    terms = []
    seen = [[False] * layout.total for _ in range(layout.total)]
    for rep, p, off, size in layout.blocks:
        d = rep.dim
        # reshape the block as a (module-pair) x (rep-pair) matrix
        G = []
        for rE in range(E.dim):
            for cE in range(E.dim):
                row = []
                for rV in range(d):
                    for cV in range(d):
                        row.append(psi[off + rE * d + rV][off + cE * d + cV])
                G.append(row)
        for r in range(size):
            for c in range(size):
                seen[off + r][off + c] = True
        red = SpanBasis(d * d, G)
        for rrow, piv in zip(red.rows, red.pivots):
            eta = [[G[i * E.dim + j][piv] for j in range(E.dim)]
                   for i in range(E.dim)]
            u = functional_to_diffop(E, freeze(eta))
            if not u.terms:
                continue
            psi_mat = unflatten(rrow, d, d)
            terms.append(RelationTerm(rep.label, psi_mat, p, u))
    cross = any(psi[r][c] and not seen[r][c]
                for r in range(layout.total) for c in range(layout.total))
    return RelationDecomp(terms, cross)


class RelationVerdict:
    """Outcome of a relation check: `certified` says whether the terms
    really annihilate every word image; `holds` whether the candidate
    passes.  A non-relation gets a witness word instead of a φ verdict."""

    __slots__ = ("certified", "holds", "witness")

    def __init__(self, certified, holds=None, witness=None):
        self.certified = certified
        self.holds = holds
        self.witness = witness


def relation_certify(data, span):
    """A functional is an annihilating relation iff it kills the span of
    all word images."""
    for row in span.frozen_rows():
        mat = unflatten(row, data.layout.total, data.layout.total)
        if frobenius(data.psi, mat):
            return mat
    return None


def relation_check(cand, terms, reps):
    """Certify the terms as an annihilating relation, then evaluate the
    candidate against them, both directly (term by term) and through the
    packaged functional; the two routes must agree."""
    data = relation_to_functional(terms, reps)
    _, span, _ = spanned_algebra(data.reps, data.points, data.E)
    bad = relation_certify(data, span)
    if bad is not None:
        return RelationVerdict(False, witness=bad)
    direct = ZERO
    by_label = {rep.label: rep for rep in reps}
    for t in terms:
        direct = direct + term_value(t, cand.component(by_label[t.label]))
    packaged = frobenius(data.psi, assemble_phi(cand, data.reps, data.points, data.E))
    if direct != packaged:
        raise CrossCheckError("relation evaluation routes disagree")
    return RelationVerdict(True, holds=not direct)


class TripleResult:
    """Three membership verdicts that the theory says must coincide."""

    __slots__ = ("double_annihilator", "span_membership", "sharp", "dims", "details")

    def __init__(self, double_annihilator, span_membership, sharp, dims, details=None):
        self.double_annihilator = double_annihilator
        self.span_membership = span_membership
        self.sharp = sharp
        self.dims = dims
        self.details = details

    @property
    def unanimous(self):
        return self.double_annihilator == self.span_membership == self.sharp

    @property
    def member(self):
        return self.double_annihilator

    def to_dict(self):
        return {"double_annihilator": self.double_annihilator,
                "span_membership": self.span_membership,
                "sharp": self.sharp,
                "unanimous": self.unanimous,
                "dims": dict(self.dims)}


def membership_triple(cand, reps, points, E):
    """The three-way membership test for a candidate over a block layout:
    (i) the double annihilator of the span of word images, (ii) direct span
    membership, (iii) the End^# test over the spanned algebra."""
    mats, span, asm = spanned_algebra(reps, points, E)
    total = asm.layout.total
    phi = assemble_phi(cand, reps, points, E)
    flat = list(flatten(phi))

    phi_nz = [(s, x) for s, x in enumerate(flat) if x]
    verdict_i = not any(sum((func[s] * x for s, x in phi_nz), ZERO)
                        for func in span.nullspace())

    verdict_ii = span.contains(flat)

    alg, module = ApproxAlgebra.from_matrix_basis(mats, check=False)
    res = end_sharp_membership(module, phi)
    verdict_iii = res.member

    dims = {"total": total, "dim_span": len(span.rows)}
    return TripleResult(verdict_i, verdict_ii, verdict_iii, dims,
                        details={"sharp": res})


def delta_block(fams, etas, point):
    """The iterated doubled-space matrices of the given families for one
    delta component (directions etas), evaluated at its point."""
    pt = tuple(point.coords)
    return [iterated_block_derivative(f, etas).evaluate_scalar(pt) for f in fams]


def invariance_check(cand, delta, reps, extra_vectors=()):
    """Delta-data invariance condition: assemble the block-diagonal doubled
    representation over the data, generate a module from each grid vector
    (standard basis vectors, one stacked tuple per run of equal components,
    and any extras), and require the candidate's assembled block matrix to
    preserve every one of them.  Each module is closed under the generators
    alone: the doubled blocks are invertible, so (as in spanned_algebra)
    their inverses lie in the unital algebra A the generators span, and v
    generates A.v under either alphabet."""
    by_label = {rep.label: rep for rep in reps}
    blocks = []
    phis = []
    sizes = []
    for label, point, etas in delta:
        rep = by_label[label]
        *gmats, pmat = delta_block(rep.generators + (cand.component(rep),),
                                   etas, point)
        blocks.append(gmats)
        phis.append(pmat)
        sizes.append(rep.dim * (2 ** len(etas)))
    total = sum(sizes)
    offs = [sum(sizes[:b]) for b in range(len(sizes))]
    ngens = len(reps[0].generators)
    gen_mats = [block_diag([gm[k] for gm in blocks]) for k in range(ngens)]
    phi = block_diag(phis)

    grid = []
    for s in range(total):
        v = [ZERO] * total
        v[s] = ONE
        grid.append(v)
    # one stacked tuple per run of identical components (the per-block
    # decision vector), plus their concatenation, which correlates blocks
    run_start = 0
    run_vecs = []
    key = lambda item: (item[0], tuple(item[1].coords),
                        tuple(tuple(e.coords) for e in item[2]))
    for i in range(len(delta) + 1):
        if i == len(delta) or (i > run_start and key(delta[i]) != key(delta[run_start])):
            g = i - run_start
            b = sizes[run_start]
            v = [ZERO] * total
            for s in range(min(g, b)):
                v[offs[run_start + s] + s] = ONE
            grid.append(v)
            run_vecs.append(v)
            run_start = i
    if len(run_vecs) > 1:
        grid.append([sum(xs, ZERO) for xs in zip(*run_vecs)])
    grid.extend(list(v) for v in extra_vectors)

    def step(w):
        return [linalg.mat_vec(g, w) for g in gen_mats]

    for v in grid:
        W = close_span(SpanBasis(total), [v], step)
        for row in W.frozen_rows():
            if not W.contains(linalg.mat_vec(phi, list(row))):
                return False
    return True


def intertwiner_graph_check(cand, delta_i, delta_j, T, reps):
    """Graph argument: when T intertwines the doubled blocks of two delta
    components, its graph is an invariant subspace of their direct sum, and
    a candidate preserving all invariant subspaces must commute with T."""
    by_label = {rep.label: rep for rep in reps}
    mats = []
    phis = []
    for label, point, etas in (delta_i, delta_j):
        rep = by_label[label]
        *gmats, pmat = delta_block(rep.generators + rep.inverses
                                   + (cand.component(rep),), etas, point)
        mats.append(gmats)
        phis.append(pmat)
    T = freeze(T)
    for a, b in zip(mats[0], mats[1]):
        if mmul(T, a) != mmul(b, T):
            raise ValueError("the given matrix does not intertwine the blocks")
    return mmul(T, phis[0]) == mmul(phis[1], T)
