"""Families of invertible polynomial matrices playing the role of a group
of representations, and the machinery built on top of them: block
assemblies over (rep, point) pairs with a module of jets, annihilating
relations and their translation to and from functionals on the block space,
and the three-way membership test that ties the span of word images, its
double annihilator, and the End^# criterion together.

Generators are unimodular (constant nonzero determinant), so their inverses
are again polynomial families, and every word evaluates to an exactly
invertible matrix.  A generator's inverse is its adjugate over that
constant; family_det_adj gives both by Faddeev-LeVerrier, in the matrix
family's own products and traces.  Words are lists of nonzero ints: +i is
the i-th generator (1-based), -i its inverse.
"""

import json
from itertools import groupby

from .scalars import ZERO, ONE
from .poly import ExpPoly, Vector, diff, entry_parser, _inv_int
from .linalg import (Mat, SpanBasis, CrossCheckError, mid, block_diag, dot,
                     close_span, square, json_field, json_load, _kron_into)
from .localmod import MAX_NVARS, MAX_DIM
from .jetfun import (MatPolyFamily, jet_family, iterated_block_derivative,
                     functional_to_diffop, diffop_to_module, frobenius, _keys_add)
from .approxalg import ApproxModule, end_sharp_membership


def _trace(A, B):
    """tr(A B) of two square families, per term key, without forming A B:
    over the key pairs, the pairing of one coefficient's entries with the
    other's transpose."""
    out, bts = {}, [(k2, b.T.flat()) for k2, b in B.terms.items()]
    for k1, a in A.terms.items():
        a = a.flat()
        for k2, bt in bts:
            t = dot(a, bt)
            if t:
                key = _keys_add(k1, k2)
                out[key] = out.get(key, ZERO) + t
    return out


def family_det_adj(F):
    """(det F, adj F) of a square family by Faddeev-LeVerrier (Gantmacher,
    The Theory of Matrices, vol. 1, ch. IV), in the family's own arithmetic:
    with M_1 = I, c_k = -tr(F M_k)/k and M_(k+1) = F M_k + c_k I, the c_k
    are the coefficients of det(xI - F) = x^n + c_1 x^(n-1) + ... + c_n, so
    det F = (-1)^n c_n and adj F = (-1)^(n-1) M_n.  M_(k+1) needs F M_k, so
    its diagonal gives tr(F M_k), except at k = n, where `_trace` reads it
    without F M_n: max(n - 2, 0) family products.  Division by k is exact."""
    n = F.rows
    if n != F.cols:
        raise ValueError("determinant of a non-square family")
    M, FM = MatPolyFamily.identity(F.nvars, n), F
    for k in range(1, n + 1):
        tr = ({key: sum((row[i] for i, row in enumerate(m.rows) if i in row), ZERO)
               for key, m in FM.terms.items()} if k < n else _trace(F, M))
        c = {key: t * _inv_int(-k) for key, t in tr.items() if t}
        if k < n:
            M = FM + F._new(n, n, {key: [{i: t} for i in range(n)] for key, t in c.items()})
            FM = F * M if k < n - 1 else None
    det = F._new(1, 1, {key: [{0: t}] for key, t in c.items()})
    return (det * -1 if n % 2 else det).entries[0][0], (M if n % 2 else M * -1)


class RepFamily:
    """A labeled family of unimodular generator matrices over the
    polynomial ring, closed under exact inversion."""

    __slots__ = ("label", "nvars", "dim", "generators", "inverses")

    def __init__(self, label, generators):
        generators = list(generators)
        if not generators:
            raise ValueError("need at least one generator")
        nvars = generators[0].nvars
        dim = generators[0].rows
        inverses = []
        for i, g in enumerate(generators, 1):
            if g.nvars != nvars or g.rows != dim or g.cols != dim:
                raise ValueError("generators must be square of equal size")
            d, adj = family_det_adj(g)
            if not d.is_polynomial():
                raise ValueError("generator %d of rep %r is not unimodular: its "
                                 "determinant is not a polynomial" % (i, label))
            dp = d.pure()
            if dp.degree() != 0:  # dp's degree and size, never its text
                size = ("has degree %d and %d terms" % (dp.degree(), len(dp.terms))
                        if dp else "is 0")
                raise ValueError("generator %d of rep %r is not unimodular: its "
                                 "determinant %s" % (i, label, size))
            inverses.append(adj * dp.terms[(0,) * nvars].inverse())
        self.label = label
        self.nvars = nvars
        self.dim = dim
        self.generators = tuple(generators)
        self.inverses = tuple(inverses)
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


def generator_count(reps):
    """The number of generators shared by the reps, given as (label,
    generators) pairs, 0 for none; a ValueError names the first rep whose
    count differs from the first rep's, and both counts."""
    reps = [(label, len(gens)) for label, gens in reps]
    for label, n in reps:
        if n != reps[0][1]:
            raise ValueError("rep %r has %d generators and rep %r has %d; reps must share "
                             "the generator alphabet" % (label, n, *reps[0]))
    return reps[0][1] if reps else 0


def _entry_strs(F):
    """The entries of a family in row-major order, as JSON strings."""
    return [str(e) for row in F.entries for e in row]


def family_to_json(reps):
    reps = list(reps)
    if not reps:
        raise ValueError("a family needs at least one rep")
    return json.dumps({"nvars": reps[0].nvars, "reps": [
        {"label": rep.label, "dim": rep.dim,
         "generators": [_entry_strs(g) for g in rep.generators]} for rep in reps]})


def family_from_json(text):
    """The reps of a family_to_json text; a malformed field, a repeated
    label, unequal generator counts, or a size above MAX_NVARS or MAX_DIM,
    is refused by name before any entry is parsed."""
    data = json_load(text)
    nvars = json_field(data, "nvars", int, "family field 'nvars' is", 1, MAX_NVARS)
    if not json_field(data, "reps", list, "family field 'reps' is"):
        raise ValueError("a family needs at least one rep")
    labels = []
    for rd in data["reps"]:
        label = json_field(rd, "label", str, "a rep label is")
        if label in labels:
            raise ValueError("rep label %r is repeated" % label)
        labels.append(label)
        json_field(rd, "dim", int, "rep %r has dimension" % label, 1, MAX_DIM)
        json_field(rd, "generators", list, "rep %r field 'generators' is" % label)
    generator_count((rd["label"], rd["generators"]) for rd in data["reps"])
    parse = entry_parser(nvars)
    reps = []
    for rd in data["reps"]:
        gens = [MatPolyFamily(nvars, square(
                    flat, rd["dim"], parse, "generator %d of rep %r" % (g, rd["label"])))
                for g, flat in enumerate(rd["generators"], 1)]
        reps.append(RepFamily(rd["label"], gens))
    return reps


class PWCandidate:
    """Endomorphism-valued families, one per rep label; finitely many."""

    __slots__ = ("nvars", "components")

    def __init__(self, nvars, components):
        if any(F.nvars != nvars for F in components.values()):
            raise ValueError("component arity mismatch")
        self.nvars = nvars
        self.components = dict(components)

    @classmethod
    def from_word(cls, reps, word):
        """The tautological candidate: each component is the word's own
        matrix family."""
        return cls(reps[0].nvars, {rep.label: rep.word_family(word) for rep in reps})

    def component(self, rep):
        if rep.label in self.components:
            return self.components[rep.label]
        return MatPolyFamily.zero(self.nvars, rep.dim, rep.dim)

    def to_json(self):
        comps = {label: _entry_strs(self.components[label])
                 for label in sorted(self.components)}
        return json.dumps({"nvars": self.nvars, "components": comps})

    @classmethod
    def from_json(cls, text, reps):
        """The candidate of a to_json text over the reps; a malformed field,
        an nvars other than the reps' or an unknown label is refused by name."""
        data = json_load(text)
        nvars = json_field(data, "nvars", int, "candidate field 'nvars' is",
                           1, MAX_NVARS)
        if any(rep.nvars != nvars for rep in reps):
            raise ValueError("candidate field 'nvars' is %d; it must be its reps' %d"
                             % (nvars, reps[0].nvars))
        dims = {rep.label: rep.dim for rep in reps}
        parse = entry_parser(nvars)
        flats = json_field(data, "components", dict, "candidate field 'components' is")
        comps = {}
        for label, flat in flats.items():
            if label not in dims:
                raise ValueError("unknown rep label %r" % label)
            comps[label] = MatPolyFamily(nvars, square(
                flat, dims[label], parse, "candidate component %r" % label))
        return cls(nvars, comps)


class BlockLayout:
    """The (rep, point) blocks of an assembly over a module E of jets: their
    order, offsets and sizes.  It is the one record of E, the reps and the
    points, and its assemble is the one block-diagonal assembly."""

    __slots__ = ("reps", "points", "E", "blocks", "total")

    def __init__(self, reps, points, E):
        self.reps = list(reps)
        if any(rep.nvars != E.nvars for rep in self.reps):
            raise ValueError("arity mismatch")
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

    def assemble(self, fam):
        """The block-diagonal matrix whose (rep, point) block is the jet of
        the family fam(rep) over E evaluated at the point.  The jet does not
        depend on the point, so it is formed once per rep."""
        jets = {rep: jet_family(fam(rep), self.E) for rep in self.reps}
        return block_diag([jets[rep].evaluate_scalar(p) for rep, p, _, _ in self.blocks])


def spanned_algebra(reps, points, E):
    """Basis of the span of all word images: start from the identity and
    close under right multiplication by the generators until the dimension
    stabilizes.  Returns (span, layout), the span's rows the flattened
    basis matrices.

    The inverse letters are not needed.  Each letter matrix L is invertible,
    so by Cayley-Hamilton L^-1 is a polynomial in L and lies in the unital
    algebra the positive words span; that algebra is therefore the span of
    all words, and its echelon basis is the same."""
    layout = BlockLayout(reps, points, E)
    total = layout.total
    ngens = generator_count((rep.label, rep.generators) for rep in reps)
    # X g maps each row of X by g^T
    transposed = [layout.assemble(lambda rep: rep.letter(k)).T
                  for k in range(1, ngens + 1)]
    return close_span(total * total, [mid(total).flat()], transposed), layout


class RelationTerm:
    """One term of a candidate annihilating relation: a rep label, a dual
    matrix on that rep's endomorphisms, an evaluation point, and a
    constant-coefficient operator."""

    __slots__ = ("label", "psi", "point", "u")

    def __init__(self, label, psi, point, u):
        self.label = label
        self.psi = Mat.of(psi)
        self.point = point if isinstance(point, Vector) else Vector(point)
        self.u = u

    def __repr__(self):
        return "RelationTerm(%r, point=%s, order=%d)" % (
            self.label, self.point, self.u.order())


def term_value(term, fam):
    """<d_u F (lambda), psi> for an endomorphism-valued family F."""
    pt = tuple(term.point.coords)
    return sum((diff(term.u, fam.entries[r][c]).evaluate(pt) * h
                for r, hrow in enumerate(term.psi.rows) for c, h in hrow.items()),
               ExpPoly.zero(0)).scalar()


def relation_to_functional(terms, reps):
    """Package relation terms as one functional (psi, layout), psi a Mat:
    the module collects one power-quotient block per operator, and each
    term contributes the tensor of its module functional with its dual
    matrix, in the diagonal block of the term's (rep, point).  A term that
    names no rep, or whose psi is not rep.dim x rep.dim, is refused first."""
    terms = list(terms)
    if not terms:
        raise ValueError("need at least one term")
    by_label = {rep.label: rep for rep in reps}
    for t in terms:
        if (rep := by_label.get(t.label)) is None:
            raise ValueError("a relation term names the rep %r, not among the reps" % (t.label,))
        if (t.psi.nrows, t.psi.ncols) != (rep.dim, rep.dim):
            raise ValueError("the psi of a relation term on rep %r is %dx%d; the rep needs %dx%d"
                             % (t.label, t.psi.nrows, t.psi.ncols, rep.dim, rep.dim))
    E, funcs = diffop_to_module([t.u for t in terms])
    used_labels = sorted({t.label for t in terms})
    sel_reps = [by_label[lb] for lb in used_labels]
    seen = {}
    for t in terms:
        seen.setdefault(tuple(t.point.coords), t.point)
    points = [seen[k] for k in sorted(seen, key=lambda k: tuple(c.key() for c in k))]
    layout = BlockLayout(sel_reps, points, E)
    psi = [{} for _ in range(layout.total)]
    for t, eta in zip(terms, funcs):
        off = next(off for rep, p, off, _ in layout.blocks
                   if rep.label == t.label and p.coords == t.point.coords)
        _kron_into(psi, eta, t.psi, 1, off, off)
    return Mat(psi, layout.total), layout


def functional_to_relation(psi, layout):
    """Back-translation of a functional (psi, layout) to a list of relation
    terms: split psi along diagonal blocks, discard cross components (they
    annihilate every block-diagonal assembly), and decompose each diagonal
    block into rank-one tensors, converting the module side into an operator."""
    E = layout.E
    terms = []
    for rep, p, off, size in layout.blocks:
        d = rep.dim
        # reshape the block as a (module-pair) x (rep-pair) matrix G: entry
        # (off + rE d + rV, off + cE d + cV) is G[rE E.dim + cE][rV d + cV]
        G = [{} for _ in range(E.dim * E.dim)]
        for r in range(size):
            for col, x in psi.rows[off + r].items():
                if off <= col < off + size:
                    (rE, rV), (cE, cV) = divmod(r, d), divmod(col - off, d)
                    G[rE * E.dim + cE][rV * d + cV] = x
        red = SpanBasis(d * d, G)
        for rrow, piv in zip(red.rows, red.pivots):
            eta = Mat([{j: G[i * E.dim + j][piv] for j in range(E.dim)
                        if piv in G[i * E.dim + j]} for i in range(E.dim)], E.dim)
            u = functional_to_diffop(E, eta)
            if u.terms:
                terms.append(RelationTerm(rep.label, Mat.from_flat(rrow, d, d), p, u))
    return terms


def relation_check(cand, terms, reps):
    """Certify the terms as an annihilating relation, then evaluate the
    candidate against them, both directly (term by term) and through the
    packaged functional psi; the two routes must agree.  The pair (holds,
    witness): for terms that annihilate every word image, (whether the
    candidate passes, None); otherwise (None, the first word-span row that
    psi pairs with nonzero, as a Mat)."""
    psi, layout = relation_to_functional(terms, reps)
    span, _ = spanned_algebra(layout.reps, layout.points, layout.E)
    flat = psi.flat()
    bad = next((row for row in span.rows if dot(flat, row)), None)
    if bad is not None:
        return None, Mat.from_flat(bad, psi.nrows, psi.nrows)
    by_label = {rep.label: rep for rep in reps}
    direct = sum((term_value(t, cand.component(by_label[t.label])) for t in terms), ZERO)
    packaged = frobenius(psi, layout.assemble(cand.component))
    if direct != packaged:
        raise CrossCheckError("relation evaluation routes disagree")
    return not direct, None


class TripleResult:
    """Three membership verdicts that the theory says must coincide."""

    __slots__ = ("double_annihilator", "span_membership", "sharp")

    def __init__(self, double_annihilator, span_membership, sharp):
        self.double_annihilator = double_annihilator
        self.span_membership = span_membership
        self.sharp = sharp

    @property
    def unanimous(self):
        return self.double_annihilator == self.span_membership == self.sharp

    @property
    def member(self):
        return self.double_annihilator

    @property
    def verdicts(self):
        return {name: getattr(self, name) for name in self.__slots__}


def membership_triple(cand, reps, points, E):
    """The three-way membership test for a candidate over a block layout:
    (i) the double annihilator of the span of word images, (ii) direct span
    membership, (iii) the End^# test over the spanned algebra.  Verdict
    (iii) reuses the word span: its module's basis is the span's echelon
    rows (ApproxModule.from_span), and it still closes its own tuple module
    and solves for a witness."""
    span, layout = spanned_algebra(reps, points, E)
    total = layout.total
    phi = layout.assemble(cand.component)
    flat = phi.flat()

    verdict_i = not any(dot(func, flat) for func in span.nullspace())

    verdict_ii = span.contains(flat)

    verdict_iii = end_sharp_membership(ApproxModule.from_span(span, total), phi).member

    return TripleResult(verdict_i, verdict_ii, verdict_iii)


def invariance_check(cand, delta, reps):
    """Delta-data invariance condition: assemble the block-diagonal doubled
    representation over the data, generate a module from each grid vector
    (standard basis vectors and one stacked tuple per run of equal
    components), and require the candidate's assembled block matrix to
    preserve every one of them.  Each module is closed under the generators
    alone: the doubled blocks are invertible, so (as in spanned_algebra)
    their inverses lie in the unital algebra A the generators span, and v
    generates A.v under either alphabet.  A delta entry whose label names
    no rep is refused with a ValueError."""
    ngens = generator_count((rep.label, rep.generators) for rep in reps)
    by_label = {rep.label: rep for rep in reps}
    for label, _, _ in delta:
        if label not in by_label:
            raise ValueError("a delta entry names the rep %r, which is not among the reps"
                             % (label,))
    keys = [(label, tuple(point.coords), tuple(tuple(e.coords) for e in etas))
            for label, point, etas in delta]
    evaluated = {}  # each distinct component is evaluated once: its generators, then phi
    for comp, (label, point, etas) in zip(keys, delta):
        if comp not in evaluated:
            rep = by_label[label]
            evaluated[comp] = [iterated_block_derivative(f, etas).evaluate_scalar(point)
                               for f in rep.generators + (cand.component(rep),)]
    blocks = [evaluated[comp] for comp in keys]
    gen_mats = [block_diag([mats[k] for mats in blocks]) for k in range(ngens)]
    phi = block_diag([mats[-1] for mats in blocks])
    sizes, total = [mats[-1].nrows for mats in blocks], phi.nrows
    offs = [sum(sizes[:b]) for b in range(len(sizes))]

    # one stacked tuple per run of identical components (the per-block
    # decision vector), plus their concatenation, which correlates blocks
    run_vecs = []
    for _, run in groupby(range(len(delta)), keys.__getitem__):
        run = list(run)  # the s-th copy's block gets its s-th basis vector
        run_vecs.append({offs[i] + s: ONE for s, i in enumerate(run[:sizes[run[0]]])})
    grid = [{s: ONE} for s in range(total)] + run_vecs
    if len(run_vecs) > 1:  # the runs lie in disjoint blocks
        grid.append({s: x for v in run_vecs for s, x in v.items()})

    return not any(close_span(total, [v], gen_mats).escape(phi) for v in grid)

