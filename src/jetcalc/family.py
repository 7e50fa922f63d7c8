"""Families of invertible polynomial matrices playing the role of a group
of representations, and the machinery built on top of them: block
assemblies over (rep, point) pairs with a module of jets, annihilating
relations and their translation to and from functionals on the block space,
and the three-way membership test that ties the span of word images, its
double annihilator, and the End^# criterion together.

Generators are unimodular (constant nonzero determinant), so their inverses
are again polynomial families, and every word evaluates to an exactly
invertible matrix.  A generator's inverse is its adjugate over that
constant; family_det_adj reads both off the characteristic polynomial,
without division.  Words are lists of nonzero ints: +i is the i-th
generator (1-based), -i its inverse.
"""

import json

from .scalars import ZERO, ONE
from .poly import ExpPoly, Vector, diff, entry_parser
from .linalg import (Mat, SpanBasis, CrossCheckError, mmul, mid, block_diag,
                     close_span, square, apply)
from .jetfun import (MatPolyFamily, jet_family_at, iterated_block_derivative,
                     functional_to_diffop, diffop_to_module, frobenius)
from .approxalg import ApproxModule, end_sharp_membership


def family_det_adj(F):
    """(det F, adj F) of a square family, from the coefficients c_1..c_n of
    det(xI - F) = x^n + c_1 x^(n-1) + ... + c_n by Berkowitz's recurrence,
    which needs no division.  det F = (-1)^n c_n, and by Cayley-Hamilton
    adj F = (-1)^(n-1) B with B = F^(n-1) + c_1 F^(n-2) + ... + c_(n-1) I,
    formed by Horner from F + c_1 I.  Products skip zeros and ones."""
    n = F.rows
    if n != F.cols:
        raise ValueError("determinant of a non-square family")
    zero, one = ExpPoly.zero(F.nvars), ExpPoly.const(F.nvars, ONE)
    # the nonzero entries of each row; an entry equal to 1 is `one` itself
    rows = [{j: one if e == one else e for j, e in enumerate(row) if e}
            for row in F.entries]

    def mul(x, y):
        return y if x is one else x if y is one else x * y

    def vec_mat(v, M, keep=range(n)):
        """The nonzero entries of v M in the columns `keep`, for a sparse
        row v and sparse rows M."""
        acc = {}
        for r, x in v.items():
            for j, y in M[r].items():
                if j in keep:
                    acc[j] = acc[j] + mul(x, y) if j in acc else mul(x, y)
        return {j: x for j, x in acc.items() if x}

    c = []  # c_1..c_k of the leading k x k block F_k
    for k in range(n):
        # bordered by row R and column C, F_(k+1) has the coefficients
        # c_i - s_i - sum_j s_(i-j) c_j, where s = (F[k][k], RC, R F_k C, ...)
        s, v = [rows[k].get(k, zero)], {j: x for j, x in rows[k].items() if j < k}
        for m in range(k):  # v = R F_k^m
            v = vec_mat(v, rows, range(k + 1) if m < k - 1 else (k,))
            s.append(v.pop(k, zero))
        t = list(s)
        for i in range(k + 1):
            for j in range(i):
                if s[i - 1 - j] and c[j]:
                    t[i] = t[i] + mul(s[i - 1 - j], c[j])
        c = [c[i] - t[i] for i in range(k)] + [-t[k]]
    B = [dict(row) for row in rows] if n > 1 else [{0: one}]
    for k in range(1, n):
        if k > 1:
            B = [vec_mat(row, B) for row in rows]  # F B
        if c[k - 1]:  # B + c_k I
            for i, row in enumerate(B):
                row[i] = row[i] + c[k - 1] if i in row else c[k - 1]
                if not row[i]:
                    del row[i]
    adj = [[(row[j] if n % 2 else -row[j]) if j in row else zero
            for j in range(n)] for row in B]
    return (-c[-1] if n % 2 else c[-1]), MatPolyFamily(F.nvars, adj)


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
            d, adj = family_det_adj(g)
            if not d.is_polynomial():
                raise ValueError("generator determinant must be polynomial")
            dp = d.pure()
            if dp.degree() != 0 or not dp:
                raise ValueError("generator of %r is not unimodular "
                                 "(determinant %s)" % (label, dp))
            inverses.append(adj.scaled(dp.terms[(0,) * nvars].inverse()))
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


# the largest rep a family file may hold: the CLI's --dimmax ceiling
MAX_REP_DIM = 12


def family_from_json(text):
    data = json.loads(text)
    nvars = data["nvars"]
    if not data["reps"]:
        raise ValueError("a family needs at least one rep")
    for rd in data["reps"]:
        dim = rd["dim"]
        if type(dim) is not int or not 1 <= dim <= MAX_REP_DIM:  # not a JSON true
            raise ValueError("rep %r has dimension %r; it must be a positive integer "
                             "no larger than %d" % (rd["label"], dim, MAX_REP_DIM))
    parse = entry_parser(nvars)
    reps = []
    for rd in data["reps"]:
        gens = [MatPolyFamily(nvars, square(
                    flat, rd["dim"], parse, "generator %d of rep %r" % (g, rd["label"])))
                for g, flat in enumerate(rd["generators"])]
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
        data = json.loads(text)
        nvars = data["nvars"]
        dims = {rep.label: rep.dim for rep in reps}
        parse = entry_parser(nvars)
        comps = {}
        for label, flat in data["components"].items():
            if label not in dims:
                raise ValueError("unknown rep label %r" % label)
            comps[label] = MatPolyFamily(nvars, square(
                flat, dims[label], parse, "candidate component %r" % label))
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
        if any(rep.nvars != E.nvars for rep in reps):
            raise ValueError("arity mismatch")
        self.layout = BlockLayout(reps, points, E)
        self._letter_cache = {}

    def _letter_block(self, rep, point, k):
        key = (rep.label, tuple(point.coords), k)
        if key not in self._letter_cache:
            self._letter_cache[key] = jet_family_at(rep.letter(k), self.layout.E, point)
        return self._letter_cache[key]

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
    return block_diag([jet_family_at(cand.component(rep), E, p)
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
    if any(len(rep.generators) != ngens for rep in reps):
        raise ValueError("reps must share the generator alphabet")
    # X g maps each row of X by g^T
    transposed = [asm.letter_matrix(k).T for k in range(1, ngens + 1)]
    span = close_span(SpanBasis(total * total), [mid(total).flat()],
                      lambda v: [apply(gt, v, total) for gt in transposed])
    mats = [Mat.from_flat(row, total, total) for row in span.rows]
    return mats, span, asm


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
    terms = [diff(term.u, fam.entries[r][c]).evaluate(pt) * h
             for r, hrow in enumerate(term.psi.rows) for c, h in hrow.items()]
    if not terms:
        return ZERO
    acc = sum(terms[1:], terms[0])
    return acc.scalar() if hasattr(acc, "scalar") else acc


class FunctionalData:
    """A functional on the block-diagonal endomorphism space, with the
    module, labels and points it lives over."""

    __slots__ = ("E", "reps", "points", "psi", "layout")

    def __init__(self, E, reps, points, psi, layout):
        self.E = E
        self.reps = reps
        self.points = points
        self.psi = Mat.of(psi)
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
        seen.setdefault(tuple(t.point.coords), t.point)
    points = [seen[k] for k in sorted(seen, key=lambda k: tuple(c.key() for c in k))]
    layout = BlockLayout(sel_reps, points, E)
    psi = [{} for _ in range(layout.total)]
    for t, eta in zip(terms, funcs):
        off = next(off for rep, p, off, _ in layout.blocks
                   if rep.label == t.label and p.coords == t.point.coords)
        d = by_label[t.label].dim
        tpsi = [(rV, cV, hv) for rV, row in enumerate(t.psi.rows)
                for cV, hv in row.items()]
        for rE, row in enumerate(eta.rows):
            for cE, h in row.items():
                for rV, cV, hv in tpsi:
                    r, c = off + rE * d + rV, off + cE * d + cV
                    psi[r][c] = psi[r].get(c, ZERO) + h * hv
    psi = Mat([{c: x for c, x in row.items() if x} for row in psi], layout.total)
    return FunctionalData(E, sel_reps, points, psi, layout)


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
    psi = data.psi.rows
    terms = []
    for rep, p, off, size in layout.blocks:
        d = rep.dim
        # reshape the block as a (module-pair) x (rep-pair) matrix G: entry
        # (off + rE d + rV, off + cE d + cV) is G[rE E.dim + cE][rV d + cV]
        G = [{} for _ in range(E.dim * E.dim)]
        for r in range(size):
            for col, x in psi[off + r].items():
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
    # the blocks tile the diagonal, so an entry is off them iff its row
    # and column lie in different blocks
    block = [off for _, _, off, size in layout.blocks for _ in range(size)]
    cross = any(block[r] != block[c] for r, row in enumerate(psi) for c in row)
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
    for row in span.rows:
        mat = Mat.from_flat(row, data.layout.total, data.layout.total)
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
    membership, (iii) the End^# test over the spanned algebra.  Verdict
    (iii) reuses the word span: its module's basis is the span's echelon
    rows (ApproxModule.from_span), and it still closes its own tuple module
    and solves for a witness."""
    _, span, asm = spanned_algebra(reps, points, E)
    total = asm.layout.total
    phi = assemble_phi(cand, reps, points, E)
    flat = phi.flat()

    verdict_i = not any(sum((x * flat[s] for s, x in func.items() if s in flat), ZERO)
                        for func in span.nullspace())

    verdict_ii = span.contains(flat)

    res = end_sharp_membership(ApproxModule.from_span(span, total), phi)
    verdict_iii = res.member

    dims = {"total": total, "dim_span": len(span.rows)}
    return TripleResult(verdict_i, verdict_ii, verdict_iii, dims,
                        details={"sharp": res})


def delta_block(fams, etas, point):
    """The iterated doubled-space matrices of the given families for one
    delta component (directions etas), evaluated at its point."""
    pt = tuple(point.coords)
    return [Mat.of(iterated_block_derivative(f, etas).evaluate_scalar(pt)) for f in fams]


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
    key = lambda item: (item[0], tuple(item[1].coords),
                        tuple(tuple(e.coords) for e in item[2]))
    evaluated = {}  # each distinct component is evaluated once
    blocks = []
    phis = []
    sizes = []
    for item in delta:
        label, point, etas = item
        rep = by_label[label]
        comp = key(item)
        if comp not in evaluated:
            evaluated[comp] = delta_block(rep.generators + (cand.component(rep),),
                                          etas, point)
        *gmats, pmat = evaluated[comp]
        blocks.append(gmats)
        phis.append(pmat)
        sizes.append(rep.dim * (2 ** len(etas)))
    total = sum(sizes)
    offs = [sum(sizes[:b]) for b in range(len(sizes))]
    ngens = len(reps[0].generators)
    gen_mats = [block_diag([gm[k] for gm in blocks]) for k in range(ngens)]
    phi = block_diag(phis)

    grid = [{s: ONE} for s in range(total)]
    # one stacked tuple per run of identical components (the per-block
    # decision vector), plus their concatenation, which correlates blocks
    run_start = 0
    run_vecs = []
    for i in range(len(delta) + 1):
        if i == len(delta) or (i > run_start and key(delta[i]) != key(delta[run_start])):
            g = i - run_start
            b = sizes[run_start]
            v = {offs[run_start + s] + s: ONE for s in range(min(g, b))}
            grid.append(v)
            run_vecs.append(v)
            run_start = i
    if len(run_vecs) > 1:  # the runs lie in disjoint blocks
        grid.append({s: x for v in run_vecs for s, x in v.items()})
    grid.extend(extra_vectors)

    for v in grid:
        W = close_span(SpanBasis(total), [v],
                       lambda w: [apply(g, w, total) for g in gen_mats])
        if not all(W.contains(apply(phi, row, total)) for row in W.rows):
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
    T = Mat.of(T)
    for a, b in zip(mats[0], mats[1]):
        if mmul(T, a) != mmul(b, T):
            raise ValueError("the given matrix does not intertwine the blocks")
    return mmul(T, phis[0]) == mmul(phis[1], T)
