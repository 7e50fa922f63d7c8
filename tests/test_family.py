"""Generator families, assembled word algebras, relations, and membership."""

import json
import random
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from jetcalc import approxalg, family, gen, linalg, poly, scalars
from jetcalc.approxalg import ApproxModule
from jetcalc.scalars import Scalar, ZERO, ONE, Scalar as sc
from jetcalc.poly import (Vector, Covector, DiffOp, ExpPoly, Polynomial,
                          parse_exppoly, monomials_upto)
from jetcalc.linalg import (Mat, SpanBasis, mmul, mid, block_diag, kron,
                            close_span, sparse)
from jetcalc.localmod import (cyclic_quotient, maximal_ideal, power_ideal,
                              dual_number_module, MAX_DIM)
from jetcalc.jetfun import jet_family, frobenius, MatPolyFamily
from jetcalc.family import (RepFamily, PWCandidate, family_det_adj,
                            family_to_json, family_from_json,
                            BlockLayout, spanned_algebra,
                            RelationTerm, term_value, relation_to_functional,
                            functional_to_relation, relation_check,
                            membership_triple, invariance_check, delta_block)
from oracles import algebra_from_matrix_basis

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def fam(nvars, rows):
    return MatPolyFamily(nvars, [[parse_exppoly(e, nvars) for e in r] for r in rows])


E1 = cyclic_quotient(maximal_ideal(1)).module      # dim 1, evaluation only
E2 = cyclic_quotient(power_ideal(1, 1)).module     # dim 2, first-order jets
UP = fam(1, [["1", "x1"], ["0", "1"]])
LOW = fam(1, [["1", "0"], ["x1^2", "1"]])
PT = Vector([sc(1)])


def upper_only_rep():
    return RepFamily("u", [UP, RepFamily("tmp", [UP]).inverses[0]])


def test_generator_inverses_are_exact():
    rep = RepFamily("r", [UP, LOW])
    assert rep.inverses[0] == fam(1, [["1", "-x1"], ["0", "1"]])
    assert rep.word_family([1, -1]) == MatPolyFamily.identity(1, 2)
    assert rep.word_family([1, 2]) == UP * LOW
    assert family_det_adj(UP * LOW * UP)[0].pure().degree() == 0


def test_non_unimodular_generators_are_rejected():
    with pytest.raises(ValueError, match="generator 1 of rep 'bad' .* degree 1 and 1 terms"):
        RepFamily("bad", [fam(1, [["x1", "0"], ["0", "1"]])])
    with pytest.raises(ValueError, match="generator 2 of rep 'z' .* determinant is 0"):
        RepFamily("z", [UP, fam(1, [["x1", "1"], ["x1", "1"]])])


def test_the_non_unimodular_refusal_gives_the_determinant_s_size_not_its_text():
    """A 2x2 generator whose determinant prints to more than 500
    characters is refused in a message that names the generator's index
    and the rep's label and gives the determinant's degree and term count."""
    g = fam(2, [["(1/3)*x1^5 + (2/7)*x1^3*x2^2 + (5/11)*x2^4 + (3/13)*x1*x2 + (1/17)",
                 "(7/3)*x2^5 + (4/9)*x1^2*x2 + (2/5)*x1 + (1/19)*x2^3"],
                ["(5/7)*x1^4*x2 + (3/4)*x2^2 + (6/23)*x1^3 + (1/29)",
                 "(9/5)*x1^2*x2^3 + (1/6)*x1 + (8/31)*x2^4 + (2/37)"]])
    det = family_det_adj(g)[0].pure()
    assert len(str(det)) > 500
    with pytest.raises(ValueError) as info:
        RepFamily("wide", [fam(2, [["1", "x1*x2"], ["0", "1"]]), g])
    assert str(info.value) == ("generator 2 of rep 'wide' is not unimodular: its determinant "
                               "has degree %d and %d terms" % (det.degree(), len(det.terms)))


def test_constant_generators_invert_to_constants():
    rep1 = RepFamily("s", [fam(1, [["2"]]), fam(1, [["1"]])])
    assert rep1.inverses[0].entries[0][0] == ExpPoly.const(1, Scalar(1) / Scalar(2))


def test_family_json_round_trip():
    rep = RepFamily("r", [UP, LOW])
    rep1 = RepFamily("s", [fam(1, [["2"]]), fam(1, [["1"]])])
    back = family_from_json(family_to_json([rep, rep1]))
    assert [r.label for r in back] == ["r", "s"]
    assert all(a == b for a, b in zip(back[0].generators, rep.generators))


@st.composite
def unimodular_families(draw):
    """One to three reps sharing nvars, of dimension 1 to 5, each with one or
    two generators that are products of up to four elementary families:
    I + p E_ij off the diagonal, or I with one diagonal entry a unit."""
    nvars = draw(st.integers(1, 2))
    mons = monomials_upto(nvars, 2)
    polys = st.builds(lambda pairs: ExpPoly.from_poly(Polynomial(nvars, dict(pairs))),
                      st.lists(st.tuples(st.sampled_from(mons),
                                         st.builds(sc, st.integers(-3, 3))),
                               max_size=3))
    units = st.sampled_from([sc(2), sc(-1), ONE / sc(3), Scalar(0, 1)])
    reps = []
    for label in "abc"[:draw(st.integers(1, 3))]:
        d = draw(st.integers(1, 5))
        gens = []
        for _ in range(draw(st.integers(1, 2))):
            g = MatPolyFamily.identity(nvars, d)
            for _ in range(draw(st.integers(0, 4))):
                i, j = draw(st.integers(0, d - 1)), draw(st.integers(0, d - 1))
                ents = [list(row) for row in MatPolyFamily.identity(nvars, d).entries]
                ents[i][j] = (ExpPoly.const(nvars, draw(units)) if i == j
                              else draw(polys))
                g = g * MatPolyFamily(nvars, ents)
            gens.append(g)
        reps.append(RepFamily(label, gens))
    return reps


@settings(max_examples=40, deadline=None)
@given(unimodular_families())
def test_family_json_round_trip_keeps_generators_and_inverses(reps):
    back = family_from_json(family_to_json(reps))
    assert [(r.label, r.dim) for r in back] == [(r.label, r.dim) for r in reps]
    for a, b in zip(back, reps):
        assert a.generators == b.generators
        assert a.inverses == b.inverses


def test_family_json_rejects_an_empty_family():
    with pytest.raises(ValueError, match="at least one rep"):
        family_from_json('{"nvars":1,"reps":[]}')
    with pytest.raises(ValueError, match="at least one rep"):
        family_to_json([])


def test_family_json_rejects_a_zero_dimensional_rep():
    text = '{"nvars":1,"reps":[{"label":"z","dim":0,"generators":[[]]}]}'
    with pytest.raises(ValueError, match="positive integer"):
        family_from_json(text)


def test_family_json_refuses_a_repeated_label_before_parsing(monkeypatch):
    """Labels key a candidate's components, so two reps labelled "a", of
    dimensions 1 and 2, would let a component be read at the wrong one."""
    text = family_to_json([RepFamily("a", [fam(1, [["2"]])]), RepFamily("a", [UP])])

    def no_parse(nvars):
        def parse(s):
            raise AssertionError("an entry was parsed")
        return parse

    monkeypatch.setattr(family, "entry_parser", no_parse)
    with pytest.raises(ValueError, match="rep label 'a' is repeated"):
        family_from_json(text)


GOOD_REP = '{"label": "r", "dim": 1, "generators": [["2"]]}'


@pytest.mark.parametrize("text, field", [
    ("{}", "'nvars'"), ("[]", "'nvars'"), ("null", "'nvars'"),
    ('{"nvars": true, "reps": [%s]}' % GOOD_REP, "'nvars' is True"),
    ('{"nvars": 100, "reps": [%s]}' % GOOD_REP, "'nvars' is 100"),
    ('{"nvars": "a", "reps": [%s]}' % GOOD_REP, "'nvars' is 'a'"),
    ('{"nvars": 1.5, "reps": [%s]}' % GOOD_REP, "'nvars' is 1.5"),
    ('{"nvars": 1}', "'reps' is None"),
    ('{"nvars": 1, "reps": {}}', "'reps' is {}"),
    ('{"nvars": 1, "reps": [null]}', "rep label is None"),
    ('{"nvars": 1, "reps": [{"dim": 1, "generators": [["2"]]}]}', "rep label is None"),
    ('{"nvars": 1, "reps": [{"label": "r", "dim": 1}]}', "'generators' is None"),
])
def test_family_json_refuses_bad_fields_by_name(text, field):
    with pytest.raises(ValueError, match=field):
        family_from_json(text)


@pytest.mark.parametrize("text, field", [
    ("{}", "'nvars' is None"), ("[]", "'nvars' is None"), ("null", "'nvars' is None"),
    ('{"nvars": 2, "components": {}}', "'nvars' is 2; it must be its reps' 1"),
    ('{"nvars": true, "components": {}}', "'nvars' is True"),
    ('{"nvars": 1, "components": []}', "'components' is \\[\\]"),
    ('{"nvars": 1, "components": {"R": ["0", "0", null, "0"]}}', "must be a string"),
])
def test_candidate_json_refuses_bad_fields_by_name(text, field):
    reps = family_from_json((FIXTURES / "reducible_family.json").read_text())
    with pytest.raises(ValueError, match=field):
        PWCandidate.from_json(text, reps)


def cofactor(F, rows, cols):
    """Reference determinant of the minor of F on the given row and column
    tuples: recursive expansion along its first row, O(n!) products."""
    if not rows:
        return ExpPoly.const(F.nvars, ONE)
    acc = ExpPoly.zero(F.nvars)
    for t, c in enumerate(cols):
        term = F.entries[rows[0]][c] * cofactor(F, rows[1:], cols[:t] + cols[t + 1:])
        acc = acc + (term if t % 2 == 0 else -term)
    return acc


def reference_det_adj(F):
    idx = tuple(range(F.rows))
    adj = [[cofactor(F, idx[:c] + idx[c + 1:], idx[:r] + idx[r + 1:])
            * (1 if (r + c) % 2 == 0 else -1) for c in idx] for r in idx]
    return cofactor(F, idx, idx), MatPolyFamily(F.nvars, adj)


def square_families(rng, count, dmax=4, dmin=1):
    """Seeded square families of size dmin..dmax: unimodular products of
    elementary families, the same plus random polynomials (not unimodular),
    and matrices with exponential-polynomial entries, sparse and dense."""
    for i in range(count):
        d, nvars, kind = rng.randint(dmin, dmax), rng.randint(1, 2), i % 3
        g = gen.rand_elementary_family(rng, nvars, d)
        for _ in range(rng.randint(0, 3)):
            g = g * gen.rand_elementary_family(rng, nvars, d)
        if kind == 1:
            g = g + MatPolyFamily(nvars, [[ExpPoly.from_poly(gen.rand_poly(
                rng, nvars, 2, nterms=(0, 2))) for _ in range(d)] for _ in range(d)])
        elif kind == 2:
            g = MatPolyFamily(nvars, [[e + ExpPoly.exp(
                [sc(rng.randint(-2, 2)) for _ in range(nvars)],
                gen.rand_poly(rng, nvars, 1, nterms=(1, 2)))
                if rng.random() < 0.4 else e for e in row] for row in g.entries])
        yield g


def test_det_adj_match_the_cofactor_expansion():
    """family_det_adj's det and adjugate equal the cofactor expansion's on
    unimodular, non-unimodular and exponential families of size <= 4, on
    families of size 5 and 6, where the divisions by 4, 5 and 6 must
    cancel, and on families whose entries carry formal units E[a] (each
    entry translated by its own point); they satisfy F adj F = adj F F =
    det F I and det(FG) = det F det G."""
    rng = random.Random(8)
    fams = list(square_families(rng, 90))
    large = list(square_families(rng, 8, dmax=6, dmin=5))
    translated = [MatPolyFamily(F.nvars, [[e.translate(gen.rand_point(rng, F.nvars))
                                           for e in row] for row in F.entries])
                  for F in square_families(rng, 30)]
    sizes, dets = set(), set()
    for F in fams + large + translated:
        det, adj = family_det_adj(F)
        assert (det, adj) == reference_det_adj(F)
        scalar = MatPolyFamily(F.nvars, [[det if r == c else ExpPoly.zero(F.nvars)
                                          for c in range(F.rows)] for r in range(F.rows)])
        assert F * adj == adj * F == scalar
        sizes.add(F.rows)
        dets.add("unit" if any(unit for _, unit in det.terms) else
                 "exponential" if not det.is_polynomial() else
                 "unimodular" if det and det.pure().degree() == 0 else "other")
    assert sizes == {1, 2, 3, 4, 5, 6}
    assert dets == {"unit", "exponential", "unimodular", "other"}
    for F in fams[:30]:
        G = next(G for G in fams if (G.rows, G.nvars) == (F.rows, F.nvars))
        assert (family_det_adj(F * G)[0]
                == family_det_adj(F)[0] * family_det_adj(G)[0])


def test_det_adj_of_size_n_makes_n_minus_2_family_products(monkeypatch):
    """family_det_adj reads the last coefficient c_n from traces of the
    coefficient products, so a family of size n costs max(n - 2, 0)
    products of two families (scaling by a number is not counted)."""
    rng = random.Random(22)
    mul, count = MatPolyFamily.__mul__, [0]

    def counted(self, other):
        count[0] += isinstance(other, MatPolyFamily)
        return mul(self, other)

    monkeypatch.setattr(MatPolyFamily, "__mul__", counted)
    for n in range(1, 7):
        for F in square_families(rng, 3, dmax=n, dmin=n):
            count[0] = 0
            family_det_adj(F)
            assert count[0] == max(n - 2, 0), (n, count[0])


def test_det_adj_refuses_a_non_square_family():
    with pytest.raises(ValueError, match="non-square"):
        family_det_adj(fam(1, [["1", "x1"]]))


def product_budget(monkeypatch, budget):
    """Count the Scalars built through scalars._mk, at every module binding
    of it, from here on, failing at once when more than `budget` are built;
    returns the one-item count list."""
    count = [0]
    mk = scalars._mk

    def counted(*args):
        count[0] += 1
        assert count[0] <= budget, "built more than %d Scalars" % budget
        return mk(*args)

    for module in (scalars, poly, linalg):
        monkeypatch.setattr(module, "_mk", counted)
    return count


def elementary_products(seed, d, factors, ngens=2):
    rng = random.Random(seed)
    gens = []
    for _ in range(ngens):
        g = gen.rand_elementary_family(rng, 1, d)
        for _ in range(factors - 1):
            g = g * gen.rand_elementary_family(rng, 1, d)
        gens.append(g)
    return gens


def test_a_d7_rep_is_built_in_few_products(monkeypatch):
    """Building and validating a 7 x 7 rep builds at most 2 * 7^4 Scalars;
    cofactor expansion formed tens of thousands of entry products."""
    for seed in range(3):
        gens = elementary_products(seed, 7, 4)
        count = product_budget(monkeypatch, 2 * 7 ** 4)
        rep = RepFamily("w", gens)
        assert 0 < count[0] <= 2 * 7 ** 4
        monkeypatch.undo()
        assert all(g * gi == MatPolyFamily.identity(1, 7)
                   for g, gi in zip(rep.generators, rep.inverses))


def test_a_wide_rep_loads_in_few_products(monkeypatch):
    """fixtures/wide_family.json holds one 10 x 10 rep whose two generators
    are products of fourteen elementary families (elementary_products(10,
    10, 14)); it loads building at most 2 * 10^4 Scalars."""
    text = (FIXTURES / "wide_family.json").read_text()
    count = product_budget(monkeypatch, 2 * 10 ** 4)
    (rep,) = family_from_json(text)
    assert count[0] > 0
    monkeypatch.undo()
    assert rep.dim == 10
    assert list(rep.generators) == elementary_products(10, 10, 14)


def test_family_json_bounds_the_rep_dimension(monkeypatch):
    """A rep above MAX_DIM is refused, by name, before any entry is
    parsed; a rep of MAX_DIM loads building at most 2 * 12^4 Scalars."""
    parsed = []

    def spying_parser(nvars):
        def parse(text):  # fails at once where the bound is missing
            parsed.append(text)
            raise AssertionError("an entry was parsed")
        return parse

    n = MAX_DIM
    assert n == 12
    ident = [["1" if r == c else "0" for c in range(n + 1)] for r in range(n + 1)]
    text = json.dumps({"nvars": 1, "reps": [
        {"label": "small", "dim": 1, "generators": [["2"]]},
        {"label": "big", "dim": n + 1, "generators": [sum(ident, [])]}]})
    monkeypatch.setattr(family, "entry_parser", spying_parser)
    with pytest.raises(ValueError, match="'big' has dimension 13; .* no larger than 12"):
        family_from_json(text)
    with pytest.raises(ValueError, match="'big' has dimension True"):
        family_from_json(text.replace('"dim": 13', '"dim": true'))
    assert parsed == []
    monkeypatch.undo()
    wide = RepFamily("w", elementary_products(12, n, 6))
    text = family_to_json([wide])
    product_budget(monkeypatch, 2 * n ** 4)
    (back,) = family_from_json(text)
    assert back.generators == wide.generators


def word_value(layout, word):
    """The product of a word's assembled letter matrices."""
    acc = mid(layout.total)
    for k in word:
        acc = mmul(acc, layout.assemble(lambda rep: rep.letter(k)))
    return acc


def test_assembled_words_multiply_and_cancel():
    rep = RepFamily("r", [UP, LOW])
    layout = BlockLayout([rep], [PT], E2)
    w1, w2 = [1, 2], [-1, 2, 1]
    assert word_value(layout, w1 + w2) == mmul(word_value(layout, w1),
                                               word_value(layout, w2))
    assert word_value(layout, []) == mid(4)
    assert word_value(layout, [2, -2]) == mid(4)
    direct = jet_family(rep.word_family(w1), E2).evaluate_scalar((sc(1),))
    assert word_value(layout, w1) == direct
    assert layout.assemble(lambda rep: rep.word_family(w1)) == direct


def test_word_candidates_assemble_to_the_word_image():
    rep = RepFamily("r", [UP, LOW])
    rep1 = RepFamily("s", [fam(1, [["2"]]), fam(1, [["1"]])])
    cand = PWCandidate.from_word([rep, rep1], [1, 2])
    layout = BlockLayout([rep, rep1], [PT], E2)
    phi = layout.assemble(cand.component)
    assert phi == word_value(layout, [1, 2])
    again = PWCandidate.from_json(cand.to_json(), [rep, rep1])
    assert layout.assemble(again.component) == phi


def test_an_assembly_forms_one_jet_per_rep(monkeypatch):
    """Each rep's jet does not depend on the point, so an assembly forms it
    once and evaluates it at each of the rep's points."""
    calls = []

    def counted(F, E):
        calls.append(F)
        return jet_family(F, E)

    monkeypatch.setattr(family, "jet_family", counted)
    rep = RepFamily("r", [UP, LOW])
    rep1 = RepFamily("s", [fam(1, [["2"]]), fam(1, [["1"]])])
    layout = BlockLayout([rep, rep1], [PT, Vector([sc(-2)])], E2)
    assert len(layout.blocks) == 4
    for k in (1, -2):
        del calls[:]
        letters = layout.assemble(lambda r: r.letter(k))
        assert calls == [rep.letter(k), rep1.letter(k)]
        assert letters == block_diag([jet_family(r.letter(k), E2).evaluate_scalar(p)
                                      for r, p, _, _ in layout.blocks])
    cand = PWCandidate.from_word([rep, rep1], [1, -2])
    del calls[:]
    layout.assemble(cand.component)
    assert len(calls) == 2
    with pytest.raises(ValueError, match="arity mismatch"):
        BlockLayout([rep, RepFamily("t", [fam(2, [["1"]])])], [PT], E2)


def test_spanned_algebra_dimensions_reflect_the_generators():
    rep = RepFamily("r", [UP, LOW])
    span, _ = spanned_algebra([rep], [PT], E1)
    assert len(span.rows) == 4  # opposite unipotents reach all 2x2 values
    span_u, _ = spanned_algebra([upper_only_rep()], [PT], E1)
    assert len(span_u.rows) == 2  # identity and the nilpotent part only


def test_membership_triple_accepts_words_and_rejects_outsiders():
    upo = upper_only_rep()
    res = membership_triple(PWCandidate.from_word([upo], [1, 1]), [upo], [PT], E1)
    assert res.unanimous and res.member
    escape = PWCandidate(1, {"u": LOW})
    res2 = membership_triple(escape, [upo], [PT], E1)
    assert res2.unanimous and not res2.member


def test_membership_triple_with_jets_and_two_reps():
    rep = RepFamily("r", [UP, LOW])
    rep1 = RepFamily("s", [fam(1, [["2"]]), fam(1, [["1"]])])
    res = membership_triple(PWCandidate.from_word([rep, rep1], [2, 1]),
                            [rep, rep1], [PT], E2)
    assert res.unanimous and res.member
    repu2 = RepFamily("r", [UP, fam(1, [["1", "2*x1"], ["0", "1"]])])
    below = PWCandidate(1, {"r": fam(1, [["0", "0"], ["x1", "0"]])})
    res2 = membership_triple(below, [repu2, rep1], [PT], E2)
    assert res2.unanimous and not res2.member


def test_verdict_iii_forms_no_basis_products(monkeypatch):
    """membership_triple multiplies no two matrices: phi's corner is tested
    row by row (phi.P and P.phi for the one chain idempotent), the span
    closure maps span vectors by the generators' columns, and none of the
    dim_span^2 products of basis matrices is formed.  family imports no
    matrix product at all."""
    calls = []
    monkeypatch.setattr(approxalg, "mmul", lambda a, b: calls.append(a) or linalg.mmul(a, b))
    assert not hasattr(family, "mmul")
    rep = RepFamily("r", [UP, LOW])
    res = membership_triple(PWCandidate.from_word([rep], [1, -2]), [rep], [PT], E2)
    dim = len(spanned_algebra([rep], [PT], E2)[0].rows)
    assert res.unanimous and res.member and dim >= 4
    assert calls == []


def test_verdict_iii_module_matches_the_checked_matrix_basis_module():
    """The module verdict (iii) builds from the word span has the basis and
    unit of the checked algebra_from_matrix_basis module; its structure constants,
    computed on first read, are the eager ones, and its JSON is the same."""
    rng = random.Random(11)
    seen = set()
    for _ in range(8):
        reps = [gen.rand_repfamily(rng, label, 1, rng.randint(1, 2))
                for label in "ab"[:rng.randint(1, 2)]]
        pts = [gen.rand_point(rng, 1)]
        if rng.random() < 0.5:
            q = gen.rand_point(rng, 1)
            if q.coords != pts[0].coords:
                pts.append(q)
        E = E1 if rng.random() < 0.5 else dual_number_module(
            gen.rand_point(rng, 1, zero_ok=False))
        span, layout = spanned_algebra(reps, pts, E)
        total = layout.total
        mats = [Mat.from_flat(row, total, total) for row in span.rows]
        seen.add((len(reps), len(pts), E.dim))
        lazy = ApproxModule.from_span(span, total)
        _, eager = algebra_from_matrix_basis(mats)
        assert lazy.mats == eager.mats == tuple(mats)
        assert lazy.algebra.chain == eager.algebra.chain
        basis = SpanBasis(total * total, [m.flat() for m in mats])
        products = {}
        for i, a in enumerate(mats):
            for j, b in enumerate(mats):
                coords = basis.coords(mmul(a, b).flat())
                if coords:
                    products[(i, j)] = coords
        assert lazy.algebra.sc == products == eager.algebra.sc
        assert lazy.to_json() == eager.to_json()
    assert {k[0] for k in seen} == {k[1] for k in seen} == {k[2] for k in seen} == {1, 2}


def test_relation_checks_certify_then_evaluate():
    upo = upper_only_rep()
    psi10 = [[ZERO, ZERO], [ONE, ZERO]]
    t_eval = RelationTerm("u", psi10, Vector([sc(2)]), DiffOp.one(1))
    holds, witness = relation_check(PWCandidate.from_word([upo], [1, -1, 1]), [t_eval], [upo])
    assert witness is None and holds
    escape = PWCandidate(1, {"u": LOW})
    holds, witness = relation_check(escape, [t_eval], [upo])
    assert witness is None and not holds

    psi00 = [[ONE, ZERO], [ZERO, ZERO]]
    t_der = RelationTerm("u", psi00, Vector([sc(2)]), DiffOp(1, {(1,): ONE}))
    holds, witness = relation_check(PWCandidate.from_word([upo], [1]), [t_der], [upo])
    assert witness is None and holds

    t_bad = RelationTerm("u", psi00, Vector([sc(2)]), DiffOp.one(1))
    holds, witness = relation_check(escape, [t_bad], [upo])
    assert witness is not None and holds is None


def test_two_term_relations_mix_points_and_orders():
    upo = upper_only_rep()
    psi10 = [[ZERO, ZERO], [ONE, ZERO]]
    t_a = RelationTerm("u", psi10, Vector([sc(0)]), DiffOp.one(1))
    t_b = RelationTerm("u", psi10, Vector([sc(3)]), DiffOp(1, {(1,): ONE}))
    holds, witness = relation_check(PWCandidate.from_word([upo], [1, 1]), [t_a, t_b], [upo])
    assert witness is None and holds


def test_relation_data_packages_into_one_functional():
    upo = upper_only_rep()
    psi10 = [[ZERO, ZERO], [ONE, ZERO]]
    t_a = RelationTerm("u", psi10, Vector([sc(0)]), DiffOp.one(1))
    t_b = RelationTerm("u", psi10, Vector([sc(3)]), DiffOp(1, {(1,): ONE}))
    psi, layout = relation_to_functional([t_a, t_b], [upo])
    assert isinstance(psi, Mat) and psi.nrows == psi.ncols == layout.total
    for w in ([], [1], [1, 1], [-1], [1, -1, 1, 1]):
        phi = layout.assemble(PWCandidate.from_word([upo], w).component)
        direct = (term_value(t_a, upo.word_family(w))
                  + term_value(t_b, upo.word_family(w)))
        assert frobenius(psi, phi) == direct


def test_functionals_translate_back_to_relation_data():
    upo = upper_only_rep()
    psi10 = [[ZERO, ZERO], [ONE, ZERO]]
    t_a = RelationTerm("u", psi10, Vector([sc(0)]), DiffOp.one(1))
    t_b = RelationTerm("u", psi10, Vector([sc(3)]), DiffOp(1, {(1,): ONE}))
    psi, layout = relation_to_functional([t_a, t_b], [upo])
    # every entry of the packaged functional lies in a diagonal block
    block = [off for _, _, off, size in layout.blocks for _ in range(size)]
    assert all(block[r] == block[c] for r, row in enumerate(psi.rows) for c in row)
    terms = functional_to_relation(psi, layout)
    for w in ([], [1, 1], [-1, 1, 1]):
        famw = upo.word_family(w)
        lhs = sum((term_value(t, famw) for t in terms), ZERO)
        assert lhs == term_value(t_a, famw) + term_value(t_b, famw)


def test_cross_block_entries_are_reported_as_discarded():
    """A cross-block entry annihilates every block-diagonal assembly, so
    the back-translation discards it: a functional with one added gives
    the same terms, each with the same value on every word tried."""
    upo = upper_only_rep()
    psi10 = [[ZERO, ZERO], [ONE, ZERO]]
    t_a = RelationTerm("u", psi10, Vector([sc(0)]), DiffOp.one(1))
    t_b = RelationTerm("u", psi10, Vector([sc(3)]), DiffOp(1, {(1,): ONE}))
    psi, layout = relation_to_functional([t_a, t_b], [upo])
    psi_cross = [list(linalg.dense(r, psi.ncols)) for r in psi.rows]
    psi_cross[0][layout.blocks[1][2]] = ONE
    psi_cross = Mat.of(psi_cross)
    assert psi_cross != psi
    terms = functional_to_relation(psi, layout)
    cross_terms = functional_to_relation(psi_cross, layout)
    assert len(terms) == len(cross_terms) > 0
    for w in ([], [1], [1, 1], [-1, 1, 1]):
        famw = upo.word_family(w)
        assert ([term_value(t, famw) for t in cross_terms]
                == [term_value(t, famw) for t in terms]), w


def test_invariance_over_decision_data():
    upo = upper_only_rep()
    escape = PWCandidate(1, {"u": LOW})
    eta = Covector([ONE])
    delta = [("u", PT, [eta]), ("u", PT, [eta])]
    assert invariance_check(PWCandidate.from_word([upo], [1, 1]), delta, [upo])
    assert not invariance_check(escape, delta, [upo])
    delta0 = [("u", PT, []), ("u", PT, [])]
    assert invariance_check(PWCandidate.from_word([upo], [-1]), delta0, [upo])
    assert not invariance_check(escape, delta0, [upo])


def test_invariance_agrees_with_membership_at_evaluation_level():
    upo = upper_only_rep()
    pts = [Vector([sc(1)]), Vector([sc(2)])]
    drift = PWCandidate(1, {"u": fam(1, [["1", "x1 - 1"], ["0", "1"]])})
    const2 = PWCandidate(1, {"u": fam(1, [["1", "2"], ["0", "1"]])})
    escape = PWCandidate(1, {"u": LOW})
    delta = [("u", pts[0], []), ("u", pts[0], []),
             ("u", pts[1], []), ("u", pts[1], [])]
    for c in (PWCandidate.from_word([upo], [1, 1]), const2, drift, escape):
        t = membership_triple(c, [upo], pts, E1)
        assert t.unanimous
        assert invariance_check(c, delta, [upo]) == t.member


def test_invariance_agrees_with_membership_at_jet_level():
    # the constant-translation candidate passes pointwise but fails on jets
    upo = upper_only_rep()
    const2 = PWCandidate(1, {"u": fam(1, [["1", "2"], ["0", "1"]])})
    escape = PWCandidate(1, {"u": LOW})
    E_eta = dual_number_module(Vector([ONE]))
    delta = [("u", PT, [Covector([ONE])])] * 4
    for c in (PWCandidate.from_word([upo], [1, 1, 1]), const2, escape):
        t = membership_triple(c, [upo], [PT], E_eta)
        assert t.unanimous
        assert invariance_check(c, delta, [upo]) == t.member
    assert not membership_triple(const2, [upo], [PT], E_eta).member


def test_invariance_evaluates_each_distinct_component_once(monkeypatch):
    """The CLI and the benchmark repeat each delta component rep.dim times;
    invariance_check evaluates each distinct (label, point, etas) once, and
    its verdicts still agree with membership."""
    calls = []

    def counted(fams, etas, point):
        calls.append((fams, etas, point))
        return delta_block(fams, etas, point)

    monkeypatch.setattr(family, "delta_block", counted)
    for rng, reps, pts, _ in random_layouts(13, 8):
        delta = [(rep.label, p, []) for rep in reps for p in pts
                 for _ in range(rep.dim)]
        for member in (True, False):
            cand, _ = gen.rand_candidate(rng, reps, maxlen=4, member=member)
            del calls[:]
            verdict = invariance_check(cand, delta, reps)
            assert len(calls) == len(reps) * len(pts)
            t = membership_triple(cand, reps, pts, E1)
            assert t.unanimous and verdict == t.member
    # at the jet level, where a constant translation passes pointwise only
    upo = upper_only_rep()
    E_eta = dual_number_module(Vector([ONE]))
    delta = [("u", PT, [Covector([ONE])])] * 4
    for c in (PWCandidate.from_word([upo], [1, 1]), PWCandidate(1, {"u": LOW}),
              PWCandidate(1, {"u": fam(1, [["1", "2"], ["0", "1"]])})):
        del calls[:]
        verdict = invariance_check(c, delta, [upo])
        assert len(calls) == 1
        assert verdict == membership_triple(c, [upo], [PT], E_eta).member


def random_layouts(seed, count):
    """Seeded layouts: 1-2 reps of dim 1-3, 1-2 points, and the evaluation
    or a dual-number module."""
    rng = random.Random(seed)
    for i in range(count):
        reps = [gen.rand_repfamily(rng, label, 1, rng.randint(1, 3))
                for label in "ab"[:rng.randint(1, 2)]]
        pts = [gen.rand_point(rng, 1)]
        q = gen.rand_point(rng, 1)
        if rng.random() < 0.5 and q.coords != pts[0].coords:
            pts.append(q)
        E = E1 if i % 2 else dual_number_module(gen.rand_point(rng, 1, zero_ok=False))
        yield rng, reps, pts, E


def test_forward_letters_span_the_algebra_of_all_words():
    for _, reps, pts, E in random_layouts(11, 12):
        span, layout = spanned_algebra(reps, pts, E)
        total = layout.total
        ngens = len(reps[0].generators)
        letters = [layout.assemble(lambda rep: rep.letter(k))
                   for k in range(-ngens, ngens + 1) if k]
        # X g flattened is (I kron g^T) applied to X flattened
        both = close_span(total * total, [mid(total).flat()],
                          [kron(mid(total), g.T) for g in letters])
        assert span.same_span(both)
        assert span.rows == both.rows


def test_forward_letters_generate_the_invariance_modules():
    for rng, reps, pts, _ in random_layouts(12, 12):
        etas = [gen.rand_covector(rng, 1) for _ in range(rng.randint(0, 1))]
        fwd, inv = [], []
        for rep in reps:
            for p in pts:
                fwd.append(delta_block(rep.generators, etas, p))
                inv.append(delta_block(rep.inverses, etas, p))
        ngens = len(reps[0].generators)
        gens = [block_diag([b[k] for b in fwd]) for k in range(ngens)]
        letters = gens + [block_diag([b[k] for b in inv]) for k in range(ngens)]
        total = gens[0].nrows
        vecs = [[ONE if s == t else ZERO for s in range(total)]
                for t in range(total)]
        vecs.append([gen.rand_scalar(rng) for _ in range(total)])
        for v in vecs:
            one = close_span(total, [v], gens)
            two = close_span(total, [v], letters)
            assert one.same_span(two)


def reference_closure(ncols, seeds, mats):
    """The closure of the seeds under the matrices by a plain breadth-first
    loop, without close_span: it maps the raw vectors that grew the span."""
    span = SpanBasis(ncols)
    frontier = [v for v in map(sparse, seeds) if span.add(v)]
    while frontier:
        frontier = [w for v in frontier for w in (linalg.apply(m, v) for m in mats)
                    if span.add(w)]
    return span


def check_closures(monkeypatch, module):
    """Route module.close_span through a check and return the list of spans
    it closes.  Every vector linalg.apply maps during the closure must be an
    echelon row the closure's span created (its least key a pivot, with ONE
    there), and the closed span must have the reference closure's rows and
    pivots."""
    spans = []
    insert, apply = SpanBasis._insert, linalg.apply

    def checked(ncols, seeds, mats):
        seeds = list(seeds)
        created = {}  # id of each new echelon row -> (its span, the row)

        def inserted(span, v):
            row = insert(span, v)
            if row is not None:
                created[id(row)] = (span, row)
            return row

        def mapped(m, v):
            span, row = created[id(v)]
            assert row is v and min(v) in span.pivots and v[min(v)] == ONE
            return apply(m, v)

        with monkeypatch.context() as patch:
            patch.setattr(SpanBasis, "_insert", inserted)
            patch.setattr(linalg, "apply", mapped)
            span = close_span(ncols, seeds, mats)
        assert all(s is span for s, _ in created.values())
        ref = reference_closure(ncols, seeds, mats)
        assert (span.rows, span.pivots) == (ref.rows, ref.pivots)
        spans.append(span)
        return span

    monkeypatch.setattr(module, "close_span", checked)
    return spans


def test_word_algebras_match_a_reference_closure(monkeypatch):
    spans = check_closures(monkeypatch, family)
    for _, reps, pts, E in random_layouts(11, 12):
        span, _ = spanned_algebra(reps, pts, E)
        assert spans[-1] is span
    assert len(spans) == 12 and max(s.dim for s in spans) > 5


def test_invariance_modules_match_a_reference_closure(monkeypatch):
    spans = check_closures(monkeypatch, family)
    for rng, reps, pts, _ in random_layouts(13, 8):
        etas = [gen.rand_covector(rng, 1) for _ in range(rng.randint(0, 1))]
        delta = [(rep.label, p, etas) for rep in reps for p in pts
                 for _ in range(rep.dim)]
        for member in (True, False):
            cand, _ = gen.rand_candidate(rng, reps, maxlen=4, member=member)
            invariance_check(cand, delta, reps)
    assert len(spans) > 50 and max(s.dim for s in spans) > 3


def test_tuple_modules_match_a_reference_closure(monkeypatch):
    spans = check_closures(monkeypatch, approxalg)
    rng = random.Random(14)
    for _ in range(6):
        _, M = gen.rand_approx_module(rng, 6, junk_ok=True)
        for n in (1, 2):
            grid = [{i: ONE} for i in range(n * M.dim)]
            grid.append([gen.rand_scalar(rng) for _ in range(n * M.dim)])
            for w in grid:
                assert approxalg.close_span(n * M.dim, [w], M.mats) is spans[-1]
    assert max(s.dim for s in spans) > 3


def test_word_algebras_insert_few_entries(monkeypatch):
    """Over the layouts of seeds 11 and 12, spanned_algebra hands
    SpanBasis._insert at most 1,911 entries (1,738 measured, plus 10%):
    close_span steps each new echelon row.  Stepping the raw word images,
    dense in their blocks, inserted 3,673."""
    entries = [0]
    insert = SpanBasis._insert

    def counted(self, v):
        entries[0] += len(v)
        return insert(self, v)

    monkeypatch.setattr(SpanBasis, "_insert", counted)
    for seed in (11, 12):
        for _, reps, pts, E in random_layouts(seed, 12):
            spanned_algebra(reps, pts, E)
    monkeypatch.undo()
    assert 0 < entries[0] <= 1911, entries[0]
