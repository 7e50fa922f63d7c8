"""Generator families, assembled word algebras, relations, and membership."""

import random

import pytest

from jetcalc import approxalg, family, gen, linalg
from jetcalc.approxalg import ApproxAlgebra, ApproxModule
from jetcalc.scalars import Scalar, ZERO, ONE, sc
from jetcalc.poly import Vector, Covector, DiffOp, ExpPoly, parse_exppoly
from jetcalc.linalg import (SpanBasis, mmul, mid, freeze, flatten, unflatten,
                            mat_vec, block_diag, close_span, sparse, dense)
from jetcalc.localmod import (cyclic_quotient, maximal_ideal, power_ideal,
                              dual_number_module)
from jetcalc.jetfun import jet_family, frobenius, MatPolyFamily
from jetcalc.family import (RepFamily, PWCandidate, family_det,
                            family_to_json, family_from_json,
                            assemble_pi, assemble_phi, spanned_algebra,
                            RelationTerm, term_value, relation_to_functional,
                            functional_to_relation, relation_check,
                            membership_triple, invariance_check,
                            intertwiner_graph_check, FunctionalData,
                            delta_block)


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
    assert family_det(UP * LOW * UP).pure().degree() == 0


def test_non_unimodular_generators_are_rejected():
    with pytest.raises(ValueError):
        RepFamily("bad", [fam(1, [["x1", "0"], ["0", "1"]])])


def test_constant_generators_invert_to_constants():
    rep1 = RepFamily("s", [fam(1, [["2"]]), fam(1, [["1"]])])
    assert rep1.inverses[0].entries[0][0] == ExpPoly.const(1, Scalar(1) / Scalar(2))


def test_family_json_round_trip():
    rep = RepFamily("r", [UP, LOW])
    rep1 = RepFamily("s", [fam(1, [["2"]]), fam(1, [["1"]])])
    back = family_from_json(family_to_json([rep, rep1]))
    assert [r.label for r in back] == ["r", "s"]
    assert all(a == b for a, b in zip(back[0].generators, rep.generators))


def test_family_json_rejects_an_empty_family():
    with pytest.raises(ValueError, match="at least one rep"):
        family_from_json('{"nvars":1,"reps":[]}')
    with pytest.raises(ValueError, match="at least one rep"):
        family_to_json([])


def test_family_json_rejects_a_zero_dimensional_rep():
    text = '{"nvars":1,"reps":[{"label":"z","dim":0,"generators":[[]]}]}'
    with pytest.raises(ValueError, match="positive integer"):
        family_from_json(text)


def test_assembled_words_multiply_and_cancel():
    rep = RepFamily("r", [UP, LOW])
    asm = assemble_pi([rep], [PT], E2)
    w1, w2 = [1, 2], [-1, 2, 1]
    assert asm.value(w1 + w2) == mmul(asm.value(w1), asm.value(w2))
    assert asm.value([]) == mid(4)
    assert asm.value([2, -2]) == mid(4)
    direct = jet_family(rep.word_family(w1), E2).evaluate_scalar((sc(1),))
    assert asm.value(w1) == direct


def test_word_candidates_assemble_to_the_word_image():
    rep = RepFamily("r", [UP, LOW])
    rep1 = RepFamily("s", [fam(1, [["2"]]), fam(1, [["1"]])])
    cand = PWCandidate.from_word([rep, rep1], [1, 2])
    asm = assemble_pi([rep, rep1], [PT], E2)
    phi = assemble_phi(cand, [rep, rep1], [PT], E2)
    assert phi == asm.value([1, 2])
    again = PWCandidate.from_json(cand.to_json(), [rep, rep1])
    assert assemble_phi(again, [rep, rep1], [PT], E2) == phi


def test_spanned_algebra_dimensions_reflect_the_generators():
    rep = RepFamily("r", [UP, LOW])
    _, span, _ = spanned_algebra([rep], [PT], E1)
    assert len(span.rows) == 4  # opposite unipotents reach all 2x2 values
    _, span_u, _ = spanned_algebra([upper_only_rep()], [PT], E1)
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
    """membership_triple multiplies matrices only to find phi's corner
    (P.phi.P for the one chain idempotent): the span closure maps span
    vectors by the generators' columns, and none of the dim_span^2 products
    of basis matrices is formed."""
    calls = {"approxalg": 0, "family": 0}

    def counter(name):
        def counted(a, b):
            calls[name] += 1
            return linalg.mmul(a, b)
        return counted

    monkeypatch.setattr(approxalg, "mmul", counter("approxalg"))
    monkeypatch.setattr(family, "mmul", counter("family"))
    rep = RepFamily("r", [UP, LOW])
    res = membership_triple(PWCandidate.from_word([rep], [1, -2]), [rep], [PT], E2)
    dim = res.dims["dim_span"]
    assert res.unanimous and res.member and dim >= 4
    assert calls == {"approxalg": 2, "family": 0}


def test_verdict_iii_module_matches_the_checked_matrix_basis_module():
    """The module verdict (iii) builds from the word span has the basis and
    unit of the checked from_matrix_basis module; its structure constants,
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
        mats, span, asm = spanned_algebra(reps, pts, E)
        total = asm.layout.total
        seen.add((len(reps), len(pts), E.dim))
        lazy = ApproxModule.from_span(span, total)
        _, eager = ApproxAlgebra.from_matrix_basis(mats)
        assert lazy.mats == eager.mats == tuple(mats)
        assert lazy.algebra.chain == eager.algebra.chain
        basis = SpanBasis(total * total, map(flatten, mats))
        products = {}
        for i, a in enumerate(mats):
            for j, b in enumerate(mats):
                coords = basis.coords(flatten(mmul(a, b)))
                if any(coords):
                    products[(i, j)] = {t: c for t, c in enumerate(coords) if c}
        assert lazy.algebra.sc == products == eager.algebra.sc
        assert lazy.to_json() == eager.to_json()
    assert {k[0] for k in seen} == {k[1] for k in seen} == {k[2] for k in seen} == {1, 2}


def test_relation_checks_certify_then_evaluate():
    upo = upper_only_rep()
    psi10 = [[ZERO, ZERO], [ONE, ZERO]]
    t_eval = RelationTerm("u", psi10, Vector([sc(2)]), DiffOp.one(1))
    v = relation_check(PWCandidate.from_word([upo], [1, -1, 1]), [t_eval], [upo])
    assert v.certified and v.holds
    escape = PWCandidate(1, {"u": LOW})
    v2 = relation_check(escape, [t_eval], [upo])
    assert v2.certified and not v2.holds

    psi00 = [[ONE, ZERO], [ZERO, ZERO]]
    t_der = RelationTerm("u", psi00, Vector([sc(2)]), DiffOp(1, {(1,): ONE}))
    v3 = relation_check(PWCandidate.from_word([upo], [1]), [t_der], [upo])
    assert v3.certified and v3.holds

    t_bad = RelationTerm("u", psi00, Vector([sc(2)]), DiffOp.one(1))
    v4 = relation_check(escape, [t_bad], [upo])
    assert not v4.certified and v4.witness is not None and v4.holds is None


def test_two_term_relations_mix_points_and_orders():
    upo = upper_only_rep()
    psi10 = [[ZERO, ZERO], [ONE, ZERO]]
    t_a = RelationTerm("u", psi10, Vector([sc(0)]), DiffOp.one(1))
    t_b = RelationTerm("u", psi10, Vector([sc(3)]), DiffOp(1, {(1,): ONE}))
    v = relation_check(PWCandidate.from_word([upo], [1, 1]), [t_a, t_b], [upo])
    assert v.certified and v.holds


def test_relation_data_packages_into_one_functional():
    upo = upper_only_rep()
    psi10 = [[ZERO, ZERO], [ONE, ZERO]]
    t_a = RelationTerm("u", psi10, Vector([sc(0)]), DiffOp.one(1))
    t_b = RelationTerm("u", psi10, Vector([sc(3)]), DiffOp(1, {(1,): ONE}))
    data = relation_to_functional([t_a, t_b], [upo])
    for w in ([], [1], [1, 1], [-1], [1, -1, 1, 1]):
        phi = assemble_phi(PWCandidate.from_word([upo], w),
                           data.reps, data.points, data.E)
        direct = (term_value(t_a, upo.word_family(w))
                  + term_value(t_b, upo.word_family(w)))
        assert frobenius(data.psi, phi) == direct


def test_functionals_translate_back_to_relation_data():
    upo = upper_only_rep()
    psi10 = [[ZERO, ZERO], [ONE, ZERO]]
    t_a = RelationTerm("u", psi10, Vector([sc(0)]), DiffOp.one(1))
    t_b = RelationTerm("u", psi10, Vector([sc(3)]), DiffOp(1, {(1,): ONE}))
    data = relation_to_functional([t_a, t_b], [upo])
    dec = functional_to_relation(data)
    assert not dec.cross_discarded
    for w in ([], [1, 1], [-1, 1, 1]):
        famw = upo.word_family(w)
        lhs = sum((term_value(t, famw) for t in dec.terms), ZERO)
        assert lhs == term_value(t_a, famw) + term_value(t_b, famw)


def test_cross_block_entries_are_reported_as_discarded():
    upo = upper_only_rep()
    psi10 = [[ZERO, ZERO], [ONE, ZERO]]
    t_a = RelationTerm("u", psi10, Vector([sc(0)]), DiffOp.one(1))
    t_b = RelationTerm("u", psi10, Vector([sc(3)]), DiffOp(1, {(1,): ONE}))
    data = relation_to_functional([t_a, t_b], [upo])
    psi_cross = [list(r) for r in data.psi]
    psi_cross[0][data.layout.blocks[1][2]] = ONE
    data_cross = FunctionalData(data.E, data.reps, data.points,
                                freeze(psi_cross), data.layout)
    assert functional_to_relation(data_cross).cross_discarded


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


def test_intertwiner_graphs_pass_members_only():
    upo = upper_only_rep()
    escape = PWCandidate(1, {"u": LOW})
    N = freeze([[ZERO, ONE], [ZERO, ZERO]])
    d_ev = ("u", PT, [])
    assert intertwiner_graph_check(PWCandidate.from_word([upo], [1]),
                                   d_ev, d_ev, N, [upo])
    assert not intertwiner_graph_check(escape, d_ev, d_ev, N, [upo])
    with pytest.raises(ValueError):
        intertwiner_graph_check(escape, d_ev, d_ev,
                                freeze([[ZERO, ZERO], [ONE, ZERO]]), [upo])


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
        _, span, asm = spanned_algebra(reps, pts, E)
        total = asm.layout.total
        ngens = len(reps[0].generators)
        letters = [asm.letter_matrix(k) for k in range(-ngens, ngens + 1) if k]
        both = close_span(SpanBasis(total * total), [flatten(mid(total))],
                          lambda v: [sparse(flatten(mmul(unflatten(
                              dense(v, total * total), total, total), g)))
                                     for g in letters])
        assert span.same_span(both)
        assert span.frozen_rows() == both.frozen_rows()


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
        total = len(gens[0])
        vecs = [[ONE if s == t else ZERO for s in range(total)]
                for t in range(total)]
        vecs.append([gen.rand_scalar(rng) for _ in range(total)])
        for v in vecs:
            one = close_span(SpanBasis(total), [v],
                             lambda w: [sparse(mat_vec(g, dense(w, total)))
                                        for g in gens])
            two = close_span(SpanBasis(total), [v],
                             lambda w: [sparse(mat_vec(g, dense(w, total)))
                                        for g in letters])
            assert one.same_span(two)
