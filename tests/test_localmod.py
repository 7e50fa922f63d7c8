"""Cofinite ideals, quotient modules, duals, sums, tensors, annihilators."""

import ast
import inspect
import random
import time
from pathlib import Path

import pytest

import jetcalc
from jetcalc import gen
from jetcalc.scalars import ZERO, ONE, Scalar as sc
from jetcalc.poly import Polynomial, Vector, Covector, monomials_upto, monomials_of_degree
from jetcalc import linalg
from jetcalc.linalg import Mat, SpanBasis
from jetcalc.localmod import (PolySpace, CofiniteIdeal, power_ideal,
                              maximal_ideal, dual_number_ideal, FinMod,
                              cyclic_quotient, dual_number_module, direct_sum,
                              tensor)
from oracles import annihilator, annihilator_dual, intertwines, pairing, parse_poly


def test_power_ideal_codimension_counts_low_monomials():
    assert power_ideal(2, 1).codim == 3
    assert power_ideal(2, 2).codim == 6
    assert power_ideal(1, 3).codim == 4
    assert maximal_ideal(2).codim == 1


def test_standard_monomials_ascend_through_the_quotient_basis():
    I = power_ideal(2, 1)
    assert list(I.standard_monomials) == [(0, 0), (0, 1), (1, 0)]


def test_normal_form_is_idempotent_and_detects_membership():
    I = power_ideal(2, 1)
    p = parse_poly("(2) + (1)*x1 + (5)*x1*x2 + (1)*x2^2", 2)
    nf = I.normal_form(p)
    assert I.normal_form(nf) == nf
    assert nf == parse_poly("(2) + (1)*x1", 2)
    assert I.contains(p - nf)
    assert not I.contains(p)


def test_membership_respects_ideal_structure():
    I = dual_number_ideal(Vector((1, 2)))
    # x2 - 2 x1 generates the linear part: any multiple stays inside
    gen = parse_poly("(1)*x2 + (-2)*x1", 2)
    assert I.contains(gen)
    assert I.contains(gen * parse_poly("(3)*x1 + (1)", 2))
    assert not I.contains(parse_poly("(1)*x1", 2))


def test_the_power_bound_is_derived():
    """(x1^2) has order 1, and (x1 - x2^2, x1 x2), whose quotient has the
    basis 1, x2, x1 with x1 = x2^2 nonzero, has order 2 though no
    generator's lowest degree passes 2, so its first closure, at 2, holds
    no whole degree."""
    assert CofiniteIdeal(1, [parse_poly("(1)*x1^2", 1)]).k == 1
    I = CofiniteIdeal(2, [parse_poly("(1)*x1 + (-1)*x2^2", 2), parse_poly("(1)*x1*x2", 2)])
    assert (I.k, I.standard_monomials) == (2, [(0, 0), (0, 1), (1, 0)])


def test_non_cofinite_generators_are_rejected():
    """(x1) in two and three variables misses the powers of the others,
    and the zero ideal misses everything: each is refused by name in under
    a second."""
    for nvars, gens in ((2, [Polynomial.variable(2, 0)]), (3, [Polynomial.variable(3, 0)]),
                        (1, [Polynomial.zero(1)])):
        t0 = time.perf_counter()
        with pytest.raises(ValueError, match=r"^the ideal is not cofinite: m\^12 does not "
                                             r"lie inside it$"):
            CofiniteIdeal(nvars, gens)
        assert time.perf_counter() - t0 < 1


def test_no_call_in_the_package_passes_an_order_to_an_ideal():
    """CofiniteIdeal takes the arity and the generators only, and every
    call of it in the package passes just those two."""
    assert list(inspect.signature(CofiniteIdeal).parameters) == ["nvars", "generators"]
    calls = [node for path in sorted(Path(jetcalc.__file__).parent.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Call) and "CofiniteIdeal" in (
                 getattr(node.func, "id", None), getattr(node.func, "attr", None))]
    assert len(calls) == 4  # power, maximal and dual-number ideals, and gen's
    assert all(len(call.args) == 2 and not call.keywords for call in calls)


def test_unit_ideal_has_codimension_zero():
    I = CofiniteIdeal(1, [parse_poly("(1) + (1)*x1", 1)])
    assert (I.codim, I.k) == (0, 0)
    assert annihilator_dual(I) == []
    assert cyclic_quotient(I).module.dim == 0


def test_dual_number_module_matches_its_ideal_quotient():
    lam = Vector((1, 2))
    E = dual_number_module(lam)
    assert E.dim == 2 and E.k == 1
    # action of x_j: derivative in the top-right corner
    assert E.mats[0] == Mat.of(((ZERO, ONE), (ZERO, ZERO)))
    assert E.mats[1] == Mat.of(((ZERO, sc(2)), (ZERO, ZERO)))
    Q = cyclic_quotient(dual_number_ideal(lam))
    T = ((ZERO, sc(2)), (ONE, ZERO))
    assert intertwines(Q.module, E, T)
    assert SpanBasis(2, Mat.of(T).rows).dim == 2  # T is invertible


def test_module_map_must_intertwine():
    lam = Vector((1, 2))
    E = dual_number_module(lam)
    Q = cyclic_quotient(dual_number_ideal(lam))
    assert not intertwines(Q.module, E, ((ZERO, ONE), (ONE, ZERO)))


def test_cyclic_quotient_projects_polynomials_correctly():
    I = power_ideal(1, 2)
    cq = cyclic_quotient(I)
    p = parse_poly("(1) + (3)*x1 + (5)*x1^2 + (7)*x1^3", 1)
    nf = I.normal_form(p)
    assert cq.monomials == ((0,), (1,), (2,))
    assert [nf.terms.get(m, ZERO) for m in cq.monomials] == [ONE, sc(3), sc(5)]


def test_validation_rejects_noncommuting_or_unbounded_actions():
    a = ((ZERO, ONE), (ZERO, ZERO))
    b = ((ZERO, ZERO), (ONE, ZERO))
    with pytest.raises(ValueError, match="do not commute"):
        FinMod([a, b])
    with pytest.raises(ValueError, match="not nilpotent"):
        FinMod([((ZERO, ONE), (ONE, ZERO))])
    assert FinMod([a]).k == 1


def test_a_module_repr_reads_no_order():
    """repr prints the shape only, so it neither forms the order loop's
    products nor raises on a module whose action is not nilpotent."""
    E = FinMod([((ZERO, ONE), (ONE, ZERO))], check=False)
    assert repr(E) == "FinMod(nvars=1, dim=2)"
    assert E._k is None


def test_exp_action_is_truncated_exponential():
    E = dual_number_module(Vector((1, 2)))
    xi = Covector((sc(3), sc(1)))
    assert E.exp_action(xi) == Mat.of(((ONE, sc(5)), (ZERO, ONE)))


def test_direct_sum_and_tensor_shapes():
    E = dual_number_module(Vector((1,)))
    S = direct_sum(E, E)
    assert S.dim == 4 and S.k == 1
    T = tensor(E, E)
    assert T.dim == 4 and T.k == 2
    # x^2 acts on 1 tensor 1 by 2 (X tensor X) and x^3 by zero: order 2
    m = T.mats[0]
    sq = linalg.mmul(m, m)
    assert any(sq.rows)
    assert not any(linalg.mmul(sq, m).rows)


def test_tensor_exponential_factors_through_the_pieces():
    # Leibniz action means exp on the tensor is the kron of the factor exps.
    E = dual_number_module(Vector((2,)))
    F = cyclic_quotient(power_ideal(1, 1)).module
    T = tensor(E, F)
    xi = Covector((sc(3),))
    a = [linalg.dense(row, 2) for row in E.exp_action(xi).rows]
    b = [linalg.dense(row, 2) for row in F.exp_action(xi).rows]
    kron = Mat.of([[a[i1][j1] * b[i2][j2] for j1 in range(2) for j2 in range(2)]
                   for i1 in range(2) for i2 in range(2)])
    assert T.exp_action(xi) == kron


def test_annihilator_recovers_the_defining_ideal():
    for I in (power_ideal(2, 1), dual_number_ideal(Vector((1, 2))),
              power_ideal(1, 2)):
        E = cyclic_quotient(I).module
        J = annihilator(E)
        assert (J.nvars, J.k) == (I.nvars, I.k) and J.span.same_span(I.span)


def test_annihilator_dual_pairs_like_derivatives():
    I = dual_number_ideal(Vector((1, 2)))
    ops = annihilator_dual(I)
    assert len(ops) == I.codim == 2
    for u in ops:
        for g in map(I.space.from_vec, I.span.rows):
            assert not pairing(g, u)
    # and they separate the standard monomials: the pairing Gram is invertible
    gram = [[pairing(Polynomial.monomial(2, m), u).scalar() for u in ops]
            for m in I.standard_monomials]
    linalg.mat_inverse(gram)  # raises if singular


def test_module_json_round_trip():
    E = tensor(dual_number_module(Vector((1, 2))),
               cyclic_quotient(power_ideal(2, 1)).module)
    E2 = FinMod.from_json(E.to_json())
    assert E2.nvars == E.nvars and E2.k == E.k and E2.mats == E.mats


@pytest.mark.parametrize("text, field", [
    ("{}", "nvars"), ("[]", "nvars"), ("null", "nvars"),
    ('{"nvars": 20, "k": 4, "dim": 1, "action": [["0"]]}', "nvars"),
    ('{"nvars": 1.5, "k": 4, "dim": 1, "action": [["0"]]}', "nvars"),
    ('{"nvars": true, "k": 4, "dim": 1, "action": [["0"]]}', "nvars"),
    ('{"nvars": -1, "k": 4, "dim": 1, "action": []}', "nvars"),
    ('{"nvars": 0, "k": 1, "dim": 3, "action": []}', "nvars"),
    ('{"nvars": 1, "k": 1, "dim": 13, "action": [["0"]]}', "dim"),
    ('{"nvars": 1, "k": 1, "dim": 1}', "action"),
    ('{"nvars": 2, "k": 1, "dim": 1, "action": [["0"]]}', "action"),
    ('{"nvars": 1, "k": 1, "dim": 0, "action": {}}', "action"),
])
def test_module_json_refuses_bad_fields_before_parsing(monkeypatch, text, field):
    def no_parse(s):
        raise AssertionError("an entry was parsed")

    monkeypatch.setattr("jetcalc.localmod.scalar_parser", lambda: no_parse)
    with pytest.raises(ValueError, match="'%s'" % field):
        FinMod.from_json(text)


def test_module_json_refuses_a_division_by_zero_with_a_value_error():
    with pytest.raises(ValueError, match="'/0' divides by zero"):
        FinMod.from_json('{"nvars": 1, "k": 1, "dim": 1, "action": [["1/0"]]}')


def test_module_order_is_validated_in_degree_at_most_the_dimension(monkeypatch):
    """Commuting nilpotent d x d matrices multiply to 0 in degree d, so
    reading the order forms no product past degree d, and a file's stale
    "k" is ignored; monomial matrices of any degree are formed by a loop,
    not recursion."""
    calls = [0]
    mmul = linalg.mmul

    def counted(a, b):
        calls[0] += 1
        return mmul(a, b)

    monkeypatch.setattr("jetcalc.localmod.mmul", counted)
    zero = FinMod.from_json('{"nvars": 3, "k": 16, "dim": 1, '
                            '"action": [["0"], ["0"], ["0"]]}')
    assert calls[0] == 2 * 3  # both orders of 3 pairs; degree 1 is zero
    assert zero.k == 0
    shift = ((ZERO, ONE, ZERO), (ZERO, ZERO, ONE), (ZERO, ZERO, ZERO))
    calls[0] = 0
    E = FinMod([shift])
    assert calls[0] == 2  # x^2, x^3
    monkeypatch.undo()
    assert not any(E.mon_mat((3000,)).rows)
    assert E.mon_mat((2,)) == Mat.of(((ZERO, ZERO, ONE), (ZERO,) * 3, (ZERO,) * 3))
    assert E.k == 2
    cycle = ((ZERO, ONE, ZERO), (ZERO, ZERO, ONE), (ONE, ZERO, ZERO))
    with pytest.raises(ValueError, match="not nilpotent"):
        FinMod([cycle])
    with pytest.raises(ValueError, match="not nilpotent"):
        FinMod([((ONE,),)])
    assert FinMod.from_json(zero.to_json()) == zero


def product_image(ideal, bound):
    """The ideal's image in degrees <= bound by products: every generator
    times every monomial of degree <= bound, truncated."""
    space = PolySpace(ideal.nvars, bound)
    span = linalg.SpanBasis(space.dim)
    for g in ideal.generators:
        for m in monomials_upto(ideal.nvars, bound):
            span.add(space.to_vec((g * Polynomial.monomial(ideal.nvars, m)).truncate(bound)))
    return span


def test_the_spun_ideal_image_is_the_span_of_truncated_products():
    """image_span spins the truncated generators under the variable shifts;
    it equals the span of the truncated products of generators and
    monomials at the bounds k, k + 1 and the subquotient bound k * nvars."""
    rng = random.Random(20)
    seen = set()
    for _ in range(60):
        nv = rng.randint(1, 3)
        ideal = gen.rand_cofinite_ideal(rng, nv, 3 if nv < 3 else 2)
        for bound in (ideal.k, ideal.k + 1, ideal.k * nv):
            got, ref = ideal.image_span(bound), product_image(ideal, bound)
            assert (got.rows, got.pivots) == (ref.rows, ref.pivots), (nv, ideal.k, bound)
        seen.add((nv, ideal.k))
    assert {nv for nv, _ in seen} == {1, 2, 3} and (3, 2) in seen and (2, 3) in seen


def two_closure_span(nvars, k, gens):
    """(rows, pivots) of the ideal image in degrees <= k, built by two
    closures: one at k + 1 that must hold every degree-(k+1) monomial, and
    one at k; None if the first does not hold them all."""
    def close(bound):
        space = PolySpace(nvars, bound)
        return space, linalg.close_span(space.dim, [space.to_vec(g.truncate(bound))
                                                    for g in gens], space.shifts)

    space, span = close(k + 1)
    if not all(span.contains(space.to_vec(Polynomial.monomial(nvars, m)))
               for m in monomials_of_degree(nvars, k + 1)):
        return None
    _, span = close(k)
    return span.rows, span.pivots


def test_one_closure_gives_the_span_of_two():
    """A CofiniteIdeal closes its generators at a bound B > k, and its span
    is the two-closure span on power, maximal, dual-number, enlarged,
    annihilator and unit ideals, whose k is the least that the two-closure
    route certifies; (x1^2) in two variables is refused as not cofinite."""
    rng = random.Random(25)
    x1 = Polynomial.variable(2, 0)
    ideals = [power_ideal(2, 2), power_ideal(3, 1), maximal_ideal(1), maximal_ideal(3),
              CofiniteIdeal(2, [x1 + 1]), CofiniteIdeal(1, [Polynomial.const(1, 3)])]
    for _ in range(30):
        nv = rng.randint(1, 3)
        ideals.append(gen.rand_cofinite_ideal(rng, nv, 3 if nv < 3 else 2))
        ideals.append(dual_number_ideal(gen.rand_point(rng, nv, zero_ok=False)))
        ideals.append(annihilator(gen.rand_finmod(rng, nv, 2, 4)))
    for I in ideals:
        assert (I.span.rows, I.span.pivots) == two_closure_span(I.nvars, I.k, I.generators)
        assert I.k == 0 or two_closure_span(I.nvars, I.k - 1, I.generators) is None
    assert {I.codim for I in ideals} >= {0, 1, 2, 3}
    assert two_closure_span(2, 1, [x1 * x1]) is None
    with pytest.raises(ValueError, match="^the ideal is not cofinite"):
        CofiniteIdeal(2, [x1 * x1])


def normal_form_matrices(ideal):
    """The cyclic quotient's action matrices by normal forms: column c of
    x_j's matrix is the normal form of x_j times the c-th standard monomial,
    zero above degree k."""
    mons = ideal.standard_monomials
    index = {m: t for t, m in enumerate(mons)}
    mats = []
    for j in range(ideal.nvars):
        rows = [{} for _ in mons]
        for c, m in enumerate(mons):
            e = m[:j] + (m[j] + 1,) + m[j + 1:]
            if sum(e) <= ideal.k:
                for mm, x in ideal.normal_form(Polynomial.monomial(ideal.nvars, e)).terms.items():
                    rows[index[mm]][c] = x
        mats.append(linalg.Mat(rows, len(mons)))
    return tuple(mats)


def test_cyclic_quotient_matrices_match_the_normal_form_route():
    rng = random.Random(21)
    for _ in range(30):
        ideal = gen.rand_cofinite_ideal(rng, rng.randint(1, 3), 3)
        assert cyclic_quotient(ideal).module.mats == normal_form_matrices(ideal)
