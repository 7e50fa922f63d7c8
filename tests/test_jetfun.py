"""The jet construction f -> f^(E) and the maps derived from it."""

import contextlib
import io
import operator
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from jetcalc.scalars import Scalar, ZERO, ONE, Scalar as sc
from jetcalc.poly import (Polynomial, ExpPoly, Vector, Covector, DiffOp,
                          diff, monomials_upto, monomials_of_degree)
from jetcalc import localmod as lm
from jetcalc import jetfun as jf
from jetcalc import cli, gen, linalg
from jetcalc.gen import rand_poly, rand_exp_poly, rand_point
from probe import probe
from oracles import (frobenius_grid, jet_ideal, annihilator_dual, intertwines,
                     pairing, parse_poly, alpha_bar_by_coproduct)


def act_germ_oracle(E, g):
    """Module action of a germ, computed summand by summand from the
    definition: exp part through exp_action, polynomial part through
    act_poly, tags carried along untouched."""
    out = [[ExpPoly.zero(0)] * E.dim for _ in range(E.dim)]
    for (freq, unit), p in g.terms.items():
        mat = linalg.mmul(E.exp_action(Covector(freq)), E.act_poly(p))
        tag = ExpPoly.exp((), unit=unit)
        for r, row in enumerate(mat.rows):
            for c, x in row.items():
                out[r][c] = out[r][c] + tag * x
    return tuple(tuple(row) for row in out)


def test_jet_over_the_scalar_module_is_the_function_itself():
    triv = lm.cyclic_quotient(lm.maximal_ideal(1)).module
    f = parse_poly("(3)*x1^2 + (1)*x1", 1)
    J = jf.jet(f, triv)
    assert J.rows == 1 and J.entries[0][0] == ExpPoly.from_poly(f)


def test_jet_family_over_the_evaluation_module_is_the_family_itself():
    """Over C[x]/m (order 0, dimension 1) jet_family returns T itself,
    after its arity check, and so over any dimension-1 module, whose order
    is 0.  The Taylor loop over the order-0 module of dimension 2 gives T
    in each diagonal block, exponential terms and a formal unit included."""
    rng = random.Random(5)
    for nvars in (1, 2):
        unit = ExpPoly.exp((Scalar(1),) * nvars, unit=Scalar(2))
        T = jf.MatPolyFamily(nvars, [[rand_exp_poly(rng, nvars, 3) for _ in range(2)]
                                     for _ in range(2)] + [[unit, ExpPoly.zero(nvars)]])
        assert any(any(freq) for freq, _, _ in T.terms)
        assert any(u for _, u, _ in T.terms)
        evaluation = lm.cyclic_quotient(lm.maximal_ideal(nvars)).module
        assert (evaluation.k, evaluation.dim) == (0, 1)
        assert jf.jet_family(T, evaluation) is T
        assert jf.jet_family(T, lm.FinMod([linalg.Mat([{}], 1)] * nvars)) is T
        pair = lm.direct_sum(evaluation, evaluation)
        assert pair.k == 0
        assert jf.jet_family(T, pair).terms == {
            key: linalg.kron(linalg.mid(2), m) for key, m in T.terms.items()}
        with pytest.raises(ValueError, match="arity"):
            jf.jet_family(T, lm.cyclic_quotient(lm.maximal_ideal(nvars + 1)).module)


def test_jet_over_dual_numbers_stacks_value_and_derivative():
    E1 = lm.dual_number_module(Vector((1,)))
    J = jf.jet(parse_poly("(1)*x1^2", 1), E1)
    lam2 = ExpPoly.from_poly(parse_poly("(1)*x1^2", 1))
    twol = ExpPoly.from_poly(parse_poly("(2)*x1", 1))
    zz = ExpPoly.zero(1)
    assert J == jf.MatPolyFamily(1, [[lam2, twol], [zz, lam2]])


def family(nvars, grid):
    """The family of a grid of polynomials or scalars."""
    return jf.MatPolyFamily(nvars, [[ExpPoly.from_poly(x) if isinstance(x, Polynomial)
                                     else ExpPoly.const(nvars, x) for x in row]
                                    for row in grid])


def _test_modules():
    lam = Vector((1, 2))
    E = lm.dual_number_module(lam)
    T2 = lm.tensor(E, lm.dual_number_module(Vector((0, 1))))
    Q3 = lm.cyclic_quotient(lm.power_ideal(2, 1)).module
    return E, T2, Q3


def test_jet_is_an_algebra_homomorphism():
    rng = random.Random(7)
    for Emod in _test_modules():
        for _ in range(5):
            f = rand_exp_poly(rng, 2, 2)
            g = rand_exp_poly(rng, 2, 2)
            assert jf.jet(f * g, Emod) == jf.jet(f, Emod) * jf.jet(g, Emod)


def test_jet_evaluation_matches_the_germ_action_oracle():
    rng = random.Random(8)
    for Emod in _test_modules():
        for _ in range(5):
            f = rand_exp_poly(rng, 2, 2)
            mu = rand_point(rng, 2)
            ev = jf.jet(f, Emod).evaluate(tuple(mu.coords))
            assert ev == act_germ_oracle(Emod, f.translate(mu))


def e_slow_oracle(E, T, mu):
    """The oracle of T's jet at mu: act_germ_oracle on each translated
    entry, reassembled with the module index slow, so that entry
    (rE, rV), (cE, cV) is entry (rE, cE) of the oracle of T[rV][cV]."""
    blocks = [[act_germ_oracle(E, e.translate(mu)) for e in row] for row in T.entries]
    return tuple(tuple(blocks[rV][cV][rE][cE] for cE in range(E.dim) for cV in range(T.cols))
                 for rE in range(E.dim) for rV in range(T.rows))


def test_point_jet_is_the_jet_evaluated_at_the_point():
    """Over the fixed modules and random ones, at a Vector or a tuple; a
    translate of a random f carries the unit E[xi(shift)] on each
    exponential summand."""
    rng = random.Random(21)
    mods = list(_test_modules()) + [gen.rand_finmod(rng, nv, 2, 4)
                                    for nv in (1, 2, 2, 3) for _ in range(2)]
    units = 0
    for Emod in mods:
        for _ in range(3):
            nv = Emod.nvars
            f = rand_exp_poly(rng, nv, 2).translate(rand_point(rng, nv))
            mu = rand_point(rng, nv)
            units += any(unit != ZERO for _, unit in f.terms)
            for pt in (mu, tuple(mu.coords)):
                assert jf.jet(f, Emod).evaluate(pt) == act_germ_oracle(Emod, f.translate(mu))
    assert units >= 20
    f = rand_exp_poly(random.Random(0), 1, 2)
    with pytest.raises(ValueError):
        jf.jet(f, _test_modules()[0])
    with pytest.raises(ValueError, match="point has 2 coordinates, expected 1"):
        jf.jet(f, lm.dual_number_module(Vector((1,)))).evaluate((ZERO, ZERO))


def test_point_jet_family_is_the_family_evaluated_at_the_point():
    rng = random.Random(22)
    for Emod in list(_test_modules()) + [gen.rand_finmod(rng, 2, 2, 4) for _ in range(4)]:
        for _ in range(3):
            T = gen.rand_elementary_family(rng, 2, rng.randint(1, 3))
            T = T * gen.rand_elementary_family(rng, 2, T.rows)
            mu = rand_point(rng, 2)
            want = e_slow_oracle(Emod, T, mu)
            assert jf.jet_family(T, Emod).evaluate_scalar(mu) == \
                linalg.Mat.of([[x.scalar() for x in row] for row in want])
    # a formal unit that survives evaluation is refused, naming the first
    # entry that carries one
    T = jf.MatPolyFamily(1, [[ExpPoly.exp((ONE,)), ExpPoly.zero(1)],
                             [ExpPoly.zero(1), ExpPoly.const(1, ONE)]])
    E1 = lm.dual_number_module(Vector((1,)))
    pt = Vector((sc(2),))
    first = next(x for row in e_slow_oracle(E1, T, pt) for x in row if not x.is_polynomial())
    with pytest.raises(ValueError) as refused:
        jf.jet_family(T, E1).evaluate_scalar(pt)
    assert str(refused.value) == "value carries formal exponential units: %s" % first
    zero = Vector((ZERO,))
    assert jf.jet_family(T, E1).evaluate_scalar(zero) == \
        linalg.Mat.of([[x.scalar() for x in row] for row in e_slow_oracle(E1, T, zero)])


def test_membership_triple_is_unanimous_over_jet_modules():
    """The three membership verdicts agree for word candidates and random
    ones, over the evaluation module and a dual-number module."""
    from jetcalc import family

    rng = random.Random(23)
    for Emod in (lm.cyclic_quotient(lm.maximal_ideal(1)).module,
                 lm.dual_number_module(Vector((sc(3),)))):
        reps = [gen.rand_repfamily(rng, "a", 1, 2), gen.rand_repfamily(rng, "b", 1, 1)]
        pts = [Vector((sc(1),)), Vector((sc(-2),))]
        for member in (True, False):
            cand, _ = gen.rand_candidate(rng, reps, maxlen=4, member=member)
            assert family.membership_triple(cand, reps, pts, Emod).unanimous


@st.composite
def exp_grids(draw, nvars, rows, cols):
    """A rows x cols grid of exponential polynomials in nvars variables:
    up to two summands E[a] e^xi p each, with small frequencies xi and
    units a (often nonzero) and p of degree at most 2."""
    small = st.builds(sc, st.integers(-2, 2), st.integers(-1, 1))
    exps = st.tuples(*[st.integers(0, 2)] * nvars)
    polys = st.builds(lambda t: Polynomial(nvars, dict(t)),
                      st.lists(st.tuples(exps, small), max_size=3))
    keys = st.tuples(st.tuples(*[small] * nvars), small)
    entry = st.builds(lambda s: ExpPoly(nvars, dict(s)),
                      st.lists(st.tuples(keys, polys), max_size=2))
    return [[draw(entry) for _ in range(cols)] for _ in range(rows)]


@pytest.mark.parametrize("op", [operator.add, operator.mul], ids=["add", "mul"])
def test_family_arithmetic_refuses_an_operand_of_another_arity(op):
    """A sum or product of families over 1 and 2 variables raises the term
    dicts' message; the product once returned the 1-variable identity."""
    one, two = jf.MatPolyFamily.identity(1, 2), jf.MatPolyFamily.identity(2, 2)
    for a, b, msg in ((one, two, "1 vs 2"), (two, one, "2 vs 1")):
        with pytest.raises(ValueError, match="arity mismatch: %s variables" % msg):
            op(a, b)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_family_term_algebra_matches_the_entrywise_reference(data):
    """Sums, products, scaling, evaluation and the entries grid of the term
    form agree with ExpPoly arithmetic entry by entry, on shapes 0x0 to
    3x3 with exponential summands carrying nonzero units."""
    nvars = data.draw(st.integers(1, 3))
    r, n, k = (data.draw(st.integers(0, 3)) for _ in range(3))
    n = n if r else 0  # a grid without rows has no columns
    k = k if n else 0
    A, B = (data.draw(exp_grids(nvars, r, n)) for _ in range(2))
    C = data.draw(exp_grids(nvars, n, k))
    F, G, H = (jf.MatPolyFamily(nvars, X) for X in (A, B, C))
    zero = ExpPoly.zero(nvars)
    assert F.entries == tuple(map(tuple, A))
    assert jf.MatPolyFamily(nvars, F.entries) == F
    assert (F + G).entries == tuple(tuple(a + b for a, b in zip(ra, rb))
                                    for ra, rb in zip(A, B))
    product = tuple(tuple(sum((A[i][t] * C[t][j] for t in range(n)), zero)
                          for j in range(k)) for i in range(r))
    assert (F * H).entries == product
    s = data.draw(st.builds(sc, st.integers(-2, 2), st.integers(-1, 1)))
    assert (F * s).entries == tuple(tuple(a * s for a in row) for row in A)
    pt = tuple(data.draw(st.builds(sc, st.integers(-2, 2), st.integers(-1, 1)))
               for _ in range(nvars))
    values = tuple(tuple(a.evaluate(pt) for a in row) for row in A)
    assert F.evaluate(pt) == values
    assert all(type(x) is ExpPoly and x.nvars == 0 for row in F.evaluate(pt) for x in row)
    if all(x.is_polynomial() for row in values for x in row):
        assert F.evaluate_scalar(pt) == linalg.Mat.of([[x.scalar() for x in row] for row in values])
    else:
        with pytest.raises(ValueError, match="formal exponential units"):
            F.evaluate_scalar(pt)


def test_jet_commutes_with_translation():
    rng = random.Random(9)
    for Emod in _test_modules():
        f = rand_exp_poly(rng, 2, 2)
        mu = rand_point(rng, 2)
        Jt = jf.jet(f.translate(mu), Emod)
        Jf = jf.jet(f, Emod)
        assert Jt == jf.MatPolyFamily(
            2, [[e.translate(mu) for e in row] for row in Jf.entries])


def test_jet_ideal_collects_taylor_data():
    I1 = lm.power_ideal(1, 1)
    coords = jet_ideal(parse_poly("(1)*x1^2", 1), I1, Vector((3,)))
    # class of (x+3)^2 = 9 + 6x mod x^2
    assert coords == (ExpPoly.const(0, sc(9)), ExpPoly.const(0, sc(6)))
    assert all(type(c) is ExpPoly and c.nvars == 0 for c in coords)


def test_jet_ideal_pairs_with_the_dual_as_derivatives_at_the_point():
    rng = random.Random(10)
    I = lm.dual_number_ideal(Vector((1, 2)))
    ops = annihilator_dual(I)
    for _ in range(4):
        f = rand_exp_poly(rng, 2, 2)
        mu = rand_point(rng, 2)
        cls = jet_ideal(f, I, mu)
        for u in ops:
            lhs = ExpPoly.zero(0)
            for t, m in enumerate(I.standard_monomials):
                lhs = lhs + cls[t] * pairing(Polynomial.monomial(2, m), u).scalar()
            assert lhs == diff(u, f).evaluate(tuple(mu.coords))


def test_jet_ideal_is_the_cyclic_column_of_the_quotient_jet():
    rng = random.Random(11)
    I = lm.dual_number_ideal(Vector((1, 2)))
    cq = lm.cyclic_quotient(I)
    for _ in range(3):
        f = rand_exp_poly(rng, 2, 2)
        mu = rand_point(rng, 2)
        ev = jf.jet(f, cq.module).evaluate(tuple(mu.coords))
        # the class of 1: the basis element of the monomial 1
        one = tuple(ONE if m == (0, 0) else ZERO for m in cq.monomials)
        col = tuple(sum((ev[r][c] * one[c] for c in range(cq.module.dim)),
                        ExpPoly.zero(0)) for r in range(cq.module.dim))
        assert col == jet_ideal(f, I, mu)


def test_block_derivative_equals_dual_number_jet():
    rng = random.Random(12)
    eta = Vector((2, -1))
    F = family(2, [[rand_poly(rng, 2, 2), rand_poly(rng, 2, 1)],
                   [rand_poly(rng, 2, 2), rand_poly(rng, 2, 2)]])
    assert jf.block_derivative(F, eta) == jf.jet_family(F, lm.dual_number_module(eta))


def test_block_derivative_of_constants_has_zero_offdiagonal():
    eta = Vector((2, -1))
    C = family(2, [[sc(1), sc(2)], [sc(3), sc(4)]])
    DC = jf.block_derivative(C, eta).entries
    assert not any(e for row in DC[:2] for e in row[2:])
    assert [row[:2] for row in DC[:2]] == list(C.entries)


def test_block_derivative_along_the_zero_direction_repeats_the_family():
    """[[F, 0], [0, F]]: the dual-number module refuses a zero direction,
    so this case is checked against the blocks themselves."""
    rng = random.Random(15)
    F = jf.MatPolyFamily(2, [[rand_exp_poly(rng, 2, 2) for _ in range(3)] for _ in range(2)])
    zero = (ExpPoly.zero(2),) * 3
    assert jf.block_derivative(F, Vector.zero(2)) == jf.MatPolyFamily(
        2, [row + zero for row in F.entries] + [zero + row for row in F.entries])
    with pytest.raises(ValueError):
        lm.dual_number_module(Vector.zero(2))


def test_block_derivative_of_exponential_entries_with_units():
    """d_eta(E[a] e^xi p) = E[a] e^xi (eta(xi) p + d_eta p), written out by
    hand for eta = (2, -1): eta(1, -2) = 4 and eta(0, 2) = -2."""
    u, v = sc(3), sc(0, 1)
    F = jf.MatPolyFamily(2, [[ExpPoly.exp((1, -2), parse_poly("x1^2*x2", 2), unit=u),
                              ExpPoly.exp((0, 2), unit=v)]])
    dF = ExpPoly.exp((1, -2), parse_poly("4*x1^2*x2 + 4*x1*x2 - x1^2", 2), unit=u)
    dG = ExpPoly.exp((0, 2), unit=v) * -2
    D = jf.block_derivative(F, Vector((2, -1)))
    (f, g), zero = F.entries[0], ExpPoly.zero(2)
    assert D.entries == ((f, g, dF, dG), (zero, zero, f, g))
    assert D == jf.jet_family(F, lm.dual_number_module(Vector((2, -1))))


def test_block_derivative_refuses_an_arity_mismatch():
    F = family(2, [[sc(1)]])
    with pytest.raises(ValueError, match="arity mismatch"):
        jf.block_derivative(F, Vector((1,)))


def test_block_derivative_of_a_family_with_no_rows_doubles_its_columns():
    D = jf.block_derivative(jf.MatPolyFamily.zero(1, 0, 3), Vector((1,)))
    assert (D.rows, D.cols) == (0, 6)


def test_iterated_block_derivative_is_the_tensor_module_jet():
    rng = random.Random(13)
    F = family(2, [[rand_poly(rng, 2, 2), rand_poly(rng, 2, 1)],
                   [rand_poly(rng, 2, 2), rand_poly(rng, 2, 2)]])
    etas = [Vector((1, 0)), Vector((1, 1))]
    lhs = jf.iterated_block_derivative(F, etas)
    rhs = jf.jet_family(F, lm.tensor(*[lm.dual_number_module(e) for e in etas]))
    assert lhs == rhs


def test_jets_compose_through_the_tensor_module():
    rng = random.Random(14)
    E1 = lm.dual_number_module(Vector((1,)))
    pairs = ((E1, E1),
             (E1, lm.cyclic_quotient(lm.power_ideal(1, 2)).module))
    for Ea, Eb in pairs:
        f = rand_poly(rng, 1, 3)
        assert jf.jet_family(jf.jet(f, Eb), Ea) == jf.jet(f, lm.tensor(Ea, Eb))
    E, T2, _ = _test_modules()
    for _ in range(3):
        f = rand_exp_poly(rng, 2, 2)
        assert jf.jet_family(jf.jet(f, E), T2) == jf.jet(f, lm.tensor(T2, E))


def test_jet_is_natural_in_module_maps():
    rng = random.Random(15)
    lam = Vector((1, 2))
    E = lm.dual_number_module(lam)
    Q = lm.cyclic_quotient(lm.dual_number_ideal(lam)).module
    T = ((ZERO, sc(2)), (ONE, ZERO))
    assert intertwines(Q, E, T)
    Psi = family(2, T)
    for _ in range(3):
        f = rand_exp_poly(rng, 2, 2)
        assert Psi * jf.jet(f, Q) == jf.jet(f, E) * Psi


def test_matrix_functionals_translate_to_differential_operators():
    E = lm.dual_number_module(Vector((1, 2)))
    top_right = ((ZERO, ONE), (ZERO, ZERO))
    assert jf.functional_to_diffop(E, top_right) == Vector((1, 2)).as_diffop()
    trace = ((ONE, ZERO), (ZERO, ONE))
    assert jf.functional_to_diffop(E, trace) == DiffOp.one(2) * sc(2)
    assert jf.functional_to_diffop(E, ((ZERO,) * 2,) * 2) == DiffOp(2, {})


def test_functional_pairing_agrees_with_the_operator_on_low_degrees():
    rng = random.Random(16)
    E, _, Q3 = _test_modules()
    for Emod in (E, Q3):
        H = tuple(tuple(sc(rng.randint(-3, 3)) for _ in range(Emod.dim))
                  for _ in range(Emod.dim))
        u = jf.functional_to_diffop(Emod, H)
        for m in monomials_upto(2, Emod.k + 1):
            f = Polynomial.monomial(2, m)
            lhs = frobenius_grid(H, jf.jet(f, Emod).entries)
            assert lhs == ExpPoly.from_poly(diff(u, f))


def test_diffop_to_module_round_trips_the_operators():
    u1 = DiffOp(1, {(0,): sc(2), (1,): sc(3)})
    u2 = DiffOp(1, {(2,): ONE})
    Emod, funcs = jf.diffop_to_module([u1, u2])
    assert Emod.dim == 2 + 3  # one power-quotient block per operator order
    for u, H in zip([u1, u2], funcs):
        assert jf.functional_to_diffop(Emod, H) == u


def test_single_direction_kernel_is_the_dual_number_ideal():
    lam = Vector((1, 2))
    basis = jf.kernel_alpha_bar([lam], 2)
    sp = lm.PolySpace(2, 2)
    ispan = lm.dual_number_ideal(lam).image_span(2)
    ksb = linalg.SpanBasis(sp.dim)
    for p in basis:
        ksb.add(sp.to_vec(p))
    assert ksb.same_span(ispan)


def test_repeated_direction_kernel_needs_cubic_terms():
    basis = jf.kernel_alpha_bar([Vector((1,)), Vector((1,))], 3)
    assert basis == [parse_poly("(1)*x1^3", 1)]
    assert jf.kernel_alpha_bar([Vector((1,)), Vector((1,))], 2) == []


def test_kernel_contains_everything_above_the_direction_count():
    basis = jf.kernel_alpha_bar([Vector((1, 0)), Vector((1, 2))], 4)
    sp4 = lm.PolySpace(2, 4)
    ksb = linalg.SpanBasis(sp4.dim)
    for p in basis:
        ksb.add(sp4.to_vec(p))
    for deg in (3, 4):
        for m in monomials_of_degree(2, deg):
            assert ksb.contains(sp4.to_vec(Polynomial.monomial(2, m)))


def test_alpha_bar_image_matches_the_coproduct_then_classes():
    """The action on the tensor of dual-number modules gives the image that
    the coproduct followed by the class in each factor gives, for N = 1..3
    variables, n = 1..4 directions, one with fractional coordinates, and
    degrees <= 5, both read through one tensor; the zero polynomial maps
    to zero."""
    rng = random.Random(39)
    for N in (1, 2, 3):
        frac = Vector(tuple(sc(Fraction(j + 1, 3), Fraction(-1, j + 2)) for j in range(N)))
        for n in range(1, 5):
            for _ in range(3):
                lams = [frac] + [rand_point(rng, N, zero_ok=False) for _ in range(n - 1)]
                rng.shuffle(lams)
                p = rand_poly(rng, N, 5)
                zero, image = jf.alpha_bar_image([Polynomial.zero(N), p], lams)
                assert zero == alpha_bar_by_coproduct(Polynomial.zero(N), lams)
                assert zero == (ZERO,) * 2 ** n
                assert image == alpha_bar_by_coproduct(p, lams)


@pytest.mark.parametrize("nvars, lams, message", [
    (2, [(1,)], "arity mismatch"),
    (2, [(1,), (1,)], "arity mismatch"),
    (1, [(1,), (1, 2)], "arity mismatch in tensor product"),
    (1, [], "tensor product of nothing"),
])
def test_alpha_bar_image_refuses_an_arity_mismatch(nvars, lams, message):
    """Directions of another arity than p's, or of two arities, or none at
    all, are refused rather than read as an image."""
    p = Polynomial.monomial(nvars, (1,) * nvars)
    with pytest.raises(ValueError, match="^%s$" % message):
        jf.alpha_bar_image([p], [Vector(lam) for lam in lams])


def test_route_two_forms_no_monomial_product_above_the_tensor_order(monkeypatch):
    """Over `jetcalc kernel` at seeds 0-4, kernel_alpha_bar asks the tensor
    of dual-number modules, through alpha_bar_image, for 139 monomials
    above its order T.k, which act by zero, and forms no product for them:
    its 531 products, as many as when route two skipped those monomials
    itself, are 391 of the order loop and 140 of mon_mat at degrees up to
    T.k.  Route two is found by walking the stack to kernel_alpha_bar; a
    note's caller is two frames up, past the probe."""
    mon_mat, made, above = lm.FinMod.mon_mat, [], []

    def in_route_two(frame):
        while frame and frame.f_code is not jf.kernel_alpha_bar.__code__:
            frame = frame.f_back
        return frame is not None

    def product(a, b):
        frame = sys._getframe(2)
        if in_route_two(frame):
            if frame.f_code is mon_mat.__code__:
                made.append(sum(frame.f_locals["beta"]) - frame.f_locals["self"].k)
            else:
                made.append(None)

    def monomial(self, beta):
        if in_route_two(sys._getframe(2)) and sum(beta) > self.k:
            above.append(beta)

    probe(monkeypatch, lm, "mmul", product, alone=True)
    probe(monkeypatch, lm.FinMod, "mon_mat", monomial)
    for seed in range(5):
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["kernel", "--seed", str(seed)]) == 0
    assert len(above) == 139 and made.count(None) == 391 and len(made) == 531
    assert max(d for d in made if d is not None) <= 0


def test_a_module_forms_its_products_in_the_order_loop(monkeypatch):
    """Over `jetcalc jet` and `jetcalc kernel` at seeds 0-4, every product
    of module matrices comes from the loop that reads the order FinMod.k,
    which keeps them for mon_mat, or from mon_mat at degree 1, x_j times
    the identity.  They number 734 on jet and 730 on kernel."""
    made = {}

    def product(a, b):
        frame = sys._getframe(2)  # the caller, past the probe
        if frame.f_code.co_name == "<listcomp>":  # the loop's own frame before Python 3.12
            frame = frame.f_back
        if frame.f_code is lm.FinMod.mon_mat.__code__:
            key = "mon_mat", sum(frame.f_locals["beta"])
        else:
            key = frame.f_code.co_name
        made[key] = made.get(key, 0) + 1

    probe(monkeypatch, lm, "mmul", product, alone=True)
    for suite in ("jet", "kernel"):
        for seed in range(5):
            with contextlib.redirect_stdout(io.StringIO()):
                assert cli.main([suite, "--seed", str(seed)]) == 0
    assert set(made) == {"k", ("mon_mat", 1)}
    assert sum(made.values()) == 734 + 730


def test_kernel_rejects_zero_directions():
    with pytest.raises(ValueError):
        jf.kernel_alpha_bar([Vector((0, 0))], 2)


def test_kernel_rejects_a_negative_degree_bound():
    with pytest.raises(ValueError, match="degree bound d"):
        jf.kernel_alpha_bar([Vector((1,))], -1)


def test_subquotient_directions_come_with_a_containment_certificate():
    def directions(ideal):  # the standard sequence: each coordinate k times
        return [Vector.basis(ideal.nvars, j) for j in range(ideal.nvars)
                for _ in range(ideal.k)]

    ideal = lm.maximal_ideal(2)
    assert directions(ideal) == [] and jf.subquotient_certified(ideal)

    ideal = lm.power_ideal(1, 2)
    assert len(directions(ideal)) == 2 and jf.subquotient_certified(ideal)
    assert jf.kernel_alpha_bar(directions(ideal), 3) == [parse_poly("(1)*x1^3", 1)]

    for ideal in (lm.dual_number_ideal(Vector((1, 2))), lm.power_ideal(2, 1)):
        assert len(directions(ideal)) == 2 and jf.subquotient_certified(ideal)


def test_an_int_factor_scales_a_family_by_its_scalar():
    fam = jf.MatPolyFamily.identity(1, 2) * 2
    assert fam == jf.MatPolyFamily.identity(1, 2) * sc(2)
    assert all(type(x) is Scalar for m in fam.terms.values() for row in m.rows
               for x in row.values())
