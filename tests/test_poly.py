"""Polynomials, exponential polynomials, operators, and the pairing."""

import pytest
from hypothesis import given, settings, strategies as st

from jetcalc.scalars import Scalar, ExpScalar, ZERO, ONE, sc
from jetcalc.poly import (Polynomial, ExpPoly, Vector, Covector, DiffOp,
                          diff, pairing, translate, coproduct,
                          parse_poly, parse_exppoly,
                          monomials_upto, monomials_of_degree, zero_exps)


def small_scalars():
    return st.builds(sc, st.integers(min_value=-4, max_value=4))


def polys(nvars=2, deg=3):
    mons = monomials_upto(nvars, deg)
    return st.builds(
        lambda pairs: Polynomial(nvars, dict(pairs)),
        st.lists(st.tuples(st.sampled_from(mons), small_scalars()),
                 max_size=4))


def exp_polys(nvars=2, deg=2):
    freqs = st.tuples(*([st.builds(sc, st.integers(min_value=-2, max_value=2))]
                        * nvars))
    summand = st.tuples(freqs, polys(nvars, deg))
    return st.builds(
        lambda parts: sum((ExpPoly.exp(f, p) for f, p in parts),
                          ExpPoly.zero(nvars)),
        st.lists(summand, min_size=1, max_size=3))


@given(polys(), polys(), polys())
def test_polynomial_ring_laws(p, q, r):
    assert p + q == q + p
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r


@given(polys())
def test_derivative_of_product_obeys_leibniz(p):
    q = parse_poly("(1)*x1^2 + (-1)*x2", 2)
    lhs = (p * q).deriv(0)
    assert lhs == p.deriv(0) * q + p * q.deriv(0)


@given(polys())
def test_translate_composes(p):
    mu = Vector((sc(1), sc(-2)))
    nu = Vector((sc(3), sc(1)))
    both = Vector((sc(4), sc(-1)))
    assert translate(translate(p, mu), nu) == translate(p, both)
    assert translate(p, Vector((ZERO, ZERO))) == p


@given(exp_polys(), exp_polys())
def test_exp_poly_multiplication_is_commutative_and_translates(f, g):
    assert f * g == g * f
    mu = Vector((sc(2), sc(0)))
    assert translate(f * g, mu) == translate(f, mu) * translate(g, mu)


@given(exp_polys())
def test_exp_poly_derivative_of_exponential_summand(f):
    # d/dx1 (e^xi p) = e^xi (xi_1 p + dp/dx1), checked through the public op
    u = DiffOp(2, {(1, 0): ONE})
    g = diff(u, f)
    mu = Vector((sc(1), sc(1)))
    lhs = g.evaluate(mu)
    # compare against a divided-difference-free direct formula
    rhs = ExpScalar()
    for (freq, unit), p in f.summands.items():
        shift = unit
        for a, b in zip(freq, mu.coords):
            shift = shift + a * b
        val = (p.deriv(0) + p * freq[0]).evaluate(tuple(mu.coords))
        rhs = rhs + ExpScalar.unit(shift, val)
    assert lhs == rhs


def test_exponential_translation_picks_up_units():
    xi = Covector((ONE, sc(2)))
    f = ExpPoly.exp(xi)
    mu = Vector((sc(3), sc(-1)))
    g = translate(f, mu)
    ((freq, unit),) = g.summands.keys()
    assert freq == xi.coords
    assert unit == xi(mu)


def test_pairing_is_taylor_duality():
    # <x^a, X^b> = b! when a == b, else 0
    for a in monomials_upto(2, 3):
        for b in monomials_upto(2, 3):
            val = pairing(Polynomial.monomial(2, a), DiffOp(2, {b: ONE}))
            if a == b:
                fact = 1
                for e in a:
                    for t in range(1, e + 1):
                        fact *= t
                assert val.scalar() == sc(fact)
            else:
                assert not val


def test_pairing_against_exponential_is_evaluation_of_symbol():
    # <e^xi, u> = u(xi): operators act on exponentials by their symbol
    xi = Covector((sc(2), sc(-1)))
    f = ExpPoly.exp(xi)
    u = DiffOp(2, {(1, 1): ONE, (0, 0): sc(3)})
    val = pairing(f, u)
    symbol = sc(2) * sc(-1) + sc(3)
    assert val == ExpScalar.from_scalar(symbol)


def test_diffop_multiplication_is_composition():
    u = DiffOp(1, {(1,): ONE})
    f = parse_poly("(1)*x1^3", 1)
    assert diff(u * u, f) == parse_poly("(6)*x1", 1)
    assert diff(DiffOp.one(1), f) == f


def test_coproduct_evaluates_to_sum_of_arguments():
    p = parse_poly("(1)*x1^2 + (2)*x2", 2)
    big = coproduct(p, 3)
    mus = [Vector((sc(1), sc(0))), Vector((sc(2), sc(1))), Vector((sc(-1), sc(1)))]
    point = tuple(c for mu in mus for c in mu.coords)
    total = Vector(tuple(sum((m.coords[j] for m in mus), ZERO) for j in range(2)))
    assert big.evaluate(point) == p.evaluate(tuple(total.coords))


def test_coproduct_degree_blocks_match_binomials():
    p = parse_poly("(1)*x1^2", 1)
    big = coproduct(p, 2)
    # (x + y)^2 = x^2 + 2xy + y^2
    assert big == parse_poly("(1)*x1^2 + (2)*x1*x2 + (1)*x2^2", 2)


@given(exp_polys())
def test_parser_round_trips_exp_polys(f):
    assert parse_exppoly(str(f), 2) == f


def test_parser_rejects_malformed():
    for bad in ("x3", "1 +", "exp[1]", "E[1,2]", "(1))"):
        try:
            parse_exppoly(bad, 2)
            assert False, bad
        except ValueError:
            pass


def test_covector_directional_derivative():
    eta = Covector((sc(2), sc(-1)))
    u = eta.as_diffop()
    p = parse_poly("(1)*x1*x2", 2)
    assert diff(u, p) == parse_poly("(2)*x2 + (-1)*x1", 2)


def test_monomial_enumeration_orders():
    ms = monomials_upto(2, 2)
    assert ms[0] == (0, 0)
    assert set(monomials_of_degree(2, 2)) == {(2, 0), (1, 1), (0, 2)}
    assert len(monomials_upto(2, 2)) == 6


@given(polys(), polys())
def test_operators_add_and_multiply_like_polynomials(p, q):
    u, v = DiffOp(2, p.terms), DiffOp(2, q.terms)
    assert (u + v).terms == (p + q).terms
    assert (u * v).terms == (p * q).terms


def test_vectors_and_covectors_share_arithmetic_but_never_compare_equal():
    coords = (sc(1), sc(-2))
    v, xi = Vector(coords), Covector(coords)
    assert v != xi and xi != v
    assert hash(v) == hash(xi) == hash(coords)
    assert isinstance(v + v, Vector) and isinstance(-xi, Covector)
    assert (xi + xi.scaled(sc(2))).coords == (sc(3), sc(-6))
    assert v - v == Vector.zero(2) and (v - v).is_zero()
    assert str(v) == str(xi) == "1,-2"
    assert v.as_diffop() == xi.as_diffop()
    assert Covector.basis(2, 1)(v) == sc(-2)


def test_exponents_above_the_cap_are_refused():
    from jetcalc.poly import MAX_EXPONENT
    x1 = Polynomial(1, {(1,): ONE})
    assert parse_poly("x1^%d" % MAX_EXPONENT, 1) == x1 ** MAX_EXPONENT
    for text in ("(x1 + 1)^%d" % (MAX_EXPONENT + 1), "x1^200000"):
        with pytest.raises(ValueError):
            parse_exppoly(text, 1)


def test_powers_are_bounded_by_their_work(monkeypatch):
    from jetcalc import poly
    from jetcalc.poly import MAX_POWER_WORK
    x1 = Polynomial(1, {(1,): ONE})
    assert parse_poly("x1^256", 1) == x1 ** 256
    assert parse_poly("(x1+1)^256", 1) == (x1 + Polynomial.const(1, ONE)) ** 256
    # every product the parser forms stays within the bound, so the refused
    # inputs fail before anything runs at their size
    largest = []
    mul = poly.ExpPoly.__mul__

    def counted(a, b):
        if isinstance(b, poly.ExpPoly):
            largest.append(poly._nterms(a) * poly._nterms(b))
        return mul(a, b)

    monkeypatch.setattr(poly.ExpPoly, "__mul__", counted)
    for text in ("((x1+1)^256)^256", "(x1+x2+x3+1)^256"):
        with pytest.raises(ValueError, match="limit %d" % MAX_POWER_WORK):
            parse_exppoly(text, 3)
    assert largest and max(largest) <= MAX_POWER_WORK
