"""Polynomials, exponential polynomials, operators, and the pairing."""

import json
import random
import re
import time
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, strategies as st

from jetcalc.scalars import Scalar, ZERO, ONE, Scalar as sc, _TermDict
from jetcalc.poly import (Polynomial, ExpPoly, Vector, Covector, DiffOp, diff,
                          parse_exppoly, parse_scalar, monomials_upto,
                          monomials_of_degree, beta_factorial, MAX_NESTING, MAX_DIGITS)
from oracles import coproduct, pairing, parse_poly
from probe import probe


def x1_plus_1_to(n):
    """(x1 + 1)^n in one variable, by the binomial theorem."""
    return Polynomial(1, {(j,): sc(comb(n, j)) for j in range(n + 1)})


def small_scalars():
    return st.builds(sc, st.integers(min_value=-4, max_value=4))


def polys(nvars=2, deg=3):
    mons = monomials_upto(nvars, deg)
    return st.builds(
        lambda pairs: Polynomial(nvars, dict(pairs)),
        st.lists(st.tuples(st.sampled_from(mons), small_scalars()),
                 max_size=4))


def points(nvars=2):
    return st.builds(Vector, st.tuples(*([small_scalars()] * nvars)))


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
    assert p.translate(mu).translate(nu) == p.translate(both)
    assert p.translate(Vector((ZERO, ZERO))) == p


@given(exp_polys(), exp_polys())
def test_exp_poly_multiplication_is_commutative_and_translates(f, g):
    assert f * g == g * f
    mu = Vector((sc(2), sc(0)))
    assert (f * g).translate(mu) == f.translate(mu) * g.translate(mu)


@given(exp_polys())
def test_exp_poly_derivative_of_exponential_summand(f):
    # d/dx1 (e^xi p) = e^xi (xi_1 p + dp/dx1), checked through the public op
    u = DiffOp(2, {(1, 0): ONE})
    g = diff(u, f)
    mu = Vector((sc(1), sc(1)))
    lhs = g.evaluate(mu)
    # compare against a divided-difference-free direct formula
    rhs = ExpPoly.zero(0)
    for (freq, unit), p in f.terms.items():
        shift = unit
        for a, b in zip(freq, mu.coords):
            shift = shift + a * b
        val = (p.deriv(0) + p * freq[0]).evaluate(tuple(mu.coords))
        rhs = rhs + ExpPoly.exp((), unit=shift) * val
    assert lhs == rhs and lhs.nvars == 0


def test_exponential_translation_picks_up_units():
    xi = Covector((ONE, sc(2)))
    f = ExpPoly.exp(xi)
    mu = Vector((sc(3), sc(-1)))
    g = f.translate(mu)
    ((freq, unit),) = g.terms.keys()
    assert freq == xi.coords
    assert unit == xi(mu)


def test_pairing_is_taylor_duality():
    # <x^a, X^b> = b! when a == b, else 0
    for a in monomials_upto(2, 3):
        for b in monomials_upto(2, 3):
            val = pairing(Polynomial.monomial(2, a), DiffOp(2, {b: ONE}))
            assert type(val) is ExpPoly and val.nvars == 0
            if a == b:
                fact = 1
                for e in a:
                    for t in range(1, e + 1):
                        fact *= t
                assert val.scalar() == sc(fact)
            else:
                assert not val


@given(st.data())
def test_pairing_with_a_monomial_reads_one_operator_term(data):
    """<x^m, u> = u_m m! for a random operator u and monomial m, in 1 to 3
    variables: the identity by which kernel_alpha_bar reads an operator's
    vanishing condition off its terms."""
    nvars = data.draw(st.integers(min_value=1, max_value=3))
    u = DiffOp(nvars, data.draw(polys(nvars, 3)).terms)
    m = data.draw(st.sampled_from(monomials_upto(nvars, 4)))
    want = u.terms.get(m, ZERO) * beta_factorial(m)
    assert pairing(Polynomial.monomial(nvars, m), u).scalar() == want


def test_pairing_against_exponential_is_evaluation_of_symbol():
    # <e^xi, u> = u(xi): operators act on exponentials by their symbol
    xi = Covector((sc(2), sc(-1)))
    f = ExpPoly.exp(xi)
    u = DiffOp(2, {(1, 1): ONE, (0, 0): sc(3)})
    val = pairing(f, u)
    symbol = sc(2) * sc(-1) + sc(3)
    assert val == ExpPoly.const(0, symbol) and val.nvars == 0


def test_diffop_multiplication_is_composition():
    u = DiffOp(1, {(1,): ONE})
    f = parse_poly("(1)*x1^3", 1)
    assert diff(u * u, f) == parse_poly("(6)*x1", 1)
    assert diff(DiffOp.one(1), f) == f


@given(polys(), st.lists(points(), min_size=1, max_size=3), points(), points())
def test_coproduct_evaluates_to_sum_of_arguments(p, mus, mu, nu):
    """coproduct, evaluate and translate all substitute for the variables:
    p(mu_1 + ... + mu_n) three ways."""
    point = tuple(c for m in mus for c in m.coords)
    assert coproduct(p, len(mus)).evaluate(point) == p.evaluate(sum(mus[1:], mus[0]))
    assert p.translate(mu).evaluate(nu) == p.evaluate(mu + nu)


def test_evaluate_forms_each_power_once(monkeypatch):
    """x1^40 + x1^39 + 3*x1^20 needs x1^2 .. x1^40 (39 products) and one
    product per term, not one product per unit of exponent."""
    p = (Polynomial.monomial(1, (40,)) + Polynomial.monomial(1, (39,))
         + Polynomial.monomial(1, (20,)) * 3)
    products = probe(monkeypatch, Scalar, "__mul__")
    assert p.evaluate((sc(2),)) == sc(2 ** 40 + 2 ** 39 + 3 * 2 ** 20)
    assert products.calls <= 43


def test_coproduct_degree_blocks_match_binomials():
    p = parse_poly("(1)*x1^2", 1)
    big = coproduct(p, 2)
    # (x + y)^2 = x^2 + 2xy + y^2
    assert big == parse_poly("(1)*x1^2 + (2)*x1*x2 + (1)*x2^2", 2)


@given(exp_polys())
def test_parser_round_trips_exp_polys(f):
    assert parse_exppoly(str(f), 2) == f


@pytest.mark.parametrize("parse, text, message", [
    (parse_scalar, "E[1]", "value carries formal exponential units: E[1]*((1))"),
    (lambda t: parse_exppoly(t, 1), "exp[E[1]]",
     "value carries formal exponential units: E[1]*((1))"),
    (lambda t: parse_exppoly(t, 1), "exp[exp[2]]",
     "value carries formal exponential units: exp[2]*((1))"),
    (lambda t: parse_exppoly(t, 2), "E[x2 + 1]", "expected a scalar, got (1)*x2 + (1)")])
def test_a_constant_slot_refuses_units_and_variables(parse, text, message):
    """A scalar entry, an exp[] coordinate and an E[] unit are read
    through ExpPoly.scalar, which names what it refuses."""
    with pytest.raises(ValueError) as refused:
        parse(text)
    assert str(refused.value) == message


def test_parser_rejects_malformed():
    for bad in ("x3", "1 +", "exp[1]", "E[1,2]", "(1))", "x1/0", "E[1/0]", "(1+i)/00"):
        try:
            parse_exppoly(bad, 2)
            assert False, bad
        except ValueError:
            pass


def reference_tokenize(text):
    """The character-loop scanner that the token table replaced, kept as
    the reference for ASCII text."""
    toks = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch in " \t\n":
            i += 1
            continue
        if ch in "+-*/^()[],":
            toks.append((ch, ch))
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            toks.append(("num", int(text[i:j])))
            i = j
            continue
        if ch == "i" and (i + 1 == n or not text[i + 1].isalnum()):
            toks.append(("imag", "i"))
            i += 1
            continue
        if ch in "xX" and i + 1 < n and text[i + 1].isdigit():
            j = i + 1
            while j < n and text[j].isdigit():
                j += 1
            toks.append(("var", int(text[i + 1:j]) - 1))
            i = j
            continue
        if text.startswith("exp", i):
            toks.append(("exp", "exp"))
            i += 3
            continue
        if ch == "E":
            toks.append(("unit", "E"))
            i += 1
            continue
        raise ValueError("parse error at position %d: unexpected %r" % (i, text[i:i + 8]))
    return toks


ALPHABET = "0123456789 \t\n+-*/^()[],ixXepEa_.;"
FRAGMENTS = ("x1", "x2", "x3", "X1", "x0", "i", "ix", "i2", "exp[", "E[", "]", "(", ")",
             "+", "-", "*", "/", "^", "^2", "0", "2", "3", "10", ",", " ", "e", "x", "_")


def grammar_text(rng, depth=0):
    """A random text built by the grammar's rules, out-of-range variables,
    wrong bracket lengths and division by zero included."""
    r = rng.random()
    if depth > 2 or r < 0.3:
        return rng.choice(("x1", "x2", "x3", "X1", "i", "2", "3/4", "1/0"))
    sub = lambda: grammar_text(rng, depth + 1)  # noqa: E731
    if r < 0.5:
        return sub() + rng.choice("+-* ") + sub()
    if r < 0.6:
        return "(%s)^%d" % (sub(), rng.randint(0, 3))
    if r < 0.8:
        return "%s[%s]%s" % (rng.choice(("exp", "E")),
                             ",".join(sub() for _ in range(rng.randint(0, 2))), sub())
    return "-" + sub()


def ascii_texts(seed, count):
    """Seeded random texts over the grammar's alphabet, in turn: random
    characters, random fragments and grammar_text."""
    rng = random.Random(seed)
    for t in range(count):
        if t % 3 == 2:
            yield grammar_text(rng)
        else:
            pool = ALPHABET if t % 3 else FRAGMENTS
            yield "".join(rng.choice(pool) for _ in range(rng.randint(0, 12)))


def outcome(parse, *args):
    try:
        return "value", parse(*args)
    except ValueError as e:
        return "error", str(e)


def test_the_token_table_reads_ascii_text_as_the_character_loop_did(monkeypatch):
    """On seeded random ASCII texts the token table gives the reference
    scanner's tokens or its error, and parse_exppoly and parse_scalar give
    the same values and messages through either."""
    from jetcalc import poly
    texts = list(ascii_texts(25, 20000))
    for text in texts:
        assert outcome(poly._tokenize, text) == outcome(reference_tokenize, text), text
    cases = [(text, t % 3) for t, text in enumerate(texts[:8000])]

    def parsed():
        return [(outcome(parse_exppoly, text, nv), outcome(parse_scalar, text))
                for text, nv in cases]

    table = parsed()
    assert sum(e[0] == "value" for e, _ in table) >= 1000
    monkeypatch.setattr(poly, "_tokenize", reference_tokenize)
    assert parsed() == table


@pytest.mark.parametrize("parse, text, at", [
    (parse_scalar, "\u0663", 0), (parse_poly, "x\u0661^\u0662", 0), (parse_poly, "2\u00b2", 1),
    (parse_poly, "x\u00b2", 0), (parse_poly, "x1\u0663", 2), (parse_scalar, "1/\u0662", 2)])
def test_a_non_ascii_digit_is_a_parse_error_at_its_position(parse, text, at):
    args = (text,) if parse is parse_scalar else (text, 1)
    with pytest.raises(ValueError, match="^parse error at position %d: unexpected " % at):
        parse(*args)


def test_loaders_refuse_a_non_ascii_digit_as_a_parse_error():
    from jetcalc.family import family_from_json
    from jetcalc.localmod import FinMod
    rep = {"label": "R", "dim": 1, "generators": [["1+x1\u00b2"]]}
    with pytest.raises(ValueError, match="^generator 1 of rep 'R' entry 0: parse error "
                                         "at position 4: unexpected"):
        family_from_json(json.dumps({"nvars": 1, "reps": [rep]}))
    module = json.loads(FinMod([[[ZERO]]]).to_json())
    module["action"] = [["\u0663"]]
    with pytest.raises(ValueError, match="^action matrix 0 entry 0: parse error at "
                                         "position 0: unexpected"):
        FinMod.from_json(json.dumps(module))


# text that does not parse in one variable, most of it past MAX_NESTING or
# MAX_DIGITS, with the start of the error it raises
REFUSED = {
    "1/": "parse error: '/' must be followed by an integer",
    "(" * 33 + "1" + ")" * 33: "parse error at token 33: nested deeper than the limit 32",
    "(" * 1000 + "1" + ")" * 1000: "parse error at token 33: nested deeper than the limit 32",
    "exp[" * 1000 + "1" + "]" * 1000: "parse error at token 66: nested deeper",
    "E[" * 1000 + "1" + "]" * 1000: "parse error at token 66: nested deeper",
    "9" * 5000: "parse error at position 0: 5000 digits exceed the limit 1000",
    "x1^" + "9" * 5000: "parse error at position 3: 5000 digits exceed",
    "x" + "9" * 5000: "parse error at position 0: 5000 digits exceed",
}


def test_the_grammar_refuses_deep_nesting_and_long_numbers():
    """Text nested 1,000 deep, or with a number, an exponent or a variable
    index of 5,000 digits, is refused with the parser's own ValueError in
    under 0.2 s, before recursion or int conversion fails; text at the
    bounds parses."""
    assert (MAX_NESTING, MAX_DIGITS) == (32, 1000)
    assert parse_scalar("(" * 32 + "1" + ")" * 32) == ONE
    assert parse_scalar("9" * 1000) == Scalar(int("9" * 1000))
    assert parse_poly("x" + "0" * 999 + "1" + "^" + "0" * 999 + "2", 1) == parse_poly("x1^2", 1)
    for text, why in REFUSED.items():
        for parse in (parse_scalar, lambda t: parse_exppoly(t, 1)):
            start = time.perf_counter()
            with pytest.raises(ValueError, match="^" + re.escape(why)):
                parse(text)
            assert time.perf_counter() - start < 0.2, why


def _reciprocal_sum(n):
    """1/n_1 + ... + 1/n_n over distinct odd 1,000-digit n_k, seeded."""
    rng = random.Random(n)
    return "+".join("1/%d" % (rng.randrange(10 ** 999, 10 ** 1000) | 1) for _ in range(n))


# text whose value would pass MAX_BITS: a power of a power, a power and a
# product of 1,000-digit numbers, a chain of divisions by them, and sums of
# 10 and 100 of their reciprocals
NINES = "9" * 1000
TOO_MANY_BITS = ["((9^256)^256)^256", "(%s)^256" % NINES, "%s*%s*%s" % ((NINES,) * 3),
                 "1/%s/%s/%s" % ((NINES,) * 3),
                 *(pytest.param(_reciprocal_sum(n), id="sum of %d reciprocals" % n)
                   for n in (10, 100))]


@pytest.mark.parametrize("text", TOO_MANY_BITS)
def test_products_and_powers_are_charged_their_bits(text):
    """A product is refused when bits(a) + bits(b) would pass MAX_BITS,
    so is each step of a power, and so is a sum when bits(x) + bits(y)
    would for the coefficients x and y its operands hold at one term key:
    a text of 17 characters whose value has about 53M bits, and a sum of
    reciprocals of distinct 1,000-digit numbers, whose denominator would
    grow by 3,322 bits a term, are refused in under 0.2 s, through
    parse_scalar and as an entry of FinMod.from_json, whose error names
    the entry."""
    from jetcalc.localmod import FinMod
    from jetcalc.poly import MAX_BITS
    module = json.loads(FinMod([[[ZERO]]]).to_json())
    module["action"] = [[text]]
    why = "parsing would form a value of about [0-9]+ bits, past the limit %d$" % MAX_BITS
    for parse, where in ((parse_scalar, ""), (lambda t: FinMod.from_json(json.dumps(module)),
                                              "action matrix 0 entry 0: ")):
        start = time.perf_counter()
        with pytest.raises(ValueError, match="^" + where + why):
            parse(text)
        assert time.perf_counter() - start < 0.2


def test_the_bit_budget_admits_every_canonical_entry_within_the_digit_bound():
    """MAX_BITS is twice a MAX_DIGITS number's bits rounded up, so the
    canonical a/d+b/d*i of parts with 1,000-digit numerators and denominator
    parses, and so do powers up to the budget."""
    from jetcalc.poly import MAX_BITS
    assert MAX_BITS == 8192 >= 2 * int("9" * MAX_DIGITS).bit_length()
    den = 10 ** 999 + 9
    x = Scalar(Fraction(-(10 ** 999) + 7, den), Fraction(int(NINES), den))
    assert parse_scalar(x.json_str()) == x
    assert parse_scalar("(2^256)^2") == Scalar(2 ** 512)
    # 2^4095 has 4,096 bits and 2^4096 one more
    assert parse_scalar("((2^63)^65)*((2^63)^65)") == Scalar(2 ** 8190)
    with pytest.raises(ValueError, match="about 8193 bits"):
        parse_scalar("((2^64)^64)*((2^63)^65)")


def test_sums_of_distinct_terms_and_canonical_entries_fit_the_bit_budget():
    """A sum of distinct terms adds no bits, so 200 distinct monomials with
    3,000-bit coefficients parse; a/b+c/d*i with four 1,000-digit parts,
    whose two terms share a key, parses to its value, and so do the first
    two terms of a refused sum of reciprocals."""
    parse_scalar("+".join(_reciprocal_sum(10).split("+")[:2]))
    rng = random.Random(5)
    coeffs = [rng.getrandbits(3000) | 1 << 2999 for _ in range(200)]
    text = " + ".join("(%d)*x1^%d" % (c, k) for k, c in enumerate(coeffs))
    assert parse_poly(text, 1) == Polynomial(1, {(k,): Scalar(c) for k, c in enumerate(coeffs)})
    a, b, c, d = (rng.randrange(10 ** 999, 10 ** 1000) for _ in range(4))
    assert parse_scalar("%d/%d+%d/%d*i" % (a, b, c, d)) == Scalar(Fraction(a, b), Fraction(c, d))


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
    # one body, two types: equal terms never make an operator equal a function
    assert u != p and p != u
    assert hash(u) == hash(p)
    assert type(u * v) is DiffOp and type(u - v) is DiffOp
    assert str(u) == str(p).replace("x", "X")


def test_vectors_and_covectors_share_arithmetic_but_never_compare_equal():
    coords = (sc(1), sc(-2))
    v, xi = Vector(coords), Covector(coords)
    assert v != xi and xi != v
    assert hash(v) == hash(xi) == hash(coords)
    assert isinstance(v + v, Vector) and isinstance(-xi, Covector)
    assert (xi + xi + xi).coords == (sc(3), sc(-6))
    assert v - v == Vector.zero(2) and (v - v).is_zero()
    assert str(v) == str(xi) == "1,-2"
    assert v.as_diffop() == xi.as_diffop()
    assert Covector.basis(2, 1)(v) == sc(-2)


def test_coordinate_sums_refuse_a_length_mismatch():
    """+ and - refuse operands of different lengths; zip once made
    Vector((1, 2)) + Vector((5,)) the length-1 Vector 6."""
    short, pair = Vector((5,)), Vector((1, 2))
    for op in (lambda: pair + short, lambda: short + pair, lambda: pair - short,
               lambda: short - pair, lambda: Covector((1, 2)) + Covector((5,))):
        with pytest.raises(ValueError, match="^length mismatch: [12] vs [12] coordinates$"):
            op()
    assert pair - Vector((1, 1)) == Vector((0, 1))


def test_exponents_above_the_cap_are_refused():
    from jetcalc.poly import MAX_EXPONENT
    assert parse_poly("x1^%d" % MAX_EXPONENT, 1) == Polynomial.monomial(1, (MAX_EXPONENT,))
    for text in ("(x1 + 1)^%d" % (MAX_EXPONENT + 1), "x1^200000"):
        with pytest.raises(ValueError):
            parse_exppoly(text, 1)


def test_powers_are_bounded_by_their_work(monkeypatch):
    from jetcalc import poly
    from jetcalc.poly import MAX_PARSE_WORK
    assert parse_poly("x1^256", 1) == Polynomial.monomial(1, (256,))
    assert parse_poly("(x1+1)^256", 1) == x1_plus_1_to(256)
    # every product the parser forms stays within the bound, so the refused
    # inputs fail before anything runs at their size
    largest = []
    probe(monkeypatch, poly.ExpPoly, "__mul__", lambda a, b: isinstance(b, poly.ExpPoly)
          and largest.append(poly._nterms(a) * poly._nterms(b)))
    for text in ("((x1+1)^256)^256", "(x1+x2+x3+1)^256"):
        with pytest.raises(ValueError, match="limit %d" % MAX_PARSE_WORK):
            parse_exppoly(text, 3)
    assert largest and max(largest) <= MAX_PARSE_WORK


def test_one_parse_budget_covers_every_product(monkeypatch):
    """One parse_exppoly call forms at most MAX_PARSE_WORK term pairs over
    all its products, whether from *, juxtaposition or ^.  The products are
    counted, so a refused input never runs past the budget."""
    from jetcalc import poly
    from jetcalc.poly import MAX_PARSE_WORK
    pairs = []

    def within_budget(a, b):
        if isinstance(b, poly.ExpPoly):
            pairs.append(poly._nterms(a) * poly._nterms(b))
            assert sum(pairs) <= MAX_PARSE_WORK, "parsed past the budget"

    probe(monkeypatch, poly.ExpPoly, "__mul__", within_budget)
    power = x1_plus_1_to(256)
    assert parse_poly("(x1+1)^256", 1) == power
    assert sum(pairs) == 65792
    sum4 = "(x1+x2+x3+1)"
    for text in ("((x1+1)^2)^256", "*".join([sum4] * 30), sum4 * 30):
        pairs.clear()
        with pytest.raises(ValueError, match="limit %d" % MAX_PARSE_WORK):
            parse_exppoly(text, 3)
    pairs.clear()
    assert parse_poly("(x1+1)^256", 1) == power  # the budget is per call


TERM_DICT_OPERATORS = ("__bool__", "__eq__", "__hash__", "__add__", "__radd__",
                       "__neg__", "__sub__", "__rsub__", "__mul__", "__rmul__")


def two_terms(cls, nvars):
    """A value of cls with two terms over nvars variables."""
    p = parse_poly("(2)*x1 + (1-1 i)", nvars)
    if cls is ExpPoly:
        return ExpPoly.exp((ONE,) * nvars, p, unit=sc(1)) + 3
    return cls(nvars, p.terms)


@pytest.mark.parametrize("cls", [Polynomial, DiffOp, ExpPoly])
def test_term_dicts_share_one_arithmetic_body(cls):
    for name in TERM_DICT_OPERATORS:
        assert getattr(cls, name) is getattr(_TermDict, name), name
        for owner in cls.__mro__[:cls.__mro__.index(_TermDict)]:
            assert name not in vars(owner), (owner, name)
    a = two_terms(cls, 2)
    for zero in (a * ZERO, ZERO * a, a * 0, a - a):
        assert type(zero) is cls and zero.terms == {} and not zero
    assert type(a + a) is cls and a + a == a * 2 == sc(2) * a
    assert hash(a + a) == hash(a * 2) and -(-a) == a and a != a * 2
    c = a * 0 + 3  # a constant of this type
    assert c == 3 and c == sc(3) and 3 == c and sc(3) == c and c != 4
    assert 1 - a == -(a - 1) and type(1 - a) is cls
    b = two_terms(cls, 3)
    for op in (lambda: a + b, lambda: a - b, lambda: a * b, lambda: b * a):
        with pytest.raises(ValueError, match="arity mismatch: "):
            op()
    assert a != b
    if cls is Polynomial:
        u = DiffOp(2, a.terms)
        assert a != u and u != a
        for op in (lambda: a + u, lambda: a * u):
            with pytest.raises(TypeError):
                op()
        e = two_terms(ExpPoly, 2)
        assert ExpPoly.from_poly(a) == a and a == ExpPoly.from_poly(a)
        for mixed in (a + e, e + a, a - e, a * e, e * a):
            assert type(mixed) is ExpPoly
        assert a + e == ExpPoly.from_poly(a) + e


def test_equal_term_dicts_hash_alike():
    """A term dict equal to a constant, and an ExpPoly equal to its
    Polynomial, hash like it, so a set holds each equal pair once."""
    p = parse_poly("x1+1", 1)
    pairs = [(ExpPoly.from_poly(p), p), (ExpPoly.const(0, sc(3)), 3),
             (Polynomial.const(1, 3), 3), (ExpPoly.const(2, sc(1, 2)), sc(1, 2)),
             (DiffOp.const(1, sc(0, 1)), sc(0, 1)), (ExpPoly.zero(1), 0),
             (Polynomial.zero(2), ZERO), (ExpPoly.zero(0), 0)]
    for x, y in pairs:
        assert x == y and y == x
        assert len({x, y}) == 1 and len({y, x}) == 1, (x, y)
