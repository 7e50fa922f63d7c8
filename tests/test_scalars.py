"""Field arithmetic in Q(i), and the formal-exponential values: ExpPolys
in no variables, sums of c * E[a]."""

from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

from jetcalc.poly import ExpPoly, parse_exppoly, parse_scalar
from jetcalc.scalars import Scalar, ZERO, ONE, Scalar as sc, _mk


def unit(a):
    """The formal unit E[a], an ExpPoly in no variables."""
    return ExpPoly.exp((), unit=a)


def scalars(nonzero=False):
    nums = st.integers(min_value=-6, max_value=6)
    dens = st.integers(min_value=1, max_value=4)
    base = st.builds(lambda a, b, d: Scalar(Fraction(a, d), Fraction(b, d)),
                     nums, nums, dens)
    if nonzero:
        return base.filter(bool)
    return base


@given(scalars(), scalars(), scalars())
def test_ring_laws(a, b, c):
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + ZERO == a and a * ONE == a
    assert a - a == ZERO


@given(scalars(nonzero=True))
def test_inverses(a):
    assert a * a.inverse() == ONE
    assert (ONE / a) * a == ONE


BIG = st.integers(min_value=-2 ** 200, max_value=2 ** 200)


@given(st.builds(_mk, BIG, BIG, st.integers(min_value=1, max_value=2 ** 200)))
@example(ZERO)
@example(sc(Fraction(3, 4), Fraction(-5, 6)))
@example(_mk(2 ** 200 - 1, -(3 ** 126), 5 ** 86))
def test_negation_is_in_lowest_terms(x):
    """-x skips _mk: it must be, part for part, the value _mk normalizes
    from the negated parts."""
    got, want = -x, _mk(-x.a, -x.b, x.den)
    assert type(got) is Scalar
    assert (got.a, got.b, got.den) == (want.a, want.b, want.den)


def test_imaginary_unit():
    i = sc(0, 1)
    assert i * i == sc(-1)
    assert (ONE + i) * (ONE - i) == sc(2)


def test_normalization_and_hash():
    assert sc(Fraction(2, 4)) == sc(Fraction(1, 2))
    assert hash(sc(Fraction(2, 4))) == hash(sc(Fraction(1, 2)))
    assert Scalar(sc(3)) == sc(3)


@given(scalars(), st.integers(min_value=1, max_value=5))
def test_equal_scalars_hash_equal(a, k):
    # the same value reached by a different route, unreduced on the way
    b = (a * k + sc(0, k)) / k - sc(0, 1)
    assert b == a and hash(b) == hash(a)


@given(st.integers(min_value=-10**30, max_value=10**30))
def test_integer_valued_scalars_hash_like_their_int(n):
    assert sc(n) == n and hash(sc(n)) == hash(n)
    assert hash(sc(Fraction(3 * n, 3))) == hash(n)


DIVIDE_BY_ZERO = [lambda: Scalar(1) / 0, lambda: sc(2, 3) / 0]
PARSE_BY_ZERO = [lambda: parse_scalar("1/0"), lambda: parse_scalar("(1+i)/0")]


@pytest.mark.parametrize("make", DIVIDE_BY_ZERO + PARSE_BY_ZERO)
def test_zero_denominators_are_refused(make):
    """Arithmetic raises ZeroDivisionError; the text parser refuses a
    division by zero as malformed input, with a ValueError."""
    if make in DIVIDE_BY_ZERO:
        with pytest.raises(ZeroDivisionError):
            make()
    else:
        with pytest.raises(ValueError, match="'/0' divides by zero"):
            make()


@given(scalars())
def test_json_round_trip(a):
    assert parse_scalar(a.json_str()) == a


@pytest.mark.parametrize("x, text", [
    (ZERO, "0"), (sc(5), "5"), (sc(Fraction(-1, 2)), "-1/2"), (sc(0, 1), "i"),
    (sc(0, -1), "-i"), (sc(0, Fraction(-2, 3)), "-2/3*i"), (sc(Fraction(1, 3), 1), "1/3+i"),
    (sc(Fraction(1, 2), 3), "1/2+6/2*i"), (sc(2, Fraction(-9, 2)), "4/2-9/2*i")])
def test_str_writes_each_part_over_the_common_denominator(x, text):
    """str keeps the form the instance digests hash: each nonzero part over
    the Scalar's denominator, unreduced per part, so (4-9i)/2 is 4/2-9/2*i."""
    assert str(x) == text
    assert parse_scalar(text) == x


@given(st.builds(_mk, BIG, BIG, st.integers(min_value=1, max_value=2 ** 200)))
def test_str_round_trips_through_the_parser(x):
    assert parse_scalar(str(x)) == x


def test_exp_scalar_units_multiply_by_adding_exponents():
    ea = unit(sc(1))
    eb = unit(sc(2))
    assert ea * eb == unit(sc(3))
    assert ea * unit(sc(-1)) == ExpPoly.const(0, ONE) == 1
    assert type(ea * eb) is ExpPoly and (ea * eb).nvars == 0


@given(scalars(), scalars(), scalars())
def test_exp_scalar_bilinearity(a, b, u):
    x = unit(u) * a
    y = unit(u) * b
    assert x + y == unit(u) * (a + b)
    assert x * b == unit(u) * (a * b)


def test_exp_scalar_mixed_with_plain():
    x = unit(sc(1)) * sc(2) + sc(5)
    assert x - sc(5) == unit(sc(1)) * sc(2)
    assert ZERO + unit(sc(1)) == unit(sc(1))


def test_scalar_extraction():
    assert ExpPoly.const(0, sc(7)).scalar() == sc(7)
    assert ExpPoly.zero(0).scalar() == ZERO and ExpPoly.const(2, sc(3)).scalar() == sc(3)
    with pytest.raises(ValueError) as refused:  # units must not silently collapse
        (unit(sc(1)) + sc(1)).scalar()
    assert str(refused.value) == "value carries formal exponential units: (1) + E[1]*((1))"
    with pytest.raises(ValueError, match=r"^value carries formal exponential units: exp\[1\]"):
        ExpPoly.exp((ONE,)).scalar()
    with pytest.raises(ValueError, match=r"^expected a scalar, got \(1\)\*x1$"):
        parse_exppoly("x1", 1).scalar()


@pytest.mark.parametrize("re, im", [(0.1, 0), (1, 0.5), (0.0, 0), (Fraction(1, 2), 2.0)])
def test_floats_are_refused(re, im):
    """Every Scalar is a Gaussian rational from the start: no float part."""
    with pytest.raises(TypeError, match="^Scalar parts must be int or Fraction, not float$"):
        Scalar(re, im)


@pytest.mark.parametrize("re, im", [("1e-3", 0), ("\u0661", 0), ("1_000", 0), (1, "2"),
                                    (Decimal("0.1"), 0), (0, Decimal(1))])
def test_only_int_and_fraction_parts_are_read(re, im):
    """Scalar reads no text and no other number type: parse_scalar is the
    one scalar grammar, and it takes ASCII digits only."""
    with pytest.raises(TypeError, match="^Scalar parts must be int or Fraction, not "):
        Scalar(re, im)
    assert Scalar(True, False) == ONE and Scalar(Fraction(6, 4), 3) == sc(Fraction(3, 2), 3)


def test_a_scalar_real_part_takes_no_imaginary_part():
    assert Scalar(sc(1, 2)) == sc(1, 2) and Scalar(sc(1), 0) == sc(1)
    with pytest.raises(TypeError, match="imaginary part"):
        Scalar(sc(1), 2)
