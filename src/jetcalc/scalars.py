"""Exact Gaussian rationals, and the term dicts built over them.

Scalar is the base field Q(i): every value is (a + b*i)/den with integer a, b,
den > 0 and gcd(a, b, den) = 1.  Arithmetic never rounds, and a Scalar is
built from int or Fraction parts only: text goes through poly's grammar.

Every sparse object of the package is a term dict {key: coefficient} with
no zero coefficients: poly's polynomials and operators key by exponents,
its exponential polynomials by (frequency, unit).  _terms_add and
_terms_mul are their one sum and one product; a product merges two keys by
the caller's `combine`.  The three value types of poly share one
arithmetic body, _TermDict: its equality, hash, +, -, negation and *, and
its one arity check.
"""

from fractions import Fraction
from math import gcd


def _mk(a, b, den):
    # internal fast constructor, normalizes; arithmetic and the parser build
    # their Scalars here, so this is where a zero denominator is refused
    if den <= 0:
        if den == 0:
            raise ZeroDivisionError("Scalar with zero denominator")
        a, b, den = -a, -b, -den
    g = gcd(gcd(a, b), den)
    if g > 1:
        a //= g
        b //= g
        den //= g
    s = object.__new__(Scalar)
    s.a, s.b, s.den = a, b, den
    return s


class Scalar:
    """A Gaussian rational (a + b*i)/den in lowest terms."""

    __slots__ = ("a", "b", "den")

    def __init__(self, re=0, im=0):
        if isinstance(re, Scalar):
            if im:
                raise TypeError("Scalar(re, im) takes no imaginary part for a Scalar re")
            self.a, self.b, self.den = re.a, re.b, re.den
            return
        for part in (re, im):
            if not isinstance(part, (int, Fraction)):
                raise TypeError("Scalar parts must be int or Fraction, not %s"
                                % type(part).__name__)
        a = re.numerator * im.denominator
        b = im.numerator * re.denominator
        den = re.denominator * im.denominator
        g = gcd(gcd(a, b), den)
        self.a, self.b, self.den = a // g, b // g, den // g

    def __bool__(self):
        return self.a != 0 or self.b != 0

    def __eq__(self, other):
        if isinstance(other, int):
            return self.b == 0 and self.den == 1 and self.a == other
        if not isinstance(other, Scalar):
            return NotImplemented
        return self.a == other.a and self.b == other.b and self.den == other.den

    def __hash__(self):
        if self.b == 0 and self.den == 1:
            # equal to the int a, so hash like it
            return hash(self.a)
        return hash((self.a, self.b, self.den))

    def key(self):
        """Deterministic sort key (Q(i) has no natural order)."""
        return (Fraction(self.a, self.den), Fraction(self.b, self.den))

    def __add__(self, other):
        if isinstance(other, int):
            return _mk(self.a + other * self.den, self.b, self.den)
        if not isinstance(other, Scalar):
            return NotImplemented
        return _mk(self.a * other.den + other.a * self.den,
                   self.b * other.den + other.b * self.den,
                   self.den * other.den)

    __radd__ = __add__

    def __neg__(self):  # -x and conj(x) keep lowest terms: no _mk
        s = object.__new__(Scalar)
        s.a, s.b, s.den = -self.a, -self.b, self.den
        return s

    def __sub__(self, other):
        if isinstance(other, int):
            return _mk(self.a - other * self.den, self.b, self.den)
        if not isinstance(other, Scalar):
            return NotImplemented
        return _mk(self.a * other.den - other.a * self.den,
                   self.b * other.den - other.b * self.den,
                   self.den * other.den)

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        if isinstance(other, int):
            return _mk(self.a * other, self.b * other, self.den)
        if not isinstance(other, Scalar):
            return NotImplemented
        return _mk(self.a * other.a - self.b * other.b,
                   self.a * other.b + self.b * other.a,
                   self.den * other.den)

    __rmul__ = __mul__

    def inverse(self):
        n = self.a * self.a + self.b * self.b
        if n == 0:
            raise ZeroDivisionError("division by zero scalar")
        return _mk(self.den * self.a, -self.den * self.b, n)

    def __truediv__(self, other):
        if isinstance(other, int):
            return _mk(self.a, self.b, self.den * other)
        if not isinstance(other, Scalar):
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        return self.inverse() * other

    def __repr__(self):
        return "Scalar(%r)" % (str(self),)

    def __str__(self):
        """Each nonzero part over the common denominator, which is not
        reduced per part: 0, 5, -1/2, i, -2/3*i, 1/3+i, and 1/2+6/2*i for
        1/2+3i, 4/2-9/2*i for (4-9i)/2.  parse_scalar reads it back, and the
        instance digests hash it."""
        re_s = _rat_str(self.a, self.den)
        if self.b == 0:
            return re_s
        im_s = _imag_str(self.b, self.den)
        if self.a == 0:
            return im_s
        if im_s.startswith("-"):
            return re_s + im_s
        return re_s + "+" + im_s

    def json_str(self):
        """Canonical `a/b+c/d*i` form used in file formats."""
        sign = "+" if self.b >= 0 else "-"
        return "%d/%d%s%d/%d*i" % (self.a, self.den, sign, abs(self.b), self.den)


def _rat_str(num, den):
    if den == 1:
        return str(num)
    return "%d/%d" % (num, den)


def _imag_str(num, den):
    if num == den:
        return "i"
    if num == -den:
        return "-i"
    return _rat_str(num, den) + "*i"


ZERO = Scalar(0)
ONE = Scalar(1)


def _terms_add(t1, pairs):
    """t1 plus the (key, coefficient) pairs, as a new term dict; cancelled
    keys are dropped."""
    t = dict(t1)
    for k, c in pairs:
        s = t.get(k)
        s = c if s is None else s + c
        if s:
            t[k] = s
        else:
            t.pop(k, None)
    return t


def _terms_mul(t1, t2, combine):
    """Product of two term dicts: keys merge by combine(k1, k2) and
    coefficients multiply; cancelled keys are dropped."""
    t = {}
    for k1, c1 in t1.items():
        for k2, c2 in t2.items():
            k = combine(k1, k2)
            c = c1 * c2
            s = t.get(k)
            s = c if s is None else s + c
            if s:
                t[k] = s
            else:
                t.pop(k, None)
    return t


class _TermDict:
    """A zero-free term dict over `nvars` variables, so equality is plain
    dict equality: the one arithmetic body of poly.Polynomial, poly.DiffOp
    and poly.ExpPoly.  A subclass gives its key product _combine and
    _coerce, which returns an operand as a value of the subclass or None;
    arithmetic builds the subclass, and equality is as strict as _coerce.
    A Scalar (or int) operand of * scales every coefficient."""

    __slots__ = ("nvars", "terms")

    def _new(self, terms):
        out = object.__new__(type(self))
        out.nvars = self.nvars
        out.terms = terms
        return out

    def _operand(self, other):
        other = self._coerce(other)
        if other is not None and other.nvars != self.nvars:
            raise ValueError("arity mismatch: %d vs %d variables" % (self.nvars, other.nvars))
        return other

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self.nvars == other.nvars and self.terms == other.terms

    def __hash__(self):
        # a value equal to its lone coefficient (a constant, or an ExpPoly
        # equal to its Polynomial) hashes like that coefficient
        if not self.terms:
            return hash(ZERO)
        if len(self.terms) == 1:
            (c,) = self.terms.values()
            if self == c:
                return hash(c)
        return hash((self.nvars, frozenset(self.terms.items())))

    def __add__(self, other):
        other = self._operand(other)
        if other is None:
            return NotImplemented
        return self._new(_terms_add(self.terms, other.terms.items()))

    __radd__ = __add__

    def __neg__(self):
        return self._new({k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        other = self._operand(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Scalar)):
            return self._new({k: c * other for k, c in self.terms.items()} if other else {})
        other = self._operand(other)
        if other is None:
            return NotImplemented
        return self._new(_terms_mul(self.terms, other.terms, self._combine))

    __rmul__ = __mul__
