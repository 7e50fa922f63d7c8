"""Sparse multivariate polynomials over Q(i), exponential polynomials,
linear forms, and constant-coefficient differential operators.

All of them are term dicts with one arithmetic body, scalars._TermDict, so
equality is plain dict equality and every sum and product goes through
scalars._terms_add/_terms_mul.  Monomials are plain exponent tuples.
Polynomial and DiffOp share _Terms: {exponents: Scalar}; they differ in type
and in the printed letter (x or X).  ExpPoly keys its terms, Polynomials, by
(frequency, unit) where frequency is a covector xi (giving a factor e^xi)
and unit is an exact scalar a (giving a formal factor E[a]).  The units
live in the group algebra of (Q(i), +): E[a]*E[b] = E[a+b], and E[a] = 1
only for a = 0; they are never evaluated numerically.  Translation moves
value into the unit slot instead of evaluating anything, and _pair is the
one pairing xi(point).  A value with formal units, such as an evaluation,
is an ExpPoly in no variables, and ExpPoly.scalar is its one collapse to a
Scalar.

One substitution, _substitute, expands sum c * prod images[j]^e_j with each
power of each image formed once: evaluation (Scalars for the variables),
translation (x_j + mu_j) and the exponential series (the linear form xi in
the Taylor polynomial of exp).

Text grammar (printer output round-trips through parse_exppoly bit-exactly):

    term      = (re[+im i]) * x<j>^<e> * ...     factors joined by *
    poly      = term + term + ...
    summand   = [E[<scalar>]*] [exp[<covector>]*] (poly)
    <covector> = comma-joined scalars

``^1`` is omitted, a bare coefficient term prints as ``(c)``, and a pure
polynomial prints with no E[]/exp[] prefix.  The tokens come from one
table, _TOKENS, tried in order at each position: whitespace, an operator,
a number, ``i``, ``x<j>``/``X<j>``, ``exp`` and ``E``.  Digits are ASCII
0-9 only, so any other character, a non-ASCII digit too, is a parse error
at its position.  ``*`` and juxtaposition are one product, and ``exp[...]``
and ``E[...]`` one bracket rule.  The parser refuses with a ValueError text
nested deeper than MAX_NESTING, a number or index longer than MAX_DIGITS
digits and an exponent above MAX_EXPONENT.  ``^<e>`` is expanded by
repeated multiplication, so it also refuses an input whose products
(``*``, juxtaposition and each step of ``^``) form more than MAX_PARSE_WORK
term pairs in all, counted as left terms x right terms before each product
is formed, a product or a division whose operands' bits sum past
MAX_BITS, and a sum whose coefficients at one shared term key do.  The
entries of one file share the term-pair budget (`entry_parser`,
`scalar_parser`).  Nested powers, powers of sums, long
products of sums and many large entries all stay cheap to refuse.
"""

import re
from math import factorial
from operator import add, mul

from .scalars import Scalar, ZERO, ONE, _mk, _terms_add, _TermDict, _rat_str


def zero_exps(nvars):
    return (0,) * nvars


def grlex_key(exps):
    # ascending graded lex: compare by total degree, then exponent tuple
    return (sum(exps), exps)


def monomials_upto(nvars, k):
    """All exponent tuples of total degree <= k, ascending graded lex."""
    out = []
    def rec(prefix, remaining, slots):
        if slots == 0:
            out.append(prefix)
            return
        for e in range(remaining + 1):
            rec(prefix + (e,), remaining - e, slots - 1)
    rec((), k, nvars)
    out.sort(key=grlex_key)
    return out


def monomials_of_degree(nvars, d):
    return [e for e in monomials_upto(nvars, d) if sum(e) == d]


def _linear_terms(coeffs):
    """Term dict of the linear form sum_j coeffs[j] * x_j."""
    nv = len(coeffs)
    return {tuple(1 if t == j else 0 for t in range(nv)): c
            for j, c in enumerate(coeffs) if c}


def _substitute(p, images, total):
    """total + sum_e c_e * prod_j images[j]^e_j over the terms of p.  Each
    power of each image is formed once, by one product with the power
    below it, so a term costs one product per variable it holds."""
    powers = [[None, img] for img in images]
    for e, c in p.terms.items():
        for pw, k in zip(powers, e):
            if k:
                while len(pw) <= k:
                    pw.append(pw[-1] * pw[1])
                c = pw[k] * c
        total = total + c
    return total


def _pair(xi, coords, start=ZERO):
    """start + sum_j xi_j * coords_j: a frequency paired with a point."""
    return sum(map(mul, xi, coords), start) if any(xi) else start


def _point_coords(point, nvars):
    coords = point.coords if isinstance(point, Vector) else tuple(point)
    if len(coords) != nvars:
        raise ValueError("point has %d coordinates, expected %d" % (len(coords), nvars))
    return coords


class _Terms(_TermDict):
    """{exponents: Scalar} over a fixed number of variables: the common body
    of Polynomial and DiffOp.  The printer names variables by the class's
    LETTER, and _coerce is type-strict, so a Polynomial never equals a
    DiffOp."""

    __slots__ = ()
    LETTER = "x"

    def __init__(self, nvars, terms=None):
        self.nvars = nvars
        t = {}
        if terms:
            for exps, c in terms.items():
                if len(exps) != nvars:
                    raise ValueError("exponent tuple %r does not match nvars=%d" % (exps, nvars))
                if isinstance(c, int):
                    c = Scalar(c)
                if c:
                    t[exps] = c
        self.terms = t

    @staticmethod
    def _combine(e1, e2):
        # monomials multiply: exponents add
        return tuple(map(add, e1, e2))

    def _coerce(self, other):
        if isinstance(other, (int, Scalar)):
            return self.const(self.nvars, other)
        return other if isinstance(other, type(self)) else None

    @classmethod
    def zero(cls, nvars):
        return cls(nvars)

    @classmethod
    def const(cls, nvars, c):
        if isinstance(c, int):
            c = Scalar(c)
        return cls(nvars, {zero_exps(nvars): c})

    @classmethod
    def monomial(cls, nvars, exps):
        return cls(nvars, {tuple(exps): ONE})

    def degree(self):
        """Total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def sorted_terms(self):
        """Descending graded lex, for printing and deterministic traversal."""
        return sorted(self.terms.items(), key=lambda kv: grlex_key(kv[0]), reverse=True)

    def __str__(self):
        if not self.terms:
            return "(0)"
        parts = []
        for e, c in self.sorted_terms():
            factors = ["(%s)" % _coeff_str(c)]
            for j, p in enumerate(e):
                if p == 1:
                    factors.append("%s%d" % (self.LETTER, j + 1))
                elif p > 1:
                    factors.append("%s%d^%d" % (self.LETTER, j + 1, p))
            parts.append("*".join(factors))
        return " + ".join(parts)

    __repr__ = __str__


class Polynomial(_Terms):
    """Polynomial in x_1 .. x_nvars."""

    __slots__ = ()

    @classmethod
    def variable(cls, nvars, j):
        """x_{j+1}, zero-based j."""
        if not 0 <= j < nvars:
            raise ValueError("variable index %d out of range" % j)
        e = [0] * nvars
        e[j] = 1
        return cls(nvars, {tuple(e): ONE})

    def __pow__(self, n):
        if n < 0:
            raise ValueError("negative power of a polynomial")
        result = Polynomial.const(self.nvars, ONE)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def truncate(self, k):
        """Drop all terms of total degree > k."""
        return Polynomial(self.nvars, {e: c for e, c in self.terms.items() if sum(e) <= k})

    def evaluate(self, point):
        """Exact value at a point given as Vector or sequence of Scalars."""
        return _substitute(self, _point_coords(point, self.nvars), ZERO)

    def deriv(self, j):
        """Partial derivative d/dx_{j+1}."""
        return self._new({e[:j] + (e[j] - 1,) + e[j + 1:]: c * e[j]
                          for e, c in self.terms.items() if e[j]})

    def translate(self, mu):
        """p composed with the shift nu -> nu + mu."""
        n = self.nvars
        return _substitute(self, [Polynomial.variable(n, j) + m
                                  for j, m in enumerate(_point_coords(mu, n))],
                           Polynomial.zero(n))


def _coeff_str(c):
    """Grammar form `re` or `re+im i` (minus sign folded into im)."""
    re_s = _rat_str(c.a, c.den)
    if c.b == 0:
        return re_s
    im_s = _rat_str(abs(c.b), c.den)
    sign = "+" if c.b > 0 else "-"
    return "%s%s%s i" % (re_s, sign, im_s)


class _Coords:
    """A tuple of Scalars in Q(i)^N: the common body of Vector and Covector.
    Equality is type-strict, so a Vector never equals a Covector."""

    __slots__ = ("coords",)

    def __init__(self, coords):
        self.coords = tuple(c if isinstance(c, Scalar) else Scalar(c) for c in coords)

    @property
    def nvars(self):
        return len(self.coords)

    def is_zero(self):
        return not any(self.coords)

    def __eq__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        return self.coords == other.coords

    def __hash__(self):
        return hash(self.coords)

    def __add__(self, other):
        if len(other.coords) != len(self.coords):
            raise ValueError("length mismatch: %d vs %d coordinates"
                             % (len(self.coords), len(other.coords)))
        return type(self)(tuple(map(add, self.coords, other.coords)))

    def __neg__(self):
        return type(self)(tuple(-a for a in self.coords))

    def __str__(self):
        return ",".join(str(c) for c in self.coords)

    __repr__ = __str__

    @classmethod
    def basis(cls, nvars, j):
        return cls(tuple(ONE if t == j else ZERO for t in range(nvars)))

    @classmethod
    def zero(cls, nvars):
        return cls((ZERO,) * nvars)

    def as_diffop(self):
        """The first-order operator with these coefficients: the directional
        derivative along a Vector, or along a Covector's coordinates."""
        return DiffOp(len(self.coords), _linear_terms(self.coords))


class Vector(_Coords):
    """Point or direction in Q(i)^N."""

    __slots__ = ()

    def __len__(self):
        return len(self.coords)

    def __getitem__(self, j):
        return self.coords[j]

    def __iter__(self):
        return iter(self.coords)

    def __sub__(self, other):
        return self + (-other)


class Covector(_Coords):
    """Linear form on Q(i)^N."""

    __slots__ = ()

    def __call__(self, v):
        """Pairing with a Vector, exact and bilinear."""
        if len(v.coords) != len(self.coords):
            raise ValueError("covector/vector arity mismatch")
        return _pair(self.coords, v.coords)

    def as_polynomial(self):
        return Polynomial(len(self.coords), _linear_terms(self.coords))


class DiffOp(_Terms):
    """Element of the symmetric algebra on the X-variables, acting as a
    constant-coefficient differential operator: X^beta acts as d^beta."""

    __slots__ = ()
    LETTER = "X"

    @classmethod
    def one(cls, nvars):
        return cls.const(nvars, ONE)

    order = _Terms.degree


class ExpPoly(_TermDict):
    """Finite sum of  E[a] * e^xi * p(x)  summands: {(xi.coords, a):
    Polynomial}.  Distinct keys stay distinct (e^xi for distinct covectors
    xi are linearly independent, and so are the formal units)."""

    __slots__ = ()

    def __init__(self, nvars, terms=None):
        self.nvars = nvars
        terms = terms or {}
        if any(p.nvars != nvars for p in terms.values()):
            raise ValueError("summand arity mismatch")
        self.terms = _terms_add({}, (((tuple(freq), unit), p)
                                     for (freq, unit), p in terms.items()))

    @staticmethod
    def _combine(k1, k2):
        # e^xi E[a] e^eta E[b] = e^(xi+eta) E[a+b]
        return (tuple(map(add, k1[0], k2[0])), k1[1] + k2[1])

    def _coerce(self, other):
        if isinstance(other, (int, Scalar)):
            return ExpPoly.const(self.nvars, other)
        if isinstance(other, Polynomial):
            return ExpPoly.from_poly(other)
        return other if isinstance(other, ExpPoly) else None

    @classmethod
    def from_poly(cls, p):
        key = (tuple((ZERO,) * p.nvars), ZERO)
        return cls(p.nvars, {key: p})

    @classmethod
    def zero(cls, nvars):
        return cls(nvars)

    @classmethod
    def const(cls, nvars, c):
        return cls.from_poly(Polynomial.const(nvars, c))

    @classmethod
    def exp(cls, xi, p=None, unit=ZERO):
        """E[unit] * e^xi * p, with p defaulting to 1; xi may be a Covector
        or a plain coordinate tuple."""
        coords = xi.coords if isinstance(xi, Covector) else tuple(xi)
        nv = len(coords)
        if p is None:
            p = Polynomial.const(nv, ONE)
        return cls(nv, {(coords, unit): p})

    def is_polynomial(self):
        z = (ZERO,) * self.nvars
        return all(freq == z and unit == ZERO for freq, unit in self.terms)

    def pure(self):
        """As a plain Polynomial; rejects genuine exponential parts."""
        if not self.terms:
            return Polynomial.zero(self.nvars)
        if not self.is_polynomial():
            raise ValueError("not a pure polynomial: %s" % self)
        return next(iter(self.terms.values()))

    def deriv(self, j):
        """d/dx_{j+1}; on a summand: e^xi*(xi_j*p + dp)."""
        return self._new({(freq, unit): q for (freq, unit), p in self.terms.items()
                          if (q := p.deriv(j) + p * freq[j])})

    def translate(self, mu):
        """Pull-back along nu -> nu + mu; e^xi picks up the unit E[xi(mu)]."""
        coords = _point_coords(mu, self.nvars)
        return self._new(_terms_add({}, (((freq, _pair(freq, coords, unit)),
                                          p.translate(coords))
                                         for (freq, unit), p in self.terms.items())))

    def scalar(self):
        """As a Scalar; rejects formal units, frequencies and positive degree."""
        if not self.is_polynomial():
            raise ValueError("value carries formal exponential units: %s" % self)
        p = self.pure()
        if p.degree() > 0:
            raise ValueError("expected a scalar, got %s" % p)
        return p.terms.get(zero_exps(self.nvars), ZERO)

    def evaluate(self, point):
        """Exact value at a point, as an ExpPoly in no variables: e^xi
        contributes the formal unit E[xi(point)]."""
        coords = _point_coords(point, self.nvars)
        return sum((ExpPoly.exp((), unit=_pair(freq, coords, unit)) * p.evaluate(coords)
                    for (freq, unit), p in self.terms.items()), ExpPoly.zero(0))

    def sorted_terms(self):
        def key(item):
            (freq, unit), _ = item
            return tuple(c.key() for c in freq) + (unit.key(),)
        return sorted(self.terms.items(), key=key)

    def __str__(self):
        if not self.terms:
            return "(0)"
        z = (ZERO,) * self.nvars
        parts = []
        for (freq, unit), p in self.sorted_terms():
            prefix = []
            if unit != ZERO:
                prefix.append("E[%s]" % unit)
            if freq != z:
                prefix.append("exp[%s]" % ",".join(str(c) for c in freq))
            if prefix:
                parts.append("*".join(prefix) + "*(%s)" % p)
            else:
                parts.append(str(p))
        return " + ".join(parts)

    __repr__ = __str__


# --- the calculus ---------------------------------------------------------


def diff(u, f):
    """Apply the operator u to f.  Exact; an order-m u lowers polynomial
    degree by m, and on e^xi it multiplies by u(xi)."""
    if not isinstance(f, (Polynomial, ExpPoly)):
        raise TypeError("diff expects Polynomial or ExpPoly")
    if u.nvars != f.nvars:
        raise ValueError("operator has %d variables, function has %d" % (u.nvars, f.nvars))
    total = f.zero(f.nvars)
    for beta, c in u.terms.items():
        g = f
        for j, b in enumerate(beta):
            for _ in range(b):
                g = g.deriv(j)
        total = total + g * c
    return total


def exp_series(xi, k):
    """Polynomial truncation of e^xi through degree k: the Taylor
    polynomial sum_j t^j/j! of exp, with the linear form xi for t."""
    taylor = Polynomial(1, {(j,): _inv_int(factorial(j)) for j in range(k + 1)})
    return _substitute(taylor, [xi.as_polynomial()], Polynomial.zero(xi.nvars))


def _inv_int(n):
    return _mk(1, 0, n)


def beta_factorial(beta):
    f = 1
    for b in beta:
        f *= factorial(b)
    return f


# --- text grammar ----------------------------------------------------------

MAX_EXPONENT = 256
# most levels of brackets an entry may nest (the printer nests 2), and most
# digits of a number or index, below CPython's 4,300 for converting to int
MAX_NESTING, MAX_DIGITS = 32, 1000
# most term pairs the products of one parse_exppoly call, or of all the
# entries of one file, may form in all: (x1+1)^256 forms 65,792 and parses,
# ((x1+1)^2)^256 forms 196,614
MAX_PARSE_WORK = 1 << 17
# most bits a product formed while parsing may need, bits(a) + bits(b) for
# a b, charged before it is formed (a division by an integer n too, as
# bits(a) + bits(n), and a sum a + b as bits(x) + bits(y) for the
# coefficients x of a and y of b at each term key both hold), bits(x) being
# the longest numerator or denominator of a coefficient of x: twice a
# MAX_DIGITS number's 3,322 bits, rounded up to a power of two, so every
# canonical entry a/b+c/d*i within MAX_DIGITS parses
MAX_BITS = 1 << 13


def _nterms(e):
    return sum(len(p.terms) for p in e.terms.values())


def _scalar_bits(c):
    return max(abs(c.a).bit_length(), abs(c.b).bit_length(), c.den.bit_length())


def _bits(e):
    return max((_scalar_bits(c) for p in e.terms.values() for c in p.terms.values()), default=0)


def _sum_bits(a, b):
    """The most bits(x) + bits(y) over the term keys where a holds x and b
    holds y; 0 when they share none."""
    return max((_scalar_bits(p.terms[m]) + _scalar_bits(c) for k, q in b.terms.items()
                if (p := a.terms.get(k)) for m, c in q.terms.items() if m in p.terms),
               default=0)


def _charge_bits(nbits):
    if nbits > MAX_BITS:
        raise ValueError("parsing would form a value of about %d bits, past the "
                         "limit %d" % (nbits, MAX_BITS))


# named token patterns, tried in order at each position (see the grammar
# above); `i` is the imaginary unit when no letter or digit follows it
_TOKENS = (("space", r"[ \t\n]+"), ("op", r"[-+*/^()\[\],]"), ("num", r"[0-9]+"),
           ("imag", r"i(?![^\W_])"), ("var", r"[xX][0-9]+"), ("exp", "exp"), ("unit", "E"),
           ("error", "."))
_TOKEN = re.compile("|".join("(?P<%s>%s)" % t for t in _TOKENS), re.DOTALL)


def _tokenize(text):
    """(kind, value) pairs: an operator is its own kind, a number its int,
    a variable x<j> its zero-based index j - 1."""
    toks = []
    for m in _TOKEN.finditer(text):
        kind, val, pos = m.lastgroup, m.group(), m.start()
        if kind == "error":
            raise ValueError("parse error at position %d: unexpected %r"
                             % (pos, text[pos:pos + 8]))
        if kind == "op":
            kind = val
        elif kind in ("num", "var"):
            digits = val.lstrip("xX")
            if len(digits) > MAX_DIGITS:
                raise ValueError("parse error at position %d: %d digits exceed the limit %d"
                                 % (pos, len(digits), MAX_DIGITS))
            val = int(digits) - (kind == "var")
        if kind != "space":
            toks.append((kind, val))
    return toks


class _Parser:
    """Recursive descent over the grammar; every construct is evaluated
    directly in the ExpPoly algebra, so coefficients, monomials and
    exponential prefixes all go through one code path."""

    def __init__(self, nvars):
        self.nvars = nvars
        self.work = 0  # term pairs formed by every parse so far, see MAX_PARSE_WORK

    def parse(self, text):
        if not isinstance(text, str):
            raise ValueError("an entry must be a string, not %r" % (text,))
        self.toks = _tokenize(text)
        self.pos = self.depth = 0
        out = self.parse_expr()
        if self.pos != len(self.toks):
            raise ValueError("parse error: trailing input at token %d" % self.pos)
        return out

    def mul(self, a, b):
        """a * b, charged to the bit and work budgets before it is formed."""
        _charge_bits(_bits(a) + _bits(b))
        self.work += _nterms(a) * _nterms(b)
        if self.work > MAX_PARSE_WORK:
            raise ValueError("parsing needs more term products than the "
                             "limit %d" % MAX_PARSE_WORK)
        return a * b

    def peek(self):
        return self.toks[self.pos] if self.pos < len(self.toks) else (None, None)

    def take(self, kind=None):
        tok = self.peek()
        if kind is not None and tok[0] != kind:
            raise ValueError("parse error at token %d: expected %s, got %r" % (self.pos, kind, tok[1]))
        self.pos += 1
        return tok

    def parse_expr(self):
        """Terms joined by + and -, with an optional leading sign; every
        bracket descends here, at most MAX_NESTING deep."""
        if self.depth > MAX_NESTING:
            raise ValueError("parse error at token %d: nested deeper than the limit %d"
                             % (self.pos, MAX_NESTING))
        self.depth += 1
        total, sign = ExpPoly.zero(self.nvars), "+"
        if self.peek()[0] in ("+", "-"):
            sign = self.take()[0]
        while True:
            term = self.parse_term()
            _charge_bits(_sum_bits(total, term))
            total = total - term if sign == "-" else total + term
            sign = self.peek()[0]
            if sign not in ("+", "-"):
                self.depth -= 1
                return total
            self.take()

    def parse_term(self):
        """Factors joined by *, by juxtaposition (e.g. `3 i` inside a
        coefficient) or divided by an integer."""
        total = self.parse_factor()
        while True:
            kind, _ = self.peek()
            if kind == "/":
                self.take()
                kindn, val = self.take()
                if kindn != "num":
                    raise ValueError("parse error: '/' must be followed by an integer")
                if not val:
                    raise ValueError("parse error at token %d: '/%s' divides by zero"
                                     % (self.pos - 1, val))
                _charge_bits(_bits(total) + val.bit_length())
                total = total * _inv_int(val)
            elif kind in ("*", "num", "imag", "var", "(", "exp", "unit"):
                if kind == "*":
                    self.take()
                total = self.mul(total, self.parse_factor())
            else:
                return total

    def parse_factor(self):
        kind, val = self.take()
        if kind == "num":
            base = ExpPoly.const(self.nvars, Scalar(val))
        elif kind == "imag":
            base = ExpPoly.const(self.nvars, Scalar(0, 1))
        elif kind == "var":
            if not 0 <= val < self.nvars:
                raise ValueError("variable x%d out of range for %d variables" % (val + 1, self.nvars))
            base = ExpPoly.from_poly(Polynomial.variable(self.nvars, val))
        elif kind == "(":
            base = self.parse_expr()
            self.take(")")
        elif kind in ("exp", "unit"):
            # exp[xi_1,...,xi_N] is e^xi, E[a] the unit E[a] of e^0
            self.take("[")
            coords = [self.parse_constant()]
            while self.peek()[0] == ",":
                self.take()
                coords.append(self.parse_constant())
            self.take("]")
            if kind == "exp" and len(coords) != self.nvars:
                raise ValueError("exp[] covector needs %d coordinates" % self.nvars)
            if kind == "unit" and len(coords) != 1:
                raise ValueError("E[] takes a single scalar")
            base = (ExpPoly.exp(coords) if kind == "exp"
                    else ExpPoly.exp((ZERO,) * self.nvars, unit=coords[0]))
        else:
            raise ValueError("parse error at token %d: unexpected %r" % (self.pos - 1, val))
        if self.peek()[0] == "^":
            self.take()
            kindn, power = self.take()
            if kindn != "num":
                raise ValueError("parse error: '^' must be followed by an integer")
            if power > MAX_EXPONENT:
                raise ValueError("exponent %d exceeds the limit %d"
                                 % (power, MAX_EXPONENT))
            out = ExpPoly.const(self.nvars, ONE)
            for _ in range(power):
                out = self.mul(out, base)
            return out
        return base

    def parse_constant(self):
        """An expression of degree <= 0, as its Scalar."""
        return self.parse_expr().scalar()


def parse_exppoly(text, nvars):
    return _Parser(nvars).parse(text)


def entry_parser(nvars):
    """parse_exppoly(., nvars) for the entries of one file: all its calls
    share one MAX_PARSE_WORK budget, so a file's load time stays bounded
    however many entries it holds."""
    return _Parser(nvars).parse


def scalar_parser():
    """parse_scalar for the entries of one file: all its calls share one
    MAX_PARSE_WORK budget, as entry_parser(0)'s do."""
    parse = entry_parser(0)
    return lambda text: parse(text).scalar()


def parse_scalar(text):
    return scalar_parser()(text)
