"""Sparse multivariate polynomials over Q(i), exponential polynomials,
linear forms, and constant-coefficient differential operators.

Monomials are plain exponent tuples.  A Polynomial stores {exponents: Scalar}
with no zero coefficients, so equality is plain dict equality.  ExpPoly keys
its summands by (frequency, unit) where frequency is a covector xi (giving a
factor e^xi) and unit is an exact scalar a (giving a formal factor E[a], see
scalars.ExpScalar); translation moves value into the unit slot instead of
evaluating anything.

Text grammar (printer output round-trips through parse_exppoly bit-exactly):

    term      = (re[+im i]) * x<j>^<e> * ...     factors joined by *
    poly      = term + term + ...
    summand   = [E[<scalar>]*] [exp[<covector>]*] (poly)
    <covector> = comma-joined scalars

``^1`` is omitted, a bare coefficient term prints as ``(c)``, and a pure
polynomial prints with no E[]/exp[] prefix.  ``^<e>`` is expanded by
repeated multiplication, so the parser bounds its work with a ValueError:
it refuses an exponent above MAX_EXPONENT, and a step of the expansion whose
(accumulator terms) x (base terms) exceeds MAX_POWER_WORK, so nested powers
and powers of sums stay cheap to refuse.
"""

from math import factorial

from .scalars import Scalar, ExpScalar, ZERO, ONE, _mk


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


def _terms_add(t1, t2):
    """Sum of two {key: coefficient} dicts; cancelled keys are dropped."""
    t = dict(t1)
    for e, c in t2.items():
        s = t.get(e)
        s = c if s is None else s + c
        if s:
            t[e] = s
        else:
            t.pop(e, None)
    return t


def _terms_mul(t1, t2):
    """Product of two {exponents: coefficient} dicts: exponents add and
    coefficients multiply; cancelled monomials are dropped."""
    t = {}
    for e1, c1 in t1.items():
        for e2, c2 in t2.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            c = c1 * c2
            s = t.get(e)
            s = c if s is None else s + c
            if s:
                t[e] = s
            else:
                t.pop(e, None)
    return t


class Polynomial:
    __slots__ = ("nvars", "terms")

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

    @classmethod
    def zero(cls, nvars):
        return cls(nvars)

    @classmethod
    def const(cls, nvars, c):
        if isinstance(c, int):
            c = Scalar(c)
        return cls(nvars, {zero_exps(nvars): c})

    @classmethod
    def variable(cls, nvars, j):
        """x_{j+1}, zero-based j."""
        if not 0 <= j < nvars:
            raise ValueError("variable index %d out of range" % j)
        e = [0] * nvars
        e[j] = 1
        return cls(nvars, {tuple(e): ONE})

    @classmethod
    def monomial(cls, nvars, exps, c=ONE):
        return cls(nvars, {tuple(exps): c})

    def is_zero(self):
        return not self.terms

    def degree(self):
        """Total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if isinstance(other, int):
            other = Polynomial.const(self.nvars, other)
        if isinstance(other, Scalar):
            other = Polynomial.const(self.nvars, other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.nvars == other.nvars and self.terms == other.terms

    def __hash__(self):
        return hash((self.nvars, frozenset(self.terms.items())))

    def _same_arity(self, other):
        if self.nvars != other.nvars:
            raise ValueError("arity mismatch: %d vs %d variables" % (self.nvars, other.nvars))

    def __add__(self, other):
        if isinstance(other, (int, Scalar)):
            other = Polynomial.const(self.nvars, other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._same_arity(other)
        out = object.__new__(Polynomial)
        out.nvars = self.nvars
        out.terms = _terms_add(self.terms, other.terms)
        return out

    __radd__ = __add__

    def __neg__(self):
        out = object.__new__(Polynomial)
        out.nvars = self.nvars
        out.terms = {e: -c for e, c in self.terms.items()}
        return out

    def __sub__(self, other):
        if isinstance(other, (int, Scalar)):
            other = Polynomial.const(self.nvars, other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, int):
            other = Scalar(other)
        if isinstance(other, Scalar):
            if not other:
                return Polynomial.zero(self.nvars)
            out = object.__new__(Polynomial)
            out.nvars = self.nvars
            out.terms = {e: c * other for e, c in self.terms.items()}
            return out
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._same_arity(other)
        out = object.__new__(Polynomial)
        out.nvars = self.nvars
        out.terms = _terms_mul(self.terms, other.terms)
        return out

    __rmul__ = __mul__

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
        coords = point.coords if isinstance(point, Vector) else tuple(point)
        if len(coords) != self.nvars:
            raise ValueError("point has %d coordinates, expected %d" % (len(coords), self.nvars))
        total = ZERO
        for e, c in self.terms.items():
            v = c
            for x, p in zip(coords, e):
                for _ in range(p):
                    v = v * x
            total = total + v
        return total

    def deriv(self, j, times=1):
        """Partial derivative d/dx_{j+1}, iterated."""
        t = self.terms
        for _ in range(times):
            nt = {}
            for e, c in t.items():
                if e[j]:
                    ne = e[:j] + (e[j] - 1,) + e[j + 1:]
                    nt_c = c * e[j]
                    s = nt.get(ne)
                    nt[ne] = nt_c if s is None else s + nt_c
            t = nt
        return Polynomial(self.nvars, t)

    def deriv_multi(self, beta):
        """d^beta, one exponent per variable."""
        p = self
        for j, b in enumerate(beta):
            if b:
                p = p.deriv(j, b)
        return p

    def translate(self, mu):
        """p composed with the shift nu -> nu + mu."""
        coords = mu.coords if isinstance(mu, Vector) else tuple(mu)
        if len(coords) != self.nvars:
            raise ValueError("shift has %d coordinates, expected %d" % (len(coords), self.nvars))
        shifted_var = []
        for j in range(self.nvars):
            shifted_var.append(Polynomial.variable(self.nvars, j) + Polynomial.const(self.nvars, coords[j]))
        total = Polynomial.zero(self.nvars)
        for e, c in self.terms.items():
            term = Polynomial.const(self.nvars, c)
            for j, p in enumerate(e):
                if p:
                    term = term * shifted_var[j] ** p
            total = total + term
        return total

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
                    factors.append("x%d" % (j + 1))
                elif p > 1:
                    factors.append("x%d^%d" % (j + 1, p))
            parts.append("*".join(factors))
        return " + ".join(parts)

    __repr__ = __str__


def _coeff_str(c):
    """Grammar form `re` or `re+im i` (minus sign folded into im)."""
    re_s = _rat(c.a, c.den)
    if c.b == 0:
        return re_s
    im_s = _rat(abs(c.b), c.den)
    sign = "+" if c.b > 0 else "-"
    return "%s%s%s i" % (re_s, sign, im_s)


def _rat(num, den):
    return str(num) if den == 1 else "%d/%d" % (num, den)


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
        return type(self)(tuple(a + b for a, b in zip(self.coords, other.coords)))

    def __neg__(self):
        return type(self)(tuple(-a for a in self.coords))

    def scaled(self, c):
        return type(self)(tuple(a * c for a in self.coords))

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
        nv = len(self.coords)
        return DiffOp(nv, {tuple(1 if t == j else 0 for t in range(nv)): c
                           for j, c in enumerate(self.coords) if c})


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
        total = ZERO
        for a, b in zip(self.coords, v.coords):
            total = total + a * b
        return total

    def as_polynomial(self):
        nv = len(self.coords)
        return Polynomial(nv, {e: c for e, c in
                               ((tuple(1 if t == j else 0 for t in range(nv)), self.coords[j])
                                for j in range(nv)) if c})


class DiffOp:
    """Element of the symmetric algebra on the X-variables, acting as a
    constant-coefficient differential operator: X^beta acts as d^beta."""

    __slots__ = ("nvars", "terms")

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

    @classmethod
    def one(cls, nvars):
        return cls(nvars, {zero_exps(nvars): ONE})

    @classmethod
    def zero(cls, nvars):
        return cls(nvars)

    @classmethod
    def monomial(cls, nvars, beta, c=ONE):
        return cls(nvars, {tuple(beta): c})

    def order(self):
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def is_zero(self):
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if not isinstance(other, DiffOp):
            return NotImplemented
        return self.nvars == other.nvars and self.terms == other.terms

    def __hash__(self):
        return hash((self.nvars, frozenset(self.terms.items())))

    def __add__(self, other):
        if not isinstance(other, DiffOp):
            return NotImplemented
        if self.nvars != other.nvars:
            raise ValueError("arity mismatch")
        return DiffOp(self.nvars, _terms_add(self.terms, other.terms))

    def __neg__(self):
        return DiffOp(self.nvars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            other = Scalar(other)
        if isinstance(other, Scalar):
            return DiffOp(self.nvars, {e: c * other for e, c in self.terms.items()})
        if not isinstance(other, DiffOp):
            return NotImplemented
        if self.nvars != other.nvars:
            raise ValueError("arity mismatch")
        return DiffOp(self.nvars, _terms_mul(self.terms, other.terms))

    __rmul__ = __mul__

    def __str__(self):
        if not self.terms:
            return "(0)"
        parts = []
        for e, c in sorted(self.terms.items(), key=lambda kv: grlex_key(kv[0]), reverse=True):
            factors = ["(%s)" % _coeff_str(c)]
            for j, p in enumerate(e):
                if p == 1:
                    factors.append("X%d" % (j + 1))
                elif p > 1:
                    factors.append("X%d^%d" % (j + 1, p))
            parts.append("*".join(factors))
        return " + ".join(parts)

    __repr__ = __str__


class ExpPoly:
    """Finite sum of  E[a] * e^xi * p(x)  summands.

    Keys are (xi.coords, a); distinct keys stay distinct (e^xi for distinct
    covectors xi are linearly independent, and so are the formal units)."""

    __slots__ = ("nvars", "summands")

    def __init__(self, nvars, summands=None):
        self.nvars = nvars
        t = {}
        if summands:
            for key, p in summands.items():
                freq, unit = key
                if p.nvars != nvars:
                    raise ValueError("summand arity mismatch")
                if p:
                    k = (tuple(freq), unit)
                    if k in t:
                        t[k] = t[k] + p
                        if not t[k]:
                            del t[k]
                    else:
                        t[k] = p
        self.summands = t

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
        return all(freq == z and unit == ZERO for freq, unit in self.summands)

    def pure(self):
        """As a plain Polynomial; rejects genuine exponential parts."""
        if not self.summands:
            return Polynomial.zero(self.nvars)
        if not self.is_polynomial():
            raise ValueError("not a pure polynomial: %s" % self)
        return next(iter(self.summands.values()))

    def __bool__(self):
        return bool(self.summands)

    def __eq__(self, other):
        if isinstance(other, Polynomial):
            other = ExpPoly.from_poly(other)
        if isinstance(other, (int, Scalar)):
            other = ExpPoly.const(self.nvars, other)
        if not isinstance(other, ExpPoly):
            return NotImplemented
        return self.nvars == other.nvars and self.summands == other.summands

    def __hash__(self):
        return hash((self.nvars, frozenset(self.summands.items())))

    def _coerce(self, other):
        if isinstance(other, (int, Scalar)):
            return ExpPoly.const(self.nvars, other)
        if isinstance(other, Polynomial):
            return ExpPoly.from_poly(other)
        return other

    def __add__(self, other):
        other = self._coerce(other)
        if not isinstance(other, ExpPoly):
            return NotImplemented
        if self.nvars != other.nvars:
            raise ValueError("arity mismatch")
        out = object.__new__(ExpPoly)
        out.nvars = self.nvars
        out.summands = _terms_add(self.summands, other.summands)
        return out

    __radd__ = __add__

    def __neg__(self):
        out = object.__new__(ExpPoly)
        out.nvars = self.nvars
        out.summands = {k: -p for k, p in self.summands.items()}
        return out

    def __sub__(self, other):
        other = self._coerce(other)
        if not isinstance(other, ExpPoly):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, int):
            other = Scalar(other)
        if isinstance(other, Scalar):
            if not other:
                return ExpPoly.zero(self.nvars)
            out = object.__new__(ExpPoly)
            out.nvars = self.nvars
            out.summands = {k: p * other for k, p in self.summands.items()}
            return out
        other = self._coerce(other)
        if not isinstance(other, ExpPoly):
            return NotImplemented
        if self.nvars != other.nvars:
            raise ValueError("arity mismatch")
        t = {}
        for (f1, u1), p1 in self.summands.items():
            for (f2, u2), p2 in other.summands.items():
                key = (tuple(a + b for a, b in zip(f1, f2)), u1 + u2)
                p = p1 * p2
                s = t.get(key)
                s = p if s is None else s + p
                if s:
                    t[key] = s
                else:
                    t.pop(key, None)
        out = object.__new__(ExpPoly)
        out.nvars = self.nvars
        out.summands = t
        return out

    __rmul__ = __mul__

    def deriv(self, j):
        """d/dx_{j+1}; on a summand: e^xi*(xi_j*p + dp)."""
        t = {}
        for (freq, unit), p in self.summands.items():
            q = p.deriv(j)
            if freq[j]:
                q = q + p * freq[j]
            if q:
                key = (freq, unit)
                s = t.get(key)
                t[key] = q if s is None else s + q
        return ExpPoly(self.nvars, t)

    def translate(self, mu):
        """Pull-back along nu -> nu + mu; e^xi picks up the unit E[xi(mu)]."""
        coords = mu.coords if isinstance(mu, Vector) else tuple(mu)
        if len(coords) != self.nvars:
            raise ValueError("shift arity mismatch")
        t = {}
        for (freq, unit), p in self.summands.items():
            shift = ZERO
            for a, b in zip(freq, coords):
                shift = shift + a * b
            key = (freq, unit + shift)
            q = p.translate(coords)
            s = t.get(key)
            s = q if s is None else s + q
            if s:
                t[key] = s
            else:
                t.pop(key, None)
        out = object.__new__(ExpPoly)
        out.nvars = self.nvars
        out.summands = t
        return out

    def evaluate(self, point):
        """Exact value at a point, as an ExpScalar: e^xi contributes the
        formal unit E[xi(point)]."""
        coords = point.coords if isinstance(point, Vector) else tuple(point)
        total = ExpScalar()
        for (freq, unit), p in self.summands.items():
            shift = unit
            for a, b in zip(freq, coords):
                shift = shift + a * b
            total = total + ExpScalar.unit(shift, p.evaluate(coords))
        return total

    def sorted_summands(self):
        def key(item):
            (freq, unit), _ = item
            return tuple(c.key() for c in freq) + (unit.key(),)
        return sorted(self.summands.items(), key=key)

    def __str__(self):
        if not self.summands:
            return "(0)"
        z = (ZERO,) * self.nvars
        parts = []
        for (freq, unit), p in self.sorted_summands():
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
    if isinstance(f, Polynomial):
        if u.nvars != f.nvars:
            raise ValueError("operator has %d variables, function has %d" % (u.nvars, f.nvars))
        total = Polynomial.zero(f.nvars)
        for beta, c in u.terms.items():
            total = total + f.deriv_multi(beta) * c
        return total
    if not isinstance(f, ExpPoly):
        raise TypeError("diff expects Polynomial or ExpPoly")
    if u.nvars != f.nvars:
        raise ValueError("operator has %d variables, function has %d" % (u.nvars, f.nvars))
    total = ExpPoly.zero(f.nvars)
    for beta, c in u.terms.items():
        g = f
        for j, b in enumerate(beta):
            for _ in range(b):
                g = g.deriv(j)
        total = total + g * c
    return total


def pairing(f, u):
    """<f, u> = (d_u f)(0), an ExpScalar (plain scalar for polynomial f)."""
    g = diff(u, f)
    if isinstance(g, Polynomial):
        return ExpScalar.from_scalar(g.terms.get(zero_exps(g.nvars), ZERO))
    return g.evaluate(Vector.zero(g.nvars))


def translate(f, mu):
    return f.translate(mu)


def coproduct(p, n):
    """alpha_n^*(p): the pull-back of n-fold addition, as a polynomial in
    n*N variables; slot b of the tensor owns variables b*N .. b*N+N-1.
    Evaluating at (mu_1, ..., mu_n) gives p(mu_1 + ... + mu_n)."""
    if not isinstance(p, Polynomial):
        raise TypeError("coproduct is defined on pure polynomials")
    if n <= 0:
        raise ValueError("coproduct needs n >= 1")
    N = p.nvars
    big = n * N
    sums = []
    for j in range(N):
        s = Polynomial.zero(big)
        for b in range(n):
            s = s + Polynomial.variable(big, b * N + j)
        sums.append(s)
    total = Polynomial.zero(big)
    for e, c in p.terms.items():
        term = Polynomial.const(big, c)
        for j, pw in enumerate(e):
            if pw:
                term = term * sums[j] ** pw
        total = total + term
    return total


def _inv_int(n):
    return _mk(1, 0, n)


def beta_factorial(beta):
    f = 1
    for b in beta:
        f *= factorial(b)
    return f


# --- text grammar ----------------------------------------------------------

_TOKEN_CHARS = set("0123456789")
MAX_EXPONENT = 256
# largest (accumulator terms) x (base terms) a step of `^` may multiply
MAX_POWER_WORK = 4096


def _nterms(e):
    return sum(len(p.terms) for p in e.summands.values())


def _tokenize(text):
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


class _Parser:
    """Recursive descent over the grammar; every construct is evaluated
    directly in the ExpPoly algebra, so coefficients, monomials and
    exponential prefixes all go through one code path."""

    def __init__(self, toks, nvars):
        self.toks = toks
        self.pos = 0
        self.nvars = nvars

    def peek(self):
        return self.toks[self.pos] if self.pos < len(self.toks) else (None, None)

    def take(self, kind=None):
        tok = self.peek()
        if kind is not None and tok[0] != kind:
            raise ValueError("parse error at token %d: expected %s, got %r" % (self.pos, kind, tok[1]))
        self.pos += 1
        return tok

    def parse_expr(self):
        sign = 1
        kind, _ = self.peek()
        if kind in ("+", "-"):
            self.take()
            sign = -1 if kind == "-" else 1
        total = self.parse_term()
        if sign < 0:
            total = -total
        while True:
            kind, _ = self.peek()
            if kind == "+":
                self.take()
                total = total + self.parse_term()
            elif kind == "-":
                self.take()
                total = total - self.parse_term()
            else:
                return total

    def parse_term(self):
        total = self.parse_factor()
        while True:
            kind, _ = self.peek()
            if kind == "*":
                self.take()
                total = total * self.parse_factor()
            elif kind == "/":
                self.take()
                kindn, val = self.take()
                if kindn != "num":
                    raise ValueError("parse error: '/' must be followed by an integer")
                total = total * _inv_int(val)
            elif kind in ("num", "imag", "var", "(", "exp", "unit"):
                # juxtaposition, e.g. `3 i` inside a coefficient
                total = total * self.parse_factor()
            else:
                return total

    def parse_factor(self):
        kind, val = self.peek()
        if kind == "num":
            self.take()
            base = ExpPoly.const(self.nvars, Scalar(val))
        elif kind == "imag":
            self.take()
            base = ExpPoly.const(self.nvars, Scalar(0, 1))
        elif kind == "var":
            self.take()
            if not 0 <= val < self.nvars:
                raise ValueError("variable x%d out of range for %d variables" % (val + 1, self.nvars))
            base = ExpPoly.from_poly(Polynomial.variable(self.nvars, val))
        elif kind == "(":
            self.take()
            base = self.parse_expr()
            self.take(")")
        elif kind == "exp":
            self.take()
            self.take("[")
            coords = self.parse_scalar_list()
            self.take("]")
            if len(coords) != self.nvars:
                raise ValueError("exp[] covector needs %d coordinates" % self.nvars)
            base = ExpPoly.exp(Covector(coords))
        elif kind == "unit":
            self.take()
            self.take("[")
            coords = self.parse_scalar_list()
            self.take("]")
            if len(coords) != 1:
                raise ValueError("E[] takes a single scalar")
            base = ExpPoly(self.nvars, {((ZERO,) * self.nvars, coords[0]):
                                        Polynomial.const(self.nvars, ONE)})
        else:
            raise ValueError("parse error at token %d: unexpected %r" % (self.pos, val))
        if self.peek()[0] == "^":
            self.take()
            kindn, power = self.take()
            if kindn != "num":
                raise ValueError("parse error: '^' must be followed by an integer")
            if power > MAX_EXPONENT:
                raise ValueError("exponent %d exceeds the limit %d"
                                 % (power, MAX_EXPONENT))
            out = ExpPoly.const(self.nvars, ONE)
            nbase = _nterms(base)
            for _ in range(power):
                work = _nterms(out) * nbase
                if work > MAX_POWER_WORK:
                    raise ValueError("'^%d' needs a %d-term product, over the "
                                     "limit %d" % (power, work, MAX_POWER_WORK))
                out = out * base
            return out
        return base

    def parse_scalar_list(self):
        coords = []
        while True:
            sub = self.parse_expr()
            p = sub.pure()
            if p.degree() > 0:
                raise ValueError("expected a scalar, got %s" % p)
            coords.append(p.terms.get(zero_exps(self.nvars), ZERO))
            if self.peek()[0] == ",":
                self.take()
                continue
            return coords


def parse_exppoly(text, nvars):
    toks = _tokenize(text)
    parser = _Parser(toks, nvars)
    out = parser.parse_expr()
    if parser.pos != len(toks):
        raise ValueError("parse error: trailing input at token %d" % parser.pos)
    return out


def parse_poly(text, nvars):
    return parse_exppoly(text, nvars).pure()


def parse_scalar(text):
    p = parse_exppoly(text, 0)
    return p.pure().terms.get((), ZERO)
