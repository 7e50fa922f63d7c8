"""Seeded instance generators for the verification suite.

Everything here draws from a caller-supplied random.Random, so a seed pins
down the whole run byte for byte.  Sizes are kept deliberately small: the
point is coverage of shapes, not bulk.
"""

from .scalars import Scalar, ZERO, ONE, _mk
from .poly import Polynomial, ExpPoly, Vector, Covector, DiffOp
from .linalg import Mat, mmul, mat_inverse
from .localmod import (CofiniteIdeal, power_ideal, dual_number_ideal,
                       cyclic_quotient, dual_number_module, direct_sum,
                       tensor, FinMod)
from .approxalg import block_module, ApproxModule
from .jetfun import MatPolyFamily
from .family import RepFamily, PWCandidate


def rand_scalar(rng, zero_ok=True, imag_ok=True):
    """Small Gaussian rational: numerators in [-3, 3], denominators 1 or 2."""
    while True:
        a = rng.randint(-3, 3)
        b = rng.randint(-2, 2) if imag_ok and rng.random() < 0.25 else 0
        if not zero_ok and a == 0 and b == 0:
            continue
        den = rng.choice((1, 1, 1, 2))
        return _mk(a, b, den)


def rand_point(rng, nvars, zero_ok=True):
    while True:
        v = Vector([rand_scalar(rng, imag_ok=False) for _ in range(nvars)])
        if zero_ok or not v.is_zero():
            return v


def rand_covector(rng, nvars):
    while True:
        c = Covector([rand_scalar(rng, imag_ok=False) for _ in range(nvars)])
        if not c.is_zero():
            return c


def rand_exps(rng, nvars, max_deg):
    deg = rng.randint(0, max_deg)
    e = [0] * nvars
    for _ in range(deg):
        e[rng.randrange(nvars)] += 1
    return tuple(e)


def rand_poly(rng, nvars, max_deg, nterms=(3, 6), min_deg=0):
    """Sparse polynomial with a handful of small-coefficient terms."""
    terms = {}
    want = rng.randint(*nterms)
    tries = 0
    while len(terms) < want and tries < 40:
        tries += 1
        e = rand_exps(rng, nvars, max_deg)
        if sum(e) < min_deg:
            continue
        terms[e] = rand_scalar(rng, zero_ok=False)
    return Polynomial(nvars, terms)


def rand_exp_poly(rng, nvars, max_deg, nfreq=2):
    """A polynomial plus a couple of exponential summands with small
    integer frequencies."""
    out = ExpPoly.from_poly(rand_poly(rng, nvars, max_deg))
    for _ in range(rng.randint(1, nfreq)):
        freq = tuple(Scalar(rng.randint(-2, 2)) for _ in range(nvars))
        p = rand_poly(rng, nvars, max_deg, nterms=(1, 3))
        if p:
            out = out + ExpPoly.exp(freq, p)
    return out


def rand_diffop(rng, nvars, max_order):
    terms = {}
    for _ in range(rng.randint(1, 3)):
        terms[rand_exps(rng, nvars, max_order)] = rand_scalar(rng, zero_ok=False)
    return DiffOp(nvars, terms)


def rand_cofinite_ideal(rng, nvars, kmax):
    """A genuinely cofinite ideal: a power ideal, a dual-number ideal, or a
    power ideal enlarged by random constant-free polynomials."""
    style = rng.randrange(3) if kmax >= 1 else rng.randrange(2)
    if style == 0:
        return power_ideal(nvars, rng.randint(0, max(0, kmax)))
    if style == 1:
        return dual_number_ideal(rand_point(rng, nvars, zero_ok=False))
    k = rng.randint(1, kmax)
    gens = list(power_ideal(nvars, k).generators)
    for _ in range(rng.randint(1, 2)):
        p = rand_poly(rng, nvars, k, nterms=(1, 3), min_deg=1)
        if p:
            gens.append(p)
    return CofiniteIdeal(nvars, gens)


def rand_unimodular(rng, n):
    """Integer Mat with determinant +-1, built from 1 to 2n elementary moves."""
    m = [[ONE if r == c else ZERO for c in range(n)] for r in range(n)]
    if n == 1:
        return Mat.of(m)
    for _ in range(rng.randint(1, 2 * n)):
        i = rng.randrange(n)
        j = rng.randrange(n)
        if i == j:
            continue
        c = Scalar(rng.choice((-2, -1, 1, 2)))
        for t in range(n):
            m[i][t] = m[i][t] + c * m[j][t]
    return Mat.of(m)


def conjugate_module(E, T, Tinv):
    """Same module in a different basis."""
    mats = [mmul(mmul(T, m), Tinv) for m in E.mats]
    return FinMod(mats, check=False)


def rand_finmod(rng, nvars, kmax, dimmax, depth=2):
    """Random finite-dimensional module: cyclic quotients and dual-number
    blocks, combined by direct sum or tensor, in a random basis."""
    if depth > 0 and rng.random() < 0.45:
        a = rand_finmod(rng, nvars, max(0, kmax - 1), max(1, dimmax // 2), depth - 1)
        b = rand_finmod(rng, nvars, max(0, kmax - 1), max(1, dimmax - a.dim), depth - 1)
        if rng.random() < 0.5 and a.dim * b.dim <= dimmax:
            E = tensor(a, b)
        elif a.dim + b.dim <= dimmax:
            E = direct_sum(a, b)
        else:
            E = a
    else:
        if nvars >= 1 and rng.random() < 0.3:
            E = dual_number_module(rand_point(rng, nvars, zero_ok=False))
        else:
            E = None
            for _ in range(8):
                cand = cyclic_quotient(rand_cofinite_ideal(rng, nvars, kmax)).module
                if 1 <= cand.dim <= max(2, dimmax):
                    E = cand
                    break
            if E is None:
                E = cyclic_quotient(power_ideal(nvars, 0)).module
    if E.dim <= 6 and rng.random() < 0.5:
        T = rand_unimodular(rng, E.dim)
        E = conjugate_module(E, T, mat_inverse(T))
    return E


def rand_block_sizes(rng, dimmax):
    sizes = []
    left = rng.randint(1, dimmax)
    while left > 0:
        s = rng.randint(1, min(3, left))
        sizes.append(s)
        left -= s
    return sizes


def rand_approx_module(rng, dimmax, junk_ok=False):
    """Block matrix algebra on its column space, optionally in a skewed
    basis, optionally padded with a null summand (which makes the module
    non-unital and End(V)_0 strictly smaller)."""
    sizes = rand_block_sizes(rng, dimmax)
    alg, M = block_module(sizes)
    d = M.dim
    if junk_ok and rng.random() < 0.5:
        e = rng.randint(1, 2)
        mats = [Mat(m.rows + ({},) * e, d + e) for m in M.mats]
        return alg, ApproxModule(alg, d + e, mats, check=False)
    if d <= 6 and rng.random() < 0.5:
        T = rand_unimodular(rng, d)
        Ti = mat_inverse(T)
        return alg, ApproxModule(alg, d, [mmul(mmul(T, m), Ti) for m in M.mats],
                                 check=False)
    return alg, M


def rand_member_phi(rng, M):
    """An element of the action image, by construction."""
    coords = [rand_scalar(rng) for _ in range(M.algebra.dim)]
    return M.act(coords)


def rand_elementary_family(rng, nvars, dim):
    """Elementary unimodular family: identity plus one polynomial of degree
    at most 2 off the diagonal, or a constant invertible diagonal."""
    ents = [[ExpPoly.const(nvars, ONE) if r == c else ExpPoly.zero(nvars)
             for c in range(dim)] for r in range(dim)]
    if dim == 1 or rng.random() < 0.2:
        j = rng.randrange(dim)
        c = rng.choice((Scalar(2), Scalar(-1), Scalar(1) / Scalar(2), Scalar(0, 1)))
        ents[j][j] = ExpPoly.const(nvars, c)
    else:
        i = rng.randrange(dim)
        j = rng.randrange(dim)
        while j == i:
            j = rng.randrange(dim)
        p = rand_poly(rng, nvars, 2, nterms=(1, 2))
        if not p:
            p = Polynomial.const(nvars, ONE)
        ents[i][j] = ExpPoly.from_poly(p)
    return MatPolyFamily(nvars, ents)


def rand_repfamily(rng, label, nvars, dim):
    gens = []
    for _ in range(2):
        g = rand_elementary_family(rng, nvars, dim)
        for _ in range(rng.randint(0, 2)):
            g = g * rand_elementary_family(rng, nvars, dim)
        gens.append(g)
    return RepFamily(label, gens)


def rand_word(rng, ngens, maxlen):
    n = rng.randint(0, maxlen)
    return [rng.choice((1, -1)) * rng.randint(1, ngens) for _ in range(n)]


def rand_candidate(rng, reps, maxlen=4, member=None):
    """Candidate across the reps: a word image (a member wherever it is
    tested) or independent random polynomial matrices per label."""
    if member is None:
        member = rng.random() < 0.5
    if member:
        ngens = len(reps[0].generators)
        return PWCandidate.from_word(reps, rand_word(rng, ngens, maxlen)), True
    comps = {}
    for rep in reps:
        ents = [[ExpPoly.from_poly(rand_poly(rng, rep.nvars, 2, nterms=(0, 2)))
                 for _ in range(rep.dim)] for _ in range(rep.dim)]
        comps[rep.label] = MatPolyFamily(rep.nvars, ents)
    return PWCandidate(reps[0].nvars, comps), False


def reducible_family():
    """Fixture: a two-dimensional family in one variable whose generators
    are all upper triangular, so the first coordinate line is invariant
    everywhere."""
    x = ExpPoly.from_poly(Polynomial.variable(1, 0))
    one = ExpPoly.const(1, ONE)
    zero = ExpPoly.zero(1)
    g1 = MatPolyFamily(1, [[one, x], [zero, one]])
    g2 = MatPolyFamily(1, [[ExpPoly.const(1, Scalar(2)), zero], [zero, one]])
    return RepFamily("R", [g1, g2])


def escaping_candidate():
    """Fixture: a lower-triangular component that moves the invariant line
    of the reducible family."""
    x = ExpPoly.from_poly(Polynomial.variable(1, 0))
    zero = ExpPoly.zero(1)
    return PWCandidate(1, {"R": MatPolyFamily(1, [[zero, zero], [x, zero]])})
