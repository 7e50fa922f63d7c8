"""Oracles and generators that only the tests read: the algebra spanned by
a matrix basis, a random dense matrix, the pairing of a dual matrix with a
grid of ExpPolys, such as a jet's entries, approximate unitality, the
corner data behind a membership verdict, jet_ideal, the annihilators of an
ideal and of a module, the pairing of germs and operators, module maps,
parse_poly, and the coproduct with the evaluation-and-derivative map read
through it."""

from types import SimpleNamespace

from jetcalc.approxalg import ApproxModule, _corner, _idem_spans, _in_corner, _membership
from jetcalc.gen import rand_scalar
from jetcalc.jetfun import _as_exppoly
from jetcalc.linalg import Mat, SpanBasis, mid, mmul, dense, sparse
from jetcalc.localmod import CofiniteIdeal, dual_number_module
from jetcalc.poly import (Polynomial, ExpPoly, Vector, Covector, DiffOp, diff,
                          exp_series, beta_factorial, zero_exps, monomials_upto,
                          monomials_of_degree, parse_exppoly, _linear_terms, _substitute)
from jetcalc.scalars import ZERO, ONE


def algebra_from_matrix_basis(mats):
    """Algebra spanned by matrices, which must be closed under product and
    contain the identity: ApproxModule.from_span, checked.  Returns the
    algebra together with its defining module."""
    mats = [Mat.of(m) for m in mats]
    n = mats[0].nrows
    module = ApproxModule.from_span(SpanBasis(n * n, [m.flat() for m in mats]), n)
    module.algebra.validate()
    module.validate()
    return module.algebra, module


def rand_matrix(rng, rows, cols):
    return Mat([sparse([rand_scalar(rng) for _ in range(cols)]) for _ in range(rows)], cols)


def frobenius_grid(H, grid):
    """The sum of H's entries times a grid's, in the grid's arithmetic."""
    return sum((x * grid[r][c] for r, row in enumerate(Mat.of(H).rows)
                for c, x in row.items()), ZERO)


def is_approx_unital(M):
    """The images of M's chain idempotents exhaust its space: since the
    chain increases, the top idempotent must act as the identity."""
    return M.idem_mat(len(M.algebra.chain) - 1) == mid(M.dim)


def membership(M, phi):
    """end_sharp_membership(M, phi) with the corner data it does not report,
    read from the tuple-module cache that _membership fills (one entry, at
    the corner index j): the verdict `member` and `witness`, `j`, the stacked
    basis tuple as a dense vector `tuple_vec`, the corner's tuple module W
    as `submodule`, and W.escape(phi), the escaping pair (w, phi.w) as dense
    vectors, as `escaped` (None when phi preserves W)."""
    tuples, phi = {}, Mat.of(phi)
    j = _corner(M, lambda j: _in_corner(M.idem_mat(j), phi))
    res = _membership(M, phi, _idem_spans(M, [j], ())[0][0], j, tuples)
    [(u, W, _)] = tuples.values()
    escaped = W.escape(phi)
    return SimpleNamespace(
        member=res.member, witness=res.witness, j=j, tuple_vec=dense(u, W.ncols),
        submodule=W, escaped=escaped and tuple(dense(v, W.ncols) for v in escaped))


def jet_ideal(f, ideal, mu):
    """Class of the translated germ in the quotient by the ideal:
    coordinates over the standard monomials, as ExpPolys in no variables."""
    coords = [ExpPoly.zero(0)] * ideal.codim
    for (freq, unit), p in _as_exppoly(f).translate(mu).terms.items():
        nf = ideal.normal_form((exp_series(Covector(freq), ideal.k) * p).truncate(ideal.k))
        tag = ExpPoly.exp((), unit=unit)
        coords = [c + tag * nf.terms.get(m, ZERO)
                  for c, m in zip(coords, ideal.standard_monomials)]
    return tuple(coords)


def annihilator_dual(ideal):
    """Basis of the operators of order <= k annihilating the ideal under the
    pairing <p, u> = (d_u p)(0); its size equals the codimension."""
    gammas = ideal.space.mons_asc
    n = len(gammas)
    # the space's coordinate i is the monomial gammas[n - 1 - i]
    rows = [{n - 1 - i: x * beta_factorial(gammas[n - 1 - i]) for i, x in row.items()}
            for row in ideal.span.rows]
    return [DiffOp(ideal.nvars, {gammas[t]: v[t] for t in sorted(v)})
            for v in SpanBasis(n, rows).nullspace()]


def pairing(f, u):
    """<f, u> = (d_u f)(0), an ExpPoly in no variables."""
    g = diff(u, f)
    if isinstance(g, Polynomial):
        return ExpPoly.const(0, g.terms.get(zero_exps(g.nvars), ZERO))
    return g.evaluate(Vector.zero(g.nvars))


def annihilator(E):
    """Polynomial trace of the annihilator of a FinMod, as a CofiniteIdeal:
    the kernel of the monomials' flattened actions in degrees <= k, and the
    monomials of degree k + 1."""
    nvars, k = E.nvars, E.k
    gammas = monomials_upto(nvars, k)
    rows = Mat([E.mon_mat(g).flat() for g in gammas], E.dim ** 2).cols
    gens = [Polynomial(nvars, {gammas[t]: v[t] for t in sorted(v)})
            for v in SpanBasis(len(gammas), rows).nullspace()]
    gens.extend(Polynomial.monomial(nvars, m) for m in monomials_of_degree(nvars, k + 1))
    return CofiniteIdeal(nvars, gens)


def intertwines(source, target, T):
    """T M_j = N_j T for the actions M_j of source and N_j of target."""
    return all(mmul(T, a) == mmul(b, T) for a, b in zip(source.mats, target.mats))


def parse_poly(text, nvars):
    return parse_exppoly(text, nvars).pure()


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
    # x_j goes to the sum of the j-th variables of the n blocks
    sums = [Polynomial(big, _linear_terms([ONE if t % N == j else ZERO
                                           for t in range(big)]))
            for j in range(N)]
    return _substitute(p, sums, Polynomial.zero(big))


def alpha_bar_by_coproduct(p, lams):
    """alpha_bar_image by hand: the coproduct into n blocks, then the
    dual-number class in each factor, tensored with the first factor slow."""
    n = len(lams)
    N = p.nvars
    mods = [dual_number_module(lam) for lam in lams]
    # per-factor cache: class of X^beta = action applied to the class of 1,
    # which sits at index 1 of the dual-number basis
    cols = [{} for _ in mods]
    out = [ZERO] * (2 ** n)
    cp = coproduct(p, n)
    for e, c in cp.terms.items():
        acc = [c]
        for j in range(n):
            beta = e[j * N:(j + 1) * N]
            cache = cols[j]
            v = cache.get(beta)
            if v is None:
                mat = mods[j].mon_mat(beta)
                v = (mat.rows[0].get(1, ZERO), mat.rows[1].get(1, ZERO))
                cache[beta] = v
            acc = [a * x for a in acc for x in v]
        for t in range(len(out)):
            if acc[t]:
                out[t] = out[t] + acc[t]
    return tuple(out)
