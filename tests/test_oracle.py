"""Derived spaces recomputed by an independent oracle: sympy's DomainMatrix
over QQ_I on dense matrices, which shares no elimination and no closure
with jetcalc.

The word algebra of `family.spanned_algebra` is the span of the images of
all words in the generators and their inverses.  The oracle multiplies out
every word of length at most L, for L = 0, 1, 2, ... until two consecutive
lengths give the same rank, at which point the span is closed under every
letter.

Membership (`family.membership_triple`) is decided by that word span too:
a candidate is a member when its assembled block matrix adds nothing to
the rank of all words.

The double commutant of `approxalg.double_commutant_check` is recomputed
from the action matrices alone: the rank of the action image, the rank of
the top corner's generators P E_rc P, and End^# as the matrices X of that
corner whose diagonal action maps the module W into itself, W spun in
sympy from a basis tuple of P's column space.

The kernel of `jetfun.kernel_alpha_bar` is recomputed from sympy.diff: the
evaluation-and-derivative map sends each monomial to its value and its
iterated directional derivatives over every subset of the directions, all
at 0.

The jet of `jetfun.jet_family`, evaluated at a point p, is recomputed as
the Taylor sum over |beta| <= k of kron(m_E(X^beta), (d^beta F)(p) / beta!),
with d^beta taken by sympy.diff and m_E(X^beta) multiplied out from the
module's action matrices.

The order of a `localmod.FinMod` is recomputed as the least k at which
every product of k+1 of its action matrices, multiplied out by sympy, is
zero.

The order of a `localmod.CofiniteIdeal` is recomputed as one less than the
least b at which the degree-b monomials add nothing to the rank of the
truncated multiples x^gamma g, |gamma| <= b, of its generators in degrees
<= b: then m^b lies in I + m^(b+1), so in I by Nakayama."""

import contextlib
import functools
import io
import itertools
import random

import pytest

from jetcalc import cli, gen, localmod
from jetcalc.approxalg import double_commutant_check
from jetcalc.family import BlockLayout, membership_triple, spanned_algebra
from jetcalc.linalg import Mat, SpanBasis, CrossCheckError, dense, mid
from jetcalc.jetfun import MatPolyFamily, jet_family, kernel_alpha_bar
from jetcalc.localmod import (FinMod, cyclic_quotient, maximal_ideal, dual_number_module,
                              tensor)
from jetcalc.poly import ExpPoly, Vector, monomials_upto, monomials_of_degree
from jetcalc.scalars import ZERO
from test_cli import TIERS
from test_mutants import transpose_a_square_apply
from oracles import is_approx_unital

sympy = pytest.importorskip("sympy")
from sympy.polys.matrices import DomainMatrix  # noqa: E402

from qqi import QQ_I, to_qqi, to_sympy  # noqa: E402

E1 = cyclic_quotient(maximal_ideal(1)).module  # dim 1, evaluation only


def mat_to_sympy(m):
    """The DomainMatrix over QQ_I of a Mat."""
    return to_sympy([dense(row, m.ncols) for row in m.rows], m.ncols)


def all_words(letters, n):
    """The flattened images of all words of length at most L in the n x n
    letters, one row each, for the least L whose rank equals that of the
    words of length at most L - 1."""
    letters = [mat_to_sympy(g) for g in letters]
    level, flat, rank = [mat_to_sympy(mid(n))], [], None
    while True:
        flat += [x for w in level for x in w.to_list_flat()]
        words = DomainMatrix.from_list_flat(flat, (len(flat) // (n * n), n * n), QQ_I)
        r = words.rank()
        if r == rank:
            return words
        rank = r
        level = [w * g for w in level for g in letters]


def layouts(seed, count, totals):
    """The seed's layouts whose block total lies in `totals`, out of
    `count` drawn: 1-2 reps of dim 1-2 on two generators, 1-2 points, and
    the evaluation or a dual-number module."""
    rng = random.Random(seed)
    for i in range(count):
        reps = [gen.rand_repfamily(rng, label, 1, rng.randint(1, 2))
                for label in "ab"[:rng.randint(1, 2)]]
        pts = [gen.rand_point(rng, 1) for _ in range(rng.randint(1, 2))]
        E = E1 if i % 2 else dual_number_module(gen.rand_point(rng, 1, zero_ok=False))
        if sum(rep.dim for rep in reps) * len(pts) * E.dim in totals:
            yield reps, pts, E


def check_word_algebra(reps, pts, E):
    """spanned_algebra's dimension is the rank of all words, and each of its
    basis matrices lies in their span; returns the dimension."""
    span, layout = spanned_algebra(reps, pts, E)
    n = layout.total
    ngens = len(reps[0].generators)
    words = all_words([layout.assemble(lambda rep: rep.letter(k))
                       for k in range(-ngens, ngens + 1) if k], n)
    assert span.dim == words.rank()
    assert words.vstack(mat_to_sympy(Mat(span.rows, n * n))).rank() == span.dim
    return span.dim


def check_word_algebras(seeds, totals):
    """check_word_algebra on each seed's layouts; returns the dimensions."""
    return [check_word_algebra(*layout) for seed in seeds
            for layout in layouts(seed, 8, totals)]


def test_word_algebras_are_the_span_of_all_words():
    dims = check_word_algebras(range(4), range(1, 5))
    assert len(dims) >= 10 and max(dims) >= 7


@pytest.mark.slow
def test_larger_word_algebras_are_the_span_of_all_words():
    dims = check_word_algebras(range(8), (5, 6))
    assert len(dims) >= 5 and max(dims) >= 9


def membership_cases(seeds):
    """(candidate, reps, points, E) for every layout of layouts(seed, 8,
    range(1, 6)): a member word and a random candidate each, drawn afresh."""
    cases = []
    for seed in seeds:
        rng = random.Random(seed)
        for reps, pts, E in layouts(seed, 8, range(1, 6)):
            cases += [(gen.rand_candidate(rng, reps, member=member)[0], reps, pts, E)
                      for member in (True, False)]
    return cases


@functools.cache
def membership_oracles(seeds):
    """Whether each candidate of membership_cases(seeds) lies in the span of
    all words, by sympy's rank: its assembled matrix is one more row."""
    verdicts = []
    for cand, reps, pts, E in membership_cases(seeds):
        layout = BlockLayout(reps, pts, E)
        n, ngens = layout.total, len(reps[0].generators)
        words = all_words([layout.assemble(lambda rep: rep.letter(k))
                           for k in range(-ngens, ngens + 1) if k], n)
        phi = dense(layout.assemble(cand.component).flat(), n * n)
        verdicts.append(words.vstack(to_sympy([phi], n * n)).rank() == words.rank())
    return verdicts


def membership_disagreements(cases, oracle):
    """The number of cases where a verdict of membership_triple differs
    from the oracle's or the triple raises."""
    failed = 0
    for (cand, reps, pts, E), member in zip(cases, oracle):
        try:
            res = membership_triple(cand, reps, pts, E)
        except Exception:
            failed += 1
            continue
        failed += (res.double_annihilator, res.span_membership, res.sharp) != (member,) * 3
    return failed


MEMBERSHIP_SEEDS = tuple(range(6))


def test_membership_verdicts_match_the_oracle():
    cases, oracle = membership_cases(MEMBERSHIP_SEEDS), membership_oracles(MEMBERSHIP_SEEDS)
    assert len(cases) >= 60 and set(oracle) == {True, False}
    assert membership_disagreements(cases, oracle) == 0


def test_a_transposed_apply_fails_a_membership_oracle_case(monkeypatch):
    """Under mutant T of tests/test_mutants.py (every 101st apply of a
    square Mat applies its transpose) some verdict disagrees with the
    oracle; the cases are drawn and the oracle computed before the patch."""
    cases, oracle = membership_cases(MEMBERSHIP_SEEDS), membership_oracles(MEMBERSHIP_SEEDS)
    transpose_a_square_apply(monkeypatch)
    assert membership_disagreements(cases, oracle) >= 1


def skip_a_pivot_row(monkeypatch):
    """Patch SpanBasis._reduce to skip the last pivot row once the span
    holds 3 rows, which leaves a residue under an existing pivot.  The patch
    gives up after 2,000 calls since the last reset of the returned counter,
    so a closure that grows without end fails instead of hanging."""
    reduce, calls = SpanBasis._reduce, [0]

    def skipping(self, v, record=None):
        calls[0] += 1
        assert calls[0] <= 2000, "the closure did not end"
        if self.dim < 3:
            return reduce(self, v, record)
        last = self.pivots[-1]
        row = self._row.pop(last)
        try:
            return reduce(self, v, record)
        finally:
            self._row[last] = row

    monkeypatch.setattr(SpanBasis, "_reduce", skipping)
    return calls


def test_a_reduction_that_skips_a_pivot_row_fails_with_a_cross_check_error(monkeypatch):
    """Under skip_a_pivot_row, filing a residue under an existing pivot
    raises CrossCheckError on some layouts, and every other layout still
    passes the oracle."""
    calls = skip_a_pivot_row(monkeypatch)
    raised = 0
    for seed in range(4):
        for layout in layouts(seed, 8, range(1, 5)):
            calls[0] = 0
            try:
                check_word_algebra(*layout)
            except CrossCheckError:
                raised += 1
    assert raised >= 3


def stack(rows, ncols):
    """The DomainMatrix whose rows are the flat lists `rows`."""
    return DomainMatrix.from_list_flat([x for r in rows for x in r], (len(rows), ncols), QQ_I)


def basis_rows(A):
    """Flat lists of the nonzero rows of A's reduced row echelon form."""
    R, pivots = A.rref()
    return [R[i, :].to_list_flat() for i in range(len(pivots))]


def dcomm_oracle(M):
    """(dim image, dim End(V)_0, dim End^#) of M from its action matrices.
    W is spun from the stacked basis tuple u of P's column space, P the top
    idempotent: a matrix X acts on a vector of V^n, read as the n x d matrix
    of its blocks, by right multiplication with X^T.  End^# is the image of
    the nullspace of the pairings f(X_i w), over a basis X_i of the corner
    span, the rows w of W and a basis of the annihilators f of W."""
    d = M.dim
    mats = [mat_to_sympy(m) for m in M.mats]
    image = stack([m.to_list_flat() for m in mats], d * d).rank()
    P = DomainMatrix.zeros((d, d), QQ_I)
    for t, c in M.algebra.chain[-1].items():
        P = P + mats[t] * to_qqi(c)
    corner = basis_rows(stack([(P[:, r] * P[c, :]).to_list_flat()
                               for r in range(d) for c in range(d)], d * d))
    B = P.columnspace()
    n = B.shape[1]

    def act(X, rows):  # X applied to every block of every row
        R = DomainMatrix.from_list_flat([x for r in rows for x in r],
                                        (len(rows) * n, d), QQ_I).to_sparse()
        return (R * X.transpose()).to_list_flat()

    W = [B.transpose().to_list_flat()]
    while True:
        spun = stack(W + [act(m, [w]) for m in mats for w in W], n * d)
        if spun.rank() == len(W):
            break
        W = basis_rows(spun)
    F = stack(W, n * d).nullspace().transpose().to_sparse()
    pairings = []
    for X in corner:
        XW = act(DomainMatrix.from_list_flat(X, (d, d), QQ_I), W)
        XW = DomainMatrix.from_list_flat(XW, (len(W), n * d), QQ_I).to_sparse()
        pairings.append((XW * F).to_list_flat())
    constraints = stack(pairings, len(W) * F.shape[1]).transpose()
    sharp = constraints.nullspace() * stack(corner, d * d)
    return image, len(corner), sharp.rank()


def dcomm_modules(seed, count, dimmax):
    """`count` modules drawn by gen.rand_approx_module with junk padding
    allowed, each with how it was drawn: plain, skewed or junk-padded."""
    rng = random.Random(seed)
    for _ in range(count):
        _, M = gen.rand_approx_module(rng, dimmax, junk_ok=True)
        entries = sum(len(row) for m in M.mats for row in m.rows)
        yield M, ("junk" if not is_approx_unital(M)
                  else "skewed" if entries > M.algebra.dim else "plain")


@functools.cache
def dcomm_oracles(seed, count, dimmax):
    return [dcomm_oracle(M) for M, _ in dcomm_modules(seed, count, dimmax)]


def dcomm_cases(seed, count, dimmax):
    """(module, kind, oracle dimensions) for dcomm_modules, the modules
    drawn afresh, since a check keeps its image span in the module, and the
    oracle computed once per process."""
    return [(M, kind, oracle) for (M, kind), oracle
            in zip(dcomm_modules(seed, count, dimmax), dcomm_oracles(seed, count, dimmax))]


def dcomm_agrees(M, oracle):
    """double_commutant_check's dimensions are the oracle's, and it passes
    exactly when the image is all of End^#."""
    image, end_zero, sharp = oracle
    rep = double_commutant_check(M)
    return (rep.dims == {"dim_V": M.dim, "dim_image": image, "dim_sharp": sharp,
                         "dim_end_zero": end_zero}
            and rep.ok == (image == sharp))


def test_double_commutant_dimensions_match_the_oracle():
    cases = dcomm_cases(0, 24, 4)
    assert all(dcomm_agrees(M, oracle) for M, _, oracle in cases)
    assert {kind for _, kind, _ in cases} == {"plain", "skewed", "junk"}


@pytest.mark.slow
def test_larger_double_commutant_dimensions_match_the_oracle():
    cases = dcomm_cases(1, 16, 7)
    assert all(dcomm_agrees(M, oracle) for M, _, oracle in cases)
    assert {kind for _, kind, _ in cases} == {"plain", "skewed", "junk"}
    assert max(M.dim for M, _, _ in cases) >= 8


def test_a_reduction_that_skips_a_pivot_row_fails_a_double_commutant_oracle_case(
        monkeypatch):
    """Under skip_a_pivot_row, some module of the default oracle test
    raises CrossCheckError or disagrees with the oracle; the modules are
    drawn and the oracle computed before the patch."""
    cases = dcomm_cases(0, 24, 4)
    calls = skip_a_pivot_row(monkeypatch)
    failed = 0
    for M, _, oracle in cases:
        calls[0] = 0
        try:
            failed += not dcomm_agrees(M, oracle)
        except CrossCheckError:
            failed += 1
    assert failed >= 1


def to_sympy_number(x):
    """The sympy number of a Scalar."""
    return sympy.Rational(x.a, x.den) + sympy.I * sympy.Rational(x.b, x.den)


def rand_direction(rng, nvars):
    """A nonzero Vector of small Gaussian rationals."""
    while True:
        lam = Vector([gen.rand_scalar(rng) for _ in range(nvars)])
        if not lam.is_zero():
            return lam


def kernel_oracle(lams, d):
    """(monomials of degree <= d, the DomainMatrix over QQ_I of the
    evaluation-and-derivative map on them): one row per subset S of the
    directions, the empty one first, holding prod_(j in S) (lam_j . grad)
    of each monomial at 0, differentiated by sympy.diff."""
    N = lams[0].nvars
    xs = sympy.symbols("x1:%d" % (N + 1))
    mons = monomials_upto(N, d)
    lams = [[to_sympy_number(c) for c in lam.coords] for lam in lams]
    rows = []
    for l in range(len(lams) + 1):
        for subset in itertools.combinations(lams, l):
            row = []
            for m in mons:
                f = sympy.Mul(*(x ** e for x, e in zip(xs, m)))
                for lam in subset:
                    f = sum(c * sympy.diff(f, x) for c, x in zip(lam, xs))
                row.append(QQ_I.from_sympy(sympy.expand(sympy.sympify(f).subs({x: 0 for x in xs}))))
            rows.append(row)
    return mons, DomainMatrix(rows, (len(rows), len(mons)), QQ_I)


def test_kernel_alpha_bar_matches_the_sympy_kernel():
    """On 20 seeded instances (N <= 2 variables, n <= 3 Gaussian rational
    directions, degree bound d <= 4) the kernel basis is linearly
    independent, killed by the oracle's map and as large as its
    nullspace, so it spans the oracle's kernel."""
    rng = random.Random(23)
    dims = set()
    for _ in range(20):
        N, n, d = rng.randint(1, 2), rng.randint(1, 3), rng.randint(0, 4)
        lams = [rand_direction(rng, N) for _ in range(n)]
        mons, A = kernel_oracle(lams, d)
        basis = kernel_alpha_bar(lams, d)
        assert len(basis) == len(mons) - A.rank()
        if basis:
            B = to_sympy([[p.terms.get(m, ZERO) for m in mons] for p in basis], len(mons))
            assert B.rank() == len(basis)
            assert (A * B.transpose()).is_zero_matrix
        dims.add(len(basis))
    assert len(dims) >= 4


def entry_to_sympy(f, xs):
    """The sympy expression of an ExpPoly without formal units."""
    out = 0
    for (freq, unit), p in f.terms.items():
        assert unit == ZERO
        e = sympy.exp(sum(to_sympy_number(c) * x for c, x in zip(freq, xs)))
        out += e * sum(to_sympy_number(c) * sympy.Mul(*(x ** k for x, k in zip(xs, m)))
                       for m, c in p.terms.items())
    return out


def jet_oracle(F, E, p):
    """The DomainMatrix over QQ_I of the jet of F over E at the point p:
    the sum over |beta| <= k of kron(m_E(X^beta), (d^beta F)(p) / beta!),
    E's index slow, with d^beta taken by sympy.diff and m_E(X^beta) the
    product of E's action matrices."""
    N, R, C, d = F.nvars, F.rows, F.cols, E.dim
    xs = sympy.symbols("x1:%d" % (N + 1))
    at = {x: to_sympy_number(c) for x, c in zip(xs, p.coords)}
    grid = [[entry_to_sympy(f, xs) for f in row] for row in F.entries]
    acts = [mat_to_sympy(m) for m in E.mats]
    out = [[QQ_I.zero] * (d * C) for _ in range(d * R)]
    for beta in monomials_upto(N, E.k):
        m = DomainMatrix.eye(d, QQ_I)
        for a, b in zip(acts, beta):
            m = m * a ** b
        wrt = [(x, b) for x, b in zip(xs, beta) if b]
        scale = sympy.Mul(*(sympy.factorial(b) for b in beta))
        D = [[QQ_I.from_sympy(sympy.expand((sympy.diff(f, *wrt) if wrt else f).subs(at) / scale))
              for f in row] for row in grid]
        for (rE, cE), x in m.to_dok().items():
            for r, c in itertools.product(range(R), range(C)):
                out[rE * R + r][cE * C + c] += x * D[r][c]
    return DomainMatrix(out, (d * R, d * C), QQ_I)


def jet_cases(seed):
    """(kind, family, module, point): for 1 and 2 variables, a polynomial
    family at a seeded point and an exponential family at the origin over
    each kind of module (the evaluation module, a dual-number module and a
    small gen.rand_finmod module), of shape at most 2 x 2."""
    rng = random.Random(seed)
    for N, exponential, kind in itertools.product((1, 2), (False, True),
                                                 ("eval", "dual", "finmod")):
        E = {"eval": lambda: cyclic_quotient(maximal_ideal(N)).module,
             "dual": lambda: dual_number_module(gen.rand_point(rng, N, zero_ok=False)),
             "finmod": lambda: gen.rand_finmod(rng, N, 2, 4)}[kind]()
        R, C = rng.randint(1, 2), rng.randint(1, 2)
        entry = ((lambda: gen.rand_exp_poly(rng, N, 2, nfreq=1)) if exponential
                 else lambda: ExpPoly.from_poly(gen.rand_poly(rng, N, 3)))
        F = MatPolyFamily(N, [[entry() for _ in range(C)] for _ in range(R)])
        p = Vector([ZERO] * N) if exponential else gen.rand_point(rng, N)
        yield kind, F, E, p


@functools.cache
def jet_oracles(seed):
    return [(kind, F, E, p, jet_oracle(F, E, p)) for kind, F, E, p in jet_cases(seed)]


def jet_disagreements(seed, jet=jet_family):
    """The kinds of the cases whose jet, evaluated, differs from the oracle."""
    return [kind for kind, F, E, p, oracle in jet_oracles(seed)
            if mat_to_sympy(jet(F, E).evaluate_scalar(p)) != oracle]


def test_jet_family_matches_the_sympy_taylor_sum():
    """Twelve seeded cases; the gen.rand_finmod modules drawn include ones
    of order >= 2, and the exponential families nonzero frequencies."""
    cases = jet_oracles(29)
    assert max(E.k for _, _, E, _, _ in cases) >= 2
    assert any(any(freq) for _, F, _, _, _ in cases for freq, _, _ in F.terms)
    assert jet_disagreements(29) == []


def test_a_jet_that_takes_a_dual_number_module_as_order_0_fails_the_oracle():
    """Mutant: jet_family over a module of order 1 drops the beta != 0
    terms of the Taylor sum, as over the evaluation module."""
    class Order0(FinMod):
        __slots__ = ()
        k = 0

    def order_0(F, E):
        return jet_family(F, Order0(E.mats, check=False) if E.k == 1 else E)
    assert jet_disagreements(29, order_0).count("dual") == 4


def order_oracle(E):
    """The least k at which sympy finds every product of k+1 of E's action
    matrices zero, the products taken over every multiset of variables."""
    acts = [mat_to_sympy(m) for m in E.mats]
    k = 0
    while any(not functools.reduce(lambda m, j: m * acts[j], js,
                                   DomainMatrix.eye(E.dim, QQ_I)).is_zero_matrix
              for js in itertools.combinations_with_replacement(range(E.nvars), k + 1)):
        k += 1
        assert k <= E.dim, "the action is not nilpotent"
    return k


def test_the_order_of_a_module_matches_the_sympy_products():
    """Seeded gen.rand_finmod draws in 1-3 variables and tensors of 1-4
    dual-number modules: a tensor of n of them has order n, every order is
    below the dimension, and equal matrices make equal modules."""
    rng = random.Random(40)
    mods = [gen.rand_finmod(rng, N, 3, 8) for N in (1, 2, 3) for _ in range(12)]
    for n in (1, 2, 3, 4):
        N = rng.randint(1, 3)
        T = tensor(*(dual_number_module(gen.rand_point(rng, N, zero_ok=False))
                     for _ in range(n)))
        assert T.k == n
        mods.append(T)
    assert {E.k for E in mods} >= {0, 1, 2, 3, 4}
    for E in mods:
        assert E.k == order_oracle(E) and E.k < max(E.dim, 1)
        F = FinMod(E.mats)
        assert F == E and hash(F) == hash(E) and F.k == E.k


def ideal_order_oracle(nvars, gens):
    """One less than the least b >= 1 at which sympy finds the degree-b
    monomials inside the span of the truncated multiples x^gamma g,
    |gamma| <= b, in the coordinates of the monomials of degree <= b."""
    for b in itertools.count(1):
        mons = monomials_upto(nvars, b)
        at = {m: t for t, m in enumerate(mons)}
        rows = [[to_qqi(row[m]) if m in row else QQ_I(0) for m in mons]
                for g in gens for gamma in mons
                if (row := {e: c for e0, c in g.terms.items()
                            if sum(e := tuple(map(sum, zip(e0, gamma)))) <= b})]
        units = [[QQ_I(int(t == at[m])) for t in range(len(mons))]
                 for m in monomials_of_degree(nvars, b)]
        rank = DomainMatrix(rows, (len(rows), len(mons)), QQ_I).rank() if rows else 0
        if DomainMatrix(rows + units, (len(rows) + len(units), len(mons)), QQ_I).rank() == rank:
            return b - 1


def test_the_order_of_every_drawn_ideal_matches_the_sympy_ranks(monkeypatch):
    """Every CofiniteIdeal that `jetcalc jet` and `jetcalc kernel` build at
    seeds 0-4 on the three verify tiers has the oracle's order.  Among those
    gen.rand_cofinite_ideal draws, the loose ones, of order below one less
    than their generators' largest lowest degree (which gen's enlarged
    ideals took as their order), are counted per suite and tier."""
    built, drawn, init, draw = [], [], localmod.CofiniteIdeal.__init__, gen.rand_cofinite_ideal
    monkeypatch.setattr(localmod.CofiniteIdeal, "__init__",
                        lambda self, *args: (init(self, *args), built.append(self))[0])
    monkeypatch.setattr(gen, "rand_cofinite_ideal",
                        lambda *args: drawn.append(draw(*args)) or drawn[-1])
    loose = {}
    for suite in ("jet", "kernel"):
        for tier in ("default", "second", "third"):
            drawn.clear()
            for seed in range(5):
                with contextlib.redirect_stdout(io.StringIO()):
                    assert cli.main([suite, "--seed", str(seed)] + TIERS.get(tier, [])) == 0
            loose[suite, tier] = sum(
                I.k < max(min(map(sum, g.terms)) for g in I.generators) - 1 for I in drawn)
    assert loose == {("jet", "default"): 14, ("jet", "second"): 22, ("jet", "third"): 25,
                     ("kernel", "default"): 13, ("kernel", "second"): 13,
                     ("kernel", "third"): 13}
    ideals = {(I.nvars, tuple(map(str, I.generators))): I for I in built}
    assert len(ideals) == 161  # of 932 built
    assert {I.k for I in ideals.values()} == {0, 1, 2, 3, 4}
    for I in ideals.values():
        assert I.k == ideal_order_oracle(I.nvars, I.generators), I
