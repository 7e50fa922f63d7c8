"""Acceptance gate: one test per contract item, exact arithmetic throughout.

Every check below is all-or-nothing (tolerance zero); the pytest -v line for
each test is the pass/fail line for that item.  Randomized items draw from
fixed-seed generators so reruns are identical.  The gate's own ranks and
nullspaces are sympy's DomainMatrix over QQ_I, which shares no elimination
with jetcalc.
"""

import itertools
import math
import random
from pathlib import Path

from jetcalc.scalars import Scalar, ZERO, ONE
from jetcalc.poly import (Polynomial, ExpPoly, Vector, Covector, DiffOp,
                          diff, exp_series, monomials_upto, monomials_of_degree)
from jetcalc import linalg
from jetcalc import localmod as lm
from jetcalc import jetfun as jf
from jetcalc import approxalg as aa
from jetcalc.family import (PWCandidate, spanned_algebra,
                            term_value, functional_to_relation,
                            membership_triple, invariance_check,
                            FunctionalData, family_from_json)
from jetcalc import gen
from oracles import (frobenius_grid, membership, rand_matrix, jet_ideal,
                     annihilator_dual, pairing)
from qqi import from_qqi, to_sympy

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def oracle_nullspace(rows, ncols):
    """A basis of {x : A x = 0} for A given by dense rows, by sympy, as
    lists of Scalars."""
    return [[from_qqi(z) for z in v] for v in to_sympy(rows, ncols).nullspace().to_list()]


def eval_module(nvars):
    return lm.cyclic_quotient(lm.maximal_ideal(nvars)).module


def test_criterion_01_pairing_between_polynomials_and_symbols_is_perfect():
    for N in (1, 2, 3):
        for k in (0, 1, 2, 3):
            mons = monomials_upto(N, k)
            ops = [DiffOp(N, {m: ONE}) for m in mons]
            gram = [[pairing(Polynomial.monomial(N, m), u).scalar()
                     for u in ops] for m in mons]
            want = math.comb(N + k, N)
            assert len(mons) == want
            assert to_sympy(gram, len(mons)).rank() == want, (N, k)


def test_criterion_02_jet_is_multiplicative_on_random_germs():
    rng = random.Random("acceptance:2")
    for i in range(500):
        nv = rng.randint(1, 2)
        E = gen.rand_finmod(rng, nv, 2, 4)
        f = gen.rand_exp_poly(rng, nv, 4)
        g = gen.rand_exp_poly(rng, nv, 4)
        assert jf.jet(f * g, E) == jf.jet(f, E) * jf.jet(g, E), i


def test_criterion_03_iterated_jets_match_the_tensor_module():
    rng = random.Random("acceptance:3")
    for i in range(100):
        nv = rng.randint(1, 2)
        n = 2 if i % 2 == 0 else 3
        mods = [gen.rand_finmod(rng, nv, 1, 3) for _ in range(n)]
        f = gen.rand_exp_poly(rng, nv, 2)
        seq = jf.jet(f, mods[-1])
        for E in reversed(mods[:-1]):
            seq = jf.jet_family(seq, E)
        assert seq == jf.jet(f, lm.tensor(*mods)), i


def test_criterion_04_block_derivatives_are_dual_number_jets():
    rng = random.Random("acceptance:4")
    for i in range(100):
        nv = rng.randint(1, 2)
        d = rng.randint(1, 2)
        F = jf.MatPolyFamily(nv, [[gen.rand_exp_poly(rng, nv, 2)
                                   for _ in range(d)] for _ in range(d)])
        eta = gen.rand_point(rng, nv, zero_ok=False)
        assert jf.block_derivative(F, eta) == jf.jet_family(
            F, lm.dual_number_module(eta)), i
        eta2 = gen.rand_point(rng, nv, zero_ok=False)
        lhs = jf.iterated_block_derivative(F, [eta, eta2])
        rhs = jf.jet_family(F, lm.tensor(lm.dual_number_module(eta),
                                         lm.dual_number_module(eta2)))
        assert lhs == rhs, i


def test_criterion_05_functionals_and_operators_translate_both_ways():
    rng = random.Random("acceptance:5")
    for i in range(50):
        nv = rng.randint(1, 2)
        E = gen.rand_finmod(rng, nv, 2, 4)
        H = rand_matrix(rng, E.dim, E.dim)
        u = jf.functional_to_diffop(E, H)
        for m in monomials_upto(nv, E.k + 1):
            f = Polynomial.monomial(nv, m)
            lhs = frobenius_grid(H, jf.jet(f, E).entries)
            assert lhs == ExpPoly.from_poly(diff(u, f)), (i, m)
    for i in range(20):
        nv = rng.randint(1, 2)
        ops = [gen.rand_diffop(rng, nv, 2) for _ in range(rng.randint(1, 3))]
        E, funcs = jf.diffop_to_module(ops)
        for u, H in zip(ops, funcs):
            assert jf.functional_to_diffop(E, H) == u, i


def test_criterion_06_kernel_routes_agree_and_contain_high_degrees():
    rng = random.Random("acceptance:6")
    for N in (1, 2):
        for n in (1, 2, 3):
            for d in (1, 2, 3, 4):
                lams = [gen.rand_point(rng, N, zero_ok=False)
                        for _ in range(n)]
                kr = jf.kernel_alpha_bar(lams, d)
                space = lm.PolySpace(N, d)
                mons = space.mons_asc
                # direct route, rebuilt here: value plus every subset of
                # directional derivatives must vanish at the origin
                rows = []
                zrow = [ZERO] * len(mons)
                zrow[mons.index((0,) * N)] = ONE
                rows.append(zrow)
                for l in range(1, n + 1):
                    for subset in itertools.combinations(range(n), l):
                        u = DiffOp.one(N)
                        for j in subset:
                            u = u * lams[j].as_diffop()
                        rows.append([pairing(Polynomial.monomial(N, m), u).scalar()
                                     for m in mons])
                kernel = []
                for v in oracle_nullspace(rows, len(mons)):
                    w = [ZERO] * space.dim
                    for c, m in zip(v, mons):
                        w[space.index[m]] = c
                    kernel.append(w)
                direct = to_sympy(kernel, space.dim)
                packaged = to_sympy([linalg.dense(space.to_vec(p), space.dim)
                                     for p in kr.basis], space.dim)
                dim = packaged.rank()
                assert direct.rank() == dim == direct.vstack(packaged).rank(), (N, n, d)
                for deg in range(n + 1, d + 1):
                    for m in monomials_of_degree(N, deg):
                        v = linalg.dense(space.to_vec(Polynomial.monomial(N, m)), space.dim)
                        assert packaged.vstack(to_sympy([v], space.dim)).rank() == dim, \
                            (N, n, d, m)


def test_criterion_07_subquotient_kernels_lie_inside_the_ideal():
    rng = random.Random("acceptance:7")
    for i in range(50):
        nv = rng.randint(1, 2)
        ideal = gen.rand_cofinite_ideal(rng, nv, 2)
        assert jf.subquotient_certified(ideal), i
        # the standard directions: each coordinate direction k times
        lams = [Vector.basis(nv, j) for j in range(nv) for _ in range(ideal.k)]
        if not lams:
            continue
        n = len(lams)
        space = lm.PolySpace(nv, n)
        span = ideal.image_span(n)
        for p in jf.kernel_alpha_bar(lams, n).basis:
            assert span.contains(space.to_vec(p)), i


def _pattern_tuples(nd):
    """Deterministic small-coefficient generators for the submodule sweep.

    A generated submodule only depends on the generator up to scaling, so
    single-entry patterns beyond the standard basis add nothing; the two
    entry patterns with ratio 1 and ratio i cover every small ratio class."""
    im = Scalar(0, 1)
    out = []
    for a, b in itertools.combinations(range(nd), 2):
        for c in (ONE, im):
            w = [ZERO] * nd
            w[a] = ONE
            w[b] = c
            out.append(w)
    return out


def test_criterion_08_double_commutant_holds_on_random_modules():
    rng = random.Random("acceptance:8")
    for i in range(200):
        _, M = gen.rand_approx_module(rng, 6)
        rep = aa.double_commutant_check(M)
        assert rep.ok, (i, rep.to_dict())
        n = 6 // M.dim
        nd = n * M.dim
        phi = gen.rand_member_phi(rng, M)
        extras = _pattern_tuples(nd)
        res_phi = membership(M, phi)
        assert res_phi.member, i
        if res_phi.tuple_vec is not None and len(res_phi.tuple_vec) == nd:
            extras.append(list(res_phi.tuple_vec))
        assert aa.submodule_grid_check(M, phi, n, extra=extras) is None, i
        # a probe cut to the top corner: the tuple decision and the
        # submodule certificates must tell the same story
        P = M.idem_mat(len(M.algebra.chain) - 1)
        R = linalg.mmul(linalg.mmul(P, rand_matrix(rng, M.dim, M.dim)), P)
        res = membership(M, R)
        if res.member:
            assert aa.submodule_grid_check(M, R, n, extra=extras) is None, i
        else:
            row, moved = res.escaped
            W = res.submodule
            assert W.contains(list(row)) and not W.contains(list(moved)), i


def _toy_layout(rng):
    reps = [gen.rand_repfamily(rng, "a", 1, 2)]
    if rng.random() < 0.5:
        reps.append(gen.rand_repfamily(rng, "b", 1, 1))
    pts = [gen.rand_point(rng, 1)]
    if rng.random() < 0.5:
        q = gen.rand_point(rng, 1)
        if all(q.coords != p.coords for p in pts):
            pts.append(q)
    if rng.random() < 0.5:
        E = eval_module(1)
    else:
        E = lm.dual_number_module(gen.rand_point(rng, 1, zero_ok=False))
    if E.dim * sum(r.dim for r in reps) * len(pts) > 6:
        pts = pts[:1]
    return reps, pts, E


def test_criterion_09_relation_sums_decide_exactly_like_the_annihilator():
    rng = random.Random("acceptance:9")
    for i in range(50):
        reps, pts, E = _toy_layout(rng)
        by_label = {r.label: r for r in reps}
        cand, _ = gen.rand_candidate(rng, reps)
        span, layout = spanned_algebra(reps, pts, E)
        coords = [(layout.blocks[b][2] + r, layout.blocks[b][2] + c)
                  for b in range(len(layout.blocks))
                  for r in range(layout.blocks[b][3])
                  for c in range(layout.blocks[b][3])]
        rows = [[row.get(r * layout.total + c, ZERO) for (r, c) in coords]
                for row in span.rows]
        satisfied = True
        for vec in oracle_nullspace(rows, len(coords)):
            psi = [[ZERO] * layout.total for _ in range(layout.total)]
            for (r, c), x in zip(coords, vec):
                psi[r][c] = x
            data = FunctionalData(tuple(map(tuple, psi)), layout)
            total = sum((term_value(t, cand.component(by_label[t.label]))
                         for t in functional_to_relation(data)), ZERO)
            if total:
                satisfied = False
                break
        t = membership_triple(cand, reps, pts, E)
        assert t.unanimous, i
        assert satisfied == t.double_annihilator, i


def test_criterion_10_membership_tests_and_invariance_agree():
    rng = random.Random("acceptance:10")
    for i in range(50):
        reps, pts, E = _toy_layout(rng)
        cand, is_member = gen.rand_candidate(rng, reps)
        t = membership_triple(cand, reps, pts, E)
        assert t.unanimous, i
        if is_member:
            assert t.member, i
        delta = []
        for rep in reps:
            for p in pts:
                if E.k == 0:
                    part = (rep.label, p, [])
                else:
                    part = (rep.label, p, [Covector(tuple(
                        E.mats[j].rows[0].get(1, ZERO) for j in range(E.nvars)))])
                delta.extend([part] * (rep.dim * E.dim))
        assert invariance_check(cand, delta, reps) == t.sharp, i

    text = (FIXTURES / "reducible_family.json").read_text()
    rf = family_from_json(text)
    ec = PWCandidate.from_json((FIXTURES / "escaping_candidate.json").read_text(), rf)
    pt = Vector([ONE])
    E1 = eval_module(1)
    t = membership_triple(ec, rf, [pt], E1)
    delta = [(rf[0].label, pt, [])] * (rf[0].dim * E1.dim)
    assert t.unanimous and not t.member
    assert not invariance_check(ec, delta, rf)
    good = PWCandidate.from_word(rf, [1, 2, -1])
    t2 = membership_triple(good, rf, [pt], E1)
    assert t2.unanimous and t2.member
    assert invariance_check(good, delta, rf)


def test_criterion_11_jets_of_matrix_families_multiply():
    rng = random.Random("acceptance:11")
    for i in range(100):
        nv = rng.randint(1, 2)
        d = rng.randint(1, 3)
        T = jf.MatPolyFamily(nv, [[gen.rand_exp_poly(rng, nv, 2)
                                   for _ in range(d)] for _ in range(d)])
        S = jf.MatPolyFamily(nv, [[gen.rand_exp_poly(rng, nv, 2)
                                   for _ in range(d)] for _ in range(d)])
        E = gen.rand_finmod(rng, nv, 1, 3)
        assert jf.jet_family(T * S, E) == jf.jet_family(T, E) * jf.jet_family(S, E), i


def test_criterion_12_exponentials_reduce_to_their_taylor_classes():
    rng = random.Random("acceptance:12")
    for i in range(50):
        nv = rng.randint(1, 2)
        ideal = gen.rand_cofinite_ideal(rng, nv, 2)
        xi = gen.rand_covector(rng, nv)
        mu = gen.rand_point(rng, nv)
        f = ExpPoly.exp(tuple(xi.coords))
        cls = jet_ideal(f, ideal, mu)
        unit = ExpPoly.exp((), unit=xi(mu))

        # the pairing of the class against any annihilator functional is the
        # symbol of the functional evaluated at the frequency
        for u in annihilator_dual(ideal):
            lhs = ExpPoly.zero(0)
            for t, m in enumerate(ideal.standard_monomials):
                lhs = lhs + cls[t] * pairing(Polynomial.monomial(nv, m), u).scalar()
            u_at_xi = ZERO
            for beta, c in u.terms.items():
                prod = c
                for j, e in enumerate(beta):
                    for _ in range(e):
                        prod = prod * xi.coords[j]
                u_at_xi = u_at_xi + prod
            assert lhs == unit * u_at_xi, (i, str(u))

        # the class itself is the projected truncated exponential series,
        # scaled by the formal exponential of the evaluation
        cq = lm.cyclic_quotient(ideal)
        nf = ideal.normal_form(exp_series(xi, ideal.k))
        base = [nf.terms.get(m, ZERO) for m in cq.monomials]
        assert cls == tuple(unit * c for c in base), i
