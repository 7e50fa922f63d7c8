"""Approximately unital algebras, their modules, and the double commutant."""

import json
import random
import re
import sys

import pytest

from jetcalc.scalars import Scalar, ZERO, ONE, Scalar as sc
from jetcalc import approxalg as aa, gen, linalg
from jetcalc.linalg import mid, sparse
from jetcalc.poly import parse_scalar
from oracles import algebra_from_matrix_basis, is_approx_unital, membership, rand_matrix
from test_shared_routines import load_bench


def as_mats(M, span):
    """The rows of a span of flattened endomorphisms of M's space, as Mats."""
    return [linalg.Mat.from_flat(row, M.dim, M.dim) for row in span.rows]


def chain_spans(M):
    """The spans (cols, rows) of every chain idempotent of M, by chain index,
    as double_commutant_check builds them."""
    chain = range(len(M.algebra.chain))
    return aa._idem_spans(M, chain, chain)


def test_full_matrix_block_has_commutant_scalars():
    alg, M = aa.block_module([2])
    alg.validate()
    M.validate()
    rep = aa.double_commutant_check(M)
    assert rep.ok
    assert rep.dims == {"dim_V": 2, "dim_image": 4, "dim_sharp": 4,
                        "dim_end_zero": 4}


def test_scalar_algebra_on_a_big_space_stays_one_dimensional():
    A1 = aa.ApproxAlgebra(1, {(0, 0): {0: ONE}}, [(ONE,)])
    M1 = aa.ApproxModule(A1, 3, [mid(3)])
    rep = aa.double_commutant_check(M1)
    assert rep.ok and rep.dims["dim_image"] == 1 and rep.dims["dim_sharp"] == 1


def test_membership_separates_diagonal_from_offdiagonal():
    _, M2 = aa.block_module([1, 1])
    E12 = ((ZERO, ONE), (ZERO, ZERO))
    res = membership(M2, E12)
    assert not res.member and res.escaped is not None
    for coords in [(ONE, ZERO), (ZERO, ONE), (sc(2), sc(-3))]:
        phi = M2.act(coords)
        res = aa.end_sharp_membership(M2, phi)
        assert res.member
        assert M2.act(res.witness) == phi
    rep = aa.double_commutant_check(M2)
    assert rep.ok and rep.dims["dim_image"] == 2 and rep.dims["dim_sharp"] == 2


def test_upper_triangular_algebra_from_a_matrix_basis():
    mats = [mid(2),
            ((ONE, ZERO), (ZERO, ZERO)),
            ((ZERO, ONE), (ZERO, ZERO)),
            ((ZERO, ZERO), (ZERO, ONE))]
    _, MU = algebra_from_matrix_basis(mats)
    rep = aa.double_commutant_check(MU)
    assert rep.ok and rep.dims["dim_image"] == 3 and rep.dims["dim_sharp"] == 3
    E21 = ((ZERO, ZERO), (ONE, ZERO))
    assert not aa.end_sharp_membership(MU, E21).member


def test_corner_identities_hold_blockwise():
    _, M3 = aa.block_module([1, 2])
    for j1 in range(2):
        for j2 in range(2):
            rep = aa.corner_identity_check(M3, j1, j2)
            assert rep.ok, (j1, j2)
    assert aa.corner_identity_check(M3, 0, 1).dims["dim_left"] == 1


def test_image_span_is_built_once_and_checks_leave_it_unchanged():
    """The module keeps its image span; the double-commutant and corner
    checks read it without growing it, and it is the span of the flattened
    action matrices."""
    rng = random.Random(4)
    for _ in range(6):
        _, M = gen.rand_approx_module(rng, 5, junk_ok=True)
        image = M.image_span()
        before = [dict(r) for r in image.rows]
        aa.double_commutant_check(M)
        last = len(M.algebra.chain) - 1
        aa.corner_identity_check(M, last, last)
        assert M.image_span() is image
        assert image.rows == before
        fresh = linalg.SpanBasis(M.dim * M.dim, [m.flat() for m in M.mats])
        assert image.same_span(fresh)


def test_end_zero_of_a_direct_sum_counts_blockwise_maps():
    _, M3 = aa.block_module([1, 2])
    assert aa.end_zero_basis(*chain_spans(M3)).dim == 9  # 1x1 + 2x2 blocks commute freely: 1 + 4 + 2*2


def test_a_non_unital_module_is_valid_and_reads_as_not_unital():
    """Unitality is a property of a module, not a condition of its
    validity: a module with a junk coordinate nothing absorbs constructs
    checked and validates, and is_approx_unital reports it."""
    algJ = aa.ApproxAlgebra.from_blocks([1])
    actJ = [((ONE, ZERO), (ZERO, ZERO))]
    MJ = aa.ApproxModule(algJ, 2, actJ)
    MJ.validate()
    assert not is_approx_unital(MJ)
    # the dead coordinate forces strict smallness of everything in sight
    assert aa.end_zero_basis(*chain_spans(MJ)).dim == 1
    repJ = aa.double_commutant_check(MJ)
    assert repJ.ok and repJ.dims["dim_image"] == 1 and repJ.dims["dim_sharp"] == 1


def test_membership_needs_an_absorbing_corner():
    algJ = aa.ApproxAlgebra.from_blocks([1])
    actJ = [((ONE, ZERO), (ZERO, ZERO))]
    MJ = aa.ApproxModule(algJ, 2, actJ, check=False)
    with pytest.raises(ValueError):
        aa.end_sharp_membership(MJ, mid(2))


def test_a_zero_corner_gives_the_zero_witness():
    """When the smallest absorbing chain idempotent acts as zero, its
    tuple is empty, and the zero endomorphism's witness is the zero
    element, solved and verified like any other."""
    alg = aa.ApproxAlgebra.from_blocks([1, 1])
    M = aa.ApproxModule(alg, 1, [((ZERO,),), ((ONE,),)])
    res = membership(M, ((ZERO,),))
    assert res.member and res.j == 0 and res.tuple_vec == ()
    assert res.witness == (ZERO, ZERO)
    assert aa.double_commutant_check(M).ok


def test_cyclic_tuple_grids_accept_true_members():
    _, M2 = aa.block_module([1, 1])
    assert aa.submodule_grid_check(M2, M2.act((sc(4), sc(9))), 2) is None
    mats = [mid(2),
            ((ONE, ZERO), (ZERO, ZERO)),
            ((ZERO, ONE), (ZERO, ZERO)),
            ((ZERO, ZERO), (ZERO, ONE))]
    _, MU = algebra_from_matrix_basis(mats)
    assert aa.submodule_grid_check(MU, MU.mats[1], 2) is None
    A1 = aa.ApproxAlgebra(1, {(0, 0): {0: ONE}}, [(ONE,)])
    M1 = aa.ApproxModule(A1, 3, [mid(3)])
    assert aa.submodule_grid_check(M1, mid(3), 3) is None


def test_rejection_comes_with_an_escape_certificate():
    _, M2 = aa.block_module([1, 1])
    E12 = ((ZERO, ONE), (ZERO, ZERO))
    res = membership(M2, E12)
    assert not res.member
    row, moved = res.escaped
    # the cyclic tuple module contains the row but loses its image under E12
    W = linalg.close_span(len(res.tuple_vec), [res.tuple_vec], M2.mats)
    assert W.contains(list(row))
    assert not W.contains(list(moved))


def test_module_json_round_trip():
    _, M3 = aa.block_module([1, 2])
    M3b = aa.ApproxModule.from_json(M3.to_json())
    assert M3b.mats == M3.mats
    assert M3b.algebra.sc == M3.algebra.sc
    assert M3b.algebra.chain == M3.algebra.chain


def test_every_drawn_module_round_trips_through_json():
    """A junk-padded module is not approximately unital, and that is a
    property the loader reads back, not a reason to refuse the file."""
    rng = random.Random(1)
    kinds = set()
    for _ in range(40):
        _, M = gen.rand_approx_module(rng, 4, junk_ok=True)
        N = aa.ApproxModule.from_json(M.to_json())
        assert (N.dim, N.mats, is_approx_unital(N)) == \
            (M.dim, M.mats, is_approx_unital(M))
        kinds.add(is_approx_unital(M))
    assert kinds == {True, False}


def test_module_json_with_a_non_multiplicative_action_is_refused():
    _, M = aa.block_module([2])
    data = json.loads(M.to_json())
    data["action"][0][0] = "2/1+0/1*i"  # E11 no longer acts as an idempotent
    with pytest.raises(ValueError, match="not multiplicative"):
        aa.ApproxModule.from_json(json.dumps(data))


def test_module_json_bounds_its_sizes_before_parsing(monkeypatch):
    """A module above MAX_MODULE_DIM, an algebra basis above
    MAX_ALGEBRA_DIM or an idempotent chain longer than the basis plus one is
    refused before any entry is parsed; at the bounds the loader reaches the
    entries."""
    class Parsed(Exception):
        pass

    def refuse(text):
        raise Parsed(text)

    monkeypatch.setattr(aa, "scalar_parser", lambda: refuse)

    def text(dim, nbasis, nchain=1):
        return json.dumps({"basis": ["e%d" % i for i in range(nbasis)],
                           "structure_constants": {"0,0": {"0": "1"}},
                           "idempotent_chain": [["1"] * nbasis] * nchain, "dim": dim,
                           "action": [["0"] * (dim * dim)] * nbasis})

    assert (aa.MAX_MODULE_DIM, aa.MAX_ALGEBRA_DIM) == (14, 36)
    for dim, nbasis, nchain, what in (
            (15, 1, 1, "module dimension 15"),
            (100, 1, 1, "module dimension 100"),
            (True, 1, 1, "module dimension True"),
            (-1, 1, 1, "module dimension -1"),
            (2, 37, 1, "37 elements"),
            (2, 1, 3, "idempotent chain has 3 elements; a basis of 1 allows at most 2"),
            (2, 36, 38, "idempotent chain has 38 elements")):
        with pytest.raises(ValueError, match=what):
            aa.ApproxModule.from_json(text(dim, nbasis, nchain))
    for dim, nbasis, nchain in ((14, 36, 1), (0, 1, 1), (2, 1, 1), (2, 1, 2), (2, 36, 37)):
        with pytest.raises(Parsed):
            aa.ApproxModule.from_json(text(dim, nbasis, nchain))


def test_module_json_refuses_a_chain_element_or_action_list_of_the_wrong_length(
        monkeypatch):
    """At basis size 1, an action list of 8,001 matrices or an idempotent
    chain element of 20,001 entries is refused by its field name before
    any entry is parsed: the loader calls its parser 0 times."""
    parsed = []
    monkeypatch.setattr(aa, "scalar_parser", lambda: lambda s: parsed.append(s) or ONE)

    def text(chain, action):
        return json.dumps({"basis": ["e0"], "structure_constants": {"0,0": {"0": "1"}},
                           "idempotent_chain": [chain], "dim": 1, "action": action})

    for chain, action, field in ((["1"], [["1"]] * 8001, "'action'"),
                                 (["1"] * 20001, [["1"]], "'idempotent_chain'"),
                                 ([], [["1"]], "'idempotent_chain'"),
                                 (["1"], [], "'action'")):
        with pytest.raises(ValueError, match="module field %s" % field):
            aa.ApproxModule.from_json(text(chain, action))
        assert parsed == []
    aa.ApproxModule.from_json(text(["1"], [["1"]]))
    assert len(parsed) == 3


@pytest.mark.parametrize("sizes", [[1], [2], [1, 2], [2, 1, 1], [3, 3, 3, 3]])
def test_block_algebras_and_modules_pass_their_validation(sizes):
    """from_blocks and block_module build unchecked, since they are valid
    by construction: their algebras pass validate(), associativity
    included, and their modules pass theirs."""
    alg, M = aa.block_module(sizes)
    alg.validate()
    M.validate()
    assert M.algebra is alg and M.dim == sum(sizes)


@pytest.mark.parametrize("consts, message", [
    ({"1,2,3": {}}, "structure constant key '1,2,3' must be two basis indices 'i,j'"),
    ({"0": {}}, "structure constant key '0' must be two basis indices 'i,j'"),
    ({"a,0": {}}, "structure constant key 'a,0' must be two basis indices 'i,j'"),
    ({"-1,0": {}}, "structure constant key '-1,0' must be two basis indices 'i,j'"),
    ({"0,0": {"a": "1"}}, "structure constant '0,0' has the entry key 'a'; it must be "
                          "a basis index"),
    ({"0,4": {"0": "1"}}, "a structure constant names a basis index outside 0 to 3"),
    # a basis index has one spelling, ASCII decimal without a leading zero:
    # each case below was read as the index it spells (the later of "1,2"
    # and "01,2" won) or, for 4,301 zeros, refused only by int()'s digit limit
    pytest.param({"1,2": {"0": "5"}, "01,2": {"0": "1"}},
                 "structure constant key '01,2' must be two basis indices 'i,j'",
                 id="leading_zero"),
    pytest.param({"\u0661,2": {"0": "1"}},
                 "structure constant key '\u0661,2' must be two basis indices 'i,j'",
                 id="arabic_indic_key"),
    pytest.param({"1,2": {"\u0660": "1"}},
                 "structure constant '1,2' has the entry key '\u0660'; it must be a basis "
                 "index", id="arabic_indic_entry"),
    pytest.param({"0" * 4301 + ",0": {}},
                 "structure constant key '%s,0' must be two basis indices 'i,j'" % ("0" * 4301),
                 id="4301_zeros"),
])
def test_module_json_refuses_a_malformed_structure_constant_key(consts, message):
    """block_module([2]) states e_1 e_2 = e_0 under the key "1,2"; each
    case adds or changes keys and must be refused with its message."""
    _, M = aa.block_module([2])
    data = json.loads(M.to_json())
    data["structure_constants"].update(consts)
    with pytest.raises(ValueError, match="^%s$" % re.escape(message)):
        aa.ApproxModule.from_json(json.dumps(data))


def test_module_json_names_a_chain_entry_that_does_not_parse():
    _, M = aa.block_module([1, 2])
    data = json.loads(M.to_json())
    data["idempotent_chain"][1][4] = "1/"
    with pytest.raises(ValueError, match="^idempotent chain element 1 entry 4: parse error: "
                                         "'/' must be followed by an integer$"):
        aa.ApproxModule.from_json(json.dumps(data))


def test_module_json_names_a_structure_constant_entry_that_does_not_parse():
    _, M = aa.block_module([2])
    data = json.loads(M.to_json())
    data["structure_constants"]["1,2"]["0"] = "1/"
    with pytest.raises(ValueError, match="^structure constant '1,2' entry 0: parse error: "
                                         "'/' must be followed by an integer$"):
        aa.ApproxModule.from_json(json.dumps(data))


def test_algebra_axioms_are_enforced():
    with pytest.raises(ValueError):
        aa.ApproxAlgebra(1, {(0, 0): {0: ONE}}, [(sc(2),)])  # not idempotent
    bad_sc = {(0, 0): {0: ONE}, (1, 1): {1: ONE}}  # two orthogonal idempotents
    with pytest.raises(ValueError):
        aa.ApproxAlgebra(2, bad_sc, [(ONE, ZERO)])  # chain misses the second


BROKEN_ALGEBRAS = [  # block sizes, changed structure constants, chain, message
    ([2], {(1, 2): {0: sc(2)}}, None, r"associativity fails on triple \(1,2,1\)"),
    ([1, 1], {}, [(ONE, ZERO), (ZERO, ONE)], "chain elements 0 and 1 do not absorb"),
    ([1, 1], {}, [(sc(2), sc(2))], "chain elements 0 and 0 do not absorb"),
    # e_00 (e_00 + e_10) = e_00, but (e_00 + e_10) e_00 = e_00 + e_10
    ([2], {}, [(ONE, ZERO, ZERO, ZERO), (ONE, ZERO, ONE, ZERO)],
     "chain elements 0 and 1 do not absorb"),
    ([1, 1], {}, [(ONE, ZERO)], "basis element 1 is absorbed by no chain idempotent"),
    ([1, 1], {}, [(ONE, ZERO), (ONE,)], "chain element has wrong length"),
    ([1, 1], {}, [], "the idempotent chain must be nonempty"),
]


@pytest.mark.parametrize("sizes,changed,chain,message", BROKEN_ALGEBRAS)
def test_each_broken_algebra_axiom_is_refused_by_its_message(sizes, changed, chain,
                                                             message):
    """A block algebra (basis e_00, e_01, e_10, e_11 for one 2x2 block)
    with one structure constant perturbed (e_01 e_10 = 2 e_00) or its chain
    replaced is refused, by the constructor and by ApproxModule.from_json
    alike, with the message naming the axiom."""
    _, M = aa.block_module(sizes)
    alg = M.algebra
    if chain is None:
        chain = [linalg.dense(a, alg.dim) for a in alg.chain]
    with pytest.raises(ValueError, match=message):
        aa.ApproxAlgebra(alg.dim, {**alg.sc, **changed}, chain)
    data = json.loads(M.to_json())
    for (i, j), row in changed.items():
        data["structure_constants"]["%d,%d" % (i, j)] = {
            str(t): c.json_str() for t, c in row.items()}
    data["idempotent_chain"] = [[c.json_str() for c in a] for a in chain]
    with pytest.raises(ValueError, match=message):
        aa.ApproxModule.from_json(json.dumps(data))


def dense_product(alg, x, y):
    """x y for dense coordinate lists, summed over every pair of indices."""
    out = [ZERO] * alg.dim
    for i in range(alg.dim):
        for j in range(alg.dim):
            for t, c in alg.sc.get((i, j), {}).items():
                out[t] = out[t] + x[i] * y[j] * c
    return out


def test_sparse_mul_matches_the_dense_product():
    """mul on zero-free dicts agrees with the dense product written out
    above, on block algebras and on the upper-triangular 3x3 matrices, plain
    and conjugated by a unipotent T; its results are zero-free, and products
    that vanish, outright or by cancellation, are the empty dict."""
    upper = [tuple(tuple(ONE if (i, k) == (r, c) else ZERO for k in range(3))
                   for i in range(3)) for r in range(3) for c in range(r, 3)]
    T = ((ONE, sc(2), ZERO), (ZERO, ONE, sc(0, -1)), (ZERO, ZERO, ONE))
    Ti = linalg.mat_inverse(T)
    skewed = [linalg.mmul(linalg.mmul(T, u), Ti) for u in upper]
    algebras = [aa.ApproxAlgebra.from_blocks(s) for s in ([1], [2], [1, 2], [2, 1, 1])]
    algebras += [algebra_from_matrix_basis(m)[0] for m in (upper, skewed)]
    assert [a.dim for a in algebras] == [1, 4, 5, 6, 6, 6]
    rng = random.Random(17)
    coeffs = [ZERO] * 4 + [ONE, -ONE, sc(2), sc(0, 1), sc(1, -1), sc(1) / 3]
    for alg in algebras:
        for _ in range(40):
            x, y = ([rng.choice(coeffs) for _ in range(alg.dim)] for _ in "xy")
            prod = alg.mul(sparse(x), sparse(y))
            assert prod == sparse(dense_product(alg, x, y))
            assert all(prod.values())
    m2 = algebras[1]  # basis e_00, e_01, e_10, e_11
    assert m2.mul({0: ONE}, {3: ONE}) == {}
    assert m2.mul({0: ONE, 1: ONE}, {1: ONE, 3: -ONE}) == {}  # e_01 - e_01
    assert m2.mul({1: ONE}, {2: sc(3)}) == {0: sc(3)}


def test_the_largest_admitted_module_loads_in_few_truth_tests(monkeypatch):
    """Four 3x3 blocks, algebra dimension MAX_ALGEBRA_DIM, load (parsed and
    validated) testing at most 100,000 Scalars for zero, failing at once
    past that: algebra elements are zero-free dicts.  Dense coordinate
    tuples, rescanned by every product, tested 10,354,386."""
    _, M = aa.block_module([3, 3, 3, 3])
    assert (M.dim, M.algebra.dim) == (12, aa.MAX_ALGEBRA_DIM)
    text = M.to_json()
    count = [0]
    truth = Scalar.__bool__

    def counted(x):
        count[0] += 1
        assert count[0] <= 100000, "tested more than 100,000 Scalars for zero"
        return truth(x)

    monkeypatch.setattr(Scalar, "__bool__", counted)
    N = aa.ApproxModule.from_json(text)
    monkeypatch.undo()
    assert count[0] > 0
    assert N.mats == M.mats and N.algebra.sc == M.algebra.sc and is_approx_unital(N)


def kind(M):
    """How gen.rand_approx_module drew M: junk-padded, skewed or plain."""
    entries = sum(len(row) for m in M.mats for row in m.rows)
    return ("junk" if not is_approx_unital(M)
            else "skewed" if entries > M.algebra.dim else "plain")


def test_witness_solver_factors_each_corner_once(monkeypatch):
    """double_commutant_check factors the action vectors of a corner's
    tuple once, for all the End^# basis elements whose smallest absorbing
    corner it is, on plain, skewed and junk-padded modules; each witness
    acts as its element."""
    rng = random.Random(1)
    factored = []
    solver = linalg.solver

    def counted(vecs, ncols):
        factored.append(ncols)
        return solver(vecs, ncols)

    kinds = set()
    for _ in range(12):
        _, M = gen.rand_approx_module(rng, 6, junk_ok=True)
        kinds.add(kind(M))
        sharp, _ = aa._end_sharp(M, *chain_spans(M), {})
        corners = set()
        for mat in as_mats(M, sharp):
            res = membership(M, mat)
            assert res.member and M.act(res.witness) == mat
            corners.add(res.j)
        factored.clear()
        monkeypatch.setattr(linalg, "solver", counted)
        assert aa.double_commutant_check(M).ok
        monkeypatch.undo()
        assert len(factored) == len(corners)
    assert kinds == {"plain", "skewed", "junk"}


def test_end_zero_is_the_union_of_all_corner_spans():
    """End(V)_0 eliminated from the top corner alone has the pivots and rows
    of the span of every chain corner's generators together, on plain,
    skewed and junk-padded modules."""
    rng = random.Random(8)
    kinds = set()
    for _ in range(30):
        alg, M = gen.rand_approx_module(rng, 7, junk_ok=True)
        kinds.add(kind(M))
        d = M.dim
        union = linalg.SpanBasis(d * d)
        for j in range(len(alg.chain)):
            P = M.idem_mat(j)
            for r in range(d):
                for c in range(d):
                    unit = linalg.Mat([{c: ONE} if i == r else {} for i in range(d)], d)
                    union.add(linalg.mmul(linalg.mmul(P, unit), P).flat())
        span = aa.end_zero_basis(*chain_spans(M))
        assert (span.pivots, span.rows) == (union.pivots, union.rows)
    assert kinds == {"plain", "skewed", "junk"}


def test_a_lower_corner_escaping_the_top_corner_is_a_cross_check_failure():
    """When the top corner's column or row span misses a row of the lower
    corner's, so that a lower corner generator c (x) r escapes the top
    corner, end_zero_basis refuses to return it."""
    _, M = aa.block_module([1, 2])
    for side in (0, 1):
        spans = chain_spans(M)
        top, low = spans[side][-1], spans[side][0]
        spans[side][-1] = linalg.SpanBasis(top.ncols, [r for r in top.rows if r not in low.rows])
        assert spans[side][-1].dim == 2
        with pytest.raises(linalg.CrossCheckError, match="corner span computations disagree"):
            aa.end_zero_basis(*spans)


def products_corner(M, j1, j2):
    """The corner P_{j1} End(V) P_{j2} as the products P_{j1} E_rc P_{j2}
    over the d^2 matrix units E_rc, flattened."""
    d = M.dim
    P1, P2 = M.idem_mat(j1), M.idem_mat(j2)
    units = (linalg.Mat([{c: ONE} if i == r else {} for i in range(d)], d)
             for r in range(d) for c in range(d))
    return [linalg.mmul(linalg.mmul(P1, E), P2).flat() for E in units]


def test_corner_generators_are_rref_rows_of_the_corner():
    """For every pair (j1, j2) of chain indices, _corner_gens gives rows in
    RREF (ascending pivots, 1 at its pivot and zero at every other pivot)
    that span the same corner as the d^2 products P_{j1} E_rc P_{j2}, on
    plain, skewed and junk-padded modules; corner_identity_check reports
    the dims and verdict of its left side built through M.act."""
    rng = random.Random(24)
    kinds = set()
    for _ in range(30):
        alg, M = gen.rand_approx_module(rng, 7, junk_ok=True)
        kinds.add(kind(M))
        d = M.dim
        cols, rows = chain_spans(M)
        for j1 in range(len(alg.chain)):
            for j2 in range(len(alg.chain)):
                gens = aa._corner_gens(cols[j1], rows[j2])
                pivots = [min(g) for g in gens]
                assert pivots == sorted(set(pivots))
                for g, p in zip(gens, pivots):
                    assert g[p] == ONE and all(g.values())
                    assert not any(q in g for q in pivots if q != p)
                span = linalg.SpanBasis(d * d, gens)
                assert (span.pivots, span.rows) == (pivots, gens)
                assert span.same_span(linalg.SpanBasis(d * d, products_corner(M, j1, j2)))
                left = linalg.SpanBasis(d * d, [
                    M.act(alg.mul(alg.mul(alg.chain[j1], {t: ONE}), alg.chain[j2])).flat()
                    for t in range(alg.dim)])
                right = linalg.SpanBasis(d * d, linalg.subspace_intersection(
                    M.image_span().rows, products_corner(M, j1, j2), d * d))
                rep = aa.corner_identity_check(M, j1, j2)
                assert rep.dims == {"dim_left": left.dim, "dim_right": right.dim}
                assert rep.ok == left.same_span(right)
    assert kinds == {"plain", "skewed", "junk"}


def test_the_top_corner_costs_no_elimination(monkeypatch):
    """End(V)_0 of a module whose chain is its unit alone is the top
    corner's Kronecker rows inserted as they are: it makes no _axpy update
    beyond those that find the RREF bases of the idempotent's column and
    row spaces, also when a skewed basis makes the idempotent a dense
    projection (a junk summand, then a change of basis).  Its d^2 products
    P E_rc P took eliminations there."""
    rng = random.Random(26)
    axpy = linalg._axpy

    def updates(fn):
        calls = [0]

        def counted(*args, **kwargs):
            calls[0] += 1
            return axpy(*args, **kwargs)

        monkeypatch.setattr(linalg, "_axpy", counted)
        fn()
        monkeypatch.undo()
        return calls[0]

    for d in (1, 2, 3):
        alg, M = aa.block_module([d])
        for e in (0, 1, 2):
            T = gen.rand_unimodular(rng, d + e)
            Ti = linalg.mat_inverse(T)
            N = aa.ApproxModule(alg, d + e, [
                linalg.mmul(linalg.mmul(T, linalg.Mat(m.rows + ({},) * e, d + e)), Ti)
                for m in M.mats])
            N.idem_mat(0)
            assert aa.end_zero_basis(*chain_spans(N)).dim == d * d
            assert updates(lambda: aa.end_zero_basis(*chain_spans(N))) == updates(
                lambda: aa._corner_gens(*(s[0] for s in chain_spans(N))))


def test_a_non_member_reports_its_submodule_and_escape():
    """Witness-first membership still returns, for a phi in a corner but
    outside the action image, the corner's tuple module W (which holds the
    tuple) and an escaping pair (w, phi.w) with w in W and phi.w outside;
    a member's phi preserves W, on plain, skewed and junk-padded modules.
    W and the pair are read from the tuple-module cache (see
    oracles.membership); the result itself holds only the verdict and the
    witness."""
    rng = random.Random(25)
    kinds = set()
    for _ in range(30):
        _, M = gen.rand_approx_module(rng, 6, junk_ok=True)
        d = M.dim
        top = M.idem_mat(len(M.algebra.chain) - 1)
        X = linalg.Mat.of([[gen.rand_scalar(rng) for _ in range(d)] for _ in range(d)])
        phi = linalg.mmul(linalg.mmul(top, X), top)
        res = membership(M, phi)
        assert res.member == M.image_span().contains(phi.flat())
        if res.member:
            assert res.escaped is None
            continue
        kinds.add(kind(M))
        W, (row, moved) = res.submodule, res.escaped
        assert res.witness is None and W.contains(res.tuple_vec)
        assert W.contains(row) and not W.contains(moved)
        assert sparse(moved) == linalg.apply(phi, sparse(row))
    assert kinds == {"plain", "skewed", "junk"}


def test_top_corner_witness_needs_no_cutting_down():
    """The top chain idempotent is the algebra's unit, so a top-corner
    witness (the solved coordinates themselves) equals alpha.sol.alpha, on
    plain, skewed and junk-padded modules alike, and acts as phi."""
    rng = random.Random(3)
    kinds = set()
    for _ in range(30):
        alg, M = gen.rand_approx_module(rng, 6, junk_ok=True)
        phi = gen.rand_member_phi(rng, M)
        res = membership(M, phi)
        assert res.member and M.act(res.witness) == phi
        if res.j == len(alg.chain) - 1:
            top, w = alg.chain[-1], sparse(res.witness)
            assert alg.mul(alg.mul(top, w), top) == w
            kinds.add(kind(M))
    assert kinds == {"plain", "skewed", "junk"}


def test_separating_functional_kills_the_image_and_pairs_with_sharp():
    """For hand-built spans image < sharp inside End(V), d = 2 and 3: the
    functional has length d^2, annihilates every image row, and pairs with
    the returned sharp element to the nonzero `pairing`; equal spans have
    none."""
    rng = random.Random(9)
    for _ in range(20):
        d = rng.choice((2, 3))
        units = [mid(d).flat()] + [
            [gen.rand_scalar(rng) if rng.random() < 0.4 else ZERO
             for _ in range(d * d)] for _ in range(d * d)]
        k = rng.randint(1, d * d - 1)
        image = linalg.SpanBasis(d * d, units[:k])
        sharp = linalg.SpanBasis(d * d, units[:k + rng.randint(1, 3)])
        assert sharp.dim > image.dim
        assert aa._separating_functional(image, image) is None
        func = aa._separating_functional(image, sharp)
        f = [parse_scalar(c) for c in func["functional"]]
        s = [parse_scalar(c) for c in func["sharp_element"]]
        assert len(f) == len(s) == d * d
        for row in image.rows:
            assert not sum((x * y for x, y in zip(f, linalg.dense(row, d * d))), ZERO)
        assert sharp.contains(s)
        pairing = sum((x * y for x, y in zip(f, s)), ZERO)
        assert pairing and str(pairing) == func["pairing"]


def test_double_commutant_check_tests_few_entries_for_zero(monkeypatch):
    """The check reads zero-free rows and columns built once: on a
    junk-padded module of dimension 10 (algebra dimension 26) it tests at
    most 14,000 Scalars for zero.  Rescanning dense tuples, as every matrix
    once was, tested 42,057."""
    alg, M = gen.rand_approx_module(random.Random(5), 12, junk_ok=True)
    assert (M.dim, alg.dim) == (10, 26)
    count = [0]
    truth = Scalar.__bool__

    def counted(x):
        count[0] += 1
        return truth(x)

    monkeypatch.setattr(Scalar, "__bool__", counted)
    rep = aa.double_commutant_check(M)
    monkeypatch.undo()
    assert rep.ok
    assert 0 < count[0] <= 14000, count[0]


def test_double_commutant_check_builds_each_span_once(monkeypatch):
    """On the same module, one check inserts at most 750 vectors into
    spans: End(V)_0 comes from the top corner alone, and each corner's
    witnesses from one factorization.  Eliminating every corner and a fresh
    witness system per End^# element inserted 1,499."""
    _, M = gen.rand_approx_module(random.Random(5), 12, junk_ok=True)
    assert (M.dim, M.algebra.dim) == (10, 26)
    count = [0]
    insert = linalg.SpanBasis._insert

    def counted(self, v):
        count[0] += 1
        return insert(self, v)

    monkeypatch.setattr(linalg.SpanBasis, "_insert", counted)
    rep = aa.double_commutant_check(M)
    monkeypatch.undo()
    assert rep.ok
    assert 0 < count[0] <= 750, count[0]


@pytest.mark.parametrize("shape", [(1, 1), (1, 2), (3, 3), (2, 3)])
def test_membership_refuses_an_endomorphism_of_the_wrong_shape(shape):
    _, M = aa.block_module([1, 1])
    phi = [[ONE] * shape[1] for _ in range(shape[0])]
    with pytest.raises(ValueError, match="is %dx%d; the module needs 2x2" % shape):
        aa.end_sharp_membership(M, phi)


def reference_end_sharp(M):
    """End^# as the per-(row, corner matrix) loop computed it: for every
    echelon row w of the top tuple module W and every End(V)_0 basis matrix
    C_i, the residue of C_i w against W, its entries keyed by their free
    columns, gives one constraint row per free column; End^# is their
    nullspace mapped back through the C_i."""
    d = M.dim
    cols, rows = chain_spans(M)
    corner_mats = as_mats(M, aa.end_zero_basis(cols, rows))
    _, W, _ = aa._tuple_module(M, cols[-1], len(cols) - 1, {})
    rows = []
    for wrow in W.rows:
        by_key = {}
        for i, C in enumerate(corner_mats):
            for t, x in W._reduce(linalg.apply(C, wrow)).items():
                by_key.setdefault(t, {})[i] = x
        rows.extend(by_key.values())
    return linalg.SpanBasis(d * d, [
        linalg.mat_sum(((corner_mats[s], c) for s, c in v.items()), d, d).flat()
        for v in linalg.SpanBasis(len(corner_mats), rows).nullspace()])


def test_blockwise_end_sharp_matches_the_per_matrix_residue_loop():
    """The constraints built block by block from the pairings <C_i, sum_b
    f_b w_b^T> give the End^# span of the loop that reduced every product
    C_i w against W: the same echelon rows and pivots, in the same order, on
    60 plain, skewed and junk-padded modules of dimension 2 to 12."""
    rng = random.Random(21)
    kinds, dims = set(), set()
    for k in range(60):
        _, M = gen.rand_approx_module(rng, 2 + k % 11, junk_ok=True)
        kinds.add(kind(M))
        dims.add(M.dim)
        want = reference_end_sharp(M)
        sharp, _ = aa._end_sharp(M, *chain_spans(M), {})
        assert (sharp.pivots, sharp.rows) == (want.pivots, want.rows)
    assert kinds == {"plain", "skewed", "junk"}
    assert min(dims) <= 2 and max(dims) >= 12


def test_end_sharp_maps_no_corner_matrix_through_the_tuple_module(monkeypatch):
    """On four 3x3 blocks, End^# takes at most 100 `apply` calls and 1,500
    reductions, counted through every module that binds `apply`: the tuple
    module's 36 actions and the span inserts.  Applying and reducing each
    of the 144 corner matrices against each of W's 36 rows took 5,220 and
    6,168."""
    _, M = aa.block_module([3, 3, 3, 3])
    counts = {"apply": 0, "reduce": 0}
    apply, reduce = linalg.apply, linalg.SpanBasis._reduce

    def counted_apply(m, v):
        counts["apply"] += 1
        return apply(m, v)

    def counted_reduce(self, v, record=None):
        counts["reduce"] += 1
        return reduce(self, v, record)

    bound = [mod for name, mod in sys.modules.items()
             if name.startswith("jetcalc") and getattr(mod, "apply", None) is apply]
    assert linalg in bound and aa in bound
    for mod in bound:
        monkeypatch.setattr(mod, "apply", counted_apply)
    monkeypatch.setattr(linalg.SpanBasis, "_reduce", counted_reduce)
    sharp, end_zero = aa._end_sharp(M, *chain_spans(M), {})
    monkeypatch.undo()
    assert sharp.dim == 36 and end_zero.dim == 144
    assert 0 < counts["apply"] <= 100, counts
    assert 0 < counts["reduce"] <= 1500, counts


def test_the_corner_index_is_the_least_idempotent_absorbing_phi():
    """The row-by-row corner test agrees with P phi P = phi formed as two
    products, and membership runs at the least j that has it, or refuses
    phi when none does: for End^# basis elements, members, corner cuts
    P_j X P_j of random matrices X and the X themselves, on plain, skewed
    and junk-padded modules.  Every member's witness acts as phi."""
    rng = random.Random(13)
    kinds, found = set(), set()
    for _ in range(30):
        alg, M = gen.rand_approx_module(rng, 6, junk_ok=True)
        kinds.add(kind(M))
        d = M.dim
        idems = [M.idem_mat(j) for j in range(len(alg.chain))]
        members = as_mats(M, aa._end_sharp(M, *chain_spans(M), {})[0]) + [gen.rand_member_phi(rng, M)]
        cuts = []
        for P in idems:
            X = rand_matrix(rng, d, d)
            cuts += [linalg.mmul(linalg.mmul(P, X), P), X]
        for phi in members + cuts:
            absorbs = [linalg.mmul(linalg.mmul(P, phi), P) == phi for P in idems]
            assert [aa._in_corner(P, phi) for P in idems] == absorbs
            want = absorbs.index(True) if any(absorbs) else None
            found.add(want)
            if want is None:
                with pytest.raises(ValueError, match="lies in no chain corner"):
                    aa.end_sharp_membership(M, phi)
                continue
            res = membership(M, phi)
            assert res.j == want
            if phi in members:
                assert res.member and M.act(res.witness) == phi
    assert kinds == {"plain", "skewed", "junk"}
    assert {None, 0, 1, 2} <= found


def test_each_end_sharp_row_gets_the_corner_that_the_row_test_finds():
    """double_commutant_check gives each End^# row the least j whose spans
    col(P_j) and row(P_j) hold its nonzero columns and rows; that is the
    least j that _in_corner accepts, on plain, skewed and junk-padded
    modules of dimension 2 to 12.  So it is for one-sided and two-sided
    cuts P_i X P_k of random matrices X and for the X themselves, which may
    lie in no corner."""
    rng = random.Random(37)
    kinds, dims, corners = set(), set(), set()
    for _ in range(40):
        alg, M = gen.rand_approx_module(rng, 12, junk_ok=True)
        kinds.add(kind(M))
        dims.add(M.dim)
        cols, rows = chain_spans(M)
        sharp = as_mats(M, aa._end_sharp(M, cols, rows, {})[0])
        idems = [M.idem_mat(j) for j in range(len(alg.chain))] + [mid(M.dim)]
        X = linalg.Mat.of(rand_matrix(rng, M.dim, M.dim))
        cuts = [linalg.mmul(linalg.mmul(rng.choice(idems), X), rng.choice(idems))
                for _ in range(4)]
        for phi in sharp + cuts + [X]:
            j = aa._corner(M, lambda j: aa._in_spans(cols[j], rows[j], phi))
            assert j == aa._corner(M, lambda j: aa._in_corner(M.idem_mat(j), phi))
            corners.add((phi in sharp, j))
    assert kinds == {"plain", "skewed", "junk"}
    assert min(dims) <= 3 and max(dims) >= 10
    assert (True, None) not in corners and len({j for _, j in corners}) >= 4


def test_an_end_sharp_element_in_no_corner_is_a_cross_check_failure(monkeypatch):
    """End^# lies in the top corner's span, so a basis element that no
    chain idempotent absorbs is a defect: under a corner search that rejects
    the top corner, double_commutant_check raises CrossCheckError, while
    end_sharp_membership still refuses a caller's phi with a ValueError."""
    _, M = aa.block_module([1, 2])
    top = len(M.algebra.chain) - 1
    corner = aa._corner
    monkeypatch.setattr(aa, "_corner",
                        lambda M, absorbs: corner(M, lambda j: j != top and absorbs(j)))
    with pytest.raises(linalg.CrossCheckError, match="lies in no chain corner"):
        aa.double_commutant_check(M)
    with pytest.raises(ValueError, match="lies in no chain corner"):
        aa.end_sharp_membership(M, mid(3))


def test_a_double_commutant_check_builds_each_idempotent_span_once(monkeypatch):
    """Over the dcomm.main checks of six benchmark rounds at seed 0 (222
    chain idempotents), each double_commutant_check builds a SpanBasis from
    each chain idempotent's columns and from its rows once: 444 builds.
    End(V)_0, the End^# corner search and the tuple modules read those."""
    rounds = load_bench("workloads").WORKLOADS["dcomm"].rounds(0, 6)
    span, check = aa.SpanBasis, aa.double_commutant_check
    sides, builds, idems = [], [], []

    def counted_span(ncols, rows=()):
        builds[-1] += any(rows is side for side in sides)
        return span(ncols, rows)

    def counted_check(M):
        P = [M.idem_mat(j) for j in range(len(M.algebra.chain))]
        sides[:] = [side for p in P for side in (p.cols, p.rows)]
        builds.append(0)
        idems.append(len(P))
        return check(M)

    monkeypatch.setattr(aa, "SpanBasis", counted_span)
    monkeypatch.setattr(aa, "double_commutant_check", counted_check)
    for instances in rounds:
        for inst in instances:
            for check_id, thunk in inst.checks:
                if check_id == "dcomm.main":
                    assert thunk() is True
    assert builds == [2 * n for n in idems]
    assert (sum(idems), sum(builds)) == (222, 444)
