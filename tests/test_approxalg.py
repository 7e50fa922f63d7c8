"""Approximately unital algebras, their modules, and the double commutant."""

import json
import random

import pytest

from jetcalc.scalars import Scalar, ZERO, ONE, sc
from jetcalc import approxalg as aa, gen, linalg
from jetcalc.linalg import mid
from jetcalc.poly import parse_scalar


def test_full_matrix_block_has_commutant_scalars():
    alg, M = aa.block_module([2])
    alg.validate(check_assoc=True)
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
    res = aa.end_sharp_membership(M2, E12)
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
    _, MU = aa.ApproxAlgebra.from_matrix_basis(mats)
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
        before = image.frozen_rows()
        aa.double_commutant_check(M)
        last = len(M.algebra.chain) - 1
        aa.corner_identity_check(M, last, last)
        assert M.image_span() is image
        assert image.frozen_rows() == before
        fresh = linalg.SpanBasis(M.dim * M.dim, [m.flat() for m in M.mats])
        assert image.same_span(fresh)


def test_end_zero_of_a_direct_sum_counts_blockwise_maps():
    _, M3 = aa.block_module([1, 2])
    mats3, span3 = aa.end_zero_basis(M3)
    assert len(mats3) == 9  # 1x1 + 2x2 blocks commute freely: 1 + 4 + 2*2


def test_non_unital_actions_are_rejected_unless_asked_for():
    algJ = aa.ApproxAlgebra.from_blocks([1])
    actJ = [((ONE, ZERO), (ZERO, ZERO))]
    with pytest.raises(ValueError):
        aa.ApproxModule(algJ, 2, actJ)
    MJ = aa.ApproxModule(algJ, 2, actJ, check=False)
    MJ.validate(require_unital=False)
    assert not MJ.is_approx_unital()
    # the dead coordinate forces strict smallness of everything in sight
    matsJ, _ = aa.end_zero_basis(MJ)
    assert len(matsJ) == 1
    repJ = aa.double_commutant_check(MJ)
    assert repJ.ok and repJ.dims["dim_image"] == 1 and repJ.dims["dim_sharp"] == 1


def test_membership_needs_an_absorbing_corner():
    algJ = aa.ApproxAlgebra.from_blocks([1])
    actJ = [((ONE, ZERO), (ZERO, ZERO))]
    MJ = aa.ApproxModule(algJ, 2, actJ, check=False)
    with pytest.raises(ValueError):
        aa.end_sharp_membership(MJ, mid(2))


def test_cyclic_tuple_grids_accept_true_members():
    _, M2 = aa.block_module([1, 1])
    assert aa.submodule_grid_check(M2, M2.act((sc(4), sc(9))), 2) is None
    mats = [mid(2),
            ((ONE, ZERO), (ZERO, ZERO)),
            ((ZERO, ONE), (ZERO, ZERO)),
            ((ZERO, ZERO), (ZERO, ONE))]
    _, MU = aa.ApproxAlgebra.from_matrix_basis(mats)
    assert aa.submodule_grid_check(MU, MU.mats[1], 2) is None
    A1 = aa.ApproxAlgebra(1, {(0, 0): {0: ONE}}, [(ONE,)])
    M1 = aa.ApproxModule(A1, 3, [mid(3)])
    assert aa.submodule_grid_check(M1, mid(3), 3) is None


def test_rejection_comes_with_an_escape_certificate():
    _, M2 = aa.block_module([1, 1])
    E12 = ((ZERO, ONE), (ZERO, ZERO))
    res = aa.end_sharp_membership(M2, E12)
    assert not res.member
    row, moved = res.escaped
    # the cyclic tuple module contains the row but loses its image under E12
    W = aa.generated_tuple_module(M2, res.tuple_vec, len(res.tuple_vec) // 2)
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
        assert (N.dim, N.mats, N.is_approx_unital()) == \
            (M.dim, M.mats, M.is_approx_unital())
        kinds.add(M.is_approx_unital())
    assert kinds == {True, False}


def test_module_json_with_a_non_multiplicative_action_is_refused():
    _, M = aa.block_module([2])
    data = json.loads(M.to_json())
    data["action"][0][0] = "2/1+0/1*i"  # E11 no longer acts as an idempotent
    with pytest.raises(ValueError, match="not multiplicative"):
        aa.ApproxModule.from_json(json.dumps(data))


def test_module_json_bounds_its_sizes_before_parsing(monkeypatch):
    """A module above MAX_MODULE_DIM or an algebra basis above
    MAX_ALGEBRA_DIM is refused before any entry is parsed; at the bounds
    the loader reaches the entries."""
    class Parsed(Exception):
        pass

    def refuse(text):
        raise Parsed(text)

    monkeypatch.setattr(aa, "parse_scalar", refuse)

    def text(dim, nbasis):
        return json.dumps({"basis": ["e%d" % i for i in range(nbasis)],
                           "structure_constants": {"0,0": {"0": "1"}},
                           "idempotent_chain": [["1"] * nbasis], "dim": dim,
                           "action": [["0"] * (dim * dim)] * nbasis})

    assert (aa.MAX_MODULE_DIM, aa.MAX_ALGEBRA_DIM) == (14, 36)
    for dim, nbasis, what in ((15, 1, "module dimension 15"),
                              (100, 1, "module dimension 100"),
                              (True, 1, "module dimension True"),
                              (-1, 1, "module dimension -1"),
                              (2, 37, "37 elements")):
        with pytest.raises(ValueError, match=what):
            aa.ApproxModule.from_json(text(dim, nbasis))
    for dim, nbasis in ((14, 36), (0, 1), (2, 1)):
        with pytest.raises(Parsed):
            aa.ApproxModule.from_json(text(dim, nbasis))


def test_algebra_axioms_are_enforced():
    with pytest.raises(ValueError):
        aa.ApproxAlgebra(1, {(0, 0): {0: ONE}}, [(sc(2),)])  # not idempotent
    bad_sc = {(0, 0): {0: ONE}, (1, 1): {1: ONE}}  # two orthogonal idempotents
    with pytest.raises(ValueError):
        aa.ApproxAlgebra(2, bad_sc, [(ONE, ZERO)])  # chain misses the second


def test_witness_system_drops_only_rows_that_read_zero_equals_zero():
    rng = random.Random(5)
    for _ in range(20):
        size, dim = 10, 4
        live = set(rng.sample(range(size), 5))
        acts = [[gen.rand_scalar(rng) if s in live else ZERO
                 for s in range(size)] for _ in range(dim)]
        x = [gen.rand_scalar(rng) for _ in range(dim)]
        rhs = [sum((a[s] * c for a, c in zip(acts, x)), ZERO)
               for s in range(size)]
        full = [[a[s] for a in acts] for s in range(size)]
        sparse_acts = [linalg.sparse(a) for a in acts]
        rows, b = aa._witness_system(sparse_acts, linalg.sparse(rhs))
        assert len(rows) <= len(live)
        assert all(r or c for r, c in zip(rows, b))
        assert linalg.solve(rows, b, dim) == linalg.solve(full, rhs)
        # a nonzero right-hand side where every action vanishes: refused
        dead = min(set(range(size)) - live)
        rhs[dead] = ONE
        assert linalg.solve(full, rhs) is None
        assert linalg.solve(*aa._witness_system(sparse_acts,
                                                linalg.sparse(rhs)), dim) is None


def test_top_corner_witness_needs_no_cutting_down():
    """The top chain idempotent is the algebra's unit, so a top-corner
    witness (the solved coordinates themselves) equals alpha.sol.alpha, on
    plain, skewed and junk-padded modules alike, and acts as phi."""
    rng = random.Random(3)
    kinds = set()
    for _ in range(30):
        alg, M = gen.rand_approx_module(rng, 6, junk_ok=True)
        phi = gen.rand_member_phi(rng, M)
        res = aa.end_sharp_membership(M, phi)
        assert res.member and M.act(res.witness) == phi
        if res.j == len(alg.chain) - 1:
            top = alg.chain[-1]
            assert alg.mul(alg.mul(top, res.witness), top) == res.witness
            entries = sum(1 for m in M.mats for row in m for x in row if x)
            kinds.add("junk" if not M.is_approx_unital()
                      else "skewed" if entries > alg.dim else "plain")
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
        for row in image.frozen_rows():
            assert not sum((x * y for x, y in zip(f, row)), ZERO)
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
