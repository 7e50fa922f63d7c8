"""Exact linear algebra against an independent oracle: sympy's DomainMatrix
over the Gaussian rationals QQ_I.

Matrices come in two kinds: dense random Q(i) entries (with some forced
rank deficiency), and sparse sums of matrix units, the shape the
double-commutant spans take.
"""

import random
from fractions import Fraction

import pytest

from jetcalc import linalg
from jetcalc.linalg import SpanBasis
from jetcalc.scalars import Scalar, ZERO

sympy = pytest.importorskip("sympy")
from sympy.polys.matrices import DomainMatrix  # noqa: E402

QQ, QQ_I = sympy.QQ, sympy.QQ_I

SEEDS = range(12)


def rand_scalar(rng, zero_p=0.2):
    if rng.random() < zero_p:
        return ZERO
    d = rng.randint(1, 4)
    return Scalar(Fraction(rng.randint(-5, 5), d), Fraction(rng.randint(-3, 3), d))


def dense_matrix(rng, r, c):
    rows = [[rand_scalar(rng) for _ in range(c)] for _ in range(r)]
    if r > 1 and rng.random() < 0.5:
        # force a dependent row
        a, b = rand_scalar(rng, 0), rand_scalar(rng, 0)
        rows[-1] = [a * x + b * y for x, y in zip(rows[0], rows[1 % r])]
    return rows


def sparse_matrix(rng, r, c):
    """A sum of a few scaled matrix units, sometimes with a repeated row."""
    rows = [[ZERO] * c for _ in range(r)]
    for _ in range(rng.randint(1, r + c)):
        i, j = rng.randrange(r), rng.randrange(c)
        rows[i][j] = rows[i][j] + rand_scalar(rng, 0)
    if r > 1 and rng.random() < 0.5:
        rows[rng.randrange(1, r)] = list(rows[0])
    return rows


def matrices(seed):
    rng = random.Random(seed)
    out = []
    for kind in (dense_matrix, sparse_matrix):
        for _ in range(3):
            out.append(kind(rng, rng.randint(1, 7), rng.randint(1, 7)))
    return out


def square_matrices(seed):
    rng = random.Random(1000 + seed)
    out = []
    for kind in (dense_matrix, sparse_matrix):
        for _ in range(3):
            n = rng.randint(1, 6)
            m = kind(rng, n, n)
            if kind is sparse_matrix and rng.random() < 0.5:
                # a permuted scaled diagonal plus units: often invertible
                perm = list(range(n))
                rng.shuffle(perm)
                for i, j in enumerate(perm):
                    m[i][j] = m[i][j] + rand_scalar(rng, 0)
            out.append(m)
    return out


def to_qqi(x):
    return QQ_I(QQ(x.a, x.den), QQ(x.b, x.den))


def from_qqi(z):
    return Scalar(Fraction(int(z.x.numerator), int(z.x.denominator)),
                  Fraction(int(z.y.numerator), int(z.y.denominator)))


def oracle(rows, ncols):
    return DomainMatrix([[to_qqi(x) for x in r] for r in rows],
                        (len(rows), ncols), QQ_I)


def combine(coeffs, rows, ncols):
    return [sum((c * r[j] for c, r in zip(coeffs, rows)), ZERO) for j in range(ncols)]


def sympy_rref(rows, ncols):
    """(nonzero rows, pivot columns) of sympy's RREF, as Scalars."""
    red, piv = oracle(rows, ncols).rref()
    return ([[from_qqi(z) for z in r] for r in red.to_list()[:len(piv)]],
            list(piv))


def assert_rows_are_sparse(sb):
    """Every echelon row is a zero-free dict whose least key is its pivot."""
    assert len(sb.pivots) == len(sb.rows)
    for row, p in zip(sb.rows, sb.pivots):
        assert isinstance(row, dict) and all(row.values()) and min(row) == p


def echelon(sb):
    return [list(r) for r in sb.frozen_rows()]


@pytest.mark.parametrize("seed", SEEDS)
def test_rank_and_rref_match_sympy(seed):
    for rows in matrices(seed):
        ncols = len(rows[0])
        sb = SpanBasis(ncols, rows)
        assert linalg.rank(rows) == oracle(rows, ncols).rank() == sb.dim
        assert (echelon(sb), sb.pivots) == sympy_rref(rows, ncols)


@pytest.mark.parametrize("seed", SEEDS)
def test_nullspace_has_the_right_dimension_and_is_annihilated(seed):
    for rows in matrices(seed):
        ncols = len(rows[0])
        basis = linalg.nullspace(rows, ncols)
        assert len(basis) == ncols - oracle(rows, ncols).rank()
        for x in basis:
            assert not any(linalg.mat_vec(rows, x))
        if basis:
            assert linalg.rank(basis) == len(basis)
            # the same space as sympy's nullspace
            want = [[from_qqi(z) for z in r]
                    for r in oracle(rows, ncols).nullspace().to_list()]
            assert oracle([list(x) for x in basis] + want, ncols).rank() == len(basis)


@pytest.mark.parametrize("seed", SEEDS)
def test_solve_finds_solutions_exactly_when_sympy_says_consistent(seed):
    rng = random.Random(2000 + seed)
    for rows in matrices(seed):
        ncols = len(rows[0])
        x0 = [rand_scalar(rng) for _ in range(ncols)]
        rhs = list(linalg.mat_vec(rows, x0))
        x = linalg.solve(rows, rhs)
        assert x is not None and list(linalg.mat_vec(rows, x)) == rhs
        other = [rand_scalar(rng) for _ in rows]
        aug = [list(r) + [b] for r, b in zip(rows, other)]
        consistent = (oracle(aug, ncols + 1).rank() == oracle(rows, ncols).rank())
        y = linalg.solve(rows, other)
        assert (y is not None) == consistent
        if y is not None:
            assert list(linalg.mat_vec(rows, y)) == other


@pytest.mark.parametrize("seed", SEEDS)
def test_solve_reads_sparse_rows_given_the_column_count(seed):
    """Zero-free dict rows with the column count solve as their dense rows
    do, consistent or not, including rows that are empty."""
    rng = random.Random(3000 + seed)
    for rows in matrices(seed):
        ncols = len(rows[0])
        for rhs in (list(linalg.mat_vec(rows, [rand_scalar(rng) for _ in range(ncols)])),
                    [rand_scalar(rng) for _ in rows]):
            assert (linalg.solve([linalg.sparse(r) for r in rows], rhs, ncols)
                    == linalg.solve(rows, rhs))


@pytest.mark.parametrize("seed", SEEDS)
def test_det_and_inverse_match_sympy(seed):
    for mat in square_matrices(seed):
        n = len(mat)
        want = oracle(mat, n)
        if not want.det():
            with pytest.raises(ValueError):
                linalg.mat_inverse(mat)
            continue
        inv = linalg.mat_inverse(mat)
        assert inv == tuple(tuple(from_qqi(z) for z in r) for r in want.inv().to_list())
        assert linalg.mmul(linalg.freeze(mat), inv) == linalg.mid(n)


@pytest.mark.parametrize("seed", SEEDS)
def test_span_basis_is_the_rref_and_keeps_true_supports(seed):
    rng = random.Random(3000 + seed)
    for rows in matrices(seed):
        ncols = len(rows[0])
        sb = SpanBasis(ncols)
        for i, r in enumerate(rows):
            grew = sb.add(r)
            assert grew == (linalg.rank(rows[:i + 1]) > linalg.rank(rows[:i]))
            assert_rows_are_sparse(sb)
        assert (echelon(sb), sb.pivots) == sympy_rref(rows, ncols)
        # a combination of the inputs is a member, and its coordinates
        # against the echelon rows rebuild it
        inside = combine([rand_scalar(rng) for _ in rows], rows, ncols)
        assert sb.contains(inside)
        assert combine(sb.coords(inside), sb.frozen_rows(), ncols) == inside
        probe = [rand_scalar(rng) for _ in range(ncols)]
        assert (sb.coords(probe) is not None) == sb.contains(probe)


@pytest.mark.parametrize("seed", SEEDS)
def test_subspace_intersection_matches_sympy_ranks(seed):
    """dim(A n B) = dim A + dim B - dim(A + B), and every returned row lies
    in both spans, on dense and matrix-unit inputs, all ranks by sympy."""
    rng = random.Random(4000 + seed)
    for kind in (dense_matrix, sparse_matrix):
        for _ in range(3):
            ncols = rng.randint(1, 7)
            a = kind(rng, rng.randint(1, 5), ncols)
            b = kind(rng, rng.randint(1, 5), ncols)
            if rng.random() < 0.5:
                # a shared vector, so the intersection is often nonzero
                b.append(combine([rand_scalar(rng) for _ in a], a, ncols))
            got = [list(r) for r in linalg.subspace_intersection(a, b, ncols)]
            ra, rb = oracle(a, ncols).rank(), oracle(b, ncols).rank()
            assert len(got) == ra + rb - oracle(a + b, ncols).rank()
            for row in got:
                assert oracle(a + [row], ncols).rank() == ra
                assert oracle(b + [row], ncols).rank() == rb
            if got:  # returned in RREF
                assert sympy_rref(got, ncols)[0] == got


def test_rows_read_before_an_add_are_not_modified():
    sb = SpanBasis(3)
    one = Scalar(1)
    sb.add([one, one, ZERO])
    before = sb.rows[0]
    snapshot = dict(before)
    sb.add([ZERO, one, one])  # reduces the first row against the new pivot
    assert before == snapshot
    assert sb.rows[0] != snapshot
    assert_rows_are_sparse(sb)


def dense_mat_vec(a, v):
    """The dense matrix-vector arithmetic, row by row over every entry."""
    return tuple(sum((x * y for x, y in zip(row, v)), ZERO) for row in a)


@pytest.mark.parametrize("seed", SEEDS)
def test_apply_to_one_block_is_the_dense_matrix_vector_product(seed):
    rng = random.Random(5000 + seed)
    for a in matrices(seed):  # some of them non-square
        ncols = len(a[0])
        for kind in (dense_matrix, sparse_matrix):
            v = kind(rng, 1, ncols)[0]
            got = linalg.apply(linalg.columns(a), linalg.sparse(v), ncols)
            assert linalg.dense(got, len(a)) == dense_mat_vec(a, v)
            assert linalg.mat_vec(a, v) == dense_mat_vec(a, v)


@pytest.mark.parametrize("seed", SEEDS)
def test_apply_to_n_blocks_is_the_block_diagonal_product(seed):
    rng = random.Random(6000 + seed)
    for m in square_matrices(seed):
        d, n = len(m), rng.randint(1, 4)
        for kind in (dense_matrix, sparse_matrix):
            v = kind(rng, 1, n * d)[0]
            got = linalg.apply(linalg.columns(m), linalg.sparse(v), d)
            assert linalg.dense(got, n * d) == dense_mat_vec(
                linalg.block_diag([m] * n), v)


@pytest.mark.parametrize("seed", SEEDS)
def test_apply_by_the_transpose_is_right_multiplication(seed):
    """Row r of X g is g^T applied to row r of X, so X g flattened is g^T
    applied to every block of X flattened."""
    rng = random.Random(7000 + seed)
    for g in square_matrices(seed):
        n = len(g)
        for kind in (dense_matrix, sparse_matrix):
            X = linalg.freeze(kind(rng, n, n))
            gt = tuple(zip(*g))
            got = linalg.apply(linalg.columns(gt), linalg.sparse(linalg.flatten(X)), n)
            assert linalg.dense(got, n * n) == linalg.flatten(linalg.mmul(X, g))


@pytest.mark.parametrize("seed", SEEDS)
def test_insert_ignores_explicit_zeros_and_keeps_rows_zero_free(seed):
    """A dict with an explicit zero below its true pivot inserts exactly as
    the dense vector adds."""
    rng = random.Random(8000 + seed)
    for rows in matrices(seed):
        ncols = len(rows[0])
        by_dict, by_add = SpanBasis(ncols), SpanBasis(ncols)
        for r in rows:
            v = linalg.sparse(r)
            lead = min(v, default=ncols)
            if lead:
                v[rng.randrange(lead)] = ZERO
            assert by_dict.insert(v) == by_add.add(r)
            assert_rows_are_sparse(by_dict)
        assert by_dict.pivots == by_add.pivots
        assert by_dict.rows == by_add.rows
        assert (echelon(by_dict), by_dict.pivots) == sympy_rref(rows, ncols)
