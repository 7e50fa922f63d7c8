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


def assert_supports_match(sb):
    assert len(sb.supports) == len(sb.rows)
    for row, supp in zip(sb.rows, sb.supports):
        assert supp == [j for j, x in enumerate(row) if x]


@pytest.mark.parametrize("seed", SEEDS)
def test_rank_and_rref_match_sympy(seed):
    for rows in matrices(seed):
        ncols = len(rows[0])
        want_red, want_piv = oracle(rows, ncols).rref()
        red, piv = linalg.rref(rows)
        assert linalg.rank(rows) == oracle(rows, ncols).rank() == len(piv)
        assert tuple(piv) == tuple(want_piv)
        want_rows = [[from_qqi(z) for z in r] for r in want_red.to_list()[:len(piv)]]
        assert red == want_rows


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
def test_det_and_inverse_match_sympy(seed):
    for mat in square_matrices(seed):
        n = len(mat)
        want = oracle(mat, n)
        assert linalg.det(mat) == from_qqi(want.det())
        if want.rank() < n:
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
            assert_supports_match(sb)
        red, piv = linalg.rref(rows)
        assert sb.rows == red and sb.pivots == piv
        # a combination of the inputs is a member, and its coordinates
        # against the echelon rows rebuild it
        inside = combine([rand_scalar(rng) for _ in rows], rows, ncols)
        assert sb.contains(inside)
        assert combine(sb.coords(inside), sb.rows, ncols) == inside
        probe = [rand_scalar(rng) for _ in range(ncols)]
        assert (sb.coords(probe) is not None) == sb.contains(probe)


def test_rows_read_before_an_add_are_not_modified():
    sb = SpanBasis(3)
    one = Scalar(1)
    sb.add([one, one, ZERO])
    before = sb.rows[0]
    snapshot = list(before)
    sb.add([ZERO, one, one])  # reduces the first row against the new pivot
    assert before == snapshot
    assert sb.rows[0] != snapshot
    assert_supports_match(sb)
