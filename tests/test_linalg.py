"""Exact linear algebra against an independent oracle: sympy's DomainMatrix
over the Gaussian rationals QQ_I.

Matrices come in two kinds: dense random Q(i) entries (with some forced
rank deficiency), and sparse sums of matrix units, the shape the
double-commutant spans take.
"""

import random
from fractions import Fraction
from math import gcd

import pytest

from jetcalc import approxalg, gen, linalg, scalars
from jetcalc.linalg import Mat, SpanBasis, CrossCheckError
from jetcalc.scalars import Scalar, ZERO, ONE

sympy = pytest.importorskip("sympy")
from sympy.polys.matrices import DomainMatrix  # noqa: E402

from qqi import QQ_I, from_qqi, to_qqi, to_sympy  # noqa: E402
from probe import probe, work  # noqa: E402

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


def of(m, ncols):
    """The Mat of the nested sequence m, ncols wide also without rows."""
    return Mat([linalg.sparse(row) for row in m], ncols)


def combine(coeffs, rows, ncols):
    return [sum((c * r[j] for c, r in zip(coeffs, rows)), ZERO) for j in range(ncols)]


def sympy_rref(rows, ncols):
    """(nonzero rows, pivot columns) of sympy's RREF, as Scalars."""
    red, piv = to_sympy(rows, ncols).rref()
    return ([[from_qqi(z) for z in r] for r in red.to_list()[:len(piv)]],
            list(piv))


def assert_rows_are_sparse(sb):
    """Every echelon row is a zero-free dict whose least key is its pivot."""
    assert len(sb.pivots) == len(sb.rows)
    for row, p in zip(sb.rows, sb.pivots):
        assert isinstance(row, dict) and all(row.values()) and min(row) == p


def echelon(sb):
    return [list(linalg.dense(r, sb.ncols)) for r in sb.rows]


@pytest.mark.parametrize("seed", SEEDS)
def test_rank_and_rref_match_sympy(seed):
    for rows in matrices(seed):
        ncols = len(rows[0])
        sb = SpanBasis(ncols, rows)
        assert to_sympy(rows, ncols).rank() == sb.dim
        assert (echelon(sb), sb.pivots) == sympy_rref(rows, ncols)
        assert linalg.rref(rows) == (tuple(map(tuple, echelon(sb))), sb.pivots)


@pytest.mark.parametrize("seed", SEEDS)
def test_nullspace_has_the_right_dimension_and_is_annihilated(seed):
    for rows in matrices(seed):
        ncols = len(rows[0])
        basis = linalg.nullspace(rows, ncols)
        assert len(basis) == ncols - to_sympy(rows, ncols).rank()
        for x in basis:
            assert not any(linalg.mat_vec(rows, x))
        if basis:
            assert to_sympy(basis, ncols).rank() == len(basis)
            # the same space as sympy's nullspace
            want = [[from_qqi(z) for z in r]
                    for r in to_sympy(rows, ncols).nullspace().to_list()]
            assert to_sympy([list(x) for x in basis] + want, ncols).rank() == len(basis)


def columns(rows, ncols):
    """The columns of a matrix given by dense rows, as zero-free dicts."""
    return [linalg.sparse([r[j] for r in rows]) for j in range(ncols)]


def lincomb(pairs):
    """The zero-free sum of c v over the pairs (c, v) of sparse vectors."""
    acc = {}
    for c, v in pairs:
        for s, y in v.items():
            acc[s] = acc.get(s, ZERO) + c * y
    return linalg.sparse(acc)


def solves(vecs, x, v):
    """x, a zero-free dict, combines the sparse vectors vecs into v."""
    assert all(x.values()) and all(0 <= t < len(vecs) for t in x)
    return lincomb((c, vecs[t]) for t, c in x.items()) == v


@pytest.mark.parametrize("seed", SEEDS)
def test_solve_finds_solutions_exactly_when_sympy_says_consistent(seed):
    """The factor-once solver of A x = b (its vectors the columns of A)
    solves every b in the column space and refuses the others, as sympy's
    ranks of A and [A | b] say, with one factorization for all of them."""
    rng = random.Random(2000 + seed)
    for rows in matrices(seed):
        ncols = len(rows[0])
        vecs = columns(rows, ncols)
        _, solve = linalg.solver(vecs, len(rows))
        for _ in range(3):
            x0 = [rand_scalar(rng) for _ in range(ncols)]
            rhs = linalg.sparse(linalg.mat_vec(rows, x0))
            assert solves(vecs, solve(rhs), rhs)
            other = [rand_scalar(rng) for _ in rows]
            aug = [list(r) + [b] for r, b in zip(rows, other)]
            consistent = (to_sympy(aug, ncols + 1).rank() == to_sympy(rows, ncols).rank())
            y = solve(linalg.sparse(other))
            assert (y is not None) == consistent
            assert y is None or solves(vecs, y, linalg.sparse(other))


@pytest.mark.parametrize("seed", SEEDS)
def test_solve_reads_sparse_rows_given_the_column_count(seed):
    """The solver reads zero-free dict vectors given their length, as the
    action vectors of a junk-padded module come: some empty, some repeated
    or combined from others.  Every combination of them solves; a vector
    with an entry where every one of them is zero, or off their span, is
    refused."""
    rng = random.Random(3000 + seed)
    for rows in matrices(seed):
        ncols = len(rows[0])
        vecs = columns(rows, ncols)
        vecs += [{}, dict(vecs[0]), lincomb([(rand_scalar(rng, 0), vecs[0]),
                                             (rand_scalar(rng, 0), vecs[-1])])]
        vecs = [{s + 1: y for s, y in v.items()} for v in vecs]  # coordinate 0 is dead
        n = len(rows) + 1
        _, solve = linalg.solver(vecs, n)
        assert solve({}) == {}
        for _ in range(3):
            rhs = lincomb((rand_scalar(rng), v) for v in vecs)
            assert solves(vecs, solve(rhs), rhs)
            assert solve({**rhs, 0: rand_scalar(rng, 0)}) is None
            dense_vecs = [linalg.dense(v, n) for v in vecs]
            other = [ZERO] + [rand_scalar(rng) for _ in rows]
            aug = [list(col) for col in zip(*dense_vecs, other)]
            consistent = (to_sympy(aug, len(vecs) + 1).rank()
                          == to_sympy([r[:-1] for r in aug], len(vecs)).rank())
            y = solve(linalg.sparse(other))
            assert (y is not None) == consistent
            assert y is None or solves(vecs, y, linalg.sparse(other))


@pytest.mark.parametrize("seed", SEEDS)
def test_solver_span_is_the_span_basis_of_its_vectors(seed):
    """The span the solver returns, read off its one elimination, has the
    rows and pivots of SpanBasis(ncols, vecs), also when the vectors
    include empty, repeated and combined ones or none at all."""
    rng = random.Random(4000 + seed)
    for rows in matrices(seed):
        ncols = len(rows[0])
        vecs = columns(rows, ncols)
        vecs += [{}, dict(vecs[-1]), lincomb([(rand_scalar(rng, 0), vecs[0]),
                                              (rand_scalar(rng, 0), vecs[-1])])]
        rng.shuffle(vecs)
        for some in (vecs, vecs[:1], []):
            span, _ = linalg.solver(some, len(rows))
            want = SpanBasis(len(rows), some)
            assert (span.pivots, span.rows) == (want.pivots, want.rows)
            assert span.ncols == len(rows)


@pytest.mark.parametrize("seed", SEEDS)
def test_the_solver_gives_the_same_rows_and_solutions_with_zero_vectors(seed):
    """Zero vectors, which the solver leaves out of its elimination, change
    neither the span's rows nor any solution: with empty vectors interleaved,
    each solution is the one without them at the shifted indices."""
    rng = random.Random(5000 + seed)
    for rows in matrices(seed):
        vecs = columns(rows, len(rows[0]))
        padded, at = [], []  # at[t]: the index of vecs[t] among the padded
        for v in vecs:
            padded += [{}] * rng.randint(0, 2)
            at.append(len(padded))
            padded.append(v)
        padded.append({})
        span, solve = linalg.solver(vecs, len(rows))
        pspan, psolve = linalg.solver(padded, len(rows))
        assert (pspan.pivots, pspan.rows) == (span.pivots, span.rows)
        for _ in range(3):
            rhs = lincomb((rand_scalar(rng), v) for v in vecs)
            other = linalg.sparse([rand_scalar(rng) for _ in rows])
            for v in (rhs, other, {}):
                x = solve(v)
                assert psolve(v) == (None if x is None else {at[t]: c for t, c in x.items()})


@pytest.mark.parametrize("seed", SEEDS)
def test_det_and_inverse_match_sympy(seed):
    for mat in square_matrices(seed):
        n = len(mat)
        want = to_sympy(mat, n)
        if not want.det():
            with pytest.raises(ValueError):
                linalg.mat_inverse(mat)
            continue
        inv = linalg.mat_inverse(mat)
        assert inv == as_scalars(want.inv())
        assert linalg.mmul(mat, inv) == linalg.mid(n)


@pytest.mark.parametrize("seed", SEEDS)
def test_span_basis_is_the_rref_and_keeps_true_supports(seed):
    rng = random.Random(3000 + seed)
    for rows in matrices(seed):
        ncols = len(rows[0])
        sb = SpanBasis(ncols)
        for i, r in enumerate(rows):
            grew = sb.add(r)
            assert grew == (to_sympy(rows[:i + 1], ncols).rank() > to_sympy(rows[:i], ncols).rank())
            assert_rows_are_sparse(sb)
        assert (echelon(sb), sb.pivots) == sympy_rref(rows, ncols)
        # a combination of the inputs is a member, and its coordinates
        # against the echelon rows rebuild it
        inside = combine([rand_scalar(rng) for _ in rows], rows, ncols)
        assert sb.contains(inside)
        coords = sb.coords(inside)
        assert all(coords.values())
        assert combine(linalg.dense(coords, sb.dim), echelon(sb), ncols) == inside
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
            got = [list(linalg.dense(r, ncols))
                   for r in linalg.subspace_intersection(a, b, ncols)]
            ra, rb = to_sympy(a, ncols).rank(), to_sympy(b, ncols).rank()
            assert len(got) == ra + rb - to_sympy(a + b, ncols).rank()
            for row in got:
                assert to_sympy(a + [row], ncols).rank() == ra
                assert to_sympy(b + [row], ncols).rank() == rb
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


def test_a_residue_that_keeps_a_pivot_raises_a_cross_check_error(monkeypatch):
    """With a _reduce that returns its input, a second row with the same
    pivot is refused as a defect instead of being filed under that pivot."""
    sb = SpanBasis(3)
    monkeypatch.setattr(SpanBasis, "_reduce", lambda self, v, record=None: dict(v))
    assert sb.add([1, 2, 0])
    with pytest.raises(CrossCheckError, match="pivot 0"):
        sb.add([1, 0, 1])
    assert sb.pivots == [0] and sb.rows == [{0: Scalar(1), 1: Scalar(2)}]


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
            got = linalg.apply(linalg.Mat.of(a), linalg.sparse(v))
            assert linalg.dense(got, len(a)) == dense_mat_vec(a, v)
            assert linalg.mat_vec(a, v) == dense_mat_vec(a, v)


def test_mat_vec_refuses_a_vector_of_another_width():
    """apply reads a vector longer than the matrix as stacked blocks, so
    mat_vec checks the width: a 3 x 1 matrix and (0, 1) would read as
    (0, 1, 0)."""
    for a, v in (([[1], [0], [0]], (0, 1)), ([[1, 2]], (1,)), ((), (1,))):
        with pytest.raises(ValueError, match="width"):
            linalg.mat_vec(a, v)


@pytest.mark.parametrize("seed", SEEDS)
def test_apply_to_n_blocks_is_the_block_diagonal_product(seed):
    rng = random.Random(6000 + seed)
    for m in square_matrices(seed):
        d, n = len(m), rng.randint(1, 4)
        for kind in (dense_matrix, sparse_matrix):
            v = kind(rng, 1, n * d)[0]
            got = linalg.apply(linalg.Mat.of(m), linalg.sparse(v))
            big = linalg.block_diag([m] * n)
            assert linalg.dense(got, n * d) == dense_mat_vec(
                [linalg.dense(row, n * d) for row in big.rows], v)


@pytest.mark.parametrize("seed", SEEDS)
def test_apply_by_the_transpose_is_right_multiplication(seed):
    """Row r of X g is g^T applied to row r of X, so X g flattened is g^T
    applied to every block of X flattened."""
    rng = random.Random(7000 + seed)
    for g in square_matrices(seed):
        n = len(g)
        for kind in (dense_matrix, sparse_matrix):
            X = linalg.Mat.of(kind(rng, n, n))
            gt = of(tuple(zip(*g)), n)
            got = linalg.apply(gt, X.flat())
            assert got == linalg.mmul(X, g).flat()


def test_escape_is_none_exactly_when_every_row_maps_into_the_span():
    """escape(m) is None exactly when a per-row contains loop finds the span
    invariant under m; otherwise it is the first span row whose image leaves
    the span, with that image apply(m, row).  Spans closed under m by
    close_span are invariant."""
    rng = random.Random(8000)
    verdicts = []
    for seed in SEEDS:
        for m in map(linalg.Mat.of, square_matrices(seed)):
            n = m.ncols
            for kind in (dense_matrix, sparse_matrix):
                seeds = kind(rng, rng.randint(1, n), n)
                for span in (SpanBasis(n, seeds), linalg.close_span(n, seeds[:1], [m])):
                    inside = [span.contains(linalg.apply(m, row)) for row in span.rows]
                    got = span.escape(m)
                    assert (got is None) == all(inside)
                    if got is not None:
                        row, moved = got
                        i = inside.index(False)
                        assert row is span.rows[i] and moved == linalg.apply(m, row)
                        assert not span.contains(moved)
                    verdicts.append(all(inside))
    assert 0.1 < sum(verdicts) / len(verdicts) < 0.9


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
            assert by_dict.add(v) == by_add.add(r)
            assert_rows_are_sparse(by_dict)
        assert by_dict.pivots == by_add.pivots
        assert by_dict.rows == by_add.rows
        assert (echelon(by_dict), by_dict.pivots) == sympy_rref(rows, ncols)


# --- the one matrix type against the oracle ----------------------------------

from hypothesis import example, given, settings, strategies as st  # noqa: E402

gaussian = st.builds(lambda a, b, d: Scalar(Fraction(a, d), Fraction(b, d)),
                     st.integers(-4, 4), st.integers(-2, 2), st.integers(1, 3))


@st.composite
def gaussian_matrices(draw, nrows, ncols):
    """Gaussian-rational rows, often with an all-zero row or column."""
    rows = [[draw(st.one_of(st.just(ZERO), gaussian)) for _ in range(ncols)]
            for _ in range(nrows)]
    if nrows and draw(st.booleans()):
        rows[draw(st.integers(0, nrows - 1))] = [ZERO] * ncols
    if ncols and draw(st.booleans()):
        c = draw(st.integers(0, ncols - 1))
        for row in rows:
            row[c] = ZERO
    return rows


sizes = st.integers(0, 4)


def as_scalars(dm):
    """The Mat of a DomainMatrix."""
    return of([[from_qqi(z) for z in r] for r in dm.to_list()], dm.shape[1])


def assert_zero_free(m):
    assert len(m.rows) == m.nrows
    for row in m.rows:
        assert all(row.values()) and all(0 <= c < m.ncols for c in row)


@settings(max_examples=80, deadline=None)
@given(st.data(), sizes, sizes)
def test_a_mat_reads_as_its_dense_rows(data, r, c):
    """Round trip, shape, flat form and transpose, and equality and hashing
    with the Mat of its rows built in another entry order, for every shape
    down to 0 x 0."""
    rows = data.draw(gaussian_matrices(r, c))
    dense_rows = tuple(map(tuple, rows))
    m = of(rows, c)
    assert_zero_free(m)
    assert (m.nrows, m.ncols) == (r, c)
    assert tuple(m) == dense_rows
    assert tuple(linalg.dense(row, c) for row in m.rows) == dense_rows
    reordered = Mat([dict(reversed(row.items())) for row in m.rows], c)
    assert m == reordered and hash(m) == hash(reordered)
    assert Mat.from_flat(m.flat(), r, c) == m
    assert m.flat() == linalg.sparse([x for row in rows for x in row])
    assert m.T == of([[rows[i][j] for i in range(r)] for j in range(c)], r)
    assert m.T.T == m and [dict(col) for col in m.cols] == list(m.T.rows)
    if r and c:
        bumped = [list(row) for row in rows]
        bumped[0][0] = bumped[0][0] + Scalar(1)
        assert m != Mat.of(bumped)


def test_a_mat_equals_only_a_mat_of_its_shape():
    """Equality and hashing read the shape and the row dicts: a Mat equals
    the Mat of the same literal, not a Mat of another shape or entry, and
    not the literal itself."""
    one = Scalar(1)
    literal = ((one, ZERO), (ZERO, ZERO))
    m = Mat.of(literal)
    assert m == Mat.of(literal) and m != Mat.of(((one, ZERO),))
    assert m != Mat.of(((ZERO, one), (ZERO, ZERO)))
    assert m != Mat.of(((one, ZERO, ZERO), (ZERO, ZERO, ZERO)))
    assert hash(m) == hash(Mat.of(literal))
    assert {m: 1}[Mat.of(literal)] == 1
    assert m != literal and m != [list(row) for row in literal]
    assert Mat((), 3) == Mat((), 3) != Mat((), 2) and Mat((), 3).ncols == 3
    assert linalg.mid(2) == Mat.of(((one, ZERO), (ZERO, one)))
    with pytest.raises(ValueError, match="ragged"):
        Mat.of([[one, ZERO], [one]])


def test_repr_writes_the_dense_rows():
    m = Mat.of(((Scalar(1), ZERO, Scalar(1, -2)), (ZERO, Scalar(-3) / 4, ZERO)))
    assert repr(m) == ("Mat(((Scalar('1'), Scalar('0'), Scalar('1-2*i')),"
                       " (Scalar('0'), Scalar('-3/4'), Scalar('0'))))")
    assert repr(Mat.of(())) == "Mat(())" and repr(Mat.of(((), ()))) == "Mat(((), ()))"


@settings(max_examples=80, deadline=None)
@given(st.data(), sizes, sizes, sizes)
def test_mat_products_match_the_oracle(data, r, k, c):
    """mmul and mat_vec equal sympy's products, zero rows, zero columns and
    empty shapes included, and mmul keeps its rows zero-free; _mul_into
    adds the product to nonempty rows C as sympy's C + A B."""
    a = data.draw(gaussian_matrices(r, k))
    b = data.draw(gaussian_matrices(k, c))
    prod = linalg.mmul(of(a, k), of(b, c))
    assert_zero_free(prod)
    assert (prod.nrows, prod.ncols) == (r, c)
    assert prod == as_scalars(to_sympy(a, k) * to_sympy(b, c))
    base = data.draw(gaussian_matrices(r, c))
    rows = [dict(row) for row in of(base, c).rows]
    linalg._mul_into(rows, of(a, k).rows, of(b, c).rows)
    assert_zero_free(Mat(rows, c))
    assert Mat(rows, c) == as_scalars(to_sympy(base, c) + to_sympy(a, k) * to_sympy(b, c))
    v = data.draw(gaussian_matrices(k, 1))
    want = tuple(from_qqi(z) for z in (to_sympy(a, k) * to_sympy(v, 1)).to_list_flat())
    assert linalg.mat_vec(of(a, k), [x for x, in v]) == want


@settings(max_examples=60, deadline=None)
@given(st.data(), st.lists(sizes, max_size=4))
def test_block_diag_and_inverse_match_the_oracle(data, ns):
    """block_diag equals sympy.diag of the blocks, and mat_inverse equals
    the oracle's inverse or refuses a singular matrix."""
    blocks = [data.draw(gaussian_matrices(n, n)) for n in ns]
    got = linalg.block_diag([of(bl, n) for bl, n in zip(blocks, ns)])
    assert_zero_free(got)
    total = sum(ns)
    if total:
        want = sympy.diag(*[to_sympy(bl, n).to_Matrix() for bl, n in zip(blocks, ns)])
        assert got == as_scalars(DomainMatrix.from_Matrix(want).convert_to(QQ_I))
    else:
        assert got == Mat.of(())
    for bl, n in zip(blocks, ns):
        if not n:
            assert linalg.mat_inverse(Mat.of(bl)) == Mat.of(())
        elif not to_sympy(bl, n).det():
            with pytest.raises(ValueError, match="singular"):
                linalg.mat_inverse(bl)
        else:
            inv = linalg.mat_inverse(bl)
            assert_zero_free(inv)
            assert inv == as_scalars(to_sympy(bl, n).inv())


@settings(max_examples=60, deadline=None)
@given(st.data(), sizes, sizes, sizes, sizes, st.integers(0, 8))
def test_kron_and_dot_match_their_definitions(data, r1, c1, r2, c2, n):
    """kron(a, b) holds a[i1][j1] b[i2][j2] at (i1 r2 + i2, j1 c2 + j2), a
    owning the slow index, for every shape down to 0 x 0, and _kron_into
    adds coef times it to nonempty rows with its corner at (roff, coff);
    dot pairs two sparse vectors as the sum of their dense entrywise
    products."""
    a = data.draw(gaussian_matrices(r1, c1))
    b = data.draw(gaussian_matrices(r2, c2))
    got = linalg.kron(of(a, c1), of(b, c2))
    assert_zero_free(got)
    assert (got.nrows, got.ncols) == (r1 * r2, c1 * c2)
    want = [[a[i1][j1] * b[i2][j2] for j1 in range(c1) for j2 in range(c2)]
            for i1 in range(r1) for i2 in range(r2)]
    assert got == of(want, c1 * c2)
    coef = data.draw(st.integers(-3, 3).filter(bool))
    roff, coff = data.draw(st.integers(0, 2)), data.draw(st.integers(0, 2))
    nr, nc = roff + r1 * r2 + 1, coff + c1 * c2 + 1
    base = data.draw(gaussian_matrices(nr, nc))
    rows = [dict(row) for row in of(base, nc).rows]
    linalg._kron_into(rows, of(a, c1), of(b, c2), coef, roff, coff)
    assert_zero_free(Mat(rows, nc))
    padded = [[ZERO] * nc for _ in range(nr)]
    for i, row in enumerate(want):
        padded[roff + i][coff:coff + len(row)] = row
    assert Mat(rows, nc) == as_scalars(to_sympy(base, nc) + to_sympy(padded, nc) * coef)
    u, v = data.draw(gaussian_matrices(2, n))
    assert linalg.dot(linalg.sparse(u), linalg.sparse(v)) == \
        sum((x * y for x, y in zip(u, v)), ZERO)


# --- the fused update and the edges that read ints ---------------------------

wide = st.builds(lambda a, b, d: Scalar(Fraction(a, d), Fraction(b, d)),
                 st.integers(-2 ** 200, 2 ** 200), st.integers(-2 ** 200, 2 ** 200),
                 st.integers(1, 2 ** 200))
entries = st.one_of(gaussian, wide).filter(bool)


@st.composite
def axpy_cases(draw, entries=entries):
    """(out, c, row, off, skip): each key of row lands in out absent, on
    the entry -c x that cancels it, or on another entry; out also holds
    keys that row does not reach.  c and every entry are drawn from
    `entries`."""
    c = draw(entries)
    row = {j: draw(entries) for j in draw(st.sets(st.integers(0, 8), max_size=6))}
    off = draw(st.integers(0, 3))
    skip = draw(st.sampled_from([None, *sorted(row)]))
    out = {}
    for j, x in row.items():
        kind = draw(st.sampled_from(("absent", "cancel", "other")))
        if kind == "cancel":
            out[j + off] = -(c * x)
        elif kind == "other":
            out[j + off] = draw(entries)
    for k in draw(st.sets(st.integers(0, 12), max_size=3)):
        out.setdefault(k, draw(entries))
    return out, c, row, off, skip


def reference_axpy(out, c, row, off, skip):
    want = dict(out)
    for j, x in row.items():
        if j != skip:
            y = want.get(j + off, ZERO) + c * x
            if y:
                want[j + off] = y
            else:
                del want[j + off]
    return want


half, third = Scalar(Fraction(1, 2)), Scalar(Fraction(1, 3), 1)


@settings(max_examples=300, deadline=None)
@given(axpy_cases())
@example(({0: -(half * third), 1: half, 5: third}, half,
          {0: third, 1: third, 2: half, 3: third}, 0, 3))
@example(({2: Scalar(Fraction(3, 2 ** 200 + 1))}, Scalar(2 ** 200, -1),
          {0: Scalar(Fraction(1, 7), 2 ** 199), 1: half}, 2, None))
def test_the_fused_update_is_y_plus_c_x(case):
    """_axpy equals the loop y + c*x on Gaussian rationals: cancelled keys
    deleted, mismatched denominators, absent keys, off and skip, and
    200-bit parts; every stored value is a canonical Scalar."""
    out, c, row, off, skip = case
    got = dict(out)
    linalg._axpy(got, c, row, off, skip)
    assert got == reference_axpy(out, c, row, off, skip)
    for x in got.values():
        assert type(x) is Scalar and x and x.den > 0
        assert gcd(gcd(x.a, x.b), x.den) == 1


units = st.sampled_from([Scalar(1), Scalar(-1)])
unit_heavy = st.one_of(units, units, entries)


def qqi_axpy(out, c, row, off, skip):
    """y + c x over sympy's QQ_I, which shares no arithmetic with Scalar."""
    want = {j: to_qqi(y) for j, y in out.items()}
    for j, x in row.items():
        if j != skip:
            want[j + off] = want.get(j + off, QQ_I.zero) + to_qqi(c) * to_qqi(x)
    return {j: from_qqi(y) for j, y in want.items() if y}


@settings(max_examples=300, deadline=None)
@given(axpy_cases(unit_heavy))
@example(({1: Scalar(1), 2: Scalar(Fraction(1, 2))}, Scalar(-1),
          {1: Scalar(1), 2: Scalar(3), 4: Scalar(-1)}, 0, None))
def test_the_unit_rule_is_y_plus_c_x(case):
    """_axpy equals the QQ_I loop y + c*x when c or the row's entries are
    often +-1: present, absent and cancelling targets, off and skip.  An
    absent target holds the row's own entry x when c = 1, and c itself when
    x = 1 and c is no unit: Scalars never change, so rows share them."""
    out, c, row, off, skip = case
    got = dict(out)
    linalg._axpy(got, c, row, off, skip)
    assert got == qqi_axpy(out, c, row, off, skip)
    for j, x in row.items():
        if j != skip and j + off not in out:
            if c == 1:
                assert got[j + off] is x
            elif x == 1 and c != -1:
                assert got[j + off] is c
    for x in got.values():
        assert type(x) is Scalar and x and gcd(gcd(x.a, x.b), x.den) == 1


@st.composite
def dot_cases(draw):
    """(u, v, cancel): sparse vectors on keys 0-9 whose entries are often
    +-1 and may have 200-bit parts; with `cancel`, v's last shared entry is
    set so that the pairing is 0."""
    u = {j: draw(unit_heavy) for j in draw(st.sets(st.integers(0, 9), max_size=8))}
    v = {j: draw(unit_heavy) for j in draw(st.sets(st.integers(0, 9), max_size=8))}
    shared = sorted(u.keys() & v.keys())
    rest = sum((u[j] * v[j] for j in shared[:-1]), ZERO)
    cancel = bool(rest) and draw(st.booleans())
    if cancel:
        v[shared[-1]] = -rest / u[shared[-1]]
    return u, v, cancel


@settings(max_examples=300, deadline=None)
@given(dot_cases())
@example(({0: Scalar(Fraction(1, 2)), 1: Scalar(-1), 2: Scalar(Fraction(1, 3), 1)},
          {0: Scalar(1), 1: Scalar(Fraction(1, 4)), 2: Scalar(Fraction(3, 2))}, False))
def test_dot_is_the_sum_of_products(case):
    """dot equals the QQ_I sum of u[j] v[j] over the shared keys, cancellation
    to 0, mismatched denominators and 200-bit parts included, and returns a
    canonical Scalar."""
    u, v, cancel = case
    got = linalg.dot(u, v)
    want = sum((to_qqi(u[j]) * to_qqi(v[j]) for j in u if j in v), QQ_I.zero)
    assert got == from_qqi(want)
    assert not (cancel and got)
    assert type(got) is Scalar and got.den > 0 and gcd(gcd(got.a, got.b), got.den) == 1


@pytest.mark.parametrize("sign", [1, -1])
def test_a_product_by_a_signed_identity_builds_no_scalar(monkeypatch, sign):
    """mmul by +-I on either side only shares or negates entries: _mk is
    never called."""
    rows = dense_matrix(random.Random(sign), 4, 4)
    b, eye = Mat.of(rows), Mat([{i: Scalar(sign)} for i in range(4)], 4)
    want = as_scalars(to_sympy(rows, 4) * sign)
    built = probe(monkeypatch, scalars, "_mk")
    left, right = linalg.mmul(eye, b), linalg.mmul(b, eye)
    assert built.calls == 0
    monkeypatch.undo()
    assert left == right == want


def test_a_pivot_row_is_negated_at_minus_one_and_else_scaled_by_one_mk_per_entry(monkeypatch):
    """Inserting a row whose pivot entry is -1 negates it with no _mk.  A
    row whose pivot is 2i is scaled by one _mk per entry past the pivot,
    which becomes ONE, and one more updates the earlier row that holds an
    entry at its pivot."""
    half = Scalar(Fraction(1, 2), 3)
    span = SpanBasis(4, [[ZERO, ONE, ZERO, Scalar(5)]])
    built = probe(monkeypatch, scalars, "_mk")
    row = span._insert({0: Scalar(-1), 2: half, 3: Scalar(0, 7)})
    assert built.calls == 0
    assert row == {0: ONE, 2: -half, 3: Scalar(0, -7)}
    row = span._insert({2: Scalar(0, 2), 3: half})
    assert built.calls == 1 + 1
    monkeypatch.undo()
    assert row == {2: ONE, 3: half / Scalar(0, 2)}
    assert echelon(span) == sympy_rref([[ZERO, ONE, ZERO, Scalar(5)],
                                        [Scalar(-1), ZERO, half, Scalar(0, 7)],
                                        [ZERO, ZERO, Scalar(0, 2), half]], 4)[0]


def test_a_dense_product_builds_one_scalar_per_update(monkeypatch):
    """mmul of two dense 4 x 4 matrices with no cancellation normalizes
    each of its 64 updates once, in _mk, and calls no Scalar arithmetic."""
    a = [[Scalar(Fraction(i + 1, j + 2), Fraction(1, i + j + 1)) for j in range(4)]
         for i in range(4)]
    b = [[Scalar(Fraction(j + 3, i + 2), Fraction(2, i + 1)) for j in range(4)]
         for i in range(4)]
    want = as_scalars(to_sympy(a, 4) * to_sympy(b, 4))
    probes = {"_mk": probe(monkeypatch, scalars, "_mk"),
              **{name: probe(monkeypatch, Scalar, name) for name in ("__mul__", "__add__")}}
    got = linalg.mmul(a, b)
    monkeypatch.undo()
    assert got == want
    assert {name: p.calls for name, p in probes.items()} == {"_mk": 64, "__mul__": 0, "__add__": 0}


def all_scalars(m):
    return all(type(x) is Scalar for row in m.rows for x in row.values())


def test_mat_of_reads_int_rows_as_scalars():
    m = Mat.of([[1, 2], [0, 1]])
    assert all_scalars(m) and m == Mat([{0: Scalar(1), 1: Scalar(2)}, {1: Scalar(1)}], 2)
    prod = linalg.mmul([[1, 2], [0, 1]], [[1, 0], [3, 1]])
    assert all_scalars(prod) and prod == Mat.of(((7, 2), (3, 1)))
    v = linalg.mat_vec([[1, 2], [0, 1]], (1, 1))
    assert v == (Scalar(3), Scalar(1)) and all(type(x) is Scalar for x in v)


def test_sparse_reads_int_entries_as_scalars():
    for v in ([0, 3, -1], {0: 0, 1: 3, 2: -1}):
        got = linalg.sparse(v)
        assert got == {1: Scalar(3), 2: Scalar(-1)}
        assert all(type(x) is Scalar for x in got.values())
    span = SpanBasis(2, [[1, 2]])
    assert span.rows == [{0: Scalar(1), 1: Scalar(2)}]
    assert all(type(x) is Scalar for x in span.rows[0].values())


def test_mat_sum_reads_int_coefficients_as_scalars():
    got = linalg.mat_sum([(linalg.mid(2), 3)], 2, 2)
    assert all_scalars(got) and got == Mat.of(((3, 0), (0, 3)))


def test_mmul_refuses_mismatched_inner_dimensions():
    with pytest.raises(ValueError, match="inner dimensions 1 and 2 do not match"):
        linalg.mmul([[1]], [[1, 2], [3, 4]])
    with pytest.raises(ValueError, match="inner dimensions 2 and 1 do not match"):
        linalg.mmul([[1, 2]], [[1]])
    assert linalg.mmul(Mat((), 3), [[1], [2], [3]]) == Mat((), 1)


# --- the rows a span starts from -----------------------------------------------

nonzero = gaussian.filter(bool)


@st.composite
def span_inputs(draw):
    """(ncols, rows): runs of mutually reduced rows in any order, empty
    dicts, reduced rows scaled by 2, -1 or i, rows that hold an earlier
    row's pivot, rows that pivot where an earlier row holds an entry, rows
    with any entries, and dense sequences, mixed in any order."""
    ncols, rows = draw(st.integers(1, 7)), []

    def tail(p, avoid=()):  # entries right of column p, off the columns `avoid`
        keys = draw(st.sets(st.integers(p + 1, ncols), max_size=3))
        return {j: draw(nonzero) for j in keys if j < ncols and j not in avoid}

    def reduced(p, avoid=()):  # 1 at p, keys in either order
        row = tail(p, avoid)
        return {p: ONE, **row} if draw(st.booleans()) else {**row, p: ONE}

    for kind in draw(st.lists(st.sampled_from(
            ("run", "empty", "scaled", "holds", "held", "any", "dense")), max_size=6)):
        earlier = [r for r in rows if isinstance(r, dict) and r]
        if kind == "run":
            pivots = draw(st.sets(st.integers(0, ncols - 1), min_size=1))
            rows += draw(st.permutations([reduced(p, pivots) for p in pivots]))
        elif kind == "empty":
            rows.append({})
        elif kind == "scaled":
            c = draw(st.sampled_from((Scalar(2), Scalar(-1), Scalar(0, 1))))
            rows.append({j: c * x for j, x in reduced(draw(st.integers(0, ncols - 1))).items()})
        elif kind == "holds" and [r for r in earlier if min(r)]:
            q = min(draw(st.sampled_from([r for r in earlier if min(r)])))
            rows.append({**reduced(draw(st.integers(0, q - 1))), q: draw(nonzero)})
        elif kind == "held" and [r for r in earlier if len(r) > 1]:
            r = draw(st.sampled_from([r for r in earlier if len(r) > 1]))
            rows.append(reduced(draw(st.sampled_from(sorted(r)[1:]))))
        elif kind in ("any", "dense"):
            row = {j: draw(nonzero) for j in draw(st.sets(st.integers(0, ncols - 1)))}
            rows.append(row if kind == "any" else linalg.dense(row, ncols))
    return ncols, rows


def built(ncols, rows, one_at_a_time):
    """(the SpanBasis of rows, the _axpy calls it made, by their arguments,
    the vectors handed to _insert), built from its rows or by _insert, one
    row at a time."""
    calls, inserted = [], []

    def axpy(out, c, row, off=0, skip=None):
        calls.append((c, list(row.items()), off, skip))

    with pytest.MonkeyPatch.context() as mp:
        probe(mp, linalg, "_axpy", axpy)
        probe(mp, SpanBasis, "_insert", lambda span, v: inserted.append(v))
        if one_at_a_time:
            span = SpanBasis(ncols)
            for r in rows:
                span._insert(r)
        else:
            span = SpanBasis(ncols, iter(rows))
    return span, calls, inserted


@settings(max_examples=300, deadline=None)
@given(span_inputs())
@example((3, [{2: ONE}, {0: ONE, 1: Scalar(3)}, {}, {1: ONE, 2: Scalar(5)},
              {0: Scalar(0, 1)}, (ZERO, ONE, ZERO), {2: ONE}]))
def test_a_span_of_rows_is_inserting_them_one_at_a_time(case):
    """SpanBasis(ncols, rows), which places its leading rows that need no
    elimination, has the pivots, the rows (with their key order) and the
    _axpy calls of inserting the rows one at a time, holds the rows it
    places as the dicts given, modifies no dict given, and is sympy's RREF."""
    ncols, rows = case
    given = [list(r.items()) if isinstance(r, dict) else r for r in rows]
    span, calls, inserted = built(ncols, rows, False)
    by_insert, insert_calls, _ = built(ncols, rows, True)
    assert span.pivots == by_insert.pivots and calls == insert_calls
    assert [list(r.items()) for r in span.rows] == [list(r.items()) for r in by_insert.rows]
    # a placed row is held as given until an insert clears an entry at a new pivot
    placed = [r for r in rows if isinstance(r, dict) and r
              and not any(r is v for v in inserted)]
    assert all(span._row[min(r)] is r for r in placed if by_insert._row[min(r)] == r)
    assert [list(r.items()) if isinstance(r, dict) else r for r in rows] == given
    assert_rows_are_sparse(span)
    dense_rows = [linalg.dense(r, ncols) if isinstance(r, dict) else r for r in rows]
    assert (echelon(span), span.pivots) == sympy_rref(dense_rows, ncols)


def test_mutually_reduced_rows_need_no_insert_or_reduction(monkeypatch):
    """A shuffled list of mutually reduced rows, with empty dicts among
    them, goes into the span without an _insert or _reduce call."""
    rng = random.Random(7)
    want, _ = sympy_rref(sparse_matrix(rng, 6, 9), 9)
    rows = [linalg.sparse(r) for r in want] + [{}, {}]
    rng.shuffle(rows)
    probes = [probe(monkeypatch, SpanBasis, name) for name in ("_insert", "_reduce")]
    span = SpanBasis(9, rows)
    assert [p.calls for p in probes] == [0, 0] and echelon(span) == want and len(want) >= 4


def row_lists(seed):
    """(ncols, rows, echelon) triples drawn from seed: the End(V) corner
    generators _corner_gens of a drawn module's chain spans and a solver's
    span rows, which are echelon rows, and general sparse rows."""
    rng = random.Random(9000 + seed)
    _, M = gen.rand_approx_module(rng, 8, junk_ok=True)
    chain = range(len(M.algebra.chain))
    cols, rows = approxalg._idem_spans(M, chain, chain)
    j1, j2 = rng.choice(chain), rng.choice(chain)
    out = [(M.dim ** 2, approxalg._corner_gens(cols[-1], rows[-1]), True),
           (M.dim ** 2, approxalg._corner_gens(cols[j1], rows[j2]), True)]
    for kind in (dense_matrix, sparse_matrix):
        ncols = rng.randint(2, 8)
        vecs = [linalg.sparse(r) for r in kind(rng, rng.randint(2, 7), ncols)]
        out += [(ncols, linalg.solver(vecs, ncols)[0].rows, True), (ncols, vecs, False)]
    return out


@pytest.mark.parametrize("seed", SEEDS)
def test_a_span_does_not_depend_on_the_order_of_its_rows(monkeypatch, seed):
    """Spans built from shuffles of one list of rows have the same pivots,
    rows and nullspace, the key order of each nullspace vector included,
    and echelon rows make no _insert call in any order."""
    inserts = probe(monkeypatch, SpanBasis, "_insert")
    rng = random.Random(seed)
    for ncols, rows, echelon_rows in row_lists(seed):
        rows, spans = list(rows), []
        for _ in range(4):
            rng.shuffle(rows)
            inserts.calls = 0
            spans.append(SpanBasis(ncols, rows))
            assert not (echelon_rows and inserts.calls)
        first = spans[0]
        for span in spans[1:]:
            assert span.pivots == first.pivots and span.rows == first.rows
            assert ([list(v.items()) for v in span.nullspace()]
                    == [list(v.items()) for v in first.nullspace()])


@pytest.mark.parametrize("suite, inserts", [("dcomm", 577), ("pw", 624)])
def test_the_inserts_of_a_suite_are_pinned(suite, inserts):
    """`jetcalc dcomm --seed 0` and `jetcalc pw --seed 0` call _insert 577
    and 624 times: the rows that start a span and need no elimination are
    placed without it (2,646 and 888 calls when every row is inserted).
    dcomm's counts were 962 and 3,201 while End^# took one Gram row per
    echelon row of the tuple module W and nullspace functional of W: it
    now takes one per functional, at the one tuple u, and most of the rows
    it no longer takes reduced to zero.  dcomm's counts were 598 and 2,826
    while each End^# row was decided at its least corner, with one witness
    solver per corner: every membership is now decided at the top."""
    rc, counts, _ = work(suite)
    assert rc == 0 and counts["_insert"][0] == inserts
