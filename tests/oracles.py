"""Oracles and generators that only the tests read: the algebra spanned by
a matrix basis, a random dense matrix, the pairing of a dual matrix with a
grid of ExpPolys, such as a jet's entries, approximate unitality, and the
corner data behind a membership verdict."""

from types import SimpleNamespace

from jetcalc.approxalg import ApproxModule, _membership
from jetcalc.gen import rand_scalar
from jetcalc.linalg import Mat, SpanBasis, mid, dense
from jetcalc.scalars import ZERO


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
    return Mat.of([[rand_scalar(rng) for _ in range(cols)] for _ in range(rows)], cols)


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
    read from the tuple-module cache that _membership fills (one entry, the
    corner index j): the verdict `member` and `witness`, `j`, the stacked
    basis tuple as a dense vector `tuple_vec`, the corner's tuple module W
    as `submodule`, and W.escape(phi), the escaping pair (w, phi.w) as dense
    vectors, as `escaped` (None when phi preserves W)."""
    tuples = {}
    res = _membership(M, phi, tuples)
    [(j, (u, W, _))] = tuples.items()
    escaped = W.escape(Mat.of(phi))
    return SimpleNamespace(
        member=res.member, witness=res.witness, j=j, tuple_vec=dense(u, W.ncols),
        submodule=W, escaped=escaped and tuple(dense(v, W.ncols) for v in escaped))
