"""Oracles and generators that only the tests read: the algebra spanned by
a matrix basis, a random dense matrix, the pairing of a dual matrix with a
grid of ExpPolys, such as a jet's entries, and approximate unitality."""

from jetcalc.approxalg import ApproxModule
from jetcalc.gen import rand_scalar
from jetcalc.linalg import Mat, SpanBasis, mid
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
