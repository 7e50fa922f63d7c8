"""Exact linear algebra over Q(i).

Matrices are tuples of tuples of Scalar; rows inside the elimination are
plain lists.  Storage is dense, but the matrices met in practice (matrix
units, nilpotent actions) are mostly zeros, so inner loops visit nonzero
entries only, and `SpanBasis` keeps each echelon row's support beside it.

`SpanBasis` is the one elimination: row-at-a-time Gauss-Jordan to the
reduced row echelon form (RREF), which is unique over exact arithmetic, so
no pivoting heuristics are needed and every result is canonical.  `rank`,
`nullspace`, `solve`, `mat_inverse` and `subspace_intersection` each read
one SpanBasis.  Beside it, `close_span` closes a subspace under generators
(submodules, tuple modules, word algebras, invariance grids) and
`block_diag` builds every block-diagonal matrix.
"""

from bisect import bisect_left

from .scalars import ZERO, ONE


class CrossCheckError(AssertionError):
    """Two independent computations of one exact result disagree (kernel
    routes, End(V)_0 corner spans, relation evaluations, or a recovered End^#
    witness): a defect, never a verdict about the input."""


def freeze(rows):
    return tuple(tuple(r) for r in rows)


def mzeros(r, c):
    return ((ZERO,) * c,) * r


def mid(n):
    return tuple(tuple(ONE if i == j else ZERO for j in range(n)) for i in range(n))


def madd(a, b):
    return tuple(tuple(x + y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def mscale(a, c):
    return tuple(tuple(x * c for x in r) for r in a)


def _nonzeros(v):
    """The (index, entry) pairs of the nonzero entries of v."""
    return [(j, x) for j, x in enumerate(v) if x]


def mmul(a, b):
    """Matrix product over the nonzero entries of both factors; the action
    matrices are nilpotent and mostly zeros, so this matters."""
    n = len(a)
    if not b:
        return mzeros(n, 0)
    m = len(b[0])
    bsupp = [None] * len(b)  # nonzeros of each row of b, found on first use
    out = []
    for arow in a:
        acc = [ZERO] * m
        for k, c in enumerate(arow):
            if c:
                if bsupp[k] is None:
                    bsupp[k] = _nonzeros(b[k])
                for j, v in bsupp[k]:
                    acc[j] = acc[j] + c * v
        out.append(tuple(acc))
    return tuple(out)


def block_diag(mats):
    """Block-diagonal matrix with the square matrices `mats` down the
    diagonal, in order."""
    total = sum(len(m) for m in mats)
    out = [[ZERO] * total for _ in range(total)]
    off = 0
    for m in mats:
        for r, row in enumerate(m):
            big = out[off + r]
            for c, x in enumerate(row):
                if x:
                    big[off + c] = x
        off += len(m)
    return freeze(out)


def mat_is_zero(a):
    return all(not x for r in a for x in r)


def flatten(a):
    return tuple(x for r in a for x in r)


def unflatten(v, rows, cols):
    return tuple(tuple(v[r * cols:(r + 1) * cols]) for r in range(rows))


def square(flat, d, parse, what):
    """The d x d matrix of parse(e) for the row-major entry list `flat`;
    a ValueError naming `what` unless flat holds exactly d*d entries."""
    if len(flat) != d * d:
        raise ValueError("%s has %d entries; a %dx%d matrix needs %d"
                         % (what, len(flat), d, d, d * d))
    return unflatten([parse(e) for e in flat], d, d)


def mat_vec(a, v):
    nz = _nonzeros(v)
    out = []
    for row in a:
        acc = ZERO
        for j, y in nz:
            x = row[j]
            if x:
                acc = acc + x * y
        out.append(acc)
    return tuple(out)


def rank(rows):
    return SpanBasis(len(rows[0]) if rows else 0, rows).dim


def nullspace(rows, ncols):
    """Basis of {x : A x = 0} for A given by rows; see SpanBasis.nullspace."""
    return SpanBasis(ncols, rows).nullspace()


def solve(rows, rhs):
    """One solution x of A x = b, or None.  rows: list of rows of A."""
    if not rows:
        return () if not any(rhs) else None
    ncols = len(rows[0])
    red = SpanBasis(ncols + 1, [list(r) + [b] for r, b in zip(rows, rhs)])
    if red.pivots and red.pivots[-1] == ncols:
        return None  # inconsistent: pivot in the rhs column
    x = [ZERO] * ncols
    for row, p in zip(red.rows, red.pivots):
        x[p] = row[ncols]
    return tuple(x)


def mat_inverse(mat):
    """Exact inverse; raises on singular input."""
    n = len(mat)
    red = SpanBasis(2 * n, [list(r) + list(e) for r, e in zip(mat, mid(n))])
    if red.pivots != list(range(n)):
        raise ValueError("matrix is singular")
    return freeze([row[n:] for row in red.rows])


class SpanBasis:
    """Incrementally maintained RREF basis of a span of row vectors.

    add() reports whether the span grew; coords() expresses a member in the
    echelon rows; nullspace() reads the annihilator off them.  Rows stay
    fully reduced, so reduction is one pass in pivot order, touching only
    `supports[i]`, the ascending nonzero columns of `rows[i]`.  add()
    replaces a row it changes by a new list, so a row once read is never
    modified."""

    def __init__(self, ncols, rows=()):
        self.ncols = ncols
        self.rows = []
        self.pivots = []
        self.supports = []
        for r in rows:
            self.add(r)

    @property
    def dim(self):
        return len(self.rows)

    def _reduce(self, v, record=None):
        v = list(v)
        for idx, (row, p, supp) in enumerate(zip(self.rows, self.pivots,
                                                 self.supports)):
            c = v[p]
            if c:
                if record is not None:
                    record[idx] = c
                for j in supp:
                    v[j] = v[j] - c * row[j]
        return v

    def add(self, v):
        """Insert v; True iff the dimension grew."""
        v = self._reduce(v)
        supp = [j for j, x in enumerate(v) if x]
        if not supp:
            return False
        pivot = supp[0]
        inv = v[pivot].inverse()
        for j in supp:
            v[j] = v[j] * inv
        # keep existing rows reduced against the new one
        for i, row in enumerate(self.rows):
            c = row[pivot]
            if c:
                row = row[:]
                for j in supp:
                    row[j] = row[j] - c * v[j]
                self.rows[i] = row
                merged = sorted(set(self.supports[i]).union(supp))
                self.supports[i] = [j for j in merged if row[j]]
        at = bisect_left(self.pivots, pivot)
        self.rows.insert(at, v)
        self.pivots.insert(at, pivot)
        self.supports.insert(at, supp)
        return True

    def contains(self, v):
        return not any(self._reduce(v))

    def coords(self, v):
        """Coefficients of v against the echelon rows, or None if outside."""
        record = {}
        residue = self._reduce(v, record)
        if any(residue):
            return None
        return tuple(record.get(i, ZERO) for i in range(len(self.rows)))

    def nullspace(self):
        """Basis of {x : row . x = 0 for every row}: for each free (non-pivot)
        column f ascending, 1 at f and -rows[i][f] at pivots[i].  In RREF a
        row's nonzeros off its pivot all lie in free columns."""
        pivot_set = set(self.pivots)
        vecs = {f: [ZERO] * f + [ONE] + [ZERO] * (self.ncols - f - 1)
                for f in range(self.ncols) if f not in pivot_set}
        for row, p, supp in zip(self.rows, self.pivots, self.supports):
            for j in supp:
                if j != p:
                    vecs[j][p] = -row[j]
        return [tuple(v) for v in vecs.values()]

    def frozen_rows(self):
        return freeze(self.rows)

    def same_span(self, other):
        """Equality of spans; RREF is canonical so row comparison suffices."""
        return self.pivots == other.pivots and self.rows == other.rows


def close_span(span, seeds, step):
    """Close the SpanBasis `span` under `step`: add each seed, then add every
    vector of step(v) for each v that grew the span, breadth first, until
    nothing new appears.  Returns `span`."""
    frontier = [v for v in seeds if span.add(v)]
    while frontier:
        frontier = [w for v in frontier for w in step(v) if span.add(w)]
    return span


def subspace_intersection(rows_a, rows_b, ncols):
    """RREF basis of (span of rows_a) intersect (span of rows_b), by
    Zassenhaus: reduce the rows (a|a) and (b|0).  The combinations with a
    zero left half are (c|c) - (c|0) = (0|c) for c in both spans, so the
    rows pivoting in the right half are (0|c) for c an echelon basis."""
    zero = [ZERO] * ncols
    both = SpanBasis(2 * ncols, [list(a) + list(a) for a in rows_a]
                     + [list(b) + zero for b in rows_b])
    return freeze([row[ncols:] for row, p in zip(both.rows, both.pivots)
                   if p >= ncols])


def rref(rows):
    """(echelon rows, pivot columns) of the RREF of rows.  Unused in the
    package; the benchmark's tracer (bench/layers.py) wraps it by name."""
    red = SpanBasis(len(rows[0]) if rows else 0, rows)
    return red.rows, red.pivots
