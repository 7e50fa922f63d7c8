"""Exact linear algebra over Q(i).

Matrices are tuples of tuples of Scalar.  Inside the span engine a vector is
sparse: a dict {index: Scalar}, zero-free once `sparse` has read it, since
the vectors met in practice (matrix units, nilpotent actions, stacked
tuples) are mostly zeros.  `sparse` is the one place that finds the nonzeros
of a vector; `dense` turns a dict back into a tuple at the edges (frozen
rows, the module-level functions, JSON).  `apply` is the one matrix-vector
action: it maps every block of a stacked vector by one matrix, given by its
`columns`.

`SpanBasis` is the one elimination: row-at-a-time Gauss-Jordan to the
reduced row echelon form (RREF), which is unique over exact arithmetic, so
no pivoting heuristics are needed and every result is canonical.  `rank`,
`nullspace`, `solve`, `mat_inverse` and `subspace_intersection` each read
one SpanBasis.  Beside it, `close_span` closes a subspace under linear maps
(submodules, tuple modules, word algebras, invariance grids) and
`block_diag` builds every block-diagonal matrix.
"""

from bisect import bisect_left

from .scalars import ZERO, ONE


class CrossCheckError(AssertionError):
    """Two independent computations of one exact result disagree (kernel
    routes, End(V)_0 corner spans, relation evaluations, or a recovered End^#
    witness): a defect, never a verdict about the input."""


def sparse(v):
    """The nonzero entries of a sequence, or of a dict that may hold zeros,
    as a new dict {index: entry}."""
    return {j: x for j, x in (v.items() if isinstance(v, dict) else enumerate(v)) if x}


def dense(v, n):
    """The length-n tuple of the sparse vector v."""
    out = [ZERO] * n
    for j, x in v.items():
        out[j] = x
    return tuple(out)


def columns(mat):
    """The nonzero entries of a matrix by column: for each column c, the
    pairs (r, mat[r][c])."""
    return [list(sparse(col).items()) for col in zip(*mat)]


def apply(cols, v, d):
    """The matrix with the given `columns` applied to every length-d block
    of the sparse vector v, each image at its block's offset; with more than
    one block the matrix must be square.  The dict returned may hold zeros
    where terms cancel."""
    out = {}
    for s, y in v.items():
        off, c = divmod(s, d)
        off *= d
        for r, x in cols[c]:
            k = off + r
            z = out.get(k)
            out[k] = x * y if z is None else z + x * y
    return out


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
        for k, c in sparse(arow).items():
            if bsupp[k] is None:
                bsupp[k] = sparse(b[k]).items()
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
            for c, x in sparse(row).items():
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
    """a v for a dense matrix and vector."""
    return dense(apply(columns(a), sparse(v), len(v)), len(a)) if a else ()


def rank(rows):
    return SpanBasis(len(rows[0]) if rows else 0, rows).dim


def nullspace(rows, ncols):
    """Basis of {x : A x = 0} for A given by rows; see SpanBasis.nullspace."""
    return [dense(v, ncols) for v in SpanBasis(ncols, rows).nullspace()]


def solve(rows, rhs, ncols=None):
    """One solution x of A x = b, or None.  rows: the rows of A, as
    sequences, or as dicts when ncols gives the number of columns."""
    if ncols is None:
        ncols = len(rows[0]) if rows else 0
    red = SpanBasis(ncols + 1, [{**sparse(r), ncols: b} for r, b in zip(rows, rhs)])
    if red.pivots and red.pivots[-1] == ncols:
        return None  # inconsistent: pivot in the rhs column
    return dense({p: row.get(ncols, ZERO) for row, p in zip(red.rows, red.pivots)},
                 ncols)


def mat_inverse(mat):
    """Exact inverse; raises on singular input."""
    n = len(mat)
    red = SpanBasis(2 * n, [list(r) + list(e) for r, e in zip(mat, mid(n))])
    if red.pivots != list(range(n)):
        raise ValueError("matrix is singular")
    return freeze(row[n:] for row in red.frozen_rows())


def _subtract(out, c, row, skip):
    """out -= c * row in place over the keys of row other than `skip`,
    keeping out zero-free; c and the entries of row are nonzero."""
    for j, x in row.items():
        if j != skip:
            y = out.get(j)
            if y is None:
                out[j] = -(c * x)
            else:
                y = y - c * x
                if y:
                    out[j] = y
                else:
                    del out[j]


class SpanBasis:
    """Incrementally maintained RREF basis of a span of row vectors.

    Each echelon row is a zero-free dict {column: Scalar} whose least key is
    its pivot.  insert() reports whether the span grew; coords() expresses a
    member in the echelon rows; nullspace() reads the annihilator off them.
    In RREF a row is zero at every other pivot, so reducing a vector clears
    each of its pivot entries with that pivot's row alone, in any order.
    insert() replaces a row it changes by a new dict, so a row once read is
    never modified."""

    def __init__(self, ncols, rows=()):
        self.ncols = ncols
        self.rows = []
        self.pivots = []
        self._row = {}  # pivot -> echelon row
        for r in rows:
            self.insert(r)

    @property
    def dim(self):
        return len(self.rows)

    def _reduce(self, v, record=None):
        """The residue of v (a dict that may hold zeros, or a sequence)
        against the rows, as a new zero-free dict; `record` receives the
        coefficient of each row used, by pivot."""
        out = sparse(v)
        for p in [p for p in out if p in self._row]:
            c = out.pop(p)
            if record is not None:
                record[p] = c
            _subtract(out, c, self._row[p], p)
        return out

    def insert(self, v):
        """Insert v (as _reduce reads it); True iff the dimension grew."""
        v = self._reduce(v)
        if not v:
            return False
        pivot = min(v)
        inv = v[pivot].inverse()
        v = {j: x * inv for j, x in v.items()}
        # keep existing rows reduced against the new one
        for i, row in enumerate(self.rows):
            c = row.get(pivot)
            if c is not None:
                row = {j: x for j, x in row.items() if j != pivot}
                _subtract(row, c, v, pivot)
                self.rows[i] = self._row[self.pivots[i]] = row
        at = bisect_left(self.pivots, pivot)
        self.rows.insert(at, v)
        self.pivots.insert(at, pivot)
        self._row[pivot] = v
        return True

    def add(self, v):
        """insert() for a dense row, at the edges; the benchmark's tracer
        (bench/layers.py) wraps it by name and reads its argument densely."""
        return self.insert(v)

    def contains(self, v):
        return not self._reduce(v)

    def coords(self, v):
        """Coefficients of v against the echelon rows, or None if outside."""
        record = {}
        if self._reduce(v, record):
            return None
        return tuple(record.get(p, ZERO) for p in self.pivots)

    def nullspace(self):
        """Basis of {x : row . x = 0 for every row}, as zero-free dicts: for
        each free (non-pivot) column f ascending, 1 at f and -row[f] at the
        pivot of each row.  In RREF a row's keys off its pivot are all free."""
        vecs = {f: {f: ONE} for f in range(self.ncols) if f not in self._row}
        for p, row in self._row.items():
            for j, x in row.items():
                if j != p:
                    vecs[j][p] = -x
        return list(vecs.values())

    def frozen_rows(self):
        return tuple(dense(r, self.ncols) for r in self.rows)

    def same_span(self, other):
        """Equality of spans; RREF is canonical so row comparison suffices."""
        return self.pivots == other.pivots and self.rows == other.rows


def close_span(span, seeds, step):
    """Close the SpanBasis `span` under `step`, which maps a sparse vector to
    a list of sparse vectors: insert each seed (a sequence or dict), then
    every vector of step(v) for each v that grew the span, breadth first,
    until nothing new appears.  Returns `span`."""
    frontier = [v for v in map(sparse, seeds) if span.insert(v)]
    while frontier:
        frontier = [w for v in frontier for w in step(v) if span.insert(w)]
    return span


def subspace_intersection(rows_a, rows_b, ncols):
    """RREF basis of (span of rows_a) intersect (span of rows_b), by
    Zassenhaus: reduce the rows (a|a) and (b|0).  The combinations with a
    zero left half are (c|c) - (c|0) = (0|c) for c in both spans, so the
    rows pivoting in the right half are (0|c) for c an echelon basis.  The
    rows may be sequences or dicts."""
    both = SpanBasis(2 * ncols, rows_b)
    for a in map(sparse, rows_a):
        both.insert({**a, **{j + ncols: x for j, x in a.items()}})
    return freeze(row[ncols:] for row, p in zip(both.frozen_rows(), both.pivots)
                  if p >= ncols)


def rref(rows):
    """(echelon rows, pivot columns) of the RREF of rows.  Unused in the
    package; the benchmark's tracer (bench/layers.py) wraps it by name."""
    red = SpanBasis(len(rows[0]) if rows else 0, rows)
    return red.frozen_rows(), red.pivots
