"""Exact linear algebra over Q(i).

A vector is sparse: a zero-free dict {index: Scalar}, since the vectors
met in practice (matrix units, nilpotent actions, stacked tuples) are
mostly zeros.  `sparse` finds the nonzeros of a dense vector (or of a dict
that may hold zeros); `dense` turns a dict back into a tuple at the edges.

A matrix is one immutable type, `Mat`: its shape and one zero-free
{column: Scalar} dict per row, with its columns built once, on first read.
`mmul` is Gustavson's row-wise sparse product, `mat_sum` forms linear
combinations, `block_diag` builds block-diagonal matrices, and `apply`, the
one matrix-vector action, maps every block of a stacked vector by one
matrix's columns.  `Mat.flat` and `Mat.from_flat` convert to and from the
sparse vector of row-major entries.  At the edges (JSON, printing, tests,
`MatPolyFamily` evaluations) `Mat.of` reads a nested sequence, and `len`,
iteration, indexing, equality and hashing treat a Mat as its dense rows;
there are no dense matrix helpers.

`SpanBasis` is the one elimination: row-at-a-time Gauss-Jordan to the
reduced row echelon form (RREF), which is unique over exact arithmetic, so
no pivoting heuristics are needed and every result is canonical.  `rank`,
`nullspace`, `solve`, `mat_inverse` and `subspace_intersection` each read
one SpanBasis.  Beside it, `close_span` closes a subspace under linear maps
(submodules, tuple modules, word algebras, invariance grids).
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


class Mat:
    """Immutable exact matrix: its shape and one zero-free {column: Scalar}
    dict per row; its columns, zero-free {row: Scalar} dicts, are built on
    first read and kept.  No dict is modified once a Mat holds it.  At the
    edges it reads as the tuple of its dense rows (see the module
    docstring)."""

    __slots__ = ("rows", "nrows", "ncols", "_cols")

    def __init__(self, rows, ncols, cols=None):
        self.rows = tuple(rows)
        self.nrows = len(self.rows)
        self.ncols = ncols
        self._cols = cols

    @classmethod
    def of(cls, m, ncols=0):
        """m itself if it is a Mat, else the Mat of the nested sequence m;
        `ncols` is the width of a matrix without rows."""
        if isinstance(m, Mat):
            return m
        ncols = len(m[0]) if len(m) else ncols
        if any(len(row) != ncols for row in m):
            raise ValueError("ragged matrix")
        return cls([{c: x for c, x in enumerate(row) if x} for row in m], ncols)

    @classmethod
    def from_flat(cls, v, nrows, ncols):
        """The Mat whose row-major entries are the sparse vector v."""
        rows = [{} for _ in range(nrows)]
        for s, x in v.items():
            r, c = divmod(s, ncols)
            rows[r][c] = x
        return cls(rows, ncols)

    def flat(self):
        """The row-major entries, as a zero-free sparse vector."""
        n = self.ncols
        return {r * n + c: x for r, row in enumerate(self.rows) for c, x in row.items()}

    @property
    def cols(self):
        if self._cols is None:
            self._cols = [{} for _ in range(self.ncols)]
            for r, row in enumerate(self.rows):
                for c, x in row.items():
                    self._cols[c][r] = x
        return self._cols

    @property
    def T(self):
        """The transpose; its columns are this matrix's rows."""
        return Mat(self.cols, self.nrows, self.rows)

    def __len__(self):
        return self.nrows

    def __getitem__(self, r):
        return dense(self.rows[r], self.ncols)

    def __iter__(self):
        return (dense(row, self.ncols) for row in self.rows)

    def __eq__(self, other):
        if isinstance(other, Mat):
            return self.ncols == other.ncols and self.rows == other.rows
        if isinstance(other, (tuple, list)):
            return tuple(self) == tuple(map(tuple, other))
        return NotImplemented

    def __hash__(self):
        return hash(tuple(self))

    def __repr__(self):
        return "Mat(%r)" % (tuple(self),)


def apply(m, v, d):
    """The Mat m applied to every length-d block of the zero-free sparse
    vector v, each image at its block's offset, through m's columns; with
    more than one block m must be square.  The result is zero-free."""
    cols = m.cols
    out = {}
    for s, y in v.items():
        off, c = divmod(s, d)
        _axpy(out, y, cols[c], off * d)
    return out


def _axpy(out, c, row, off=0, skip=None):
    """out[off + j] += c * row[j] in place for the keys j of row other than
    `skip`, keeping out zero-free; c and the entries of row are nonzero."""
    for j, x in row.items():
        if j != skip:
            j += off
            y = out.get(j)
            if y is None:
                out[j] = c * x
            else:
                y = y + c * x
                if y:
                    out[j] = y
                else:
                    del out[j]


def mid(n):
    return Mat([{i: ONE} for i in range(n)], n)


def mmul(a, b):
    """The product a b, row dict by row dict (Gustavson): row i sums c
    times row k of b over the nonzeros c = a[i][k]."""
    a, b = Mat.of(a), Mat.of(b)
    out = []
    for arow in a.rows:
        acc = {}
        for k, c in arow.items():
            _axpy(acc, c, b.rows[k])
        out.append(acc)
    return Mat(out, b.ncols)


def mat_sum(terms, nrows, ncols):
    """The nrows x ncols Mat sum of c M over the pairs (M, c), c nonzero."""
    rows = [{} for _ in range(nrows)]
    for m, c in terms:
        for out, row in zip(rows, m.rows):
            _axpy(out, c, row)
    return Mat(rows, ncols)


def block_diag(mats):
    """Block-diagonal Mat with the square matrices `mats` down the
    diagonal, in order."""
    rows = []
    for m in map(Mat.of, mats):
        off = len(rows)
        rows.extend({off + c: x for c, x in row.items()} for row in m.rows)
    return Mat(rows, len(rows))


def square(flat, d, parse, what):
    """The rows of the d x d matrix of parse(e) for the row-major list
    `flat`; a ValueError naming `what` unless flat holds d*d entries."""
    if not isinstance(flat, list):
        raise ValueError("%s must be a list of entries" % what)
    if len(flat) != d * d:
        raise ValueError("%s has %d entries; a %dx%d matrix needs %d"
                         % (what, len(flat), d, d, d * d))
    flat = [parse(e) for e in flat]
    return tuple(tuple(flat[r * d:(r + 1) * d]) for r in range(d))


def mat_vec(a, v):
    """a v for a matrix and a dense vector, as a dense tuple."""
    a = Mat.of(a)
    return dense(apply(a, sparse(v), len(v)), a.nrows) if a.nrows else ()


def rank(rows):
    return SpanBasis(len(rows[0]) if rows else 0, rows).dim


def nullspace(rows, ncols):
    """Basis of {x : A x = 0} for A given by rows; see SpanBasis.nullspace."""
    return [dense(v, ncols) for v in SpanBasis(ncols, rows).nullspace()]


def solve(rows, rhs, ncols=None):
    """One solution x of A x = b, or None.  rows: the rows of A, as
    sequences, or as zero-free dicts when ncols gives the number of
    columns."""
    if ncols is None:
        ncols = len(rows[0]) if rows else 0
    rows = [r if isinstance(r, dict) else sparse(r) for r in rows]
    red = SpanBasis(ncols + 1, [{**r, ncols: b} if b else r for r, b in zip(rows, rhs)])
    if red.pivots and red.pivots[-1] == ncols:
        return None  # inconsistent: pivot in the rhs column
    return dense({p: row.get(ncols, ZERO) for row, p in zip(red.rows, red.pivots)},
                 ncols)


def mat_inverse(mat):
    """Exact inverse, as a Mat; raises on singular input."""
    m = Mat.of(mat)
    n = m.nrows
    red = SpanBasis(2 * n, [{**row, n + i: ONE} for i, row in enumerate(m.rows)])
    if red.pivots != list(range(n)):
        raise ValueError("matrix is singular")
    return Mat([{j - n: x for j, x in row.items() if j >= n} for row in red.rows], n)


class SpanBasis:
    """Incrementally maintained RREF basis of a span of row vectors.

    Each echelon row is a zero-free dict {column: Scalar} whose least key is
    its pivot.  insert() reports whether the span grew; coords() expresses a
    member in the echelon rows; nullspace() reads the annihilator off them.
    In RREF a row is zero at every other pivot, so reducing a vector clears
    each of its pivot entries with that pivot's row alone, in any order.
    insert() replaces a row it changes by a new dict, so a row once read is
    never modified.  The initial rows are read as _reduce reads them."""

    def __init__(self, ncols, rows=()):
        self.ncols = ncols
        self.rows = []
        self.pivots = []
        self._row = {}  # pivot -> echelon row
        for r in rows:
            self._insert(r)

    @property
    def dim(self):
        return len(self.rows)

    def _reduce(self, v, record=None):
        """The residue of v (a sequence, or a zero-free dict, which is
        copied and not filtered again) against the rows, as a new zero-free
        dict; `record` receives the coefficient of each row used, by
        pivot."""
        out = dict(v) if isinstance(v, dict) else sparse(v)
        for p in [p for p in out if p in self._row]:
            c = out.pop(p)
            if record is not None:
                record[p] = c
            _axpy(out, -c, self._row[p], skip=p)
        return out

    def insert(self, v):
        """Insert v, a sequence or a dict that may hold zeros; True iff the
        dimension grew."""
        return self._insert(sparse(v))

    def _insert(self, v):
        """insert() for a sequence or a zero-free dict, which is not
        filtered again."""
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
                _axpy(row, -c, v, skip=pivot)
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
        """v (as _reduce reads it) lies in the span."""
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
    """Close the SpanBasis `span` under `step`, which maps a zero-free
    sparse vector to a list of such vectors: insert each seed (a sequence or
    dict), then every vector of step(v) for each v that grew the span,
    breadth first, until nothing new appears.  Returns `span`."""
    frontier = [v for v in map(sparse, seeds) if span._insert(v)]
    while frontier:
        frontier = [w for v in frontier for w in step(v) if span._insert(w)]
    return span


def subspace_intersection(rows_a, rows_b, ncols):
    """RREF basis of (span of rows_a) intersect (span of rows_b), as
    zero-free sparse vectors, by Zassenhaus: reduce the rows (a|a) and
    (b|0).  The combinations with a zero left half are (c|c) - (c|0) = (0|c)
    for c in both spans, so the rows pivoting in the right half are (0|c)
    for c an echelon basis.  The rows may be sequences or dicts."""
    both = SpanBasis(2 * ncols, rows_b)
    for a in map(sparse, rows_a):
        both._insert({**a, **{j + ncols: x for j, x in a.items()}})
    return [{j - ncols: x for j, x in row.items()}
            for row, p in zip(both.rows, both.pivots) if p >= ncols]


def rref(rows):
    """(echelon rows, pivot columns) of the RREF of rows.  Unused in the
    package; the benchmark's tracer (bench/layers.py) wraps it by name."""
    red = SpanBasis(len(rows[0]) if rows else 0, rows)
    return red.frozen_rows(), red.pivots
