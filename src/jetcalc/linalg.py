"""Exact linear algebra over Q(i).

A vector is sparse: a zero-free dict {index: Scalar}, since the vectors
met in practice (matrix units, nilpotent actions, stacked tuples) are
mostly zeros.  `sparse` finds the nonzeros of a dense vector (or of a dict
that may hold zeros); `dense` turns a dict back into a tuple at the edges,
and `dot` pairs two dicts over their shared keys.

A matrix is one immutable type, `Mat`: its shape and one zero-free
{column: Scalar} dict per row, with its columns built once, on first read.
`mmul`, `mat_sum` and `kron` form products, linear combinations and
Kronecker products on fresh rows, `block_diag` builds block-diagonal
matrices, and `apply`, the one matrix-vector action, maps each matrix-wide
block of a stacked vector by its columns.  `Mat.flat` and `Mat.from_flat`
convert to and from the sparse vector of row-major entries.  At the edges
`Mat.of` reads a nested sequence, `sparse` a vector and `dense` writes one;
a Mat equals only a Mat.  A `MatPolyFamily` keeps one Mat per term.
`square`, `json_load` and `json_field` read JSON matrices, texts and fields,
and `parse_entries` names the entry that does not parse.

`SpanBasis` is the one elimination: row-at-a-time Gauss-Jordan to the
reduced row echelon form (RREF), which is unique over exact arithmetic, so
no pivoting heuristics are needed and every result is canonical.  `solver`,
`mat_inverse` and `subspace_intersection` each read one SpanBasis.  Beside
it, `close_span` closes a span under a list of Mats (submodules, tuple
modules, word algebras, invariance grids, ideal images), mapping each new
echelon row, which is sparser than the vector inserted (a Meat-Axe spin),
and `SpanBasis.escape` is the one invariance test.

Every update y += c x is one fused `_axpy` on the Scalars' integer parts.
A unit factor (c or x = +-1) forms no product: a new entry is the other
factor itself or its negation, so rows share Scalars, which never change.
Every other updated entry, like each entry of a scaled pivot row and each
`dot`, is normalized once, by `scalars._mk`.  Every matrix update goes
through three row kernels: `_put` adds c M and `_kron_into` c (A kron B) at
an offset, and `_mul_into` adds A B (Gustavson).  No `_axpy` call is a
no-op: the kernels and `apply` skip empty rows, and the elimination unit
rows {p: 1}.  Only approxalg also calls `_axpy`, for algebra products and
End^# Gram sums.
"""

import json
from bisect import bisect_left

from .scalars import Scalar, ZERO, ONE, _mk


class CrossCheckError(AssertionError):
    """Two independent computations of one exact result disagree (kernel
    routes, End(V)_0 corner spans, relation evaluations, an End^# element
    in no corner, or a recovered End^# witness), or a reduction leaves a
    residue under an existing pivot: a defect, never a verdict about the input."""


def sparse(v):
    """The nonzero entries of a sequence, or of a dict that may hold zeros,
    as a new dict {index: entry}; int entries become Scalars."""
    return {j: Scalar(x) if isinstance(x, int) else x
            for j, x in (v.items() if isinstance(v, dict) else enumerate(v)) if x}


def dot(u, v):
    """The sum of u[j] v[j] over the keys j that the zero-free sparse
    vectors u and v share; u is the one scanned.  The products are summed
    on the raw integers over a common denominator, a unit u[j] giving +-v[j]
    with no product as in _axpy; a nonzero sum is normalized by one _mk."""
    a, b, d = 0, 0, 1
    for j, x in u.items():
        y = v.get(j)
        if y is not None:
            xa, xb, ya, yb, yd = x.a, x.b, y.a, y.b, y.den
            if xb or x.den != 1 or (xa != 1 and xa != -1):
                ya, yb, yd = xa * ya - xb * yb, xa * yb + xb * ya, x.den * yd
            elif xa == -1:
                ya, yb = -ya, -yb
            if yd == d:
                a += ya
                b += yb
            elif d % yd == 0:
                k = d // yd
                a += ya * k
                b += yb * k
            else:
                a, b, d = a * yd + ya * d, b * yd + yb * d, d * yd
    return _mk(a, b, d) if a or b else ZERO


def dense(v, n):
    """The length-n tuple of the sparse vector v."""
    out = [ZERO] * n
    for j, x in v.items():
        out[j] = x
    return tuple(out)


class Mat:
    """Immutable exact matrix: its shape and one zero-free {column: Scalar}
    dict per row; its columns, zero-free {row: Scalar} dicts, are built on
    first read and kept.  No dict is modified once a Mat holds it."""

    __slots__ = ("rows", "nrows", "ncols", "_cols")

    def __init__(self, rows, ncols, cols=None):
        self.rows = tuple(rows)
        self.nrows = len(self.rows)
        self.ncols = ncols
        self._cols = cols

    @classmethod
    def of(cls, m):
        """m itself if it is a Mat, else the Mat of the nested sequence m,
        as wide as its first row (0 wide without rows)."""
        if isinstance(m, Mat):
            return m
        ncols = len(m[0]) if len(m) else 0
        if any(len(row) != ncols for row in m):
            raise ValueError("ragged matrix")
        return cls([sparse(row) for row in m], ncols)

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

    def __iter__(self):  # the dense rows, read by bench/workloads.py
        return (dense(row, self.ncols) for row in self.rows)

    def __eq__(self, other):
        if isinstance(other, Mat):
            return self.ncols == other.ncols and self.rows == other.rows
        return NotImplemented

    def __hash__(self):
        return hash((self.ncols, tuple(frozenset(row.items()) for row in self.rows)))

    def __repr__(self):
        return "Mat(%r)" % (tuple(dense(row, self.ncols) for row in self.rows),)


def apply(m, v):
    """The Mat m applied to every block of m.ncols entries of the zero-free
    sparse vector v, each image at its block's offset, through m's columns;
    with more than one block m must be square.  The result is zero-free."""
    cols, d = m._cols or m.cols, m.ncols
    out = {}
    for s, y in v.items():
        off, c = divmod(s, d)
        if cols[c]:
            _axpy(out, y, cols[c], off * d)
    return out


def _axpy(out, c, row, off=0, skip=None):
    """out[off + j] += c * row[j] in place for the keys j of row other than
    `skip`, keeping out zero-free; c and the entries of row are nonzero
    Scalars, which never change, so out may share them.  A unit factor
    forms no product: where out has no entry, c x is stored as the other
    factor or its negation, and with c = +-1 a present y gains +-x.  Every
    other product is formed on the raw integers (a, b, den).  A sum with y
    is taken over a common denominator, deleted when both parts cancel and
    otherwise normalized by one _mk."""
    ca, cb, cd = c.a, c.b, c.den
    unit = ca if not cb and cd == 1 and (ca == 1 or ca == -1) else 0
    for j, x in row.items():
        if j != skip:
            j += off
            y = out.get(j)
            xa, xb, d = x.a, x.b, x.den
            if y is None:
                if unit:
                    out[j] = x if unit == 1 else -x
                elif d == 1 and not xb and (xa == 1 or xa == -1):
                    out[j] = c if xa == 1 else -c
                else:
                    out[j] = _mk(ca * xa - cb * xb, ca * xb + cb * xa, cd * d)
                continue
            if unit:
                a, b = (xa, xb) if unit == 1 else (-xa, -xb)
            else:
                a, b, d = ca * xa - cb * xb, ca * xb + cb * xa, cd * d
            yd = y.den
            if yd == d:
                a += y.a
                b += y.b
            else:
                a, b, d = a * yd + y.a * d, b * yd + y.b * d, d * yd
            if a or b:
                out[j] = _mk(a, b, d)
            else:
                del out[j]


def mid(n):
    return Mat([{i: ONE} for i in range(n)], n)


def _put(rows, m, c=ONE, roff=0, coff=0):
    """Add c m (a Mat, c a nonzero Scalar) to the row dicts rows, with m's
    corner at (roff, coff)."""
    for out, row in zip(rows[roff:], m.rows):
        if row:
            _axpy(out, c, row, coff)


def _mul_into(rows, arows, brows):
    """Add A B to the row dicts rows, A and B given by their row dicts
    (Gustavson): row i gains c times row k of B for each c = A[i][k]."""
    for out, arow in zip(rows, arows):
        for k, c in arow.items():
            row = brows[k]
            if row:
                _axpy(out, c, row)


def _kron_into(rows, a, b, coef=1, roff=0, coff=0):
    """Add coef (a kron b) (Mats, a owning the slow index, coef a nonzero
    int) to the row dicts rows, with its corner at (roff, coff)."""
    R, C = b.nrows, b.ncols
    for r, arow in enumerate(a.rows):
        for c, x in arow.items():
            _put(rows, b, x * coef if coef != 1 else x, roff + r * R, coff + c * C)


def mmul(a, b):
    """The product a b, by _mul_into on fresh rows."""
    a, b = Mat.of(a), Mat.of(b)
    if a.ncols != b.nrows:
        raise ValueError("inner dimensions %d and %d do not match" % (a.ncols, b.nrows))
    rows = [{} for _ in range(a.nrows)]
    _mul_into(rows, a.rows, b.rows)
    return Mat(rows, b.ncols)


def mat_sum(terms, nrows, ncols):
    """The nrows x ncols Mat sum of c M over the pairs (M, c), c a nonzero
    Scalar or int."""
    rows = [{} for _ in range(nrows)]
    for m, c in terms:
        _put(rows, m, Scalar(c) if isinstance(c, int) else c)
    return Mat(rows, ncols)


def block_diag(mats):
    """Block-diagonal Mat with the square matrices `mats` down the
    diagonal, in order."""
    rows = []
    for m in map(Mat.of, mats):
        off = len(rows)
        rows.extend({off + c: x for c, x in row.items()} for row in m.rows)
    return Mat(rows, len(rows))


def kron(a, b):
    """The Kronecker product of Mats, a owning the slow index: _kron_into on
    fresh rows."""
    rows = [{} for _ in range(a.nrows * b.nrows)]
    _kron_into(rows, a, b)
    return Mat(rows, a.ncols * b.ncols)


def square(flat, d, parse, what):
    """The rows of the d x d matrix of parse(e) for the row-major list
    `flat`; a ValueError naming `what` unless flat holds d*d entries, and
    naming the entry too when parse refuses it."""
    if not isinstance(flat, list):
        raise ValueError("%s must be a list of entries" % what)
    if len(flat) != d * d:
        raise ValueError("%s has %d entries; a %dx%d matrix needs %d"
                         % (what, len(flat), d, d, d * d))
    out = list(parse_entries(enumerate(flat), parse, what).values())
    return tuple(tuple(out[r * d:(r + 1) * d]) for r in range(d))


def parse_entries(items, parse, what):
    """{key: parse(e)} over the (key, e) pairs `items`; when parse refuses
    an entry, a ValueError naming `what` and the entry's key."""
    out = {}
    for key, e in items:
        try:
            out[key] = parse(e)
        except ValueError as err:
            raise ValueError("%s entry %s: %s" % (what, key, err)) from None
    return out


def json_load(text):
    """json.loads(text), raising ValueError also for nesting too deep to parse."""
    try:
        return json.loads(text)
    except RecursionError:
        raise ValueError("JSON text is nested too deeply to parse") from None


def json_field(obj, key, kind, name, lo=None, hi=None):
    """obj[key], when obj is a JSON object holding there a value of type
    `kind` (an int from lo to hi, never a JSON true or false); otherwise the
    ValueError "NAME VALUE; it must be ...", `name` naming the field."""
    x = obj.get(key) if isinstance(obj, dict) else None
    if type(x) is kind and (kind is not int or lo <= x <= hi):
        return x
    if kind is not int:
        want = "a JSON " + {list: "array", dict: "object", str: "string"}[kind]
    else:
        want = ("a positive integer no larger than %d" % hi if lo == 1
                else "an integer from %d to %d" % (lo, hi))
    raise ValueError("%s %r; it must be %s" % (name, x, want))


def mat_vec(a, v):  # wrapped by bench/layers.py
    """a v for a matrix and a dense vector of its width, as a dense tuple."""
    a = Mat.of(a)
    if len(v) != a.ncols:
        raise ValueError("a vector of length %d for a matrix of width %d" % (len(v), a.ncols))
    return dense(apply(a, sparse(v)), a.nrows)


def nullspace(rows, ncols):  # wrapped by bench/layers.py
    """Basis of {x : A x = 0} for A given by dense rows, as dense tuples."""
    return [dense(v, ncols) for v in SpanBasis(ncols, rows).nullspace()]


def solver(vecs, ncols):
    """Factor the zero-free sparse vectors `vecs` of length ncols once, as
    the RREF of the rows [vecs[t] | e_t], and return (span, solve).  `span`
    is the SpanBasis of the vecs: the left halves of the rows pivoting left
    of ncols, which are already its RREF rows, inserted last pivot first so
    that no insert eliminates.  `solve` maps a zero-free sparse vector v to
    one solution x of sum_t x_t vecs[t] = v, as a zero-free dict {t: x_t},
    or to None when v lies outside their span.  It is one reduction of
    [v | 0]: its residue [r | s] has r = v - sum_t y_t vecs[t] for y = -s,
    since each row is [sum_t c_t vecs[t] | c].  A zero vecs[t] is left out:
    its row [0 | e_t] would pivot at ncols + t, a column no other row holds,
    so the rows pivoting left of ncols and every solution stay the same."""
    red = SpanBasis(ncols + len(vecs),
                    [{**v, ncols + t: ONE} for t, v in enumerate(vecs) if v])
    left = [{j: x for j, x in row.items() if j < ncols}
            for row, p in zip(red.rows, red.pivots) if p < ncols]
    span = SpanBasis(ncols, left[::-1])

    def solve(v):
        res = red._reduce(v)
        return None if res and min(res) < ncols else {t - ncols: -x for t, x in res.items()}
    return span, solve


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
    its pivot.  _insert() returns the new echelon row, if the span grew;
    coords() expresses a member in the echelon rows; nullspace() reads the
    annihilator off them.  In RREF a row is zero at every other pivot, so
    reducing a vector clears each of its pivot entries with that pivot's row
    alone, in any order.  _insert() replaces a row it changes by a new dict,
    so a row once read is never modified.  The initial rows are read as
    _reduce reads them."""

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
            row = self._row[p]
            if len(row) > 1:  # a unit row {p: 1} has nothing past its pivot
                _axpy(out, -c, row, skip=p)
        return out

    def _insert(self, v):
        """Insert v (as _reduce reads it); the new echelon row, or None if
        the span did not grow.  A residue that keeps an existing pivot
        raises CrossCheckError."""
        v = self._reduce(v)
        if not v:
            return None
        pivot = min(v)
        if pivot in self._row:  # a correct _reduce clears every pivot
            raise CrossCheckError("a reduced row keeps the pivot %d" % pivot)
        # scale the pivot p = (pa + pb i)/pd to 1: negate at -1, else take
        # x / p = pd (pa - pb i) x / (pa^2 + pb^2), one _mk per other entry
        p = v[pivot]
        pa, pb, pd = p.a, p.b, p.den
        if pb or pd != 1 or (pa != 1 and pa != -1):
            n = pa * pa + pb * pb
            v = {j: _mk(pd * (x.a * pa + x.b * pb), pd * (x.b * pa - x.a * pb), x.den * n)
                 if j != pivot else ONE for j, x in v.items()}
        elif pa == -1:
            v = {j: -x for j, x in v.items()}
        # keep existing rows reduced against the new one: only a row whose
        # pivot precedes the new pivot can hold an entry there
        at = bisect_left(self.pivots, pivot)
        for i, row in enumerate(self.rows[:at]):
            c = row.get(pivot)
            if c is not None:
                row = {j: x for j, x in row.items() if j != pivot}
                if len(v) > 1:  # a unit row {pivot: 1} has nothing past its pivot
                    _axpy(row, -c, v, skip=pivot)
                self.rows[i] = self._row[self.pivots[i]] = row
        self.rows.insert(at, v)
        self.pivots.insert(at, pivot)
        self._row[pivot] = v
        return v

    def add(self, v):  # wrapped by bench/layers.py, which reads v densely
        """Insert v, a sequence or a dict that may hold zeros; True iff the
        dimension grew."""
        return self._insert(sparse(v)) is not None

    def contains(self, v):
        """v (as _reduce reads it) lies in the span."""
        return not self._reduce(v)

    def escape(self, m):
        """(row, apply(m, row)) for the first echelon row whose image under
        the Mat m leaves the span, or None if m maps the span into itself."""
        images = ((row, apply(m, row)) for row in self.rows)
        return next((pair for pair in images if not self.contains(pair[1])), None)

    def coords(self, v):
        """Coefficients of v against the echelon rows, as a zero-free dict
        {row index: c}, or None if v lies outside the span."""
        record = {}
        if self._reduce(v, record):
            return None
        return {bisect_left(self.pivots, p): c for p, c in record.items()}

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

    def same_span(self, other):
        """Equality of spans; RREF is canonical so row comparison suffices."""
        return self.pivots == other.pivots and self.rows == other.rows


def close_span(ncols, seeds, mats):
    """The SpanBasis of the seeds (sequences or dicts of length ncols)
    closed under the Mats `mats`: insert each seed, then map each echelon
    row an insert created by every matrix through `apply`, breadth first,
    until nothing new appears."""
    span = SpanBasis(ncols)
    frontier = [r for r in map(span._insert, map(sparse, seeds)) if r is not None]
    while frontier:
        frontier = [r for v in frontier for m in mats
                    if (r := span._insert(apply(m, v))) is not None]
    return span


def subspace_intersection(rows_a, rows_b, ncols):
    """RREF basis of (span of rows_a) intersect (span of rows_b), as
    zero-free sparse vectors, by Zassenhaus: reduce the rows (a|a) and
    (b|0).  The combinations with a zero left half are (c|c) - (c|0) = (0|c)
    for c in both spans, so the rows pivoting in the right half are (0|c)
    for c an echelon basis.  The rows may be sequences or dicts; rows_b are
    inserted last first, so that RREF rows need no elimination."""
    both = SpanBasis(2 * ncols, list(rows_b)[::-1])
    for a in map(sparse, rows_a):
        both._insert({**a, **{j + ncols: x for j, x in a.items()}})
    return [{j - ncols: x for j, x in row.items()}
            for row, p in zip(both.rows, both.pivots) if p >= ncols]


def rref(rows):  # wrapped by bench/layers.py
    """(echelon rows as dense tuples, pivot columns) of the RREF of rows."""
    red = SpanBasis(len(rows[0]) if rows else 0, rows)
    return tuple(dense(r, red.ncols) for r in red.rows), red.pivots
