"""Exact linear algebra over Q(i).

Matrices are tuples of tuples of Scalar (immutable once built); row vectors
inside the elimination routines are plain lists.  Storage stays dense, but
the matrices met in practice (matrix units, nilpotent actions) are mostly
zeros, so the inner loops run over nonzero entries only: `mat_vec` and
`mmul` collect the nonzero support of a vector or row once, `rref`
eliminates along the support of the pivot row, and `SpanBasis` keeps the
nonzero support of each echelon row next to the row.  Everything here is
plain Gauss-Jordan with the pivot normalized to 1; no pivoting heuristics
are needed since arithmetic is exact, and scanning order keeps results
deterministic.

Two routines carry ideas the other modules share: `close_span` closes a
subspace under a set of generators (submodules, tuple modules, word
algebras and invariance grids all use it), and `block_diag` builds every
block-diagonal matrix (direct sums and the block assemblies).
"""

from .scalars import ZERO, ONE


class CrossCheckError(AssertionError):
    """Two independent computations of the same exact result disagree (the
    two kernel routes, the two End(V)_0 corner spans, the two relation
    evaluations, or a recovered End^# witness).  Exact arithmetic leaves no
    tolerance, so this is a defect, never a verdict about the input."""


def freeze(rows):
    return tuple(tuple(r) for r in rows)


def mzeros(r, c):
    row = (ZERO,) * c
    return tuple(row for _ in range(r))


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


def rref(rows):
    """Reduced row echelon form.  Returns (rows, pivot_columns); zero rows
    are dropped (zero input rows before elimination starts)."""
    work = [list(r) for r in rows if any(r)]
    nrows = len(work)
    ncols = len(work[0]) if work else 0
    pivots = []
    r = 0
    for col in range(ncols):
        pivot_row = None
        for i in range(r, nrows):
            if work[i][col]:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        work[r], work[pivot_row] = work[pivot_row], work[r]
        prow = work[r]
        # rows r.. vanish left of col, so the pivot row's support starts there
        supp = [j for j in range(col, ncols) if prow[j]]
        inv = prow[col].inverse()
        for j in supp:
            prow[j] = prow[j] * inv
        for i in range(nrows):
            row = work[i]
            c = row[col]
            if i != r and c:
                for j in supp:
                    row[j] = row[j] - c * prow[j]
        pivots.append(col)
        r += 1
        if r == nrows:
            break
    return [work[i] for i in range(r)], pivots


def rank(rows):
    return len(rref(rows)[0])


def nullspace(rows, ncols):
    """Basis of {x : A x = 0} for A given by rows; each basis vector has a 1
    in one free column, deterministic order."""
    red, pivots = rref(rows)
    pivot_set = set(pivots)
    free = [j for j in range(ncols) if j not in pivot_set]
    basis = []
    for f in free:
        v = [ZERO] * ncols
        v[f] = ONE
        for rrow, p in zip(red, pivots):
            if rrow[f]:
                v[p] = -rrow[f]
        basis.append(tuple(v))
    return basis


def solve(rows, rhs):
    """One solution x of A x = b, or None.  rows: list of rows of A."""
    if not rows:
        return () if not any(rhs) else None
    ncols = len(rows[0])
    aug = [list(r) + [b] for r, b in zip(rows, rhs)]
    red, pivots = rref(aug)
    x = [ZERO] * ncols
    for rrow, p in zip(red, pivots):
        if p == ncols:
            return None  # inconsistent: pivot in the rhs column
        x[p] = rrow[ncols]
    return tuple(x)


class SpanBasis:
    """Incrementally maintained RREF basis of a span of row vectors.

    add() reports whether the span grew; coords() expresses a member in the
    current echelon rows.  Rows are kept fully reduced, so reduction below is
    a single pass in pivot order.  `supports[i]` lists the columns where
    `rows[i]` is nonzero, ascending; reduction touches only those.  add()
    replaces a row it changes by a new list, so a row once read is never
    modified.
    """

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
        at = 0
        while at < len(self.pivots) and self.pivots[at] < pivot:
            at += 1
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

    def frozen_rows(self):
        return freeze(self.rows)

    def same_span(self, other):
        """Equality of spans; RREF is canonical so row comparison suffices."""
        if self.dim != other.dim or self.pivots != other.pivots:
            return False
        return self.frozen_rows() == other.frozen_rows()


def close_span(span, seeds, step):
    """Close the SpanBasis `span` under `step`: add each seed, then add every
    vector of step(v) for each v that grew the span, breadth first, until
    nothing new appears.  Returns `span`."""
    frontier = [v for v in seeds if span.add(v)]
    while frontier:
        frontier = [w for v in frontier for w in step(v) if span.add(w)]
    return span


def subspace_intersection(rows_a, rows_b, ncols):
    """Basis of (span of rows_a) intersect (span of rows_b)."""
    a = [r for r in rows_a if any(r)]
    b = [r for r in rows_b if any(r)]
    if not a or not b:
        return []
    # kernel of M^T where M has the a-rows then b-rows:
    # alpha . A + beta . B = 0  <=>  alpha . A = -beta . B in the intersection
    m = a + b
    cols = len(m)
    kernel_rows = [[m[t][j] for t in range(cols)] for j in range(ncols)]
    out = SpanBasis(ncols)
    for vec in nullspace(kernel_rows, cols):
        comb = [ZERO] * ncols
        for t in range(len(a)):
            if vec[t]:
                comb = [x + vec[t] * y for x, y in zip(comb, a[t])]
        out.add(comb)
    return out.frozen_rows()


def det(mat):
    """Exact determinant by elimination (scalar entries)."""
    n = len(mat)
    work = [list(r) for r in mat]
    total = ONE
    for col in range(n):
        pivot_row = None
        for i in range(col, n):
            if work[i][col]:
                pivot_row = i
                break
        if pivot_row is None:
            return ZERO
        if pivot_row != col:
            work[col], work[pivot_row] = work[pivot_row], work[col]
            total = -total
        pv = work[col][col]
        total = total * pv
        inv = pv.inverse()
        for i in range(col + 1, n):
            if work[i][col]:
                c = work[i][col] * inv
                work[i] = [x - c * y for x, y in zip(work[i], work[col])]
    return total


def mat_inverse(mat):
    """Exact inverse; raises on singular input."""
    n = len(mat)
    aug = [list(mat[i]) + [ONE if j == i else ZERO for j in range(n)] for i in range(n)]
    red, pivots = rref(aug)
    if pivots != list(range(n)):
        raise ValueError("matrix is singular")
    return freeze([row[n:] for row in red])
