"""Algebras with an increasing chain of idempotents standing in for an
approximate identity, modules over them, and the double-commutant test.

The chain (alpha_1 <= ... <= alpha_m) satisfies alpha_i alpha_j = alpha_i
for i <= j, and every basis element is absorbed by some alpha_j.  A module
is approximately unital when the images of the pi(alpha_j) exhaust the
space; at finite dimension that forces pi(alpha_m) = id, so strictly
smaller corners only show up on modules where the chain has not caught up
with the action (a junk summand nothing absorbs).

The membership test for End^# is the constructive one: take a chain
idempotent absorbing phi, a basis u_1..u_n of its image, the module W
generated by the single stacked tuple (u_1,..,u_n) inside V^n, and ask
whether the diagonal action of phi preserves W.  That one module decides
membership in the image of the algebra, for any absorbing idempotent; the
top one, P_top, absorbs every phi that lies in some corner, since every
lower corner lies in the top one, so membership is decided there alone: a
phi outside the top corner is refused, tested row by row.  A witness is tried
first: one reduction of phi.u against the action vectors on the top tuple,
factored once together with W (linalg.solver), and re-verified exactly;
only without one is W tested for invariance under phi, for the escape of a
non-member.  double_commutant_check builds the chain's spans col(P) and
row(P) once (_idem_spans), and the top W and its solver once, for End^#
and for the membership of each of its rows.  Corners are spanned by the
Kronecker rows of RREF bases of column and row spaces, so End(V)_0, the top
corner's span, which contains every lower corner's, needs no elimination,
and End^# is one nullspace in End(V): its constraints are End(V)_0's
annihilator and one Gram matrix sum_b f_b u_b^T per nullspace functional f
of the top W, u_b the blocks of its one tuple u (C u in W makes C act on
u, and so on V, as an image element; see _end_sharp).
Algebra elements and vectors of V^n are zero-free sparse dicts (linalg's
one vector type), End(V)_0 and End^# are SpanBasis spans of flattened
matrices, action matrices are linalg.Mats, and a matrix acts on each
length-d block by linalg.apply; dense tuples appear only at the edges.

The top idempotent alpha_m is the unit: each basis element e has some
alpha_j e = e = e alpha_j, and alpha_j <= alpha_m gives alpha_m alpha_j =
alpha_j, so alpha_m e = alpha_m alpha_j e = alpha_j e = e; alike on the
right.  A witness therefore needs no cutting down by alpha_m, and the
membership test reads no structure constants; they are computed on first
use (by mul, validate or to_json).
"""

import json
import re

from .scalars import Scalar, ONE
from .poly import scalar_parser
from .localmod import MAX_DIM
from . import linalg
from .linalg import (Mat, SpanBasis, CrossCheckError, EMPTY, mmul, mat_sum, close_span,
                     kron, square, parse_entries, sparse, dense, dot, apply, json_field,
                     json_load, _axpy, _mul_into)

# the largest module a JSON file may hold, checked before any entry is
# parsed: what gen.rand_approx_module draws at the --dimmax ceiling MAX_DIM.
# Its blocks have size at most 3, so the algebra has at most 3 * MAX_DIM
# dimensions (sum d^2 <= 3 sum d), and its module at most 2 null dimensions
# besides; near there the load grows about 1.3-1.5x per module dimension,
# mostly parsing the action
MAX_MODULE_DIM = MAX_DIM + 2
MAX_ALGEBRA_DIM = 3 * MAX_DIM

# the one spelling of a basis index in a JSON key: ASCII decimal without a
# leading zero ("01" and the Arabic-Indic digit one are refused, not read as 1)
_canonical = re.compile("0|[1-9][0-9]*").fullmatch


def _held(v):
    """v itself when it is a zero-free dict of Scalars, which is held as
    given, else sparse(v)."""
    if isinstance(v, dict) and all(type(x) is Scalar and x for x in v.values()):
        return v
    return sparse(v)


class ApproxAlgebra:
    """Associative algebra on a finite basis with sparse structure constants
    and a distinguished increasing idempotent chain.  An element is the
    zero-free dict {t: c} of its coordinates; `sc` maps (i, j) to that of
    e_i e_j and, given as a function returning the map, runs on the first
    read of `sc`.  The chain is given as sequences or dicts, kept as dicts:
    a zero-free dict of Scalars, as a chain element or a structure-constant
    row, is held as given (see linalg on held dicts)."""

    __slots__ = ("dim", "_sc", "chain", "labels")

    def __init__(self, dim, sc, chain, labels=None, check=True):
        self.dim = dim
        self._sc = sc if callable(sc) else lambda: sc
        if labels is None:
            labels = tuple("e%d" % t for t in range(dim))
        self.labels = tuple(labels)
        if not chain:
            raise ValueError("the idempotent chain must be nonempty")
        if any(not isinstance(a, dict) and len(a) != dim for a in chain):
            raise ValueError("chain element has wrong length")
        self.chain = tuple(map(_held, chain))
        if check:
            self.validate()

    @property
    def sc(self):
        if callable(self._sc):
            self._sc = {key: r for key, row in self._sc().items() if (r := _held(row))}
        return self._sc

    def mul(self, x, y):
        """The product of two elements, zero-free dicts, as a new one."""
        sc = self.sc
        out = {}
        for i, xi in x.items():
            for j, yj in y.items():
                row = sc.get((i, j))
                if row:
                    _axpy(out, xi * yj, row)
        return out

    def validate(self):
        chain, mul, sc = self.chain, self.mul, self.sc
        for a in range(len(chain)):
            for b in range(a, len(chain)):
                lo, hi = chain[a], chain[b]
                if mul(lo, hi) != lo or mul(hi, lo) != lo:
                    raise ValueError("chain elements %d and %d do not absorb" % (a, b))
        for t in range(self.dim):
            e = {t: ONE}
            if not any(mul(al, e) == e and mul(e, al) == e for al in chain):
                raise ValueError("basis element %d is absorbed by no chain idempotent" % t)
        for i in range(self.dim):  # (e_i e_j) e_t against e_i (e_j e_t)
            for j in range(self.dim):
                ij = sc.get((i, j), {})
                for t in range(self.dim):
                    if mul(ij, {t: ONE}) != mul({i: ONE}, sc.get((j, t), {})):
                        raise ValueError("associativity fails on triple (%d,%d,%d)"
                                         % (i, j, t))

    @classmethod
    def from_blocks(cls, sizes):
        """Direct sum of full matrix algebras; basis = matrix units, chain =
        partial sums of the block identities.  Every product that is e_t
        holds the one dict {t: 1}.  Unchecked: it is valid by construction."""
        sizes = list(sizes)
        if not sizes:
            raise ValueError("need at least one block")
        dim = sum(d * d for d in sizes)
        units = [{t: ONE} for t in range(dim)]
        labels, sc, chain, acc = [], {}, [], {}
        base = 0  # unit (r, c) of block b is basis element base + r*d + c
        for b, d in enumerate(sizes):
            for r in range(d):
                for c in range(d):
                    labels.append("b%d:%d%d" % (b, r, c))
                    for c2 in range(d):
                        sc[(base + r * d + c, base + c * d + c2)] = units[base + r * d + c2]
                acc[base + r * d + r] = ONE
            chain.append(dict(acc))
            base += d * d
        return cls(dim, sc, chain, labels, check=False)

    def __repr__(self):
        return "ApproxAlgebra(dim=%d, chain=%d)" % (self.dim, len(self.chain))


def block_module(sizes):
    """Block matrix algebra acting on the direct sum of its column spaces;
    returns (algebra, module), unchecked: both are valid by construction.
    Each matrix unit holds linalg.EMPTY for its empty rows."""
    alg = ApproxAlgebra.from_blocks(sizes)
    dim = sum(sizes)
    mats = []
    off = 0
    for d in sizes:
        mats += [Mat([{c: ONE} if i == r else EMPTY for i in range(dim)], dim)
                 for r in range(off, off + d) for c in range(off, off + d)]
        off += d
    return alg, ApproxModule(alg, dim, mats, check=False)


class ApproxModule:
    """Module over an ApproxAlgebra: one action matrix per basis element.

    The matrices are immutable Mats, so the chain idempotents' action
    matrices and the image span are computed on first use and kept."""

    __slots__ = ("algebra", "dim", "mats", "_idem", "_image")

    def __init__(self, algebra, dim, mats, check=True):
        mats = tuple(map(Mat.of, mats))
        if len(mats) != algebra.dim:
            raise ValueError("need one action matrix per basis element")
        if any(m.nrows != dim or m.ncols != dim for m in mats):
            raise ValueError("action matrices must be dim x dim")
        self.algebra = algebra
        self.dim = dim
        self.mats = mats
        self._idem = [None] * len(algebra.chain)
        self._image = None
        if check:
            self.validate()

    def act(self, coords):
        """The action matrix of the element with the given coordinates,
        summed over the nonzero entries of the basis actions."""
        return mat_sum(((self.mats[t], c) for t, c in sparse(coords).items()),
                       self.dim, self.dim)

    def idem_mat(self, j):
        if self._idem[j] is None:
            self._idem[j] = self.act(self.algebra.chain[j])
        return self._idem[j]

    def validate(self):
        A = self.algebra
        for i in range(A.dim):
            for j in range(A.dim):
                prod = mmul(self.mats[i], self.mats[j])
                if prod != self.act(A.sc.get((i, j), {})):
                    raise ValueError("action is not multiplicative on pair (%d,%d)" % (i, j))
        for j in range(len(A.chain)):
            P = self.idem_mat(j)
            if mmul(P, P) != P:
                raise ValueError("chain element %d does not act idempotently" % j)

    def image_span(self):
        """Row-reduced span of the action image inside End(V); read only."""
        if self._image is None:
            self._image = SpanBasis(self.dim * self.dim, [m.flat() for m in self.mats])
        return self._image

    def to_json(self):
        A = self.algebra
        sc_obj = {}
        for (i, j), row in sorted(A.sc.items()):
            sc_obj["%d,%d" % (i, j)] = {str(t): c.json_str() for t, c in sorted(row.items())}
        return json.dumps({
            "basis": list(A.labels),
            "structure_constants": sc_obj,
            "idempotent_chain": [[c.json_str() for c in dense(a, A.dim)] for a in A.chain],
            "dim": self.dim,
            "action": [[c.json_str() for c in dense(m.flat(), self.dim * self.dim)]
                       for m in self.mats],
        })

    @classmethod
    def from_span(cls, span, n):
        """Unchecked defining module of the unital algebra of n x n matrices
        whose flattenings `span` holds.  Its basis is the echelon rows, so
        span coordinates are algebra coordinates; its chain is the identity.
        The structure constants are read off the basis products on first
        use, against the rows as they are now."""
        rows = list(span.rows)  # a row once read is never modified
        id_coords = span.coords({i * (n + 1): ONE for i in range(n)})
        if id_coords is None:
            raise ValueError("identity matrix is not in the span")
        mats = [Mat.from_flat(row, n, n) for row in rows]

        def products():
            basis = SpanBasis(n * n, rows)
            sc = {(i, j): basis.coords(mmul(a, b).flat())
                  for i, a in enumerate(mats) for j, b in enumerate(mats)}
            if None in sc.values():
                raise ValueError("basis is not closed under products")
            return sc

        algebra = ApproxAlgebra(len(mats), products, [id_coords], check=False)
        return cls(algebra, n, mats, check=False)

    @classmethod
    def from_json(cls, text):
        """The module of a to_json text; a malformed field, or a basis index
        out of range or not spelled in canonical ASCII decimal, is refused by
        name, and so are a size above MAX_MODULE_DIM or MAX_ALGEBRA_DIM, a
        chain longer than the basis plus one, and a chain element or action
        list whose length is not the basis size, before any entry is parsed.
        An entry that does not parse is named with its structure constant,
        chain element or action matrix."""
        data = json_load(text)
        n = len(json_field(data, "basis", list, "module field 'basis' is"))
        dim = json_field(data, "dim", int, "module dimension", 0, MAX_MODULE_DIM)
        if n > MAX_ALGEBRA_DIM:
            raise ValueError("algebra basis has %d elements; at most %d are read"
                             % (n, MAX_ALGEBRA_DIM))
        consts, chain, action = (
            json_field(data, key, kind, "module field %r is" % key)
            for key, kind in (("structure_constants", dict), ("idempotent_chain", list),
                              ("action", list)))
        if not all(isinstance(a, list) for a in chain):
            raise ValueError("every idempotent chain element must be a list of entries")
        # a chain without a repeat: its first element and the successive
        # differences are orthogonal idempotents, nonzero but the first
        if len(chain) > n + 1:
            raise ValueError("idempotent chain has %d elements; a basis of %d allows "
                             "at most %d" % (len(chain), n, n + 1))
        if any(len(a) != n for a in chain):
            raise ValueError("module field 'idempotent_chain': a chain element has wrong "
                             "length; a basis of %d needs %d entries" % (n, n))
        if len(action) != n:
            raise ValueError("module field 'action' holds %d matrices; a basis of %d "
                             "needs %d" % (len(action), n, n))
        parse, sc = scalar_parser(), {}
        index = {str(t): t for t in range(n)}  # a basis index by its canonical spelling
        for key in consts:
            ij = key.split(",")
            if len(ij) != 2 or not all(map(_canonical, ij)):
                raise ValueError("structure constant key %r must be two basis indices "
                                 "'i,j'" % key)
            row = json_field(consts, key, dict, "structure constant %r is" % key)
            if bad := [t for t in row if not _canonical(t)]:
                raise ValueError("structure constant %r has the entry key %r; it must "
                                 "be a basis index" % (key, bad[0]))
            if not all(x in index for x in (*ij, *row)):
                raise ValueError("a structure constant names a basis index outside 0 to %d"
                                 % (n - 1))
            sc[index[ij[0]], index[ij[1]]] = parse_entries(
                ((index[t], s) for t, s in row.items()), parse, "structure constant %r" % key)
        chain = [parse_entries(enumerate(a), parse, "idempotent chain element %d" % k)
                 for k, a in enumerate(chain)]
        alg = ApproxAlgebra(n, sc, chain, data["basis"])
        mats = [square(flat, dim, parse, "action matrix %d" % t)
                for t, flat in enumerate(action)]
        return cls(alg, dim, mats)

    def __repr__(self):
        return "ApproxModule(algebra dim=%d, dim=%d)" % (self.algebra.dim, self.dim)


def _idem_spans(M, col_js, row_js):
    """The lists of SpanBases col(P_j), j in col_js, and row(P_j), j in
    row_js, of the chain idempotents' actions P_j: the only place a span is
    built from an idempotent's columns or rows."""
    return ([SpanBasis(M.dim, M.idem_mat(j).cols) for j in col_js],
            [SpanBasis(M.dim, M.idem_mat(j).rows) for j in row_js])


def _ranks_are_traces(M, col_js, row_js, cols, rows):
    """Raise CrossCheckError unless each col(P_j) and row(P_j) has tr(P_j) rows."""
    for side, js, spans in (("col", col_js, cols), ("row", row_js, rows)):
        for j, span in zip(js, spans):
            diag = {i: r[i] for i, r in enumerate(M.idem_mat(j).rows) if i in r}
            if dot(diag, dict.fromkeys(diag, ONE)) != span.dim:
                raise CrossCheckError("%s(P_%d) has %d rows, not tr(P_%d)" % (side, j, span.dim, j))


def _corner_gens(cols, rows):
    """Flattened generators of P_{j1} . End(V) . P_{j2}, the outer products
    c r^T: the Kronecker rows c (x) r of the RREF bases c of col(P_{j1})
    and r of row(P_{j2}), rank^2 rows in RREF with ascending pivots, since
    c (x) r is 1 at (pivot c, pivot r) and zero at every other such pair."""
    d = cols.ncols
    return list(kron(Mat(cols.rows, d), Mat(rows.rows, d)).rows)


def end_zero_basis(cols, rows):
    """End(V)_0, the reachable part of End(V), as the SpanBasis of
    flattened matrices that spans all chain corners P_j F P_j, from the
    chain's spans col(P_j) and row(P_j): the top corner's, since the chain
    increases, whose RREF generators need no elimination.  A lower
    corner's c (x) r, c and r nonzero, lies in it iff c lies in the top col
    and r in the top row, which is checked."""
    if not all(all(map(cols[-1].contains, c.rows)) and all(map(rows[-1].contains, r.rows))
               for c, r in zip(cols[:-1], rows[:-1])):
        raise CrossCheckError("corner span computations disagree")
    return SpanBasis(cols[-1].ncols ** 2, _corner_gens(cols[-1], rows[-1]))


class SharpResult:
    """Outcome of a membership test: the verdict, and on success the
    witness's dense coordinates (None otherwise)."""

    __slots__ = ("member", "witness")

    def __init__(self, member, witness):
        self.member = member
        self.witness = witness


def _tuple_module(M, V):
    """The stacked basis tuple u of the span V = col(P) of a chain
    idempotent P (a zero-free sparse vector in V^n, n the rank of V), the
    module W inside V^n spanned by the basis-element actions on u (W
    contains u because P fixes every u_i), and the witness solver of those
    actions; W and the solver come from one elimination (linalg.solver)."""
    d = M.dim
    u = {i * d + k: x for i, b in enumerate(V.rows) for k, x in b.items()}
    W, solve = linalg.solver([apply(m, u) for m in M.mats], len(V.rows) * d)
    return u, W, solve


def end_sharp_membership(M, phi):
    """Decide whether phi lies in the image of the algebra action; see the
    module docstring for the procedure.  A phi outside the top corner, and
    so in no chain corner, is refused with a ValueError, and a span
    col(P_top) without tr(P_top) rows raises CrossCheckError."""
    phi = Mat.of(phi)
    d = M.dim
    if (phi.nrows, phi.ncols) != (d, d):
        raise ValueError("the endomorphism is %dx%d; the module needs %dx%d"
                         % (phi.nrows, phi.ncols, d, d))
    top = len(M.algebra.chain) - 1
    if not _in_corner(M.idem_mat(top), phi):
        raise ValueError("the endomorphism lies in no chain corner; it cannot be an "
                         "image element")
    [col], _ = _idem_spans(M, [top], ())
    _ranks_are_traces(M, [top], (), [col], ())
    return _membership(M, phi, _tuple_module(M, col))


def _in_corner(P, phi):
    """P phi P = phi for an idempotent P: phi P = phi and P phi = phi,
    tested row by row up to the first row that differs."""
    PT, phiT = P.T, phi.T
    return all(apply(PT, r) == r and apply(phiT, p) == r for r, p in zip(phi.rows, P.rows))


def _membership(M, phi, top_tuple):
    """Membership of the d x d Mat phi, given the top tuple module
    top_tuple = (u, W, solve) of _tuple_module; a phi that preserves W but
    has no verified witness raises CrossCheckError."""
    u, W, solve = top_tuple
    # the witness first: solve phi.u = pi(a).u in the element coordinates;
    # the top idempotent is the unit, so a is checked with no cutting down
    a = solve(apply(phi, u))
    if a is not None and M.act(a) == phi:
        return SharpResult(True, dense(a, M.algebra.dim))
    if W.escape(phi):
        return SharpResult(False, None)
    raise CrossCheckError("invariance held but no witness solves the system" if a is None
                          else "witness verification failed")


def _end_sharp(M, cols, rows):
    """End^# in End(V): the C in End(V)_0 with f(C u) = 0 for the top tuple
    u and every nullspace functional f of its module W.  f(C u) = <C, G>
    for G = sum_b f_b u_b^T over the length-d blocks b (vec(A X B) =
    (B^T kron A) vec X), and C lies in End(V)_0 iff it kills End(V)_0's
    annihilator: End^# is the nullspace in End(V) of those rows and the G.
    u alone suffices: C u in W gives C u_i = pi(b) u_i for some b, C and
    pi(b) vanish on ker P_top (the top idempotent is the unit), so C =
    pi(b) maps W into itself; conversely u lies in W.  Returns the spans
    (End^#, End(V)_0) of flattened matrices, from the chain's spans, and
    the top tuple module (u, W, solve) of _tuple_module."""
    end_zero = end_zero_basis(cols, rows)
    d, u = M.dim, cols[-1].rows  # u_b is the b-th basis row of col(P_top)
    top_tuple = _tuple_module(M, cols[-1])
    constraints = end_zero.nullspace()
    for f in top_tuple[1].nullspace():
        gram = {}  # G for f, flattened row-major
        for s, x in f.items():
            _axpy(gram, x, u[s // d], (s % d) * d)
        constraints.append(gram)
    sharp = SpanBasis(d * d, SpanBasis(d * d, constraints).nullspace())
    return sharp, end_zero, top_tuple


class CheckReport:
    """Uniform pass/fail report with dimension bookkeeping and an optional
    failure witness."""

    __slots__ = ("status", "dims", "witness")

    def __init__(self, status, dims, witness=None):
        self.status = status
        self.dims = dims
        self.witness = witness

    @property
    def ok(self):
        return self.status == "pass"

    def to_dict(self):
        out = {"status": self.status, "dims": dict(self.dims)}
        if self.witness is not None:
            out["witness"] = self.witness
        return out


def double_commutant_check(M):
    """Compare the action image with End^#, both as subspaces of End(V).

    One containment (image inside End^#) is checked directly; the other is
    established constructively by running the membership test on every
    element of a basis of End^#, which also recovers explicit witnesses.
    On failure the report carries a separating functional.  An idempotent's
    rank is its trace: CrossCheckError names a span col(P_j) or row(P_j)
    without tr(P_j) rows, or an End(V)_0 without tr(P_top)^2."""
    image = M.image_span()
    chain = range(len(M.algebra.chain))
    cols, rows = _idem_spans(M, chain, chain)
    _ranks_are_traces(M, chain, chain, cols, rows)
    sharp, end_zero, top_tuple = _end_sharp(M, cols, rows)
    if end_zero.dim != cols[-1].dim ** 2:
        raise CrossCheckError("End(V)_0 has %d rows, not tr(P_top)^2" % end_zero.dim)
    d = M.dim
    dims = {
        "dim_V": d,
        "dim_image": len(image.rows),
        "dim_sharp": len(sharp.rows),
        "dim_end_zero": len(end_zero.rows),
    }
    for row in image.rows:
        if not sharp.contains(row):
            return CheckReport("fail", dims,
                               witness={"kind": "image_not_in_sharp",
                                        "matrix": [str(c) for c in dense(row, d * d)]})
    # every End^# row at the top corner, which holds every lower one: a row
    # outside End(V)_0 has no witness acting as it, so it never passes
    for row in sharp.rows:
        if not _membership(M, Mat.from_flat(row, d, d), top_tuple).member:
            func = _separating_functional(image, sharp)
            return CheckReport("fail", dims,
                               witness={"kind": "sharp_not_in_image",
                                        "separating_functional": func})
    if len(image.rows) != len(sharp.rows):
        return CheckReport("fail", dims,
                           witness={"kind": "dimension_mismatch"})
    return CheckReport("pass", dims)


def _separating_functional(image, sharp):
    """A dual vector vanishing on the image but pairing nontrivially with
    some element of the sharp space."""
    for func in image.nullspace():
        for srow in sharp.rows:
            val = dot(func, srow)
            if val:
                return {"functional": [str(c) for c in dense(func, image.ncols)],
                        "sharp_element": [str(c) for c in dense(srow, sharp.ncols)],
                        "pairing": str(val)}
    return None


def corner_identity_check(M, j1, j2):
    """The image of the abstract corner alpha_{j1} A alpha_{j2} must equal
    the intersection of the action image with the concrete corner
    {X : P_{j1} X P_{j2} = X}; both sides computed independently.  A chain
    index outside 0 to len(chain) - 1 is refused with a ValueError."""
    A = M.algebra
    for j in (j1, j2):
        if not 0 <= j < len(A.chain):
            raise ValueError("chain index %d is outside 0 to %d: the chain has %d elements"
                             % (j, len(A.chain) - 1, len(A.chain)))
    d = M.dim
    flats = [m.flat() for m in M.mats]
    elems = [A.mul(A.mul(A.chain[j1], {t: ONE}), A.chain[j2]) for t in range(A.dim)]
    acts = [{} for _ in elems]  # the flattened action of each alpha_{j1} e_t alpha_{j2}
    _mul_into(acts, elems, flats)
    left = SpanBasis(d * d, acts)
    [col], [row] = _idem_spans(M, [j1], [j2])
    _ranks_are_traces(M, [j1], [j2], [col], [row])
    right = SpanBasis(d * d, linalg.subspace_intersection(
        M.image_span().rows, _corner_gens(col, row), d * d))
    ok = left.same_span(right)
    dims = {"dim_left": len(left.rows), "dim_right": len(right.rows)}
    return CheckReport("pass" if ok else "fail", dims)


def submodule_grid_check(M, phi, n, extra=()):
    """Spot-check of the universal quantifier behind End^#: when phi passes
    the membership test, the module generated by each grid vector of V^n
    (standard basis tuples plus any extras) must be preserved by the
    diagonal action of phi.  Returns None, or the offending generator.  A
    tuple length n below 1 is refused with a ValueError."""
    if n < 1:
        raise ValueError("the tuple length n is %d; it must be at least 1" % n)
    d = M.dim
    if not end_sharp_membership(M, phi).member:
        return None
    phi = Mat.of(phi)
    grid = [{i: ONE} for i in range(n * d)] + [sparse(w) for w in extra]
    for w in grid:  # the module w generates: the least invariant span holding it
        if close_span(n * d, [w], M.mats).escape(phi):
            return dense(w, n * d)
    return None
