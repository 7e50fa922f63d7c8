"""Algebras with an increasing chain of idempotents standing in for an
approximate identity, modules over them, and the double-commutant test.

The chain (alpha_1 <= ... <= alpha_m) satisfies alpha_i alpha_j = alpha_i
for i <= j, and every basis element is absorbed by some alpha_j.  A module
is approximately unital when the images of the pi(alpha_j) exhaust the
space; at finite dimension that forces pi(alpha_m) = id, so strictly
smaller corners only show up on modules where the chain has not caught up
with the action (a junk summand nothing absorbs), which the constructor
permits only on request.

The membership test for End^# is the constructive one: take a chain
idempotent absorbing phi, a basis u_1..u_n of its image, the module W
generated by the single stacked tuple (u_1,..,u_n) inside V^n, and ask
whether the diagonal action of phi preserves W.  That one module decides
membership in the image of the algebra.  A witness is tried first: one
reduction of phi.u against the corner's action vectors on the tuple, factored
once together with W (linalg.solver), cut down to the corner and re-verified
exactly; only without one is W tested for invariance under phi, for the
escape of a non-member.  phi's corner is the least chain idempotent P with
phi P = phi = P phi, tested row by row.  Corners are spanned by the Kronecker
rows of RREF bases of column and row spaces, so End(V)_0, the top corner's
span, which contains every lower corner's, needs no elimination, and End^#
is one nullspace in it: its constraints are the pairings
<C_i, sum_b f_b w_b^T> with its basis C_i, built block by block from the
top corner's W (echelon rows w, nullspace functionals f).
Algebra elements and vectors of V^n are zero-free sparse dicts (linalg's
one vector type), End(V)_0 and End^# are SpanBasis spans of flattened
matrices, action matrices are linalg.Mats, and a matrix acts on each
length-d block by linalg.apply; dense tuples appear only at the edges.

The top idempotent alpha_m is the unit: each basis element e has some
alpha_j e = e = e alpha_j, and alpha_j <= alpha_m gives alpha_m alpha_j =
alpha_j, so alpha_m e = alpha_m alpha_j e = alpha_j e = e; alike on the
right.  A top-corner witness therefore needs no cutting down by alpha_m, and
the membership test reads no structure constants there; they are computed on
first use (by mul, validate or to_json).
"""

import json

from .scalars import ZERO, ONE
from .poly import scalar_parser
from . import linalg
from .linalg import (Mat, SpanBasis, CrossCheckError, mmul, mid, mat_sum, close_span,
                     kron, square, sparse, dense, dot, apply, json_field, json_load, _axpy)

# the largest module a JSON file may hold, checked before any entry is
# parsed: what gen.rand_approx_module draws at --dimmax 12 (four 3x3
# blocks, so 36 algebra dimensions, plus 2 null dimensions); near there the
# load grows about 1.3-1.5x per module dimension, mostly parsing the action
MAX_MODULE_DIM = 14
MAX_ALGEBRA_DIM = 36


class ApproxAlgebra:
    """Associative algebra on a finite basis with sparse structure constants
    and a distinguished increasing idempotent chain.  An element is the
    zero-free dict {t: c} of its coordinates; `sc` maps (i, j) to that of
    e_i e_j and, given as a function returning the map, runs on the first
    read of `sc`.  The chain is given as sequences or dicts, kept as dicts."""

    __slots__ = ("dim", "_sc", "chain", "labels")

    def __init__(self, dim, sc, chain, labels=None, check=True, check_assoc=True):
        self.dim = dim
        self._sc = sc if callable(sc) else lambda: sc
        if labels is None:
            labels = tuple("e%d" % t for t in range(dim))
        self.labels = tuple(labels)
        if not chain:
            raise ValueError("the idempotent chain must be nonempty")
        if any(not isinstance(a, dict) and len(a) != dim for a in chain):
            raise ValueError("chain element has wrong length")
        self.chain = tuple(map(sparse, chain))
        if check:
            self.validate(check_assoc=check_assoc)

    @property
    def sc(self):
        if callable(self._sc):
            self._sc = {key: r for key, row in self._sc().items() if (r := sparse(row))}
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

    def validate(self, check_assoc=True):
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
        if check_assoc:  # (e_i e_j) e_t against e_i (e_j e_t)
            for i in range(self.dim):
                for j in range(self.dim):
                    ij = sc.get((i, j), {})
                    for t in range(self.dim):
                        if mul(ij, {t: ONE}) != mul({i: ONE}, sc.get((j, t), {})):
                            raise ValueError("associativity fails on triple (%d,%d,%d)"
                                             % (i, j, t))

    @classmethod
    def from_blocks(cls, sizes, check=True):
        """Direct sum of full matrix algebras; basis = matrix units, chain =
        partial sums of the block identities."""
        sizes = list(sizes)
        if not sizes:
            raise ValueError("need at least one block")
        dim = sum(d * d for d in sizes)
        labels, sc, chain = [], {}, []
        acc = [ZERO] * dim
        base = 0  # unit (r, c) of block b is basis element base + r*d + c
        for b, d in enumerate(sizes):
            for r in range(d):
                for c in range(d):
                    labels.append("b%d:%d%d" % (b, r, c))
                    for c2 in range(d):
                        sc[(base + r * d + c, base + c * d + c2)] = {base + r * d + c2: ONE}
                acc[base + r * d + r] = ONE
            chain.append(tuple(acc))
            base += d * d
        return cls(dim, sc, chain, labels, check=check, check_assoc=False)

    @classmethod
    def from_matrix_basis(cls, mats):
        """Algebra spanned by matrices, which must be closed under product
        and contain the identity: ApproxModule.from_span, checked.  Returns
        the algebra together with its defining module."""
        mats = [Mat.of(m) for m in mats]
        n = mats[0].nrows
        module = ApproxModule.from_span(SpanBasis(n * n, [m.flat() for m in mats]), n)
        module.algebra.validate(check_assoc=False)
        module.validate()
        return module.algebra, module

    def __repr__(self):
        return "ApproxAlgebra(dim=%d, chain=%d)" % (self.dim, len(self.chain))


def block_module(sizes, check=True):
    """Block matrix algebra acting on the direct sum of its column spaces;
    returns (algebra, module)."""
    alg = ApproxAlgebra.from_blocks(sizes, check=check)
    dim = sum(sizes)
    mats = []
    off = 0
    for d in sizes:
        mats += [Mat([{c: ONE} if i == r else {} for i in range(dim)], dim)
                 for r in range(off, off + d) for c in range(off, off + d)]
        off += d
    return alg, ApproxModule(alg, dim, mats, check=check)


class ApproxModule:
    """Module over an ApproxAlgebra: one action matrix per basis element.

    The matrices are immutable Mats, so the chain idempotents' action
    matrices and the image span are computed on first use and kept."""

    __slots__ = ("algebra", "dim", "mats", "_idem", "_image")

    def __init__(self, algebra, dim, mats, check=True, require_unital=True):
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
            self.validate(require_unital=require_unital)

    def act(self, coords):
        """The action matrix of the element with the given coordinates,
        summed over the nonzero entries of the basis actions."""
        return mat_sum(((self.mats[t], c) for t, c in sparse(coords).items()),
                       self.dim, self.dim)

    def idem_mat(self, j):
        if self._idem[j] is None:
            self._idem[j] = self.act(self.algebra.chain[j])
        return self._idem[j]

    def validate(self, require_unital=True):
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
        if require_unital and not self.is_approx_unital():
            raise ValueError("module is not approximately unital "
                             "(no chain idempotent acts as the identity)")

    def is_approx_unital(self):
        """The images of the chain idempotents exhaust the space: since the
        chain increases, the top idempotent must act as the identity."""
        return self.idem_mat(len(self.algebra.chain) - 1) == mid(self.dim)

    def image_span(self):
        """Row-reduced span of the action image inside End(V); read only."""
        if self._image is None:
            self._image = SpanBasis(self.dim * self.dim, [m.flat() for m in self.mats])
        return self._image

    def V_j(self, j):
        """Column space of the j-th chain idempotent."""
        return SpanBasis(self.dim, self.idem_mat(j).cols)

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
        """The module of a to_json text; a malformed field or a basis index
        out of range is refused by name, a size above MAX_MODULE_DIM or
        MAX_ALGEBRA_DIM, or a chain longer than the basis plus one, before
        any entry is parsed."""
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
        parse, sc = scalar_parser(), {}
        for key in consts:
            ij = key.split(",")
            if len(ij) != 2 or not all(map(str.isdecimal, ij)):
                raise ValueError("structure constant key %r must be two basis indices "
                                 "'i,j'" % key)
            row = json_field(consts, key, dict, "structure constant %r is" % key)
            if bad := [t for t in row if not t.isdecimal()]:
                raise ValueError("structure constant %r has the entry key %r; it must "
                                 "be a basis index" % (key, bad[0]))
            sc[tuple(map(int, ij))] = {int(t): parse(s) for t, s in row.items()}
        if not all(0 <= x < n for (i, j), row in sc.items() for x in (i, j, *row)):
            raise ValueError("a structure constant names a basis index outside 0 to %d"
                             % (n - 1))
        chain = [[parse(s) for s in a] for a in chain]
        alg = ApproxAlgebra(n, sc, chain, data["basis"])
        mats = [square(flat, dim, parse, "action matrix %d" % t)
                for t, flat in enumerate(action)]
        # unitality is a property of the module (is_approx_unital), not a
        # condition of the format: junk-padded modules round-trip too
        return cls(alg, dim, mats, require_unital=False)

    def __repr__(self):
        return "ApproxModule(algebra dim=%d, dim=%d)" % (self.algebra.dim, self.dim)


def _corner_gens(M, j1, j2):
    """Flattened generators of P_{j1} . End(V) . P_{j2}, the outer products
    c r^T: the Kronecker rows c (x) r of the RREF bases c of col(P_{j1})
    and r of row(P_{j2}), rank^2 rows in RREF with ascending pivots, since
    c (x) r is 1 at (pivot c, pivot r) and zero at every other such pair."""
    d = M.dim
    cols = M.V_j(j1).rows
    rows = SpanBasis(d, M.idem_mat(j2).rows).rows
    return list(kron(Mat(cols, d), Mat(rows, d)).rows)


def end_zero_basis(M):
    """End(V)_0, the reachable part of End(V), as the SpanBasis of
    flattened matrices that spans all chain corners P_j F P_j: the top
    corner's, since the chain increases.  The top corner's generators are
    its RREF rows, inserted last pivot first so that none eliminates, and
    every lower corner's generators are checked against them."""
    top_j = len(M.algebra.chain) - 1
    top = SpanBasis(M.dim * M.dim, _corner_gens(M, top_j, top_j)[::-1])
    if not all(top.contains(g) for j in range(top_j) for g in _corner_gens(M, j, j)):
        raise CrossCheckError("corner span computations disagree")
    return top


class SharpResult:
    """Outcome of a membership test: the verdict, the witness's dense
    coordinates on success, the violated module and escaping vector on failure."""

    __slots__ = ("member", "witness", "j", "tuple_vec", "submodule", "escaped")

    def __init__(self, member, witness=None, j=None, tuple_vec=None,
                 submodule=None, escaped=None):
        self.member = member
        self.witness = witness
        self.j = j
        self.tuple_vec = tuple_vec
        self.submodule = submodule
        self.escaped = escaped

    def __bool__(self):
        return self.member


def _tuple_module(M, j, tuples):
    """The stacked basis tuple u of V_j (a zero-free sparse vector), its
    length n, the module W inside V^n spanned by the basis-element actions
    on u (W contains u because the corner idempotent fixes every u_i), and
    the witness solver of those actions; W and the solver come from one
    elimination (linalg.solver).  Built once per corner index j and kept in
    `tuples`."""
    if j not in tuples:
        d = M.dim
        basis = M.V_j(j).rows
        n = len(basis)
        u = {i * d + k: x for i, b in enumerate(basis) for k, x in b.items()}
        W, solve = linalg.solver([apply(m, u) for m in M.mats], n * d)
        tuples[j] = (u, n, W, solve)
    return tuples[j]


def end_sharp_membership(M, phi):
    """Decide whether phi lies in the image of the algebra action; see the
    module docstring for the procedure."""
    return _membership(M, phi, {})


def _in_corner(P, phi):
    """P phi P = phi for an idempotent P: phi P = phi and P phi = phi,
    tested row by row up to the first row that differs."""
    PT, phiT = P.T, phi.T
    return all(apply(PT, r) == r and apply(phiT, p) == r for r, p in zip(phi.rows, P.rows))


def _membership(M, phi, tuples, outside=ValueError):
    """end_sharp_membership, taking the corner tuple modules and witness
    solvers from `tuples`; a phi in no chain corner raises `outside`, and a
    phi that preserves W but has no verified witness raises CrossCheckError."""
    phi = Mat.of(phi)
    d = M.dim
    if (phi.nrows, phi.ncols) != (d, d):
        raise ValueError("the endomorphism is %dx%d; the module needs %dx%d"
                         % (phi.nrows, phi.ncols, d, d))
    for corner_j in range(len(M.algebra.chain)):
        if _in_corner(M.idem_mat(corner_j), phi):
            break
    else:
        raise outside("the endomorphism lies in no chain corner; "
                      "it cannot be an image element")
    u, n, W, solve = _tuple_module(M, corner_j, tuples)
    tuple_vec = dense(u, n * d)
    # the witness first: solve phi.u = pi(a).u in the element coordinates,
    # then cut a down to the corner so the equality extends from V_j to V
    a = solve(apply(phi, u))
    if a is not None:
        if corner_j < len(M.algebra.chain) - 1:  # the top idempotent is the unit
            alpha = M.algebra.chain[corner_j]
            a = M.algebra.mul(M.algebra.mul(alpha, a), alpha)
        if M.act(a) == phi:
            return SharpResult(True, witness=dense(a, M.algebra.dim), j=corner_j,
                               tuple_vec=tuple_vec)
    if escaped := W.escape(phi):
        return SharpResult(False, j=corner_j, tuple_vec=tuple_vec, submodule=W,
                           escaped=tuple(dense(v, n * d) for v in escaped))
    raise CrossCheckError("invariance held but no witness solves the system" if a is None
                          else "witness verification failed")


def _end_sharp(M, tuples):
    """End^# in End(V): the x with f(C w) = 0 for C = sum_i x_i C_i over the
    End(V)_0 basis C_i (its echelon rows), every echelon row w and
    nullspace functional f of the top tuple module W.  f(C w) = <C, G> for
    G = sum_b f_b w_b^T over the length-d blocks b (vec(A X B) = (B^T kron
    A) vec X), so a constraint row pairs one G with the C_i.  The pairing
    and the combination read one Mat, ZT, the transpose of the C_i's: its
    row s holds entry s of each C_i, and apply(ZT, x) is C.  Returns the
    spans (End^#, End(V)_0) of flattened matrices, taking the top tuple
    module from `tuples`."""
    end_zero = end_zero_basis(M)
    d = M.dim
    _, n, W, _ = _tuple_module(M, len(M.algebra.chain) - 1, tuples)
    ZT = Mat(end_zero.rows, d * d).T
    by_block = {}  # block b -> {index r of an echelon row w of W: w_b}
    for r, w in enumerate(W.rows):
        for s, x in w.items():
            b, k = divmod(s, d)
            by_block.setdefault(b, {}).setdefault(r, {})[k] = x
    rows = []
    for f in W.nullspace():
        grams = {}  # r -> G for f and echelon row r, flattened row-major
        for s, x in f.items():
            b, i = divmod(s, d)
            for r, wb in by_block.get(b, {}).items():
                _axpy(grams.setdefault(r, {}), x, wb, i * d)
        for G in grams.values():
            row = {}
            for s, y in G.items():
                _axpy(row, y, ZT.rows[s])
            if row:
                rows.append(row)
    sharp = SpanBasis(d * d, [apply(ZT, x) for x in SpanBasis(end_zero.dim, rows).nullspace()])
    return sharp, end_zero


class CheckReport:
    """Uniform pass/fail report with dimension bookkeeping and an optional
    failure witness."""

    __slots__ = ("check", "status", "dims", "witness")

    def __init__(self, check, status, dims, witness=None):
        self.check = check
        self.status = status
        self.dims = dims
        self.witness = witness

    @property
    def ok(self):
        return self.status == "pass"

    def to_dict(self):
        out = {"check": self.check, "status": self.status, "dims": dict(self.dims)}
        if self.witness is not None:
            out["witness"] = self.witness
        return out


def double_commutant_check(M):
    """Compare the action image with End^#, both as subspaces of End(V).

    One containment (image inside End^#) is checked directly; the other is
    established constructively by running the membership test on every
    element of a basis of End^#, which also recovers explicit witnesses.
    On failure the report carries a separating functional."""
    image = M.image_span()
    tuples = {}
    sharp, end_zero = _end_sharp(M, tuples)
    d = M.dim
    dims = {
        "dim_V": d,
        "dim_image": len(image.rows),
        "dim_sharp": len(sharp.rows),
        "dim_end_zero": len(end_zero.rows),
    }
    for row in image.rows:
        if not sharp.contains(row):
            return CheckReport("double_commutant", "fail", dims,
                               witness={"kind": "image_not_in_sharp",
                                        "matrix": [str(c) for c in dense(row, d * d)]})
    for row in sharp.rows:  # End^# lies in the top corner: none outside is a defect
        res = _membership(M, Mat.from_flat(row, d, d), tuples, CrossCheckError)
        if not res.member:
            func = _separating_functional(image, sharp)
            return CheckReport("double_commutant", "fail", dims,
                               witness={"kind": "sharp_not_in_image",
                                        "separating_functional": func})
    if len(image.rows) != len(sharp.rows):
        return CheckReport("double_commutant", "fail", dims,
                           witness={"kind": "dimension_mismatch"})
    return CheckReport("double_commutant", "pass", dims)


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
    {X : P_{j1} X P_{j2} = X}; both sides computed independently."""
    A = M.algebra
    d = M.dim
    flats = [m.flat() for m in M.mats]
    left = SpanBasis(d * d)
    for t in range(A.dim):
        row = {}  # the flattened action of alpha_{j1} e_t alpha_{j2}
        for s, c in A.mul(A.mul(A.chain[j1], {t: ONE}), A.chain[j2]).items():
            _axpy(row, c, flats[s])
        left._insert(row)
    right = SpanBasis(d * d, linalg.subspace_intersection(
        M.image_span().rows, _corner_gens(M, j1, j2), d * d))
    ok = left.same_span(right)
    dims = {"dim_left": len(left.rows), "dim_right": len(right.rows)}
    return CheckReport("corner_identity", "pass" if ok else "fail", dims)


def generated_tuple_module(M, w, n):
    """Smallest action-invariant subspace of V^n containing w."""
    return close_span(n * M.dim, [w], M.mats)


def submodule_grid_check(M, phi, n, extra=()):
    """Spot-check of the universal quantifier behind End^#: when phi passes
    the membership test, the module generated by each grid vector of V^n
    (standard basis tuples plus any extras) must be preserved by the
    diagonal action of phi.  Returns None, or the offending generator."""
    d = M.dim
    if not end_sharp_membership(M, phi).member:
        return None
    phi = Mat.of(phi)
    grid = [{i: ONE} for i in range(n * d)] + [sparse(w) for w in extra]
    for w in grid:
        W = generated_tuple_module(M, w, n)
        if W.escape(phi):
            return dense(w, n * d)
    return None
