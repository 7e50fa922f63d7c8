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
membership in the image of the algebra, and a witness element is recovered
by a linear solve and re-verified exactly.  Vectors of V^n are sparse
dicts, matrices are linalg.Mats (End(V)_0 and End^# bases read off their
span rows), and a matrix acts on each length-d block by linalg.apply.

The top idempotent alpha_m is the unit: each basis element e has some
alpha_j e = e = e alpha_j, and alpha_j <= alpha_m gives alpha_m alpha_j =
alpha_j, so alpha_m e = alpha_m alpha_j e = alpha_j e = e; alike on the
right.  A top-corner witness therefore needs no cutting down by alpha_m, and
the membership test reads no structure constants there; they are computed on
first use (by mul, validate or to_json).
"""

import json

from .scalars import ZERO, ONE
from .poly import parse_scalar
from . import linalg
from .linalg import (Mat, SpanBasis, CrossCheckError, mmul, mid, mat_sum,
                     close_span, square, sparse, dense, apply)

# the largest module a JSON file may hold, checked before any entry is
# parsed: what gen.rand_approx_module draws at --dimmax 12 (four 3x3
# blocks, so 36 algebra dimensions, plus 2 null dimensions); loading and
# validating cost grows about 3x per module dimension
MAX_MODULE_DIM = 14
MAX_ALGEBRA_DIM = 36


class ApproxAlgebra:
    """Associative algebra on a finite basis with sparse structure constants
    and a distinguished increasing idempotent chain.  `sc` maps (i, j) to
    the nonzero coordinates {t: c} of e_i e_j; given as a function returning
    that dict, it runs on the first read of `sc`."""

    __slots__ = ("dim", "_sc", "chain", "labels")

    def __init__(self, dim, sc, chain, labels=None, check=True, check_assoc=True):
        self.dim = dim
        self._sc = sc if callable(sc) else lambda: sc
        self.chain = tuple(tuple(x for x in a) for a in chain)
        if labels is None:
            labels = tuple("e%d" % t for t in range(dim))
        self.labels = tuple(labels)
        if not self.chain:
            raise ValueError("the idempotent chain must be nonempty")
        for a in self.chain:
            if len(a) != dim:
                raise ValueError("chain element has wrong length")
        if check:
            self.validate(check_assoc=check_assoc)

    @property
    def sc(self):
        if callable(self._sc):
            self._sc = {key: {t: c for t, c in row.items() if c}
                        for key, row in self._sc().items() if any(row.values())}
        return self._sc

    def mul(self, x, y):
        """Product of two elements given by coordinates."""
        out = [ZERO] * self.dim
        ynz = sparse(y).items()
        for i, xi in sparse(x).items():
            for j, yj in ynz:
                row = self.sc.get((i, j))
                if row:
                    f = xi * yj
                    for t, c in row.items():
                        out[t] = out[t] + f * c
        return tuple(out)

    def basis_elem(self, t):
        return tuple(ONE if s == t else ZERO for s in range(self.dim))

    def validate(self, check_assoc=True):
        chain = self.chain
        for a in range(len(chain)):
            for b in range(a, len(chain)):
                lo, hi = chain[a], chain[b]
                if self.mul(lo, hi) != lo or self.mul(hi, lo) != lo:
                    raise ValueError("chain elements %d and %d do not absorb" % (a, b))
        for t in range(self.dim):
            e = self.basis_elem(t)
            if not any(self.mul(al, e) == e and self.mul(e, al) == e for al in chain):
                raise ValueError("basis element %d is absorbed by no chain idempotent" % t)
        if check_assoc:
            basis = [self.basis_elem(t) for t in range(self.dim)]
            for i in range(self.dim):
                for j in range(self.dim):
                    ij = self.mul(basis[i], basis[j])
                    for t in range(self.dim):
                        if self.mul(ij, basis[t]) != self.mul(basis[i], self.mul(basis[j], basis[t])):
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
                if prod != self.act(A.mul(A.basis_elem(i), A.basis_elem(j))):
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
            "idempotent_chain": [[c.json_str() for c in a] for a in A.chain],
            "dim": self.dim,
            "action": [[c.json_str() for row in m for c in row] for m in self.mats],
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
            sc = {}
            for i, a in enumerate(mats):
                for j, b in enumerate(mats):
                    coords = basis.coords(mmul(a, b).flat())
                    if coords is None:
                        raise ValueError("basis is not closed under products")
                    sc[(i, j)] = dict(enumerate(coords))
            return sc

        algebra = ApproxAlgebra(len(mats), products, [id_coords], check=False)
        return cls(algebra, n, mats, check=False)

    @classmethod
    def from_json(cls, text):
        data = json.loads(text)
        labels = data["basis"]
        n = len(labels)
        dim = data["dim"]
        if type(dim) is not int or not 0 <= dim <= MAX_MODULE_DIM:  # not a JSON true
            raise ValueError("module dimension %r must be an integer from 0 to %d"
                             % (dim, MAX_MODULE_DIM))
        if n > MAX_ALGEBRA_DIM:
            raise ValueError("algebra basis has %d elements; at most %d are read"
                             % (n, MAX_ALGEBRA_DIM))
        sc = {}
        for key, row in data["structure_constants"].items():
            i, j = (int(x) for x in key.split(","))
            sc[(i, j)] = {int(t): parse_scalar(s) for t, s in row.items()}
        chain = [[parse_scalar(s) for s in a] for a in data["idempotent_chain"]]
        alg = ApproxAlgebra(n, sc, chain, labels)
        mats = [square(flat, dim, parse_scalar, "action matrix %d" % t)
                for t, flat in enumerate(data["action"])]
        # unitality is a property of the module (is_approx_unital), not a
        # condition of the format: junk-padded modules round-trip too
        return cls(alg, dim, mats, require_unital=False)

    def __repr__(self):
        return "ApproxModule(algebra dim=%d, dim=%d)" % (self.algebra.dim, self.dim)


def _corner_span(M, j1, j2):
    """Span of P_{j1} . End(V) . P_{j2}: the products P_{j1} E_rc P_{j2}
    over the matrix units E_rc, each the outer product of column r of
    P_{j1} with row c of P_{j2}."""
    d = M.dim
    cols = M.idem_mat(j1).cols
    rows = [row.items() for row in M.idem_mat(j2).rows]
    return SpanBasis(d * d, [{i * d + k: x * y for i, x in cols[r].items() for k, y in rows[c]}
                             for r in range(d) for c in range(d)])


def end_zero_basis(M):
    """Basis of the reachable part of End(V): the span of all chain corners
    P_j F P_j.  Computed twice (all corners together, and the top corner
    alone, which contains the others since the chain increases) and
    cross-checked.  Returns (basis Mats, span)."""
    d = M.dim
    full = SpanBasis(d * d, [row for j in range(len(M.algebra.chain))
                             for row in _corner_span(M, j, j).rows])
    top_j = len(M.algebra.chain) - 1
    top = _corner_span(M, top_j, top_j)
    if not full.same_span(top):
        raise CrossCheckError("corner span computations disagree")
    return [Mat.from_flat(row, d, d) for row in full.rows], full


class SharpResult:
    """Outcome of a membership test: the verdict, the witness element on
    success, and the violated module plus escaping vector on failure."""

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
    """The stacked basis tuple u of V_j, its length n, the basis-element
    actions on u (u and the actions as zero-free sparse vectors), and the
    module W they span inside V^n (W contains u because the corner
    idempotent fixes every u_i).  Built once per corner index j and kept in
    `tuples`."""
    if j not in tuples:
        d = M.dim
        basis = M.V_j(j).rows
        n = len(basis)
        u = {i * d + k: x for i, b in enumerate(basis) for k, x in b.items()}
        acts = [apply(m, u, d) for m in M.mats]
        W = SpanBasis(n * d, acts)
        tuples[j] = (u, n, acts, W)
    return tuples[j]


def end_sharp_membership(M, phi):
    """Decide whether phi lies in the image of the algebra action; see the
    module docstring for the procedure."""
    return _membership(M, phi, {})


def _membership(M, phi, tuples):
    """end_sharp_membership, taking the corner tuple modules from `tuples`."""
    phi = Mat.of(phi)
    d = M.dim
    corner_j = None
    for j in range(len(M.algebra.chain)):
        P = M.idem_mat(j)
        if mmul(mmul(P, phi), P) == phi:
            corner_j = j
            break
    if corner_j is None:
        raise ValueError("the endomorphism lies in no chain corner; "
                         "it cannot be an image element")
    u, n, acts, W = _tuple_module(M, corner_j, tuples)
    tuple_vec = dense(u, n * d)
    if n == 0:
        return SharpResult(True, witness=(ZERO,) * M.algebra.dim, j=corner_j,
                           tuple_vec=tuple_vec)
    for row in W.rows:
        moved = apply(phi, row, d)
        if not W.contains(moved):
            return SharpResult(False, j=corner_j, tuple_vec=tuple_vec, submodule=W,
                               escaped=(dense(row, n * d), dense(moved, n * d)))
    # recover a witness: solve phi.u = pi(a).u in the element coordinates,
    # then cut a down to the corner so the equality extends from V_j to V
    sol = linalg.solve(*_witness_system(acts, apply(phi, u, d)), len(acts))
    if sol is None:
        raise CrossCheckError("invariance held but no witness solves the system")
    a = tuple(sol)
    if corner_j < len(M.algebra.chain) - 1:  # the top idempotent is the unit
        alpha = M.algebra.chain[corner_j]
        a = M.algebra.mul(M.algebra.mul(alpha, a), alpha)
    if M.act(a) != phi:
        raise CrossCheckError("witness verification failed")
    return SharpResult(True, witness=a, j=corner_j, tuple_vec=tuple_vec)


def _witness_system(acts, rhs):
    """The witness system sum_t x_t acts[t] = rhs of zero-free sparse vectors
    as (rows, rhs), one zero-free row {t: acts[t][s]} per coordinate s where
    some acts[t] or rhs is nonzero: the rows left out read 0 = 0.  An empty
    row with a nonzero rhs stays, so an inconsistent system stays so.  Some
    row always stays: the corner idempotent acts as the identity on u."""
    rows = {s: {} for s in rhs}
    for t, a in enumerate(acts):
        for s, x in a.items():
            rows.setdefault(s, {})[t] = x
    return list(rows.values()), [rhs.get(s, ZERO) for s in rows]


def _end_sharp(M, tuples):
    """End^# as a subspace of End(V): the elements of the corner span whose
    diagonal action preserves the module generated by the top basis tuple,
    computed as one nullspace.  Returns (End^# basis Mats, End^# span,
    End(V)_0 span), taking the top corner's tuple module from `tuples`."""
    corner_mats, end_zero = end_zero_basis(M)
    d = M.dim
    _, n, _, W = _tuple_module(M, len(M.algebra.chain) - 1, tuples)
    rows = []  # x solves them iff sum_i x_i C_i maps every row of W into W
    for wrow in W.rows:
        # a residue's keys are the non-pivot columns where it is nonzero
        by_key = {}
        for i, C in enumerate(corner_mats):
            for t, x in W._reduce(apply(C, wrow, d)).items():
                by_key.setdefault(t, {})[i] = x
        rows.extend(by_key.values())
    sharp = SpanBasis(d * d, [
        mat_sum(((corner_mats[s], c) for s, c in v.items()), d, d).flat()
        for v in SpanBasis(len(corner_mats), rows).nullspace()])
    return [Mat.from_flat(r, d, d) for r in sharp.rows], sharp, end_zero


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
    sharp_mats, sharp, end_zero = _end_sharp(M, tuples)
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
    for mat in sharp_mats:
        res = _membership(M, mat, tuples)
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
            val = sum((x * srow[s] for s, x in func.items() if s in srow), ZERO)
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
    left = SpanBasis(d * d)
    for t in range(A.dim):
        elem = A.mul(A.mul(A.chain[j1], A.basis_elem(t)), A.chain[j2])
        left._insert(M.act(elem).flat())
    corner = _corner_span(M, j1, j2)
    image = M.image_span()
    right = SpanBasis(d * d, linalg.subspace_intersection(
        image.rows, corner.rows, d * d))
    ok = left.same_span(right)
    dims = {"dim_left": len(left.rows), "dim_right": len(right.rows)}
    return CheckReport("corner_identity", "pass" if ok else "fail", dims)


def generated_tuple_module(M, w, n):
    """Smallest action-invariant subspace of V^n containing w."""
    d = M.dim
    return close_span(SpanBasis(n * d), [w],
                      lambda v: [apply(m, v, d) for m in M.mats])


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
        if not all(W.contains(apply(phi, row, d)) for row in W.rows):
            return dense(w, n * d)
    return None
