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
by a linear solve and re-verified exactly.
"""

import json

from .scalars import ZERO, ONE
from .poly import parse_scalar
from . import linalg
from .linalg import (SpanBasis, CrossCheckError, mmul, mid, freeze, flatten,
                     unflatten, close_span, square)


class ApproxAlgebra:
    """Associative algebra on a finite basis with sparse structure constants
    and a distinguished increasing idempotent chain."""

    __slots__ = ("dim", "sc", "chain", "labels")

    def __init__(self, dim, sc, chain, labels=None, check=True, check_assoc=True):
        self.dim = dim
        cleaned = {}
        for key, row in sc.items():
            row = {t: c for t, c in row.items() if c}
            if row:
                cleaned[key] = row
        self.sc = cleaned
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

    def mul(self, x, y):
        """Product of two elements given by coordinates."""
        out = [ZERO] * self.dim
        for i, xi in enumerate(x):
            if not xi:
                continue
            for j, yj in enumerate(y):
                if not yj:
                    continue
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
        index = {}
        labels = []
        t = 0
        for b, d in enumerate(sizes):
            for r in range(d):
                for c in range(d):
                    index[(b, r, c)] = t
                    labels.append("b%d:%d%d" % (b, r, c))
                    t += 1
        dim = t
        sc = {}
        for b, d in enumerate(sizes):
            for r in range(d):
                for c in range(d):
                    i = index[(b, r, c)]
                    for c2 in range(d):
                        j = index[(b, c, c2)]
                        sc[(i, j)] = {index[(b, r, c2)]: ONE}
        chain = []
        acc = [ZERO] * dim
        for b, d in enumerate(sizes):
            for r in range(d):
                acc[index[(b, r, r)]] = ONE
            chain.append(tuple(acc))
        return cls(dim, sc, chain, labels, check=check, check_assoc=False)

    @classmethod
    def from_matrix_basis(cls, mats, check=True):
        """Algebra spanned by matrices (must be closed under product and
        contain the identity); structure constants read off by expressing
        products in the reduced basis.  Chain = the identity alone.
        Returns the algebra together with its defining module."""
        mats = [freeze(m) for m in mats]
        n = len(mats[0])
        sb = SpanBasis(n * n)
        for m in mats:
            sb.add(flatten(m))
        # the algebra basis is the echelon basis of the span, so that
        # coordinate vectors from the span line up with basis indices
        basis_mats = [unflatten(row, n, n) for row in sb.frozen_rows()]
        dim = len(basis_mats)
        id_coords = sb.coords(flatten(mid(n)))
        if id_coords is None:
            raise ValueError("identity matrix is not in the span")
        sc = {}
        for i in range(dim):
            for j in range(dim):
                coords = sb.coords(flatten(mmul(basis_mats[i], basis_mats[j])))
                if coords is None:
                    raise ValueError("basis is not closed under products")
                row = {t: c for t, c in enumerate(coords) if c}
                if row:
                    sc[(i, j)] = row
        alg = cls(dim, sc, [tuple(id_coords)], check=check, check_assoc=False)
        module = ApproxModule(alg, n, basis_mats, check=check)
        return alg, module

    def __repr__(self):
        return "ApproxAlgebra(dim=%d, chain=%d)" % (self.dim, len(self.chain))


def block_module(sizes, check=True):
    """Block matrix algebra acting on the direct sum of its column spaces;
    returns (algebra, module)."""
    alg = ApproxAlgebra.from_blocks(sizes, check=check)
    dim = sum(sizes)
    offsets = []
    off = 0
    for d in sizes:
        offsets.append(off)
        off += d
    mats = []
    for b, d in enumerate(sizes):
        for r in range(d):
            for c in range(d):
                m = [[ZERO] * dim for _ in range(dim)]
                m[offsets[b] + r][offsets[b] + c] = ONE
                mats.append(m)
    return alg, ApproxModule(alg, dim, mats, check=check)


class ApproxModule:
    """Module over an ApproxAlgebra: one action matrix per basis element.

    The matrices are immutable, so their nonzero entries and the chain
    idempotents' action matrices are computed on first use and kept."""

    __slots__ = ("algebra", "dim", "mats", "_columns", "_idem")

    def __init__(self, algebra, dim, mats, check=True, require_unital=True):
        mats = tuple(freeze(m) for m in mats)
        if len(mats) != algebra.dim:
            raise ValueError("need one action matrix per basis element")
        for m in mats:
            if len(m) != dim or any(len(r) != dim for r in m):
                raise ValueError("action matrices must be dim x dim")
        self.algebra = algebra
        self.dim = dim
        self.mats = mats
        self._columns = None
        self._idem = [None] * len(algebra.chain)
        if check:
            self.validate(require_unital=require_unital)

    def columns(self):
        """The nonzero entries of every action matrix, by column (see
        _columns)."""
        if self._columns is None:
            self._columns = tuple(_columns(m) for m in self.mats)
        return self._columns

    def act(self, coords):
        """The action matrix of the element with the given coordinates,
        summed over the nonzero entries of the basis actions."""
        out = [[ZERO] * self.dim for _ in range(self.dim)]
        for coeff, cols in zip(coords, self.columns()):
            if coeff:
                for c, col in enumerate(cols):
                    for r, x in col:
                        out[r][c] = out[r][c] + x * coeff
        return freeze(out)

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
        """Row-reduced span of the action image inside End(V)."""
        sb = SpanBasis(self.dim * self.dim)
        for m in self.mats:
            sb.add(flatten(m))
        return sb

    def V_j(self, j):
        """Column space of the j-th chain idempotent."""
        P = self.idem_mat(j)
        sb = SpanBasis(self.dim)
        for c in range(self.dim):
            sb.add([P[r][c] for r in range(self.dim)])
        return sb

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
            "action": [[c.json_str() for c in flatten(m)] for m in self.mats],
        })

    @classmethod
    def from_json(cls, text):
        data = json.loads(text)
        labels = data["basis"]
        n = len(labels)
        sc = {}
        for key, row in data["structure_constants"].items():
            i, j = (int(x) for x in key.split(","))
            sc[(i, j)] = {int(t): parse_scalar(s) for t, s in row.items()}
        chain = [[parse_scalar(s) for s in a] for a in data["idempotent_chain"]]
        alg = ApproxAlgebra(n, sc, chain, labels)
        dim = data["dim"]
        mats = [square(flat, dim, parse_scalar, "action matrix %d" % t)
                for t, flat in enumerate(data["action"])]
        return cls(alg, dim, mats)

    def __repr__(self):
        return "ApproxModule(algebra dim=%d, dim=%d)" % (self.algebra.dim, self.dim)


def _corner_span(M, j1, j2):
    """Span of P_{j1} . End(V) . P_{j2}: the products P_{j1} E_rc P_{j2}
    over the matrix units E_rc, each the outer product of column r of
    P_{j1} with row c of P_{j2}."""
    d = M.dim
    cols = _columns(M.idem_mat(j1))
    rows = [[(k, y) for k, y in enumerate(row) if y] for row in M.idem_mat(j2)]
    sb = SpanBasis(d * d)
    for r in range(d):
        for c in range(d):
            if cols[r] and rows[c]:
                flat = [ZERO] * (d * d)
                for i, x in cols[r]:
                    for k, y in rows[c]:
                        flat[i * d + k] = x * y
                sb.add(flat)
    return sb


def end_zero_basis(M):
    """Basis of the reachable part of End(V): the span of all chain corners
    P_j F P_j.  Computed twice (all corners together, and the top corner
    alone, which contains the others since the chain increases) and
    cross-checked.  Returns (basis matrices, span)."""
    d = M.dim
    full = SpanBasis(d * d)
    for j in range(len(M.algebra.chain)):
        for row in _corner_span(M, j, j).rows:
            full.add(row)
    top_j = len(M.algebra.chain) - 1
    top = _corner_span(M, top_j, top_j)
    if not full.same_span(top):
        raise CrossCheckError("corner span computations disagree")
    return [unflatten(row, d, d) for row in full.frozen_rows()], full


def _columns(mat):
    """The nonzero entries of a square matrix by column: a list holding, for
    each column c, the pairs (r, mat[r][c])."""
    return [[(r, row[c]) for r, row in enumerate(mat) if row[c]]
            for c in range(len(mat))]


def _stacked(w, d):
    """The nonzero entries of a stacked vector of V^n, whose blocks have
    length d, as triples (block offset, index in block, entry)."""
    return [(s - s % d, s % d, y) for s, y in enumerate(w) if y]


def _tuple_act(cols, wnz, size):
    """Diagonal action of a matrix, given by its _columns, on the stacked
    vector of length `size` with nonzero entries `wnz` (see _stacked)."""
    out = [ZERO] * size
    for off, c, y in wnz:
        for r, x in cols[c]:
            out[off + r] = out[off + r] + x * y
    return out


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
    actions on u, and the module W they span inside V^n (W contains u
    because the corner idempotent fixes every u_i).  Built once per corner
    index j and kept in `tuples`."""
    if j not in tuples:
        d = M.dim
        basis = M.V_j(j).frozen_rows()
        n = len(basis)
        u = [x for b in basis for x in b]
        unz = _stacked(u, d)
        acts = [_tuple_act(cols, unz, n * d) for cols in M.columns()]
        W = SpanBasis(n * d)
        for w in acts:
            W.add(w)
        tuples[j] = (u, n, acts, W)
    return tuples[j]


def end_sharp_membership(M, phi):
    """Decide whether phi lies in the image of the algebra action; see the
    module docstring for the procedure."""
    return _membership(M, phi, {})


def _membership(M, phi, tuples):
    """end_sharp_membership, taking the corner tuple modules from `tuples`."""
    phi = freeze(phi)
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
    if n == 0:
        return SharpResult(True, witness=(ZERO,) * M.algebra.dim, j=corner_j,
                           tuple_vec=tuple(u))
    phi_cols = _columns(phi)
    for row in W.frozen_rows():
        moved = _tuple_act(phi_cols, _stacked(row, d), n * d)
        if not W.contains(moved):
            return SharpResult(False, j=corner_j, tuple_vec=tuple(u),
                               submodule=W, escaped=(tuple(row), tuple(moved)))
    # recover a witness: solve phi.u = pi(a).u in the element coordinates,
    # then cut a down to the corner so the equality extends from V_j to V
    sol = linalg.solve(*_witness_system(
        acts, _tuple_act(phi_cols, _stacked(u, d), n * d)))
    if sol is None:
        raise CrossCheckError("invariance held but no witness solves the system")
    alpha = M.algebra.chain[corner_j]
    a = M.algebra.mul(M.algebra.mul(alpha, tuple(sol)), alpha)
    if M.act(a) != phi:
        raise CrossCheckError("witness verification failed")
    return SharpResult(True, witness=a, j=corner_j, tuple_vec=tuple(u))


def _witness_system(acts, rhs):
    """The witness system sum_t x_t acts[t] = rhs as (rows, rhs), one row
    per coordinate, leaving out the coordinates where every acts[t] and rhs
    vanish: those rows read 0 = 0.  A zero row with a nonzero rhs stays, so
    an inconsistent system stays inconsistent.  Some row always stays,
    because the corner idempotent acts as the identity on u."""
    keep = [s for s, b in enumerate(rhs) if b or any(a[s] for a in acts)]
    return [[a[s] for a in acts] for s in keep], [rhs[s] for s in keep]


def end_sharp_space(M):
    """End^# as a subspace of End(V): elements of the corner span whose
    diagonal action preserves the module generated by the top basis tuple.
    Computed as one nullspace.  Returns (basis matrices, span)."""
    sharp_mats, sharp, _ = _end_sharp(M, {})
    return sharp_mats, sharp


def _end_sharp(M, tuples):
    """end_sharp_space, also returning the End(V)_0 span it is cut from and
    taking the top corner's tuple module from `tuples`."""
    corner_mats, end_zero = end_zero_basis(M)
    d = M.dim
    _, n, _, W = _tuple_module(M, len(M.algebra.chain) - 1, tuples)
    pivots = set(W.pivots)
    compl = [s for s in range(n * d) if s not in pivots]
    corner_cols = [_columns(C) for C in corner_mats]
    rows = []
    for wrow in W.frozen_rows():
        wnz = _stacked(wrow, d)
        residues = [W._reduce(_tuple_act(cols, wnz, n * d)) for cols in corner_cols]
        for t in compl:
            row = [res[t] for res in residues]
            if any(row):
                rows.append(row)
    sharp = SpanBasis(d * d)
    for v in linalg.nullspace(rows, len(corner_mats)):
        flat = [ZERO] * (d * d)
        for s, c in enumerate(v):
            if c:
                row = end_zero.rows[s]
                for t in end_zero.supports[s]:
                    flat[t] = flat[t] + row[t] * c
        sharp.add(flat)
    return [unflatten(r, d, d) for r in sharp.frozen_rows()], sharp, end_zero


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
    for row in image.frozen_rows():
        if not sharp.contains(list(row)):
            return CheckReport("double_commutant", "fail", dims,
                               witness={"kind": "image_not_in_sharp",
                                        "matrix": [str(c) for c in row]})
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
        for srow in sharp.frozen_rows():
            val = sum((a * b for a, b in zip(func, srow)), ZERO)
            if val:
                return {"functional": [str(c) for c in func],
                        "sharp_element": [str(c) for c in srow],
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
        left.add(flatten(M.act(elem)))
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

    def step(v):
        vnz = _stacked(v, d)
        return [_tuple_act(cols, vnz, n * d) for cols in M.columns()]

    return close_span(SpanBasis(n * d), [list(w)], step)


def submodule_grid_check(M, phi, n, extra=()):
    """Spot-check of the universal quantifier behind End^#: when phi passes
    the membership test, the module generated by each grid vector of V^n
    (standard basis tuples plus any extras) must be preserved by the
    diagonal action of phi.  Returns None, or the offending generator."""
    d = M.dim
    if not end_sharp_membership(M, phi).member:
        return None
    grid = []
    for s in range(n * d):
        w = [ZERO] * (n * d)
        w[s] = ONE
        grid.append(w)
    grid.extend(list(w) for w in extra)
    phi_cols = _columns(phi)
    for w in grid:
        W = generated_tuple_module(M, w, n)
        preserved = all(W.contains(_tuple_act(phi_cols, _stacked(row, d), n * d))
                        for row in W.frozen_rows())
        if not preserved:
            return tuple(w)
    return None
