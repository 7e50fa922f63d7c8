"""Seeded instance streams and checks for the benchmark workloads.

Every workload draws its instances from one random.Random seeded by the
workload name and the benchmark seed, so a seed fixes the whole stream.  The
stream is cut into rounds.  A round is stratified: it holds one instance of
each shape in the workload's shape table, and the seed decides everything
else about each instance.  Check time grows roughly like the fifth power of
the size, so with random sizes a run's time would mostly count how many
large instances its seed happened to draw.

An instance carries its size, a canonical description (hashed for the
verdict pin) and its checks.  Checks call the library through module
attributes, never through names bound at import, so the traced run's
wrappers see every call the benchmark makes.
"""

import random

from jetcalc import approxalg, family, gen, localmod

# (module dim, algebra dim, chain length, skewed): one shape that
# rand_approx_module(rng, 10, junk_ok=True) draws often, for each module
# dimension 2..12.  Check time depends on the shape, not only on the
# dimension (3x apart at dimension 10), and a skewed basis (dense action
# matrices, drawn for half the modules of dimension <= 6) costs 2-3x a
# plain one.  So the round fixes both, and the seed decides block order,
# null rows, the skewing matrix, phi and the corners.  Dimensions 4 and 5
# are skewed, so dense spans are covered; dimension 6 is plain, so the
# median instance falls among the dimension-7 modules, whose times vary
# little, rather than between two shapes.
DCOMM_SHAPES = ((2, 1, 1, False), (3, 1, 1, False), (4, 10, 2, True),
                (5, 11, 3, True), (6, 14, 3, False), (7, 15, 4, False),
                (8, 18, 4, False), (9, 23, 4, False), (10, 24, 5, False),
                (11, 19, 5, False), (12, 24, 5, False))


def _skewed(M):
    """True when some action matrix has more than one nonzero entry: the
    module was conjugated into a skewed basis (a block module's matrices
    are matrix units)."""
    return any(sum(1 for row in m for x in row if x) > 1 for m in M.mats)


def _mstr(mat):
    return [[str(x) for x in row] for row in mat]


def _estr(E):
    return {"nvars": E.nvars, "k": E.k, "mats": [_mstr(m) for m in E.mats]}


class Instance:
    """One generated instance: size for the histogram, a describe() thunk
    for the verdict pin, and (check_id, thunk) pairs run in order.  A thunk
    returns the verdict."""

    def __init__(self, size, describe, checks):
        self.size = size
        self.describe = describe
        self.checks = checks


# --- dcomm ---------------------------------------------------------------------

def _dcomm_instance(rng, shape):
    while True:
        alg, M = gen.rand_approx_module(rng, 10, junk_ok=True)
        if (M.dim, alg.dim, len(alg.chain), _skewed(M)) == shape:
            break
    phi = gen.rand_member_phi(rng, M)
    j1 = rng.randrange(len(alg.chain))
    j2 = rng.randrange(len(alg.chain))

    def main():
        return approxalg.double_commutant_check(M).ok

    def member():
        res = approxalg.end_sharp_membership(M, phi)
        return res.member and M.act(res.witness) == phi

    def corner():
        return approxalg.corner_identity_check(M, j1, j2).ok

    def describe():
        return {"dim": M.dim, "alg_dim": alg.dim,
                "mats": [_mstr(m) for m in M.mats],
                "phi": _mstr(phi), "j1": j1, "j2": j2}

    return Instance(M.dim, describe, [("dcomm.main", main),
                                      ("dcomm.member", member),
                                      ("dcomm.corner", corner)])


def dcomm_round(rng):
    return [_dcomm_instance(rng, shape) for shape in DCOMM_SHAPES]


# --- pw ------------------------------------------------------------------------

def _eval_module():
    return localmod.cyclic_quotient(localmod.maximal_ideal(1)).module


# every layout shape (module dim, points, rep dims) with block total
# e * points * sum(dims) <= 12: one variable, 1-2 reps of dim 1-3, 1-2
# points, and an evaluation (dim 1) or dual-number (dim 2) module.  The
# block total alone leaves check time 20x apart, so a round holds each
# shape once.  Each layout tests a member word and a random candidate.
PW_SHAPES = tuple(
    (e, npts, dims)
    for e in (1, 2) for npts in (1, 2)
    for dims in ([(a,) for a in (1, 2, 3)]
                 + [(a, b) for a in (1, 2, 3) for b in (1, 2, 3)])
    if e * npts * sum(dims) <= 12)


def _pw_instance(rng, shape):
    e, npts, dims = shape
    reps = [gen.rand_repfamily(rng, label, 1, d) for label, d in zip("ab", dims)]
    pts = [gen.rand_point(rng, 1)]
    while len(pts) < npts:
        q = gen.rand_point(rng, 1)
        if q.coords != pts[0].coords:
            pts.append(q)
    if e == 1:
        E = _eval_module()
    else:
        E = localmod.dual_number_module(gen.rand_point(rng, 1, zero_ok=False))
    Ev = _eval_module()
    delta = [(rep.label, p, []) for rep in reps for p in pts
             for _ in range(rep.dim)]
    cands = [gen.rand_candidate(rng, reps, maxlen=6, member=m)
             for m in (True, False)]
    checks = []
    for cand, is_member in cands:
        checks += _pw_checks(cand, is_member, reps, pts, E, Ev, delta)

    def describe():
        return {"reps": [{"label": r.label,
                          "gens": [[str(x) for row in g.entries for x in row]
                                   for g in r.generators]} for r in reps],
                "pts": [str(p) for p in pts], "E": _estr(E),
                "cands": [[c.to_json(), m] for c, m in cands]}

    return Instance(e * npts * sum(dims), describe, checks)


def _pw_checks(cand, is_member, reps, pts, E, Ev, delta):
    def triple():
        t = family.membership_triple(cand, reps, pts, E)
        return t.unanimous and (t.member or not is_member)

    def invariance():
        tv = family.membership_triple(cand, reps, pts, Ev)
        inv = family.invariance_check(cand, delta, reps)
        return tv.unanimous and inv == tv.member

    return [("pw.triple", triple), ("pw.invariance", invariance)]


def pw_round(rng):
    return [_pw_instance(rng, shape) for shape in PW_SHAPES]


class Workload:
    """A workload: its round builder, the name of its size axis, and the
    wall seconds one round (checks plus generation) took on the seed code,
    which turns --seconds into a fixed number of rounds."""

    def __init__(self, name, make_round, size_name, round_s):
        self.name = name
        self.make_round = make_round
        self.size_name = size_name
        self.round_s = round_s

    def rounds_for(self, seconds):
        return max(1, round(seconds / self.round_s))

    def rounds(self, seed, n):
        """The first n rounds of the seed's stream."""
        rng = random.Random("jetcalc-bench:%s:%d" % (self.name, seed))
        return [self.make_round(rng) for _ in range(n)]


WORKLOADS = {
    "dcomm": Workload("dcomm", dcomm_round, "module_dim", 4.3),
    "pw": Workload("pw", pw_round, "block_total", 5.0),
}
