"""Command line entry point: seeded verification suites over random
instances, plus a small demo walkthrough.

Every subcommand draws its instances from the --seed (or the JETCALC_SEED
environment variable), so two runs with the same seed test the same
instances and, with --json, write byte-identical report files.  Timing is
printed to the console only.  Exit status: 0 when every check passed, 1 when
any failed, 2 for usage errors and a --json path that cannot be written, 3
when generating or shaping an instance failed outside any check.
"""

import argparse
import hashlib
import json
import os
import random
import sys
import time

from .scalars import Scalar, ONE
from .poly import Polynomial, ExpPoly, Vector
from .linalg import CrossCheckError, Mat, SpanBasis, dense, mid
from .localmod import (cyclic_quotient, maximal_ideal, dual_number_module, MAX_NVARS,
                       MAX_DIM)
from .jetfun import (jet, jet_family, block_derivative,
                     functional_to_diffop, diffop_to_module, kernel_alpha_bar,
                     subquotient_certified, alpha_bar_image)
from .approxalg import (double_commutant_check, corner_identity_check,
                        submodule_grid_check, end_sharp_membership, _idem_spans)
from .family import (PWCandidate, membership_triple,
                     invariance_check, relation_check, RelationTerm,
                     functional_to_relation, spanned_algebra, _entry_strs)
from . import gen


def _canon(obj):
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), default=str)


def _digest(obj):
    return hashlib.sha256(_canon(obj).encode("utf-8")).hexdigest()


def _mstr(mat):
    return [[str(x) for x in dense(row, mat.ncols)] for row in mat.rows]


def _estr(E):
    return {"nvars": E.nvars, "mats": [_mstr(m) for m in E.mats]}


class Suite:
    """Collects per-instance records."""

    def __init__(self):
        self.records = []

    def check(self, check_id, statement, instance, fn):
        """Record the verdict of fn(), which returns (ok, values): whether
        the check holds, and a dict of the named results that verdict is
        read from.  Return ok.  Only a failing record has a witness, its
        values, each written as str() where JSON cannot hold it.  The
        instances are generated, so an exception inside fn is a defect: the
        check fails with it as its witness and the run goes on.  A
        disagreement of two internal routes reads {"cross_check":
        "<message>"}, any other exception {"error": "<Type>: <message>"}."""
        try:
            ok, values = fn()
        except CrossCheckError as exc:
            ok, values = False, {"cross_check": str(exc)}
        except Exception as exc:
            ok, values = False, {"error": "%s: %s" % (type(exc).__name__, exc)}
        rec = {
            "check_id": check_id,
            "statement": statement,
            "instance_digest": _digest(instance),
            "status": "pass" if ok else "fail",
        }
        if not ok:
            rec["witness"] = values
        self.records.append(rec)
        return ok


def _equal(**values):
    """(whether the two named values are equal, the values): the check of
    a value against another route's value or against its expected one."""
    a, b = values.values()
    return a == b, values


def _report(rep):
    """(ok, values) of a CheckReport: its status, dims and witness."""
    return rep.ok, rep.to_dict()


def _rng(cfg, tag):
    return random.Random("%d:%s" % (cfg.seed, tag))


# --- jet checks -------------------------------------------------------------

def run_jet(cfg, suite):
    rng = _rng(cfg, "jet")
    for i in range(20):
        nv = rng.randint(1, cfg.nmax)
        E = gen.rand_finmod(rng, nv, cfg.kmax, cfg.dimmax)
        f = gen.rand_exp_poly(rng, nv, cfg.kmax)
        g = gen.rand_exp_poly(rng, nv, cfg.kmax)
        inst = {"i": i, "E": _estr(E), "f": str(f), "g": str(g)}

        def hom():
            jf, jg = jet(f, E), jet(g, E)
            return _equal(product=jet(f * g, E), jets=jf * jg)

        suite.check("jet.hom", "jet of a product equals the product of jets",
                    inst, hom)

        p = gen.rand_poly(rng, nv, cfg.kmax + 1)
        mu = gen.rand_point(rng, nv)
        inst2 = {"i": i, "E": _estr(E), "p": str(p), "mu": str(mu)}
        suite.check("jet.eval", "jet evaluation matches the translated action",
                    inst2, lambda: _equal(jet=jet(p, E).evaluate_scalar(tuple(mu.coords)),
                                          action=E.act_poly(p.translate(mu))))

    for i in range(10):
        nv = rng.randint(1, cfg.nmax)
        F = gen.rand_elementary_family(rng, nv, 2)
        eta = gen.rand_covector(rng, nv)
        inst = {"i": i, "F": _entry_strs(F), "eta": str(eta)}
        suite.check("jet.kappa", "doubled-space derivative is the dual-number jet",
                    inst, lambda: _equal(block=block_derivative(F, eta),
                                         jet=jet_family(F, dual_number_module(eta))))

    for i in range(10):
        nv = rng.randint(1, cfg.nmax)
        ops = [gen.rand_diffop(rng, nv, cfg.kmax)
               for _ in range(rng.randint(1, 2))]

        def round_trip():
            E, funcs = diffop_to_module(ops)
            return _equal(ops=ops, read_back=[functional_to_diffop(E, H) for H in funcs])

        suite.check("jet.functional",
                    "operators survive the round trip through module functionals",
                    {"i": i, "ops": [str(u) for u in ops]}, round_trip)


# --- kernel checks ----------------------------------------------------------

def run_kernel(cfg, suite):
    rng = _rng(cfg, "kernel")
    for i in range(12):
        nv = rng.randint(1, min(2, cfg.nmax))
        lams = [gen.rand_point(rng, nv, zero_ok=False) for _ in range(rng.randint(1, 3))]
        d = rng.randint(0, 4)
        inst = {"i": i, "lams": [str(l) for l in lams], "d": d}
        basis = None

        def routes():
            nonlocal basis
            basis = kernel_alpha_bar(lams, d)
            return True, {"basis": basis}

        def member():
            image = alpha_bar_image(basis, lams)
            return not any(map(any, image)), {"image": image}

        if not suite.check("kernel.routes", "both kernel computations agree",
                           inst, routes):
            continue
        suite.check("kernel.member", "kernel basis maps to zero", inst, member)

    for i in range(10):
        nv = rng.randint(1, min(2, cfg.nmax))
        ideal = gen.rand_cofinite_ideal(rng, nv, min(cfg.kmax, 2))
        inst = {"i": i, "nvars": nv,
                "gens": [str(g) for g in ideal.generators]}
        suite.check("kernel.subquotient",
                    "direction-sequence kernel lies inside the ideal",
                    inst, lambda: _equal(certified=subquotient_certified(ideal),
                                         expected=True))


# --- double commutant checks --------------------------------------------------

def run_dcomm(cfg, suite):
    rng = _rng(cfg, "dcomm")
    for i in range(20):
        alg, M = gen.rand_approx_module(rng, cfg.dimmax, junk_ok=True)
        inst = {"i": i, "alg_dim": alg.dim, "dim": M.dim,
                "mats": [_mstr(m) for m in M.mats]}

        suite.check("dcomm.main", "action image equals its double commutant",
                    inst, lambda: _report(double_commutant_check(M)))

        phi = gen.rand_member_phi(rng, M)

        def member_check():
            res = end_sharp_membership(M, phi)
            action = M.act(res.witness) if res.member else None
            return res.member and action == phi, {"member": res.member, "action": action}

        suite.check("dcomm.member",
                    "action elements pass membership with a checked witness",
                    {"i": i, "phi": _mstr(phi), "dim": M.dim}, member_check)

        n = max(1, len(_idem_spans(M, [len(alg.chain) - 1], ())[0][0].rows))
        if M.dim * n <= 8:
            suite.check("dcomm.grid",
                        "members preserve every grid-generated submodule",
                        {"i": i, "phi": _mstr(phi), "n": n},
                        lambda: _equal(vector=submodule_grid_check(M, phi, n),
                                       expected=None))

        j1 = rng.randrange(len(alg.chain))
        j2 = rng.randrange(len(alg.chain))
        suite.check("dcomm.corner",
                    "abstract corners act onto the concrete corners",
                    {"i": i, "j1": j1, "j2": j2, "dim": M.dim},
                    lambda: _report(corner_identity_check(M, j1, j2)))


# --- membership / relation checks ---------------------------------------------

def _eval_module(nv):
    return cyclic_quotient(maximal_ideal(nv)).module


def _rand_layout(rng, cfg):
    nv = 1
    reps = [gen.rand_repfamily(rng, "a", nv, rng.randint(1, 2))]
    if rng.random() < 0.4:
        reps.append(gen.rand_repfamily(rng, "b", nv, rng.randint(1, 2)))
    pts = [gen.rand_point(rng, nv)]
    if rng.random() < 0.4:
        q = gen.rand_point(rng, nv)
        if q.coords != pts[0].coords:
            pts.append(q)
    if rng.random() < 0.5:
        E = _eval_module(nv)
    else:
        E = dual_number_module(gen.rand_point(rng, nv, zero_ok=False))
    total = E.dim * sum(r.dim for r in reps) * len(pts)
    return reps, pts, E, total


def _inst_layout(reps, pts, E, extra=None):
    inst = {"reps": [{ "label": r.label,
                       "gens": [_entry_strs(g) for g in r.generators]} for r in reps],
            "pts": [str(p) for p in pts], "E": _estr(E)}
    if extra:
        inst.update(extra)
    return inst


def run_pw(cfg, suite):
    rng = _rng(cfg, "pw")
    for i in range(10):
        reps, pts, E, total = _rand_layout(rng, cfg)
        if total > 8:
            pts = pts[:1]
            total = E.dim * sum(r.dim for r in reps)
        if total > 8:
            E = _eval_module(1)
        cand, is_member = gen.rand_candidate(rng, reps, maxlen=cfg.words)

        def triple():
            t = membership_triple(cand, reps, pts, E)
            return t.unanimous and (t.member or not is_member), t.verdicts

        suite.check("pw.triple", "the three membership tests agree",
                    _inst_layout(reps, pts, E, {"i": i,
                                                "cand": cand.to_json(),
                                                "member": is_member}),
                    triple)

        delta = []
        for rep in reps:
            for p in pts:
                delta.extend([(rep.label, p, [])] * rep.dim)
        Ev = _eval_module(1)

        def invariance():
            tv = membership_triple(cand, reps, pts, Ev)
            inv = invariance_check(cand, delta, reps)
            return tv.unanimous and inv == tv.member, {**tv.verdicts, "invariance": inv}

        suite.check("pw.invariance",
                    "delta-data invariance matches the membership verdict",
                    _inst_layout(reps, pts, Ev, {"i": i,
                                                 "cand": cand.to_json()}),
                    invariance)

    for i in range(8):
        reps, pts, E, total = _rand_layout(rng, cfg)
        if total > 6:
            pts = pts[:1]
            reps = reps[:1]
            total = E.dim * reps[0].dim
        inst = _inst_layout(reps, pts, E, {"i": i})
        word_cand = ident_term = None

        def relation():
            # a functional on the word span's block-diagonal entries, read back
            # as a relation; the word and operator are drawn only when it has terms
            nonlocal word_cand, ident_term
            span, layout = spanned_algebra(reps, pts, E)
            n = layout.total
            flat = [(off + r) * n + off + c for _, _, off, size in layout.blocks
                    for r in range(size) for c in range(size)]
            col = {s: k for k, s in enumerate(flat)}
            null = SpanBasis(len(flat), [{col[s]: x for s, x in row.items() if s in col}
                                         for row in span.rows]).nullspace()
            if not null:
                return True, {}
            psi = {flat[k]: x for k, x in null[0].items()}
            terms = functional_to_relation(Mat.from_flat(psi, n, n), layout)
            if not terms:
                return True, {}
            word_cand = PWCandidate.from_word(
                reps, gen.rand_word(rng, len(reps[0].generators), cfg.words))
            ident_term = RelationTerm(reps[0].label, mid(reps[0].dim), pts[0],
                                      gen.rand_diffop(rng, 1, 0))
            holds, _ = relation_check(word_cand, terms, reps)
            return _equal(holds=holds, expected=True)

        def nonrelation():
            holds, _ = relation_check(word_cand, [ident_term], reps)
            return _equal(holds=holds, expected=None)

        suite.check("pw.relation",
                    "relations certify and annihilate word candidates",
                    inst, relation)
        if ident_term is not None:
            suite.check("pw.nonrelation",
                        "a non-annihilating datum is flagged, not evaluated",
                        inst, nonrelation)

    rf = gen.reducible_family()
    ec = gen.escaping_candidate()
    pt = Vector([Scalar(1)])
    E1 = _eval_module(1)
    delta = [("R", pt, []), ("R", pt, [])]
    good, _ = gen.rand_candidate(_rng(cfg, "pw-fixture"), [rf], member=True)

    def verdicts(cand):
        t = membership_triple(cand, [rf], [pt], E1)
        return t.unanimous, t.member, invariance_check(cand, delta, [rf])

    suite.check("pw.fixture",
                "the reducible fixture rejects the escaping candidate",
                {"family": "reducible", "cand": ec.to_json()},
                lambda: _equal(verdicts=verdicts(ec), expected=(True, False, False)))
    suite.check("pw.fixture",
                "the reducible fixture accepts word candidates",
                {"family": "reducible", "cand": good.to_json()},
                lambda: _equal(verdicts=verdicts(good), expected=(True, True, True)))


def run_demo(cfg, suite):
    E = dual_number_module(Vector([ONE]))
    f = ExpPoly.from_poly(Polynomial(1, {(0,): ONE, (2,): Scalar(1, 0)}))
    print("module: dual numbers along the unit direction (dim %d, k=%d)"
          % (E.dim, E.k))
    print("jet of 1 + x^2:")
    for row in jet(f, E).entries:
        print("    [" + ", ".join(str(e) for e in row) + "]")
    lams = [Vector([ONE]), Vector([Scalar(2)])]

    def kernel():
        basis = kernel_alpha_bar(lams, 3)
        print("kernel for two directions through degree 3: "
              + "; ".join(str(b) for b in basis))
        return _equal(dim=len(basis), expected=1)

    suite.check("demo.kernel", "demo kernel has the expected dimension",
                {"lams": [str(l) for l in lams]}, kernel)
    ec = gen.escaping_candidate()

    def fixture():
        t = membership_triple(ec, [gen.reducible_family()], [Vector([ONE])],
                              _eval_module(1))
        print("escaping candidate against the reducible family: "
              + ("member" if t.member else "rejected")
              + " (unanimous=%s)" % t.unanimous)
        return _equal(verdicts=(t.unanimous, t.member), expected=(True, False))

    suite.check("demo.fixture", "demo fixture rejects the escaping candidate",
                {"cand": ec.to_json()}, fixture)


SUITES = ("jet", "kernel", "dcomm", "pw")
RUNNERS = dict(zip(SUITES, (run_jet, run_kernel, run_dcomm, run_pw)), demo=run_demo)


# Inclusive (lower, upper) bounds of the size flags.  The upper bounds are
# the largest verify tier the project measures (--kmax 4 --nmax 3
# --dimmax 12 --words 8, about 0.25 s); check time grows about like the
# fifth power of the module dimension, so a larger run could take hours.
SIZE_LIMITS = {"nmax": (1, MAX_NVARS), "kmax": (0, 4), "dimmax": (1, MAX_DIM),
               "words": (0, 8)}


def build_parser():
    ap = argparse.ArgumentParser(
        prog="jetcalc",
        description="exact verification suites for jet calculus, kernels, "
                    "double commutants, and matrix-family membership")
    ap.add_argument("--seed", type=int,
                    default=os.environ.get("JETCALC_SEED", "0"),
                    help="instance seed (default: JETCALC_SEED or 0)")
    for name, default, what in (("nmax", 2, "max number of variables"),
                                ("kmax", 2, "max jet order"),
                                ("dimmax", 5, "max module dimension"),
                                ("words", 4, "max word length")):
        ap.add_argument("--" + name, type=int, default=default,
                        help="%s, %d-%d (default %d)"
                             % ((what,) + SIZE_LIMITS[name] + (default,)))
    ap.add_argument("--json", metavar="PATH",
                    help="write sorted JSON-lines records to PATH")
    ap.add_argument("command",
                    choices=["verify", *RUNNERS],
                    help="which suite to run")
    return ap


def main(argv=None):
    ap = build_parser()
    args = ap.parse_args(argv)
    for name, (lo, hi) in SIZE_LIMITS.items():
        value = getattr(args, name)
        if not lo <= value <= hi:
            ap.error("--%s must lie in %d..%d, got %d" % (name, lo, hi, value))

    suite = Suite()
    t0 = time.monotonic()
    for name in SUITES if args.command == "verify" else (args.command,):
        t1 = time.monotonic()
        try:
            RUNNERS[name](args, suite)
        except Exception as exc:  # every check catches its own; see Suite.check
            print("jetcalc: internal error outside any check in suite %s at seed %d: "
                  "%s: %s" % (name, args.seed, type(exc).__name__, " ".join(str(exc).split())),
                  file=sys.stderr)
            return 3
        if args.command == "verify":
            print("suite %-6s done in %.2fs" % (name, time.monotonic() - t1))

    for check_id in sorted({r["check_id"] for r in suite.records}):
        statuses = [r["status"] for r in suite.records if r["check_id"] == check_id]
        p, t = statuses.count("pass"), len(statuses)
        print("[%s] %-20s %d/%d" % ("pass" if p == t else "FAIL", check_id, p, t))
    print("total %.2fs, seed %d" % (time.monotonic() - t0, args.seed))

    if args.json:
        try:
            with open(args.json, "w") as fh:
                for rec in sorted(suite.records,
                                  key=lambda r: (r["check_id"], r["instance_digest"])):
                    fh.write(_canon(rec) + "\n")
        except OSError as exc:
            ap.exit(2, "jetcalc: cannot write --json %s: %s\n" % (args.json, exc.strerror or exc))

    return 1 if any(r["status"] == "fail" for r in suite.records) else 0


if __name__ == "__main__":
    sys.exit(main())
