"""The one place a test rebinds a jetcalc name, to count or note its calls.

A hand-listed loop over modules misses a binding silently, so `probe`
walks them all; `indexed` is the one definition of the calls a sweep
indexes.  Nothing in the package reads this module yet.  As a script it
prints one suite's work at one seed, whole-run and inside Suite.check,
and its SCHEDULES tuple:

    PYTHONPATH=src python tests/probe.py SUITE [--seed N]
"""

import argparse
import contextlib
import hashlib
import inspect
import io
import sys

import pytest

from jetcalc import cli, linalg, localmod, scalars

# the calls `work` counts, in the order the script prints them
KINDS = ("output-changing _axpy", "square apply", "apply", "_insert",
         "_insert that grew a span", "_mk", "localmod module product")


class Probe:
    """The calls of one probed name: `calls` made, `running` not yet returned."""

    __slots__ = ("calls", "running")

    def __init__(self):
        self.calls = self.running = 0


def probe(mp, owner, name, note=None, alone=False):
    """Rebind owner.<name> through the MonkeyPatch mp, and return the Probe
    that counts its calls: a function on every jetcalc module that binds
    that object, under any name (on `owner` alone with `alone`, to count
    the calls made through that one binding), or a method or property on
    its class.  Before each real call, note(*args, **kwargs) runs; it may
    assert, to enforce a budget say, and a tuple it returns is passed as
    the arguments in place of those given, which is how a mutant corrupts
    a call.  A name that no jetcalc module or class binds is refused."""
    orig = inspect.getattr_static(owner, name, None)
    where = owner.__module__ if isinstance(owner, type) else owner.__name__
    if orig is None or where.split(".")[0] != "jetcalc":
        raise ValueError("no jetcalc module or class binds %r" % (name,))
    fn, count = orig.fget if isinstance(orig, property) else orig, Probe()

    def probed(*args, **kwargs):
        count.calls += 1
        if note is not None:
            given = note(*args, **kwargs)
            if isinstance(given, tuple):
                args, kwargs = given, {}
        count.running += 1
        try:
            return fn(*args, **kwargs)
        finally:
            count.running -= 1

    if isinstance(owner, type):
        mp.setattr(owner, name, orig.getter(probed) if isinstance(orig, property) else probed)
        return count
    for mod in [owner] if alone else [m for n, m in list(sys.modules.items())
                                      if n.split(".")[0] == "jetcalc"]:
        for key, value in list(vars(mod).items()):
            if value is orig:
                mp.setattr(mod, key, probed)
    return count


def indexed(mp, hand):
    """Probe linalg._axpy and linalg.apply, and before each call that a
    sweep indexes run hand(kind, args): for an "axpy" whose row has a key
    other than `skip` (a call that can change its output), args is (out,
    c, row, off, skip); for an "apply" of a square Mat, (m, v).  A tuple
    hand returns is passed in place of args, which is how a mutant
    corrupts a call."""
    def axpy(out, c, row, off=0, skip=None):
        if any(j != skip for j in row):
            return hand("axpy", (out, c, row, off, skip))

    def apply(m, v):
        if m.nrows == m.ncols:
            return hand("apply", (m, v))

    probe(mp, linalg, "_axpy", axpy)
    probe(mp, linalg, "apply", apply)


def inside_check(mp, values=None):
    """Probe Suite.check, appending each check's (check_id, values) to the
    list `values` when one is given, as its function returns them; return
    the reader of whether a check is running."""
    def record(self, check_id, statement, instance, fn):
        def noted():
            out = fn()
            values.append((check_id, out[1]))
            return out
        return self, check_id, statement, instance, noted

    checks = probe(mp, cli.Suite, "check", None if values is None else record)
    return lambda: checks.running > 0


def described(kind, args):
    """The arguments of a call that `indexed` hands on, as ints."""
    def entries(d):
        return [(j, x.a, x.b, x.den) for j, x in d.items()]
    if kind == "axpy":
        _, c, row, off, skip = args
        return (c.a, c.b, c.den), entries(row), off, skip
    m, v = args
    return [entries(row) for row in m.rows], entries(v)


def work(suite, seed=0):
    """(exit status, {kind: [whole run, inside Suite.check]}, schedule) of
    the calls that `jetcalc <suite> --seed <seed>` makes, its output
    discarded.  The schedule is the calls `indexed` hands on inside checks:
    (their _axpy and apply counts, the SHA-256 of their kinds and given
    arguments in order)."""
    counts, inserts = {kind: [0, 0] for kind in KINDS}, []  # (span, its dim, inside)
    digest = hashlib.sha256()

    def tally(kind, within=None):
        counts[kind][0] += 1
        counts[kind][1] += inside() if within is None else within

    def index(kind, args):
        tally("output-changing _axpy" if kind == "axpy" else "square apply")
        if inside():
            digest.update(repr((kind,) + described(kind, args)).encode())

    with pytest.MonkeyPatch.context() as mp:
        inside = inside_check(mp)
        probe(mp, linalg, "apply", lambda m, v: tally("apply"))
        indexed(mp, index)
        probe(mp, linalg.SpanBasis, "_insert",
              lambda span, v: inserts.append((span, span.dim, inside())))
        probe(mp, scalars, "_mk", lambda *args: tally("_mk"))
        probe(mp, localmod, "mmul", lambda a, b: tally("localmod module product"), alone=True)
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main([suite, "--seed", str(seed)])
    later = {}  # id of a span -> its dim at its next insert, read backwards
    for span, dim, within in reversed(inserts):
        tally("_insert", within)
        if later.get(id(span), span.dim) > dim:
            tally("_insert that grew a span", within)
        later[id(span)] = dim
    return rc, counts, (counts["output-changing _axpy"][1], counts["square apply"][1],
                        digest.hexdigest())


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description="Print the calls one suite makes.")
    parser.add_argument("suite", choices=cli.SUITES)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    rc, counts, schedule = work(args.suite, args.seed)
    print("jetcalc %s --seed %d: exit status %d" % (args.suite, args.seed, rc))
    print("%-26s %12s %12s" % ("calls", "whole run", "in checks"))
    for kind in KINDS:
        print("%-26s %12d %12d" % (kind, *counts[kind]))
    print("SCHEDULES[%r] = %r" % (args.suite, schedule))
