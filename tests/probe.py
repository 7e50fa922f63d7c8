"""The one place a test rebinds a jetcalc name, to count or note its calls.

A hand-listed loop over modules misses a binding silently, so `probe`
walks them all.  It lives beside the tests because nothing in the package
reads it yet.  Run as a script, it prints the work of one suite at one
seed, over the whole run and inside Suite.check:

    PYTHONPATH=src python tests/probe.py SUITE [--seed N]
"""

import argparse
import contextlib
import inspect
import io
import sys

import pytest

from jetcalc import cli, linalg, localmod, scalars

# the calls `work` counts, in the order the script prints them
KINDS = ("output-changing _axpy", "square apply", "non-square apply", "_insert",
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


def work(suite, seed=0):
    """(exit status, {kind: [whole run, inside Suite.check]}) of the calls
    that `jetcalc <suite> --seed <seed>` makes, its output discarded."""
    counts, inserts = {kind: [0, 0] for kind in KINDS}, []  # (span, its dim, inside)

    def tally(kind, inside=None):
        counts[kind][0] += 1
        counts[kind][1] += checks.running > 0 if inside is None else inside

    def axpy(out, c, row, off=0, skip=None):
        if any(j != skip for j in row):
            tally("output-changing _axpy")

    with pytest.MonkeyPatch.context() as mp:
        checks = probe(mp, cli.Suite, "check")
        probe(mp, linalg, "_axpy", axpy)
        probe(mp, linalg, "apply", lambda m, v: tally(
            "square apply" if m.nrows == m.ncols else "non-square apply"))
        probe(mp, linalg.SpanBasis, "_insert",
              lambda span, v: inserts.append((span, span.dim, checks.running > 0)))
        probe(mp, scalars, "_mk", lambda *args: tally("_mk"))
        probe(mp, localmod, "mmul", lambda a, b: tally("localmod module product"), alone=True)
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main([suite, "--seed", str(seed)])
    later = {}  # id of a span -> its dim at its next insert, read backwards
    for span, dim, inside in reversed(inserts):
        tally("_insert", inside)
        if later.get(id(span), span.dim) > dim:
            tally("_insert that grew a span", inside)
        later[id(span)] = dim
    return rc, counts


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description="Print the calls one suite makes.")
    parser.add_argument("suite", choices=cli.SUITES)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    rc, counts = work(args.suite, args.seed)
    print("jetcalc %s --seed %d: exit status %d" % (args.suite, args.seed, rc))
    print("%-26s %12s %12s" % ("calls", "whole run", "in checks"))
    for kind in KINDS:
        print("%-26s %12d %12d" % (kind, *counts[kind]))
