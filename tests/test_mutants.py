"""Deterministic mutants of the package, and what `jetcalc` catches of them.

Each suite runs at seed 0 under each mutant below.  A run must end in
failing records (exit status 1) or in the documented internal error of
instance generation (exit status 3), never in a raised exception.  The
table of which suite catches which mutant is pinned as a floor: a mutant
caught today stays caught, and one caught by a failing record stays caught
by one.  This is mutation analysis in the sense of DeMillo, Lipton and
Sayward, "Hints on test data selection", IEEE Computer 11(4), 1978.
"""

import itertools
import json
import sys

import pytest

from jetcalc import cli, linalg
from jetcalc.linalg import SpanBasis
from test_cli import ROUTE_FAULTS


def _everywhere(monkeypatch, name, fake):
    """Patch linalg.<name> on every jetcalc module that binds it."""
    orig = getattr(linalg, name)
    for modname, mod in list(sys.modules.items()):
        if modname.split(".")[0] == "jetcalc" and getattr(mod, name, None) is orig:
            monkeypatch.setattr(mod, name, fake)


def skip_the_last_pivot_row(monkeypatch):
    """R: once the span holds 3 rows, SpanBasis._reduce leaves the last
    pivot's entry in the residue."""
    reduce = SpanBasis._reduce

    def skipping(self, v, record=None):
        if self.dim < 3:
            return reduce(self, v, record)
        last = self.pivots[-1]
        row = self._row.pop(last)
        try:
            return reduce(self, v, record)
        finally:
            self._row[last] = row

    monkeypatch.setattr(SpanBasis, "_reduce", skipping)


def drop_a_last_entry(monkeypatch):
    """A: every 997th _axpy drops the last entry of its row."""
    axpy, calls = linalg._axpy, itertools.count(1)

    def dropping(out, c, row, off=0, skip=None):
        if next(calls) % 997 == 0:
            row = dict(list(row.items())[:-1])
        return axpy(out, c, row, off, skip)

    _everywhere(monkeypatch, "_axpy", dropping)


def transpose_a_square_apply(monkeypatch):
    """T: every 101st apply of a square Mat applies its transpose."""
    apply, calls = linalg.apply, itertools.count(1)

    def transposing(m, v):
        if m.nrows == m.ncols and next(calls) % 101 == 0:
            m = m.T
        return apply(m, v)

    _everywhere(monkeypatch, "apply", transposing)


def _route_fault(owner, name, wrong):
    return lambda monkeypatch: monkeypatch.setattr(owner, name, wrong)


MUTANTS = {"R": skip_the_last_pivot_row, "A": drop_a_last_entry,
           "T": transpose_a_square_apply,
           **{name: _route_fault(owner, name, wrong)
              for _, owner, name, wrong, _ in ROUTE_FAULTS}}

# Exit status of `jetcalc <suite> --seed 0` under each mutant: 1 for failing
# records, 3 for a defect met while generating instances, 0 for an escape.
# A route fault reads 0 on the suites that never take its route.  The zeros
# of R, A and T are runs that pass although the arithmetic below them is
# wrong: kernel under A, and jet and kernel under T.  They are the targets
# of the independent oracle on the ROADMAP.
CATCH_TABLE = {
    #                 jet kernel dcomm pw
    "R":              (3, 3, 3, 1),
    "A":              (1, 0, 1, 3),
    "T":              (0, 0, 1, 1),
    "term_value":     (0, 0, 0, 1),
    "solver":         (0, 0, 1, 1),
    "end_zero_basis": (0, 0, 1, 0),
}

# The exit statuses a run may end with, by its pinned status: a caught mutant
# stays caught, and one caught by a failing record stays caught by one.
FLOOR = {0: (0, 1, 3), 3: (1, 3), 1: (1,)}


@pytest.mark.parametrize("mutant, suite",
                         [(m, s) for m in CATCH_TABLE for s in cli.SUITES])
def test_a_mutant_ends_in_failing_records_or_the_internal_error_status(
        tmp_path, capsys, monkeypatch, mutant, suite):
    MUTANTS[mutant](monkeypatch)
    out = tmp_path / "v.jsonl"
    rc = cli.main([suite, "--seed", "0", "--json", str(out)])
    err = capsys.readouterr().err
    if rc == 3:
        assert err.count("\n") == 1 and "suite %s at seed 0" % suite in err
        assert not out.exists()
    else:
        assert rc in (0, 1) and err == ""
        statuses = [json.loads(line)["status"] for line in out.read_text().splitlines()]
        assert ("fail" in statuses) == (rc == 1)
    # a failing record is the better catch: it names the check and its witness
    assert rc in FLOOR[CATCH_TABLE[mutant][cli.SUITES.index(suite)]], (
        "%s under %s fell below its pinned exit status" % (suite, mutant))
