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

import pytest

from jetcalc import cli
from jetcalc.linalg import SpanBasis
from jetcalc.localmod import FinMod
from probe import indexed, inside_check, probe, work
from test_cli import ROUTE_FAULTS, TIERS


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


def drop_a_last_entry(monkeypatch, phase=0, counted=lambda: True):
    """A: every 997th _axpy call that can change its output (see
    probe.indexed) drops the last entry of its row.  Calls that change
    nothing are not counted, so adding or removing them moves no
    corruption.  At a phase p the calls counted p modulo 997 are dropped,
    and only calls made while counted() holds are counted."""
    calls = itertools.count(1)

    def drop(kind, args):
        if kind == "axpy" and counted() and next(calls) % 997 == phase:
            out, c, row, off, skip = args
            return out, c, dict(list(row.items())[:-1]), off, skip

    indexed(monkeypatch, drop)


def transpose_a_square_apply(monkeypatch, phase=0, counted=lambda: True):
    """T: every 101st apply of a square Mat applies its transpose; at a
    phase p the applies counted p modulo 101, counting only those made
    while counted() holds."""
    calls = itertools.count(1)

    def transpose(kind, args):
        if kind == "apply" and counted() and next(calls) % 101 == phase:
            m, v = args
            return m.T, v

    indexed(monkeypatch, transpose)


def _route_fault(owner, name, wrong):
    return lambda monkeypatch: monkeypatch.setattr(owner, name, wrong)


MUTANTS = {"R": skip_the_last_pivot_row, "A": drop_a_last_entry,
           "T": transpose_a_square_apply,
           **{name: _route_fault(owner, name, wrong)
              for _, owner, name, wrong, _ in ROUTE_FAULTS}}

# Exit status of `jetcalc <suite> --seed 0` under each mutant: 1 for failing
# records, 3 for a defect met while generating instances, 0 for a run that
# passes.  A route fault reads 0 on the suites that never take its route.
# The zeros of A and T hide no wrong verdict, counted at seed 0.  kernel
# makes 1,305 _axpy calls that can change their output (jet 15,299), so A
# corrupts one, the 997th.  It falls in the copy of the identity that
# act_poly makes for the monomial 1, when alpha_bar_image reads route two
# of kernel_alpha_bar in subquotient_certified for instance 3, the ideal
# (3/2 x2 - 3 x1, x1^2, x1 x2, x2^2) of order 1 (directions e1, e2), and it
# drops the identity's entry (0, 0).  Route two reads only the last column,
# the class of 1, so its rows, the kernel and every verdict are the clean
# run's, and the run exits 0.  kernel's 151 square applies all come from
# CofiniteIdeal closures; kernel_alpha_bar calls no apply.  tests/probe.py
# prints these whole-run counts.
# T's one transpose that changes a result, in jet and in kernel alike, falls
# in the closure of a CofiniteIdeal that gen draws (the dual-number ideal
# (x1^2) in jet, power_ideal(2, 2) in kernel).  That ideal comes out larger
# but still an ideal, closed under the shifts and holding its generators,
# and its k is read off the larger span (jet's becomes the maximal ideal,
# k = 0; kernel's keeps k = 2 at codimension 5), so every check runs on a
# valid instance and its verdicts hold.
# tests/test_oracle.py holds the oracles that T fails.
CATCH_TABLE = {
    #                 jet kernel dcomm pw
    "R":              (3, 3, 3, 1),
    "A":              (1, 0, 1, 1),
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


# --- the sweeps ------------------------------------------------------------------
#
# The table above pins one schedule per mutant: which call it corrupts moves
# whenever a change adds or removes work.  A sweep runs `jetcalc <suite>
# --seed 0` under A and T at many phases, corrupting only calls made inside
# Suite.check, so that instance generation is never hit.  Each run records
# every check's (check_id, values), the named results its verdict is read
# from, as its function returns them to Suite.check.
# Gate 1: a run that exits 0 records the clean run's values (no silent
# change).  Gate 2: the phases that end in failing records are at least the
# floor, the count measured when the sweep was added: SWEEP_FLOORS holds it
# for every phase, which runs under `slow`, and for every STRIDE-th phase,
# which tier-1 runs.  On dcomm every phase but T's phase 42 ends in failing
# records; that one records the clean values (the script at the end of this
# file prints the clean phases of each sweep of the suites it is given).
SWEEP_PHASES = {"A": range(0, 997, 10), "T": range(101)}
STRIDE = 4
SWEEP_FLOORS = {  # (every phase, every STRIDE-th phase)
    ("jet", "A"): (100, 25), ("jet", "T"): (28, 6),
    ("kernel", "A"): (24, 6), ("kernel", "T"): (4, 0),
    ("dcomm", "A"): (100, 25), ("dcomm", "T"): (100, 26),
    ("pw", "A"): (52, 13), ("pw", "T"): (53, 13),
}


def test_an_order_is_first_read_inside_a_check(monkeypatch, capsys):
    """During `jetcalc verify --seed 0` on the three tiers no FinMod.k is
    first read outside Suite.check: generating an instance reads no order,
    so a defect in the loop that reads it ends in a failing record, not in
    the internal-error status."""
    inside, outside = inside_check(monkeypatch), []
    probe(monkeypatch, FinMod, "k",
          lambda m: m._k is None and not inside() and outside.append(m))
    for flags in ([], *TIERS.values()):
        assert cli.main(["verify", "--seed", "0", *flags]) == 0
    capsys.readouterr()
    assert outside == []


# The calls a sweep indexes (see probe.indexed) made inside Suite.check:
# their _axpy and apply counts and the SHA-256 of their kinds and arguments
# in order.  A phase p corrupts the calls counted p modulo 997 (A) or 101
# (T) among these, so a change that moves either sequence moves every
# corruption and must re-measure SWEEP_FLOORS, then re-pin here:
# `PYTHONPATH=src python tests/probe.py SUITE` prints a suite's tuple.
SCHEDULES = {
    "dcomm": (3450, 709, "8c73e5be2054b14fc8787a930bc0eb91"
              "461937fd1c24b82b3563ed6b2404dd37"),
    "jet": (15045, 70, "5163ad3960fe1c129de27f59c65b2277"
            "8659cf7c2738ccf0dafab3fa5eb3ae6c"),
    "kernel": (1277, 68, "23225bab7f820a455ba509e79caab51a"
               "f359241c260603d5b9f1e8511adfd0e5"),
    "pw": (3061, 816, "7bc839f5ba54314914ca7400dc8b3b7c"
           "3827f70a60ec3862c79e00c21d4970f3"),
}


@pytest.mark.parametrize("suite", sorted(SCHEDULES))
def test_the_calls_a_sweep_indexes_are_pinned(suite):
    rc, _, schedule = work(suite)
    assert rc == 0 and schedule == SCHEDULES[suite]


def _run(suite, mutant=None, phase=0):
    """(exit status, recorded values) of `jetcalc <suite> --seed 0`, under
    the sweep mutant `mutant` at `phase` when given."""
    values = []
    with pytest.MonkeyPatch.context() as mp:
        inside = inside_check(mp, values)
        if mutant is not None:
            MUTANTS[mutant](mp, phase, inside)
        rc = cli.main([suite, "--seed", "0"])
    return rc, values


def _sweep(suite, mutant, phases):
    """(the phases exiting 1, the phases that exit 0 with the clean run's
    values, the phases that exit 0 with other values)."""
    rc, clean = _run(suite)
    assert rc == 0 and clean
    caught, same, silent = [], [], []
    for phase in phases:
        rc, values = _run(suite, mutant, phase)
        assert rc in (0, 1)
        (caught if rc else same if values == clean else silent).append(phase)
    return caught, same, silent


@pytest.mark.parametrize("suite, mutant", sorted(SWEEP_FLOORS))
def test_a_stride_of_each_sweep_makes_no_silent_change(suite, mutant):
    caught, _, silent = _sweep(suite, mutant, SWEEP_PHASES[mutant][::STRIDE])
    assert silent == []
    assert len(caught) >= SWEEP_FLOORS[suite, mutant][1], "caught at %d phases" % len(caught)


@pytest.mark.slow
@pytest.mark.parametrize("suite, mutant", sorted(SWEEP_FLOORS))
def test_every_phase_of_each_sweep_makes_no_silent_change(suite, mutant):
    caught, _, silent = _sweep(suite, mutant, SWEEP_PHASES[mutant])
    assert silent == []
    assert len(caught) >= SWEEP_FLOORS[suite, mutant][0], "caught at %d phases" % len(caught)


if __name__ == "__main__":
    # PYTHONPATH=src python tests/test_mutants.py [SUITE ...]: re-measure
    # after a change that moves a schedule, printing per suite and mutant
    # the phases caught, the phases that exit 0 with the clean values and
    # the silent phases of the stride and of the every-phase sweep, for the
    # named suites (all four without one).  The CLI's own output is
    # discarded.
    import contextlib
    import io
    import sys

    suites = sys.argv[1:] or cli.SUITES
    if unknown := [s for s in suites if s not in cli.SUITES]:
        sys.exit("no suite is named %s; the suites are %s"
                 % (", ".join(unknown), ", ".join(cli.SUITES)))
    for suite, mutant in sorted(k for k in SWEEP_FLOORS if k[0] in suites):
        for sweep, phases in (("stride", SWEEP_PHASES[mutant][::STRIDE]),
                              ("every phase", SWEEP_PHASES[mutant])):
            with contextlib.redirect_stdout(io.StringIO()):
                caught, same, silent = _sweep(suite, mutant, phases)
            print("%s %s %s: caught %d of %d, clean %s, silent %s"
                  % (suite, mutant, sweep, len(caught), len(phases), same, silent),
                  flush=True)
