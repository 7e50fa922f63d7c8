"""Deterministic mutants of the package, and what `jetcalc` catches of them.

Each suite runs at seed 0 under each mutant below.  A run must end in
failing records (exit status 1) or in the documented internal error of
instance generation (exit status 3), never in a raised exception.  The
table of which suite catches which mutant is pinned as a floor: a mutant
caught today stays caught, and one caught by a failing record stays caught
by one.  This is mutation analysis in the sense of DeMillo, Lipton and
Sayward, "Hints on test data selection", IEEE Computer 11(4), 1978.
"""

import hashlib
import itertools
import json
import sys

import pytest

from jetcalc import cli, linalg
from jetcalc.linalg import SpanBasis
from jetcalc.localmod import FinMod
from test_cli import ROUTE_FAULTS, TIERS


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


def _always():
    return True


def drop_a_last_entry(monkeypatch, phase=0, counted=_always):
    """A: every 997th _axpy call that can change its output, one whose row
    has a key other than `skip`, drops the last entry of its row.  Calls
    that change nothing are not counted, so adding or removing them moves
    no corruption.  At a phase p the calls counted p modulo 997 are
    dropped, and only calls made while counted() holds are counted."""
    axpy, calls = linalg._axpy, itertools.count(1)

    def dropping(out, c, row, off=0, skip=None):
        if counted() and any(j != skip for j in row) and next(calls) % 997 == phase:
            row = dict(list(row.items())[:-1])
        return axpy(out, c, row, off, skip)

    _everywhere(monkeypatch, "_axpy", dropping)


def transpose_a_square_apply(monkeypatch, phase=0, counted=_always):
    """T: every 101st apply of a square Mat applies its transpose; at a
    phase p the applies counted p modulo 101, counting only those made
    while counted() holds."""
    apply, calls = linalg.apply, itertools.count(1)

    def transposing(m, v):
        if m.nrows == m.ncols and counted() and next(calls) % 101 == phase:
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
# CofiniteIdeal closures; kernel_alpha_bar calls no apply.  The main block
# below prints these whole-run counts.
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
# which tier-1 runs.  On dcomm every phase but T's phase 89 ends in failing
# records; that one records the clean values.
SWEEP_PHASES = {"A": range(0, 997, 10), "T": range(101)}
STRIDE = 4
SWEEP_FLOORS = {  # (every phase, every STRIDE-th phase)
    ("jet", "A"): (100, 25), ("jet", "T"): (28, 6),
    ("kernel", "A"): (24, 6), ("kernel", "T"): (4, 0),
    ("dcomm", "A"): (100, 25), ("dcomm", "T"): (100, 26),
    ("pw", "A"): (52, 13), ("pw", "T"): (53, 13),
}


def _inside_check(mp, values=None):
    """Patch Suite.check to raise a flag while it runs, and to append each
    check's (check_id, values) to the list `values` when one is given;
    return the flag's reader."""
    inside, check = [False], cli.Suite.check

    def checking(self, check_id, statement, instance, fn):
        def noting():
            out = fn()
            if values is not None:
                values.append((check_id, out[1]))
            return out

        inside[0] = True
        try:
            return check(self, check_id, statement, instance, noting)
        finally:
            inside[0] = False

    mp.setattr(cli.Suite, "check", checking)
    return lambda: inside[0]


def test_an_order_is_first_read_inside_a_check(monkeypatch, capsys):
    """During `jetcalc verify --seed 0` on the three tiers no FinMod.k is
    first read outside Suite.check: generating an instance reads no order,
    so a defect in the loop that reads it ends in a failing record, not in
    the internal-error status."""
    inside, k, outside = _inside_check(monkeypatch), FinMod.k.fget, []

    def reading(self):
        if self._k is None and not inside():
            outside.append(self)
        return k(self)

    monkeypatch.setattr(FinMod, "k", property(reading))
    for flags in ([], *TIERS.values()):
        assert cli.main(["verify", "--seed", "0", *flags]) == 0
    capsys.readouterr()
    assert outside == []


def _entries(d):
    return [(j, x.a, x.b, x.den) for j, x in d.items()]


def _schedule(suite, counted=None):
    """(output-changing _axpy calls, square applies, sha256 of their kinds
    and arguments in order) made by `jetcalc <suite> --seed 0` while
    counted() holds, by default inside Suite.check: the calls that A and T
    count in a sweep.  With _always they are the whole run's, which A and T
    count at their phase 0 in CATCH_TABLE."""
    counts, digest = {"axpy": 0, "apply": 0}, hashlib.sha256()
    axpy, apply = linalg._axpy, linalg.apply

    def note(kind, *args):
        counts[kind] += 1
        digest.update(repr((kind,) + args).encode())

    def noting_axpy(out, c, row, off=0, skip=None):
        if counted() and any(j != skip for j in row):
            note("axpy", (c.a, c.b, c.den), _entries(row), off, skip)
        return axpy(out, c, row, off, skip)

    def noting_apply(m, v):
        if m.nrows == m.ncols and counted():
            note("apply", [_entries(row) for row in m.rows], _entries(v))
        return apply(m, v)

    with pytest.MonkeyPatch.context() as mp:
        counted = counted or _inside_check(mp)
        _everywhere(mp, "_axpy", noting_axpy)
        _everywhere(mp, "apply", noting_apply)
        assert cli.main([suite, "--seed", "0"]) == 0
    return counts["axpy"], counts["apply"], digest.hexdigest()


# A sweep's phase p corrupts the calls counted p modulo 997 (A) or 101 (T)
# among those above, so its floors were measured on exactly these sequences.
# A change that moves either sequence moves every corruption and must
# re-measure SWEEP_FLOORS, then re-pin here:
# `PYTHONPATH=src python tests/test_mutants.py` prints all of them.
SCHEDULES = {
    "dcomm": (6876, 1025, "2aac7b22bf5b3d26291af1563b51032b"
              "4b4ce2cbb8c96af0b5d2834991edbfc3"),
    "jet": (15045, 70, "5163ad3960fe1c129de27f59c65b2277"
            "8659cf7c2738ccf0dafab3fa5eb3ae6c"),
    "kernel": (1277, 68, "23225bab7f820a455ba509e79caab51a"
               "f359241c260603d5b9f1e8511adfd0e5"),
    "pw": (3061, 816, "7bc839f5ba54314914ca7400dc8b3b7c"
           "3827f70a60ec3862c79e00c21d4970f3"),
}


@pytest.mark.parametrize("suite", sorted(SCHEDULES))
def test_the_calls_a_sweep_indexes_are_pinned(suite):
    assert _schedule(suite) == SCHEDULES[suite]


def _run(suite, mutant=None, phase=0):
    """(exit status, recorded values) of `jetcalc <suite> --seed 0`, under
    the sweep mutant `mutant` at `phase` when given."""
    values = []
    with pytest.MonkeyPatch.context() as mp:
        inside = _inside_check(mp, values)
        if mutant is not None:
            MUTANTS[mutant](mp, phase, inside)
        rc = cli.main([suite, "--seed", "0"])
    return rc, values


def _sweep(suite, mutant, phases):
    """(number of phases exiting 1, the phases that exit 0 with values
    other than the clean run's)."""
    rc, clean = _run(suite)
    assert rc == 0 and clean
    caught, silent = 0, []
    for phase in phases:
        rc, values = _run(suite, mutant, phase)
        assert rc in (0, 1)
        caught += rc == 1
        if rc == 0 and values != clean:
            silent.append(phase)
    return caught, silent


@pytest.mark.parametrize("suite, mutant", sorted(SWEEP_FLOORS))
def test_a_stride_of_each_sweep_makes_no_silent_change(suite, mutant):
    caught, silent = _sweep(suite, mutant, SWEEP_PHASES[mutant][::STRIDE])
    assert silent == []
    assert caught >= SWEEP_FLOORS[suite, mutant][1], "caught at %d phases" % caught


@pytest.mark.slow
@pytest.mark.parametrize("suite, mutant", sorted(SWEEP_FLOORS))
def test_every_phase_of_each_sweep_makes_no_silent_change(suite, mutant):
    caught, silent = _sweep(suite, mutant, SWEEP_PHASES[mutant])
    assert silent == []
    assert caught >= SWEEP_FLOORS[suite, mutant][0], "caught at %d phases" % caught


if __name__ == "__main__":
    # PYTHONPATH=src python tests/test_mutants.py: re-measure after a change
    # that moves a schedule, printing the SCHEDULES tuples, the whole-run
    # counts of output-changing _axpy calls and square applies on jet and
    # kernel that the CATCH_TABLE comment cites, then per suite and mutant
    # the phases caught and the silent phases of the stride and of the
    # every-phase sweep.  The CLI's own output is discarded.
    import contextlib
    import io

    def quiet(fn, *args):
        with contextlib.redirect_stdout(io.StringIO()):
            return fn(*args)

    for suite in sorted(SCHEDULES):
        print("SCHEDULES[%r] = %r" % (suite, quiet(_schedule, suite)), flush=True)
    for suite in ("jet", "kernel"):
        print("%s, whole run: %d _axpy, %d square applies"
              % ((suite,) + quiet(_schedule, suite, _always)[:2]), flush=True)
    for suite, mutant in sorted(SWEEP_FLOORS):
        for sweep, phases in (("stride", SWEEP_PHASES[mutant][::STRIDE]),
                              ("every phase", SWEEP_PHASES[mutant])):
            caught, silent = quiet(_sweep, suite, mutant, phases)
            print("%s %s %s: caught %d of %d, silent %s"
                  % (suite, mutant, sweep, caught, len(phases), silent), flush=True)
