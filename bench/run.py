"""jetcalc benchmark: seeded closed-loop verification runs.

    python3 bench/run.py --workload {dcomm,pw} [--seed N] [--seconds S]
                         [--trace 0|1]

Run from the repository root; the library is imported from ./src.  One
client checks one instance at a time and starts the next when the last one
is done.  Instances come from `jetcalc.gen`, seeded by --seed (see
workloads.py); every verdict is checked, and the first round's sorted
verdict records are hashed and compared against bench/pins.json.

--trace 0 checks as many whole rounds as took --seconds on the seed code (a
fixed number per workload and --seconds, so that percentiles always fall at
the same ranks), all generated at set-up, and prints the end-to-end metrics,
scaled to a reference host speed (see refspeed.py).  --trace 1 runs a fixed
number of rounds three times (untraced, wrapped, profiled) and prints the
per-layer metrics and the tracing overhead.  The last line of standard
output is one JSON object: {"correct", "attempted", "failed", "metrics"}.
Exit status is 0 when the run completed, whatever the verdicts, and 2 when
it could not run at all.
"""

import argparse
import cProfile
import gc
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import traceback
from collections import Counter
from time import perf_counter

import layers
import refspeed

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
PINS_PATH = os.path.join(BENCH_DIR, "pins.json")

DEFAULT_SEED = 0
# held out: never used while writing a change, only to confirm a claim
HELD_OUT_SEED = 1000003
# set-up is measured this many times (this process plus fresh interpreters)
SETUP_SAMPLES = 5
# reference chunks timed before and after each set-up, for its host speed
SETUP_REF_CHUNKS = 20
# rounds a traced run checks: fixed, so that per-layer counts repeat exactly
TRACE_ROUNDS = 1
# the tail percentile keeps this many samples beyond it
TAIL_BEYOND = 10


def load_library():
    """Import the benchmark's workload module, which imports jetcalc from
    ./src.  Exits with status 2 when the library is missing."""
    sys.path.insert(0, os.path.join(ROOT, "src"))
    try:
        import workloads
    except ImportError as exc:
        print("cannot import jetcalc from %s: %s"
              % (os.path.join(ROOT, "src"), exc), file=sys.stderr)
        sys.exit(2)
    return workloads


def sha256(obj):
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class Tally:
    """Verdicts, per-instance check times and the pinned first round.  With
    `scaled`, a reference chunk (refspeed.py) runs before the first check
    and after every check, and `scaled_times` holds each instance's time
    with every check scaled by the chunks on either side of it."""

    def __init__(self, scaled=False):
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.times = []
        self.scaled_times = []
        self.sizes = Counter()
        self.pinned = []
        self.chunk = refspeed.chunk_s() if scaled else None

    def check(self, inst, pin):
        """Run the instance's checks; returns their wall time."""
        verdicts = []
        elapsed = scaled = 0.0
        for check_id, thunk in inst.checks:
            t0 = perf_counter()
            try:
                ok = bool(thunk())
            except Exception:  # a raising check is a failed check
                ok = False
                self.errors.append((check_id, traceback.format_exc()))
            dt = perf_counter() - t0
            elapsed += dt
            if self.chunk is not None:
                after = refspeed.chunk_s()
                scaled += dt * refspeed.scale((self.chunk, after))
                self.chunk = after
            verdicts.append((check_id, ok))
        self.times.append(elapsed)
        if self.chunk is not None:
            self.scaled_times.append(scaled)
        self.sizes[inst.size] += 1
        self.attempted += len(verdicts)
        self.failed += sum(1 for _, ok in verdicts if not ok)
        if pin:
            digest = sha256(inst.describe())
            self.pinned.extend(
                {"check": c, "instance": digest, "status": "pass" if ok else "fail"}
                for c, ok in verdicts)
        return elapsed

    def digest(self):
        """SHA-256 of the first round's sorted verdict records."""
        return sha256(sorted(self.pinned,
                             key=lambda r: (r["check"], r["instance"])))

    def check_pin(self, workload, seed):
        """Compare the first round's digest with the pin.  A mismatch counts
        every pinned check as failed."""
        digest = self.digest()
        with open(PINS_PATH) as fh:
            want = json.load(fh).get(workload, {}).get(str(seed))
        if want is None:
            status = "unpinned"
        elif want == digest:
            status = "match"
        else:
            status = "MISMATCH (pinned %s)" % want
            fresh = sum(1 for r in self.pinned if r["status"] == "pass")
            self.failed += fresh
        return digest, status


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def tail(times):
    """(value, percentile, samples beyond) for the highest percentile that
    still has TAIL_BEYOND samples beyond it; the maximum when there are too
    few samples."""
    xs = sorted(times)
    n = len(xs)
    if n <= TAIL_BEYOND:
        return xs[-1], 100.0, 0
    return xs[n - 1 - TAIL_BEYOND], 100.0 * (n - TAIL_BEYOND) / n, TAIL_BEYOND


def set_up(args):
    """Import the library and generate every round of the run.  Returns
    (workload, rounds, {"s": seconds scaled to the baseline machine's speed,
    "raw_s": wall seconds})."""
    before = [refspeed.chunk_s() for _ in range(SETUP_REF_CHUNKS)]
    t0 = perf_counter()
    workload = load_library().WORKLOADS[args.workload]
    rounds = workload.rounds(args.seed, workload.rounds_for(args.seconds))
    raw = perf_counter() - t0
    after = [refspeed.chunk_s() for _ in range(SETUP_REF_CHUNKS)]
    return workload, rounds, {"s": raw * refspeed.scale(before + after),
                              "raw_s": raw}


def setup_probe(args):
    """One set-up in this fresh interpreter."""
    print(json.dumps(set_up(args)[2]))


def probe_in_subprocess(args):
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds)]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                         timeout=120, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def environment(args, workload, tally, rounds):
    return {
        "python": sys.version.split()[0],
        "nproc": os.cpu_count(),
        "seed": args.seed,
        "default_seed": DEFAULT_SEED,
        "held_out_seed": HELD_OUT_SEED,
        "rounds": rounds,
        "instances": len(tally.times),
        "size_histogram": {workload.size_name: {
            str(k): v for k, v in sorted(tally.sizes.items())}},
    }


def run_timed(args):
    """--trace 0: end-to-end metrics over the run's rounds.  Set-up (import
    plus generating every round) is timed here and in fresh interpreters,
    and kept out of the check time.  Every timing is scaled to the baseline
    machine's speed (see refspeed.py): each check's time by the reference
    chunks run just before and just after it."""
    workload, rounds, setup = set_up(args)
    setups = [setup] + [probe_in_subprocess(args)
                        for _ in range(SETUP_SAMPLES - 1)]
    # collections in the timed pass need not traverse the set-up's objects
    gc.collect()
    gc.freeze()

    tally = Tally(scaled=True)
    for i, rnd in enumerate(rounds):
        for inst in rnd:
            tally.check(inst, i == 0)
    digest, pin = tally.check_pin(workload.name, args.seed)
    times = tally.scaled_times
    scales = [s / t for s, t in zip(times, tally.times)]

    def timings(times, setup_key):
        return {
            "checks_per_s": (tally.attempted - tally.failed) / sum(times),
            "check_p50_ms": statistics.median(times) * 1000.0,
            "check_tail_ms": tail(times)[0] * 1000.0,
            "setup_s": statistics.median(s[setup_key] for s in setups),
        }

    scaled = timings(times, "s")
    units = {"checks_per_s": "checks/s", "check_p50_ms": "ms",
             "check_tail_ms": "ms", "setup_s": "s"}
    metrics = {name: (value, units[name]) for name, value in scaled.items()}
    metrics["peak_rss_mb"] = (peak_rss_mb(), "MB")
    metrics["pass_frac"] = (1.0 - tally.failed / tally.attempted, "ratio")
    _, tail_pct, beyond = tail(times)
    info = environment(args, workload, tally, len(rounds))
    info.update({
        "check_s": sum(times),
        "check_tail": {"percentile": tail_pct, "samples_beyond": beyond,
                       "samples": len(times)},
        "setup_samples": setups,
        "host_scale": {"min": min(scales), "median": statistics.median(scales),
                       "max": max(scales)},
        "unscaled": timings(tally.times, "raw_s"),
        "fail_frac": tally.failed / tally.attempted,
        "verdict_digest": digest,
        "pin": pin,
    })
    return [tally], metrics, info, True


def run_traced(args):
    """--trace 1: per-layer metrics from a fixed number of rounds.  Each pass
    checks its own freshly generated copy of the rounds, so no pass sees
    state a previous one left on the instances.  The untraced and wrapped
    passes alternate instance by instance, so that a change in machine speed
    during the run hits both and their difference is the tracing overhead."""
    workload = load_library().WORKLOADS[args.workload]

    def fresh():
        return workload.rounds(args.seed, TRACE_ROUNDS)

    plain_rounds = fresh()
    tracer = layers.Tracer()
    tracer.install()
    try:
        traced_rounds = fresh()
    finally:
        tracer.remove()
    tracer.reset()
    untraced, traced = Tally(), Tally()
    for i, (plain, wrapped) in enumerate(zip(plain_rounds, traced_rounds)):
        for a, b in zip(plain, wrapped):
            untraced.check(a, i == 0)
            tracer.install()
            try:
                traced.check(b, False)
            finally:
                tracer.remove()
    digest, pin = untraced.check_pin(workload.name, args.seed)
    layer = tracer.metrics()

    rounds = fresh()
    profile = cProfile.Profile(builtins=False)
    profiled = Tally()
    profile.enable()
    try:
        for rnd in rounds:
            for inst in rnd:
                profiled.check(inst, False)
    finally:
        profile.disable()
    prof_metrics, prof_calls = layers.profile_layers(profile)
    layer.update(prof_metrics)

    untraced_s, traced_s = sum(untraced.times), sum(traced.times)
    layer["trace.overhead_s"] = (traced_s - untraced_s, "s")
    mismatches = layers.self_test(tracer.calls, prof_calls)

    info = environment(args, workload, untraced, TRACE_ROUNDS)
    info.update({
        "untraced_s": untraced_s,
        "traced_s": traced_s,
        "overhead_frac": (traced_s - untraced_s) / untraced_s,
        "self_test": [{"function": n, "wrapper_calls": w, "profile_calls": p}
                      for n, w, p in mismatches] or "pass",
        "time_waited": "not applicable: one process, no layer queues work",
        "verdict_digest": digest,
        "pin": pin,
    })
    return [untraced, traced, profiled], layer, info, not mismatches


def main(argv=None):
    ap = argparse.ArgumentParser(
        prog="bench/run.py",
        description="seeded closed-loop benchmark of the jetcalc verifier")
    ap.add_argument("--workload", required=True, choices=["dcomm", "pw"])
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED,
                    help="instance seed (default %d; held-out seed %d)"
                         % (DEFAULT_SEED, HELD_OUT_SEED))
    ap.add_argument("--seconds", type=float, default=30.0,
                    help="run length with --trace 0, as rounds that took this "
                         "long on the seed code (default 30)")
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0,
                    help="1: per-layer metrics from a traced run")
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if args.setup_probe:
        setup_probe(args)
        return 0

    measure = run_traced if args.trace else run_timed
    tallies, metrics, info, self_test_ok = measure(args)
    attempted = sum(t.attempted for t in tallies)
    failed = sum(t.failed for t in tallies)

    for check_id, tb in [e for t in tallies for e in t.errors][:5]:
        print("check %s raised:\n%s" % (check_id, tb), file=sys.stderr)
    print("workload %s, seed %d, %s" % (args.workload, args.seed,
                                         "traced" if args.trace else "timed"))
    for name, (value, unit) in metrics.items():
        print("  %-40s %14.6g %s" % (name, value, unit))
    print(json.dumps({"info": info}, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0 and self_test_ok,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
