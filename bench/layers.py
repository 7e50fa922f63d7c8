"""Per-layer counters for the traced run, kept entirely in the benchmark.

Two instruments, each used on its own freshly generated copy of the same
rounds:

- `Tracer` wraps the public functions of the layers named in LAYER_FUNCS
  (and every public function of `gen`).  A wrapper counts calls and times
  the outermost call of its function, so nested calls are not counted
  twice.  Callers bind names with `from .linalg import mmul`, so the wrapper
  replaces every binding of the function object in every loaded `jetcalc`
  module, not only the defining one.  The wrappers on `linalg` also look at
  the rows entering `rref`, `nullspace` and `SpanBasis.add` for coefficient
  size and density.
- `profile_layers` reads one cProfile pass.  Scalar methods run tens of
  millions of times per run, far too often for Python wrappers, so their
  counts and each module's self time come from the profiler.
  `scalars.self_s` includes the self time of `fractions`, which only
  `Scalar` calls while checks run (its hashing, construction, `re`, `im`).

`self_test` compares the wrapper counts against the profiler's counts of
the same functions; a binding the wrappers missed shows as a mismatch.
"""

import fractions
import pstats
import sys
from collections import Counter, defaultdict
from time import perf_counter

# (metric prefix, module, attribute path) of every wrapped layer function
LAYER_FUNCS = (
    ("linalg.mat_vec", "linalg", "mat_vec"),
    ("linalg.rref", "linalg", "rref"),
    ("linalg.mmul", "linalg", "mmul"),
    ("linalg.nullspace", "linalg", "nullspace"),
    ("linalg.span_add", "linalg", "SpanBasis.add"),
    ("jetfun.jet", "jetfun", "jet"),
    ("jetfun.jet_family", "jetfun", "jet_family"),
    ("approxalg.double_commutant_check", "approxalg", "double_commutant_check"),
    ("approxalg.corner_identity_check", "approxalg", "corner_identity_check"),
    ("approxalg.end_sharp_membership", "approxalg", "end_sharp_membership"),
    ("family.membership_triple", "family", "membership_triple"),
    ("family.spanned_algebra", "family", "spanned_algebra"),
    ("family.invariance_check", "family", "invariance_check"),
)


def _module(short):
    return sys.modules["jetcalc." + short]


def _resolve(short, path):
    owner = _module(short)
    *outer, attr = path.split(".")
    for name in outer:
        owner = getattr(owner, name)
    return owner, attr


def _jetcalc_modules():
    return [m for name, m in sorted(sys.modules.items())
            if name == "jetcalc" or name.startswith("jetcalc.")]


def _code_key(fn):
    code = fn.__code__
    return (code.co_filename, code.co_firstlineno, code.co_name)


class Tracer:
    """Counting and timing wrappers, built once; `install` puts them in
    place and `remove` restores the original bindings."""

    def __init__(self):
        self.calls = Counter()
        self.secs = defaultdict(float)
        self.active = Counter()
        self.rref_rows = 0
        self.add_useful = 0
        self.add_entries = 0
        self.add_nonzero = 0
        self.max_bits = 0
        self._bindings = self._prepare()

    def reset(self):
        """Drop everything counted so far except the `gen` time."""
        gen_s = self.secs["gen"]
        self.calls.clear()
        self.secs.clear()
        self.secs["gen"] = gen_s
        self.rref_rows = self.add_useful = 0
        self.add_entries = self.add_nonzero = self.max_bits = 0

    def _see_rows(self, rows):
        bits = self.max_bits
        for row in rows:
            for x in row:
                b = max(x.a.bit_length(), x.b.bit_length(), x.den.bit_length())
                if b > bits:
                    bits = b
        self.max_bits = bits

    def _probe_rref(self, args):
        self.rref_rows += len(args[0])
        self._see_rows(args[0])

    def _probe_nullspace(self, args):
        self._see_rows(args[0])

    def _probe_add(self, args):
        row = args[1]
        self.add_entries += len(row)
        self.add_nonzero += sum(1 for x in row if x.a or x.b)
        self._see_rows((row,))

    def _count_useful(self, grew):
        if grew:
            self.add_useful += 1

    def _wrap(self, fn, name, time_key, probe=None, after=None):
        """Wrapper counting calls under `name` and timing the outermost
        call under `time_key`; `probe` sees the arguments and `after` the
        result."""
        calls, secs, active = self.calls, self.secs, self.active

        def wrapper(*args, **kwargs):
            calls[name] += 1
            if probe is not None:
                probe(args)
            outer = not active[time_key]
            active[time_key] += 1
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                active[time_key] -= 1
                if outer:
                    secs[time_key] += perf_counter() - t0
            if after is not None:
                after(result)
            return result

        return wrapper

    def _targets(self, orig, wrapper, owner, attr):
        """The defining attribute and every module-level binding of `orig`,
        each with the wrapper to put there."""
        out = [(owner, attr, orig, wrapper)]
        for mod in _jetcalc_modules():
            for key, value in vars(mod).items():
                if value is orig and (mod, key) != (owner, attr):
                    out.append((mod, key, orig, wrapper))
        return out

    def _prepare(self):
        probes = {"linalg.rref": self._probe_rref,
                  "linalg.nullspace": self._probe_nullspace,
                  "linalg.span_add": self._probe_add}
        afters = {"linalg.span_add": self._count_useful}
        targets = []
        for name, short, path in LAYER_FUNCS:
            owner, attr = _resolve(short, path)
            orig = getattr(owner, attr)
            wrapper = self._wrap(orig, name, name, probes.get(name),
                                 afters.get(name))
            targets += self._targets(orig, wrapper, owner, attr)
        gen = _module("gen")
        for attr, fn in sorted(vars(gen).items()):
            if (callable(fn) and not attr.startswith("_")
                    and getattr(fn, "__module__", None) == gen.__name__
                    and not isinstance(fn, type)):
                targets += self._targets(fn, self._wrap(fn, "gen." + attr, "gen"),
                                         gen, attr)
        return targets

    def install(self):
        for obj, key, _, wrapper in self._bindings:
            setattr(obj, key, wrapper)

    def remove(self):
        for obj, key, orig, _ in self._bindings:
            setattr(obj, key, orig)

    def metrics(self):
        out = {}
        for name, _, _ in LAYER_FUNCS:
            out[name + ".calls"] = (self.calls[name], "count")
            out[name + ".s"] = (self.secs[name], "s")
        out["linalg.rref.rows"] = (self.rref_rows, "count")
        adds = self.calls["linalg.span_add"]
        out["linalg.span_add.useful_ratio"] = (
            self.add_useful / adds if adds else 0.0, "ratio")
        out["linalg.span_add.density"] = (
            self.add_nonzero / self.add_entries if self.add_entries else 0.0,
            "ratio")
        out["linalg.max_bits"] = (self.max_bits, "bits")
        out["gen.s"] = (self.secs["gen"], "s")
        return out


def profile_layers(profile):
    """Scalar method counts and per-module self time from a cProfile pass
    (run with builtins=False, so time in C helpers counts as the caller's
    self time).  `scalars.self_s` adds the self time of `fractions`, which
    is Python code that `Scalar` calls."""
    stats = pstats.Stats(profile).stats
    scalar = _module("scalars").Scalar
    calls = {key: nc for key, (cc, nc, tt, ct, callers) in stats.items()}
    self_s = defaultdict(float)
    poly_file = _module("poly").__file__
    poly_mul = 0
    for (filename, _, funcname), (cc, nc, tt, ct, callers) in stats.items():
        self_s[filename] += tt
        if filename == poly_file and funcname in ("__mul__", "__rmul__"):
            poly_mul += nc
    out = {
        "scalars.mul.calls": calls.get(_code_key(scalar.__mul__), 0),
        "scalars.bool.calls": calls.get(_code_key(scalar.__bool__), 0),
        "scalars.hash.calls": calls.get(_code_key(scalar.__hash__), 0),
        "poly.mul.calls": poly_mul,
    }
    out = {k: (v, "count") for k, v in out.items()}
    for short in ("scalars", "poly", "localmod"):
        out[short + ".self_s"] = (self_s[_module(short).__file__], "s")
    out["scalars.self_s"] = (out["scalars.self_s"][0]
                             + self_s[fractions.__file__], "s")
    return out, calls


def self_test(tracer_calls, profile_calls):
    """Names of wrapped functions whose wrapper count differs from the
    profiler's count, with both counts."""
    bad = []
    for name, short, path in LAYER_FUNCS:
        owner, attr = _resolve(short, path)
        want = profile_calls.get(_code_key(getattr(owner, attr)), 0)
        if tracer_calls[name] != want:
            bad.append((name, tracer_calls[name], want))
    return bad
