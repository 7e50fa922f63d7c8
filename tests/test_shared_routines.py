"""The routines every module shares: span closure, block-diagonal
assembly, and the square reshape and parse budget behind the JSON loaders;
the benchmark's tracer, which wraps them by name, and the tests' probe."""

import ast
import collections
import cProfile
import importlib.util
import itertools
import json
import re
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import jetcalc
from jetcalc import approxalg, cli, family, gen, jetfun, linalg, localmod, poly
from jetcalc.approxalg import ApproxModule, block_module
from jetcalc.family import PWCandidate, family_from_json
from jetcalc.linalg import SpanBasis, close_span, block_diag
from jetcalc.localmod import (FinMod, cyclic_quotient, power_ideal,
                              dual_number_module, direct_sum)
from jetcalc.poly import Vector, ExpPoly, MAX_PARSE_WORK
from jetcalc.scalars import Scalar, ZERO, ONE, Scalar as sc
from test_cli import TIERS
from test_poly import REFUSED
from oracles import is_approx_unital
from probe import indexed, probe


def unit(n, j):
    return [ONE if t == j else ZERO for t in range(n)]


def jordan(n):
    """Nilpotent Jordan block: e_j maps to e_{j-1}, e_0 to zero."""
    return tuple(tuple(ONE if c == r + 1 else ZERO for c in range(n))
                 for r in range(n))


def test_close_span_of_a_jordan_block_is_its_krylov_span(monkeypatch):
    J = linalg.Mat.of(jordan(4))
    applies = probe(monkeypatch, linalg, "apply")
    span = close_span(4, [unit(4, 2), unit(4, 2)], [J])
    assert isinstance(span, SpanBasis) and span.ncols == 4
    # e_2, J e_2 = e_1, J^2 e_2 = e_0
    assert span.same_span(SpanBasis(4, [unit(4, 0), unit(4, 1), unit(4, 2)]))
    # J maps each vector that grew the span once, never the repeat
    assert applies.calls == 3

    full = close_span(4, [unit(4, 3)], [J])
    assert full.dim == 4


def test_close_span_of_a_zero_seed_is_empty(monkeypatch):
    applies = probe(monkeypatch, linalg, "apply")
    span = close_span(3, [[ZERO] * 3], [linalg.mid(3)])
    assert span.dim == 0
    assert applies.calls == 0


def test_block_diag_places_unequal_blocks_on_the_diagonal():
    a = ((sc(2),),)
    b = ((sc(1), sc(3), ZERO), (ZERO, sc(-1), sc(5)), (sc(7), ZERO, ONE))
    c = ((ZERO, sc(4)), (sc(6), ZERO))
    big = block_diag([a, b, c])
    assert (big.nrows, big.ncols) == (6, 6)
    for off, m in ((0, a), (1, b), (4, c)):
        for r, row in enumerate(m):
            want = (ZERO,) * off + row + (ZERO,) * (6 - off - len(m))
            assert linalg.dense(big.rows[off + r], 6) == want
    assert block_diag([]) == linalg.Mat.of(())


def test_block_diag_agrees_with_direct_sum():
    A = cyclic_quotient(power_ideal(2, 2)).module
    B = dual_number_module(Vector((1, 2)))
    S = direct_sum(A, B, A)
    assert S.dim == 2 * A.dim + B.dim
    for j in range(2):
        assert S.mats[j] == block_diag([A.mats[j], B.mats[j], A.mats[j]])


FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def loader(kind):
    """(load, valid text holding 2x2 matrices, the flat entry lists of the
    parsed text, the name the loader gives the first of them)."""
    family_text = (FIXTURES / "reducible_family.json").read_text()
    if kind == "FinMod":
        return (FinMod.from_json, dual_number_module(Vector((1,))).to_json(),
                lambda d: d["action"], "action matrix 0")
    if kind == "ApproxModule":
        return (ApproxModule.from_json, block_module([2])[1].to_json(),
                lambda d: d["action"], "action matrix 0")
    if kind == "family":
        return (family_from_json, family_text,
                lambda d: d["reps"][0]["generators"], "generator 1 of rep 'R'")
    reps = family_from_json(family_text)
    return (lambda text: PWCandidate.from_json(text, reps),
            (FIXTURES / "escaping_candidate.json").read_text(),
            lambda d: list(d["components"].values()),
            "candidate component 'R'")


@pytest.mark.parametrize("extra", [1, -1], ids=["long", "short"])
@pytest.mark.parametrize("kind", ["FinMod", "ApproxModule", "family", "candidate"])
def test_loaders_refuse_a_matrix_of_the_wrong_length(kind, extra):
    load, text, flats, what = loader(kind)
    load(text)
    data = json.loads(text)
    flat = flats(data)[0]
    if extra > 0:
        flat.append(flat[0])
    else:
        flat.pop()
    want = "%s has %d entries; a 2x2 matrix needs 4" % (what, 4 + extra)
    with pytest.raises(ValueError, match=re.escape(want)):
        load(json.dumps(data))


@pytest.mark.parametrize("kind", ["FinMod", "ApproxModule", "family", "candidate"])
def test_loaders_name_the_entry_they_cannot_parse(kind):
    """An entry that does not parse, such as "1/", 1,000 brackets deep or
    5,000 digits long, is refused in under 0.2 s by its matrix and index."""
    load, text, flats, what = loader(kind)
    for entry, why in REFUSED.items():
        data = json.loads(text)
        flats(data)[0][3] = entry
        start = time.perf_counter()
        with pytest.raises(ValueError, match=re.escape("%s entry 3: %s" % (what, why))):
            load(json.dumps(data))
        assert time.perf_counter() - start < 0.2, (kind, why)


JUNK = st.recursive(
    st.none() | st.booleans() | st.integers() | st.just(10 ** 40) | st.floats()
    | st.text(max_size=5) | st.sampled_from(["1", "x1", "0", "2,0", "-1"]),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3), max_leaves=6)


def json_paths(doc, prefix=()):
    """The path of every value inside a parsed JSON document, the root
    first."""
    yield prefix
    items = (doc.items() if isinstance(doc, dict)
             else enumerate(doc) if isinstance(doc, list) else ())
    for key, value in items:
        yield from json_paths(value, prefix + (key,))


# arrays nested this deep overflow the JSON parser's recursion
DEEP = "[" * 100000 + "]" * 100000


@st.composite
def mutated_json(draw, text):
    """text with one value dropped (a key, or an item of a list) or
    replaced by junk: null, booleans, huge integers, floats, short strings,
    lists and objects nested from them, and arrays nested DEEP."""
    doc = json.loads(text)
    path = draw(st.sampled_from(list(json_paths(doc))))
    junk = draw(st.just("DEEP") | JUNK)
    if not path:
        return DEEP if junk == "DEEP" else json.dumps(junk)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if draw(st.booleans()):
        del parent[path[-1]]
    else:
        parent[path[-1]] = junk
    return json.dumps(doc).replace('"DEEP"', DEEP)


@pytest.mark.parametrize("kind", ["FinMod", "ApproxModule", "family", "candidate"])
def test_loaders_refuse_mutated_json_with_a_value_error(kind, monkeypatch):
    """Every loader returns or raises a ValueError on mutated JSON, and
    forms no more Scalar products than a small budget allows."""
    load, text, _, _ = loader(kind)

    def within_budget(a, b):
        assert products.calls <= 20000, "formed more than 20000 products"

    products = probe(monkeypatch, Scalar, "__mul__", within_budget)

    @settings(max_examples=150, deadline=None)
    @given(mutated_json(text))
    def check(bad):
        products.calls = 0
        try:
            load(bad)
        except ValueError:
            pass

    check()


def test_a_loaded_file_has_one_parse_budget(monkeypatch):
    """Every entry of one family or candidate file is charged to one
    MAX_PARSE_WORK budget, counted over every ExpPoly product: entries that
    each fit it but together do not are refused, and the fixtures load."""
    reps = family_from_json((FIXTURES / "reducible_family.json").read_text())
    PWCandidate.from_json((FIXTURES / "escaping_candidate.json").read_text(), reps)
    pairs = []

    def within_budget(a, b):
        if isinstance(b, ExpPoly):
            pairs.append(poly._nterms(a) * poly._nterms(b))
            assert sum(pairs) <= MAX_PARSE_WORK, "parsed past the budget"

    probe(monkeypatch, ExpPoly, "__mul__", within_budget)
    # parsing only: the generators' determinants form products of their own
    monkeypatch.setattr(family, "RepFamily", lambda label, gens: gens)
    big = "(x1+1)^256"  # 65,792 term pairs: one fits the budget, two do not

    def family_text(*gens):
        return json.dumps({"nvars": 1, "reps": [
            {"label": "R", "dim": 2, "generators": [list(g) for g in gens]}]})

    family_from_json(family_text(["1", big, "0", "1"]))
    assert sum(pairs) == 65792
    refused = [lambda: family_from_json(family_text(["1", big, "0", "1"],
                                                    ["1", "0", big, "1"])),
               lambda: PWCandidate.from_json(json.dumps(
                   {"nvars": 1, "components": {"R": [big, "0", "0", big]}}), reps)]
    for load in refused:
        pairs.clear()
        with pytest.raises(ValueError, match="limit %d" % MAX_PARSE_WORK):
            load()


# parses to 0 after 65,792 term pairs: one fits MAX_PARSE_WORK, two do not
HOSTILE = "(E[1]+E[2])^256*0"


@pytest.mark.parametrize("kind", ["FinMod", "ApproxModule"])
def test_a_scalar_file_has_one_parse_budget(kind):
    """A FinMod or ApproxModule file of the largest admitted shape whose
    every entry is HOSTILE is refused with the work-limit error in under
    2 s: its entries share one budget.  With a fresh budget per entry the
    144-entry FinMod file took 25 s to load."""
    if kind == "FinMod":
        load, text = FinMod.from_json, json.dumps(
            {"nvars": 1, "k": 1, "dim": 12, "action": [[HOSTILE] * 144]})
    else:
        n, d = approxalg.MAX_ALGEBRA_DIM, approxalg.MAX_MODULE_DIM
        load, text = ApproxModule.from_json, json.dumps(
            {"basis": ["e%d" % t for t in range(n)],
             "structure_constants": {"%d,%d" % (t, t): {str(t): HOSTILE} for t in range(n)},
             "idempotent_chain": [[HOSTILE] * n], "dim": d,
             "action": [[HOSTILE] * (d * d)] * n})
    start = time.perf_counter()
    with pytest.raises(ValueError, match="limit %d" % MAX_PARSE_WORK):
        load(text)
    assert time.perf_counter() - start < 2


def test_the_largest_canonical_module_loads_under_one_budget():
    """Four 3x3 blocks plus 2 null dimensions, the largest module the
    loader admits, round-trips through its canonical JSON within one parse
    budget."""
    alg, M = block_module([3, 3, 3, 3])
    d = M.dim + 2
    mats = [linalg.Mat(m.rows + ({},) * 2, d) for m in M.mats]
    M = ApproxModule(alg, d, mats)
    assert (M.dim, alg.dim) == (approxalg.MAX_MODULE_DIM, approxalg.MAX_ALGEBRA_DIM)
    N = ApproxModule.from_json(M.to_json())
    assert N.mats == M.mats and N.algebra.chain == alg.chain
    assert N.algebra.sc == alg.sc and not is_approx_unital(N)


def load_bench(name):
    """The benchmark module bench/NAME.py, loaded from its file."""
    path = Path(__file__).resolve().parent.parent / "bench" / (name + ".py")
    spec = importlib.util.spec_from_file_location("bench_" + name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_the_export_list_resolves_without_duplicates():
    assert len(set(jetcalc.__all__)) == len(jetcalc.__all__)
    for name in jetcalc.__all__:
        assert getattr(jetcalc, name, None) is not None, name


def test_bench_tracer_wraps_the_library():
    """The benchmark's tracer resolves every function it wraps by name, and
    its probes read their arguments as dense rows: a traced
    double_commutant_check and membership_triple run clean, and the dense
    edge of SpanBasis (add, called here on a dense row) is counted."""
    tracer = load_bench("layers").Tracer()
    tracer.install()
    try:
        _, M = block_module([1, 2])
        report = approxalg.double_commutant_check(M)
        reps = family_from_json((FIXTURES / "reducible_family.json").read_text())
        cand = PWCandidate.from_json(
            (FIXTURES / "escaping_candidate.json").read_text(), reps)
        E = cyclic_quotient(power_ideal(1, 1)).module
        triple = family.membership_triple(cand, reps, [Vector((sc(1),))], E)
        assert SpanBasis(2).add([ONE, sc(2)])
        metrics = tracer.metrics()
    finally:
        tracer.remove()
    assert report.ok and triple.unanimous
    assert tracer.calls["approxalg.double_commutant_check"] == 1
    assert tracer.calls["family.membership_triple"] == 1
    assert metrics["linalg.span_add.calls"][0] > 0
    assert linalg.SpanBasis.add.__name__ == "add"  # the original is back


def test_the_probe_counts_what_the_profiler_counts(monkeypatch, capsys):
    """Over `jetcalc dcomm --seed 0` the probe's counts of apply, _axpy and
    _mk equal cProfile's counts of those functions, the check that
    bench/layers.self_test makes on its tracer: a binding the probe missed
    would show as a shortfall.  A name no jetcalc module binds is refused."""
    layers = load_bench("layers")
    fns = (linalg.apply, linalg._axpy, jetcalc.scalars._mk)
    probes = [probe(monkeypatch, sys.modules[fn.__module__], fn.__name__) for fn in fns]
    profile = cProfile.Profile(builtins=False)
    assert profile.runcall(cli.main, ["dcomm", "--seed", "0"]) == 0
    capsys.readouterr()
    _, profiled = layers.profile_layers(profile)
    assert [p.calls for p in probes] == [profiled[layers._code_key(fn)] for fn in fns]
    assert min(p.calls for p in probes) > 900
    with pytest.raises(ValueError, match="no jetcalc module or class binds 'nothing'"):
        probe(monkeypatch, linalg, "nothing")


def test_bench_workloads_build_and_pass_one_round():
    """One round of each benchmark workload builds at seed 0, every
    instance describes itself as JSON for the verdict pin, and every check
    returns True: the library calls and the Mat reads of bench/workloads.py
    (iteration in _skewed and _mstr) still work."""
    workloads = load_bench("workloads").WORKLOADS
    for name in ("dcomm", "pw"):
        [instances] = workloads[name].rounds(0, 1)
        for inst in instances:
            assert json.dumps(inst.describe(), sort_keys=True)
            for check_id, check in inst.checks:
                assert check() is True, (name, check_id)


def test_no_axpy_call_of_a_workload_round_leaves_its_output_unchanged(monkeypatch, capsys):
    """Over the checks of one round of each benchmark workload at seed 0,
    and over `jetcalc verify --seed 0` at the third tier, probe.indexed hands
    on every _axpy call: none gets an empty row or a unit row {p: 1} whose
    only key is `skip`, as linalg's kernels and elimination skip them."""
    workloads = load_bench("workloads").WORKLOADS

    def third_tier():
        rc = cli.main(["verify", "--seed", "0"] + TIERS["third"])
        capsys.readouterr()
        return rc == 0

    runs = {name: [check for inst in workloads[name].rounds(0, 1)[0]
                   for _, check in inst.checks] for name in ("dcomm", "pw")}
    runs["verify"] = [third_tier]
    axpys, changing = probe(monkeypatch, linalg, "_axpy"), collections.Counter()
    indexed(monkeypatch, lambda kind, args: changing.update([kind]))
    for name, checks in runs.items():
        axpys.calls = changing["axpy"] = 0
        for check in checks:
            assert check() is True
        assert axpys.calls == changing["axpy"] > 1000, name


def test_no_held_dict_is_modified_over_a_verify_run(monkeypatch, capsys):
    """Over `jetcalc verify --seed 0`, every dict held by a Mat (its rows
    and any columns built), a SpanBasis (its rows) or an ApproxAlgebra (its
    chain and structure constants) keeps the items it had when first held,
    and the shared linalg.EMPTY stays empty: the rule that lets held dicts
    be shared and never copied."""
    held = {}  # id -> (the dict, kept alive so no id is reused; its items when held)

    def hold(dicts):
        for d in dicts:
            if id(d) not in held:
                held[id(d)] = (d, list(d.items()))
        return dicts

    Mat, Span, Alg = linalg.Mat, linalg.SpanBasis, approxalg.ApproxAlgebra
    mat_init, cols, span_init, insert, alg_init, sc = (
        Mat.__init__, Mat.cols.fget, Span.__init__, Span._insert, Alg.__init__, Alg.sc.fget)

    def holding_mat(self, rows, ncols, cols=None):
        mat_init(self, rows, ncols, cols)
        hold(self.rows)
        hold(cols or ())

    def holding_span(self, ncols, rows=()):
        span_init(self, ncols, rows)
        hold(self.rows)

    def holding_insert(self, v):
        row = insert(self, v)
        hold(self.rows)
        return row

    def holding_alg(self, *args, **kwargs):
        alg_init(self, *args, **kwargs)
        hold(self.chain)

    def holding_sc(self):
        hold(sc(self).values())
        return sc(self)

    monkeypatch.setattr(Mat, "__init__", holding_mat)
    monkeypatch.setattr(Mat, "cols", property(lambda self: hold(cols(self))))
    monkeypatch.setattr(Span, "__init__", holding_span)
    monkeypatch.setattr(Span, "_insert", holding_insert)
    monkeypatch.setattr(Alg, "__init__", holding_alg)
    monkeypatch.setattr(Alg, "sc", property(holding_sc))
    assert cli.main(["verify", "--seed", "0"]) == 0
    capsys.readouterr()
    assert len(held) > 10000 and id(linalg.EMPTY) in held
    changed = [items for d, items in held.values() if list(d.items()) != items]
    assert changed == [] and linalg.EMPTY == {}


# {module stem: its AST} for every module of the package, parsed once
TREES = {path.stem: ast.parse(path.read_text())
         for path in sorted(Path(jetcalc.__file__).parent.glob("*.py"))}


def test_no_module_level_import_is_unused():
    """Every name a module of the package (other than __init__) imports at
    module level is read somewhere in that module: an AST check, since no
    linter is installed."""
    for stem, tree in TREES.items():
        if stem == "__init__":
            continue
        imported = {(alias.asname or alias.name).split(".")[0]
                    for node in tree.body if isinstance(node, (ast.Import, ast.ImportFrom))
                    for alias in node.names}
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        assert imported <= read, (stem, sorted(imported - read))


def names_read(tree):
    """(name, the node that reads it) for every name a module's AST reads:
    a Name, an attribute or an imported name."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node
        elif isinstance(node, ast.Attribute):
            yield node.attr, node
        elif isinstance(node, ast.alias):
            yield node.name.split(".")[-1], node


def test_only_linalg_and_approxalg_name_the_fused_update():
    """Matrix updates go through linalg's row kernels (_put, _mul_into and
    _kron_into), which decide which rows reach _axpy: of the package's
    modules only linalg, which defines it, and approxalg, which sums
    algebra elements and End^# Gram rows with it, name _axpy."""
    users = {stem for stem, tree in TREES.items()
             if any(name == "_axpy" for name, _ in names_read(tree))}
    assert users == {"linalg", "approxalg"}


def test_only_scalars_builds_or_changes_a_scalar():
    """Rows share Scalars (_axpy stores a unit product's other factor
    itself), so a Scalar must never change after it is built: no module of
    the package but scalars assigns an attribute a, b or den, by statement
    or by setattr, or calls object.__new__ on Scalar."""
    parts = {"a", "b", "den"}
    for stem, tree in TREES.items():
        if stem == "scalars":
            continue
        for node in ast.walk(tree):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target] if isinstance(node, (ast.AugAssign, ast.AnnAssign))
                       else [])
            for target in targets:
                for t in ast.walk(target):
                    assert not (isinstance(t, ast.Attribute) and t.attr in parts), (
                        stem, t.lineno)
            if isinstance(node, ast.Call):
                f, args = node.func, node.args
                name = f.attr if isinstance(f, ast.Attribute) else getattr(f, "id", None)
                assert not (name == "setattr" and len(args) > 1
                            and isinstance(args[1], ast.Constant) and args[1].value in parts), (
                    stem, node.lineno)
                assert not (name == "__new__" and args and isinstance(args[0], ast.Name)
                            and args[0].id == "Scalar"), (stem, node.lineno)


# The names that only the benchmark's tracer reads (bench/layers.py wraps
# them by name): each goes once the benchmark stops naming it.
BENCH_ONLY = {"linalg.rref", "linalg.nullspace", "linalg.mat_vec", "linalg.SpanBasis.add"}


# The package's input and output paths, which no module of it calls
PUBLIC_PATHS = {
    "localmod.FinMod.from_json": "loads a module file",
    "approxalg.ApproxModule.from_json": "loads an approximate module file",
    "family.PWCandidate.from_json": "loads a candidate file against its family",
    "family.family_to_json": "writes a family file",
    "family.family_from_json": "loads a family file",
    "poly.parse_exppoly": "parses one germ of the text grammar",
    "poly.parse_scalar": "parses one scalar of the text grammar",
}


def definitions(tree):
    """(qualified name, node) of every module-level function and class of a
    module's AST, and of every method of such a class."""
    for top in tree.body:
        if isinstance(top, (ast.FunctionDef, ast.ClassDef)):
            yield top.name, top
            if isinstance(top, ast.ClassDef):
                yield from (("%s.%s" % (top.name, node.name), node) for node in top.body
                            if isinstance(node, ast.FunctionDef))


def constants(tree):
    """(name, statement) of every name a module-level assignment binds."""
    for top in tree.body:
        if isinstance(top, ast.Assign):
            yield from ((t.id, top) for target in top.targets for t in ast.walk(target)
                        if isinstance(t, ast.Name) and isinstance(t.ctx, ast.Store))


def unread_definitions():
    """The qualified names, module first, of the definitions and constants
    of the package that no module of it but __init__, whose re-exports are
    no reads, names outside the definition or assignment itself.  A method
    is named only as an attribute, .name: a bare name that a method shares,
    such as `import re` for a method re, is no read of it."""
    trees = {stem: tree for stem, tree in TREES.items() if stem != "__init__"}
    readers = collections.defaultdict(list)
    for tree in trees.values():
        for name, node in names_read(tree):
            readers[name].append(node)
    unread = []
    for stem, tree in trees.items():
        for qualname, defined in itertools.chain(definitions(tree), constants(tree)):
            inside = {id(node) for node in ast.walk(defined)}
            method = "." in qualname
            if all(id(node) in inside or method and not isinstance(node, ast.Attribute)
                   for node in readers[qualname.rpartition(".")[2]]):
                unread.append("%s.%s" % (stem, qualname))
    return unread


def test_every_module_level_name_is_read():
    """Every module-level function, class and constant of the package, and
    every method of such a class, is named by a module of the package other
    than __init__ outside its own definition, so a name that only tests or
    re-exports read is found.  Exempt are dunders, the BENCH_ONLY names,
    which bench/ names by path, and the PUBLIC_PATHS, each otherwise unread."""
    bench = set()
    for path in (FIXTURES.parent / "bench").glob("*.py"):
        bench.update(node.value for node in ast.walk(ast.parse(path.read_text()))
                     if isinstance(node, ast.Constant) and isinstance(node.value, str))
    assert {name.split(".", 1)[1] for name in BENCH_ONLY} <= bench
    unread = {name for name in unread_definitions()
              if name not in BENCH_ONLY and not re.search(r"\.__\w+__$", name)}
    assert unread - set(PUBLIC_PATHS) == set(), sorted(unread - set(PUBLIC_PATHS))
    assert set(PUBLIC_PATHS) <= unread, sorted(set(PUBLIC_PATHS) - unread)


# Parameters whose callers in the package give them one value, each kept
# for a reader outside it
ONE_VALUE = {
    "gen.rand_approx_module.junk_ok": "bench/workloads.py passes it by keyword",
    "gen.rand_exp_poly.nfreq": "the pinned draws of tests/test_oracle.py read it",
    "approxalg.submodule_grid_check.extra": "the acceptance gate passes it",
    "cli.main.argv": "the entry point: the console script calls main() without it",
}


def defaults_of(fn):
    """{parameter: default node} of a FunctionDef."""
    args = fn.args
    names = [a.arg for a in args.posonlyargs + args.args]
    out = dict(zip(names[::-1], args.defaults[::-1]))
    out.update((a.arg, d) for a, d in zip(args.kwonlyargs, args.kw_defaults) if d)
    return out


def default_values():
    """{module.[Class.]function.parameter: the values the calls in the
    package give it} for every parameter with a default of a module-level
    function or of a method of a module-level class.  A value is the dump of
    the argument's AST: a call that omits the parameter gives the default's,
    and one that unpacks *args or **kwargs over it a value of its own.  A
    call resolves by name: Class(...), and cls(...) inside a class, to the
    __init__ the class defines or inherits; f(...) and module.f(...) to the
    module-level functions named f; Class.m(...) to the method m the class
    defines or inherits; any other x.m(...) to every method named m."""
    functions, methods = collections.defaultdict(list), collections.defaultdict(list)
    classes, values = {}, {}
    for stem, tree in TREES.items():
        for qualname, node in definitions(tree):
            if isinstance(node, ast.ClassDef):
                classes[node.name] = ([getattr(b, "id", None) for b in node.bases], {})
                continue
            owner, _, name = qualname.rpartition(".")
            static = any(getattr(d, "id", None) == "staticmethod" for d in node.decorator_list)
            target = ("%s.%s" % (stem, qualname), node, 1 if owner and not static else 0)
            if owner:
                classes[owner][1][name] = target
                methods[name].append(target)
            else:
                functions[name].append(target)
            values.update(("%s.%s" % (target[0], p), set()) for p in defaults_of(node))

    def inherited(cls, name):
        bases, own = classes.get(cls, ((), {}))
        if name in own:
            return [own[name]]
        return next(filter(None, (inherited(b, name) for b in bases)), [])

    def targets(func, scope):
        if isinstance(func, ast.Name):
            if func.id == "cls" or func.id in classes:
                return inherited(scope if func.id == "cls" else func.id, "__init__")
            return functions[func.id]
        if not isinstance(func, ast.Attribute):
            return []
        owner = getattr(func.value, "id", None)
        if owner in TREES:
            return ([t for t in functions[func.attr] if t[0].startswith(owner + ".")]
                    or inherited(func.attr, "__init__"))
        return inherited(owner, func.attr) if owner in classes else methods[func.attr]

    for tree in TREES.values():
        for top in tree.body:
            scope = top.name if isinstance(top, ast.ClassDef) else None
            for call in (node for node in ast.walk(top) if isinstance(node, ast.Call)):
                for key, fn, skip in targets(call.func, scope):
                    defaults = defaults_of(fn)
                    params = [a.arg for a in fn.args.posonlyargs + fn.args.args][skip:]
                    unpacked = "unpacked by call %d" % id(call)
                    given = {}
                    for i, (param, arg) in enumerate(zip(params, call.args)):
                        if isinstance(arg, ast.Starred):
                            given.update(dict.fromkeys(params[i:], unpacked))
                            break
                        given[param] = ast.dump(arg)
                    for kw in call.keywords:
                        if kw.arg:
                            given[kw.arg] = ast.dump(kw.value)
                        else:
                            given.update(dict.fromkeys(set(defaults) - set(given), unpacked))
                    for p, d in defaults.items():
                        values["%s.%s" % (key, p)].add(given.get(p, ast.dump(d)))
    return values


def test_every_default_is_given_two_values():
    """A parameter with a default is a setting, and a setting that the
    package uses with one value only is a constant: every parameter with a
    default is given at least two distinct values by the calls in the
    package (see default_values), outside the ONE_VALUE table.  Each entry
    of that table still names a parameter that the package gives one
    value."""
    values = default_values()
    single = {name for name, seen in values.items() if len(seen) < 2}
    assert single - set(ONE_VALUE) == set(), sorted(single - set(ONE_VALUE))
    assert set(ONE_VALUE) <= single, sorted(set(ONE_VALUE) - single)


# linalg's dense edges, kept for the benchmark's tracer: module functions,
# and SpanBasis methods
DENSE_FUNCTIONS = {"nullspace", "rref", "mat_vec"}
DENSE_METHODS = {"add"}


def dense_edge_calls(tree):
    """(enclosing function, edge) for every call of a dense edge in a
    module's AST; a function nested in a class is named Class.function."""
    found = set()

    def walk(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                inner = scope + (child.name,)
            elif isinstance(child, ast.Call):
                f = child.func
                if isinstance(f, ast.Name) and f.id in DENSE_FUNCTIONS:
                    found.add((".".join(scope), f.id))
                elif isinstance(f, ast.Attribute) and (
                        f.attr in DENSE_METHODS or f.attr in DENSE_FUNCTIONS
                        and isinstance(f.value, ast.Name) and f.value.id == "linalg"):
                    found.add((".".join(scope), f.attr))
            walk(child, inner)

    walk(tree, ())
    return found


def test_no_module_calls_a_dense_edge_of_linalg():
    """Inside the package a subspace is a SpanBasis and a vector a sparse
    dict: linalg.rank, SpanBasis.frozen_rows and insert, and Mat's length
    and indexing do not exist, and no module calls linalg.nullspace, rref,
    mat_vec or SpanBasis.add.  Nor do the names that only tests read exist:
    the oracles among them live in tests/oracles.py."""
    gone = [(linalg, "rank"), (SpanBasis, "frozen_rows"), (SpanBasis, "insert"),
            (linalg.Mat, "__len__"), (linalg.Mat, "__getitem__"),
            (localmod.CofiniteIdeal, "same"), (localmod.CofiniteIdeal, "reduced_basis"),
            (localmod.CyclicQuotient, "project_poly"), (poly.Vector, "scaled"),
            (Scalar, "conjugate"), (approxalg.ApproxAlgebra, "from_matrix_basis"),
            (gen, "rand_matrix"), (jetcalc.scalars, "sc"), (jetcalc, "sc"),
            (approxalg.ApproxModule, "is_approx_unital"),
            (localmod.CyclicQuotient, "ideal"), (family, "MAX_REP_DIM"),
            (jetcalc.scalars, "ExpScalar"), (jetcalc.scalars, "EXP_ZERO"),
            (jetcalc, "ExpScalar"), (Scalar, "re"), (Scalar, "im"), (jetcalc.scalars, "I"),
            (approxalg.ApproxModule, "V_j"), (approxalg.SharpResult, "__bool__"),
            (poly.Polynomial, "__pow__"), (localmod, "MAX_ORDER"),
            (approxalg, "generated_tuple_module"), (jetfun, "KernelResult"),
            (family, "FunctionalData"), (family, "RelationVerdict"),
            (family, "relation_certify"), (family.TripleResult, "dims"),
            (family.TripleResult, "to_dict"), (approxalg.CheckReport, "check"),
            (cli.Suite, "failed"), (cli.Suite, "sorted_records")]
    for module, names in ((family, "intertwiner_graph_check"), (jetfun, "jet_ideal"),
                          (poly, "parse_poly pairing"),
                          (localmod, "Submodule ModuleMap annihilator annihilator_dual "
                                     "submodule_generated quotient_module")):
        gone.extend((owner, name) for name in names.split() for owner in (module, jetcalc))
    for owner, name in gone:
        assert not hasattr(owner, name), name
    calls = {(stem, scope, edge)
             for stem, tree in TREES.items() for scope, edge in dense_edge_calls(tree)}
    assert calls == set()


def test_only_the_builder_spans_an_idempotent():
    """A span of a chain idempotent's columns or rows is built in one place,
    approxalg._idem_spans: no other function of the package passes an
    idem_mat to SpanBasis."""
    found = set()
    for stem, tree in TREES.items():
        for fn in ast.walk(tree):
            if isinstance(fn, ast.FunctionDef):
                found.update((stem, fn.name) for call in ast.walk(fn)
                             if isinstance(call, ast.Call)
                             and getattr(call.func, "id", None) == "SpanBasis"
                             and any(getattr(n, "attr", None) == "idem_mat"
                                     for n in ast.walk(call)))
    assert found == {("approxalg", "_idem_spans")}


def test_jetfun_reuses_diff_evaluate_and_alpha_bar_image():
    """Three ideas of jetfun have one routine each: block_derivative reads
    diff and calls no _put, MatPolyFamily.evaluate reads each entry's
    evaluate and no term dict, and kernel_alpha_bar reads alpha_bar_image
    and no mon_mat."""
    reads = {fn.name: {name for name, _ in names_read(fn)}
             for fn in ast.walk(TREES["jetfun"])
             if isinstance(fn, ast.FunctionDef)}
    assert "diff" in reads["block_derivative"]
    assert not {"_put", "terms"} & reads["block_derivative"]
    assert "entries" in reads["evaluate"] and not {"terms", "_groups"} & reads["evaluate"]
    assert "alpha_bar_image" in reads["kernel_alpha_bar"]
    assert "mon_mat" not in reads["kernel_alpha_bar"]


def attributes(cls):
    """The attribute names a ClassDef lists in __slots__ or assigns on
    self, in any of its methods."""
    for node in cls.body:
        if isinstance(node, ast.Assign) and any(
                getattr(t, "id", None) == "__slots__" for t in node.targets):
            yield from (c.value for c in ast.walk(node.value)
                        if isinstance(c, ast.Constant) and isinstance(c.value, str))
    for node in ast.walk(cls):
        if (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
                and isinstance(node.value, ast.Name) and node.value.id == "self"):
            yield node.attr


def unread_attributes():
    """Module.Class.name for every attribute of a module-level class of the
    package that no module of it reads as .name outside the class's own
    __init__ and __repr__."""
    reads = collections.defaultdict(list)
    for tree in TREES.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                reads[node.attr].append(node)
    unread = []
    for stem, tree in TREES.items():
        for cls in (node for node in tree.body if isinstance(node, ast.ClassDef)):
            own = {id(node) for f in cls.body if isinstance(f, ast.FunctionDef)
                   and f.name in ("__init__", "__repr__") for node in ast.walk(f)}
            unread.extend("%s.%s.%s" % (stem, cls.name, name)
                          for name in sorted(set(attributes(cls)))
                          if all(id(node) in own for node in reads[name]))
    return unread


def test_every_attribute_is_read():
    """Every attribute that a class of the package lists in __slots__ or
    assigns on self is read as .name by a module of the package outside
    that class's own __init__ and __repr__, so a field that only tests
    read is found.  The check goes by name: a read of a same-named
    attribute of another class, or of any object, counts as a read."""
    unread = unread_attributes()
    assert not unread, "unread attributes: " + ", ".join(unread)
