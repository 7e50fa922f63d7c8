"""The routines every module shares: span closure, block-diagonal
assembly, and the square reshape and parse budget behind the JSON loaders;
and the benchmark's tracer, which wraps them by name."""

import ast
import importlib.util
import json
import re
import time
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import jetcalc
from jetcalc import approxalg, family, linalg, poly
from jetcalc import gen  # noqa: F401  (the tracer wraps every function of gen)
from jetcalc.approxalg import ApproxModule, block_module
from jetcalc.family import PWCandidate, family_from_json
from jetcalc.linalg import SpanBasis, close_span, block_diag
from jetcalc.localmod import (FinMod, cyclic_quotient, power_ideal,
                              dual_number_module, direct_sum)
from jetcalc.poly import Vector, ExpPoly, MAX_PARSE_WORK
from jetcalc.scalars import Scalar, ZERO, ONE, sc


def unit(n, j):
    return [ONE if t == j else ZERO for t in range(n)]


def jordan(n):
    """Nilpotent Jordan block: e_j maps to e_{j-1}, e_0 to zero."""
    return tuple(tuple(ONE if c == r + 1 else ZERO for c in range(n))
                 for r in range(n))


def test_close_span_of_a_jordan_block_is_its_krylov_span(monkeypatch):
    J = linalg.Mat.of(jordan(4))
    calls = []
    apply = linalg.apply

    def counted(m, v):
        calls.append(v)
        return apply(m, v)

    monkeypatch.setattr(linalg, "apply", counted)
    span = close_span(4, [unit(4, 2), unit(4, 2)], [J])
    assert isinstance(span, SpanBasis) and span.ncols == 4
    # e_2, J e_2 = e_1, J^2 e_2 = e_0
    assert span.same_span(SpanBasis(4, [unit(4, 0), unit(4, 1), unit(4, 2)]))
    # J maps each vector that grew the span once, never the repeat
    assert len(calls) == 3

    full = close_span(4, [unit(4, 3)], [J])
    assert full.dim == 4


def test_close_span_of_a_zero_seed_is_empty(monkeypatch):
    calls = []
    monkeypatch.setattr(linalg, "apply", lambda m, v: calls.append(v) or {0: ONE})
    span = close_span(3, [[ZERO] * 3], [linalg.mid(3)])
    assert span.dim == 0
    assert calls == []


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
    assert block_diag([]) == linalg.Mat.of((), 0)


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
                lambda d: d["reps"][0]["generators"], "generator 0 of rep 'R'")
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
    products = [0]
    mul = Scalar.__mul__

    def counted(a, b):
        products[0] += 1
        assert products[0] <= 20000, "formed more than 20000 products"
        return mul(a, b)

    monkeypatch.setattr(Scalar, "__mul__", counted)

    @settings(max_examples=150, deadline=None)
    @given(mutated_json(text))
    def check(bad):
        products[0] = 0
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
    mul = ExpPoly.__mul__

    def counted(a, b):
        if isinstance(b, ExpPoly):
            pairs.append(poly._nterms(a) * poly._nterms(b))
            assert sum(pairs) <= MAX_PARSE_WORK, "parsed past the budget"
        return mul(a, b)

    monkeypatch.setattr(ExpPoly, "__mul__", counted)
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
    M = ApproxModule(alg, d, mats, require_unital=False)
    assert (M.dim, alg.dim) == (approxalg.MAX_MODULE_DIM, approxalg.MAX_ALGEBRA_DIM)
    N = ApproxModule.from_json(M.to_json())
    assert N.mats == M.mats and N.algebra.chain == alg.chain
    assert N.algebra.sc == alg.sc and not N.is_approx_unital()


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


def test_no_module_level_import_is_unused():
    """Every name a module of the package (other than __init__) imports at
    module level is read somewhere in that module: an AST check, since no
    linter is installed."""
    for path in sorted(Path(jetcalc.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        imported = {(alias.asname or alias.name).split(".")[0]
                    for node in tree.body if isinstance(node, (ast.Import, ast.ImportFrom))
                    for alias in node.names}
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        assert imported <= read, (path.name, sorted(imported - read))


def names_read(tree):
    """(name, the module-level definition it lies in or None) for every
    name a module's AST reads: a Name, an attribute, an imported name, or a
    string constant spelling a dotted name, such as an __all__ entry or a
    benchmark probe's path."""
    for top in tree.body:
        owner = top.name if isinstance(top, (ast.FunctionDef, ast.ClassDef)) else None
        for node in ast.walk(top):
            if isinstance(node, ast.Name):
                yield node.id, owner
            elif isinstance(node, ast.Attribute):
                yield node.attr, owner
            elif isinstance(node, ast.alias):
                yield node.name.split(".")[-1], owner
            elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
                  and all(part.isidentifier() for part in node.value.split("."))):
                yield from ((part, owner) for part in node.value.split("."))


def test_every_module_level_name_is_read():
    """Every module-level function and class of the package is named
    somewhere other than its own definition, in the package, the tests or
    the benchmark, so a helper whose last reader goes is found."""
    package = Path(jetcalc.__file__).parent
    paths = [*package.glob("*.py"), *(FIXTURES.parent / "tests").glob("*.py"),
             *(FIXTURES.parent / "bench").glob("*.py")]
    read = {(path, name, owner) for path in paths
            for name, owner in names_read(ast.parse(path.read_text()))}
    unread = []
    for path in sorted(package.glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            if isinstance(top, (ast.FunctionDef, ast.ClassDef)) and not any(
                    name == top.name and (where, owner) != (path, top.name)
                    for where, name, owner in read):
                unread.append("%s.%s" % (path.stem, top.name))
    assert not unread, unread


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
    and indexing do not exist; no module calls linalg.nullspace, rref or
    SpanBasis.add, and mat_vec is called by ModuleMap.__call__ alone."""
    for owner, name in ((linalg, "rank"), (SpanBasis, "frozen_rows"), (SpanBasis, "insert"),
                        (linalg.Mat, "__len__"), (linalg.Mat, "__getitem__")):
        assert not hasattr(owner, name), name
    calls = {(path.name, scope, edge)
             for path in sorted(Path(jetcalc.__file__).parent.glob("*.py"))
             for scope, edge in dense_edge_calls(ast.parse(path.read_text()))}
    assert calls == {("localmod.py", "ModuleMap.__call__", "mat_vec")}
