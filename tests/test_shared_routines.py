"""The routines every module shares: span closure, block-diagonal
assembly, and the square reshape behind the JSON loaders, in `linalg`."""

import json
import re
from pathlib import Path

import pytest

from jetcalc import linalg
from jetcalc.approxalg import ApproxModule, block_module
from jetcalc.family import PWCandidate, family_from_json
from jetcalc.linalg import SpanBasis, close_span, block_diag
from jetcalc.localmod import (FinMod, cyclic_quotient, power_ideal,
                              dual_number_module, direct_sum)
from jetcalc.poly import Vector
from jetcalc.scalars import ZERO, ONE, sc


def unit(n, j):
    return [ONE if t == j else ZERO for t in range(n)]


def jordan(n):
    """Nilpotent Jordan block: e_j maps to e_{j-1}, e_0 to zero."""
    return tuple(tuple(ONE if c == r + 1 else ZERO for c in range(n))
                 for r in range(n))


def test_close_span_of_a_jordan_block_is_its_krylov_span():
    J = jordan(4)
    calls = []

    def step(v):
        calls.append(v)
        return [linalg.mat_vec(J, v)]

    span = SpanBasis(4)
    assert close_span(span, [unit(4, 2), unit(4, 2)], step) is span
    # e_2, J e_2 = e_1, J^2 e_2 = e_0
    assert span.same_span(SpanBasis(4, [unit(4, 0), unit(4, 1), unit(4, 2)]))
    # step runs once per vector that grew the span, never on the repeat
    assert len(calls) == 3

    full = close_span(SpanBasis(4), [unit(4, 3)], lambda v: [linalg.mat_vec(J, v)])
    assert full.dim == 4


def test_close_span_of_a_zero_seed_is_empty():
    calls = []
    span = close_span(SpanBasis(3), [[ZERO] * 3],
                      lambda v: calls.append(v) or [unit(3, 0)])
    assert span.dim == 0
    assert calls == []


def test_block_diag_places_unequal_blocks_on_the_diagonal():
    a = ((sc(2),),)
    b = ((sc(1), sc(3), ZERO), (ZERO, sc(-1), sc(5)), (sc(7), ZERO, ONE))
    c = ((ZERO, sc(4)), (sc(6), ZERO))
    big = block_diag([a, b, c])
    assert len(big) == 6 and all(len(row) == 6 for row in big)
    for off, m in ((0, a), (1, b), (4, c)):
        for r, row in enumerate(m):
            assert big[off + r] == (ZERO,) * off + row + (ZERO,) * (6 - off - len(m))
    assert block_diag([]) == ()


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
