"""The routines every module shares: span closure and block-diagonal
assembly in `linalg`."""

from jetcalc import linalg
from jetcalc.linalg import SpanBasis, close_span, block_diag
from jetcalc.localmod import (cyclic_quotient, power_ideal, dual_number_module,
                              direct_sum)
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
