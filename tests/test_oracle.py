"""Derived spaces recomputed by an independent oracle: sympy's DomainMatrix
over QQ_I on dense matrices, which shares no elimination and no closure
with jetcalc.

The word algebra of `family.spanned_algebra` is the span of the images of
all words in the generators and their inverses.  The oracle multiplies out
every word of length at most L, for L = 0, 1, 2, ... until two consecutive
lengths give the same rank, at which point the span is closed under every
letter."""

import random

import pytest

from jetcalc import gen
from jetcalc.family import spanned_algebra
from jetcalc.linalg import SpanBasis, CrossCheckError, mid
from jetcalc.localmod import cyclic_quotient, maximal_ideal, dual_number_module

sympy = pytest.importorskip("sympy")
from sympy.polys.matrices import DomainMatrix  # noqa: E402

QQ, QQ_I = sympy.QQ, sympy.QQ_I
E1 = cyclic_quotient(maximal_ideal(1)).module  # dim 1, evaluation only


def to_sympy(rows, ncols):
    """The DomainMatrix over QQ_I of dense rows of Scalars."""
    return DomainMatrix([[QQ_I(QQ(x.a, x.den), QQ(x.b, x.den)) for x in row]
                         for row in rows], (len(rows), ncols), QQ_I)


def all_words(letters, n):
    """The flattened images of all words of length at most L in the n x n
    letters, one row each, for the least L whose rank equals that of the
    words of length at most L - 1."""
    letters = [to_sympy(g, n) for g in letters]
    level, flat, rank = [to_sympy(mid(n), n)], [], None
    while True:
        flat += [x for w in level for x in w.to_list_flat()]
        words = DomainMatrix.from_list_flat(flat, (len(flat) // (n * n), n * n), QQ_I)
        r = words.rank()
        if r == rank:
            return words
        rank = r
        level = [w * g for w in level for g in letters]


def layouts(seed, count, totals):
    """The seed's layouts whose block total lies in `totals`, out of
    `count` drawn: 1-2 reps of dim 1-2 on two generators, 1-2 points, and
    the evaluation or a dual-number module."""
    rng = random.Random(seed)
    for i in range(count):
        reps = [gen.rand_repfamily(rng, label, 1, rng.randint(1, 2))
                for label in "ab"[:rng.randint(1, 2)]]
        pts = [gen.rand_point(rng, 1) for _ in range(rng.randint(1, 2))]
        E = E1 if i % 2 else dual_number_module(gen.rand_point(rng, 1, zero_ok=False))
        if sum(rep.dim for rep in reps) * len(pts) * E.dim in totals:
            yield reps, pts, E


def check_word_algebra(reps, pts, E):
    """spanned_algebra's dimension is the rank of all words, and each of its
    basis matrices lies in their span; returns the dimension."""
    _, span, layout = spanned_algebra(reps, pts, E)
    n = layout.total
    ngens = len(reps[0].generators)
    words = all_words([layout.assemble(lambda rep: rep.letter(k))
                       for k in range(-ngens, ngens + 1) if k], n)
    assert span.dim == words.rank()
    assert words.vstack(to_sympy(span.frozen_rows(), n * n)).rank() == span.dim
    return span.dim


def check_word_algebras(seeds, totals):
    """check_word_algebra on each seed's layouts; returns the dimensions."""
    return [check_word_algebra(*layout) for seed in seeds
            for layout in layouts(seed, 8, totals)]


def test_word_algebras_are_the_span_of_all_words():
    dims = check_word_algebras(range(4), range(1, 5))
    assert len(dims) >= 10 and max(dims) >= 7


@pytest.mark.slow
def test_larger_word_algebras_are_the_span_of_all_words():
    dims = check_word_algebras(range(8), (5, 6))
    assert len(dims) >= 5 and max(dims) >= 9


def test_a_reduction_that_skips_a_pivot_row_fails_with_a_cross_check_error(monkeypatch):
    """A SpanBasis._reduce that skips the last pivot row once the span holds
    3 rows leaves a residue under an existing pivot; filing it raises
    CrossCheckError on some layouts, and every other layout still passes
    the oracle.  The patch gives up after 2,000 calls, so a closure that
    grows without end fails instead of hanging."""
    reduce, calls = SpanBasis._reduce, [0]

    def skipping(self, v, record=None):
        calls[0] += 1
        assert calls[0] <= 2000, "the closure did not end"
        if self.dim < 3:
            return reduce(self, v, record)
        last = self.pivots[-1]
        row = self._row.pop(last)
        try:
            return reduce(self, v, record)
        finally:
            self._row[last] = row

    monkeypatch.setattr(SpanBasis, "_reduce", skipping)
    raised = 0
    for seed in range(4):
        for layout in layouts(seed, 8, range(1, 5)):
            calls[0] = 0
            try:
                check_word_algebra(*layout)
            except CrossCheckError:
                raised += 1
    assert raised >= 3
