"""Scalars as sympy's Gaussian rationals QQ_I, for the tests that recompute
jetcalc's linear algebra with DomainMatrix, which shares no elimination
with jetcalc."""

from fractions import Fraction

import sympy
from sympy.polys.matrices import DomainMatrix

from jetcalc.scalars import Scalar

QQ, QQ_I = sympy.QQ, sympy.QQ_I


def to_qqi(x):
    """The QQ_I element of a Scalar."""
    return QQ_I(QQ(x.a, x.den), QQ(x.b, x.den))


def from_qqi(z):
    """The Scalar of a QQ_I element."""
    return Scalar(Fraction(int(z.x.numerator), int(z.x.denominator)),
                  Fraction(int(z.y.numerator), int(z.y.denominator)))


def to_sympy(rows, ncols):
    """The DomainMatrix over QQ_I of dense rows of Scalars."""
    return DomainMatrix([[to_qqi(x) for x in row] for row in rows], (len(rows), ncols), QQ_I)
