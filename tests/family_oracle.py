"""The two identity families as hand-transcribed data, used only by the tests.

qchar.identities derives class1_identity and class2_identity from the
proposition of qchar.affine and Gauss's identity; these builders write the
same identities out factor by factor and coordinate by coordinate, so the
two check each other.
"""

from fractions import Fraction

from qchar.identities import IdentitySpec
from qchar.qseries import ProductSpec
from squares_oracle import kappa_sum


def class1_transcribed(m: int) -> IdentitySpec:
    """First family: dimension 4m-1, quadratic multiplier 4m-1.

    Product side phi(q^(4m-1))^(4m-1) phi(q^(2m))^2 / (phi(q) phi(q^m));
    the linear form puts 2m-1 on the first coordinate, 4m-2 on coordinate
    3m, and -1 everywhere else.  At m = 1 the two hub coordinates sit at
    the ends and the scales m and 1 merge in the product.
    """
    if not isinstance(m, int) or m < 1:
        raise ValueError("family parameter must be a positive integer")
    dim = 4 * m - 1
    lin = [Fraction(-1)] * dim
    lin[0] = Fraction(2 * m - 1)
    lin[3 * m - 1] = Fraction(4 * m - 2)
    lhs = ProductSpec(
        (
            (Fraction(4 * m - 1), 4 * m - 1),
            (Fraction(2 * m), 2),
            (Fraction(1), -1),
            (Fraction(m), -1),
        )
    )
    rhs = kappa_sum(dim, 4 * m - 1, lin)
    return IdentitySpec("class1", lhs, rhs, m)


def class2_transcribed(m: int) -> IdentitySpec:
    """Second family: dimension 4m-1, quadratic multiplier 3m.

    Product side phi(q^(3m))^(4m) phi(q^2)^2 / (phi(q)^2 phi(q^3)); the
    linear form is -3 on coordinates below m, 3m-2 at coordinate m, 3m-1 at
    the last coordinate, and -1 between.  Coincides with class1 at m = 1.
    """
    if not isinstance(m, int) or m < 1:
        raise ValueError("family parameter must be a positive integer")
    dim = 4 * m - 1
    lin = [Fraction(-1)] * dim
    for i in range(m - 1):
        lin[i] = Fraction(-3)
    lin[m - 1] = Fraction(3 * m - 2)
    lin[dim - 1] = Fraction(3 * m - 1)
    lhs = ProductSpec(
        (
            (Fraction(3 * m), 4 * m),
            (Fraction(2), 2),
            (Fraction(1), -2),
            (Fraction(3), -1),
        )
    )
    rhs = kappa_sum(dim, 3 * m, lin)
    return IdentitySpec("class2", lhs, rhs, m)
