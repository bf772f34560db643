"""Named series-product identities, checked by qchar.affine.verify.

Each identity pairs a finite Euler-product quotient with a lattice sum whose
expansions must agree coefficient by coefficient.  Four one-dimensional
classics (Euler's pentagonal identity, Jacobi's cube, and a signed and an
unsigned identity of Gauss) share the data model with two infinite families
in dimension 4m - 1.  Each family member is derived, not transcribed: it is
the proposition of qchar.affine for a two-part partition, whose trace theta
sum Gauss's identity gauss_b turns into an Euler-product quotient.  The
m = 1 members of the two families are the same proposition.  verify_identity
reads a spec as two Sides, a pure product and a pure lattice sum, and hands
them to qchar.affine.verify.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Optional

from .affine import PartitionData, Side, _trace_parts, specialized_character, verify
from .qseries import ProductSpec, VerifyReport
from .quadform import WEIGHT_ALTERNATING, WEIGHT_FOUR_K_PLUS_ONE, LatticeSum

__all__ = [
    "CLASSICAL_NAMES",
    "IdentitySpec",
    "classical_identity",
    "class1_identity",
    "class2_identity",
    "verify_identity",
]

CLASSICAL_NAMES = ("euler", "jacobi", "gauss_a", "gauss_b")


@dataclass(frozen=True)
class IdentitySpec:
    """A product side and a lattice side claimed to expand identically."""

    name: str
    lhs: ProductSpec
    rhs: LatticeSum
    params: Optional[int] = None

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("identity needs a name")
        if self.params is not None and (
            type(self.params) is not int or self.params < 1
        ):
            raise ValueError("family parameter must be a positive integer")

    def to_json(self) -> dict:
        out = {
            "name": self.name,
            "lhs": self.lhs.to_json(),
            "rhs": self.rhs.to_json(),
        }
        if self.params is not None:
            out["params"] = self.params
        return out


def classical_identity(name: str) -> IdentitySpec:
    """One of the four one-dimensional identities: euler, jacobi, gauss_a, gauss_b.

    euler:   phi(q)           = sum (-1)^k q^((3k^2+k)/2)
    jacobi:  phi(q)^3         = sum (4k+1) q^(2k^2+k)
    gauss_a: phi(q)^2/phi(q^2) = sum (-1)^k q^(k^2)
    gauss_b: phi(q^2)^2/phi(q) = sum q^(2k^2+k)
    """
    one = Fraction(1)
    two = Fraction(2)
    if name == "euler":
        lhs = ProductSpec(((one, 1),))
        rhs = LatticeSum(
            1, Fraction(3, 2), (Fraction(1, 2),), Fraction(0), WEIGHT_ALTERNATING
        )
    elif name == "jacobi":
        lhs = ProductSpec(((one, 3),))
        rhs = LatticeSum(1, two, (one,), Fraction(0), WEIGHT_FOUR_K_PLUS_ONE)
    elif name == "gauss_a":
        lhs = ProductSpec(((one, 2), (two, -1)))
        rhs = LatticeSum(1, one, (Fraction(0),), Fraction(0), WEIGHT_ALTERNATING)
    elif name == "gauss_b":
        lhs = ProductSpec(((two, 2), (one, -1)))
        rhs = LatticeSum(1, two, (one,), Fraction(0))
    else:
        raise ValueError(f"unknown classical identity: {name!r}")
    return IdentitySpec(name, lhs, rhs)


def _proposition_identity(name: str, m: int, parts, k: int, a: int) -> IdentitySpec:
    """The proposition for (parts, k), its trace theta read as gauss_b at q^a.

    numerator / phi(q^N)^(n-1) = q^shift phi(q^N) theta / prod_i phi(q^(N/n_i)),
    and theta is gauss_b's lattice side at q^a up to a monomial, so the
    numerator with its constant dropped is one Euler-product quotient.
    """
    char = specialized_character(parts, k)
    correction = _trace_parts(PartitionData.from_parts(parts), k).product
    gauss = classical_identity("gauss_b").lhs
    lhs = ProductSpec(
        tuple((scale, -power) for scale, power in char.product.factors)
        + correction.factors
        + tuple((a * scale, power) for scale, power in gauss.factors)
    )
    return IdentitySpec(name, lhs, replace(char.lattice, const=Fraction(0)), m)


def class1_identity(m: int) -> IdentitySpec:
    """First family: the proposition for the partition (1, 4m-1) at k = 3m.

    The trace theta sum_s q^(2m s^2 - 3m s) is gauss_b's at q^m, so the
    numerator (dimension and multiplier 4m-1, shift m/8 dropped) equals
    phi(q^(4m-1))^(4m-1) phi(q^(2m))^2 / (phi(q) phi(q^m)).  Its linear form
    puts 2m-1 on the first coordinate, 4m-2 on coordinate 3m, and -1
    everywhere else.
    """
    if type(m) is not int or m < 1:
        raise ValueError("family parameter must be a positive integer")
    return _proposition_identity("class1", m, (1, 4 * m - 1), 3 * m, m)


def class2_identity(m: int) -> IdentitySpec:
    """Second family: the proposition for the partition (m, 3m) at k = 4m-1.

    The trace theta sum_s q^(2 s^2 - (4m-1) s) is gauss_b's, so the
    numerator (dimension 4m-1, multiplier 3m, shift 1/8 dropped) equals
    phi(q^(3m))^(4m) phi(q^2)^2 / (phi(q)^2 phi(q^3)).  Its linear form is
    -3 on coordinates below m, 3m-2 at coordinate m, 3m-1 at the last
    coordinate, and -1 between.  At m = 1 it is class1's proposition.
    """
    if type(m) is not int or m < 1:
        raise ValueError("family parameter must be a positive integer")
    return _proposition_identity("class2", m, (m, 3 * m), 4 * m - 1, 1)


def verify_identity(spec: IdentitySpec, bound) -> VerifyReport:
    """Verify the product side against the lattice side through the bound.

    The product side starts at q^0; the lattice side is built through the
    bound above its minimum exponent, or less if weights cancel there.  Each
    is a Side with one factor, so neither is multiplied by a unit series.
    """
    return verify(Side(None, spec.lhs), Side(spec.rhs), bound)
