"""Named series-product identities, checked by qchar.affine.verify.

Each identity pairs a finite Euler-product quotient with a lattice sum whose
expansions must agree coefficient by coefficient.  Four one-dimensional
classics (Euler's pentagonal identity, Jacobi's cube, and a signed and an
unsigned identity of Gauss) share the data model with two infinite families
in dimension 4m - 1.  Each classic is one row of a table, its product
factors and its lattice chain.  Each family member is derived, not
transcribed: it reads the numerator side of qchar.affine._proposition(parts,
k) for a two-part partition, whose trace theta sum Gauss's identity gauss_b
turns into an Euler-product quotient.  The m = 1 members of the two
families are the same proposition.  verify_identity reads a spec as two
Sides, a pure product and a pure lattice sum, and hands them to
qchar.affine.verify, which walks the lattice sum first and certifies its
window against the product's recurrence.  A match is a proof: the window
comes from the walk alone, the recurrence from the product's divisor sieve
alone, and the recurrence has one solution.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

from .affine import Side, _proposition, verify
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

# name -> (product factors (scale, power), lattice chain (diag, off, lin,
# const, denom, weight)); classical_identity builds a fresh LatticeSum from
# the chain each call, since a LatticeSum caches its completed form
_CLASSICAL = {
    "euler": (((1, 1),), ((3,), (), (1,), 0, 2, WEIGHT_ALTERNATING)),
    "jacobi": (((1, 3),), ((2,), (), (1,), 0, 1, WEIGHT_FOUR_K_PLUS_ONE)),
    "gauss_a": (((1, 2), (2, -1)), ((1,), (), (0,), 0, 1, WEIGHT_ALTERNATING)),
    "gauss_b": (((2, 2), (1, -1)), ((2,), (), (1,))),
}

CLASSICAL_NAMES = tuple(_CLASSICAL)


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
    if not isinstance(name, str) or name not in _CLASSICAL:
        raise ValueError(f"unknown classical identity: {name!r}")
    factors, chain = _CLASSICAL[name]
    return IdentitySpec(name, ProductSpec(factors), LatticeSum(*chain))


def _proposition_identity(name: str, m: int, parts, k: int, a: int) -> IdentitySpec:
    """The proposition for (parts, k), its trace theta read as gauss_b at q^a.

    qchar.affine._proposition reads it as numerator * P_1/P_2 = theta, and
    theta is gauss_b's lattice side at q^a up to a monomial, so the numerator
    with its constant dropped is the inverted ratio times gauss_b's product.
    """
    side = _proposition(parts, k)[0]
    lhs = ProductSpec(
        tuple((scale, -power) for scale, power in side.product.factors)
        + tuple((a * scale, power) for scale, power in _CLASSICAL["gauss_b"][0])
    )
    return IdentitySpec(name, lhs, replace(side.lattice, const=0), m)


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
    qchar.affine.verify builds the lattice side first and hands its window
    to the product side's Side.above, so the product side is that window
    when it passes product_series's check of the recurrence, or else the
    recurrence's solution: the report is the same either way.
    """
    return verify(Side(None, spec.lhs), Side(spec.rhs), bound)
