"""Partition-indexed specialization data and two routes to the same series.

A partition n_1 <= ... <= n_r of n determines a modulus N and an integer
specialization vector s of length n summing to N.  Specializing a level-one
highest-weight character along s collapses it to a one-variable q-series with
numerator a lattice sum over Z^(n-1) and denominator phi(q^N)^(n-1).  The
same series, up to a monomial shift, arises from a trace formula indexed by
the partition: a constrained theta sum over r integers summing to the weight
index, divided by one rescaled Euler product per part.  Both readings have
one shape, an unweighted chain lattice sum times an Euler-product quotient,
so one builder (_route) expands either from the completed squares of its
integer chain and its product; the two routes share that mechanism but no
data.
verify_proposition expands both and compares coefficients through the
requested order.

Everything is exact: moduli and specialization vectors are integers by
construction (non-integrality raises rather than rounds), and exponents are
rationals on a fixed grid.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import floor, lcm
from typing import Iterator, Sequence

from .qseries import (
    ProductSpec,
    QSeries,
    VerifyReport,
    _compare_builders,
    as_rational,
    product_series,
    series_mul,
)
from .quadform import LatticeSum, _chain_min, _complete_squares, _walk

__all__ = [
    "PartitionData",
    "SpecializedCharacter",
    "partitions",
    "compute_N",
    "compute_s",
    "fundamental_weight_coeffs",
    "specialized_character",
    "specialized_character_series",
    "trace_series",
    "verify_proposition",
]


def _validate_parts(parts: Sequence[int]) -> tuple[int, ...]:
    ps = tuple(parts)
    if not ps:
        raise ValueError("partition must have at least one part")
    for p in ps:
        if type(p) is not int or p < 1:
            raise ValueError("partition parts must be positive integers")
    if any(a > b for a, b in zip(ps, ps[1:])):
        raise ValueError("partition parts must be ascending")
    return ps


def partitions(n: int) -> Iterator[tuple[int, ...]]:
    """All partitions of n as ascending tuples, in ascending generation order."""
    if type(n) is not int or n < 1:
        raise ValueError("partitions are defined for positive integers")
    # Kelleher's accelerated ascending-composition walk
    a = [0] * (n + 1)
    k = 1
    y = n - 1
    while k != 0:
        x = a[k - 1] + 1
        k -= 1
        while 2 * x <= y:
            a[k] = x
            y -= x
            k += 1
        m = k + 1
        while x <= y:
            a[k] = x
            a[m] = y
            yield tuple(a[: k + 2])
            x += 1
            y -= 1
        a[k] = x + y
        y = x + y - 1
        yield tuple(a[: k + 1])


def compute_N(parts: Sequence[int]) -> int:
    """Modulus attached to a partition.

    Starting from the lcm N' of the parts, doubles it unless
    N'(1/n_i + 1/n_j) is even for every pair of parts, diagonal included.
    """
    ps = _validate_parts(parts)
    base = lcm(*ps)
    for i, p in enumerate(ps):
        for q in ps[i:]:
            if (base // p + base // q) & 1:
                return 2 * base
    return base


def compute_s(parts: Sequence[int]) -> tuple[int, ...]:
    """Specialization vector: one entry per node, summing to the modulus.

    Layout: a head entry N(n_1+n_r)/(2 n_1 n_r), then for each part a run of
    n_i - 1 copies of N/n_i, with a single boundary entry
    N((n_i+n_{i+1})/(2 n_i n_{i+1}) - 1) between consecutive parts.  The
    construction always lands on integers; a fractional entry means the
    partition data is inconsistent, so it raises instead of rounding.
    """
    ps = _validate_parts(parts)
    n = sum(ps)
    big = compute_N(ps)

    def entry(num: int, den: int) -> int:
        v, r = divmod(num, den)
        if r:
            raise ArithmeticError(
                f"specialization entry {Fraction(num, den)} is not an integer "
                f"for parts {ps}"
            )
        return v

    out = [entry(big * (ps[0] + ps[-1]), 2 * ps[0] * ps[-1])]
    for i, p in enumerate(ps):
        out.extend([big // p] * (p - 1))
        if i + 1 < len(ps):
            q = ps[i + 1]
            out.append(entry(big * (p + q) - 2 * p * q * big, 2 * p * q))
    if len(out) != n or sum(out) != big:
        raise ArithmeticError(f"specialization vector failed its checksum for {ps}")
    return tuple(out)


def fundamental_weight_coeffs(n: int, k: int) -> tuple[Fraction, ...]:
    """Coefficients c_1..c_{n-1} expanding the k-th fundamental weight.

    c_i = min(i,k)(n - max(i,k))/n; index 0 gives the zero vector.  Against
    the Cartan matrix C this is the delta property (C c)_j = [j == k].
    """
    if type(n) is not int or n < 1:
        raise ValueError("rank parameter must be a positive integer")
    _check_index(n, k)
    return tuple(
        Fraction(min(i, k) * (n - max(i, k)), n) for i in range(1, n)
    )


def _check_index(n: int, k: int) -> None:
    # bool is an int, but True is no weight index
    if type(k) is not int or not 0 <= k <= n - 1:
        raise ValueError("weight index out of range")


@dataclass(frozen=True)
class PartitionData:
    """A partition with its derived modulus and specialization vector."""

    parts: tuple[int, ...]
    n: int
    N: int
    s: tuple[int, ...]

    @staticmethod
    def from_parts(parts: Sequence[int]) -> "PartitionData":
        ps = _validate_parts(parts)
        return PartitionData(ps, sum(ps), compute_N(ps), compute_s(ps))


@dataclass(frozen=True)
class SpecializedCharacter:
    """Numerator lattice sum and denominator product of one specialization."""

    numerator: LatticeSum
    denominator: ProductSpec


def specialized_character(parts: Sequence[int], k: int) -> SpecializedCharacter:
    """Assemble the character-side data for a partition and weight index.

    Writing gamma = kvec + c with c the fundamental-weight coefficients, the
    numerator exponent is (N/2)(gamma|gamma) - sum s_i gamma_i.  Expanding
    in kvec, the quadratic part is exactly N*kappa, the linear part is
    N*e_k - s (head entry of s excluded, it pairs with no lattice
    coordinate), and the constant N*kappa(c) - s.c rides along so the stored
    exponent function is the specialization verbatim, not a shifted cousin.
    """
    data = PartitionData.from_parts(parts)
    c = fundamental_weight_coeffs(data.n, k)
    n, big = data.n, data.N
    dim = n - 1
    tail = data.s[1:]
    lin = tuple(
        Fraction(big * (1 if i == k else 0) - tail[i - 1]) for i in range(1, n)
    )
    kappa_c = sum(v * v for v in c) - sum(a * b for a, b in zip(c, c[1:]))
    const = big * kappa_c - sum(si * ci for si, ci in zip(tail, c))
    numerator = LatticeSum(dim, Fraction(big), lin, Fraction(const))
    denominator = ProductSpec(((Fraction(big), dim),))
    return SpecializedCharacter(numerator, denominator)


def _route(form, product: ProductSpec, bound) -> QSeries:
    """One route: an unweighted chain lattice sum times an Euler-product quotient.

    The lattice sum's completed integer form is walked through the bound,
    floor(bound*grid) slots of its grid.  The sum is unweighted, so the lowest
    exponent of that walk, lead, is exact, and the product (which starts at
    q^0) is built through bound - lead when lead < 0, so that the quotient
    stays guaranteed through the bound; a zero lattice factor gets no pad.
    """
    t = as_rational(bound)
    lattice = _walk(form, None, floor(t * form.grid))
    lead = Fraction(0) if lattice.is_zero() else lattice.lowest_exponent()
    pad = max(-lead, Fraction(0))
    return series_mul(lattice, product_series(product, t + pad))


def _character_parts(parts: Sequence[int], k: int):
    """The character route's integer numerator chain and inverse denominator.

    specialized_character's numerator times n^2, built in integers: n*c_i =
    min(i,k)(n - max(i,k)) is integral, so the constant n^2(N kappa(c) - s.c)
    is N kappa(nc) - n s.(nc).  The chain is (diag, off, lin, const, denom)
    with denom = n^2.
    """
    data = PartitionData.from_parts(parts)
    n, big = data.n, data.N
    _check_index(n, k)
    tail = data.s[1:]
    nc = [min(i, k) * (n - max(i, k)) for i in range(1, n)]
    sq = n * n
    lin = [sq * ((big if i == k else 0) - tail[i - 1]) for i in range(1, n)]
    kappa_nc = sum(v * v for v in nc) - sum(a * b for a, b in zip(nc, nc[1:]))
    const = big * kappa_nc - n * sum(si * ci for si, ci in zip(tail, nc))
    chain = [sq * big] * (n - 1), [-sq * big] * max(n - 2, 0), lin, const, sq
    return chain, ProductSpec(((big, 1 - n),))


def _trace_parts(parts: Sequence[int], k: int):
    """The trace route's integer theta chain and its Euler-product correction.

    phi(q^N) times the sum of q^((N/2) sum k_i^2/n_i) over integer r-tuples
    with sum k, divided by one phi(q^(N/n_i)) per part.  In the partial sums
    s_i = k_1 + ... + k_i, with s_0 = 0 and s_r = k fixed, the exponent is
    (N/2) sum_i (s_i - s_(i-1))^2 / n_i: a chain in s_1..s_(r-1), in
    bijection with the r-tuples, and twice it is integral because every N/n_i
    is, so the chain carries denom 2.  r = 1 degenerates to a single
    monomial.
    """
    data = PartitionData.from_parts(parts)
    _check_index(data.n, k)
    big = data.N
    steps = [big // p for p in data.parts]
    diag = [steps[i] + steps[i + 1] for i in range(len(steps) - 1)]
    off = [-2 * v for v in steps[1:-1]]
    lin = [0] * len(diag)
    if lin:
        lin[-1] = -2 * k * steps[-1]
    factors = [(big, 1)] + [(v, -1) for v in steps]
    return (diag, off, lin, k * k * steps[-1], 2), ProductSpec(tuple(factors))


def specialized_character_series(
    parts: Sequence[int], k: int, bound
) -> QSeries:
    """Character route: numerator lattice sum over phi(q^N)^(n-1), through the bound.

    No character numerator with n <= 9 starts below q^0 (the tests pin
    that), so in practice _route's pad is 0 here.
    """
    chain, product = _character_parts(parts, k)
    return _route(_complete_squares(*chain), product, bound)


def trace_series(parts: Sequence[int], k: int, bound) -> QSeries:
    """Trace route: constrained theta sum with Euler-product corrections."""
    chain, product = _trace_parts(parts, k)
    return _route(_complete_squares(*chain), product, bound)


def verify_proposition(parts: Sequence[int], k: int, bound) -> VerifyReport:
    """Expand both routes and compare coefficients through the bound.

    The sides differ by a monomial factor.  Each route's leading exponent is an
    unweighted lattice minimum (every other factor starts at 1), so each side's
    integer chain is built and completed once, and the one form is walked
    first for that minimum and then through the bound above it; the shifts
    are reported.
    """
    t = as_rational(bound)

    def side(route_parts):
        def build(order: Fraction) -> QSeries:
            chain, product = route_parts(parts, k)
            form = _complete_squares(*chain)
            return _route(form, product, _chain_min(form) + order)

        return build

    return _compare_builders(side(_character_parts), side(_trace_parts), t)
