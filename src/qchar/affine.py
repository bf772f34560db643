"""Partition-indexed specialization data and two routes to the same series.

A partition n_1 <= ... <= n_r of n determines a modulus N and an integer
specialization vector s of length n summing to N.  Specializing a level-one
highest-weight character along s collapses it to a one-variable q-series with
numerator a lattice sum over Z^(n-1) and denominator phi(q^N)^(n-1).  The
same series, up to a monomial shift, arises from a trace formula indexed by
the partition: a constrained theta sum over r integers summing to the weight
index, divided by one rescaled Euler product per part.  verify_proposition
expands both and compares coefficients through the requested order.

Everything is exact: moduli and specialization vectors are integers by
construction (non-integrality raises rather than rounds), exponents are
rationals on a fixed grid, and both routes share no series machinery beyond
the underlying lattice engine's arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
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
from .quadform import KappaForm, LatticeSum, _chain_min, _chain_series
from .quadform import lattice_min_exponent, lattice_sum_series

__all__ = [
    "PartitionData",
    "WeightConfig",
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
        if not isinstance(p, int) or p < 1:
            raise ValueError("partition parts must be positive integers")
    if any(a > b for a, b in zip(ps, ps[1:])):
        raise ValueError("partition parts must be ascending")
    return ps


def partitions(n: int) -> Iterator[tuple[int, ...]]:
    """All partitions of n as ascending tuples, in ascending generation order."""
    if not isinstance(n, int) or n < 1:
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
    vals: list[Fraction] = [Fraction(big * (ps[0] + ps[-1]), 2 * ps[0] * ps[-1])]
    for i, p in enumerate(ps):
        vals.extend([Fraction(big, p)] * (p - 1))
        if i + 1 < len(ps):
            q = ps[i + 1]
            vals.append(Fraction(big * (p + q), 2 * p * q) - big)
    out = []
    for v in vals:
        if v.denominator != 1:
            raise ArithmeticError(
                f"specialization entry {v} is not an integer for parts {ps}"
            )
        out.append(int(v))
    if len(out) != n or sum(out) != big:
        raise ArithmeticError(f"specialization vector failed its checksum for {ps}")
    return tuple(out)


def fundamental_weight_coeffs(n: int, k: int) -> tuple[Fraction, ...]:
    """Coefficients c_1..c_{n-1} expanding the k-th fundamental weight.

    c_i = min(i,k)(n - max(i,k))/n; index 0 gives the zero vector.  Against
    the Cartan matrix C this is the delta property (C c)_j = [j == k].
    """
    if not isinstance(n, int) or n < 1:
        raise ValueError("rank parameter must be a positive integer")
    if not isinstance(k, int) or not 0 <= k <= n - 1:
        raise ValueError("weight index out of range")
    return tuple(
        Fraction(min(i, k) * (n - max(i, k)), n) for i in range(1, n)
    )


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
class WeightConfig:
    """A fundamental-weight index with its simple-root expansion."""

    n: int
    k: int
    coeffs: tuple[Fraction, ...]

    @staticmethod
    def build(n: int, k: int) -> "WeightConfig":
        return WeightConfig(n, k, fundamental_weight_coeffs(n, k))


@dataclass(frozen=True)
class SpecializedCharacter:
    """Numerator lattice sum and denominator product of one specialization."""

    partition: PartitionData
    weight: WeightConfig
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
    weight = WeightConfig.build(data.n, k)
    n, big = data.n, data.N
    dim = n - 1
    tail = data.s[1:]
    lin = tuple(
        Fraction(big * (1 if i == k else 0) - tail[i - 1]) for i in range(1, n)
    )
    if dim:
        kappa_c = KappaForm(dim).eval_rational(weight.coeffs)
    else:
        kappa_c = Fraction(0)
    const = big * kappa_c - sum(
        si * ci for si, ci in zip(tail, weight.coeffs)
    )
    numerator = LatticeSum(dim, Fraction(big), lin, Fraction(const))
    denominator = ProductSpec(((Fraction(big), dim),))
    return SpecializedCharacter(data, weight, numerator, denominator)


def specialized_character_series(
    parts: Sequence[int], k: int, bound
) -> QSeries:
    """Character route: numerator lattice sum over phi(q^N)^(n-1).

    The numerator is expanded through the bound.  It is unweighted, so the
    lowest exponent of that expansion, lead, is exact, and the quotient is
    guaranteed through min(bound, order of the inverse + lead).  When
    lead < 0 the inverse product is therefore built through bound - lead; a
    zero numerator gets no pad.  No character numerator with n <= 9 starts
    below q^0 (the tests pin that), so in practice the pad is 0.
    """
    data = specialized_character(parts, k)
    t = as_rational(bound)
    num = lattice_sum_series(data.numerator, t)
    pad = Fraction(0) if num.is_zero() else max(-num.lowest_exponent(), Fraction(0))
    inv = ProductSpec(tuple((sc, -p) for sc, p in data.denominator.factors))
    return series_mul(num, product_series(inv, t + pad))


def _trace_parts(parts: Sequence[int], k: int):
    """The trace route's theta chain (diag, off, lin, const) and its correction.

    phi(q^N) times the sum of q^((N/2) sum k_i^2/n_i) over integer r-tuples
    with sum k, divided by one phi(q^(N/n_i)) per part.  In the partial sums
    s_i = k_1 + ... + k_i, with s_0 = 0 and s_r = k fixed, the exponent is
    (N/2) sum_i (s_i - s_(i-1))^2 / n_i: a chain in s_1..s_(r-1), in
    bijection with the r-tuples.  r = 1 degenerates to a single monomial.
    """
    data = PartitionData.from_parts(parts)
    if not isinstance(k, int) or not 0 <= k <= data.n - 1:
        raise ValueError("weight index out of range")
    big = data.N
    ps = data.parts
    half = Fraction(big, 2)
    diag = [half / ps[i] + half / ps[i + 1] for i in range(len(ps) - 1)]
    off = [Fraction(-big, p) for p in ps[1:-1]]
    lin = [Fraction(0)] * len(diag)
    if lin:
        lin[-1] = Fraction(-big * k, ps[-1])
    const = half * k * k / ps[-1]
    factors = [(Fraction(big), 1)]
    factors.extend((Fraction(big, p), -1) for p in ps)
    return (diag, off, lin, const), ProductSpec(tuple(factors))


def trace_series(parts: Sequence[int], k: int, bound) -> QSeries:
    """Trace route: constrained theta sum with Euler-product corrections."""
    chain, correction = _trace_parts(parts, k)
    t = as_rational(bound)
    return series_mul(_chain_series(*chain, None, t), product_series(correction, t))


def verify_proposition(parts: Sequence[int], k: int, bound) -> VerifyReport:
    """Expand both routes and compare coefficients through the bound.

    The sides differ by a monomial factor.  Each route's leading exponent is an
    unweighted lattice minimum (every other factor starts at 1), so each side
    is built once, through the bound above it; the shifts are reported.
    """
    t = as_rational(bound)

    def lhs(order: Fraction) -> QSeries:
        lead = lattice_min_exponent(specialized_character(parts, k).numerator)
        return specialized_character_series(parts, k, lead + order)

    def rhs(order: Fraction) -> QSeries:
        lead = _chain_min(*_trace_parts(parts, k)[0])
        return trace_series(parts, k, lead + order)

    return _compare_builders(lhs, rhs, t)
