"""Partition data, two routes to the same series, and the Side they share.

A partition n_1 <= ... <= n_r of n determines a modulus N and an integer
specialization vector s of length n summing to N.  Specializing a level-one
highest-weight character along s collapses it to a one-variable q-series with
numerator a lattice sum over Z^(n-1) and denominator P_1^-1 = phi(q^N)^(n-1).
The same series, up to a monomial shift, arises from a trace formula indexed
by the partition: a constrained theta sum over r integers summing to the
weight index, times P_2 = phi(q^N) / prod_i phi(q^(N/n_i)).  Each reading is
a Side, a LatticeSum times an Euler-product quotient, either factor possibly
absent, and known exactly as far as its lattice window; Side.series builds
one through a bound and Side.above through an order above its lead, and
verify, which qchar.identities uses too, compares two that way, building the
rhs first and handing its window to the lhs: a pure product takes it as the
candidate that product_series certifies.  The routes share the partition's
PartitionData, but no chain.  Each route's formula is written once, as an
integer chain and its product's integer (scale, power) factors
(_character_parts, _trace_parts).

Two pure lattice sides that verify proves one lattice, translated, walk
once, the lhs window read off the rhs's.  Both routes of every (1^n) are
kappa chains, the trace chain at x + v, v_i = min(i, k), being the
character chain at x plus k^2/(2n), so a (1^n) match is proved at every
order by that exact translation, not by two unrelated algorithms agreeing.

A proposition is one identity, built in one place: _proposition(parts, k)
validates the partition once, builds both routes from it and pairs them as
numerator * P_1/P_2 = theta, merging both routes' factors into one ratio
spec.  verify_proposition checks it with one product, and qchar.identities
reads its numerator side and inverts the ratio for the two families'
product sides.

Everything is exact: moduli and specialization vectors are integers by
construction (non-integrality raises rather than rounds), and exponents are
rationals on a fixed grid.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import repeat
from math import lcm
from operator import add, mul
from typing import Iterator, Optional, Sequence

from .qseries import (
    ProductSpec,
    QSeries,
    VerifyReport,
    _compare_builders,
    _series,
    as_rational,
    product_series,
    series_mul,
)
from .quadform import LatticeSum, lattice_sum_above, lattice_sum_series

__all__ = [
    "PartitionData",
    "Side",
    "partitions",
    "specialized_character",
    "specialized_character_series",
    "trace_series",
    "verify",
    "verify_proposition",
]


# a route's Euler-product factors, (scale, power) ints
_Factors = tuple[tuple[int, int], ...]


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


def _weight_numerators(n: int, k: int) -> list[int]:
    """n times the k-th fundamental weight c (C c = e_k): n c_i = min(i,k)(n - max(i,k))."""
    _check_index(n, k)
    return [min(i, k) * (n - max(i, k)) for i in range(1, n)]


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
        """Validate once, then derive the modulus N and, from N, the vector s.

        N is the lcm N' of the parts, doubled unless N'(1/n_i + 1/n_j) is even
        for every pair of parts, diagonal included.  s has one entry per node,
        sums to N, and is a head N(n_1+n_r)/(2 n_1 n_r), then per part n_i - 1
        copies of N/n_i, one entry N((n_i+n_{i+1})/(2 n_i n_{i+1}) - 1) between
        consecutive parts; a fractional entry raises instead of rounding.
        """
        ps = _validate_parts(parts)
        big = lcm(*ps)
        if any((big // p + big // q) & 1 for i, p in enumerate(ps) for q in ps[i:]):
            big *= 2

        def entry(num: int, den: int) -> int:
            v, r = divmod(num, den)
            if r:
                raise ArithmeticError(
                    f"specialization entry {Fraction(num, den)} is not an integer "
                    f"for parts {ps}"
                )
            return v

        s = [entry(big * (ps[0] + ps[-1]), 2 * ps[0] * ps[-1])]
        for i, p in enumerate(ps):
            s.extend([big // p] * (p - 1))
            if i + 1 < len(ps):
                q = ps[i + 1]
                s.append(entry(big * (p + q) - 2 * p * q * big, 2 * p * q))
        n = sum(ps)
        if len(s) != n or sum(s) != big:
            raise ArithmeticError(f"specialization vector failed its checksum for {ps}")
        return PartitionData(ps, n, big, tuple(s))


@dataclass(frozen=True)
class Side:
    """One reading of a series: a lattice sum times an Euler-product quotient.

    lattice is a LatticeSum or None; product is a ProductSpec or None.  A
    pure product keeps its own grid; any other side is known as far as its
    lattice window.  Its lead is its lattice minimum, or 0.
    """

    lattice: Optional[LatticeSum]
    product: Optional[ProductSpec] = None

    def __post_init__(self) -> None:
        if self.lattice is None and self.product is None:
            raise ValueError("a side needs a lattice sum or a product")

    def series(self, bound) -> QSeries:
        """Expand the side, guaranteed through the bound."""
        t = as_rational(bound)
        if self.lattice is None:
            return product_series(self.product, t)
        return self._times_product(lattice_sum_series(self.lattice, t))

    def above(self, order, candidate: Optional[QSeries] = None) -> QSeries:
        """Expand the side, guaranteed through order above its lead.

        A pure product hands the candidate window to product_series, which
        returns it when it certifies and solves otherwise; any other side
        ignores it.  The expansion is the same either way.
        """
        t = as_rational(order)
        if self.lattice is None:
            return product_series(self.product, t, candidate)
        return self._times_product(lattice_sum_above(self.lattice, t)[1])

    def _times_product(self, lattice: QSeries) -> QSeries:
        """The lattice window L times the product P, known as far as L.

        series_mul guarantees min(L.order + P.lo, P.order + L.lo), which is
        L.order once P = 1 + O(q) reaches L.order - min(L.lo, 0), also below
        q^0.  So P is expanded that many slots of L's grid (its own grid has
        no slot between its floored order and there), rebased, padded with
        zeros to that slot and multiplied once; a longer P changes no window.
        """
        if self.product is None:
            return lattice
        units = lattice.order - min(lattice.lo, 0)
        product = product_series(self.product, Fraction(units, lattice.denom))
        m = lcm(product.denom, lattice.denom)
        product, top = product.rebase(m), units * (m // lattice.denom)
        product = _series(m, 0, product.coeffs + (0,) * (top - product.order), top)
        return series_mul(lattice, product)


def verify(lhs: Side, rhs: Side, bound) -> VerifyReport:
    """Compare two sides, each built once through the bound above its lead.

    _compare_builders builds rhs first, and lhs.above takes its window as a
    candidate.  A pure product lhs, as in every identity, is then the rhs
    window when that passes the product's recurrence and the recurrence's
    solution when it does not, so the report is the same either way.

    Two pure lattice sides that _translation proves one lattice, as both
    routes of every (1^n) are, walk once: the lhs builder reads the rhs
    window moved down by delta (_translated), which is the lhs walk's window
    exactly, so the report is the same.  A side with a product costs this
    one attribute check.
    """
    window = None

    def right(order):
        nonlocal window
        window = rhs.above(order)
        return window

    delta = None
    if lhs.product is None and rhs.product is None:
        delta = _translation(lhs.lattice, rhs.lattice)
    if delta is None:
        left = lambda order: lhs.above(order, window)
    else:
        left = lambda order: _translated(window, delta, lhs.lattice.denom, order)
    return _compare_builders(left, right, as_rational(bound))


def _translation(a: LatticeSum, b: LatticeSum) -> Optional[Fraction]:
    """delta with E_b(x + v) = E_a(x) + delta at every x, for one integral v,
    or None when the chains show no such v.

    Unweighted chains whose quadratic parts agree over a common denominator,
    Q_a/da = Q_b/db, differ at x + v by a linear and a constant term, and
    the linear term vanishes exactly when 2 db Q_a v = db lin_a - da lin_b.
    That system is tridiagonal, d_i = 2 db diag_a_i on the diagonal and
    o_i = db off_a_i beside it, with right side r_i = db lin_a_i - da lin_b_i,
    and is solved in integers: eliminating downwards, row i's pivot is
    M_(i+1)/M_i, M_i the leading principal minors (M_0 = 1, M_(i+1) =
    d_i M_i - o_(i-1)^2 M_(i-1)), and its right side is R_i/M_(i+1) with
    R_i = r_i M_i - o_(i-1) R_(i-1); substituting upwards,
    v_i = (R_i - o_i M_i v_(i+1)) / M_(i+1), a division that leaves a
    remainder exactly when v is not integral.  A minor that is not positive
    means an indefinite chain, left for the walk to refuse.  An integral v
    maps Z^l onto itself, so the two sums are one lattice, and
    delta = E_b(v) - E_a(0).
    """
    if a.weight is not None or b.weight is not None or a.l != b.l:
        return None
    da, db, l = a.denom, b.denom, a.l
    if any(p * db != r * da for p, r in zip(a.diag + a.off, b.diag + b.off)):
        return None
    # minor[i + 1] is M_i and rows[i + 1] is R_i, with M_(-1) = R_(-1) = 0
    minor, rows = [0, 1], [0]
    for i in range(l):
        c = db * a.off[i - 1] if i else 0
        minor.append(2 * db * a.diag[i] * minor[-1] - c * c * minor[-2])
        rows.append((db * a.lin[i] - da * b.lin[i]) * minor[-2] - c * rows[-1])
        if minor[-1] <= 0:
            return None
    v, x = [0] * l, 0
    for i in range(l - 1, -1, -1):
        c = db * a.off[i] if i < l - 1 else 0
        x, rem = divmod(rows[i + 1] - c * minor[i + 1] * x, minor[i + 2])
        if rem:
            return None
        v[i] = x
    value = (b.const + sum(map(mul, b.diag, map(mul, v, v)))
             + sum(map(mul, b.off, map(mul, v, v[1:]))) + sum(map(mul, b.lin, v)))
    return Fraction(value, db) - Fraction(a.const, da)


def _translated(window: QSeries, delta: Fraction, grid: int, order: Fraction) -> QSeries:
    """The lhs walk's window, read off the rhs window of the same lattice.

    window is lattice_sum_above's expansion of the rhs through its lead plus
    order; the lhs's exponents are the rhs's minus delta, on its own grid.
    The rhs is unweighted, so its window starts at its lead, and the lhs
    lead is that minus delta.  On the common grid m the window moves down
    delta*m slots and is read every m/grid slots, from the lhs lead, which
    lies on the lhs grid, through that lead plus order, cut as
    lattice_sum_above cuts.  A slot past the rhs window's order holds an
    exponent off the rhs grid, where no point lies, so it reads 0.
    """
    m = lcm(window.denom, grid)
    moved, f = window.rebase(m), m // grid
    lo = (moved.lo - delta.numerator * (m // delta.denominator)) // f
    n = order.numerator * grid // order.denominator + 1
    coeffs = moved.coeffs[::f][:n]
    return _series(grid, lo, coeffs + (0,) * (n - len(coeffs)), lo + n - 1)


def specialized_character(parts: Sequence[int], k: int) -> Side:
    """The character side for a partition and weight index: its numerator
    chain over 1/phi(q^N)^(n-1) (see _character_parts)."""
    chain, factors = _character_parts(PartitionData.from_parts(parts), k)
    return Side(chain, ProductSpec(factors))


def _character_parts(data: PartitionData, k: int) -> tuple[LatticeSum, _Factors]:
    """The character route: integer numerator chain and its quotient's factors.

    Writing gamma = kvec + c with c the fundamental-weight coefficients, the
    numerator exponent is (N/2)(gamma|gamma) - sum s_i gamma_i.  Expanding
    in kvec, the quadratic part is exactly N*kappa, the linear part is
    N*e_k - s (head entry of s excluded, it pairs with no lattice
    coordinate), and the constant N*kappa(c) - s.c rides along so the
    exponent function is the specialization verbatim, not a shifted cousin.
    The chain is that exponent times 2n, all in integers: C c = e_k gives
    kappa(c) = (c|c)/2 = c_k/2 = k(n-k)/(2n), and n*c_i = min(i,k)(n -
    max(i,k)) is integral, so the constant 2n(N kappa(c) - s.c) is
    N k(n-k) - 2 s.(nc).  It is the chain (diag, off, lin, const) over
    denom = 2n, which LatticeSum reduces; the factors, as (scale, power)
    ints, are the quotient's 1/phi(q^N)^(n-1), a zero power at n = 1.
    """
    n, big = data.n, data.N
    nc = _weight_numerators(n, k)
    tail = data.s[1:]
    grid = 2 * n
    lin = list(map(mul, tail, repeat(-grid)))
    if k:
        lin[k - 1] += grid * big
    const = big * k * (n - k) - 2 * sum(map(mul, tail, nc))
    chain = LatticeSum((grid * big,) * (n - 1), (-grid * big,) * max(n - 2, 0), lin, const, grid)
    return chain, ((big, 1 - n),)


def _trace_parts(data: PartitionData, k: int) -> tuple[LatticeSum, _Factors]:
    """The trace route: integer theta chain and its Euler-product correction's factors.

    phi(q^N) times the sum of q^((N/2) sum k_i^2/n_i) over integer r-tuples
    with sum k, divided by one phi(q^(N/n_i)) per part.  In the partial sums
    s_i = k_1 + ... + k_i, with s_0 = 0 and s_r = k fixed, the exponent is
    (N/2) sum_i (s_i - s_(i-1))^2 / n_i: a chain in s_1..s_(r-1), in
    bijection with the r-tuples, and twice it is integral because every N/n_i
    is, so the chain carries denom 2.  r = 1 degenerates to a single
    monomial.  The factors are (scale, power) ints, as _character_parts'.
    """
    _check_index(data.n, k)
    big = data.N
    steps = [big // p for p in data.parts]
    diag = tuple(map(add, steps, steps[1:]))
    off = tuple(map(mul, steps[1:-1], repeat(-2)))
    lin = (0,) * (len(diag) - 1) + (-2 * k * steps[-1],) if diag else ()
    chain = LatticeSum(diag, off, lin, k * k * steps[-1], 2)
    return chain, ((big, 1), *zip(steps, repeat(-1)))


def specialized_character_series(parts: Sequence[int], k: int, bound) -> QSeries:
    """Character route: numerator lattice sum over phi(q^N)^(n-1), through the bound.

    No character numerator with n <= 9 starts below q^0 (the tests pin
    that), so its quotient runs through the bound, or q^0 when that is less.
    """
    return specialized_character(parts, k).series(bound)


def trace_series(parts: Sequence[int], k: int, bound) -> QSeries:
    """Trace route: constrained theta sum with Euler-product corrections."""
    chain, factors = _trace_parts(PartitionData.from_parts(parts), k)
    return Side(chain, ProductSpec(factors)).series(bound)


def _proposition(parts: Sequence[int], k: int) -> tuple[Side, Side]:
    """The proposition's two sides for (parts, k): numerator * P_1/P_2 and
    the trace theta.

    The partition is validated once and both routes built from it, their
    factors merged into one ProductSpec.  Both routes divided by P_2, so
    one product, phi(q^N)^(-n) prod_i phi(q^(N/n_i)), remains.  For (1^n)
    it cancels, and the sides are one lattice: N = 1 and
    s = (1, 0, ..., 0), so the numerator is kappa(x) + x_k + k(n-k)/(2n)
    (no x_k at k = 0), and the theta, in partial sums with s_0 = 0 and
    s_n = k, is kappa(x) - k x_(n-1) + k^2/2.  At x + v, v_i = min(i, k),
    the theta is the numerator plus k^2/(2n), and verify proves that
    translation (_translation) and walks the theta alone.
    """
    data = PartitionData.from_parts(parts)
    numerator, up = _character_parts(data, k)
    theta, down = _trace_parts(data, k)
    ratio = ProductSpec(up + tuple((scale, -power) for scale, power in down))
    return Side(numerator, ratio if ratio.factors else None), Side(theta)


def verify_proposition(parts: Sequence[int], k: int, bound) -> VerifyReport:
    """Verify _proposition's sides, numerator * P_1/P_2 and theta, through the bound.

    They differ by a monomial factor; each side's lead is its lattice
    minimum, exact because the ratio starts at 1.  Against the two full
    routes, dividing by P_2 = 1 + O(q) moves neither shift nor the first
    mismatching exponent, only the coefficients a mismatch reports.
    """
    return verify(*_proposition(parts, k), bound)
