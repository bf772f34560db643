"""Certified box-scan oracle for lattice enumeration, used only by the tests.

It scans a coordinate box certified to contain every admissible point and
evaluates the exponent directly, sharing no machinery with the chain engine
in qchar.quadform, so the two can be checked against each other.  The box
comes from the chain's Gram matrix in exact Fraction arithmetic: Sylvester's
criterion refuses an indefinite chain, and a Gauss-Jordan inverse, not the
engine's Bareiss completion, bounds each coordinate.  Large boxes take a
vectorized numpy path; its int64 arithmetic is guarded by _INT64_CAP.
"""

from fractions import Fraction
from itertools import product as iter_product
from math import ceil, floor, isqrt, prod
from typing import Iterator

import numpy as np

from qchar.qseries import RationalLike, as_rational
from qchar.quadform import LatticeSum

_INT64_CAP = 1 << 62
# boxes with more points than this take the numpy path
_ARRAY_VOLUME = 100_000


def gram(s: LatticeSum) -> list[list[Fraction]]:
    """The symmetric A with x^T A x the quadratic part of s.denom * E(x)."""
    a = [[Fraction(0)] * s.l for _ in range(s.l)]
    for i, v in enumerate(s.diag):
        a[i][i] = Fraction(v)
    for i, v in enumerate(s.off):
        a[i][i + 1] = a[i + 1][i] = Fraction(v, 2)
    return a


def leading_minors(a: list[list[Fraction]]) -> list[Fraction]:
    """The leading principal minors D_1..D_l of a, by Gaussian elimination
    without row exchanges: D_k is the product of the first k pivots, and a
    zero pivot makes every later minor undefined, so the list stops there
    with a 0."""
    m = [row[:] for row in a]
    minors, det = [], Fraction(1)
    for k in range(len(m)):
        det *= m[k][k]
        minors.append(det)
        if not det:
            break
        for r in range(k + 1, len(m)):
            f = m[r][k] / m[k][k]
            m[r] = [x - f * y for x, y in zip(m[r], m[k])]
    return minors


def inverse(a: list[list[Fraction]]) -> list[list[Fraction]]:
    """a^-1 by Gauss-Jordan elimination on [a | I]; a must be positive
    definite, so every pivot it meets without row exchanges is positive."""
    n = len(a)
    m = [row[:] + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(a)]
    for k in range(n):
        m[k] = [x / m[k][k] for x in m[k]]
        for r in range(n):
            if r != k and m[r][k]:
                f = m[r][k]
                m[r] = [x - f * y for x, y in zip(m[r], m[k])]
    return [row[n:] for row in m]


def _sqrt_upper(x: Fraction) -> Fraction:
    """A rational upper bound for sqrt(x), x >= 0."""
    if x < 0:
        raise ValueError("negative radicand")
    return Fraction(isqrt(x.numerator * x.denominator) + 1, x.denominator)


def certified_box(s: LatticeSum, bound: RationalLike) -> list[range]:
    """One range per coordinate, holding every point with E <= bound.

    With A = gram(s), b = s.lin and x* = -A^-1 b / 2, the chain is
    s.denom * E(x) = (x - x*)^T A (x - x*) + e_min, e_min = const + b.x*/2,
    so an admissible x has (x - x*)^T A (x - x*) <= r = s.denom * bound - e_min,
    and on that ellipsoid |x_i - x*_i| <= sqrt(r (A^-1)_ii).  Raises
    ValueError when A fails Sylvester's criterion.
    """
    a = gram(s)
    if any(d <= 0 for d in leading_minors(a)):
        raise ValueError("indefinite exponent function")
    inv = inverse(a)
    centre = [-sum(v * b for v, b in zip(row, s.lin)) / 2 for row in inv]
    r = s.denom * as_rational(bound) - s.const - sum(b * x for b, x in zip(s.lin, centre)) / 2
    if r < 0:
        return [range(0)] * s.l
    radius = [_sqrt_upper(r * inv[i][i]) for i in range(s.l)]
    return [range(ceil(x - h), floor(x + h) + 1) for x, h in zip(centre, radius)]


def lattice_enumerate_oracle(
    s: LatticeSum, bound: RationalLike
) -> Iterator[tuple[tuple[int, ...], Fraction]]:
    """Reference enumerator: scan certified_box, evaluate E directly, in
    lexicographic order."""
    t = as_rational(bound)
    box = certified_box(s, t)
    # integer exponents e = s.denom * E, admissible when e <= top
    top = floor(t * s.denom)
    diag, off, lin, const, l = s.diag, s.off, s.lin, s.const, s.l
    reach = [max(abs(r.start), abs(r.stop - 1), 0) if r else 0 for r in box]
    emax = sum(abs(d) * x * x for d, x in zip(diag, reach))
    emax += sum(abs(c) * x * y for c, x, y in zip(off, reach, reach[1:]))
    emax += sum(abs(v) * x for v, x in zip(lin, reach)) + abs(const)
    if l >= 2 and prod(map(len, box)) > _ARRAY_VOLUME and emax < _INT64_CAP:
        axes = [np.arange(r.start, r.stop, dtype=np.int64) for r in box[1:]]
        tails = np.meshgrid(*axes, indexing="ij")
        tail_e = np.full(tails[0].shape, const, dtype=np.int64)
        for i, axis in enumerate(tails):
            tail_e += diag[i + 1] * axis * axis + lin[i + 1] * axis
            if i + 2 < l:
                tail_e += off[i + 1] * axis * tails[i + 1]
        for x0 in box[0]:
            e = tail_e + (diag[0] * x0 * x0 + lin[0] * x0) + off[0] * x0 * tails[0]
            for idx in np.argwhere(e <= top):
                point = (x0,) + tuple(int(axis[v]) for axis, v in zip(axes, idx))
                yield point, Fraction(int(e[tuple(idx)]), s.denom)
        return

    for point in iter_product(*box):
        e = sum(d * x * x for d, x in zip(diag, point))
        e += sum(c * x * y for c, x, y in zip(off, point, point[1:]))
        e += sum(v * x for v, x in zip(lin, point)) + const
        if e <= top:
            yield point, Fraction(e, s.denom)
