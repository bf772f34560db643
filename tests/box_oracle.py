"""Certified box-scan oracle for lattice enumeration, used only by the tests.

It scans a coordinate box certified to contain every admissible point and
evaluates the exponent directly, sharing no machinery with the chain engine
in qchar.quadform, so the two can be checked against each other.  Large boxes
take a vectorized numpy path; its int64 arithmetic is guarded by _INT64_CAP.
"""

from fractions import Fraction
from itertools import product as iter_product
from math import floor, isqrt, lcm
from typing import Iterator

import numpy as np

from qchar.qseries import RationalLike, as_rational
from qchar.quadform import LatticeSum

_INT64_CAP = 1 << 62

# 333/106 is a classical continued-fraction convergent strictly below pi.
_PI_LOWER = Fraction(333, 106)


def _kappa_lambda_lower(l: int) -> Fraction:
    """Certified positive rational below the least eigenvalue of the kappa Gram.

    The exact value is 2*sin(pi/(2(l+1)))^2; sin is bounded below on [0, pi/2]
    by its alternating series truncation x - x^3/6 evaluated at a rational
    point below the true angle.
    """
    x = _PI_LOWER / (2 * (l + 1))
    s = x - x**3 / 6
    assert s > 0
    return 2 * s * s


def _sqrt_upper(x: Fraction) -> Fraction:
    """A rational upper bound for sqrt(x), x >= 0."""
    if x < 0:
        raise ValueError("negative radicand")
    return Fraction(isqrt(x.numerator * x.denominator) + 1, x.denominator)


def lattice_enumerate_oracle(
    s: LatticeSum, bound: RationalLike
) -> Iterator[tuple[tuple[int, ...], Fraction]]:
    """Reference enumerator: scan a certified box, evaluate E directly.

    The box radius comes from c*lambda*|k|^2 - |lin|*|k| + const <= bound
    with lambda a certified rational lower bound on the least eigenvalue of
    the kappa Gram matrix, so no admissible point can escape the box.
    """
    t = as_rational(bound)
    if s.c <= 0:
        raise ValueError("indefinite exponent function")
    if s.l == 0:
        if s.const <= t:
            yield (), s.const
        return
    lam = s.c * _kappa_lambda_lower(s.l)
    norm2 = sum(v * v for v in s.lin)
    lin_norm = _sqrt_upper(Fraction(norm2)) if norm2 else Fraction(0)
    disc = lin_norm * lin_norm + 4 * lam * (t - s.const)
    if disc < 0:
        return
    radius = floor((lin_norm + _sqrt_upper(disc)) / (2 * lam))
    if radius < 0:
        return

    # every exponent lands on multiples of 1/scale
    scale = lcm(
        s.c.denominator,
        s.const.denominator,
        t.denominator,
        *(v.denominator for v in s.lin),
    )
    diag = int(scale * s.c)
    cross = -diag
    lin_s = [int(scale * v) for v in s.lin]
    const_s = int(scale * s.const)
    t_s = int(scale * t)
    l = s.l

    side = 2 * radius + 1
    volume = side**l
    emax = diag * l * radius * radius + abs(cross) * l * radius * radius
    emax += sum(abs(v) for v in lin_s) * radius + abs(const_s)
    if l >= 2 and volume > 100_000 and emax < _INT64_CAP:
        tail_axes = np.arange(-radius, radius + 1, dtype=np.int64)
        shape = [side] * (l - 1)
        tails = np.meshgrid(*([tail_axes] * (l - 1)), indexing="ij")
        tail_e = np.zeros(shape, dtype=np.int64)
        for i, axis in enumerate(tails):
            tail_e += diag * axis * axis + lin_s[i + 1] * axis
            if i + 2 < l:
                tail_e += cross * axis * tails[i + 1]
        tail_e += const_s
        for x0 in range(-radius, radius + 1):
            e = tail_e + (diag * x0 * x0 + lin_s[0] * x0) + cross * x0 * tails[0]
            hits = np.argwhere(e <= t_s)
            for idx in hits:
                point = (x0,) + tuple(int(v) - radius for v in idx)
                yield point, Fraction(int(e[tuple(idx)]), scale)
        return

    for point in iter_product(range(-radius, radius + 1), repeat=l):
        e = diag * sum(v * v for v in point)
        e += cross * sum(point[i] * point[i + 1] for i in range(l - 1))
        e += sum(a * b for a, b in zip(lin_s, point)) + const_s
        if e <= t_s:
            yield point, Fraction(e, scale)
