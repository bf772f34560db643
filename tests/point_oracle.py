"""A lattice sum's completed squares read point by point, used only by the tests.

lattice_enumerate walks the same completed form as the engine in
qchar.quadform, one point at a time instead of one row of counts at a time,
so hand expansions can be aggregated from its stream; form_exponent reads a
single point's exponent off that form.  Both share the engine's completion,
so they check the walk, not the squares: tests/box_oracle.py, which shares
nothing with the engine, checks the enumeration in turn.
"""

from fractions import Fraction
from math import floor
from typing import Iterator

from qchar.qseries import RationalLike, as_rational
from qchar.quadform import LatticeSum, _level_range, _ScaledForm


def _scaled_points(form: _ScaledForm, units: int) -> Iterator[tuple[tuple[int, ...], int]]:
    """Yield (point, sigma*grid*exponent) pairs through units, in lexicographic order."""
    budget = form.sigma * units - form.base
    if budget < 0:
        return
    l = len(form.K)
    if l == 0:
        yield (), form.base
        return
    kk, ws, w_prev, w0 = form.K, form.W, form.w_prev, form.w0
    top = form.base + budget
    x = [0] * l

    def rec(i: int, prev: int, budget: int):
        ki, wi = kk[i], ws[i]
        pi = w0[i] + w_prev[i] * prev
        last = i == l - 1
        for xi in _level_range(ki, wi, pi, budget):
            v = wi * xi + pi
            nb = budget - ki * v * v
            x[i] = xi
            if last:
                yield tuple(x), top - nb
            else:
                yield from rec(i + 1, xi, nb)

    yield from rec(0, 0, budget)


def lattice_enumerate(
    s: LatticeSum, bound: RationalLike
) -> Iterator[tuple[tuple[int, ...], Fraction]]:
    """All k with exponent E(k) <= bound, as (k, exponent) pairs in lex order."""
    t = as_rational(bound)
    form = s._form
    scale = form.sigma * form.grid
    for point, ehat in _scaled_points(form, floor(t * form.grid)):
        yield point, Fraction(ehat, scale)


def form_exponent(s: LatticeSum, point: tuple[int, ...]) -> Fraction:
    """E(point) from s's completed squares: sigma*grid*E = base + sum of K_i squares."""
    form = s._form
    total, prev = form.base, 0
    for k, w, c, t, x in zip(form.K, form.W, form.w_prev, form.w0, point, strict=True):
        total += k * (w * x + c * prev + t) ** 2
        prev = x
    return Fraction(total, form.sigma * form.grid)
