"""Series stated term by term, used only by the tests.

qchar builds every series as a dense window: by the product recurrence, by
the lattice walk, or through QSeries.from_window and QSeries.zero.  The tests
state their expected series as (exponent, coefficient) terms instead, the
way they are written by hand, and from_terms lays those out as a window.
"""

from math import floor, lcm

from qchar.qseries import QSeries, as_rational


def from_terms(terms, order, denom=None) -> QSeries:
    """The sum of the terms through the order, on the grid of multiples of 1/denom.

    Terms past the order are dropped and repeated exponents add up.  The
    grid defaults to the coarsest one holding the order and every exponent;
    an exponent off a given grid raises ValueError.
    """
    t = as_rational(order)
    pairs = [(as_rational(e), c) for e, c in terms]
    if denom is None:
        denom = lcm(t.denominator, *(e.denominator for e, _ in pairs))
    units = floor(t * denom)
    acc = {}
    for e, c in pairs:
        slot = e * denom
        if slot.denominator != 1:
            raise ValueError("exponent does not lie on the chosen grid")
        if slot <= units:
            acc[int(slot)] = acc.get(int(slot), 0) + c
    if not any(acc.values()):
        return QSeries.zero(t, denom)
    lo = min(acc)
    return QSeries.from_window(denom, lo, [acc.get(s, 0) for s in range(lo, units + 1)], units)
