"""Dict-of-spends lattice walk, the oracle of qchar.quadform._walk in the tests.

It walks the same completed form level by level, but keeps, for each value
of the current coordinate, a dict from exact spend to weighted count and
merges one spend at a time, so it shares neither the residue classes, the
packed thetas, their one step and whole-byte width, nor the unpacking with
the engine.
"""

from typing import Iterator, Optional

from qchar.qseries import QSeries
from qchar.quadform import _ScaledForm, _level_range, _weight_value


def dict_levels(form: _ScaledForm, weight, budget: int) -> Iterator[dict[int, dict[int, int]]]:
    """Each level's rows: x_i -> {spend on levels 0..i: weighted count}."""
    states: dict[int, dict[int, int]] = {0: {0: 1}}
    for i in range(len(form.K)):
        ki, wi, ci, ti = form.K[i], form.W[i], form.w_prev[i], form.w0[i]
        nxt: dict[int, dict[int, int]] = {}
        for prev, spent in states.items():
            pi = ti + ci * prev
            for xi in _level_range(ki, wi, pi, budget - min(spent)):
                v = wi * xi + pi
                cost = ki * v * v
                room = budget - cost
                row = nxt.setdefault(xi, {})
                for used, count in spent.items():
                    if used <= room:
                        key = used + cost
                        row[key] = row.get(key, 0) + count
        states = nxt
        if i == 0 and weight is not None:
            for xi, row in states.items():
                w = _weight_value(weight, (xi,))
                for key in row:
                    row[key] *= w
        yield states


def dict_walk(form: _ScaledForm, weight, units: int) -> tuple[Optional[int], QSeries]:
    """Expand form through units grid slots, one spend at a time.

    Returns the least grid slot any point reaches (None if none does), a
    slot whose weighted count cancels included, with the window.
    """
    grid, sigma, base = form.grid, form.sigma, form.base
    budget = sigma * units - base
    if budget < 0:
        return None, QSeries(grid, units, (0,), units)
    states: dict[int, dict[int, int]] = {0: {0: 1}}  # the empty point's, if l = 0
    for states in dict_levels(form, weight, budget):
        pass  # keep the last level's rows
    acc: dict[int, int] = {}
    for row in states.values():
        for used, count in row.items():
            slot = (base + used) // sigma
            acc[slot] = acc.get(slot, 0) + count
    lo = min(acc, default=units)
    window = [acc.get(i, 0) for i in range(lo, units + 1)]
    return min(acc, default=None), QSeries.from_window(grid, lo, window, units)
