"""Positive-definite lattice sums over chain quadratic forms.

A LatticeSum's exponent function E is a chain: an integer quadratic form
over a positive denominator in which each coordinate meets only its
neighbours.  The classical identities are one-dimensional chains; the
character numerators are c*kappa(x) + lin.x + const, where
kappa(x) = sum x_i^2 - sum x_i x_(i+1) is half the Gram form of the A_l
chain, and the trace thetas are chains in partial sums.  Completing the
square in the last coordinate, again and again, writes a positive-definite
chain exponent as cstar + sum_i d_i (x_i + u_i x_(i-1) + t_i)^2 with every
d_i positive, so once x_(i-1) and the budget left are fixed the admissible
x_i fill an interval computed exactly with integer square roots.

Chains enter as integers, grid*E for the grid denominator of their entries,
and the squares are completed fraction-free (Bareiss elimination), straight
into one integer form that depends on no bound: a walk through t reads only
floor(t*grid), because every exponent lies on the grid.  One engine expands
every lattice series from that form: a transfer-matrix walk that keeps, per
value of the current coordinate, one packed int whose slots are the weighted
counts by budget spent, so it never visits points one by one, and prices
each value of the next coordinate once per value of the current one.  A
row's spends share a residue modulo sigma times the chain's stride, so its
slots step by that much, and their width is proved from the form; masks,
shifts and adds on whole rows replace per-spend merges.  The last coordinate
is folded: rows that meet the same one-dimensional theta of the last square
merge, each group is shifted into one accumulator once per term of its
theta, and the window unpacks once.  In dimension 3 the rows before the
fold would hold one count each, so the walk scatters each pair (x_0, x_1)
straight into its group's list, one add per pair, packs each group once and
builds no row.  Both routes of qchar.affine and the identities build
their LatticeSums as integer chains.  A LatticeSum completes its squares
once, on first use, and every public entry point walks that one form,
once: lattice_sum_series through any bound, lattice_sum_above through a
nearest-plane point's exponent plus an order, reading the exact minimum
exponent off that walk's least slot.  No floating point, and no Fraction
between a chain's entries and its walk's slots; the tests check the engine
against a box-scan oracle and a dict-of-spends walk, and the completion
against a Fraction one.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd, isqrt, lcm
from operator import add, mul
from typing import Optional

from .qseries import (
    QSeries,
    RationalLike,
    _cut,
    _pack,
    _series,
    _slot_width,
    _unpack,
    _window,
    as_rational,
)

__all__ = [
    "LatticeSum",
    "WEIGHT_ALTERNATING",
    "WEIGHT_FOUR_K_PLUS_ONE",
    "lattice_sum_above",
    "lattice_sum_series",
]

WEIGHT_ALTERNATING = "alternating_sign"
WEIGHT_FOUR_K_PLUS_ONE = "four_k_plus_one"
_WEIGHTS = (WEIGHT_ALTERNATING, WEIGHT_FOUR_K_PLUS_ONE)


@dataclass(frozen=True)
class LatticeSum:
    """Formal sum over Z^l of weight(x) * q^E(x), E given by an integer chain.

    denom*E(x) = sum_i diag[i] x_i^2 + sum_i off[i] x_i x_(i+1) + lin.x + const,
    every entry a plain int, off one entry shorter than diag (empty at l <= 1),
    lin as long as diag, and denom positive.  The chain is stored divided by
    the gcd of all its entries and denom, so two chains of one exponent
    function are equal, hash alike and complete the same form.  The quadratic
    part must be positive definite, or the sum has infinitely many terms
    under any truncation; an indefinite chain raises when it is first
    expanded.  The optional weight is one of the built-in shapes, applied to
    the first coordinate: WEIGHT_ALTERNATING gives (-1)^(x_0),
    WEIGHT_FOUR_K_PLUS_ONE gives 4*x_0+1.  l = 0 is allowed and denotes the
    single empty point with exponent const/denom.
    """

    diag: tuple[int, ...]
    off: tuple[int, ...]
    lin: tuple[int, ...]
    const: int = 0
    denom: int = 1
    weight: Optional[str] = None

    def __post_init__(self) -> None:
        diag, off, lin, const, denom = self.diag, self.off, self.lin, self.const, self.denom
        entries = (*diag, *off, *lin, const, denom)
        # bool is an int subclass, but True is no chain entry
        if not {int}.issuperset(map(type, entries)):
            raise TypeError("chain entries must be plain ints")
        if len(lin) != len(diag) or len(off) != max(len(diag) - 1, 0):
            raise ValueError("a chain of dimension l needs l - 1 off-diagonal and l linear entries")
        if denom <= 0:
            raise ValueError("chain denominator must be positive")
        if self.weight is not None and self.weight not in _WEIGHTS:
            raise ValueError(f"unknown weight shape: {self.weight!r}")
        g = gcd(*entries)
        # fields are rewritten only to reduce them or to make them tuples
        if g > 1 or not type(diag) is type(off) is type(lin) is tuple:
            cut, put = g.__rfloordiv__, object.__setattr__
            put(self, "diag", tuple(map(cut, diag)))
            put(self, "off", tuple(map(cut, off)))
            put(self, "lin", tuple(map(cut, lin)))
            put(self, "const", const // g)
            put(self, "denom", denom // g)

    @property
    def l(self) -> int:
        return len(self.diag)

    @cached_property
    def _form(self) -> "_ScaledForm":
        """The completed squares of the exponent, computed once, on first use.

        Every public entry point walks this form.  It is not a dataclass
        field, so ==, hash, repr and to_json never see it, and a copy made
        by dataclasses.replace completes its own.
        """
        return _complete_squares(self.diag, self.off, self.lin, self.const, self.denom)

    def to_json(self) -> dict:
        out = {
            "diag": list(self.diag),
            "off": list(self.off),
            "lin": list(self.lin),
            "const": self.const,
            "denom": self.denom,
        }
        if self.weight is not None:
            out["weight"] = self.weight
        return out


def _weight_value(weight: Optional[str], point: tuple[int, ...]) -> int:
    if weight is None:
        return 1
    first = point[0] if point else 0
    if weight == WEIGHT_ALTERNATING:
        return -1 if first & 1 else 1
    if weight == WEIGHT_FOUR_K_PLUS_ONE:
        return 4 * first + 1
    raise ValueError(f"unknown weight shape: {weight!r}")


@dataclass(frozen=True)
class _ScaledForm:
    """A chain's completed squares in integers, one form for every bound.

    grid is the grid denominator, the lcm of the denominators of E's
    entries, so grid*E(x) is an integer at every integer x, and sigma counts
    integer units per grid slot.  With x_(-1) = 0,
    sigma*grid*E(x) = base + sum_i K_i (W_i x_i + w_prev_i x_(i-1) + w0_i)^2,
    so a walk through any bound t needs only units = floor(t*grid): every
    exponent lies on the grid, the budget is sigma*units - base, and a spend
    lands in grid slot (base + spend) // sigma exactly.  With x_i fixed, the
    spends of any two prefixes x_0..x_(i-1) differ by a multiple of
    sigma*stride (see _walk), so a walk's rows step stride grid slots.
    least, set by any walk that reaches a point, is grid*min(E) (see _walk).
    """

    grid: int
    sigma: int
    stride: int
    base: int
    K: tuple[int, ...]
    W: tuple[int, ...]
    w_prev: tuple[int, ...]
    w0: tuple[int, ...]


def _complete_squares(a, b, l, c, grid) -> _ScaledForm:
    """Peel squares off the last coordinate of an integer chain, fraction-free,
    in one O(l) pass.

    The chain (diag a, off b, lin l, const c) is R = grid*E, reduced as
    LatticeSum stores it.  Keeping grid*E = R/m + (the squares peeled so far),
    m = 1 at the start, eliminating x_i multiplies R and m by 4a_i, where a_i
    is x_i's diagonal entry and b, l_i its entries beside x_(i-1) and alone
    (b = 0 at level 0): 4a_i (a_i x_i^2 + b x_(i-1) x_i + l_i x_i) is
    (2a_i x_i + b x_(i-1) + l_i)^2 - (b x_(i-1) + l_i)^2, so the level's square
    is (2a_i x_i + b x_(i-1) + l_i)^2 / (4a_i m) and the remainder, still a
    chain, has only x_(i-1)'s diagonal and linear entries changed.  So the
    remainder is the untouched prefix of the chain times one running integer
    scale s, plus -b^2 and -2b l_i on those two entries: each level reads its
    entries as s times the prefix's plus those additions, and divides m, s
    and the additions by their gcd, which keeps every value a small exact
    integer (Bareiss, Math. Comp. 22, 1968).  Each square's (W, w_prev, w0)
    is its linear form divided by the gcd of its entries.  How far a level
    divides does not change the form: multiplying R and m by any lambda > 0
    leaves each square, a rational invariant of the chain, as it is,
    (W, w_prev, w0) is its primitive linear form with W > 0, and sigma is the
    least scale that makes every K_i integral.  No square reads the
    remainder's constant, so the elimination drops it and base is read off
    x = 0 instead.  stride, the gcd of 2a_j, a_j + l_j and b_j over every
    coordinate but the last, steps a walk's rows
    (see _walk).  Raises if any pivot fails to be positive.
    """
    # 1 when no coordinate but the last exists: every row then holds one spend
    stride = gcd(2 * gcd(*a[:-1]), *map(add, a[:-1], l), *b) or 1
    n = len(a)
    W, w_prev, w0, squares = [0] * n, [0] * n, [0] * n, [0] * n
    m = s = sigma = 1
    da = dl = 0
    for i in range(n - 1, -1, -1):
        ai, li = s * a[i] + da, s * l[i] + dl
        if ai <= 0:
            raise ValueError("indefinite exponent function")
        bi = s * b[i - 1] if i else 0
        m, s = m * 4 * ai, s * 4 * ai
        h = gcd(2 * ai, bi, li)
        W[i], w_prev[i], w0[i] = 2 * ai // h, bi // h, li // h
        # the square's coefficient h^2/m in lowest terms; sigma clears each one
        g = gcd(m, h * h)
        squares[i] = (h * h // g, m // g)
        sigma = lcm(sigma, m // g)
        da, dl = -bi * bi, -2 * bi * li
        g = gcd(m, s, da, dl)
        m, s, da, dl = m // g, s // g, da // g, dl // g
    K = tuple(sigma // den * num for num, den in squares)
    # sigma*grid*E(0) = sigma*c = base + sum K_i w0_i^2, all integers
    base = sigma * c - sum(map(mul, K, map(mul, w0, w0)))
    return _ScaledForm(grid, sigma, stride, base, K, tuple(W), tuple(w_prev), tuple(w0))


def _level_range(k: int, w: int, p: int, budget: int) -> range:
    """All x with k * (w*x + p)^2 <= budget."""
    r = isqrt(budget // k)
    return range(-((r + p) // w), (r - p) // w + 1)


def _count_bound(form: _ScaledForm, weight, budget: int) -> int:
    """A bound on the magnitude of every count a walk through budget keeps.

    Every count the walk keeps, in a row, a group or the window, weighs
    prefixes x_0..x_i that spend one amount s, at most max|weight| each, and
    so does every partial sum of one.  No room exceeds the budget, so given
    x_0..x_(j-1), x_j lies among the x with |W_j x + p| <= isqrt(budget // K_j)
    for its p: at most n_j = 2*isqrt(budget // K_j) // W_j + 1 values.  Given
    x_0..x_(i-1), the spend is a quadratic in x_i with leading coefficient
    K_i W_i^2 > 0, which takes s at most twice.  So at most 2 n_0 ... n_(i-1)
    prefixes spend s, and i <= l - 1 bounds every count by
    2 n_0 ... n_(l-2) max|weight|: the fold's window counts whole points, a
    factor n_(l-2) beyond the rows.  Under 4k+1,
    |x_0| <= (isqrt(budget // K_0) + |w0_0|) // W_0 bounds the weight.
    """
    bound = 2
    for k, w in zip(form.K[:-1], form.W[:-1]):
        bound *= 2 * isqrt(budget // k) // w + 1
    if weight == WEIGHT_FOUR_K_PLUS_ONE and form.K:
        reach = (isqrt(budget // form.K[0]) + abs(form.w0[0])) // form.W[0]
        bound *= 4 * reach + 1
    return bound


def _scatter(form: _ScaledForm, weight, budget: int, w: int) -> dict[tuple[int, int], list[int]]:
    """The fold's groups of a dimension-3 walk, scattered from its (x_0, x_1)
    pairs one count at a time (see _walk): (r, s0 mod step) -> [s0, packed].

    Its one in-place add is the list add, once per pair, which the tests
    count.
    """
    (k0, k1, _), (w0, w1, wl), (_, c1, cl), (t0, t1, tl) = form.K, form.W, form.w_prev, form.w0
    step = form.sigma * form.stride
    slots = budget // step + 1
    tallies: dict[tuple[int, int], list] = {}
    for x0 in _level_range(k0, w0, t0, budget):
        v = w0 * x0 + t0
        paid = k0 * v * v
        count = 1 if weight is None else _weight_value(weight, (x0,))
        p = t1 + c1 * x0
        for x1 in _level_range(k1, w1, p, budget - paid):
            v = w1 * x1 + p
            cost = paid + k1 * v * v
            key = ((tl + cl * x1) % wl, cost % step)
            tally = tallies.get(key)
            if tally is None:
                tally = tallies[key] = [cost, [0] * slots]
            elif cost < tally[0]:
                tally[0] = cost
            tally[1][cost // step] += count
    return {key: [s0, _pack(counts[s0 // step :], w)] for key, (s0, counts) in tallies.items()}


def _walk(form: _ScaledForm, weight, units: int) -> QSeries:
    """The one lattice engine: walk a _ScaledForm through units grid slots.

    The form expands through the bound floor(units/grid), on its grid,
    weighted by the weight shape (None for plain counts); every quantity is
    a plain int.  A transfer-matrix walk.  After level i < l - 1 it keeps,
    for each value of x_i, a row: the weighted number of prefixes x_0..x_i
    spending each amount of the budget on levels 0..i.  The square at level
    i+1 depends only on x_i, so prefixes agreeing on x_i and the spend merge
    and no point is visited one by one.  The last level is a fold (below).

    A row is a pair [s0, packed] (Kronecker substitution; Harvey, J. Symb.
    Comput. 44, 2009): slot j of packed, w bits wide, counts the prefixes
    spending s0 + sigma*stride*j, s0 the least spend that reached the row.
    Residue: the squares after level i read only x_i onwards, so two prefixes
    with the same x_i, completed alike, spend amounts that differ by sigma
    times the difference of the integer chain grid*E at the two points.  Only
    the chain's terms in x_0..x_(i-1) differ: a_j x_j^2 + l_j x_j =
    a_j (x_j^2 - x_j) + (a_j + l_j) x_j with x_j^2 - x_j even, and
    b_j x_j x_(j+1); so the difference is a multiple of stride, the gcd of
    2a_j, a_j + l_j and b_j over j < l - 1, at every level at once.  Width:
    no count exceeds _count_bound, so balanced signed slots with that bound
    under 2^(w-1) never carry; packed is exactly sum_j c_j 2^(w*j), and its
    top nonzero slot is packed.bit_length() // w.

    Each value x_(i+1) is priced once per predecessor row: its range is taken
    at s0, the slots whose spend leaves room for the square are kept by one
    mask, and the kept part is shifted into the successor's row with one
    add.  The mask leaves the kept slots' sum modulo 2^bits, so a part whose
    top bit is set holds a negative top slot and gets 2^bits subtracted.  The
    weight shape reads the first coordinate, so it multiplies the one-slot
    rows after level 0, or at l = 1 each term of the fold (the empty point of
    l = 0 weighs 1 under every shape).

    Fold: the last square is K (W x + p)^2 with p = w0 + w_prev x_(l-2), and
    x runs over Z, so the values W x + p are the progression W y + r,
    r = p mod W, and the sum over x_(l-1) multiplies a row by the theta
    Theta_r = sum_y z^(K (W y + r)^2), the same for every row whose p agrees
    mod W.  Rows with the same r whose s0 also agree mod step merge into one
    group, aligned by s0 like a row, and each group times its Theta goes into
    one accumulator per window residue mod stride.  Theta is sparse, about
    2 sqrt(budget/K)/W terms over budget/step slots, so the group is shifted
    in once per term of Theta (within the budget left at its s0): that
    measured several times cheaper than one multiply by Theta packed.  A
    one-slot group, as every group of l = 1 is, adds its count straight into
    the window.  At l = 1 the one group, the empty prefix, keys by p itself,
    since each term's weight reads x_0.  The fold needs
    no masks: an accumulator's slots above the budget count spends no bound
    covers and may overflow, but the accumulator is exactly sum_j A_j 2^(w*j)
    with integer A_j, carries move only up, and its low n slots, read by
    _cut as its residue mod 2^(w*n), are window counts under the bound.  One
    _unpack per accumulator then fills the window.

    Least slot: every s0 is a spend some prefix reaches, weighted or not (a
    value enters only if its square fits at s0, and masks keep slot 0), and
    the cheapest term of Theta_r, K min(r, W - r)^2, completes a point, so
    the least (base + s0 + that cost) // sigma over the groups is the
    cheapest point of all, even where weights cancel.  When it lies within
    units, the walk records it on the form as least.

    Scatter (l = 3, _scatter): level 1 reads level 0's rows, which hold one
    count each, and its rows go straight to the fold, so the walk builds
    the fold's groups from the (x_0, x_1) pairs and builds no row and no
    mask.  For each x_0 it takes the spend K_0 v^2 and the count (1, or the
    weight of x_0); for each x_1 in its range at that spend it adds the
    count into a plain list for the key ((w0_2 + w_prev_2 x_1) mod W_2,
    spend mod step), at index spend // step, and keeps the key's least
    spend; each group's list is then packed once at width w.  The sums are
    the row path's: a one-slot row gives each pair exactly one count in
    x_1's row, and the fold merges rows by that same key; within a group
    every spend agrees mod step, so spend // step gives distinct slots;
    x_1's range is taken at the exact spend of its source, so every
    scattered spend is within the budget and no mask is needed; each
    group's least spend is a spend some prefix reaches, as s0 was, so lo
    is the same even where weights cancel; and the group counts are the
    sums the merged rows held, so _count_bound's width still fits them.
    A pair costs one list add where it cost a shift and add of a row of up
    to budget/step slots, so the level goes from quadratic in the order to
    linear.  At l = 2 too few counts share a group to pay for a list and a
    pack, and a scatter of level 1 into per-row lists for l >= 4 measured
    slower than the rows, so every other dimension takes the row path.
    """
    grid, sigma, base = form.grid, form.sigma, form.base
    budget = sigma * units - base
    if budget < 0:
        return _series(grid, units, (0,), units)
    if not form.K:
        # the empty point weighs 1 under every shape
        lo = base // sigma
        object.__setattr__(form, "least", lo)
        return _series(grid, lo, (1,) + (0,) * (units - lo), units)
    step = sigma * form.stride
    w = _slot_width(_count_bound(form, weight, budget))
    last = len(form.K) - 1
    kl, wl, cl, tl = form.K[last], form.W[last], form.w_prev[last], form.w0[last]
    if last == 2:
        groups = _scatter(form, weight, budget, w)
    else:
        rows: dict[int, list[int]] = {0: [0, 1]}
        for i in range(last):
            ki, wi, ci, ti = form.K[i], form.W[i], form.w_prev[i], form.w0[i]
            nxt: dict[int, list[int]] = {}
            for prev, (s0, packed) in rows.items():
                pi = ti + ci * prev
                top = budget - s0
                # every slot fits under a square costing at most full
                full = top - packed.bit_length() // w * step
                for xi in _level_range(ki, wi, pi, top):
                    v = wi * xi + pi
                    cost = ki * v * v
                    part = packed
                    if cost > full:
                        bits = ((top - cost) // step + 1) * w
                        part &= (1 << bits) - 1
                        if part >> (bits - 1):
                            part -= 1 << bits
                    spend = s0 + cost
                    row = nxt.get(xi)
                    if row is None:
                        nxt[xi] = [spend, part]
                    elif spend >= row[0]:
                        row[1] += part << (spend - row[0]) // step * w
                    else:
                        row[1] = (row[1] << (row[0] - spend) // step * w) + part
                        row[0] = spend
            rows = nxt
            if i == 0 and weight is not None:
                for xi, row in rows.items():
                    row[1] *= _weight_value(weight, (xi,))
        # rows whose p agree mod wl meet the same values of the last square;
        # those whose spends also agree mod step merge into one group
        groups: dict[tuple[int, int], list[int]] = {}
        for prev, (s0, packed) in rows.items():
            p = tl + cl * prev
            key = (p % wl if last else p, s0 % step)
            row = groups.get(key)
            if row is None:
                groups[key] = [s0, packed]
            elif s0 >= row[0]:
                row[1] += packed << (s0 - row[0]) // step * w
            else:
                row[1] = (row[1] << (row[0] - s0) // step * w) + packed
                row[0] = s0
    lo = min(((base + s0 + kl * min(p % wl, -p % wl) ** 2) // sigma
              for (p, _), (s0, _) in groups.items()), default=units + 1)
    if lo > units:
        return _series(grid, units, (0,), units)
    object.__setattr__(form, "least", lo)
    stride = form.stride
    n = units - lo + 1
    window = [0] * n
    acc = [0] * stride
    for (p, _), (s0, packed) in groups.items():
        # a group of one slot, |packed| < 2^(w-1), adds straight into the window
        one = packed.bit_length() < w
        for x in _level_range(kl, wl, p, budget - s0):
            v = wl * x + p
            f = (base + s0 + kl * v * v) // sigma - lo
            part = packed if last else _weight_value(weight, (x,))
            if one:
                window[f] += part
            else:
                acc[f % stride] += part << f // stride * w
    for r, a in enumerate(acc):
        if a:
            k = len(range(r, n, stride))
            window[r::stride] = map(add, window[r::stride], _unpack(_cut(a, 0, k, w), k, w))
    # weights may cancel at lo, so _window strips the window's leading zeros
    return _window(grid, lo, window, units)


def lattice_sum_series(s: LatticeSum, bound: RationalLike) -> QSeries:
    """Expand a LatticeSum as a QSeries, correct through the bound.

    Coefficient at each exponent is the number of lattice points reaching it,
    weighted when the sum carries a weight shape.  Positive-definiteness of
    the exponent function makes every coefficient a finite count.
    """
    t, form = as_rational(bound), s._form
    return _walk(form, s.weight, t.numerator * form.grid // t.denominator)


def lattice_sum_above(s: LatticeSum, order: RationalLike) -> tuple[Fraction, QSeries]:
    """The exact minimum exponent, lead, and the expansion through lead + order.

    Rounding each completed square in turn, level 0 first, picks the point
    whose x_i is the integer nearest -p_i / W_i, p_i = w0_i + w_prev_i x_(i-1)
    (Babai's nearest plane).  Its exponent is attained, so it bounds the
    minimum, and every square it leaves is at most K_i W_i^2 / 4, so it is
    at most Babai's bound cstar + sum(d_i)/4, where sigma*grid*cstar = base
    and sigma*grid*d_i = K_i W_i^2; on 484 of the 489 lattice sides the
    benchmark workloads build it is the minimum itself.  So one walk through
    that exponent plus the order, via lattice_sum_series like every
    expansion, reaches the minimum, its least slot whatever the weight (see
    _walk), and lead + order, cut there (to 0 if order < 0).
    """
    form, t = s._form, as_rational(order)
    units = _nearest_plane(form) + max(t.numerator, 0) * form.grid // t.denominator
    series = lattice_sum_series(s, Fraction(units, form.grid))
    lead = Fraction(form.least, form.grid)
    return lead, series.truncated(lead + t)


def _nearest_plane(form: _ScaledForm) -> int:
    """The grid slot of the nearest-plane point of lattice_sum_above."""
    spend, prev = form.base, 0
    for k, w, c, t in zip(form.K, form.W, form.w_prev, form.w0):
        p = t + c * prev
        prev = (w // 2 - p) // w
        spend += k * (w * prev + p) ** 2
    # sigma*grid*E is an integer multiple of sigma at every lattice point
    return spend // form.sigma
