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
floor(t*grid), because every exponent lies on the grid.  One engine, one
walk, expands every lattice series from that form.  It keeps weighted
counts by budget spent in the slots of packed ints, so it visits no point
one by one, and the slots' width is proved from the form.

The walk is a transfer-matrix walk over residues.  The suffix theta of
levels i..l-1 depends on the prefix only through p_i, the offset of the
square at level i, modulo a period P_i read off the form; so the walk
builds one theta per residue that a prefix reaches, from the last level
back, each a sum of shift-adds of the next level's thetas, and its work
per level does not grow with the number of values of the coordinate
before.  Suffixes after one prefix spend amounts congruent modulo sigma
times the chain's stride, so every theta of the walk is packed at that one
step, down from the greatest such spend within the budget the least prefix
reaching its residue leaves: a child lands in its parent by one shift,
which drops the child's slots above the parent's budget, and every slot is
at most a window count.  A one-dimensional chain has one residue and every
term is a point, so its walk adds each term straight into the window.

Both routes of qchar.affine and the identities build their LatticeSums as
integer chains.  A LatticeSum completes its squares once, on first use,
and every public entry point walks that one form, once: lattice_sum_series
through any bound, lattice_sum_above through a nearest-plane point's
exponent plus an order, reading the exact minimum exponent off that walk's
least slot.  No floating point, and no Fraction between a chain's entries
and its walk's slots; the tests check the walk against a box-scan oracle
and a dict-of-spends walk, and the completion against a Fraction one.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd, isqrt, lcm
from operator import mul
from typing import Optional

from .qseries import (
    QSeries,
    RationalLike,
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
    lands in grid slot (base + spend) // sigma exactly.  The suffix spends
    of levels i..l-1 share a residue mod sigma*stride, one step for every
    level, and depend on the prefix only through
    p_i = w0_i + w_prev_i x_(i-1) mod periods[i] (see _walk_residues).
    least, set by any walk that reaches a point, is grid*min(E).
    """

    grid: int
    sigma: int
    base: int
    K: tuple[int, ...]
    W: tuple[int, ...]
    w_prev: tuple[int, ...]
    w0: tuple[int, ...]
    stride: int
    periods: tuple[int, ...]


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
    x = 0 instead.  stride, the gcd of 2a_j, a_j + l_j and b_j over the
    whole chain, and periods[i] = P_i, with P_(l-1) = W_(l-1) and
    P_i = W_i P_(i+1) / gcd(w_prev_(i+1), P_(i+1)), step and key the walk's
    thetas (see _walk_residues).  Raises if any pivot fails to be
    positive.
    """
    n = len(a)
    W, w_prev, w0, squares = [0] * n, [0] * n, [0] * n, [0] * n
    periods = [0] * n
    m = s = sigma = 1
    da = dl = stride = 0
    for i in range(n - 1, -1, -1):
        stride = gcd(stride, 2 * a[i], a[i] + l[i], b[i - 1] if i else 0)
        ai, li = s * a[i] + da, s * l[i] + dl
        if ai <= 0:
            raise ValueError("indefinite exponent function")
        bi = s * b[i - 1] if i else 0
        m, s = m * 4 * ai, s * 4 * ai
        h = gcd(2 * ai, bi, li)
        W[i], w_prev[i], w0[i] = 2 * ai // h, bi // h, li // h
        up, c_up = (periods[i + 1], w_prev[i + 1]) if i + 1 < n else (1, 0)
        periods[i] = W[i] * (up // gcd(c_up, up))
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
    return _ScaledForm(grid, sigma, base, K, tuple(W), tuple(w_prev), tuple(w0),
                       stride, tuple(periods))


def _level_range(k: int, w: int, p: int, budget: int) -> range:
    """All x with k * (w*x + p)^2 <= budget."""
    r = isqrt(budget // k)
    return range(-((r + p) // w), (r - p) // w + 1)


def _count_bound(form: _ScaledForm, weight, budget: int) -> int:
    """A bound on the magnitude of every count a walk through budget keeps.

    Every count the walk keeps, in a theta's slot, in a partial sum of one
    or in the window, weighs points within the budget that spend one
    amount s, at most max|weight| each (see _walk_residues).  No room
    exceeds the budget, so given x_0..x_(j-1), x_j lies among the x with
    |W_j x + p| <= isqrt(budget // K_j) for its p: at most
    n_j = 2*isqrt(budget // K_j) // W_j + 1 values.  Given x_0..x_(l-2), the
    spend is a quadratic in x_(l-1) with leading coefficient
    K_(l-1) W_(l-1)^2 > 0, which takes s at most twice.  So at most
    2 n_0 ... n_(l-2) points spend s, and max|weight| times that bounds
    every count.  Under 4k+1, |x_0| <= (isqrt(budget // K_0) + |w0_0|) // W_0
    bounds the weight.
    """
    bound = 2
    for k, w in zip(form.K[:-1], form.W[:-1]):
        bound *= 2 * isqrt(budget // k) // w + 1
    if weight == WEIGHT_FOUR_K_PLUS_ONE and form.K:
        reach = (isqrt(budget // form.K[0]) + abs(form.w0[0])) // form.W[0]
        bound *= 4 * reach + 1
    return bound


def _walk(form: _ScaledForm, weight, units: int) -> QSeries:
    """The one lattice engine: walk a _ScaledForm through units grid slots.

    The form expands through the bound floor(units/grid), on its grid,
    weighted by the weight shape (None for plain counts); every quantity is
    a plain int.  Counts are packed (Kronecker substitution; Harvey, J.
    Symb. Comput. 44, 2009) in balanced slots of one width w, from
    _count_bound: every count the walk keeps lies under it, so slots under
    2^(w-1) never carry.  w is _slot_width's, the fewest whole bytes, as
    for every packed int: _unpack decodes 8, 16, 32 or 64 bits through one
    array, and the whole bytes between and above them by byte planes.  The
    walk is _walk_residues: at level i it keeps one theta per residue of p_i
    mod P_i that a prefix reaches, at most P_i / gcd(w_prev_i, P_i) of them
    however high the order, and pays one shift-add per value of x_i in
    range at each, every theta at one step.
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
    return _walk_residues(form, weight, units, budget, _slot_width(_count_bound(form, weight, budget)))


def _walk_residues(form: _ScaledForm, weight, units: int, budget: int, w: int) -> QSeries:
    """The walk of _walk, through budget in w-bit slots, l >= 1.

    With p_i = w0_i + w_prev_i x_(i-1) (p_0 = w0_0), level i spends
    K_i (W_i x_i + p_i)^2, so the suffix theta of levels i..l-1,
    T_i(p) = sum over x_i..x_(l-1) of z^(sum_(j>=i) K_j (W_j x_j + p_j)^2),
    depends on the prefix only through p = p_i, and
    T_i(p) = sum_x z^(K_i (W_i x + p)^2) T_(i+1)(w0_(i+1) + w_prev_(i+1) x),
    with T_l = 1.  The walk's series is sum_(x_0) weight(x_0)
    z^(K_0 (W_0 x_0 + w0_0)^2) T_1(p_1): the weight reads x_0 itself, so
    level 0 sums x_0 last, at p_0 = w0_0, and applies it there.

    Periodicity: T_i(p + P_i) = T_i(p), P_(l-1) = W_(l-1) and
    P_i = W_i P_(i+1) / gcd(w_prev_(i+1), P_(i+1)).  The map
    x_i -> x_i - P_i/W_i is a bijection of Z that keeps W_i x_i + p_i when
    p_i grows by P_i, so level i spends alike, and it moves
    p_(i+1) by -w_prev_(i+1) P_(i+1) / gcd(w_prev_(i+1), P_(i+1)), a
    multiple of P_(i+1), so by induction from the last level (where the map
    is x -> x - 1) the suffix sums alike.  So the walk keeps one theta per
    residue r of p_i mod P_i, and the level's work does not grow with the
    number of values of x_(i-1): one per residue, at most P_i /
    gcd(w_prev_i, P_i) of them.

    Reached residues: a small-int pass from level 0 forward takes, for each
    residue r that some prefix x_0..x_(i-1) within the budget reaches, the
    least spend s_r of such a prefix, and keeps r's terms, one
    (level-i spend, p_(i+1) mod P_(i+1), x) per x in range at r; the
    periodicity makes them the same for every p_i in r's class.  The pass
    runs through the last level, whose terms all lead to the empty suffix,
    so it reaches that one residue at the least spend of any point.

    Thetas: from the last level back, T_i(r) is a pair (top, packed), with
    one step = sigma*stride for every level and room = budget - s_r: top is
    the greatest spend of r's class mod step that is at most room, and slot
    j of packed counts the suffixes spending top - step*j.  It is the sum
    over r's terms of T_(i+1)(rho) moved by the level's spend, one shift per
    term: a child (ctop, p) of a term of cost c spends c + ctop at its slot
    0, d = (room - c - ctop) // step slots below top (exactly, as top and
    c + ctop share a class), so p lands by p << d*w, or by p >> -d*w when
    d < 0, which drops exactly the child's slots above room.  Any term with
    a child fixes top = room - (room - c - ctop) % step.  A child that
    shifts to 0 completes no point and is skipped, so the walk adds once per
    completing term, and a residue whose sum is 0 keeps no theta.  A child
    was kept through budget - s_rho >= room - c, since r's least prefix and
    x reach rho, so every slot the parent keeps is exact.  At l = 1 there
    is one residue and every term is a point, so each term's weight goes
    straight into the window instead, with no forward pass, pack or
    _unpack.

    Stride: two suffixes from one prefix spend amounts that differ by sigma
    times the difference of the integer chain grid*E, whose differing terms
    are a_j x_j^2 + l_j x_j = a_j (x_j^2 - x_j) + (a_j + l_j) x_j for j >= i
    and b_j x_j x_(j+1) for j >= i - 1 (x_(i-1) is fixed); so every spend
    of T_i(r), which by periodicity is the suffix sum of any real prefix
    reaching r, is congruent to top mod sigma times the gcd of 2a_j,
    a_j + l_j (j >= i) and b_j (j >= i - 1).  stride, that gcd over the
    whole chain, divides it at every level, so one step = sigma*stride
    holds for every theta, and a child lands in its parent's slots as it
    is.  The step is the window's too: every point's exponent lies on the
    grid, so the root's spends base + top - step*j land in grid slots
    hi - stride*j, hi = (base + top) // sigma.

    Width: the thetas of levels i >= 1 are unweighted, so every slot of
    T_i(r), and any partial sum of it, counts suffixes that complete r's
    least prefix to points within room that spend one amount, at most one
    window count under no weight, which _count_bound bounds.  Their slots
    lie in [0, 2^(w-1)), so no borrow crosses a slot, and a shift moves or
    drops whole slots exactly.  Level 0 multiplies each child by its weight
    after the shift, never before, so its weighted slots and partial sums
    are at most max|weight| times that.  So _count_bound's width holds.

    Least slot: the forward pass reaches the empty suffix at the least spend
    of any point within the budget, whatever the weights, so
    lo = (base + that spend) // sigma is grid*min(E) whenever some point
    lies within units, even where weights cancel, and the walk records it on
    the form.  The root's slots run from grid slot hi down to lo, so the
    walk unpacks (hi - lo) // stride + 1 of them and reverses them into
    the window; a root whose weights cancel in every slot keeps no theta,
    and its window is zero.  At l = 1 the least spend is the cheapest
    term's, K_0 min(p mod W_0, -p mod W_0)^2 at p = w0_0.
    """
    K, W, c, t = form.K, form.W, form.w_prev, form.w0
    sigma, stride, P, last = form.sigma, form.stride, form.periods, len(K) - 1
    if not last:
        # one level: every term is a point, added straight into the window
        k, wi, p = K[0], W[0], t[0]
        lo = (form.base + k * min(p % wi, -p % wi) ** 2) // sigma
        if lo > units:
            return _series(form.grid, units, (0,), units)
        object.__setattr__(form, "least", lo)
        window = [0] * (units - lo + 1)
        for x in _level_range(k, wi, p, budget):
            v = wi * x + p
            window[(form.base + k * v * v) // sigma - lo] += _weight_value(weight, (x,))
        # weights may cancel at lo, so _window strips the window's leading zeros
        return _window(form.grid, lo, window, units)
    # forward: each reached residue's least prefix spend, and its terms
    reach: list[dict[int, int]] = [{t[0]: 0}]
    levels: list[dict[int, list[tuple[int, int, int]]]] = []
    for i in range(last + 1):
        ki, wi = K[i], W[i]
        cn, tn, pn = (c[i + 1], t[i + 1], P[i + 1]) if i < last else (0, 0, 1)
        nxt: dict[int, int] = {}
        level = {}
        for r, s in reach[i].items():
            terms = level[r] = []
            for x in _level_range(ki, wi, r, budget - s):
                v = wi * x + r
                cost = ki * v * v
                rho = (tn + cn * x) % pn
                terms.append((cost, rho, x))
                spend = s + cost
                if nxt.get(rho, budget + 1) > spend:
                    nxt[rho] = spend
        reach.append(nxt)
        levels.append(level)
    if not reach[-1]:
        return _series(form.grid, units, (0,), units)
    lo = (form.base + reach[-1][0]) // sigma
    object.__setattr__(form, "least", lo)
    thetas: dict[int, tuple[int, int]] = {0: (0, 1)}  # T_l, the empty suffix
    step = sigma * stride
    for i in range(last, -1, -1):
        weighted = i == 0 and weight is not None
        seen, nxt = reach[i], {}
        for r, terms in levels[i].items():
            room, acc = budget - seen[r], 0
            for cost, rho, x in terms:
                child = thetas.get(rho)
                if child:
                    top, packed = child
                    spend = cost + top
                    # the child lands d slots down; d < 0 drops its slots above the room
                    d = (room - spend) // step
                    packed = packed << d * w if d >= 0 else packed >> -d * w
                    if packed:
                        if weighted:
                            packed *= _weight_value(weight, (x,))
                        acc += packed
            if acc:
                # every child's spend lies in r's class, so the last one fixes top
                nxt[r] = (room - (room - spend) % step, acc)
        thetas = nxt
    root = thetas.get(t[0])
    if root is None:  # weights cancelled in every slot
        return _series(form.grid, units, (0,), units)
    # the root's slots run down from grid slot hi to lo, the cheapest point's
    hi = (form.base + root[0]) // sigma
    window = [0] * (units - lo + 1)
    window[: hi - lo + 1 : stride] = _unpack(root[1], (hi - lo) // stride + 1, w)[::-1]
    return _window(form.grid, lo, window, units)


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
    and sigma*grid*d_i = K_i W_i^2; on 456 of the 461 lattice sides the
    benchmark workloads build it is the minimum itself.  So one walk through
    that exponent plus the order, via lattice_sum_series like every
    expansion, reaches the minimum, its least slot whatever the weight (see
    _walk_residues), and lead + order, cut there (to 0 if order < 0).
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
