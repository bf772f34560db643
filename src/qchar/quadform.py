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
every lattice series from that form, along one of two paths that give the
same window; both keep weighted counts by budget spent in the slots of
packed ints, so neither visits points one by one, and the slots' width is
proved from the form.

The row path is a transfer-matrix walk that keeps, per value of the current
coordinate, one packed row, and prices each value of the next coordinate
once per value of the current one.  A row's spends share a residue modulo
sigma times the chain's stride, so its slots step by that much; masks,
shifts and adds on whole rows replace per-spend merges.  The last coordinate
is folded: rows that meet the same one-dimensional theta of the last square
merge, each group is shifted into one accumulator once per term of its
theta, and the window unpacks once.

The residue path extends that observation to the whole tail of the chain.
The suffix theta of levels i..l-1 depends on the prefix only through p_i,
the offset of the square at level i, modulo a period P_i read off the
form; so it builds one theta per residue that a prefix reaches, from the
last level back, each a sum of shift-adds of the next level's thetas, and
its work per level does not grow with the number of values of the
coordinate before.  Suffixes after one prefix spend amounts congruent
modulo sigma times the suffix's own stride, so each theta is packed at
that stride; each is cut at the budget the least prefix reaching its
residue leaves, so every slot it keeps is at most a window count, and the
rows' width bound holds for it too.  _walk picks the path per walk from a cost estimate read off the form and
the budget: short walks and one-dimensional ones take the rows, long
high-dimensional ones the residues (see _walk).

Both routes of qchar.affine and the identities build their LatticeSums as
integer chains.  A LatticeSum completes its squares once, on first use,
and every public entry point walks that one form, once: lattice_sum_series
through any bound, lattice_sum_above through a nearest-plane point's
exponent plus an order, reading the exact minimum exponent off that walk's
least slot.  No floating point, and no Fraction between a chain's entries
and its walk's slots; the tests check each path against a box-scan oracle
and a dict-of-spends walk, and the completion against a Fraction one.
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
    sigma*stride (see _walk_rows), so a walk's rows step stride grid slots.
    The residue walk reads the last two fields: the suffix spends of levels
    i..l-1 share a residue mod sigma*strides[i], and depend on the prefix
    only through p_i = w0_i + w_prev_i x_(i-1) mod periods[i] (see
    _walk_residues).  least, set by any walk that reaches a point, is
    grid*min(E) (see either path).
    """

    grid: int
    sigma: int
    stride: int
    base: int
    K: tuple[int, ...]
    W: tuple[int, ...]
    w_prev: tuple[int, ...]
    w0: tuple[int, ...]
    strides: tuple[int, ...]
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
    x = 0 instead.  stride, the gcd of 2a_j, a_j + l_j and b_j over every
    coordinate but the last, steps a walk's rows (see _walk_rows); strides[i],
    the gcd of 2a_j and a_j + l_j over j >= i and of b_j over j >= i - 1, and
    periods[i] = P_i, with P_(l-1) = W_(l-1) and
    P_i = W_i P_(i+1) / gcd(w_prev_(i+1), P_(i+1)), step and key the residue
    walk's thetas (see _walk_residues).  Raises if any pivot fails to be
    positive.
    """
    # 1 when no coordinate but the last exists: every row then holds one spend
    stride = gcd(2 * gcd(*a[:-1]), *map(add, a[:-1], l), *b) or 1
    n = len(a)
    W, w_prev, w0, squares = [0] * n, [0] * n, [0] * n, [0] * n
    strides, periods = [0] * n, [0] * n
    m = s = sigma = 1
    da = dl = suffix = 0
    for i in range(n - 1, -1, -1):
        suffix = strides[i] = gcd(suffix, 2 * a[i], a[i] + l[i], b[i - 1] if i else 0)
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
    return _ScaledForm(grid, sigma, stride, base, K, tuple(W), tuple(w_prev), tuple(w0),
                       tuple(strides), tuple(periods))


def _level_range(k: int, w: int, p: int, budget: int) -> range:
    """All x with k * (w*x + p)^2 <= budget."""
    r = isqrt(budget // k)
    return range(-((r + p) // w), (r - p) // w + 1)


def _level_counts(form: _ScaledForm, budget: int) -> list[int]:
    """n_i = 2*isqrt(budget // K_i) // W_i + 1, at least the values of x_i
    whose square fits the budget at any p."""
    return [2 * isqrt(budget // k) // w + 1 for k, w in zip(form.K, form.W)]


def _count_bound(form: _ScaledForm, weight, budget: int) -> int:
    """A bound on the magnitude of every count a walk through budget keeps.

    Every count the walk keeps, in a row, a group or the window, weighs
    prefixes x_0..x_i that spend one amount s, at most max|weight| each, and
    so does every partial sum of one.  No room exceeds the budget, so given
    x_0..x_(j-1), x_j lies among the x with |W_j x + p| <= isqrt(budget // K_j)
    for its p: at most n_j (_level_counts) values.  Given x_0..x_(i-1), the
    spend is a quadratic in x_i with leading coefficient K_i W_i^2 > 0,
    which takes s at most twice.  So at most 2 n_0 ... n_(i-1) prefixes spend
    s, and i <= l - 1 bounds every count by 2 n_0 ... n_(l-2) max|weight|:
    the fold's window counts whole points, a factor n_(l-2) beyond the rows.
    The residue walk's thetas keep no more (see _walk_residues).  Under 4k+1,
    |x_0| <= (isqrt(budget // K_0) + |w0_0|) // W_0 bounds the weight.
    """
    bound = 2
    for n in _level_counts(form, budget)[:-1]:
        bound *= n
    if weight == WEIGHT_FOUR_K_PLUS_ONE and form.K:
        reach = (isqrt(budget // form.K[0]) + abs(form.w0[0])) // form.W[0]
        bound *= 4 * reach + 1
    return bound


def _walk_width(bound: int) -> int:
    """The walk's slot width for counts up to bound: _slot_width's 8, 16, 32
    or 64 bits, and above 64 the fewest whole bytes with bound < 2^(w-1)."""
    need = bound.bit_length() + 1
    return _slot_width(bound) if need <= 64 else -(-need // 8) * 8


# what a residue step costs beyond its shift-add, in slots shifted (see _walk)
_STEP_SLOTS = 60


def _residues_pay(form: _ScaledForm, budget: int) -> bool:
    """Whether _walk takes the residue path:
    sum R_i n_i (N + _STEP_SLOTS) < sum n_(i-1) n_i N."""
    n = _level_counts(form, budget)
    rows = residues = n[0]
    for i in range(1, len(n)):
        period = form.periods[i]
        rows += n[i - 1] * n[i]
        residues += min(period // gcd(form.w_prev[i], period), n[i - 1]) * n[i]
    slots = budget // (form.sigma * form.stride) + 1
    return residues * (slots + _STEP_SLOTS) < rows * slots


def _walk(form: _ScaledForm, weight, units: int) -> QSeries:
    """The one lattice engine: walk a _ScaledForm through units grid slots.

    The form expands through the bound floor(units/grid), on its grid,
    weighted by the weight shape (None for plain counts); every quantity is
    a plain int.  Counts are packed (Kronecker substitution; Harvey, J.
    Symb. Comput. 44, 2009) in balanced slots of one width w, from
    _count_bound: every count either path keeps lies under it, so slots
    under 2^(w-1) never carry.  Up to 64 bits w is 8, 16, 32 or 64, above
    that the fewest whole bytes (_walk_width), which _unpack decodes.

    Two paths expand the same window, slot for slot, and record the same
    least slot.  _walk_rows keeps one row per value of the current
    coordinate, and pays about n_(i-1) n_i shift-adds at level i, n_i the
    values of x_i (_level_counts, n_(-1) = 1); the fold already merges its
    last level by residue.  _walk_residues keeps one theta per residue of
    p_i mod P_i that a prefix reaches, and pays about R_i n_i,
    R_i = min(P_i / gcd(w_prev_i, P_i), n_(i-1)) with R_0 = 1, plus a
    small-int pass of as many steps.  R_i stays bounded as the order grows,
    while n_(i-1) grows like its square root.

    _residues_pay reads both sums off the form and the budget, with no walk,
    and takes the residue path when
    sum R_i n_i (N + _STEP_SLOTS) < sum n_(i-1) n_i N, N = budget //
    (sigma*stride) + 1 the slots of a full row: a shift-add costs about its
    slots, and a residue step adds a small-int step and its bookkeeping,
    worth about _STEP_SLOTS = 60 slots.  So short walks need a low ratio
    (about 1/2 at N = 60) and long ones approach the bare ratio.  At l = 1
    the sums are equal, so one-dimensional walks take the rows.  The
    constant was fitted on Python 3.11.7 (2 cores, x86-64), each walk timed
    by both paths, best of 5-9: over the 360 walks of the sweep (order 30)
    with l >= 2, rows 35.1 ms; the rule 32.0 ms (48 walks on residues); a
    bare ratio under 1/2 31.8 ms, but it kept class1 m = 5 at 800 (ratio
    0.60, residues 0.60x the rows), m = 4 at 200 (0.77, 0.87x) and m = 2 at
    80 (0.52, 0.87x) on the rows; 30 slots sent (3,4), k = 2, at 100 (ratio
    0.72, 1.47x) and class1 m = 3 at 100 (0.74, 1.13x) to the residues, and
    80 kept class1 m = 2 at 80 and m = 4 at 200 on the rows.  Among 45 walks
    of the families and frontier orders (order 30-4000, l = 2-19) the rule
    picks the faster path wherever the two differ by more than 10%: class1
    m = 3 at 56 (ratio 0.84, 1.22x) and m = 4 at 100 (0.86, 1.26x) stay on
    the rows, class1 m = 1-2 and class2 m = 1-2 at the families' orders
    take the residues.
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
    w = _walk_width(_count_bound(form, weight, budget))
    path = _walk_residues if _residues_pay(form, budget) else _walk_rows
    return path(form, weight, units, budget, w)


def _walk_rows(form: _ScaledForm, weight, units: int, budget: int, w: int) -> QSeries:
    """The row walk of _walk, through budget in w-bit slots, l >= 1.

    A transfer-matrix walk.  After level i < l - 1 it keeps, for each value
    of x_i, a row: the weighted number of prefixes x_0..x_i spending each
    amount of the budget on levels 0..i.  The square at level i+1 depends
    only on x_i, so prefixes agreeing on x_i and the spend merge and no
    point is visited one by one.  The last level is a fold (below).

    A row is a pair [s0, packed]: slot j of packed counts the prefixes
    spending s0 + sigma*stride*j, s0 the least spend that reached the row.
    Residue: the squares after level i read only x_i onwards, so two prefixes
    with the same x_i, completed alike, spend amounts that differ by sigma
    times the difference of the integer chain grid*E at the two points.  Only
    the chain's terms in x_0..x_(i-1) differ: a_j x_j^2 + l_j x_j =
    a_j (x_j^2 - x_j) + (a_j + l_j) x_j with x_j^2 - x_j even, and
    b_j x_j x_(j+1); so the difference is a multiple of stride, the gcd of
    2a_j, a_j + l_j and b_j over j < l - 1, at every level at once.  Width:
    no count exceeds _count_bound, so packed is exactly sum_j c_j 2^(w*j),
    and its top nonzero slot is packed.bit_length() // w.

    Each value x_(i+1) is priced once per predecessor row: its range is taken
    at s0, the slots whose spend leaves room for the square are kept by one
    mask, and the kept part is shifted into the successor's row with one
    add.  The mask leaves the kept slots' sum modulo 2^bits, so a part whose
    top bit is set holds a negative top slot and gets 2^bits subtracted.  The
    weight shape reads the first coordinate, so it multiplies the one-slot
    rows after level 0, or at l = 1 each term of the fold.

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
    """
    grid, sigma, base = form.grid, form.sigma, form.base
    step = sigma * form.stride
    last = len(form.K) - 1
    kl, wl, cl, tl = form.K[last], form.W[last], form.w_prev[last], form.w0[last]
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


def _spread(packed: int, n: int, k: int, w: int) -> int:
    """The n w-bit slots of packed, slot j moved to slot k*j."""
    slots = [0] * (k * (n - 1) + 1)
    slots[::k] = _unpack(packed, n, w)
    return _pack(slots, w)


def _walk_residues(form: _ScaledForm, weight, units: int, budget: int, w: int) -> QSeries:
    """The residue walk of _walk, through budget in w-bit slots, l >= 1.

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
    least spend s_r of such a prefix.  It sums each x in range at r, and
    the periodicity makes the pairs (level-i spend, p_(i+1) mod P_(i+1))
    over x the same for every p_i in r's class.

    Thetas: from the last level back, T_i(r) is a pair (s0, packed), s0 its
    least spend and slot j of packed the number of suffixes spending
    s0 + sigma*strides[i]*j, kept through the budget left at s_r: the sum
    over x in range at r of T_(i+1)(rho) shifted by the level's spend,
    rho = (w0_(i+1) + w_prev_(i+1) x) mod P_(i+1), one shift-add per x
    whose child exists and fits, then one _cut.  A child was kept through
    budget - s_rho >= budget - s_r - K_i (W_i x + r)^2, since r's least
    prefix and x reach rho, so every slot the parent keeps is exact.

    Stride: two suffixes from one prefix spend amounts that differ by sigma
    times the difference of the integer chain grid*E, whose differing terms
    are a_j x_j^2 + l_j x_j = a_j (x_j^2 - x_j) + (a_j + l_j) x_j for j >= i
    and b_j x_j x_(j+1) for j >= i - 1 (x_(i-1) is fixed); so every spend
    of T_i(r), which by periodicity is the suffix sum of any real prefix
    reaching r, is congruent to s0 mod sigma*strides[i], strides[i] the gcd
    of 2a_j, a_j + l_j (j >= i) and b_j (j >= i - 1).  strides[i] divides
    strides[i+1], so a child is spread to the finer step, slot j to slot
    j*strides[i+1]/strides[i], before its level sums it.  Level 0's step is
    the window's: every point's exponent lies on the grid, so the spends
    base + s0 + sigma*strides[0]*j land in grid slots lo + strides[0]*j.

    Width: the thetas of levels i >= 1 are unweighted, so a kept slot of
    T_i(r), and any partial sum of it, counts suffixes that complete r's
    least prefix to points within the budget that spend one amount, at most
    one window count under no weight, which _count_bound bounds; level 0's
    weighted slots and partial sums are at most max|weight| times that.
    Above the cut nothing is bounded, but the int is exactly
    sum_j A_j 2^(w*j) with integer A_j and carries move only up; a child's
    slots above its cut land, shifted, above the parent's, whose _cut reads
    only its kept slots as a residue mod 2^(w*n).  So _count_bound's width
    holds for both paths.

    Least slot: s0 of T_0 is the least spend of any point within the
    budget, where each level keeps the least over its terms, even where
    weights cancel, so lo = (base + s0) // sigma is grid*min(E) whenever
    some point lies within units, and the walk records it on the form.
    """
    K, W, c, t = form.K, form.W, form.w_prev, form.w0
    sigma, g, P, last = form.sigma, form.strides, form.periods, len(K) - 1
    reach = [{t[0]: 0}]
    for i in range(last):
        ki, wi, cn, tn, pn = K[i], W[i], c[i + 1], t[i + 1], P[i + 1]
        nxt: dict[int, int] = {}
        for r, s in reach[i].items():
            for x in _level_range(ki, wi, r, budget - s):
                v = wi * x + r
                spend = s + ki * v * v
                rho = (tn + cn * x) % pn
                if nxt.get(rho, budget + 1) > spend:
                    nxt[rho] = spend
        reach.append(nxt)
    thetas: dict[int, tuple[int, int]] = {0: (0, 1)}  # T_l, the empty suffix
    for i in range(last, -1, -1):
        ki, wi, step = K[i], W[i], sigma * g[i]
        cn, tn, pn = 0, 0, 1
        if i < last:
            cn, tn, pn, k = c[i + 1], t[i + 1], P[i + 1], g[i + 1] // g[i]
            if k > 1:
                wide, seen = step * k, reach[i + 1]
                thetas = {r: (s0, _spread(packed, (budget - seen[r] - s0) // wide + 1, k, w))
                          for r, (s0, packed) in thetas.items()}
        weighted = i == 0 and weight is not None
        nxt = {}
        for r, s in reach[i].items():
            top = budget - s
            terms = []
            for x in _level_range(ki, wi, r, top):
                child = thetas.get((tn + cn * x) % pn)
                if child is not None:
                    v = wi * x + r
                    spend = ki * v * v + child[0]
                    if spend <= top:
                        terms.append((spend, child[1], x))
            if terms:
                s0 = min(term[0] for term in terms)
                acc = 0
                for spend, packed, x in terms:
                    if weighted:
                        packed *= _weight_value(weight, (x,))
                    acc += packed << (spend - s0) // step * w
                nxt[r] = (s0, _cut(acc, 0, (top - s0) // step + 1, w))
        thetas = nxt
    root = thetas.get(t[0])
    if root is None:
        return _series(form.grid, units, (0,), units)
    s0, packed = root
    lo = (form.base + s0) // sigma
    object.__setattr__(form, "least", lo)
    n = units - lo + 1
    window = [0] * n
    # base + s0 = sigma*lo, a point's exponent on the grid, so the root's cut
    # at budget - s0 = sigma*(units - lo) kept exactly these k slots
    k = len(range(0, n, g[0]))
    window[:: g[0]] = _unpack(packed, k, w)
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
