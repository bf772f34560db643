"""Positive-definite lattice sums over chain quadratic forms.

The exponent function of a LatticeSum is E(k) = c*kappa(k) + lin.k + const,
where kappa(k) = sum k_i^2 - sum k_i k_{i+1} is half the Gram form of the
A_l chain and positive definite in every dimension.  Its quadratic part is a
chain: each coordinate meets only its neighbours.  Completing the square in
the last coordinate, again and again, writes a chain exponent as
cstar + sum_i d_i (x_i + u_i x_{i-1} + t_i)^2 with every d_i positive, so
once x_{i-1} and the budget left are fixed the admissible x_i fill an
interval computed exactly with integer square roots.

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
shifts and adds on whole rows replace per-spend merges.  Both routes of
qchar.affine build their integer chains directly, as a _Chain, the trace
route's chain written in partial sums.  A LatticeSum scales its exponent
onto its grid; each kind completes its squares once, on first use, and
every public entry point walks that one form: unweighted, through a
rounding bound, the walk yields exact minimum exponents
(lattice_min_exponent), and lattice_sum_series expands through any bound;
both take either kind.
lattice_enumerate walks the same recursion point by point; it is kept as the
oracle of the tests' hand expansions.  No floating point, and no Fraction
between a chain's entries and its walk's slots; the tests check the engine
against a box-scan oracle and a dict-of-spends walk, and the completion
against a Fraction one.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import floor, gcd, isqrt, lcm
from operator import add
from typing import Iterator, Optional, Sequence

from .qseries import (
    QSeries,
    RationalLike,
    _slot_width,
    _unpack,
    as_rational,
    format_rational,
)

__all__ = [
    "LatticeSum",
    "WEIGHT_ALTERNATING",
    "WEIGHT_FOUR_K_PLUS_ONE",
    "kappa_eval",
    "lattice_enumerate",
    "lattice_min_exponent",
    "lattice_sum_series",
]

WEIGHT_ALTERNATING = "alternating_sign"
WEIGHT_FOUR_K_PLUS_ONE = "four_k_plus_one"
_WEIGHTS = (WEIGHT_ALTERNATING, WEIGHT_FOUR_K_PLUS_ONE)


def kappa_eval(k: Sequence[int]) -> int:
    """kappa(k) = sum of squares minus the sum of adjacent products."""
    ks = tuple(k)
    if not ks:
        raise ValueError("kappa_eval needs at least one coordinate")
    for v in ks:
        if not isinstance(v, int):
            raise ValueError("kappa_eval takes integer vectors")
    total = sum(v * v for v in ks)
    total -= sum(ks[i] * ks[i + 1] for i in range(len(ks) - 1))
    return total


@dataclass(frozen=True)
class LatticeSum:
    """Formal sum over Z^l of weight(k) * q^(c*kappa(k) + lin.k + const).

    c must be positive; otherwise the exponent function is unbounded below
    and the sum has infinitely many terms under any truncation.  The optional
    weight is one of the built-in shapes, applied to the first coordinate:
    WEIGHT_ALTERNATING gives (-1)^(k_1), WEIGHT_FOUR_K_PLUS_ONE gives 4*k_1+1.
    l = 0 is allowed and denotes the single empty point with exponent const.
    """

    l: int
    c: Fraction
    lin: tuple[Fraction, ...]
    const: Fraction = Fraction(0)
    weight: Optional[str] = None

    def __post_init__(self) -> None:
        if type(self.l) is not int or self.l < 0:
            raise ValueError("dimension must be a nonnegative integer")
        object.__setattr__(self, "c", as_rational(self.c))
        object.__setattr__(self, "lin", tuple(as_rational(v) for v in self.lin))
        object.__setattr__(self, "const", as_rational(self.const))
        if len(self.lin) != self.l:
            raise ValueError("linear part must have one entry per dimension")
        if self.c <= 0:
            raise ValueError("indefinite exponent function: c must be positive")
        if self.weight is not None and self.weight not in _WEIGHTS:
            raise ValueError(f"unknown weight shape: {self.weight!r}")

    def exponent_at(self, k: Sequence[int]) -> Fraction:
        ks = tuple(k)
        if len(ks) != self.l:
            raise ValueError("dimension mismatch")
        if self.l == 0:
            return self.const
        linear = sum(a * b for a, b in zip(self.lin, ks))
        return self.c * kappa_eval(ks) + linear + self.const

    def weight_at(self, k: Sequence[int]) -> int:
        return _weight_value(self.weight, tuple(k))

    @cached_property
    def _form(self) -> "_ScaledForm":
        """The completed squares of the exponent, computed once, on first use.

        Every public entry point walks this form.  It is not a dataclass
        field, so ==, hash, repr and to_json never see it, and a copy made
        by dataclasses.replace completes its own.
        """
        chain = _kappa_parts(self)
        return _complete_squares(*chain)

    def to_json(self) -> dict:
        out = {
            "l": self.l,
            "c": format_rational(self.c),
            "lin": [format_rational(v) for v in self.lin],
            "const": format_rational(self.const),
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


# -- chain completed squares ---------------------------------------------------
#
# Inside this module a quadratic exponent function on Z^l is an integer chain:
# denom*E(x) = sum_i diag[i] x_i^2 + sum_i off[i] x_i x_(i+1) + lin.x + const,
# every entry and denom a plain int.


def _on_grid(v: Fraction, denom: int) -> int:
    """denom*v for a denom that v.denominator divides."""
    return v.numerator * (denom // v.denominator)


@dataclass(frozen=True)
class _Chain:
    """An unweighted lattice sum given by its integer chain, as a route builds it.

    lattice_sum_series and lattice_min_exponent read only _form and weight,
    so they take a _Chain as they take a LatticeSum; l is its dimension.
    """

    diag: tuple[int, ...]
    off: tuple[int, ...]
    lin: tuple[int, ...]
    const: int
    denom: int
    weight = None

    @property
    def l(self) -> int:
        return len(self.diag)

    @cached_property
    def _form(self) -> "_ScaledForm":
        return _complete_squares(self.diag, self.off, self.lin, self.const, self.denom)


def _kappa_parts(s: LatticeSum):
    """The integer chain (diag, off, lin, const, denom) of a kappa-form lattice sum."""
    denom = lcm(s.c.denominator, s.const.denominator, *(v.denominator for v in s.lin))
    c = _on_grid(s.c, denom)
    lin = [_on_grid(v, denom) for v in s.lin]
    return [c] * s.l, [-c] * max(s.l - 1, 0), lin, _on_grid(s.const, denom), denom


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
    """

    grid: int
    sigma: int
    stride: int
    base: int
    K: tuple[int, ...]
    W: tuple[int, ...]
    w_prev: tuple[int, ...]
    w0: tuple[int, ...]


def _complete_squares(diag, off, lin, const, denom) -> _ScaledForm:
    """Peel squares off the last coordinate of an integer chain, fraction-free.

    Dividing the chain and denom by their gcd gives grid and R = grid*E.
    Keeping grid*E = R/m + (the squares peeled so far), m = 1 at the start,
    eliminating x_i multiplies R and m by 4a_i, where a_i is x_i's diagonal
    entry and b, l_i its entries beside x_(i-1) and alone (b = 0 at level 0):
    4a_i (a_i x_i^2 + b x_(i-1) x_i + l_i x_i) is
    (2a_i x_i + b x_(i-1) + l_i)^2 - (b x_(i-1) + l_i)^2, so the level's square
    is (2a_i x_i + b x_(i-1) + l_i)^2 / (4a_i m) and the remainder, still a
    chain, has only x_(i-1)'s diagonal and linear entries changed.  Dividing
    the remainder and m by their gcd keeps every value a small exact integer
    (Bareiss, Math. Comp. 22, 1968).  Each square's (W, w_prev, w0) is its
    linear form divided by the gcd of its entries.  No square reads the
    remainder's constant, so the elimination drops it and base is read off
    x = 0 instead.  stride, the gcd of 2a_j, a_j + l_j and b_j over every
    coordinate but the last of the divided chain, steps a walk's rows (see
    _walk).  Raises if any pivot fails to be positive.
    """
    g = gcd(denom, const, *diag, *off, *lin)
    grid, c = denom // g, const // g
    a = [v // g for v in diag]
    b = [v // g for v in off]
    l = [v // g for v in lin]
    # 1 when no coordinate but the last exists: every row then holds one spend
    stride = gcd(*(2 * v for v in a[:-1]), *map(add, a[:-1], l), *b) or 1
    m = 1
    levels = []
    while a:
        ai, li = a.pop(), l.pop()
        bi = b.pop() if b else 0
        if ai <= 0:
            raise ValueError("indefinite exponent function")
        f = 4 * ai
        m *= f
        h = gcd(2 * ai, bi, li)
        levels.append((m, h, 2 * ai // h, bi // h, li // h))
        a = [v * f for v in a]
        b = [v * f for v in b]
        l = [v * f for v in l]
        if a:
            a[-1] -= bi * bi
            l[-1] -= 2 * bi * li
        g = gcd(m, *a, *b, *l)
        m //= g
        a = [v // g for v in a]
        b = [v // g for v in b]
        l = [v // g for v in l]
    levels.reverse()
    # the smallest sigma making every K_i = sigma*h_i^2/(4a_i m_i) integral
    sigma = lcm(*(mi // gcd(mi, h * h) for mi, h, *_ in levels))
    K = tuple(sigma * h * h // mi for mi, h, *_ in levels)
    W, w_prev, w0 = (tuple(v[j] for v in levels) for j in (2, 3, 4))
    # sigma*grid*E(0) = sigma*c = base + sum K_i w0_i^2, all integers
    base = sigma * c - sum(k * t * t for k, t in zip(K, w0))
    return _ScaledForm(grid, sigma, stride, base, K, W, w_prev, w0)


def _level_range(k: int, w: int, p: int, budget: int) -> range:
    """All x with k * (w*x + p)^2 <= budget."""
    r = isqrt(budget // k)
    return range(-((r + p) // w), (r - p) // w + 1)


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


def _count_bound(form: _ScaledForm, weight, budget: int) -> int:
    """A bound on the magnitude of every count a walk through budget keeps.

    Slot s of the row of x_i counts the prefixes x_0..x_(i-1) that spend s,
    each weighing at most max|weight|.  No room exceeds the budget, so every
    x_j lies among the x with |W_j x + p| <= isqrt(budget // K_j) for some p:
    at most n_j = 2*isqrt(budget // K_j) // W_j + 1 values.  With x_0..x_(i-2)
    fixed too, the spend is a quadratic in x_(i-1) with leading coefficient
    K_(i-1) W_(i-1)^2 + K_i w_prev_i^2 > 0, which takes each value at most
    twice.  So every count, and every partial sum of one, is at most
    2 n_0 ... n_(l-3) max|weight| in size (max|weight| when l = 1); under
    4k+1, |x_0| <= (isqrt(budget // K_0) + |w0_0|) // W_0 bounds the weight.
    """
    bound = 2 if len(form.K) > 1 else 1
    for k, w in zip(form.K[:-2], form.W[:-2]):
        bound *= 2 * isqrt(budget // k) // w + 1
    if weight == WEIGHT_FOUR_K_PLUS_ONE and form.K:
        reach = (isqrt(budget // form.K[0]) + abs(form.w0[0])) // form.W[0]
        bound *= 4 * reach + 1
    return bound


def _walk(form: _ScaledForm, weight, units: int) -> QSeries:
    """The one lattice engine: walk a _ScaledForm through units grid slots.

    The form expands through the bound floor(units/grid), on its grid,
    weighted by the weight shape (None for plain counts); every quantity is
    a plain int.  A transfer-matrix walk.  After level i it keeps, for each
    value of x_i, a row: the weighted number of prefixes x_0..x_i spending
    each amount of the budget on levels 0..i.  The square at level i+1
    depends only on x_i, so prefixes agreeing on x_i and the spend merge and
    no point is visited one by one.

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
    rows after level 0 (the empty point of l = 0 weighs 1 under every shape).
    Each last-level row unpacks once into the window, its slots stride grid
    slots apart.
    """
    grid, sigma, base = form.grid, form.sigma, form.base
    budget = sigma * units - base
    if budget < 0:
        return QSeries(grid, units, (0,), units)
    step = sigma * form.stride
    w = _slot_width(_count_bound(form, weight, budget))
    rows: dict[int, list[int]] = {0: [0, 1]}
    for i in range(len(form.K)):
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
    lo = min(((base + s) // sigma for s, _ in rows.values()), default=units)
    window = [0] * (units - lo + 1)
    g = form.stride
    for s, packed in rows.values():
        f = (base + s) // sigma - lo
        n = packed.bit_length() // w + 1
        if n == 1:
            window[f] += packed
        else:
            end = f + g * (n - 1) + 1
            window[f:end:g] = map(add, window[f:end:g], _unpack(packed, n, w))
    return QSeries.from_window(grid, lo, window, units)


def _chain_min(form: _ScaledForm) -> Fraction:
    """Exact minimum over Z^l of the chain exponent with this completed form.

    Rounding each completed square in turn, level 0 first, leaves every square
    at most 1/4 of its pivot, so some point lies within cstar + sum(d_i)/4
    (Babai's nearest-plane bound), where sigma*grid*cstar = base and
    sigma*grid*d_i = K_i W_i^2.  Unweighted counts cannot cancel, so the
    lowest exponent of the unweighted walk through that bound, rounded down
    to the grid in integers, is the minimum.  The caller completes the
    squares once and can walk the same form again at any bound.
    """
    pivots = sum(k * w * w for k, w in zip(form.K, form.W))
    units = (4 * form.base + pivots) // (4 * form.sigma)
    return _walk(form, None, units).lowest_exponent()


# -- public enumeration over kappa-form sums -----------------------------------


def lattice_enumerate(
    s: LatticeSum, bound: RationalLike
) -> Iterator[tuple[tuple[int, ...], Fraction]]:
    """All k with exponent_at(k) <= bound, as (k, exponent) pairs in lex order."""
    t = as_rational(bound)
    form = s._form
    scale = form.sigma * form.grid
    for point, ehat in _scaled_points(form, floor(t * form.grid)):
        yield point, Fraction(ehat, scale)


def lattice_min_exponent(s: LatticeSum | _Chain) -> Fraction:
    """Smallest exponent over Z^l, ignoring the weight (it may cancel there)."""
    return _chain_min(s._form)


def lattice_sum_series(s: LatticeSum | _Chain, bound: RationalLike) -> QSeries:
    """Expand a LatticeSum or a route's chain as a QSeries, correct through the bound.

    Coefficient at each exponent is the number of lattice points reaching it,
    weighted when the sum carries a weight shape.  Positive-definiteness of
    the exponent function makes every coefficient a finite count.
    """
    t = as_rational(bound)
    return _walk(s._form, s.weight, floor(t * s._form.grid))
