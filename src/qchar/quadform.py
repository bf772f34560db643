"""Positive-definite lattice sums over chain quadratic forms.

The exponent function of a LatticeSum is E(k) = c*kappa(k) + lin.k + const,
where kappa(k) = sum k_i^2 - sum k_i k_{i+1} is half the Gram form of the
A_l chain and positive definite in every dimension.  Its quadratic part is a
chain: each coordinate meets only its neighbours.  Completing the square in
the last coordinate, again and again, writes a chain exponent as
cstar + sum_i d_i (x_i + u_i x_{i-1} + t_i)^2 with every d_i positive, so
once x_{i-1} and the budget left are fixed the admissible x_i fill an
interval computed exactly with integer square roots of rescaled integers.

One engine expands every lattice series on that recursion: a transfer-matrix
walk that keeps, per value of the current coordinate, an exact map from
budget spent to weighted count, so it never visits points one by one, and
prices each value of the next coordinate once per value of the current one.
A chain's squares, with its grid denominator, are completed once and can be
walked at any bound: both routes of qchar.affine hand theirs to the engine,
the trace route's chain written in partial sums.  Unweighted, through a
rounding bound, the walk yields exact minimum exponents (lattice_min_exponent).
lattice_enumerate walks the same recursion point by point; it is kept as the
oracle of the tests' hand expansions.  No floating point enters anywhere; the
tests check both against a box-scan oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import floor, isqrt, lcm
from typing import Iterator, Optional, Sequence

from .qseries import (
    QSeries,
    RationalLike,
    _json_field,
    _json_int,
    _json_list,
    _json_rational,
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

    @staticmethod
    def from_json(data: dict) -> "LatticeSum":
        def field(key: str) -> Fraction:
            value = _json_field(data, key, "lattice sum")
            return _json_rational(value, f"lattice {key}")

        lin = _json_list(data, "lin", "lattice sum")
        return LatticeSum(
            _json_int(_json_field(data, "l", "lattice sum"), "lattice dimension"),
            field("c"),
            tuple(_json_rational(v, "lattice lin entry") for v in lin),
            field("const"),
            data.get("weight"),
        )


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
# Inside this module a quadratic exponent function on Z^l is a chain: E(x) =
# sum_i diag[i] x_i^2 + sum_i off[i] x_i x_(i+1) + lin.x + const.


def _kappa_parts(s: LatticeSum):
    """The chain (diag, off, lin, const) of a kappa-form lattice sum."""
    return [s.c] * s.l, [-s.c] * max(s.l - 1, 0), list(s.lin), s.const


def _complete_squares(diag, off, lin, const):
    """Peel squares off the last coordinate until none remain.

    Returns (d, u, t, cstar, grid): per-level data with
    E(x) = cstar + sum_i d_i (x_i + u_i x_(i-1) + t_i)^2 (u_0 = 0), and the
    grid denominator, the smallest D with D*E(x) integral for every integer
    x, read off the chain's entries before elimination rewrites them.  Raises
    if any pivot fails to be positive.  Eliminating x_i changes only the
    diagonal and linear entries of x_(i-1), so the form stays a chain.
    """
    l = len(lin)
    a = [as_rational(v) for v in diag]
    b = [as_rational(v) for v in off]
    lin = [as_rational(v) for v in lin]
    c = as_rational(const)
    grid = lcm(*(v.denominator for v in (*a, *b, *lin, c)))
    d: list[Fraction] = [Fraction(0)] * l
    u: list[Fraction] = [Fraction(0)] * l
    t: list[Fraction] = [Fraction(0)] * l
    for i in reversed(range(l)):
        di = a[i]
        if di <= 0:
            raise ValueError("indefinite exponent function")
        ti = lin[i] / (2 * di)
        d[i], t[i] = di, ti
        if i:
            ui = b[i - 1] / (2 * di)
            u[i] = ui
            a[i - 1] -= di * ui * ui
            lin[i - 1] -= 2 * di * ui * ti
        c -= di * ti * ti
    return d, u, t, c, grid


@dataclass(frozen=True)
class _ScaledForm:
    """Integer-scaled completed-squares data.

    sigma is a common denominator for everything: budgets, square multipliers
    and the truncation bound all become plain integers, so the recursion runs
    on exact integer arithmetic only.  With x_(-1) = 0, level i spends
    K_i * (W_i x_i + w_prev_i x_(i-1) + w0_i)^2 of the budget.  sigma is a
    multiple of the grid denominator, and ehat values (sigma times an
    exponent) divide exactly by sigma/grid to give grid slots.
    """

    levels: int
    sigma: int
    sigma_t: int
    budget: int
    K: tuple[int, ...]
    W: tuple[int, ...]
    w_prev: tuple[int, ...]
    w0: tuple[int, ...]


def _scale_form(squares, bound: Fraction) -> _ScaledForm:
    """Integer-scale completed squares (d, u, t, cstar, grid) on their grid."""
    d, u, t, cstar, grid = squares
    l = len(d)
    ws = [lcm(t[i].denominator, u[i].denominator) for i in range(l)]
    sigma = lcm(grid, bound.denominator, cstar.denominator)
    for i in range(l):
        sigma = lcm(sigma, d[i].denominator * ws[i] * ws[i])
    sigma_t = int(sigma * bound)
    budget = sigma_t - int(sigma * cstar)
    kk = tuple(
        int(sigma * d[i].numerator) // (d[i].denominator * ws[i] * ws[i])
        for i in range(l)
    )
    w_prev = tuple(int(u[i] * ws[i]) for i in range(l))
    w0 = tuple(int(t[i] * ws[i]) for i in range(l))
    return _ScaledForm(l, sigma, sigma_t, budget, kk, tuple(ws), w_prev, w0)


def _level_range(k: int, w: int, p: int, budget: int) -> range:
    """All x with k * (w*x + p)^2 <= budget."""
    r = isqrt(budget // k)
    return range(-((r + p) // w), (r - p) // w + 1)


def _scaled_points(form: _ScaledForm) -> Iterator[tuple[tuple[int, ...], int]]:
    """Yield (point, sigma*exponent) pairs in lexicographic order."""
    if form.budget < 0:
        return
    l = form.levels
    if l == 0:
        yield (), form.sigma_t - form.budget
        return
    kk, ws, w_prev, w0 = form.K, form.W, form.w_prev, form.w0
    sigma_t = form.sigma_t
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
                yield tuple(x), sigma_t - nb
            else:
                yield from rec(i + 1, xi, nb)

    yield from rec(0, 0, form.budget)


def _walk(squares, weight, bound: Fraction) -> QSeries:
    """The one lattice engine: walk the squares of _complete_squares.

    The squares (d, u, t, cstar, grid) expand through the bound, on their
    grid, weighted by the weight shape (None for plain counts).  A
    transfer-matrix walk.  After level i it keeps, for each value of x_i, an
    exact map from budget spent on levels 0..i to the weighted number of
    prefixes spending it; the square at level i+1 depends only on x_i, so
    prefixes agreeing on x_i and the spend merge and no point is visited one
    by one.  Each value x_(i+1) is priced once per predecessor x_i: its range
    is taken at the predecessor's least spend, and each spend joins only when
    the square still fits in the room it leaves.  The weight shape reads the
    first coordinate, so it is applied once, after level 0 (the empty point of
    l = 0 weighs 1 under every shape).  The last level's maps fold into grid
    slots.
    """
    grid = squares[4]
    form = _scale_form(squares, bound)
    if form.budget < 0:
        return QSeries.zero(bound, grid)
    states: dict[int, dict[int, int]] = {0: {0: 1}}
    for i in range(form.levels):
        ki, wi, ci, ti = form.K[i], form.W[i], form.w_prev[i], form.w0[i]
        nxt: dict[int, dict[int, int]] = {}
        for prev, spent in states.items():
            pi = ti + ci * prev
            for xi in _level_range(ki, wi, pi, form.budget - min(spent)):
                v = wi * xi + pi
                cost = ki * v * v
                room = form.budget - cost
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
    base = form.sigma_t - form.budget
    slot_div = form.sigma // grid
    acc: dict[int, int] = {}
    for row in states.values():
        for used, count in row.items():
            slot = (base + used) // slot_div
            acc[slot] = acc.get(slot, 0) + count
    if not acc:
        return QSeries.zero(bound, grid)
    t_units = floor(bound * grid)
    lo = min(acc)
    window = [acc.get(i, 0) for i in range(lo, t_units + 1)]
    return QSeries.from_window(grid, lo, window, t_units)


def _chain_min(squares) -> Fraction:
    """Exact minimum over Z^l of the chain exponent with these completed squares.

    Rounding each completed square in turn, level 0 first, leaves every square
    at most 1/4, so some point lies within cstar + sum(d_i)/4 (Babai's
    nearest-plane bound).  Unweighted counts cannot cancel, so the lowest
    exponent of the unweighted walk through that bound is the minimum.  The
    caller completes the squares once and can walk them again at any bound.
    """
    d, _, _, cstar, _ = squares
    return _walk(squares, None, cstar + sum(d, Fraction(0)) / 4).lowest_exponent()


# -- public enumeration over kappa-form sums -----------------------------------


def lattice_enumerate(
    s: LatticeSum, bound: RationalLike
) -> Iterator[tuple[tuple[int, ...], Fraction]]:
    """All k with exponent_at(k) <= bound, as (k, exponent) pairs in lex order."""
    t = as_rational(bound)
    if s.c <= 0:
        raise ValueError("indefinite exponent function")
    form = _scale_form(_complete_squares(*_kappa_parts(s)), t)
    for point, ehat in _scaled_points(form):
        yield point, Fraction(ehat, form.sigma)


def lattice_min_exponent(s: LatticeSum) -> Fraction:
    """Smallest exponent_at(k) over Z^l, ignoring the weight (it may cancel there)."""
    return _chain_min(_complete_squares(*_kappa_parts(s)))


def lattice_sum_series(s: LatticeSum, bound: RationalLike) -> QSeries:
    """Expand the lattice sum as a QSeries, correct through the bound.

    Coefficient at each exponent is the number of lattice points reaching it,
    weighted when the sum carries a weight shape.  Positive-definiteness of
    the exponent function makes every coefficient a finite count.
    """
    t = as_rational(bound)
    if s.c <= 0:
        raise ValueError("indefinite exponent function")
    return _walk(_complete_squares(*_kappa_parts(s)), s.weight, t)
