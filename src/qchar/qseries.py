"""Truncated formal power series in q with exact integer coefficients.

Exponents live on a grid of integer multiples of 1/denom, so series with
genuinely fractional exponents (q^(1/2), q^(5/3), ...) are first-class
values.  Every series carries the largest grid exponent through which its
coefficients are guaranteed correct, and every operation propagates that
guarantee honestly rather than optimistically.  All arithmetic is over
arbitrary-precision integers and exact rationals; nothing here touches
floating point.  product_series solves its recurrence by halves of its window.
"""

from __future__ import annotations

import re
import sys
import time
from array import array
from dataclasses import dataclass, replace
from fractions import Fraction
from math import floor, gcd, isqrt, lcm
from operator import add, sub
from typing import Callable, Iterable, Optional, Union

RationalLike = Union[int, str, Fraction]

__all__ = [
    "QSeries",
    "ProductSpec",
    "Mismatch",
    "VerifyReport",
    "as_rational",
    "format_rational",
    "series_add",
    "series_sub",
    "series_neg",
    "series_mul",
    "series_pow",
    "series_inv",
    "phi_series",
    "product_series",
    "normalize_shift",
    "series_compare",
    "render",
]


# the one rational grammar of every boundary: "7", "-3", "1/8"; no decimals,
# exponents, zero denominators or non-ASCII digits
_RATIONAL_RE = re.compile(r"[+-]?\d+(/[1-9]\d*)?\Z", re.ASCII)


def as_rational(x: RationalLike) -> Fraction:
    """Coerce an int, Fraction, or "num/den" string to an exact Fraction.

    Floats are deliberately rejected: every quantity in this package is exact.
    Booleans are too: bool is an int, but True is no rational value here.
    Strings must be an integer or num/den with a positive denominator;
    anything else, decimals included, raises ValueError.
    """
    if isinstance(x, Fraction):
        return x
    if type(x) is int:
        return Fraction(x)
    if isinstance(x, str):
        cleaned = x.strip()
        if not _RATIONAL_RE.match(cleaned):
            raise ValueError(
                f"not a rational number (use an integer or num/den): {x!r}"
            )
        return Fraction(cleaned)
    raise TypeError(f"not an exact rational value: {x!r}")


def format_rational(x: Fraction) -> str:
    """Render a Fraction as "num/den", or plain "num" when integral."""
    return str(x)


# -- the strict JSON grammar of ProductSpec.from_json, the one reader ------
#
# qchar writes JSON with to_json and reads it only where the CLI takes a
# --spec; the CLI's integer flags share _json_int.

_INT_RE = re.compile(r"[+-]?\d+\Z", re.ASCII)


def _json_fields(data, what: str, *keys: str) -> list:
    """data's values at keys; data must be a JSON object with exactly those keys."""
    if not isinstance(data, dict):
        raise ValueError(f"{what} must be a JSON object, got {data!r}")
    for key in keys:
        if key not in data:
            raise ValueError(f"{what} is missing the {key!r} field")
    unknown = [key for key in data if key not in keys]
    if unknown:
        raise ValueError(f"{what} has unknown fields {unknown!r}")
    return [data[key] for key in keys]


def _json_int(value, what: str) -> int:
    """An int or an integer string; floats and booleans are refused, not cut."""
    if isinstance(value, str) and _INT_RE.match(value.strip()):
        return int(value)
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    raise ValueError(f"{what} must be an integer, got {value!r}")


def _json_rational(value, what: str) -> Fraction:
    try:
        if not isinstance(value, bool) and isinstance(value, (int, str)):
            return as_rational(value)
    except ValueError:
        pass
    raise ValueError(f"{what} must be an integer or a num/den rational, got {value!r}")


@dataclass(frozen=True)
class QSeries:
    """Sum of coeffs[i] * q^((lo+i)/denom), guaranteed correct through q^(order/denom).

    The coefficient window is dense over the grid slots lo..order.  A nonzero
    series always has coeffs[0] != 0 (the window start is tight); the zero
    series is stored canonically as the single coefficient (0,) sitting at the
    order slot.  Instances are immutable and safe to share between threads.
    """

    denom: int
    lo: int
    coeffs: tuple[int, ...]
    order: int

    def __post_init__(self) -> None:
        # bool is an int, but to_json would write it as a JSON boolean
        if type(self.denom) is not int or self.denom < 1:
            raise ValueError("denom must be a positive integer")
        if type(self.lo) is not int or type(self.order) is not int:
            raise ValueError("window bounds must be plain integers")
        if self.lo > self.order:
            raise ValueError("window start exceeds the guaranteed order")
        if len(self.coeffs) != self.order - self.lo + 1:
            raise ValueError("coefficient window does not span [lo, order]")
        # one pass over the types: bool, float and int subclasses are refused
        if {*map(type, self.coeffs)} != {int}:
            raise ValueError("coefficients must be plain integers")
        if self.coeffs[0] == 0 and any(self.coeffs):
            raise ValueError("window start is not tight")
        if not any(self.coeffs) and len(self.coeffs) != 1:
            raise ValueError("zero series must collapse to a single slot")

    # -- construction ---------------------------------------------------

    @staticmethod
    def from_window(denom: int, lo: int, coeffs: Iterable[int], order: int) -> "QSeries":
        """Build from a dense window over [lo, order], canonicalizing as needed."""
        cs = list(coeffs)
        if len(cs) != order - lo + 1:
            raise ValueError("coefficient window does not span [lo, order]")
        i = 0
        while i < len(cs) - 1 and cs[i] == 0:
            i += 1
        if cs[i] == 0:
            return QSeries(denom, order, (0,), order)
        return QSeries(denom, lo + i, tuple(cs[i:]), order)

    @staticmethod
    def from_terms(
        terms: Iterable[tuple[RationalLike, int]],
        order: RationalLike,
        denom: Optional[int] = None,
    ) -> "QSeries":
        """Build from (exponent, coefficient) pairs; terms beyond the order are dropped."""
        t = as_rational(order)
        pairs = [(as_rational(e), c) for e, c in terms]
        if denom is None:
            denom = t.denominator
            for e, _ in pairs:
                denom = lcm(denom, e.denominator)
        units = floor(t * denom)
        acc: dict[int, int] = {}
        for e, c in pairs:
            scaled = e * denom
            if scaled.denominator != 1:
                raise ValueError("exponent does not lie on the chosen grid")
            slot = int(scaled)
            if slot <= units:
                acc[slot] = acc.get(slot, 0) + c
        acc = {slot: c for slot, c in acc.items() if c}
        if not acc:
            return QSeries.zero(t, denom)
        lo = min(acc)
        window = [acc.get(slot, 0) for slot in range(lo, units + 1)]
        return QSeries.from_window(denom, lo, window, units)

    @staticmethod
    def zero(order: RationalLike, denom: int = 1) -> "QSeries":
        units = floor(as_rational(order) * denom)
        return QSeries(denom, units, (0,), units)

    @staticmethod
    def one(order: RationalLike, denom: int = 1) -> "QSeries":
        return QSeries.monomial(0, 1, order, denom)

    @staticmethod
    def monomial(
        exponent: RationalLike, coeff: int, order: RationalLike, denom: Optional[int] = None
    ) -> "QSeries":
        e = as_rational(exponent)
        t = as_rational(order)
        if denom is None:
            denom = lcm(e.denominator, t.denominator)
        return QSeries.from_terms([(e, coeff)], t, denom)

    # -- inspection -----------------------------------------------------

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def order_exponent(self) -> Fraction:
        """Largest exponent through which coefficients are guaranteed."""
        return Fraction(self.order, self.denom)

    def lowest_exponent(self) -> Fraction:
        """Exponent of the first stored slot (the leading term when nonzero)."""
        return Fraction(self.lo, self.denom)

    def terms(self) -> list[tuple[Fraction, int]]:
        """Nonzero (exponent, coefficient) pairs in ascending exponent order."""
        return [
            (Fraction(self.lo + i, self.denom), c)
            for i, c in enumerate(self.coeffs)
            if c
        ]

    def __getitem__(self, exponent: RationalLike) -> int:
        """Coefficient at an exact exponent; raises beyond the guaranteed order."""
        e = as_rational(exponent)
        if e > Fraction(self.order, self.denom):
            raise IndexError("exponent lies beyond the guaranteed order")
        scaled = e * self.denom
        if scaled.denominator != 1:
            return 0
        i = int(scaled) - self.lo
        if i < 0 or i >= len(self.coeffs):
            return 0
        return self.coeffs[i]

    # -- regridding -----------------------------------------------------

    def rebase(self, denom: int) -> "QSeries":
        """Re-express on a finer grid; denom must be a multiple of the current one."""
        if denom % self.denom:
            raise ValueError("new denom must be a multiple of the current denom")
        f = denom // self.denom
        if f == 1:
            return self
        out = [0] * ((self.order - self.lo) * f + 1)
        out[::f] = self.coeffs
        return QSeries(denom, self.lo * f, tuple(out), self.order * f)

    def reduced(self) -> "QSeries":
        """Coarsest equal representation (inverse of rebase where possible)."""
        g = gcd(self.denom, self.lo, self.order)
        for i, c in enumerate(self.coeffs):
            if c:
                g = gcd(g, self.lo + i)
                if g == 1:
                    return self
        if g == 1:
            return self
        return QSeries(
            self.denom // g, self.lo // g, self.coeffs[::g], self.order // g
        )

    def truncated(self, order: RationalLike) -> "QSeries":
        """Weaken the guarantee to a smaller order, discarding higher slots."""
        units = floor(as_rational(order) * self.denom)
        if units > self.order:
            raise ValueError("cannot extend a series beyond its guaranteed order")
        if units < self.lo:
            return QSeries(self.denom, units, (0,), units)
        return QSeries.from_window(
            self.denom, self.lo, self.coeffs[: units - self.lo + 1], units
        )

    # -- equality is mathematical, not structural -----------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, QSeries):
            return NotImplemented
        a, b = self.reduced(), other.reduced()
        return (a.denom, a.lo, a.order, a.coeffs) == (b.denom, b.lo, b.order, b.coeffs)

    def __hash__(self) -> int:
        a = self.reduced()
        return hash((a.denom, a.lo, a.order, a.coeffs))

    # -- serialization ----------------------------------------------------

    def to_json(self) -> dict:
        return {
            "denom": self.denom,
            "lo": self.lo,
            "order": self.order,
            "coeffs": [str(c) for c in self.coeffs],
        }

    def __str__(self) -> str:
        return render(self)


# -- ring operations ------------------------------------------------------


def series_add(a: QSeries, b: QSeries) -> QSeries:
    """Sum, guaranteed through the smaller of the two orders."""
    m = lcm(a.denom, b.denom)
    fa, fb = m // a.denom, m // b.denom
    order = min(a.order * fa, b.order * fb)
    lo = min(a.lo * fa, b.lo * fb, order)
    out = [0] * (order - lo + 1)
    for i, c in enumerate(a.coeffs):
        if c:
            e = (a.lo + i) * fa
            if e <= order:
                out[e - lo] += c
    for i, c in enumerate(b.coeffs):
        if c:
            e = (b.lo + i) * fb
            if e <= order:
                out[e - lo] += c
    return QSeries.from_window(m, lo, out, order)


def series_neg(a: QSeries) -> QSeries:
    return QSeries(a.denom, a.lo, tuple(-c for c in a.coeffs), a.order)


def series_sub(a: QSeries, b: QSeries) -> QSeries:
    return series_add(a, series_neg(b))


def series_mul(a: QSeries, b: QSeries) -> QSeries:
    """Cauchy product.

    The result is guaranteed through min(a.order + b.lo, b.order + a.lo) on
    the common grid: the unknown tail of one factor first pollutes the product
    at its own order plus the other factor's lowest exponent.
    """
    m = lcm(a.denom, b.denom)
    fa, fb = m // a.denom, m // b.denom
    alo, aord = a.lo * fa, a.order * fa
    blo, bord = b.lo * fb, b.order * fb
    order = min(aord + blo, bord + alo)
    base = alo + blo
    out = [0] * (order - base + 1)
    for i, ca in enumerate(a.coeffs):
        if not ca:
            continue
        ea = alo + i * fa
        if ea + blo > order:
            break
        for j, cb in enumerate(b.coeffs):
            if not cb:
                continue
            e = ea + blo + j * fb
            if e > order:
                break
            out[e - base] += ca * cb
    return QSeries.from_window(m, base, out, order)


def series_pow(a: QSeries, n: int) -> QSeries:
    """Integer power by repeated squaring; negative powers invert first."""
    if not isinstance(n, int):
        raise ValueError("series powers must be integers")
    if n < 0:
        return series_pow(series_inv(a), -n)
    result = QSeries.one(Fraction(a.order, a.denom), a.denom)
    square = a
    while n:
        if n & 1:
            result = series_mul(result, square)
        n >>= 1
        if n:
            square = series_mul(square, square)
    return result


def series_inv(a: QSeries) -> QSeries:
    """Multiplicative inverse of a unit series.

    Requires the leading coefficient to be 1 or -1 so the inverse again has
    integer coefficients; a leading monomial q^(lo/denom) is pulled out and
    inverted as a shift.  series_mul(a, series_inv(a)) is exactly 1 through
    the guaranteed order of the product.
    """
    if a.is_zero():
        raise ValueError("non-invertible: zero series")
    u0 = a.coeffs[0]
    if u0 not in (1, -1):
        raise ValueError(
            "non-invertible: leading coefficient must be 1 or -1 "
            "for an integer-coefficient inverse"
        )
    n = a.order - a.lo
    u = a.coeffs
    inv = [0] * (n + 1)
    inv[0] = u0
    for m in range(1, n + 1):
        s = 0
        for j in range(1, m + 1):
            if j < len(u) and u[j]:
                s += u[j] * inv[m - j]
        inv[m] = -u0 * s
    return QSeries.from_window(a.denom, -a.lo, inv, n - a.lo)


# -- the Euler product and finite products of its rescalings ---------------


def phi_series(scale: RationalLike, order: RationalLike) -> QSeries:
    """Expansion of the infinite product over j >= 1 of (1 - q^(scale*j)).

    The one-factor case of product_series, on the grid of the scale's
    denominator: with x = q^(1/d) and t = scale*d, the logarithmic derivative
    of prod (1 - x^(t j)) gives m F_m = -t sum_j sigma(j) F_(m - t j).  No
    identity about this product (pentagonal theorem, triple product) is
    assumed anywhere.
    """
    return product_series(ProductSpec(((scale, 1),)), order)


@dataclass(frozen=True)
class ProductSpec:
    """A finite product of phi(q^scale)^power factors.

    Factors are canonicalized on construction: equal scales merge by adding
    powers, zero powers drop out, and the remainder sorts by scale, so two
    specs describing the same product compare equal structurally.
    """

    factors: tuple[tuple[Fraction, int], ...]

    def __post_init__(self) -> None:
        merged: dict[Fraction, int] = {}
        for scale, power in self.factors:
            s = as_rational(scale)
            if s <= 0:
                raise ValueError("factor scales must be positive")
            if type(power) is not int:
                raise ValueError("factor powers must be integers")
            merged[s] = merged.get(s, 0) + power
        canon = tuple(sorted((s, p) for s, p in merged.items() if p))
        object.__setattr__(self, "factors", canon)

    def to_json(self) -> dict:
        return {
            "factors": [
                {"scale": format_rational(s), "power": p} for s, p in self.factors
            ]
        }

    @staticmethod
    def from_json(data: dict) -> "ProductSpec":
        """The spec of a JSON object; unknown fields and wrong types raise ValueError."""
        (factors,) = _json_fields(data, "product spec", "factors")
        if not isinstance(factors, list):
            raise ValueError(f"product spec field 'factors' must be a list, got {factors!r}")
        return ProductSpec(
            tuple(
                (_json_rational(scale, "factor scale"), _json_int(power, "factor power"))
                for scale, power in (_json_fields(f, "factor", "scale", "power") for f in factors)
            )
        )


# Balanced w-bit slots: v_j in [-2^(w-1), 2^(w-1)) pack into one int, slot j at
# bit w*j on any machine; xor with the lift flips a two's complement word's top
# bit, adding 2^(w-1).  Widths with an array typecode move through one array;
# wider slots, multiples of 64, go through bytes one slot at a time.
_BLOCK = 32
_PRICE = 4  # product_series gives the price rule and its measurement
_TYPECODES = {array(code).itemsize * 8: code for code in "bhiq"}


def _slot_width(bound: int) -> int:
    """The narrowest of 8, 16, 32, 64 or a multiple of 64 with bound < 2^(w-1)."""
    need = bound.bit_length() + 1
    return next((w for w in (8, 16, 32, 64) if need <= w), -(-need // 64) * 64)


def _lift(k: int, w: int) -> int:
    """2^(w-1) in each of k w-bit slots."""
    return int.from_bytes((1 << (w - 1)).to_bytes(w // 8, "little") * k, "little")


def _words(code: str, data) -> array:
    """array(code, data), its words written or read in little-endian order."""
    words = array(code, data)
    if sys.byteorder == "big":
        words.byteswap()
    return words


def _pack(values: list[int], w: int) -> int:
    """The packed int of values in w-bit slots."""
    lift = _lift(len(values), w)
    code = _TYPECODES.get(w)
    if code:
        raw = _words(code, values).tobytes()
    else:
        raw = b"".join(v.to_bytes(w // 8, "little", signed=True) for v in values)
    return (int.from_bytes(raw, "little") ^ lift) - lift


def _unpack(x: int, k: int, w: int):
    """The k balanced w-bit slots of x, the inverse of _pack."""
    lift = _lift(k, w)
    raw = ((x + lift) ^ lift).to_bytes(w // 8 * k, "little")
    code = _TYPECODES.get(w)
    if code:
        return _words(code, raw)
    n = w // 8
    return [int.from_bytes(raw[i : i + n], "little", signed=True) for i in range(0, len(raw), n)]


def _log_derivative(spec: ProductSpec, d: int, units: int) -> list[int]:
    """L_0..L_units on the grid of 1/d, by the sieve of product_series."""
    steps = [(int(s * d), p) for s, p in spec.factors]
    logd = [0] * (units + 1)
    top = units // min(steps)[0] if steps else 0
    sigma = [0] * (top + 1)
    for e in range(1, isqrt(top) + 1):
        # k = e*f with f >= e gains e + f; the square e*e gains e once
        sigma[e * e :: e] = map(add, sigma[e * e :: e], range(2 * e, top // e + e + 1))
        sigma[e * e] -= e
    for t, p in steps:
        logd[t::t] = map(sub, logd[t::t], map((p * t).__mul__, sigma[1 : units // t + 1]))
    return logd


def _solve(logd: list[int], lmax: int, coeffs: list[int], support: list[int], l: int, r: int):
    """Solve m F_m = sum_(j<m) L_(m-j) F_j for l <= m < r, as product_series sets out."""
    if r - l > _BLOCK and r > 2 * _BLOCK:
        mid = (l + r) // 2
        _solve(logd, lmax, coeffs, support, l, mid)
        nonzero = mid - l - coeffs[l:mid].count(0)
        left = support[-nonzero:] if nonzero * (r - mid) >= _PRICE * (r - l) else []
        if left:
            del support[-nonzero:]
            w = _slot_width((mid - l) * max(map(abs, coeffs[l:mid])) * lmax)
            x = _pack(coeffs[l:mid], w) * _pack(logd[1 : r - l], w)
            x = _unpack(x, mid - l + r - l - 2, w)[mid - l - 1 : r - l - 1]
            coeffs[mid:r] = map(add, coeffs[mid:r], x)
            del x  # the right half recurses without it
        _solve(logd, lmax, coeffs, support, mid, r)
        support += left
        return
    for m in range(l or 1, r):
        acc = coeffs[m]
        for j in support:
            acc += logd[m - j] * coeffs[j]
        c, rem = divmod(acc, m)
        if rem:
            raise ArithmeticError(f"product recurrence: {acc} is not divisible by {m}")
        coeffs[m] = c
        if c:
            support.append(m)


def product_series(spec: ProductSpec, order: RationalLike) -> QSeries:
    """Expand a ProductSpec through the requested order.

    On the common grid x = q^(1/d), d the lcm of the scale denominators, the
    product is F = prod_i prod_(j>=1) (1 - x^(t_i j))^(p_i) with t_i = a_i d.
    Its logarithmic derivative x F'/F = sum_(k>=1) L_k x^k has
    L_k = -sum_i p_i t_i sigma(k / t_i) over the t_i dividing k, and
    comparing coefficients in x F' = F * (x F'/F) gives F_0 = 1 and
    m F_m = sum_(j<m) L_(m-j) F_j, the recurrence behind
    n p(n) = sum sigma(k) p(n-k) for partitions (Apostol, ch. 14).  It is
    exact over the integers and assumes no identity about the product; a
    division that leaves a remainder raises ArithmeticError.  Every factor
    starts at q^0, so the result is guaranteed through the request; a
    negative request gives the zero series.

    L sums sigma once by divisor pairs (e, k/e), e <= sqrt(k), and slices
    each factor's share out of it.  Up to 2B = 64 slots each F_m is pulled
    in turn; longer windows solve [l, r) = [0, n + 1) by halves (online
    convolution; van der Hoeven, J. Symb. Comput. 34, 2002): solve [l, mid);
    push it into [mid, r) if its nonzero count times r - mid, the pulls
    saved, is at least _PRICE = 4 times r - l, the slots packed (2 to 8
    measured alike; 16 and 32 gave back 12% and 44% of the gain on the
    sparse classical sides); solve [mid, r).  Ranges of at most B = 32
    slots or in the first 2B are pulled over the support, the nonzero
    F_j < m that no push covered: a pushed half leaves it while its sibling
    is solved, then rejoins it.  A push multiplies packed ints (Harvey, J.
    Symb. Comput. 44, 2009), F_l..F_(mid-1) by L_1..L_(r-l-1), into
    [mid, r).  Its slots sum mid - l terms of size at most max|F_left|
    max|L|, a bound on each packed value too (a pushed half has 8 nonzero
    F, so some L_k != 0); _slot_width fits it.
    """
    t = as_rational(order)
    d = lcm(*(s.denominator for s, _ in spec.factors))
    units = floor(t * d)
    if units < 0:
        return QSeries.zero(t, d)
    logd = _log_derivative(spec, d, units)
    coeffs = [1] + [0] * units
    _solve(logd, max(map(abs, logd)), coeffs, [0], 0, units + 1)
    return QSeries.from_window(d, 0, coeffs, units)


# -- comparison up to a monomial shift --------------------------------------


def normalize_shift(a: QSeries) -> tuple[QSeries, Fraction]:
    """Divide out the leading monomial so the series starts at q^0.

    Returns the normalized series and the exponent shift removed.  The zero
    series has no leading monomial and is rejected.
    """
    if a.is_zero():
        raise ValueError("cannot normalize the zero series")
    shift = Fraction(a.lo, a.denom)
    return QSeries(a.denom, 0, a.coeffs, a.order - a.lo), shift


@dataclass(frozen=True)
class Mismatch:
    """First exponent at which two compared series disagree."""

    exponent: Fraction
    lhs_coeff: int
    rhs_coeff: int

    def to_json(self) -> dict:
        return {
            "exponent": format_rational(self.exponent),
            "lhs_coeff": str(self.lhs_coeff),
            "rhs_coeff": str(self.rhs_coeff),
        }


@dataclass(frozen=True)
class VerifyReport:
    """Outcome of comparing two series after shift normalization.

    checked_through is the largest normalized exponent through which both
    sides carried guaranteed coefficients; the comparison covered exactly
    that window.  wall_time_ms is bookkeeping for humans and is excluded
    from canonical JSON unless explicitly requested, so reports stay
    byte-reproducible.
    """

    match: bool
    checked_through: Fraction
    first_mismatch: Optional[Mismatch]
    lhs_shift: Fraction
    rhs_shift: Fraction
    wall_time_ms: int = 0

    def to_json(self, include_timing: bool = False) -> dict:
        out = {
            "match": self.match,
            "checked_through": format_rational(self.checked_through),
            "first_mismatch": (
                None if self.first_mismatch is None else self.first_mismatch.to_json()
            ),
            "lhs_shift": format_rational(self.lhs_shift),
            "rhs_shift": format_rational(self.rhs_shift),
        }
        if include_timing:
            out["wall_time_ms"] = self.wall_time_ms
        return out


def series_compare(lhs: QSeries, rhs: QSeries) -> VerifyReport:
    """Compare two series coefficient-by-coefficient after normalization.

    Each nonzero side is first divided by its leading monomial (the shifts
    are reported), then coefficients are compared through the smaller of the
    two normalized guaranteed orders.  A zero side has no leading monomial:
    it reads as 0 through q^0 with shift 0, so zero compares equal to zero,
    through q^0, and differs from any nonzero side at q^0.
    """
    (na, sa), (nb, sb) = (
        (QSeries(s.denom, 0, (0,), 0), Fraction(0)) if s.is_zero() else normalize_shift(s)
        for s in (lhs, rhs)
    )
    m = lcm(na.denom, nb.denom)
    na, nb = na.rebase(m), nb.rebase(m)
    units = min(na.order, nb.order)
    wa, wb = na.coeffs[: units + 1], nb.coeffs[: units + 1]
    mism = None
    if wa != wb:
        i = next(i for i, (ca, cb) in enumerate(zip(wa, wb)) if ca != cb)
        mism = Mismatch(Fraction(i, m), wa[i], wb[i])
    return VerifyReport(mism is None, Fraction(units, m), mism, sa, sb)


def _compare_builders(
    make_lhs: Callable[[Fraction], QSeries],
    make_rhs: Callable[[Fraction], QSeries],
    order: Fraction,
) -> VerifyReport:
    """Build each side of an identity once and compare them through the order.

    Builders take a relative order: make(order) returns its side guaranteed
    through order above the side's exact leading exponent, which the caller
    computes up front, so after normalization each window spans the request
    and nothing is rebuilt.  A side whose leading terms cancel starts higher
    and its shorter window shows in checked_through.  A negative order is
    refused: it would check nothing.
    """
    if order < 0:
        raise ValueError(f"order must be nonnegative, got {format_rational(order)}")
    start = time.perf_counter()
    report = series_compare(make_lhs(order), make_rhs(order))
    elapsed = int((time.perf_counter() - start) * 1000)
    return replace(report, wall_time_ms=elapsed)


# -- plain-text rendering ----------------------------------------------------


def _qpow(e: Fraction) -> str:
    if e == 1:
        return "q"
    if e.denominator == 1:
        return f"q^{e}"
    return f"q^({e})"


def render(a: QSeries) -> str:
    """Human-readable form, e.g. "1 - q - q^2 + q^5 + q^7 + O(q^8)"."""
    tail = f"O({_qpow(Fraction(a.order + 1, a.denom))})"
    if a.is_zero():
        return f"0 + {tail}"
    parts: list[str] = []
    for e, c in a.terms():
        mag = abs(c)
        if e == 0:
            body = str(mag)
        elif mag == 1:
            body = _qpow(e)
        else:
            body = f"{mag}*{_qpow(e)}"
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if c > 0 else f"- {body}")
    parts.append(f"+ {tail}")
    return " ".join(parts)
