"""Truncated formal power series in q with exact integer coefficients.

Exponents live on a grid of integer multiples of 1/denom, so series with
genuinely fractional exponents (q^(1/2), q^(5/3), ...) are first-class
values.  Every series carries the largest grid exponent through which its
coefficients are guaranteed correct, and every operation propagates that
guarantee honestly rather than optimistically.  All arithmetic is over
arbitrary-precision integers and exact rationals; nothing here touches
floating point.  product_series solves its recurrence by halves of its window
and pushes a solved half into the next when it has at least 8 nonzero
coefficients.  Handed a candidate window, such as an identity's lattice
side, it first certifies the candidate against the recurrence, and returns
it when it passes, since the recurrence has one solution.  Pushes and
series_mul share one packed kernel, _convolve; the certificate, _certify,
settles every coefficient with one integer equality.  Both scatter shifted
packed slots for sparse coefficients and multiply once for dense ones.  The
recurrence's log-derivative L has one source, _sieve_packer, which packs it
straight from the divisor sums: the certificate reads that int, and the
solve unpacks it into its list.  The divisor sums sigma(k) come from one
table per process, sieved on the first product that needs it, never at
import, and sieved again, longer, when a product reaches past its end.

A series is checked once, where it enters: QSeries(...), QSeries.from_window
and QSeries.zero scan every field and coefficient.  The windows the program
builds, slices and relabellings of checked series or the plain-int output
of a kernel, go through _series and _window unchecked: a scan would repeat
a check their source already passed, at O(n) a build.
"""

from __future__ import annotations

import re
import reprlib
import sys
import time
from array import array
from dataclasses import dataclass, replace
from fractions import Fraction
from math import floor, gcd, isqrt, lcm
from itertools import accumulate, compress, repeat
from operator import add, lshift, mul
from typing import Callable, Iterable, Optional, Union

RationalLike = Union[int, str, Fraction]

__all__ = [
    "QSeries",
    "ProductSpec",
    "Mismatch",
    "VerifyReport",
    "as_rational",
    "format_rational",
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
# errors echo values through this: two items a level, two levels, cut short
_BRIEF = reprlib.Repr()
_BRIEF.maxlevel = _BRIEF.maxlist = _BRIEF.maxdict = 2


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
                f"not a rational number (use an integer or num/den): {_BRIEF.repr(x)}"
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
        raise ValueError(f"{what} must be a JSON object, got {_BRIEF.repr(data)}")
    for key in keys:
        if key not in data:
            raise ValueError(f"{what} is missing the {key!r} field")
    unknown = [key for key in data if key not in keys]
    if unknown:
        raise ValueError(f"{what} has unknown fields {_BRIEF.repr(unknown)}")
    return [data[key] for key in keys]


def _json_object(pairs: list) -> dict:
    """json.loads's object_pairs_hook: refuse a repeated key, which it would drop."""
    data = {}
    for key, value in pairs:
        if key in data:
            raise ValueError(f"spec repeats the key {_BRIEF.repr(key)}")
        data[key] = value
    return data


def _json_int(value, what: str) -> int:
    """An int or an integer string; floats and booleans are refused, not cut."""
    if isinstance(value, str) and _INT_RE.match(value.strip()):
        return int(value)
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    raise ValueError(f"{what} must be an integer, got {_BRIEF.repr(value)}")


def _json_rational(value, what: str) -> Fraction:
    try:
        if not isinstance(value, bool) and isinstance(value, (int, str)):
            return as_rational(value)
    except ValueError:
        pass
    got = _BRIEF.repr(value)
    raise ValueError(f"{what} must be an integer or a num/den rational, got {got}")


def _check_fields(denom, lo, coeffs, order) -> None:
    """The field checks QSeries(...) and from_window share: bool is an int, but
    to_json would write it as a JSON boolean, so each field's type is compared."""
    if type(denom) is not int or denom < 1:
        raise ValueError("denom must be a positive integer")
    if type(lo) is not int or type(order) is not int:
        raise ValueError("window bounds must be plain integers")
    if lo > order:
        raise ValueError("window start exceeds the guaranteed order")
    if len(coeffs) != order - lo + 1:
        raise ValueError("coefficient window does not span [lo, order]")
    if {*map(type, coeffs)} != {int}:
        raise ValueError("coefficients must be plain integers")


@dataclass(frozen=True)
class QSeries:
    """Sum of coeffs[i] * q^((lo+i)/denom), guaranteed correct through q^(order/denom).

    The coefficient window is dense over the grid slots lo..order.  A nonzero
    series always has coeffs[0] != 0 (the window start is tight); the zero
    series is stored canonically as the single coefficient (0,) sitting at the
    order slot.  Instances are immutable and safe to share between threads.

    QSeries(...), from_window and zero check what they build, and raise
    ValueError on a bool, float or int-subclass field and on a window that
    is not tight or does not span [lo, order].  Windows the program builds
    skip that O(n) scan; the module docstring says why.
    """

    denom: int
    lo: int
    coeffs: tuple[int, ...]
    order: int

    def __post_init__(self) -> None:
        _check_fields(self.denom, self.lo, self.coeffs, self.order)
        if self.coeffs[0] == 0 and any(self.coeffs):
            raise ValueError("window start is not tight")
        if not any(self.coeffs) and len(self.coeffs) != 1:
            raise ValueError("zero series must collapse to a single slot")

    # -- construction ---------------------------------------------------

    @staticmethod
    def from_window(denom: int, lo: int, coeffs: Iterable[int], order: int) -> "QSeries":
        """Build from a dense window over [lo, order], canonicalizing as needed.

        Every field and slot is checked once, before leading zeros go, so a
        bool or float is refused even where it would be dropped; _window then
        makes the window tight, so no second scan is needed.
        """
        cs = tuple(coeffs)
        _check_fields(denom, lo, cs, order)
        return _window(denom, lo, cs, order)

    @staticmethod
    def zero(order: RationalLike, denom: int = 1) -> "QSeries":
        units = floor(as_rational(order) * denom)
        return QSeries(denom, units, (0,), units)

    # -- inspection -----------------------------------------------------

    def is_zero(self) -> bool:
        return not any(self.coeffs)

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
        if type(denom) is not int or denom < 1:
            raise ValueError("denom must be a positive integer")
        if denom % self.denom:
            raise ValueError("new denom must be a multiple of the current denom")
        f = denom // self.denom
        if f == 1:
            return self
        out = [0] * ((self.order - self.lo) * f + 1)
        out[::f] = self.coeffs
        return _series(denom, self.lo * f, tuple(out), self.order * f)

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
        return _series(self.denom // g, self.lo // g, self.coeffs[::g], self.order // g)

    def truncated(self, order: RationalLike) -> "QSeries":
        """Weaken the guarantee to a smaller order, discarding higher slots."""
        t = as_rational(order)
        units = t.numerator * self.denom // t.denominator
        if units > self.order:
            raise ValueError("cannot extend a series beyond its guaranteed order")
        if units == self.order:  # immutable, so the series itself is its cut
            return self
        if units < self.lo:
            return _series(self.denom, units, (0,), units)
        # the window start stays tight: coeffs[0] is nonzero or the only slot
        return _series(self.denom, self.lo, self.coeffs[: units - self.lo + 1], units)

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


def _series(denom: int, lo: int, coeffs: tuple[int, ...], order: int) -> QSeries:
    """A QSeries built inside the program: its fields set, __post_init__ skipped.

    Each caller hands over plain ints, denom >= 1, and coeffs a tuple of
    plain ints that is tight and spans [lo, order], taken from a series
    already checked or from the int output of a kernel (_convolve, _solve,
    the lattice walk; _unpack's arrays are copied into a tuple first).  The
    tests run every builder's output through the full check.
    """
    series = object.__new__(QSeries)
    series.__dict__.update(denom=denom, lo=lo, coeffs=coeffs, order=order)
    return series


def _window(denom: int, lo: int, coeffs, order: int) -> QSeries:
    """The series of a dense window over [lo, order], leading zeros stripped
    and the rest copied into one tuple; an all-zero window collapses to (0,)
    at the order.  Unchecked, like _series: from_window checks its input."""
    i, top = 0, len(coeffs) - 1
    while i < top and coeffs[i] == 0:
        i += 1
    if coeffs[i] == 0:
        return _series(denom, order, (0,), order)
    return _series(denom, lo + i, tuple(coeffs[i:] if i else coeffs), order)


# -- ring operations ------------------------------------------------------


def series_mul(a: QSeries, b: QSeries) -> QSeries:
    """Cauchy product, one _convolve read at its factors' stride.

    The result is guaranteed through min(a.order + b.lo, b.order + a.lo) on
    the common grid: the unknown tail of one factor first pollutes the product
    at its own order plus the other factor's lowest exponent.  The product's
    n slots read the first n of each factor, every g-th slot, g the gcd of
    the factors' nonzero offsets there: a factor rebased onto a finer grid
    would otherwise carry its zero slots through the packed product.
    """
    m = lcm(a.denom, b.denom)
    a, b = a.rebase(m), b.rebase(m)
    order = min(a.order + b.lo, b.order + a.lo)
    if a.is_zero() or b.is_zero():  # _convolve needs a nonzero c
        return _series(m, order, (0,), order)
    n = order - a.lo - b.lo + 1
    g = gcd(*compress(range(n), a.coeffs[:n]), *compress(range(n), b.coeffs[:n])) or 1
    bs = b.coeffs[:n:g]
    out = [0] * n
    out[::g] = _convolve(a.coeffs[:n:g], [0, *bs], max(map(abs, bs)), 0, len(bs))
    # tight: out[0] = a.coeffs[0] * b.coeffs[0] is nonzero
    return _series(m, a.lo + b.lo, tuple(out), order)


def series_pow(a: QSeries, n: int) -> QSeries:
    """Integer power by repeated squaring; negative powers invert first."""
    if type(n) is not int:  # bool is an int, but True is no power
        raise ValueError("series powers must be integers")
    if n < 0:
        return series_pow(series_inv(a), -n)
    if a.order < 0:  # the unit's constant term lies past the guaranteed order
        result = QSeries(a.denom, a.order, (0,), a.order)
    else:
        result = QSeries(a.denom, 0, (1,) + (0,) * a.order, a.order)
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
    specs describing the same product compare equal structurally.  Scales
    are merged and sorted as ints where they are integral, a Fraction with
    denominator 1 read as its numerator, and stored as Fractions, each built
    once at the end.
    """

    factors: tuple[tuple[Fraction, int], ...]

    def __post_init__(self) -> None:
        merged: dict[int | Fraction, int] = {}
        for scale, power in self.factors:
            s = scale if type(scale) is int else as_rational(scale)
            if type(s) is not int and s.denominator == 1:
                s = s.numerator
            if s <= 0:
                raise ValueError("factor scales must be positive")
            if type(power) is not int:
                raise ValueError("factor powers must be integers")
            merged[s] = merged.get(s, 0) + power
        canon = tuple(
            (Fraction(s) if type(s) is int else s, p) for s, p in sorted(merged.items()) if p
        )
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
            got = _BRIEF.repr(factors)
            raise ValueError(f"product spec field 'factors' must be a list, got {got}")
        return ProductSpec(
            tuple(
                (_json_rational(scale, "factor scale"), _json_int(power, "factor power"))
                for scale, power in (_json_fields(f, "factor", "scale", "power") for f in factors)
            )
        )


# Balanced w-bit slots: v_j in [-2^(w-1), 2^(w-1)) pack into one int, slot j at
# bit w*j on any machine; xor with the lift flips a two's complement word's top
# bit, adding 2^(w-1).  Every packed int, the lattice walk's, _convolve's and
# the certificate's, takes its width from _slot_width, the fewest whole bytes.
# Widths with an array typecode, 8, 16, 32 and 64 bits, move through one array.
# Below 64 bits a slot is the low bytes of a 64-bit word, copied one byte plane
# at a time.  Wider slots encode one to_bytes a slot, which measured faster
# than building word arrays from Python ints, and decode widened to whole
# 64-bit words, the top byte's sign filling the bytes above: one strided array
# per place, joined by C-level maps.
_BLOCK = 32
_PUSH = 8  # the nonzero count that pushes a half; product_series says why
_SPARSE = 8  # the density at which _convolve scatters instead of multiplying
_TYPECODES = {array(code).itemsize * 8: code for code in "bhiq"}
_SIGN_FILL = bytes(0xFF if b >> 7 else 0 for b in range(256))  # a top byte's sign byte


def _slot_width(bound: int) -> int:
    """The fewest whole bytes w with bound < 2^(w-1): the width of every packed int."""
    return 8 * (bound.bit_length() // 8 + 1)


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
    elif w < 64:
        words, size = _words("q", values).tobytes(), w // 8
        raw = bytearray(size * len(values))
        for b in range(size):
            raw[b::size] = words[b::8]
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
    size, q = w // 8, -(-w // 64)
    if w % 64:
        # widen each slot to q whole words, its sign in the bytes above it
        wide, span = bytearray(8 * q * k), 8 * q
        for b in range(size):
            wide[b::span] = raw[b::size]
        fill = raw[size - 1 :: size].translate(_SIGN_FILL)
        for b in range(size, span):
            wide[b::span] = fill
        raw = wide
    # a slot's signed top word, then each lower word shifted in below it
    slots = _words("q", raw)[q - 1 :: q]
    low = _words("Q", raw)
    for t in range(q - 2, -1, -1):
        slots = map(add, map(lshift, slots, repeat(64)), low[t::q])
    return list(slots)


# (max sigma(1..k) for each k, sigma(0..n) as 8-byte words), sieved on first
# use; a longer table replaces both whole, so views a caller holds never
# change, and threads that race to grow them at worst sieve twice
_SIGMA = ([0], bytes(8))


def _divisor_sums(top: int) -> tuple[list[int], bytes]:
    """The process's one divisor-sum table, for some n >= top: the running
    maximum peak[k] = max sigma(1..k) and the values sigma(0..n) as
    little-endian 8-byte words, the two views _sieve_packer reads.  Sieved
    again, up to max(top, 2n), when top passes its end; the list of sigma
    lives only in the sieve."""
    global _SIGMA
    table = _SIGMA
    if top >= len(table[0]):
        n = max(top, 2 * (len(table[0]) - 1))
        sigma = [0] * (n + 1)
        for e in range(1, isqrt(n) + 1):
            # k = e*f with f >= e gains e + f; the square e*e gains e once
            sigma[e * e :: e] = map(add, sigma[e * e :: e], range(2 * e, n // e + e + 1))
            sigma[e * e] -= e
        table = _SIGMA = list(accumulate(sigma, max)), _words("q", sigma).tobytes()
    return table


def _sieve_packer(spec: ProductSpec, d: int, units: int):
    """(pack, lmax) for L_1..L_units on the grid of 1/d: the one source of L,
    for the certificate and the solve, with no list of L built.

    L_k takes -p t sigma(k/t) from each factor phi(x^t)^p, x = q^(1/d), with
    t dividing k.  lmax = sum |p| t max sigma(1..units // t) over the
    factors bounds |L_k|, read off the running maximum of the table.
    pack(w, reverse) is the int of L_1..L_units in w-bit slots, for any w
    with lmax < 2^(w-1), L_k at slot k - 1 or, reversed, at units - k.  The
    int of slots v_i is sum v_i 2^(w i), linear in v, so it adds -p t times
    the int of each factor's sigma(k/t) at the slots of its multiples k of
    t.  Those are written into zeroed bytes one byte plane at a time, each
    plane one strided slice copy out of the table's 8-byte words;
    sigma <= lmax < 2^(w-1), so the bytes above a value are zero.
    """
    # (t, p) for each factor phi(x^t)^p that reaches x^units
    steps = [(t, p) for s, p in spec.factors if (t := s.numerator * (d // s.denominator)) <= units]
    peak, words = _divisor_sums(units // min(steps)[0] if steps else 0)
    lmax = sum(abs(p) * t * peak[units // t] for t, p in steps)

    def pack(w: int, reverse: bool) -> int:
        size = w // 8  # bytes a slot
        ell = 0
        for t, p in steps:
            n, slots = units // t, bytearray(size * units)
            start, step = ((units - t) * size, -t * size) if reverse else ((t - 1) * size, t * size)
            for b in range(min(size, 8)):
                slots[start + b :: step] = words[8 + b : 8 * n + 8 : 8]
            ell -= p * t * int.from_bytes(slots, "little")
        return ell

    return pack, lmax


def _cut(x: int, start: int, k: int, w: int) -> int:
    """The packed int of slots start..start+k-1 of x, whose w-bit slots all
    lie strictly inside (-2^(w-1), 2^(w-1)), as _convolve's do."""
    shift, bits = w * start, w * k
    # the slots below start sum to less than 2^(shift-1) in size: rounding drops them
    part = ((x + (1 << shift >> 1)) >> shift) & ((1 << bits) - 1)
    if part >> (bits - 1):
        part -= 1 << bits
    return part


def _convolve(c: list[int], logd: list[int], lmax: int, start: int, k: int):
    """Slots start..start+k-1 of (sum_j c_j x^j)(sum_i L_(i+1) x^i), at least
    one c_j nonzero and lmax >= max|L| (Kronecker substitution; Harvey,
    J. Symb. Comput. 44, 2009).  L is read from L_1 on, so a general
    multiply by b passes [0] + b, as series_mul does.

    L_1..L_(start+k) are packed once at width w.  When at most one c_j in
    _SPARSE is nonzero, each nonzero c_j adds c_j times that int shifted up
    j slots, a c_j of +-1 by adding or subtracting the shifted int with no
    multiply (every coefficient of euler's expansion is +-1); otherwise c
    is packed too and the two are multiplied once.
    Either way _cut keeps the k slots asked for.  Width: every slot of the
    full product, those _cut drops included, is a sum of c_j L_i with
    distinct j, so it is at most ||c||_1 max(lmax, 1), ||c||_1 = sum |c_j|,
    and so is each packed c_j or L_i; _slot_width fits that bound below
    2^(w-1), and the rounding in _cut is exact.
    """
    js = list(compress(range(len(c)), c))
    w = _slot_width(sum(map(abs, c)) * max(lmax, 1))
    ell = _pack(logd[1 : start + k + 1], w)
    if len(js) * _SPARSE <= len(c):
        acc = 0
        for j in js:
            if c[j] == 1:
                acc += ell << j * w
            elif c[j] == -1:
                acc -= ell << j * w
            else:
                acc += c[j] * ell << j * w
    else:
        acc = _pack(c, w) * ell
    return _unpack(_cut(acc, start, k, w), k, w)


def _solve(logd: list[int], lmax: int, coeffs: list[int], support: list[int], l: int, r: int):
    """Solve m F_m = sum_(j<m) L_(m-j) F_j for l <= m < r, as product_series sets out."""
    if r - l > _BLOCK and r > 2 * _BLOCK:
        mid = (l + r) // 2
        _solve(logd, lmax, coeffs, support, l, mid)
        half = coeffs[l:mid]
        nonzero = mid - l - half.count(0)
        left = []
        if nonzero >= _PUSH:
            left = support[-nonzero:]
            del support[-nonzero:]
            x = _convolve(half, logd, lmax, mid - l - 1, r - mid)
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


def product_series(spec: ProductSpec, order: RationalLike,
                   candidate: Optional[QSeries] = None) -> QSeries:
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

    A candidate window, when given, is checked before anything is solved;
    qchar.affine.verify hands over an identity's lattice side.
    It is read over its leading monomial at the exponents m/d as c_0..c_n
    (terms off that grid are not read; a candidate that is zero or
    guaranteed short of the request is discarded).  If c_0 = 1 and
    m c_m = S_m for 1 <= m <= n, where S = L c, c is returned as the
    expansion.  A pass is a proof: F_0 = 1 and the recurrence fix F_1, F_2,
    ... one at a time, so the one window that satisfies them is F,
    whatever produced it.  Checking needs the product L c once and
    offline, where solving needs it online, half by half: _certify packs L
    straight from the divisor-sum table (_sieve_packer), with a bound on
    |L| read off the table, and compares all of S with the packed m c_m as
    one integer, building no list of L.  All or nothing: a failing
    candidate is discarded, and the recurrence is solved as below, so it
    costs one check on top of the solve.

    L has one source, _sieve_packer, called once a product: the certificate
    reads its int, and the solve unpacks that int at the width lmax proves
    into the list it reads.  It packs each factor's share out of
    _divisor_sums, the process's one table of sigma, sieved by divisor pairs
    (e, k/e), e <= sqrt(k), on first use and again, at least twice as long,
    when a product reaches past its end.  Up to 2B = 64 slots each F_m is
    pulled in turn; longer windows solve [l, r) = [0, n + 1) by halves
    (online convolution; van der Hoeven, J. Symb. Comput. 34, 2002): solve
    [l, mid); push its k nonzero F_j into [mid, r) or not; solve [mid, r).
    Ranges of at most B = 32 slots or in the first 2B are pulled over the
    support, the nonzero F_j < m that no push covered: a pushed half leaves
    it while its sibling is solved, then rejoins it.

    A half with k nonzero F_j is pushed when k >= _PUSH = 8.  A push is one
    _convolve of F_l..F_(mid-1) with L, whose slots mid - l - 1 to
    r - l - 2 land in [mid, r); it packs the r - l slots of L and saves the
    k (r - mid) multiply-adds that pulls would spend on the half.  Since
    r - mid = ceil((r - l) / 2) and every split has r - l > B, the saving is
    at least 4 (r - l) exactly when k >= 8: the rule is that price, read as
    a count.  A sparser half is pulled.
    """
    t = as_rational(order)
    d = lcm(*(s.denominator for s, _ in spec.factors))
    units = t.numerator * d // t.denominator
    if units < 0:
        return QSeries.zero(t, d)
    pack, lmax = _sieve_packer(spec, d, units)
    if candidate is not None:
        coeffs = _window_on_grid(candidate, d, units)
        if coeffs and _certify(coeffs, pack, lmax):
            return _series(d, 0, coeffs, units)
    w = _slot_width(lmax)
    logd = [0, *_unpack(pack(w, False), units, w)]
    coeffs = [1] + [0] * units
    _solve(logd, max(map(abs, logd)), coeffs, [0], 0, units + 1)
    return _series(d, 0, tuple(coeffs), units)


def _window_on_grid(candidate: QSeries, d: int, units: int) -> tuple[int, ...]:
    """c_0..c_units: the candidate over its leading monomial, read at the
    exponents m/d; empty when it is zero or guaranteed short of units/d."""
    if candidate.is_zero():
        return ()
    c = normalize_shift(candidate)[0]
    grid = lcm(d, c.denom)
    c, g = c.rebase(grid), grid // d
    if c.order < units * g:
        return ()
    return c.coeffs[: units * g + 1 : g]


def _certify(c: tuple[int, ...], pack: Callable[[int, bool], int], lmax: int) -> bool:
    """Whether c_0 = 1 and d_m = S_m - m c_m = 0 for 1 <= m <= units, where
    S_m = sum_(j<m) L_(m-j) c_j, with L_1..L_units given as pack(w, reverse),
    their int in w-bit slots, L_k at slot k - 1 or, reversed, at units - k
    (_sieve_packer's), and lmax >= max |L_k|.  No pass over the slots runs
    in Python: only the nonzero c_j of a sparse window are visited.

    Width.  With n = sum |c_j| over c_0..c_units, |S_m| <= n lmax and
    |m c_m| <= units n, so each d_m, and each L_k, c_j, m c_m and partial
    sum of the c_j that is packed, is at most n (lmax + units) in size, and
    _slot_width puts that bound below h = 2^(w-1).

    Equality.  Digits with |d_s| < h over k slots sum to less than
    2^(w k - 1) in size, so the sum is 0 modulo 2^(w k) only when it is 0,
    and then each d_s is, the lowest first, being 0 modulo 2^w.  _defect
    packs the d_m, and the verdict is that one int being 0:
    - dense, more than one c_j in _SPARSE nonzero among c_0..c_(units-1):
      the int of those c_j times the int of L has S_(s+1) at slot s, for
      s < units, and multiples of 2^(w units) above; the int of the m c_m
      at slot m - 1 is subtracted and the rest read modulo 2^(w units);
    - sparse, the rest: the reversed L with h added to each slot, the
      lift, has every slot in [0, 2^w), so shifting it down j slots drops
      the lowest j exactly and leaves L_k + h at slot units - j - k for
      k <= units - j, the slots that the d_m with m > j read.  Adding c_j
      times each such copy, in descending j so that the sum is never longer
      than its next term, leaves S_m + h sum_(j<m) c_j at slot units - m.
      The lifts come off at once: the partial sums are constant between
      nonzero c_j, so they are packed a run at a time and times h
      subtracted, with the m c_m at slot units - m; what is left is the
      d_m, exactly.
    """
    units = len(c) - 1
    if c[0] != 1 or not units:  # with no m >= 1, c_0 = 1 is the whole check
        return c[0] == 1
    w = _slot_width(sum(map(abs, compress(c, c))) * (lmax + units))
    return not _defect(c, pack, w, (units - c[:units].count(0)) * _SPARSE <= units)


def _defect(c: tuple[int, ...], pack: Callable[[int, bool], int], w: int, sparse: bool) -> int:
    """_certify's d_m at width w, by the kernel it names: d_m at slot m - 1
    modulo 2^(w units) when dense, at slot units - m exactly when sparse."""
    units = len(c) - 1
    if not sparse:
        target = _pack(list(map(mul, c[1:], range(1, units + 1))), w)
        return (_pack(c[:units], w) * pack(w, False) - target) & ((1 << w * units) - 1)
    size, lift = w // 8, _lift(units, w)
    ell = pack(w, True) + lift
    js = list(compress(range(units), c))
    # slot units - m: sum_(j<m) c_j, one run from each nonzero c_j on, and m c_m
    below, target, sums = 0, bytearray(size * units), bytearray(size * units)
    for j, nxt in zip(js, js[1:] + [units]):
        below += c[j]
        sums[(units - nxt) * size : (units - j) * size] = (
            below.to_bytes(size, "little", signed=True) * (nxt - j)
        )
        if c[nxt]:
            target[(units - nxt) * size : (units - nxt + 1) * size] = (
                (nxt * c[nxt]).to_bytes(size, "little", signed=True)
            )
    acc = 0
    for j in reversed(js):
        if c[j] == 1:
            acc += ell >> j * w
        elif c[j] == -1:
            acc -= ell >> j * w
        else:
            acc += c[j] * (ell >> j * w)
    lifts = (int.from_bytes(sums, "little") ^ lift) - lift << (w - 1)
    return acc - lifts - ((int.from_bytes(target, "little") ^ lift) - lift)


# -- comparison up to a monomial shift --------------------------------------


def normalize_shift(a: QSeries) -> tuple[QSeries, Fraction]:
    """Divide out the leading monomial so the series starts at q^0.

    Returns the normalized series and the exponent shift removed.  The zero
    series has no leading monomial and is rejected.
    """
    if a.is_zero():
        raise ValueError("cannot normalize the zero series")
    return _series(a.denom, 0, a.coeffs, a.order - a.lo), a.lowest_exponent()


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
        (_series(s.denom, 0, (0,), 0), Fraction(0)) if s.is_zero() else normalize_shift(s)
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
    through order above the side's exact leading exponent, which the builder
    finds in the same walk that expands the side, so after normalization
    each window spans the request and nothing is rebuilt.  A side whose
    leading terms cancel starts higher and its shorter window shows in
    checked_through.  A negative order is refused: it would check nothing.
    The rhs is built first, so the lhs builder may read the rhs window, as
    qchar.affine.verify hands it to the lhs as a candidate.
    """
    if order < 0:
        raise ValueError(f"order must be nonnegative, got {format_rational(order)}")
    start = time.perf_counter()
    rhs = make_rhs(order)
    report = series_compare(make_lhs(order), rhs)
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
