"""Literal factor-by-factor expansion of Euler products, used only by the tests.

Each factor phi(q^a) = prod_(j>=1) (1 - q^(a j)) is multiplied out by
two-term in-place updates over the finitely many factors below the order,
and a product spec is assembled from those with series_inv and repeated
mul_oracle, the schoolbook Cauchy product.  It shares no machinery with the
logarithmic-derivative recurrence in qchar.qseries.product_series, nor with
the packed kernel behind series_mul, so each checks the other.
log_derivative_oracle sieves that recurrence's L_k by a loop over every
multiple, the check on the divisor-pair sieve of qchar.qseries.
"""

from math import floor, lcm

from qchar.qseries import (
    ProductSpec,
    QSeries,
    RationalLike,
    as_rational,
    series_inv,
)
from terms_oracle import from_terms


def phi_oracle(scale: RationalLike, order: RationalLike, denom: int) -> QSeries:
    """phi(q^scale) through the order, on the grid of multiples of 1/denom."""
    a = as_rational(scale)
    t = as_rational(order)
    step = a * denom
    if a <= 0 or step.denominator != 1:
        raise ValueError("scale must be positive and lie on the grid")
    units = floor(t * denom)
    if units < 0:
        return QSeries.zero(t, denom)
    step = int(step)
    out = [0] * (units + 1)
    out[0] = 1
    e = step
    while e <= units:
        for i in range(units, e - 1, -1):
            c = out[i - e]
            if c:
                out[i] -= c
        e += step
    return QSeries.from_window(denom, 0, out, units)


def mul_oracle(a: QSeries, b: QSeries) -> QSeries:
    """Cauchy product term by term, with series_mul's guarantee.

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


def product_oracle(spec: ProductSpec, order: RationalLike) -> QSeries:
    """The spec's product through the order, one phi factor at a time."""
    t = as_rational(order)
    d = 1
    for s, _ in spec.factors:
        d = lcm(d, s.denominator)
    result = from_terms([(0, 1)], t, d)
    for scale, power in spec.factors:
        f = phi_oracle(scale, t, d)
        if power < 0:
            f = series_inv(f)
        for _ in range(abs(power)):
            result = mul_oracle(result, f)
    return result


def log_derivative_oracle(spec: ProductSpec, d: int, units: int) -> list[int]:
    """L_0..L_units of the spec on the grid of 1/d: step j of factor i adds
    -p_i t_i j at every multiple of t_i j, t_i = a_i d."""
    logd = [0] * (units + 1)
    for scale, power in spec.factors:
        step = int(scale * d)
        for e in range(step, units + 1, step):
            w = power * e
            for k in range(e, units + 1, e):
                logd[k] -= w
    return logd


def power_oracle(a: QSeries, n: int) -> QSeries:
    """a^n for a series a = 1 + O(q) on its own grid, by J. C. P. Miller's
    recurrence: g = a^n satisfies a g' = n a' g, so g_0 = 1 and
    m g_m = sum_(k=1..m) ((n + 1) k - m) a_k g_(m-k)."""
    if a.lo != 0 or a.coeffs[0] != 1:
        raise ValueError("the series must start 1 + O(q)")
    f = a.coeffs
    g = [1] + [0] * (a.order)
    for m in range(1, a.order + 1):
        acc = sum(((n + 1) * k - m) * f[k] * g[m - k] for k in range(1, m + 1) if f[k])
        g[m], r = divmod(acc, m)
        if r:
            raise ArithmeticError(f"power recurrence: {acc} is not divisible by {m}")
    return QSeries.from_window(a.denom, 0, g, a.order)
