"""Tests for exact truncated q-series arithmetic.

Expected expansions are frozen from small independent oracles defined at the
top of this file (naive polynomial multiplication, a recursive partition
counter, the generalized pentagonal pattern), never from the code under test.
"""

import json
import random
from fractions import Fraction
from math import floor, gcd, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from product_oracle import log_derivative_oracle, phi_oracle, power_oracle, product_oracle
from qchar import affine, qseries
from qchar.affine import partitions, verify_proposition
from qchar.identities import (
    CLASSICAL_NAMES,
    class1_identity,
    class2_identity,
    classical_identity,
)
from qchar.qseries import (
    Mismatch,
    ProductSpec,
    QSeries,
    VerifyReport,
    as_rational,
    format_rational,
    normalize_shift,
    phi_series,
    product_series,
    render,
    series_add,
    series_compare,
    series_inv,
    series_mul,
    series_neg,
    series_pow,
    series_sub,
)


# -- oracles ----------------------------------------------------------------


def poly_mul(p, q, cap):
    """Dict-based polynomial product over integer exponents, truncated at cap."""
    out = {}
    for ep,cp in p.items():
        for eq, cq in q.items():
            e = ep + eq
            if e <= cap:
                out[e] = out.get(e, 0) + cp * cq
    return {e: c for e, c in out.items() if c}


def finite_euler_product(nfactors, cap):
    """Multiply out (1-x)(1-x^2)...(1-x^nfactors) term by term."""
    acc = {0: 1}
    for j in range(1, nfactors + 1):
        acc = poly_mul(acc, {0: 1, j: -1}, cap)
    return acc


def partition_count(n, largest=None):
    """Number of partitions of n with parts at most `largest`, by recursion."""
    if largest is None:
        largest = n
    if n == 0:
        return 1
    if largest == 0:
        return 0
    total = 0
    for part in range(1, largest + 1):
        if part <= n:
            total += partition_count(n - part, min(part, n - part) or (n - part))
    return total


def pentagonal_coeffs(cap):
    """Coefficients of sum over integer k of (-1)^k x^(k(3k+1)/2), through cap."""
    out = {}
    k = 0
    while True:
        hit = False
        for kk in (k, -k) if k else (0,):
            e = kk * (3 * kk + 1) // 2
            if e <= cap:
                out[e] = out.get(e, 0) + (-1) ** abs(kk)
                hit = True
        if not hit and k * (3 * k - 1) // 2 > cap:
            break
        k += 1
    return {e: c for e, c in out.items() if c}


def test_partition_oracle_sanity():
    assert [partition_count(n) for n in range(8)] == [1, 1, 2, 3, 5, 7, 11, 15]


# -- phi_series --------------------------------------------------------------


def test_phi_series_matches_multiplied_out_product():
    """phi(q) through order 7 equals (1-q)...(1-q^7) multiplied out by hand."""
    expected = finite_euler_product(7, 7)
    p = phi_series(1, 7)
    for e in range(8):
        assert p[e] == expected.get(e, 0)
    assert p.coeffs == (1, -1, -1, 0, 0, 1, 0, 1)
    assert p.order == 7 and p.lo == 0 and p.denom == 1


def test_phi_series_deep_window_against_oracle():
    expected = finite_euler_product(40, 40)
    p = phi_series(1, 40)
    for e in range(41):
        assert p[e] == expected.get(e, 0)


def test_phi_series_fractional_scale():
    """Scale 1/3 lives on the 1/3 grid; factors beyond the order drop out."""
    p = phi_series(Fraction(1, 3), 1)
    assert p.denom == 3
    assert p.order == 3
    # (1-x)(1-x^2)(1-x^3) truncated at x^3, with x = q^(1/3)
    expected = finite_euler_product(3, 3)
    for i in range(4):
        assert p[Fraction(i, 3)] == expected.get(i, 0)
    assert p[Fraction(1, 3)] == -1
    assert p[Fraction(2, 3)] == -1


def test_phi_series_scaled_grid():
    p = phi_series(2, 9)
    expected = finite_euler_product(4, 4)
    for e in range(10):
        if e % 2 == 0:
            assert p[e] == expected.get(e // 2, 0)
        else:
            assert p[e] == 0


def test_phi_series_empty_product_is_one():
    p = phi_series(5, 4)
    assert not p.is_zero()
    assert p.terms() == [(Fraction(0), 1)]
    assert p.order == 4


def test_phi_series_rejects_nonpositive_scale():
    with pytest.raises(ValueError):
        phi_series(0, 10)
    with pytest.raises(ValueError):
        phi_series(Fraction(-1, 2), 10)


def test_phi_series_pentagonal_pattern():
    """Cross-check against the pentagonal-number support, derived independently."""
    cap = 60
    expected = pentagonal_coeffs(cap)
    p = phi_series(1, cap)
    for e in range(cap + 1):
        assert p[e] == expected.get(e, 0)


# -- addition ----------------------------------------------------------------


def test_add_mixed_grids():
    a = QSeries.from_terms([(0, 1), (Fraction(1, 2), 1)], 2)
    b = QSeries.from_terms([(0, 1), (1, 1)], 2)
    s = series_add(a, b)
    assert s.denom == 2
    assert s[0] == 2 and s[Fraction(1, 2)] == 1 and s[1] == 1
    assert s.order_exponent() == 2


def test_add_cancellation_trims_window():
    a = QSeries.from_terms([(1, 3), (2, 4)], 6)
    b = QSeries.from_terms([(1, -3), (5, 1)], 6)
    s = series_add(a, b)
    assert s.lo == 2 and s.coeffs[0] == 4
    assert s.order == 6


def test_add_zero_is_identity():
    a = phi_series(1, 12)
    z = QSeries.zero(12)
    assert series_add(a, z) == a
    assert series_add(z, a) == a


def test_add_order_is_min():
    a = QSeries.one(10)
    b = QSeries.one(4)
    assert series_add(a, b).order_exponent() == 4


def test_sub_self_is_zero():
    a = phi_series(1, 9)
    assert series_sub(a, a).is_zero()


# -- multiplication ----------------------------------------------------------


def test_mul_telescopes_geometric_series():
    one_minus_q = QSeries.from_terms([(0, 1), (1, -1)], 30)
    geo = QSeries.from_window(1, 0, [1] * 31, 30)
    prod = series_mul(one_minus_q, geo)
    for e in range(31):
        assert prod[e] == (1 if e == 0 else 0)


def test_mul_truncation_contract():
    """Product order is min(a.order + b.lo, b.order + a.lo) on the common grid."""
    a = QSeries.from_window(1, 2, [1, 1, 1], 4)   # lo 2, order 4
    b = QSeries.from_window(1, -1, [1, 0, 5], 1)  # lo -1, order 1
    prod = series_mul(a, b)
    assert prod.order == min(4 + (-1), 1 + 2)
    assert prod.lo == 1
    assert prod[1] == 1


def test_mul_known_coefficients():
    a = QSeries.from_terms([(0, 1), (1, 2), (2, 3)], 4)
    b = QSeries.from_terms([(0, 5), (1, 7)], 4)
    prod = series_mul(a, b)
    # (1 + 2q + 3q^2)(5 + 7q) expanded by hand
    assert [prod[e] for e in range(4)] == [5, 17, 29, 21]


def test_mul_mixed_grid_exponents():
    a = QSeries.monomial(Fraction(1, 2), 1, 3)
    b = QSeries.monomial(Fraction(1, 3), 1, 3)
    prod = series_mul(a, b)
    assert prod[Fraction(5, 6)] == 1
    assert prod.denom == 6


def test_mul_by_zero():
    a = phi_series(1, 8)
    z = QSeries.zero(8)
    assert series_mul(a, z).is_zero()


def test_pow_binomials():
    base = QSeries.from_terms([(0, 1), (1, 1)], 6)
    cube = series_pow(base, 3)
    assert [cube[e] for e in range(4)] == [1, 3, 3, 1]
    assert series_pow(base, 0) == QSeries.one(6)


# -- inversion ----------------------------------------------------------------


def test_inv_geometric():
    a = QSeries.from_terms([(0, 1), (1, -1)], 5)
    inv = series_inv(a)
    assert inv.coeffs == (1, 1, 1, 1, 1, 1)


def test_inv_euler_counts_partitions():
    """1/phi(q) is the partition generating function; counted independently."""
    expected = [partition_count(n) for n in range(11)]
    assert expected == [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42]
    inv = series_inv(phi_series(1, 10))
    for n in range(11):
        assert inv[n] == expected[n]


def test_inv_roundtrip_is_one():
    a = phi_series(1, 20)
    prod = series_mul(a, series_inv(a))
    assert prod.order == 20
    for e in range(21):
        assert prod[e] == (1 if e == 0 else 0)


def test_inv_negative_leading_coefficient():
    a = series_neg(phi_series(1, 12))
    prod = series_mul(a, series_inv(a))
    for e in range(13):
        assert prod[e] == (1 if e == 0 else 0)


def test_inv_pulls_out_leading_monomial():
    a = series_mul(QSeries.monomial(2, 1, 12), phi_series(1, 10))
    inv = series_inv(a)
    assert inv.lowest_exponent() == -2
    prod = series_mul(a, inv)
    for e in range(prod.order + 1):
        assert prod[e] == (1 if e == 0 else 0)


def test_inv_rejects_zero():
    with pytest.raises(ValueError, match="non-invertible"):
        series_inv(QSeries.zero(5))


def test_inv_rejects_non_unit_leading_coefficient():
    with pytest.raises(ValueError, match="non-invertible"):
        series_inv(QSeries.from_terms([(0, 2), (1, 1)], 5))


# -- product specs -------------------------------------------------------------


def test_product_spec_canonicalizes():
    spec = ProductSpec(((Fraction(1), 1), (Fraction(2), 2), (Fraction(1), -1)))
    assert spec.factors == ((Fraction(2), 2),)
    assert ProductSpec(()) == ProductSpec(((Fraction(3), 0),))


def test_product_spec_rejects_bad_scale():
    with pytest.raises(ValueError):
        ProductSpec(((Fraction(0), 1),))


def test_product_series_empty_is_one():
    p = product_series(ProductSpec(()), 6)
    assert p.terms() == [(Fraction(0), 1)]


def test_product_series_gauss_quotient():
    """phi(q^2)^2/phi(q) through 10: the oracle enumerates 2n^2+n over all integers."""
    expected = {}
    for n in range(-10, 11):
        e = 2 * n * n + n
        if e <= 10:
            expected[e] = 1
    spec = ProductSpec(((Fraction(2), 2), (Fraction(1), -1)))
    p = product_series(spec, 10)
    for e in range(11):
        assert p[e] == expected.get(e, 0)


def test_product_series_cancelling_factors():
    spec = ProductSpec(((Fraction(1), 3), (Fraction(1), -3)))
    p = product_series(spec, 15)
    assert p.terms() == [(Fraction(0), 1)]


def test_product_series_matches_manual_assembly():
    spec = ProductSpec(((Fraction(1), 2), (Fraction(3), -1)))
    direct = product_series(spec, 18)
    manual = series_mul(
        series_pow(phi_series(1, 18), 2), series_inv(phi_series(3, 18))
    )
    assert direct == manual


@pytest.mark.parametrize(
    "factors, denom, order",
    [
        (((Fraction(1), 1),), 1, -5),
        (((Fraction(1, 2), 1),), 2, -10),
        (((Fraction(1), 3), (Fraction(2), -1)), 1, -5),
    ],
)
def test_product_series_negative_order_is_zero(factors, denom, order):
    got = [product_series(ProductSpec(factors), -5)]
    if len(factors) == 1:
        got.append(phi_series(factors[0][0], -5))
    for s in got:
        assert (s.denom, s.lo, s.coeffs, s.order) == (denom, order, (0,), order)


def test_product_series_matches_literal_oracle_on_random_specs():
    """The recurrence against the literal phi loop with pow, inv and mul.

    Equal means the same window: denom, lo, coefficients and order, which is
    the request on the common grid even when the order is fractional.
    """
    rng = random.Random(20261017)
    for _ in range(60):
        factors = tuple(
            (Fraction(rng.randint(1, 6), rng.randint(1, 4)), rng.randint(-3, 3))
            for _ in range(rng.randint(0, 4))
        )
        spec = ProductSpec(factors)
        den = rng.choice((1, 1, 2, 3, 4))
        order = Fraction(rng.randint(0, 120 * den), den)
        got = product_series(spec, order)
        want = product_oracle(spec, order)
        assert (got.denom, got.lo, got.coeffs, got.order) == (
            want.denom, want.lo, want.coeffs, want.order
        ), (spec, order)
        assert got.order == floor(order * got.denom)


# -- the product recurrence by halves ---------------------------------------------

HALF = 1 << 63
B = qseries._BLOCK


@pytest.fixture
def pushes(monkeypatch):
    """Every push product_series makes, in call order, as (left, ell, w, tail).

    A push packs the solved half F_l..F_(mid-1), then L_1..L_(r-l-1), at one
    width w, and unpacks every slot of their product; the r - mid slots from
    slot mid - l - 1 on land in [mid, r).  Each push's decoded slots are
    checked against the schoolbook sum over its two halves as it is made.
    """
    made, packs = [], []
    pack, unpack = qseries._pack, qseries._unpack

    def counted_pack(values, w):
        packs.append(list(values))
        return pack(values, w)

    def checked_unpack(x, k, w):
        slots = list(unpack(x, k, w))
        left, ell = packs
        packs.clear()
        assert k == len(left) + len(ell) - 1
        # slot s sums left[a] * L_(s-a+1) over the whole half
        want = [sum(left[a] * ell[s - a] for a in range(len(left)) if 0 <= s - a < len(ell))
                for s in range(k)]
        assert slots == want
        made.append((left, ell, w, slots[len(left) - 1 : len(ell)]))
        return slots

    monkeypatch.setattr(qseries, "_pack", counted_pack)
    monkeypatch.setattr(qseries, "_unpack", checked_unpack)
    return made


def priced_halves(series):
    """The halves the price pushes, in the order solved, read off a product's
    final coefficients (its window starts at 0)."""
    coeffs, out = series.coeffs, []

    def solve(l, r):
        if r - l <= B or r <= 2 * B:
            return
        mid = (l + r) // 2
        solve(l, mid)
        nonzero = sum(1 for c in coeffs[l:mid] if c)
        if nonzero * (r - mid) >= qseries._PRICE * (r - l):
            out.append(list(coeffs[l:mid]))
        solve(mid, r)

    solve(0, len(coeffs))
    return out


def left_halves(pushes):
    return [left for left, _, _, _ in pushes]


def same_window(got, want):
    return (got.denom, got.lo, got.coeffs, got.order) == (
        want.denom, want.lo, want.coeffs, want.order
    )


@pytest.mark.parametrize(
    "make, m, order",
    [(class1_identity, 1, 1000), (class1_identity, 3, 400), (class2_identity, 3, 600)],
)
def test_blocked_product_matches_oracle_on_dense_family_sides(pushes, make, m, order):
    """Dense sides push a half at almost every split."""
    spec = make(m).lhs
    got = product_series(spec, order)
    assert same_window(got, product_oracle(spec, order))
    assert left_halves(pushes) == priced_halves(got)
    assert len(pushes) >= 8


def test_blocked_product_mixed_widths_match_oracle(pushes):
    """1/phi(q)^3: the early halves push at 64 bits or less, later ones wider."""
    spec = ProductSpec(((Fraction(1), -3),))
    got = product_series(spec, 600)
    assert same_window(got, product_oracle(spec, 600))
    assert left_halves(pushes) == priced_halves(got)
    widths = {w for _, _, w, _ in pushes}
    assert min(widths) <= 64 < max(widths)


def test_blocked_product_all_wide_matches_oracle(pushes):
    """1/phi(q)^24: every push is wider than 64 bits, and none falls back."""
    spec = ProductSpec(((Fraction(1), -24),))
    got = product_series(spec, 300)
    assert same_window(got, product_oracle(spec, 300))
    assert left_halves(pushes) == priced_halves(got) != []
    assert all(w > 64 for _, _, w, _ in pushes)


def test_huge_power_matches_oracle_through_wide_pushes(pushes):
    spec = ProductSpec(((Fraction(1), 10**20),))
    got = product_series(spec, 200)
    assert same_window(got, power_oracle(phi_oracle(1, 200, 1), 10**20))
    assert left_halves(pushes) == priced_halves(got) != []
    assert min(w for _, _, w, _ in pushes) > 1024


def test_blocked_product_matches_oracle_on_random_fractional_specs(pushes):
    """Negative powers on grids d > 1, orders 150 to 400."""
    rng = random.Random(20261018)
    total = 0
    for spec, order in random_fractional_specs(rng):
        got = product_series(spec, order)
        assert got.denom > 1
        assert same_window(got, product_oracle(spec, order)), (spec, order)
        assert left_halves(pushes) == priced_halves(got), (spec, order)
        total += len(pushes)
        pushes.clear()
    assert total > 0


def random_fractional_specs(rng):
    for _ in range(20):
        den = rng.choice((2, 3, 4))
        first = rng.choice([a for a in range(1, 3 * den) if gcd(a, den) == 1])
        factors = ((Fraction(first, den), rng.randint(-3, -1)),) + tuple(
            (Fraction(rng.randint(1, 3 * den), den), rng.choice((-2, -1, 1, 2, 3)))
            for _ in range(rng.randint(0, 2))
        )
        yield ProductSpec(factors), Fraction(rng.randint(150 * den, 400 * den), den)


def test_push_rule_fires_on_the_first_family_side(pushes):
    got = product_series(class1_identity(1).lhs, 800)
    assert left_halves(pushes) == priced_halves(got) != []


@pytest.mark.parametrize("price", (1, 2, 32))
def test_any_price_gives_the_same_product(monkeypatch, price):
    """The price only moves work between pulls and pushes.  At price 1 a half
    is pushed whose parent half is not, so the ancestor pulls it again."""
    monkeypatch.setattr(qseries, "_PRICE", price)
    for spec, order in (
        (ProductSpec(((Fraction(1), 1),)), 600),
        (ProductSpec(((Fraction(1), -3),)), 300),
        (class1_identity(1).lhs, 400),
    ):
        assert same_window(product_series(spec, order), product_oracle(spec, order))


@pytest.mark.parametrize("name", CLASSICAL_NAMES)
def test_push_rule_fires_on_every_classical_product(pushes, name):
    """The sparse classical sides at 3000 push the halves dense enough to pay."""
    got = product_series(classical_identity(name).lhs, 3000)
    assert left_halves(pushes) == priced_halves(got) != []


def test_push_rule_never_fires_below_two_blocks(pushes, monkeypatch):
    """No product of at most 2B slots packs anything.  Every proposition of
    the sweep (n <= 7, order 30) still matches; 476 of its 480 products are
    that short, and the 4 longer ones push under the same checks."""
    short = []
    real = affine.product_series

    def recorded(spec, order):
        before = len(pushes)
        got = real(spec, order)
        if len(got.coeffs) <= 2 * B:
            short.append(len(pushes) - before)
        return got

    monkeypatch.setattr(affine, "product_series", recorded)
    for n in range(1, 8):
        for parts in partitions(n):
            for k in range(n):
                assert verify_proposition(parts, k, 30).match
    assert len(short) == 476 and not any(short)


def test_pack_unpack_round_trip_at_the_slot_limits():
    top = HALF - 1
    for values in ([top, -top, 0, 1, -1], [0] * 5, [-top] * 3, [top], [-HALF, top], []):
        assert list(qseries._unpack(qseries._pack(values, 64), len(values), 64)) == values


@pytest.mark.parametrize("w", (8, 16, 32, 64, 128, 192))
def test_pack_unpack_round_trip_at_every_width(w):
    # slot j sits at bit w*j on any machine, balanced in [-2^(w-1), 2^(w-1))
    half = 1 << (w - 1)
    for values in ([half - 1, -half, 0, 1, -1], [0] * 3, [-half] * 2, [5], []):
        packed = qseries._pack(values, w)
        assert packed == sum(v << (w * j) for j, v in enumerate(values))
        assert list(qseries._unpack(packed, len(values), w)) == values


@pytest.mark.parametrize("w", (8, 16, 32, 64, 128, 192))
def test_slot_width_at_each_boundary(w):
    """A bound fits w bits while it is below 2^(w-1), the balanced slot's top."""
    wider = {8: 16, 16: 32, 32: 64, 64: 128, 128: 192, 192: 256}[w]
    assert qseries._slot_width((1 << (w - 1)) - 1) == w
    assert qseries._slot_width(1 << (w - 1)) == wider
    assert qseries._slot_width(0) == 8


def test_packed_product_decodes_at_the_width_bound():
    """Slots of B a c = 2^63 - 32, the largest sum that 64-bit slots hold."""
    a, c = (1 << 29) - 1, (1 << 29) + 1
    assert qseries._slot_width(B * a * c) == 64 < qseries._slot_width(B * a * (c + 1))
    ell = [c] * (2 * B) + [-c] * (2 * B)
    for block in ([a] * B, [-a] * B):
        size = B + len(ell) - 1
        got = qseries._unpack(qseries._pack(block, 64) * qseries._pack(ell, 64), size, 64)
        want = [
            sum(block[i] * ell[t - i] for i in range(B) if 0 <= t - i < len(ell))
            for t in range(size)
        ]
        assert list(got) == want
        assert max(want) == -min(want) == B * a * c


# -- the sieve for L and sigma ----------------------------------------------------


def test_divisor_sums_match_brute_force():
    """1/phi(q) has L_k = sigma(k)."""
    want = [0] + [sum(e for e in range(1, k + 1) if k % e == 0) for k in range(1, 2001)]
    assert qseries._log_derivative(ProductSpec(((1, -1),)), 1, 2000) == want


def test_log_derivative_matches_oracle():
    """The divisor-pair sieve against the multiples loop, at windows past 2B
    slots and under it."""
    rng = random.Random(20261018)
    cases = []
    for spec, order in random_fractional_specs(rng):
        d = lcm(*(s.denominator for s, _ in spec.factors))
        cases.append((spec, d, floor(order * d)))
    # a scale above the order adds nothing; no factors leave L = 0
    above = ProductSpec(((Fraction(50), 3), (Fraction(1, 2), -1)))
    cases += [(above, 2, 90), (above, 2, 40), (ProductSpec(()), 1, 70), (ProductSpec(()), 1, 9)]
    cases += [(spec, d, units % (2 * B)) for spec, d, units in cases[:5]]
    for spec, d, units in cases:
        assert qseries._log_derivative(spec, d, units) == log_derivative_oracle(spec, d, units)


# -- normalization and comparison ----------------------------------------------


def test_normalize_shift_positive():
    a = QSeries.from_terms([(Fraction(3, 2), 2), (2, 5)], 4)
    norm, shift = normalize_shift(a)
    assert shift == Fraction(3, 2)
    assert norm.lo == 0 and norm[0] == 2
    assert norm.order_exponent() == 4 - Fraction(3, 2)


def test_normalize_shift_negative():
    a = QSeries.from_terms([(-2, 1), (0, 1)], 3)
    norm, shift = normalize_shift(a)
    assert shift == -2
    assert norm[0] == 1 and norm[2] == 1
    assert norm.order_exponent() == 5


def test_normalize_shift_rejects_zero():
    with pytest.raises(ValueError):
        normalize_shift(QSeries.zero(4))


def test_compare_equal_up_to_monomial():
    base = phi_series(1, 15)
    shifted = series_mul(QSeries.monomial(Fraction(7, 2), 1, 20), base)
    report = series_compare(shifted, base)
    assert report.match
    assert report.lhs_shift == Fraction(7, 2)
    assert report.rhs_shift == 0
    assert report.first_mismatch is None
    assert report.checked_through == 15


def test_compare_finds_first_mismatch():
    a = QSeries.from_terms([(0, 1), (3, 4), (5, 9)], 8)
    b = QSeries.from_terms([(0, 1), (3, 4), (5, 2), (6, 1)], 8)
    report = series_compare(a, b)
    assert not report.match
    assert report.first_mismatch == Mismatch(Fraction(5), 9, 2)


def test_compare_zero_sides():
    # a zero side reads as 0 through q^0 with shift 0: every report field
    zero = Fraction(0)
    z = QSeries.zero(10)
    assert series_compare(z, QSeries.zero(3)).match
    assert series_compare(z, QSeries.zero(3)) == VerifyReport(True, zero, None, zero, zero)
    report = series_compare(z, phi_series(1, 10))
    assert not report.match
    assert report.first_mismatch.exponent == 0
    assert report.first_mismatch.rhs_coeff == 1
    assert report == VerifyReport(False, zero, Mismatch(zero, 0, 1), zero, zero)
    shifted = QSeries.from_terms([(3, -2), (4, 1)], 10)
    assert series_compare(z, shifted) == VerifyReport(
        False, zero, Mismatch(zero, 0, -2), zero, Fraction(3)
    )
    assert series_compare(shifted, z) == VerifyReport(
        False, zero, Mismatch(zero, -2, 0), Fraction(3), zero
    )
    # a zero side on grid 3 against a nonzero side on grid 2
    z3 = QSeries.zero(5, 3)
    halves = QSeries.from_terms([(Fraction(1, 2), 1), (Fraction(3, 2), 1)], 6, 2)
    assert series_compare(z3, halves) == VerifyReport(
        False, zero, Mismatch(zero, 0, 1), zero, Fraction(1, 2)
    )
    assert series_compare(halves, z3) == VerifyReport(
        False, zero, Mismatch(zero, 1, 0), Fraction(1, 2), zero
    )


def test_compare_checked_through_uses_shifted_orders():
    # after normalization the shifted side still reaches exponent 12 - 2
    a = QSeries.from_terms([(2, 1), (3, 1)], 12)
    b = QSeries.from_terms([(0, 1), (1, 1)], 9)
    report = series_compare(a, b)
    assert report.match
    assert report.checked_through == 9


# -- representation invariants ---------------------------------------------------


def test_rebase_reduce_roundtrip():
    p = phi_series(1, 20)
    assert p.rebase(6).reduced() == p
    assert p.rebase(6) == p
    z = QSeries.zero(10)
    fine = z.rebase(6)
    assert (fine.denom, fine.lo, fine.order, fine.coeffs) == (6, 60, 60, (0,))
    coarse = fine.reduced()
    assert (coarse.denom, coarse.lo, coarse.order, coarse.coeffs) == (1, 10, 10, (0,))
    assert fine == z and coarse == z


def test_zero_series_is_canonical():
    z = series_sub(phi_series(1, 7), phi_series(1, 7))
    assert z.coeffs == (0,)
    assert z.lo == z.order == 7


def test_window_tightness_enforced():
    with pytest.raises(ValueError):
        QSeries(1, 0, (0, 1), 1)
    with pytest.raises(ValueError):
        QSeries(1, 2, (1, 1), 1)
    with pytest.raises(ValueError):
        QSeries(0, 0, (1,), 0)


def test_getitem_beyond_order_raises():
    p = phi_series(1, 5)
    with pytest.raises(IndexError):
        p[6]
    assert p[Fraction(1, 2)] == 0


def test_truncated():
    p = phi_series(1, 12)
    t = p.truncated(5)
    assert t.order == 5
    for e in range(6):
        assert t[e] == p[e]
    with pytest.raises(ValueError):
        t.truncated(9)


def test_monomial_beyond_order_is_zero():
    m = QSeries.monomial(7, 3, 4)
    assert m.is_zero()


# -- serialization and rendering ---------------------------------------------------


def test_product_spec_json_roundtrip():
    spec = ProductSpec(((Fraction(1, 2), -1), (Fraction(3), 4)))
    assert ProductSpec.from_json(json.loads(json.dumps(spec.to_json()))) == spec


class IntSubclass(int):
    """An int that is not a plain int: its type may change how it prints."""


@pytest.mark.parametrize(
    "fields",
    [
        (1, 0, (True, False, True), 2),
        (True, 0, (1,), 0),
        (1, False, (1,), False),
        (1, 0, (1, 2.0), 1),
        (1, 0, (1, IntSubclass(2)), 1),
    ],
)
def test_qseries_refuses_bool(fields):
    # to_json would write a bool as a JSON boolean; a float or an int
    # subclass is no plain integer either
    with pytest.raises(ValueError):
        QSeries(*fields)


def test_product_spec_refuses_bool_power():
    with pytest.raises(ValueError):
        ProductSpec(((Fraction(2), True),))
    spec = ProductSpec(((Fraction(2), 1),))
    assert ProductSpec.from_json(json.loads(json.dumps(spec.to_json()))) == spec


@pytest.mark.parametrize(
    "data",
    [
        {"factors": [{"scale": "1", "power": 1.5}]},
        {"factors": [{"scale": "1", "power": True}]},
        {"factors": [{"scale": 1.5, "power": 1}]},
        {"factors": [{"scale": "1"}]},
        {"factors": {}},
        {},
        [],
        {"factors": [{"scale": "1", "power": 1, "offset": 3}]},
        {"factors": [{"scale": "1", "power": 1}], "offset": 3},
    ],
)
def test_product_spec_from_json_is_strict(data):
    with pytest.raises(ValueError):
        ProductSpec.from_json(data)


def test_product_spec_unknown_fields_are_named():
    factor = {"scale": "1", "power": 1}
    with pytest.raises(ValueError, match=r"^factor has unknown fields \['offset'\]$"):
        ProductSpec.from_json({"factors": [dict(factor, offset=3)]})
    with pytest.raises(ValueError, match=r"^product spec has unknown fields \['x', 'y'\]$"):
        ProductSpec.from_json({"x": 1, "factors": [factor], "y": 2})


@pytest.mark.parametrize("scale", ["1/0", "abc"])
def test_product_spec_bad_rational_names_field_and_value(scale):
    data = {"factors": [{"scale": scale, "power": 1}]}
    with pytest.raises(ValueError, match=f"factor scale .*got '{scale}'"):
        ProductSpec.from_json(data)


def test_render_matches_expected_shape():
    assert render(phi_series(1, 7)) == "1 - q - q^2 + q^5 + q^7 + O(q^8)"
    assert render(QSeries.zero(3)) == "0 + O(q^4)"
    assert render(QSeries.from_terms([(Fraction(1, 3), -2)], 1)) == "-2*q^(1/3) + O(q^(4/3))"


def test_rational_coercion():
    assert as_rational("3/4") == Fraction(3, 4)
    assert as_rational(5) == 5
    assert format_rational(Fraction(6, 3)) == "2"
    assert format_rational(Fraction(-1, 2)) == "-1/2"
    with pytest.raises(TypeError):
        as_rational(0.5)


# -- algebraic laws under randomized inputs ------------------------------------------


@st.composite
def qseries_values(draw):
    denom = draw(st.sampled_from([1, 2, 3]))
    lo = draw(st.integers(min_value=-6, max_value=6))
    length = draw(st.integers(min_value=1, max_value=7))
    coeffs = draw(
        st.lists(
            st.integers(min_value=-5, max_value=5),
            min_size=length,
            max_size=length,
        )
    )
    return QSeries.from_window(denom, lo, coeffs, lo + length - 1)


def common_truncation(*series):
    t = min(s.order_exponent() for s in series)
    return [s.truncated(t) for s in series]


@given(qseries_values(), qseries_values())
@settings(max_examples=150, deadline=None)
def test_add_commutes(a, b):
    assert series_add(a, b) == series_add(b, a)


@given(qseries_values(), qseries_values(), qseries_values())
@settings(max_examples=150, deadline=None)
def test_add_associates(a, b, c):
    left = series_add(series_add(a, b), c)
    right = series_add(a, series_add(b, c))
    assert left == right


@given(qseries_values(), qseries_values())
@settings(max_examples=150, deadline=None)
def test_mul_commutes(a, b):
    assert series_mul(a, b) == series_mul(b, a)


@given(qseries_values(), qseries_values(), qseries_values())
@settings(max_examples=100, deadline=None)
def test_mul_associates_through_common_order(a, b, c):
    left, right = common_truncation(
        series_mul(series_mul(a, b), c), series_mul(a, series_mul(b, c))
    )
    assert left == right


@given(qseries_values(), qseries_values(), qseries_values())
@settings(max_examples=100, deadline=None)
def test_mul_distributes_through_common_order(a, b, c):
    left = series_mul(a, series_add(b, c))
    right = series_add(series_mul(a, b), series_mul(a, c))
    left, right = common_truncation(left, right)
    assert left == right


@given(qseries_values())
@settings(max_examples=150, deadline=None)
def test_rebase_preserves_equality(a):
    finer = a.rebase(a.denom * 4)
    assert finer == a
    assert finer.reduced().denom <= a.denom


@given(qseries_values())
@settings(max_examples=100, deadline=None)
def test_inverse_roundtrip_randomized(a):
    coeffs = list(a.coeffs)
    coeffs[0] = 1
    unit = QSeries.from_window(a.denom, a.lo, coeffs, a.order)
    prod = series_mul(unit, series_inv(unit))
    assert prod[0] == 1
    for e, c in prod.terms():
        assert c == (1 if e == 0 else 0)
