"""End-to-end acceptance runs: exact equality checks under wall-clock budgets.

Every check here is exact -- no tolerances anywhere.  Timing assertions use
generous desk-scale budgets; the library runs far below them on commodity
hardware.
"""

import json
import random
import time
from fractions import Fraction

from box_oracle import lattice_enumerate_oracle
from point_oracle import lattice_enumerate
from product_oracle import product_oracle
from squares_oracle import kappa_sum
from test_qseries import series_sum
from test_quadform import kappa
from qchar.affine import (
    PartitionData,
    _trace_parts,
    _weight_numerators,
    partitions,
    specialized_character,
    verify_proposition,
)
from qchar.identities import (
    CLASSICAL_NAMES,
    class1_identity,
    class2_identity,
    classical_identity,
    verify_identity,
)
from qchar.qseries import (
    ProductSpec,
    QSeries,
    product_series,
    series_compare,
    series_inv,
    series_mul,
)
from qchar.quadform import (
    WEIGHT_ALTERNATING,
    WEIGHT_FOUR_K_PLUS_ONE,
    lattice_sum_series,
)

# -- criterion 1: classical suite to order 500 ---------------------------------


def test_classical_suite_order_500():
    start = time.perf_counter()
    for name in CLASSICAL_NAMES:
        report = verify_identity(classical_identity(name), 500)
        assert report.match, name
        assert report.checked_through == 500
        assert report.first_mismatch is None
    assert time.perf_counter() - start < 5.0


def test_classical_suite_order_3000():
    start = time.perf_counter()
    for name in CLASSICAL_NAMES:
        report = verify_identity(classical_identity(name), 3000)
        assert report.match, name
        assert report.checked_through == 3000
    assert time.perf_counter() - start < 5.0


# -- criterion 2: intro worked example ------------------------------------------


def test_intro_example_proposition_order_100():
    start = time.perf_counter()
    report = verify_proposition((1, 3), 3, 100)
    assert report.match
    assert report.checked_through == 100
    assert time.perf_counter() - start < 5.0


def test_intro_example_numerator_explicit_form():
    # the character numerator must realize the exponent 3*kappa(k) + k1 - k2 + 2k3
    char = specialized_character((1, 3), 3)
    num = char.lattice
    const = Fraction(num.const, num.denom)
    explicit = kappa_sum(3, Fraction(3), (Fraction(1), Fraction(-1), Fraction(2)))
    assert num == kappa_sum(3, 3, (1, -1, 2), const)
    t = Fraction(100)
    got = lattice_sum_series(num, t + const)
    want = lattice_sum_series(explicit, t)
    report = series_compare(got, want)
    assert report.match
    assert report.checked_through == 100
    assert report.lhs_shift == const


# -- criteria 3 and 4: the two families ------------------------------------------


def test_class1_family_budgets():
    for m, order in ((1, 200), (2, 80), (3, 40), (4, 100)):
        start = time.perf_counter()
        report = verify_identity(class1_identity(m), order)
        elapsed = time.perf_counter() - start
        assert report.match, (m, order)
        assert report.checked_through == order
        assert report.first_mismatch is None
        assert elapsed < 60.0, (m, elapsed)


def test_class2_family_budgets():
    for m, order in ((1, 200), (2, 60), (3, 80)):
        start = time.perf_counter()
        report = verify_identity(class2_identity(m), order)
        elapsed = time.perf_counter() - start
        assert report.match, (m, order)
        assert report.checked_through == order
        assert elapsed < 60.0, (m, elapsed)


# -- criterion 5: the m=1 coincidence --------------------------------------------


def test_families_structurally_identical_at_m1():
    a = class1_identity(1)
    b = class2_identity(1)
    assert a.lhs == b.lhs
    assert a.rhs == b.rhs


# -- criterion 6: full proposition sweep ------------------------------------------


def test_proposition_sweep_n_up_to_8():
    start = time.perf_counter()
    runs = 0
    for n in range(1, 9):
        for parts in partitions(n):
            for k in range(n):
                report = verify_proposition(parts, k, 30)
                assert report.match, (parts, k)
                runs += 1
    assert runs == sum(
        len(list(partitions(n))) * n for n in range(1, 9)
    )
    assert time.perf_counter() - start < 600.0


def test_proposition_sweep_n_up_to_12():
    start = time.perf_counter()
    runs = 0
    for n in range(1, 13):
        for parts in partitions(n):
            for k in range(n):
                report = verify_proposition(parts, k, 30)
                assert report.match, (parts, k)
                assert report.checked_through == 30, (parts, k)
                runs += 1
    assert runs == 2646
    assert time.perf_counter() - start < 600.0


# -- criterion 7a: enumerator against the independent box oracle -------------------


def _random_lattice_sum(rng):
    l = rng.randrange(0, 5)
    c = Fraction(rng.randrange(2, 7), rng.choice((1, 2)))
    span = 4 if l <= 2 else 2
    lin = tuple(Fraction(rng.randrange(-span, span + 1)) for _ in range(l))
    const = Fraction(rng.randrange(-8, 9), rng.choice((1, 2, 4)))
    weight = rng.choice((None, None, WEIGHT_ALTERNATING, WEIGHT_FOUR_K_PLUS_ONE))
    return kappa_sum(l, c, lin, const, weight)


def test_enumerator_matches_box_oracle_on_100_instances():
    rng = random.Random(20260818)
    checked = 0
    while checked < 100:
        s = _random_lattice_sum(rng)
        top = 30 if s.l <= 2 else 12
        bound = Fraction(rng.randrange(0, top + 1))
        got = list(lattice_enumerate(s, bound))
        want = sorted(lattice_enumerate_oracle(s, bound))
        assert got == want, (s, bound)
        checked += 1
    assert checked >= 100


# -- criterion 7a, products: the recurrence against the literal factor oracle ------


def _window(s):
    return (s.denom, s.lo, s.coeffs, s.order)


def test_identity_product_sides_match_literal_oracle():
    sides = [(classical_identity(name).lhs, order)
             for name in CLASSICAL_NAMES for order in (500, 3000)]
    sides += [(class1_identity(m).lhs, order)
              for m, order in ((1, 200), (2, 80), (3, 40), (4, 100))]
    sides += [(class2_identity(m).lhs, order)
              for m, order in ((1, 200), (2, 60), (3, 80))]
    for spec, order in sides:
        assert _window(product_series(spec, order)) == _window(
            product_oracle(spec, order)
        ), (spec, order)


def test_proposition_product_specs_match_literal_oracle():
    specs = set()
    for n in range(1, 9):
        for parts in partitions(n):
            inverse = specialized_character(parts, 0).product
            specs.add(ProductSpec(tuple((s, -p) for s, p in inverse.factors)))
            specs.add(inverse)
            specs.add(ProductSpec(_trace_parts(PartitionData.from_parts(parts), 0)[1]))
    for spec in specs:
        assert _window(product_series(spec, 30)) == _window(
            product_oracle(spec, 30)
        ), spec


# -- criterion 7b: s-vector checksum ----------------------------------------------


def test_s_entries_sum_to_modulus_through_n_12():
    for n in range(1, 13):
        for parts in partitions(n):
            data = PartitionData.from_parts(parts)
            assert sum(data.s) == data.N, parts


# -- criterion 7c: Cartan-dual property of weight coefficients ---------------------


def test_weight_coeffs_cartan_dual_through_n_12():
    for n in range(2, 13):
        dim = n - 1
        for k in range(n):
            # n times the coefficients, so the image is n times the delta
            nc = _weight_numerators(n, k)
            assert len(nc) == dim
            for j in range(1, n):
                image = 2 * nc[j - 1]
                if j >= 2:
                    image -= nc[j - 2]
                if j < dim:
                    image -= nc[j]
                assert image == (n if j == k else 0), (n, k, j)


# -- criterion 7d: ring laws and inversion round-trips -----------------------------


def _random_series(rng, unit=False):
    denom = rng.choice((1, 1, 2))
    lo = 0 if unit else rng.randrange(-4, 5)
    width = rng.randrange(1, 12)
    coeffs = [rng.randrange(-9, 10) for _ in range(width)]
    if unit:
        coeffs[0] = rng.choice((1, -1))
    return QSeries.from_window(denom, lo, tuple(coeffs), lo + width - 1)


def test_ring_laws_on_random_inputs():
    rng = random.Random(4127)
    for _ in range(60):
        a, b, c = (_random_series(rng) for _ in range(3))
        assert series_mul(a, b) == series_mul(b, a)
        lhs = series_mul(a, series_sum(b, c))
        rhs = series_sum(series_mul(a, b), series_mul(a, c))
        assert lhs == rhs


def test_inversion_round_trips_on_random_units():
    rng = random.Random(90406)
    for _ in range(40):
        u = _random_series(rng, unit=True)
        inv = series_inv(u)
        prod = series_mul(u, inv)
        assert prod.terms() == [(Fraction(0), 1)]
        back = series_inv(inv)
        assert series_compare(back, u).match


# -- criterion 7e: positivity of the quadratic form --------------------------------


def test_kappa_positive_on_random_nonzero_vectors():
    rng = random.Random(777)
    for _ in range(1000):
        l = rng.randrange(1, 9)
        k = [rng.randrange(-12, 13) for _ in range(l)]
        if not any(k):
            k[rng.randrange(l)] = rng.choice((-3, -1, 1, 2))
        assert kappa(tuple(k)) >= 1, k


# -- criterion 8: byte-identical reports on repeated runs --------------------------


def test_reports_byte_identical_across_repeated_runs():
    # each spec is verified twice; the second run walks the lattice form the
    # first one completed, and must give the same bytes
    jobs = [
        (classical_identity("euler"), 500),
        (classical_identity("jacobi"), 500),
        (classical_identity("gauss_a"), 500),
        (classical_identity("gauss_b"), 500),
        (class1_identity(1), 200),
        (class1_identity(2), 80),
        (class1_identity(3), 40),
        (class2_identity(1), 200),
        (class2_identity(2), 60),
    ]
    runs = [
        [
            json.dumps(verify_identity(spec, order).to_json(), sort_keys=True)
            for spec, order in jobs
        ]
        for _ in range(2)
    ]
    assert runs[0] == runs[1]
    for blob in runs[0]:
        assert json.loads(blob)["match"] is True
