"""Lattice enumeration checked against brute scans and frozen small cases."""

import dataclasses
import dis
import json
import math
import operator
import pickle
import random
import sys
from fractions import Fraction
from itertools import product as iter_product

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import box_oracle
import squares_oracle
from box_oracle import certified_box, gram, inverse, lattice_enumerate_oracle, leading_minors
from point_oracle import form_exponent, lattice_enumerate
from squares_oracle import kappa_sum
from terms_oracle import from_terms
from walk_oracle import dict_walk
from qchar.identities import class1_identity, classical_identity, verify_identity
from qchar.qseries import ProductSpec, QSeries, phi_series, product_series, series_mul
from qchar.quadform import (
    WEIGHT_ALTERNATING,
    WEIGHT_FOUR_K_PLUS_ONE,
    LatticeSum,
    _complete_squares,
    _walk,
    _weight_value,
    lattice_sum_above,
    lattice_sum_series,
)

# -- oracles ----------------------------------------------------------------


def brute_kappa(k):
    # independent restatement of the chain form
    total = sum(v * v for v in k)
    for i in range(len(k) - 1):
        total -= k[i] * k[i + 1]
    return total


def brute_exponent(s, point):
    # the exponent function as LatticeSum documents it, evaluated directly
    total = sum(a * x * x for a, x in zip(s.diag, point))
    total += sum(b * x * y for b, x, y in zip(s.off, point, point[1:]))
    total += sum(v * x for v, x in zip(s.lin, point)) + s.const
    return Fraction(total, s.denom)


def kappa(k):
    """kappa(k) as the engine holds it: k's exponent under the bare kappa sum's squares."""
    return form_exponent(kappa_sum(len(k), 1, (0,) * len(k)), k)


def brute_points(s, bound, radius):
    """Scan a box by hand and keep points with exponent at most the bound."""
    hits = []
    for point in iter_product(range(-radius, radius + 1), repeat=s.l):
        e = brute_exponent(s, point)
        if e <= bound:
            hits.append((point, Fraction(e)))
    return hits


def fracs(text):
    return tuple(Fraction(v) for v in text.split())


def series_by_hand(s, bound):
    """Aggregate the enumerated stream into a QSeries, weights applied."""
    t = Fraction(bound)
    # every exponent of the reduced chain lands on its denominator's grid
    grid = s.denom
    terms = []
    for point, exp in lattice_enumerate(s, t):
        terms.append((exp, _weight_value(s.weight, point)))
    if not terms:
        return QSeries.zero(t, grid)
    return from_terms(terms, t, grid)


# -- the kappa form ---------------------------------------------------------


def test_kappa_frozen_values():
    assert kappa((2, -1, 3)) == 19
    assert kappa((5,)) == 25
    assert kappa((1, 1)) == 1
    assert kappa((1, 1, 1, 1)) == 1
    assert kappa((0, 0, 0)) == 0


def test_kappa_matches_brute_form():
    rng = random.Random(7)
    for _ in range(200):
        l = rng.randrange(1, 9)
        k = tuple(rng.randrange(-9, 10) for _ in range(l))
        assert kappa(k) == brute_kappa(k)


def test_kappa_positive_definite():
    rng = random.Random(11)
    seen_one = False
    for _ in range(1000):
        l = rng.randrange(1, 9)
        k = tuple(rng.randrange(-9, 10) for _ in range(l))
        if any(k):
            v = kappa(k)
            assert v >= 1
            seen_one = seen_one or v == 1
    assert seen_one


# -- LatticeSum construction --------------------------------------------------


def test_lattice_sum_validation():
    # a malformed chain raises at construction
    malformed = [
        ((1, 1), (), (0, 0)),  # off too short
        ((1,), (0,), (0,)),  # off too long
        ((1, 1), (-1,), (0,)),  # lin too short
        ((1,), (), (0, 0)),  # lin too long
        ((1,), (), (0,), 0, 0),  # denom zero
        ((1,), (), (0,), 3, -2),  # denom negative
    ]
    for chain in malformed:
        with pytest.raises(ValueError):
            LatticeSum(*chain)
    with pytest.raises(ValueError, match="unknown weight"):
        LatticeSum((1,), (), (0,), weight="cubed")
    s = kappa_sum(0, 1, (), Fraction(5, 4))
    assert (s.l, s.const, s.denom) == (0, 5, 4)
    assert lattice_sum_above(s, 0)[0] == Fraction(5, 4)


@pytest.mark.parametrize(
    "s", [kappa_sum(2, 0, (1, 1)), kappa_sum(2, -3, (1, 1)), LatticeSum((1, 1), (3,), (0, 0)),
          LatticeSum((2, 1, 2), (-2, -2), (0, 0, 1), 5, 3, WEIGHT_ALTERNATING)],
    ids=["zero", "negative", "off-dominant", "singular"],
)
def test_an_indefinite_chain_raises_when_first_expanded(s):
    # construction does no linear algebra; the completion refuses the chain,
    # as Sylvester's criterion does in the box oracle
    assert "_form" not in vars(s)
    for expand in (lambda: lattice_sum_series(s, 5), lambda: lattice_sum_above(s, 0)):
        with pytest.raises(ValueError, match="indefinite"):
            expand()
    with pytest.raises(ValueError, match="indefinite"):
        certified_box(s, 5)


def test_lattice_sum_exponent_frozen():
    s = kappa_sum(3, Fraction(3), (Fraction(1), Fraction(-1), Fraction(2)))
    assert form_exponent(s, (0, 0, 0)) == 0
    assert form_exponent(s, (1, 0, 0)) == 4
    assert form_exponent(s, (0, 1, 0)) == 2
    assert form_exponent(s, (1, 1, 1)) == 5


def test_lattice_sum_json_round_trip():
    s = kappa_sum(
        2,
        Fraction(3, 2),
        (Fraction(1, 2), Fraction(-2)),
        Fraction(-1, 4),
        WEIGHT_ALTERNATING,
    )
    data = s.to_json()
    assert data == {"diag": [6, 6], "off": [-6], "lin": [2, -8], "const": -1, "denom": 4,
                    "weight": WEIGHT_ALTERNATING}
    assert json.loads(json.dumps(data)) == data
    assert LatticeSum(**data) == s
    plain = kappa_sum(1, Fraction(2), (Fraction(1),))
    assert plain.to_json() == {"diag": [2], "off": [], "lin": [1], "const": 0, "denom": 1}


def test_lattice_sum_refuses_bool_dimension():
    # to_json would write true for a bool, and a float or a Fraction is no
    # chain entry: each raises, in every field, as a dimension does in the
    # kappa signature this type replaced
    with pytest.raises(TypeError):
        LatticeSum(True, (), ())
    fields = [
        lambda v: ((v,), (), (0,)),
        lambda v: ((1, 1), (v,), (0, 0)),
        lambda v: ((1,), (), (v,)),
        lambda v: ((1,), (), (0,), v),
        lambda v: ((1,), (), (0,), 0, v),
    ]
    for bad in (True, False, 1.0, Fraction(1), Fraction(1, 2)):
        for field in fields:
            with pytest.raises(TypeError):
                LatticeSum(*field(bad))


def test_weight_values():
    s = kappa_sum(1, Fraction(1), (Fraction(0),), weight=WEIGHT_ALTERNATING)
    assert _weight_value(s.weight, (2,)) == 1
    assert _weight_value(s.weight, (-3,)) == -1
    j = kappa_sum(1, Fraction(2), (Fraction(1),), weight=WEIGHT_FOUR_K_PLUS_ONE)
    assert _weight_value(j.weight, (0,)) == 1
    assert _weight_value(j.weight, (-1,)) == -3
    assert _weight_value(j.weight, (2,)) == 9
    bare = kappa_sum(2, Fraction(1), (Fraction(0), Fraction(0)))
    assert _weight_value(bare.weight, (5, -5)) == 1


# -- enumeration ---------------------------------------------------------------


def test_enumerate_one_dimensional_against_direct_scan():
    s = kappa_sum(1, Fraction(2), (Fraction(1),))
    got = list(lattice_enumerate(s, 45))
    want = [(k, 2 * k * k + k) for k in range(-5, 6) if 2 * k * k + k <= 45]
    want = sorted(((k,), Fraction(e)) for k, e in want)
    assert got == want


def test_enumerate_is_lexicographic():
    s = kappa_sum(3, Fraction(3), (Fraction(1), Fraction(-1), Fraction(2)))
    pts = [p for p, _ in lattice_enumerate(s, 12)]
    assert pts == sorted(pts)
    assert len(pts) == len(set(pts))


def test_enumerate_exponents_are_consistent():
    s = kappa_sum(
        3, Fraction(3, 2), (Fraction(1, 2), Fraction(0), Fraction(-1)), Fraction(1, 4)
    )
    hits = list(lattice_enumerate(s, Fraction(19, 2)))
    assert hits
    for point, exp in hits:
        assert exp == brute_exponent(s, point)
        assert exp <= Fraction(19, 2)


def test_enumerate_matches_brute_box():
    s = kappa_sum(2, Fraction(1), (Fraction(1, 2), Fraction(-1, 2)))
    got = sorted(lattice_enumerate(s, 6))
    want = sorted(brute_points(s, Fraction(6), 6))
    assert got == want


def test_enumerate_zero_dimensions():
    inside = kappa_sum(0, Fraction(1), (), Fraction(3))
    assert list(lattice_enumerate(inside, 3)) == [((), Fraction(3))]
    outside = kappa_sum(0, Fraction(1), (), Fraction(7, 2))
    assert list(lattice_enumerate(outside, 3)) == []


def test_enumerate_empty_below_constant():
    s = kappa_sum(2, Fraction(5), (Fraction(0), Fraction(0)), Fraction(10))
    assert list(lattice_enumerate(s, 9)) == []
    assert list(lattice_enumerate(s, -100)) == []


def test_enumerate_monotone_in_bound():
    s = kappa_sum(3, Fraction(2), (Fraction(1), Fraction(0), Fraction(-1)))
    small = set(lattice_enumerate(s, 8))
    large = set(lattice_enumerate(s, 15))
    assert small <= large


def test_enumerate_reflection_symmetry():
    lin = (Fraction(1), Fraction(-2), Fraction(1, 2))
    plus = kappa_sum(3, Fraction(2), lin)
    minus = kappa_sum(3, Fraction(2), tuple(-v for v in lin))
    got = sorted(lattice_enumerate(plus, 10))
    mirrored = sorted(
        (tuple(-x for x in p), e) for p, e in lattice_enumerate(minus, 10)
    )
    assert got == mirrored


# -- series expansion ----------------------------------------------------------


def test_series_gauss_exponents():
    s = kappa_sum(1, Fraction(2), (Fraction(1),))
    got = lattice_sum_series(s, 45)
    want = from_terms(
        [(2 * k * k + k, 1) for k in range(-5, 6) if 2 * k * k + k <= 45], 45
    )
    assert got == want
    assert got[0] == 1 and got[1] == 1 and got[3] == 1 and got[2] == 0


def test_series_zero_dimensional():
    s = kappa_sum(0, Fraction(1), (), Fraction(5, 2))
    got = lattice_sum_series(s, 4)
    assert got == from_terms([(Fraction(5, 2), 1)], 4)
    assert lattice_sum_series(s, 2).is_zero()


def test_series_empty_sum_is_zero():
    s = kappa_sum(2, Fraction(3), (Fraction(0), Fraction(0)), Fraction(9))
    assert lattice_sum_series(s, 8).is_zero()


def test_series_origin_only_term():
    s = kappa_sum(4, Fraction(5), (Fraction(0),) * 4)
    got = lattice_sum_series(s, 4)
    assert got.lowest_exponent() == 0
    assert got[0] == 1


def test_series_alternating_weight_square_exponents():
    # sum over k of (-1)^k q^(k^2): coefficient 2(-1)^k at k^2, 1 at 0
    s = kappa_sum(1, Fraction(1), (Fraction(0),), weight=WEIGHT_ALTERNATING)
    got = lattice_sum_series(s, 20)
    want = from_terms(
        [(0, 1), (1, -2), (4, 2), (9, -2), (16, 2)], 20
    )
    assert got == want


def test_series_four_k_plus_one_weight():
    s = kappa_sum(1, Fraction(2), (Fraction(1),), weight=WEIGHT_FOUR_K_PLUS_ONE)
    got = lattice_sum_series(s, 12)
    want = from_terms([(0, 1), (1, -3), (3, 5), (6, -7), (10, 9)], 12)
    assert got == want


def test_series_jacobi_cube():
    s = kappa_sum(1, Fraction(2), (Fraction(1),), weight=WEIGHT_FOUR_K_PLUS_ONE)
    phi = phi_series(Fraction(1), 25)
    cube = series_mul(series_mul(phi, phi), phi)
    assert lattice_sum_series(s, 25) == cube


def test_series_euler_pentagonal():
    s = kappa_sum(
        1, Fraction(3, 2), (Fraction(1, 2),), weight=WEIGHT_ALTERNATING
    )
    assert lattice_sum_series(s, 15) == phi_series(Fraction(1), 15)


def test_series_gauss_quotient_match():
    s = kappa_sum(1, Fraction(2), (Fraction(1),))
    spec = ProductSpec(((Fraction(2), 2), (Fraction(1), -1)))
    assert lattice_sum_series(s, 30) == product_series(spec, 30)


def test_series_three_dimensional_product_match():
    # the chain sum in three variables equals a five-factor Euler quotient
    s = kappa_sum(3, Fraction(3), (Fraction(1), Fraction(-1), Fraction(2)))
    spec = ProductSpec(((Fraction(3), 3), (Fraction(2), 2), (Fraction(1), -2)))
    assert lattice_sum_series(s, 25) == product_series(spec, 25)


def test_series_matches_hand_aggregation():
    cases = [
        kappa_sum(2, Fraction(1), (Fraction(1, 2), Fraction(-1, 2)), Fraction(1, 4)),
        kappa_sum(3, Fraction(2), (Fraction(1), Fraction(0), Fraction(-1))),
        kappa_sum(1, Fraction(5, 2), (Fraction(-3, 2),), Fraction(-2)),
        kappa_sum(2, Fraction(3), (Fraction(2), Fraction(2)), weight=WEIGHT_ALTERNATING),
        kappa_sum(4, Fraction(1), (Fraction(0),) * 4),
        # 5- to 7-dimensional chains, fractional c, lin and const, both weights
        kappa_sum(
            5, Fraction(5, 2), fracs("1/2 -3/2 0 1 -1/3"), Fraction(-1, 4),
            WEIGHT_ALTERNATING,
        ),
        kappa_sum(
            6, Fraction(7, 3), fracs("-1 1/3 2/3 0 -1/2 1"), Fraction(1, 6),
            WEIGHT_FOUR_K_PLUS_ONE,
        ),
        kappa_sum(7, Fraction(3, 2), fracs("1/2 0 -1/2 1 0 -1 1/4"), Fraction(-3, 4)),
        kappa_sum(
            7, Fraction(9, 4), fracs("-1/2 " * 7), Fraction(1, 3), WEIGHT_ALTERNATING
        ),
    ]
    for s in cases:
        t = Fraction(21, 2)
        assert lattice_sum_series(s, t) == series_by_hand(s, t)


def test_series_fractional_bound_truncates_on_grid():
    s = kappa_sum(1, Fraction(1), (Fraction(0),))
    got = lattice_sum_series(s, Fraction(19, 2))
    assert Fraction(got.order, got.denom) == 9
    assert got[9] == 2 and got[8] == 0 and got[4] == 2


def test_series_negative_constant_shifts_window():
    s = kappa_sum(1, Fraction(1), (Fraction(0),), Fraction(-7, 2))
    got = lattice_sum_series(s, 4)
    assert got.lowest_exponent() == Fraction(-7, 2)
    assert got[Fraction(-7, 2)] == 1
    assert got[Fraction(-5, 2)] == 2


# -- the certified box and the crude oracle ---------------------------------------


def cofactor_det(a):
    # Laplace expansion along the first row, independent of any elimination
    if not a:
        return Fraction(1)
    return sum(
        (-1) ** j * a[0][j] * cofactor_det([row[:j] + row[j + 1 :] for row in a[1:]])
        for j in range(len(a))
    )


def random_chain(rng, l, slacks=(-1, 0, 1, 2)):
    # a tridiagonal chain whose diagonal exceeds its row's off-diagonal
    # weight by a slack; a slack below 1 may leave it indefinite
    off = [rng.randrange(-4, 5) for _ in range(l - 1)]
    diag = []
    for i in range(l):
        near = (abs(off[i - 1]) if i else 0) + (abs(off[i]) if i < l - 1 else 0)
        diag.append(-(-near // 2) + rng.choice(slacks))
    lin = [rng.randrange(-3, 4) for _ in range(l)]
    return LatticeSum(diag, off, lin, rng.randrange(-5, 6), rng.choice((1, 2, 3)))


def test_box_oracle_minors_and_inverse_are_exact():
    # the box oracle's own linear algebra: its leading minors are the
    # determinants of a cofactor expansion, its Gauss-Jordan inverse is
    # exact, and Sylvester's criterion refuses exactly the chains the
    # engine's completion refuses
    rng = random.Random(37)
    refused = 0
    for _ in range(200):
        s = random_chain(rng, rng.randrange(1, 6))
        a = gram(s)
        minors = leading_minors(a)
        want = [cofactor_det([row[:k] for row in a[:k]]) for k in range(1, s.l + 1)]
        assert minors == want[: len(minors)]
        definite = all(d > 0 for d in want)
        try:
            s._form
        except ValueError:
            assert not definite
            with pytest.raises(ValueError):
                certified_box(s, 0)
            refused += 1
            continue
        assert definite
        inv = inverse(a)
        identity = [[sum(x * y for x, y in zip(row, col)) for col in zip(*inv)] for row in a]
        assert identity == [[int(i == j) for j in range(s.l)] for i in range(s.l)]
    assert 20 < refused < 180


def test_certified_box_holds_every_point_of_a_wide_scan():
    # every point of a wide cube within the bound lies in the certified box.
    # A slack of at least 1 puts every eigenvalue of the Gram matrix at 1 or
    # more (Gershgorin), so denom*E(x) >= |x|^2 - |lin||x| + const and no
    # admissible point leaves the cube of radius 8
    rng = random.Random(41)
    inside = 0
    for _ in range(40):
        s = random_chain(rng, rng.randrange(1, 4), slacks=(1, 2))
        s = dataclasses.replace(s, denom=1)
        bound = rng.randrange(0, 9)
        box = certified_box(s, bound)
        hits = brute_points(s, bound, 8)
        assert all(all(x in r for x, r in zip(p, box)) for p, _ in hits), (s, bound)
        assert sorted(hits) == list(lattice_enumerate_oracle(s, bound))
        inside += len(hits)
    assert inside > 100


def random_lattice_sum(rng):
    # c stays at least 1 and lin entries shrink with dimension so the
    # certified oracle boxes stay modest
    l = rng.randrange(0, 5)
    c = Fraction(rng.randrange(2, 7), rng.choice((1, 2)))
    span = 4 if l <= 2 else 2
    lin = tuple(
        Fraction(rng.randrange(-span, span + 1), rng.choice((1, 2)))
        for _ in range(l)
    )
    const = Fraction(rng.randrange(-8, 9), rng.choice((1, 2, 4)))
    weight = rng.choice((None, None, WEIGHT_ALTERNATING, WEIGHT_FOUR_K_PLUS_ONE))
    return kappa_sum(l, c, lin, const, weight)


def test_oracle_agrees_with_enumerate_on_seeded_instances():
    rng = random.Random(2024)
    checked = 0
    for _ in range(100):
        s = random_lattice_sum(rng)
        cap = 30 if s.l <= 2 else 12
        bound = Fraction(rng.randrange(0, 2 * cap + 1), 2)
        got = list(lattice_enumerate(s, bound))
        want = list(lattice_enumerate_oracle(s, bound))
        assert got == want
        checked += len(got)
    assert checked > 300


def box_minimum(s):
    # any point's exponent bounds the minimum, so the box scan below it finds it
    top = min(brute_exponent(s, p) for p in iter_product((-1, 0, 1), repeat=s.l))
    return min(e for _, e in lattice_enumerate_oracle(s, top))


def test_lattice_sum_above_lead_matches_box_oracle():
    # c and lin shrink the box with dimension so the scans stay small
    rng = random.Random(4242)
    moved = 0
    for _ in range(70):
        l = rng.randrange(0, 7)
        c = Fraction(rng.randrange(2, 7), rng.choice((1, 2))) + (2 if l >= 5 else 0)
        span = (4, 4, 4, 2, 2, 1, 1)[l]
        lin = tuple(
            Fraction(rng.randrange(-span, span + 1), rng.choice((1, 2)))
            for _ in range(l)
        )
        const = Fraction(rng.randrange(-8, 9), rng.choice((1, 2, 4)))
        weight = rng.choice((None, WEIGHT_ALTERNATING, WEIGHT_FOUR_K_PLUS_ONE))
        s = kappa_sum(l, c, lin, const, weight)
        want = box_minimum(s)
        assert lattice_sum_above(s, 0)[0] == want, s
        moved += want < const
    assert moved > 10
    # (-1)^k q^(k^2+k) cancels at its minimum, and everywhere else, but its
    # lead is still the least exponent a point reaches; a 4k+1 weight in 2-D
    vanishing = kappa_sum(1, Fraction(1), (Fraction(1),), Fraction(0), WEIGHT_ALTERNATING)
    four = kappa_sum(2, Fraction(3, 2), fracs("-1/2 1"), Fraction(-1, 4), WEIGHT_FOUR_K_PLUS_ONE)
    for s in (vanishing, four):
        assert lattice_sum_above(s, 0)[0] == box_minimum(s), s
    assert lattice_sum_above(vanishing, 6) == (0, QSeries.zero(6))


def workload_lattice_sides():
    """(lattice, order) of every lattice side the three benchmark workloads
    build: both routes of each proposition with n <= 7 at order 30 (the
    (1^n) character routes are read off their trace walks, not walked), the
    family and the classical identities' lattice sides at their orders."""
    from qchar.affine import PartitionData, _character_parts, _trace_parts, partitions
    from qchar.identities import CLASSICAL_NAMES, class2_identity

    for n in range(1, 8):
        for parts in partitions(n):
            data = PartitionData.from_parts(parts)
            for k in range(n):
                yield _character_parts(data, k)[0], 30
                yield _trace_parts(data, k)[0], 30
    for make, m, order in ((class1_identity, 1, 800), (class1_identity, 2, 160),
                           (class1_identity, 3, 56), (class2_identity, 1, 800),
                           (class2_identity, 2, 100)):
        yield make(m).rhs, order
    for name in CLASSICAL_NAMES:
        yield classical_identity(name).rhs, 3000


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_translation_matches_a_dense_solve(data):
    """_translation against box_oracle's exact Gram inverse: v solves
    2 A v = lin_a - (da/db) lin_b, A the Gram matrix of a's quadratic part,
    and a translation exists exactly when v is integral.  b is a, translated
    by an integral v, written on a grid s times finer with e/(s da) added,
    and then its linear entries may move, which leaves v fractional or
    moves it to another integral point."""
    from qchar.affine import _translation

    ints = lambda lo, hi: st.integers(min_value=lo, max_value=hi)
    vec = lambda n, lo, hi: data.draw(st.lists(ints(lo, hi), min_size=n, max_size=n))
    l = data.draw(ints(1, 4))
    a = LatticeSum(tuple(vec(l, 1, 9)), tuple(vec(l - 1, -4, 4)), tuple(vec(l, -9, 9)),
                   data.draw(ints(-9, 9)), data.draw(ints(1, 6)))
    try:
        a._form
    except ValueError:
        assume(False)
    v, bump = vec(l, -3, 3), vec(l, -2, 2)
    s, e = data.draw(ints(1, 3)), data.draw(ints(-5, 5))
    a2 = [[2 * x for x in row] for row in gram(a)]
    # denom * E_a(y - v) = Q(y) + (lin - 2Av).y + denom * E_a(v) - 2 lin.v
    lin_b = [x - sum(map(operator.mul, row, v)) for x, row in zip(a.lin, a2)]
    const_b = brute_exponent(a, v) * a.denom - 2 * sum(map(operator.mul, a.lin, v))
    b = LatticeSum(tuple(x * s for x in a.diag), tuple(x * s for x in a.off),
                   tuple(int(x) * s + y for x, y in zip(lin_b, bump)),
                   int(const_b) * s + e, a.denom * s)
    inv = inverse(a2)
    r = [x - Fraction(a.denom, b.denom) * y for x, y in zip(a.lin, b.lin)]
    u = [sum(map(operator.mul, row, r)) for row in inv]
    want = None
    if all(x.denominator == 1 for x in u):
        want = brute_exponent(b, [int(x) for x in u]) - brute_exponent(a, [0] * l)
    assert _translation(a, b) == want
    if want is not None:
        assert _translation(b, a) == -want
    if not any(bump):
        assert want == Fraction(e, a.denom * s)


def test_nearest_plane_walk_reaches_the_minimum_within_babais_bound():
    """lattice_sum_above walks through its nearest-plane point's exponent
    plus the order: never short of the minimum plus the order, never past
    Babai's worst case cstar + sum(d_i)/4 plus the order, and on all but 5
    of the 489 lattice sides the workloads build through exactly the
    minimum plus the order."""
    import qchar.quadform as quadform

    exact = walks = 0
    for s, order in workload_lattice_sides():
        lead, _ = lattice_sum_above(s, order)
        form = s._form
        least, extra = form.least, order * form.grid
        pivots = sum(k * w * w for k, w in zip(form.K, form.W))
        units = quadform._nearest_plane(form) + extra
        assert least + extra <= units <= (4 * form.base + pivots) // (4 * form.sigma) + extra
        assert lead == Fraction(least, form.grid)
        exact += units == least + extra
        walks += 1
    assert (walks, exact) == (489, 484)


def counting(monkeypatch, name):
    import qchar.quadform as quadform

    calls = [0]
    inner = getattr(quadform, name)

    def counted(*args):
        calls[0] += 1
        return inner(*args)

    monkeypatch.setattr(quadform, name, counted)
    return calls


def test_lattice_sum_above_completes_squares_once(monkeypatch):
    calls = counting(monkeypatch, "_complete_squares")
    s = kappa_sum(3, Fraction(3, 2), fracs("1/2 -1 2"), Fraction(-5, 4))
    lead, series = lattice_sum_above(s, 0)
    assert lead == box_minimum(s) and Fraction(series.order, series.denom) == lead
    assert calls[0] == 1


def test_each_verify_walks_each_lattice_side_once(monkeypatch):
    # the lead and the window come from one walk: a proposition walks each
    # route's lattice once, an identity its one lattice side once
    from qchar.affine import verify_proposition
    from qchar.cli import main

    calls = counting(monkeypatch, "_walk")
    assert verify_proposition((1, 3), 3, 10).match
    assert calls[0] == 2
    assert verify_identity(classical_identity("euler"), 20).match
    assert calls[0] == 3
    assert main(["verify", "class1", "--m", "2", "--order", "20"]) == 0
    assert calls[0] == 4
    # a (1^n) proposition's two sides are one lattice, translated
    assert verify_proposition((1, 1, 1, 1, 1), 2, 30).match
    assert calls[0] == 5


def test_only_a_proved_translation_walks_one_side(monkeypatch):
    """verify walks one of two pure lattice sides only when both are
    unweighted, their quadratic parts agree over a common denominator and
    the translation v solving 2Q v = lin_lhs - lin_rhs is integral.  Every
    pair reports what walking each side on its own reports."""
    from qchar.affine import Side, verify
    from qchar.qseries import _compare_builders

    calls = counting(monkeypatch, "_walk")

    def walks(lhs, rhs, order=Fraction(20)):
        calls[0] = 0
        got = verify(Side(lhs), Side(rhs), order)
        made = calls[0]
        want = _compare_builders(Side(lhs).above, Side(rhs).above, order)
        assert json.dumps(got.to_json()) == json.dumps(want.to_json())
        return made, got

    kappa2 = LatticeSum((2, 2), (-2,), (0, 0))
    # x^2 against (x - 1)^2 + 3/2, on the grids 1 and 2
    made, got = walks(LatticeSum((1,), (), (0,)), LatticeSum((2,), (), (-4,), 5, 2))
    assert made == 1 and got.match and got.rhs_shift == Fraction(3, 2)
    # one quadratic part over denominators 1 and 2, v = 0, at a fractional order
    made, got = walks(kappa2, LatticeSum((4, 4), (-4,), (0, 0), 1, 2), Fraction(7, 3))
    assert made == 1 and got.match and got.rhs_shift == Fraction(1, 2)
    # equal quadratic parts, v = (1/3, 1/6): not one lattice
    made, got = walks(LatticeSum((2, 2), (-2,), (1, 0)), kappa2)
    assert made == 2 and not got.match
    # quadratic parts that differ in one entry
    made, got = walks(kappa2, LatticeSum((2, 2), (-1,), (0, 0)))
    assert made == 2 and not got.match and got.first_mismatch.exponent == 2
    # weighted: the same chain, alternating on both sides and on one
    signed = dataclasses.replace(kappa2, weight=WEIGHT_ALTERNATING)
    made, got = walks(signed, signed)
    assert made == 2 and got.match
    made, got = walks(kappa2, signed)
    assert made == 2 and not got.match
    # a singular quadratic part has no translation to prove: the walk refuses it
    flat = LatticeSum((1, 1), (-2,), (0, 0))
    with pytest.raises(ValueError, match="indefinite"):
        verify(Side(flat), Side(flat), 5)


@pytest.mark.parametrize(
    "make", [lambda: class1_identity(2), lambda: classical_identity("euler")]
)
def test_verify_identity_completes_squares_once(monkeypatch, make):
    # the minimum walk and the bounded walk share the lattice side's one
    # completion, and a second verify of the same spec completes nothing
    calls = counting(monkeypatch, "_complete_squares")
    spec = make()
    assert verify_identity(spec, 20).match
    assert calls[0] == 1
    assert verify_identity(spec, 20).match
    assert calls[0] == 1


def test_completed_form_stays_out_of_the_value():
    args = (3, Fraction(3, 2), fracs("1/2 -1 2"), Fraction(-5, 4), WEIGHT_ALTERNATING)
    s, fresh = kappa_sum(*args), kappa_sum(*args)
    want = lattice_sum_series(s, 6)
    assert "_form" in vars(s) and "_form" not in vars(fresh)
    assert s == fresh and hash(s) == hash(fresh)
    assert repr(s) == repr(fresh)
    assert json.dumps(s.to_json()) == json.dumps(fresh.to_json())
    back = pickle.loads(pickle.dumps(s))
    assert back == s and hash(back) == hash(s) and repr(back) == repr(s)
    assert lattice_sum_series(back, 6) == want == lattice_sum_series(fresh, 6)


def test_replace_completes_its_own_form(monkeypatch):
    calls = counting(monkeypatch, "_complete_squares")
    s = kappa_sum(3, Fraction(3, 2), fracs("1/2 -1 2"), Fraction(-5, 4))
    low = lattice_sum_above(s, 0)[0]
    moved = dataclasses.replace(s, const=0)
    assert "_form" not in vars(moved)
    assert lattice_sum_above(moved, 0)[0] == low + Fraction(5, 4)
    assert calls[0] == 2


# Python 3.10 spells the in-place BINARY_OP as its own opcode
INPLACE_OPS = {"INPLACE_ADD": "+=", "INPLACE_SUBTRACT": "-="}


def line_hits(run, code, match, lines=1):
    """Run run() and count how often code executes the lines of the
    instructions that match(previous, instruction) picks, one per line.

    The lines are read off the code object that runs, so an edit to the
    source file while the suite runs cannot move them.  A match that picks
    other than lines instructions, or two on one line, raises before run()
    starts: a later branch reusing a name must not silently retarget the
    count.
    """
    ops = list(dis.get_instructions(code))
    offsets = [b.offset for a, b in zip(ops, ops[1:]) if match(a, b)]
    targets = {
        line for start, end, line in code.co_lines() for at in offsets if start <= at < end
    }
    assert len(offsets) == len(targets) == lines, (code.co_name, offsets)
    hits = [0]

    def local(frame, event, arg):
        if event == "line" and frame.f_lineno in targets:
            hits[0] += 1
        return local

    def tracer(frame, event, arg):
        return local if frame.f_code is code else None

    previous = sys.gettrace()
    sys.settrace(tracer)
    try:
        result = run()
    finally:
        sys.settrace(previous)
    return result, hits[0]


def walk_line_hits(run, store, op=None):
    """Run run() and count how often the lattice walk executes the line that
    stores into the local store, after the in-place op when one is given."""
    import qchar.quadform as quadform

    return line_hits(
        run,
        quadform._walk_residues.__code__,
        lambda a, b: b.opname == "STORE_FAST" and b.argval == store
        and op in (None, a.argrepr, INPLACE_OPS.get(a.opname)),
    )


def test_walk_line_hits_refuses_a_missing_or_ambiguous_line():
    # _walk_residues stores thetas on three lines and stores no local named absent
    for store, op in (("thetas", None), ("absent", None), ("spend", "-=")):
        with pytest.raises(AssertionError):
            walk_line_hits(lambda: pytest.fail("ran"), store, op)


def test_walk_prices_each_coordinate_once_per_predecessor(monkeypatch):
    # work counts are the only guard here: a walk that prices every (value,
    # spend) pair, keeps one theta per value of the coordinate before, or
    # takes each range again on its way back, gives the same series.  The
    # sum is the character numerator of (1^7), k = 0, at 20.
    s = kappa_sum(6, Fraction(1), (Fraction(0),) * 6)
    calls = counting(monkeypatch, "_level_range")
    # the forward pass takes one range per reached residue of each level;
    # the backward pass shift-adds each term that completes a point once
    got, adds = walk_line_hits(lambda: lattice_sum_series(s, 20), "acc", "+=")
    assert calls[0] == 21  # 63 when rows walked levels 0..4 and folded level 5
    assert adds == 222  # the rows added 527 parts; the dict walk merged 4040 spends
    assert got.order == 20 and got[1] == 42
    assert got.truncated(6) == series_by_hand(s, 6)


def test_oracle_zero_dimensional_and_empty():
    s = kappa_sum(0, Fraction(1), (), Fraction(2))
    assert list(lattice_enumerate_oracle(s, 2)) == [((), Fraction(2))]
    assert list(lattice_enumerate_oracle(s, 1)) == []
    far = kappa_sum(2, Fraction(4), (Fraction(0), Fraction(0)), Fraction(50))
    assert list(lattice_enumerate_oracle(far, 10)) == []


def test_oracle_vectorized_box_agrees(monkeypatch):
    # the array path, forced, against the plain scan and the engine, point
    # for point, on a kappa chain and on a weighted chain that is not kappa
    cases = [
        (kappa_sum(3, Fraction(1, 4), (Fraction(1, 2), Fraction(0), Fraction(-1))), 18),
        (LatticeSum((3, 2, 5, 2), (-3, 1, 4), (1, 0, -2, 1), 1, 6, WEIGHT_FOUR_K_PLUS_ONE), 7),
    ]
    for s, bound in cases:
        plain = list(lattice_enumerate_oracle(s, bound))
        assert math.prod(map(len, certified_box(s, bound))) <= box_oracle._ARRAY_VOLUME
        monkeypatch.setattr(box_oracle, "_ARRAY_VOLUME", 0)
        got = list(lattice_enumerate_oracle(s, bound))
        monkeypatch.undo()
        assert got == plain == list(lattice_enumerate(s, bound))
        assert len(got) > 400


# -- property tests --------------------------------------------------------------

small_rationals = st.builds(
    Fraction, st.integers(min_value=-4, max_value=4), st.sampled_from([1, 2, 3])
)
# slack above weak diagonal dominance; zero or negative slack may leave the
# chain indefinite, which both completions must refuse.  A positive slack of
# at least 1/2 everywhere keeps every eigenvalue at least 1/2, so the
# nearest-plane box stays small.
slacks = st.sampled_from(
    [Fraction(-1, 2), Fraction(0), Fraction(1, 2), Fraction(1), Fraction(3, 2),
     Fraction(2), Fraction(3), Fraction(5)]
)
WEIGHTS = (None, WEIGHT_ALTERNATING, WEIGHT_FOUR_K_PLUS_ONE)


@st.composite
def rational_chains(draw, max_dim=6):
    l = draw(st.integers(min_value=0, max_value=max_dim))
    off = [draw(small_rationals) for _ in range(max(l - 1, 0))]
    diag = []
    for i in range(l):
        near = (abs(off[i - 1]) if i else 0) + (abs(off[i]) if i < l - 1 else 0)
        diag.append(near / 2 + draw(slacks))
    lin = [draw(small_rationals) for _ in range(l)]
    return diag, off, lin, draw(small_rationals)


@st.composite
def lattice_sums(draw):
    """A tridiagonal chain in dimensions 0-3, kappa or not, definite or not,
    on the lcm of its denominators, with a weight shape."""
    chain = squares_oracle.integer_chain(*draw(rational_chains(max_dim=3)))
    return LatticeSum(*chain, weight=draw(st.sampled_from(WEIGHTS)))


def small_definite(s, bound):
    """Whether s is definite, its box at the bound small enough to scan; an
    indefinite s must be refused by the engine and the box oracle alike."""
    try:
        box = certified_box(s, bound)
    except ValueError:
        with pytest.raises(ValueError, match="indefinite"):
            lattice_sum_series(s, bound)
        return False
    assume(math.prod(map(len, box)) <= 20000)
    return True


@settings(max_examples=60, deadline=None)
@given(lattice_sums(), st.integers(min_value=0, max_value=10))
def test_property_enumerate_sound_and_complete(s, bound):
    if not small_definite(s, bound):
        return
    hits = list(lattice_enumerate(s, bound))
    pts = [p for p, _ in hits]
    assert pts == sorted(pts)
    for point, exp in hits:
        assert exp == brute_exponent(s, point)
        assert exp <= bound
    assert hits == list(lattice_enumerate_oracle(s, bound))


@settings(max_examples=60, deadline=None)
@given(lattice_sums(), st.integers(min_value=0, max_value=10))
def test_property_series_aggregates_enumeration(s, bound):
    if not small_definite(s, bound):
        return
    got = lattice_sum_series(s, bound)
    assert got == series_by_hand(s, Fraction(bound))
    assert got == dict_walk(s._form, s.weight, bound * s.denom)[1]


# -- the integer completion against the Fraction oracle ------------------------


def on_finer_grid(ints, extra):
    """An integer chain (diag, off, lin, const, denom) with every entry times extra."""
    diag, off, lin, const, denom = ints
    return [v * extra for v in diag], [v * extra for v in off], [v * extra for v in lin], \
        const * extra, denom * extra


@settings(max_examples=200, deadline=None)
@given(rational_chains(), st.sampled_from([1, 2, 6]))
def test_property_integer_squares_match_fraction_oracle(chain, extra):
    # extra puts the chain on a finer denominator than its grid, which the
    # constructor must reduce away
    scaled = on_finer_grid(squares_oracle.integer_chain(*chain), extra)
    try:
        squares = squares_oracle.complete_squares(*chain)
    except ValueError:
        with pytest.raises(ValueError):
            LatticeSum(*scaled)._form
        return
    # uneven pivots can still leave too many points for the oracle's scan
    assume(squares_oracle.scan_size(squares) <= 20000)
    s = LatticeSum(*scaled)
    assert squares_oracle.form_matches(s._form, squares)
    assert lattice_sum_above(s, 0)[0] == squares_oracle.chain_min(squares)


@settings(max_examples=100, deadline=None)
@given(rational_chains(), st.sampled_from([1, 2, 6]), st.sampled_from(WEIGHTS))
def test_property_a_finer_denominator_gives_the_reduced_chain(chain, extra, weight):
    # the lcm chain of integer_chain is already reduced, so it is stored as
    # given, and the same chain on a finer denominator is the same value
    ints = squares_oracle.integer_chain(*chain)
    reduced = LatticeSum(*ints, weight=weight)
    finer = LatticeSum(*on_finer_grid(ints, extra), weight=weight)
    assert dataclasses.astuple(reduced)[:5] == (*map(tuple, ints[:3]), *ints[3:])
    assert finer == reduced and hash(finer) == hash(reduced) and repr(finer) == repr(reduced)
    assert json.dumps(finer.to_json()) == json.dumps(reduced.to_json())
    try:
        form = reduced._form
    except ValueError:
        with pytest.raises(ValueError):
            finer._form
        return
    assert finer._form == form


def test_every_route_chain_completes_like_the_fraction_oracle():
    # both routes' chains for every partition with n <= 8 and every k, the
    # sweep workload's and the n = 8 ones beyond it, against their Fraction
    # chains
    count = 0
    for label, chain, rational in squares_oracle.route_chains(8):
        squares = squares_oracle.complete_squares(*rational)
        assert squares_oracle.form_matches(chain._form, squares), label
        count += 1
    assert count == 832


def test_one_form_walks_any_bound_like_fresh_builds():
    # bounds on and off the grid (4 here), below the minimum and far above it
    s = kappa_sum(3, Fraction(3, 2), fracs("1/2 -1 2"), Fraction(-5, 4), WEIGHT_ALTERNATING)
    form = _complete_squares(s.diag, s.off, s.lin, s.const, s.denom)
    assert form.grid == 4
    for bound in (Fraction(-7, 2), Fraction(7, 3), 12, Fraction(61, 2)):
        walked = _walk(form, s.weight, math.floor(bound * form.grid))
        assert walked.to_json() == lattice_sum_series(s, bound).to_json(), bound
        assert walked == series_by_hand(s, Fraction(bound)), bound


def test_kappa_form_holds_plain_ints():
    s = kappa_sum(3, Fraction(3, 2), fracs("1/2 -1 2"), Fraction(-5, 4))
    assert dataclasses.astuple(s) == ((6, 6, 6), (-6, -6), (2, -4, 8), -5, 4, None)
    form = s._form
    values = (*s.diag, *s.off, *s.lin, s.const, s.denom, form.grid, form.sigma, form.base)
    for value in (*values, *form.K, *form.W, *form.w_prev, *form.w0):
        assert type(value) is int
