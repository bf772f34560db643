"""Lattice enumeration checked against brute scans and frozen small cases."""

import dataclasses
import inspect
import json
import math
import pickle
import random
import sys
from fractions import Fraction
from itertools import product as iter_product

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import squares_oracle
from box_oracle import _kappa_lambda_lower, lattice_enumerate_oracle
from qchar.identities import class1_identity, classical_identity, verify_identity
from qchar.qseries import ProductSpec, QSeries, phi_series, product_series, series_mul
from qchar.quadform import (
    WEIGHT_ALTERNATING,
    WEIGHT_FOUR_K_PLUS_ONE,
    LatticeSum,
    _chain_min,
    _complete_squares,
    _kappa_parts,
    _walk,
    kappa_eval,
    lattice_enumerate,
    lattice_min_exponent,
    lattice_sum_series,
)

# -- oracles ----------------------------------------------------------------


def brute_kappa(k):
    # independent restatement of the chain form
    total = sum(v * v for v in k)
    for i in range(len(k) - 1):
        total -= k[i] * k[i + 1]
    return total


def brute_points(s, bound, radius):
    """Scan a box by hand and keep points with exponent at most the bound."""
    hits = []
    for point in iter_product(range(-radius, radius + 1), repeat=s.l):
        e = s.c * brute_kappa(point) + sum(
            a * b for a, b in zip(s.lin, point)
        ) + s.const
        if e <= bound:
            hits.append((point, Fraction(e)))
    return hits


def fracs(text):
    return tuple(Fraction(v) for v in text.split())


def lattice_grid(s):
    # every exponent c*kappa + lin.k + const lands on this grid
    d = 1
    for v in (s.c, s.const, *s.lin):
        d = math.lcm(d, v.denominator)
    return d


def series_by_hand(s, bound):
    """Aggregate the enumerated stream into a QSeries, weights applied."""
    t = Fraction(bound)
    grid = lattice_grid(s)
    terms = []
    for point, exp in lattice_enumerate(s, t):
        terms.append((exp, s.weight_at(point)))
    if not terms:
        return QSeries.zero(t, grid)
    return QSeries.from_terms(terms, t, grid)


# -- the kappa form ---------------------------------------------------------


def test_kappa_frozen_values():
    assert kappa_eval((2, -1, 3)) == 19
    assert kappa_eval((5,)) == 25
    assert kappa_eval((1, 1)) == 1
    assert kappa_eval((1, 1, 1, 1)) == 1
    assert kappa_eval((0, 0, 0)) == 0


def test_kappa_matches_brute_form():
    rng = random.Random(7)
    for _ in range(200):
        l = rng.randrange(1, 9)
        k = tuple(rng.randrange(-9, 10) for _ in range(l))
        assert kappa_eval(k) == brute_kappa(k)


def test_kappa_positive_definite():
    rng = random.Random(11)
    seen_one = False
    for _ in range(1000):
        l = rng.randrange(1, 9)
        k = tuple(rng.randrange(-9, 10) for _ in range(l))
        if any(k):
            v = kappa_eval(k)
            assert v >= 1
            seen_one = seen_one or v == 1
    assert seen_one


def test_kappa_eval_rejects_bad_input():
    with pytest.raises(ValueError):
        kappa_eval(())
    with pytest.raises(ValueError):
        kappa_eval((1, Fraction(1, 2)))


# -- LatticeSum construction --------------------------------------------------


def test_lattice_sum_validation():
    with pytest.raises(ValueError):
        LatticeSum(2, Fraction(0), (Fraction(1), Fraction(1)))
    with pytest.raises(ValueError):
        LatticeSum(2, Fraction(-3), (Fraction(1), Fraction(1)))
    with pytest.raises(ValueError):
        LatticeSum(2, Fraction(1), (Fraction(1),))
    with pytest.raises(ValueError):
        LatticeSum(-1, Fraction(1), ())
    with pytest.raises(ValueError):
        LatticeSum(1, Fraction(1), (Fraction(0),), weight="cubed")
    s = LatticeSum(0, Fraction(1), (), Fraction(5, 4))
    assert s.exponent_at(()) == Fraction(5, 4)


def test_lattice_sum_exponent_frozen():
    s = LatticeSum(3, Fraction(3), (Fraction(1), Fraction(-1), Fraction(2)))
    assert s.exponent_at((0, 0, 0)) == 0
    assert s.exponent_at((1, 0, 0)) == 4
    assert s.exponent_at((0, 1, 0)) == 2
    assert s.exponent_at((1, 1, 1)) == 5
    with pytest.raises(ValueError):
        s.exponent_at((1, 0))


def test_lattice_sum_json_round_trip():
    s = LatticeSum(
        2,
        Fraction(3, 2),
        (Fraction(1, 2), Fraction(-2)),
        Fraction(-1, 4),
        WEIGHT_ALTERNATING,
    )
    data = s.to_json()
    assert data["c"] == "3/2"
    assert data["weight"] == WEIGHT_ALTERNATING
    plain = LatticeSum(1, Fraction(2), (Fraction(1),))
    assert "weight" not in plain.to_json()


def test_lattice_sum_refuses_bool_dimension():
    # to_json would write "l": true
    with pytest.raises(ValueError):
        LatticeSum(True, Fraction(1), (Fraction(0),))


def test_weight_values():
    s = LatticeSum(1, Fraction(1), (Fraction(0),), weight=WEIGHT_ALTERNATING)
    assert s.weight_at((2,)) == 1
    assert s.weight_at((-3,)) == -1
    j = LatticeSum(1, Fraction(2), (Fraction(1),), weight=WEIGHT_FOUR_K_PLUS_ONE)
    assert j.weight_at((0,)) == 1
    assert j.weight_at((-1,)) == -3
    assert j.weight_at((2,)) == 9
    bare = LatticeSum(2, Fraction(1), (Fraction(0), Fraction(0)))
    assert bare.weight_at((5, -5)) == 1


# -- enumeration ---------------------------------------------------------------


def test_enumerate_one_dimensional_against_direct_scan():
    s = LatticeSum(1, Fraction(2), (Fraction(1),))
    got = list(lattice_enumerate(s, 45))
    want = [(k, 2 * k * k + k) for k in range(-5, 6) if 2 * k * k + k <= 45]
    want = sorted(((k,), Fraction(e)) for k, e in want)
    assert got == want


def test_enumerate_is_lexicographic():
    s = LatticeSum(3, Fraction(3), (Fraction(1), Fraction(-1), Fraction(2)))
    pts = [p for p, _ in lattice_enumerate(s, 12)]
    assert pts == sorted(pts)
    assert len(pts) == len(set(pts))


def test_enumerate_exponents_are_consistent():
    s = LatticeSum(
        3, Fraction(3, 2), (Fraction(1, 2), Fraction(0), Fraction(-1)), Fraction(1, 4)
    )
    hits = list(lattice_enumerate(s, Fraction(19, 2)))
    assert hits
    for point, exp in hits:
        assert exp == s.exponent_at(point)
        assert exp <= Fraction(19, 2)


def test_enumerate_matches_brute_box():
    s = LatticeSum(2, Fraction(1), (Fraction(1, 2), Fraction(-1, 2)))
    got = sorted(lattice_enumerate(s, 6))
    want = sorted(brute_points(s, Fraction(6), 6))
    assert got == want


def test_enumerate_zero_dimensions():
    inside = LatticeSum(0, Fraction(1), (), Fraction(3))
    assert list(lattice_enumerate(inside, 3)) == [((), Fraction(3))]
    outside = LatticeSum(0, Fraction(1), (), Fraction(7, 2))
    assert list(lattice_enumerate(outside, 3)) == []


def test_enumerate_empty_below_constant():
    s = LatticeSum(2, Fraction(5), (Fraction(0), Fraction(0)), Fraction(10))
    assert list(lattice_enumerate(s, 9)) == []
    assert list(lattice_enumerate(s, -100)) == []


def test_enumerate_monotone_in_bound():
    s = LatticeSum(3, Fraction(2), (Fraction(1), Fraction(0), Fraction(-1)))
    small = set(lattice_enumerate(s, 8))
    large = set(lattice_enumerate(s, 15))
    assert small <= large


def test_enumerate_reflection_symmetry():
    lin = (Fraction(1), Fraction(-2), Fraction(1, 2))
    plus = LatticeSum(3, Fraction(2), lin)
    minus = LatticeSum(3, Fraction(2), tuple(-v for v in lin))
    got = sorted(lattice_enumerate(plus, 10))
    mirrored = sorted(
        (tuple(-x for x in p), e) for p, e in lattice_enumerate(minus, 10)
    )
    assert got == mirrored


# -- series expansion ----------------------------------------------------------


def test_series_gauss_exponents():
    s = LatticeSum(1, Fraction(2), (Fraction(1),))
    got = lattice_sum_series(s, 45)
    want = QSeries.from_terms(
        [(2 * k * k + k, 1) for k in range(-5, 6) if 2 * k * k + k <= 45], 45
    )
    assert got == want
    assert got[0] == 1 and got[1] == 1 and got[3] == 1 and got[2] == 0


def test_series_zero_dimensional():
    s = LatticeSum(0, Fraction(1), (), Fraction(5, 2))
    got = lattice_sum_series(s, 4)
    assert got == QSeries.monomial(Fraction(5, 2), 1, 4)
    assert lattice_sum_series(s, 2).is_zero()


def test_series_empty_sum_is_zero():
    s = LatticeSum(2, Fraction(3), (Fraction(0), Fraction(0)), Fraction(9))
    assert lattice_sum_series(s, 8).is_zero()


def test_series_origin_only_term():
    s = LatticeSum(4, Fraction(5), (Fraction(0),) * 4)
    got = lattice_sum_series(s, 4)
    assert got.lowest_exponent() == 0
    assert got[0] == 1


def test_series_alternating_weight_square_exponents():
    # sum over k of (-1)^k q^(k^2): coefficient 2(-1)^k at k^2, 1 at 0
    s = LatticeSum(1, Fraction(1), (Fraction(0),), weight=WEIGHT_ALTERNATING)
    got = lattice_sum_series(s, 20)
    want = QSeries.from_terms(
        [(0, 1), (1, -2), (4, 2), (9, -2), (16, 2)], 20
    )
    assert got == want


def test_series_four_k_plus_one_weight():
    s = LatticeSum(1, Fraction(2), (Fraction(1),), weight=WEIGHT_FOUR_K_PLUS_ONE)
    got = lattice_sum_series(s, 12)
    want = QSeries.from_terms([(0, 1), (1, -3), (3, 5), (6, -7), (10, 9)], 12)
    assert got == want


def test_series_jacobi_cube():
    s = LatticeSum(1, Fraction(2), (Fraction(1),), weight=WEIGHT_FOUR_K_PLUS_ONE)
    phi = phi_series(Fraction(1), 25)
    cube = series_mul(series_mul(phi, phi), phi)
    assert lattice_sum_series(s, 25) == cube


def test_series_euler_pentagonal():
    s = LatticeSum(
        1, Fraction(3, 2), (Fraction(1, 2),), weight=WEIGHT_ALTERNATING
    )
    assert lattice_sum_series(s, 15) == phi_series(Fraction(1), 15)


def test_series_gauss_quotient_match():
    s = LatticeSum(1, Fraction(2), (Fraction(1),))
    spec = ProductSpec(((Fraction(2), 2), (Fraction(1), -1)))
    assert lattice_sum_series(s, 30) == product_series(spec, 30)


def test_series_three_dimensional_product_match():
    # the chain sum in three variables equals a five-factor Euler quotient
    s = LatticeSum(3, Fraction(3), (Fraction(1), Fraction(-1), Fraction(2)))
    spec = ProductSpec(((Fraction(3), 3), (Fraction(2), 2), (Fraction(1), -2)))
    assert lattice_sum_series(s, 25) == product_series(spec, 25)


def test_series_matches_hand_aggregation():
    cases = [
        LatticeSum(2, Fraction(1), (Fraction(1, 2), Fraction(-1, 2)), Fraction(1, 4)),
        LatticeSum(3, Fraction(2), (Fraction(1), Fraction(0), Fraction(-1))),
        LatticeSum(1, Fraction(5, 2), (Fraction(-3, 2),), Fraction(-2)),
        LatticeSum(2, Fraction(3), (Fraction(2), Fraction(2)), weight=WEIGHT_ALTERNATING),
        LatticeSum(4, Fraction(1), (Fraction(0),) * 4),
        # 5- to 7-dimensional chains, fractional c, lin and const, both weights
        LatticeSum(
            5, Fraction(5, 2), fracs("1/2 -3/2 0 1 -1/3"), Fraction(-1, 4),
            WEIGHT_ALTERNATING,
        ),
        LatticeSum(
            6, Fraction(7, 3), fracs("-1 1/3 2/3 0 -1/2 1"), Fraction(1, 6),
            WEIGHT_FOUR_K_PLUS_ONE,
        ),
        LatticeSum(7, Fraction(3, 2), fracs("1/2 0 -1/2 1 0 -1 1/4"), Fraction(-3, 4)),
        LatticeSum(
            7, Fraction(9, 4), fracs("-1/2 " * 7), Fraction(1, 3), WEIGHT_ALTERNATING
        ),
    ]
    for s in cases:
        t = Fraction(21, 2)
        assert lattice_sum_series(s, t) == series_by_hand(s, t)


def test_series_fractional_bound_truncates_on_grid():
    s = LatticeSum(1, Fraction(1), (Fraction(0),))
    got = lattice_sum_series(s, Fraction(19, 2))
    assert got.order_exponent() == 9
    assert got[9] == 2 and got[8] == 0 and got[4] == 2


def test_series_negative_constant_shifts_window():
    s = LatticeSum(1, Fraction(1), (Fraction(0),), Fraction(-7, 2))
    got = lattice_sum_series(s, 4)
    assert got.lowest_exponent() == Fraction(-7, 2)
    assert got[Fraction(-7, 2)] == 1
    assert got[Fraction(-5, 2)] == 2


# -- certified eigenvalue bound and the crude oracle ----------------------------


def test_lambda_lower_is_positive_and_below_truth():
    for l in range(1, 12):
        lo = _kappa_lambda_lower(l)
        true = 2 * math.sin(math.pi / (2 * (l + 1))) ** 2
        assert 0 < lo
        assert float(lo) <= true + 1e-12


def test_lambda_lower_bounds_the_form():
    rng = random.Random(37)
    for _ in range(300):
        l = rng.randrange(1, 6)
        lam = _kappa_lambda_lower(l)
        k = tuple(rng.randrange(-7, 8) for _ in range(l))
        assert Fraction(kappa_eval(k)) >= lam * sum(v * v for v in k)


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
    return LatticeSum(l, c, lin, const, weight)


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


def test_lattice_min_exponent_matches_box_oracle():
    # c and lin shrink the box with dimension so the scans stay small; any
    # point's exponent bounds the minimum, so the box scan below it finds it
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
        s = LatticeSum(l, c, lin, const, weight)
        top = min(s.exponent_at(p) for p in iter_product((-1, 0, 1), repeat=l))
        want = min(e for _, e in lattice_enumerate_oracle(s, top))
        assert lattice_min_exponent(s) == want, s
        moved += want < const
    assert moved > 10


def counting(monkeypatch, name):
    import qchar.quadform as quadform

    calls = [0]
    inner = getattr(quadform, name)

    def counted(*args):
        calls[0] += 1
        return inner(*args)

    monkeypatch.setattr(quadform, name, counted)
    return calls


def test_lattice_min_exponent_completes_squares_once(monkeypatch):
    calls = counting(monkeypatch, "_complete_squares")
    s = LatticeSum(3, Fraction(3, 2), fracs("1/2 -1 2"), Fraction(-5, 4))
    lattice_min_exponent(s)
    assert calls[0] == 1


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
    s, fresh = LatticeSum(*args), LatticeSum(*args)
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
    s = LatticeSum(3, Fraction(3, 2), fracs("1/2 -1 2"), Fraction(-5, 4))
    low = lattice_min_exponent(s)
    moved = dataclasses.replace(s, const=Fraction(0))
    assert "_form" not in vars(moved)
    assert lattice_min_exponent(moved) == low + Fraction(5, 4)
    assert calls[0] == 2


def walk_line_hits(run, text):
    """Run run() and count how often _walk executes its line holding text."""
    import qchar.quadform as quadform

    lines, first = inspect.getsourcelines(quadform._walk)
    target = first + next(i for i, line in enumerate(lines) if text in line)
    code = quadform._walk.__code__
    hits = [0]

    def local(frame, event, arg):
        if event == "line" and frame.f_lineno == target:
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


def test_walk_prices_each_coordinate_once_per_predecessor(monkeypatch):
    # work counts are the only guard here: a walk that prices every (value,
    # spend) pair, or adds a part per spend instead of per row, gives the
    # same series.  The sum is the character numerator of (1^7), k = 0.
    calls = counting(monkeypatch, "_level_range")
    s = LatticeSum(6, Fraction(1), (Fraction(0),) * 6)
    # each (predecessor row, value) pair adds its kept part into a row once
    got, adds = walk_line_hits(lambda: lattice_sum_series(s, 30), "spend = s0 + cost")
    assert calls[0] == 96
    assert adds == 956  # the dict walk merged 8466 spends one at a time
    assert got.order == 30 and got[1] == 42
    assert got.truncated(6) == series_by_hand(s, 6)


def test_oracle_zero_dimensional_and_empty():
    s = LatticeSum(0, Fraction(1), (), Fraction(2))
    assert list(lattice_enumerate_oracle(s, 2)) == [((), Fraction(2))]
    assert list(lattice_enumerate_oracle(s, 1)) == []
    far = LatticeSum(2, Fraction(4), (Fraction(0), Fraction(0)), Fraction(50))
    assert list(lattice_enumerate_oracle(far, 10)) == []


def test_oracle_vectorized_box_agrees():
    # large enough box to take the array path, compared point for point
    s = LatticeSum(3, Fraction(1, 4), (Fraction(1, 2), Fraction(0), Fraction(-1)))
    got = list(lattice_enumerate_oracle(s, 18))
    want = list(lattice_enumerate(s, 18))
    assert got == want
    assert len(got) > 400


# -- property tests --------------------------------------------------------------


@st.composite
def lattice_sums(draw):
    l = draw(st.integers(min_value=0, max_value=3))
    c = draw(st.sampled_from([Fraction(1), Fraction(3, 2), Fraction(2), Fraction(3)]))
    lin = tuple(
        draw(
            st.sampled_from(
                [Fraction(0), Fraction(1), Fraction(-1), Fraction(1, 2), Fraction(-3, 2)]
            )
        )
        for _ in range(l)
    )
    const = draw(st.sampled_from([Fraction(0), Fraction(1, 2), Fraction(-1), Fraction(2)]))
    weight = draw(st.sampled_from([None, WEIGHT_ALTERNATING, WEIGHT_FOUR_K_PLUS_ONE]))
    return LatticeSum(l, c, lin, const, weight)


@settings(max_examples=40, deadline=None)
@given(lattice_sums(), st.integers(min_value=0, max_value=10))
def test_property_enumerate_sound_and_complete(s, bound):
    hits = list(lattice_enumerate(s, bound))
    pts = [p for p, _ in hits]
    assert pts == sorted(pts)
    for point, exp in hits:
        assert exp == s.exponent_at(point)
        assert exp <= bound
    assert sorted(hits) == sorted(lattice_enumerate_oracle(s, bound))


@settings(max_examples=40, deadline=None)
@given(lattice_sums(), st.integers(min_value=0, max_value=10))
def test_property_series_aggregates_enumeration(s, bound):
    assert lattice_sum_series(s, bound) == series_by_hand(s, Fraction(bound))


# -- the integer completion against the Fraction oracle ------------------------

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


@st.composite
def rational_chains(draw):
    l = draw(st.integers(min_value=0, max_value=6))
    off = [draw(small_rationals) for _ in range(max(l - 1, 0))]
    diag = []
    for i in range(l):
        near = (abs(off[i - 1]) if i else 0) + (abs(off[i]) if i < l - 1 else 0)
        diag.append(near / 2 + draw(slacks))
    lin = [draw(small_rationals) for _ in range(l)]
    return diag, off, lin, draw(small_rationals)


@settings(max_examples=200, deadline=None)
@given(rational_chains(), st.sampled_from([1, 2, 6]))
def test_property_integer_squares_match_fraction_oracle(chain, extra):
    # extra puts the chain on a finer denominator than its grid, which the
    # completion must reduce away
    diag, off, lin, const, denom = squares_oracle.integer_chain(*chain)
    scaled = (
        [v * extra for v in diag],
        [v * extra for v in off],
        [v * extra for v in lin],
        const * extra,
        denom * extra,
    )
    try:
        squares = squares_oracle.complete_squares(*chain)
    except ValueError:
        with pytest.raises(ValueError):
            _complete_squares(*scaled)
        return
    d, u, t, cstar, grid = squares
    # uneven pivots can still leave too many points for the oracle's scan
    assume(squares_oracle.scan_size(squares) <= 20000)
    form = _complete_squares(*scaled)
    assert form.grid == grid
    scale = form.sigma * grid
    assert form.base == scale * cstar
    assert len(form.K) == len(d)
    for i in range(len(d)):
        assert form.W[i] > 0
        assert form.K[i] * form.W[i] ** 2 == scale * d[i]
        assert Fraction(form.w_prev[i], form.W[i]) == u[i]
        assert Fraction(form.w0[i], form.W[i]) == t[i]
    assert _chain_min(form) == squares_oracle.chain_min(squares)


def test_one_form_walks_any_bound_like_fresh_builds():
    # bounds on and off the grid (4 here), below the minimum and far above it
    s = LatticeSum(3, Fraction(3, 2), fracs("1/2 -1 2"), Fraction(-5, 4), WEIGHT_ALTERNATING)
    form = _complete_squares(*_kappa_parts(s))
    assert form.grid == 4
    for bound in (Fraction(-7, 2), Fraction(7, 3), 12, Fraction(61, 2)):
        walked = _walk(form, s.weight, math.floor(bound * form.grid))
        assert walked.to_json() == lattice_sum_series(s, bound).to_json(), bound
        assert walked == series_by_hand(s, Fraction(bound)), bound


def test_kappa_form_holds_plain_ints():
    s = LatticeSum(3, Fraction(3, 2), fracs("1/2 -1 2"), Fraction(-5, 4))
    chain = _kappa_parts(s)
    assert chain == ([6, 6, 6], [-6, -6], [2, -4, 8], -5, 4)
    form = _complete_squares(*chain)
    for value in (form.grid, form.sigma, form.base, *form.K, *form.W, *form.w_prev, *form.w0):
        assert type(value) is int
