"""Identity builders, JSON mirrors, and full verification runs for both families."""

import json
from dataclasses import replace
from fractions import Fraction

import pytest

from family_oracle import class1_transcribed, class2_transcribed
from qchar import affine, identities
from qchar.affine import partitions, specialized_character, verify_proposition
from qchar.identities import (
    CLASSICAL_NAMES,
    IdentitySpec,
    class1_identity,
    class2_identity,
    classical_identity,
    verify_identity,
)
from qchar.qseries import (
    ProductSpec,
    normalize_shift,
    product_series,
    series_compare,
)
from qchar.quadform import (
    WEIGHT_ALTERNATING,
    WEIGHT_FOUR_K_PLUS_ONE,
    LatticeSum,
    lattice_sum_above,
    lattice_sum_series,
)
from squares_oracle import kappa_sum

# -- classical builders -------------------------------------------------------


def test_classical_names_cover_builders():
    # each classical identity is declared once, as a row of the table, and
    # each call builds its own lattice side from the row's chain, since a
    # LatticeSum caches its completed form
    assert CLASSICAL_NAMES == ("euler", "jacobi", "gauss_a", "gauss_b")
    assert CLASSICAL_NAMES == tuple(identities._CLASSICAL)
    for name in CLASSICAL_NAMES:
        spec = classical_identity(name)
        assert spec.name == name
        assert spec.params is None
        again = classical_identity(name)
        assert again.rhs is not spec.rhs and again == spec, name


def test_classical_euler_data():
    spec = classical_identity("euler")
    assert spec.lhs == ProductSpec(((Fraction(1), 1),))
    assert spec.rhs == kappa_sum(
        1, Fraction(3, 2), (Fraction(1, 2),), Fraction(0), WEIGHT_ALTERNATING
    )
    assert spec.rhs == LatticeSum((3,), (), (1,), 0, 2, WEIGHT_ALTERNATING)


def test_classical_jacobi_data():
    spec = classical_identity("jacobi")
    assert spec.lhs == ProductSpec(((Fraction(1), 3),))
    assert spec.rhs.weight == WEIGHT_FOUR_K_PLUS_ONE
    assert spec.rhs == kappa_sum(1, 2, (1,), 0, WEIGHT_FOUR_K_PLUS_ONE)


def test_classical_gauss_pair_data():
    a = classical_identity("gauss_a")
    assert a.lhs == ProductSpec(((Fraction(1), 2), (Fraction(2), -1)))
    assert a.rhs == kappa_sum(
        1, Fraction(1), (Fraction(0),), Fraction(0), WEIGHT_ALTERNATING
    )
    b = classical_identity("gauss_b")
    assert b.lhs == ProductSpec(((Fraction(2), 2), (Fraction(1), -1)))
    assert b.rhs == kappa_sum(1, Fraction(2), (Fraction(1),), Fraction(0))
    assert b.rhs.weight is None


def test_classical_unknown_name_rejected():
    # a name that is no key of the table, hashable or not, is unknown
    for name in ("ramanujan", ["euler"], None):
        with pytest.raises(ValueError):
            classical_identity(name)


def test_euler_lhs_series_window():
    got = product_series(classical_identity("euler").lhs, Fraction(7))
    coeffs = {e: c for e, c in got.terms()}
    assert coeffs == {0: 1, 1: -1, 2: -1, 5: 1, 7: 1}


def test_jacobi_lhs_series_window():
    got = product_series(classical_identity("jacobi").lhs, Fraction(3))
    coeffs = {e: c for e, c in got.terms()}
    assert coeffs == {0: 1, 1: -3, 3: 5}


def test_gauss_b_rhs_triangular_support():
    got = lattice_sum_series(classical_identity("gauss_b").rhs, Fraction(12))
    coeffs = {e: c for e, c in got.terms()}
    # 2k^2 + k at k = 0, -1, 1, -2, 2
    assert coeffs == {0: 1, 1: 1, 3: 1, 6: 1, 10: 1}


# -- family builders ----------------------------------------------------------


def test_class1_m1_data():
    spec = class1_identity(1)
    assert spec.params == 1
    assert spec.rhs == kappa_sum(
        3, Fraction(3), (Fraction(1), Fraction(-1), Fraction(2)), Fraction(0)
    )
    # scale-1 exponents merge: 1/(phi(q) phi(q)) -> phi(q)^-2
    assert spec.lhs == ProductSpec(((Fraction(1), -2), (Fraction(2), 2), (Fraction(3), 3)))


def test_class1_m2_data():
    spec = class1_identity(2)
    assert spec.rhs == kappa_sum(7, 7, (3, -1, -1, -1, -1, 6, -1))
    assert spec.lhs == ProductSpec(
        ((Fraction(1), -1), (Fraction(2), -1), (Fraction(4), 2), (Fraction(7), 7))
    )


def test_class1_m3_data():
    spec = class1_identity(3)
    assert spec.rhs == kappa_sum(11, 11, (5, -1, -1, -1, -1, -1, -1, -1, 10, -1, -1))


def test_class2_m1_data():
    spec = class2_identity(1)
    assert spec.rhs == kappa_sum(
        3, Fraction(3), (Fraction(1), Fraction(-1), Fraction(2)), Fraction(0)
    )
    assert spec.lhs == ProductSpec(((Fraction(1), -2), (Fraction(2), 2), (Fraction(3), 3)))


def test_class2_m2_data():
    spec = class2_identity(2)
    assert spec.rhs == kappa_sum(7, 6, (-3, 4, -1, -1, -1, -1, 5))
    assert spec.lhs == ProductSpec(
        ((Fraction(1), -2), (Fraction(2), 2), (Fraction(3), -1), (Fraction(6), 8))
    )


def test_class2_m3_data():
    spec = class2_identity(3)
    assert spec.rhs == kappa_sum(11, 9, (-3, -3, 7, -1, -1, -1, -1, -1, -1, -1, 8))


def test_family_parameter_must_be_positive():
    for bad in (0, -1, -7):
        with pytest.raises(ValueError):
            class1_identity(bad)
        with pytest.raises(ValueError):
            class2_identity(bad)
    with pytest.raises(ValueError):
        class1_identity("2")


@pytest.mark.parametrize(
    "derived, transcribed",
    [(class1_identity, class1_transcribed), (class2_identity, class2_transcribed)],
    ids=["class1", "class2"],
)
def test_derived_families_equal_transcribed_builders(derived, transcribed):
    # each member is derived from the proposition and gauss_b; it must be the
    # hand-transcribed identity structurally and in canonical JSON
    for m in range(1, 13):
        got, want = derived(m), transcribed(m)
        assert got.lhs == want.lhs, m
        assert got.rhs == want.rhs, m
        assert got.to_json() == want.to_json(), m


def test_family_specs_build_the_character_route_once(monkeypatch):
    # the ratio and the numerator come from one character route, and the
    # partition is validated once per family spec and per
    # verify_proposition: affine._proposition builds both routes from one
    # PartitionData
    build, calls = affine._character_parts, []
    from_parts, validated = affine.PartitionData.from_parts, []

    def counted(data, k):
        calls.append((data.parts, k))
        return build(data, k)

    def counted_parts(parts):
        validated.append(tuple(parts))
        return from_parts(parts)

    monkeypatch.setattr(affine, "_character_parts", counted)
    monkeypatch.setattr(affine.PartitionData, "from_parts", staticmethod(counted_parts))
    for m in range(1, 4):
        for make, parts, k in ((class1_identity, (1, 4 * m - 1), 3 * m),
                               (class2_identity, (m, 3 * m), 4 * m - 1)):
            calls.clear()
            validated.clear()
            make(m)
            assert calls == [(parts, k)], (make, m)
            assert validated == [parts], (make, m)
    validated.clear()
    assert verify_proposition((1, 3), 3, 20).match
    assert validated == [(1, 3)]


def test_families_coincide_at_m1():
    # the m = 1 members are literally the same identity once canonicalized
    a, b = class1_identity(1), class2_identity(1)
    assert a.lhs == b.lhs
    assert a.rhs == b.rhs


# -- spec data model ----------------------------------------------------------


def test_identity_spec_validation():
    base = classical_identity("euler")
    with pytest.raises(ValueError):
        IdentitySpec("", base.lhs, base.rhs)
    with pytest.raises(ValueError):
        IdentitySpec("x", base.lhs, base.rhs, 0)
    with pytest.raises(ValueError):
        IdentitySpec("x", base.lhs, base.rhs, -3)


def test_identity_spec_json_round_trip():
    # params key only present for family members
    assert "params" not in classical_identity("euler").to_json()
    assert class1_identity(1).to_json()["params"] == 1


def test_identity_spec_refuses_bool_params():
    # to_json would write "params": true
    base = class1_identity(1)
    with pytest.raises(ValueError):
        IdentitySpec("x", base.lhs, base.rhs, True)


# -- verification runs --------------------------------------------------------


def test_negative_order_is_refused():
    with pytest.raises(ValueError, match="nonnegative"):
        verify_identity(classical_identity("euler"), -5)
    with pytest.raises(ValueError, match="nonnegative"):
        verify_proposition((1, 3), 3, Fraction(-1, 2))


def test_lattice_side_far_above_order_is_checked_in_full():
    # euler's pentagonal sum times q^1000 against phi(q)
    euler = classical_identity("euler")
    spec = IdentitySpec("shifted", euler.lhs, replace(euler.rhs, const=1000 * euler.rhs.denom))
    report = verify_identity(spec, 10)
    assert report.match
    assert report.checked_through == 10
    assert report.rhs_shift == 1000


@pytest.mark.parametrize(
    "order, through",
    [(Fraction(5, 3), Fraction(3, 2)), (Fraction(61, 2), Fraction(61, 2))],
)
def test_absent_factor_keeps_a_sides_own_grid(order, through):
    # euler at q^(1/2): phi(q^(1/2)) against sum (-1)^k q^((3k^2+k)/4); a side
    # with no product (or no lattice) is built alone, so its guarantee is its
    # own half-integer grid, not cut to the integer grid of a unit factor
    lhs = ProductSpec(((Fraction(1, 2), 1),))
    rhs = kappa_sum(1, Fraction(3, 4), (Fraction(1, 4),), Fraction(0), WEIGHT_ALTERNATING)
    report = verify_identity(IdentitySpec("half", lhs, rhs), order)
    assert report.match
    assert report.checked_through == through


def test_vanishing_lattice_side_is_built_once(monkeypatch):
    # (-1)^k q^(k^2+k) cancels pairwise between k and -1-k, so the sum is 0
    import qchar.affine as affine

    calls = []
    for name in ("product_series", "lattice_sum_above"):
        route = getattr(affine, name)

        def counted(*args, name=name, route=route):
            calls.append(name)
            return route(*args)

        monkeypatch.setattr(affine, name, counted)
    rhs = kappa_sum(1, Fraction(1), (Fraction(1),), Fraction(0), WEIGHT_ALTERNATING)
    spec = IdentitySpec("vanishing", ProductSpec(((Fraction(1), 1),)), rhs)
    report = verify_identity(spec, 20)
    assert not report.match
    assert report.first_mismatch.to_json() == {
        "exponent": "0", "lhs_coeff": "1", "rhs_coeff": "0"
    }
    assert sorted(calls) == ["lattice_sum_above", "product_series"]


# -- the product side certified against the lattice window ---------------------

# the identities of the classical-hi and families workloads at their orders
WORKLOAD_IDENTITIES = [
    *((classical_identity(name), 3000) for name in CLASSICAL_NAMES),
    (class1_identity(1), 800),
    (class1_identity(2), 160),
    (class1_identity(3), 56),
    (class2_identity(1), 800),
    (class2_identity(2), 100),
]


def crossed(name, product_of, lattice_of):
    return IdentitySpec(name, product_of.lhs, lattice_of.rhs)


# a product against another identity's lattice: each mismatches, the last at
# q^50, where phi(q) phi(q^50) first leaves Euler's pentagonal sum
FALSE_PAIRINGS = [
    (crossed("jacobi/euler", classical_identity("jacobi"), classical_identity("euler")), 300),
    (crossed("gauss_b/gauss_a", classical_identity("gauss_b"), classical_identity("gauss_a")), 300),
    (crossed("class1 3/2", class1_identity(3), class1_identity(2)), 60),
    (crossed("class2 1/class1 2", class2_identity(1), class1_identity(2)), 100),
    (IdentitySpec("euler*phi(q^50)", ProductSpec(((Fraction(1), 1), (Fraction(50), 1))),
                  classical_identity("euler").rhs), 300),
]


def solved_report(spec, order):
    """The report of the same comparison with the product solved, no candidate."""
    _, window = lattice_sum_above(spec.rhs, order)
    return series_compare(product_series(spec.lhs, order), window)


@pytest.mark.parametrize(
    "spec, order", WORKLOAD_IDENTITIES + FALSE_PAIRINGS,
    ids=[f"{s.name}{f' m{s.params}' if s.params else ''}@{t}"
         for s, t in WORKLOAD_IDENTITIES + FALSE_PAIRINGS],
)
def test_identity_reports_equal_those_with_the_product_solved(spec, order):
    got, want = verify_identity(spec, order).to_json(), solved_report(spec, order).to_json()
    assert json.dumps(got) == json.dumps(want)
    assert got["match"] == ((spec, order) in WORKLOAD_IDENTITIES)


def test_matching_identities_are_certified_not_solved(monkeypatch):
    """A matching identity's product side is its lattice window, certified by
    one check: no recurrence solve and no _convolve, or a fallback would
    hide behind the same report.  The kernel is observed by how the
    certificate asks for L: the sparse classical sides take it reversed and
    scatter, the dense family sides take it forward and multiply.  A false
    pairing solves, and pushes only halves of at least 8 nonzero
    coefficients."""
    import qchar.qseries as qseries

    calls, counts = [], []
    solve, convolve, certify = qseries._solve, qseries._convolve, qseries._certify

    def solved(*args):
        calls.append("solve")
        return solve(*args)

    def convolved(c, *args):
        calls.append("convolve")
        counts.append(len(c) - c.count(0))
        return convolve(c, *args)

    def certified(c, pack, lmax):
        def packed(w, reverse):
            kernels.append("sparse" if reverse else "dense")
            return pack(w, reverse)

        kernels = []
        verdict = certify(c, packed, lmax)
        calls.append((*kernels, verdict))
        return verdict

    monkeypatch.setattr(qseries, "_solve", solved)
    monkeypatch.setattr(qseries, "_convolve", convolved)
    monkeypatch.setattr(qseries, "_certify", certified)
    for spec, order in WORKLOAD_IDENTITIES:
        calls.clear()
        assert verify_identity(spec, order).match
        assert calls == [("sparse" if spec.params is None else "dense", True)], spec
    spec, order = FALSE_PAIRINGS[-1]
    calls.clear()
    assert not verify_identity(spec, order).match
    # the failed certificate, then the solve, whose pushes pass the count
    assert calls[:2] == [("sparse", False), "solve"] and "convolve" in calls[2:]
    assert min(counts) >= 8


def test_certificates_made_by_each_benchmark_workload(monkeypatch):
    """Where the certificate runs: the proposition sweep (every partition with
    n <= 7, every k, at order 30) makes none, since a proposition's sides
    are never a pure product against a candidate; the five family verifies
    make one each, and so do the four classical ones at 3000."""
    import qchar.qseries as qseries

    made = []
    certify = qseries._certify

    def counted(*args):
        made.append(certify(*args))
        return made[-1]

    monkeypatch.setattr(qseries, "_certify", counted)
    sweep = [(parts, k) for n in range(1, 8) for parts in partitions(n) for k in range(n)]
    assert len(sweep) == 240
    assert all(verify_proposition(parts, k, 30).match for parts, k in sweep)
    assert made == []
    families = [(spec, order) for spec, order in WORKLOAD_IDENTITIES if spec.params]
    classics = [(spec, order) for spec, order in WORKLOAD_IDENTITIES if not spec.params]
    for runs, count in ((families, 5), (classics, 4)):
        made.clear()
        assert all(verify_identity(spec, order).match for spec, order in runs)
        assert made == [True] * count


def test_classical_identities_hold():
    for name in CLASSICAL_NAMES:
        report = verify_identity(classical_identity(name), 120)
        assert report.match, name
        assert report.checked_through == 120
        assert report.first_mismatch is None
        assert report.lhs_shift == 0 and report.rhs_shift == 0


def test_class1_holds_small_orders():
    for m, t in ((1, 60), (2, 40), (3, 20)):
        report = verify_identity(class1_identity(m), t)
        assert report.match, m
        assert report.checked_through == t
        assert report.lhs_shift == 0 and report.rhs_shift == 0


def test_class2_holds_small_orders():
    for m, t in ((1, 60), (2, 30)):
        report = verify_identity(class2_identity(m), t)
        assert report.match, m
        assert report.checked_through == t


def test_corrupted_lattice_side_is_caught():
    good = class1_identity(1)
    bad = IdentitySpec(
        good.name,
        good.lhs,
        replace(good.rhs, diag=(4, 4, 4), off=(-4, -4)),
        good.params,
    )
    report = verify_identity(bad, 20)
    assert not report.match
    assert report.first_mismatch is not None
    assert report.first_mismatch.exponent <= 5


def test_corrupted_product_side_is_caught():
    good = classical_identity("gauss_b")
    bad = IdentitySpec("gauss_b", classical_identity("gauss_a").lhs, good.rhs)
    report = verify_identity(bad, 20)
    assert not report.match


# -- agreement with the character construction --------------------------------


def without_const(s):
    # the chain with its constant dropped, on its own grid again
    return replace(s, const=0)


def test_class1_lattice_matches_character_numerator():
    # same quadratic and linear data; only the constant offset differs
    for m in (1, 2):
        ident = class1_identity(m)
        char = specialized_character((1, 4 * m - 1), 3 * m)
        assert char.lattice.const != 0
        assert ident.rhs == without_const(char.lattice)


def test_class2_lattice_matches_character_numerator():
    for m in (1, 2):
        ident = class2_identity(m)
        char = specialized_character((m, 3 * m), 4 * m - 1)
        assert char.lattice.const != 0
        assert ident.rhs == without_const(char.lattice)


def test_class1_series_equals_character_numerator_normalized():
    ident = class1_identity(1)
    char = specialized_character((1, 3), 3)
    t = Fraction(25)
    lhs = normalize_shift(lattice_sum_series(ident.rhs, t))[0]
    rhs = normalize_shift(
        lattice_sum_series(char.lattice, t + Fraction(char.lattice.const, char.lattice.denom))
    )[0]
    report = series_compare(lhs, rhs)
    assert report.match
