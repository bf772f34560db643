"""Specialization data and the two character routes, against independent oracles."""

import json
from dataclasses import astuple
from fractions import Fraction
from itertools import product as iter_product
from math import isqrt, lcm

import pytest

from product_oracle import mul_oracle, product_oracle
from squares_oracle import character_data, kappa_sum, rational_chain, trace_chain
from terms_oracle import from_terms
from qchar.affine import (
    PartitionData,
    Side,
    _character_parts,
    _proposition,
    _trace_parts,
    _translated,
    _translation,
    _weight_numerators,
    partitions,
    specialized_character,
    specialized_character_series,
    trace_series,
    verify,
    verify_proposition,
)
from qchar.qseries import (
    ProductSpec,
    _compare_builders,
    normalize_shift,
    product_series,
    series_compare,
)
from qchar.quadform import (
    LatticeSum,
    lattice_sum_above,
    lattice_sum_series,
)

# -- oracles ----------------------------------------------------------------


def oracle_partitions(n, smallest=1):
    # plain recursive ascending generator, no acceleration tricks
    if n == 0:
        yield ()
        return
    for p in range(smallest, n + 1):
        for rest in oracle_partitions(n - p, p):
            yield (p,) + rest


def oracle_modulus(parts):
    base = lcm(*parts)
    for a, b in iter_product(parts, parts):
        if (Fraction(base, a) + Fraction(base, b)) % 2 != 0:
            return 2 * base
    return base


def cartan_matrix(l):
    rows = []
    for i in range(l):
        row = [0] * l
        row[i] = 2
        if i > 0:
            row[i - 1] = -1
        if i + 1 < l:
            row[i + 1] = -1
        rows.append(row)
    return rows


# -- partition generation -----------------------------------------------------


def test_partitions_match_oracle():
    for n in range(1, 11):
        got = list(partitions(n))
        want = sorted(oracle_partitions(n))
        assert sorted(got) == want
        assert len(got) == len(set(got))


def test_partition_counts():
    # p(1)..p(10)
    counts = [len(list(partitions(n))) for n in range(1, 11)]
    assert counts == [1, 2, 3, 5, 7, 11, 15, 22, 30, 42]


def test_partitions_are_ascending():
    for parts in partitions(9):
        assert all(a <= b for a, b in zip(parts, parts[1:]))
        assert sum(parts) == 9


def test_partitions_rejects_bad_input():
    with pytest.raises(ValueError):
        list(partitions(0))
    with pytest.raises(ValueError):
        list(partitions(-3))


# -- modulus ------------------------------------------------------------------


def modulus(parts):
    return PartitionData.from_parts(parts).N


def spec_vector(parts):
    return PartitionData.from_parts(parts).s


def test_modulus_frozen_values():
    assert modulus((1, 3)) == 3
    assert modulus((1, 7)) == 7
    assert modulus((2, 3)) == 12
    assert modulus((2, 2)) == 2
    assert modulus((2, 6)) == 6
    assert modulus((1, 2)) == 4
    assert modulus((3, 4)) == 24
    assert modulus((1,)) == 1
    assert modulus((1, 1, 1, 1)) == 1


def test_modulus_matches_oracle():
    for n in range(1, 10):
        for parts in partitions(n):
            assert modulus(parts) == oracle_modulus(parts)


def test_modulus_validation():
    with pytest.raises(ValueError):
        modulus(())
    with pytest.raises(ValueError):
        modulus((3, 1))
    with pytest.raises(ValueError):
        modulus((0, 2))


# -- specialization vector -----------------------------------------------------


def test_s_frozen_values():
    assert spec_vector((1, 3)) == (2, -1, 1, 1)
    assert spec_vector((1, 7)) == (4, -3, 1, 1, 1, 1, 1, 1)
    assert spec_vector((2, 6)) == (2, 3, -4, 1, 1, 1, 1, 1)
    assert spec_vector((2, 2)) == (1, 1, -1, 1)


def test_s_all_ones_partition():
    for n in range(1, 9):
        assert spec_vector((1,) * n) == (1,) + (0,) * (n - 1)


def test_s_sums_to_modulus():
    for n in range(1, 13):
        for parts in partitions(n):
            s = spec_vector(parts)
            assert len(s) == n
            assert sum(s) == modulus(parts)


def test_s_closed_form_families():
    for m in (1, 2, 3):
        assert spec_vector((1, 4 * m - 1)) == (2 * m, -2 * m + 1) + (1,) * (4 * m - 2)
        want = (2,) + (3,) * (m - 1) + (2 - 3 * m,) + (1,) * (3 * m - 1)
        assert spec_vector((m, 3 * m)) == want


# -- fundamental weights --------------------------------------------------------


def test_weight_coeffs_frozen():
    # _weight_numerators(n, k) is n times the coefficient vector
    assert _weight_numerators(4, 3) == [1, 2, 3]
    assert _weight_numerators(4, 0) == [0, 0, 0]
    assert _weight_numerators(1, 0) == []
    # n = 8, k = 6 is the m = 2 member of the 3m-at-4m family; its entry
    # just past the index equals 3(m-1)/4
    assert Fraction(_weight_numerators(8, 6)[6], 8) == Fraction(3, 4)


def test_weight_coeffs_cartan_delta():
    for n in range(1, 13):
        cart = cartan_matrix(n - 1)
        for k in range(n):
            nc = _weight_numerators(n, k)
            for j in range(1, n):
                pairing = sum(cart[j - 1][i - 1] * nc[i - 1] for i in range(1, n))
                assert pairing == (n if j == k else 0)


def test_weight_coeffs_validation():
    with pytest.raises(ValueError):
        _weight_numerators(4, 4)
    with pytest.raises(ValueError):
        _weight_numerators(4, -1)
    with pytest.raises(ValueError):
        _weight_numerators(0, 0)


def test_weight_config_and_partition_data():
    pd = PartitionData.from_parts((1, 3))
    assert (pd.parts, pd.n, pd.N, pd.s) == ((1, 3), 4, 3, (2, -1, 1, 1))
    assert _weight_numerators(4, 3) == [1, 2, 3]
    with pytest.raises(ValueError):
        PartitionData.from_parts((2, 1))


# -- character-side assembly -----------------------------------------------------


def test_character_data_intro_example():
    sc = specialized_character((1, 3), 3)
    assert sc.lattice == kappa_sum(
        3, Fraction(3), (Fraction(1), Fraction(-1), Fraction(2)), Fraction(1, 8)
    )
    assert sc.product == ProductSpec(((Fraction(3), -3),))


def test_character_quadratic_part_is_modulus():
    for n in range(1, 8):
        for parts in partitions(n):
            pd = PartitionData.from_parts(parts)
            for k in range(n):
                sc = specialized_character(parts, k)
                diag, off = rational_chain(sc.lattice)[:2]
                assert diag == [pd.N] * (n - 1) and off == [-pd.N] * max(n - 2, 0)
                assert sc.lattice.l == n - 1
                specs = dict(sc.product.factors)
                if n > 1:
                    assert specs == {Fraction(pd.N): 1 - n}
                else:
                    assert specs == {}


def test_character_numerator_matches_intro_product():
    sc = specialized_character((1, 3), 3)
    num = lattice_sum_series(sc.lattice, 40)
    normalized, shift = normalize_shift(num)
    assert shift == Fraction(1, 8)
    want = product_series(
        ProductSpec(((Fraction(2), 2), (Fraction(3), 3), (Fraction(1), -2))), 40
    )
    assert series_compare(normalized, want).match


def test_character_series_intro_quotient():
    # dividing the numerator by phi(q^3)^3 leaves phi(q^2)^2/phi(q)^2
    ch = specialized_character_series((1, 3), 3, 40)
    normalized, shift = normalize_shift(ch)
    assert shift == Fraction(1, 8)
    want = product_series(ProductSpec(((Fraction(2), 2), (Fraction(1), -2))), 40)
    assert series_compare(normalized, want).match


def test_character_series_trivial_rank():
    got = specialized_character_series((1,), 0, 12)
    assert got == from_terms([(0, 1)], 12)


def padded_character_oracle(parts, k, bound):
    # a separate exact-minimum walk pads both factors by max(-min, 0)
    # before either is built.  The product starts at q^0 and is known there
    # whatever the bound, so it is cut at max(t + pad, 0): expanded one unit
    # further, it has no term between its own grid's floor of that and the
    # cut, so its cut on the common grid is exact
    data = specialized_character(parts, k)
    t = Fraction(bound)
    pad = max(-lattice_sum_above(data.lattice, 0)[0], Fraction(0))
    num = lattice_sum_series(data.lattice, t + pad)
    top = max(t + pad, Fraction(0))
    product = product_series(data.product, top + 1)
    grid = lcm(num.denom, product.denom)
    return mul_oracle(num, product.rebase(grid).truncated(top))


def window(a):
    return a.denom, a.lo, a.coeffs, a.order


def test_character_series_matches_padded_oracle():
    cases = 0
    for n in range(1, 7):
        for parts in partitions(n):
            for k in range(n):
                for bound in ("-3", "-1/2", "0", "7/3", "61/2"):
                    got = specialized_character_series(parts, k, Fraction(bound))
                    want = padded_character_oracle(parts, k, Fraction(bound))
                    assert window(got) == window(want), (parts, k, bound)
                    cases += 1
    assert cases == 675
    # below q^0 a zero numerator meets the quotient 1 + O(q), so the zero
    # window is the numerator's own: slot -2 of grid 4 for (1,1), k = 1 at -1/2
    got = specialized_character_series((1, 1), 1, Fraction(-1, 2))
    assert window(got) == (4, -2, (0,), -2)


def test_route_windows_below_q0_reach_as_far_as_their_lattice_factor():
    # a zero numerator below q^0 times the quotient is known through the
    # numerator's order, not through the sum of both factors' orders
    cases = 0
    for n in range(1, 6):
        for parts in partitions(n):
            data = PartitionData.from_parts(parts)
            for k in range(n):
                for route, (chain, _) in (
                    (specialized_character_series, _character_parts(data, k)),
                    (trace_series, _trace_parts(data, k)),
                ):
                    for bound in (Fraction(-3), Fraction(-1, 2)):
                        got = route(parts, k, bound)
                        lattice = lattice_sum_series(chain, bound)
                        assert got.order * lattice.denom == lattice.order * got.denom, (
                            route.__name__, parts, k, bound
                        )
                        cases += 1
    assert cases == 69 * 2 * 2  # 69 (partition, k) pairs
    assert window(specialized_character_series((1, 1), 1, Fraction(-1, 2))) == (4, -2, (0,), -2)
    assert str(trace_series((1, 2), 1, -3)) == "0 + O(q^-2)"


NEGATIVE_MINIMUM = Side(
    kappa_sum(2, Fraction(1), (Fraction(3), Fraction(-2)), Fraction(-5, 3)),
    ProductSpec(((Fraction(1), 2), (Fraction(2), -1))),
)


@pytest.mark.parametrize("t", ("-3", "-1/2", "0", "5/3", "10"))
def test_lattice_below_q0_times_a_product_matches_the_schoolbook(t):
    # the lattice starts at q^(-11/3): its window times the literal product,
    # which reaches well past the window's order, against both expansions
    t = Fraction(t)
    lattice, product = NEGATIVE_MINIMUM.lattice, product_oracle(NEGATIVE_MINIMUM.product, 20)
    for got, factor in (
        (NEGATIVE_MINIMUM.series(t), lattice_sum_series(lattice, t)),
        (NEGATIVE_MINIMUM.above(t), lattice_sum_above(lattice, t)[1]),
    ):
        want = mul_oracle(factor, product)
        assert want.order * factor.denom == factor.order * want.denom
        assert window(got) == window(want), (t, factor)
    assert lattice_sum_series(lattice, t).lo < 0


def test_character_numerator_minimum_is_never_negative():
    # characterization: no numerator starts below q^0, so at a bound of 0
    # or more the quotient is expanded exactly through the numerator's order
    pairs = 0
    for n in range(1, 10):
        for parts in partitions(n):
            for k in range(n):
                numerator = specialized_character(parts, k).lattice
                assert lattice_sum_above(numerator, 0)[0] >= 0, (parts, k)
                pairs += 1
    assert pairs == 686


# -- trace side -------------------------------------------------------------------


def test_trace_intro_example_product_form():
    tr = trace_series((1, 3), 3, 30)
    normalized, shift = normalize_shift(tr)
    assert shift == Fraction(7, 2)
    want = product_series(ProductSpec(((Fraction(2), 2), (Fraction(1), -2))), 30)
    assert series_compare(normalized, want).match


def test_trace_single_part_is_euler_quotient():
    got = trace_series((4,), 0, 25)
    want = product_series(ProductSpec(((Fraction(4), 1), (Fraction(1), -1))), 25)
    assert got == want


def test_trace_single_part_nonzero_weight_shifts():
    got = trace_series((4,), 2, 25)
    base = product_series(ProductSpec(((Fraction(4), 1), (Fraction(1), -1))), 23)
    normalized, shift = normalize_shift(got)
    assert shift == 2
    assert series_compare(normalized, base).match


def box_theta_terms(parts, k, bound):
    """Theta exponents through the bound, from a plain scan of r-tuples summing to k."""
    data = PartitionData.from_parts(parts)
    big, t = data.N, Fraction(bound)
    # every admissible tuple has (N/2) k_i^2 / n_i <= t
    radius = isqrt(int(2 * t * max(parts) / big)) + 1
    terms = []
    for head in iter_product(range(-radius, radius + 1), repeat=len(parts) - 1):
        ks = head + (k - sum(head),)
        e = Fraction(big, 2) * sum(Fraction(v * v, p) for v, p in zip(ks, parts))
        if e <= t:
            terms.append((e, 1))
    return terms


def box_trace(parts, k, bound):
    """Trace route with the theta sum from box_theta_terms."""
    big, t = modulus(parts), Fraction(bound)
    theta = from_terms(box_theta_terms(parts, k, bound), t)
    factors = [(Fraction(big), 1)] + [(Fraction(big, p), -1) for p in parts]
    return mul_oracle(theta, product_series(ProductSpec(tuple(factors)), t))


def test_trace_theta_matches_box_scan():
    for parts in ((1, 1, 2), (1, 2, 3), (1, 1, 1, 1)):
        for k in range(sum(parts)):
            assert trace_series(parts, k, 20) == box_trace(parts, k, 20), (parts, k)
            # the tuple (0, ..., 0, k) bounds the minimum from above
            top = Fraction(modulus(parts) * k * k, 2 * parts[-1])
            scanned = min(e for e, _ in box_theta_terms(parts, k, top))
            chain = _trace_parts(PartitionData.from_parts(parts), k)[0]
            assert lattice_sum_above(chain, 0)[0] == scanned, (parts, k)


def test_oracles_never_reach_the_packed_kernel(monkeypatch):
    """The literal product and the box-scan trace multiply by mul_oracle, so
    they still run with qseries._convolve and qseries._certify gone: they
    check the packed kernels behind series_mul and product_series rather
    than share them."""
    import qchar.qseries as qseries

    def refused(*args):
        raise AssertionError("an oracle reached a packed kernel")

    monkeypatch.setattr(qseries, "_convolve", refused)
    monkeypatch.setattr(qseries, "_certify", refused)
    spec = ProductSpec(((Fraction(1, 2), -3), (Fraction(2), 2), (Fraction(3), 1)))
    assert not product_oracle(spec, 300).is_zero()
    for k in range(4):
        assert not box_trace((1, 1, 2), k, 20).is_zero()


def test_route_chains_match_their_fraction_formulas():
    # both routes build integer chains by hand; each must denote exactly the
    # Fraction formula of tests/squares_oracle.py, with the same Euler-product
    # part, and specialized_character, the character route's side, must
    # equal that formula's data
    for n in range(1, 10):
        for parts in partitions(n):
            data = PartitionData.from_parts(parts)
            for k in range(n):
                numerator, denominator = character_data(parts, k)
                inverse = ProductSpec(tuple((sc, -p) for sc, p in denominator.factors))
                want = Side(numerator, inverse)
                assert specialized_character(parts, k) == want, (parts, k)
                chain, factors = _character_parts(data, k)
                assert rational_chain(chain) == rational_chain(numerator)
                assert ProductSpec(factors) == inverse, (parts, k)
                chain = _trace_parts(data, k)[0]
                assert rational_chain(chain) == tuple(trace_chain(parts, k)), (parts, k)


def test_route_chains_and_forms_hold_plain_ints():
    for parts, k in (((1,), 0), ((1, 3), 1), ((1, 1, 2), 0), ((2, 3, 4), 5), ((1, 1, 6), 7)):
        data = PartitionData.from_parts(parts)
        for route_parts in (_character_parts, _trace_parts):
            chain, factors = route_parts(data, k)
            diag, off, lin, const, denom = astuple(chain)[:5]
            form = chain._form
            values = (*diag, *off, *lin, const, denom, form.grid, form.sigma, form.base)
            values += tuple(v for factor in factors for v in factor)
            values += (*form.K, *form.W, *form.w_prev, *form.w0)
            assert all(type(v) is int for v in values), (parts, k, route_parts)


@pytest.mark.parametrize(
    "call, error",
    [
        (lambda: verify_proposition((1, 3), True, 5), ValueError),
        (lambda: verify_proposition((1, 3), 1, True), TypeError),
        (lambda: PartitionData.from_parts((True, 2)), ValueError),
        (lambda: _weight_numerators(4, True), ValueError),
        (lambda: LatticeSum((True,), (), (False,)), TypeError),
    ],
    ids=["weight-index", "bound", "partition-part", "fundamental-weight", "lattice-sum"],
)
def test_bool_is_refused(call, error):
    # bool is an int subclass, but True is neither a weight index, a part nor
    # a rational value
    with pytest.raises(error):
        call()


def test_side_needs_a_factor():
    # with neither factor there is no series to build
    with pytest.raises(ValueError, match="lattice sum or a product"):
        Side(None)
    assert Side(None, ProductSpec(())).series(3) == from_terms([(0, 1)], 3)


@pytest.fixture
def product_work(monkeypatch):
    """The whole-window solves and the certificates' verdicts of
    product_series, in call order, as "solve", True or False."""
    import qchar.qseries as qseries

    made = []
    solve, certify = qseries._solve, qseries._certify

    def solved(logd, lmax, coeffs, support, l, r):
        if (l, r) == (0, len(coeffs)):
            made.append("solve")
        return solve(logd, lmax, coeffs, support, l, r)

    def certified(*args):
        made.append(certify(*args))
        return made[-1]

    monkeypatch.setattr(qseries, "_solve", solved)
    monkeypatch.setattr(qseries, "_certify", certified)
    return made


PHI_CUBED = ProductSpec(((Fraction(1), 3),))
GAUSS_B_TOP = ProductSpec(((Fraction(2), 2),))


@pytest.mark.parametrize("order", (40, Fraction(301, 2)), ids=str)
def test_verify_certifies_any_window_it_hands_a_pure_product(product_work, order):
    """verify hands the rhs window to a pure product lhs whatever the rhs is.
    The same product on the right is certified, so only the rhs solves; a
    different one fails its certificate and the lhs solves too, for the
    report with both solved.  phi(q^2)^2 is gauss_b's sum times phi(q), so
    against that lattice-times-product rhs, shifted by q^(1/8) or not, it
    is certified, and phi(q)^3 is solved for the report with no candidate."""
    cube = Side(None, PHI_CUBED)
    assert verify(cube, Side(None, PHI_CUBED), order).match
    assert product_work == ["solve", True]

    product_work.clear()
    got = verify(cube, Side(None, GAUSS_B_TOP), order)
    want = series_compare(product_series(PHI_CUBED, order), product_series(GAUSS_B_TOP, order))
    assert json.dumps(got.to_json()) == json.dumps(want.to_json())
    assert not got.match
    assert product_work[:3] == ["solve", False, "solve"]

    for const in (Fraction(0), Fraction(1, 8)):
        theta = kappa_sum(1, Fraction(2), (Fraction(1),), const)
        rhs = Side(theta, ProductSpec(((Fraction(1), 1),)))
        for lhs, certified in ((Side(None, GAUSS_B_TOP), True), (cube, False)):
            product_work.clear()
            got = verify(lhs, rhs, order)
            want = series_compare(product_series(lhs.product, order), rhs.above(order))
            assert json.dumps(got.to_json()) == json.dumps(want.to_json())
            assert got.match == certified
            assert got.rhs_shift == const
            assert product_work[:2] == (["solve", True] if certified else ["solve", False])


def test_trace_weight_index_validation():
    with pytest.raises(ValueError):
        trace_series((1, 3), 4, 10)
    with pytest.raises(ValueError):
        trace_series((1, 3), -1, 10)
    with pytest.raises(ValueError):
        specialized_character_series((1, 3), 9, 10)


# -- the proposition ---------------------------------------------------------------


def test_proposition_intro_case():
    rep = verify_proposition((1, 3), 3, 40)
    assert rep.match
    assert rep.checked_through == 40
    assert rep.first_mismatch is None
    assert rep.lhs_shift == Fraction(1, 8)
    assert rep.rhs_shift == Fraction(7, 2)


def test_proposition_all_weights_small_case():
    for k in range(4):
        rep = verify_proposition((1, 3), k, 30)
        assert rep.match, k
        assert rep.checked_through == 30


def test_proposition_two_by_two():
    rep = verify_proposition((2, 2), 1, 30)
    assert rep.match


def test_proposition_trivial_partition():
    rep = verify_proposition((1,), 0, 20)
    assert rep.match
    assert rep.lhs_shift == 0 and rep.rhs_shift == 0


def test_proposition_sweep_small():
    for n in range(1, 7):
        for parts in partitions(n):
            for k in range(n):
                rep = verify_proposition(parts, k, 25)
                assert rep.match, (parts, k)
                assert rep.checked_through == 25


def test_proposition_trace_starts_beyond_order():
    # lhs has terms below order 10 but the trace side starts near 37, so it
    # must be built above its own leading term instead of misread as zero
    rep = verify_proposition((1, 1, 6), 7, 10)
    assert rep.match
    assert rep.checked_through == 10
    assert rep.rhs_shift > 10


@pytest.mark.parametrize(
    "parts, k, order, rhs_shift",
    [((5, 6), 10, 0, 275), ((3, 4, 5), 11, 0, 612), ((3, 4, 5), 11, 18, 612)],
)
def test_proposition_trace_far_above_order_matches(parts, k, order, rhs_shift):
    # the trace side starts far beyond any fixed widening of the window
    rep = verify_proposition(parts, k, order)
    assert rep.match
    assert rep.checked_through == order
    assert rep.rhs_shift == rhs_shift


def test_proposition_builds_each_route_once(monkeypatch):
    # the partition is validated once per verify, and each side's integer
    # chain is built and completed once and expanded once (Side.above), its
    # lead read off that one walk, and the character route is built
    # directly, not through specialized_character, which validates the
    # partition again.  The proposition is one
    # identity: the ratio P_1/P_2 is one product and one multiply, and for
    # (1^n), where it is 1, there is neither
    import qchar.affine as affine
    import qchar.quadform as quadform

    names = (
        "_validate_parts",
        "above",
        "specialized_character",
        "_character_parts",
        "_trace_parts",
        "_complete_squares",
        "product_series",
        "series_mul",
    )
    calls = dict.fromkeys(names, 0)
    for module in (affine, quadform, affine.Side):
        for name in calls:
            inner = getattr(module, name, None)
            if inner is None:
                continue

            def counted(*args, name=name, inner=inner):
                calls[name] += 1
                return inner(*args)

            monkeypatch.setattr(module, name, counted)
    rep = verify_proposition((1, 1, 6), 7, 10)
    assert rep.match and rep.checked_through == 10
    assert calls == {
        "_validate_parts": 1,
        "above": 2,
        "specialized_character": 0,
        "_character_parts": 1,
        "_trace_parts": 1,
        "_complete_squares": 2,
        "product_series": 1,
        "series_mul": 1,
    }
    for n in range(1, 8):
        for parts in partitions(n):
            for k in range(n):
                calls.update(product_series=0, series_mul=0)
                assert verify_proposition(parts, k, 30).match
                products = 0 if set(parts) == {1} else 1
                assert calls["product_series"] == products, (parts, k)
                assert calls["series_mul"] <= products, (parts, k)


def pairing_oracle(parts, k, order):
    """The two-product pairing: the character route, numerator * P_1,
    against the trace route, theta * P_2, each side in full."""
    data = PartitionData.from_parts(parts)
    char, trace = (Side(chain, ProductSpec(factors)) for chain, factors in
                   (_character_parts(data, k), _trace_parts(data, k)))
    return verify(char, trace, order)


def test_proposition_equals_the_two_product_pairing():
    # dividing both routes by P_2 = 1 + O(q) moves no shift and no verdict;
    # at an integer order the report is the same, and at a fractional one
    # the window reaches at least as far, since neither side's product is
    # floored on its own grid any more
    pairs = 0
    for n in range(1, 8):
        for parts in partitions(n):
            for k in range(n):
                for order in (Fraction(0), Fraction(3), Fraction(30)):
                    got = verify_proposition(parts, k, order).to_json()
                    assert got == pairing_oracle(parts, k, order).to_json(), (parts, k, order)
                for order in (Fraction(1, 2), Fraction(61, 2)):
                    got = verify_proposition(parts, k, order)
                    want = pairing_oracle(parts, k, order)
                    assert (got.match, got.lhs_shift, got.rhs_shift) == (
                        want.match, want.lhs_shift, want.rhs_shift
                    ), (parts, k, order)
                    assert got.checked_through >= want.checked_through, (parts, k, order)
                pairs += 1
    assert pairs == 240


ALL_ONES_ORDERS = tuple(map(Fraction, ("0", "3", "30", "61/2", "7/3")))


def test_all_ones_proposition_is_one_lattice_translated():
    """Both sides of a (1^n) proposition are kappa chains, and the trace
    chain at x + v, v_i = min(i, k), is the character chain at x plus
    k^2/(2n): verify walks the trace side only and reads the character
    window off it.  The two-walk report, each side walked on its own, is
    the oracle; the translated window is the character walk's window, field
    for field, and the translation is the two leads' difference."""
    for n in range(1, 9):
        for k in range(n):
            lhs, rhs = _proposition((1,) * n, k)
            assert lhs.product is None and rhs.product is None
            delta = _translation(lhs.lattice, rhs.lattice)
            assert delta == Fraction(k * k, 2 * n), (n, k)
            for order in ALL_ONES_ORDERS:
                got = verify_proposition((1,) * n, k, order).to_json()
                want = _compare_builders(lhs.above, rhs.above, order).to_json()
                assert got == want, (n, k, order)
                window = _translated(rhs.above(order), delta, lhs.lattice.denom, order)
                walked = lhs.above(order)
                assert astuple(window) == astuple(walked), (n, k, order)
                assert type(window.coeffs) is tuple
                assert lattice_sum_above(rhs.lattice, order)[0] - delta == (
                    lattice_sum_above(lhs.lattice, order)[0]
                )


def test_proposition_json_shape():
    rep = verify_proposition((1, 3), 3, 20)
    data = rep.to_json()
    assert set(data) == {
        "match",
        "checked_through",
        "first_mismatch",
        "lhs_shift",
        "rhs_shift",
    }
    assert data["match"] is True
    assert json.loads(json.dumps(data)) == data
    timed = rep.to_json(include_timing=True)
    assert "wall_time_ms" in timed


def test_proposition_repeated_runs_give_identical_reports():
    first = verify_proposition((1, 3), 2, 30)
    second = verify_proposition((1, 3), 2, 30)
    assert json.dumps(first.to_json()) == json.dumps(second.to_json())
