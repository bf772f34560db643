"""The packed lattice walk checked against the dict-of-spends walk oracle."""

from dataclasses import replace
from fractions import Fraction
from math import floor

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from qchar.affine import (
    PartitionData,
    _character_parts,
    _trace_parts,
    partitions,
    verify_proposition,
)
from qchar.identities import (
    CLASSICAL_NAMES,
    class1_identity,
    class2_identity,
    classical_identity,
    verify_identity,
)
from qchar.quadform import (
    WEIGHT_ALTERNATING,
    WEIGHT_FOUR_K_PLUS_ONE,
    LatticeSum,
    _complete_squares,
    _count_bound,
    _level_range,
    _ScaledForm,
    _walk,
    lattice_sum_above,
    lattice_sum_series,
)
from point_oracle import _scaled_points
from squares_oracle import kappa_sum
from test_quadform import INPLACE_OPS, counting, line_hits, walk_line_hits
from walk_oracle import dict_levels, dict_walk

WEIGHTS = (None, WEIGHT_ALTERNATING, WEIGHT_FOUR_K_PLUS_ONE)


@pytest.fixture
def walks(monkeypatch):
    """Every (form, weight, units) the engine walks, in call order."""
    import qchar.quadform as quadform

    seen = []

    def recorded(form, weight, units):
        seen.append((form, weight, units))
        return _walk(form, weight, units)

    monkeypatch.setattr(quadform, "_walk", recorded)
    return seen


def walked(form, weight, units):
    """_walk's window and the least slot that walk records, None if it reaches no point."""
    vars(form).pop("least", None)
    series = _walk(form, weight, units)
    return vars(form).get("least"), series


def assert_matches_oracle(seen):
    for form, weight, units in seen:
        got = walked(form, weight, units)
        assert got == dict_walk(form, weight, units), (form, units)
        assert_bound_covers(form, weight, units, got[1])


def assert_bound_covers(form, weight, units, series):
    # the walk's one slot width must hold every count of its window
    budget = form.sigma * units - form.base
    assert _count_bound(form, weight, budget) >= max(map(abs, series.coeffs)), (form, units)


def test_sweep_walks_match_the_dict_walk(walks):
    # the benchmark's sweep: every (partition, k) with n <= 7 at order 30
    for n in range(1, 8):
        for parts in partitions(n):
            for k in range(n):
                assert verify_proposition(parts, k, 30).match
    # 240 verifies, but each (1^n)'s character window is its trace window
    # translated (affine._translation), so 28 verifies walk one lattice
    assert len(walks) == 452
    assert_matches_oracle(walks)


def test_all_ones_character_walks_match_the_dict_walk(walks):
    # the (1^n) character chains, which the sweep reads off their trace
    # windows instead of walking, walked at the sweep's order
    for n in range(1, 8):
        data = PartitionData.from_parts((1,) * n)
        for k in range(n):
            lattice_sum_above(_character_parts(data, k).lattice, 30)
    assert len(walks) == 28
    assert_matches_oracle(walks)


def test_family_walks_match_the_dict_walk(walks):
    # the families workload's runs, then the dimension-3 walk at 4000, where
    # the scattered lists are longest: about 4000 slots per group
    runs = ((class1_identity, 1, 800), (class1_identity, 2, 160), (class1_identity, 3, 56),
            (class2_identity, 1, 800), (class2_identity, 2, 100),
            (class1_identity, 1, 4000), (class2_identity, 1, 4000))
    for build, m, order in runs:
        assert verify_identity(build(m), order).match
    assert len(walks) == 7
    assert_matches_oracle(walks)


def test_classical_walks_match_the_dict_walk(walks):
    for name in CLASSICAL_NAMES:
        assert verify_identity(classical_identity(name), 3000).match
    assert len(walks) == 4
    assert_matches_oracle(walks)


@st.composite
def chains(draw):
    """A positive-definite integer chain in dimensions 0-4, and a weight shape."""
    l = draw(st.integers(min_value=0, max_value=4))
    diag = [draw(st.integers(min_value=1, max_value=9)) for _ in range(l)]
    off = [draw(st.integers(min_value=-4, max_value=4)) for _ in range(max(l - 1, 0))]
    lin = [draw(st.integers(min_value=-9, max_value=9)) for _ in range(l)]
    const = draw(st.integers(min_value=-9, max_value=9))
    denom = draw(st.integers(min_value=1, max_value=6))
    try:
        form = LatticeSum(diag, off, lin, const, denom)._form
    except ValueError:
        assume(False)
    return form, draw(st.sampled_from(WEIGHTS))


@settings(max_examples=150, deadline=None)
@given(chains(), st.integers(min_value=-6, max_value=40))
@example(  # keyed by p mod W, the weighted 1-D walk read -2 here instead of 6
    chain=(_ScaledForm(grid=1, sigma=4, stride=1, base=-1, K=(1,), W=(2,), w_prev=(0,),
                       w0=(-1,)), WEIGHT_FOUR_K_PLUS_ONE),
    extra=0,
)
def test_property_packed_walk_matches_dict_walk(chain, extra):
    # units from the nearest-plane bound of lattice_sum_above, so some walks
    # start below the minimum and come out zero
    form, weight = chain
    pivots = sum(k * w * w for k, w in zip(form.K, form.W))
    units = (4 * form.base + pivots) // (4 * form.sigma) + extra
    assert walked(form, weight, units) == dict_walk(form, weight, units)


SIGNED_SUMS = (
    kappa_sum(2, 1, ("1/2", 0), 0),
    kappa_sum(2, 2, (1, -1), 0),
    kappa_sum(3, "3/2", ("1/2", -1, 2), "-5/4"),
    kappa_sum(3, 1, (0, 0, 0), 0),
    kappa_sum(4, 1, (0, "1/2", 0, -1), "1/3"),
    kappa_sum(5, 2, (1, -1, 0, "1/2", 0), 0),
    kappa_sum(6, 1, (0, "1/2", 0, -1, 0, "1/3"), 0),
)


@pytest.mark.parametrize("weight", (WEIGHT_ALTERNATING, WEIGHT_FOUR_K_PLUS_ONE))
@pytest.mark.parametrize("s", SIGNED_SUMS, ids=lambda s: f"l{s.l}")
def test_weighted_walks_cut_signed_rows_like_the_dict_walk(s, weight):
    # a mask that drops the top slots of a row with negative slots must
    # leave the kept slots balanced; level 0's rows hold one slot and the
    # folded last level masks nothing, so the cut first happens in dimension 4
    s = replace(s, weight=weight)
    bound = lattice_sum_above(s, 0)[0] + 12
    got, balanced = walk_line_hits(lambda: lattice_sum_series(s, bound), "part", "-=")
    assert got == dict_walk(s._form, weight, floor(bound * s._form.grid))[1]
    assert any(got.coeffs)
    assert (balanced > 0) == (s.l >= 4)


def test_width_above_64_bits_matches_the_dict_walk():
    # the class1 m = 5 numerator at order 400 bounds its counts by a 68-bit
    # number, so with the sign bit its slots are 128 bits wide
    s = class1_identity(5).rhs
    form = s._form
    units = floor((lattice_sum_above(s, 0)[0] + 400) * form.grid)
    budget = form.sigma * units - form.base
    assert _count_bound(form, s.weight, budget).bit_length() == 68
    got = walked(form, s.weight, units)
    assert got == dict_walk(form, s.weight, units)
    assert_bound_covers(form, s.weight, units, got[1])


def test_class1_m3_walk_at_order_1000_matches_the_dict_walk():
    # dimension 11 at the order the engine's speed is judged by
    s = class1_identity(3).rhs
    units = floor((lattice_sum_above(s, 0)[0] + 1000) * s._form.grid)
    got = _walk(s._form, s.weight, units)
    assert got == dict_walk(s._form, s.weight, units)[1]
    assert len(got.coeffs) == 1001 and got.coeffs[0] == 1


def test_stride_seven_rows_match_the_dict_walk(monkeypatch):
    # 84 of the sweep's n = 7 character numerators at k >= 1 step their rows
    # by 7 grid slots; the fold unpacks one accumulator per residue mod 7
    import qchar.quadform as quadform

    unpacked = [0]
    inner = quadform._unpack

    def counted(*args):
        unpacked[0] += 1
        return inner(*args)

    monkeypatch.setattr(quadform, "_unpack", counted)
    strided = 0
    for parts in partitions(7):
        data = PartitionData.from_parts(parts)
        for k in range(1, 7):
            chain = _character_parts(data, k).lattice
            form = chain._form
            if form.stride == 7:
                strided += 1
                units = floor((lattice_sum_above(chain, 0)[0] + 30) * form.grid)
                got = walked(form, None, units)
                assert got == dict_walk(form, None, units)
                assert_bound_covers(form, None, units, got[1])
    assert strided == 84 and unpacked[0] > 0


def sampled_forms():
    """The sweep's forms for n <= 5 at their minimum + 12, and a few kappa sums."""
    out = []
    for n in range(1, 6):
        for parts in partitions(n):
            data = PartitionData.from_parts(parts)
            for k in range(n):
                for route in (_character_parts, _trace_parts):
                    chain = route(data, k).lattice
                    units = floor((lattice_sum_above(chain, 0)[0] + 12) * chain._form.grid)
                    out.append((chain._form, units))
    for s in SIGNED_SUMS:
        out.append((s._form, floor((lattice_sum_above(s, 0)[0] + 12) * s._form.grid)))
    return out


@pytest.mark.parametrize("weight", WEIGHTS)
def test_count_bound_covers_every_count_the_dict_walk_keeps(weight):
    # the width proof's bound must reach every count of every level's rows
    # (l = 0 keeps only the empty point, which weighs 1)
    for form, units in sampled_forms():
        budget = form.sigma * units - form.base
        bound = _count_bound(form, weight, budget)
        top = max((
            abs(count)
            for rows in dict_levels(form, weight, budget)
            for row in rows.values()
            for count in row.values()
        ), default=1)
        assert bound >= top > 0, form


def test_row_spends_share_a_residue_mod_sigma_stride():
    # prefixes that agree on x_i spend amounts congruent mod sigma*stride
    for form, units in sampled_forms():
        step = form.sigma * form.stride
        residues = {}
        for point, _ in _scaled_points(form, units):
            spend, prev = 0, 0
            for i, x in enumerate(point):
                v = form.W[i] * x + form.w_prev[i] * prev + form.w0[i]
                spend += form.K[i] * v * v
                residues.setdefault((i, x), set()).add(spend % step)
                prev = x
        assert all(len(r) == 1 for r in residues.values()), form


def fold_groups(form, budget):
    """The fold's groups, from the dict walk: (p mod W, spend mod step) -> least spend."""
    K, W, c, t = form.K[-1], form.W[-1], form.w_prev[-1], form.w0[-1]
    step = form.sigma * form.stride
    groups = {}
    for x, spent in list(dict_levels(form, None, budget))[-2].items():
        key = ((t + c * x) % W, min(spent) % step)
        groups[key] = min(groups.get(key, budget), min(spent))
    return groups


def test_fold_adds_each_group_once_per_value_of_the_last_coordinate():
    # work counts are the only guard here: adding each row of x_(l-2) once
    # per value of x_(l-1), as the walk did before the fold, or multiplying
    # a group by its packed theta gives the same series
    fold = rows = 0
    for form, units in sampled_forms():
        if len(form.K) < 2:
            continue
        budget = form.sigma * units - form.base
        K, W, c, t = form.K[-1], form.W[-1], form.w_prev[-1], form.w0[-1]
        want = sum(
            len(_level_range(K, W, r, budget - least))
            for (r, _), least in fold_groups(form, budget).items()
        )
        _, adds = walk_line_hits(lambda: _walk(form, None, units), "f")
        assert adds == want, form
        fold += adds
        rows += sum(
            len(_level_range(K, W, t + c * x, budget - min(spent)))
            for x, spent in list(dict_levels(form, None, budget))[-2].items()
        )
    assert (fold, rows) == (1066, 2804)


def test_a_group_whose_theta_misses_the_budget_adds_nothing():
    # of the budget's 80 units, x_0 = 4 spends 25 and leaves its group,
    # p = 5 (mod 10), less than its theta's cheapest term 11 * 5^2, while
    # x_0 = 3 spends 36 and its group's cheapest term 11 * 2^2 fills the
    # rest: the fold must skip the first group and keep the second
    form = _complete_squares([1, 5], [-3], [-3, -3], 0, 1)
    units = -7
    budget = form.sigma * units - form.base
    K, W = form.K[-1], form.W[-1]
    assert (budget, K, W) == (80, 11, 10)
    groups = fold_groups(form, budget)
    assert {r: budget - least < K * min(r, W - r) ** 2 for (r, _), least in groups.items()} == {
        5: True,
        8: False,
    }
    got = walked(form, None, units)
    assert got == dict_walk(form, None, units)
    assert got[0] == units and got[1].coeffs == (1,)


def scatter_add_hits(run):
    """Run run() and count _scatter's list adds, its one in-place add."""
    import qchar.quadform as quadform

    return line_hits(
        run, quadform._scatter.__code__, lambda a, b: "+=" in (b.argrepr, INPLACE_OPS.get(b.opname))
    )


def test_dimension_3_walks_scatter_their_pairs_into_the_folds_groups(walks, monkeypatch):
    # work counts are the only guard here: building x_1's rows and merging
    # them into groups, as l >= 4 does, gives the same series
    for build in (class1_identity, class2_identity):
        assert verify_identity(build(1), 800).match
    families = list(walks)
    monkeypatch.undo()  # line_hits must trace _walk itself, not the recorder
    packs = counting(monkeypatch, "_pack")
    runs = [(form, None, units) for form, units in sampled_forms() if len(form.K) == 3]
    assert len(runs) == 31
    seen = []
    for form, weight, units in runs + families:
        budget = form.sigma * units - form.base
        K, W, c, t = form.K[1], form.W[1], form.w_prev[1], form.w0[1]
        pairs = sum(
            len(_level_range(K, W, t + c * x, budget - min(spent)))
            for x, spent in next(dict_levels(form, weight, budget)).items()
        )
        packs[0] = 0
        _, spends = walk_line_hits(lambda: _walk(form, weight, units), "spend")
        assert spends == 0, form  # no row of x_0 or x_1
        assert packs[0] == len(fold_groups(form, budget)), form
        _, adds = scatter_add_hits(lambda: _walk(form, weight, units))
        assert adds == pairs, form
        seen.append(adds)
    assert [len(f.K) for f, _, _ in families] == [3, 3]
    assert seen[-2:] == [1181, 1181]


@pytest.mark.parametrize("weight", (WEIGHT_ALTERNATING, WEIGHT_FOUR_K_PLUS_ONE))
def test_dimension_3_counts_that_cancel_at_the_least_slot_match_the_dict_walk(weight):
    # under the alternating sign the scattered counts cancel at the least
    # slot: the lead is -1/2, yet the window starts at 0
    s = kappa_sum(3, "3/2", (0, "1/2", "3/2"), 0, weight)
    form = s._form
    lead, _ = lattice_sum_above(s, 0)
    units = floor((lead + 12) * form.grid)
    got = walked(form, weight, units)
    assert got == dict_walk(form, weight, units)
    assert lead == Fraction(-1, 2)
    if weight == WEIGHT_ALTERNATING:
        assert got[0] == lead * form.grid < got[1].lo == 0
