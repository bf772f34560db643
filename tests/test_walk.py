"""The packed lattice walk checked against the dict-of-spends walk oracle."""

from dataclasses import replace
from fractions import Fraction
from math import floor, gcd

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
    _ScaledForm,
    _walk,
    lattice_sum_above,
    lattice_sum_series,
)
from qchar.qseries import _slot_width
from box_oracle import lattice_enumerate_oracle
from point_oracle import _scaled_points
from squares_oracle import kappa_sum
from test_quadform import INPLACE_OPS, line_hits
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
            lattice_sum_above(_character_parts(data, k)[0], 30)
    assert len(walks) == 28
    assert_matches_oracle(walks)


def test_family_walks_match_the_dict_walk(walks):
    # the families workload's runs, then the dimension-3 walks at 4000,
    # whose thetas are longest, about 4000 slots each, and a long chain:
    # class1 m = 20, dimension 79, through its nearest-plane point
    runs = ((class1_identity, 1, 800), (class1_identity, 2, 160), (class1_identity, 3, 56),
            (class2_identity, 1, 800), (class2_identity, 2, 100),
            (class1_identity, 1, 4000), (class2_identity, 1, 4000))
    for build, m, order in runs:
        assert verify_identity(build(m), order).match
    long_chain = class1_identity(20).rhs
    assert long_chain.l == 79
    lattice_sum_above(long_chain, 0)
    assert len(walks) == 8
    assert_matches_oracle(walks)


def test_classical_walks_match_the_dict_walk(walks):
    for name in CLASSICAL_NAMES:
        assert verify_identity(classical_identity(name), 3000).match
    assert len(walks) == 4
    assert_matches_oracle(walks)


# the walk of this weighted sum is zero at every order: x_0 -> 3 - x_0 keeps
# every exponent and flips the sign, so its root theta cancels in every slot
CANCELLING = LatticeSum((1, 1), (0,), (-3, -3), 0, 2, WEIGHT_ALTERNATING)


@st.composite
def chains(draw, top=4, scale=1):
    """A positive-definite integer chain in dimensions 0-top whose quadratic
    and linear entries share a factor 1-scale, so that its stride may pass
    1, and a weight shape."""
    l = draw(st.integers(min_value=0, max_value=top))
    f = draw(st.integers(min_value=1, max_value=scale))
    diag = [f * draw(st.integers(min_value=1, max_value=9)) for _ in range(l)]
    off = [f * draw(st.integers(min_value=-4, max_value=4)) for _ in range(max(l - 1, 0))]
    lin = [f * draw(st.integers(min_value=-9, max_value=9)) for _ in range(l)]
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
    chain=(_ScaledForm(grid=1, sigma=4, base=-1, K=(1,), W=(2,), w_prev=(0,), w0=(-1,),
                       stride=2, periods=(2,)), WEIGHT_FOUR_K_PLUS_ONE),
    extra=0,
)
@example(  # x_0 -> 3 - x_0 flips the sign: the root cancels in every slot
    chain=(CANCELLING._form, WEIGHT_ALTERNATING),
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
    # the weight enters at level 0, after each child's shift, so the root
    # theta holds negative slots, which the window must read back balanced;
    # a child weighted before its shift would floor a negative int there,
    # borrowing from the slots it keeps
    s = replace(s, weight=weight)
    bound = lattice_sum_above(s, 0)[0] + 12
    got = lattice_sum_series(s, bound)
    assert got == dict_walk(s._form, weight, floor(bound * s._form.grid))[1]
    assert any(got.coeffs)


def test_width_above_64_bits_matches_the_dict_walk(monkeypatch):
    # the class1 m = 5 numerator at order 400 bounds its counts by a 68-bit
    # number, so with the sign bit its slots are 72 bits wide, the fewest
    # whole bytes (128 when widths above 64 went by whole words)
    import qchar.quadform as quadform

    s = class1_identity(5).rhs
    form = s._form
    units = floor((lattice_sum_above(s, 0)[0] + 400) * form.grid)
    budget = form.sigma * units - form.base
    assert _count_bound(form, s.weight, budget).bit_length() == 68
    assert _slot_width(_count_bound(form, s.weight, budget)) == 72
    widths = []
    inner = quadform._unpack

    def unpack(x, k, w):
        widths.append(w)
        return inner(x, k, w)

    monkeypatch.setattr(quadform, "_unpack", unpack)
    got = walked(form, s.weight, units)
    assert got == dict_walk(form, s.weight, units)
    assert widths and set(widths) == {72}
    assert_bound_covers(form, s.weight, units, got[1])


def test_class1_m3_walk_at_order_1000_matches_the_dict_walk():
    # dimension 11 at the order the engine's speed is judged by
    s = class1_identity(3).rhs
    units = floor((lattice_sum_above(s, 0)[0] + 1000) * s._form.grid)
    got = _walk(s._form, s.weight, units)
    assert got == dict_walk(s._form, s.weight, units)[1]
    assert len(got.coeffs) == 1001 and got.coeffs[0] == 1


def test_stride_seven_rows_match_the_dict_walk(monkeypatch):
    # 84 of the sweep's n = 7 character numerators at k >= 1 step their
    # root thetas, and so their windows, by 7 grid slots
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
            chain = _character_parts(data, k)[0]
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
                    chain = route(data, k)[0]
                    units = floor((lattice_sum_above(chain, 0)[0] + 12) * chain._form.grid)
                    out.append((chain._form, units))
    for s in SIGNED_SUMS:
        out.append((s._form, floor((lattice_sum_above(s, 0)[0] + 12) * s._form.grid)))
    return out


@pytest.mark.parametrize("weight", WEIGHTS)
def test_count_bound_covers_every_count_the_dict_walk_keeps(weight):
    # the width proof's bound must reach every count the dict walk keeps at
    # any level, each a number of prefixes spending one amount
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


def test_a_group_whose_theta_misses_the_budget_adds_nothing():
    # of the budget's 80 units, x_0 = 4 spends 25 and reaches the residue
    # p = 5 (mod 10) of the last level, which leaves less than its theta's
    # cheapest term 11 * 5^2, while x_0 = 3 spends 36 and reaches p = 8,
    # whose cheapest term 11 * 2^2 fills the rest: the walk must keep no
    # theta for the first residue and keep the second's
    form = _complete_squares([1, 5], [-3], [-3, -3], 0, 1)
    units = -7
    budget = form.sigma * units - form.base
    K, W, c, t = form.K[-1], form.W[-1], form.w_prev[-1], form.w0[-1]
    assert (budget, K, W, form.periods[-1]) == (80, 11, 10, 10)
    reached = {}
    for x, spent in list(dict_levels(form, None, budget))[-2].items():
        r = (t + c * x) % W
        reached[r] = min(reached.get(r, budget), min(spent))
    assert {r: budget - least < K * min(r, W - r) ** 2 for r, least in reached.items()} == {
        5: True,
        8: False,
    }
    got = walked(form, None, units)
    assert got == dict_walk(form, None, units)
    assert got[0] == units and got[1].coeffs == (1,)


@pytest.mark.parametrize("weight", (WEIGHT_ALTERNATING, WEIGHT_FOUR_K_PLUS_ONE))
def test_dimension_3_counts_that_cancel_at_the_least_slot_match_the_dict_walk(weight):
    # under the alternating sign the counts cancel at the least slot: the
    # lead is -1/2, yet the window starts at 0
    s = kappa_sum(3, "3/2", (0, "1/2", "3/2"), 0, weight)
    form = s._form
    lead, _ = lattice_sum_above(s, 0)
    units = floor((lead + 12) * form.grid)
    assert lead == Fraction(-1, 2)
    got = walked(form, weight, units)
    assert got == dict_walk(form, weight, units)
    if weight == WEIGHT_ALTERNATING:
        assert got[0] == lead * form.grid < got[1].lo == 0


def test_a_weighted_walk_that_cancels_everywhere_is_zero():
    # the walk keeps no root theta, yet still records the least slot, -4
    form = CANCELLING._form
    got = walked(form, CANCELLING.weight, -4)
    assert got == dict_walk(form, CANCELLING.weight, -4)
    assert got[0] == -4 and got[1].coeffs == (0,)
    lead, series = lattice_sum_above(CANCELLING, 5)
    assert lead == -2 and series.coeffs == (0,) and series.order == 3 * form.grid


@settings(max_examples=200, deadline=None)
@given(chains(top=5, scale=4), st.integers(min_value=-6, max_value=40))
@example(  # dimension 5, stride 2, alternating
    chain=(LatticeSum((4, 6, 4, 6, 4), (-2, 2, -2, 2), (2, 0, -2, 4, 0), 1, 3)._form,
           WEIGHT_ALTERNATING),
    extra=12,
)
def test_property_strided_walk_matches_dict_walk(chain, extra):
    # chains whose stride may pass 1, from below the minimum (a zero window)
    # to 40 grid slots above the nearest-plane bound
    form, weight = chain
    pivots = sum(k * w * w for k, w in zip(form.K, form.W))
    units = (4 * form.base + pivots) // (4 * form.sigma) + extra
    assert walked(form, weight, units) == dict_walk(form, weight, units)


def suffix_form(form, i, p, paid):
    """Levels i..l-1 of form entered at p_i = p after a prefix that spent
    paid, so that its points' exponents are the whole chain's; stride 1,
    which any two spends share."""
    return _ScaledForm(
        grid=form.grid, sigma=form.sigma, base=form.base + paid,
        K=form.K[i:], W=form.W[i:], w_prev=(0,) + form.w_prev[i + 1 :],
        w0=(p,) + form.w0[i + 1 :], stride=1,
        periods=form.periods[i:],
    )


LEMMA_SUMS = (
    *((s, 8) for s in SIGNED_SUMS),
    (class1_identity(1).rhs, 30),
    (class2_identity(2).rhs, 6),
    (_character_parts(PartitionData.from_parts((1, 6)), 3)[0], 6),
)


def test_suffix_thetas_repeat_with_period_P_i():
    # T_i(p) = T_i(p + P_i), so the residue walk keeps one theta per class:
    # after each real prefix, the suffix walked from p = r and from r + P_i,
    # r its p_i mod P_i, must be the box oracle's points with that prefix
    checked = 0, 0
    for s, order in LEMMA_SUMS:
        form = s._form
        units = floor((lattice_sum_above(s, 0)[0] + order) * form.grid)
        sums = {}
        for point, e in lattice_enumerate_oracle(s, Fraction(units, form.grid)):
            paid = prev = 0
            for i in range(1, s.l):
                v = form.W[i - 1] * point[i - 1] + form.w_prev[i - 1] * prev + form.w0[i - 1]
                paid += form.K[i - 1] * v * v
                prev = point[i - 1]
                counts = sums.setdefault((i, point[:i]), (paid, {}))[1]
                counts[e * form.grid] = counts.get(e * form.grid, 0) + 1
        # prefixes reaching one residue with one spend leave one suffix sum
        classes = {}
        for (i, prefix), (paid, want) in sums.items():
            r = (form.w0[i] + form.w_prev[i] * prefix[-1]) % form.periods[i]
            assert classes.setdefault((i, r, paid), want) == want
        for (i, r, paid), want in classes.items():
            for p in (r, r + form.periods[i]):
                _, got = walked(suffix_form(form, i, p, paid), None, units)
                assert {got.lo + j: c for j, c in enumerate(got.coeffs) if c} == want
        checked = checked[0] + len(sums), checked[1] + len(classes)
    assert checked == (5420, 658)


def test_suffix_spends_share_a_residue_mod_sigma_stride():
    # the spends of levels i..l-1 after any prefix reaching one residue of
    # p_i mod P_i are congruent mod sigma*stride, the walk's one step
    for form, units in sampled_forms():
        residues = {}
        for point, total in _scaled_points(form, units):
            paid, prev = form.base, 0
            for i, x in enumerate(point):
                p = form.w0[i] + form.w_prev[i] * prev
                step = form.sigma * form.stride
                residues.setdefault((i, p % form.periods[i]), set()).add((total - paid) % step)
                v = form.W[i] * x + p
                paid += form.K[i] * v * v
                prev = x
        assert all(len(r) == 1 for r in residues.values()), form


def completing_terms(form, units):
    """The residue walk's terms, read off the points one by one: (level i,
    residue r of p_i, value) triples whose value completes r's least prefix
    to a point within the budget."""
    budget = form.sigma * units - form.base
    least, suffix = {}, {}
    for point, total in _scaled_points(form, units):
        paid, prev = form.base, 0
        for i, x in enumerate(point):
            p = form.w0[i] + form.w_prev[i] * prev
            key = (i, p % form.periods[i] if i else p)
            v = form.W[i] * x + p
            least[key] = min(least.get(key, total), paid - form.base)
            suffix[key, v] = min(suffix.get((key, v), total), total - paid)
            paid += form.K[i] * v * v
            prev = x
    return sum(spend <= budget - least[key] for (key, _), spend in suffix.items())


def residue_adds(run):
    """Run run() and count the walk's adds: its two in-place adds, the
    shift-add into acc and the one-level case's add into the window."""
    import qchar.quadform as quadform

    return line_hits(
        run,
        quadform._walk_residues.__code__,
        lambda a, b: "+=" in (b.argrepr, INPLACE_OPS.get(b.opname)),
        lines=2,
    )


def test_residue_walk_shift_adds_once_per_completing_term():
    # work counts are the only guard here: a walk that keeps one theta per
    # value of x_(i-1), as the rows did, or shift-adds children that complete
    # no point within the budget, gives the same series
    total = 0
    for form, units in sampled_forms():
        (_, got), adds = residue_adds(lambda: walked(form, None, units))
        assert got == dict_walk(form, None, units)[1]
        assert adds == completing_terms(form, units), form
        total += adds
    assert total == 3840
    # class1 m = 40, dimension 159, through its nearest-plane point: the
    # rows made 29,942 shift-adds here
    _, adds = residue_adds(lambda: lattice_sum_above(class1_identity(40).rhs, 0))
    assert adds == 9608


def suffix_gcds(s):
    """The gcd of 2a_j, a_j + l_j (j >= i) and b_j (j >= i - 1) of a chain at
    each level i, the step its suffix spends share from level i on."""
    out, g = [], 0
    for i in range(s.l - 1, -1, -1):
        g = gcd(g, 2 * s.diag[i], s.diag[i] + s.lin[i], s.off[i - 1] if i else 0)
        out.append(g)
    return out[::-1]


def test_residue_thetas_at_one_step_where_the_suffix_stride_refines():
    # n = 7 character chains whose suffix gcds fall toward level 0, such as
    # 7, 7, 7, 42, 42, 42: every theta steps by the level-0 gcd, so a deep
    # theta holds the slots its finer classes leave empty
    refined = 0
    for parts in partitions(7):
        data = PartitionData.from_parts(parts)
        for k in range(1, 7):
            chain = _character_parts(data, k)[0]
            form = chain._form
            gcds = suffix_gcds(chain)
            assert form.stride == gcds[0]
            if len(set(gcds)) > 1:
                units = floor((lattice_sum_above(chain, 0)[0] + 30) * form.grid)
                assert walked(form, None, units) == dict_walk(form, None, units)
                refined += 1
    assert refined == 60


@pytest.mark.parametrize(
    "make",
    [
        lambda: _character_parts(PartitionData.from_parts((1,) * 8), 0)[0],
        lambda: _character_parts(PartitionData.from_parts((2, 2, 2, 2)), 1)[0],
        lambda: _character_parts(PartitionData.from_parts((2, 3, 5)), 4)[0],
    ],
    ids=["ones8-k0", "twos4-k1", "p235-k4"],
)
def test_long_thetas_at_order_1000_match_the_dict_walk(make):
    # the frontier the residue walk is for, where its thetas are few and
    # long: it gives the dict walk's window and least slot (class1 m = 3 at
    # this order is test_class1_m3_walk_at_order_1000_matches_the_dict_walk);
    # (2,3,5) at k = 4 refines deeply, its suffix gcds 1,1,4,4,4,12,12,12,12,
    # so its deep thetas hold 12 times the slots their classes fill
    s = make()
    form = s._form
    units = floor((lattice_sum_above(s, 0)[0] + 1000) * form.grid)
    got = walked(form, s.weight, units)
    assert got == dict_walk(form, s.weight, units)
    assert len(got[1].coeffs) > 900
