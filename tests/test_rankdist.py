import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from twistrank import rankdist as rd
from twistrank.gf import Flavor, build_field

from oracles import (DOMAIN_FIELDS, DOMAIN_PRIMES, SIX_PAIRS, SPOT_PRIMES, markov_entry_exact,
                     markov_row_exact, trunc4)


def test_dist_value_reference_spot_values():
    # reference values are truncated, not rounded, 4-decimal renderings
    assert trunc4(rd.dist_value(build_field(2, Flavor.SYMPLECTIC), 0)) == 0.4194
    assert trunc4(rd.dist_value(build_field(2, Flavor.UNITARY), 0)) == 0.5686
    assert trunc4(rd.dist_value(build_field(3, Flavor.SYMPLECTIC), 0)) == 0.6390


def test_dist_value_ratio_identity():
    for p, flavor in SIX_PAIRS:
        field = build_field(p, flavor)
        q = field.q
        up = q // p
        prev = rd.dist_value(field, 0)
        for r in range(1, 8):
            cur = rd.dist_value(field, r)
            assert cur == pytest.approx(prev * up / (q**r - 1), rel=1e-12)
            prev = cur


def test_dist_value_equal_at_rank_one_for_p2_sym():
    # q^(1-eps)/(q-1) = 1 here, so D(1) = D(0) exactly
    field = build_field(2, Flavor.SYMPLECTIC)
    assert rd.dist_value(field, 1) == pytest.approx(rd.dist_value(field, 0), rel=1e-14)


def operator_row(field, r, r_max=8):
    """Row r of the transition operator, read through the kernel: the law
    after one step from rank r <= r_max, over ranks 0..r_max + 1, so no
    mass leaves."""
    return rd.apply(field, np.eye(r_max + 2)[r])


def test_markov_entries_rank0_q2():
    field = build_field(2, Flavor.SYMPLECTIC)
    row = operator_row(field, 0)
    assert row[0] == 0.5
    assert row[1] == 0.5
    assert row[2] == 0.0
    with pytest.raises(ValueError):
        markov_entry_exact(field, 0, -1)


def test_markov_entries_rank2_q2():
    field = build_field(2, Flavor.SYMPLECTIC)
    row = operator_row(field, 2)
    assert row[1] == 0.75
    assert row[2] == 0.125
    assert row[3] == 0.125


def test_markov_entries_rank1_q4():
    field = build_field(2, Flavor.UNITARY)
    row = operator_row(field, 1)
    assert row[0] == 0.75
    assert row[1] == 0.125
    assert row[2] == 0.125


def test_markov_rows_stochastic_float():
    for p, flavor in SIX_PAIRS:
        field = build_field(p, flavor)
        for r in range(65):
            assert abs(operator_row(field, r, 64).sum() - 1.0) < 1e-15


def test_markov_rows_stochastic_exact():
    for field in (
        build_field(2, Flavor.SYMPLECTIC),
        build_field(3, Flavor.SYMPLECTIC),
        build_field(5, Flavor.SYMPLECTIC),
        build_field(7, Flavor.SYMPLECTIC),
        build_field(2, Flavor.UNITARY),
        build_field(3, Flavor.UNITARY),
    ):
        for r in range(30):
            assert sum(markov_row_exact(field, r).values()) == 1


def test_stationary_balance_equation_exact():
    """w(s-1) m(s-1,s) + w(s) m(s,s) + w(s+1) m(s+1,s) = w(s) in rationals."""
    for field in (build_field(2, Flavor.SYMPLECTIC), build_field(3, Flavor.SYMPLECTIC),
                  build_field(2, Flavor.UNITARY), build_field(3, Flavor.UNITARY)):
        weights = [rd.stationary_weight_exact(field, r) for r in range(32)]
        for s in range(31):
            inflow = weights[s] * markov_entry_exact(field, s, s)
            if s >= 1:
                inflow += weights[s - 1] * markov_entry_exact(field, s - 1, s)
            inflow += weights[s + 1] * markov_entry_exact(field, s + 1, s)
            assert inflow == weights[s]


def test_stationarity_l1():
    for p, flavor in SIX_PAIRS:
        field = build_field(p, flavor)
        dist = rd.stationary_distribution(field, 64)
        assert np.abs(rd.apply(field, dist) - dist).sum() < 1e-10


def test_apply_point_mass():
    field = build_field(2, Flavor.SYMPLECTIC)
    moved = rd.apply(field, np.eye(9)[0])
    assert moved[0] == 0.5
    assert moved[1] == 0.5
    assert moved[2:].sum() == 0


def test_apply_preserves_mass():
    field = build_field(3, Flavor.UNITARY)
    rng = np.random.default_rng(5)
    probs = rng.random(4)
    probs /= probs.sum()
    moved = rd.apply(field, probs)
    # all but what the top rank sends up, q^-3 / p of its mass
    dropped = probs[-1] / (field.q**3 * field.p)
    assert dropped > 1e-5
    assert moved.sum() + dropped == pytest.approx(1.0, abs=1e-12)


@settings(derandomize=True, deadline=None)
@given(p=st.sampled_from(DOMAIN_PRIMES), flavor=st.sampled_from(list(Flavor)),
       r_max=st.integers(64, 200))
@example(p=2, flavor=Flavor.SYMPLECTIC, r_max=64)
@example(p=32749, flavor=Flavor.UNITARY, r_max=200)
def test_operator_rows_and_stationarity_over_domain(p, flavor, r_max):
    """Every kernel row is stochastic and equals the exact rational entries,
    and the stationary law is a fixed point, anywhere in p <= 2^15."""
    field = build_field(p, flavor)
    for r in range(r_max + 1):
        row = operator_row(field, r, r_max)
        assert abs(row.sum() - 1.0) <= 1e-15
        neighbours = range(max(0, r - 1), r + 2)
        for s in neighbours:
            exact = float(markov_entry_exact(field, r, s))
            if exact >= 1e-300:
                assert abs(row[s] - exact) <= 1e-15 * exact
            else:
                assert abs(row[s] - exact) < 1e-300
        row[list(neighbours)] = 0.0
        assert not row.any()
    dist = rd.stationary_distribution(field, r_max)
    assert np.abs(rd.apply(field, dist) - dist).sum() < 1e-10


def tv_trace(field, r, k, r_max=64):
    """Total-variation distance to the stationary law after each of k
    operator steps from rank r, truncated at r_max."""
    target = rd.stationary_distribution(field, r_max)
    dist = np.eye(r_max + 1)[r]
    trace = []
    for _ in range(k):
        dist = rd.apply(field, dist)
        trace.append(0.5 * float(np.abs(dist - target).sum()))
    return trace


def test_apply_converges_from_zero():
    assert tv_trace(build_field(2, Flavor.SYMPLECTIC), 0, 60)[-1] < 1e-6


def test_apply_converges_from_five():
    assert tv_trace(build_field(3, Flavor.UNITARY), 5, 60)[-1] < 1e-6


def test_tv_to_stationary_never_increases():
    for p, flavor in ((2, Flavor.SYMPLECTIC), (3, Flavor.UNITARY)):
        field = build_field(p, flavor)
        for r in range(11):
            trace = tv_trace(field, r, 100)
            for earlier, later in zip(trace, trace[1:]):
                assert later <= earlier + 1e-15


def test_qr_moment_formula_vs_series():
    for p, flavor in SIX_PAIRS:
        field = build_field(p, flavor)
        assert rd.qr_moment(field) == 1 + field.q // p
        assert abs(rd.qr_moment_by_series(field) - rd.qr_moment(field)) < 1e-8


def test_qr_weighted_tail_is_dominated_beyond_truncation():
    """Past r = 64 the weighted terms q^r D(r) shrink by at least half per
    step: q^(r+1) D(r+1) / (q^r D(r)) = q^(2-eps)/(q^(r+1)-1), checked in
    exact integer arithmetic, so the truncated series is safe."""
    for p, flavor in SIX_PAIRS:
        field = build_field(p, flavor)
        q = field.q
        for r in (64, 65, 100):
            assert 2 * q * (q // p) <= q ** (r + 1) - 1


def test_expected_rank_spot_value():
    field = build_field(2, Flavor.SYMPLECTIC)
    assert trunc4(rd.expected_rank(field)) == 0.7644


def test_expected_rank_matches_series():
    for p, flavor in SIX_PAIRS:
        field = build_field(p, flavor)
        dist = rd.stationary_distribution(field, 64)
        mean = float(np.arange(65) @ dist)
        assert abs(mean - rd.expected_rank(field)) < 1e-9


def test_odd_mass_spot_value():
    field = build_field(13, Flavor.UNITARY)
    assert trunc4(rd.odd_mass(field)) == 0.0718


def test_odd_mass_matches_series():
    for p, flavor in SIX_PAIRS:
        field = build_field(p, flavor)
        odd_series = rd.stationary_distribution(field, 64)[1::2].sum()
        assert abs(rd.odd_mass(field) - odd_series) < 1e-8


def test_normalization_with_tail():
    """The mass past rank 64 is below 2^-1000 for every field here, so
    D(0..64) sums to 1."""
    for p, flavor in SIX_PAIRS:
        field = build_field(p, flavor)
        assert abs(rd.stationary_distribution(field, 64).sum() - 1.0) < 1e-12


def tail_bound(field, dist):
    """A bound on the mass D puts past the last rank of dist = D(0..r_max),
    the ranks `dist --rmax` omits, from its last entry. The ratios
    rho_r = D(r+1)/D(r) = q^(1-epsilon)/(q^(r+1) - 1) decrease, and
    rho_r < 1 from r = 1 on (rho_0 = 1 at p = 2 sym), so that mass is at
    most D(r_max) * rho_{r_max} / (1 - rho_{r_max+1})."""
    r_max = len(dist) - 1
    up, q = field.q // field.p, field.q
    rho = up / (q ** (r_max + 1) - 1)
    return dist[r_max] * rho / (1.0 - up / (q ** (r_max + 2) - 1))


def test_tail_bound_certifies_omitted_mass():
    for p, flavor in ((2, Flavor.SYMPLECTIC), (2, Flavor.UNITARY), (3, Flavor.SYMPLECTIC)):
        field = build_field(p, flavor)
        bound = tail_bound(field, rd.stationary_distribution(field, 5))
        omitted = sum(rd.dist_value(field, r) for r in range(6, 80))
        assert bound >= omitted > 0


@pytest.mark.parametrize("r_max", [0, 1, 2, 5])
@pytest.mark.parametrize("flavor", list(Flavor))
@pytest.mark.parametrize("p", [2, 3, 5, 32749])
def test_tail_bound_is_finite_without_warnings(p, flavor, r_max):
    # at p = 2 sym the first ratio D(1)/D(0) is 1, so a geometric series in
    # it would divide by zero at r_max = 0
    field = build_field(p, flavor)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        bound = tail_bound(field, rd.stationary_distribution(field, r_max))
    weights = [rd.stationary_weight_exact(field, r) for r in range(r_max + 40)]
    omitted = float(sum(weights[r_max + 1:]) / sum(weights))
    # up to the float rounding of D(r_max)
    assert math.isfinite(bound) and bound >= omitted * (1 - 1e-12) > 0


# ---------------------------------------------------------------------------
# walk_law: the k-step law of the rank walk
# ---------------------------------------------------------------------------

def stepped_walk_law(field, k, y):
    """The point mass at rank 0 after the full k-step loop over ranks 0..k,
    with nothing trimmed: the reference walk."""
    down, stay, up = rd._step_coefficients(rd.coin_table(field, k + 1, y), field.p)
    law = np.eye(k + 1)[0]
    for _ in range(k):
        law = rd._step(law * down, law * stay, law * up)
    return law


@pytest.mark.parametrize("p,flavor,y", [
    (p, flavor, y) for p in (2, 3, 5, 7, 11, 13, 32749) for flavor in Flavor
    for y in (None, 50.0, 2.0) if y is None or p in (2, 3, 32749)
] + [(2, Flavor.UNITARY, 3.0)])  # from step 351 this walk alternates between two states
def test_walk_law_is_bitwise_the_stepped_loop(p, flavor, y):
    """The law spans through its last non-zero rank, at most rank k, and is
    bitwise the loop's, which is zero past it."""
    field = build_field(p, flavor)
    for k in (0, 1, 5, 20, 1000):
        law = rd.walk_law(field, k, y=y)
        probs = stepped_walk_law(field, k, y)
        width = len(law)
        assert 1 <= width <= k + 1
        assert law[-1] > 0
        assert law.tobytes() == probs[:width].tobytes()
        assert not probs[width:].any()


def test_walk_law_any_k_repeats_the_cycle():
    """Past the step where the law repeats, walk_law(k) depends only on the
    phase of k in the cycle."""
    for p, flavor, y, period in ((2, Flavor.SYMPLECTIC, None, 1),
                                 (2, Flavor.UNITARY, 3.0, 2)):
        field = build_field(p, flavor)
        law = rd.walk_law(field, 1000, y=y)
        for k in (1000 + period, 10**18):
            far = rd.walk_law(field, k, y=y)
            assert far.tobytes() == law.tobytes()
        if period == 2:
            odd = rd.walk_law(field, 1001, y=y)
            assert odd.tobytes() != law.tobytes()
            # the odd phase: one step past the even law, whatever the size of k
            for k in (10**18 + 1, 10**700 + 1):
                assert rd.walk_law(field, k, y=y).tobytes() == odd.tobytes()


def test_walk_law_tail_bound_is_capped_at_one():
    """At k = 10^700, past any float, walk_law drops no rank, so there is
    no tail to bound, and the law is the one k = 10^18 gives, on a fixed
    point and on a 2-cycle (even phase)."""
    for flavor, y in ((Flavor.SYMPLECTIC, None), (Flavor.UNITARY, 3.0)):
        field = build_field(2, flavor)
        far = rd.walk_law(field, 10**700, y=y)
        assert far.tobytes() == rd.walk_law(field, 10**18, y=y).tobytes()


def test_walk_law_k0_is_point_mass():
    field = build_field(3, Flavor.UNITARY)
    law = rd.walk_law(field, 0)
    assert law.tolist() == [1.0]
    with pytest.raises(ValueError, match="step count must be non-negative"):
        rd.walk_law(field, -1)
    # y is keyword-only, so a third positional argument cannot pass for it
    with pytest.raises(TypeError):
        rd.walk_law(field, 7, 2.0)


def test_walk_law_keeps_every_non_zero_rank():
    """At k = 10^18 the law ends at its last non-zero rank, sums to 1 and
    stays narrow on every coin, the near-constant y -> 0 coin included
    (the widest here, 1 071 ranks at p = 2).

    The float step does not conserve mass exactly: at (32749, uni, y = 1e6)
    rank 0 loses about an ulp a step until the law repeats, some 12 000
    steps in, so that law sums to 1 - 1.33e-12."""
    for p in (2, 3, 5, 32749):
        for flavor in Flavor:
            field = build_field(p, flavor)
            for y in (None, 1e-300, 0.5, 2.0, 50.0, 1e6):
                law = rd.walk_law(field, 10**18, y=y)
                assert law[-1] > 0 or len(law) == 1, (p, flavor, y)
                assert law.sum() == pytest.approx(1.0, abs=2e-12), (p, flavor, y)
                assert len(law) <= 1100, (p, flavor, y)


@pytest.mark.parametrize("flavor", list(Flavor))
@pytest.mark.parametrize("p", [2, 3, 5, 7, 32749])
def test_walk_law_qr_moment_is_exact_at_every_k(p, flavor):
    """The kernel maps q^r to q^-1 q^r + q/p + 1 - 1/p - q^-1 (at rank 0 the
    coin always lands), so from rank 0 E_k[q^r] = 1 + q/p - (q/p) q^-k,
    which tends to qr_moment (Poonen-Rains, JAMS 25, 2012). At k = 10^18
    q^-k is taken as 0. The sum over the float law is taken exactly, for
    the walk and for corank_law's running product."""
    field = build_field(p, flavor)
    q, up = field.q, field.q // p
    for k in (0, 1, 2, 5, 20, 60, 1000, 10**18):
        want = 1 + up - (Fraction(up, q**k) if k <= 1000 else 0)
        for law in (rd.walk_law(field, k), rd.corank_law(field, k)):
            got = sum(q**r * Fraction(mass) for r, mass in enumerate(law))
            assert abs(got - want) <= Fraction(1, 10**12) * want, (k, float(got - want))


@pytest.mark.parametrize("flavor", list(Flavor))
@pytest.mark.parametrize("p", [2, 3, 5])
def test_stationary_moments_are_the_poonen_rains_product(p, flavor):
    """E_D[q^(jr)] = prod_{i=1..j} (1 + q^i/p) (Poonen-Rains, JAMS 25, 2012);
    j = 1 is qr_moment. The sum over the float law is taken exactly."""
    field = build_field(p, flavor)
    q = field.q
    dist = rd.stationary_distribution(field, 200).tolist()
    for j in (1, 2, 3):
        got = sum(Fraction(mass) * q ** (j * r) for r, mass in enumerate(dist) if mass)
        want = math.prod(1 + Fraction(q**i, p) for i in range(1, j + 1))
        assert abs(got - want) <= Fraction(1, 10**14) * want, (j, float(got / want - 1))


def tv_to_detailed_balance(field, law, y):
    """TV from law to pi(r) ~ prod_{i<r} up(i)/down(i+1), the stationary law
    of the chain with y's coin table, over twice law's width."""
    n = 2 * len(law)
    down, _, up = rd._step_coefficients(rd.coin_table(field, n, y), field.p)
    assert (down[1:] > 0).all()
    pi = np.cumprod(np.append(1.0, up[:-1] / down[1:]))
    pi /= pi.sum()
    return 0.5 * np.abs(np.append(law, np.zeros(n - len(law))) - pi).sum()


@pytest.mark.parametrize("p,flavor,y,bound", [
    (2, "sym", 0.5, 1e-14), (2, "uni", 0.3, 1e-14), (3, "uni", 50.0, 1e-14),
    (2, "sym", 2.0, 1e-14), (5, "uni", 1.0, 1e-14), (2, "sym", None, 1e-14),
    # at the largest p the gap is the walk's rank-0 drift (4.5e-14 and
    # 3.5e-14 measured), not an error in pi
    (32749, "sym", None, 1e-13), (32749, "uni", 50.0, 1e-13)])
def test_walk_law_far_k_is_the_detailed_balance_law(p, flavor, y, bound):
    """Every coin table gives a birth-death chain, which is reversible, so its
    stationary law is pi(r) ~ prod_{i<r} up(i)/down(i+1). This reference
    does not iterate the kernel, unlike walk_law."""
    field = build_field(p, Flavor(flavor))
    tv = tv_to_detailed_balance(field, rd.walk_law(field, 10**18, y=y), y)
    assert tv < bound, tv


@settings(derandomize=True, deadline=None)
@given(p=st.sampled_from(DOMAIN_PRIMES), flavor=st.sampled_from(list(Flavor)),
       y=st.none() | st.floats(-2.0, 12.0).map(lambda u: 10.0**u))
# the two inputs furthest from pi before renormalising (1.69e-13 and 8.1e-13)
@example(p=24809, flavor=Flavor.SYMPLECTIC, y=None)
@example(p=31729, flavor=Flavor.UNITARY, y=1.5e11)
def test_walk_law_far_k_renormalised_is_the_detailed_balance_law(p, flavor, y):
    """Over the domain and every coin, walk_law at k = 10^18, renormalised,
    is the detailed-balance law pi of the pinned test above to 1e-15 in TV,
    and the law loses less than 1e-11 of its mass. The unrenormalised law is
    further from pi at large p: the lost mass is the gap."""
    field = build_field(p, flavor)
    law = rd.walk_law(field, 10**18, y=y)
    lost = abs(1.0 - law.sum())
    assert lost < 1e-11, lost
    tv = tv_to_detailed_balance(field, law / law.sum(), y)
    assert tv < 1e-15, tv


def test_coin_table_exact_mode():
    field = build_field(2, Flavor.SYMPLECTIC)
    coin = rd.coin_table(field, 1100)
    assert coin[:4].tolist() == [1.0, 0.5, 0.25, 0.125]
    assert coin[-1] == 0.0  # 2^-1099 underflows harmlessly


def test_coin_table_bounded_error_is_marginal_of_clipped_coin():
    """The table equals E[clip(q^-r + U/y, 0, 1)], U uniform on [-1, 1],
    computed here by a fine midpoint rule; rank 0 stays 1."""
    u = (np.arange(200_000) + 0.5) / 100_000 - 1.0
    for p, flavor in ((2, Flavor.SYMPLECTIC), (3, Flavor.UNITARY), (13, Flavor.SYMPLECTIC)):
        field = build_field(p, flavor)
        for y in (1e-300, 1e-12, 0.5, 1.0, 1.5, 4.0, 50.0, 1e6):
            coin = rd.coin_table(field, 12, y)
            assert coin[0] == 1.0
            for r in range(1, 12):
                c = float(field.q) ** -r
                expected = np.clip(c + u / y, 0.0, 1.0).mean()
                assert coin[r] == pytest.approx(expected, abs=1e-9)
    for y in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="positive and finite"):
            rd.coin_table(build_field(2, Flavor.SYMPLECTIC), 4, y)


# ---------------------------------------------------------------------------
# the stationary law far past the float range of q^r
# ---------------------------------------------------------------------------

def test_stationary_distribution_beyond_float_range_of_q_power():
    for p, flavor, r_max in ((2, Flavor.SYMPLECTIC, 1200), (3, Flavor.UNITARY, 400),
                             (1009, Flavor.UNITARY, 64), (32749, Flavor.SYMPLECTIC, 80)):
        field = build_field(p, flavor)
        dist = rd.stationary_distribution(field, r_max)
        d0 = dist[0]
        for r in range(r_max + 1):
            # past rank 60 the exact weight is below 2^-1700 for every field here
            exact = d0 * float(rd.stationary_weight_exact(field, r)) if r < 60 else 0.0
            if exact > 1e-290:
                assert dist[r] == pytest.approx(exact, rel=1e-12)
            else:
                assert dist[r] < 1e-290
        assert dist[-1] == 0.0
        assert rd.dist_value(field, r_max) == 0.0
        assert rd.dist_value(field, 1) == dist[1]


def test_dist_value_far_past_the_law_is_zero():
    """dist_value reads the law's non-zero prefix, so a rank far past it is
    0.0 with no array of that many ranks."""
    field = build_field(2, Flavor.SYMPLECTIC)
    law = rd.corank_law(field, rd.FAR_K).tolist()
    assert [rd.dist_value(field, r) for r in range(len(law) + 1)] == [*law, 0.0]
    assert rd.dist_value(field, 10**18) == 0.0
    assert rd.dist_value(field, 10**700) == 0.0


@pytest.mark.parametrize("p", [2, 3, 5, 7, 32749])
@pytest.mark.parametrize("flavor", list(Flavor))
def test_stationary_distribution_is_non_zero_exactly_on_a_prefix(p, flavor):
    # stationary_distribution pads D's non-zero prefix, which cmd_dist
    # formats, with +0.0, which cmd_dist prints as "0"
    dist = rd.stationary_distribution(build_field(p, flavor), 1200)
    live = np.count_nonzero(dist)
    assert 0 < live < len(dist)
    assert (dist[:live] > 0).all()
    assert not np.signbit(dist[live:]).any() and not dist[live:].any()


def test_stationary_distribution_is_non_zero_on_at_most_46_ranks_over_the_domain():
    # the default width holds all of D in every field of the domain; p = 2
    # sym is the widest law
    widths = {(p, flavor): int(np.count_nonzero(
                  rd.stationary_distribution(build_field(p, flavor), rd.R_MAX_DEFAULT)))
              for p, flavor in DOMAIN_FIELDS}
    assert len(widths) == 7024
    assert max(widths.values()) == widths[2, Flavor.SYMPLECTIC] == 46 < rd.R_MAX_DEFAULT


def test_qr_moment_series_for_large_unitary_p():
    for p in (1009, 32749):
        field = build_field(p, Flavor.UNITARY)
        assert rd.qr_moment_by_series(field) == pytest.approx(rd.qr_moment(field), rel=1e-12)


def reference_qr_moment(field):
    """qr_moment_by_series in its generator and numpy-scalar form."""
    fq = float(field.q)
    return float(sum(fq**r * dr for r, dr in enumerate(rd.stationary_distribution(field)) if dr))


@pytest.mark.parametrize("flavor", list(Flavor))
def test_closed_forms_are_bitwise_the_generator_forms(flavor):
    """qr_moment_by_series's plain loop over Python floats does every IEEE
    operation of the generator form over numpy scalars on the same operands,
    so the two are equal, not merely close. (The printed digits of D(0),
    beta and the mean rank are certified by tests/test_printed_digits.py.)"""
    for p in SPOT_PRIMES:
        field = build_field(p, flavor)
        assert rd.qr_moment_by_series(field) == reference_qr_moment(field), p
