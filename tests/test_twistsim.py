import math
from fractions import Fraction

import numpy as np
import pytest
from scipy.stats import kstest

from twistrank import rankdist as rd
from twistrank.gf import Flavor, build_field
from twistrank.twistsim import (
    CapExceeded,
    FanLadder,
    ShiftMode,
    SimConfig,
    build_place_model,
    micro_transition_law,
    primes_up_to,
    simulate,
    strata_cardinality,
)

SIX_PAIRS = [(p, flavor) for p in (2, 3, 5, 7, 11, 13) for flavor in Flavor]


# ---------------------------------------------------------------------------
# place model
# ---------------------------------------------------------------------------

def p1_norms(x, density, seed):
    """build_place_model's P1 norms, checked to be ascending primes <= x."""
    norms = build_place_model(x, density, seed)
    assert np.all(np.diff(norms) > 0)
    assert np.isin(norms, primes_up_to(int(x))).all()
    return norms


def test_place_model_density_one():
    assert p1_norms(10, 1.0, seed=1).tolist() == [2, 3, 5, 7]  # all P1


def test_place_model_counts_primes():
    primes = primes_up_to(100)
    assert len(primes) == 25
    assert primes[0] == 2 and primes[-1] == 97
    # each prime is kept by its own coin of the seeded generator
    coins = np.random.default_rng(1).random(len(primes))
    assert np.array_equal(p1_norms(100, 0.5, seed=1), primes[coins < 0.5])


def test_place_model_p1_fraction_three_sigma():
    density = 0.25
    n = len(primes_up_to(1_400_000))
    assert n >= 100_000
    frac = len(p1_norms(1_400_000, density, seed=7)) / n
    sigma = math.sqrt(density * (1 - density) / n)
    assert abs(frac - density) <= 3 * sigma


def test_place_model_validation():
    with pytest.raises(ValueError):
        build_place_model(1, 1.0, seed=0)
    with pytest.raises(ValueError):
        build_place_model(10, 0.0, seed=0)
    with pytest.raises(ValueError):
        build_place_model(10, 1.5, seed=0)
    with pytest.raises(ValueError, match="seed must be non-negative"):
        build_place_model(10, 1.0, seed=-1)


# ---------------------------------------------------------------------------
# ladder
# ---------------------------------------------------------------------------

def test_ladder_first_levels():
    first, second = FanLadder(2.0).levels(10, 2)
    assert first == pytest.approx(100.0, rel=1e-12)
    # L_2(10) = max(L(100), 10*100) = max(10^4, 10^3)
    assert second == pytest.approx(10_000.0, rel=1e-12)


def test_ladder_recursion_lower_bound():
    for exponent in (1.0, 2.0, 3.5):
        ladder = FanLadder(exponent)
        for x in (2.0, 10.0, 100.0):
            levels = ladder.levels(x, 6)
            for i in range(5):
                assert levels[i + 1] >= x * levels[i]


def test_ladder_saturates_to_inf():
    ladder = FanLadder(2.0)
    levels = ladder.levels(1e10, 40)
    assert levels[-1] == math.inf
    assert all(a <= b or b == math.inf for a, b in zip(levels, levels[1:]))


def test_ladder_rejects_bad_x():
    for x in (math.nan, math.inf, 0.5):
        with pytest.raises(ValueError, match="x must be finite and >= 1"):
            FanLadder(2.0).levels(x, 3)


def test_ladder_rejects_bad_exponent():
    for exponent in (0.5, math.nan, math.inf):
        with pytest.raises(ValueError, match="exponent must be finite and >= 1"):
            FanLadder(exponent)


# ---------------------------------------------------------------------------
# rank steps
# ---------------------------------------------------------------------------

def walk_counts(field, k, samples, seed, y=None):
    """Rank counts after k kernel steps of every sample from rank 0."""
    config = SimConfig(field=field, k=k, samples=samples, seed=seed, chebotarev_y=y)
    return simulate(config).counts


def assert_within_three_sigma(counts, law):
    """Every rank's frequency lies within 3 sigma of its probability."""
    n = counts.sum()
    sigma = np.sqrt(law * (1 - law) / n)
    assert (np.abs(counts / n - law) <= 3 * sigma).all()


def test_step_never_below_zero():
    field = build_field(2, Flavor.SYMPLECTIC)
    for y in (None, 3.0):
        # a rank below 0 would make the histogram's bincount raise
        counts = walk_counts(field, 1, 5000, seed=0, y=y)
        assert len(counts) == 2 and counts.sum() == 5000


def test_step_up_frequency_q2_rank0():
    field = build_field(2, Flavor.SYMPLECTIC)
    n = 1_000_000
    ups = walk_counts(field, 1, n, seed=42)[1]
    sigma = math.sqrt(0.5 * 0.5 / n)
    assert abs(ups / n - 0.5) <= 3 * sigma


def test_step_down_frequency_q4_rank1():
    # from rank 0 the second step falls from rank 1 with probability 3/4,
    # so every k=2 frequency depends on that fall
    field = build_field(2, Flavor.UNITARY)
    law = rd.walk_law(field, 2).probs
    assert law[0] == 0.5 * 0.5 + 0.5 * 0.75
    assert_within_three_sigma(walk_counts(field, 2, 1_000_000, seed=43), law)


def test_step_bounded_error_mode():
    field = build_field(2, Flavor.SYMPLECTIC)
    y = 50.0
    n = 1_000_000
    t_zero = walk_counts(field, 1, n, seed=100, y=y).sum()
    sigma = math.sqrt(0.25 / n)
    assert abs(t_zero / n - 1.0) <= 1 / y + 3 * sigma
    # ranks 1 and 2 are reached in two steps from rank 0
    law = rd.walk_law(field, 2, y=y).probs
    for r in (1, 2):
        assert_within_three_sigma(walk_counts(field, 2, n, seed=100 + r, y=y), law)


def test_micro_law_exact_equivalence_with_operator():
    """Exhaustive (coin, line, character) enumeration reproduces the
    transition operator exactly, for every order exponent n."""
    for p in (2, 3, 5):
        for flavor in Flavor:
            field = build_field(p, flavor)
            for n in (1, 2):
                for r in range(4):
                    law = micro_transition_law(field, r, n)
                    expected = {
                        s: rd.markov_entry_exact(field, r, s)
                        for s in range(max(0, r - 1), r + 2)
                        if rd.markov_entry_exact(field, r, s)
                    }
                    assert law == expected
                    assert sum(law.values()) == 1


def test_micro_law_spot_counts_p2_rank0():
    # 2 line choices x 2 characters: rank rises in exactly 2 of 4 outcomes
    field = build_field(2, Flavor.SYMPLECTIC)
    law = micro_transition_law(field, 0, 1)
    assert law[1] == Fraction(1, 2)
    assert law[0] == Fraction(1, 2)


def test_micro_law_spot_counts_p3_rank0():
    # 3 x 6 outcomes, 6 of 18 rise
    field = build_field(3, Flavor.SYMPLECTIC)
    law = micro_transition_law(field, 0, 1)
    assert law[1] == Fraction(1, 3)


def test_micro_law_independent_of_n_p2():
    field = build_field(2, Flavor.SYMPLECTIC)
    assert micro_transition_law(field, 0, 1) == micro_transition_law(field, 0, 2)


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def test_simulate_k0_point_mass():
    field = build_field(2, Flavor.SYMPLECTIC)
    emp = simulate(SimConfig(field=field, k=0, samples=1000, seed=1))
    assert emp.counts[0] == 1000
    assert emp.total == 1000


def test_simulate_deterministic():
    field = build_field(3, Flavor.UNITARY)
    cfg = SimConfig(field=field, k=8, samples=40_000, seed=77)
    a = simulate(cfg)
    b = simulate(cfg)
    assert np.array_equal(a.counts, b.counts)


def test_simulate_thread_count_invariance():
    field = build_field(2, Flavor.SYMPLECTIC)
    base = simulate(SimConfig(field=field, k=10, samples=120_000, seed=5, threads=1))
    for threads in (2, 4):
        other = SimConfig(field=field, k=10, samples=120_000, seed=5, threads=threads)
        assert np.array_equal(base.counts, simulate(other).counts)


def test_simulate_shift_equals_postcomposed_shift():
    field = build_field(2, Flavor.SYMPLECTIC)
    plain = simulate(SimConfig(field=field, k=6, samples=30_000, seed=9))
    shifted = simulate(
        SimConfig(field=field, k=6, samples=30_000, seed=9,
                  shift_mode=ShiftMode("notfd", 2))
    )
    assert np.array_equal(shifted.counts[2:], plain.counts)
    assert shifted.counts[:2].sum() == 0


def test_simulate_fd_mode_offsets_by_one():
    field = build_field(2, Flavor.SYMPLECTIC)
    emp = simulate(SimConfig(field=field, k=6, samples=30_000, seed=9,
                             shift_mode=ShiftMode("fd")))
    assert emp.counts[0] == 0
    plain = simulate(SimConfig(field=field, k=6, samples=30_000, seed=9))
    assert np.array_equal(emp.counts[1:], plain.counts)


def test_simulate_reference_law(samples=1_000_000):
    field = build_field(2, Flavor.SYMPLECTIC)
    emp = simulate(SimConfig(field=field, k=20, samples=samples, seed=42))
    assert emp.tv_against(rd.walk_law(field, 20).probs) < 0.01


def test_simulate_chi2_grid_does_not_reject():
    """Goodness of fit against the k-step law at the 1e-3 level."""
    for p, flavor in SIX_PAIRS:
        field = build_field(p, flavor)
        for k in (1, 5, 20):
            emp = simulate(SimConfig(field=field, k=k, samples=1_000_000,
                                     seed=1000 + p))
            _, _, pvalue = emp.chi2_against(rd.walk_law(field, k).probs)
            assert pvalue > 1e-3, (p, flavor, k, pvalue)


@pytest.mark.parametrize("p,flavor", [(2, Flavor.SYMPLECTIC), (3, Flavor.UNITARY)])
def test_simulate_chi2_at_a_trillion_samples(p, flavor):
    """At 10^12 samples the chi2 tests the precision of walk_law itself, at
    the same 1e-3 level."""
    field = build_field(p, flavor)
    emp = simulate(SimConfig(field=field, k=20, samples=10**12, seed=p))
    assert emp.chi2_against(rd.walk_law(field, 20).probs)[2] > 1e-3


def test_simulate_samples_at_the_cap():
    field = build_field(2, Flavor.SYMPLECTIC)
    emp = simulate(SimConfig(field=field, k=20, samples=2**62, seed=3))
    assert emp.total == 2**62
    assert sum(int(c) for c in emp.counts) == 2**62


def test_simulate_chi2_grid_bounded_error_mode():
    """The --y walk fits its own k-step law at the 1e-3 level. y = 4 moves
    the coin far enough that the exact law is rejected at k = 20."""
    y = 4.0
    for p, flavor in SIX_PAIRS:
        field = build_field(p, flavor)
        for k in (1, 5, 20):
            emp = simulate(SimConfig(field=field, k=k, samples=1_000_000,
                                     seed=2000 + p, chebotarev_y=y))
            _, _, pvalue = emp.chi2_against(rd.walk_law(field, k, y=y).probs)
            assert pvalue > 1e-3, (p, flavor, k, pvalue)
        _, _, pvalue = emp.chi2_against(rd.walk_law(field, 20).probs)
        assert pvalue < 1e-3, (p, flavor, pvalue)


def test_simulate_chi2_pvalues_uniform_across_seeds():
    """Under the right law the chi2 p-values of independent runs are uniform,
    which one seeded run cannot show: 200 seeds per case, KS test at 1e-3."""
    for p, flavor, y in ((2, Flavor.SYMPLECTIC, None), (7, Flavor.UNITARY, 4.0)):
        field = build_field(p, flavor)
        law = rd.walk_law(field, 20, y=y).probs
        pvalues = [
            simulate(SimConfig(field=field, k=20, samples=20_000, seed=seed,
                               chebotarev_y=y)).chi2_against(law)[2]
            for seed in range(200)
        ]
        assert kstest(pvalues, "uniform").pvalue > 1e-3, (p, flavor, y)


def test_simulate_bounded_error_mode_stays_close():
    field = build_field(2, Flavor.SYMPLECTIC)
    emp = simulate(SimConfig(field=field, k=20, samples=200_000, seed=4,
                             chebotarev_y=1000.0))
    # the perturbation is mean-zero, so the walk stays near the exact law
    assert emp.tv_against(rd.walk_law(field, 20).probs) < 0.02


def test_sim_config_validation():
    field = build_field(2, Flavor.SYMPLECTIC)
    with pytest.raises(ValueError):
        SimConfig(field=field, samples=0)
    with pytest.raises(ValueError, match=r"samples must be <= 2\^62, got 4611686018427387905"):
        SimConfig(field=field, samples=2**62 + 1)
    with pytest.raises(ValueError):
        SimConfig(field=field, k=-1)
    with pytest.raises(ValueError, match="seed must be non-negative"):
        SimConfig(field=field, seed=-1)
    with pytest.raises(ValueError):
        SimConfig(field=field, chebotarev_y=0.0)
    for y in (math.nan, math.inf):
        with pytest.raises(ValueError, match="finite"):
            SimConfig(field=field, chebotarev_y=y)
    with pytest.raises(ValueError):
        ShiftMode("notfd", -1)
    with pytest.raises(ValueError):
        ShiftMode.parse("sideways")
    with pytest.raises(ValueError, match="r_gamma must be non-negative"):
        ShiftMode.parse("notfd:-1")
    with pytest.raises(ValueError, match="expected notfd:<int>"):
        ShiftMode.parse("notfd:two")


# ---------------------------------------------------------------------------
# strata counting
# ---------------------------------------------------------------------------

def brute_force_strata(norms, ladder, k, x):
    """Direct enumeration over sorted P1 norm tuples."""
    norms = sorted(int(v) for v in norms)
    thresholds = ladder.levels(x, k) if k else []
    from itertools import combinations

    count = 0
    for combo in combinations(norms, k):
        if all(combo[i] < thresholds[i] for i in range(k)):
            count += 1
    return count if k else 1


def test_strata_k0_is_one_over_d1():
    norms = p1_norms(200, 1.0, seed=0)
    ladder = FanLadder(2.0)
    d1 = strata_cardinality(norms, ladder, 1, 10.0)
    assert strata_cardinality(norms, ladder, 0, 10.0) == 1
    assert d1 == len([n for n in norms if n < 100])


def test_strata_matches_explicit_enumeration_small_universe():
    ladder = FanLadder(2.0)
    norms = p1_norms(300, 1.0, seed=0)
    for k in (1, 2, 3):
        fast = strata_cardinality(norms, ladder, k, 4.0)
        slow = brute_force_strata(norms, ladder, k, 4.0)
        assert fast == slow


def test_strata_ratio_matches_explicit_enumeration_x10():
    ladder = FanLadder(2.0)
    norms = p1_norms(10_000, 1.0, seed=0)
    d1 = brute_force_strata(norms, ladder, 1, 10.0)
    d2 = brute_force_strata(norms, ladder, 2, 10.0)
    assert strata_cardinality(norms, ladder, 1, 10.0) == d1
    assert strata_cardinality(norms, ladder, 2, 10.0) == d2


def test_strata_enumeration_with_partial_density():
    ladder = FanLadder(2.0)
    norms = p1_norms(5_000, 0.6, seed=12)
    assert strata_cardinality(norms, ladder, 2, 8.0) == brute_force_strata(
        norms, ladder, 2, 8.0
    )


def test_strata_ratio_decreases_under_doubling():
    ladder = FanLadder(2.0)
    norms = p1_norms(110_000, 1.0, seed=0)
    ratios = [
        strata_cardinality(norms, ladder, 0, x) / strata_cardinality(norms, ladder, 1, x)
        for x in (10.0, 20.0, 40.0, 80.0, 160.0, 320.0)
    ]
    for a, b in zip(ratios, ratios[1:]):
        assert b < a


def test_strata_cap_guard():
    norms = p1_norms(10_000, 1.0, seed=0)
    ladder = FanLadder(2.0)
    with pytest.raises(CapExceeded):
        strata_cardinality(norms, ladder, 3, 50.0, cap=1000)


def test_strata_rejects_cap_beyond_int64():
    # the DP counts in int64, so a cap of 2^63 or more cannot guard it
    norms = p1_norms(2000, 1.0, seed=0)
    with pytest.raises(ValueError, match="2\\^63"):
        strata_cardinality(norms, FanLadder(1.0), 15, 2000.0, cap=10**40)
    with pytest.raises(ValueError, match="2\\^63"):
        strata_cardinality(norms, FanLadder(1.0), 1, 2000.0, cap=2**63)
    assert strata_cardinality(norms, FanLadder(1.0), 1, 2000.0, cap=2**63 - 1) == 303
