import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from scipy.special import chdtrc
from scipy.stats import chi2, kstest

from twistrank import rankdist as rd
from twistrank.gf import Flavor, build_field, is_prime
from twistrank.twistsim import (
    CHI2_MIN_EXPECTED,
    MAX_LADDER_DEPTH,
    EmpiricalDistribution,
    FanLadder,
    SimConfig,
    build_place_model,
    count_places,
    primes_up_to,
    simulate,
    strata_cardinality,
    strata_from_counts,
)

from oracles import SIX_PAIRS, chain_law, markov_row_exact, micro_transition_law, strata


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


def test_primes_up_to_matches_trial_division():
    """The odd-only sieve returns exactly the primes <= x, as int64."""
    expected = [n for n in range(2001) if is_prime(n)]
    for x in range(2001):
        primes = primes_up_to(x)
        assert primes.dtype == np.int64
        assert primes.tolist() == [n for n in expected if n <= x], x
    assert [primes_up_to(x).tolist() for x in range(5)] == [[], [], [2], [2, 3], [2, 3]]


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


@pytest.mark.parametrize("density", [1.0, 0.5, 0.13])
@pytest.mark.parametrize("seed", [0, 7, 1026163220])
def test_count_places_matches_the_listed_places(density, seed):
    """count_places gives len(build_place_model(...)) and its searchsorted
    counts: the same coins, the same strict < at a level equal to a prime,
    levels between integers, levels past int(x), and x in [2, 3)."""
    for x in (2.0, 2.5, 2.999, 3.0, 10.0, 31.6, 97.0, 1000.0, 7919.5):
        norms = build_place_model(x, density, seed)
        levels = [1.0, 1.5, 2.0, 2.5, 3.0, 4.0, 7.0, 7.5, 31.6, 97.0, 97.0, 100.0,
                  x - 0.25, x, x + 1, 2 * x, 1e300, math.inf]
        levels = sorted(level for level in levels if level >= 1)
        assert count_places(x, levels, density, seed) == (
            len(norms), np.searchsorted(norms, levels).tolist()), (x, density, seed)


def test_count_places_at_density_one_draws_no_coins(monkeypatch):
    """At density 1 every coin lands, so neither route builds a generator."""
    expected = len(primes_up_to(1000)), [4, 25, 168]

    def refuse(*args, **kwargs):
        raise AssertionError("a coin was drawn at density 1")

    monkeypatch.setattr(np.random, "default_rng", refuse)
    assert count_places(1000, [10, 100, 1000.5], 1.0, seed=5) == expected
    assert build_place_model(1000, 1.0, seed=5).tolist() == primes_up_to(1000).tolist()
    with pytest.raises(AssertionError, match="a coin was drawn"):
        count_places(1000, [10], 0.5, seed=5)


def test_count_places_validation():
    with pytest.raises(ValueError, match="the place model needs x >= 2, got 1.5"):
        count_places(1.5, [], 1.0, seed=0)
    with pytest.raises(ValueError, match=r"density must lie in \(0, 1\]"):
        count_places(10, [], 0.0, seed=0)
    with pytest.raises(ValueError, match="seed must be non-negative"):
        count_places(10, [], 1.0, seed=-1)


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


def test_ladder_depth_bounded_before_any_level_is_built():
    ladder = FanLadder(2.0)
    for depth in (MAX_LADDER_DEPTH + 1, 10**30):
        with pytest.raises(ValueError, match=f"^depth must be <= {MAX_LADDER_DEPTH}, got {depth}$"):
            ladder.levels(10, depth)
    # x is checked first, as before the bound
    with pytest.raises(ValueError, match="x must be finite and >= 1"):
        ladder.levels(math.nan, 10**30)


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
    law = rd.walk_law(field, 2)
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
    law = rd.walk_law(field, 2, y=y)
    for r in (1, 2):
        assert_within_three_sigma(walk_counts(field, 2, n, seed=100 + r, y=y), law)
    # at y = 50 the coin is exact below rank 6; at y = 2 coin(2) moves from
    # 0.25 to 0.28125, which shifts the k = 3 law by up to 0.0039 (8 sigma)
    counts = walk_counts(field, 3, n, seed=103, y=2.0)
    assert_within_three_sigma(counts, rd.walk_law(field, 3, y=2.0))
    with pytest.raises(AssertionError):
        assert_within_three_sigma(counts, rd.walk_law(field, 3))


def test_micro_law_exact_equivalence_with_operator():
    """Exhaustive (coin, line, character) enumeration reproduces the
    transition operator exactly, for every order exponent n, and at n = 1
    up to p = 47."""
    for p in (2, 3, 5, 7, 11, 13, 47):
        for flavor in Flavor:
            field = build_field(p, flavor)
            for n in (1, 2) if p <= 5 else (1,):
                for r in range(4):
                    law = micro_transition_law(field, r, n)
                    assert law == markov_row_exact(field, r)
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
    shifted = simulate(SimConfig(field=field, k=6, samples=30_000, seed=9, shift=2))
    assert np.array_equal(shifted.counts[2:], plain.counts)
    assert shifted.counts[:2].sum() == 0


def test_simulate_fd_mode_offsets_by_one():
    field = build_field(2, Flavor.SYMPLECTIC)
    emp = simulate(SimConfig(field=field, k=6, samples=30_000, seed=9, shift=1))
    assert emp.counts[0] == 0
    plain = simulate(SimConfig(field=field, k=6, samples=30_000, seed=9))
    assert np.array_equal(emp.counts[1:], plain.counts)


def test_simulate_reference_law(samples=1_000_000):
    field = build_field(2, Flavor.SYMPLECTIC)
    emp = simulate(SimConfig(field=field, k=20, samples=samples, seed=42))
    assert emp.tv_against(rd.walk_law(field, 20)) < 0.01


def test_simulate_chi2_grid_does_not_reject():
    """Goodness of fit against the k-step law at the 1e-3 level."""
    for p, flavor in SIX_PAIRS:
        field = build_field(p, flavor)
        for k in (1, 5, 20):
            emp = simulate(SimConfig(field=field, k=k, samples=1_000_000,
                                     seed=1000 + p))
            _, _, pvalue = emp.chi2_against(rd.walk_law(field, k))
            assert pvalue > 1e-3, (p, flavor, k, pvalue)


@pytest.mark.parametrize("p,flavor", [(2, Flavor.SYMPLECTIC), (3, Flavor.UNITARY)])
def test_simulate_chi2_at_a_trillion_samples(p, flavor):
    """At 10^12 samples the chi2 resolves relative errors of about 1e-6 in
    the commonest ranks, so it tests that the one top-down draw reproduces
    walk_law that closely, at the same 1e-3 level."""
    field = build_field(p, flavor)
    emp = simulate(SimConfig(field=field, k=20, samples=10**12, seed=p))
    assert emp.chi2_against(rd.walk_law(field, 20))[2] > 1e-3


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
            _, _, pvalue = emp.chi2_against(rd.walk_law(field, k, y=y))
            assert pvalue > 1e-3, (p, flavor, k, pvalue)
        _, _, pvalue = emp.chi2_against(rd.walk_law(field, 20))
        assert pvalue < 1e-3, (p, flavor, pvalue)


def test_simulate_chi2_pvalues_uniform_across_seeds():
    """Under the right law the chi2 p-values of independent runs are uniform,
    which one seeded run cannot show: 200 seeds per case, KS test at 1e-3.
    Each sample is one draw from the k-step law, tested against walk_law,
    which is that law (with y) or agrees with it to 1e-13 (exact coin)."""
    for p, flavor, k, y in ((2, Flavor.SYMPLECTIC, 20, None), (7, Flavor.UNITARY, 20, 4.0),
                            (2, Flavor.SYMPLECTIC, 1000, None), (3, Flavor.UNITARY, 20, 50.0)):
        field = build_field(p, flavor)
        law = rd.walk_law(field, k, y=y)
        pvalues = [
            simulate(SimConfig(field=field, k=k, samples=20_000, seed=seed,
                               chebotarev_y=y)).chi2_against(law)[2]
            for seed in range(200)
        ]
        assert kstest(pvalues, "uniform").pvalue > 1e-3, (p, flavor, k, y)


TOP_OF_DOMAIN = pytest.mark.parametrize("flavor, y", [
    (Flavor.SYMPLECTIC, None), (Flavor.SYMPLECTIC, 0.5), (Flavor.UNITARY, 0.3),
], ids=["sym-exact", "sym-y0.5", "uni-y0.3"])


def k_step_law(field, k, y):
    """The law simulate draws from: corank_law with the exact coin,
    the walk with the bounded-error coin."""
    return rd.corank_law(field, k) if y is None else rd.walk_law(field, k, y=y)


@TOP_OF_DOMAIN
def test_leak_guard_holds_at_the_top_of_the_domain(flavor, y):
    """At k = 10^18 and 2^62 samples simulate draws from the k-step law,
    which truncates nothing, so no sample can leave it. The reference is
    that law bitwise at every rank >= 1, and at rank 0 the remainder the
    draw gives its last column."""
    field = build_field(2, flavor)
    law = k_step_law(field, 10**18, y)
    emp = simulate(SimConfig(field=field, k=10**18, samples=2**62, seed=1, chebotarev_y=y))
    assert emp.reference[1:].tobytes() == law[1:].tobytes()
    assert emp.reference[0] == 1.0 - law[1:].sum()
    assert emp.chi2_against(emp.reference)[2] > 1e-3


def test_simulate_reference_sums_to_one_where_walk_law_drifts():
    """At p = 32749 uni, y = 1e6, walk_law loses about an ulp of rank 0 per
    step until it repeats, so its k = 10^18 law sums to 1 - 1.3e-12. The
    draw gives rank 0 whatever the higher ranks leave, and so does the
    reference, which therefore sums to 1."""
    field = build_field(32749, Flavor.UNITARY)
    assert abs(rd.walk_law(field, 10**18, y=1e6).sum() - 1) > 1e-12
    emp = simulate(SimConfig(field=field, k=10**18, samples=2**62, seed=1, chebotarev_y=1e6))
    assert abs(emp.reference.sum() - 1) <= 1e-15


@TOP_OF_DOMAIN
def test_leak_guard_fires_past_the_certified_depth(flavor, y):
    """Past the depth where a truncated law stopped being certified at 2^62
    samples (k = 10^300 here), the k-step law drops nothing, so there is no
    leaked mass for a guard to fire on: simulate answers. With y, past the
    step where walk_law repeats, a run depends on k only through its phase
    in the cycle, and each law here is a fixed point; corank_law, for the
    exact coin, is the same law at every k >= FAR_K. So
    k = 10^300 and k = 10^700 draw the k = 10^18 counts from the k = 10^18
    law."""
    field = build_field(2, flavor)
    runs = [simulate(SimConfig(field=field, k=k, samples=2**62, seed=1, chebotarev_y=y))
            for k in (10**18, 10**300, 10**700)]
    for far in runs[1:]:
        np.testing.assert_array_equal(far.counts, runs[0].counts)
        assert far.reference.tobytes() == runs[0].reference.tobytes()
        assert far.counts.sum() == 2**62


def test_walk_law_small_k_drops_no_rank():
    """Below the depth where any rank's mass underflows to 0, walk_law
    spans every rank 0..k."""
    for p in (2, 3, 5):
        for flavor in Flavor:
            field = build_field(p, flavor)
            for k in range(16):
                law = rd.walk_law(field, k)
                assert len(law) == k + 1, (p, flavor, k)


def test_walk_law_certified_by_exact_rationals():
    """walk_law, which simulate draws from with y, agrees with the exact
    k-step law at every rank to k * 2^-52 relative, a budget of two
    roundings of 2^-53 per step. The worst case here, (5, sym, k = 12,
    rank 9), is 1.004e-15, under half of that budget."""
    for p in (2, 3, 5):
        for flavor in Flavor:
            field = build_field(p, flavor)
            for k in range(13):
                exact = chain_law(field, k)
                law = rd.walk_law(field, k)
                assert len(law) == len(exact), (p, flavor, k)
                for r, (got, want) in enumerate(zip(law, exact)):
                    error = abs(Fraction(got) - want) / want
                    assert error <= Fraction(k, 2**52), (p, flavor, k, r, float(error))


DRAW_CASES = [(0, 1, 0, None), (5, 20_000, 1, None), (20, 2**62, 3, 0.5),
              (10**18, 4096, 0, 50.0)]


# the shift part of each id is the case's index
@pytest.mark.parametrize("k, samples, shift, y", DRAW_CASES,
                         ids=[f"{k}-{samples}-shift{i}-{y}"
                              for i, (k, samples, _, y) in enumerate(DRAW_CASES)])
def test_simulate_is_one_multinomial_draw(k, samples, shift, y):
    """simulate is a single Multinomial(samples, law) draw on the (seed, 0)
    stream from the unshifted k-step law (corank_law with the exact coin,
    walk_law with y), columns taken from the top rank downward, and it
    returns that law, shifted like the counts, with rank 0 the remainder
    its last column gets."""
    config = SimConfig(field=build_field(3, Flavor.UNITARY), k=k, samples=samples, seed=9,
                       shift=shift, chebotarev_y=y)
    law = k_step_law(config.field, k, y)
    rng = np.random.default_rng(np.random.SeedSequence(config.seed, spawn_key=(0,)))
    draw = rng.multinomial(samples, law[::-1])[::-1]
    emp = simulate(config)
    zeros = np.zeros(shift, dtype=np.int64)
    np.testing.assert_array_equal(emp.counts, np.concatenate([zeros, draw]))
    drawn = np.concatenate([[1.0 - law[1:].sum()], law[1:]])
    assert emp.reference.tobytes() == np.concatenate([zeros, drawn]).tobytes()


def pooled_by_loop(observed, expected):
    """The bin pooling chi2_against did one bin at a time."""
    while len(expected) > 2 and expected[-1] < CHI2_MIN_EXPECTED:
        expected[-2] += expected[-1]
        observed[-2] += observed[-1]
        expected, observed = expected[:-1], observed[:-1]
    return observed, expected


def test_chi2_pooling_is_bitwise_the_one_bin_loop():
    rng = np.random.default_rng(8)
    for trial in range(400):
        n = int(rng.integers(1, 30))
        counts = rng.integers(0, [1, 50, 10**6, 2**40][trial % 4], n) + (np.arange(n) == 0)
        law = rng.random(n) ** rng.uniform(1, 40)
        law /= law.sum()
        emp = EmpiricalDistribution(counts=counts, total=int(counts.sum()), reference=law)
        stat, dof, _ = emp.chi2_against(law)
        observed, expected = pooled_by_loop(counts.astype(float), law * emp.total)
        want = float(((observed - expected) ** 2 / expected).sum())
        assert (stat, dof) == (want, len(expected) - 1)


def test_chi2_pvalue_is_chi2_sf_bitwise():
    # chi2_against calls the ufunc scipy.stats.chi2.sf evaluates, without its
    # argument checks; every p-value it prints must be the same float
    dof = np.arange(1, 400)[:, None]
    x = np.concatenate([[0.0, 5e-324, 1e-300, 1e-8, 0.5], np.linspace(1, 1000, 400),
                        [1500.0, 3000.0, 1e4, 1e6, 1e308, np.inf]])
    assert chdtrc(dof, x).tobytes() == chi2.sf(x, dof).tobytes()
    rng = np.random.default_rng(9)
    for _ in range(200):
        n = int(rng.integers(2, 40))
        counts = rng.integers(0, 10**int(rng.integers(1, 9)), n) + (np.arange(n) == 0)
        law = rng.random(n) ** rng.uniform(1, 40)
        law /= law.sum()
        emp = EmpiricalDistribution(counts=counts, total=int(counts.sum()), reference=law)
        stat, dof, pvalue = emp.chi2_against(law)
        assert pvalue == float(chi2.sf(stat, dof))


def test_simulate_bounded_error_mode_stays_close():
    field = build_field(2, Flavor.SYMPLECTIC)
    emp = simulate(SimConfig(field=field, k=20, samples=200_000, seed=4,
                             chebotarev_y=1000.0))
    # the perturbation is mean-zero, so the walk stays near the exact law
    assert emp.tv_against(rd.walk_law(field, 20)) < 0.02


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
    with pytest.raises(ValueError, match="shift must be non-negative"):
        SimConfig(field=field, shift=-1)
    # keyword-only, so an old positional (field, n, k, ...) call cannot read n as k
    with pytest.raises(TypeError):
        SimConfig(field, 1, 3)


# ---------------------------------------------------------------------------
# strata counting
# ---------------------------------------------------------------------------

def brute_force_strata(norms, ladder, k, x):
    """Direct enumeration over sorted P1 norm tuples."""
    norms = sorted(int(v) for v in norms)
    thresholds = ladder.levels(x, k) if k else []
    count = 0
    for combo in itertools.combinations(norms, k):
        if all(combo[i] < thresholds[i] for i in range(k)):
            count += 1
    return count if k else 1


def test_strata_k0_is_one_over_d1():
    norms = p1_norms(200, 1.0, seed=0)
    ladder = FanLadder(2.0)
    d0, d1 = strata_cardinality(norms, ladder, 0, 10.0)
    assert d0 == 1
    assert d1 == len([n for n in norms if n < 100])


def test_strata_matches_explicit_enumeration_small_universe():
    ladder = FanLadder(2.0)
    norms = p1_norms(300, 1.0, seed=0)
    slow = [brute_force_strata(norms, ladder, k, 4.0) for k in range(5)]
    for k in (1, 2, 3):
        assert strata_cardinality(norms, ladder, k, 4.0) == (slow[k], slow[k + 1])


def test_strata_ratio_matches_explicit_enumeration_x10():
    ladder = FanLadder(2.0)
    norms = p1_norms(10_000, 1.0, seed=0)
    d1 = brute_force_strata(norms, ladder, 1, 10.0)
    d2 = brute_force_strata(norms, ladder, 2, 10.0)
    assert strata_cardinality(norms, ladder, 1, 10.0) == (d1, d2)


def test_strata_enumeration_with_partial_density():
    ladder = FanLadder(2.0)
    norms = p1_norms(5_000, 0.6, seed=12)
    assert strata_cardinality(norms, ladder, 2, 8.0)[0] == brute_force_strata(
        norms, ladder, 2, 8.0
    )


def test_strata_ratio_decreases_under_doubling():
    ladder = FanLadder(2.0)
    norms = p1_norms(110_000, 1.0, seed=0)
    ratios = [
        d0 / d1 for d0, d1 in (strata_cardinality(norms, ladder, 0, x)
                               for x in (10.0, 20.0, 40.0, 80.0, 160.0, 320.0))
    ]
    for a, b in zip(ratios, ratios[1:]):
        assert b < a


def test_strata_count_past_the_ladder_depth_bound():
    # the count walks its k thresholds without the bound on printed levels;
    # here every threshold is at least 10^6, so the one k-tuple of all places
    # counts, and no (k + 1)-tuple exists
    k = MAX_LADDER_DEPTH + 1
    assert strata_cardinality(np.arange(2, 2 + k), FanLadder(1.0), k, 1e6) == (1, 0)


def test_strata_counts_past_the_int64_range():
    # every threshold is at least 10^6, above every norm, so |D_m| = C(1000, m);
    # C(1000, 6) > 10^15 and C(1000, 7) < 2^63 <= C(1000, 8). The counts are
    # Python ints, so every k answers exactly
    norms = np.arange(2, 1002)
    ladder = FanLadder(1.0)
    assert strata_cardinality(norms, ladder, 6, 1e6) == (math.comb(1000, 6), math.comb(1000, 7))
    assert strata_cardinality(norms, ladder, 7, 1e6) == (math.comb(1000, 7), math.comb(1000, 8))
    assert strata_cardinality(norms, ladder, 8, 1e6) == (math.comb(1000, 8), math.comb(1000, 9))
    assert strata_cardinality(norms, ladder, 998, 1e6) == (math.comb(1000, 2), 1000)
    assert strata_cardinality(p1_norms(2000, 1.0, seed=0), ladder, 1, 2000.0)[0] == 303


@pytest.mark.parametrize("norms, exponent, x, k, count", [
    # L_1(3) = 9 and L_2(3) = 81 are norms, and a place must lie strictly below
    ([2, 3, 5, 7, 9, 11, 81, 83], 2.0, 3.0, 1, 4),
    ([2, 3, 5, 7, 9, 11, 81, 83], 2.0, 3.0, 2, 14),
    # more picks than places
    ([2, 3, 5], 2.0, 10.0, 4, 0),
    # at x = 1 every level is 1, under every norm
    ([2, 3, 5, 7], 2.0, 1.0, 2, 0),
    # L_1(2) = 2^400 and every later level saturates to inf: all C(6, 3)
    ([2, 3, 5, 7, 11, 13], 400.0, 2.0, 3, 20),
], ids=["on-threshold-k1", "on-threshold-k2", "k-past-places", "x-1", "inf-levels"])
def test_strata_edge_cases_match_enumeration(norms, exponent, x, k, count):
    ladder = FanLadder(exponent)
    assert brute_force_strata(norms, ladder, k, x) == count
    assert strata_cardinality(np.array(norms), ladder, k, x) == (
        count, brute_force_strata(norms, ladder, k + 1, x))


def test_strata_prefix_dp_matches_enumeration_on_random_universes():
    rng = np.random.default_rng(20)
    for _ in range(300):
        ladder = FanLadder(float(rng.choice([1.0, 1.5, 2.0, 400.0])))
        x = float(rng.choice([1.0, 2.0, 3.0, 4.5, 10.0]))
        # every finite integral level below 120 is a norm, on its threshold
        on_threshold = [int(t) for t in ladder.levels(x, 6) if t < 120 and t == int(t)]
        picked = rng.choice(np.arange(2, 120), size=rng.integers(0, 11), replace=False)
        norms = np.unique(np.concatenate([picked, on_threshold]).astype(np.int64))
        k = int(rng.integers(0, len(norms) + 3))
        assert strata_cardinality(norms, ladder, k, x) == (
            brute_force_strata(norms, ladder, k, x),
            brute_force_strata(norms, ladder, k + 1, x)), (norms.tolist(), ladder, x, k)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_strata_prefix_dp_matches_the_full_array_dp(seed):
    norms = p1_norms(10**6, 0.5, seed)
    for exponent, x in ((1.0, 10.0), (1.0, 100.0), (1.5, 20.0), (2.0, 7.0)):
        ladder = FanLadder(exponent)
        want = strata(norms, ladder.levels(x, 4))
        for k in range(4):
            assert strata_cardinality(norms, ladder, k, x) == tuple(want[k:k + 2]), (
                exponent, x, k)


def test_strata_top_level_matches_the_full_array_dp():
    """The (k + 1)-th count is closed-form past the DP's last level; it
    equals the whole-universe DP's level k + 1, also where the middle levels
    are past 2^63 (k = 998 over 1000 places)."""
    cases = [(np.arange(2, 1002), FanLadder(1.0), 1e6, (0, 1, 6, 998, 999, 1000, 1001))]
    norms = p1_norms(10**6, 0.5, seed=3)
    cases += [(norms, FanLadder(exponent), x, range(4))
              for exponent, x in ((1.0, 10.0), (1.0, 100.0), (1.5, 20.0), (2.0, 7.0))]
    for norms, ladder, x, ks in cases:
        n = len(norms)
        usable = np.searchsorted(norms, list(itertools.islice(ladder.iter_levels(x),
                                                              min(max(ks) + 1, n)))).tolist()
        want = strata(norms, ladder.levels(x, max(ks) + 1))
        for k in ks:
            assert strata_from_counts(usable, n, k) == tuple(want[k:k + 2]), (ladder, x, k)


@pytest.mark.parametrize("k", [0, 1, 3])
def test_strata_rejects_unsorted_norms(k):
    with pytest.raises(ValueError, match="p1_norms must ascend"):
        strata_cardinality(np.array([2, 5, 3, 7]), FanLadder(2.0), k, 10.0)
