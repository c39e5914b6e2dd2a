"""The k-step law of the rank walk is the corank law of a uniform random k x k
matrix: symmetric over F_p (sym) or hermitian over F_{p^2} (uni).

Bordering a matrix of corank c by a new column v and diagonal entry d drops
the corank to c - 1 unless v lies in the image (probability q^-c); then the
Schur complement keeps it (1 - 1/p) or raises it to c + 1 (1/p). Those are
the walk's exact transition probabilities, so three routes must agree: the
closed-form counts, the chain of markov_entry_exact, and an exhaustive
census of matrices reduced by spaces.rref (all three in tests/oracles.py).
rankdist.corank_law, the float running product simulate draws from with the
exact coin, and walk_law, the float walk, must both match it to rounding.
"""

import math
import sys
from fractions import Fraction

import numpy as np
import pytest

from twistrank import bounds
from twistrank import rankdist as rd
from twistrank.gf import Flavor, build_field

from oracles import (DOMAIN_PRIMES, FAR_PAIRS, census_law, chain_law, exact_corank_law,
                     exact_stationary_law, running_product)


@pytest.mark.parametrize("flavor", list(Flavor))
@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_corank_law_is_the_exact_chain(p, flavor):
    field = build_field(p, flavor)
    for k in range(11):
        law = exact_corank_law(field, k)
        assert sum(law) == 1
        assert law == chain_law(field, k), k


@pytest.mark.parametrize("flavor", list(Flavor))
@pytest.mark.parametrize("p", [2, 3, 5, 32749])
def test_walk_law_matches_the_corank_law(p, flavor):
    field = build_field(p, flavor)
    for k in (20, 60):
        law = rd.walk_law(field, k)
        exact = np.array([float(x) for x in exact_corank_law(field, k)])
        probs = np.pad(law, (0, k + 1 - len(law)))
        assert np.abs(probs - exact).max() <= 1e-14, k


@pytest.mark.parametrize("flavor", list(Flavor))
@pytest.mark.parametrize("p", [2, 3, 5, 7, 32749])
def test_walk_law_far_out_is_the_stationary_law(p, flavor):
    """The float form of the corank law: at large k every factor p^(k-i) - 1
    rounds to p^(k-i), and the law is D's product formula. So walk_law at
    k = 10^18, where it stops on a float fixed point, must be
    stationary_distribution to roundoff, with no stationary mass past its
    width."""
    field = build_field(p, flavor)
    law = rd.walk_law(field, 10**18)
    stationary = rd.stationary_distribution(field, 2 * len(law) + 64)
    assert 0.5 * np.abs(law - stationary[:len(law)]).sum() <= 1e-13
    assert not stationary[len(law):].any()


@pytest.mark.parametrize("p,flavor,k_max", [(2, Flavor.SYMPLECTIC, 3), (3, Flavor.SYMPLECTIC, 3),
                                            (5, Flavor.SYMPLECTIC, 2), (2, Flavor.UNITARY, 3)])
def test_corank_law_is_the_matrix_census(p, flavor, k_max):
    field = build_field(p, flavor)
    for k in range(k_max + 1):
        assert census_law(field, k) == exact_corank_law(field, k), k


@pytest.mark.parametrize("flavor", list(Flavor))
@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
def test_float_corank_law_is_the_exact_law(p, flavor):
    """rankdist.corank_law has the width of the Fraction law rounded to
    floats at every k < 64, and agrees with it at every normal rank within
    (k + 2) * 2^-52 relative and within 1.34e-15, the worst of the
    cumulative products it replaced (at p = 3 uni, k = 41, rank 21). Its
    own worst is 1.11e-15, at p = 2 sym, k = 30, rank 29, and 0.36 of the
    first bound, at p = 7 sym, k = 3. A subnormal rank is within one
    subnormal ulp (the worst, 0.94 of it, at p = 2 uni, k = 48, rank 32)."""
    field = build_field(p, flavor)
    for k in range(64):
        law = rd.corank_law(field, k).tolist()
        exact = exact_corank_law(field, k)
        assert len(law) == np.count_nonzero([float(x) for x in exact]), k
        bound = min(Fraction(k + 2, 2**52), Fraction(1.34e-15))
        for r, (got, want) in enumerate(zip(law, exact)):
            error = abs(Fraction(got) - want)
            if want >= sys.float_info.min:
                assert error <= bound * want, (k, r, float(error / want))
            else:
                assert error <= math.ulp(0.0), (k, r)


@pytest.mark.parametrize("flavor", list(Flavor))
@pytest.mark.parametrize("p", [2, 3, 5, 7, 32749])
def test_float_corank_law_is_the_walk(p, flavor):
    """The running product and the walk end at the same rank and agree to
    1e-13 at every k, 10^700 included; the largest gap, 9e-14 at (32749,
    sym, k = 10^18), is the walk's own drift at rank 0. From FAR_K on no
    (-1/p)^i term is left in the product, so the law no longer changes."""
    field = build_field(p, flavor)
    for k in (0, 1, 2, 5, 20, 60, 1000, 10**18, 10**700):
        law = rd.corank_law(field, k)
        walked = rd.walk_law(field, k)
        assert len(law) == len(walked), k
        assert np.abs(law - walked).max() <= 1e-13, k
    assert law.tobytes() == rd.corank_law(field, rd.FAR_K).tobytes()


@pytest.mark.parametrize("flavor", list(Flavor))
def test_float_corank_law_cures_the_walk_drift(flavor):
    """At p = 32749 the walk loses about an ulp of rank-0 mass per step
    until it repeats, 821 steps in for sym, so its k = 10^18 rank 0 is
    9e-14 below D(0). The running product's rank 0 is D(0) to 1e-16, checked
    against the exact stationary weights."""
    field = build_field(32749, flavor)
    d0 = 1 / sum(rd.stationary_weight_exact(field, r) for r in range(40))
    assert abs(Fraction(rd.corank_law(field, 10**18)[0]) - d0) <= Fraction(1, 10**16)
    if flavor is Flavor.SYMPLECTIC:
        assert abs(Fraction(rd.walk_law(field, 10**18)[0]) - d0) > Fraction(1, 10**14)


@pytest.mark.parametrize("p,flavor", FAR_PAIRS)
def test_far_corank_law_is_the_stationary_law(p, flavor):
    """At k = 10^18 corank_law is D's running product, the one float route
    to D, and matches the exact law: normal entries within 6e-16 relative
    (the worst, 5.9e-16, at p = 5 sym), and subnormal ones within one
    subnormal ulp (the worst, 0.82 of it, at p = 1009 sym)."""
    field = build_field(p, flavor)
    law = rd.corank_law(field, 10**18)
    exact = exact_stationary_law(field, len(law))
    for r, (got, want) in enumerate(zip(law.tolist(), exact)):
        error = abs(Fraction(got) - want)
        if want >= sys.float_info.min:
            assert error <= 6e-16 * want, (r, float(error / want))
        else:
            assert error <= math.ulp(0.0), r


def test_far_corank_law_is_d_bitwise_over_the_domain():
    """From FAR_K = 3 * CORANK_TERMS on, every (-1/p)^i term of corank_law
    is past inverse_powers' cut, so its law is D's running product bitwise,
    and it is stationary_distribution's non-zero prefix, for every field of
    the domain, at k = 10^700 too."""
    for p in DOMAIN_PRIMES:
        for flavor in Flavor:
            field = build_field(p, flavor)
            want = np.array(running_product(field, rd.leading_constant(field)))
            stationary = rd.stationary_distribution(field, rd.R_MAX_DEFAULT)
            padded = np.pad(want, (0, len(stationary) - len(want)))
            assert stationary.tobytes() == padded.tobytes(), (p, flavor)
            for k in (rd.FAR_K, 10**18, 10**700):
                assert rd.corank_law(field, k).tobytes() == want.tobytes(), (p, flavor, k)


@pytest.mark.parametrize("p,flavor", FAR_PAIRS)
def test_corank_law_tv_to_stationary_is_at_most_p_to_the_minus_k(p, flavor):
    """TV(P_k, D) <= max(p^-k, 1e-14) at every k < 200 and at k = 10^18; the
    largest ratio to the bound, 0.58, is at k = 0, p = 2 sym."""
    field = build_field(p, flavor)
    stationary = rd.stationary_distribution(field, 2 * rd.CORANK_TERMS)
    for k in [*range(200), 10**18]:
        law = rd.corank_law(field, k)
        gap = np.abs(np.pad(law, (0, len(stationary) - len(law))) - stationary)
        assert 0.5 * gap.sum() <= max(float(p) ** -k, 1e-14), k


@pytest.mark.parametrize("p", [3, 5, 13])
def test_float_corank_law_tends_to_the_fermat_bound(p):
    """The paper's Fermat application bounds the density of unsolvable
    twisted Fermat equations of degree p below by prod_{i>=1} (1 + p^-i)^-1.
    The rank-0 mass of the k x k symmetric corank law is
    prod_{odd j <= k} (1 - p^-j), and by Euler's identity
    prod (1 + x^i)^-1 = prod (1 - x^(2i-1)) it tends to that bound."""
    law = rd.corank_law(build_field(p, Flavor.SYMPLECTIC), 10**18)
    assert abs(law[0] - bounds.fermat_unsolvable_density(p)) <= 1e-15


def test_float_corank_law_rejects_negative_k():
    with pytest.raises(ValueError, match="k must be non-negative, got -1"):
        rd.corank_law(build_field(2, Flavor.SYMPLECTIC), -1)
