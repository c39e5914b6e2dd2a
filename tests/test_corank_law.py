"""The k-step law of the rank walk is the corank law of a uniform random k x k
matrix: symmetric over F_p (sym) or hermitian over F_{p^2} (uni).

Bordering a matrix of corank c by a new column v and diagonal entry d drops
the corank to c - 1 unless v lies in the image (probability q^-c); then the
Schur complement keeps it (1 - 1/p) or raises it to c + 1 (1/p). Those are
the walk's exact transition probabilities, so three routes must agree: the
closed-form counts below, the chain of markov_entry_exact, and an exhaustive
census of matrices reduced by spaces.rref. rankdist.corank_law, the float
closed form simulate draws from with the exact coin, and walk_law, the float
walk, must both match it to rounding.
"""

import itertools
import math
import sys
from fractions import Fraction

import numpy as np
import pytest

from twistrank import bounds
from twistrank import rankdist as rd
from twistrank.gf import Flavor, build_field
from twistrank.spaces import rref


def exact_corank_law(field, k):
    """P(corank = c) for c = 0..k, from the number of rank-rho matrices.

    sym, out of p^(k(k+1)/2) symmetric matrices (MacWilliams 1969):
        prod_{i=1}^{rho//2} p^(2i)/(p^(2i) - 1) * prod_{i=0}^{rho-1} (p^(k-i) - 1);
    uni, out of p^(k^2) hermitian matrices (after Carlitz-Hodges 1955): a
    radical, [k rho]_{p^2}, times the nonsingular rho x rho hermitian
    matrices, p^(rho(rho-1)/2) * prod_{i=1}^{rho} (p^i + (-1)^i).
    """
    p = field.p
    law = [Fraction(0)] * (k + 1)
    for rank in range(k + 1):
        if field.flavor is Flavor.SYMPLECTIC:
            count = Fraction(math.prod(p ** (k - i) - 1 for i in range(rank)))
            for i in range(1, rank // 2 + 1):
                count *= Fraction(p ** (2 * i), p ** (2 * i) - 1)
            total = p ** (k * (k + 1) // 2)
        else:
            q = p * p
            radicals = Fraction(math.prod(q ** (k - i) - 1 for i in range(rank)),
                                math.prod(q ** (i + 1) - 1 for i in range(rank)))
            count = radicals * p ** (rank * (rank - 1) // 2) * math.prod(
                p ** i + (-1) ** i for i in range(1, rank + 1))
            total = p ** (k * k)
        law[k - rank] = count / total
    return law


def chain_law(field, k):
    """The law after k exact steps of the walk from rank 0."""
    law = [Fraction(1)]
    for _ in range(k):
        nxt = [Fraction(0)] * (len(law) + 1)
        for r, mass in enumerate(law):
            for s in range(max(0, r - 1), r + 2):
                nxt[s] += mass * rd.markov_entry_exact(field, r, s)
        law = nxt
    return law


def census_law(field, k):
    """Corank frequencies over every symmetric (sym) or hermitian (uni)
    k x k matrix, each reduced by spaces.rref."""
    elems = list(field.elements())
    diagonal = [e for e in elems if e.conj() == e]
    upper = [(i, j) for i in range(k) for j in range(i + 1, k)]
    counts = [0] * (k + 1)
    for diag in itertools.product(diagonal, repeat=k):
        for off in itertools.product(elems, repeat=len(upper)):
            m = [[field.zero()] * k for _ in range(k)]
            for i, d in enumerate(diag):
                m[i][i] = d
            for (i, j), g in zip(upper, off):
                m[i][j] = g
                m[j][i] = g.conj() if field.flavor is Flavor.UNITARY else g
            counts[k - len(rref(m))] += 1
    total = sum(counts)
    return [Fraction(c, total) for c in counts]


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
@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_float_corank_law_is_the_exact_law(p, flavor):
    """rankdist.corank_law agrees with the Fraction law at every rank to
    (k + 2) * 2^-52 relative; the worst case here, (7, uni, k = 5, rank 0),
    takes under half of that budget."""
    field = build_field(p, flavor)
    for k in range(13):
        law = rd.corank_law(field, k)
        exact = exact_corank_law(field, k)
        assert len(law) == len(exact), k
        for r, (got, want) in enumerate(zip(law, exact)):
            error = abs(Fraction(got) - want) / want
            assert error <= Fraction(k + 2, 2**52), (k, r, float(error))


@pytest.mark.parametrize("flavor", list(Flavor))
@pytest.mark.parametrize("p", [2, 3, 5, 7, 32749])
def test_float_corank_law_is_the_walk(p, flavor):
    """The closed form and the walk end at the same rank and agree to 1e-13
    at every k, 10^700 included; the largest gap, 9e-14 at (32749, sym,
    k = 10^18), is the walk's own drift at rank 0. Past 3 * CORANK_TERMS no
    product of the closed form changes, so neither does its law."""
    field = build_field(p, flavor)
    for k in (0, 1, 2, 5, 20, 60, 1000, 10**18, 10**700):
        law = rd.corank_law(field, k)
        walked = rd.walk_law(field, k)
        assert len(law) == len(walked), k
        assert np.abs(law - walked).max() <= 1e-13, k
    assert law.tobytes() == rd.corank_law(field, 3 * rd.CORANK_TERMS).tobytes()


@pytest.mark.parametrize("flavor", list(Flavor))
def test_float_corank_law_cures_the_walk_drift(flavor):
    """At p = 32749 the walk loses about an ulp of rank-0 mass per step
    until it repeats, 821 steps in for sym, so its k = 10^18 rank 0 is
    9e-14 below D(0). The closed form's rank 0 is D(0) to 1e-16, checked
    against the exact stationary weights."""
    field = build_field(32749, flavor)
    d0 = 1 / sum(rd.stationary_weight_exact(field, r) for r in range(40))
    assert abs(Fraction(rd.corank_law(field, 10**18)[0]) - d0) <= Fraction(1, 10**16)
    if flavor is Flavor.SYMPLECTIC:
        assert abs(Fraction(rd.walk_law(field, 10**18)[0]) - d0) > Fraction(1, 10**14)


FAR_PAIRS = [(p, flavor) for p in (2, 3, 5, 7, 11, 13, 101, 1009, 32749) for flavor in Flavor]


@pytest.mark.parametrize("p,flavor", FAR_PAIRS)
def test_far_corank_law_is_the_stationary_law(p, flavor):
    """At k = 10^18 the closed form's products are D's product formula to
    rounding, so the two float routes to D certify each other: the same
    width, normal entries within 1.1e-15 relative (the worst, 1.02e-15, at
    p = 7 uni) and subnormal ones within one subnormal ulp (rank 14 at
    p = 1009 sym, 1.3e-8 relative but 5e-324 absolute)."""
    field = build_field(p, flavor)
    law = rd.corank_law(field, 10**18)
    stationary = rd.stationary_distribution(field, 2 * rd.CORANK_TERMS)
    assert np.flatnonzero(stationary)[-1] + 1 == len(law)
    for r, (got, want) in enumerate(zip(law.tolist(), stationary.tolist())):
        if want >= sys.float_info.min:
            assert abs(got - want) <= 1.1e-15 * want, (r, abs(got - want) / want)
        else:
            assert abs(got - want) <= math.ulp(0.0), r


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
