"""The reference computations of the tests, each defined once: the corank
counts of MacWilliams and Carlitz-Hodges (the finite-k Poonen-Rains law,
JAMS 25, 2012), the exact chain in rationals, the Frobenius-coin /
Kummer-line micro model, a census of matrices, the stratum DP over the
whole universe of places, and exact intervals of every printed digit.

From twistrank it imports only gf and spaces (checked by test_oracles.py).
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
from fractions import Fraction

from twistrank.gf import MAX_P, Flavor, build_field
from twistrank.spaces import (Subspace, evaluate_form, fiber_size, hyperbolic_plane,
                               isotropic_slopes, rref)

Q_POWER = {Flavor.SYMPLECTIC: 1, Flavor.UNITARY: 2}  # q = p^Q_POWER[flavor]

SMALL_PRIMES = (2, 3, 5, 7, 11, 13)
SIX_PAIRS = [(p, flavor) for p in SMALL_PRIMES for flavor in Flavor]
FAR_PAIRS = [(p, flavor) for p in (*SMALL_PRIMES, 101, 1009, 32749) for flavor in Flavor]


def primes_up_to(n: int) -> list[int]:
    """All primes <= n, ascending, by a sieve of Eratosthenes."""
    sieve = bytearray([1]) * (n + 1)
    sieve[:2] = b"\0\0"
    for i in range(2, math.isqrt(n) + 1):
        if sieve[i]:
            sieve[i * i :: i] = bytes(len(range(i * i, n + 1, i)))
    return [i for i, prime in enumerate(sieve) if prime]


# the advertised domain: every prime p <= 2^15, in both flavors (7 024 fields)
DOMAIN_PRIMES = primes_up_to(MAX_P)
DOMAIN_FIELDS = [(p, flavor) for p in DOMAIN_PRIMES for flavor in Flavor]
SPOT_PRIMES = [p for p in DOMAIN_PRIMES if p < 2000] + [3067, 32749]


def fields_q_le(limit: int) -> list:
    """Every field with q <= limit: F_p (sym) and F_{p^2} (uni)."""
    return [build_field(p, flavor) for p in primes_up_to(limit) for flavor in Flavor
            if p ** Q_POWER[flavor] <= limit]


def trunc4(value: float) -> float:
    """value truncated toward zero to 4 decimals, as the reference grid prints it."""
    return int(value * 10000) / 10000


def markov_entry_exact(field, r: int, s: int) -> Fraction:
    """The exact transition probability from rank r to rank s."""
    if r < 0 or s < 0:
        raise ValueError("ranks must be non-negative")
    q, p = field.q, field.p
    qr = Fraction(1, q**r)
    if s == r - 1:
        return 1 - qr
    if s == r:
        return (1 - Fraction(1, p)) * qr
    if s == r + 1:
        return qr / p
    return Fraction(0)


def markov_row_exact(field, r: int) -> dict[int, Fraction]:
    """The non-zero entries of row r of the transition operator."""
    entries = {s: markov_entry_exact(field, r, s) for s in range(max(0, r - 1), r + 2)}
    return {s: w for s, w in entries.items() if w}


def brute_force_isotropic_lines(space) -> set:
    """Every isotropic line of a plane, as the span of each isotropic non-zero vector."""
    elems = list(space.field.elements())
    return {Subspace(2, [v]) for v in itertools.product(elems, repeat=2)
            if any(v) and not evaluate_form(space, v, v)}


def micro_transition_law(field, r: int, n: int) -> dict[int, Fraction]:
    """Exhaustive one-step law of the micro model at rank r.

    The rank falls when the Frobenius coin fails, with probability
    1 - q^(-r). Otherwise the transverse line V is one of the p ramified
    lines of the hyperbolic plane (every isotropic line but the first,
    unramified one), and a character, one of p^(2n-1)(p-1) of order p^n,
    has its Kummer line in blocks of fiber_size: character f lands on
    ramified line f // fiber_size. The rank rises exactly when that line is
    V. The (character, V) pairs are counted as ints, over the integer
    slopes of the lines, and the result must equal the operator entries
    exactly.
    """
    if r < 0:
        raise ValueError("rank must be non-negative")
    ramified = isotropic_slopes(hyperbolic_plane(field))[1:]
    block = fiber_size(field.p, n)
    chars = range(len(ramified) * block)
    pairs = len(ramified) * len(chars)
    rises = sum(ramified.count(ramified[f // block]) for f in chars)
    coin = Fraction(1, field.q**r)
    law = {r - 1: 1 - coin, r: coin * Fraction(pairs - rises, pairs),
           r + 1: coin * Fraction(rises, pairs)}
    return {s: w for s, w in law.items() if w != 0}


def chain_law(field, k: int) -> list[Fraction]:
    """The law after k exact steps of the walk from rank 0: row 0 of P^k in
    Fractions, P's entries from markov_entry_exact. The one exact walk
    reference of the tests."""
    law = [Fraction(1)]
    for _ in range(k):
        nxt = [Fraction(0)] * (len(law) + 1)
        for r, mass in enumerate(law):
            for s in range(max(0, r - 1), r + 2):
                nxt[s] += mass * markov_entry_exact(field, r, s)
        law = nxt
    return law


def exact_corank_law(field, k: int) -> list[Fraction]:
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


def census_law(field, k: int) -> list[Fraction]:
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


def exact_stationary_law(field, width: int) -> list[Fraction]:
    """D(0..width-1) in rationals: D(r) is proportional to
    prod_{i=1..r} q^(1-epsilon)/(q^i - 1). The weights past width are left
    out of the total; where they are below the float range, as at the width
    of a float law, that moves no value by more than 1e-300 of itself."""
    q, up = field.q, field.q // field.p
    weights = [Fraction(1)]
    for r in range(1, width):
        weights.append(weights[-1] * Fraction(up, q**r - 1))
    total = sum(weights)
    return [w / total for w in weights]


def running_product(field, d0: float) -> list[float]:
    """D(0), D(1), ... up to its first 0.0, by the float running product
    D(r) = D(r-1) * q^(1-epsilon)/(q^r - 1) from D(0) = d0."""
    q, up = field.q, float(field.q // field.p)
    value, q_next, law = d0, 1, []
    while value:
        law.append(value)
        q_next *= q
        value *= up / (q_next - 1)
    return law


def strata(norms, levels) -> list[int]:
    """[|D_0|, ..., |D_len(levels)|] over the ascending norms, |D_m| the
    m-tuples of places whose i-th pick lies below levels[i - 1], by the DP in
    Python ints over the whole universe: counts[t] counts them among the
    first t places, and stays constant past the last place below level m."""
    counts, out = [1] * (len(norms) + 1), [1]
    for level in levels:
        below = bisect.bisect_left(norms, level)
        counts = [0, *itertools.accumulate(counts[:below])]
        counts += counts[-1:] * (len(norms) + 1 - len(counts))
        out.append(counts[-1])
    return out


TAIL_BITS = 112
GRID = 1 << 128  # every interval endpoint is an integer multiple of 1/GRID


def ceil_div(n: int, d: int) -> int:
    return -(-n // d)


@functools.cache
def closed_forms(p: int, flavor: Flavor) -> dict[str, tuple[int, int]]:
    """D(0), beta, the odd mass and E[rank] of one field, each as (lo, hi)
    with lo / GRID <= value <= hi / GRID.

    With t_i = 1/(p q^i), each product and series runs over the terms with
    t_i >= 2^-112 and bounds the rest: with S = sum_{i>=n} t_i <= 2 t_n, the
    tail of D(0) lies in [1, e^S] within [1, 1 + 4 t_n], that of beta in
    [1 - 4 t_n, 1] and that of E[rank] in [0, 2 t_n], so every interval is
    narrower than 2^-110. Its endpoints are rounded outward to integer
    multiples of 2^-128, which keeps the arithmetic in Python ints.
    """
    q = p ** Q_POWER[flavor]
    plus = minus = base = 1
    mean_lo = mean_hi = 0
    d = p  # 1 / t_i = p q^i
    while d <= 1 << TAIL_BITS:
        plus, minus, base = plus * (d + 1), minus * (d - 1), base * d
        mean_lo += GRID // (d + 1)
        mean_hi += ceil_div(GRID, d + 1)
        d *= q
    # the finite products are base / plus and minus / plus; their tails
    # divide by [1, 1 + 4/d] and multiply by [1 - 4/d, 1]
    return {
        "d0": (base * d * GRID // (plus * (d + 4)), ceil_div(base * GRID, plus)),
        "beta": (minus * (d - 4) * GRID // (plus * d), ceil_div(minus * GRID, plus)),
        "odd": ((plus - minus) * GRID // (2 * plus),
                ceil_div((plus * d - minus * (d - 4)) * GRID, 2 * plus * d)),
        "mean": (mean_lo, mean_hi + ceil_div(2 * GRID, d)),
    }


def dist_intervals(p: int, flavor: Flavor):
    """(lo, hi, den) for r = 0, 1, ... without end: D(r) lies in [lo / den,
    hi / den], as D(r) = D(0) prod_{i=1..r} q^(1-epsilon)/(q^i - 1)."""
    q = p ** Q_POWER[flavor]
    lo, hi = closed_forms(p, flavor)["d0"]
    num, den = 1, GRID
    for r in itertools.count(1):
        yield lo * num, hi * num, den
        num, den = num * (q // p), den * (q**r - 1)


def rounded(n: int, d: int) -> tuple[int, int] | None:
    """(m, e) with 10^11 <= m < 10^12 and m 10^e the 12-significant-digit
    rounding of n / d > 0; None where n / d is a midpoint between two of them."""
    e = (n.bit_length() - d.bit_length()) * 3 // 10 - 12
    while True:
        num, den = (n, d * 10**e) if e >= 0 else (n * 10**-e, d)
        if num < den * 10**11:
            e -= 1
        elif num >= den * 10**12:
            e += 1
        else:
            break
    m, rem = divmod(num, den)
    if 2 * rem == den:
        return None
    m += 2 * rem > den
    return (10**11, e + 1) if m == 10**12 else (m, e)


def text12(interval: tuple[int, int], den: int = GRID) -> str | None:
    """The `%.12g` text of every number in [lo / den, hi / den], or None where
    that holds a rounding boundary. A 12-digit decimal in the normal float
    range reads back from its nearest double unchanged."""
    lo, hi = (rounded(n, den) for n in interval)
    return f"{float(f'{lo[0]}e{lo[1]}'):.12g}" if lo is not None and lo == hi else None


def text_trunc4(interval: tuple[int, int]) -> str | None:
    """The 4-decimal truncation of every number in the interval, or None."""
    lo, hi = (n * 10_000 // GRID for n in interval)
    return f"{lo // 10_000}.{lo % 10_000:04d}" if lo == hi else None


def scale(interval: tuple[int, int], factor: int, shift: int = 0) -> tuple[int, int]:
    """factor * x + shift over the interval, factor > 0."""
    return tuple(factor * n + shift * GRID for n in interval)
