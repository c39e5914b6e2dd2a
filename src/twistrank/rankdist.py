"""Symplectic/unitary rank distributions and the rank-transition chain.

Everything here exploits the identity q^epsilon = p, valid in both
flavors (q = p, epsilon = 1 and q = p^2, epsilon = 1/2), so q^(i+epsilon)
and q^(1-epsilon) are always exact integers.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from fractions import Fraction

import numpy as np

from .gf import FieldParams, Flavor

R_MAX_DEFAULT = 64

# p^64 > p * 2^60 for every p, so from i = 64 on each (-1/p)^i of corank_law
# is past inverse_powers' cut and left out, and its factor is 1
CORANK_TERMS = 64
# from this k on, corank_law is D bitwise: no (-1/p)^i term is left
FAR_K = 3 * CORANK_TERMS


def inverse_powers(field: FieldParams, start: int = 0) -> list[float]:
    """t_i = q^(-i-epsilon) for i >= start, up to the last not below 2^-60 of
    the first. Each later term is at most 1/q of the one before, so the
    terms left out add less than 2^-59 of the first to any series of them
    here. Every closed form below is a math.fsum over this list."""
    q = field.q
    d = field.p * q**start  # q^(i+epsilon), an exact int
    last = d << 60
    terms = []
    while d <= last:
        terms.append(1.0 / d)
        d *= q
    return terms


def leading_constant(field: FieldParams, tail: Sequence[float] = ()) -> float:
    """prod_{i>=0} (1 + t_i)^(-1), the mass at rank 0, times (1 + x)^(-1)
    for each x of tail, all in one fsum."""
    return math.exp(-math.fsum(map(math.log1p, [*inverse_powers(field), *tail])))


def stationary_distribution(field: FieldParams, r_max: int = R_MAX_DEFAULT) -> np.ndarray:
    """D(0..r_max): corank_law at FAR_K, zero-padded or cut to r_max + 1 ranks."""
    if r_max < 0:
        raise ValueError("r_max must be non-negative")
    law = corank_law(field, FAR_K)[: r_max + 1]
    probs = np.zeros(r_max + 1)
    probs[: len(law)] = law
    return probs


def dist_value(field: FieldParams, r: int) -> float:
    """Probability of rank r under the stationary distribution."""
    if r < 0:
        raise ValueError("rank must be non-negative")
    law = corank_law(field, FAR_K)
    return float(law[r]) if r < len(law) else 0.0


def expected_rank(field: FieldParams) -> float:
    """sum_{i>=0} t_i/(1 + t_i) = sum_{i>=0} 1/(1 + q^(i+epsilon))."""
    return math.fsum(t / (1.0 + t) for t in inverse_powers(field))


def qr_moment(field: FieldParams) -> float:
    """The q^r-moment in closed form: 1 + q^(1-epsilon)."""
    return 1.0 + field.q // field.p


def qr_moment_by_series(field: FieldParams) -> float:
    """The q^r-moment by direct summation of q^r * D(r) over D's non-zero prefix."""
    q = float(field.q)
    total = 0.0
    # a plain loop, since sum() compensates its float additions from Python 3.12 on
    for r, dr in enumerate(corank_law(field, FAR_K).tolist()):
        total += q**r * dr
    return total


def log_beta(field: FieldParams) -> float:
    """log beta = sum_{i>=0} log((1 - t_i)/(1 + t_i)) = -2 sum_{i>=0} atanh(t_i)."""
    return -2.0 * math.fsum(map(math.atanh, inverse_powers(field)))


def beta(field: FieldParams) -> float:
    """prod_{i>=0} (1 - t_i)/(1 + t_i)."""
    return math.exp(log_beta(field))


def odd_mass(field: FieldParams) -> float:
    """Total mass on odd ranks, (1 - beta)/2, without subtracting beta from 1."""
    return -math.expm1(log_beta(field)) / 2.0


def stationary_weight_exact(field: FieldParams, r: int) -> Fraction:
    """Unnormalized stationary weight prod_{i=1..r} q^(1-epsilon)/(q^i - 1)."""
    q = field.q
    up = q // field.p
    w = Fraction(1)
    for i in range(1, r + 1):
        w *= Fraction(up, q**i - 1)
    return w


def _ramp(a: np.ndarray, h: float) -> np.ndarray:
    """E[max(a + h*U, 0)] for U uniform on [-1, 1]."""
    return np.where(a >= h, a, np.where(a <= -h, 0.0, (a + h) ** 2 / (4.0 * h)))


def coin_table(field: FieldParams, n_ranks: int, y: float | None = None) -> np.ndarray:
    """Probability of the Frobenius coin (the rank does not fall) at ranks
    0..n_ranks-1.

    The coin is q^(-r), which underflows to 0.0 harmlessly at high ranks.
    With finite y every coin is perturbed by its own fresh U/y, U uniform
    on [-1, 1], and clipped to [0, 1]; since no perturbation is reused,
    the table holds the marginal E[clip(q^(-r) + U/y, 0, 1)], which is
    exact in law. At rank 0 the coin always lands, so no walk goes below 0.
    """
    coin = np.power(float(field.q), -np.arange(n_ranks, dtype=np.float64))
    if y is not None:
        if not (math.isfinite(y) and y > 0):
            raise ValueError(f"y must be positive and finite, got {y!r}")
        if y <= 1:
            # c + U/y covers all of [0, 1], so the clipped mean is linear in c
            coin = 0.5 + (coin - 0.5) * (y / 2.0)
        else:
            # clip(x, 0, 1) = x - max(x - 1, 0) + max(-x, 0), and U is symmetric
            h = 1.0 / y
            coin = coin - _ramp(coin - 1.0, h) + _ramp(-coin, h)
    coin[0] = 1.0
    return coin


def _step_coefficients(coin: np.ndarray, p: int):
    """Per-rank (down, stay, up) probabilities: the coin fails, or it lands
    and the character's Kummer line matches the transverse line (1/p) or not."""
    return 1.0 - coin, (1.0 - 1.0 / p) * coin, coin / p


def _step(down: np.ndarray, stay: np.ndarray, up: np.ndarray) -> np.ndarray:
    """Mass per rank after one step of the tridiagonal chain, given the mass
    each rank sends down, keeps and sends up (probabilities or sample
    counts); what the top rank sends upward is not kept. stay is updated in
    place and returned."""
    stay[:-1] += down[1:]
    stay[1:] += up[:-1]
    return stay


def apply(field: FieldParams, probs: np.ndarray) -> np.ndarray:
    """The law over ranks 0..len(probs)-1 after one step of the chain from
    probs; the mass the top rank sends up is dropped."""
    down, stay, up = _step_coefficients(coin_table(field, len(probs)), field.p)
    return _step(probs * down, probs * stay, probs * up)


def walk_law(field: FieldParams, k: int, *, y: float | None = None) -> np.ndarray:
    """Law of the rank after k steps of the walk from rank 0, over ranks
    0..W-1 for the last non-zero rank W-1 <= k.

    y selects the bounded-error coin as in coin_table. Each step grows the
    law by one rank, on a coin table grown by doubling, and trims its
    trailing exact zeros (rank 0 always stays). A zero adds exactly nothing
    to any later step, so the law is bitwise the full k-step loop's over
    ranks 0..k, cut after its last non-zero rank: nothing is truncated.

    A step is a function of the law alone, so once it repeats bitwise (a
    float fixed point, or rarely a short float cycle, found by Brent's
    method) every later law is known: the loop takes only the steps of k's
    phase in the cycle, and the law comes out in bounded time for any k.
    """
    if k < 0:
        raise ValueError("step count must be non-negative")
    law = np.ones(1)
    down = stay = up = law[:0]
    state = law.tobytes()
    checkpoint, since, power = state, 0, 1
    step = 0
    while step < k:
        n = len(law) + 1
        if n > len(down):
            down, stay, up = _step_coefficients(coin_table(field, max(2 * n, 64), y), field.p)
        live = np.zeros(n)
        live[:-1] = law
        law = _step(live * down[:n], live * stay[:n], live * up[:n])
        while n > 1 and law[n - 1] == 0.0:
            n -= 1
        law = law[:n]
        step += 1
        previous, state = state, law.tobytes()
        since += 1
        if state == previous:
            k = step
        elif state == checkpoint:
            k = step + (k - step) % since
        elif since == power:
            checkpoint, since, power = state, 0, 2 * power
    return law


def corank_law(field: FieldParams, k: int) -> np.ndarray:
    """Law of the rank after k steps of the exact-coin walk from rank 0, over
    ranks 0..W-1 for the last non-zero rank W-1 <= k, as walk_law gives it.

    It is the corank law of a uniform random k x k symmetric matrix over F_p
    (sym) or hermitian matrix over F_{p^2} (uni) (Poonen-Rains, JAMS 25,
    2012): with x = -1/p, m = k - c and D's product formula,
        P_k(0) = D(0) / prod_{i>k} (1 + x^i),
        P_k(c+1) = P_k(c) * q^(1-epsilon)/(q^(c+1) - 1) * (1 - x^m),
    where sym takes only the odd i and the even m. At m = 0 the factor is 0,
    so the law ends at rank k at the latest. Each x^i below inverse_powers'
    cut is left out, and a factor with an x^m is one int/int division, so
    from k = FAR_K on the law is D's running product bitwise, and any k
    costs the same: it is clamped in Python ints.
    """
    if k < 0:
        raise ValueError(f"k must be non-negative, got {k}")
    p, q = field.p, field.q
    sym = field.flavor is Flavor.SYMPLECTIC
    cut = p << 60  # x^i is kept while p^i <= cut
    # x^i for i > k, odd i only for sym
    step = 2 if sym else 1
    i = (min(k, CORANK_TERMS) + 1) | sym
    power, stride = p**i, p**step
    tail = []
    while power <= cut:
        tail.append((-1.0) ** i / power)
        i += step
        power *= stride
    value = leading_constant(field, tail)
    law = [value]
    up = q // p  # q^(1-epsilon)
    up_float = float(up)
    m, pm = k, p ** min(k, CORANK_TERMS)  # pm = p^m while m <= CORANK_TERMS
    q_next = q  # q^(c+1)
    while True:
        if pm <= cut and (not m & 1 or not sym):
            # (1 - x^m) = (p^m - (-1)^m) / p^m
            value *= up * (pm + 1 if m & 1 else pm - 1) / (pm * (q_next - 1))
        else:
            value *= up_float / (q_next - 1)
        if value == 0.0:
            return np.array(law)
        law.append(value)
        q_next *= q
        if m <= CORANK_TERMS:
            pm //= p
        m -= 1
