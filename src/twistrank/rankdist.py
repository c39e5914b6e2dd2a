"""Symplectic/unitary rank distributions and the rank-transition chain.

Everything here exploits the identity q^epsilon = p, valid in both
flavors (q = p, epsilon = 1 and q = p^2, epsilon = 1/2), so q^(i+epsilon)
and q^(1-epsilon) are always exact integers.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .gf import FieldParams, Flavor

# Each product and series here and in bounds stops before its first term below
# this (its terms decrease); the error left is far below every tolerance used.
PRODUCT_EPS = 1e-16

R_MAX_DEFAULT = 64

# p^-j <= 2^-64 from j = 64 on, so every factor 1 - p^-j, 1 + (-1/p)^j of
# corank_law is exactly 1.0 there, and p^-(c(c+1)/2) is 0.0 from rank 64
CORANK_TERMS = 64


def leading_constant(field: FieldParams) -> float:
    """prod_{i>=0} (1 + q^(-i-epsilon))^(-1), the mass at rank 0."""
    q, d = field.q, field.p  # d = q^(i+epsilon), an exact int
    value = 1.0
    while (t := 1.0 / d) >= PRODUCT_EPS:
        value /= 1.0 + t
        d *= q
    return value


def zeros(n: int, dtype=np.float64) -> np.ndarray:
    """np.zeros(n, dtype), raising MemoryError also where numpy rejects n as
    larger than any address space (it raises ValueError there)."""
    try:
        return np.zeros(n, dtype)
    except ValueError as exc:
        raise MemoryError(str(exc)) from None


def stationary_distribution(field: FieldParams, r_max: int = R_MAX_DEFAULT) -> np.ndarray:
    """D(0..r_max) by the running product D(r) = D(r-1) * q^(1-epsilon)/(q^r - 1).

    Once the product underflows to 0.0 every later value is 0.0 too, so the
    loop stops there; q^r then never grows past the float range.
    """
    if r_max < 0:
        raise ValueError("r_max must be non-negative")
    q = field.q
    up = float(q // field.p)  # q^(1-epsilon)
    probs = zeros(r_max + 1)
    value = leading_constant(field)
    q_next = 1
    for r in range(r_max + 1):
        probs[r] = value
        q_next *= q  # q^(r+1)
        value *= up / (q_next - 1)
        if value == 0.0:
            break
    return probs


def dist_value(field: FieldParams, r: int) -> float:
    """Probability of rank r under the stationary distribution."""
    if r < 0:
        raise ValueError("rank must be non-negative")
    return float(stationary_distribution(field, r)[r])


def expected_rank(field: FieldParams) -> float:
    """sum_{i>=0} 1/(1 + q^(i+epsilon))."""
    q, d = field.q, field.p  # d = q^(i+epsilon), an exact int
    total = 0.0
    while (t := 1.0 / (1.0 + d)) >= PRODUCT_EPS:
        total += t
        d *= q
    return total


def qr_moment(field: FieldParams) -> float:
    """The q^r-moment in closed form: 1 + q^(1-epsilon)."""
    return 1.0 + field.q // field.p


def qr_moment_by_series(field: FieldParams) -> float:
    """The q^r-moment by direct summation of q^r * D(r) up to R_MAX_DEFAULT."""
    q = float(field.q)
    total = 0.0
    # ranks whose mass underflowed add nothing, and q^r may overflow there;
    # a plain loop, since sum() compensates its float additions from Python 3.12 on
    for r, dr in enumerate(stationary_distribution(field).tolist()):
        if dr:
            total += q**r * dr
    return total


def beta(field: FieldParams) -> float:
    """prod_{i>=0} (1 - q^(-i-epsilon)) / (1 + q^(-i-epsilon))."""
    q, d = field.q, field.p  # d = q^(i+epsilon), an exact int
    value = 1.0
    while (t := 1.0 / d) >= PRODUCT_EPS:
        value *= (1.0 - t) / (1.0 + t)
        d *= q
    return value


def odd_mass(field: FieldParams) -> float:
    """Total mass on odd ranks, (1 - beta)/2."""
    return (1.0 - beta(field)) / 2.0


def markov_entry_exact(field: FieldParams, r: int, s: int) -> Fraction:
    """Exact rational transition probability, for cross-checks."""
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


def _walk_states(field: FieldParams, y: float | None):
    """The law after each step of the walk from rank 0, without its trailing
    exact zeros (rank 0 always stays). A zero adds exactly nothing to any
    later step, so each law is bitwise the full (k+1)-wide loop's, cut after
    its last non-zero rank. The coin table grows by doubling with the width."""
    law = np.ones(1)
    down = stay = up = law[:0]
    while True:
        n = len(law) + 1
        if n > len(down):
            down, stay, up = _step_coefficients(coin_table(field, max(2 * n, 64), y), field.p)
        live = np.zeros(n)
        live[:-1] = law
        law = _step(live * down[:n], live * stay[:n], live * up[:n])
        while n > 1 and law[n - 1] == 0.0:
            n -= 1
        law = law[:n]
        yield law


def walk_law(field: FieldParams, k: int, *, y: float | None = None) -> np.ndarray:
    """Law of the rank after k steps of the walk from rank 0, over ranks
    0..W-1 for the last non-zero rank W-1 <= k.

    y selects the bounded-error coin as in coin_table. The law is bitwise
    the one the full k-step loop over ranks 0..k gives (see _walk_states),
    so nothing is truncated.

    A step is a function of the law alone, so once it repeats bitwise (a
    float fixed point, or rarely a short float cycle, found by Brent's
    method) every later law is known, and the loop stops: the law comes
    out in bounded time for any k.
    """
    if k < 0:
        raise ValueError("step count must be non-negative")
    states = _walk_states(field, y)
    law = np.ones(1)
    state = law.tobytes()
    checkpoint, since, power = state, 0, 1
    for step in range(1, k + 1):
        previous = state
        law = next(states)
        state = law.tobytes()
        since += 1
        if state == previous:
            period = 1
        elif state == checkpoint:
            period = since
        else:
            if since == power:
                checkpoint, since, power = state, 0, 2 * power
            continue
        for _ in range((k - step) % period):
            law = next(states)
        break
    return law


def corank_law(field: FieldParams, k: int) -> np.ndarray:
    """Law of the rank after k steps of the exact-coin walk from rank 0, in
    closed form, over ranks 0..W-1 for the last non-zero rank W-1 <= k, as
    walk_law gives it.

    It is the corank law of a uniform random k x k symmetric matrix over F_p
    (sym) or hermitian matrix over F_{p^2} (uni) (Poonen-Rains, JAMS 25,
    2012), written with exponents rather than huge powers:
        sym: p^(-c(c+1)/2) prod_{j=c+1}^{k} (1 - p^-j)
             / prod_{i=1}^{(k-c)//2} (1 - p^(-2i)),
        uni: p^(-c^2) prod_{j=c+1}^{k} (1 - p^(-2j))
             prod_{i=1}^{k-c} (1 + (-1/p)^i) / (1 - p^(-2i)).
    Each product stops at CORANK_TERMS, where its factor is exactly 1.0, and
    k is clamped in Python ints, so any k costs the same.
    """
    if k < 0:
        raise ValueError(f"k must be non-negative, got {k}")
    n = min(k, CORANK_TERMS)
    c = np.arange(n + 1)
    j = np.arange(1.0, n + 1)
    # k - c, clamped only where it is at least 2 * CORANK_TERMS, so spread is exact
    rest = min(k, 3 * CORANK_TERMS) - c
    p = float(field.p)
    even = 1.0 - p ** (-2 * j)
    if field.flavor is Flavor.SYMPLECTIC:
        head = p ** -(c * (c + 1) // 2)
        above, below = 1.0 - p**-j, 1.0 / even
        spread = np.minimum(rest // 2, n)
    else:
        head = p ** -(c * c)
        above, below = even, (1.0 + (-1.0 / p) ** j) / even
        spread = np.minimum(rest, n)
    # above's product over j > c, below's over i <= spread
    law = (head * np.append(np.cumprod(above[::-1])[::-1], 1.0)
           * np.append(1.0, np.cumprod(below))[spread])
    return law[: np.flatnonzero(law)[-1] + 1]
