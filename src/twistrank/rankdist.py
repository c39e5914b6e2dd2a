"""Symplectic/unitary rank distributions and the rank-transition chain.

Everything here exploits the identity q^epsilon = p, valid in both
flavors (q = p, epsilon = 1 and q = p^2, epsilon = 1/2), so q^(i+epsilon)
and q^(1-epsilon) are always exact integers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .gf import FieldParams

# Infinite products and series are truncated once a factor differs from 1
# by less than this; the surviving error is far below every tolerance used.
PRODUCT_EPS = 1e-16

R_MAX_DEFAULT = 64


def truncated_terms(term):
    """term(0), term(1), ... up to the first term below PRODUCT_EPS; the
    terms of every product and series here and in bounds decrease."""
    i = 0
    while (t := term(i)) >= PRODUCT_EPS:
        yield t
        i += 1


def leading_constant(field: FieldParams) -> float:
    """prod_{i>=0} (1 + q^(-i-epsilon))^(-1), the mass at rank 0."""
    q, p = field.q, field.p
    value = 1.0
    for t in truncated_terms(lambda i: 1.0 / (p * q**i)):  # q^(-i-epsilon)
        value /= 1.0 + t
    return value


def zeros(n: int, dtype=np.float64) -> np.ndarray:
    """np.zeros(n, dtype), raising MemoryError also where numpy rejects n as
    larger than any address space (it raises ValueError there)."""
    try:
        return np.zeros(n, dtype)
    except ValueError as exc:
        raise MemoryError(str(exc)) from None


def _stationary_probs(field: FieldParams, r_max: int) -> np.ndarray:
    """D(0..r_max) by the running product D(r) = D(r-1) * q^(1-epsilon)/(q^r - 1).

    Once the product underflows to 0.0 every later value is 0.0 too, so the
    loop stops there; q^r then never grows past the float range.
    """
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
    return float(_stationary_probs(field, r)[r])


def expected_rank(field: FieldParams) -> float:
    """sum_{i>=0} 1/(1 + q^(i+epsilon))."""
    q, p = field.q, field.p
    total = 0.0
    for t in truncated_terms(lambda i: 1.0 / (1.0 + p * q**i)):
        total += t
    return total


def qr_moment(field: FieldParams) -> float:
    """The q^r-moment in closed form: 1 + q^(1-epsilon)."""
    return 1.0 + field.q // field.p


def qr_moment_by_series(field: FieldParams) -> float:
    """The q^r-moment by direct summation of q^r * D(r) up to R_MAX_DEFAULT."""
    dist = stationary_distribution(field)
    q = float(field.q)
    # ranks whose mass underflowed add nothing, and q^r may overflow there
    return float(sum(q**r * dr for r, dr in enumerate(dist.probs) if dr))


def beta(field: FieldParams) -> float:
    """prod_{i>=0} (1 - q^(-i-epsilon)) / (1 + q^(-i-epsilon))."""
    q, p = field.q, field.p
    value = 1.0
    for t in truncated_terms(lambda i: 1.0 / (p * q**i)):
        value *= (1.0 - t) / (1.0 + t)
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


@dataclass
class RankDistribution:
    """Probability vector over ranks 0..R_max plus a certified tail bound.

    Instances are treated as immutable; every operation returns a new one.
    """

    field: FieldParams
    probs: np.ndarray
    tail_bound: float = 0.0

    def __post_init__(self):
        self.probs = np.asarray(self.probs, dtype=np.float64)
        if self.probs.ndim != 1 or len(self.probs) == 0:
            raise ValueError("probs must be a non-empty vector")
        if (self.probs < 0).any():
            raise ValueError("probabilities must be non-negative")


def stationary_distribution(field: FieldParams, r_max: int = R_MAX_DEFAULT) -> RankDistribution:
    """The stationary distribution truncated at r_max, with tail bound.

    The ratios rho_r = D(r+1)/D(r) = q^(1-epsilon)/(q^(r+1) - 1) decrease,
    and rho_r < 1 from r = 1 on (rho_0 = 1 at p = 2 sym), so the mass above
    r_max is at most D(r_max) * rho_{r_max} / (1 - rho_{r_max+1}).
    """
    if r_max < 0:
        raise ValueError("r_max must be non-negative")
    probs = _stationary_probs(field, r_max)
    tail = 0.0
    if probs[r_max]:
        up, q = field.q // field.p, field.q
        rho = up / (q ** (r_max + 1) - 1)
        tail = probs[r_max] * rho / (1.0 - up / (q ** (r_max + 2) - 1))
    return RankDistribution(field=field, probs=probs, tail_bound=float(tail))


def _step(down: np.ndarray, stay: np.ndarray, up: np.ndarray) -> np.ndarray:
    """Mass per rank after one step of the tridiagonal chain, given the mass
    each rank sends down, keeps and sends up (probabilities or sample
    counts); what the top rank sends upward is not kept. stay is updated in
    place and returned."""
    stay[:-1] += down[1:]
    stay[1:] += up[:-1]
    return stay


def apply(dist: RankDistribution) -> RankDistribution:
    """One step of the chain over dist's field, truncated at dist's R_max;
    overflow past R_max feeds the tail."""
    probs = dist.probs
    down, stay, up = _step_coefficients(coin_table(dist.field, len(probs)), dist.field.p)
    moved_up = probs * up
    out = _step(probs * down, probs * stay, moved_up)
    leaked = float(moved_up[-1])
    return RankDistribution(field=dist.field, probs=out, tail_bound=dist.tail_bound + leaked)


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


def walk_law(field: FieldParams, k: int, *, y: float | None = None) -> RankDistribution:
    """Law of the rank after k steps of the walk from rank 0, over ranks
    0..W-1 for the last non-zero rank W-1 <= k.

    y selects the bounded-error coin as in coin_table. The law is bitwise
    the one the full k-step loop over ranks 0..k gives (see _walk_states),
    so nothing is truncated and tail_bound is 0.

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
    return RankDistribution(field=field, probs=law)
