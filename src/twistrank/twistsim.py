"""Stochastic simulator of the fan-structure twisting process.

A sample is a rank walk: each ramified place first tosses the Frobenius
coin (localization vanishes with probability q^(-r)), then draws a
character whose Kummer line may or may not match the transverse line.
The marginal one-step law equals the rank-transition operator exactly; the
exhaustive micro model that shows it, micro_transition_law, is a test
oracle in tests/oracles.py, not part of this module.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterator, Sequence
from dataclasses import dataclass

import numpy as np
import scipy.stats  # noqa: F401  # the benchmark reads its import time (ROADMAP items 0, 1)
from scipy.special import chdtrc

from .gf import FieldParams
from .rankdist import corank_law, walk_law

# counts are int64 and sum to samples, so totals fit
MAX_SAMPLES = 1 << 62
CHUNK_SAMPLES = MAX_SAMPLES  # a run is one chunk; kept for perfbench's provenance

# simulate refuses a larger shift: each shifted rank costs about 0.84 KB of
# rows, so 10^6 of them take about 3.6 s and 0.9 GB
MAX_SHIFT = 10**6

# `ladder` prints one row per level; a deeper request is refused before any
# level is built, so memory and time stay bounded whatever --depth says
MAX_LADDER_DEPTH = 10_000

# chi-squared bins are pooled until each expects at least this many samples
CHI2_MIN_EXPECTED = 5.0


def _odd_sieve(x: int) -> np.ndarray:
    """sieve[k] is True exactly when 2k + 1 is an odd prime <= x."""
    # an odd p's odd multiples from p^2 on are p apart in k
    sieve = np.ones((x + 1) // 2, dtype=bool)
    sieve[:1] = False
    for k in range(1, (math.isqrt(x) + 1) // 2):
        if sieve[k]:
            p = 2 * k + 1
            sieve[p * p // 2 :: p] = False
    return sieve


def primes_up_to(x: int) -> np.ndarray:
    """All primes <= x, ascending, by a numpy sieve over the odd numbers."""
    if x < 2:
        return np.array([], dtype=np.int64)
    return np.concatenate(([2], 2 * np.flatnonzero(_odd_sieve(x)) + 1)).astype(np.int64)


def check_place_model(x: float, density: float, seed: int) -> None:
    """The checks that every place model makes on its x, density and seed."""
    if x < 2:
        raise ValueError(f"the place model needs x >= 2, got {x}")
    if not 0 < density <= 1:
        raise ValueError("density must lie in (0, 1]")
    if seed < 0:
        raise ValueError("seed must be non-negative")


def build_place_model(x: float, density: float, seed: int) -> np.ndarray:
    """Ascending norms of the P1 places: each rational prime <= x is a P1
    place with probability density under the seeded generator. At density
    1 every coin lands, so none is drawn."""
    check_place_model(x, density, seed)
    norms = primes_up_to(int(x))
    if density == 1:
        return norms
    return norms[np.random.default_rng(seed).random(len(norms)) < density]


def _prefix_counts(mask: np.ndarray, ends: list[int]) -> list[int]:
    """count_nonzero(mask[:end]) for each end, the ends not decreasing, in
    one pass and without a cumulative array."""
    return list(itertools.accumulate(int(np.count_nonzero(mask[start:end]))
                                     for start, end in itertools.pairwise([0, *ends])))


def count_places(x: float, levels: Sequence[float], density: float,
                 seed: int) -> tuple[int, list[int]]:
    """(n, [u_1, u_2, ...]): the number of P1 places of build_place_model(x,
    density, seed), and how many of them lie strictly below each level, as
    searchsorted counts them, without listing the places. The levels must
    not decrease."""
    check_place_model(x, density, seed)
    sieve = _odd_sieve(int(x))
    # 2 lies below L exactly when L > 2, and an odd 2k + 1 exactly when
    # k < ceil((L - 1) / 2); past the sieve's last odd, 2 len(sieve) - 1,
    # every one does
    ends = [len(sieve) if level > 2 * len(sieve) else max(math.ceil((level - 1) / 2), 0)
            for level in levels]
    primes = [odd + (level > 2) for odd, level in zip(_prefix_counts(sieve, ends), levels)]
    n = 1 + int(np.count_nonzero(sieve))
    if density == 1:
        return n, primes
    kept = np.random.default_rng(seed).random(n) < density
    return int(np.count_nonzero(kept)), _prefix_counts(kept, primes)


@dataclass(frozen=True)
class FanLadder:
    """The norm-threshold family L_1, L_2, ... built from L(Y) = Y^a.

    L_1(X) = L(X) and L_{i+1}(X) = max(L(prod_{j<=i} L_j(X)), X * L_i(X)).
    Values beyond double range saturate to infinity, which only loosens
    thresholds that are already astronomically large.
    """

    stand_in_exponent: float

    def __post_init__(self):
        if not (math.isfinite(self.stand_in_exponent) and self.stand_in_exponent >= 1):
            raise ValueError(f"exponent must be finite and >= 1, "
                             f"got {self.stand_in_exponent!r}")

    def _base(self, y: float) -> float:
        try:
            return y**self.stand_in_exponent
        except OverflowError:
            return math.inf

    def levels(self, x: float, depth: int) -> list[float]:
        """L_1(x), ..., L_depth(x), for 1 <= depth <= MAX_LADDER_DEPTH."""
        climb = self.iter_levels(x)
        if depth < 1:
            raise ValueError("depth must be >= 1")
        if depth > MAX_LADDER_DEPTH:
            raise ValueError(f"depth must be <= {MAX_LADDER_DEPTH}, got {depth}")
        return list(itertools.islice(climb, depth))

    def iter_levels(self, x: float) -> Iterator[float]:
        """L_1(x), L_2(x), ... without end. They never decrease, and at x = 1
        they are all 1."""
        if not (math.isfinite(x) and x >= 1):
            raise ValueError(f"x must be finite and >= 1, got {x!r}")
        return self._climb(x)

    def _climb(self, x: float) -> Iterator[float]:
        level, prod = self._base(x), 1.0
        while True:
            yield level
            prod = prod * level
            level = max(self._base(prod), x * level)


@dataclass(frozen=True, kw_only=True)
class SimConfig:
    """Configuration of one simulation run.

    shift is the constant added to every walked rank: r_gamma, or 1 in the
    'fd' regime. chebotarev_y = None means the exact-probability regime.
    threads is validated and echoed so that existing configs keep parsing,
    but the simulator ignores it.
    """

    field: FieldParams
    k: int = 0
    samples: int = 1
    seed: int = 0
    shift: int = 0
    chebotarev_y: float | None = None
    threads: int = 1

    def __post_init__(self):
        if self.k < 0:
            raise ValueError("k must be non-negative")
        if self.samples < 1:
            raise ValueError("samples must be >= 1")
        if self.samples > MAX_SAMPLES:
            raise ValueError(f"samples must be <= 2^62, got {self.samples}")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
        if self.shift < 0:
            raise ValueError("shift must be non-negative")
        if self.shift > MAX_SHIFT:
            raise ValueError(f"shift must be <= {MAX_SHIFT}, got {self.shift}")
        if self.chebotarev_y is not None and not (
                math.isfinite(self.chebotarev_y) and self.chebotarev_y > 0):
            raise ValueError("chebotarev_y must be positive and finite")
        if self.threads < 1:
            raise ValueError("threads must be >= 1")


@dataclass(frozen=True)
class EmpiricalDistribution:
    """Observed rank counts from a simulation run, with the law they were
    drawn from."""

    counts: np.ndarray
    total: int
    reference: np.ndarray

    def __post_init__(self):
        if int(self.counts.sum()) != self.total:
            raise ValueError("counts do not sum to the stated total")

    def probs(self) -> np.ndarray:
        return self.counts / self.total

    def tv_against(self, reference: np.ndarray) -> float:
        n = max(len(self.counts), len(reference))
        a = np.zeros(n)
        b = np.zeros(n)
        a[: len(self.counts)] = self.probs()
        b[: len(reference)] = reference
        return 0.5 * float(np.abs(a - b).sum())

    def chi2_against(self, reference: np.ndarray):
        """Goodness-of-fit statistic against expected probabilities.

        Bins are pooled from the top until each expected count reaches
        CHI2_MIN_EXPECTED; structurally empty bins (zero expectation and zero
        observation) are dropped. Returns (statistic, dof, p_value).
        """
        n = max(len(self.counts), len(reference))
        observed = np.zeros(n)
        expected = np.zeros(n)
        observed[: len(self.counts)] = self.counts
        expected[: len(reference)] = np.asarray(reference) * self.total
        keep = ~((expected == 0) & (observed == 0))
        observed, expected = observed[keep], expected[keep]
        if (expected == 0).any():
            raise ValueError("observed mass on a zero-probability rank")
        if len(expected) > 2:
            # pool bins top..end into bin top, the highest top >= 1 whose
            # tail expects CHI2_MIN_EXPECTED
            tail = np.cumsum(expected[::-1])[::-1]
            qualified = np.flatnonzero(tail[1:] >= CHI2_MIN_EXPECTED)
            top = int(qualified[-1]) + 1 if len(qualified) else 1
            observed_tail = np.cumsum(observed[::-1])[::-1]
            expected = np.append(expected[:top], tail[top])
            observed = np.append(observed[:top], observed_tail[top])
        stat = float(((observed - expected) ** 2 / expected).sum())
        dof = len(expected) - 1
        if dof == 0:
            # a single bin carries all the mass on both sides
            return stat, 0, 1.0
        # the function scipy.stats.chi2.sf evaluates, without its wrapper
        return stat, dof, float(chdtrc(dof, stat))


def _simulate_chunk(config: SimConfig, law: np.ndarray) -> np.ndarray:
    """Rank counts of all config.samples walks after config.k steps, drawn
    from one stream as one Multinomial(samples, law), law being the
    unshifted k-step law: the walks are i.i.d. from rank 0, so this is
    exact in law. The draw takes the columns from the top rank downward, so
    the rare high ranks get their own binomials and float rounding of the
    law lands in rank 0.
    """
    rng = np.random.default_rng(np.random.SeedSequence(entropy=config.seed, spawn_key=(0,)))
    return rng.multinomial(config.samples, law[::-1])[::-1]


def simulate(config: SimConfig) -> EmpiricalDistribution:
    """Run the rank walk for every sample, all from one stream keyed by
    (seed, 0), and return the rank counts with the law they were drawn
    from, both shifted up by config.shift. That law is the k-step law at
    every rank >= 1: rankdist.corank_law's closed form with the exact coin,
    rankdist.walk_law's with the bounded-error coin, which has none. The
    draw gives rank 0, its last column, the remainder 1 - sum of the rest,
    so the reference carries that too and sums to 1. Output depends only
    on (seed, samples, k, field, shift, y); config.threads has no effect.
    """
    if config.chebotarev_y is None:
        law = corank_law(config.field, config.k)
    else:
        law = walk_law(config.field, config.k, y=config.chebotarev_y)
    counts = _simulate_chunk(config, law)
    shift = np.zeros(config.shift, np.int64)
    return EmpiricalDistribution(counts=np.concatenate([shift, counts]), total=config.samples,
                                 reference=np.concatenate([shift, [1.0 - law[1:].sum()],
                                                           law[1:]]))


def strata_from_counts(usable: Sequence[int], n: int, k: int) -> tuple[int, int]:
    """(|D_k|, |D_{k+1}|) over n places ordered by norm, from u_m, the number
    of places below the m-th ladder threshold: a place enters a tuple as its
    m-th pick only if it is one of the first u_m places. usable holds
    u_1, u_2, ... for at least the first min(k + 1, n) levels; they never
    decrease, as the levels do not."""
    if k < 0:
        raise ValueError("k must be non-negative")
    # the m-th pick lies among the first u_m places, so there is none while
    # u_m < m, nor past the n places
    if k > n or any(u < m for m, u in enumerate(usable[:k], 1)):
        return 0, 0
    # after level m, valid[j] counts the m-subsets of the first m + j places
    # obeying the first m thresholds; it grows while j <= u_m - m and is
    # constant after, and |D_k| = valid[u_k - k] needs no later entry. A
    # (k + 1)-tuple's top pick t < u_{k+1} sits over valid[t - k] k-tuples.
    u_k = usable[k - 1] if k else 0
    u_top = usable[k] if k < n else u_k
    valid = [1] * (u_k - k + 1)
    for m, u in enumerate(usable[:k], 1):
        grown = list(itertools.accumulate(valid[: u - m + 1]))
        valid = grown + grown[-1:] * (len(valid) - len(grown))
    return valid[-1], sum(valid[:-1]) + (u_top - u_k) * valid[-1]


def strata_cardinality(p1_norms: np.ndarray, ladder: FanLadder, k: int,
                       x: float) -> tuple[int, int]:
    """(|D_k|, |D_{k+1}|): the numbers of squarefree k- and (k + 1)-tuples of
    P1 places whose i-th smallest norm stays below the i-th ladder threshold
    at X = x.

    p1_norms must ascend, as build_place_model returns them. It is the
    counting universe, so it must extend to the top threshold for the counts
    to be meaningful.
    """
    if k < 0:
        raise ValueError("k must be non-negative")
    p1 = np.asarray(p1_norms)
    if (p1[1:] < p1[:-1]).any():
        raise ValueError("p1_norms must ascend, as build_place_model returns them")
    # past the n places every stratum is empty, so at most n levels count
    levels = list(itertools.islice(ladder.iter_levels(x), min(k + 1, len(p1))))
    return strata_from_counts(np.searchsorted(p1, levels).tolist(), len(p1), k)
