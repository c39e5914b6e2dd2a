"""Stochastic simulator of the fan-structure twisting process.

A sample is a rank walk: each ramified place first tosses the Frobenius
coin (localization vanishes with probability q^(-r)), then draws a
character whose Kummer line may or may not match the transverse line.
The marginal one-step law equals the rank-transition operator exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from scipy.stats import chi2 as _chi2

from .gf import FieldParams
from .rankdist import _step, _step_coefficients, coin_table
from .spaces import build_local_plane, fiber_size, kummer_line_of_character

# Samples are split into fixed-size chunks, each driven by its own
# counter-derived substream, and chunk counts are added up. Changing this
# constant changes simulation output for a given seed.
CHUNK_SAMPLES = 1 << 14

# chi-squared bins are pooled until each expects at least this many samples
CHI2_MIN_EXPECTED = 5.0


class CapExceeded(RuntimeError):
    """Raised when a stratum count would exceed the configured cap."""


@dataclass(frozen=True)
class ShiftMode:
    """Rank shift applied after the walk.

    kind 'notfd' adds the constant contributor dimension r_gamma;
    kind 'fd' models the regime where every rank is offset by one.
    """

    kind: str
    r_gamma: int = 0

    def __post_init__(self):
        if self.kind not in ("notfd", "fd"):
            raise ValueError(f"unknown shift mode {self.kind!r}")
        if self.kind == "notfd" and self.r_gamma < 0:
            raise ValueError("r_gamma must be non-negative")
        if self.kind == "fd" and self.r_gamma != 0:
            raise ValueError("the 'fd' mode carries no r_gamma")

    @property
    def offset(self) -> int:
        return self.r_gamma if self.kind == "notfd" else 1

    @classmethod
    def parse(cls, text: str) -> "ShiftMode":
        text = text.strip().lower()
        if text == "fd":
            return cls("fd")
        if text == "notfd":
            return cls("notfd", 0)
        if text.startswith("notfd:"):
            try:
                r_gamma = int(text.split(":", 1)[1])
            except ValueError:
                raise ValueError(f"bad shift spec {text!r}: expected notfd:<int>") from None
            return cls("notfd", r_gamma)
        raise ValueError(f"bad shift spec {text!r}: expected 'fd' or 'notfd:<int>'")

    def __str__(self) -> str:
        return "fd" if self.kind == "fd" else f"notfd:{self.r_gamma}"


@dataclass(frozen=True)
class PlaceModel:
    """Synthetic places: rational-prime norms with a B/P0/P1 label each."""

    norms: np.ndarray
    labels: np.ndarray  # 0 = B, 1 = P0, 2 = P1

    def p1_norms(self) -> np.ndarray:
        return self.norms[self.labels == 2]


def primes_up_to(x: int) -> np.ndarray:
    """All primes <= x by a numpy sieve."""
    if x < 2:
        return np.array([], dtype=np.int64)
    sieve = np.ones(x + 1, dtype=bool)
    sieve[:2] = False
    for p in range(2, int(x**0.5) + 1):
        if sieve[p]:
            sieve[p * p :: p] = False
    return np.nonzero(sieve)[0].astype(np.int64)


def build_place_model(x: float, density: float, seed: int, n_bad: int = 0) -> PlaceModel:
    """Places with norms the rational primes <= x; non-B places are P1
    with probability density under the seeded generator."""
    if x < 2:
        raise ValueError(f"the place model needs x >= 2, got {x}")
    if not 0 < density <= 1:
        raise ValueError("density must lie in (0, 1]")
    if seed < 0:
        raise ValueError("seed must be non-negative")
    if n_bad < 0:
        raise ValueError("n_bad must be non-negative")
    norms = primes_up_to(int(x))
    labels = np.zeros(len(norms), dtype=np.int8)
    rng = np.random.default_rng(seed)
    coins = rng.random(len(norms))
    labels[coins < density] = 2
    labels[coins >= density] = 1
    labels[:n_bad] = 0
    return PlaceModel(norms=norms, labels=labels)


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
        if not (math.isfinite(x) and x >= 1):
            raise ValueError(f"x must be finite and >= 1, got {x!r}")
        if depth < 1:
            raise ValueError("depth must be >= 1")
        out: list[float] = []
        prod = 1.0
        for i in range(depth):
            if i == 0:
                level = self._base(x)
            else:
                level = max(self._base(prod), x * out[-1])
            out.append(level)
            prod = prod * level
        return out


def micro_transition_law(field: FieldParams, r: int, n: int) -> dict[int, Fraction]:
    """Exhaustive one-step law of the micro model at rank r.

    Enumerates every (coin, V, character) outcome with its rational weight:
    the rank falls when the Frobenius coin fails; otherwise the transverse
    line V is one of the p ramified lines, and the rank rises exactly when
    the character's Kummer line equals V. The result must equal the
    operator entries exactly.
    """
    if r < 0:
        raise ValueError("rank must be non-negative")
    plane = build_local_plane(field)
    p, q = field.p, field.q
    n_chars = p * fiber_size(p, n)
    pt0 = Fraction(1, q**r)
    w_v = Fraction(1, p)
    w_f = Fraction(1, n_chars)
    law: dict[int, Fraction] = {}

    def add(s, w):
        law[s] = law.get(s, 0) + w

    for f in range(n_chars):
        kummer = kummer_line_of_character(plane, f, n)
        if r >= 1:
            add(r - 1, (1 - pt0) * w_f)
        for v in plane.ramified_lines:
            add(r + 1 if kummer == v else r, pt0 * w_v * w_f)
    return {s: w for s, w in law.items() if w != 0}


@dataclass(frozen=True)
class SimConfig:
    """Configuration of one simulation run.

    The walk is n-independent (character fibers are balanced), so n is
    carried only for bookkeeping surfaces. chebotarev_y = None means the
    exact-probability regime. threads is validated and echoed so that
    existing configs keep parsing, but the simulator ignores it.
    """

    field: FieldParams
    n: int = 1
    k: int = 0
    samples: int = 1
    seed: int = 0
    shift_mode: ShiftMode = ShiftMode("notfd", 0)
    chebotarev_y: float | None = None
    initial: tuple[float, ...] | None = None
    threads: int = 1

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be >= 1")
        if self.k < 0:
            raise ValueError("k must be non-negative")
        if self.samples < 1:
            raise ValueError("samples must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
        if self.chebotarev_y is not None and not (
                math.isfinite(self.chebotarev_y) and self.chebotarev_y > 0):
            raise ValueError("chebotarev_y must be positive and finite")
        if self.threads < 1:
            raise ValueError("threads must be >= 1")
        if self.initial is not None:
            arr = np.asarray(self.initial, dtype=np.float64)
            if arr.ndim != 1 or len(arr) == 0 or not (np.isfinite(arr) & (arr >= 0)).all():
                raise ValueError("initial law must be a finite non-negative vector")
            if abs(arr.sum() - 1.0) > 1e-9:
                raise ValueError("initial law must sum to 1")


@dataclass(frozen=True)
class EmpiricalDistribution:
    """Observed rank counts from a simulation run."""

    counts: np.ndarray
    total: int

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
        # pool the sparse upper tail
        while len(expected) > 2 and expected[-1] < CHI2_MIN_EXPECTED:
            expected[-2] += expected[-1]
            observed[-2] += observed[-1]
            expected, observed = expected[:-1], observed[:-1]
        stat = float(((observed - expected) ** 2 / expected).sum())
        dof = len(expected) - 1
        if dof == 0:
            # a single bin carries all the mass on both sides
            return stat, 0, 1.0
        return stat, dof, float(_chi2.sf(stat, dof))


def _simulate_chunk(config: SimConfig, chunk_index: int, size: int, n_ranks: int) -> np.ndarray:
    """Rank counts of one chunk of walks, drawn from its own substream.

    The walks are i.i.d., so the count per rank is the whole state: each
    step draws, per rank, how many of its walks move up, stay and fall
    (one multinomial over the coin table) and moves those counts with the
    same tridiagonal step as the reference law. The rare moves come first,
    so the fall is the remainder; ranks with no walks draw nothing.
    """
    rng = np.random.default_rng(
        np.random.SeedSequence(entropy=config.seed, spawn_key=(chunk_index,))
    )
    counts = np.zeros(n_ranks, dtype=np.int64)
    if config.initial is None:
        counts[0] = size
    else:
        law = np.asarray(config.initial, dtype=np.float64)
        counts[: len(law)] = rng.multinomial(size, law / law.sum())
    coin = coin_table(config.field, n_ranks, config.chebotarev_y)
    down, stay, up = _step_coefficients(coin, config.field.p)
    moves = np.stack([up, stay, down], axis=1)
    top = int(np.flatnonzero(counts)[-1])  # a step can reach top + 1 < n_ranks
    for _ in range(config.k):
        n = top + 2
        drawn = rng.multinomial(counts[:n], moves[:n])
        counts[:n] = _step(drawn[:, 2], drawn[:, 1], drawn[:, 0])
        top = int(np.flatnonzero(counts[:n])[-1])
    return np.roll(counts, config.shift_mode.offset)


def simulate(config: SimConfig) -> EmpiricalDistribution:
    """Run the rank walk for every sample and return the rank counts.

    Output depends only on (seed, samples, k, field, shift, y, initial);
    config.threads is accepted for existing configs but has no effect.
    """
    top_initial = len(config.initial) - 1 if config.initial is not None else 0
    n_ranks = top_initial + config.k + config.shift_mode.offset + 1
    counts = np.zeros(n_ranks, dtype=np.int64)
    for index, start in enumerate(range(0, config.samples, CHUNK_SAMPLES)):
        size = min(CHUNK_SAMPLES, config.samples - start)
        counts += _simulate_chunk(config, index, size, n_ranks)
    return EmpiricalDistribution(counts=counts, total=config.samples)


def _binomial(n: int, k: int) -> int:
    return math.comb(n, k) if 0 <= k <= n else 0


def strata_cardinality(model: PlaceModel, ladder: FanLadder, k: int, x: float,
                       cap: int = 10**15) -> int:
    """Number of squarefree k-tuples of P1 places whose i-th smallest norm
    stays below the i-th ladder threshold at X = x.

    The model's place list is the counting universe, so it must extend to
    the top threshold for the count to be meaningful.
    """
    if k < 0:
        raise ValueError("k must be non-negative")
    if cap < 1:
        raise ValueError(f"cap must be >= 1, got {cap}")
    if cap >= 2**63:
        raise ValueError(f"cap {cap} must be below 2^63: stratum counts are kept in int64")
    if k == 0:
        return 1
    p1 = np.sort(model.p1_norms())
    if _binomial(len(p1), k) > cap:
        raise CapExceeded(
            f"stratum count bound C({len(p1)}, {k}) exceeds the cap {cap}; "
            "raise the cap or shrink the place model"
        )
    thresholds = ladder.levels(x, k)
    # valid[m](t) = number of m-subsets of the first t places obeying the
    # first m thresholds; a place enters as the m-th pick only if its norm
    # is under thresholds[m-1].
    current = np.ones(len(p1) + 1, dtype=np.int64)
    for m in range(1, k + 1):
        usable = p1 < thresholds[m - 1]
        contrib = np.where(usable, current[:-1], 0)
        current = np.concatenate(([0], np.cumsum(contrib)))
    return int(current[-1])

