"""Every printed digit is right over the whole prime domain.

Each scalar that `table`, `moments`, `bounds` (--degK 1, 2 and 3) and `dist`
print is computed here as an exact rational interval, for every prime
p <= 2^15 in both flavors (7 024 fields). With q^epsilon = p, t_i = 1/(p q^i)
for i >= 0 and the products and series of Poonen-Rains (JAMS 25, 2012):

    D(0)    = prod_i (1 + t_i)^-1,
    beta    = prod_i (1 - t_i) / (1 + t_i),   odd mass = (1 - beta) / 2,
    E[rank] = sum_i t_i / (1 + t_i),
    D(r)    = D(0) prod_{i=1..r} q^(1-epsilon) / (q^i - 1),

and from these the bounds: fermat_unsolvable_density(p) and
odd_rank_proportion(p) are D(0) and the odd mass of the symplectic field,
no_growth_proportion is D(0) at p = 2 and (p - 1) D(0) - (p - 2) above,
avg_rank_bound is [K:Q] E[rank].

Each product and series runs over the terms with t_i >= 2^-112 and bounds
the rest: with S = sum_{i>=n} t_i <= 2 t_n, the tail of D(0) lies in
[1, e^S] within [1, 1 + 4 t_n], that of beta in [1 - 4 t_n, 1] and that of
E[rank] in [0, 2 t_n], so every interval is narrower than 2^-110. Its
endpoints are rounded outward to integer multiples of 2^-128, which keeps
the arithmetic in Python ints.

The printed text must be the correctly rounded 12-significant-digit text
(`%.12g`) of every number in the interval, and a `table` cell the 4-decimal
truncation; an interval that holds a rounding boundary fails, as the right
text is then unknown. `dist` is checked at every rank whose value lies in
the normal float range. Past it, where a float holds fewer than 12 digits, a
`dist` value must print as `%.12g` of the float nearest its exact value, and
the law must end, printing "0" from there on, at the first rank whose exact
value rounds to 0.0. The standard library alone computes the intervals.
"""

from __future__ import annotations

import functools
import math

import pytest

from twistrank import cli
from twistrank.gf import MAX_P, Flavor

from record_parsers import expanded

TAIL_BITS = 112
GRID = 1 << 128  # every interval endpoint is an integer multiple of 1/GRID
FLAVORS = {Flavor.SYMPLECTIC: 1, Flavor.UNITARY: 2}  # q = p^power


def primes_up_to(n: int) -> list[int]:
    sieve = bytearray([1]) * (n + 1)
    sieve[:2] = b"\0\0"
    for i in range(2, math.isqrt(n) + 1):
        if sieve[i]:
            sieve[i * i :: i] = bytes(len(range(i * i, n + 1, i)))
    return [i for i, prime in enumerate(sieve) if prime]


PRIMES = primes_up_to(MAX_P)
FIELDS = [(p, flavor) for p in PRIMES for flavor in FLAVORS]


def ceil_div(n: int, d: int) -> int:
    return -(-n // d)


@functools.cache
def closed_forms(p: int, flavor: Flavor) -> dict[str, tuple[int, int]]:
    """D(0), beta, the odd mass and E[rank] of one field, each as (lo, hi)
    with lo / GRID <= value <= hi / GRID."""
    q = p ** FLAVORS[flavor]
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
    return cli.fmt(float(f"{lo[0]}e{lo[1]}")) if lo is not None and lo == hi else None


def text_trunc4(interval: tuple[int, int]) -> str | None:
    """The 4-decimal truncation of every number in the interval, or None."""
    lo, hi = (n * 10_000 // GRID for n in interval)
    return f"{lo // 10_000}.{lo % 10_000:04d}" if lo == hi else None


def scale(interval: tuple[int, int], factor: int, shift: int = 0) -> tuple[int, int]:
    """factor * x + shift over the interval, factor > 0."""
    return tuple(factor * n + shift * GRID for n in interval)


def misprints(printed: dict[str, str], right: dict[str, str | None], where) -> list:
    return [(where, label, printed.get(label), text) for label, text in right.items()
            if text is None or printed.get(label) != text]


def test_moments_print_every_digit_right():
    wrong = []
    for p, flavor in FIELDS:
        forms = closed_forms(p, flavor)
        right = {"expected_rank": text12(forms["mean"]), "odd_mass": text12(forms["odd"]),
                 "beta": text12(forms["beta"])}
        wrong += misprints(dict(cli.cmd_moments(p, flavor)), right, (p, flavor.value))
    assert not wrong, f"{len(wrong)} misprints, e.g. {wrong[:5]}"


@pytest.mark.parametrize("deg_k", [1, 2, 3])
def test_bounds_print_every_digit_right(deg_k):
    wrong = []
    for p in PRIMES:
        right = {}
        if p >= 3:
            sym = closed_forms(p, Flavor.SYMPLECTIC)
            right["fermat_unsolvable_density[sym]"] = text12(sym["d0"])
        for flavor in FLAVORS:
            forms = closed_forms(p, flavor)
            name = flavor.value
            right[f"rank_zero_density[{name}]"] = text12(forms["d0"])
            right[f"avg_rank_bound[{name}]"] = text12(scale(forms["mean"], deg_k))
            right[f"no_growth_proportion[{name}]"] = text12(
                forms["d0"] if p == 2 else scale(forms["d0"], p - 1, 2 - p))
        right["odd_rank_proportion[sym]"] = text12(closed_forms(p, Flavor.SYMPLECTIC)["odd"])
        printed = dict(cli.cmd_bounds(p, deg_k))
        assert set(printed) == set(right) | {f"{label}.formula" for label in right}
        wrong += misprints(printed, right, p)
    assert not wrong, f"{len(wrong)} misprints, e.g. {wrong[:5]}"


def test_table_truncates_every_cell_right():
    right = {}
    for p in PRIMES:
        for stat, form in (("rank0", "d0"), ("odd", "odd"), ("mean", "mean")):
            for flavor in FLAVORS:
                right[f"{stat} {flavor.value} p={p}"] = text_trunc4(closed_forms(p, flavor)[form])
    printed = cli.cmd_table(PRIMES)
    assert [label for label, _ in printed] == list(right)
    wrong = misprints(dict(printed), right, "table")
    assert not wrong, f"{len(wrong)} misprints, e.g. {wrong[:5]}"


def test_dist_prints_every_normal_value_right():
    wrong, checked = [], 0
    for p, flavor in FIELDS:
        q = p ** FLAVORS[flavor]
        up = q // p  # q^(1 - epsilon)
        lo, hi = closed_forms(p, flavor)["d0"]
        # D(r) lies in [lo, hi] * up^r / (GRID prod_{i<=r} (q^i - 1)); it is
        # normal while that is at least 2^-1022
        right, r, num, den = {}, 0, 1, GRID
        while lo * num << 1022 >= den:
            right[f"D({r})"] = text12((lo * num, hi * num), den)
            r += 1
            num, den = num * up, den * (q**r - 1)
        checked += len(right)
        wrong += misprints(dict(expanded(cli.cmd_dist(p, flavor, r - 1))), right, (p, flavor.value))
    assert checked == 76_783  # the normal values of D over the whole domain
    assert not wrong, f"{len(wrong)} misprints, e.g. {wrong[:5]}"


def test_dist_prints_every_subnormal_value_as_the_nearest_float():
    wrong, checked = [], 0
    for p, flavor in FIELDS:
        q = p ** FLAVORS[flavor]
        up = q // p
        lo, hi = closed_forms(p, flavor)["d0"]
        # as above; an int / int quotient is the nearest float, also where it
        # is subnormal, and both ends of the interval must round alike
        right, r, num, den = {}, 0, 1, GRID
        while True:
            nearest = lo * num / den
            if lo * num << 1022 < den:
                right[f"D({r})"] = cli.fmt(nearest) if nearest == hi * num / den else None
                if nearest == 0.0:
                    break
            r += 1
            num, den = num * up, den * (q**r - 1)
        checked += len(right)
        wrong += misprints(dict(expanded(cli.cmd_dist(p, flavor, r))), right, (p, flavor.value))
    assert checked == 8_354  # the subnormal values of D and the first 0.0 of each field
    assert not wrong, f"{len(wrong)} misprints, e.g. {wrong[:5]}"
