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

The intervals come from tests/oracles.py; each is narrower than 2^-110.

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

import pytest

from twistrank import cli
from twistrank.gf import Flavor

from oracles import (DOMAIN_FIELDS, DOMAIN_PRIMES, closed_forms, dist_intervals, scale, text12,
                     text_trunc4)
from record_parsers import expanded


def misprints(printed: dict[str, str], right: dict[str, str | None], where) -> list:
    return [(where, label, printed.get(label), text) for label, text in right.items()
            if text is None or printed.get(label) != text]


def test_moments_print_every_digit_right():
    wrong = []
    for p, flavor in DOMAIN_FIELDS:
        forms = closed_forms(p, flavor)
        right = {"expected_rank": text12(forms["mean"]), "odd_mass": text12(forms["odd"]),
                 "beta": text12(forms["beta"])}
        wrong += misprints(dict(cli.cmd_moments(p, flavor)), right, (p, flavor.value))
    assert not wrong, f"{len(wrong)} misprints, e.g. {wrong[:5]}"


@pytest.mark.parametrize("deg_k", [1, 2, 3])
def test_bounds_print_every_digit_right(deg_k):
    wrong = []
    for p in DOMAIN_PRIMES:
        right = {}
        if p >= 3:
            sym = closed_forms(p, Flavor.SYMPLECTIC)
            right["fermat_unsolvable_density[sym]"] = text12(sym["d0"])
        for flavor in Flavor:
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
    for p in DOMAIN_PRIMES:
        for stat, form in (("rank0", "d0"), ("odd", "odd"), ("mean", "mean")):
            for flavor in Flavor:
                right[f"{stat} {flavor.value} p={p}"] = text_trunc4(closed_forms(p, flavor)[form])
    printed = cli.cmd_table(DOMAIN_PRIMES)
    assert [label for label, _ in printed] == list(right)
    wrong = misprints(dict(printed), right, "table")
    assert not wrong, f"{len(wrong)} misprints, e.g. {wrong[:5]}"


def test_dist_prints_every_normal_value_right():
    wrong, checked = [], 0
    for p, flavor in DOMAIN_FIELDS:
        right = {}
        for r, (lo, hi, den) in enumerate(dist_intervals(p, flavor)):
            if lo << 1022 < den:  # D(r) is normal while it is at least 2^-1022
                break
            right[f"D({r})"] = text12((lo, hi), den)
        checked += len(right)
        wrong += misprints(dict(expanded(cli.cmd_dist(p, flavor, r - 1))), right, (p, flavor.value))
    assert checked == 76_783  # the normal values of D over the whole domain
    assert not wrong, f"{len(wrong)} misprints, e.g. {wrong[:5]}"


def test_dist_prints_every_subnormal_value_as_the_nearest_float():
    wrong, checked = [], 0
    for p, flavor in DOMAIN_FIELDS:
        right = {}
        # an int / int quotient is the nearest float, also where it is
        # subnormal, and both ends of the interval must round alike
        for r, (lo, hi, den) in enumerate(dist_intervals(p, flavor)):
            nearest = lo / den
            if lo << 1022 < den:
                right[f"D({r})"] = cli.fmt(nearest) if nearest == hi / den else None
                if nearest == 0.0:
                    break
        checked += len(right)
        wrong += misprints(dict(expanded(cli.cmd_dist(p, flavor, r))), right, (p, flavor.value))
    assert checked == 8_354  # the subnormal values of D and the first 0.0 of each field
    assert not wrong, f"{len(wrong)} misprints, e.g. {wrong[:5]}"
