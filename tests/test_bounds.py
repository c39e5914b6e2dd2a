import json

import pytest

from twistrank import bounds, rankdist
from twistrank.gf import Flavor, build_field

from harness import run_python
from oracles import SIX_PAIRS, trunc4


def test_fermat_density_spot_values():
    assert trunc4(bounds.fermat_unsolvable_density(3)) == 0.6390
    assert trunc4(bounds.fermat_unsolvable_density(13)) == 0.9226


def test_fermat_density_exceeds_asymptotic_floor():
    for p in (3, 5, 7, 11, 13, 101):
        assert bounds.fermat_unsolvable_density(p) > 1 - 1 / (p - 1)


def test_fermat_rejects_small_or_composite():
    with pytest.raises(ValueError):
        bounds.fermat_unsolvable_density(2)
    with pytest.raises(ValueError):
        bounds.fermat_unsolvable_density(9)


def test_fermat_index_shift_identity():
    # the product starting at i=1 is the rank-0 mass whose product starts
    # at i=0 with exponent -(i+1)
    for p in (2, 3, 5, 7, 11, 13):
        field = build_field(p, Flavor.SYMPLECTIC)
        direct = 1.0
        i = 1
        while p**-i > 1e-18:
            direct /= 1 + float(p) ** (-i)
            i += 1
        assert abs(direct - rankdist.dist_value(field, 0)) < 1e-12
        if p >= 3:
            assert abs(bounds.fermat_unsolvable_density(p) - rankdist.dist_value(field, 0)) < 1e-12


def test_rank_zero_bound_examples():
    sym2 = build_field(2, Flavor.SYMPLECTIC)
    assert bounds.rank_zero_density_bound(sym2) > 0  # floor is 1 - 1/1 = 0
    uni3 = build_field(3, Flavor.UNITARY)
    value = bounds.rank_zero_density_bound(uni3)
    assert value > 1 - 3 / 8  # q = 9: 1 - q^(1/2)/(q-1)
    assert trunc4(value) == 0.7198


def test_rank_zero_bound_agrees_with_distribution():
    for p, flavor in SIX_PAIRS:
        field = build_field(p, flavor)
        assert abs(
            bounds.rank_zero_density_bound(field) - rankdist.dist_value(field, 0)
        ) < 1e-12


def test_avg_rank_bound_scales_expected_rank():
    field = build_field(2, Flavor.UNITARY)
    assert trunc4(rankdist.expected_rank(field)) == 0.4850
    assert bounds.avg_rank_bound(field, 2) == pytest.approx(
        2 * rankdist.expected_rank(field), rel=1e-15
    )
    with pytest.raises(ValueError):
        bounds.avg_rank_bound(field, 0)


def test_no_growth_bound_values():
    assert trunc4(bounds.no_growth_proportion_bound(build_field(2, Flavor.SYMPLECTIC))) == 0.4194
    p3 = bounds.no_growth_proportion_bound(build_field(3, Flavor.SYMPLECTIC))
    d0_3 = rankdist.dist_value(build_field(3, Flavor.SYMPLECTIC), 0)
    assert p3 == pytest.approx(2 * (d0_3 - 0.5), rel=1e-12)
    assert trunc4(p3) == 0.2780
    p5 = bounds.no_growth_proportion_bound(build_field(5, Flavor.SYMPLECTIC))
    d0_5 = rankdist.dist_value(build_field(5, Flavor.SYMPLECTIC), 0)
    assert p5 == pytest.approx(4 * (d0_5 - 0.75), rel=1e-12)
    # 4 * (0.7933 - 0.75) computed from the truncated table entry; the
    # truncation error propagates with the factor of 4
    assert abs(p5 - 0.1732) < 4e-4


def test_odd_rank_proportion_spot_values():
    assert trunc4(bounds.odd_rank_proportion(2)) == 0.4394
    assert trunc4(bounds.odd_rank_proportion(7)) == 0.1424


def test_odd_rank_proportion_beta_consistency():
    for p in (2, 3, 5, 7, 11, 13):
        prop = bounds.odd_rank_proportion(p)
        field = build_field(p, Flavor.SYMPLECTIC)
        beta = rankdist.beta(field)
        assert abs((1 - 2 * prop) - beta) < 1e-12


def test_odd_rank_proportion_matches_odd_mass():
    # index-shift identity between the i>=1 and i>=0 product forms
    for p in (2, 3, 5, 7, 11, 13):
        field = build_field(p, Flavor.SYMPLECTIC)
        assert abs(bounds.odd_rank_proportion(p) - rankdist.odd_mass(field)) < 1e-12


def test_density_reports_lie_in_unit_interval():
    for p in (2, 3, 5, 7, 11, 13):
        for report in bounds.reports(p):
            if report.name != "avg_rank_bound":
                assert 0.0 <= report.value <= 1.0
            assert report.formula


def test_bounds_cross_check_against_distribution_routes():
    for p, flavor in SIX_PAIRS:
        field = build_field(p, flavor)
        assert abs(
            bounds.avg_rank_bound(field, 1) - rankdist.expected_rank(field)
        ) < 1e-9
        if flavor is Flavor.SYMPLECTIC:
            odd_series = rankdist.stationary_distribution(field, 64)[1::2].sum()
            assert abs(bounds.odd_rank_proportion(p) - odd_series) < 1e-9


def test_huge_p_is_refused_before_trial_division():
    """2^89 - 1 gets the range message at once from both calculators that
    take a bare p: the range is checked before the primality test, whose
    trial division would not finish. A subprocess with a timeout makes a
    primality test on such a p fail rather than hang."""
    script = (
        "import json\n"
        "from twistrank import bounds\n"
        "for name in ('odd_rank_proportion', 'fermat_unsolvable_density'):\n"
        "    try:\n"
        "        getattr(bounds, name)(2**89 - 1)\n"
        "    except ValueError as exc:\n"
        "        print(json.dumps([name, str(exc)]))\n"
    )
    done = run_python(script)
    message = f"p = {2**89 - 1} exceeds the supported range (p <= 32768)"
    assert [json.loads(line) for line in done.stdout.splitlines()] == [
        ["odd_rank_proportion", message], ["fermat_unsolvable_density", message]]
