"""Closed-form density and rank-growth bound calculators.

Each calculator recomputes its product or series directly (independently
of the distribution code paths) so the two routes can certify each other;
reports carry a formula string because equivalent product forms with
shifted indices are the main source of silent errors here.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import rankdist
from .gf import FieldParams, Flavor, build_field, check_range, is_prime


@dataclass(frozen=True)
class BoundReport:
    name: str
    flavor: Flavor
    value: float
    formula: str


def fermat_unsolvable_density(p: int) -> float:
    """Lower bound for the density of twisted Fermat equations of degree p
    with no solutions: prod_{i>=1} (1 + p^(-i))^(-1)."""
    check_range(p)
    if not is_prime(p) or p < 3:
        raise ValueError(f"the Fermat bound needs an odd prime, got {p}")
    value, i = 1.0, 1
    while (t := float(p) ** -i) >= rankdist.PRODUCT_EPS:
        value /= 1.0 + t
        i += 1
    return value


def rank_zero_density_bound(field: FieldParams) -> float:
    """Density of rank-zero twists, certified above 1 - q^(1-eps)/(q-1)."""
    value = rankdist.dist_value(field, 0)
    q = field.q
    floor_bound = 1.0 - (q // field.p) / (q - 1)
    if not value > floor_bound:
        raise ArithmeticError(
            f"rank-zero density {value} fails its certified floor {floor_bound}"
        )
    return value


def avg_rank_bound(field: FieldParams, deg_k: int) -> float:
    """Average-rank bound [K:Q] * sum_{i>=0} 1/(1 + q^(i+eps))."""
    if deg_k < 1:
        raise ValueError(f"deg_k must be >= 1, got {deg_k}")
    try:
        return deg_k * rankdist.expected_rank(field)
    except OverflowError:
        raise ValueError(f"deg_k is too large for a float, got a {deg_k.bit_length()}-bit "
                         "integer") from None


def no_growth_proportion_bound(field: FieldParams) -> float:
    """Lower bound for the proportion of degree-p cyclic extensions with
    no rank growth, p the field's characteristic: D(0) when p = 2, else
    (p-1)(D(0) - (p-2)/(p-1))."""
    p = field.p
    d0 = rankdist.dist_value(field, 0)
    if p == 2:
        return d0
    return max(0.0, (p - 1) * (d0 - (p - 2) / (p - 1)))


def odd_rank_proportion(p: int) -> float:
    """Proportion of twists with odd rank, (1 - beta)/2 with
    beta = prod_{i>=1} (1 - p^(-i))/(1 + p^(-i))."""
    check_range(p)
    if not is_prime(p):
        raise ValueError(f"p must be prime, got {p}")
    b, i = 1.0, 1
    while (t := float(p) ** -i) >= rankdist.PRODUCT_EPS:
        b *= (1.0 - t) / (1.0 + t)
        i += 1
    return (1.0 - b) / 2.0


def reports(p: int, deg_k: int = 1) -> list[BoundReport]:
    """All bound reports for one prime, both flavors where applicable."""
    # build_field refuses a p past MAX_P before any primality test runs
    fields = [build_field(p, flavor) for flavor in (Flavor.SYMPLECTIC, Flavor.UNITARY)]
    out = []
    if p >= 3:
        out.append(
            BoundReport(
                name="fermat_unsolvable_density",
                flavor=Flavor.SYMPLECTIC,
                value=fermat_unsolvable_density(p),
                formula="prod_{i>=1} (1+p^-i)^-1",
            )
        )
    for field in fields:
        out.append(
            BoundReport(
                name="rank_zero_density",
                flavor=field.flavor,
                value=rank_zero_density_bound(field),
                formula="prod_{i>=0} (1+q^(-i-eps))^-1 > 1 - q^(1-eps)/(q-1)",
            )
        )
        out.append(
            BoundReport(
                name="avg_rank_bound",
                flavor=field.flavor,
                value=avg_rank_bound(field, deg_k),
                formula=f"{deg_k} * sum_{{i>=0}} 1/(1+q^(i+eps))",
            )
        )
        out.append(
            BoundReport(
                name="no_growth_proportion",
                flavor=field.flavor,
                value=no_growth_proportion_bound(field),
                formula="D(0) if p=2 else (p-1)(D(0)-(p-2)/(p-1))",
            )
        )
    out.append(
        BoundReport(
            name="odd_rank_proportion",
            flavor=Flavor.SYMPLECTIC,
            value=odd_rank_proportion(p),
            formula="(1-beta)/2, beta = prod_{i>=1} (1-p^-i)/(1+p^-i)",
        )
    )
    return out
