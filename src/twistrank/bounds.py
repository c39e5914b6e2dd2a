"""Closed-form density and rank-growth bound calculators.

Each bound is read off the products and series of rankdist; reports carry
a formula string because equivalent product forms with shifted indices
are the main source of silent errors here.
"""

from __future__ import annotations

import math
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
    # the symplectic rank-0 mass, whose product runs over p^(-i-1)
    return rankdist.leading_constant(build_field(p, Flavor.SYMPLECTIC))


def rank_zero_density_bound(field: FieldParams) -> float:
    """Density of rank-zero twists, certified above 1 - q^(1-eps)/(q-1)."""
    value = rankdist.leading_constant(field)
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
    (p-1)(D(0) - (p-2)/(p-1)). Since D(0) = p/(p+1) R with
    R = prod_{i>=1} (1 + t_i)^(-1), that is (2 - p(p-1)(1 - R))/(p+1), and
    1 - R = -expm1(-sum_{i>=1} log1p(t_i)) comes without cancellation."""
    p = field.p
    if p == 2:
        return rankdist.leading_constant(field)
    one_minus_r = -math.expm1(-math.fsum(map(math.log1p, rankdist.inverse_powers(field, 1))))
    return (2 - p * (p - 1) * one_minus_r) / (p + 1)


def odd_rank_proportion(p: int) -> float:
    """Proportion of twists with odd rank, (1 - beta)/2 with
    beta = prod_{i>=1} (1 - p^(-i))/(1 + p^(-i))."""
    return rankdist.odd_mass(build_field(p, Flavor.SYMPLECTIC))


def reports(p: int, deg_k: int = 1) -> list[BoundReport]:
    """All bound reports for one prime, both flavors where applicable. The
    Fermat density and the odd-rank proportion are read off the symplectic
    field, as fermat_unsolvable_density and odd_rank_proportion read them."""
    # build_field refuses a p past MAX_P before any primality test runs
    sym, uni = (build_field(p, flavor) for flavor in (Flavor.SYMPLECTIC, Flavor.UNITARY))
    rows = []
    if p >= 3:
        rows.append(("fermat_unsolvable_density", sym, rankdist.leading_constant(sym),
                     "prod_{i>=1} (1+p^-i)^-1"))
    for field in (sym, uni):
        rows += [
            ("rank_zero_density", field, rank_zero_density_bound(field),
             "prod_{i>=0} (1+q^(-i-eps))^-1 > 1 - q^(1-eps)/(q-1)"),
            ("avg_rank_bound", field, avg_rank_bound(field, deg_k),
             f"{deg_k} * sum_{{i>=0}} 1/(1+q^(i+eps))"),
            ("no_growth_proportion", field, no_growth_proportion_bound(field),
             "D(0) if p=2 else (p-1)(D(0)-(p-2)/(p-1))"),
        ]
    rows.append(("odd_rank_proportion", sym, rankdist.odd_mass(sym),
                 "(1-beta)/2, beta = prod_{i>=1} (1-p^-i)/(1+p^-i)"))
    return [BoundReport(name, field.flavor, value, formula) for name, field, value, formula in rows]
