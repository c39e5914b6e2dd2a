"""Acceptance suite: one test per criterion, one pass/fail line each.

Reference values are transcribed below exactly as printed in the
golden grid; the printed digits are truncations (not roundings) of the
underlying products, and every comparison in this file goes through the
same truncate-to-4-decimals rendering.
"""

import io
import time
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np

from twistrank import bounds, rankdist as rd
from twistrank import twistsim as ts
from twistrank.cli import cmd_table, fmt_trunc4, main
from twistrank.gf import Flavor, build_field
from twistrank.spaces import (
    Subspace,
    build_local_plane,
    enumerate_isotropic_lines,
    evaluate_form,
    hyperbolic_plane,
)

DATA_DIR = Path(__file__).parent / "data"

SIX_PAIRS = [(p, flavor) for p in (2, 3, 5, 7, 11, 13) for flavor in Flavor]

# Reference grid, row order (rank0, odd, mean) x (sym, uni), columns p.
REFERENCE_TABLE = {
    2:  ("0.4194", "0.5686", "0.4394", "0.3807", "0.7644", "0.4850"),
    3:  ("0.6390", "0.7198", "0.3210", "0.2699", "0.4040", "0.2903"),
    5:  ("0.7933", "0.8264", "0.1984", "0.1721", "0.2150", "0.1749"),
    7:  ("0.8545", "0.8724", "0.1424", "0.1272", "0.1483", "0.1279"),
    11: ("0.9084", "0.9159", "0.0908", "0.0839", "0.0923", "0.0840"),
    13: ("0.9226", "0.9281", "0.0768", "0.0718", "0.0778", "0.0718"),
}


def report(name: str, passed: bool, detail: str = ""):
    print(f"[{'PASS' if passed else 'FAIL'}] {name}" + (f" ({detail})" if detail else ""))
    assert passed, f"{name}: {detail}"


def test_criterion_1_table_reproduction():
    start = time.monotonic()
    rows = cmd_table([2, 3, 5, 7, 11, 13])
    elapsed = time.monotonic() - start
    got = dict(rows)
    mismatches = []
    for p, printed in REFERENCE_TABLE.items():
        labels = [
            f"rank0 sym p={p}", f"rank0 uni p={p}",
            f"odd sym p={p}", f"odd uni p={p}",
            f"mean sym p={p}", f"mean uni p={p}",
        ]
        for label, expected in zip(labels, printed):
            if got[label] != expected:
                mismatches.append((label, got[label], expected))
    # the printed digit must also be unambiguous: computed values stay
    # clear of the next truncation boundary
    for p, flavor in SIX_PAIRS:
        field = build_field(p, flavor)
        for value in (rd.dist_value(field, 0), rd.odd_mass(field), rd.expected_rank(field)):
            boundary_gap = abs(value * 10000 - round(value * 10000))
            assert boundary_gap > 1e-6
    out = io.StringIO()
    with redirect_stdout(out):
        code = main(["--format", "csv", "table"])
    golden_ok = out.getvalue() == (DATA_DIR / "table1_golden.csv").read_text()
    report(
        "criterion 1: table reproduction (36 printed values + golden file)",
        not mismatches and code == 0 and golden_ok and elapsed < 1.0,
        f"mismatches={mismatches}, elapsed={elapsed:.3f}s",
    )


def test_criterion_2_stationarity():
    start = time.monotonic()
    worst = 0.0
    for p, flavor in SIX_PAIRS:
        field = build_field(p, flavor)
        dist = rd.stationary_distribution(field, 64)
        moved = rd.apply(dist)
        worst = max(worst, float(np.abs(moved.probs - dist.probs).sum()))
    elapsed = time.monotonic() - start
    report(
        "criterion 2: stationarity of the rank distribution",
        worst < 1e-10 and elapsed < 1.0,
        f"worst L1 residual={worst:.2e}, elapsed={elapsed:.3f}s",
    )


def test_criterion_3_moment_identities():
    worst_qr = worst_mean = worst_odd = 0.0
    for p, flavor in SIX_PAIRS:
        field = build_field(p, flavor)
        dist = rd.stationary_distribution(field, 64)
        ranks = np.arange(65, dtype=np.float64)
        qr = float(np.power(float(field.q), ranks) @ dist.probs)
        worst_qr = max(worst_qr, abs(qr - rd.qr_moment(field)))
        mean = float(ranks @ dist.probs)
        worst_mean = max(worst_mean, abs(mean - rd.expected_rank(field)))
        odd = float(dist.probs[1::2].sum())
        worst_odd = max(worst_odd, abs(odd - rd.odd_mass(field)))
    report(
        "criterion 3: moment identities (q^r, mean, odd mass)",
        worst_qr < 1e-8 and worst_mean < 1e-9 and worst_odd < 1e-8,
        f"qr={worst_qr:.2e}, mean={worst_mean:.2e}, odd={worst_odd:.2e}",
    )


def test_criterion_4_isotropic_census():
    start = time.monotonic()
    ok = True
    for p in (2, 3, 5, 7):
        for flavor in Flavor:
            field = build_field(p, flavor)
            space = hyperbolic_plane(field)
            lines = enumerate_isotropic_lines(space)
            # independent route: span every isotropic vector of k^2
            brute = set()
            elems = list(field.elements())
            for v0 in elems:
                for v1 in elems:
                    v = (v0, v1)
                    if any(v) and not evaluate_form(space, v, v):
                        brute.add(Subspace.from_vectors([v], 2))
            plane = build_local_plane(field)
            ok = ok and len(lines) == p + 1 and set(lines) == brute
            ok = ok and len(plane.ramified_lines) == p
            ok = ok and plane.unramified_line not in plane.ramified_lines
    elapsed = time.monotonic() - start
    report(
        "criterion 4: isotropic census (p+1 lines, p ramified)",
        ok and elapsed < 1.0,
        f"elapsed={elapsed:.3f}s",
    )


def test_criterion_5_micro_model_matches_operator():
    ok = True
    for p in (2, 3, 5):
        for flavor in Flavor:
            field = build_field(p, flavor)
            for n in (1, 2):
                for r in range(4):
                    law = ts.micro_transition_law(field, r, n)
                    target = {
                        s: rd.markov_entry_exact(field, r, s)
                        for s in range(max(0, r - 1), r + 2)
                        if rd.markov_entry_exact(field, r, s)
                    }
                    ok = ok and law == target
    report("criterion 5: micro-model transition law equals the operator", ok)


def test_criterion_6_monte_carlo_convergence():
    start = time.monotonic()
    worst_tv = 0.0
    worst_p = 1.0
    for p, flavor in SIX_PAIRS:
        field = build_field(p, flavor)
        emp = ts.simulate(ts.SimConfig(field=field, k=20, samples=1_000_000,
                                       seed=4242, threads=1))
        walked = rd.walk_law(field, 20)
        worst_tv = max(worst_tv, emp.tv_against(walked.probs))
        _, _, pvalue = emp.chi2_against(walked.probs)
        worst_p = min(worst_p, pvalue)
    elapsed = time.monotonic() - start
    field = build_field(2, Flavor.SYMPLECTIC)
    cfg1 = ts.SimConfig(field=field, k=20, samples=200_000, seed=4242, threads=1)
    cfg4 = ts.SimConfig(field=field, k=20, samples=200_000, seed=4242, threads=4)
    invariant = np.array_equal(ts.simulate(cfg1).counts, ts.simulate(cfg4).counts)
    report(
        "criterion 6: Monte Carlo convergence to the operator walk",
        worst_tv < 0.01 and worst_p > 1e-3 and invariant and elapsed < 60.0,
        f"worst TV={worst_tv:.4f}, worst chi2 p={worst_p:.4f}, "
        f"thread-invariant={invariant}, elapsed={elapsed:.1f}s",
    )


def test_criterion_7_stratification_trend():
    start = time.monotonic()
    ladder = ts.FanLadder(2.0)
    # one shared universe reaching the top threshold used below
    p1_norms = ts.build_place_model(ladder.levels(64.0, 2)[-1], 1.0, seed=0)
    ok = True
    detail = []
    for k, xs in ((0, (10.0, 20.0, 40.0, 80.0, 160.0, 320.0)),
                  (1, (2.0, 4.0, 8.0, 16.0, 32.0, 64.0))):
        ratios = [d_k / d_k1 for d_k, d_k1 in
                  (ts.strata_cardinality(p1_norms, ladder, k, x) for x in xs)]
        strictly_decreasing = all(b < a for a, b in zip(ratios, ratios[1:]))
        ok = ok and strictly_decreasing
        detail.append(f"k={k}: " + " > ".join(f"{r:.3g}" for r in ratios))
    elapsed = time.monotonic() - start
    report(
        "criterion 7: stratum cardinality ratio shrinks under doubling",
        ok and elapsed < 10.0,
        f"{'; '.join(detail)}; elapsed={elapsed:.1f}s",
    )


def test_criterion_8_bounds_suite():
    ok = True
    # reference-digit checks through the same truncated rendering
    ok = ok and fmt_trunc4(bounds.fermat_unsolvable_density(3)) == "0.6390"
    ok = ok and fmt_trunc4(bounds.fermat_unsolvable_density(13)) == "0.9226"
    ok = ok and fmt_trunc4(bounds.odd_rank_proportion(2)) == "0.4394"
    ok = ok and fmt_trunc4(bounds.odd_rank_proportion(7)) == "0.1424"
    for p, flavor in SIX_PAIRS:
        field = build_field(p, flavor)
        d0 = bounds.rank_zero_density_bound(field)
        floor = 1 - (field.q // p) / (field.q - 1)
        ok = ok and d0 > floor
        # index-shift identities between the i>=1 and i>=0 product forms
        if flavor is Flavor.SYMPLECTIC:
            if p >= 3:
                ok = ok and abs(
                    bounds.fermat_unsolvable_density(p) - rd.dist_value(field, 0)
                ) < 1e-9
            ok = ok and abs(bounds.odd_rank_proportion(p) - rd.odd_mass(field)) < 1e-9
    report("criterion 8: bounds suite against reference values and identities", ok)
