"""The benchmark's workloads: the operations of one pass and their output checks.

A workload is a fixed list of operations, almost all of them `twistrank`
CLI command lines. One pass runs the list once, back to back, in one
process. Every simulate seed (and the ladder seed) is derived from the
workload seed, so the same seed always gives the same command lines.
Sizes keep a pass of every workload near 0.5 s on a 2-vCPU x86_64 host,
so that a 25-s run fits thirty-one timed passes.

Checks read CLI output with the standard library only and compare it
against references built once, before timing starts. A check raises one
of `CHECK_ERRORS`; an operation passes when it exits 0 and its check holds.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import numpy as np
from scipy.stats import chi2

from twistrank import cli, rankdist, spaces
from twistrank.gf import Flavor, build_field

# A correct kernel that draws different random numbers passes this floor
# with probability 1 - 1e-6 per command, so a failure means a wrong law.
CHI2_PVALUE_FLOOR = 1e-6
CHI2_MIN_EXPECTED = 5.0

# Printed closed-form values must match the exact-rational route this
# closely, on top of the rounding to 12 significant digits the CLI applies.
REL_TOL = 1e-12
# Below the normal float range the CLI's running product loses relative
# precision; differences smaller than this are not errors.
ABS_TOL = 1e-300
# Exact weights below this underflow to 0.0 once multiplied by D(0) <= 1.
UNDERFLOW = Fraction(1, 2**1100)
QR_MOMENT_TOL = 1e-8
# How the CLI rejects the known-defect inputs today: exit code 1 and this
# last line on stderr.
KNOWN_DEFECT_ERROR = "error: int too large to convert to float"


class CheckFailed(Exception):
    """An operation's output is wrong."""


# What a check raises on output it cannot read: each counts as wrong output.
CHECK_ERRORS = (CheckFailed, LookupError, ValueError, TypeError, csv.Error)


@dataclass
class Op:
    """One operation of a pass.

    `run` prints the operation's output to stdout and returns its exit
    code; `check` raises CheckFailed on wrong output. `twin` is the index
    of an earlier op whose output must be identical except for the
    `threads` parameter. `known_defect` marks an in-domain input that the
    program is known to reject today; it still has to pass to count as ok.
    """

    label: str
    run: Callable[[], int]
    check: Callable[[str], None]
    fmt: str = "table"
    twin: int | None = None
    known_defect: bool = False


def cli_op(command: str, check: Callable[[dict, list], None], known_defect: bool = False,
           twin: int | None = None) -> Op:
    """An op that runs one CLI command line and checks its parsed output."""
    argv = command.split()
    fmt = argv[argv.index("--format") + 1] if "--format" in argv else "table"

    def run() -> int:
        # looked up on every call, so the traced run sees its wrapper
        return cli.main(argv)

    def check_text(text: str) -> None:
        check(*parse_record(text, fmt))

    return Op(label=command, run=run, check=check_text, fmt=fmt, twin=twin,
              known_defect=known_defect)


# ---------------------------------------------------------------- parsing

def parse_record(text: str, fmt: str) -> tuple[dict[str, str], list[tuple[str, str]]]:
    """The params and rows of one CLI output, in any of the three formats.

    Raises one of CHECK_ERRORS on output that is not a record."""
    if fmt == "json":
        payload = json.loads(text)
        return dict(payload["params"]), [(label, value) for label, value in payload["rows"]]
    if fmt == "csv":
        params, rows = {}, []
        for section, key, value in list(csv.reader(io.StringIO(text)))[1:]:
            if section == "param":
                params[key] = value
            elif section == "row":
                rows.append((key, value))
        return params, rows
    lines = text.splitlines()
    params = dict(line[2:].split(": ", 1) for line in lines if line.startswith("# "))
    params.pop("command", None)
    body = [line for line in lines if not line.startswith("# ")]
    if not body:
        return params, []
    # Labels are left-justified to a common width and followed by two
    # spaces; labels hold no double space, so the first column that is a
    # double space on every line is the label width.
    for width in range(1, min(len(line) for line in body)):
        if all(line[width:width + 2] == "  " and line[width + 2:width + 3].strip()
               for line in body):
            return params, [(line[:width].rstrip(), line[width + 2:]) for line in body]
    raise CheckFailed("unreadable table output: no label column")


def _number(value: str) -> float:
    try:
        x = float(value)
    except ValueError:
        raise CheckFailed(f"not a number: {value!r}") from None
    if not math.isfinite(x):
        raise CheckFailed(f"not finite: {value!r}")
    return x


def _close(printed: str, expected: float, rel: float = REL_TOL) -> bool:
    got = _number(printed)
    quantum = 0.5 * 10.0 ** (math.floor(math.log10(abs(got))) - 11) if got else 0.0
    return abs(got - expected) <= rel * abs(expected) + quantum + ABS_TOL


def _expect(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


# ---------------------------------------------------------- closed forms

def rank0_mass(field) -> float:
    """D(0) = prod_{i>=0} (1 + q^(-i-eps))^(-1), summed in log space."""
    terms = []
    i = 0
    while (t := 1.0 / (field.p * float(field.q) ** i)) > 1e-20:
        terms.append(math.log1p(t))
        i += 1
    return math.exp(-math.fsum(terms))


def mean_rank(field) -> float:
    """sum_{i>=0} 1/(1 + q^(i+eps))."""
    terms = []
    i = 0
    while (t := 1.0 / (1.0 + field.p * float(field.q) ** i)) > 1e-20:
        terms.append(t)
        i += 1
    return math.fsum(terms)


def dist_reference(field, r_max: int) -> list[float]:
    """D(0) * stationary_weight_exact(r) for r = 0..r_max, rounded once."""
    d0 = Fraction(rank0_mass(field))
    out = []
    for r in range(r_max + 1):
        w = rankdist.stationary_weight_exact(field, r)
        if w < UNDERFLOW:
            # weights only shrink with r, so every later value is 0.0 too
            return out + [0.0] * (r_max + 1 - r)
        out.append(float(d0 * w))
    return out


def walk_law(field, k: int, y: float | None) -> np.ndarray:
    """Law of the rank after k kernel steps from rank 0.

    The coin is marginally Bernoulli(p0) with p0 = q^-r, or in the
    bounded-error mode E[clip(q^-r + U/y, 0, 1)] for U uniform on
    [-1, 1]; at rank 0 the coin is always 1.
    """
    p0 = np.power(float(field.q), -np.arange(k + 1, dtype=np.float64))
    if y is not None:
        h = 1.0 / y

        def clip_integral(x):
            return np.where(x <= 0, 0.0, np.where(x >= 1, x - 0.5, 0.5 * x * x))

        p0 = (clip_integral(p0 + h) - clip_integral(p0 - h)) / (2.0 * h)
    p0[0] = 1.0
    up = p0 / field.p
    stay = p0 - up
    down = 1.0 - p0
    law = np.zeros(k + 1)
    law[0] = 1.0
    for _ in range(k):
        nxt = law * stay
        nxt[:-1] += law[1:] * down[1:]
        nxt[1:] += law[:-1] * up[:-1]
        law = nxt
    return law


def chi2_pvalue(counts: np.ndarray, law: np.ndarray) -> float:
    """Pearson goodness of fit, pooling the upper tail to 5 expected."""
    n = max(len(counts), len(law))
    observed = np.zeros(n)
    expected = np.zeros(n)
    observed[: len(counts)] = counts
    expected[: len(law)] = law * counts.sum()
    if (observed[expected == 0] > 0).any():
        return 0.0
    live = expected > 0
    observed, expected = observed[live], expected[live]
    tail = np.cumsum(expected[::-1])[::-1]
    top = int(np.nonzero(tail >= CHI2_MIN_EXPECTED)[0][-1])
    observed = np.append(observed[:top], observed[top:].sum())
    expected = np.append(expected[:top], expected[top:].sum())
    if len(expected) < 2:
        return 1.0
    stat = float(((observed - expected) ** 2 / expected).sum())
    return float(chi2.sf(stat, len(expected) - 1))


# ---------------------------------------------------------------- checks

def check_simulate(field, k: int, samples: int, offset: int, y: float | None):
    law = np.concatenate([np.zeros(offset), walk_law(field, k, y)])

    def check(params, rows):
        counts = {int(label[6:-1]): int(value) for label, value in rows
                  if label.startswith("count(")}
        _expect(counts and sorted(counts) == list(range(len(counts))), "count rows missing")
        hist = np.array([counts[r] for r in range(len(counts))], dtype=np.int64)
        _expect(int(hist.sum()) == samples, f"counts sum to {hist.sum()}, not {samples}")
        pvalue = chi2_pvalue(hist, law)
        _expect(pvalue >= CHI2_PVALUE_FLOOR,
                f"chi2 p-value {pvalue:.3g} against the k-step law is below {CHI2_PVALUE_FLOOR}")

    return check


def check_golden(golden: str):
    def check(text: str) -> None:
        _expect(text == golden, "table output differs from tests/data/table1_golden.csv")

    return check


def check_table_subset(golden_rows: list[tuple[str, str]], primes: list[int]):
    wanted = [(label, value) for label, value in golden_rows
              if int(label.rsplit("p=", 1)[1]) in primes]

    def check(params, rows):
        _expect(rows == wanted, "table rows differ from the golden rows for these primes")

    return check


def check_dist(field, r_max: int):
    reference = dist_reference(field, r_max)

    def check(params, rows):
        _expect([label for label, _ in rows] == [f"D({r})" for r in range(r_max + 1)],
                "dist rows are not D(0)..D(rmax)")
        for r, ((_, value), want) in enumerate(zip(rows, reference)):
            _expect(_close(value, want), f"D({r}) = {value}, expected {want!r}")

    return check


def check_moments(field):
    formula = 1 + field.q // field.p

    def check(params, rows):
        values = dict(rows)
        _expect(_number(values["qr_moment_formula"]) == formula,
                f"qr_moment_formula is not {formula}")
        series = _number(values["qr_moment_series"])
        _expect(abs(series - formula) <= QR_MOMENT_TOL * formula,
                f"qr_moment_series {series} disagrees with the formula {formula}")

    return check


def check_bounds(p: int, deg_k: int):
    fields = {flavor.value: build_field(p, flavor) for flavor in Flavor}

    def check(params, rows):
        values = dict(rows)
        for label, value in rows:
            if not label.endswith(".formula"):
                _expect(_number(value) >= 0, f"{label} is negative")
                _expect(label + ".formula" in values, f"{label} has no formula row")
        for name, field in fields.items():
            got = values[f"rank_zero_density[{name}]"]
            _expect(_close(got, rank0_mass(field)), f"rank_zero_density[{name}] = {got}")
            got = values[f"avg_rank_bound[{name}]"]
            _expect(_close(got, deg_k * mean_rank(field)), f"avg_rank_bound[{name}] = {got}")

    return check


def check_ladder(depth: int, k: int | None):
    def check(params, rows):
        values = dict(rows)
        levels = [_number(values[f"L{i}"]) for i in range(1, depth + 1)]
        _expect(levels == sorted(levels), "ladder levels decrease")
        if k is not None:
            lo, hi = int(values[f"D_{k}"]), int(values[f"D_{k + 1}"])
            _expect(lo > 0 and hi > 0, "empty stratum")
            _expect(_close(values["ratio"], lo / hi), "ratio is not D_k / D_{k+1}")

    return check


class PlaneForm:
    """h(v, v) on the hyperbolic plane over F_p or F_{p^2}, computed here
    rather than with twistrank.gf.

    An element c0 + c1*x is the pair (c0, c1). The quadratic modulus is
    the one build_field documents: x^2 + x + 1 for p = 2, otherwise
    x^2 - n with n the smallest non-residue mod p.
    """

    def __init__(self, p: int, flavor: Flavor):
        self.p = p
        self.unitary = flavor is Flavor.UNITARY
        if p == 2:
            self.x_squared = (1, 1)
        else:
            self.x_squared = (next(a for a in range(2, p) if pow(a, (p - 1) // 2, p) == p - 1), 0)
        x_to_p, base, e = (1, 0), (0, 1), p
        while e:
            if e & 1:
                x_to_p = self.mul(x_to_p, base)
            base, e = self.mul(base, base), e >> 1
        self.x_to_p = x_to_p

    def mul(self, a, b):
        cross = a[1] * b[1]
        return ((a[0] * b[0] + cross * self.x_squared[0]) % self.p,
                (a[0] * b[1] + a[1] * b[0] + cross * self.x_squared[1]) % self.p)

    def conj(self, a):
        """Frobenius a -> a^p, the identity on F_p."""
        c0, c1 = a
        return ((c0 + c1 * self.x_to_p[0]) % self.p, (c1 * self.x_to_p[1]) % self.p)

    def parse(self, text: str) -> tuple[int, int]:
        """An element as the CLI prints it: `3`, `x`, `5x` or `5x+3`."""
        if "x" in text:
            c1, _, c0 = text.partition("x")
            value = (int(c0[1:]) if c0 else 0, int(c1) if c1 else 1)
        else:
            value = (int(text), 0)
        _expect(all(0 <= c < self.p for c in value) and (self.unitary or not value[1]),
                f"{text!r} is not an element of the field")
        return value

    def self_pairing(self, v) -> tuple[int, int]:
        """h(v, v) for the Gram matrix ((0, 1), (-1, 0)) of the symplectic
        plane or ((0, 1), (1, 0)) of the unitary one."""
        a, b = self.mul(v[0], self.conj(v[1])), self.mul(v[1], self.conj(v[0]))
        sign = 1 if self.unitary else -1
        return ((a[0] + sign * b[0]) % self.p, (a[1] + sign * b[1]) % self.p)


def check_isotropic(p: int, flavor: Flavor, n: int):
    form = PlaneForm(p, flavor)
    zero, one = (0, 0), (1, 0)

    def check(params, rows):
        values = dict(rows)
        _expect(values.get("lines_total") == str(p + 1), "lines_total is not p+1")
        _expect(values.get("fiber_size") == str(p ** (2 * n - 2) * (p - 1)),
                "fiber_size is not p^(2n-2)(p-1)")
        ramified = [label for label, _ in rows if label.startswith("ramified[")]
        _expect(ramified == [f"ramified[{i}]" for i in range(p)], "not p ramified rows")
        keys = []
        for label, value in rows:
            if not label.startswith(("ramified[", "unramified")):
                continue
            _expect(value[:1] == "(" and value[-1:] == ")", f"{label} is not a vector: {value!r}")
            v = tuple(form.parse(c) for c in value[1:-1].split(", "))
            _expect(len(v) == 2, f"{label} is not a vector of the plane: {value!r}")
            _expect(v[0] == one or (v[0] == zero and v[1] == one),
                    f"{label} {value} is not a canonical line basis")
            _expect(form.self_pairing(v) == zero, f"{label} {value} is not isotropic")
            keys.append(tuple(c0 + c1 * p for c0, c1 in v))
        # canonical bases of distinct lines differ; the CLI sorts them by encoding
        _expect(len(keys) == p + 1 and keys == sorted(set(keys)),
                "the lines are not p+1 distinct isotropic lines in canonical order")

    return check


# ---------------------------------------------------------------- census

def two_dim_subspaces(field, dim: int = 4) -> list[spaces.Subspace]:
    """Every 2-dim subspace of field^dim, as its reduced echelon basis."""
    elements = list(field.elements())
    zero, one = field.zero(), field.one()
    out = []
    for i, j in itertools.combinations(range(dim), 2):
        free1 = [c for c in range(i + 1, dim) if c != j]
        free2 = list(range(j + 1, dim))
        for values in itertools.product(elements, repeat=len(free1) + len(free2)):
            row1, row2 = [zero] * dim, [zero] * dim
            row1[i] = row2[j] = one
            for c, v in zip(free1, values):
                row1[c] = v
            for c, v in zip(free2, values[len(free1):]):
                row2[c] = v
            out.append(spaces.Subspace(ambient_dim=dim, basis=(tuple(row1), tuple(row2))))
    return out


def census_op(p: int, flavor: Flavor) -> Op:
    """Count the Lagrangians of metabolic_space(field, 2) by testing every
    2-dim subspace with is_maximal_isotropic. The candidates are built
    here, outside the timed pass."""
    field = build_field(p, flavor)
    space = spaces.metabolic_space(field, 2)
    candidates = two_dim_subspaces(field)
    q = field.q
    expected = (p + 1) * (p * p + 1) if flavor is Flavor.SYMPLECTIC else (p + 1) * (p**3 + 1)
    n_subspaces = (q * q + 1) * (q * q + q + 1)

    def run() -> int:
        found = sum(spaces.is_maximal_isotropic(space, sub) for sub in candidates)
        print(f"{found} of {len(candidates)}")
        return 0

    def check(text: str) -> None:
        _expect(text == f"{expected} of {n_subspaces}\n",
                f"census found {text.strip()}, expected {expected} of {n_subspaces}")

    return Op(label=f"census {flavor.value} p={p}", run=run, check=check, fmt="text")


# ------------------------------------------------------------- workloads

def _seeds(name: str, seed: int):
    rng = random.Random(f"{name}/{seed}")
    while True:
        yield rng.randrange(1, 2**31)


def sim_op(p: int, flavor: str, k: int, samples: int, seed: int, extra: str = "",
           fmt: str | None = None, twin: int | None = None) -> Op:
    command = f"simulate --p {p} --flavor {flavor} --k {k} --samples {samples} --seed {seed}"
    command = (f"--format {fmt} " if fmt else "") + command + (f" {extra}" if extra else "")
    argv = command.split()
    y = float(argv[argv.index("--y") + 1]) if "--y" in argv else None
    offset = 1 if "--shift fd" in command else 0
    field = build_field(p, Flavor.parse(flavor))
    return cli_op(command, check_simulate(field, k, samples, offset, y), twin=twin)


def sim_wide(seed: int, root: Path) -> list[Op]:
    """k = 20: the walk kernel and chunk pool, 16 chunks at 1 and 2 threads."""
    seeds = _seeds("sim-wide", seed)
    s1, s2 = next(seeds), next(seeds)
    return [
        sim_op(2, "sym", 20, 262_144, s1, "--threads 1"),
        sim_op(2, "sym", 20, 262_144, s1, "--threads 2", twin=0),
        sim_op(3, "uni", 20, 131_072, s2, "--y 50", fmt="json"),
    ]


def sim_deep(seed: int, root: Path) -> list[Op]:
    """k = 1000, one 4096-sample chunk: deep walk, O(k^2) reference law."""
    seeds = _seeds("sim-deep", seed)
    return [
        sim_op(2, "sym", 1000, 4096, next(seeds)),
        sim_op(3, "uni", 1000, 4096, next(seeds), "--shift fd", fmt="csv"),
    ]


def exact(seed: int, root: Path) -> list[Op]:
    """Closed forms, bounds and rendering; no walk and no field arithmetic."""
    golden = (root / "tests" / "data" / "table1_golden.csv").read_text(encoding="utf-8")
    golden_rows = [(key, value) for section, key, value in csv.reader(io.StringIO(golden))
                   if section == "row"]
    ladder_seed = next(_seeds("exact", seed))

    def field(p, flavor):
        return build_field(p, Flavor.parse(flavor))

    ops = [
        Op(label="--format csv table", run=lambda: cli.main(["--format", "csv", "table"]),
           check=check_golden(golden), fmt="csv"),
        cli_op("--format json table --p 2,3", check_table_subset(golden_rows, [2, 3])),
        cli_op("dist --p 2 --flavor sym --rmax 500", check_dist(field(2, "sym"), 500)),
        cli_op("--format json dist --p 3 --flavor uni --rmax 300",
               check_dist(field(3, "uni"), 300)),
        cli_op("dist --p 5 --flavor sym --rmax 60", check_dist(field(5, "sym"), 60)),
        cli_op("--format csv dist --p 32749 --flavor uni --rmax 20",
               check_dist(field(32749, "uni"), 20)),
        cli_op("moments --p 2 --flavor sym", check_moments(field(2, "sym"))),
        cli_op("--format json moments --p 3 --flavor uni", check_moments(field(3, "uni"))),
        cli_op("--format csv moments --p 32749 --flavor sym", check_moments(field(32749, "sym"))),
        cli_op("bounds --p 2", check_bounds(2, 1)),
        cli_op("--format json bounds --p 3 --degK 2", check_bounds(3, 2)),
        cli_op("--format csv bounds --p 32749 --degK 3", check_bounds(32749, 3)),
        cli_op(f"ladder --x 10 --exponent 2 --depth 4 --k 1 --seed {ladder_seed}",
               check_ladder(4, 1)),
        cli_op(f"--format json ladder --x 100 --exponent 1 --depth 3 --k 2 --density 0.5 "
               f"--seed {ladder_seed}", check_ladder(3, 2)),
        cli_op("--format csv ladder --x 50 --exponent 2 --depth 3", check_ladder(3, None)),
    ]
    # In-domain inputs that exit 1 today ("int too large to convert to
    # float"); they stay so that the failure share records the defect.
    ops += [
        cli_op("dist --p 2 --flavor sym --rmax 1200", check_dist(field(2, "sym"), 1200),
               known_defect=True),
        cli_op("--format json dist --p 3 --flavor uni --rmax 400",
               check_dist(field(3, "uni"), 400), known_defect=True),
        cli_op("moments --p 1009 --flavor uni", check_moments(field(1009, "uni")),
               known_defect=True),
    ]
    return ops


def geometry(seed: int, root: Path) -> list[Op]:
    """Isotropic lines and a Lagrangian census: F_q arithmetic and spaces."""
    sym, uni = Flavor.SYMPLECTIC, Flavor.UNITARY
    ops = [
        cli_op("isotropic --p 47 --flavor uni", check_isotropic(47, uni, 1)),
        cli_op("--format csv isotropic --p 3067 --flavor sym --n 2",
               check_isotropic(3067, sym, 2)),
        cli_op("--format json isotropic --p 3 --flavor sym", check_isotropic(3, sym, 1)),
        cli_op("isotropic --p 2 --flavor uni", check_isotropic(2, uni, 1)),
        cli_op("--format json isotropic --p 5 --flavor uni --n 2", check_isotropic(5, uni, 2)),
        cli_op("--format csv isotropic --p 7 --flavor sym", check_isotropic(7, sym, 1)),
    ]
    ops += [census_op(p, flavor) for p, flavor in ((2, sym), (2, uni), (3, sym))]
    return ops


WORKLOADS = {
    "sim-wide": sim_wide,
    "sim-deep": sim_deep,
    "exact": exact,
    "geometry": geometry,
}
