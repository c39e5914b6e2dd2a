"""Command-line frontend.

Data goes to stdout (or --out), diagnostics to stderr; the exit code is
zero exactly when no error occurred. Printed values for a fixed command
line are byte-identical across runs.
"""

from __future__ import annotations

import argparse
import inspect
import math
import sys
from decimal import ROUND_DOWN, Decimal

import numpy as np

from . import bounds as bounds_mod
from . import rankdist, twistsim
from .gf import MAX_P, Flavor, build_field, format_elem, is_prime
from .records import OutputRecord
from .spaces import fiber_size, hyperbolic_plane, isotropic_slopes
from .twistsim import SimConfig

TABLE_PRIMES = (2, 3, 5, 7, 11, 13)

# simulate prints every rank that holds a count, and every rank at or above
# which the run expects more than this many samples
LEAK_BOUND = 2.0**-64


class ConfigError(ValueError):
    """Malformed simulation config document."""


def fmt_trunc4(value: float) -> str:
    """Truncate toward zero to 4 decimals (the reference-table convention)."""
    return str(Decimal(repr(float(value))).quantize(Decimal("0.0001"), rounding=ROUND_DOWN))


def fmt(value: float) -> str:
    return f"{float(value):.12g}"


def _parse_prime(text: str) -> int:
    p = int(text)
    # build_field refuses a p past MAX_P, whose primality test would not finish
    if p <= MAX_P and not is_prime(p):
        raise ValueError(f"p must be prime, got {p}")
    return p


def _parse_prime_list(text: str) -> list[int]:
    primes = [_parse_prime(tok) for tok in text.split(",") if tok.strip()]
    if not primes:
        raise ValueError("no primes given")
    return primes


def _parse_y(text: str) -> float | None:
    if text.strip().lower() == "exact":
        return None
    y = float(text)
    if not (math.isfinite(y) and y > 0):
        raise ValueError(f"y = {y} is not positive and finite")
    return y


def _parse_shift(text: str) -> int:
    """The rank shift: 'fd' is 1, 'notfd' is 0 and 'notfd:<r>' is r >= 0."""
    kind, colon, r = text.strip().lower().partition(":")
    if kind == "fd" and not colon:
        return 1
    shift = int(r) if colon else 0
    if kind != "notfd" or shift < 0:
        raise ValueError(f"bad shift spec {text!r}")
    return shift


def cmd_table(p_list) -> list[tuple[str, str]]:
    """The grid of rank-0 mass, odd mass, and mean rank per prime and flavor."""
    rows = []
    for p in p_list:
        for stat, func in (
            ("rank0", lambda f: rankdist.dist_value(f, 0)),
            ("odd", rankdist.odd_mass),
            ("mean", rankdist.expected_rank),
        ):
            for flavor in (Flavor.SYMPLECTIC, Flavor.UNITARY):
                field = build_field(p, flavor)
                rows.append((f"{stat} {flavor.value} p={p}", fmt_trunc4(func(field))))
    return rows


def cmd_dist(p: int, flavor: Flavor, r_max: int) -> list[tuple[str, str]]:
    dist = rankdist.stationary_distribution(build_field(p, flavor), r_max)
    # Python floats format faster than boxed np.float64 scalars
    return [(f"D({r})", fmt(value)) for r, value in enumerate(dist.tolist())]


def cmd_moments(p: int, flavor: Flavor) -> list[tuple[str, str]]:
    field = build_field(p, flavor)
    return [
        ("expected_rank", fmt(rankdist.expected_rank(field))),
        ("qr_moment_formula", fmt(rankdist.qr_moment(field))),
        ("qr_moment_series", fmt(rankdist.qr_moment_by_series(field))),
        ("odd_mass", fmt(rankdist.odd_mass(field))),
        ("beta", fmt(rankdist.beta(field))),
    ]


def cmd_bounds(p: int, deg_k: int) -> list[tuple[str, str]]:
    rows = []
    for report in bounds_mod.reports(p, deg_k):
        label = f"{report.name}[{report.flavor.value}]"
        rows.append((label, fmt(report.value)))
        rows.append((label + ".formula", report.formula))
    return rows


def cmd_isotropic(p: int, flavor: Flavor, n: int) -> list[tuple[str, str]]:
    """Lines by canonical basis, from isotropic_slopes: the first is the
    unramified line, the other p are the ramified lines of the micro model."""
    first, *ramified = isotropic_slopes(hyperbolic_plane(build_field(p, flavor)))
    rows = [("lines_total", str(p + 1)), ("fiber_size", str(fiber_size(p, n))),
            ("unramified", "(0, 1)" if first is None else f"(1, {format_elem(*first)})")]
    return rows + [(f"ramified[{i}]", f"(1, {format_elem(a, b)})")
                   for i, (a, b) in enumerate(ramified)]


def cmd_simulate(p, flavor, k, samples, seed, shift, y, threads) -> list[tuple[str, str]]:
    config = SimConfig(field=build_field(p, flavor), k=k, samples=samples, seed=seed,
                       shift=shift, chebotarev_y=y, threads=threads)
    empirical = twistsim.simulate(config)
    reference = empirical.reference
    tv = empirical.tv_against(reference)
    stat, dof, pvalue = empirical.chi2_against(reference)
    rows = [
        ("tv", fmt(tv)),
        ("chi2", fmt(stat)),
        ("chi2_dof", str(dof)),
        ("chi2_pvalue", fmt(pvalue)),
    ]
    # through the last rank a count reached, or the last whose tail (the
    # mass at or above it) exceeds LEAK_BOUND / samples, whichever is higher
    tail = np.cumsum(reference[::-1])[::-1]
    ranks = 1 + max(np.flatnonzero(empirical.counts)[-1],
                    np.flatnonzero(samples * tail > LEAK_BOUND)[-1])
    columns = (a[:ranks] for a in (empirical.counts, empirical.probs(), reference))
    for r, (count, e, ref) in enumerate(zip(*columns)):
        rows.append((f"count({r})", str(count)))
        rows.append((f"emp({r})", fmt(e)))
        rows.append((f"ref({r})", fmt(ref)))
    return rows


def cmd_ladder(x: float, exponent: float, depth: int, k: int | None, density: float,
               seed: int, sieve_cap: int) -> list[tuple[str, str]]:
    if k is not None and k < 0:
        raise ValueError(f"k must be non-negative, got {k}")
    if sieve_cap < 2:
        raise ValueError(f"sieve_cap must be >= 2, got {sieve_cap}")
    ladder = twistsim.FanLadder(exponent)
    rows = [(f"L{i + 1}", fmt(level)) for i, level in enumerate(ladder.levels(x, depth))]
    if k is None:
        # density and seed are checked as the counts below check them, with
        # an x that always passes
        twistsim.check_place_model(2, density, seed)
        return rows
    # the levels never decrease, so the first past the sieve cap fails the
    # top one; at x = 1 they are all 1, and at most the place 2 exists, so
    # the strata read only the first
    levels = []
    for top in ladder.iter_levels(x):
        if not top <= sieve_cap:
            raise ValueError(
                f"stratum k={k + 1} needs places up to at least {top:.3g}, beyond the "
                f"sieve cap {sieve_cap}; lower x or k, or raise --sieve-cap"
            )
        levels.append(top)
        if len(levels) == k + 1 or x == 1:
            break
    # below 2 there is no place, and every threshold keeps the place 2 out
    n, usable = twistsim.count_places(max(top, 2), levels, density, seed)
    d_k, d_k1 = twistsim.strata_from_counts(usable, n, k)
    if d_k1 == 0:
        raise ValueError(f"stratum k={k + 1} is empty at x={x}; enlarge x")
    return rows + [(f"D_{k}", str(d_k)), (f"D_{k + 1}", str(d_k1)), ("ratio", fmt(d_k / d_k1))]


# each parser with what a valid value is and how a parsed value is echoed
PRIME = (_parse_prime, "a prime", str)
PRIMES = (_parse_prime_list, "a comma-separated list of primes",
          lambda primes: ",".join(map(str, primes)))
FLAVOR = (Flavor.parse, "'sym' or 'uni'", lambda flavor: flavor.value)
INT = (int, "an integer", str)
NUMBER = (float, "a number", fmt)
SHIFT = (_parse_shift, "'fd' or 'notfd:<r>' with r >= 0", lambda r: f"notfd:{r}")
Y = (_parse_y, "a positive finite number or 'exact'", lambda y: "exact" if y is None else fmt(y))

REQUIRED = object()

# per command: its function, its help, and per flag its parser and default
# (REQUIRED, None for absent, or the text of the value); the flags are in the
# order of the function's parameters and of the echoed params
COMMANDS = {
    "table": (cmd_table, "the rank-0/odd/mean grid per prime and flavor",
              {"p": (PRIMES, ",".join(str(p) for p in TABLE_PRIMES))}),
    "dist": (cmd_dist, "tabulate the rank distribution",
             {"p": (PRIME, REQUIRED), "flavor": (FLAVOR, REQUIRED), "rmax": (INT, "10")}),
    "moments": (cmd_moments, "moments and odd mass of the distribution",
                {"p": (PRIME, REQUIRED), "flavor": (FLAVOR, REQUIRED)}),
    "bounds": (cmd_bounds, "density and rank-growth bounds",
               {"p": (PRIME, REQUIRED), "degK": (INT, "1")}),
    # simulate's flags are also the keys of its config document
    "simulate": (cmd_simulate, "run the twisting rank-walk simulator", {
        "p": (PRIME, "2"), "flavor": (FLAVOR, "sym"), "k": (INT, "0"),
        "samples": (INT, "10000"), "seed": (INT, "0"), "shift": (SHIFT, "notfd:0"),
        "y": (Y, "exact"), "threads": (INT, "1"),
    }),
    "isotropic": (cmd_isotropic, "list the isotropic lines of the local plane",
                  {"p": (PRIME, REQUIRED), "flavor": (FLAVOR, REQUIRED), "n": (INT, "1")}),
    "ladder": (cmd_ladder, "norm-threshold ladder and stratum counts", {
        "x": (NUMBER, REQUIRED), "exponent": (NUMBER, "2.0"), "depth": (INT, "5"),
        "k": (INT, None), "density": (NUMBER, "1.0"), "seed": (INT, "0"),
        "sieve-cap": (INT, str(50_000_000)),
    }),
}
SIM_CONFIG_FIELDS = COMMANDS["simulate"][2]


def load_sim_config(path: str) -> dict[str, tuple[str, int]]:
    """Parse the flat key=value config document for the simulator into
    key -> (value, line number)."""
    options: dict[str, tuple[str, int]] = {}
    try:
        with open(path, encoding="utf-8-sig") as handle:
            lines = handle.readlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from None
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw.strip()!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in SIM_CONFIG_FIELDS:
            raise ConfigError(
                f"{path}:{lineno}: unknown field {key!r} "
                f"(known fields: {', '.join(SIM_CONFIG_FIELDS)})"
            )
        if not value:
            raise ConfigError(f"{path}:{lineno}: field {key!r} has no value")
        if key in options:
            raise ConfigError(f"{path}:{lineno}: field {key!r} repeats line {options[key][1]}")
        options[key] = (value, lineno)
    return options


def run_command(args) -> OutputRecord:
    """Take each value from its flag, else the config (simulate only), else
    its default, parse it and call the command. A value that does not parse,
    and a range error whose message starts with the name of a flag or of its
    parameter, is reported with the flag or file:line it came from. The
    params echo every flag that has a value, in table order."""
    func, _, fields = COMMANDS[args.cmd]
    path = getattr(args, "config", None)
    options = load_sim_config(path) if path else {}
    values, params, sources = [], {}, {}
    names = inspect.signature(func).parameters
    for (flag, (parser, default)), name in zip(fields.items(), names, strict=True):
        parse, expected, echo = parser
        text, where = vars(args)[flag], f"--{flag}"
        if text is None and flag in options:
            text, lineno = options[flag]
            where = f"{path}:{lineno}: field {flag!r}"
        elif text is None:
            text = default
        sources[flag] = sources[name] = where
        value = None
        if text is not None:
            try:
                value = parse(text)
            except ValueError:
                raise ValueError(f"{where} must be {expected}, got {text!r}") from None
            params[flag] = echo(value)
        values.append(value)
    try:
        rows = func(*values)
    except ValueError as exc:
        name, _, rest = str(exc).partition(" ")
        if name not in sources:
            raise
        raise ValueError(f"{sources[name]} {rest}") from None
    return OutputRecord(command=args.cmd, params=params, rows=rows)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="twistrank",
        description="Rank statistics of twist families: distributions, bounds, "
                    "isotropic structures, and Monte Carlo simulation.",
    )
    parser.add_argument("--format", choices=("csv", "json", "table"), default="table",
                        help="output encoding (default: table)")
    parser.add_argument("--out", metavar="PATH", default=None,
                        help="write output to PATH instead of stdout")
    sub = parser.add_subparsers(dest="cmd", required=True)
    for cmd, (_, help_text, fields) in COMMANDS.items():
        sp = sub.add_parser(cmd, help=help_text)
        if cmd == "simulate":
            sp.add_argument("config", nargs="?", help="flat key=value config document")
        for flag, ((_, expected, _), default) in fields.items():
            if default not in (REQUIRED, None):
                expected += f" (default: {default})"
            sp.add_argument(f"--{flag}", dest=flag, required=default is REQUIRED,
                            help=expected)
    return parser


PARSER = build_parser()


def main(argv=None) -> int:
    args = PARSER.parse_args(argv)
    try:
        record = run_command(args)
    except (ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        # a MemoryError raised by the allocator itself carries no message
        reason = f": {exc}" if str(exc) else ""
        print(f"error: out of memory{reason}", file=sys.stderr)
        return 1
    text = record.render(args.format)
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as handle:
                handle.write(text)
        except OSError as exc:
            print(f"error: cannot write {args.out!r}: {exc}", file=sys.stderr)
            return 1
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
