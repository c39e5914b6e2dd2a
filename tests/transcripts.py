"""The output corpus: each command line of corpus() with the sha256 of its
stdout, its stderr text and its exit code, as tests/data/transcripts.json
pins them.

    PYTHONPATH=src python tests/transcripts.py

replays every command line in-process through cli.main, rewrites the file
and prints each command line whose entry changed, was added or was dropped.

The corpus detects changes; it is not an oracle. It pins today's output,
whatever it is, and correctness comes from the tests that compute the
values another way. Re-pin it only on purpose, and name the changed
command lines with the change.

Command lines that argparse answers (exit 2, --help) are left out: their
text depends on the Python version and the terminal width.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import shlex
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from twistrank import cli

ROOT = Path(__file__).resolve().parent.parent
CORPUS_PATH = ROOT / "tests" / "data" / "transcripts.json"
README = ROOT / "README.md"

PRIMES = (2, 3, 5, 7, 13, 101, 1009, 3067, 32749)
FLAVORS = ("sym", "uni")
FORMATS = ([], ["--format", "csv"], ["--format", "json"])
# fields where a printed scalar sits near a rounding boundary of its 12 digits
NEAR_BOUNDARY_PRIMES = (11, 41, 59, 1511, 1657, 4027, 12277, 17749)
HUGE_P = str(2**89 - 1)

# the config documents the corpus reads, by file name, written into the
# directory it runs in; every other file name there is absent
CONFIGS = {
    "bad-line.cfg": "p = 2\nk 3\n",
    "bad-value.cfg": "# header\n\nk = -3\n",
    "huge-p.cfg": f"p = {HUGE_P}\n",
    "old-n.cfg": "p = 2\nflavor = sym\nk = 5\nn = 1\n",
    "repeated.cfg": "p = 2\nk = 1\np = 3\n",
    "not-utf8.cfg": b"p = 2\nflavor = \xff\n",
    "bom.cfg": "\ufeffp = 3\nshift = fd\n",
}

# ladder --k inputs of the grid x in 2..40, 50, 60, 80, 100, 200, 500, 1000,
# exponent in 1, 1.5, 2 and k in 0..5 that a C(n, j) < 2^63 guard on all n
# places refuses
LADDER_PAST_INT64 = [
    ("2", "1", 5), ("3", "1", 4), ("3", "1.5", 3), ("4", "1", 4),
    *((str(x), "1", 3) for x in range(11, 20)),
]


def readme_blocks() -> list[str]:
    """The fenced blocks of README.md, each with its info string line."""
    return README.read_text(encoding="utf-8").split("```")[1::2]


def readme_config() -> str:
    """README's example config document, run.cfg."""
    return next(block for block in readme_blocks() if block.lstrip().startswith("# run.cfg"))


def readme_cli_examples() -> list[list[str]]:
    """The argv of each `twistrank ...` line in README.md."""
    return [line.split(" #", 1)[0].split()[1:]
            for block in readme_blocks() for line in block.splitlines()
            if line.startswith("twistrank ")]


def error_argv() -> list[list[str]]:
    """The command lines README quotes an error line for, and the error
    inputs of tests/test_cli.py that need no file of their own."""
    return [
        # README
        ["dist", "--p", "2", "--flavor", "sym", "--rmax", "x"],
        ["bounds", "--p", "3", "--degK", "0"],
        ["dist", "--p", "2", "--flavor", "sym", "--rmax", "100000000000000000"],
        ["ladder", "--x", "10", "--k", str(10**30)],
        ["ladder", "--x", "1", "--exponent", "1", "--k", str(10**30)],
        ["ladder", "--x", "10", "--depth", "10001"],
        ["ladder", "--x", "10", "--depth", str(10**30)],
        ["simulate", "bad-value.cfg"],
        ["simulate", "old-n.cfg"],
        ["simulate", "bad-line.cfg"],
        ["simulate", "repeated.cfg"],
        ["simulate", "not-utf8.cfg"],
        ["simulate", "missing.cfg"],
        ["simulate", "huge-p.cfg"],
        # an empty path is a path that cannot be opened
        ["--out", "", "moments", "--p", "2", "--flavor", "sym"],
        ["simulate", "", "--k", "3"],
        ["--out", "no-such-dir/out.txt", "table"],
        # a bad value for each flag
        ["table", "--p", "x"], ["table", "--p", "4"], ["table", "--p", ","],
        ["table", "--p", "2,9"],
        ["dist", "--p", "abc", "--flavor", "sym"], ["dist", "--p", "2", "--flavor", "orthogonal"],
        ["moments", "--p", "4", "--flavor", "sym"], ["moments", "--p", "2", "--flavor", "x"],
        ["bounds", "--p", "1.5"], ["bounds", "--p", "2", "--degK", "x"],
        ["simulate", "--p", "x"], ["simulate", "--flavor", "x"], ["simulate", "--k", "2.5"],
        ["simulate", "--samples", "1e4"], ["simulate", "--seed", "x"],
        ["simulate", "--shift", "x"], ["simulate", "--shift", "up:2"],
        ["simulate", "--shift", "fd:1"], ["simulate", "--shift", "notfd:"],
        ["simulate", "--y", "x"], ["simulate", "--y", "nan"], ["simulate", "--y", "inf"],
        ["simulate", "--y", "0"], ["simulate", "--threads", "x"], ["simulate", "--threads", "0"],
        ["simulate", "--samples", "0"], ["simulate", "--samples", str(2**62 + 1)],
        ["isotropic", "--p", "x", "--flavor", "sym"], ["isotropic", "--p", "2", "--flavor", "x"],
        ["isotropic", "--p", "2", "--flavor", "sym", "--n", "x"],
        ["isotropic", "--p", "3", "--flavor", "uni", "--n", "0"],
        ["isotropic", "--p", "2", "--flavor", "sym", "--n", "7144"],
        ["isotropic", "--p", "32749", "--flavor", "uni", "--n", "477"],
        ["ladder", "--x", "abc"], ["ladder", "--x", "10", "--exponent", "x"],
        ["ladder", "--x", "10", "--depth", "x"], ["ladder", "--x", "10", "--k", "x"],
        ["ladder", "--x", "10", "--density", "x"], ["ladder", "--x", "10", "--seed", "1.5"],
        ["ladder", "--x", "10", "--sieve-cap", "x"],
        # range errors
        ["table", "--p", "2,65537"], ["dist", "--p", "32770", "--flavor", "sym"],
        ["bounds", "--p", "3", "--degK", str(10**400)],
        ["ladder", "--x", "10", "--depth", "0"], ["ladder", "--x", "10", "--exponent", "0.5"],
        ["ladder", "--x", "10", "--k", "1", "--density", "2"],
        ["ladder", "--x", "10", "--k", "1", "--seed", "-1"],
        ["ladder", "--x", "10", "--k", "1", "--sieve-cap", "-5"],
        ["ladder", "--x", "10", "--density", "2"], ["ladder", "--x", "10", "--seed", "-4"],
        ["ladder", "--x", "10", "--sieve-cap", "0"],
        ["ladder", "--x", "nan"], ["ladder", "--x", "inf"],
        ["ladder", "--x", "10", "--exponent", "nan"], ["ladder", "--x", "10", "--k", "-1"],
        ["ladder", "--x", "1.5", "--exponent", "1", "--depth", "2", "--k", "1"],
        ["ladder", "--x", "1", "--k", "0"], ["ladder", "--x", "1000", "--k", "2"],
        # arrays past any address space
        ["dist", "--p", "2", "--flavor", "sym", "--rmax", str(10**30)],
        ["simulate", "--k", "3", "--shift", f"notfd:{10**17}"],
        ["simulate", "--k", "3", "--shift", f"notfd:{10**30}"],
        # a p past the range gets the range error before any primality test
        ["dist", "--p", HUGE_P, "--flavor", "sym"], ["table", "--p", f"2,{HUGE_P}"],
        ["table", "--p", HUGE_P], ["moments", "--p", HUGE_P, "--flavor", "uni"],
        ["bounds", "--p", HUGE_P], ["isotropic", "--p", HUGE_P, "--flavor", "sym"],
        ["simulate", "--p", HUGE_P],
    ]


def per_prime_argv(p: int) -> list[list[str]]:
    argv = [[*fmt, "table", "--p", str(p)] for fmt in FORMATS]
    argv += [[*fmt, "bounds", "--p", str(p), *deg_k]
             for fmt in FORMATS for deg_k in ([], ["--degK", "2"], ["--degK", "3"])]
    for flavor in FLAVORS:
        field = ["--p", str(p), "--flavor", flavor]
        sim = ["simulate", *field, "--k", "20", "--samples", "100000", "--seed", "1"]
        argv += [[*fmt, cmd, *field] for fmt in FORMATS for cmd in ("dist", "moments",
                                                                     "isotropic")]
        argv += [[*fmt, *sim] for fmt in FORMATS]
        argv += [["dist", *field, "--rmax", rmax] for rmax in ("0", "64", "200")]
        argv += [["isotropic", *field, "--n", n] for n in ("2", "3")]
        argv += [[*sim[:5], "--k", k, *sim[7:]] for k in ("0", "1", "5", str(10**18))]
        argv += [[*sim, *extra] for extra in (
            ["--y", "0.5"], ["--y", "50"], ["--y", "exact"], ["--shift", "fd"],
            ["--shift", "notfd:3"], ["--y", "1e6", "--shift", "notfd"])]
    return argv


def near_boundary_argv(p: int) -> list[list[str]]:
    argv = [["bounds", "--p", str(p), "--degK", deg_k] for deg_k in ("1", "2", "3")]
    argv += [["table", "--p", str(p)]]
    for flavor in FLAVORS:
        field = ["--p", str(p), "--flavor", flavor]
        argv += [[*fmt, "moments", *field] for fmt in FORMATS]
        argv += [["dist", *field, "--rmax", "12"]]
    return argv


def digit_boundary_argv() -> list[list[str]]:
    """dist and isotropic where the index of their rows gains a digit."""
    argv = [[*fmt, "dist", "--p", "2", "--flavor", "sym", "--rmax", rmax]
            for rmax in ("9", "10", "99", "100", "999", "1000") for fmt in FORMATS]
    argv += [[*fmt, "isotropic", "--p", p, "--flavor", flavor]
             for p in ("11", "101", "1009") for flavor in FLAVORS for fmt in FORMATS]
    return argv


def ladder_argv() -> list[list[str]]:
    argv = [["ladder", "--x", x, "--exponent", e, *k]
            for x in ("1", "1.5", "2", "10", "100", "1000")
            for e in ("1", "1.5", "2")
            for k in ([], ["--k", "0"], ["--k", "1"], ["--k", "2"], ["--k", "3"])]
    argv += [[*fmt, "ladder", "--x", x, "--exponent", e, "--k", str(k)]
             for x, e, k in LADDER_PAST_INT64 for fmt in FORMATS]
    argv += [[*fmt, "ladder", "--x", "10", "--exponent", "2", "--depth", "4", "--k", "1",
              "--seed", "3"] for fmt in FORMATS]
    argv += [["ladder", "--x", x, "--exponent", "1", "--depth", "3", "--k", "2",
              "--density", density, "--seed", seed]
             for x in ("100", "1000") for density in ("0.5", "0.1") for seed in ("0", "7")]
    argv += [["ladder", "--x", "7071", "--exponent", "2", "--k", "0", "--density", "0.5",
              "--seed", "1"],
             ["ladder", "--x", "10", "--depth", "20"], ["ladder", "--x", "1", "--depth", "20"],
             ["ladder", "--x", "10", "--exponent", "1", "--k", "3", "--sieve-cap", "1000"],
             ["ladder", "--x", "10", "--exponent", "1", "--k", "3", "--sieve-cap", "999"]]
    return argv


def simulate_argv() -> list[list[str]]:
    """Far k, huge sample counts, the bounded-error coin at far k and config
    documents with flag overrides."""
    far = ["--k", str(10**18), "--samples", str(2**62), "--seed", "1"]
    return [
        ["simulate", "--p", "2", "--flavor", "sym", "--k", "20", "--samples", str(10**12),
         "--seed", "1"],
        ["simulate", "--p", "2", "--flavor", "sym", *far],
        ["simulate", "--p", "32749", "--flavor", "sym", *far],
        ["simulate", "--p", "2", "--flavor", "sym", *far, "--y", "0.5"],
        ["simulate", "--p", "2", "--flavor", "uni", *far, "--y", "0.3"],
        ["simulate", "--p", "2", "--flavor", "sym", "--k", str(10**700), "--samples",
         str(2**62), "--seed", "1"],
        ["simulate", "--p", "2", "--flavor", "sym", "--k", "20", "--samples", "100000",
         "--seed", "1", "--threads", "2"],
        ["simulate"], ["simulate", "run.cfg"], ["simulate", "bom.cfg"],
        ["--format", "json", "simulate", "run.cfg", "--p", "3", "--flavor", "uni", "--k", "7"],
        ["--format", "csv", "simulate", "run.cfg", "--y", "2", "--shift", "fd"],
        ["--format", "csv", "--out", "out.csv", "table"],
        ["--format", "table", "table", "--p", ",".join(map(str, PRIMES))],
    ]


def corpus() -> list[list[str]]:
    """Every command line of the corpus, each once, in a fixed order."""
    argv = [*readme_cli_examples(), *([*fmt, "table"] for fmt in FORMATS)]
    for p in PRIMES:
        argv += per_prime_argv(p)
    for p in NEAR_BOUNDARY_PRIMES:
        argv += near_boundary_argv(p)
    argv += [*digit_boundary_argv(), *ladder_argv(), *simulate_argv(), *error_argv()]
    return list({shlex.join(words): words for words in argv}.values())


def transcript(argv: list[str]) -> list:
    """[sha256 of stdout, stderr, exit code] of one in-process CLI call."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    return [hashlib.sha256(out.getvalue().encode()).hexdigest(), err.getvalue(), code]


def replay(directory: Path) -> dict[str, list]:
    """Each command line's transcript, keyed by its shlex.join, run with
    directory, holding the config documents, as the working directory."""
    for name, text in {"run.cfg": readme_config(), **CONFIGS}.items():
        data = text if isinstance(text, bytes) else text.encode()
        (directory / name).write_bytes(data)
    cwd = os.getcwd()
    os.chdir(directory)
    try:
        return {shlex.join(argv): transcript(argv) for argv in corpus()}
    finally:
        os.chdir(cwd)


def load() -> dict[str, list]:
    return json.loads(CORPUS_PATH.read_text(encoding="utf-8"))


def dump(entries: dict[str, list]) -> str:
    """One entry a line, so a re-pin diffs line by line."""
    lines = (f"{json.dumps(key)}: {json.dumps(value)}" for key, value in entries.items())
    return "{\n" + ",\n".join(lines) + "\n}\n"


def main() -> int:
    with tempfile.TemporaryDirectory() as directory:
        entries = replay(Path(directory))
    old = load() if CORPUS_PATH.exists() else {}
    for key in [*entries, *(key for key in old if key not in entries)]:
        if entries.get(key) != old.get(key):
            state = "added" if key not in old else "dropped" if key not in entries else "changed"
            print(f"{state}: {key}")
    CORPUS_PATH.write_text(dump(entries), encoding="utf-8")
    print(f"{len(entries)} command lines", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
