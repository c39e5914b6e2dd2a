import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from twistrank import cli
from twistrank import rankdist as rd
from twistrank import twistsim
from twistrank.cli import (
    COMMANDS,
    LEAK_BOUND,
    SIM_CONFIG_FIELDS,
    ConfigError,
    cmd_isotropic,
    load_sim_config,
    main,
)
from twistrank.gf import Flavor, build_field, is_prime
from twistrank.records import OutputRecord
from twistrank.spaces import build_local_plane, evaluate_form, fiber_size, hyperbolic_plane
from twistrank.twistsim import MAX_LADDER_DEPTH

DATA_DIR = Path(__file__).parent / "data"
README = Path(__file__).parent.parent / "README.md"


def run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def test_table_matches_golden_file():
    code, out, err = run_cli("--format", "csv", "table")
    assert code == 0
    assert err == ""
    golden = (DATA_DIR / "table1_golden.csv").read_text()
    assert out == golden


def test_table_rejects_composite_prime():
    code, out, err = run_cli("table", "--p", "2,4")
    assert code == 1
    assert out == ""
    assert "prime" in err


@pytest.mark.parametrize("primes", ["", ","])
def test_table_rejects_empty_prime_list(primes):
    code, out, err = run_cli("table", "--p", primes)
    assert (code, out, err) == (
        1, "", f"error: --p must be a comma-separated list of primes, got {primes!r}\n")


def test_dist_values_non_increasing_with_exact_ratio():
    code, out, _ = run_cli("--format", "json", "dist", "--p", "2", "--flavor", "sym",
                           "--rmax", "6")
    assert code == 0
    rec = OutputRecord.from_json(out)
    values = [float(v) for _, v in rec.rows]
    assert f"{values[0]:.4f}" == "0.4194"
    for r in range(1, 7):
        # D(r)/D(r-1) = q^(1-eps)/(q^r - 1); equality holds at r = 1 for q=2 sym
        assert values[r] == pytest.approx(values[r - 1] / (2**r - 1), rel=1e-12)
        assert values[r] <= values[r - 1] * (1 + 1e-12)
    assert values[2] < values[1]


@pytest.mark.parametrize("p,flavor,rmax", [("2", "sym", 1200), ("3", "uni", 400)])
def test_dist_far_past_float_range_of_q_power(p, flavor, rmax):
    code, out, err = run_cli("--format", "json", "dist", "--p", p, "--flavor", flavor,
                             "--rmax", str(rmax))
    assert code == 0, err
    field = build_field(int(p), Flavor.parse(flavor))
    values = [float(v) for _, v in OutputRecord.from_json(out).rows]
    assert len(values) == rmax + 1
    for r, value in enumerate(values):
        # past rank 60 the exact weight is below 2^-1700 for both fields
        exact = values[0] * float(rd.stationary_weight_exact(field, r)) if r < 60 else 0.0
        if exact > 1e-290:
            assert value == pytest.approx(exact, rel=1e-12)
        else:
            assert value < 1e-290
    assert values[-1] == 0.0


def test_dist_rejects_bad_flavor():
    code, _, err = run_cli("dist", "--p", "2", "--flavor", "orthogonal")
    assert code == 1
    assert "flavor" in err


def test_moments_output():
    code, out, _ = run_cli("--format", "json", "moments", "--p", "2", "--flavor", "uni")
    assert code == 0
    rec = OutputRecord.from_json(out)
    values = dict(rec.rows)
    assert float(values["expected_rank"]) == pytest.approx(0.48509952, abs=1e-6)
    assert float(values["qr_moment_formula"]) == 3.0
    assert abs(float(values["qr_moment_series"]) - 3.0) < 1e-8


def test_moments_large_unitary_p():
    code, out, err = run_cli("--format", "json", "moments", "--p", "1009", "--flavor", "uni")
    assert code == 0, err
    values = dict(OutputRecord.from_json(out).rows)
    assert float(values["qr_moment_formula"]) == 1010.0
    assert float(values["qr_moment_series"]) == pytest.approx(1010.0, rel=1e-12)


def test_bounds_output():
    code, out, _ = run_cli("--format", "json", "bounds", "--p", "3")
    assert code == 0
    rec = OutputRecord.from_json(out)
    values = dict(rec.rows)
    assert float(values["no_growth_proportion[sym]"]) == pytest.approx(0.2780, abs=2e-4)
    assert "fermat_unsolvable_density[sym].formula" in values


def test_isotropic_output():
    code, out, _ = run_cli("--format", "json", "isotropic", "--p", "2", "--flavor",
                           "sym", "--n", "1")
    assert code == 0
    rec = OutputRecord.from_json(out)
    values = dict(rec.rows)
    assert values["lines_total"] == "3"
    assert values["fiber_size"] == "1"
    assert values["unramified"] == "(0, 1)"
    assert values["ramified[0]"] == "(1, 0)"
    assert values["ramified[1]"] == "(1, 1)"


def test_isotropic_fiber_size_p3_n2():
    code, out, _ = run_cli("--format", "json", "isotropic", "--p", "3", "--flavor",
                           "sym", "--n", "2")
    rec = OutputRecord.from_json(out)
    assert dict(rec.rows)["fiber_size"] == "18"  # 3^2 * 2


@pytest.mark.parametrize("n", ["0", "-1"])
def test_isotropic_rejects_n_below_one(n):
    code, out, err = run_cli("isotropic", "--p", "3", "--flavor", "sym", "--n", n)
    assert code == 1
    assert out == ""
    assert f"n must be >= 1, got {n}" in err


@pytest.mark.parametrize("p, largest", [(2, 7143), (3, 4506), (32749, 476)])
def test_isotropic_bounds_n(p, largest):
    code, out, err = run_cli("--format", "csv", "isotropic", "--p", str(p), "--flavor",
                             "sym", "--n", str(largest))
    assert code == 0 and err == ""
    fiber = dict(OutputRecord.from_csv(out).rows)["fiber_size"]
    assert fiber == str(p ** (2 * largest - 2) * (p - 1))
    assert len(fiber) <= 4300
    assert p ** (2 * largest) * (p - 1) >= 10**4300  # the next n has more digits
    for n in (largest + 1, 5000 if p == 3 else 10**9):
        code, out, err = run_cli("isotropic", "--p", str(p), "--flavor", "sym", "--n", str(n))
        assert code == 1
        assert out == ""
        assert f"n = {n} is too large for p = {p}" in err
        assert f"n <= {largest}" in err


def test_isotropic_top_of_domain_unitary():
    """p = 32749 in the unitary flavor: p + 1 lines over F_{p^2}."""
    p = 32749
    field = build_field(p, Flavor.UNITARY)
    rows = cmd_isotropic(p, Flavor.UNITARY, 1)
    lines = [value for label, value in rows if label.startswith(("unramified", "ramified["))]
    assert len(lines) == p + 1 == int(dict(rows)["lines_total"])
    assert len(set(lines)) == p + 1

    def parse(text):
        if "x" not in text:
            return field.elem(int(text))
        c1, _, c0 = text.partition("x")
        return field.elem(int(c0[1:]) if c0 else 0, int(c1) if c1 else 1)

    plane = hyperbolic_plane(field)
    for value in lines[:3] + lines[p // 2:p // 2 + 3] + lines[-3:]:
        v = tuple(parse(c) for c in value[1:-1].split(", "))
        assert v[0] == field.one() or v == (field.zero(), field.one())
        assert not evaluate_form(plane, v, v)


def reference_isotropic_rows(p, flavor, n):
    """The rows by the Subspace route: build_local_plane, then str of each
    FqElem coordinate of a line's basis vector."""
    plane = build_local_plane(build_field(p, flavor))

    def coords(line):
        return "(" + ", ".join(map(str, line.basis[0])) + ")"

    rows = [("lines_total", str(p + 1)), ("fiber_size", str(fiber_size(p, n))),
            ("unramified", coords(plane.unramified_line))]
    return rows + [(f"ramified[{i}]", coords(line)) for i, line in enumerate(plane.ramified_lines)]


def assert_isotropic_matches_the_subspace_route(p, flavor, n):
    expected = reference_isotropic_rows(p, flavor, n)
    assert cmd_isotropic(p, flavor, n) == expected
    record = OutputRecord(command="isotropic", rows=expected,
                          params={"p": str(p), "flavor": flavor.value, "n": str(n)})
    for fmt in ("table", "csv", "json"):
        code, out, err = run_cli("--format", fmt, "isotropic", "--p", str(p),
                                 "--flavor", flavor.value, "--n", str(n))
        assert (code, err) == (0, "")
        assert out == record.render(fmt), (p, flavor, n, fmt)


@pytest.mark.parametrize("flavor", list(Flavor))
@pytest.mark.parametrize("n", [1, 2])
def test_isotropic_rows_match_the_subspace_route(flavor, n):
    """cmd_isotropic renders from integer coordinates; its rows and all three
    encodings equal those of the Subspace route, for every prime below 200."""
    for p in filter(is_prime, range(200)):
        assert_isotropic_matches_the_subspace_route(p, flavor, n)


@pytest.mark.parametrize("p, flavor, n", [(3067, Flavor.SYMPLECTIC, 2),
                                          (32749, Flavor.UNITARY, 1)])
def test_isotropic_rows_match_the_subspace_route_at_large_p(p, flavor, n):
    assert_isotropic_matches_the_subspace_route(p, flavor, n)


def test_simulate_k0_point_mass():
    code, out, _ = run_cli("--format", "json", "simulate", "--p", "2", "--flavor",
                           "sym", "--k", "0", "--samples", "1000", "--seed", "3")
    assert code == 0
    values = dict(OutputRecord.from_json(out).rows)
    assert float(values["tv"]) == 0.0
    assert values["count(0)"] == "1000"
    assert float(values["chi2_pvalue"]) == 1.0


def test_default_plain_table_format():
    code, out, _ = run_cli("table", "--p", "2")
    assert code == 0
    assert out.startswith("# command: table")
    assert "rank0 sym p=2" in out and "0.4194" in out


def test_simulate_byte_identical_runs():
    args = ("--format", "csv", "simulate", "--p", "3", "--flavor", "uni", "--k", "5",
            "--samples", "20000", "--seed", "11")
    first = run_cli(*args)
    second = run_cli(*args)
    assert first == second
    assert first[0] == 0


def test_simulate_matches_golden_histogram():
    """Seeded simulate output is pinned, so any change to it is deliberate."""
    code, out, err = run_cli("--format", "csv", "simulate", "--p", "3", "--flavor", "uni",
                             "--k", "5", "--samples", "20000", "--seed", "11")
    assert code == 0 and err == ""
    assert out == (DATA_DIR / "simulate_p3_uni_k5_seed11.csv").read_text()


def test_simulate_matches_golden_histogram_k20():
    """A second pinned run, deeper than the first: ranks 0..12 print, through
    the last whose tail exceeds 2^-64 / samples."""
    code, out, err = run_cli("--format", "csv", "simulate", "--p", "2", "--flavor", "sym",
                             "--k", "20", "--samples", "16384", "--seed", "7")
    assert code == 0 and err == ""
    assert out == (DATA_DIR / "simulate_p2_sym_k20_seed7.csv").read_text()


@pytest.mark.parametrize("k", [1000, 10**17, 10**18])
def test_simulate_prints_the_ranks_the_sampler_can_reach(k):
    code, out, err = run_cli("--format", "json", "simulate", "--p", "2", "--flavor", "sym",
                             "--k", str(k), "--samples", "100000", "--seed", "2")
    assert (code, err) == (0, "")
    rows = OutputRecord.from_json(out).rows
    counts = [int(value) for label, value in rows if label.startswith("count(")]
    # the last printed rank is the higher of the last with a count and the
    # last whose tail (the reference mass at or above it) exceeds
    # LEAK_BOUND / samples
    law = rd.walk_law(build_field(2, Flavor.SYMPLECTIC), k).probs
    tail = np.cumsum(law[::-1])[::-1]
    reach = int(np.flatnonzero(100000 * tail > LEAK_BOUND)[-1])
    assert len(counts) == 1 + max(reach, max(r for r, c in enumerate(counts) if c))
    assert len(counts) < len(law)


def test_simulate_computes_the_k_step_law_once(monkeypatch):
    """The printed reference is the law the sample was drawn from, so the
    command steps walk_law once."""
    calls, walk_law = [], rd.walk_law

    def counted(*args, **kwargs):
        calls.append(args)
        return walk_law(*args, **kwargs)

    monkeypatch.setattr(twistsim, "walk_law", counted)
    monkeypatch.setattr(rd, "walk_law", counted)
    code, _, _ = run_cli("simulate", "--p", "2", "--flavor", "sym", "--k", "20")
    assert code == 0 and len(calls) == 1


def test_simulate_past_the_float_range_prints_the_k_1e18_rows():
    """walk_law keeps every non-zero rank, so no k is refused: past the
    repeat the law, and so the seeded run, depend on k only through its
    phase in the cycle, here a fixed point."""
    outputs = []
    for k in (10**18, 10**700):
        code, out, err = run_cli("simulate", "--p", "2", "--flavor", "sym", "--k", str(k),
                                 "--samples", str(2**62), "--seed", "1")
        assert (code, err) == (0, "")
        outputs.append([line for line in out.splitlines() if not line.startswith("# k:")])
    assert outputs[0] == outputs[1]
    assert any(line.startswith("count(") for line in outputs[0])


def test_simulate_independent_of_blas_threads():
    """The k-step law is stepped in numpy elementwise, with no BLAS call, so
    one and two OpenBLAS threads give bitwise the same counts and law."""
    script = (
        "import json\n"
        "from twistrank.gf import Flavor, build_field\n"
        "from twistrank.twistsim import SimConfig, simulate\n"
        "emp = simulate(SimConfig(field=build_field(2, Flavor.SYMPLECTIC), k=10**18,"
        " samples=2**62, seed=1, chebotarev_y=0.5))\n"
        "print(json.dumps([emp.counts.tolist(), [x.hex() for x in emp.reference]]))\n"
    )
    src = str(Path(__file__).parent.parent / "src")
    runs = []
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                              text=True, check=True)
        runs.append(json.loads(done.stdout))
    assert runs[0] == runs[1]
    assert sum(runs[0][0]) == 2**62


def test_simulate_thread_flag_output_invariant():
    base = ("--format", "csv", "simulate", "--p", "2", "--flavor", "sym", "--k", "6",
            "--samples", "50000", "--seed", "21")
    single = run_cli(*base, "--threads", "1")
    for threads in ("2", "4"):
        other = run_cli(*base, "--threads", threads)
        # the thread count is echoed in params; everything else must agree
        assert other[1] == single[1].replace("threads,1", f"threads,{threads}")


def test_simulate_bounded_error_reference_is_its_own_law():
    # y = 4 moves the coin far enough that the exact law would reject this walk
    code, out, _ = run_cli("--format", "json", "simulate", "--p", "13", "--flavor", "uni",
                           "--k", "20", "--samples", "1000000", "--seed", "5", "--y", "4")
    assert code == 0
    values = dict(OutputRecord.from_json(out).rows)
    assert float(values["chi2_pvalue"]) > 1e-3
    field = build_field(13, Flavor.UNITARY)
    assert float(values["ref(1)"]) == pytest.approx(rd.walk_law(field, 20, y=4.0).probs[1],
                                                    rel=1e-11)


@pytest.mark.parametrize("y", ["nan", "inf", "0", "-2"])
def test_simulate_rejects_bad_y(y):
    code, out, err = run_cli("simulate", "--p", "2", "--flavor", "sym", "--k", "3", "--y", y)
    assert code == 1
    assert out == ""
    assert "--y must be a positive finite number" in err


def test_simulate_with_config_file(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "# simulation setup\n"
        "p = 2\n"
        "flavor = sym\n"
        "k = 4\n"
        "samples = 5000\n"
        "seed = 13\n"
        "shift = notfd:1\n"
        "y = exact\n"
    )
    code, out, _ = run_cli("--format", "json", "simulate", str(cfg))
    assert code == 0
    rec = OutputRecord.from_json(out)
    assert rec.params["k"] == "4"
    assert rec.params["shift"] == "notfd:1"
    assert dict(rec.rows)["count(0)"] == "0"  # shifted off rank 0


@pytest.mark.parametrize("spelling,canonical", [("fd", "notfd:1"), ("notfd", "notfd:0")])
def test_simulate_shift_spellings_agree(spelling, canonical):
    """Each spelling is an integer shift, echoed as notfd:<r>, so the echo
    is itself a valid --shift."""
    argv = ("--format", "csv", "simulate", "--p", "3", "--flavor", "uni", "--k", "6",
            "--samples", "5000", "--seed", "4", "--shift")
    out = run_cli(*argv, spelling)
    assert out == run_cli(*argv, canonical)
    assert out[0] == 0 and f"param,shift,{canonical}\n" in out[1]


def test_simulate_flag_overrides_config(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("p = 2\nflavor = sym\nk = 4\nsamples = 5000\nseed = 13\n")
    code, out, _ = run_cli("--format", "json", "simulate", str(cfg), "--k", "2")
    assert code == 0
    assert OutputRecord.from_json(out).params["k"] == "2"


def test_simulate_malformed_config_line(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("p = 2\nflavor sym\n")
    code, out, err = run_cli("simulate", str(cfg))
    assert code == 1
    assert out == ""
    assert "bad.cfg:2" in err and "key = value" in err


def test_simulate_unknown_config_field(tmp_path):
    cfg = tmp_path / "bad.cfg"
    # n, the character order exponent, is no simulate key: the walk does not
    # depend on it, so an old config that sets it fails by name
    for key in ("walkers", "n"):
        cfg.write_text(f"p = 2\n{key} = 1\n")
        code, out, err = run_cli("simulate", str(cfg))
        assert (code, out) == (1, "")
        assert err.startswith(f"error: {cfg}:2: unknown field {key!r} (known fields: p, ")
        assert err.count("\n") == 1


def test_load_sim_config_reports_field_values(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("p = 5\nsamples = 100\n")
    assert load_sim_config(str(cfg)) == {"p": ("5", 1), "samples": ("100", 2)}


@pytest.mark.parametrize("line,argv,message", [
    ("k = abc", (), "{cfg}:3: field 'k' must be an integer, got 'abc'"),
    ("y = nan", (), "{cfg}:3: field 'y' must be a positive finite number or 'exact', got 'nan'"),
    ("p = 4", (), "{cfg}:3: field 'p' must be a prime, got '4'"),
    ("flavor = orthogonal", (),
     "{cfg}:3: field 'flavor' must be 'sym' or 'uni', got 'orthogonal'"),
    ("shift = notfd:-1", (),
     "{cfg}:3: field 'shift' must be 'fd' or 'notfd:<r>' with r >= 0, got 'notfd:-1'"),
    # a bad flag value is reported with the flag, even where the config is valid
    ("p = 3", ("--p", "4"), "--p must be a prime, got '4'"),
    ("flavor = uni", ("--flavor", "orthogonal"),
     "--flavor must be 'sym' or 'uni', got 'orthogonal'"),
    ("shift = fd", ("--shift", "up:2"),
     "--shift must be 'fd' or 'notfd:<r>' with r >= 0, got 'up:2'"),
    ("shift = fd", ("--shift", "fd:1"),
     "--shift must be 'fd' or 'notfd:<r>' with r >= 0, got 'fd:1'"),
    ("shift = fd", ("--shift", "notfd:"),
     "--shift must be 'fd' or 'notfd:<r>' with r >= 0, got 'notfd:'"),
    ("shift = fd", ("--shift", "notfd:x"),
     "--shift must be 'fd' or 'notfd:<r>' with r >= 0, got 'notfd:x'"),
    # range errors found after parsing name their source too
    ("k = -3", (), "{cfg}:3: field 'k' must be non-negative"),
    ("p = 65537", (), "{cfg}:3: field 'p' = 65537 exceeds the supported range (p <= 32768)"),
    ("seed = -1", (), "{cfg}:3: field 'seed' must be non-negative"),
    ("threads = 2", ("--threads", "0"), "--threads must be >= 1"),
    ("samples = 9", ("--samples", "0"), "--samples must be >= 1"),
    ("seed = 3", ("--seed", "-1"), "--seed must be non-negative"),
    ("samples = 100000000000000000000", (),
     "{cfg}:3: field 'samples' must be <= 2^62, got 100000000000000000000"),
], ids=["k", "y", "p", "flavor", "shift", "flag-p", "flag-flavor", "flag-shift",
        "flag-shift-fd-r", "flag-shift-no-r", "flag-shift-bad-r", "range-k", "range-p",
        "range-seed", "range-flag-threads", "range-flag-samples", "range-flag-seed",
        "range-samples-cap"])
def test_simulate_value_error_names_its_source(tmp_path, line, argv, message):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"# header\n\n{line}\n")
    code, out, err = run_cli("simulate", str(cfg), *argv)
    assert (code, out, err) == (1, "", f"error: {message.format(cfg=cfg)}\n")


def test_config_repeated_key_names_both_lines(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("p = 2\nk = 1\np = 3\n")
    with pytest.raises(ConfigError, match="field 'p' repeats line 1"):
        load_sim_config(str(cfg))
    assert run_cli("simulate", str(cfg)) == (
        1, "", f"error: {cfg}:3: field 'p' repeats line 1\n")


def test_config_with_utf8_bom_parses_like_plain(tmp_path):
    text = "p = 3\n# comment\nshift = fd\n"
    plain, bom = tmp_path / "plain.cfg", tmp_path / "bom.cfg"
    plain.write_text(text, encoding="utf-8")
    bom.write_text(text, encoding="utf-8-sig")
    assert bom.read_bytes().startswith(b"\xef\xbb\xbf")
    options = load_sim_config(str(bom))
    assert options == load_sim_config(str(plain)) == {"p": ("3", 1), "shift": ("fd", 3)}


def test_config_not_utf8_names_its_path(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_bytes(b"p = 2\nflavor = \xff\n")
    code, out, err = run_cli("simulate", str(cfg))
    assert (code, out) == (1, "")
    assert err.startswith(f"error: cannot read config {str(cfg)!r}: ")
    assert err.count("\n") == 1


CONFIG_LINE = st.tuples(
    st.sampled_from(["", " ", "#"]),
    st.sampled_from([*SIM_CONFIG_FIELDS, "walkers", ""]),
    st.sampled_from(["=", " = ", " ", "=="]),
    st.text(max_size=8),
    st.sampled_from(["\n", "\r\n", "\r"]),
).map("".join)


@settings(derandomize=True, deadline=None, max_examples=400)
@given(st.one_of(st.binary(max_size=64),
                 st.lists(CONFIG_LINE, max_size=6).map(lambda lines: "".join(lines).encode())))
@example(b"\xff")
@example(b"p = 2\r\nk = 3 # depth\rseed=4")
def test_load_sim_config_fuzz(tmp_path_factory, document):
    """Any document gives known keys with non-empty values on their own
    lines, or a ConfigError; nothing else escapes."""
    path = tmp_path_factory.getbasetemp() / "fuzz.cfg"
    path.write_bytes(document)
    try:
        options = load_sim_config(str(path))
    except ConfigError:
        return
    lines = document.decode().replace("\r\n", "\n").replace("\r", "\n").split("\n")
    for key, (value, lineno) in options.items():
        assert key in SIM_CONFIG_FIELDS
        assert value and value == value.strip()
        assert 1 <= lineno <= len(lines)
        line = lines[lineno - 1].split("#", 1)[0]
        assert line.split("=", 1)[0].strip() == key
        assert line.split("=", 1)[1].strip() == value


# one bad value per flag of every command: (command, flag, value, what a valid value is)
BAD_FLAG_VALUES = [
    ("table", "p", "x", "a comma-separated list of primes"),
    ("dist", "p", "abc", "a prime"),
    ("dist", "flavor", "orthogonal", "'sym' or 'uni'"),
    ("dist", "rmax", "x", "an integer"),
    ("moments", "p", "4", "a prime"),
    ("moments", "flavor", "x", "'sym' or 'uni'"),
    ("bounds", "p", "1.5", "a prime"),
    ("bounds", "degK", "x", "an integer"),
    ("simulate", "p", "x", "a prime"),
    ("simulate", "flavor", "x", "'sym' or 'uni'"),
    ("simulate", "k", "2.5", "an integer"),
    ("simulate", "samples", "1e4", "an integer"),
    ("simulate", "seed", "x", "an integer"),
    ("simulate", "shift", "x", "'fd' or 'notfd:<r>' with r >= 0"),
    ("simulate", "y", "x", "a positive finite number or 'exact'"),
    ("simulate", "threads", "x", "an integer"),
    ("isotropic", "p", "x", "a prime"),
    ("isotropic", "flavor", "x", "'sym' or 'uni'"),
    ("isotropic", "n", "x", "an integer"),
    ("ladder", "x", "abc", "a number"),
    ("ladder", "exponent", "x", "a number"),
    ("ladder", "depth", "x", "an integer"),
    ("ladder", "k", "x", "an integer"),
    ("ladder", "density", "x", "a number"),
    ("ladder", "seed", "1.5", "an integer"),
    ("ladder", "sieve-cap", "x", "an integer"),
]
VALID_REQUIRED = {"dist": ("--p", "2", "--flavor", "sym"),
                  "moments": ("--p", "2", "--flavor", "sym"), "bounds": ("--p", "2"),
                  "isotropic": ("--p", "2", "--flavor", "sym"), "ladder": ("--x", "10")}


@pytest.mark.parametrize("cmd,flag,value,expected", BAD_FLAG_VALUES,
                         ids=[f"{cmd}--{flag}" for cmd, flag, *_ in BAD_FLAG_VALUES])
def test_bad_flag_value_names_the_flag(cmd, flag, value, expected):
    # a repeated flag takes its last value, so the bad one overrides a valid one
    argv = (cmd, *VALID_REQUIRED.get(cmd, ()), f"--{flag}", value)
    assert run_cli(*argv) == (1, "", f"error: --{flag} must be {expected}, got {value!r}\n")


@pytest.mark.parametrize("argv,message", [
    (("table", "--p", "2,65537"), "--p = 65537 exceeds the supported range (p <= 32768)"),
    (("dist", "--p", "2", "--flavor", "sym", "--rmax", "-1"), "--rmax must be non-negative"),
    (("bounds", "--p", "3", "--degK", "0"), "--degK must be >= 1, got 0"),
    (("bounds", "--p", "3", "--degK", str(10**400)),
     "--degK is too large for a float, got a 1329-bit integer"),
    (("isotropic", "--p", "3", "--flavor", "uni", "--n", "0"), "--n must be >= 1, got 0"),
    (("ladder", "--x", "10", "--depth", "0"), "--depth must be >= 1"),
    (("ladder", "--x", "10", "--depth", str(MAX_LADDER_DEPTH + 1)),
     f"--depth must be <= {MAX_LADDER_DEPTH}, got {MAX_LADDER_DEPTH + 1}"),
    (("ladder", "--x", "10", "--exponent", "0.5"), "--exponent must be finite and >= 1, got 0.5"),
    (("ladder", "--x", "10", "--k", "1", "--density", "2"), "--density must lie in (0, 1]"),
    (("ladder", "--x", "10", "--k", "1", "--seed", "-1"), "--seed must be non-negative"),
    (("ladder", "--x", "10", "--k", "1", "--sieve-cap", "-5"),
     "--sieve-cap must be >= 2, got -5"),
    # without --k no stratum is counted, but every echoed value is checked
    (("ladder", "--x", "10", "--density", "2"), "--density must lie in (0, 1]"),
    (("ladder", "--x", "10", "--seed", "-4"), "--seed must be non-negative"),
    (("ladder", "--x", "10", "--sieve-cap", "0"), "--sieve-cap must be >= 2, got 0"),
    (("simulate", "--samples", str(2**62 + 1)), f"--samples must be <= 2^62, got {2**62 + 1}"),
], ids=["table-p", "dist-rmax", "bounds-degK", "bounds-degK-float-range", "isotropic-n",
        "ladder-depth", "ladder-depth-bound", "ladder-exponent", "ladder-density", "ladder-seed",
        "ladder-sieve-cap", "ladder-density-no-k", "ladder-seed-no-k", "ladder-sieve-cap-no-k",
        "simulate-samples-cap"])
def test_range_error_names_the_flag(argv, message):
    assert run_cli(*argv) == (1, "", f"error: {message}\n")


@pytest.mark.parametrize("argv", [
    ("dist", "--p", "2", "--flavor", "sym", "--rmax", str(10**17)),
    ("simulate", "--k", "3", "--shift", f"notfd:{10**17}"),
    ("dist", "--p", "2", "--flavor", "sym", "--rmax", str(10**30)),
    ("simulate", "--k", "3", "--shift", f"notfd:{10**30}"),
], ids=["dist-rmax", "simulate-shift", "dist-rmax-past-intp", "simulate-shift-past-intp"])
def test_out_of_memory_is_one_error_line(argv):
    # each needs an array of about 711 PiB or more, more than any address
    # space holds; past 2^63 elements numpy rejects the shape itself
    code, out, err = run_cli(*argv)
    assert (code, out) == (1, "")
    assert err.startswith("error: out of memory: ") and err.count("\n") == 1


def test_out_of_memory_without_a_reason_is_one_plain_line(monkeypatch):
    # the allocator raises a bare MemoryError, so there is no reason to print
    def exhausted(p, flavor):
        raise MemoryError()

    _, help_text, fields = COMMANDS["moments"]
    monkeypatch.setitem(COMMANDS, "moments", (exhausted, help_text, fields))
    assert run_cli("moments", "--p", "2", "--flavor", "sym") == (1, "", "error: out of memory\n")


def test_bad_flag_values_cover_every_flag():
    declared = {(cmd, flag) for cmd, (_, _, fields) in COMMANDS.items() for flag in fields}
    assert {(cmd, flag) for cmd, flag, *_ in BAD_FLAG_VALUES} == declared


@pytest.mark.parametrize("argv", [
    *((cmd, *VALID_REQUIRED.get(cmd, ())) for cmd in COMMANDS),
    ("ladder", "--x", "10", "--k", "1"),
    ("simulate", "--k", "20", "--y", "7.5", "--shift", "fd"),
], ids=[*COMMANDS, "ladder-k", "simulate-y"])
def test_params_echo_every_flag_with_a_value(argv):
    code, out, err = run_cli("--format", "json", *argv)
    assert (code, err) == (0, "")
    # the JSON layout is written out by hand, to json.dumps's bytes
    assert out == json.dumps(json.loads(out), indent=2) + "\n"
    fields = COMMANDS[argv[0]][2]
    given = {word[2:] for word in argv if word.startswith("--")}
    with_value = [flag for flag, (_, default) in fields.items()
                  if default is not None or flag in given]
    assert list(OutputRecord.from_json(out).params) == with_value


def test_main_does_not_build_a_parser(monkeypatch):
    def build_parser():
        raise AssertionError("main built a parser")

    monkeypatch.setattr(cli, "build_parser", build_parser)
    assert run_cli("moments", "--p", "2", "--flavor", "sym")[0] == 0


@pytest.mark.parametrize("cmd", COMMANDS)
def test_command_help_exits_zero(cmd):
    out = io.StringIO()
    with redirect_stdout(out), pytest.raises(SystemExit) as exc:
        main([cmd, "--help"])
    assert exc.value.code == 0
    assert all(f"--{flag}" in out.getvalue() for flag in COMMANDS[cmd][2])


def test_readme_cli_examples_run(tmp_path, monkeypatch):
    blocks = README.read_text(encoding="utf-8").split("```")[1::2]
    config = next(block for block in blocks if block.lstrip().startswith("# run.cfg"))
    (tmp_path / "run.cfg").write_text(config)
    monkeypatch.chdir(tmp_path)
    examples = [line.split(" #", 1)[0].split()[1:]
                for block in blocks for line in block.splitlines()
                if line.startswith("twistrank ")]
    assert len(examples) == 9
    for argv in examples:
        code, out, err = run_cli(*argv)
        assert (code, err) == (0, ""), argv
        assert out.startswith(f"# command: {argv[0]}")


def test_simulate_bad_shift_spec():
    code, _, err = run_cli("simulate", "--p", "2", "--flavor", "sym", "--shift", "up:2")
    assert code == 1
    assert "shift" in err


def test_ladder_levels_and_ratio():
    code, out, _ = run_cli("--format", "json", "ladder", "--x", "10", "--exponent",
                           "2", "--depth", "3", "--k", "0")
    assert code == 0
    values = dict(OutputRecord.from_json(out).rows)
    assert float(values["L1"]) == pytest.approx(100.0)
    assert float(values["L2"]) == pytest.approx(10_000.0)
    assert values["D_0"] == "1"
    assert int(values["D_1"]) == 25  # primes below 100
    assert float(values["ratio"]) == pytest.approx(1 / 25)


def test_ladder_sieve_cap_diagnostic():
    code, out, err = run_cli("ladder", "--x", "1000", "--k", "2")
    assert code == 1
    assert out == ""
    assert "sieve cap" in err


def test_ladder_cost_bounded_in_k():
    """k = 10^30 fails in under a second: the top threshold passes the sieve
    cap within a few levels, and at x = 1 no stratum above the places is
    counted. A subprocess with a timeout and a 2 GiB address space makes a
    cost linear in k fail rather than hang or exhaust memory."""
    script = (
        "import io, json, resource, time\n"
        "from contextlib import redirect_stderr\n"
        "resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))\n"
        "from twistrank.cli import main\n"
        "for argv in (['--x', '10'], ['--x', '1', '--exponent', '1']):\n"
        "    err, start = io.StringIO(), time.perf_counter()\n"
        "    with redirect_stderr(err):\n"
        "        code = main(['ladder', *argv, '--k', str(10**30)])\n"
        "    print(json.dumps([code, time.perf_counter() - start, err.getvalue()]))\n"
    )
    src = str(Path(__file__).parent.parent / "src")
    # one OpenBLAS thread, so the import's reserved buffers do not grow with the core count
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=60, check=True)
    runs = [json.loads(line) for line in done.stdout.splitlines()]
    assert len(runs) == 2
    for code, seconds, err in runs:
        assert code == 1 and seconds < 1.0, (code, seconds, err)
        assert err.startswith("error: stratum k=") and err.count("\n") == 1, err


def test_ladder_depth_bounded():
    """A depth past MAX_LADDER_DEPTH fails in under a second, before any
    level is built. A subprocess with a timeout and a 1 GiB address space
    makes a cost linear in depth fail rather than hang or exhaust memory."""
    script = (
        "import io, json, resource, time\n"
        "from contextlib import redirect_stderr\n"
        "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
        "from twistrank.cli import main\n"
        "err, start = io.StringIO(), time.perf_counter()\n"
        "with redirect_stderr(err):\n"
        "    code = main(['ladder', '--x', '10', '--depth', str(10**30)])\n"
        "print(json.dumps([code, time.perf_counter() - start, err.getvalue()]))\n"
    )
    src = str(Path(__file__).parent.parent / "src")
    # one OpenBLAS thread, so the import's reserved buffers do not grow with the core count
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=60, check=True)
    code, seconds, err = json.loads(done.stdout)
    assert code == 1 and seconds < 1.0, (code, seconds, err)
    assert err.startswith("error: --depth must be <= ") and err.count("\n") == 1, err


@pytest.mark.parametrize("x", ["10", "1"])
def test_ladder_prints_every_level_up_to_the_depth_bound(x):
    code, out, err = run_cli("--format", "csv", "ladder", "--x", x,
                             "--depth", str(MAX_LADDER_DEPTH))
    assert (code, err) == (0, "")
    rows = OutputRecord.from_csv(out).rows
    assert [label for label, _ in rows] == [f"L{i}" for i in range(1, MAX_LADDER_DEPTH + 1)]
    assert rows[-1][1] == ("inf" if x == "10" else "1")


def test_ladder_counts_below_int64_without_a_cap():
    # C(len(places), 4) is far above 10^15, but both counts fit in int64
    code, out, err = run_cli("--format", "csv", "ladder", "--x", "10", "--exponent", "1",
                             "--k", "3")
    assert (code, err) == (0, "")
    values = dict(OutputRecord.from_csv(out).rows)
    assert (values["D_3"], values["D_4"]) == ("13840", "1085146345")


def test_ladder_has_no_cap_flag():
    err = io.StringIO()
    with redirect_stderr(err), pytest.raises(SystemExit) as exc:
        main(["ladder", "--x", "10", "--k", "1", "--cap", "5"])
    assert exc.value.code == 2
    assert err.getvalue().splitlines()[-1].endswith("error: unrecognized arguments: --cap 5")


@pytest.mark.parametrize("argv,message", [
    (("--x", "nan"), "x must be finite and >= 1, got nan"),
    (("--x", "inf"), "x must be finite and >= 1, got inf"),
    (("--x", "10", "--exponent", "nan"), "--exponent must be finite and >= 1, got nan"),
    (("--x", "10", "--k", "-1"), "k must be non-negative, got -1"),
    (("--x", "1.5", "--exponent", "1", "--depth", "2", "--k", "1"),
     "stratum k=2 is empty at x=1.5"),
    # no place lies below the top level at x = 1
    (("--x", "1", "--k", "0"), "stratum k=1 is empty at x=1.0"),
])
def test_ladder_rejects_bad_input(argv, message):
    code, out, err = run_cli("ladder", *argv)
    assert code == 1
    assert out == ""
    assert message in err


def test_out_flag_writes_file(tmp_path):
    target = tmp_path / "table.csv"
    code, out, _ = run_cli("--format", "csv", "--out", str(target), "table", "--p", "2")
    assert code == 0
    assert out == ""
    rec = OutputRecord.from_csv(target.read_text())
    assert dict(rec.rows)["rank0 sym p=2"] == "0.4194"


def test_csv_json_round_trip_via_cli():
    _, csv_text, _ = run_cli("--format", "csv", "moments", "--p", "5", "--flavor", "sym")
    _, json_text, _ = run_cli("--format", "json", "moments", "--p", "5", "--flavor", "sym")
    assert OutputRecord.from_csv(csv_text) == OutputRecord.from_json(json_text)
