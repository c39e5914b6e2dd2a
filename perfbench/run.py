"""Benchmark of the twistrank command line.

Run from the repository root:

    python3 perfbench/run.py --workload sim-wide --seed 1 --seconds 25 --trace 0

One client calls `twistrank.cli.main(argv)` in this process as a closed
loop: each command starts when the previous one has returned, and only
`simulate --threads 2` uses a second thread. A pass runs the workload's
command list once (see workloads.py); the first pass's outputs are the
ones every later pass must repeat. --trace 0 runs one untimed warm-up
pass, then times a fixed number of passes (PASSES_PER_25S, scaled by
--seconds) with SETUP_IMPORTS fresh imports spread between them;
outputs are checked after each pass, outside the timed region. The pass
count does not depend on the speed of the program, so every version is
compared at the same percentile.

`pass_s` is the mean of the timed passes, not their median. A shared
2-vCPU x86_64 host ran at two speeds, in phases of several seconds, so
pass times were bimodal: the median of a run jumps to whichever speed
held more of its passes, while the mean moves with the share of time
spent at each. Over ten runs per workload, the mean spread 5-26% less
than the median on every workload. The median is in the detail line.

--trace 1 reports the per-layer metrics, from passes traced by
tracing.py and alternated with untraced ones until --seconds is used.

The last line of stdout is the result object; the line before it holds
provenance and per-command detail. Exit code 2 means the twistrank
sources are missing.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("sim-wide", "sim-deep", "exact", "geometry")

# The tail of pass time is the highest percentile with ten passes beyond it.
TAIL_BEYOND = 10
MIN_PASSES = TAIL_BEYOND + 1
# Timed passes of a --seconds 25 run, on every workload. Thirty-one put
# the tail at the 67th percentile, so it sits among many passes rather
# than at the fastest one. Workload sizes keep a pass at 0.4-0.65 s, and such
# a run near 25 s with the fresh imports, on a 2-vCPU x86_64 host.
PASSES_PER_25S = 31
# A program slow enough to hit this stops early, before the exit deadline.
LOOP_DEADLINE_S = 120.0
TRACE_MIN_PASSES = 2
SETUP_IMPORTS = 5
# os._exit skips the interpreter's teardown, which is not part of set-up.
IMPORT_SNIPPET = ("import os, time; t = time.perf_counter(); import twistrank.cli; "
                  "print(time.perf_counter() - t, flush=True); os._exit(0)")


@dataclass
class OpResult:
    code: int | None
    out: str
    err: str
    seconds: float


def run_op(op) -> OpResult:
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = op.run()
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # an unexpected crash is one failed command, not the end of the run
            code = None
            traceback.print_exc()
    return OpResult(code, out.getvalue(), err.getvalue(), time.perf_counter() - start)


class Runner:
    """The ops of one workload, with the outcome of every pass judged."""

    def __init__(self, ops):
        self.ops = ops
        self.reference: list[str] | None = None
        self.tamper = None  # (index, text) -> text; lets the self-test corrupt outputs
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.problems: dict[str, str] = {}
        self.op_seconds: list[list[float]] = [[] for _ in ops]

    def run_pass(self) -> tuple[float, list[OpResult]]:
        start = time.perf_counter()
        results = [run_op(op) for op in self.ops]
        seconds = time.perf_counter() - start
        if self.tamper is not None:
            for i, res in enumerate(results):
                res.out = self.tamper(i, res.out)
        return seconds, results

    def judge(self, results: list[OpResult]) -> None:
        """Check one pass; the first pass judged sets the reference outputs."""
        from workloads import CHECK_ERRORS, KNOWN_DEFECT_ERROR, CheckFailed, parse_record

        if self.reference is None:
            self.reference = [res.out for res in results]
        for i, (op, res) in enumerate(zip(self.ops, results)):
            self.attempted += 1
            self.op_seconds[i].append(res.seconds)
            problem, wrong = None, False
            if res.code != 0:
                lines = res.err.strip().splitlines()
                last = lines[-1] if lines else ""
                problem = f"exit {res.code}: {last}"
                # a known defect must fail the documented way, not some new way
                wrong = op.known_defect and (res.code != 1 or last != KNOWN_DEFECT_ERROR)
            else:
                try:
                    op.check(res.out)
                    if res.out != self.reference[i]:
                        raise CheckFailed("output differs from the first pass")
                    if op.twin is not None:
                        mine = parse_record(res.out, op.fmt)
                        theirs = parse_record(results[op.twin].out, self.ops[op.twin].fmt)
                        mine[0].pop("threads", None)
                        theirs[0].pop("threads", None)
                        if mine != theirs:
                            raise CheckFailed(f"output differs from {self.ops[op.twin].label!r}")
                except CHECK_ERRORS as exc:
                    problem, wrong = str(exc) or repr(exc), True
            if problem is not None:
                self.failed += 1
                self.problems.setdefault(op.label, problem)
                if wrong or not op.known_defect:
                    self.correct = False


def fresh_import(*flags: str) -> tuple[float, str]:
    """Seconds to import twistrank.cli in a new interpreter, and its stderr."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, *flags, "-c", IMPORT_SNIPPET], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    return float(proc.stdout.split()[-1]), proc.stderr


def import_breakdown() -> dict[str, float]:
    """Cumulative import seconds of numpy and scipy.stats, from -X importtime."""
    _, log = fresh_import("-X", "importtime")
    cumulative = {}
    for line in log.splitlines():
        parts = line.split("|")
        if line.startswith("import time:") and len(parts) == 3 and parts[1].strip().isdigit():
            cumulative.setdefault(parts[2].strip(), int(parts[1]) / 1e6)
    return {"setup.numpy.s": cumulative["numpy"], "setup.scipy.stats.s": cumulative["scipy.stats"]}


def gf_loop() -> dict[str, float]:
    """Nanoseconds per F_{101^2} multiply and inverse, untraced, median of 5."""
    from twistrank.gf import Flavor, build_field

    field = build_field(101, Flavor.UNITARY)
    a, b = field.elem(3, 7), field.elem(5, 2)

    def per_op(func, n: int) -> float:
        runs = []
        for _ in range(5):
            start = time.perf_counter()
            for _ in range(n):
                func()
            runs.append((time.perf_counter() - start) / n * 1e9)
        return statistics.median(runs)

    return {"gf.mul_ns": per_op(lambda: a * b, 20000), "gf.inv_ns": per_op(a.inv, 2000)}


def pass_count(seconds: int) -> int:
    return max(MIN_PASSES, round(PASSES_PER_25S * seconds / 25))


def end_to_end(runner: Runner, passes: int) -> tuple[dict, dict]:
    # set-up samples are spread over the run rather than taken in one burst
    import_after = {j * passes // SETUP_IMPORTS for j in range(SETUP_IMPORTS)}
    setup: list[float] = []
    times: list[float] = []
    # lazy state (field caches, numpy buffers) fills before timing starts
    runner.judge(runner.run_pass()[1])
    start = time.perf_counter()
    while len(times) < passes:
        if times and time.perf_counter() - start > LOOP_DEADLINE_S:
            break
        pass_seconds, results = runner.run_pass()
        runner.judge(results)
        if len(times) in import_after:
            setup.append(fresh_import()[0])
        times.append(pass_seconds)
    ordered = sorted(times)
    tail = max(0, len(ordered) - MIN_PASSES)
    metrics = {
        "setup_s": statistics.median(setup),
        "pass_s": statistics.fmean(times),
        "pass_tail_s": ordered[tail],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ok_frac": 1 - runner.failed / runner.attempted,
    }
    detail = {
        "passes": len(times),
        "pass_tail_percentile": 100 * tail / max(1, len(times) - 1),
        "passes_beyond_tail": len(times) - 1 - tail,
        "pass_median_s": statistics.median(times),
        "pass_seconds": times,
        "setup_import_s": setup,
        "fail_frac": runner.failed / runner.attempted,
        "command_median_s": {op.label: statistics.median(s)
                             for op, s in zip(runner.ops, runner.op_seconds)},
    }
    return metrics, detail


def per_layer(runner: Runner, seconds: int) -> tuple[dict, dict]:
    from tracing import Tracer

    metrics = import_breakdown()
    metrics.update(gf_loop())
    plain: list[float] = []
    traced: list[float] = []
    layers: list[dict] = []
    start = time.perf_counter()
    while len(traced) < TRACE_MIN_PASSES or time.perf_counter() - start < seconds:
        if traced and time.perf_counter() - start > LOOP_DEADLINE_S:
            break
        pass_seconds, results = runner.run_pass()
        runner.judge(results)
        plain.append(pass_seconds)
        tracer = Tracer()
        tracer.install()
        try:
            pass_seconds, results = runner.run_pass()
        finally:
            tracer.uninstall()
        runner.judge(results)
        traced.append(pass_seconds)
        layers.append(tracer.metrics())
    for name in layers[0]:
        metrics[name] = statistics.median(layer[name] for layer in layers)
    metrics["trace.overhead_frac"] = statistics.median(traced) / statistics.median(plain) - 1
    detail = {"plain_passes": len(plain), "traced_passes": len(traced)}
    return metrics, detail


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True, timeout=30)
    return proc.stdout.strip() or None


def provenance(args) -> dict:
    import numpy
    import scipy
    import twistrank
    from twistrank import twistsim

    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "git_commit": git_commit(),
        "src_sha256": digest.hexdigest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "twistrank": twistrank.__version__,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "chunk_samples": twistsim.CHUNK_SAMPLES,
    }


def declared_metrics(trace: bool) -> list[dict]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return spec["per_layer" if trace else "end_to_end"]


def measure(workload: str, seed: int, seconds: int, trace: bool, tamper=None) -> tuple[dict, dict]:
    """Run one workload; returns the result object and the detail."""
    from workloads import WORKLOADS

    runner = Runner(WORKLOADS[workload](seed, ROOT))
    runner.tamper = tamper
    if trace:
        values, detail = per_layer(runner, seconds)
    else:
        values, detail = end_to_end(runner, pass_count(seconds))
    declared = declared_metrics(trace)
    if set(values) != {m["name"] for m in declared}:
        raise RuntimeError(f"measured metrics {sorted(values)} differ from BENCHMARK.json")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    detail["failures"] = runner.problems
    result = {"correct": runner.correct, "attempted": runner.attempted,
              "failed": runner.failed, "metrics": metrics}
    return result, detail


def load_program() -> bool:
    """Put the checkout's src/ first on the path and import twistrank from it."""
    if not (SRC / "twistrank" / "cli.py").is_file():
        return False
    sys.path.insert(0, str(SRC))
    import twistrank

    return Path(twistrank.__file__).resolve().is_relative_to(SRC)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not load_program():
        print(f"error: no twistrank sources under {SRC}", file=sys.stderr)
        return 2
    result, detail = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps({"provenance": provenance(args), "detail": detail}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
