"""Self-test of the benchmark harness. Run from the repository root:

    python3 perfbench/selftest.py

Runs every workload briefly in both modes and checks that exactly the
metrics declared in BENCHMARK.json are emitted, each with its unit; that
`exact` fails only its known-defect inputs; that a known-defect input
failing in any other way than the documented one clears `correct`; that
tampered command output lowers ok_frac and clears `correct`; and that the
harness exits non-zero without a result when the twistrank sources are
absent. Exits 1 if any check fails.
"""

from __future__ import annotations

import re
import shutil
import subprocess
import sys
import tempfile

import run

FAILURES: list[str] = []


def expect(cond: bool, message: str) -> None:
    print(("ok   " if cond else "FAIL ") + message)
    if not cond:
        FAILURES.append(message)


def bump_first_count(text: str) -> str:
    return re.sub(r"(count\(0\)\D+)(\d)", lambda m: m[1] + str((int(m[2]) + 1) % 10), text,
                  count=1)


def known_defect_cases() -> None:
    from workloads import KNOWN_DEFECT_ERROR, Op

    def documented():
        print(KNOWN_DEFECT_ERROR, file=sys.stderr)
        return 1

    def other_error():
        print("error: p must be prime, got 4", file=sys.stderr)
        return 1

    def crash():
        raise OverflowError("int too large to convert to float")

    for func, correct, how in ((documented, True, "with the documented error"),
                               (other_error, False, "with another error"),
                               (crash, False, "by an uncaught exception")):
        runner = run.Runner([Op(label="defect", run=func, check=lambda text: None,
                                known_defect=True)])
        runner.judge(runner.run_pass()[1])
        expect(runner.failed == 1 and runner.correct == correct,
               f"a known-defect op failing {how} leaves correct {correct}")


def main() -> int:
    if not run.load_program():
        print(f"no twistrank sources under {run.SRC}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    known_defect_cases()
    # short runs: the checks need every op to run, not stable timings
    run.MIN_PASSES, run.SETUP_IMPORTS, run.TRACE_MIN_PASSES = 2, 1, 1
    share = {}
    for trace in (False, True):
        declared = {m["name"]: m["unit"] for m in run.declared_metrics(trace)}
        for name in WORKLOADS:
            result, _ = run.measure(name, 1, 1, trace)
            mode = "traced" if trace else "untraced"
            units = {k: v["unit"] for k, v in result["metrics"].items()}
            expect(units == declared, f"{name} {mode}: every declared metric, with its unit")
            expect(all(isinstance(v["value"], (int, float)) for v in result["metrics"].values()),
                   f"{name} {mode}: every metric value is a number")
            expect(result["correct"], f"{name} {mode}: correct")
            ops = WORKLOADS[name](1, run.ROOT)
            defects = sum(op.known_defect for op in ops) / len(ops)
            expect(result["failed"] / result["attempted"] == defects,
                   f"{name} {mode}: failure share is the known-defect share {defects:.4f}")
            if not trace:
                share[name] = result["metrics"]["ok_frac"]["value"]

    for name, index, tamper in (
        ("exact", 0, lambda text: text.replace("0.4194", "0.4195")),
        ("sim-wide", 1, bump_first_count),
        ("geometry", 6, lambda text: text.replace("15 of", "14 of")),
        ("geometry", 0, lambda text: text.replace("(1, x)\n", "(1, 1)\n")),
    ):
        result, detail = run.measure(name, 1, 1, False,
                                     tamper=lambda i, text: tamper(text) if i == index else text)
        expect(not result["correct"] and result["metrics"]["ok_frac"]["value"] < share[name],
               f"{name}: tampered output of op {index} lowers ok_frac and clears correct "
               f"({detail['failures']})")

    with tempfile.TemporaryDirectory(dir=run.ROOT) as bare:
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        shutil.copytree(run.ROOT / "perfbench", f"{bare}/perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "exact",
                               "--seed", "1", "--seconds", "1", "--trace", "0"],
                              cwd=bare, capture_output=True, text=True, timeout=180)
        expect(proc.returncode != 0 and '"correct"' not in proc.stdout,
               "without src/ the harness exits non-zero and prints no result")

    print(f"{len(FAILURES)} failed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
