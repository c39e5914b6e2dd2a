"""The benchmark harness under perfbench/ still runs against this program.

perfbench/tracing.py patches twistrank names from outside, perfbench/
workloads.py builds its operations from twistrank, and perfbench/run.py
reads the import log and the provenance. A change that renames or removes
one of the names they use, or stops importing a module whose import time
they read, breaks the benchmark; these tests catch it here. They load the
harness modules from their files and do not change them.
"""

import argparse

import pytest

from harness import ROOT, load


def test_tracer_installs_and_uninstalls():
    from twistrank import spaces

    tracer = load("tracing").Tracer()
    original = spaces.rref
    tracer.install()
    try:
        assert spaces.rref is not original
    finally:
        tracer.uninstall()
    assert spaces.rref is original


@pytest.mark.parametrize("workload", ["sim-wide", "sim-deep", "exact", "geometry"])
def test_every_workload_builds(workload):
    workloads = load("workloads")
    assert set(workloads.WORKLOADS) == set(load("run").WORKLOAD_NAMES)
    assert workloads.WORKLOADS[workload](1, ROOT)


def test_import_breakdown_reads_both_imports():
    breakdown = load("run").import_breakdown()
    assert set(breakdown) == {"setup.numpy.s", "setup.scipy.stats.s"}
    assert all(seconds > 0 for seconds in breakdown.values())


def test_provenance_runs():
    args = argparse.Namespace(workload="exact", seed=1, seconds=1, trace=0)
    record = load("run").provenance(args)
    assert record["workload"] == "exact" and record["chunk_samples"] > 0
