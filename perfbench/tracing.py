"""Spans and counters around twistrank's layers, installed from outside.

`Tracer.install()` rebinds public module and class attributes of the
`twistrank` package to wrappers in this process only; `uninstall()` puts
the originals back. Spans and counters stay in memory until `metrics()`
reads them. Field arithmetic (`gf`) gets call counters but no spans: a
span per field operation would cost more than the operation.

A span's self time is its duration minus the part of it that its child
spans cover. Chunk spans run on pool threads; their parent is the span
open on the thread that started the pool. A chunk's busy time is the CPU
time of its own thread, so that chunks stalled on the GIL or on a shared
core do not count as busy.
"""

from __future__ import annotations

import functools
import threading
import time
from collections import defaultdict

import numpy as np

from twistrank import bounds, cli, gf, rankdist, records, spaces, twistsim

LAYERS = ("cli", "records", "rankdist", "twistsim", "spaces", "bounds")


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or None]
        self.counts: dict[str, float] = defaultdict(float)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main = threading.main_thread()
        self._main_stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []
        self._busy_seen = 0.0

    # ------------------------------------------------------------ recording

    def _stack(self) -> list[int]:
        if threading.current_thread() is self._main:
            return self._main_stack
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def add(self, name: str, value: float = 1.0) -> None:
        with self._lock:
            self.counts[name] += value

    def timed(self, name: str, func, after=None):
        """Wrap func in a span; after(args, result, seconds) adds counters."""
        tracer = self

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            parent = stack[-1] if stack else (
                tracer._main_stack[-1] if tracer._main_stack else None)
            with tracer._lock:
                index = len(tracer.spans)
                tracer.spans.append([name, 0.0, 0.0, parent])
            stack.append(index)
            start = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                tracer.spans[index][1:3] = [start, end]
                tracer.add(name + ".calls")
            if after is not None:
                after(args, result, end - start)
            return result

        return wrapper

    def cpu_timed(self, name: str, func):
        """Wrap func to add the CPU time of the calling thread to counter name."""
        add = self.add

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            start = time.thread_time()
            try:
                return func(*args, **kwargs)
            finally:
                add(name, time.thread_time() - start)

        return wrapper

    def counted(self, name: str, func):
        counts = self.counts

        @functools.wraps(func)
        def wrapper(*args):
            counts[name] += 1
            return func(*args)

        return wrapper

    # ------------------------------------------------------------ patching

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def install(self) -> None:
        add = self.add
        patch = self._patch
        fq = gf.FqElem
        for attr, name in (("__mul__", "mul"), ("__rmul__", "mul"), ("inv", "inv"),
                           ("conj", "conj"), ("__pow__", "pow")):
            patch(fq, attr, self.counted(f"gf.{name}.calls", getattr(fq, attr)))

        def main_after(args, code, seconds):
            add("cli.main.failed", code != 0)

        def render_after(args, text, seconds):
            add("records.render.bytes", len(text.encode("utf-8")))

        def apply_after(args, out, seconds):
            add("rankdist.apply.live", np.count_nonzero(out.probs))
            add("rankdist.apply.ranks", len(out.probs))
            add("rankdist.apply.leaked_mass", out.tail_bound - args[0].tail_bound)

        def simulate_after(args, emp, seconds):
            config = args[0]
            add("twistsim.simulate.sample_steps", config.samples * config.k)
            # simulate calls run one at a time, so the chunk busy time added
            # since the last one belongs to this call
            busy = self.counts["twistsim.chunk.busy_s"] - self._busy_seen
            self._busy_seen += busy
            if config.threads > 1:
                add("twistsim.pool.busy_s", busy)
                add("twistsim.pool.thread_s", config.threads * seconds)
            add("twistsim.hist.live", np.count_nonzero(emp.counts))
            add("twistsim.hist.bins", len(emp.counts))

        def chi2_after(args, result, seconds):
            emp, reference = args[0], args[1]
            add("twistsim.chi2.bins_in", max(len(emp.counts), len(reference)))
            add("twistsim.chi2.bins_kept", result[1] + 1)

        def lines_after(args, lines, seconds):
            add("spaces.enumerate_isotropic_lines.candidates", args[0].field.q + 1)
            add("spaces.enumerate_isotropic_lines.found", len(lines))

        def maximal_after(args, hit, seconds):
            add("spaces.is_maximal_isotropic.hits", bool(hit))

        emp = twistsim.EmpiricalDistribution
        for owner, attr, name, after in (
            (cli, "main", "cli.main", main_after),
            (records.OutputRecord, "render", "records.render", render_after),
            (rankdist, "dist_value", "rankdist.dist_value", None),
            (rankdist, "stationary_distribution", "rankdist.stationary_distribution", None),
            (rankdist, "apply", "rankdist.apply", apply_after),
            (twistsim, "simulate", "twistsim.simulate", simulate_after),
            (twistsim, "_simulate_chunk", "twistsim.chunk", None),
            (emp, "chi2_against", "twistsim.chi2", chi2_after),
            (emp, "tv_against", "twistsim.tv", None),
            (twistsim, "strata_cardinality", "twistsim.strata_cardinality", None),
            (twistsim, "build_place_model", "twistsim.build_place_model", None),
            (bounds, "reports", "bounds.reports", None),
            (spaces, "rref", "spaces.rref", None),
            (spaces, "evaluate_form", "spaces.evaluate_form", None),
            (spaces, "orthogonal_complement", "spaces.orthogonal_complement", None),
            (spaces, "is_maximal_isotropic", "spaces.is_maximal_isotropic", maximal_after),
            (spaces, "enumerate_isotropic_lines", "spaces.enumerate_isotropic_lines",
             lines_after),
        ):
            func = getattr(owner, attr)
            if name == "twistsim.chunk":
                func = self.cpu_timed("twistsim.chunk.busy_s", func)
            patch(owner, attr, self.timed(name, func, after))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------- reading

    def span_seconds(self) -> tuple[dict[str, float], dict[str, float]]:
        """Total duration per span name, and self time per layer."""
        children: dict[int, list[int]] = defaultdict(list)
        for index, (_, _, _, parent) in enumerate(self.spans):
            if parent is not None:
                children[parent].append(index)
        total: dict[str, float] = defaultdict(float)
        self_s: dict[str, float] = defaultdict(float)
        for index, (name, start, end, _) in enumerate(self.spans):
            total[name] += end - start
            covered, reach = 0.0, start
            for lo, hi in sorted((self.spans[c][1], self.spans[c][2]) for c in children[index]):
                lo, hi = max(lo, reach), min(hi, end)
                if hi > lo:
                    covered += hi - lo
                    reach = hi
            self_s[name.split(".")[0]] += end - start - covered
        return total, self_s

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics of everything recorded (one pass)."""
        c = self.counts
        total, self_s = self.span_seconds()

        def ratio(a: float, b: float) -> float:
            return a / b if b else 0.0

        out = {name: c[name] for name in (
            "gf.mul.calls", "gf.inv.calls", "gf.conj.calls", "gf.pow.calls",
            "spaces.evaluate_form.calls", "spaces.rref.calls",
            "spaces.orthogonal_complement.calls", "spaces.is_maximal_isotropic.calls",
            "rankdist.dist_value.calls", "rankdist.apply.calls", "rankdist.apply.leaked_mass",
            "twistsim.simulate.sample_steps", "twistsim.chunk.calls", "twistsim.chunk.busy_s",
            "twistsim.chi2.bins_in", "twistsim.chi2.bins_kept",
            "twistsim.strata_cardinality.calls", "records.render.calls",
            "records.render.bytes", "cli.main.calls", "cli.main.failed")}
        for name in ("spaces.enumerate_isotropic_lines", "spaces.evaluate_form", "spaces.rref",
                     "spaces.is_maximal_isotropic", "rankdist.dist_value",
                     "rankdist.stationary_distribution", "rankdist.apply", "twistsim.simulate",
                     "twistsim.chi2", "twistsim.tv", "twistsim.strata_cardinality",
                     "twistsim.build_place_model", "bounds.reports", "records.render"):
            out[name + ".s"] = total.get(name, 0.0)
        out["spaces.enumerate_isotropic_lines.hit_frac"] = ratio(
            c["spaces.enumerate_isotropic_lines.found"],
            c["spaces.enumerate_isotropic_lines.candidates"])
        out["spaces.is_maximal_isotropic.hit_frac"] = ratio(
            c["spaces.is_maximal_isotropic.hits"], c["spaces.is_maximal_isotropic.calls"])
        out["rankdist.apply.live_frac"] = ratio(c["rankdist.apply.live"],
                                                c["rankdist.apply.ranks"])
        out["twistsim.simulate.steps_per_s"] = ratio(c["twistsim.simulate.sample_steps"],
                                                     out["twistsim.simulate.s"])
        # over simulate calls with more than one thread only
        out["twistsim.chunk.parallel_eff"] = ratio(c["twistsim.pool.busy_s"],
                                                   c["twistsim.pool.thread_s"])
        out["twistsim.hist.live_frac"] = ratio(c["twistsim.hist.live"], c["twistsim.hist.bins"])
        for layer in LAYERS:
            out[layer + ".self_s"] = self_s.get(layer, 0.0)
        return out
