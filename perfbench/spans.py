"""Per-layer spans and counters, recorded from outside the package.

The traced run wraps the functions in SPANS and rebinds each wrapper in
every halfmult.* namespace that holds the original, because cli, prob,
search and coloring import these functions by name. Each call records a
span: name, start, end, parent span and job id. For a generator each
next() is a span. Spans stay in memory in compact arrays and are written
out when the run ends; work counters are read off return values at the
same boundaries.

A span's self time is its duration minus its children's durations, so the
self times of all spans of a job sum to the duration of its cli.main span.
rng.make_rng and graphs.complement are not wrapped: their time belongs to
their callers, as does prob.stirling2 (part of the Fraction assembly).
"""

from __future__ import annotations

import collections
import functools
import importlib
import sys
from array import array
from time import perf_counter_ns

import numpy as np

SPANS = {
    "cli": ("main",),
    "search": ("min_independence_prob", "enumerate_ktfree", "_canonical_form", "known_exact_value"),
    "graphs": (
        "independence_profile",
        "find_clique",
        "max_clique_size",
        "to_graph6",
        "from_graph6",
        "write_graph6_file",
        "read_graph6_file",
    ),
    "f2": ("build_cf_graph", "count_isotropic_subspaces"),
    "prob": ("exact_independence_prob", "mc_independence_prob"),
    "coloring": ("construct_coloring", "verify_certificate", "certificate_from_text"),
    "bounds": ("standard_report", "optimize_p", "n_recursion", "random_exponent"),
}
GRAPH6 = ("graphs.to_graph6", "graphs.from_graph6", "graphs.write_graph6_file", "graphs.read_graph6_file")
GENERATORS = {"search.enumerate_ktfree": "search.graphs_scanned"}  # counter bumped per yielded item


def _count_coloring(counts, result):
    if hasattr(result, "attempts_used"):
        counts["coloring.attempts"] += result.attempts_used
        counts["coloring.certificates"] += 1
    else:
        counts["coloring.attempts"] += result.attempts


COUNTERS = {
    "graphs.independence_profile": lambda counts, r: counts.update({"graphs.count_sets": sum(r.counts[1:])}),
    "graphs.find_clique": lambda counts, r: counts.update({"graphs.clique_found": r is not None}),
    "f2.build_cf_graph": lambda counts, r: counts.update({"f2.vertices_built": r.n}),
    "prob.mc_independence_prob": lambda counts, r: counts.update({"prob.mc_trials": r.trials}),
    "coloring.construct_coloring": _count_coloring,
}


class _Steps:
    """Iterator over a wrapped generator; each next() is one span."""

    def __init__(self, tracer: "Tracer", name_id: int, counter: str, it):
        self.tracer, self.name_id, self.counter, self.it = tracer, name_id, counter, it

    def __iter__(self):
        return self

    def __next__(self):
        idx = self.tracer.open(self.name_id)
        try:
            item = next(self.it)
        finally:
            self.tracer.close(idx)
        self.tracer.counts[self.counter] += 1
        return item


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.start, self.end = array("q"), array("q")
        self.parent, self.job, self.name = array("i"), array("i"), array("H")
        self.stack = [-1]
        self.job_id = -1
        self.counts: collections.Counter = collections.Counter()
        self._rebound: list = []

    def open(self, name_id: int) -> int:
        idx = len(self.end)
        self.parent.append(self.stack[-1])
        self.job.append(self.job_id)
        self.name.append(name_id)
        self.end.append(0)
        self.stack.append(idx)
        self.start.append(perf_counter_ns())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = perf_counter_ns()
        self.stack.pop()

    def _wrap(self, qualname: str, fn):
        name_id = len(self.names)
        self.names.append(qualname)
        count = COUNTERS.get(qualname)
        steps = GENERATORS.get(qualname)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.open(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if count is not None:
                count(self.counts, result)
            return result if steps is None else _Steps(self, name_id, steps, result)

        return traced

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items() if n == "halfmult" or n.startswith("halfmult.")]
        for layer, functions in SPANS.items():
            home = importlib.import_module(f"halfmult.{layer}")
            for fname in functions:
                original = getattr(home, fname)
                wrapper = self._wrap(f"{layer}.{fname}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)
                            self._rebound.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._rebound):
            setattr(module, attr, original)
        self._rebound.clear()

    def _totals(self):
        k = len(self.names)
        dur = (np.frombuffer(self.end, np.int64) - np.frombuffer(self.start, np.int64)) * 1e-9
        parent = np.frombuffer(self.parent, np.int32)
        name = np.frombuffer(self.name, np.uint16)
        nested = parent >= 0
        self_time = dur - np.bincount(parent[nested], weights=dur[nested], minlength=len(dur))
        return (
            dict(zip(self.names, np.bincount(name, weights=self_time, minlength=k).tolist())),
            dict(zip(self.names, np.bincount(name, weights=dur, minlength=k).tolist())),
            dict(zip(self.names, np.bincount(name, minlength=k).tolist())),
        )

    def metrics(self, job_wall_s: float) -> dict[str, float]:
        """Per-layer metrics over all traced jobs; job_wall_s is their summed
        wall time as the harness measured it."""
        own, inclusive, calls = self._totals()
        c = self.counts

        def rate(work, seconds):
            return work / seconds if seconds else 0.0

        m = {
            "search.enumerate_s": own["search.enumerate_ktfree"],
            "search.graphs_scanned": c["search.graphs_scanned"],
            "search.self_s": own["search.min_independence_prob"],
            "search.canonical_s": own["search._canonical_form"],
            "graphs.count_s": own["graphs.independence_profile"],
            "graphs.count_calls": calls["graphs.independence_profile"],
            "graphs.count_sets": c["graphs.count_sets"],
            "graphs.clique_s": own["graphs.find_clique"] + own["graphs.max_clique_size"],
            "graphs.clique_calls": calls["graphs.find_clique"] + calls["graphs.max_clique_size"],
            "graphs.clique_found_ratio": rate(c["graphs.clique_found"], calls["graphs.find_clique"]),
            "graphs.graph6_s": sum(own[n] for n in GRAPH6),
            "f2.build_s": own["f2.build_cf_graph"],
            "f2.vertices_built": c["f2.vertices_built"],
            "prob.exact_self_s": own["prob.exact_independence_prob"],
            "prob.mc_s": own["prob.mc_independence_prob"],
            "prob.mc_trials": c["prob.mc_trials"],
            "coloring.construct_self_s": own["coloring.construct_coloring"],
            "coloring.attempts": c["coloring.attempts"],
            "coloring.success_ratio": rate(c["coloring.certificates"], c["coloring.attempts"]),
            "coloring.verify_s": inclusive["coloring.verify_certificate"],
            "coloring.verify_self_s": own["coloring.verify_certificate"],
            "coloring.parse_s": own["coloring.certificate_from_text"],
            "bounds.s": sum(v for n, v in own.items() if n.startswith("bounds.")),
            "cli.self_s": own["cli.main"],
        }
        m["search.graphs_per_s"] = rate(m["search.graphs_scanned"], m["search.enumerate_s"])
        m["graphs.count_sets_per_s"] = rate(m["graphs.count_sets"], m["graphs.count_s"])
        m["f2.vertices_per_s"] = rate(m["f2.vertices_built"], m["f2.build_s"])
        m["prob.mc_trials_per_s"] = rate(m["prob.mc_trials"], m["prob.mc_s"])
        layers = {layer: sum(v for n, v in own.items() if n.startswith(layer + ".")) for layer in SPANS}
        for layer, seconds in layers.items():
            m[f"layer.{layer}_self_s"] = seconds
        m["trace.job_wall_s"] = job_wall_s
        m["trace.self_coverage"] = rate(sum(layers.values()), job_wall_s)
        m["trace.spans"] = len(self.end)
        return m

    def save(self, path, job_keys) -> None:
        np.savez(
            path,
            start_ns=np.frombuffer(self.start, np.int64),
            end_ns=np.frombuffer(self.end, np.int64),
            parent=np.frombuffer(self.parent, np.int32),
            job=np.frombuffer(self.job, np.int32),
            name=np.frombuffer(self.name, np.uint16),
            names=np.array(self.names),
            jobs=np.array(job_keys),
        )
