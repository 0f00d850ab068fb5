"""The benchmark's tracer wraps package functions by name, so renaming one
must fail here, not only in a traced benchmark run; and each layer that
CI's tracer step reads must still record work when its command runs."""

import importlib

import pytest

import halfmult.cli  # noqa: F401  the tracer rebinds only in modules already loaded
from perfbench import workloads
from perfbench.spans import COUNTERS, GENERATORS, GRAPH6, SPANS, Tracer

TRACED = [(layer, name) for layer, names in SPANS.items() for name in names]

# One small command for each metric the tracer step of .github/workflows/tests.yml
# requires to be above 0.
TRACED_WORK = {
    "search.canonical_s": ["search", "--s", "3", "--t", "3", "--max-n", "5", "--dedup-iso"],
    "f2.build_s": ["exact", "--in", "cf:6", "--s", "3"],
    "graphs.count_s": ["exact", "--in", "cf:6", "--s", "3"],
    "prob.mc_trials": ["estimate", "--in", "cf:6", "--s", "3", "--trials", "1000", "--seed", "0"],
    "bounds.s": ["bounds", "--s", "3", "--t", "3"],
    "graphs.clique_calls": ["graph", "clique", "--in", "cf:6", "--t", "6"],
}


@pytest.mark.parametrize("layer, name", TRACED, ids=[f"{layer}.{name}" for layer, name in TRACED])
def test_every_span_names_a_package_function(layer, name):
    assert callable(getattr(importlib.import_module(f"halfmult.{layer}"), name, None))


def test_counters_read_traced_functions():
    traced = {f"{layer}.{name}" for layer, name in TRACED}
    assert {*COUNTERS, *GENERATORS, *GRAPH6} <= traced


@pytest.mark.parametrize("metric", TRACED_WORK)
def test_traced_layer_records_work(metric):
    tracer = Tracer()
    tracer.install()
    try:
        rc, _, err, wall = workloads.execute(TRACED_WORK[metric])
    finally:
        tracer.uninstall()
    assert rc == 0, err
    assert tracer.metrics(wall)[metric] > 0
