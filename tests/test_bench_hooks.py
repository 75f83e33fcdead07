"""The benchmark's tracer wraps lpdeform entry points by name
(perfbench/spans.py); these tests fail when one of them is renamed or its
arguments move."""

import importlib.util
import os

import lpdeform as lp

from conftest import chain_tree

SPANS = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), os.pardir, "perfbench", "spans.py"
)


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_wraps_and_restores_the_hilbert_counter():
    spans = load_spans()
    original = lp.grading.truncated_hilbert
    tracer = spans.Tracer()
    tracer.install()  # raises if any wrapped name is missing
    try:
        verifier = lp.Verifier(chain_tree(2))
        report = verifier.compare_hilbert(3)
    finally:
        tracer.uninstall()
    assert report.passed
    # the tracer reads weights and max_degree as positional arguments 1
    # and 2; compare_hilbert counts J and L over the same weights
    per_call = spans.monomials_up_to(verifier.order.weights.values(), 3)
    assert tracer.metrics()["grading.hilbert_monomials"] == 2 * per_call
    assert tracer.calls["grading.hilbert"] == 2
    assert lp.grading.truncated_hilbert is original
    assert lp.truncated_hilbert is original
