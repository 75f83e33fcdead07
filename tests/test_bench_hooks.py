"""The benchmark's tracer wraps lpdeform entry points by name
(perfbench/spans.py); these tests fail when one of them is renamed or its
arguments move."""

import importlib.util
import os

import lpdeform as lp

from conftest import chain_tree, sign_flip_mutants

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


def test_tracer_counts_the_pairs_that_grow_the_basis():
    # groebner.spairs and groebner.basis_added are counted at buchberger's
    # textbook step, s_polynomial then _divide, which runs exactly for the
    # S-pairs whose remainder becomes a new basis element
    spans = load_spans()
    tracer = spans.Tracer()
    tracer.install()
    try:
        for key, tree, gens in sign_flip_mutants(3):
            before = tracer.metrics()
            lp.buchberger([g for _, g in gens], lp.monomial_order_for(tree))
            after = tracer.metrics()
            grown = after["groebner.basis_added"] - before["groebner.basis_added"]
            assert after["groebner.spairs"] - before["groebner.spairs"] == grown, key
    finally:
        tracer.uninstall()
    metrics = tracer.metrics()
    assert metrics["groebner.basis_added"] > 0
    assert metrics["groebner.spairs"] == metrics["groebner.basis_added"]
