"""Differential tests against sympy's Groebner bases, an implementation
independent of lpdeform's.  sympy is not a dependency: the module is
skipped where it is not installed.

Neither fact tested here depends on the term order: ideal membership does
not, and J is homogeneous for the weighted grading, so the standard
monomials of any term order count the weighted Hilbert function.  sympy
works in plain grevlex, which lpdeform never uses, so the tests also
cross-check lpdeform's weighted order.
"""

from fractions import Fraction
from itertools import combinations

import pytest

sympy = pytest.importorskip("sympy")

from lpdeform import (  # noqa: E402
    DeformationContext,
    Monomial,
    Polynomial,
    Verifier,
    XVar,
    all_rooted_trees,
    j_ideal_generators,
    positivity_witness,
    ring_variables,
)

from conftest import brute_standard_count  # noqa: E402

TREES = list(all_rooted_trees(4))
HILBERT_DEGREE = 4


class SympyIdeal:
    """J(2,P) as a sympy grevlex Groebner basis over ring_variables(tree)."""

    def __init__(self, tree):
        self.variables = ring_variables(tree)
        self.symbols = [sympy.Symbol(v.render()) for v in self.variables]
        self.basis = sympy.groebner(
            [self.expr(g) for _, g in j_ideal_generators(tree)],
            *self.symbols,
            order="grevlex",
        )

    def expr(self, f):
        sym = dict(zip(self.variables, self.symbols))
        return sympy.Add(*(
            sympy.Rational(Fraction(c).numerator, Fraction(c).denominator)
            * sympy.Mul(*(sym[v] ** e for v, e in m.pairs))
            for m, c in f.terms.items()
        ))

    def contains(self, f):
        return self.basis.contains(self.expr(f))

    def leading_monomials(self):
        leads = []
        for g in self.basis.exprs:
            exps = sympy.Poly(g, *self.symbols).monoms(order="grevlex")[0]
            leads.append(Monomial.from_pairs(
                (v, e) for v, e in zip(self.variables, exps) if e
            ))
        return leads


def tree_id(tree):
    return ",".join(f"{p}<{q}" for p, q in tree.covers) or "single"


@pytest.fixture(scope="module", params=TREES, ids=tree_id)
def case(request):
    tree = request.param
    return tree, SympyIdeal(tree)


def flat_basic_instances(tree):
    """S_p(b)c2 - b2 S_p(c) for all p <= b, p <= c, b != c."""
    ctx = DeformationContext(tree)

    def x2(p):
        return Polynomial.variable(XVar(2, p))

    for p in tree:
        for b, c in combinations(sorted(tree.filter_at_or_above(p)), 2):
            yield ctx.s_op(p, b) * x2(c) - x2(b) * ctx.s_op(p, c)


def test_sympy_basis_contains_every_flat_basic_instance(case):
    tree, ideal = case
    for f in flat_basic_instances(tree):
        assert ideal.contains(f)
    # and it is no vacuous test: a variable is never in J
    assert not ideal.contains(Polynomial.variable(XVar(2, tree.root)))


def test_sympy_standard_monomials_count_the_hilbert_function(case):
    tree, ideal = case
    counts = brute_standard_count(
        ideal.leading_monomials(), positivity_witness(tree), HILBERT_DEGREE
    )
    report = Verifier(tree).compare_hilbert(HILBERT_DEGREE)
    assert report.passed
    assert counts == report.params["J"]
