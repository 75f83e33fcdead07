"""The quadratic letterplace ideal L(2,P) and the deformation parameters.

L(2,P) lives in k[x_{i,p} : i in {1,2}, p in P] and is generated by the
monomials p1*q2 over all comparable pairs p <= q.  For a rooted tree the
deformation of each non-root p introduces one parameter u_{q,p} per element
q >= parent(p) with q not >= p (q is either the parent itself or sits
weakly above a sibling of p); the root gets the single parameter u_{0,root}.
_parameters_of states that rule, and every layer reads it from there.
"""

from __future__ import annotations

from .posets import as_rooted_tree
from .polynomials import Monomial, Polynomial, UVar, XVar


def comparable_pairs(poset):
    """All (p, q) with p <= q, ordered by linear extension in both slots."""
    return tuple((p, q) for p in poset.linear_extension() for q in poset.above(p))


def letterplace_generators(poset):
    """The generators p1*q2 of L(2,P), as ((p, q), Monomial) pairs."""
    out = []
    for p, q in comparable_pairs(poset):
        mono = Monomial.from_pairs([(XVar(1, p), 1), (XVar(2, q), 1)])
        out.append(((p, q), mono))
    return out


def letterplace_polynomials(poset):
    return [Polynomial.term(m) for _, m in letterplace_generators(poset)]


def _parameters_of(tree, p):
    """The q of the parameters u_{q,p} of the tree's element p, in
    linear-extension order: [None] for the root, and otherwise every
    q >= parent(p) with q not >= p, which is every q other than p whose meet
    with p is p's parent (the parent itself, or an element at or above a
    sibling of p)."""
    a = tree.parent(p)
    if a is None:
        return [None]
    return [q for q in tree.above(a) if not tree.le(p, q)]


def parameter_pairs(tree):
    """The index pairs (q, p) of the deformation parameters u_{q,p}, ordered
    by p, then q, along the linear extension: q runs over _parameters_of(p),
    the q >= parent(p) with q not >= p (equally: the q other than p whose
    meet with p is p's parent).  The root, which begins every linear
    extension, comes first as (None, root)."""
    tree = as_rooted_tree(tree)
    for p in tree.linear_extension():
        for q in _parameters_of(tree, p):
            yield q, p


def u_variables(tree):
    """The deformation parameters u_{q,p}, in parameter_pairs order."""
    return [UVar(q, p) for q, p in parameter_pairs(tree)]


def x_variables(poset):
    """x_{1,p}, x_{2,p} for p along the linear extension."""
    out = []
    for p in poset.linear_extension():
        out.append(XVar(1, p))
        out.append(XVar(2, p))
    return out


def ring_variables(tree):
    """The full variable list of B(2,P): x-variables first, then the
    deformation parameters.  This is the sequence every monomial order in
    the package is built on."""
    return x_variables(tree) + u_variables(tree)
