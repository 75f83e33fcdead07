import itertools
import os
from itertools import combinations, permutations, product

from lpdeform import (
    Polynomial,
    XVar,
    as_rooted_tree,
    j_ideal_generators,
    load_poset,
    parse_poset,
    rooted_tree_shapes,
    shape_to_tree,
)

FIXTURES = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "fixtures")


def fixture_path(name):
    return os.path.join(FIXTURES, name)


def load_tree(name):
    """Load fixtures/<name>.poset as a rooted tree."""
    return as_rooted_tree(load_poset(fixture_path(name + ".poset")))


def tree_from(text):
    return as_rooted_tree(parse_poset(text))


def chain_tree(n):
    """The chain with n elements a < b < c < ..."""
    names = [chr(ord("a") + i) for i in range(n)]
    lines = [f"{p} < {q}" for p, q in zip(names, names[1:])]
    return tree_from("\n".join(lines) if lines else f"elem {names[0]}")


def star_tree(m):
    """Root a with m leaves b, c, ..."""
    names = [chr(ord("b") + i) for i in range(m)]
    return tree_from("\n".join(f"a < {x}" for x in names))


def sign_flip(g):
    """g with the sign of its u-part flipped."""
    u_free = Polynomial({m: c for m, c in g.terms.items() if m.u_degree() == 0})
    return u_free - (g - u_free)


def tree_key(tree):
    if len(tree.elements) == 1:
        return tree.root
    return ",".join(f"{tree.parent(p)}<{p}" for p in tree.linear_extension() if p != tree.root)


def sign_flip_mutants(max_nodes):
    """(key, tree, generator list) for every single sign flip of a
    generator's u-part over the rooted trees with up to max_nodes nodes."""
    for n in range(1, max_nodes + 1):
        for shape in rooted_tree_shapes(n):
            tree = shape_to_tree(shape)
            gens = j_ideal_generators(tree)
            for k, ((p, q), g) in enumerate(gens):
                mutated = list(gens)
                mutated[k] = ((p, q), sign_flip(g))
                yield f"{tree_key(tree)} g({p},{q})", tree, mutated


def tuple_order_key(order, mono):
    """The term order as a (weight, revlex tuple) pair: weighted degree,
    then the exponents from the last variable back, negated."""
    dense = [mono.exponent(v) for v in order.variables]
    return (order.weight(mono), tuple(-e for e in reversed(dense)))


def brute_force_order_ideals(poset):
    """Count downward-closed subsets by filtering the whole power set."""
    elems = poset.elements
    count = 0
    for bits in itertools.product([0, 1], repeat=len(elems)):
        chosen = {e for e, b in zip(elems, bits) if b}
        closed = all(
            d in chosen
            for e in chosen for d in elems if poset.le(d, e)
        )
        count += closed
    return count


def bounded_monomials(variables, weights, bound):
    """Every exponent table on `variables` of weight <= bound, with its
    weight."""
    if not variables:
        yield {}, 0
        return
    v, rest = variables[0], variables[1:]
    for e in range(bound // weights[v] + 1):
        for table, wt in bounded_monomials(rest, weights, bound - e * weights[v]):
            yield {v: e, **table}, wt + e * weights[v]


def brute_standard_count(leads, weights, max_degree):
    """Oracle: enumerate every monomial of bounded weight and keep those
    that no monomial in `leads` divides."""
    counts = [0] * (max_degree + 1)
    for table, wt in bounded_monomials(list(weights), weights, max_degree):
        if not any(all(table[v] >= e for v, e in lead.pairs) for lead in leads):
            counts[wt] += 1
    return counts


def oracle_instances(verifier):
    """Check name -> a lazy stream of the instances of `verifier`'s
    flatness checks as Polynomial expressions, in the order the checks
    draw them: (label, polynomial) for a membership check, (label, lift,
    factorization) for a relation lift.  The verifier builds the same
    instances in packed form; these expressions are its oracle."""
    tree, ctx = verifier.tree, verifier.ctx
    above, above_pairs, kids = verifier._above, verifier._above_pairs, tree.children
    g = dict(verifier.generators)

    def x(place, p):
        return Polynomial.variable(XVar(place, p))

    def share(c, b):
        return ctx.t_full(b) if c == b else ctx.t_sub(c, b)

    def child_sum(a, cols, d):
        expr = Polynomial.zero()
        for ix, y in enumerate(kids(a), start=1):
            expr = expr + ctx.generalized_minor(a, cols, (ix,)) * share(d, y)
        return expr

    def flat_p2(a, b):
        return x(1, a) * ctx.t_full(b) - ctx.t_full(a) * ctx.cover_product_r(a, b) * x(1, b)

    def column_pairs(a):
        return combinations(enumerate(kids(a), start=1), 2)

    return {
        "flat-basic": (
            (f"(p,b,c)=({p},{b},{c})", ctx.s_op(p, b) * x(2, c) - x(2, b) * ctx.s_op(p, c))
            for p in tree
            for b, c in above_pairs(p)
        ),
        "lemma-ts": (
            (f"(p,q,b)=({p},{q},{b})", ctx.st_entry(p, q) * x(2, b) - share(p, q) * ctx.s_op(p, b))
            for p in tree
            if p != tree.root
            for q in (p,) + tree.siblings(p)
            for b in above(p)
        ),
        "lemma-stt": (
            (
                f"(p,q,r)=({p},{q},{r})",
                ctx.st_entry(p, q) * share(p, r) - share(p, q) * ctx.st_entry(p, r),
            )
            for a in tree
            for p, q, r in product(kids(a), repeat=3)
        ),
        "lemma-sum-dt1": (
            (f"a={a} cols=({ib},{ic}) T_{d}", child_sum(a, (ib, ic), d))
            for a in tree
            for (ib, _), (ic, _) in column_pairs(a)
            for idd, d in enumerate(kids(a), start=1)
            if idd not in (ib, ic)
        ),
        "lemma-sum-dt2": (
            (f"a={a} cols=({ib},{ic}) T_{a}", child_sum(a, (ib, ic), a))
            for a in tree
            for (ib, _), (ic, _) in column_pairs(a)
        ),
        "lemma-sum-dt3": (
            (f"a={a} cols=(0,{ib}) T_{c}", child_sum(a, (0, ib), c))
            for a in tree
            for (ib, _), (_, c) in permutations(enumerate(kids(a), start=1), 2)
        ),
        "flat-p2": ((f"(a,b)=({a},{b})", flat_p2(a, b)) for a in tree for b in above(a)),
        "relation-lift-x2": (
            (
                f"(a,b,c)=({a},{b},{c})",
                x(2, c) * g[(a, b)] - x(2, b) * g[(a, c)],
                ctx.t_full(a) * (x(2, b) * ctx.s_op(a, c) - x(2, c) * ctx.s_op(a, b)),
            )
            for a in tree
            for b, c in above_pairs(a)
        ),
        "relation-lift-x1": (
            (
                f"(a,b,c)=({a},{b},{c})",
                x(1, b) * g[(a, c)] - x(1, a) * g[(b, c)],
                ctx.s_op(b, c) * flat_p2(a, b),
            )
            for a in tree
            for b in above(a)
            for c in above(b)
        ),
    }
