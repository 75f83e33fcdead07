import itertools
import os

from lpdeform import (
    Polynomial,
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
