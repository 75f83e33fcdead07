from lpdeform import (
    Monomial,
    UVar,
    XVar,
    all_rooted_trees,
    comparable_pairs,
    letterplace_generators,
    letterplace_polynomials,
    parameter_pairs,
    ring_variables,
    u_variables,
    x_variables,
)

from conftest import chain_tree, fixture_trees, load_tree, star_tree


def test_comparable_pairs_counts():
    assert len(comparable_pairs(chain_tree(4))) == 10
    assert len(comparable_pairs(star_tree(2))) == 5
    assert len(comparable_pairs(load_tree("tree7"))) == 18


def test_comparable_pairs_order_and_content():
    pairs = comparable_pairs(chain_tree(3))
    assert pairs == (("a", "a"), ("a", "b"), ("a", "c"),
                     ("b", "b"), ("b", "c"), ("c", "c"))


def test_letterplace_generators_are_the_quadrics():
    gens = letterplace_generators(star_tree(2))
    expected = {
        ("a", "a"): Monomial.from_pairs([(XVar(1, "a"), 1), (XVar(2, "a"), 1)]),
        ("a", "b"): Monomial.from_pairs([(XVar(1, "a"), 1), (XVar(2, "b"), 1)]),
        ("a", "c"): Monomial.from_pairs([(XVar(1, "a"), 1), (XVar(2, "c"), 1)]),
        ("b", "b"): Monomial.from_pairs([(XVar(1, "b"), 1), (XVar(2, "b"), 1)]),
        ("c", "c"): Monomial.from_pairs([(XVar(1, "c"), 1), (XVar(2, "c"), 1)]),
    }
    assert dict(gens) == expected
    polys = letterplace_polynomials(star_tree(2))
    assert len(polys) == 5 and all(len(p) == 1 for p in polys)


def test_u_variables_chain():
    assert list(parameter_pairs(chain_tree(3))) == [(None, "a"), ("a", "b"), ("b", "c")]
    assert u_variables(chain_tree(3)) == [
        UVar(None, "a"), UVar("a", "b"), UVar("b", "c")]


def test_u_variables_star_includes_sibling_parameters():
    assert u_variables(star_tree(2)) == [
        UVar(None, "a"),
        UVar("a", "b"), UVar("c", "b"),
        UVar("a", "c"), UVar("b", "c")]


def test_u_variables_admissibility():
    # u[q,p] exists iff q != p and meet(q, p) = parent(p), on every tree of
    # up to 7 nodes and every tree fixture
    trees = [*all_rooted_trees(7), *fixture_trees()]
    assert len(trees) == 85 + 9
    for tree in trees:
        got = set(u_variables(tree))
        expected = {UVar(None, tree.root)}
        for p in tree.elements:
            if p == tree.root:
                continue
            for q in tree.elements:
                if q != p and tree.meet(q, p) == tree.parent(p):
                    expected.add(UVar(q, p))
        assert got == expected, tree.covers


def test_x_variables_follow_linear_extension():
    assert x_variables(chain_tree(2)) == [
        XVar(1, "a"), XVar(2, "a"), XVar(1, "b"), XVar(2, "b")]


def test_ring_variables_layout():
    tree = star_tree(3)
    varis = ring_variables(tree)
    xs, us = x_variables(tree), u_variables(tree)
    assert varis == xs + us
    assert len(set(varis)) == len(varis)
    # star with m leaves: m^2 + m + 1 deformation parameters... for m = 3:
    # root u, plus each leaf has parent + 2 siblings = 3, so 1 + 3*3 = 10
    assert len(us) == 10
