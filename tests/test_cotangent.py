import random
import time
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from lpdeform import (
    DomainError,
    Monomial,
    MonomialOrder,
    MultiDegree,
    Poset,
    T1Generator,
    XVar,
    all_rooted_trees,
    letterplace_generators,
    load_poset,
    minimal_lower_bound_sets,
    minimal_upper_bound_sets,
    monomial_degree,
    render_monomial,
    t1_generators,
    t1_generators_tree,
    u_variables,
    variable_degree,
    x_variables,
)
from lpdeform import cotangent
from lpdeform.cotangent import _minimal_bound_sets

from conftest import chain_tree, fixture_path, load_tree, star_tree, tree_from


def plain_order(poset):
    xs = x_variables(poset)
    return MonomialOrder(xs, {v: 1 for v in xs})


# -- minimal bound sets --------------------------------------------------------

def test_minimal_bound_sets_on_a_chain():
    tree = chain_tree(3)
    assert minimal_upper_bound_sets(tree, ["a"], ["b", "c"]) == [("b",), ("c",)]
    assert minimal_lower_bound_sets(tree, ["c"], ["a", "b"]) == [("a",), ("b",)]
    assert minimal_upper_bound_sets(tree, [], ["b", "c"]) == [()]
    assert minimal_lower_bound_sets(tree, [], []) == [()]


def test_a_repeated_pool_element_gives_one_bound_set():
    diamond = Poset("abcd", [("a", "b"), ("a", "c"), ("b", "d"), ("c", "d")])
    assert minimal_upper_bound_sets(diamond, ["a"], ["b", "b", "c"]) == [("b",), ("c",)]
    assert minimal_lower_bound_sets(diamond, ["d"], ["c", "b", "c"]) == [("b",), ("c",)]


def test_minimal_bound_sets_prune_supersets():
    tree = star_tree(2)  # a < b, a < c
    # both leaves must be covered and neither bounds the other
    assert minimal_upper_bound_sets(tree, ["b", "c"], ["b", "c"]) == [("b", "c")]
    # a alone bounds both from below; (b, c) is not minimal once a is found
    assert minimal_lower_bound_sets(tree, ["b", "c"], ["a", "b", "c"]) == \
        [("a",), ("b", "c")]


def exhaustive_bound_sets(poset, targets, within, lower):
    """The reference search: every subset of `within`, smallest first,
    kept when it bounds every target and holds no set found before."""
    targets = tuple(targets)
    pos = {p: i for i, p in enumerate(poset.linear_extension())}
    pool = sorted(within, key=pos.__getitem__)
    if not targets:
        return [()]

    def bounds(s, t):
        return poset.le(s, t) if lower else poset.le(t, s)

    found = []
    for size in range(1, len(pool) + 1):
        for combo in combinations(pool, size):
            if any(set(f) <= set(combo) for f in found):
                continue
            if all(any(bounds(s, t) for s in combo) for t in targets):
                found.append(combo)
    found.sort(key=lambda c: (len(c), tuple(pos[s] for s in c)))
    return found


@st.composite
def posets(draw, max_size=9):
    """A poset on up to max_size elements: any set of relations i < j
    between positions, under shuffled names."""
    n = draw(st.integers(1, max_size))
    names = draw(st.permutations("abcdefghi"[:n]))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    relations = draw(st.lists(st.sampled_from(pairs), max_size=2 * n) if pairs else st.just([]))
    return Poset(names, [(names[i], names[j]) for i, j in relations])


@given(st.data())
@settings(max_examples=300)
def test_bounded_search_matches_the_exhaustive_one(data):
    poset = data.draw(posets())
    subsets = st.lists(st.sampled_from(poset.elements), unique=True)
    targets, within = data.draw(subsets), data.draw(subsets)
    for lower in (False, True):
        assert _minimal_bound_sets(poset, targets, within, lower) == \
            exhaustive_bound_sets(poset, targets, within, lower)


@given(posets())
@settings(max_examples=100)
def test_t1_generators_match_the_exhaustive_search(poset):
    got = t1_generators(poset)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cotangent, "_minimal_bound_sets", exhaustive_bound_sets)
        assert got == t1_generators(poset)


def test_t1_on_a_long_chain_and_a_wide_star():
    # one extremal target per bound on a chain, so a 30-chain's search
    # stays linear; at a star's root each leaf is its own only lower
    # bounder, so the root's lower-bound family holds one set at each step
    chain = tree_from("".join(f"e{k:02d} < e{k + 1:02d}\n" for k in range(29)))
    star = star_tree(10)
    for tree in (chain, star):
        assert t1_generators(tree) == t1_generators_tree(tree)


def test_a_star_with_a_thousand_leaves_searches_on_a_stack():
    # outside the root, the one minimal lower bound set for the leaves is
    # all of them, grown by one leaf per target a thousand times, beside
    # the set (r,) that every target after the first keeps
    leaves = [f"l{k:04d}" for k in range(1000)]
    star = tree_from("".join(f"r < {x}\n" for x in leaves))
    assert minimal_lower_bound_sets(star, leaves, ["r", *leaves]) == [("r",), tuple(leaves)]
    assert minimal_upper_bound_sets(star, ["r"], leaves[:3]) == [(x,) for x in leaves[:3]]


def found_hypergraph(k):
    """x_i < a_i, x_i < b_i and y_i < a_i for i < k, with targets every x_i
    and y_i: the bounder sets are {a_i, b_i} and {a_i}, and the one
    minimal upper bound set within the a's and b's is every a_i."""
    poset = Poset(
        [f"{c}{i}" for i in range(k) for c in "xyab"],
        [(f"{lo}{i}", f"{hi}{i}") for i in range(k) for lo, hi in ("xa", "xb", "ya")],
    )
    targets = [f"{c}{i}" for c in "xy" for i in range(k)]
    return poset, targets, [f"{c}{i}" for c in "ab" for i in range(k)]


def test_a_pool_that_misses_the_targets_grows_no_large_family():
    # in rank order the x's come first and double the family k times before
    # the y's shrink it to one set; the singleton bounder sets {a_i} come
    # first by size, and each {a_i, b_i} then keeps the family as it is
    poset, targets, pool = found_hypergraph(14)
    t0 = time.perf_counter()
    found = minimal_upper_bound_sets(poset, targets, pool)
    elapsed = time.perf_counter() - t0
    assert found == [tuple(sorted((f"a{i}" for i in range(14)), key=poset.rank.__getitem__))]
    assert elapsed < 0.1


def minimal_transversals(edges):
    """The inclusion-minimal sets that meet every edge, by trying every
    subset of the edges' union."""
    union = sorted(set().union(*edges))
    hitting = [
        frozenset(c)
        for size in range(len(union) + 1)
        for c in combinations(union, size)
        if all(e & set(c) for e in edges)
    ]
    return {h for h in hitting if not any(o < h for o in hitting)}


def test_bound_sets_are_the_minimal_transversals_of_every_targets_bounders():
    # random posets, targets, pools and directions against the transversal
    # oracle over the bounder sets of all targets, extremal or not
    rng = random.Random(28)
    for _ in range(600):
        n = rng.randint(1, 9)
        names = [f"e{i}" for i in range(n)]
        rng.shuffle(names)
        pairs = [(names[i], names[j]) for i in range(n) for j in range(i + 1, n)]
        poset = Poset(names, rng.sample(pairs, min(len(pairs), rng.randint(0, 2 * n))))
        targets = rng.sample(names, rng.randint(0, n))
        pool = rng.sample(names, rng.randint(0, n))
        lower = rng.random() < 0.5

        def bounds(s, t):
            return poset.le(s, t) if lower else poset.le(t, s)

        got = _minimal_bound_sets(poset, targets, pool, lower)
        edges = [{s for s in pool if bounds(s, t)} for t in targets]
        assert {frozenset(f) for f in got} == minimal_transversals(edges)
        rank = poset.rank.__getitem__
        assert got == sorted(got, key=lambda f: (len(f), tuple(map(rank, f))))
        assert all(list(f) == sorted(f, key=rank) for f in got)


# -- the general computation on a non-tree poset -------------------------------------

EXPECTED_DIAMOND = [
    ("a", ("b",), (), "b1"),
    ("a", ("c", "d"), (), "c1*d1"),
    ("b", ("a",), (), "a1"),
    ("b", ("c", "d"), (), "c1*d1"),
    ("c", ("e",), ("d",), "d2*e1"),
    ("c", ("d",), ("a", "b"), "a2*b2*d1"),
    ("c", ("e",), ("a", "b"), "a2*b2*e1"),
    ("d", ("e",), ("c",), "c2*e1"),
    ("d", ("c",), ("a", "b"), "a2*b2*c1"),
    ("d", ("e",), ("a", "b"), "a2*b2*e1"),
    ("e", (), ("c", "d"), "c2*d2"),
]


def test_diamond_poset_has_eleven_generators():
    poset = load_poset(fixture_path("diamond5.poset"))
    order = plain_order(poset)
    got = [(t.source, t.lower_set, t.upper_set, render_monomial(t.image, order))
           for t in t1_generators(poset)]
    assert got == EXPECTED_DIAMOND


def test_diamond_generators_respect_the_middle_swap():
    # c <-> d is an automorphism of the diamond, so the generator list is
    # invariant under that relabeling: the d-block mirrors the c-block
    poset = load_poset(fixture_path("diamond5.poset"))
    swap = {"c": "d", "d": "c"}

    def canon(source, lower, upper, relabel=lambda e: e):
        return (relabel(source),
                tuple(sorted(relabel(r) for r in lower)),
                tuple(sorted(relabel(s) for s in upper)))

    gens = t1_generators(poset)
    original = {canon(t.source, t.lower_set, t.upper_set) for t in gens}
    mirrored = {canon(t.source, t.lower_set, t.upper_set,
                      lambda e: swap.get(e, e)) for t in gens}
    assert mirrored == original


def test_generator_identity_semantics():
    img = Monomial.from_pairs([(XVar(1, "b"), 1)])
    g1 = T1Generator("a", ("b",), (), img)
    g2 = T1Generator("a", ["b"], (), img)
    assert g1 == g2 and hash(g1) == hash(g2)
    assert g1 != T1Generator("a", ("b",), ("c",), img)


# -- the rooted-tree shortcut ---------------------------------------------------

def test_tree_shortcut_agrees_with_general_computation():
    for tree in all_rooted_trees(5):
        assert t1_generators_tree(tree) == t1_generators(tree)


def test_tree_generators_match_deformation_parameters():
    for tree in (chain_tree(4), star_tree(3), load_tree("vc2"),
                 load_tree("tree7")):
        gens = t1_generators_tree(tree)
        params = u_variables(tree)
        assert len(gens) == len(params)
        for g, v in zip(gens, params):
            assert g.source == v.lower
            assert g.upper_set == (() if v.upper is None else (v.upper,))
            assert g.lower_set == tree.children(v.lower)


def test_images_are_standard_monomials():
    # no letterplace quadric divides an image, so each image is a genuine
    # nonzero element of the quotient
    for tree in all_rooted_trees(5):
        quadrics = [m for _, m in letterplace_generators(tree)]
        for g in t1_generators_tree(tree):
            assert not any(q.divides(g.image) for q in quadrics)


def test_degree_pairing_with_parameters():
    # the map p1*p2 -> image shifts multidegree by exactly -deg(u), the
    # parameter the generator is paired with
    tree = load_tree("tree7")
    for g, v in zip(t1_generators_tree(tree), u_variables(tree)):
        p = g.source
        shift = monomial_degree(tree, g.image) - \
            (MultiDegree.unit(1, p) + MultiDegree.unit(2, p))
        assert shift == -variable_degree(tree, v)


def test_single_node_tree():
    tree = tree_from("elem a")
    gens = t1_generators_tree(tree)
    assert [g.key() for g in gens] == [("a", (), (), Monomial())]
    assert gens == t1_generators(tree)


def test_bound_sets_reject_a_name_outside_the_poset():
    t = tree_from("a < b\na < c")
    with pytest.raises(DomainError, match="'z'"):
        minimal_upper_bound_sets(t, ["z"], ["b"])
    with pytest.raises(DomainError, match="'z'"):
        minimal_lower_bound_sets(t, ["b"], ["z"])
