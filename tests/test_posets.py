import glob

import pytest
from hypothesis import given, strategies as st

from lpdeform import (
    CycleError,
    DomainError,
    NotATreeError,
    ParseError,
    Poset,
    RootedTree,
    SizeLimitError,
    all_rooted_trees,
    as_rooted_tree,
    load_poset,
    parse_poset,
    rooted_tree_shapes,
    shape_size,
    shape_to_tree,
)

from conftest import (
    brute_force_order_ideals,
    chain_tree,
    fixture_path,
    load_tree,
    star_tree,
)


# -- construction and closure ----------------------------------------------

def test_transitive_closure():
    p = Poset(["a", "b", "c"], [("a", "b"), ("b", "c")])
    assert p.le("a", "c")
    assert p.lt("a", "c")
    assert not p.le("c", "a")
    assert p.le("b", "b")
    assert p.comparable("a", "c")


def test_covers_drop_redundant_relations():
    p = Poset(["a", "b", "c"], [("a", "b"), ("b", "c"), ("a", "c")])
    assert ("a", "c") not in p.covers
    assert set(p.covers) == {("a", "b"), ("b", "c")}


def test_cycle_rejected():
    with pytest.raises(CycleError):
        Poset(["a", "b"], [("a", "b"), ("b", "a")])
    with pytest.raises(CycleError):
        Poset(["a"], [("a", "a")])


def test_unknown_element_in_relation():
    with pytest.raises(ParseError):
        Poset(["a"], [("a", "z")])


def test_duplicate_element_rejected():
    with pytest.raises(ParseError, match="^duplicate element in element list$"):
        Poset(["a", "b", "a"], [("a", "b")])


def test_minimal_and_maximal():
    p = parse_poset("a < c\nb < c\nc < d")
    assert p.minimal_elements() == ("a", "b")
    assert p.maximal_elements() == ("d",)


def test_ideal_and_filter():
    t = load_tree("vc2")  # a < b, a < c < d
    assert t.ideal_at_or_below("c") == {"a", "c"}
    assert t.strict_ideal_below("c") == {"a"}
    assert t.filter_at_or_above("c") == {"c", "d"}
    assert t.strict_filter_above("a") == {"b", "c", "d"}


def test_linear_extension_is_topological_and_deterministic():
    p = parse_poset("b < a\nelem z\nb < z")
    ext = p.linear_extension()
    assert set(ext) == {"a", "b", "z"}
    pos = {x: i for i, x in enumerate(ext)}
    for q, r in p.covers:
        assert pos[q] < pos[r]
    # lexicographic tie-break among available elements
    assert ext == ("b", "a", "z")
    assert p.linear_extension() is p.linear_extension()  # cached


def test_long_chain_builds_in_quadratic_time():
    # named against its order, so the extension follows the relations and
    # not the names; the cover and extension scans were cubic, and a
    # 1,200-element chain took about 34 s to parse and re-validate
    names = [f"c{1199 - i:04d}" for i in range(1200)]
    tree = as_rooted_tree(parse_poset("".join(f"{p} < {q}\n" for p, q in zip(names, names[1:]))))
    assert tree.covers == tuple(zip(names, names[1:]))
    assert tree.linear_extension() == tuple(names)
    assert tree.root == names[0] and tree.depth(names[0]) == 1199


# -- poset DSL ---------------------------------------------------------------

def test_parse_poset_basics():
    p = parse_poset("# heading\nelem s\na < b # tail comment\n\nb < c\n")
    assert p.elements == ("s", "a", "b", "c")
    assert p.le("a", "c")


def test_parse_poset_first_appearance_order():
    p = parse_poset("m < z\na < z")
    assert p.elements == ("m", "z", "a")


def test_parse_poset_rejects_garbage():
    with pytest.raises(ParseError) as exc:
        parse_poset("a < b\nb <\n")
    assert "line 2" in str(exc.value)
    with pytest.raises(ParseError):
        parse_poset("1a < b")


# -- order-ideal counting ----------------------------------------------------

def test_order_ideals_chain_and_star():
    for n in range(1, 7):
        assert chain_tree(n).count_order_ideals() == n + 1
    assert star_tree(2).count_order_ideals() == 5


def test_order_ideals_match_brute_force():
    for t in [load_tree("vc2"), load_tree("tree7"),
              parse_poset("a < c\nb < c\nelem d")]:
        assert t.count_order_ideals() == brute_force_order_ideals(t)


def test_order_ideals_size_guard():
    names = [f"e{i}" for i in range(21)]
    big = Poset(names, [])
    with pytest.raises(SizeLimitError):
        big.count_order_ideals()


def test_order_ideals_at_the_size_limit():
    names = [f"e{i:02d}" for i in range(20)]
    assert Poset(names, []).count_order_ideals() == 2**20
    assert Poset(names, zip(names, names[1:])).count_order_ideals() == 21


# -- rooted trees --------------------------------------------------------------

def test_tree_accessors():
    t = load_tree("tree7")
    assert t.root == "a"
    assert t.parent("e") == "d"
    assert t.children("a") == ("b", "c", "d")
    assert t.children("b") == ()
    assert t.siblings("b") == ("c", "d")
    assert t.meet("f", "g") == "e"
    assert t.meet("b", "g") == "a"
    assert t.meet("a", "g") == "a"
    assert t.depth("a") == 3 and t.depth("e") == 1 and t.depth("g") == 0


@pytest.mark.parametrize("make", [as_rooted_tree, lambda p: RootedTree(p.elements, p.covers)], ids=["shared", "built"])
def test_every_query_rejects_a_name_outside_the_tree(make):
    # a foreign name is not read as the root (parent None, no siblings) nor
    # as an element at or below itself: each query raises one DomainError
    poset = parse_poset("a < b\na < c")
    t = make(poset)
    queries = [
        t.parent, t.children, t.siblings, t.above, t.filter_at_or_above, t.strict_filter_above,
        lambda p: t.le(p, p), lambda p: t.le(p, "b"), lambda p: t.comparable("a", p),
        poset.above, lambda p: poset.le(p, p),
    ]
    for query in queries:
        with pytest.raises(DomainError, match="^'z' is not an element of the poset$"):
            query("z")
    assert (t.parent("a"), t.siblings("a"), t.siblings("b")) == (None, (), ("c",))
    assert (t.le("a", "a"), t.le("a", "z"), t.above("a")) == (True, False, ("a", "b", "c"))


def test_non_trees_rejected():
    with pytest.raises(NotATreeError):
        as_rooted_tree(load_poset(fixture_path("diamond5.poset")))
    with pytest.raises(NotATreeError):
        as_rooted_tree(parse_poset("elem a\nelem b"))  # two roots


def test_as_rooted_tree_idempotent():
    t = chain_tree(3)
    assert as_rooted_tree(t) is t


def tree_tables(poset, make):
    """Everything the RootedTree make(poset) answers, as plain values, or
    the message of its NotATreeError."""
    try:
        t = make(poset)
    except NotATreeError as exc:
        return str(exc)
    return (
        t.elements,
        t.covers,
        t.linear_extension(),
        {p: t.strict_filter_above(p) for p in t},
        {p: t.strict_ideal_below(p) for p in t},
        t.root,
        {p: (t.parent(p), t.children(p), t.depth(p)) for p in t},
    )


def test_as_rooted_tree_shares_the_posets_closure():
    # as_rooted_tree takes the Poset's closure, covers and linear extension
    # instead of closing the covers again: every answer, and every
    # NotATreeError message, is that of a RootedTree built from the covers
    posets = [load_poset(path) for path in sorted(glob.glob(fixture_path("*.poset")))]
    for t in all_rooted_trees(8):
        posets.append(Poset(t.elements, t.covers))
        # elements in reverse, every relation of the closure given, and
        # the linear extension made before
        posets.append(Poset(t.elements[::-1], [(p, q) for p in t for q in t.strict_filter_above(p)]))
        posets[-1].linear_extension()
    posets += [
        parse_poset(text)
        for text in ("", "elem a\nelem b", "a < c\nb < c", "a < b\na < c\nb < d\nc < d", "a < b\nc < d")
    ]
    rebuilt = lambda poset: RootedTree(poset.elements, list(poset.covers))  # noqa: E731
    non_trees = 0
    for poset in posets:
        want = tree_tables(poset, rebuilt)
        assert tree_tables(poset, as_rooted_tree) == want, poset
        non_trees += isinstance(want, str)
    assert len(posets) == 400 + 5 + len(glob.glob(fixture_path("*.poset")))
    assert non_trees == 6  # diamond5.poset and the last five


# -- exhaustive shape enumeration ---------------------------------------------

def test_rooted_tree_counts():
    assert [len(rooted_tree_shapes(n)) for n in range(1, 7)] == [1, 1, 2, 4, 9, 20]


def test_shapes_are_canonical_and_sized():
    for n in range(1, 7):
        shapes = rooted_tree_shapes(n)
        assert len(set(shapes)) == len(shapes)
        assert all(shape_size(s) == n for s in shapes)


def test_shape_to_tree_preorder_names():
    t = shape_to_tree(((), ()))  # root with two leaves
    assert isinstance(t, RootedTree)
    assert t.elements == ("a", "b", "c")
    assert t.root == "a"
    assert t.children("a") == ("b", "c")


def test_all_rooted_trees_counts_by_layer():
    sizes = [len(t) for t in all_rooted_trees(6)]
    layer = {n: sizes.count(n) for n in range(1, 7)}
    assert layer == {1: 1, 2: 1, 3: 2, 4: 4, 5: 9, 6: 20}


# -- properties ----------------------------------------------------------------

@given(st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5)), max_size=12))
def test_random_relations_closure_or_cycle(pairs):
    elems = [f"n{i}" for i in range(6)]
    rels = [(f"n{i}", f"n{j}") for i, j in pairs]
    try:
        p = Poset(elems, rels)
    except CycleError:
        return
    # transitivity and antisymmetry of the closure
    for x in elems:
        for y in elems:
            if p.le(x, y) and p.le(y, x):
                assert x == y
            for z in elems:
                if p.lt(x, y) and p.lt(y, z):
                    assert p.lt(x, z)
    ext = {e: i for i, e in enumerate(p.linear_extension())}
    assert all(ext[x] < ext[y] for x in elems for y in elems if p.lt(x, y))


@given(st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5)), max_size=12))
def test_covers_and_extension_match_their_definitions(pairs):
    elems = [f"n{i}" for i in (3, 0, 5, 1, 4, 2)]
    rels = [(f"n{i}", f"n{j}") for i, j in pairs]
    try:
        p = Poset(elems, rels)
    except CycleError:
        return
    # y covers x when nothing lies strictly between, listed in element order
    covers = tuple(
        (x, y) for x in elems for y in elems
        if p.lt(x, y) and not any(p.lt(x, z) and p.lt(z, y) for z in elems)
    )
    assert p.covers == covers
    # the lexicographically smallest topological order
    remaining, ext = set(elems), []
    while remaining:
        ext.append(min(x for x in remaining if not any(p.lt(y, x) for y in remaining)))
        remaining.discard(ext[-1])
    assert p.linear_extension() == tuple(ext)
    assert all(p.strict_ideal_below(x) == {y for y in elems if p.lt(y, x)} for x in elems)
    # the ranks index that order, and each filter is read in it
    assert p.rank == {x: i for i, x in enumerate(ext)}
    assert all(p.above(x) == tuple(y for y in ext if p.le(x, y)) for x in elems)
    assert p.count_order_ideals() == brute_force_order_ideals(p)
