import os
import re
from itertools import combinations

import pytest

from lpdeform import (
    DeformationContext,
    DomainError,
    LeafError,
    MinorIndexError,
    NotComparableError,
    Polynomial,
    RelationError,
    ShapeError,
    UnknownVariableError,
    UVar,
    XVar,
    all_rooted_trees,
    j_ideal_generators,
    letterplace_generators,
    parse_polynomial,
    ring_variables,
    u_variables,
)
from lpdeform.cli import compare_fixture
from lpdeform.deformation import DEFAULT_MAX_TERMS
from lpdeform.errors import LpError, ResourceLimitError
from lpdeform.groebner import _pack_terms

from conftest import FIXTURES, PolynomialContext, chain_tree, fixture_path, load_tree, star_tree, tree_from


def x(place, p):
    return Polynomial.variable(XVar(place, p))


def u(q, p):
    return Polynomial.variable(UVar(q, p))


def check_fixture(tree, fixture_name):
    gens = [g for _, g in j_ideal_generators(tree)]
    ok, missing, extra = compare_fixture(
        gens, fixture_path(fixture_name), ring_variables(tree))
    assert ok, f"missing={missing} extra={extra}"


# -- golden generator lists ----------------------------------------------------

def test_chain4_matches_fixture():
    check_fixture(chain_tree(4), "chain4_J.gens")


def test_star2_matches_fixture():
    check_fixture(star_tree(2), "star2_J.gens")


def test_vc2_matches_fixture():
    check_fixture(load_tree("vc2"), "vc2_J.gens")


def test_tree7_matches_fixture():
    check_fixture(load_tree("tree7"), "tree7_J.gens")


def test_star3_explicit_plus_minor_generators():
    tree = star_tree(3)
    ctx = DeformationContext(tree)
    computed = dict(ctx.j_ideal_generators())
    varis = ring_variables(tree)
    with open(fixture_path("star3_explicit.gens")) as fh:
        lines = [ln.split("#")[0].strip() for ln in fh]
    explicit = [parse_polynomial(ln, varis) for ln in lines if ln]
    assert explicit == [computed[("b", "b")], computed[("c", "c")],
                        computed[("d", "d")]]
    # the other four are a1*x2 - u[0,a] * D(a)^x
    u0 = u(None, "a")
    cols = {"a": 0, "b": 1, "c": 2, "d": 3}
    for p, col in cols.items():
        expected = x(1, "a") * x(2, p) - u0 * ctx.minor_d("a", col)
        assert computed[("a", p)] == expected


# -- building blocks of the recursion ----------------------------------------------

def test_t_forms_star2():
    ctx = DeformationContext(star_tree(2))
    assert ctx.t_full("a") == u(None, "a")
    assert ctx.t_full("b") == x(2, "a") * u("a", "b") + x(2, "c") * u("c", "b")
    assert ctx.t_sub("c", "b") == -(x(2, "c") * u("c", "b"))
    assert ctx.t_sub("a", "b") == -(x(2, "a") * u("a", "b"))


def test_t_sub_covers_whole_filter_above_sibling():
    ctx = DeformationContext(load_tree("vc2"))  # a < b, a < c < d
    assert ctx.t_sub("c", "b") == -(x(2, "c") * u("c", "b")
                                    + x(2, "d") * u("d", "b"))


def test_every_context_method_rejects_a_name_outside_the_tree():
    # every public method that takes an element raises DomainError for a
    # foreign one, where it used to answer (R(z,z) = 1), blame the root or
    # raise a bare KeyError; the context answers as before afterwards
    ctx = DeformationContext(tree_from("a < b\na < c"))
    calls = {
        "x_packed": [(1, "z")],
        "t_sub": [("a", "z"), ("z", "b")],
        "t_full": [("z",)],
        "st_entry": [("a", "z"), ("z", "b")],
        "matrix_m": [("z",)],
        "minor_d": [("z", 0)],
        "minor_d_child": [("z", "b"), ("a", "z")],
        "generalized_minor": [("z", (0,), ())],
        "cover_product_r": [("z", "z"), ("z", "b")],
        "s_op": [("z", "z"), ("z", "b")],
        "deformed_generator": [("z", "z"), ("z", "b")],
        "s_op_linear": [("z", Polynomial.variable(XVar(2, "b")))],
    }
    packed = {"t_sub", "t_full", "st_entry", "minor_d", "minor_d_child", "generalized_minor", "cover_product_r", "s_op"}
    calls.update({f"{name}_packed": calls[name] for name in packed})
    calls["generator_packed"] = calls["deformed_generator"]
    public = {name for name in dir(ctx) if not name.startswith("_") and callable(getattr(ctx, name))}
    assert public == set(calls) | {"clear_memos", "generators_packed", "j_ideal_generators"}
    for name, arglists in calls.items():
        for args in arglists:
            with pytest.raises(DomainError, match="'z'"):
                getattr(ctx, name)(*args)
    # a foreign upper element is not above the lower one
    for method in (ctx.cover_product_r, ctx.s_op, ctx.deformed_generator):
        with pytest.raises(NotComparableError, match="need 'a' <= 'z'"):
            method("a", "z")
    assert ctx.j_ideal_generators() == DeformationContext(ctx.tree).j_ideal_generators()


def test_t_relation_errors():
    ctx = DeformationContext(load_tree("vc2"))  # a < b, a < c < d
    with pytest.raises(RelationError):
        ctx.t_sub("b", "a")  # the root has no shares owed to it
    with pytest.raises(RelationError):
        ctx.t_sub("d", "b")  # d is neither the parent nor a sibling of b
    with pytest.raises(RelationError):
        ctx.st_entry("a", "a")  # matrix entries live below the root


def test_matrix_entry_and_child_minor_relation_errors():
    ctx = DeformationContext(load_tree("vc2"))  # a < b, a < c < d
    with pytest.raises(RelationError, match="^'d' is not 'b' or its parent or a sibling$"):
        ctx.st_entry_packed("d", "b")
    with pytest.raises(RelationError, match="^'d' is not a child of 'a'$"):
        ctx.minor_d_child_packed("a", "d")
    with pytest.raises(RelationError, match="^'a' is not a child of 'b'$"):
        ctx.minor_d_child_packed("b", "a")


def test_st_entry_conventions():
    tree = load_tree("vc2")
    ctx = DeformationContext(tree)
    assert ctx.st_entry("b", "b") == x(1, "b")
    assert ctx.st_entry("a", "b") == -u("a", "b")
    # genuine composition through the sibling chain c < d
    assert ctx.st_entry("c", "b") == -(x(1, "d") * u("c", "b")
                                       + u("c", "d") * u("d", "b"))


def test_matrix_m_shape_and_entries():
    tree = load_tree("vc2")
    ctx = DeformationContext(tree)
    M = ctx.matrix_m("a")
    assert (M.nrows, M.ncols) == (2, 3)
    # rows follow children (b, c); columns are (a, b, c)
    assert M.entry(0, 0) == -u("a", "b")
    assert M.entry(0, 1) == x(1, "b")
    assert M.entry(1, 2) == x(1, "c")
    assert M.entry(1, 1) == -u("b", "c")
    with pytest.raises(LeafError):
        ctx.matrix_m("b")


def test_minor_d_conventions():
    tree = load_tree("vc2")
    ctx = DeformationContext(tree)
    # maximal element: D = 1 in column 0, no other columns
    assert ctx.minor_d("d", 0) == Polynomial.one()
    with pytest.raises(MinorIndexError):
        ctx.minor_d("d", 1)
    # single-child vertex c: M(c) = [-u[c,d], d1]
    assert ctx.minor_d("c", 0) == x(1, "d")
    assert ctx.minor_d("c", 1) == u("c", "d")
    assert ctx.minor_d_child("c", "d") == ctx.minor_d("c", 1)
    with pytest.raises(MinorIndexError):
        ctx.minor_d("a", 7)


def test_row_times_signed_minors_vanishes():
    # stacking any row of M(a) on top of M(a) gives a singular matrix:
    # sum_i M[r][i] * D(a)^i = 0
    for tree in all_rooted_trees(5):
        ctx = DeformationContext(tree)
        for a in tree.elements:
            m = len(tree.children(a))
            if m == 0:
                continue
            M = ctx.matrix_m(a)
            for r in range(m):
                total = Polynomial.zero()
                for i in range(m + 1):
                    total = total + M.entry(r, i) * ctx.minor_d(a, i)
                assert total.is_zero


# -- generalized minors ---------------------------------------------------------------

def test_generalized_minor_extends_minor_d():
    ctx = DeformationContext(star_tree(3))
    for i in range(4):
        assert ctx.generalized_minor("a", (i,), ()) == ctx.minor_d("a", i)
    # lists are index sequences too
    assert ctx.generalized_minor("a", [0, 2], [1]) == ctx.generalized_minor("a", (0, 2), (1,))


def test_generalized_minor_antisymmetry():
    ctx = DeformationContext(star_tree(3))
    assert ctx.generalized_minor("a", (0, 2), (1,)) == \
        -ctx.generalized_minor("a", (2, 0), (1,))
    assert ctx.generalized_minor("a", (0, 1, 3), (1, 2)) == \
        -ctx.generalized_minor("a", (0, 1, 3), (2, 1))


def test_generalized_minor_laplace_expansion():
    # D^I_K = sum over remaining columns c of entry(r, c) * D^{I+c}_{K+r}
    ctx = DeformationContext(star_tree(3))
    for I, K, r in [((1,), (), 1), ((0,), (), 2), ((0, 1), (2,), 1)]:
        lhs = ctx.generalized_minor("a", I, K)
        rhs = Polynomial.zero()
        for c in range(4):
            if c in I:
                continue
            rhs = rhs + ctx.matrix_m("a").entry(r - 1, c) * \
                ctx.generalized_minor("a", I + (c,), K + (r,))
        assert lhs == rhs


def test_generalized_minor_validation():
    ctx = DeformationContext(star_tree(2))
    with pytest.raises(MinorIndexError):
        ctx.generalized_minor("a", (0, 0), (1,))
    with pytest.raises(MinorIndexError):
        ctx.generalized_minor("a", (9,), ())
    with pytest.raises(MinorIndexError):
        ctx.generalized_minor("a", (0, 1), (0,))  # rows start at 1
    with pytest.raises(ShapeError):
        ctx.generalized_minor("a", (0, 1), ())
    # leaf convention: the empty matrix has determinant 1
    assert ctx.generalized_minor("b", (0,), ()) == Polynomial.one()


# -- the S operators ----------------------------------------------------------------

def test_cover_product_r():
    tree = load_tree("vc2")
    ctx = DeformationContext(tree)
    assert ctx.cover_product_r("a", "a") == Polynomial.one()
    assert ctx.cover_product_r("c", "d") == ctx.minor_d_child("c", "d")
    assert ctx.cover_product_r("a", "d") == \
        ctx.minor_d_child("a", "c") * ctx.minor_d_child("c", "d")
    with pytest.raises(NotComparableError):
        ctx.cover_product_r("b", "d")


def test_s_op_and_composition():
    tree = load_tree("vc2")
    ctx = DeformationContext(tree)
    assert ctx.s_op("a", "a") == ctx.minor_d("a", 0)
    assert ctx.s_op("c", "d") == ctx.minor_d_child("c", "d")  # D(d)^d = 1
    f = x(2, "c") * u("c", "b") + x(2, "d") * u("d", "b")
    expected = ctx.s_op("c", "c") * u("c", "b") + ctx.s_op("c", "d") * u("d", "b")
    assert ctx.s_op_linear("c", f) == expected
    with pytest.raises(DomainError):
        ctx.s_op_linear("c", x(2, "c") * x(2, "d"))  # not linear in x2
    with pytest.raises(DomainError):
        ctx.s_op_linear("c", x(2, "a"))  # target not at or above c


def test_s_op_linear_takes_a_polynomial_past_the_narrow_key_bound():
    # u[c,b]^200 weighs 200, past an 8-bit key, and u[c,b]^40000 past a
    # 16-bit one: S_a is extended on Polynomials
    tree = tree_from("a < b\na < c")
    ctx = DeformationContext(tree)
    assert ctx.order.digit_bits == 8
    f = x(2, "c") * u("c", "b") ** 200
    image = ctx.s_op_linear("a", f)
    assert len(image) == 2
    assert image == PolynomialContext(tree).s_op_linear("a", f) == ctx.s_op("a", "c") * u("c", "b") ** 200
    heavy = u("c", "b") ** 40000
    assert ctx.s_op_linear("a", x(2, "c") * heavy) == ctx.s_op("a", "c") * heavy
    with pytest.raises(UnknownVariableError, match=r"^u\[zz,c\] is not in this ring$"):
        ctx.s_op_linear("a", x(2, "c") * u("zz", "c"))


def test_deformed_generator_requires_comparable_pair():
    ctx = DeformationContext(star_tree(2))
    with pytest.raises(NotComparableError):
        ctx.deformed_generator("b", "c")


# -- whole-ideal behavior ---------------------------------------------------------------

def test_specialization_recovers_letterplace_everywhere():
    for tree in all_rooted_trees(5):
        zero = {v: 0 for v in u_variables(tree)}
        gens = dict(j_ideal_generators(tree))
        quadrics = dict(letterplace_generators(tree))
        assert set(gens) == set(quadrics)
        for pair, g in gens.items():
            assert g.substitute(zero) == Polynomial.term(quadrics[pair])
            assert (g - Polynomial.term(quadrics[pair])).min_u_degree() >= 1


def test_generator_coefficients_are_unit_ints():
    for tree in all_rooted_trees(6):
        for _, g in j_ideal_generators(tree):
            assert all(type(c) is int and c in (1, -1) for _, c in g.items())


def test_chain_generators_close_form():
    # on a chain, T(p) is a single term and S_p(q2) a product of parameters,
    # so g(p,q) = p1*q2 - parent2 * u[parent,p] * (u-chain) * child(q)1
    tree = chain_tree(5)
    gens = dict(j_ideal_generators(tree))
    assert gens[("c", "c")] == x(1, "c") * x(2, "c") - \
        x(2, "b") * u("b", "c") * x(1, "d")
    assert gens[("b", "d")] == x(1, "b") * x(2, "d") - \
        x(2, "a") * u("a", "b") * u("b", "c") * u("c", "d") * x(1, "e")
    assert gens[("a", "e")] == x(1, "a") * x(2, "e") - \
        u(None, "a") * u("a", "b") * u("b", "c") * u("c", "d") * u("d", "e")


def test_memos_are_transparent():
    tree = load_tree("tree7")
    ctx = DeformationContext(tree)
    first = dict(ctx.j_ideal_generators())
    ctx.clear_memos()
    assert dict(ctx.j_ideal_generators()) == first
    assert dict(j_ideal_generators(tree)) == first


def test_module_level_wrapper():
    tree = star_tree(2)
    assert j_ideal_generators(tree) == DeformationContext(tree).j_ideal_generators()


# -- a hand-transcribed closed-form family, frozen warts and all ---------------------

def test_ladder22_transcribed_family_discrepancy():
    """A hand-transcribed closed-form family for the two-leg tree circulates
    with the second leg's parameter chain written with first-leg indices (a
    copy-paste slip in one entry).  Freeze that transcription and assert the
    recursion differs from it in exactly that one place, by exactly that
    substitution -- so the slip can never silently creep into the code."""
    tree = load_tree("ladder22")  # a < b < d and a < c < e
    ctx = DeformationContext(tree)
    varis = ring_variables(tree)
    P = lambda s: parse_polynomial(s, varis)
    computed = dict(ctx.j_ideal_generators())

    transcribed = {
        # leg ends; the second carries u[b,d] where the recursion has u[c,e]
        ("d", "d"): P("d1*d2 - b2*u[b,d]"),
        ("e", "e"): P("e1*e2 - c2*u[b,d]"),
        # top-of-leg rows, both legs
        ("b", "b"): P("b1*b2 - a2*u[a,b]*d1 - c2*u[c,b]*d1 - e2*u[e,b]*d1"),
        ("b", "d"): P("b1*d2 - a2*u[a,b]*u[b,d] - c2*u[c,b]*u[b,d] - e2*u[e,b]*u[b,d]"),
        ("c", "c"): P("c1*c2 - a2*u[a,c]*e1 - b2*u[b,c]*e1 - d2*u[d,c]*e1"),
        ("c", "e"): P("c1*e2 - a2*u[a,c]*u[c,e] - b2*u[b,c]*u[c,e] - d2*u[d,c]*u[c,e]"),
    }
    # root rows, expressed through the signed minors
    u0 = u(None, "a")
    Db, Dc, Da = ctx.minor_d("a", 1), ctx.minor_d("a", 2), ctx.minor_d("a", 0)
    transcribed[("a", "b")] = x(1, "a") * x(2, "b") - u0 * Db * P("d1")
    transcribed[("a", "d")] = x(1, "a") * x(2, "d") - u0 * Db * P("u[b,d]")
    transcribed[("a", "c")] = x(1, "a") * x(2, "c") - u0 * Dc * P("e1")
    transcribed[("a", "e")] = x(1, "a") * x(2, "e") - u0 * Dc * P("u[c,e]")
    transcribed[("a", "a")] = x(1, "a") * x(2, "a") - u0 * Da

    assert set(transcribed) == set(computed)
    differing = {pair for pair in computed if computed[pair] != transcribed[pair]}
    assert differing == {("e", "e")}
    assert computed[("e", "e")] - transcribed[("e", "e")] == \
        P("c2*u[b,d] - c2*u[c,e]")


def test_vc2_relation_matrix_transcription():
    # the relation matrix of the variety-of-complexes tree, entry by entry
    tree = load_tree("vc2")
    ctx = DeformationContext(tree)
    varis = ring_variables(tree)
    P = lambda s: parse_polynomial(s, varis)
    M = ctx.matrix_m("a")
    assert [[M.entry(r, c) for c in range(3)] for r in range(2)] == [
        [P("-u[a,b]"), P("b1"), P("-u[c,b]*d1 - u[c,d]*u[d,b]")],
        [P("-u[a,c]"), P("-u[b,c]"), P("c1")],
    ]


# -- the packed blocks against the Polynomial oracle ---------------------------------


def fixture_trees():
    for path in sorted(os.listdir(FIXTURES)):
        if path.endswith(".poset"):
            try:
                yield load_tree(path[:-6])
            except LpError:
                pass  # not a rooted tree


def oracle_blocks(tree):
    """(packed method, arguments) of every block the oracle covers: T_c(b),
    T(b), the matrix entries, every minor D(a)^i, every generalized minor of
    the widest node (each index set in increasing and in reversed order),
    R, S and g."""
    kids = tree.children
    for b in tree:
        yield "t_full_packed", (b,)
        if b != tree.root:
            a = tree.parent(b)
            for c in (a,) + tree.siblings(b):
                yield "t_sub_packed", (c, b)
            for x in (a, b) + tree.siblings(b):
                yield "st_entry_packed", (x, b)
        for i in range(len(kids(b)) + 1):
            yield "minor_d_packed", (b, i)
        for q in tree.filter_at_or_above(b):
            yield "cover_product_r_packed", (b, q)
            yield "s_op_packed", (b, q)
            yield "generator_packed", (b, q)
    widest = max(tree.linear_extension(), key=lambda a: len(kids(a)))
    m = len(kids(widest))
    for k in range(m + 1):
        for cols in combinations(range(m + 1), k + 1):
            for rows in combinations(range(1, m + 1), k):
                yield "generalized_minor_packed", (widest, cols, rows)
                yield "generalized_minor_packed", (widest, cols[::-1], rows[::-1])


@pytest.mark.parametrize("trees", [
    pytest.param(lambda: all_rooted_trees(6), id="up-to-6-nodes"),
    pytest.param(lambda: [star_tree(6)], id="star6"),
    pytest.param(fixture_trees, id="fixtures"),
])
def test_packed_blocks_equal_the_polynomial_oracle(trees):
    # each packed block, as the verifier and the basis read it, against the
    # Polynomial recursion packed with the same order: packing is
    # one-to-one, and a key is cheaper than a decode
    for tree in trees():
        ctx, oracle = DeformationContext(tree), PolynomialContext(tree)
        for method, args in oracle_blocks(tree):
            want = getattr(oracle, method.removesuffix("_packed").replace("generator", "deformed_generator"))
            assert getattr(ctx, method)(*args) == _pack_terms(want(*args), ctx.order), (method, args)


def test_term_budget():
    # the context charges each block it keeps once, and trips past max_terms
    tree = star_tree(3)
    ctx = DeformationContext(tree)
    gens = ctx.generators_packed()
    assert ctx.terms > sum(len(g) for _, g in gens) == 40
    for budget in (ctx.terms - 1, 0):
        with pytest.raises(ResourceLimitError, match=f"generator expansion exceeded {budget} terms"):
            DeformationContext(tree, budget).generators_packed()
    assert DeformationContext(tree, ctx.terms).generators_packed() == gens
    # star-8, the largest tree run, expands to 362,961 generator terms, and
    # its context holds 1,147,989; the default leaves room for them
    assert DEFAULT_MAX_TERMS > 1_147_989


@pytest.mark.parametrize("value", [True, -1, "5", 2.0])
def test_context_rejects_a_term_budget_that_is_not_a_nonnegative_int(value):
    # max_terms=True expanded and reported "exceeded True terms", -1 read as
    # a tripped budget and "5" raised TypeError inside the expansion
    with pytest.raises(DomainError, match=f"^max_terms must be a nonnegative int, got {re.escape(repr(value))}$"):
        DeformationContext(load_tree("chain2"), max_terms=value).generators_packed()


def test_term_budget_charges_each_kept_block_once():
    # R(a,b) is R(a,parent(b)) times one minor, so no product is made and
    # dropped: after the generators and every R(a,b), the charge is the
    # terms of the distinct dicts the memo holds, on every tree to 7 nodes
    trees = list(all_rooted_trees(7))
    assert len(trees) == 85
    for tree in trees:
        ctx = DeformationContext(tree)
        ctx.generators_packed()
        for a in tree:
            for b in tree.filter_at_or_above(a):
                ctx.cover_product_r_packed(a, b)
        blocks = {id(val): val for val in ctx._memo.values() if isinstance(val, dict)}
        assert ctx.terms == sum(len(val) for val in blocks.values()), tree.to_json_dict()
    # a fresh product down the chain for each R(a,b) would charge chain-4
    # 57 terms, chain-7 163 and chain-12 533
    for n, kept in ((4, 56), (7, 143), (12, 368)):
        ctx = DeformationContext(chain_tree(n))
        ctx.generators_packed()
        assert ctx.terms == kept


def test_cover_product_is_one_loop_down_the_chain(monkeypatch):
    # a direct call on a deep chain walks down to a, keeping every R(a,q) on
    # the way, with no call of itself per cover
    tree = chain_tree(26)
    ctx = DeformationContext(tree)
    calls, method = [], DeformationContext.cover_product_r_packed
    monkeypatch.setattr(
        DeformationContext, "cover_product_r_packed", lambda self, *a: calls.append(a) or method(self, *a)
    )
    top = ctx.cover_product_r_packed("a", "z")
    assert calls == [("a", "z")]
    oracle = PolynomialContext(tree)
    for q in tree.linear_extension()[1:]:
        held = ctx._memo["cover_product_r_packed", "a", q]
        assert held == _pack_terms(oracle.cover_product_r("a", q), ctx.order), q
    assert top is held
