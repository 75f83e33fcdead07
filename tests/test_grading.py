import gc
import random
import weakref

import pytest
from hypothesis import example, given, strategies as st

from lpdeform import (
    DeformationContext,
    DomainError,
    Monomial,
    MonomialOrder,
    MultiDegree,
    NotATreeError,
    NotHomogeneousError,
    Polynomial,
    ResourceLimitError,
    RootedTree,
    UnknownVariableError,
    UVar,
    Verifier,
    XVar,
    all_rooted_trees,
    as_rooted_tree,
    buchberger,
    hat_degree,
    homogeneous_degree,
    j_ideal_generators,
    letterplace_generators,
    monomial_degree,
    monomial_order_for,
    parameter_pairs,
    parse_polynomial,
    parse_poset,
    positivity_witness,
    ring_variables,
    truncated_hilbert,
    u_variables,
    variable_degree,
    x_variables,
)
from lpdeform import grading
from lpdeform.grading import MAX_PACKED_DEGREE, _degree_table
from lpdeform.polynomials import MAX_KEY_WEIGHT, _pack_terms

from conftest import (
    brute_standard_count,
    chain_tree,
    load_tree,
    poset_text,
    sign_flip_mutants,
    star_tree,
)


def unit(place, p):
    return MultiDegree.unit(place, p)


# -- the degree group ---------------------------------------------------------

def test_multidegree_arithmetic():
    d = unit(1, "a") + unit(2, "b") - unit(1, "a")
    assert d == unit(2, "b")
    assert (d - d).is_zero
    assert 3 * unit(1, "a") == unit(1, "a") + unit(1, "a") + unit(1, "a")
    assert 0 * d == MultiDegree.zero()
    assert hash(unit(1, "a") + unit(2, "b")) == hash(unit(2, "b") + unit(1, "a"))
    assert unit(1, "a").render() == "a1"
    assert (unit(2, "b") - 2 * unit(1, "a")).render() == "-2*a1+b2"


def test_variable_degrees_on_a_chain():
    tree = chain_tree(3)  # a < b < c
    assert variable_degree(tree, XVar(1, "b")) == unit(1, "b")
    assert variable_degree(tree, XVar(2, "c")) == unit(2, "c")
    assert hat_degree(tree, "a") == unit(2, "a") - unit(1, "b")
    assert hat_degree(tree, "c") == unit(2, "c")
    # u[a,b]: b1 - a2 + hat(b) = b1 - a2 + b2 - c1
    assert variable_degree(tree, UVar("a", "b")) == \
        unit(1, "b") - unit(2, "a") + unit(2, "b") - unit(1, "c")
    # the root's parameter: a1 + hat(a)
    assert variable_degree(tree, UVar(None, "a")) == \
        unit(1, "a") + unit(2, "a") - unit(1, "b")


def test_variable_degree_rejects_foreign_variables():
    tree = chain_tree(2)
    with pytest.raises(UnknownVariableError):
        variable_degree(tree, XVar(1, "z"))
    with pytest.raises(UnknownVariableError):
        variable_degree(tree, UVar(None, "b"))  # b is not the root
    with pytest.raises(UnknownVariableError):
        variable_degree(tree, UVar("b", "a"))  # no such parameter on a chain


def test_generators_are_homogeneous_of_quadric_degree():
    # deg g(p,q) = p1 + q2, matching the letterplace quadric it deforms
    for tree in (chain_tree(4), star_tree(3), load_tree("vc2"),
                 load_tree("tree7")):
        for (p, q), g in j_ideal_generators(tree):
            assert homogeneous_degree(tree, g) == unit(1, p) + unit(2, q)


def test_homogeneity_failure_carries_a_witness():
    tree = chain_tree(2)
    varis = ring_variables(tree)
    with pytest.raises(NotHomogeneousError) as exc:
        homogeneous_degree(tree, parse_polynomial("a1 + a2", varis))
    _, d1, _, d2 = exc.value.witness
    assert {d1, d2} == {unit(1, "a"), unit(2, "a")}
    assert homogeneous_degree(tree, Polynomial.zero()) == MultiDegree.zero()


# -- the packed degree table ----------------------------------------------------

def dict_monomial_degree(tree, mono):
    """Oracle: a monomial's multidegree summed as MultiDegree dicts, one
    variable_degree per variable."""
    deg = MultiDegree.zero()
    for v, e in mono.pairs:
        deg = deg + variable_degree(tree, v) * e
    return deg


def dict_homogeneity_witness(tree, f):
    """Oracle: None when f is homogeneous, else the (m0, d0, m, d) witness
    and message homogeneous_degree raises: the first term against the
    first term of another degree."""
    it = iter(f.terms)
    m0 = next(it)
    d0 = dict_monomial_degree(tree, m0)
    for m in it:
        d = dict_monomial_degree(tree, m)
        if d != d0:
            message = f"monomial {m0!r} has degree {d0.render()} but {m!r} has {d.render()}"
            return (m0, d0, m, d), message
    return None


TREES_UP_TO_6 = list(all_rooted_trees(6))
EXPONENTS = st.one_of(st.integers(1, 3), st.integers(1, 2**24))


@st.composite
def tree_and_monomials(draw, count, exponents=EXPONENTS):
    tree = draw(st.sampled_from(TREES_UP_TO_6))
    pair = st.tuples(st.sampled_from(ring_variables(tree)), exponents)
    monos = [Monomial.from_pairs(draw(st.lists(pair, max_size=6))) for _ in range(count)]
    return tree, monos


@given(tree_and_monomials(2))
def test_packed_degree_decodes_to_the_oracle_and_is_linear(case):
    tree, (m1, m2) = case
    table = _degree_table(tree)
    for m in (m1, m2, m1.mul(m2)):
        assert table.decode(table.code(tree, m)) == dict_monomial_degree(tree, m)
        assert monomial_degree(tree, m) == dict_monomial_degree(tree, m)
    assert table.code(tree, m1.mul(m2)) == table.code(tree, m1) + table.code(tree, m2)


def test_homogeneous_degree_matches_the_oracle_on_every_generator():
    for tree in TREES_UP_TO_6:
        for (p, q), g in j_ideal_generators(tree):
            got = homogeneous_degree(tree, g)
            assert dict_homogeneity_witness(tree, g) is None
            assert got == dict_monomial_degree(tree, next(iter(g.terms)))
            assert got == unit(1, p) + unit(2, q)


@given(tree_and_monomials(4), st.lists(st.integers(-3, 3).filter(bool), min_size=4, max_size=4))
def test_non_homogeneous_sums_raise_the_oracle_witness(case, coeffs):
    tree, monos = case
    f = Polynomial.from_terms(zip(monos, coeffs))
    if f.is_zero:
        return
    expected = dict_homogeneity_witness(tree, f)
    if expected is None:
        assert homogeneous_degree(tree, f) == dict_monomial_degree(tree, next(iter(f.terms)))
        return
    with pytest.raises(NotHomogeneousError) as exc:
        homogeneous_degree(tree, f)
    witness, message = expected
    assert exc.value.witness == witness
    assert str(exc.value) == message


@st.composite
def order_for(draw, tree):
    """A MonomialOrder on the tree's ring: the package's 16-bit order, the
    deformation context's 8-bit one, or the ring variables permuted, at
    either width."""
    kind = draw(st.sampled_from(["16-bit", "context", "permuted"]))
    if kind == "16-bit":
        return monomial_order_for(tree)
    if kind == "context":
        return DeformationContext(tree).order
    weights = positivity_witness(tree)
    return MonomialOrder(draw(st.permutations(list(weights))), weights, draw(st.sampled_from([8, 16])))


@given(tree_and_monomials(4, st.integers(1, 3)),
       st.lists(st.integers(-3, 3).filter(bool), min_size=4, max_size=4), st.data())
def test_packed_polynomials_give_the_oracle_degree_and_witness(case, coeffs, data):
    # the degree of a packed term comes from its exponent digits, in the
    # order's own layout wherever the order puts each variable; the
    # witness monomials are decoded from the first term and the first term
    # of another degree, as for the Polynomial
    tree, monos = case
    f = Polynomial.from_terms(zip(monos, coeffs))
    if f.is_zero:
        return
    order = data.draw(order_for(tree))
    packed = _pack_terms(f, order)
    expected = dict_homogeneity_witness(tree, f)
    if expected is None:
        assert homogeneous_degree(tree, packed, order) == dict_monomial_degree(tree, next(iter(f.terms)))
        return
    with pytest.raises(NotHomogeneousError) as exc:
        homogeneous_degree(tree, packed, order)
    witness, message = expected
    assert exc.value.witness == witness
    assert str(exc.value) == message


def test_packed_degrees_of_an_order_without_some_x_variables():
    # a symbol the order lacks gets a digit past the order's last one, so
    # the u-parameters whose degrees hold it still decode exactly
    tree = load_tree("vc2")  # a < b, a < c < d
    weights = positivity_witness(tree)
    missing = {XVar(1, "d"), XVar(2, "a")}
    order = MonomialOrder([v for v in weights if v not in missing], weights, 8)
    table = _degree_table(tree, order)
    for v in order.variables:
        m = Monomial.var(v, 3)
        assert homogeneous_degree(tree, {-order.key(m): 1}, order) == 3 * variable_degree(tree, v), v
    for v in ring_variables(tree):
        assert table.decode(table.codes[v]) == variable_degree(tree, v), v


def test_homogeneity_witness_of_a_generator_plus_a_stray_term():
    tree = load_tree("vc2")
    (_, g), *_ = j_ideal_generators(tree)
    stray = Monomial.var(UVar("b", "c"), 2)
    f = g + Polynomial.term(stray)
    with pytest.raises(NotHomogeneousError) as exc:
        homogeneous_degree(tree, f)
    assert (exc.value.witness, str(exc.value)) == dict_homogeneity_witness(tree, f)


@pytest.mark.parametrize("foreign", [XVar(1, "z"), UVar(None, "b"), UVar("b", "a")])
def test_packed_degree_rejects_foreign_variables(foreign):
    tree = chain_tree(2)
    a1b2 = Monomial.from_pairs([(XVar(1, "a"), 1), (XVar(2, "b"), 1)])
    homogeneous_degree(tree, Polynomial.term(a1b2))  # the table exists now
    stray = Monomial.var(foreign)
    with pytest.raises(UnknownVariableError):
        monomial_degree(tree, stray)
    with pytest.raises(UnknownVariableError):
        homogeneous_degree(tree, Polynomial({a1b2: 1, stray.mul(Monomial.var(XVar(1, "b"))): 1}))
    # packed: an order on the ring and the foreign variable
    weights = {**positivity_witness(tree), foreign: 1}
    order = MonomialOrder(weights, weights)
    packed = {-order.key(a1b2): 1, -order.key(stray.mul(Monomial.var(XVar(1, "b")))): 1}
    with pytest.raises(UnknownVariableError):
        homogeneous_degree(tree, packed, order)


def test_packed_degree_bound():
    tree = chain_tree(2)
    a1, root_u = XVar(1, "a"), UVar(None, "a")  # deg u[0,a] = a1 + a2 - b1
    top = MAX_PACKED_DEGREE
    assert top == 2**31 - 1  # the bound docs/formats.md states
    # the largest digits either way still decode exactly
    assert monomial_degree(tree, Monomial.var(a1, top)) == top * unit(1, "a")
    assert monomial_degree(tree, Monomial.var(root_u, top)) == \
        top * (unit(1, "a") + unit(2, "a") - unit(1, "b"))
    # one more, on one variable or split over two, raises
    too_big = [
        Monomial.var(a1, top + 1),
        Monomial.from_pairs([(a1, 2**30), (root_u, 2**30)]),
    ]
    for m in too_big:
        with pytest.raises(ResourceLimitError):
            monomial_degree(tree, m)
        with pytest.raises(ResourceLimitError):
            homogeneous_degree(tree, Polynomial({Monomial.var(a1, 3): 1, m: 1}))


def test_degree_table_goes_with_its_tree():
    tree = chain_tree(3)
    for _, g in j_ideal_generators(tree):
        homogeneous_degree(tree, g)
    alive = weakref.ref(tree)
    del tree
    gc.collect()
    assert alive() is None


def digit_sum_code(table, order, n):
    """The degree code of the term with minus key n, digit by digit: the
    oracle for the chunked reading."""
    return sum(e * table.codes[v] for v, e in zip(order.variables, order.exponents(n)) if e)


def basic_suite_blocks(monkeypatch, verifier):
    """Every packed block the basic suite reads a degree from."""
    blocks = []
    common = grading._DegreeTable.common

    def spy(table, tree, f):
        blocks.append(f)
        return common(table, tree, f)

    monkeypatch.setattr(grading._DegreeTable, "common", spy)
    assert all(r.passed for r in verifier.run_basic())
    monkeypatch.undo()
    return blocks


@pytest.mark.parametrize("wide", [False, True], ids=["8-bit", "wide"])
def test_chunked_degree_codes_are_the_digit_sums_of_every_basic_suite_term(monkeypatch, wide):
    # the u-span is read CHUNK_BITS at a time from per-chunk tables; every
    # term of every block the basic suite reads, on every tree of up to 7
    # nodes, gets the code the digit-by-digit sum gives
    for tree in all_rooted_trees(7):
        verifier = Verifier(tree)
        verifier.ctx = DeformationContext(verifier.tree, wide=wide)
        verifier.order = order = verifier.ctx.order
        assert order.digit_bits == (16 if wide else 8)
        blocks = basic_suite_blocks(monkeypatch, verifier)
        table = _degree_table(verifier.tree, order)
        assert blocks
        for f in blocks:
            for n in f:
                assert table.degree(n) == digit_sum_code(table, order, n), (tree, n)


def test_chunked_degree_codes_of_random_terms():
    # random exponent digits below the guard bit, on orders whose u-span is
    # not a whole number of chunks, at both widths and with the variables
    # permuted
    rng = random.Random(7)
    spans = set()
    for tree in list(all_rooted_trees(6))[::3]:
        weights = positivity_witness(tree)
        for bits in (8, 16):
            variables = list(weights)
            for order in (MonomialOrder(variables, weights, bits),
                          MonomialOrder(rng.sample(variables, len(variables)), weights, bits)):
                table = grading._DegreeTable(tree, order)
                spans.add(len(u_variables(tree)) % order.chunk_digits)
                top, shift = 1 << (bits - 1), bits * len(variables)
                for _ in range(50):
                    digits = [rng.randrange(top) if rng.random() < 0.3 else 0 for _ in variables]
                    n = sum(e << bits * i for i, e in enumerate(digits)) - (rng.randrange(1, 100) << shift)
                    assert table.degree(n) == digit_sum_code(table, order, n)
    assert len(spans) > 2  # spans that end inside a chunk, and one that does not


MESSAGE_ACROSS_CHUNKS = (
    "monomial a1*a2 has degree a1+a2 but a1*u[0,a]*u[d,e]^2 has 2*a1+a2-b1-c1-d1-2*d2+e1+2*e2"
)


def test_a_witness_across_chunks_is_unchanged():
    # the stray term's u-digits sit in the first and the third chunk of the
    # star's u-span; the message is the one the digit-by-digit reading gave
    ctx = DeformationContext(star_tree(4))
    order = ctx.order
    (_, g), *_ = ctx.generators_packed()
    us = list(u_variables(ctx.tree))
    stray = Monomial.from_pairs([(XVar(1, "a"), 1), (us[0], 1), (us[-1], 2)])
    assert order.index[us[-1]] - order.index[us[0]] >= 2 * order.chunk_digits
    with pytest.raises(NotHomogeneousError) as exc:
        homogeneous_degree(ctx.tree, {**g, -order.key(stray): 1}, order)
    assert str(exc.value) == MESSAGE_ACROSS_CHUNKS


def test_the_chunk_tables_stay_small_on_star7():
    # star-7's generators hold 40,370 distinct u-parts in 40,384 terms, so
    # a cache of whole u-parts hardly hits; its chunks take few values
    verifier = Verifier(star_tree(7))
    assert all(r.passed for r in verifier.run_basic())
    chunks = _degree_table(verifier.tree, verifier.order)._chunks
    assert len(chunks) == 9  # 50 u-digits, 6 to a chunk
    assert max(map(len, chunks)) <= 32 and sum(map(len, chunks)) <= 128


def test_the_degree_table_holds_every_variable_at_its_degree():
    # written down from the tree when it is built, each code decodes to
    # variable_degree, the independent statement of the rule
    for tree in TREES_UP_TO_6:
        table = _degree_table(tree)
        assert set(table.codes) == set(ring_variables(tree))
        for v in ring_variables(tree):
            assert table.decode(table.codes[v]) == variable_degree(tree, v), v


def test_variable_degree_on_a_plain_poset():
    # a tree-shaped Poset gets its RootedTree's degrees; a poset that is not
    # a rooted tree has no parameters, and its x-degrees work as on a tree
    shaped = parse_poset("a < b\na < c\nc < d\n")
    tree = as_rooted_tree(parse_poset("a < b\na < c\nc < d\n"))
    assert not isinstance(shaped, RootedTree)
    table = _degree_table(shaped)
    for v in ring_variables(tree):
        assert variable_degree(shaped, v) == variable_degree(tree, v), v
        assert table.decode(table.codes[v]) == variable_degree(tree, v), v
    assert set(table.codes) == set(ring_variables(tree))

    vee = parse_poset("a < c\nb < c\n")
    table = _degree_table(vee)
    for p in vee:
        for q in (None, *vee):
            with pytest.raises(UnknownVariableError):
                variable_degree(vee, UVar(q, p))
            with pytest.raises(UnknownVariableError):
                monomial_degree(vee, Monomial.var(UVar(q, p)))
    assert set(table.codes) == set(x_variables(vee))
    mono = Monomial.from_pairs([(XVar(1, "a"), 2), (XVar(2, "c"), 1)])
    assert monomial_degree(vee, mono) == 2 * unit(1, "a") + unit(2, "c")
    for v in x_variables(vee):
        assert variable_degree(vee, v) == unit(v.place, v.element)


def test_positivity_witness_values():
    tree = load_tree("vc2")  # a < b, a < c < d
    w = positivity_witness(tree)
    assert w[XVar(2, "a")] == 1 and w[XVar(2, "d")] == 1
    assert w[XVar(1, "d")] == 1
    assert w[XVar(1, "c")] == 2  # 1 + d
    assert w[XVar(1, "b")] == 1
    assert w[XVar(1, "a")] == 4  # 1 + b + c
    assert w[UVar(None, "a")] == 2
    for v in u_variables(tree):
        if v.upper is not None:
            assert w[v] == 1


def test_positivity_witness_is_positive_and_coarsens():
    for tree in all_rooted_trees(6):
        w = positivity_witness(tree)
        assert set(w) == set(ring_variables(tree))
        assert all(wt > 0 for wt in w.values())
        # coarsening: the weight of a variable is the witness evaluated on
        # its multidegree, so homogeneous polynomials have one weight
        for _, g in j_ideal_generators(tree):
            weights = {sum(w[v] * e for v, e in m.pairs) for m in g.terms}
            assert len(weights) == 1


def test_variable_degree_knows_exactly_the_parameters():
    for tree in all_rooted_trees(5):
        params = set(parameter_pairs(tree))
        for p in tree:
            for q in (None, *tree):
                if (q, p) in params:
                    assert isinstance(variable_degree(tree, UVar(q, p)), MultiDegree)
                else:
                    with pytest.raises(UnknownVariableError):
                        variable_degree(tree, UVar(q, p))


def test_the_witness_coarsens_variable_by_variable():
    # the witness is written down from the tree; evaluated on each
    # variable's multidegree it gives that variable's weight back
    for tree in all_rooted_trees(7):
        w = positivity_witness(tree)
        for v, wt in w.items():
            assert wt > 0
            assert wt == sum(c * w[sym] for sym, c in variable_degree(tree, v).coords.items()), v


def test_the_parameters_are_read_not_rederived(monkeypatch):
    # the order and the expansion take the parameters from their one rule:
    # no meet, no parameter degree and no decoded monomial; the degree
    # table writes every degree down from the tree, computing hat(p) once
    # per element, and the degree laws read it from there
    calls = {"variable_degree": 0, "meet": 0, "monomial": 0}
    hats = []

    def spy(name, real):
        def call(*args):
            calls[name] += 1
            return real(*args)
        return call

    monkeypatch.setattr(grading, "variable_degree", spy("variable_degree", grading.variable_degree))
    monkeypatch.setattr(RootedTree, "meet", spy("meet", RootedTree.meet))
    monkeypatch.setattr(MonomialOrder, "monomial", spy("monomial", MonomialOrder.monomial))
    degree_codes = grading._degree_codes

    def codes_spy(poset, units):
        codes, hat = degree_codes(poset, units)
        hats.extend(hat)
        return codes, hat

    monkeypatch.setattr(grading, "_degree_codes", codes_spy)
    for tree in (load_tree("tree7"), star_tree(3)):
        monomial_order_for(tree)
        assert calls == {"variable_degree": 0, "meet": 0, "monomial": 0}
        DeformationContext(tree).generators_packed()
        assert calls == {"variable_degree": 0, "meet": 0, "monomial": 0}
    tree = load_tree("tree7")
    assert all(r.passed for r in Verifier(tree).run_basic())
    assert calls == {"variable_degree": 0, "meet": 0, "monomial": 0}
    assert sorted(hats) == sorted(tree) and len(hats) == len(tree) == 7


def test_monomial_order_enumerates_the_ring_variables_once(monkeypatch):
    # the witness's keys are the ring variables in order, and the order is
    # built from them instead of a second enumeration of the parameters
    calls = []
    real = grading.ring_variables
    monkeypatch.setattr(grading, "ring_variables", lambda tree: calls.append(tree) or real(tree))
    for tree in TREES_UP_TO_6:
        calls.clear()
        order = monomial_order_for(tree)
        assert len(calls) == 1
        assert order.variables == tuple(real(tree))


def test_monomial_order_prefers_heavier_monomials():
    tree = chain_tree(2)
    order = monomial_order_for(tree)
    varis = ring_variables(tree)
    a1 = order.leading_monomial(parse_polynomial("a1", varis))
    ub = order.leading_monomial(parse_polynomial("u[a,b]", varis))
    assert order.greater(a1, ub)  # weight 2 beats weight 1
    # and on every tree, the head of each deformed generator is its quadric
    tree = load_tree("vc2")
    order = monomial_order_for(tree)
    quadrics = dict(letterplace_generators(tree))
    for pair, g in j_ideal_generators(tree):
        assert order.leading_monomial(g) == quadrics[pair]


def letterplace_monomials(tree):
    return [m for _, m in letterplace_generators(tree)]


def j_leads(tree):
    gens = [g for _, g in j_ideal_generators(tree)]
    return buchberger(gens, monomial_order_for(tree)).leading_monomials()


def test_truncated_hilbert_of_single_node():
    # one node, weights a1 -> 1, a2 -> 1, u[0,a] -> 2, ideal (a1*a2):
    # standard monomials are a1^i*u^k and a2^j*u^k, giving one more
    # monomial per weight step
    tree = chain_tree(1)
    weights = positivity_witness(tree)
    assert truncated_hilbert(letterplace_monomials(tree), weights, 6) == [1, 2, 3, 4, 5, 6, 7]


def test_truncated_hilbert_matches_brute_force():
    tree = chain_tree(2)
    weights = positivity_witness(tree)
    quadrics = letterplace_monomials(tree)
    assert truncated_hilbert(quadrics, weights, 6) == \
        brute_standard_count(quadrics, weights, 6)


def test_truncated_hilbert_known_series():
    # frozen values for the deformed ideals of the four smallest shapes
    cases = [
        (chain_tree(1), [1, 2, 3, 4, 5, 6, 7]),
        (chain_tree(2), [1, 4, 11, 22, 40, 64, 98]),
        (chain_tree(3), [1, 6, 22, 61, 141, 288, 537]),
        (star_tree(2), [1, 9, 44, 157, 456, 1144, 2571]),
    ]
    for tree, expected in cases:
        weights = positivity_witness(tree)
        assert truncated_hilbert(j_leads(tree), weights, 6) == expected


def cross_check_cases():
    chain2 = chain_tree(2)
    first = next(iter(positivity_witness(chain2)))  # a1
    return {
        "chain3-J": (chain_tree(3), j_leads(chain_tree(3))),
        "star2-J": (star_tree(2), j_leads(star_tree(2))),
        "unit": (chain2, [Monomial.var(XVar(2, "b")), Monomial()]),
        "square": (chain2, [Monomial.var(XVar(1, "b"), 2)]),
        "first-variable": (chain2, [Monomial.var(first)]),
        "empty": (chain2, []),
    }


CROSS_CHECKS = cross_check_cases()


@pytest.mark.parametrize("tree, leads", CROSS_CHECKS.values(), ids=CROSS_CHECKS.keys())
def test_truncated_hilbert_cross_checks_brute_force(tree, leads):
    weights = positivity_witness(tree)
    counts = truncated_hilbert(leads, weights, 5)
    assert counts == brute_standard_count(leads, weights, 5)
    if Monomial() in leads:
        assert counts == [0] * 6


def test_truncated_hilbert_rejects_foreign_leads():
    weights = positivity_witness(chain_tree(2))
    with pytest.raises(UnknownVariableError):
        truncated_hilbert([Monomial.var(XVar(1, "z"))], weights, 3)


def test_truncated_hilbert_of_single_node_up_to_the_degree_budget():
    # the closed form of test_truncated_hilbert_of_single_node far beyond
    # what enumerating monomials reaches, up to the heaviest weight an order
    # key holds; one above it is refused before any list is allocated
    tree = chain_tree(1)
    weights, quadrics = positivity_witness(tree), letterplace_monomials(tree)
    for degree in (1000, MAX_KEY_WEIGHT):
        assert truncated_hilbert(quadrics, weights, degree) == list(range(1, degree + 2))
    with pytest.raises(ResourceLimitError, match=f"max_degree {MAX_KEY_WEIGHT + 1} exceeds"):
        truncated_hilbert(quadrics, weights, MAX_KEY_WEIGHT + 1)


@pytest.mark.parametrize("degree", [2.5, "3", True, False, None])
def test_truncated_hilbert_rejects_a_degree_that_is_not_an_int(degree):
    # as compare_hilbert does; a bool used to count as degree 0 or 1
    weights = positivity_witness(chain_tree(2))
    with pytest.raises(DomainError, match=f"^max_degree must be an int, got {degree!r}$"):
        truncated_hilbert(j_leads(chain_tree(2)), weights, degree)
    with pytest.raises(DomainError, match=f"^max_degree must be an int, got {degree!r}$"):
        Verifier(chain_tree(2)).compare_hilbert(degree)


def test_truncated_hilbert_of_a_negative_degree_is_empty():
    weights = positivity_witness(chain_tree(2))
    assert truncated_hilbert(j_leads(chain_tree(2)), weights, -1) == []
    assert truncated_hilbert([], weights, -1) == []


# -- the series numerator against enumeration ---------------------------------

RING = [XVar(1, name) for name in "abcde"]


@st.composite
def monomial_ideals(draw):
    """A ring of 1-5 variables with weights 1-3 and up to 8 leads with
    exponents 0-3: non-squarefree, possibly the unit (all exponents 0), and
    some drawn twice."""
    n = draw(st.integers(1, 5))
    weights = {v: draw(st.integers(1, 3)) for v in RING[:n]}
    exponents = st.lists(st.integers(0, 3), min_size=n, max_size=n)
    leads = [Monomial.from_pairs(zip(RING, e)) for e in draw(st.lists(exponents, max_size=6))]
    if leads:
        leads += draw(st.lists(st.sampled_from(leads), max_size=2))
    return leads, weights


@given(monomial_ideals(), st.integers(0, 10))
@example(([], {RING[0]: 1, RING[1]: 2}), 10)
@example(([Monomial(), Monomial.var(RING[0], 2)], {RING[0]: 1, RING[1]: 3}), 6)
@example(
    (
        [Monomial.from_pairs([(RING[0], 2), (RING[1], 1)])] * 2
        + [Monomial.var(RING[1], 3), Monomial.from_pairs([(RING[0], 1), (RING[2], 2)])],
        {RING[0]: 1, RING[1]: 2, RING[2]: 3},
    ),
    10,
)
def test_truncated_hilbert_matches_enumeration_on_random_ideals(ideal, max_degree):
    leads, weights = ideal
    assert truncated_hilbert(leads, weights, max_degree) == \
        brute_standard_count(leads, weights, max_degree)


def test_truncated_hilbert_of_high_powers():
    # (x^1500, x^1499*y) = x^1499*(x, y): one pivot on x^1499 splits it,
    # where pivoting on x would recurse 1500 deep
    x, y = RING[:2]
    leads = [Monomial.var(x, 1500), Monomial.from_pairs([(x, 1499), (y, 1)])]
    expected = [d + 1 for d in range(1500)] + [1499] * 500
    assert truncated_hilbert(leads, {x: 1, y: 1}, 1999) == expected


@pytest.mark.parametrize("n", [1, 2, 7, 300])
def test_truncated_hilbert_of_powers_of_the_maximal_ideal(n):
    # (x, y)^n: H(d) = d + 1 below n and 0 from n on
    x, y = RING[:2]
    leads = [Monomial.from_pairs([(x, k), (y, n - k)]) for k in range(n + 1)]
    expected = [d + 1 for d in range(n)] + [0] * 6
    assert truncated_hilbert(leads, {x: 1, y: 1}, n + 5) == expected
    # the same stairs c times as high, so that the pivots are x^c:
    # x^i*y^j is standard when i//c + j//c < n
    for c in (2, 3):
        leads = [Monomial.from_pairs([(x, c * k), (y, c * (n - k))]) for k in range(n + 1)]
        expected = [sum(i // c + (d - i) // c < n for i in range(d + 1)) for d in range(c * n + 5)]
        assert truncated_hilbert(leads, {x: 1, y: 1}, c * n + 4) == expected


def test_numerator_drops_leads_another_divides(monkeypatch):
    # the 20-chain's quadrics at degree 40 take 39 pivot steps; without
    # dropping the leads that the colons make redundant they took 2.4
    # million, and redundant leads in the input must not add any
    tree = chain_tree(20)
    weights = positivity_witness(tree)
    quadrics = [m for _, m in letterplace_generators(tree)]
    padded = quadrics + quadrics[:3] + [
        q.mul(Monomial.var(v)) for q in quadrics[:10] for v in list(weights)[:4]
    ]
    calls = []
    split = grading._split

    def counted(*args):
        calls.append(args)
        assert len(calls) <= 1000, "redundant leads were kept"
        return split(*args)

    monkeypatch.setattr(grading, "_split", counted)
    values = truncated_hilbert(quadrics, weights, 40)
    assert len(calls) == 39
    calls.clear()
    assert truncated_hilbert(padded, weights, 40) == values
    assert len(calls) == 39


def test_truncated_hilbert_matches_enumeration_on_sign_flip_mutants():
    # a flipped u-part breaks flatness: on 48 of the 49 Buchberger adds to
    # the basis, so the leads are more than the letterplace quadrics
    seen = 0
    for key, tree, gens in sign_flip_mutants(4):
        weights = positivity_witness(tree)
        leads = buchberger([g for _, g in gens], monomial_order_for(tree)).leading_monomials()
        assert truncated_hilbert(leads, weights, 3) == brute_standard_count(leads, weights, 3), key
        seen += 1
    assert seen == 49


# -- the working order of any poset, and weights the library takes -------------

def test_a_parsed_tree_gets_the_rooted_trees_order_witness_and_hats():
    # parse_poset returns a Poset, on which these three raised AttributeError
    for tree in (load_tree("tree7"), star_tree(3), chain_tree(1)):
        poset = parse_poset(poset_text(tree))
        assert type(poset) is not RootedTree
        assert list(positivity_witness(poset).items()) == list(positivity_witness(tree).items())
        order, want = monomial_order_for(poset), monomial_order_for(tree)
        assert order.variables == want.variables and order.weights == want.weights
        assert all(hat_degree(poset, p) == hat_degree(tree, p) for p in tree)


@pytest.mark.parametrize("text", ["a < b\nc < b\nc < d\n", "elem a\nelem b\n"], ids=["fence", "antichain"])
def test_a_poset_that_is_no_tree_gets_weight_one_on_its_x_variables(text):
    poset = parse_poset(text)
    order = monomial_order_for(poset)
    assert order.variables == tuple(x_variables(poset))
    assert order.weights == {v: 1 for v in x_variables(poset)}
    with pytest.raises(NotATreeError):
        positivity_witness(poset)
    with pytest.raises(NotATreeError):
        hat_degree(poset, "a")


@pytest.mark.parametrize("weight", [0, -1, 1.5, True, False, None, "1"])
def test_truncated_hilbert_rejects_a_weight_that_is_not_a_positive_int(weight):
    # weight 0 answered [2, 0, 0, 0], though degree 0 is then infinite;
    # -1 raised IndexError, 1.5 TypeError, and True counted as weight 1
    a1 = XVar(1, "a")
    with pytest.raises(DomainError, match="^weight of a1 must be a positive integer$"):
        truncated_hilbert([], {a1: weight}, 3)
    with pytest.raises(DomainError, match="^weight of a1 must be a positive integer$"):
        truncated_hilbert([Monomial.var(a1)], {XVar(2, "a"): 1, a1: weight}, 3)


def test_an_order_rejects_weight_true():
    # MonomialOrder kept True as the weight
    a1 = XVar(1, "a")
    with pytest.raises(DomainError, match="^weight of a1 must be a positive integer$"):
        MonomialOrder([a1], {a1: True})
