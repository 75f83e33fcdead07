import itertools
import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from lpdeform import (
    DeformationContext,
    DomainError,
    MinorIndexError,
    Monomial,
    MonomialOrder,
    NonSquareError,
    ParseError,
    PolyMatrix,
    Polynomial,
    ResourceLimitError,
    ShapeError,
    UnknownVariableError,
    UVar,
    XVar,
    all_rooted_trees,
    parse_polynomial,
    parse_poset,
    render_monomial,
    render_polynomial,
    polynomial_to_json,
)

from lpdeform.groebner import _mul
from lpdeform.polynomials import (
    MAX_KEY_WEIGHT,
    _factors,
    _pack_terms,
    packed_to_json,
    render_packed,
    render_packed_json,
)

from conftest import json_text, tuple_order_key

X1, X2 = XVar(1, "x"), XVar(2, "x")
Y1, Y2 = XVar(1, "y"), XVar(2, "y")
UXY = UVar("x", "y")
UROOT = UVar(None, "x")
POOL = [X1, X2, Y1, Y2, UXY, UROOT]
ORDER = MonomialOrder(POOL, {v: 1 for v in POOL})


def poly(text):
    return parse_polynomial(text, POOL)


# -- variables ----------------------------------------------------------------

def test_variable_rendering():
    assert X1.render() == "x1"
    assert Y2.render() == "y2"
    assert UXY.render() == "u[x,y]"
    assert UROOT.render() == "u[0,x]"


def test_variable_identity():
    assert XVar(1, "x") == X1 and hash(XVar(1, "x")) == hash(X1)
    assert UVar("x", "y") == UXY and hash(UVar("x", "y")) == hash(UXY)
    assert UVar(None, "x") == UROOT and hash(UVar(None, "x")) == hash(UROOT)
    assert XVar(1, "x") != XVar(2, "x")
    assert UVar("x", "y") != UVar("y", "x")
    for x in (X1, X2, Y1, Y2):
        for u in (UXY, UROOT, UVar(None, "y"), UVar("y", "x")):
            assert x != u and u != x
    with pytest.raises(DomainError):
        XVar(3, "x")


def test_variable_accessors_are_read_only():
    assert (X2.place, X2.element) == (2, "x")
    assert (UXY.upper, UXY.lower) == ("x", "y")
    assert (UROOT.upper, UROOT.lower) == (None, "x")
    with pytest.raises(AttributeError):
        X1.place = 2
    with pytest.raises(AttributeError):
        UXY.upper = "z"


def test_variables_sort_in_storage_order():
    # x-variables by (element, place), then u-variables by lower element,
    # the root's empty upper slot before every upper element
    expected = [
        XVar(1, "a"), XVar(2, "a"), XVar(1, "b"), XVar(2, "b"), XVar(1, "c"),
        UVar(None, "a"), UVar("A", "a"), UVar("a", "b"), UVar("a", "c"),
        UVar("b", "c"),
    ]
    shuffled = expected[:]
    random.Random(3).shuffle(shuffled)
    assert sorted(shuffled) == expected
    assert Monomial.from_pairs((v, 1) for v in shuffled).variables() == tuple(expected)


# -- monomials ------------------------------------------------------------------

def test_monomial_merge_and_accessors():
    m = Monomial.from_pairs([(X1, 1), (X1, 2), (Y1, 0), (UXY, 1)])
    assert m.exponent(X1) == 3
    assert m.exponent(Y1) == 0
    assert m.degree() == 4
    assert m.u_degree() == 1
    assert set(m.variables()) == {X1, UXY}


def test_monomial_arithmetic():
    a = Monomial.var(X1, 2)
    b = Monomial.from_pairs([(X1, 1), (Y1, 1)])
    assert a.mul(b) == Monomial.from_pairs([(X1, 3), (Y1, 1)])
    assert b.divides(a.mul(b))
    assert not a.divides(b)
    assert a.mul(b).div(b) == a
    assert a.lcm(b) == Monomial.from_pairs([(X1, 2), (Y1, 1)])
    assert Monomial().is_one


# -- polynomial ring operations --------------------------------------------------

def test_ring_axioms_on_samples():
    p, q, r = poly("x1 + y1"), poly("x1*y1 - 2"), poly("3/2*x2^2")
    assert p + q == q + p
    assert (p + q) + r == p + (q + r)
    assert p * (q + r) == p * q + p * r
    assert p - p == Polynomial.zero()
    assert p * Polynomial.zero() == Polynomial.zero()
    assert p * 1 == p and 1 * p == p


def test_cancellation_and_zero():
    p = poly("x1*y1 - x1*y1")
    assert p.is_zero and not p
    assert len(poly("x1 + x1")) == 1
    assert poly("x1 + x1") == poly("2*x1")


def test_integral_coefficients_are_ints():
    assert type(Polynomial.constant(Fraction(4, 2)).coefficient(Monomial())) is int
    assert type(Polynomial.constant(Fraction(1, 2)).coefficient(Monomial())) is Fraction
    assert [type(c) for _, c in poly("x1 - 1/2*y1 + 6/3*x2").items()] == [int, Fraction, int]
    assert all(type(c) is int for _, c in (poly("1/2*x1 - 3/2*y1") * 2).items())
    assert type(Polynomial.term(Monomial.var(X1), True).coefficient(Monomial.var(X1))) is int


def coefficient_types(p):
    return {m: type(c) for m, c in p.items()}


def test_integral_sums_of_fractions_are_ints():
    half_x1 = poly("1/2*x1")
    whole = half_x1 + half_x1
    assert whole == poly("x1") and coefficient_types(whole) == {Monomial.var(X1): int}
    # sums that are not integral stay Fraction
    assert coefficient_types(whole + half_x1) == {Monomial.var(X1): Fraction}
    assert (whole + half_x1).coefficient(Monomial.var(X1)) == Fraction(3, 2)
    assert coefficient_types(half_x1 - poly("1/3*x1")) == {Monomial.var(X1): Fraction}
    # parsing sums repeated monomials the same way
    assert coefficient_types(poly("1/2*x1 + 1/2*x1")) == {Monomial.var(X1): int}


def test_integral_sums_in_products_are_ints():
    # (x1 + y1)/2 * (x1 + y1): the x1*y1 coefficient is 1/2 + 1/2
    p = poly("1/2*x1 + 1/2*y1") * poly("x1 + y1")
    assert p == poly("1/2*x1^2 + x1*y1 + 1/2*y1^2")
    assert coefficient_types(p) == {
        Monomial.from_pairs([(X1, 2)]): Fraction,
        Monomial.from_pairs([(X1, 1), (Y1, 1)]): int,
        Monomial.from_pairs([(Y1, 2)]): Fraction,
    }
    # a single product of two fractions
    assert coefficient_types(poly("2/3*x1") * poly("3/2*y1")) == {
        Monomial.from_pairs([(X1, 1), (Y1, 1)]): int
    }


def test_pow_and_fractions():
    assert poly("x1 + y1") ** 2 == poly("x1^2 + 2*x1*y1 + y1^2")
    assert poly("1/2*x1") * poly("2/3*y1") == poly("1/3*x1*y1")
    with pytest.raises(DomainError):
        poly("x1") ** -1


def test_substitute_is_ring_morphism():
    p, q = poly("x1*y1 + 2*x2"), poly("x1 - y2 + 1")
    sub = {Y1: poly("x1 + 1"), X2: 3, Y2: Fraction(1, 2)}
    assert (p * q).substitute(sub) == p.substitute(sub) * q.substitute(sub)
    assert (p + q).substitute(sub) == p.substitute(sub) + q.substitute(sub)


def test_substitute_to_zero_kills_terms():
    p = poly("x1*u[x,y] + y1")
    assert p.substitute({UXY: 0}) == poly("y1")


def test_min_u_degree():
    assert poly("x1*x2").min_u_degree() == 0
    assert poly("x1*u[x,y] + u[0,x]^2").min_u_degree() == 1
    assert Polynomial.zero().min_u_degree() is None


# -- monomial order ----------------------------------------------------------------

def test_weight_dominates_then_revlex():
    w = MonomialOrder([X1, Y1, UXY], {X1: 1, Y1: 1, UXY: 3})
    big = Monomial.var(UXY)
    small = Monomial.from_pairs([(X1, 1), (Y1, 1)])
    assert w.greater(big, small)  # weight 3 beats weight 2


def test_graded_revlex_classic_sequence():
    # for x > y > z with unit weights: x^2 > xy > y^2 > xz > yz > z^2
    x, y, z = XVar(1, "x"), XVar(1, "y"), XVar(1, "z")
    order = MonomialOrder([x, y, z], {x: 1, y: 1, z: 1})
    seq = [
        Monomial.var(x, 2),
        Monomial.from_pairs([(x, 1), (y, 1)]),
        Monomial.var(y, 2),
        Monomial.from_pairs([(x, 1), (z, 1)]),
        Monomial.from_pairs([(y, 1), (z, 1)]),
        Monomial.var(z, 2),
    ]
    for m1, m2 in zip(seq, seq[1:]):
        assert order.greater(m1, m2)
        assert not order.greater(m2, m1)


def random_monomials(rng, variables, count, max_exp=3):
    out = []
    for _ in range(count):
        chosen = rng.sample(variables, rng.randint(0, len(variables)))
        out.append(Monomial.from_pairs((v, rng.randint(1, max_exp)) for v in chosen))
    return out


def test_int_key_sorts_like_weight_then_revlex_tuple():
    rng = random.Random(11)
    for _ in range(20):
        variables = POOL[:]
        rng.shuffle(variables)
        order = MonomialOrder(variables, {v: rng.randint(1, 4) for v in variables})
        monos = random_monomials(rng, variables, 60)
        assert sorted(monos, key=order.key) == sorted(
            monos, key=lambda m: tuple_order_key(order, m)
        )
        assert all(isinstance(order.key(m), int) for m in monos)
        # the key is injective on distinct monomials
        assert len({order.key(m) for m in monos}) == len(set(monos))


def test_mul_and_divides_match_exponent_arithmetic():
    rng = random.Random(13)
    monos = random_monomials(rng, POOL + [UVar(None, "y"), UVar("y", "x")], 40)
    for a in monos:
        for b in monos:
            prod = a.mul(b)
            assert prod == Monomial.from_pairs(list(a.pairs) + list(b.pairs))
            assert a.divides(b) == all(b.exponent(v) >= e for v, e in a.pairs)
            assert a.divides(prod) and prod.div(a) == b


def test_order_rejects_bad_weights_and_foreign_variables():
    with pytest.raises(DomainError):
        MonomialOrder([X1], {X1: 0})
    with pytest.raises(UnknownVariableError):
        ORDER.key(Monomial.var(XVar(1, "zz")))


def test_order_names_a_variable_without_a_weight():
    # as a non-positive weight does, not as a bare KeyError
    with pytest.raises(DomainError, match="^weight of x2 must be a positive integer$"):
        MonomialOrder([X1, X2], {X1: 1})


def test_order_rejects_a_duplicate_variable_and_a_digit_width_other_than_8_or_16():
    with pytest.raises(DomainError, match="^duplicate variable in order$"):
        MonomialOrder([X1, X2, X1], {X1: 1, X2: 1})
    with pytest.raises(DomainError, match="^exponent digits are 8 or 16 bits wide, got 12$"):
        MonomialOrder([X1], {X1: 1}, digit_bits=12)


def test_leading_term():
    p = poly("x1 + x1*y1 - 3*u[x,y]^3")
    mono, coeff = ORDER.leading_term(p)
    assert mono == Monomial.var(UXY, 3) and coeff == -3
    assert ORDER.leading_monomial(p) == mono
    terms = ORDER.sorted_terms(p)
    assert [m for m, _ in terms][0] == mono
    with pytest.raises(DomainError):
        ORDER.leading_term(Polynomial.zero())


# -- rendering and parsing -----------------------------------------------------------

def test_render_canonical_forms():
    assert render_polynomial(poly("x1 - y1"), ORDER) in ("x1 - y1", "-y1 + x1")
    # leading term first, unit coefficients dropped, fractions kept
    assert render_polynomial(poly("2*x1*y1 + x1"), ORDER) == "2*x1*y1 + x1"
    assert render_polynomial(poly("-x1*y1 + x1"), ORDER) == "-x1*y1 + x1"
    assert render_polynomial(poly("3/2*x1^2 - x1"), ORDER) == "3/2*x1^2 - x1"
    assert render_polynomial(Polynomial.zero(), ORDER) == "0"
    assert render_monomial(Monomial.from_pairs([(X1, 2), (UXY, 1)]), ORDER) == "x1^2*u[x,y]"


def test_repr_needs_no_order():
    # repr must work on any polynomial without a ring order in hand,
    # including multi-term ones mixing x- and u-variables
    assert repr(poly("x1 - y1 + u[x,y]")).count("+") == 2
    assert repr(Polynomial.zero()) == "0"
    assert "3" in repr(poly("3"))


def test_parse_errors():
    with pytest.raises(UnknownVariableError):
        poly("zz9")
    with pytest.raises(ParseError):
        poly("x1 + + y1")
    with pytest.raises(ParseError):
        poly("")


def test_json_shape():
    data = polynomial_to_json(poly("x1 - 1/2*y1"), ORDER)
    assert data[0]["coeff"] == "1/1"
    assert data[0]["monomial"] == {"x1": 1}
    assert data[1]["coeff"] == "-1/2"
    data = polynomial_to_json(poly("x1 - y1"), ORDER)
    assert [t["coeff"] for t in data] == ["1/1", "-1/1"]


PADS = ["\n", "\n  ", "\n      ", "\n\t"]


@pytest.mark.parametrize("text", [
    "x1 - 1/2*y1",  # a non-unit Fraction coefficient
    "-3*x1*y2 + 2*u[x,y]",  # negative and positive int coefficients
    "x1^2*u[0,x] - 7",  # an exponent above 1 and the constant monomial
    "5",  # the constant monomial alone
    "u[x,y]^3*u[0,x]*x2 - 2/3*u[0,x]^2*y1*y2 + x1 - y2^2",
])
@pytest.mark.parametrize("pad", PADS, ids=repr)
def test_packed_json_render_is_the_json_of_packed_to_json(text, pad):
    work = _pack_terms(poly(text), ORDER)
    assert render_packed_json(work, ORDER, pad) == json_text(packed_to_json(work, ORDER), pad)


def test_packed_json_render_of_the_constant_and_zero_polynomials():
    assert render_packed_json(_pack_terms(poly("-1/2"), ORDER), ORDER, "\n  ") == (
        '[\n    {\n      "coeff": "-1/2",\n      "monomial": {}\n    }\n  ]'
    )
    assert render_packed_json({}, ORDER) == "[]" == json_text(packed_to_json({}, ORDER))


def digit_render(work, order):
    """render_packed read digit by digit, from _factors: the oracle for the
    chunked reading."""
    if not work:
        return "0"
    out = []
    for i, n in enumerate(sorted(work)):
        c = work[n]
        mag = -c if c < 0 else c
        mono = "*".join(v if e == 1 else f"{v}^{e}" for v, e in _factors(n, order))
        body = mono if mag == 1 and mono else f"{mag}*{mono}" if mono else str(mag)
        sign = ("-" if c < 0 else "") if i == 0 else (" - " if c < 0 else " + ")
        out.append(sign + body)
    return "".join(out)


def assert_renders(work, order, pad):
    assert render_packed_json(work, order, pad) == json_text(packed_to_json(work, order), pad)
    assert render_packed(work, order) == digit_render(work, order)


def test_chunked_renders_of_every_generator_up_to_7_nodes():
    # the generators' factor texts are read chunk by chunk from the order's
    # tables, in the 8-bit orders `lp gens` writes with
    for tree in all_rooted_trees(7):
        ctx = DeformationContext(tree)
        for _, g in ctx.generators_packed():
            assert_renders(g, ctx.order, "\n      ")


def test_chunked_renders_of_16_bit_orders_and_higher_exponents():
    # squares and products of the generators in the 16-bit order, three
    # digits to a chunk, so that exponents above 1 are written
    for tree in all_rooted_trees(5):
        ctx = DeformationContext(tree, wide=True)
        order = ctx.order
        assert order.digit_bits == 16
        gens = [g for _, g in ctx.generators_packed()]
        for g, h in zip(gens, gens[1:] + gens[:1]):
            assert_renders(_mul(g, g, order), order, "\n  ")
            assert_renders(_mul(g, h, order), order, "\n")


def test_one_order_renders_at_two_pads():
    # an order keeps factor texts per pad: the second pad must not read the
    # first one's
    ctx = DeformationContext(parse_poset("a < b\na < c\nc < d\n"))
    order, gens = ctx.order, [g for _, g in ctx.generators_packed()]
    for pad in ("\n    ", "\n", "\n    "):
        for g in gens:
            assert render_packed_json(g, order, pad) == json_text(packed_to_json(g, order), pad)


# -- hypothesis round trips ------------------------------------------------------------

coeffs = st.fractions(
    min_value=-4, max_value=4, max_denominator=6
).filter(lambda c: c != 0)
monomials = st.dictionaries(
    st.sampled_from(POOL), st.integers(1, 3), max_size=3
).map(lambda d: Monomial.from_pairs(d.items()))
polys = st.lists(st.tuples(monomials, coeffs), max_size=5).map(Polynomial.from_terms)


@given(polys)
def test_render_parse_round_trip(p):
    assert parse_polynomial(render_polynomial(p, ORDER), POOL) == p


@given(polys, st.sampled_from(PADS))
def test_packed_json_render_matches_json_dumps(p, pad):
    work = _pack_terms(p, ORDER)
    text = render_packed_json(work, ORDER, pad)
    assert text == json_text(packed_to_json(work, ORDER), pad)
    if pad == "\n":
        assert text == json.dumps(polynomial_to_json(p, ORDER), indent=2)


@given(polys, polys)
def test_addition_subtraction_inverse(p, q):
    assert (p + q) - q == p


@given(polys, polys, polys)
def test_distributivity(p, q, r):
    assert p * (q + r) == p * q + p * r


@given(monomials, monomials)
def test_order_total_and_multiplicative(m1, m2):
    assert ORDER.greater(m1, m2) or ORDER.greater(m2, m1) or m1 == m2
    bump = Monomial.var(UROOT)
    if ORDER.greater(m1, m2):
        assert ORDER.greater(m1.mul(bump), m2.mul(bump))


# -- the packed key: hypothesis properties -------------------------------------------

@st.composite
def packed_orders(draw):
    """A MonomialOrder on 1..6 variables of POOL in random sequence, with
    random positive weights up to the packed bound."""
    variables = draw(st.permutations(POOL))[: draw(st.integers(1, len(POOL)))]
    weights = {v: draw(st.integers(1, MAX_KEY_WEIGHT)) for v in variables}
    return MonomialOrder(variables, weights)


def bounded_monomials(order, budget=MAX_KEY_WEIGHT):
    """Monomials of weight at most `budget` in `order`'s variables, with
    exponents up to 2**15 - 1 on weight-1 variables."""

    @st.composite
    def draw_monomial(draw):
        left, pairs = budget, []
        for v in draw(st.permutations(order.variables)):
            e = draw(st.integers(0, left // order.weights[v]))
            left -= e * order.weights[v]
            pairs.append((v, e))
        return Monomial.from_pairs(pairs)

    return draw_monomial()


def guard_divides(order, a, b):
    """The packed division test: ((P_b | G) - P_a) & G == G, with P the
    exponent digits (-key) mod B**n and G the guard bits."""
    pa, pb = -order.key(a) & order.mask, -order.key(b) & order.mask
    return ((pb | order.guard) - pa) & order.guard == order.guard


@given(st.data())
def test_packed_key_round_trips(data):
    order = data.draw(packed_orders())
    m = data.draw(bounded_monomials(order))
    assert order.monomial(order.key(m)) == m


@given(st.data())
def test_packed_key_is_linear(data):
    order = data.draw(packed_orders())
    m = data.draw(bounded_monomials(order))
    m2 = data.draw(bounded_monomials(order, MAX_KEY_WEIGHT - order.weight(m)))
    assert order.key(m.mul(m2)) == order.key(m) + order.key(m2)


@given(st.data())
def test_guard_test_is_divisibility(data):
    order = data.draw(packed_orders())
    a = data.draw(bounded_monomials(order))
    b = data.draw(bounded_monomials(order))
    assert guard_divides(order, a, b) == a.divides(b)
    # a product is divisible by both factors, whatever the digits
    c = data.draw(bounded_monomials(order, MAX_KEY_WEIGHT - order.weight(a)))
    assert guard_divides(order, a, a.mul(c)) and guard_divides(order, c, a.mul(c))


@given(st.data())
def test_packed_key_sorts_like_tuple_key(data):
    order = data.draw(packed_orders())
    monos = data.draw(st.lists(bounded_monomials(order), max_size=12))
    assert sorted(monos, key=order.key) == sorted(
        monos, key=lambda m: tuple_order_key(order, m)
    )


def test_packed_key_bound_is_the_weight():
    heavy = MonomialOrder([X1, Y1], {X1: 1, Y1: 2})
    for mono in (Monomial.var(X1, MAX_KEY_WEIGHT), Monomial.var(Y1, MAX_KEY_WEIGHT // 2),
                 Monomial.from_pairs([(X1, 1), (Y1, MAX_KEY_WEIGHT // 2)])):
        assert heavy.monomial(heavy.key(mono)) == mono
    for mono in (Monomial.var(X1, MAX_KEY_WEIGHT + 1), Monomial.var(Y1, MAX_KEY_WEIGHT // 2 + 1),
                 Monomial.from_pairs([(X1, 2), (Y1, MAX_KEY_WEIGHT // 2)]),
                 Monomial.var(X1, 1 << 16), Monomial.var(X1, 1 << 20)):
        with pytest.raises(ResourceLimitError):
            heavy.key(mono)


# -- polynomial matrices ------------------------------------------------------------------

def brute_determinant(rows):
    n = len(rows)
    total = Polynomial.zero()
    for perm in itertools.permutations(range(n)):
        sign = 1
        for i in range(n):
            for j in range(i + 1, n):
                if perm[i] > perm[j]:
                    sign = -sign
        prod = Polynomial.constant(sign)
        for i in range(n):
            prod = prod * rows[i][perm[i]]
        total = total + prod
    return total


entries = st.one_of(
    st.integers(-3, 3).map(Polynomial.constant),
    st.sampled_from(POOL).map(Polynomial.variable),
)


@given(st.lists(st.lists(entries, min_size=3, max_size=3), min_size=3, max_size=3))
def test_determinant_3x3_matches_permutation_sum(rows):
    assert PolyMatrix(rows).determinant() == brute_determinant(rows)


def test_determinant_4x4_matches_permutation_sum():
    rows = [
        [poly("x1"), poly("1"), poly("0"), poly("2")],
        [poly("0"), poly("y1 - 1"), poly("x2"), poly("1")],
        [poly("u[x,y]"), poly("0"), poly("3"), poly("y2")],
        [poly("1"), poly("x1*y1"), poly("0"), poly("1")],
    ]
    assert PolyMatrix(rows).determinant() == brute_determinant(rows)


def test_minor_det_is_submatrix_determinant():
    rows = [[poly(t) for t in row] for row in
            [["x1", "y1", "1"], ["2", "x2", "0"], ["u[x,y]", "1", "y2"]]]
    m = PolyMatrix(rows)
    sub = PolyMatrix([[rows[0][0], rows[0][2]], [rows[2][0], rows[2][2]]])
    assert m.minor_det(delete_rows=(1,), delete_cols=(1,)) == sub.determinant()
    assert m.minor_det() == m.determinant()


def test_matrix_validation():
    with pytest.raises(ShapeError):
        PolyMatrix([[Polynomial.one()], [Polynomial.one(), Polynomial.one()]])
    with pytest.raises(NonSquareError):
        PolyMatrix([[Polynomial.one(), Polynomial.one()]]).determinant()
    square = PolyMatrix([[Polynomial.one(), Polynomial.one()],
                         [Polynomial.one(), Polynomial.one()]])
    with pytest.raises(MinorIndexError):
        square.minor_det(delete_rows=(5,), delete_cols=(0,))
    with pytest.raises(MinorIndexError):
        square.minor_det(delete_rows=(0, 0), delete_cols=(0, 1))
