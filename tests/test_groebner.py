import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from lpdeform import (
    DomainError,
    all_rooted_trees,
    GroebnerBasis,
    Monomial,
    MonomialOrder,
    Polynomial,
    ResourceLimitError,
    UnknownVariableError,
    XVar,
    buchberger,
    j_ideal_generators,
    monomial_order_for,
    normal_form,
    parse_polynomial,
    s_polynomial,
)

from lpdeform import groebner
from lpdeform.polynomials import MAX_KEY_WEIGHT, key_bound_error

from conftest import chain_tree, sign_flip_mutants, star_tree, tuple_order_key

X, Y = XVar(1, "x"), XVar(1, "y")
VARS = [X, Y]
ORDER = MonomialOrder(VARS, {X: 1, Y: 1})


def poly(text):
    return parse_polynomial(text, VARS)


def gb(*texts, **kw):
    return buchberger([poly(t) for t in texts], ORDER, **kw)


# -- hand-checked oracles -----------------------------------------------------

def test_principal_ideal_collapses():
    # x^3 - x = x * (x^2 - 1), so the reduced basis is the single monic gen
    basis = gb("x1^2 - 1", "x1^3 - x1")
    assert list(basis) == [poly("x1^2 - 1")]


def test_classic_two_variable_basis():
    # S(xy - 1, y^2 - 1) = x - y; the reduced basis keeps x - y and y^2 - 1
    basis = gb("x1*y1 - 1", "y1^2 - 1")
    assert set(basis) == {poly("x1 - y1"), poly("y1^2 - 1")}
    assert basis.contains(poly("x1^2 - 1"))
    assert not basis.contains(poly("x1"))


def test_s_polynomial_cancels_leads():
    f, g = poly("x1*y1 - 1"), poly("y1^2 - 1")
    s = s_polynomial(f, g, ORDER)
    assert s == poly("x1 - y1") or s == poly("y1 - x1")


def test_s_polynomial_of_non_monic_leads():
    # leads 2*x*y and 3*x^2, lcm x^2*y: each side is divided by its leading
    # coefficient, x*(2*x*y - y^2)/2 - y*(3*x^2 - 1)/3
    f, g = poly("2*x1*y1 - y1^2"), poly("3*x1^2 - 1")
    assert s_polynomial(f, g, ORDER) == poly("-1/2*x1*y1^2 + 1/3*y1")


def test_basis_of_unit_ideal():
    basis = gb("x1", "x1 - 1")
    assert list(basis) == [Polynomial.one()]
    assert basis.contains(poly("y1^5"))


def test_zero_generators_rejected():
    with pytest.raises(DomainError):
        buchberger([Polynomial.zero()], ORDER)


def test_zero_gens_are_skipped_not_fatal():
    basis = buchberger([Polynomial.zero(), poly("x1 - 1")], ORDER)
    assert list(basis) == [poly("x1 - 1")]


# -- normal forms ---------------------------------------------------------------

def test_normal_form_is_canonical_projection():
    basis = gb("x1*y1 - 1", "y1^2 - 1")
    f = poly("x1^2*y1 + x1")
    nf = basis.normal_form(f)
    assert basis.normal_form(nf) == nf
    assert basis.contains(f - nf)
    # linearity
    g = poly("y1^3 - 2")
    assert basis.normal_form(f + g) == basis.normal_form(f) + basis.normal_form(g)
    assert normal_form(f, basis) == nf


def test_membership_is_multiplicative():
    basis = gb("x1*y1 - 1", "y1^2 - 1")
    member = poly("x1 - y1")
    for other in [poly("x1 + 3"), poly("x1*y1^2 - 1/2"), poly("7")]:
        assert basis.normal_form(member * other).is_zero


def test_remainder_has_no_divisible_monomial():
    basis = gb("x1*y1 - 1", "y1^2 - 1")
    nf = basis.normal_form(poly("x1^3*y1^3 + x1*y1 + y1^2 + 5"))
    leads = basis.leading_monomials()
    for mono in nf.items():
        assert not any(lm.divides(mono[0]) for lm in leads)


def test_remainder_coefficients_are_canonical():
    basis = GroebnerBasis([poly("x1 - 1/2*y1")], ORDER)
    nf = basis.normal_form(poly("2*x1"))
    assert nf == poly("y1")
    assert [type(c) for _, c in nf.items()] == [int]
    nf = basis.normal_form(poly("x1"))
    assert nf == poly("1/2*y1")
    assert [(type(c), c) for _, c in nf.items()] == [(Fraction, Fraction(1, 2))]


def test_normal_form_weight_bound():
    # a packed key holds weights up to 2**15 - 1; a division step never
    # raises weight, so the input is where the bound is checked
    basis = GroebnerBasis([poly("y1 - 1")], ORDER)
    assert basis.normal_form(poly(f"y1^{MAX_KEY_WEIGHT} + x1")) == poly("x1 + 1")
    with pytest.raises(ResourceLimitError):
        basis.normal_form(poly(f"y1^{MAX_KEY_WEIGHT + 1}"))
    with pytest.raises(ResourceLimitError):
        basis.normal_form(poly("y1^40000"))


def test_normal_form_rejects_foreign_variables():
    basis = GroebnerBasis([poly("x1*y1 - 1")], ORDER)
    z = Polynomial.variable(XVar(1, "z"))
    with pytest.raises(UnknownVariableError):
        basis.normal_form(z)
    with pytest.raises(UnknownVariableError):
        normal_form(poly("x1*y1") + z, basis)


# -- packed arithmetic: hypothesis properties ----------------------------------------

Z = XVar(1, "z")
SMALL = MonomialOrder([X, Y, Z], {X: 1, Y: 2, Z: 1})
small_monomials = st.dictionaries(
    st.sampled_from([X, Y, Z]), st.integers(1, 3), max_size=3
).map(lambda d: Monomial.from_pairs(d.items()))
small_coeffs = st.one_of(
    st.integers(-5, 5), st.fractions(min_value=-3, max_value=3, max_denominator=4)
)
small_polys = st.lists(st.tuples(small_monomials, small_coeffs), max_size=6).map(
    Polynomial.from_terms
)


def packed(f):
    return groebner._pack_terms(f, SMALL)


def canonical(f):
    """Every coefficient is an int exactly when it is integral."""
    return all((type(c) is int) == (Fraction(c).denominator == 1) for _, c in f.items())


@given(small_polys, small_polys)
def test_packed_ring_operations_match_polynomials(p, q):
    assert groebner._mul(packed(p), packed(q), SMALL) == packed(p * q)
    assert groebner._iadd(packed(p), packed(q)) == packed(p + q)
    assert groebner._iadd(packed(p), packed(q), -1) == packed(p - q)


def test_packed_operations_drop_cancelled_terms():
    # (x + y)(x - y): the two x*y terms cancel inside the product
    f, g = poly("x1 + y1"), poly("x1 - y1")
    assert groebner._mul(packed(f), packed(g), SMALL) == packed(poly("x1^2 - y1^2"))
    assert groebner._iadd(packed(f), packed(f), -1) == groebner._iadd(packed(f), packed(-f)) == {}


@given(small_polys, small_polys)
def test_packed_round_trip_keeps_coefficients_canonical(p, q):
    assert groebner._unpack(packed(p), SMALL) == p
    # packed sums and products may hold integral Fractions; unpacking
    # makes them ints again
    for f, want in (
        (groebner._iadd(packed(p), packed(q)), p + q),
        (groebner._iadd(packed(p), packed(q), -1), p - q),
        (groebner._mul(packed(p), packed(q), SMALL), p * q),
    ):
        got = groebner._unpack(f, SMALL)
        assert got == want and canonical(got)


def test_unpack_makes_integral_fractions_ints():
    m = Monomial.from_pairs([(X, 1), (Z, 2)])
    got = groebner._unpack({-SMALL.key(m): Fraction(4, 2)}, SMALL)
    assert got.terms == {m: 2} and type(got.terms[m]) is int


@st.composite
def weight_one_monomial(draw, weight):
    """A monomial in X and Z (both of weight 1) of the given weight."""
    a = draw(st.integers(0, weight))
    return Monomial.from_pairs([(X, a), (Z, weight - a)])


@given(st.data())
def test_packed_product_past_the_key_bound_raises_the_key_error(data):
    w1 = data.draw(st.integers(1, MAX_KEY_WEIGHT))
    w2 = data.draw(st.integers(MAX_KEY_WEIGHT + 1 - w1, MAX_KEY_WEIGHT))
    m1, m2 = data.draw(weight_one_monomial(w1)), data.draw(weight_one_monomial(w2))
    with pytest.raises(ResourceLimitError) as key_error:
        SMALL.key(m1.mul(m2))
    message = f"^{re.escape(str(key_error.value))}$"
    term1, term2 = packed(Polynomial.term(m1)), packed(Polynomial.term(m2))
    with pytest.raises(ResourceLimitError, match=message):
        groebner._mul(term1, term2, SMALL)
    # and in a product of sums, where the heaviest term is one of several
    sum1 = packed(Polynomial.term(m1) + 1)
    sum2 = packed(Polynomial.term(m2) - 1)
    with pytest.raises(ResourceLimitError, match=message):
        groebner._mul(sum1, sum2, SMALL)


def test_packed_product_at_the_key_bound_is_exact():
    m1, m2 = Monomial.var(X, MAX_KEY_WEIGHT - 5), Monomial.from_pairs([(X, 2), (Z, 3)])
    f, g = Polynomial.term(m1) - 1, Polynomial.term(m2) + Polynomial.variable(Y)
    product = groebner._mul(packed(f), packed(g), SMALL)
    assert groebner._unpack(product, SMALL) == f * g



@st.composite
def heavy_monomial(draw):
    """A monomial in X, Y and Z within the key bound, its weight drawn near
    0, half the bound or the bound."""
    weight = draw(st.one_of(
        st.integers(0, 20),
        st.integers(MAX_KEY_WEIGHT // 2 - 20, MAX_KEY_WEIGHT // 2 + 20),
        st.integers(MAX_KEY_WEIGHT - 20, MAX_KEY_WEIGHT),
    ))
    y = draw(st.integers(0, weight // 2))
    x = draw(st.integers(0, weight - 2 * y))
    return Monomial.from_pairs([(X, x), (Y, y), (Z, weight - 2 * y - x)])


heavy_polys = st.lists(
    st.tuples(heavy_monomial(), st.integers(-3, 3).filter(bool)), min_size=1, max_size=4
).map(Polynomial.from_terms).filter(bool)


@given(heavy_polys, heavy_polys)
def test_check_product_reads_the_products_heaviest_term(f, g):
    # _check_product reads only the leads; the product formed without any
    # check says when a term passes the bound, and which weight it has
    pf, pg = packed(f), packed(g)
    product = groebner._addmul({}, pf, pg)
    heaviest = max(SMALL.weight(SMALL.monomial(-n)) for n in product)
    if heaviest <= MAX_KEY_WEIGHT:
        groebner._check_product(pf, pg, SMALL)
        assert groebner._mul(pf, pg, SMALL) == product
        return
    message = f"^{re.escape(str(key_bound_error(heaviest)))}$"
    for check in (groebner._check_product, groebner._mul):
        with pytest.raises(ResourceLimitError, match=message):
            check(pf, pg, SMALL)


# -- the division kernel against a textbook oracle ----------------------------------

def textbook_remainder(f, basis, order):
    """Division remainder by the monic polynomials of `basis`: repeatedly
    take the largest remaining term by a scan, divide by the first
    generator whose leading monomial divides it, all in Fraction."""
    leads = [(order.leading_monomial(g), g) for g in basis]
    work = dict(f.terms)
    remainder = {}
    while work:
        m = max(work, key=lambda t: tuple_order_key(order, t))
        c = work[m]
        divisor = next((lg for lg in leads if lg[0].divides(m)), None)
        if divisor is None:
            remainder[m] = c
            del work[m]
            continue
        lm, g = divisor
        q = m.div(lm)
        for gm, gc in g.terms.items():
            t = gm.mul(q)
            s = work.get(t, Fraction(0)) - c * gc
            if s:
                work[t] = s
            else:
                work.pop(t)
    return Polynomial(remainder)


def random_poly(rng, variables, n_terms, max_exp, denominators=(1, 2, 3, 5)):
    terms = []
    for _ in range(n_terms):
        chosen = rng.sample(variables, rng.randint(0, len(variables)))
        mono = Monomial.from_pairs((v, rng.randint(0, max_exp)) for v in chosen)
        num = rng.choice([n for n in range(-6, 7) if n])
        terms.append((mono, Fraction(num, rng.choice(denominators))))
    return Polynomial.from_terms(terms)


def assert_matches_oracle(basis, f, integral=False):
    nf = basis.normal_form(f)
    assert nf == textbook_remainder(f, basis, basis.order)
    assert all(type(c) in (int, Fraction) for _, c in nf.items())
    if integral:
        assert all(type(c) is int for _, c in nf.items())


def test_normal_form_matches_oracle_on_random_bases():
    Z = XVar(1, "z")
    variables = [X, Y, Z]
    rng = random.Random(5)
    for _ in range(12):
        order = MonomialOrder(variables, {v: rng.randint(1, 2) for v in variables})
        gens = [random_poly(rng, variables, 3, 2) for _ in range(2)]
        basis = buchberger(gens, order, max_pairs=200)
        for _ in range(6):
            assert_matches_oracle(basis, random_poly(rng, variables, 6, 4))


@pytest.mark.parametrize("tree", [chain_tree(3), star_tree(2)], ids=["chain3", "star2"])
def test_normal_form_matches_oracle_on_deformed_generators(tree):
    order = monomial_order_for(tree)
    basis = GroebnerBasis([g for _, g in j_ideal_generators(tree)], order)
    rng = random.Random(6)
    for _ in range(10):
        # random polynomials, and random Fraction combinations of generators
        f = random_poly(rng, list(order.variables), 5, 2)
        member = Polynomial.zero()
        for g in rng.sample(basis.polys, 3):
            member = member + g * random_poly(rng, list(order.variables), 2, 1)
        assert_matches_oracle(basis, f)
        assert_matches_oracle(basis, f + member)
        assert basis.normal_form(member).is_zero
    # integer input to a basis with coefficients +-1 stays int throughout
    assert all(type(c) is int for g in basis for _, c in g.items())
    rng = random.Random(7)
    for _ in range(10):
        f = random_poly(rng, list(order.variables), 5, 2, denominators=(1,))
        g = rng.choice(basis.polys) * random_poly(
            rng, list(order.variables), 2, 1, denominators=(1,))
        assert_matches_oracle(basis, f, integral=True)
        assert_matches_oracle(basis, f + g, integral=True)


def random_bases():
    """(gens, order) pairs drawn like the bases of the oracle test above."""
    variables = [X, Y, XVar(1, "z")]
    rng = random.Random(8)
    for _ in range(12):
        order = MonomialOrder(variables, {v: rng.randint(1, 2) for v in variables})
        yield [random_poly(rng, variables, 3, 2) for _ in range(2)], order


def record_pairs(monkeypatch):
    """Patch groebner.s_polynomial and groebner._divide to record, for each
    S-pair whose remainder Buchberger adds to the basis, (lcm of the leads,
    S-polynomial, remainder)."""
    pairs = []
    s_poly, divide = groebner.s_polynomial, groebner._divide

    def recording_s_polynomial(f, g, order):
        lcm = order.leading_monomial(f).lcm(order.leading_monomial(g))
        pairs.append([lcm, s_poly(f, g, order), None])
        return pairs[-1][1]

    def recording_divide(f, leads, order):
        r = divide(f, leads, order)
        if pairs and pairs[-1][1] is f:
            pairs[-1][2] = r
        return r

    monkeypatch.setattr(groebner, "s_polynomial", recording_s_polynomial)
    monkeypatch.setattr(groebner, "_divide", recording_divide)
    return pairs


def processed_lcms(gens, order, monkeypatch):
    """The lcms of the S-pairs buchberger(gens, order) processes: the
    non-coprime pairs among every element its loop appended, the nonzero
    generators and the remainders added to the basis."""
    with monkeypatch.context() as patch:
        pairs = record_pairs(patch)
        buchberger(gens, order, max_pairs=200)
    elements = [g for g in gens if not g.is_zero] + [r for _, _, r in pairs]
    leads = [order.leading_monomial(g) for g in elements]
    return [a.lcm(b) for i, a in enumerate(leads) for b in leads[:i] if a.lcm(b) != a.mul(b)]


def test_weight_budget_is_the_largest_processed_lcm(monkeypatch):
    cases = [([poly("x1*y1 - 1"), poly("y1^2 - 1")], ORDER), *random_bases()]
    budgeted = 0
    for gens, order in cases:
        lcms = processed_lcms(gens, order, monkeypatch)
        if not lcms:
            continue  # every pair had coprime leads: nothing to budget
        budgeted += 1
        basis = buchberger(gens, order, max_pairs=200)
        w = max(order.weight(lcm) for lcm in lcms)
        assert buchberger(gens, order, max_pairs=200, max_weight=w) == basis
        with pytest.raises(ResourceLimitError):
            buchberger(gens, order, max_pairs=200, max_weight=w - 1)
    assert budgeted == 10  # of 13: not vacuous


def test_reduction_stays_within_the_lcm_weight(monkeypatch):
    # the fact the per-pair budget rests on: in a weighted-degree order,
    # no term of an S-polynomial or of its remainder outweighs the lcm;
    # seen on the pairs whose remainder joins the basis
    recorded = 0
    for gens, order in random_bases():
        with monkeypatch.context() as patch:
            pairs = record_pairs(patch)
            buchberger(gens, order, max_pairs=200)
        recorded += bool(pairs)
        for lcm, s, r in pairs:
            bound = order.weight(lcm)
            assert all(order.weight(m) <= bound for m in s.terms)
            assert all(order.weight(m) <= bound for m in r.terms)
    assert recorded == 9  # of 12; the other 3 have only coprime pairs


# -- determinism and budgets ------------------------------------------------------

def test_reduced_basis_independent_of_input_order():
    texts = ["x1*y1 - 1", "y1^2 - 1", "x1^2 - y1*x1"]
    polys = [poly(t) for t in texts]
    reference = buchberger(polys, ORDER)
    rng = random.Random(7)
    for _ in range(5):
        shuffled = polys[:]
        rng.shuffle(shuffled)
        assert buchberger(shuffled, ORDER) == reference
    # scaling the generators changes nothing either
    scaled = [p * 3 for p in polys]
    assert buchberger(scaled, ORDER) == reference


def test_pair_budget():
    with pytest.raises(ResourceLimitError):
        gb("x1*y1 - 1", "y1^2 - 1", max_pairs=0)


def test_weight_budget():
    with pytest.raises(ResourceLimitError):
        gb("x1*y1 - 1", "y1^2 - 1", max_weight=1)


@pytest.mark.parametrize(
    "texts, budget, value",
    [
        (("x1*y1 - 1", "y1^2 - 1"), "max_weight", -1),  # read as a tripped budget
        (("x1*y1 - 1", "y1^2 - 1"), "max_pairs", -1),  # read as a tripped budget
        (("x1",), "max_pairs", "x"),  # no pair to compare it with: a basis came back
        (("x1*y1 - 1", "y1^2 - 1"), "max_pairs", 2.0),
        (("x1*y1 - 1", "y1^2 - 1"), "max_weight", True),
    ],
    ids=["weight-negative", "pairs-negative", "pairs-str", "pairs-float", "weight-bool"],
)
def test_buchberger_rejects_a_budget_that_is_not_a_nonnegative_int(texts, budget, value):
    with pytest.raises(DomainError, match=f"^{budget} must be a nonnegative int, got {re.escape(repr(value))}$"):
        gb(*texts, **{budget: value})


def test_budget_zero_is_a_budget():
    # the budgets trip at the first charge; a basis with no pair needs none
    assert list(gb("x1", max_pairs=0, max_weight=0)) == [poly("x1")]
    with pytest.raises(ResourceLimitError, match="S-pair lcm weight exceeded 0"):
        gb("x1*y1 - 1", "y1^2 - 1", max_weight=0)


def test_coprime_leads_past_the_key_bound_are_their_own_basis():
    # a coprime pair is never formed, so their product's weight, 40000, is
    # never met
    basis = gb("x1^20000", "y1^20000")
    assert set(basis.leading_monomials()) == {Monomial.var(X, 20000), Monomial.var(Y, 20000)}


def test_a_non_coprime_lcm_past_the_key_bound_raises():
    message = f"^monomial weight 40000 exceeds {MAX_KEY_WEIGHT}, the packed-key bound$"
    with pytest.raises(ResourceLimitError, match=message):
        gb("x1^20000*y1", "x1*y1^20000")


NARROW = MonomialOrder(VARS, {X: 1, Y: 1}, digit_bits=8)


def basis_or_error(gens, order, **budgets):
    try:
        return buchberger(gens, order, **budgets).polys
    except ResourceLimitError as exc:
        return str(exc)


@pytest.mark.parametrize(
    "texts, weight",
    [
        (("x1^70*y1 - 1", "x1*y1^70 - x1"), 140),  # the first lcm
        (("x1^17*y1^8 - y1^28", "x1^32*y1^49 - x1^30"), 132),  # 81, then a grown pair's
        (("x1^130 - y1", "x1*y1 - 1"), 130),  # a generator
        (("x1*y1 - 1", "y1^2 - 1"), None),
    ],
    ids=["lcm", "grown-lcm", "generator", "within"],
)
def test_buchberger_past_the_narrow_key_bound_raises(texts, weight):
    # an 8-bit order holds weight 127 and keeps its width: past that
    # buchberger raises the key bound's error, and within it the basis and
    # budget trips are the 16-bit order's
    polys = [poly(t) for t in texts]
    assert NARROW.max_weight == 127
    if weight is not None:
        message = f"^monomial weight {weight} exceeds 127, the packed-key bound$"
        with pytest.raises(ResourceLimitError, match=message):
            buchberger(polys, NARROW)
        return
    basis = buchberger(polys, NARROW)
    assert basis.polys == buchberger(polys, ORDER).polys
    assert basis.order is NARROW
    packed = [groebner._pack_terms(f, NARROW) for f in polys]
    entries = [groebner._entry(f, NARROW) for f in packed]
    assert buchberger(packed, NARROW).polys == buchberger(entries, NARROW).polys == basis.polys
    for budget in range(4):
        for name in ("max_pairs", "max_weight"):
            assert basis_or_error(polys, NARROW, **{name: budget}) == \
                basis_or_error(polys, ORDER, **{name: budget})
    assert basis_or_error(polys, NARROW, max_weight=139) == basis_or_error(polys, ORDER, max_weight=139)


# -- the deformed generators are already a reduced basis ----------------------------

@pytest.mark.parametrize("tree", [chain_tree(3), star_tree(2), star_tree(3)],
                         ids=["chain3", "star2", "star3"])
def test_deformed_generators_form_reduced_basis(tree):
    order = monomial_order_for(tree)
    gens = [g for _, g in j_ideal_generators(tree)]
    basis = buchberger(gens, order)
    assert len(basis) == len(gens)
    assert set(basis) == set(gens)
    # and the leading monomials are exactly the letterplace quadrics
    from lpdeform import letterplace_generators
    assert set(basis.leading_monomials()) == {
        m for _, m in letterplace_generators(tree)
    }


def test_groebner_basis_wrapper_normalizes():
    raw = [poly("2*x1 - 2"), poly("3*y1^2 - 3")]
    wrapped = GroebnerBasis(raw, ORDER)
    assert wrapped.normal_form(poly("x1 - 1")).is_zero
    assert wrapped == GroebnerBasis([poly("x1 - 1"), poly("y1^2 - 1")], ORDER)


# -- the certificate: generators that already are the reduced basis --------------------

def monic_by_lead(gens, order):
    """The monic nonzero generators, sorted by leading monomial."""
    monic = [g * (Fraction(1) / order.leading_term(g)[1]) for g in gens if not g.is_zero]
    return sorted(monic, key=lambda g: order.key(order.leading_monomial(g)))


def spy_s_polynomial(monkeypatch):
    calls = []
    s_poly = groebner.s_polynomial
    monkeypatch.setattr(groebner, "s_polynomial", lambda *a: calls.append(a) or s_poly(*a))
    return calls


def test_deformed_generators_are_certified_on_every_tree_to_six(monkeypatch):
    calls = spy_s_polynomial(monkeypatch)
    trees = list(all_rooted_trees(6))
    assert len(trees) == 37
    for tree in trees:
        order = monomial_order_for(tree)
        gens = [g for _, g in j_ideal_generators(tree)]
        calls.clear()
        basis = buchberger(gens, order)
        assert calls == []  # every S-pair reduced to zero: the basis never grew
        assert list(basis) == monic_by_lead(gens, order)
        # the certificate's facts restated with public calls only: every
        # S-polynomial reduces to zero, and no lead divides another lead
        # or a tail term
        for i, f in enumerate(gens):
            for g in gens[:i]:
                assert basis.normal_form(s_polynomial(f, g, order)).is_zero
        leads = basis.leading_monomials()
        assert len(set(leads)) == len(leads)
        for f, lead in zip(basis, leads):
            assert not any(m.divides(lead) for m in leads if m != lead)
            assert not any(m.divides(t) for m in leads for t in f.terms if t != lead)


def test_reduced_bases_come_back_unchanged():
    rng = random.Random(9)
    for gens, order in random_bases():
        basis = buchberger(gens, order, max_pairs=200)
        polys = list(basis)
        for _ in range(3):
            rng.shuffle(polys)
            assert buchberger(polys, order) == basis
            scaled = [p * Fraction(rng.choice([-3, -1, 2, 5]), rng.choice([1, 2, 7])) for p in polys]
            assert buchberger(scaled, order) == basis
        # Groebner bases of the same ideal that are not reduced: a
        # redundant multiple, and the largest element plus the smallest,
        # whose lead then sits in the tail
        for p in polys:
            assert buchberger(polys + [p * poly("x1*y1 + 1")], order) == basis
        if len(basis) > 1:
            first, *middle, last = basis
            assert buchberger([first, *middle, last + first * 3], order) == basis


def test_sign_flip_mutants_add_s_pair_remainders_to_the_basis(monkeypatch):
    # s_polynomial runs only for a pair whose packed remainder is nonzero,
    # to make the element the basis grows by
    calls = spy_s_polynomial(monkeypatch)
    grown = 0
    for key, tree, gens in sign_flip_mutants(4):
        polys = [g for _, g in gens]
        if len(polys) == 1:
            continue  # one generator is its own reduced basis
        calls.clear()
        basis = buchberger(polys, monomial_order_for(tree))
        assert calls, key
        grown += list(basis) != monic_by_lead(polys, monomial_order_for(tree))
    assert grown == 48


def test_buchberger_takes_polynomials_packed_polynomials_and_entries_alike():
    # the packing step leaves a packed entry as it is, and the loop does not
    # modify the list it is handed
    for key, tree, gens in sign_flip_mutants(4):
        order = monomial_order_for(tree)
        polys = [g for _, g in gens]
        basis = buchberger(polys, order)
        entries = [groebner._entry(groebner._pack_terms(g, order), order) for g in polys]
        handed = list(entries)
        assert buchberger(entries, order)._leads == basis._leads, key
        assert entries == handed
        mixed = [e if k % 3 == 0 else g if k % 3 == 1 else groebner._pack_terms(g, order)
                 for k, (e, g) in enumerate(zip(entries, polys))]
        assert buchberger(mixed + [Polynomial.zero(), {}], order)._leads == basis._leads, key


def test_budgets_trip_at_the_last_processed_pair_of_sign_flip_mutants(monkeypatch):
    mutants = list(sign_flip_mutants(4))
    budgeted = 0
    for key, tree, gens in mutants:
        order = monomial_order_for(tree)
        polys = [g for _, g in gens]
        lcms = processed_lcms(polys, order, monkeypatch)
        if not lcms:
            continue  # one generator: no pair to process
        budgeted += 1
        basis = buchberger(polys, order)
        n, w = len(lcms), max(order.weight(l) for l in lcms)
        assert buchberger(polys, order, max_pairs=n) == basis, key
        with pytest.raises(ResourceLimitError, match=f"^S-pair budget of {n - 1} exceeded$"):
            buchberger(polys, order, max_pairs=n - 1)
        assert buchberger(polys, order, max_weight=w) == basis, key
        with pytest.raises(ResourceLimitError, match=f"^S-pair lcm weight exceeded {w - 1}$"):
            buchberger(polys, order, max_weight=w - 1)
    assert len(mutants) == 49 and budgeted == 48


def non_coprime_lcms(basis):
    leads = basis.leading_monomials()
    return [a.lcm(b) for i, a in enumerate(leads) for b in leads[:i] if a.lcm(b) != a.mul(b)]


@pytest.mark.parametrize("tree", [chain_tree(4), star_tree(3)], ids=["chain4", "star3"])
def test_certificate_charges_every_non_coprime_pair(tree):
    order = monomial_order_for(tree)
    gens = [g for _, g in j_ideal_generators(tree)]
    basis = buchberger(gens, order)
    lcms = non_coprime_lcms(basis)
    n, w = len(lcms), max(order.weight(l) for l in lcms)
    assert n > 0
    assert buchberger(gens, order, max_pairs=n) == basis
    with pytest.raises(ResourceLimitError, match=f"^S-pair budget of {n - 1} exceeded$"):
        buchberger(gens, order, max_pairs=n - 1)
    assert buchberger(gens, order, max_weight=w) == basis
    with pytest.raises(ResourceLimitError, match=f"^S-pair lcm weight exceeded {w - 1}$"):
        buchberger(gens, order, max_weight=w - 1)
