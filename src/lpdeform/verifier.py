"""Machine checks for the structural claims about J(2,P).

A Verifier owns one rooted tree, its deformation context, the weighted
monomial order, and a lazily built Groebner basis of J that every
membership test shares.

Every check is a name paired with a lazy stream of instances; the table
below lists them.  The stream yields one item per instance, None when the
instance holds and a witness string when it does not.  One runner, Verifier._run, times the
stream, counts the instances it draws, stops at the first witness (so a
FAIL does no further polynomial work) and builds the CheckReport carrying
the verdict, the count, the witness and the wall time.  Instances are
tested through three helpers: _member (normal form modulo J is zero),
_degree (a degree law) and _lift_fault (a relation lift's factorization
and u-positivity).

The flatness instances (flat-basic through the relation lifts) are built
and tested in the division kernel's packed form, a dict minus order key ->
coefficient (see groebner.py): each building block (S_p, T, T_c, the
sibling entries, the generalized minors, R, the generators and the
x-variables) is packed once per check through a memo that _run drops when
the check ends (R(a,b) and the generators, which a check reuses little, are
packed at use), a product of monomials is one int addition, and _member
reduces the packed instance with groebner._reduce.  A remainder is
unpacked only to render its witness.  _lift_fault compares a lift with its
factorization as packed dicts and reads u-positivity off the exponent
digits of the u-parameters.

The checks, in run_full order:

  specialization      u -> 0 sends each g(p,q) to exactly p1*q2
  homogeneity         every g(p,q) is multigraded of degree p1 + q2
  deg-T, deg-S,       the T / S / ST / D degree laws, element by element
  deg-ST, deg-D
  flat-basic          S_p(b)c2 - b2 S_p(c) lies in J        (all p<=b, p<=c)
  lemma-ts            S_pT_p(q) b2 - T_p(q) S_p(b) lies in J
  lemma-stt           S_pT_p(q) T_p(r) - T_p(q) S_pT_p(r) lies in J
  lemma-sum-dt1..3    the child-sum minor identities lie in J
  flat-p2             a1 T(b) - T(a) R(a,b) b1 lies in J    (all a<=b)
  relation-lift-x2,   the two Koszul-type relation lifts: exact
  relation-lift-x1    factorization and u-positivity; membership holds by
                      construction, is buchberger's S-pair reduction, and
                      is not re-checked (see check_relation_lifts)
  hilbert             truncated weighted Hilbert functions of J and L agree

lemma-sum-dt2 vanishes in B itself, before any reduction: T_a(x) =
-a2 u_{a,x} is a2 times S_aT_a(x), the column-0 entry of M(a) in row x, so
the child sum over x is a2 times the Laplace expansion, along the added
column, of M(a) without columns ib, ic and with column 0 added again: a
matrix with a repeated column.  The check still fails when a generalized
minor is wrong.

The bridging identity used by the flatness induction (parent step composed
with sibling steps) is exactly a combination of the child-sum identities
and the defining recursion, so it carries no separate check; lemma-sum-*
and flat-basic are its content.

Verifiers accept an override generator list so mutated ideals can be
exercised: checks that quote g(p,q) pull from the override while the
recursion side is recomputed, so a corrupted generator is caught.
"""

from __future__ import annotations

import time
from itertools import combinations, permutations, product

from .deformation import DeformationContext
from .grading import (
    MultiDegree,
    hat_degree,
    homogeneous_degree,
    monomial_order_for,
    truncated_hilbert,
)
from .groebner import (
    DEFAULT_MAX_PAIRS,
    DEFAULT_MAX_WEIGHT,
    _add,
    _mul,
    _pack_terms,
    _reduce,
    _sub,
    _unpack,
    buchberger,
)
from .errors import DomainError, NotHomogeneousError, ResourceLimitError
from .letterplace import letterplace_generators
from .polynomials import (
    DIGIT_BITS,
    DIGIT_MASK,
    MAX_KEY_WEIGHT,
    Polynomial,
    UVar,
    XVar,
    render_polynomial,
)
from .posets import as_rooted_tree


class CheckReport:
    """Outcome of one named check over all its instances."""

    __slots__ = ("name", "passed", "params", "witness", "elapsed")

    def __init__(self, name, passed, params, witness=None, elapsed=0.0):
        self.name = name
        self.passed = passed
        self.params = dict(params)
        self.witness = witness
        self.elapsed = elapsed

    def line(self):
        verdict = "PASS" if self.passed else "FAIL"
        bits = " ".join(f"{k}={v}" for k, v in self.params.items())
        head = f"{verdict} {self.name}" + (f" {bits}" if bits else "")
        tail = f" ({self.elapsed:.3f}s)"
        if self.witness and not self.passed:
            return f"{head}{tail}\n     witness: {self.witness}"
        return head + tail

    def to_json_dict(self):
        return {
            "name": self.name,
            "passed": self.passed,
            "params": self.params,
            "witness": self.witness,
            "elapsed": round(self.elapsed, 6),
        }

    def __repr__(self):
        return f"CheckReport({self.name}: {'PASS' if self.passed else 'FAIL'})"


def _clip(s, n=160):
    return s if len(s) <= n else s[: n - 3] + "..."


def _require_degree(max_degree):
    """A negative degree would compare two empty Hilbert functions and
    pass vacuously; a bool is not a degree."""
    if isinstance(max_degree, bool) or not isinstance(max_degree, int):
        raise DomainError(f"max_degree must be an int, got {max_degree!r}")
    if max_degree < 0:
        raise DomainError(f"max_degree must be nonnegative, got {max_degree}")
    if max_degree > MAX_KEY_WEIGHT:
        raise ResourceLimitError(f"max_degree {max_degree} exceeds {MAX_KEY_WEIGHT}, the key bound")


class Verifier:
    def __init__(
        self,
        tree,
        generators=None,
        max_pairs=DEFAULT_MAX_PAIRS,
        max_weight=DEFAULT_MAX_WEIGHT,
    ):
        self.tree = as_rooted_tree(tree)
        self.ctx = DeformationContext(self.tree)
        self.order = monomial_order_for(self.tree)
        self.max_pairs = max_pairs
        self.max_weight = max_weight
        self._generators = list(generators) if generators is not None else None
        self._basis = None
        self._pos = {p: i for i, p in enumerate(self.tree.linear_extension())}
        # the exponent digits of the u-parameters in a packed monomial
        self._umask = sum(
            DIGIT_MASK << DIGIT_BITS * i
            for v, i in self.order.index.items()
            if isinstance(v, UVar)
        )
        self._memo = {}  # packed blocks of the running check; see _packed

    @property
    def generators(self):
        """((p,q), g(p,q)) pairs — the override list if one was given."""
        if self._generators is None:
            self._generators = self.ctx.j_ideal_generators()
        return self._generators

    @property
    def basis(self):
        if self._basis is None:
            self._basis = buchberger(
                [g for _, g in self.generators],
                self.order,
                max_pairs=self.max_pairs,
                max_weight=self.max_weight,
            )
        return self._basis

    def _x(self, place, p):
        return Polynomial.variable(XVar(place, p))

    # -- packed building blocks ----------------------------------------------

    def _packed(self, block, *args):
        """block(*args), a Polynomial, in the kernel's packed form (minus
        key -> coefficient), memoized until the running check ends."""
        key = (block, args)
        work = self._memo.get(key)
        if work is None:
            work = self._memo[key] = _pack_terms(block(*args), self.order)
        return work

    def _product(self, f, *gs):
        """The packed product of f and gs."""
        for g in gs:
            f = _mul(f, g, self.order)
        return f

    # -- the runner and its instance tests ---------------------------------

    def _run(self, name, faults, count="instances"):
        """Draw instances from `faults` until the first witness; the report
        counts the instances drawn, the failing one included.  The packed
        blocks memoized while drawing are dropped when the check ends."""
        t0 = time.monotonic()
        n, witness = 0, None
        try:
            for witness in faults:
                n += 1
                if witness is not None:
                    break
        finally:
            self._memo.clear()
        return CheckReport(
            name, witness is None, {count: n}, witness, time.monotonic() - t0
        )

    def _member(self, label, f):
        """None when the packed polynomial f (consumed) lies in J, else the
        clipped remainder as witness."""
        basis, order = self.basis, self.order
        rem = _reduce(f, basis._leads, order.mask, order.guard)
        if not rem:
            return None
        return f"{label}: remainder {_clip(render_polynomial(_unpack(rem, order), order))}"

    def _degree(self, label, f, want):
        """None when f is homogeneous of multidegree `want`."""
        got = homogeneous_degree(self.tree, f)
        if got == want:
            return None
        return f"deg {label} = {got.render()}, wanted {want.render()}"

    def _lift_fault(self, label, lhs, factored):
        """A relation lift, packed, must equal its packed closed-form
        factorization and vanish at u = 0 (every monomial carries a
        u-parameter: a nonzero u-digit).  Its membership in J is the
        S-pair reduction of buchberger's loop, so it is not tested again
        (see check_relation_lifts)."""
        if lhs != factored:
            return f"{label}: factorization mismatch"
        umask = self._umask
        if any(not n & umask for n in lhs):
            return f"{label}: lift has a u-free monomial"
        return None

    # -- shared instance enumerations --------------------------------------

    def _above(self, p):
        """The filter at or above p, in linear-extension order."""
        return sorted(self.tree.filter_at_or_above(p), key=self._pos.__getitem__)

    def _above_pairs(self, p):
        """The pairs b < c (in linear-extension order) of the filter above p."""
        return combinations(self._above(p), 2)

    def _t_share(self, c, b):
        """T_c(b), reading T_b(b) as T(b), packed."""
        if c == b:
            return self._packed(self.ctx.t_full, b)
        return self._packed(self.ctx.t_sub, c, b)

    def _child_sum(self, a, cols, d):
        """The sum over the children x of a of D(a)^{cols}_{(x)} T_d(x),
        packed."""
        minor, expr = self.ctx.generalized_minor, {}
        for ix, x in enumerate(self.tree.children(a), start=1):
            term = self._product(self._packed(minor, a, cols, (ix,)), self._t_share(d, x))
            expr = _add(expr, term)
        return expr

    # -- individual checks -------------------------------------------------

    def _specialization_faults(self):
        expected = letterplace_generators(self.tree)
        if len(expected) != len(self.generators):
            yield (
                f"{len(self.generators)} deformed generators vs "
                f"{len(expected)} letterplace generators"
            )
            return
        for (pair, g), (_, mono) in zip(self.generators, expected):
            image = Polynomial({m: c for m, c in g.terms.items() if m.u_degree() == 0})
            target = Polynomial.term(mono)
            if image == target:
                yield None
                continue
            diff = image - target
            yield (
                f"g{pair}: u->0 gave "
                f"{_clip(render_polynomial(image, self.order))}; "
                f"difference {_clip(render_polynomial(diff, self.order))}"
            )

    def check_specialization(self):
        """u -> 0 must send the generator list onto the letterplace list."""
        report = self._run("specialization", self._specialization_faults())
        # the length of the list, however far the comparison got
        report.params = {"generators": len(self.generators)}
        return report

    def _homogeneity_fault(self, p, q, g):
        want = MultiDegree.unit(1, p) + MultiDegree.unit(2, q)
        try:
            got = homogeneous_degree(self.tree, g)
        except NotHomogeneousError as exc:
            return f"g({p},{q}): {exc}"
        if got == want:
            return None
        return f"g({p},{q}) is homogeneous of {got.render()}, wanted {want.render()}"

    def check_homogeneity(self):
        """Every g(p,q) must be homogeneous of multidegree p1 + q2."""
        faults = (self._homogeneity_fault(p, q, g) for (p, q), g in self.generators)
        return self._run("homogeneity", faults, count="generators")

    def check_degree_formulas(self):
        """The four degree laws for T, S, sibling ST, and the minors D."""
        tree, ctx = self.tree, self.ctx
        unit, hat = MultiDegree.unit, hat_degree
        deg_t = (
            self._degree(f"T({p})", ctx.t_full(p), unit(1, p) + hat(tree, p))
            for p in tree
        )
        deg_s = (
            self._degree(f"S_{p}({q}2)", ctx.s_op(p, q), unit(2, q) - hat(tree, p))
            for p in tree
            for q in sorted(tree.filter_at_or_above(p))  # by name, not _above(p)
        )
        deg_st = (
            self._degree(
                f"S_{q}T_{q}({p})",
                ctx.st_entry(q, p),
                unit(1, p) + hat(tree, p) - hat(tree, q),
            )
            for a in tree
            for q, p in permutations(tree.children(a), 2)
        )
        # D(a)^0 has degree a2 - hat(a); D(a)^i, for the i-th child b,
        # has degree hat(b) - hat(a)
        deg_d = (
            self._degree(f"D({a})^{i}", ctx.minor_d(a, i), top - hat(tree, a))
            for a in tree
            for i, top in enumerate([unit(2, a)] + [hat(tree, b) for b in tree.children(a)])
        )
        return [
            self._run("deg-T", deg_t),
            self._run("deg-S", deg_s),
            self._run("deg-ST", deg_st),
            self._run("deg-D", deg_d),
        ]

    def check_flat_basic(self):
        """S_p(b)c2 - b2 S_p(c) lies in J for all p <= b, p <= c."""
        P, mul, s, x = self._packed, self._product, self.ctx.s_op, self._x
        faults = (
            self._member(
                f"(p,b,c)=({p},{b},{c})",
                _sub(mul(P(s, p, b), P(x, 2, c)), mul(P(x, 2, b), P(s, p, c))),
            )
            for p in self.tree
            for b, c in self._above_pairs(p)
        )
        return self._run("flat-basic", faults)

    def check_lemma_identities(self):
        """The sibling-level identities feeding the flatness induction."""
        tree, P, mul, x = self.tree, self._packed, self._product, self._x
        s, st, share = self.ctx.s_op, self.ctx.st_entry, self._t_share
        # S_pT_p(q) b2 - T_p(q) S_p(b) for q in {p} + siblings, b >= p
        ts = (
            self._member(
                f"(p,q,b)=({p},{q},{b})",
                _sub(mul(P(st, p, q), P(x, 2, b)), mul(share(p, q), P(s, p, b))),
            )
            for p in tree
            if p != tree.root
            for q in (p,) + tree.siblings(p)
            for b in self._above(p)
        )
        # S_pT_p(q) T_p(r) - T_p(q) S_pT_p(r) within each sibling class
        stt = (
            self._member(
                f"(p,q,r)=({p},{q},{r})",
                _sub(mul(P(st, p, q), share(p, r)), mul(share(p, q), P(st, p, r))),
            )
            for a in tree
            for p, q, r in product(tree.children(a), repeat=3)
        )
        # the three child-sum identities on generalized minors; column i >= 1
        # is the i-th child of a, column 0 is a itself
        dt1 = (
            self._member(f"a={a} cols=({ib},{ic}) T_{d}", self._child_sum(a, (ib, ic), d))
            for a in tree
            for (ib, _), (ic, _) in combinations(enumerate(tree.children(a), start=1), 2)
            for idd, d in enumerate(tree.children(a), start=1)
            if idd not in (ib, ic)
        )
        dt2 = (
            self._member(f"a={a} cols=({ib},{ic}) T_{a}", self._child_sum(a, (ib, ic), a))
            for a in tree
            for (ib, _), (ic, _) in combinations(enumerate(tree.children(a), start=1), 2)
        )
        dt3 = (
            self._member(f"a={a} cols=(0,{ib}) T_{c}", self._child_sum(a, (0, ib), c))
            for a in tree
            for (ib, _), (_, c) in permutations(enumerate(tree.children(a), start=1), 2)
        )
        return [
            self._run("lemma-ts", ts),
            self._run("lemma-stt", stt),
            self._run("lemma-sum-dt1", dt1),
            self._run("lemma-sum-dt2", dt2),
            self._run("lemma-sum-dt3", dt3),
        ]

    def _flat_p2(self, a, b):
        """a1 T(b) - T(a) R(a,b) b1, packed.  A check uses R(a,b) once, so
        it is packed without the memo."""
        P, mul, t, x = self._packed, self._product, self.ctx.t_full, self._x
        r = _pack_terms(self.ctx.cover_product_r(a, b), self.order)
        return _sub(mul(P(x, 1, a), P(t, b)), mul(P(t, a), r, P(x, 1, b)))

    def check_flat_p2(self):
        """a1 T(b) - T(a) R(a,b) b1 lies in J for all a <= b."""
        faults = (
            self._member(f"(a,b)=({a},{b})", self._flat_p2(a, b))
            for a in self.tree
            for b in self._above(a)
        )
        return self._run("flat-p2", faults)

    def check_relation_lifts(self):
        """The two Koszul-type relations among the p1*q2 lift into J.

        For each instance two things are checked: the closed-form
        factorization holds exactly, and every monomial of the lifted
        combination carries a u-parameter (so the lift vanishes at u = 0,
        as a flat family requires).

        Membership in J is not re-checked.  The lift
        x2(c) g(a,b) - x2(b) g(a,c) (and x1(b) g(a,c) - x1(a) g(b,c) alike)
        is a combination of the generators J is built from, so it lies in J
        by construction, for a mutated generator list too.  It is the
        S-polynomial of the two generators, whose leads a1 b2 and a1 c2
        share a1 (b1 c2 and a1 c2 share c2), and buchberger's loop reduces
        it once when it builds the basis.
        """
        tree, P, mul, x = self.tree, self._packed, self._product, self._x
        s, g = self.ctx.s_op, dict(self.generators)

        def gen(p, q):
            # packed at use: a memo would hold every generator at once, for
            # little reuse
            return _pack_terms(g[(p, q)], self.order)

        x2 = (
            self._lift_fault(
                f"(a,b,c)=({a},{b},{c})",
                _sub(mul(P(x, 2, c), gen(a, b)), mul(P(x, 2, b), gen(a, c))),
                mul(
                    P(self.ctx.t_full, a),
                    _sub(mul(P(x, 2, b), P(s, a, c)), mul(P(x, 2, c), P(s, a, b))),
                ),
            )
            for a in tree
            for b, c in self._above_pairs(a)
        )
        x1 = (
            self._lift_fault(
                f"(a,b,c)=({a},{b},{c})",
                _sub(mul(P(x, 1, b), gen(a, c)), mul(P(x, 1, a), gen(b, c))),
                mul(P(s, b, c), p2),
            )
            for a in tree
            for b in self._above(a)
            for p2 in (self._flat_p2(a, b),)
            for c in self._above(b)
        )
        return [self._run("relation-lift-x2", x2), self._run("relation-lift-x1", x1)]

    def compare_hilbert(self, max_degree):
        """Truncated weighted Hilbert functions of B/J and B/(L B) agree.

        Each side is the Hilbert function of a monomial ideal (Macaulay's
        theorem), read off its series numerator by truncated_hilbert: J's
        through the leading monomials of its Groebner basis, L's through the
        quadrics p1*q2 that generate it.  Raises DomainError unless
        max_degree is a nonnegative int, and ResourceLimitError above
        MAX_KEY_WEIGHT."""
        _require_degree(max_degree)
        t0 = time.monotonic()
        weights = self.order.weights
        h_j = truncated_hilbert(self.basis.leading_monomials(), weights, max_degree)
        h_l = truncated_hilbert(
            [m for _, m in letterplace_generators(self.tree)], weights, max_degree
        )
        ok = h_j == h_l
        witness = None if ok else f"J: {h_j} vs L: {h_l}"
        return CheckReport(
            "hilbert",
            ok,
            {"max_degree": max_degree, "J": h_j, "L": h_l},
            witness,
            time.monotonic() - t0,
        )

    # -- suites --------------------------------------------------------------

    def run_basic(self):
        """The checks that need no Groebner basis."""
        reports = [self.check_specialization(), self.check_homogeneity()]
        reports.extend(self.check_degree_formulas())
        return reports

    def run_full(self, max_degree=4):
        """Every check; raises what compare_hilbert raises for max_degree
        before running any of them."""
        _require_degree(max_degree)
        reports = self.run_basic()
        reports.append(self.check_flat_basic())
        reports.extend(self.check_lemma_identities())
        reports.append(self.check_flat_p2())
        reports.extend(self.check_relation_lifts())
        reports.append(self.compare_hilbert(max_degree))
        return reports
