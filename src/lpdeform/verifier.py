"""Machine checks for the structural claims about J(2,P).

A Verifier owns one rooted tree, its deformation context (which owns the
weighted monomial order), and a lazily built Groebner basis of J that every
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

Every check reads its blocks (S_p, T, T_c, the sibling entries, the
minors, R, the generators and the x-variables) in the division kernel's
packed form, a dict minus order key -> coefficient (see groebner.py),
straight from the context's memo, so each block is built once for the
whole suite; the verifier keeps no memo.  The generators, the context's or
an override list packed once, are also the basis input.  A product of
monomials is one int addition; _member reduces a packed instance with
groebner._reduce.  The degree checks read packed terms too: u-freeness is
an AND with the u-digits, a multidegree comes from the exponent digits
(grading.homogeneous_degree), and a monomial is decoded only to render a
witness.  _lift_fault compares a lift with its factorization as packed
dicts and reads u-positivity off the u-digits.

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
recursion side comes from the context, so a corrupted generator is caught.
"""

from __future__ import annotations

import time
from itertools import combinations, permutations, product

from .deformation import DEFAULT_MAX_TERMS, DeformationContext
from .grading import MultiDegree, hat_degree, homogeneous_degree, truncated_hilbert
from .groebner import (
    DEFAULT_MAX_PAIRS,
    DEFAULT_MAX_WEIGHT,
    _add,
    _mul,
    _pack_terms,
    _reduce,
    _sub,
    buchberger,
)
from .errors import DomainError, NotHomogeneousError, ResourceLimitError
from .letterplace import letterplace_generators
from .polynomials import MAX_KEY_WEIGHT, render_packed
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
        max_terms=DEFAULT_MAX_TERMS,
    ):
        self.tree = as_rooted_tree(tree)
        self.ctx = DeformationContext(self.tree, max_terms)
        self.order = self.ctx.order
        self.max_pairs = max_pairs
        self.max_weight = max_weight
        self._override = list(generators) if generators is not None else None
        self._generators = None  # ((p,q), packed g), built at first use
        self._basis = None

    @property
    def generators(self):
        """((p,q), g(p,q)) pairs: the override list if one was given, else
        the context's generators, unpacked at each read."""
        if self._override is not None:
            return self._override
        return self.ctx.j_ideal_generators()

    def _packed_generators(self):
        """((p,q), packed g(p,q)) pairs: the context's memoized generators,
        or the override list packed once."""
        if self._generators is None:
            if self._override is None:
                self._generators = self.ctx.generators_packed()
            else:
                self._generators = [(pair, _pack_terms(g, self.order)) for pair, g in self._override]
        return self._generators

    @property
    def basis(self):
        if self._basis is None:
            self._basis = buchberger(
                [g for _, g in self._packed_generators()],
                self.order,
                max_pairs=self.max_pairs,
                max_weight=self.max_weight,
            )
        return self._basis

    def _product(self, f, *gs):
        """The packed product of f and gs."""
        for g in gs:
            f = _mul(f, g, self.order)
        return f

    # -- the runner and its instance tests ---------------------------------

    def _run(self, name, faults, count="instances"):
        """Draw instances from `faults` until the first witness; the report
        counts the instances drawn, the failing one included."""
        t0 = time.monotonic()
        n, witness = 0, None
        for witness in faults:
            n += 1
            if witness is not None:
                break
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
        return f"{label}: remainder {_clip(render_packed(rem, order))}"

    def _degree(self, label, f, want):
        """None when the packed polynomial f is homogeneous of multidegree
        `want`."""
        got = homogeneous_degree(self.tree, f, self.order)
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
        umask = self.ctx.umask
        if any(not n & umask for n in lhs):
            return f"{label}: lift has a u-free monomial"
        return None

    # -- shared instance enumerations --------------------------------------

    def _t_share(self, c, b):
        """T_c(b), reading T_b(b) as T(b), packed."""
        if c == b:
            return self.ctx.t_full_packed(b)
        return self.ctx.t_sub_packed(c, b)

    def _child_sum(self, a, cols, d):
        """The sum over the children x of a of D(a)^{cols}_{(x)} T_d(x),
        packed."""
        minor, expr = self.ctx.generalized_minor_packed, {}
        for ix, x in enumerate(self.tree.children(a), start=1):
            expr = _add(expr, self._product(minor(a, cols, (ix,)), self._t_share(d, x)))
        return expr

    # -- individual checks -------------------------------------------------

    def _specialization_faults(self):
        gens, expected = self._packed_generators(), letterplace_generators(self.tree)
        if len(expected) != len(gens):
            yield f"{len(gens)} deformed generators vs {len(expected)} letterplace generators"
            return
        order, umask = self.order, self.ctx.umask
        for (pair, g), (_, mono) in zip(gens, expected):
            image = {n: c for n, c in g.items() if not n & umask}
            target = {-order.key(mono): 1}
            if image == target:
                yield None
                continue
            yield (
                f"g{pair}: u->0 gave {_clip(render_packed(image, order))}; "
                f"difference {_clip(render_packed(_sub(image, target), order))}"
            )

    def check_specialization(self):
        """u -> 0 must send the generator list onto the letterplace list."""
        report = self._run("specialization", self._specialization_faults())
        # the length of the list, however far the comparison got
        report.params = {"generators": len(self._packed_generators())}
        return report

    def _homogeneity_fault(self, p, q, g):
        want = MultiDegree.unit(1, p) + MultiDegree.unit(2, q)
        try:
            got = homogeneous_degree(self.tree, g, self.order)
        except NotHomogeneousError as exc:
            return f"g({p},{q}): {exc}"
        if got == want:
            return None
        return f"g({p},{q}) is homogeneous of {got.render()}, wanted {want.render()}"

    def check_homogeneity(self):
        """Every g(p,q) must be homogeneous of multidegree p1 + q2."""
        faults = (self._homogeneity_fault(p, q, g) for (p, q), g in self._packed_generators())
        return self._run("homogeneity", faults, count="generators")

    def check_degree_formulas(self):
        """The four degree laws for T, S, sibling ST, and the minors D."""
        tree, ctx = self.tree, self.ctx
        unit, hat = MultiDegree.unit, hat_degree
        deg_t = (
            self._degree(f"T({p})", ctx.t_full_packed(p), unit(1, p) + hat(tree, p))
            for p in tree
        )
        deg_s = (
            self._degree(f"S_{p}({q}2)", ctx.s_op_packed(p, q), unit(2, q) - hat(tree, p))
            for p in tree
            for q in sorted(tree.filter_at_or_above(p))  # by name, not ctx.above(p)
        )
        deg_st = (
            self._degree(
                f"S_{q}T_{q}({p})",
                ctx.st_entry_packed(q, p),
                unit(1, p) + hat(tree, p) - hat(tree, q),
            )
            for a in tree
            for q, p in permutations(tree.children(a), 2)
        )
        # D(a)^0 has degree a2 - hat(a); D(a)^i, for the i-th child b,
        # has degree hat(b) - hat(a)
        deg_d = (
            self._degree(f"D({a})^{i}", ctx.minor_d_packed(a, i), top - hat(tree, a))
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
        mul, s, x = self._product, self.ctx.s_op_packed, self.ctx.x_packed
        faults = (
            self._member(
                f"(p,b,c)=({p},{b},{c})", _sub(mul(s(p, b), x(2, c)), mul(x(2, b), s(p, c)))
            )
            for p in self.tree
            for b, c in combinations(self.ctx.above(p), 2)
        )
        return self._run("flat-basic", faults)

    def check_lemma_identities(self):
        """The sibling-level identities feeding the flatness induction."""
        tree, mul, ctx = self.tree, self._product, self.ctx
        s, st, share, x = ctx.s_op_packed, ctx.st_entry_packed, self._t_share, ctx.x_packed
        # S_pT_p(q) b2 - T_p(q) S_p(b) for q in {p} + siblings, b >= p
        ts = (
            self._member(
                f"(p,q,b)=({p},{q},{b})",
                _sub(mul(st(p, q), x(2, b)), mul(share(p, q), s(p, b))),
            )
            for p in tree
            if p != tree.root
            for q in (p,) + tree.siblings(p)
            for b in self.ctx.above(p)
        )
        # S_pT_p(q) T_p(r) - T_p(q) S_pT_p(r) within each sibling class
        stt = (
            self._member(
                f"(p,q,r)=({p},{q},{r})",
                _sub(mul(st(p, q), share(p, r)), mul(share(p, q), st(p, r))),
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
        """a1 T(b) - T(a) R(a,b) b1, packed."""
        mul, ctx = self._product, self.ctx
        t, x = ctx.t_full_packed, ctx.x_packed
        return _sub(mul(x(1, a), t(b)), mul(t(a), ctx.cover_product_r_packed(a, b), x(1, b)))

    def check_flat_p2(self):
        """a1 T(b) - T(a) R(a,b) b1 lies in J for all a <= b."""
        faults = (
            self._member(f"(a,b)=({a},{b})", self._flat_p2(a, b))
            for a in self.tree
            for b in self.ctx.above(a)
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
        it once when it builds the basis.  An override list that lacks a
        generator the lift needs fails the instance, naming the pair.
        """
        tree, mul, ctx = self.tree, self._product, self.ctx
        s, x, g = ctx.s_op_packed, ctx.x_packed, dict(self._packed_generators())

        def lift(label, m, p, n, q, factored):
            """The fault of the lift m g(p) - n g(q)."""
            for pair in (p, q):
                if pair not in g:
                    return f"{label}: no generator g{pair} to lift"
            return self._lift_fault(label, _sub(mul(m, g[p]), mul(n, g[q])), factored)

        x2 = (
            lift(
                f"(a,b,c)=({a},{b},{c})",
                x(2, c), (a, b), x(2, b), (a, c),
                mul(ctx.t_full_packed(a), _sub(mul(x(2, b), s(a, c)), mul(x(2, c), s(a, b)))),
            )
            for a in tree
            for b, c in combinations(self.ctx.above(a), 2)
        )
        x1 = (
            lift(f"(a,b,c)=({a},{b},{c})", x(1, b), (a, c), x(1, a), (b, c), mul(s(b, c), p2))
            for a in tree
            for b in self.ctx.above(a)
            for p2 in (self._flat_p2(a, b),)
            for c in self.ctx.above(b)
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
