"""Machine checks for the structural claims about J(2,P).

A Verifier owns one rooted tree, its deformation context (which owns the
weighted monomial order), and a lazily built Groebner basis of J, which on
a passing suite is the generators themselves (see "The certificate" below).

Every check is a name paired with a lazy stream of instances; the table
below lists them.  The stream yields one item per instance, None when the
instance holds and a witness string when it does not.  One runner, Verifier._run, times the
stream, counts the instances it draws, stops at the first witness (so a
FAIL does no further polynomial work) and builds the CheckReport carrying
the verdict, the count, the witness and the wall time.  Instances are
tested through three helpers: _member (membership in J), _degree (a
generator's homogeneity or a degree law, its p1, p2 and hat(p) read from
the tree's degree table) and _lift_fault (a relation lift's factorization
and u-positivity, decided from two shifted residues).

Every check reads its blocks (S_p, T, T_c, the sibling entries, the
minors, R, the generators and the x-variables) in the division kernel's
packed form, a dict minus order key -> coefficient (see groebner.py),
straight from the context's memo, so each block is built once for the
whole suite; the verifier keeps no block memo.  The generators, the
context's or an override list packed once, are also the basis input.  A
product of monomials is one int addition, and an instance, a signed sum of
products of blocks, is accumulated in one new dict (_combination, which
checks each product against the key bound first), so no block is copied
or written; _member reduces it with groebner._reduce.  The degree checks read packed
terms too: u-freeness is an AND with the u-digits, and a multidegree is
an int in the order's own digits, read off the exponent digits and
compared with the law's int (see grading.py); a degree and a monomial are
decoded only to render a witness.  No relation lift is built: a lift
minus its factorization is a difference of two residues shifted by a
variable (see check_relation_lifts), so _lift_fault compares the shifted
keys of two packed dicts, and the lift's u-free part, read off the
u-digits, likewise.

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
  relation-lift-x1    factorization and u-positivity, each decided from
                      two shifted residues, such as g + T S made once
                      per generator; membership holds by construction and
                      is not re-checked; with flat-basic and flat-p2 they
                      certify the basis (see below)
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

Membership and the certificate
------------------------------

_member reduces a packed instance modulo the generators' packed entries
while no basis exists.  The entries are made at the first membership test
and never change, so their divisor memo (see groebner.py), made with them,
serves the whole suite: each term's divisor is one dict lookup on its
digits at the leads' variables, the scan runs only for digits not met
before, and a term no lead divides never enters the division heap.  A
basis keeps its own memo with its `_leads`, which are sorted by lead, so
its first divisor of a term can differ from the generators'; no memo is
shared between the two lists.  Division by any generating set
that leaves a zero remainder writes the instance as a combination of the
generators, so the instance PASSes with no basis.  A nonzero remainder proves nothing by
itself: it makes the verifier build the reduced basis and reduce that
remainder again.  The remainder differs from the instance by an element of
J, and the normal form modulo a reduced basis is unique, so the witness is
the normal form of the instance itself, the one a verifier that built the
basis first reports.

The basis (compare_hilbert reads it) is the generators' entries, sorted by
lead, when three conditions hold; otherwise buchberger builds it:

  1. every generator's pair is a comparable pair p <= q of the tree and
     its lead is the monic quadric p1*q2;
  2. no lead divides another lead or a term of a tail;
  3. flat-basic, flat-p2 and both relation lifts ran to the end and
     passed, every membership remainder being zero modulo the generators
     (no basis was built on the way).

Condition 2 costs no scan of the other leads per entry.  By 1 the leads
are quadrics, and a quadric divides another only when they are equal, so
the leads pass when they are distinct.  A lead divides no monomial below
it, so a tail term is divisible by another entry's lead exactly when some
lead divides it, which the generators' divisor memo answers from the
digits the membership tests already met (groebner._tail_reducible).

Two leads that share a variable share a1, as a1b2 and a1c2 (x2), or c2,
as a1c2 and b1c2 (x1), where a < b say, since the down-set of c is a
chain in a rooted tree.  So by 1 and 3 every such pair's lift held, its
lhs is the S-polynomial of the pair, and it equals
T(a)*flat-basic(a,c,b) (x2) or S_b(c)*flat-p2(a,b) (x1).  The check
decides that equality without building either side: expanding the
products, the lift minus its factorization is c2 h(a,b) - b2 h(a,c) (x2)
or b1 k - a1 h(b,c) (x1), where h(p,q) = g(p,q) + T(p) S_p(q) and
k = g(a,c) + T(a) R(a,b) S_b(c).  These are identities of polynomials,
whatever the generators and blocks hold, so a passing instance is exactly
an equal factorization.  The flat
instance divides to zero by the generators, so it is a sum of h_i g_i with
no lm(h_i g_i) above its own lead; times T(a) or S_b(c), that is a
representation of the S-polynomial whose every term lies strictly below
the pair's lcm.  Coprime pairs need none, so by Buchberger's criterion in
its lcm-representation form (Cox-Little-O'Shea, Ideals, Varieties, and
Algorithms, ch. 2 par. 9; Becker-Weispfenning, Groebner Bases, par. 5.5)
the generators are a Groebner basis, and by 1 and 2 the reduced one: the
basis buchberger would return, entry for entry.  This is the paper's
flatness argument: the relations among the quadrics lift.

The budgets keep buchberger's contract, and buchberger alone charges
them.  At the first membership test the generators' pairs can trip a
budget only when there are more than max_pairs of them, or when the two
heaviest leads together, which bound every lcm, weigh more than
max_weight or the key bound.  Then buchberger builds the basis right
there, and its loop raises its own error if a budget trips.  A suite that
would trip buchberger later (when the loop grows the basis) still raises
its error, at the first nonzero remainder or at compare_hilbert.  With no nonzero generator J is
the zero ideal, whose basis is empty.

Verifiers accept an override generator list so mutated ideals can be
exercised: checks that quote g(p,q) pull from the override while the
recursion side comes from the context, so a corrupted generator is caught.
`Verifier.generators` reads either list as a read-only sequence: nothing
done to it reaches the checks, and the context's generators are unpacked
one by one as they are read, so its len unpacks none.
"""

from __future__ import annotations

import time
from collections.abc import Sequence
from itertools import combinations, permutations, product

from .deformation import DEFAULT_MAX_TERMS, DeformationContext
from .grading import _degree_table, truncated_hilbert
from .groebner import (
    DEFAULT_MAX_PAIRS,
    DEFAULT_MAX_WEIGHT,
    GroebnerBasis,
    _addmul,
    _check_product,
    _divisor_memo,
    _entry,
    _iadd,
    _mul,
    _pack_terms,
    _reduce,
    _tail_reducible,
    _unpack,
    buchberger,
)
from .errors import DomainError, NotHomogeneousError, ResourceLimitError
from .letterplace import comparable_pairs, letterplace_generators
from .polynomials import MAX_KEY_WEIGHT, XVar, render_packed
from .posets import as_rooted_tree


# the checks whose passing runs, all remainders zero modulo the generators,
# make the generators J's reduced basis (see the module docstring)
CERTIFYING = {"flat-basic", "flat-p2", "relation-lift-x2", "relation-lift-x1"}


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


def _shifted_equal(f, m, g, n):
    """Whether m*f == n*g for the packed f and g and the minus keys m and n
    of two monomials.  A product of monomials is one addition, so the test
    shifts keys and builds neither product."""
    d, get = m - n, g.get
    return len(f) == len(g) and all(get(k + d) == c for k, c in f.items())


def _require_degree(max_degree):
    """A negative degree would compare two empty Hilbert functions and
    pass vacuously; a bool is not a degree."""
    if isinstance(max_degree, bool) or not isinstance(max_degree, int):
        raise DomainError(f"max_degree must be an int, got {max_degree!r}")
    if max_degree < 0:
        raise DomainError(f"max_degree must be nonnegative, got {max_degree}")
    if max_degree > MAX_KEY_WEIGHT:
        raise ResourceLimitError(f"max_degree {max_degree} exceeds {MAX_KEY_WEIGHT}, the key bound")


class _Generators(Sequence):
    """A read-only sequence of ((p,q), g(p,q)) pairs over a list of them:
    with an order, the list's g(p,q) are packed and each is unpacked when
    its item is read; without one they are taken as they are.  It equals
    any sequence of the same pairs, a list included."""

    __slots__ = ("_items", "_order")

    def __init__(self, items, order=None):
        self._items, self._order = items, order

    def __len__(self):
        return len(self._items)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[k] for k in range(*i.indices(len(self)))]
        pair, g = self._items[i]
        return (pair, g) if self._order is None else (pair, _unpack(g, self._order))

    def __eq__(self, other):
        if not isinstance(other, Sequence) or isinstance(other, (str, bytes)):
            return NotImplemented
        return len(self) == len(other) and all(a == b for a, b in zip(self, other))

    __hash__ = None

    def __repr__(self):
        return f"[{', '.join(map(repr, self))}]"


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
        self.ctx = DeformationContext(self.tree, max_terms, wide=generators is not None)
        self.order = self.ctx.order
        self.max_pairs = max_pairs
        self.max_weight = max_weight
        self._override = tuple(generators) if generators is not None else None
        self._generators = None  # ((p,q), packed g), built at first use
        self._entries = None  # their packed entries, made at the first membership test
        self._divisors = None  # the entries' divisor memo, made with them
        self._passed = set()  # the checks that ran to the end and passed
        self._basis = None

    @property
    def generators(self):
        """((p,q), g(p,q)) pairs, a read-only sequence: the override list if
        one was given, else the context's generators, each unpacked when it
        is read (len unpacks nothing)."""
        if self._override is not None:
            return _Generators(self._override)
        return _Generators(self._packed_generators(), self.order)

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
        """The reduced Groebner basis of J: the generators themselves when
        the flatness checks certify them, else buchberger's, and the empty
        basis of the zero ideal when no generator is nonzero.  buchberger
        takes the generators' packed entries when a membership test made
        them, and packs the generators itself otherwise."""
        if self._basis is None:
            entries = self._certified()
            gens = self._entries or [g for _, g in self._packed_generators() if g]
            if entries is None and gens:
                # in the context's order, whose width the basis keeps: with
                # 8-bit digits the generators are the context's, a Groebner
                # basis whose leads' lcms lie within its weight bound
                self._basis = buchberger(
                    gens, self.order, max_pairs=self.max_pairs, max_weight=self.max_weight
                )
            else:
                self._basis = GroebnerBasis._from_packed(entries or [], self.order)
        return self._basis

    def _generator_entries(self):
        """The nonzero generators' packed entries and their divisor memo,
        for _reduce, or the basis's when the budgets might not hold
        buchberger's first pairs: then buchberger builds the basis at the
        first call, charging the pairs and raising its own error if a
        budget trips."""
        if self._entries is None:
            order = self.order
            entries = [_entry(g, order) for _, g in self._packed_generators() if g]
            # an lcm weighs at most its two leads together, so when all the
            # pairs fit the budgets and the key bound, none can trip
            shift, n = order.mask.bit_length(), len(entries)
            heaviest = sorted(-(e[1] >> shift) for e in entries)[-2:]
            if n * (n - 1) // 2 > self.max_pairs or sum(heaviest) > min(
                self.max_weight, order.max_weight
            ):
                return self.basis._leads, self.basis._memo
            self._entries, self._divisors = entries, _divisor_memo(entries, order)
        return self._entries, self._divisors

    def _certified(self):
        """The generators' packed entries, sorted by lead, when they are J's
        reduced Groebner basis by Buchberger's criterion (see the module
        docstring), else None."""
        if self._entries is None or not CERTIFYING <= self._passed:
            return None
        gens, entries = self._packed_generators(), self._entries
        if len(entries) != len(gens):
            return None  # a zero generator
        tree, guard = self.tree, self.order.guard
        for ((p, q), g), (_, n, _) in zip(gens, entries):
            if not (p in tree and tree.le(p, q)) or {n: g[n]} != self._quadric(p, q):
                return None
        # a quadric divides another only when they are equal
        if len({n for _, n, _ in entries}) != len(entries):
            return None
        if any(_tail_reducible(tail, entries, guard, self._divisors) for _, _, tail in entries):
            return None
        return sorted(entries, key=lambda e: -e[1])

    def _quadric(self, p, q):
        """The letterplace quadric p1*q2, packed."""
        [p1], [q2] = self.ctx.x_packed(1, p), self.ctx.x_packed(2, q)
        return {p1 + q2: 1}

    def _combination(self, *terms):
        """The packed sum of sign * f * g over the (sign, f, g) terms, built
        in one new dict; each product is checked against the key bound, in
        order, before it is added."""
        order, acc = self.order, {}
        for sign, f, g in terms:
            _check_product(f, g, order)
            _addmul(acc, f, g, sign)
        return acc

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
        if witness is None:
            self._passed.add(name)
        return CheckReport(
            name, witness is None, {count: n}, witness, time.monotonic() - t0
        )

    def _member(self, label, f):
        """None when the packed polynomial f (consumed) lies in J, else the
        clipped remainder modulo the reduced basis as witness."""
        order = self.order
        mask, guard = order.mask, order.guard
        if self._basis is None:
            # a zero remainder modulo any generating set proves membership
            entries, memo = self._generator_entries()
            f = _reduce(f, entries, mask, guard, memo)
        if not f:
            return None
        basis = self.basis
        rem = _reduce(f, basis._leads, mask, guard, basis._memo)
        if not rem:
            return None
        return f"{label}: remainder {_clip(render_packed(rem, order))}"

    def _degree(self, label, f, want, of=" = "):
        """None when the packed polynomial f is homogeneous of the degree
        whose code (in the order's layout, see grading.py) is `want`, else
        a witness: `label` and either the NotHomogeneousError or f's degree
        after `of`.  A degree is decoded only for the witness."""
        table = _degree_table(self.tree, self.order)
        try:
            got = table.common(self.tree, f) if f else 0
        except NotHomogeneousError as exc:
            return f"{label}: {exc}"
        if got == want:
            return None
        return f"{label}{of}{table.decode(got).render()}, wanted {table.decode(want).render()}"

    def _lift_fault(self, label, m, left, left0, n, right, right0):
        """A relation lift, decided from its packed residues (see
        check_relation_lifts): the lift minus its factorization is
        m*left - n*right, which must vanish, and the lift's u-free part is
        m*left0 - n*right0, which must vanish too (every monomial of the
        lift carries a u-parameter), m and n being packed monomials."""
        (mk,), (nk,) = m, n
        if not _shifted_equal(left, mk, right, nk):
            return f"{label}: factorization mismatch"
        if not _shifted_equal(left0, mk, right0, nk):
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
        minor, share = self.ctx.generalized_minor_packed, self._t_share
        children = enumerate(self.tree.children(a), start=1)
        return self._combination(*((1, minor(a, cols, (ix,)), share(d, x)) for ix, x in children))

    # -- individual checks -------------------------------------------------

    def _specialization_faults(self):
        gens, pairs = self._packed_generators(), comparable_pairs(self.tree)
        if len(pairs) != len(gens):
            yield f"{len(gens)} deformed generators vs {len(pairs)} letterplace generators"
            return
        order, umask = self.order, self.ctx.umask
        for (pair, g), (p, q) in zip(gens, pairs):
            image = {n: c for n, c in g.items() if not n & umask}
            target = self._quadric(p, q)
            if image == target:
                yield None
                continue
            yield (
                f"g{pair}: u->0 gave {_clip(render_packed(image, order))}; "
                f"difference {_clip(render_packed(_iadd(dict(image), target, -1), order))}"
            )

    def check_specialization(self):
        """u -> 0 must send the generator list onto the letterplace list."""
        report = self._run("specialization", self._specialization_faults())
        # the length of the list, however far the comparison got
        report.params = {"generators": len(self._packed_generators())}
        return report

    def check_homogeneity(self):
        """Every g(p,q) must be homogeneous of multidegree p1 + q2."""
        x = _degree_table(self.tree, self.order).codes
        faults = (
            self._degree(f"g({p},{q})", g, x[XVar(1, p)] + x[XVar(2, q)], of=" is homogeneous of ")
            for (p, q), g in self._packed_generators()
        )
        return self._run("homogeneity", faults, count="generators")

    def check_degree_formulas(self):
        """The four degree laws for T, S, sibling ST, and the minors D."""
        tree, ctx, deg = self.tree, self.ctx, self._degree
        table = _degree_table(tree, self.order)
        x, hat = table.codes, table.hat
        deg_t = (deg(f"deg T({p})", ctx.t_full_packed(p), x[XVar(1, p)] + hat[p]) for p in tree)
        deg_s = (
            deg(f"deg S_{p}({q}2)", ctx.s_op_packed(p, q), x[XVar(2, q)] - hat[p])
            for p in tree
            for q in sorted(tree.filter_at_or_above(p))  # by name, not tree.above(p)
        )
        deg_st = (
            deg(f"deg S_{q}T_{q}({p})", ctx.st_entry_packed(q, p), x[XVar(1, p)] + hat[p] - hat[q])
            for a in tree
            for q, p in permutations(tree.children(a), 2)
        )
        # D(a)^0 has degree a2 - hat(a); D(a)^i, for the i-th child b,
        # has degree hat(b) - hat(a)
        deg_d = (
            deg(f"deg D({a})^{i}", ctx.minor_d_packed(a, i), top - hat[a])
            for a in tree
            for i, top in enumerate([x[XVar(2, a)]] + [hat[b] for b in tree.children(a)])
        )
        return [
            self._run("deg-T", deg_t),
            self._run("deg-S", deg_s),
            self._run("deg-ST", deg_st),
            self._run("deg-D", deg_d),
        ]

    def _flat_basic(self, p, b, c):
        """S_p(b)c2 - b2 S_p(c), packed."""
        s, x = self.ctx.s_op_packed, self.ctx.x_packed
        return self._combination((1, s(p, b), x(2, c)), (-1, x(2, b), s(p, c)))

    def check_flat_basic(self):
        """S_p(b)c2 - b2 S_p(c) lies in J for all p <= b, p <= c."""
        faults = (
            self._member(f"(p,b,c)=({p},{b},{c})", self._flat_basic(p, b, c))
            for p in self.tree
            for b, c in combinations(self.tree.above(p), 2)
        )
        return self._run("flat-basic", faults)

    def check_lemma_identities(self):
        """The sibling-level identities feeding the flatness induction."""
        tree, ctx, comb = self.tree, self.ctx, self._combination
        s, st, share, x = ctx.s_op_packed, ctx.st_entry_packed, self._t_share, ctx.x_packed
        # S_pT_p(q) b2 - T_p(q) S_p(b) for q in {p} + siblings, b >= p
        ts = (
            self._member(
                f"(p,q,b)=({p},{q},{b})",
                comb((1, st(p, q), x(2, b)), (-1, share(p, q), s(p, b))),
            )
            for p in tree
            if p != tree.root
            for q in (p,) + tree.siblings(p)
            for b in tree.above(p)
        )
        # S_pT_p(q) T_p(r) - T_p(q) S_pT_p(r) within each sibling class
        stt = (
            self._member(
                f"(p,q,r)=({p},{q},{r})",
                comb((1, st(p, q), share(p, r)), (-1, share(p, q), st(p, r))),
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
        ctx = self.ctx
        t, x = ctx.t_full_packed, ctx.x_packed
        tr = _mul(t(a), ctx.cover_product_r_packed(a, b), self.order)
        return self._combination((1, x(1, a), t(b)), (-1, tr, x(1, b)))

    def check_flat_p2(self):
        """a1 T(b) - T(a) R(a,b) b1 lies in J for all a <= b."""
        faults = (
            self._member(f"(a,b)=({a},{b})", self._flat_p2(a, b))
            for a in self.tree
            for b in self.tree.above(a)
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
        share a1 (b1 c2 and a1 c2 share c2), and its factorization through
        a flat-basic or flat-p2 instance is what certifies the generators
        as the basis (see the module docstring).  An override list that
        lacks a generator the lift needs fails the instance, naming the pair.

        Neither the lift nor its factorization is built.  With the
        residue h(p,q) = g(p,q) + T(p) S_p(q), made once per generator,

          x2 at a, b < c in above(a):
            c2 g(a,b) - b2 g(a,c) - T(a) (S_a(c) b2 - c2 S_a(b))
              = c2 h(a,b) - b2 h(a,c)
          x1 at a <= b <= c, with k = g(a,c) + T(a) R(a,b) S_b(c):
            b1 g(a,c) - a1 g(b,c) - S_b(c) (a1 T(b) - T(a) R(a,b) b1)
              = b1 k - a1 h(b,c)

        so the factorization holds when the two shifted residues are equal,
        which _shifted_equal reads off their keys.  The identities are
        expanded products, exact whatever the generators and blocks are;
        for the context's generators h(p,q) is p1 q2.  A monomial times g
        keeps g's u-digits (digits never carry), so the lift's u-free part
        is c2 g0(a,b) - b2 g0(a,c) (x2) or b1 g0(a,c) - a1 g0(b,c) (x1),
        g0 being g's u-free part, also made once per generator.  Each
        instance checks the lift's two products against the key bound, as
        a lift built in place would; the residues' block products lie
        within the context's bound (see deformation.py).
        """
        tree, ctx, order, umask = self.tree, self.ctx, self.order, self.ctx.umask
        t, s, x = ctx.t_full_packed, ctx.s_op_packed, ctx.x_packed
        g, residues = dict(self._packed_generators()), {}

        def residue(pair):
            """(h, g0) of the generator g(pair), made at its first use."""
            if pair not in residues:
                p, q = pair
                f = g[pair]
                u_free = {n: c for n, c in f.items() if not n & umask}
                residues[pair] = _addmul(dict(f), t(p), s(p, q)), u_free
            return residues[pair]

        def lift(abc, m, p, n, q, tr=None):
            """The fault of the lift m g(p) - n g(q) at the triple abc, whose
            left residue is h(p), or g(p) + tr S_b(c) in x1."""
            label = "(a,b,c)=({},{},{})".format(*abc)
            for pair in (p, q):
                if pair not in g:
                    return f"{label}: no generator g{pair} to lift"
            _check_product(m, g[p], order)
            _check_product(n, g[q], order)
            left, left0 = residue(p)
            right, right0 = residue(q)
            if tr is not None:
                _, b, c = abc
                left = _addmul(dict(g[p]), tr, s(b, c))
            return self._lift_fault(label, m, left, left0, n, right, right0)

        x2 = (
            lift((a, b, c), x(2, c), (a, b), x(2, b), (a, c))
            for a in tree
            for b, c in combinations(tree.above(a), 2)
        )
        x1 = (
            lift((a, b, c), x(1, b), (a, c), x(1, a), (b, c), tr)
            for a in tree
            for b in tree.above(a)
            for tr in (_mul(t(a), ctx.cover_product_r_packed(a, b), order),)
            for c in tree.above(b)
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
