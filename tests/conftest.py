import glob
import itertools
import os
from itertools import combinations, permutations, product

from lpdeform import (
    Monomial,
    NotATreeError,
    PolyMatrix,
    Polynomial,
    UVar,
    XVar,
    as_rooted_tree,
    comparable_pairs,
    j_ideal_generators,
    load_poset,
    parse_poset,
    rooted_tree_shapes,
    shape_to_tree,
)
from lpdeform.cli import _write_json

FIXTURES = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "fixtures")


def src_env():
    """The environment with this checkout's src first on PYTHONPATH, so a
    child process imports the working tree and not an installed copy."""
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def json_text(x, pad="\n"):
    """The pieces cli._write_json writes for x at `pad`, joined."""
    pieces = []
    _write_json(x, pieces.append, pad)
    return "".join(pieces)


def fixture_path(name):
    return os.path.join(FIXTURES, name)


def load_tree(name):
    """Load fixtures/<name>.poset as a rooted tree."""
    return as_rooted_tree(load_poset(fixture_path(name + ".poset")))


def fixture_trees():
    """The fixtures that are rooted trees, in file-name order."""
    trees = []
    for path in sorted(glob.glob(os.path.join(FIXTURES, "*.poset"))):
        try:
            trees.append(as_rooted_tree(load_poset(path)))
        except NotATreeError:
            continue
    return trees


def tree_from(text):
    return as_rooted_tree(parse_poset(text))


def chain_tree(n):
    """The chain with n elements a < b < c < ..."""
    names = [chr(ord("a") + i) for i in range(n)]
    lines = [f"{p} < {q}" for p, q in zip(names, names[1:])]
    return tree_from("\n".join(lines) if lines else f"elem {names[0]}")


def star_tree(m):
    """Root a with m leaves b, c, ..."""
    names = [chr(ord("b") + i) for i in range(m)]
    return tree_from("\n".join(f"a < {x}" for x in names))


def u_free(g):
    """The terms of g that carry no u-parameter."""
    return Polynomial({m: c for m, c in g.terms.items() if m.u_degree() == 0})


def sign_flip(g):
    """g with the sign of its u-part flipped."""
    free = u_free(g)
    return free - (g - free)


def poset_text(tree):
    """A poset file for `tree`: one cover relation per line."""
    if len(tree.elements) == 1:
        return f"elem {tree.root}\n"
    return "".join(f"{tree.parent(p)} < {p}\n" for p in tree.linear_extension() if p != tree.root)


def tree_key(tree):
    if len(tree.elements) == 1:
        return tree.root
    return ",".join(f"{tree.parent(p)}<{p}" for p in tree.linear_extension() if p != tree.root)


def sign_flip_mutants(max_nodes):
    """(key, tree, generator list) for every single sign flip of a
    generator's u-part over the rooted trees with up to max_nodes nodes."""
    for n in range(1, max_nodes + 1):
        for shape in rooted_tree_shapes(n):
            tree = shape_to_tree(shape)
            gens = j_ideal_generators(tree)
            for k, ((p, q), g) in enumerate(gens):
                mutated = list(gens)
                mutated[k] = ((p, q), sign_flip(g))
                yield f"{tree_key(tree)} g({p},{q})", tree, mutated


def tuple_order_key(order, mono):
    """The term order as a (weight, revlex tuple) pair: weighted degree,
    then the exponents from the last variable back, negated."""
    dense = [mono.exponent(v) for v in order.variables]
    return (order.weight(mono), tuple(-e for e in reversed(dense)))


def brute_force_order_ideals(poset):
    """Count downward-closed subsets by filtering the whole power set."""
    elems = poset.elements
    count = 0
    for bits in itertools.product([0, 1], repeat=len(elems)):
        chosen = {e for e, b in zip(elems, bits) if b}
        closed = all(
            d in chosen
            for e in chosen for d in elems if poset.le(d, e)
        )
        count += closed
    return count


def bounded_monomials(variables, weights, bound):
    """Every exponent table on `variables` of weight <= bound, with its
    weight."""
    if not variables:
        yield {}, 0
        return
    v, rest = variables[0], variables[1:]
    for e in range(bound // weights[v] + 1):
        for table, wt in bounded_monomials(rest, weights, bound - e * weights[v]):
            yield {v: e, **table}, wt + e * weights[v]


def brute_standard_count(leads, weights, max_degree):
    """Oracle: enumerate every monomial of bounded weight and keep those
    that no monomial in `leads` divides."""
    counts = [0] * (max_degree + 1)
    for table, wt in bounded_monomials(list(weights), weights, max_degree):
        if not any(all(table[v] >= e for v, e in lead.pairs) for lead in leads):
            counts[wt] += 1
    return counts


# -- the Polynomial oracle ---------------------------------------------------------


class PolynomialContext:
    """The T/S/D recursion of lpdeform.deformation written on Polynomials,
    with the same method names and no argument checks: the oracle for the
    packed DeformationContext."""

    def __init__(self, tree):
        self.tree = tree
        self._pos = {p: i for i, p in enumerate(tree.linear_extension())}
        self._matrix = {}
        self._memo = {}

    def _memoized(self, key, build):
        if key not in self._memo:
            self._memo[key] = build()
        return self._memo[key]

    def t_sub(self, c, b):
        a = self.tree.parent(b)
        if c == a:
            return -(x_poly(2, a) * u_poly(a, b))
        out = Polynomial.zero()
        for q in sorted(self.tree.filter_at_or_above(c), key=self._pos.__getitem__):
            out = out - x_poly(2, q) * u_poly(q, b)
        return out

    def t_full(self, b):
        tree = self.tree
        if b == tree.root:
            return u_poly(None, b)
        out = -self.t_sub(tree.parent(b), b)
        for c in tree.siblings(b):
            out = out - self.t_sub(c, b)
        return out

    def st_entry(self, x, b):
        if x == b:
            return x_poly(1, b)
        if x == self.tree.parent(b):
            return -u_poly(x, b)
        return self.s_op_linear(x, self.t_sub(x, b))

    def matrix_m(self, a):
        if a not in self._matrix:
            kids = self.tree.children(a)
            self._matrix[a] = PolyMatrix([[self.st_entry(x, b) for x in (a,) + kids] for b in kids])
        return self._matrix[a]

    def generalized_minor(self, a, cols, rows):
        if not self.tree.children(a):
            return Polynomial.one()
        det = self.matrix_m(a).minor_det(delete_rows=[k - 1 for k in rows], delete_cols=cols)
        inversions = sum(s[i] > s[j] for s in (cols, rows)
                         for i in range(len(s)) for j in range(i + 1, len(s)))
        return -det if (sum(cols) + sum(rows) + inversions) % 2 else det

    def minor_d(self, a, i):
        return self._memoized(("D", a, i), lambda: self.generalized_minor(a, (i,), ()))

    def minor_d_child(self, a, b):
        return self.minor_d(a, 1 + self.tree.children(a).index(b))

    def cover_product_r(self, a, b):
        out, q = Polynomial.one(), b
        while q != a:
            out = out * self.minor_d_child(self.tree.parent(q), q)
            q = self.tree.parent(q)
        return out

    def s_op(self, a, b):
        return self._memoized(("S", a, b), lambda: self.cover_product_r(a, b) * self.minor_d(b, 0))

    def s_op_linear(self, a, f):
        out = Polynomial.zero()
        for mono, coeff in f.items():
            [target] = [v.element for v, _ in mono.pairs if isinstance(v, XVar)]
            upart = Monomial(tuple((v, e) for v, e in mono.pairs if isinstance(v, UVar)))
            out = out + self.s_op(a, target) * upart * coeff
        return out

    def deformed_generator(self, p, q):
        head = Polynomial.term(Monomial.from_pairs([(XVar(1, p), 1), (XVar(2, q), 1)]))
        return head - self.t_full(p) * self.s_op(p, q)

    def j_ideal_generators(self):
        return [((p, q), self.deformed_generator(p, q)) for p, q in comparable_pairs(self.tree)]


def x_poly(place, p):
    return Polynomial.variable(XVar(place, p))


def u_poly(q, p):
    return Polynomial.variable(UVar(q, p))


def oracle_factors(mono, order):
    """(name, exponent) of mono's variables in the order's sequence."""
    return [(v.render(), e) for v, e in sorted(mono.pairs, key=lambda p: order.index[p[0]])]


def oracle_render(poly, order):
    """render_polynomial term by term from Monomials: the oracle for the
    rendering from packed terms."""
    if poly.is_zero:
        return "0"
    out = []
    for i, (m, c) in enumerate(order.sorted_terms(poly)):
        mag = abs(c)
        body = "*".join(v if e == 1 else f"{v}^{e}" for v, e in oracle_factors(m, order))
        if m.is_one:
            body = str(mag)
        elif mag != 1:
            body = f"{mag}*{body}"
        sign = ("-" if c < 0 else "") if i == 0 else (" - " if c < 0 else " + ")
        out.append(sign + body)
    return "".join(out)


def oracle_json(poly, order):
    """polynomial_to_json from Monomials."""
    return [
        {"coeff": f"{c.numerator}/{c.denominator}", "monomial": dict(oracle_factors(m, order))}
        for m, c in order.sorted_terms(poly)
    ]


def oracle_instances(verifier):
    """Check name -> a lazy stream of the instances of `verifier`'s
    flatness checks as Polynomial expressions, in the order the checks
    draw them: (label, polynomial) for a membership check, and for a
    relation lift m*g(p) - n*g(q) the arguments of Verifier._lift_fault,
    (label, m, left, left0, n, right, right0), followed by the lift and its
    factorization.  The verifier builds the same instances in packed form
    from its context; these expressions, from the Polynomial recursion, are
    its oracle."""
    tree, ctx = verifier.tree, PolynomialContext(verifier.tree)
    above, kids = verifier.tree.above, tree.children
    gens = verifier._override
    g = dict(ctx.j_ideal_generators() if gens is None else gens)

    def x(place, p):
        return Polynomial.variable(XVar(place, p))

    def share(c, b):
        return ctx.t_full(b) if c == b else ctx.t_sub(c, b)

    def child_sum(a, cols, d):
        expr = Polynomial.zero()
        for ix, y in enumerate(kids(a), start=1):
            expr = expr + ctx.generalized_minor(a, cols, (ix,)) * share(d, y)
        return expr

    def flat_p2(a, b):
        return x(1, a) * ctx.t_full(b) - ctx.t_full(a) * ctx.cover_product_r(a, b) * x(1, b)

    def residue(p, q):
        """h(p,q) = g(p,q) + T(p) S_p(q)."""
        return g[(p, q)] + ctx.t_full(p) * ctx.s_op(p, q)

    def column_pairs(a):
        return combinations(enumerate(kids(a), start=1), 2)

    return {
        "flat-basic": (
            (f"(p,b,c)=({p},{b},{c})", ctx.s_op(p, b) * x(2, c) - x(2, b) * ctx.s_op(p, c))
            for p in tree
            for b, c in combinations(above(p), 2)
        ),
        "lemma-ts": (
            (f"(p,q,b)=({p},{q},{b})", ctx.st_entry(p, q) * x(2, b) - share(p, q) * ctx.s_op(p, b))
            for p in tree
            if p != tree.root
            for q in (p,) + tree.siblings(p)
            for b in above(p)
        ),
        "lemma-stt": (
            (
                f"(p,q,r)=({p},{q},{r})",
                ctx.st_entry(p, q) * share(p, r) - share(p, q) * ctx.st_entry(p, r),
            )
            for a in tree
            for p, q, r in product(kids(a), repeat=3)
        ),
        "lemma-sum-dt1": (
            (f"a={a} cols=({ib},{ic}) T_{d}", child_sum(a, (ib, ic), d))
            for a in tree
            for (ib, _), (ic, _) in column_pairs(a)
            for idd, d in enumerate(kids(a), start=1)
            if idd not in (ib, ic)
        ),
        "lemma-sum-dt2": (
            (f"a={a} cols=({ib},{ic}) T_{a}", child_sum(a, (ib, ic), a))
            for a in tree
            for (ib, _), (ic, _) in column_pairs(a)
        ),
        "lemma-sum-dt3": (
            (f"a={a} cols=(0,{ib}) T_{c}", child_sum(a, (0, ib), c))
            for a in tree
            for (ib, _), (_, c) in permutations(enumerate(kids(a), start=1), 2)
        ),
        "flat-p2": ((f"(a,b)=({a},{b})", flat_p2(a, b)) for a in tree for b in above(a)),
        "relation-lift-x2": (
            (
                f"(a,b,c)=({a},{b},{c})",
                x(2, c), residue(a, b), u_free(g[(a, b)]),
                x(2, b), residue(a, c), u_free(g[(a, c)]),
                x(2, c) * g[(a, b)] - x(2, b) * g[(a, c)],
                ctx.t_full(a) * (x(2, b) * ctx.s_op(a, c) - x(2, c) * ctx.s_op(a, b)),
            )
            for a in tree
            for b, c in combinations(above(a), 2)
        ),
        "relation-lift-x1": (
            (
                f"(a,b,c)=({a},{b},{c})",
                x(1, b),
                g[(a, c)] + ctx.t_full(a) * ctx.cover_product_r(a, b) * ctx.s_op(b, c),
                u_free(g[(a, c)]),
                x(1, a), residue(b, c), u_free(g[(b, c)]),
                x(1, b) * g[(a, c)] - x(1, a) * g[(b, c)],
                ctx.s_op(b, c) * flat_p2(a, b),
            )
            for a in tree
            for b in above(a)
            for c in above(b)
        ),
    }
