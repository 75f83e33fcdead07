"""Micro-benchmarks of the polynomial kernel (pytest-benchmark).

    PYTHONPATH=src python -m pytest microbench/bench_kernel.py

The file name does not match test_*.py, so a plain `pytest` run does not
collect it; it runs only when named on the command line.

pytest's `pythonpath = ["src"]` (pyproject.toml) puts the checkout's own
src ahead of PYTHONPATH, so a comparison of two versions runs each side
from its own checkout, with the same command in each.  When PYTHONPATH
names a directory holding another lpdeform than the one imported, the file
stops at collection and names both directories.

The kernel inputs are the packed flat-basic instances of one wide 7-node
tree (a root with five children, one of which has a child), reduced modulo
the tree's basis of J with one divisor memo per round, as
`Verifier.check_flat_basic` does; a second case builds the packed lemma
instances and the relation lifts' residues of the star with six leaves, as
the verifier's checks do, without reducing them, and the lift cases run
`Verifier.check_relation_lifts` alone on the wide tree and on the star
with seven leaves.  The Buchberger cases build the basis of
J for that star, which its generators already are, for the wide tree in
the verifier's 8-bit order, whose generators the flatness checks certify,
and for each single sign flip of a generator's u-part on the trees of up
to 4 nodes, where the loop grows the basis.  The minors are the packed
minors of M(a) at that root, the widest node; the expansion case builds
the star's packed generators in a new DeformationContext, and the basic
suite cases run `Verifier.run_basic` on the star and on the star with
seven leaves, expansion included, as `lp check` does, and the full suite
case runs `Verifier.run_full` at degree 2 on the wide tree, where the
flatness checks certify the generators as the basis and buchberger does
not run, and the star case runs it at degree 3
on the star with seven leaves, in one round, the scale at which the packed
keys' width shows in time and memory; the Hilbert counts are the
ones `Verifier.compare_hilbert` makes for J on the 3-chain at degree 10
and on fixtures/tree7.poset at degree 8, and the compare case runs
`compare_hilbert(4)` on a new verifier for that tree, buchberger
included, as the `hilbert` benchmark does; the certificate case runs
`Verifier._certified` on the wide tree once its flatness checks passed; the homogeneity test is the one
`Verifier.check_homogeneity` makes on the wide tree's packed generators.
The tail case runs buchberger on 60 seeded random ideals, at 8 and at 16
bits, whose loops grow the basis, so that its final tail reduction runs.
The seven `lp` cases time the process layer in one process, as the
`cli-sweep` benchmark calls it: `cli.run` with stdout captured, for
`lp gens --ideal J --json` on the star and on the star with seven leaves
(40,384 terms), `lp gens --ideal L --json` on the star with seven
leaves, `lp t1 --json` and `lp info --json` on the wide tree,
`lp check --json` (the basic suite, expansion and degree table
included) on the wide tree, and `lp check --suite full --json` on the
wide tree, the largest answer without generators.  The cotangent cases enumerate the T^1
generators of the 20-element chain, of the star with sixteen leaves and of
the complete bipartite poset K_{10,10} with `t1_generators`, the general
poset search that `lp t1` and `lp info` run, and time the root's
lower-bound search on the star with a thousand leaves, whose one minimal
set is every leaf.  The decode case turns every packed key of the star
with six leaves' generators back into its Monomial with
`MonomialOrder.monomial`.  The
poset cases time the order layer: `parse_poset` on the 2,400-element chain,
whose closure is quadratic, and `count_order_ideals` on the 20-element
antichain, the largest input it accepts, with 2**20 ideals.
"""

import contextlib
import io
import json
import os
import random
from fractions import Fraction

import pytest

from lpdeform import (
    DeformationContext,
    Monomial,
    MonomialOrder,
    Polynomial,
    UVar,
    Verifier,
    XVar,
    all_rooted_trees,
    as_rooted_tree,
    buchberger,
    homogeneous_degree,
    j_ideal_generators,
    letterplace_generators,
    load_poset,
    minimal_lower_bound_sets,
    monomial_order_for,
    parse_poset,
    t1_generators,
    truncated_hilbert,
)
import lpdeform
from lpdeform import cli, groebner
from lpdeform.groebner import _divisor_memo, _reduce


def _check_import_path():
    """Raise when PYTHONPATH names a directory holding an lpdeform other
    than the imported one, whose code the run would time instead."""
    here = os.path.dirname(os.path.dirname(os.path.realpath(lpdeform.__file__)))
    for entry in os.environ.get("PYTHONPATH", "").split(os.pathsep):
        if entry and os.path.isdir(os.path.join(entry, "lpdeform")):
            if os.path.realpath(entry) != here:
                raise RuntimeError(
                    f"PYTHONPATH names {os.path.realpath(entry)}, but lpdeform was imported "
                    f"from {here}: run the benchmarks from the checkout whose code they time"
                )


_check_import_path()

WIDE_TREE = "a < b\na < c\na < d\na < e\na < f\nb < g\n"
STAR6 = "a < b\na < c\na < d\na < e\na < f\na < g\n"
STAR7 = "".join(f"a < {leaf}\n" for leaf in "bcdefgh")
STAR16 = "".join(f"r < l{k:02d}\n" for k in range(16))
LEAVES1000 = [f"l{k:04d}" for k in range(1000)]
STAR1000 = "".join(f"r < {leaf}\n" for leaf in LEAVES1000)
BIPARTITE10 = "".join(f"a{i} < b{j}\n" for i in range(10) for j in range(10))
CHAIN3 = "a < b\nb < c\n"
CHAIN20 = "".join(f"e{k:02d} < e{k + 1:02d}\n" for k in range(19))
CHAIN2400 = "".join(f"e{k:04d} < e{k + 1:04d}\n" for k in range(2399))
ANTICHAIN20 = "".join(f"elem e{k:02d}\n" for k in range(20))
TREE7 = os.path.join(os.path.dirname(__file__), os.pardir, "fixtures", "tree7.poset")


def recording_instances(verifier):
    """Replace the verifier's membership test by a recorder that keeps each
    packed instance and lets it pass, and record each relation lift's two
    residues as its test receives them; returns the record."""
    instances = []
    verifier._member = lambda label, f: instances.append(f)
    lift_fault = verifier._lift_fault

    def recording_lift_fault(label, m, left, left0, n, right, right0):
        instances.append((left, right))
        return lift_fault(label, m, left, left0, n, right, right0)

    verifier._lift_fault = recording_lift_fault
    return instances


def sign_flip(g):
    """g with the sign of its u-part flipped."""
    u_free = Polynomial({m: c for m, c in g.terms.items() if m.u_degree() == 0})
    return u_free - (g - u_free)


@pytest.fixture(scope="module")
def wide():
    verifier = Verifier(parse_poset(WIDE_TREE))
    basis = verifier.basis
    count = verifier.check_flat_basic().params["instances"]
    instances = recording_instances(verifier)
    verifier.check_flat_basic()
    assert len(instances) == count > 0
    order = basis.order
    monomials = sorted({order.monomial(-n) for f in instances for n in f}, key=repr)
    return basis, instances, monomials


def test_divide_flat_basic(benchmark, wide):
    basis, instances, _ = wide
    # the packed (P, N, tail) entries GroebnerBasis prepared with _entry;
    # _reduce consumes its input, so each round reduces copies, and each
    # round starts one divisor memo for all its instances, as
    # Verifier._member keeps one for the whole suite
    leads, order = basis._leads, basis.order

    def reduce_all():
        memo = _divisor_memo(leads, order)
        return [_reduce(dict(f), leads, order.mask, order.guard, memo) for f in instances]

    remainders = benchmark(reduce_all)
    assert len(remainders) == len(instances) and not any(remainders)


def lift_checks(benchmark, text, rounds):
    """check_relation_lifts alone, each round on a new verifier whose
    context already holds the generators, as run_full finds them: the
    rounds build the residues, not the blocks."""
    tree = as_rooted_tree(parse_poset(text))

    def fresh_verifier():
        verifier = Verifier(tree)
        verifier.ctx.generators_packed()
        return (verifier,), {}

    return benchmark.pedantic(
        lambda verifier: verifier.check_relation_lifts(), setup=fresh_verifier, rounds=rounds
    )


def test_relation_lifts_wide7(benchmark):
    reports = lift_checks(benchmark, WIDE_TREE, rounds=50)
    assert [r.params["instances"] for r in reports] == [22, 22] and all(r.passed for r in reports)


def test_relation_lifts_star7(benchmark):
    reports = lift_checks(benchmark, STAR7, rounds=5)
    assert [r.params["instances"] for r in reports] == [28, 22] and all(r.passed for r in reports)


def test_build_star6_lemma_and_lift_instances(benchmark):
    verifier = Verifier(parse_poset(STAR6))
    instances = recording_instances(verifier)

    def build():
        instances.clear()
        return verifier.check_lemma_identities() + verifier.check_relation_lifts()

    # the warm-up round fills the deformation context's memo, which every
    # timed round reads: the rounds build the instances and the lifts'
    # residues, not the blocks
    reports = benchmark.pedantic(build, rounds=5, warmup_rounds=1)
    assert all(r.passed for r in reports)
    assert len(instances) == sum(r.params["instances"] for r in reports) > 0


def test_buchberger_star6(benchmark):
    tree = as_rooted_tree(parse_poset(STAR6))
    order = monomial_order_for(tree)
    gens = [g for _, g in j_ideal_generators(tree)]

    basis = benchmark.pedantic(buchberger, args=(gens, order), rounds=5)
    assert set(basis) == set(gens)


def test_buchberger_wide7(benchmark):
    # the wide tree's generators, packed in the verifier's 8-bit order, are
    # the basis its flatness checks certify: every S-pair reduces to zero
    # modulo the generators' list, so the loop keeps one divisor memo
    verifier = Verifier(parse_poset(WIDE_TREE))
    assert all(r.passed for r in verifier.run_full(max_degree=2))
    ctx = verifier.ctx
    gens = [g for _, g in ctx.generators_packed()]

    basis = benchmark.pedantic(buchberger, args=(gens, ctx.order), rounds=10, warmup_rounds=1)
    assert basis._leads == verifier.basis._leads


def test_buchberger_sign_flip_mutants(benchmark):
    cases = []
    for tree in all_rooted_trees(4):
        gens = [g for _, g in j_ideal_generators(tree)]
        order = monomial_order_for(tree)
        for k, g in enumerate(gens):
            cases.append((gens[:k] + [sign_flip(g)] + gens[k + 1:], order))

    def bases():
        return [buchberger(gens, order) for gens, order in cases]

    result = benchmark.pedantic(bases, rounds=5, warmup_rounds=1)
    grown = sum(set(basis) != set(gens) for basis, (gens, _) in zip(result, cases))
    assert len(cases) == 49 and grown == 48


def random_ideals(bits, count=30):
    """`count` seeded generator lists of four 2-term polynomials in five
    variables of weights 1-3, packed in a `bits`-bit order."""
    x, y, z = XVar(1, "x"), XVar(1, "y"), XVar(1, "z")
    variables = [x, y, z, UVar("y", "x"), UVar("z", "x")]
    order = MonomialOrder(variables, dict(zip(variables, (1, 2, 1, 1, 3))), digit_bits=bits)
    rng = random.Random(bits)

    def packed():
        terms = {}
        for _ in range(2):
            chosen = rng.sample(variables, rng.randint(1, 3))
            mono = Monomial.from_pairs((v, rng.randint(1, 2)) for v in chosen)
            terms[-order.key(mono)] = Fraction(rng.choice([-3, -2, -1, 1, 2, 5]), rng.choice([1, 1, 2]))
        return terms

    return [([packed() for _ in range(4)], order) for _ in range(count)]


def test_buchberger_reducible_tails(benchmark, monkeypatch):
    # random ideals whose loop grows the basis, so that the final tail
    # reduction runs, at 8 and at 16 bits
    cases = random_ideals(8) + random_ideals(16)
    reduced, real = [], groebner._tail_reducible
    with monkeypatch.context() as patch:
        patch.setattr(groebner, "_tail_reducible", lambda *a: reduced.append(real(*a)) or reduced[-1])
        for gens, order in cases:
            buchberger(gens, order)
    assert sum(reduced) > 20

    def bases():
        return [buchberger(gens, order) for gens, order in cases]

    benchmark.pedantic(bases, rounds=10, warmup_rounds=1)


def test_monomial_mul(benchmark, wide):
    monomials = wide[2][:60]

    def multiply_all():
        return [a.mul(b) for a in monomials for b in monomials]

    products = benchmark(multiply_all)
    assert len(products) == len(monomials) ** 2


def test_order_key(benchmark, wide):
    basis, _, monomials = wide
    order = basis.order

    def key_all():
        return [order.key(m) for m in monomials]

    keys = benchmark(key_all)
    assert len(set(keys)) == len(monomials)
    assert [order.monomial(k) for k in keys] == monomials


def test_decode_star6_generators(benchmark):
    ctx = DeformationContext(parse_poset(STAR6))
    order = ctx.order
    keys = [n for _, g in ctx.generators_packed() for n in g]

    def decode_all():
        return [order.monomial(-n) for n in keys]

    monomials = benchmark.pedantic(decode_all, rounds=10, warmup_rounds=1)
    assert len(keys) == 5089 and [-order.key(m) for m in monomials] == keys


def test_minor_d_widest_node(benchmark):
    tree = as_rooted_tree(parse_poset(WIDE_TREE))
    columns = range(len(tree.children("a")) + 1)

    def fresh_context():
        # the entries of M(a) are built here; the minors are memoized in the
        # context, so each round starts from a new one
        ctx = DeformationContext(tree)
        ctx._matrix_rows("a")
        return (ctx,), {}

    def minors(ctx):
        return [ctx.minor_d_packed("a", i) for i in columns]

    values = benchmark.pedantic(minors, setup=fresh_context, rounds=50)
    assert all(values)


def test_expand_star6_generators(benchmark):
    tree = as_rooted_tree(parse_poset(STAR6))

    def expand():
        return DeformationContext(tree).generators_packed()

    gens = benchmark.pedantic(expand, rounds=10, warmup_rounds=1)
    assert sum(len(g) for _, g in gens) == 5089


def test_basic_suite_star6(benchmark):
    def basic():
        return Verifier(parse_poset(STAR6)).run_basic()

    reports = benchmark.pedantic(basic, rounds=10, warmup_rounds=1)
    assert [r.name for r in reports][:2] == ["specialization", "homogeneity"]
    assert all(r.passed for r in reports)


def test_basic_suite_star7(benchmark):
    def basic():
        return Verifier(parse_poset(STAR7)).run_basic()

    reports = benchmark.pedantic(basic, rounds=3, warmup_rounds=1)
    assert all(r.passed for r in reports)


def test_run_full_wide7(benchmark):
    def full():
        return Verifier(parse_poset(WIDE_TREE)).run_full(max_degree=2)

    reports = benchmark.pedantic(full, rounds=10, warmup_rounds=1)
    assert len(reports) == 16 and all(r.passed for r in reports)


def test_run_full_star7(benchmark):
    def full():
        return Verifier(parse_poset(STAR7)).run_full(max_degree=3)

    reports = benchmark.pedantic(full, rounds=1)
    assert len(reports) == 16 and all(r.passed for r in reports)


def test_compare_hilbert_tree7(benchmark):
    # the hilbert workload's path: buchberger on the generators, then
    # _numerator on J's leads and on L's quadrics
    text = open(TREE7).read()

    def compare():
        return Verifier(parse_poset(text)).compare_hilbert(4)

    report = benchmark.pedantic(compare, rounds=10, warmup_rounds=1)
    assert report.passed


def test_certified_wide7(benchmark):
    # the certificate's lead and tail tests on the generators' entries and
    # their divisor memo, after the flatness checks passed
    verifier = Verifier(parse_poset(WIDE_TREE))
    assert all(r.passed for r in verifier.run_full(max_degree=2))

    entries = benchmark.pedantic(verifier._certified, rounds=50, warmup_rounds=1)
    assert entries == verifier.basis._leads


def test_truncated_hilbert_chain3(benchmark):
    verifier = Verifier(parse_poset(CHAIN3))
    leads = verifier.basis.leading_monomials()

    counts = benchmark.pedantic(
        truncated_hilbert, args=(leads, verifier.order.weights, 10), rounds=10
    )
    assert counts[:4] == [1, 6, 22, 61]


def test_truncated_hilbert_tree7(benchmark):
    verifier = Verifier(load_poset(TREE7))
    leads = verifier.basis.leading_monomials()
    weights = verifier.order.weights

    counts = benchmark.pedantic(truncated_hilbert, args=(leads, weights, 8), rounds=10)
    quadrics = [m for _, m in letterplace_generators(verifier.tree)]
    assert counts == truncated_hilbert(quadrics, weights, 8)


def test_homogeneous_degree(benchmark):
    ctx = DeformationContext(parse_poset(WIDE_TREE))
    generators, order = [g for _, g in ctx.generators_packed()], ctx.order

    def fresh_tree():
        # the packed degree table is built per tree, so each round pays for it
        return (as_rooted_tree(parse_poset(WIDE_TREE)),), {}

    def degrees(tree):
        return [homogeneous_degree(tree, g, order) for g in generators]

    values = benchmark.pedantic(degrees, setup=fresh_tree, rounds=20)
    assert len(values) == len(generators)


def run_lp(argv):
    """cli.run(argv) with its output captured: the exit code and stdout."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.run(argv)
    return code, out.getvalue()


def test_cli_gens_json_star6(benchmark, tmp_path):
    path = tmp_path / "star6.poset"
    path.write_text(STAR6)

    code, text = benchmark.pedantic(
        run_lp, args=(["gens", str(path), "--ideal", "J", "--json"],), rounds=10, warmup_rounds=1
    )
    assert code == 0
    assert sum(len(g["terms"]) for g in json.loads(text)["generators"]) == 5089


def test_cli_gens_json_star7(benchmark, tmp_path):
    path = tmp_path / "star7.poset"
    path.write_text(STAR7)

    code, text = benchmark.pedantic(
        run_lp, args=(["gens", str(path), "--ideal", "J", "--json"],), rounds=5, warmup_rounds=1
    )
    assert code == 0
    assert sum(len(g["terms"]) for g in json.loads(text)["generators"]) == 40384


def test_cli_info_wide7(benchmark, tmp_path):
    path = tmp_path / "wide7.poset"
    path.write_text(WIDE_TREE)

    code, text = benchmark.pedantic(
        run_lp, args=(["info", str(path), "--json"],), rounds=50, warmup_rounds=1
    )
    assert code == 0
    info = json.loads(text)
    assert info["elements"] == 7 and info["u_parameters"] == info["t1_generators"]


def test_cli_check_basic_wide7(benchmark, tmp_path):
    path = tmp_path / "wide7.poset"
    path.write_text(WIDE_TREE)

    code, text = benchmark.pedantic(
        run_lp, args=(["check", str(path), "--json"],), rounds=20, warmup_rounds=1
    )
    assert code == 0
    reports = json.loads(text)["reports"]
    assert len(reports) == 6 and all(r["passed"] for r in reports)


def test_cli_check_full_json_wide7(benchmark, tmp_path):
    # the largest --json answer that holds no generators: sixteen reports
    path = tmp_path / "wide7.poset"
    path.write_text(WIDE_TREE)

    code, text = benchmark.pedantic(
        run_lp, args=(["check", str(path), "--suite", "full", "--json"],), rounds=10, warmup_rounds=1
    )
    assert code == 0
    reports = json.loads(text)["reports"]
    assert len(reports) == 16 and all(r["passed"] for r in reports)


def test_cli_t1_json_wide7(benchmark, tmp_path):
    path = tmp_path / "wide7.poset"
    path.write_text(WIDE_TREE)

    code, text = benchmark.pedantic(
        run_lp, args=(["t1", str(path), "--json"],), rounds=50, warmup_rounds=1
    )
    assert code == 0
    assert len(json.loads(text)["generators"]) == len(t1_generators(parse_poset(WIDE_TREE))) > 0


def test_cli_gens_l_json_star7(benchmark, tmp_path):
    path = tmp_path / "star7.poset"
    path.write_text(STAR7)

    code, text = benchmark.pedantic(
        run_lp, args=(["gens", str(path), "--ideal", "L", "--json"],), rounds=50, warmup_rounds=1
    )
    assert code == 0
    assert [len(g["terms"]) for g in json.loads(text)["generators"]] == [1] * 15


def test_t1_chain20(benchmark):
    chain = parse_poset(CHAIN20)

    gens = benchmark.pedantic(t1_generators, args=(chain,), rounds=3)
    assert len(gens) == 20


def test_t1_star16(benchmark):
    star = parse_poset(STAR16)

    gens = benchmark.pedantic(t1_generators, args=(star,), rounds=10, warmup_rounds=1)
    assert len(gens) == 16 * 16 + 1


def test_t1_bipartite10(benchmark):
    poset = parse_poset(BIPARTITE10)

    gens = benchmark.pedantic(t1_generators, args=(poset,), rounds=10, warmup_rounds=1)
    assert len(gens) == 200


def test_lower_bound_sets_star1000_root(benchmark):
    star = parse_poset(STAR1000)

    sets = benchmark.pedantic(
        minimal_lower_bound_sets, args=(star, LEAVES1000, LEAVES1000), rounds=3
    )
    assert sets == [tuple(LEAVES1000)]


def test_parse_chain2400(benchmark):
    chain = benchmark.pedantic(parse_poset, args=(CHAIN2400,), rounds=3)
    assert len(chain) == 2400 and chain.linear_extension()[-1] == "e2399"


def test_count_order_ideals_antichain20(benchmark):
    antichain = parse_poset(ANTICHAIN20)

    count = benchmark.pedantic(antichain.count_order_ideals, rounds=3)
    assert count == 2**20
