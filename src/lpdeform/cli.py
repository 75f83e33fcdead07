"""Command-line interface.

    lp gens --ideal L|J POSET [--max-terms N] [--json] [--compare FILE]
    lp t1 POSET [--json]
    lp check POSET [--suite basic|full] [--max-degree N] [--max-pairs N]
             [--max-weight N] [--max-terms N] [--json]
    lp hilbert POSET [--max-degree N] [--max-pairs N] [--max-weight N]
               [--max-terms N] [--json]
    lp info POSET [--json]

Exit codes: 0 success / everything PASS, 1 a verification or comparison
failed, 2 usage or input problems, 3 a resource budget tripped.
"""

from __future__ import annotations

import argparse
import json
import sys
from json.encoder import encode_basestring_ascii

from .cotangent import t1_generators
from .deformation import DEFAULT_MAX_TERMS, DeformationContext
from .errors import LpError, ResourceLimitError
from .grading import monomial_order_for
from .groebner import DEFAULT_MAX_PAIRS, DEFAULT_MAX_WEIGHT, _unpack
from .letterplace import letterplace_generators, u_variables, x_variables
from .polynomials import (
    MonomialOrder,
    packed_to_json,
    parse_polynomial,
    render_monomial,
    render_packed,
    render_polynomial,
    variable_table,
)
from .posets import as_rooted_tree, load_poset
from .verifier import Verifier

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3


def _json(x, pad="\n"):
    """json.dumps(x, indent=2), byte for byte: CPython's C encoder does not
    indent, so json.dumps falls back to pure Python when `indent` is set.
    `pad` is the newline and indentation of x's own line."""
    if isinstance(x, str):
        return encode_basestring_ascii(x)
    if type(x) is int:
        return int.__repr__(x)
    if isinstance(x, dict):
        if not x:
            return "{}"
        inner = pad + "  "
        items = [
            encode_basestring_ascii(k if isinstance(k, str) else json.dumps(k)) + ": " + _json(v, inner)
            for k, v in x.items()
        ]
        return "{" + inner + ("," + inner).join(items) + pad + "}"
    if isinstance(x, (list, tuple)):
        if not x:
            return "[]"
        inner = pad + "  "
        return "[" + inner + ("," + inner).join([_json(v, inner) for v in x]) + pad + "]"
    return json.dumps(x)  # floats, bools, None


def _order_for(poset):
    """The canonical rendering/working order: the full weighted tree order
    when possible, otherwise plain weight-1 on the x-variables."""
    try:
        return monomial_order_for(as_rooted_tree(poset))
    except LpError:
        xs = x_variables(poset)
        return MonomialOrder(xs, {v: 1 for v in xs})


def compare_fixture(computed, fixture_path, variables):
    """Compare a computed polynomial collection against a fixture file
    (one polynomial per line, '#' comments) as canonical sets.

    Returns (passed, missing, extra): fixture lines the computation lacks,
    and computed polynomials the fixture lacks.
    """
    table = variable_table(variables)
    wanted = set()
    with open(fixture_path, "r", encoding="utf-8") as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if line:
                wanted.add(parse_polynomial(line, table))
    got = set(computed)
    missing = sorted(wanted - got, key=repr)
    extra = sorted(got - wanted, key=repr)
    return (not missing and not extra, missing, extra)


def _cmd_gens(args):
    """The generators are rendered from their packed form; they are
    unpacked only for --compare, which reads the fixture and renders the
    differences, so a fixture past the key bound raises, before anything is
    written."""
    poset = load_poset(args.poset)
    if args.ideal == "L":
        order = _order_for(poset)
        gens = [(pair, {-order.key(m): 1}) for pair, m in letterplace_generators(poset)]
    else:
        ctx = DeformationContext(as_rooted_tree(poset), args.max_terms)
        order, gens = ctx.order, ctx.generators_packed()
    if args.compare:
        passed, missing, extra = compare_fixture(
            [_unpack(g, order) for _, g in gens], args.compare, order.variables
        )
        diff = [f"  missing: {render_polynomial(f, order)}" for f in missing]
        diff += [f"  extra:   {render_polynomial(f, order)}" for f in extra]
    if args.json:
        payload = {
            "ideal": args.ideal,
            "poset": poset.to_json_dict(),
            "generators": [
                {"pair": [p, q], "terms": packed_to_json(g, order)} for (p, q), g in gens
            ],
        }
        print(_json(payload))
    else:
        for _, g in gens:
            print(render_packed(g, order))
    if args.compare:
        if passed:
            print(f"PASS fixture {args.compare}: {len(gens)} generators match")
            return EXIT_OK
        print(f"FAIL fixture {args.compare}")
        for line in diff:
            print(line)
        return EXIT_FAIL
    return EXIT_OK


def _cmd_t1(args):
    poset = load_poset(args.poset)
    order = _order_for(poset)
    gens = t1_generators(poset)
    if args.json:
        payload = {
            "poset": poset.to_json_dict(),
            "generators": [
                {
                    "source": t.source,
                    "lower": list(t.lower_set),
                    "upper": list(t.upper_set),
                    "image": render_monomial(t.image, order),
                }
                for t in gens
            ],
        }
        print(_json(payload))
    else:
        for t in gens:
            print(f"{t.source}1*{t.source}2 -> {render_monomial(t.image, order)}")
    return EXIT_OK


def _cmd_check(args):
    tree = as_rooted_tree(load_poset(args.poset))
    verifier = Verifier(
        tree, max_pairs=args.max_pairs, max_weight=args.max_weight, max_terms=args.max_terms
    )
    if args.suite == "basic":
        reports = verifier.run_basic()
    else:
        reports = verifier.run_full(max_degree=args.max_degree)
    passed = sum(1 for r in reports if r.passed)
    if args.json:
        payload = {
            "poset": tree.to_json_dict(),
            "suite": args.suite,
            "reports": [r.to_json_dict() for r in reports],
            "passed": passed == len(reports),
        }
        print(_json(payload))
    else:
        for r in reports:
            print(r.line())
        print(f"{passed}/{len(reports)} checks passed")
    return EXIT_OK if passed == len(reports) else EXIT_FAIL


def _cmd_hilbert(args):
    tree = as_rooted_tree(load_poset(args.poset))
    verifier = Verifier(
        tree, max_pairs=args.max_pairs, max_weight=args.max_weight, max_terms=args.max_terms
    )
    report = verifier.compare_hilbert(args.max_degree)
    if args.json:
        payload = {
            "poset": tree.to_json_dict(),
            "max_degree": args.max_degree,
            "J": report.params["J"],
            "L": report.params["L"],
            "passed": report.passed,
        }
        print(_json(payload))
    else:
        print(f"J: {report.params['J']}")
        print(f"L: {report.params['L']}")
        print("PASS" if report.passed else "FAIL")
    return EXIT_OK if report.passed else EXIT_FAIL


def _cmd_info(args):
    poset = load_poset(args.poset)
    try:
        tree = as_rooted_tree(poset)
    except LpError:
        tree = None
    t1 = t1_generators(poset)
    info = {
        "elements": len(poset),
        "codimension": len(poset),
        "multiplicity": poset.count_order_ideals(),
        "tree": tree is not None,
        "u_parameters": None,
        "t1_generators": len(t1),
    }
    agree = True
    if tree is not None:
        info["u_parameters"] = len(u_variables(tree))
        agree = info["u_parameters"] == info["t1_generators"]
    if args.json:
        info["agree"] = agree
        print(_json(info))
    else:
        print(f"elements:       {info['elements']}")
        print(f"codimension:    {info['codimension']}")
        print(f"multiplicity:   {info['multiplicity']}")
        if tree is not None:
            print(f"u-parameters:   {info['u_parameters']}")
        print(f"t1-generators:  {info['t1_generators']}")
        if tree is not None and not agree:
            print("ERROR: u-parameter and cotangent counts disagree")
    return EXIT_OK if agree else EXIT_FAIL


def _nonnegative(text):
    """argparse type for --max-degree and the budgets: a nonnegative int.
    A negative degree would compare empty Hilbert functions and pass
    vacuously; a negative budget would trip on the first S-pair."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be nonnegative, got {value}")
    return value


def _add_max_terms(p):
    p.add_argument(
        "--max-terms",
        type=_nonnegative,
        default=DEFAULT_MAX_TERMS,
        metavar="N",
        help="terms the generator expansion may hold (default %(default)s)",
    )


def _add_budgets(p):
    p.add_argument(
        "--max-pairs",
        type=_nonnegative,
        default=DEFAULT_MAX_PAIRS,
        metavar="N",
        help="S-pairs Buchberger may reduce (default %(default)s)",
    )
    p.add_argument(
        "--max-weight",
        type=_nonnegative,
        default=DEFAULT_MAX_WEIGHT,
        metavar="N",
        help="largest S-pair lcm weight Buchberger may reach (default %(default)s)",
    )
    _add_max_terms(p)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="lp",
        description="Deformed letterplace ideals of rooted-tree posets.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gens", help="print ideal generators")
    p.add_argument("poset", help="poset file")
    p.add_argument("--ideal", choices=["L", "J"], required=True)
    p.add_argument("--json", action="store_true")
    p.add_argument("--compare", metavar="FILE", help="fixture file to compare against")
    _add_max_terms(p)
    p.set_defaults(func=_cmd_gens)

    p = sub.add_parser("t1", help="print cotangent generators")
    p.add_argument("poset")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_t1)

    p = sub.add_parser("check", help="run the verification suite")
    p.add_argument("poset")
    p.add_argument("--suite", choices=["basic", "full"], default="basic")
    p.add_argument("--max-degree", type=_nonnegative, default=4)
    _add_budgets(p)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("hilbert", help="compare truncated Hilbert functions")
    p.add_argument("poset")
    p.add_argument("--max-degree", type=_nonnegative, default=4)
    _add_budgets(p)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_hilbert)

    p = sub.add_parser("info", help="summary invariants of a poset")
    p.add_argument("poset")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_info)
    return parser


def run(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code in (0, None) else EXIT_USAGE
    try:
        return args.func(args)
    except ResourceLimitError as exc:
        print(f"lp: resource limit: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except LpError as exc:
        print(f"lp: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"lp: {exc}", file=sys.stderr)
        return EXIT_USAGE


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
