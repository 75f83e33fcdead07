"""Per-layer tracing from outside the program.

`Tracer.install()` wraps the public entry points of each lpdeform module and
`uninstall()` puts the originals back; nothing under src/ is edited.  A
wrapped call opens a span named after its layer.  A span's self time is its
duration minus the time covered by the spans it opened; a call into a span
of the same name as the one already open folds into it, so the memoised
recursion and nested parsing calls are billed once.  Spans are aggregated
in memory as they close (self time and calls per name, plus time per
parent -> child edge), because wide opens hundreds of thousands of them.

Counters sit at the same boundaries:

  groebner.nf_calls, nf_nonzero  normal forms computed, and how many were not 0
  groebner.spairs                S-pairs Buchberger reduced (s_polynomial calls)
  groebner.basis_added           S-pair remainders added to the basis
  polynomials.order_key_calls    MonomialOrder.key calls
  polynomials.mono_mul_calls     Monomial.mul calls
  deformation.generator_terms    terms over every generator list built
  grading.hilbert_monomials      monomials truncated_hilbert enumerates: all
                                 monomials of weight <= max_degree, counted
                                 from its arguments
"""

from __future__ import annotations

import sys
import time
from collections import Counter, defaultdict

# (module, attribute path, span name); "Class.method" wraps a method
SPANS = (
    ("posets", "parse_poset", "posets.parse"),
    ("posets", "load_poset", "posets.parse"),
    ("posets", "as_rooted_tree", "posets.parse"),
    ("deformation", "j_ideal_generators", "deformation.generators"),
    ("deformation", "DeformationContext.j_ideal_generators", "deformation.generators"),
    ("deformation", "DeformationContext.t_sub", "deformation.recursion"),
    ("deformation", "DeformationContext.t_full", "deformation.recursion"),
    ("deformation", "DeformationContext.st_entry", "deformation.recursion"),
    ("deformation", "DeformationContext.matrix_m", "deformation.recursion"),
    ("deformation", "DeformationContext.minor_d", "deformation.recursion"),
    ("deformation", "DeformationContext.minor_d_child", "deformation.recursion"),
    ("deformation", "DeformationContext.generalized_minor", "deformation.recursion"),
    ("deformation", "DeformationContext.cover_product_r", "deformation.recursion"),
    ("deformation", "DeformationContext.s_op", "deformation.recursion"),
    ("deformation", "DeformationContext.s_op_linear", "deformation.recursion"),
    ("letterplace", "comparable_pairs", "letterplace"),
    ("letterplace", "letterplace_generators", "letterplace"),
    ("letterplace", "letterplace_polynomials", "letterplace"),
    ("letterplace", "u_variables", "letterplace"),
    ("letterplace", "x_variables", "letterplace"),
    ("letterplace", "ring_variables", "letterplace"),
    ("groebner", "buchberger", "groebner.basis"),
    ("grading", "homogeneous_degree", "grading.degree"),
    ("grading", "monomial_degree", "grading.degree"),
    ("grading", "variable_degree", "grading.degree"),
    ("grading", "hat_degree", "grading.degree"),
    ("cotangent", "t1_generators", "cotangent.t1"),
    ("cotangent", "t1_generators_tree", "cotangent.t1"),
    ("verifier", "Verifier.check_specialization", "verifier.specialization"),
    ("verifier", "Verifier.check_homogeneity", "verifier.homogeneity"),
    ("verifier", "Verifier.check_degree_formulas", "verifier.degree_formulas"),
    ("verifier", "Verifier.check_flat_basic", "verifier.flat_basic"),
    ("verifier", "Verifier.check_lemma_identities", "verifier.lemma_identities"),
    ("verifier", "Verifier.check_flat_p2", "verifier.flat_p2"),
    ("verifier", "Verifier.check_relation_lifts", "verifier.relation_lifts"),
    ("verifier", "Verifier.compare_hilbert", "verifier.hilbert"),
    ("cli", "run", "cli"),
)

# per-layer metric -> span whose self time it reports
SELF_TIME_METRICS = {
    "groebner.nf_s": "groebner.nf",
    "groebner.basis_s": "groebner.basis",
    "grading.degree_s": "grading.degree",
    "grading.hilbert_s": "grading.hilbert",
    "deformation.generators_s": "deformation.generators",
    "deformation.recursion_s": "deformation.recursion",
    "letterplace.self_s": "letterplace",
    "cotangent.t1_s": "cotangent.t1",
    "posets.parse_s": "posets.parse",
    "cli.self_s": "cli",
}
SELF_TIME_METRICS.update(
    {f"{name}_self_s": name for _, _, name in SPANS if name.startswith("verifier.")}
)
COUNT_METRICS = (
    "groebner.nf_nonzero",
    "groebner.spairs",
    "groebner.basis_added",
    "polynomials.order_key_calls",
    "polynomials.mono_mul_calls",
    "deformation.generator_terms",
    "grading.hilbert_monomials",
)


def monomials_up_to(weights, max_degree):
    """Number of monomials of weighted degree <= max_degree."""
    ways = [1] + [0] * max(max_degree, 0)
    for w in weights:
        for d in range(w, len(ways)):
            ways[d] += ways[d - w]
    return sum(ways) if max_degree >= 0 else 0


class Tracer:
    def __init__(self):
        self.modules = [m for n, m in sys.modules.items() if n == "lpdeform" or n.startswith("lpdeform.")]
        self.stack = []  # [span name, time covered by child spans]
        self.self_s = defaultdict(float)
        self.calls = Counter()  # spans closed, per name
        self.edges = defaultdict(float)  # (parent, child) -> child duration
        self.counts = Counter()
        self._undo = []
        self._last_spoly = None

    # -- spans -----------------------------------------------------------------

    def span(self, name, fn, after=None):
        stack = self.stack

        def wrapper(*args, **kwargs):
            if stack and stack[-1][0] == name:
                out = fn(*args, **kwargs)
            else:
                frame = [name, 0.0]
                stack.append(frame)
                start = time.perf_counter()
                try:
                    out = fn(*args, **kwargs)
                finally:
                    took = time.perf_counter() - start
                    stack.pop()
                    self.self_s[name] += took - frame[1]
                    self.calls[name] += 1
                    if stack:
                        stack[-1][1] += took
                        self.edges[(stack[-1][0], name)] += took
            if after is not None:
                after(args, kwargs, out)
            return out

        return wrapper

    def counted(self, counter, fn):
        counts = self.counts

        def wrapper(*args):
            counts[counter] += 1
            return fn(*args)

        return wrapper

    # -- counters attached to spans ----------------------------------------------

    def _after_nf(self, args, kwargs, out):
        self.counts["groebner.nf_nonzero"] += not out.is_zero

    def _after_generators(self, args, kwargs, out):
        if self.stack and self.stack[-1][0] == "deformation.generators":
            return  # the module function calls the method: count once
        self.counts["deformation.generator_terms"] += sum(len(g.terms) for _, g in out)

    def _after_hilbert(self, args, kwargs, out):
        weights = args[1] if len(args) > 1 else kwargs["weights"]
        degree = args[2] if len(args) > 2 else kwargs["max_degree"]
        self.counts["grading.hilbert_monomials"] += monomials_up_to(weights.values(), degree)

    # -- installing ----------------------------------------------------------------

    def _replace(self, owner, attr, new):
        """Point owner.attr, and every module global bound to the same
        object, at `new`."""
        old = getattr(owner, attr)
        targets = [owner] if isinstance(owner, type) else []
        targets += [m for m in self.modules if getattr(m, attr, None) is old]
        for target in targets:
            self._undo.append((target, attr, target.__dict__[attr]))
            setattr(target, attr, new)

    def _wrap(self, module, path, make):
        owner = sys.modules[f"lpdeform.{module}"]
        *cls, attr = path.split(".")
        if cls:
            owner = getattr(owner, cls[0])
        self._replace(owner, attr, make(getattr(owner, attr)))

    def install(self):
        after = {"deformation.generators": self._after_generators}
        for module, path, name in SPANS:
            self._wrap(module, path, lambda fn, n=name: self.span(n, fn, after.get(n)))
        self._wrap(
            "groebner",
            "GroebnerBasis.normal_form",
            lambda fn: self.span("groebner.nf", fn, self._after_nf),
        )
        self._wrap(
            "grading",
            "truncated_hilbert",
            lambda fn: self.span("grading.hilbert", fn, self._after_hilbert),
        )
        self._wrap("groebner", "s_polynomial", self._spoly_wrapper)
        self._wrap("groebner", "_divide", self._divide_wrapper)
        self._wrap("polynomials", "Monomial.mul", lambda fn: self.counted("polynomials.mono_mul_calls", fn))
        self._wrap("polynomials", "MonomialOrder.key", lambda fn: self.counted("polynomials.order_key_calls", fn))

    def uninstall(self):
        while self._undo:
            target, attr, old = self._undo.pop()
            setattr(target, attr, old)

    def _spoly_wrapper(self, fn):
        def s_polynomial(*args):
            self.counts["groebner.spairs"] += 1
            self._last_spoly = fn(*args)
            return self._last_spoly

        return s_polynomial

    def _divide_wrapper(self, fn):
        def _divide(f, *args, **kwargs):
            out = fn(f, *args, **kwargs)
            if f is self._last_spoly:  # Buchberger reducing an S-pair
                self._last_spoly = None
                self.counts["groebner.basis_added"] += not out.is_zero
            return out

        return _divide

    # -- results ---------------------------------------------------------------

    def metrics(self):
        out = {m: self.self_s.get(span, 0.0) for m, span in SELF_TIME_METRICS.items()}
        out.update({m: self.counts[m] for m in COUNT_METRICS})
        out["groebner.nf_calls"] = self.calls["groebner.nf"]
        return out

    def edge_report(self):
        """Lines 'parent -> child seconds', largest first."""
        rows = sorted(self.edges.items(), key=lambda kv: -kv[1])
        return [f"{p} -> {c} {t:.4f}" for (p, c), t in rows]
