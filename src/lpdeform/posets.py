"""Finite posets, rooted trees, and the plain-text input format.

A poset is stored as its element list (first-appearance order), one
closure (the strict filter above each element), the Hasse diagram, and its
linear extension with each element's `rank`, all made at construction;
`above(p)` is the order every layer reads.  Rooted trees are posets whose
Hasse diagram is a tree with the root as the unique minimal element; for
those we also keep the parent map.

The text format, one declaration per line:

    # comment
    elem r          (declare an element with no relations)
    a < b           (a is strictly below b)

Names match [A-Za-z][A-Za-z0-9]*.  Repeating a relation is harmless.
"""

from __future__ import annotations

import heapq
import re
from functools import lru_cache

from .errors import CycleError, NotATreeError, ParseError, SizeLimitError

_NAME = r"[A-Za-z][A-Za-z0-9]*"
_NAME_RE = re.compile(rf"^{_NAME}$")
_REL_RE = re.compile(rf"^({_NAME})\s*<\s*({_NAME})$")
_ELEM_RE = re.compile(rf"^elem\s+({_NAME})$")

ORDER_IDEAL_LIMIT = 20


class Poset:
    """A finite partially ordered set.

    `relations` is any iterable of (p, q) pairs meaning p < q; the
    constructor takes the transitive closure (the filters; ideals are read
    off it when asked for), rejects cycles, computes the cover relations
    (transitive reduction), the linear extension and `rank`, each
    element's index in it.  `above(p)` is p's filter in that order.
    """

    def __init__(self, elements, relations):
        self.elements = tuple(elements)
        self._index = {p: i for i, p in enumerate(self.elements)}
        if len(self._index) != len(self.elements):
            raise ParseError("duplicate element in element list")
        succ = {p: set() for p in self.elements}
        for p, q in relations:
            if p not in self._index or q not in self._index:
                raise ParseError(f"relation mentions undeclared element: {p} < {q}")
            succ[p].add(q)
        # transitive closure by DFS from each element
        above = {}
        for p in self.elements:
            seen = set()
            stack = list(succ[p])
            while stack:
                q = stack.pop()
                if q in seen:
                    continue
                seen.add(q)
                stack.extend(succ[q])
            if p in seen:
                raise CycleError(f"cycle through element {p!r}")
            above[p] = frozenset(seen)
        self._above = above
        # q covers p when q is a direct successor of p and lies above none
        # of the others: anything between p and q lies at or above one
        index = self._index.__getitem__
        self.covers = tuple(
            (p, q)
            for p in self.elements
            for q in sorted(succ[p], key=index)
            if not any(q in above[r] for r in succ[p])
        )
        self._upper = {p: [] for p in self.elements}
        self._lower = {p: [] for p in self.elements}
        for p, q in self.covers:
            self._upper[p].append(q)
            self._lower[q].append(p)
        # Kahn's algorithm, the ready elements on a min-heap of names
        waiting = {q: len(ps) for q, ps in self._lower.items()}
        ready = [p for p, n in waiting.items() if not n]
        heapq.heapify(ready)
        out = []
        while ready:
            p = heapq.heappop(ready)
            out.append(p)
            for q in self._upper[p]:
                waiting[q] -= 1
                if not waiting[q]:
                    heapq.heappush(ready, q)
        self._linext = tuple(out)
        self.rank = {p: i for i, p in enumerate(out)}
        self._above_in_order = {}

    # -- basic relation queries ------------------------------------------

    def __len__(self):
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def __contains__(self, p):
        return p in self._index

    def le(self, p, q):
        return p == q or q in self._above[p]

    def lt(self, p, q):
        return q in self._above[p]

    def comparable(self, p, q):
        return self.le(p, q) or self.le(q, p)

    def upper_covers(self, p):
        return tuple(self._upper[p])

    def lower_covers(self, q):
        return tuple(self._lower[q])

    # -- ideals and filters ----------------------------------------------

    def strict_ideal_below(self, p):
        """J(<p): everything strictly below p."""
        return frozenset(q for q in self.elements if p in self._above[q])

    def strict_filter_above(self, p):
        """F(>p): everything strictly above p."""
        return self._above[p]

    def ideal_at_or_below(self, p):
        return self.strict_ideal_below(p) | {p}

    def filter_at_or_above(self, p):
        return self._above[p] | {p}

    def above(self, p):
        """The filter at or above p as a tuple in linear-extension order,
        made at the first call and kept."""
        if p not in self._above_in_order:
            self._above_in_order[p] = tuple(sorted(self._above[p] | {p}, key=self.rank.get))
        return self._above_in_order[p]

    def minimal_elements(self):
        return tuple(p for p in self.elements if not self._lower[p])

    def maximal_elements(self):
        return tuple(p for p in self.elements if not self._above[p])

    # -- global structure --------------------------------------------------

    def linear_extension(self):
        """Topological order; ties broken by element name (lexicographic).
        Made once, at construction; `rank` maps each element to its index."""
        return self._linext

    def count_order_ideals(self):
        """Number of downward-closed subsets, the multiplicity of L(2,P).

        One walk along the linear extension per ideal, on an explicit
        stack: an element joins once its lower covers have, and the walk
        leaving it out is pushed for later.  The time is the count, so it is
        guarded: posets beyond ORDER_IDEAL_LIMIT elements are refused.
        """
        n = len(self.elements)
        if n > ORDER_IDEAL_LIMIT:
            raise SizeLimitError(
                f"order-ideal count is only supported up to {ORDER_IDEAL_LIMIT} "
                f"elements (got {n})"
            )
        # the lower covers of the i-th element, as bits of their ranks
        needs = [sum(1 << self.rank[q] for q in self._lower[p]) for p in self._linext]
        count = 0
        stack = [(0, 0)]  # (the next rank to decide, the ranks joined so far)
        while stack:
            i, joined = stack.pop()
            for i in range(i, n):
                if not needs[i] & ~joined:
                    stack.append((i + 1, joined))
                    joined |= 1 << i
            count += 1
        return count

    def to_json_dict(self):
        roots = self.minimal_elements()
        return {
            "elements": list(self.elements),
            "covers": [[p, q] for (p, q) in self.covers],
            "root": roots[0] if len(roots) == 1 else None,
        }

    def __repr__(self):
        return f"Poset({list(self.elements)!r}, covers={list(self.covers)!r})"


class RootedTree(Poset):
    """A poset whose Hasse diagram is a tree rooted at the unique minimum.

    The root is the bottom element; `parent(p)` is the unique lower cover
    of every non-root p.  Children are listed in linear-extension order,
    which is what every recursion in the package iterates over.
    """

    def __init__(self, elements, relations):
        super().__init__(elements, relations)
        self._root()

    def _root(self):
        """Check that the Hasse diagram is a tree with a unique minimum, and
        make the root, parent, children and depth tables."""
        roots = self.minimal_elements()
        if len(self.elements) == 0:
            raise NotATreeError("empty poset has no root")
        if len(roots) != 1:
            raise NotATreeError(f"expected a unique minimal element, found {list(roots)}")
        self.root = roots[0]
        self._parent = {}
        for p in self.elements:
            if p == self.root:
                continue
            lows = self.lower_covers(p)
            if len(lows) != 1:
                raise NotATreeError(
                    f"element {p!r} has {len(lows)} lower covers; a tree needs exactly 1"
                )
            self._parent[p] = lows[0]
        self._children = {
            p: tuple(sorted(self.upper_covers(p), key=self.rank.__getitem__)) for p in self.elements
        }
        self._depth = {}
        for p in reversed(self._linext):
            kids = self._children[p]
            self._depth[p] = 1 + max(self._depth[b] for b in kids) if kids else 0

    def parent(self, p):
        """The unique lower cover of p; None for the root."""
        return self._parent.get(p)

    def children(self, p):
        return self._children[p]

    def siblings(self, p):
        """The other children of parent(p); empty for the root."""
        a = self.parent(p)
        if a is None:
            return ()
        return tuple(c for c in self._children[a] if c != p)

    def meet(self, p, q):
        """The deepest common ancestor of p and q (always exists: trees
        have a bottom element)."""
        anc = {p}
        r = p
        while r != self.root:
            r = self._parent[r]
            anc.add(r)
        r = q
        while r not in anc:
            r = self._parent[r]
        return r

    def depth(self, p):
        """Length of the longest chain going up from p (maximal elements
        have depth 0)."""
        return self._depth[p]


def as_rooted_tree(poset):
    """The Poset as a RootedTree (raises NotATreeError).  The tree shares
    the Poset's closure, covers and linear extension, which a RootedTree
    built from the covers would compute again to the same values, and only
    the tree conditions are checked."""
    if isinstance(poset, RootedTree):
        return poset
    tree = RootedTree.__new__(RootedTree)
    tree.__dict__.update(poset.__dict__)
    tree._root()
    return tree


def parse_poset(text):
    """Parse the line-based poset format (see module docstring)."""
    elements = []
    seen = set()
    relations = []

    def declare(name):
        if name not in seen:
            seen.add(name)
            elements.append(name)

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        m = _ELEM_RE.match(line)
        if m:
            declare(m.group(1))
            continue
        m = _REL_RE.match(line)
        if m:
            p, q = m.group(1), m.group(2)
            declare(p)
            declare(q)
            relations.append((p, q))
            continue
        raise ParseError(f"line {lineno}: cannot parse {raw.strip()!r}")
    return Poset(elements, relations)


def load_poset(path):
    with open(path, "r", encoding="utf-8") as fh:
        return parse_poset(fh.read())


# -- exhaustive rooted-tree shapes ----------------------------------------
#
# A shape is a tuple of child shapes, children sorted, so equal trees have
# equal shapes.  Counts per node number go 1, 1, 2, 4, 9, 20, ...

@lru_cache(maxsize=None)
def rooted_tree_shapes(n):
    """All unlabeled rooted trees with n nodes, as canonical nested tuples."""
    if n < 1:
        return ()
    if n == 1:
        return ((),)
    shapes = set()
    for forest in _forests(n - 1):
        shapes.add(tuple(sorted(forest)))
    return tuple(sorted(shapes))


@lru_cache(maxsize=None)
def _forests(total):
    """All multisets (as sorted tuples) of rooted-tree shapes with `total`
    nodes altogether."""
    if total == 0:
        return ((),)
    out = set()
    for size in range(1, total + 1):
        for shape in rooted_tree_shapes(size):
            for rest in _forests(total - size):
                out.add(tuple(sorted(rest + (shape,))))
    return tuple(sorted(out))


def shape_size(shape):
    return 1 + sum(shape_size(c) for c in shape)


def shape_to_tree(shape):
    """Materialize a shape as a RootedTree with elements named a, b, c, ...
    in preorder (children visited in canonical shape order)."""
    n = shape_size(shape)
    if n > 26:
        raise SizeLimitError("shape_to_tree names elements a..z; 26 nodes max")
    names = [chr(ord("a") + i) for i in range(n)]
    counter = [0]
    relations = []

    def walk(sub):
        me = names[counter[0]]
        counter[0] += 1
        for child in sub:
            relations.append((me, walk(child)))
        return me

    walk(shape)
    return RootedTree(names[:n], relations)


def all_rooted_trees(max_nodes):
    """Every rooted tree with 1..max_nodes nodes, deterministically ordered."""
    for n in range(1, max_nodes + 1):
        for shape in rooted_tree_shapes(n):
            yield shape_to_tree(shape)
