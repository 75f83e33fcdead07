"""Exact sparse multivariate polynomial arithmetic over Q.

Two kinds of variables occur.  An x-variable carries a place in {1, 2} and
a poset element, and renders as ``a1``, ``a2``.  A u-variable carries a
pair of poset elements (the upper slot may be empty) and renders as
``u[a,b]`` or ``u[0,b]``.  Monomials and polynomials are immutable with
canonical internal form, so structural equality and hashing just work.

Each atom has one canonical form, decided here.  A variable is a tuple
that is its own storage key, so equality, hashing and the order of
monomial factors are tuple operations.  A coefficient is an int unless a
non-integer took part in making it: `_as_coeff` turns every outside scalar
into an int when it is integral, int arithmetic stays int, and polynomial
`+` and `*` turn an integral Fraction sum back into an int (inline, so the
int path pays one class check per term).

Term order is always explicit: a MonomialOrder fixes the variable sequence
and positive integer weights, compares by weighted degree and breaks ties
reverse-lexicographically (the later a variable sits in the sequence, the
more an exponent on it *hurts*).
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction
from functools import partial
from itertools import compress
from json.encoder import encode_basestring_ascii
from operator import itemgetter

from .errors import (
    DomainError,
    MinorIndexError,
    NonSquareError,
    ParseError,
    ResourceLimitError,
    ShapeError,
    UnknownVariableError,
)


class XVar(tuple):
    """The letterplace variable x_{place, element}, stored as the tuple
    (0, element, place)."""

    __slots__ = ()

    def __new__(cls, place, element):
        if place not in (1, 2):
            raise DomainError(f"x-variable place must be 1 or 2, got {place!r}")
        return tuple.__new__(cls, (0, element, place))

    element = property(itemgetter(1))
    place = property(itemgetter(2))

    def render(self):
        return f"{self.element}{self.place}"

    def __repr__(self):
        return self.render()


class UVar(tuple):
    """The deformation parameter u_{upper, lower}; upper=None is the empty
    slot reserved for the root.  Stored as the tuple (1, lower, 1, upper),
    or (1, lower, 0, "") for the empty slot, which sorts first."""

    __slots__ = ()

    def __new__(cls, upper, lower):
        key = (1, lower, 0, "") if upper is None else (1, lower, 1, upper)
        return tuple.__new__(cls, key)

    lower = property(itemgetter(1))

    @property
    def upper(self):
        return self[3] if self[2] else None

    def render(self):
        return f"u[{self[3] or '0'},{self.lower}]"

    def __repr__(self):
        return self.render()


class Monomial:
    """A power product, stored as a sorted tuple of (variable, exponent>0)."""

    __slots__ = ("pairs", "_hash")

    def __init__(self, pairs=()):
        # `pairs` is trusted to be normalized; use from_pairs otherwise.
        self.pairs = tuple(pairs)
        self._hash = hash(self.pairs)

    @staticmethod
    def from_pairs(pairs):
        acc = {}
        for v, e in pairs:
            acc[v] = acc.get(v, 0) + e
        for v, e in acc.items():
            if e < 0:
                raise DomainError(f"negative exponent on {v!r}")
        return Monomial(sorted((v, e) for v, e in acc.items() if e != 0))

    @staticmethod
    def var(v, exp=1):
        return Monomial.from_pairs([(v, exp)])

    @property
    def is_one(self):
        return not self.pairs

    def degree(self):
        return sum(e for _, e in self.pairs)

    def u_degree(self):
        """Total exponent carried by u-variables."""
        return sum(e for v, e in self.pairs if isinstance(v, UVar))

    def exponent(self, v):
        for w, e in self.pairs:
            if w == v:
                return e
        return 0

    def variables(self):
        return tuple(v for v, _ in self.pairs)

    def mul(self, other):
        a, b = self.pairs, other.pairs
        na, nb = len(a), len(b)
        i = j = 0
        out = []
        while i < na and j < nb:
            pa, pb = a[i], b[j]
            va, vb = pa[0], pb[0]
            if va == vb:
                out.append((va, pa[1] + pb[1]))
                i += 1
                j += 1
            elif va < vb:
                out.append(pa)
                i += 1
            else:
                out.append(pb)
                j += 1
        out.extend(a[i:])
        out.extend(b[j:])
        return Monomial(out)

    def divides(self, other):
        j = 0
        ob = other.pairs
        n = len(ob)
        for v, e in self.pairs:
            while j < n and ob[j][0] < v:
                j += 1
            if j >= n or ob[j][0] != v or ob[j][1] < e:
                return False
        return True

    def div(self, other):
        """self / other; other must divide self."""
        if not other.divides(self):
            raise DomainError(f"{other!r} does not divide {self!r}")
        quo = dict(self.pairs)
        for v, e in other.pairs:
            quo[v] -= e
        # quo keeps the sorted order of self.pairs
        return Monomial((v, e) for v, e in quo.items() if e)

    def lcm(self, other):
        acc = dict(self.pairs)
        for v, e in other.pairs:
            if acc.get(v, 0) < e:
                acc[v] = e
        return Monomial(sorted(acc.items()))

    def __eq__(self, other):
        return isinstance(other, Monomial) and self.pairs == other.pairs

    def __hash__(self):
        return self._hash

    def __repr__(self):
        if not self.pairs:
            return "1"
        return "*".join(
            v.render() + (f"^{e}" if e != 1 else "") for v, e in self.pairs
        )


MONOMIAL_ONE = Monomial()


def _as_coeff(c):
    """The canonical form of an exact scalar: an int when it is integral, a
    Fraction only when it is not."""
    if isinstance(c, Fraction):
        return c.numerator if c.denominator == 1 else c
    if isinstance(c, int):
        return int(c)  # a bool becomes 0 or 1
    raise DomainError(f"coefficients must be exact rationals, got {type(c).__name__}")


class Polynomial:
    """Immutable map monomial -> nonzero coefficient: an int, or a Fraction
    where a non-integer entered."""

    __slots__ = ("terms", "_hash")

    def __init__(self, terms):
        # `terms` is trusted: a dict with no zero coefficients.
        self.terms = terms
        self._hash = None

    @staticmethod
    def zero():
        return _ZERO

    @staticmethod
    def one():
        return _ONE

    @staticmethod
    def constant(c):
        c = _as_coeff(c)
        return Polynomial({MONOMIAL_ONE: c}) if c else _ZERO

    @staticmethod
    def variable(v):
        return Polynomial({Monomial.var(v): 1})

    @staticmethod
    def term(mono, coeff=1):
        c = _as_coeff(coeff)
        return Polynomial({mono: c}) if c else _ZERO

    @staticmethod
    def from_terms(pairs):
        acc = {}
        for mono, c in pairs:
            s = acc.get(mono, 0) + _as_coeff(c)
            if s:
                acc[mono] = _as_coeff(s)
            else:
                acc.pop(mono, None)
        return Polynomial(acc)

    @property
    def is_zero(self):
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __len__(self):
        return len(self.terms)

    def items(self):
        return self.terms.items()

    def coefficient(self, mono):
        return self.terms.get(mono, 0)

    def __add__(self, other):
        if not isinstance(other, Polynomial):
            other = Polynomial.constant(other)
        acc = dict(self.terms)
        for m, c in other.terms.items():
            s = acc.get(m, 0) + c
            if s:
                acc[m] = s if s.__class__ is int or s.denominator != 1 else s.numerator
            else:
                acc.pop(m, None)
        return Polynomial(acc)

    __radd__ = __add__

    def __neg__(self):
        return Polynomial({m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, Polynomial):
            other = Polynomial.constant(other)
        return self + (-other)

    def __rsub__(self, other):
        return Polynomial.constant(other) + (-self)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = _as_coeff(other)
            if not c:
                return _ZERO
            return Polynomial({m: _as_coeff(c * d) for m, d in self.terms.items()})
        if isinstance(other, Monomial):
            return Polynomial({m.mul(other): c for m, c in self.terms.items()})
        if not isinstance(other, Polynomial):
            return NotImplemented
        acc = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = m1.mul(m2)
                s = acc.get(m, 0) + c1 * c2
                if s:
                    acc[m] = s if s.__class__ is int or s.denominator != 1 else s.numerator
                else:
                    acc.pop(m, None)
        return Polynomial(acc)

    __rmul__ = __mul__

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            raise DomainError("polynomial powers take nonnegative integers")
        out = _ONE
        for _ in range(n):
            out = out * self
        return out

    def substitute(self, mapping):
        """Ring morphism determined by variable -> Polynomial; variables
        absent from the mapping are left alone."""
        out = _ZERO
        cache = {}
        for mono, c in self.terms.items():
            part = Polynomial.constant(c)
            for v, e in mono.pairs:
                key = (v, e)
                powed = cache.get(key)
                if powed is None:
                    base = mapping.get(v)
                    powed = (
                        Polynomial.term(Monomial.var(v, e))
                        if base is None
                        else base**e
                    )
                    cache[key] = powed
                part = part * powed
            out = out + part
        return out

    def variables(self):
        seen = set()
        for m in self.terms:
            seen.update(m.variables())
        return seen

    def min_u_degree(self):
        """Smallest u-degree among the monomials; None for the zero
        polynomial."""
        if not self.terms:
            return None
        return min(m.u_degree() for m in self.terms)

    def __eq__(self, other):
        return isinstance(other, Polynomial) and self.terms == other.terms

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(frozenset(self.terms.items()))
        return self._hash

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for m in sorted(self.terms, key=lambda m: m.pairs):
            c = self.terms[m]
            bits.append(f"{c}*{m!r}" if not m.is_one else f"{c}")
        return " + ".join(bits)


_ZERO = Polynomial({})
_ONE = Polynomial({MONOMIAL_ONE: 1})


DIGIT_BITS = 16  # the exponent digit width of an order that names none
MAX_KEY_WEIGHT = (1 << (DIGIT_BITS - 1)) - 1  # largest weight a 16-bit key holds
CHUNK_BITS = 48  # a packed term is read in chunks of whole digits this wide
CHUNK_MASK = (1 << CHUNK_BITS) - 1


def key_bound_error(weight, bound=MAX_KEY_WEIGHT):
    """The error for a monomial of `weight` above an order's key bound."""
    return ResourceLimitError(
        f"monomial weight {weight} exceeds {bound}, the packed-key bound"
    )


class ChunkTable(dict):
    """One chunk's values of a function of a packed term's exponent digits
    that is a sum over digit chunks (a degree code) or a concatenation
    (factor text).  A chunk is a run of `chunk_digits` digits, CHUNK_BITS
    bits, read with one shift and one mask; the table maps a chunk value to
    `of(digits)`, each made the first time it is read.  Every digit stays
    below its guard bit, so no digit carries into the next and a chunk's
    value is exactly its digits: reading a term chunk by chunk gives what
    reading it digit by digit gives."""

    __slots__ = ("_digits", "_of")

    def __init__(self, digits, of):
        self._digits, self._of = digits, of

    def __missing__(self, v):
        value = self[v] = self._of(self._digits(v))
        return value


def _check_weight(v, w):
    """w, the weight of the variable v, when it is a positive int (a bool
    is not one); DomainError otherwise."""
    if isinstance(w, bool) or not isinstance(w, int) or w <= 0:
        raise DomainError(f"weight of {v!r} must be a positive integer")
    return w


class MonomialOrder:
    """Weighted degree, ties broken reverse-lexicographically against the
    fixed variable sequence (exponents on later variables lose)."""

    def __init__(self, variables, weights, digit_bits=DIGIT_BITS):
        self.variables = tuple(variables)
        self.index = {v: i for i, v in enumerate(self.variables)}
        if len(self.index) != len(self.variables):
            raise DomainError("duplicate variable in order")
        self.weights = {v: _check_weight(v, weights.get(v)) for v in self.variables}
        if digit_bits not in (8, 16):
            raise DomainError(f"exponent digits are 8 or 16 bits wide, got {digit_bits!r}")
        # the packed encoding of `key`: the weight above one exponent digit
        # of `digit_bits` bits per variable; `mask` selects the digits of
        # -key and `guard` their top bits, which the division test uses
        self.digit_bits = bits = digit_bits
        self.max_weight = (1 << (bits - 1)) - 1  # the key bound
        shift = bits * len(self.variables)
        self._packed = {
            v: (self.weights[v] << shift) - (1 << bits * i)
            for v, i in self.index.items()
        }
        self._max_key = self.max_weight << shift
        self.mask = (1 << shift) - 1
        self.guard = sum(1 << (bits * i + bits - 1) for i in self.index.values())
        self._slots = sorted(self.index.items())  # (variable, digit index), in Monomial order
        self._bytes = bits // 8 * len(self.variables)
        self._format = "B" if bits == 8 else "H"
        self.chunk_digits = CHUNK_BITS // bits  # digits per chunk (see ChunkTable)
        self._names = None  # the variables' rendered names, made at the first render
        self._chunk_texts = {}  # (piece, joint) -> per-chunk factor texts, made at the first render

    def weight(self, mono):
        try:
            return sum(self.weights[v] * e for v, e in mono.pairs)
        except KeyError as exc:
            raise UnknownVariableError(f"{exc.args[0]!r} is not in this ring") from None

    def key(self, mono):
        """Sort key: bigger key = bigger monomial.

        With n variables, v_i the i-th, b the digit width and B = 2**b, the
        key of a monomial of weight w with exponents e_i is the int

            K = w * B**n - sum_i e_i * B**i

        It sorts by weight first, then by the exponents from the last
        variable back, negated.  K is linear, K(m * m') = K(m) + K(m'), so
        each variable contributes the int (w_v << bn) - (1 << bi) and a
        key is a sum.  P = (-K) mod B**n holds the exponents, one b-bit
        digit each, and with G the guard bits (bit b - 1 of every digit),
        m divides m' exactly when ((P_m' | G) - P_m) & G == G.

        Every exponent is at most the weight, so all digits stay below
        2**(b-1) while the weight does.  A weight above max_weight =
        2**(b-1) - 1 is exactly K > max_weight << bn: such a monomial raises
        ResourceLimitError here, the one check of the encoding's bound.  An
        order keeps its width: past 127 an 8-bit order raises as a 16-bit
        one does past 32,767.
        The width changes no comparison: two orders on one ring that differ
        only in it sort every monomial both hold alike.
        """
        packed = self._packed
        k = 0
        for v, e in mono.pairs:
            p = packed.get(v)
            if p is None:
                raise UnknownVariableError(f"{v!r} is not in this ring")
            k += p * e
        if k > self._max_key:
            raise key_bound_error(self.weight(mono), self.max_weight)
        return k

    def exponents(self, n):
        """The exponents of the monomial whose minus key is n, one digit per
        variable in sequence order, read in one pass."""
        return memoryview((n & self.mask).to_bytes(self._bytes, sys.byteorder)).cast(self._format)

    def chunk_exponents(self, v):
        """The `chunk_digits` exponent digits of the chunk value v, the
        lowest first."""
        return memoryview(v.to_bytes(CHUNK_BITS // 8, sys.byteorder)).cast(self._format)

    def monomial(self, key):
        """The monomial whose key is `key` (the inverse of `key`)."""
        digits = self.exponents(-key)
        return Monomial([(v, e) for v, i in self._slots if (e := digits[i])])

    def greater(self, m1, m2):
        return self.key(m1) > self.key(m2)

    def leading_term(self, poly):
        if poly.is_zero:
            raise DomainError("the zero polynomial has no leading term")
        m = max(poly.terms, key=self.key)
        return m, poly.terms[m]

    def leading_monomial(self, poly):
        return self.leading_term(poly)[0]

    def sorted_terms(self, poly):
        """Terms of poly, leading term first."""
        return sorted(poly.terms.items(), key=lambda t: self.key(t[0]), reverse=True)


# -- rendering and parsing --------------------------------------------------


def render_monomial(mono, order):
    tables = _factor_texts(order, _text_piece, "*")
    return _chunk_text(-order.key(mono) & order.mask, tables, "*") or "1"


def _pack_terms(f, order):
    """The packed polynomial of f (see groebner.py): minus key -> coefficient."""
    key = order.key
    return {-key(m): c for m, c in f.terms.items()}


def _names(order):
    """The rendered names of the order's variables, in sequence order."""
    if order._names is None:
        order._names = tuple(v.render() for v in order.variables)
    return order._names


def _factors(n, order):
    """(name, exponent) of the variables of the monomial with minus key n,
    in the order's sequence."""
    e = order.exponents(n)
    return zip(compress(_names(order), e), compress(e, e))


def _text_piece(name, e):
    return name if e == 1 else f"{name}^{e}"


def _json_piece(name, e):
    return f"{encode_basestring_ascii(name)}: {e}"


def _join_pieces(names, piece, joint, digits):
    return joint.join([piece(v, e) for v, e in zip(names, digits) if e])


def _factor_texts(order, piece, joint):
    """One ChunkTable per chunk of the order's digits, the lowest first,
    mapping a chunk value to piece(name, e) for each nonzero digit e of its
    variables, joined by `joint`; kept on the order per (piece, joint)."""
    key = piece, joint
    tables = order._chunk_texts.get(key)
    if tables is None:
        names, k = _names(order), order.chunk_digits
        tables = order._chunk_texts[key] = [
            ChunkTable(order.chunk_exponents, partial(_join_pieces, names[i : i + k], piece, joint))
            for i in range(0, len(names), k)
        ]
    return tables


def _chunk_text(m, tables, joint):
    """The factor text of the monomial whose exponent digits are m (a minus
    key masked to the order's digits): its nonzero chunks' texts, joined by
    `joint`."""
    parts = []
    for table in tables:
        if not m:
            break
        v = m & CHUNK_MASK
        if v:
            parts.append(table[v])
        m >>= CHUNK_BITS
    return joint.join(parts)


def render_packed(work, order):
    """render_polynomial of a packed polynomial (minus key -> coefficient;
    see groebner.py): the sorted minus keys give the term order, and each
    term's factors are read chunk by chunk from the order's factor texts
    (`_factor_texts`), so no Monomial is built."""
    if not work:
        return "0"
    tables, mask = _factor_texts(order, _text_piece, "*"), order.mask
    out = []
    for i, n in enumerate(sorted(work)):
        c = work[n]
        neg = c < 0
        mag = -c if neg else c
        mono = _chunk_text(n & mask, tables, "*")
        if not mono:
            body = str(mag)
        elif mag == 1:
            body = mono
        else:
            body = f"{mag}*{mono}"
        if i == 0:
            out.append(f"-{body}" if neg else body)
        else:
            out.append(f"{' - ' if neg else ' + '}{body}")
    return "".join(out)


def render_polynomial(poly, order):
    """Canonical text: terms in descending order, `*` between factors,
    coefficient 1 dropped, -1 shown as a bare minus."""
    return render_packed(_pack_terms(poly, order), order)


def packed_to_json(work, order):
    """polynomial_to_json of a packed polynomial."""
    return [
        {"coeff": f"{work[n].numerator}/{work[n].denominator}", "monomial": dict(_factors(n, order))}
        for n in sorted(work)
    ]


def polynomial_to_json(poly, order):
    """JSON-ready list of terms, leading term first."""
    return packed_to_json(_pack_terms(poly, order), order)


def render_packed_json(work, order, pad="\n"):
    """json.dumps(packed_to_json(work, order), indent=2) with every line
    after the first indented by `pad`, the newline and indentation of the
    line the list starts on.  Each term's factors are read chunk by chunk
    from the order's factor texts for this pad (`_factor_texts`), so no
    term dict is built."""
    if not work:
        return "[]"
    inner = pad + "  "  # a term's line
    field = inner + "  "  # "coeff" and "monomial"
    factor = field + "  "  # one variable's exponent
    joint = "," + factor
    head = "{" + field + '"coeff": "'
    middle = '",' + field + '"monomial": '
    tail = inner + "}"
    tables, mask = _factor_texts(order, _json_piece, joint), order.mask
    terms = []
    for n in sorted(work):
        c = work[n]
        mono = _chunk_text(n & mask, tables, joint)
        mono = "{" + factor + mono + field + "}" if mono else "{}"
        terms.append(f"{head}{c.numerator}/{c.denominator}{middle}{mono}{tail}")
    return "[" + inner + ("," + inner).join(terms) + pad + "]"


_COEFF_RE = re.compile(r"^(\d+)(?:/(\d+))?$")
_FACTOR_RE = re.compile(r"^([A-Za-z][A-Za-z0-9]*|u\[[A-Za-z0-9]+,[A-Za-z][A-Za-z0-9]*\])(?:\^(\d+))?$")


def variable_table(variables):
    """Map canonical render string -> VariableId, for the parser."""
    table = {}
    for v in variables:
        s = v.render()
        if s in table and table[s] != v:
            raise DomainError(f"two distinct variables render as {s!r}")
        table[s] = v
    return table


def parse_polynomial(text, variables):
    """Inverse of render_polynomial over a known variable universe.

    Accepts any term order and spacing; `variables` is an iterable of
    VariableIds (or a ready-made table from variable_table).
    """
    table = variables if isinstance(variables, dict) else variable_table(variables)
    s = text.strip()
    if not s:
        raise ParseError("empty polynomial text")
    # split into signed terms at top level (no parentheses in this grammar)
    chunks = re.split(r"\s*([+-])\s*", s)
    if chunks[0] == "":
        chunks = chunks[1:]
    else:
        chunks = ["+"] + chunks
    terms = []
    for sign, body in zip(chunks[0::2], chunks[1::2]):
        if not body:
            raise ParseError(f"dangling sign in {text!r}")
        coeff = Fraction(1) if sign == "+" else Fraction(-1)
        pairs = []
        for factor in body.split("*"):
            factor = factor.strip()
            m = _COEFF_RE.match(factor)
            if m:
                num = int(m.group(1))
                den = int(m.group(2)) if m.group(2) else 1
                if den == 0:
                    raise ParseError(f"zero denominator in {factor!r}")
                coeff *= Fraction(num, den)
                continue
            m = _FACTOR_RE.match(factor)
            if not m:
                raise ParseError(f"cannot parse factor {factor!r}")
            name, exp = m.group(1), int(m.group(2) or 1)
            v = table.get(name)
            if v is None:
                raise UnknownVariableError(f"unknown variable {name!r}")
            pairs.append((v, exp))
        terms.append((Monomial.from_pairs(pairs), coeff))
    return Polynomial.from_terms(terms)


# -- matrices ---------------------------------------------------------------


class PolyMatrix:
    """A rectangular matrix of polynomials with memoized cofactor minors."""

    def __init__(self, rows):
        rows = tuple(tuple(r) for r in rows)
        if rows:
            width = len(rows[0])
            if any(len(r) != width for r in rows):
                raise ShapeError("ragged rows")
        self.rows = rows
        self._det_memo = {}

    @property
    def nrows(self):
        return len(self.rows)

    @property
    def ncols(self):
        return len(self.rows[0]) if self.rows else 0

    def entry(self, i, j):
        return self.rows[i][j]

    def determinant(self):
        if self.nrows != self.ncols:
            raise NonSquareError(f"{self.nrows}x{self.ncols} matrix has no determinant")
        return self._minor(tuple(range(self.nrows)), tuple(range(self.ncols)))

    def minor_det(self, delete_rows=(), delete_cols=()):
        """Determinant of the submatrix obtained by deleting the given row
        and column indices (which must leave a square matrix)."""
        dr, dc = tuple(delete_rows), tuple(delete_cols)
        for idx, bound, what in ((dr, self.nrows, "row"), (dc, self.ncols, "column")):
            if len(set(idx)) != len(idx):
                raise MinorIndexError(f"repeated {what} index in {idx}")
            for i in idx:
                if not (0 <= i < bound):
                    raise MinorIndexError(f"{what} index {i} out of range")
        rows = tuple(i for i in range(self.nrows) if i not in dr)
        cols = tuple(j for j in range(self.ncols) if j not in dc)
        if len(rows) != len(cols):
            raise NonSquareError(f"minor shape {len(rows)}x{len(cols)} is not square")
        return self._minor(rows, cols)

    def _minor(self, rows, cols):
        if not rows:
            return Polynomial.one()
        key = (rows, cols)
        cached = self._det_memo.get(key)
        if cached is not None:
            return cached
        i = rows[0]
        acc = Polynomial.zero()
        sign = 1
        for t, j in enumerate(cols):
            e = self.rows[i][j]
            if not e.is_zero:
                sub = self._minor(rows[1:], cols[:t] + cols[t + 1 :])
                piece = e * sub
                acc = acc + piece if sign > 0 else acc - piece
            sign = -sign
        self._det_memo[key] = acc
        return acc

    def __repr__(self):
        return f"PolyMatrix({self.nrows}x{self.ncols})"
