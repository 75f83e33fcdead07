"""Exception types shared across the package.

Everything raised on purpose derives from LpError, so callers (and the CLI)
can distinguish "bad input" from genuine bugs.
"""


class LpError(Exception):
    """Base class for all errors raised deliberately by this package."""


class ParseError(LpError):
    """Malformed poset file or polynomial text."""


class CycleError(LpError):
    """The declared relations are not antisymmetric / contain a cycle."""


class NotATreeError(LpError):
    """The poset's Hasse diagram is not a rooted tree."""


class SizeLimitError(LpError):
    """An enumeration guard tripped (e.g. order-ideal counting on a large poset)."""


class NonSquareError(LpError):
    """Determinant of a non-square matrix was requested."""


class ResourceLimitError(LpError):
    """A budget was exceeded: a Groebner basis's pair count or lcm weight,
    the weight a packed order key holds (2**7 - 1 with 8-bit digits,
    2**15 - 1 with 16-bit digits, and a Hilbert max_degree too), or the
    total degree 2**31 - 1 a packed multidegree holds."""


class RelationError(LpError):
    """Elements passed to a recursion step do not stand in the required relation."""


class LeafError(LpError):
    """A child matrix was requested for a maximal element."""


class MinorIndexError(LpError, IndexError):
    """A minor's row/column indices are out of range or repeated."""


class ShapeError(LpError):
    """Row/column index lists of a generalized minor have incompatible sizes."""


class NotComparableError(LpError):
    """Two elements that must be comparable are not."""


class DomainError(LpError):
    """A polynomial argument lies outside the domain an operation is defined on."""


class NotHomogeneousError(DomainError):
    """A polynomial expected to be multigraded-homogeneous is not.

    Carries a witness: two monomials of the polynomial and their distinct
    multidegrees.
    """

    def __init__(self, message, mono1, deg1, mono2, deg2):
        super().__init__(message)
        self.witness = (mono1, deg1, mono2, deg2)


class UnknownVariableError(LpError):
    """A variable does not belong to the ring under consideration."""
