"""Deformations of quadratic letterplace ideals of rooted-tree posets.

The package builds, for a finite poset P whose Hasse diagram is a rooted
tree, the deformed ideal J(2,P) of the letterplace ideal L(2,P), exposes
the multigrading and cotangent data driving the construction, and machine-
verifies the structural facts: specialization at u = 0, homogeneity, the
degree laws, the flatness identities (via Groebner normal forms), and
truncated Hilbert-function agreement.
"""

from .errors import (
    CycleError,
    DomainError,
    LeafError,
    LpError,
    MinorIndexError,
    NonSquareError,
    NotATreeError,
    NotComparableError,
    NotHomogeneousError,
    ParseError,
    RelationError,
    ResourceLimitError,
    ShapeError,
    SizeLimitError,
    UnknownVariableError,
)
from .posets import (
    Poset,
    RootedTree,
    all_rooted_trees,
    as_rooted_tree,
    load_poset,
    parse_poset,
    rooted_tree_shapes,
    shape_size,
    shape_to_tree,
)
from .polynomials import (
    Monomial,
    MonomialOrder,
    PolyMatrix,
    Polynomial,
    UVar,
    XVar,
    parse_polynomial,
    polynomial_to_json,
    render_monomial,
    render_polynomial,
    variable_table,
)
from .groebner import GroebnerBasis, buchberger, normal_form, s_polynomial
from .letterplace import (
    comparable_pairs,
    letterplace_generators,
    letterplace_polynomials,
    parameter_pairs,
    ring_variables,
    u_variables,
    x_variables,
)
from .deformation import DeformationContext, j_ideal_generators
from .grading import (
    MultiDegree,
    hat_degree,
    homogeneous_degree,
    monomial_degree,
    monomial_order_for,
    positivity_witness,
    truncated_hilbert,
    variable_degree,
)
from .cotangent import (
    T1Generator,
    minimal_lower_bound_sets,
    minimal_upper_bound_sets,
    t1_generators,
    t1_generators_tree,
)
from .verifier import CheckReport, Verifier
from .cli import compare_fixture, run

__version__ = "0.1.0"

__all__ = [
    "CheckReport",
    "CycleError",
    "DeformationContext",
    "DomainError",
    "GroebnerBasis",
    "LeafError",
    "LpError",
    "MinorIndexError",
    "Monomial",
    "MonomialOrder",
    "MultiDegree",
    "NonSquareError",
    "NotATreeError",
    "NotComparableError",
    "NotHomogeneousError",
    "ParseError",
    "PolyMatrix",
    "Polynomial",
    "Poset",
    "RelationError",
    "ResourceLimitError",
    "RootedTree",
    "ShapeError",
    "SizeLimitError",
    "T1Generator",
    "UVar",
    "UnknownVariableError",
    "Verifier",
    "XVar",
    "all_rooted_trees",
    "as_rooted_tree",
    "buchberger",
    "comparable_pairs",
    "compare_fixture",
    "hat_degree",
    "homogeneous_degree",
    "j_ideal_generators",
    "letterplace_generators",
    "letterplace_polynomials",
    "load_poset",
    "minimal_lower_bound_sets",
    "minimal_upper_bound_sets",
    "monomial_degree",
    "monomial_order_for",
    "normal_form",
    "parameter_pairs",
    "parse_polynomial",
    "parse_poset",
    "polynomial_to_json",
    "positivity_witness",
    "render_monomial",
    "render_polynomial",
    "ring_variables",
    "rooted_tree_shapes",
    "shape_size",
    "run",
    "s_polynomial",
    "shape_to_tree",
    "t1_generators",
    "t1_generators_tree",
    "truncated_hilbert",
    "u_variables",
    "variable_degree",
    "variable_table",
    "x_variables",
]
