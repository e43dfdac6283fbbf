"""Exact toolkit for finite conformal algebras.

Define algebras with a spectral product table over the rational d-polynomial
ring, verify their axioms, glue matched pairs into bicrossed products, twist
complements by deformation maps, and distinguish the results by exact module
invariants.  Everything is computed in exact rational arithmetic.
"""

from .actions import (
    MatchedPair,
    build_bicrossed,
    check_b1_b2_direct,
    check_matched_pair,
)
from .algebra import (
    ASSOCIATIVE,
    CheckReport,
    ConformalAlgebra,
    LIE,
    check_axioms,
)
from .constraints import (
    AnsatzSpec,
    ConstraintSystem,
    compile_deformation_constraints,
    grid_search,
    grid_values,
    linear_eliminate,
    verify_assignment,
)
from .deform import (
    DeformationMap,
    Morphism,
    check_deformation_map,
    check_equivalence,
    check_morphism,
    deformed_algebra,
)
from .dsl import Document, ParseError, parse_document, serialize, try_parse
from .poly import D, L1, L2, MultiPoly, unknown
from .structure import (
    Submodule,
    derived_subalgebra,
    hermite_normal_form,
    is_abelian,
    is_solvable,
    span,
)

__version__ = "0.1.0"
