"""Exact constructions of r-rich line families over nice-basis number fields."""

from .errors import (
    BasisMismatchError,
    ConfigError,
    DegeneratePairError,
    InvalidParameterError,
    InvalidPolynomialError,
    RichlinesError,
    RTooLargeError,
    ZeroDivisorError,
)
from .gapset import GapSet, gap_radius, gap_set, product_bound, sum_bound
from .geometry import (
    CanonicalLine,
    Point,
    collinear,
    line_through,
    on_line,
)
from .numberfield import (
    Element,
    NiceBasis,
    RationalElement,
    basis_from_spec,
    build_integers_basis,
    build_power_basis,
    build_quadratic_basis,
    divide,
)
from .construction import (
    ConstructionParams,
    build_cell_geometry,
    build_pointset,
    generate_line_family,
    szt_incidence_construction,
    translate_vectors,
    verify_claim2,
)

__version__ = "0.1.0"

__all__ = [
    "BasisMismatchError",
    "CanonicalLine",
    "ConfigError",
    "ConstructionParams",
    "DegeneratePairError",
    "Element",
    "GapSet",
    "InvalidParameterError",
    "InvalidPolynomialError",
    "NiceBasis",
    "Point",
    "RTooLargeError",
    "RationalElement",
    "RichlinesError",
    "ZeroDivisorError",
    "basis_from_spec",
    "build_cell_geometry",
    "build_integers_basis",
    "build_pointset",
    "build_power_basis",
    "build_quadratic_basis",
    "collinear",
    "divide",
    "gap_radius",
    "gap_set",
    "generate_line_family",
    "line_through",
    "on_line",
    "product_bound",
    "sum_bound",
    "szt_incidence_construction",
    "translate_vectors",
    "verify_claim2",
]
