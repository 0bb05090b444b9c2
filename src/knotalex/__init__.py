"""Alexander polynomials of knots from deficiency-one group presentations.

The package computes Alexander polynomials via free differential (Fox)
calculus, instantiates a two-parameter family of twisted torus knots with
closed-form polynomials and longitudes, certifies a simple root of each
family polynomial on the unit circle by interval arguments, and classifies
rational surgery slopes against the family's non-left-orderability
threshold.  A command-line front end (``knotalex``) exposes the same
operations; see the README for usage.
"""

from . import errors
from .alexander import (
    AlexanderMatrix,
    alexander_matrix,
    alexander_polynomial,
    closed_form_alexander,
    torus_knot_alexander,
)
from .family import (
    FamilyParams,
    SurgeryClassification,
    SurgerySlope,
    Verdict,
    classify_surgery,
    genus,
    knot_group_presentation,
    preferred_longitude,
    slope_bound,
)
from .foxcalc import (
    GroupRingElement,
    Weights,
    abelianize,
    compute_weights,
    fox_derivative,
    geometric_series,
)
from .laurent import (
    LaurentPoly,
    centered_cosine_form,
    centered_cosine_value,
    eval_unit_circle,
    exact_div,
    format_poly,
    from_json_dict,
    is_palindromic,
    normalize_knot_poly,
    to_json_dict,
)
from .rootcert import (
    CertificateKind,
    CircleRoot,
    MonotonicityWitness,
    RootCertificate,
    certificate_record,
    certify_family_root,
    circle_function,
    circle_function_derivative,
    find_simple_roots,
    residual_at_certified_root,
)
from .words import Presentation, Word, parse_presentation, parse_word

__version__ = "0.1.0"

__all__ = [
    "AlexanderMatrix",
    "CertificateKind",
    "CircleRoot",
    "FamilyParams",
    "GroupRingElement",
    "LaurentPoly",
    "MonotonicityWitness",
    "Presentation",
    "RootCertificate",
    "SurgeryClassification",
    "SurgerySlope",
    "Verdict",
    "Weights",
    "Word",
    "abelianize",
    "alexander_matrix",
    "alexander_polynomial",
    "centered_cosine_form",
    "centered_cosine_value",
    "certificate_record",
    "certify_family_root",
    "circle_function",
    "circle_function_derivative",
    "classify_surgery",
    "closed_form_alexander",
    "compute_weights",
    "errors",
    "eval_unit_circle",
    "exact_div",
    "find_simple_roots",
    "format_poly",
    "fox_derivative",
    "from_json_dict",
    "genus",
    "geometric_series",
    "is_palindromic",
    "knot_group_presentation",
    "normalize_knot_poly",
    "parse_presentation",
    "parse_word",
    "preferred_longitude",
    "residual_at_certified_root",
    "slope_bound",
    "to_json_dict",
    "torus_knot_alexander",
]
