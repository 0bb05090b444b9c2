"""Alexander polynomials of knots from deficiency-one group presentations.

The package computes Alexander polynomials via free differential (Fox)
calculus, instantiates a two-parameter family of twisted torus knots with
closed-form polynomials and longitudes, certifies a simple root of each
family polynomial on the unit circle by interval arguments, and classifies
rational surgery slopes against the family's non-left-orderability
threshold.  A command-line front end (``knotalex``) exposes the same
operations; see the README for usage.
"""

import importlib

__version__ = "0.1.0"

#: Home module of each public name.  Names load on first access (PEP 562),
#: so ``import knotalex`` and a command-line call import only the modules
#: they use.
_HOMES = {
    "AlexanderMatrix": "alexander",
    "alexander_matrix": "alexander",
    "alexander_polynomial": "alexander",
    "closed_form_alexander": "family",
    "torus_knot_alexander": "alexander",
    "FamilyParams": "family",
    "SurgeryClassification": "family",
    "SurgerySlope": "family",
    "Verdict": "family",
    "classify_surgery": "family",
    "genus": "family",
    "knot_group_presentation": "family",
    "preferred_longitude": "family",
    "slope_bound": "family",
    "GroupRingElement": "foxcalc",
    "Weights": "foxcalc",
    "abelianize": "foxcalc",
    "compute_weights": "foxcalc",
    "fox_derivative": "foxcalc",
    "geometric_series": "foxcalc",
    "LaurentPoly": "laurent",
    "centered_cosine_form": "laurent",
    "centered_cosine_value": "laurent",
    "eval_unit_circle": "laurent",
    "exact_div": "laurent",
    "format_poly": "laurent",
    "from_json_dict": "laurent",
    "is_palindromic": "laurent",
    "normalize_knot_poly": "laurent",
    "to_json_dict": "laurent",
    "CertificateKind": "rootcert",
    "CircleRoot": "rootcert",
    "MonotonicityWitness": "rootcert",
    "RootCertificate": "rootcert",
    "certificate_record": "rootcert",
    "certify_family_root": "rootcert",
    "circle_function": "rootcert",
    "circle_function_derivative": "rootcert",
    "find_simple_roots": "rootcert",
    "residual_at_certified_root": "rootcert",
    "Presentation": "words",
    "Word": "words",
    "parse_presentation": "words",
    "parse_word": "words",
}
_SUBMODULES = frozenset(
    ("alexander", "cli", "errors", "family", "foxcalc", "laurent", "rootcert", "words")
)

__all__ = sorted([*_HOMES, "errors"])


def __getattr__(name: str):
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _HOMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_HOMES[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
