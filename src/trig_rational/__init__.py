"""Exact classification of tan^2, tan, cos^2 and cos at rational multiples of pi.

The library answers, in exact arithmetic, whether f(r * pi) is a pole, a
rational number (and which one), or irrational, for rational r and
f in {tan^2, tan, cos^2, cos}; it can emit a certificate of the answer,
which states the claim, and independently verify it by deriving the verdict
from the input's reduced denominator.  Certified interval evaluation with
exact rational endpoints cross-checks the verdicts numerically.

Importing the package loads no submodule: each public name is imported from
its module on first use (PEP 562), so a process that only verifies loads
only the kernel.  FUNCTIONS is defined here, for the generator modules and
the command line; the kernel keeps its own copy, so it imports nothing from
the package.
"""

from importlib import import_module

__version__ = "0.1.0"

FUNCTIONS = ("tan2", "tan", "cos2", "cos")

# public name -> the submodule that defines it
_EXPORTS = {
    **dict.fromkeys([
        "DoublingChain",
        "PoleError",
        "ReducedAngle",
        "cos_base_value",
        "double_angle_forward",
        "doubling_chain",
        "integer_double_angle_preimages",
        "invert_double_angle",
        "odd_part",
        "reduce_for_cos",
        "reduce_for_tan",
        "tan_squared_base_value",
    ], "angle"),
    "Certificate": "certifier",
    "CertificateFormatError": "kernel",
    "VerificationResult": "kernel",
    **dict.fromkeys([
        "certificate_from_tree",
        "certificate_to_tree",
        "certify",
        "exclude_candidate",
        "from_json",
        "to_json",
        "verify_certificate",
    ], "certifier"),
    "verify_certificate_json": "kernel",
    **dict.fromkeys([
        "IRRATIONAL",
        "POLE",
        "TrigVerdict",
        "classify",
        "classify_cos",
        "classify_cos_squared",
        "classify_tan",
        "classify_tan_squared",
    ], "classifier"),
    **dict.fromkeys([
        "binomial",
        "divisors",
        "integer_sqrt",
        "make_rational",
        "rational_sqrt",
    ], "exact_core"),
    **dict.fromkeys([
        "RatInterval",
        "crosscheck",
        "eval_cos",
        "eval_poly_at_tan_squared",
        "eval_tan_squared",
    ], "highprec"),
    **dict.fromkeys([
        "IntPolynomial",
        "rational_roots",
        "tan_poly",
        "tan_squared_poly",
        "tan_squared_poly_at",
    ], "polynomial"),
}

__all__ = ["__version__", "FUNCTIONS", *_EXPORTS]


def __getattr__(name: str) -> object:
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_EXPORTS[name]}", __name__), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__() -> list[str]:
    return sorted(__all__)
