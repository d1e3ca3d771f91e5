"""Exact classification of tan^2, tan, cos^2 and cos at rational multiples of pi.

The library answers, in exact arithmetic, whether f(r * pi) is a pole, a
rational number (and which one), or irrational, for rational r and
f in {tan^2, tan, cos^2, cos}; it can emit a step-by-step certificate of
the answer and independently verify such certificates.  Certified interval
evaluation with exact rational endpoints cross-checks the verdicts
numerically.
"""

from .angle import (
    DoublingChain,
    PoleError,
    ReducedAngle,
    cos_base_value,
    double_angle_forward,
    doubling_chain,
    integer_double_angle_preimages,
    invert_double_angle,
    odd_part,
    reduce_for_cos,
    reduce_for_tan,
    tan_squared_base_value,
)
from .certifier import (
    Certificate,
    CertificateFormatError,
    VerificationResult,
    certificate_from_tree,
    certificate_to_tree,
    certify,
    exclude_candidate,
    from_json,
    to_json,
    verify_certificate,
    verify_certificate_json,
)
from .classifier import (
    FUNCTIONS,
    IRRATIONAL,
    POLE,
    TrigVerdict,
    classify,
    classify_cos,
    classify_cos_squared,
    classify_tan,
    classify_tan_squared,
)
from .exact_core import (
    binomial,
    divisors,
    integer_sqrt,
    make_rational,
    rational_sqrt,
)
from .highprec import (
    RatInterval,
    crosscheck,
    eval_cos,
    eval_poly_at_tan_squared,
    eval_tan_squared,
)
from .polynomial import (
    IntPolynomial,
    rational_roots,
    tan_poly,
    tan_squared_poly,
    tan_squared_poly_at,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
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
    "Certificate",
    "CertificateFormatError",
    "VerificationResult",
    "certificate_from_tree",
    "certificate_to_tree",
    "certify",
    "exclude_candidate",
    "from_json",
    "to_json",
    "verify_certificate",
    "verify_certificate_json",
    "FUNCTIONS",
    "IRRATIONAL",
    "POLE",
    "TrigVerdict",
    "classify",
    "classify_cos",
    "classify_cos_squared",
    "classify_tan",
    "classify_tan_squared",
    "binomial",
    "divisors",
    "integer_sqrt",
    "make_rational",
    "rational_sqrt",
    "RatInterval",
    "crosscheck",
    "eval_cos",
    "eval_poly_at_tan_squared",
    "eval_tan_squared",
    "IntPolynomial",
    "rational_roots",
    "tan_poly",
    "tan_squared_poly",
    "tan_squared_poly_at",
]
