"""Exact p-adic upper-triangular matrix calculus.

The package verifies, in exact capped-precision arithmetic, the full
identity inventory of a family of operation matrices over the p-adic
integers: q-binomial expansions of powers, closed entry formulas,
filtration behavior, conjugation onto the model matrix R, and the
integral basis of a bivariate polynomial subring together with the
substitution action on it.
"""

from .basis import (
    BivarPoly,
    IntegralityResult,
    beta,
    big_F,
    c_poly,
    check_integrality,
    expand_in_c_basis,
    expand_in_g_basis,
    f_poly,
    g_poly,
    psi_action,
    required_precision,
    sample_integrality,
)
from .conj import (
    AFormMatrix,
    ConjugationReport,
    build_E,
    build_U,
    conjugator,
    normalize_superdiag,
    verify_conjugation,
)
from .errors import (
    BadIndexError,
    BadPrecisionError,
    ContextMismatchError,
    DomainError,
    InvariantError,
    NotAUnitError,
    NotInvertibleError,
    NotPrimeError,
    NotPrimitiveError,
    PrecisionExhaustedError,
    SizeMismatchError,
    UttError,
)
from .ops import (
    alpha,
    build_D,
    build_R,
    build_Rn,
    build_S,
    build_Xn,
    build_basic,
    rpower_closed,
    xn_closed,
    xn_expand_binomial,
)
from .padic import (
    PadicContext,
    PadicInt,
    PadicScaled,
    is_prime,
    make_context,
    multiplicative_order,
    nu_factorial,
    nu_int,
)
from .qcalc import QPoly, binom, qbinom, qbinom_eval
from .utmat import Membership, UTWindow

__version__ = "0.1.0"

__all__ = [
    "AFormMatrix",
    "BadIndexError",
    "BadPrecisionError",
    "BivarPoly",
    "ConjugationReport",
    "ContextMismatchError",
    "DomainError",
    "IntegralityResult",
    "InvariantError",
    "Membership",
    "NotAUnitError",
    "NotInvertibleError",
    "NotPrimeError",
    "NotPrimitiveError",
    "PadicContext",
    "PadicInt",
    "PadicScaled",
    "PrecisionExhaustedError",
    "QPoly",
    "SizeMismatchError",
    "UTWindow",
    "UttError",
    "alpha",
    "beta",
    "big_F",
    "binom",
    "build_D",
    "build_E",
    "build_R",
    "build_Rn",
    "build_S",
    "build_U",
    "build_Xn",
    "build_basic",
    "c_poly",
    "check_integrality",
    "conjugator",
    "expand_in_c_basis",
    "expand_in_g_basis",
    "f_poly",
    "g_poly",
    "is_prime",
    "make_context",
    "multiplicative_order",
    "normalize_superdiag",
    "nu_factorial",
    "nu_int",
    "psi_action",
    "qbinom",
    "qbinom_eval",
    "required_precision",
    "rpower_closed",
    "sample_integrality",
    "verify_conjugation",
    "xn_closed",
    "xn_expand_binomial",
]
