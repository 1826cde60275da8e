"""Exact p-adic upper-triangular matrix calculus.

The package verifies, in exact capped-precision arithmetic, the full
identity inventory of a family of operation matrices over the p-adic
integers: q-binomial expansions of powers, closed entry formulas,
filtration behavior, conjugation onto the model matrix R, and the
integral basis of a bivariate polynomial subring together with the
substitution action on it.

The names imported below are the public API.
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
    nu_factorial,
    nu_int,
)
from .qcalc import QPoly, binom, qbinom, qbinom_eval, qbinom_residue
from .utmat import UTWindow

__version__ = "0.1.0"

