"""Exact lexicographic Groebner bases of vanishing ideals of finite
point sets, computed two independent ways: by staircase induction with
interpolation lifting, and by rank-driven Buchberger-Moller discovery.
"""

from .bm import bm_gb, bm_staircase
from .core import (
    DuplicatePointError,
    GroebnerBasis,
    PointSet,
    build_phi,
    compute_staircase,
    slice_decompose,
    slice_representative,
    staircase_gb,
)
from .field import PrimeField, QQ, RationalField, is_prime
from .interp import char_poly_family, univariate_vanishing
from .poly import Polynomial, normal_form, s_polynomial
from .staircase import NotLowerSetError, Staircase, staircase_sum
from .verify import (
    CheckResult,
    VerificationReport,
    check_buchberger,
    check_dimension,
    check_reduced_shape,
    check_vanishing,
    verify_basis,
)

__version__ = "0.1.0"

__all__ = [
    "DuplicatePointError",
    "GroebnerBasis",
    "NotLowerSetError",
    "PointSet",
    "Polynomial",
    "PrimeField",
    "QQ",
    "RationalField",
    "Staircase",
    "CheckResult",
    "VerificationReport",
    "bm_gb",
    "bm_staircase",
    "build_phi",
    "char_poly_family",
    "check_buchberger",
    "check_dimension",
    "check_reduced_shape",
    "check_vanishing",
    "compute_staircase",
    "is_prime",
    "normal_form",
    "s_polynomial",
    "slice_decompose",
    "slice_representative",
    "staircase_gb",
    "staircase_sum",
    "univariate_vanishing",
    "verify_basis",
]
